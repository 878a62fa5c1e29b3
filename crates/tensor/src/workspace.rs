//! Epoch-persistent buffer pool for the training loop.
//!
//! Every training epoch builds a fresh [`crate::Tape`], and before this
//! module existed every node value and every backward gradient accumulator
//! was a freshly heap-allocated `Vec<f32>`. The shapes, however, are
//! *identical* from epoch to epoch — the graph, the layer widths and the op
//! sequence are all fixed — so the second epoch can run entirely out of the
//! buffers the first epoch released.
//!
//! [`Workspace`] is a shape-keyed free-list: buffers are keyed by element
//! count (`rows * cols`), taken with [`Workspace::take_zeroed`] /
//! [`Workspace::take_copy`] and returned with [`Workspace::give`] (the
//! `Tape` does both automatically once built via `Tape::with_workspace`).
//! Keying by length rather than shape is deliberate — an `n x k` gradient
//! and a `k x n` transpose can share storage — and is safe because every
//! take either zero-fills or copy-overwrites the recycled buffer, so pooled
//! and non-pooled runs are bitwise identical.
//!
//! The pool is `Rc<RefCell<...>>` inside and cheap to clone: one training
//! run shares a single `Workspace` between the training-mode forward, the
//! backward pass and the eval-mode forward of every epoch.
//!
//! `Workspace::new()` always pools. [`Workspace::with_pooling`]`(false)`
//! is the unpooled reference — every take allocates and every give drops
//! the buffer — that the equivalence tests compare against.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rdd_obs::{CounterCell, GaugeCell};

use crate::matrix::Matrix;

/// Pool telemetry (no-ops unless `RDD_TRACE` enables the recorder):
/// buffers served from the free-list, takes that fell through to the
/// allocator, and the peak bytes parked in the free-list.
static OBS_HITS: CounterCell = CounterCell::new("workspace.hits");
static OBS_MISSES: CounterCell = CounterCell::new("workspace.misses");
static OBS_BYTES_RETAINED: GaugeCell = GaugeCell::new("workspace.bytes_retained");

/// Cumulative pool statistics for one [`Workspace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Takes served from the free-list.
    pub hits: u64,
    /// Takes that had to allocate (pool empty for that size class).
    pub misses: u64,
    /// Bytes currently parked in the free-list.
    pub retained_bytes: usize,
}

#[derive(Default)]
struct PoolInner {
    /// Free-list keyed by element count. All buffers under key `k` have
    /// `len() == k`.
    free: HashMap<usize, Vec<Vec<f32>>>,
    hits: u64,
    misses: u64,
    retained_bytes: usize,
}

/// A shape-keyed pool of `Vec<f32>` buffers shared across the tapes of one
/// training run. Cheap to clone (`Rc` inside); see the module docs for the
/// pooling contract.
#[derive(Clone)]
pub struct Workspace {
    inner: Rc<RefCell<PoolInner>>,
    pooling: bool,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// A pooling workspace.
    pub fn new() -> Self {
        Self::with_pooling(true)
    }

    /// A workspace with pooling explicitly on or off. With pooling off
    /// every take allocates and every give drops, which is the reference
    /// behavior the equivalence tests compare against.
    pub fn with_pooling(pooling: bool) -> Self {
        Self {
            inner: Rc::new(RefCell::new(PoolInner::default())),
            pooling,
        }
    }

    /// Pop a buffer of exactly `len` elements, counting hit/miss. `None`
    /// means the caller must allocate (pooling off, zero-sized, or empty
    /// size class).
    fn take_raw(&self, len: usize) -> Option<Vec<f32>> {
        if !self.pooling || len == 0 {
            return None;
        }
        let mut inner = self.inner.borrow_mut();
        match inner.free.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                inner.hits += 1;
                inner.retained_bytes -= len * std::mem::size_of::<f32>();
                OBS_HITS.add(1);
                Some(buf)
            }
            None => {
                inner.misses += 1;
                OBS_MISSES.add(1);
                None
            }
        }
    }

    /// Park `buf` in the free-list (drops it when pooling is off or the
    /// buffer is empty).
    fn give_raw(&self, buf: Vec<f32>) {
        let len = buf.len();
        if !self.pooling || len == 0 {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        inner.free.entry(len).or_default().push(buf);
        inner.retained_bytes += len * std::mem::size_of::<f32>();
        OBS_BYTES_RETAINED.record_max(inner.retained_bytes as u64);
    }

    /// A `rows x cols` matrix of zeros, recycled when possible.
    pub fn take_zeroed(&self, rows: usize, cols: usize) -> Matrix {
        match self.take_raw(rows * cols) {
            Some(mut buf) => {
                buf.fill(0.0);
                Matrix::from_vec(rows, cols, buf)
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A `rows x cols` matrix whose contents are unspecified (recycled
    /// bytes when pooled, zeros otherwise). Only for consumers that
    /// overwrite every element before reading any — the fully-overwriting
    /// kernels (`matmul_a_bt_into`, `hcat_into`) qualify.
    pub fn take_uninit(&self, rows: usize, cols: usize) -> Matrix {
        match self.take_raw(rows * cols) {
            Some(buf) => Matrix::from_vec(rows, cols, buf),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A copy of `src`, recycled when possible.
    pub fn take_copy(&self, src: &Matrix) -> Matrix {
        match self.take_raw(src.len()) {
            Some(mut buf) => {
                buf.copy_from_slice(src.as_slice());
                Matrix::from_vec(src.rows(), src.cols(), buf)
            }
            None => src.clone(),
        }
    }

    /// An empty `Vec<f32>` with capacity for at least `len` elements
    /// (dropout masks, attention coefficient caches). Pair with
    /// [`Workspace::give_vec`] once the vec holds exactly `len` elements
    /// again, or the buffer migrates to a different size class.
    pub fn take_vec(&self, len: usize) -> Vec<f32> {
        match self.take_raw(len) {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    /// A zero-filled `Vec<f32>` of exactly `len` elements.
    pub fn take_vec_zeroed(&self, len: usize) -> Vec<f32> {
        match self.take_raw(len) {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Return a matrix's storage to the pool.
    pub fn give(&self, m: Matrix) {
        self.give_raw(m.into_vec());
    }

    /// Return a raw buffer to the pool (keyed by its current length).
    pub fn give_vec(&self, v: Vec<f32>) {
        self.give_raw(v);
    }

    /// Return a whole gradient set (as produced by `Tape::backward`) to the
    /// pool. Call after the optimizer has consumed the gradients.
    pub fn give_grads(&self, grads: Vec<Option<Matrix>>) {
        for g in grads.into_iter().flatten() {
            self.give(g);
        }
    }

    /// Cumulative hit/miss/retention statistics for this workspace.
    pub fn stats(&self) -> WorkspaceStats {
        let inner = self.inner.borrow();
        WorkspaceStats {
            hits: inner.hits,
            misses: inner.misses,
            retained_bytes: inner.retained_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_reuses_storage() {
        let ws = Workspace::with_pooling(true);
        let m = ws.take_zeroed(4, 3);
        assert_eq!(ws.stats().misses, 1);
        ws.give(m);
        assert_eq!(ws.stats().retained_bytes, 48);
        let m2 = ws.take_zeroed(3, 4); // same element count, new shape
        assert_eq!(ws.stats().hits, 1);
        assert_eq!(m2.shape(), (3, 4));
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_copy_overwrites_recycled_contents() {
        let ws = Workspace::with_pooling(true);
        let mut dirty = ws.take_zeroed(2, 2);
        dirty.as_mut_slice().fill(7.0);
        ws.give(dirty);
        let src = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let copy = ws.take_copy(&src);
        assert_eq!(ws.stats().hits, 1);
        assert_eq!(copy.as_slice(), src.as_slice());
    }

    #[test]
    fn pooling_off_never_retains() {
        let ws = Workspace::with_pooling(false);
        let m = ws.take_zeroed(8, 8);
        ws.give(m);
        let s = ws.stats();
        assert_eq!((s.hits, s.misses, s.retained_bytes), (0, 0, 0));
    }

    #[test]
    fn zero_sized_buffers_bypass_the_pool() {
        let ws = Workspace::with_pooling(true);
        let m = ws.take_zeroed(0, 5);
        ws.give(m);
        let s = ws.stats();
        assert_eq!((s.hits, s.misses, s.retained_bytes), (0, 0, 0));
    }

    #[test]
    fn clones_share_one_pool() {
        let ws = Workspace::with_pooling(true);
        let ws2 = ws.clone();
        ws.give(Matrix::zeros(2, 2));
        let m = ws2.take_zeroed(2, 2);
        assert_eq!(ws.stats().hits, 1);
        assert_eq!(m.len(), 4);
    }
}
