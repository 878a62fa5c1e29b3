//! Compressed Sparse Row matrix and the SpMM kernels used by GCN layers.
//!
//! Two matrices in this codebase are sparse and *constant* during training:
//! the normalized adjacency Â and the bag-of-words feature matrix X. Both
//! only ever appear on the left of a product with a dense matrix, so CSR with
//! a row-gather SpMM is the natural layout. The transpose product
//! (`self^T @ dense`, needed by backprop through `X @ W`) is implemented as a
//! scatter over the same CSR arrays, avoiding a materialized CSC copy (input
//! dropout builds a new X every epoch, so a transpose would be rebuilt per
//! call). The scatter `spmm_t` runs as one pass from input row 0 and the
//! gather kernels (`spmm`, `spmv`) one pass over the output rows, so every
//! output element has one summation order.

use crate::matrix::Matrix;
use crate::rows::{Gather, Scatter};
use crate::simd;
use rdd_obs::SpanCell;

/// Wall-time spans for the sparse kernels (see the dense twins in
/// `matrix.rs`); near-free when tracing is off.
static SPAN_SPMM: SpanCell = SpanCell::new("spmm");
static SPAN_SPMM_T: SpanCell = SpanCell::new("spmm_t");
static SPAN_SPMV: SpanCell = SpanCell::new("spmv");

/// CSR sparse matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[i]..indptr[i+1]` is the slice of `indices`/`values` for row i.
    indptr: Vec<usize>,
    /// Column index of each stored entry (u32: graphs here are < 4B nodes).
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from COO triplets `(row, col, value)`.
    ///
    /// Duplicate coordinates are summed. Entries that sum to exactly zero are
    /// kept (callers that care can [`CsrMatrix::prune`] afterwards).
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds for {rows}x{cols}"
            );
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let indptr_raw = counts.clone();
        let mut indices = vec![0u32; triplets.len()];
        let mut values = vec![0f32; triplets.len()];
        let mut cursor = indptr_raw.clone();
        for &(r, c, v) in triplets {
            let k = cursor[r];
            indices[k] = c as u32;
            values[k] = v;
            cursor[r] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut out_indptr = vec![0usize; rows + 1];
        let mut out_indices = Vec::with_capacity(triplets.len());
        let mut out_values = Vec::with_capacity(triplets.len());
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            let (s, e) = (indptr_raw[r], indptr_raw[r + 1]);
            scratch.extend(
                indices[s..e]
                    .iter()
                    .copied()
                    .zip(values[s..e].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut last_col = u32::MAX;
            for &(c, v) in &scratch {
                if c == last_col {
                    *out_values
                        .last_mut()
                        .expect("duplicate implies prior entry") += v;
                } else {
                    out_indices.push(c);
                    out_values.push(v);
                    last_col = c;
                }
            }
            out_indptr[r + 1] = out_indices.len();
        }
        Self {
            rows,
            cols,
            indptr: out_indptr,
            indices: out_indices,
            values: out_values,
        }
    }

    /// Build directly from CSR arrays (rows of `indices` must be sorted).
    pub fn from_csr(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1);
        assert_eq!(indices.len(), values.len());
        assert_eq!(*indptr.last().expect("indptr non-empty"), indices.len());
        debug_assert!(indices.iter().all(|&c| (c as usize) < cols));
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// An `n x n` identity in CSR form.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column_indices, values)` of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Look up a single entry (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f32 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Iterate all stored `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Vertical stack of rows `rows` taken from `self` (the sparse twin of
    /// [`Matrix::take_rows`]). Rows may repeat and appear in any order; an
    /// empty `rows` gives a `0 x cols` matrix.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let nnz = rows.iter().map(|&r| self.row_nnz(r)).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            let (cols, vals) = self.row(r);
            indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: rows.len(),
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Drop stored entries with `|value| <= eps`.
    ///
    /// Rows are already sorted, so the CSR arrays are rebuilt in one linear
    /// pass — no round-trip through `from_triplets` and its per-row re-sort.
    pub fn prune(&self, eps: f32) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if v.abs() > eps {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Dense copy (test/debug use only — O(rows·cols) memory).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, out.get(r, c) + v);
        }
        out
    }

    /// Sparse-dense product `self @ rhs` (row-gather, parallel over rows).
    pub fn spmm(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        self.spmm_into(rhs, &mut out);
        out
    }

    /// `out += self @ rhs` into a caller-owned (zero-filled) output of
    /// shape `self.rows x rhs.cols` (the pooled-buffer entry point).
    pub fn spmm_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "spmm shape mismatch {:?} @ {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols()),
            "spmm_into output shape mismatch"
        );
        let _span = SPAN_SPMM.enter();
        let n = rhs.cols();
        let tier = simd::active();
        // Each output row stays in registers while its neighbors are
        // gathered four at a time, which is what lets the ~16-nnz rows of
        // bag-of-words features run at dense-kernel throughput.
        let gather = Gather::new(out.as_mut_slice(), rhs.as_slice(), n, |i| {
            let (cols, vals) = self.row(i);
            (vals, cols)
        });
        simd::run_rows(tier, &gather, 0..self.rows);
    }

    /// Transpose-product `self^T @ rhs` via one sequential scatter over the
    /// input rows.
    ///
    /// Needed by backprop: for `C = S @ W` with constant sparse `S`,
    /// `dW = S^T @ dC`.
    pub fn spmm_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols());
        self.spmm_t_into(rhs, &mut out);
        out
    }

    /// `out += self^T @ rhs` into a caller-owned (zero-filled) output of
    /// shape `self.cols x rhs.cols`.
    pub fn spmm_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            rhs.rows(),
            "spmm_t shape mismatch {:?}^T @ {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.cols, rhs.cols()),
            "spmm_t_into output shape mismatch"
        );
        let _span = SPAN_SPMM_T.enter();
        let n = rhs.cols();
        // One scatter over the input rows from row 0, so each output
        // element sums in one order. Row i of `rhs` stays in registers
        // while it scatters into the output rows named by row i's column
        // indices.
        let scatter = Scatter::new(out.as_mut_slice(), n, |i| {
            let (cols, vals) = self.row(i);
            ([vals], cols, [rhs.row(i)])
        });
        simd::run_rows(simd::active(), &scatter, 0..self.rows);
    }

    /// Sparse-vector product `self @ v` (row-gather).
    pub fn spmv(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols, v.len(), "spmv shape mismatch");
        let _span = SPAN_SPMV.enter();
        (0..self.rows)
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter()
                    .zip(vals)
                    .map(|(&c, &w)| w * v[c as usize])
                    .sum()
            })
            .collect()
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let triplets: Vec<_> = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// A copy with each stored value transformed by `f(row, col, value)`.
    pub fn map_values(&self, mut f: impl FnMut(usize, usize, f32) -> f32) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let (s, e) = (self.indptr[r], self.indptr[r + 1]);
            for k in s..e {
                out.values[k] = f(r, out.indices[k] as usize, self.values[k]);
            }
        }
        out
    }

    /// Row sums (out-degree when the matrix is an adjacency).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows).map(|i| self.row(i).1.iter().sum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn triplets_roundtrip() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
    }

    #[test]
    fn select_rows_gathers_repeats_and_empty() {
        let m = sample();
        let picked = m.select_rows(&[1, 0, 1]);
        assert_eq!(picked.shape(), (3, 3));
        assert_eq!(picked.nnz(), 4);
        let dense = m.to_dense();
        let want = dense.take_rows(&[1, 0, 1]);
        assert_eq!(picked.to_dense().as_slice(), want.as_slice());
        // A row with no stored entries stays empty.
        let sparse_row = CsrMatrix::from_triplets(3, 2, &[(0, 1, 4.0), (2, 0, 5.0)]);
        let got = sparse_row.select_rows(&[1, 2, 1]);
        assert_eq!(got.nnz(), 1);
        assert_eq!(got.row(0).0, &[] as &[u32]);
        assert_eq!(got.row(1), (&[0u32][..], &[5.0f32][..]));
        let none = m.select_rows(&[]);
        assert_eq!(none.shape(), (0, 3));
        assert_eq!(none.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 3.5);
    }

    #[test]
    fn rows_sorted_by_column() {
        let m = CsrMatrix::from_triplets(1, 5, &[(0, 4, 1.0), (0, 1, 1.0), (0, 3, 1.0)]);
        assert_eq!(m.row(0).0, &[1, 3, 4]);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let d = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let fast = m.spmm(&d);
        let slow = m.to_dense().matmul(&d);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn spmm_t_matches_dense_transpose() {
        let m = sample();
        let d = Matrix::from_vec(2, 4, (0..8).map(|x| x as f32).collect());
        let fast = m.spmm_t(&d);
        let slow = m.to_dense().transpose().matmul(&d);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn spmv_and_transpose_agree_with_dense() {
        let m = sample();
        let v = [1.0, -2.0, 0.5];
        let fast = m.spmv(&v);
        let dense = m.to_dense();
        for i in 0..2 {
            let slow: f32 = (0..3).map(|j| dense.get(i, j) * v[j]).sum();
            assert!((fast[i] - slow).abs() < 1e-6);
        }
        // `self^T @ u` is a gather over the materialized transpose.
        let u = [2.0, -1.0];
        let fast_t = m.transpose().spmv(&u);
        for j in 0..3 {
            let slow: f32 = (0..2).map(|i| dense.get(i, j) * u[i]).sum();
            assert!((fast_t[j] - slow).abs() < 1e-6);
        }
    }

    #[test]
    fn identity_spmm_is_noop() {
        let i = CsrMatrix::identity(3);
        let d = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        assert!(i.spmm(&d).max_abs_diff(&d) < 1e-7);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn prune_drops_small_entries() {
        let m = CsrMatrix::from_triplets(1, 3, &[(0, 0, 1e-9), (0, 1, 1.0)]);
        let p = m.prune(1e-6);
        assert_eq!(p.nnz(), 1);
        assert_eq!(p.get(0, 1), 1.0);
    }

    #[test]
    fn row_sums_match() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_out_of_bounds_panics() {
        let _ = CsrMatrix::from_triplets(1, 1, &[(0, 1, 1.0)]);
    }
}
