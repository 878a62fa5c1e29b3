//! The gather and scatter row kernels behind the products.
//!
//! `CsrMatrix::spmm` and `Matrix::matmul` are one *gather* body: output row
//! `i` stays in registers while the right-hand rows its entries name are
//! added in, four entries at a time. `CsrMatrix::spmm_t` and
//! `Matrix::matmul_at_b` are one *scatter* body: one right-hand row (or a
//! quad of them) stays in registers while it is added into every output
//! row its entries name. A dense row is the index list `k0, k0 + 1, ...`.
//! The bodies are generic over [`Lanes`]; [`crate::simd::run_rows`] picks
//! the lane types of the active tier, so the operation order of every
//! output element is fixed by the tier alone: a gather's row blocks never
//! split a row, and a scatter runs as one pass from input row 0.

use std::marker::PhantomData;

use crate::simd::{Lanes, RowKernel};

/// Which right-hand rows (gather) or output rows (scatter) a row's entries
/// address: CSR column indices, or `base + e` for a dense row.
pub(crate) trait Index: Copy {
    /// Row addressed by entry `e`.
    fn at(self, e: usize) -> usize;
}

impl Index for &[u32] {
    #[inline(always)]
    fn at(self, e: usize) -> usize {
        self[e] as usize
    }
}

impl Index for usize {
    #[inline(always)]
    fn at(self, e: usize) -> usize {
        self + e
    }
}

/// Gather body: `out[i] += Σ_e a[e] · rhs[idx(e)]`, entries in quads of
/// four and then one at a time (`spmm`; `matmul` over the dense list
/// `k0..k0 + a.len()`). `row(i)` yields `(a, idx)` for output row `i`.
pub(crate) struct Gather<'a, F> {
    out: *mut f32,
    i0: usize,
    out_rows: usize,
    rhs: &'a [f32],
    n: usize,
    row: F,
    _out: PhantomData<&'a mut [f32]>,
}

impl<'a, F> Gather<'a, F> {
    /// `out` holds rows `i0..` of a row-major output with `n` columns;
    /// `rhs` is a row-major matrix with `n` columns.
    pub(crate) fn new(out: &'a mut [f32], i0: usize, rhs: &'a [f32], n: usize, row: F) -> Self {
        Gather {
            out_rows: out.len() / n,
            out: out.as_mut_ptr(),
            i0,
            rhs,
            n,
            row,
            _out: PhantomData,
        }
    }
}

impl<'a, F, I> RowKernel for Gather<'a, F>
where
    F: Fn(usize) -> (&'a [f32], I),
    I: Index,
{
    const MAX_V: usize = 4;

    fn width(&self) -> usize {
        self.n
    }

    #[inline(always)]
    unsafe fn block<L: Lanes, const V: usize>(&self, i: usize, c0: usize, lanes: usize) {
        let (a, idx) = (self.row)(i);
        let n = self.n;
        assert!(
            i >= self.i0 && i - self.i0 < self.out_rows,
            "gather row {i} out of bounds"
        );
        // SAFETY: row `i` is inside `out` (asserted above) and the caller
        // keeps the block's columns within the row width `n`.
        let out = self.out.add((i - self.i0) * n + c0);
        let rhs = |e: usize| self.rhs[idx.at(e) * n..][..n].as_ptr().add(c0);
        // Lane values stay out of closures: a closure handed to a std
        // helper (`array::from_fn`, `map`) is compiled without the
        // caller's target features, so its intrinsics stay calls.
        let lanes_at = |v: usize| if v + 1 == V { lanes } else { L::W };
        let mut acc = [L::load(out, lanes_at(0)); V];
        for (v, o) in acc.iter_mut().enumerate().skip(1) {
            *o = L::load(out.add(v * L::W), lanes_at(v));
        }
        let quads = a.len() / 4 * 4;
        let mut e = 0;
        while e < quads {
            let q = [a[e], a[e + 1], a[e + 2], a[e + 3]];
            if q != [0.0; 4] {
                let b = [rhs(e), rhs(e + 1), rhs(e + 2), rhs(e + 3)];
                for (v, o) in acc.iter_mut().enumerate() {
                    let (c, l) = (v * L::W, lanes_at(v));
                    let bv = [
                        L::load(b[0].add(c), l),
                        L::load(b[1].add(c), l),
                        L::load(b[2].add(c), l),
                        L::load(b[3].add(c), l),
                    ];
                    *o = o.group(q, bv);
                }
            }
            e += 4;
        }
        while e < a.len() {
            if a[e] != 0.0 {
                let b = rhs(e);
                for (v, o) in acc.iter_mut().enumerate() {
                    *o = o.group([a[e]], [L::load(b.add(v * L::W), lanes_at(v))]);
                }
            }
            e += 1;
        }
        for (v, o) in acc.into_iter().enumerate() {
            o.store(out.add(v * L::W), lanes_at(v));
        }
    }
}

/// Scatter body: for `Q` right-hand rows `b` held in registers, every
/// entry `e` of the coefficient rows adds `Σ_q a_q[e] · b_q` into output
/// row `idx(e)` (`spmm_t` with `Q = 1`; `matmul_at_b` over dense columns,
/// quads of input rows with `Q = 4` and leftovers with `Q = 1`).
pub(crate) struct Scatter<'a, F, const Q: usize> {
    out: *mut f32,
    out_rows: usize,
    n: usize,
    row: F,
    _out: PhantomData<&'a mut [f32]>,
}

impl<'a, F, const Q: usize> Scatter<'a, F, Q> {
    /// A row-major output with `n` columns; `row(r)` yields the
    /// coefficient rows, their index and the right-hand rows of step `r`.
    pub(crate) fn new(out: &'a mut [f32], n: usize, row: F) -> Self {
        Scatter {
            out_rows: out.len() / n,
            out: out.as_mut_ptr(),
            n,
            row,
            _out: PhantomData,
        }
    }
}

impl<'a, F, I, const Q: usize> RowKernel for Scatter<'a, F, Q>
where
    F: Fn(usize) -> ([&'a [f32]; Q], I, [&'a [f32]; Q]),
    I: Index,
{
    const MAX_V: usize = if Q > 1 { 2 } else { 4 };

    fn width(&self) -> usize {
        self.n
    }

    #[inline(always)]
    unsafe fn block<L: Lanes, const V: usize>(&self, r: usize, c0: usize, lanes: usize) {
        let (a, idx, b) = (self.row)(r);
        let n = self.n;
        // Lane values stay out of closures (see `Gather::block`).
        let lanes_at = |v: usize| if v + 1 == V { lanes } else { L::W };
        let mut bv = [[L::load(b[0][..n].as_ptr().add(c0), lanes_at(0)); Q]; V];
        for (v, bv) in bv.iter_mut().enumerate() {
            for (bq, row) in bv.iter_mut().zip(&b) {
                *bq = L::load(row[..n].as_ptr().add(c0 + v * L::W), lanes_at(v));
            }
        }
        let mut q = [0.0; Q];
        for e in 0..a[0].len() {
            for (ql, al) in q.iter_mut().zip(&a) {
                *ql = al[e];
            }
            if q == [0.0; Q] {
                continue;
            }
            let j = idx.at(e);
            assert!(j < self.out_rows, "scatter row {j} out of bounds");
            // SAFETY: row `j` is inside `out` (asserted above); columns as
            // in `Gather::block`.
            let out = self.out.add(j * n + c0);
            for (v, &bv) in bv.iter().enumerate() {
                let (p, l) = (out.add(v * L::W), lanes_at(v));
                L::load(p, l).group(q, bv).store(p, l);
            }
        }
    }
}
