//! The gather and scatter row kernels behind the products.
//!
//! `CsrMatrix::spmm` and `Matrix::matmul` are one *gather* body: output row
//! `i` stays in registers while the right-hand rows its entries name are
//! added in, four entries at a time. `CsrMatrix::spmm_t` and
//! `Matrix::matmul_at_b` are one *scatter* body: one right-hand row (or a
//! quad of them) stays in registers while it is added into every output
//! row its entries name. A dense row is the index list `k0, k0 + 1, ...`.
//! `Matrix::matmul_at_b` with an output narrower than one AVX2 vector
//! runs the *column* body instead: the scatter's sums, gathered per output
//! row. The bodies are generic over [`Lanes`]; [`crate::simd::run_rows`] picks
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
    out_rows: usize,
    rhs: &'a [f32],
    n: usize,
    row: F,
    _out: PhantomData<&'a mut [f32]>,
}

impl<'a, F> Gather<'a, F> {
    /// `out` and `rhs` are row-major matrices with `n` columns.
    pub(crate) fn new(out: &'a mut [f32], rhs: &'a [f32], n: usize, row: F) -> Self {
        Gather {
            out_rows: out.len() / n,
            out: out.as_mut_ptr(),
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
        assert!(i < self.out_rows, "gather row {i} out of bounds");
        // SAFETY: row `i` is inside `out` (asserted above) and the caller
        // keeps the block's columns within the row width `n`.
        let out = self.out.add(i * n + c0);
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

/// Column body: `matmul_at_b` (`out += Aᵀ·B`) for an output narrower than
/// one AVX2 vector. A step is a group of [`COLUMN_GROUP`] output rows:
/// their accumulators stay in registers while every input quad of `B`'s
/// rows is loaded once and added into each of them, so an output row is
/// not reloaded and re-stored per quad as in the scatter. Per output
/// element the sum is the scatter's: the same quads from input row 0, the
/// same tree, the same all-zero quads skipped, then the leftover rows one
/// at a time.
pub(crate) struct Columns<'a> {
    out: *mut f32,
    /// `A`, row-major with `m` columns (one per output row).
    a: &'a [f32],
    m: usize,
    /// `B`, row-major with `n` columns, as many rows as `A`.
    b: &'a [f32],
    n: usize,
    _out: PhantomData<&'a mut [f32]>,
}

/// Output rows per [`Columns`] step.
pub(crate) const COLUMN_GROUP: usize = 4;

impl<'a> Columns<'a> {
    /// `out` is `m x n` for an `A` with `m` columns and a `B` with `n`.
    pub(crate) fn new(out: &'a mut [f32], a: &'a [f32], m: usize, b: &'a [f32], n: usize) -> Self {
        assert_eq!(out.len(), m * n, "column output shape");
        assert_eq!(a.len() / m.max(1), b.len() / n.max(1), "column input rows");
        Columns {
            out: out.as_mut_ptr(),
            a,
            m,
            b,
            n,
            _out: PhantomData,
        }
    }
}

impl RowKernel for Columns<'_> {
    const MAX_V: usize = 2;

    fn width(&self) -> usize {
        self.n
    }

    #[inline(always)]
    unsafe fn block<L: Lanes, const V: usize>(&self, g: usize, c0: usize, lanes: usize) {
        let (m, n) = (self.m, self.n);
        let e0 = g * COLUMN_GROUP;
        let rows = (m - e0).min(COLUMN_GROUP);
        let k_rows = self.a.len() / m;
        // Lane values stay out of closures (see `Gather::block`).
        let lanes_at = |v: usize| if v + 1 == V { lanes } else { L::W };
        // SAFETY: output rows `e0..e0 + rows` are inside `out` (`rows` is
        // clamped to `m`), and the caller keeps the block's columns within
        // the row width `n`.
        let out = |r: usize| self.out.add((e0 + r) * n + c0);
        let b_row = |k: usize| self.b[k * n..][..n].as_ptr().add(c0);
        let mut acc = [[L::load(out(0), lanes_at(0)); V]; COLUMN_GROUP];
        for (r, acc) in acc.iter_mut().enumerate().take(rows) {
            for (v, o) in acc.iter_mut().enumerate() {
                *o = L::load(out(r).add(v * L::W), lanes_at(v));
            }
        }
        let quads = k_rows / 4 * 4;
        let mut k = 0;
        while k < quads {
            let mut bv = [[L::load(b_row(k), lanes_at(0)); 4]; V];
            for (v, bv) in bv.iter_mut().enumerate() {
                for (q, bq) in bv.iter_mut().enumerate() {
                    *bq = L::load(b_row(k + q).add(v * L::W), lanes_at(v));
                }
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                if r < rows {
                    let e = e0 + r;
                    let a = &self.a[k * m + e..];
                    let q = [a[0], a[m], a[2 * m], a[3 * m]];
                    if q != [0.0; 4] {
                        for (o, &bv) in acc.iter_mut().zip(&bv) {
                            *o = o.group(q, bv);
                        }
                    }
                }
            }
            k += 4;
        }
        while k < k_rows {
            for (r, acc) in acc.iter_mut().enumerate().take(rows) {
                let a = self.a[k * m + e0 + r];
                if a != 0.0 {
                    for (v, o) in acc.iter_mut().enumerate() {
                        *o = o.group([a], [L::load(b_row(k).add(v * L::W), lanes_at(v))]);
                    }
                }
            }
            k += 1;
        }
        for (r, acc) in acc.iter().enumerate().take(rows) {
            for (v, &o) in acc.iter().enumerate() {
                o.store(out(r).add(v * L::W), lanes_at(v));
            }
        }
    }
}
