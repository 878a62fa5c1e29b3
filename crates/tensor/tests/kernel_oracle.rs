//! Bitwise oracle for the product row kernels.
//!
//! `matmul`, `matmul_at_b`, `matmul_a_bt`, `spmm` and `spmm_t` used to
//! call a per-element SIMD dispatcher (`axpy4` / `axpy` / `dot`) for every
//! group of four entries. The row kernels that replaced them must produce
//! the same bits on every tier. This file keeps the old dispatchers, their
//! tier bodies and the old kernel loops verbatim (module [`old`]) and
//! compares every product against them on each tier the CPU has, over
//! widths on both sides of the eight-lane AVX2 block, empty CSR rows,
//! explicit zeros, all-zero quads, ±0, NaN and ±inf.
//!
//! Equality is bitwise, except that any NaN equals any other NaN: x86
//! returns the first operand's payload when both operands of an add are
//! NaN, and the compiler may commute an add, so the payload is not part of
//! the contract. The transposed products (`matmul_at_b`, `spmm_t`) are
//! one scatter from input row 0 in the library and in the reference; the
//! others are one pass over the output rows in both.
//!
//! Each test draws from its own seeded generator, so a failure names a
//! reproducible case.

use std::sync::{Mutex, MutexGuard};

use rdd_tensor::simd::{self, SimdTier};
use rdd_tensor::{seeded_rng, CsrMatrix, Matrix, Rng};

/// Output widths: below, at and across the eight-lane block, and wider
/// than a four-block register tile.
const WIDTHS: &[usize] = &[1, 3, 7, 8, 9, 16, 17, 64, 100];

/// Serialize the tests: the active tier is process-global.
fn tier_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `check` once per tier this CPU supports, with that tier active,
/// and restore the latched tier afterwards.
fn on_every_tier(mut check: impl FnMut(SimdTier)) {
    let _guard = tier_lock();
    let before = simd::active();
    for tier in [SimdTier::Scalar, SimdTier::Avx2] {
        if simd::available(tier) {
            simd::force_active(tier);
            check(tier);
        }
    }
    simd::force_active(before);
}

fn assert_same(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let same = if w.is_nan() {
            g.is_nan()
        } else {
            g.to_bits() == w.to_bits()
        };
        assert!(same, "{what}: element {i} is {g:e}, the oracle gives {w:e}");
    }
}

/// A value mix that exercises the skip rules and the IEEE corner cases:
/// mostly uniform in [-2, 2); 8% `+0.0`, 2% `-0.0`, and with
/// `specials` 0.5% each of NaN, `+inf` and `-inf`.
fn value(rng: &mut Rng, specials: bool) -> f32 {
    match rng.range(0..1000) {
        0..=79 => 0.0,
        80..=99 => -0.0,
        100..=104 if specials => f32::NAN,
        105..=109 if specials => f32::INFINITY,
        110..=114 if specials => f32::NEG_INFINITY,
        _ => rng.range_f32(-2.0..2.0),
    }
}

/// A dense matrix in which a third of the rows have one aligned
/// all-zero quad and a quarter of the columns are zero throughout
/// (all-zero quads for the gather over rows and the scatter over
/// columns alike).
fn matrix(rng: &mut Rng, rows: usize, cols: usize, specials: bool) -> Matrix {
    let mut data: Vec<f32> = (0..rows * cols).map(|_| value(rng, specials)).collect();
    for r in 0..rows {
        if cols >= 4 && rng.range(0..3) == 0 {
            let q = rng.range(0..cols / 4) * 4;
            data[r * cols + q..r * cols + q + 4].fill(0.0);
        }
    }
    for c in 0..cols {
        if rng.range(0..4) == 0 {
            for r in 0..rows {
                data[r * cols + c] = 0.0;
            }
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// A CSR matrix whose rows hold 0 (empty), 1–13 or 17 entries at
/// sorted distinct columns, with explicit zeros and, in a quarter of
/// the rows, an aligned quad of explicit zeros.
fn csr(rng: &mut Rng, rows: usize, cols: usize, specials: bool) -> CsrMatrix {
    let mut indptr = vec![0];
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for _ in 0..rows {
        let nnz = match rng.range(0..8) {
            0 => 0,
            1 => 17,
            _ => 1 + rng.range(0..13),
        };
        let mut row: Vec<u32> = Vec::with_capacity(nnz);
        while row.len() < nnz {
            let c = rng.range(0..cols) as u32;
            if !row.contains(&c) {
                row.push(c);
            }
        }
        row.sort_unstable();
        let mut vals: Vec<f32> = (0..nnz).map(|_| value(rng, specials)).collect();
        if nnz >= 4 && rng.range(0..4) == 0 {
            let q = rng.range(0..nnz / 4) * 4;
            vals[q..q + 4].fill(0.0);
        }
        indices.extend(row);
        values.extend(vals);
        indptr.push(indices.len());
    }
    CsrMatrix::from_csr(rows, cols, indptr, indices, values)
}

#[test]
fn spmm_gather_matches_per_element_oracle() {
    let mut rng = seeded_rng(0x0a11_0c1e_0001);
    on_every_tier(|tier| {
        for &w in WIDTHS {
            for specials in [false, true] {
                let s = csr(&mut rng, 300, 90, specials);
                let rhs = matrix(&mut rng, 90, w, specials);
                let what = format!("spmm {} width {w} specials {specials}", tier.name());
                assert_same(&s.spmm(&rhs), &old::spmm(&s, &rhs, tier), &what);
            }
        }
    });
}

#[test]
fn spmm_t_scatter_matches_per_element_oracle() {
    let mut rng = seeded_rng(0x0a11_0c1e_0002);
    on_every_tier(|tier| {
        for &w in WIDTHS {
            for specials in [false, true] {
                let s = csr(&mut rng, 300, 90, specials);
                let rhs = matrix(&mut rng, 300, w, specials);
                let what = format!("spmm_t {} width {w} specials {specials}", tier.name());
                assert_same(&s.spmm_t(&rhs), &old::spmm_t(&s, &rhs, tier), &what);
            }
        }
    });
}

#[test]
fn matmul_gather_matches_per_element_oracle() {
    let mut rng = seeded_rng(0x0a11_0c1e_0003);
    on_every_tier(|tier| {
        // k = 300 crosses the 256-row cache block of the reduction.
        for k in [0, 5, 16, 300] {
            for &w in WIDTHS {
                for specials in [false, true] {
                    let a = matrix(&mut rng, 300, k, specials);
                    let b = matrix(&mut rng, k, w, specials);
                    let what =
                        format!("matmul {} k {k} width {w} specials {specials}", tier.name());
                    assert_same(&a.matmul(&b), &old::matmul(&a, &b, tier), &what);
                }
            }
        }
    });
}

#[test]
fn matmul_at_b_scatter_matches_per_element_oracle() {
    let mut rng = seeded_rng(0x0a11_0c1e_0004);
    on_every_tier(|tier| {
        // 299 input rows: 74 quads, then three leftover rows.
        for m in [5, 20] {
            for &w in WIDTHS {
                for specials in [false, true] {
                    let a = matrix(&mut rng, 299, m, specials);
                    let b = matrix(&mut rng, 299, w, specials);
                    let what = format!(
                        "matmul_at_b {} m {m} width {w} specials {specials}",
                        tier.name()
                    );
                    assert_same(&a.matmul_at_b(&b), &old::matmul_at_b(&a, &b, tier), &what);
                }
            }
        }
    });
}

#[test]
fn matmul_a_bt_dot_matches_per_element_oracle() {
    let mut rng = seeded_rng(0x0a11_0c1e_0005);
    on_every_tier(|tier| {
        // The reduction length takes the widths; n = 100 crosses the
        // 64-column block of the output.
        for k in std::iter::once(0).chain(WIDTHS.iter().copied()) {
            for n in [3, 16, 100] {
                for specials in [false, true] {
                    let a = matrix(&mut rng, 200, k, specials);
                    let b = matrix(&mut rng, n, k, specials);
                    let what = format!(
                        "matmul_a_bt {} k {k} n {n} specials {specials}",
                        tier.name()
                    );
                    assert_same(&a.matmul_a_bt(&b), &old::matmul_a_bt(&a, &b, tier), &what);
                }
            }
        }
    });
}

/// The per-element kernels and product loops as they were before the row
/// kernels, verbatim apart from `self`/`rhs` becoming arguments and each
/// row-block body running once over the whole output (`i0 = 0`).
#[allow(clippy::all, unsafe_op_in_unsafe_fn)]
mod old {
    use rdd_tensor::simd::SimdTier;
    use rdd_tensor::{CsrMatrix, Matrix};

    const K_BLOCK: usize = 256;
    const J_BLOCK: usize = 64;
    const NARROW: usize = 8;

    macro_rules! dispatch {
        ($tier:expr, $scalar:expr, $avx2:expr) => {
            match $tier {
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx2 => unsafe { $avx2 },
                _ => $scalar,
            }
        };
    }

    pub fn dot(tier: SimdTier, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        if a.len() < NARROW {
            return scalar::dot(a, b);
        }
        dispatch!(tier, scalar::dot(a, b), x86::dot_avx2(a, b))
    }

    pub fn axpy(tier: SimdTier, out_row: &mut [f32], a: f32, b_row: &[f32]) {
        if out_row.len() < NARROW {
            return scalar::axpy(out_row, a, b_row);
        }
        dispatch!(
            tier,
            scalar::axpy(out_row, a, b_row),
            x86::axpy_avx2(out_row, a, b_row)
        )
    }

    pub fn axpy4(
        tier: SimdTier,
        out_row: &mut [f32],
        a: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        if out_row.len() < NARROW {
            return scalar::axpy4(out_row, a, b0, b1, b2, b3);
        }
        dispatch!(
            tier,
            scalar::axpy4(out_row, a, b0, b1, b2, b3),
            x86::axpy4_avx2(out_row, a, b0, b1, b2, b3)
        )
    }

    mod scalar {
        #[inline]
        pub fn axpy4(
            out_row: &mut [f32],
            a: [f32; 4],
            b0: &[f32],
            b1: &[f32],
            b2: &[f32],
            b3: &[f32],
        ) {
            if a == [0.0; 4] {
                return;
            }
            let n = out_row.len();
            let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
            for i in 0..n {
                out_row[i] += a[0] * b0[i] + a[1] * b1[i] + a[2] * b2[i] + a[3] * b3[i];
            }
        }

        #[inline]
        pub fn axpy(out_row: &mut [f32], a: f32, b_row: &[f32]) {
            if a == 0.0 {
                return;
            }
            for (o, &b) in out_row.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }

        #[inline]
        pub fn dot(a: &[f32], b: &[f32]) -> f32 {
            debug_assert_eq!(a.len(), b.len());
            let lanes = a.len() / 8 * 8;
            let (a8, a_tail) = a.split_at(lanes);
            let (b8, b_tail) = b.split_at(lanes);
            let mut acc = [0.0f32; 8];
            for (ac, bc) in a8.chunks_exact(8).zip(b8.chunks_exact(8)) {
                for l in 0..8 {
                    acc[l] += ac[l] * bc[l];
                }
            }
            let mut s =
                ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
            for (&x, &y) in a_tail.iter().zip(b_tail) {
                s += x * y;
            }
            s
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use std::arch::x86_64::*;

        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn hsum256(v: __m256) -> f32 {
            let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
            let s = _mm_add_ps(s, _mm_shuffle_ps(s, s, 0b10_11_00_01));
            let s = _mm_add_ss(s, _mm_movehl_ps(s, s));
            _mm_cvtss_f32(s)
        }

        #[target_feature(enable = "avx2", enable = "fma")]
        pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
            let n = a.len();
            let pa = a.as_ptr();
            let pb = b.as_ptr();
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let pairs = n / 16 * 16;
            let mut i = 0;
            while i < pairs {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(pa.add(i + 8)),
                    _mm256_loadu_ps(pb.add(i + 8)),
                    acc1,
                );
                i += 16;
            }
            let mut acc = _mm256_add_ps(acc0, acc1);
            while i + 8 <= n {
                acc = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc);
                i += 8;
            }
            let mut s = hsum256(acc);
            while i < n {
                s += a[i] * b[i];
                i += 1;
            }
            s
        }

        #[target_feature(enable = "avx2", enable = "fma")]
        pub unsafe fn axpy_avx2(out_row: &mut [f32], a: f32, b_row: &[f32]) {
            if a == 0.0 {
                return;
            }
            let n = out_row.len().min(b_row.len());
            let octs = n / 8 * 8;
            let va = _mm256_set1_ps(a);
            let po = out_row.as_mut_ptr();
            let pb = b_row.as_ptr();
            let mut i = 0;
            while i < octs {
                _mm256_storeu_ps(
                    po.add(i),
                    _mm256_fmadd_ps(va, _mm256_loadu_ps(pb.add(i)), _mm256_loadu_ps(po.add(i))),
                );
                i += 8;
            }
            for k in octs..n {
                out_row[k] += a * b_row[k];
            }
        }

        #[target_feature(enable = "avx2", enable = "fma")]
        pub unsafe fn axpy4_avx2(
            out_row: &mut [f32],
            a: [f32; 4],
            b0: &[f32],
            b1: &[f32],
            b2: &[f32],
            b3: &[f32],
        ) {
            if a == [0.0; 4] {
                return;
            }
            let n = out_row.len();
            let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
            let (va0, va1, va2, va3) = (
                _mm256_set1_ps(a[0]),
                _mm256_set1_ps(a[1]),
                _mm256_set1_ps(a[2]),
                _mm256_set1_ps(a[3]),
            );
            let octs = n / 8 * 8;
            let po = out_row.as_mut_ptr();
            let mut i = 0;
            while i < octs {
                let mut o = _mm256_loadu_ps(po.add(i));
                o = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0.as_ptr().add(i)), o);
                o = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1.as_ptr().add(i)), o);
                o = _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2.as_ptr().add(i)), o);
                o = _mm256_fmadd_ps(va3, _mm256_loadu_ps(b3.as_ptr().add(i)), o);
                _mm256_storeu_ps(po.add(i), o);
                i += 8;
            }
            for k in octs..n {
                out_row[k] += a[0] * b0[k] + a[1] * b1[k] + a[2] * b2[k] + a[3] * b3[k];
            }
        }
    }

    pub fn matmul(a: &Matrix, rhs: &Matrix, tier: SimdTier) -> Matrix {
        let n = rhs.cols();
        let k_dim = a.cols();
        let (data, rhs_data) = (a.as_slice(), rhs.as_slice());
        let mut out = Matrix::zeros(a.rows(), n);
        let (i0, chunk) = (0, out.as_mut_slice());
        let mut kb = 0;
        while kb < k_dim {
            let ke = (kb + K_BLOCK).min(k_dim);
            for (di, out_row) in chunk.chunks_exact_mut(n).enumerate() {
                let i = i0 + di;
                let a_row = &data[i * k_dim + kb..i * k_dim + ke];
                let mut k = 0;
                while k + 4 <= a_row.len() {
                    let base = (kb + k) * n;
                    axpy4(
                        tier,
                        out_row,
                        [a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]],
                        &rhs_data[base..base + n],
                        &rhs_data[base + n..base + 2 * n],
                        &rhs_data[base + 2 * n..base + 3 * n],
                        &rhs_data[base + 3 * n..base + 4 * n],
                    );
                    k += 4;
                }
                while k < a_row.len() {
                    let base = (kb + k) * n;
                    axpy(tier, out_row, a_row[k], &rhs_data[base..base + n]);
                    k += 1;
                }
            }
            kb = ke;
        }
        out
    }

    pub fn matmul_at_b(a: &Matrix, rhs: &Matrix, tier: SimdTier) -> Matrix {
        let n = rhs.cols();
        let m = a.cols();
        let mut out = Matrix::zeros(m, n);
        let acc = out.as_mut_slice();
        let mut k = 0;
        while k + 4 <= a.rows() {
            let a0 = a.row(k);
            let a1 = a.row(k + 1);
            let a2 = a.row(k + 2);
            let a3 = a.row(k + 3);
            let b0 = rhs.row(k);
            let b1 = rhs.row(k + 1);
            let b2 = rhs.row(k + 2);
            let b3 = rhs.row(k + 3);
            for j in 0..m {
                axpy4(
                    tier,
                    &mut acc[j * n..(j + 1) * n],
                    [a0[j], a1[j], a2[j], a3[j]],
                    b0,
                    b1,
                    b2,
                    b3,
                );
            }
            k += 4;
        }
        while k < a.rows() {
            let a_row = a.row(k);
            let b_row = rhs.row(k);
            for (j, &a) in a_row.iter().enumerate() {
                axpy(tier, &mut acc[j * n..(j + 1) * n], a, b_row);
            }
            k += 1;
        }
        out
    }

    pub fn matmul_a_bt(a: &Matrix, rhs: &Matrix, tier: SimdTier) -> Matrix {
        let n = rhs.rows();
        let k_dim = a.cols();
        let (data, rhs_data) = (a.as_slice(), rhs.as_slice());
        let mut out = Matrix::zeros(a.rows(), n);
        let (i0, chunk) = (0, out.as_mut_slice());
        let mut jb = 0;
        while jb < n {
            let je = (jb + J_BLOCK).min(n);
            for (di, out_row) in chunk.chunks_exact_mut(n).enumerate() {
                let i = i0 + di;
                let a_row = &data[i * k_dim..(i + 1) * k_dim];
                for (j, o) in out_row[jb..je].iter_mut().enumerate() {
                    let j = jb + j;
                    *o = dot(tier, a_row, &rhs_data[j * k_dim..(j + 1) * k_dim]);
                }
            }
            jb = je;
        }
        out
    }

    pub fn spmm(s: &CsrMatrix, rhs: &Matrix, tier: SimdTier) -> Matrix {
        let n = rhs.cols();
        let mut out = Matrix::zeros(s.rows(), n);
        let (i0, chunk) = (0, out.as_mut_slice());
        for (di, out_row) in chunk.chunks_exact_mut(n).enumerate() {
            let i = i0 + di;
            let (cols, vals) = s.row(i);
            let mut qc = cols.chunks_exact(4);
            let mut qv = vals.chunks_exact(4);
            for (c4, v4) in (&mut qc).zip(&mut qv) {
                axpy4(
                    tier,
                    out_row,
                    [v4[0], v4[1], v4[2], v4[3]],
                    rhs.row(c4[0] as usize),
                    rhs.row(c4[1] as usize),
                    rhs.row(c4[2] as usize),
                    rhs.row(c4[3] as usize),
                );
            }
            for (&c, &v) in qc.remainder().iter().zip(qv.remainder()) {
                axpy(tier, out_row, v, rhs.row(c as usize));
            }
        }
        out
    }

    pub fn spmm_t(s: &CsrMatrix, rhs: &Matrix, tier: SimdTier) -> Matrix {
        let n = rhs.cols();
        let mut out = Matrix::zeros(s.cols(), n);
        let acc = out.as_mut_slice();
        for i in 0..s.rows() {
            let (cols, vals) = s.row(i);
            let b_row = rhs.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let c = c as usize;
                axpy(tier, &mut acc[c * n..(c + 1) * n], v, b_row);
            }
        }
        out
    }
}
