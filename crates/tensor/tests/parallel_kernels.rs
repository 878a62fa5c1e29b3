//! Equivalence of the product kernels with naive reference loops.
//!
//! The gathers (`matmul`, `matmul_a_bt`, `spmm`, `spmv`), `transpose` and
//! the scatters (`matmul_at_b`, `spmm_t`) must match a naive
//! implementation within ε (the row kernels group products in quads and,
//! under AVX2, fuse multiply-adds, so the order differs from the naive
//! loop's). `kernel_oracle.rs` holds the bitwise checks.
//!
//! Shapes cross the cache-block edges and include row counts that no
//! block size divides; the random CSR matrices have empty rows. Case `seed` draws its inputs
//! from `seeded_rng(seed)`, and every assertion message names the seed.

use std::ops::Range;

use rdd_tensor::{seeded_rng, CsrMatrix, Matrix, Rng};

const CASES: u64 = 24;

// ---- naive sequential references ----

fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + av * b.get(k, j));
            }
        }
    }
    out
}

fn ref_matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for k in 0..a.rows() {
        for j in 0..a.cols() {
            let av = a.get(k, j);
            for c in 0..b.cols() {
                out.set(j, c, out.get(j, c) + av * b.get(k, c));
            }
        }
    }
    out
}

fn ref_matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(j, k);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn ref_spmm(s: &CsrMatrix, d: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(s.rows(), d.cols());
    for (r, c, v) in s.iter() {
        for j in 0..d.cols() {
            out.set(r, j, out.get(r, j) + v * d.get(c, j));
        }
    }
    out
}

fn ref_spmm_t(s: &CsrMatrix, d: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(s.cols(), d.cols());
    for (r, c, v) in s.iter() {
        for j in 0..d.cols() {
            out.set(c, j, out.get(c, j) + v * d.get(r, j));
        }
    }
    out
}

fn ref_spmv(s: &CsrMatrix, v: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; s.rows()];
    for (r, c, w) in s.iter() {
        out[r] += w * v[c];
    }
    out
}

fn ref_spmv_t(s: &CsrMatrix, v: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; s.cols()];
    for (r, c, w) in s.iter() {
        out[c] += w * v[r];
    }
    out
}

/// ε scaled to the reduction length: each output element sums `k` products
/// of values in [-1, 1], and the row kernels reorder that sum.
fn tol(k: usize) -> f32 {
    1e-4 * (k as f32).max(1.0)
}

fn assert_close(fast: &Matrix, slow: &Matrix, k: usize, what: &str) {
    let d = fast.max_abs_diff(slow);
    assert!(d <= tol(k), "{what}: max abs diff {d} > {}", tol(k));
}

fn assert_vec_close(fast: &[f32], slow: &[f32], k: usize, what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length mismatch");
    for (i, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert!(
            (a - b).abs() <= tol(k),
            "{what}: index {i}: {a} vs {b} (tol {})",
            tol(k)
        );
    }
}

// ---- random inputs ----

/// A `rows x cols` matrix (each drawn from its range) with entries in [-1, 1).
fn matrix(rng: &mut Rng, rows: Range<usize>, cols: Range<usize>) -> Matrix {
    let r = rng.range(rows);
    let c = rng.range(cols);
    dense(rng, r, c)
}

/// An `r x c` matrix with entries in [-1, 1).
fn dense(rng: &mut Rng, r: usize, c: usize) -> Matrix {
    Matrix::from_fn(r, c, |_, _| rng.range_f32(-1.0..1.0))
}

/// Sparse matrix with fewer than `nnz_max` entries; many rows end up empty.
fn csr(rng: &mut Rng, rows: Range<usize>, cols: Range<usize>, nnz_max: usize) -> CsrMatrix {
    let r = rng.range(rows);
    let c = rng.range(cols);
    let len = rng.range(0..nnz_max);
    let triplets: Vec<(usize, usize, f32)> = (0..len)
        .map(|_| (rng.range(0..r), rng.range(0..c), rng.range_f32(-1.0..1.0)))
        .collect();
    CsrMatrix::from_triplets(r, c, &triplets)
}

#[test]
fn matmul_matches_reference() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let a = matrix(&mut rng, 64..130, 8..24);
        let n = rng.range(200..300);
        let k = a.cols();
        let b = dense(&mut rng, k, n);
        // Each output row keeps one summation order, but the k-unrolled
        // quads reassociate, so compare within ε.
        let what = format!("seed {seed}: matmul");
        assert_close(&a.matmul(&b), &ref_matmul(&a, &b), k, &what);
    }
}

#[test]
fn matmul_at_b_matches_reference() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let a = matrix(&mut rng, 150..260, 8..24);
        let n = rng.range(24..40);
        let rows = a.rows();
        let b = dense(&mut rng, rows, n);
        let what = format!("seed {seed}: matmul_at_b");
        assert_close(&a.matmul_at_b(&b), &ref_matmul_at_b(&a, &b), rows, &what);
    }
}

#[test]
fn matmul_a_bt_matches_reference() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let a = matrix(&mut rng, 64..130, 8..24);
        let n = rng.range(200..300);
        let k = a.cols();
        let b = dense(&mut rng, n, k);
        let what = format!("seed {seed}: matmul_a_bt");
        assert_close(&a.matmul_a_bt(&b), &ref_matmul_a_bt(&a, &b), k, &what);
    }
}

#[test]
fn transpose_matches_reference() {
    for seed in 0..CASES {
        let m = matrix(&mut seeded_rng(seed), 64..200, 64..160);
        let t = m.transpose();
        assert_eq!(t.shape(), (m.cols(), m.rows()), "seed {seed}");
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert_eq!(
                    t.get(j, i),
                    m.get(i, j),
                    "seed {seed}: transpose ({i}, {j})"
                );
            }
        }
    }
}

#[test]
fn spmm_matches_reference() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let s = csr(&mut rng, 300..500, 40..80, 3000);
        let n = rng.range(48..80);
        let k = s.cols();
        let d = dense(&mut rng, k, n);
        let what = format!("seed {seed}: spmm");
        assert_close(&s.spmm(&d), &ref_spmm(&s, &d), k, &what);
    }
}

#[test]
fn spmm_t_matches_reference() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let s = csr(&mut rng, 300..500, 40..80, 3000);
        let n = rng.range(48..80);
        let rows = s.rows();
        let d = dense(&mut rng, rows, n);
        let what = format!("seed {seed}: spmm_t");
        assert_close(&s.spmm_t(&d), &ref_spmm_t(&s, &d), rows, &what);
    }
}

/// The vector kernels get one large deterministic case (tens of thousands
/// of rows) instead of many random cases.
#[test]
fn spmv_and_spmv_t_match_reference_at_parallel_scale() {
    let n = 20_000;
    let mut rng = seeded_rng(0x1234_5678_9abc_def1);
    let mut triplets = Vec::new();
    for _ in 0..40_000 {
        let r = rng.range(0..n);
        // Leave a band of guaranteed-empty rows.
        if (2000..2100).contains(&r) {
            continue;
        }
        let c = rng.range(0..n);
        let v = rng.range_f32(-1.0..1.0);
        triplets.push((r, c, v));
    }
    let m = CsrMatrix::from_triplets(n, n, &triplets);
    let v: Vec<f32> = (0..n).map(|_| rng.range_f32(-1.0..1.0)).collect();
    assert_vec_close(&m.spmv(&v), &ref_spmv(&m, &v), 8, "spmv");
    // `S^T v` is a gather over the materialized transpose (PageRank's form).
    assert_vec_close(&m.transpose().spmv(&v), &ref_spmv_t(&m, &v), 8, "S^T v");
}

/// Row counts on both sides of powers of two.
#[test]
fn odd_row_counts_cover_all_rows() {
    for rows in [65usize, 127, 129, 255, 257] {
        let a = Matrix::from_fn(rows, 40, |i, j| ((i * 31 + j * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(40, 260, |i, j| ((i * 7 + j * 3) % 11) as f32 - 5.0);
        let fast = a.matmul(&b);
        let slow = ref_matmul(&a, &b);
        assert_close(&fast, &slow, 40, "odd-row matmul");
        let g = a.matmul_at_b(&Matrix::from_fn(rows, 24, |i, j| (i + j) as f32 * 0.01));
        let h = ref_matmul_at_b(&a, &Matrix::from_fn(rows, 24, |i, j| (i + j) as f32 * 0.01));
        assert_close(&g, &h, rows, "odd-row matmul_at_b");
    }
}
