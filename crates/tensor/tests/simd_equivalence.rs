//! Property tests: every SIMD-dispatched kernel must agree with the
//! scalar oracle across a randomized sweep of shapes and values.
//!
//! The contract under test (see `crates/tensor/src/simd.rs`):
//!
//! * the **AVX2+FMA** tier is bitwise on the pure elementwise lane ops
//!   (add, mul, scale by multiply, relu forward/backward): their AVX2
//!   tier is the scalar source compiled a second time, with no
//!   hand-written body;
//! * it is *bounded-ULP* wherever a hand-written body lets `fmadd`
//!   reassociate a multiply-add or the polynomial `exp`/`ln` replace libm
//!   (products, softmax family, backward rows, `add_scaled_assign`,
//!   dequantization).
//!
//! The sweep is deterministic (one seeded generator per test), so a failure names a
//! reproducible case. Tier switching goes through `simd::force_active`,
//! which is process-global — every test here serializes on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};

use rdd_tensor::simd::{self, SimdTier};
use rdd_tensor::{seeded_rng, CsrMatrix, Matrix, Rng};

/// Serialize tests that flip the process-global tier latch.
fn tier_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Uniform in [-2, 2): softmax-friendly dynamic range, no -0.0.
fn value(rng: &mut Rng) -> f32 {
    let v = rng.range_f32(-2.0..2.0);
    if v == 0.0 {
        0.5
    } else {
        v
    }
}

fn matrix(rng: &mut Rng, r: usize, c: usize) -> Matrix {
    Matrix::from_fn(r, c, |_, _| value(rng))
}

fn csr(rng: &mut Rng, r: usize, c: usize, nnz: usize) -> CsrMatrix {
    let triplets: Vec<(usize, usize, f32)> = (0..nnz)
        .map(|_| (rng.range(0..r), rng.range(0..c), value(rng).abs() + 0.01))
        .collect();
    CsrMatrix::from_triplets(r, c, &triplets)
}

/// Tiers this host can actually run, scalar first.
fn tiers() -> Vec<SimdTier> {
    [SimdTier::Scalar, SimdTier::Avx2]
        .into_iter()
        .filter(|&t| simd::available(t))
        .collect()
}

fn run_tiered(f: impl Fn() -> Matrix) -> Vec<(SimdTier, Matrix)> {
    tiers()
        .into_iter()
        .map(|t| {
            simd::force_active(t);
            (t, f())
        })
        .collect()
}

/// Assert every tier's output against the scalar reference, within
/// `rel_bound` relative error (`0` demands bitwise).
fn assert_tiers_agree(results: &[(SimdTier, Matrix)], rel_bound: f32, what: &str) {
    let (_, reference) = &results[0];
    for (tier, got) in &results[1..] {
        for (i, (x, y)) in reference.as_slice().iter().zip(got.as_slice()).enumerate() {
            if rel_bound == 0.0 {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what} [{i}] {tier:?}: {x} vs {y} must be bitwise"
                );
            } else {
                let tol = rel_bound * x.abs().max(1.0);
                assert!(
                    (x - y).abs() <= tol,
                    "{what} [{i}] {tier:?}: {x} vs {y} (tol {tol})"
                );
            }
        }
    }
}

/// Shape sweep hitting the vector-width edges: below one lane group,
/// exact multiples of 4/8, and ragged tails.
const DIMS: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33];

#[test]
fn matmul_family_avx2_bounded() {
    let _guard = tier_lock();
    let mut rng = seeded_rng(0x5eed_0001);
    for case in 0..12 {
        let (m, k, n) = (
            DIMS[case % DIMS.len()],
            DIMS[(case + 4) % DIMS.len()],
            DIMS[(case + 7) % DIMS.len()],
        );
        let a = matrix(&mut rng, m, k);
        let b = matrix(&mut rng, k, n);
        let bt = b.transpose();
        let at = a.transpose();
        assert_tiers_agree(&run_tiered(|| a.matmul(&b)), 1e-5, "matmul");
        assert_tiers_agree(&run_tiered(|| a.matmul_a_bt(&bt)), 1e-5, "matmul_a_bt");
        assert_tiers_agree(&run_tiered(|| at.matmul_at_b(&b)), 1e-5, "matmul_at_b");
    }
    simd::force_active(simd::detect_best());
}

#[test]
fn spmm_quad_gather_avx2_bounded() {
    let _guard = tier_lock();
    let mut rng = seeded_rng(0x5eed_0002);
    for &(r, c, k, nnz) in &[(5, 7, 3, 11), (16, 16, 8, 64), (33, 9, 17, 120)] {
        let s = csr(&mut rng, r, c, nnz);
        let d = matrix(&mut rng, c, k);
        let dr = matrix(&mut rng, r, k);
        assert_tiers_agree(&run_tiered(|| s.spmm(&d)), 1e-5, "spmm");
        assert_tiers_agree(&run_tiered(|| s.spmm_t(&dr)), 1e-5, "spmm_t");
    }
    simd::force_active(simd::detect_best());
}

#[test]
fn softmax_family_avx2_bounded() {
    let _guard = tier_lock();
    let mut rng = seeded_rng(0x5eed_0003);
    for &cols in DIMS {
        let m = matrix(&mut rng, 6, cols);
        assert_tiers_agree(&run_tiered(|| m.softmax_rows()), 1e-5, "softmax_rows");
        // Entropy over a softmaxed matrix (the loss hook's exact usage).
        simd::force_active(SimdTier::Scalar);
        let p = m.softmax_rows();
        assert_tiers_agree(
            &run_tiered(|| Matrix::from_vec(6, 1, p.row_entropy())),
            1e-5,
            "row_entropy",
        );
        let row: Vec<f32> = m.row(3).to_vec();
        assert_tiers_agree(
            &run_tiered(|| {
                let mut r = row.clone();
                rdd_tensor::matrix::log_softmax_in_place(&mut r);
                Matrix::from_vec(1, cols, r)
            }),
            1e-5,
            "log_softmax",
        );
    }
    simd::force_active(simd::detect_best());
}

#[test]
fn elementwise_lane_ops_are_bitwise_on_every_tier() {
    let _guard = tier_lock();
    let mut rng = seeded_rng(0x5eed_0004);
    for &cols in DIMS {
        let a = matrix(&mut rng, 5, cols);
        let b = matrix(&mut rng, 5, cols);
        // add / hadamard / scale / relu run the same lane op per element
        // in every tier — bitwise equality is required even under AVX2.
        assert_tiers_agree(
            &run_tiered(|| {
                let mut x = a.clone();
                x.add_assign(&b);
                x
            }),
            0.0,
            "add_assign",
        );
        assert_tiers_agree(&run_tiered(|| a.hadamard(&b)), 0.0, "hadamard");
        assert_tiers_agree(&run_tiered(|| a.scaled(1.375)), 0.0, "scale");
        assert_tiers_agree(
            &run_tiered(|| {
                let mut x = a.clone();
                simd::relu_in_place(simd::active(), x.as_mut_slice());
                x
            }),
            0.0,
            "relu",
        );
        assert_tiers_agree(
            &run_tiered(|| {
                let mut dx = b.clone();
                simd::relu_bwd(simd::active(), dx.as_mut_slice(), a.as_slice());
                dx
            }),
            0.0,
            "relu_bwd",
        );
        // add_scaled fuses into one fmadd under AVX2: bounded, not bitwise.
        assert_tiers_agree(
            &run_tiered(|| {
                let mut x = a.clone();
                x.add_scaled_assign(&b, -0.625);
                x
            }),
            1e-6,
            "add_scaled_assign",
        );
    }
    simd::force_active(simd::detect_best());
}

#[test]
fn backward_row_kernels_and_dequant_agree_across_tiers() {
    let _guard = tier_lock();
    let mut rng = seeded_rng(0x5eed_0005);
    for &cols in DIMS {
        let g = matrix(&mut rng, 1, cols);
        let y = matrix(&mut rng, 1, cols).softmax_rows();
        assert_tiers_agree(
            &run_tiered(|| {
                let mut dx = g.clone();
                simd::softmax_bwd_row(simd::active(), dx.row_mut(0), y.row(0));
                dx
            }),
            1e-5,
            "softmax_bwd_row",
        );
        assert_tiers_agree(
            &run_tiered(|| {
                let mut dx = g.clone();
                simd::log_softmax_bwd_row(simd::active(), dx.row_mut(0), y.row(0));
                dx
            }),
            1e-5,
            "log_softmax_bwd_row",
        );
        let q: Vec<u8> = (0..cols).map(|_| rng.range(0..256) as u8).collect();
        assert_tiers_agree(
            &run_tiered(|| {
                let mut out = Matrix::zeros(1, cols);
                simd::dequant_u8(simd::active(), &q, 0.01375, -1.75, out.row_mut(0));
                out
            }),
            1e-5,
            "dequant_u8",
        );
    }
    simd::force_active(simd::detect_best());
}
