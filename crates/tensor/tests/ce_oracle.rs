//! Bitwise oracle for the fused masked cross-entropy.
//!
//! `Tape::ce_masked` replaced a full-matrix `log_softmax` followed by a
//! masked negative log-likelihood. This file keeps that pair's arithmetic
//! verbatim (module [`old`]) and checks that the fused op gives the same
//! loss bits and the same gradient bits on every tier the CPU has: random
//! logits at widths on both sides of the eight-lane block, duplicate and
//! empty `idx`, a loss weight other than one, and NaN / ±inf logits both
//! inside and outside `idx`. A non-finite logit in a row outside `idx`
//! must still poison the gradient exactly as the pair did, because the
//! trainer's divergence guard reads it.
//!
//! Equality is bitwise, except that any NaN equals any other NaN (the
//! payload is not part of the contract; see `kernel_oracle.rs`).

use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};

use rdd_tensor::simd::{self, SimdTier};
use rdd_tensor::{seeded_rng, Matrix, Rng, Tape};

/// The removed `log_softmax → nll_masked` pair, as the tape computed it.
mod old {
    use rdd_tensor::simd;
    use rdd_tensor::Matrix;

    /// Loss value and `d loss / d logits` for an upstream gradient `g`.
    pub fn ce(logits: &Matrix, labels: &[usize], idx: &[usize], g: f32) -> (f32, Option<Matrix>) {
        let tier = simd::active();
        let mut logp = logits.clone();
        for i in 0..logp.rows() {
            simd::log_softmax_in_place(tier, logp.row_mut(i));
        }
        if idx.is_empty() {
            return (0.0, None);
        }
        let s: f32 = idx.iter().map(|&i| -logp.get(i, labels[i])).sum();
        let loss = s / idx.len() as f32;
        let scale = g / idx.len() as f32;
        let mut dlp = Matrix::zeros(logp.rows(), logp.cols());
        for &i in idx {
            let j = labels[i];
            dlp.set(i, j, dlp.get(i, j) - scale);
        }
        for i in 0..dlp.rows() {
            simd::log_softmax_bwd_row(tier, dlp.row_mut(i), logp.row(i));
        }
        (loss, Some(dlp))
    }
}

fn tier_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

fn same(a: f32, b: f32) -> bool {
    if b.is_nan() {
        a.is_nan()
    } else {
        a.to_bits() == b.to_bits()
    }
}

/// The fused op's loss and logits gradient, with the loss weighted by `g`.
fn fused(logits: &Matrix, labels: &[usize], idx: &[usize], g: f32) -> (f32, Option<Matrix>) {
    let mut tape = Tape::new();
    let x = tape.param(0, logits.clone());
    let ce = tape.ce_masked(x, Rc::new(labels.to_vec()), Rc::new(idx.to_vec()));
    let loss = tape.scale(ce, g);
    let value = tape.scalar(ce);
    let grad = tape.backward(loss, 1).pop().flatten();
    (value, grad)
}

fn check(logits: &Matrix, labels: &[usize], idx: &[usize], g: f32, what: &str) {
    let (want_loss, want_grad) = old::ce(logits, labels, idx, g);
    let (got_loss, got_grad) = fused(logits, labels, idx, g);
    assert!(
        same(got_loss, want_loss),
        "{what}: loss {got_loss:e}, the pair gives {want_loss:e}"
    );
    match (got_grad, want_grad) {
        (None, None) => {}
        (Some(got), Some(want)) => {
            for (e, (&a, &b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert!(
                    same(a, b),
                    "{what}: gradient element {e} is {a:e}, the pair gives {b:e}"
                );
            }
        }
        (got, want) => panic!(
            "{what}: gradient present {} vs {} in the pair",
            got.is_some(),
            want.is_some()
        ),
    }
}

fn logits(rng: &mut Rng, n: usize, k: usize) -> Matrix {
    Matrix::from_fn(n, k, |_, _| rng.range_f32(-6.0..6.0))
}

#[test]
fn ce_masked_matches_the_log_softmax_nll_pair_bitwise() {
    on_every_tier(|tier| {
        for (case, &k) in [1usize, 3, 7, 8, 9, 16].iter().enumerate() {
            let mut rng = seeded_rng(100 + case as u64);
            let n = 23;
            let x = logits(&mut rng, n, k);
            let labels: Vec<usize> = (0..n).map(|_| rng.range(0..k)).collect();
            let idx: Vec<usize> = (0..9).map(|_| rng.range(0..n)).collect();
            let what = format!("{} k={k}", tier.name());
            check(&x, &labels, &idx, 1.0, &what);
            check(&x, &labels, &idx, 0.37, &format!("{what} weighted"));
            // Duplicates: the same row three times, and every row once.
            check(&x, &labels, &[4, 4, 11, 4], 1.0, &format!("{what} dup"));
            let all: Vec<usize> = (0..n).collect();
            check(&x, &labels, &all, 1.0, &format!("{what} all"));
            check(&x, &labels, &[], 1.0, &format!("{what} empty"));
        }
    });
}

#[test]
fn non_finite_logits_poison_the_gradient_like_the_pair() {
    on_every_tier(|tier| {
        for &k in &[3usize, 7, 8, 12] {
            let mut rng = seeded_rng(7 + k as u64);
            let n = 10;
            let labels: Vec<usize> = (0..n).map(|_| rng.range(0..k)).collect();
            let idx = [1usize, 3, 3, 8];
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for row in [0usize, 3, 9] {
                    let mut x = logits(&mut rng, n, k);
                    x.set(row, k / 2, special);
                    let what = format!("{} k={k} {special} in row {row}", tier.name());
                    check(&x, &labels, &idx, 1.0, &what);
                }
                // A whole row of the special value, outside `idx`.
                let mut x = logits(&mut rng, n, k);
                x.row_mut(5).fill(special);
                check(
                    &x,
                    &labels,
                    &idx,
                    1.0,
                    &format!("{} k={k} row of {special}", tier.name()),
                );
            }
        }
    });
    // The case the divergence guard relies on, spelled out.
    let mut x = Matrix::zeros(4, 3);
    x.set(2, 1, f32::NAN);
    let (loss, grad) = fused(&x, &[0, 1, 2, 0], &[0, 1], 1.0);
    assert!(loss.is_finite());
    let grad = grad.expect("gradient");
    assert!(
        grad.row(2).iter().any(|v| v.is_nan()),
        "NaN outside idx was hidden"
    );
    assert!(
        grad.row(3).iter().all(|&v| v.to_bits() == 0),
        "finite row not +0"
    );
}
