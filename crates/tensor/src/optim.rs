//! Adam optimizer with (classic, coupled) L2 weight decay.
//!
//! The reference GCN implementation regularizes only the first layer's
//! weights, so decay is configured per parameter slot via `decay_mask`.

use crate::matrix::Matrix;

/// Adam with bias correction. One instance per model; state is kept per
/// parameter slot and lazily shaped on the first step.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay (default 0.9).
    pub beta1: f32,
    /// Second-moment decay (default 0.999).
    pub beta2: f32,
    /// Denominator fuzz (default 1e-8).
    pub eps: f32,
    /// L2 coefficient added to the gradient (`g += wd * w`) for slots whose
    /// `decay_mask` entry is true.
    pub weight_decay: f32,
    decay_mask: Vec<bool>,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the paper's defaults (`lr = 0.01`, betas 0.9/0.999).
    pub fn new(lr: f32, weight_decay: f32, decay_mask: Vec<bool>) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            decay_mask,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Override the learning rate (used by warm-restart schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Apply one update. `grads[i] == None` leaves `params[i]` untouched
    /// (its Adam state does not advance either).
    pub fn step(&mut self, params: &mut [Matrix], grads: &[Option<Matrix>]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            let Some(g) = &grads[i] else { continue };
            assert_eq!(g.shape(), p.shape(), "grad shape mismatch on slot {i}");
            let decay = if self.decay_mask.get(i).copied().unwrap_or(false) {
                self.weight_decay
            } else {
                0.0
            };
            let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
            // One pass over zipped slices: no per-element bounds checks, so
            // the loop vectorizes. Each element's operations and their
            // order are those of the scalar update.
            let elems = p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(self.m[i].as_mut_slice())
                .zip(self.v[i].as_mut_slice());
            for (((pk, &gk), mk), vk) in elems {
                let gk = gk + decay * *pk;
                *mk = b1 * *mk + (1.0 - b1) * gk;
                *vk = b2 * *vk + (1.0 - b2) * gk * gk;
                let mhat = *mk / bc1;
                let vhat = *vk / bc2;
                *pk -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adam should quickly minimize a simple convex quadratic `‖w − c‖²`.
    #[test]
    fn adam_converges_on_quadratic() {
        let target = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
        let mut params = vec![Matrix::zeros(2, 2)];
        let mut opt = Adam::new(0.1, 0.0, vec![false]);
        for _ in 0..500 {
            let g = params[0].sub(&target).scaled(2.0);
            opt.step(&mut params, &[Some(g)]);
        }
        assert!(params[0].max_abs_diff(&target) < 1e-2);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        // With zero task gradient and decay on, weights decay toward zero.
        let mut params = vec![Matrix::full(1, 4, 10.0)];
        let mut opt = Adam::new(0.05, 1.0, vec![true]);
        let zero = Matrix::zeros(1, 4);
        for _ in 0..600 {
            opt.step(&mut params, &[Some(zero.clone())]);
        }
        assert!(params[0].as_slice().iter().all(|&w| w.abs() < 1.0));
    }

    #[test]
    fn unmasked_slot_ignores_decay() {
        let mut params = vec![Matrix::full(1, 1, 5.0)];
        let mut opt = Adam::new(0.05, 1.0, vec![false]);
        let zero = Matrix::zeros(1, 1);
        for _ in 0..50 {
            opt.step(&mut params, &[Some(zero.clone())]);
        }
        // No gradient and no decay: parameter unchanged.
        assert_eq!(params[0].get(0, 0), 5.0);
    }

    /// The indexed update the one-pass loop replaced, for one slot.
    fn indexed_step(adam: &Adam, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let t = adam.t as i32 + 1;
        let bc1 = 1.0 - adam.beta1.powi(t);
        let bc2 = 1.0 - adam.beta2.powi(t);
        let (b1, b2, eps, lr, decay) =
            (adam.beta1, adam.beta2, adam.eps, adam.lr, adam.weight_decay);
        for k in 0..p.len() {
            let gk = g[k] + decay * p[k];
            let mk = b1 * m[k] + (1.0 - b1) * gk;
            let vk = b2 * v[k] + (1.0 - b2) * gk * gk;
            m[k] = mk;
            v[k] = vk;
            p[k] -= lr * (mk / bc1) / ((vk / bc2).sqrt() + eps);
        }
    }

    #[test]
    fn one_pass_step_matches_the_indexed_update_bitwise() {
        let mut rng = crate::rng::seeded_rng(12);
        // 37 elements: vector bodies and a scalar tail both run.
        let mut params = vec![crate::init::uniform(37, 1, 1.0, &mut rng)];
        let mut opt = Adam::new(0.01, 5e-4, vec![true]);
        let (mut p, mut m, mut v) = (params[0].as_slice().to_vec(), vec![0.0; 37], vec![0.0; 37]);
        for step in 0..20 {
            let mut g = crate::init::uniform(37, 1, 1.0, &mut rng);
            if step == 3 {
                g.as_mut_slice()[5] = 0.0;
                g.as_mut_slice()[6] = -0.0;
            }
            indexed_step(&opt, &mut p, g.as_slice(), &mut m, &mut v);
            opt.step(&mut params, &[Some(g)]);
            let got: Vec<u32> = params[0].as_slice().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = p.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "step {step}");
        }
    }

    #[test]
    fn none_grad_skips_slot() {
        let mut params = vec![Matrix::full(1, 1, 1.0), Matrix::full(1, 1, 1.0)];
        let mut opt = Adam::new(0.1, 0.0, vec![false, false]);
        opt.step(&mut params, &[Some(Matrix::full(1, 1, 1.0)), None]);
        assert!(params[0].get(0, 0) < 1.0);
        assert_eq!(params[1].get(0, 0), 1.0);
    }
}
