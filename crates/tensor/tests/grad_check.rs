//! Property-based gradient checks and kernel invariants for `rdd-tensor`.
//!
//! Every differentiable op is validated against central finite differences
//! over randomized shapes and values; the dense/sparse kernels are validated
//! against their naive reference forms. Case `seed` draws its inputs from
//! `seeded_rng(seed)`, and every assertion message names the seed.

use std::rc::Rc;

use rdd_tensor::{seeded_rng, CsrMatrix, Matrix, Rng, Tape};

/// Cases for the op and kernel checks.
const CASES: u64 = 16;
/// Cases for the costlier softmax, attention and weighted checks.
const CASES_SLOW: u64 = 12;

/// A matrix with entries in [-2, 2).
fn matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.range_f32(-2.0..2.0))
}

/// Central finite-difference check for `d scalar / d param`.
fn check_grad(
    seed: u64,
    param: &Matrix,
    build: impl Fn(&mut Tape, Matrix) -> rdd_tensor::Var,
    tol: f32,
) {
    let mut tape = Tape::new();
    let loss = build(&mut tape, param.clone());
    let grads = tape.backward(loss, 1);
    let analytic = grads[0].as_ref().expect("param must participate");
    let h = 1e-2f32;
    for k in 0..param.len() {
        let eval = |delta: f32| {
            let mut p = param.clone();
            p.as_mut_slice()[k] += delta;
            let mut t = Tape::new();
            let l = build(&mut t, p);
            t.scalar(l)
        };
        let numeric = (eval(h) - eval(-h)) / (2.0 * h);
        let a = analytic.as_slice()[k];
        assert!(
            (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "seed {seed}: gradient mismatch at {k}: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn matmul_chain_gradient() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let w = matrix(&mut rng, 3, 2);
        let x = matrix(&mut rng, 4, 3);
        check_grad(
            seed,
            &w,
            |t, p| {
                let xv = t.constant(x.clone());
                let pv = t.param(0, p);
                let y = t.matmul(xv, pv);
                let r = t.relu(y);
                let target = Rc::new(Matrix::zeros(4, 2));
                t.mse_rows(r, target, Rc::new((0..4).collect()))
            },
            5e-2,
        );
    }
}

#[test]
fn log_softmax_nll_gradient() {
    for seed in 0..CASES {
        let x = matrix(&mut seeded_rng(seed), 3, 4);
        let labels = Rc::new(vec![0usize, 3, 1]);
        check_grad(
            seed,
            &x,
            |t, p| {
                let pv = t.param(0, p);
                t.ce_masked(pv, Rc::clone(&labels), Rc::new(vec![0, 1, 2]))
            },
            5e-2,
        );
    }
}

#[test]
fn edge_reg_gradient_random_edges() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let x = matrix(&mut rng, 5, 3);
        let e = rng.range(0..100) as u32;
        let edges = Rc::new(vec![(e % 5, (e + 1) % 5), ((e + 2) % 5, (e + 4) % 5)]);
        // Skip degenerate self-loops: d‖x_i − x_i‖²/dx = 0 trivially holds
        // but offers no signal.
        check_grad(
            seed,
            &x,
            |t, p| {
                let pv = t.param(0, p);
                t.edge_reg_weighted(pv, Rc::clone(&edges), Rc::new(vec![1.0; 2]))
            },
            5e-2,
        );
    }
}

#[test]
fn softmax_rows_are_distributions() {
    for seed in 0..CASES {
        let x = matrix(&mut seeded_rng(seed), 4, 6);
        let s = x.softmax_rows();
        for i in 0..4 {
            let sum: f32 = s.row(i).iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-4,
                "seed {seed}: row {i} sums to {sum}"
            );
            assert!(
                s.row(i).iter().all(|&p| p >= 0.0),
                "seed {seed}: negative entry in row {i}"
            );
        }
    }
}

#[test]
fn row_entropy_bounded_by_ln_k() {
    for seed in 0..CASES {
        let x = matrix(&mut seeded_rng(seed), 4, 6);
        let s = x.softmax_rows();
        let max_e = 6.0f32.ln();
        for e in s.row_entropy() {
            assert!(
                e >= -1e-5 && e <= max_e + 1e-4,
                "seed {seed}: entropy {e} out of [0, ln 6]"
            );
        }
    }
}

#[test]
fn matmul_associates_with_identity() {
    for seed in 0..CASES {
        let x = matrix(&mut seeded_rng(seed), 3, 3);
        let i = Matrix::eye(3);
        assert!(x.matmul(&i).max_abs_diff(&x) < 1e-5, "seed {seed}: x·I");
        assert!(i.matmul(&x).max_abs_diff(&x) < 1e-5, "seed {seed}: I·x");
    }
}

#[test]
fn csr_roundtrip_preserves_entries() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let len = rng.range(0..30);
        let entries: Vec<(usize, usize, f32)> = (0..len)
            .map(|_| (rng.range(0..6), rng.range(0..7), rng.range_f32(-3.0..3.0)))
            .collect();
        let m = CsrMatrix::from_triplets(6, 7, &entries);
        // Dense reference built by summing duplicates.
        let mut dense = Matrix::zeros(6, 7);
        for &(r, c, v) in &entries {
            dense.set(r, c, dense.get(r, c) + v);
        }
        assert!(
            m.to_dense().max_abs_diff(&dense) < 1e-4,
            "seed {seed}: to_dense"
        );
        // spmm against dense matmul.
        let rhs = Matrix::from_fn(7, 3, |i, j| (i * 3 + j) as f32 * 0.1 - 1.0);
        assert!(
            m.spmm(&rhs).max_abs_diff(&dense.matmul(&rhs)) < 1e-3,
            "seed {seed}: spmm"
        );
        // transpose product.
        let rhs_t = Matrix::from_fn(6, 2, |i, j| (i + j) as f32 * 0.2 - 0.5);
        assert!(
            m.spmm_t(&rhs_t)
                .max_abs_diff(&dense.transpose().matmul(&rhs_t))
                < 1e-3,
            "seed {seed}: spmm_t"
        );
    }
}

#[test]
fn spmm_gradient_matches_fd() {
    for seed in 0..CASES {
        let x = matrix(&mut seeded_rng(seed), 4, 2);
        let sp = Rc::new(CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 0.5),
                (1, 0, 0.5),
                (2, 3, 1.0),
                (3, 3, 0.25),
                (0, 0, 0.5),
            ],
        ));
        check_grad(
            seed,
            &x,
            |t, p| {
                let pv = t.param(0, p);
                let y = t.spmm(&sp, pv, false);
                let target = Rc::new(Matrix::full(4, 2, 0.3));
                t.mse_rows(y, target, Rc::new((0..4).collect()))
            },
            5e-2,
        );
    }
}

#[test]
fn concat_and_scale_gradient() {
    for seed in 0..CASES {
        let a = matrix(&mut seeded_rng(seed), 3, 2);
        let b = Matrix::full(3, 1, 0.7);
        check_grad(
            seed,
            &a,
            |t, p| {
                let pv = t.param(0, p);
                let bv = t.constant(b.clone());
                let c = t.concat_cols(&[pv, bv]);
                let s = t.scale(c, 1.5);
                let target = Rc::new(Matrix::zeros(3, 3));
                t.mse_rows(s, target, Rc::new((0..3).collect()))
            },
            5e-2,
        );
    }
}

#[test]
fn softmax_gradient() {
    for seed in 0..CASES_SLOW {
        let x = matrix(&mut seeded_rng(seed), 3, 4);
        check_grad(
            seed,
            &x,
            |t, p| {
                let pv = t.param(0, p);
                let s = t.softmax(pv);
                // Pull the distribution toward uniform.
                let target = Rc::new(Matrix::full(3, 4, 0.25));
                t.mse_rows(s, target, Rc::new((0..3).collect()))
            },
            6e-2,
        );
    }
}

#[test]
fn soft_ce_gradient() {
    for seed in 0..CASES_SLOW {
        let x = matrix(&mut seeded_rng(seed), 3, 4);
        let teacher = Matrix::from_fn(3, 4, |i, j| ((i + j) % 4) as f32 + 0.5).softmax_rows();
        let teacher = Rc::new(teacher);
        check_grad(
            seed,
            &x,
            move |t, p| {
                let pv = t.param(0, p);
                let lp = t.log_softmax(pv);
                t.soft_ce_masked(lp, Rc::clone(&teacher), Rc::new(vec![0, 2]))
            },
            6e-2,
        );
    }
}

#[test]
fn elu_gradient() {
    for seed in 0..CASES_SLOW {
        let x = matrix(&mut seeded_rng(seed), 2, 5);
        check_grad(
            seed,
            &x,
            |t, p| {
                let pv = t.param(0, p);
                let e = t.elu(pv);
                let target = Rc::new(Matrix::zeros(2, 5));
                t.mse_rows(e, target, Rc::new(vec![0, 1]))
            },
            6e-2,
        );
    }
}

#[test]
fn weighted_edge_reg_gradient() {
    for seed in 0..CASES_SLOW {
        let mut rng = seeded_rng(seed);
        let x = matrix(&mut rng, 4, 3);
        let w0 = rng.range_f32(0.1..2.0);
        let w1 = rng.range_f32(0.1..2.0);
        let edges = Rc::new(vec![(0u32, 1u32), (2, 3)]);
        let weights = Rc::new(vec![w0, w1]);
        check_grad(
            seed,
            &x,
            move |t, p| {
                let pv = t.param(0, p);
                t.edge_reg_weighted(pv, Rc::clone(&edges), Rc::clone(&weights))
            },
            6e-2,
        );
    }
}

#[test]
fn graph_attention_gradient_random() {
    for seed in 0..CASES_SLOW {
        let h = matrix(&mut seeded_rng(seed), 4, 3);
        let adj = Rc::new(CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 3, 1.0),
            ],
        ));
        let a_l = Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.5]);
        let a_r = Matrix::from_vec(1, 3, vec![-0.4, 0.1, 0.2]);
        check_grad(
            seed,
            &h,
            move |t, p| {
                let pv = t.param(0, p);
                let al = t.constant(a_l.clone());
                let ar = t.constant(a_r.clone());
                let out = t.graph_attention(&adj, pv, al, ar, 0.2);
                let target = Rc::new(Matrix::full(4, 3, 0.1));
                t.mse_rows(out, target, Rc::new((0..4).collect()))
            },
            8e-2,
        );
    }
}

#[test]
fn attention_rows_are_convex_weights() {
    for seed in 0..CASES_SLOW {
        let h = matrix(&mut seeded_rng(seed), 5, 2);
        // Output of attention must be a convex combination of neighbor
        // rows: per-column bounded by the neighborhood min/max.
        let triplets: Vec<(usize, usize, f32)> = (0..5)
            .flat_map(|i| [(i, i, 1.0), (i, (i + 1) % 5, 1.0)])
            .collect();
        let adj = Rc::new(CsrMatrix::from_triplets(5, 5, &triplets));
        let mut t = Tape::new();
        let hv = t.constant(h.clone());
        let al = t.constant(Matrix::from_vec(1, 2, vec![0.7, -0.3]));
        let ar = t.constant(Matrix::from_vec(1, 2, vec![0.2, 0.4]));
        let out = t.graph_attention(&adj, hv, al, ar, 0.2);
        let o = t.value(out);
        for i in 0..5 {
            let neigh = [i, (i + 1) % 5];
            for c in 0..2 {
                let lo = neigh
                    .iter()
                    .map(|&j| h.get(j, c))
                    .fold(f32::INFINITY, f32::min);
                let hi = neigh
                    .iter()
                    .map(|&j| h.get(j, c))
                    .fold(f32::NEG_INFINITY, f32::max);
                assert!(
                    o.get(i, c) >= lo - 1e-4 && o.get(i, c) <= hi + 1e-4,
                    "seed {seed}: out ({i},{c}) = {} outside [{lo}, {hi}]",
                    o.get(i, c)
                );
            }
        }
    }
}
