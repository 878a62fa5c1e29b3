//! Optimizer-on-tape integration: Adam must drive real (small) learning
//! problems built from the autodiff ops to convergence.

use std::rc::Rc;

use rdd_tensor::{seeded_rng, uniform, Adam, Matrix, Tape};

/// Logistic regression on a linearly separable 2-class problem.
#[test]
fn adam_fits_logistic_regression() {
    let mut rng = seeded_rng(1);
    let n = 60;
    // Two gaussian-ish blobs along the first feature.
    let x = Matrix::from_fn(n, 2, |i, j| {
        let sign = if i < n / 2 { -1.0 } else { 1.0 };
        let noise = uniform(1, 1, 0.5, &mut rng).get(0, 0);
        if j == 0 {
            sign + noise
        } else {
            noise
        }
    });
    let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
    let labels = Rc::new(labels);
    let idx: Rc<Vec<usize>> = Rc::new((0..n).collect());

    let mut params = vec![uniform(2, 2, 0.1, &mut rng)];
    let mut opt = Adam::new(0.05, 0.0, vec![false]);
    let mut last_loss = f32::INFINITY;
    for _ in 0..200 {
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let w = tape.param(0, params[0].clone());
        let logits = tape.matmul(xv, w);
        let loss = tape.ce_masked(logits, Rc::clone(&labels), Rc::clone(&idx));
        last_loss = tape.scalar(loss);
        let grads = tape.backward(loss, 1);
        opt.step(&mut params, &grads);
    }
    assert!(
        last_loss < 0.1,
        "logistic regression failed to converge: loss {last_loss}"
    );

    // Final accuracy.
    let mut tape = Tape::new();
    let xv = tape.constant(x.clone());
    let w = tape.param(0, params[0].clone());
    let logits = tape.matmul(xv, w);
    let preds = tape.value(logits).argmax_rows();
    let correct = preds
        .iter()
        .zip(labels.iter())
        .filter(|(a, b)| a == b)
        .count();
    assert!(correct as f32 / n as f32 > 0.95, "accuracy {correct}/{n}");
}

/// A two-layer ReLU network must fit XOR (which logistic regression can't)
/// from every initialization in the seed set. The input carries a constant
/// one column as a bias: without it, input (0, 0) gives logits 0 whatever
/// the weights, and the mean loss cannot fall below ln 2 / 4.
#[test]
fn adam_fits_xor_with_hidden_layer() {
    let x = Matrix::from_vec(4, 3, vec![0., 0., 1., 0., 1., 1., 1., 0., 1., 1., 1., 1.]);
    let labels = Rc::new(vec![0usize, 1, 1, 0]);
    let idx: Rc<Vec<usize>> = Rc::new((0..4).collect());
    for seed in 0..10 {
        let mut rng = seeded_rng(seed);
        let mut params = vec![uniform(3, 16, 1.0, &mut rng), uniform(16, 2, 1.0, &mut rng)];
        let mut opt = Adam::new(0.05, 0.0, vec![false, false]);
        let mut last_loss = f32::INFINITY;
        let mut pred = Vec::new();
        for _ in 0..1500 {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let w1 = tape.param(0, params[0].clone());
            let w2 = tape.param(1, params[1].clone());
            let h = tape.matmul(xv, w1);
            let h = tape.relu(h);
            let logits = tape.matmul(h, w2);
            let loss = tape.ce_masked(logits, Rc::clone(&labels), Rc::clone(&idx));
            last_loss = tape.scalar(loss);
            pred = tape.value(logits).argmax_rows();
            let grads = tape.backward(loss, 2);
            opt.step(&mut params, &grads);
        }
        assert!(
            last_loss <= 1e-4,
            "seed {seed}: XOR failed to converge: loss {last_loss}"
        );
        assert_eq!(pred, *labels, "seed {seed}: XOR misclassified");
    }
}

/// Weight decay should shrink the solution norm relative to no decay.
#[test]
fn weight_decay_regularizes_solution() {
    let solve = |wd: f32| -> f32 {
        let mut rng = seeded_rng(3);
        let x = uniform(20, 3, 1.0, &mut rng);
        let labels = Rc::new((0..20).map(|i| i % 3).collect::<Vec<_>>());
        let idx: Rc<Vec<usize>> = Rc::new((0..20).collect());
        let mut params = vec![uniform(3, 3, 0.1, &mut rng)];
        let mut opt = Adam::new(0.05, wd, vec![true]);
        for _ in 0..300 {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let w = tape.param(0, params[0].clone());
            let logits = tape.matmul(xv, w);
            let loss = tape.ce_masked(logits, Rc::clone(&labels), Rc::clone(&idx));
            let grads = tape.backward(loss, 1);
            opt.step(&mut params, &grads);
        }
        params[0].frob_sq()
    };
    let free = solve(0.0);
    let decayed = solve(0.5);
    assert!(
        decayed < free,
        "decayed norm {decayed} should be below unregularized {free}"
    );
}

/// Gradients through a shared parameter used twice accumulate — training a
/// tied-weight autoencoder-ish objective should still converge.
#[test]
fn shared_parameter_training_converges() {
    let mut rng = seeded_rng(4);
    let x = uniform(10, 4, 1.0, &mut rng);
    let mut params = vec![uniform(4, 4, 0.3, &mut rng)];
    let mut opt = Adam::new(0.02, 0.0, vec![false]);
    let idx: Rc<Vec<usize>> = Rc::new((0..10).collect());
    let mut last = f32::INFINITY;
    for _ in 0..400 {
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let w = tape.param(0, params[0].clone());
        // y = relu(x W) W  — same W twice.
        let h = tape.matmul(xv, w);
        let h = tape.relu(h);
        let y = tape.matmul(h, w);
        let loss = tape.mse_rows(y, Rc::new(x.clone()), Rc::clone(&idx));
        last = tape.scalar(loss);
        let grads = tape.backward(loss, 1);
        opt.step(&mut params, &grads);
    }
    assert!(last < 0.5, "tied-weight reconstruction stuck at {last}");
}
