//! Determinism guarantees: every experiment in the harness is seeded, so
//! repeated runs must be bit-identical. `golden_run.rs` pins the bytes
//! themselves.

use rdd_baselines::lp::{predict as lp_predict, LpConfig};
use rdd_core::{RddConfig, RddTrainer};
use rdd_graph::SynthConfig;
use rdd_models::{train, Gcn, GcnConfig, GraphContext, PredictorExt, TrainConfig};
use rdd_tensor::seeded_rng;

#[test]
fn dataset_generation_is_reproducible() {
    let a = SynthConfig::tiny().generate();
    let b = SynthConfig::tiny().generate();
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.train_idx, b.train_idx);
    assert_eq!(a.val_idx, b.val_idx);
    assert_eq!(a.test_idx, b.test_idx);
    assert_eq!(a.graph.edges(), b.graph.edges());
    let ta: Vec<_> = a.features.iter().collect();
    let tb: Vec<_> = b.features.iter().collect();
    assert_eq!(ta, tb);
}

#[test]
fn gcn_training_is_reproducible() {
    let data = SynthConfig::tiny().generate();
    let ctx = GraphContext::new(&data);
    let run = || {
        let mut rng = seeded_rng(11);
        let mut m = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        train(&mut m, &ctx, &data, &TrainConfig::fast(), &mut rng, None);
        m.predictor(&ctx).logits()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.as_slice(),
        b.as_slice(),
        "training diverged under the same seed"
    );
}

#[test]
fn rdd_outcome_is_reproducible() {
    let data = SynthConfig::tiny().generate();
    let mut cfg = RddConfig::fast();
    cfg.num_base_models = 2;
    cfg.train.epochs = 25;
    let a = RddTrainer::new(cfg.clone()).run(&data);
    let b = RddTrainer::new(cfg).run(&data);
    assert_eq!(a.ensemble_pred, b.ensemble_pred);
    assert_eq!(a.single_pred, b.single_pred);
    let aw: Vec<f32> = a.base_models.iter().map(|m| m.alpha).collect();
    let bw: Vec<f32> = b.base_models.iter().map(|m| m.alpha).collect();
    assert_eq!(aw, bw);
}

#[test]
fn label_propagation_is_deterministic() {
    let data = SynthConfig::tiny().generate();
    let a = lp_predict(&data, &LpConfig::default());
    let b = lp_predict(&data, &LpConfig::default());
    assert_eq!(a, b);
}

#[test]
fn different_rdd_seeds_give_different_models() {
    let data = SynthConfig::tiny().generate();
    let mut cfg = RddConfig::fast();
    cfg.num_base_models = 1;
    cfg.train.epochs = 25;
    let a = RddTrainer::new(cfg.clone()).run(&data);
    cfg.seed = 999;
    let b = RddTrainer::new(cfg).run(&data);
    assert_ne!(
        a.single_pred, b.single_pred,
        "different seeds should not produce identical models"
    );
}
