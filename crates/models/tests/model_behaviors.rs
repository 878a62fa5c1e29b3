//! Behavioural tests of the model zoo: the phenomena the paper discusses
//! (over-smoothing with depth, residual connections mitigating it, the
//! graph mattering at all) reproduced at test scale.

use rdd_graph::SynthConfig;
use rdd_models::{
    train, Gcn, GcnConfig, GraphContext, MlpConfig, MlpModel, Model, PredictorExt, ResGcn,
    TrainConfig,
};
use rdd_tensor::seeded_rng;

fn data() -> rdd_graph::Dataset {
    SynthConfig::tiny().generate()
}

fn fit(model: &mut dyn Model, data: &rdd_graph::Dataset, ctx: &GraphContext, seed: u64) -> f32 {
    let cfg = TrainConfig {
        epochs: 80,
        patience: 80,
        min_epochs: 0,
        ..TrainConfig::fast()
    };
    let mut rng = seeded_rng(seed);
    train(model, ctx, data, &cfg, &mut rng, None);
    data.test_accuracy(&model.predictor(ctx).predict())
}

/// The paper's premise: graph structure carries signal beyond features, so
/// GCN beats a feature-only MLP on a homophilous graph.
#[test]
fn gcn_beats_mlp_on_homophilous_graph() {
    let data = data();
    let ctx = GraphContext::new(&data);
    let mut rng = seeded_rng(1);
    let mut gcn = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
    let GcnConfig {
        hidden,
        dropout,
        input_dropout,
    } = GcnConfig::citation();
    let mlp_cfg = MlpConfig {
        hidden,
        dropout,
        input_dropout,
    };
    let mut mlp = MlpModel::new(&ctx, mlp_cfg, &mut rng);
    let gcn_acc = fit(&mut gcn, &data, &ctx, 2);
    let mlp_acc = fit(&mut mlp, &data, &ctx, 2);
    assert!(
        gcn_acc > mlp_acc,
        "GCN {gcn_acc} should beat MLP {mlp_acc} when structure is informative"
    );
}

/// §2.2: deep plain GCNs over-smooth — a 6-propagation-step GCN should not
/// beat the 2-layer one on a small citation-like graph.
#[test]
fn deep_gcn_oversmooths() {
    let data = data();
    let ctx = GraphContext::new(&data);
    let mut rng = seeded_rng(3);
    let mut shallow = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
    let mut deep = Gcn::new(&ctx, GcnConfig::deep(16, 5, 0.5), &mut rng);
    let shallow_acc = fit(&mut shallow, &data, &ctx, 4);
    let deep_acc = fit(&mut deep, &data, &ctx, 4);
    assert!(
        shallow_acc >= deep_acc - 0.02,
        "6-layer GCN ({deep_acc}) unexpectedly dominated 2-layer ({shallow_acc})"
    );
}

/// Residual connections should keep a deep stack closer to (or above) the
/// plain deep GCN.
#[test]
fn residuals_mitigate_depth() {
    let data = data();
    let ctx = GraphContext::new(&data);
    let mut rng = seeded_rng(5);
    let mut deep_plain = Gcn::new(&ctx, GcnConfig::deep(16, 4, 0.5), &mut rng);
    let mut deep_res = ResGcn::new(&ctx, GcnConfig::deep(16, 4, 0.5), &mut rng);
    let plain_acc = fit(&mut deep_plain, &data, &ctx, 6);
    let res_acc = fit(&mut deep_res, &data, &ctx, 6);
    assert!(
        res_acc >= plain_acc - 0.05,
        "ResGCN ({res_acc}) collapsed far below plain deep GCN ({plain_acc})"
    );
}

/// Early stopping must never return a model worse on validation than one
/// from a shorter budget (best-epoch snapshotting).
#[test]
fn longer_budget_never_hurts_validation() {
    let data = data();
    let ctx = GraphContext::new(&data);
    let run = |epochs: usize| {
        let mut rng = seeded_rng(7);
        let mut m = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let cfg = TrainConfig {
            epochs,
            patience: epochs,
            min_epochs: 0,
            ..TrainConfig::fast()
        };
        train(&mut m, &ctx, &data, &cfg, &mut rng, None).best_val_acc
    };
    let short = run(20);
    let long = run(120);
    assert!(
        long >= short - 1e-6,
        "longer training lowered best-val: {long} < {short}"
    );
}

/// The trainer's report accounting must be internally consistent.
#[test]
fn train_report_is_consistent() {
    let data = data();
    let ctx = GraphContext::new(&data);
    let mut rng = seeded_rng(8);
    let mut m = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
    let cfg = TrainConfig {
        epochs: 40,
        patience: 10,
        min_epochs: 0,
        ..TrainConfig::fast()
    };
    let report = train(&mut m, &ctx, &data, &cfg, &mut rng, None);
    assert!(report.best_epoch < report.epochs_run);
    assert!(report.epochs_run <= 40);
    assert!(report.wall_time_s > 0.0);
    assert!(report.final_train_loss.is_finite());
}
