//! Behavioural tests for the baselines: degenerate graphs, label-budget
//! effects and ensemble bookkeeping.

use rdd_baselines::lp::{label_propagation, predict as lp_predict, LpConfig};
use rdd_baselines::{bagging, bans, BansConfig};
use rdd_graph::{Dataset, Graph, SynthConfig};
use rdd_models::{GcnConfig, TrainConfig};
use rdd_tensor::CsrMatrix;

fn fast_train() -> TrainConfig {
    TrainConfig {
        epochs: 50,
        patience: 50,
        min_epochs: 0,
        ..TrainConfig::fast()
    }
}

/// LP on a graph with an isolated component: unreachable nodes keep zero
/// scores (argmax falls back to class 0) without panicking.
#[test]
fn lp_handles_disconnected_graph() {
    let n = 10;
    // Nodes 8, 9 are isolated.
    let graph = Graph::from_edges(n, &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>());
    let labels = vec![0, 0, 0, 0, 1, 1, 1, 1, 0, 1];
    let data = Dataset {
        name: "disconnected".into(),
        graph,
        features: CsrMatrix::identity(n),
        labels,
        num_classes: 2,
        train_idx: vec![0, 4],
        val_idx: vec![1, 5],
        test_idx: vec![2, 3, 6, 7],
    };
    let f = label_propagation(&data, &LpConfig::default());
    // Connected labeled mass propagates.
    assert!(f.get(1, 0) > 0.0);
    // Isolated nodes receive nothing.
    assert_eq!(f.row(8), &[0.0, 0.0]);
    let preds = lp_predict(&data, &LpConfig::default());
    assert_eq!(preds.len(), n);
}

/// LP accuracy should grow with the number of seeds.
#[test]
fn lp_improves_with_more_labels() {
    let cfg = SynthConfig::tiny();
    let mut rng = rdd_tensor::seeded_rng(1);
    let mut scarce = cfg.generate();
    scarce.resample_train(2, &mut rng);
    let mut rich = cfg.generate();
    rich.resample_train(40, &mut rng);
    let a = scarce.test_accuracy(&lp_predict(&scarce, &LpConfig::default()));
    let b = rich.test_accuracy(&lp_predict(&rich, &LpConfig::default()));
    assert!(b > a, "more seeds should help LP: {b} !> {a}");
}

/// Ensemble bookkeeping: per-model times and prefix accuracies line up.
#[test]
fn ensemble_outcome_bookkeeping() {
    let data = SynthConfig::tiny().generate();
    let out = bagging(&data, &GcnConfig::citation(), &fast_train(), 3, 5);
    assert_eq!(out.per_model_time_s.len(), 3);
    assert!(out.per_model_time_s.iter().all(|&t| t > 0.0));
    assert!(out.wall_time_s >= out.per_model_time_s.iter().sum::<f64>() * 0.9);
    assert_eq!(out.prefix_test_accs.len(), 3);
    assert!((out.prefix_test_accs[2] - out.ensemble_test_acc).abs() < 1e-6);
}

/// BANs generations should agree with each other more than independently
/// trained Bagging members do (the limited-diversity effect the paper
/// criticizes).
#[test]
fn bans_less_diverse_than_bagging() {
    let data = SynthConfig::tiny().generate();
    let t = fast_train();
    let kd = BansConfig {
        kd_weight: 5.0,
        ..Default::default()
    };
    let b = bagging(&data, &GcnConfig::citation(), &t, 2, 11);
    let bn = bans(&data, &GcnConfig::citation(), &t, 2, &kd, 11);
    // Diversity proxy: |acc gap| between the pair is not a great measure;
    // instead compare each pair's prediction agreement via the ensembles'
    // stored outputs. We only have hard predictions here, so use the gain:
    // a strongly-mimicking BANs pair should produce a combined model closer
    // to its average than bagging's (smaller ensemble gain).
    assert!(
        bn.gain() <= b.gain() + 0.02,
        "BANs gain {} should not exceed Bagging gain {} (limited diversity)",
        bn.gain(),
        b.gain()
    );
}
