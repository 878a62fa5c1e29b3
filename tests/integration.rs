//! Cross-crate integration tests: the pieces (graph substrate, autodiff,
//! models, reliability, ensemble) composed the way the experiments compose
//! them.

use std::rc::Rc;

use rdd_core::{compute_reliability, model_weight, Ensemble};
use rdd_graph::SynthConfig;
use rdd_models::{train, Gcn, GcnConfig, GraphContext, PredictorExt, TrainConfig};
use rdd_tensor::seeded_rng;

fn trained_gcn(seed: u64) -> (rdd_graph::Dataset, GraphContext, Gcn) {
    let data = SynthConfig::tiny().generate();
    let ctx = GraphContext::new(&data);
    let mut rng = seeded_rng(seed);
    let mut model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
    train(
        &mut model,
        &ctx,
        &data,
        &TrainConfig::fast(),
        &mut rng,
        None,
    );
    (data, ctx, model)
}

#[test]
fn reliability_sets_from_trained_models_are_consistent() {
    let (data, ctx, teacher) = trained_gcn(1);
    let (_, _, student) = {
        let mut rng = seeded_rng(2);
        let mut m = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        train(&mut m, &ctx, &data, &TrainConfig::fast(), &mut rng, None);
        (0, 0, m)
    };
    let teacher_proba = teacher.predictor(&ctx).proba();
    let student_proba = student.predictor(&ctx).proba();
    let mut is_labeled = vec![false; data.n()];
    for &i in &data.train_idx {
        is_labeled[i] = true;
    }
    let sets = compute_reliability(
        &teacher_proba,
        &student_proba,
        &data.labels,
        &is_labeled,
        0.4,
        &data.graph,
    );
    // Invariants:
    assert!(
        sets.num_reliable() > 0,
        "trained teacher should make some nodes reliable"
    );
    for &i in &sets.distill {
        assert!(sets.reliable[i], "V_b ⊆ V_r");
    }
    for &(a, b) in &sets.edges {
        assert!(
            sets.reliable[a as usize] && sets.reliable[b as usize],
            "E_r endpoints reliable"
        );
        assert!(data.graph.has_edge(a as usize, b as usize), "E_r ⊆ E");
    }
    // With two decently-trained models, most labeled nodes should be
    // reliable (the teacher classifies its own training data well).
    let labeled_reliable = data.train_idx.iter().filter(|&&i| sets.reliable[i]).count();
    assert!(
        labeled_reliable * 2 > data.train_idx.len(),
        "only {labeled_reliable}/{} labeled nodes reliable",
        data.train_idx.len()
    );
}

#[test]
fn ensemble_of_trained_models_beats_worst_member() {
    let data = SynthConfig::tiny().generate();
    let ctx = GraphContext::new(&data);
    let pagerank = data.graph.pagerank(0.85, 100, 1e-9);
    let mut ensemble = Ensemble::new();
    let mut accs = Vec::new();
    for seed in 0..3u64 {
        let mut rng = seeded_rng(seed);
        let mut m = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        train(&mut m, &ctx, &data, &TrainConfig::fast(), &mut rng, None);
        let proba = m.predictor(&ctx).proba();
        accs.push(data.test_accuracy(&proba.argmax_rows()));
        let alpha = model_weight(&proba, &pagerank);
        ensemble.push(proba, alpha);
    }
    let ens_acc = data.test_accuracy(&ensemble.predict());
    let worst = accs.iter().cloned().fold(f32::INFINITY, f32::min);
    assert!(
        ens_acc >= worst - 1e-6,
        "ensemble {ens_acc} fell below its worst member {worst}"
    );
}

#[test]
fn pagerank_weighted_ensemble_weights_are_finite_positive() {
    let (data, ctx, model) = trained_gcn(3);
    let pagerank = data.graph.pagerank(0.85, 100, 1e-9);
    let proba = model.predictor(&ctx).proba();
    let w = model_weight(&proba, &pagerank);
    assert!(w.is_finite() && w > 0.0);
}

#[test]
fn deep_models_train_through_shared_trainer() {
    use rdd_models::{DenseGcn, JkNet, Model, ResGcn};
    let data = SynthConfig::tiny().generate();
    let ctx = GraphContext::new(&data);
    let cfg = TrainConfig {
        epochs: 30,
        patience: 30,
        min_epochs: 0,
        ..TrainConfig::fast()
    };
    let mut rng = seeded_rng(4);
    let mut models: Vec<Box<dyn Model>> = vec![
        Box::new(ResGcn::new(&ctx, GcnConfig::deep(8, 2, 0.5), &mut rng)),
        Box::new(DenseGcn::new(&ctx, GcnConfig::deep(8, 2, 0.5), &mut rng)),
        Box::new(JkNet::new(&ctx, GcnConfig::deep(8, 2, 0.5), &mut rng)),
    ];
    for model in &mut models {
        let report = train(model.as_mut(), &ctx, &data, &cfg, &mut rng, None);
        assert!(
            report.best_val_acc > 0.4,
            "{} failed to learn: val {}",
            model.name(),
            report.best_val_acc
        );
    }
}

#[test]
fn distillation_hook_reduces_student_teacher_disagreement() {
    // The hook controls the objective: a term it returns is minimized in
    // proportion to its weight. So a student trained with the KD term at
    // weight 5 must end closer to the teacher's logits than the same
    // student (same init, same dropout stream) that only observes the term
    // at weight 0 — for every teacher seed below. The distance is the
    // hook's own last-epoch value, so the restore of the best-validation
    // epoch does not enter it, and the budget is a fixed 60 epochs: early
    // stopping watches validation accuracy, which never sees the KD term,
    // and would otherwise cut a still-converging KD run short.
    let mut cfg = TrainConfig::fast();
    cfg.min_epochs = cfg.epochs;
    for seed in 0..6 {
        let (data, ctx, teacher) = trained_gcn(seed);
        let teacher_logits = Rc::new(teacher.predictor(&ctx).logits());
        let all_nodes: Rc<Vec<usize>> = Rc::new((0..data.n()).collect());
        let final_distance = |weight: f32| {
            let mut last = f32::NAN;
            let mut hook = |tape: &mut rdd_tensor::Tape, logits: rdd_tensor::Var, _e: usize| {
                let l = tape.mse_rows(logits, Rc::clone(&teacher_logits), Rc::clone(&all_nodes));
                last = tape.scalar(l);
                vec![(l, weight)]
            };
            let mut rng = seeded_rng(seed + 100);
            let mut student = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
            let report = train(&mut student, &ctx, &data, &cfg, &mut rng, Some(&mut hook));
            assert_eq!(report.epochs_run, cfg.epochs, "seed {seed}: stopped early");
            last
        };
        let kd = final_distance(5.0);
        let control = final_distance(0.0);
        assert!(
            kd < control,
            "seed {seed}: KD student logit MSE {kd} should be below the control's {control}"
        );
    }
}

#[test]
fn alternative_base_models_compose_with_rdd() {
    // GAT plugs into the self-boosting loop via the model factory (the
    // §5.3 extension path).
    use rdd_core::{RddConfig, RddTrainer};
    use rdd_models::GatConfig;

    let data = SynthConfig::tiny().generate();
    let mut cfg = RddConfig::fast();
    cfg.num_base_models = 2;
    cfg.train.epochs = 40;
    cfg.train.min_epochs = 10;

    let gat_cfg = GatConfig {
        heads: 2,
        hidden_per_head: 8,
        dropout: 0.3,
        input_dropout: 0.3,
        leaky_slope: 0.2,
    };
    let gat_out = RddTrainer::new(cfg)
        .with_base_model(move |ctx, rng| Box::new(rdd_models::Gat::new(ctx, gat_cfg.clone(), rng)))
        .run(&data);
    assert!(
        gat_out.ensemble_test_acc > 0.5,
        "RDD over GAT: {}",
        gat_out.ensemble_test_acc
    );
}

#[test]
fn checkpoint_roundtrip_preserves_rdd_base_model_quality() {
    use rdd_models::{load_into, save_checkpoint};

    let (data, ctx, model) = trained_gcn(42);
    let acc_before = data.test_accuracy(&model.predictor(&ctx).predict());
    let path = std::env::temp_dir().join(format!("rdd_integration_ckpt_{}", std::process::id()));
    save_checkpoint(&model, &path).expect("save");
    let mut fresh = {
        let mut rng = seeded_rng(777);
        Gcn::new(&ctx, GcnConfig::citation(), &mut rng)
    };
    load_into(&mut fresh, &path).expect("load");
    let acc_after = data.test_accuracy(&fresh.predictor(&ctx).predict());
    assert!(
        (acc_before - acc_after).abs() < 1e-6,
        "accuracy changed across checkpoint"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_agree_with_dataset_accuracy() {
    use rdd_models::ConfusionMatrix;

    let (data, ctx, model) = trained_gcn(43);
    let preds = model.predictor(&ctx).predict();
    let acc = data.test_accuracy(&preds);
    let cm = ConfusionMatrix::over(&data.labels, &preds, &data.test_idx, data.num_classes);
    assert!(
        (cm.accuracy() - acc).abs() < 1e-6,
        "confusion-matrix accuracy mismatch"
    );
    assert!(cm.macro_f1() > 0.0 && cm.macro_f1() <= 1.0);
}

#[test]
fn reliable_set_is_better_calibrated_population() {
    // The reliability_diagnostics claim as a hard invariant on a trained
    // pair: teacher accuracy restricted to V_r exceeds its overall
    // accuracy.
    use rdd_graph::accuracy_over;

    let (data, ctx, teacher) = trained_gcn(44);
    let (_, _, student) = trained_gcn(45);
    let teacher_proba = teacher.predictor(&ctx).proba();
    let student_proba = student.predictor(&ctx).proba();
    let mut is_labeled = vec![false; data.n()];
    for &i in &data.train_idx {
        is_labeled[i] = true;
    }
    let sets = compute_reliability(
        &teacher_proba,
        &student_proba,
        &data.labels,
        &is_labeled,
        0.4,
        &data.graph,
    );
    let teacher_pred = teacher_proba.argmax_rows();
    let all: Vec<usize> = (0..data.n()).collect();
    let reliable: Vec<usize> = (0..data.n()).filter(|&i| sets.reliable[i]).collect();
    let overall = accuracy_over(&data.labels, &teacher_pred, &all);
    let on_reliable = accuracy_over(&data.labels, &teacher_pred, &reliable);
    assert!(
        on_reliable > overall,
        "reliability failed to concentrate correct teacher outputs: {on_reliable} !> {overall}"
    );
}
