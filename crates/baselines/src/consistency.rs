//! Consistency-regularization / snapshot ensemble baselines discussed in
//! the paper's related work (§1.1, §2.3):
//!
//! * **Snapshot Ensemble** (Huang et al. 2017) — one GCN trained with SGDR
//!   cosine warm restarts; the model is snapshotted at the end of every
//!   restart cycle and the snapshots soft-vote.
//! * **Mean Teacher** (Tarvainen & Valpola 2017) — the teacher is an
//!   exponential moving average of the student's weights; the student adds
//!   a consistency loss toward the teacher's predictions on all nodes.

use std::rc::Rc;
use std::time::Instant;

use rdd_graph::Dataset;
use rdd_models::{Gcn, GcnConfig, GraphContext, LrSchedule, Model, PredictorExt, TrainConfig};
use rdd_tensor::{seeded_rng, Adam, Matrix, Tape};

use crate::ensembles::EnsembleOutcome;

/// Snapshot Ensemble configuration.
#[derive(Clone, Debug)]
pub struct SnapshotConfig {
    /// Epochs per cosine-restart cycle.
    pub cycle: usize,
    /// Number of cycles (= snapshots = base models).
    pub cycles: usize,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        Self {
            cycle: 100,
            cycles: 5,
        }
    }
}

/// Train one GCN under cosine warm restarts, snapshotting at every cycle
/// end, and soft-vote the snapshots.
pub fn snapshot_ensemble(
    data: &Dataset,
    gcn: &GcnConfig,
    train_cfg: &TrainConfig,
    cfg: &SnapshotConfig,
    seed: u64,
) -> EnsembleOutcome {
    assert!(cfg.cycle >= 1 && cfg.cycles >= 1);
    let start = Instant::now();
    let ctx = GraphContext::new(data);
    let mut rng = seeded_rng(seed);
    let mut model = Gcn::new(&ctx, gcn.clone(), &mut rng);
    let mut opt = Adam::new(train_cfg.lr, train_cfg.weight_decay, model.decay_mask());
    let schedule = LrSchedule::CosineRestarts { period: cfg.cycle };
    let labels = Rc::new(data.labels.clone());
    let train_idx = Rc::new(data.train_idx.clone());

    let mut probas: Vec<Matrix> = Vec::with_capacity(cfg.cycles);
    let mut accs = Vec::with_capacity(cfg.cycles);
    let mut times = Vec::with_capacity(cfg.cycles);
    let mut cycle_start = Instant::now();
    for epoch in 0..cfg.cycle * cfg.cycles {
        opt.set_lr(train_cfg.lr * schedule.factor(epoch));
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ctx, true, &mut rng);
        let loss = tape.ce_masked(logits, Rc::clone(&labels), Rc::clone(&train_idx));
        let grads = tape.backward(loss, model.params().len());
        opt.step(model.params_mut(), &grads);
        if schedule.is_cycle_end(epoch) {
            let proba = model.predictor(&ctx).logits().softmax_rows();
            accs.push(data.test_accuracy(&proba.argmax_rows()));
            probas.push(proba);
            times.push(cycle_start.elapsed().as_secs_f64());
            cycle_start = Instant::now();
        }
    }

    // Uniform soft-vote over the snapshots (prefix accuracies for Table 9
    // compatibility).
    let mut sum = Matrix::zeros(probas[0].rows(), probas[0].cols());
    let mut prefix_test_accs = Vec::with_capacity(probas.len());
    for p in &probas {
        sum.add_assign(p);
        prefix_test_accs.push(data.test_accuracy(&sum.argmax_rows()));
    }
    let pred = sum.argmax_rows();
    EnsembleOutcome {
        ensemble_test_acc: data.test_accuracy(&pred),
        ensemble_val_acc: data.val_accuracy(&pred),
        base_test_accs: accs,
        per_model_time_s: times,
        wall_time_s: start.elapsed().as_secs_f64(),
        prefix_test_accs,
        pred,
    }
}

/// Mean Teacher configuration.
#[derive(Clone, Debug)]
pub struct MeanTeacherConfig {
    /// EMA decay of the teacher weights (0.99 in the original paper).
    pub ema_decay: f32,
    /// Weight of the consistency loss.
    pub consistency: f32,
    /// Training epochs.
    pub epochs: usize,
}

impl Default for MeanTeacherConfig {
    fn default() -> Self {
        Self {
            ema_decay: 0.99,
            consistency: 1.0,
            epochs: 200,
        }
    }
}

/// Outcome of a Mean Teacher run.
#[derive(Clone, Debug)]
pub struct MeanTeacherOutcome {
    /// Test accuracy of the EMA teacher (the model Mean Teacher deploys).
    pub teacher_test_acc: f32,
    /// Test accuracy of the final student.
    pub student_test_acc: f32,
    /// Wall-clock seconds for the whole run.
    pub wall_time_s: f64,
}

/// Train a GCN student with an EMA teacher and a consistency loss toward
/// the teacher's (noisy-forward) predictions on every node.
pub fn mean_teacher(
    data: &Dataset,
    gcn: &GcnConfig,
    train_cfg: &TrainConfig,
    cfg: &MeanTeacherConfig,
    seed: u64,
) -> MeanTeacherOutcome {
    let start = Instant::now();
    let ctx = GraphContext::new(data);
    let mut rng = seeded_rng(seed);
    let mut student = Gcn::new(&ctx, gcn.clone(), &mut rng);
    let mut teacher = Gcn::new(&ctx, gcn.clone(), &mut rng);
    // The teacher starts as a copy of the student.
    teacher.params_mut().clone_from_slice(student.params());
    let mut opt = Adam::new(train_cfg.lr, train_cfg.weight_decay, student.decay_mask());
    let labels = Rc::new(data.labels.clone());
    let train_idx = Rc::new(data.train_idx.clone());
    let all_nodes: Rc<Vec<usize>> = Rc::new((0..data.n()).collect());

    for _ in 0..cfg.epochs {
        // Teacher prediction (eval-mode forward is the transductive analog
        // of the teacher's noisy pass).
        let teacher_logits = Rc::new(teacher.predictor(&ctx).logits());

        let mut tape = Tape::new();
        let logits = student.forward(&mut tape, &ctx, true, &mut rng);
        let ce = tape.ce_masked(logits, Rc::clone(&labels), Rc::clone(&train_idx));
        let cons = tape.mse_rows(logits, teacher_logits, Rc::clone(&all_nodes));
        let loss = tape.weighted_sum(&[(ce, 1.0), (cons, cfg.consistency)]);
        let grads = tape.backward(loss, student.params().len());
        opt.step(student.params_mut(), &grads);

        // EMA update of the teacher.
        let d = cfg.ema_decay;
        for (t, s) in teacher.params_mut().iter_mut().zip(student.params()) {
            t.scale_assign(d);
            t.add_scaled_assign(s, 1.0 - d);
        }
    }

    let teacher_pred = teacher.predictor(&ctx).logits().argmax_rows();
    let student_pred = student.predictor(&ctx).logits().argmax_rows();
    MeanTeacherOutcome {
        teacher_test_acc: data.test_accuracy(&teacher_pred),
        student_test_acc: data.test_accuracy(&student_pred),
        wall_time_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdd_graph::SynthConfig;

    fn fast_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 60,
            patience: 60,
            min_epochs: 0,
            ..TrainConfig::fast()
        }
    }

    #[test]
    fn snapshot_ensemble_collects_cycle_snapshots() {
        let data = SynthConfig::tiny().generate();
        let cfg = SnapshotConfig {
            cycle: 25,
            cycles: 3,
        };
        let out = snapshot_ensemble(&data, &GcnConfig::citation(), &fast_cfg(), &cfg, 1);
        assert_eq!(out.base_test_accs.len(), 3);
        assert_eq!(out.prefix_test_accs.len(), 3);
        assert!(
            out.ensemble_test_acc > 0.5,
            "snapshot acc {}",
            out.ensemble_test_acc
        );
    }

    #[test]
    fn lr_schedule_restarts() {
        let s = LrSchedule::CosineRestarts { period: 10 };
        assert!((s.factor(0) - 1.0).abs() < 1e-6, "cycle starts at full lr");
        assert!(s.factor(9) < 0.05, "cycle ends near zero");
        assert!((s.factor(10) - 1.0).abs() < 1e-6, "restart resets lr");
        assert!(s.is_cycle_end(9));
        assert!(!s.is_cycle_end(5));
    }

    #[test]
    fn mean_teacher_learns() {
        let data = SynthConfig::tiny().generate();
        let cfg = MeanTeacherConfig {
            ema_decay: 0.95,
            consistency: 0.5,
            epochs: 80,
        };
        let out = mean_teacher(&data, &GcnConfig::citation(), &fast_cfg(), &cfg, 2);
        assert!(
            out.teacher_test_acc > 0.55,
            "teacher acc {}",
            out.teacher_test_acc
        );
        assert!(
            out.student_test_acc > 0.55,
            "student acc {}",
            out.student_test_acc
        );
    }

    #[test]
    fn mean_teacher_teacher_tracks_student() {
        // With a fast EMA the teacher should end close to the student.
        let data = SynthConfig::tiny().generate();
        let cfg = MeanTeacherConfig {
            ema_decay: 0.5,
            consistency: 0.1,
            epochs: 60,
        };
        let out = mean_teacher(&data, &GcnConfig::citation(), &fast_cfg(), &cfg, 3);
        assert!(
            (out.teacher_test_acc - out.student_test_acc).abs() < 0.15,
            "teacher {} strayed from student {}",
            out.teacher_test_acc,
            out.student_test_acc
        );
    }
}
