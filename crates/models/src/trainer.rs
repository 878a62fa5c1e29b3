//! The shared training loop: Adam + cross-entropy + early stopping on
//! validation accuracy, with a hook for injecting extra loss terms (used by
//! BANs' KD loss and RDD's reliability losses).

use std::rc::Rc;
use std::time::Instant;

use rdd_graph::{accuracy_over, Dataset};
use rdd_tensor::{Adam, Matrix, Rng, Tape, Var, Workspace};

use crate::context::GraphContext;
use crate::gcn::Model;

/// Epoch-stage spans: parents for the tensor kernels underneath them, so
/// a trace attributes `train.epoch → train.forward → spmm` with self-times
/// instead of flat double-counted totals. Near-free when tracing is off.
static SPAN_EPOCH: rdd_obs::SpanCell = rdd_obs::SpanCell::new("train.epoch");
static SPAN_FORWARD: rdd_obs::SpanCell = rdd_obs::SpanCell::new("train.forward");
static SPAN_BACKWARD: rdd_obs::SpanCell = rdd_obs::SpanCell::new("train.backward");
static SPAN_VALIDATE: rdd_obs::SpanCell = rdd_obs::SpanCell::new("train.validate");
static SPAN_LOSS_HOOK: rdd_obs::SpanCell = rdd_obs::SpanCell::new("train.loss_hook");
static SPAN_OPTIMIZER: rdd_obs::SpanCell = rdd_obs::SpanCell::new("train.optimizer");

/// How the training loop reacts to a non-finite loss or gradient.
///
/// The first retry of a failing epoch is a *free replay*: parameters are
/// untouched (the optimizer never stepped on non-finite gradients) and the
/// RNG is rewound, so a transient injected fault reproduces the clean run
/// bitwise. From the second retry on, parameters roll back to the
/// best-validation snapshot, the learning rate is scaled by `lr_backoff`
/// and the optimizer moments restart. When `max_retries` total rollbacks
/// are exhausted the loop stops and the report is flagged `diverged`; the
/// model is still left holding its best snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DivergencePolicy {
    /// Total rollbacks allowed per training run before giving up.
    pub max_retries: usize,
    /// Multiplier applied to the learning rate on each non-free retry.
    pub lr_backoff: f32,
}

impl Default for DivergencePolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

/// Optimization hyperparameters (paper §5.1 defaults).
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Base learning rate.
    pub lr: f32,
    /// L2 coefficient on decay-masked parameters.
    pub weight_decay: f32,
    /// Maximum epochs.
    pub epochs: usize,
    /// Stop after this many epochs without validation improvement.
    pub patience: usize,
    /// Never early-stop before this many epochs (guards against a slow
    /// warmup being mistaken for convergence on hard datasets).
    pub min_epochs: usize,
    /// Report progress every `log_every` epochs via `eprintln!` (0 = quiet).
    pub log_every: usize,
    /// Non-finite loss/gradient recovery policy.
    pub divergence: DivergencePolicy,
}

impl TrainConfig {
    /// The raw citation-network default values — the seed every builder
    /// starts from. Private so public construction stays validated.
    pub(crate) fn preset_citation() -> Self {
        Self {
            lr: 0.01,
            weight_decay: 5e-4,
            epochs: 500,
            patience: 20,
            min_epochs: 100,
            log_every: 0,
            divergence: DivergencePolicy::default(),
        }
    }

    /// Paper defaults for the citation networks: Adam(0.01), L2 5e-4,
    /// 500 epochs, patience 20. A [`TrainConfig::builder`] shortcut.
    pub fn citation() -> Self {
        Self::builder().build().expect("citation preset is valid")
    }

    /// Paper defaults for NELL: weaker L2 (1e-5).
    pub fn nell() -> Self {
        Self::builder()
            .weight_decay(1e-5)
            .build()
            .expect("nell preset is valid")
    }

    /// A short budget for tests.
    pub fn fast() -> Self {
        Self::builder()
            .epochs(60)
            .patience(15)
            .min_epochs(20)
            .build()
            .expect("fast preset is valid")
    }
}

/// Extra loss terms appended to the supervised objective each epoch. The
/// hook sees the tape (with the training-mode logits recorded), the logits
/// variable and the epoch number, and returns `(term, weight)` pairs.
pub type LossHook<'a> = dyn FnMut(&mut Tape, Var, usize) -> Vec<(Var, f32)> + 'a;

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Best validation accuracy seen (the restored model).
    pub best_val_acc: f32,
    /// Epoch index of the best validation accuracy.
    pub best_epoch: usize,
    /// Epochs actually executed before stopping.
    pub epochs_run: usize,
    /// Training loss at the last executed epoch.
    pub final_train_loss: f32,
    /// Wall-clock training time in seconds.
    pub wall_time_s: f64,
    /// Rollbacks taken by the divergence guard (0 for a clean run).
    pub rollbacks: usize,
    /// True when the guard exhausted its retry budget; the model holds its
    /// best snapshot, but callers should treat the run as unreliable.
    pub diverged: bool,
}

/// Train `model` in place with cross-entropy on the training split and
/// early stopping on the validation split. The model ends holding the
/// parameters of its best validation epoch.
///
/// Allocates one [`Workspace`] for the run; callers orchestrating several
/// runs (e.g. the RDD cascade) should share one via [`train_in`].
pub fn train(
    model: &mut dyn Model,
    ctx: &GraphContext,
    data: &Dataset,
    cfg: &TrainConfig,
    rng: &mut Rng,
    extra_loss: Option<&mut LossHook>,
) -> TrainReport {
    train_in(model, ctx, data, cfg, rng, extra_loss, &Workspace::new())
}

/// [`train`] against a caller-owned buffer pool. Every epoch's tape —
/// training-mode forward, backward gradients and the eval-mode validation
/// forward — draws its buffers from `ws` and returns them on drop, so
/// epochs after the first run with near-zero allocator traffic.
#[allow(clippy::too_many_arguments)]
pub fn train_in(
    model: &mut dyn Model,
    ctx: &GraphContext,
    data: &Dataset,
    cfg: &TrainConfig,
    rng: &mut Rng,
    mut extra_loss: Option<&mut LossHook>,
    ws: &Workspace,
) -> TrainReport {
    let start = Instant::now();
    let labels = Rc::new(data.labels.clone());
    let train_idx = Rc::new(data.train_idx.clone());
    let n_params = model.params().len();
    let mut opt = Adam::new(cfg.lr, cfg.weight_decay, model.decay_mask());

    // Validation computes only the rows it reads: the validation rows'
    // receptive field (built once per context). A traced run's epoch
    // record also reports train and test accuracy, so there the block
    // covers those rows too.
    let traced = rdd_obs::enabled();
    let eval_rows = if traced {
        ctx.row_set(&[&data.val_idx[..], &data.train_idx, &data.test_idx].concat())
    } else {
        ctx.row_set(&data.val_idx)
    };
    let mut preds = vec![0usize; data.n()];
    let mut block_preds = Vec::new();

    let mut best_val = f32::NEG_INFINITY;
    let mut best_epoch = 0usize;
    let mut best_params: Vec<Matrix> = model.params().to_vec();
    let mut since_best = 0usize;
    let mut last_loss = f32::NAN;
    let mut epochs_run = 0usize;

    let mut rollbacks = 0usize;
    let mut attempts_this_epoch = 0usize;
    let mut lr_scale = 1.0f32;
    let mut diverged = false;

    let mut epoch = 0usize;
    while epoch < cfg.epochs {
        // Stage spans: the guard drops at the end of the loop body (also on
        // `continue`/`break`), so retries count as separate epoch spans.
        let _span_epoch = SPAN_EPOCH.enter();
        epochs_run = epoch + 1;
        opt.set_lr(cfg.lr * lr_scale);
        // Snapshot the RNG so a failed attempt can replay this exact epoch
        // (dropout masks and all) instead of silently shifting the stream.
        let rng_checkpoint = rng.clone();
        // --- training step ---
        let span_forward = SPAN_FORWARD.enter();
        let mut tape = Tape::with_workspace(ws);
        let logits = model.forward(&mut tape, ctx, true, rng);
        let ce = tape.ce_masked(logits, Rc::clone(&labels), Rc::clone(&train_idx));
        let mut terms = vec![(ce, 1.0f32)];
        if let Some(hook) = extra_loss.as_deref_mut() {
            let _span = SPAN_LOSS_HOOK.enter();
            terms.extend(hook(&mut tape, logits, epoch));
        }
        let loss = tape.weighted_sum(&terms);
        last_loss = tape.scalar(loss);
        drop(span_forward);
        match rdd_obs::fault::fire("epoch") {
            Some(rdd_obs::FaultKind::NanLoss) => last_loss = f32::NAN,
            Some(rdd_obs::FaultKind::Panic) => panic!("injected fault: panic@epoch:{epoch}"),
            _ => {}
        }
        // --- divergence guard ---
        // Only back-propagate a finite loss; never step the optimizer on
        // non-finite gradients, so the parameters stay intact for a replay.
        let grads = if last_loss.is_finite() {
            let _span = SPAN_BACKWARD.enter();
            tape.backward(loss, n_params)
        } else {
            Vec::new()
        };
        let finite = last_loss.is_finite()
            && grads
                .iter()
                .flatten()
                .all(|g| g.as_slice().iter().all(|v| v.is_finite()));
        if !finite {
            drop(tape);
            ws.give_grads(grads);
            *rng = rng_checkpoint;
            if rollbacks >= cfg.divergence.max_retries {
                diverged = true;
                rdd_obs::emit_divergence(model.name(), epoch, rollbacks);
                break;
            }
            rollbacks += 1;
            attempts_this_epoch += 1;
            let reason = if last_loss.is_finite() {
                "nonfinite_grad"
            } else {
                "nonfinite_loss"
            };
            if attempts_this_epoch > 1 {
                // A same-state replay already failed once here: the fault is
                // not transient. Roll parameters back to the best snapshot,
                // decay the learning rate and restart the Adam moments.
                lr_scale *= cfg.divergence.lr_backoff;
                for (dst, src) in model.params_mut().iter_mut().zip(&best_params) {
                    dst.as_mut_slice().copy_from_slice(src.as_slice());
                }
                opt = Adam::new(cfg.lr, cfg.weight_decay, model.decay_mask());
            }
            rdd_obs::emit_rollback(model.name(), epoch, rollbacks, lr_scale, reason);
            continue;
        }
        attempts_this_epoch = 0;
        let span_optimizer = SPAN_OPTIMIZER.enter();
        opt.step(model.params_mut(), &grads);
        ws.give_grads(grads);
        drop(span_optimizer);

        // --- validation (eval-mode forward) ---
        let span_validate = SPAN_VALIDATE.enter();
        crate::predictor::eval_pred_rows_in(
            model,
            ctx,
            &eval_rows,
            ws,
            &mut preds,
            &mut block_preds,
        );
        let val_acc = accuracy_over(&data.labels, &preds, &data.val_idx);
        drop(span_validate);
        if traced {
            // Epoch telemetry: the supervised term alone (`l1`) plus the
            // split accuracies; RDD's loss hook stages its own extra fields
            // (L2/Lreg/γ/|V_r|/...) which `emit` merges into the record.
            rdd_obs::EpochTelemetry {
                model: model.name(),
                epoch,
                loss: last_loss,
                l1: tape.scalar(ce),
                train_acc: accuracy_over(&data.labels, &preds, &data.train_idx),
                val_acc,
                test_acc: accuracy_over(&data.labels, &preds, &data.test_idx),
            }
            .emit();
        }
        if val_acc > best_val {
            best_val = val_acc;
            best_epoch = epoch;
            // Copy into the standing snapshot instead of reallocating it.
            for (dst, src) in best_params.iter_mut().zip(model.params()) {
                dst.as_mut_slice().copy_from_slice(src.as_slice());
            }
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= cfg.patience && epoch + 1 >= cfg.min_epochs {
                break;
            }
        }
        if cfg.log_every > 0 && epoch.is_multiple_of(cfg.log_every) {
            eprintln!(
                "[{}] epoch {epoch:4} loss {last_loss:.4} val {val_acc:.4} best {best_val:.4}",
                model.name()
            );
        }
        epoch += 1;
    }

    // Restore best parameters.
    model.params_mut().clone_from_slice(&best_params);

    TrainReport {
        best_val_acc: best_val,
        best_epoch,
        epochs_run,
        final_train_loss: last_loss,
        wall_time_s: start.elapsed().as_secs_f64(),
        rollbacks,
        diverged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::{Gcn, GcnConfig};
    use crate::predictor::PredictorExt;
    use rdd_graph::SynthConfig;
    use rdd_tensor::seeded_rng;

    #[test]
    fn gcn_learns_tiny_dataset() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(42);
        let mut model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let report = train(
            &mut model,
            &ctx,
            &data,
            &TrainConfig::fast(),
            &mut rng,
            None,
        );
        let preds = model.predictor(&ctx).predict();
        let acc = data.test_accuracy(&preds);
        assert!(
            acc > 0.6,
            "GCN should beat chance by a wide margin, got {acc}"
        );
        assert!(report.best_val_acc > 0.6, "val acc {}", report.best_val_acc);
        assert!(report.epochs_run <= 60);
    }

    #[test]
    fn early_stopping_triggers() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(43);
        let mut model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let cfg = TrainConfig {
            epochs: 500,
            patience: 5,
            min_epochs: 0,
            ..TrainConfig::fast()
        };
        let report = train(&mut model, &ctx, &data, &cfg, &mut rng, None);
        assert!(report.epochs_run < 500, "patience should stop early");
    }

    #[test]
    fn extra_loss_hook_runs() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(44);
        let mut model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let mut calls = 0usize;
        {
            let mut hook = |tape: &mut Tape, logits: Var, _epoch: usize| {
                calls += 1;
                // An L2 pull of the logits toward zero.
                let target = Rc::new(Matrix::zeros(
                    tape.value(logits).rows(),
                    tape.value(logits).cols(),
                ));
                let idx = Rc::new(vec![0usize]);
                let l = tape.mse_rows(logits, target, idx);
                vec![(l, 0.01)]
            };
            let cfg = TrainConfig {
                epochs: 5,
                patience: 50,
                ..TrainConfig::fast()
            };
            train(&mut model, &ctx, &data, &cfg, &mut rng, Some(&mut hook));
        }
        assert_eq!(calls, 5);
    }

    /// A hook term weighted NaN: poisons the epoch's total loss while the
    /// underlying graph stays well-formed.
    fn poison_term(tape: &mut Tape, logits: Var) -> (Var, f32) {
        let target = Rc::new(Matrix::zeros(
            tape.value(logits).rows(),
            tape.value(logits).cols(),
        ));
        let idx = Rc::new(vec![0usize]);
        (tape.mse_rows(logits, target, idx), f32::NAN)
    }

    #[test]
    fn transient_nan_recovers_bitwise_identical_to_clean_run() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let cfg = TrainConfig {
            epochs: 8,
            patience: 50,
            ..TrainConfig::fast()
        };

        let mut rng = seeded_rng(47);
        let mut clean = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let clean_report = train(&mut clean, &ctx, &data, &cfg, &mut rng, None);

        // Same seed, but epoch 3's first attempt reports a NaN loss. The
        // guard must replay it from an identical RNG/parameter state, so the
        // run ends bitwise equal to the clean one.
        let mut rng = seeded_rng(47);
        let mut faulty = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let mut poisoned = false;
        let mut hook = |tape: &mut Tape, logits: Var, epoch: usize| {
            if epoch == 3 && !poisoned {
                poisoned = true;
                return vec![poison_term(tape, logits)];
            }
            Vec::new()
        };
        let faulty_report = train(&mut faulty, &ctx, &data, &cfg, &mut rng, Some(&mut hook));

        assert!(poisoned, "the poison hook never fired");
        assert_eq!(faulty_report.rollbacks, 1);
        assert!(!faulty_report.diverged);
        assert_eq!(clean_report.rollbacks, 0);
        assert_eq!(faulty_report.epochs_run, clean_report.epochs_run);
        assert_eq!(
            faulty_report.best_val_acc.to_bits(),
            clean_report.best_val_acc.to_bits()
        );
        assert_eq!(
            faulty_report.final_train_loss.to_bits(),
            clean_report.final_train_loss.to_bits()
        );
        for (a, b) in faulty.params().iter().zip(clean.params()) {
            let same = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "parameters diverged after transient-NaN recovery");
        }
    }

    #[test]
    fn persistent_nan_exhausts_retries_and_flags_divergence() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let cfg = TrainConfig {
            epochs: 30,
            patience: 50,
            divergence: DivergencePolicy {
                max_retries: 2,
                lr_backoff: 0.5,
            },
            ..TrainConfig::fast()
        };
        let mut rng = seeded_rng(48);
        let mut model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        // Every attempt of every epoch from 2 on is poisoned: the guard's
        // replay and backoff retries all fail and the budget runs out.
        let mut hook = |tape: &mut Tape, logits: Var, epoch: usize| {
            if epoch >= 2 {
                return vec![poison_term(tape, logits)];
            }
            Vec::new()
        };
        let report = train(&mut model, &ctx, &data, &cfg, &mut rng, Some(&mut hook));
        assert!(report.diverged);
        assert_eq!(report.rollbacks, 2);
        assert_eq!(report.epochs_run, 3, "stuck on epoch index 2");
        assert!(report.best_epoch < 2);
        // The model still holds its (finite) best snapshot.
        for m in model.params() {
            assert!(m.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(45);
        let model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let p = model.predictor(&ctx).proba();
        for i in 0..p.rows() {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn model_keeps_best_params() {
        // After training, eval accuracy must equal the best epoch's, not the
        // last epoch's (guard against forgetting to restore).
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(46);
        let mut model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let report = train(
            &mut model,
            &ctx,
            &data,
            &TrainConfig::fast(),
            &mut rng,
            None,
        );
        let preds = model.predictor(&ctx).predict();
        let val_acc = accuracy_over(&data.labels, &preds, &data.val_idx);
        assert!((val_acc - report.best_val_acc).abs() < 1e-6);
    }
}
