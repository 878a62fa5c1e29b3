//! Post-hoc distillation of the frozen RDD ensemble into a graph-free MLP
//! student (the KRD/GLNN direction).
//!
//! The RDD cascade ends with a teacher ensemble whose outputs exist only
//! for the nodes it trained on. [`distill_mlp`] trains an [`MlpModel`] on
//! raw node features against that frozen teacher so the knowledge becomes
//! **portable**: the student answers arbitrary unseen feature vectors with
//! two or three dense matmuls and no adjacency.
//!
//! The objective reuses the paper's own reliability machinery (Algorithm 1)
//! to choose the KD samples:
//!
//! ```text
//! L = CE(student, y)               over labeled training nodes
//!   + λ · (1/|V_r|) Σ_{i ∈ V_r} KL(teacher_i ‖ student_i)
//! ```
//!
//! where `V_r` is the *final* reliability set — computed once from the
//! frozen ensemble and the run's last base model (Alg. 1's teacher/student
//! pair at the moment the cascade stopped) — and the KL reduces to soft
//! cross-entropy against the teacher distribution (the entropy of the
//! frozen teacher is constant). Unreliable nodes contribute nothing: the
//! teacher's mistakes are not distilled, exactly as in train-time RDD.
//!
//! The student is row-independent (no adjacency), and only the rows in
//! `train ∪ V_r` carry a loss term while early stopping reads `val`. Every
//! other row gets exactly zero gradient, so the student trains on that
//! support alone (1,424 of 2,708 rows on cora-sim) and is scored on
//! every row afterwards.

use std::rc::Rc;
use std::time::Instant;

use rdd_graph::{Dataset, Graph};
use rdd_models::{
    train_in, ConfigError, GraphContext, MlpConfig, MlpModel, PredictorExt, TrainConfig,
    TrainReport,
};
use rdd_tensor::{seeded_rng, Matrix, Tape, Var, Workspace};

use crate::ensemble::Ensemble;
use crate::reliability::compute_reliability;
use crate::run::{RunError, RunState};

/// Configuration of the MLP distillation pass.
#[derive(Clone, Debug, PartialEq)]
pub struct DistillConfig {
    /// Student architecture (2–3 `Linear+ReLU` layers on raw features).
    pub mlp: MlpConfig,
    /// Optimization settings (Adam + early stopping, like every model).
    pub train: TrainConfig,
    /// λ, the weight on the reliability-gated KD term.
    pub lambda_kd: f32,
    /// `p`, the reliability fraction used for the final sets (match the
    /// run's own `p` unless experimenting).
    pub p: f32,
    /// Seed for student init and dropout streams.
    pub seed: u64,
}

impl DistillConfig {
    /// Paper-shaped defaults: the standard student, citation-network
    /// optimization, λ = 1, p = 0.4.
    pub fn standard() -> Self {
        Self {
            mlp: MlpConfig::student(),
            train: TrainConfig::citation(),
            lambda_kd: 1.0,
            p: 0.4,
            seed: 1,
        }
    }

    /// A small-budget configuration for tests.
    pub fn fast() -> Self {
        Self {
            train: TrainConfig::fast(),
            ..Self::standard()
        }
    }

    /// Reject out-of-range values with a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.lambda_kd.is_finite() && self.lambda_kd >= 0.0) {
            return Err(ConfigError::invalid(
                "distill.lambda_kd",
                self.lambda_kd,
                "a finite KD weight >= 0",
            ));
        }
        if !(self.p.is_finite() && self.p > 0.0 && self.p <= 1.0) {
            return Err(ConfigError::invalid(
                "distill.p",
                self.p,
                "a reliability fraction in (0, 1]",
            ));
        }
        self.train.validate()
    }
}

/// Everything the CLI and tests read off a finished distillation.
pub struct DistillOutcome {
    /// The trained student, holding its best-validation parameters.
    pub student: MlpModel,
    /// Student validation accuracy (transductive, on the training graph).
    pub student_val_acc: f32,
    /// Student test accuracy.
    pub student_test_acc: f32,
    /// The frozen teacher ensemble's test accuracy, for the gap table.
    pub ensemble_test_acc: f32,
    /// `|V_r|`: how many nodes passed the final reliability check and
    /// carried a KD term.
    pub num_reliable: usize,
    /// How many labeled training nodes fed the CE term.
    pub num_labeled: usize,
    /// The student's training report (epochs, rollbacks, divergence flag).
    pub report: TrainReport,
    /// The teacher's member weights `α_t` in commit order (artifact
    /// provenance).
    pub teacher_alphas: Vec<f32>,
    /// The teacher's running `Σ α_t`.
    pub teacher_alpha_total: f32,
    /// Total wall-clock seconds.
    pub wall_time_s: f64,
}

impl DistillOutcome {
    /// `ensemble_test_acc − student_test_acc`: how much accuracy the
    /// graph-free student gives up (positive when it trails the teacher).
    pub fn accuracy_gap(&self) -> f32 {
        self.ensemble_test_acc - self.student_test_acc
    }
}

/// Distill `teacher` into a fresh MLP student on `dataset`.
///
/// `final_student_proba` is the run's last base model's softmax output —
/// the "student" side of the final Algorithm 1 refresh. Pass `None` when
/// it is unavailable (e.g. an ad-hoc ensemble): the teacher then plays
/// both roles, which keeps the entropy cut but makes the agreement
/// condition trivially true.
pub fn distill_mlp(
    dataset: &Dataset,
    teacher: &Ensemble,
    final_student_proba: Option<&Matrix>,
    cfg: &DistillConfig,
) -> DistillOutcome {
    assert!(!teacher.is_empty(), "cannot distill an empty ensemble");
    let start = Instant::now();
    let teacher_proba = teacher.proba();

    let mut is_labeled = vec![false; dataset.n()];
    for &i in &dataset.train_idx {
        is_labeled[i] = true;
    }

    // The final reliability sets (Alg. 1), computed ONCE from the frozen
    // teacher: `V_r` is the KD support for the whole distillation.
    let sets = compute_reliability(
        &teacher_proba,
        final_student_proba.unwrap_or(&teacher_proba),
        &dataset.labels,
        &is_labeled,
        cfg.p,
        &dataset.graph,
    );
    let reliable: Vec<usize> = (0..dataset.n()).filter(|&i| sets.reliable[i]).collect();
    let num_reliable = reliable.len();

    let support = training_support(dataset, &reliable, cfg.lambda_kd);
    let problem = SupportProblem::new(dataset, &support, &teacher_proba, &reliable);
    let (student, report) = train_student(&problem, cfg);

    let ctx = GraphContext::new(dataset);
    let student_pred = student.predictor_in(&ctx, &Workspace::new()).predict();
    let student_test_acc = dataset.test_accuracy(&student_pred);
    let student_val_acc = dataset.val_accuracy(&student_pred);
    let ensemble_test_acc = dataset.test_accuracy(&teacher_proba.argmax_rows());
    rdd_obs::emit_distill(
        student_test_acc,
        student_val_acc,
        ensemble_test_acc,
        ensemble_test_acc - student_test_acc,
        num_reliable,
        dataset.train_idx.len(),
        cfg.lambda_kd,
        report.epochs_run,
    );
    rdd_obs::flush();

    DistillOutcome {
        student,
        student_val_acc,
        student_test_acc,
        ensemble_test_acc,
        num_reliable,
        num_labeled: dataset.train_idx.len(),
        report,
        teacher_alphas: teacher.alphas(),
        teacher_alpha_total: teacher.alpha_total(),
        wall_time_s: start.elapsed().as_secs_f64(),
    }
}

/// The rows the distillation objective or its early stopping read: the
/// labeled training nodes (CE), the reliable set `V_r` (KD; only when
/// `λ > 0`) and the validation nodes. Sorted and duplicate-free.
fn training_support(dataset: &Dataset, reliable: &[usize], lambda: f32) -> Vec<usize> {
    let kd_rows: &[usize] = if lambda > 0.0 { reliable } else { &[] };
    let mut keep = vec![false; dataset.n()];
    for &i in dataset
        .train_idx
        .iter()
        .chain(&dataset.val_idx)
        .chain(kd_rows)
    {
        keep[i] = true;
    }
    (0..dataset.n()).filter(|&i| keep[i]).collect()
}

/// The distillation problem restricted to a row subset, renumbered
/// `0..rows.len()`: the student never reads the graph, so the compact
/// dataset carries an edgeless one.
struct SupportProblem {
    /// The selected rows' features and labels, with `train_idx`/`val_idx`
    /// remapped and an empty `test_idx` (test rows are scored afterwards,
    /// on the full dataset).
    data: Dataset,
    /// The teacher's rows, aligned with `data`.
    teacher: Rc<Matrix>,
    /// `V_r ∩ rows`, remapped.
    reliable: Rc<Vec<usize>>,
}

impl SupportProblem {
    /// `rows` must be duplicate-free and cover `train ∪ val`.
    fn new(dataset: &Dataset, rows: &[usize], teacher: &Matrix, reliable: &[usize]) -> Self {
        let mut pos = vec![None; dataset.n()];
        for (r, &i) in rows.iter().enumerate() {
            pos[i] = Some(r);
        }
        let inside = |idx: &[usize]| -> Vec<usize> { idx.iter().filter_map(|&i| pos[i]).collect() };
        let data = Dataset {
            name: dataset.name.clone(),
            graph: Graph::from_edges(rows.len(), &[]),
            features: dataset.features.select_rows(rows),
            labels: rows.iter().map(|&i| dataset.labels[i]).collect(),
            num_classes: dataset.num_classes,
            train_idx: inside(&dataset.train_idx),
            val_idx: inside(&dataset.val_idx),
            test_idx: Vec::new(),
        };
        debug_assert_eq!(data.train_idx.len(), dataset.train_idx.len());
        debug_assert_eq!(data.val_idx.len(), dataset.val_idx.len());
        Self {
            data,
            teacher: Rc::new(teacher.take_rows(rows)),
            reliable: Rc::new(inside(reliable)),
        }
    }
}

/// The reliability-gated KD term `λ · KL(teacher ‖ student)` over `V_r`,
/// as a [`train_in`] loss hook.
fn kd_hook(
    problem: &SupportProblem,
    lambda: f32,
) -> impl FnMut(&mut Tape, Var, usize) -> Vec<(Var, f32)> {
    let teacher = Rc::clone(&problem.teacher);
    let reliable = Rc::clone(&problem.reliable);
    move |tape: &mut Tape, logits: Var, _epoch: usize| {
        if lambda <= 0.0 || reliable.is_empty() {
            return Vec::new();
        }
        let logp = tape.log_softmax(logits);
        let kd = tape.soft_ce_masked(logp, Rc::clone(&teacher), Rc::clone(&reliable));
        vec![(kd, lambda)]
    }
}

/// Train a fresh seeded student on `problem`.
fn train_student(problem: &SupportProblem, cfg: &DistillConfig) -> (MlpModel, TrainReport) {
    let ctx = GraphContext::new(&problem.data);
    let mut rng = seeded_rng(cfg.seed);
    let mut student = MlpModel::new(&ctx, cfg.mlp.clone(), &mut rng);
    let mut hook = kd_hook(problem, cfg.lambda_kd);
    let report = train_in(
        &mut student,
        &ctx,
        &problem.data,
        &cfg.train,
        &mut rng,
        Some(&mut hook),
        &Workspace::new(),
    );
    (student, report)
}

/// [`distill_mlp`] against a completed crash-safe run directory: reload the
/// verified teacher ensemble once, take its last kept member's outputs as
/// the final Algorithm 1 student side, then distill.
pub fn distill_run(
    state: &RunState,
    dataset: &Dataset,
    cfg: &DistillConfig,
) -> Result<DistillOutcome, RunError> {
    if !state.is_complete() {
        return Err(RunError::Unsupported(format!(
            "run directory {} is not complete; finish or resume it before distilling",
            state.dir().display()
        )));
    }
    state.check_dataset(dataset)?;
    let ensemble = state.load_ensemble()?;
    let last_proba = ensemble.members().last().map(|m| &m.proba);
    Ok(distill_mlp(dataset, &ensemble, last_proba, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdd::{RddConfig, RddTrainer};
    use rdd_graph::SynthConfig;

    /// A one-member teacher for `data`: a quick RDD run's ensemble
    /// predictions, smoothed into 0.9/0.1 rows. Tests that need the real
    /// multi-member teacher of a run directory use `distill_run`.
    fn quick_teacher(data: &Dataset) -> Ensemble {
        let mut cfg = RddConfig::fast();
        cfg.num_base_models = 2;
        let trainer = RddTrainer::new(cfg);
        let out = trainer.run(data);
        assert!(out.ensemble_test_acc > 0.5);
        let n = data.n();
        let k = data.num_classes;
        let mut proba = Matrix::zeros(n, k);
        for (i, &c) in out.ensemble_pred.iter().enumerate() {
            for j in 0..k {
                proba.set(i, j, if j == c { 0.9 } else { 0.1 / (k - 1) as f32 });
            }
        }
        let mut e = Ensemble::new();
        e.push(proba, 1.0);
        e
    }

    fn sorted_union(parts: &[&[usize]]) -> Vec<usize> {
        let set: std::collections::BTreeSet<usize> =
            parts.iter().flat_map(|p| p.iter().copied()).collect();
        set.into_iter().collect()
    }

    #[test]
    fn support_is_train_reliable_and_val() {
        let data = SynthConfig::tiny().generate();
        // V_r mixes unlabeled test nodes with a few labeled training nodes.
        let mut reliable: Vec<usize> = data.test_idx.iter().copied().step_by(4).collect();
        reliable.extend(&data.train_idx[..3]);
        reliable.sort_unstable();
        let with_kd = training_support(&data, &reliable, 1.0);
        assert_eq!(
            with_kd,
            sorted_union(&[&data.train_idx, &reliable, &data.val_idx])
        );
        assert!(with_kd.len() < data.n());
        let without_kd = training_support(&data, &reliable, 0.0);
        assert_eq!(without_kd, sorted_union(&[&data.train_idx, &data.val_idx]));
    }

    #[test]
    fn support_problem_renumbers_rows_consistently() {
        let data = SynthConfig::tiny().generate();
        let teacher = quick_teacher(&data).proba();
        let reliable: Vec<usize> = (0..data.n()).step_by(5).collect();
        let rows = training_support(&data, &reliable, 1.0);
        let problem = SupportProblem::new(&data, &rows, &teacher, &reliable);
        let back = |idx: &[usize]| idx.iter().map(|&r| rows[r]).collect::<Vec<_>>();
        assert_eq!(back(&problem.data.train_idx), data.train_idx);
        assert_eq!(back(&problem.data.val_idx), data.val_idx);
        assert_eq!(back(&problem.reliable), reliable);
        assert!(problem.data.test_idx.is_empty());
        assert_eq!(problem.data.n(), rows.len());
        for (r, &i) in rows.iter().enumerate() {
            assert_eq!(problem.data.labels[r], data.labels[i]);
            assert_eq!(problem.data.features.row(r), data.features.row(i));
            assert_eq!(problem.teacher.row(r), teacher.row(i));
        }
    }

    /// `train_student`'s steps, also recording each epoch's validation
    /// accuracy as seen by the loss hook (the training-mode logits equal
    /// the eval-mode ones when dropout is off).
    fn train_recording(
        problem: &SupportProblem,
        cfg: &DistillConfig,
    ) -> (Vec<Matrix>, Vec<f32>, TrainReport) {
        let ctx = GraphContext::new(&problem.data);
        let mut rng = seeded_rng(cfg.seed);
        let mut student = MlpModel::new(&ctx, cfg.mlp.clone(), &mut rng);
        let mut kd = kd_hook(problem, cfg.lambda_kd);
        let data = &problem.data;
        let mut val_accs = Vec::new();
        let mut hook = |tape: &mut Tape, logits: Var, epoch: usize| {
            let pred = tape.value(logits).argmax_rows();
            val_accs.push(rdd_graph::accuracy_over(&data.labels, &pred, &data.val_idx));
            kd(tape, logits, epoch)
        };
        let report = train_in(
            &mut student,
            &ctx,
            data,
            &cfg.train,
            &mut rng,
            Some(&mut hook),
            &Workspace::new(),
        );
        use rdd_models::Model as _;
        (student.params().to_vec(), val_accs, report)
    }

    #[test]
    fn support_training_matches_all_rows_without_dropout() {
        let data = SynthConfig::tiny().generate();
        let teacher = quick_teacher(&data).proba();
        let reliable: Vec<usize> = (0..data.n()).step_by(3).collect();
        let mut cfg = DistillConfig::fast();
        cfg.mlp.dropout = 0.0;
        cfg.mlp.input_dropout = 0.0;
        cfg.train.epochs = 6;
        cfg.train.min_epochs = 6;
        let support = training_support(&data, &reliable, cfg.lambda_kd);
        assert!(support.len() < data.n());
        let all: Vec<usize> = (0..data.n()).collect();
        let on_support = SupportProblem::new(&data, &support, &teacher, &reliable);
        let on_all = SupportProblem::new(&data, &all, &teacher, &reliable);

        let (pa, va, ra) = train_recording(&on_support, &cfg);
        let (pb, vb, rb) = train_recording(&on_all, &cfg);
        assert_eq!(va.len(), 6);
        assert_eq!(va, vb, "per-epoch val accuracy");
        assert_eq!(ra.best_epoch, rb.best_epoch);
        assert_eq!(ra.best_val_acc, rb.best_val_acc);
        for (a, b) in pa.iter().zip(&pb) {
            assert!(
                a.max_abs_diff(b) <= 1e-5,
                "params differ by {}",
                a.max_abs_diff(b)
            );
        }
        // The recording replica is `train_student` itself.
        use rdd_models::Model as _;
        let (student, _) = train_student(&on_support, &cfg);
        for (a, b) in student.params().iter().zip(&pa) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn config_validates() {
        DistillConfig::standard().validate().unwrap();
        DistillConfig::fast().validate().unwrap();
        let mut bad = DistillConfig::fast();
        bad.lambda_kd = f32::NAN;
        assert_eq!(bad.validate().unwrap_err().field, "distill.lambda_kd");
        let mut bad = DistillConfig::fast();
        bad.p = 0.0;
        assert_eq!(bad.validate().unwrap_err().field, "distill.p");
    }

    #[test]
    fn distills_close_to_teacher_on_tiny() {
        let data = SynthConfig::tiny().generate();
        let teacher = quick_teacher(&data);
        let cfg = DistillConfig::fast();
        let out = distill_mlp(&data, &teacher, None, &cfg);
        assert!(out.num_reliable > 0, "some nodes must be reliable");
        assert!(
            out.student_test_acc > 0.5,
            "student acc {}",
            out.student_test_acc
        );
        assert!(
            out.accuracy_gap() < 0.25,
            "student trails teacher by {} ({} vs {})",
            out.accuracy_gap(),
            out.student_test_acc,
            out.ensemble_test_acc
        );
    }

    #[test]
    fn kd_term_moves_student_toward_teacher() {
        // With λ > 0 the student should agree with the teacher on more
        // nodes than a purely supervised twin (same seed, same budget).
        let data = SynthConfig::tiny().generate();
        let teacher = quick_teacher(&data);
        let teacher_pred = teacher.predict();
        let agree = |pred: &[usize]| {
            pred.iter()
                .zip(&teacher_pred)
                .filter(|(a, b)| a == b)
                .count()
        };
        let mut kd_cfg = DistillConfig::fast();
        kd_cfg.lambda_kd = 2.0;
        let with_kd = distill_mlp(&data, &teacher, None, &kd_cfg);
        let mut plain_cfg = DistillConfig::fast();
        plain_cfg.lambda_kd = 0.0;
        let without = distill_mlp(&data, &teacher, None, &plain_cfg);
        let (a, b) = (
            agree(
                &with_kd
                    .student
                    .predictor_in(&GraphContext::new(&data), &Workspace::new())
                    .predict(),
            ),
            agree(
                &without
                    .student
                    .predictor_in(&GraphContext::new(&data), &Workspace::new())
                    .predict(),
            ),
        );
        assert!(
            a >= b,
            "KD student agrees on {a} nodes, plain student on {b}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let data = SynthConfig::tiny().generate();
        let teacher = quick_teacher(&data);
        let cfg = DistillConfig::fast();
        let a = distill_mlp(&data, &teacher, None, &cfg);
        let b = distill_mlp(&data, &teacher, None, &cfg);
        use rdd_models::Model as _;
        for (x, y) in a.student.params().iter().zip(b.student.params()) {
            assert!(x
                .as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }
}
