//! Crash-safe run directories for the RDD cascade.
//!
//! A *run directory* makes a multi-member RDD run (Algorithm 3) resumable:
//! after every trained member the run commits a checkpoint — the member's
//! parameters, its frozen eval outputs, the ensemble's running weighted
//! sum, and a JSON manifest binding the dataset, the full [`RddConfig`]
//! and the RNG scheme. Every write is atomic (temp file + fsync + rename,
//! see [`rdd_models::checkpoint::atomic_write`]) and the manifest rewrite
//! is the commit point, so a run killed at *any* instant leaves a directory
//! describing a consistent prefix of the cascade.
//!
//! Layout (`v1`):
//!
//! ```text
//! <run-dir>/
//!   manifest.json        # status, source, dataset binding, config, rng,
//!                        # per-member records, ensemble alpha_total
//!   member-000.params    # member 0 parameters   (rdd-checkpoint v1)
//!   member-000.out       # member 0 proba        (rdd-checkpoint v1)
//!   ...
//!   ensemble.sums        # running α-weighted proba sum
//! ```
//!
//! Because member `t` reseeds its RNG from `config.seed + t` at the member
//! boundary, resuming needs no mid-stream RNG serialization: replaying the
//! kept members' stored outputs into a fresh [`Ensemble`] (in order — the
//! running sum is order-sensitive) reconstructs the teacher bitwise, and
//! the stored sum doubles as an integrity checksum. `rdd resume <run-dir>`
//! therefore produces final ensemble outputs bitwise-identical to an
//! uninterrupted run.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rdd_graph::Dataset;
use rdd_models::{
    checkpoint, CheckpointError, DivergencePolicy, GcnConfig, Model, TrainConfig, TrainReport,
};
use rdd_obs::Json;
use rdd_tensor::Matrix;

use crate::ensemble::Ensemble;
use crate::rdd::{Ablation, BaseModelRecord, RddConfig};

/// Manifest file name inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// Ensemble running-sum file name inside a run directory.
pub const SUMS_FILE: &str = "ensemble.sums";

/// Errors from the crash-safe run subsystem.
#[derive(Debug)]
pub enum RunError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A checkpoint file failed to write or parse.
    Checkpoint(CheckpointError),
    /// The manifest or a member file is malformed or internally
    /// inconsistent (e.g. stored ensemble sum doesn't match the members).
    Corrupt(String),
    /// The run directory does not bind to the given dataset/configuration.
    Mismatch(String),
    /// A member's training panicked (caught at the member boundary; the
    /// run directory still holds every member committed before it).
    MemberPanic {
        /// Cascade index of the panicking member.
        member: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The operation is not supported (custom base-model factory, already
    /// complete run, existing manifest, ...).
    Unsupported(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Io(e) => write!(f, "io error: {e}"),
            RunError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            RunError::Corrupt(m) => write!(f, "corrupt run directory: {m}"),
            RunError::Mismatch(m) => write!(f, "run/dataset mismatch: {m}"),
            RunError::MemberPanic { member, message } => {
                write!(f, "member {member} training panicked: {message}")
            }
            RunError::Unsupported(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Io(e)
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

/// One member's record in the manifest: the outcome summary plus whether
/// the member is part of the ensemble (`kept = false` for members the
/// divergence guard dropped).
#[derive(Clone, Debug)]
pub struct MemberRecord {
    /// Cascade index.
    pub member: usize,
    /// Whether the member joined the ensemble.
    pub kept: bool,
    /// Ensemble weight α (meaningless when not kept).
    pub alpha: f32,
    /// Validation accuracy of the member alone.
    pub val_acc: f32,
    /// Test accuracy of the member alone.
    pub test_acc: f32,
    /// The member's training report.
    pub report: TrainReport,
}

impl MemberRecord {
    /// The [`BaseModelRecord`] view used in an [`crate::RddOutcome`].
    pub fn to_base_record(&self) -> BaseModelRecord {
        BaseModelRecord {
            alpha: self.alpha,
            val_acc: self.val_acc,
            test_acc: self.test_acc,
            dropped: !self.kept,
            report: self.report.clone(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunStatus {
    Running,
    Complete,
}

/// The live handle on a run directory: the in-memory manifest plus the
/// paths to commit it to.
#[derive(Debug)]
pub struct RunState {
    dir: PathBuf,
    source: String,
    dataset_name: String,
    dataset_n: usize,
    dataset_classes: usize,
    config: RddConfig,
    status: RunStatus,
    members: Vec<MemberRecord>,
    alpha_total: f32,
}

impl RunState {
    /// Start a fresh run directory: create it and commit an empty manifest.
    /// Refuses to reuse a directory that already holds a manifest (resume
    /// that instead, or pick a new directory).
    pub fn create(
        dir: &Path,
        source: &str,
        config: &RddConfig,
        dataset: &Dataset,
    ) -> Result<Self, RunError> {
        fs::create_dir_all(dir)?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(RunError::Unsupported(format!(
                "run directory {} already has a manifest; resume it or use a fresh directory",
                dir.display()
            )));
        }
        let state = Self {
            dir: dir.to_path_buf(),
            source: source.to_string(),
            dataset_name: dataset.name.clone(),
            dataset_n: dataset.n(),
            dataset_classes: dataset.num_classes,
            config: config.clone(),
            status: RunStatus::Running,
            members: Vec::new(),
            alpha_total: 0.0,
        };
        state.write_manifest()?;
        Ok(state)
    }

    /// Reload a run directory's manifest.
    pub fn load(dir: &Path) -> Result<Self, RunError> {
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path)?;
        let root = rdd_obs::parse(&text)
            .map_err(|e| RunError::Corrupt(format!("{}: {e}", path.display())))?;
        let corrupt = |m: String| RunError::Corrupt(format!("{}: {m}", path.display()));
        if str_of(&root, "format").map_err(&corrupt)? != "rdd-run-manifest" {
            return Err(corrupt("not an rdd-run-manifest".into()));
        }
        if num_of(&root, "version").map_err(&corrupt)? != 1.0 {
            return Err(corrupt("unsupported manifest version".into()));
        }
        let status = match str_of(&root, "status").map_err(&corrupt)?.as_str() {
            "running" => RunStatus::Running,
            "complete" => RunStatus::Complete,
            other => return Err(corrupt(format!("unknown status {other:?}"))),
        };
        let dataset = root
            .get("dataset")
            .ok_or_else(|| corrupt("missing \"dataset\"".into()))?;
        let config = root
            .get("config")
            .ok_or_else(|| corrupt("missing \"config\"".into()))?;
        let config = config_from_json(config).map_err(&corrupt)?;
        let members_json = match root.get("members") {
            Some(Json::Arr(items)) => items,
            _ => return Err(corrupt("missing \"members\" array".into())),
        };
        let mut members = Vec::with_capacity(members_json.len());
        for (i, m) in members_json.iter().enumerate() {
            let rec = member_from_json(m).map_err(|e| corrupt(format!("member {i}: {e}")))?;
            if rec.member != i {
                return Err(corrupt(format!(
                    "member records out of order: slot {i} holds member {}",
                    rec.member
                )));
            }
            members.push(rec);
        }
        let alpha_total = num_of(&root, "alpha_total").map_err(&corrupt)? as f32;
        Ok(Self {
            dir: dir.to_path_buf(),
            source: str_of(&root, "source").map_err(&corrupt)?,
            dataset_name: str_of(dataset, "name").map_err(&corrupt)?,
            dataset_n: usize_of(dataset, "n").map_err(&corrupt)?,
            dataset_classes: usize_of(dataset, "num_classes").map_err(&corrupt)?,
            config,
            status,
            members,
            alpha_total,
        })
    }

    /// The dataset source string recorded at creation (preset name or TSV
    /// directory), for `rdd resume` to reload the same data.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The run's full configuration, as recorded in the manifest.
    pub fn config(&self) -> &RddConfig {
        &self.config
    }

    /// The run directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index of the next member to train (= committed members so far).
    pub fn next_member(&self) -> usize {
        self.members.len()
    }

    /// Whether the run has committed its final member.
    pub fn is_complete(&self) -> bool {
        self.status == RunStatus::Complete
    }

    /// Name of the dataset the run was trained on.
    pub fn dataset_name(&self) -> &str {
        &self.dataset_name
    }

    /// `(n, num_classes)` of the dataset the run was trained on.
    pub fn dataset_shape(&self) -> (usize, usize) {
        (self.dataset_n, self.dataset_classes)
    }

    /// The committed member records, in training order.
    pub fn members(&self) -> &[MemberRecord] {
        &self.members
    }

    /// The manifest's running `Σ α_t` over kept members.
    pub fn alpha_total(&self) -> f32 {
        self.alpha_total
    }

    /// Rebuild the frozen teacher [`Ensemble`] from the run directory: one
    /// push per kept member, in commit order, bitwise-verified against the
    /// stored `ensemble.sums` so a corrupted or hand-edited directory fails
    /// loudly instead of resuming or exporting silently different numerics.
    /// This is the export path — zero re-training.
    pub fn load_ensemble(&self) -> Result<Ensemble, RunError> {
        let mut ensemble = Ensemble::new();
        for rec in self.members.iter().filter(|rec| rec.kept) {
            if !(rec.alpha.is_finite() && rec.alpha > 0.0) {
                return Err(RunError::Corrupt(format!(
                    "member {} is kept but has non-positive alpha {}",
                    rec.member, rec.alpha
                )));
            }
            let path = self.member_out_path(rec.member);
            let (_, mats) = checkpoint::load_matrices(&path)?;
            let proba = one_matrix(&path, mats)?;
            if proba.shape() != (self.dataset_n, self.dataset_classes) {
                return Err(RunError::Corrupt(format!(
                    "{}: matrix shape {:?} does not match dataset ({} x {})",
                    path.display(),
                    proba.shape(),
                    self.dataset_n,
                    self.dataset_classes
                )));
            }
            ensemble.push(proba, rec.alpha);
        }
        if !ensemble.is_empty() {
            self.verify_sums(&ensemble)?;
        }
        Ok(ensemble)
    }

    /// Verify the manifest's dataset binding against a loaded dataset.
    pub fn check_dataset(&self, dataset: &Dataset) -> Result<(), RunError> {
        if self.dataset_name != dataset.name
            || self.dataset_n != dataset.n()
            || self.dataset_classes != dataset.num_classes
        {
            return Err(RunError::Mismatch(format!(
                "manifest binds dataset {:?} (n={}, classes={}), got {:?} (n={}, classes={})",
                self.dataset_name,
                self.dataset_n,
                self.dataset_classes,
                dataset.name,
                dataset.n(),
                dataset.num_classes
            )));
        }
        Ok(())
    }

    fn member_params_path(&self, t: usize) -> PathBuf {
        self.dir.join(format!("member-{t:03}.params"))
    }

    fn member_out_path(&self, t: usize) -> PathBuf {
        self.dir.join(format!("member-{t:03}.out"))
    }

    /// Commit member `t`: its parameters, (for kept members) its frozen
    /// outputs, the updated ensemble sum, then — the commit point — the
    /// manifest. `ensemble` must already include the member when kept.
    pub fn record_member(
        &mut self,
        student: &dyn Model,
        proba: Option<&Matrix>,
        record: MemberRecord,
        ensemble: &Ensemble,
    ) -> Result<(), RunError> {
        let t = record.member;
        debug_assert_eq!(t, self.members.len(), "members commit in order");
        checkpoint::save(student, &self.member_params_path(t))?;
        if let Some(proba) = proba {
            checkpoint::save_matrices(&self.member_out_path(t), "member-output", &[proba])?;
        }
        if let Some(ps) = ensemble.proba_sum() {
            checkpoint::save_matrices(&self.dir.join(SUMS_FILE), "ensemble-sums", &[ps])?;
        }
        let kept = record.kept;
        self.alpha_total = ensemble.alpha_total();
        self.members.push(record);
        self.write_manifest()?;
        rdd_obs::emit_checkpoint(t, kept, &self.dir.to_string_lossy());
        Ok(())
    }

    /// Flip the manifest to `complete` (the run's last commit).
    pub fn mark_complete(&mut self) -> Result<(), RunError> {
        self.status = RunStatus::Complete;
        self.write_manifest()
    }

    /// Bitwise-compare a rebuilt ensemble's running sum against the stored
    /// `ensemble.sums` checkpoint.
    fn verify_sums(&self, rebuilt: &Ensemble) -> Result<(), RunError> {
        let path = self.dir.join(SUMS_FILE);
        let (_, mats) = checkpoint::load_matrices(&path)?;
        let stored = one_matrix(&path, mats)?;
        if self.alpha_total.to_bits() != rebuilt.alpha_total().to_bits() {
            return Err(RunError::Corrupt(format!(
                "manifest alpha_total {} does not match replayed members' {}",
                self.alpha_total,
                rebuilt.alpha_total()
            )));
        }
        let live = rebuilt.proba_sum().expect("non-empty");
        let same = stored.shape() == live.shape()
            && stored
                .as_slice()
                .iter()
                .zip(live.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(RunError::Corrupt(format!(
                "{}: stored proba_sum is not bitwise-identical to the replayed members'",
                path.display()
            )));
        }
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), RunError> {
        let json = self.to_json();
        let mut text = String::new();
        json.write(&mut text);
        text.push('\n');
        checkpoint::atomic_write(&self.dir.join(MANIFEST_FILE), &text)?;
        Ok(())
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("format".into(), Json::from("rdd-run-manifest")),
            ("version".into(), Json::from(1.0f64)),
            (
                "status".into(),
                Json::from(match self.status {
                    RunStatus::Running => "running",
                    RunStatus::Complete => "complete",
                }),
            ),
            ("source".into(), Json::from(self.source.as_str())),
            (
                "dataset".into(),
                Json::Obj(vec![
                    ("name".into(), Json::from(self.dataset_name.as_str())),
                    ("n".into(), Json::from(self.dataset_n)),
                    ("num_classes".into(), Json::from(self.dataset_classes)),
                ]),
            ),
            (
                "rng".into(),
                Json::Obj(vec![
                    ("scheme".into(), Json::from("reseed-per-member")),
                    // u64 seeds don't fit JSON's f64 numbers exactly; store
                    // the decimal string.
                    ("seed".into(), Json::from(self.config.seed.to_string())),
                    ("next_member".into(), Json::from(self.members.len())),
                ]),
            ),
            ("config".into(), config_to_json(&self.config)),
            ("alpha_total".into(), Json::from(self.alpha_total)),
            (
                "members".into(),
                Json::Arr(self.members.iter().map(member_to_json).collect()),
            ),
        ])
    }
}

/// The dataset source string a run directory's manifest was created with —
/// what `rdd resume` feeds back into the dataset loader.
pub fn manifest_source(dir: &Path) -> Result<String, RunError> {
    Ok(RunState::load(dir)?.source().to_string())
}

/// The one matrix a member-output or ensemble-sums file holds; any other
/// count is corrupt.
fn one_matrix(path: &Path, mats: Vec<Matrix>) -> Result<Matrix, RunError> {
    let [m] = <[Matrix; 1]>::try_from(mats).map_err(|mats| {
        RunError::Corrupt(format!(
            "{}: expected 1 matrix, found {}",
            path.display(),
            mats.len()
        ))
    })?;
    Ok(m)
}

// --- JSON (de)serialization of the config and member records ---
//
// f32 values widen exactly into JSON's f64 and the encoder prints shortest-
// roundtrip decimals, so every float survives a manifest round trip
// bitwise. NaN encodes as `null` (only `final_train_loss` can be NaN).

fn config_to_json(cfg: &RddConfig) -> Json {
    let a = cfg.ablation;
    let t = &cfg.train;
    Json::Obj(vec![
        ("num_base_models".into(), Json::from(cfg.num_base_models)),
        ("p".into(), Json::from(cfg.p)),
        ("beta".into(), Json::from(cfg.beta)),
        ("gamma_initial".into(), Json::from(cfg.gamma_initial)),
        ("gamma_epochs".into(), Json::from(cfg.gamma_epochs)),
        ("seed".into(), Json::from(cfg.seed.to_string())),
        // The L2 target is always the teacher's probabilities; the key
        // stays so manifests keep their bytes.
        ("distill".into(), Json::from("probs")),
        (
            "ablation".into(),
            Json::Obj(vec![
                ("use_l2".into(), Json::Bool(a.use_l2)),
                ("use_lreg".into(), Json::Bool(a.use_lreg)),
                (
                    "use_node_reliability".into(),
                    Json::Bool(a.use_node_reliability),
                ),
                (
                    "use_edge_reliability".into(),
                    Json::Bool(a.use_edge_reliability),
                ),
                (
                    "use_entropy_weights".into(),
                    Json::Bool(a.use_entropy_weights),
                ),
            ]),
        ),
        (
            "gcn".into(),
            Json::Obj(vec![
                ("hidden".into(), Json::from(cfg.gcn.hidden.clone())),
                ("dropout".into(), Json::from(cfg.gcn.dropout)),
                ("input_dropout".into(), Json::from(cfg.gcn.input_dropout)),
            ]),
        ),
        (
            "train".into(),
            Json::Obj(vec![
                ("lr".into(), Json::from(t.lr)),
                ("weight_decay".into(), Json::from(t.weight_decay)),
                ("epochs".into(), Json::from(t.epochs)),
                ("patience".into(), Json::from(t.patience)),
                ("min_epochs".into(), Json::from(t.min_epochs)),
                ("log_every".into(), Json::from(t.log_every)),
                // The learning rate is constant; the field stays so
                // manifests keep their bytes and older run dirs resume.
                (
                    "lr_schedule".into(),
                    Json::Obj(vec![("kind".into(), Json::from("constant"))]),
                ),
                (
                    "divergence".into(),
                    Json::Obj(vec![
                        ("max_retries".into(), Json::from(t.divergence.max_retries)),
                        ("lr_backoff".into(), Json::from(t.divergence.lr_backoff)),
                    ]),
                ),
            ]),
        ),
    ])
}

fn config_from_json(j: &Json) -> Result<RddConfig, String> {
    let ablation = j.get("ablation").ok_or("missing \"ablation\"")?;
    let gcn = j.get("gcn").ok_or("missing \"gcn\"")?;
    let train = j.get("train").ok_or("missing \"train\"")?;
    let schedule = train.get("lr_schedule").ok_or("missing \"lr_schedule\"")?;
    let kind = str_of(schedule, "kind")?;
    if kind != "constant" {
        return Err(format!("unknown lr_schedule kind {kind:?}"));
    }
    let distill = str_of(j, "distill")?;
    if distill != "probs" {
        return Err(format!("unknown distill target {distill:?}"));
    }
    let divergence = train.get("divergence").ok_or("missing \"divergence\"")?;
    let seed_str = str_of(j, "seed")?;
    let seed: u64 = seed_str
        .parse()
        .map_err(|_| format!("bad seed {seed_str:?}"))?;
    let hidden = match gcn.get("hidden") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_f64()
                    .filter(|x| x.fract() == 0.0 && *x >= 0.0)
                    .map(|x| x as usize)
                    .ok_or_else(|| "bad gcn hidden width".to_string())
            })
            .collect::<Result<Vec<usize>, String>>()?,
        _ => return Err("missing gcn \"hidden\" array".into()),
    };
    Ok(RddConfig {
        num_base_models: usize_of(j, "num_base_models")?,
        p: f32_of(j, "p")?,
        beta: f32_of(j, "beta")?,
        gamma_initial: f32_of(j, "gamma_initial")?,
        gamma_epochs: usize_of(j, "gamma_epochs")?,
        gcn: GcnConfig {
            hidden,
            dropout: f32_of(gcn, "dropout")?,
            input_dropout: f32_of(gcn, "input_dropout")?,
        },
        train: TrainConfig {
            lr: f32_of(train, "lr")?,
            weight_decay: f32_of(train, "weight_decay")?,
            epochs: usize_of(train, "epochs")?,
            patience: usize_of(train, "patience")?,
            min_epochs: usize_of(train, "min_epochs")?,
            log_every: usize_of(train, "log_every")?,
            divergence: DivergencePolicy {
                max_retries: usize_of(divergence, "max_retries")?,
                lr_backoff: f32_of(divergence, "lr_backoff")?,
            },
        },
        ablation: Ablation {
            use_l2: bool_of(ablation, "use_l2")?,
            use_lreg: bool_of(ablation, "use_lreg")?,
            use_node_reliability: bool_of(ablation, "use_node_reliability")?,
            use_edge_reliability: bool_of(ablation, "use_edge_reliability")?,
            use_entropy_weights: bool_of(ablation, "use_entropy_weights")?,
        },
        seed,
    })
}

fn member_to_json(rec: &MemberRecord) -> Json {
    let r = &rec.report;
    Json::Obj(vec![
        ("member".into(), Json::from(rec.member)),
        ("kept".into(), Json::Bool(rec.kept)),
        ("alpha".into(), Json::from(rec.alpha)),
        ("val_acc".into(), Json::from(rec.val_acc)),
        ("test_acc".into(), Json::from(rec.test_acc)),
        ("best_val_acc".into(), Json::from(r.best_val_acc)),
        ("best_epoch".into(), Json::from(r.best_epoch)),
        ("epochs_run".into(), Json::from(r.epochs_run)),
        // NaN (a run that never completed an epoch) encodes as null.
        ("final_train_loss".into(), Json::from(r.final_train_loss)),
        ("rollbacks".into(), Json::from(r.rollbacks)),
        ("diverged".into(), Json::Bool(r.diverged)),
        ("wall_time_s".into(), Json::from(r.wall_time_s)),
    ])
}

fn member_from_json(j: &Json) -> Result<MemberRecord, String> {
    // Nullable floats: `final_train_loss` null ⇒ NaN (no finished epoch),
    // `best_val_acc` null ⇒ -inf (no validated epoch).
    let final_train_loss = match j.get("final_train_loss") {
        Some(Json::Null) => f32::NAN,
        _ => f32_of(j, "final_train_loss")?,
    };
    let best_val_acc = match j.get("best_val_acc") {
        Some(Json::Null) => f32::NEG_INFINITY,
        _ => f32_of(j, "best_val_acc")?,
    };
    Ok(MemberRecord {
        member: usize_of(j, "member")?,
        kept: bool_of(j, "kept")?,
        alpha: f32_of(j, "alpha")?,
        val_acc: f32_of(j, "val_acc")?,
        test_acc: f32_of(j, "test_acc")?,
        report: TrainReport {
            best_val_acc,
            best_epoch: usize_of(j, "best_epoch")?,
            epochs_run: usize_of(j, "epochs_run")?,
            final_train_loss,
            wall_time_s: num_of(j, "wall_time_s")?,
            rollbacks: usize_of(j, "rollbacks")?,
            diverged: bool_of(j, "diverged")?,
        },
    })
}

// --- small typed field accessors over Json ---

fn str_of(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn num_of(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn f32_of(j: &Json, key: &str) -> Result<f32, String> {
    num_of(j, key).map(|v| v as f32)
}

fn usize_of(j: &Json, key: &str) -> Result<usize, String> {
    let v = num_of(j, key)?;
    if v.fract() != 0.0 || v < 0.0 {
        return Err(format!("field {key:?} must be a non-negative integer"));
    }
    Ok(v as usize)
}

fn bool_of(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean field {key:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdd_graph::SynthConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rdd_run_{tag}_{}", std::process::id()))
    }

    #[test]
    fn config_survives_a_manifest_roundtrip() {
        let mut cfg = RddConfig::fast();
        cfg.seed = u64::MAX - 12345; // exercises the string encoding
        cfg.train.divergence = DivergencePolicy {
            max_retries: 5,
            lr_backoff: 0.25,
        };
        cfg.ablation = Ablation::without_edge_reliability();
        cfg.p = 0.3333333;
        let json = config_to_json(&cfg);
        let mut text = String::new();
        json.write(&mut text);
        let parsed = rdd_obs::parse(&text).expect("manifest json parses");
        let back = config_from_json(&parsed).expect("config decodes");
        assert_eq!(back, cfg);
        assert_eq!(back.p.to_bits(), cfg.p.to_bits());
        assert_eq!(back.seed, cfg.seed);
    }

    #[test]
    fn manifest_with_a_learning_rate_schedule_is_refused() {
        let json = config_to_json(&RddConfig::fast());
        let mut text = String::new();
        json.write(&mut text);
        let constant = r#""lr_schedule":{"kind":"constant"}"#;
        assert!(text.contains(constant), "{text}");
        let cosine = text.replace(
            constant,
            r#""lr_schedule":{"kind":"cosine_restarts","period":7}"#,
        );
        let parsed = rdd_obs::parse(&cosine).expect("manifest json parses");
        let err = config_from_json(&parsed).expect_err("only a constant rate is accepted");
        assert_eq!(err, r#"unknown lr_schedule kind "cosine_restarts""#);
    }

    #[test]
    fn manifest_with_another_distillation_target_is_refused() {
        let json = config_to_json(&RddConfig::fast());
        let mut text = String::new();
        json.write(&mut text);
        let probs = r#""distill":"probs""#;
        assert!(text.contains(probs), "{text}");
        for target in ["logits", "soft_ce"] {
            let other = text.replace(probs, &format!(r#""distill":"{target}""#));
            let parsed = rdd_obs::parse(&other).expect("manifest json parses");
            let err = config_from_json(&parsed).expect_err("only probs is accepted");
            assert_eq!(err, format!("unknown distill target {target:?}"));
        }
    }

    #[test]
    fn member_record_roundtrips_including_nan_loss() {
        let rec = MemberRecord {
            member: 2,
            kept: false,
            alpha: 3.5,
            val_acc: 0.5,
            test_acc: 0.25,
            report: TrainReport {
                best_val_acc: 0.75,
                best_epoch: 4,
                epochs_run: 9,
                final_train_loss: f32::NAN,
                wall_time_s: 1.5,
                rollbacks: 3,
                diverged: true,
            },
        };
        let mut text = String::new();
        member_to_json(&rec).write(&mut text);
        let back = member_from_json(&rdd_obs::parse(&text).unwrap()).unwrap();
        assert_eq!(back.member, 2);
        assert!(!back.kept);
        assert!(back.report.diverged);
        assert_eq!(back.report.rollbacks, 3);
        assert!(back.report.final_train_loss.is_nan());
        assert_eq!(back.alpha.to_bits(), rec.alpha.to_bits());
    }

    #[test]
    fn create_load_and_dataset_binding() {
        let data = SynthConfig::tiny().generate();
        let dir = tmp_dir("create_load");
        let _ = fs::remove_dir_all(&dir);
        let cfg = RddConfig::fast();
        let state = RunState::create(&dir, "tiny", &cfg, &data).expect("create");
        assert_eq!(state.next_member(), 0);
        assert!(!state.is_complete());

        // A second create on the same directory must refuse.
        let err = RunState::create(&dir, "tiny", &cfg, &data).unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)), "got {err}");

        let loaded = RunState::load(&dir).expect("load");
        assert_eq!(loaded.source(), "tiny");
        assert_eq!(loaded.config(), &cfg);
        loaded.check_dataset(&data).expect("binding holds");

        // A dataset with a different shape must be rejected.
        let mut other = data.clone();
        other.num_classes += 1;
        assert!(matches!(
            loaded.check_dataset(&other),
            Err(RunError::Mismatch(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_reported_not_panicked() {
        let dir = tmp_dir("corrupt_manifest");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_FILE), "{\"format\":\"something-else\"}").unwrap();
        let err = RunState::load(&dir).unwrap_err();
        assert!(matches!(err, RunError::Corrupt(_)), "got {err}");
        fs::write(dir.join(MANIFEST_FILE), "not json at all").unwrap();
        let err = RunState::load(&dir).unwrap_err();
        assert!(matches!(err, RunError::Corrupt(_)), "got {err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
