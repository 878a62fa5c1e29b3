//! Domain-level telemetry for the RDD training loop.
//!
//! The trainer (`models::trainer::train`) owns the per-epoch quantities it
//! can see — loss, `L1`, accuracies — but the RDD-specific terms (`L2`,
//! `Lreg`, γ, reliable-set sizes, agreement) are computed inside the loss
//! hook closure that `RddTrainer::run` hands it. The hook stages an
//! [`RddEpochExtra`] for the epoch via [`stage_rdd_epoch`]; the trainer then
//! merges it into the `epoch` event with [`EpochTelemetry::emit`]. Staging is
//! thread-local: concurrent trainers on different threads cannot cross wires.
//!
//! Epoch events carry a uniform schema — RDD-only fields are `null` when the
//! run has no distillation hook (e.g. a plain GCN baseline).

use std::cell::RefCell;

use crate::hist::HistSnapshot;
use crate::json::Json;
use crate::recorder::{enabled, event};

/// RDD-specific per-epoch quantities, staged from inside the loss hook.
#[derive(Clone, Debug, Default)]
pub struct RddEpochExtra {
    /// Index of the student in the sequential ensemble (0 = no teacher yet).
    pub member: usize,
    /// Distillation loss term (0 for member 0).
    pub l2: f32,
    /// Edge-regularization loss term.
    pub lreg: f32,
    /// Cosine-annealed distillation weight for this epoch.
    pub gamma: f32,
    /// |V_r|: nodes whose teacher prediction is considered reliable.
    pub v_r: usize,
    /// |V_b|: reliable nodes the student is still unsure about (⊆ V_r).
    pub v_b: usize,
    /// |E_r|: edges with both endpoints reliable.
    pub e_r: usize,
    /// Fraction of nodes where teacher and student argmax agree.
    pub agreement: f32,
    /// Entropy percentile cut for teacher reliability (NaN ⇒ `null`).
    pub teacher_entropy_thresh: f32,
    /// Entropy percentile cut for student certainty (NaN ⇒ `null`).
    pub student_entropy_thresh: f32,
    /// Current teacher-ensemble member weights (empty for member 0).
    pub alpha: Vec<f32>,
}

thread_local! {
    static STAGED: RefCell<Option<RddEpochExtra>> = const { RefCell::new(None) };
}

/// Stage RDD quantities for the epoch event the trainer will emit next.
/// Call from the loss hook, once per epoch. No-op when tracing is off.
pub fn stage_rdd_epoch(extra: RddEpochExtra) {
    if !enabled() {
        return;
    }
    STAGED.with(|s| *s.borrow_mut() = Some(extra));
}

fn take_staged() -> Option<RddEpochExtra> {
    STAGED.with(|s| s.borrow_mut().take())
}

/// Fraction of positions where two argmax predictions agree.
pub fn agreement_rate(teacher: &[usize], student: &[usize]) -> f32 {
    assert_eq!(teacher.len(), student.len());
    if teacher.is_empty() {
        return 0.0;
    }
    let same = teacher.iter().zip(student).filter(|(a, b)| a == b).count();
    same as f32 / teacher.len() as f32
}

/// One `epoch` event, emitted by the generic trainer after validation.
#[derive(Clone, Debug)]
pub struct EpochTelemetry<'a> {
    pub model: &'a str,
    pub epoch: usize,
    /// Total optimized loss (all weighted terms).
    pub loss: f32,
    /// Supervised cross-entropy term alone.
    pub l1: f32,
    pub train_acc: f32,
    pub val_acc: f32,
    pub test_acc: f32,
}

impl EpochTelemetry<'_> {
    /// Merge any staged [`RddEpochExtra`] and emit the `epoch` event.
    /// No-op when tracing is off.
    pub fn emit(&self) {
        if !enabled() {
            return;
        }
        let extra = take_staged();
        let rdd = extra.as_ref();
        let num = |f: Option<f32>| Json::Num(f.map_or(f64::NAN, f64::from));
        let count = |f: Option<usize>| match f {
            Some(n) => Json::from(n),
            None => Json::Null,
        };
        event(
            "epoch",
            &[
                ("model", Json::from(self.model)),
                ("member", count(rdd.map(|r| r.member))),
                ("epoch", Json::from(self.epoch)),
                ("loss", Json::from(self.loss)),
                ("l1", Json::from(self.l1)),
                ("l2", num(rdd.map(|r| r.l2))),
                ("lreg", num(rdd.map(|r| r.lreg))),
                ("gamma", num(rdd.map(|r| r.gamma))),
                ("v_r", count(rdd.map(|r| r.v_r))),
                ("v_b", count(rdd.map(|r| r.v_b))),
                ("e_r", count(rdd.map(|r| r.e_r))),
                ("agreement", num(rdd.map(|r| r.agreement))),
                (
                    "teacher_entropy_thresh",
                    num(rdd.map(|r| r.teacher_entropy_thresh)),
                ),
                (
                    "student_entropy_thresh",
                    num(rdd.map(|r| r.student_entropy_thresh)),
                ),
                (
                    "alpha",
                    Json::from(rdd.map_or(Vec::new(), |r| r.alpha.clone())),
                ),
                ("train_acc", Json::from(self.train_acc)),
                ("val_acc", Json::from(self.val_acc)),
                ("test_acc", Json::from(self.test_acc)),
            ],
        );
    }
}

/// One `member` event: a student finished training and joined the ensemble.
pub fn emit_member(member: usize, alpha: f32, val_acc: f32, test_acc: f32, epochs: usize) {
    event(
        "member",
        &[
            ("member", Json::from(member)),
            ("alpha", Json::from(alpha)),
            ("val_acc", Json::from(val_acc)),
            ("test_acc", Json::from(test_acc)),
            ("epochs", Json::from(epochs)),
        ],
    );
}

/// One `rollback` event: the divergence guard saw a non-finite loss or
/// gradient and is retrying the epoch. `retry` counts attempts for the
/// run so far; `lr_scale` is the backoff factor now applied to the
/// configured learning rate (1.0 on the free same-state replay).
pub fn emit_rollback(model: &str, epoch: usize, retry: usize, lr_scale: f32, reason: &str) {
    event(
        "rollback",
        &[
            ("model", Json::from(model)),
            ("epoch", Json::from(epoch)),
            ("retry", Json::from(retry)),
            ("lr_scale", Json::from(lr_scale)),
            ("reason", Json::from(reason)),
        ],
    );
}

/// One `divergence` event: the guard's retry budget is exhausted and the
/// model is handed back in its best-snapshot state, flagged diverged.
pub fn emit_divergence(model: &str, epoch: usize, rollbacks: usize) {
    event(
        "divergence",
        &[
            ("model", Json::from(model)),
            ("epoch", Json::from(epoch)),
            ("rollbacks", Json::from(rollbacks)),
        ],
    );
}

/// One `member_dropped` event: a diverged member was excluded from the
/// ensemble (graceful degradation toward the plain-WNR path).
pub fn emit_member_dropped(member: usize, rollbacks: usize) {
    event(
        "member_dropped",
        &[
            ("member", Json::from(member)),
            ("rollbacks", Json::from(rollbacks)),
        ],
    );
}

/// One `checkpoint` event: a member's state was durably persisted to the
/// run directory and the manifest committed.
pub fn emit_checkpoint(member: usize, kept: bool, dir: &str) {
    event(
        "checkpoint",
        &[
            ("member", Json::from(member)),
            ("kept", Json::Bool(kept)),
            ("dir", Json::from(dir)),
        ],
    );
}

/// One `resume` event: a run directory was reloaded and the cascade will
/// restart at `next_member` with `loaded` members replayed from disk.
pub fn emit_resume(next_member: usize, loaded: usize, dir: &str) {
    event(
        "resume",
        &[
            ("next_member", Json::from(next_member)),
            ("loaded", Json::from(loaded)),
            ("dir", Json::from(dir)),
        ],
    );
}

/// One `run` event: final outcome of a full RDD run.
pub fn emit_run(ensemble_test_acc: f32, single_test_acc: f32, members: usize) {
    event(
        "run",
        &[
            ("ensemble_test_acc", Json::from(ensemble_test_acc)),
            ("single_test_acc", Json::from(single_test_acc)),
            ("members", Json::from(members)),
        ],
    );
}

/// One `distill` event: a graph-free MLP student finished distilling from
/// the frozen ensemble. `v_r`/`labeled` size the KD/CE supervision sets,
/// `gap` is `ensemble_test_acc - student_test_acc` (positive when the
/// student trails its teacher).
#[allow(clippy::too_many_arguments)]
pub fn emit_distill(
    student_test_acc: f32,
    student_val_acc: f32,
    ensemble_test_acc: f32,
    gap: f32,
    v_r: usize,
    labeled: usize,
    lambda_kd: f32,
    epochs: usize,
) {
    event(
        "distill",
        &[
            ("student_test_acc", Json::from(student_test_acc)),
            ("student_val_acc", Json::from(student_val_acc)),
            ("ensemble_test_acc", Json::from(ensemble_test_acc)),
            ("gap", Json::from(gap)),
            ("v_r", Json::from(v_r)),
            ("labeled", Json::from(labeled)),
            ("lambda_kd", Json::from(lambda_kd)),
            ("epochs", Json::from(epochs)),
        ],
    );
}

/// One `serve_batch` event per serve-engine flush: which worker flushed it,
/// how many requests and node rows it covered, the cache hit/miss split,
/// predictor execution time, and every request's end-to-end latency
/// (`lat_ms` array — kept per-batch rather than per-request to bound trace
/// size while preserving full latency fidelity for p50/p99 aggregation).
pub fn emit_serve_batch(
    worker: usize,
    requests: usize,
    nodes: usize,
    hits: usize,
    misses: usize,
    exec_ms: f64,
    lat_ms: &[f64],
) {
    if !enabled() {
        return;
    }
    event(
        "serve_batch",
        &[
            ("worker", Json::from(worker)),
            ("requests", Json::from(requests)),
            ("nodes", Json::from(nodes)),
            ("hits", Json::from(hits)),
            ("misses", Json::from(misses)),
            ("exec_ms", Json::from(exec_ms)),
            ("lat_ms", Json::from(lat_ms.to_vec())),
        ],
    );
}

/// One `serve_run` event: final counters of a serve session or bench.
/// `shed` counts requests rejected at admission (queue full); `expired`
/// counts requests shed after admission because their deadline passed
/// before dispatch; `failed` counts requests answered with a typed
/// `WorkerFailed` error after exhausting the panic retry budget;
/// `rejected` counts requests refused by the overload circuit breaker.
#[allow(clippy::too_many_arguments)]
pub fn emit_serve_run(
    requests: u64,
    batches: u64,
    hits: u64,
    misses: u64,
    shed: u64,
    expired: u64,
    failed: u64,
    rejected: u64,
    wall_ms: f64,
) {
    event(
        "serve_run",
        &[
            ("requests", Json::from(requests)),
            ("batches", Json::from(batches)),
            ("hits", Json::from(hits)),
            ("misses", Json::from(misses)),
            ("shed", Json::from(shed)),
            ("expired", Json::from(expired)),
            ("failed", Json::from(failed)),
            ("rejected", Json::from(rejected)),
            ("wall_ms", Json::from(wall_ms)),
        ],
    );
}

/// One `worker_panic` event: a serve-pool worker panicked mid-batch. The
/// supervisor requeued `requeued` of the batch's `requests` for retry and
/// answered the other `failed` with typed `WorkerFailed` errors (their
/// retry budgets were spent).
pub fn emit_worker_panic(worker: usize, requests: usize, requeued: usize, failed: usize) {
    event(
        "worker_panic",
        &[
            ("worker", Json::from(worker)),
            ("requests", Json::from(requests)),
            ("requeued", Json::from(requeued)),
            ("failed", Json::from(failed)),
        ],
    );
}

/// One `worker_respawn` event: a replacement thread took over a panicked
/// worker's slot. `respawns` is that slot's lifetime respawn count.
pub fn emit_worker_respawn(worker: usize, respawns: u64) {
    event(
        "worker_respawn",
        &[
            ("worker", Json::from(worker)),
            ("respawns", Json::from(respawns)),
        ],
    );
}

/// One `swap_failed` event: a watched replacement artifact failed to load
/// or validate (or was rejected by `try_swap`), so the live generation was
/// kept and the watcher backed off. `failures` counts consecutive failures
/// for this artifact; `backoff_ms` is the delay before the next attempt.
pub fn emit_swap_failed(path: &str, error: &str, failures: u32, backoff_ms: u64) {
    event(
        "swap_failed",
        &[
            ("path", Json::from(path)),
            ("error", Json::from(error)),
            ("failures", Json::from(u64::from(failures))),
            ("backoff_ms", Json::from(backoff_ms)),
        ],
    );
}

/// One `breaker_state` event: the overload circuit breaker transitioned.
/// `p99_ms` / `shed_rate` are the window stats that drove the decision;
/// `retry_after_ms` is how long clients are told to back off (null unless
/// the breaker opened).
pub fn emit_breaker_state(
    state: &str,
    from: &str,
    p99_ms: f64,
    shed_rate: f64,
    retry_after_ms: Option<f64>,
) {
    event(
        "breaker_state",
        &[
            ("state", Json::from(state)),
            ("from", Json::from(from)),
            ("p99_ms", Json::from(p99_ms)),
            ("shed_rate", Json::from(shed_rate)),
            (
                "retry_after_ms",
                retry_after_ms.map_or(Json::Null, Json::Num),
            ),
        ],
    );
}

/// One `swap` event: the serving pool atomically rolled a new artifact
/// generation in (hot swap). `checksum` is the incoming artifact's FNV-1a
/// checksum, rendered as the same 16-hex-digit string `rdd export` prints.
pub fn emit_swap(generation: u64, checksum: u64, path: &str) {
    event(
        "swap",
        &[
            ("generation", Json::from(generation)),
            ("checksum", Json::from(format!("{checksum:016x}"))),
            ("path", Json::from(path)),
        ],
    );
}

/// One cumulative `hist` event from an explicit snapshot, in the same
/// shape the recorder's flush emits for `HistCell` statics. The serve pool
/// uses this at shutdown to publish per-worker latency histograms
/// (`serve.worker<i>.request_ns`) that live in worker-local state rather
/// than in a global cell.
pub fn emit_hist_snapshot(name: &str, snap: &HistSnapshot) {
    if !enabled() || snap.count() == 0 {
        return;
    }
    event(
        "hist",
        &[
            ("name", Json::from(name)),
            ("count", Json::from(snap.count())),
            ("buckets", Json::from(snap.trimmed().to_vec())),
        ],
    );
}

/// One rolling window of live serve metrics, as sampled by
/// [`emit_serve_metrics`] and the `rdd serve --metrics-every` heartbeat.
/// Latencies are milliseconds (histogram-derived, so accurate to one log2
/// bucket); counters cover only the window, not the whole session.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeMetricsSnapshot {
    /// Width of the window actually covered, seconds.
    pub window_s: u64,
    /// Requests completed inside the window.
    pub requests: u64,
    /// Median end-to-end request latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end request latency, ms.
    pub p99_ms: f64,
    /// Queue-depth high-water mark over the window.
    pub queue_peak: u64,
    /// Cache hits / (hits + misses) over the window; 0 when idle.
    pub hit_rate: f64,
    /// Requests shed at admission (queue full) over the window.
    pub shed: u64,
    /// Requests shed post-admission (deadline expired) over the window.
    pub shed_expired: u64,
    /// Overload circuit-breaker state (`closed` / `open` / `half_open`);
    /// `None` when no breaker is configured.
    pub breaker: Option<&'static str>,
}

impl ServeMetricsSnapshot {
    /// The one-line status `rdd serve` prints per heartbeat.
    pub fn status_line(&self) -> String {
        let mut line = format!(
            "serve: {} req/{}s  p50 {:.3} ms  p99 {:.3} ms  queue peak {}  hit rate {:.1}%  shed {}  expired {}",
            self.requests,
            self.window_s,
            self.p50_ms,
            self.p99_ms,
            self.queue_peak,
            100.0 * self.hit_rate,
            self.shed,
            self.shed_expired
        );
        if let Some(state) = self.breaker {
            line.push_str(&format!("  breaker {state}"));
        }
        line
    }
}

/// One `serve_metrics` heartbeat event from a rolling window snapshot.
pub fn emit_serve_metrics(m: &ServeMetricsSnapshot) {
    event(
        "serve_metrics",
        &[
            ("window_s", Json::from(m.window_s)),
            ("requests", Json::from(m.requests)),
            ("p50_ms", Json::from(m.p50_ms)),
            ("p99_ms", Json::from(m.p99_ms)),
            ("queue_peak", Json::from(m.queue_peak)),
            ("hit_rate", Json::from(m.hit_rate)),
            ("shed", Json::from(m.shed)),
            ("shed_expired", Json::from(m.shed_expired)),
            ("breaker", m.breaker.map_or(Json::Null, Json::from)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::super::json::{parse, Json};
    use super::super::recorder;
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "rdd_obs_tel_{tag}_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn agreement_rate_counts_matches() {
        assert_eq!(agreement_rate(&[], &[]), 0.0);
        assert_eq!(agreement_rate(&[1, 2, 3, 4], &[1, 0, 3, 0]), 0.5);
        assert_eq!(agreement_rate(&[7, 7], &[7, 7]), 1.0);
    }

    #[test]
    fn epoch_event_merges_staged_rdd_extra() {
        let _g = recorder::tests::lock();
        let path = temp_path("merge");
        recorder::init_file(&path).unwrap();
        stage_rdd_epoch(RddEpochExtra {
            member: 2,
            l2: 0.25,
            lreg: 0.125,
            gamma: 0.5,
            v_r: 100,
            v_b: 40,
            e_r: 321,
            agreement: 0.75,
            teacher_entropy_thresh: 1.5,
            student_entropy_thresh: f32::NAN,
            alpha: vec![1.0, 2.0],
        });
        EpochTelemetry {
            model: "gcn",
            epoch: 3,
            loss: 1.5,
            l1: 1.0,
            train_acc: 0.9,
            val_acc: 0.8,
            test_acc: 0.7,
        }
        .emit();
        // Next emit has nothing staged: RDD fields go null.
        EpochTelemetry {
            model: "gcn",
            epoch: 4,
            loss: 1.25,
            l1: 1.25,
            train_acc: 0.9,
            val_acc: 0.8,
            test_acc: 0.7,
        }
        .emit();
        recorder::flush();
        recorder::disable();
        let events: Vec<Json> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|l| parse(l).unwrap())
            .filter(|e| e.get("ev").and_then(Json::as_str) == Some("epoch"))
            .collect();
        assert_eq!(events.len(), 2);
        let merged = &events[0];
        assert_eq!(merged.get("member").and_then(Json::as_f64), Some(2.0));
        assert_eq!(merged.get("l2").and_then(Json::as_f64), Some(0.25));
        assert_eq!(merged.get("v_r").and_then(Json::as_f64), Some(100.0));
        assert_eq!(merged.get("v_b").and_then(Json::as_f64), Some(40.0));
        assert_eq!(merged.get("e_r").and_then(Json::as_f64), Some(321.0));
        assert_eq!(merged.get("agreement").and_then(Json::as_f64), Some(0.75));
        assert!(
            matches!(merged.get("student_entropy_thresh"), Some(Json::Null)),
            "NaN threshold must encode as null"
        );
        assert_eq!(
            merged
                .get("alpha")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        let bare = &events[1];
        assert!(matches!(bare.get("l2"), Some(Json::Null)));
        assert!(matches!(bare.get("v_r"), Some(Json::Null)));
        assert_eq!(
            bare.get("alpha").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
        assert_eq!(bare.get("l1").and_then(Json::as_f64), Some(1.25));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn member_and_run_events_encode() {
        let _g = recorder::tests::lock();
        let path = temp_path("member_run");
        recorder::init_file(&path).unwrap();
        emit_member(1, 42.5, 0.81, 0.8, 120);
        emit_run(0.84, 0.8, 4);
        recorder::flush();
        recorder::disable();
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Json> = text.lines().map(|l| parse(l).unwrap()).collect();
        let member = events
            .iter()
            .find(|e| e.get("ev").and_then(Json::as_str) == Some("member"))
            .unwrap();
        assert_eq!(member.get("alpha").and_then(Json::as_f64), Some(42.5));
        assert_eq!(member.get("epochs").and_then(Json::as_f64), Some(120.0));
        let run = events
            .iter()
            .find(|e| e.get("ev").and_then(Json::as_str) == Some("run"))
            .unwrap();
        assert_eq!(
            run.get("ensemble_test_acc").and_then(Json::as_f64),
            Some(f64::from(0.84f32))
        );
        std::fs::remove_file(&path).ok();
    }
}
