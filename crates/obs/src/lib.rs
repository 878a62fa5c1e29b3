//! `rdd-obs` — std-only structured telemetry for the RDD reproduction.
//!
//! The crate has four layers:
//!
//! - [`json`]: a hand-rolled compact JSON encoder + parser (the offline
//!   dependency set has no `serde`). Non-finite floats encode as `null`.
//! - [`hist`]: dependency-free log2-bucketed histograms ([`AtomicHist`] for
//!   lock-free recording, [`HistSnapshot`] for merge/quantile math) — the
//!   substrate for every latency percentile in the repo.
//! - [`recorder`]: the global JSONL recorder. Sink selected by
//!   `RDD_TRACE=<path|stderr|off>`; per-thread line buffers; `static` metric
//!   cells ([`SpanCell`], [`CounterCell`], [`GaugeCell`], [`HistCell`])
//!   whose disabled cost is one atomic load + branch. Spans are
//!   hierarchical: per-thread stacks attribute self-time vs total-time and
//!   record (child, parent) call edges.
//! - [`telemetry`] / [`summarize`] / [`gate`] / [`env`]: the domain event
//!   schema (epoch / member / run / serve records), the offline validator,
//!   renderer and perf-regression gate behind `rdd report`, and the latched
//!   env-var parse helper shared by `RDD_SIMD` / `RDD_TRIALS`.
//!
//! ## Event schema
//!
//! One JSON object per line; every event has `ev` (kind) and `t_ms`
//! (monotonic ms since the recorder first ran). Kinds emitted by this repo:
//!
//! | `ev`        | fields                                                                 |
//! |-------------|------------------------------------------------------------------------|
//! | `epoch`     | `model member epoch loss l1 l2 lreg gamma v_r v_b e_r agreement teacher_entropy_thresh student_entropy_thresh alpha[] train_acc val_acc test_acc` (RDD-only fields `null` for plain baselines) |
//! | `member`    | `member alpha val_acc test_acc epochs`                                 |
//! | `run`       | `ensemble_test_acc single_test_acc members`                            |
//! | `kernel`    | `name calls total_ms self_ms` — cumulative snapshot, last one wins     |
//! | `hist`      | `name count buckets[]` — log2-bucket counts (bucket i = `[2^i, 2^(i+1))` ns), trailing zeros trimmed |
//! | `span_parent` | `child parent calls` — observed span-nesting edge with call count    |
//! | `counter`   | `name value` — cumulative snapshot                                     |
//! | `gauge`     | `name value` — last/peak value                                         |
//! | `simd_init` | `tier detected` — resolved kernel tier (`scalar` or `avx2`, from `RDD_SIMD` `auto` or `off`) vs best available |
//! | `fault`     | `kind site n pass` — an injected [`fault`] fired (`RDD_FAULT`)         |
//! | `rollback`  | `model epoch retry lr_scale reason` — divergence guard retried an epoch |
//! | `divergence`| `model epoch rollbacks` — retry budget exhausted, member degraded      |
//! | `member_dropped` | `member rollbacks` — diverged member excluded from the ensemble   |
//! | `checkpoint`| `member kept dir` — member persisted, run manifest committed           |
//! | `resume`    | `next_member loaded dir` — run directory reloaded, cascade restarting  |
//! | `serve_batch` | `worker requests nodes hits misses exec_ms lat_ms[]` — one serve-engine flush |
//! | `serve_run` | `requests batches hits misses shed expired failed rejected wall_ms` — final serve-session totals |
//! | `serve_metrics` | `window_s requests p50_ms p99_ms queue_peak hit_rate shed shed_expired breaker` — rolling-window heartbeat (`rdd serve --metrics-every`) |
//! | `swap`      | `generation checksum path` — hot artifact swap rolled a new generation in |
//! | `swap_failed` | `path error failures backoff_ms` — watched artifact failed to load/validate; live generation kept, poll backed off |
//! | `worker_panic` | `worker requests requeued failed` — serve-pool worker panicked; batch requeued or answered with typed errors |
//! | `worker_respawn` | `worker respawns` — replacement thread took over a panicked worker's slot |
//! | `breaker_state` | `state from p99_ms shed_rate retry_after_ms` — overload circuit-breaker transition (`closed`/`open`/`half_open`) |
//! | `env_warn`  | `var value expected` — rejected environment-variable value (default kept) |
//! | `warn`      | `msg`                                                                  |
//!
//! Unknown kinds are preserved by the parser (forward compatible); binaries
//! may add their own (the bench diagnostics emit `reliability_diag` and
//! `sweep` records).

pub mod env;
pub mod fault;
pub mod gate;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod summarize;
pub mod telemetry;

pub use fault::FaultKind;
pub use hist::{AtomicHist, HistSnapshot, BUCKETS};
pub use json::{parse, Json};
pub use recorder::{
    disable, enabled, event, flush, init_file, init_stderr, warn, CounterCell, GaugeCell, HistCell,
    SpanCell, SpanGuard,
};
pub use summarize::{
    percentile, render_table, sample_stats, SampleStats, StatsError, TraceSummary,
};
pub use telemetry::{
    agreement_rate, emit_breaker_state, emit_checkpoint, emit_distill, emit_divergence,
    emit_hist_snapshot, emit_member, emit_member_dropped, emit_resume, emit_rollback, emit_run,
    emit_serve_batch, emit_serve_metrics, emit_serve_run, emit_swap, emit_swap_failed,
    emit_worker_panic, emit_worker_respawn, stage_rdd_epoch, EpochTelemetry, RddEpochExtra,
    ServeMetricsSnapshot,
};
