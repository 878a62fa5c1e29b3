//! The batch-execute core every serve worker runs, plus [`ServeEngine`],
//! its thread-free reference driver.
//!
//! `execute_batch` answers one micro-batch in one underlying
//! `predict_batch` call over the distinct missing node rows (plus one per
//! feature-dim group). Each [`crate::ServePool`] worker runs it on the batch
//! it claims; [`ServeEngine`] runs it in-process on whatever was submitted,
//! with no threads or clocks beyond per-request timestamps, so tests and the
//! benchmark probe can check the pool against it.
//!
//! Per-node results are memoized in a [`ShardedLru`] keyed by
//! `(artifact checksum, node id)`: re-serving a hot node costs a row copy,
//! and because cached rows were produced by the same predictor on the same
//! artifact, cache hits stay bitwise identical to cold executions.
//!
//! [`PredictRequest::ByFeatures`] requests ride the same queue and flush:
//! their rows are stacked per flush (grouped by feature dim) and executed
//! in one predictor call per group, but they **bypass the cache by
//! design** — a feature vector is an arbitrary point in `R^d` with no
//! stable identity to key on, unlike a node id, so caching would either
//! hash raw floats (equality is meaningless under fp noise) or never hit.
//! Node requests keep their dedup + memoization unchanged.

use std::collections::HashMap;
use std::time::Instant;

use rdd_models::{ConfigError, PredictRequest, Prediction, PredictionKind, Predictor};
use rdd_obs::{HistSnapshot, ServeMetricsSnapshot};
use rdd_tensor::Matrix;

use crate::cache::ShardedLru;
use crate::error::ServeError;

/// Online latency histograms (log2-bucket nanoseconds): end-to-end request
/// latency and predictor execution time per flush. Near-free when tracing
/// is off; snapshots appear as `hist` events at every `rdd_obs::flush()`.
static HIST_REQUEST_NS: rdd_obs::HistCell = rdd_obs::HistCell::new("serve.request_ns");
static HIST_EXEC_NS: rdd_obs::HistCell = rdd_obs::HistCell::new("serve.exec_ns");

/// Seconds of history each of the pool's rolling metrics windows keeps by
/// default (see [`crate::PoolConfig::metrics_window_s`]).
pub const DEFAULT_METRICS_WINDOW_S: usize = 10;

/// Serve-engine tuning knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Flush as soon as this many requests are queued (≥ 1).
    pub batch_size: usize,
    /// Per-node LRU prediction cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Bound on queued requests (≥ 1). Submitting beyond it returns
    /// [`ServeError::QueueFull`], so a stalled server sheds load instead of
    /// buffering without limit. The effective batch size is
    /// `min(batch_size, queue_capacity)`.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch_size: 32,
            cache_capacity: 4096,
            queue_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// Reject zero-sized batch or queue.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.batch_size < 1 {
            return Err(ConfigError::invalid(
                "serve.batch_size",
                self.batch_size,
                ">= 1 request per batch",
            ));
        }
        if self.queue_capacity < 1 {
            return Err(ConfigError::invalid(
                "serve.queue_capacity",
                self.queue_capacity,
                ">= 1 queued request",
            ));
        }
        Ok(())
    }
}

/// One cached per-node result row.
#[derive(Clone)]
pub(crate) struct CachedRow {
    pub(crate) proba: Vec<f32>,
    pub(crate) pred: usize,
}

/// A queued request awaiting dispatch. Shared with [`crate::pool`], whose
/// workers drain the same shape from a cross-thread queue (and requeue a
/// batch whose execution panicked).
pub(crate) struct PendingRequest {
    pub(crate) id: u64,
    pub(crate) req: PredictRequest,
    pub(crate) enqueued: Instant,
    /// Shed (typed [`ServeError::Expired`]) instead of dispatched if this
    /// instant passes while the request is still queued.
    pub(crate) deadline: Option<Instant>,
    /// Times this request was requeued after a worker panic (pool
    /// supervision); at the pool's retry budget the supervisor answers
    /// with [`ServeError::WorkerFailed`] instead of requeueing again.
    pub(crate) retries: u32,
}

/// Why a request was shed instead of served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedCause {
    /// Rejected at admission: the bounded queue was at capacity.
    QueueFull,
    /// Dropped post-admission: its deadline passed before dispatch.
    Expired,
}

/// The row cache [`execute_batch`] reads and fills.
pub(crate) type RowCache = ShardedLru<(u64, usize), CachedRow>;

/// One answered request.
#[derive(Debug)]
pub struct ServeReply {
    /// The caller-assigned request id, echoed back.
    pub id: u64,
    /// The prediction, or why this request failed (other requests in the
    /// same batch are unaffected unless the predictor itself failed).
    pub result: Result<Prediction, ServeError>,
    /// Queue wait + execution time for this request, in milliseconds.
    pub latency_ms: f64,
    /// How many of this request's nodes were served from the cache.
    pub cache_hits: usize,
    /// Artifact generation that served this request (0 until a hot swap;
    /// incremented by every [`crate::pool::ServePool::swap`]). In-flight
    /// requests always finish on the generation they were dispatched with.
    pub generation: u64,
}

/// Engine-lifetime counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Requests answered (including per-request errors).
    pub requests: u64,
    /// Flushes executed.
    pub batches: u64,
    /// Node rows served from the cache.
    pub cache_hits: u64,
    /// Node rows that needed predictor execution.
    pub cache_misses: u64,
    /// Feature-vector rows served (always fresh executions — feature
    /// requests bypass the cache by design).
    pub feature_rows: u64,
    /// Requests rejected at admission (queue full).
    pub shed: u64,
    /// Requests shed post-admission (deadline expired before dispatch).
    pub expired: u64,
    /// Requests answered with [`ServeError::WorkerFailed`] after their
    /// panic retry budget was spent (pool supervision).
    pub failed: u64,
    /// Requests refused at admission by the overload circuit breaker
    /// (typed [`ServeError::Overloaded`]).
    pub rejected: u64,
}

impl ServeStats {
    /// Fold another stats block into this one (used by the pool to merge
    /// per-worker counters).
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.feature_rows += other.feature_rows;
        self.shed += other.shed;
        self.expired += other.expired;
        self.failed += other.failed;
        self.rejected += other.rejected;
    }
}

impl ServeStats {
    /// Cache hit fraction over all node rows served (0 when nothing yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One second of rolling-window metrics. Slots are reused in a ring and
/// lazily reset when their absolute second comes around again.
#[derive(Clone)]
struct WindowSlot {
    /// Absolute second (since the window's origin) this slot holds; the
    /// sentinel `u64::MAX` marks a slot that never recorded.
    second: u64,
    requests: u64,
    /// End-to-end request latency, log2-bucket nanoseconds.
    lat: HistSnapshot,
    queue_peak: u64,
    hits: u64,
    misses: u64,
    shed: u64,
    expired: u64,
}

impl WindowSlot {
    fn empty() -> Self {
        Self {
            second: u64::MAX,
            requests: 0,
            lat: HistSnapshot::new(),
            queue_peak: 0,
            hits: 0,
            misses: 0,
            shed: 0,
            expired: 0,
        }
    }
}

/// A ring of per-second metric slots covering the last N seconds — the
/// live view behind `rdd serve --metrics-every` and the overload circuit
/// breaker's latency window. Recording touches one slot; snapshotting merges the slots still inside the window, so
/// stale traffic ages out without any background thread.
pub struct RollingWindow {
    origin: Instant,
    slots: Vec<WindowSlot>,
}

impl RollingWindow {
    /// A window covering the last `window_s` seconds (min 1).
    pub fn new(window_s: usize) -> Self {
        Self {
            origin: Instant::now(),
            slots: vec![WindowSlot::empty(); window_s.max(1)],
        }
    }

    fn now_sec(&self) -> u64 {
        self.origin.elapsed().as_secs()
    }

    /// The current second's slot, reset if the ring has lapped it.
    fn slot_mut(&mut self) -> &mut WindowSlot {
        let now = self.now_sec();
        let idx = (now % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.second != now {
            *slot = WindowSlot::empty();
            slot.second = now;
        }
        slot
    }

    /// Count one completed request with its end-to-end latency.
    pub fn record_request(&mut self, latency: std::time::Duration) {
        let ns = latency.as_nanos() as u64;
        let slot = self.slot_mut();
        slot.requests += 1;
        slot.lat.record(ns);
    }

    /// Raise the window's queue-depth high-water mark.
    pub fn record_queue_depth(&mut self, depth: usize) {
        let slot = self.slot_mut();
        slot.queue_peak = slot.queue_peak.max(depth as u64);
    }

    /// Count cache traffic for one flush.
    pub fn record_cache(&mut self, hits: u64, misses: u64) {
        let slot = self.slot_mut();
        slot.hits += hits;
        slot.misses += misses;
    }

    /// Count one shed request, by cause.
    pub fn record_shed(&mut self, cause: ShedCause) {
        let slot = self.slot_mut();
        match cause {
            ShedCause::QueueFull => slot.shed += 1,
            ShedCause::Expired => slot.expired += 1,
        }
    }

    /// Fold every slot still inside the window into `acc`. The pool calls
    /// this once per worker window (plus the admission-side window) to
    /// publish one merged heartbeat; latency histograms merge losslessly
    /// via the lock-free [`HistSnapshot::merge`].
    pub fn accumulate(&self, acc: &mut WindowAccum) {
        let now = self.now_sec();
        let len = self.slots.len() as u64;
        acc.window_s = acc.window_s.max(len.min(now + 1));
        for slot in &self.slots {
            // Valid = recorded within the last `len` seconds (slot.second
            // is u64::MAX on never-used slots, failing the check).
            if slot.second > now || now - slot.second >= len {
                continue;
            }
            acc.requests += slot.requests;
            acc.queue_peak = acc.queue_peak.max(slot.queue_peak);
            acc.shed += slot.shed;
            acc.expired += slot.expired;
            acc.hits += slot.hits;
            acc.misses += slot.misses;
            acc.lat.merge(&slot.lat);
        }
    }

    /// Merge every slot still inside the window into one snapshot.
    /// Latency percentiles are histogram-derived, so they are accurate to
    /// one log2 bucket.
    pub fn snapshot(&self) -> ServeMetricsSnapshot {
        let mut acc = WindowAccum::new();
        self.accumulate(&mut acc);
        acc.finalize()
    }
}

/// Accumulates one or more [`RollingWindow`]s into a single
/// [`ServeMetricsSnapshot`] — the pool's merged live view across N worker
/// windows.
#[derive(Default)]
pub struct WindowAccum {
    window_s: u64,
    requests: u64,
    queue_peak: u64,
    shed: u64,
    expired: u64,
    hits: u64,
    misses: u64,
    lat: HistSnapshot,
}

impl WindowAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish the merge: derive hit rate and histogram percentiles.
    pub fn finalize(&self) -> ServeMetricsSnapshot {
        let mut m = ServeMetricsSnapshot {
            window_s: self.window_s,
            requests: self.requests,
            queue_peak: self.queue_peak,
            shed: self.shed,
            shed_expired: self.expired,
            ..ServeMetricsSnapshot::default()
        };
        if self.hits + self.misses > 0 {
            m.hit_rate = self.hits as f64 / (self.hits + self.misses) as f64;
        }
        if self.lat.count() > 0 {
            m.p50_ms = self.lat.p50() / 1e6;
            m.p99_ms = self.lat.p99() / 1e6;
        }
        m
    }
}

/// The thread-free reference serve driver: it queues submitted requests
/// and answers them with the pool workers' batch core, one call per
/// flush, on the caller's thread. `rdd serve` runs the [`crate::ServePool`]; tests and the
/// benchmark probe check the pool against this engine.
pub struct ServeEngine<P: Predictor> {
    predictor: P,
    cfg: ServeConfig,
    /// Cache key epoch — the artifact checksum, so rows from a different
    /// artifact can never alias.
    cache_epoch: u64,
    cache: Option<RowCache>,
    pending: Vec<PendingRequest>,
    stats: ServeStats,
}

impl<P: Predictor> ServeEngine<P> {
    /// Build an engine over `predictor`. `cache_epoch` must identify the
    /// frozen model (the artifact checksum); it becomes part of every
    /// cache key. The cache is the pool's at one worker: one partition.
    pub fn new(predictor: P, cfg: ServeConfig, cache_epoch: u64) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let cache = (cfg.cache_capacity > 0).then(|| ShardedLru::new(cfg.cache_capacity, 1));
        Ok(Self {
            predictor,
            cfg,
            cache_epoch,
            cache,
            pending: Vec::new(),
            stats: ServeStats::default(),
        })
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// Engine-lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Enqueue a request — node ids ([`PredictRequest::ByNodes`] /
    /// [`PredictRequest::All`]) or raw feature rows
    /// ([`PredictRequest::ByFeatures`]). Returns `Ok(Some(replies))` when
    /// this submission filled a batch and triggered a flush, `Ok(None)`
    /// when the request is parked, and [`ServeError::QueueFull`] when the
    /// bounded queue is at capacity.
    pub fn submit(
        &mut self,
        id: u64,
        req: PredictRequest,
    ) -> Result<Option<Vec<ServeReply>>, ServeError> {
        if self.pending.len() >= self.cfg.queue_capacity {
            self.stats.shed += 1;
            return Err(ServeError::QueueFull {
                capacity: self.cfg.queue_capacity,
            });
        }
        self.pending.push(PendingRequest {
            id,
            req,
            enqueued: Instant::now(),
            deadline: None,
            retries: 0,
        });
        if self.pending.len() >= self.cfg.batch_size {
            Ok(Some(self.flush()))
        } else {
            Ok(None)
        }
    }

    /// Execute every queued request as one micro-batch, in submission
    /// order. A no-op (empty vec) on an empty queue.
    pub fn flush(&mut self) -> Vec<ServeReply> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let batch = std::mem::take(&mut self.pending);
        let out = execute_batch(
            0,
            &self.predictor,
            self.cache_epoch,
            0,
            &batch,
            self.cache.as_ref(),
        );
        out.record(&mut self.stats, None);
        out.replies
    }
}

/// What one [`execute_batch`] call produced, for the caller's accounting.
pub(crate) struct FlushOutcome {
    /// Replies in batch order: shed-expired requests first (typed errors),
    /// then served requests in submission order.
    pub(crate) replies: Vec<ServeReply>,
    /// End-to-end latency of each *served* (non-expired) request, ms.
    pub(crate) latencies: Vec<f64>,
    /// Node rows served from the cache.
    pub(crate) hits: usize,
    /// Node rows in successful replies (hits + fresh executions); feature
    /// rows are counted separately and never touch the cache.
    pub(crate) nodes_served: usize,
    /// Feature-vector rows in successful replies (always fresh).
    pub(crate) feature_rows: usize,
    /// Requests shed because their deadline passed before dispatch.
    pub(crate) expired: usize,
}

impl FlushOutcome {
    /// Fold this flush into lifetime counters and, if given, a rolling
    /// metrics window.
    pub(crate) fn record(&self, stats: &mut ServeStats, window: Option<&mut RollingWindow>) {
        let misses = self.nodes_served.saturating_sub(self.hits) as u64;
        stats.requests += self.replies.len() as u64;
        stats.batches += 1;
        stats.cache_hits += self.hits as u64;
        stats.cache_misses += misses;
        stats.feature_rows += self.feature_rows as u64;
        stats.expired += self.expired as u64;
        let Some(window) = window else { return };
        for _ in 0..self.expired {
            window.record_shed(ShedCause::Expired);
        }
        for &lat_ms in &self.latencies {
            window.record_request(std::time::Duration::from_secs_f64(lat_ms / 1e3));
        }
        window.record_cache(self.hits as u64, misses);
    }
}

/// Execute one micro-batch against `predictor`: shed expired requests,
/// serve what `cache` holds under `cache_epoch`, run one deduplicated
/// `predict_batch` over the distinct missing node rows plus one per
/// feature-dim group of stacked feature rows, and assemble per-request
/// replies tagged with `generation`. A failing feature group poisons only
/// its own requests; a failing node execution poisons only node requests.
/// This is the body of every [`crate::pool`] worker and of
/// [`ServeEngine::flush`]; it records the global serve histograms and emits
/// the per-flush `serve_batch` event under `worker`.
pub(crate) fn execute_batch<P: Predictor>(
    worker: usize,
    predictor: &P,
    cache_epoch: u64,
    generation: u64,
    batch: &[PendingRequest],
    cache: Option<&RowCache>,
) -> FlushOutcome {
    // Chaos site: `panic@serve_batch` exercises the pool supervisor's
    // requeue path from inside the flush core; `slow@serve_batch` inflates
    // batch latency to trip the overload circuit breaker.
    match rdd_obs::fault::fire("serve_batch") {
        Some(rdd_obs::FaultKind::Panic) => {
            panic!("injected panic at serve_batch (RDD_FAULT)")
        }
        Some(rdd_obs::FaultKind::Slow) => {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        _ => {}
    }
    let now = Instant::now();
    let (expired_batch, batch): (Vec<&PendingRequest>, Vec<&PendingRequest>) = batch
        .iter()
        .partition(|r| r.deadline.is_some_and(|d| now >= d));
    let mut replies = Vec::with_capacity(expired_batch.len() + batch.len());
    for req in &expired_batch {
        let waited_ms = req.enqueued.elapsed().as_secs_f64() * 1e3;
        replies.push(ServeReply {
            id: req.id,
            result: Err(ServeError::Expired { waited_ms }),
            latency_ms: waited_ms,
            cache_hits: 0,
            generation,
        });
    }
    let expired = expired_batch.len();
    if batch.is_empty() {
        return FlushOutcome {
            replies,
            latencies: Vec::new(),
            hits: 0,
            nodes_served: 0,
            feature_rows: 0,
            expired,
        };
    }
    let num_nodes = predictor.num_nodes();
    let k = predictor.num_classes();

    // Resolve each request. Node requests serve what the cache already
    // holds and collect the distinct rows that need execution; feature
    // requests stack their rows into one matrix per feature dim (so one
    // predictor call covers every same-dim feature request in the flush)
    // and never consult the cache — see the module docs.
    struct Assembly {
        nodes: Vec<usize>,
        rows: Vec<Option<CachedRow>>,
        hits: usize,
        error: Option<ServeError>,
    }
    enum Plan {
        Nodes(Assembly),
        Features {
            group: usize,
            start: usize,
            len: usize,
        },
    }
    let mut plans: Vec<Plan> = Vec::with_capacity(batch.len());
    let mut miss_order: Vec<usize> = Vec::new();
    let mut miss_set: HashMap<usize, usize> = HashMap::new();
    // One (feature dim → stacked rows) group per distinct column count.
    let mut groups: Vec<(usize, Vec<f32>, usize)> = Vec::new(); // (cols, data, rows)
    let mut group_by_cols: HashMap<usize, usize> = HashMap::new();
    for req in &batch {
        let nodes: Vec<usize> = match &req.req {
            PredictRequest::ByFeatures(rows) => {
                let cols = rows.cols();
                let group = *group_by_cols.entry(cols).or_insert_with(|| {
                    groups.push((cols, Vec::new(), 0));
                    groups.len() - 1
                });
                let (_, data, stacked) = &mut groups[group];
                let start = *stacked;
                data.extend_from_slice(rows.as_slice());
                *stacked += rows.rows();
                plans.push(Plan::Features {
                    group,
                    start,
                    len: rows.rows(),
                });
                continue;
            }
            PredictRequest::ByNodes(ids) => ids.clone(),
            PredictRequest::All => (0..num_nodes).collect(),
        };
        if let Some(&bad) = nodes.iter().find(|&&id| id >= num_nodes) {
            plans.push(Plan::Nodes(Assembly {
                nodes,
                rows: Vec::new(),
                hits: 0,
                error: Some(ServeError::Predict(
                    rdd_models::PredictError::NodeOutOfRange {
                        node: bad,
                        num_nodes,
                    },
                )),
            }));
            continue;
        }
        let mut rows: Vec<Option<CachedRow>> = Vec::with_capacity(nodes.len());
        let mut hits = 0usize;
        for &node in &nodes {
            match cache.and_then(|c| c.get(&(cache_epoch, node))) {
                Some(row) => {
                    hits += 1;
                    rows.push(Some(row));
                }
                None => {
                    if let std::collections::hash_map::Entry::Vacant(slot) = miss_set.entry(node) {
                        slot.insert(miss_order.len());
                        miss_order.push(node);
                    }
                    rows.push(None);
                }
            }
        }
        plans.push(Plan::Nodes(Assembly {
            nodes,
            rows,
            hits,
            error: None,
        }));
    }

    // One predictor execution covers every distinct missing node, plus
    // one per feature group.
    let exec_start = Instant::now();
    let fresh: Result<Option<Prediction>, rdd_models::PredictError> = if miss_order.is_empty() {
        Ok(None)
    } else {
        predictor
            .predict_batch(&PredictRequest::nodes(miss_order.clone()))
            .map(Some)
    };
    let group_results: Vec<Result<Prediction, rdd_models::PredictError>> = groups
        .into_iter()
        .map(|(cols, data, rows)| {
            let stacked = Matrix::from_vec(rows, cols, data);
            predictor.predict_batch(&PredictRequest::ByFeatures(stacked))
        })
        .collect();
    let exec_ms = exec_start.elapsed().as_secs_f64() * 1e3;

    let node_exec_err = fresh.as_ref().err().cloned();
    let fresh = fresh.ok().flatten();
    if let (Some(fresh), Some(cache)) = (&fresh, cache) {
        for (r, &node) in fresh.nodes.iter().enumerate() {
            cache.insert(
                (cache_epoch, node),
                CachedRow {
                    proba: fresh.proba.row(r).to_vec(),
                    pred: fresh.pred[r],
                },
            );
        }
    }
    let mut latencies = Vec::with_capacity(batch.len());
    for (req, plan) in batch.iter().zip(plans) {
        let latency_ms = req.enqueued.elapsed().as_secs_f64() * 1e3;
        latencies.push(latency_ms);
        let (result, cache_hits) = match plan {
            Plan::Features { group, start, len } => match &group_results[group] {
                // A failing feature group (dim mismatch, node-only
                // artifact) answers only its own requests.
                Err(e) => (Err(ServeError::Predict(e.clone())), 0),
                Ok(p) => {
                    let mut proba = Matrix::zeros(len, p.proba.cols());
                    let mut pred = Vec::with_capacity(len);
                    for r in 0..len {
                        proba.row_mut(r).copy_from_slice(p.proba.row(start + r));
                        pred.push(p.pred[start + r]);
                    }
                    (
                        Ok(Prediction {
                            nodes: (0..len).collect(),
                            proba,
                            pred,
                            kind: PredictionKind::Features,
                        }),
                        0,
                    )
                }
            },
            Plan::Nodes(asm) => {
                if let Some(error) = asm.error {
                    // Checked before the batch executes, so a request's
                    // own error does not depend on what it was batched with.
                    (Err(error), 0)
                } else if let Some(e) = &node_exec_err {
                    // The node execution itself failed (e.g. empty
                    // ensemble): every other node request gets the error.
                    (Err(ServeError::Predict(e.clone())), 0)
                } else {
                    let mut proba = Matrix::zeros(asm.nodes.len(), k);
                    let mut pred = Vec::with_capacity(asm.nodes.len());
                    for (r, (node, row)) in asm.nodes.iter().zip(asm.rows).enumerate() {
                        match row {
                            Some(cached) => {
                                proba.row_mut(r).copy_from_slice(&cached.proba);
                                pred.push(cached.pred);
                            }
                            None => {
                                let fresh = fresh.as_ref().expect("misses imply an execution");
                                let fr = miss_set[node];
                                proba.row_mut(r).copy_from_slice(fresh.proba.row(fr));
                                pred.push(fresh.pred[fr]);
                            }
                        }
                    }
                    (
                        Ok(Prediction {
                            nodes: asm.nodes,
                            proba,
                            pred,
                            kind: PredictionKind::Node,
                        }),
                        asm.hits,
                    )
                }
            }
        };
        replies.push(ServeReply {
            id: req.id,
            result,
            latency_ms,
            cache_hits,
            generation,
        });
    }

    let mut nodes_served = 0usize;
    let mut feature_rows = 0usize;
    for r in &replies {
        if let Ok(p) = &r.result {
            match p.kind {
                PredictionKind::Node => nodes_served += p.nodes.len(),
                PredictionKind::Features => feature_rows += p.proba.rows(),
            }
        }
    }
    let hits: usize = replies.iter().map(|r| r.cache_hits).sum();
    HIST_EXEC_NS.record((exec_ms * 1e6) as u64);
    for &lat_ms in &latencies {
        HIST_REQUEST_NS.record((lat_ms * 1e6) as u64);
    }
    // `nodes` counts node rows only, so `hits + misses == nodes` holds
    // (the trace schema checks it); feature rows bypass the cache.
    rdd_obs::emit_serve_batch(
        worker,
        batch.len(),
        nodes_served,
        hits,
        nodes_served.saturating_sub(hits),
        exec_ms,
        &latencies,
    );
    FlushOutcome {
        replies,
        latencies,
        hits,
        nodes_served,
        feature_rows,
        expired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdd_models::PredictError;

    /// A deterministic in-memory predictor: proba(node) = f(node).
    struct FakePredictor {
        proba: Matrix,
        calls: std::cell::Cell<usize>,
        nodes_executed: std::cell::Cell<usize>,
    }

    impl FakePredictor {
        fn new(n: usize, k: usize) -> Self {
            let mut data = Vec::with_capacity(n * k);
            for i in 0..n {
                for j in 0..k {
                    data.push(((i * 31 + j * 7) % 13) as f32 / 13.0 + 0.01);
                }
            }
            Self {
                proba: Matrix::from_vec(n, k, data),
                calls: std::cell::Cell::new(0),
                nodes_executed: std::cell::Cell::new(0),
            }
        }
    }

    impl Predictor for FakePredictor {
        fn num_nodes(&self) -> usize {
            self.proba.rows()
        }
        fn num_classes(&self) -> usize {
            self.proba.cols()
        }
        fn predict_batch(&self, req: &PredictRequest) -> Result<Prediction, PredictError> {
            self.calls.set(self.calls.get() + 1);
            // Feature rows: require dim == k and answer softmax(row), a
            // deterministic stand-in for a distilled student forward.
            if let PredictRequest::ByFeatures(rows) = req {
                if rows.cols() != self.proba.cols() {
                    return Err(PredictError::FeatureDimMismatch {
                        got: rows.cols(),
                        expected: self.proba.cols(),
                    });
                }
                self.nodes_executed
                    .set(self.nodes_executed.get() + rows.rows());
                let proba = rows.softmax_rows();
                return Ok(Prediction {
                    nodes: (0..rows.rows()).collect(),
                    pred: proba.argmax_rows(),
                    proba,
                    kind: rdd_models::PredictionKind::Features,
                });
            }
            let out = rdd_models::gather_prediction(&self.proba, req)?;
            self.nodes_executed
                .set(self.nodes_executed.get() + out.nodes.len());
            Ok(out)
        }
    }

    fn engine(cfg: ServeConfig) -> ServeEngine<FakePredictor> {
        ServeEngine::new(FakePredictor::new(20, 3), cfg, 0xabcd).unwrap()
    }

    /// Run one batch through the pool workers' core the way a worker
    /// does — `execute_batch`, then fold the outcome into lifetime
    /// counters and a rolling window — with per-request deadlines.
    fn run_batch(
        p: &FakePredictor,
        reqs: Vec<(u64, PredictRequest, Option<Instant>)>,
        cache: Option<&RowCache>,
        stats: &mut ServeStats,
        window: &mut RollingWindow,
    ) -> Vec<ServeReply> {
        let batch: Vec<PendingRequest> = reqs
            .into_iter()
            .map(|(id, req, deadline)| PendingRequest {
                id,
                req,
                enqueued: Instant::now(),
                deadline,
                retries: 0,
            })
            .collect();
        let out = execute_batch(0, p, 0xabcd, 0, &batch, cache);
        out.record(stats, Some(window));
        out.replies
    }

    #[test]
    fn config_rejects_zero_sizes() {
        let cfg = ServeConfig {
            batch_size: 0,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.validate().unwrap_err().field, "serve.batch_size");
        let cfg = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.validate().unwrap_err().field, "serve.queue_capacity");
    }

    #[test]
    fn batch_size_triggers_flush() {
        let mut e = engine(ServeConfig {
            batch_size: 3,
            ..ServeConfig::default()
        });
        assert!(e
            .submit(0, PredictRequest::nodes(vec![1]))
            .unwrap()
            .is_none());
        assert!(e
            .submit(1, PredictRequest::nodes(vec![2]))
            .unwrap()
            .is_none());
        let replies = e
            .submit(2, PredictRequest::nodes(vec![3]))
            .unwrap()
            .expect("third fills the batch");
        assert_eq!(replies.len(), 3);
        // One underlying execution for the whole batch.
        assert_eq!(e.predictor().calls.get(), 1);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            let p = r.result.as_ref().unwrap();
            assert_eq!(p.nodes, vec![i + 1]);
            assert!(r.latency_ms >= 0.0);
        }
    }

    #[test]
    fn replies_match_direct_prediction_bitwise() {
        let mut e = engine(ServeConfig {
            batch_size: 2,
            ..ServeConfig::default()
        });
        let direct = e.predictor().proba.clone();
        e.submit(0, PredictRequest::nodes(vec![4, 9, 4])).unwrap();
        let replies = e.submit(1, PredictRequest::all()).unwrap().expect("flush");
        let p0 = replies[0].result.as_ref().unwrap();
        for (r, &node) in p0.nodes.iter().enumerate() {
            let same = p0
                .proba
                .row(r)
                .iter()
                .zip(direct.row(node))
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "batched row for node {node} drifted");
        }
        let p1 = replies[1].result.as_ref().unwrap();
        assert_eq!(p1.nodes.len(), 20);
        assert_eq!(p1.proba.as_slice(), direct.as_slice());
    }

    #[test]
    fn cache_serves_repeats_without_reexecution() {
        let mut e = engine(ServeConfig {
            batch_size: 1,
            cache_capacity: 64,
            ..ServeConfig::default()
        });
        let cold = e
            .submit(0, PredictRequest::nodes(vec![5, 6]))
            .unwrap()
            .expect("flush");
        assert_eq!(cold[0].cache_hits, 0);
        let executed_after_cold = e.predictor().nodes_executed.get();
        let warm = e
            .submit(1, PredictRequest::nodes(vec![6, 5]))
            .unwrap()
            .expect("flush");
        assert_eq!(warm[0].cache_hits, 2);
        assert_eq!(
            e.predictor().nodes_executed.get(),
            executed_after_cold,
            "warm request must not re-execute"
        );
        // Warm rows are bitwise identical to cold ones.
        let cold_p = cold[0].result.as_ref().unwrap();
        let warm_p = warm[0].result.as_ref().unwrap();
        assert_eq!(warm_p.proba.row(0), cold_p.proba.row(1));
        assert_eq!(warm_p.proba.row(1), cold_p.proba.row(0));
        let stats = e.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_nodes_in_one_batch_execute_once() {
        let mut e = engine(ServeConfig {
            batch_size: 3,
            cache_capacity: 0, // even uncached, a batch dedups its misses
            ..ServeConfig::default()
        });
        e.submit(0, PredictRequest::nodes(vec![7, 8])).unwrap();
        e.submit(1, PredictRequest::nodes(vec![8, 7])).unwrap();
        let replies = e
            .submit(2, PredictRequest::nodes(vec![7]))
            .unwrap()
            .expect("flush");
        assert_eq!(e.predictor().nodes_executed.get(), 2, "7 and 8, once each");
        assert_eq!(replies[2].result.as_ref().unwrap().pred.len(), 1);
    }

    #[test]
    fn queue_full_is_a_typed_error() {
        let mut e = engine(ServeConfig {
            batch_size: 10,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        e.submit(0, PredictRequest::nodes(vec![0])).unwrap();
        e.submit(1, PredictRequest::nodes(vec![1])).unwrap();
        let err = e.submit(2, PredictRequest::nodes(vec![2])).unwrap_err();
        assert!(matches!(err, ServeError::QueueFull { capacity: 2 }));
        // A drained-input flush empties the queue and unblocks.
        let replies = e.flush();
        assert_eq!(replies.len(), 2);
        assert!(e
            .submit(2, PredictRequest::nodes(vec![2]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn expired_requests_shed_with_typed_error() {
        let p = FakePredictor::new(20, 3);
        let mut stats = ServeStats::default();
        let mut window = RollingWindow::new(10);
        // A deadline of "now" is already past when the batch runs.
        let replies = run_batch(
            &p,
            vec![
                (0, PredictRequest::nodes(vec![1]), Some(Instant::now())),
                (1, PredictRequest::nodes(vec![2]), None),
            ],
            None,
            &mut stats,
            &mut window,
        );
        assert_eq!(replies.len(), 2);
        let shed = replies.iter().find(|r| r.id == 0).unwrap();
        assert!(
            matches!(shed.result, Err(ServeError::Expired { waited_ms }) if waited_ms >= 0.0),
            "expired request must get the typed error"
        );
        let served = replies.iter().find(|r| r.id == 1).unwrap();
        assert!(served.result.is_ok(), "live request must still serve");
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.shed, 0, "expired is not queue-full shed");
        let m = window.snapshot();
        assert_eq!(m.shed_expired, 1);
        assert_eq!(m.shed, 0);
        assert_eq!(m.requests, 1, "shed request is not a served request");
    }

    #[test]
    fn future_deadlines_serve_normally_with_generation_zero() {
        let p = FakePredictor::new(20, 3);
        let mut stats = ServeStats::default();
        let mut window = RollingWindow::new(10);
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        let replies = run_batch(
            &p,
            vec![(0, PredictRequest::nodes(vec![3]), Some(deadline))],
            None,
            &mut stats,
            &mut window,
        );
        assert!(replies[0].result.is_ok());
        assert_eq!(replies[0].generation, 0, "no swap ever happened");
        assert_eq!(stats.expired, 0);
        assert_eq!(window.snapshot().shed_expired, 0);
    }

    #[test]
    fn out_of_range_request_fails_alone() {
        let mut e = engine(ServeConfig {
            batch_size: 2,
            ..ServeConfig::default()
        });
        e.submit(0, PredictRequest::nodes(vec![999])).unwrap();
        let replies = e
            .submit(1, PredictRequest::nodes(vec![3]))
            .unwrap()
            .expect("flush");
        assert!(matches!(
            replies[0].result,
            Err(ServeError::Predict(PredictError::NodeOutOfRange {
                node: 999,
                ..
            }))
        ));
        assert!(replies[1].result.is_ok(), "valid request must still serve");
    }

    #[test]
    fn feature_requests_serve_with_kind_and_row_indices() {
        let mut e = engine(ServeConfig {
            batch_size: 1,
            ..ServeConfig::default()
        });
        let rows = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32 * 0.5);
        let replies = e
            .submit(7, PredictRequest::features(rows.clone()))
            .unwrap()
            .expect("flush");
        let p = replies[0].result.as_ref().unwrap();
        assert_eq!(p.kind, rdd_models::PredictionKind::Features);
        assert_eq!(p.nodes, vec![0, 1], "feature replies index their rows");
        let direct = rows.softmax_rows();
        assert_eq!(p.proba.as_slice(), direct.as_slice(), "bitwise vs direct");
        assert_eq!(e.stats().feature_rows, 2);
        assert_eq!(e.stats().cache_misses, 0, "feature rows are not misses");
    }

    #[test]
    fn mixed_batch_serves_nodes_and_features_in_one_flush() {
        let mut e = engine(ServeConfig {
            batch_size: 3,
            cache_capacity: 64,
            ..ServeConfig::default()
        });
        e.submit(0, PredictRequest::nodes(vec![4])).unwrap();
        e.submit(
            1,
            PredictRequest::features(Matrix::from_fn(1, 3, |_, j| j as f32)),
        )
        .unwrap();
        let replies = e
            .submit(2, PredictRequest::nodes(vec![5]))
            .unwrap()
            .expect("flush");
        assert_eq!(replies.len(), 3);
        assert_eq!(
            replies[0].result.as_ref().unwrap().kind,
            rdd_models::PredictionKind::Node
        );
        assert_eq!(
            replies[1].result.as_ref().unwrap().kind,
            rdd_models::PredictionKind::Features
        );
        assert!(replies[2].result.is_ok());
        let stats = e.stats();
        assert_eq!(stats.feature_rows, 1);
        assert_eq!(stats.cache_misses, 2, "only node rows touch the cache");
        // Two predictor calls: one node dedup batch + one feature group.
        assert_eq!(e.predictor().calls.get(), 2);
    }

    #[test]
    fn same_dim_feature_requests_share_one_execution() {
        let mut e = engine(ServeConfig {
            batch_size: 2,
            ..ServeConfig::default()
        });
        e.submit(
            0,
            PredictRequest::features(Matrix::from_fn(2, 3, |i, j| (i + j) as f32)),
        )
        .unwrap();
        let replies = e
            .submit(
                1,
                PredictRequest::features(Matrix::from_fn(1, 3, |_, j| j as f32 * 2.0)),
            )
            .unwrap()
            .expect("flush");
        assert_eq!(e.predictor().calls.get(), 1, "one stacked group call");
        assert_eq!(replies[0].result.as_ref().unwrap().proba.rows(), 2);
        assert_eq!(replies[0].result.as_ref().unwrap().nodes, vec![0, 1]);
        let p1 = replies[1].result.as_ref().unwrap();
        assert_eq!(p1.proba.rows(), 1);
        assert_eq!(p1.nodes, vec![0], "row indices are request-local");
        let direct = Matrix::from_fn(1, 3, |_, j| j as f32 * 2.0).softmax_rows();
        assert_eq!(p1.proba.as_slice(), direct.as_slice());
    }

    #[test]
    fn bad_dim_feature_group_fails_alone() {
        let mut e = engine(ServeConfig {
            batch_size: 2,
            ..ServeConfig::default()
        });
        e.submit(
            0,
            PredictRequest::features(Matrix::from_fn(1, 5, |_, j| j as f32)),
        )
        .unwrap();
        let replies = e
            .submit(1, PredictRequest::nodes(vec![3]))
            .unwrap()
            .expect("flush");
        assert!(matches!(
            replies[0].result,
            Err(ServeError::Predict(PredictError::FeatureDimMismatch {
                got: 5,
                expected: 3
            }))
        ));
        assert!(replies[1].result.is_ok(), "node request must still serve");
    }

    #[test]
    fn repeated_feature_rows_never_hit_the_cache() {
        let mut e = engine(ServeConfig {
            batch_size: 1,
            cache_capacity: 64,
            ..ServeConfig::default()
        });
        let rows = Matrix::from_fn(1, 3, |_, j| j as f32);
        let a = e
            .submit(0, PredictRequest::features(rows.clone()))
            .unwrap()
            .expect("flush");
        let b = e
            .submit(1, PredictRequest::features(rows))
            .unwrap()
            .expect("flush");
        assert_eq!(a[0].cache_hits, 0);
        assert_eq!(b[0].cache_hits, 0);
        assert_eq!(e.predictor().calls.get(), 2, "every feature row executes");
        assert_eq!(e.stats().cache_hits, 0);
        // Identical inputs through the same frozen weights still agree
        // bitwise — reproducibility comes from the forward, not the cache.
        assert_eq!(
            a[0].result.as_ref().unwrap().proba.as_slice(),
            b[0].result.as_ref().unwrap().proba.as_slice()
        );
    }

    #[test]
    fn flush_on_empty_queue_is_a_noop() {
        let mut e = engine(ServeConfig::default());
        assert!(e.flush().is_empty());
        assert_eq!(e.stats().batches, 0);
    }

    #[test]
    fn rolling_window_tracks_requests_cache_queue_and_shed() {
        let p = FakePredictor::new(20, 3);
        let cache = RowCache::new(64, 1);
        let mut stats = ServeStats::default();
        let mut window = RollingWindow::new(10);
        // Admission records the queue depth it saw; two requests waited.
        window.record_queue_depth(1);
        window.record_queue_depth(2);
        let batch = || {
            vec![
                (0, PredictRequest::nodes(vec![1]), None),
                (1, PredictRequest::nodes(vec![2]), None),
            ]
        };
        run_batch(&p, batch(), Some(&cache), &mut stats, &mut window);
        // Same nodes again: all cache hits this time.
        run_batch(&p, batch(), Some(&cache), &mut stats, &mut window);
        let m = window.snapshot();
        assert_eq!(m.requests, 4);
        assert_eq!(m.queue_peak, 2, "two requests were queued before a flush");
        assert!((m.hit_rate - 0.5).abs() < 1e-12, "2 of 4 rows were hits");
        assert_eq!(m.shed, 0);
        assert!(m.p50_ms >= 0.0 && m.p99_ms >= m.p50_ms);
        assert!(m.window_s >= 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 2);

        // Fill the queue without reaching batch_size, then overflow it:
        // the engine counts the shed, the window counts it by cause.
        let mut e = engine(ServeConfig {
            batch_size: 10,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        e.submit(0, PredictRequest::nodes(vec![0])).unwrap();
        e.submit(1, PredictRequest::nodes(vec![1])).unwrap();
        assert!(e.submit(2, PredictRequest::nodes(vec![2])).is_err());
        assert_eq!(e.stats().shed, 1);
        window.record_shed(ShedCause::QueueFull);
        let m = window.snapshot();
        assert_eq!(m.shed, 1);
        assert_eq!(m.shed_expired, 0, "queue-full is not an expiry");
    }

    #[test]
    fn window_percentiles_match_exact_within_one_log2_bucket() {
        let mut w = RollingWindow::new(5);
        // 1..=1000 µs uniform: exact p50 = 501 µs, p99 = 991 µs.
        let samples_ms: Vec<f64> = (1..=1000).map(|i| i as f64 / 1000.0).collect();
        for &ms in &samples_ms {
            w.record_request(std::time::Duration::from_secs_f64(ms / 1e3));
        }
        let m = w.snapshot();
        assert_eq!(m.requests, 1000);
        let exact = rdd_obs::sample_stats(&samples_ms).unwrap();
        for (hist, exact) in [(m.p50_ms, exact.p50), (m.p99_ms, exact.p99)] {
            let ratio = hist / exact;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "histogram percentile {hist} vs exact {exact}: off by more than one log2 bucket"
            );
        }
    }
}
