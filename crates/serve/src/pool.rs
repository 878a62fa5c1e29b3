//! The serve loop: N supervised threads pulling micro-batches from one
//! bounded request queue, against a hot-swappable artifact generation.
//!
//! One `Mutex<VecDeque>` + `Condvar` queue admits requests
//! ([`ServePool::submit`] sheds typed `QueueFull` at capacity); a free
//! worker immediately claims whatever is queued, up to `batch_size`
//! requests — no timer, so a request never waits for company, while under
//! load arrivals pile up during a flush and the next claim grows by itself
//! — runs the [`crate::engine`] batch core on it against a shared
//! lock-partitioned [`ShardedLru`] row cache (one partition per worker),
//! and hands the batch's replies to the pool's [`ReplySink`] itself. A
//! request thus crosses one thread hand-off, from the submitting thread to
//! the worker that answers it.
//!
//! Supervision: each batch executes behind `catch_unwind`. A panicking
//! worker requeues its claimed batch (bounded by
//! [`PoolConfig::retry_budget`] per request, after which the request is
//! answered with a typed [`ServeError::WorkerFailed`] reply — never a
//! silent drop or hang), emits `worker_panic`, spawns a replacement
//! thread for its slot (`worker_respawn`), and dies. [`ServePool::shutdown`]
//! answers anything still queued with typed [`ServeError::ShuttingDown`]
//! replies instead of dropping the queue.
//!
//! Hot swap: the current predictor lives in a [`SwapCell`]; workers
//! re-check its epoch with one atomic load per batch and pin an `Arc`
//! clone for the batch's duration, so [`ServePool::swap`] rolls a new
//! generation in with zero dropped requests and every reply tagged with
//! the generation that actually served it. [`ServePool::try_swap`] is the
//! validation-gated variant the watch loop uses: a replacement that
//! cannot serve live traffic (class count changed, empty predictor) is
//! rejected with [`ServeError::SwapRejected`] and the live generation
//! stays installed. Cache keys carry each generation's `cache_epoch`
//! (artifact checksum), so stale generations' rows can never alias — old
//! epochs simply age out of the LRU.
//!
//! Overload: an optional [`CircuitBreaker`] gates admission. While open,
//! [`ServePool::submit`] returns typed [`ServeError::Overloaded`] errors
//! carrying `retry_after_ms`; workers feed completed-request latencies
//! back so the breaker can trip on p99/shed-rate and recover through
//! half-open probes. The live state rides along in [`ServePool::metrics`]
//! snapshots (`serve_metrics` heartbeats).
//!
//! Replies reach the caller-provided [`ReplySink`] one batch per call, in
//! completion order (batch order within a worker; interleaved across
//! workers): an `mpsc::Sender` for in-process callers, stdout for
//! `rdd serve`.
//! Metrics: per-worker [`RollingWindow`]s plus an admission-side window,
//! merged lock-free via histogram merge into one
//! [`ServeMetricsSnapshot`]; [`ServePool::shutdown`] drains the queue,
//! joins the workers, publishes per-worker latency histograms
//! (`serve.worker<i>.request_ns`) and reports per-worker utilization,
//! panic and respawn counts.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rdd_models::{ConfigError, Predictor};
use rdd_obs::{HistSnapshot, ServeMetricsSnapshot};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::ShardedLru;
use crate::engine::{
    execute_batch, PendingRequest, RollingWindow, RowCache, ServeConfig, ServeReply, ServeStats,
    ShedCause, WindowAccum, DEFAULT_METRICS_WINDOW_S,
};
use crate::error::ServeError;
use crate::swap::SwapCell;

/// Where pool workers deliver replies. Each call hands over one batch's
/// replies in batch order, from the worker that answered them; the sink
/// is shared by every worker, so it synchronizes its own output.
pub trait ReplySink: Send + Sync + 'static {
    /// Take one batch's replies.
    fn deliver(&self, replies: Vec<ServeReply>);
}

/// Replies stream down the channel one at a time. A dropped receiver is
/// not an error worth a worker dying for: the replies are discarded.
impl ReplySink for mpsc::Sender<ServeReply> {
    fn deliver(&self, replies: Vec<ServeReply>) {
        for reply in replies {
            let _ = self.send(reply);
        }
    }
}

/// A shared sink, so the caller can read its state after shutdown.
impl<S: ReplySink> ReplySink for Arc<S> {
    fn deliver(&self, replies: Vec<ServeReply>) {
        (**self).deliver(replies);
    }
}

/// Pool tuning: the per-flush knobs of [`ServeConfig`] plus the worker
/// count, metrics-window width, supervision retry budget and the optional
/// overload breaker.
#[derive(Clone, Debug, PartialEq)]
pub struct PoolConfig {
    /// Batch/queue/cache knobs, shared with [`crate::ServeEngine`].
    pub serve: ServeConfig,
    /// Number of serve workers (≥ 1). The shared row cache gets one lock
    /// partition per worker, so one worker has one exact LRU.
    pub workers: usize,
    /// Seconds of history each rolling metrics window keeps.
    pub metrics_window_s: usize,
    /// Times one request may be requeued after a worker panic before the
    /// supervisor answers it with [`ServeError::WorkerFailed`] (0 = fail
    /// on the first panic).
    pub retry_budget: u32,
    /// Overload circuit breaker at admission (`None` = always admit).
    pub breaker: Option<BreakerConfig>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::default(),
            workers: 2,
            metrics_window_s: DEFAULT_METRICS_WINDOW_S,
            retry_budget: 2,
            breaker: None,
        }
    }
}

impl PoolConfig {
    /// Reject zero workers (and an unusable breaker) on top of
    /// [`ServeConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.serve.validate()?;
        if self.workers < 1 {
            return Err(ConfigError::invalid(
                "serve.workers",
                self.workers,
                ">= 1 worker",
            ));
        }
        if let Some(breaker) = &self.breaker {
            breaker.validate()?;
        }
        Ok(())
    }
}

/// One frozen artifact generation: the predictor plus the cache-key epoch
/// (its artifact checksum) that keeps its rows from aliasing other
/// generations'.
struct Generation<P> {
    predictor: P,
    cache_epoch: u64,
}

struct QueueState {
    pending: VecDeque<PendingRequest>,
    closed: bool,
    /// Workers blocked waiting for a request: admission wakes one only
    /// then (a condvar notify is a syscall even with no waiter).
    idle: usize,
}

struct WorkerState {
    window: RollingWindow,
    lifetime_lat: HistSnapshot,
    stats: ServeStats,
    busy: Duration,
    panics: u64,
    respawns: u64,
}

struct AdmissionState {
    window: RollingWindow,
    shed: u64,
    rejected: u64,
}

struct Shared<P> {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    cell: SwapCell<Generation<P>>,
    cache: Option<RowCache>,
    admission: Mutex<AdmissionState>,
    workers: Vec<Mutex<WorkerState>>,
    /// Worker threads, including replacements spawned by the supervisor;
    /// [`ServePool::drain`] pops until this drains.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Every worker (original or respawned) and shutdown deliver here.
    sink: Box<dyn ReplySink>,
    retry_budget: u32,
    breaker: Option<Mutex<CircuitBreaker>>,
}

/// Final per-worker accounting from [`ServePool::shutdown`].
#[derive(Clone, Copy, Debug)]
pub struct WorkerReport {
    /// Worker index (0-based).
    pub worker: usize,
    /// Requests this worker answered.
    pub requests: u64,
    /// Batches this worker flushed.
    pub batches: u64,
    /// Wall time this worker spent executing batches, ms.
    pub busy_ms: f64,
    /// `busy_ms` over the pool's total wall time (0..=1 per worker).
    pub utilization: f64,
    /// Batch executions on this slot that panicked (caught + supervised).
    pub panics: u64,
    /// Replacement threads spawned for this slot after panics.
    pub respawns: u64,
}

/// Everything [`ServePool::shutdown`] hands back.
#[derive(Clone, Debug)]
pub struct PoolReport {
    /// Counters merged across admission and every worker.
    pub stats: ServeStats,
    /// Pool lifetime, ms (construction to shutdown).
    pub wall_ms: f64,
    /// Per-worker breakdown, indexed by worker id.
    pub workers: Vec<WorkerReport>,
    /// Times the overload breaker tripped open (0 without a breaker).
    pub breaker_trips: u64,
}

/// N supervised serve workers over one bounded queue and a hot-swappable
/// predictor.
pub struct ServePool<P: Predictor + Send + Sync + 'static> {
    shared: Arc<Shared<P>>,
    started: Instant,
}

impl<P: Predictor + Send + Sync + 'static> ServePool<P> {
    /// Spawn `cfg.workers` threads serving `predictor`. `cache_epoch` must
    /// identify the frozen model (the artifact checksum). Workers deliver
    /// each completed batch's replies to `sink`.
    pub fn new(
        predictor: P,
        cfg: PoolConfig,
        cache_epoch: u64,
        sink: impl ReplySink,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let breaker = match &cfg.breaker {
            Some(bc) => Some(Mutex::new(CircuitBreaker::new(bc.clone())?)),
            None => None,
        };
        let cache = (cfg.serve.cache_capacity > 0)
            .then(|| ShardedLru::new(cfg.serve.cache_capacity, cfg.workers));
        let shared = Arc::new(Shared {
            cfg: cfg.serve.clone(),
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
                idle: 0,
            }),
            available: Condvar::new(),
            cell: SwapCell::new(Arc::new(Generation {
                predictor,
                cache_epoch,
            })),
            cache,
            admission: Mutex::new(AdmissionState {
                window: RollingWindow::new(cfg.metrics_window_s),
                shed: 0,
                rejected: 0,
            }),
            workers: (0..cfg.workers)
                .map(|_| {
                    Mutex::new(WorkerState {
                        window: RollingWindow::new(cfg.metrics_window_s),
                        lifetime_lat: HistSnapshot::new(),
                        stats: ServeStats::default(),
                        busy: Duration::ZERO,
                        panics: 0,
                        respawns: 0,
                    })
                })
                .collect(),
            handles: Mutex::new(Vec::with_capacity(cfg.workers)),
            sink: Box::new(sink),
            retry_budget: cfg.retry_budget,
            breaker,
        });
        {
            let mut handles = shared.handles.lock().unwrap();
            for idx in 0..cfg.workers {
                handles.push(spawn_worker(&shared, idx));
            }
        }
        Ok(Self {
            shared,
            started: Instant::now(),
        })
    }

    /// Enqueue a request — node ids or raw feature rows
    /// ([`rdd_models::PredictRequest`]). Replies never come back through
    /// this call: the worker that answers the request delivers its reply
    /// to the pool's [`ReplySink`].
    pub fn submit(&self, id: u64, req: rdd_models::PredictRequest) -> Result<(), ServeError> {
        self.submit_with_deadline(id, req, None)
    }

    /// [`ServePool::submit`] with an optional deadline: the dispatching
    /// worker sheds the request with a typed [`ServeError::Expired`] reply
    /// if the instant passes first.
    pub fn submit_with_deadline(
        &self,
        id: u64,
        req: rdd_models::PredictRequest,
        deadline: Option<Instant>,
    ) -> Result<(), ServeError> {
        if let Some(breaker) = &self.shared.breaker {
            let verdict = breaker.lock().unwrap().admit(Instant::now());
            if let Err(e) = verdict {
                self.shared.admission.lock().unwrap().rejected += 1;
                return Err(e);
            }
        }
        let (depth, wake) = {
            let mut q = self.shared.queue.lock().unwrap();
            if q.closed {
                return Err(ServeError::ShuttingDown);
            }
            if q.pending.len() >= self.shared.cfg.queue_capacity {
                drop(q);
                {
                    let mut a = self.shared.admission.lock().unwrap();
                    a.shed += 1;
                    a.window.record_shed(ShedCause::QueueFull);
                }
                // Queue-full sheds are overload signal the breaker's shed
                // rate watches (its own rejections are not).
                if let Some(breaker) = &self.shared.breaker {
                    breaker.lock().unwrap().record_shed(Instant::now());
                }
                return Err(ServeError::QueueFull {
                    capacity: self.shared.cfg.queue_capacity,
                });
            }
            q.pending.push_back(PendingRequest {
                id,
                req,
                enqueued: Instant::now(),
                deadline,
                retries: 0,
            });
            (q.pending.len(), q.idle > 0)
        };
        if wake {
            self.shared.available.notify_one();
        }
        let mut a = self.shared.admission.lock().unwrap();
        a.window.record_queue_depth(depth);
        Ok(())
    }

    /// The current artifact generation (0 until the first swap).
    pub fn generation(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// Atomically publish a new predictor as the next generation and
    /// return its generation number. In-flight batches finish on the
    /// generation they started with; queued requests dispatch on the new
    /// one. `cache_epoch` (the new artifact's checksum) keys the new
    /// generation's cache rows, so the old generation's entries are dead
    /// by key and age out of the LRU without an explicit purge.
    pub fn swap(&self, predictor: P, cache_epoch: u64) -> u64 {
        let generation = self.shared.cell.swap(Arc::new(Generation {
            predictor,
            cache_epoch,
        }));
        // Wake idle workers so nobody sleeps across a generation roll.
        self.shared.available.notify_all();
        generation
    }

    /// Validation-gated [`ServePool::swap`]: reject a replacement that
    /// live traffic cannot be served by, keeping the current generation
    /// installed. This is the only swap path the artifact-watch loop may
    /// use — a partially-loaded or shape-changed predictor never goes
    /// live.
    pub fn try_swap(&self, predictor: P, cache_epoch: u64) -> Result<u64, ServeError> {
        let (live, _) = self.shared.cell.load();
        if predictor.num_classes() != live.predictor.num_classes() {
            return Err(ServeError::SwapRejected(format!(
                "num_classes changed: live {}, replacement {}",
                live.predictor.num_classes(),
                predictor.num_classes()
            )));
        }
        if predictor.num_nodes() == 0 {
            return Err(ServeError::SwapRejected(
                "replacement predictor serves zero nodes".to_string(),
            ));
        }
        drop(live);
        Ok(self.swap(predictor, cache_epoch))
    }

    /// Live metrics merged across the admission window and every worker's
    /// rolling window, with the breaker's current state (if configured).
    pub fn metrics(&self) -> ServeMetricsSnapshot {
        let mut acc = WindowAccum::new();
        self.shared
            .admission
            .lock()
            .unwrap()
            .window
            .accumulate(&mut acc);
        for w in &self.shared.workers {
            w.lock().unwrap().window.accumulate(&mut acc);
        }
        let mut snapshot = acc.finalize();
        if let Some(breaker) = &self.shared.breaker {
            snapshot.breaker = Some(breaker.lock().unwrap().state().as_str());
        }
        snapshot
    }

    /// Pool-lifetime counters merged across admission and every worker.
    pub fn stats(&self) -> ServeStats {
        let mut stats = {
            let a = self.shared.admission.lock().unwrap();
            ServeStats {
                shed: a.shed,
                rejected: a.rejected,
                ..ServeStats::default()
            }
        };
        for w in &self.shared.workers {
            stats.merge(&w.lock().unwrap().stats);
        }
        stats
    }

    /// Close the queue and block until the workers have answered every
    /// admitted request and exited. Later submissions get typed
    /// [`ServeError::ShuttingDown`] errors; [`ServePool::metrics`] and
    /// [`ServePool::stats`] still read the final state.
    pub fn drain(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            if q.closed && self.shared.handles.lock().unwrap().is_empty() {
                return;
            }
            q.closed = true;
        }
        self.shared.available.notify_all();
        // A joined worker may have pushed a replacement handle before it
        // died (push happens-before its exit, exit happens-before the join
        // returns), so keep popping until the list drains.
        loop {
            let handle = self.shared.handles.lock().unwrap().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }

    /// Close the queue, let the workers drain every already-admitted
    /// request, join them (including supervisor-respawned replacements),
    /// answer anything still queued with typed [`ServeError::ShuttingDown`]
    /// replies, publish per-worker latency histograms as
    /// `serve.worker<i>.request_ns` hist events, and report final
    /// counters + per-worker utilization/panics/respawns.
    pub fn shutdown(self) -> PoolReport {
        self.drain();
        // Workers normally drain the queue before exiting; anything left
        // (all replacements dead, drop-path races) is answered, not
        // dropped with the VecDeque.
        let stranded: Vec<PendingRequest> = {
            let mut q = self.shared.queue.lock().unwrap();
            q.pending.drain(..).collect()
        };
        let generation = self.shared.cell.epoch();
        refuse(&*self.shared.sink, stranded, generation, |_| {
            ServeError::ShuttingDown
        });
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let mut workers = Vec::with_capacity(self.shared.workers.len());
        for (i, w) in self.shared.workers.iter().enumerate() {
            let w = w.lock().unwrap();
            rdd_obs::emit_hist_snapshot(&format!("serve.worker{i}.request_ns"), &w.lifetime_lat);
            let busy_ms = w.busy.as_secs_f64() * 1e3;
            workers.push(WorkerReport {
                worker: i,
                requests: w.stats.requests,
                batches: w.stats.batches,
                busy_ms,
                utilization: if wall_ms > 0.0 {
                    busy_ms / wall_ms
                } else {
                    0.0
                },
                panics: w.panics,
                respawns: w.respawns,
            });
        }
        PoolReport {
            stats: self.stats(),
            wall_ms,
            workers,
            breaker_trips: self
                .shared
                .breaker
                .as_ref()
                .map_or(0, |b| b.lock().unwrap().trips()),
        }
    }
}

impl<P: Predictor + Send + Sync + 'static> Drop for ServePool<P> {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Spawn one worker thread for slot `idx` (initial spawn and supervisor
/// respawns go through the same path).
fn spawn_worker<P: Predictor + Send + Sync + 'static>(
    shared: &Arc<Shared<P>>,
    idx: usize,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("rdd-serve-{idx}"))
        .spawn(move || worker_loop(&shared, idx))
        .expect("spawn serve worker")
}

fn worker_loop<P: Predictor + Send + Sync + 'static>(shared: &Arc<Shared<P>>, idx: usize) {
    let (mut generation, mut seen) = shared.cell.load();
    loop {
        // Claim a batch: whatever is queued, up to batch_size requests,
        // right away; sleep only while the queue is empty and open.
        let batch: Vec<PendingRequest> = {
            let mut q = shared.queue.lock().unwrap();
            while q.pending.is_empty() && !q.closed {
                q.idle += 1;
                q = shared.available.wait(q).unwrap();
                q.idle -= 1;
            }
            let take = q.pending.len().min(shared.cfg.batch_size);
            q.pending.drain(..take).collect()
        };
        if batch.is_empty() {
            return; // closed and drained
        }

        // One atomic load per batch; the lock is taken only right after a
        // swap. The Arc stays pinned for the whole batch, so these
        // requests finish on the generation they were dispatched with.
        if let Some((g, e)) = shared.cell.load_if_newer(seen) {
            generation = g;
            seen = e;
        }
        // Supervision: run the flush core behind catch_unwind on a
        // borrowed batch, so a panicking batch can be requeued. Both
        // injected sites (`panic@serve_worker` here, `panic@serve_batch`
        // inside the core) unwind into this catch without any lock held.
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if rdd_obs::fault::fire("serve_worker") == Some(rdd_obs::FaultKind::Panic) {
                panic!("injected panic at serve_worker (RDD_FAULT)");
            }
            execute_batch(
                idx,
                &generation.predictor,
                generation.cache_epoch,
                seen,
                &batch,
                shared.cache.as_ref(),
            )
        }));
        let busy = t0.elapsed();
        let out = match outcome {
            Ok(out) => out,
            Err(_) => {
                supervise_panic(shared, idx, seen, batch);
                return; // the replacement thread takes over this slot
            }
        };
        {
            let w = &mut *shared.workers[idx].lock().unwrap();
            w.busy += busy;
            out.record(&mut w.stats, Some(&mut w.window));
            for &lat_ms in &out.latencies {
                w.lifetime_lat.record((lat_ms * 1e6) as u64);
            }
        }
        // Completed-request latencies are the breaker's trip/recovery
        // signal; one lock per batch.
        if let Some(breaker) = &shared.breaker {
            let mut b = breaker.lock().unwrap();
            let now = Instant::now();
            for &lat_ms in &out.latencies {
                b.record_request(lat_ms, now);
            }
        }
        shared.sink.deliver(out.replies);
    }
}

/// The supervisor path a worker runs after catching a batch panic:
/// requeue what still has retry budget, answer the rest with typed
/// [`ServeError::WorkerFailed`] replies, account the panic, and spawn a
/// replacement thread for this slot before the caller exits.
fn supervise_panic<P: Predictor + Send + Sync + 'static>(
    shared: &Arc<Shared<P>>,
    idx: usize,
    generation: u64,
    saved: Vec<PendingRequest>,
) {
    let claimed = saved.len();
    let (retryable, spent): (Vec<_>, Vec<_>) = saved
        .into_iter()
        .partition(|req| req.retries < shared.retry_budget);
    let requeued = retryable.len();
    if requeued > 0 {
        {
            let mut q = shared.queue.lock().unwrap();
            // push_front in reverse keeps the original arrival order at
            // the head of the queue.
            for mut req in retryable.into_iter().rev() {
                req.retries += 1;
                q.pending.push_front(req);
            }
        }
        shared.available.notify_all();
    }
    let failed = spent.len();
    refuse(&*shared.sink, spent, generation, |req| {
        ServeError::WorkerFailed {
            retries: req.retries,
        }
    });
    let respawns = {
        let mut w = shared.workers[idx].lock().unwrap();
        w.panics += 1;
        w.stats.requests += failed as u64;
        w.stats.failed += failed as u64;
        w.respawns + 1
    };
    rdd_obs::emit_worker_panic(idx, claimed, requeued, failed);
    // Spawn the replacement before this thread exits; drain keeps popping
    // handles until the list is empty, so the new handle is always joined.
    let handle = spawn_worker(shared, idx);
    shared.handles.lock().unwrap().push(handle);
    shared.workers[idx].lock().unwrap().respawns = respawns;
    rdd_obs::emit_worker_respawn(idx, respawns);
}

/// Answer `reqs` with the typed error `error` gives each, as one delivery.
fn refuse(
    sink: &dyn ReplySink,
    reqs: Vec<PendingRequest>,
    generation: u64,
    error: impl Fn(&PendingRequest) -> ServeError,
) {
    if reqs.is_empty() {
        return;
    }
    sink.deliver(
        reqs.iter()
            .map(|req| ServeReply {
                id: req.id,
                result: Err(error(req)),
                latency_ms: req.enqueued.elapsed().as_secs_f64() * 1e3,
                cache_hits: 0,
                generation,
            })
            .collect(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdd_models::{gather_prediction, PredictError, PredictRequest, Prediction};
    use rdd_tensor::Matrix;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use crate::testutil::FAULT_LOCK;

    /// Fault sites are process-global: every test that starts pool workers
    /// holds this lock, so a `panic@serve_worker` armed by another test can
    /// never fire in its workers (nor its workers use up that test's fires).
    fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Thread-safe fake: proba(node) = f(node, tag), counting executions
    /// and logging the node rows of every call. A gate, when set, holds
    /// the first call: it signals entry on the first channel, then waits
    /// for the test to send on the second.
    struct FakePredictor {
        proba: Matrix,
        nodes_executed: AtomicUsize,
        rows_per_call: Arc<Mutex<Vec<usize>>>,
        gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl FakePredictor {
        fn new(n: usize, k: usize, tag: usize) -> Self {
            let mut data = Vec::with_capacity(n * k);
            for i in 0..n {
                for j in 0..k {
                    data.push(((i * 31 + j * 7 + tag * 101) % 13) as f32 / 13.0 + 0.01);
                }
            }
            Self {
                proba: Matrix::from_vec(n, k, data),
                nodes_executed: AtomicUsize::new(0),
                rows_per_call: Arc::default(),
                gate: Mutex::new(None),
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
            // Feature rows: dim must equal k; answer softmax(row) — a
            // deterministic stand-in for a distilled student forward.
            if let PredictRequest::ByFeatures(rows) = req {
                if rows.cols() != self.proba.cols() {
                    return Err(PredictError::FeatureDimMismatch {
                        got: rows.cols(),
                        expected: self.proba.cols(),
                    });
                }
                let proba = rows.softmax_rows();
                return Ok(Prediction {
                    nodes: (0..rows.rows()).collect(),
                    pred: proba.argmax_rows(),
                    proba,
                    kind: rdd_models::PredictionKind::Features,
                });
            }
            let gate = self.gate.lock().unwrap().take();
            if let Some((entered, open)) = gate {
                entered.send(()).unwrap();
                // Bounded, so a failing test still shuts the pool down.
                let _ = open.recv_timeout(Duration::from_secs(10));
            }
            let out = gather_prediction(&self.proba, req)?;
            self.nodes_executed
                .fetch_add(out.nodes.len(), Ordering::Relaxed);
            self.rows_per_call.lock().unwrap().push(out.nodes.len());
            Ok(out)
        }
    }

    /// Collect `n` replies, failing instead of hanging if one never comes.
    fn recv_n(rx: &mpsc::Receiver<ServeReply>, n: usize) -> Vec<ServeReply> {
        (0..n)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).expect("reply"))
            .collect()
    }

    /// Requests queued and not yet claimed by a worker.
    fn queued(pool: &ServePool<FakePredictor>) -> usize {
        pool.shared.queue.lock().unwrap().pending.len()
    }

    fn uncached(batch_size: usize) -> PoolConfig {
        PoolConfig {
            serve: ServeConfig {
                batch_size,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            workers: 1,
            ..PoolConfig::default()
        }
    }

    #[test]
    fn busy_worker_claims_the_backlog_in_full_batches() {
        let _guard = fault_guard();
        // The worker is held inside its first batch while 40 requests
        // queue; once released it claims them at once: 32, then 8.
        let (entered_tx, entered) = mpsc::channel();
        let (open, open_rx) = mpsc::channel();
        let fake = FakePredictor::new(64, 3, 0);
        *fake.gate.lock().unwrap() = Some((entered_tx, open_rx));
        let rows = Arc::clone(&fake.rows_per_call);
        let (tx, rx) = mpsc::channel();
        let pool = ServePool::new(fake, uncached(32), 1, tx).unwrap();
        pool.submit(0, PredictRequest::nodes(vec![0])).unwrap();
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("the worker claims a lone request");
        for id in 1..=40u64 {
            pool.submit(id, PredictRequest::nodes(vec![id as usize]))
                .unwrap();
        }
        assert_eq!(queued(&pool), 40, "a busy worker leaves arrivals queued");
        open.send(()).unwrap();
        let ids: Vec<u64> = recv_n(&rx, 41).iter().map(|r| r.id).collect();
        assert_eq!(queued(&pool), 0);
        let report = pool.shutdown();
        assert_eq!(ids, (0..=40).collect::<Vec<_>>(), "one worker answers FIFO");
        assert_eq!(*rows.lock().unwrap(), vec![1, 32, 8]);
        assert_eq!(report.stats.batches, 3);
    }

    #[test]
    fn one_at_a_time_closed_loop_never_waits_for_company() {
        let _guard = fault_guard();
        // Each request is answered before the next is sent: a worker
        // that waited for a fuller batch would hang this loop.
        let fake = FakePredictor::new(16, 3, 0);
        let rows = Arc::clone(&fake.rows_per_call);
        let (tx, rx) = mpsc::channel();
        let pool = ServePool::new(fake, uncached(32), 1, tx).unwrap();
        for id in 0..12u64 {
            pool.submit(id, PredictRequest::nodes(vec![id as usize]))
                .unwrap();
            assert_eq!(recv_n(&rx, 1)[0].id, id);
        }
        let report = pool.shutdown();
        assert_eq!(report.stats.requests, 12);
        assert_eq!(report.stats.batches, report.stats.requests);
        assert_eq!(*rows.lock().unwrap(), vec![1; 12]);
    }

    #[test]
    fn pooled_hammer_mixes_node_and_feature_requests() {
        let _guard = fault_guard();
        let (tx, rx) = mpsc::channel();
        let cfg = PoolConfig {
            serve: ServeConfig {
                batch_size: 4,
                ..ServeConfig::default()
            },
            workers: 3,
            ..PoolConfig::default()
        };
        let pool = ServePool::new(FakePredictor::new(24, 3, 0), cfg, 0xfab, tx).unwrap();
        // Even ids ask for a node row, odd ids send a raw feature vector
        // whose softmax (the fake's student forward) is predictable.
        for id in 0..60u64 {
            if id % 2 == 0 {
                pool.submit(id, PredictRequest::nodes(vec![(id % 24) as usize]))
                    .unwrap();
            } else {
                let row = Matrix::from_fn(1, 3, |_, j| (id as usize * 7 + j) as f32 * 0.01);
                pool.submit(id, PredictRequest::features(row)).unwrap();
            }
        }
        let report = pool.shutdown();
        let replies: Vec<ServeReply> = rx.into_iter().collect();
        assert_eq!(replies.len(), 60, "every mixed request gets a reply");
        for r in &replies {
            let p = r.result.as_ref().expect("mixed traffic all serves");
            if r.id % 2 == 0 {
                assert_eq!(p.kind, rdd_models::PredictionKind::Node);
                assert_eq!(p.nodes, vec![(r.id % 24) as usize]);
            } else {
                assert_eq!(p.kind, rdd_models::PredictionKind::Features);
                assert_eq!(p.nodes, vec![0]);
                let row = Matrix::from_fn(1, 3, |_, j| (r.id as usize * 7 + j) as f32 * 0.01);
                assert_eq!(
                    p.proba.as_slice(),
                    row.softmax_rows().as_slice(),
                    "served feature row must be bitwise vs the direct forward"
                );
            }
        }
        assert_eq!(report.stats.requests, 60);
        assert_eq!(report.stats.feature_rows, 30);
        assert_eq!(report.stats.failed, 0);
    }

    #[test]
    fn config_rejects_zero_workers_and_bad_breaker() {
        let cfg = PoolConfig {
            workers: 0,
            ..PoolConfig::default()
        };
        assert_eq!(cfg.validate().unwrap_err().field, "serve.workers");
        let cfg = PoolConfig {
            breaker: Some(BreakerConfig::with_p99_ms(0.0)),
            ..PoolConfig::default()
        };
        assert_eq!(cfg.validate().unwrap_err().field, "breaker.p99_ms");
    }

    #[test]
    fn pool_serves_every_request_exactly_once() {
        let _guard = fault_guard();
        let (tx, rx) = mpsc::channel();
        let cfg = PoolConfig {
            serve: ServeConfig {
                batch_size: 4,
                ..ServeConfig::default()
            },
            workers: 3,
            ..PoolConfig::default()
        };
        let pool = ServePool::new(FakePredictor::new(24, 3, 0), cfg, 0xfeed, tx).unwrap();
        for id in 0..50u64 {
            pool.submit(id, PredictRequest::nodes(vec![(id % 24) as usize]))
                .unwrap();
        }
        let report = pool.shutdown();
        let replies: Vec<ServeReply> = rx.into_iter().collect();
        assert_eq!(replies.len(), 50, "every admitted request gets a reply");
        let mut ids: Vec<u64> = replies.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..50).collect::<Vec<_>>(),
            "no lost or duplicated ids"
        );
        assert_eq!(report.stats.requests, 50);
        assert_eq!(report.workers.len(), 3);
        let worked: u64 = report.workers.iter().map(|w| w.requests).sum();
        assert_eq!(worked, 50);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.breaker_trips, 0);
    }

    #[test]
    fn submit_after_shutdown_is_typed_shutting_down() {
        let _guard = fault_guard();
        let (tx, _rx) = mpsc::channel();
        let pool =
            ServePool::new(FakePredictor::new(8, 2, 0), PoolConfig::default(), 1, tx).unwrap();
        pool.drain();
        assert!(matches!(
            pool.submit(0, PredictRequest::nodes(vec![1])),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn swap_changes_generation_for_new_requests() {
        let _guard = fault_guard();
        let (tx, rx) = mpsc::channel();
        let cfg = PoolConfig {
            serve: ServeConfig {
                batch_size: 1,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            workers: 1,
            ..PoolConfig::default()
        };
        let pool = ServePool::new(FakePredictor::new(8, 2, 0), cfg, 11, tx).unwrap();
        assert_eq!(pool.generation(), 0);
        pool.submit(0, PredictRequest::nodes(vec![1])).unwrap();
        let first = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(first.generation, 0);
        let generation = pool.swap(FakePredictor::new(8, 2, 7), 22);
        assert_eq!(generation, 1);
        pool.submit(1, PredictRequest::nodes(vec![1])).unwrap();
        let second = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(second.generation, 1);
        // The two generations produced different rows for the same node.
        let a = first.result.unwrap();
        let b = second.result.unwrap();
        assert_ne!(a.proba.as_slice(), b.proba.as_slice());
        pool.shutdown();
    }

    #[test]
    fn try_swap_rejects_shape_changes_and_installs_valid_replacements() {
        let _guard = fault_guard();
        let (tx, _rx) = mpsc::channel();
        let cfg = PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        };
        let pool = ServePool::new(FakePredictor::new(8, 2, 0), cfg, 1, tx).unwrap();
        let err = pool.try_swap(FakePredictor::new(8, 3, 1), 2).unwrap_err();
        assert!(
            matches!(&err, ServeError::SwapRejected(msg) if msg.contains("num_classes")),
            "got {err:?}"
        );
        assert_eq!(pool.generation(), 0, "rejected swap must not go live");
        let generation = pool.try_swap(FakePredictor::new(8, 2, 1), 2).unwrap();
        assert_eq!(generation, 1);
        pool.shutdown();
    }

    #[test]
    fn panicking_worker_requeues_batch_and_respawns() {
        let _guard = fault_guard();
        rdd_obs::fault::arm("panic@serve_worker:0x1").unwrap();
        let (tx, rx) = mpsc::channel();
        let cfg = PoolConfig {
            serve: ServeConfig {
                batch_size: 4,
                ..ServeConfig::default()
            },
            workers: 1,
            ..PoolConfig::default()
        };
        let pool = ServePool::new(FakePredictor::new(16, 3, 0), cfg, 7, tx).unwrap();
        for id in 0..12u64 {
            pool.submit(id, PredictRequest::nodes(vec![(id % 16) as usize]))
                .unwrap();
        }
        let mut replies = Vec::with_capacity(12);
        for _ in 0..12 {
            replies.push(
                rx.recv_timeout(Duration::from_secs(20))
                    .expect("every request must be answered despite the panic"),
            );
        }
        rdd_obs::fault::disarm();
        let report = pool.shutdown();
        assert!(
            replies.iter().all(|r| r.result.is_ok()),
            "requeued requests must succeed once the replacement worker runs"
        );
        let mut ids: Vec<u64> = replies.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        assert_eq!(report.workers.iter().map(|w| w.panics).sum::<u64>(), 1);
        assert!(report.workers.iter().map(|w| w.respawns).sum::<u64>() >= 1);
        assert_eq!(report.stats.failed, 0);
    }

    #[test]
    fn spent_retry_budget_answers_typed_worker_failed() {
        let _guard = fault_guard();
        // k=8 covers the worst case (4 singleton first attempts + 4
        // singleton retries); every batch containing a request panics
        // until all requests are answered.
        rdd_obs::fault::arm("panic@serve_worker:0x8").unwrap();
        let (tx, rx) = mpsc::channel();
        let cfg = PoolConfig {
            serve: ServeConfig {
                batch_size: 4,
                ..ServeConfig::default()
            },
            workers: 1,
            retry_budget: 1,
            ..PoolConfig::default()
        };
        let pool = ServePool::new(FakePredictor::new(8, 2, 0), cfg, 3, tx).unwrap();
        for id in 0..4u64 {
            pool.submit(id, PredictRequest::nodes(vec![(id % 8) as usize]))
                .unwrap();
        }
        let mut replies = Vec::with_capacity(4);
        for _ in 0..4 {
            replies.push(
                rx.recv_timeout(Duration::from_secs(20))
                    .expect("spent-budget requests must still be answered"),
            );
        }
        rdd_obs::fault::disarm();
        let report = pool.shutdown();
        for reply in &replies {
            assert!(
                matches!(reply.result, Err(ServeError::WorkerFailed { retries: 1 })),
                "expected WorkerFailed after 1 retry, got {:?}",
                reply.result
            );
        }
        assert_eq!(report.stats.failed, 4);
        assert!(report.workers.iter().map(|w| w.panics).sum::<u64>() >= 2);
    }

    /// A one-worker pool with a row cache whose worker is held inside
    /// request 0 (node 0) while requests 1..=4 (node 1) fill its 4-slot
    /// queue. Send on the returned sender to release the worker.
    fn held_full_pool(
        breaker: Option<BreakerConfig>,
    ) -> (
        ServePool<FakePredictor>,
        mpsc::Sender<()>,
        mpsc::Receiver<ServeReply>,
    ) {
        let (entered_tx, entered) = mpsc::channel();
        let (open, open_rx) = mpsc::channel();
        let fake = FakePredictor::new(8, 2, 0);
        *fake.gate.lock().unwrap() = Some((entered_tx, open_rx));
        let cfg = PoolConfig {
            serve: ServeConfig {
                batch_size: 32,
                cache_capacity: 64,
                queue_capacity: 4,
            },
            workers: 1,
            breaker,
            ..PoolConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let pool = ServePool::new(fake, cfg, 1, tx).unwrap();
        pool.submit(0, PredictRequest::nodes(vec![0])).unwrap();
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("the worker claims request 0");
        for id in 1..=4u64 {
            pool.submit(id, PredictRequest::nodes(vec![1])).unwrap();
        }
        (pool, open, rx)
    }

    #[test]
    fn queue_full_is_a_typed_shed_counted_in_stats_and_metrics() {
        let _guard = fault_guard();
        let (pool, open, rx) = held_full_pool(None);
        match pool.submit(5, PredictRequest::nodes(vec![1])) {
            Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 4),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(pool.stats().shed, 1);
        assert_eq!(pool.metrics().shed, 1);
        open.send(()).unwrap();
        let ids: Vec<u64> = recv_n(&rx, 5).iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            (0..=4).collect::<Vec<_>>(),
            "the shed request is never answered"
        );
        // Node 1 again: the first cache hit (the batch of four looked its
        // rows up before executing them).
        pool.submit(6, PredictRequest::nodes(vec![1])).unwrap();
        assert_eq!(recv_n(&rx, 1)[0].cache_hits, 1);
        let m = pool.metrics();
        assert_eq!(m.requests, 6);
        assert_eq!(
            m.queue_peak, 4,
            "four requests were queued behind the worker"
        );
        assert!(
            (m.hit_rate - 1.0 / 6.0).abs() < 1e-12,
            "1 of 6 rows was a hit"
        );
        assert!(m.p50_ms >= 0.0 && m.p99_ms >= m.p50_ms);
        assert!(m.window_s >= 1);
        let report = pool.shutdown();
        assert_eq!(report.stats.shed, 1);
        assert_eq!(report.stats.rejected, 0);
    }

    #[test]
    fn queue_full_sheds_feed_the_breaker_shed_rate() {
        let _guard = fault_guard();
        // No request completes while the worker is held and the latency
        // SLO is out of reach, so only the shed can trip the breaker.
        let breaker = BreakerConfig {
            p99_ms: 1e9,
            shed_rate: 0.5,
            min_requests: 1,
            eval_every_ms: 1,
            open_ms: 60_000,
            max_open_ms: 60_000,
            ..BreakerConfig::default()
        };
        let (pool, open, rx) = held_full_pool(Some(breaker));
        assert!(matches!(
            pool.submit(5, PredictRequest::nodes(vec![1])),
            Err(ServeError::QueueFull { capacity: 4 })
        ));
        // By the next admission past the evaluation cadence the breaker
        // has read a shed rate of 1/1 and tripped; its rejection is not
        // another shed.
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            pool.submit(6, PredictRequest::nodes(vec![1])),
            Err(ServeError::Overloaded { .. })
        ));
        assert_eq!(pool.metrics().breaker, Some("open"));
        assert_eq!(pool.stats().shed, 1);
        assert_eq!(pool.stats().rejected, 1);
        open.send(()).unwrap();
        recv_n(&rx, 5);
        let report = pool.shutdown();
        assert_eq!(report.breaker_trips, 1);
    }

    #[test]
    fn breaker_trips_on_slow_traffic_and_rejects_with_overloaded() {
        let _guard = fault_guard();
        let (tx, rx) = mpsc::channel();
        let cfg = PoolConfig {
            serve: ServeConfig {
                batch_size: 1,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            workers: 1,
            breaker: Some(BreakerConfig {
                // Any real latency exceeds this SLO; stays open for the
                // rest of the test so the assertions are race-free.
                p99_ms: 1e-6,
                min_requests: 1,
                eval_every_ms: 1,
                open_ms: 60_000,
                max_open_ms: 60_000,
                probes: 1,
                ..BreakerConfig::default()
            }),
            ..PoolConfig::default()
        };
        let pool = ServePool::new(FakePredictor::new(8, 2, 0), cfg, 5, tx).unwrap();
        let mut tripped = false;
        for id in 0..200u64 {
            match pool.submit(id, PredictRequest::nodes(vec![1])) {
                Err(ServeError::Overloaded { retry_after_ms }) => {
                    assert!(retry_after_ms > 0.0);
                    tripped = true;
                    break;
                }
                Err(other) => panic!("unexpected error before trip: {other:?}"),
                Ok(()) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        assert!(tripped, "breaker must trip once latencies feed back");
        assert_eq!(pool.metrics().breaker, Some("open"));
        let report = pool.shutdown();
        assert!(report.breaker_trips >= 1);
        assert!(report.stats.rejected >= 1);
        drop(rx);
    }

    #[test]
    fn stranded_requests_are_answered_on_shutdown() {
        let _guard = fault_guard();
        let (tx, rx) = mpsc::channel();
        let cfg = PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        };
        let pool = ServePool::new(FakePredictor::new(8, 2, 0), cfg, 1, tx).unwrap();
        // Stop the worker first, then strand a request in the queue —
        // the state a dead-and-not-replaced worker set would leave.
        pool.drain();
        pool.shared
            .queue
            .lock()
            .unwrap()
            .pending
            .push_back(PendingRequest {
                id: 99,
                req: PredictRequest::all(),
                enqueued: Instant::now(),
                deadline: None,
                retries: 0,
            });
        pool.shutdown();
        let reply = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("stranded request must be answered, not dropped");
        assert_eq!(reply.id, 99);
        assert!(matches!(reply.result, Err(ServeError::ShuttingDown)));
    }
}
