//! The global recorder: JSONL events, counters, gauges, histograms and
//! hierarchical RAII spans.
//!
//! ## Contract
//!
//! The sink is selected once per process by the `RDD_TRACE` environment
//! variable — a file path (truncated at open), the keyword `stderr`, or
//! `off`/empty/unset for disabled — and can be overridden programmatically
//! with [`init_file`] / [`init_stderr`] / [`disable`] (tests and tools do
//! this; the env is only consulted lazily, on the first recorder call).
//!
//! ## Overhead budget
//!
//! Every public entry point starts with [`enabled`], a single relaxed-ish
//! atomic load plus one predictable branch, so a disabled recorder costs
//! ~1 ns per call site and allocates nothing. Metric cells
//! ([`SpanCell`]/[`CounterCell`]/[`GaugeCell`]/[`HistCell`]) are `static`s
//! at the call site: when enabled they update plain atomics — no locks on
//! the hot path. Events are encoded on the emitting thread into a
//! per-thread buffer (registered in a global list so [`flush`] can drain
//! every thread), and buffers are written to the sink a batch at a time
//! under a single mutex, whole lines only — concurrent writers cannot tear
//! a line.
//!
//! ## Span hierarchy
//!
//! Each thread keeps a stack of open spans. A [`SpanCell::enter`] guard
//! pushes a frame; on drop the elapsed time is charged to the cell's
//! *total*, the portion not covered by child spans to its *self* time, and
//! the (child, parent) edge is counted in a small lock-free table — so the
//! summary can attribute `epoch → forward → spmm` without double counting.
//! Every span also feeds a log2-bucket duration histogram
//! ([`super::hist`]), giving approximate p50/p99/p999 per kernel for free.
//!
//! Timestamps are monotonic milliseconds since the first recorder call
//! (`Instant`-based; wall-clock time never enters the trace).

use std::cell::RefCell;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::hist::{AtomicHist, HistSnapshot};
use crate::json::Json;

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static SINK: Mutex<Option<Sink>> = Mutex::new(None);
/// Per-thread line buffers, registered on first use so `flush` sees them all.
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<String>>>>> = Mutex::new(Vec::new());
static SPANS: Mutex<Vec<&'static SpanCell>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<Vec<&'static CounterCell>> = Mutex::new(Vec::new());
static GAUGES: Mutex<Vec<&'static GaugeCell>> = Mutex::new(Vec::new());
static HISTS: Mutex<Vec<&'static HistCell>> = Mutex::new(Vec::new());

/// One open span on this thread's stack.
struct Frame {
    cell: &'static SpanCell,
    start: Instant,
    /// Nanoseconds already covered by completed child spans.
    child_ns: u64,
}

thread_local! {
    /// The per-thread stack of open spans (parent attribution).
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Lines buffered per thread before an automatic drain to the sink.
const BUFFER_LINES: usize = 64;

enum Sink {
    Stderr,
    File(BufWriter<std::fs::File>),
}

impl Sink {
    fn write_lines(&mut self, lines: &[String]) {
        let write_to = |w: &mut dyn Write| {
            for line in lines {
                // Whole-line writes; a failing sink must never panic the
                // training loop, so errors are swallowed.
                let _ = w.write_all(line.as_bytes());
                let _ = w.write_all(b"\n");
            }
        };
        match self {
            Sink::Stderr => write_to(&mut std::io::stderr().lock()),
            Sink::File(w) => write_to(w),
        }
    }

    fn flush_inner(&mut self) {
        if let Sink::File(w) = self {
            let _ = w.flush();
        }
    }
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Monotonic milliseconds since the recorder first ran.
fn now_ms() -> f64 {
    origin().elapsed().as_secs_f64() * 1e3
}

/// Whether tracing is on. The fast path is one atomic load and a branch;
/// the first call per process resolves `RDD_TRACE`.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Acquire) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let mut sink = SINK.lock().unwrap();
    // Another thread may have initialized while we waited for the lock.
    match STATE.load(Ordering::Acquire) {
        ON => return true,
        OFF => return false,
        _ => {}
    }
    origin();
    let target = std::env::var("RDD_TRACE").unwrap_or_default();
    let new_sink = match target.as_str() {
        "" | "off" | "0" => None,
        "stderr" => Some(Sink::Stderr),
        path => match std::fs::File::create(path) {
            Ok(f) => Some(Sink::File(BufWriter::new(f))),
            Err(e) => {
                // Cannot go through `env::reject` here: the SINK lock is
                // held and tracing is about to stay off — share only the
                // message format.
                eprintln!(
                    "{}",
                    crate::env::warn_message("RDD_TRACE", path, &format!("a writable path ({e})"))
                );
                None
            }
        },
    };
    let on = new_sink.is_some();
    *sink = new_sink;
    STATE.store(if on { ON } else { OFF }, Ordering::Release);
    on
}

/// Route events to `path` (truncating it), overriding `RDD_TRACE`.
pub fn init_file(path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    flush();
    let mut sink = SINK.lock().unwrap();
    origin();
    if let Some(s) = sink.as_mut() {
        s.flush_inner();
    }
    *sink = Some(Sink::File(BufWriter::new(file)));
    STATE.store(ON, Ordering::Release);
    Ok(())
}

/// Route events to stderr, overriding `RDD_TRACE`.
pub fn init_stderr() {
    flush();
    let mut sink = SINK.lock().unwrap();
    origin();
    *sink = Some(Sink::Stderr);
    STATE.store(ON, Ordering::Release);
}

/// Flush and drop the sink; subsequent recorder calls are no-ops (until a
/// later `init_*` call re-enables tracing).
pub fn disable() {
    flush();
    let mut sink = SINK.lock().unwrap();
    if let Some(s) = sink.as_mut() {
        s.flush_inner();
    }
    *sink = None;
    STATE.store(OFF, Ordering::Release);
}

fn local_buffer() -> Arc<Mutex<Vec<String>>> {
    thread_local! {
        static LOCAL: Arc<Mutex<Vec<String>>> = {
            let buf = Arc::new(Mutex::new(Vec::new()));
            BUFFERS.lock().unwrap().push(Arc::clone(&buf));
            buf
        };
    }
    LOCAL.with(Arc::clone)
}

/// Emit one event named `name` with the given fields (plus `ev` and `t_ms`).
/// No-op when tracing is off.
pub fn event(name: &str, fields: &[(&str, Json)]) {
    if !enabled() {
        return;
    }
    let mut obj = Vec::with_capacity(fields.len() + 2);
    obj.push(("ev".to_string(), Json::from(name)));
    obj.push(("t_ms".to_string(), Json::Num(now_ms())));
    for (k, v) in fields {
        obj.push((k.to_string(), v.clone()));
    }
    let mut line = String::with_capacity(64);
    Json::Obj(obj).write(&mut line);
    let buf = local_buffer();
    let full = {
        let mut lines = buf.lock().unwrap();
        lines.push(line);
        lines.len() >= BUFFER_LINES
    };
    if full {
        drain_one(&buf);
    }
}

/// A warning that must reach a human: the trace when tracing is on, stderr
/// otherwise.
pub fn warn(msg: &str) {
    if enabled() {
        event("warn", &[("msg", Json::from(msg))]);
    } else {
        eprintln!("{msg}");
    }
}

fn drain_one(buf: &Arc<Mutex<Vec<String>>>) {
    let lines: Vec<String> = std::mem::take(&mut *buf.lock().unwrap());
    if lines.is_empty() {
        return;
    }
    if let Some(sink) = SINK.lock().unwrap().as_mut() {
        sink.write_lines(&lines);
    }
}

/// Drain every thread's buffer, append a cumulative metrics snapshot
/// (`kernel` / `counter` / `gauge` events), and flush the sink. Cheap no-op
/// when tracing is off. Call at the end of a run (the trainer and the CLI
/// already do).
pub fn flush() {
    if STATE.load(Ordering::Acquire) != ON {
        return;
    }
    let mut lines: Vec<String> = Vec::new();
    {
        let buffers = BUFFERS.lock().unwrap();
        for buf in buffers.iter() {
            lines.append(&mut buf.lock().unwrap());
        }
    }
    lines.extend(metric_snapshot_lines());
    let mut sink = SINK.lock().unwrap();
    if let Some(s) = sink.as_mut() {
        s.write_lines(&lines);
        s.flush_inner();
    }
}

/// Encode the cumulative state of every registered metric cell.
fn metric_snapshot_lines() -> Vec<String> {
    let mut out = Vec::new();
    let mut push = |obj: Vec<(String, Json)>| {
        let mut line = String::with_capacity(64);
        Json::Obj(obj).write(&mut line);
        out.push(line);
    };
    let hist_line = |name: &'static str, snap: &HistSnapshot| {
        vec![
            ("ev".to_string(), Json::from("hist")),
            ("t_ms".to_string(), Json::Num(now_ms())),
            ("name".to_string(), Json::from(name)),
            ("count".to_string(), Json::from(snap.count())),
            (
                "buckets".to_string(),
                Json::Arr(snap.trimmed().iter().map(|&c| Json::from(c)).collect()),
            ),
        ]
    };
    for cell in SPANS.lock().unwrap().iter() {
        let calls = cell.count.load(Ordering::Relaxed);
        let ns = cell.ns.load(Ordering::Relaxed);
        let self_ns = cell.self_ns.load(Ordering::Relaxed);
        push(vec![
            ("ev".into(), Json::from("kernel")),
            ("t_ms".into(), Json::Num(now_ms())),
            ("name".into(), Json::from(cell.name)),
            ("calls".into(), Json::from(calls)),
            ("total_ms".into(), Json::Num(ns as f64 / 1e6)),
            ("self_ms".into(), Json::Num(self_ns as f64 / 1e6)),
        ]);
        push(hist_line(cell.name, &cell.hist.snapshot()));
        for (parent, calls) in cell.parent_edges() {
            push(vec![
                ("ev".into(), Json::from("span_parent")),
                ("t_ms".into(), Json::Num(now_ms())),
                ("child".into(), Json::from(cell.name)),
                ("parent".into(), Json::from(parent)),
                ("calls".into(), Json::from(calls)),
            ]);
        }
    }
    for cell in HISTS.lock().unwrap().iter() {
        push(hist_line(cell.name, &cell.hist.snapshot()));
    }
    for cell in COUNTERS.lock().unwrap().iter() {
        push(vec![
            ("ev".into(), Json::from("counter")),
            ("t_ms".into(), Json::Num(now_ms())),
            ("name".into(), Json::from(cell.name)),
            (
                "value".into(),
                Json::from(cell.value.load(Ordering::Relaxed)),
            ),
        ]);
    }
    for cell in GAUGES.lock().unwrap().iter() {
        push(vec![
            ("ev".into(), Json::from("gauge")),
            ("t_ms".into(), Json::Num(now_ms())),
            ("name".into(), Json::from(cell.name)),
            (
                "value".into(),
                Json::from(cell.value.load(Ordering::Relaxed)),
            ),
        ]);
    }
    out
}

/// Distinct parents tracked per span cell; edges beyond this are dropped
/// (a kernel is entered under a handful of stages at most).
const PARENT_SLOTS: usize = 8;

/// One lock-free (child, parent) edge counter.
struct ParentSlot {
    parent: AtomicPtr<SpanCell>,
    count: AtomicU64,
}

impl ParentSlot {
    const fn new() -> Self {
        Self {
            parent: AtomicPtr::new(std::ptr::null_mut()),
            count: AtomicU64::new(0),
        }
    }
}

/// Wall-time aggregation for one kernel or pipeline stage. Declare one
/// `static` per site and guard the body with [`SpanCell::enter`]:
///
/// ```
/// static MATMUL: rdd_obs::SpanCell = rdd_obs::SpanCell::new("matmul");
/// fn matmul_kernel() {
///     let _span = MATMUL.enter();
///     // ... kernel body ...
/// }
/// ```
///
/// Per call the cell accumulates *total* time, *self* time (total minus
/// completed child spans on the same thread), a log2-bucket duration
/// histogram, and the (child, parent) edge to the enclosing span. Totals
/// are cumulative per process and appear as `kernel` + `hist` +
/// `span_parent` events at every [`flush`] (a summary reads the last
/// snapshot per name).
pub struct SpanCell {
    name: &'static str,
    count: AtomicU64,
    ns: AtomicU64,
    self_ns: AtomicU64,
    hist: AtomicHist,
    parents: [ParentSlot; PARENT_SLOTS],
    registered: AtomicBool,
}

impl SpanCell {
    /// A new cell; `const` so it can be a `static` at the call site.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            count: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            hist: AtomicHist::new(),
            parents: [const { ParentSlot::new() }; PARENT_SLOTS],
            registered: AtomicBool::new(false),
        }
    }

    /// Start timing; the returned guard records on drop. One atomic load
    /// when tracing is off.
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            SPANS.lock().unwrap().push(self);
        }
        let start = Instant::now();
        // `try_with`: never panic during thread teardown; the span then
        // simply records without parent attribution.
        let _ = SPAN_STACK.try_with(|s| {
            s.borrow_mut().push(Frame {
                cell: self,
                start,
                child_ns: 0,
            })
        });
        SpanGuard(Some((self, start)))
    }

    /// Cumulative `(calls, total_ns)` so far.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }

    /// Cumulative self-time (nanoseconds not covered by child spans).
    pub fn self_ns(&self) -> u64 {
        self.self_ns.load(Ordering::Relaxed)
    }

    /// Snapshot of the per-call duration histogram.
    pub fn hist_snapshot(&self) -> HistSnapshot {
        self.hist.snapshot()
    }

    /// Count one occurrence of `parent` directly enclosing this span.
    /// Lock-free linear probe over a bounded table; edges past
    /// [`PARENT_SLOTS`] distinct parents are dropped.
    fn record_parent(&self, parent: &'static SpanCell) {
        let p = parent as *const SpanCell as *mut SpanCell;
        for slot in &self.parents {
            let cur = slot.parent.load(Ordering::Relaxed);
            let owned = if cur == p {
                true
            } else if cur.is_null() {
                match slot.parent.compare_exchange(
                    std::ptr::null_mut(),
                    p,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => true,
                    Err(actual) => actual == p,
                }
            } else {
                false
            };
            if owned {
                slot.count.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// The observed `(parent name, calls)` edges for this cell.
    pub fn parent_edges(&self) -> Vec<(&'static str, u64)> {
        self.parents
            .iter()
            .filter_map(|slot| {
                let p = slot.parent.load(Ordering::Relaxed);
                if p.is_null() {
                    return None;
                }
                // The pointer only ever holds `&'static SpanCell`s.
                let parent: &'static SpanCell = unsafe { &*p };
                Some((parent.name, slot.count.load(Ordering::Relaxed)))
            })
            .collect()
    }
}

/// RAII timing guard returned by [`SpanCell::enter`].
pub struct SpanGuard(Option<(&'static SpanCell, Instant)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cell, start)) = self.0 {
            let elapsed = start.elapsed().as_nanos() as u64;
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.ns.fetch_add(elapsed, Ordering::Relaxed);
            cell.hist.record(elapsed);
            // Pop this span's frame: its accumulated child time becomes the
            // self-time discount, and the elapsed total is charged to the
            // parent frame (if any) as child time.
            let mut child_ns = 0u64;
            let _ = SPAN_STACK.try_with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack
                    .iter()
                    .rposition(|f| std::ptr::eq(f.cell, cell) && f.start == start)
                {
                    child_ns = stack[pos].child_ns;
                    stack.truncate(pos);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_ns += elapsed;
                        cell.record_parent(parent.cell);
                    }
                }
            });
            cell.self_ns
                .fetch_add(elapsed.saturating_sub(child_ns), Ordering::Relaxed);
        }
    }
}

/// A log2-bucket histogram metric (e.g. per-request serve latency).
/// Same one-atomic-load disabled path as [`CounterCell`]; recording is one
/// relaxed `fetch_add` into the sample's bucket. Appears as a `hist` event
/// at every [`flush`].
pub struct HistCell {
    name: &'static str,
    hist: AtomicHist,
    registered: AtomicBool,
}

impl HistCell {
    /// A new cell; `const` so it can be a `static` at the call site.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            hist: AtomicHist::new(),
            registered: AtomicBool::new(false),
        }
    }

    /// Count one sample (conventionally nanoseconds); no-op when tracing
    /// is off.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            HISTS.lock().unwrap().push(self);
        }
        self.hist.record(v);
    }

    /// [`HistCell::record`] with a duration, counted in nanoseconds.
    #[inline]
    pub fn record_duration(&'static self, d: std::time::Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Point-in-time image of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        self.hist.snapshot()
    }
}

/// A monotonically increasing counter (e.g. tasks submitted to the pool).
pub struct CounterCell {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl CounterCell {
    /// A new cell; `const` so it can be a `static` at the call site.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Add `n`; no-op when tracing is off.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            COUNTERS.lock().unwrap().push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The cumulative count so far.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value / peak-value gauge (e.g. pool queue occupancy).
pub struct GaugeCell {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl GaugeCell {
    /// A new cell; `const` so it can be a `static` at the call site.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    #[inline]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            GAUGES.lock().unwrap().push(self);
        }
    }

    /// Store `v`; no-op when tracing is off.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if above the stored value (peak tracking);
    /// no-op when tracing is off.
    #[inline]
    pub fn record_max(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The stored value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::json::parse;
    use super::*;

    /// The recorder is process-global; tests that toggle it must not
    /// interleave.
    pub(crate) static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "rdd_obs_{tag}_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn read_events(path: &Path) -> Vec<Json> {
        std::fs::read_to_string(path)
            .expect("trace file readable")
            .lines()
            .map(|l| parse(l).expect("well-formed line"))
            .collect()
    }

    #[test]
    fn events_reach_the_file_sink() {
        let _g = lock();
        let path = temp_path("file_sink");
        init_file(&path).unwrap();
        event("unit", &[("k", Json::from(1usize))]);
        event("unit", &[("k", Json::from("two"))]);
        flush();
        disable();
        let events: Vec<Json> = read_events(&path)
            .into_iter()
            .filter(|e| e.get("ev").and_then(Json::as_str) == Some("unit"))
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("k").and_then(Json::as_f64), Some(1.0));
        assert_eq!(events[1].get("k").and_then(Json::as_str), Some("two"));
        assert!(events[0].get("t_ms").and_then(Json::as_f64).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let _g = lock();
        disable();
        event("ignored", &[]);
        let c: &'static CounterCell = {
            static C: CounterCell = CounterCell::new("test.disabled_counter");
            &C
        };
        c.add(5);
        assert_eq!(c.get(), 0, "disabled counter must not move");
        // Re-enable into a file and confirm the dropped event is not
        // retroactively written.
        let path = temp_path("disabled");
        init_file(&path).unwrap();
        flush();
        disable();
        assert!(read_events(&path)
            .iter()
            .all(|e| e.get("ev").and_then(Json::as_str) != Some("ignored")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_snapshot_appears_on_flush() {
        let _g = lock();
        let path = temp_path("metrics");
        init_file(&path).unwrap();
        static SPAN: SpanCell = SpanCell::new("test.span");
        static COUNT: CounterCell = CounterCell::new("test.count");
        static GAUGE: GaugeCell = GaugeCell::new("test.gauge");
        {
            let _s = SPAN.enter();
        }
        {
            let _s = SPAN.enter();
        }
        COUNT.add(3);
        GAUGE.record_max(7);
        GAUGE.record_max(2);
        flush();
        disable();
        let events = read_events(&path);
        let kernel = events
            .iter()
            .find(|e| {
                e.get("ev").and_then(Json::as_str) == Some("kernel")
                    && e.get("name").and_then(Json::as_str) == Some("test.span")
            })
            .expect("kernel snapshot present");
        assert_eq!(kernel.get("calls").and_then(Json::as_f64), Some(2.0));
        assert!(kernel.get("total_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        let counter = events
            .iter()
            .find(|e| {
                e.get("ev").and_then(Json::as_str) == Some("counter")
                    && e.get("name").and_then(Json::as_str) == Some("test.count")
            })
            .expect("counter snapshot present");
        assert_eq!(counter.get("value").and_then(Json::as_f64), Some(3.0));
        let gauge = events
            .iter()
            .find(|e| {
                e.get("ev").and_then(Json::as_str) == Some("gauge")
                    && e.get("name").and_then(Json::as_str) == Some("test.gauge")
            })
            .expect("gauge snapshot present");
        assert_eq!(gauge.get("value").and_then(Json::as_f64), Some(7.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warn_goes_to_trace_when_enabled() {
        let _g = lock();
        let path = temp_path("warn");
        init_file(&path).unwrap();
        warn("a test warning");
        flush();
        disable();
        let events = read_events(&path);
        assert!(events.iter().any(|e| {
            e.get("ev").and_then(Json::as_str) == Some("warn")
                && e.get("msg").and_then(Json::as_str) == Some("a test warning")
        }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nested_spans_attribute_self_time_and_parent_edges() {
        let _g = lock();
        let path = temp_path("nested");
        init_file(&path).unwrap();
        static OUTER: SpanCell = SpanCell::new("test.nested_outer");
        static INNER: SpanCell = SpanCell::new("test.nested_inner");
        for _ in 0..3 {
            let _o = OUTER.enter();
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _i = INNER.enter();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        flush();
        disable();
        let (o_calls, o_ns) = OUTER.snapshot();
        let (i_calls, i_ns) = INNER.snapshot();
        assert_eq!(o_calls, 3);
        assert_eq!(i_calls, 3);
        // The outer span fully contains the inner one, so outer self-time
        // excludes the inner total; inner has no children.
        assert_eq!(INNER.self_ns(), i_ns);
        assert!(
            OUTER.self_ns() <= o_ns - i_ns + o_ns / 10,
            "outer self ({}) should exclude inner total ({i_ns}) of outer total ({o_ns})",
            OUTER.self_ns()
        );
        assert_eq!(INNER.parent_edges(), vec![("test.nested_outer", 3)]);
        assert!(OUTER.parent_edges().is_empty());
        assert_eq!(INNER.hist_snapshot().count(), 3);
        let events = read_events(&path);
        let edge = events
            .iter()
            .find(|e| {
                e.get("ev").and_then(Json::as_str) == Some("span_parent")
                    && e.get("child").and_then(Json::as_str) == Some("test.nested_inner")
            })
            .expect("span_parent event present");
        assert_eq!(
            edge.get("parent").and_then(Json::as_str),
            Some("test.nested_outer")
        );
        assert_eq!(edge.get("calls").and_then(Json::as_f64), Some(3.0));
        let kernel = events
            .iter()
            .rfind(|e| {
                e.get("ev").and_then(Json::as_str) == Some("kernel")
                    && e.get("name").and_then(Json::as_str) == Some("test.nested_outer")
            })
            .expect("kernel snapshot present");
        let total = kernel.get("total_ms").and_then(Json::as_f64).unwrap();
        let self_ms = kernel.get("self_ms").and_then(Json::as_f64).unwrap();
        assert!(
            self_ms <= total,
            "self_ms {self_ms} must not exceed total {total}"
        );
        assert!(events.iter().any(|e| {
            e.get("ev").and_then(Json::as_str) == Some("hist")
                && e.get("name").and_then(Json::as_str) == Some("test.nested_inner")
        }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hist_cell_records_when_enabled_only() {
        let _g = lock();
        disable();
        static H: HistCell = HistCell::new("test.hist_cell");
        H.record(1000);
        assert_eq!(H.snapshot().count(), 0, "disabled hist must not move");
        let path = temp_path("hist_cell");
        init_file(&path).unwrap();
        H.record(1000);
        H.record(1_000_000);
        H.record_duration(std::time::Duration::from_micros(3));
        flush();
        disable();
        assert_eq!(H.snapshot().count(), 3);
        let events = read_events(&path);
        let hist = events
            .iter()
            .find(|e| {
                e.get("ev").and_then(Json::as_str) == Some("hist")
                    && e.get("name").and_then(Json::as_str) == Some("test.hist_cell")
            })
            .expect("hist snapshot present");
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(3.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn many_threads_lose_no_events() {
        let _g = lock();
        let path = temp_path("hammer");
        init_file(&path).unwrap();
        let threads = 8;
        let per_thread = 500;
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for i in 0..per_thread {
                        event("hammer", &[("t", Json::from(t)), ("i", Json::from(i))]);
                    }
                });
            }
        });
        flush();
        disable();
        let mut seen = vec![vec![false; per_thread]; threads];
        for e in read_events(&path) {
            if e.get("ev").and_then(Json::as_str) != Some("hammer") {
                continue;
            }
            let t = e.get("t").and_then(Json::as_f64).unwrap() as usize;
            let i = e.get("i").and_then(Json::as_f64).unwrap() as usize;
            assert!(!seen[t][i], "duplicate event t={t} i={i}");
            seen[t][i] = true;
        }
        for (t, row) in seen.iter().enumerate() {
            for (i, &s) in row.iter().enumerate() {
                assert!(s, "lost event t={t} i={i}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
