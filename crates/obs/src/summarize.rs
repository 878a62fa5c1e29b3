//! Offline consumption of a JSONL trace: [`TraceSummary::parse`] validates
//! every line against the event schema, and
//! [`TraceSummary::render_report`] renders the run report that
//! `rdd report <file.jsonl>` prints.

use crate::hist::HistSnapshot;
use crate::json::{parse, Json};

/// Cumulative wall time of one kernel (last snapshot in the trace wins —
/// snapshots are cumulative per process).
#[derive(Clone, Debug)]
pub struct KernelStat {
    pub name: String,
    pub calls: f64,
    pub total_ms: f64,
    /// Time not covered by child spans; equals `total_ms` in traces
    /// predating hierarchical spans (the field was absent).
    pub self_ms: f64,
}

/// Last snapshot of one named log2-bucket histogram (`hist` events are
/// cumulative, so the last one per name wins).
#[derive(Clone, Debug)]
pub struct HistStat {
    pub name: String,
    pub snapshot: HistSnapshot,
}

/// One observed span-nesting edge: `child` ran directly under `parent`
/// `calls` times (cumulative; last snapshot wins).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEdge {
    pub child: String,
    pub parent: String,
    pub calls: f64,
}

/// Everything a trace contains, grouped by event kind.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// `epoch` events, in trace order.
    pub epochs: Vec<Json>,
    /// `member` events (one per trained ensemble member).
    pub members: Vec<Json>,
    /// `run` events (final outcomes).
    pub runs: Vec<Json>,
    /// Last cumulative snapshot per kernel name.
    pub kernels: Vec<KernelStat>,
    /// Last histogram snapshot per name (`hist` events).
    pub hists: Vec<HistStat>,
    /// Last call count per (child, parent) span edge (`span_parent` events).
    pub span_edges: Vec<SpanEdge>,
    /// Last value per counter name.
    pub counters: Vec<(String, f64)>,
    /// Last value per gauge name.
    pub gauges: Vec<(String, f64)>,
    /// Recovery-path events (`fault` / `rollback` / `divergence` /
    /// `member_dropped` / `checkpoint` / `resume`), in trace order.
    pub recovery: Vec<Json>,
    /// `serve_batch` events (one per serve-engine flush), in trace order.
    pub serves: Vec<Json>,
    /// `serve_run` events (final serve-session counters).
    pub serve_runs: Vec<Json>,
    /// `serve_metrics` rolling-window heartbeats, in trace order.
    pub serve_metrics: Vec<Json>,
    /// `swap` events (hot artifact-generation rolls), in trace order.
    pub swaps: Vec<Json>,
    /// `breaker_state` events (overload circuit-breaker transitions), in
    /// trace order.
    pub breaker_states: Vec<Json>,
    /// `env_warn` events (rejected environment-variable values).
    pub env_warns: Vec<Json>,
    /// `warn` event messages.
    pub warnings: Vec<String>,
    /// Events of kinds this module does not aggregate (kept for callers).
    pub other: Vec<Json>,
    /// Total number of events parsed.
    pub total_events: usize,
    /// Largest `t_ms` seen — the trace's wall-clock span in milliseconds.
    pub wall_ms: f64,
}

fn upsert(slot: &mut Vec<(String, f64)>, name: &str, value: f64) {
    match slot.iter_mut().find(|(n, _)| n == name) {
        Some(entry) => entry.1 = value,
        None => slot.push((name.to_string(), value)),
    }
}

impl TraceSummary {
    /// Parse a JSONL trace. Fails with a line number on the first malformed
    /// line; every event must carry a string `ev` and numeric `t_ms`.
    pub fn parse(src: &str) -> Result<Self, String> {
        let mut out = TraceSummary::default();
        for (idx, line) in src.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let event = parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
            let kind = event
                .get("ev")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {lineno}: missing string field \"ev\""))?
                .to_string();
            let t_ms = event
                .get("t_ms")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {lineno}: missing numeric field \"t_ms\""))?;
            out.total_events += 1;
            out.wall_ms = out.wall_ms.max(t_ms);
            match kind.as_str() {
                "epoch" => {
                    validate_epoch(&event).map_err(|e| format!("line {lineno}: {e}"))?;
                    out.epochs.push(event);
                }
                "member" => out.members.push(event),
                "run" => out.runs.push(event),
                "kernel" => {
                    let name =
                        req_str(&event, "name").map_err(|e| format!("line {lineno}: {e}"))?;
                    let calls =
                        req_num(&event, "calls").map_err(|e| format!("line {lineno}: {e}"))?;
                    let total_ms =
                        req_num(&event, "total_ms").map_err(|e| format!("line {lineno}: {e}"))?;
                    // Pre-hierarchy traces have no self_ms; a leaf span's
                    // self-time IS its total, so that is the right default.
                    let self_ms = event
                        .get("self_ms")
                        .and_then(Json::as_f64)
                        .unwrap_or(total_ms);
                    match out.kernels.iter_mut().find(|k| k.name == name) {
                        Some(k) => {
                            k.calls = calls;
                            k.total_ms = total_ms;
                            k.self_ms = self_ms;
                        }
                        None => out.kernels.push(KernelStat {
                            name,
                            calls,
                            total_ms,
                            self_ms,
                        }),
                    }
                }
                "hist" => {
                    let name =
                        req_str(&event, "name").map_err(|e| format!("line {lineno}: {e}"))?;
                    let snapshot =
                        validate_hist(&event).map_err(|e| format!("line {lineno}: {e}"))?;
                    match out.hists.iter_mut().find(|h| h.name == name) {
                        Some(h) => h.snapshot = snapshot,
                        None => out.hists.push(HistStat { name, snapshot }),
                    }
                }
                "span_parent" => {
                    let child =
                        req_str(&event, "child").map_err(|e| format!("line {lineno}: {e}"))?;
                    let parent =
                        req_str(&event, "parent").map_err(|e| format!("line {lineno}: {e}"))?;
                    let calls =
                        req_num(&event, "calls").map_err(|e| format!("line {lineno}: {e}"))?;
                    match out
                        .span_edges
                        .iter_mut()
                        .find(|e| e.child == child && e.parent == parent)
                    {
                        Some(e) => e.calls = calls,
                        None => out.span_edges.push(SpanEdge {
                            child,
                            parent,
                            calls,
                        }),
                    }
                }
                "counter" | "gauge" => {
                    let name =
                        req_str(&event, "name").map_err(|e| format!("line {lineno}: {e}"))?;
                    let value =
                        req_num(&event, "value").map_err(|e| format!("line {lineno}: {e}"))?;
                    let slot = if kind == "counter" {
                        &mut out.counters
                    } else {
                        &mut out.gauges
                    };
                    upsert(slot, &name, value);
                }
                "warn" => {
                    out.warnings
                        .push(req_str(&event, "msg").map_err(|e| format!("line {lineno}: {e}"))?);
                }
                "serve_batch" => {
                    validate_serve_batch(&event).map_err(|e| format!("line {lineno}: {e}"))?;
                    out.serves.push(event);
                }
                "serve_run" => out.serve_runs.push(event),
                "serve_metrics" => {
                    validate_serve_metrics(&event).map_err(|e| format!("line {lineno}: {e}"))?;
                    out.serve_metrics.push(event);
                }
                "swap" => {
                    req_num(&event, "generation").map_err(|e| format!("line {lineno}: {e}"))?;
                    req_str(&event, "checksum").map_err(|e| format!("line {lineno}: {e}"))?;
                    req_str(&event, "path").map_err(|e| format!("line {lineno}: {e}"))?;
                    out.swaps.push(event);
                }
                "swap_failed" => {
                    for key in ["path", "error"] {
                        req_str(&event, key).map_err(|e| format!("line {lineno}: {e}"))?;
                    }
                    for key in ["failures", "backoff_ms"] {
                        req_num(&event, key).map_err(|e| format!("line {lineno}: {e}"))?;
                    }
                    out.recovery.push(event);
                }
                "worker_panic" => {
                    for key in ["worker", "requests", "requeued", "failed"] {
                        req_num(&event, key).map_err(|e| format!("line {lineno}: {e}"))?;
                    }
                    out.recovery.push(event);
                }
                "worker_respawn" => {
                    for key in ["worker", "respawns"] {
                        req_num(&event, key).map_err(|e| format!("line {lineno}: {e}"))?;
                    }
                    out.recovery.push(event);
                }
                "breaker_state" => {
                    for key in ["state", "from"] {
                        req_str(&event, key).map_err(|e| format!("line {lineno}: {e}"))?;
                    }
                    for key in ["p99_ms", "shed_rate"] {
                        req_num(&event, key).map_err(|e| format!("line {lineno}: {e}"))?;
                    }
                    out.breaker_states.push(event);
                }
                "env_warn" => {
                    for key in ["var", "value", "expected"] {
                        req_str(&event, key).map_err(|e| format!("line {lineno}: {e}"))?;
                    }
                    out.env_warns.push(event);
                }
                "fault" | "rollback" | "divergence" | "member_dropped" | "checkpoint"
                | "resume" => out.recovery.push(event),
                _ => out.other.push(event),
            }
        }
        Ok(out)
    }

    /// The "Serving" section: per-flush aggregates (batches, requests,
    /// cache hit rate) plus p50/p99 over every request latency recorded in
    /// the trace's `serve_batch` events.
    fn render_serving(&self) -> String {
        let mut out = String::from("\nServing\n");
        let sum = |key: &str| -> f64 {
            self.serves
                .iter()
                .filter_map(|e| e.get(key).and_then(Json::as_f64))
                .sum()
        };
        let requests = sum("requests");
        let nodes = sum("nodes");
        let hits = sum("hits");
        let misses = sum("misses");
        let exec_ms = sum("exec_ms");
        let lat: Vec<f64> = self
            .serves
            .iter()
            .filter_map(|e| e.get("lat_ms").and_then(Json::as_arr))
            .flatten()
            .filter_map(Json::as_f64)
            .collect();
        // Json::as_f64 only yields finite numbers, so the NaN-rejecting
        // path cannot trigger here.
        let stats = sample_stats(&lat).unwrap_or_default();
        let hit_rate = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        let rows = vec![
            vec!["batches".to_string(), fmt_num(self.serves.len() as f64)],
            vec!["requests".to_string(), fmt_num(requests)],
            vec!["node rows".to_string(), fmt_num(nodes)],
            vec![
                "cache hit rate".to_string(),
                format!("{:.1}%", 100.0 * hit_rate),
            ],
            vec!["exec total_ms".to_string(), format!("{exec_ms:.3}")],
            vec!["p50 latency ms".to_string(), format!("{:.3}", stats.p50)],
            vec!["p99 latency ms".to_string(), format!("{:.3}", stats.p99)],
        ];
        out.push_str(&render_table(&["metric", "value"], &rows));
        for run in &self.serve_runs {
            out.push_str(&format!(
                "Serve run: requests {}  batches {}  hits {}  misses {}  \
                 shed {} (queue-full) + {} (expired)",
                fmt_field(run.get("requests")),
                fmt_field(run.get("batches")),
                fmt_field(run.get("hits")),
                fmt_field(run.get("misses")),
                fmt_field(run.get("shed")),
                fmt_field(run.get("expired")),
            ));
            // Self-healing-era counters; absent in older traces.
            if run.get("failed").is_some() || run.get("rejected").is_some() {
                out.push_str(&format!(
                    "  failed {}  rejected {}",
                    fmt_field(run.get("failed")),
                    fmt_field(run.get("rejected")),
                ));
            }
            out.push_str(&format!("  wall_ms {}\n", fmt_field(run.get("wall_ms"))));
        }
        for swap in &self.swaps {
            out.push_str(&format!(
                "Swap: generation {}  checksum {}  path {}\n",
                fmt_field(swap.get("generation")),
                fmt_field(swap.get("checksum")),
                fmt_field(swap.get("path")),
            ));
        }
        for bs in &self.breaker_states {
            out.push_str(&format!(
                "Breaker: {} -> {}  (p99 {} ms, shed rate {}, retry_after_ms {})  t_ms {}\n",
                fmt_field(bs.get("from")),
                fmt_field(bs.get("state")),
                fmt_field(bs.get("p99_ms")),
                fmt_field(bs.get("shed_rate")),
                fmt_field(bs.get("retry_after_ms")),
                fmt_field(bs.get("t_ms")),
            ));
        }
        out
    }

    /// The kernel attribution table: per span, calls, total/self wall time,
    /// per-call mean, histogram p50/p99 (ms) and the observed parents.
    /// Sorted by self-time, the column that cannot double count.
    fn render_kernel_table(&self) -> String {
        let mut kernels: Vec<&KernelStat> = self.kernels.iter().collect();
        kernels.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        let rows: Vec<Vec<String>> = kernels
            .iter()
            .map(|k| {
                let per_call = if k.calls > 0.0 {
                    k.total_ms / k.calls
                } else {
                    0.0
                };
                let (p50, p99) = match self.hists.iter().find(|h| h.name == k.name) {
                    Some(h) if h.snapshot.count() > 0 => (
                        format!("{:.4}", h.snapshot.p50() / 1e6),
                        format!("{:.4}", h.snapshot.p99() / 1e6),
                    ),
                    _ => ("-".to_string(), "-".to_string()),
                };
                let parents: Vec<String> = self
                    .span_edges
                    .iter()
                    .filter(|e| e.child == k.name)
                    .map(|e| format!("{}x{}", e.parent, fmt_num(e.calls)))
                    .collect();
                vec![
                    k.name.clone(),
                    fmt_num(k.calls),
                    format!("{:.3}", k.total_ms),
                    format!("{:.3}", k.self_ms),
                    format!("{per_call:.4}"),
                    p50,
                    p99,
                    if parents.is_empty() {
                        "-".to_string()
                    } else {
                        parents.join(",")
                    },
                ]
            })
            .collect();
        render_table(
            &[
                "kernel", "calls", "total_ms", "self_ms", "ms/call", "p50_ms", "p99_ms", "parents",
            ],
            &rows,
        )
    }

    /// The full run report behind `rdd report`: member convergence,
    /// reliability-set evolution, kernel self-time attribution (self-times
    /// sum to ≤ wall time — no flat-span double counting), the serving
    /// section, rolling-window heartbeats, and env warnings.
    pub fn render_report(&self) -> String {
        let mut out = String::from("RDD run report\n");
        out.push_str(&format!(
            "  events {}  wall_ms {:.1}  warnings {}\n",
            self.total_events,
            self.wall_ms,
            self.warnings.len() + self.env_warns.len()
        ));

        // Member convergence: epochs grouped per (model, member), joined
        // with the final `member` records for alpha.
        if !self.epochs.is_empty() {
            out.push_str("\nMember convergence\n");
            let mut groups: Vec<(String, Vec<&Json>)> = Vec::new();
            for e in &self.epochs {
                let key = format!(
                    "{}/{}",
                    fmt_field(e.get("model")),
                    fmt_field(e.get("member"))
                );
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v.push(e),
                    None => groups.push((key, vec![e])),
                }
            }
            let rows: Vec<Vec<String>> = groups
                .iter()
                .map(|(key, epochs)| {
                    let first = epochs[0];
                    let last = epochs[epochs.len() - 1];
                    let alpha = first
                        .get("member")
                        .and_then(Json::as_f64)
                        .and_then(|m| {
                            self.members
                                .iter()
                                .find(|rec| rec.get("member").and_then(Json::as_f64) == Some(m))
                        })
                        .map(|rec| fmt_field(rec.get("alpha")))
                        .unwrap_or_else(|| "-".to_string());
                    vec![
                        key.clone(),
                        fmt_num(epochs.len() as f64),
                        fmt_field(first.get("loss")),
                        fmt_field(last.get("loss")),
                        alpha,
                        fmt_field(last.get("val_acc")),
                        fmt_field(last.get("test_acc")),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &[
                    "model/mem",
                    "epochs",
                    "first_loss",
                    "last_loss",
                    "alpha",
                    "val",
                    "test",
                ],
                &rows,
            ));
        }
        for run in &self.runs {
            out.push_str(&format!(
                "\nRun: ensemble test acc {}  single test acc {}  members {}\n",
                fmt_field(run.get("ensemble_test_acc")),
                fmt_field(run.get("single_test_acc")),
                fmt_field(run.get("members")),
            ));
        }

        // Reliability evolution: the |V_r| / |V_b| / |E_r| trajectory of
        // the distillation hook. Epochs without the hook carry nulls, and
        // teacher members emit all-zero sets; both are skipped. Long runs
        // are downsampled to keep the table readable (the raw trajectory
        // stays in the trace).
        let rdd_epochs: Vec<&Json> = self
            .epochs
            .iter()
            .filter(|e| {
                let f = |k| e.get(k).and_then(Json::as_f64);
                f("v_r").is_some()
                    && (f("v_r").unwrap_or(0.0) > 0.0
                        || f("v_b").unwrap_or(0.0) > 0.0
                        || f("e_r").unwrap_or(0.0) > 0.0)
            })
            .collect();
        if !rdd_epochs.is_empty() {
            const MAX_RELIABILITY_ROWS: usize = 24;
            let stride = rdd_epochs.len().div_ceil(MAX_RELIABILITY_ROWS).max(1);
            let shown: Vec<&Json> = rdd_epochs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % stride == 0 || *i == rdd_epochs.len() - 1)
                .map(|(_, e)| *e)
                .collect();
            out.push_str("\nReliability evolution");
            if stride > 1 {
                out.push_str(&format!(
                    " (every {stride} of {} records)",
                    rdd_epochs.len()
                ));
            }
            out.push('\n');
            let keys = ["member", "epoch", "v_r", "v_b", "e_r", "agreement", "gamma"];
            let rows: Vec<Vec<String>> = shown
                .iter()
                .map(|e| keys.iter().map(|k| fmt_field(e.get(k))).collect())
                .collect();
            out.push_str(&render_table(
                &["mem", "epoch", "|V_r|", "|V_b|", "|E_r|", "agree", "gamma"],
                &rows,
            ));
        }

        if !self.kernels.is_empty() {
            out.push_str("\nKernel self-time attribution\n");
            out.push_str(&self.render_kernel_table());
            let self_total: f64 = self.kernels.iter().map(|k| k.self_ms).sum();
            out.push_str(&format!(
                "self-time total {:.3} ms of {:.1} ms wall\n",
                self_total, self.wall_ms
            ));
        }

        if !self.serves.is_empty()
            || !self.serve_runs.is_empty()
            || !self.swaps.is_empty()
            || !self.breaker_states.is_empty()
        {
            out.push_str(&self.render_serving());
        }
        // Histogram-derived serve latencies (the online view; `serve.*`
        // cells record nanoseconds).
        let serve_hists: Vec<&HistStat> = self
            .hists
            .iter()
            .filter(|h| h.name.starts_with("serve.") && h.snapshot.count() > 0)
            .collect();
        if !serve_hists.is_empty() {
            out.push_str("\nServe latency histograms\n");
            let rows: Vec<Vec<String>> = serve_hists
                .iter()
                .map(|h| {
                    vec![
                        h.name.clone(),
                        fmt_num(h.snapshot.count() as f64),
                        format!("{:.4}", h.snapshot.p50() / 1e6),
                        format!("{:.4}", h.snapshot.p90() / 1e6),
                        format!("{:.4}", h.snapshot.p99() / 1e6),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &["hist", "count", "p50_ms", "p90_ms", "p99_ms"],
                &rows,
            ));
        }
        if !self.serve_metrics.is_empty() {
            out.push_str(&format!(
                "\nServe heartbeats ({} records)\n",
                self.serve_metrics.len()
            ));
            let keys = [
                "t_ms",
                "window_s",
                "requests",
                "p50_ms",
                "p99_ms",
                "queue_peak",
                "hit_rate",
                "shed",
                "shed_expired",
                "breaker",
            ];
            let rows: Vec<Vec<String>> = self
                .serve_metrics
                .iter()
                .map(|e| keys.iter().map(|k| fmt_field(e.get(k))).collect())
                .collect();
            out.push_str(&render_table(&keys, &rows));
        }

        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str("\nCounters & gauges\n");
            let rows: Vec<Vec<String>> = self
                .counters
                .iter()
                .map(|(n, v)| vec![n.clone(), "counter".into(), format!("{v}")])
                .chain(
                    self.gauges
                        .iter()
                        .map(|(n, v)| vec![n.clone(), "gauge".into(), format!("{v}")]),
                )
                .collect();
            out.push_str(&render_table(&["name", "kind", "value"], &rows));
        }
        if !self.recovery.is_empty() {
            out.push_str(&format!(
                "\nRecovery events ({} records)\n",
                self.recovery.len()
            ));
            for e in &self.recovery {
                let kind = e.get("ev").and_then(Json::as_str).unwrap_or("?");
                let mut parts = Vec::new();
                if let Json::Obj(fields) = e {
                    for (k, v) in fields {
                        if k != "ev" && k != "t_ms" {
                            parts.push(format!("{k}={}", fmt_field(Some(v))));
                        }
                    }
                }
                out.push_str(&format!("  {kind}: {}\n", parts.join(" ")));
            }
        }
        if !self.env_warns.is_empty() {
            out.push_str("\nEnvironment warnings\n");
            let rows: Vec<Vec<String>> = self
                .env_warns
                .iter()
                .map(|e| {
                    ["var", "value", "expected"]
                        .iter()
                        .map(|k| fmt_field(e.get(k)))
                        .collect()
                })
                .collect();
            out.push_str(&render_table(&["var", "value", "expected"], &rows));
        }
        for w in &self.warnings {
            out.push_str(&format!("\nwarning: {w}\n"));
        }
        out
    }
}

/// What went wrong inside [`percentile`] / [`sample_stats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StatsError {
    /// A sample was NaN or ±inf; carries the offending index and value.
    NonFinite { index: usize, value: f64 },
    /// A quantile outside [0, 1] (or NaN) was requested.
    BadQuantile(f64),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::NonFinite { index, value } => {
                write!(f, "non-finite sample {value} at index {index}")
            }
            StatsError::BadQuantile(q) => write!(f, "quantile q={q} outside [0, 1]"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Nearest-rank percentile over an ascending-sorted slice; 0 on an empty
/// slice.
///
/// `q` outside [0, 1] (or NaN) is a [`StatsError::BadQuantile`] — callers
/// used to get a silent clamp, which hid real bugs (a caller passing `99`
/// instead of `0.99` read the max and never noticed). Unsorted input is a
/// caller bug: debug builds assert on it, release builds still index by
/// rank (garbage in, garbage out, but never out of bounds).
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, StatsError> {
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::BadQuantile(q));
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile input must be ascending-sorted"
    );
    if sorted.is_empty() {
        return Ok(0.0);
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    Ok(sorted[rank.min(sorted.len() - 1)])
}

/// Summary statistics over one set of latency/throughput samples.
///
/// Produced by [`sample_stats`]; the zero value (via `Default`) stands in
/// for "no samples" wherever a renderer cannot propagate an error.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SampleStats {
    /// Number of samples summarized.
    pub count: usize,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Nearest-rank median (0 when empty).
    pub p50: f64,
    /// Nearest-rank 99th percentile (0 when empty).
    pub p99: f64,
}

/// Sort-and-summarize one sample set: count, min/max/mean and the
/// nearest-rank p50/p99 of the report's serving section.
///
/// Non-finite samples (NaN, ±inf) are *rejected* — a producer that
/// emitted one has a bug upstream, and quietly sorting NaNs would
/// corrupt every percentile — with a typed error naming the first
/// offending index. An empty slice is not an error: it yields the
/// all-zero stats.
pub fn sample_stats(samples: &[f64]) -> Result<SampleStats, StatsError> {
    if let Some(index) = samples.iter().position(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite {
            index,
            value: samples[index],
        });
    }
    if samples.is_empty() {
        return Ok(SampleStats::default());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(SampleStats {
        count: sorted.len(),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        // In-range constants: the quantile error arm cannot fire.
        p50: percentile(&sorted, 0.50).unwrap_or_default(),
        p99: percentile(&sorted, 0.99).unwrap_or_default(),
    })
}

/// Check a `hist` event and rebuild its [`HistSnapshot`]: `count` must be
/// numeric and `buckets` an array of ≤ 64 non-negative numbers whose sum
/// matches `count`.
fn validate_hist(event: &Json) -> Result<HistSnapshot, String> {
    let count = req_num(event, "count")?;
    let buckets = match event.get("buckets") {
        Some(Json::Arr(a)) => a,
        _ => return Err("hist field \"buckets\" must be an array".to_string()),
    };
    let mut counts = Vec::with_capacity(buckets.len());
    for (i, b) in buckets.iter().enumerate() {
        match b.as_f64() {
            Some(v) if v >= 0.0 && v.fract() == 0.0 => counts.push(v as u64),
            _ => return Err(format!("hist bucket {i} must be a non-negative integer")),
        }
    }
    let snapshot = HistSnapshot::from_counts(&counts).ok_or_else(|| {
        format!(
            "hist has {} buckets (max {})",
            counts.len(),
            crate::hist::BUCKETS
        )
    })?;
    if snapshot.count() as f64 != count {
        return Err(format!(
            "hist has count={count} but buckets sum to {}",
            snapshot.count()
        ));
    }
    Ok(snapshot)
}

const SERVE_METRICS_NUMERIC: &[&str] = &[
    "window_s",
    "requests",
    "p50_ms",
    "p99_ms",
    "queue_peak",
    "hit_rate",
    "shed",
];

fn validate_serve_metrics(event: &Json) -> Result<(), String> {
    for key in SERVE_METRICS_NUMERIC {
        req_num(event, key)?;
    }
    // Added after the single-worker era; old traces lack it entirely, so
    // only its type is checked when present.
    if let Some(v) = event.get("shed_expired") {
        if v.as_f64().is_none() {
            return Err("serve_metrics field \"shed_expired\" must be numeric".to_string());
        }
    }
    // Circuit-breaker state (self-healing era): a string when a breaker is
    // configured, null when not, absent in older traces.
    match event.get("breaker") {
        None | Some(Json::Null) | Some(Json::Str(_)) => {}
        Some(_) => {
            return Err("serve_metrics field \"breaker\" must be a string or null".to_string())
        }
    }
    let hit_rate = req_num(event, "hit_rate")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!(
            "serve_metrics has hit_rate={hit_rate} outside [0, 1]"
        ));
    }
    Ok(())
}

const SERVE_BATCH_NUMERIC: &[&str] = &["requests", "nodes", "hits", "misses", "exec_ms"];

fn validate_serve_batch(event: &Json) -> Result<(), String> {
    for key in SERVE_BATCH_NUMERIC {
        req_num(event, key)?;
    }
    match event.get("lat_ms") {
        Some(Json::Arr(a)) if a.iter().all(|v| matches!(v, Json::Num(_))) => {}
        _ => return Err("serve_batch field \"lat_ms\" must be an array of numbers".to_string()),
    }
    let hits = req_num(event, "hits")?;
    let misses = req_num(event, "misses")?;
    let nodes = req_num(event, "nodes")?;
    if hits + misses != nodes {
        return Err(format!(
            "serve_batch has hits={hits} + misses={misses} != nodes={nodes}"
        ));
    }
    Ok(())
}

/// Keys every `epoch` event must carry. RDD-only quantities may be `null`
/// (plain baseline runs have no distillation hook) but must be present.
const EPOCH_NUMERIC: &[&str] = &["epoch", "loss", "l1", "train_acc", "val_acc", "test_acc"];
const EPOCH_NULLABLE: &[&str] = &[
    "member",
    "l2",
    "lreg",
    "gamma",
    "v_r",
    "v_b",
    "e_r",
    "agreement",
    "teacher_entropy_thresh",
    "student_entropy_thresh",
];

fn validate_epoch(event: &Json) -> Result<(), String> {
    req_str(event, "model")?;
    for key in EPOCH_NUMERIC {
        req_num(event, key)?;
    }
    for key in EPOCH_NULLABLE {
        match event.get(key) {
            Some(Json::Null) | Some(Json::Num(_)) => {}
            Some(_) => return Err(format!("epoch field {key:?} must be number or null")),
            None => return Err(format!("epoch event missing field {key:?}")),
        }
    }
    match event.get("alpha") {
        Some(Json::Arr(a)) if a.iter().all(|v| matches!(v, Json::Num(_))) => {}
        _ => return Err("epoch field \"alpha\" must be an array of numbers".to_string()),
    }
    if let (Some(v_r), Some(v_b)) = (
        event.get("v_r").and_then(Json::as_f64),
        event.get("v_b").and_then(Json::as_f64),
    ) {
        if v_b > v_r {
            return Err(format!(
                "epoch has v_b={v_b} > v_r={v_r} (V_b ⊆ V_r violated)"
            ));
        }
    }
    Ok(())
}

fn req_str(event: &Json, key: &str) -> Result<String, String> {
    event
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn req_num(event: &Json, key: &str) -> Result<f64, String> {
    event
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// Compact cell formatting: integers without decimals, reals to 4 places,
/// arrays joined with commas, nulls as `-`.
fn fmt_field(v: Option<&Json>) -> String {
    match v {
        None | Some(Json::Null) => "-".to_string(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Num(n)) => fmt_num(*n),
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Arr(a)) => {
            if a.is_empty() {
                "-".to_string()
            } else {
                a.iter()
                    .map(|x| fmt_field(Some(x)))
                    .collect::<Vec<_>>()
                    .join(",")
            }
        }
        Some(obj @ Json::Obj(_)) => obj.to_string(),
    }
}

fn fmt_num(n: f64) -> String {
    if !n.is_finite() {
        "-".to_string()
    } else if n.fract() == 0.0 && n.abs() < 1e12 {
        format!("{}", n as i64)
    } else {
        format!("{n:.4}")
    }
}

/// Fixed-width plain-text table: first column left-aligned, the rest
/// right-aligned. Shared by `rdd report` and the bench binaries.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let mut write_row = |cells: &[String]| {
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map_or("", String::as_str);
            if i > 0 {
                out.push_str("  ");
            }
            let pad = w.saturating_sub(cell.chars().count());
            if i == 0 {
                out.push_str(cell);
                if i + 1 < cols {
                    out.push_str(&" ".repeat(pad));
                }
            } else {
                out.push_str(&" ".repeat(pad));
                out.push_str(cell);
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    write_row(&header_cells);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    write_row(&rule);
    for row in rows {
        write_row(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch_line(epoch: usize, v_r: usize, v_b: usize) -> String {
        format!(
            concat!(
                "{{\"ev\":\"epoch\",\"t_ms\":1.5,\"model\":\"gcn\",\"member\":1,",
                "\"epoch\":{},\"loss\":1.5,\"l1\":1.0,\"l2\":0.25,\"lreg\":0.1,",
                "\"gamma\":0.5,\"v_r\":{},\"v_b\":{},\"e_r\":12,\"agreement\":0.9,",
                "\"teacher_entropy_thresh\":1.2,\"student_entropy_thresh\":null,",
                "\"alpha\":[1.0,2.0],\"train_acc\":0.9,\"val_acc\":0.8,\"test_acc\":0.7}}"
            ),
            epoch, v_r, v_b
        )
    }

    #[test]
    fn parses_and_aggregates_a_trace() {
        let src = [
            epoch_line(0, 100, 40),
            epoch_line(1, 90, 30),
            "{\"ev\":\"kernel\",\"t_ms\":2.0,\"name\":\"matmul\",\"calls\":5,\"total_ms\":1.0}"
                .to_string(),
            "{\"ev\":\"kernel\",\"t_ms\":3.0,\"name\":\"matmul\",\"calls\":9,\"total_ms\":2.5}"
                .to_string(),
            "{\"ev\":\"counter\",\"t_ms\":3.0,\"name\":\"workspace.hits\",\"value\":64}"
                .to_string(),
            "{\"ev\":\"warn\",\"t_ms\":3.0,\"msg\":\"careful\"}".to_string(),
            "{\"ev\":\"simd_init\",\"t_ms\":0.1,\"tier\":\"avx2\"}".to_string(),
        ]
        .join("\n");
        let summary = TraceSummary::parse(&src).unwrap();
        assert_eq!(summary.epochs.len(), 2);
        assert_eq!(summary.kernels.len(), 1);
        assert_eq!(summary.kernels[0].calls, 9.0, "last snapshot wins");
        assert_eq!(summary.counters, vec![("workspace.hits".to_string(), 64.0)]);
        assert_eq!(summary.warnings, vec!["careful".to_string()]);
        assert_eq!(summary.other.len(), 1);
        assert_eq!(summary.total_events, 7);
        let report = summary.render_report();
        assert!(report.contains("Member convergence"), "{report}");
        assert!(report.contains("matmul"), "{report}");
        assert!(report.contains("Counters & gauges"), "{report}");
        assert!(report.contains("workspace.hits"), "{report}");
        assert!(report.contains("warning: careful"), "{report}");
    }

    #[test]
    fn collects_and_renders_recovery_events() {
        let src = [
            "{\"ev\":\"fault\",\"t_ms\":1.0,\"kind\":\"nan_loss\",\"site\":\"epoch\",\"n\":7}",
            concat!(
                "{\"ev\":\"rollback\",\"t_ms\":1.1,\"model\":\"gcn\",\"epoch\":7,",
                "\"retry\":1,\"lr_scale\":1.0,\"reason\":\"nonfinite_loss\"}"
            ),
            "{\"ev\":\"resume\",\"t_ms\":2.0,\"next_member\":2,\"loaded\":2,\"dir\":\"run\"}",
        ]
        .join("\n");
        let summary = TraceSummary::parse(&src).unwrap();
        assert_eq!(summary.recovery.len(), 3);
        assert!(summary.other.is_empty());
        let report = summary.render_report();
        assert!(report.contains("Recovery events (3 records)"), "{report}");
        assert!(report.contains("rollback: model=gcn"), "{report}");
        assert!(report.contains("site=epoch"), "{report}");
    }

    #[test]
    fn aggregates_and_renders_serve_events() {
        let src = [
            concat!(
                "{\"ev\":\"serve_batch\",\"t_ms\":1.0,\"requests\":2,\"nodes\":3,",
                "\"hits\":1,\"misses\":2,\"exec_ms\":0.5,\"lat_ms\":[0.2,0.9]}"
            ),
            concat!(
                "{\"ev\":\"serve_batch\",\"t_ms\":2.0,\"requests\":1,\"nodes\":1,",
                "\"hits\":1,\"misses\":0,\"exec_ms\":0.0,\"lat_ms\":[0.1]}"
            ),
            concat!(
                "{\"ev\":\"serve_run\",\"t_ms\":3.0,\"requests\":3,\"batches\":2,",
                "\"hits\":2,\"misses\":2,\"wall_ms\":4.0}"
            ),
        ]
        .join("\n");
        let summary = TraceSummary::parse(&src).unwrap();
        assert_eq!(summary.serves.len(), 2);
        assert_eq!(summary.serve_runs.len(), 1);
        assert!(summary.other.is_empty());
        let report = summary.render_report();
        assert!(report.contains("Serving"), "{report}");
        assert!(report.contains("cache hit rate"), "{report}");
        assert!(report.contains("50.0%"), "{report}");
        assert!(report.contains("p99 latency ms"), "{report}");
        assert!(report.contains("Serve run: requests 3"), "{report}");
    }

    #[test]
    fn aggregates_and_renders_swap_events() {
        let src = concat!(
            "{\"ev\":\"swap\",\"t_ms\":5.0,\"generation\":2,",
            "\"checksum\":\"00000000deadbeef\",\"path\":\"model.rdd\"}"
        );
        let summary = TraceSummary::parse(src).unwrap();
        assert_eq!(summary.swaps.len(), 1);
        assert!(summary.other.is_empty());
        let report = summary.render_report();
        assert!(report.contains("Swap: generation 2"), "{report}");
        assert!(report.contains("00000000deadbeef"), "{report}");

        let missing = "{\"ev\":\"swap\",\"t_ms\":5.0,\"generation\":2,\"path\":\"m\"}";
        let err = TraceSummary::parse(missing).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn collects_and_renders_self_healing_events() {
        let src = [
            concat!(
                "{\"ev\":\"worker_panic\",\"t_ms\":1.0,\"worker\":2,\"requests\":8,",
                "\"requeued\":8,\"failed\":0}"
            ),
            "{\"ev\":\"worker_respawn\",\"t_ms\":1.1,\"worker\":2,\"respawns\":1}",
            concat!(
                "{\"ev\":\"swap_failed\",\"t_ms\":2.0,\"path\":\"model.rdd\",",
                "\"error\":\"bad artifact: truncated\",\"failures\":1,\"backoff_ms\":400}"
            ),
            concat!(
                "{\"ev\":\"breaker_state\",\"t_ms\":3.0,\"state\":\"open\",\"from\":\"closed\",",
                "\"p99_ms\":42.5,\"shed_rate\":0.0,\"retry_after_ms\":1000}"
            ),
            concat!(
                "{\"ev\":\"breaker_state\",\"t_ms\":4.0,\"state\":\"half_open\",\"from\":\"open\",",
                "\"p99_ms\":0,\"shed_rate\":0,\"retry_after_ms\":null}"
            ),
        ]
        .join("\n");
        let summary = TraceSummary::parse(&src).unwrap();
        assert_eq!(summary.recovery.len(), 3);
        assert_eq!(summary.breaker_states.len(), 2);
        assert!(summary.other.is_empty());
        let report = summary.render_report();
        assert!(report.contains("worker_panic: worker=2"), "{report}");
        assert!(report.contains("worker_respawn"), "{report}");
        assert!(report.contains("swap_failed"), "{report}");
        assert!(report.contains("Breaker: closed -> open"), "{report}");
        assert!(report.contains("Breaker: open -> half_open"), "{report}");

        let missing =
            "{\"ev\":\"swap_failed\",\"t_ms\":1.0,\"path\":\"m\",\"failures\":1,\"backoff_ms\":2}";
        let err = TraceSummary::parse(missing).unwrap_err();
        assert!(err.contains("error"), "{err}");
        let missing = "{\"ev\":\"breaker_state\",\"t_ms\":1.0,\"state\":\"open\",\"p99_ms\":1,\"shed_rate\":0}";
        let err = TraceSummary::parse(missing).unwrap_err();
        assert!(err.contains("from"), "{err}");
    }

    #[test]
    fn serve_run_renders_failed_and_rejected_when_present() {
        let src = concat!(
            "{\"ev\":\"serve_run\",\"t_ms\":3.0,\"requests\":10,\"batches\":2,",
            "\"hits\":2,\"misses\":8,\"shed\":0,\"expired\":0,\"failed\":3,",
            "\"rejected\":4,\"wall_ms\":5.0}"
        );
        let summary = TraceSummary::parse(src).unwrap();
        let report = summary.render_report();
        assert!(report.contains("failed 3  rejected 4"), "{report}");
        assert!(report.contains("wall_ms 5"), "{report}");
    }

    #[test]
    fn serve_metrics_accepts_and_checks_breaker_field() {
        let with = concat!(
            "{\"ev\":\"serve_metrics\",\"t_ms\":1.0,\"window_s\":5,\"requests\":100,",
            "\"p50_ms\":0.5,\"p99_ms\":2.0,\"queue_peak\":7,\"hit_rate\":0.25,",
            "\"shed\":1,\"shed_expired\":0,\"breaker\":\"open\"}"
        );
        let summary = TraceSummary::parse(with).unwrap();
        assert_eq!(summary.serve_metrics.len(), 1);
        let report = summary.render_report();
        assert!(report.contains("breaker"), "{report}");
        assert!(report.contains("open"), "{report}");
        let bad = concat!(
            "{\"ev\":\"serve_metrics\",\"t_ms\":1.0,\"window_s\":5,\"requests\":100,",
            "\"p50_ms\":0.5,\"p99_ms\":2.0,\"queue_peak\":7,\"hit_rate\":0.25,",
            "\"shed\":1,\"shed_expired\":0,\"breaker\":7}"
        );
        let err = TraceSummary::parse(bad).unwrap_err();
        assert!(err.contains("breaker"), "{err}");
    }

    #[test]
    fn serve_metrics_accepts_and_checks_shed_expired() {
        let with = concat!(
            "{\"ev\":\"serve_metrics\",\"t_ms\":1.0,\"window_s\":5,\"requests\":100,",
            "\"p50_ms\":0.5,\"p99_ms\":2.0,\"queue_peak\":7,\"hit_rate\":0.25,",
            "\"shed\":1,\"shed_expired\":3}"
        );
        let summary = TraceSummary::parse(with).unwrap();
        assert_eq!(summary.serve_metrics.len(), 1);
        let bad = concat!(
            "{\"ev\":\"serve_metrics\",\"t_ms\":1.0,\"window_s\":5,\"requests\":100,",
            "\"p50_ms\":0.5,\"p99_ms\":2.0,\"queue_peak\":7,\"hit_rate\":0.25,",
            "\"shed\":1,\"shed_expired\":\"oops\"}"
        );
        let err = TraceSummary::parse(bad).unwrap_err();
        assert!(err.contains("shed_expired"), "{err}");
    }

    #[test]
    fn rejects_inconsistent_serve_batches() {
        let bad_counts = concat!(
            "{\"ev\":\"serve_batch\",\"t_ms\":1.0,\"requests\":2,\"nodes\":3,",
            "\"hits\":1,\"misses\":1,\"exec_ms\":0.5,\"lat_ms\":[0.2]}"
        );
        let err = TraceSummary::parse(bad_counts).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("hits"), "{err}");

        let bad_lat = concat!(
            "{\"ev\":\"serve_batch\",\"t_ms\":1.0,\"requests\":1,\"nodes\":1,",
            "\"hits\":0,\"misses\":1,\"exec_ms\":0.5,\"lat_ms\":\"oops\"}"
        );
        let err = TraceSummary::parse(bad_lat).unwrap_err();
        assert!(err.contains("lat_ms"), "{err}");
    }

    #[test]
    fn percentile_is_nearest_rank_on_sorted_data() {
        assert_eq!(percentile(&[], 0.5), Ok(0.0));
        assert_eq!(percentile(&[7.0], 0.99), Ok(7.0));
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.0), Ok(1.0));
        assert_eq!(percentile(&xs, 1.0), Ok(100.0));
        assert_eq!(percentile(&xs, 0.50), Ok(51.0)); // nearest rank on 0..=99
        assert_eq!(percentile(&xs, 0.99), Ok(99.0));
    }

    #[test]
    fn percentile_rejects_out_of_range_quantiles() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, -0.1), Err(StatsError::BadQuantile(-0.1)));
        assert_eq!(percentile(&xs, 99.0), Err(StatsError::BadQuantile(99.0)));
        assert!(matches!(
            percentile(&xs, f64::NAN),
            Err(StatsError::BadQuantile(_))
        ));
        let msg = percentile(&xs, 2.0).unwrap_err().to_string();
        assert!(msg.contains("outside [0, 1]"), "got: {msg}");
    }

    #[test]
    #[should_panic(expected = "ascending-sorted")]
    #[cfg(debug_assertions)]
    fn percentile_asserts_sorted_input_in_debug() {
        let _ = percentile(&[3.0, 1.0, 2.0], 0.5);
    }

    #[test]
    fn sample_stats_empty_is_zero_not_error() {
        assert_eq!(sample_stats(&[]).unwrap(), SampleStats::default());
    }

    #[test]
    fn sample_stats_single_sample_is_that_sample_everywhere() {
        let s = sample_stats(&[3.25]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 3.25);
        assert_eq!(s.max, 3.25);
        assert_eq!(s.mean, 3.25);
        assert_eq!(s.p50, 3.25);
        assert_eq!(s.p99, 3.25);
    }

    #[test]
    fn sample_stats_sorts_unordered_input() {
        let xs: Vec<f64> = (1..=100).rev().map(|i| i as f64).collect();
        let s = sample_stats(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.p50, 51.0); // nearest rank, matches `percentile`
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn sample_stats_rejects_non_finite_with_index() {
        let err = sample_stats(&[1.0, f64::NAN, 2.0]).unwrap_err();
        assert!(matches!(err, StatsError::NonFinite { index: 1, .. }));
        assert!(err.to_string().contains("index 1"), "got: {err}");
        let err = sample_stats(&[f64::INFINITY]).unwrap_err();
        assert!(matches!(err, StatsError::NonFinite { index: 0, .. }));
        let err = sample_stats(&[0.0, 1.0, f64::NEG_INFINITY]).unwrap_err();
        assert!(matches!(err, StatsError::NonFinite { index: 2, .. }));
    }

    #[test]
    fn aggregates_hist_and_span_parent_events() {
        let src = [
            // 3 samples in bucket 4 ([16, 32)), 1 in bucket 5.
            "{\"ev\":\"hist\",\"t_ms\":1.0,\"name\":\"spmm\",\"count\":2,\"buckets\":[0,0,0,0,2]}",
            "{\"ev\":\"hist\",\"t_ms\":2.0,\"name\":\"spmm\",\"count\":4,\"buckets\":[0,0,0,0,3,1]}",
            "{\"ev\":\"span_parent\",\"t_ms\":2.0,\"child\":\"spmm\",\"parent\":\"forward\",\"calls\":4}",
            concat!(
                "{\"ev\":\"kernel\",\"t_ms\":2.0,\"name\":\"spmm\",\"calls\":4,",
                "\"total_ms\":2.0,\"self_ms\":1.5}"
            ),
            "{\"ev\":\"kernel\",\"t_ms\":2.0,\"name\":\"legacy\",\"calls\":1,\"total_ms\":3.0}",
        ]
        .join("\n");
        let summary = TraceSummary::parse(&src).unwrap();
        assert_eq!(summary.hists.len(), 1, "last snapshot per name wins");
        assert_eq!(summary.hists[0].snapshot.count(), 4);
        assert_eq!(
            summary.span_edges,
            vec![SpanEdge {
                child: "spmm".into(),
                parent: "forward".into(),
                calls: 4.0
            }]
        );
        let spmm = summary.kernels.iter().find(|k| k.name == "spmm").unwrap();
        assert_eq!(spmm.self_ms, 1.5);
        let legacy = summary.kernels.iter().find(|k| k.name == "legacy").unwrap();
        assert_eq!(legacy.self_ms, 3.0, "absent self_ms defaults to total");
        assert_eq!(summary.wall_ms, 2.0);
        let report = summary.render_report();
        assert!(report.contains("Kernel self-time attribution"), "{report}");
        assert!(report.contains("forwardx4"), "{report}");
        assert!(report.contains("self-time total"), "{report}");
    }

    #[test]
    fn rejects_malformed_hist_events() {
        let bad_sum = "{\"ev\":\"hist\",\"t_ms\":1.0,\"name\":\"x\",\"count\":5,\"buckets\":[1,1]}";
        let err = TraceSummary::parse(bad_sum).unwrap_err();
        assert!(err.contains("buckets sum"), "{err}");
        let neg = "{\"ev\":\"hist\",\"t_ms\":1.0,\"name\":\"x\",\"count\":1,\"buckets\":[-1]}";
        let err = TraceSummary::parse(neg).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let wide = format!(
            "{{\"ev\":\"hist\",\"t_ms\":1.0,\"name\":\"x\",\"count\":65,\"buckets\":[{}]}}",
            vec!["1"; 65].join(",")
        );
        let err = TraceSummary::parse(&wide).unwrap_err();
        assert!(err.contains("65 buckets"), "{err}");
    }

    #[test]
    fn aggregates_serve_metrics_and_env_warns() {
        let src = [
            concat!(
                "{\"ev\":\"serve_metrics\",\"t_ms\":1.0,\"window_s\":5,\"requests\":100,",
                "\"p50_ms\":0.5,\"p99_ms\":2.0,\"queue_peak\":7,\"hit_rate\":0.25,\"shed\":0}"
            ),
            concat!(
                "{\"ev\":\"env_warn\",\"t_ms\":1.0,\"var\":\"RDD_TRIALS\",",
                "\"value\":\"banana\",\"expected\":\"a positive integer\"}"
            ),
        ]
        .join("\n");
        let summary = TraceSummary::parse(&src).unwrap();
        assert_eq!(summary.serve_metrics.len(), 1);
        assert_eq!(summary.env_warns.len(), 1);
        assert!(summary.other.is_empty());
        let report = summary.render_report();
        assert!(report.contains("Serve heartbeats (1 records)"), "{report}");
        assert!(report.contains("RDD_TRIALS"), "{report}");

        let bad = concat!(
            "{\"ev\":\"serve_metrics\",\"t_ms\":1.0,\"window_s\":5,\"requests\":100,",
            "\"p50_ms\":0.5,\"p99_ms\":2.0,\"queue_peak\":7,\"hit_rate\":1.5,\"shed\":0}"
        );
        let err = TraceSummary::parse(bad).unwrap_err();
        assert!(err.contains("hit_rate"), "{err}");
    }

    #[test]
    fn report_renders_convergence_and_reliability() {
        let src = [
            epoch_line(0, 100, 40),
            epoch_line(1, 90, 30),
            concat!(
                "{\"ev\":\"member\",\"t_ms\":3.0,\"member\":1,\"alpha\":0.75,",
                "\"val_acc\":0.8,\"test_acc\":0.7,\"epochs\":2}"
            )
            .to_string(),
            concat!(
                "{\"ev\":\"run\",\"t_ms\":4.0,\"ensemble_test_acc\":0.8,",
                "\"single_test_acc\":0.7,\"members\":1}"
            )
            .to_string(),
        ]
        .join("\n");
        let summary = TraceSummary::parse(&src).unwrap();
        let report = summary.render_report();
        assert!(report.contains("Member convergence"), "{report}");
        assert!(report.contains("gcn/1"), "{report}");
        assert!(
            report.contains("0.75"),
            "alpha joined from member: {report}"
        );
        assert!(report.contains("Reliability evolution"), "{report}");
        assert!(report.contains("|V_r|"), "{report}");
        assert!(report.contains("Run: ensemble test acc 0.8"), "{report}");
    }

    #[test]
    fn rejects_epoch_records_violating_subset_invariant() {
        let err = TraceSummary::parse(&epoch_line(0, 40, 100)).unwrap_err();
        assert!(err.contains("V_b ⊆ V_r"), "got: {err}");
    }

    #[test]
    fn rejects_missing_fields_with_line_numbers() {
        let src = format!(
            "{}\n{{\"ev\":\"kernel\",\"t_ms\":1.0,\"name\":\"matmul\"}}",
            epoch_line(0, 10, 5)
        );
        let err = TraceSummary::parse(&src).unwrap_err();
        assert!(err.starts_with("line 2:"), "got: {err}");
        assert!(err.contains("calls"), "got: {err}");

        let err = TraceSummary::parse("{\"t_ms\":1.0}").unwrap_err();
        assert!(err.contains("\"ev\""), "got: {err}");

        let err = TraceSummary::parse("not json").unwrap_err();
        assert!(err.starts_with("line 1:"), "got: {err}");
    }

    #[test]
    fn renders_fixed_width_tables() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer".to_string(), "12345".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "name    value");
        assert_eq!(lines[1], "------  -----");
        assert_eq!(lines[2], "a           1");
        assert_eq!(lines[3], "longer  12345");
    }
}
