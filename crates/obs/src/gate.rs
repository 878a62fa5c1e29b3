//! The perf-regression gate behind `rdd report <trace> --gate <baseline>`.
//!
//! A trace flattens into a metric set ([`metrics_from_summary`]): `wall_ms`,
//! per-kernel `<name>.ms_per_call` / `<name>.self_ms_per_call`, and (when
//! the trace served requests) the final heartbeat's `serve.p50_ms` /
//! `serve.p99_ms` plus `serve.ms_per_request` from the final `serve_run`
//! event. A baseline is either such a set written as flat
//! `{"metric": ms, ...}` JSON ([`write_baseline`]) or another trace.
//!
//! A metric regresses when `current > baseline * (1 + tol/100)` AND
//! `current - baseline > floor_ms`; the absolute floor keeps sub-noise
//! metrics from flaking the gate. Improvements never fail. Metrics present
//! on only one side are reported but never fatal, so adding or removing a
//! kernel does not require a lockstep baseline update.

use std::path::Path;

use crate::json::{parse, Json};
use crate::summarize::TraceSummary;

/// One metric set: (name, milliseconds), in trace order.
pub type Metrics = Vec<(String, f64)>;

/// Tolerances of one gate run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateConfig {
    /// Allowed slowdown, in percent of the baseline.
    pub tol_default: f64,
    /// Absolute slowdown, in ms, below which no metric regresses.
    pub floor_ms: f64,
    /// Factor every current metric is multiplied by before comparison —
    /// the self-test hook that proves the gate can fire.
    pub inject: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            tol_default: 75.0,
            floor_ms: 0.01,
            inject: 1.0,
        }
    }
}

/// Flatten a trace summary into the gate's metric set.
pub fn metrics_from_summary(s: &TraceSummary) -> Metrics {
    let mut out = vec![("wall_ms".to_string(), s.wall_ms)];
    for k in &s.kernels {
        if k.calls > 0.0 {
            out.push((format!("{}.ms_per_call", k.name), k.total_ms / k.calls));
            out.push((format!("{}.self_ms_per_call", k.name), k.self_ms / k.calls));
        }
    }
    // Serving view: the last heartbeat covers the whole session when the
    // CLI emits its final-at-EOF beat.
    if let Some(beat) = s.serve_metrics.last() {
        for key in ["p50_ms", "p99_ms"] {
            if let Some(v) = beat.get(key).and_then(Json::as_f64) {
                out.push((format!("serve.{key}"), v));
            }
        }
    }
    // Serve efficiency: wall ms per answered request over the last serve
    // session.
    if let Some(run) = s.serve_runs.last() {
        let wall = run.get("wall_ms").and_then(Json::as_f64);
        let requests = run.get("requests").and_then(Json::as_f64);
        if let (Some(wall), Some(requests)) = (wall, requests) {
            if requests > 0.0 {
                out.push(("serve.ms_per_request".to_string(), wall / requests));
            }
        }
    }
    out
}

/// Read metrics from text that is either a flat baseline JSON object
/// (every value numeric) or a JSONL trace.
pub fn parse_metrics(src: &str) -> Result<Metrics, String> {
    // A baseline file is one JSON object; a trace is many lines, which the
    // whole-text parse rejects with "trailing characters".
    if let Ok(Json::Obj(fields)) = parse(src) {
        return fields
            .into_iter()
            .map(|(name, value)| match value.as_f64() {
                Some(v) => Ok((name, v)),
                None => Err(format!("baseline field {name:?} is not a number")),
            })
            .collect();
    }
    Ok(metrics_from_summary(&TraceSummary::parse(src)?))
}

/// [`parse_metrics`] over a file; errors name the path.
pub fn load_metrics(path: &Path) -> Result<Metrics, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
    parse_metrics(&src).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write `metrics` as a flat baseline JSON object, one metric a line.
pub fn write_baseline(path: &Path, metrics: &[(String, f64)]) -> Result<(), String> {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| format!("  {name:?}: {v:.6}"))
        .collect();
    std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")))
        .map_err(|e| format!("failed to write {}: {e}", path.display()))
}

/// Compare `current` against `baseline`. Returns the verdict table and
/// whether any metric regressed.
pub fn run_gate(
    current: &[(String, f64)],
    baseline: &[(String, f64)],
    cfg: &GateConfig,
) -> (String, bool) {
    let mut table = format!(
        "{:<28} {:>10} {:>10} {:>8} {:>6}  verdict\n",
        "metric", "base_ms", "cur_ms", "delta%", "tol%"
    );
    let mut regressed = false;
    let tol = cfg.tol_default;
    for (name, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(n, _)| n == name) else {
            table.push_str(&format!(
                "{name:<28} {base:>10.4} {:>10} {:>8} {:>6}  absent (skipped)\n",
                "-", "-", "-"
            ));
            continue;
        };
        let cur = cur * cfg.inject;
        let delta_pct = if *base > 0.0 {
            (cur - base) / base * 100.0
        } else if cur > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let verdict = if cur > base * (1.0 + tol / 100.0) && cur - base > cfg.floor_ms {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        table.push_str(&format!(
            "{name:<28} {base:>10.4} {cur:>10.4} {delta_pct:>+8.1} {tol:>6.0}  {verdict}\n"
        ));
    }
    for (name, _) in current {
        if !baseline.iter().any(|(n, _)| n == name) {
            table.push_str(&format!(
                "{name:<28} new metric, not in baseline (skipped)\n"
            ));
        }
    }
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"ev\":\"kernel\",\"t_ms\":10.0,\"name\":\"spmm\",\"calls\":4,",
        "\"total_ms\":2.0,\"self_ms\":1.0}\n",
        "{\"ev\":\"kernel\",\"t_ms\":10.0,\"name\":\"idle\",\"calls\":0,\"total_ms\":0}\n",
        "{\"ev\":\"serve_metrics\",\"t_ms\":11.0,\"window_s\":5,\"requests\":100,",
        "\"p50_ms\":0.5,\"p99_ms\":2.0,\"queue_peak\":7,\"hit_rate\":0.25,\"shed\":0}\n",
        "{\"ev\":\"serve_run\",\"t_ms\":12.0,\"requests\":8,\"batches\":2,",
        "\"hits\":2,\"misses\":6,\"wall_ms\":4.0}\n",
    );

    fn metric(m: &Metrics, name: &str) -> Option<f64> {
        m.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    #[test]
    fn a_trace_flattens_into_per_call_and_serve_metrics() {
        let m = parse_metrics(TRACE).unwrap();
        assert_eq!(metric(&m, "wall_ms"), Some(12.0));
        assert_eq!(metric(&m, "spmm.ms_per_call"), Some(0.5));
        assert_eq!(metric(&m, "spmm.self_ms_per_call"), Some(0.25));
        assert_eq!(
            metric(&m, "idle.ms_per_call"),
            None,
            "zero-call kernels are skipped"
        );
        assert_eq!(metric(&m, "serve.p50_ms"), Some(0.5));
        assert_eq!(metric(&m, "serve.p99_ms"), Some(2.0));
        assert_eq!(metric(&m, "serve.ms_per_request"), Some(0.5));
    }

    #[test]
    fn a_written_baseline_reads_back_and_a_bad_one_is_an_error() {
        let m = parse_metrics(TRACE).unwrap();
        let path = std::env::temp_dir().join(format!("rdd_gate_{}.json", std::process::id()));
        write_baseline(&path, &m).unwrap();
        let back = load_metrics(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, m);

        let err = parse_metrics("{\"wall_ms\": \"slow\"}").unwrap_err();
        assert!(err.contains("wall_ms"), "{err}");
        let err = parse_metrics("{\"ev\":\"kernel\",\"t_ms\":1}\nnot json").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = load_metrics(Path::new("/nonexistent/baseline.json")).unwrap_err();
        assert!(err.contains("/nonexistent/baseline.json"), "{err}");
    }

    #[test]
    fn regression_needs_both_the_tolerance_and_the_floor() {
        let base = vec![("a".to_string(), 1.0), ("b".to_string(), 0.001)];
        let cfg = GateConfig::default();
        // a: +50% is inside 75%; b: +900% but only 0.009 ms, under the floor.
        let cur = vec![("a".to_string(), 1.5), ("b".to_string(), 0.01)];
        let (table, regressed) = run_gate(&cur, &base, &cfg);
        assert!(!regressed, "{table}");
        // a: +100% and +1 ms is past both.
        let cur = vec![("a".to_string(), 2.0), ("b".to_string(), 0.001)];
        let (table, regressed) = run_gate(&cur, &base, &cfg);
        assert!(regressed, "{table}");
        assert!(table.contains("REGRESSED"), "{table}");
        // Improvements never fail.
        let cur = vec![("a".to_string(), 0.1), ("b".to_string(), 0.0)];
        assert!(!run_gate(&cur, &base, &cfg).1);
    }

    #[test]
    fn inject_makes_a_self_compare_fail_and_one_sided_metrics_pass() {
        let m = parse_metrics(TRACE).unwrap();
        let cfg = GateConfig::default();
        assert!(!run_gate(&m, &m, &cfg).1, "a trace passes against itself");
        let doubled = GateConfig { inject: 2.0, ..cfg };
        assert!(
            run_gate(&m, &m, &doubled).1,
            "an injected 2x slowdown is caught"
        );

        let base = vec![("gone".to_string(), 1.0)];
        let cur = vec![("new".to_string(), 9.0)];
        let (table, regressed) = run_gate(&cur, &base, &cfg);
        assert!(!regressed, "{table}");
        assert!(table.contains("absent (skipped)"), "{table}");
        assert!(table.contains("new metric, not in baseline"), "{table}");
    }
}
