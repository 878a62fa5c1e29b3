//! Deterministic fault injection for exercising the crash-safe run and
//! serve paths.
//!
//! A fault is described as `<kind>@<site>:<n>` — the *n*-th time (0-indexed)
//! execution passes the named site, the fault fires exactly once. An
//! optional repeat count `<kind>@<site>:<n>x<k>` fires on the `k`
//! consecutive passes `n..n+k` instead (chaos tests that must survive more
//! than one hit per process):
//!
//! - `nan_loss@epoch:7` — the 8th epoch attempt reports a non-finite loss,
//!   exercising the divergence guard's rollback path.
//! - `io_fail@ckpt:2` — the 3rd atomic checkpoint write fails with an
//!   injected I/O error, killing a crash-safe run mid-persist.
//! - `panic@member:1` — member 1's training panics, exercising the
//!   `catch_unwind` isolation and `rdd resume`.
//! - `panic@serve_worker:0x2` — the first two batches claimed by serve-pool
//!   workers panic, exercising worker supervision (requeue + respawn).
//! - `io_fail@swap_load` — a watched-artifact reload fails, exercising swap
//!   rollback.
//! - `slow@serve_batch:0x50` — the first 50 served batches stall, tripping
//!   the overload circuit breaker.
//!
//! The spec comes from the `RDD_FAULT` environment variable, read once per
//! process (latched, like `RDD_TRACE` / `RDD_SIMD`); tests inject
//! programmatically via [`arm`] / [`disarm`], which override the latch.
//! Unparseable values route a warning through the recorder and disarm.
//!
//! Instrumented code calls [`fire`] at each site and acts on the returned
//! [`FaultKind`]; the module emits a `fault` trace event at the moment a
//! fault fires so traces explain what a run survived. Counting is
//! process-global and per-site: every pass over the armed site increments
//! its counter whether or not the fault has fired yet.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::recorder::{event, warn};

/// What an injected fault does at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The training loop treats the epoch's loss as NaN.
    NanLoss,
    /// An atomic checkpoint write returns an injected `io::Error`.
    IoFail,
    /// The site panics (caught by the crash-safe member isolation or the
    /// serve-pool worker supervisor).
    Panic,
    /// The site stalls long enough to blow a latency SLO (serve-path chaos
    /// for the overload circuit breaker).
    Slow,
}

impl FaultKind {
    /// Spec-string name of the kind
    /// (`nan_loss` / `io_fail` / `panic` / `slow`).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::NanLoss => "nan_loss",
            FaultKind::IoFail => "io_fail",
            FaultKind::Panic => "panic",
            FaultKind::Slow => "slow",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "nan_loss" => Some(FaultKind::NanLoss),
            "io_fail" => Some(FaultKind::IoFail),
            "panic" => Some(FaultKind::Panic),
            "slow" => Some(FaultKind::Slow),
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
struct FaultSpec {
    kind: FaultKind,
    site: String,
    n: u64,
    /// Consecutive passes that fire, starting at `n` (default 1).
    k: u64,
}

fn parse_spec(raw: &str) -> Result<Option<FaultSpec>, String> {
    let raw = raw.trim();
    if raw.is_empty() || raw == "off" {
        return Ok(None);
    }
    let err = || {
        format!(
            "invalid RDD_FAULT spec {raw:?}: expected <kind>@<site>:<n> or \
             <kind>@<site>:<n>x<k>, e.g. nan_loss@epoch:7 or panic@serve_worker:0x2"
        )
    };
    let (kind_s, rest) = raw.split_once('@').ok_or_else(err)?;
    let (site, n_s) = rest.rsplit_once(':').ok_or_else(err)?;
    let kind = FaultKind::parse(kind_s).ok_or_else(|| {
        format!(
            "invalid RDD_FAULT kind {kind_s:?}: expected nan_loss, io_fail, panic \
             or slow"
        )
    })?;
    if site.is_empty() {
        return Err(err());
    }
    let (n_s, k_s) = match n_s.split_once('x') {
        Some((n_s, k_s)) => (n_s, Some(k_s)),
        None => (n_s, None),
    };
    let n: u64 = n_s.parse().map_err(|_| err())?;
    let k: u64 = match k_s {
        Some(k_s) => k_s.parse().map_err(|_| err())?,
        None => 1,
    };
    if k == 0 {
        return Err(err());
    }
    Ok(Some(FaultSpec {
        kind,
        site: site.to_string(),
        n,
        k,
    }))
}

struct FaultState {
    /// `None` until the first [`fire`] / [`arm`] latches the env variable.
    initialized: bool,
    spec: Option<FaultSpec>,
    /// Passes seen over the armed site.
    count: u64,
    /// Passes that have fired so far (spent once `fired == spec.k`).
    fired: u64,
}

static STATE: Mutex<FaultState> = Mutex::new(FaultState {
    initialized: false,
    spec: None,
    count: 0,
    fired: 0,
});

/// [`ARMED`] before the first [`fire`] / [`arm`] latches `RDD_FAULT`.
const UNLATCHED: u8 = 0;
/// [`ARMED`] while no spec is set: [`fire`] returns without locking.
const NOTHING: u8 = 1;
/// [`ARMED`] while a spec is set.
const SPEC: u8 = 2;

/// Whether [`STATE`] holds a spec, readable without its lock. Written
/// only under the lock, whenever `spec` changes.
static ARMED: AtomicU8 = AtomicU8::new(UNLATCHED);

fn set_spec(state: &mut FaultState, spec: Option<FaultSpec>) {
    let flag = if spec.is_some() { SPEC } else { NOTHING };
    state.spec = spec;
    ARMED.store(flag, Ordering::Release);
}

fn ensure_init(state: &mut FaultState) {
    if state.initialized {
        return;
    }
    state.initialized = true;
    let spec = match std::env::var("RDD_FAULT") {
        Ok(raw) => parse_spec(&raw).unwrap_or_else(|msg| {
            warn(&msg);
            None
        }),
        Err(_) => None,
    };
    set_spec(state, spec);
}

/// Arm a fault programmatically (tests), replacing any env-latched spec and
/// resetting the pass counter. An empty spec or `"off"` disarms.
pub fn arm(spec: &str) -> Result<(), String> {
    let parsed = parse_spec(spec)?;
    let mut state = STATE.lock().unwrap();
    state.initialized = true;
    set_spec(&mut state, parsed);
    state.count = 0;
    state.fired = 0;
    Ok(())
}

/// Disarm any pending fault and reset counters (tests).
pub fn disarm() {
    arm("off").expect("\"off\" always parses");
}

/// True when a fault spec is armed and has not fully fired yet (fewer than
/// `k` passes have fired).
pub fn armed() -> bool {
    let mut state = STATE.lock().unwrap();
    ensure_init(&mut state);
    match state.spec.as_ref() {
        Some(spec) => state.fired < spec.k,
        None => false,
    }
}

/// Record one pass over `site`. Returns the armed [`FaultKind`] on the `k`
/// consecutive passes whose 0-indexed count falls in `n..n+k` (`k` defaults
/// to 1, so a plain `:<n>` spec fires exactly once). Emits a `fault` trace
/// event each time it fires. Callers decide what the kind means at their
/// site (unknown combinations are ignored by convention).
///
/// With nothing armed this is one atomic load: the trainer passes a site
/// every epoch and the serve pool twice per batch.
pub fn fire(site: &str) -> Option<FaultKind> {
    if ARMED.load(Ordering::Acquire) == NOTHING {
        return None;
    }
    let mut state = STATE.lock().unwrap();
    ensure_init(&mut state);
    let (kind, n, k) = match state.spec.as_ref() {
        Some(spec) if spec.site == site => (spec.kind, spec.n, spec.k),
        _ => return None,
    };
    let pass = state.count;
    state.count += 1;
    if pass < n || pass >= n + k {
        return None;
    }
    state.fired += 1;
    drop(state);
    event(
        "fault",
        &[
            ("kind", Json::from(kind.as_str())),
            ("site", Json::from(site)),
            ("n", Json::Num(n as f64)),
            ("pass", Json::Num(pass as f64)),
        ],
    );
    Some(kind)
}

#[cfg(test)]
mod tests {
    use super::super::recorder;
    use super::*;

    #[test]
    fn spec_parsing_accepts_the_documented_grammar() {
        let spec = parse_spec("nan_loss@epoch:7").unwrap().unwrap();
        assert_eq!(spec.kind, FaultKind::NanLoss);
        assert_eq!(spec.site, "epoch");
        assert_eq!(spec.n, 7);
        let spec = parse_spec(" io_fail@ckpt:0 ").unwrap().unwrap();
        assert_eq!(spec.kind, FaultKind::IoFail);
        let spec = parse_spec("panic@member:1").unwrap().unwrap();
        assert_eq!(spec.kind, FaultKind::Panic);
        assert_eq!(spec.k, 1, "plain :<n> specs fire once");
        let spec = parse_spec("panic@serve_worker:0x2").unwrap().unwrap();
        assert_eq!(spec.kind, FaultKind::Panic);
        assert_eq!((spec.n, spec.k), (0, 2));
        let spec = parse_spec("slow@serve_batch:0x50").unwrap().unwrap();
        assert_eq!(spec.kind, FaultKind::Slow);
        assert_eq!((spec.n, spec.k), (0, 50));
        assert!(parse_spec("").unwrap().is_none());
        assert!(parse_spec("off").unwrap().is_none());

        for bad in [
            "nan_loss",
            "nan_loss@epoch",
            "nan_loss@:3",
            "explode@epoch:3",
            "nan_loss@epoch:x",
            "nan_loss@epoch:-1",
            "panic@serve_worker:0x",
            "panic@serve_worker:0x0",
            "panic@serve_worker:x2",
            "corrupt@swap_load:0",
        ] {
            let err = parse_spec(bad).unwrap_err();
            assert!(err.contains("RDD_FAULT"), "{bad:?} -> {err}");
        }

        let err = parse_spec("explode@epoch:3").unwrap_err();
        for kind in ["nan_loss", "io_fail", "panic", "slow"] {
            assert!(err.contains(kind), "kind list should mention {kind}: {err}");
        }
    }

    #[test]
    fn repeat_count_fires_on_k_consecutive_passes() {
        let _g = recorder::tests::lock();
        arm("panic@serve_worker:1x2").unwrap();
        assert_eq!(fire("serve_worker"), None); // pass 0
        assert!(armed());
        assert_eq!(fire("serve_worker"), Some(FaultKind::Panic)); // pass 1
        assert!(armed(), "one of two firings left");
        assert_eq!(fire("serve_worker"), Some(FaultKind::Panic)); // pass 2
        assert!(!armed(), "all k firings spent");
        assert_eq!(fire("serve_worker"), None); // pass 3
        disarm();
    }

    #[test]
    fn fires_exactly_once_at_the_indexed_pass() {
        let _g = recorder::tests::lock();
        arm("nan_loss@epoch:2").unwrap();
        assert!(armed());
        assert_eq!(fire("ckpt"), None, "other sites never fire");
        assert_eq!(fire("epoch"), None); // pass 0
        assert_eq!(fire("epoch"), None); // pass 1
        assert_eq!(fire("epoch"), Some(FaultKind::NanLoss)); // pass 2
        assert!(!armed(), "a fired fault is spent");
        assert_eq!(fire("epoch"), None, "never fires twice");
        disarm();
        assert_eq!(fire("epoch"), None);
    }

    #[test]
    fn firing_emits_a_fault_event() {
        let _g = recorder::tests::lock();
        let path = std::env::temp_dir().join(format!(
            "rdd_obs_fault_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        recorder::init_file(&path).unwrap();
        arm("panic@member:0").unwrap();
        assert_eq!(fire("member"), Some(FaultKind::Panic));
        disarm();
        recorder::flush();
        recorder::disable();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("\"ev\":\"fault\""))
            .expect("fault event recorded");
        assert!(line.contains("\"kind\":\"panic\""), "{line}");
        assert!(line.contains("\"site\":\"member\""), "{line}");
        std::fs::remove_file(&path).ok();
    }
}
