//! Integration test: a fast RDD run with the trace sink enabled emits one
//! well-formed epoch record per epoch actually run, carrying the reliability
//! counts with `|V_b| <= |V_r|`, plus member/run records, a kernel snapshot
//! with hierarchical self-times (summing to at most the wall clock), the
//! per-span latency histograms and the span-parent edges behind them; and
//! `rdd report` renders each of those sections.
//!
//! Single `#[test]`: the recorder sink is process-global.

use rdd_core::{RddConfig, RddTrainer};
use rdd_graph::SynthConfig;
use rdd_obs::{Json, TraceSummary};

#[test]
fn fast_run_emits_well_formed_epoch_records() {
    let path = std::env::temp_dir().join(format!("rdd_obs_trace_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    rdd_obs::init_file(&path).expect("init trace sink");

    let dataset = SynthConfig::tiny().generate();
    let cfg = RddConfig::fast();
    let members = cfg.num_base_models;
    let outcome = RddTrainer::new(cfg).run(&dataset);

    let src = std::fs::read_to_string(&path).expect("trace file readable");
    // `parse` re-checks every schema rule, including |V_b| <= |V_r|.
    let summary = TraceSummary::parse(&src).expect("trace validates");

    assert_eq!(summary.members.len(), members);
    assert_eq!(summary.runs.len(), 1);
    assert!(!summary.kernels.is_empty(), "kernel snapshot missing");

    // Hierarchical spans: self-times never exceed totals per kernel, and
    // the self-time sum — the whole point of the hierarchy is that it
    // cannot double count — stays within the trace's wall clock.
    let self_total: f64 = summary.kernels.iter().map(|k| k.self_ms).sum();
    for k in &summary.kernels {
        assert!(
            k.self_ms <= k.total_ms + 1e-9,
            "{}: self_ms {} > total_ms {}",
            k.name,
            k.self_ms,
            k.total_ms
        );
    }
    assert!(
        self_total <= summary.wall_ms * 1.01 + 1.0,
        "kernel self-times ({self_total} ms) exceed wall clock ({} ms)",
        summary.wall_ms
    );

    // Every traced kernel carries a duration histogram whose count matches
    // its call count, and the trainer stages appear as span-parent edges.
    for k in &summary.kernels {
        let hist = summary
            .hists
            .iter()
            .find(|h| h.name == k.name)
            .unwrap_or_else(|| panic!("{}: no hist event", k.name));
        assert_eq!(
            hist.snapshot.count() as f64,
            k.calls,
            "{}: hist count disagrees with kernel calls",
            k.name
        );
    }
    assert!(
        summary
            .span_edges
            .iter()
            .any(|e| e.parent == "train.epoch" && e.calls > 0.0),
        "no span edge parented by train.epoch: {:?}",
        summary.span_edges
    );
    let run_acc = summary.runs[0]
        .get("ensemble_test_acc")
        .and_then(Json::as_f64)
        .expect("run record has ensemble_test_acc");
    assert!((run_acc - f64::from(outcome.ensemble_test_acc)).abs() < 1e-6);

    // One epoch record per epoch run, numbered 0..epochs_run, per member.
    for (t, member) in summary.members.iter().enumerate() {
        let epochs_run = member
            .get("epochs")
            .and_then(Json::as_f64)
            .expect("member record has epochs") as usize;
        let mut epochs: Vec<usize> = summary
            .epochs
            .iter()
            .filter(|e| e.get("member").and_then(Json::as_f64).map(|m| m as usize) == Some(t))
            .map(|e| e.get("epoch").and_then(Json::as_f64).expect("epoch number") as usize)
            .collect();
        epochs.sort_unstable();
        let expect: Vec<usize> = (0..epochs_run).collect();
        assert_eq!(
            epochs, expect,
            "member {t}: missing or duplicate epoch records"
        );
    }

    // Distillation members (t > 0) must carry the reliability extras.
    let distill_epochs: Vec<&Json> = summary
        .epochs
        .iter()
        .filter(|e| {
            e.get("member")
                .and_then(Json::as_f64)
                .map(|m| m as usize > 0)
                == Some(true)
        })
        .collect();
    assert!(!distill_epochs.is_empty());
    for e in &distill_epochs {
        let num = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(num("v_r") >= 0.0, "v_r missing");
        assert!(num("e_r") >= 0.0, "e_r missing");
        assert!(num("gamma") >= 0.0, "gamma missing");
        assert!(num("v_b") <= num("v_r"), "V_b must be a subset of V_r: {e}");
        let alpha = e.get("alpha").and_then(Json::as_arr).expect("alpha array");
        assert!(!alpha.is_empty(), "distill epoch must list teacher alphas");
    }

    // The report renders every section this run fed.
    let report = summary.render_report();
    for section in [
        "Member convergence",
        "Reliability evolution",
        "Kernel self-time attribution",
        "Counters & gauges",
        "Run: ensemble test acc",
    ] {
        assert!(
            report.contains(section),
            "report lacks {section:?}:\n{report}"
        );
    }

    let _ = std::fs::remove_file(&path);
}
