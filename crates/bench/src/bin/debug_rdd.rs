//! Diagnostic: sweep RDD loss configurations on the synthetic presets.
//!
//! Results render as a table and are emitted as structured `sweep` telemetry
//! events (captured by `RDD_TRACE=<path>`, alongside the per-epoch records
//! the trainer itself emits).

use rdd_core::{RddConfig, RddTrainer};
use rdd_graph::SynthConfig;
use rdd_obs::{render_table, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (data, base): (_, fn(f32) -> RddConfig) = match args.first().map(String::as_str) {
        Some("citeseer") => (SynthConfig::citeseer_sim().generate(), RddConfig::citation),
        Some("pubmed") => (SynthConfig::pubmed_sim().generate(), RddConfig::citation),
        Some("nell") => (SynthConfig::nell_sim().generate(), |g| {
            let mut c = RddConfig::nell();
            c.gamma_initial = g;
            c
        }),
        _ => (SynthConfig::cora_sim().generate(), RddConfig::citation),
    };
    let mut rows = Vec::new();
    for gamma in [0.3f32, 1.0, 3.0] {
        for beta in [0.0f32, 1.0, 10.0] {
            let mut cfg = base(gamma);
            cfg.beta = beta;
            let out = RddTrainer::new(cfg).run(&data);
            rdd_obs::event(
                "sweep",
                &[
                    ("dataset", Json::from(data.name.as_str())),
                    ("gamma", Json::from(gamma)),
                    ("beta", Json::from(beta)),
                    ("ensemble_test_acc", Json::from(out.ensemble_test_acc)),
                    ("single_test_acc", Json::from(out.single_test_acc)),
                    (
                        "average_base_test_acc",
                        Json::from(out.average_base_test_acc()),
                    ),
                    ("wall_time_s", Json::from(out.wall_time_s)),
                ],
            );
            rows.push(vec![
                format!("{gamma}"),
                format!("{beta}"),
                format!("{:.1}%", 100.0 * out.ensemble_test_acc),
                format!("{:.1}%", 100.0 * out.single_test_acc),
                format!("{:.1}%", 100.0 * out.average_base_test_acc()),
                format!("{:.0}s", out.wall_time_s),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &["gamma", "beta", "ensemble", "single", "avg base", "wall"],
            &rows
        )
    );
    rdd_obs::flush();
}
