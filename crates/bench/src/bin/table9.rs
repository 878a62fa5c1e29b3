//! Table 9 — training cost to reach a target accuracy on Cora.
//!
//! The paper reports, for each ensemble method, the average wall-clock time
//! per base model, the number of base models needed to reach 84% on Cora,
//! and the product. Here the target is set relative to the measured plain
//! GCN (GCN + 1.1pp, mirroring the paper's 81.8 → 84.0 gap) so the
//! comparison is meaningful on the synthetic dataset; absolute seconds
//! differ from the paper's GPU numbers but the *ratios* are the claim.

use rdd_baselines::{bagging, bans, BansConfig};
use rdd_bench::{model_configs, preset, rdd_config, TablePrinter};
use rdd_core::RddTrainer;
use rdd_models::{train, Gcn, GraphContext, PredictorExt};
use rdd_tensor::seeded_rng;

fn main() {
    let cfg = preset("cora");
    let (gcn_cfg, train_cfg) = model_configs(cfg.name);
    let data = cfg.generate();
    const MAX_MODELS: usize = 5;

    // Reference single GCN sets the target.
    let ctx = GraphContext::new(&data);
    let mut rng = seeded_rng(1);
    let mut gcn = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
    train(&mut gcn, &ctx, &data, &train_cfg, &mut rng, None);
    let gcn_acc = data.test_accuracy(&gcn.predictor(&ctx).predict());
    let target = gcn_acc + 0.011;
    println!(
        "single GCN = {:.1}%; target accuracy = {:.1}% (paper: GCN 81.8% -> target 84.0%)",
        100.0 * gcn_acc,
        100.0 * target
    );

    let b = bagging(&data, &gcn_cfg, &train_cfg, MAX_MODELS, 1);
    let bn = bans(
        &data,
        &gcn_cfg,
        &train_cfg,
        MAX_MODELS,
        &BansConfig::default(),
        1,
    );
    let mut rdd_cfg = rdd_config(cfg.name);
    rdd_cfg.num_base_models = MAX_MODELS;
    let r = RddTrainer::new(rdd_cfg).run(&data);

    // Models needed = first ensemble prefix reaching the target.
    let needed = |prefix: &[f32]| -> Option<usize> {
        prefix.iter().position(|&a| a >= target).map(|i| i + 1)
    };
    let rows = [
        (
            "Bagging",
            b.per_model_time_s.clone(),
            needed(&b.prefix_test_accs),
            b.prefix_test_accs.clone(),
        ),
        (
            "BANs",
            bn.per_model_time_s.clone(),
            needed(&bn.prefix_test_accs),
            bn.prefix_test_accs.clone(),
        ),
        (
            "RDD(Ensemble)",
            r.base_models.iter().map(|m| m.report.wall_time_s).collect(),
            needed(&r.prefix_ensemble_test_accs),
            r.prefix_ensemble_test_accs.clone(),
        ),
    ];

    println!();
    println!(
        "Table 9: training cost to reach the target (CPU seconds; paper GPU values in parens)"
    );
    let tp = TablePrinter::new(26, 14);
    tp.header("", &["Bagging", "BANs", "RDD(Ensemble)"]);
    let avg_times: Vec<f64> = rows
        .iter()
        .map(|(_, times, _, _)| times.iter().sum::<f64>() / times.len() as f64)
        .collect();
    let cells: Vec<String> = avg_times
        .iter()
        .zip(rdd_bench::paper::T9)
        .map(|(t, p)| format!("{t:.2} ({:.2})", p.1))
        .collect();
    tp.row(
        "Avg time per model (s)",
        &cells.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let cells: Vec<String> = rows
        .iter()
        .zip(rdd_bench::paper::T9)
        .map(|((_, _, n, _), p)| match n {
            Some(n) => format!("{n} ({})", p.2),
            None => format!(">{MAX_MODELS} ({})", p.2),
        })
        .collect();
    tp.row(
        "Base models to target",
        &cells.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let cells: Vec<String> = rows
        .iter()
        .zip(avg_times.iter())
        .zip(rdd_bench::paper::T9)
        .map(|(((_, _, n, _), avg), p)| match n {
            Some(n) => format!("{:.2} ({:.3})", *n as f64 * avg, p.3),
            None => format!("n/a ({:.3})", p.3),
        })
        .collect();
    tp.row(
        "Total time (s)",
        &cells.iter().map(String::as_str).collect::<Vec<_>>(),
    );

    println!();
    println!("ensemble accuracy by number of base models:");
    for (label, _, _, prefix) in &rows {
        let accs: Vec<String> = prefix.iter().map(|a| format!("{:.1}", 100.0 * a)).collect();
        println!("  {label:<14} {}", accs.join(" -> "));
    }
    rdd_obs::flush();
}
