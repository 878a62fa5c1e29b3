//! Table 6 — impact of the ensemble technique on Cora: average base-model
//! accuracy vs combined-model accuracy and the resulting gain, for Bagging,
//! BANs and RDD.

use rdd_baselines::{bagging, bans, BansConfig};
use rdd_bench::{mean_std, model_configs, num_trials, paper, preset, rdd_config, TablePrinter};
use rdd_core::RddTrainer;

fn main() {
    let cfg = preset("cora");
    let (gcn_cfg, train_cfg) = model_configs(cfg.name);
    let trials = num_trials();
    const NUM_MODELS: usize = 5;

    // (average, ensemble) per method per trial.
    let mut avg = [Vec::new(), Vec::new(), Vec::new()];
    let mut ens = [Vec::new(), Vec::new(), Vec::new()];
    let data = cfg.generate();
    for t in 0..trials as u64 {
        let b = bagging(&data, &gcn_cfg, &train_cfg, NUM_MODELS, t);
        avg[0].push(b.average_base_test_acc());
        ens[0].push(b.ensemble_test_acc);
        let bn = bans(
            &data,
            &gcn_cfg,
            &train_cfg,
            NUM_MODELS,
            &BansConfig::default(),
            t,
        );
        avg[1].push(bn.average_base_test_acc());
        ens[1].push(bn.ensemble_test_acc);
        let mut rdd_cfg = rdd_config(cfg.name);
        rdd_cfg.num_base_models = NUM_MODELS;
        rdd_cfg.seed = t;
        let r = RddTrainer::new(rdd_cfg).run(&data);
        avg[2].push(r.average_base_test_acc());
        ens[2].push(r.ensemble_test_acc);
    }

    println!("Table 6: ensemble impact on cora-sim, {trials} trials — measured (paper)");
    let tp = TablePrinter::new(10, 16);
    tp.header("Accuracy", &["Bagging", "BANs", "RDD(Ensemble)"]);
    let fmt_row = |ours: &[Vec<f32>; 3], col: usize| -> String {
        let (m, _) = mean_std(&ours[col]);
        format!("{:.1}", 100.0 * m)
    };
    let rows: Vec<(&str, Vec<String>)> = vec![
        (
            "Average",
            (0..3)
                .map(|c| format!("{} ({:.1})", fmt_row(&avg, c), paper::T6[c].1))
                .collect(),
        ),
        (
            "Ensemble",
            (0..3)
                .map(|c| format!("{} ({:.1})", fmt_row(&ens, c), paper::T6[c].2))
                .collect(),
        ),
        (
            "Gain",
            (0..3)
                .map(|c| {
                    let (ma, _) = mean_std(&avg[c]);
                    let (me, _) = mean_std(&ens[c]);
                    format!("{:.1} ({:.1})", 100.0 * (me - ma), paper::T6[c].3)
                })
                .collect(),
        ),
    ];
    for (label, cells) in rows {
        tp.row(label, &cells.iter().map(String::as_str).collect::<Vec<_>>());
    }
    rdd_obs::flush();
}
