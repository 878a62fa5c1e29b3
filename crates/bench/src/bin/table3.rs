//! Table 3 — RDD (single and ensemble) against the ensemble baselines
//! (single GCN, Bagging, BANs) on all four datasets.
//!
//! Every ensemble uses five two-layer GCN base models, as in the paper.
//! Results are means over `RDD_TRIALS` dataset/seed trials (paper: 10).
//! Pass dataset names as arguments to restrict the run, e.g.
//! `table3 cora citeseer`.

use rdd_baselines::{bagging, bans, BansConfig};
use rdd_bench::{
    mean_std, model_configs, num_trials, paper, pct, preset, rdd_config, TablePrinter,
};
use rdd_core::RddTrainer;
use rdd_models::{train, Gcn, GraphContext, PredictorExt};
use rdd_tensor::seeded_rng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        vec!["cora", "citeseer", "pubmed", "nell"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let trials = num_trials();
    const NUM_MODELS: usize = 5;

    // rows[method][dataset] = (mean, std)
    let methods = [
        "Single GCN",
        "RDD(Single)",
        "Bagging",
        "BANs",
        "RDD(Ensemble)",
    ];
    let mut measured = vec![vec![(0.0f32, 0.0f32); names.len()]; methods.len()];

    for (d, name) in names.iter().enumerate() {
        let cfg = preset(name);
        let (gcn_cfg, train_cfg) = model_configs(cfg.name);
        let mut accs = vec![Vec::with_capacity(trials); methods.len()];
        let data = cfg.generate();
        let ctx = GraphContext::new(&data);
        for t in 0..trials as u64 {
            let mut rng = seeded_rng(t);
            let mut gcn = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
            train(&mut gcn, &ctx, &data, &train_cfg, &mut rng, None);
            accs[0].push(data.test_accuracy(&gcn.predictor(&ctx).predict()));

            let mut rdd_cfg = rdd_config(cfg.name);
            rdd_cfg.num_base_models = NUM_MODELS;
            rdd_cfg.seed = t;
            let rdd = RddTrainer::new(rdd_cfg).run(&data);
            accs[1].push(rdd.single_test_acc);
            accs[4].push(rdd.ensemble_test_acc);

            accs[2].push(bagging(&data, &gcn_cfg, &train_cfg, NUM_MODELS, t).ensemble_test_acc);
            accs[3].push(
                bans(
                    &data,
                    &gcn_cfg,
                    &train_cfg,
                    NUM_MODELS,
                    &BansConfig::default(),
                    t,
                )
                .ensemble_test_acc,
            );
        }
        for (m, a) in accs.iter().enumerate() {
            measured[m][d] = mean_std(a);
        }
        eprintln!("[table3] finished {name}");
    }

    let paper_rows: [&[f32; 4]; 5] = [
        &paper::T3_GCN,
        &paper::T3_RDD_SINGLE,
        &paper::T3_BAGGING,
        &paper::T3_BANS,
        &paper::T3_RDD_ENSEMBLE,
    ];
    let paper_idx = |name: &str| match name {
        n if n.starts_with("cora") => 0,
        n if n.starts_with("citeseer") => 1,
        n if n.starts_with("pubmed") => 2,
        _ => 3,
    };

    println!("Table 3: accuracy (%) — measured (paper), {trials} trials, 5 base models");
    let tp = TablePrinter::new(14, 13);
    let headers: Vec<&str> = names.clone();
    tp.header("Models", &headers);
    for (m, method) in methods.iter().enumerate() {
        let cells: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(d, n)| {
                format!(
                    "{} ({:.1})",
                    pct(measured[m][d].0),
                    paper_rows[m][paper_idx(n)]
                )
            })
            .collect();
        tp.row(
            method,
            &cells.iter().map(String::as_str).collect::<Vec<_>>(),
        );
    }
    rdd_obs::flush();
}
