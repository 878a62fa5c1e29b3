//! Table 4 — RDD's single model against non-ensemble state-of-the-art on
//! the three citation networks.
//!
//! The paper draws most baselines (Planetoid, LGCN, GPNN, NGCN, DGCN,
//! APPNP, GAT) from their original publications; those literature constants
//! are reproduced here verbatim. LP, GCN and RDD(Single) are measured on
//! the synthetic equivalents.

use rdd_baselines::lp::{predict as lp_predict, LpConfig};
use rdd_bench::{
    mean_std, model_configs, num_trials, paper, pct, preset, rdd_config, TablePrinter,
};
use rdd_core::RddTrainer;
use rdd_models::{train, Gcn, GraphContext, PredictorExt};
use rdd_tensor::seeded_rng;

fn main() {
    let names = ["cora", "citeseer", "pubmed"];
    let trials = num_trials();

    let mut lp_acc = [(0.0f32, 0.0f32); 3];
    let mut gcn_acc = [(0.0f32, 0.0f32); 3];
    let mut rdd_acc = [(0.0f32, 0.0f32); 3];

    for (d, name) in names.iter().enumerate() {
        let cfg = preset(name);
        let (gcn_cfg, train_cfg) = model_configs(cfg.name);
        let (mut lp_runs, mut gcn_runs, mut rdd_runs) = (Vec::new(), Vec::new(), Vec::new());
        let data = cfg.generate();
        for t in 0..trials as u64 {
            lp_runs.push(data.test_accuracy(&lp_predict(&data, &LpConfig::default())));

            let ctx = GraphContext::new(&data);
            let mut rng = seeded_rng(t);
            let mut gcn = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
            train(&mut gcn, &ctx, &data, &train_cfg, &mut rng, None);
            gcn_runs.push(data.test_accuracy(&gcn.predictor(&ctx).predict()));

            let mut rdd_cfg = rdd_config(cfg.name);
            rdd_cfg.seed = t;
            rdd_runs.push(RddTrainer::new(rdd_cfg).run(&data).single_test_acc);
        }
        lp_acc[d] = mean_std(&lp_runs);
        gcn_acc[d] = mean_std(&gcn_runs);
        rdd_acc[d] = mean_std(&rdd_runs);
        eprintln!("[table4] finished {name}");
    }

    println!("Table 4: single-model accuracy (%) on the citation networks, {trials} trials");
    println!("(literature rows are the numbers the paper quotes; measured rows are ours)");
    let tp = TablePrinter::new(18, 13);
    tp.header("Models", &["cora", "citeseer", "pubmed"]);
    for (name, vals) in paper::T4_LITERATURE {
        if *name == "LP" || *name == "GCN" {
            continue; // printed below with measured values
        }
        let cells: Vec<String> = vals.iter().map(|v| format!("(paper {v:.1})")).collect();
        tp.row(name, &cells.iter().map(String::as_str).collect::<Vec<_>>());
    }
    let print_measured =
        |tp: &TablePrinter, label: &str, ours: &[(f32, f32); 3], paper_vals: &[f32; 3]| {
            let cells: Vec<String> = ours
                .iter()
                .zip(paper_vals)
                .map(|((m, _), p)| format!("{} ({p:.1})", pct(*m)))
                .collect();
            tp.row(label, &cells.iter().map(String::as_str).collect::<Vec<_>>());
        };
    print_measured(&tp, "LP", &lp_acc, &paper::T4_LITERATURE[0].1);
    print_measured(&tp, "GCN", &gcn_acc, &paper::T4_LITERATURE[8].1);
    print_measured(&tp, "RDD(Single)", &rdd_acc, &paper::T4_RDD_SINGLE);
    rdd_obs::flush();
}
