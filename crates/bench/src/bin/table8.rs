//! Table 8 — ablation of each RDD contribution on the citation networks:
//! No-L2, No-Lreg, WNR (no node reliability), WER (no edge reliability),
//! WKR (neither reliability), WEW (uniform ensemble weights).

use rdd_bench::{mean_std, num_trials, paper, preset, rdd_config, TablePrinter};
use rdd_core::{Ablation, RddTrainer};

fn main() {
    let names = ["cora", "citeseer", "pubmed"];
    let trials = num_trials();
    let variants: [(&str, Ablation); 7] = [
        ("No L2", Ablation::no_l2()),
        ("No Lreg", Ablation::no_lreg()),
        ("WNR", Ablation::without_node_reliability()),
        ("WER", Ablation::without_edge_reliability()),
        ("WKR", Ablation::without_knowledge_reliability()),
        ("WEW", Ablation::without_entropy_weights()),
        ("RDD", Ablation::default()),
    ];

    let mut measured = vec![vec![0.0f32; names.len()]; variants.len()];
    for (d, name) in names.iter().enumerate() {
        let cfg = preset(name);
        let data = cfg.generate();
        for (v, (_, ablation)) in variants.iter().enumerate() {
            let mut accs = Vec::with_capacity(trials);
            for t in 0..trials as u64 {
                let mut rdd_cfg = rdd_config(cfg.name);
                rdd_cfg.ablation = *ablation;
                rdd_cfg.seed = t;
                accs.push(RddTrainer::new(rdd_cfg).run(&data).ensemble_test_acc);
            }
            measured[v][d] = mean_std(&accs).0;
        }
        eprintln!("[table8] finished {name}");
    }

    println!("Table 8: ablation, ensemble accuracy (%) — measured Δ vs full RDD (paper Δ), {trials} trials");
    let tp = TablePrinter::new(10, 20);
    tp.header("Method", &names);
    let full_idx = variants.len() - 1;
    for (v, (label, _)) in variants.iter().enumerate() {
        let cells: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(d, _)| {
                let ours = 100.0 * measured[v][d];
                let ours_delta = ours - 100.0 * measured[full_idx][d];
                let paper_acc = paper::T8[v].1[d];
                let paper_delta = paper_acc - paper::T8[full_idx].1[d];
                if v == full_idx {
                    format!("{ours:.1} ({paper_acc:.1})")
                } else {
                    format!("{ours:.1} Δ{ours_delta:+.1} ({paper_delta:+.1})")
                }
            })
            .collect();
        tp.row(label, &cells.iter().map(String::as_str).collect::<Vec<_>>());
    }
    rdd_obs::flush();
}
