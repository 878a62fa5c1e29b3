//! Table 5 — RDD against deep GCN variants (JK-Net, ResGCN, DenseGCN).
//!
//! As in the paper, each deep architecture's layer count is tuned on the
//! validation set (we sweep 2–5 layers) and the best configuration's test
//! accuracy is reported.

use rdd_bench::{
    mean_std, model_configs, num_trials, paper, pct, preset, rdd_config, TablePrinter,
};
use rdd_core::RddTrainer;
use rdd_graph::Dataset;
use rdd_models::{
    train, DenseGcn, Gcn, GcnConfig, GraphContext, JkNet, Model, PredictorExt, ResGcn, TrainConfig,
};
use rdd_tensor::seeded_rng;

/// Train a deep model with 2..=5 layers, pick the layer count with the best
/// validation accuracy, return its test accuracy.
fn best_deep<F>(
    data: &Dataset,
    ctx: &GraphContext,
    train_cfg: &TrainConfig,
    width: usize,
    dropout: f32,
    seed: u64,
    build: F,
) -> f32
where
    F: Fn(&GraphContext, GcnConfig, &mut rdd_tensor::Rng) -> Box<dyn Model>,
{
    let mut best = (f32::NEG_INFINITY, 0.0f32);
    for layers in 2..=5usize {
        // `GcnConfig::deep(width, hidden_layers, …)`: `layers` counts
        // propagation steps, so hidden layers = layers − 1.
        let cfg = GcnConfig::deep(width, layers - 1, dropout);
        let mut rng = seeded_rng(seed);
        let mut model = build(ctx, cfg, &mut rng);
        let report = train(model.as_mut(), ctx, data, train_cfg, &mut rng, None);
        let test = data.test_accuracy(&model.as_ref().predictor(ctx).predict());
        if report.best_val_acc > best.0 {
            best = (report.best_val_acc, test);
        }
    }
    best.1
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        vec!["cora", "citeseer", "pubmed", "nell"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let trials = num_trials();
    let methods = ["GCN", "JK-Net", "ResGCN", "DenseGCN", "RDD(Single)"];
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

            // Match the plain GCN's width/dropout per dataset so depth is
            // the only variable (the paper tunes layer count the same way).
            let (w, dr) = (gcn_cfg.hidden[0], gcn_cfg.dropout);
            accs[1].push(best_deep(&data, &ctx, &train_cfg, w, dr, t, |c, cfg, r| {
                Box::new(JkNet::new(c, cfg, r))
            }));
            accs[2].push(best_deep(&data, &ctx, &train_cfg, w, dr, t, |c, cfg, r| {
                Box::new(ResGcn::new(c, cfg, r))
            }));
            accs[3].push(best_deep(&data, &ctx, &train_cfg, w, dr, t, |c, cfg, r| {
                Box::new(DenseGcn::new(c, cfg, r))
            }));

            let mut rdd_cfg = rdd_config(cfg.name);
            rdd_cfg.seed = t;
            accs[4].push(RddTrainer::new(rdd_cfg).run(&data).single_test_acc);
        }
        for (m, a) in accs.iter().enumerate() {
            measured[m][d] = mean_std(a);
        }
        eprintln!("[table5] finished {name}");
    }

    let paper_rows: [&[f32; 4]; 5] = [
        &paper::T5_GCN,
        &paper::T5_JKNET,
        &paper::T5_RESGCN,
        &paper::T5_DENSEGCN,
        &paper::T5_RDD_SINGLE,
    ];
    let paper_idx = |name: &str| match name {
        n if n.starts_with("cora") => 0,
        n if n.starts_with("citeseer") => 1,
        n if n.starts_with("pubmed") => 2,
        _ => 3,
    };

    println!("Table 5: deep GCN comparison, accuracy (%) — measured (paper), {trials} trials");
    let tp = TablePrinter::new(14, 13);
    tp.header("Models", &names);
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
