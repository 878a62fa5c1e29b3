//! Citation-network benchmark: run every method in the paper's Table 3 on
//! one synthetic citation dataset and print the comparison.
//!
//! ```sh
//! cargo run --release --example citation_benchmark [cora|citeseer|pubmed|nell]
//! ```

use rdd_baselines::lp::{predict as lp_predict, LpConfig};
use rdd_baselines::{bagging, bans, BansConfig};
use rdd_core::{RddConfig, RddTrainer};
use rdd_graph::{DatasetStats, SynthConfig};
use rdd_models::{train, Gcn, GcnConfig, GraphContext, PredictorExt, TrainConfig};
use rdd_tensor::seeded_rng;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "cora".into());
    let cfg = match name.as_str() {
        "cora" => SynthConfig::cora_sim(),
        "citeseer" => SynthConfig::citeseer_sim(),
        "pubmed" => SynthConfig::pubmed_sim(),
        "nell" => SynthConfig::nell_sim(),
        other => panic!("unknown dataset {other} (expected cora|citeseer|pubmed|nell)"),
    };
    let dataset = cfg.generate();
    println!("{}", DatasetStats::header());
    println!("{}\n", DatasetStats::of(&dataset).row());

    let (gcn_cfg, train_cfg): (GcnConfig, TrainConfig) = if name == "nell" {
        (GcnConfig::nell(), TrainConfig::nell())
    } else {
        (GcnConfig::citation(), TrainConfig::citation())
    };
    let ctx = GraphContext::new(&dataset);
    let mut results: Vec<(String, f32)> = Vec::new();

    // Classic graph SSL.
    results.push((
        "Label Propagation".into(),
        dataset.test_accuracy(&lp_predict(&dataset, &LpConfig::default())),
    ));

    // Single GCN.
    let mut rng = seeded_rng(1);
    let mut gcn = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
    train(&mut gcn, &ctx, &dataset, &train_cfg, &mut rng, None);
    results.push((
        "GCN".into(),
        dataset.test_accuracy(&gcn.predictor(&ctx).predict()),
    ));

    // Ensembles (5 base models each).
    results.push((
        "Bagging (x5)".into(),
        bagging(&dataset, &gcn_cfg, &train_cfg, 5, 1).ensemble_test_acc,
    ));
    results.push((
        "BANs (x5)".into(),
        bans(&dataset, &gcn_cfg, &train_cfg, 5, &BansConfig::default(), 1).ensemble_test_acc,
    ));

    let rdd = RddTrainer::new(RddConfig::for_dataset(&name)).run(&dataset);
    results.push(("RDD (single)".into(), rdd.single_test_acc));
    results.push(("RDD (ensemble x5)".into(), rdd.ensemble_test_acc));

    println!("{:<22} {:>9}", "method", "test acc");
    println!("{}", "-".repeat(32));
    for (method, acc) in &results {
        println!("{method:<22} {:>8.1}%", 100.0 * acc);
    }
}
