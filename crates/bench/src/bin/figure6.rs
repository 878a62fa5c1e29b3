//! Figure 6 — accuracy on Cora as the number of labeled nodes per class
//! grows: (a) single models (GCN, ResGCN, DenseGCN, JK-Net, RDD-Single),
//! (b) ensembles (Bagging, BANs, RDD-Ensemble).
//!
//! The validation and test sets are held fixed while the training set is
//! resampled to each label budget, matching §5.6.

use rdd_baselines::{bagging, bans, BansConfig};
use rdd_bench::{model_configs, preset, rdd_config, TablePrinter};
use rdd_core::RddTrainer;
use rdd_graph::Dataset;
use rdd_models::{
    train, DenseGcn, Gcn, GcnConfig, GraphContext, JkNet, Model, PredictorExt, ResGcn,
};
use rdd_tensor::seeded_rng;

fn single_acc(
    data: &Dataset,
    ctx: &GraphContext,
    train_cfg: &rdd_models::TrainConfig,
    seed: u64,
    build: impl Fn(&GraphContext, &mut rdd_tensor::Rng) -> Box<dyn Model>,
) -> f32 {
    let mut rng = seeded_rng(seed);
    let mut model = build(ctx, &mut rng);
    train(model.as_mut(), ctx, data, train_cfg, &mut rng, None);
    data.test_accuracy(&model.as_ref().predictor(ctx).predict())
}

fn main() {
    let cfg = preset("cora");
    let (gcn_cfg, train_cfg) = model_configs(cfg.name);
    // 77 labeled/class needs every class to have 77 spare nodes outside
    // val/test; the round-robin generator guarantees ~(2708-1500)/7 ≈ 172.
    let budgets = [5usize, 10, 15, 20, 35, 50, 65, 77];
    const NUM_MODELS: usize = 5;

    let single_methods = ["GCN", "ResGCN", "DenseGCN", "JK-Net", "RDD(Single)"];
    let ensemble_methods = ["Bagging", "BANs", "RDD(Ensemble)"];
    let mut single = vec![Vec::new(); single_methods.len()];
    let mut ensembles = vec![Vec::new(); ensemble_methods.len()];

    for (bi, &per_class) in budgets.iter().enumerate() {
        let mut data = cfg.generate();
        let mut rng = seeded_rng(42 + bi as u64);
        data.resample_train(per_class, &mut rng);
        let ctx = GraphContext::new(&data);

        single[0].push(single_acc(&data, &ctx, &train_cfg, 1, |c, r| {
            Box::new(Gcn::new(c, gcn_cfg.clone(), r))
        }));
        single[1].push(single_acc(&data, &ctx, &train_cfg, 1, |c, r| {
            Box::new(ResGcn::new(c, GcnConfig::deep(16, 2, 0.5), r))
        }));
        single[2].push(single_acc(&data, &ctx, &train_cfg, 1, |c, r| {
            Box::new(DenseGcn::new(c, GcnConfig::deep(16, 2, 0.5), r))
        }));
        single[3].push(single_acc(&data, &ctx, &train_cfg, 1, |c, r| {
            Box::new(JkNet::new(c, GcnConfig::deep(16, 2, 0.5), r))
        }));

        let mut rdd_cfg = rdd_config(cfg.name);
        rdd_cfg.num_base_models = NUM_MODELS;
        let rdd = RddTrainer::new(rdd_cfg).run(&data);
        single[4].push(rdd.single_test_acc);
        ensembles[2].push(rdd.ensemble_test_acc);

        ensembles[0].push(bagging(&data, &gcn_cfg, &train_cfg, NUM_MODELS, 1).ensemble_test_acc);
        ensembles[1].push(
            bans(
                &data,
                &gcn_cfg,
                &train_cfg,
                NUM_MODELS,
                &BansConfig::default(),
                1,
            )
            .ensemble_test_acc,
        );
        eprintln!("[figure6] finished {per_class}/class");
    }

    let budget_headers: Vec<String> = budgets.iter().map(|b| b.to_string()).collect();
    let headers: Vec<&str> = budget_headers.iter().map(String::as_str).collect();

    println!("Figure 6(a): single-model accuracy (%) on cora-sim vs labeled nodes per class");
    let tp = TablePrinter::new(14, 6);
    tp.header("labeled/class", &headers);
    for (m, name) in single_methods.iter().enumerate() {
        let cells: Vec<String> = single[m]
            .iter()
            .map(|a| format!("{:.1}", 100.0 * a))
            .collect();
        tp.row(name, &cells.iter().map(String::as_str).collect::<Vec<_>>());
    }

    println!();
    println!("Figure 6(b): ensemble accuracy (%) on cora-sim vs labeled nodes per class");
    tp.header("labeled/class", &headers);
    for (m, name) in ensemble_methods.iter().enumerate() {
        let cells: Vec<String> = ensembles[m]
            .iter()
            .map(|a| format!("{:.1}", 100.0 * a))
            .collect();
        tp.row(name, &cells.iter().map(String::as_str).collect::<Vec<_>>());
    }
    println!();
    println!("paper shape: RDD(Single) dominates all single baselines at every budget;");
    println!("RDD(Ensemble) dominates Bagging/BANs, with Bagging closing in at 65–77/class.");
    rdd_obs::flush();
}
