//! Extension experiment (paper §5.3): "our method is not limited to the
//! base model we use, so the margin can be further improved if we use a
//! more powerful base model like GAT."
//!
//! Measures, on cora-sim: single GCN, single GAT, RDD over GCN bases, and
//! RDD over GAT bases.

use rdd_bench::{mean_std, model_configs, num_trials, pct_pm, preset, rdd_config};
use rdd_core::RddTrainer;
use rdd_models::{train, Gat, GatConfig, Gcn, GraphContext, PredictorExt};
use rdd_tensor::seeded_rng;

fn main() {
    let cfg = preset("cora");
    let (gcn_cfg, train_cfg) = model_configs(cfg.name);
    let gat_cfg = GatConfig::default();
    let trials = num_trials();

    let mut rows: Vec<(&str, Vec<f32>)> = vec![
        ("GCN (single)", Vec::new()),
        ("GAT (single)", Vec::new()),
        ("RDD(GCN) ensemble", Vec::new()),
        ("RDD(GAT) ensemble", Vec::new()),
    ];

    let data = cfg.generate();
    let ctx = GraphContext::new(&data);
    for t in 0..trials as u64 {
        let mut rng = seeded_rng(t);
        let mut gcn = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
        train(&mut gcn, &ctx, &data, &train_cfg, &mut rng, None);
        rows[0]
            .1
            .push(data.test_accuracy(&gcn.predictor(&ctx).predict()));

        let mut rng = seeded_rng(t);
        let mut gat = Gat::new(&ctx, gat_cfg.clone(), &mut rng);
        train(&mut gat, &ctx, &data, &train_cfg, &mut rng, None);
        rows[1]
            .1
            .push(data.test_accuracy(&gat.predictor(&ctx).predict()));

        let mut rdd_cfg = rdd_config(cfg.name);
        rdd_cfg.seed = t;
        rows[2].1.push(
            RddTrainer::new(rdd_cfg.clone())
                .run(&data)
                .ensemble_test_acc,
        );

        let gat_cfg2 = gat_cfg.clone();
        rows[3].1.push(
            RddTrainer::new(rdd_cfg)
                .with_base_model(move |ctx, rng| Box::new(Gat::new(ctx, gat_cfg2.clone(), rng)))
                .run(&data)
                .ensemble_test_acc,
        );
        eprintln!("[gat_extension] finished trial {t}");
    }

    println!("GAT extension on cora-sim ({trials} trials):");
    for (label, accs) in &rows {
        let (m, s) = mean_std(accs);
        println!("  {label:<20} {}", pct_pm(m, s));
    }
    rdd_obs::flush();
}
