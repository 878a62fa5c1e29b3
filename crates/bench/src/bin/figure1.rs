//! Figure 1 — GCN accuracy on Cora as the label rate shrinks (1.3%–5.2%).
//!
//! The paper's motivating figure: a plain GCN degrades quickly with fewer
//! labels. The label rate is `classes · per_class / n`; on Cora 20/class is
//! 5.2% and 5/class is 1.3%.

use rdd_bench::{mean_std, model_configs, num_trials, pct_pm, preset};
use rdd_models::{train, Gcn, GraphContext, PredictorExt};
use rdd_tensor::seeded_rng;

fn main() {
    let cfg = preset("cora");
    let (gcn_cfg, train_cfg) = model_configs(cfg.name);
    let trials = num_trials();

    println!(
        "Figure 1: GCN accuracy on cora-sim vs label rate ({} trials/point)",
        trials
    );
    println!(
        "{:>10} {:>10} {:>12}",
        "per_class", "label_rate", "accuracy"
    );
    for per_class in [5usize, 8, 11, 14, 17, 20] {
        let mut accs = Vec::with_capacity(trials);
        for t in 0..trials as u64 {
            let mut data = cfg.generate_with_seed(cfg.seed.wrapping_add(t * 7919));
            let mut rng = seeded_rng(100 + t);
            data.resample_train(per_class, &mut rng);
            let ctx = GraphContext::new(&data);
            let mut model = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
            train(&mut model, &ctx, &data, &train_cfg, &mut rng, None);
            accs.push(data.test_accuracy(&model.predictor(&ctx).predict()));
        }
        let (m, s) = mean_std(&accs);
        let rate = 100.0 * (per_class * cfg.num_classes) as f32 / cfg.n as f32;
        println!("{per_class:>10} {rate:>9.1}% {:>12}", pct_pm(m, s));
    }
    println!();
    println!("paper: accuracy rises from ~75% at 1.3% label rate to ~81.8% at 5.2%.");
    rdd_obs::flush();
}
