//! Generator calibration report: measured dataset statistics plus the
//! accuracy of diagnostic models (MLP = features only, LP = structure only,
//! GCN = both) on each synthetic preset. Used to keep the presets aligned
//! with the paper's Table 2 statistics and single-GCN accuracies.
//!
//! ```sh
//! cargo run --release -p rdd-bench --bin calibrate [preset...]
//! ```

use rdd_baselines::lp::{predict as lp_predict, LpConfig};
use rdd_graph::{DatasetStats, SynthConfig};
use rdd_models::{train, Gcn, GraphContext, MlpConfig, MlpModel, PredictorExt};
use rdd_tensor::seeded_rng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let presets: Vec<SynthConfig> = if args.is_empty() {
        vec![SynthConfig::cora_sim(), SynthConfig::citeseer_sim()]
    } else {
        args.iter().map(|a| rdd_bench::preset(a)).collect()
    };

    println!("{}", DatasetStats::header());
    for cfg in &presets {
        let data = cfg.generate();
        println!("{}", DatasetStats::of(&data).row());

        let ctx = GraphContext::new(&data);
        let (gcn_cfg, train_cfg) = rdd_bench::model_configs(cfg.name);

        // The MLP diagnostic takes the preset's GCN widths and dropouts.
        let mlp_cfg = MlpConfig {
            hidden: gcn_cfg.hidden.clone(),
            dropout: gcn_cfg.dropout,
            input_dropout: gcn_cfg.input_dropout,
        };
        let mut rng = seeded_rng(1);
        let mut mlp = MlpModel::new(&ctx, mlp_cfg, &mut rng);
        train(&mut mlp, &ctx, &data, &train_cfg, &mut rng, None);
        let mlp_acc = data.test_accuracy(&mlp.predictor(&ctx).predict());

        let lp_acc = data.test_accuracy(&lp_predict(&data, &LpConfig::default()));

        let mut accs = Vec::new();
        for seed in 0..3u64 {
            let mut rng = seeded_rng(seed);
            let mut gcn = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
            let rep = train(&mut gcn, &ctx, &data, &train_cfg, &mut rng, None);
            let acc = data.test_accuracy(&gcn.predictor(&ctx).predict());
            accs.push((acc, rep.epochs_run, rep.wall_time_s));
        }
        let mean: f32 = accs.iter().map(|a| a.0).sum::<f32>() / accs.len() as f32;
        println!(
            "  MLP {:.1}%  LP {:.1}%  GCN {:.1}% (runs: {})",
            100.0 * mlp_acc,
            100.0 * lp_acc,
            100.0 * mean,
            accs.iter()
                .map(|(a, e, t)| format!("{:.1}%@{e}ep/{t:.1}s", 100.0 * a))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    rdd_obs::flush();
}
