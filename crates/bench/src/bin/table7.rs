//! Table 7 — hyperparameter grid on Cora: reliability fraction `p`,
//! knowledge-transfer weight `γ_initial`, edge-regularizer strength `β`.
//!
//! The paper reports the grid `p ∈ {40, 80} × γ ∈ {0, 0.5, 1, 1.5} × β ∈
//! {0, 5, 10, 15}` with a best of 86.1% at `(p=40, γ=1, β=10)`. The same
//! grid is measured here on cora-sim (single trial per cell by default —
//! 32 RDD runs; set `RDD_TRIALS` for averaging).

use rdd_bench::{mean_std, num_trials, preset, rdd_config};
use rdd_core::RddTrainer;

fn main() {
    let cfg = preset("cora");
    let data = cfg.generate();
    let trials = num_trials().min(3);
    let gammas = [0.0f32, 0.5, 1.0, 1.5];
    let betas = [0.0f32, 5.0, 10.0, 15.0];

    println!("Table 7: RDD ensemble accuracy (%) on cora-sim over the paper's grid, {trials} trial(s)/cell");
    for p in [0.4f32, 0.8] {
        println!("\np = {:.0}%", p * 100.0);
        print!("{:>8}", "");
        for g in gammas {
            print!(" {:>9}", format!("g={g}"));
        }
        println!();
        for b in betas {
            print!("{:>8}", format!("b={b}"));
            for g in gammas {
                let mut accs = Vec::with_capacity(trials);
                for t in 0..trials as u64 {
                    let mut rdd_cfg = rdd_config(cfg.name);
                    rdd_cfg.p = p;
                    rdd_cfg.gamma_initial = g;
                    rdd_cfg.beta = b;
                    rdd_cfg.seed = t;
                    accs.push(RddTrainer::new(rdd_cfg).run(&data).ensemble_test_acc);
                }
                let (m, _) = mean_std(&accs);
                print!(" {:>9.1}", 100.0 * m);
            }
            println!();
        }
    }
    println!("\npaper (p=40): best 86.1 at γ=1, β=10; γ=0 column ~84.2–84.6; β=0 row ~84.2–85.3.");
    rdd_obs::flush();
}
