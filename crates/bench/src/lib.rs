//! # rdd-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§5). This library holds the shared plumbing — preset
//! lookup, per-dataset model/training configs, repeated-trial statistics
//! and fixed-width table printing.

use rdd_core::RddConfig;
use rdd_graph::SynthConfig;
use rdd_models::{GcnConfig, TrainConfig};

/// Look up a synthetic preset by short or full name
/// ([`SynthConfig::preset`]); panics on an unknown name.
pub fn preset(name: &str) -> SynthConfig {
    SynthConfig::preset(name).unwrap_or_else(|| panic!("unknown dataset preset {name}"))
}

/// The base-model architecture + optimizer settings the paper uses on a
/// given dataset (hidden 16 / dropout 0.5 on citation networks, hidden 100 /
/// dropout 0.2 / L2 1e-5 on NELL).
pub fn model_configs(dataset_name: &str) -> (GcnConfig, TrainConfig) {
    if dataset_name.starts_with("nell") {
        (GcnConfig::nell(), TrainConfig::nell())
    } else {
        (GcnConfig::citation(), TrainConfig::citation())
    }
}

/// The tuned RDD configuration for a dataset (see
/// [`RddConfig::for_dataset`]).
pub fn rdd_config(dataset_name: &str) -> RddConfig {
    RddConfig::for_dataset(dataset_name)
}

/// Number of repeated trials: the paper averages 10 runs; the harness
/// defaults to 3 for CPU budget and honors `RDD_TRIALS`. A value that is
/// not a positive integer is reported (like a bad `RDD_SIMD`) and the
/// default kept.
pub fn num_trials() -> usize {
    rdd_obs::env::parse_with("RDD_TRIALS", "a positive integer", |v| {
        v.parse::<usize>().ok().filter(|&n| n >= 1)
    })
    .unwrap_or(3)
}

/// Mean and (population) standard deviation.
pub fn mean_std(xs: &[f32]) -> (f32, f32) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f32>() / xs.len() as f32;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
    (mean, var.sqrt())
}

/// Format an accuracy (fraction) as `xx.x`.
pub fn pct(x: f32) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Format `mean ± std` in percent.
pub fn pct_pm(mean: f32, std: f32) -> String {
    format!("{:.1}±{:.1}", 100.0 * mean, 100.0 * std)
}

/// A minimal fixed-width table printer (first column left-aligned label,
/// rest right-aligned cells).
pub struct TablePrinter {
    label_width: usize,
    cell_width: usize,
}

impl TablePrinter {
    pub fn new(label_width: usize, cell_width: usize) -> Self {
        Self {
            label_width,
            cell_width,
        }
    }

    /// Print a header row followed by a rule.
    pub fn header(&self, label: &str, cells: &[&str]) {
        self.row(label, cells);
        let width = self.label_width + cells.len() * (self.cell_width + 1);
        println!("{}", "-".repeat(width));
    }

    /// Print one row.
    pub fn row(&self, label: &str, cells: &[&str]) {
        let mut line = format!("{:<w$}", label, w = self.label_width);
        for c in cells {
            line.push(' ');
            line.push_str(&format!("{:>w$}", c, w = self.cell_width));
        }
        println!("{line}");
    }
}

/// Paper-reported numbers quoted in the harness output so every table can
/// print "paper vs measured" side by side.
pub mod paper {
    /// Table 3 (ensemble comparison), `[Cora, Citeseer, Pubmed, NELL]`.
    pub const T3_GCN: [f32; 4] = [81.8, 70.8, 79.3, 83.0];
    pub const T3_RDD_SINGLE: [f32; 4] = [84.8, 73.6, 80.7, 85.2];
    pub const T3_BAGGING: [f32; 4] = [84.2, 72.6, 80.1, 85.1];
    pub const T3_BANS: [f32; 4] = [84.5, 72.1, 79.8, 85.4];
    pub const T3_RDD_ENSEMBLE: [f32; 4] = [86.1, 74.2, 81.5, 86.3];

    /// Table 4 (single-model comparison on citation networks): values the
    /// paper quotes from the original publications, `[Cora, Citeseer,
    /// Pubmed]`.
    pub const T4_LITERATURE: &[(&str, [f32; 3])] = &[
        ("LP", [68.0, 45.3, 63.0]),
        ("Planetoid", [75.7, 64.7, 79.5]),
        ("LGCN", [83.3, 73.0, 79.5]),
        ("GPNN", [81.8, 69.7, 79.3]),
        ("NGCN", [83.0, 72.2, 79.5]),
        ("DGCN", [83.5, 72.6, 80.0]),
        ("APPNP", [83.3, 71.8, 80.1]),
        ("GAT", [83.0, 72.5, 79.0]),
        ("GCN", [81.8, 70.8, 79.3]),
    ];
    pub const T4_RDD_SINGLE: [f32; 3] = [84.8, 73.6, 80.7];

    /// Table 5 (deep GCN comparison), `[Cora, Citeseer, Pubmed, NELL]`.
    pub const T5_GCN: [f32; 4] = [81.8, 70.8, 79.3, 83.0];
    pub const T5_JKNET: [f32; 4] = [81.8, 70.7, 78.8, 84.1];
    pub const T5_RESGCN: [f32; 4] = [82.2, 70.8, 78.3, 82.1];
    pub const T5_DENSEGCN: [f32; 4] = [82.1, 70.9, 79.1, 83.4];
    pub const T5_RDD_SINGLE: [f32; 4] = [84.8, 73.6, 80.7, 85.2];

    /// Table 6 (ensemble analysis on Cora): (method, average, ensemble, gain).
    pub const T6: &[(&str, f32, f32, f32)] = &[
        ("Bagging", 81.8, 84.2, 2.4),
        ("BANs", 83.7, 84.5, 0.8),
        ("RDD", 84.3, 86.1, 1.8),
    ];

    /// Table 8 ablation accuracies, `[Cora, Citeseer, Pubmed]`.
    pub const T8: &[(&str, [f32; 3])] = &[
        ("No L2", [84.4, 73.5, 80.2]),
        ("No Lreg", [85.2, 73.6, 80.9]),
        ("WNR", [84.9, 73.3, 80.4]),
        ("WER", [85.5, 73.4, 80.8]),
        ("WKR", [84.8, 73.1, 79.8]),
        ("WEW", [85.3, 73.7, 80.9]),
        ("RDD", [86.1, 74.2, 81.5]),
    ];

    /// Table 9 (training time on Cora):
    /// (method, avg time per model s, #base models, total s).
    pub const T9: &[(&str, f32, usize, f32)] = &[
        ("Bagging", 2.032, 4, 8.128),
        ("BANs", 2.652, 3, 7.956),
        ("RDD(Ensemble)", 4.158, 2, 8.316),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown dataset preset")]
    fn preset_unknown_panics() {
        preset("imaginary");
    }

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-6);
        assert!((s - 1.0).abs() < 1e-6);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn model_configs_match_paper() {
        let (g, t) = model_configs("cora-sim");
        assert_eq!(g.hidden, vec![16]);
        assert!((t.weight_decay - 5e-4).abs() < 1e-9);
        let (g, t) = model_configs("nell-sim");
        assert_eq!(g.hidden, vec![100]);
        assert!((t.weight_decay - 1e-5).abs() < 1e-9);
    }
}
