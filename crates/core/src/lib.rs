#![warn(missing_docs)]
//! # rdd-core
//!
//! Reliable Data Distillation on Graph Convolutional Network — a from-
//! scratch Rust reproduction of Zhang et al., SIGMOD 2020.
//!
//! RDD improves semi-supervised GCN training by distilling only *reliable*
//! teacher knowledge into each student:
//!
//! * [`reliability`] — node reliability (Algorithm 1) and edge reliability
//!   (Algorithm 2);
//! * [`ensemble`] — the PageRank-entropy weighted teacher ensemble
//!   (Eqs. 12–13);
//! * [`rdd`] — the self-boosting training loop (Algorithm 3) with the
//!   three-term objective `L = L1 + γ·L2 + β·Lreg` (Eq. 10) and the
//!   Table 8 ablation switches;
//! * [`run`] — crash-safe run directories: per-member checkpoints with
//!   atomic commits, so [`RddTrainer::resume`] restarts an interrupted
//!   cascade at the next member boundary with bitwise-identical results;
//! * [`distill`] — post-hoc distillation of the frozen ensemble into a
//!   graph-free MLP student with reliability-weighted soft targets.
//!
//! ```
//! use rdd_core::{RddConfig, RddTrainer};
//! use rdd_graph::SynthConfig;
//!
//! let dataset = SynthConfig::tiny().generate();
//! let mut config = RddConfig::fast();
//! config.num_base_models = 2;
//! config.train.epochs = 20;
//! config.validate().expect("still a sane config");
//! let outcome = RddTrainer::new(config).run(&dataset);
//! assert!(outcome.ensemble_test_acc > 0.3);
//! ```

pub mod distill;
pub mod ensemble;
pub mod rdd;
pub mod reliability;
pub mod run;

pub use distill::{distill_mlp, distill_run, DistillConfig, DistillOutcome};
pub use ensemble::{model_weight, uniform_weight, Ensemble, EnsembleMember};
pub use rdd::{
    cosine_gamma, Ablation, BaseModelRecord, RddConfig, RddConfigBuilder, RddOutcome, RddTrainer,
};
pub use reliability::{
    all_nodes_reliable, compute_reliability, ReliabilitySets, ReliabilityWorkspace,
};
pub use run::{manifest_source, MemberRecord, RunError, RunState};
