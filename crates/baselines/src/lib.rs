#![warn(missing_docs)]
//! # rdd-baselines
//!
//! The comparison methods the paper evaluates RDD against, all implemented
//! over the same two-layer GCN base model for fairness (§5.1):
//!
//! * [`lp`] — Label Propagation (Table 4);
//! * [`ensembles`] — Bagging and Born-Again Networks (Tables 3, 6, 9).
//!
//! ```
//! use rdd_baselines::lp::{predict, LpConfig};
//! use rdd_graph::SynthConfig;
//!
//! let data = SynthConfig::tiny().generate();
//! let preds = predict(&data, &LpConfig::default());
//! assert!(data.test_accuracy(&preds) > 0.3);
//! ```

pub mod ensembles;
pub mod lp;

pub use ensembles::{bagging, bans, BansConfig, EnsembleOutcome};
pub use lp::{label_propagation, LpConfig};
