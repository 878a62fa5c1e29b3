#![warn(missing_docs)]
//! # rdd-models
//!
//! The GCN model zoo and shared training loop for the RDD (SIGMOD 2020)
//! reproduction: plain GCN, GAT (§5.3's stronger base model), the deep
//! baselines the paper compares against (ResGCN, DenseGCN, JK-Net), the
//! graph-free MLP (the distilled student and a features-only diagnostic),
//! and a trainer with Adam, dropout, early
//! stopping and an extra-loss hook that the distillation methods (BANs,
//! RDD) plug their objectives into.
//!
//! ```
//! use rdd_graph::SynthConfig;
//! use rdd_models::{Gcn, GcnConfig, GraphContext, PredictorExt, TrainConfig};
//!
//! let data = SynthConfig::tiny().generate();
//! let ctx = GraphContext::new(&data);
//! let mut rng = rdd_tensor::seeded_rng(1);
//! let mut model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
//! rdd_models::train(&mut model, &ctx, &data, &TrainConfig::fast(), &mut rng, None);
//! let acc = data.test_accuracy(&model.predictor(&ctx).predict());
//! assert!(acc > 0.3);
//! ```

pub mod checkpoint;
pub mod config;
pub mod context;
pub mod float_text;
pub mod gat;
pub mod gcn;
pub mod metrics;
pub mod mlp;
pub mod predictor;
pub mod trainer;

pub use checkpoint::{
    atomic_write, load_into, load_matrices, push_matrix, push_rows, save as save_checkpoint,
    save_matrices, CheckpointError, TextCursor, TextError,
};
pub use config::{ConfigError, TrainConfigBuilder};
pub use context::{Block, GraphContext, RowSet};
pub use gat::{Gat, GatConfig};
pub use gcn::{DenseGcn, Gcn, GcnConfig, JkNet, Model, ResGcn};
pub use metrics::{expected_calibration_error, ConfusionMatrix};
pub use mlp::{mlp_forward_features, validate_layer_chain, MlpConfig, MlpModel};
pub use predictor::{
    gather_prediction, ModelPredictor, PredictError, PredictRequest, Prediction, PredictionKind,
    Predictor, PredictorExt,
};
pub use trainer::{train, train_in, DivergencePolicy, LossHook, TrainConfig, TrainReport};
