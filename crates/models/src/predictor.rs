//! The redesigned prediction API.
//!
//! Inference used to be five free functions (`predict`, `predict_proba`,
//! `predict_logits`, ...) that only worked on a live model. The serving
//! stack needs one shape that a single model, a frozen ensemble and a
//! loaded artifact can all hide behind, so prediction is now a trait:
//! [`Predictor::predict_batch`] takes a [`PredictRequest`] (all nodes, an
//! explicit node subset, or — for graph-free MLP students — a batch of raw
//! feature vectors) and returns a [`Prediction`] or a typed
//! [`PredictError`] — no panics on empty ensembles or out-of-range ids.
//! [`ModelPredictor`] adapts any [`Model`] (via [`PredictorExt::predictor`]).
//! The old free functions are gone — every call site goes through the trait.
//!
//! Capability is part of the contract: node-sum predictors (ensemble,
//! v1/v2q artifacts) answer [`PredictRequest::ByNodes`]/[`PredictRequest::All`]
//! and reject [`PredictRequest::ByFeatures`] with
//! [`PredictError::FeaturesUnsupported`]; a distilled MLP artifact answers
//! `ByFeatures` (any row count, fixed feature dim) and rejects node requests
//! with [`PredictError::NodesUnsupported`] — it stores weight matrices, not
//! per-node distributions.

use rdd_tensor::{Matrix, Workspace};

use crate::context::{GraphContext, RowSet};
use crate::gcn::Model;

/// Why a prediction request could not be answered.
///
/// `Clone` on purpose: a serve engine that batches several requests into
/// one predictor call fans a single failure back out to every caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredictError {
    /// The predictor holds no members (e.g. an `Ensemble` before any
    /// `push`) — there is no distribution to read.
    EmptyEnsemble,
    /// A requested node id is outside the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes the predictor covers.
        num_nodes: usize,
    },
    /// A [`PredictRequest::ByFeatures`] request hit a predictor that only
    /// stores per-node distributions (ensemble, v1/v2q artifacts).
    FeaturesUnsupported {
        /// What rejected the request (e.g. `"node-sum artifact"`).
        predictor: &'static str,
    },
    /// A node-id request hit a feature-only predictor (a distilled MLP
    /// artifact stores weight matrices, not per-node rows).
    NodesUnsupported {
        /// What rejected the request (e.g. `"mlp artifact"`).
        predictor: &'static str,
    },
    /// A feature batch's column count does not match the model input dim.
    FeatureDimMismatch {
        /// Columns in the submitted feature rows.
        got: usize,
        /// The input dimensionality the predictor was trained with.
        expected: usize,
    },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::EmptyEnsemble => write!(f, "empty ensemble: no members to predict with"),
            PredictError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (graph has {num_nodes} nodes)")
            }
            PredictError::FeaturesUnsupported { predictor } => write!(
                f,
                "feature-vector requests unsupported by {predictor} (it stores per-node \
                 distributions; serve a distilled mlp artifact for feature inference)"
            ),
            PredictError::NodesUnsupported { predictor } => write!(
                f,
                "node-id requests unsupported by {predictor} (it stores weight matrices, \
                 not per-node rows; submit feature vectors instead)"
            ),
            PredictError::FeatureDimMismatch { got, expected } => write!(
                f,
                "feature dim mismatch: got {got} columns, model expects {expected}"
            ),
        }
    }
}

impl std::error::Error for PredictError {}

/// What to predict: every node, an explicit id subset, or a batch of raw
/// feature vectors (graph-free MLP predictors only).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum PredictRequest {
    /// Every node in graph order.
    #[default]
    All,
    /// Exactly these rows, in the given order (duplicates allowed).
    ByNodes(Vec<usize>),
    /// One prediction per row of the matrix; columns must match the
    /// predictor's input feature dim. Answered without any adjacency —
    /// only feature-capable predictors (distilled MLP artifacts) accept it.
    ByFeatures(Matrix),
}

impl PredictRequest {
    /// Request every node in graph order.
    pub fn all() -> Self {
        Self::All
    }

    /// Request an explicit node subset, answered in this order.
    pub fn nodes(nodes: Vec<usize>) -> Self {
        Self::ByNodes(nodes)
    }

    /// Request predictions for raw feature rows (no node ids, no graph).
    pub fn features(rows: Matrix) -> Self {
        Self::ByFeatures(rows)
    }
}

/// Which request shape a [`Prediction`] answers — surfaced on the serve
/// wire as the reply's `"kind"` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictionKind {
    /// Rows are node distributions; `nodes` holds graph node ids.
    Node,
    /// Rows answer submitted feature vectors; `nodes` holds the 0-based
    /// row indices of the request batch, not graph ids.
    Features,
}

impl PredictionKind {
    /// The wire-schema name (`"node"` / `"features"`).
    pub fn name(self) -> &'static str {
        match self {
            PredictionKind::Node => "node",
            PredictionKind::Features => "features",
        }
    }
}

/// A batch of answered predictions.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// For [`PredictionKind::Node`]: the node ids answered, aligned with
    /// `proba`/`pred` rows. For [`PredictionKind::Features`]: the 0-based
    /// row indices of the submitted feature batch.
    pub nodes: Vec<usize>,
    /// Per-row class distribution.
    pub proba: Matrix,
    /// Per-row argmax class.
    pub pred: Vec<usize>,
    /// Whether rows answer node ids or submitted feature vectors.
    pub kind: PredictionKind,
}

/// Anything that can answer batched prediction requests: a live model
/// ([`ModelPredictor`]), a frozen `Ensemble`, or a loaded serve artifact.
pub trait Predictor {
    /// Number of nodes this predictor covers.
    fn num_nodes(&self) -> usize;
    /// Number of classes in each distribution row.
    fn num_classes(&self) -> usize;
    /// Answer `req`, or explain why it cannot be answered.
    fn predict_batch(&self, req: &PredictRequest) -> Result<Prediction, PredictError>;

    /// Full-graph probabilities (convenience over [`Predictor::predict_batch`]).
    fn proba_all(&self) -> Result<Matrix, PredictError> {
        Ok(self.predict_batch(&PredictRequest::all())?.proba)
    }

    /// Full-graph hard predictions.
    fn predict_all(&self) -> Result<Vec<usize>, PredictError> {
        Ok(self.predict_batch(&PredictRequest::all())?.pred)
    }
}

impl<T: Predictor + ?Sized> Predictor for &T {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn num_classes(&self) -> usize {
        (**self).num_classes()
    }
    fn predict_batch(&self, req: &PredictRequest) -> Result<Prediction, PredictError> {
        (**self).predict_batch(req)
    }
}

/// Slice `req` out of a full-graph probability matrix. Rows are copied
/// bitwise, which is what keeps served responses bit-identical to the
/// offline `proba`. [`PredictRequest::ByFeatures`] is a typed
/// [`PredictError::FeaturesUnsupported`]: stored node distributions cannot
/// answer unseen feature vectors.
pub fn gather_prediction(
    full_proba: &Matrix,
    req: &PredictRequest,
) -> Result<Prediction, PredictError> {
    let num_nodes = full_proba.rows();
    match req {
        PredictRequest::All => Ok(Prediction {
            nodes: (0..num_nodes).collect(),
            pred: full_proba.argmax_rows(),
            proba: full_proba.clone(),
            kind: PredictionKind::Node,
        }),
        PredictRequest::ByNodes(ids) => {
            if let Some(&node) = ids.iter().find(|&&id| id >= num_nodes) {
                return Err(PredictError::NodeOutOfRange { node, num_nodes });
            }
            let proba = full_proba.take_rows(ids);
            Ok(Prediction {
                nodes: ids.clone(),
                pred: proba.argmax_rows(),
                proba,
                kind: PredictionKind::Node,
            })
        }
        PredictRequest::ByFeatures(_) => Err(PredictError::FeaturesUnsupported {
            predictor: "node-sum predictor",
        }),
    }
}

/// Eval-mode logits of every node (the model's eval over all rows),
/// pooled through `ws`. The returned matrix escapes the tape (cloned out);
/// every intermediate activation is pooled.
pub(crate) fn eval_logits_in(model: &dyn Model, ctx: &GraphContext, ws: &Workspace) -> Matrix {
    let mut tape = rdd_tensor::Tape::with_workspace(ws);
    let v = model.eval_rows(&mut tape, ctx, &ctx.all_rows());
    tape.value(v).clone()
}

/// Eval-mode hard predictions for the nodes of `rows`, read straight off
/// the tape (no logits clone): `preds[node]` is set for every node of
/// `rows` and no other entry is touched. The trainer's per-epoch
/// validation hot path; `scratch` keeps its capacity across epochs.
pub(crate) fn eval_pred_rows_in(
    model: &dyn Model,
    ctx: &GraphContext,
    rows: &RowSet,
    ws: &Workspace,
    preds: &mut [usize],
    scratch: &mut Vec<usize>,
) {
    let mut tape = rdd_tensor::Tape::with_workspace(ws);
    let v = model.eval_rows(&mut tape, ctx, rows);
    tape.value(v).argmax_rows_into(scratch);
    for (&node, &p) in rows.rows().iter().zip(scratch.iter()) {
        preds[node] = p;
    }
}

/// A workspace the predictor either owns or borrows from its caller.
enum Ws<'a> {
    Owned(Workspace),
    Shared(&'a Workspace),
}

/// [`Predictor`] over a live model: eval-mode forward passes against a
/// [`GraphContext`]. Build one with [`PredictorExt::predictor`] (owns a
/// throwaway workspace, matching the old free functions) or
/// [`PredictorExt::predictor_in`] (shares a caller's pool, matching the
/// old `*_in` variants).
pub struct ModelPredictor<'a> {
    model: &'a dyn Model,
    ctx: &'a GraphContext,
    ws: Ws<'a>,
}

impl<'a> ModelPredictor<'a> {
    /// Wrap `model` with a private non-pooling workspace.
    pub fn new(model: &'a dyn Model, ctx: &'a GraphContext) -> Self {
        Self {
            model,
            ctx,
            ws: Ws::Owned(Workspace::with_pooling(false)),
        }
    }

    /// Wrap `model` over a caller-owned buffer pool.
    pub fn with_workspace(model: &'a dyn Model, ctx: &'a GraphContext, ws: &'a Workspace) -> Self {
        Self {
            model,
            ctx,
            ws: Ws::Shared(ws),
        }
    }

    fn ws(&self) -> &Workspace {
        match &self.ws {
            Ws::Owned(ws) => ws,
            Ws::Shared(ws) => ws,
        }
    }

    /// Eval-mode logits for every node.
    pub fn logits(&self) -> Matrix {
        eval_logits_in(self.model, self.ctx, self.ws())
    }

    /// Eval-mode softmax probabilities for every node.
    pub fn proba(&self) -> Matrix {
        self.logits().softmax_rows()
    }

    /// Eval-mode hard predictions for every node.
    pub fn predict(&self) -> Vec<usize> {
        let mut preds = vec![0; self.ctx.n];
        eval_pred_rows_in(
            self.model,
            self.ctx,
            &self.ctx.all_rows(),
            self.ws(),
            &mut preds,
            &mut Vec::new(),
        );
        preds
    }
}

impl Predictor for ModelPredictor<'_> {
    fn num_nodes(&self) -> usize {
        self.ctx.n
    }

    fn num_classes(&self) -> usize {
        self.ctx.num_classes
    }

    fn predict_batch(&self, req: &PredictRequest) -> Result<Prediction, PredictError> {
        gather_prediction(&self.proba(), req)
    }
}

/// Ergonomic [`ModelPredictor`] constructors on every [`Model`]:
/// `model.predictor(&ctx).predict()`.
pub trait PredictorExt: Model {
    /// A predictor with its own throwaway workspace.
    fn predictor<'a>(&'a self, ctx: &'a GraphContext) -> ModelPredictor<'a>;
    /// A predictor over a caller-owned buffer pool.
    fn predictor_in<'a>(&'a self, ctx: &'a GraphContext, ws: &'a Workspace) -> ModelPredictor<'a>;
}

impl<M: Model> PredictorExt for M {
    fn predictor<'a>(&'a self, ctx: &'a GraphContext) -> ModelPredictor<'a> {
        ModelPredictor::new(self, ctx)
    }

    fn predictor_in<'a>(&'a self, ctx: &'a GraphContext, ws: &'a Workspace) -> ModelPredictor<'a> {
        ModelPredictor::with_workspace(self, ctx, ws)
    }
}

// The blanket impl above only covers sized models; trait objects (the
// trainer and cascade pass models as `&dyn Model`) get their own.
impl<'m> PredictorExt for dyn Model + 'm {
    fn predictor<'a>(&'a self, ctx: &'a GraphContext) -> ModelPredictor<'a> {
        ModelPredictor::new(self, ctx)
    }

    fn predictor_in<'a>(&'a self, ctx: &'a GraphContext, ws: &'a Workspace) -> ModelPredictor<'a> {
        ModelPredictor::with_workspace(self, ctx, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::{Gcn, GcnConfig};
    use rdd_graph::SynthConfig;
    use rdd_tensor::seeded_rng;

    fn proba4() -> Matrix {
        Matrix::from_vec(4, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4, 0.3, 0.7])
    }

    #[test]
    fn gather_all_clones_the_full_matrix() {
        let p = proba4();
        let out = gather_prediction(&p, &PredictRequest::all()).unwrap();
        assert_eq!(out.nodes, vec![0, 1, 2, 3]);
        assert_eq!(out.pred, vec![0, 1, 0, 1]);
        assert_eq!(out.proba.as_slice(), p.as_slice());
    }

    #[test]
    fn gather_subset_preserves_order_and_duplicates() {
        let p = proba4();
        let out = gather_prediction(&p, &PredictRequest::nodes(vec![3, 0, 3])).unwrap();
        assert_eq!(out.nodes, vec![3, 0, 3]);
        assert_eq!(out.pred, vec![1, 0, 1]);
        assert_eq!(out.proba.row(0), p.row(3));
        assert_eq!(out.proba.row(1), p.row(0));
        assert_eq!(out.proba.row(2), p.row(3));
    }

    #[test]
    fn gather_rejects_out_of_range_nodes() {
        let p = proba4();
        let err = gather_prediction(&p, &PredictRequest::nodes(vec![1, 9])).unwrap_err();
        assert_eq!(
            err,
            PredictError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            }
        );
        assert!(err.to_string().contains("node 9"));
    }

    #[test]
    fn gather_empty_subset_is_empty_prediction() {
        let p = proba4();
        let out = gather_prediction(&p, &PredictRequest::nodes(Vec::new())).unwrap();
        assert!(out.nodes.is_empty());
        assert!(out.pred.is_empty());
        assert_eq!(out.proba.shape(), (0, 2));
        assert_eq!(out.kind, PredictionKind::Node);
    }

    #[test]
    fn gather_rejects_feature_requests_with_typed_error() {
        let p = proba4();
        let req = PredictRequest::features(Matrix::zeros(2, 8));
        let err = gather_prediction(&p, &req).unwrap_err();
        assert!(matches!(err, PredictError::FeaturesUnsupported { .. }));
        assert!(err
            .to_string()
            .contains("feature-vector requests unsupported"));
    }

    #[test]
    fn new_error_variants_display_their_fields() {
        let e = PredictError::FeatureDimMismatch {
            got: 32,
            expected: 64,
        };
        let msg = e.to_string();
        assert!(msg.contains("32") && msg.contains("64"), "{msg}");
        let e = PredictError::NodesUnsupported {
            predictor: "mlp artifact",
        };
        assert!(e.to_string().contains("mlp artifact"));
    }

    #[test]
    fn request_helpers_classify_shapes() {
        assert_eq!(PredictionKind::Node.name(), "node");
        assert_eq!(PredictionKind::Features.name(), "features");
    }

    #[test]
    fn model_predictor_batch_matches_full_proba() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(7);
        let model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let p = model.predictor(&ctx);
        assert_eq!(p.num_nodes(), ctx.n);
        assert_eq!(p.num_classes(), ctx.num_classes);
        let full = p.proba();
        let batch = p
            .predict_batch(&PredictRequest::nodes(vec![5, 0, 17]))
            .unwrap();
        for (r, &node) in batch.nodes.iter().enumerate() {
            let same = batch
                .proba
                .row(r)
                .iter()
                .zip(full.row(node))
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "row {r} (node {node}) not bitwise equal");
        }
    }
}
