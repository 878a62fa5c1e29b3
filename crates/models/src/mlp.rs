//! The graph-free MLP (`MlpModel`) and its canonical dense forward. It is
//! the distilled student, and, trained on labels alone, the features-only
//! diagnostic of the generator calibration report.
//!
//! The RDD ensemble — and every artifact exported from it so far — can
//! only answer for nodes it was trained on. Following the KRD/GLNN line,
//! the ensemble's knowledge is distilled into a plain MLP over raw node
//! features: 2–3 `Linear+ReLU` layers, no adjacency anywhere in the
//! forward. At serve time the student answers **arbitrary unseen feature
//! vectors** with a pair of matmuls per micro-batch.
//!
//! Two forwards live here on purpose:
//!
//! * [`MlpModel::forward`] (the [`Model`] trait) records the train-time
//!   pass on a [`Tape`] — sparse features, input dropout, hidden dropout —
//!   so the existing trainer, divergence guard and Workspace pooling apply
//!   unchanged.
//! * [`mlp_forward_features`] is the **canonical inference forward** over a
//!   dense row batch. The v3 serve artifact and every offline comparison
//!   call this one function, which is what makes served feature rows
//!   bitwise-identical to the offline student forward.

use std::rc::Rc;

use rdd_tensor::{glorot_uniform, CsrMatrix, Matrix, Rng, Tape, Var};

use crate::context::{GraphContext, RowSet};
use crate::gcn::Model;

/// Architecture/regularization of the distilled MLP student.
#[derive(Clone, Debug, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer widths (1–2 entries give the paper-shaped 2–3 linear
    /// layers; more are allowed).
    pub hidden: Vec<usize>,
    /// Dropout applied between hidden layers while training.
    pub dropout: f32,
    /// Dropout applied to the sparse input features while training.
    pub input_dropout: f32,
}

impl MlpConfig {
    /// The default student: two hidden layers of 64 (three `Linear`s),
    /// moderate dropout — wide enough to absorb the ensemble's soft
    /// targets on the synthetic presets without graph access.
    pub fn student() -> Self {
        Self {
            hidden: vec![64, 64],
            dropout: 0.5,
            input_dropout: 0.2,
        }
    }
}

/// The distilled student: `logits = ... ReLU(X·W₀)·W₁ ... · W_L`, features
/// only. Behind the [`Model`] trait so `train_in`, the divergence guard and
/// Workspace pooling are reused verbatim by the distillation loop.
#[derive(Debug)]
pub struct MlpModel {
    cfg: MlpConfig,
    in_dim: usize,
    num_classes: usize,
    params: Vec<Matrix>,
}

impl MlpModel {
    /// Build with Glorot-initialized weights for `ctx`'s shapes.
    pub fn new(ctx: &GraphContext, cfg: MlpConfig, rng: &mut Rng) -> Self {
        let mut dims = vec![ctx.in_dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(ctx.num_classes);
        let params = dims
            .windows(2)
            .map(|w| glorot_uniform(w[0], w[1], rng))
            .collect();
        Self {
            cfg,
            in_dim: ctx.in_dim,
            num_classes: ctx.num_classes,
            params,
        }
    }

    /// The input feature dimensionality the student was trained with.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

impl MlpModel {
    /// The layer stack over features `x`; `rng` is `Some` in training
    /// mode (hidden dropout).
    fn layers(&self, tape: &mut Tape, x: &Rc<CsrMatrix>, mut rng: Option<&mut Rng>) -> Var {
        let w0 = tape.param_of(0, &self.params[0]);
        let mut h = tape.spmm(x, w0, false);
        for (l, w) in self.params.iter().enumerate().skip(1) {
            h = tape.relu(h);
            if let Some(rng) = rng.as_deref_mut() {
                h = tape.dropout(h, self.cfg.dropout, rng);
            }
            let wv = tape.param_of(l, w);
            h = tape.matmul(h, wv);
        }
        h
    }
}

impl Model for MlpModel {
    fn forward(&self, tape: &mut Tape, ctx: &GraphContext, training: bool, rng: &mut Rng) -> Var {
        if !training {
            return self.eval_rows(tape, ctx, &ctx.all_rows());
        }
        let x = ctx.dropout_features(self.cfg.input_dropout, rng);
        self.layers(tape, &x, Some(rng))
    }

    /// No graph in the forward: the block is the rows' own features.
    fn eval_rows(&self, tape: &mut Tape, _ctx: &GraphContext, rows: &RowSet) -> Var {
        self.layers(tape, &rows.block(0).features, None)
    }

    fn params(&self) -> &[Matrix] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [Matrix] {
        &mut self.params
    }

    fn decay_mask(&self) -> Vec<bool> {
        let mut m = vec![false; self.params.len()];
        if !m.is_empty() {
            m[0] = true;
        }
        m
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

/// Check that `params` forms a non-empty `d₀→d₁→…→k` linear chain.
pub fn validate_layer_chain(params: &[Matrix]) -> Result<(), String> {
    if params.is_empty() {
        return Err("mlp needs at least one weight matrix".into());
    }
    for (l, pair) in params.windows(2).enumerate() {
        if pair[0].cols() != pair[1].rows() {
            return Err(format!(
                "layer {l} outputs {} columns but layer {} expects {} rows",
                pair[0].cols(),
                l + 1,
                pair[1].rows()
            ));
        }
    }
    Ok(())
}

/// The canonical dense MLP forward: `rows · W₀`, then `ReLU → · W_l` per
/// remaining layer. No dropout, no graph, no randomness — a fixed sequence
/// of dense matmuls, so the same weights and the same rows always produce
/// bitwise-identical logits. Serve-side feature inference and every offline
/// comparison (ci's bitwise gate, artifact tests) go through this one
/// function.
///
/// # Panics
/// If `rows.cols() != params[0].rows()` or the layer chain is inconsistent
/// (callers validate first; the serve path maps the mismatch to
/// `PredictError::FeatureDimMismatch`).
pub fn mlp_forward_features(params: &[Matrix], rows: &Matrix) -> Matrix {
    assert!(!params.is_empty(), "mlp forward with no layers");
    assert_eq!(
        rows.cols(),
        params[0].rows(),
        "feature dim mismatch in mlp forward"
    );
    let mut h = rows.matmul(&params[0]);
    for w in &params[1..] {
        for v in h.as_mut_slice() {
            *v = v.max(0.0);
        }
        h = h.matmul(w);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorExt;
    use crate::trainer::{train, TrainConfig};
    use rdd_graph::SynthConfig;
    use rdd_tensor::seeded_rng;

    fn ctx() -> GraphContext {
        GraphContext::new(&SynthConfig::tiny().generate())
    }

    #[test]
    fn student_shapes_follow_config() {
        let ctx = ctx();
        let mut rng = seeded_rng(3);
        let m = MlpModel::new(&ctx, MlpConfig::student(), &mut rng);
        assert_eq!(m.params().len(), 3, "two hidden layers => three linears");
        assert_eq!(m.params()[0].shape(), (ctx.in_dim, 64));
        assert_eq!(m.params()[2].shape(), (64, ctx.num_classes));
        assert_eq!(m.in_dim(), ctx.in_dim);
        assert_eq!(m.num_classes(), ctx.num_classes);
        let mut tape = Tape::new();
        let v = m.forward(&mut tape, &ctx, false, &mut rng);
        assert_eq!(tape.value(v).shape(), (ctx.n, ctx.num_classes));
    }

    #[test]
    fn mlp_learns_tiny_dataset_supervised() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(11);
        let mut m = MlpModel::new(&ctx, MlpConfig::student(), &mut rng);
        train(&mut m, &ctx, &data, &TrainConfig::fast(), &mut rng, None);
        let acc = data.test_accuracy(&m.predictor(&ctx).predict());
        assert!(acc > 0.5, "feature-only MLP should beat chance, got {acc}");
    }

    #[test]
    fn dense_forward_is_deterministic_and_matches_eval_shapes() {
        let ctx = ctx();
        let mut rng = seeded_rng(5);
        let m = MlpModel::new(&ctx, MlpConfig::student(), &mut rng);
        let rows = Matrix::from_fn(7, ctx.in_dim, |i, j| ((i * 31 + j) % 13) as f32 * 0.1);
        let a = mlp_forward_features(m.params(), &rows);
        let b = mlp_forward_features(m.params(), &rows);
        assert_eq!(a.shape(), (7, ctx.num_classes));
        let bitwise = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(bitwise, "dense forward must be reproducible bitwise");
    }

    #[test]
    fn dense_forward_agrees_with_tape_forward_on_graph_rows() {
        // The train-time spmm path and the dense serve path accumulate in
        // different orders; they must agree numerically (not bitwise).
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(9);
        let m = MlpModel::new(&ctx, MlpConfig::student(), &mut rng);
        let tape_logits = {
            let mut tape = Tape::new();
            let v = m.forward(&mut tape, &ctx, false, &mut rng);
            tape.value(v).clone()
        };
        let dense_rows = Matrix::from_fn(ctx.n, ctx.in_dim, |i, j| {
            let (cols, vals) = ctx.features.row(i);
            cols.iter()
                .position(|&c| c as usize == j)
                .map_or(0.0, |k| vals[k])
        });
        let dense_logits = mlp_forward_features(m.params(), &dense_rows);
        assert!(
            tape_logits.max_abs_diff(&dense_logits) < 1e-4,
            "spmm and dense paths diverged: {}",
            tape_logits.max_abs_diff(&dense_logits)
        );
    }
}
