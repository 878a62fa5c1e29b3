//! The GCN model zoo: plain GCN plus the deep variants the paper compares
//! against (ResGCN, DenseGCN, JK-Net). The graph-free MLP lives in
//! [`crate::mlp`].
//!
//! All models share the [`Model`] trait: a forward pass that records onto an
//! autodiff [`Tape`] and returns the `n x k` logits node. Layer 1 always
//! consumes the *sparse* feature matrix (bag-of-words features are ~1%
//! dense), which is where most of the CPU savings come from.

use std::rc::Rc;

use rdd_tensor::{glorot_uniform, seeded_rng, CsrMatrix, Matrix, Rng, Tape, Var};

use crate::context::{GraphContext, RowSet};

/// A trainable node-classification model.
pub trait Model {
    /// Record the forward pass on `tape`, returning the logits variable
    /// (`n x num_classes`). `training` enables dropout; an eval-mode
    /// forward is [`Model::eval_rows`] over [`GraphContext::all_rows`].
    fn forward(&self, tape: &mut Tape, ctx: &GraphContext, training: bool, rng: &mut Rng) -> Var;

    /// Record an eval-mode forward of `rows` only, returning their logits
    /// (`rows.rows().len() x num_classes`, row `r` for node
    /// `rows.rows()[r]`), bitwise equal to those rows of the full-graph
    /// eval. The default runs the full eval forward and picks the rows; a
    /// model that can compute just the rows' receptive field (a
    /// [`crate::context::Block`]) overrides it.
    fn eval_rows(&self, tape: &mut Tape, ctx: &GraphContext, rows: &RowSet) -> Var {
        // Eval mode ignores the rng; a fixed seed keeps the signature simple.
        let full = self.forward(tape, ctx, false, &mut seeded_rng(0));
        if rows.is_all() {
            full
        } else {
            tape.take_rows(full, Rc::clone(rows.rows()))
        }
    }

    /// Current parameter values (aligned with the tape slots used by
    /// `forward`).
    fn params(&self) -> &[Matrix];

    /// Mutable parameter access (used by the optimizer).
    fn params_mut(&mut self) -> &mut [Matrix];

    /// Which parameter slots receive L2 weight decay. The reference GCN
    /// decays only the first layer.
    fn decay_mask(&self) -> Vec<bool>;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Hyperparameters shared by all zoo members.
#[derive(Clone, Debug, PartialEq)]
pub struct GcnConfig {
    /// Hidden layer widths; `[16]` is the paper's 2-layer citation setup.
    pub hidden: Vec<usize>,
    /// Dropout applied to hidden activations.
    pub dropout: f32,
    /// Dropout applied to the sparse input features.
    pub input_dropout: f32,
}

impl GcnConfig {
    /// The paper's citation-network setup: one hidden layer of 16 units.
    pub fn citation() -> Self {
        Self {
            hidden: vec![16],
            dropout: 0.5,
            input_dropout: 0.5,
        }
    }

    /// The paper's NELL setup: hidden width 100, lighter dropout.
    pub fn nell() -> Self {
        Self {
            hidden: vec![100],
            dropout: 0.2,
            input_dropout: 0.2,
        }
    }

    /// A deep stack of `layers` hidden layers of equal width (ResGCN).
    pub fn deep(width: usize, layers: usize, dropout: f32) -> Self {
        Self {
            hidden: vec![width; layers],
            dropout,
            input_dropout: dropout,
        }
    }
}

fn init_weights(dims: &[usize], seed_rng: &mut Rng) -> Vec<Matrix> {
    dims.windows(2)
        .map(|w| glorot_uniform(w[0], w[1], seed_rng))
        .collect()
}

/// Drop the features (sparse) if training, otherwise share them.
fn input_features(
    ctx: &GraphContext,
    cfg: &GcnConfig,
    training: bool,
    rng: &mut Rng,
) -> Rc<CsrMatrix> {
    if training {
        ctx.dropout_features(cfg.input_dropout, rng)
    } else {
        Rc::clone(&ctx.features)
    }
}

/// Plain multi-layer GCN (Kipf & Welling): `H_{l+1} = ReLU(Â H_l W_l)`.
pub struct Gcn {
    cfg: GcnConfig,
    params: Vec<Matrix>,
}

impl Gcn {
    /// Build with Glorot-initialized weights.
    pub fn new(ctx: &GraphContext, cfg: GcnConfig, rng: &mut Rng) -> Self {
        let mut dims = vec![ctx.in_dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(ctx.num_classes);
        let params = init_weights(&dims, rng);
        Self { cfg, params }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.cfg
    }

    /// The layer stack over features `x`, layer `l` propagating with
    /// `adj(l)`; `rng` is `Some` in training mode (hidden dropout).
    fn layers<'a>(
        &self,
        tape: &mut Tape,
        ctx: &GraphContext,
        x: &Rc<CsrMatrix>,
        adj: impl Fn(usize) -> &'a Rc<CsrMatrix>,
        mut rng: Option<&mut Rng>,
    ) -> Var {
        // Only Â itself is symmetric (the cheaper backward).
        let symmetric = |a: &Rc<CsrMatrix>| Rc::ptr_eq(a, &ctx.a_hat);
        // Layer 1: Â (X W1) with sparse X.
        let w1 = tape.param_of(0, &self.params[0]);
        let xw = tape.spmm(x, w1, false);
        let mut h = tape.spmm(adj(0), xw, symmetric(adj(0)));
        for (l, w) in self.params.iter().enumerate().skip(1) {
            h = tape.relu(h);
            if let Some(rng) = rng.as_deref_mut() {
                h = tape.dropout(h, self.cfg.dropout, rng);
            }
            let wv = tape.param_of(l, w);
            let hw = tape.matmul(h, wv);
            h = tape.spmm(adj(l), hw, symmetric(adj(l)));
        }
        h
    }
}

impl Model for Gcn {
    fn forward(&self, tape: &mut Tape, ctx: &GraphContext, training: bool, rng: &mut Rng) -> Var {
        if !training {
            return self.eval_rows(tape, ctx, &ctx.all_rows());
        }
        let x = ctx.dropout_features(self.cfg.input_dropout, rng);
        self.layers(tape, ctx, &x, |_| &ctx.a_hat, Some(rng))
    }

    /// Computes only the rows' receptive field: one hop per layer.
    fn eval_rows(&self, tape: &mut Tape, ctx: &GraphContext, rows: &RowSet) -> Var {
        let block = rows.block(self.params.len());
        self.layers(tape, ctx, &block.features, |l| &block.adj[l], None)
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
        "GCN"
    }
}

/// GCN with residual connections between equal-width hidden layers
/// (`H_{l+1} = ReLU(Â H_l W_l) + H_l`), the deep baseline from Kipf &
/// Welling the paper labels "ResGCN".
pub struct ResGcn {
    cfg: GcnConfig,
    params: Vec<Matrix>,
}

impl ResGcn {
    /// Build with Glorot-initialized weights.
    pub fn new(ctx: &GraphContext, cfg: GcnConfig, rng: &mut Rng) -> Self {
        assert!(
            cfg.hidden.windows(2).all(|w| w[0] == w[1]),
            "ResGCN needs equal hidden widths for residuals"
        );
        let mut dims = vec![ctx.in_dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(ctx.num_classes);
        let params = init_weights(&dims, rng);
        Self { cfg, params }
    }
}

impl Model for ResGcn {
    fn forward(&self, tape: &mut Tape, ctx: &GraphContext, training: bool, rng: &mut Rng) -> Var {
        let x = input_features(ctx, &self.cfg, training, rng);
        let w1 = tape.param_of(0, &self.params[0]);
        let xw = tape.spmm(&x, w1, false);
        let mut h = tape.spmm(&ctx.a_hat, xw, true);
        let last = self.params.len() - 1;
        for (l, w) in self.params.iter().enumerate().skip(1) {
            let prev = h;
            h = tape.relu(h);
            if training {
                h = tape.dropout(h, self.cfg.dropout, rng);
            }
            let wv = tape.param_of(l, w);
            let hw = tape.matmul(h, wv);
            h = tape.spmm(&ctx.a_hat, hw, true);
            // Residual between equal-width hidden layers only.
            if l < last && tape.value(prev).cols() == tape.value(h).cols() {
                h = tape.add(h, prev);
            }
        }
        h
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
        "ResGCN"
    }
}

/// Densely-connected GCN: each layer consumes the concatenation of all
/// previous layer outputs (Li et al., "Can GCNs go as deep as CNNs?").
pub struct DenseGcn {
    cfg: GcnConfig,
    params: Vec<Matrix>,
}

impl DenseGcn {
    /// Build with Glorot-initialized weights.
    pub fn new(ctx: &GraphContext, cfg: GcnConfig, rng: &mut Rng) -> Self {
        // Layer l input width = in_dim-projection + sum of previous widths.
        let mut params = Vec::with_capacity(cfg.hidden.len() + 1);
        let mut acc_width = 0usize;
        let mut prev_in = ctx.in_dim;
        for &hdim in &cfg.hidden {
            params.push(glorot_uniform(prev_in, hdim, rng));
            acc_width += hdim;
            prev_in = acc_width;
        }
        params.push(glorot_uniform(prev_in.max(1), ctx.num_classes, rng));
        Self { cfg, params }
    }
}

impl Model for DenseGcn {
    fn forward(&self, tape: &mut Tape, ctx: &GraphContext, training: bool, rng: &mut Rng) -> Var {
        let x = input_features(ctx, &self.cfg, training, rng);
        let mut outputs: Vec<Var> = Vec::with_capacity(self.cfg.hidden.len());
        let last = self.params.len() - 1;
        for (l, w) in self.params.iter().enumerate() {
            let wv = tape.param_of(l, w);
            let hw = if l == 0 {
                tape.spmm(&x, wv, false)
            } else {
                // Dense connectivity: concat of all previous outputs.
                let cat = if outputs.len() == 1 {
                    outputs[0]
                } else {
                    tape.concat_cols(&outputs)
                };
                let mut inp = tape.relu(cat);
                if training {
                    inp = tape.dropout(inp, self.cfg.dropout, rng);
                }
                tape.matmul(inp, wv)
            };
            let h = tape.spmm(&ctx.a_hat, hw, true);
            if l == last {
                return h;
            }
            outputs.push(h);
        }
        unreachable!("loop returns at the last layer")
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
        "DenseGCN"
    }
}

/// Jumping-Knowledge network with the concatenation aggregator (Xu et al.
/// 2018): all hidden layer outputs are concatenated into the final linear
/// classifier, the configuration the paper found best on citation networks.
pub struct JkNet {
    cfg: GcnConfig,
    params: Vec<Matrix>,
}

impl JkNet {
    /// Build with Glorot-initialized weights.
    pub fn new(ctx: &GraphContext, cfg: GcnConfig, rng: &mut Rng) -> Self {
        assert!(
            !cfg.hidden.is_empty(),
            "JK-Net needs at least one hidden layer"
        );
        let mut params = Vec::with_capacity(cfg.hidden.len() + 1);
        let mut prev = ctx.in_dim;
        for &hdim in &cfg.hidden {
            params.push(glorot_uniform(prev, hdim, rng));
            prev = hdim;
        }
        let cat_width: usize = cfg.hidden.iter().sum();
        params.push(glorot_uniform(cat_width, ctx.num_classes, rng));
        Self { cfg, params }
    }
}

impl Model for JkNet {
    fn forward(&self, tape: &mut Tape, ctx: &GraphContext, training: bool, rng: &mut Rng) -> Var {
        let x = input_features(ctx, &self.cfg, training, rng);
        let mut outputs: Vec<Var> = Vec::with_capacity(self.cfg.hidden.len());
        let mut h: Option<Var> = None;
        let n_hidden = self.cfg.hidden.len();
        for l in 0..n_hidden {
            let wv = tape.param_of(l, &self.params[l]);
            let hw = match h {
                None => tape.spmm(&x, wv, false),
                Some(prev) => {
                    let mut inp = tape.relu(prev);
                    if training {
                        inp = tape.dropout(inp, self.cfg.dropout, rng);
                    }
                    tape.matmul(inp, wv)
                }
            };
            let out = tape.spmm(&ctx.a_hat, hw, true);
            outputs.push(out);
            h = Some(out);
        }
        // Jumping knowledge: concat every layer's representation.
        let cat = if outputs.len() == 1 {
            outputs[0]
        } else {
            tape.concat_cols(&outputs)
        };
        let mut agg = tape.relu(cat);
        if training {
            agg = tape.dropout(agg, self.cfg.dropout, rng);
        }
        let w_out = tape.param_of(n_hidden, &self.params[n_hidden]);
        tape.matmul(agg, w_out)
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
        "JK-Net"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{MlpConfig, MlpModel};
    use rdd_graph::SynthConfig;
    use rdd_tensor::seeded_rng;

    fn ctx() -> GraphContext {
        GraphContext::new(&SynthConfig::tiny().generate())
    }

    /// The MLP with [`GcnConfig::citation`]'s widths and dropouts.
    fn citation_mlp() -> MlpConfig {
        let GcnConfig {
            hidden,
            dropout,
            input_dropout,
        } = GcnConfig::citation();
        MlpConfig {
            hidden,
            dropout,
            input_dropout,
        }
    }

    fn logits_shape(model: &dyn Model, ctx: &GraphContext) -> (usize, usize) {
        let mut tape = Tape::new();
        let mut rng = seeded_rng(0);
        let v = model.forward(&mut tape, ctx, false, &mut rng);
        tape.value(v).shape()
    }

    #[test]
    fn gcn_output_shape() {
        let c = ctx();
        let mut rng = seeded_rng(1);
        let m = Gcn::new(&c, GcnConfig::citation(), &mut rng);
        assert_eq!(logits_shape(&m, &c), (300, 3));
        assert_eq!(m.params().len(), 2);
    }

    #[test]
    fn deep_gcn_output_shapes() {
        let c = ctx();
        let mut rng = seeded_rng(2);
        let res = ResGcn::new(&c, GcnConfig::deep(16, 4, 0.5), &mut rng);
        assert_eq!(logits_shape(&res, &c), (300, 3));
        let dense = DenseGcn::new(&c, GcnConfig::deep(16, 4, 0.5), &mut rng);
        assert_eq!(logits_shape(&dense, &c), (300, 3));
        let jk = JkNet::new(&c, GcnConfig::deep(16, 4, 0.5), &mut rng);
        assert_eq!(logits_shape(&jk, &c), (300, 3));
        let mlp = MlpModel::new(&c, citation_mlp(), &mut rng);
        assert_eq!(logits_shape(&mlp, &c), (300, 3));
    }

    #[test]
    fn forward_is_deterministic_in_eval_mode() {
        let c = ctx();
        let mut rng = seeded_rng(3);
        let m = Gcn::new(&c, GcnConfig::citation(), &mut rng);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let mut r1 = seeded_rng(10);
        let mut r2 = seeded_rng(20); // different rng must not matter in eval
        let v1 = m.forward(&mut t1, &c, false, &mut r1);
        let v2 = m.forward(&mut t2, &c, false, &mut r2);
        assert!(t1.value(v1).max_abs_diff(t2.value(v2)) < 1e-7);
    }

    #[test]
    fn training_forward_differs_from_eval() {
        let c = ctx();
        let mut rng = seeded_rng(4);
        let m = Gcn::new(&c, GcnConfig::citation(), &mut rng);
        let mut t1 = Tape::new();
        let mut t2 = Tape::new();
        let mut r = seeded_rng(11);
        let v1 = m.forward(&mut t1, &c, true, &mut r);
        let v2 = m.forward(&mut t2, &c, false, &mut r);
        assert!(t1.value(v1).max_abs_diff(t2.value(v2)) > 1e-6);
    }

    #[test]
    fn all_models_backprop_to_all_params() {
        let c = ctx();
        let mut rng = seeded_rng(5);
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Gcn::new(&c, GcnConfig::citation(), &mut rng)),
            Box::new(ResGcn::new(&c, GcnConfig::deep(8, 3, 0.5), &mut rng)),
            Box::new(DenseGcn::new(&c, GcnConfig::deep(8, 3, 0.5), &mut rng)),
            Box::new(JkNet::new(&c, GcnConfig::deep(8, 3, 0.5), &mut rng)),
            Box::new(MlpModel::new(&c, citation_mlp(), &mut rng)),
        ];
        let labels = std::rc::Rc::new((0..c.n).map(|i| i % 3).collect::<Vec<_>>());
        let idx = std::rc::Rc::new((0..30).collect::<Vec<_>>());
        for m in &models {
            let mut tape = Tape::new();
            let mut r = seeded_rng(6);
            let logits = m.forward(&mut tape, &c, true, &mut r);
            let loss = tape.ce_masked(logits, Rc::clone(&labels), Rc::clone(&idx));
            let grads = tape.backward(loss, m.params().len());
            for (i, g) in grads.iter().enumerate() {
                let g = g
                    .as_ref()
                    .unwrap_or_else(|| panic!("{}: no grad for param {i}", m.name()));
                assert!(g.frob_sq() > 0.0, "{}: zero grad for param {i}", m.name());
                assert_eq!(g.shape(), m.params()[i].shape(), "{}: grad shape", m.name());
            }
        }
    }

    #[test]
    fn decay_mask_first_layer_only() {
        let c = ctx();
        let mut rng = seeded_rng(7);
        let m = Gcn::new(&c, GcnConfig::citation(), &mut rng);
        assert_eq!(m.decay_mask(), vec![true, false]);
    }
}
