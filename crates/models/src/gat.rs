//! Graph Attention Network (Veličković et al. 2018) — the "more powerful
//! base model" the paper names when noting RDD is not tied to GCN (§5.3).
//!
//! Two layers, as in the original: a multi-head attention layer with
//! concatenated heads and ELU, then a single-head output layer producing
//! logits. Attention runs over the graph's neighborhood structure with
//! self-loops.

use std::rc::Rc;

use rdd_tensor::{glorot_uniform, uniform, CsrMatrix, Matrix, Rng, Tape, Var};

use crate::context::GraphContext;
use crate::gcn::Model;

/// GAT hyperparameters (defaults follow the original paper's transductive
/// setup: 8 heads × 8 units, LeakyReLU slope 0.2).
#[derive(Clone, Debug)]
pub struct GatConfig {
    /// Attention heads in the hidden layer.
    pub heads: usize,
    /// Hidden units per head.
    pub hidden_per_head: usize,
    /// Dropout on hidden activations.
    pub dropout: f32,
    /// Dropout on the sparse input features.
    pub input_dropout: f32,
    /// LeakyReLU negative slope for attention logits.
    pub leaky_slope: f32,
}

impl Default for GatConfig {
    fn default() -> Self {
        Self {
            heads: 8,
            hidden_per_head: 8,
            dropout: 0.6,
            input_dropout: 0.6,
            leaky_slope: 0.2,
        }
    }
}

/// Two-layer GAT. Parameter layout: for each of `heads` first-layer heads,
/// `(W_k, a_l_k, a_r_k)`; then the output head's `(W_out, a_l, a_r)`.
pub struct Gat {
    cfg: GatConfig,
    params: Vec<Matrix>,
    /// Neighborhood structure with self-loops (values ignored).
    structure: Rc<CsrMatrix>,
}

impl Gat {
    /// Build with Glorot-initialized weights and uniform attention vectors.
    pub fn new(ctx: &GraphContext, cfg: GatConfig, rng: &mut Rng) -> Self {
        assert!(cfg.heads >= 1 && cfg.hidden_per_head >= 1);
        let mut params = Vec::with_capacity(cfg.heads * 3 + 3);
        for _ in 0..cfg.heads {
            params.push(glorot_uniform(ctx.in_dim, cfg.hidden_per_head, rng));
            params.push(uniform(1, cfg.hidden_per_head, 0.3, rng));
            params.push(uniform(1, cfg.hidden_per_head, 0.3, rng));
        }
        let cat = cfg.heads * cfg.hidden_per_head;
        params.push(glorot_uniform(cat, ctx.num_classes, rng));
        params.push(uniform(1, ctx.num_classes, 0.3, rng));
        params.push(uniform(1, ctx.num_classes, 0.3, rng));

        // Â's stored pattern is exactly A + I, so it doubles as the
        // attention neighborhood structure.
        let structure = Rc::clone(&ctx.a_hat);
        Self {
            cfg,
            params,
            structure,
        }
    }
}

impl Model for Gat {
    fn forward(&self, tape: &mut Tape, ctx: &GraphContext, training: bool, rng: &mut Rng) -> Var {
        let x = if training {
            ctx.dropout_features(self.cfg.input_dropout, rng)
        } else {
            Rc::clone(&ctx.features)
        };
        // Layer 1: multi-head attention, heads concatenated.
        let mut heads = Vec::with_capacity(self.cfg.heads);
        for k in 0..self.cfg.heads {
            let w = tape.param_of(3 * k, &self.params[3 * k]);
            let a_l = tape.param_of(3 * k + 1, &self.params[3 * k + 1]);
            let a_r = tape.param_of(3 * k + 2, &self.params[3 * k + 2]);
            let h = tape.spmm(&x, w, false);
            let att = tape.graph_attention(&self.structure, h, a_l, a_r, self.cfg.leaky_slope);
            heads.push(att);
        }
        let cat = if heads.len() == 1 {
            heads[0]
        } else {
            tape.concat_cols(&heads)
        };
        let mut act = tape.elu(cat);
        if training {
            act = tape.dropout(act, self.cfg.dropout, rng);
        }
        // Layer 2: single-head attention producing logits.
        let base = 3 * self.cfg.heads;
        let w = tape.param_of(base, &self.params[base]);
        let a_l = tape.param_of(base + 1, &self.params[base + 1]);
        let a_r = tape.param_of(base + 2, &self.params[base + 2]);
        let h = tape.matmul(act, w);
        tape.graph_attention(&self.structure, h, a_l, a_r, self.cfg.leaky_slope)
    }

    fn params(&self) -> &[Matrix] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [Matrix] {
        &mut self.params
    }

    fn decay_mask(&self) -> Vec<bool> {
        // Decay the first-layer weight matrices (not the attention vectors).
        (0..self.params.len())
            .map(|i| i < 3 * self.cfg.heads && i % 3 == 0)
            .collect()
    }

    fn name(&self) -> &'static str {
        "GAT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorExt;
    use crate::trainer::{train, TrainConfig};
    use rdd_graph::SynthConfig;
    use rdd_tensor::seeded_rng;

    fn small_gat_cfg() -> GatConfig {
        GatConfig {
            heads: 2,
            hidden_per_head: 8,
            dropout: 0.3,
            input_dropout: 0.3,
            leaky_slope: 0.2,
        }
    }

    #[test]
    fn gat_output_shape_and_params() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(1);
        let gat = Gat::new(&ctx, small_gat_cfg(), &mut rng);
        assert_eq!(gat.params().len(), 2 * 3 + 3);
        let mut tape = Tape::new();
        let v = gat.forward(&mut tape, &ctx, false, &mut rng);
        assert_eq!(tape.value(v).shape(), (300, 3));
    }

    #[test]
    fn gat_backprops_to_all_params() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(2);
        let gat = Gat::new(&ctx, small_gat_cfg(), &mut rng);
        let mut tape = Tape::new();
        let logits = gat.forward(&mut tape, &ctx, true, &mut rng);
        let labels = Rc::new(data.labels.clone());
        let idx = Rc::new(data.train_idx.clone());
        let loss = tape.ce_masked(logits, labels, idx);
        let grads = tape.backward(loss, gat.params().len());
        for (i, g) in grads.iter().enumerate() {
            let g = g
                .as_ref()
                .unwrap_or_else(|| panic!("no grad for param {i}"));
            assert!(g.frob_sq() > 0.0, "zero grad for param {i}");
        }
    }

    #[test]
    fn gat_learns_tiny_dataset() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(3);
        let mut gat = Gat::new(&ctx, small_gat_cfg(), &mut rng);
        let cfg = TrainConfig {
            epochs: 80,
            patience: 80,
            min_epochs: 0,
            ..TrainConfig::fast()
        };
        train(&mut gat, &ctx, &data, &cfg, &mut rng, None);
        let acc = data.test_accuracy(&gat.predictor(&ctx).predict());
        assert!(acc > 0.6, "GAT should learn the tiny dataset, got {acc}");
    }

    #[test]
    fn decay_mask_targets_weight_matrices_only() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(4);
        let gat = Gat::new(&ctx, small_gat_cfg(), &mut rng);
        let mask = gat.decay_mask();
        assert_eq!(
            mask,
            vec![true, false, false, true, false, false, false, false, false]
        );
    }
}
