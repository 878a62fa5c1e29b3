//! GraphSAGE (Hamilton et al. 2017) with the mean aggregator and per-epoch
//! neighbor sampling — the scalable spatial-GCN family from the paper's
//! related work (§6). Usable standalone or as an RDD base model through
//! `RddTrainer::with_base_model`.
//!
//! Layer rule: `h'_i = ReLU(W_self·h_i + W_neigh·mean_{j∈S(i)} h_j)` where
//! `S(i)` is a fresh sample of up to `sample_size` neighbors each training
//! epoch (eval mode uses the full neighborhood).

use std::rc::Rc;

use rdd_tensor::{glorot_uniform, CsrMatrix, Matrix, Rng, Tape, Var};

use crate::context::GraphContext;
use crate::gcn::Model;

/// GraphSAGE hyperparameters.
#[derive(Clone, Debug)]
pub struct SageConfig {
    /// Hidden width of the single hidden layer.
    pub hidden: usize,
    /// Neighbors sampled per node per layer during training.
    pub sample_size: usize,
    /// Dropout on hidden activations.
    pub dropout: f32,
    /// Dropout on the sparse input features.
    pub input_dropout: f32,
}

impl Default for SageConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            sample_size: 10,
            dropout: 0.5,
            input_dropout: 0.5,
        }
    }
}

/// Two-layer mean-aggregator GraphSAGE.
///
/// Parameter layout: `[W_self_1, W_neigh_1, W_self_2, W_neigh_2]`.
pub struct GraphSage {
    cfg: SageConfig,
    params: Vec<Matrix>,
    /// Full-neighborhood mean operator for eval mode.
    full_mean: Rc<CsrMatrix>,
    /// Neighbor lists for sampling (from the dataset's adjacency).
    neighbors: Vec<Vec<u32>>,
}

impl GraphSage {
    /// Build with Glorot-initialized weights; caches neighbor lists for sampling.
    pub fn new(ctx: &GraphContext, cfg: SageConfig, rng: &mut Rng) -> Self {
        let params = vec![
            glorot_uniform(ctx.in_dim, cfg.hidden, rng),
            glorot_uniform(ctx.in_dim, cfg.hidden, rng),
            glorot_uniform(cfg.hidden, ctx.num_classes, rng),
            glorot_uniform(cfg.hidden, ctx.num_classes, rng),
        ];
        // Recover neighbor lists from Â's stored pattern minus self-loops.
        let n = ctx.n;
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, nbrs) in neighbors.iter_mut().enumerate() {
            let (cols, _) = ctx.a_hat.row(i);
            for &j in cols {
                if j as usize != i {
                    nbrs.push(j);
                }
            }
        }
        let full_mean = Rc::new(mean_operator(&neighbors, n, usize::MAX, None));
        Self {
            cfg,
            params,
            full_mean,
            neighbors,
        }
    }

    /// A fresh sampled mean operator (training mode).
    fn sampled_mean(&self, rng: &mut Rng) -> Rc<CsrMatrix> {
        Rc::new(mean_operator(
            &self.neighbors,
            self.neighbors.len(),
            self.cfg.sample_size,
            Some(rng),
        ))
    }
}

/// Row-normalized neighbor-mean operator, optionally subsampling each
/// neighborhood to `cap` entries.
fn mean_operator(
    neighbors: &[Vec<u32>],
    n: usize,
    cap: usize,
    mut rng: Option<&mut Rng>,
) -> CsrMatrix {
    let mut triplets = Vec::new();
    let mut scratch: Vec<u32> = Vec::new();
    for (i, nbrs) in neighbors.iter().enumerate() {
        if nbrs.is_empty() {
            // Isolated node: fall back to itself so the mean is defined.
            triplets.push((i, i, 1.0));
            continue;
        }
        let chosen: &[u32] = if nbrs.len() <= cap {
            nbrs
        } else {
            let rng = rng.as_deref_mut().expect("sampling needs an rng");
            scratch.clear();
            scratch.extend_from_slice(nbrs);
            rng.partial_shuffle(&mut scratch, cap);
            &scratch[..cap]
        };
        let w = 1.0 / chosen.len() as f32;
        for &j in chosen {
            triplets.push((i, j as usize, w));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

impl Model for GraphSage {
    fn forward(&self, tape: &mut Tape, ctx: &GraphContext, training: bool, rng: &mut Rng) -> Var {
        let x = if training {
            ctx.dropout_features(self.cfg.input_dropout, rng)
        } else {
            Rc::clone(&ctx.features)
        };
        let mean_op = if training {
            self.sampled_mean(rng)
        } else {
            Rc::clone(&self.full_mean)
        };

        // Layer 1 (sparse input): W_self·x + W_neigh·mean(x).
        let w_self1 = tape.param_of(0, &self.params[0]);
        let w_neigh1 = tape.param_of(1, &self.params[1]);
        let self_part = tape.spmm(&x, w_self1, false);
        let xw = tape.spmm(&x, w_neigh1, false);
        let neigh_part = tape.spmm(&mean_op, xw, false);
        let mut h = tape.add(self_part, neigh_part);
        h = tape.relu(h);
        if training {
            h = tape.dropout(h, self.cfg.dropout, rng);
        }

        // Layer 2 (dense hidden).
        let w_self2 = tape.param_of(2, &self.params[2]);
        let w_neigh2 = tape.param_of(3, &self.params[3]);
        let self2 = tape.matmul(h, w_self2);
        let hw = tape.matmul(h, w_neigh2);
        let neigh2 = tape.spmm(&mean_op, hw, false);
        tape.add(self2, neigh2)
    }

    fn params(&self) -> &[Matrix] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [Matrix] {
        &mut self.params
    }

    fn decay_mask(&self) -> Vec<bool> {
        vec![true, true, false, false]
    }

    fn name(&self) -> &'static str {
        "GraphSAGE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorExt;
    use crate::trainer::{train, TrainConfig};
    use rdd_graph::SynthConfig;
    use rdd_tensor::seeded_rng;

    #[test]
    fn sage_output_shape() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(1);
        let sage = GraphSage::new(&ctx, SageConfig::default(), &mut rng);
        let mut tape = Tape::new();
        let v = sage.forward(&mut tape, &ctx, false, &mut rng);
        assert_eq!(tape.value(v).shape(), (300, 3));
        assert_eq!(sage.params().len(), 4);
    }

    #[test]
    fn mean_operator_rows_sum_to_one() {
        let neighbors = vec![vec![1u32, 2], vec![0], vec![]];
        let op = mean_operator(&neighbors, 3, usize::MAX, None);
        for (i, s) in op.row_sums().iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
        }
        // Isolated node self-references.
        assert_eq!(op.get(2, 2), 1.0);
    }

    #[test]
    fn sampling_caps_neighborhoods() {
        let neighbors = vec![(1u32..21).collect::<Vec<_>>(); 1]
            .into_iter()
            .chain(std::iter::repeat_with(Vec::new).take(20))
            .collect::<Vec<_>>();
        let mut rng = seeded_rng(2);
        let op = mean_operator(&neighbors, 21, 5, Some(&mut rng));
        assert_eq!(op.row_nnz(0), 5, "capped to sample size");
        assert!((op.row(0).1.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sage_learns_tiny_dataset() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(3);
        let mut sage = GraphSage::new(&ctx, SageConfig::default(), &mut rng);
        let cfg = TrainConfig {
            epochs: 80,
            patience: 80,
            min_epochs: 0,
            ..TrainConfig::fast()
        };
        train(&mut sage, &ctx, &data, &cfg, &mut rng, None);
        let acc = data.test_accuracy(&sage.predictor(&ctx).predict());
        assert!(acc > 0.6, "GraphSAGE should learn, got {acc}");
    }

    #[test]
    fn sage_backprops_to_all_params() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(4);
        let sage = GraphSage::new(&ctx, SageConfig::default(), &mut rng);
        let mut tape = Tape::new();
        let logits = sage.forward(&mut tape, &ctx, true, &mut rng);
        let loss = tape.ce_masked(
            logits,
            Rc::new(data.labels.clone()),
            Rc::new(data.train_idx.clone()),
        );
        let grads = tape.backward(loss, 4);
        for (i, g) in grads.iter().enumerate() {
            assert!(
                g.as_ref().map(|g| g.frob_sq() > 0.0).unwrap_or(false),
                "param {i} got no gradient"
            );
        }
    }
}
