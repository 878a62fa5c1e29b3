//! Graph-data-based ensemble (paper §4.3).
//!
//! Each trained student joins the teacher ensemble with weight
//! `α_t = 1 / Σ_i I_t(x_i) · Pr(x_i)` (Eq. 12): the inverse of its total
//! prediction entropy weighted by PageRank node importance. Confident
//! predictions on structurally important nodes earn a base model more say
//! in the combined output `H_T = Σ α_t h_t` (Eq. 13).

use rdd_models::{gather_prediction, PredictError, PredictRequest, Prediction, Predictor};
use rdd_tensor::Matrix;

/// One base model's frozen outputs plus its ensemble weight.
#[derive(Clone, Debug)]
pub struct EnsembleMember {
    /// Eval-mode softmax outputs, `n x k`.
    pub proba: Matrix,
    /// `α_t`.
    pub alpha: f32,
}

/// The teacher: an α-weighted combination of base model outputs.
///
/// The α-weighted sum is maintained incrementally on [`Ensemble::push`],
/// so [`Ensemble::proba`] costs one scaled copy instead of a full pass
/// over every member.
#[derive(Clone, Debug, Default)]
pub struct Ensemble {
    members: Vec<EnsembleMember>,
    /// `Σ_t α_t · proba_t`, maintained on push.
    proba_sum: Option<Matrix>,
    /// `Σ_t α_t`.
    alpha_total: f32,
}

impl Ensemble {
    /// An empty ensemble.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of base models.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no base models have been added.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in insertion order.
    pub fn members(&self) -> &[EnsembleMember] {
        &self.members
    }

    /// The member weights in insertion order.
    pub fn alphas(&self) -> Vec<f32> {
        self.members.iter().map(|m| m.alpha).collect()
    }

    /// The running `Σ_t α_t · proba_t` (None while empty). Persisted by the
    /// crash-safe run directory as a bitwise integrity check for resume.
    pub fn proba_sum(&self) -> Option<&Matrix> {
        self.proba_sum.as_ref()
    }

    /// The running `Σ_t α_t`.
    pub fn alpha_total(&self) -> f32 {
        self.alpha_total
    }

    /// Add a base model's outputs with weight `alpha`.
    pub fn push(&mut self, proba: Matrix, alpha: f32) {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "ensemble weight must be positive, got {alpha}"
        );
        if let Some(first) = self.members.first() {
            assert_eq!(first.proba.shape(), proba.shape(), "member shape mismatch");
        }
        match &mut self.proba_sum {
            Some(ps) => ps.add_scaled_assign(&proba, alpha),
            None => self.proba_sum = Some(proba.scaled(alpha)),
        }
        self.alpha_total += alpha;
        self.members.push(EnsembleMember { proba, alpha });
    }

    /// The teacher's softmax output `H_T` (rows remain distributions because
    /// the weights are normalized to sum to one).
    ///
    /// # Panics
    /// On an empty ensemble; use [`Ensemble::try_proba`] for a typed error.
    pub fn proba(&self) -> Matrix {
        self.try_proba().expect("empty ensemble")
    }

    /// [`Ensemble::proba`] with the empty case as a typed error instead of
    /// a panic.
    pub fn try_proba(&self) -> Result<Matrix, PredictError> {
        let sum = self.proba_sum.as_ref().ok_or(PredictError::EmptyEnsemble)?;
        Ok(sum.scaled(1.0 / self.alpha_total))
    }

    /// Hard predictions of the combined teacher.
    ///
    /// # Panics
    /// On an empty ensemble; use [`Ensemble::try_predict`] for a typed error.
    pub fn predict(&self) -> Vec<usize> {
        self.try_predict().expect("empty ensemble")
    }

    /// [`Ensemble::predict`] with the empty case as a typed error.
    pub fn try_predict(&self) -> Result<Vec<usize>, PredictError> {
        Ok(self.try_proba()?.argmax_rows())
    }
}

/// The frozen teacher is a [`Predictor`]: `predict_batch` answers node
/// subsets straight off the maintained `Σ α_t proba_t`, and an empty
/// ensemble is a typed [`PredictError::EmptyEnsemble`] instead of a panic.
impl Predictor for Ensemble {
    fn num_nodes(&self) -> usize {
        self.proba_sum.as_ref().map_or(0, |m| m.rows())
    }

    fn num_classes(&self) -> usize {
        self.proba_sum.as_ref().map_or(0, |m| m.cols())
    }

    fn predict_batch(&self, req: &PredictRequest) -> Result<Prediction, PredictError> {
        gather_prediction(&self.try_proba()?, req)
    }
}

/// Eq. 12: `α_t = 1 / Σ_i I_t(x_i) · Pr(x_i)`.
///
/// `uniform_weights` (the WEW ablation) replaces this with Bagging's
/// constant weighting.
pub fn model_weight(proba: &Matrix, pagerank: &[f32]) -> f32 {
    assert_eq!(proba.rows(), pagerank.len(), "pagerank length mismatch");
    let entropies = proba.row_entropy();
    let weighted: f32 = entropies.iter().zip(pagerank).map(|(&e, &pr)| e * pr).sum();
    // A perfectly confident model has zero total entropy; clamp to keep the
    // weight finite (it still dominates the ensemble).
    1.0 / weighted.max(1e-9)
}

/// The WEW ablation: every base model weighs the same.
pub fn uniform_weight() -> f32 {
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proba2(rows: &[[f32; 2]]) -> Matrix {
        Matrix::from_vec(rows.len(), 2, rows.iter().flatten().copied().collect())
    }

    #[test]
    fn weighted_mean_respects_alpha() {
        let mut e = Ensemble::new();
        let a = proba2(&[[1.0, 0.0]]);
        let b = proba2(&[[0.0, 1.0]]);
        e.push(a, 3.0);
        e.push(b, 1.0);
        let p = e.proba();
        assert!((p.get(0, 0) - 0.75).abs() < 1e-6);
        assert!((p.get(0, 1) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn proba_rows_remain_distributions() {
        let mut e = Ensemble::new();
        e.push(proba2(&[[0.6, 0.4], [0.1, 0.9]]), 0.7);
        e.push(proba2(&[[0.2, 0.8], [0.3, 0.7]]), 2.0);
        let p = e.proba();
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn confident_model_gets_higher_weight() {
        let pr = vec![0.5, 0.5];
        let confident = proba2(&[[0.99, 0.01], [0.98, 0.02]]);
        let unsure = proba2(&[[0.6, 0.4], [0.55, 0.45]]);
        assert!(model_weight(&confident, &pr) > model_weight(&unsure, &pr));
    }

    #[test]
    fn pagerank_focuses_the_weight() {
        // Same entropies, but model A is unsure exactly on the high-PageRank
        // node -> lower weight than model B which is unsure on the low one.
        let pr = vec![0.9, 0.1];
        let a = proba2(&[[0.5, 0.5], [0.99, 0.01]]);
        let b = proba2(&[[0.99, 0.01], [0.5, 0.5]]);
        assert!(model_weight(&a, &pr) < model_weight(&b, &pr));
    }

    #[test]
    fn zero_entropy_model_weight_is_finite() {
        let pr = vec![1.0];
        let onehot = proba2(&[[1.0, 0.0]]);
        let w = model_weight(&onehot, &pr);
        assert!(w.is_finite() && w > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_alpha_rejected() {
        let mut e = Ensemble::new();
        e.push(proba2(&[[1.0, 0.0]]), 0.0);
    }

    #[test]
    fn empty_ensemble_is_a_typed_error_not_a_panic() {
        let e = Ensemble::new();
        assert_eq!(e.try_proba().unwrap_err(), PredictError::EmptyEnsemble);
        assert_eq!(e.try_predict().unwrap_err(), PredictError::EmptyEnsemble);
        assert_eq!(
            e.predict_batch(&PredictRequest::all()).unwrap_err(),
            PredictError::EmptyEnsemble
        );
        assert_eq!(e.num_nodes(), 0);
        assert_eq!(e.num_classes(), 0);
    }

    #[test]
    fn ensemble_predict_batch_matches_proba_bitwise() {
        let mut e = Ensemble::new();
        e.push(proba2(&[[0.6, 0.4], [0.1, 0.9], [0.5, 0.5]]), 0.7);
        e.push(proba2(&[[0.2, 0.8], [0.3, 0.7], [0.9, 0.1]]), 2.0);
        assert_eq!(e.num_nodes(), 3);
        assert_eq!(e.num_classes(), 2);
        let full = e.proba();
        let batch = e.predict_batch(&PredictRequest::nodes(vec![2, 0])).unwrap();
        assert_eq!(batch.nodes, vec![2, 0]);
        for (r, &node) in batch.nodes.iter().enumerate() {
            let same = batch
                .proba
                .row(r)
                .iter()
                .zip(full.row(node))
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "row {r} (node {node}) not bitwise equal to proba()");
        }
        let err = e
            .predict_batch(&PredictRequest::nodes(vec![3]))
            .unwrap_err();
        assert_eq!(
            err,
            PredictError::NodeOutOfRange {
                node: 3,
                num_nodes: 3
            }
        );
    }

    #[test]
    fn predict_uses_combined_output() {
        let mut e = Ensemble::new();
        // Two weak votes for class 1 outweigh one vote for class 0 when
        // weighted up.
        e.push(proba2(&[[0.9, 0.1]]), 1.0);
        e.push(proba2(&[[0.2, 0.8]]), 5.0);
        assert_eq!(e.predict(), vec![1]);
    }
}
