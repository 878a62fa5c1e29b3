//! A semi-supervised node-classification dataset and the Planetoid-style
//! split protocol the paper evaluates with.

use rdd_tensor::{CsrMatrix, Rng};

use crate::graph::Graph;

/// Graph + features + labels + a train/val/test split.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Dataset name (preset name or user label).
    pub name: String,
    /// The undirected graph.
    pub graph: Graph,
    /// Row-normalized sparse feature matrix, `n x d`.
    pub features: CsrMatrix,
    /// Ground-truth class of every node.
    pub labels: Vec<usize>,
    /// Number of target classes.
    pub num_classes: usize,
    /// Labeled training nodes (the only labels a model may look at).
    pub train_idx: Vec<usize>,
    /// Validation nodes for early stopping / hyperparameter tuning.
    pub val_idx: Vec<usize>,
    /// Held-out test nodes.
    pub test_idx: Vec<usize>,
}

impl Dataset {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Fraction of nodes carrying a training label.
    pub fn label_rate(&self) -> f32 {
        self.train_idx.len() as f32 / self.n() as f32
    }

    /// Classification accuracy of `predictions` over the test split.
    pub fn test_accuracy(&self, predictions: &[usize]) -> f32 {
        accuracy_over(&self.labels, predictions, &self.test_idx)
    }

    /// Classification accuracy of `predictions` over the validation split.
    pub fn val_accuracy(&self, predictions: &[usize]) -> f32 {
        accuracy_over(&self.labels, predictions, &self.val_idx)
    }

    /// Keep the current val/test sets but resample the training set to
    /// `per_class` labeled nodes per class from outside val/test. Used by
    /// the label-scarcity sweeps (Figures 1 and 6), which hold evaluation
    /// sets fixed while varying the label budget.
    pub fn resample_train(&mut self, per_class: usize, rng: &mut Rng) {
        let mut excluded = vec![false; self.n()];
        for &i in self.val_idx.iter().chain(&self.test_idx) {
            excluded[i] = true;
        }
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); self.num_classes];
        for i in 0..self.n() {
            if !excluded[i] {
                by_class[self.labels[i]].push(i);
            }
        }
        let mut train = Vec::with_capacity(per_class * self.num_classes);
        for (c, pool) in by_class.iter_mut().enumerate() {
            assert!(
                pool.len() >= per_class,
                "class {c} has only {} candidates for {per_class} labels",
                pool.len()
            );
            rng.shuffle(pool);
            train.extend_from_slice(&pool[..per_class]);
        }
        train.sort_unstable();
        self.train_idx = train;
    }
}

/// Accuracy of `predictions` against `labels` restricted to `idx`.
pub fn accuracy_over(labels: &[usize], predictions: &[usize], idx: &[usize]) -> f32 {
    assert_eq!(
        labels.len(),
        predictions.len(),
        "prediction length mismatch"
    );
    if idx.is_empty() {
        return 0.0;
    }
    let correct = idx.iter().filter(|&&i| labels[i] == predictions[i]).count();
    correct as f32 / idx.len() as f32
}

/// The Planetoid split used throughout the paper: `per_class` labeled
/// training nodes per class, then `val` validation and `test` test nodes
/// drawn from the remaining pool.
pub fn planetoid_split(
    labels: &[usize],
    num_classes: usize,
    per_class: usize,
    val: usize,
    test: usize,
    rng: &mut Rng,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = labels.len();
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &c) in labels.iter().enumerate() {
        assert!(c < num_classes, "label {c} out of range");
        by_class[c].push(i);
    }
    let mut train = Vec::with_capacity(per_class * num_classes);
    let mut taken = vec![false; n];
    for (c, pool) in by_class.iter_mut().enumerate() {
        assert!(
            pool.len() >= per_class,
            "class {c} has {} nodes, needs {per_class}",
            pool.len()
        );
        rng.shuffle(pool);
        for &i in &pool[..per_class] {
            taken[i] = true;
            train.push(i);
        }
    }
    let mut rest: Vec<usize> = (0..n).filter(|&i| !taken[i]).collect();
    assert!(rest.len() >= val + test, "not enough nodes for val+test");
    rng.shuffle(&mut rest);
    let mut val_idx: Vec<usize> = rest[..val].to_vec();
    let mut test_idx: Vec<usize> = rest[val..val + test].to_vec();
    train.sort_unstable();
    val_idx.sort_unstable();
    test_idx.sort_unstable();
    (train, val_idx, test_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdd_tensor::seeded_rng;

    fn toy_dataset() -> Dataset {
        let n = 60;
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let graph = Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let features = CsrMatrix::identity(n);
        let mut rng = seeded_rng(3);
        let (train, val, test) = planetoid_split(&labels, 3, 4, 15, 15, &mut rng);
        Dataset {
            name: "toy".into(),
            graph,
            features,
            labels,
            num_classes: 3,
            train_idx: train,
            val_idx: val,
            test_idx: test,
        }
    }

    #[test]
    fn split_sizes_and_disjointness() {
        let d = toy_dataset();
        assert_eq!(d.train_idx.len(), 12);
        assert_eq!(d.val_idx.len(), 15);
        assert_eq!(d.test_idx.len(), 15);
        let mut seen = std::collections::HashSet::new();
        for &i in d.train_idx.iter().chain(&d.val_idx).chain(&d.test_idx) {
            assert!(seen.insert(i), "node {i} in two splits");
        }
    }

    #[test]
    fn split_is_class_balanced() {
        let d = toy_dataset();
        let mut per_class = [0usize; 3];
        for &i in &d.train_idx {
            per_class[d.labels[i]] += 1;
        }
        assert_eq!(per_class, [4, 4, 4]);
    }

    #[test]
    fn accuracy_is_fraction_correct() {
        let labels = vec![0, 1, 2, 0];
        let preds = vec![0, 1, 0, 1];
        let acc = accuracy_over(&labels, &preds, &[0, 1, 2, 3]);
        assert!((acc - 0.5).abs() < 1e-6);
        assert_eq!(accuracy_over(&labels, &preds, &[]), 0.0);
    }

    #[test]
    fn resample_train_respects_eval_sets() {
        let mut d = toy_dataset();
        let val: std::collections::HashSet<_> = d.val_idx.iter().copied().collect();
        let test: std::collections::HashSet<_> = d.test_idx.iter().copied().collect();
        let mut rng = seeded_rng(9);
        d.resample_train(6, &mut rng);
        assert_eq!(d.train_idx.len(), 18);
        for &i in &d.train_idx {
            assert!(!val.contains(&i) && !test.contains(&i));
        }
        // Eval sets untouched.
        assert_eq!(d.val_idx.len(), 15);
        assert_eq!(d.test_idx.len(), 15);
    }

    #[test]
    fn label_rate_matches() {
        let d = toy_dataset();
        assert!((d.label_rate() - 12.0 / 60.0).abs() < 1e-6);
    }
}
