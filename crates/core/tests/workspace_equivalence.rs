//! The buffer pool must be invisible to the numerics: a full RDD run with
//! pooling on and with pooling off must produce bitwise-identical
//! predictions; and the epoch-persistent
//! [`ReliabilityWorkspace`] must reproduce `compute_reliability` exactly
//! while reusing its buffers across calls.

use rdd_core::{compute_reliability, RddConfig, RddTrainer, ReliabilityWorkspace};
use rdd_graph::{Graph, SynthConfig};
use rdd_tensor::{seeded_rng, uniform, Workspace};

#[test]
fn pooled_and_unpooled_rdd_runs_are_bitwise_identical() {
    let data = SynthConfig::tiny().generate();
    let trainer = RddTrainer::new(RddConfig::fast());

    let pooled = trainer.run_with_workspace(&data, &Workspace::with_pooling(true));
    let unpooled = trainer.run_with_workspace(&data, &Workspace::with_pooling(false));

    assert_eq!(pooled.ensemble_pred, unpooled.ensemble_pred);
    assert_eq!(pooled.single_pred, unpooled.single_pred);
    assert_eq!(
        pooled.ensemble_test_acc.to_bits(),
        unpooled.ensemble_test_acc.to_bits()
    );
    assert_eq!(pooled.base_models.len(), unpooled.base_models.len());
    for (a, b) in pooled.base_models.iter().zip(&unpooled.base_models) {
        assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha diverged");
        assert_eq!(
            a.report.final_train_loss.to_bits(),
            b.report.final_train_loss.to_bits(),
            "training loss diverged"
        );
        assert_eq!(a.report.epochs_run, b.report.epochs_run);
    }

    // A second pooled run must not be perturbed by the warm pool left
    // behind by the first (recycled buffers carry no stale state).
    let warm = Workspace::with_pooling(true);
    let first = trainer.run_with_workspace(&data, &warm);
    let second = trainer.run_with_workspace(&data, &warm);
    assert_eq!(first.ensemble_pred, second.ensemble_pred);
    assert_eq!(
        first.ensemble_test_acc.to_bits(),
        second.ensemble_test_acc.to_bits()
    );
    let stats = warm.stats();
    assert!(stats.hits > 0, "pooled runs never reused a buffer");
}

/// A small graph with both ring structure and chords so the edge filter has
/// real work to do.
fn chorded_ring(n: usize) -> Graph {
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for i in 0..n / 2 {
        edges.push((i, i + n / 2));
    }
    Graph::from_edges(n, &edges)
}

#[test]
fn reliability_workspace_matches_compute_reliability() {
    let n = 40;
    let k = 4;
    let graph = chorded_ring(n);
    let labels: Vec<usize> = (0..n).map(|i| (i * 7) % k).collect();
    let mut is_labeled = vec![false; n];
    for i in (0..n).step_by(3) {
        is_labeled[i] = true;
    }
    let mut rng = seeded_rng(11);
    let p = 0.4;

    // One frozen teacher, many student refreshes — the hook's access
    // pattern. Every refresh must agree with a from-scratch computation.
    let teacher = uniform(n, k, 2.0, &mut rng).softmax_rows();
    let mut ws = ReliabilityWorkspace::new();
    for epoch in 0..6 {
        let student = uniform(n, k, 2.0, &mut rng).softmax_rows();
        ws.compute(&teacher, &student, &labels, &is_labeled, p, &graph);
        let fresh = compute_reliability(&teacher, &student, &labels, &is_labeled, p, &graph);
        let reused = ws.to_sets();
        assert_eq!(reused.reliable, fresh.reliable, "epoch {epoch}: V_r");
        assert_eq!(reused.distill, fresh.distill, "epoch {epoch}: V_b");
        assert_eq!(reused.edges, fresh.edges, "epoch {epoch}: E_r");
        assert_eq!(
            reused.teacher_entropy_threshold.to_bits(),
            fresh.teacher_entropy_threshold.to_bits()
        );
        assert_eq!(
            reused.student_entropy_threshold.to_bits(),
            fresh.student_entropy_threshold.to_bits()
        );
        assert_eq!(ws.num_reliable(), fresh.num_reliable());
        assert_eq!(ws.student_pred(), student.argmax_rows().as_slice());
    }

    // Teacher swap: after reset_teacher the workspace must track the new
    // teacher, not the cached one.
    let teacher2 = uniform(n, k, 2.0, &mut rng).softmax_rows();
    let student = uniform(n, k, 2.0, &mut rng).softmax_rows();
    ws.reset_teacher();
    ws.compute(&teacher2, &student, &labels, &is_labeled, p, &graph);
    let fresh = compute_reliability(&teacher2, &student, &labels, &is_labeled, p, &graph);
    assert_eq!(ws.to_sets().reliable, fresh.reliable);
    assert_eq!(ws.to_sets().distill, fresh.distill);
    assert_eq!(ws.to_sets().edges, fresh.edges);

    // The weigh_edges refill maps 1:1 over the current edge list.
    ws.weigh_edges(|(a, b)| (a + b) as f32);
    let edges = ws.edges();
    let weights = ws.edge_weights();
    assert_eq!(edges.len(), weights.len());
    for (e, w) in edges.iter().zip(weights.iter()) {
        assert_eq!((e.0 + e.1) as f32, *w);
    }
}
