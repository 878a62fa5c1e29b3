//! Property-based invariants of the reliability algorithms and the
//! ensemble weighting, under randomized teacher/student outputs.
//!
//! Each property runs `CASES` cases; case `seed` draws its inputs from
//! `seeded_rng(seed)`, and every assertion message names the seed.

use rdd_core::{compute_reliability, cosine_gamma, model_weight, Ensemble, ReliabilityWorkspace};
use rdd_graph::Graph;
use rdd_tensor::{seeded_rng, Matrix, Rng};

const CASES: u64 = 48;

/// An `n x k` row-stochastic matrix (softmax of logits in [-3, 3)).
fn proba(rng: &mut Rng, n: usize, k: usize) -> Matrix {
    let v: Vec<f32> = (0..n * k).map(|_| rng.range_f32(-3.0..3.0)).collect();
    Matrix::from_vec(n, k, v).softmax_rows()
}

fn ring(n: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edges(n, &edges)
}

#[test]
fn reliability_invariants() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let teacher = proba(&mut rng, 12, 3);
        let student = proba(&mut rng, 12, 3);
        let p = rng.range_f32(0.05..1.0);
        let label_seed = rng.range(0..100);
        let n = 12;
        let graph = ring(n);
        let labels: Vec<usize> = (0..n).map(|i| (i + label_seed) % 3).collect();
        let mut is_labeled = vec![false; n];
        for i in (0..n).step_by(3) {
            is_labeled[i] = true;
        }
        let sets = compute_reliability(&teacher, &student, &labels, &is_labeled, p, &graph);

        // V_b ⊆ V_r, sorted, unique.
        let mut prev = None;
        for &i in &sets.distill {
            assert!(sets.reliable[i], "seed {seed}: V_b not subset of V_r");
            if let Some(p) = prev {
                assert!(i > p, "seed {seed}: V_b not strictly sorted");
            }
            prev = Some(i);
        }

        // E_r ⊆ E with reliable, same-student-class endpoints.
        let student_pred = student.argmax_rows();
        for &(a, b) in &sets.edges {
            let (a, b) = (a as usize, b as usize);
            assert!(graph.has_edge(a, b), "seed {seed}: ({a},{b}) not in E");
            assert!(
                sets.reliable[a] && sets.reliable[b],
                "seed {seed}: ({a},{b}) has an unreliable endpoint"
            );
            assert_eq!(student_pred[a], student_pred[b], "seed {seed}: ({a},{b})");
        }

        // Labeled-node reliability depends only on teacher correctness.
        let teacher_pred = teacher.argmax_rows();
        for i in (0..n).step_by(3) {
            assert_eq!(
                sets.reliable[i],
                teacher_pred[i] == labels[i],
                "seed {seed}: labeled node {i} reliability mismatch"
            );
        }
    }
}

#[test]
fn reliability_monotone_in_p() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let teacher = proba(&mut rng, 15, 3);
        let student = proba(&mut rng, 15, 3);
        // A larger p can only admit more unlabeled nodes into V_r.
        let n = 15;
        let graph = ring(n);
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let is_labeled = vec![false; n];
        let small = compute_reliability(&teacher, &student, &labels, &is_labeled, 0.2, &graph);
        let large = compute_reliability(&teacher, &student, &labels, &is_labeled, 0.9, &graph);
        for i in 0..n {
            if small.reliable[i] {
                assert!(
                    large.reliable[i],
                    "seed {seed}: raising p removed node {i} from V_r"
                );
            }
        }
        assert!(
            large.num_reliable() >= small.num_reliable(),
            "seed {seed}: |V_r| shrank as p grew"
        );
    }
}

#[test]
fn reliability_workspace_reuse_matches_fresh_compute() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let teacher = proba(&mut rng, 12, 3);
        let s1 = proba(&mut rng, 12, 3);
        let s2 = proba(&mut rng, 12, 3);
        let p = rng.range_f32(0.05..1.0);
        // The epoch-persistent workspace (fixed teacher, varying student,
        // buffers reused in place) must track compute_reliability exactly —
        // including when an earlier student's sets were larger.
        let n = 12;
        let graph = ring(n);
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let mut is_labeled = vec![false; n];
        for i in (0..n).step_by(4) {
            is_labeled[i] = true;
        }
        let mut ws = ReliabilityWorkspace::new();
        for student in [&s1, &s2, &s1] {
            ws.compute(&teacher, student, &labels, &is_labeled, p, &graph);
            let fresh = compute_reliability(&teacher, student, &labels, &is_labeled, p, &graph);
            let reused = ws.to_sets();
            assert_eq!(reused.reliable, fresh.reliable, "seed {seed}: V_r");
            assert_eq!(reused.distill, fresh.distill, "seed {seed}: V_b");
            assert_eq!(reused.edges, fresh.edges, "seed {seed}: E_r");
            assert_eq!(
                reused.teacher_entropy_threshold.to_bits(),
                fresh.teacher_entropy_threshold.to_bits(),
                "seed {seed}: teacher threshold"
            );
            assert_eq!(
                reused.student_entropy_threshold.to_bits(),
                fresh.student_entropy_threshold.to_bits(),
                "seed {seed}: student threshold"
            );
        }
    }
}

#[test]
fn model_weight_positive_and_antitone_in_entropy() {
    for seed in 0..CASES {
        let pr_seed = seeded_rng(seed).range(0..50) as u64;
        // Sharpening every row of a distribution must not lower the weight.
        let mut rng = seeded_rng(pr_seed);
        let base = rdd_tensor::uniform(10, 4, 2.0, &mut rng).softmax_rows();
        let sharp = base.map(|v| v.powf(2.0));
        // Renormalize the sharpened rows.
        let mut sharp = sharp;
        for i in 0..sharp.rows() {
            let s: f32 = sharp.row(i).iter().sum();
            for v in sharp.row_mut(i) {
                *v /= s;
            }
        }
        let pagerank = vec![0.1f32; 10];
        let w_base = model_weight(&base, &pagerank);
        let w_sharp = model_weight(&sharp, &pagerank);
        assert!(
            w_base > 0.0 && w_base.is_finite(),
            "seed {seed}: weight {w_base}"
        );
        assert!(
            w_sharp >= w_base,
            "seed {seed}: sharper predictions lowered the weight"
        );
    }
}

#[test]
fn ensemble_proba_rows_stochastic() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let a = proba(&mut rng, 6, 3);
        let b = proba(&mut rng, 6, 3);
        let wa = rng.range_f32(0.1..10.0);
        let wb = rng.range_f32(0.1..10.0);
        let mut e = Ensemble::new();
        e.push(a, wa);
        e.push(b, wb);
        let p = e.proba();
        for i in 0..6 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "seed {seed}: row {i} sums to {s}");
            assert!(
                p.row(i).iter().all(|&x| x >= 0.0),
                "seed {seed}: negative entry in row {i}"
            );
        }
    }
}

#[test]
fn cosine_gamma_bounded_and_monotone() {
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let gi = rng.range_f32(0.0..5.0);
        let total = rng.range(1..500);
        let mut prev = -1.0f32;
        for e in 0..=total {
            let g = cosine_gamma(gi, e, total);
            assert!(
                g >= -1e-6 && g <= 2.0 * gi + 1e-4,
                "seed {seed}: gamma {g} out of range"
            );
            assert!(g >= prev - 1e-5, "seed {seed}: gamma not monotone");
            prev = g;
        }
        // Past the horizon it clamps.
        let clamped = cosine_gamma(gi, total * 2, total);
        assert!(
            (clamped - 2.0 * gi).abs() < 1e-4,
            "seed {seed}: clamped gamma {clamped}"
        );
    }
}
