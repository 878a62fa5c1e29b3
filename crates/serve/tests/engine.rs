//! End-to-end serving semantics: the full engine path over a real
//! artifact must hand back exactly the rows the offline ensemble (or
//! student) computes — bitwise, batched or not, cached or not — the pool
//! must answer every request as the engine does, and predictor failures
//! must surface as typed errors.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc;

use rdd_core::Ensemble;
use rdd_models::{PredictError, PredictRequest, Prediction, Predictor};
use rdd_serve::{
    write_ensemble_as, write_mlp_artifact, AnyArtifact, ArtifactFormat, ArtifactMeta, PoolConfig,
    ServeConfig, ServeEngine, ServeError, ServePool,
};
use rdd_tensor::{seeded_rng, Matrix};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rdd_serve_engine_{name}_{}", std::process::id()))
}

/// A small deterministic ensemble and its frozen artifact.
fn fixture(tag: &str) -> (Ensemble, AnyArtifact) {
    let n = 24;
    let k = 4;
    let mut ensemble = Ensemble::new();
    for t in 0..3usize {
        let data: Vec<f32> = (0..n * k)
            .map(|i| (((i * 37 + t * 101) % 29) as f32 / 7.0) - 2.0)
            .collect();
        let proba = Matrix::from_vec(n, k, data).softmax_rows();
        ensemble.push(proba, 0.5 + t as f32 * 0.3);
    }
    let path = tmp(tag);
    write_ensemble_as(&path, &ensemble, "fixture", "unit-test", ArtifactFormat::V1).expect("write");
    let artifact = AnyArtifact::load(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    (ensemble, artifact)
}

fn assert_row_bitwise(served: &[f32], offline: &[f32], what: &str) {
    assert_eq!(served.len(), offline.len(), "{what} width");
    for (a, b) in served.iter().zip(offline) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}");
    }
}

#[test]
fn served_rows_are_bitwise_equal_to_offline_ensemble_proba() {
    let (ensemble, artifact) = fixture("bitwise");
    let offline = ensemble.proba();
    let n = artifact.num_nodes();

    // Drive the engine through mixed single-node, multi-node, duplicate,
    // and whole-graph requests, twice (second pass hits the cache), and
    // compare every served row against the offline matrix.
    let cfg = ServeConfig {
        batch_size: 4,
        cache_capacity: n,
        queue_capacity: 64,
    };
    let mut engine = ServeEngine::new(&artifact, cfg, artifact.checksum()).unwrap();
    let requests: Vec<PredictRequest> = vec![
        PredictRequest::nodes(vec![0]),
        PredictRequest::nodes(vec![5, 5, 2]),
        PredictRequest::all(),
        PredictRequest::nodes(vec![n - 1, 0]),
        PredictRequest::nodes(vec![3]),
        PredictRequest::nodes(vec![7, 11, 13, 7]),
    ];
    for pass in 0..2 {
        let mut replies = Vec::new();
        for (i, nodes) in requests.iter().enumerate() {
            if let Some(batch) = engine.submit(i as u64, nodes.clone()).unwrap() {
                replies.extend(batch);
            }
        }
        replies.extend(engine.flush());
        assert_eq!(replies.len(), requests.len(), "pass {pass}");
        for reply in &replies {
            let p = reply.result.as_ref().expect("serve");
            let want = &requests[reply.id as usize];
            match want {
                PredictRequest::ByNodes(ids) => assert_eq!(&p.nodes, ids),
                _ => assert_eq!(p.nodes.len(), n),
            }
            for (r, &node) in p.nodes.iter().enumerate() {
                assert_row_bitwise(
                    p.proba.row(r),
                    offline.row(node),
                    &format!("pass {pass} request {} node {node}", reply.id),
                );
                assert_eq!(
                    p.pred[r],
                    offline
                        .row(node)
                        .iter()
                        .enumerate()
                        .fold((0usize, f32::MIN), |acc, (j, &v)| if v > acc.1 {
                            (j, v)
                        } else {
                            acc
                        },)
                        .0
                );
            }
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.requests, 2 * requests.len() as u64);
    assert!(
        stats.cache_hits > 0,
        "second pass must be served from the cache"
    );
}

#[test]
fn cache_off_still_matches_offline_bitwise() {
    let (ensemble, artifact) = fixture("uncached");
    let offline = ensemble.proba();
    let cfg = ServeConfig {
        batch_size: 1,
        cache_capacity: 0,
        queue_capacity: 8,
    };
    let mut engine = ServeEngine::new(&artifact, cfg, artifact.checksum()).unwrap();
    for node in [0usize, 9, 23, 9] {
        let replies = engine
            .submit(node as u64, PredictRequest::nodes(vec![node]))
            .unwrap()
            .expect("flush");
        let p = replies[0].result.as_ref().expect("serve");
        assert_row_bitwise(p.proba.row(0), offline.row(node), &format!("node {node}"));
    }
    assert_eq!(engine.stats().cache_hits, 0);
}

#[test]
fn empty_ensemble_is_a_typed_error_through_the_engine() {
    let empty = Ensemble::new();
    let mut engine =
        ServeEngine::new(&empty, ServeConfig::default(), 0).expect("engine over empty ensemble");
    // Whole-graph over an empty predictor: n = 0, so the request resolves
    // to zero nodes and succeeds vacuously...
    let replies = engine
        .submit(0, PredictRequest::all())
        .unwrap()
        .unwrap_or_default();
    let replies = if replies.is_empty() {
        engine.flush()
    } else {
        replies
    };
    assert!(
        replies[0].result.is_ok(),
        "empty node list serves trivially"
    );
    // ...but asking for any concrete node must fail with the typed error.
    engine.submit(1, PredictRequest::nodes(vec![0])).unwrap();
    let replies = engine.flush();
    match &replies[0].result {
        Err(ServeError::Predict(PredictError::NodeOutOfRange { num_nodes: 0, .. })) => {}
        other => panic!("expected NodeOutOfRange over empty ensemble, got {other:?}"),
    }
    // And the ensemble API itself reports emptiness as a typed error.
    assert_eq!(empty.try_proba().unwrap_err(), PredictError::EmptyEnsemble);
    assert_eq!(
        empty.try_predict().unwrap_err(),
        PredictError::EmptyEnsemble
    );
}

/// A random two-layer student over `in_dim` features, frozen as a v3 (mlp)
/// artifact and loaded back.
fn student(name: &str, in_dim: usize, k: usize, quantize: bool) -> AnyArtifact {
    let mut rng = seeded_rng(0xC0DE ^ in_dim as u64);
    let meta = ArtifactMeta {
        dataset_name: "fixture".into(),
        dataset_n: 24,
        num_classes: k,
        source: "unit-test".into(),
        members: 2,
        alphas: vec![1.25, 0.75],
        alpha_total: 2.0,
    };
    let params = vec![
        Matrix::from_fn(in_dim, 32, |_, _| rng.range_f32(-1.0..1.0)),
        Matrix::from_fn(32, k, |_, _| rng.range_f32(-1.0..1.0)),
    ];
    let path = tmp(name);
    write_mlp_artifact(&path, &meta, &params, quantize).expect("write student");
    let artifact = AnyArtifact::load(&path).expect("load student");
    let _ = std::fs::remove_file(&path);
    artifact
}

/// Feature rows stacked into one flush must come back bitwise equal to the
/// same rows served one request per flush, for f32 and int8 students. The
/// pool's batches grow and shrink with arrivals, so no row may depend on
/// the rows it was stacked with.
#[test]
fn stacked_feature_rows_equal_rows_served_one_per_flush_bitwise() {
    const IN_DIM: usize = 37;
    for quantize in [false, true] {
        let student = student(&format!("stacked_{quantize}"), IN_DIM, 7, quantize);
        let mut rng = seeded_rng(3);
        let requests: Vec<Matrix> = (0..24)
            .map(|i| Matrix::from_fn(1 + i % 3, IN_DIM, |_, _| rng.range_f32(-2.0..2.0)))
            .collect();
        let serve = |batch_size: usize| {
            let cfg = ServeConfig {
                batch_size,
                cache_capacity: 0,
                queue_capacity: requests.len(),
            };
            let mut engine = ServeEngine::new(&student, cfg, student.checksum()).unwrap();
            let mut replies = Vec::new();
            for (id, rows) in requests.iter().enumerate() {
                let flushed = engine
                    .submit(id as u64, PredictRequest::features(rows.clone()))
                    .unwrap();
                replies.extend(flushed.into_iter().flatten());
            }
            assert_eq!(engine.stats().batches, (requests.len() / batch_size) as u64);
            replies
        };
        let stacked = serve(requests.len());
        let alone = serve(1);
        assert_eq!(stacked.len(), requests.len());
        for (s, a) in stacked.iter().zip(&alone) {
            let what = format!("quantize {quantize}, request {}", s.id);
            assert_eq!(s.id, a.id, "{what}");
            let (s, a) = (s.result.as_ref().unwrap(), a.result.as_ref().unwrap());
            assert_eq!(s.pred, a.pred, "{what}");
            assert_row_bitwise(s.proba.as_slice(), a.proba.as_slice(), &what);
        }
    }
}

/// Node requests (single, multi-node with duplicates, whole graph, out of
/// range) interleaved with 1- and 3-row feature requests of `in_dim`
/// values.
fn mixed_stream(n: usize, in_dim: usize) -> Vec<PredictRequest> {
    let mut rng = seeded_rng(11);
    (0..120)
        .map(|i| match i % 6 {
            0 => PredictRequest::nodes(vec![i % n]),
            1 => PredictRequest::features(Matrix::from_fn(1, in_dim, |_, _| {
                rng.range_f32(-2.0..2.0)
            })),
            2 => PredictRequest::nodes(vec![(i * 5) % n, (i * 3) % n, (i * 5) % n]),
            3 => PredictRequest::features(Matrix::from_fn(3, in_dim, |_, _| {
                rng.range_f32(-2.0..2.0)
            })),
            4 if i % 24 == 4 => PredictRequest::all(),
            4 => PredictRequest::nodes(vec![n + i]),
            _ => PredictRequest::nodes(vec![(i * 7) % n]),
        })
        .collect()
}

/// Assert two runs of one stream answered every id alike: equal kinds,
/// nodes and labels, bitwise-equal rows, and equal error messages.
fn assert_same_replies(
    what: &str,
    got: &HashMap<u64, Result<Prediction, ServeError>>,
    want: &HashMap<u64, Result<Prediction, ServeError>>,
) {
    assert_eq!(got.len(), want.len(), "{what}: reply count");
    for (id, got) in got {
        let what = format!("{what}, id {id}");
        match (got, &want[id]) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.kind, want.kind, "{what}");
                assert_eq!(got.nodes, want.nodes, "{what}");
                assert_eq!(got.pred, want.pred, "{what}");
                assert_row_bitwise(got.proba.as_slice(), want.proba.as_slice(), &what);
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{what}"),
            (got, want) => panic!("{what}: {got:?}, expected {want:?}"),
        }
    }
}

/// The same stream through the pool at 1 and 2 workers and through the
/// thread-free `ServeEngine` at batch sizes 8 and 1 must get the same reply
/// per id, bitwise: batch composition differs between them, so no reply
/// may depend on it. Both artifact kinds see both request kinds (each
/// refuses one).
#[test]
fn pool_replies_equal_the_engine_bitwise_for_mixed_streams() {
    const IN_DIM: usize = 6;
    let (_, v1) = fixture("vs_pool");
    let artifacts = [
        ("v1", v1),
        ("v3", student("vs_pool_v3", IN_DIM, 4, false)),
        ("v3 int8", student("vs_pool_v3q", IN_DIM, 4, true)),
    ];
    let serve = |batch_size| ServeConfig {
        batch_size,
        cache_capacity: 16,
        queue_capacity: 256,
    };
    for (name, artifact) in &artifacts {
        let stream = mixed_stream(artifact.num_nodes(), IN_DIM);
        let engine_replies = |batch_size| {
            let mut engine =
                ServeEngine::new(artifact, serve(batch_size), artifact.checksum()).unwrap();
            let mut replies = Vec::new();
            for (id, req) in stream.iter().enumerate() {
                let flushed = engine.submit(id as u64, req.clone()).expect("engine queue");
                replies.extend(flushed.into_iter().flatten());
            }
            replies.extend(engine.flush());
            replies.into_iter().map(|r| (r.id, r.result)).collect()
        };
        let expected: HashMap<u64, _> = engine_replies(1);
        assert_eq!(expected.len(), stream.len());
        assert_same_replies(&format!("{name}, engine"), &engine_replies(8), &expected);

        for workers in [1, 2] {
            let cfg = PoolConfig {
                serve: serve(8),
                workers,
                ..PoolConfig::default()
            };
            let (tx, rx) = mpsc::channel();
            let pool =
                ServePool::new(artifact.clone(), cfg, artifact.checksum(), tx).expect("pool");
            for (id, req) in stream.iter().enumerate() {
                pool.submit(id as u64, req.clone()).expect("pool queue");
            }
            pool.shutdown();
            let replies = rx.into_iter().map(|r| (r.id, r.result)).collect();
            assert_same_replies(&format!("{name}, {workers} workers"), &replies, &expected);
        }
    }
}
