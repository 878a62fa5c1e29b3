//! Multi-threaded serving semantics: a [`ServePool`] hammered by
//! concurrent clients must answer every request exactly once with rows
//! bitwise identical to the offline ensemble, keep generations straight
//! across a mid-stream hot swap (including cache-epoch isolation), and
//! shed expired requests as typed errors.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rdd_core::Ensemble;
use rdd_models::PredictRequest;
use rdd_serve::{
    AnyArtifact, ArtifactFormat, PoolConfig, ServeConfig, ServeError, ServePool, ServeReply,
};
use rdd_tensor::Matrix;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rdd_serve_pool_{name}_{}", std::process::id()))
}

/// A small deterministic ensemble and its frozen artifact. `tag` seeds the
/// logits so different tags produce different (distinguishable) artifacts.
fn fixture(name: &str, tag: usize) -> (Ensemble, AnyArtifact) {
    let n = 24;
    let k = 4;
    let mut ensemble = Ensemble::new();
    for t in 0..3usize {
        let data: Vec<f32> = (0..n * k)
            .map(|i| (((i * 37 + t * 101 + tag * 53) % 29) as f32 / 7.0) - 2.0)
            .collect();
        let proba = Matrix::from_vec(n, k, data).softmax_rows();
        ensemble.push(proba, 0.5 + t as f32 * 0.3);
    }
    let path = tmp(name);
    rdd_serve::write_ensemble_as(&path, &ensemble, "fixture", "pool-test", ArtifactFormat::V1)
        .expect("write");
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

/// N workers × M client threads: every request answered exactly once, no
/// duplicates, every row bitwise equal to the offline ensemble.
#[test]
fn hammer_answers_every_request_exactly_once_bitwise() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 100;
    let (ensemble, artifact) = fixture("hammer", 0);
    let offline = ensemble.proba();
    let n = offline.rows();

    let cfg = PoolConfig {
        serve: ServeConfig {
            batch_size: 8,
            cache_capacity: n,
            queue_capacity: CLIENTS * PER_CLIENT,
        },
        workers: 4,
        ..PoolConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let pool = Arc::new(ServePool::new(artifact, cfg, 1, tx).expect("pool"));

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let id = (c * PER_CLIENT + i) as u64;
                    let node = (c * 7 + i * 13) % n;
                    pool.submit(id, PredictRequest::nodes(vec![node]))
                        .expect("submit");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client");
    }

    let mut seen: HashMap<u64, ServeReply> = HashMap::new();
    for _ in 0..CLIENTS * PER_CLIENT {
        let reply = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("reply before timeout");
        assert!(seen.insert(reply.id, reply).is_none(), "duplicate reply id");
    }
    for (id, reply) in &seen {
        let c = (*id as usize) / PER_CLIENT;
        let i = (*id as usize) % PER_CLIENT;
        let node = (c * 7 + i * 13) % n;
        let p = reply.result.as_ref().expect("serve");
        assert_eq!(p.nodes, vec![node]);
        assert_row_bitwise(p.proba.row(0), offline.row(node), &format!("id {id}"));
    }
    let pool = Arc::into_inner(pool).expect("sole owner");
    let report = pool.shutdown();
    assert_eq!(report.stats.requests, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(report.stats.shed, 0);
    assert_eq!(report.stats.expired, 0);
    assert_eq!(
        report.workers.iter().map(|w| w.requests).sum::<u64>(),
        (CLIENTS * PER_CLIENT) as u64
    );
}

/// Hot swap mid-stream: rows served before the swap match artifact A
/// bitwise, rows after match artifact B — including re-requested nodes
/// that were cached under A's epoch (stale cache rows must not leak
/// across the swap).
#[test]
fn mid_stream_swap_isolates_generations_and_cache_epochs() {
    let (ensemble_a, artifact_a) = fixture("swap_a", 1);
    let (ensemble_b, artifact_b) = fixture("swap_b", 2);
    let offline_a = ensemble_a.proba();
    let offline_b = ensemble_b.proba();
    let n = offline_a.rows();
    // The two fixtures must actually disagree for the test to mean anything.
    assert!(
        (0..n).any(|i| offline_a.row(i)[0].to_bits() != offline_b.row(i)[0].to_bits()),
        "fixtures must differ"
    );

    let checksum_a = artifact_a.checksum();
    let checksum_b = artifact_b.checksum();
    let cfg = PoolConfig {
        serve: ServeConfig {
            batch_size: 4,
            cache_capacity: n,
            queue_capacity: 256,
        },
        workers: 3,
        ..PoolConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let pool = ServePool::new(artifact_a, cfg, checksum_a, tx).expect("pool");

    // Wave 1: every node twice, so the cache is warm under A's epoch.
    let wave = 2 * n;
    for i in 0..wave {
        pool.submit(i as u64, PredictRequest::nodes(vec![i % n]))
            .expect("submit");
    }
    let mut replies_a = Vec::new();
    for _ in 0..wave {
        replies_a.push(rx.recv_timeout(Duration::from_secs(30)).expect("wave 1"));
    }
    // All wave-1 replies drained before the swap, so every one is gen 0.
    for reply in &replies_a {
        assert_eq!(reply.generation, 0, "pre-swap generation");
        let p = reply.result.as_ref().expect("serve");
        let node = (reply.id as usize) % n;
        assert_row_bitwise(p.proba.row(0), offline_a.row(node), "generation 0 row");
    }

    let generation = pool.swap(artifact_b, checksum_b);
    assert_eq!(generation, 1);
    assert_eq!(pool.generation(), 1);

    // Wave 2: the same nodes again. Workers refresh their generation before
    // every batch, so each reply must carry gen 1 and B's rows — a stale
    // A-epoch cache row would fail the bitwise check.
    for i in 0..wave {
        pool.submit((wave + i) as u64, PredictRequest::nodes(vec![i % n]))
            .expect("submit");
    }
    for _ in 0..wave {
        let reply = rx.recv_timeout(Duration::from_secs(30)).expect("wave 2");
        assert_eq!(reply.generation, 1, "post-swap generation");
        let p = reply.result.as_ref().expect("serve");
        let node = (reply.id as usize - wave) % n;
        assert_row_bitwise(p.proba.row(0), offline_b.row(node), "generation 1 row");
    }

    let report = pool.shutdown();
    assert_eq!(report.stats.requests, 2 * wave as u64);
    assert_eq!(report.stats.shed + report.stats.expired, 0, "zero drops");
}

/// Requests whose deadline passes before dispatch come back as typed
/// `Expired` errors and are counted apart from queue-full sheds, while
/// live requests, future deadlines included, still serve.
#[test]
fn expired_requests_shed_typed_and_counted() {
    let (ensemble, artifact) = fixture("deadline", 3);
    let offline = ensemble.proba();
    let cfg = PoolConfig {
        serve: ServeConfig {
            batch_size: 4,
            cache_capacity: 0,
            queue_capacity: 16,
        },
        workers: 2,
        ..PoolConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let pool = ServePool::new(artifact, cfg, 1, tx).expect("pool");

    // A deadline already in the past must be shed no matter how fast the
    // worker dispatches it.
    pool.submit_with_deadline(0, PredictRequest::nodes(vec![1]), Some(Instant::now()))
        .expect("admitted");
    pool.submit(1, PredictRequest::nodes(vec![2]))
        .expect("submit");
    let later = Instant::now() + Duration::from_secs(60);
    pool.submit_with_deadline(2, PredictRequest::nodes(vec![3]), Some(later))
        .expect("admitted");

    let mut expired = 0;
    let mut served = 0;
    for _ in 0..3 {
        let reply = rx.recv_timeout(Duration::from_secs(30)).expect("reply");
        match (&reply.id, &reply.result) {
            (0, Err(ServeError::Expired { waited_ms })) => {
                assert!(*waited_ms >= 0.0);
                expired += 1;
            }
            (id @ (1 | 2), Ok(p)) => {
                let node = *id as usize + 1;
                assert_row_bitwise(p.proba.row(0), offline.row(node), "live request");
                assert_eq!(reply.generation, 0, "no swap ever happened");
                served += 1;
            }
            (id, other) => panic!("unexpected reply id {id}: {other:?}"),
        }
    }
    assert_eq!((expired, served), (1, 2));
    assert_eq!(pool.stats().shed, 0, "expired is not queue-full shed");
    let m = pool.metrics();
    assert_eq!(m.shed_expired, 1);
    assert_eq!(m.shed, 0);
    assert_eq!(m.requests, 2, "shed request is not a served request");
    let report = pool.shutdown();
    assert_eq!(report.stats.expired, 1);
    assert_eq!(report.stats.requests, 3);
}
