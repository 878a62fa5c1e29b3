//! Serve-path chaos: with faults injected into the worker loop and the
//! batch kernel, a [`ServePool`] must still answer every request exactly
//! once — success or typed error, never a silent drop or a hang — and
//! rows served after the fault clears must stay bitwise identical to the
//! offline ensemble. The swap-failure test corrupts a watched artifact
//! mid-stream and checks the old generation keeps serving until a good
//! replacement lands.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use rdd_core::Ensemble;
use rdd_models::PredictRequest;
use rdd_serve::{
    AnyArtifact, ArtifactFormat, ArtifactWatcher, PoolConfig, ServeConfig, ServeError, ServePool,
    ServeReply, WatchOutcome,
};
use rdd_tensor::Matrix;

/// Injected faults are process-global; tests that arm one (or run a pool
/// whose workers pass fault sites) serialize here so a fault armed by one
/// test can't fire inside another.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rdd_serve_chaos_{name}_{}", std::process::id()))
}

/// A small deterministic ensemble and its frozen artifact, left on disk at
/// the returned path. `tag` perturbs the logits so different tags produce
/// bitwise-distinguishable artifacts.
fn fixture(name: &str, tag: usize) -> (Ensemble, AnyArtifact, PathBuf) {
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
    rdd_serve::write_ensemble_as(
        &path,
        &ensemble,
        "fixture",
        "chaos-test",
        ArtifactFormat::V1,
    )
    .expect("write");
    let artifact = AnyArtifact::load(&path).expect("load");
    (ensemble, artifact, path)
}

fn assert_row_bitwise(served: &[f32], offline: &[f32], what: &str) {
    assert_eq!(served.len(), offline.len(), "{what} width");
    for (a, b) in served.iter().zip(offline) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}");
    }
}

/// Drain exactly `expect` replies with a hard wall-clock bound per reply:
/// a supervised pool must never hang, even mid-panic.
fn drain(rx: &mpsc::Receiver<ServeReply>, expect: usize) -> HashMap<u64, ServeReply> {
    let mut seen = HashMap::new();
    for _ in 0..expect {
        let reply = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("reply within wall-clock bound (no hangs under fault)");
        assert!(seen.insert(reply.id, reply).is_none(), "duplicate reply id");
    }
    // Nothing extra in flight: exactly one reply per request.
    assert!(
        rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "more replies than requests"
    );
    seen
}

/// `panic@serve_worker` mid-stream: both panics land inside the retry
/// budget, so every request is answered `Ok` with rows bitwise equal to
/// the offline ensemble, and the pool reports the panics and respawns.
#[test]
fn worker_panics_requeue_and_every_request_is_answered_bitwise() {
    let _guard = lock();
    let (ensemble, artifact, path) = fixture("worker_panic", 0);
    let _ = std::fs::remove_file(&path);
    let offline = ensemble.proba();
    let n = offline.rows();

    rdd_obs::fault::arm("panic@serve_worker:1x2").expect("arm");
    let cfg = PoolConfig {
        serve: ServeConfig {
            batch_size: 4,
            cache_capacity: 0,
            queue_capacity: 256,
        },
        workers: 2,
        ..PoolConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let pool = ServePool::new(artifact, cfg, 1, tx).expect("pool");
    const REQUESTS: usize = 60;
    for i in 0..REQUESTS {
        pool.submit(i as u64, PredictRequest::nodes(vec![i % n]))
            .expect("submit");
    }
    let seen = drain(&rx, REQUESTS);
    rdd_obs::fault::disarm();

    for (id, reply) in &seen {
        let p = reply.result.as_ref().expect("inside retry budget");
        assert_row_bitwise(
            p.proba.row(0),
            offline.row(*id as usize % n),
            &format!("id {id}"),
        );
    }
    let report = pool.shutdown();
    let panics: u64 = report.workers.iter().map(|w| w.panics).sum();
    let respawns: u64 = report.workers.iter().map(|w| w.respawns).sum();
    assert!(panics >= 1, "injected panic must be recorded");
    assert!(respawns >= 1, "panicked worker must be respawned");
    assert_eq!(report.stats.failed, 0, "no request burned its budget");
}

/// `panic@serve_batch` (inside the batch kernel itself) is supervised the
/// same way: the claimed batch is requeued and re-served bitwise.
#[test]
fn batch_kernel_panic_is_supervised_and_requeued() {
    let _guard = lock();
    let (ensemble, artifact, path) = fixture("batch_panic", 1);
    let _ = std::fs::remove_file(&path);
    let offline = ensemble.proba();
    let n = offline.rows();

    rdd_obs::fault::arm("panic@serve_batch:2").expect("arm");
    let cfg = PoolConfig {
        serve: ServeConfig {
            batch_size: 4,
            cache_capacity: 0,
            queue_capacity: 256,
        },
        workers: 2,
        ..PoolConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let pool = ServePool::new(artifact, cfg, 1, tx).expect("pool");
    const REQUESTS: usize = 40;
    for i in 0..REQUESTS {
        pool.submit(i as u64, PredictRequest::nodes(vec![i % n]))
            .expect("submit");
    }
    let seen = drain(&rx, REQUESTS);
    rdd_obs::fault::disarm();

    for (id, reply) in &seen {
        let p = reply.result.as_ref().expect("inside retry budget");
        assert_row_bitwise(
            p.proba.row(0),
            offline.row(*id as usize % n),
            &format!("id {id}"),
        );
    }
    let report = pool.shutdown();
    assert!(
        report.workers.iter().map(|w| w.panics).sum::<u64>() >= 1,
        "kernel panic must be recorded"
    );
    assert_eq!(report.stats.failed, 0);
}

/// A fault that outlives the retry budget must surface as a typed
/// `WorkerFailed` reply for every claimed request — never a silent drop,
/// never a hang.
#[test]
fn fault_outliving_retry_budget_is_a_typed_error_not_a_hang() {
    let _guard = lock();
    let (_ensemble, artifact, path) = fixture("spent_budget", 2);
    let _ = std::fs::remove_file(&path);

    rdd_obs::fault::arm("panic@serve_worker:0x64").expect("arm");
    let cfg = PoolConfig {
        serve: ServeConfig {
            batch_size: 2,
            cache_capacity: 0,
            queue_capacity: 64,
        },
        workers: 1,
        retry_budget: 1,
        ..PoolConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let pool = ServePool::new(artifact, cfg, 1, tx).expect("pool");
    const REQUESTS: usize = 6;
    for i in 0..REQUESTS {
        pool.submit(i as u64, PredictRequest::nodes(vec![i]))
            .expect("submit");
    }
    let seen = drain(&rx, REQUESTS);
    rdd_obs::fault::disarm();

    for (id, reply) in &seen {
        match &reply.result {
            Err(ServeError::WorkerFailed { retries }) => {
                assert_eq!(*retries, 1, "id {id} spent exactly the budget")
            }
            other => panic!("id {id}: expected WorkerFailed, got {other:?}"),
        }
    }
    let report = pool.shutdown();
    assert_eq!(report.stats.failed, REQUESTS as u64);
}

/// Satellite (d): corrupt the watched artifact mid-stream. The watcher
/// reports the failure with backoff, the pool keeps serving the old
/// generation bitwise, and a subsequent good artifact still swaps in.
#[test]
fn corrupt_watched_artifact_keeps_old_generation_until_good_replacement() {
    let _guard = lock();
    let (ensemble_a, artifact_a, path) = fixture("swap_rollback", 3);
    let offline_a = ensemble_a.proba();
    let n = offline_a.rows();
    let checksum_a = artifact_a.checksum();

    let cfg = PoolConfig {
        serve: ServeConfig {
            batch_size: 4,
            cache_capacity: n,
            queue_capacity: 256,
        },
        workers: 2,
        ..PoolConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let pool = ServePool::new(artifact_a, cfg, checksum_a, tx).expect("pool");
    let mut watcher = ArtifactWatcher::with_intervals(
        &path,
        checksum_a,
        Duration::from_millis(1),
        Duration::from_millis(8),
    );

    // Corrupt the watched file in place (mtime moves, content is garbage).
    std::thread::sleep(Duration::from_millis(20));
    std::fs::write(&path, "not an artifact\n").expect("corrupt");
    match watcher.poll(Instant::now()) {
        WatchOutcome::Failed {
            error,
            failures,
            backoff_ms,
        } => {
            assert!(!error.to_string().is_empty());
            assert_eq!(failures, 1);
            assert!(backoff_ms >= 1);
        }
        other => panic!("expected Failed on corrupt artifact, got {other:?}"),
    }

    // Rollback semantics: the live generation is untouched and still
    // serves bitwise-identical rows.
    for i in 0..n {
        pool.submit(i as u64, PredictRequest::nodes(vec![i]))
            .expect("submit");
    }
    for (id, reply) in drain(&rx, n) {
        assert_eq!(reply.generation, 0, "corrupt load must not bump generation");
        let p = reply.result.as_ref().expect("serve");
        assert_row_bitwise(p.proba.row(0), offline_a.row(id as usize), "old generation");
    }

    // A good replacement written afterwards still swaps in.
    std::thread::sleep(Duration::from_millis(20));
    let (ensemble_b, artifact_b, _same_path) = fixture("swap_rollback", 4);
    let offline_b = ensemble_b.proba();
    let checksum_b = artifact_b.checksum();
    assert_ne!(checksum_a, checksum_b, "fixtures must differ");
    let deadline = Instant::now() + Duration::from_secs(10);
    let next = loop {
        assert!(
            Instant::now() < deadline,
            "watcher never saw the good artifact"
        );
        match watcher.poll(Instant::now() + Duration::from_millis(50)) {
            WatchOutcome::Loaded(next) => break next,
            WatchOutcome::Pending | WatchOutcome::Unchanged => {
                std::thread::sleep(Duration::from_millis(5))
            }
            WatchOutcome::Failed { .. } => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    assert_eq!(next.checksum(), checksum_b);
    let generation = pool
        .try_swap(*next, checksum_b)
        .expect("swap good artifact");
    watcher.installed(checksum_b);
    assert_eq!(generation, 1);
    assert_eq!(watcher.failures(), 0, "success resets the failure count");

    for i in 0..n {
        pool.submit((n + i) as u64, PredictRequest::nodes(vec![i]))
            .expect("submit");
    }
    for (id, reply) in drain(&rx, n) {
        assert_eq!(reply.generation, 1, "post-swap generation");
        let p = reply.result.as_ref().expect("serve");
        let node = id as usize - n;
        assert_row_bitwise(p.proba.row(0), offline_b.row(node), "new generation");
    }
    let _ = std::fs::remove_file(&path);
    pool.shutdown();
}
