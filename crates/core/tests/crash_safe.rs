//! Crash-safe cascade runs: kill a run at a deterministically injected
//! fault, resume it, and require the final ensemble to be **bitwise
//! identical** to an uninterrupted run — for each fault kind.
//!
//! Fault state is process-global (it models the `RDD_FAULT` env var), so
//! every test serializes on one mutex and disarms before releasing it.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use rdd_core::{distill_run, DistillConfig, RddConfig, RddOutcome, RddTrainer, RunError, RunState};
use rdd_graph::{Dataset, SynthConfig};
use rdd_models::checkpoint;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    // A panicking test (expected: we inject panics) poisons the mutex;
    // the lock itself is still fine.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn dataset() -> Dataset {
    SynthConfig::tiny().generate()
}

fn config() -> RddConfig {
    let mut cfg = RddConfig::fast();
    cfg.num_base_models = 2;
    cfg.train.epochs = 20;
    cfg
}

fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdd_crash_safe_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every externally observable number of the two outcomes must agree to
/// the bit.
fn assert_bitwise_equal(a: &RddOutcome, b: &RddOutcome) {
    assert_eq!(a.ensemble_pred, b.ensemble_pred, "ensemble predictions");
    assert_eq!(a.single_pred, b.single_pred, "single predictions");
    assert_eq!(
        a.ensemble_test_acc.to_bits(),
        b.ensemble_test_acc.to_bits(),
        "ensemble test acc"
    );
    assert_eq!(
        a.ensemble_val_acc.to_bits(),
        b.ensemble_val_acc.to_bits(),
        "ensemble val acc"
    );
    assert_eq!(
        a.single_test_acc.to_bits(),
        b.single_test_acc.to_bits(),
        "single test acc"
    );
    assert_eq!(a.base_models.len(), b.base_models.len());
    for (i, (x, y)) in a.base_models.iter().zip(&b.base_models).enumerate() {
        assert_eq!(x.alpha.to_bits(), y.alpha.to_bits(), "member {i} alpha");
        assert_eq!(x.val_acc.to_bits(), y.val_acc.to_bits(), "member {i} val");
        assert_eq!(
            x.test_acc.to_bits(),
            y.test_acc.to_bits(),
            "member {i} test"
        );
        assert_eq!(x.dropped, y.dropped, "member {i} dropped");
        assert_eq!(
            x.report.epochs_run, y.report.epochs_run,
            "member {i} epochs"
        );
        assert_eq!(
            x.report.final_train_loss.to_bits(),
            y.report.final_train_loss.to_bits(),
            "member {i} final loss"
        );
    }
    assert_eq!(
        a.prefix_ensemble_test_accs.len(),
        b.prefix_ensemble_test_accs.len()
    );
    for (x, y) in a
        .prefix_ensemble_test_accs
        .iter()
        .zip(&b.prefix_ensemble_test_accs)
    {
        assert_eq!(x.to_bits(), y.to_bits(), "prefix accuracy");
    }
}

#[test]
fn crash_safe_run_matches_plain_run_and_completes() {
    let _g = guard();
    rdd_obs::fault::disarm();
    let data = dataset();
    let cfg = config();
    let plain = RddTrainer::new(cfg.clone()).run(&data);
    let dir = run_dir("clean");
    let safe = RddTrainer::new(cfg.clone())
        .run_crash_safe(&data, &dir, "tiny")
        .expect("clean crash-safe run");
    assert_bitwise_equal(&plain, &safe);

    let state = RunState::load(&dir).expect("manifest loads");
    assert!(state.is_complete(), "manifest marked complete");
    assert_eq!(state.next_member(), 2);
    assert_eq!(state.source(), "tiny");
    assert_eq!(state.config(), &cfg);

    // A complete run refuses to resume; an existing manifest refuses a
    // fresh create.
    assert!(matches!(
        RddTrainer::resume(&dir, &data),
        Err(RunError::Unsupported(_))
    ));
    assert!(matches!(
        RunState::create(&dir, "tiny", &cfg, &data),
        Err(RunError::Unsupported(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_at_member_boundary_then_resume_is_bitwise_identical() {
    let _g = guard();
    rdd_obs::fault::disarm();
    let data = dataset();
    let cfg = config();
    let clean = RddTrainer::new(cfg.clone()).run(&data);

    let dir = run_dir("panic_member");
    rdd_obs::fault::arm("panic@member:1").expect("arm");
    let err = RddTrainer::new(cfg.clone())
        .run_crash_safe(&data, &dir, "tiny")
        .expect_err("injected panic must abort the run");
    rdd_obs::fault::disarm();
    match err {
        RunError::MemberPanic {
            member,
            ref message,
        } => {
            assert_eq!(member, 1);
            assert!(message.contains("injected fault"), "got {message}");
        }
        other => panic!("expected MemberPanic, got {other}"),
    }
    // Member 0 committed before the crash; the manifest is still 'running'.
    let state = RunState::load(&dir).expect("manifest loads after crash");
    assert!(!state.is_complete());
    assert_eq!(state.next_member(), 1);

    let resumed = RddTrainer::resume(&dir, &data).expect("resume");
    assert_bitwise_equal(&clean, &resumed);
    assert!(RunState::load(&dir).expect("reload").is_complete());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_io_failure_then_resume_is_bitwise_identical() {
    let _g = guard();
    rdd_obs::fault::disarm();
    let data = dataset();
    let cfg = config();
    let clean = RddTrainer::new(cfg.clone()).run(&data);

    let dir = run_dir("io_fail");
    // ckpt pass 0 is the manifest create; passes 1.. are member files. n=2
    // fails while committing member 0's outputs.
    rdd_obs::fault::arm("io_fail@ckpt:2").expect("arm");
    let err = RddTrainer::new(cfg.clone())
        .run_crash_safe(&data, &dir, "tiny")
        .expect_err("injected io failure must abort the run");
    rdd_obs::fault::disarm();
    assert!(matches!(err, RunError::Checkpoint(_)), "got {err}");

    // The failed commit left no member record and no temp litter.
    let state = RunState::load(&dir).expect("manifest loads after crash");
    assert_eq!(state.next_member(), 0);
    let litter: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .collect();
    assert!(litter.is_empty(), "temp files left behind: {litter:?}");

    let resumed = RddTrainer::resume(&dir, &data).expect("resume");
    assert_bitwise_equal(&clean, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_nan_loss_recovers_in_process_bitwise_identical() {
    let _g = guard();
    rdd_obs::fault::disarm();
    let data = dataset();
    let cfg = config();
    let clean = RddTrainer::new(cfg.clone()).run(&data);

    let dir = run_dir("nan_loss");
    // Epoch pass 7 lands inside member 0's training; the divergence guard
    // replays the epoch and the run completes without restarting.
    rdd_obs::fault::arm("nan_loss@epoch:7").expect("arm");
    let out = RddTrainer::new(cfg.clone())
        .run_crash_safe(&data, &dir, "tiny")
        .expect("nan_loss recovers in process");
    rdd_obs::fault::disarm();
    assert_eq!(out.base_models[0].report.rollbacks, 1, "one free replay");
    assert!(!out.base_models[0].report.diverged);
    assert_bitwise_equal(&clean, &out);
    assert!(RunState::load(&dir).expect("manifest").is_complete());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_divergence_drops_the_member_and_the_run_degrades() {
    let _g = guard();
    rdd_obs::fault::disarm();
    let data = dataset();
    let mut cfg = config();
    // No retry budget: the first injected NaN permanently diverges member 0.
    cfg.train.divergence.max_retries = 0;

    let dir = run_dir("dropped");
    rdd_obs::fault::arm("nan_loss@epoch:0").expect("arm");
    let out = RddTrainer::new(cfg.clone())
        .run_crash_safe(&data, &dir, "tiny")
        .expect("run degrades instead of aborting");
    rdd_obs::fault::disarm();

    assert_eq!(out.base_models.len(), 2);
    assert!(out.base_models[0].dropped, "diverged member dropped");
    assert!(out.base_models[0].report.diverged);
    assert!(!out.base_models[1].dropped, "next member still trains");
    assert_eq!(
        out.prefix_ensemble_test_accs[0], 0.0,
        "empty partial ensemble before the first kept member"
    );
    assert!(
        out.ensemble_test_acc > 0.5,
        "teacherless member 1 still learns: {}",
        out.ensemble_test_acc
    );

    // The cascade's bookkeeping over a dropped member, pinned to the bit
    // (the same on both SIMD tiers): the prefix walk skips member 0 and
    // the single model is the last kept one.
    let prefix_bits: Vec<u32> = out
        .prefix_ensemble_test_accs
        .iter()
        .map(|a| a.to_bits())
        .collect();
    assert_eq!(
        prefix_bits,
        [0.0f32.to_bits(), 0.82f32.to_bits()],
        "prefix accuracies"
    );
    assert_eq!(
        out.single_test_acc.to_bits(),
        0.82f32.to_bits(),
        "single test acc"
    );

    // The manifest records both members, but outputs are stored only for
    // kept ones, and reloading reproduces the degraded ensemble.
    let state = RunState::load(&dir).expect("manifest");
    assert!(state.is_complete());
    assert_eq!(state.members().len(), 2);
    assert!(
        !dir.join("member-000.out").exists(),
        "dropped member has no outputs"
    );
    assert_eq!(state.load_ensemble().expect("ensemble loads").len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_member_file_fails_resume_loudly() {
    let _g = guard();
    rdd_obs::fault::disarm();
    let data = dataset();
    let cfg = config();

    let dir = run_dir("tampered");
    rdd_obs::fault::arm("panic@member:1").expect("arm");
    let _ = RddTrainer::new(cfg)
        .run_crash_safe(&data, &dir, "tiny")
        .expect_err("injected panic");
    rdd_obs::fault::disarm();

    // Tamper with the committed member's outputs: resume must refuse (the
    // stored ensemble sum no longer matches the replayed members).
    let out_file = dir.join("member-000.out");
    let text = std::fs::read_to_string(&out_file).expect("read member file");
    let tampered = text.replacen("0.", "1.", 1);
    assert_ne!(tampered, text, "tampering changed something");
    std::fs::write(&out_file, tampered).expect("write tampered");
    let err = RddTrainer::resume(&dir, &data).expect_err("tampered run dir must not resume");
    assert!(
        matches!(err, RunError::Corrupt(_) | RunError::Checkpoint(_)),
        "got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrite a member-output or sums file with its matrix twice: the
/// two-matrix layout (proba, then logits) these files had before they held
/// proba only.
fn double_matrix(path: &std::path::Path) {
    let (name, mats) = checkpoint::load_matrices(path).expect("load matrix file");
    let [m] = mats.as_slice() else {
        panic!("{}: expected one matrix", path.display())
    };
    checkpoint::save_matrices(path, &name, &[m, m]).expect("write two-matrix file");
}

#[test]
fn two_matrix_member_outputs_and_sums_are_corrupt() {
    let _g = guard();
    rdd_obs::fault::disarm();
    let data = dataset();
    let dir = run_dir("two_matrices");
    RddTrainer::new(config())
        .run_crash_safe(&data, &dir, "tiny")
        .expect("clean run");
    let state = RunState::load(&dir).expect("manifest");
    state.load_ensemble().expect("one-matrix files load");

    for file in ["member-000.out", "ensemble.sums"] {
        let path = dir.join(file);
        let original = std::fs::read(&path).expect("read");
        double_matrix(&path);
        match state.load_ensemble() {
            Err(RunError::Corrupt(msg)) => {
                assert!(msg.contains("expected 1 matrix, found 2"), "{file}: {msg}")
            }
            other => panic!("{file}: expected Corrupt, got {other:?}"),
        }
        std::fs::write(&path, original).expect("restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distill_run_reads_the_verified_teacher_and_rejects_tampering() {
    let _g = guard();
    rdd_obs::fault::disarm();
    let data = dataset();
    let dir = run_dir("distill");
    RddTrainer::new(config())
        .run_crash_safe(&data, &dir, "tiny")
        .expect("clean run");
    let state = RunState::load(&dir).expect("manifest");
    let teacher = state.load_ensemble().expect("ensemble");
    let out = distill_run(&state, &data, &DistillConfig::fast()).expect("distill");
    assert_eq!(out.teacher_alphas, teacher.alphas());
    assert_eq!(
        out.teacher_alpha_total.to_bits(),
        teacher.alpha_total().to_bits()
    );

    // The teacher it distills from is checked against `ensemble.sums`.
    let out_file = dir.join("member-000.out");
    let text = std::fs::read_to_string(&out_file).expect("read member file");
    std::fs::write(&out_file, text.replacen("0.", "1.", 1)).expect("write tampered");
    let err = distill_run(&state, &data, &DistillConfig::fast())
        .err()
        .expect("tampered run dir must not distill");
    assert!(
        matches!(err, RunError::Corrupt(_) | RunError::Checkpoint(_)),
        "got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
