//! Artifact round-trip properties: exporting an ensemble (or a completed
//! crash-safe run directory) and loading the file back must reproduce the
//! ensemble's `proba()` **bitwise** — and any damage to the file
//! (corruption, truncation, version skew, inconsistent meta) must come
//! back as a typed [`ServeError`], never a panic or silently wrong rows.

use std::path::PathBuf;

use rdd_core::{distill_run, DistillConfig, Ensemble, RddConfig, RddTrainer, RunState};
use rdd_graph::SynthConfig;
use rdd_models::{
    mlp_forward_features, push_matrix, save_matrices, Model, PredictRequest, PredictionKind,
    Predictor, TextCursor,
};
use rdd_serve::quant::{encode_qrow, QuantRow};
use rdd_serve::{
    export_run_as, write_artifact_as, write_ensemble_as, write_mlp_artifact, AnyArtifact,
    ArtifactFormat, ArtifactMeta, ServeError,
};
use rdd_tensor::{seeded_rng, Matrix, Rng};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rdd_artifact_{name}_{}", std::process::id()))
}

/// A matrix with entries in [-4, 4): plenty of dynamic range for softmax
/// inputs.
fn matrix(rng: &mut Rng, n: usize, k: usize) -> Matrix {
    Matrix::from_fn(n, k, |_, _| rng.range_f32(-4.0..4.0))
}

/// A randomized ensemble: `members` softmaxed outputs with varied alphas.
fn random_ensemble(seed: u64, n: usize, k: usize, members: usize) -> Ensemble {
    let mut s = seeded_rng(seed);
    let mut ensemble = Ensemble::new();
    for t in 0..members {
        let proba = matrix(&mut s, n, k).softmax_rows();
        let alpha = 0.25 + 0.5 * (t as f32 + s.range_f32(-4.0..4.0).abs());
        ensemble.push(proba, alpha);
    }
    ensemble
}

fn assert_bitwise_equal(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what} shape");
    for i in 0..a.rows() {
        for (x, y) in a.row(i).iter().zip(b.row(i)) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} row {i}");
        }
    }
}

#[test]
fn export_load_roundtrip_is_bitwise_over_randomized_ensembles() {
    // A sweep over shapes, member counts, and seeds: the round-trip
    // invariant must hold for every case, not just one lucky ensemble.
    let cases: &[(u64, usize, usize, usize)] = &[
        (1, 5, 2, 1),
        (2, 12, 3, 2),
        (3, 12, 3, 5),
        (4, 30, 7, 3),
        (5, 1, 4, 2),
        (6, 64, 3, 4),
        (7, 9, 2, 7),
        (8, 17, 5, 1),
    ];
    for &(seed, n, k, members) in cases {
        let ensemble = random_ensemble(seed, n, k, members);
        let path = tmp(&format!("roundtrip_{seed}"));
        let checksum =
            write_ensemble_as(&path, &ensemble, "sweep", "unit-test", ArtifactFormat::V1)
                .expect("write");
        let artifact = AnyArtifact::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);

        assert_eq!(artifact.checksum(), checksum, "case {seed}");
        assert_eq!(artifact.meta().members, members, "case {seed}");
        assert_eq!(artifact.meta().dataset_n, n, "case {seed}");
        assert_eq!(artifact.num_nodes(), n, "case {seed}");
        assert_eq!(artifact.num_classes(), k, "case {seed}");
        let want = ensemble.proba();
        assert_bitwise_equal(artifact.proba().expect("ensemble rows"), &want, "proba");
        let served = artifact.proba_all().expect("predict");
        assert_bitwise_equal(&served, &want, "served proba");
        assert_eq!(artifact.predict_all().expect("predict"), ensemble.predict());
    }
}

#[test]
fn export_run_matches_the_live_ensemble_bitwise() {
    // End to end through the crash-safe path: train a tiny run, export the
    // directory, and require the artifact to serve the exact rows the live
    // run's ensemble holds.
    let dataset = SynthConfig::tiny().generate();
    let mut cfg = RddConfig::fast();
    cfg.num_base_models = 2;
    cfg.train.epochs = 12;
    cfg.train.min_epochs = 4;
    cfg.train.patience = 4;
    let dir = tmp("export_run_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = RddTrainer::new(cfg)
        .run_crash_safe(&dataset, &dir, "tiny")
        .expect("train");

    let path = tmp("export_run_artifact");
    let artifact = export_run_as(&dir, &path, ArtifactFormat::V1).expect("export");
    assert_eq!(
        artifact.meta().members,
        outcome.base_models.iter().filter(|m| !m.dropped).count()
    );
    assert_eq!(artifact.meta().dataset_name, "tiny");
    assert_eq!(artifact.meta().source, "tiny");
    assert_eq!(
        artifact.predict_all().expect("predict"),
        outcome.ensemble_pred,
        "served argmax must equal the live run's ensemble predictions"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn export_refuses_an_incomplete_run() {
    let dataset = SynthConfig::tiny().generate();
    let dir = tmp("incomplete_run");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RddConfig::fast();
    let _state = rdd_core::RunState::create(&dir, "tiny", &cfg, &dataset).expect("create");
    let err = export_run_as(&dir, &tmp("incomplete_artifact"), ArtifactFormat::V1).unwrap_err();
    assert!(
        err.to_string().contains("not complete"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A valid artifact's text, for the corruption sweeps.
fn artifact_text(tag: &str) -> String {
    let ensemble = random_ensemble(0xA5, 8, 3, 2);
    let path = tmp(&format!("text_{tag}"));
    write_ensemble_as(&path, &ensemble, "sweep", "unit-test", ArtifactFormat::V1).expect("write");
    let text = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    text
}

/// Recompute the checksum line over an edited body, so the loader's parser
/// — not its corruption check — sees the edit.
fn rechecksum(text: &str) -> String {
    let body_end = text.rfind("\nchecksum ").unwrap() + 1;
    let checksum = rdd_serve::fnv1a64(&text.as_bytes()[..body_end]);
    format!("{}checksum {checksum:016x}\n", &text[..body_end])
}

fn load_text(tag: &str, text: &str) -> Result<AnyArtifact, ServeError> {
    let path = tmp(&format!("load_{tag}"));
    std::fs::write(&path, text).expect("write corrupted");
    let out = AnyArtifact::load(&path);
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn every_single_byte_flip_is_caught() {
    let text = artifact_text("byteflip");
    let bytes = text.as_bytes();
    // Flip one bit of every byte in the checksummed body (stop before the
    // checksum line so the stored value itself stays parseable).
    let body_end = text.rfind("\nchecksum ").unwrap() + 1;
    for i in (0..body_end).step_by(7) {
        let mut corrupted = bytes.to_vec();
        corrupted[i] ^= 0x01;
        // Skip flips that break UTF-8 (read_to_string rejects those with
        // an Io error before the checksum ever runs).
        let Ok(s) = String::from_utf8(corrupted) else {
            continue;
        };
        match load_text("byteflip", &s) {
            Err(ServeError::Checksum { .. }) | Err(ServeError::Artifact(_)) => {}
            Ok(_) => panic!("byte {i} flip loaded cleanly"),
            Err(other) => panic!("byte {i} flip gave unexpected error {other}"),
        }
    }
}

#[test]
fn truncation_at_every_line_is_caught() {
    let text = artifact_text("trunc");
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..lines.len() {
        let truncated = lines[..keep].join("\n");
        let err = load_text("trunc", &truncated).unwrap_err();
        match err {
            ServeError::Artifact(_) | ServeError::Checksum { .. } => {}
            other => panic!("truncation to {keep} lines gave unexpected error {other}"),
        }
    }
    // Truncating mid-line (dropping the final newline) must also fail.
    let err = load_text("trunc_tail", text.trim_end()).unwrap_err();
    assert!(matches!(err, ServeError::Artifact(_)), "got {err}");
}

/// A valid **v2q** artifact's text, for the quantized corruption sweeps.
fn artifact_text_v2q(tag: &str) -> String {
    let ensemble = random_ensemble(0xA5, 8, 3, 2);
    let path = tmp(&format!("text_v2q_{tag}"));
    write_ensemble_as(&path, &ensemble, "sweep", "unit-test", ArtifactFormat::V2q).expect("write");
    let text = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn v2q_roundtrip_drift_is_bounded_by_half_a_quant_step() {
    let ensemble = random_ensemble(0x77, 20, 5, 3);
    let path = tmp("v2q_roundtrip");
    write_ensemble_as(&path, &ensemble, "sweep", "unit-test", ArtifactFormat::V2q).expect("write");
    let artifact = AnyArtifact::load(&path).expect("load");
    let _ = std::fs::remove_file(&path);

    assert_eq!(artifact.format(), ArtifactFormat::V2q);
    let got = artifact.proba().expect("ensemble rows");
    let want = ensemble.proba();
    for i in 0..want.rows() {
        let row = want.row(i);
        let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // Affine int8 on the stored sum: the dequantized value sits within
        // half a step of the original (plus fp slack in the affine
        // arithmetic), and scaling by `1/alpha_total` scales the step.
        let tol = (hi - lo) / 255.0 * 0.5 + 1e-5;
        for (j, (x, y)) in got.row(i).iter().zip(row).enumerate() {
            assert!(
                (x - y).abs() <= tol,
                "proba[{i}][{j}]: {x} vs {y} (tol {tol})"
            );
        }
    }
}

#[test]
fn v1_artifacts_still_load_and_report_their_format() {
    // Each single-file ensemble format loads through the one loader and
    // reports its format, its checksum and its rows.
    let ensemble = random_ensemble(0x31, 6, 4, 2);
    for format in [ArtifactFormat::V1, ArtifactFormat::V2q] {
        let path = tmp(&format!("format_{}", format.name()));
        let checksum =
            write_ensemble_as(&path, &ensemble, "sweep", "unit-test", format).expect("write");
        let artifact = AnyArtifact::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(artifact.format(), format);
        assert_eq!(artifact.checksum(), checksum);
        assert_eq!(artifact.meta().dataset_n, 6);
        assert_eq!(artifact.quantized(), format == ArtifactFormat::V2q);
        assert!(artifact.student_params().is_none());
        let proba = artifact.proba().expect("ensemble rows");
        if format == ArtifactFormat::V1 {
            assert_bitwise_equal(proba, &ensemble.proba(), "proba");
        }
    }
}

#[test]
fn every_single_byte_flip_in_a_v2q_artifact_is_caught() {
    // Same sweep as the v1 test, over the quantized layout: header, meta,
    // qmatrix headers and base64 scale/zero/code lines are all covered.
    let text = artifact_text_v2q("byteflip");
    let bytes = text.as_bytes();
    let body_end = text.rfind("\nchecksum ").unwrap() + 1;
    for i in (0..body_end).step_by(7) {
        let mut corrupted = bytes.to_vec();
        corrupted[i] ^= 0x01;
        let Ok(s) = String::from_utf8(corrupted) else {
            continue;
        };
        match load_text("v2q_byteflip", &s) {
            Err(ServeError::Checksum { .. }) | Err(ServeError::Artifact(_)) => {}
            Ok(_) => panic!("byte {i} flip loaded cleanly"),
            Err(other) => panic!("byte {i} flip gave unexpected error {other}"),
        }
    }
}

#[test]
fn truncation_at_every_line_of_a_v2q_artifact_is_caught() {
    let text = artifact_text_v2q("trunc");
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..lines.len() {
        let truncated = lines[..keep].join("\n");
        let err = load_text("v2q_trunc", &truncated).unwrap_err();
        match err {
            ServeError::Artifact(_) | ServeError::Checksum { .. } => {}
            other => panic!("truncation to {keep} lines gave unexpected error {other}"),
        }
    }
    let err = load_text("v2q_trunc_tail", text.trim_end()).unwrap_err();
    assert!(matches!(err, ServeError::Artifact(_)), "got {err}");
}

/// Replace the first base64 row after the first `qmatrix` header with a
/// hand-built row, re-checksum, and return the loader's verdict.
fn load_with_first_qrow(tag: &str, row: &QuantRow) -> Result<AnyArtifact, ServeError> {
    let text = artifact_text_v2q(tag);
    let row_start = text.find("int8\n").unwrap() + "int8\n".len();
    let row_end = row_start + text[row_start..].find('\n').unwrap();
    let mutated = format!(
        "{}{}{}",
        &text[..row_start],
        encode_qrow(row),
        &text[row_end..]
    );
    load_text(tag, &rechecksum(&mutated))
}

#[test]
fn bad_quant_scales_and_zero_points_are_typed_errors() {
    let qrow = |scale: f32, zero: f32| QuantRow {
        scale,
        zero,
        q: vec![0, 128, 255],
    };
    // The first qmatrix row sits on line 4 (header, meta, qmatrix, row).
    for bad_scale in [f32::NAN, f32::INFINITY, -0.5] {
        match load_with_first_qrow("bad_scale", &qrow(bad_scale, 0.0)).unwrap_err() {
            ServeError::QuantScale { line, value } => {
                assert_eq!(line, 4);
                assert_eq!(value.to_bits(), bad_scale.to_bits());
            }
            other => panic!("scale {bad_scale}: expected QuantScale, got {other}"),
        }
    }
    for bad_zero in [f32::NAN, f32::NEG_INFINITY] {
        match load_with_first_qrow("bad_zero", &qrow(0.01, bad_zero)).unwrap_err() {
            ServeError::QuantZeroPoint { line, value } => {
                assert_eq!(line, 4);
                assert_eq!(value.to_bits(), bad_zero.to_bits());
            }
            other => panic!("zero {bad_zero}: expected QuantZeroPoint, got {other}"),
        }
    }
    // A zero scale is the legal constant-row encoding, not an error; the
    // served row is that constant sum scaled by `1/alpha_total`.
    let artifact = load_with_first_qrow("zero_scale", &qrow(0.0, 0.125)).expect("constant row");
    let served = 0.125 * (1.0 / artifact.meta().alpha_total);
    assert_eq!(
        artifact.proba().expect("ensemble rows").row(0),
        &[served, served, served]
    );
}

#[test]
fn a_second_body_block_is_a_typed_error() {
    // v1/v2q bodies used to hold a second (logits) block after the proba
    // sum. Such a file, checksummed so the parser reads it, is refused
    // with a typed error instead of loading or panicking.
    for (text, block) in [
        (artifact_text("two_blocks_v1"), "\nmatrix "),
        (artifact_text_v2q("two_blocks_v2q"), "\nqmatrix "),
    ] {
        let start = text.find(block).expect("body block") + 1;
        let end = text.rfind("\nchecksum ").expect("trailer") + 1;
        let doubled = format!("{}{}", &text[..end], &text[start..]);
        match load_text("two_blocks", &rechecksum(&doubled))
            .map(|_| ())
            .unwrap_err()
        {
            ServeError::Artifact(msg) => assert!(msg.contains("trailing garbage"), "{msg}"),
            other => panic!("{block:?}: expected an Artifact error, got {other}"),
        }
    }
}

#[test]
fn wrong_version_is_a_typed_error() {
    let text = artifact_text("version");
    // An unknown version, and the retired shard-manifest header (stale
    // manifests must fail typed, not load as something else).
    for header in ["rdd-artifact v9", "rdd-artifact-manifest v1"] {
        let bumped = rechecksum(&text.replacen("rdd-artifact v1", header, 1));
        match load_text("version", &bumped).map(|_| ()).unwrap_err() {
            ServeError::WrongVersion { found } => assert_eq!(found, header),
            other => panic!("{header}: expected WrongVersion, got {other}"),
        }
    }
}

/// A valid v3 (mlp) meta/params pair for the student round-trip sweeps.
/// `alpha_total` must be the exact fold of the alphas or `validate()`
/// rejects the meta before anything is written.
fn mlp_fixture(seed: u64, in_dim: usize, hidden: usize, k: usize) -> (ArtifactMeta, Vec<Matrix>) {
    let mut s = seeded_rng(seed);
    let meta = ArtifactMeta {
        dataset_name: "sweep".into(),
        dataset_n: 8,
        num_classes: k,
        source: "unit-test".into(),
        members: 2,
        alphas: vec![1.25, 0.75],
        alpha_total: 2.0,
    };
    let params = vec![matrix(&mut s, in_dim, hidden), matrix(&mut s, hidden, k)];
    (meta, params)
}

/// A valid **v3 (mlp)** artifact's text, for the student corruption sweeps.
fn artifact_text_v3(tag: &str) -> String {
    let (meta, params) = mlp_fixture(0xA5, 6, 5, 3);
    let path = tmp(&format!("text_v3_{tag}"));
    write_mlp_artifact(&path, &meta, &params, false).expect("write");
    let text = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn v3_roundtrip_serves_features_bitwise_and_loads_via_any_artifact() {
    let cases: &[(u64, usize, usize, usize, bool)] = &[
        (1, 6, 5, 3, false),
        (2, 12, 8, 4, false),
        (3, 3, 2, 2, false),
        (4, 6, 5, 3, true),
    ];
    for &(seed, in_dim, hidden, k, quantize) in cases {
        let (meta, params) = mlp_fixture(seed, in_dim, hidden, k);
        let path = tmp(&format!("v3_roundtrip_{seed}"));
        let checksum = write_mlp_artifact(&path, &meta, &params, quantize).expect("write");

        // The loader must route the v3 header to the mlp parser.
        let artifact = AnyArtifact::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(artifact.format(), ArtifactFormat::V3Mlp, "case {seed}");
        assert_eq!(artifact.checksum(), checksum, "case {seed}");
        assert!(
            artifact.proba().is_none(),
            "mlp artifacts hold no node rows"
        );
        assert_eq!(artifact.meta(), &meta, "case {seed}");
        assert_eq!(artifact.quantized(), quantize, "case {seed}");
        let loaded = artifact.student_params().expect("student weights");

        // Served feature rows must be bitwise identical to the canonical
        // offline forward over the *loaded* weights (for f32 artifacts the
        // loaded weights are the written weights, so this chains to the
        // original student).
        let rows = matrix(&mut seeded_rng(seed ^ 0xFEED), 7, in_dim);
        let p = artifact
            .predict_batch(&PredictRequest::features(rows.clone()))
            .expect("predict");
        assert_eq!(p.kind, PredictionKind::Features, "case {seed}");
        assert_eq!(p.nodes, (0..7).collect::<Vec<_>>(), "case {seed}");
        let offline = mlp_forward_features(loaded, &rows).softmax_rows();
        assert_bitwise_equal(&p.proba, &offline, "served vs offline forward");
        if !quantize {
            let original = mlp_forward_features(&params, &rows).softmax_rows();
            assert_bitwise_equal(&p.proba, &original, "served vs original student");
        }
    }
}

#[test]
fn every_single_byte_flip_in_a_v3_artifact_is_caught() {
    // Same sweep as the v1/v2q tests, over the student layout: header,
    // meta, the `mlp` shape line, and every weight-matrix row.
    let text = artifact_text_v3("byteflip");
    let bytes = text.as_bytes();
    let body_end = text.rfind("\nchecksum ").unwrap() + 1;
    for i in (0..body_end).step_by(7) {
        let mut corrupted = bytes.to_vec();
        corrupted[i] ^= 0x01;
        let Ok(s) = String::from_utf8(corrupted) else {
            continue;
        };
        let path = tmp("v3_byteflip");
        std::fs::write(&path, &s).expect("write corrupted");
        let out = AnyArtifact::load(&path);
        let _ = std::fs::remove_file(&path);
        match out {
            Err(ServeError::Checksum { .. })
            | Err(ServeError::Artifact(_))
            | Err(ServeError::WrongVersion { .. }) => {}
            Ok(_) => panic!("byte {i} flip loaded cleanly"),
            Err(other) => panic!("byte {i} flip gave unexpected error {other}"),
        }
    }
}

#[test]
fn truncation_at_every_line_of_a_v3_artifact_is_caught() {
    let text = artifact_text_v3("trunc");
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..lines.len() {
        let truncated = lines[..keep].join("\n");
        let path = tmp("v3_trunc");
        std::fs::write(&path, &truncated).expect("write truncated");
        let out = AnyArtifact::load(&path);
        let _ = std::fs::remove_file(&path);
        match out {
            Err(ServeError::Artifact(_)) | Err(ServeError::Checksum { .. }) => {}
            Ok(_) => panic!("truncation to {keep} lines loaded cleanly"),
            Err(other) => panic!("truncation to {keep} lines gave unexpected error {other}"),
        }
    }
}

#[test]
fn distilled_student_tracks_the_ensemble_on_cora_sim() {
    // End to end on the paper's primary dataset: train a small teacher
    // cascade, distill the graph-free student, freeze it as a v3 artifact,
    // and require (a) a bounded accuracy gap and (b) served feature rows
    // bitwise identical to the offline student forward.
    let dataset = SynthConfig::cora_sim().generate();
    let mut cfg = RddConfig::fast();
    cfg.num_base_models = 2;
    let dir = tmp("distill_cora_run");
    let _ = std::fs::remove_dir_all(&dir);
    RddTrainer::new(cfg)
        .run_crash_safe(&dataset, &dir, "cora")
        .expect("train");

    let state = RunState::load(&dir).expect("run state");
    let out = distill_run(&state, &dataset, &DistillConfig::fast()).expect("distill");
    assert!(out.num_reliable > 0, "some nodes must carry KD weight");
    assert!(
        out.student_test_acc > 0.5,
        "student acc {}",
        out.student_test_acc
    );
    assert!(
        out.accuracy_gap() < 0.2,
        "student trails teacher by {:.3} ({:.3} vs {:.3})",
        out.accuracy_gap(),
        out.student_test_acc,
        out.ensemble_test_acc
    );

    let (n, k) = state.dataset_shape();
    let ensemble = state.load_ensemble().expect("ensemble");
    let meta = ArtifactMeta {
        dataset_name: state.dataset_name().to_string(),
        dataset_n: n,
        num_classes: k,
        source: state.source().to_string(),
        members: ensemble.len(),
        alphas: ensemble.alphas(),
        alpha_total: ensemble.alpha_total(),
    };
    let path = tmp("distill_cora_artifact");
    let student_params = Model::params(&out.student).to_vec();
    write_mlp_artifact(&path, &meta, &student_params, false).expect("write");
    let artifact = AnyArtifact::load(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);

    // Serve the first 16 training-graph feature rows as raw vectors: the
    // replies must match the offline student forward bitwise.
    let in_dim = artifact.student_params().expect("student weights")[0].rows();
    let mut rows = Matrix::zeros(16, in_dim);
    for i in 0..16 {
        for j in 0..in_dim {
            rows.set(i, j, dataset.features.get(i, j));
        }
    }
    let p = artifact
        .predict_batch(&PredictRequest::features(rows.clone()))
        .expect("predict");
    let offline = mlp_forward_features(&student_params, &rows).softmax_rows();
    assert_bitwise_equal(&p.proba, &offline, "served cora rows vs offline student");
}

#[test]
fn inconsistent_meta_and_shapes_are_rejected() {
    let reject = |tag: &str, mutate: &dyn Fn(&str) -> String| {
        let text = artifact_text(tag);
        match load_text(tag, &rechecksum(&mutate(&text))).unwrap_err() {
            ServeError::Artifact(msg) => msg,
            other => panic!("{tag}: expected Artifact error, got {other}"),
        }
    };

    // Meta/matrix shape skew.
    let msg = reject("meta_n", &|t| t.replacen("\"n\":8", "\"n\":9", 1));
    assert!(msg.contains("expected") || msg.contains("shape"), "{msg}");

    // alpha_total no longer the fold of the alphas.
    let msg = reject("meta_alpha", &|t| {
        let start = t.find("\"alpha_total\":").unwrap();
        let end = start + t[start..].find('}').unwrap();
        format!("{}\"alpha_total\":123.5{}", &t[..start], &t[end..])
    });
    assert!(msg.contains("alpha_total"), "{msg}");

    // A NaN payload (encoded as `nan`, which the float parser accepts but
    // the finiteness gate must reject).
    let msg = reject("nonfinite", &|t| {
        let row_start = t.find("matrix 8 3\n").unwrap() + "matrix 8 3\n".len();
        let row_end = row_start + t[row_start..].find('\n').unwrap();
        let row = &t[row_start..row_end];
        let first_tok = row.split(' ').next().unwrap();
        format!(
            "{}{}{}",
            &t[..row_start],
            row.replacen(first_tok, "NaN", 1),
            &t[row_end..]
        )
    });
    assert!(msg.contains("non-finite"), "{msg}");
}

#[test]
fn crafted_block_headers_are_typed_errors_not_aborts() {
    // Headers claiming more values than any file holds, checksummed so the
    // parser reads them. Reserving memory for the claim used to abort the
    // process (allocation failure does not unwind) or overflow `r * c`.
    let cases = [
        (
            "v1_huge",
            artifact_text("crafted_v1"),
            "matrix 8 3",
            "matrix 40000000000 7000",
        ),
        (
            "v1_overflow",
            artifact_text("crafted_v1_overflow"),
            "matrix 8 3",
            "matrix 4294967296 4294967297",
        ),
        (
            "v2q_huge",
            artifact_text_v2q("crafted_v2q"),
            "qmatrix 8 3 int8",
            "qmatrix 40000000000 7000 int8",
        ),
        (
            "v3_layers",
            artifact_text_v3("crafted_v3"),
            "mlp 6 3 2",
            "mlp 6 3 99999999999999999",
        ),
    ];
    for (tag, text, from, to) in cases {
        assert!(text.contains(from), "{tag}: fixture lacks {from:?}");
        let path = tmp(&format!("crafted_{tag}"));
        std::fs::write(&path, rechecksum(&text.replacen(from, to, 1))).expect("write");
        let err = AnyArtifact::load(&path).map(|_| ()).unwrap_err();
        let _ = std::fs::remove_file(&path);
        match err {
            ServeError::Artifact(msg) => {
                assert!(msg.contains("claims more values"), "{tag}: {msg}");
                assert!(msg.contains(to), "{tag}: names the header: {msg}");
            }
            other => panic!("{tag}: expected an Artifact error, got {other}"),
        }
    }
}

#[test]
fn matrix_codec_bytes_are_pinned() {
    // Edge values through the one writer: the bytes are pinned here, and
    // the parser must give the same bits back.
    let m = Matrix::from_vec(
        2,
        3,
        vec![-0.0, f32::from_bits(1), f32::MAX, 0.1, 1.0, -3.5],
    );
    let block = "matrix 2 3\n\
                 -0 0.000000000000000000000000000000000000000000001 \
                 340282350000000000000000000000000000000\n\
                 0.1 1 -3.5\n";
    let mut text = String::new();
    push_matrix(&mut text, &m);
    assert_eq!(text, block);
    let back = TextCursor::new(&text).read_matrix(0).expect("parse");
    assert_bitwise_equal(&back, &m, "codec round trip");

    // Checkpoints and v1 artifacts embed exactly that block.
    let path = tmp("codec_checkpoint");
    save_matrices(&path, "pinned", &[&m]).expect("save");
    let saved = std::fs::read_to_string(&path).expect("read");
    assert_eq!(
        saved,
        format!("rdd-checkpoint v1\nmodel pinned\nparams 1\n{block}")
    );
    let meta = ArtifactMeta {
        dataset_name: "pinned".into(),
        dataset_n: 2,
        num_classes: 3,
        source: "unit-test".into(),
        members: 1,
        alphas: vec![1.0],
        alpha_total: 1.0,
    };
    write_artifact_as(&path, &meta, &m, ArtifactFormat::V1).expect("write");
    let written = std::fs::read_to_string(&path).expect("read");
    let _ = std::fs::remove_file(&path);
    let body_start = written.find("\nmatrix ").expect("first block") + 1;
    let body_end = written.rfind("\nchecksum ").expect("trailer") + 1;
    assert_eq!(&written[body_start..body_end], block);
}
