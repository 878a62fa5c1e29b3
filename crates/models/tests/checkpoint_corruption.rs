//! Checkpoint robustness: a corrupted checkpoint file — truncated at any
//! line or byte boundary, reshaped, or carrying non-finite payloads — must
//! come back as a typed [`CheckpointError`], never a panic or a silently
//! wrong model.

use std::path::PathBuf;

use rdd_graph::SynthConfig;
use rdd_models::{
    load_into, load_matrices, save_checkpoint, CheckpointError, Gcn, GcnConfig, GraphContext,
};
use rdd_tensor::seeded_rng;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rdd_corrupt_{name}_{}", std::process::id()))
}

/// A real saved checkpoint's text, for corruption sweeps. Each caller
/// passes its own `tag`: tests run concurrently and must not share the
/// scratch file.
fn checkpoint_text(tag: &str) -> String {
    let data = SynthConfig::tiny().generate();
    let ctx = GraphContext::new(&data);
    let model = Gcn::new(&ctx, GcnConfig::citation(), &mut seeded_rng(7));
    let path = tmp(tag);
    save_checkpoint(&model, &path).expect("save");
    let text = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn every_line_truncation_is_rejected() {
    let text = checkpoint_text("src_line_trunc");
    let lines: Vec<&str> = text.lines().collect();
    let path = tmp("line_trunc");
    for keep in 0..lines.len() {
        let mut prefix = lines[..keep].join("\n");
        if keep > 0 {
            prefix.push('\n');
        }
        std::fs::write(&path, &prefix).expect("write");
        let res = load_matrices(&path);
        assert!(
            res.is_err(),
            "checkpoint truncated to {keep}/{} lines must not load",
            lines.len()
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn byte_truncations_never_panic_and_mostly_fail() {
    let text = checkpoint_text("src_byte_trunc");
    // Any cut strictly before the last data row's line leaves a matrix
    // missing rows or a malformed header — always an error. Cuts inside
    // the final line may still parse (a float losing trailing digits is
    // still a float); the invariant there is a clean Result, not a panic.
    let last_line_start = text.trim_end().rfind('\n').map_or(0, |i| i + 1);
    let path = tmp("byte_trunc");
    // Step through byte positions (stride keeps the sweep fast but still
    // crosses every line of the header and several row interiors).
    for cut in (1..text.len()).step_by(7).chain([text.len() - 1]) {
        if !text.is_char_boundary(cut) {
            continue;
        }
        std::fs::write(&path, &text[..cut]).expect("write");
        let res = load_matrices(&path);
        if cut < last_line_start {
            assert!(res.is_err(), "cut at byte {cut} must not load");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shape_mismatch_is_typed_not_a_panic() {
    let data = SynthConfig::tiny().generate();
    let ctx = GraphContext::new(&data);
    let model = Gcn::new(&ctx, GcnConfig::citation(), &mut seeded_rng(8));
    let path = tmp("shape");
    save_checkpoint(&model, &path).expect("save");
    let mut wider = Gcn::new(
        &ctx,
        GcnConfig {
            hidden: vec![48],
            ..GcnConfig::citation()
        },
        &mut seeded_rng(9),
    );
    let err = load_into(&mut wider, &path).expect_err("shape mismatch must fail");
    assert!(
        matches!(err, CheckpointError::ShapeMismatch { .. }),
        "got {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn nan_payload_is_rejected_with_location() {
    let text = checkpoint_text("src_nan");
    // Replace the first data token after the first matrix header with NaN.
    let header_end = text.find("matrix ").expect("matrix header");
    let row_start = text[header_end..].find('\n').expect("newline") + header_end + 1;
    let tok_end = text[row_start..].find([' ', '\n']).expect("row token") + row_start;
    let poisoned = format!("{}NaN{}", &text[..row_start], &text[tok_end..]);
    let path = tmp("nan_payload");
    std::fs::write(&path, poisoned).expect("write");
    let err = load_matrices(&path).expect_err("NaN payload must fail");
    let msg = err.to_string();
    assert!(msg.contains("non-finite"), "got: {msg}");
    assert!(msg.contains("matrix 0"), "names the matrix: {msg}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_appended_to_valid_checkpoint_is_rejected() {
    let mut text = checkpoint_text("src_appended");
    text.push_str("0.25 0.5\n");
    let path = tmp("appended");
    std::fs::write(&path, text).expect("write");
    let err = load_matrices(&path).expect_err("trailing rows must fail");
    assert!(err.to_string().contains("trailing"), "got {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crafted_counts_are_typed_errors_not_aborts() {
    // A `params` count or matrix shape claiming more values than the file
    // holds used to be reserved up front, aborting the process (or
    // overflowing `rows * cols`) before a single row was read.
    let text = checkpoint_text("src_crafted");
    let header = |prefix: &str| text.lines().find(|l| l.starts_with(prefix)).expect(prefix);
    let (params, first_matrix) = (header("params "), header("matrix "));
    let cases = [
        (
            "params",
            text.replacen(params, "params 4000000000000000", 1),
        ),
        (
            "shape",
            text.replacen(first_matrix, "matrix 40000000000 7000", 1),
        ),
        (
            "overflow",
            text.replacen(first_matrix, "matrix 4294967296 4294967297", 1),
        ),
    ];
    for (tag, crafted) in cases {
        assert!(crafted != text, "{tag}: the edit must apply");
        let path = tmp(&format!("crafted_{tag}"));
        std::fs::write(&path, crafted).expect("write");
        let err = load_matrices(&path).expect_err("crafted count must fail");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, CheckpointError::Parse(_)), "{tag}: {err}");
        assert!(
            err.to_string().contains("claims more values"),
            "{tag}: {err}"
        );
    }
}

#[test]
fn block_header_with_a_trailing_token_is_rejected() {
    // `matrix R C` is the whole header: an extra token is damage, not
    // something to skip over.
    let text = checkpoint_text("src_strict_header");
    let first_matrix = text
        .lines()
        .find(|l| l.starts_with("matrix "))
        .expect("matrix header");
    let crafted = text.replacen(first_matrix, &format!("{first_matrix} junk"), 1);
    assert!(crafted != text, "the edit must apply");
    let path = tmp("strict_header");
    std::fs::write(&path, crafted).expect("write");
    let err = load_matrices(&path).expect_err("a trailing header token must fail");
    let _ = std::fs::remove_file(&path);
    assert!(matches!(err, CheckpointError::Parse(_)), "got {err}");
}
