//! Model checkpointing: save/load a model's parameter matrices as a plain
//! text file (one matrix per block, shape header + row-major values).
//!
//! Format, line-oriented:
//!
//! ```text
//! rdd-checkpoint v1
//! model <name>
//! params <count>
//! matrix <rows> <cols>
//! <v v v ...>          (one line per row)
//! ...
//! ```
//!
//! The `matrix R C` block is the repository's one text matrix codec:
//! [`push_matrix`] writes it and [`TextCursor::read_matrix`] reads it back
//! bitwise, for checkpoints, run directories and the serve artifacts alike.

use std::fs;
use std::io;
use std::path::Path;

use rdd_tensor::Matrix;

use crate::float_text;
use crate::gcn::Model;

/// Checkpointing errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Malformed checkpoint content.
    Parse(String),
    /// Loaded shapes don't match the target model's parameters.
    ShapeMismatch {
        /// Parameter slot index.
        slot: usize,
        /// Shape the model expects.
        expected: (usize, usize),
        /// Shape found in the checkpoint.
        found: (usize, usize),
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::Parse(m) => write!(f, "parse error: {m}"),
            CheckpointError::ShapeMismatch {
                slot,
                expected,
                found,
            } => write!(
                f,
                "parameter {slot}: checkpoint has {found:?}, model expects {expected:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Durably replace `path` with `contents`: write to a unique temp sibling,
/// fsync it, rename over the target, then fsync the parent directory
/// (best effort) so the rename itself survives a crash. Readers never see
/// a half-written file — they see the old content or the new.
///
/// This is the `ckpt` fault-injection site: `RDD_FAULT=io_fail@ckpt:<n>`
/// makes the *n*-th write fail with an injected error before touching the
/// filesystem, and `panic@ckpt:<n>` panics there.
pub fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    match rdd_obs::fault::fire("ckpt") {
        Some(rdd_obs::FaultKind::IoFail) => {
            return Err(io::Error::other(format!(
                "injected fault: io_fail@ckpt writing {}",
                path.display()
            )));
        }
        Some(rdd_obs::FaultKind::Panic) => {
            panic!("injected fault: panic@ckpt writing {}", path.display())
        }
        _ => {}
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::other(format!("no file name in {}", path.display())))?;
    let tmp = dir.join(format!(
        ".{}.tmp{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let written = (|| {
        let mut f = fs::File::create(&tmp)?;
        io::Write::write_all(&mut f, contents.as_bytes())?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
        return written;
    }
    // The rename is only durable once the directory entry is flushed too;
    // best effort (opening a directory for fsync is platform-dependent).
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// First line of every checkpoint file.
const HEADER: &str = "rdd-checkpoint v1";

/// A malformed `matrix R C` block, or a missing line, found by a
/// [`TextCursor`]. The message names the line; each file format maps it
/// into its own error type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextError(pub String);

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<TextError> for CheckpointError {
    fn from(e: TextError) -> Self {
        CheckpointError::Parse(e.0)
    }
}

/// Append one `matrix R C` block: the shape line, then [`push_rows`], so a
/// [`TextCursor::read_matrix`] gets the same bits back. Checkpoints, run
/// members, `ensemble.sums` and the v1/v3 artifacts all write their
/// matrices through this one function.
pub fn push_matrix(out: &mut String, m: &Matrix) {
    use std::fmt::Write as _;
    let (r, c) = m.shape();
    let _ = writeln!(out, "matrix {r} {c}");
    push_rows(out, m);
}

/// Append `m` one row per line, each value's shortest-roundtrip `Display`
/// text ([`float_text::push_f32`]) joined by single spaces: the body of a
/// `matrix R C` block, and the rows `--proba-out` writes.
pub fn push_rows(out: &mut String, m: &Matrix) {
    for i in 0..m.rows() {
        float_text::push_row(out, m.row(i));
    }
}

/// A line cursor over one text file (or the checksummed body of one):
/// it numbers the lines it hands out and bounds every count a header
/// claims by the input's length.
pub struct TextCursor<'a> {
    rest: std::str::Lines<'a>,
    line_no: usize,
    /// Bytes of the whole input: no block can hold more values than this.
    len: usize,
}

impl<'a> TextCursor<'a> {
    /// A cursor before the first line of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            rest: text.lines(),
            line_no: 0,
            len: text.len(),
        }
    }

    /// The 1-based number of the line [`Self::next_line`] last returned.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// The next line; running out is a truncation error.
    pub fn next_line(&mut self) -> Result<&'a str, TextError> {
        self.line_no += 1;
        self.rest
            .next()
            .ok_or_else(|| TextError(format!("truncated at line {}", self.line_no)))
    }

    /// The next line, without consuming it.
    pub fn peek(&self) -> Option<&'a str> {
        self.rest.clone().next()
    }

    /// The lines not yet read.
    pub fn rest(self) -> std::str::Lines<'a> {
        self.rest
    }

    /// Check a count the `header` line claims (`None` when computing it
    /// overflowed). Every value takes at least one byte of text, so a
    /// count above the input's length is a forged or corrupt header, and
    /// reserving memory for it could abort the process.
    pub fn claimed(&self, count: Option<usize>, header: &str) -> Result<usize, TextError> {
        match count {
            Some(n) if n <= self.len => Ok(n),
            _ => Err(TextError(format!(
                "line {}: {header:?} claims more values than the {}-byte input holds",
                self.line_no, self.len
            ))),
        }
    }

    /// Read one block written by [`push_matrix`]: exactly `matrix R C`,
    /// then `R` lines of `C` finite floats. `index` is the block's place
    /// in its file, for the error messages. A row the exact scanner
    /// ([`float_text::scan_row`]) takes whole costs one pass over its
    /// bytes; any other row is read by `split_whitespace` and
    /// `str::parse`, which decide what it holds.
    pub fn read_matrix(&mut self, index: usize) -> Result<Matrix, TextError> {
        let header = self.next_line()?;
        let at = self.line_no;
        let bad = |what: &str| TextError(format!("line {at}: {what}, found {header:?}"));
        let mut toks = header.split_whitespace();
        let (rows, cols) = match (toks.next(), toks.next(), toks.next(), toks.next()) {
            (Some("matrix"), Some(r), Some(c), None) => (
                r.parse::<usize>().map_err(|_| bad("bad matrix rows"))?,
                c.parse::<usize>().map_err(|_| bad("bad matrix cols"))?,
            ),
            _ => return Err(bad("expected 'matrix R C'")),
        };
        let mut data = Vec::with_capacity(self.claimed(rows.checked_mul(cols), header)?);
        for r in 0..rows {
            let row = self.next_line()?;
            let before = data.len();
            if float_text::scan_row(row, &mut data) && data.len() - before == cols {
                continue;
            }
            // Off the fast path: the general reader decides, and words the
            // error, for the whole row.
            data.truncate(before);
            let at = || format!("line {} (matrix {index} row {r})", self.line_no);
            for tok in row.split_whitespace() {
                let v: f32 = tok
                    .parse()
                    .map_err(|_| TextError(format!("{}: bad float {tok:?}", at())))?;
                if !v.is_finite() {
                    return Err(TextError(format!("{}: non-finite value {tok:?}", at())));
                }
                data.push(v);
            }
            if data.len() - before != cols {
                return Err(TextError(format!(
                    "{}: expected {cols} values, found {}",
                    at(),
                    data.len() - before
                )));
            }
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

/// Serialize raw matrices under a model `name` — the same format [`save`]
/// writes, usable for non-parameter payloads (ensemble outputs, sums).
pub fn save_matrices(path: &Path, name: &str, mats: &[&Matrix]) -> Result<(), CheckpointError> {
    let mut out = format!("{HEADER}\nmodel {name}\nparams {}\n", mats.len());
    for m in mats {
        push_matrix(&mut out, m);
    }
    atomic_write(path, &out)?;
    Ok(())
}

/// Serialize `model`'s parameters to `path` (atomically; see
/// [`atomic_write`]).
pub fn save(model: &dyn Model, path: &Path) -> Result<(), CheckpointError> {
    let refs: Vec<&Matrix> = model.params().iter().collect();
    save_matrices(path, model.name(), &refs)
}

/// Parse a checkpoint file into raw matrices (model-agnostic). Blank
/// lines after the last block are tolerated; anything else is not.
pub fn load_matrices(path: &Path) -> Result<(String, Vec<Matrix>), CheckpointError> {
    let text = fs::read_to_string(path)?;
    let mut lines = TextCursor::new(&text);
    let header = lines.next_line()?;
    if header != HEADER {
        return Err(CheckpointError::Parse(format!("bad header {header:?}")));
    }
    let model_line = lines.next_line()?;
    let model_name = model_line
        .strip_prefix("model ")
        .ok_or_else(|| CheckpointError::Parse(format!("bad model line {model_line:?}")))?
        .to_string();
    let count_line = lines.next_line()?;
    let count: usize = count_line
        .strip_prefix("params ")
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| CheckpointError::Parse(format!("bad params line {count_line:?}")))?;
    let mut matrices = Vec::with_capacity(lines.claimed(Some(count), count_line)?);
    for m in 0..count {
        matrices.push(lines.read_matrix(m)?);
    }
    for leftover in lines.rest() {
        if !leftover.trim().is_empty() {
            return Err(CheckpointError::Parse(format!(
                "trailing garbage after {count} matrices: {leftover:?}"
            )));
        }
    }
    Ok((model_name, matrices))
}

/// Load a checkpoint into an existing `model` (shapes must match).
pub fn load_into(model: &mut dyn Model, path: &Path) -> Result<(), CheckpointError> {
    let (_, matrices) = load_matrices(path)?;
    if matrices.len() != model.params().len() {
        return Err(CheckpointError::Parse(format!(
            "checkpoint has {} parameters, model expects {}",
            matrices.len(),
            model.params().len()
        )));
    }
    for (slot, (p, m)) in model.params().iter().zip(&matrices).enumerate() {
        if p.shape() != m.shape() {
            return Err(CheckpointError::ShapeMismatch {
                slot,
                expected: p.shape(),
                found: m.shape(),
            });
        }
    }
    model.params_mut().clone_from_slice(&matrices);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GraphContext;
    use crate::gcn::{Gcn, GcnConfig};
    use crate::predictor::PredictorExt;
    use rdd_graph::SynthConfig;
    use rdd_tensor::seeded_rng;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rdd_ckpt_{name}_{}", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(1);
        let model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let before = model.predictor(&ctx).logits();

        let path = tmp("roundtrip");
        save(&model, &path).expect("save");
        let mut restored = Gcn::new(&ctx, GcnConfig::citation(), &mut seeded_rng(999));
        load_into(&mut restored, &path).expect("load");
        let after = restored.predictor(&ctx).logits();
        assert!(
            before.max_abs_diff(&after) < 1e-5,
            "predictions changed after reload"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(2);
        let model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let path = tmp("mismatch");
        save(&model, &path).expect("save");
        // A wider hidden layer cannot absorb the checkpoint.
        let mut other = Gcn::new(
            &ctx,
            GcnConfig {
                hidden: vec![32],
                ..GcnConfig::citation()
            },
            &mut rng,
        );
        let err = load_into(&mut other, &path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ShapeMismatch { .. }),
            "got {err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_is_a_parse_error() {
        let path = tmp("corrupt");
        std::fs::write(&path, "not a checkpoint").expect("write");
        let err = load_matrices(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "got {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let model = Gcn::new(&ctx, GcnConfig::citation(), &mut seeded_rng(4));
        let path = tmp("trailing");
        save(&model, &path).expect("save");
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("1.0 2.0 3.0\n");
        std::fs::write(&path, text).expect("write");
        let err = load_matrices(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "got {err}");
        assert!(err.to_string().contains("trailing"), "got {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_values_are_rejected() {
        for bad in ["NaN", "inf", "-inf"] {
            let path = tmp(&format!("nonfinite_{}", bad.trim_start_matches('-')));
            let text = format!("rdd-checkpoint v1\nmodel GCN\nparams 1\nmatrix 1 2\n0.5 {bad}\n");
            std::fs::write(&path, text).expect("write");
            let err = load_matrices(&path).unwrap_err();
            assert!(matches!(err, CheckpointError::Parse(_)), "got {err}");
            assert!(err.to_string().contains("non-finite"), "got {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("rdd_ckpt_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("target.txt");
        atomic_write(&path, "first\n").expect("write 1");
        atomic_write(&path, "second\n").expect("write 2");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_matrices(Path::new("/nonexistent/ckpt.txt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn metadata_preserved() {
        let data = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&data);
        let mut rng = seeded_rng(3);
        let model = Gcn::new(&ctx, GcnConfig::citation(), &mut rng);
        let path = tmp("meta");
        save(&model, &path).expect("save");
        let (name, mats) = load_matrices(&path).expect("load");
        assert_eq!(name, "GCN");
        assert_eq!(mats.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
