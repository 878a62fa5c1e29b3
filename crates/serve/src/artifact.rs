//! The frozen model artifact: one versioned, checksummed file distilled
//! from a completed crash-safe run directory.
//!
//! v1 layout (text, mirroring the checkpoint format so the same tooling
//! habits apply):
//!
//! ```text
//! rdd-artifact v1
//! meta {"dataset":{...},"source":...,"members":...,"alphas":[...],"alpha_total":...}
//! matrix <n> <k>
//! <n rows of k floats>          # Σ α_t · proba_t
//! checksum <16 hex digits>      # FNV-1a 64 over every preceding byte
//! ```
//!
//! Floats are written with Rust's shortest-roundtrip `Display`, so a load
//! reproduces the exporter's values bitwise — and because the file stores
//! the ensemble's *running sum* plus `alpha_total` (not the normalized
//! proba), [`AnyArtifact::load`] performs the exact same
//! `sum · (1/alpha_total)` scaling as `Ensemble::proba`, keeping served
//! responses bit-identical to the live run's.
//!
//! The quantized v2q layout (`rdd export --quantize int8`) swaps the
//! `matrix` block for a `qmatrix` block whose rows are int8-quantized and
//! base64-packed (see [`crate::quant`]):
//!
//! ```text
//! rdd-artifact v2q
//! meta {...}                    # identical meta line
//! qmatrix <n> <k> int8
//! <n base64 lines: [scale f32 LE][zero f32 LE][k codes]>
//! checksum <16 hex digits>      # same FNV-1a 64 discipline
//! ```
//!
//! A v2q load dequantizes into the same dense sum the v1 path produces,
//! so the serve engine, cache and [`Predictor`] contract are format-blind.
//! v2q trades the v1 bitwise guarantee for ~0.3× the bytes; the drift is
//! bounded per row by half a quant step and is measurable with
//! `rdd artifact-info --reference`.
//!
//! The v3 layout (a distilled student's weight matrices) is described in
//! [`crate::mlp_artifact`]. Every format loads into the one
//! [`AnyArtifact`].

use std::path::Path;

use rdd_core::{Ensemble, RunState};
use rdd_models::{
    gather_prediction, mlp_forward_features, push_matrix, PredictError, PredictRequest, Prediction,
    PredictionKind, Predictor, TextCursor,
};
use rdd_obs::Json;
use rdd_tensor::Matrix;

use crate::error::{RddError, ServeError};
use crate::mlp_artifact::parse_student;
use crate::quant;

/// First line of a full-precision v1 artifact.
pub const HEADER: &str = "rdd-artifact v1";

/// First line of an int8-quantized v2q artifact.
pub const HEADER_V2Q: &str = "rdd-artifact v2q";

/// First line of a distilled-MLP v3 artifact (weight matrices, not
/// per-node sums; see [`crate::mlp_artifact`]).
pub const HEADER_V3_MLP: &str = "rdd-artifact v3 (mlp)";

/// Which on-disk encoding an artifact was loaded from (or should be
/// written in) — the single source of truth for version-string checks
/// and for what request shapes each format can answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactFormat {
    /// Full-precision decimal text; loads reproduce the exporter bitwise.
    V1,
    /// Per-row affine int8, base64-packed; lossy but ~0.3× the size.
    V2q,
    /// A distilled graph-free MLP student: weight matrices (optionally
    /// int8-quantized per block) instead of per-node distribution sums.
    V3Mlp,
}

impl ArtifactFormat {
    const ALL: [ArtifactFormat; 3] = [
        ArtifactFormat::V1,
        ArtifactFormat::V2q,
        ArtifactFormat::V3Mlp,
    ];

    /// The format's header line.
    pub fn header(self) -> &'static str {
        match self {
            ArtifactFormat::V1 => HEADER,
            ArtifactFormat::V2q => HEADER_V2Q,
            ArtifactFormat::V3Mlp => HEADER_V3_MLP,
        }
    }

    /// Short name for CLI output (`v1` / `v2q` / `v3-mlp`).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactFormat::V1 => "v1",
            ArtifactFormat::V2q => "v2q",
            ArtifactFormat::V3Mlp => "v3-mlp",
        }
    }

    /// Whether this format answers raw feature-vector requests
    /// (`PredictRequest::ByFeatures`). Only the MLP student can — it
    /// stores weight matrices and needs no adjacency.
    pub fn supports_features(self) -> bool {
        matches!(self, ArtifactFormat::V3Mlp)
    }

    /// Whether this format answers node-id requests
    /// (`PredictRequest::ByNodes` / `All`). Node-sum formats do; the MLP
    /// student stores no per-node rows.
    pub fn supports_nodes(self) -> bool {
        !matches!(self, ArtifactFormat::V3Mlp)
    }
}

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty for
/// integrity (corruption, truncation), which is all the checksum guards.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything about the artifact except the matrices.
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactMeta {
    /// Dataset name the run was trained on.
    pub dataset_name: String,
    /// Number of nodes.
    pub dataset_n: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Dataset source string (preset name or TSV directory).
    pub source: String,
    /// Number of kept ensemble members.
    pub members: usize,
    /// Per-member ensemble weights `α_t`, in push order.
    pub alphas: Vec<f32>,
    /// `Σ α_t`.
    pub alpha_total: f32,
}

impl ArtifactMeta {
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "dataset".into(),
                Json::Obj(vec![
                    ("name".into(), Json::from(self.dataset_name.as_str())),
                    ("n".into(), Json::from(self.dataset_n)),
                    ("num_classes".into(), Json::from(self.num_classes)),
                ]),
            ),
            ("source".into(), Json::from(self.source.as_str())),
            ("members".into(), Json::from(self.members)),
            ("alphas".into(), Json::from(self.alphas.clone())),
            ("alpha_total".into(), Json::from(self.alpha_total)),
        ])
    }

    pub(crate) fn from_json(json: &Json) -> Result<Self, String> {
        let dataset = json.get("dataset").ok_or("meta missing 'dataset'")?;
        let str_of = |obj: &Json, key: &str| -> Result<String, String> {
            Ok(obj
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("meta missing string '{key}'"))?
                .to_string())
        };
        let usize_of = |obj: &Json, key: &str| -> Result<usize, String> {
            let v = obj
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("meta missing number '{key}'"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("meta '{key}' is not a non-negative integer: {v}"));
            }
            Ok(v as usize)
        };
        let alphas = json
            .get("alphas")
            .and_then(Json::as_arr)
            .ok_or("meta missing array 'alphas'")?
            .iter()
            .map(|v| v.as_f64().map(|x| x as f32))
            .collect::<Option<Vec<f32>>>()
            .ok_or("meta 'alphas' holds a non-number")?;
        let alpha_total = json
            .get("alpha_total")
            .and_then(Json::as_f64)
            .ok_or("meta missing number 'alpha_total'")? as f32;
        Ok(Self {
            dataset_name: str_of(dataset, "name")?,
            dataset_n: usize_of(dataset, "n")?,
            num_classes: usize_of(dataset, "num_classes")?,
            source: str_of(json, "source")?,
            members: usize_of(json, "members")?,
            alphas,
            alpha_total,
        })
    }

    /// Cross-field validation shared by the exporter and the loader.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.members == 0 {
            return Err("artifact has zero members".into());
        }
        if self.alphas.len() != self.members {
            return Err(format!(
                "meta declares {} members but lists {} alphas",
                self.members,
                self.alphas.len()
            ));
        }
        if let Some(a) = self.alphas.iter().find(|a| !(a.is_finite() && **a > 0.0)) {
            return Err(format!("non-positive ensemble weight {a}"));
        }
        if !(self.alpha_total.is_finite() && self.alpha_total > 0.0) {
            return Err(format!("non-positive alpha_total {}", self.alpha_total));
        }
        // alpha_total is the left-fold of the alphas in push order; the
        // same fold here must reproduce it bitwise.
        let refold: f32 = self.alphas.iter().sum();
        if refold.to_bits() != self.alpha_total.to_bits() {
            return Err(format!(
                "alpha_total {} does not match the sum of alphas {refold}",
                self.alpha_total
            ));
        }
        Ok(())
    }
}

pub(crate) fn push_qmatrix(out: &mut String, m: &Matrix) {
    use std::fmt::Write as _;
    let (r, c) = m.shape();
    let _ = writeln!(out, "qmatrix {r} {c} int8");
    for i in 0..r {
        out.push_str(&quant::encode_qrow(&quant::quantize_row(m.row(i))));
        out.push('\n');
    }
}

/// Validate `meta`, then atomically write one artifact file: the
/// `format`'s header line, the `meta` line, whatever `body` appends, and
/// the `checksum` trailer over every preceding byte. Returns the checksum.
/// Every artifact format is written through here, and read back through
/// [`open_sealed`].
pub(crate) fn write_sealed(
    path: &Path,
    format: ArtifactFormat,
    meta: &ArtifactMeta,
    body: impl FnOnce(&mut String),
) -> Result<u64, ServeError> {
    meta.validate().map_err(ServeError::Artifact)?;
    let mut text = String::new();
    text.push_str(format.header());
    text.push('\n');
    text.push_str("meta ");
    meta.to_json().write(&mut text);
    text.push('\n');
    body(&mut text);
    let checksum = fnv1a64(text.as_bytes());
    use std::fmt::Write as _;
    let _ = writeln!(text, "checksum {checksum:016x}");
    rdd_models::atomic_write(path, &text).map_err(ServeError::Io)?;
    Ok(checksum)
}

/// A verified artifact file, as [`open_sealed`] hands it to the body
/// parser its format names.
struct Sealed<'a> {
    /// The format its header line names.
    format: ArtifactFormat,
    /// The parsed and validated meta line.
    meta: ArtifactMeta,
    /// The lines between the meta line and the checksum trailer.
    body: TextCursor<'a>,
    /// The verified file checksum.
    checksum: u64,
}

/// Verify `text`'s checksum trailer, then read its header and meta lines.
/// The checksum comes first, so corruption anywhere surfaces as
/// [`ServeError::Checksum`], not as a random parse failure deeper in. A
/// header that names no known `rdd-artifact` format is
/// [`ServeError::WrongVersion`].
fn open_sealed(text: &str) -> Result<Sealed<'_>, ServeError> {
    let body_end = text
        .rfind("\nchecksum ")
        .ok_or_else(|| ServeError::Artifact("missing checksum line".into()))?
        + 1;
    let stored_line = text[body_end..].trim_end();
    let stored = stored_line
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| ServeError::Artifact(format!("bad checksum line {stored_line:?}")))?;
    if !text[body_end..].ends_with('\n') {
        return Err(ServeError::Artifact(
            "missing newline after checksum line".into(),
        ));
    }
    if text[body_end..].lines().count() != 1 {
        return Err(ServeError::Artifact(
            "trailing garbage after checksum line".into(),
        ));
    }
    let computed = fnv1a64(&text.as_bytes()[..body_end]);
    if computed != stored {
        return Err(ServeError::Checksum { stored, computed });
    }

    let mut body = TextCursor::new(&text[..body_end]);
    let header = body.next_line()?;
    let format = match ArtifactFormat::ALL
        .into_iter()
        .find(|f| f.header() == header)
    {
        Some(format) => format,
        _ if header.starts_with("rdd-artifact") => {
            return Err(ServeError::WrongVersion {
                found: header.to_string(),
            })
        }
        _ => {
            return Err(ServeError::Artifact(format!(
                "not an rdd artifact (first line {header:?})"
            )))
        }
    };
    let meta_line = body.next_line()?;
    let meta_src = meta_line
        .strip_prefix("meta ")
        .ok_or_else(|| ServeError::Artifact("line 2: expected 'meta {{...}}'".into()))?;
    let meta_json = rdd_obs::parse(meta_src)
        .map_err(|e| ServeError::Artifact(format!("bad meta json: {e}")))?;
    let meta = ArtifactMeta::from_json(&meta_json).map_err(ServeError::Artifact)?;
    meta.validate().map_err(ServeError::Artifact)?;
    Ok(Sealed {
        format,
        meta,
        body,
        checksum: stored,
    })
}

/// Serialize and atomically write an artifact in the given format.
pub fn write_artifact_as(
    path: &Path,
    meta: &ArtifactMeta,
    proba_sum: &Matrix,
    format: ArtifactFormat,
) -> Result<u64, ServeError> {
    if proba_sum.shape() != (meta.dataset_n, meta.num_classes) {
        return Err(ServeError::Artifact(format!(
            "proba_sum shape {:?} does not match dataset ({} x {})",
            proba_sum.shape(),
            meta.dataset_n,
            meta.num_classes
        )));
    }
    let push = match format {
        ArtifactFormat::V1 => push_matrix,
        ArtifactFormat::V2q => push_qmatrix,
        ArtifactFormat::V3Mlp => {
            return Err(ServeError::Artifact(
                "v3 (mlp) artifacts hold student weight matrices, not ensemble sums; \
                 write them with write_mlp_artifact"
                    .into(),
            ))
        }
    };
    write_sealed(path, format, meta, |text| push(text, proba_sum))
}

/// Distill a **completed** crash-safe run directory into a single artifact
/// file in `format` (`rdd export`; `--quantize int8` →
/// [`ArtifactFormat::V2q`]). Zero re-training: the kept members' frozen
/// outputs are replayed (bitwise-verified against the stored
/// `ensemble.sums` by [`RunState::load_ensemble`]) and the running sum
/// written out.
pub fn export_run_as(
    run_dir: &Path,
    artifact_path: &Path,
    format: ArtifactFormat,
) -> Result<AnyArtifact, RddError> {
    let state = RunState::load(run_dir)?;
    if !state.is_complete() {
        return Err(ServeError::Artifact(format!(
            "run {} is not complete ({} members committed); finish or `rdd resume` it first",
            run_dir.display(),
            state.next_member()
        ))
        .into());
    }
    let ensemble = state.load_ensemble()?;
    let Some(proba_sum) = ensemble.proba_sum() else {
        return Err(ServeError::Artifact(format!(
            "run {} kept no ensemble members; nothing to serve",
            run_dir.display()
        ))
        .into());
    };
    let (n, k) = state.dataset_shape();
    let meta = ArtifactMeta {
        dataset_name: state.dataset_name().to_string(),
        dataset_n: n,
        num_classes: k,
        source: state.source().to_string(),
        members: ensemble.len(),
        alphas: ensemble.alphas(),
        alpha_total: ensemble.alpha_total(),
    };
    write_artifact_as(artifact_path, &meta, proba_sum, format)?;
    Ok(AnyArtifact::load(artifact_path)?)
}

/// Export a live [`Ensemble`] in `format` (no run directory) — the
/// test/bench path.
pub fn write_ensemble_as(
    path: &Path,
    ensemble: &Ensemble,
    dataset_name: &str,
    source: &str,
    format: ArtifactFormat,
) -> Result<u64, ServeError> {
    let proba_sum = ensemble
        .proba_sum()
        .ok_or_else(|| ServeError::Artifact("empty ensemble".into()))?;
    let meta = ArtifactMeta {
        dataset_name: dataset_name.to_string(),
        dataset_n: proba_sum.rows(),
        num_classes: proba_sum.cols(),
        source: source.to_string(),
        members: ensemble.len(),
        alphas: ensemble.alphas(),
        alpha_total: ensemble.alpha_total(),
    };
    write_artifact_as(path, &meta, proba_sum, format)
}

pub(crate) fn parse_qmatrix(
    lines: &mut TextCursor<'_>,
    tier: rdd_tensor::SimdTier,
) -> Result<Matrix, ServeError> {
    let header = lines.next_line()?;
    let dims: Vec<&str> = header.split_whitespace().collect();
    let (r, c) = match dims.as_slice() {
        ["qmatrix", r, c, "int8"] => (
            r.parse::<usize>()
                .map_err(|_| ServeError::Artifact(format!("bad qmatrix rows: {header:?}")))?,
            c.parse::<usize>()
                .map_err(|_| ServeError::Artifact(format!("bad qmatrix cols: {header:?}")))?,
        ),
        _ => {
            return Err(ServeError::Artifact(format!(
                "line {}: expected 'qmatrix R C int8', found {header:?}",
                lines.line_no()
            )))
        }
    };
    lines.claimed(r.checked_mul(c), header)?;
    let mut out = Matrix::zeros(r, c);
    for i in 0..r {
        let row = lines.next_line()?;
        let line = lines.line_no();
        let qr = quant::decode_qrow(row, c)
            .map_err(|e| ServeError::Artifact(format!("line {line}: {e}")))?;
        if !(qr.scale.is_finite() && qr.scale >= 0.0) {
            return Err(ServeError::QuantScale {
                line,
                value: qr.scale,
            });
        }
        if !qr.zero.is_finite() {
            return Err(ServeError::QuantZeroPoint {
                line,
                value: qr.zero,
            });
        }
        quant::dequantize_row(tier, &qr, out.row_mut(i));
    }
    Ok(out)
}

/// A loaded, validated artifact of any format: the frozen ensemble (v1,
/// v2q) or the distilled graph-free student (v3) as one [`Predictor`].
/// `rdd serve`, `rdd artifact-info` and the hot-swap watcher all load
/// through [`AnyArtifact::load`], so they take either kind
/// interchangeably — capability differences surface through
/// [`ArtifactFormat::supports_nodes`] / [`ArtifactFormat::supports_features`]
/// and typed [`PredictError`]s, never through separate entry points.
#[derive(Clone, Debug)]
pub struct AnyArtifact {
    /// The teacher run's metadata (provenance only for a student).
    meta: ArtifactMeta,
    format: ArtifactFormat,
    /// FNV-1a 64 of the file content (also the serve cache's key epoch).
    checksum: u64,
    body: Body,
}

/// What an artifact's body holds, by format.
#[derive(Clone, Debug)]
enum Body {
    /// v1/v2q: the stored `Σ α_t · proba_t`, scaled in place by
    /// `1/alpha_total` at load.
    Ensemble { proba: Matrix },
    /// v3: the student's weight matrices, first to last, and whether they
    /// were int8-quantized on disk.
    Student {
        params: Vec<Matrix>,
        quantized: bool,
    },
}

impl AnyArtifact {
    /// Load and fully validate an artifact file of any format: checksum
    /// first, then header/version, meta, and the body its header names
    /// (block shapes, finiteness, and for a student the declared `mlp`
    /// shape line and layer chain).
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let text = std::fs::read_to_string(path)?;
        let Sealed {
            format,
            meta,
            body: mut lines,
            checksum,
        } = open_sealed(&text)?;
        let body = match format {
            ArtifactFormat::V1 | ArtifactFormat::V2q => parse_ensemble(format, &meta, &mut lines)?,
            ArtifactFormat::V3Mlp => {
                let (params, quantized) = parse_student(&meta, &mut lines)?;
                Body::Student { params, quantized }
            }
        };
        if lines.peek().is_some() {
            return Err(ServeError::Artifact(
                "trailing garbage before checksum line".into(),
            ));
        }
        Ok(Self {
            meta,
            format,
            checksum,
            body,
        })
    }

    /// The artifact's metadata (the teacher run's meta for a distilled
    /// student).
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The on-disk encoding.
    pub fn format(&self) -> ArtifactFormat {
        self.format
    }

    /// The file checksum (the serve cache's key epoch).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The ensemble's served `n x k` probabilities, the rows node
    /// requests copy. `None` for a v3 student, which stores weight
    /// matrices instead of per-node rows.
    pub fn proba(&self) -> Option<&Matrix> {
        match &self.body {
            Body::Ensemble { proba } => Some(proba),
            Body::Student { .. } => None,
        }
    }

    /// The student's weight matrices, first to last. `None` for an
    /// ensemble artifact.
    pub fn student_params(&self) -> Option<&[Matrix]> {
        match &self.body {
            Body::Ensemble { .. } => None,
            Body::Student { params, .. } => Some(params),
        }
    }

    /// Whether the artifact's matrices were int8-quantized on disk.
    pub fn quantized(&self) -> bool {
        match &self.body {
            Body::Ensemble { .. } => self.format == ArtifactFormat::V2q,
            Body::Student { quantized, .. } => *quantized,
        }
    }
}

/// Parse a v1/v2q body: the ensemble's proba sum, shaped like the meta's
/// dataset.
fn parse_ensemble(
    format: ArtifactFormat,
    meta: &ArtifactMeta,
    lines: &mut TextCursor<'_>,
) -> Result<Body, ServeError> {
    let mut proba = if format == ArtifactFormat::V2q {
        parse_qmatrix(lines, rdd_tensor::simd::active())?
    } else {
        lines.read_matrix(0)?
    };
    if proba.shape() != (meta.dataset_n, meta.num_classes) {
        return Err(ServeError::Artifact(format!(
            "proba_sum shape {:?} does not match meta ({} x {})",
            proba.shape(),
            meta.dataset_n,
            meta.num_classes
        )));
    }
    // The exact normalization Ensemble::proba applies (`scaled` is a clone
    // plus this) — this is what keeps served rows bitwise equal to the
    // live run.
    proba.scale_assign(1.0 / meta.alpha_total);
    Ok(Body::Ensemble { proba })
}

impl Predictor for AnyArtifact {
    /// The training graph's node count (provenance only for a student,
    /// which rejects node requests regardless).
    fn num_nodes(&self) -> usize {
        self.meta.dataset_n
    }

    fn num_classes(&self) -> usize {
        self.meta.num_classes
    }

    /// An ensemble copies stored rows; a student answers dense feature
    /// rows through the canonical [`mlp_forward_features`] pass and a row
    /// softmax — the one code path shared with every offline comparison,
    /// which is what makes served feature replies bitwise-reproducible.
    fn predict_batch(&self, req: &PredictRequest) -> Result<Prediction, PredictError> {
        let params = match &self.body {
            Body::Ensemble { proba } => return gather_prediction(proba, req),
            Body::Student { params, .. } => params,
        };
        let PredictRequest::ByFeatures(rows) = req else {
            return Err(PredictError::NodesUnsupported {
                predictor: "mlp artifact",
            });
        };
        let in_dim = params[0].rows();
        if rows.cols() != in_dim {
            return Err(PredictError::FeatureDimMismatch {
                got: rows.cols(),
                expected: in_dim,
            });
        }
        let proba = mlp_forward_features(params, rows).softmax_rows();
        Ok(Prediction {
            nodes: (0..rows.rows()).collect(),
            pred: proba.argmax_rows(),
            proba,
            kind: PredictionKind::Features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    fn tiny_meta() -> ArtifactMeta {
        ArtifactMeta {
            dataset_name: "unit".into(),
            dataset_n: 2,
            num_classes: 2,
            source: "unit-test".into(),
            members: 2,
            alphas: vec![1.5, 0.5],
            alpha_total: 2.0,
        }
    }

    #[test]
    fn meta_json_roundtrips() {
        let meta = tiny_meta();
        let back = ArtifactMeta::from_json(&meta.to_json()).expect("parse");
        assert_eq!(back, meta);
    }

    #[test]
    fn meta_validation_rejects_inconsistencies() {
        let mut m = tiny_meta();
        m.alphas = vec![1.0];
        assert!(m.validate().unwrap_err().contains("alphas"));
        let mut m = tiny_meta();
        m.alpha_total = 3.0;
        assert!(m.validate().unwrap_err().contains("alpha_total"));
        let mut m = tiny_meta();
        m.alphas[0] = -1.0;
        assert!(m.validate().unwrap_err().contains("weight"));
        let mut m = tiny_meta();
        m.members = 0;
        m.alphas.clear();
        m.alpha_total = 0.0;
        assert!(m.validate().unwrap_err().contains("zero members"));
    }
}
