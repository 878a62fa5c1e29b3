//! The v3 (mlp) artifact: a distilled graph-free student frozen as weight
//! matrices.
//!
//! v1/v2q artifacts store the ensemble's per-node distribution sums, so
//! they can only answer for the nodes the run trained on. `rdd distill-mlp`
//! trains an MLP student against the frozen ensemble (see
//! `rdd_core::distill`) and exports its weights instead:
//!
//! ```text
//! rdd-artifact v3 (mlp)
//! meta {...}                 # the teacher run's ArtifactMeta (provenance)
//! mlp <in_dim> <k> <layers>  # declared student shape, cross-checked
//! matrix <d0> <d1>           # W0   (or `qmatrix <d0> <d1> int8` blocks
//! <d0 rows of d1 floats>     #       with --quantize int8)
//! ...                        # W1..W_{L-1}
//! checksum <16 hex digits>   # same FNV-1a 64 discipline as v1/v2q
//! ```
//!
//! A v3 file loads into the one [`crate::AnyArtifact`], which answers
//! `PredictRequest::ByFeatures` — any row count, fixed feature dim, **no
//! adjacency** — through the canonical dense forward
//! [`rdd_models::mlp_forward_features`], the same function every offline
//! comparison calls, so served feature replies are bitwise identical to the
//! offline student forward. Node-id requests are rejected with a typed
//! `PredictError::NodesUnsupported`: there are no per-node rows to read.

use std::path::Path;

use rdd_models::{push_matrix, validate_layer_chain, TextCursor};
use rdd_tensor::Matrix;

use crate::artifact::{parse_qmatrix, push_qmatrix, write_sealed, ArtifactFormat, ArtifactMeta};
use crate::error::ServeError;

/// Serialize and atomically write a v3 (mlp) artifact: the student's
/// weight matrices under the teacher run's meta. `quantize` swaps each
/// `matrix` block for an int8 `qmatrix` block (lossy, ~0.3× the bytes).
/// Returns the file checksum.
pub fn write_mlp_artifact(
    path: &Path,
    meta: &ArtifactMeta,
    params: &[Matrix],
    quantize: bool,
) -> Result<u64, ServeError> {
    validate_layer_chain(params).map_err(ServeError::Artifact)?;
    let k = params[params.len() - 1].cols();
    if k != meta.num_classes {
        return Err(ServeError::Artifact(format!(
            "student emits {k} classes but meta declares {}",
            meta.num_classes
        )));
    }
    let push = if quantize { push_qmatrix } else { push_matrix };
    write_sealed(path, ArtifactFormat::V3Mlp, meta, |text| {
        use std::fmt::Write as _;
        let _ = writeln!(text, "mlp {} {} {}", params[0].rows(), k, params.len());
        for w in params {
            push(text, w);
        }
    })
}

/// Parse a v3 body: the declared `mlp` shape line, then every weight block
/// (consistent encoding, consistent layer chain, finite values). Returns
/// the weights, first to last, and whether they were int8-quantized.
pub(crate) fn parse_student(
    meta: &ArtifactMeta,
    lines: &mut TextCursor<'_>,
) -> Result<(Vec<Matrix>, bool), ServeError> {
    let shape_line = lines.next_line()?;
    let toks: Vec<&str> = shape_line.split_whitespace().collect();
    let (in_dim, k, layers) = match toks.as_slice() {
        ["mlp", d, k, l] => {
            let parse = |tok: &str| -> Result<usize, ServeError> {
                tok.parse::<usize>()
                    .map_err(|_| ServeError::Artifact(format!("bad mlp shape line {shape_line:?}")))
            };
            (parse(d)?, parse(k)?, parse(l)?)
        }
        _ => {
            return Err(ServeError::Artifact(format!(
                "line 3: expected 'mlp IN_DIM K LAYERS', found {shape_line:?}"
            )))
        }
    };
    if layers == 0 {
        return Err(ServeError::Artifact("mlp declares zero layers".into()));
    }
    if k != meta.num_classes {
        return Err(ServeError::Artifact(format!(
            "mlp line declares {k} classes but meta declares {}",
            meta.num_classes
        )));
    }

    let tier = rdd_tensor::simd::active();
    let mut params = Vec::with_capacity(lines.claimed(Some(layers), shape_line)?);
    let mut quantized = None;
    for l in 0..layers {
        // Sniff the block keyword without consuming it; the block parsers
        // own their header lines.
        let kw = lines
            .peek()
            .and_then(|line| line.split_whitespace().next())
            .unwrap_or("");
        let (w, is_q) = match kw {
            "matrix" => (lines.read_matrix(l)?, false),
            "qmatrix" => (parse_qmatrix(lines, tier)?, true),
            _ => {
                return Err(ServeError::Artifact(format!(
                    "layer {l}: expected a matrix or qmatrix block, found {kw:?}"
                )))
            }
        };
        if *quantized.get_or_insert(is_q) != is_q {
            return Err(ServeError::Artifact(format!(
                "layer {l}: mixed matrix/qmatrix encodings in one artifact"
            )));
        }
        params.push(w);
    }
    validate_layer_chain(&params).map_err(ServeError::Artifact)?;
    if params[0].rows() != in_dim {
        return Err(ServeError::Artifact(format!(
            "mlp line declares in_dim {in_dim} but layer 0 has {} rows",
            params[0].rows()
        )));
    }
    if params[layers - 1].cols() != k {
        return Err(ServeError::Artifact(format!(
            "mlp line declares {k} classes but the last layer emits {}",
            params[layers - 1].cols()
        )));
    }
    Ok((params, quantized.unwrap_or(false)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{fnv1a64, AnyArtifact};
    use rdd_models::{
        mlp_forward_features, PredictError, PredictRequest, PredictionKind, Predictor,
    };
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdd_mlp_unit_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture(in_dim: usize, hidden: usize, k: usize) -> (ArtifactMeta, Vec<Matrix>) {
        let meta = ArtifactMeta {
            dataset_name: "unit".into(),
            dataset_n: 9,
            num_classes: k,
            source: "unit-test".into(),
            members: 2,
            alphas: vec![1.5, 0.5],
            alpha_total: 2.0,
        };
        let gen = |r: usize, c: usize, salt: usize| {
            let data: Vec<f32> = (0..r * c)
                .map(|i| ((i * 37 + salt) % 97) as f32 / 29.0 - 1.5)
                .collect();
            Matrix::from_vec(r, c, data)
        };
        (meta, vec![gen(in_dim, hidden, 1), gen(hidden, k, 11)])
    }

    fn rows(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |i, j| ((i * 13 + j * 7) % 19) as f32 * 0.1)
    }

    #[test]
    fn roundtrip_serves_features_bitwise() {
        let dir = tmpdir("roundtrip");
        let (meta, params) = fixture(6, 5, 3);
        let path = dir.join("s.artifact");
        let checksum = write_mlp_artifact(&path, &meta, &params, false).unwrap();
        let art = AnyArtifact::load(&path).unwrap();
        assert_eq!(art.checksum(), checksum);
        assert_eq!(art.format(), ArtifactFormat::V3Mlp);
        assert!(!art.quantized());
        let loaded = art.student_params().unwrap();
        assert_eq!(loaded[0].rows(), 6);
        assert_eq!(loaded.len(), 2);
        assert_eq!(art.num_classes(), 3);
        // Full-precision weights roundtrip bitwise (shortest-roundtrip
        // Display), so the served forward equals the in-memory forward.
        let batch = rows(4, 6);
        let served = art
            .predict_batch(&PredictRequest::features(batch.clone()))
            .unwrap();
        assert_eq!(served.kind, PredictionKind::Features);
        assert_eq!(served.nodes, vec![0, 1, 2, 3]);
        let offline = mlp_forward_features(&params, &batch).softmax_rows();
        let same = served
            .proba
            .as_slice()
            .iter()
            .zip(offline.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "served feature rows must be bitwise vs offline");
    }

    #[test]
    fn quantized_roundtrip_is_close_not_bitwise() {
        let dir = tmpdir("quant");
        let (meta, params) = fixture(6, 5, 3);
        let path = dir.join("q.artifact");
        write_mlp_artifact(&path, &meta, &params, true).unwrap();
        let art = AnyArtifact::load(&path).unwrap();
        assert!(art.quantized());
        for (orig, loaded) in params.iter().zip(art.student_params().unwrap()) {
            assert_eq!(orig.shape(), loaded.shape());
            assert!(
                orig.max_abs_diff(loaded) < 0.05,
                "int8 drift {} too large",
                orig.max_abs_diff(loaded)
            );
        }
    }

    #[test]
    fn node_requests_are_typed_unsupported() {
        let dir = tmpdir("nodes");
        let (meta, params) = fixture(4, 3, 2);
        let path = dir.join("n.artifact");
        write_mlp_artifact(&path, &meta, &params, false).unwrap();
        let art = AnyArtifact::load(&path).unwrap();
        for req in [PredictRequest::all(), PredictRequest::nodes(vec![0])] {
            assert!(matches!(
                art.predict_batch(&req),
                Err(PredictError::NodesUnsupported {
                    predictor: "mlp artifact"
                })
            ));
        }
    }

    #[test]
    fn feature_dim_mismatch_is_typed() {
        let dir = tmpdir("dim");
        let (meta, params) = fixture(4, 3, 2);
        let path = dir.join("d.artifact");
        write_mlp_artifact(&path, &meta, &params, false).unwrap();
        let art = AnyArtifact::load(&path).unwrap();
        let err = art
            .predict_batch(&PredictRequest::features(rows(2, 5)))
            .unwrap_err();
        assert_eq!(
            err,
            PredictError::FeatureDimMismatch {
                got: 5,
                expected: 4
            }
        );
    }

    #[test]
    fn writer_rejects_broken_chains_and_wrong_classes() {
        let dir = tmpdir("reject");
        let (meta, _) = fixture(4, 3, 2);
        let path = dir.join("x.artifact");
        let broken = vec![Matrix::zeros(4, 3), Matrix::zeros(5, 2)];
        assert!(write_mlp_artifact(&path, &meta, &broken, false).is_err());
        let wrong_k = vec![Matrix::zeros(4, 3), Matrix::zeros(3, 7)];
        let err = write_mlp_artifact(&path, &meta, &wrong_k, false).unwrap_err();
        assert!(err.to_string().contains("7 classes"), "{err}");
        assert!(write_mlp_artifact(&path, &meta, &[], false).is_err());
    }

    #[test]
    fn corruption_is_a_checksum_error_and_a_v1_header_is_not_a_student() {
        let dir = tmpdir("corrupt");
        let (meta, params) = fixture(4, 3, 2);
        let path = dir.join("c.artifact");
        write_mlp_artifact(&path, &meta, &params, false).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("mlp 4", "mlp 5", 1)).unwrap();
        assert!(matches!(
            AnyArtifact::load(&path),
            Err(ServeError::Checksum { .. })
        ));
        // A re-checksummed tampered shape line fails the cross-check.
        let mutated = text.replacen("mlp 4", "mlp 5", 1);
        let body_end = mutated.rfind("\nchecksum ").unwrap() + 1;
        let checksum = fnv1a64(&mutated.as_bytes()[..body_end]);
        std::fs::write(
            &path,
            format!("{}checksum {checksum:016x}\n", &mutated[..body_end]),
        )
        .unwrap();
        match AnyArtifact::load(&path) {
            Err(ServeError::Artifact(msg)) => assert!(msg.contains("in_dim"), "{msg}"),
            other => panic!("expected a shape error, got {other:?}", other = other.err()),
        }
        // A student body under a v1 header is parsed as v1 and refused,
        // never served as a student.
        let v1 = text.replacen(crate::artifact::HEADER_V3_MLP, crate::artifact::HEADER, 1);
        let body_end = v1.rfind("\nchecksum ").unwrap() + 1;
        let checksum = fnv1a64(&v1.as_bytes()[..body_end]);
        std::fs::write(
            &path,
            format!("{}checksum {checksum:016x}\n", &v1[..body_end]),
        )
        .unwrap();
        match AnyArtifact::load(&path) {
            Err(ServeError::Artifact(msg)) => assert!(msg.contains("matrix"), "{msg}"),
            other => panic!(
                "expected a v1 parse error, got {other:?}",
                other = other.err()
            ),
        }
    }
}
