//! Node-range-sharded artifacts: one export split into K checksummed
//! shard files plus a manifest.
//!
//! [`write_sharded`] cuts the node axis into K contiguous ranges and
//! writes each range as a **complete, self-validating artifact** in the
//! usual v1/v2q encoding (same alphas, same `alpha_total`, `dataset_n` =
//! the shard's row count), so every shard loads through the untouched
//! [`Artifact::load`] path and its rows are bitwise identical to the same
//! rows of the unsharded export — the normalization `sum · (1/alpha_total)`
//! uses the same scalar either way. The manifest ties them together:
//!
//! ```text
//! rdd-artifact-manifest v1
//! meta {...}                          # the full (unsharded) meta line
//! shard 0 0 906 <16 hex> <filename>   # index, [start, end), file checksum
//! shard 1 906 1812 <16 hex> <filename>
//! ...
//! checksum <16 hex digits>            # FNV-1a 64 over every preceding byte
//! ```
//!
//! [`ShardedArtifact::load`] verifies the manifest checksum first, loads
//! every shard, cross-checks each file's checksum against the recorded
//! one, and rejects gaps, overlaps, or shards whose meta disagrees with
//! the manifest's. Requests route by node id → range (each node id maps to
//! exactly one shard) behind the same [`Predictor`] trait, so the serve
//! engine, pool and cache never know whether an artifact is sharded.
//! [`AnyArtifact`] sniffs the first line and loads either kind.

use std::path::{Path, PathBuf};

use rdd_core::RunState;
use rdd_models::{PredictError, PredictRequest, Prediction, PredictionKind, Predictor};
use rdd_tensor::Matrix;

use crate::artifact::{
    fnv1a64, write_artifact_as, Artifact, ArtifactFormat, ArtifactMeta, HEADER_V3_MLP,
};
use crate::error::{RddError, ServeError};
use crate::mlp_artifact::MlpArtifact;

/// First line of a shard manifest.
pub const MANIFEST_HEADER: &str = "rdd-artifact-manifest v1";

/// Split `n` rows into `shards` contiguous `[start, end)` ranges, as even
/// as possible (the first `n % shards` ranges get one extra row). Requires
/// `1 <= shards <= n`.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards >= 1 && shards <= n, "need 1 <= shards <= rows");
    let base = n / shards;
    let extra = n % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

fn slice_rows(m: &Matrix, start: usize, end: usize) -> Matrix {
    let k = m.cols();
    Matrix::from_vec(end - start, k, m.as_slice()[start * k..end * k].to_vec())
}

fn shard_file_name(manifest: &Path, index: usize) -> Result<String, ServeError> {
    let name = manifest
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| {
            ServeError::Artifact(format!("bad manifest path {:?}", manifest.display()))
        })?;
    Ok(format!("{name}.shard{index}"))
}

/// Write `shards` checksummed shard artifacts (`<path>.shard<i>`, each in
/// `format`) plus the manifest at `path`. Returns the manifest checksum.
pub fn write_sharded(
    path: &Path,
    meta: &ArtifactMeta,
    proba_sum: &Matrix,
    logits_sum: &Matrix,
    format: ArtifactFormat,
    shards: usize,
) -> Result<u64, ServeError> {
    meta.validate().map_err(ServeError::Artifact)?;
    if shards < 1 {
        return Err(ServeError::Artifact("cannot export 0 shards".into()));
    }
    if shards > meta.dataset_n {
        return Err(ServeError::Artifact(format!(
            "cannot split {} rows into {shards} shards",
            meta.dataset_n
        )));
    }
    for (name, m) in [("proba_sum", proba_sum), ("logits_sum", logits_sum)] {
        if m.shape() != (meta.dataset_n, meta.num_classes) {
            return Err(ServeError::Artifact(format!(
                "{name} shape {:?} does not match dataset ({} x {})",
                m.shape(),
                meta.dataset_n,
                meta.num_classes
            )));
        }
    }
    let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
    use std::fmt::Write as _;
    let mut text = String::new();
    text.push_str(MANIFEST_HEADER);
    text.push('\n');
    text.push_str("meta ");
    meta.to_json().write(&mut text);
    text.push('\n');
    for (i, (start, end)) in shard_ranges(meta.dataset_n, shards).into_iter().enumerate() {
        let shard_meta = ArtifactMeta {
            dataset_n: end - start,
            ..meta.clone()
        };
        let file = shard_file_name(path, i)?;
        let checksum = write_artifact_as(
            &dir.join(&file),
            &shard_meta,
            &slice_rows(proba_sum, start, end),
            &slice_rows(logits_sum, start, end),
            format,
        )?;
        let _ = writeln!(text, "shard {i} {start} {end} {checksum:016x} {file}");
    }
    let checksum = fnv1a64(text.as_bytes());
    let _ = writeln!(text, "checksum {checksum:016x}");
    rdd_models::atomic_write(path, &text).map_err(ServeError::Io)?;
    Ok(checksum)
}

/// [`crate::export_run_as`], but sharded: distill a completed crash-safe
/// run directory into `shards` checksummed shard artifacts plus the
/// manifest at `artifact_path`, and load the composed result back.
pub fn export_run_sharded(
    run_dir: &Path,
    artifact_path: &Path,
    format: ArtifactFormat,
    shards: usize,
) -> Result<ShardedArtifact, RddError> {
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
    let (proba_sum, logits_sum) = match (ensemble.proba_sum(), ensemble.logits_sum()) {
        (Some(ps), Some(ls)) => (ps, ls),
        _ => {
            return Err(ServeError::Artifact(format!(
                "run {} kept no ensemble members; nothing to serve",
                run_dir.display()
            ))
            .into())
        }
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
    write_sharded(artifact_path, &meta, proba_sum, logits_sum, format, shards)?;
    Ok(ShardedArtifact::load(artifact_path)?)
}

/// A loaded, fully cross-validated shard set behind one [`Predictor`].
#[derive(Clone, Debug)]
pub struct ShardedArtifact {
    meta: ArtifactMeta,
    format: ArtifactFormat,
    /// FNV-1a 64 of the manifest (the composed artifact's cache epoch —
    /// it commits to every shard checksum, so it changes iff any shard
    /// content changes).
    checksum: u64,
    shards: Vec<Artifact>,
    /// Start row of each shard; shard `i` covers
    /// `starts[i]..starts[i] + shards[i].num_nodes()`.
    starts: Vec<usize>,
}

impl ShardedArtifact {
    /// Load a manifest and every shard it references. Validation order:
    /// manifest checksum, manifest structure, then per-shard load (each
    /// shard's own checksum) + cross-checks (recorded checksum, contiguous
    /// complete coverage, meta consistency).
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let text = std::fs::read_to_string(path)?;
        let body_end = text
            .rfind("\nchecksum ")
            .ok_or_else(|| ServeError::Artifact("missing checksum line".into()))?
            + 1;
        let stored_line = text[body_end..].trim_end();
        let stored = stored_line
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| ServeError::Artifact(format!("bad checksum line {stored_line:?}")))?;
        if !text[body_end..].ends_with('\n') || text[body_end..].lines().count() != 1 {
            return Err(ServeError::Artifact(
                "trailing garbage after checksum line".into(),
            ));
        }
        let computed = fnv1a64(&text.as_bytes()[..body_end]);
        if computed != stored {
            return Err(ServeError::Checksum { stored, computed });
        }

        let mut lines = text[..body_end].lines();
        let header = lines
            .next()
            .ok_or_else(|| ServeError::Artifact("empty manifest".into()))?;
        if header != MANIFEST_HEADER {
            if header.starts_with("rdd-artifact") {
                return Err(ServeError::WrongVersion {
                    found: header.to_string(),
                });
            }
            return Err(ServeError::Artifact(format!(
                "not an rdd artifact manifest (first line {header:?})"
            )));
        }
        let meta_line = lines
            .next()
            .ok_or_else(|| ServeError::Artifact("manifest truncated at line 2".into()))?;
        let meta_src = meta_line
            .strip_prefix("meta ")
            .ok_or_else(|| ServeError::Artifact("line 2: expected 'meta {{...}}'".into()))?;
        let meta_json = rdd_obs::parse(meta_src)
            .map_err(|e| ServeError::Artifact(format!("bad meta json: {e}")))?;
        let meta = ArtifactMeta::from_json(&meta_json).map_err(ServeError::Artifact)?;
        meta.validate().map_err(ServeError::Artifact)?;

        let dir: PathBuf = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let mut shards: Vec<Artifact> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        let mut covered = 0usize;
        for (line_no, line) in lines.enumerate() {
            let toks: Vec<&str> = line.split_whitespace().collect();
            let err =
                |msg: String| ServeError::Artifact(format!("manifest line {}: {msg}", line_no + 3));
            let [kw, idx, start, end, checksum, file] = toks.as_slice() else {
                return Err(err(format!(
                    "expected 'shard I START END CHECKSUM FILE', found {line:?}"
                )));
            };
            if *kw != "shard" {
                return Err(err(format!("expected a shard line, found {line:?}")));
            }
            let parse = |tok: &str| -> Result<usize, ServeError> {
                tok.parse::<usize>()
                    .map_err(|_| err(format!("bad number {tok:?}")))
            };
            let (idx, start, end) = (parse(idx)?, parse(start)?, parse(end)?);
            let recorded = u64::from_str_radix(checksum, 16)
                .map_err(|_| err(format!("bad checksum {checksum:?}")))?;
            if idx != shards.len() {
                return Err(err(format!("shard index {idx}, expected {}", shards.len())));
            }
            if start != covered {
                return Err(err(format!(
                    "shard {idx} starts at {start}, expected {covered} (gap or overlap)"
                )));
            }
            if end <= start || end > meta.dataset_n {
                return Err(err(format!(
                    "shard {idx} range [{start}, {end}) is empty or exceeds {} rows",
                    meta.dataset_n
                )));
            }
            // Chaos site: `corrupt@shard_load` makes this shard read fail
            // with a typed corruption error, exercising swap rollback
            // (the live generation must keep serving).
            if rdd_obs::fault::fire("shard_load") == Some(rdd_obs::FaultKind::Corrupt) {
                return Err(ServeError::Artifact(format!(
                    "{file}: injected corruption (RDD_FAULT corrupt@shard_load)"
                )));
            }
            let shard = Artifact::load(&dir.join(file))?;
            if shard.checksum() != recorded {
                return Err(err(format!(
                    "shard {idx} ({file}): manifest records checksum {recorded:016x} \
                     but the file has {:016x}",
                    shard.checksum()
                )));
            }
            let sm = shard.meta();
            let consistent = sm.dataset_n == end - start
                && sm.num_classes == meta.num_classes
                && sm.dataset_name == meta.dataset_name
                && sm.source == meta.source
                && sm.members == meta.members
                && sm.alpha_total.to_bits() == meta.alpha_total.to_bits()
                && sm.alphas.len() == meta.alphas.len()
                && sm
                    .alphas
                    .iter()
                    .zip(&meta.alphas)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !consistent {
                return Err(err(format!(
                    "shard {idx} ({file}): meta disagrees with the manifest's"
                )));
            }
            if let Some(first) = shards.first() {
                if shard.format() != first.format() {
                    return Err(err(format!(
                        "shard {idx} ({file}): format {} but shard 0 is {}",
                        shard.format().name(),
                        first.format().name()
                    )));
                }
            }
            covered = end;
            starts.push(start);
            shards.push(shard);
        }
        if shards.is_empty() {
            return Err(ServeError::Artifact("manifest lists no shards".into()));
        }
        if covered != meta.dataset_n {
            return Err(ServeError::Artifact(format!(
                "shards cover {covered} of {} rows",
                meta.dataset_n
            )));
        }
        let format = shards[0].format();
        Ok(Self {
            meta,
            format,
            checksum: stored,
            shards,
            starts,
        })
    }

    /// The full (unsharded) metadata.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The encoding every shard uses.
    pub fn format(&self) -> ArtifactFormat {
        self.format
    }

    /// The manifest checksum (the composed artifact's cache epoch).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The loaded shards, in node order.
    pub fn shards(&self) -> &[Artifact] {
        &self.shards
    }

    fn stack(&self, get: impl Fn(&Artifact) -> &Matrix) -> Matrix {
        let len = self.shards.iter().map(|s| get(s).as_slice().len()).sum();
        let mut data = Vec::with_capacity(len);
        for shard in &self.shards {
            data.extend_from_slice(get(shard).as_slice());
        }
        Matrix::from_vec(self.meta.dataset_n, self.meta.num_classes, data)
    }

    /// The composed `Σ α_t · proba_t` (shard rows concatenated in node
    /// order — bitwise equal to the unsharded export's).
    pub fn proba_sum(&self) -> Matrix {
        self.stack(Artifact::proba_sum)
    }

    /// The composed `Σ α_t · logits_t`.
    pub fn logits_sum(&self) -> Matrix {
        self.stack(Artifact::logits_sum)
    }

    /// Route a node id to `(shard index, row within that shard)`. Ranges
    /// are contiguous and complete, so every in-range id maps to exactly
    /// one shard.
    pub fn route(&self, node: usize) -> Result<(usize, usize), PredictError> {
        if node >= self.meta.dataset_n {
            return Err(PredictError::NodeOutOfRange {
                node,
                num_nodes: self.meta.dataset_n,
            });
        }
        let shard = self.starts.partition_point(|&s| s <= node) - 1;
        Ok((shard, node - self.starts[shard]))
    }

    fn predict_nodes(&self, ids: &[usize]) -> Result<Prediction, PredictError> {
        // Group the request per shard (local row ids), remembering where
        // each requested row lands so the reply keeps request order.
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut slots: Vec<(usize, usize)> = Vec::with_capacity(ids.len());
        for &id in ids {
            let (shard, local) = self.route(id)?;
            slots.push((shard, per_shard[shard].len()));
            per_shard[shard].push(local);
        }
        let mut partials: Vec<Option<Prediction>> = Vec::with_capacity(self.shards.len());
        for (shard, locals) in self.shards.iter().zip(&per_shard) {
            partials.push(if locals.is_empty() {
                None
            } else {
                Some(shard.predict_batch(&PredictRequest::nodes(locals.clone()))?)
            });
        }
        let k = self.meta.num_classes;
        let mut proba = Matrix::zeros(ids.len(), k);
        let mut pred = Vec::with_capacity(ids.len());
        for (r, &(shard, pos)) in slots.iter().enumerate() {
            let p = partials[shard].as_ref().expect("routed shard executed");
            proba.row_mut(r).copy_from_slice(p.proba.row(pos));
            pred.push(p.pred[pos]);
        }
        Ok(Prediction {
            nodes: ids.to_vec(),
            proba,
            pred,
            kind: PredictionKind::Node,
        })
    }
}

impl Predictor for ShardedArtifact {
    fn num_nodes(&self) -> usize {
        self.meta.dataset_n
    }

    fn num_classes(&self) -> usize {
        self.meta.num_classes
    }

    fn predict_batch(&self, req: &PredictRequest) -> Result<Prediction, PredictError> {
        match req {
            PredictRequest::ByNodes(ids) => self.predict_nodes(ids),
            PredictRequest::All => {
                self.predict_nodes(&(0..self.meta.dataset_n).collect::<Vec<_>>())
            }
            PredictRequest::ByFeatures(_) => Err(PredictError::FeaturesUnsupported {
                predictor: "sharded artifact",
            }),
        }
    }
}

/// Any artifact kind behind one loader: sniffs the first line, then
/// delegates to [`Artifact::load`], [`ShardedArtifact::load`] or
/// [`MlpArtifact::load`]. This is what the CLI serves from, so `rdd serve`
/// and `rdd artifact-info` take a single file, a manifest, or a distilled
/// student interchangeably — capability differences surface through
/// [`ArtifactFormat::supports_nodes`] / [`ArtifactFormat::supports_features`]
/// and typed [`PredictError`]s, never through separate entry points.
#[derive(Clone, Debug)]
pub enum AnyArtifact {
    /// One single-file ensemble artifact (v1 or v2q).
    Single(Artifact),
    /// A manifest-composed shard set.
    Sharded(ShardedArtifact),
    /// A distilled graph-free MLP student (v3), feature-vector requests
    /// only.
    Mlp(MlpArtifact),
}

impl AnyArtifact {
    /// Load `path` as whichever artifact kind its first line declares.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        use std::io::BufRead as _;
        let file = std::fs::File::open(path)?;
        let mut first = String::new();
        std::io::BufReader::new(file).read_line(&mut first)?;
        let first = first.trim_end();
        if first == MANIFEST_HEADER {
            Ok(AnyArtifact::Sharded(ShardedArtifact::load(path)?))
        } else if first == HEADER_V3_MLP {
            Ok(AnyArtifact::Mlp(MlpArtifact::load(path)?))
        } else {
            Ok(AnyArtifact::Single(Artifact::load(path)?))
        }
    }

    /// The artifact's metadata (the full meta for a shard set; the teacher
    /// run's meta for a distilled student).
    pub fn meta(&self) -> &ArtifactMeta {
        match self {
            AnyArtifact::Single(a) => a.meta(),
            AnyArtifact::Sharded(s) => s.meta(),
            AnyArtifact::Mlp(m) => m.meta(),
        }
    }

    /// The on-disk encoding (every shard of a set shares one).
    pub fn format(&self) -> ArtifactFormat {
        match self {
            AnyArtifact::Single(a) => a.format(),
            AnyArtifact::Sharded(s) => s.format(),
            AnyArtifact::Mlp(m) => m.format(),
        }
    }

    /// The cache-epoch checksum: the file checksum for a single artifact,
    /// the manifest checksum (which commits to every shard) for a set.
    pub fn checksum(&self) -> u64 {
        match self {
            AnyArtifact::Single(a) => a.checksum(),
            AnyArtifact::Sharded(s) => s.checksum(),
            AnyArtifact::Mlp(m) => m.checksum(),
        }
    }

    /// Number of shards (1 for any single-file artifact).
    pub fn num_shards(&self) -> usize {
        match self {
            AnyArtifact::Single(_) | AnyArtifact::Mlp(_) => 1,
            AnyArtifact::Sharded(s) => s.num_shards(),
        }
    }

    /// The distilled student, when this is a v3 artifact.
    pub fn as_mlp(&self) -> Option<&MlpArtifact> {
        match self {
            AnyArtifact::Mlp(m) => Some(m),
            _ => None,
        }
    }

    /// The (composed) `Σ α_t · proba_t`, cloned out. `None` for a v3
    /// student, which stores weight matrices instead of per-node sums.
    pub fn proba_sum(&self) -> Option<Matrix> {
        match self {
            AnyArtifact::Single(a) => Some(a.proba_sum().clone()),
            AnyArtifact::Sharded(s) => Some(s.proba_sum()),
            AnyArtifact::Mlp(_) => None,
        }
    }

    /// The (composed) `Σ α_t · logits_t`, cloned out. `None` for a v3
    /// student.
    pub fn logits_sum(&self) -> Option<Matrix> {
        match self {
            AnyArtifact::Single(a) => Some(a.logits_sum().clone()),
            AnyArtifact::Sharded(s) => Some(s.logits_sum()),
            AnyArtifact::Mlp(_) => None,
        }
    }
}

impl Predictor for AnyArtifact {
    fn num_nodes(&self) -> usize {
        match self {
            AnyArtifact::Single(a) => a.num_nodes(),
            AnyArtifact::Sharded(s) => s.num_nodes(),
            AnyArtifact::Mlp(m) => m.num_nodes(),
        }
    }

    fn num_classes(&self) -> usize {
        match self {
            AnyArtifact::Single(a) => a.num_classes(),
            AnyArtifact::Sharded(s) => s.num_classes(),
            AnyArtifact::Mlp(m) => m.num_classes(),
        }
    }

    fn predict_batch(&self, req: &PredictRequest) -> Result<Prediction, PredictError> {
        match self {
            AnyArtifact::Single(a) => a.predict_batch(req),
            AnyArtifact::Sharded(s) => s.predict_batch(req),
            AnyArtifact::Mlp(m) => m.predict_batch(req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdd_shard_unit_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture(n: usize, k: usize) -> (ArtifactMeta, Matrix, Matrix) {
        let meta = ArtifactMeta {
            dataset_name: "unit".into(),
            dataset_n: n,
            num_classes: k,
            source: "unit-test".into(),
            members: 2,
            alphas: vec![1.5, 0.5],
            alpha_total: 2.0,
        };
        let gen = |salt: usize| {
            let data: Vec<f32> = (0..n * k)
                .map(|i| ((i * 37 + salt) % 97) as f32 / 29.0 + 0.125)
                .collect();
            Matrix::from_vec(n, k, data)
        };
        (meta, gen(1), gen(11))
    }

    #[test]
    fn ranges_are_contiguous_complete_and_even() {
        assert_eq!(shard_ranges(10, 1), vec![(0, 10)]);
        assert_eq!(shard_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(shard_ranges(9, 3), vec![(0, 3), (3, 6), (6, 9)]);
        assert_eq!(shard_ranges(3, 3), vec![(0, 1), (1, 2), (2, 3)]);
        for (n, s) in [(100, 7), (5, 5), (64, 8)] {
            let r = shard_ranges(n, s);
            assert_eq!(r.len(), s);
            assert_eq!(r[0].0, 0);
            assert_eq!(r[s - 1].1, n);
            for w in r.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            let (min, max) = r
                .iter()
                .map(|(a, b)| b - a)
                .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
            assert!(max - min <= 1, "even split");
        }
    }

    #[test]
    fn sharded_write_load_matches_unsharded_bitwise() {
        let dir = tmpdir("bitwise");
        let (meta, ps, ls) = fixture(11, 3);
        let single_path = dir.join("single.artifact");
        write_artifact_as(&single_path, &meta, &ps, &ls, ArtifactFormat::V1).unwrap();
        let single = Artifact::load(&single_path).unwrap();
        let manifest = dir.join("set.artifact");
        write_sharded(&manifest, &meta, &ps, &ls, ArtifactFormat::V1, 3).unwrap();
        let sharded = ShardedArtifact::load(&manifest).unwrap();
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.num_nodes(), 11);
        let a = single.predict_batch(&PredictRequest::all()).unwrap();
        let b = sharded.predict_batch(&PredictRequest::all()).unwrap();
        assert_eq!(a.pred, b.pred);
        let same = a
            .proba
            .as_slice()
            .iter()
            .zip(b.proba.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "sharded rows must be bitwise equal to unsharded");
        // Subsets route across shard boundaries with order and duplicates.
        let req = PredictRequest::nodes(vec![10, 0, 5, 10]);
        let a = single.predict_batch(&req).unwrap();
        let b = sharded.predict_batch(&req).unwrap();
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.proba.as_slice(), b.proba.as_slice());
    }

    #[test]
    fn every_node_routes_to_exactly_one_shard() {
        let dir = tmpdir("route");
        let (meta, ps, ls) = fixture(23, 2);
        let manifest = dir.join("r.artifact");
        write_sharded(&manifest, &meta, &ps, &ls, ArtifactFormat::V1, 4).unwrap();
        let s = ShardedArtifact::load(&manifest).unwrap();
        let mut per_shard = vec![0usize; s.num_shards()];
        for node in 0..23 {
            let (shard, local) = s.route(node).unwrap();
            assert!(local < s.shards()[shard].num_nodes());
            per_shard[shard] += 1;
        }
        assert_eq!(per_shard.iter().sum::<usize>(), 23);
        assert!(per_shard.iter().all(|&c| c > 0));
        assert!(matches!(
            s.route(23),
            Err(PredictError::NodeOutOfRange { node: 23, .. })
        ));
    }

    #[test]
    fn manifest_corruption_is_a_checksum_error() {
        let dir = tmpdir("corrupt");
        let (meta, ps, ls) = fixture(8, 2);
        let manifest = dir.join("c.artifact");
        write_sharded(&manifest, &meta, &ps, &ls, ArtifactFormat::V1, 2).unwrap();
        let text = std::fs::read_to_string(&manifest).unwrap();
        let mutated = text.replacen("shard 0 0", "shard 0 1", 1);
        std::fs::write(&manifest, &mutated).unwrap();
        assert!(matches!(
            ShardedArtifact::load(&manifest),
            Err(ServeError::Checksum { .. })
        ));
        // Re-checksumming the tampered body gets past integrity and into
        // the structural gap check.
        let body_end = mutated.rfind("\nchecksum ").unwrap() + 1;
        let checksum = fnv1a64(&mutated.as_bytes()[..body_end]);
        std::fs::write(
            &manifest,
            format!("{}checksum {checksum:016x}\n", &mutated[..body_end]),
        )
        .unwrap();
        match ShardedArtifact::load(&manifest) {
            Err(ServeError::Artifact(msg)) => assert!(msg.contains("gap or overlap"), "{msg}"),
            other => panic!(
                "expected a structural error, got {other:?}",
                other = other.err()
            ),
        }
    }

    #[test]
    fn unknown_manifest_version_is_wrong_version() {
        let dir = tmpdir("version");
        let path = dir.join("v.artifact");
        let body = "rdd-artifact-manifest v9\nmeta {}\n";
        let checksum = fnv1a64(body.as_bytes());
        std::fs::write(&path, format!("{body}checksum {checksum:016x}\n")).unwrap();
        assert!(matches!(
            ShardedArtifact::load(&path),
            Err(ServeError::WrongVersion { .. })
        ));
    }

    #[test]
    fn any_artifact_sniffs_both_kinds() {
        let dir = tmpdir("any");
        let (meta, ps, ls) = fixture(6, 2);
        let single = dir.join("one.artifact");
        write_artifact_as(&single, &meta, &ps, &ls, ArtifactFormat::V2q).unwrap();
        let manifest = dir.join("many.artifact");
        write_sharded(&manifest, &meta, &ps, &ls, ArtifactFormat::V2q, 2).unwrap();
        let one = AnyArtifact::load(&single).unwrap();
        let many = AnyArtifact::load(&manifest).unwrap();
        assert!(matches!(one, AnyArtifact::Single(_)));
        assert!(matches!(many, AnyArtifact::Sharded(_)));
        assert_eq!(one.num_shards(), 1);
        assert_eq!(many.num_shards(), 2);
        assert_eq!(one.format(), ArtifactFormat::V2q);
        assert_eq!(many.meta().dataset_n, 6);
        // v2q shards dequantize row-by-row, so composition is still
        // bitwise vs. the single v2q file.
        let a = one.predict_batch(&PredictRequest::all()).unwrap();
        let b = many.predict_batch(&PredictRequest::all()).unwrap();
        let same = a
            .proba
            .as_slice()
            .iter()
            .zip(b.proba.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "v2q sharded rows must match the single v2q file");
    }

    #[test]
    fn single_loader_rejects_a_manifest() {
        let dir = tmpdir("reject");
        let (meta, ps, ls) = fixture(4, 2);
        let manifest = dir.join("m.artifact");
        write_sharded(&manifest, &meta, &ps, &ls, ArtifactFormat::V1, 2).unwrap();
        assert!(matches!(
            Artifact::load(&manifest),
            Err(ServeError::WrongVersion { .. })
        ));
    }
}
