//! Golden run bytes: a crash-safe `tiny` cascade, the MLP student
//! distilled from it, and the replies served from both must keep their
//! bytes.
//!
//! Every kernel gives each output element one summation order per SIMD
//! tier, so the run directory is a function of the seed and the tier
//! alone. This test pins it: it trains a 3-member cascade into a temporary
//! run directory under each tier the CPU has, exports the run as a v1 and
//! a v2q artifact (`rdd export` and `rdd export --quantize int8`),
//! distills the run (`DistillConfig::fast`) and writes the v3 student as
//! f32 and as int8, hashes every file with FNV-1a-64 (the manifest without
//! its `wall_time_s` values) and compares the digests with the constants
//! below. It then serves one fixed request stream from the v1 export and
//! one from the f32 student through `ServePool` at 1 and 2 workers,
//! renders the replies as `rdd serve` writes them, and pins one digest per
//! stream (`served.v1`, `served.v3`), which must not depend on the worker
//! count.
//!
//! It is registered under `rdd-serve`, the crate that writes artifacts.
//!
//! The constants belong to x86_64 Linux with glibc: the scalar tier calls
//! libm's `expf`/`logf`, whose last bits may differ on another target or
//! libc, so elsewhere the test is ignored. When a change is *meant* to move
//! the bits, the failure message prints the new table in this file's
//! syntax.
//!
//! This is its own test binary: `simd::force_active` switches the tier for
//! the whole process, which would race the tests that compare two runs.

use std::path::{Path, PathBuf};

use rdd_core::{distill_run, DistillConfig, RddConfig, RddTrainer, RunState};
use rdd_graph::SynthConfig;
use rdd_models::Model;
use rdd_serve::{
    export_run_as, wire, write_mlp_artifact, AnyArtifact, ArtifactFormat, ArtifactMeta, PoolConfig,
    ServePool,
};
use rdd_tensor::simd::{self, SimdTier};

/// FNV-1a, 64-bit: a fixed, documented hash (unlike `DefaultHasher`,
/// whose algorithm may change between Rust releases).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The manifest with every `"wall_time_s":<number>` removed (the same
/// edit as `sed -E 's/"wall_time_s":[^,}]*//g'`).
fn strip_wall_time(manifest: &str) -> String {
    const KEY: &str = "\"wall_time_s\":";
    let mut out = String::with_capacity(manifest.len());
    let mut rest = manifest;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at]);
        let value = &rest[at + KEY.len()..];
        rest = &value[value.find([',', '}']).unwrap_or(value.len())..];
    }
    out.push_str(rest);
    out
}

/// Digest of every file in `dir`, sorted by name.
fn digests(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("read run dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let bytes = std::fs::read(&path).expect("read run file");
            let digest = if name == "manifest.json" {
                let text = String::from_utf8(bytes).expect("manifest is UTF-8");
                fnv1a64(strip_wall_time(&text).as_bytes())
            } else {
                fnv1a64(&bytes)
            };
            (name, digest)
        })
        .collect();
    out.sort();
    out
}

fn run_digests(tier: SimdTier) -> Vec<(String, u64)> {
    simd::force_active(tier);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("rdd_golden_{}_{}", tier.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = SynthConfig::tiny().generate();
    let mut cfg = RddConfig::fast();
    cfg.num_base_models = 3;
    RddTrainer::new(cfg)
        .run_crash_safe(&data, &dir, "tiny")
        .expect("crash-safe run");
    let mut got = digests(&dir);
    let exports = dir.with_extension("exports");
    got.extend(export_digests(&dir, &exports));
    let students = dir.with_extension("students");
    got.extend(student_digests(&dir, &data, &students));
    got.extend(served_digests(
        &exports.join("export.v1"),
        &students.join("student.f32"),
        &data,
    ));
    for d in [&dir, &exports, &students] {
        let _ = std::fs::remove_dir_all(d);
    }
    got
}

/// Export the run in `dir` the way `rdd export` does, as v1
/// (`export.v1`) and as int8 v2q (`export.v2q`) into `exports`, and digest
/// both files.
fn export_digests(dir: &Path, exports: &Path) -> Vec<(String, u64)> {
    std::fs::create_dir_all(exports).expect("export dir");
    [
        ("export.v1", ArtifactFormat::V1),
        ("export.v2q", ArtifactFormat::V2q),
    ]
    .into_iter()
    .map(|(name, format)| {
        let path = exports.join(name);
        export_run_as(dir, &path, format).expect("export run");
        (
            name.to_string(),
            fnv1a64(&std::fs::read(&path).expect("read export")),
        )
    })
    .collect()
}

/// Distill the run in `dir` the way `rdd distill-mlp --fast` does and
/// digest the v3 student written into `students` as f32 (`student.f32`)
/// and as int8 (`student.int8`).
fn student_digests(dir: &Path, data: &rdd_graph::Dataset, students: &Path) -> Vec<(String, u64)> {
    let state = RunState::load(dir).expect("load run dir");
    let out = distill_run(&state, data, &DistillConfig::fast()).expect("distill");
    let (n, k) = state.dataset_shape();
    let meta = ArtifactMeta {
        dataset_name: state.dataset_name().to_string(),
        dataset_n: n,
        num_classes: k,
        source: state.source().to_string(),
        members: out.teacher_alphas.len(),
        alphas: out.teacher_alphas.clone(),
        alpha_total: out.teacher_alpha_total,
    };
    std::fs::create_dir_all(students).expect("student dir");
    [("student.f32", false), ("student.int8", true)]
        .into_iter()
        .map(|(name, quantize)| {
            let path = students.join(name);
            write_mlp_artifact(&path, &meta, out.student.params(), quantize)
                .expect("write student artifact");
            (
                name.to_string(),
                fnv1a64(&std::fs::read(&path).expect("read student")),
            )
        })
        .collect()
}

/// Serve a fixed request stream from the v1 artifact (one node, several
/// nodes with a repeat, the whole graph, an out-of-range id) and one from
/// the v3 student (a flat feature row, which takes the wire scanner, and
/// a batch of rows, which takes the general parser) at 1 and 2 workers,
/// and digest each stream's replies (`served.v1`, `served.v3`).
fn served_digests(v1: &Path, v3: &Path, data: &rdd_graph::Dataset) -> Vec<(String, u64)> {
    let features = data.features.to_dense();
    let row = |i: usize| {
        let values: Vec<String> = features.row(i).iter().map(f32::to_string).collect();
        format!("[{}]", values.join(","))
    };
    let node_lines = [
        r#"{"id":0,"nodes":[5]}"#.to_string(),
        r#"{"id":1,"nodes":[0,17,299,17]}"#.to_string(),
        r#"{"id":2}"#.to_string(),
        r#"{"id":3,"nodes":[4,300]}"#.to_string(),
    ];
    let feature_lines = [
        format!(r#"{{"id":0,"features":{}}}"#, row(3)),
        format!(
            r#"{{"id":1,"features":[{},{},{}]}}"#,
            row(0),
            row(150),
            row(299)
        ),
    ];
    [
        ("served.v1", v1, &node_lines[..]),
        ("served.v3", v3, &feature_lines[..]),
    ]
    .into_iter()
    .map(|(name, path, lines)| {
        let one = fnv1a64(serve_stream(path, lines, 1).as_bytes());
        let two = fnv1a64(serve_stream(path, lines, 2).as_bytes());
        assert_eq!(one, two, "{name}: replies at 2 workers differ from 1");
        (name.to_string(), one)
    })
    .collect()
}

/// Parse `lines` with `rdd serve`'s wire parser, submit them to a
/// `ServePool` of `workers` over the artifact at `path`, and render every
/// reply as `rdd serve` does, sorted by request id. `latency_ms` and
/// `cache_hits` are zeroed: they depend on timing and on how requests fall
/// into batches, not on the served bytes.
fn serve_stream(path: &Path, lines: &[String], workers: usize) -> String {
    let artifact = AnyArtifact::load(path).expect("load artifact");
    let checksum = artifact.checksum();
    let cfg = PoolConfig {
        workers,
        ..PoolConfig::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let pool = ServePool::new(artifact, cfg, checksum, tx).expect("serve pool");
    for (i, line) in lines.iter().enumerate() {
        let (id, req, _) = wire::parse_line(&Ok(line.clone()), i as u64)
            .expect("non-blank line")
            .expect("well-formed request");
        pool.submit(id, req).expect("admitted");
    }
    pool.shutdown();
    let mut replies: Vec<_> = rx.try_iter().collect();
    assert_eq!(replies.len(), lines.len(), "one reply per request");
    replies.sort_by_key(|r| r.id);
    let mut out = String::new();
    for mut reply in replies {
        reply.latency_ms = 0.0;
        reply.cache_hits = 0;
        wire::reply_json(&reply).write(&mut out);
        out.push('\n');
    }
    out
}

fn table(digests: &[(String, u64)]) -> String {
    digests
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect()
}

const SCALAR: &[(&str, u64)] = &[
    ("ensemble.sums", 0x20313fa4de48adcd),
    ("manifest.json", 0x0ea6176c8d81c3ac),
    ("member-000.out", 0x8103429d17a2b127),
    ("member-000.params", 0xfe0837c913d258e0),
    ("member-001.out", 0x2579cf0d05029293),
    ("member-001.params", 0x44c881042a0cae1f),
    ("member-002.out", 0xb95327d9a05b43f2),
    ("member-002.params", 0x2117e094e6025715),
    ("export.v1", 0xa3e7cab47c98de31),
    ("export.v2q", 0x01e97e2b3fc16095),
    ("student.f32", 0x9f55db96db690301),
    ("student.int8", 0xc9c3926ff25f5f62),
    ("served.v1", 0x6b4aab47f1d3f359),
    ("served.v3", 0xdf917be9fe083ad1),
];

const AVX2: &[(&str, u64)] = &[
    ("ensemble.sums", 0x81a55e810cf36e8e),
    ("manifest.json", 0xca76d95bf0ddaaf5),
    ("member-000.out", 0xcba9870146f14c21),
    ("member-000.params", 0xd7c9c9c34831fb65),
    ("member-001.out", 0x5eaa163d32fee25d),
    ("member-001.params", 0x4398fbbdf963cb9c),
    ("member-002.out", 0x7a50323ba0df1233),
    ("member-002.params", 0xdde2444bbf5a627c),
    ("export.v1", 0xe6ca513569fbe403),
    ("export.v2q", 0xac9a965135a98d3f),
    ("student.f32", 0x15502b8b4d7d33d2),
    ("student.int8", 0x22bf8c08a9e3ce83),
    ("served.v1", 0xebb508dabcfa9bf7),
    ("served.v3", 0xf7e597e1b854c76d),
];

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")),
    ignore = "the golden digests are pinned for x86_64 Linux with glibc"
)]
fn run_bytes_match_golden_digests() {
    for (tier, golden) in [(SimdTier::Scalar, SCALAR), (SimdTier::Avx2, AVX2)] {
        if !simd::available(tier) {
            continue;
        }
        let got = run_digests(tier);
        let want: Vec<(String, u64)> = golden.iter().map(|&(n, d)| (n.to_string(), d)).collect();
        assert_eq!(
            got,
            want,
            "{} tier: run bytes moved; the new table is\n{}",
            tier.name(),
            table(&got)
        );
    }
}

#[test]
fn strip_wall_time_removes_every_value() {
    assert_eq!(
        strip_wall_time(r#"{"a":1,"wall_time_s":0.25,"m":[{"wall_time_s":3e-2}]}"#),
        r#"{"a":1,,"m":[{}]}"#
    );
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}
