//! Command implementations for the `rdd` CLI.
//!
//! Every command returns [`RddError`] — the crate-spanning error from
//! `rdd-serve` — so run-directory, checkpoint, dataset-IO, config, and
//! serving failures all reach the user through one `Display` path.

use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use rdd_baselines::lp::{predict as lp_predict, LpConfig};
use rdd_baselines::{bagging, bans, BansConfig};
use rdd_core::{distill_run, DistillConfig, RddConfig, RddTrainer, RunState};
use rdd_graph::{io, Dataset, DatasetStats, SynthConfig};
use rdd_models::{
    float_text::push_f32, push_rows, train as train_model, Gat, GatConfig, Gcn, GcnConfig,
    GraphContext, PredictRequest, Predictor, PredictorExt, TrainConfig,
};
use rdd_obs::{gate, TraceSummary};
use rdd_serve::wire::{self, error_line, reply_json};
use rdd_serve::{
    export_run_as, quant, write_mlp_artifact, AnyArtifact, ArtifactFormat, ArtifactMeta,
    ArtifactWatcher, BreakerConfig, PoolConfig, RddError, ServeConfig, ServePool, ServeReply,
    WatchOutcome,
};
use rdd_tensor::{seeded_rng, Matrix};

use crate::args::Args;

/// Honor `--save <path>` after training a single model.
fn maybe_save(model: &dyn rdd_models::Model, args: &Args) -> Result<(), RddError> {
    if let Some(path) = args.options.get("save") {
        rdd_models::save_checkpoint(model, Path::new(path))?;
        println!("saved checkpoint to {path}");
    }
    Ok(())
}

/// Honor `--pred-out <file>`: the ensemble's hard predictions, one class id
/// per line (the ci fault matrix compares these byte-for-byte across
/// killed-then-resumed and uninterrupted runs).
fn maybe_write_preds(args: &Args, preds: &[usize]) -> Result<(), RddError> {
    if let Some(path) = args.options.get("pred-out") {
        let mut out = String::with_capacity(preds.len() * 2);
        for p in preds {
            out.push_str(&p.to_string());
            out.push('\n');
        }
        std::fs::write(path, out)
            .map_err(|e| RddError::Cli(format!("failed to write {path}: {e}")))?;
        println!("wrote {} predictions to {path}", preds.len());
    }
    Ok(())
}

/// Load a dataset from a preset name or a saved TSV directory.
fn load(source: &str, seed: Option<u64>) -> Result<Dataset, RddError> {
    if let Some(cfg) = SynthConfig::preset(source) {
        return Ok(match seed {
            Some(s) => cfg.generate_with_seed(s),
            None => cfg.generate(),
        });
    }
    let path = Path::new(source);
    if path.is_dir() {
        Ok(io::load_dataset(path)?)
    } else {
        Err(RddError::Cli(format!(
            "{source:?} is neither a preset (cora|citeseer|pubmed|nell|nell-full|tiny) nor a dataset directory"
        )))
    }
}

/// Per-dataset model configuration (paper §5.1).
fn configs_for(data: &Dataset) -> (GcnConfig, TrainConfig, RddConfig) {
    if data.name.starts_with("nell") {
        (
            GcnConfig::nell(),
            TrainConfig::nell(),
            RddConfig::for_dataset("nell"),
        )
    } else if data.name.starts_with("citeseer") {
        (
            GcnConfig::citation(),
            TrainConfig::citation(),
            RddConfig::for_dataset("citeseer"),
        )
    } else if data.name.starts_with("pubmed") {
        (
            GcnConfig::citation(),
            TrainConfig::citation(),
            RddConfig::for_dataset("pubmed"),
        )
    } else {
        (
            GcnConfig::citation(),
            TrainConfig::citation(),
            RddConfig::for_dataset("cora"),
        )
    }
}

/// `rdd generate <preset> <dir>`
pub fn generate(args: &Args) -> Result<(), RddError> {
    args.check_options(&["seed"]).map_err(RddError::Cli)?;
    let [_, name, dir] = args.positional.as_slice() else {
        return Err(RddError::Cli("usage: rdd generate <preset> <dir>".into()));
    };
    let cfg =
        SynthConfig::preset(name).ok_or_else(|| RddError::Cli(format!("unknown preset {name}")))?;
    let seed: u64 = args.get_or("seed", cfg.seed)?;
    let data = cfg.generate_with_seed(seed);
    io::save_dataset(&data, Path::new(dir))?;
    println!(
        "wrote {} ({} nodes, {} edges) to {dir}",
        data.name,
        data.n(),
        data.graph.num_edges()
    );
    Ok(())
}

/// `rdd info <preset|dir>`
pub fn info(args: &Args) -> Result<(), RddError> {
    args.check_options(&[]).map_err(RddError::Cli)?;
    let [_, source] = args.positional.as_slice() else {
        return Err(RddError::Cli("usage: rdd info <preset|dir>".into()));
    };
    let data = load(source, None)?;
    println!("{}", DatasetStats::header());
    println!("{}", DatasetStats::of(&data).row());
    let hist = rdd_graph::stats::degree_histogram(&data);
    println!("degree histogram [0, 1, 2-3, 4-7, 8-15, 16+]: {hist:?}");
    Ok(())
}

/// `rdd train <preset|dir> [--method M] [--models N] [--seed N] ...`
pub fn train_cmd_inner(args: &Args, print: bool) -> Result<(String, f32), RddError> {
    let source = args
        .positional
        .get(1)
        .ok_or_else(|| RddError::Cli("usage: rdd train <preset|dir> [--method M]".into()))?;
    let seed: u64 = args.get_or("seed", 1)?;
    let data = load(source, None)?;
    let (gcn_cfg, train_cfg, rdd_cfg) = configs_for(&data);
    let models: usize = args.get_or("models", 5)?;
    let method: String = args.get_or("method", "rdd".to_string())?;

    let acc = match method.as_str() {
        "gcn" => {
            let ctx = GraphContext::new(&data);
            let mut rng = seeded_rng(seed);
            let mut m = Gcn::new(&ctx, gcn_cfg, &mut rng);
            train_model(&mut m, &ctx, &data, &train_cfg, &mut rng, None);
            maybe_save(&m, args)?;
            data.test_accuracy(&m.predictor(&ctx).predict())
        }
        "gat" => {
            let ctx = GraphContext::new(&data);
            let mut rng = seeded_rng(seed);
            let mut m = Gat::new(&ctx, GatConfig::default(), &mut rng);
            train_model(&mut m, &ctx, &data, &train_cfg, &mut rng, None);
            maybe_save(&m, args)?;
            data.test_accuracy(&m.predictor(&ctx).predict())
        }
        "rdd" => {
            // Every override funnels through the validating builder, so
            // `--p 0` or `--gamma -3` is a typed ConfigError naming the
            // field, not a train-time surprise.
            let rdd_cfg = rdd_cfg
                .to_builder()
                .num_base_models(models)
                .seed(seed)
                .gamma(args.get_or("gamma", rdd_cfg.gamma_initial)?)
                .beta(args.get_or("beta", rdd_cfg.beta)?)
                .p(args.get_or("p", rdd_cfg.p)?)
                .build()?;
            let trainer = RddTrainer::new(rdd_cfg);
            let out = match args.options.get("run-dir") {
                // Crash-safe mode: every member commits to the run
                // directory, and a failed run restarts with `rdd resume`.
                Some(dir) => trainer.run_crash_safe(&data, Path::new(dir), source)?,
                None => trainer.run(&data),
            };
            if print {
                println!("RDD single: {:.1}%", 100.0 * out.single_test_acc);
            }
            maybe_write_preds(args, &out.ensemble_pred)?;
            out.ensemble_test_acc
        }
        "bagging" => bagging(&data, &gcn_cfg, &train_cfg, models, seed).ensemble_test_acc,
        "bans" => {
            bans(
                &data,
                &gcn_cfg,
                &train_cfg,
                models,
                &BansConfig::default(),
                seed,
            )
            .ensemble_test_acc
        }
        "lp" => data.test_accuracy(&lp_predict(&data, &LpConfig::default())),
        other => return Err(RddError::Cli(format!("unknown method {other}"))),
    };
    if print {
        println!(
            "{method} on {}: test accuracy {:.1}%",
            data.name,
            100.0 * acc
        );
    }
    Ok((method, acc))
}

pub fn train(args: &Args) -> Result<(), RddError> {
    args.check_options(&[
        "method", "models", "seed", "gamma", "beta", "p", "run-dir", "pred-out", "save",
    ])
    .map_err(RddError::Cli)?;
    train_cmd_inner(args, true).map(|_| ())
}

/// `rdd resume <run-dir> [--pred-out <file>]` — finish an interrupted
/// crash-safe run. The dataset source comes from the run's manifest, and
/// the completed run is bitwise-identical to one that was never
/// interrupted.
pub fn resume(args: &Args) -> Result<(), RddError> {
    args.check_options(&["pred-out"]).map_err(RddError::Cli)?;
    let [_, dir] = args.positional.as_slice() else {
        return Err(RddError::Cli(
            "usage: rdd resume <run-dir> [--pred-out <file>]".into(),
        ));
    };
    let dir = Path::new(dir);
    let source = rdd_core::manifest_source(dir)?;
    let data = load(&source, None)?;
    let out = RddTrainer::resume(dir, &data)?;
    println!("RDD single: {:.1}%", 100.0 * out.single_test_acc);
    println!(
        "rdd on {}: test accuracy {:.1}%",
        data.name,
        100.0 * out.ensemble_test_acc
    );
    maybe_write_preds(args, &out.ensemble_pred)?;
    Ok(())
}

/// `rdd report <trace.jsonl|run-dir>` — the full run report: member
/// convergence and alpha, reliability-set evolution, kernel self-time
/// attribution, counters and gauges, the histogram-derived serve section
/// and every recovery event. A trace file gives the complete report (and
/// fails on the first line that breaks the event schema); a crash-safe run
/// directory (no trace) gives the member/alpha view reconstructed from its
/// manifest.
///
/// `--gate <baseline>` prints the perf-regression table of the trace
/// against a baseline (flat JSON or another trace) instead, and fails when
/// a metric regressed (`--tol-default PCT`, `--floor-ms F`, `--inject
/// FACTOR`; see `rdd_obs::gate`). `--write-baseline <out>` writes the
/// trace's metric set as a flat baseline.
pub fn report(args: &Args) -> Result<(), RddError> {
    const USAGE: &str = "usage: rdd report <trace.jsonl|run-dir> [--gate <baseline> \
                         [--tol-default PCT] [--floor-ms F] [--inject FACTOR]] \
                         [--write-baseline <out.json>]";
    let [_, target] = args.positional.as_slice() else {
        return Err(RddError::Cli(USAGE.into()));
    };
    args.check_options(&[
        "gate",
        "tol-default",
        "floor-ms",
        "inject",
        "write-baseline",
    ])
    .map_err(|e| RddError::Cli(format!("{e}\n{USAGE}")))?;
    let path = Path::new(target);
    if path.is_dir() {
        if !args.options.is_empty() || !args.flags.is_empty() {
            return Err(RddError::Cli(format!(
                "a run directory holds no trace to gate\n{USAGE}"
            )));
        }
        let run = rdd_core::RunState::load(path)?;
        println!("RDD run report: {}", path.display());
        println!(
            "  dataset {} ({} nodes, {} classes)  source {}",
            run.dataset_name(),
            run.dataset_shape().0,
            run.dataset_shape().1,
            run.source()
        );
        let rows: Vec<Vec<String>> = run
            .members()
            .iter()
            .map(|m| {
                vec![
                    m.member.to_string(),
                    if m.kept { "yes" } else { "no" }.to_string(),
                    format!("{:.4}", m.alpha),
                    format!("{:.4}", m.val_acc),
                    format!("{:.4}", m.test_acc),
                    m.report.epochs_run.to_string(),
                    format!("{:.4}", m.report.final_train_loss),
                    m.report.rollbacks.to_string(),
                ]
            })
            .collect();
        println!("\nMembers (alpha total {:.4})", run.alpha_total());
        print!(
            "{}",
            rdd_obs::render_table(
                &[
                    "mem",
                    "kept",
                    "alpha",
                    "val",
                    "test",
                    "epochs",
                    "loss",
                    "rollbacks"
                ],
                &rows,
            )
        );
        println!("\n(run directories hold no trace; run with RDD_TRACE=<file> and `rdd report <file>` for kernel and serve sections)");
        return Ok(());
    }
    let src = std::fs::read_to_string(target)
        .map_err(|e| RddError::Cli(format!("failed to read {target}: {e}")))?;
    let summary = TraceSummary::parse(&src).map_err(|e| RddError::Cli(format!("{target}: {e}")))?;
    if let Some(out) = args.options.get("write-baseline") {
        let metrics = gate::metrics_from_summary(&summary);
        gate::write_baseline(Path::new(out), &metrics).map_err(RddError::Cli)?;
        println!("wrote {} metrics to {out}", metrics.len());
    }
    let Some(baseline) = args.options.get("gate") else {
        if !args.options.contains_key("write-baseline") {
            print!("{}", summary.render_report());
        }
        return Ok(());
    };
    let finite = |flag: &str, default: f64| -> Result<f64, RddError> {
        match args.get_or(flag, default)? {
            v if v.is_finite() => Ok(v),
            v => Err(RddError::Cli(format!(
                "--{flag} needs a finite number, got {v}"
            ))),
        }
    };
    let defaults = gate::GateConfig::default();
    let cfg = gate::GateConfig {
        tol_default: finite("tol-default", defaults.tol_default)?,
        floor_ms: finite("floor-ms", defaults.floor_ms)?,
        inject: finite("inject", defaults.inject)?,
    };
    let baseline_metrics = gate::load_metrics(Path::new(baseline)).map_err(RddError::Cli)?;
    let (table, regressed) = gate::run_gate(
        &gate::metrics_from_summary(&summary),
        &baseline_metrics,
        &cfg,
    );
    print!("{table}");
    if regressed {
        return Err(RddError::Cli(format!(
            "{target}: at least one metric regressed past tolerance against {baseline}"
        )));
    }
    println!("gate: pass");
    Ok(())
}

/// `rdd compare <preset|dir>` — every method side by side.
pub fn compare(args: &Args) -> Result<(), RddError> {
    // Every method runs through `train_cmd_inner`, which reads these; the
    // method itself and the per-run outputs are not compare's to set.
    args.check_options(&["models", "seed", "gamma", "beta", "p"])
        .map_err(RddError::Cli)?;
    let source = args
        .positional
        .get(1)
        .ok_or_else(|| RddError::Cli("usage: rdd compare <preset|dir>".into()))?
        .clone();
    let methods = ["lp", "gcn", "bagging", "bans", "rdd"];
    println!("{:<16} {:>9}", "method", "test acc");
    println!("{}", "-".repeat(26));
    for m in methods {
        let mut sub = args.clone();
        sub.options.insert("method".into(), m.into());
        sub.positional = vec!["train".into(), source.clone()];
        let (_, acc) = train_cmd_inner(&sub, false)?;
        println!("{m:<16} {:>8.1}%", 100.0 * acc);
    }
    Ok(())
}

/// `rdd export <run-dir> <artifact> [--quantize int8]` — distill a
/// completed crash-safe run directory into one versioned, checksummed
/// artifact file; `--quantize int8` writes the ~0.3×-size v2q format.
pub fn export(args: &Args) -> Result<(), RddError> {
    const USAGE: &str = "usage: rdd export <run-dir> <artifact> [--quantize int8]";
    args.check_options(&["quantize"])
        .map_err(|e| RddError::Cli(format!("{e}\n{USAGE}")))?;
    let [_, run_dir, artifact_path] = args.positional.as_slice() else {
        return Err(RddError::Cli(USAGE.into()));
    };
    let format = match args.options.get("quantize").map(String::as_str) {
        None => ArtifactFormat::V1,
        Some("int8") => ArtifactFormat::V2q,
        Some(other) => {
            return Err(RddError::Cli(format!(
                "unknown --quantize scheme {other:?} (supported: int8)"
            )))
        }
    };
    let artifact = export_run_as(Path::new(run_dir), Path::new(artifact_path), format)?;
    let meta = artifact.meta();
    println!(
        "exported {run_dir} -> {artifact_path} ({}): {} ({} nodes, {} classes), {} members, checksum {:016x}",
        artifact.format().name(),
        meta.dataset_name,
        meta.dataset_n,
        meta.num_classes,
        meta.members,
        artifact.checksum(),
    );
    Ok(())
}

/// `rdd distill-mlp <run-dir> <artifact> [--quantize int8] [--lambda F]
/// [--p F] [--seed N] [--epochs N] [--fast]` — train a graph-free MLP
/// student against the completed run's frozen ensemble (soft targets
/// weighted by the final Algorithm 1 reliability set) and freeze its
/// weight matrices as a v3 (mlp) artifact. The result serves arbitrary
/// unseen feature vectors — `rdd serve` `{"features": [...]}` requests —
/// with no adjacency, bitwise identical to the offline student forward.
pub fn distill_mlp(args: &Args) -> Result<(), RddError> {
    args.check_options(&["quantize", "lambda", "p", "seed", "epochs", "fast"])
        .map_err(RddError::Cli)?;
    let [_, run_dir, artifact_path] = args.positional.as_slice() else {
        return Err(RddError::Cli(
            "usage: rdd distill-mlp <run-dir> <artifact> [--quantize int8] [--lambda F] [--p F] \
             [--seed N] [--epochs N] [--fast]"
                .into(),
        ));
    };
    let quantize = match args.options.get("quantize").map(String::as_str) {
        None => false,
        Some("int8") => true,
        Some(other) => {
            return Err(RddError::Cli(format!(
                "unknown --quantize scheme {other:?} (supported: int8)"
            )))
        }
    };
    let state = RunState::load(Path::new(run_dir))?;
    let data = load(state.source(), None)?;
    let mut cfg = if args.has_flag("fast") {
        DistillConfig::fast()
    } else {
        DistillConfig::standard()
    };
    cfg.lambda_kd = args.get_or("lambda", cfg.lambda_kd)?;
    cfg.p = args.get_or("p", cfg.p)?;
    cfg.seed = args.get_or("seed", cfg.seed)?;
    cfg.train.epochs = args.get_or("epochs", cfg.train.epochs)?;
    cfg.validate().map_err(|e| RddError::Cli(e.to_string()))?;
    let out = distill_run(&state, &data, &cfg)?;
    let student_params = rdd_models::Model::params(&out.student).to_vec();
    // The artifact's meta is the *teacher's* provenance — the student's own
    // shape lives in the v3 `mlp` line. This keeps `artifact-info` and
    // `AnyArtifact::meta()` uniform across every format.
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
    let checksum = write_mlp_artifact(Path::new(artifact_path), &meta, &student_params, quantize)?;
    println!("distilled {run_dir} -> {artifact_path} (v3 mlp)");
    println!("  student test acc:   {:.1}%", 100.0 * out.student_test_acc);
    println!("  student val acc:    {:.1}%", 100.0 * out.student_val_acc);
    println!(
        "  ensemble test acc:  {:.1}%",
        100.0 * out.ensemble_test_acc
    );
    println!(
        "  accuracy gap:       {:+.1}% (teacher - student)",
        100.0 * out.accuracy_gap()
    );
    println!(
        "  reliable |V_r|:     {} ({} labeled nodes fed CE)",
        out.num_reliable, out.num_labeled
    );
    println!(
        "  epochs:             {} ({:.1}s wall)",
        out.report.epochs_run, out.wall_time_s
    );
    println!("  checksum:           {checksum:016x}");
    Ok(())
}

/// `rdd artifact-info <artifact> [--proba-out <file>] [--reference <v1>]
/// [--assert-max-ulp <n>]` — validate and describe an artifact;
/// `--proba-out` dumps the offline proba rows (the reference the serve
/// smoke test compares served rows against); `--reference` measures the
/// max ULP drift of this artifact's served proba rows against a reference
/// (typically the v1 export of the same run), and `--assert-max-ulp`
/// turns that measurement into a hard failure bound for ci. For v3 (mlp)
/// artifacts, `--features-in <file>` redirects `--proba-out` through the
/// student's canonical feature forward over the file's rows.
pub fn artifact_info(args: &Args) -> Result<(), RddError> {
    args.check_options(&["proba-out", "features-in", "reference", "assert-max-ulp"])
        .map_err(RddError::Cli)?;
    let [_, path] = args.positional.as_slice() else {
        return Err(RddError::Cli(
            "usage: rdd artifact-info <artifact> [--proba-out <file>] [--features-in <file>] \
             [--reference <artifact>] [--assert-max-ulp <n>]"
                .into(),
        ));
    };
    let artifact = AnyArtifact::load(Path::new(path))?;
    let meta = artifact.meta();
    let format = artifact.format();
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let capability = |yes: bool| if yes { "yes" } else { "no" };
    println!("artifact:    {path}");
    println!("format:      {}", format.name());
    println!(
        "serves:      nodes {}, features {}",
        capability(format.supports_nodes()),
        capability(format.supports_features()),
    );
    println!("file size:   {file_bytes} bytes");
    println!(
        "dataset:     {} ({} nodes, {} classes)",
        meta.dataset_name, meta.dataset_n, meta.num_classes
    );
    println!("source:      {}", meta.source);
    println!("members:     {}", meta.members);
    let alphas: Vec<String> = meta.alphas.iter().map(|a| format!("{a:.4}")).collect();
    println!(
        "alphas:      [{}]  (total {:.4})",
        alphas.join(", "),
        meta.alpha_total
    );
    println!("checksum:    {:016x}", artifact.checksum());
    if let Some(params) = artifact.student_params() {
        println!(
            "student:     {} -> {} in {} layer(s), {}",
            params[0].rows(),
            meta.num_classes,
            params.len(),
            if artifact.quantized() {
                "int8-quantized"
            } else {
                "f32"
            }
        );
    }
    if let Some(ref_path) = args.options.get("reference") {
        let reference = AnyArtifact::load(Path::new(ref_path))?;
        if reference.meta().dataset_n != meta.dataset_n
            || reference.meta().num_classes != meta.num_classes
        {
            return Err(RddError::Cli(format!(
                "reference {ref_path} shape ({} x {}) does not match {path}",
                reference.meta().dataset_n,
                reference.meta().num_classes
            )));
        }
        let ref_bytes = std::fs::metadata(ref_path).map(|m| m.len()).unwrap_or(0);
        // v3 (mlp) artifacts hold student weights, not per-node rows —
        // there is nothing to measure ULP drift against.
        let proba = artifact.proba().ok_or_else(|| {
            RddError::Cli(format!(
                "{path} is a {} artifact with no per-node rows; --reference compares \
                 v1/v2q exports",
                format.name()
            ))
        })?;
        let ref_proba = reference.proba().ok_or_else(|| {
            RddError::Cli(format!(
                "reference {ref_path} is a {} artifact with no per-node rows",
                reference.format().name()
            ))
        })?;
        let drift = quant::max_ulp_diff(proba, ref_proba);
        println!("reference:   {ref_path} ({})", reference.format().name());
        if ref_bytes > 0 {
            println!(
                "size ratio:  {:.3} ({file_bytes} / {ref_bytes} bytes)",
                file_bytes as f64 / ref_bytes as f64
            );
        }
        println!("max ulp:     {drift}");
        if let Some(bound) = args.options.get("assert-max-ulp") {
            let bound: u64 = bound
                .parse()
                .map_err(|_| RddError::Cli(format!("bad --assert-max-ulp value {bound:?}")))?;
            if drift > bound {
                return Err(RddError::Cli(format!(
                    "max ULP drift {drift} exceeds the asserted bound {bound}"
                )));
            }
            println!("ulp bound:   {bound} ok");
        }
    } else if args.options.contains_key("assert-max-ulp") {
        return Err(RddError::Cli(
            "--assert-max-ulp requires --reference".into(),
        ));
    }
    if let Some(out_path) = args.options.get("proba-out") {
        let mut text = String::new();
        // `--features-in <file>` runs the student's canonical forward over
        // whitespace-separated feature rows instead of dumping per-node
        // rows — the offline reference ci's feature-serving gate `cmp`s
        // served replies against.
        let proba = match args.options.get("features-in") {
            Some(rows_path) => {
                if !format.supports_features() {
                    return Err(RddError::Cli(format!(
                        "--features-in requires a v3 (mlp) artifact; {path} is {}",
                        format.name()
                    )));
                }
                let rows = read_feature_rows(rows_path)?;
                artifact
                    .predict_batch(&PredictRequest::features(rows))
                    .map_err(|e| RddError::Cli(e.to_string()))?
                    .proba
            }
            None => artifact
                .proba_all()
                .map_err(|e| RddError::Cli(e.to_string()))?,
        };
        push_rows(&mut text, &proba);
        std::fs::write(out_path, text)
            .map_err(|e| RddError::Cli(format!("failed to write {out_path}: {e}")))?;
        println!("wrote {} proba rows to {out_path}", proba.rows());
    } else if args.options.contains_key("features-in") {
        return Err(RddError::Cli("--features-in requires --proba-out".into()));
    }
    Ok(())
}

/// Read whitespace-separated feature rows (one row per non-empty line)
/// into a dense matrix for `artifact-info --features-in`.
fn read_feature_rows(path: &str) -> Result<Matrix, RddError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| RddError::Cli(format!("failed to read {path}: {e}")))?;
    feature_rows_from_text(path, &text)
}

/// [`read_feature_rows`] over text already read from `path`. Every value
/// must be a finite f32, the same rule the serve wire applies: `nan`,
/// `inf` and `1e39` (which rounds to +inf) are refused.
fn feature_rows_from_text(path: &str, text: &str) -> Result<Matrix, RddError> {
    let mut data = Vec::new();
    let mut cols = 0usize;
    let mut rows = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let start = data.len();
        for tok in line.split_whitespace() {
            let v: f32 = tok.parse().map_err(|_| {
                RddError::Cli(format!("{path}:{}: bad feature value {tok:?}", lineno + 1))
            })?;
            if !v.is_finite() {
                return Err(RddError::Cli(format!(
                    "{path}:{}: feature value {tok:?} is not a finite f32",
                    lineno + 1
                )));
            }
            data.push(v);
        }
        let width = data.len() - start;
        if rows == 0 {
            cols = width;
        } else if width != cols {
            return Err(RddError::Cli(format!(
                "{path}:{}: row has {width} values, expected {cols}",
                lineno + 1
            )));
        }
        rows += 1;
    }
    if rows == 0 || cols == 0 {
        return Err(RddError::Cli(format!("{path} holds no feature rows")));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Side-output accumulator for `rdd serve`. `--proba-out` keys rows by
/// request id so multi-worker reply reordering cannot change the file ci
/// `cmp`s against offline rows; `--served-out` records one
/// `<generation> <id> <node> <proba...>` line per served row — the join key
/// the hot-swap ci gate uses to match every row to the artifact generation
/// that answered it.
/// Served proba rows keyed `(request id, arrival sequence)` so replies can
/// be re-emitted in a deterministic order, plus the next sequence number.
type OrderedProbaRows = (std::collections::BTreeMap<(u64, u64), String>, u64);

struct ReplyFiles {
    proba: Option<OrderedProbaRows>,
    served: Option<String>,
    /// The first stdout write error: a worker has no caller to return it to.
    failed: Option<String>,
}

impl ReplyFiles {
    fn new(args: &Args) -> Self {
        Self {
            proba: args
                .options
                .get("proba-out")
                .map(|_| (std::collections::BTreeMap::new(), 0)),
            served: args.options.get("served-out").map(|_| String::new()),
            failed: None,
        }
    }

    fn record(&mut self, reply: &ServeReply) {
        let Ok(p) = &reply.result else { return };
        if let Some((rows, seq)) = self.proba.as_mut() {
            let mut text = String::new();
            push_rows(&mut text, &p.proba);
            rows.insert((reply.id, *seq), text);
            *seq += 1;
        }
        if let Some(text) = self.served.as_mut() {
            use std::fmt::Write as _;
            for (i, node) in p.nodes.iter().enumerate() {
                let _ = write!(text, "{} {} {}", reply.generation, reply.id, node);
                for &v in p.proba.row(i) {
                    text.push(' ');
                    push_f32(text, v);
                }
                text.push('\n');
            }
        }
    }

    /// Report the first stdout write error, else write the side outputs.
    fn finish(&mut self, args: &Args) -> Result<(), RddError> {
        if let Some(e) = self.failed.take() {
            return Err(RddError::Cli(e));
        }
        if let (Some(path), Some((rows, _))) = (args.options.get("proba-out"), self.proba.take()) {
            let mut text = String::new();
            for row_text in rows.values() {
                text.push_str(row_text);
            }
            std::fs::write(path, text)
                .map_err(|e| RddError::Cli(format!("failed to write {path}: {e}")))?;
            eprintln!("wrote served proba rows to {path}");
        }
        if let (Some(path), Some(text)) = (args.options.get("served-out"), self.served.take()) {
            std::fs::write(path, text)
                .map_err(|e| RddError::Cli(format!("failed to write {path}: {e}")))?;
            eprintln!("wrote served generation rows to {path}");
        }
        Ok(())
    }
}

/// The reply sink of `rdd serve`. The worker that answered a batch renders
/// its reply lines and writes them with one write under the stdout lock,
/// recording their side outputs under the same lock, so files and stdout
/// list replies in one order.
struct StdoutReplies(Mutex<ReplyFiles>);

impl rdd_serve::ReplySink for StdoutReplies {
    fn deliver(&self, replies: Vec<ServeReply>) {
        let mut buf = String::new();
        for reply in &replies {
            reply_json(reply).write(&mut buf);
            buf.push('\n');
        }
        let mut files = self
            .0
            .lock()
            .expect("no worker panics while writing replies");
        if let Err(e) = write_out(&mut std::io::stdout().lock(), &mut buf) {
            files.failed.get_or_insert(e.to_string());
        }
        for reply in &replies {
            files.record(reply);
        }
    }
}

/// Send the rendered lines in `buf` with one write, then clear it.
fn write_out(out: &mut impl std::io::Write, buf: &mut String) -> Result<(), RddError> {
    if buf.is_empty() {
        return Ok(());
    }
    out.write_all(buf.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| RddError::Cli(format!("stdout write failed: {e}")))?;
    buf.clear();
    Ok(())
}

/// Read stdin line by line until EOF and admit every request to `pool`:
/// parse it, give it its id and deadline, and submit it, which applies the
/// breaker and queue-full shedding. Bad lines and refused requests are
/// answered here, one error line each under the stdout lock; a line that
/// is not UTF-8 is answered with a typed error too. Only EOF or a read
/// error ends the stream.
fn admit(pool: &ServePool<AnyArtifact>, default_deadline_ms: Option<f64>) -> Result<(), RddError> {
    use std::io::BufRead;
    let mut stdin = std::io::stdin().lock();
    let mut next_id: u64 = 0;
    loop {
        let mut bytes = Vec::new();
        match stdin.read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => return Ok(()),
            Ok(_) => {}
        }
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
            if bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
        }
        let line = String::from_utf8(bytes).map_err(|e| e.utf8_error().valid_up_to());
        let Some(parsed) = wire::parse_line(&line, next_id) else {
            continue;
        };
        let mut refusal = match parsed {
            Err(msg) => error_line(None, format!("bad request: {msg}")),
            Ok((id, req, deadline_ms)) => {
                next_id = wire::next_request_id(next_id, id);
                let deadline = deadline_ms
                    .or(default_deadline_ms)
                    .map(|ms| Instant::now() + Duration::from_secs_f64(ms / 1e3));
                match pool.submit_with_deadline(id, req, deadline) {
                    Ok(()) => continue,
                    Err(e) => error_line(Some(id), e.to_string()),
                }
            }
        };
        write_out(&mut std::io::stdout().lock(), &mut refusal)?;
    }
}

/// Emit one heartbeat: a `serve_metrics` event plus a one-line status on
/// stderr.
fn heartbeat(pool: &ServePool<AnyArtifact>) {
    let m = pool.metrics();
    rdd_obs::emit_serve_metrics(&m);
    eprintln!("{}", m.status_line());
}

/// Run the heartbeat and the artifact watch until `eof` disconnects: due
/// heartbeats every `metrics_every` seconds (0 = none), and `watcher`'s
/// polls (full load + validation before the swap, rollback with
/// exponential backoff on failure).
fn poll_until_eof(
    pool: &ServePool<AnyArtifact>,
    artifact_path: &str,
    metrics_every: u64,
    mut watcher: Option<ArtifactWatcher>,
    eof: &mpsc::Receiver<()>,
) {
    let mut next_beat =
        (metrics_every > 0).then(|| Instant::now() + Duration::from_secs(metrics_every));
    loop {
        if let Some(beat) = next_beat {
            if Instant::now() >= beat {
                heartbeat(pool);
                next_beat = Some(Instant::now() + Duration::from_secs(metrics_every));
            }
        }
        if let Some(w) = watcher.as_mut() {
            watch_poll(pool, artifact_path, w);
        }
        let next_poll = watcher.as_ref().and_then(|w| w.next_poll());
        let Some(wake) = next_beat.into_iter().chain(next_poll).min() else {
            let _ = eof.recv();
            return;
        };
        match eof.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// One `--watch-artifact` poll: swap a modified artifact in as the next
/// generation once it fully loads and the pool accepts it; otherwise keep
/// the live generation and report why.
fn watch_poll(pool: &ServePool<AnyArtifact>, artifact_path: &str, w: &mut ArtifactWatcher) {
    match w.poll(Instant::now()) {
        WatchOutcome::Pending | WatchOutcome::Unchanged => {}
        WatchOutcome::Loaded(next) => {
            // Fully loaded and validated; the pool still gets the final
            // say (shape checks) before it goes live.
            let checksum = next.checksum();
            match pool.try_swap(*next, checksum) {
                Ok(generation) => {
                    w.installed(checksum);
                    rdd_obs::emit_swap(generation, checksum, artifact_path);
                    eprintln!(
                        "swapped {artifact_path} in as generation {generation} \
                         (checksum {checksum:016x})"
                    );
                }
                Err(e) => {
                    rdd_obs::emit_swap_failed(
                        artifact_path,
                        &e.to_string(),
                        w.failures(),
                        ArtifactWatcher::DEFAULT_POLL.as_millis() as u64,
                    );
                    eprintln!(
                        "watch: replacement rejected, keeping generation {} live ({e})",
                        pool.generation()
                    );
                }
            }
        }
        WatchOutcome::Failed {
            error,
            failures,
            backoff_ms,
        } => {
            // Broken or mid-copy replacement: the current generation stays
            // live, the poll backs off.
            rdd_obs::emit_swap_failed(artifact_path, &error.to_string(), failures, backoff_ms);
            eprintln!(
                "watch: cannot load {artifact_path} ({error}); keeping current \
                 generation, retrying in {backoff_ms} ms (failure {failures})"
            );
        }
    }
}

const SERVE_USAGE: &str = "usage: rdd serve --artifact <path> [--workers N] [--batch N] \
     [--cache N] [--queue N] [--deadline-ms MS] [--watch-artifact] [--breaker-p99-ms MS] \
     [--metrics-every SECS] [--proba-out <file>] [--served-out <file>]
  (a free worker claims up to --batch queued requests at once; no timer)";

/// `rdd serve --artifact <path>` — line-delimited JSON request loop over
/// stdin/stdout. One request per line
/// (`{"id":N,"nodes":[...],"deadline_ms":F}`; `nodes` absent = the whole
/// graph); one reply object per request. The thread reading stdin admits
/// each request to a [`ServePool`] of `--workers` supervised threads (1 by
/// default); a free worker claims up to `--batch` queued requests at once,
/// with no timer, answers them through the per-node LRU cache and writes
/// their reply lines itself. Replies stream back in completion order; each
/// carries its request `id` and the artifact `generation` that answered
/// it. `--watch-artifact` polls the artifact path, hot-swapping modified
/// artifacts in as new generations with zero dropped requests, and
/// `--breaker-p99-ms` arms the overload circuit breaker at admission. The
/// artifact may be any format `rdd export` or `rdd distill-mlp` writes.
pub fn serve(args: &Args) -> Result<(), RddError> {
    args.check_options(&[
        "artifact",
        "workers",
        "batch",
        "cache",
        "queue",
        "deadline-ms",
        "watch-artifact",
        "breaker-p99-ms",
        "metrics-every",
        "proba-out",
        "served-out",
    ])
    .map_err(|e| RddError::Cli(format!("{e}\n{SERVE_USAGE}")))?;
    let artifact_path = args
        .options
        .get("artifact")
        .ok_or_else(|| RddError::Cli(SERVE_USAGE.into()))?;
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        batch_size: args.get_or("batch", defaults.batch_size)?,
        cache_capacity: args.get_or("cache", defaults.cache_capacity)?,
        queue_capacity: args.get_or("queue", defaults.queue_capacity)?,
    };
    let workers: usize = args.get_or("workers", 1)?;
    if workers == 0 {
        return Err(RddError::Cli(
            "--workers needs a positive number of worker threads, got \"0\"".into(),
        ));
    }
    let watch = args.has_flag("watch-artifact");
    // `--breaker-p99-ms` arms the overload circuit breaker.
    let breaker_p99_ms: Option<f64> = match args.options.get("breaker-p99-ms") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms > 0.0 => Some(ms),
            _ => {
                return Err(RddError::Cli(format!(
                    "--breaker-p99-ms needs a positive number of milliseconds, got {v:?}"
                )))
            }
        },
    };
    let default_deadline_ms: Option<f64> = match args.options.get("deadline-ms") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms >= 0.0 => Some(ms),
            _ => {
                return Err(RddError::Cli(format!(
                    "--deadline-ms needs a non-negative number of milliseconds, got {v:?}"
                )))
            }
        },
    };
    // Heartbeat cadence in seconds; 0 (the default) disables the heartbeat.
    let metrics_every: u64 = args.get_or("metrics-every", 0u64)?;
    let artifact = AnyArtifact::load(Path::new(artifact_path))?;
    let meta = artifact.meta();
    let checksum = artifact.checksum();
    eprintln!(
        "serving {} ({} nodes, {} classes, {} members, checksum {:016x}); \
         batch {} (a free worker claims up to that many, no timer) cache {} workers {}{}",
        meta.dataset_name,
        meta.dataset_n,
        meta.num_classes,
        meta.members,
        checksum,
        cfg.batch_size,
        cfg.cache_capacity,
        workers,
        match (watch, breaker_p99_ms) {
            (true, Some(_)) => ", watching artifact, breaker armed",
            (true, None) => ", watching artifact",
            (false, Some(_)) => ", breaker armed",
            (false, None) => "",
        },
    );

    let mut pool_cfg = PoolConfig {
        serve: cfg,
        workers,
        breaker: breaker_p99_ms.map(BreakerConfig::with_p99_ms),
        ..PoolConfig::default()
    };
    if metrics_every > 0 {
        // The window must cover at least one heartbeat interval.
        pool_cfg.metrics_window_s =
            (metrics_every as usize).max(rdd_serve::DEFAULT_METRICS_WINDOW_S);
    }
    let replies = Arc::new(StdoutReplies(Mutex::new(ReplyFiles::new(args))));
    let pool = ServePool::new(artifact, pool_cfg, checksum, Arc::clone(&replies))
        .map_err(|e| RddError::Cli(e.to_string()))?;

    let started = Instant::now();
    // The watcher's first poll is always due and always re-reads the file:
    // the artifact may have been replaced between our load and now, and
    // its checksum tracking already suppresses no-op swaps.
    let watcher = watch.then(|| ArtifactWatcher::new(artifact_path, checksum));
    let admitted = std::thread::scope(|s| {
        let (eof_tx, eof) = mpsc::channel::<()>();
        let pool = &pool;
        let admission = s.spawn(move || {
            // Dropped at EOF, which ends the main thread's polls.
            let _eof = eof_tx;
            admit(pool, default_deadline_ms)
        });
        poll_until_eof(pool, artifact_path, metrics_every, watcher, &eof);
        admission
            .join()
            .unwrap_or_else(|_| Err(RddError::Cli("serve admission thread panicked".into())))
    });
    // EOF: let the workers answer everything admitted, take the final
    // heartbeat (so even a sub-interval session records one), then shut
    // down and collect the report.
    pool.drain();
    if metrics_every > 0 {
        heartbeat(&pool);
    }
    let report = pool.shutdown();
    admitted?;
    let stats = report.stats;
    rdd_obs::emit_serve_run(
        stats.requests,
        stats.batches,
        stats.cache_hits,
        stats.cache_misses,
        stats.shed,
        stats.expired,
        stats.failed,
        stats.rejected,
        started.elapsed().as_secs_f64() * 1e3,
    );
    eprintln!(
        "served {} requests in {} batches across {} workers (cache hit rate {:.1}%, \
         shed {}, expired {}, failed {}, rejected {}, breaker trips {})",
        stats.requests,
        stats.batches,
        report.workers.len(),
        100.0 * stats.hit_rate(),
        stats.shed,
        stats.expired,
        stats.failed,
        stats.rejected,
        report.breaker_trips
    );
    for w in &report.workers {
        eprintln!(
            "  worker {}: {} requests in {} batches, busy {:.1}ms ({:.1}% utilization), \
             {} panic(s), {} respawn(s)",
            w.worker,
            w.requests,
            w.batches,
            w.busy_ms,
            100.0 * w.utilization,
            w.panics,
            w.respawns
        );
    }
    let mut files = replies
        .0
        .lock()
        .expect("no worker panics while writing replies");
    files.finish(args)
}

#[cfg(test)]
mod tests {
    // The serve loops' id bookkeeping (`next_id` over one stream) lives
    // here; the parsers it drives are tested in `rdd_serve::wire`.
    use rdd_serve::wire::{next_request_id, parse_request, MAX_REQUEST_ID};

    use super::*;

    type Command = fn(&Args) -> Result<(), RddError>;

    /// Every command, with paths under `/dev/null` (which can never
    /// exist), so a command that gets past its option check fails at its
    /// first read or write.
    const COMMANDS: &[(&str, Command)] = &[
        ("generate tiny /dev/null/rdd-data", generate),
        ("info /dev/null/rdd-data", info),
        ("train /dev/null/rdd-data", train),
        ("resume /dev/null/rdd-run", resume),
        ("compare /dev/null/rdd-data", compare),
        ("report /dev/null/rdd.jsonl", report),
        ("export /dev/null/rdd-run /dev/null/a.artifact", export),
        (
            "distill-mlp /dev/null/rdd-run /dev/null/s.artifact",
            distill_mlp,
        ),
        ("artifact-info /dev/null/a.artifact", artifact_info),
        ("serve --artifact /dev/null/a.artifact", serve),
    ];

    fn run(command: Command, line: &str) -> String {
        let args = Args::parse(line.split_whitespace().map(String::from)).expect("parse");
        match command(&args) {
            Ok(()) => panic!("`rdd {line}` succeeded"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn every_command_rejects_an_unknown_option_by_name() {
        for &(line, command) in COMMANDS {
            let err = run(command, &format!("{line} --bogus 1"));
            assert!(
                err.contains("unknown option --bogus"),
                "`rdd {line} --bogus 1`: {err}"
            );
        }
    }

    #[test]
    fn the_options_ci_and_the_benchmark_pass_are_known() {
        for (line, command) in [
            (
                "train /dev/null/d --method rdd --models 3 --seed 7 --run-dir r --pred-out p",
                train as Command,
            ),
            ("resume /dev/null/r --pred-out p", resume),
            (
                "distill-mlp /dev/null/r s --quantize int8 --fast --epochs 2 --seed 1",
                distill_mlp,
            ),
            (
                "artifact-info /dev/null/a --proba-out p --features-in f",
                artifact_info,
            ),
            (
                "artifact-info /dev/null/a --reference r --assert-max-ulp 9",
                artifact_info,
            ),
        ] {
            let err = run(command, line);
            assert!(!err.contains("unknown option"), "`rdd {line}`: {err}");
        }
    }

    #[test]
    fn serve_refuses_zero_workers_by_name() {
        // Refused before the artifact is read (this path cannot exist).
        let err = run(serve, "serve --artifact /dev/null/a.artifact --workers 0");
        assert!(
            err.contains("--workers needs a positive number"),
            "`rdd serve --workers 0`: {err}"
        );
        let err = run(serve, "serve --artifact /dev/null/a.artifact --workers 1");
        assert!(!err.contains("--workers"), "`rdd serve --workers 1`: {err}");
    }

    #[test]
    fn id_less_requests_follow_the_largest_id_without_wrapping() {
        assert_eq!(next_request_id(0, 0), 1);
        assert_eq!(next_request_id(11, 3), 12);
        assert_eq!(next_request_id(u64::MAX, 7), u64::MAX);
        let (id, _, _) = parse_request(r#"{"nodes":[2]}"#, next_request_id(0, 41)).unwrap();
        assert_eq!(id, 42);
    }

    #[test]
    fn id_less_requests_after_the_largest_exact_id_are_rejected() {
        // The serve loops' id bookkeeping over one stream: the largest id
        // an f64 holds exactly, then two id-less requests. Neither may be
        // answered under an id above it, where ids would collide.
        let lines = [
            r#"{"id":9007199254740991,"nodes":[1]}"#,
            r#"{"nodes":[2]}"#,
            r#"{"nodes":[3]}"#,
        ];
        let mut next_id = 0;
        let mut ids = Vec::new();
        for line in lines {
            match parse_request(line, next_id) {
                Ok((id, _, _)) => {
                    next_id = next_request_id(next_id, id);
                    ids.push(Some(id));
                }
                Err(msg) => {
                    assert!(msg.contains("send an explicit 'id'"), "{msg}");
                    ids.push(None);
                }
            }
        }
        assert_eq!(ids, vec![Some(MAX_REQUEST_ID), None, None]);
        // An explicit id is still served.
        let (id, _, _) = parse_request(r#"{"id":5,"nodes":[1]}"#, next_id).unwrap();
        assert_eq!(id, 5);
    }

    #[test]
    fn feature_rows_outside_f32_range_are_refused() {
        for bad in ["nan", "inf", "-inf", "1e39", "-1e39"] {
            let err = super::feature_rows_from_text("rows.tsv", &format!("0.5 {bad}\n"))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("rows.tsv:1:") && err.contains("not a finite f32"),
                "{bad}: {err}"
            );
        }
        // The largest finite f32 and subnormals are still rows.
        let m = super::feature_rows_from_text("rows.tsv", "3.4028235e38 1e-45\n-0 2\n").unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.as_slice()[0], f32::MAX);
        assert_eq!(m.as_slice()[1].to_bits(), 1);
        assert_eq!(m.as_slice()[2].to_bits(), (-0.0f32).to_bits());
    }
}
