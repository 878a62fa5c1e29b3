//! `rdd` — command-line front end for the RDD (SIGMOD 2020) reproduction.
//!
//! ```text
//! rdd generate <preset> <dir> [--seed N]        write a synthetic dataset as TSV
//! rdd info <preset|dir>                         dataset statistics (Table 2 row)
//! rdd train <preset|dir> [--method M] [...]     train and report test accuracy
//! rdd resume <run-dir>                          finish an interrupted crash-safe run
//! rdd compare <preset|dir> [--models N]         run every method side by side
//! rdd report <trace.jsonl|run-dir>              validate a trace and print the run report:
//!                                               convergence, reliability evolution, kernel
//!                                               self-times, counters, serving, recovery
//!            [--gate <baseline>]                perf-regression gate against a baseline
//! rdd export <run-dir> <artifact>               freeze a completed run into an artifact
//!                      [--quantize int8]        (int8-quantized v2q format, ~0.3x size)
//! rdd distill-mlp <run-dir> <artifact>          distill the frozen ensemble into a graph-free
//!                      [--quantize int8]        MLP student, frozen as a v3 (mlp) artifact
//! rdd artifact-info <artifact>                  validate and describe an artifact
//! rdd serve --artifact <path>                   JSON request loop over the artifact
//!                                               ({"nodes":[..]} or {"features":[..]} requests)
//! ```
//!
//! Set `RDD_TRACE=<path|stderr>` to capture structured telemetry (JSONL) from
//! any command; inspect it afterwards with `rdd report`.
//!
//! Methods: `gcn`, `gat`, `rdd` (default), `bagging`, `bans`, `lp`.

mod args;
mod commands;

use args::Args;

const USAGE: &str = "usage:
  rdd generate <preset> <dir> [--seed N]
  rdd info <preset|dir>
  rdd train <preset|dir> [--method gcn|gat|rdd|bagging|bans|lp]
            [--models N] [--seed N] [--gamma F] [--beta F] [--p F]
            [--run-dir <dir>] [--pred-out <file>]      (rdd method only)
            [--save <file>]                            (gcn|gat: write a checkpoint)
  rdd resume <run-dir> [--pred-out <file>]
  rdd compare <preset|dir> [--models N] [--seed N]
  rdd report <trace.jsonl|run-dir>
  rdd report <trace.jsonl> --gate <baseline> [--tol-default PCT] [--floor-ms F] [--inject FACTOR]
  rdd report <trace.jsonl> --write-baseline <out.json>
  rdd export <run-dir> <artifact> [--quantize int8]
  rdd distill-mlp <run-dir> <artifact> [--quantize int8] [--lambda F] [--p F] [--seed N]
            [--epochs N] [--fast]
  rdd artifact-info <artifact> [--proba-out <file>] [--features-in <file>] [--reference <artifact>]
            [--assert-max-ulp N]
  rdd serve --artifact <path> [--workers N] [--batch N] [--cache N] [--queue N]
            [--deadline-ms MS] [--watch-artifact] [--breaker-p99-ms MS] [--metrics-every SECS]
            [--proba-out <file>] [--served-out <file>]
            (a batch flushes on --batch requests or as soon as the input is drained; no timer)

presets: cora, citeseer, pubmed, nell, nell-full, tiny
env: RDD_TRACE=<path|stderr|off> structured telemetry sink,
     RDD_SIMD=<auto|off> kernel tier (auto: AVX2+FMA where the host has it; off: the scalar
       oracle, bitwise-identical to builds before the tier existed),
     RDD_FAULT=<kind>@<site>:<n>[x<k>] deterministic fault injection (nan_loss@epoch, io_fail@ckpt,
       panic@member, panic@serve_worker, panic@serve_batch, slow@serve_batch, io_fail@swap_load;
       :<n>x<k> fires on k consecutive passes)";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.has_flag("help") {
        println!("{USAGE}");
        return;
    }
    let Some(command) = args.positional.first().cloned() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let result = match command.as_str() {
        "generate" => commands::generate(&args),
        "info" => commands::info(&args),
        "train" => commands::train(&args),
        "resume" => commands::resume(&args),
        "compare" => commands::compare(&args),
        "report" => commands::report(&args),
        "export" => commands::export(&args),
        "distill-mlp" => commands::distill_mlp(&args),
        "artifact-info" => commands::artifact_info(&args),
        "serve" => commands::serve(&args),
        "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(rdd_serve::RddError::Cli(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    };
    // Push any buffered telemetry out before exiting, on both paths.
    rdd_obs::flush();
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
