#![warn(missing_docs)]
//! # rdd-serve
//!
//! The inference half of the RDD reproduction: freeze a trained teacher
//! ensemble into a versioned, checksummed **artifact** file and serve
//! predictions from it with zero re-training.
//!
//! * [`artifact`] — `export_run_as` distills a completed crash-safe run
//!   directory into one artifact file; [`AnyArtifact::load`] reads any
//!   format once and validates header/version, checksum, shapes and
//!   finiteness, and the loaded artifact implements the `Predictor` trait.
//!   A v1 export answers bitwise identical to the live run's
//!   `Ensemble::proba`; the int8-quantized v2q format ([`quant`]) trades
//!   that bitwise guarantee for ~0.3× the bytes. Every format shares one
//!   checksummed envelope (header, meta line, body, `checksum` trailer)
//!   and `rdd_models`' one `matrix R C` codec;
//! * [`mlp_artifact`] — the v3 (mlp) format: `rdd distill-mlp` freezes a
//!   graph-free distilled student's weight matrices (optionally int8)
//!   into a checksummed artifact, and the loaded [`AnyArtifact`] serves
//!   arbitrary **feature vectors** (`PredictRequest::ByFeatures`, no
//!   adjacency) through the same canonical forward as every offline
//!   comparison, so served feature replies are bitwise identical to the
//!   offline student;
//! * [`pool`] — [`ServePool`], the one serve loop: N supervised worker
//!   threads over one bounded queue (typed [`ServeError::QueueFull`]
//!   backpressure, per-request deadlines shed as typed
//!   [`ServeError::Expired`]) and a shared [`ShardedLru`] row cache keyed
//!   by artifact checksum, one lock partition per worker. Each worker
//!   claims a micro-batch, answers it and delivers the replies to the
//!   pool's [`ReplySink`] itself. A panicking worker requeues its batch
//!   (bounded per-request retry budget, then typed
//!   [`ServeError::WorkerFailed`] replies) and is respawned; hot artifact
//!   swap ([`SwapCell`], [`ServePool::swap`]) rolls a new generation in
//!   with zero dropped requests, and the validation-gated
//!   [`ServePool::try_swap`] keeps the live generation when a replacement
//!   cannot serve traffic;
//! * [`engine`] — the batch core every worker runs (deduplicated node
//!   rows through the cache, stacked feature rows, per-batch latency and
//!   cache telemetry through `rdd-obs`), and [`ServeEngine`], which runs it
//!   in-process with no threads: the reference the pool is tested
//!   against;
//! * [`swap`] — the epoch-tagged swap slot plus [`ArtifactWatcher`]:
//!   mtime polling with full load-and-validate before install
//!   ([`checked_load`]) and exponential capped backoff after failed
//!   loads (swap rollback keeps the old generation live);
//! * [`breaker`] — [`CircuitBreaker`]: a rolling-window overload breaker
//!   (p99 latency + shed rate) that sheds admission with typed
//!   [`ServeError::Overloaded`] replies while open and recovers through
//!   half-open probe rounds;
//! * [`wire`] — the `rdd serve` line-JSON wire format: request parsing
//!   ([`wire::parse_line`], with a scanner that reads the hot
//!   `{"id","features"}` shape straight into f32s, bit-identical to the
//!   general parser it falls back to) and reply rendering;
//! * [`error`] — [`ServeError`] plus the crate-spanning [`RddError`] the
//!   CLI funnels every subsystem's failures through.
//!
//! ```no_run
//! use rdd_models::PredictRequest;
//! use rdd_serve::{AnyArtifact, PoolConfig, ServePool};
//!
//! let artifact = AnyArtifact::load(std::path::Path::new("run.artifact")).unwrap();
//! let epoch = artifact.checksum();
//! let (tx, rx) = std::sync::mpsc::channel();
//! let pool = ServePool::new(artifact, PoolConfig::default(), epoch, tx).unwrap();
//! pool.submit(0, PredictRequest::nodes(vec![42])).unwrap();
//! // The worker that answers the request sends its reply down the channel.
//! println!("{:?}", rx.recv().unwrap().result.unwrap().pred);
//! pool.shutdown();
//! ```

pub mod artifact;
pub mod breaker;
pub mod cache;
pub mod engine;
pub mod error;
pub mod mlp_artifact;
pub mod pool;
pub mod quant;
pub mod swap;
pub mod wire;

pub use artifact::{
    export_run_as, fnv1a64, write_artifact_as, write_ensemble_as, AnyArtifact, ArtifactFormat,
    ArtifactMeta,
};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::{LruCache, ShardedLru};
pub use engine::{
    RollingWindow, ServeConfig, ServeEngine, ServeReply, ServeStats, ShedCause, WindowAccum,
    DEFAULT_METRICS_WINDOW_S,
};
pub use error::{RddError, ServeError};
pub use mlp_artifact::write_mlp_artifact;
pub use pool::{PoolConfig, PoolReport, ReplySink, ServePool, WorkerReport};
pub use swap::{checked_load, ArtifactWatcher, SwapCell, WatchOutcome};

#[cfg(test)]
pub(crate) mod testutil {
    /// Fault-injection state is process-global (`rdd_obs::fault`); every
    /// unit test in this crate that arms a spec serializes on this lock,
    /// recovering from poisoning so one failed test cannot cascade.
    pub(crate) static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
