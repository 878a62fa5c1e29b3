//! Typed errors for the serving stack, plus the crate-spanning
//! [`RddError`] the CLI funnels every subsystem's failures through.

use rdd_models::{CheckpointError, ConfigError, PredictError, TextError};

/// Why an artifact could not be loaded or a request could not be served.
#[derive(Debug)]
pub enum ServeError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Malformed artifact content (bad header, shape, non-finite value,
    /// trailing garbage, ...).
    Artifact(String),
    /// The artifact declares a format version this build cannot read.
    WrongVersion {
        /// The version line found in the file.
        found: String,
    },
    /// The artifact's stored checksum does not match its content.
    Checksum {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum computed over the file's content.
        computed: u64,
    },
    /// A v2q quantized row carries an unusable scale (non-finite or
    /// negative — a zero scale is the legal constant-row encoding).
    QuantScale {
        /// 1-based artifact line the row sits on.
        line: usize,
        /// The offending scale value.
        value: f32,
    },
    /// A v2q quantized row carries a non-finite zero-point.
    QuantZeroPoint {
        /// 1-based artifact line the row sits on.
        line: usize,
        /// The offending zero-point value.
        value: f32,
    },
    /// The underlying predictor rejected the request.
    Predict(PredictError),
    /// The engine's bounded request queue is full; retry after a flush.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request's deadline passed while it waited in the queue; it was
    /// shed before dispatch instead of being served stale.
    Expired {
        /// How long the request had waited when it was shed, milliseconds.
        waited_ms: f64,
    },
    /// A malformed request (e.g. unparseable serve-loop JSON).
    BadRequest(String),
    /// The request's worker panicked and the per-request retry budget is
    /// spent; the supervisor answers with this instead of dropping the
    /// request on the floor.
    WorkerFailed {
        /// How many times the request was requeued before giving up.
        retries: u32,
    },
    /// The overload circuit breaker is open (or half-open past its probe
    /// budget); retry after the advertised delay.
    Overloaded {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: f64,
    },
    /// The pool is shutting down (or already shut down); the request was
    /// answered instead of being dropped with the queue.
    ShuttingDown,
    /// A replacement artifact was rejected by `try_swap` validation; the
    /// live generation was kept.
    SwapRejected(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Artifact(msg) => write!(f, "bad artifact: {msg}"),
            ServeError::WrongVersion { found } => {
                write!(
                    f,
                    "unsupported artifact version: {found:?} (expected {:?}, {:?} or {:?})",
                    crate::artifact::HEADER,
                    crate::artifact::HEADER_V2Q,
                    crate::artifact::HEADER_V3_MLP
                )
            }
            ServeError::Checksum { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            ServeError::QuantScale { line, value } => write!(
                f,
                "line {line}: quantized row has bad scale {value} (need finite, >= 0)"
            ),
            ServeError::QuantZeroPoint { line, value } => write!(
                f,
                "line {line}: quantized row has non-finite zero-point {value}"
            ),
            ServeError::Predict(e) => write!(f, "{e}"),
            ServeError::QueueFull { capacity } => {
                write!(f, "serve queue full ({capacity} pending requests)")
            }
            ServeError::Expired { waited_ms } => {
                write!(
                    f,
                    "request deadline expired after {waited_ms:.3} ms in queue"
                )
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::WorkerFailed { retries } => {
                write!(
                    f,
                    "worker failed after {retries} retries (panic budget spent)"
                )
            }
            ServeError::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "overloaded (circuit open); retry after {retry_after_ms:.0} ms"
                )
            }
            ServeError::ShuttingDown => write!(f, "serve pool shutting down"),
            ServeError::SwapRejected(msg) => write!(f, "swap rejected: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Predict(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<PredictError> for ServeError {
    fn from(e: PredictError) -> Self {
        ServeError::Predict(e)
    }
}

impl From<TextError> for ServeError {
    fn from(e: TextError) -> Self {
        ServeError::Artifact(e.0)
    }
}

/// The crate-spanning error: every subsystem's failure type, one `Display`
/// path. The CLI returns `Result<(), RddError>` from each command instead
/// of per-module ad-hoc strings.
#[derive(Debug)]
pub enum RddError {
    /// Crash-safe run directory errors.
    Run(rdd_core::RunError),
    /// Model checkpoint save/load errors.
    Checkpoint(CheckpointError),
    /// Dataset directory load/save errors.
    DatasetIo(rdd_graph::io::IoError),
    /// Rejected configuration values.
    Config(ConfigError),
    /// Artifact / serve-engine errors.
    Serve(ServeError),
    /// Anything else the CLI surfaces (argument parsing, ad-hoc IO).
    Cli(String),
}

impl std::fmt::Display for RddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RddError::Run(e) => write!(f, "{e}"),
            RddError::Checkpoint(e) => write!(f, "{e}"),
            RddError::DatasetIo(e) => write!(f, "{e}"),
            RddError::Config(e) => write!(f, "{e}"),
            RddError::Serve(e) => write!(f, "{e}"),
            RddError::Cli(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RddError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RddError::Run(e) => Some(e),
            RddError::Checkpoint(e) => Some(e),
            RddError::DatasetIo(e) => Some(e),
            RddError::Config(e) => Some(e),
            RddError::Serve(e) => Some(e),
            RddError::Cli(_) => None,
        }
    }
}

impl From<rdd_core::RunError> for RddError {
    fn from(e: rdd_core::RunError) -> Self {
        RddError::Run(e)
    }
}

impl From<CheckpointError> for RddError {
    fn from(e: CheckpointError) -> Self {
        RddError::Checkpoint(e)
    }
}

impl From<rdd_graph::io::IoError> for RddError {
    fn from(e: rdd_graph::io::IoError) -> Self {
        RddError::DatasetIo(e)
    }
}

impl From<ConfigError> for RddError {
    fn from(e: ConfigError) -> Self {
        RddError::Config(e)
    }
}

impl From<ServeError> for RddError {
    fn from(e: ServeError) -> Self {
        RddError::Serve(e)
    }
}

impl From<String> for RddError {
    fn from(msg: String) -> Self {
        RddError::Cli(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_display_path_for_every_subsystem() {
        let cases: Vec<(RddError, &str)> = vec![
            (
                RddError::Run(rdd_core::RunError::Corrupt("bad sums".into())),
                "bad sums",
            ),
            (
                RddError::Config(ConfigError::invalid("rdd.p", 0.0, "a fraction in (0, 1]")),
                "rdd.p",
            ),
            (
                RddError::Serve(ServeError::QueueFull { capacity: 8 }),
                "queue full",
            ),
            (
                RddError::Serve(ServeError::Checksum {
                    stored: 1,
                    computed: 2,
                }),
                "checksum mismatch",
            ),
            (RddError::Cli("unknown flag --frob".into()), "--frob"),
            (
                RddError::Serve(ServeError::WorkerFailed { retries: 2 }),
                "after 2 retries",
            ),
            (
                RddError::Serve(ServeError::Overloaded {
                    retry_after_ms: 750.0,
                }),
                "retry after 750 ms",
            ),
            (RddError::Serve(ServeError::ShuttingDown), "shutting down"),
            (
                RddError::Serve(ServeError::SwapRejected("class count changed".into())),
                "class count",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn from_impls_wrap_each_source() {
        let e: RddError = ConfigError::invalid("train.lr", -1.0, "> 0").into();
        assert!(matches!(e, RddError::Config(_)));
        let e: RddError = ServeError::BadRequest("not json".into()).into();
        assert!(matches!(e, RddError::Serve(_)));
        let e: RddError = String::from("plain").into();
        assert!(matches!(e, RddError::Cli(_)));
        let e: RddError = rdd_core::RunError::Unsupported("v99".into()).into();
        assert!(matches!(e, RddError::Run(_)));
    }
}
