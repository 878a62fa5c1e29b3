//! Validated configuration construction.
//!
//! Bare field-struct configs made it possible to hand the trainer nonsense
//! (`p = 0`, `epochs = 0`, a negative learning rate) that only surfaced as
//! a hang or NaN deep inside a run. The builders here front-load those
//! checks: `TrainConfig::builder().lr(..).build()` returns a typed
//! [`ConfigError`] instead. The `citation()`/`nell()`/`fast()` presets are
//! builder shortcuts, so every public construction path is validated.
//! Struct fields stay `pub` — struct-update syntax over a preset
//! (`TrainConfig { epochs: 5, ..TrainConfig::fast() }`) remains the idiom
//! for tests; `validate()` lets callers re-check such a hand-edited value.

use crate::trainer::{DivergencePolicy, TrainConfig};

/// A rejected configuration value: which field, what it was, what the
/// builder expects. One uniform shape keeps the CLI's error path to a
/// single `Display` rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted field path (e.g. `train.lr`).
    pub field: &'static str,
    /// The offending value, stringified.
    pub value: String,
    /// Human description of the accepted range.
    pub expected: &'static str,
}

impl ConfigError {
    /// Build an error for `field` holding `value`.
    pub fn invalid(
        field: &'static str,
        value: impl std::fmt::Display,
        expected: &'static str,
    ) -> Self {
        Self {
            field,
            value: value.to_string(),
            expected,
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid config: {} = {} (expected {})",
            self.field, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

/// Check `cond` or report `field` = `value` out of range.
pub(crate) fn ensure(
    cond: bool,
    field: &'static str,
    value: impl std::fmt::Display,
    expected: &'static str,
) -> Result<(), ConfigError> {
    if cond {
        Ok(())
    } else {
        Err(ConfigError::invalid(field, value, expected))
    }
}

/// Validating builder for [`TrainConfig`]. Defaults to the citation-network
/// preset; every setter overrides one field and [`TrainConfigBuilder::build`]
/// rejects out-of-range combinations with a typed [`ConfigError`].
#[derive(Clone, Debug)]
pub struct TrainConfigBuilder {
    cfg: TrainConfig,
}

impl TrainConfigBuilder {
    pub(crate) fn new(cfg: TrainConfig) -> Self {
        Self { cfg }
    }

    /// Base learning rate (finite, > 0).
    pub fn lr(mut self, lr: f32) -> Self {
        self.cfg.lr = lr;
        self
    }

    /// L2 coefficient on decay-masked parameters (finite, ≥ 0).
    pub fn weight_decay(mut self, weight_decay: f32) -> Self {
        self.cfg.weight_decay = weight_decay;
        self
    }

    /// Maximum epochs (≥ 1).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.cfg.epochs = epochs;
        self
    }

    /// Early-stopping patience (≥ 1).
    pub fn patience(mut self, patience: usize) -> Self {
        self.cfg.patience = patience;
        self
    }

    /// Never early-stop before this many epochs.
    pub fn min_epochs(mut self, min_epochs: usize) -> Self {
        self.cfg.min_epochs = min_epochs;
        self
    }

    /// Progress-report period (0 = quiet).
    pub fn log_every(mut self, log_every: usize) -> Self {
        self.cfg.log_every = log_every;
        self
    }

    /// Non-finite loss/gradient recovery policy.
    pub fn divergence(mut self, divergence: DivergencePolicy) -> Self {
        self.cfg.divergence = divergence;
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> Result<TrainConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl TrainConfig {
    /// A validating builder seeded with the [`TrainConfig::citation`]
    /// defaults.
    pub fn builder() -> TrainConfigBuilder {
        TrainConfigBuilder::new(TrainConfig::preset_citation())
    }

    /// A builder seeded with this configuration's current values.
    pub fn to_builder(&self) -> TrainConfigBuilder {
        TrainConfigBuilder::new(self.clone())
    }

    /// The checks behind [`TrainConfigBuilder::build`], callable on a
    /// hand-edited (struct-update) configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure(
            self.lr.is_finite() && self.lr > 0.0,
            "train.lr",
            self.lr,
            "a finite learning rate > 0",
        )?;
        ensure(
            self.weight_decay.is_finite() && self.weight_decay >= 0.0,
            "train.weight_decay",
            self.weight_decay,
            "a finite weight decay >= 0",
        )?;
        ensure(self.epochs >= 1, "train.epochs", self.epochs, ">= 1 epoch")?;
        ensure(
            self.patience >= 1,
            "train.patience",
            self.patience,
            ">= 1 epoch of patience",
        )?;
        let backoff = self.divergence.lr_backoff;
        ensure(
            backoff.is_finite() && backoff > 0.0 && backoff <= 1.0,
            "train.divergence.lr_backoff",
            backoff,
            "a backoff factor in (0, 1]",
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_pass_their_own_validation() {
        for cfg in [
            TrainConfig::citation(),
            TrainConfig::nell(),
            TrainConfig::fast(),
        ] {
            cfg.validate().expect("preset must validate");
        }
    }

    #[test]
    fn builder_overrides_fields() {
        let cfg = TrainConfig::builder()
            .lr(0.05)
            .epochs(7)
            .patience(3)
            .min_epochs(2)
            .build()
            .expect("valid");
        assert_eq!(cfg.lr, 0.05);
        assert_eq!(cfg.epochs, 7);
        // Untouched fields keep the citation defaults.
        assert_eq!(cfg.weight_decay, TrainConfig::citation().weight_decay);
    }

    #[test]
    fn nonsense_is_rejected_with_the_field_name() {
        let cases: Vec<(TrainConfigBuilder, &str)> = vec![
            (TrainConfig::builder().lr(-0.01), "train.lr"),
            (TrainConfig::builder().lr(f32::NAN), "train.lr"),
            (
                TrainConfig::builder().weight_decay(-1.0),
                "train.weight_decay",
            ),
            (TrainConfig::builder().epochs(0), "train.epochs"),
            (TrainConfig::builder().patience(0), "train.patience"),
            (
                TrainConfig::builder().divergence(DivergencePolicy {
                    max_retries: 3,
                    lr_backoff: 0.0,
                }),
                "train.divergence.lr_backoff",
            ),
        ];
        for (builder, field) in cases {
            let err = builder.build().expect_err("must be rejected");
            assert_eq!(err.field, field, "{err}");
            let msg = err.to_string();
            assert!(msg.contains(field), "{msg}");
        }
    }

    #[test]
    fn to_builder_roundtrips() {
        let cfg = TrainConfig::fast();
        let back = cfg.to_builder().build().expect("still valid");
        assert_eq!(back, cfg);
    }
}
