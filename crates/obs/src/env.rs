//! One consistent parse/warn path for `RDD_*` environment knobs.
//!
//! Before this module, each env knob hand-rolled the same dance — read the
//! variable, try to parse it, print a slightly different warning on
//! garbage, fall back to the default — with a different message format
//! each and no trace-visible record. Now every
//! knob funnels through [`parse_with`]: a rejected value emits a single
//! structured `env_warn` event (`var`, `value`, `expected`) when tracing is
//! on, or the same text to stderr when it is off, and the caller keeps its
//! default.
//!
//! Callers latch the parsed result themselves (`OnceLock` at the call
//! site), matching the repo convention that env knobs are read once per
//! process.

use crate::json::Json;
use crate::recorder;

/// The one warning format for a rejected env value. The recorder's own
/// `RDD_TRACE` handling reuses this (it cannot emit an event mid-init).
pub fn warn_message(var: &str, value: &str, expected: &str) -> String {
    format!("{var}={value:?} is invalid (expected {expected}); using default")
}

/// Record that `value` for `var` was rejected: a structured `env_warn`
/// event when tracing is on, the same text on stderr otherwise.
pub fn reject(var: &str, value: &str, expected: &str) {
    if recorder::enabled() {
        recorder::event(
            "env_warn",
            &[
                ("var", Json::from(var)),
                ("value", Json::from(value)),
                ("expected", Json::from(expected)),
            ],
        );
    } else {
        eprintln!("{}", warn_message(var, value, expected));
    }
}

/// Read `var` and run it through `parse`.
///
/// - unset or empty → `None`, silently (the knob was not used);
/// - `parse` returns `Some(v)` → `Some(v)`;
/// - `parse` returns `None` → [`reject`] fires and the caller gets `None`
///   (i.e. keeps its default).
///
/// `expected` is a short human description of the accepted values, e.g.
/// `"a positive integer"` or `"on|off"`.
pub fn parse_with<T>(
    var: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    if raw.is_empty() {
        return None;
    }
    match parse(&raw) {
        Some(v) => Some(v),
        None => {
            reject(var, &raw, expected);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; reuse the recorder's test lock so
    // these do not interleave with sink-toggling tests.
    use super::super::recorder::tests::lock;

    #[test]
    fn unset_and_empty_are_silent_none() {
        let _g = lock();
        std::env::remove_var("RDD_ENV_TEST_UNSET");
        assert_eq!(
            parse_with("RDD_ENV_TEST_UNSET", "anything", |_| Some(1)),
            None
        );
        std::env::set_var("RDD_ENV_TEST_EMPTY", "");
        assert_eq!(
            parse_with("RDD_ENV_TEST_EMPTY", "anything", |_| Some(1)),
            None
        );
        std::env::remove_var("RDD_ENV_TEST_EMPTY");
    }

    #[test]
    fn good_value_parses() {
        let _g = lock();
        std::env::set_var("RDD_ENV_TEST_GOOD", "7");
        assert_eq!(
            parse_with("RDD_ENV_TEST_GOOD", "a positive integer", |v| v
                .parse::<usize>()
                .ok()),
            Some(7)
        );
        std::env::remove_var("RDD_ENV_TEST_GOOD");
    }

    #[test]
    fn bad_value_warns_and_defaults() {
        let _g = lock();
        let path = std::env::temp_dir().join(format!("rdd_env_warn_{}.jsonl", std::process::id()));
        recorder::init_file(&path).unwrap();
        std::env::set_var("RDD_ENV_TEST_BAD", "banana");
        let got = parse_with("RDD_ENV_TEST_BAD", "a positive integer", |v| {
            v.parse::<usize>().ok()
        });
        std::env::remove_var("RDD_ENV_TEST_BAD");
        recorder::flush();
        recorder::disable();
        assert_eq!(got, None);
        let text = std::fs::read_to_string(&path).unwrap();
        let warned = text
            .lines()
            .filter_map(|l| super::super::json::parse(l).ok())
            .any(|e| {
                e.get("ev").and_then(Json::as_str) == Some("env_warn")
                    && e.get("var").and_then(Json::as_str) == Some("RDD_ENV_TEST_BAD")
                    && e.get("value").and_then(Json::as_str) == Some("banana")
            });
        assert!(warned, "env_warn event must reach the trace");
        std::fs::remove_file(&path).ok();
    }
}
