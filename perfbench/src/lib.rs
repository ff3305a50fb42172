//! The repository benchmark.
//!
//! One binary (`src/main.rs`) runs a named workload for a fixed number
//! of seconds and prints every metric by name with its unit, ending with
//! one JSON line. With `--trace 0` it measures the end-to-end metrics
//! with no instrumentation ([`untraced`]); with `--trace 1` it drives
//! each layer's public functions one at a time under in-memory spans
//! ([`traced`], [`composed`], [`trace`]). The benchmark only calls the
//! public APIs of `hh_model`, `hh_core` and `hh_sim`: the engine crates
//! stay clock-free. See `README.md` beside this crate for the metric
//! definitions and why each workload exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::path::{Path, PathBuf};

pub mod composed;
pub mod json;
pub mod trace;
pub mod traced;
pub mod untraced;
pub mod workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What one run reports: the output checks, the operation counts, and
/// the metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Timed operations attempted (trials or segments).
    pub attempted: u64,
    /// Timed operations that failed (errored, ran short, or missed
    /// convergence they were expected to reach).
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Descriptions of failed output checks.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Records an output check: a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.mismatches.push(what());
        }
    }
}

/// `numerator / denominator`, or NaN when the denominator is zero.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        f64::NAN
    } else {
        numerator / denominator
    }
}

/// Where the traced run of `workload` writes its spans:
/// `traces/<workload>.csv` beside this crate.
#[must_use]
pub fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}.csv"))
}

/// The process's peak resident set size in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where that file does not exist.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert!(ratio(1.0, 0.0).is_nan());
    }
}
