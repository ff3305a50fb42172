//! F17 — Section 6's "asynchrony" extension: partial synchrony as
//! per-round delays.
//!
//! The paper conjectures that Algorithm 3 "can be extended to work in a
//! partially-synchronous model, potentially at the cost of some extra
//! running time", while Algorithm 2 "relies heavily on the synchrony in
//! the execution". We model partial synchrony as independent per-(ant,
//! round) delays: a delayed ant misses its whole round (its action is
//! replaced by a location-preserving no-op and it observes nothing).
//!
//! The experiment sweeps the registry's delay fault axis for both
//! algorithms and reports success rate and slowdown.

use hh_analysis::{fmt_f64, Table};
use hh_model::QualitySpec;
use hh_sim::registry::{Algorithm, ColonyMix, FaultSchedule, Scenario};
use hh_sim::ConvergenceRule;

use super::common::{cell_seed, measure_scenario};
use super::{ExperimentReport, Finding, Mode};

const N: usize = 128;
const K: usize = 4;
const GOOD: usize = 2;

/// Runs experiment F17.
#[must_use]
pub fn run(mode: Mode) -> ExperimentReport {
    let trials = mode.trials(8, 32);
    let delay_probs = [0.0, 0.05, 0.10, 0.20, 0.30];
    let rule = ConvergenceRule::stable_commitment(8);

    let delay_cell = |algorithm: Algorithm, probability: f64, cell: u64| {
        let faults = if probability > 0.0 {
            FaultSchedule::Delay { probability }
        } else {
            FaultSchedule::None
        };
        Scenario::custom(
            format!("f17-{}-p{probability}", algorithm.label()),
            N,
            QualitySpec::GoodPrefix { k: K, good: GOOD },
            faults,
            ColonyMix::Uniform(algorithm),
        )
        .rule(rule)
        .max_rounds(40_000)
        .base_seed_value(cell_seed(17, cell, 0))
    };

    let mut table = Table::new(["delay probability", "optimal", "simple", "simple slowdown"]);
    let mut simple_survives = true;
    let mut optimal_fragile = false;
    let mut baseline_rounds = 0.0;
    let mut slowdown_at_20 = 0.0;
    for (di, &prob) in delay_probs.iter().enumerate() {
        let optimal =
            measure_scenario(trials, &delay_cell(Algorithm::Optimal, prob, di as u64 * 2));
        let simple = measure_scenario(
            trials,
            &delay_cell(Algorithm::Simple, prob, di as u64 * 2 + 1),
        );
        if prob == 0.0 {
            baseline_rounds = simple.median_rounds();
        }
        if prob <= 0.2 && simple.success < 0.85 {
            simple_survives = false;
        }
        if prob >= 0.1 && optimal.success < 0.8 {
            optimal_fragile = true;
        }
        let slowdown = if baseline_rounds > 0.0 && simple.success > 0.0 {
            simple.median_rounds() / baseline_rounds
        } else {
            f64::NAN
        };
        if (prob - 0.2).abs() < 1e-9 {
            slowdown_at_20 = slowdown;
        }
        table.row([
            format!("{}%", fmt_f64(prob * 100.0, 0)),
            format!("{}%", fmt_f64(optimal.success * 100.0, 0)),
            format!("{}%", fmt_f64(simple.success * 100.0, 0)),
            format!("{}x", fmt_f64(slowdown, 2)),
        ]);
    }

    let findings = vec![
        Finding::new(
            "the simple algorithm works under partial synchrony (≤ 20% delays)",
            format!("success ≥ 85% through 20% delays: {simple_survives}"),
            simple_survives,
        ),
        Finding::new(
            "asynchrony costs the simple algorithm only extra running time",
            format!("slowdown at 20% delays: {:.2}x", slowdown_at_20),
            (1.0..=4.0).contains(&slowdown_at_20),
        ),
        Finding::new(
            "the optimal algorithm relies on lockstep synchrony and degrades",
            format!("optimal success below 80% at ≥ 10% delays: {optimal_fragile}"),
            optimal_fragile,
        ),
    ];

    let body = format!(
        "n = {N}, k = {K} ({GOOD} good), {trials} trials per cell;\n\
         a delayed ant misses its whole round (no action, no observation)\n\n{table}"
    );
    ExperimentReport {
        id: "F17",
        title: "Section 6 — partial asynchrony (per-round delays)",
        body,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_runs() {
        let report = run(Mode::Quick);
        assert_eq!(report.findings.len(), 3);
        assert!(report.body.contains("delay probability"));
    }
}
