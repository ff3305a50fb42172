//! F1 — Theorem 3.2: every algorithm needs Ω(log n) rounds.
//!
//! Measures the best-case information-spreading processes
//! ([`SpreaderAnt`](hh_core::SpreaderAnt)) in the lower-bound setting (a
//! single good nest among `k = 2`): rounds until every ant knows the
//! winning nest, versus `n`. The paper's bound says *no* strategy can beat
//! `(log₄ n)/2 − O(1)`; the measured curves must sit above the bound line
//! and grow logarithmically.

use hh_analysis::{fit_log2, fmt_f64, Table};
use hh_core::{colony, SpreadStrategy};
use hh_model::QualitySpec;
use hh_sim::{ConvergenceRule, ScenarioSpec};

use super::common::{doubling, measure_cell, success_gate};
use super::{ExperimentReport, Finding, Mode};

/// The analytic floor from the proof of Theorem 3.2 (constants dropped):
/// `(log₄ n)/2 = log₂(n)/4`.
#[must_use]
pub fn theorem_3_2_floor(n: usize) -> f64 {
    (n.max(1) as f64).log2() / 4.0
}

/// Runs experiment F1.
#[must_use]
pub fn run(mode: Mode) -> ExperimentReport {
    // Quick mode still needs a tight estimator: the log-fit R² gate
    // below is applied to per-cell means, whose per-doubling signal is
    // under a round — small-trial means are noisy enough to flip it on
    // an unlucky seed stream. Spreading runs are cheap (the whole F1
    // quick sweep is ~0.1 s), so quick matches full here.
    let trials = 24;
    let ns = match mode {
        Mode::Quick => doubling(6, 11),
        Mode::Full => doubling(6, 14),
    };
    let strategies = [
        SpreadStrategy::WaitAtHome,
        SpreadStrategy::SearchForever,
        SpreadStrategy::Hybrid {
            search_probability: 0.3,
        },
    ];

    let mut table = Table::new([
        "n",
        "wait (rounds)",
        "search (rounds)",
        "hybrid (rounds)",
        "bound (log2 n)/4",
    ]);
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    let mut all_above_bound = true;
    let mut cells = Vec::new();

    for (ni, &n) in ns.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (si, &strategy) in strategies.iter().enumerate() {
            let cell = measure_cell(
                trials,
                50_000,
                ConvergenceRule::commitment(),
                1,
                (ni * strategies.len() + si) as u64,
                move |_| ScenarioSpec::new(n, QualitySpec::single_good(2, 1)),
                move |seed| colony::spreaders(n, seed, strategy),
            );
            cells.push((format!("n={n}, {strategy:?}"), cell.success));
            let mean = cell.mean_rounds();
            if mean < theorem_3_2_floor(n) {
                all_above_bound = false;
            }
            means[si].push(mean);
            row.push(fmt_f64(mean, 1));
        }
        row.push(fmt_f64(theorem_3_2_floor(n), 1));
        table.row(row);
    }

    let mut findings = vec![success_gate("spreaders finish", 0.99, &cells)];
    findings.push(Finding::new(
        "no strategy beats the Theorem 3.2 floor (log2 n)/4",
        if all_above_bound {
            "all means above the bound line"
        } else {
            "a mean dipped below the bound"
        }
        .to_string(),
        all_above_bound,
    ));

    // The fastest strategy must itself grow like log n: strong positive
    // log-fit, and sublinear growth across the doubling sweep.
    let wait_fit = fit_log2(&ns, &means[0]).expect("fit");
    findings.push(Finding::new(
        "best-case spreading grows ≈ a·log2 n (Θ(log n), matching the bound)",
        format!(
            "wait-at-home fit: {:.2}·log2(n) + {:.2}, R² = {:.3}",
            wait_fit.slope, wait_fit.intercept, wait_fit.r_squared
        ),
        wait_fit.slope > 0.0 && wait_fit.r_squared >= 0.8,
    ));

    let growth = hh_analysis::growth_assessment(&means[0]).expect("growth");
    findings.push(Finding::new(
        "doubling n adds ≈ constant rounds (log growth, not linear)",
        format!(
            "mean step per doubling {:.2} rounds; mean ratio {:.2}",
            growth.mean_difference, growth.mean_ratio
        ),
        growth.looks_sublinear(1.5),
    ));

    let body = format!(
        "single good nest among k = 2; {trials} trials per cell;\n\
         rounds until every ant is informed of the winner\n\n{table}"
    );
    ExperimentReport {
        id: "F1",
        title: "Theorem 3.2 — Ω(log n) lower bound",
        body,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_logarithmic() {
        assert!(theorem_3_2_floor(16) < theorem_3_2_floor(1024));
        assert!((theorem_3_2_floor(16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quick_mode_runs_and_passes() {
        let report = run(Mode::Quick);
        assert_eq!(report.id, "F1");
        assert!(!report.findings.is_empty());
        assert!(report.all_passed(), "findings: {:#?}", report.findings);
    }
}
