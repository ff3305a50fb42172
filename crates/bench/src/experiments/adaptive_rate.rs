//! F13 — Section 6's "improved running time": the adaptive recruitment
//! rate versus `k`.
//!
//! Sweeps `k` at fixed `n` for the simple `count/n` rule and the
//! adaptive `k̃(r)` schedule. The claim under test: the adaptive rule
//! removes the linear `k` dependence (its convergence time stays
//! polylogarithmic), at the cost of a fixed polylog prologue that makes
//! it slower at trivially small `k`.

use hh_analysis::{fit_linear, fmt_f64, Table};
use hh_core::colony;
use hh_sim::ConvergenceRule;

use super::common::{measure_cell, plain_scenario, success_gate};
use super::{ExperimentReport, Finding, Mode};

/// Runs experiment F13.
#[must_use]
pub fn run(mode: Mode) -> ExperimentReport {
    let trials = mode.trials(6, 24);
    let n = match mode {
        Mode::Quick => 512,
        Mode::Full => 1_024,
    };
    let ks = match mode {
        Mode::Quick => vec![2usize, 4, 8, 16],
        Mode::Full => vec![2usize, 4, 8, 16, 32],
    };

    let mut table = Table::new(["k", "simple (rounds)", "adaptive (rounds)", "speedup"]);
    let mut simple_means = Vec::new();
    let mut adaptive_means = Vec::new();
    let mut cells = Vec::new();
    for (ki, &k) in ks.iter().enumerate() {
        let simple = measure_cell(
            trials,
            120_000,
            ConvergenceRule::commitment(),
            13,
            ki as u64 * 2,
            plain_scenario(n, k, k),
            move |seed| colony::simple(n, seed),
        );
        let adaptive = measure_cell(
            trials,
            120_000,
            ConvergenceRule::commitment(),
            13,
            ki as u64 * 2 + 1,
            plain_scenario(n, k, k),
            move |seed| colony::adaptive(n, seed),
        );
        cells.push((format!("simple, k={k}"), simple.success));
        cells.push((format!("adaptive, k={k}"), adaptive.success));
        simple_means.push(simple.mean_rounds());
        adaptive_means.push(adaptive.mean_rounds());
        table.row([
            k.to_string(),
            fmt_f64(simple.mean_rounds(), 1),
            fmt_f64(adaptive.mean_rounds(), 1),
            format!(
                "{}x",
                fmt_f64(simple.mean_rounds() / adaptive.mean_rounds(), 2)
            ),
        ]);
    }

    let xs: Vec<f64> = ks.iter().map(|&k| k as f64).collect();
    let simple_fit = fit_linear(&xs, &simple_means).expect("fit");
    let adaptive_fit = fit_linear(&xs, &adaptive_means).expect("fit");
    let simple_growth = simple_means.last().unwrap() / simple_means[0];
    let adaptive_growth = adaptive_means.last().unwrap() / adaptive_means[0];

    let findings = vec![
        success_gate("each rule solves", 0.9, &cells),
        Finding::new(
            "the adaptive rule's k-slope is far below the simple rule's",
            format!(
                "per-k slopes: simple {:.2} rounds/k, adaptive {:.2} rounds/k",
                simple_fit.slope, adaptive_fit.slope
            ),
            adaptive_fit.slope < simple_fit.slope * 0.5,
        ),
        Finding::new(
            "end-to-end growth over the k sweep: adaptive ≈ flat, simple grows",
            format!(
                "rounds grew {:.2}x (simple) vs {:.2}x (adaptive) as k went {}→{}",
                simple_growth,
                adaptive_growth,
                ks[0],
                ks.last().unwrap()
            ),
            adaptive_growth < simple_growth,
        ),
        Finding::new(
            "the adaptive rule wins at the largest k",
            format!(
                "speedup at k={}: {:.2}x",
                ks.last().unwrap(),
                simple_means.last().unwrap() / adaptive_means.last().unwrap()
            ),
            simple_means.last().unwrap() > adaptive_means.last().unwrap(),
        ),
    ];

    let body = format!(
        "n = {n}, all nests good, {trials} trials per cell;\n\
         adaptive schedule: k̃(r) decays √n → 2, θ = 0.4 (see hh-core::adaptive docs)\n\n{table}"
    );
    ExperimentReport {
        id: "F13",
        title: "Section 6 — adaptive recruitment rate vs k",
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
        // The success gate, then the three shape findings.
        assert_eq!(report.findings.len(), 4);
        assert!(report.findings[0].claim.starts_with("sanity gate"));
    }
}
