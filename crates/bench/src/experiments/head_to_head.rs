//! F7 — optimal vs simple: who wins, by how much, and where the gap
//! opens.
//!
//! The paper's two algorithms differ asymptotically by a factor of `k`.
//! This experiment runs both on identical instances across a `k` sweep
//! and reports the mean-round ratio. Expected shape: comparable at small
//! `k` (constants can even favour the simple algorithm), with the
//! simple/optimal ratio growing with `k`.

use hh_analysis::{fmt_f64, Table};
use hh_model::QualitySpec;
use hh_sim::registry::{Algorithm, ColonyMix, FaultSchedule, Scenario};
use hh_sim::ConvergenceRule;

use super::common::{cell_seed, measure_scenario, success_gate};
use super::{ExperimentReport, Finding, Mode};

/// Runs experiment F7.
#[must_use]
pub fn run(mode: Mode) -> ExperimentReport {
    // At n=512 the optimal/simple gap at k=64 sits right on the 1.2x
    // "wins clearly" threshold; quick mode needs the larger colony for
    // the ratio finding to measure the asymptotic shape at all.
    let trials = mode.trials(12, 24);
    let n = match mode {
        Mode::Quick => 1_024,
        Mode::Full => 2_048,
    };
    let ks = match mode {
        Mode::Quick => vec![2usize, 4, 16, 64],
        Mode::Full => vec![2usize, 4, 8, 16, 32, 64],
    };

    // All-good habitats: both algorithms race on pure competition.
    let race_cell = |algorithm: Algorithm, k: usize, cell: u64| {
        let (rule, budget) = match algorithm {
            Algorithm::Optimal => (ConvergenceRule::all_final(), 60_000),
            _ => (ConvergenceRule::commitment(), 120_000),
        };
        Scenario::custom(
            format!("f7-{}-k{k}", algorithm.label()),
            n,
            QualitySpec::AllGood { k },
            FaultSchedule::None,
            ColonyMix::Uniform(algorithm),
        )
        .rule(rule)
        .max_rounds(budget)
        .base_seed_value(cell_seed(7, cell, 0))
    };

    let mut table = Table::new(["k", "optimal (rounds)", "simple (rounds)", "simple/optimal"]);
    let mut ratios = Vec::new();
    let mut cells = Vec::new();
    for (ki, &k) in ks.iter().enumerate() {
        let optimal = measure_scenario(trials, &race_cell(Algorithm::Optimal, k, ki as u64 * 2));
        let simple = measure_scenario(trials, &race_cell(Algorithm::Simple, k, ki as u64 * 2 + 1));
        cells.push((format!("optimal, k={k}"), optimal.success));
        cells.push((format!("simple, k={k}"), simple.success));
        let ratio = simple.median_rounds() / optimal.median_rounds();
        ratios.push(ratio);
        table.row([
            k.to_string(),
            fmt_f64(optimal.median_rounds(), 1),
            fmt_f64(simple.median_rounds(), 1),
            fmt_f64(ratio, 2),
        ]);
    }

    let findings = vec![
        success_gate("each algorithm solves", 0.9, &cells),
        Finding::new(
            "the simple/optimal round ratio grows with k (the O(k) gap)",
            format!(
                "ratio at k={}: {:.2}; at k={}: {:.2}",
                ks[0],
                ratios[0],
                ks.last().unwrap(),
                ratios.last().unwrap()
            ),
            ratios.last().unwrap() > &ratios[0],
        ),
        Finding::new(
            "the optimal algorithm wins clearly at the largest k",
            format!(
                "ratio {:.2} at k={}",
                ratios.last().unwrap(),
                ks.last().unwrap()
            ),
            *ratios.last().unwrap() > 1.2,
        ),
    ];

    let body = format!(
        "n = {n}, all nests good, {trials} trials per cell;\n\
         optimal measured to all-final, simple to commitment consensus\n\n{table}"
    );
    ExperimentReport {
        id: "F7",
        title: "Optimal vs simple — who wins, and by how much",
        body,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_produces_rows() {
        let report = run(Mode::Quick);
        assert!(report.body.contains("simple/optimal"));
        // The success gate, then the two shape findings.
        assert_eq!(report.findings.len(), 3);
        assert!(report.findings[0].claim.starts_with("sanity gate"));
    }
}
