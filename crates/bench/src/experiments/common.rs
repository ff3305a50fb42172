//! Shared measurement helpers for the experiment modules.

use hh_analysis::{Quantiles, Summary};
use hh_core::Colony;
use hh_model::QualitySpec;
use hh_sim::registry::Scenario;
use hh_sim::{run_trials, solved_rounds, success_rate, ConvergenceRule, ScenarioSpec, Simulation};

use super::Finding;

/// Base seed for all experiments; every (experiment, cell, trial) derives
/// from it so the whole harness is reproducible.
pub const BASE_SEED: u64 = 0x20150514; // the paper's arXiv date

/// Derives the per-trial seed for a sweep cell.
#[must_use]
pub fn cell_seed(experiment: u64, cell: u64, trial: usize) -> u64 {
    hh_model::seeding::derive_seed(
        BASE_SEED ^ experiment.wrapping_mul(0x9E37_79B9),
        hh_model::seeding::StreamKind::Auxiliary,
        cell.wrapping_mul(1_000_003) + trial as u64,
    )
}

/// Aggregated result of one sweep cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Raw per-trial convergence rounds (solved trials only).
    pub rounds_list: Vec<f64>,
    /// Fraction of trials that solved.
    pub success: f64,
}

impl CellResult {
    /// Mean rounds of the solved trials (`NaN`-free: 0 when none solved).
    #[must_use]
    pub fn mean_rounds(&self) -> f64 {
        let rounds: Summary = self.rounds_list.iter().copied().collect();
        if rounds.is_empty() {
            0.0
        } else {
            rounds.mean()
        }
    }

    /// Median rounds of the solved trials — robust to the occasional
    /// slow outlier execution; 0 when none solved.
    #[must_use]
    pub fn median_rounds(&self) -> f64 {
        Quantiles::new(self.rounds_list.clone())
            .map(|q| q.median())
            .unwrap_or(0.0)
    }
}

/// Measures one sweep cell: `trials` runs of a colony built by
/// `colony(seed)` on the scenario built by `scenario(seed)`.
///
/// # Panics
///
/// Panics on harness errors (invalid configuration), which indicate bugs
/// in the experiment definition rather than interesting outcomes.
pub fn measure_cell(
    trials: usize,
    max_rounds: u64,
    rule: ConvergenceRule,
    experiment: u64,
    cell: u64,
    scenario: impl Fn(u64) -> ScenarioSpec + Sync,
    colony: impl Fn(u64) -> Colony + Sync,
) -> CellResult {
    let outcomes = run_trials(trials, max_rounds, rule, |trial| {
        let seed = cell_seed(experiment, cell, trial);
        scenario(seed).seed(seed).build_simulation(colony(seed))
    })
    .expect("experiment cell must be a valid configuration");
    CellResult {
        rounds_list: solved_rounds(&outcomes),
        success: success_rate(&outcomes),
    }
}

/// Convenience: an unperturbed scenario with a good-prefix quality spec.
pub fn plain_scenario(n: usize, k: usize, good: usize) -> impl Fn(u64) -> ScenarioSpec + Sync {
    move |_seed| ScenarioSpec::new(n, QualitySpec::good_prefix(k, good))
}

/// Measures one sweep cell described as a registry [`Scenario`]: runs
/// `trials` trials under the scenario's own convergence rule and round
/// budget, with trial seeds derived from its base seed (experiments pin
/// the base seed to [`cell_seed`] for sweep-stable reproducibility).
///
/// # Panics
///
/// Panics on harness errors (invalid configuration), which indicate bugs
/// in the scenario definition rather than interesting outcomes.
#[must_use]
pub fn measure_scenario(trials: usize, scenario: &Scenario) -> CellResult {
    let outcomes = scenario
        .run_trials(trials)
        .expect("registry scenario must be a valid configuration");
    CellResult {
        rounds_list: solved_rounds(&outcomes),
        success: success_rate(&outcomes),
    }
}

/// Builds a simulation directly (for instrumented single runs).
///
/// # Panics
///
/// Panics on invalid configurations (experiment-definition bugs).
#[must_use]
pub fn build_sim(n: usize, spec: QualitySpec, seed: u64, agents: Colony) -> Simulation {
    ScenarioSpec::new(n, spec)
        .seed(seed)
        .build_simulation(agents)
        .expect("valid experiment configuration")
}

/// A sanity gate on an experiment's fit inputs, not a paper claim: every
/// cell, given as `(label, success rate)`, must solve more than
/// `threshold` of its trials, or the fit would measure failures instead
/// of rounds. The finding states the threshold and the lowest cell's
/// success; a failed gate fails the experiment without stopping the run.
#[must_use]
pub fn success_gate(subject: &str, threshold: f64, cells: &[(String, f64)]) -> Finding {
    let claim = format!(
        "sanity gate: {subject} more than {}% of the trials in every cell",
        threshold * 100.0
    );
    match cells.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
        Some((cell, success)) => Finding::new(
            claim,
            format!("lowest cell ({cell}): {:.1}% solved", success * 100.0),
            *success > threshold,
        ),
        None => Finding::new(claim, "no cell measured", false),
    }
}

/// Formats a `doubling sweep` of n values: 2^lo ..= 2^hi.
#[must_use]
pub fn doubling(lo: u32, hi: u32) -> Vec<usize> {
    (lo..=hi).map(|e| 1usize << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_across_cells_and_trials() {
        let a = cell_seed(1, 0, 0);
        let b = cell_seed(1, 0, 1);
        let c = cell_seed(1, 1, 0);
        let d = cell_seed(2, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn a_cell_below_the_gate_fails_its_finding_without_panicking() {
        assert!(!success_gate("optimal solves", 0.75, &[]).pass);
        let cells = [("n=64, k=2", 1.0), ("n=64, k=8", 0.75), ("n=128, k=8", 0.9)]
            .map(|(cell, success)| (cell.to_string(), success));
        let finding = success_gate("optimal solves", 0.75, &cells);
        assert!(!finding.pass, "0.75 is not more than 0.75");
        assert!(finding.claim.contains("more than 75%"), "{}", finding.claim);
        assert!(
            finding.measured.contains("n=64, k=8"),
            "{}",
            finding.measured
        );
        assert!(finding.measured.contains("75.0%"), "{}", finding.measured);
        assert!(success_gate("simple solves", 0.9, &cells[..1]).pass);
    }

    #[test]
    fn doubling_sweep() {
        assert_eq!(doubling(3, 6), vec![8, 16, 32, 64]);
    }

    #[test]
    fn measure_cell_runs() {
        let result = measure_cell(
            3,
            3_000,
            ConvergenceRule::commitment(),
            99,
            0,
            plain_scenario(16, 2, 1),
            |seed| hh_core::colony::simple(16, seed),
        );
        assert!(result.success > 0.0);
        assert!(result.mean_rounds() >= 1.0);
    }
}
