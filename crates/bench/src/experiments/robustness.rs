//! F10 / F11 / F12 — Section 6's robustness claims, measured.
//!
//! The paper argues the simple algorithm tolerates unbiased noisy counts,
//! crash faults, and a small number of malicious ants, while the optimal
//! algorithm's reliance on exact counts and strict synchrony makes it
//! fragile. Each experiment sweeps a perturbation strength for both
//! algorithms and reports success rates; every cell is a registry
//! [`Scenario`] assembled from the fault and colony-mix axes.

use hh_analysis::{fmt_f64, Table};
use hh_core::{colony, SleeperAnt};
use hh_model::faults::CrashStyle;
use hh_model::noise::CountNoise;
use hh_model::{NoiseModel, QualitySpec};
use hh_sim::registry::{Algorithm, ColonyMix, FaultSchedule, Scenario};
use hh_sim::{ConvergenceRule, ScenarioSpec};

use super::common::{cell_seed, measure_cell, measure_scenario};
use super::{ExperimentReport, Finding, Mode};

const N: usize = 128;
const K: usize = 4;
const GOOD: usize = 2;

fn rule() -> ConvergenceRule {
    // A stability window guards against flickering agreement under
    // perturbations.
    ConvergenceRule::stable_commitment(8)
}

/// The shared habitat of the robustness sweeps.
fn habitat() -> QualitySpec {
    QualitySpec::GoodPrefix { k: K, good: GOOD }
}

/// One registry cell of a robustness sweep: `algorithm` under `faults`,
/// seeded from the experiment's cell-seed scheme.
fn cell(
    name: String,
    experiment: u64,
    cell: u64,
    faults: FaultSchedule,
    mix: ColonyMix,
) -> Scenario {
    Scenario::custom(name, N, habitat(), faults, mix)
        .rule(rule())
        .max_rounds(30_000)
        .base_seed_value(cell_seed(experiment, cell, 0))
}

/// Runs experiment F10 (unbiased count noise).
#[must_use]
pub fn run_f10(mode: Mode) -> ExperimentReport {
    let trials = mode.trials(8, 32);
    let sigmas = [0.0, 0.15, 0.3, 0.6, 1.0];

    let mut table = Table::new(["count noise σ", "optimal", "simple", "simple slowdown"]);
    let mut simple_ok_mid_noise = true;
    let mut baseline_rounds = 0.0;
    let mut optimal_degrades = false;
    for (si, &sigma) in sigmas.iter().enumerate() {
        let noise = NoiseModel {
            count: CountNoise::multiplicative(sigma).expect("valid sigma"),
            quality: Default::default(),
        };
        let optimal = measure_scenario(
            trials,
            &cell(
                format!("f10-optimal-sigma{sigma}"),
                10,
                si as u64 * 2,
                FaultSchedule::None,
                ColonyMix::Uniform(Algorithm::Optimal),
            )
            .noise(noise),
        );
        let simple = measure_scenario(
            trials,
            &cell(
                format!("f10-simple-sigma{sigma}"),
                10,
                si as u64 * 2 + 1,
                FaultSchedule::None,
                ColonyMix::Uniform(Algorithm::Simple),
            )
            .noise(noise),
        );
        if sigma == 0.0 {
            baseline_rounds = simple.mean_rounds();
        }
        if sigma > 0.0 && sigma <= 0.3 && simple.success < 0.85 {
            simple_ok_mid_noise = false;
        }
        if sigma >= 0.3 && optimal.success < 0.8 {
            optimal_degrades = true;
        }
        let slowdown = if baseline_rounds > 0.0 && simple.success > 0.0 {
            simple.mean_rounds() / baseline_rounds
        } else {
            f64::NAN
        };
        table.row([
            fmt_f64(sigma, 2),
            format!("{}%", fmt_f64(optimal.success * 100.0, 0)),
            format!("{}%", fmt_f64(simple.success * 100.0, 0)),
            format!("{}x", fmt_f64(slowdown, 2)),
        ]);
    }

    let findings = vec![
        Finding::new(
            "the simple algorithm tolerates unbiased count noise up to σ = 0.3",
            format!("success ≥ 85% through σ = 0.3: {simple_ok_mid_noise}"),
            simple_ok_mid_noise,
        ),
        Finding::new(
            "the optimal algorithm degrades under the same noise (needs exact counts)",
            format!("optimal success dropped below 80% at σ ≥ 0.3: {optimal_degrades}"),
            optimal_degrades,
        ),
    ];

    let body = format!(
        "n = {N}, k = {K} ({GOOD} good), {trials} trials per cell;\n\
         unit-mean log-normal noise on every count observation\n\n{table}"
    );
    ExperimentReport {
        id: "F10",
        title: "Section 6 — robustness to unbiased count noise",
        body,
        findings,
    }
}

/// Runs experiment F11 (crash faults).
#[must_use]
pub fn run_f11(mode: Mode) -> ExperimentReport {
    let trials = mode.trials(8, 32);
    let fractions = [0.0, 0.05, 0.10, 0.20, 0.30];

    let mut table = Table::new(["crash fraction", "optimal", "simple"]);
    let mut simple_survives = true;
    for (fi, &fraction) in fractions.iter().enumerate() {
        let faults = if fraction > 0.0 {
            FaultSchedule::Crash {
                fraction,
                round: 10,
                style: CrashStyle::InPlace,
            }
        } else {
            FaultSchedule::None
        };
        let optimal = measure_scenario(
            trials,
            &cell(
                format!("f11-optimal-crash{fraction}"),
                11,
                fi as u64 * 2,
                faults,
                ColonyMix::Uniform(Algorithm::Optimal),
            ),
        );
        let simple = measure_scenario(
            trials,
            &cell(
                format!("f11-simple-crash{fraction}"),
                11,
                fi as u64 * 2 + 1,
                faults,
                ColonyMix::Uniform(Algorithm::Simple),
            ),
        );
        if fraction <= 0.2 && simple.success < 0.85 {
            simple_survives = false;
        }
        table.row([
            format!("{}%", fmt_f64(fraction * 100.0, 0)),
            format!("{}%", fmt_f64(optimal.success * 100.0, 0)),
            format!("{}%", fmt_f64(simple.success * 100.0, 0)),
        ]);
    }

    let findings = vec![Finding::new(
        "the live colony keeps solving with up to 20% crash-stop ants",
        format!("simple success ≥ 85% through 20% crashes: {simple_survives}"),
        simple_survives,
    )];

    let body = format!(
        "n = {N}, k = {K} ({GOOD} good), crashes at round 10 (in place);\n\
         success = stable consensus among *live* honest ants; {trials} trials per cell\n\n{table}"
    );
    ExperimentReport {
        id: "F11",
        title: "Section 6 — robustness to crash faults",
        body,
        findings,
    }
}

/// Runs experiment F12 (Byzantine recruiters).
///
/// Success is a stable 90% quorum of the live honest colony on one good
/// nest: with active kidnappers unanimity is unattainable by
/// construction (some ant is always mid-abduction), and real colonies
/// decide by quorum anyway.
#[must_use]
pub fn run_f12(mode: Mode) -> ExperimentReport {
    let trials = mode.trials(8, 32);
    let byz_counts = [0usize, 2, 4, 8, 16];
    let quorum = ConvergenceRule::quorum(0.9, 8);

    let mut table = Table::new([
        "byzantine ants",
        "simple (paper)",
        "simple (reassessing)",
        "sleepers (paper)",
    ]);
    let mut hardened_dominates = true;
    let mut hardened_rescues = true;
    let mut paper_simple_at_max = 1.0;
    for (bi, &byz) in byz_counts.iter().enumerate() {
        let paper = measure_scenario(
            trials,
            &cell(
                format!("f12-paper-byz{byz}"),
                12,
                bi as u64 * 3,
                FaultSchedule::None,
                ColonyMix::Byzantine {
                    algorithm: Algorithm::Simple,
                    adversaries: byz,
                },
            )
            .rule(quorum),
        );
        // The hardened variant re-checks quality on arrival, which needs
        // the assessing-go model extension (the registry enables it for
        // `HardenedSimple` automatically).
        let hardened = measure_scenario(
            trials,
            &cell(
                format!("f12-hardened-byz{byz}"),
                12,
                bi as u64 * 3 + 1,
                FaultSchedule::None,
                ColonyMix::Byzantine {
                    algorithm: Algorithm::HardenedSimple,
                    adversaries: byz,
                },
            )
            .rule(quorum),
        );
        // Sleeper adversaries are per-slot-seeded agents, not a registry
        // mix; this column keeps the bespoke colony path.
        let sleepers = measure_cell(
            trials,
            30_000,
            quorum,
            12,
            bi as u64 * 3 + 2,
            move |_| ScenarioSpec::new(N, QualitySpec::good_prefix(K, GOOD)),
            move |seed| {
                let mut agents = colony::simple(N, seed);
                colony::plant_adversaries(&mut agents, byz, |slot| {
                    SleeperAnt::new(N, seed + slot as u64, 40)
                });
                agents
            },
        );
        if hardened.success + 0.15 < paper.success {
            hardened_dominates = false;
        }
        if paper.success <= 0.5 && hardened.success < 0.6 {
            hardened_rescues = false;
        }
        if byz == *byz_counts.last().unwrap() {
            paper_simple_at_max = paper.success;
        }
        table.row([
            byz.to_string(),
            format!("{}%", fmt_f64(paper.success * 100.0, 0)),
            format!("{}%", fmt_f64(hardened.success * 100.0, 0)),
            format!("{}%", fmt_f64(sleepers.success * 100.0, 0)),
        ]);
    }

    let findings = vec![
        Finding::new(
            "arrival re-assessment strictly improves on the paper-faithful rule",
            format!("hardened ≥ paper-faithful at every adversary count: {hardened_dominates}"),
            hardened_dominates,
        ),
        Finding::new(
            "re-assessment rescues regimes where the paper-faithful rule collapses",
            format!("hardened ≥ 60% wherever paper-faithful ≤ 50%: {hardened_rescues}"),
            hardened_rescues,
        ),
        Finding::new(
            "the paper-faithful algorithm is eventually hijackable (never re-checks quality)",
            format!(
                "paper-faithful success at {} adversaries: {}%",
                byz_counts.last().unwrap(),
                fmt_f64(paper_simple_at_max * 100.0, 0)
            ),
            paper_simple_at_max < 0.9,
        ),
    ];

    let body = format!(
        "n = {N} ants ({GOOD} of {K} nests good), adversaries recruit toward bad nests;\n\
         success = stable 90% quorum of the honest sub-colony; {trials} trials per cell\n\n{table}"
    );
    ExperimentReport {
        id: "F12",
        title: "Section 6 — robustness to Byzantine recruiters",
        body,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f11_quick_passes() {
        let report = run_f11(Mode::Quick);
        assert!(report.all_passed(), "findings: {:#?}", report.findings);
    }
}
