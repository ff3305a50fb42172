//! F18 — ablation of the adaptive-rate design
//! ([clarification 7](hh_model::clarifications#7-the-adaptive-rate-schedule)).
//!
//! The paper's Section 6 sketch fixes no schedule for the adaptive
//! recruitment rate; `hh-core::adaptive` documents two instantiations
//! that fail and one that works. This ablation runs all three against
//! the paper's plain rule on the same instances, turning the design
//! discussion into a measurement:
//!
//! * **chosen** — `p = max(c/n, min(1, θ·(c/n)·k̃(r)))` with `k̃` decaying
//!   `√n → 2` (the shipped [`AdaptivePolicy`](hh_core::AdaptivePolicy));
//! * **concave** — smooth saturation `p = θ·c/(c + n/k̃(r))` with a
//!   *growing* estimate: concavity in `c` boosts the smaller nest's
//!   relative rate, weakening the rich-get-richer drift;
//! * **hard-cap-growing** — `p = min(θ, (c/n)·k̃(r))` with a growing
//!   estimate: once every survivor pins at the common cap θ, their rates
//!   equalize and the decision degenerates into an (extremely slow)
//!   unbiased random walk.

use hh_analysis::{fmt_f64, Table};
use hh_core::{colony, RecruitPolicy, UrnAnt, UrnOptions};
use hh_sim::ConvergenceRule;

use super::common::{measure_cell, plain_scenario};
use super::{ExperimentReport, Finding, Mode};

/// The first rejected design: concave saturation with a growing
/// estimate (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct ConcavePolicy {
    /// Saturation rate.
    pub theta: f64,
}

impl ConcavePolicy {
    fn k_estimate(round: u64, n: usize) -> f64 {
        let log2n = (n.max(2) as f64).log2().max(1.0);
        2f64.powf((1.0 + round as f64 / (2.0 * log2n)).min(64.0))
            .min(n as f64)
    }
}

impl RecruitPolicy for ConcavePolicy {
    fn recruit_probability(&self, count: usize, n: usize, round: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let pivot = (n as f64 / Self::k_estimate(round, n)).max(1.0);
        self.theta * count as f64 / (count as f64 + pivot)
    }

    fn label(&self) -> &'static str {
        "ablation-concave"
    }
}

/// The second rejected design: hard cap with a growing estimate.
#[derive(Debug, Clone, Copy)]
pub struct HardCapGrowingPolicy {
    /// The common cap every large nest pins at.
    pub theta: f64,
}

impl RecruitPolicy for HardCapGrowingPolicy {
    fn recruit_probability(&self, count: usize, n: usize, round: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let k_tilde = ConcavePolicy::k_estimate(round, n);
        (count as f64 / n as f64 * k_tilde).min(self.theta)
    }

    fn label(&self) -> &'static str {
        "ablation-hard-cap"
    }
}

/// Runs experiment F18.
#[must_use]
pub fn run(mode: Mode) -> ExperimentReport {
    let trials = mode.trials(6, 16);
    let n = 512;
    let k = match mode {
        Mode::Quick => 8,
        Mode::Full => 8,
    };
    let max_rounds = 40_000;

    let mut table = Table::new(["rule", "median rounds", "success", "vs simple"]);
    let mut medians = Vec::new();

    let simple = measure_cell(
        trials,
        max_rounds,
        ConvergenceRule::commitment(),
        18,
        0,
        plain_scenario(n, k, k),
        move |seed| colony::simple(n, seed),
    );
    let baseline = simple.median_rounds();
    table.row([
        "simple (paper)".to_string(),
        fmt_f64(baseline, 1),
        format!("{}%", fmt_f64(simple.success * 100.0, 0)),
        "1.00x".to_string(),
    ]);

    type ColonyFactory = Box<dyn Fn(u64) -> hh_core::Colony + Sync>;
    let variants: Vec<(&str, ColonyFactory)> = vec![
        (
            "chosen (decaying k̃ + floor)",
            Box::new(move |seed| colony::adaptive(n, seed)),
        ),
        (
            "concave saturation",
            Box::new(move |seed| {
                colony::from_factory(n, seed, |_, ant_seed| {
                    // Bespoke policy: runs through the Custom escape hatch.
                    hh_core::AnyAgent::custom(UrnAnt::with_policy(
                        n,
                        ant_seed,
                        ConcavePolicy { theta: 0.5 },
                        UrnOptions::default(),
                    ))
                })
            }),
        ),
        (
            "hard cap, growing k̃",
            Box::new(move |seed| {
                colony::from_factory(n, seed, |_, ant_seed| {
                    hh_core::AnyAgent::custom(UrnAnt::with_policy(
                        n,
                        ant_seed,
                        HardCapGrowingPolicy { theta: 0.5 },
                        UrnOptions::default(),
                    ))
                })
            }),
        ),
    ];

    for (vi, (name, build)) in variants.iter().enumerate() {
        let cell = measure_cell(
            trials,
            max_rounds,
            ConvergenceRule::commitment(),
            18,
            vi as u64 + 1,
            plain_scenario(n, k, k),
            build,
        );
        let median = if cell.success > 0.0 {
            cell.median_rounds()
        } else {
            max_rounds as f64
        };
        medians.push((name.to_string(), median, cell.success));
        table.row([
            (*name).to_string(),
            if cell.success > 0.0 {
                fmt_f64(cell.median_rounds(), 1)
            } else {
                format!(">{max_rounds}")
            },
            format!("{}%", fmt_f64(cell.success * 100.0, 0)),
            format!("{}x", fmt_f64(baseline / median, 2)),
        ]);
    }

    let chosen = &medians[0];
    let concave = &medians[1];
    let hard_cap = &medians[2];
    let findings = vec![
        Finding::new(
            "the chosen adaptive rule beats the paper's simple rule at k = 8",
            format!("{:.1} vs {:.1} median rounds", chosen.1, baseline),
            chosen.1 < baseline && chosen.2 > 0.9,
        ),
        Finding::new(
            "concave saturation is strictly worse than the chosen rule",
            format!("{:.1} vs {:.1} median rounds", concave.1, chosen.1),
            concave.1 > chosen.1,
        ),
        Finding::new(
            "a growing hard-capped schedule is strictly worse than the chosen rule",
            format!("{:.1} vs {:.1} median rounds", hard_cap.1, chosen.1),
            hard_cap.1 > chosen.1,
        ),
    ];

    let body = format!(
        "n = {n}, k = {k} (all good), {trials} trials per rule, round budget {max_rounds};\n\
         the two rejected rules are the documented design failures of hh-core::adaptive\n\n{table}"
    );
    ExperimentReport {
        id: "F18",
        title: "Ablation — adaptive-rate design choices",
        body,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_core::AdaptivePolicy;

    #[test]
    fn rejected_policies_are_well_formed() {
        let concave = ConcavePolicy { theta: 0.5 };
        let cap = HardCapGrowingPolicy { theta: 0.5 };
        for count in [0usize, 1, 100, 512] {
            for round in [0u64, 100, 100_000] {
                let a = concave.recruit_probability(count, 512, round);
                let b = cap.recruit_probability(count, 512, round);
                assert!((0.0..=1.0).contains(&a));
                assert!((0.0..=1.0).contains(&b));
            }
        }
        assert_eq!(concave.recruit_probability(0, 512, 5), 0.0);
        assert_eq!(cap.recruit_probability(0, 512, 5), 0.0);
    }

    #[test]
    fn chosen_policy_is_the_shipped_one() {
        // Guard: the ablation's "chosen" row must be the shipped schedule.
        assert_eq!(AdaptivePolicy::THETA, 0.4);
        assert_eq!(AdaptivePolicy::TAU, 1.0);
    }
}
