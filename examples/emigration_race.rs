//! Emigration race: the paper's two algorithms (plus the Section 6
//! adaptive variant) on identical habitats.
//!
//! For each of several colony sizes, assembles a registry scenario per
//! algorithm from the same axes (good-prefix habitat, no faults, uniform
//! colony), runs the trials, and reports mean rounds to consensus — the
//! headline comparison of the paper (optimal wins; the gap grows with
//! `k`; see experiments F3–F7 for the full sweeps).
//!
//! ```text
//! cargo run --release --example emigration_race
//! ```

use house_hunting::analysis::{fmt_f64, Summary, Table};
use house_hunting::prelude::*;
use house_hunting::sim::{solved_rounds, success_rate};

fn race_scenario(n: usize, k: usize, algorithm: Algorithm) -> Scenario {
    let rule = match algorithm {
        Algorithm::Optimal => ConvergenceRule::all_final(),
        _ => ConvergenceRule::commitment(),
    };
    Scenario::custom(
        format!("race-{}-{n}", algorithm.label()),
        n,
        QualitySpec::GoodPrefix { k, good: k / 2 },
        FaultSchedule::None,
        ColonyMix::Uniform(algorithm),
    )
    .rule(rule)
    .max_rounds(60_000)
}

fn mean_rounds(scenario: &Scenario, trials: usize) -> Result<(f64, f64), SimError> {
    let outcomes = scenario.run_trials(trials)?;
    let rate = success_rate(&outcomes);
    assert!(
        rate > 0.0,
        "{}: no successful trial — raise the round budget",
        scenario.name()
    );
    let rounds: Summary = solved_rounds(&outcomes).into_iter().collect();
    Ok((rounds.mean(), rate))
}

fn main() -> Result<(), SimError> {
    let k = 8;
    let trials = 10;
    println!(
        "emigration race: k = {k} nests ({} good), {trials} trials per cell\n",
        k / 2
    );

    let mut table = Table::new([
        "n",
        "optimal (rounds)",
        "simple (rounds)",
        "adaptive (rounds)",
        "simple/optimal",
    ]);
    for n in [128usize, 256, 512, 1024] {
        let (optimal, _) = mean_rounds(&race_scenario(n, k, Algorithm::Optimal), trials)?;
        let (simple, _) = mean_rounds(&race_scenario(n, k, Algorithm::Simple), trials)?;
        let (adaptive, _) = mean_rounds(&race_scenario(n, k, Algorithm::Adaptive), trials)?;
        table.row([
            n.to_string(),
            fmt_f64(optimal, 1),
            fmt_f64(simple, 1),
            fmt_f64(adaptive, 1),
            fmt_f64(simple / optimal, 1),
        ]);
    }
    println!("{table}");
    println!("expected shape: optimal ≈ a·log n and smallest; simple pays the ×k factor;");
    println!("adaptive sits between them (its advantage grows with k — see experiment F13)");
    Ok(())
}
