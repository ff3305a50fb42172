//! Quality trade-off: Section 6's non-binary nest qualities.
//!
//! Two candidate nests of quality 0.9 and 0.6, expressed as an explicit
//! registry quality profile. The quality-weighted agent recruits with
//! probability `(count/n)·qᵞ`; sweeping the selectivity exponent `γ`
//! traces the classic speed/accuracy trade-off observed in real
//! Temnothorax colonies (Pratt & Sumpter 2006): higher `γ` picks the
//! better nest more reliably but takes longer to decide.
//!
//! ```text
//! cargo run --release --example quality_tradeoff
//! ```

use house_hunting::analysis::{fmt_f64, Summary, Table};
use house_hunting::model::Quality;
use house_hunting::prelude::*;
use house_hunting::sim::success_rate;

fn main() -> Result<(), SimError> {
    let n = 128;
    let trials = 16;
    let qualities = [0.9, 0.6];
    println!("speed/accuracy trade-off: n = {n}, nest qualities {qualities:?}, {trials} trials\n");

    let profile = QualitySpec::Explicit(
        qualities
            .iter()
            .map(|&q| Quality::new(q).expect("valid quality"))
            .collect(),
    );

    let mut table = Table::new(["gamma", "P[best nest wins]", "mean rounds", "success"]);
    for gamma in [0.0, 1.0, 2.0, 4.0] {
        let scenario = Scenario::custom(
            format!("quality-tradeoff-gamma{gamma}"),
            n,
            profile.clone(),
            FaultSchedule::None,
            ColonyMix::Uniform(Algorithm::Quality { gamma }),
        )
        .max_rounds(40_000);
        let outcomes = scenario.run_trials(trials)?;
        let best_wins = outcomes
            .iter()
            .filter(|o| {
                o.solved
                    .as_ref()
                    .is_some_and(|s| s.nest == NestId::candidate(1))
            })
            .count();
        let solved = outcomes
            .iter()
            .filter(|o| o.solved.is_some())
            .count()
            .max(1);
        let rounds: Summary = outcomes
            .iter()
            .filter_map(|o| o.solved.as_ref().map(|s| s.round as f64))
            .collect();
        table.row([
            fmt_f64(gamma, 1),
            format!("{}%", fmt_f64(best_wins as f64 / solved as f64 * 100.0, 0)),
            fmt_f64(rounds.mean(), 1),
            format!("{}%", fmt_f64(success_rate(&outcomes) * 100.0, 0)),
        ]);
    }
    println!("{table}");
    println!("expected shape: γ = 0 ignores quality (best nest wins ≈ half the time,");
    println!("fast); growing γ pushes P[best] toward 100% at the cost of more rounds");
    Ok(())
}
