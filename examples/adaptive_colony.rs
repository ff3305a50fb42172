//! Adaptive colony: Section 6's "improved running time" sketch, measured.
//!
//! Sweeps the number of candidate nests `k` at fixed colony size and
//! compares the simple `count/n` rule against the adaptive
//! `k̃(r)`-boosted rule, with each cell assembled from registry axes
//! (all-good habitat — pure competition, the hardest case for
//! convergence speed). The simple algorithm's `O(k log n)` cost shows up
//! as near-linear growth in `k`; the adaptive schedule flattens it.
//!
//! ```text
//! cargo run --release --example adaptive_colony
//! ```

use house_hunting::analysis::{fmt_f64, Summary, Table};
use house_hunting::prelude::*;
use house_hunting::sim::{solved_rounds, success_rate};

fn measure(
    n: usize,
    k: usize,
    trials: usize,
    algorithm: Algorithm,
) -> Result<(f64, f64), SimError> {
    let scenario = Scenario::custom(
        format!("adaptive-sweep-{}-k{k}", algorithm.label()),
        n,
        QualitySpec::AllGood { k },
        FaultSchedule::None,
        ColonyMix::Uniform(algorithm),
    )
    .max_rounds(80_000);
    let outcomes = scenario.run_trials(trials)?;
    let rounds: Summary = solved_rounds(&outcomes).into_iter().collect();
    Ok((rounds.mean(), success_rate(&outcomes)))
}

fn main() -> Result<(), SimError> {
    let n = 512;
    let trials = 8;
    println!("adaptive vs simple across k (n = {n}, all nests good, {trials} trials)\n");

    let mut table = Table::new(["k", "simple (rounds)", "adaptive (rounds)", "speedup"]);
    for k in [2usize, 4, 8, 16] {
        let (simple, s_rate) = measure(n, k, trials, Algorithm::Simple)?;
        let (adaptive, a_rate) = measure(n, k, trials, Algorithm::Adaptive)?;
        assert!(
            s_rate > 0.0 && a_rate > 0.0,
            "k={k}: a variant never converged"
        );
        table.row([
            k.to_string(),
            fmt_f64(simple, 1),
            fmt_f64(adaptive, 1),
            format!("{}x", fmt_f64(simple / adaptive, 2)),
        ]);
    }
    println!("{table}");
    println!("expected shape: the simple column grows ≈ linearly with k;");
    println!("the adaptive column grows much slower, so the speedup widens with k");
    Ok(())
}
