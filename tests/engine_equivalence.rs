//! Engine dispatch equivalence: a colony built from statically
//! dispatched [`AnyAgent`] variants must produce **bit-identical**
//! [`TrialOutcome`]s to the very same colony boxed behind the
//! [`AnyAgent::Custom`] escape hatch.
//!
//! This is the guard rail for the static-dispatch migration: every
//! behavioural difference between the enum fast path and the `dyn Agent`
//! fallback — a missed trait-method forward, a divergent default, an
//! executor fast-path asymmetry — shows up here as a differing outcome.
//! (`AnyAgent` itself implements `Agent`, so re-boxing the built
//! variants exercises the exact agents on both dispatch routes.)

use house_hunting::prelude::*;
use house_hunting::sim::run_trials_with_workers;
use proptest::prelude::*;

/// Runs `trials` trials of `scenario` on `round_threads` intra-round
/// threads with the colony passed through `wrap`, under the scenario's
/// own rule and budget.
fn run_wrapped(
    scenario: &Scenario,
    trials: usize,
    workers: usize,
    round_threads: usize,
    wrap: fn(AnyAgent) -> AnyAgent,
) -> Vec<TrialOutcome> {
    run_trials_with_workers(
        trials,
        scenario.round_budget(),
        scenario.convergence_rule(),
        workers,
        |trial| {
            let seed = scenario.trial_seed(trial);
            let colony: Colony = scenario.colony_for(seed).into_iter().map(wrap).collect();
            let sim = scenario
                .spec_for(seed)
                .build_simulation(colony)?
                .with_round_threads(round_threads);
            assert_eq!(sim.round_threads(), round_threads, "{}", scenario.name());
            Ok(sim)
        },
    )
    .expect("valid scenario")
}

/// Catalog entries covering every dispatch-relevant axis: plain uniform
/// colonies, planted idlers, Byzantine adversaries, the boxed quality
/// variant, heterogeneous mixes, and a perturbed (slow-path) execution.
fn dispatch_scenarios() -> Vec<Scenario> {
    [
        "baseline-16",
        "idle-quarter-128",
        "byzantine-handful-96",
        "quality-tie-128",
        "hetero-simple-adaptive-256",
        "mixed-faults-128",
    ]
    .into_iter()
    .map(|name| registry::lookup(name).expect("catalog entry"))
    .collect()
}

#[test]
fn static_and_custom_dispatch_are_bit_identical() {
    for scenario in dispatch_scenarios() {
        let stat = run_wrapped(&scenario, 2, 1, 1, |agent| agent);
        let boxed = run_wrapped(&scenario, 2, 1, 1, AnyAgent::custom);
        assert_eq!(
            stat,
            boxed,
            "{}: Custom-boxed colony diverged from static dispatch",
            scenario.name()
        );
    }
}

#[test]
fn dispatch_equivalence_holds_under_round_threads() {
    // The chunked parallel engine must preserve the dispatch-equivalence
    // guarantee: a Custom-boxed colony on 8 intra-round threads (round
    // workers, for the unperturbed scenarios) matches the static-dispatch
    // colony on the serial engine bit for bit.
    for scenario in dispatch_scenarios() {
        let serial_static = run_wrapped(&scenario, 2, 1, 1, |agent| agent);
        let threaded_boxed = run_wrapped(&scenario, 2, 1, 8, AnyAgent::custom);
        assert_eq!(
            serial_static,
            threaded_boxed,
            "{}: boxed colony on 8 round threads diverged from serial static dispatch",
            scenario.name()
        );
    }
}

#[test]
fn custom_wrapping_is_visible_but_behaviour_is_not() {
    let scenario = registry::lookup("baseline-16").expect("catalog entry");
    let seed = scenario.base_seed();
    let stat = scenario.colony_for(seed);
    assert!(stat.iter().all(|a| !a.is_custom()));
    let boxed: Colony = scenario
        .colony_for(seed)
        .into_iter()
        .map(AnyAgent::custom)
        .collect();
    assert!(boxed.iter().all(AnyAgent::is_custom));
    // The harness-observable surface is unchanged.
    assert_eq!(stat.census(), boxed.census());
    for (a, b) in stat.iter().zip(boxed.iter()) {
        assert_eq!(a.label(), b.label());
        assert_eq!(a.is_honest(), b.is_honest());
    }
}

proptest! {
    // Each case runs 2 × trials bounded executions on small/medium
    // colonies; keep the case count CI-sized.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The equivalence holds across arbitrary seeds, trial counts, and
    /// worker counts, for every dispatch-relevant catalog family.
    #[test]
    fn dispatch_equivalence_across_seeds(
        scenario_pick in 0usize..6,
        base_seed in any::<u64>(),
        trials in 1usize..3,
        workers in 1usize..5,
    ) {
        let scenario = dispatch_scenarios()[scenario_pick]
            .clone()
            .base_seed_value(base_seed)
            // Cap the budget so non-converging seeds stay cheap; both
            // dispatch routes share the cap, so equivalence is unaffected.
            .max_rounds(2_000);
        let stat = run_wrapped(&scenario, trials, workers, 1, |agent| agent);
        let boxed = run_wrapped(&scenario, trials, 1, 1, AnyAgent::custom);
        prop_assert_eq!(stat, boxed, "{}: dispatch divergence", scenario.name());
    }
}
