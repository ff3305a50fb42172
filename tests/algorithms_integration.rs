//! Integration: both of the paper's algorithms solve HouseHunting through
//! the full stack (facade → sim → core → model).

use house_hunting::prelude::*;

fn solve(
    n: usize,
    spec: QualitySpec,
    seed: u64,
    agents: Colony,
    rule: ConvergenceRule,
    max_rounds: u64,
) -> Option<Solved> {
    ScenarioSpec::new(n, spec)
        .seed(seed)
        .build_simulation(agents)
        .unwrap()
        .run_to_convergence(rule, max_rounds)
        .unwrap()
        .solved
}

#[test]
fn optimal_solves_across_seeds_and_shapes() {
    for seed in 0..6 {
        for (n, k, good) in [(32usize, 2usize, 1usize), (64, 4, 2), (96, 6, 3)] {
            let solved = solve(
                n,
                QualitySpec::good_prefix(k, good),
                seed,
                colony::optimal(n),
                ConvergenceRule::all_final(),
                5_000,
            )
            .unwrap_or_else(|| panic!("optimal stuck: n={n} k={k} seed={seed}"));
            assert!(solved.good);
            assert!(solved.nest.raw() <= good, "winner must be a good nest");
        }
    }
}

#[test]
fn simple_solves_across_seeds_and_shapes() {
    for seed in 0..6 {
        for (n, k, good) in [(32usize, 2usize, 1usize), (64, 4, 2), (96, 6, 3)] {
            let solved = solve(
                n,
                QualitySpec::good_prefix(k, good),
                seed,
                colony::simple(n, seed),
                ConvergenceRule::commitment(),
                20_000,
            )
            .unwrap_or_else(|| panic!("simple stuck: n={n} k={k} seed={seed}"));
            assert!(solved.good);
        }
    }
}

#[test]
fn bad_nests_never_win_without_noise() {
    for seed in 0..10 {
        let solved = solve(
            48,
            QualitySpec::good_prefix(6, 2),
            seed,
            colony::simple(48, seed),
            ConvergenceRule::commitment(),
            20_000,
        )
        .expect("solves");
        assert!(solved.nest.raw() <= 2, "bad nest {} won", solved.nest);
    }
}

#[test]
fn single_ant_colony_solves_single_nest() {
    // Degenerate but legal: one ant, one good nest.
    let solved = solve(
        1,
        QualitySpec::all_good(1),
        0,
        colony::optimal(1),
        ConvergenceRule::all_final(),
        50,
    )
    .expect("lone ant finalizes");
    assert_eq!(solved.nest, NestId::candidate(1));
}

#[test]
fn full_stack_determinism() {
    let run = |_: ()| {
        solve(
            64,
            QualitySpec::good_prefix(4, 2),
            123,
            colony::simple(64, 123),
            ConvergenceRule::commitment(),
            20_000,
        )
    };
    assert_eq!(run(()), run(()));
}

#[test]
fn trial_runner_aggregates_across_threads() {
    use house_hunting::sim::{run_trials, success_rate};
    let outcomes = run_trials(16, 20_000, ConvergenceRule::commitment(), |trial| {
        let seed = 9_000 + trial as u64;
        ScenarioSpec::new(32, QualitySpec::good_prefix(3, 1))
            .seed(seed)
            .build_simulation(colony::simple(32, seed))
    })
    .unwrap();
    assert_eq!(outcomes.len(), 16);
    assert!(success_rate(&outcomes) > 0.85);
    // Winner is always the unique good nest.
    for outcome in &outcomes {
        if let Some(solved) = &outcome.solved {
            assert_eq!(solved.nest, NestId::candidate(1));
        }
    }
}

#[test]
fn optimal_beats_lower_bound_floor() {
    // Sanity: even the optimal algorithm respects Ω(log n): at n = 256 it
    // cannot finish in fewer than log4(256)/2 = 4 rounds.
    for seed in 0..5 {
        let solved = solve(
            256,
            QualitySpec::single_good(2, 1),
            seed,
            colony::optimal(256),
            ConvergenceRule::all_final(),
            5_000,
        )
        .expect("solves");
        assert!(
            solved.round >= 4,
            "round {} beats the lower bound",
            solved.round
        );
    }
}
