//! Integration: the Section 6 perturbation matrix at small scale —
//! noise, crashes, delays, Byzantine agents, and combinations.

use house_hunting::core::BadNestRecruiter;
use house_hunting::model::faults::{CrashPlan, CrashStyle, DelayPlan};
use house_hunting::prelude::*;
use house_hunting::sim::{run_trials, success_rate};

const N: usize = 64;

fn spec() -> QualitySpec {
    QualitySpec::good_prefix(4, 2)
}

#[test]
fn simple_survives_mild_count_noise() {
    let outcomes = run_trials(8, 20_000, ConvergenceRule::stable_commitment(8), |trial| {
        let seed = 100 + trial as u64;
        ScenarioSpec::new(N, spec())
            .seed(seed)
            .noise(NoiseModel::multiplicative(0.25).unwrap())
            .build_simulation(colony::simple(N, seed))
    })
    .unwrap();
    assert!(
        success_rate(&outcomes) >= 0.75,
        "rate {}",
        success_rate(&outcomes)
    );
}

#[test]
fn simple_survives_crashes_at_both_styles() {
    for style in [CrashStyle::InPlace, CrashStyle::AtHome] {
        let outcomes = run_trials(8, 20_000, ConvergenceRule::stable_commitment(8), |trial| {
            let seed = 300 + trial as u64;
            ScenarioSpec::new(N, spec())
                .seed(seed)
                .perturbations(Perturbations {
                    crash: CrashPlan::fraction(N, 0.15, 8, style, seed),
                    delay: DelayPlan::never(),
                })
                .build_simulation(colony::simple(N, seed))
        })
        .unwrap();
        assert!(
            success_rate(&outcomes) >= 0.75,
            "{style:?}: rate {}",
            success_rate(&outcomes)
        );
    }
}

#[test]
fn simple_survives_delays() {
    let outcomes = run_trials(8, 30_000, ConvergenceRule::stable_commitment(8), |trial| {
        let seed = 400 + trial as u64;
        ScenarioSpec::new(N, spec())
            .seed(seed)
            .perturbations(Perturbations {
                crash: CrashPlan::none(N),
                delay: DelayPlan::new(0.15, seed),
            })
            .build_simulation(colony::simple(N, seed))
    })
    .unwrap();
    assert!(
        success_rate(&outcomes) >= 0.75,
        "rate {}",
        success_rate(&outcomes)
    );
}

#[test]
fn optimal_is_fragile_under_delays() {
    // The paper's claim in the negative: the optimal algorithm needs
    // lockstep synchrony. Under 15% delays it should fail noticeably
    // more often than the simple one.
    let measure = |agents_for: fn(u64) -> Colony| {
        let outcomes = run_trials(8, 30_000, ConvergenceRule::stable_commitment(8), |trial| {
            let seed = 500 + trial as u64;
            ScenarioSpec::new(N, spec())
                .seed(seed)
                .perturbations(Perturbations {
                    crash: CrashPlan::none(N),
                    delay: DelayPlan::new(0.15, seed),
                })
                .build_simulation(agents_for(seed))
        })
        .unwrap();
        success_rate(&outcomes)
    };
    let optimal_rate = measure(|_| colony::optimal(N));
    let simple_rate = measure(|seed| colony::simple(N, seed));
    assert!(
        simple_rate >= optimal_rate,
        "simple {simple_rate} should be at least as robust as optimal {optimal_rate}"
    );
    assert!(
        optimal_rate <= 0.8,
        "optimal unexpectedly robust: {optimal_rate}"
    );
}

#[test]
fn byzantine_minority_does_not_stop_honest_quorum() {
    let outcomes = run_trials(8, 20_000, ConvergenceRule::quorum(0.9, 8), |trial| {
        let seed = 600 + trial as u64;
        let mut agents = colony::simple(N, seed);
        colony::plant_adversaries(&mut agents, 3, |_| BadNestRecruiter::new());
        ScenarioSpec::new(N, spec())
            .seed(seed)
            .build_simulation(agents)
    })
    .unwrap();
    assert!(
        success_rate(&outcomes) >= 0.75,
        "rate {}",
        success_rate(&outcomes)
    );
}

#[test]
fn zero_probability_schedules_are_noops() {
    // A "perturbed" simulation whose crash fraction and delay probability
    // are both zero must be bit-identical to the unperturbed baseline —
    // same convergence, same rounds, and zero replaced actions.
    let seed = 4_321;
    let perturbations = Perturbations {
        crash: CrashPlan::fraction(N, 0.0, 5, CrashStyle::InPlace, seed),
        delay: DelayPlan::new(0.0, seed),
    };
    assert!(perturbations.is_none(), "zero-probability plans are empty");

    let run = |perturbed: bool| {
        let mut spec = ScenarioSpec::new(N, spec()).seed(seed);
        if perturbed {
            spec = spec.perturbations(perturbations.clone());
        }
        let mut sim = spec.build_simulation(colony::simple(N, seed)).unwrap();
        sim.run_to_convergence(ConvergenceRule::commitment(), 20_000)
            .unwrap()
    };
    let baseline = run(false);
    let zeroed = run(true);
    assert_eq!(baseline, zeroed);
    assert_eq!(zeroed.replaced_actions, 0);
    assert!(zeroed.solved.is_some());
}

#[test]
fn all_crash_schedule_never_converges_but_counts_noops() {
    // Everyone crashes at round 1: the colony is frozen from the first
    // step, nothing can converge, and every action of every round is a
    // replaced no-op.
    let rounds = 50;
    let outcomes = run_trials(2, rounds, ConvergenceRule::commitment(), |trial| {
        let seed = 800 + trial as u64;
        ScenarioSpec::new(N, spec())
            .seed(seed)
            .perturbations(Perturbations {
                crash: CrashPlan::fraction(N, 1.0, 1, CrashStyle::InPlace, seed),
                delay: DelayPlan::never(),
            })
            .build_simulation(colony::simple(N, seed))
    })
    .unwrap();
    for outcome in &outcomes {
        assert!(outcome.solved.is_none(), "a fully crashed colony solved");
        assert_eq!(outcome.rounds_run, rounds);
        assert_eq!(
            outcome.replaced_actions,
            N as u64 * rounds,
            "every (ant, round) action must be a counted no-op"
        );
        assert_eq!(outcome.illegal_actions, 0);
    }
}

#[test]
fn late_all_crash_counts_noops_from_the_crash_round() {
    // Crashing everyone at round 10 replaces actions only from round 10
    // on: rounds 1..=9 run the real algorithm.
    let seed = 901;
    let crash_round = 10;
    let rounds = 40;
    let mut sim = ScenarioSpec::new(N, spec())
        .seed(seed)
        .perturbations(Perturbations {
            crash: CrashPlan::fraction(N, 1.0, crash_round, CrashStyle::InPlace, seed),
            delay: DelayPlan::never(),
        })
        .build_simulation(colony::simple(N, seed))
        .unwrap();
    let outcome = sim
        .run_to_convergence(ConvergenceRule::commitment(), rounds)
        .unwrap();
    assert!(outcome.solved.is_none(), "no consensus in 9 live rounds");
    assert_eq!(
        outcome.replaced_actions,
        N as u64 * (rounds - crash_round + 1)
    );
}

#[test]
fn combined_perturbations_small_doses() {
    // Everything at once, mildly: noise + a couple of crashes + rare
    // delays + one adversary.
    let outcomes = run_trials(8, 30_000, ConvergenceRule::quorum(0.9, 8), |trial| {
        let seed = 700 + trial as u64;
        let mut agents = colony::simple(N, seed);
        colony::plant_adversaries(&mut agents, 1, |_| BadNestRecruiter::new());
        ScenarioSpec::new(N, spec())
            .seed(seed)
            .noise(NoiseModel::multiplicative(0.15).unwrap())
            .perturbations(Perturbations {
                crash: CrashPlan::fraction(N, 0.05, 12, CrashStyle::InPlace, seed),
                delay: DelayPlan::new(0.05, seed),
            })
            .build_simulation(agents)
    })
    .unwrap();
    assert!(
        success_rate(&outcomes) >= 0.6,
        "rate {}",
        success_rate(&outcomes)
    );
}
