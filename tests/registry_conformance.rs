//! Registry conformance: every catalog scenario is held to the same
//! contract, so adding a scenario automatically adds its tests.
//!
//! For **every** entry of `hh_sim::registry::all_scenarios()` this
//! harness asserts that the scenario
//!
//! 1. *builds* — spec and colony materialize into a runnable simulation
//!    of the advertised size and composition;
//! 2. *runs to its declared budget* — executes under its own convergence
//!    rule without harness errors, converging iff it declares so;
//! 3. *reproduces bit-identically* — the same seed yields identical
//!    trial outcomes across worker-thread counts, round-thread counts
//!    and repeated runs. The shared reference, one round thread on two
//!    workers, is the configuration `tests/oracle_equivalence.rs` holds
//!    to the scalar oracle, so every configuration here equals it too.
//!
//! The tag filters partition the catalog along each axis; the tags
//! themselves are derived from the axes, so they cannot disagree. And
//! off the catalog, hostile values on every axis at once make
//! `Scenario::build` return an error, never panic.

use std::collections::BTreeSet;

use house_hunting::model::faults::CrashStyle;
use house_hunting::model::noise::{CountNoise, QualityNoise};
use house_hunting::prelude::*;
use house_hunting::sim::registry::{self, ColonyMix};
use proptest::prelude::*;

/// Trials per scenario for the reproducibility checks (kept small: the
/// full catalog spans colonies up to 4096 ants).
const REPRO_TRIALS: usize = 3;

#[test]
fn catalog_is_nonempty_and_uniquely_named() {
    let scenarios = registry::all_scenarios();
    assert!(
        scenarios.len() >= 12,
        "the catalog shrank to {} scenarios",
        scenarios.len()
    );
    let names: BTreeSet<_> = scenarios.iter().map(|s| s.name().to_string()).collect();
    assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
    for scenario in &scenarios {
        assert!(!scenario.name().is_empty());
        assert!(
            !scenario.summary_text().is_empty(),
            "{}: catalog entries must carry a summary",
            scenario.name()
        );
        assert_eq!(
            registry::lookup(scenario.name())
                .as_ref()
                .map(Scenario::name),
            Some(scenario.name()),
            "lookup must find every catalog entry"
        );
    }
}

#[test]
fn every_scenario_builds_the_advertised_colony() {
    for scenario in registry::all_scenarios() {
        let seed = scenario.base_seed();
        let spec = scenario.spec_for(seed);
        assert_eq!(spec.config().n(), scenario.n(), "{}", scenario.name());
        let env = spec
            .build_environment()
            .unwrap_or_else(|e| panic!("{}: environment failed: {e}", scenario.name()));
        assert_eq!(env.n(), scenario.n(), "{}", scenario.name());
        assert_eq!(env.k(), scenario.k(), "{}", scenario.name());

        let colony = scenario.colony_for(seed);
        assert_eq!(colony.len(), scenario.n(), "{}", scenario.name());
        match scenario.mix() {
            ColonyMix::Uniform(algorithm) => {
                assert!(
                    colony.iter().all(|a| a.label() == algorithm.label()),
                    "{}: uniform colony mixes labels",
                    scenario.name()
                );
            }
            ColonyMix::IdleFraction { .. } => {
                let idlers = colony.iter().filter(|a| a.label() == "idler").count();
                let expected = scenario.mix().planted_count(scenario.n());
                assert_eq!(idlers, expected, "{}: idler head-count", scenario.name());
                assert!(colony.iter().all(|a| a.is_honest()));
            }
            ColonyMix::Byzantine { .. } => {
                let planted = colony.iter().filter(|a| !a.is_honest()).count();
                assert_eq!(
                    planted,
                    scenario.mix().planted_count(scenario.n()),
                    "{}: adversary count",
                    scenario.name()
                );
            }
            ColonyMix::Heterogeneous { a, b, .. } => {
                let labels: BTreeSet<_> = colony.iter().map(|agent| agent.label()).collect();
                assert!(
                    labels.contains(a.label()) && labels.contains(b.label()),
                    "{}: heterogeneous colony lost a sub-colony",
                    scenario.name()
                );
            }
            other => panic!("{}: unknown mix {other:?}", scenario.name()),
        }

        // The simulation itself must assemble.
        scenario
            .build(seed)
            .unwrap_or_else(|e| panic!("{}: build failed: {e}", scenario.name()));
    }
}

#[test]
fn every_scenario_runs_to_its_declared_budget() {
    for scenario in registry::all_scenarios() {
        let outcome = scenario
            .run(scenario.base_seed())
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", scenario.name()));
        assert!(
            outcome.rounds_run <= scenario.round_budget(),
            "{}: ran past its budget",
            scenario.name()
        );
        if scenario.expects_convergence() {
            assert!(
                outcome.solved.is_some(),
                "{}: expected convergence within {} rounds, ran {}",
                scenario.name(),
                scenario.round_budget(),
                outcome.rounds_run
            );
        } else {
            assert!(
                outcome.solved.is_none(),
                "{}: declared non-converging but solved",
                scenario.name()
            );
            assert_eq!(
                outcome.rounds_run,
                scenario.round_budget(),
                "{}: a non-converging scenario must exhaust its budget",
                scenario.name()
            );
        }
        // Honest colonies never trip the illegal-action sandbox.
        let has_adversaries = matches!(scenario.mix(), ColonyMix::Byzantine { .. });
        if !has_adversaries {
            assert_eq!(
                outcome.illegal_actions,
                0,
                "{}: honest agents acted illegally",
                scenario.name()
            );
        }
    }
}

#[test]
fn every_scenario_reproduces_bit_identically_across_worker_counts() {
    for scenario in registry::all_scenarios() {
        let serial = scenario
            .run_trials_with_workers(REPRO_TRIALS, 1)
            .unwrap_or_else(|e| panic!("{}: serial trials failed: {e}", scenario.name()));
        assert_eq!(serial.len(), REPRO_TRIALS);
        for workers in [2usize, 8] {
            let parallel = scenario
                .run_trials_with_workers(REPRO_TRIALS, workers)
                .unwrap_or_else(|e| panic!("{}: parallel trials failed: {e}", scenario.name()));
            assert_eq!(
                serial,
                parallel,
                "{}: outcomes diverged between 1 and {workers} workers",
                scenario.name()
            );
        }
    }
}

/// Intra-round thread counts every scenario must reproduce across, the
/// first being the serial baseline the others are compared against.
const ROUND_THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn every_scenario_is_bit_identical_across_round_threads() {
    for scenario in registry::all_scenarios() {
        let serial = scenario
            .clone()
            .round_threads(ROUND_THREADS[0])
            .run_trials_with_workers(REPRO_TRIALS, 2)
            .unwrap_or_else(|e| panic!("{}: serial trials failed: {e}", scenario.name()));
        for threads in ROUND_THREADS.into_iter().skip(1) {
            let threaded = scenario
                .clone()
                .round_threads(threads)
                .run_trials_with_workers(REPRO_TRIALS, 2)
                .unwrap_or_else(|e| {
                    panic!("{}: {threads}-thread trials failed: {e}", scenario.name())
                });
            assert_eq!(
                serial,
                threaded,
                "{}: outcomes diverged between 1 and {threads} round threads",
                scenario.name()
            );
        }
    }
}

#[test]
fn tag_filters_partition_the_catalog_along_each_axis() {
    let total = registry::all_scenarios().len();
    for axis in [
        // Quality axis.
        vec![
            Tag::AllGood,
            Tag::GoodPrefix,
            Tag::SingleGood,
            Tag::Tie,
            Tag::NonBinary,
        ],
        // Fault axis.
        vec![Tag::Clean, Tag::Crash, Tag::Delay, Tag::MixedFaults],
        // Mix axis.
        vec![Tag::Uniform, Tag::Idle, Tag::Byzantine, Tag::Hetero],
        // Size axis.
        vec![Tag::Tiny, Tag::Small, Tag::Medium, Tag::Large],
    ] {
        let covered: usize = axis.iter().map(|&tag| registry::with_tag(tag).len()).sum();
        assert_eq!(
            covered, total,
            "axis {axis:?} does not partition the catalog"
        );
    }
}

/// Every float axis draws from these: the non-numbers, both ends and the
/// middle of `[0, 1]`, and one value past each end.
const HOSTILE_FLOATS: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1.0,
    0.0,
    0.5,
    1.0,
    2.0,
];

/// Algorithm `variant` (every `Algorithm` and `SpreadStrategy` variant),
/// with `float` as its parameter where it takes one.
fn hostile_algorithm(variant: usize, float: f64) -> Algorithm {
    let spreader = |strategy| Algorithm::Spreader { strategy };
    match variant {
        0 => Algorithm::Optimal,
        1 => Algorithm::Simple,
        2 => Algorithm::HardenedSimple,
        3 => Algorithm::Adaptive,
        4 => Algorithm::Quality { gamma: float },
        5 => spreader(SpreadStrategy::WaitAtHome),
        6 => spreader(SpreadStrategy::SearchForever),
        _ => spreader(SpreadStrategy::Hybrid {
            search_probability: float,
        }),
    }
}

/// Observation noise with every variant built directly, past its
/// constructor's range check, from `count`/`quality` variant picks and
/// their parameters.
fn hostile_noise(count: usize, count_param: f64, quality: usize, quality_param: f64) -> NoiseModel {
    NoiseModel {
        count: match count {
            0 => CountNoise::Exact,
            1 => CountNoise::Multiplicative { sigma: count_param },
            2 => CountNoise::UniformRelative { delta: count_param },
            _ => CountNoise::Subsample { p: count_param },
        },
        quality: match quality {
            0 => QualityNoise::Exact,
            1 => QualityNoise::Flip { p: quality_param },
            _ => QualityNoise::Jitter { eps: quality_param },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Hostile values on every axis at once: `build` returns `Ok` or
    /// `Err` without panicking, and every `Ok` runs 200 rounds without
    /// panicking. `good` and `adversaries` reach one past their valid
    /// range. Each case runs exact and again under noise whose every
    /// variant is built directly. Round threads stay at most 2 and no
    /// trial runner starts, so a case spawns at most one OS thread at a
    /// time.
    #[test]
    fn hostile_axes_are_errors_or_runs_never_panics(
        n in 1usize..=64,
        k in 0usize..=8,
        good in 0usize..=9,
        profile in 0usize..5,
        explicit in proptest::collection::vec(0usize..8, 0..9),
        faults in 0usize..4,
        fraction in 0usize..8,
        probability in 0usize..8,
        crash_round in 0u64..=20,
        at_home in any::<bool>(),
        mix in 0usize..4,
        algorithms in (0usize..8, 0usize..8, 0usize..8, 0usize..8),
        mix_fraction in 0usize..8,
        adversaries in 0usize..=65,
        rule in 0usize..7,
        quorum in 0usize..8,
        window in 0u64..=20,
        threads in 0usize..=2,
        noise in (0usize..4, 0usize..8, 0usize..3, 0usize..8),
        seed in any::<u64>(),
    ) {
        let float = |idx: usize| HOSTILE_FLOATS[idx];
        let good = good % (k + 2);
        let profile = match profile {
            0 => QualitySpec::AllGood { k },
            1 => QualitySpec::GoodPrefix { k, good },
            2 => QualitySpec::SingleGood { k, good },
            3 => QualitySpec::AdversarialTie { k },
            _ => QualitySpec::Explicit(
                explicit.iter().filter_map(|&idx| Quality::new(float(idx)).ok()).collect(),
            ),
        };
        let style = if at_home { CrashStyle::AtHome } else { CrashStyle::InPlace };
        let faults = match faults {
            0 => FaultSchedule::None,
            1 => FaultSchedule::Crash { fraction: float(fraction), round: crash_round, style },
            2 => FaultSchedule::Delay { probability: float(probability) },
            _ => FaultSchedule::Mixed {
                crash_fraction: float(fraction),
                crash_round,
                delay_probability: float(probability),
            },
        };
        let (a, gamma_a, b, gamma_b) = algorithms;
        let a = hostile_algorithm(a, float(gamma_a));
        let b = hostile_algorithm(b, float(gamma_b));
        let mix = match mix {
            0 => ColonyMix::Uniform(a),
            1 => ColonyMix::IdleFraction { algorithm: a, idle: float(mix_fraction) },
            2 => ColonyMix::Byzantine { algorithm: a, adversaries: adversaries % (n + 2) },
            _ => ColonyMix::Heterogeneous { a, b, fraction_b: float(mix_fraction) },
        };
        let scenario = Scenario::custom("hostile", n, profile, faults, mix).round_threads(threads);
        let rule = match rule {
            0 => scenario.convergence_rule(),
            1 => ConvergenceRule::commitment(),
            2 => ConvergenceRule::commitment_any(),
            3 => ConvergenceRule::stable_commitment(window),
            4 => ConvergenceRule::all_final(),
            5 => ConvergenceRule::location(window),
            _ => ConvergenceRule::quorum(float(quorum), window),
        };
        // Most hostile noise values are errors, so each case also runs
        // exact: the other axes keep the coverage they had without noise.
        let (count, count_param, quality, quality_param) = noise;
        let noise = hostile_noise(count, float(count_param), quality, float(quality_param));
        for scenario in [scenario.clone(), scenario.noise(noise)] {
            if let Ok(mut sim) = scenario.build(seed) {
                let _ = sim.run_to_convergence(rule, 200);
            }
        }
    }
}
