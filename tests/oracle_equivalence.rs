//! Fused engine ↔ scalar oracle identity over the whole scenario catalog.
//!
//! The executor ships two renderings of the same round semantics: the
//! fast path (`EngineKind::Fused` — one fused observe/choose/refresh
//! agent pass per round over the colony's agents and cached snapshots,
//! with optional intra-round chunking) and the scalar oracle
//! (`EngineKind::Scalar` — one match-per-ant pass per phase, always
//! serial). This harness holds them **bit-identical**, not just
//! statistically close: for every catalog scenario and equal seeds,
//!
//! 1. the [`RunOutcome`]s agree exactly (solved round/nest, rounds run,
//!    replaced/illegal action counters);
//! 2. the round-by-round census tallies agree exactly — true nest
//!    populations, honest commitment histograms, role census — checked
//!    in lockstep after every round so a divergence names the first
//!    round it appears in;
//! 3. the fused engine's agreement with the oracle survives every
//!    intra-round thread count the determinism contract covers
//!    ({1, 2, 4, 8}) and every trial-worker count ({1, 2, 8}): the
//!    catalog test runs the fused engine at one round thread on two
//!    trial workers, the reference configuration of
//!    `tests/registry_conformance.rs`'s round-thread and worker-count
//!    reproduction tests, so by transitivity every configuration those
//!    run equals the oracle.
//!
//! Scenarios with fault schedules route both engines through the same
//! serial bookkeeping path, so their rows hold trivially; they stay in
//! the sweep anyway — the suite's contract is "the whole catalog", and
//! the rows are cheap insurance against a future engine split.

use house_hunting::prelude::*;
use house_hunting::sim::registry;

/// Trials per scenario for the run-outcome checks (kept small: the
/// catalog spans colonies up to 4096 ants).
const REPRO_TRIALS: usize = 3;

/// Rounds compared in the lockstep census walk. Convergence for most
/// catalog entries happens within this window; past it the walk has
/// already compared every phase transition the engines disagree on
/// first, and the full-run outcome tests cover the tail.
const LOCKSTEP_ROUNDS: u64 = 96;

/// Intra-round thread counts the fused engine must match the oracle at.
const ROUND_THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn fused_is_the_default_engine() {
    let scenario = registry::all_scenarios().remove(0);
    assert_eq!(scenario.engine_kind(), EngineKind::Fused);
    let sim = scenario.build(scenario.base_seed()).expect("builds");
    assert_eq!(sim.engine(), EngineKind::Fused);
    let scalar = scenario.clone().engine(EngineKind::Scalar);
    assert_eq!(scalar.engine_kind(), EngineKind::Scalar);
    assert_eq!(
        scalar.build(scalar.base_seed()).expect("builds").engine(),
        EngineKind::Scalar
    );
}

#[test]
fn every_scenario_runs_identically_on_scalar_and_fused() {
    for scenario in registry::all_scenarios() {
        let oracle = scenario
            .clone()
            .engine(EngineKind::Scalar)
            .run_trials_with_workers(REPRO_TRIALS, 2)
            .unwrap_or_else(|e| panic!("{}: scalar trials failed: {e}", scenario.name()));
        assert_eq!(oracle.len(), REPRO_TRIALS);
        let fused = scenario
            .clone()
            .engine(EngineKind::Fused)
            .round_threads(1)
            .run_trials_with_workers(REPRO_TRIALS, 2)
            .unwrap_or_else(|e| panic!("{}: fused trials failed: {e}", scenario.name()));
        assert_eq!(
            oracle,
            fused,
            "{}: fused engine diverged from the scalar oracle",
            scenario.name()
        );
    }
}

#[test]
fn every_scenario_census_matches_round_by_round() {
    for scenario in registry::all_scenarios() {
        let seed = scenario.base_seed();
        let mut scalar = scenario
            .clone()
            .engine(EngineKind::Scalar)
            .build(seed)
            .unwrap_or_else(|e| panic!("{}: scalar build failed: {e}", scenario.name()));
        let mut fused = scenario
            .clone()
            .engine(EngineKind::Fused)
            .round_threads(2)
            .build(seed)
            .unwrap_or_else(|e| panic!("{}: fused build failed: {e}", scenario.name()));
        let rounds = LOCKSTEP_ROUNDS.min(scenario.round_budget());
        for round in 1..=rounds {
            let scalar_report = scalar.step().unwrap_or_else(|e| {
                panic!("{}: scalar round {round} failed: {e}", scenario.name())
            });
            let fused_report = fused
                .step()
                .unwrap_or_else(|e| panic!("{}: fused round {round} failed: {e}", scenario.name()));
            assert_eq!(
                scalar_report,
                fused_report,
                "{}: step reports diverged at round {round}",
                scenario.name()
            );
            assert_eq!(
                RoundSnapshot::capture(&scalar),
                RoundSnapshot::capture(&fused),
                "{}: census tallies diverged at round {round}",
                scenario.name()
            );
            assert_eq!(
                scalar.env().counts(),
                fused.env().counts(),
                "{}: nest populations diverged at round {round}",
                scenario.name()
            );
        }
        assert_eq!(
            scalar.env().locations(),
            fused.env().locations(),
            "{}: ant locations diverged after the lockstep walk",
            scenario.name()
        );
        assert_eq!(
            (scalar.replaced_actions(), scalar.illegal_actions()),
            (fused.replaced_actions(), fused.illegal_actions()),
            "{}: sandbox counters diverged after the lockstep walk",
            scenario.name()
        );
    }
}

/// Regression: the quorum NaN sanitization must survive the narrowed
/// outcome types (u32 counts, f32-backed qualities). The detector's
/// threshold arithmetic runs in f64 over tallies that now originate
/// from narrowed fields; a hand-built NaN-fraction rule must still snap
/// to the simple majority — on **both** engines, with identical
/// detections.
#[test]
fn quorum_nan_sanitization_survives_narrowed_types() {
    let scenario = registry::lookup("idle-quarter-128").expect("idle-quarter-128 is registered");
    let seed = scenario.base_seed();
    let run = |engine: EngineKind, rule: ConvergenceRule| {
        scenario
            .clone()
            .engine(engine)
            .rule(rule)
            .run(seed)
            .expect("runs")
    };
    let nan_rule = ConvergenceRule::Quorum {
        fraction: f64::NAN,
        stable_rounds: 1,
    };
    let majority_rule = ConvergenceRule::quorum(0.5, 1);
    let scalar_nan = run(EngineKind::Scalar, nan_rule);
    let fused_nan = run(EngineKind::Fused, nan_rule);
    let majority = run(EngineKind::Fused, majority_rule);
    assert_eq!(scalar_nan, fused_nan, "engines disagree under the NaN rule");
    assert_eq!(
        fused_nan, majority,
        "NaN fraction must sanitize to the simple majority"
    );
    assert!(
        fused_nan.solved.is_some(),
        "the idle colony reaches a majority"
    );
}

/// The chunk split must not leak into results even when the split is
/// degenerate: every bound vector here produces the same execution as
/// the serial oracle (the property suite drives randomized splits; these
/// are the canonical adversarial shapes, pinned).
#[test]
fn adversarial_chunk_bounds_match_the_scalar_oracle() {
    let scenario = registry::lookup("baseline-128").expect("baseline-128 is in the catalog");
    let seed = scenario.base_seed();
    let n = scenario.n();
    let rule = scenario.convergence_rule();
    let budget = scenario.round_budget();
    let mut oracle = scenario
        .clone()
        .engine(EngineKind::Scalar)
        .build(seed)
        .expect("oracle builds");
    let expected = oracle
        .run_to_convergence(rule, budget)
        .expect("oracle runs");

    // Width-1 head chunks, an n-1 cut, and a prime stride.
    let mut bounds_sets: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3, n], vec![0, n - 1, n]];
    let mut prime = vec![0];
    let mut at = 0;
    while at + 7 < n && prime.len() < 15 {
        at += 7;
        prime.push(at);
    }
    prime.push(n);
    bounds_sets.push(prime);
    for bounds in bounds_sets {
        let mut sim = scenario
            .build(seed)
            .expect("fused builds")
            .with_chunk_bounds(bounds.clone());
        let outcome = sim.run_to_convergence(rule, budget).expect("fused runs");
        assert_eq!(
            expected, outcome,
            "chunk bounds {bounds:?} diverged from the scalar oracle"
        );
    }
}

/// Boxed `Custom` agents pay a vtable call per method inside the fast
/// path's `AnyAgent` dispatch; a colony mixing them with built-in
/// agents must stay bit-identical to the scalar oracle at every covered
/// thread count.
#[test]
fn custom_boxed_agents_fall_back_bit_identically() {
    let n = 96;
    let seed = 4242;
    let build = |engine: EngineKind, threads: usize| {
        let mut agents = colony::simple(n, seed);
        // Behaviourally ordinary simple ants, but boxed: same rounds,
        // different static type.
        agents.replace(17, AnyAgent::custom(SimpleAnt::new(n, 9_000_017)));
        agents.replace(63, AnyAgent::custom(SimpleAnt::new(n, 9_000_063)));
        let config = ColonyConfig::new(n, QualitySpec::good_prefix(4, 2)).seed(seed);
        let env = Environment::new(&config).expect("env builds");
        Simulation::new(env, agents)
            .expect("sim builds")
            .with_engine(engine)
            .with_round_threads(threads)
    };
    let rule = ConvergenceRule::stable_commitment(2);
    let mut oracle = build(EngineKind::Scalar, 1);
    let expected = oracle
        .run_to_convergence(rule, 10_000)
        .expect("oracle runs");
    for threads in ROUND_THREADS {
        let mut fused = build(EngineKind::Fused, threads);
        let outcome = fused.run_to_convergence(rule, 10_000).expect("fused runs");
        assert_eq!(
            expected, outcome,
            "mixed colony with custom agents diverged at {threads} round threads"
        );
        assert_eq!(
            oracle.role_census(),
            fused.role_census(),
            "census diverged at {threads} round threads"
        );
    }
}

/// The n = 4096 catalog entries run optimal ants; this row holds the
/// fast path over a simple colony to the oracle at a size past every
/// catalog colony.
#[test]
fn large_uniform_colony_fast_path_matches_the_scalar_oracle() {
    let n = 8192;
    let seed = 97;
    let build = |engine: EngineKind, threads: usize| {
        let config = ColonyConfig::new(n, QualitySpec::good_prefix(6, 3)).seed(seed);
        let env = Environment::new(&config).expect("env builds");
        Simulation::new(env, colony::simple(n, seed))
            .expect("sim builds")
            .with_engine(engine)
            .with_round_threads(threads)
    };
    let rule = ConvergenceRule::stable_commitment(2);
    let mut oracle = build(EngineKind::Scalar, 1);
    let expected = oracle
        .run_to_convergence(rule, 20_000)
        .expect("oracle runs");
    assert!(
        expected.solved.is_some(),
        "n = 8192 simple colony converges"
    );
    for threads in [1usize, 8] {
        let mut fused = build(EngineKind::Fused, threads);
        let outcome = fused.run_to_convergence(rule, 20_000).expect("fused runs");
        assert_eq!(
            expected, outcome,
            "fast path diverged from the scalar oracle at \
             {threads} round threads (n = {n})"
        );
        assert_eq!(oracle.role_census(), fused.role_census());
        assert_eq!(oracle.env().counts(), fused.env().counts());
    }
}
