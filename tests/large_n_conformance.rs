//! Release-mode guard for the catalog's largest colonies: every
//! `Tag::Large` scenario (n ≥ 1024, including the n = 4096 entries) must
//! keep building, running within its round budget, and reproducing
//! bit-identically across worker counts.
//!
//! The default `registry_conformance` suite already covers the whole
//! catalog; this file exists so CI can run the large-n subset in a
//! dedicated **release** job with more repro trials — large-n perf or
//! determinism regressions (the engine's hot path) then fail a
//! purpose-named job instead of hiding inside a long debug run. The
//! tests are
//! `#[ignore]`d by default to keep `cargo test` fast; CI invokes them
//! with `cargo test --release --test large_n_conformance -- --ignored`.

use house_hunting::prelude::*;
use std::time::Instant;

fn large_scenarios() -> Vec<Scenario> {
    let scenarios = registry::with_tag(Tag::Large);
    assert!(
        scenarios.iter().any(|s| s.n() >= 4096),
        "the catalog must keep an n >= 4096 scenario"
    );
    scenarios
}

#[test]
#[ignore = "release-mode CI job; run with -- --ignored"]
// The soft perf tripwire below is a deliberate wall-clock consumer —
// it measures the engine from outside and feeds nothing back into a
// simulation, so the workspace wall-clock ban does not apply.
#[allow(clippy::disallowed_methods)]
fn large_scenarios_run_within_budget() {
    for scenario in large_scenarios() {
        let start = Instant::now();
        let outcome = scenario
            .run(scenario.base_seed())
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", scenario.name()));
        assert!(
            outcome.rounds_run <= scenario.round_budget(),
            "{}: ran past its budget",
            scenario.name()
        );
        assert_eq!(
            outcome.solved.is_some(),
            scenario.expects_convergence(),
            "{}: convergence expectation violated",
            scenario.name()
        );
        // A soft perf tripwire: a large-n trial that takes minutes means
        // the engine lost an order of magnitude; the bound is generous
        // enough for slow CI machines.
        assert!(
            start.elapsed().as_secs() < 120,
            "{}: a single large-n trial took {:?}",
            scenario.name(),
            start.elapsed()
        );
    }
}

#[test]
#[ignore = "release-mode CI job; run with -- --ignored"]
fn large_scenarios_reproduce_bit_identically_across_worker_counts() {
    const TRIALS: usize = 4;
    for scenario in large_scenarios() {
        let serial = scenario
            .run_trials_with_workers(TRIALS, 1)
            .unwrap_or_else(|e| panic!("{}: serial trials failed: {e}", scenario.name()));
        for workers in [2usize, 4, 16] {
            let parallel = scenario
                .run_trials_with_workers(TRIALS, workers)
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

#[test]
#[ignore = "release-mode CI job; run with -- --ignored"]
fn large_scenarios_match_the_scalar_oracle() {
    // The SoA engine against the scalar distribution-identity oracle at
    // the colony sizes the fast path exists for: equal seeds must give
    // bit-identical outcomes at n >= 1024 (including both n = 4096
    // entries), serial and chunked alike.
    const TRIALS: usize = 2;
    for scenario in large_scenarios() {
        let oracle = scenario
            .clone()
            .engine(EngineKind::Scalar)
            .run_trials_with_workers(TRIALS, 2)
            .unwrap_or_else(|e| panic!("{}: scalar trials failed: {e}", scenario.name()));
        for threads in [1usize, 8] {
            let soa = scenario
                .clone()
                .engine(EngineKind::Fused)
                .round_threads(threads)
                .run_trials_with_workers(TRIALS, 2)
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: SoA trials ({threads} round threads) failed: {e}",
                        scenario.name()
                    )
                });
            assert_eq!(
                oracle,
                soa,
                "{}: SoA engine at {threads} round threads diverged from the scalar oracle",
                scenario.name()
            );
        }
    }
}

#[test]
#[ignore = "release-mode CI job; run with -- --ignored"]
fn large_uniform_colony_fast_path_matches_the_scalar_oracle() {
    // The n = 4096 catalog entries run optimal ants; this row holds the
    // fast path over a simple colony to the oracle at a size past every
    // catalog colony.
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
        let mut soa = build(EngineKind::Fused, threads);
        let outcome = soa.run_to_convergence(rule, 20_000).expect("SoA runs");
        assert_eq!(
            expected, outcome,
            "fast path diverged from the scalar oracle at \
             {threads} round threads (n = {n})"
        );
        assert_eq!(oracle.role_census(), soa.role_census());
        assert_eq!(oracle.env().counts(), soa.env().counts());
    }
}

#[test]
#[ignore = "release-mode CI job; run with -- --ignored"]
fn large_scenarios_reproduce_bit_identically_across_round_threads() {
    // Intra-round parallelism at the sizes it exists for: the n >= 1024
    // catalog entries must be bit-identical between the serial engine
    // and every chunked thread count.
    const TRIALS: usize = 2;
    for scenario in large_scenarios() {
        let serial = scenario
            .clone()
            .round_threads(1)
            .run_trials_with_workers(TRIALS, 2)
            .unwrap_or_else(|e| panic!("{}: serial trials failed: {e}", scenario.name()));
        for threads in [2usize, 4, 8] {
            let threaded = scenario
                .clone()
                .round_threads(threads)
                .run_trials_with_workers(TRIALS, 2)
                .unwrap_or_else(|e| panic!("{}: threaded trials failed: {e}", scenario.name()));
            assert_eq!(
                serial,
                threaded,
                "{}: outcomes diverged between 1 and {threads} round threads",
                scenario.name()
            );
        }
    }
}
