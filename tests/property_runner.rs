//! Property-based tests on the parallel trial runner: the determinism
//! contract stated in `runner.rs` — outcomes depend only on the factory,
//! never on scheduling — exercised over random colony sizes, habitats,
//! seeds, and worker counts.

use house_hunting::prelude::*;
use house_hunting::sim::{run_trials, run_trials_with_workers};
use proptest::prelude::*;

fn build(
    n: usize,
    k: usize,
    good: usize,
    seed_base: u64,
    trial: usize,
) -> Result<Simulation, SimError> {
    let seed = seed_base.wrapping_add(trial as u64);
    ScenarioSpec::new(n, QualitySpec::good_prefix(k, good))
        .seed(seed)
        .build_simulation(colony::simple(n, seed))
}

/// The observation-noise axis: exact, then one valid value of the noisy
/// count channel.
fn noise_models() -> [NoiseModel; 2] {
    [
        NoiseModel::exact(),
        NoiseModel::multiplicative(0.3).unwrap(),
    ]
}

/// Runs one convergence segment of at most `rounds` rounds on `serial`
/// and on `chunked`. `step()` runs every chunk inline; a segment runs
/// `chunked`'s chunks on spawned round workers. The outcome, the nest
/// counts, the locations and the role census must agree.
fn segments_agree(mut serial: Simulation, mut chunked: Simulation, rounds: usize, label: &str) {
    let rule = ConvergenceRule::commitment();
    let expected = serial.run_to_convergence(rule, rounds as u64).unwrap();
    let outcome = chunked.run_to_convergence(rule, rounds as u64).unwrap();
    assert_eq!(expected, outcome, "{label}: segment outcome diverged");
    assert_eq!(
        serial.env().counts(),
        chunked.env().counts(),
        "{label}: counts"
    );
    assert_eq!(
        serial.env().locations(),
        chunked.env().locations(),
        "{label}: locations"
    );
    assert_eq!(
        serial.role_census(),
        chunked.role_census(),
        "{label}: census"
    );
}

proptest! {
    // Each case runs up to 6 × (1 + 3) bounded simulations; keep the
    // case count CI-sized.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `run_trials` returns identical `TrialOutcome` vectors when the
    /// worker count is forced to 1 vs. many, for arbitrary workloads.
    #[test]
    fn worker_count_never_changes_outcomes(
        n in 8usize..48,
        k in 2usize..5,
        trials in 1usize..6,
        seed_base in any::<u64>(),
        workers in 2usize..16,
    ) {
        let good = 1 + k / 2;
        let rule = ConvergenceRule::commitment();
        let serial = run_trials_with_workers(trials, 2_000, rule, 1, |t| {
            build(n, k, good, seed_base, t)
        }).unwrap();
        let parallel = run_trials_with_workers(trials, 2_000, rule, workers, |t| {
            build(n, k, good, seed_base, t)
        }).unwrap();
        let auto = run_trials(trials, 2_000, rule, |t| {
            build(n, k, good, seed_base, t)
        }).unwrap();

        prop_assert_eq!(serial.len(), trials);
        prop_assert_eq!(&serial, &parallel, "1 vs {} workers diverged", workers);
        prop_assert_eq!(&serial, &auto, "auto worker pool diverged from serial");
        for (i, outcome) in serial.iter().enumerate() {
            prop_assert_eq!(outcome.trial, i, "trial order must be stable");
        }
    }

    /// Registry scenarios inherit the same contract through their
    /// `run_trials_with_workers` wrapper.
    #[test]
    fn registry_trials_are_scheduling_independent(
        trials in 1usize..4,
        workers in 2usize..12,
    ) {
        let scenario = registry::lookup("baseline-16").expect("registered");
        let serial = scenario.run_trials_with_workers(trials, 1).unwrap();
        let parallel = scenario.run_trials_with_workers(trials, workers).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// Intra-round chunk boundaries never leak into results: because
    /// every per-ant draw comes from that ant's own RNG stream, the
    /// per-round state is a function of per-ant state only. Two distinct
    /// thread counts give two distinct boundary layouts over the same
    /// colony; both must match the serial engine round for round, under
    /// exact observation and under the noisy count channel.
    #[test]
    fn chunk_boundaries_never_change_round_results(
        n in 2usize..96,
        k in 2usize..5,
        seed in any::<u64>(),
        threads_a in 2usize..17,
        threads_b in 2usize..17,
        rounds in 1usize..40,
    ) {
        for noise in noise_models() {
            let build = |threads: usize| -> Result<Simulation, SimError> {
                Ok(ScenarioSpec::new(n, QualitySpec::good_prefix(k, 1 + k / 2))
                    .seed(seed)
                    .noise(noise)
                    .build_simulation(colony::simple(n, seed))?
                    .with_round_threads(threads))
            };
            let mut serial = build(1).unwrap();
            let mut chunked_a = build(threads_a).unwrap();
            let mut chunked_b = build(threads_b).unwrap();
            for round in 0..rounds {
                let reference = serial.step().unwrap();
                let report_a = chunked_a.step().unwrap();
                let report_b = chunked_b.step().unwrap();
                prop_assert_eq!(
                    &reference, &report_a,
                    "round {}: {} threads diverged from serial under {:?}", round, threads_a, noise
                );
                prop_assert_eq!(
                    &reference, &report_b,
                    "round {}: {} threads diverged from serial under {:?}", round, threads_b, noise
                );
            }
            prop_assert_eq!(serial.env().counts(), chunked_a.env().counts(), "{:?}", noise);
            prop_assert_eq!(serial.env().locations(), chunked_a.env().locations(), "{:?}", noise);
            for threads in [threads_a, threads_b] {
                let label = format!("{threads} round threads under {noise:?}");
                segments_agree(build(1).unwrap(), build(threads).unwrap(), rounds, &label);
            }
        }
    }

    /// The fast path's `engine_split` survives *adversarial* chunk
    /// shapes, not just the even division `with_round_threads` produces:
    /// width-1 chunks, an `n − 1` cut, prime strides, and arbitrary random
    /// boundary vectors (including empty chunks) must all merge their
    /// snapshot slices and live-tally deltas to exactly the serial
    /// execution's state, round for round.
    #[test]
    fn adversarial_chunk_bounds_never_change_round_results(
        n in 4usize..96,
        k in 2usize..5,
        seed in any::<u64>(),
        rounds in 1usize..24,
        cuts in proptest::collection::vec(any::<usize>(), 0..15),
    ) {
        let build = || -> Result<Simulation, SimError> {
            ScenarioSpec::new(n, QualitySpec::good_prefix(k, 1 + k / 2))
                .seed(seed)
                .build_simulation(colony::simple(n, seed))
        };

        // Adversarial fixed shapes plus one randomized boundary vector.
        let mut prime = vec![0];
        let mut at = 0;
        while at + 7 < n && prime.len() < 15 {
            at += 7;
            prime.push(at);
        }
        prime.push(n);
        let mut random = vec![0];
        random.extend(cuts.iter().map(|cut| cut % (n + 1)));
        random.push(n);
        random.sort_unstable();
        let bounds_sets: Vec<Vec<usize>> = vec![
            vec![0, 1, n],          // width-1 head chunk
            vec![0, n - 1, n],      // n−1 cut (width-1 tail chunk)
            prime,                  // prime stride
            random,                 // arbitrary, possibly empty chunks
        ];

        let mut serial = build().unwrap();
        let mut chunked: Vec<(Vec<usize>, Simulation)> = bounds_sets
            .into_iter()
            .map(|bounds| (bounds.clone(), build().unwrap().with_chunk_bounds(bounds)))
            .collect();
        for round in 0..rounds {
            let reference = serial.step().unwrap();
            for (bounds, sim) in &mut chunked {
                let report = sim.step().unwrap();
                prop_assert_eq!(
                    &reference, &report,
                    "round {}: chunk bounds {:?} diverged from serial", round, bounds
                );
            }
        }
        for (bounds, sim) in &mut chunked {
            prop_assert_eq!(
                serial.env().counts(), sim.env().counts(),
                "chunk bounds {:?}: final populations diverged", bounds
            );
            prop_assert_eq!(
                serial.env().locations(), sim.env().locations(),
                "chunk bounds {:?}: final locations diverged", bounds
            );
            // The census counted from the chunk-written snapshots matches
            // the serial engine's — the cached snapshots agree row for row.
            prop_assert_eq!(
                serial.role_census(), sim.role_census(),
                "chunk bounds {:?}: role census diverged", bounds
            );
            for idx in 0..n {
                prop_assert_eq!(
                    serial.colony().snapshot(idx),
                    sim.colony().snapshot(idx),
                    "chunk bounds {:?}: snapshot row {} diverged", bounds, idx
                );
            }
        }
        for (bounds, _) in chunked {
            let label = format!("chunk bounds {bounds:?}");
            let sim = build().unwrap().with_chunk_bounds(bounds);
            segments_agree(build().unwrap(), sim, rounds, &label);
        }
    }

    /// The fast path under adversarial chunk bounds and every covered
    /// thread count must reproduce the scalar oracle exactly — across
    /// the simple, optimal, quality, and spreader families — with
    /// `step`, `run_to_convergence`, and `agents()` reads interleaved at
    /// arbitrary boundaries, so the pre-chosen pipeline is crossed by
    /// materializing steps, eliding runs, and reads alike.
    #[test]
    fn fast_path_matches_the_oracle_across_interleaved_reads(
        n in 4usize..72,
        k in 2usize..5,
        seed in any::<u64>(),
        family in 0usize..4,
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
        threads_pick in 0usize..3,
        ops in proptest::collection::vec(0usize..3, 1..10),
    ) {
        use house_hunting::core::{AgentSnapshot, SpreadStrategy};

        let threads = [1usize, 2, 8][threads_pick];
        let colony_of = || match family {
            0 => colony::simple(n, seed),
            1 => colony::optimal(n),
            2 => colony::quality(n, seed, 2.0),
            _ => colony::spreaders(n, seed, SpreadStrategy::Hybrid {
                search_probability: 0.5,
            }),
        };
        let build = |engine: EngineKind| -> Result<Simulation, SimError> {
            let mut spec = ScenarioSpec::new(n, QualitySpec::good_prefix(k, 1 + k / 2))
                .seed(seed);
            if family == 2 {
                spec = spec.reveal_quality_on_go();
            }
            Ok(spec.build_simulation(colony_of())?.with_engine(engine))
        };
        let mut bounds = vec![0];
        bounds.extend(cuts.iter().map(|cut| cut % (n + 1)));
        bounds.push(n);
        bounds.sort_unstable();

        let mut oracle = build(EngineKind::Scalar).unwrap();
        let mut soa = build(EngineKind::Fused)
            .unwrap()
            .with_round_threads(threads)
            .with_chunk_bounds(bounds);
        let rule = ConvergenceRule::commitment();
        let snapshots = |sim: &Simulation| -> Vec<AgentSnapshot> {
            sim.agents().iter().map(AgentSnapshot::of).collect()
        };
        for (at, &op) in ops.iter().enumerate() {
            match op {
                0 => {
                    let reference = oracle.step().unwrap();
                    let report = soa.step().unwrap();
                    prop_assert_eq!(
                        reference, report,
                        "op {}: step reports diverged", at
                    );
                }
                1 => {
                    let reference = oracle.run_to_convergence(rule, 5).unwrap();
                    let outcome = soa.run_to_convergence(rule, 5).unwrap();
                    prop_assert_eq!(
                        reference, outcome,
                        "op {}: run outcomes diverged", at
                    );
                }
                _ => {
                    prop_assert_eq!(
                        snapshots(&oracle), snapshots(&soa),
                        "op {}: agents diverged from the oracle", at
                    );
                }
            }
            prop_assert_eq!(oracle.round(), soa.round());
            prop_assert_eq!(oracle.env().counts(), soa.env().counts());
            prop_assert_eq!(oracle.env().locations(), soa.env().locations());
            prop_assert_eq!(oracle.role_census(), soa.role_census());
        }
        prop_assert_eq!(
            snapshots(&oracle), snapshots(&soa),
            "final agents diverged from the oracle"
        );
    }
}
