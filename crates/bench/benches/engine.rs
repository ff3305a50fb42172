//! Criterion bench for the execution engine: rounds/sec at the
//! registry's three canonical scales.
//!
//! * `engine/steady_state_round` — the like-for-like successor of
//!   `throughput/steady_state_round` (same registry axes) through
//!   [`Simulation::step_in_place`], the materializing single-step path.
//! * `engine/detected_round` — the *true* hot path: the convergence loop
//!   (`run_to_convergence`), which elides the colony-sized outcome
//!   buffer and feeds the detector from the incremental live tally.
//! * `engine/quorum_round` — the detected loop under the `Quorum` rule
//!   on an idle-fraction colony: the robustness/idleness workloads whose
//!   detector previously rescanned all n agents into a hash map every
//!   round.
//! * `engine/trial` — whole trials (colony build + run to convergence)
//!   from the named catalog.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hh_sim::registry::{self, Algorithm, ColonyMix, FaultSchedule, QualityProfile, Scenario};
use hh_sim::{ConvergenceRule, EngineKind};
use std::hint::black_box;

fn steady_state_scenario(n: usize) -> Scenario {
    Scenario::custom(
        format!("bench-engine-n{n}"),
        n,
        QualityProfile::AllGood { k: 4 },
        FaultSchedule::None,
        ColonyMix::Uniform(Algorithm::Simple),
    )
}

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/steady_state_round");
    for n in [256usize, 1024, 4096] {
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(if n >= 4096 { 2000 } else { 5000 });
        let scenario = steady_state_scenario(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &scenario, |b, s| {
            // Real trials run rounds 1..convergence and stop (the runner's
            // detector halts the execution), so the representative round
            // mix is the *pre-consensus* competition regime. An open-ended
            // step loop would drift into a post-consensus state no
            // workload ever executes; reset well before symmetry breaks.
            // The rebuild lands in 1 of 200 samples and is part of real
            // trial cost anyway.
            let mut sim = s.build(1).expect("valid");
            let mut seed = 1u64;
            b.iter(|| {
                if sim.round() >= 200 {
                    seed = seed.wrapping_add(1);
                    sim = s.build(seed).expect("valid");
                }
                black_box(sim.step_in_place().expect("runs").outcomes.len())
            });
        });
    }
    group.finish();
}

fn bench_trials(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/trial");
    for name in ["all-good-race-256", "optimal-1024", "mega-colony-4096"] {
        let scenario = registry::lookup(name).expect("catalog entry");
        group.bench_with_input(BenchmarkId::from_parameter(name), &scenario, |b, s| {
            let mut seed = s.base_seed();
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let outcome = s.run(seed).expect("runs");
                black_box(outcome.rounds_run)
            });
        });
    }
    group.finish();
}

fn bench_detector_overhead(c: &mut Criterion) {
    // The detector reads the incrementally maintained tally, so running
    // with convergence checking should cost barely more per round than
    // raw stepping. Measured at the largest scale to keep the contrast
    // honest.
    let mut group = c.benchmark_group("engine/detected_round");
    let n = 4096usize;
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(2000);
    let scenario = steady_state_scenario(n);
    group.bench_with_input(BenchmarkId::from_parameter(n), &scenario, |b, s| {
        // Same pre-consensus regime discipline as `steady_state_round`.
        let mut sim = s.build(1).expect("valid");
        let mut seed = 1u64;
        b.iter(|| {
            if sim.round() >= 200 {
                seed = seed.wrapping_add(1);
                sim = s.build(seed).expect("valid");
            }
            // One round under an unfireable rule (simple agents never
            // report the final state): the detector runs every round and
            // never stops the execution.
            black_box(
                sim.run_to_convergence(ConvergenceRule::all_final(), 1)
                    .expect("runs")
                    .rounds_run,
            )
        });
    });
    group.finish();
}

fn bench_quorum_rounds(c: &mut Criterion) {
    // The Afek–Gordon–Sulamy idle-fraction mix at the catalog's largest
    // scale, detected by its natural quorum rule — the workload family
    // the ROADMAP grows toward. The quorum window is set beyond the
    // budget so the detector runs every round and never stops the run.
    let mut group = c.benchmark_group("engine/quorum_round");
    let n = 4096usize;
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(2000);
    let scenario = Scenario::custom(
        format!("bench-engine-idle-n{n}"),
        n,
        QualityProfile::GoodPrefix { k: 4, good: 2 },
        FaultSchedule::None,
        ColonyMix::IdleFraction {
            algorithm: Algorithm::Simple,
            idle: 0.3,
        },
    );
    group.bench_with_input(BenchmarkId::from_parameter(n), &scenario, |b, s| {
        let mut sim = s.build(1).expect("valid");
        let mut seed = 1u64;
        b.iter(|| {
            if sim.round() >= 200 {
                seed = seed.wrapping_add(1);
                sim = s.build(seed).expect("valid");
            }
            black_box(
                sim.run_to_convergence(ConvergenceRule::quorum(0.7, 1_000_000), 1)
                    .expect("runs")
                    .rounds_run,
            )
        });
    });
    group.finish();
}

fn bench_round_threads(c: &mut Criterion) {
    // The intra-round worker pool across its thread axis: the
    // detector-inclusive convergence loop (the true hot path) at the
    // catalog's large scales. Every cell of a given n executes the
    // bit-identical stochastic process — the contract the conformance
    // suite enforces — so the rows differ in wall clock only.
    let mut group = c.benchmark_group("engine/threads");
    for n in [4096usize, 16384] {
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(if n >= 16384 { 500 } else { 2000 });
        for threads in [1usize, 2, 4, 8] {
            let scenario = steady_state_scenario(n).round_threads(threads);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("n{n}/t{threads}")),
                &scenario,
                |b, s| {
                    // Same pre-consensus regime discipline as
                    // `steady_state_round`.
                    let mut sim = s.build(1).expect("valid");
                    let mut seed = 1u64;
                    b.iter(|| {
                        if sim.round() >= 200 {
                            seed = seed.wrapping_add(1);
                            sim = s.build(seed).expect("valid");
                        }
                        black_box(
                            sim.run_to_convergence(ConvergenceRule::all_final(), 1)
                                .expect("runs")
                                .rounds_run,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_fast_vs_scalar(c: &mut Criterion) {
    // The default chunked fast path against the scalar oracle, at the
    // two large scales. Both rows execute the bit-identical stochastic
    // process, so they differ in wall clock only.
    let mut group = c.benchmark_group("engine/fast_vs_scalar");
    for n in [4096usize, 16384] {
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(if n >= 16384 { 500 } else { 2000 });
        for (label, engine) in [("fast", EngineKind::Soa), ("scalar", EngineKind::Scalar)] {
            let scenario = steady_state_scenario(n).engine(engine);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("n{n}/{label}")),
                &scenario,
                |b, s| {
                    // Same pre-consensus regime discipline as
                    // `steady_state_round`.
                    let mut sim = s.build(1).expect("valid");
                    let mut seed = 1u64;
                    b.iter(|| {
                        if sim.round() >= 200 {
                            seed = seed.wrapping_add(1);
                            sim = s.build(seed).expect("valid");
                        }
                        black_box(
                            sim.run_to_convergence(ConvergenceRule::all_final(), 1)
                                .expect("runs")
                                .rounds_run,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rounds,
    bench_trials,
    bench_detector_overhead,
    bench_quorum_rounds,
    bench_round_threads,
    bench_fast_vs_scalar
);
criterion_main!(benches);
