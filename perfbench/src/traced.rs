//! The traced run: the per-layer numbers.
//!
//! Every batch first runs through the trial runner (`runner_batch`,
//! one intra-round thread, `threads` workers), then each of its trials
//! or segments re-runs serially as a traced *unit*, and, in the first
//! [`FULL_CYCLES`] cycles, the batch's first unit is also re-driven one
//! layer at a time:
//!
//! * `trial` (every unit) — serial `Scenario::build` split into
//!   `colony_build` and `sim_build`, then `engine_run`
//!   (`run_to_convergence`), one thread;
//! * `pool_trial` — the same with `threads` intra-round threads
//!   (`sim_build_pool` spawns the worker pool, `engine_run_pool`);
//! * `composed` — unperturbed units only: `env_build`, `colony_build`,
//!   then the [`Composed`] driver for as many rounds as `engine_run`
//!   took, one span per layer call;
//! * `detected` — `sim_build`, then `step_in_place` and
//!   `Detector::check` per round (`step`, `detector`).
//!
//! Output checks, each of which fails the run: the runner's outcome
//! equals the serial trial's; the pooled run equals the serial one; the
//! composed driver's `counts()` and `locations()` equal the engine's;
//! the detector fires exactly where `run_to_convergence` stopped; and
//! the share of active recruiters that paired stays at or above Lemma
//! 2.1's 1/16.

use std::path::Path;

use hh_analysis::Quantiles;
use hh_core::Colony;
use hh_sim::registry::Scenario;
use hh_sim::{run_trials_with_workers, Detector, RunOutcome, SimError, Simulation, TrialOutcome};

use crate::composed::{Composed, RoundCounts};
use crate::trace::{clock, Tracer};
use crate::workload::{op_failed, Options, Workload};
use crate::{ratio, Metric, Report};

/// Cycles whose batches get a fully traced first unit. Later cycles
/// trace only the runner batch and the serial trials, which keeps the
/// span count (and the trace file) bounded on the short-trial workload.
const FULL_CYCLES: usize = 200;

/// Lemma 2.1: an active recruiter succeeds with probability ≥ 1/16.
const LEMMA_2_1: f64 = 1.0 / 16.0;

/// Sums the per-layer metrics are computed from.
#[derive(Debug, Default)]
struct Sums {
    /// Serial trial walls, ns, and the rounds those trials ran.
    trial_ns: Vec<f64>,
    trial_rounds: u64,
    /// Serial (one-thread) engine time and rounds, fully traced units.
    engine_ns: u64,
    rounds: u64,
    /// Pooled engine time and rounds.
    pool_ns: u64,
    pool_rounds: u64,
    /// Serial engine time and rounds over the units the composed driver
    /// also ran.
    composed_engine_ns: u64,
    composed_engine_rounds: u64,
    /// Runner batches: Σ wall × workers, ns.
    runner_worker_ns: u64,
    /// Work counts over composed rounds.
    counts: RoundCounts,
}

/// Builds one trial's simulation exactly as `Scenario::build` does,
/// from a colony built beforehand, with `threads` intra-round threads.
fn build_sim(
    scenario: &Scenario,
    seed: u64,
    colony: Colony,
    threads: usize,
) -> Result<Simulation, SimError> {
    Ok(scenario
        .spec_for(seed)
        .build_simulation(colony)?
        .with_engine(scenario.engine_kind())
        .with_round_threads(threads))
}

/// Runs the traced workload, writing its spans to `trace_out`.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(name: &str, options: &Options, trace_out: &Path) -> Result<Report, String> {
    let workload =
        Workload::new(name, options).ok_or_else(|| format!("unknown workload {name}"))?;
    let threads = options.threads.max(1);
    // The runner needs at least one unit per worker.
    let batch = workload.batch.max(threads);
    let mut tracer = Tracer::new();
    let mut sums = Sums::default();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };

    let start = clock();
    let mut b = 0usize;
    loop {
        let serial = workload.batch_scenario(options.seed, b).round_threads(1);
        let rule = serial.convergence_rule();
        let budget = serial.round_budget();
        let (runner, runner_ns) = tracer.timed("runner_batch", |_| {
            run_trials_with_workers(batch, budget, rule, threads, |i| {
                serial.build(serial.trial_seed(i))
            })
        });
        sums.runner_worker_ns += runner_ns * threads.min(batch) as u64;
        for i in 0..batch {
            let unit = Unit {
                scenario: &serial,
                trial: i,
                threads,
                segments: workload.segments,
                full: i == 0 && b / workload.cycle() < FULL_CYCLES,
            };
            let serial_outcome = trace_unit(&mut tracer, &unit, &mut sums, &mut report);
            let matches = match (&runner, &serial_outcome) {
                (Ok(outcomes), Some(outcome)) => outcomes[i] == trial_outcome(i, outcome),
                _ => false,
            };
            report.check(matches, || {
                format!(
                    "{}: runner trial {i} of batch {b} differs from the serial run",
                    serial.name()
                )
            });
        }
        b += 1;
        if b.is_multiple_of(workload.cycle()) && start.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }

    let counts = sums.counts;
    report.check(
        counts.rounds > 0 && ratio(counts.matched as f64, counts.active_calls as f64) >= LEMMA_2_1,
        || {
            format!(
                "recruiter success {}/{} is below 1/16",
                counts.matched, counts.active_calls
            )
        },
    );
    if let Err(err) = tracer.write_csv(trace_out) {
        eprintln!("perfbench: could not write {}: {err}", trace_out.display());
    }
    report.metrics = metrics(&tracer, &sums, workload.segments);
    Ok(report)
}

fn trial_outcome(trial: usize, outcome: &RunOutcome) -> TrialOutcome {
    TrialOutcome {
        trial,
        solved: outcome.solved,
        rounds_run: outcome.rounds_run,
        replaced_actions: outcome.replaced_actions,
        illegal_actions: outcome.illegal_actions,
    }
}

/// One trial or segment to trace.
struct Unit<'a> {
    /// The batch's scenario, one intra-round thread.
    scenario: &'a Scenario,
    /// Trial index within the batch.
    trial: usize,
    /// Intra-round threads of the pooled run.
    threads: usize,
    /// Segments (fixed length) rather than trials.
    segments: bool,
    /// Trace every layer; otherwise only the serial trial.
    full: bool,
}

/// Traces one unit; returns its serial outcome.
fn trace_unit(
    tracer: &mut Tracer,
    unit: &Unit<'_>,
    sums: &mut Sums,
    report: &mut Report,
) -> Option<RunOutcome> {
    let Unit {
        scenario: serial,
        threads,
        segments,
        ..
    } = *unit;
    let seed = serial.trial_seed(unit.trial);
    let rule = serial.convergence_rule();
    let budget = serial.round_budget();
    let label = format!("{} trial seed {seed:#x}", serial.name());
    report.attempted += 1;
    tracer.next_unit();
    tracer.span("unit", |tracer| {
        let (trial, trial_ns) = tracer.timed("trial", |tracer| {
            let colony = tracer.span("colony_build", |_| serial.colony_for(seed));
            let mut sim = tracer.span("sim_build", |_| build_sim(serial, seed, colony, 1))?;
            let (outcome, engine_ns) =
                tracer.timed("engine_run", |_| sim.run_to_convergence(rule, budget));
            Ok::<_, SimError>((sim, outcome?, engine_ns))
        });
        let Ok((sim, outcome, engine_ns)) = trial else {
            report.failed += 1;
            report.check(false, || format!("{label}: serial run errored"));
            return None;
        };
        if op_failed(serial, segments, &outcome) {
            report.failed += 1;
        }
        sums.trial_ns.push(trial_ns as f64);
        sums.trial_rounds += outcome.rounds_run;
        if !unit.full {
            return Some(outcome);
        }
        sums.engine_ns += engine_ns;
        sums.rounds += outcome.rounds_run;

        let pooled = tracer.span("pool_trial", |tracer| {
            let colony = tracer.span("colony_build", |_| serial.colony_for(seed));
            let mut sim = tracer.span("sim_build_pool", |_| {
                build_sim(serial, seed, colony, threads)
            })?;
            let (outcome, ns) =
                tracer.timed("engine_run_pool", |_| sim.run_to_convergence(rule, budget));
            Ok::<_, SimError>((outcome?, ns, sim))
        });
        let pooled_ok = pooled.as_ref().is_ok_and(|(pooled, _, pooled_sim)| {
            *pooled == outcome
                && pooled_sim.env().counts() == sim.env().counts()
                && pooled_sim.env().locations() == sim.env().locations()
        });
        report.check(pooled_ok, || {
            format!("{label}: {threads}-thread run differs from serial")
        });
        if let Ok((pooled, ns, _)) = &pooled {
            sums.pool_ns += ns;
            sums.pool_rounds += pooled.rounds_run;
        }

        if serial.faults().is_none() {
            let mut counts = RoundCounts::default();
            let driver = tracer.span("composed", |tracer| {
                let env = tracer.span("env_build", |_| serial.spec_for(seed).build_environment());
                let colony = tracer.span("colony_build", |_| serial.colony_for(seed));
                let mut driver = Composed::new(env?, colony);
                driver.run(outcome.rounds_run, tracer, &mut counts);
                Ok::<_, SimError>(driver)
            });
            let same = driver.as_ref().is_ok_and(|driver| {
                driver.env().counts() == sim.env().counts()
                    && driver.env().locations() == sim.env().locations()
            });
            report.check(same, || {
                format!("{label}: composed driver differs from the engine")
            });
            sums.counts.add(&counts);
            sums.composed_engine_ns += engine_ns;
            sums.composed_engine_rounds += outcome.rounds_run;
        }

        let detected = tracer.span("detected", |tracer| {
            let colony = serial.colony_for(seed);
            let mut sim = tracer.span("sim_build", |_| build_sim(serial, seed, colony, 1))?;
            let mut detector = Detector::new(rule);
            let mut solved = None;
            for _ in 0..outcome.rounds_run {
                tracer.span("step", |_| sim.step_in_place().map(|_| ()))?;
                solved = tracer.span("detector", |_| detector.check(&sim));
                if solved.is_some() {
                    break;
                }
            }
            Ok::<_, SimError>((solved, sim.round()))
        });
        report.check(
            detected.as_ref().is_ok_and(|&(solved, round)| {
                solved == outcome.solved && round == outcome.rounds_run
            }),
            || format!("{label}: the detector disagrees with run_to_convergence"),
        );
        Some(outcome)
    })
}

/// The per-layer metrics from the recorded spans and sums.
fn metrics(tracer: &Tracer, sums: &Sums, segments: bool) -> Vec<Metric> {
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let counts = &sums.counts;
    let rounds = counts.rounds as f64;
    // Mean self time per composed round, µs.
    let per_round = |name: &str| ratio(total(name).self_ns as f64, rounds) / 1e3;
    // Mean span duration, µs.
    let mean_us = |name: &str| ratio(total(name).total_ns as f64, total(name).count as f64) / 1e3;
    let layers_ns: u64 = [
        "choose", "validate", "relocate", "pair", "outcome", "observe",
    ]
    .iter()
    .map(|name| total(name).self_ns)
    .sum();
    let serial_round_ns = ratio(sums.engine_ns as f64, sums.rounds as f64);
    let pool_round_ns = ratio(sums.pool_ns as f64, sums.pool_rounds as f64);
    let actions = (counts.search + counts.go + counts.recruit) as f64;
    let trial_ms = Quantiles::new(sums.trial_ns.iter().map(|ns| ns / 1e6).collect());
    let trial_ms = |q: f64| trial_ms.as_ref().map_or(f64::NAN, |s| s.quantile(q));
    // The workload's own engine configuration: pooled segments, or
    // one-thread trials under the runner.
    let (round_ns, build) = if segments {
        (pool_round_ns, "sim_build_pool")
    } else {
        (serial_round_ns, "sim_build")
    };
    vec![
        Metric::new("model.validate_us", per_round("validate"), "us"),
        Metric::new("model.relocate_us", per_round("relocate"), "us"),
        Metric::new("model.pair_us", per_round("pair"), "us"),
        Metric::new("model.outcome_us", per_round("outcome"), "us"),
        Metric::new("model.env_build_us", mean_us("env_build"), "us"),
        Metric::new(
            "model.recruit_calls",
            ratio(counts.recruit_calls as f64, rounds),
            "calls/round",
        ),
        Metric::new(
            "model.recruit_success",
            ratio(counts.matched as f64, counts.active_calls as f64),
            "ratio",
        ),
        Metric::new("core.choose_us", per_round("choose"), "us"),
        Metric::new("core.observe_us", per_round("observe"), "us"),
        Metric::new("core.colony_build_us", mean_us("colony_build"), "us"),
        Metric::new(
            "core.search_share",
            ratio(counts.search as f64, actions),
            "ratio",
        ),
        Metric::new("core.go_share", ratio(counts.go as f64, actions), "ratio"),
        Metric::new(
            "core.recruit_share",
            ratio(counts.recruit as f64, actions),
            "ratio",
        ),
        Metric::new("sim.round_us", round_ns / 1e3, "us"),
        Metric::new(
            "sim.engine_vs_layers",
            ratio(
                ratio(
                    sums.composed_engine_ns as f64,
                    sums.composed_engine_rounds as f64,
                ),
                ratio(layers_ns as f64, rounds),
            ),
            "ratio",
        ),
        Metric::new("sim.sim_build_us", mean_us(build), "us"),
        Metric::new("sim.detector_us", mean_us("detector"), "us"),
        Metric::new(
            "sim.pool_speedup",
            ratio(serial_round_ns, pool_round_ns),
            "ratio",
        ),
        Metric::new(
            "sim.runner_efficiency",
            ratio(sums.trial_ns.iter().sum(), sums.runner_worker_ns as f64),
            "ratio",
        ),
        Metric::new("sim.trial_ms_p50", trial_ms(0.5), "ms"),
        Metric::new("sim.trial_ms_p90", trial_ms(0.9), "ms"),
        Metric::new(
            "sim.rounds_per_trial",
            ratio(sums.trial_rounds as f64, sums.trial_ns.len() as f64),
            "rounds",
        ),
    ]
}
