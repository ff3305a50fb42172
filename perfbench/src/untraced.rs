//! The end-to-end run: the workload's timed loop with no
//! instrumentation, then the output checks.
//!
//! Operations are closed-loop: a batch starts when the previous one
//! ends. `colony-16k` runs one segment per batch in the calling thread
//! with `threads` intra-round threads; the trial workloads run `batch`
//! trials per batch through `Scenario::run_trials_with_workers` with
//! `threads` workers and one intra-round thread. A *cycle* is one pass
//! over the workload's scenarios; the loop stops at the first cycle end
//! after `seconds`, and every throughput metric is a median over cycles.

use std::hint::black_box;
use std::time::Duration;

use hh_analysis::Quantiles;
use hh_model::NestId;
use hh_sim::{EngineKind, RunOutcome, TrialOutcome};

use crate::trace::clock;
use crate::workload::{op_failed, trial_failed, Options, Workload};
use crate::{peak_rss_mib, ratio, Metric, Report};

/// Set-ups timed back to back as one `setup_s` sample, which is their
/// mean. One set-up takes 0.2–1 ms, so a single one is moved by a
/// third by one slow thread spawn or page-fault burst.
const SETUP_BLOCK: usize = 16;

/// Loop time between two `setup_s` samples, each taken at a cycle end,
/// so the median samples the machine across the whole run. Samples
/// start inside the loop: set-ups timed before it, on a cold heap, ran
/// 1.5–2.5× slower than the same set-ups later in the process and made
/// the median depend on how many of them a run took.
const SETUP_EVERY: Duration = Duration::from_millis(250);

/// Trials per scenario re-run on the scalar oracle after the timed loop.
const ORACLE_TRIALS: usize = 2;

/// One cycle: a pass over every scenario of the workload.
#[derive(Debug, Default)]
struct Cycle {
    /// Segments or trials run.
    ops: u64,
    /// Rounds those ran.
    rounds: u64,
    /// Wall time inside `run_to_convergence` (segments) or the trial
    /// runner (trials).
    engine_wall: Duration,
    /// Wall time of whole operations, simulation builds included.
    op_wall: Duration,
}

/// The state a segment ended in, kept for the oracle re-run.
struct SegmentRecord {
    batch: usize,
    outcome: RunOutcome,
    counts: Vec<usize>,
    locations: Vec<NestId>,
}

/// One set-up: builds the workload and the simulation of every
/// scenario's first trial.
fn set_up(name: &str, options: &Options) -> Result<Workload, String> {
    let workload =
        Workload::new(name, options).ok_or_else(|| format!("unknown workload {name}"))?;
    for b in 0..workload.cycle() {
        let scenario = workload.batch_scenario(options.seed, b);
        black_box(
            scenario
                .build(scenario.trial_seed(0))
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(workload)
}

/// One `setup_s` sample: the mean wall seconds of [`SETUP_BLOCK`]
/// back-to-back set-ups.
fn setup_sample(name: &str, options: &Options) -> Result<f64, String> {
    let start = clock();
    for _ in 0..SETUP_BLOCK {
        set_up(name, options)?;
    }
    Ok(start.elapsed().as_secs_f64() / SETUP_BLOCK as f64)
}

/// The median of `samples`, NaN values dropped (NaN when none is left).
fn median(samples: Vec<f64>) -> f64 {
    let finite = samples.into_iter().filter(|v| !v.is_nan()).collect();
    Quantiles::new(finite).map_or(f64::NAN, |q| q.median())
}

/// Runs the named workload's timed loop and its output checks.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(name: &str, options: &Options) -> Result<Report, String> {
    let seed = options.seed;

    // Set-up: registry lookup and the simulation builds the first
    // batches need (worker-pool spawn included). Sampled at cycle ends
    // during the loop and once after it.
    let workload = set_up(name, options)?;
    let mut setup = Vec::new();
    let threads = options.threads.max(1);

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut cycle = Cycle::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut segments: Vec<SegmentRecord> = Vec::new();
    let mut trials: Vec<(usize, Vec<TrialOutcome>)> = Vec::new();

    let loop_start = clock();
    let mut last_setup = loop_start;
    let mut b = 0usize;
    loop {
        let scenario = workload.batch_scenario(seed, b);
        if workload.segments {
            let op_start = clock();
            let run = scenario.build(scenario.trial_seed(0)).and_then(|mut sim| {
                let run_start = clock();
                let outcome =
                    sim.run_to_convergence(scenario.convergence_rule(), scenario.round_budget())?;
                let wall = run_start.elapsed();
                Ok((sim, outcome, wall))
            });
            cycle.op_wall += op_start.elapsed();
            cycle.ops += 1;
            match run {
                Ok((sim, outcome, wall)) => {
                    cycle.engine_wall += wall;
                    cycle.rounds += outcome.rounds_run;
                    if op_failed(&scenario, true, &outcome) {
                        report.failed += 1;
                    }
                    if b < workload.cycle() {
                        segments.push(SegmentRecord {
                            batch: b,
                            outcome,
                            counts: sim.env().counts().to_vec(),
                            locations: sim.env().locations().to_vec(),
                        });
                    }
                }
                Err(_) => report.failed += 1,
            }
        } else {
            let start = clock();
            let run = scenario.run_trials_with_workers(workload.batch, threads);
            let wall = start.elapsed();
            cycle.op_wall += wall;
            cycle.engine_wall += wall;
            cycle.ops += workload.batch as u64;
            match run {
                Ok(outcomes) => {
                    cycle.rounds += outcomes.iter().map(|o| o.rounds_run).sum::<u64>();
                    report.failed += outcomes
                        .iter()
                        .filter(|o| trial_failed(&scenario, o))
                        .count() as u64;
                    if b < workload.cycle() {
                        trials.push((b, outcomes));
                    }
                }
                Err(_) => report.failed += workload.batch as u64,
            }
        }
        b += 1;
        if b.is_multiple_of(workload.cycle()) {
            report.attempted += cycle.ops;
            cycles.push(std::mem::take(&mut cycle));
            if loop_start.elapsed().as_secs_f64() >= options.seconds {
                break;
            }
            if last_setup.elapsed() >= SETUP_EVERY {
                setup.push(setup_sample(name, options)?);
                last_setup = clock();
            }
        }
    }
    setup.push(setup_sample(name, options)?);
    // Read before the oracle re-runs below, which take paths the timed
    // loop never does.
    let peak_rss = peak_rss_mib().unwrap_or(f64::NAN);

    // Output checks: the first batch of every scenario re-runs on the
    // scalar oracle (serial, one worker) and must match bit for bit.
    for record in &segments {
        let scenario = workload
            .batch_scenario(seed, record.batch)
            .engine(EngineKind::Scalar)
            .round_threads(1);
        let oracle = scenario.build(scenario.trial_seed(0)).and_then(|mut sim| {
            let outcome =
                sim.run_to_convergence(scenario.convergence_rule(), scenario.round_budget())?;
            Ok((
                outcome,
                sim.env().counts().to_vec(),
                sim.env().locations().to_vec(),
            ))
        });
        report.check(
            oracle.as_ref().is_ok_and(|(outcome, counts, locations)| {
                *outcome == record.outcome
                    && *counts == record.counts
                    && *locations == record.locations
            }),
            || {
                format!(
                    "{}: segment {} differs from the scalar oracle",
                    workload.name, record.batch
                )
            },
        );
    }
    for (batch, outcomes) in &trials {
        let scenario = workload
            .batch_scenario(seed, *batch)
            .engine(EngineKind::Scalar);
        let checked = ORACLE_TRIALS.min(outcomes.len());
        let oracle = scenario.run_trials_with_workers(checked, 1);
        report.check(
            oracle.as_ref().is_ok_and(|o| o[..] == outcomes[..checked]),
            || {
                format!(
                    "{}: batch {batch} differs from the scalar oracle",
                    scenario.name()
                )
            },
        );
    }
    let per_cycle = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
    let rounds_per_s = per_cycle(&|c| ratio(c.rounds as f64, c.engine_wall.as_secs_f64()));
    let trials_per_s = per_cycle(&|c| ratio(c.ops as f64, c.op_wall.as_secs_f64()));
    report.metrics = vec![
        Metric::new("setup_s", median(setup), "s"),
        Metric::new("rounds_per_s", median(rounds_per_s), "rounds/s"),
        Metric::new("trials_per_s", median(trials_per_s), "trials/s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    Ok(report)
}
