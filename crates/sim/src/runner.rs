//! The multi-trial runner: "with high probability" made measurable.
//!
//! Every theorem in the paper is a statement over random executions, so
//! every experiment runs many independent trials and aggregates.
//! [`run_trials`] fans trials out over OS threads (std scoped threads; an
//! atomic cursor hands out trial indices), each trial building its own
//! simulation from the caller's factory — nothing is shared but the
//! factory, so runs are embarrassingly parallel and results are
//! bit-identical regardless of thread count.
//!
//! The fan-out is lock-free: workers claim indices from an
//! [`AtomicUsize`] cursor, collect outcomes locally, and stop early via
//! an [`AtomicBool`] abort flag on the first error; the coordinator then
//! scatters each worker's batch into preallocated per-trial result slots.
//! No mutex is ever taken and no post-hoc sort is needed — trial order
//! falls out of the slot indices.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::convergence::{ConvergenceRule, Solved};
use crate::error::SimError;
use crate::executor::Simulation;

/// One trial's result.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Trial index (0-based).
    pub trial: usize,
    /// The detected convergence, if the trial solved in time.
    pub solved: Option<Solved>,
    /// Rounds executed.
    pub rounds_run: u64,
    /// Actions replaced by crash/delay no-ops.
    pub replaced_actions: u64,
    /// Illegal agent actions sandboxed.
    pub illegal_actions: u64,
}

/// Runs `trials` independent simulations in parallel, each built by
/// `build(trial_index)` and executed until `rule` fires or `max_rounds`
/// elapse. Results are returned in trial order.
///
/// # Errors
///
/// Returns the first build or execution error encountered (remaining
/// trials are abandoned).
///
/// # Panics
///
/// Panics where [`run_trials_with_workers`] does.
///
/// # Examples
///
/// ```
/// use hh_core::colony;
/// use hh_sim::{run_trials, success_rate, ConvergenceRule, Simulation};
/// use hh_model::{ColonyConfig, Environment, QualitySpec};
///
/// let outcomes = run_trials(8, 5_000, ConvergenceRule::commitment(), |trial| {
///     let seed = 1_000 + trial as u64;
///     let config = ColonyConfig::new(16, QualitySpec::all_good(2)).seed(seed);
///     let env = Environment::new(&config)?;
///     Simulation::new(env, colony::simple(16, seed))
/// })?;
/// assert_eq!(outcomes.len(), 8);
/// assert!(success_rate(&outcomes) > 0.9);
/// # Ok::<(), hh_sim::SimError>(())
/// ```
pub fn run_trials<F>(
    trials: usize,
    max_rounds: u64,
    rule: ConvergenceRule,
    build: F,
) -> Result<Vec<TrialOutcome>, SimError>
where
    F: Fn(usize) -> Result<Simulation, SimError> + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    run_trials_with_workers(trials, max_rounds, rule, workers, build)
}

/// [`run_trials`] with an explicit worker-thread count (clamped to
/// `1..=trials`).
///
/// The determinism contract is that the outcome vector depends only on
/// the factory, never on scheduling: `run_trials_with_workers(t, m, r,
/// 1, f)` and `run_trials_with_workers(t, m, r, w, f)` are bit-identical
/// for every `w`. The oracle-equivalence suite and the runner property
/// tests enforce this.
///
/// # Errors
///
/// Returns the lowest-indexed build or execution error encountered
/// (remaining trials are abandoned via the abort flag).
///
/// # Panics
///
/// Propagates a panic of `build` or of a trial's run
/// ([`Simulation::run_to_convergence`]), and panics if the operating
/// system cannot spawn a trial worker thread.
pub fn run_trials_with_workers<F>(
    trials: usize,
    max_rounds: u64,
    rule: ConvergenceRule,
    workers: usize,
    build: F,
) -> Result<Vec<TrialOutcome>, SimError>
where
    F: Fn(usize) -> Result<Simulation, SimError> + Sync,
{
    if trials == 0 {
        return Ok(Vec::new());
    }
    let workers = workers.clamp(1, trials);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let mut slots: Vec<Option<TrialOutcome>> = Vec::with_capacity(trials);
    slots.resize_with(trials, || None);
    let mut first_error: Option<(usize, SimError)> = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut batch: Vec<(usize, TrialOutcome)> = Vec::new();
                    let mut error: Option<(usize, SimError)> = None;
                    loop {
                        // ordering: Acquire — pairs with the release
                        // store of the erroring worker; stronger than a
                        // pure early-exit hint needs, kept so observing
                        // the flag also orders this worker after the
                        // error it is yielding to.
                        if abort.load(Ordering::Acquire) {
                            break;
                        }
                        // ordering: Relaxed — the cursor only hands out
                        // disjoint indices; no payload is published
                        // through it (results travel through the scope
                        // join), so the RMW's atomicity is all that is
                        // needed.
                        let trial = cursor.fetch_add(1, Ordering::Relaxed);
                        if trial >= trials {
                            break;
                        }
                        let run = build(trial).and_then(|mut sim| {
                            let outcome = sim.run_to_convergence(rule, max_rounds)?;
                            Ok(TrialOutcome {
                                trial,
                                solved: outcome.solved,
                                rounds_run: outcome.rounds_run,
                                replaced_actions: outcome.replaced_actions,
                                illegal_actions: outcome.illegal_actions,
                            })
                        });
                        match run {
                            Ok(outcome) => batch.push((trial, outcome)),
                            Err(err) => {
                                error = Some((trial, err));
                                // ordering: Release — pairs with the
                                // acquire load at the top of the loop;
                                // publishes the abort to the other
                                // workers' next iteration.
                                abort.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                    (batch, error)
                })
            })
            .collect();
        for handle in handles {
            let (batch, error) = handle.join().expect("trial worker panicked");
            for (trial, outcome) in batch {
                slots[trial] = Some(outcome);
            }
            if let Some((trial, err)) = error {
                if first_error.as_ref().is_none_or(|&(first, _)| trial < first) {
                    first_error = Some((trial, err));
                }
            }
        }
    });

    if let Some((_, err)) = first_error {
        return Err(err);
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every trial index was claimed and completed"))
        .collect())
}

/// Fraction of trials that solved.
#[must_use]
pub fn success_rate(outcomes: &[TrialOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().filter(|o| o.solved.is_some()).count() as f64 / outcomes.len() as f64
}

/// The convergence rounds of the solved trials, as `f64`s ready for
/// statistics.
#[must_use]
pub fn solved_rounds(outcomes: &[TrialOutcome]) -> Vec<f64> {
    outcomes
        .iter()
        .filter_map(|o| o.solved.as_ref().map(|s| s.round as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_core::colony;
    use hh_model::{ColonyConfig, Environment, ModelError, QualitySpec};

    fn build_simple(trial: usize) -> Result<Simulation, SimError> {
        let seed = 10 + trial as u64;
        let config = ColonyConfig::new(16, QualitySpec::good_prefix(2, 1)).seed(seed);
        let env = Environment::new(&config)?;
        Simulation::new(env, colony::simple(16, seed))
    }

    #[test]
    fn zero_trials_is_empty() {
        let outcomes = run_trials(0, 100, ConvergenceRule::commitment(), build_simple).unwrap();
        assert!(outcomes.is_empty());
        assert_eq!(success_rate(&outcomes), 0.0);
    }

    #[test]
    fn trials_return_in_order() {
        let outcomes = run_trials(12, 5_000, ConvergenceRule::commitment(), build_simple).unwrap();
        assert_eq!(outcomes.len(), 12);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.trial, i);
        }
        assert!(success_rate(&outcomes) > 0.8);
        assert_eq!(
            solved_rounds(&outcomes).len(),
            outcomes.iter().filter(|o| o.solved.is_some()).count()
        );
    }

    #[test]
    fn parallel_matches_trial_seeding() {
        // Same factory twice: identical results (determinism is per-trial,
        // independent of scheduling).
        let a = run_trials(6, 5_000, ConvergenceRule::commitment(), build_simple).unwrap();
        let b = run_trials(6, 5_000, ConvergenceRule::commitment(), build_simple).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_does_not_change_outcomes() {
        let serial =
            run_trials_with_workers(6, 5_000, ConvergenceRule::commitment(), 1, build_simple)
                .unwrap();
        for workers in [2usize, 3, 8, 64] {
            let parallel = run_trials_with_workers(
                6,
                5_000,
                ConvergenceRule::commitment(),
                workers,
                build_simple,
            )
            .unwrap();
            assert_eq!(serial, parallel, "{workers} workers diverged from serial");
        }
    }

    #[test]
    fn worker_count_is_clamped() {
        // 0 workers must still run everything (clamped to 1).
        let outcomes =
            run_trials_with_workers(3, 5_000, ConvergenceRule::commitment(), 0, build_simple)
                .unwrap();
        assert_eq!(outcomes.len(), 3);
    }

    #[test]
    fn build_errors_propagate() {
        let result = run_trials(4, 100, ConvergenceRule::commitment(), |_| {
            Err(SimError::Model(ModelError::EmptyColony))
        });
        assert_eq!(result, Err(SimError::Model(ModelError::EmptyColony)));
    }

    #[test]
    fn unsolvable_trials_report_no_solution() {
        // All-bad environment (opted in): simple ants all turn passive and
        // nothing ever converges.
        let outcomes = run_trials(2, 50, ConvergenceRule::commitment(), |trial| {
            let config = ColonyConfig::new(8, QualitySpec::good_prefix(2, 0))
                .allow_no_good()
                .seed(trial as u64);
            let env = Environment::new(&config)?;
            Simulation::new(env, colony::simple(8, trial as u64))
        })
        .unwrap();
        assert_eq!(success_rate(&outcomes), 0.0);
        assert!(outcomes.iter().all(|o| o.rounds_run == 50));
    }
}
