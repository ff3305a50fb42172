//! # hh-sim — the execution harness for house-hunting colonies
//!
//! Drives colonies of `hh-core` agents against `hh-model` environments:
//!
//! * [`Simulation`] — the synchronous executor, with crash/delay
//!   perturbations ([`Perturbations`]) and sandboxing of illegal agent
//!   actions;
//! * [`ConvergenceRule`] / [`Detector`] — when is HouseHunting solved
//!   (commitment, all-final, or quorum consensus, answered from the
//!   executor's live tally);
//! * [`SeriesRecorder`] — per-round metrics for the experiment figures;
//! * [`run_trials`] — the parallel multi-trial runner behind every
//!   "with high probability" measurement;
//! * [`ScenarioSpec`] — declarative construction of (possibly perturbed)
//!   simulations;
//! * [`registry`] — the named scenario catalog (quality profiles × fault
//!   schedules × colony mixes) that experiments, the benchmark, and examples
//!   pull their workloads from.
//!
//! # Examples
//!
//! ```
//! use hh_core::colony;
//! use hh_sim::{run_trials, solved_rounds, success_rate, ConvergenceRule, ScenarioSpec};
//! use hh_model::QualitySpec;
//!
//! // Theorem 5.11 in miniature: the simple algorithm solves 16-ant,
//! // 2-nest instances with high probability.
//! let outcomes = run_trials(8, 4_000, ConvergenceRule::commitment(), |trial| {
//!     let seed = 500 + trial as u64;
//!     ScenarioSpec::new(16, QualitySpec::good_prefix(2, 1))
//!         .seed(seed)
//!         .build_simulation(colony::simple(16, seed))
//! })?;
//! assert!(success_rate(&outcomes) >= 0.75);
//! assert!(!solved_rounds(&outcomes).is_empty());
//! # Ok::<(), hh_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod convergence;
mod error;
mod executor;
mod handshake;
mod metrics;
mod runner;
mod scenario;

pub mod registry;

pub use convergence::{ConvergenceRule, Detector, Solved};
pub use error::SimError;
pub use executor::{EngineKind, Perturbations, RoleCensus, RunOutcome, Simulation};
pub use metrics::{RoundSnapshot, SeriesRecorder};
pub use registry::Scenario;
pub use runner::{run_trials, run_trials_with_workers, solved_rounds, success_rate, TrialOutcome};
pub use scenario::ScenarioSpec;
