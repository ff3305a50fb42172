//! # hh-core — the house-hunting algorithms
//!
//! The algorithmic contributions of *Distributed House-Hunting in Ant
//! Colonies* (Ghaffari, Musco, Radeva, Lynch; PODC 2015), implemented as
//! [`Agent`] state machines over the formal model of the companion
//! `hh-model` crate:
//!
//! | Item | Paper | Type |
//! |------|-------|------|
//! | Optimal `O(log n)` algorithm ("Algorithm 2") | §4 | [`OptimalAnt`] |
//! | Simple `O(k log n)` algorithm ("Algorithm 3") | §5 | [`SimpleAnt`] |
//! | Lower-bound spreading processes | §3 | [`SpreaderAnt`] |
//! | Adaptive-rate variant (improved running time) | §6 | [`AdaptiveAnt`] |
//! | Non-binary-quality variant | §6 | [`QualityAnt`] |
//! | Byzantine adversaries (malicious faults) | §6 | [`byzantine`] |
//! | Idle colony members (Afek–Gordon–Sulamy) | related work | [`IdlerAnt`] |
//!
//! Colonies (one agent per ant) are built with the helpers in
//! [`colony`]; they return a [`Colony`] — a contiguous, statically
//! dispatched [`AnyAgent`] vector with a cached [`AgentSnapshot`] per
//! agent, from which [`Colony::census`] counts roles ([`RoleCensus`]).
//! The formal problem statement and consensus predicates live in
//! [`problem`]. The synchronous executor that drives agents against an
//! environment — including crash/delay perturbations — is in the
//! `hh-sim` crate.
//!
//! ## Quick example
//!
//! ```
//! use hh_core::{colony, problem, Agent, AnyAgent};
//! use hh_model::{ColonyConfig, Environment, QualitySpec};
//!
//! let n = 32;
//! let config = ColonyConfig::new(n, QualitySpec::good_prefix(4, 2)).seed(7);
//! let mut env = Environment::new(&config)?;
//! let mut ants: Vec<AnyAgent> = colony::simple(n, 7).into_iter().collect();
//!
//! // Drive the colony until every ant is committed to one good nest.
//! let mut consensus = None;
//! for _ in 0..5_000 {
//!     let round = env.round() + 1;
//!     let actions: Vec<_> = ants.iter_mut().map(|a| a.choose(round)).collect();
//!     let report = env.step(&actions)?;
//!     for (ant, outcome) in ants.iter_mut().zip(&report.outcomes) {
//!         ant.observe(round, outcome);
//!     }
//!     if let Some(nest) = problem::honest_consensus(&ants) {
//!         if env.quality_of(nest).is_some_and(|q| q.is_good()) {
//!             consensus = Some((round, nest));
//!             break;
//!         }
//!     }
//! }
//! let (round, nest) = consensus.expect("the colony converges");
//! assert!(env.quality_of(nest).unwrap().is_good());
//! assert!(round >= 1);
//! # Ok::<(), hh_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod agent;
mod any;
mod idle;
mod optimal;
mod quality;
mod simple;
mod spreader;

pub mod byzantine;
pub mod colony;
pub mod problem;

#[cfg(test)]
pub(crate) mod testutil;

pub use adaptive::{AdaptiveAnt, AdaptivePolicy};
pub use agent::{Agent, AgentRole, BoxedAgent, CyclePhase};
pub use any::AnyAgent;
pub use byzantine::{BadNestRecruiter, SleeperAnt};
pub use colony::{AgentSnapshot, Colony, RoleCensus};
pub use idle::IdlerAnt;
pub use optimal::OptimalAnt;
pub use quality::QualityAnt;
pub use simple::{LinearPolicy, RecruitPolicy, SimpleAnt, UrnAnt, UrnOptions};
pub use spreader::{SpreadStrategy, SpreaderAnt};
