//! # hh-model — the formal house-hunting environment
//!
//! This crate implements Section 2 of *Distributed House-Hunting in Ant
//! Colonies* (Ghaffari, Musco, Radeva, Lynch; PODC 2015): a synchronous
//! environment with a home nest, `k` candidate nests of quality
//! `q(i) ∈ [0, 1]`, and `n` ants whose only interactions with the world are
//! the three calls `search()`, `go(i)`, and `recruit(b, i)` — exactly one
//! per ant per round. Recruitment is resolved by the paper's centralized
//! pairing process ("Algorithm 1"), implemented verbatim in
//! [`recruitment`].
//!
//! The crate also provides the Section 6 extension knobs:
//!
//! * [`noise`] — unbiased noisy population counts (qualities are sensed
//!   exactly);
//! * [`faults`] — crash-stop schedules and per-round delays (partial
//!   asynchrony), applied by the executor in `hh-sim`.
//!
//! The *algorithms* that solve the house-hunting problem live in the
//! companion crate `hh-core`; the execution harness in `hh-sim`.
//!
//! ## Quick example
//!
//! ```
//! use hh_model::{Action, ColonyConfig, Environment, QualitySpec};
//!
//! // Ten ants, three candidate nests, one good.
//! let config = ColonyConfig::new(10, QualitySpec::single_good(3, 2)).seed(7);
//! let mut env = Environment::new(&config)?;
//!
//! // Round 1: all ants search.
//! let report = env.step(&vec![Action::Search; 10])?;
//! // Ants that found the good nest n₂ could now recruit to it.
//! let found_good = report
//!     .outcomes
//!     .iter()
//!     .filter(|o| matches!(o, hh_model::Outcome::Search { quality, .. } if quality.is_good()))
//!     .count();
//! assert!(found_good <= 10);
//! # Ok::<(), hh_model::ModelError>(())
//! ```
//!
//! ## Model clarifications
//!
//! The implementation resolves a handful of ambiguities in the paper's
//! prose, each recorded with its code site and pinning test in the
//! [`clarifications`] ledger: `go(i)`/`recruit(·, i)` legality is
//! *knowledge*-based (visited **or** recruited-to), round 1 therefore
//! only admits `search()`, and self-recruitment pairs are allowed as in
//! Lemma 3.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod actions;
mod config;
mod env;
mod error;
mod ids;
mod nest;

pub mod clarifications;
pub mod faults;
pub mod noise;
pub mod recruitment;
pub mod seeding;
pub mod util;

pub use actions::{Action, Outcome};
pub use config::{ColonyConfig, QualitySpec};
pub use env::{AntChunk, Environment, RecruitmentReport, SharedRound, StepReport};
pub use error::ModelError;
pub use ids::{AntId, NestId};
pub use nest::{Nest, Quality};
pub use noise::NoiseModel;
