//! # house-hunting — *Distributed House-Hunting in Ant Colonies* in Rust
//!
//! A complete reproduction of Ghaffari, Musco, Radeva and Lynch,
//! *Distributed House-Hunting in Ant Colonies* (PODC 2015,
//! arXiv:1505.03799): the synchronous ant-colony model, the Ω(log n)
//! lower-bound processes, the optimal `O(log n)` and simple `O(k log n)`
//! consensus algorithms, every Section 6 extension (adaptive recruitment
//! rate, non-binary quality, noisy sensing, crash/Byzantine faults,
//! partial asynchrony), and the measurement harness that regenerates the
//! paper's results as experiments.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`model`] | the formal environment of Section 2 (`search`/`go`/`recruit`, pairing, noise, faults) |
//! | [`core`]  | the algorithms as agent state machines (Sections 3–6) |
//! | [`sim`]   | the synchronous executor, convergence detection, parallel trial runner |
//! | [`rumor`] | the rumor-spreading substrate the lower bound is compared against |
//! | [`analysis`] | statistics, asymptotic fitting, text figures |
//!
//! ## Quickstart
//!
//! ```
//! use house_hunting::prelude::*;
//!
//! // A colony of 64 ants; 4 candidate nests, 2 of them good.
//! let spec = ScenarioSpec::new(64, QualitySpec::good_prefix(4, 2)).seed(7);
//! let mut sim = spec.build_simulation(colony::simple(64, 7))?;
//! let outcome = sim.run_to_convergence(ConvergenceRule::commitment(), 10_000)?;
//! let solved = outcome.solved.expect("the colony converges");
//! assert!(solved.good);
//! println!("consensus on {} after {} rounds", solved.nest, solved.round);
//! # Ok::<(), house_hunting::sim::SimError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! experiment harness that regenerates every figure/table of
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use hh_analysis as analysis;
pub use hh_core as core;
pub use hh_model as model;
pub use hh_rumor as rumor;
pub use hh_sim as sim;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use hh_core::colony;
    pub use hh_core::problem;
    pub use hh_core::{
        AdaptiveAnt, AdaptivePolicy, Agent, AgentRole, AnyAgent, BoxedAgent, Colony, CyclePhase,
        OptimalAnt, QualityAnt, RoleCensus, SimpleAnt, SpreadStrategy, SpreaderAnt, UrnOptions,
    };
    pub use hh_model::{
        Action, AntId, ColonyConfig, Environment, ModelError, NestId, NoiseModel, Outcome, Quality,
        QualitySpec,
    };
    pub use hh_sim::registry::{self, Algorithm, ColonyMix, FaultSchedule, Scenario, Tag};
    pub use hh_sim::{
        ConvergenceRule, EngineKind, Perturbations, RoundSnapshot, RunOutcome, ScenarioSpec,
        SeriesRecorder, SimError, Simulation, Solved, TrialOutcome,
    };
}
