//! # hh-bench — the experiment harness of the house-hunting reproduction
//!
//! One module per experiment family, each regenerating the figures/tables
//! listed in the repository's `EXPERIMENTS.md` (experiment ids F1–F18,
//! T1–T2; that file is generated from [`all_experiments()`], the source
//! of truth). Since the paper is a theory paper, its "evaluation" is its
//! theorems; every experiment here turns one theorem/lemma (or Section 6
//! claim) into a measured series plus machine-checked [`Finding`]s about
//! the predicted *shape*. Workload cells are pulled from the
//! `hh_sim::registry` scenario axes wherever an experiment is
//! scenario-shaped.
//!
//! Run everything with the bundled binary:
//!
//! ```text
//! cargo run --release -p hh-bench --bin experiments            # full
//! cargo run --release -p hh-bench --bin experiments -- --quick # CI-sized
//! cargo run --release -p hh-bench --bin experiments -- F3 F5   # selected
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod docs;
pub mod experiments;

pub use experiments::{
    all_experiments, experiments_index_markdown, Experiment, ExperimentReport, Finding, Mode,
};
