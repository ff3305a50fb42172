//! The workload definitions.
//!
//! * `colony-16k` — fixed-length segments of one large simple colony:
//!   the round body at scale, on the agent-state table path.
//! * `catalog-trials` — short trials of the small catalog scenarios that
//!   together cover every fault schedule and colony mix: per-trial and
//!   per-round fixed costs, mostly off the table path.
//! * `optimal-4096` — trials of the paper's O(log n) algorithm at the
//!   catalog's largest size, where the convergence detector fires.
//!
//! Every input derives from the workload seed: batch `b` runs its
//! scenario with a base seed mixed from `(seed, b)`, and the scenario
//! derives its trial seeds from that.
//!
//! **Segment latency, never single-round latency.** A segment is one
//! `run_to_convergence(rule, L)` call with `L` well above
//! [`Simulation::TABLE_MIN_ROUNDS`](hh_sim::Simulation::TABLE_MIN_ROUNDS).
//! Timing `run_to_convergence(_, 1)` would measure a different engine
//! path: below the table gate the engine steps the `AnyAgent` vector,
//! not the agent-state table that real trials run on.

use hh_sim::registry::{self, Algorithm, ColonyMix, FaultSchedule, QualityProfile, Scenario};
use hh_sim::{ConvergenceRule, RunOutcome, TrialOutcome};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["colony-16k", "catalog-trials", "optimal-4096"];

/// The catalog scenarios of `catalog-trials`. With
/// [`byzantine_hardened_96`] they cover every fault schedule (none,
/// crash, delay, mixed) and every colony mix (uniform, idle, Byzantine,
/// heterogeneous), and each algorithm family that takes a different
/// engine path.
pub const CATALOG: [&str; 8] = [
    "all-good-race-256",
    "idle-third-256",
    "crash-quarter-128",
    "delay-light-128",
    "mixed-faults-128",
    "hetero-simple-adaptive-256",
    "adaptive-many-nests-512",
    "quality-tie-128",
];

/// The Byzantine member of `catalog-trials`: the catalog's
/// `byzantine-handful-96` habitat (96 ants, 4 nests of which 2 are good,
/// 4 bad-nest recruiters, quorum 0.9 held 8 rounds, 30 000-round budget)
/// with the honest majority on the hardened simple algorithm.
///
/// `byzantine-handful-96` itself is left out: its plain simple ants stall
/// below the quorum in about 1 trial in 40, each stalled trial runs the
/// whole budget, and those trials would carry most of the workload's
/// rounds and count as failed operations. The hardened ants re-assess a
/// nest on arrival, which blunts the kidnappers: 0 stalls in 50 000
/// trials. Adversaries keep the colony off the agent-state table, so the
/// scenario still runs the `AnyAgent` path.
#[must_use]
pub fn byzantine_hardened_96() -> Scenario {
    Scenario::custom(
        "byzantine-hardened-96",
        96,
        QualityProfile::GoodPrefix { k: 4, good: 2 },
        FaultSchedule::None,
        ColonyMix::Byzantine {
            algorithm: Algorithm::HardenedSimple,
            adversaries: 4,
        },
    )
    .max_rounds(30_000)
}

/// Colony size of a `colony-16k` segment.
pub const COLONY_N: usize = 16_384;

/// Rounds per `colony-16k` segment: below consensus for the simple
/// algorithm at this size, and far above the table gate.
pub const SEGMENT_ROUNDS: u64 = 200;

/// How one run is scaled: the workload seed, the measuring time, the
/// thread budget, and whether to shrink everything for the self-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Threads the workload may use (`nproc`).
    pub threads: usize,
    /// Tiny inputs for the self-test.
    pub tiny: bool,
}

/// One workload: the scenarios its batches cycle through and how each
/// batch runs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Batch `b` runs `families[b % families.len()]`.
    pub families: Vec<Scenario>,
    /// `true`: every operation is one fixed-length segment run in the
    /// calling thread with the scenario's intra-round threads. `false`:
    /// every batch is `batch` trials through the trial runner with
    /// `threads` workers.
    pub segments: bool,
    /// Operations per batch.
    pub batch: usize,
}

impl Workload {
    /// Builds the named workload, or `None` for an unknown name.
    #[must_use]
    pub fn new(name: &str, options: &Options) -> Option<Self> {
        let threads = options.threads.max(1);
        let trials_per_batch = if options.tiny { 1 } else { 2 * threads };
        let (name, families, segments, batch) = match name {
            "colony-16k" => {
                let (n, rounds) = if options.tiny {
                    (1_024, 20)
                } else {
                    (COLONY_N, SEGMENT_ROUNDS)
                };
                let segment = Scenario::custom(
                    "colony-16k",
                    n,
                    QualityProfile::AllGood { k: 4 },
                    FaultSchedule::None,
                    ColonyMix::Uniform(Algorithm::Simple),
                )
                .rule(ConvergenceRule::all_final())
                .max_rounds(rounds)
                .round_threads(threads);
                (NAMES[0], vec![segment], true, 1)
            }
            "catalog-trials" => {
                let families = CATALOG
                    .iter()
                    .map(|name| registry::lookup(name).expect("catalog scenario"))
                    .chain(std::iter::once(byzantine_hardened_96()))
                    .collect();
                (NAMES[1], families, false, trials_per_batch)
            }
            "optimal-4096" => {
                let family = registry::lookup("mega-colony-4096").expect("catalog scenario");
                (NAMES[2], vec![family], false, trials_per_batch)
            }
            _ => return None,
        };
        Some(Self {
            name,
            families,
            segments,
            batch,
        })
    }

    /// Batches per full cycle through the families.
    #[must_use]
    pub fn cycle(&self) -> usize {
        self.families.len()
    }

    /// The scenario batch `b` runs, seeded from the workload seed.
    #[must_use]
    pub fn batch_scenario(&self, seed: u64, b: usize) -> Scenario {
        self.families[b % self.families.len()]
            .clone()
            .base_seed_value(mix(seed, b as u64))
    }
}

/// Whether a finished segment or trial counts as a failed operation: a
/// segment fails if it runs short of its length, a trial if it misses a
/// convergence its scenario expects within the budget.
#[must_use]
pub fn op_failed(scenario: &Scenario, segments: bool, outcome: &RunOutcome) -> bool {
    if segments {
        outcome.rounds_run != scenario.round_budget()
    } else {
        scenario.expects_convergence() && outcome.solved.is_none()
    }
}

/// [`op_failed`] for a trial-runner outcome.
#[must_use]
pub fn trial_failed(scenario: &Scenario, outcome: &TrialOutcome) -> bool {
    scenario.expects_convergence() && outcome.solved.is_none()
}

/// Mixes the workload seed with a batch index (SplitMix64 finalizer).
#[must_use]
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(tiny: bool) -> Options {
        Options {
            seed: 7,
            seconds: 1.0,
            threads: 2,
            tiny,
        }
    }

    #[test]
    fn every_named_workload_builds() {
        for name in NAMES {
            let workload = Workload::new(name, &options(false)).expect("known workload");
            assert_eq!(workload.name, name);
            assert!(!workload.families.is_empty());
        }
        assert!(Workload::new("no-such-workload", &options(false)).is_none());
    }

    #[test]
    fn catalog_covers_every_fault_schedule_and_mix() {
        let workload = Workload::new("catalog-trials", &options(false)).unwrap();
        let faults: Vec<_> = workload.families.iter().map(|s| *s.faults()).collect();
        assert!(faults.iter().any(|f| matches!(f, FaultSchedule::None)));
        assert!(faults
            .iter()
            .any(|f| matches!(f, FaultSchedule::Crash { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, FaultSchedule::Delay { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, FaultSchedule::Mixed { .. })));
        let mixes: Vec<_> = workload.families.iter().map(|s| s.mix().clone()).collect();
        assert!(mixes.iter().any(|m| matches!(m, ColonyMix::Uniform(_))));
        assert!(mixes
            .iter()
            .any(|m| matches!(m, ColonyMix::IdleFraction { .. })));
        assert!(mixes
            .iter()
            .any(|m| matches!(m, ColonyMix::Byzantine { .. })));
        assert!(mixes
            .iter()
            .any(|m| matches!(m, ColonyMix::Heterogeneous { .. })));
        assert!(workload.families.iter().all(|s| s.n() <= 512));
    }

    #[test]
    fn batch_seeds_derive_from_the_workload_seed() {
        let workload = Workload::new("optimal-4096", &options(false)).unwrap();
        let a = workload.batch_scenario(7, 3);
        assert_eq!(a.base_seed(), workload.batch_scenario(7, 3).base_seed());
        assert_ne!(a.base_seed(), workload.batch_scenario(8, 3).base_seed());
        assert_ne!(a.base_seed(), workload.batch_scenario(7, 4).base_seed());
    }
}
