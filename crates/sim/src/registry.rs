//! The scenario registry: named, composable workloads as data.
//!
//! Every "with high probability" claim in the paper is a statement over a
//! *family* of instances — colony size × nest-quality profile × fault
//! schedule — and every experiment, bench, and example needs concrete
//! members of those families. This module turns them into data instead of
//! code: a [`Scenario`] is assembled from three composable axes,
//!
//! * [`QualitySpec`] — all-good, good-prefix, single-good, an
//!   adversarial non-binary tie, or explicit qualities;
//! * [`FaultSchedule`] — none, crash, delay, or mixed perturbations;
//! * [`ColonyMix`] — a uniform colony of one [`Algorithm`], an
//!   idle-fraction colony (Afek–Gordon–Sulamy's idle ants), a colony with
//!   planted Byzantine recruiters, or a heterogeneous two-algorithm mix;
//!
//! plus a convergence rule and a round budget. The named catalog
//! ([`all_scenarios`], [`lookup`], [`with_tag`]) spans colony sizes 16 to
//! 4096 across all three axes, and the repository's
//! `tests/registry_conformance.rs` and `tests/oracle_equivalence.rs`
//! harnesses run *every* entry — so adding a scenario automatically adds
//! its tests.
//!
//! # Examples
//!
//! ```
//! use hh_sim::registry::{self, Tag};
//!
//! // Run a catalog scenario by name.
//! let scenario = registry::lookup("baseline-16").expect("registered");
//! let outcome = scenario.run(scenario.base_seed())?;
//! assert!(outcome.solved.is_some());
//!
//! // Filter the catalog by tag.
//! assert!(!registry::with_tag(Tag::Crash).is_empty());
//!
//! // Or compose a custom scenario from the same axes.
//! use hh_model::QualitySpec;
//! use hh_sim::registry::{Algorithm, ColonyMix, FaultSchedule, Scenario};
//! let custom = Scenario::custom(
//!     "my-workload",
//!     64,
//!     QualitySpec::GoodPrefix { k: 4, good: 2 },
//!     FaultSchedule::None,
//!     ColonyMix::Uniform(Algorithm::Simple),
//! );
//! assert!(custom.run(1)?.solved.is_some());
//! # Ok::<(), hh_sim::SimError>(())
//! ```

use hh_core::{colony, Colony, SpreadStrategy};
use hh_model::faults::{CrashPlan, CrashStyle, DelayPlan};
use hh_model::seeding::{derive_seed, StreamKind};
use hh_model::{ColonyConfig, NoiseModel, QualitySpec};

use crate::convergence::ConvergenceRule;
use crate::error::SimError;
use crate::executor::{EngineKind, Perturbations, RunOutcome, Simulation};
use crate::runner::{run_trials_with_workers, TrialOutcome};
use crate::scenario::ScenarioSpec;

/// Which algorithm a (sub-)colony runs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Algorithm {
    /// The optimal `O(log n)` algorithm (Section 4); deterministic agents.
    Optimal,
    /// The paper-faithful simple `O(k log n)` algorithm (Section 5).
    Simple,
    /// The simple algorithm hardened with arrival re-assessment: carried
    /// ants re-check the quality of the nest they were taken to, which
    /// blunts bad-nest kidnappers (needs the "assessing go" extension,
    /// enabled automatically).
    HardenedSimple,
    /// The adaptive-recruitment-rate variant (Section 6).
    Adaptive,
    /// The non-binary quality-weighted variant (Section 6) with
    /// selectivity exponent `gamma`; requires the "assessing go" model
    /// extension, which [`Scenario`] enables automatically.
    Quality {
        /// Selectivity exponent `γ` of the `(count/n)·qᵞ` rule.
        gamma: f64,
    },
    /// The Section 3 lower-bound spreading process: no quality sensing,
    /// pure rumor spreading under one of the [`SpreadStrategy`] regimes.
    Spreader {
        /// How ignorant spreaders behave while uninformed.
        strategy: SpreadStrategy,
    },
}

impl Algorithm {
    /// A short static name for reporting.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Optimal => "optimal",
            // Hardened agents are SimpleAnts with different options and
            // share their label.
            Algorithm::Simple | Algorithm::HardenedSimple => "simple",
            Algorithm::Adaptive => "adaptive",
            Algorithm::Quality { .. } => "quality",
            Algorithm::Spreader { strategy } => strategy.label(),
        }
    }

    /// Builds a uniform colony of `n` agents running this algorithm.
    ///
    /// # Panics
    ///
    /// Panics if this is [`Algorithm::Quality`] with a `gamma` that is
    /// negative, NaN or infinite (see [`hh_core::QualityAnt::new`]).
    /// [`Scenario::build`] checks the exponent first and returns
    /// [`SimError::InvalidScenario`] instead. Also panics if `n` exceeds
    /// `u32::MAX` for [`Algorithm::Simple`], [`Algorithm::HardenedSimple`] or
    /// [`Algorithm::Adaptive`] (see [`hh_core::SimpleAnt::new`]).
    #[must_use]
    pub fn build(&self, n: usize, seed: u64) -> Colony {
        match self {
            Algorithm::Optimal => colony::optimal(n),
            Algorithm::Simple => colony::simple(n, seed),
            Algorithm::HardenedSimple => colony::simple_with_options(
                n,
                seed,
                hh_core::UrnOptions {
                    reassess_on_arrival: true,
                    ..hh_core::UrnOptions::default()
                },
            ),
            Algorithm::Adaptive => colony::adaptive(n, seed),
            Algorithm::Quality { gamma } => colony::quality(n, seed, *gamma),
            Algorithm::Spreader { strategy } => colony::spreaders(n, seed, *strategy),
        }
    }

    /// Returns `true` if the algorithm needs quality revealed on `go`.
    #[must_use]
    fn needs_quality_on_go(&self) -> bool {
        matches!(self, Algorithm::Quality { .. } | Algorithm::HardenedSimple)
    }
}

/// The nest-quality axis under its former name, kept only because the
/// benchmark harness in `perfbench/` names it. The axis is the model's
/// own [`QualitySpec`]; new code names that.
pub use hh_model::QualitySpec as QualityProfile;

/// The fault/asynchrony axis: which Section 6 perturbations apply.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultSchedule {
    /// The unperturbed baseline model.
    None,
    /// A `fraction` of the colony crash-stops at `round`.
    Crash {
        /// Fraction of the colony that crashes, in `[0, 1]`.
        fraction: f64,
        /// The (inclusive) crash round.
        round: u64,
        /// Where crashed ants come to rest.
        style: CrashStyle,
    },
    /// Independent per-(ant, round) delays with this probability.
    Delay {
        /// Per-step delay probability, in `[0, 1]`.
        probability: f64,
    },
    /// Crashes and delays at once.
    Mixed {
        /// Fraction of the colony that crashes, in `[0, 1]`.
        crash_fraction: f64,
        /// The (inclusive) crash round.
        crash_round: u64,
        /// Per-step delay probability, in `[0, 1]`.
        delay_probability: f64,
    },
}

impl FaultSchedule {
    /// `true` if the schedule perturbs nothing.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, FaultSchedule::None)
    }

    /// Materializes the schedule into executor [`Perturbations`] for a
    /// colony of `n`, with victim selection and delay draws derived from
    /// `seed`. Returns `None` for the unperturbed baseline.
    #[must_use]
    pub fn perturbations(&self, n: usize, seed: u64) -> Option<Perturbations> {
        match *self {
            FaultSchedule::None => None,
            FaultSchedule::Crash {
                fraction,
                round,
                style,
            } => Some(Perturbations {
                crash: CrashPlan::fraction(n, fraction, round, style, seed),
                delay: DelayPlan::never(),
            }),
            FaultSchedule::Delay { probability } => Some(Perturbations {
                crash: CrashPlan::none(n),
                delay: DelayPlan::new(probability, seed),
            }),
            FaultSchedule::Mixed {
                crash_fraction,
                crash_round,
                delay_probability,
            } => Some(Perturbations {
                crash: CrashPlan::fraction(
                    n,
                    crash_fraction,
                    crash_round,
                    CrashStyle::InPlace,
                    seed,
                ),
                delay: DelayPlan::new(delay_probability, seed),
            }),
        }
    }
}

/// The colony-composition axis: who the `n` ants actually are.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ColonyMix {
    /// Every ant runs the same algorithm.
    Uniform(Algorithm),
    /// An `idle` fraction of the colony are [`IdlerAnt`]s that do no work
    /// and rely on being carried; the rest run `algorithm`.
    ///
    /// [`IdlerAnt`]: hh_core::IdlerAnt
    IdleFraction {
        /// The working majority's algorithm.
        algorithm: Algorithm,
        /// Fraction of the colony that idles, in `[0, 1]`.
        idle: f64,
    },
    /// `adversaries` Byzantine bad-nest recruiters planted among an
    /// honest colony running `algorithm`.
    Byzantine {
        /// The honest majority's algorithm.
        algorithm: Algorithm,
        /// Number of planted adversaries.
        adversaries: usize,
    },
    /// A heterogeneous colony: a `fraction_b` share runs `b`, the rest
    /// runs `a`. Both sub-colonies are honest.
    Heterogeneous {
        /// The majority algorithm.
        a: Algorithm,
        /// The minority algorithm.
        b: Algorithm,
        /// Fraction of the colony running `b`, in `[0, 1]`.
        fraction_b: f64,
    },
}

impl ColonyMix {
    /// The algorithm run by the honest working majority.
    #[must_use]
    pub fn primary_algorithm(&self) -> &Algorithm {
        match self {
            ColonyMix::Uniform(algorithm)
            | ColonyMix::IdleFraction { algorithm, .. }
            | ColonyMix::Byzantine { algorithm, .. } => algorithm,
            ColonyMix::Heterogeneous { a, .. } => a,
        }
    }

    /// The number of non-primary agents this mix plants at the tail of
    /// the colony: idlers, adversaries, or the minority sub-colony
    /// (0 for a uniform mix). Fractions are rounded, clamped so a
    /// nonzero remainder of primary agents always survives.
    #[must_use]
    pub fn planted_count(&self, n: usize) -> usize {
        match self {
            ColonyMix::Uniform(_) => 0,
            ColonyMix::IdleFraction { idle, .. } => share(n, *idle),
            ColonyMix::Byzantine { adversaries, .. } => (*adversaries).min(n),
            ColonyMix::Heterogeneous { fraction_b, .. } => share(n, *fraction_b),
        }
    }

    /// Builds the colony of `n` agents for base seed `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the mix runs an [`Algorithm::Quality`] whose `gamma` is
    /// negative, NaN or infinite ([`Algorithm::build`]);
    /// [`Scenario::build`] returns [`SimError::InvalidScenario`] instead.
    /// Also panics where [`Algorithm::build`] does on `n > u32::MAX`.
    #[must_use]
    pub fn build(&self, n: usize, seed: u64) -> Colony {
        match self {
            ColonyMix::Uniform(algorithm) => algorithm.build(n, seed),
            ColonyMix::IdleFraction { algorithm, .. } => {
                let mut agents = algorithm.build(n, seed);
                colony::plant_idlers(&mut agents, self.planted_count(n));
                agents
            }
            ColonyMix::Byzantine {
                algorithm,
                adversaries,
            } => {
                let mut agents = algorithm.build(n, seed);
                colony::plant_adversaries(&mut agents, *adversaries, |_| {
                    hh_core::BadNestRecruiter::new()
                });
                agents
            }
            ColonyMix::Heterogeneous { a, b, .. } => {
                let mut agents = a.build(n, seed);
                // The minority sub-colony draws from its own derived seed
                // stream so the two algorithms never share coins.
                let b_seed = derive_seed(seed, StreamKind::Auxiliary, 0xB);
                let count = self.planted_count(n);
                let start = n - count;
                for (slot, agent) in b.build(n, b_seed).into_iter().enumerate().skip(start) {
                    agents.replace(slot, agent);
                }
                agents
            }
        }
    }

    /// Returns `true` if any sub-colony needs quality revealed on `go`.
    fn needs_quality_on_go(&self) -> bool {
        match self {
            ColonyMix::Uniform(algorithm)
            | ColonyMix::IdleFraction { algorithm, .. }
            | ColonyMix::Byzantine { algorithm, .. } => algorithm.needs_quality_on_go(),
            ColonyMix::Heterogeneous { a, b, .. } => {
                a.needs_quality_on_go() || b.needs_quality_on_go()
            }
        }
    }
}

/// Rounds a fractional share of the colony to a head-count, clamped so
/// only a fraction of one or more consumes the whole colony (a NaN
/// fraction plants nobody).
fn share(n: usize, fraction: f64) -> usize {
    let fraction = fraction.clamp(0.0, 1.0);
    let count = ((n as f64) * fraction).round() as usize;
    if fraction >= 1.0 {
        n
    } else {
        count.min(n.saturating_sub(1))
    }
}

/// Catalog tags, derived from a scenario's axes: one size band, one
/// quality tag, one fault tag, and one mix tag per scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Tag {
    /// Colony size below 64.
    Tiny,
    /// Colony size in `64..256`.
    Small,
    /// Colony size in `256..1024`.
    Medium,
    /// Colony size 1024 or above.
    Large,
    /// All nests good.
    AllGood,
    /// A good prefix among bad nests.
    GoodPrefix,
    /// Exactly one good nest.
    SingleGood,
    /// The adversarial non-binary tie.
    Tie,
    /// Explicit non-binary qualities.
    NonBinary,
    /// No perturbations.
    Clean,
    /// Crash-stop faults.
    Crash,
    /// Per-round delays (partial asynchrony).
    Delay,
    /// Crashes and delays combined.
    MixedFaults,
    /// A uniform single-algorithm colony.
    Uniform,
    /// An idle-fraction colony.
    Idle,
    /// Planted Byzantine recruiters.
    Byzantine,
    /// A heterogeneous two-algorithm colony.
    Hetero,
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Tag::Tiny => "tiny",
            Tag::Small => "small",
            Tag::Medium => "medium",
            Tag::Large => "large",
            Tag::AllGood => "all-good",
            Tag::GoodPrefix => "good-prefix",
            Tag::SingleGood => "single-good",
            Tag::Tie => "tie",
            Tag::NonBinary => "non-binary",
            Tag::Clean => "clean",
            Tag::Crash => "crash",
            Tag::Delay => "delay",
            Tag::MixedFaults => "mixed-faults",
            Tag::Uniform => "uniform",
            Tag::Idle => "idle",
            Tag::Byzantine => "byzantine",
            Tag::Hetero => "hetero",
        };
        f.write_str(name)
    }
}

/// One named workload: axes + convergence rule + round budget.
///
/// Catalog entries come from [`all_scenarios`]/[`lookup`]; bespoke
/// workloads are assembled with [`Scenario::custom`] from the same axes,
/// so sweeps in experiments and examples stay data-driven.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    summary: String,
    n: usize,
    profile: QualitySpec,
    faults: FaultSchedule,
    mix: ColonyMix,
    noise: NoiseModel,
    rule: ConvergenceRule,
    max_rounds: u64,
    base_seed: u64,
    expect_convergence: bool,
    round_threads: usize,
    engine: EngineKind,
}

impl Scenario {
    /// Assembles a scenario from the three axes.
    ///
    /// The convergence rule defaults to the natural one for the axes (see
    /// [`Scenario::default_rule`]), the round budget to 40 000, and the
    /// base seed to a hash of `name`; all are overridable with the builder
    /// setters. The catalog [`tags`](Self::tags) follow from the axes.
    #[must_use]
    pub fn custom(
        name: impl Into<String>,
        n: usize,
        profile: QualitySpec,
        faults: FaultSchedule,
        mix: ColonyMix,
    ) -> Self {
        let name = name.into();
        let rule = Self::default_rule(&profile, &faults, &mix);
        let base_seed = name_seed(&name);
        Self {
            name,
            summary: String::new(),
            n,
            profile,
            faults,
            mix,
            noise: NoiseModel::exact(),
            rule,
            max_rounds: 40_000,
            base_seed,
            expect_convergence: true,
            round_threads: 1,
            engine: EngineKind::default(),
        }
    }

    /// The natural success rule for a combination of axes: quorum rules
    /// where unanimity is unattainable (idlers, Byzantine kidnappers),
    /// any-nest commitment for non-binary habitats, a stability window
    /// under faults, and plain commitment consensus otherwise.
    #[must_use]
    pub fn default_rule(
        profile: &QualitySpec,
        faults: &FaultSchedule,
        mix: &ColonyMix,
    ) -> ConvergenceRule {
        match mix {
            ColonyMix::Byzantine { .. } => ConvergenceRule::quorum(0.9, 8),
            ColonyMix::IdleFraction { .. } => ConvergenceRule::quorum(0.7, 8),
            _ if profile.is_non_binary() => ConvergenceRule::commitment_any(),
            _ if !faults.is_none() => ConvergenceRule::stable_commitment(8),
            _ => ConvergenceRule::commitment(),
        }
    }

    /// Sets the one-line human summary.
    #[must_use]
    pub fn summary(mut self, summary: impl Into<String>) -> Self {
        self.summary = summary.into();
        self
    }

    /// Overrides the convergence rule.
    #[must_use]
    pub fn rule(mut self, rule: ConvergenceRule) -> Self {
        self.rule = rule;
        self
    }

    /// Overrides the convergence round budget.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Overrides the base seed (trial seeds derive from it).
    #[must_use]
    pub fn base_seed_value(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets the observation-noise model (exact by default).
    #[must_use]
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Marks the scenario as one that must *not* converge within its
    /// budget (e.g. an all-crash colony).
    #[must_use]
    pub fn expect_no_convergence(mut self) -> Self {
        self.expect_convergence = false;
        self
    }

    /// Sets the intra-round thread count every simulation this scenario
    /// builds runs with (default 1, the serial engine). Outcomes are
    /// bit-identical for every setting — see
    /// [`Simulation::with_round_threads`] — so this is purely a
    /// performance knob; the oracle-equivalence suite holds the whole
    /// catalog to that contract.
    ///
    /// **Perturbed scenarios ignore this setting at execution time**:
    /// crash/delay rounds always run on the serial scalar path, so the
    /// setting is remembered but inert — bit-identical to the serial run
    /// by construction (pinned by
    /// `perturbed_round_threads_is_bit_identical_to_serial`).
    #[must_use]
    pub fn round_threads(mut self, threads: usize) -> Self {
        self.round_threads = threads;
        self
    }

    /// Selects the round engine every simulation this scenario builds
    /// runs with (default [`EngineKind::Fused`]). The scalar engine is the
    /// distribution-identity oracle — outcomes are bit-identical to the
    /// fused engine's for equal seeds, and `tests/oracle_equivalence.rs`
    /// holds the whole catalog to that contract.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The configured round engine.
    #[must_use]
    pub fn engine_kind(&self) -> EngineKind {
        self.engine
    }

    /// The scenario's registry name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The one-line human summary.
    #[must_use]
    pub fn summary_text(&self) -> &str {
        &self.summary
    }

    /// Colony size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of candidate nests `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.profile.k()
    }

    /// The quality axis.
    #[must_use]
    pub fn profile(&self) -> &QualitySpec {
        &self.profile
    }

    /// The fault axis.
    #[must_use]
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// The colony-mix axis.
    #[must_use]
    pub fn mix(&self) -> &ColonyMix {
        &self.mix
    }

    /// The success rule.
    #[must_use]
    pub fn convergence_rule(&self) -> ConvergenceRule {
        self.rule
    }

    /// The convergence round budget.
    #[must_use]
    pub fn round_budget(&self) -> u64 {
        self.max_rounds
    }

    /// The base seed from which trial seeds derive.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Whether the scenario is expected to converge within its budget
    /// (under its base seed).
    #[must_use]
    pub fn expects_convergence(&self) -> bool {
        self.expect_convergence
    }

    /// The catalog tags, derived from the axes: size band, quality
    /// profile, fault schedule, colony mix — always exactly four.
    #[must_use]
    pub fn tags(&self) -> [Tag; 4] {
        let size = match self.n {
            n if n < 64 => Tag::Tiny,
            n if n < 256 => Tag::Small,
            n if n < 1024 => Tag::Medium,
            _ => Tag::Large,
        };
        let quality = match self.profile {
            QualitySpec::AllGood { .. } => Tag::AllGood,
            QualitySpec::GoodPrefix { .. } => Tag::GoodPrefix,
            QualitySpec::SingleGood { .. } => Tag::SingleGood,
            QualitySpec::AdversarialTie { .. } => Tag::Tie,
            QualitySpec::Explicit(_) => Tag::NonBinary,
        };
        let fault = match self.faults {
            FaultSchedule::None => Tag::Clean,
            FaultSchedule::Crash { .. } => Tag::Crash,
            FaultSchedule::Delay { .. } => Tag::Delay,
            FaultSchedule::Mixed { .. } => Tag::MixedFaults,
        };
        let mix = match self.mix {
            ColonyMix::Uniform(_) => Tag::Uniform,
            ColonyMix::IdleFraction { .. } => Tag::Idle,
            ColonyMix::Byzantine { .. } => Tag::Byzantine,
            ColonyMix::Heterogeneous { .. } => Tag::Hetero,
        };
        [size, quality, fault, mix]
    }

    /// The seed for trial `trial` of this scenario.
    #[must_use]
    pub fn trial_seed(&self, trial: usize) -> u64 {
        derive_seed(self.base_seed, StreamKind::Auxiliary, trial as u64)
    }

    /// Materializes the declarative spec for one trial seed.
    #[must_use]
    pub fn spec_for(&self, seed: u64) -> ScenarioSpec {
        let mut config = ColonyConfig::new(self.n, self.profile.clone())
            .seed(seed)
            .noise(self.noise);
        if self.profile.is_non_binary() || self.mix.needs_quality_on_go() {
            config = config.reveal_quality_on_go();
        }
        if matches!(self.profile, QualitySpec::Explicit(_)) {
            // Explicit habitats may legitimately contain no binary-good
            // nest; the registry does not second-guess them.
            config = config.allow_no_good();
        }
        let mut spec = ScenarioSpec::from_config(config);
        if let Some(perturbations) = self.faults.perturbations(self.n, seed) {
            spec = spec.perturbations(perturbations);
        }
        spec
    }

    /// Builds the colony for one trial seed.
    ///
    /// # Panics
    ///
    /// Panics if the mix runs an [`Algorithm::Quality`] whose `gamma` is
    /// negative, NaN or infinite ([`ColonyMix::build`]); it skips the axis
    /// checks of [`build`](Self::build), which returns
    /// [`SimError::InvalidScenario`] instead. Also panics where
    /// [`ColonyMix::build`] does on `n > u32::MAX`.
    #[must_use]
    pub fn colony_for(&self, seed: u64) -> Colony {
        self.mix.build(self.n, seed)
    }

    /// Builds a ready-to-run simulation for one trial seed.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidScenario`] if an axis value is out of range:
    /// an `AdversarialTie` with fewer than two nests, a good nest outside
    /// `1..=k`, a fraction or probability that is not a number in
    /// `[0, 1]`, more Byzantine adversaries than ants, or an
    /// [`Algorithm::Quality`] exponent that is negative or not finite.
    /// Otherwise propagates configuration validation failures.
    ///
    /// # Panics
    ///
    /// Panics where [`colony_for`](Self::colony_for) does on
    /// `n > u32::MAX`.
    pub fn build(&self, seed: u64) -> Result<Simulation, SimError> {
        self.check_axes()?;
        Ok(self
            .spec_for(seed)
            .build_simulation(self.colony_for(seed))?
            .with_engine(self.engine)
            .with_round_threads(self.round_threads))
    }

    /// Rejects the out-of-range axis values listed under
    /// [`build`](Self::build) before anything is built.
    fn check_axes(&self) -> Result<(), SimError> {
        let invalid = |axis, reason| Err(SimError::InvalidScenario { axis, reason });
        let unit = |value: f64| (0.0..=1.0).contains(&value);
        match self.profile {
            QualitySpec::AdversarialTie { k } if k < 2 => {
                return invalid("profile", "an adversarial tie needs at least two nests");
            }
            QualitySpec::GoodPrefix { k, good } if !(1..=k).contains(&good) => {
                return invalid("profile", "a good prefix must hold between 1 and k nests");
            }
            QualitySpec::SingleGood { k, good } if !(1..=k).contains(&good) => {
                return invalid("profile", "the single good nest must be one of nests 1..=k");
            }
            _ => {}
        }
        let faults_in_range = match self.faults {
            FaultSchedule::None => true,
            FaultSchedule::Crash { fraction, .. } => unit(fraction),
            FaultSchedule::Delay { probability } => unit(probability),
            FaultSchedule::Mixed {
                crash_fraction,
                delay_probability,
                ..
            } => unit(crash_fraction) && unit(delay_probability),
        };
        if !faults_in_range {
            return invalid(
                "faults",
                "crash fractions and delay probabilities must be in [0, 1]",
            );
        }
        // `QualityAnt::new` panics on any other exponent.
        let gamma_ok = |algorithm: &Algorithm| match algorithm {
            Algorithm::Quality { gamma } => gamma.is_finite() && *gamma >= 0.0,
            _ => true,
        };
        let gammas_ok = match &self.mix {
            ColonyMix::Heterogeneous { a, b, .. } => gamma_ok(a) && gamma_ok(b),
            mix => gamma_ok(mix.primary_algorithm()),
        };
        if !gammas_ok {
            return invalid(
                "mix",
                "a quality exponent gamma must be finite and non-negative",
            );
        }
        match self.mix {
            ColonyMix::IdleFraction { idle: fraction, .. }
            | ColonyMix::Heterogeneous {
                fraction_b: fraction,
                ..
            } if !unit(fraction) => invalid("mix", "colony fractions must be in [0, 1]"),
            ColonyMix::Byzantine { adversaries, .. } if adversaries > self.n => {
                invalid("mix", "more Byzantine adversaries than ants")
            }
            _ => Ok(()),
        }
    }

    /// Builds and runs one trial to the scenario's rule and budget.
    ///
    /// # Errors
    ///
    /// Propagates build and execution failures.
    ///
    /// # Panics
    ///
    /// Panics where [`build`](Self::build) and
    /// [`Simulation::run_to_convergence`] do.
    pub fn run(&self, seed: u64) -> Result<RunOutcome, SimError> {
        self.build(seed)?
            .run_to_convergence(self.rule, self.max_rounds)
    }

    /// Runs `trials` independent trials (seeds derived per trial) on the
    /// trial runner's default worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first build or execution failure.
    ///
    /// # Panics
    ///
    /// Panics where [`crate::run_trials_with_workers`] does.
    pub fn run_trials(&self, trials: usize) -> Result<Vec<TrialOutcome>, SimError> {
        crate::runner::run_trials(trials, self.max_rounds, self.rule, |trial| {
            self.build(self.trial_seed(trial))
        })
    }

    /// Runs `trials` independent trials on an explicit worker count —
    /// outcomes are bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first build or execution failure.
    ///
    /// # Panics
    ///
    /// Panics where [`crate::run_trials_with_workers`] does.
    pub fn run_trials_with_workers(
        &self,
        trials: usize,
        workers: usize,
    ) -> Result<Vec<TrialOutcome>, SimError> {
        run_trials_with_workers(trials, self.max_rounds, self.rule, workers, |trial| {
            self.build(self.trial_seed(trial))
        })
    }
}

/// Hashes a scenario name into a stable base seed (FNV-1a folded through
/// the model's seed derivation).
fn name_seed(name: &str) -> u64 {
    let h = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    derive_seed(h, StreamKind::Auxiliary, 0)
}

/// The full named catalog, spanning colony sizes 16–4096, all four
/// quality profiles, all four fault schedules, and all four colony mixes.
#[must_use]
pub fn all_scenarios() -> Vec<Scenario> {
    use Algorithm::{Adaptive, Optimal, Simple};
    vec![
        Scenario::custom(
            "baseline-16",
            16,
            QualitySpec::GoodPrefix { k: 2, good: 1 },
            FaultSchedule::None,
            ColonyMix::Uniform(Simple),
        )
        .summary("the smallest healthy colony: 16 simple ants, one good nest of two")
        .max_rounds(6_000),
        Scenario::custom(
            "baseline-128",
            128,
            QualitySpec::GoodPrefix { k: 6, good: 2 },
            FaultSchedule::None,
            ColonyMix::Uniform(Simple),
        )
        .summary("the quickstart habitat: 128 simple ants, 6 nests, 2 good")
        .max_rounds(20_000),
        Scenario::custom(
            "all-good-race-256",
            256,
            QualitySpec::AllGood { k: 4 },
            FaultSchedule::None,
            ColonyMix::Uniform(Simple),
        )
        .summary("pure symmetry breaking: every nest good, the colony must just agree")
        .max_rounds(30_000),
        Scenario::custom(
            "single-good-needle-128",
            128,
            QualitySpec::SingleGood { k: 8, good: 5 },
            FaultSchedule::None,
            ColonyMix::Uniform(Simple),
        )
        .summary("the Section 3 lower-bound habitat: one good nest hidden among 8")
        .max_rounds(40_000),
        Scenario::custom(
            "optimal-1024",
            1024,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::None,
            ColonyMix::Uniform(Optimal),
        )
        .summary("the O(log n) algorithm at scale, run to its all-final termination point")
        .rule(ConvergenceRule::all_final())
        .max_rounds(20_000),
        Scenario::custom(
            "mega-colony-4096",
            4096,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::None,
            ColonyMix::Uniform(Optimal),
        )
        .summary("the largest catalog colony: 4096 ants under the optimal algorithm")
        .rule(ConvergenceRule::all_final())
        .max_rounds(20_000),
        Scenario::custom(
            "adaptive-many-nests-512",
            512,
            QualitySpec::AllGood { k: 16 },
            FaultSchedule::None,
            ColonyMix::Uniform(Adaptive),
        )
        .summary("the adaptive-rate variant where it shines: many competing nests")
        .max_rounds(60_000),
        Scenario::custom(
            "quality-tie-128",
            128,
            QualitySpec::AdversarialTie { k: 4 },
            FaultSchedule::None,
            ColonyMix::Uniform(Algorithm::Quality { gamma: 2.0 }),
        )
        .summary("non-binary qualities: two 0.9 rivals and two 0.45 decoys")
        .max_rounds(40_000),
        Scenario::custom(
            "spreader-rumor-512",
            512,
            QualitySpec::SingleGood { k: 4, good: 2 },
            FaultSchedule::None,
            ColonyMix::Uniform(Algorithm::Spreader {
                strategy: SpreadStrategy::WaitAtHome,
            }),
        )
        .summary("the Section 3 rumor-spreading process: 512 wait-at-home spreaders")
        .rule(ConvergenceRule::all_final())
        .max_rounds(20_000),
        Scenario::custom(
            "crash-quarter-128",
            128,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::Crash {
                fraction: 0.25,
                round: 10,
                style: CrashStyle::InPlace,
            },
            ColonyMix::Uniform(Simple),
        )
        .summary("a quarter of the colony crash-stops in place at round 10")
        .max_rounds(30_000),
        Scenario::custom(
            "crash-at-home-64",
            64,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::Crash {
                fraction: 0.15,
                round: 8,
                style: CrashStyle::AtHome,
            },
            ColonyMix::Uniform(Simple),
        )
        .summary("crashed ants walk home and idle there (the transportable crash style)")
        .max_rounds(30_000),
        Scenario::custom(
            "delay-light-128",
            128,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::Delay { probability: 0.10 },
            ColonyMix::Uniform(Simple),
        )
        .summary("partial asynchrony: every (ant, round) step delayed with p = 0.1")
        .max_rounds(40_000),
        Scenario::custom(
            "mixed-faults-128",
            128,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::Mixed {
                crash_fraction: 0.10,
                crash_round: 10,
                delay_probability: 0.05,
            },
            ColonyMix::Uniform(Simple),
        )
        .summary("crashes and delays at once, both in survivable doses")
        .max_rounds(40_000),
        Scenario::custom(
            "idle-quarter-128",
            128,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::None,
            ColonyMix::IdleFraction {
                algorithm: Simple,
                idle: 0.25,
            },
        )
        .summary("a quarter of the colony idles and is carried (Afek–Gordon–Sulamy)")
        .max_rounds(40_000),
        Scenario::custom(
            "idle-third-256",
            256,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::None,
            ColonyMix::IdleFraction {
                algorithm: Simple,
                idle: 0.30,
            },
        )
        .summary("the low end of Afek–Gordon–Sulamy's studied idle range: 30% carried")
        .max_rounds(60_000),
        Scenario::custom(
            "idle-half-256",
            256,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::None,
            ColonyMix::IdleFraction {
                algorithm: Simple,
                idle: 0.50,
            },
        )
        .summary("half the colony idles; the working half must carry everyone")
        .max_rounds(80_000),
        Scenario::custom(
            "idle-seventy-256",
            256,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::None,
            ColonyMix::IdleFraction {
                algorithm: Simple,
                idle: 0.70,
            },
        )
        .summary("the high end of the Afek–Gordon–Sulamy range: a 30% working minority")
        .rule(ConvergenceRule::quorum(0.6, 8))
        .max_rounds(100_000),
        Scenario::custom(
            "byzantine-handful-96",
            96,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            FaultSchedule::None,
            ColonyMix::Byzantine {
                algorithm: Simple,
                adversaries: 4,
            },
        )
        .summary("four bad-nest recruiters against an honest simple colony")
        .max_rounds(30_000),
        Scenario::custom(
            "hetero-simple-adaptive-256",
            256,
            QualitySpec::AllGood { k: 8 },
            FaultSchedule::None,
            ColonyMix::Heterogeneous {
                a: Simple,
                b: Adaptive,
                fraction_b: 0.5,
            },
        )
        .summary("half simple, half adaptive: mixed recruitment rates must still agree")
        .max_rounds(60_000),
        Scenario::custom(
            "all-crash-collapse-32",
            32,
            QualitySpec::GoodPrefix { k: 2, good: 1 },
            FaultSchedule::Crash {
                fraction: 1.0,
                round: 1,
                style: CrashStyle::InPlace,
            },
            ColonyMix::Uniform(Simple),
        )
        .summary("the degenerate bound: everyone crashes at round 1, nothing can converge")
        .max_rounds(300)
        .expect_no_convergence(),
    ]
}

/// Looks a catalog scenario up by name.
#[must_use]
pub fn lookup(name: &str) -> Option<Scenario> {
    all_scenarios().into_iter().find(|s| s.name() == name)
}

/// All catalog scenarios carrying `tag`.
#[must_use]
pub fn with_tag(tag: Tag) -> Vec<Scenario> {
    all_scenarios()
        .into_iter()
        .filter(|s| s.tags().contains(&tag))
        .collect()
}

/// The catalog's scenario names, in registry order.
#[must_use]
pub fn names() -> Vec<String> {
    all_scenarios()
        .into_iter()
        .map(|s| s.name().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_core::Agent;

    #[test]
    fn catalog_is_large_and_uniquely_named() {
        let scenarios = all_scenarios();
        assert!(scenarios.len() >= 12, "catalog has {}", scenarios.len());
        let mut names: Vec<_> = scenarios.iter().map(Scenario::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
    }

    #[test]
    fn catalog_spans_all_three_axes() {
        let scenarios = all_scenarios();
        let has = |tag: Tag| scenarios.iter().any(|s| s.tags().contains(&tag));
        // Quality axis.
        assert!(has(Tag::AllGood) && has(Tag::GoodPrefix) && has(Tag::SingleGood) && has(Tag::Tie));
        // Fault axis.
        assert!(has(Tag::Clean) && has(Tag::Crash) && has(Tag::Delay) && has(Tag::MixedFaults));
        // Mix axis.
        assert!(has(Tag::Uniform) && has(Tag::Idle) && has(Tag::Byzantine) && has(Tag::Hetero));
        // Size bands from 16 to 4096.
        assert!(has(Tag::Tiny) && has(Tag::Large));
        let ns: Vec<_> = scenarios.iter().map(Scenario::n).collect();
        assert!(ns.contains(&16) && ns.contains(&4096));
    }

    #[test]
    fn lookup_and_tag_filtering() {
        let s = lookup("baseline-16").expect("registered");
        assert_eq!(s.n(), 16);
        assert_eq!(s.k(), 2);
        assert!(lookup("no-such-scenario").is_none());
        let crashes = with_tag(Tag::Crash);
        assert!(crashes.iter().all(|s| s.tags().contains(&Tag::Crash)));
        assert!(!crashes.is_empty());
        assert_eq!(names().len(), all_scenarios().len());
    }

    #[test]
    fn default_rules_follow_axes() {
        let clean = Scenario::custom(
            "t-clean",
            32,
            QualitySpec::AllGood { k: 2 },
            FaultSchedule::None,
            ColonyMix::Uniform(Algorithm::Simple),
        );
        assert_eq!(clean.convergence_rule(), ConvergenceRule::commitment());
        let faulty = Scenario::custom(
            "t-faulty",
            32,
            QualitySpec::AllGood { k: 2 },
            FaultSchedule::Delay { probability: 0.1 },
            ColonyMix::Uniform(Algorithm::Simple),
        );
        assert_eq!(
            faulty.convergence_rule(),
            ConvergenceRule::stable_commitment(8)
        );
        let byz = Scenario::custom(
            "t-byz",
            32,
            QualitySpec::AllGood { k: 2 },
            FaultSchedule::None,
            ColonyMix::Byzantine {
                algorithm: Algorithm::Simple,
                adversaries: 2,
            },
        );
        assert_eq!(byz.convergence_rule(), ConvergenceRule::quorum(0.9, 8));
    }

    #[test]
    fn spec_and_colony_are_deterministic_per_seed() {
        let s = lookup("crash-quarter-128").expect("registered");
        assert_eq!(s.spec_for(5).config(), s.spec_for(5).config());
        let a = s.colony_for(5);
        let b = s.colony_for(5);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.label() == y.label() && x.is_honest() == y.is_honest()));
    }

    #[test]
    fn mixes_build_the_advertised_composition() {
        let idle = ColonyMix::IdleFraction {
            algorithm: Algorithm::Simple,
            idle: 0.25,
        }
        .build(16, 3);
        assert_eq!(idle.iter().filter(|a| a.label() == "idler").count(), 4);
        let byz = ColonyMix::Byzantine {
            algorithm: Algorithm::Simple,
            adversaries: 3,
        }
        .build(16, 3);
        assert_eq!(byz.iter().filter(|a| !a.is_honest()).count(), 3);
        let hetero = ColonyMix::Heterogeneous {
            a: Algorithm::Simple,
            b: Algorithm::Adaptive,
            fraction_b: 0.5,
        }
        .build(16, 3);
        assert_eq!(hetero.iter().filter(|a| a.label() == "simple").count(), 8);
        assert_eq!(hetero.iter().filter(|a| a.label() == "adaptive").count(), 8);
    }

    #[test]
    fn share_never_consumes_the_whole_colony_below_one() {
        assert_eq!(share(4, 0.0), 0);
        assert_eq!(share(4, 0.5), 2);
        assert_eq!(share(4, 0.99), 3, "clamped below n");
        assert_eq!(share(4, 1.0), 4);
        assert_eq!(share(64, f64::NAN), 0, "NaN plants nobody");
    }

    #[test]
    fn adversarial_tie_below_two_nests_is_an_error_not_a_panic() {
        let expected = SimError::InvalidScenario {
            axis: "profile",
            reason: "an adversarial tie needs at least two nests",
        };
        for k in [0, 1] {
            let scenario = Scenario::custom(
                format!("tie-{k}"),
                32,
                QualitySpec::AdversarialTie { k },
                FaultSchedule::None,
                ColonyMix::Uniform(Algorithm::Simple),
            );
            // The spec itself materializes nothing, so it cannot panic.
            let spec = scenario.spec_for(1);
            assert_eq!(spec.config().qualities(), scenario.profile(), "k = {k}");
            assert_eq!(scenario.build(1).err(), Some(expected.clone()), "k = {k}");
            assert_eq!(scenario.run(1).err(), Some(expected.clone()), "k = {k}");
            assert_eq!(
                scenario.run_trials_with_workers(3, 2).err(),
                Some(expected.clone()),
                "k = {k}"
            );
        }
    }

    #[test]
    fn hostile_axis_values_are_errors_not_silent_runs() {
        use Algorithm::Simple;
        let prefix = |k, good| QualitySpec::GoodPrefix { k, good };
        let single = |k, good| QualitySpec::SingleGood { k, good };
        let delay = |probability| FaultSchedule::Delay { probability };
        let crash = |fraction| FaultSchedule::Crash {
            fraction,
            round: 3,
            style: CrashStyle::InPlace,
        };
        let mixed = |crash_fraction, delay_probability| FaultSchedule::Mixed {
            crash_fraction,
            crash_round: 3,
            delay_probability,
        };
        let idle = |idle| ColonyMix::IdleFraction {
            algorithm: Simple,
            idle,
        };
        let hetero = |fraction_b| ColonyMix::Heterogeneous {
            a: Simple,
            b: Algorithm::Adaptive,
            fraction_b,
        };
        let byzantine = |adversaries| ColonyMix::Byzantine {
            algorithm: Simple,
            adversaries,
        };
        let scenario = |profile, faults, mix| Scenario::custom("hostile", 16, profile, faults, mix);
        let uniform = || ColonyMix::Uniform(Simple);
        let quality = |gamma| Algorithm::Quality { gamma };
        // Every place an algorithm sits in a mix, with `algorithm` there.
        let mixes_of = |algorithm: Algorithm| {
            [
                ColonyMix::Uniform(algorithm.clone()),
                ColonyMix::IdleFraction {
                    algorithm: algorithm.clone(),
                    idle: 0.25,
                },
                ColonyMix::Byzantine {
                    algorithm: algorithm.clone(),
                    adversaries: 2,
                },
                ColonyMix::Heterogeneous {
                    a: algorithm.clone(),
                    b: Simple,
                    fraction_b: 0.5,
                },
                ColonyMix::Heterogeneous {
                    a: Simple,
                    b: algorithm,
                    fraction_b: 0.5,
                },
            ]
        };

        let profiles = [prefix(2, 5), prefix(4, 0), single(3, 4), single(3, 0)];
        let faults = [
            delay(f64::NAN),
            delay(-0.5),
            crash(1.5),
            crash(f64::NAN),
            mixed(0.1, f64::NEG_INFINITY),
            mixed(f64::NAN, 0.05),
        ];
        let mixes = [
            idle(f64::NAN),
            idle(-0.1),
            idle(1.5),
            hetero(f64::NAN),
            hetero(f64::INFINITY),
            byzantine(40),
        ];
        let mut cases = Vec::new();
        cases.extend(profiles.map(|p| (scenario(p, FaultSchedule::None, uniform()), "profile")));
        cases.extend(faults.map(|f| (scenario(prefix(4, 2), f, uniform()), "faults")));
        cases.extend(mixes.map(|m| (scenario(prefix(4, 2), FaultSchedule::None, m), "mix")));
        for gamma in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            cases.extend(
                mixes_of(quality(gamma))
                    .map(|m| (scenario(prefix(4, 2), FaultSchedule::None, m), "mix")),
            );
        }
        for (scenario, axis) in cases {
            let label = format!(
                "{:?} / {:?} / {:?}",
                scenario.profile(),
                scenario.faults(),
                scenario.mix()
            );
            let build = scenario.build(1).err();
            let run = scenario.run(1).err();
            let trials = scenario.run_trials_with_workers(3, 2).err();
            for (entry, err) in [("build", build), ("run", run), ("run_trials", trials)] {
                let rejected_on = match err {
                    Some(SimError::InvalidScenario { axis, .. }) => Some(axis),
                    _ => None,
                };
                assert_eq!(rejected_on, Some(axis), "{label}: {entry}");
            }
        }

        // The ends of every range stay valid.
        for valid in [
            scenario(single(3, 3), crash(1.0), idle(0.0)),
            scenario(prefix(3, 3), mixed(0.0, 1.0), hetero(1.0)),
            scenario(prefix(3, 1), delay(0.0), byzantine(16)),
        ] {
            assert!(valid.build(1).is_ok(), "{:?}", valid.faults());
        }
        for gamma in [0.0, 2.0] {
            for mix in mixes_of(quality(gamma)) {
                let valid = scenario(prefix(4, 2), FaultSchedule::None, mix);
                assert!(valid.run(1).is_ok(), "{:?}", valid.mix());
            }
        }
    }

    #[test]
    #[should_panic(expected = "quality exponent")]
    fn algorithm_build_panics_on_a_nan_gamma() {
        let _ = Algorithm::Quality { gamma: f64::NAN }.build(8, 1);
    }

    #[test]
    #[should_panic(expected = "quality exponent")]
    fn colony_mix_build_panics_on_a_nan_gamma() {
        let _ = ColonyMix::Uniform(Algorithm::Quality { gamma: f64::NAN }).build(8, 1);
    }

    #[test]
    #[should_panic(expected = "quality exponent")]
    fn colony_for_panics_on_a_nan_gamma() {
        let scenario = Scenario::custom(
            "nan-gamma",
            8,
            QualitySpec::GoodPrefix { k: 2, good: 1 },
            FaultSchedule::None,
            ColonyMix::Uniform(Algorithm::Quality { gamma: f64::NAN }),
        );
        let _ = scenario.colony_for(1);
    }

    #[test]
    fn adversarial_tie_materializes_two_rivals() {
        let qualities = QualitySpec::AdversarialTie { k: 4 }.materialize().unwrap();
        assert_eq!(qualities.iter().filter(|q| q.is_good()).count(), 2);
        assert!(qualities[0].is_good() && qualities[1].is_good());
        assert!(!qualities[2].is_good() && !qualities[3].is_good());
    }

    #[test]
    fn quality_profile_is_the_model_quality_spec() {
        let axes = |profile| {
            Scenario::custom(
                "alias",
                16,
                profile,
                FaultSchedule::None,
                ColonyMix::Uniform(Algorithm::Simple),
            )
        };
        assert_eq!(
            axes(crate::registry::QualityProfile::GoodPrefix { k: 4, good: 2 }),
            axes(QualitySpec::GoodPrefix { k: 4, good: 2 })
        );
    }

    #[test]
    fn baseline_runs_and_solves() {
        let s = lookup("baseline-16").expect("registered");
        let outcome = s.run(s.base_seed()).unwrap();
        assert!(outcome.solved.is_some());
    }

    #[test]
    fn name_seeds_differ_across_names() {
        assert_ne!(name_seed("baseline-16"), name_seed("baseline-128"));
        assert_eq!(name_seed("x"), name_seed("x"));
    }
}
