//! Scenario specification: one-stop construction of perturbed
//! simulations.
//!
//! [`ScenarioSpec`] bundles an environment configuration with fault and
//! asynchrony plans and builds ready-to-run [`Simulation`]s. Experiments
//! describe *what* to run with a spec, then stamp out per-trial instances
//! by varying the seed.

use hh_core::Colony;
use hh_model::{ColonyConfig, Environment, NoiseModel, QualitySpec};

use crate::error::SimError;
use crate::executor::{Perturbations, Simulation};

/// A declarative description of one experimental setup.
///
/// # Examples
///
/// ```
/// use hh_core::colony;
/// use hh_sim::{ConvergenceRule, ScenarioSpec};
/// use hh_model::QualitySpec;
///
/// let spec = ScenarioSpec::new(32, QualitySpec::good_prefix(4, 2)).seed(11);
/// let mut sim = spec.build_simulation(colony::optimal(32))?;
/// let outcome = sim.run_to_convergence(ConvergenceRule::all_final(), 2_000)?;
/// assert!(outcome.solved.is_some());
/// # Ok::<(), hh_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    config: ColonyConfig,
    perturbations: Option<Perturbations>,
}

impl ScenarioSpec {
    /// A scenario for `n` ants and the given nest qualities, unperturbed,
    /// exact observations, seed 0.
    #[must_use]
    pub fn new(n: usize, qualities: QualitySpec) -> Self {
        Self {
            config: ColonyConfig::new(n, qualities),
            perturbations: None,
        }
    }

    /// Wraps an existing environment configuration.
    #[must_use]
    pub fn from_config(config: ColonyConfig) -> Self {
        Self {
            config,
            perturbations: None,
        }
    }

    /// Sets the base seed (environment, noise, and perturbation streams
    /// all derive from it).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.seed(seed);
        self
    }

    /// Sets the observation-noise model.
    #[must_use]
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.config = self.config.noise(noise);
        self
    }

    /// Enables the "assessing go" extension (quality revealed on `go`).
    #[must_use]
    pub fn reveal_quality_on_go(mut self) -> Self {
        self.config = self.config.reveal_quality_on_go();
        self
    }

    /// Installs fault/asynchrony plans.
    #[must_use]
    pub fn perturbations(mut self, perturbations: Perturbations) -> Self {
        self.perturbations = Some(perturbations);
        self
    }

    /// The underlying environment configuration.
    #[must_use]
    pub fn config(&self) -> &ColonyConfig {
        &self.config
    }

    /// Builds the environment alone.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn build_environment(&self) -> Result<Environment, SimError> {
        Ok(Environment::new(&self.config)?)
    }

    /// Builds a simulation over a freshly constructed environment.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures and agent-count
    /// mismatches.
    pub fn build_simulation(&self, agents: impl Into<Colony>) -> Result<Simulation, SimError> {
        let env = self.build_environment()?;
        Simulation::with_perturbations(env, agents, self.perturbations.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::ConvergenceRule;
    use hh_core::colony;
    use hh_model::faults::{CrashPlan, CrashStyle, DelayPlan};
    use hh_model::ModelError;

    #[test]
    fn builds_and_runs() {
        let spec = ScenarioSpec::new(16, QualitySpec::all_good(2)).seed(1);
        let mut sim = spec.build_simulation(colony::simple(16, 1)).unwrap();
        let outcome = sim
            .run_to_convergence(ConvergenceRule::commitment(), 3_000)
            .unwrap();
        assert!(outcome.solved.is_some());
    }

    #[test]
    fn invalid_configs_error() {
        let spec = ScenarioSpec::new(0, QualitySpec::all_good(2));
        assert_eq!(
            spec.build_environment().unwrap_err(),
            SimError::Model(ModelError::EmptyColony)
        );
    }

    #[test]
    fn perturbations_are_installed() {
        let n = 16;
        let spec = ScenarioSpec::new(n, QualitySpec::all_good(2))
            .seed(2)
            .perturbations(Perturbations {
                crash: CrashPlan::fraction(n, 0.5, 1, CrashStyle::InPlace, 2),
                delay: DelayPlan::never(),
            });
        let mut sim = spec.build_simulation(colony::simple(n, 2)).unwrap();
        for _ in 0..4 {
            sim.step().unwrap();
        }
        assert_eq!(sim.replaced_actions(), 32, "8 crashed ants × 4 rounds");
    }

    #[test]
    fn crash_plans_for_another_colony_size_are_rejected() {
        let n = 10;
        let spec = |crash: CrashPlan| {
            ScenarioSpec::new(n, QualitySpec::all_good(2))
                .seed(4)
                .perturbations(Perturbations {
                    crash,
                    delay: DelayPlan::new(0.1, 1),
                })
        };
        for crash in [
            CrashPlan::fraction(n - 1, 0.2, 3, CrashStyle::InPlace, 4),
            CrashPlan::fraction(n + 1, 0.2, 3, CrashStyle::InPlace, 4),
            CrashPlan::none(5),
        ] {
            let plan = crash.len();
            assert_eq!(
                spec(crash)
                    .build_simulation(colony::simple(n, 4))
                    .unwrap_err(),
                SimError::PlanSizeMismatch { plan, n }
            );
        }
        let mut sim = spec(CrashPlan::fraction(n, 0.2, 3, CrashStyle::InPlace, 4))
            .build_simulation(colony::simple(n, 4))
            .unwrap();
        sim.step().unwrap();
    }

    #[test]
    fn spec_is_reusable_across_trials() {
        let spec = ScenarioSpec::new(8, QualitySpec::all_good(1)).seed(3);
        let a = spec.build_simulation(colony::simple(8, 3)).unwrap();
        let b = spec.build_simulation(colony::simple(8, 3)).unwrap();
        assert_eq!(a.round(), b.round());
        assert_eq!(spec.config().n(), 8);
    }
}
