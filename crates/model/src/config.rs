//! Environment configuration.
//!
//! A [`ColonyConfig`] describes one house-hunting instance: the colony size
//! `n`, the candidate-nest qualities, the observation-noise model, and the
//! base seed from which every random stream of the execution is derived.
//!
//! # Examples
//!
//! ```
//! use hh_model::{ColonyConfig, Environment, QualitySpec};
//!
//! // 100 ants, 8 candidate nests of which nests 1..=4 are good.
//! let config = ColonyConfig::new(100, QualitySpec::good_prefix(8, 4))
//!     .seed(42);
//! let env = Environment::new(&config)?;
//! assert_eq!(env.n(), 100);
//! assert_eq!(env.k(), 8);
//! # Ok::<(), hh_model::ModelError>(())
//! ```

use crate::error::ModelError;
use crate::nest::Quality;
use crate::noise::NoiseModel;

/// A declarative description of the `k` candidate-nest qualities.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QualitySpec {
    /// All `k` nests are good (`q = 1`).
    AllGood {
        /// Number of candidate nests.
        k: usize,
    },
    /// Exactly one good nest among `k`; the rest are bad. `good` is the
    /// 1-based index of the good nest. This is the lower-bound setting of
    /// Section 3.
    SingleGood {
        /// Number of candidate nests.
        k: usize,
        /// 1-based index of the unique good nest.
        good: usize,
    },
    /// The first `good` nests (1-based indices `1..=good`) are good, the
    /// remaining `k − good` are bad. Placement is immaterial because
    /// `search()` is uniform over nests.
    GoodPrefix {
        /// Number of candidate nests.
        k: usize,
        /// Number of good nests.
        good: usize,
    },
    /// Explicit per-nest qualities, index 0 ↦ nest `n₁`.
    Explicit(Vec<Quality>),
}

impl QualitySpec {
    /// All `k` nests good.
    #[must_use]
    pub fn all_good(k: usize) -> Self {
        QualitySpec::AllGood { k }
    }

    /// One good nest (1-based index `good`) among `k`.
    #[must_use]
    pub fn single_good(k: usize, good: usize) -> Self {
        QualitySpec::SingleGood { k, good }
    }

    /// The first `good` of `k` nests good, the rest bad.
    #[must_use]
    pub fn good_prefix(k: usize, good: usize) -> Self {
        QualitySpec::GoodPrefix { k, good }
    }

    /// Materializes the per-nest quality vector (index 0 ↦ nest `n₁`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoCandidateNests`] for `k = 0` and
    /// [`ModelError::UnknownNest`]-free variants validate their own
    /// parameters: a `SingleGood` index outside `1..=k` or a `GoodPrefix`
    /// count above `k` yields [`ModelError::NoGoodNest`].
    pub fn materialize(&self) -> Result<Vec<Quality>, ModelError> {
        let qualities = match self {
            QualitySpec::AllGood { k } => vec![Quality::GOOD; *k],
            QualitySpec::SingleGood { k, good } => {
                if *good == 0 || *good > *k {
                    return Err(ModelError::NoGoodNest);
                }
                let mut q = vec![Quality::BAD; *k];
                q[*good - 1] = Quality::GOOD;
                q
            }
            QualitySpec::GoodPrefix { k, good } => {
                if *good > *k {
                    return Err(ModelError::NoGoodNest);
                }
                let mut q = vec![Quality::BAD; *k];
                for slot in q.iter_mut().take(*good) {
                    *slot = Quality::GOOD;
                }
                q
            }
            QualitySpec::Explicit(q) => q.clone(),
        };
        if qualities.is_empty() {
            return Err(ModelError::NoCandidateNests);
        }
        Ok(qualities)
    }
}

/// Configuration of one house-hunting environment instance.
///
/// Construct with [`ColonyConfig::new`] and chain the optional setters
/// (consuming-builder style).
#[derive(Debug, Clone, PartialEq)]
pub struct ColonyConfig {
    n: usize,
    qualities: QualitySpec,
    noise: NoiseModel,
    allow_no_good: bool,
    reveal_quality_on_go: bool,
    seed: u64,
}

impl ColonyConfig {
    /// Creates a configuration for `n` ants and the given nest qualities,
    /// with exact observations and seed 0.
    #[must_use]
    pub fn new(n: usize, qualities: QualitySpec) -> Self {
        Self {
            n,
            qualities,
            noise: NoiseModel::exact(),
            allow_no_good: false,
            reveal_quality_on_go: false,
            seed: 0,
        }
    }

    /// Sets the base seed from which all random streams are derived.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the observation-noise model (Section 6 extension).
    #[must_use]
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Permits environments with no good nest. The paper assumes at least
    /// one good nest exists; adversarial tests may opt out.
    #[must_use]
    pub fn allow_no_good(mut self) -> Self {
        self.allow_no_good = true;
        self
    }

    /// Enables the "assessing go" model extension: `go(i)` outcomes carry
    /// the nest's quality in addition to its count, letting recruited ants
    /// re-assess where they were taken. The strict Section 2 model returns
    /// only the count; Section 6's non-binary-quality and fault-tolerance
    /// discussions implicitly need this richer sensing (see
    /// [clarification 5](crate::clarifications#5-the-assessing-go)).
    #[must_use]
    pub fn reveal_quality_on_go(mut self) -> Self {
        self.reveal_quality_on_go = true;
        self
    }

    /// Returns whether the "assessing go" extension is enabled.
    #[must_use]
    pub fn go_reveals_quality(&self) -> bool {
        self.reveal_quality_on_go
    }

    /// Returns the colony size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns the quality specification.
    #[must_use]
    pub fn qualities(&self) -> &QualitySpec {
        &self.qualities
    }

    /// Returns the observation-noise model.
    #[must_use]
    pub fn noise_model(&self) -> NoiseModel {
        self.noise
    }

    /// Returns whether a good-nest-free environment is permitted.
    #[must_use]
    pub fn no_good_allowed(&self) -> bool {
        self.allow_no_good
    }

    /// Returns the base seed.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// Validates the configuration and materializes the quality vector.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyColony`] if `n = 0`;
    /// * [`ModelError::NoCandidateNests`] if `k = 0`;
    /// * [`ModelError::NoGoodNest`] if no nest is good and
    ///   [`allow_no_good`](Self::allow_no_good) was not set.
    pub fn validated_qualities(&self) -> Result<Vec<Quality>, ModelError> {
        if self.n == 0 {
            return Err(ModelError::EmptyColony);
        }
        let qualities = self.qualities.materialize()?;
        if !self.allow_no_good && !qualities.iter().any(|q| q.is_good()) {
            return Err(ModelError::NoGoodNest);
        }
        Ok(qualities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_good_materializes() {
        let q = QualitySpec::all_good(3).materialize().unwrap();
        assert_eq!(q, vec![Quality::GOOD; 3]);
    }

    #[test]
    fn single_good_places_correctly() {
        let q = QualitySpec::single_good(4, 3).materialize().unwrap();
        assert_eq!(q[0], Quality::BAD);
        assert_eq!(q[1], Quality::BAD);
        assert_eq!(q[2], Quality::GOOD);
        assert_eq!(q[3], Quality::BAD);
    }

    #[test]
    fn single_good_validates_index() {
        assert!(QualitySpec::single_good(4, 0).materialize().is_err());
        assert!(QualitySpec::single_good(4, 5).materialize().is_err());
    }

    #[test]
    fn good_prefix_places_correctly() {
        let q = QualitySpec::good_prefix(5, 2).materialize().unwrap();
        assert!(q[0].is_good());
        assert!(q[1].is_good());
        assert!(!q[2].is_good());
        assert!(!q[4].is_good());
    }

    #[test]
    fn good_prefix_validates_count() {
        assert!(QualitySpec::good_prefix(3, 4).materialize().is_err());
        // Zero good nests is representable; whether it is *valid* depends
        // on ColonyConfig::allow_no_good.
        assert!(QualitySpec::good_prefix(3, 0).materialize().is_ok());
    }

    #[test]
    fn zero_nests_rejected() {
        assert_eq!(
            QualitySpec::all_good(0).materialize(),
            Err(ModelError::NoCandidateNests)
        );
        assert_eq!(
            QualitySpec::Explicit(vec![]).materialize(),
            Err(ModelError::NoCandidateNests)
        );
    }

    #[test]
    fn config_validates_n() {
        let config = ColonyConfig::new(0, QualitySpec::all_good(2));
        assert_eq!(config.validated_qualities(), Err(ModelError::EmptyColony));
    }

    #[test]
    fn config_requires_good_nest_by_default() {
        let config = ColonyConfig::new(5, QualitySpec::good_prefix(3, 0));
        assert_eq!(config.validated_qualities(), Err(ModelError::NoGoodNest));
        let config = ColonyConfig::new(5, QualitySpec::good_prefix(3, 0)).allow_no_good();
        assert!(config.validated_qualities().is_ok());
    }

    #[test]
    fn builder_setters_chain() {
        let config = ColonyConfig::new(10, QualitySpec::all_good(2)).seed(77);
        assert_eq!(config.base_seed(), 77);
        assert_eq!(config.n(), 10);
        assert!(config.noise_model().is_exact());
        assert!(!config.no_good_allowed());
    }

    #[test]
    fn explicit_qualities_pass_through() {
        let q = vec![Quality::new(0.2).unwrap(), Quality::new(0.9).unwrap()];
        let spec = QualitySpec::Explicit(q.clone());
        assert_eq!(spec.materialize().unwrap(), q);
    }
}
