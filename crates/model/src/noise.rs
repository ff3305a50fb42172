//! Observation noise: the Section 6 "approximate counting and nest
//! assessment" extension.
//!
//! Real Temnothorax ants estimate nest population from encounter rates and
//! nest quality from imperfect sensing; Section 6 of the paper argues that
//! Algorithm 3 should tolerate *unbiased* noisy estimates. This module
//! provides the noise channels the environment applies to every count and
//! quality an ant observes:
//!
//! * [`CountNoise`] perturbs population counts. All built-in variants are
//!   unbiased (`E[observed] = true`, up to integer rounding), matching the
//!   paper's "unbiased estimators" assumption.
//! * [`QualityNoise`] perturbs quality observations, modelling assessment
//!   error ("nest assessments by an individual ant are not always precise").
//!
//! # Examples
//!
//! ```
//! use hh_model::noise::{CountNoise, NoiseModel, QualityNoise};
//!
//! // Exact observations (the default model of Section 2):
//! let exact = NoiseModel::default();
//! assert!(matches!(exact.count, CountNoise::Exact));
//!
//! // Section 6 perturbations:
//! let noisy = NoiseModel {
//!     count: CountNoise::multiplicative(0.3)?,
//!     quality: QualityNoise::flip(0.05)?,
//! };
//! # Ok::<(), hh_model::ModelError>(())
//! ```

use rand::{Rng, RngExt};

use crate::error::ModelError;
use crate::nest::Quality;

/// Noise applied to every population count an ant observes.
///
/// Each observation draws independent noise; two ants observing the same
/// nest in the same round may perceive different counts, as they would in
/// nature.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum CountNoise {
    /// Report the exact count (the baseline model).
    #[default]
    Exact,
    /// Multiply the count by `exp(N(−σ²/2, σ²))`, a log-normal factor with
    /// unit mean, then round to the nearest integer. `sigma` controls the
    /// relative error; `σ = 0.3` gives roughly ±30 % typical error.
    Multiplicative {
        /// Standard deviation of the underlying normal, finite and `≥ 0`.
        sigma: f64,
    },
    /// Multiply the count by a uniform factor in `[1 − delta, 1 + delta]`
    /// (unit mean), then round. Bounded support makes this the gentlest
    /// perturbation.
    UniformRelative {
        /// Half-width of the relative error, `0 ≤ delta ≤ 1`.
        delta: f64,
    },
    /// Encounter-rate sampling: observe `Binomial(count, p) / p`, rounded.
    /// Models an ant that meets each resident independently with
    /// probability `p` and scales up — an unbiased estimator whose variance
    /// grows as `p` shrinks.
    Subsample {
        /// Per-resident encounter probability, `0 < p ≤ 1`.
        p: f64,
    },
}

impl CountNoise {
    /// Creates unbiased log-normal multiplicative noise.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNoise`] if `sigma` is negative, NaN or
    /// infinite.
    pub fn multiplicative(sigma: f64) -> Result<Self, ModelError> {
        CountNoise::Multiplicative { sigma }.validated()
    }

    /// Creates bounded uniform relative noise.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNoise`] if `delta` is not in `[0, 1]`.
    pub fn uniform_relative(delta: f64) -> Result<Self, ModelError> {
        CountNoise::UniformRelative { delta }.validated()
    }

    /// Creates encounter-rate subsampling noise.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNoise`] if `p` is not in `(0, 1]`.
    pub fn subsample(p: f64) -> Result<Self, ModelError> {
        CountNoise::Subsample { p }.validated()
    }

    /// Returns the channel if its parameter is in the range its variant
    /// documents. This is the one range check: the constructors call it,
    /// and so does [`Environment::new`](crate::Environment::new), since a
    /// variant built directly skips the constructors.
    fn validated(self) -> Result<Self, ModelError> {
        let (parameter, value, valid) = match self {
            CountNoise::Exact => return Ok(self),
            CountNoise::Multiplicative { sigma } => (
                "Multiplicative::sigma",
                sigma,
                sigma.is_finite() && sigma >= 0.0,
            ),
            CountNoise::UniformRelative { delta } => (
                "UniformRelative::delta",
                delta,
                (0.0..=1.0).contains(&delta),
            ),
            CountNoise::Subsample { p } => ("Subsample::p", p, p > 0.0 && p <= 1.0),
        };
        valid
            .then_some(self)
            .ok_or(ModelError::InvalidNoise { parameter, value })
    }

    /// Applies the noise channel to a true count.
    pub fn observe<R: Rng + ?Sized>(&self, true_count: usize, rng: &mut R) -> usize {
        match *self {
            CountNoise::Exact => true_count,
            CountNoise::Multiplicative { sigma } => {
                if sigma == 0.0 || true_count == 0 {
                    return true_count;
                }
                // Unit-mean log-normal: exp(N(-sigma^2/2, sigma^2)).
                let z = standard_normal(rng);
                let factor = (z * sigma - sigma * sigma / 2.0).exp();
                round_count(true_count as f64 * factor)
            }
            CountNoise::UniformRelative { delta } => {
                if delta == 0.0 || true_count == 0 {
                    return true_count;
                }
                let factor = 1.0 + rng.random_range(-delta..=delta);
                round_count(true_count as f64 * factor)
            }
            CountNoise::Subsample { p } => {
                if p >= 1.0 || true_count == 0 {
                    return true_count;
                }
                let seen = binomial(true_count, p, rng);
                round_count(seen as f64 / p)
            }
        }
    }
}

/// Noise applied to every quality an ant observes: at `search()`, and at
/// `go(i)` when the environment reveals quality on `go`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum QualityNoise {
    /// Report the exact quality.
    #[default]
    Exact,
    /// With probability `p`, report `1 − q` instead of `q`. For binary
    /// qualities this is a misclassification; for continuous qualities it
    /// mirrors the value around `1/2`.
    Flip {
        /// Misclassification probability, `0 ≤ p ≤ 1`.
        p: f64,
    },
    /// Add uniform jitter in `[−eps, +eps]`, clamped to `[0, 1]`. Models
    /// graded assessment error for the non-binary extension.
    Jitter {
        /// Jitter half-width, `0 ≤ eps ≤ 1`.
        eps: f64,
    },
}

impl QualityNoise {
    /// Creates misclassification noise.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNoise`] if `p` is not in `[0, 1]`.
    pub fn flip(p: f64) -> Result<Self, ModelError> {
        QualityNoise::Flip { p }.validated()
    }

    /// Creates jitter noise.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNoise`] if `eps` is not in `[0, 1]`.
    pub fn jitter(eps: f64) -> Result<Self, ModelError> {
        QualityNoise::Jitter { eps }.validated()
    }

    /// Returns the channel if its parameter is in `[0, 1]`: the one range
    /// check, as for [`CountNoise::validated`].
    fn validated(self) -> Result<Self, ModelError> {
        let (parameter, value) = match self {
            QualityNoise::Exact => return Ok(self),
            QualityNoise::Flip { p } => ("Flip::p", p),
            QualityNoise::Jitter { eps } => ("Jitter::eps", eps),
        };
        (0.0..=1.0)
            .contains(&value)
            .then_some(self)
            .ok_or(ModelError::InvalidNoise { parameter, value })
    }

    /// Applies the noise channel to a true quality.
    pub fn observe<R: Rng + ?Sized>(&self, true_quality: Quality, rng: &mut R) -> Quality {
        match *self {
            QualityNoise::Exact => true_quality,
            QualityNoise::Flip { p } => {
                if p > 0.0 && rng.random_bool(p) {
                    // Mirror around 1/2; value stays in [0, 1] so the
                    // constructor cannot fail.
                    Quality::new(1.0 - true_quality.value()).expect("mirrored quality in range")
                } else {
                    true_quality
                }
            }
            QualityNoise::Jitter { eps } => {
                if eps == 0.0 {
                    return true_quality;
                }
                let jittered =
                    (true_quality.value() + rng.random_range(-eps..=eps)).clamp(0.0, 1.0);
                Quality::new(jittered).expect("clamped quality in range")
            }
        }
    }
}

/// The complete observation-noise configuration of an environment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseModel {
    /// Channel applied to population counts.
    pub count: CountNoise,
    /// Channel applied to quality observations.
    pub quality: QualityNoise,
}

impl NoiseModel {
    /// The noiseless model of Section 2 (same as `Default`).
    #[must_use]
    pub fn exact() -> Self {
        Self::default()
    }

    /// Returns `true` if both channels are exact. An exact model never
    /// draws, so its environment holds no noise streams.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self.count, CountNoise::Exact) && matches!(self.quality, QualityNoise::Exact)
    }

    /// Returns the model if both channels pass their constructors' range
    /// checks, or [`ModelError::InvalidNoise`] for the first that fails,
    /// count before quality.
    pub(crate) fn validated(self) -> Result<Self, ModelError> {
        self.count.validated()?;
        self.quality.validated()?;
        Ok(self)
    }
}

/// Draws a standard normal variate via the Box–Muller transform.
///
/// `rand_distr` is deliberately not a dependency; the model only needs this
/// one distribution and the polar Box–Muller method is a dozen lines.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random_range(-1.0..1.0);
        let v: f64 = rng.random_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples `Binomial(count, p)`.
///
/// Uses explicit Bernoulli draws for small counts and a normal
/// approximation (rounded and clamped) for large ones, which is accurate to
/// well under the noise levels being modelled.
fn binomial<R: Rng + ?Sized>(count: usize, p: f64, rng: &mut R) -> usize {
    const EXACT_LIMIT: usize = 256;
    if count <= EXACT_LIMIT {
        (0..count).filter(|_| rng.random_bool(p)).count()
    } else {
        let mean = count as f64 * p;
        let sd = (count as f64 * p * (1.0 - p)).sqrt();
        let draw = mean + sd * standard_normal(rng);
        draw.round().clamp(0.0, count as f64) as usize
    }
}

/// Rounds a perturbed count back to a non-negative integer.
fn round_count(value: f64) -> usize {
    value.round().max(0.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xA11CE)
    }

    #[test]
    fn exact_is_identity() {
        let mut r = rng();
        for c in [0usize, 1, 7, 1000] {
            assert_eq!(CountNoise::Exact.observe(c, &mut r), c);
        }
        assert_eq!(
            QualityNoise::Exact.observe(Quality::GOOD, &mut r),
            Quality::GOOD
        );
    }

    #[test]
    fn constructors_validate() {
        assert!(CountNoise::multiplicative(-0.1).is_err());
        assert!(CountNoise::multiplicative(f64::NAN).is_err());
        assert!(CountNoise::uniform_relative(1.5).is_err());
        assert!(CountNoise::subsample(0.0).is_err());
        assert!(CountNoise::subsample(1.5).is_err());
        assert!(QualityNoise::flip(-0.5).is_err());
        assert!(QualityNoise::jitter(2.0).is_err());
        assert!(CountNoise::multiplicative(0.5).is_ok());
        assert!(CountNoise::uniform_relative(0.2).is_ok());
        assert!(CountNoise::subsample(0.5).is_ok());
    }

    #[test]
    fn directly_built_variants_get_the_constructors_checks() {
        let count = |count| NoiseModel {
            count,
            quality: QualityNoise::Exact,
        };
        let quality = |quality| NoiseModel {
            count: CountNoise::Exact,
            quality,
        };
        let bad = [
            (
                count(CountNoise::Multiplicative { sigma: f64::NAN }),
                "Multiplicative::sigma",
            ),
            (
                count(CountNoise::Multiplicative {
                    sigma: f64::INFINITY,
                }),
                "Multiplicative::sigma",
            ),
            (
                count(CountNoise::UniformRelative { delta: -0.5 }),
                "UniformRelative::delta",
            ),
            (
                count(CountNoise::UniformRelative { delta: 3.0 }),
                "UniformRelative::delta",
            ),
            (count(CountNoise::Subsample { p: 0.0 }), "Subsample::p"),
            (count(CountNoise::Subsample { p: -1.0 }), "Subsample::p"),
            (quality(QualityNoise::Flip { p: 2.0 }), "Flip::p"),
            (quality(QualityNoise::Flip { p: f64::NAN }), "Flip::p"),
            (quality(QualityNoise::Jitter { eps: -0.5 }), "Jitter::eps"),
            (
                quality(QualityNoise::Jitter { eps: f64::INFINITY }),
                "Jitter::eps",
            ),
        ];
        for (model, name) in bad {
            match model.validated() {
                Err(ModelError::InvalidNoise { parameter, .. }) => assert_eq!(parameter, name),
                other => panic!("{model:?}: {other:?}"),
            }
        }
        let edges = NoiseModel {
            count: CountNoise::Subsample { p: 1.0 },
            quality: QualityNoise::Jitter { eps: 0.0 },
        };
        assert_eq!(edges.validated(), Ok(edges));
    }

    #[test]
    fn zero_parameters_are_identity() {
        let mut r = rng();
        let mult = CountNoise::multiplicative(0.0).unwrap();
        let unif = CountNoise::uniform_relative(0.0).unwrap();
        let sub = CountNoise::subsample(1.0).unwrap();
        for c in [0usize, 5, 123] {
            assert_eq!(mult.observe(c, &mut r), c);
            assert_eq!(unif.observe(c, &mut r), c);
            assert_eq!(sub.observe(c, &mut r), c);
        }
    }

    /// Empirical unbiasedness: the mean observed count over many draws must
    /// be close to the true count for every channel.
    #[test]
    fn count_channels_are_unbiased() {
        let mut r = rng();
        let channels = [
            CountNoise::multiplicative(0.3).unwrap(),
            CountNoise::uniform_relative(0.4).unwrap(),
            CountNoise::subsample(0.25).unwrap(),
        ];
        let truth = 1000usize;
        for ch in channels {
            let trials = 20_000;
            let sum: f64 = (0..trials).map(|_| ch.observe(truth, &mut r) as f64).sum();
            let mean = sum / f64::from(trials);
            let rel_err = (mean - truth as f64).abs() / truth as f64;
            assert!(
                rel_err < 0.02,
                "{ch:?} biased: mean {mean} vs truth {truth}"
            );
        }
    }

    #[test]
    fn subsample_small_counts_use_exact_binomial() {
        let mut r = rng();
        let ch = CountNoise::subsample(0.5).unwrap();
        // With count 10 and p = 0.5 the observation is 2 * Binomial(10, .5),
        // so it is always an even integer in [0, 20].
        for _ in 0..200 {
            let obs = ch.observe(10, &mut r);
            assert!(obs <= 20);
            assert_eq!(obs % 2, 0);
        }
    }

    #[test]
    fn flip_noise_mirrors_quality() {
        let mut r = rng();
        let always = QualityNoise::flip(1.0).unwrap();
        assert_eq!(always.observe(Quality::GOOD, &mut r), Quality::BAD);
        assert_eq!(always.observe(Quality::BAD, &mut r), Quality::GOOD);
        let never = QualityNoise::flip(0.0).unwrap();
        assert_eq!(never.observe(Quality::GOOD, &mut r), Quality::GOOD);
    }

    #[test]
    fn flip_rate_is_respected() {
        let mut r = rng();
        let ch = QualityNoise::flip(0.25).unwrap();
        let flips = (0..10_000)
            .filter(|_| ch.observe(Quality::GOOD, &mut r) == Quality::BAD)
            .count();
        assert!((2_000..=3_000).contains(&flips), "flip count {flips}");
    }

    #[test]
    fn jitter_stays_in_range() {
        let mut r = rng();
        let ch = QualityNoise::jitter(0.5).unwrap();
        for _ in 0..1000 {
            let q = ch.observe(Quality::new(0.9).unwrap(), &mut r);
            assert!((0.0..=1.0).contains(&q.value()));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal variance {var}");
    }

    #[test]
    fn binomial_mean_is_np() {
        let mut r = rng();
        for (count, p) in [(100usize, 0.3), (10_000, 0.7)] {
            let trials = 2_000;
            let sum: usize = (0..trials).map(|_| binomial(count, p, &mut r)).sum();
            let mean = sum as f64 / f64::from(trials);
            let expected = count as f64 * p;
            assert!(
                (mean - expected).abs() / expected < 0.05,
                "binomial mean {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn noise_model_exactness_check() {
        assert!(NoiseModel::exact().is_exact());
        let noisy = NoiseModel {
            count: CountNoise::multiplicative(0.1).unwrap(),
            quality: QualityNoise::Exact,
        };
        assert!(!noisy.is_exact());
    }
}
