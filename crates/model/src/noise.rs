//! Observation noise: the approximate-counting half of the Section 6
//! "approximate counting and nest assessment" extension.
//!
//! Real Temnothorax ants estimate nest population from encounter rates;
//! Section 6 of the paper argues that Algorithm 3 should tolerate
//! *unbiased* noisy estimates of the counts it reads. [`NoiseModel`] is the
//! channel the environment applies to every population count an ant
//! observes. Qualities are always observed exactly.
//!
//! # Examples
//!
//! ```
//! use hh_model::NoiseModel;
//!
//! // Exact observations (the default model of Section 2):
//! assert!(NoiseModel::default().is_exact());
//!
//! // Section 6's noisy counts, about ±30 % typical error:
//! let noisy = NoiseModel::multiplicative(0.3)?;
//! assert!(!noisy.is_exact());
//! assert!(NoiseModel::multiplicative(-0.1).is_err());
//! # Ok::<(), hh_model::ModelError>(())
//! ```

use rand::{Rng, RngExt};

use crate::error::ModelError;

/// The noise applied to every population count an ant observes.
///
/// Each observation draws independent noise; two ants observing the same
/// nest in the same round may perceive different counts, as they would in
/// nature. The noisy channel is unbiased (`E[observed] = true`, up to
/// integer rounding), matching the paper's "unbiased estimators"
/// assumption.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum NoiseModel {
    /// Report the exact count (the model of Section 2).
    #[default]
    Exact,
    /// Multiply the count by `exp(N(−σ²/2, σ²))`, a log-normal factor with
    /// unit mean, then round to the nearest integer. `sigma` controls the
    /// relative error; `σ = 0.3` gives roughly ±30 % typical error.
    Multiplicative {
        /// Standard deviation of the underlying normal, finite and `≥ 0`.
        sigma: f64,
    },
}

impl NoiseModel {
    /// The noiseless model of Section 2 (same as `Default`).
    #[must_use]
    pub fn exact() -> Self {
        Self::default()
    }

    /// Creates unbiased log-normal multiplicative noise.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNoise`] if `sigma` is negative, NaN or
    /// infinite.
    pub fn multiplicative(sigma: f64) -> Result<Self, ModelError> {
        NoiseModel::Multiplicative { sigma }.validated()
    }

    /// Returns `true` for [`Exact`](NoiseModel::Exact). An exact model
    /// never draws, so its environment holds no noise streams.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, NoiseModel::Exact)
    }

    /// Returns the model if its parameter is in the range its variant
    /// documents. This is the one range check: the constructor calls it,
    /// and so does [`Environment::new`](crate::Environment::new), since a
    /// variant built directly skips the constructor.
    pub(crate) fn validated(self) -> Result<Self, ModelError> {
        let NoiseModel::Multiplicative { sigma } = self else {
            return Ok(self);
        };
        (sigma.is_finite() && sigma >= 0.0)
            .then_some(self)
            .ok_or(ModelError::InvalidNoise {
                parameter: "Multiplicative::sigma",
                value: sigma,
            })
    }

    /// Applies the noise to a true count.
    pub fn observe<R: Rng + ?Sized>(&self, true_count: usize, rng: &mut R) -> usize {
        match *self {
            NoiseModel::Exact => true_count,
            NoiseModel::Multiplicative { sigma } => {
                if sigma == 0.0 || true_count == 0 {
                    return true_count;
                }
                // Unit-mean log-normal: exp(N(-sigma^2/2, sigma^2)).
                let z = standard_normal(rng);
                let factor = (z * sigma - sigma * sigma / 2.0).exp();
                round_count(true_count as f64 * factor)
            }
        }
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
            assert_eq!(NoiseModel::Exact.observe(c, &mut r), c);
        }
    }

    #[test]
    fn constructors_validate() {
        assert!(NoiseModel::multiplicative(-0.1).is_err());
        assert!(NoiseModel::multiplicative(f64::NAN).is_err());
        assert!(NoiseModel::multiplicative(f64::INFINITY).is_err());
        assert!(NoiseModel::multiplicative(0.5).is_ok());
    }

    #[test]
    fn directly_built_variants_get_the_constructors_checks() {
        for sigma in [f64::NAN, f64::INFINITY, -0.5] {
            let model = NoiseModel::Multiplicative { sigma };
            match model.validated() {
                Err(ModelError::InvalidNoise { parameter, .. }) => {
                    assert_eq!(parameter, "Multiplicative::sigma");
                }
                other => panic!("{model:?}: {other:?}"),
            }
        }
        for edge in [NoiseModel::Exact, NoiseModel::Multiplicative { sigma: 0.0 }] {
            assert_eq!(edge.validated(), Ok(edge));
        }
    }

    #[test]
    fn zero_parameters_are_identity() {
        let mut r = rng();
        let mult = NoiseModel::multiplicative(0.0).unwrap();
        for c in [0usize, 5, 123] {
            assert_eq!(mult.observe(c, &mut r), c);
        }
    }

    /// Empirical unbiasedness: the mean observed count over many draws must
    /// be close to the true count for both channels.
    #[test]
    fn count_channels_are_unbiased() {
        let mut r = rng();
        let truth = 1000usize;
        for ch in [NoiseModel::Exact, NoiseModel::multiplicative(0.3).unwrap()] {
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
    fn noise_model_exactness_check() {
        assert!(NoiseModel::exact().is_exact());
        assert!(!NoiseModel::multiplicative(0.1).unwrap().is_exact());
    }
}
