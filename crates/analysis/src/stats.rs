//! Streaming summary statistics and quantiles.
//!
//! [`Summary`] accumulates moments with Welford's online algorithm —
//! numerically stable, one pass, O(1) memory — and is the workhorse for
//! aggregating trial results in the experiment harness. [`Quantiles`]
//! holds a sorted sample for order statistics.

use crate::error::AnalysisError;

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use hh_analysis::Summary;
///
/// let summary: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
///     .into_iter()
///     .collect();
/// assert_eq!(summary.count(), 8);
/// assert!((summary.mean() - 5.0).abs() < 1e-12);
/// assert!((summary.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no observations were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean; 0 for an empty accumulator.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest observation; `+∞` for an empty accumulator.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `−∞` for an empty accumulator.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Unbiased sample variance (`n − 1` denominator); 0 with fewer than
    /// two observations.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (`n` denominator); 0 when empty.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Square root of the sample variance.
    #[must_use]
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Square root of the population variance.
    #[must_use]
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Standard error of the mean; 0 when empty.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95 % confidence interval for
    /// the mean.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// Merges another accumulator into this one (parallel aggregation).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let total_f = total as f64;
        self.m2 += other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total_f;
        self.mean += delta * (other.count as f64) / total_f;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Summary {
    /// The empty accumulator of [`Summary::new`], whose `min` and `max`
    /// start at `+∞` and `−∞`.
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut summary = Summary::new();
        for value in iter {
            summary.push(value);
        }
        summary
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for value in iter {
            self.push(value);
        }
    }
}

/// Order statistics over a finite sample.
///
/// # Examples
///
/// ```
/// use hh_analysis::Quantiles;
///
/// let q = Quantiles::new(vec![5.0, 1.0, 3.0, 2.0, 4.0])?;
/// assert_eq!(q.median(), 3.0);
/// assert_eq!(q.quantile(0.0), 1.0);
/// assert_eq!(q.quantile(1.0), 5.0);
/// # Ok::<(), hh_analysis::AnalysisError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Builds order statistics from a sample (sorted internally).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::TooFewPoints`] for an empty sample and
    /// [`AnalysisError::NotANumber`], naming the first NaN's index, for a
    /// sample that holds a NaN.
    pub fn new(mut sample: Vec<f64>) -> Result<Self, AnalysisError> {
        if sample.is_empty() {
            return Err(AnalysisError::TooFewPoints {
                got: 0,
                required: 1,
            });
        }
        if let Some(index) = sample.iter().position(|value| value.is_nan()) {
            return Err(AnalysisError::NotANumber { index });
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaN was rejected above"));
        Ok(Self { sorted: sample })
    }

    /// The `q`-quantile by linear interpolation, `q ∈ [0, 1]` (clamped;
    /// a NaN `q` returns NaN).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if q.is_nan() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let position = q * (self.sorted.len() - 1) as f64;
        let lower = position.floor() as usize;
        let upper = position.ceil() as usize;
        if lower == upper {
            self.sorted[lower]
        } else {
            let weight = position - lower as f64;
            self.sorted[lower] * (1.0 - weight) + self.sorted[upper] * weight
        }
    }

    /// The median (0.5-quantile).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The interquartile range.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: construction rejects empty samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut s = Summary::new();
        s.push(3.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn known_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole: Summary = all.iter().copied().collect();
        let mut left: Summary = all[..37].iter().copied().collect();
        let right: Summary = all[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        s.merge(&Summary::new());
        assert_eq!(s.count(), 2);
        let mut empty = Summary::new();
        empty.merge(&s);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ci_narrows_with_samples() {
        let narrow: Summary = (0..10_000).map(|i| f64::from(i % 10)).collect();
        let wide: Summary = (0..100).map(|i| f64::from(i % 10)).collect();
        assert!(narrow.ci95_half_width() < wide.ci95_half_width());
    }

    #[test]
    fn quantiles_reject_empty() {
        assert_eq!(
            Quantiles::new(vec![]),
            Err(AnalysisError::TooFewPoints {
                got: 0,
                required: 1
            })
        );
    }

    #[test]
    fn default_summary_is_the_new_one() {
        assert_eq!(Summary::default(), Summary::new());
        let mut s = Summary::default();
        s.extend([5.0, 7.0]);
        assert_eq!((s.min(), s.max()), (5.0, 7.0));
        let mut s = Summary::default();
        s.push(-3.0);
        assert_eq!((s.min(), s.max()), (-3.0, -3.0));
    }

    #[test]
    fn quantiles_reject_nan_by_index() {
        assert_eq!(
            Quantiles::new(vec![1.0, f64::NAN, 2.0, f64::NAN]),
            Err(AnalysisError::NotANumber { index: 1 })
        );
        assert_eq!(
            Quantiles::new(vec![f64::NAN]),
            Err(AnalysisError::NotANumber { index: 0 })
        );
    }

    #[test]
    fn quantiles_interpolate() {
        let q = Quantiles::new(vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(q.median(), 25.0);
        assert_eq!(q.quantile(0.25), 17.5);
        assert_eq!(q.quantile(0.75), 32.5);
        assert_eq!(q.iqr(), 15.0);
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let q = Quantiles::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(q.quantile(-3.0), 1.0);
        assert_eq!(q.quantile(42.0), 3.0);
    }

    #[test]
    fn nan_quantile_is_nan_not_the_minimum() {
        let q = Quantiles::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert!(q.quantile(f64::NAN).is_nan());
    }

    #[test]
    fn extend_appends() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.count(), 3);
    }
}
