//! # hh-analysis — statistics and reporting for the house-hunting
//! reproduction
//!
//! Dependency-free analysis utilities used by the experiment harness
//! (`hh-bench`) to turn raw trial data into the paper's figures and
//! tables:
//!
//! * [`Summary`] / [`Quantiles`] — streaming moments and order statistics
//!   for aggregating trials;
//! * [`fit_linear`] / [`fit_log2`] / [`growth_assessment`] — asymptotic
//!   shape validation (`T = a·log n + b` fits with `R²`, doubling-sweep
//!   difference/ratio analysis);
//! * [`Table`], [`sparkline`] — plain-text figure rendering.
//!
//! # Examples
//!
//! ```
//! use hh_analysis::{fit_log2, Summary};
//!
//! // Convergence times that grow logarithmically...
//! let ns = [64usize, 128, 256, 512];
//! let times: Vec<f64> = ns.iter().map(|&n| 4.0 * (n as f64).log2() + 9.0).collect();
//! // ...fit a·log2(n) + b almost perfectly.
//! let fit = fit_log2(&ns, &times)?;
//! assert!(fit.r_squared > 0.99);
//! assert!((fit.slope - 4.0).abs() < 1e-9);
//!
//! let spread: Summary = times.iter().copied().collect();
//! assert!(spread.mean() > 0.0);
//! # Ok::<(), hh_analysis::AnalysisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod fit;
mod histogram;
mod stats;
mod table;

pub use error::AnalysisError;
pub use fit::{fit_linear, fit_log2, growth_assessment, GrowthAssessment, LinearFit};
pub use histogram::sparkline;
pub use stats::{Quantiles, Summary};
pub use table::{fmt_f64, Table};
