//! Error type for analysis routines.

use std::error::Error;
use std::fmt;

/// Errors raised by statistics and fitting routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// Paired-data routine received slices of different lengths.
    LengthMismatch {
        /// Length of the x slice.
        xs: usize,
        /// Length of the y slice.
        ys: usize,
    },
    /// Not enough data points for the requested computation.
    TooFewPoints {
        /// Points provided.
        got: usize,
        /// Minimum required.
        required: usize,
    },
    /// The x values were all identical, so no slope is defined.
    DegenerateX,
    /// A sample held a NaN, which has no place in an order.
    NotANumber {
        /// Index of the first NaN in the sample.
        index: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::LengthMismatch { xs, ys } => {
                write!(
                    f,
                    "paired data lengths differ: {xs} x values vs {ys} y values"
                )
            }
            AnalysisError::TooFewPoints { got, required } => {
                write!(f, "need at least {required} points, got {got}")
            }
            AnalysisError::DegenerateX => {
                write!(f, "all x values are identical; slope is undefined")
            }
            AnalysisError::NotANumber { index } => {
                write!(f, "sample value {index} is NaN")
            }
        }
    }
}

impl Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase() {
        for err in [
            AnalysisError::LengthMismatch { xs: 1, ys: 2 },
            AnalysisError::TooFewPoints {
                got: 1,
                required: 2,
            },
            AnalysisError::DegenerateX,
            AnalysisError::NotANumber { index: 3 },
        ] {
            let msg = err.to_string();
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }
}
