//! Error types for the house-hunting model.

use std::error::Error;
use std::fmt;

use crate::ids::{AntId, NestId};

/// Errors raised when constructing or driving the model.
///
/// Every variant corresponds to a violation of the formal model of
/// Section 2 of the paper, or to an invalid configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A quality value was NaN or outside `[0, 1]`.
    InvalidQuality {
        /// The offending value.
        value: f64,
    },
    /// An observation-noise parameter was outside the range its
    /// [`NoiseModel`](crate::NoiseModel) variant documents.
    InvalidNoise {
        /// The variant and field, e.g. `"Multiplicative::sigma"`.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The colony size `n` must be at least 1.
    EmptyColony,
    /// The environment must have at least one candidate nest (`k ≥ 1`).
    NoCandidateNests,
    /// The paper assumes at least one nest with quality 1; the
    /// configuration had none and did not opt out of the check.
    NoGoodNest,
    /// The number of actions handed to the executor did not match the
    /// number of ants.
    WrongActionCount {
        /// Number of actions supplied.
        got: usize,
        /// Colony size `n`.
        expected: usize,
    },
    /// An action referenced a nest id outside `{1, …, k}`.
    UnknownNest {
        /// The acting ant.
        ant: AntId,
        /// The out-of-range nest.
        nest: NestId,
    },
    /// An ant tried to `go(i)` or `recruit(·, i)` for a nest it neither
    /// visited nor was recruited to, violating the call's precondition.
    NestNotKnown {
        /// The acting ant.
        ant: AntId,
        /// The unknown nest.
        nest: NestId,
    },
    /// A home-nest id was passed where a candidate nest is required
    /// (`go` and `recruit` only accept `i ∈ {1, …, k}`).
    HomeNotAllowed {
        /// The acting ant.
        ant: AntId,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidQuality { value } => {
                write!(f, "quality {value} is not in [0, 1]")
            }
            ModelError::InvalidNoise { parameter, value } => {
                write!(f, "noise parameter {parameter} = {value} is out of range")
            }
            ModelError::EmptyColony => write!(f, "colony must contain at least one ant"),
            ModelError::NoCandidateNests => {
                write!(f, "environment must contain at least one candidate nest")
            }
            ModelError::NoGoodNest => {
                write!(
                    f,
                    "environment has no good nest (the paper assumes at least one)"
                )
            }
            ModelError::WrongActionCount { got, expected } => {
                write!(f, "got {got} actions for a colony of {expected} ants")
            }
            ModelError::UnknownNest { ant, nest } => {
                write!(f, "{ant} referenced nonexistent nest {nest}")
            }
            ModelError::NestNotKnown { ant, nest } => {
                write!(f, "{ant} has neither visited nor been recruited to {nest}")
            }
            ModelError::HomeNotAllowed { ant } => {
                write!(
                    f,
                    "{ant} passed the home nest where a candidate nest is required"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let cases: Vec<ModelError> = vec![
            ModelError::InvalidQuality { value: 1.5 },
            ModelError::InvalidNoise {
                parameter: "Multiplicative::sigma",
                value: -1.0,
            },
            ModelError::EmptyColony,
            ModelError::NoCandidateNests,
            ModelError::NoGoodNest,
            ModelError::WrongActionCount {
                got: 3,
                expected: 5,
            },
            ModelError::UnknownNest {
                ant: AntId::new(1),
                nest: NestId::candidate(9),
            },
            ModelError::NestNotKnown {
                ant: AntId::new(2),
                nest: NestId::candidate(1),
            },
            ModelError::HomeNotAllowed { ant: AntId::new(0) },
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "error message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ModelError>();
    }
}
