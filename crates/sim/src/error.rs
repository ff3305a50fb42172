//! Error type for the execution harness.

use std::error::Error;
use std::fmt;

use hh_model::ModelError;

/// Errors raised when constructing or driving a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A model-level error surfaced by the environment.
    Model(ModelError),
    /// The colony handed to the simulation does not match the
    /// environment's ant count.
    AgentCountMismatch {
        /// Number of agents supplied.
        agents: usize,
        /// Environment colony size `n`.
        n: usize,
    },
    /// The crash plan handed to the simulation was built for a colony of
    /// another size.
    PlanSizeMismatch {
        /// Number of ants the crash plan covers.
        plan: usize,
        /// Environment colony size `n`.
        n: usize,
    },
    /// A scenario axis holds a value no simulation can be built from.
    InvalidScenario {
        /// The offending axis (`"profile"`, ...).
        axis: &'static str,
        /// What the axis value violates.
        reason: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Model(err) => write!(f, "model error: {err}"),
            SimError::AgentCountMismatch { agents, n } => {
                write!(f, "got {agents} agents for an environment of {n} ants")
            }
            SimError::PlanSizeMismatch { plan, n } => {
                write!(
                    f,
                    "got a crash plan for {plan} ants for an environment of {n} ants"
                )
            }
            SimError::InvalidScenario { axis, reason } => {
                write!(f, "invalid scenario {axis}: {reason}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Model(err) => Some(err),
            SimError::AgentCountMismatch { .. }
            | SimError::PlanSizeMismatch { .. }
            | SimError::InvalidScenario { .. } => None,
        }
    }
}

impl From<ModelError> for SimError {
    fn from(err: ModelError) -> Self {
        SimError::Model(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let err = SimError::from(ModelError::EmptyColony);
        assert!(err.to_string().contains("model error"));
        assert!(err.source().is_some());

        let err = SimError::AgentCountMismatch { agents: 3, n: 5 };
        assert!(err.to_string().contains("3 agents"));
        assert!(err.source().is_none());

        let err = SimError::PlanSizeMismatch { plan: 5, n: 10 };
        assert_eq!(
            err.to_string(),
            "got a crash plan for 5 ants for an environment of 10 ants"
        );
        assert!(err.source().is_none());

        let err = SimError::InvalidScenario {
            axis: "profile",
            reason: "an adversarial tie needs at least two nests",
        };
        assert_eq!(
            err.to_string(),
            "invalid scenario profile: an adversarial tie needs at least two nests"
        );
        assert!(err.source().is_none());
    }

    #[test]
    fn is_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SimError>();
    }
}
