//! Minimal in-crate execution driver for unit tests.
//!
//! The full-featured executor lives in `hh-sim` (which depends on this
//! crate); unit tests here only need a bare loop that drives a colony of
//! agents against an environment and detects commitment consensus.

use hh_model::{ColonyConfig, Environment, NestId, QualitySpec};

use crate::agent::{Agent, BoxedAgent};
use crate::problem::honest_consensus;

/// Builds an exact-observation environment for tests.
pub(crate) fn make_env(n: usize, spec: QualitySpec, seed: u64) -> Environment {
    Environment::new(&ColonyConfig::new(n, spec).seed(seed)).expect("valid test config")
}

/// Builds an environment with the "assessing go" extension enabled.
pub(crate) fn make_env_revealing(n: usize, spec: QualitySpec, seed: u64) -> Environment {
    Environment::new(&ColonyConfig::new(n, spec).seed(seed).reveal_quality_on_go())
        .expect("valid test config")
}

/// Runs one synchronous round: every agent chooses, the environment steps,
/// every agent observes. Panics on any model error — unit tests exercise
/// legal agents only.
pub(crate) fn step_once(env: &mut Environment, agents: &mut [BoxedAgent]) {
    let round = env.round() + 1;
    let actions: Vec<_> = agents.iter_mut().map(|a| a.choose(round)).collect();
    let report = env.step(&actions).expect("agents must act legally");
    for (agent, outcome) in agents.iter_mut().zip(&report.outcomes) {
        agent.observe(round, outcome);
    }
}

/// Drives the colony until every honest agent is committed to the same
/// good nest, or `max_rounds` elapse. Returns the consensus round and
/// winning nest on success, plus the environment for post-mortem
/// inspection.
pub(crate) fn drive_to_consensus(
    mut env: Environment,
    mut agents: Vec<BoxedAgent>,
    max_rounds: u64,
) -> (Option<(u64, NestId)>, Environment) {
    for _ in 0..max_rounds {
        step_once(&mut env, &mut agents);
        if let Some(nest) = honest_consensus(&agents) {
            if env
                .quality_of(nest)
                .is_some_and(|quality| quality.is_good())
            {
                return (Some((env.round(), nest)), env);
            }
        }
    }
    (None, env)
}

/// Boxes a homogeneous colony built by `factory`.
pub(crate) fn boxed_colony<A, F>(n: usize, mut factory: F) -> Vec<BoxedAgent>
where
    A: Agent + Send + 'static,
    F: FnMut(usize) -> A,
{
    (0..n).map(|i| Box::new(factory(i)) as BoxedAgent).collect()
}
