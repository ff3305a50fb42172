//! The formal `HouseHunting` problem statement and consensus predicates.
//!
//! > **Problem (Section 2).** An algorithm `A` solves the HouseHunting
//! > problem with `k` nests in `T ∈ ℕ` rounds with probability `1 − δ`,
//! > for `0 < δ ≤ 1`, if with probability `1 − δ`, taken over all
//! > executions of `A`, there exists a nest `i ∈ {1, …, k}` such that
//! > `q(i) = 1` and `ℓ(a, r) = i` for all ants `a` and all rounds
//! > `r ≥ T`.
//!
//! In practice both of the paper's algorithms are evaluated on the
//! *commitment* form of this predicate — all ants agree on (are committed
//! to) one good nest and the agreement is absorbing — because as written
//! neither algorithm parks ants at the nest (Section 4.2's "we consider
//! the algorithm to terminate once all ants have reached the final
//! state"): simple ants are all home on every even round, and final
//! optimal ants recruit from home every round.
//!
//! This module provides the predicate helpers the harness uses; the full
//! detection machinery (windows, perturbation-aware variants) lives in
//! `hh-sim`.

use hh_model::NestId;

use crate::agent::Agent;

/// Returns the nest every *honest* agent is committed to, if they all
/// agree; `None` if any honest agent is uncommitted or two disagree.
///
/// Adversarial agents ([`Agent::is_honest`]` == false`) are ignored: the
/// problem is only required of the honest colony.
///
/// # Examples
///
/// ```
/// use hh_core::{colony, problem};
///
/// let ants = colony::simple(5, 3);
/// // Nobody has searched yet: no commitment.
/// assert_eq!(problem::honest_consensus(&ants), None);
/// ```
pub fn honest_consensus<A: Agent>(agents: &[A]) -> Option<NestId> {
    let mut consensus: Option<NestId> = None;
    for agent in agents.iter().filter(|a| a.is_honest()) {
        let nest = agent.committed_nest()?;
        match consensus {
            None => consensus = Some(nest),
            Some(existing) if existing == nest => {}
            Some(_) => return None,
        }
    }
    consensus
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::BoxedAgent;
    use hh_model::{Action, Outcome};

    struct Stub {
        nest: Option<NestId>,
        honest: bool,
    }

    impl Agent for Stub {
        fn choose(&mut self, _round: u64) -> Action {
            Action::Search
        }
        fn observe(&mut self, _round: u64, _outcome: &Outcome) {}
        fn committed_nest(&self) -> Option<NestId> {
            self.nest
        }
        fn is_honest(&self) -> bool {
            self.honest
        }
        fn label(&self) -> &'static str {
            "stub"
        }
    }

    fn stub(nest: Option<usize>, honest: bool) -> BoxedAgent {
        Box::new(Stub {
            nest: nest.map(NestId::candidate),
            honest,
        })
    }

    #[test]
    fn consensus_requires_unanimity() {
        let agents = vec![stub(Some(1), true), stub(Some(1), true)];
        assert_eq!(honest_consensus(&agents), Some(NestId::candidate(1)));

        let agents = vec![stub(Some(1), true), stub(Some(2), true)];
        assert_eq!(honest_consensus(&agents), None);

        let agents = vec![stub(Some(1), true), stub(None, true)];
        assert_eq!(honest_consensus(&agents), None);
    }

    #[test]
    fn adversaries_are_ignored() {
        let agents = vec![
            stub(Some(1), true),
            stub(Some(2), false), // Byzantine disagreement
            stub(None, false),
        ];
        assert_eq!(honest_consensus(&agents), Some(NestId::candidate(1)));
    }

    #[test]
    fn empty_and_all_byzantine_colonies_have_no_consensus_nest() {
        let agents: Vec<BoxedAgent> = vec![];
        assert_eq!(honest_consensus(&agents), None);
        let agents = vec![stub(Some(1), false)];
        assert_eq!(honest_consensus(&agents), None);
    }
}
