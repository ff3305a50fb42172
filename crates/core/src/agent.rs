//! The agent abstraction: a probabilistic finite state machine driven by
//! the synchronous executor.
//!
//! Section 2 models each ant as a probabilistic finite state machine that
//! performs unlimited local computation plus exactly one model call per
//! round. [`Agent`] captures that loop from the ant's side:
//!
//! 1. the executor asks the agent to [`choose`](Agent::choose) its single
//!    call for round `r`;
//! 2. after the environment resolves the round, the executor hands the
//!    call's return value back through [`observe`](Agent::observe).
//!
//! Under the fault/asynchrony perturbations of Section 6 a chosen action
//! may be *replaced* by a no-op (crash or delay), in which case `observe`
//! is **not** called for that round. Robust agents therefore must not
//! assume a strict choose/observe alternation; the paper's optimal
//! algorithm is deliberately *not* robust to this (its fragility is one of
//! the paper's points), and derails gracefully instead of panicking.
//!
//! The introspection methods ([`committed_nest`](Agent::committed_nest),
//! [`is_honest`](Agent::is_honest), [`role`](Agent::role)) are for the
//! measurement harness only — they are *not* part of the formal model
//! and no agent behaviour may depend on another agent's introspection.

use hh_model::{Action, NestId, Outcome};

/// One ant's algorithm: the decision side of the Section 2 state machine.
///
/// Implementations own whatever private randomness they need (the built-in
/// agents hold a seeded [`DrawKey`](hh_model::seeding::DrawKey) and draw
/// each round's coin as a pure keyed hash of the round number), so a
/// colony of agents plus an [`Environment`](hh_model::Environment) is
/// fully deterministic given the construction seeds.
pub trait Agent {
    /// Chooses the single model call for round `round` (1-based; the first
    /// call of an execution has `round == 1`).
    ///
    /// The returned action must be legal for this ant: in round 1 only
    /// [`Action::Search`] is legal, and thereafter `go`/`recruit` may only
    /// name nests this ant knows. The executor replaces illegal actions
    /// with a no-op rather than crashing the run, but doing so is always an
    /// agent bug (or a Byzantine agent probing the sandbox).
    fn choose(&mut self, round: u64) -> Action;

    /// Receives the return value of this round's call.
    ///
    /// Not invoked for rounds in which the agent's action was replaced by
    /// a crash/delay no-op.
    fn observe(&mut self, round: u64, outcome: &Outcome);

    /// The nest this agent is currently committed to, if any — the paper's
    /// "`nest`" variable. Harness introspection only.
    fn committed_nest(&self) -> Option<NestId>;

    /// `false` for adversarial (Byzantine) agents; the harness evaluates
    /// consensus over honest agents only.
    fn is_honest(&self) -> bool {
        true
    }

    /// A short static name for reporting (`"optimal"`, `"simple"`, …).
    fn label(&self) -> &'static str;

    /// The agent's coarse protocol role, for harness metrics (e.g. counting
    /// how many nests are still competing). Harness introspection only.
    fn role(&self) -> AgentRole {
        AgentRole::Other
    }
}

/// Coarse protocol roles reported by [`Agent::role`] for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AgentRole {
    /// Still searching for a first nest.
    Searching,
    /// Committed and actively competing/recruiting for its nest.
    Active,
    /// Committed to a bad or dropped-out nest, waiting to be recruited.
    Passive,
    /// Irrevocably settled on the committed nest: the optimal
    /// algorithm's `final` state, or an informed spreader. An agent is
    /// final exactly when it reports this role; the `AllFinal`
    /// convergence rule counts it.
    Final,
    /// Anything else (adversaries, custom agents).
    Other,
}

/// A heap-allocated agent, the unit the executor drives. `Send` so whole
/// colonies can be built inside worker threads of the trial runner.
pub type BoxedAgent = Box<dyn Agent + Send>;

impl Agent for BoxedAgent {
    fn choose(&mut self, round: u64) -> Action {
        (**self).choose(round)
    }

    fn observe(&mut self, round: u64, outcome: &Outcome) {
        (**self).observe(round, outcome);
    }

    fn committed_nest(&self) -> Option<NestId> {
        (**self).committed_nest()
    }

    fn is_honest(&self) -> bool {
        (**self).is_honest()
    }

    fn label(&self) -> &'static str {
        (**self).label()
    }

    fn role(&self) -> AgentRole {
        (**self).role()
    }
}

/// The four-round cycle phase used by the optimal algorithm's schedule.
///
/// Round 1 is the one-off search round; rounds `r ≥ 2` cycle through
/// `R1 → R2 → R3 → R4` with `phase = (r − 2) mod 4`. All ants share the
/// same global phase because they all search in round 1 and start cycling
/// together in round 2 — this is the alignment that keeps active and
/// passive ants from meeting mid-competition (Section 4.1).
///
/// # Examples
///
/// ```
/// use hh_core::CyclePhase;
///
/// assert_eq!(CyclePhase::of_round(1), None); // the search round
/// assert_eq!(CyclePhase::of_round(2), Some(CyclePhase::R1));
/// assert_eq!(CyclePhase::of_round(5), Some(CyclePhase::R4));
/// assert_eq!(CyclePhase::of_round(6), Some(CyclePhase::R1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CyclePhase {
    /// Active ants recruit; passive ants are away at their nests.
    R1,
    /// Active ants assess the nest they ended up advocating; passive ants
    /// wait at home to be picked up.
    R2,
    /// Competing-nest ants hold position; freshly dropped ants idle at
    /// home.
    R3,
    /// Competing-nest ants compare home and nest populations.
    R4,
}

impl CyclePhase {
    /// Maps a global round number to its cycle phase; `None` for the
    /// search round (round 1) and the pre-execution round 0.
    #[must_use]
    pub fn of_round(round: u64) -> Option<CyclePhase> {
        if round < 2 {
            return None;
        }
        Some(match (round - 2) % 4 {
            0 => CyclePhase::R1,
            1 => CyclePhase::R2,
            2 => CyclePhase::R3,
            _ => CyclePhase::R4,
        })
    }

    /// Returns `true` if `round` is an active-recruitment round (phase
    /// R1): the rounds the paper's Section 4.2 analysis calls the
    /// competition rounds.
    #[must_use]
    pub fn is_competition_round(round: u64) -> bool {
        Self::of_round(round) == Some(CyclePhase::R1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_cycle_repeats_every_four() {
        assert_eq!(CyclePhase::of_round(0), None);
        assert_eq!(CyclePhase::of_round(1), None);
        let expected = [
            CyclePhase::R1,
            CyclePhase::R2,
            CyclePhase::R3,
            CyclePhase::R4,
        ];
        for cycle in 0..5u64 {
            for (offset, &phase) in expected.iter().enumerate() {
                let round = 2 + cycle * 4 + offset as u64;
                assert_eq!(CyclePhase::of_round(round), Some(phase), "round {round}");
            }
        }
    }

    #[test]
    fn competition_rounds_are_phase_r1() {
        assert!(CyclePhase::is_competition_round(2));
        assert!(CyclePhase::is_competition_round(6));
        assert!(!CyclePhase::is_competition_round(1));
        assert!(!CyclePhase::is_competition_round(3));
    }

    #[test]
    fn boxed_agent_forwards() {
        struct Probe(u32);
        impl Agent for Probe {
            fn choose(&mut self, _round: u64) -> Action {
                self.0 += 1;
                Action::Search
            }
            fn observe(&mut self, _round: u64, _outcome: &Outcome) {
                self.0 += 10;
            }
            fn committed_nest(&self) -> Option<NestId> {
                Some(NestId::candidate(3))
            }
            fn label(&self) -> &'static str {
                "probe"
            }
        }
        let mut boxed: BoxedAgent = Box::new(Probe(0));
        assert_eq!(boxed.choose(1), Action::Search);
        boxed.observe(
            1,
            &Outcome::Go {
                count: 0,
                quality: None,
            },
        );
        assert_eq!(boxed.committed_nest(), Some(NestId::candidate(3)));
        assert_eq!(boxed.role(), AgentRole::Other);
        assert!(boxed.is_honest());
        assert_eq!(boxed.label(), "probe");
    }
}
