//! The optimal `O(log n)` house-hunting algorithm — the paper's
//! "Algorithm 2" (Section 4).
//!
//! Every ant searches once, then runs four-round cycles in lockstep with
//! the whole colony. Each cycle, the ants committed to a *competing* nest:
//!
//! 1. (R1) actively recruit at home;
//! 2. (R2) walk to the nest they ended up advocating and count it;
//! 3. (R3/R4) depending on whether the count grew or shrank, either keep
//!    competing — spending R3 at the nest and R4 checking the home-nest
//!    population — or give up and turn passive.
//!
//! A nest whose population ever *decreases* drops out together with all
//! its ants (the comparison is against the previous cycle's count, which
//! every committed ant shares). At least one nest never decreases in a
//! cycle, and each competing nest drops out with probability ≥ 1/66 per
//! cycle (Lemma 4.2), so a single winner remains after `O(log k)` cycles;
//! its ants then detect `c(home) = c(nest)` at R4, switch to the `final`
//! state, and spend every round recruiting the passive ants, which takes
//! a further `O(log n)` rounds with high probability (Theorem 4.3).
//!
//! ## Schedule
//!
//! Round 1 is the search round; for `r ≥ 2` the cycle phase is
//! `(r − 2) mod 4`, see [`CyclePhase`]. The pseudocode's padding calls
//! (lines 13, 18–19, 28, 35–36, 39, 42) are reproduced exactly: they are
//! what keeps active and passive ants from ever meeting at the home nest
//! until a unique winner exists.
//!
//! ## Faithfulness notes
//!
//! * Case 3 (recruited to a new nest) updates the remembered count to the
//!   R3 population when the ant stays active — the paper's prose ("the ant
//!   updates that count") makes the intent clear even though the
//!   pseudocode omits the assignment; see
//!   [clarification 4](hh_model::clarifications#4-case-3-updates-the-remembered-count).
//! * The algorithm relies on exact synchrony and exact counts. Under the
//!   Section 6 perturbations (noise, delays, crashes) it does not panic —
//!   unexpected observations merely mark the ant derailed and its
//!   behaviour degrades — but it is *expected* to fail; measuring that
//!   fragility is experiment F10–F12's job.

use hh_model::{Action, NestId, Outcome};

use crate::agent::{Agent, AgentRole, CyclePhase};

/// The four top-level states of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Round 1: about to search.
    Searching,
    /// Committed to a competing nest, running the active cycle.
    Active,
    /// Committed to a bad or dropped-out nest, waiting to be recruited.
    Passive,
    /// Knows the winning nest; recruits to it every round.
    Final,
}

/// The per-cycle classification made after the R2 population check
/// (Section 4.1's Cases 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    /// Own nest, population non-decreasing: keep competing.
    One,
    /// Own nest, population decreased: drop out at cycle end.
    Two,
    /// Recruited to a different nest this cycle.
    Three,
}

/// An ant running the optimal `O(log n)` algorithm (the paper's
/// Algorithm 2).
///
/// The agent is fully deterministic: all randomness in its execution comes
/// from the environment (search placement and recruitment pairing).
///
/// # Examples
///
/// ```
/// use hh_core::{Agent, OptimalAnt};
/// use hh_model::Action;
///
/// let mut ant = OptimalAnt::new();
/// // Round 1 is always a search.
/// assert_eq!(ant.choose(1), Action::Search);
/// assert_eq!(ant.committed_nest(), None);
/// ```
#[derive(Debug, Clone)]
pub struct OptimalAnt {
    state: State,
    /// The committed nest (the pseudocode's `nest`), set by the search.
    nest: Option<NestId>,
    /// The latest agreed population of the committed nest (`count`),
    /// in the outcome field width.
    count: u32,
    /// This cycle's R1 recruitment result (`nestt`).
    nestt: Option<NestId>,
    /// This cycle's R2 population reading (`countt`), in the outcome
    /// field width.
    countt: u32,
    /// This cycle's case classification, valid after the R2 observation.
    case: Case,
    /// Deferred transition to `Passive`, applied at cycle end.
    next_state: Option<State>,
    /// Set when an observation was inconsistent with the schedule —
    /// possible only under perturbations of the model.
    derailed: bool,
}

impl OptimalAnt {
    /// Creates an ant in the initial (searching) state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: State::Searching,
            nest: None,
            count: 0,
            nestt: None,
            countt: 0,
            case: Case::One,
            next_state: None,
            derailed: false,
        }
    }

    /// Returns `true` if the ant observed something inconsistent with the
    /// synchronous schedule — impossible in the unperturbed model, expected
    /// under the Section 6 fault/asynchrony perturbations.
    #[must_use]
    pub fn is_derailed(&self) -> bool {
        self.derailed
    }

    /// Returns the ant's last agreed count of its committed nest.
    #[must_use]
    pub fn remembered_count(&self) -> usize {
        self.count as usize
    }

    /// The committed nest, or a placeholder for the impossible case of an
    /// uncommitted post-search ant (kept total to stay panic-free under
    /// perturbations).
    #[inline]
    fn nest_or_derail(&mut self) -> NestId {
        match self.nest {
            Some(nest) => nest,
            None => {
                self.derailed = true;
                // No legal action exists without a known nest other than
                // searching again; the executor accepts Search anywhere.
                NestId::candidate(1)
            }
        }
    }

    #[inline]
    fn choose_active(&mut self, phase: CyclePhase) -> Action {
        let nest = self.nest_or_derail();
        match phase {
            CyclePhase::R1 => {
                // New cycle: apply any deferred drop-out missed at R4
                // (only reachable under perturbations), reset scratch.
                if let Some(state) = self.next_state.take() {
                    self.state = state;
                    return self.choose_passive(phase);
                }
                self.nestt = None;
                self.case = Case::One;
                Action::recruit_active(nest)
            }
            CyclePhase::R2 => Action::Go(self.nestt.unwrap_or(nest)),
            CyclePhase::R3 => match self.case {
                Case::One | Case::Three => Action::Go(nest),
                Case::Two => Action::recruit_passive(nest),
            },
            CyclePhase::R4 => match self.case {
                Case::One => Action::recruit_passive(nest),
                Case::Two | Case::Three => Action::Go(nest),
            },
        }
    }

    #[inline]
    fn choose_passive(&mut self, phase: CyclePhase) -> Action {
        let nest = self.nest_or_derail();
        match phase {
            CyclePhase::R2 => Action::recruit_passive(nest),
            _ => Action::Go(nest),
        }
    }

    #[inline]
    fn observe_search(&mut self, outcome: &Outcome) {
        match *outcome {
            Outcome::Search {
                nest,
                quality,
                count,
            } => {
                self.nest = Some(nest);
                self.count = count;
                self.state = if quality.is_good() {
                    State::Active
                } else {
                    State::Passive
                };
            }
            _ => self.derailed = true,
        }
    }

    #[inline]
    fn observe_active(&mut self, phase: CyclePhase, outcome: &Outcome) {
        match (phase, outcome) {
            (CyclePhase::R1, Outcome::Recruit { nest, .. }) => {
                self.nestt = Some(*nest);
            }
            (CyclePhase::R2, Outcome::Go { count, .. }) => {
                let own = self.nest;
                let target = self.nestt.or(own);
                self.countt = *count;
                if target == own {
                    if *count >= self.count {
                        // Case 1: still competing; adopt the new count.
                        self.case = Case::One;
                        self.count = *count;
                    } else {
                        // Case 2: the nest shrank; drop out at cycle end.
                        self.case = Case::Two;
                        self.next_state = Some(State::Passive);
                    }
                } else {
                    // Case 3: recruited into a different nest.
                    self.case = Case::Three;
                    self.nest = target;
                }
            }
            (CyclePhase::R3, Outcome::Go { count, .. }) if self.case == Case::Three => {
                if *count < self.countt {
                    // The new nest is dropping out (its committed ants are
                    // at home this round): give up with it.
                    self.next_state = Some(State::Passive);
                } else {
                    // Competing: adopt its population as our agreed count
                    // (see the faithfulness note in the module docs).
                    self.count = *count;
                }
            }
            (CyclePhase::R3, Outcome::Go { .. }) if self.case == Case::One => {
                // Padding round at the nest (line 28): no assignment.
            }
            (CyclePhase::R3, Outcome::Recruit { .. }) if self.case == Case::Two => {
                // Padding recruit(0, ·) (line 35): result ignored.
            }
            (CyclePhase::R4, Outcome::Recruit { home_count, .. }) if self.case == Case::One => {
                if *home_count == self.count {
                    // Everyone at home belongs to this nest: it won.
                    self.state = State::Final;
                }
            }
            (CyclePhase::R4, Outcome::Go { .. }) => {
                // Padding go (lines 36/42); the deferred drop-out below
                // takes effect.
            }
            _ => self.derailed = true,
        }
        if phase == CyclePhase::R4 && self.state != State::Final {
            if let Some(state) = self.next_state.take() {
                self.state = state;
            }
        }
    }

    #[inline]
    fn observe_passive(&mut self, phase: CyclePhase, outcome: &Outcome) {
        match (phase, outcome) {
            (CyclePhase::R2, Outcome::Recruit { nest, .. }) => {
                if Some(*nest) != self.nest {
                    // Recruited by a final ant: adopt the winner and join
                    // the final chorus (lines 15–17).
                    self.nest = Some(*nest);
                    self.state = State::Final;
                }
            }
            (_, Outcome::Go { .. }) => {}
            _ => self.derailed = true,
        }
    }
}

impl Default for OptimalAnt {
    fn default() -> Self {
        Self::new()
    }
}

impl Agent for OptimalAnt {
    #[inline]
    fn choose(&mut self, round: u64) -> Action {
        let Some(phase) = CyclePhase::of_round(round) else {
            return Action::Search;
        };
        match self.state {
            State::Searching => Action::Search,
            State::Active => self.choose_active(phase),
            State::Passive => self.choose_passive(phase),
            State::Final => Action::recruit_active(self.nest_or_derail()),
        }
    }

    #[inline]
    fn observe(&mut self, round: u64, outcome: &Outcome) {
        let Some(phase) = CyclePhase::of_round(round) else {
            self.observe_search(outcome);
            return;
        };
        match self.state {
            State::Searching => self.observe_search(outcome),
            State::Active => self.observe_active(phase, outcome),
            State::Passive => self.observe_passive(phase, outcome),
            State::Final => {
                // Line 21: ⟨nest, ·⟩ := recruit(1, nest). Only another
                // final ant can recruit this one, so the assignment is a
                // fixpoint once a unique winner exists.
                if let Outcome::Recruit { nest, .. } = outcome {
                    self.nest = Some(*nest);
                } else {
                    self.derailed = true;
                }
            }
        }
    }

    fn committed_nest(&self) -> Option<NestId> {
        self.nest
    }

    fn label(&self) -> &'static str {
        "optimal"
    }

    fn role(&self) -> AgentRole {
        match self.state {
            State::Searching => AgentRole::Searching,
            State::Active => AgentRole::Active,
            State::Passive => AgentRole::Passive,
            State::Final => AgentRole::Final,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{drive_to_consensus, make_env, step_once};
    use hh_model::{ColonyConfig, Environment, QualitySpec};

    #[test]
    fn round_one_searches() {
        let mut ant = OptimalAnt::new();
        assert_eq!(ant.choose(1), Action::Search);
        assert_eq!(ant.committed_nest(), None);
        assert_eq!(ant.role(), AgentRole::Searching);
        assert_eq!(ant.label(), "optimal");
    }

    #[test]
    fn good_search_outcome_activates() {
        let mut ant = OptimalAnt::new();
        ant.choose(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(2),
                quality: hh_model::Quality::GOOD,
                count: 5,
            },
        );
        assert_eq!(ant.committed_nest(), Some(NestId::candidate(2)));
        assert_eq!(ant.role(), AgentRole::Active);
        assert_eq!(ant.remembered_count(), 5);
        // Cycle 1 begins with active recruitment.
        assert_eq!(ant.choose(2), Action::recruit_active(NestId::candidate(2)));
    }

    #[test]
    fn bad_search_outcome_goes_passive() {
        let mut ant = OptimalAnt::new();
        ant.choose(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: hh_model::Quality::BAD,
                count: 3,
            },
        );
        assert_eq!(ant.role(), AgentRole::Passive);
        // Passive cycle: R1 go, R2 recruit(0), R3 go, R4 go.
        assert_eq!(ant.choose(2), Action::Go(NestId::candidate(1)));
        assert_eq!(ant.choose(3), Action::recruit_passive(NestId::candidate(1)));
        assert_eq!(ant.choose(4), Action::Go(NestId::candidate(1)));
        assert_eq!(ant.choose(5), Action::Go(NestId::candidate(1)));
    }

    #[test]
    fn population_decrease_drops_out_at_cycle_end() {
        let mut ant = OptimalAnt::new();
        let nest = NestId::candidate(1);
        ant.choose(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest,
                quality: hh_model::Quality::GOOD,
                count: 10,
            },
        );
        // R1: recruit, no steal.
        ant.choose(2);
        ant.observe(
            2,
            &Outcome::Recruit {
                nest,
                home_count: 10,
            },
        );
        // R2: count dropped from 10 to 4 → Case 2.
        assert_eq!(ant.choose(3), Action::Go(nest));
        ant.observe(
            3,
            &Outcome::Go {
                count: 4,
                quality: None,
            },
        );
        // Still formally active through R3/R4 padding...
        assert_eq!(ant.role(), AgentRole::Active);
        assert_eq!(ant.choose(4), Action::recruit_passive(nest));
        ant.observe(
            4,
            &Outcome::Recruit {
                nest,
                home_count: 1,
            },
        );
        assert_eq!(ant.choose(5), Action::Go(nest));
        ant.observe(
            5,
            &Outcome::Go {
                count: 4,
                quality: None,
            },
        );
        // ...then passive from the next cycle.
        assert_eq!(ant.role(), AgentRole::Passive);
        assert_eq!(ant.choose(6), Action::Go(nest));
    }

    #[test]
    fn case_3_adopts_the_new_nests_count() {
        // Recruited away from nest 1 in R1, the ant follows its recruiter
        // to nest 2 (Case 3) and, still competing in R3, remembers nest
        // 2's population: the assignment the pseudocode omits.
        let mut ant = OptimalAnt::new();
        let (own, other) = (NestId::candidate(1), NestId::candidate(2));
        ant.choose(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest: own,
                quality: hh_model::Quality::GOOD,
                count: 10,
            },
        );
        assert_eq!(ant.choose(2), Action::recruit_active(own));
        ant.observe(
            2,
            &Outcome::Recruit {
                nest: other,
                home_count: 12,
            },
        );
        assert_eq!(ant.choose(3), Action::Go(other));
        ant.observe(
            3,
            &Outcome::Go {
                count: 7,
                quality: None,
            },
        );
        assert_eq!(ant.committed_nest(), Some(other));
        assert_eq!(ant.choose(4), Action::Go(other));
        ant.observe(
            4,
            &Outcome::Go {
                count: 9,
                quality: None,
            },
        );
        assert_eq!(ant.role(), AgentRole::Active);
        assert_eq!(ant.remembered_count(), 9);
    }

    #[test]
    fn equal_home_and_nest_counts_finalize() {
        let mut ant = OptimalAnt::new();
        let nest = NestId::candidate(1);
        ant.choose(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest,
                quality: hh_model::Quality::GOOD,
                count: 4,
            },
        );
        ant.choose(2);
        ant.observe(
            2,
            &Outcome::Recruit {
                nest,
                home_count: 4,
            },
        );
        ant.choose(3);
        ant.observe(
            3,
            &Outcome::Go {
                count: 4,
                quality: None,
            },
        );
        ant.choose(4);
        ant.observe(
            4,
            &Outcome::Go {
                count: 4,
                quality: None,
            },
        );
        ant.choose(5);
        // R4: home population equals the nest population → final.
        ant.observe(
            5,
            &Outcome::Recruit {
                nest,
                home_count: 4,
            },
        );
        assert_eq!(ant.role(), AgentRole::Final);
        // Final ants recruit actively every round.
        for round in 6..10 {
            assert_eq!(ant.choose(round), Action::recruit_active(nest));
        }
    }

    #[test]
    fn recruited_passive_joins_winner() {
        let mut ant = OptimalAnt::new();
        let bad = NestId::candidate(1);
        let winner = NestId::candidate(2);
        ant.choose(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest: bad,
                quality: hh_model::Quality::BAD,
                count: 2,
            },
        );
        // Passive cycle: picked up at R2 by a final ant advocating n2.
        ant.choose(2);
        ant.choose(3);
        ant.observe(
            3,
            &Outcome::Recruit {
                nest: winner,
                home_count: 7,
            },
        );
        assert_eq!(ant.role(), AgentRole::Final);
        assert_eq!(ant.committed_nest(), Some(winner));
        // Remaining padding rounds walk to the new nest, then recruit.
        assert_eq!(ant.choose(4), Action::recruit_active(winner));
    }

    #[test]
    fn solves_single_nest_quickly() {
        let (solved, _env) = drive_to_consensus(
            make_env(8, QualitySpec::all_good(1), 1),
            (0..8)
                .map(|_| Box::new(OptimalAnt::new()) as crate::BoxedAgent)
                .collect(),
            100,
        );
        let (round, winner) = solved.expect("single-nest instance must converge");
        assert_eq!(winner, NestId::candidate(1));
        assert!(
            round <= 6,
            "one nest should finalize in the first cycle, got {round}"
        );
    }

    #[test]
    fn solves_multi_nest_instances() {
        for seed in 0..10 {
            let env = make_env(64, QualitySpec::good_prefix(4, 2), seed);
            let agents = (0..64)
                .map(|_| Box::new(OptimalAnt::new()) as crate::BoxedAgent)
                .collect();
            let (solved, env) = drive_to_consensus(env, agents, 400);
            let (_round, winner) =
                solved.unwrap_or_else(|| panic!("seed {seed}: no consensus within 400 rounds"));
            assert!(
                env.quality_of(winner).unwrap().is_good(),
                "seed {seed}: converged to bad nest {winner}"
            );
        }
    }

    /// Section 4.1's scheduling claim: in R1 rounds (active recruitment),
    /// no passive ant is at the home nest, so active competition is never
    /// polluted — until finals exist, which only happens at the very end.
    #[test]
    fn actives_and_passives_never_meet_before_finals() {
        let config = ColonyConfig::new(48, QualitySpec::good_prefix(6, 3)).seed(5);
        let mut env = Environment::new(&config).unwrap();
        let mut agents: Vec<crate::BoxedAgent> = (0..48)
            .map(|_| Box::new(OptimalAnt::new()) as crate::BoxedAgent)
            .collect();
        for round in 1..=200u64 {
            step_once(&mut env, &mut agents);
            let any_final = agents.iter().any(|a| a.role() == AgentRole::Final);
            if any_final {
                break;
            }
            if CyclePhase::of_round(round + 1) == Some(CyclePhase::R1) {
                // Next round is a competition round: passive ants must be
                // away from home when it executes. We verify the invariant
                // as locations stand between rounds — passive ants sit at
                // their nests through R4→R1.
                for (idx, agent) in agents.iter().enumerate() {
                    if agent.role() == AgentRole::Passive {
                        let loc = env.location_of(hh_model::AntId::new(idx));
                        assert!(
                            !loc.is_home(),
                            "round {round}: passive ant {idx} at home before R1"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unperturbed_runs_never_derail() {
        let env = make_env(32, QualitySpec::good_prefix(4, 2), 9);
        let agents: Vec<crate::BoxedAgent> = (0..32)
            .map(|_| Box::new(OptimalAnt::new()) as crate::BoxedAgent)
            .collect();
        let (solved, _env) = drive_to_consensus(env, agents, 400);
        assert!(solved.is_some());
    }

    /// Simulates the delay perturbation: choose() is called every round
    /// but observations are randomly skipped. The ant must keep emitting
    /// actions without panicking for the whole horizon.
    #[test]
    fn skipped_observations_never_panic() {
        let nest = NestId::candidate(1);
        for skip_phase in 0..4u64 {
            let mut ant = OptimalAnt::new();
            ant.choose(1);
            ant.observe(
                1,
                &Outcome::Search {
                    nest,
                    quality: hh_model::Quality::GOOD,
                    count: 8,
                },
            );
            for round in 2..100u64 {
                let action = ant.choose(round);
                // Fabricate a matching outcome, except in the skipped
                // phase where the observation is dropped entirely.
                if (round + skip_phase) % 4 == 0 {
                    continue;
                }
                let outcome = match action {
                    Action::Search => Outcome::Search {
                        nest,
                        quality: hh_model::Quality::GOOD,
                        count: 3,
                    },
                    Action::Go(_) => Outcome::Go {
                        count: 5,
                        quality: None,
                    },
                    Action::Recruit {
                        nest: advocated, ..
                    } => Outcome::Recruit {
                        nest: advocated,
                        home_count: 6,
                    },
                };
                ant.observe(round, &outcome);
            }
            // The ant is still in a coherent state: it reports a role and
            // a commitment.
            assert!(ant.committed_nest().is_some());
            let _ = ant.role();
        }
    }

    /// A deferred drop-out missed at R4 (because the observation was
    /// skipped) is applied at the next cycle's R1 instead of lingering.
    #[test]
    fn deferred_dropout_applies_at_next_cycle() {
        let nest = NestId::candidate(1);
        let mut ant = OptimalAnt::new();
        ant.choose(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest,
                quality: hh_model::Quality::GOOD,
                count: 10,
            },
        );
        // Cycle 1: R1 recruit (kept), R2 shows a population drop → Case 2.
        ant.choose(2);
        ant.observe(
            2,
            &Outcome::Recruit {
                nest,
                home_count: 10,
            },
        );
        ant.choose(3);
        ant.observe(
            3,
            &Outcome::Go {
                count: 4,
                quality: None,
            },
        );
        // R3 and R4 observations are lost (delays).
        ant.choose(4);
        ant.choose(5);
        // Next cycle's R1: the pending passive transition must fire, so
        // the ant goes to its nest instead of recruiting.
        assert_eq!(ant.choose(6), Action::Go(nest));
        assert_eq!(ant.role(), AgentRole::Passive);
    }

    #[test]
    fn unexpected_outcome_marks_derailed_without_panicking() {
        let mut ant = OptimalAnt::new();
        ant.choose(1);
        // A Go outcome can never answer a search.
        ant.observe(
            1,
            &Outcome::Go {
                count: 1,
                quality: None,
            },
        );
        assert!(ant.is_derailed());
        // The ant keeps producing *some* action.
        let _ = ant.choose(2);
    }
}
