//! Information-spreading agents for the lower-bound experiments
//! (Section 3).
//!
//! The paper's Ω(log n) lower bound (Theorem 3.2) abstracts house-hunting
//! as rumor spreading: with a single good nest `n_w`, the nest's identity
//! is the rumor, an ant is *informed* once it knows `w`, and an ignorant
//! ant stays ignorant through a round with probability ≥ 1/4 regardless of
//! the algorithm (Lemma 3.1). The bound therefore applies to every
//! conceivable algorithm in the model.
//!
//! [`SpreaderAnt`] makes the bound *measurable*: it implements best-case
//! information spreading — informed ants do nothing but recruit toward
//! `w`, and ignorant ants follow one of three maximally-cooperative
//! [`SpreadStrategy`]s. Even this idealized family needs `Ω(log n)` rounds
//! (experiment F1), and its measured curves bound from below what the real
//! algorithms of Sections 4–5 can achieve.
//!
//! As in the lower-bound setup, an ant recognizes the winning nest as soon
//! as it learns its id, either by searching into it (it observes quality 1)
//! or by being recruited (only informed ants recruit, so any recruitment
//! communicates `w`).

use hh_model::seeding::DrawKey;
use hh_model::{Action, NestId, Outcome};

use crate::agent::{Agent, AgentRole};

/// What an ignorant spreader does each round.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SpreadStrategy {
    /// Wait at home to be recruited. Information flows only through
    /// recruitment — the purest analogue of PUSH rumor spreading.
    WaitAtHome,
    /// Keep searching; information flows only through lucky searches
    /// (finding `n_w` directly, probability `1/k` per round). Recruitment
    /// never helps because searchers are absent from the pairing.
    SearchForever,
    /// Search with probability `p`, otherwise wait at home — the
    /// interpolation between the two pure strategies.
    Hybrid {
        /// Per-round search probability for ignorant ants.
        search_probability: f64,
    },
}

impl SpreadStrategy {
    /// A short static name for reporting.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SpreadStrategy::WaitAtHome => "spreader-wait",
            SpreadStrategy::SearchForever => "spreader-search",
            SpreadStrategy::Hybrid { .. } => "spreader-hybrid",
        }
    }
}

/// A best-case information-spreading ant for the single-good-nest setting.
///
/// # Examples
///
/// ```
/// use hh_core::{Agent, SpreadStrategy, SpreaderAnt};
/// use hh_model::Action;
///
/// let mut ant = SpreaderAnt::new(SpreadStrategy::WaitAtHome, 3);
/// assert_eq!(ant.choose(1), Action::Search);
/// assert!(!ant.is_informed());
/// ```
#[derive(Debug, Clone)]
pub struct SpreaderAnt {
    strategy: SpreadStrategy,
    key: DrawKey,
    /// `Some(w)` once informed of the winning nest.
    informed: Option<NestId>,
    /// A known (bad) nest used as the argument of waiting `recruit(0, ·)`
    /// calls.
    anchor: Option<NestId>,
}

impl SpreaderAnt {
    /// Creates an ignorant spreader with the given strategy.
    #[must_use]
    pub fn new(strategy: SpreadStrategy, seed: u64) -> Self {
        Self {
            strategy,
            key: DrawKey::from_seed(seed),
            informed: None,
            anchor: None,
        }
    }

    /// Returns `true` once this ant knows the winning nest.
    #[must_use]
    pub fn is_informed(&self) -> bool {
        self.informed.is_some()
    }

    /// Returns the strategy.
    #[must_use]
    pub fn strategy(&self) -> SpreadStrategy {
        self.strategy
    }
}

impl Agent for SpreaderAnt {
    fn choose(&mut self, round: u64) -> Action {
        if round <= 1 {
            return Action::Search;
        }
        if let Some(winner) = self.informed {
            return Action::recruit_active(winner);
        }
        let wait = |anchor: Option<NestId>| match anchor {
            Some(nest) => Action::recruit_passive(nest),
            // No nest known (lost round-1 observation): search again.
            None => Action::Search,
        };
        match self.strategy {
            SpreadStrategy::WaitAtHome => wait(self.anchor),
            SpreadStrategy::SearchForever => Action::Search,
            SpreadStrategy::Hybrid { search_probability } => {
                let p = search_probability.clamp(0.0, 1.0);
                if p > 0.0 && self.key.coin(round, p) {
                    Action::Search
                } else {
                    wait(self.anchor)
                }
            }
        }
    }

    fn observe(&mut self, _round: u64, outcome: &Outcome) {
        match outcome {
            Outcome::Search { nest, quality, .. } => {
                if self.anchor.is_none() {
                    self.anchor = Some(*nest);
                }
                if quality.is_good() {
                    self.informed = Some(*nest);
                }
            }
            Outcome::Recruit { nest, .. } => {
                if self.informed.is_none() && Some(*nest) != self.anchor {
                    // Only informed ants recruit actively, so a changed
                    // nest id communicates the winner.
                    self.informed = Some(*nest);
                }
            }
            Outcome::Go { .. } => {}
        }
    }

    fn committed_nest(&self) -> Option<NestId> {
        self.informed
    }

    fn label(&self) -> &'static str {
        self.strategy.label()
    }

    fn role(&self) -> AgentRole {
        if self.informed.is_some() {
            AgentRole::Final
        } else {
            AgentRole::Searching
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{boxed_colony, make_env, step_once};
    use hh_model::{Quality, QualitySpec};

    #[test]
    fn search_informs_on_good_nest() {
        let mut ant = SpreaderAnt::new(SpreadStrategy::WaitAtHome, 0);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(3),
                quality: Quality::GOOD,
                count: 1,
            },
        );
        assert!(ant.is_informed());
        assert_eq!(ant.committed_nest(), Some(NestId::candidate(3)));
        assert_eq!(ant.choose(2), Action::recruit_active(NestId::candidate(3)));
    }

    #[test]
    fn bad_search_sets_anchor_only() {
        let mut ant = SpreaderAnt::new(SpreadStrategy::WaitAtHome, 1);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(2),
                quality: Quality::BAD,
                count: 1,
            },
        );
        assert!(!ant.is_informed());
        assert_eq!(ant.choose(2), Action::recruit_passive(NestId::candidate(2)));
    }

    #[test]
    fn recruitment_to_new_nest_informs() {
        let mut ant = SpreaderAnt::new(SpreadStrategy::WaitAtHome, 2);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::BAD,
                count: 1,
            },
        );
        ant.observe(
            2,
            &Outcome::Recruit {
                nest: NestId::candidate(4),
                home_count: 9,
            },
        );
        assert!(ant.is_informed());
        assert_eq!(ant.committed_nest(), Some(NestId::candidate(4)));
    }

    #[test]
    fn unrecruited_wait_stays_ignorant() {
        let mut ant = SpreaderAnt::new(SpreadStrategy::WaitAtHome, 3);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::BAD,
                count: 1,
            },
        );
        // recruit() returned its own input.
        ant.observe(
            2,
            &Outcome::Recruit {
                nest: NestId::candidate(1),
                home_count: 9,
            },
        );
        assert!(!ant.is_informed());
    }

    #[test]
    fn search_strategy_always_searches_when_ignorant() {
        let mut ant = SpreaderAnt::new(SpreadStrategy::SearchForever, 4);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::BAD,
                count: 1,
            },
        );
        for round in 2..10 {
            assert_eq!(ant.choose(round), Action::Search);
        }
    }

    #[test]
    fn hybrid_mixes_both() {
        let mut ant = SpreaderAnt::new(
            SpreadStrategy::Hybrid {
                search_probability: 0.5,
            },
            5,
        );
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::BAD,
                count: 1,
            },
        );
        let mut searches = 0;
        let mut waits = 0;
        for round in 2..202 {
            match ant.choose(round) {
                Action::Search => searches += 1,
                Action::Recruit { active: false, .. } => waits += 1,
                other => panic!("unexpected action {other}"),
            }
        }
        assert!(
            searches > 50 && waits > 50,
            "searches {searches}, waits {waits}"
        );
    }

    #[test]
    fn whole_colony_becomes_informed() {
        for strategy in [
            SpreadStrategy::WaitAtHome,
            SpreadStrategy::SearchForever,
            SpreadStrategy::Hybrid {
                search_probability: 0.3,
            },
        ] {
            let mut env = make_env(64, QualitySpec::single_good(2, 1), 17);
            let mut agents = boxed_colony(64, |i| SpreaderAnt::new(strategy, i as u64));
            let mut informed_at = None;
            for round in 1..=2_000u64 {
                step_once(&mut env, &mut agents);
                if agents.iter().all(|a| a.role() == AgentRole::Final) {
                    informed_at = Some(round);
                    break;
                }
            }
            let round = informed_at
                .unwrap_or_else(|| panic!("{}: colony never informed", strategy.label()));
            assert!(
                round >= 2,
                "{}: 64 ants cannot all learn the nest in one round",
                strategy.label()
            );
        }
    }
}
