//! Adversarial agents for the fault-tolerance experiments — Section 6's
//! "malicious faults" extension.
//!
//! A Byzantine ant is still bound by the model: it makes exactly one legal
//! call per round and cannot forge recruitment (the pairing is run by the
//! environment). Its only attack surface is *what* it advocates and
//! *when*. The two adversaries here exercise that surface:
//!
//! * [`BadNestRecruiter`] — hunts for a bad nest, then recruits honest
//!   ants to it forever. Against the paper-faithful simple algorithm
//!   (which never re-checks quality after a tandem run) this is the
//!   strongest practical attack: every hijacked ant starts amplifying the
//!   bad nest itself.
//! * [`SleeperAnt`] — runs the honest simple algorithm until a trigger
//!   round, then turns into a [`BadNestRecruiter`]: tests whether a
//!   near-converged colony can be destabilized.
//!
//! All adversaries report [`Agent::is_honest`] `false`, so the harness
//! evaluates consensus over the honest sub-colony only (experiment F12).

use hh_model::{Action, NestId, Outcome};

use crate::agent::{Agent, AgentRole};
use crate::simple::{SimpleAnt, UrnOptions};

/// An adversary that recruits honest ants to a bad nest forever.
///
/// Until it discovers a bad nest by searching it behaves like a harmless
/// searcher; if the environment has no bad nest it stays harmless.
///
/// # Examples
///
/// ```
/// use hh_core::{Agent, BadNestRecruiter};
/// use hh_model::Action;
///
/// let mut ant = BadNestRecruiter::new();
/// assert_eq!(ant.choose(1), Action::Search);
/// assert!(!ant.is_honest());
/// ```
#[derive(Debug, Clone, Default)]
pub struct BadNestRecruiter {
    target: Option<NestId>,
}

impl BadNestRecruiter {
    /// Creates an adversary with no target yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the bad nest being advocated, once found.
    #[must_use]
    pub fn target(&self) -> Option<NestId> {
        self.target
    }
}

impl Agent for BadNestRecruiter {
    fn choose(&mut self, _round: u64) -> Action {
        match self.target {
            Some(nest) => Action::recruit_active(nest),
            None => Action::Search,
        }
    }

    fn observe(&mut self, _round: u64, outcome: &Outcome) {
        if self.target.is_none() {
            if let Outcome::Search { nest, quality, .. } = outcome {
                if !quality.is_good() {
                    self.target = Some(*nest);
                }
            }
        }
    }

    fn committed_nest(&self) -> Option<NestId> {
        // Adversaries are excluded from consensus accounting; reporting
        // the target would only confuse metrics.
        None
    }

    fn is_honest(&self) -> bool {
        false
    }

    fn label(&self) -> &'static str {
        "byz-bad-recruiter"
    }
}

/// An adversary that behaves honestly until `trigger_round`, then attacks
/// like a [`BadNestRecruiter`].
#[derive(Debug, Clone)]
pub struct SleeperAnt {
    inner: SimpleAnt,
    trigger_round: u64,
    bad_target: Option<NestId>,
}

impl SleeperAnt {
    /// Creates a sleeper that runs the honest simple algorithm (for a
    /// colony of `n`) until `trigger_round`.
    #[must_use]
    pub fn new(n: usize, seed: u64, trigger_round: u64) -> Self {
        Self {
            inner: SimpleAnt::with_options(n, seed, UrnOptions::default()),
            trigger_round,
            bad_target: None,
        }
    }

    /// Returns `true` once the sleeper has turned.
    #[must_use]
    pub fn is_awake(&self, round: u64) -> bool {
        round >= self.trigger_round
    }
}

impl Agent for SleeperAnt {
    fn choose(&mut self, round: u64) -> Action {
        if round < self.trigger_round {
            return self.inner.choose(round);
        }
        match self.bad_target {
            Some(nest) => Action::recruit_active(nest),
            None => Action::Search,
        }
    }

    fn observe(&mut self, round: u64, outcome: &Outcome) {
        // Record bad nests whenever seen, pre- or post-trigger.
        if let Outcome::Search { nest, quality, .. } = outcome {
            if !quality.is_good() && self.bad_target.is_none() {
                self.bad_target = Some(*nest);
            }
        }
        if round < self.trigger_round {
            self.inner.observe(round, outcome);
        }
    }

    fn committed_nest(&self) -> Option<NestId> {
        None
    }

    fn is_honest(&self) -> bool {
        false
    }

    fn label(&self) -> &'static str {
        "byz-sleeper"
    }

    fn role(&self) -> AgentRole {
        AgentRole::Other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{boxed_colony, drive_to_consensus, make_env};
    use hh_model::{Quality, QualitySpec};

    #[test]
    fn bad_recruiter_locks_onto_bad_nest() {
        let mut ant = BadNestRecruiter::new();
        assert_eq!(ant.choose(1), Action::Search);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(2),
                quality: Quality::GOOD,
                count: 1,
            },
        );
        assert_eq!(ant.target(), None, "good nests are not targets");
        assert_eq!(ant.choose(2), Action::Search);
        ant.observe(
            2,
            &Outcome::Search {
                nest: NestId::candidate(3),
                quality: Quality::BAD,
                count: 1,
            },
        );
        assert_eq!(ant.target(), Some(NestId::candidate(3)));
        for round in 3..8 {
            assert_eq!(
                ant.choose(round),
                Action::recruit_active(NestId::candidate(3))
            );
        }
        assert!(!ant.is_honest());
        assert_eq!(ant.committed_nest(), None);
    }

    #[test]
    fn sleeper_behaves_honestly_then_turns() {
        let mut ant = SleeperAnt::new(10, 0, 6);
        assert!(!ant.is_awake(5));
        assert!(ant.is_awake(6));
        assert_eq!(ant.choose(1), Action::Search);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::BAD,
                count: 1,
            },
        );
        // Pre-trigger: passive simple behaviour (bad nest → wait).
        assert_eq!(ant.choose(2), Action::recruit_passive(NestId::candidate(1)));
        // Post-trigger: attacks with the recorded bad nest.
        assert_eq!(ant.choose(6), Action::recruit_active(NestId::candidate(1)));
    }

    /// The paper-faithful simple colony still converges when a *small*
    /// number of adversaries attack: their recruitment rate is bounded by
    /// their head-count.
    #[test]
    fn small_adversary_fraction_is_survivable() {
        let n = 96;
        let byz = 4;
        let mut solved_count = 0;
        for seed in 0..6 {
            let env = make_env(n, QualitySpec::good_prefix(4, 2), 100 + seed);
            let mut agents = boxed_colony(n - byz, |i| SimpleAnt::new(n, seed * 97 + i as u64));
            for _ in 0..byz {
                agents.push(Box::new(BadNestRecruiter::new()));
            }
            let (solved, env) = drive_to_consensus(env, agents, 4_000);
            if let Some((_, winner)) = solved {
                assert!(env.quality_of(winner).unwrap().is_good());
                solved_count += 1;
            }
        }
        assert!(
            solved_count >= 4,
            "honest colony should usually survive 4% adversaries, solved {solved_count}/6"
        );
    }
}
