//! The simple `O(k log n)` house-hunting algorithm — the paper's
//! "Algorithm 3" (Section 5) — and the recruit-probability abstraction
//! shared with its Section 6 variants.
//!
//! The algorithm is a single positive-feedback rule: after one initial
//! search, every ant alternates between a *recruitment round* at home
//! (even rounds) and an *assessment round* at its committed nest (odd
//! rounds). At each recruitment round an ant committed to a good nest
//! recruits actively with probability proportional to the population it
//! last counted there — `count / n` in the paper. Larger nests therefore
//! recruit more, swamp smaller nests Polya-urn style, and within
//! `O(k log n)` rounds a single nest holds the whole colony with high
//! probability (Theorem 5.11).
//!
//! [`UrnAnt`] implements the shared skeleton; the probability rule is a
//! pluggable [`RecruitPolicy`] so that Section 6's "improved running time"
//! variant (`hh-core::adaptive`) reuses the identical state machine with a
//! different rule. [`SimpleAnt`] is the paper's `count / n` instantiation.
//!
//! ## Optional hardening (off by default, see [`UrnOptions`])
//!
//! **Arrival re-assessment** — the paper's pseudocode never re-checks
//! quality after a recruitment, which is safe in the honest setting (only
//! good nests recruit) but exploitable by Byzantine recruiters. When the
//! environment runs the "assessing go" extension, this option makes a
//! recruited ant verify its new nest's quality on arrival and turn
//! passive if bad.

use hh_model::seeding::DrawKey;
use hh_model::{Action, NestId, Outcome};

use crate::agent::{Agent, AgentRole};

/// The recruit-probability rule of an urn-style agent: given the last
/// assessed population of the ant's nest, the colony size, and the round
/// number, return the probability of calling `recruit(1, ·)` this round.
///
/// Implementations must return values in `[0, 1]`; the agent clamps
/// defensively.
pub trait RecruitPolicy: Send {
    /// Probability of active recruitment for this round.
    fn recruit_probability(&self, count: usize, n: usize, round: u64) -> f64;

    /// A short static name for reporting.
    fn label(&self) -> &'static str;
}

/// The paper's Algorithm 3 rule: recruit with probability `count / n`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearPolicy;

impl RecruitPolicy for LinearPolicy {
    /// `count / n`, sanitized at the rule boundary (mirroring the quorum
    /// rule's sanitization in `hh-sim`): a degenerate `n = 0` colony
    /// yields probability `0.0` — not the NaN a raw division would
    /// produce — and `count > n` (expressible through the trait, even
    /// though the environment never reports it) clamps to `1.0` instead
    /// of leaking `p > 1` and relying on the call site to launder it.
    fn recruit_probability(&self, count: usize, n: usize, _round: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        (count as f64 / n as f64).min(1.0)
    }

    fn label(&self) -> &'static str {
        "simple"
    }
}

/// Behavioural options for [`UrnAnt`]; the default is paper-faithful
/// (no re-assessment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UrnOptions {
    /// Re-check quality on arrival after being recruited (requires the
    /// environment's "assessing go" extension; inert otherwise).
    pub reassess_on_arrival: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Pre-search.
    Searching,
    /// Committed to a (believed) good nest; recruiting at even rounds.
    Active,
    /// Committed to a bad nest; waiting to be recruited.
    Passive,
}

/// The urn-style agent skeleton shared by the simple algorithm and its
/// Section 6 variants; generic over the [`RecruitPolicy`].
///
/// # Examples
///
/// ```
/// use hh_core::{Agent, SimpleAnt};
/// use hh_model::Action;
///
/// let mut ant = SimpleAnt::new(100, 42);
/// assert_eq!(ant.choose(1), Action::Search);
/// assert_eq!(ant.label(), "simple");
/// ```
#[derive(Debug, Clone)]
pub struct UrnAnt<P> {
    // Field widths are deliberately compact: colonies stream every agent
    // through choose/observe every round, so agent size is engine memory
    // bandwidth. `NestId::HOME` stands in for "no commitment" (ants never
    // commit to the home nest).
    key: DrawKey,
    n: u32,
    count: u32,
    nest: NestId,
    policy: P,
    options: UrnOptions,
    state: State,
    /// Verify the new nest's quality at the next assessment round.
    pending_assessment: bool,
}

impl<P: RecruitPolicy> UrnAnt<P> {
    /// Creates an agent for a colony of `n` ants with the given policy and
    /// options; `seed` drives the agent's private coin flips.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    #[must_use]
    pub fn with_policy(n: usize, seed: u64, policy: P, options: UrnOptions) -> Self {
        Self {
            key: DrawKey::from_seed(seed),
            n: n.try_into().expect("colony size fits u32"),
            count: 0,
            nest: NestId::HOME,
            policy,
            options,
            state: State::Searching,
            pending_assessment: false,
        }
    }

    fn committed(&self) -> Option<NestId> {
        if self.nest.is_home() {
            None
        } else {
            Some(self.nest)
        }
    }

    /// The **single** coin-draw site of the urn state machine: decides
    /// whether a committed ant recruits actively this round. The draw is
    /// a pure keyed function of `(key, round)` — no stream state
    /// advances — so a repeated `choose(round)` returns the same action.
    fn recruit_draw(&self, round: u64) -> bool {
        self.state == State::Active && {
            let p = self
                .policy
                .recruit_probability(self.count as usize, self.n as usize, round)
                .clamp(0.0, 1.0);
            p > 0.0 && self.key.coin(round, p)
        }
    }
}

/// The paper's Algorithm 3: [`UrnAnt`] with the `count / n` rule.
pub type SimpleAnt = UrnAnt<LinearPolicy>;

impl SimpleAnt {
    /// Creates a paper-faithful simple ant.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_policy(n, seed, LinearPolicy, UrnOptions::default())
    }

    /// Creates a simple ant with explicit options.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    #[must_use]
    pub fn with_options(n: usize, seed: u64, options: UrnOptions) -> Self {
        Self::with_policy(n, seed, LinearPolicy, options)
    }
}

impl<P: RecruitPolicy> Agent for UrnAnt<P> {
    fn choose(&mut self, round: u64) -> Action {
        if round <= 1 {
            return Action::Search;
        }
        let Some(nest) = self.committed() else {
            // Only reachable if the round-1 observation was lost to a
            // perturbation: search again, the one always-legal call.
            return Action::Search;
        };
        match self.state {
            State::Searching => Action::Search,
            State::Active | State::Passive => {
                if round.is_multiple_of(2) {
                    // Recruitment round at home.
                    Action::Recruit {
                        active: self.recruit_draw(round),
                        nest,
                    }
                } else {
                    // Assessment round at the nest.
                    Action::Go(nest)
                }
            }
        }
    }

    fn observe(&mut self, _round: u64, outcome: &Outcome) {
        match outcome {
            Outcome::Search {
                nest,
                quality,
                count,
            } => {
                self.nest = *nest;
                self.count = *count;
                self.state = if quality.is_good() {
                    State::Active
                } else {
                    State::Passive
                };
            }
            Outcome::Recruit { nest, .. } => {
                if *nest != self.nest {
                    // Recruited to a different nest: commit and (re)activate
                    // (Algorithm 3 lines 7 and 11–13).
                    self.nest = *nest;
                    self.state = State::Active;
                    self.pending_assessment = self.options.reassess_on_arrival;
                }
            }
            Outcome::Go { count, quality } => {
                self.count = *count;
                if self.pending_assessment {
                    self.pending_assessment = false;
                    if let Some(q) = quality {
                        if !q.is_good() {
                            // Hardening: carried to a bad nest — refuse to
                            // amplify it.
                            self.state = State::Passive;
                        }
                    }
                }
            }
        }
    }

    fn committed_nest(&self) -> Option<NestId> {
        self.committed()
    }

    fn label(&self) -> &'static str {
        self.policy.label()
    }

    fn role(&self) -> AgentRole {
        match self.state {
            State::Searching => AgentRole::Searching,
            State::Active => AgentRole::Active,
            State::Passive => AgentRole::Passive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        boxed_colony, drive_to_consensus, make_env, make_env_revealing, step_once,
    };
    use hh_model::{Quality, QualitySpec};

    /// S1 regression (pre-fix: `0 / 0` returned NaN, which the call-site
    /// `clamp` passed straight through).
    #[test]
    fn linear_policy_zero_n_yields_zero_not_nan() {
        let p = LinearPolicy.recruit_probability(0, 0, 2);
        assert_eq!(p, 0.0, "n = 0 must sanitize to 0.0, got {p}");
        let p = LinearPolicy.recruit_probability(7, 0, 2);
        assert_eq!(p, 0.0, "count > 0 with n = 0 must still be 0.0, got {p}");
    }

    /// S1 regression (pre-fix: `15 / 10` returned 1.5 and relied on the
    /// call site to launder it back into `[0, 1]`).
    #[test]
    fn linear_policy_count_above_n_clamps_to_one() {
        let p = LinearPolicy.recruit_probability(15, 10, 2);
        assert_eq!(p, 1.0, "count > n must clamp to 1.0 at the rule, got {p}");
    }

    #[test]
    fn searches_first() {
        let mut ant = SimpleAnt::new(10, 0);
        assert_eq!(ant.choose(1), Action::Search);
        assert_eq!(ant.role(), AgentRole::Searching);
    }

    #[test]
    fn good_nest_activates_bad_nest_pacifies() {
        let mut good = SimpleAnt::new(10, 0);
        good.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::GOOD,
                count: 5,
            },
        );
        assert_eq!(good.role(), AgentRole::Active);

        let mut bad = SimpleAnt::new(10, 0);
        bad.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(2),
                quality: Quality::BAD,
                count: 5,
            },
        );
        assert_eq!(bad.role(), AgentRole::Passive);
        // Passive ants always wait.
        assert_eq!(bad.choose(2), Action::recruit_passive(NestId::candidate(2)));
        assert_eq!(bad.choose(3), Action::Go(NestId::candidate(2)));
    }

    #[test]
    fn alternates_recruitment_and_assessment() {
        let mut ant = SimpleAnt::new(10, 1);
        let nest = NestId::candidate(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest,
                quality: Quality::GOOD,
                count: 10,
            },
        );
        // count = n: recruit probability 1 — always active.
        match ant.choose(2) {
            Action::Recruit { active, nest: n2 } => {
                assert!(active, "count = n must recruit with probability 1");
                assert_eq!(n2, nest);
            }
            other => panic!("expected recruit, got {other}"),
        }
        assert_eq!(ant.choose(3), Action::Go(nest));
    }

    #[test]
    fn zero_count_never_recruits_actively() {
        let mut ant = SimpleAnt::new(10, 2);
        let nest = NestId::candidate(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest,
                quality: Quality::GOOD,
                count: 10,
            },
        );
        ant.observe(
            3,
            &Outcome::Go {
                count: 0,
                quality: None,
            },
        );
        for trial in 0..50u64 {
            match ant.choose(4 + trial * 2) {
                Action::Recruit { active, .. } => assert!(!active),
                other => panic!("expected recruit, got {other}"),
            }
        }
    }

    #[test]
    fn recruit_probability_tracks_count() {
        // Statistical check of the count/n rule.
        let mut ant = SimpleAnt::new(100, 3);
        let nest = NestId::candidate(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest,
                quality: Quality::GOOD,
                count: 25,
            },
        );
        let trials = 8_000;
        let mut active = 0;
        for t in 0..trials {
            if let Action::Recruit { active: a, .. } = ant.choose(2 + 2 * t) {
                active += u32::from(a);
            }
        }
        let rate = f64::from(active) / f64::from(trials as u32);
        assert!(
            (0.2..=0.3).contains(&rate),
            "recruit rate {rate}, expected ≈ 0.25"
        );
    }

    #[test]
    fn recruited_ant_switches_commitment() {
        let mut ant = SimpleAnt::new(10, 4);
        let bad = NestId::candidate(1);
        let good = NestId::candidate(2);
        ant.observe(
            1,
            &Outcome::Search {
                nest: bad,
                quality: Quality::BAD,
                count: 1,
            },
        );
        assert_eq!(ant.role(), AgentRole::Passive);
        ant.observe(
            2,
            &Outcome::Recruit {
                nest: good,
                home_count: 5,
            },
        );
        assert_eq!(ant.committed_nest(), Some(good));
        assert_eq!(ant.role(), AgentRole::Active);
        assert_eq!(ant.choose(3), Action::Go(good));
    }

    #[test]
    fn unrecruited_passive_stays_passive() {
        let mut ant = SimpleAnt::new(10, 5);
        let bad = NestId::candidate(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest: bad,
                quality: Quality::BAD,
                count: 1,
            },
        );
        // recruit() returned its own input: not recruited.
        ant.observe(
            2,
            &Outcome::Recruit {
                nest: bad,
                home_count: 5,
            },
        );
        assert_eq!(ant.role(), AgentRole::Passive);
    }

    #[test]
    fn paper_options_never_settle() {
        let mut ant = SimpleAnt::new(10, 7);
        let nest = NestId::candidate(1);
        ant.observe(
            1,
            &Outcome::Search {
                nest,
                quality: Quality::GOOD,
                count: 10,
            },
        );
        ant.observe(
            3,
            &Outcome::Go {
                count: 10,
                quality: None,
            },
        );
        // The whole colony counted at the nest: the ant still keeps
        // returning home to recruit, it never parks.
        assert_eq!(ant.role(), AgentRole::Active);
        assert_eq!(ant.choose(4), Action::recruit_active(nest));
        assert_eq!(ant.choose(5), Action::Go(nest));
    }

    #[test]
    fn reassessment_rejects_bad_nest() {
        let mut ant = SimpleAnt::with_options(
            10,
            8,
            UrnOptions {
                reassess_on_arrival: true,
            },
        );
        let good = NestId::candidate(1);
        let bad = NestId::candidate(2);
        ant.observe(
            1,
            &Outcome::Search {
                nest: good,
                quality: Quality::GOOD,
                count: 3,
            },
        );
        // Byzantine recruiter drags the ant to a bad nest...
        ant.observe(
            2,
            &Outcome::Recruit {
                nest: bad,
                home_count: 5,
            },
        );
        assert_eq!(
            ant.role(),
            AgentRole::Active,
            "trusts the tandem run initially"
        );
        // ...but the assessing go reveals the truth.
        ant.observe(
            3,
            &Outcome::Go {
                count: 2,
                quality: Some(Quality::BAD),
            },
        );
        assert_eq!(ant.role(), AgentRole::Passive);
    }

    #[test]
    fn without_reassessment_bad_recruitment_sticks() {
        let mut ant = SimpleAnt::new(10, 9);
        let good = NestId::candidate(1);
        let bad = NestId::candidate(2);
        ant.observe(
            1,
            &Outcome::Search {
                nest: good,
                quality: Quality::GOOD,
                count: 3,
            },
        );
        ant.observe(
            2,
            &Outcome::Recruit {
                nest: bad,
                home_count: 5,
            },
        );
        ant.observe(
            3,
            &Outcome::Go {
                count: 2,
                quality: Some(Quality::BAD),
            },
        );
        // Paper-faithful: quality is never re-checked.
        assert_eq!(ant.role(), AgentRole::Active);
    }

    #[test]
    fn colony_converges_on_single_good_nest() {
        for seed in 0..8 {
            let env = make_env(64, QualitySpec::good_prefix(4, 2), seed);
            let agents = boxed_colony(64, |i| SimpleAnt::new(64, seed * 1000 + i as u64));
            let (solved, env) = drive_to_consensus(env, agents, 3_000);
            let (_, winner) = solved.unwrap_or_else(|| panic!("seed {seed}: no consensus"));
            assert!(env.quality_of(winner).unwrap().is_good());
        }
    }

    #[test]
    fn hardened_colony_converges_with_revealing_go() {
        let env = make_env_revealing(48, QualitySpec::good_prefix(3, 1), 13);
        let agents = boxed_colony(48, |i| {
            SimpleAnt::with_options(
                48,
                5_000 + i as u64,
                UrnOptions {
                    reassess_on_arrival: true,
                },
            )
        });
        let (solved, env) = drive_to_consensus(env, agents, 3_000);
        let (_, winner) = solved.expect("hardened colony must still converge");
        assert!(env.quality_of(winner).unwrap().is_good());
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = |env_seed: u64| {
            let env = make_env(40, QualitySpec::good_prefix(4, 2), env_seed);
            let agents = boxed_colony(40, |i| SimpleAnt::new(40, 99 + i as u64));
            let (solved, _) = drive_to_consensus(env, agents, 3_000);
            solved
        };
        assert_eq!(run(21), run(21));
    }

    /// All ants alternate home (even rounds) and candidate nests (odd
    /// rounds ≥ 3) — the R1 structure of Section 5.2.
    #[test]
    fn locations_alternate_by_parity() {
        let mut env = make_env(30, QualitySpec::good_prefix(3, 2), 15);
        let mut agents = boxed_colony(30, |i| SimpleAnt::new(30, i as u64));
        for round in 1..=40u64 {
            step_once(&mut env, &mut agents);
            let home = env.count(NestId::HOME);
            if round == 1 || round % 2 == 1 {
                assert_eq!(home, 0, "round {round}: all ants must be at nests");
            } else {
                assert_eq!(home, 30, "round {round}: all ants must be home");
            }
        }
    }
}
