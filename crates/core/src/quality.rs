//! The non-binary-quality variant — Section 6's "non-binary nest
//! qualities" extension.
//!
//! With real-valued qualities in `[0, 1]` there is no crisp "good"/"bad"
//! split, so the binary algorithm's active/passive dichotomy disappears.
//! Following the paper's sketch — *"it should be possible to incorporate
//! the quality of the nest into the recruitment probability in order [to]
//! make the algorithm converge to a high-quality nest"* — [`QualityAnt`]
//! recruits with probability
//!
//! ```text
//! p  =  (count / n) · quality^γ
//! ```
//!
//! where `γ ≥ 0` tunes selectivity: `γ = 0` ignores quality entirely
//! (pure population feedback, the speed end of the speed/accuracy
//! trade-off), large `γ` makes low-quality nests recruit so rarely that
//! the best nest almost always wins (the accuracy end). A nest of quality
//! zero never recruits, recovering the binary algorithm's passive
//! behaviour as a special case.
//!
//! Because an ant recruited to an unfamiliar nest must learn that nest's
//! quality to keep recruiting sensibly, this agent is designed for
//! environments with the "assessing go" extension
//! ([`ColonyConfig::reveal_quality_on_go`]); without it the ant keeps its
//! previous quality estimate — a documented degraded mode.
//!
//! [`ColonyConfig::reveal_quality_on_go`]: hh_model::ColonyConfig::reveal_quality_on_go

use hh_model::seeding::DrawKey;
use hh_model::{Action, NestId, Outcome};

use crate::agent::{Agent, AgentRole};

/// An ant running the quality-weighted urn rule for non-binary qualities.
///
/// # Examples
///
/// ```
/// use hh_core::{Agent, QualityAnt};
/// use hh_model::Action;
///
/// // Colony of 200; quality exponent 2 (moderately selective).
/// let mut ant = QualityAnt::new(200, 9, 2.0);
/// assert_eq!(ant.choose(1), Action::Search);
/// assert_eq!(ant.label(), "quality");
/// ```
#[derive(Debug, Clone)]
pub struct QualityAnt {
    n: usize,
    key: DrawKey,
    gamma: f64,
    nest: Option<NestId>,
    /// Last observed population of the committed nest, in the outcome
    /// field width.
    count: u32,
    /// Last observed quality of the committed nest.
    quality: f64,
    /// `quality^γ`, the recruit-rate weight of `quality`: recomputed by
    /// `set_quality` whenever `quality` changes, so that a recruit round
    /// takes no power.
    weight: f64,
}

impl QualityAnt {
    /// Creates a quality-weighted ant with exponent `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is negative, NaN or infinite.
    #[must_use]
    pub fn new(n: usize, seed: u64, gamma: f64) -> Self {
        assert!(
            gamma.is_finite() && gamma >= 0.0,
            "quality exponent must be a non-negative finite number, got {gamma}"
        );
        Self {
            n,
            key: DrawKey::from_seed(seed),
            gamma,
            nest: None,
            count: 0,
            quality: 0.0,
            weight: 0.0f64.powf(gamma),
        }
    }

    /// Returns the quality exponent `γ`.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Returns the last observed quality of the committed nest.
    #[must_use]
    pub fn observed_quality(&self) -> f64 {
        self.quality
    }

    /// The one writer of `quality`, keeping `weight` equal to
    /// `quality^γ`.
    fn set_quality(&mut self, quality: f64) {
        if quality.to_bits() != self.quality.to_bits() {
            self.quality = quality;
            self.weight = quality.powf(self.gamma);
        }
    }

    fn recruit_probability(&self) -> f64 {
        let base = self.count as f64 / self.n as f64;
        (base * self.weight).clamp(0.0, 1.0)
    }
}

impl Agent for QualityAnt {
    fn choose(&mut self, round: u64) -> Action {
        if round <= 1 {
            return Action::Search;
        }
        let Some(nest) = self.nest else {
            return Action::Search;
        };
        if round.is_multiple_of(2) {
            let p = self.recruit_probability();
            let active = p > 0.0 && self.key.coin(round, p);
            Action::Recruit { active, nest }
        } else {
            Action::Go(nest)
        }
    }

    fn observe(&mut self, _round: u64, outcome: &Outcome) {
        match outcome {
            Outcome::Search {
                nest,
                quality,
                count,
            } => {
                self.nest = Some(*nest);
                self.count = *count;
                self.set_quality(quality.value());
            }
            Outcome::Recruit { nest, .. } => {
                // Quality of the new nest is unknown until assessed; keep
                // the previous estimate meanwhile (degraded mode when the
                // environment does not reveal quality on go).
                self.nest = Some(*nest);
            }
            Outcome::Go { count, quality } => {
                self.count = *count;
                if let Some(q) = quality {
                    self.set_quality(q.value());
                }
            }
        }
    }

    fn committed_nest(&self) -> Option<NestId> {
        self.nest
    }

    fn label(&self) -> &'static str {
        "quality"
    }

    fn role(&self) -> AgentRole {
        match self.nest {
            None => AgentRole::Searching,
            // Quality weighting has no passive state: a zero-quality nest
            // simply recruits with probability zero.
            Some(_) => AgentRole::Active,
        }
    }
}

#[cfg(test)]
impl QualityAnt {
    /// Test-only accessor for the last observed count.
    pub(crate) fn last_observed_count_for_tests(&self) -> usize {
        self.count as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{boxed_colony, drive_to_consensus, make_env_revealing, step_once};
    use hh_model::{ColonyConfig, Environment, Quality, QualitySpec};

    fn graded_env(n: usize, qualities: &[f64], seed: u64) -> Environment {
        let spec = QualitySpec::Explicit(
            qualities
                .iter()
                .map(|&q| Quality::new(q).unwrap())
                .collect(),
        );
        Environment::new(&ColonyConfig::new(n, spec).seed(seed).reveal_quality_on_go()).unwrap()
    }

    #[test]
    fn searches_first_and_reports_role() {
        let mut ant = QualityAnt::new(10, 0, 1.0);
        assert_eq!(ant.choose(1), Action::Search);
        assert_eq!(ant.role(), AgentRole::Searching);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::new(0.7).unwrap(),
                count: 4,
            },
        );
        assert_eq!(ant.role(), AgentRole::Active);
        // Quality stores f32; 0.7 lands within one f32 ULP of the input.
        assert!((ant.observed_quality() - 0.7).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "quality exponent")]
    fn negative_gamma_panics() {
        let _ = QualityAnt::new(10, 0, -1.0);
    }

    #[test]
    fn zero_quality_never_recruits() {
        let mut ant = QualityAnt::new(10, 1, 1.0);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::BAD,
                count: 10,
            },
        );
        for t in 0..50u64 {
            match ant.choose(2 + 2 * t) {
                Action::Recruit { active, .. } => assert!(!active),
                other => panic!("expected recruit, got {other}"),
            }
        }
    }

    #[test]
    fn gamma_zero_ignores_quality() {
        // Quality 0 included: 0⁰ = 1, so even a zero-quality nest
        // recruits at the full population rate.
        for quality in [0.01, 0.0] {
            let mut ant = QualityAnt::new(10, 2, 0.0);
            ant.observe(
                1,
                &Outcome::Search {
                    nest: NestId::candidate(1),
                    quality: Quality::new(quality).unwrap(),
                    count: 10,
                },
            );
            assert_weight_is_fresh(&ant);
            // count = n and γ = 0 → p = 1 · quality⁰ = 1: always recruits.
            match ant.choose(2) {
                Action::Recruit { active, .. } => assert!(active, "quality {quality}"),
                other => panic!("expected recruit, got {other}"),
            }
        }
    }

    /// `recruit_probability()` must carry the bits of the rule
    /// recomputed from the ant's current fields: a cached weight left
    /// stale by any observation path fails here.
    fn assert_weight_is_fresh(ant: &QualityAnt) {
        let rule = (ant.count as f64 / ant.n as f64 * ant.quality.powf(ant.gamma)).clamp(0.0, 1.0);
        assert_eq!(
            ant.recruit_probability().to_bits(),
            rule.to_bits(),
            "γ {}, quality {}, count {}",
            ant.gamma,
            ant.quality,
            ant.count
        );
    }

    #[test]
    fn cached_weight_follows_every_observation_path() {
        let (a, b, c) = (
            NestId::candidate(1),
            NestId::candidate(2),
            NestId::candidate(3),
        );
        let quality = |q: f64| Quality::new(q).unwrap();
        let search = |nest, q, count| Outcome::Search {
            nest,
            quality: quality(q),
            count,
        };
        let recruit = |nest| Outcome::Recruit {
            nest,
            home_count: 5,
        };
        let go = |count, q: Option<f64>| Outcome::Go {
            count,
            quality: q.map(quality),
        };
        for gamma in [0.0, 0.5, 1.0, 3.0] {
            let mut ant = QualityAnt::new(10, 8, gamma);
            assert_weight_is_fresh(&ant);
            // Search.
            ant.observe(1, &search(a, 0.6, 4));
            assert_weight_is_fresh(&ant);
            // Recruited, then an assessing go with a new quality.
            ant.observe(2, &recruit(b));
            assert_weight_is_fresh(&ant);
            ant.observe(3, &go(6, Some(0.7)));
            assert_eq!(ant.committed_nest(), Some(b));
            assert_weight_is_fresh(&ant);
            // Go without quality.
            ant.observe(4, &recruit(a));
            ant.observe(5, &go(7, None));
            assert_weight_is_fresh(&ant);
            // A second search (a lost round-1 observation re-searched).
            ant.observe(7, &search(c, 0.95, 3));
            assert_weight_is_fresh(&ant);
            // A run of changing (noisy) qualities, repeats included.
            for (i, q) in [0.7, 0.65, 0.65, 0.8, 0.0, 0.0, 1.0, 0.4, 0.4]
                .into_iter()
                .enumerate()
            {
                ant.observe(13 + 2 * i as u64, &go(5 + i as u32, Some(q)));
                assert_weight_is_fresh(&ant);
            }
        }
    }

    #[test]
    fn higher_gamma_is_more_selective() {
        // Empirical recruit rates for a mid-quality nest must decrease
        // with γ.
        let mut rates = Vec::new();
        for gamma in [0.0, 1.0, 4.0] {
            let mut ant = QualityAnt::new(10, 3, gamma);
            ant.observe(
                1,
                &Outcome::Search {
                    nest: NestId::candidate(1),
                    quality: Quality::new(0.5).unwrap(),
                    count: 10,
                },
            );
            let trials = 4_000;
            let mut active = 0u32;
            for t in 0..trials {
                if let Action::Recruit { active: a, .. } = ant.choose(2 + 2 * t) {
                    active += u32::from(a);
                }
            }
            rates.push(f64::from(active) / f64::from(trials as u32));
        }
        assert!(
            rates[0] > rates[1] && rates[1] > rates[2],
            "rates {rates:?}"
        );
    }

    #[test]
    fn recruited_ant_assesses_new_nest() {
        let mut ant = QualityAnt::new(10, 4, 1.0);
        let first = NestId::candidate(1);
        let second = NestId::candidate(2);
        ant.observe(
            1,
            &Outcome::Search {
                nest: first,
                quality: Quality::new(0.4).unwrap(),
                count: 2,
            },
        );
        ant.observe(
            2,
            &Outcome::Recruit {
                nest: second,
                home_count: 5,
            },
        );
        assert_eq!(ant.committed_nest(), Some(second));
        // Quality estimate updates at the assessing go.
        ant.observe(
            3,
            &Outcome::Go {
                count: 6,
                quality: Some(Quality::new(0.9).unwrap()),
            },
        );
        assert!((ant.observed_quality() - 0.9).abs() < 1e-7);
        assert_eq!(ant.last_observed_count_for_tests(), 6);
    }

    #[test]
    fn colony_prefers_higher_quality() {
        // Two nests, quality 0.9 vs 0.3, selective γ: the better nest
        // should win most seeds.
        let mut wins = 0;
        let trials = 12;
        for seed in 0..trials {
            let env = graded_env(64, &[0.9, 0.3], seed);
            let agents = boxed_colony(64, |i| QualityAnt::new(64, seed * 313 + i as u64, 3.0));
            let (solved, _) = drive_to_consensus_quality(env, agents, 4_000);
            if solved == Some(NestId::candidate(1)) {
                wins += 1;
            }
        }
        assert!(
            wins * 3 >= trials * 2,
            "best nest won only {wins}/{trials} runs"
        );
    }

    /// Commitment consensus for quality colonies: no binary "good"
    /// requirement — any nest everyone commits to counts.
    fn drive_to_consensus_quality(
        mut env: Environment,
        mut agents: Vec<crate::BoxedAgent>,
        max_rounds: u64,
    ) -> (Option<NestId>, Environment) {
        for _ in 0..max_rounds {
            step_once(&mut env, &mut agents);
            let first = agents[0].committed_nest();
            if first.is_some() && agents.iter().all(|a| a.committed_nest() == first) {
                return (first, env);
            }
        }
        (None, env)
    }

    #[test]
    fn binary_environment_recovers_simple_behaviour() {
        // With γ = 1 on a {0,1} environment, quality-weighting reduces to
        // Algorithm 3 (bad nests never recruit) — the colony still solves
        // the binary instance.
        let env = make_env_revealing(64, QualitySpec::good_prefix(4, 2), 31);
        let agents = boxed_colony(64, |i| QualityAnt::new(64, 900 + i as u64, 1.0));
        let (solved, env) = drive_to_consensus(env, agents, 4_000);
        let (_, winner) = solved.expect("must converge on binary instance");
        assert!(env.quality_of(winner).unwrap().is_good());
    }
}
