//! Fault and asynchrony perturbations — the Section 6 "fault tolerance"
//! and "asynchrony" extensions.
//!
//! The model of Section 2 requires every ant to make exactly one call per
//! round, so a fault cannot simply remove an ant from the execution.
//! Instead, a faulty or delayed ant takes a *location-preserving no-op*:
//!
//! * at a candidate nest it calls `go(current)` (stays put);
//! * at the home nest it calls `recruit(0, j)` for some known nest `j`
//!   (waits passively — it may still be picked up and carried by a
//!   recruiter, like a real transported ant);
//! * if it knows no nest yet (a round-1 fault) it searches, the only legal
//!   call.
//!
//! Two perturbation plans are provided:
//!
//! * [`CrashPlan`] — permanent crash-stop faults with a per-ant crash
//!   round;
//! * [`DelayPlan`] — independent per-(ant, round) delays modelling a
//!   partially synchronous execution: a delayed ant misses its intended
//!   step and its algorithm sees no observation for the round.
//!
//! The plans are *data*; they are applied by the executor in `hh-sim`,
//! keeping the environment itself faithful to Section 2.

use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, SeedableRng};

use crate::actions::Action;
use crate::env::Environment;
use crate::ids::{AntId, NestId};
use crate::seeding::{derive_seed, splitmix64, StreamKind};

/// Where a crashed ant comes to rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CrashStyle {
    /// The ant freezes wherever it is: at a nest it stays at the nest; at
    /// home it idles passively (and may still be transported).
    #[default]
    InPlace,
    /// The ant walks home and idles there passively forever. Models ants
    /// that stop working but remain in the colony.
    AtHome,
}

/// A permanent crash-stop schedule: each ant optionally has a round from
/// which it stops executing its algorithm.
///
/// # Examples
///
/// ```
/// use hh_model::faults::{CrashPlan, CrashStyle};
/// use hh_model::AntId;
///
/// // 10% of a 100-ant colony crashes at round 5.
/// let plan = CrashPlan::fraction(100, 0.1, 5, CrashStyle::InPlace, 7);
/// assert_eq!(plan.crashed_ants().count(), 10);
/// let victim = plan.crashed_ants().next().unwrap();
/// assert!(!plan.is_crashed(victim, 4));
/// assert!(plan.is_crashed(victim, 5));
/// assert!(plan.is_crashed(victim, 500));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    crash_round: Vec<Option<u64>>,
    style: CrashStyle,
}

impl CrashPlan {
    /// A plan with no crashes for a colony of `n` ants.
    #[must_use]
    pub fn none(n: usize) -> Self {
        Self {
            crash_round: vec![None; n],
            style: CrashStyle::default(),
        }
    }

    /// Crashes a uniformly random `fraction` of the colony (rounded down)
    /// at round `round`. The victim set is determined by `seed`.
    #[must_use]
    pub fn fraction(n: usize, fraction: f64, round: u64, style: CrashStyle, seed: u64) -> Self {
        let count = ((n as f64) * fraction.clamp(0.0, 1.0)).floor() as usize;
        let mut ants: Vec<usize> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, StreamKind::Crash, 0));
        ants.shuffle(&mut rng);
        let mut crash_round = vec![None; n];
        for &victim in ants.iter().take(count) {
            crash_round[victim] = Some(round);
        }
        Self { crash_round, style }
    }

    /// Builds a plan from explicit per-ant crash rounds.
    #[must_use]
    pub fn from_schedule(crash_round: Vec<Option<u64>>, style: CrashStyle) -> Self {
        Self { crash_round, style }
    }

    /// Returns `true` if `ant` has crashed by round `round` (crash rounds
    /// are inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `ant` is out of range for the plan.
    #[must_use]
    #[inline]
    pub fn is_crashed(&self, ant: AntId, round: u64) -> bool {
        self.crash_round(ant).is_some_and(|at| round >= at)
    }

    /// Returns the round from which `ant` is crashed, or `None` if it
    /// never crashes.
    ///
    /// # Panics
    ///
    /// Panics if `ant` is out of range for the plan.
    #[must_use]
    #[inline]
    pub fn crash_round(&self, ant: AntId) -> Option<u64> {
        self.crash_round[ant.index()]
    }

    /// Returns the number of ants the plan covers, crashing or not — the
    /// colony size it was built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.crash_round.len()
    }

    /// Returns the crash style.
    #[must_use]
    pub fn style(&self) -> CrashStyle {
        self.style
    }

    /// Returns the ants that ever crash, in id order.
    pub fn crashed_ants(&self) -> impl Iterator<Item = AntId> + '_ {
        self.crash_round
            .iter()
            .enumerate()
            .filter_map(|(idx, at)| at.map(|_| AntId::new(idx)))
    }

    /// Returns `true` if the plan contains no crashes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crash_round.iter().all(Option::is_none)
    }
}

/// Independent per-(ant, round) delays: with probability `prob` an ant
/// misses its intended action for the round and takes the no-op instead.
///
/// Delays are drawn by hashing `(seed, ant, round)`, so the plan is pure
/// data — no state, and a given `(ant, round)` is delayed or not
/// irrespective of query order.
///
/// # Examples
///
/// ```
/// use hh_model::faults::DelayPlan;
/// use hh_model::AntId;
///
/// let plan = DelayPlan::new(0.25, 3);
/// // Pure: repeated queries agree.
/// let d = plan.is_delayed(AntId::new(4), 17);
/// assert_eq!(d, plan.is_delayed(AntId::new(4), 17));
///
/// let never = DelayPlan::never();
/// assert!(!never.is_delayed(AntId::new(0), 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPlan {
    prob: f64,
    seed: u64,
}

impl DelayPlan {
    /// Creates a plan delaying each (ant, round) independently with
    /// probability `prob` (clamped to `[0, 1]`).
    #[must_use]
    pub fn new(prob: f64, seed: u64) -> Self {
        Self {
            prob: prob.clamp(0.0, 1.0),
            seed: derive_seed(seed, StreamKind::Delay, 0),
        }
    }

    /// A plan that never delays.
    #[must_use]
    pub fn never() -> Self {
        Self { prob: 0.0, seed: 0 }
    }

    /// Returns the per-step delay probability.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.prob
    }

    /// Returns `true` if `ant` is delayed in `round`.
    #[must_use]
    #[inline]
    pub fn is_delayed(&self, ant: AntId, round: u64) -> bool {
        if self.prob <= 0.0 {
            return false;
        }
        if self.prob >= 1.0 {
            return true;
        }
        let h = splitmix64(
            self.seed ^ splitmix64(ant.index() as u64) ^ splitmix64(round.wrapping_mul(0x9E37)),
        );
        // Compare the top 53 bits against the probability.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.prob
    }
}

impl Default for DelayPlan {
    fn default() -> Self {
        Self::never()
    }
}

/// Builds the location-preserving no-op action for a faulty or delayed ant
/// given the current environment state.
///
/// # Panics
///
/// Panics if `ant` is out of range for the environment.
#[must_use]
pub fn noop_action(env: &Environment, ant: AntId, style: CrashStyle) -> Action {
    let first_known = env.first_known(ant);
    match style {
        CrashStyle::InPlace => in_place_noop(env.location_of(ant), first_known),
        // Walking home first, the ant then takes the stay-at-home no-op.
        CrashStyle::AtHome => in_place_noop(NestId::HOME, first_known),
    }
}

/// The in-place location-preserving no-op given an ant's location and
/// lowest known nest — the **single** definition of the no-op
/// semantics, shared by [`noop_action`] and the chunked executor
/// sandbox ([`AntChunk::noop_in_place`]), so the serial and
/// chunked paths cannot drift apart.
///
/// [`AntChunk::noop_in_place`]: crate::AntChunk::noop_in_place
pub(crate) fn in_place_noop(location: NestId, first_known: Option<NestId>) -> Action {
    if !location.is_home() {
        return Action::Go(location);
    }
    match first_known {
        Some(nest) => Action::recruit_passive(nest),
        // Round-1 fault: searching is the only legal call.
        None => Action::Search,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ColonyConfig, QualitySpec};

    #[test]
    fn empty_plan_never_crashes() {
        let plan = CrashPlan::none(5);
        assert!(plan.is_empty());
        for a in 0..5 {
            assert!(!plan.is_crashed(AntId::new(a), 100));
        }
        assert_eq!(plan.crashed_ants().count(), 0);
    }

    #[test]
    fn fraction_selects_expected_count() {
        let plan = CrashPlan::fraction(200, 0.25, 10, CrashStyle::InPlace, 1);
        assert_eq!(plan.crashed_ants().count(), 50);
        assert!(!plan.is_empty());
    }

    #[test]
    fn crash_is_permanent_and_round_inclusive() {
        let plan = CrashPlan::from_schedule(vec![Some(3), None], CrashStyle::AtHome);
        let victim = AntId::new(0);
        assert!(!plan.is_crashed(victim, 2));
        assert!(plan.is_crashed(victim, 3));
        assert!(plan.is_crashed(victim, u64::MAX));
        assert!(!plan.is_crashed(AntId::new(1), u64::MAX));
        assert_eq!(plan.style(), CrashStyle::AtHome);
    }

    #[test]
    fn len_counts_every_covered_ant() {
        assert_eq!(CrashPlan::none(5).len(), 5);
        let plan = CrashPlan::from_schedule(vec![None, Some(3), None], CrashStyle::InPlace);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.crash_round(AntId::new(1)), Some(3));
        assert_eq!(plan.crash_round(AntId::new(2)), None);
    }

    #[test]
    fn fraction_is_deterministic_per_seed() {
        let a = CrashPlan::fraction(100, 0.1, 1, CrashStyle::InPlace, 5);
        let b = CrashPlan::fraction(100, 0.1, 1, CrashStyle::InPlace, 5);
        let c = CrashPlan::fraction(100, 0.1, 1, CrashStyle::InPlace, 6);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should pick different victims");
    }

    #[test]
    fn delay_plan_edge_probabilities() {
        let never = DelayPlan::new(0.0, 9);
        let always = DelayPlan::new(1.0, 9);
        for r in 0..20 {
            assert!(!never.is_delayed(AntId::new(0), r));
            assert!(always.is_delayed(AntId::new(0), r));
        }
        assert!(!DelayPlan::default().is_delayed(AntId::new(3), 3));
    }

    #[test]
    fn delay_rate_matches_probability() {
        let plan = DelayPlan::new(0.3, 42);
        let mut delayed = 0u32;
        let total = 20_000u32;
        for ant in 0..200usize {
            for round in 0..100u64 {
                delayed += u32::from(plan.is_delayed(AntId::new(ant), round));
            }
        }
        let rate = f64::from(delayed) / f64::from(total);
        assert!(
            (0.27..=0.33).contains(&rate),
            "delay rate {rate} far from 0.3"
        );
    }

    #[test]
    fn delay_plan_clamps_probability() {
        assert_eq!(DelayPlan::new(7.0, 0).probability(), 1.0);
        assert_eq!(DelayPlan::new(-3.0, 0).probability(), 0.0);
    }

    #[test]
    fn noop_action_respects_location_and_knowledge() {
        let config = ColonyConfig::new(2, QualitySpec::all_good(2)).seed(1);
        let mut env = Environment::new(&config).unwrap();
        let a0 = AntId::new(0);

        // Round 0: nobody knows anything — the no-op must be a search.
        assert_eq!(noop_action(&env, a0, CrashStyle::InPlace), Action::Search);
        assert_eq!(noop_action(&env, a0, CrashStyle::AtHome), Action::Search);

        env.step(&[Action::Search, Action::Search]).unwrap();
        let loc = env.location_of(a0);
        // At a candidate nest: in-place means stay, at-home means walk back
        // and wait.
        assert_eq!(noop_action(&env, a0, CrashStyle::InPlace), Action::Go(loc));
        match noop_action(&env, a0, CrashStyle::AtHome) {
            Action::Recruit {
                active: false,
                nest,
            } => assert!(!nest.is_home()),
            other => panic!("expected passive recruit, got {other:?}"),
        }
    }
}
