//! Colony construction and the snapshot-caching [`Colony`] container.
//!
//! A *colony* is the ordered collection of agents the executor drives —
//! one per ant, indexed by [`AntId`](hh_model::AntId). [`Colony`] stores
//! the agents as one contiguous `Vec<AnyAgent>` (static dispatch, cache
//! friendly) and caches each agent's harness-observable state — honesty,
//! [`AgentRole`], committed nest, finality — as one [`AgentSnapshot`]
//! per ant in a parallel `Vec<AgentSnapshot>`. The executor in `hh-sim`
//! refreshes exactly the agents it stepped each round
//! ([`Colony::refresh`]), so reading the colony's state — a
//! [`RoleCensus`], a commitment histogram — is a pass over plain
//! snapshots with no dispatch into the agents.
//!
//! The free functions build the standard homogeneous colonies (one per
//! algorithm) with per-ant seeds derived deterministically from a single
//! base seed, plus combinators for planting idlers and adversaries.
//!
//! # Examples
//!
//! ```
//! use hh_core::{colony, Agent};
//!
//! let ants = colony::simple(100, 42);
//! assert_eq!(ants.len(), 100);
//! assert!(ants.iter().all(|a| a.label() == "simple"));
//! assert_eq!(ants.census().searching, 100);
//! ```

use hh_model::seeding::{SeedPrefix, StreamKind};
use hh_model::NestId;

use crate::adaptive::AdaptiveAnt;
use crate::agent::{Agent, AgentRole, BoxedAgent};
use crate::any::AnyAgent;
use crate::optimal::OptimalAnt;
use crate::quality::QualityAnt;
use crate::simple::{SimpleAnt, UrnOptions};
use crate::spreader::{SpreadStrategy, SpreaderAnt};

/// Counts of honest agents per [`AgentRole`], computed by
/// [`Colony::census`] from the colony's cached snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoleCensus {
    /// Agents still searching.
    pub searching: usize,
    /// Active (competing/recruiting) agents.
    pub active: usize,
    /// Passive (waiting) agents.
    pub passive: usize,
    /// Final/settled agents.
    pub final_count: usize,
    /// Everything else (adversaries report `Other`).
    pub other: usize,
}

impl RoleCensus {
    fn of_roles(roles: impl Iterator<Item = AgentRole>) -> Self {
        let mut census = RoleCensus::default();
        for role in roles {
            *match role {
                AgentRole::Searching => &mut census.searching,
                AgentRole::Active => &mut census.active,
                AgentRole::Passive => &mut census.passive,
                AgentRole::Final => &mut census.final_count,
                _ => &mut census.other,
            } += 1;
        }
        census
    }

    /// Total honest agents tallied.
    #[must_use]
    pub fn total(&self) -> usize {
        self.searching + self.active + self.passive + self.final_count + self.other
    }
}

/// One agent's harness-observable state, cached by [`Colony`] so census
/// and convergence queries never re-dispatch into the agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentSnapshot {
    /// [`Agent::is_honest`] at the last refresh (constant for every
    /// built-in agent; `Custom` agents may vary it, and the executor's
    /// live tally re-counts the agent on a flip).
    pub honest: bool,
    /// [`Agent::role`] at the last refresh.
    pub role: AgentRole,
    /// [`Agent::committed_nest`] at the last refresh.
    pub committed: Option<NestId>,
    /// [`Agent::is_final`] at the last refresh.
    pub is_final: bool,
}

/// Builds an [`AgentSnapshot`] from any agent expression via
/// (auto-dereffing) method calls — the **single** definition of the
/// snapshot field list, shared by [`AgentSnapshot::of`] and the
/// `AnyAgent` fused accessors.
macro_rules! snapshot_of {
    ($agent:expr) => {
        $crate::colony::AgentSnapshot {
            honest: $agent.is_honest(),
            role: $agent.role(),
            committed: $agent.committed_nest(),
            is_final: $agent.is_final(),
        }
    };
}
pub(crate) use snapshot_of;

impl AgentSnapshot {
    /// Reads an agent's current observable state.
    #[must_use]
    pub fn of<A: Agent + ?Sized>(agent: &A) -> Self {
        snapshot_of!(agent)
    }
}

/// A colony of agents with a cached snapshot per agent.
///
/// Read access goes through `Deref<Target = [AnyAgent]>` (`len`, `iter`,
/// indexing). The cache is current after every method except two
/// executor hooks, whose callers restore it: [`choose`](Colony::choose) /
/// [`observe`](Colony::observe), followed by [`refresh`](Colony::refresh)
/// of every agent they touched, and [`engine_split`](Colony::engine_split).
/// Code that drives agents by hand uses the same three calls, or steps
/// a `Vec<AnyAgent>` and converts it.
pub struct Colony {
    agents: Vec<AnyAgent>,
    /// `snapshots[i]` caches `agents[i]`'s observable state.
    snapshots: Vec<AgentSnapshot>,
}

impl Colony {
    /// Replaces the agent at `index`, updating its cached snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace(&mut self, index: usize, agent: impl Into<AnyAgent>) {
        let agent = agent.into();
        self.snapshots[index] = AgentSnapshot::of(&agent);
        self.agents[index] = agent;
    }

    /// The agents as a plain slice (also available through `Deref`).
    #[must_use]
    pub fn as_slice(&self) -> &[AnyAgent] {
        &self.agents
    }

    /// Rebuilds every snapshot from its agent.
    pub fn sync(&mut self) {
        self.snapshots.clear();
        self.snapshots
            .extend(self.agents.iter().map(AnyAgent::snapshot));
    }

    /// The honest-role census: one pass over the cached snapshots.
    #[must_use]
    pub fn census(&self) -> RoleCensus {
        RoleCensus::of_roles(
            self.snapshots
                .iter()
                .filter(|snapshot| snapshot.honest)
                .map(|snapshot| snapshot.role),
        )
    }

    /// Agent `index`'s cached snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    #[must_use]
    pub fn snapshot(&self, index: usize) -> AgentSnapshot {
        self.snapshots[index]
    }

    /// Iterates the cached per-agent snapshots in ant order.
    pub fn iter_snapshots(&self) -> impl Iterator<Item = AgentSnapshot> + '_ {
        self.snapshots.iter().copied()
    }

    /// Executor hot path: forwards [`Agent::choose`] for ant `index`.
    /// The caller must [`refresh`](Colony::refresh) the agent before the
    /// round's snapshot reads (choosing can change agent state).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn choose(&mut self, index: usize, round: u64) -> hh_model::Action {
        self.agents[index].choose(round)
    }

    /// Executor hot path: forwards [`Agent::observe`] for ant `index`.
    /// Same refresh contract as [`choose`](Colony::choose).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn observe(&mut self, index: usize, round: u64, outcome: &hh_model::Outcome) {
        self.agents[index].observe(round, outcome);
    }

    /// Recomputes agent `index`'s snapshot and returns `(old, new)` so
    /// callers can maintain derived tallies of their own.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn refresh(&mut self, index: usize) -> (AgentSnapshot, AgentSnapshot) {
        let new = self.agents[index].snapshot();
        let old = std::mem::replace(&mut self.snapshots[index], new);
        (old, new)
    }

    /// Executor parallel hot path: simultaneous mutable access to the
    /// agents and their cached snapshots, two equal-length slices indexed
    /// by ant id, for splitting into disjoint ant chunks with
    /// `split_at_mut`. The caller contracts to keep each touched agent's
    /// snapshot current itself (overwrite it with the agent's freshly
    /// computed snapshot).
    pub fn engine_split(&mut self) -> (&mut [AnyAgent], &mut [AgentSnapshot]) {
        (&mut self.agents, &mut self.snapshots)
    }
}

impl std::ops::Deref for Colony {
    type Target = [AnyAgent];

    fn deref(&self) -> &[AnyAgent] {
        &self.agents
    }
}

impl std::fmt::Debug for Colony {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Colony")
            .field("len", &self.agents.len())
            .field("census", &self.census())
            .finish_non_exhaustive()
    }
}

impl From<Vec<AnyAgent>> for Colony {
    fn from(agents: Vec<AnyAgent>) -> Self {
        let mut colony = Self {
            agents,
            snapshots: Vec::new(),
        };
        colony.sync();
        colony
    }
}

impl From<Vec<BoxedAgent>> for Colony {
    fn from(agents: Vec<BoxedAgent>) -> Self {
        agents.into_iter().map(AnyAgent::Custom).collect()
    }
}

impl FromIterator<AnyAgent> for Colony {
    fn from_iter<I: IntoIterator<Item = AnyAgent>>(iter: I) -> Self {
        Colony::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl IntoIterator for Colony {
    type Item = AnyAgent;
    type IntoIter = std::vec::IntoIter<AnyAgent>;

    fn into_iter(self) -> Self::IntoIter {
        self.agents.into_iter()
    }
}

impl<'a> IntoIterator for &'a Colony {
    type Item = &'a AnyAgent;
    type IntoIter = std::slice::Iter<'a, AnyAgent>;

    fn into_iter(self) -> Self::IntoIter {
        self.agents.iter()
    }
}

/// Builds a colony of `n` agents from a factory receiving each ant's
/// index and derived private seed.
pub fn from_factory<A, F>(n: usize, base_seed: u64, mut factory: F) -> Colony
where
    A: Into<AnyAgent>,
    F: FnMut(usize, u64) -> A,
{
    let seeds = SeedPrefix::new(base_seed, StreamKind::Agent);
    (0..n)
        .map(|i| factory(i, seeds.seed(i as u64)).into())
        .collect()
}

/// A colony running the optimal algorithm (Section 4). The agents are
/// deterministic, so no seed is needed.
#[must_use]
pub fn optimal(n: usize) -> Colony {
    from_factory(n, 0, |_, _| OptimalAnt::new())
}

/// A colony running the paper-faithful simple algorithm (Section 5).
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX`.
#[must_use]
pub fn simple(n: usize, base_seed: u64) -> Colony {
    from_factory(n, base_seed, |_, seed| SimpleAnt::new(n, seed))
}

/// A simple-algorithm colony with explicit behavioural options.
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX`.
#[must_use]
pub fn simple_with_options(n: usize, base_seed: u64, options: UrnOptions) -> Colony {
    from_factory(n, base_seed, |_, seed| {
        SimpleAnt::with_options(n, seed, options)
    })
}

/// A colony running the adaptive-rate variant (Section 6).
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX`.
#[must_use]
pub fn adaptive(n: usize, base_seed: u64) -> Colony {
    from_factory(n, base_seed, |_, seed| AdaptiveAnt::new(n, seed))
}

/// A colony running the quality-weighted variant (Section 6) with
/// exponent `gamma`.
#[must_use]
pub fn quality(n: usize, base_seed: u64, gamma: f64) -> Colony {
    from_factory(n, base_seed, |_, seed| QualityAnt::new(n, seed, gamma))
}

/// A colony of lower-bound spreaders sharing one strategy (Section 3).
#[must_use]
pub fn spreaders(n: usize, base_seed: u64, strategy: SpreadStrategy) -> Colony {
    from_factory(n, base_seed, |_, seed| SpreaderAnt::new(strategy, seed))
}

/// Replaces the last `count` agents of `colony` with honest idlers
/// ([`IdlerAnt`](crate::IdlerAnt)): live colony members that do no
/// house-hunting work and rely on being carried. The colony size is
/// unchanged; `count` is clamped to the colony size.
pub fn plant_idlers(colony: &mut Colony, count: usize) {
    plant_adversaries(colony, count, |_| crate::IdlerAnt::new());
}

/// Replaces the last `count` agents of `colony` with adversaries built by
/// `factory` (receiving the slot index). The colony size is unchanged;
/// `count` is clamped to the colony size.
pub fn plant_adversaries<A, F>(colony: &mut Colony, count: usize, mut factory: F)
where
    A: Into<AnyAgent>,
    F: FnMut(usize) -> A,
{
    let n = colony.len();
    let count = count.min(n);
    for slot in 0..count {
        let idx = n - count + slot;
        colony.replace(idx, factory(slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::BadNestRecruiter;

    #[test]
    fn builders_produce_requested_sizes_and_labels() {
        assert_eq!(optimal(5).len(), 5);
        assert!(optimal(3).iter().all(|a| a.label() == "optimal"));
        assert!(simple(3, 0).iter().all(|a| a.label() == "simple"));
        assert!(adaptive(3, 0).iter().all(|a| a.label() == "adaptive"));
        assert!(quality(3, 0, 1.0).iter().all(|a| a.label() == "quality"));
        assert!(spreaders(3, 0, SpreadStrategy::WaitAtHome)
            .iter()
            .all(|a| a.label() == "spreader-wait"));
    }

    #[test]
    fn builders_use_static_variants_not_custom() {
        for colony in [optimal(3), simple(3, 0), adaptive(3, 0), quality(3, 0, 1.0)] {
            assert!(colony.iter().all(|a| !a.is_custom()));
        }
    }

    #[test]
    fn per_ant_seeds_differ() {
        // Two simple ants from the same colony must not flip identical
        // coins: drive both through the same observations and compare
        // decisions statistically.
        use hh_model::{Outcome, Quality};

        let mut colony = from_factory(2, 7, |_, seed| SimpleAnt::new(10, seed));
        for ant in 0..2 {
            colony.observe(
                ant,
                1,
                &Outcome::Search {
                    nest: NestId::candidate(1),
                    quality: Quality::GOOD,
                    count: 5,
                },
            );
        }
        let mut agreements = 0;
        let trials = 200;
        for t in 0..trials {
            let a = colony.choose(0, 2 + 2 * t);
            let b = colony.choose(1, 2 + 2 * t);
            agreements += u32::from(a == b);
        }
        assert!(
            agreements < trials as u32,
            "identical coin streams: seeds not derived per ant"
        );
    }

    #[test]
    fn plant_adversaries_replaces_tail() {
        let mut colony = simple(10, 1);
        plant_adversaries(&mut colony, 3, |_| BadNestRecruiter::new());
        assert_eq!(colony.len(), 10);
        assert_eq!(colony.iter().filter(|a| !a.is_honest()).count(), 3);
        assert!(colony[..7].iter().all(|a| a.is_honest()));
        // The replacement reached the cached snapshots: 3 dishonest
        // agents left the census.
        assert_eq!(colony.census().total(), 7);
    }

    #[test]
    fn plant_idlers_replaces_tail_with_honest_idlers() {
        let mut colony = simple(10, 1);
        plant_idlers(&mut colony, 4);
        assert_eq!(colony.len(), 10);
        assert!(colony.iter().all(|a| a.is_honest()));
        assert_eq!(colony.iter().filter(|a| a.label() == "idler").count(), 4);
        assert!(colony[..6].iter().all(|a| a.label() == "simple"));
    }

    #[test]
    fn plant_adversaries_clamps_count() {
        let mut colony = simple(2, 1);
        plant_adversaries(&mut colony, 99, |_| BadNestRecruiter::new());
        assert_eq!(colony.len(), 2);
        assert!(colony.iter().all(|a| !a.is_honest()));
    }

    #[test]
    fn census_follows_refresh() {
        use hh_model::{Outcome, Quality};

        let mut colony = simple(4, 3);
        assert_eq!(colony.census().searching, 4);
        colony.observe(
            0,
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::GOOD,
                count: 1,
            },
        );
        let (old, new) = colony.refresh(0);
        assert_eq!(old.role, AgentRole::Searching);
        assert_eq!(new.role, AgentRole::Active);
        assert_eq!(new.committed, Some(NestId::candidate(1)));
        let census = colony.census();
        assert_eq!(census.searching, 3);
        assert_eq!(census.active, 1);
        assert_eq!(census.total(), 4);
    }

    /// The cached census equals a recount of every agent's
    /// [`AgentSnapshot::of`] after each way of mutating a colony.
    #[test]
    fn census_matches_a_recount_after_every_mutation() {
        use hh_model::{Outcome, Quality};

        fn assert_census_is_current(colony: &Colony, step: &str) {
            let recount = RoleCensus::of_roles(
                colony
                    .iter()
                    .map(AgentSnapshot::of)
                    .filter(|snapshot| snapshot.honest)
                    .map(|snapshot| snapshot.role),
            );
            assert_eq!(colony.census(), recount, "after {step}");
            for (index, agent) in colony.iter().enumerate() {
                assert_eq!(
                    colony.snapshot(index),
                    AgentSnapshot::of(agent),
                    "after {step}"
                );
            }
        }

        let mut colony = simple(8, 5);
        assert_census_is_current(&colony, "building");
        colony.replace(0, optimal(1).into_iter().next().expect("one ant"));
        assert_census_is_current(&colony, "replace");
        plant_idlers(&mut colony, 2);
        assert_census_is_current(&colony, "plant_idlers");
        plant_adversaries(&mut colony, 1, |_| BadNestRecruiter::new());
        assert_census_is_current(&colony, "plant_adversaries");
        let search = |quality| Outcome::Search {
            nest: NestId::candidate(1),
            quality,
            count: 1,
        };
        for round in 1..=3 {
            for ant in 0..colony.len() {
                colony.choose(ant, round);
                let quality = if ant % 2 == 0 {
                    Quality::GOOD
                } else {
                    Quality::BAD
                };
                colony.observe(ant, round, &search(quality));
                colony.refresh(ant);
            }
            assert_census_is_current(&colony, "choose/observe/refresh");
        }
        let census = colony.census();
        assert!(census.active + census.passive > 0, "{census:?}");
        assert_eq!(census.total(), 7, "the adversary is not counted");
    }

    #[test]
    fn boxed_colonies_become_custom_agents() {
        let boxed: Vec<BoxedAgent> = vec![
            Box::new(BadNestRecruiter::new()),
            Box::new(crate::IdlerAnt::new()),
        ];
        let colony = Colony::from(boxed);
        assert_eq!(colony.len(), 2);
        assert!(colony.iter().all(AnyAgent::is_custom));
        assert_eq!(colony.census().total(), 1, "only the idler is honest");
    }
}
