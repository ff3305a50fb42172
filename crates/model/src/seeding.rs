//! Deterministic seed derivation for reproducible executions.
//!
//! A single trial is driven by many independent random streams: the
//! environment (search placement, recruitment pairing, observation noise),
//! each ant's private coin flips, and the perturbation plans (crash
//! schedules, delay draws). To make a whole execution reproducible from one
//! `u64` while keeping the streams statistically independent, every stream
//! seed is derived from the base seed with a SplitMix64 mix, keyed by a
//! stream label.
//!
//! SplitMix64 is the standard seeding generator recommended by the xoshiro
//! authors; its output is equidistributed over `u64`, so distinct
//! `(base, label, index)` triples yield uncorrelated seeds.
//!
//! # Examples
//!
//! ```
//! use hh_model::seeding::{derive_seed, StreamKind};
//!
//! let base = 42;
//! let env = derive_seed(base, StreamKind::Environment, 0);
//! let ant0 = derive_seed(base, StreamKind::Agent, 0);
//! let ant1 = derive_seed(base, StreamKind::Agent, 1);
//! assert_ne!(env, ant0);
//! assert_ne!(ant0, ant1);
//! ```

/// The golden-ratio increment used by SplitMix64.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Applies the SplitMix64 output mix to `state`.
#[inline]
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Labels for the independent random streams of one execution.
///
/// Adding or removing a variant is backwards compatible for
/// reproducibility as long as the remaining variants keep their tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StreamKind {
    /// The environment stream: search placement, recruitment pairing.
    Environment,
    /// One stream per agent, indexed by ant id.
    Agent,
    /// Crash-schedule sampling.
    Crash,
    /// Per-round delay (asynchrony) draws.
    Delay,
    /// Scratch stream for tests and ad-hoc tooling.
    Auxiliary,
    /// One environment stream per ant, indexed by ant id: search
    /// placement and any other environment draw attributable to a single
    /// ant. Keeping these per ant (instead of on one shared environment
    /// stream) makes a round's outcome independent of the order ants are
    /// processed in — the determinism contract behind intra-round
    /// parallelism.
    AgentEnvironment,
    /// One observation-noise stream per ant, indexed by ant id. Separate
    /// from [`StreamKind::AgentEnvironment`] so that enabling noise does
    /// not change where ants search.
    ///
    /// Only a noisy model has these streams: an exact
    /// [`NoiseModel`](crate::noise::NoiseModel) never draws, so its
    /// [`Environment`](crate::Environment) seeds and stores none. A noisy
    /// model seeds one per ant, so ant `i`'s noise draws do not depend on
    /// which other ants observe.
    AgentNoise,
}

impl StreamKind {
    fn tag(self) -> u64 {
        match self {
            StreamKind::Environment => 1,
            StreamKind::Agent => 3,
            StreamKind::Crash => 4,
            StreamKind::Delay => 5,
            StreamKind::Auxiliary => 6,
            StreamKind::AgentEnvironment => 7,
            StreamKind::AgentNoise => 8,
        }
    }
}

/// Derives the seed for stream `(kind, index)` from a base trial seed.
///
/// The derivation is three chained SplitMix64 mixes, so nearby bases and
/// indices map to unrelated seeds. The first two depend only on
/// `(base, kind)` and form a [`SeedPrefix`]; this function is
/// `SeedPrefix::new(base, kind).seed(index)`. A caller deriving many
/// indices of one stream (one per ant) builds the prefix once instead.
///
/// # Examples
///
/// ```
/// use hh_model::seeding::{derive_seed, StreamKind};
/// // Deterministic: the same inputs always give the same seed.
/// assert_eq!(
///     derive_seed(7, StreamKind::Agent, 3),
///     derive_seed(7, StreamKind::Agent, 3),
/// );
/// ```
#[must_use]
pub fn derive_seed(base: u64, kind: StreamKind, index: u64) -> u64 {
    SeedPrefix::new(base, kind).seed(index)
}

/// The `(base, kind)` half of [`derive_seed`], mixed once.
///
/// `prefix.seed(index)` equals `derive_seed(base, kind, index)` bit for
/// bit, for one SplitMix64 mix per index instead of three.
///
/// # Examples
///
/// ```
/// use hh_model::seeding::{derive_seed, SeedPrefix, StreamKind};
///
/// let agents = SeedPrefix::new(42, StreamKind::Agent);
/// for ant in 0..4 {
///     assert_eq!(agents.seed(ant), derive_seed(42, StreamKind::Agent, ant));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPrefix(u64);

impl SeedPrefix {
    /// Mixes the base seed and the stream label.
    #[must_use]
    pub fn new(base: u64, kind: StreamKind) -> Self {
        Self(splitmix64(
            splitmix64(base) ^ kind.tag().wrapping_mul(GOLDEN_GAMMA),
        ))
    }

    /// The seed of stream `(kind, index)`.
    #[inline]
    #[must_use]
    pub fn seed(self, index: u64) -> u64 {
        splitmix64(self.0 ^ index.wrapping_mul(GOLDEN_GAMMA))
    }
}

/// A per-row key for counter-based draws.
///
/// Where [`derive_seed`] feeds *stateful* generators (one xoshiro stream
/// per component), a `DrawKey` feeds the stateless keyed hash
/// ([`rand::rngs::CounterRng::hash`]): every draw is a pure function of
/// `(key, counter)`, with the round number as the counter. That makes
/// per-row draws order-independent — a dense column sweep, a chunked
/// parallel pass, and the scalar match-per-ant oracle all issue the same
/// words by construction — and lets a whole column of draws compile down
/// to a branch-free vectorizable loop.
///
/// Keys are `Copy` values, not streams: cloning an agent clones its key,
/// and two agents with the same key make identical draws forever. Derive
/// one key per ant via [`DrawKey::derive`].
///
/// # Examples
///
/// ```
/// use hh_model::seeding::{DrawKey, StreamKind};
///
/// let key = DrawKey::derive(42, StreamKind::Agent, 3);
/// // Draws are pure: the same (key, round) pair always agrees.
/// assert_eq!(key.coin(10, 0.5), key.coin(10, 0.5));
/// // Monotone in p: a draw that passes at p keeps passing at higher p.
/// if key.coin(10, 0.25) {
///     assert!(key.coin(10, 0.75));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DrawKey(u64);

impl DrawKey {
    /// Builds a key directly from an already-mixed stream seed.
    ///
    /// The seed is passed through one extra [`splitmix64`] round so that
    /// callers holding *sequential* raw seeds (tests, ad-hoc tooling)
    /// still get decorrelated keys.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self(splitmix64(seed))
    }

    /// Derives the key for stream `(kind, index)` from a base trial seed,
    /// mirroring [`derive_seed`].
    #[must_use]
    pub fn derive(base: u64, kind: StreamKind, index: u64) -> Self {
        Self::from_seed(derive_seed(base, kind, index))
    }

    /// Returns the raw 64-bit word for draw `counter` under this key.
    #[inline]
    #[must_use]
    pub fn word(self, counter: u64) -> u64 {
        rand::rngs::CounterRng::hash(self.0, counter)
    }

    /// Returns a Bernoulli(`p`) draw for `counter` under this key.
    ///
    /// Uses the same word→unit-interval mapping as
    /// [`rand::RngExt::random_bool`] (top 53 bits), so a keyed draw and a
    /// stream draw from the same word agree bit for bit. `p <= 0.0` (and
    /// NaN) always yields `false`; `p >= 1.0` always yields `true`.
    #[inline]
    #[must_use]
    pub fn coin(self, counter: u64, p: f64) -> bool {
        let unit = (self.word(counter) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn derive_seed_distinguishes_streams() {
        let mut seen = BTreeSet::new();
        for kind in [
            StreamKind::Environment,
            StreamKind::Agent,
            StreamKind::Crash,
            StreamKind::Delay,
            StreamKind::Auxiliary,
            StreamKind::AgentEnvironment,
            StreamKind::AgentNoise,
        ] {
            for index in 0..100 {
                assert!(
                    seen.insert(derive_seed(123, kind, index)),
                    "collision for {kind:?}/{index}"
                );
            }
        }
    }

    #[test]
    fn derive_seed_distinguishes_bases() {
        let a = derive_seed(1, StreamKind::Agent, 0);
        let b = derive_seed(2, StreamKind::Agent, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn draw_key_matches_the_counter_hash() {
        // `word` is exactly the vendored keyed hash over the mixed seed —
        // the bit-identity bridge between scalar agents (which call
        // `coin`) and the dense plane fill (which may batch `word`s).
        let key = DrawKey::from_seed(12345);
        for round in 0..32 {
            assert_eq!(
                key.word(round),
                rand::rngs::CounterRng::hash(splitmix64(12345), round)
            );
        }
    }

    #[test]
    fn draw_key_coin_matches_a_stream_draw_from_the_same_word() {
        use rand::{RngExt, SeedableRng};
        // A CounterRng seeded with the key's internal word replays the
        // same hash sequence, so `random_bool` through the shim and
        // `coin` through the key must agree on every round.
        let key = DrawKey::from_seed(777);
        let mut rng = rand::rngs::CounterRng::seed_from_u64(splitmix64(777));
        for round in 0..256 {
            assert_eq!(
                key.coin(round, 0.37),
                rng.random_bool(0.37),
                "round {round}"
            );
        }
    }

    #[test]
    fn draw_key_coin_handles_degenerate_probabilities() {
        let key = DrawKey::from_seed(9);
        for round in 0..64 {
            assert!(!key.coin(round, 0.0));
            assert!(!key.coin(round, -1.0));
            assert!(!key.coin(round, f64::NAN));
            assert!(key.coin(round, 1.0));
        }
    }

    #[test]
    fn sequential_seeds_give_decorrelated_keys() {
        // Tests seed agents with consecutive integers; the extra mix in
        // `from_seed` must keep their coin flips independent-looking.
        let heads: Vec<usize> = (0..4u64)
            .map(|seed| {
                let key = DrawKey::from_seed(seed);
                (0..2_000).filter(|&round| key.coin(round, 0.5)).count()
            })
            .collect();
        for (seed, &count) in heads.iter().enumerate() {
            assert!(
                (900..=1_100).contains(&count),
                "seed {seed}: {count}/2000 heads"
            );
        }
    }

    #[test]
    fn derive_distinguishes_key_streams() {
        let mut seen = BTreeSet::new();
        for kind in [StreamKind::Agent, StreamKind::AgentEnvironment] {
            for index in 0..100 {
                assert!(seen.insert(DrawKey::derive(123, kind, index)));
            }
        }
    }

    #[test]
    fn seeds_look_uniform_in_low_bits() {
        // Cheap sanity check that derived seeds are not obviously biased:
        // the low bit should be set roughly half the time.
        let ones = (0..10_000)
            .filter(|&i| derive_seed(7, StreamKind::Agent, i) & 1 == 1)
            .count();
        assert!((4_500..=5_500).contains(&ones), "low-bit count {ones}");
    }
}
