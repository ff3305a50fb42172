//! The recruitment pairing process — the paper's "Algorithm 1".
//!
//! In every round, all ants that called `recruit(b, i)` are located at the
//! home nest and participate in a centralized pairing run by the
//! environment. The paper stresses that this is "not a distributed
//! algorithm executed by the ants, but just a modeling tool": active
//! recruiters (`b = 1`) pick uniformly random partners, with a uniformly
//! random permutation `P` breaking ties so that no ant is in more than one
//! recruiter/recruited pair.
//!
//! Faithfully to Algorithm 1:
//!
//! * processing follows a uniform random permutation of the participants;
//! * an active ant only attempts to recruit if it has not itself already
//!   been recruited by an earlier ant in the permutation;
//! * the chosen partner is drawn uniformly from *all* participants —
//!   including the recruiter itself, so self-pairs are possible (Lemma 3.1
//!   relies on forced self-recruitment when the home nest holds one ant);
//! * a chosen partner is only matched if it has neither recruited nor been
//!   recruited already.
//!
//! The pairing is exposed publicly so that Lemma 2.1 ("an active recruiter
//! succeeds with probability ≥ 1/16") can be validated by direct
//! Monte-Carlo simulation — see experiment F2.
//!
//! # One state word per participant
//!
//! The pairing runs serially between the round's two chunked phases, so
//! its cost is paid once per round on one core. It therefore keeps one
//! `u32` per participant that says everything Algorithm 1 needs:
//!
//! * `FREE` (`u32::MAX`): neither recruited nor recruiting yet;
//! * `WON` (`u32::MAX − 1`): recruited a *different* participant;
//! * any other value: the call index of the participant's recruiter —
//!   its own index for a self-pair, which counts as both recruiting and
//!   being recruited.
//!
//! Line 3's "already recruited" test and line 5's "target is free" test
//! are then each one comparison against `FREE`, and
//! [`Pairing::recruited_by`], [`Pairing::succeeded`] and
//! [`Pairing::was_recruited_by_other`] are derived from the word. The
//! random draws are those of the textbook two-array transcription: the
//! same shuffle of the same ascending list of active indices, then one
//! target draw per active ant that line 3 lets attempt, in permutation
//! order. Only the line-3 test decides whether an ant draws, and it gives
//! the same answer in both encodings, so the draw sequence — and with it
//! every matching — is unchanged. The other per-ant decisions (whether the
//! target was free, what to record) are computed as data rather than
//! taken as branches.
//!
//! # The kernel and the id-level view
//!
//! [`pair_chunks_into`] is the kernel, the engine's entry point. It reads
//! the round's calls as consecutive chunks in ant order, in place, so the
//! executor pairs its round workers' call vectors without first copying
//! them into one; a call's index is its rank across the chunks, the same
//! rank it has in the concatenation, so every draw is the same. The
//! kernel builds what every round's outcomes read: the state words, the
//! matched pairs as call indices ([`Pairing::matched_indices`]) and each
//! participant's returned nest ([`Pairing::assigned_nest`]) — its own
//! nest, then its recruiter's for every matched pair, which reads no call
//! because a recruiter is never recruited.
//!
//! The id-level view, [`Pairing::pairs`], is built only by the callers
//! that report it: [`pair_ants`] (the kernel on one chunk, then the view)
//! and the environment's reporting paths,
//! [`Environment::pair_round`](crate::Environment::pair_round),
//! [`Environment::step`](crate::Environment::step) and
//! [`Environment::build_pairs`](crate::Environment::build_pairs), which
//! the `hh-sim` executor calls only on the rounds it materializes. The
//! kernel leaves it empty.
//!
//! # Examples
//!
//! ```
//! use hh_model::recruitment::{pair_ants, RecruitCall};
//! use hh_model::{AntId, NestId};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let calls = vec![
//!     RecruitCall::new(AntId::new(0), true, NestId::candidate(1)),
//!     RecruitCall::new(AntId::new(1), false, NestId::candidate(2)),
//! ];
//! let mut rng = SmallRng::seed_from_u64(7);
//! let pairing = pair_ants(&calls, &mut rng);
//! // Every participant receives a nest id: either its own input or its
//! // recruiter's input.
//! for idx in 0..calls.len() {
//!     let nest = pairing.assigned_nest(idx);
//!     assert!(nest == calls[idx].nest || nest == calls[0].nest);
//! }
//! ```

use rand::seq::SliceRandom;
use rand::Rng;

use crate::ids::{AntId, NestId};

/// One ant's `recruit(b, i)` call: the participant record handed to the
/// pairing process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecruitCall {
    /// The calling ant.
    pub ant: AntId,
    /// The call's `b` argument: `true` for `recruit(1, ·)`.
    pub active: bool,
    /// The call's nest argument `i`.
    pub nest: NestId,
}

impl RecruitCall {
    /// Creates a participant record.
    #[must_use]
    pub const fn new(ant: AntId, active: bool, nest: NestId) -> Self {
        Self { ant, active, nest }
    }
}

/// The result of one round's recruitment pairing.
///
/// Indices throughout refer to positions in the `calls` slice passed to
/// [`pair_ants`] (ranks across the chunks passed to [`pair_chunks_into`]),
/// not to ant ids; use [`Pairing::pairs`] for an id-level view.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pairing {
    /// One word per participant: [`FREE`], [`WON`], or the call index of
    /// its recruiter (its own index for a self-pair). See the module docs.
    state: Vec<u32>,
    /// The nest id each participant's call returns.
    assigned: Vec<NestId>,
    /// Matched pairs `(recruiter, recruited)` in match order, as ant ids:
    /// the view, empty after the kernel alone (see the module docs).
    pairs: Vec<(AntId, AntId)>,
    /// The same pairs as call indices, for consumers that need to index
    /// back into the call slice without an ant-id lookup.
    matched: Vec<(u32, u32)>,
}

/// State word of a participant that has neither recruited nor been
/// recruited.
const FREE: u32 = u32::MAX;

/// State word of a participant that recruited a *different* participant.
const WON: u32 = u32::MAX - 1;

impl Pairing {
    /// Returns the number of participants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assigned.len()
    }

    /// Returns `true` if no ants participated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assigned.is_empty()
    }

    /// Returns the nest id participant `idx`'s call returns: the
    /// recruiter's input if recruited, the participant's own input
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn assigned_nest(&self, idx: usize) -> NestId {
        self.assigned[idx]
    }

    /// Returns the index of the participant that recruited `idx`, if any.
    /// A self-pair reports the participant's own index.
    #[must_use]
    pub fn recruited_by(&self, idx: usize) -> Option<usize> {
        match self.state[idx] {
            FREE | WON => None,
            recruiter => Some(recruiter as usize),
        }
    }

    /// Returns `true` iff participant `idx` recruited successfully, i.e.
    /// `(idx, ·) ∈ M` — the event of Lemma 2.1. Self-pairs count, as they
    /// do in the paper.
    #[must_use]
    pub fn succeeded(&self, idx: usize) -> bool {
        let word = self.state[idx];
        word == WON || word as usize == idx
    }

    /// Returns `true` iff participant `idx` was recruited by a *different*
    /// participant (informative recruitment: the returned nest id is the
    /// recruiter's, not the participant's own).
    #[must_use]
    pub fn was_recruited_by_other(&self, idx: usize) -> bool {
        let word = self.state[idx];
        word < WON && word as usize != idx
    }

    /// Returns the matched pairs `(recruiter, recruited)` as ant ids, in
    /// match order. Self-pairs appear as `(a, a)`.
    ///
    /// This is the id-level view: [`pair_ants`] builds it, and the kernel
    /// alone, [`pair_chunks_into`], leaves it empty.
    #[must_use]
    pub fn pairs(&self) -> &[(AntId, AntId)] {
        &self.pairs
    }

    /// Returns the matched pairs `(recruiter, recruited)` as **call
    /// indices**, in match order — the zero-lookup companion of
    /// [`pairs`](Self::pairs) for consumers that hold the call slice.
    #[must_use]
    pub fn matched_indices(&self) -> &[(u32, u32)] {
        &self.matched
    }

    /// Returns the number of pairs in the matching `M`.
    #[must_use]
    pub fn matched_count(&self) -> usize {
        self.matched.len()
    }

    /// Builds the id-level view, [`pairs`](Self::pairs), from the matched
    /// call indices and the calls they index.
    ///
    /// # Panics
    ///
    /// Panics if a matched index is out of range for `calls`, which must
    /// be the calls this pairing was built from.
    pub(crate) fn build_pairs(&mut self, calls: &[RecruitCall]) {
        self.pairs.clear();
        self.pairs
            .extend(self.matched.iter().map(|&(recruiter, recruited)| {
                (calls[recruiter as usize].ant, calls[recruited as usize].ant)
            }));
    }
}

/// Runs the paper's Algorithm 1 over one round's `recruit` calls.
///
/// Returns the matching and, for each participant, the nest id its call
/// returns: the kernel, [`pair_chunks_into`], on one chunk, then the
/// id-level view. The function is deterministic given `rng`'s state, and
/// draws exactly what the kernel draws on the same calls.
///
/// # Panics
///
/// Panics if `calls.len() >= u32::MAX − 1`: call indices share the state
/// word with its two sentinels.
#[must_use]
pub fn pair_ants<R: Rng + ?Sized>(calls: &[RecruitCall], rng: &mut R) -> Pairing {
    let mut pairing = Pairing::default();
    pair_chunks_into([calls], rng, &mut pairing, &mut Vec::new());
    pairing.build_pairs(calls);
    pairing
}

/// Algorithm 1's kernel over one round's calls, given as consecutive
/// chunks whose concatenation is the calls in ant order; the engine's
/// round workers each hand in their own call vector. A call's index is
/// its rank across the chunks, so any split of the same calls gives the
/// same draws and the same pairing.
///
/// Fills everything but the id-level view, which it clears: see the
/// module docs. `pairing` and the permutation scratch `perm` are cleared
/// and refilled, so a caller that pairs every round allocates nothing
/// after warm-up, and the stream ends where [`pair_ants`]'s does.
///
/// # Panics
///
/// Panics if the chunks hold `u32::MAX − 1` calls or more: call indices
/// share the state word with its two sentinels.
pub fn pair_chunks_into<'c, R, I>(
    chunks: I,
    rng: &mut R,
    pairing: &mut Pairing,
    perm: &mut Vec<u32>,
) where
    R: Rng + ?Sized,
    I: IntoIterator<Item = &'c [RecruitCall]>,
    I::IntoIter: Clone,
{
    let chunks = chunks.into_iter();
    let m: usize = chunks.clone().map(<[RecruitCall]>::len).sum();
    assert!(m < WON as usize, "too many recruit participants");

    // Line 2: process ants in a uniform random permutation P. Passive
    // ants never attempt to recruit (line 3) and their positions in P
    // consume no randomness, so the processing order of the *active*
    // subset — a uniform permutation of that subset — determines the
    // matching exactly as a full-colony permutation would. Shuffling only
    // the actives is therefore the identical stochastic process, at a
    // fraction of the cost when most participants wait passively. The
    // actives are compacted without a branch: every rank is stored, and
    // the cursor only moves past an active one. The same pass gives each
    // participant its own nest, the default of lines 7–12.
    let assigned = &mut pairing.assigned;
    assigned.clear();
    perm.clear();
    perm.resize(m, 0);
    let mut active = 0;
    let mut rank = 0u32;
    for chunk in chunks {
        assigned.extend(chunk.iter().map(|call| call.nest));
        for call in chunk {
            perm[active] = rank;
            active += usize::from(call.active);
            rank += 1;
        }
    }
    perm.truncate(active);
    perm.shuffle(rng);

    let state = &mut pairing.state;
    state.clear();
    state.resize(m, FREE);
    let matched = &mut pairing.matched;
    matched.clear();
    let bound = u128::from(m as u64);
    for &idx in perm.iter() {
        // Line 3: an active ant that has already been recruited by an
        // earlier ant in P does not attempt to recruit. This test decides
        // whether the ant draws, so it stays a branch.
        if state[idx as usize] != FREE {
            continue;
        }
        // Line 4: choose a uniformly random participant — possibly idx
        // itself. Multiply-shift sampling: divisionless, with residual
        // bias < 2^-32 (as in the shuffle).
        let target = ((u128::from(rng.next_u64()) * bound) >> 64) as usize;
        // Line 5: the target must have neither recruited nor been
        // recruited. Line 6, M := M ∪ (idx, target), as selects: on a
        // taken target both writes store what was already there and the
        // pushed pair is truncated away. `idx` is FREE here, so a taken
        // target is never idx itself, and writing idx's word first lets
        // a self-pair end as its own index.
        let held = state[target];
        let free = held == FREE;
        state[idx as usize] = if free { WON } else { FREE };
        state[target] = if free { idx } else { held };
        let len = matched.len();
        matched.push((idx, target as u32));
        matched.truncate(len + usize::from(free));
    }

    // Lines 7–12: each recruited ant receives its recruiter's nest input.
    // Only matched pairs differ from the default, so walk those. A
    // recruiter was free when it recruited and is never recruited after,
    // so its entry still holds its own nest.
    for &(recruiter, recruited) in matched.iter() {
        assigned[recruited as usize] = assigned[recruiter as usize];
    }
    pairing.pairs.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn call(i: usize, active: bool, nest: usize) -> RecruitCall {
        RecruitCall::new(AntId::new(i), active, NestId::candidate(nest))
    }

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn empty_input_yields_empty_pairing() {
        let pairing = pair_ants(&[], &mut rng(1));
        assert!(pairing.is_empty());
        assert_eq!(pairing.matched_count(), 0);
    }

    #[test]
    fn lone_active_ant_self_recruits() {
        // With a single participant, the only possible target is the ant
        // itself: Lemma 3.1's forced self-recruitment.
        let calls = [call(0, true, 1)];
        let pairing = pair_ants(&calls, &mut rng(2));
        assert_eq!(pairing.len(), 1);
        assert!(pairing.succeeded(0));
        assert_eq!(pairing.recruited_by(0), Some(0));
        assert!(!pairing.was_recruited_by_other(0));
        assert_eq!(pairing.assigned_nest(0), NestId::candidate(1));
        assert_eq!(pairing.pairs(), &[(AntId::new(0), AntId::new(0))]);
    }

    #[test]
    fn lone_passive_ant_is_untouched() {
        let calls = [call(0, false, 3)];
        let pairing = pair_ants(&calls, &mut rng(3));
        assert!(!pairing.succeeded(0));
        assert_eq!(pairing.recruited_by(0), None);
        assert_eq!(pairing.assigned_nest(0), NestId::candidate(3));
    }

    #[test]
    fn passive_ants_never_recruit() {
        let calls: Vec<RecruitCall> = (0..50).map(|i| call(i, false, 1)).collect();
        let pairing = pair_ants(&calls, &mut rng(4));
        assert_eq!(pairing.matched_count(), 0);
        for idx in 0..calls.len() {
            assert!(!pairing.succeeded(idx));
            assert_eq!(pairing.recruited_by(idx), None);
        }
    }

    #[test]
    fn recruited_ants_receive_recruiter_nest() {
        // Many active recruiters to nest 1, many passive waiters on nest 2:
        // every matched waiter must be told nest 1.
        let mut calls: Vec<RecruitCall> = (0..20).map(|i| call(i, true, 1)).collect();
        calls.extend((20..40).map(|i| call(i, false, 2)));
        let pairing = pair_ants(&calls, &mut rng(5));
        assert!(pairing.matched_count() > 0, "some pair should form");
        for idx in 20..40 {
            if pairing.was_recruited_by_other(idx) {
                assert_eq!(pairing.assigned_nest(idx), NestId::candidate(1));
            } else if pairing.recruited_by(idx).is_none() {
                assert_eq!(pairing.assigned_nest(idx), NestId::candidate(2));
            }
        }
    }

    #[test]
    fn matching_is_a_partial_injection() {
        // No ant appears as recruited in two pairs, and no ant that
        // recruited also got recruited by someone else.
        let calls: Vec<RecruitCall> = (0..200).map(|i| call(i, i % 2 == 0, 1 + i % 3)).collect();
        for seed in 0..20 {
            let pairing = pair_ants(&calls, &mut rng(seed));
            let mut recruited_seen = vec![false; calls.len()];
            for &(recruiter, recruited) in pairing.pairs() {
                let (ri, xi) = (recruiter.index(), recruited.index());
                assert!(calls[ri].active, "recruiter must be in S");
                assert!(!recruited_seen[xi], "ant recruited twice");
                recruited_seen[xi] = true;
            }
            // An ant recruited by a *different* ant must not itself have
            // succeeded.
            for idx in 0..calls.len() {
                if pairing.was_recruited_by_other(idx) {
                    assert!(!pairing.succeeded(idx));
                }
            }
        }
    }

    /// Lemma 2.1: an active recruiter succeeds with probability ≥ 1/16
    /// whenever at least two ants are at the home nest. Empirically the
    /// probability is far higher; we check the bound with slack.
    #[test]
    fn lemma_2_1_success_probability() {
        let mut r = rng(6);
        // Worst-ish case: everyone actively recruiting.
        let calls: Vec<RecruitCall> = (0..64).map(|i| call(i, true, 1)).collect();
        let trials = 4_000;
        let successes = (0..trials)
            .filter(|_| pair_ants(&calls, &mut r).succeeded(0))
            .count();
        let p = successes as f64 / f64::from(trials);
        assert!(
            p >= 1.0 / 16.0,
            "success probability {p} below Lemma 2.1 bound"
        );
    }

    /// The pairing must treat participants symmetrically: with everyone
    /// active, each ant's marginal success probability is identical, so
    /// empirical rates for two fixed ants should agree.
    #[test]
    fn pairing_is_exchangeable() {
        let mut r = rng(7);
        let calls: Vec<RecruitCall> = (0..16).map(|i| call(i, true, 1)).collect();
        let trials = 8_000;
        let mut wins = [0u32; 2];
        for _ in 0..trials {
            let pairing = pair_ants(&calls, &mut r);
            wins[0] += u32::from(pairing.succeeded(0));
            wins[1] += u32::from(pairing.succeeded(8));
        }
        let (a, b) = (f64::from(wins[0]), f64::from(wins[1]));
        assert!(
            (a - b).abs() / a.max(b) < 0.15,
            "asymmetric success rates: {a} vs {b}"
        );
    }

    #[test]
    fn into_variant_matches_and_reuses_buffers() {
        let calls: Vec<RecruitCall> = (0..40).map(|i| call(i, i % 2 == 0, 1 + i % 4)).collect();
        let mut pairing = Pairing::default();
        let mut perm = Vec::new();
        for seed in 0..8 {
            let fresh = pair_ants(&calls, &mut rng(seed));
            pair_chunks_into([&calls[..]], &mut rng(seed), &mut pairing, &mut perm);
            assert!(pairing.pairs().is_empty(), "the kernel builds no pairs");
            pairing.build_pairs(&calls);
            assert_eq!(fresh, pairing, "seed {seed}: reuse diverged");
        }
        // A shrinking participant set must not leak stale state, the
        // previous round's pairs included.
        let fewer: Vec<RecruitCall> = (0..5).map(|i| call(i, true, 1)).collect();
        let fresh = pair_ants(&fewer, &mut rng(99));
        pair_chunks_into([&fewer[..]], &mut rng(99), &mut pairing, &mut perm);
        assert!(pairing.pairs().is_empty());
        pairing.build_pairs(&fewer);
        assert_eq!(fresh, pairing);
        assert_eq!(pairing.len(), 5);
    }

    #[test]
    fn deterministic_given_rng_state() {
        let calls: Vec<RecruitCall> = (0..30).map(|i| call(i, i % 3 != 0, 1)).collect();
        let a = pair_ants(&calls, &mut rng(99));
        let b = pair_ants(&calls, &mut rng(99));
        assert_eq!(a, b);
    }
}
