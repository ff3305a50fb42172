//! The adaptive-rate variant — Section 6's "Improved running time"
//! extension.
//!
//! Algorithm 3 needs `O(k log n)` rounds because the initial nest
//! populations are `≈ n/k`, so ants recruit with probability only `≈ 1/k`
//! and `O(k)` rounds pass per constant-factor gap amplification. Section 6
//! sketches the fix: *"If ants keep track of the round number, they can map
//! this to an estimate `k̃(r)` of how many competing nests remain, allowing
//! them to recruit at rate `O(c(i, r)/n · k̃(r))`"*.
//!
//! [`AdaptivePolicy`] is one concrete instantiation of that sketch (the
//! paper gives none):
//!
//! ```text
//! p    =  max( c/n,  min( 1,  θ · (c/n) · k̃(r) ) )
//! k̃(r) =  clamp( √n · 2^(−r / (τ·log₂ n)),  2,  √n )
//! ```
//!
//! with the constants θ = [`AdaptivePolicy::THETA`] = 0.4 and
//! τ = [`AdaptivePolicy::TAU`] = 1, so `k̃` halves every `log₂ n` rounds.
//!
//! The estimate *decays from `√n` toward 2*, tracking the shrinking
//! survivor count from above (Theorem 5.11 already assumes
//! `k = O(√n / log n)`, so `√n` upper-bounds any admissible `k`). The
//! design rationale, distilled from failure modes found while
//! validating:
//!
//! * **Amplified linear core** `θ·(c/n)·k̃` — preserves the exact
//!   proportionality between population and recruitment rate that the
//!   Polya-urn drift analysis of Section 5.2 rests on. (A smooth
//!   saturating form `θ·c/(c+pivot)` was tried first and is measurably
//!   *worse* than the simple rule: concavity in `c` boosts the smaller
//!   nest's relative rate, weakening the rich-get-richer feedback. A
//!   *growing* `k̃` schedule was tried second: once every survivor hits a
//!   common cap, their rates equalize and the gap dynamics degenerate
//!   into a driftless random walk.)
//! * **Decay from above** — while `k̃` still exceeds the true survivor
//!   count the rule saturates (`p = 1`): a burst of symmetric, harmless
//!   churn that lasts only `O(log n · log(√n/k))` rounds. Once `k̃`
//!   crosses below the survivor count, rates fall to `≈ θ` and the full
//!   rich-get-richer drift switches on at constant rate — independent of
//!   `k`.
//! * **Linear floor `c/n` and floor `k̃ ≥ 2`** — after the schedule
//!   bottoms out the rule equals Algorithm 3's `c/n` exactly, so the
//!   variant inherits the simple algorithm's convergence guarantee
//!   unconditionally; the adaptive schedule can only change *when* it
//!   converges, not *whether*.
//!
//! `k̃(r)` is a pure function of `(n, r)`: it depends on the round and
//! not on the ant. [`AdaptivePolicy::k_estimate`] therefore computes it
//! once per round per thread and serves every other ant of that round
//! from a one-entry memo keyed on `(n, r)`, at any round-thread and
//! trial-worker count. The schedule (model clarification 7) is
//! unchanged; only how often it is evaluated is.
//!
//! Experiment F13 measures the payoff: across a `k` sweep at fixed `n`,
//! the simple agent's convergence time grows linearly in `k` while the
//! adaptive agent's growth is markedly flatter (the prologue's fixed
//! polylog cost makes it slower at small `k`; it wins as `k` grows).

use std::cell::Cell;

use crate::simple::{RecruitPolicy, UrnAnt, UrnOptions};

/// Section 6's round-indexed recruitment-rate schedule (one concrete
/// instantiation; see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptivePolicy;

impl AdaptivePolicy {
    /// Halving period of `k̃(r)` in units of `log₂ n` rounds.
    pub const TAU: f64 = 1.0;
    /// Target recruit rate for surviving nests once the schedule tracks
    /// them.
    pub const THETA: f64 = 0.4;

    /// The round-indexed estimate `k̃(r)` of surviving nests: decays from
    /// `√n` toward its floor of 2.
    ///
    /// Every ant of a colony asks for the same `(round, n)` in a recruit
    /// round, so the value is memoized per thread, keyed on that whole
    /// input; a hit returns the bits the uncached schedule computed for
    /// it.
    #[must_use]
    pub fn k_estimate(round: u64, n: usize) -> f64 {
        let key = (round, n);
        K_ESTIMATE_MEMO.with(|memo| match memo.get() {
            Some((hit, k)) if hit == key => k,
            _ => {
                let k = Self::schedule(round, n);
                memo.set(Some((key, k)));
                k
            }
        })
    }

    /// The schedule itself, uncached: a pure function of `(n, r)`.
    fn schedule(round: u64, n: usize) -> f64 {
        let nf = n.max(4) as f64;
        let log2n = nf.log2().max(1.0);
        let period = (Self::TAU * log2n).max(1.0);
        let halvings = (round as f64 / period).min(64.0);
        (nf.sqrt() * 2f64.powf(-halvings)).clamp(2.0, nf.sqrt())
    }
}

/// The `(round, n)` key of this thread's last
/// [`AdaptivePolicy::k_estimate`], and its value.
type KEstimateMemo = Option<((u64, usize), f64)>;

// hh-lint: allow(thread-local) — pure memo keyed on every input of k_estimate
thread_local! {
    static K_ESTIMATE_MEMO: Cell<KEstimateMemo> = const { Cell::new(None) };
}

impl RecruitPolicy for AdaptivePolicy {
    fn recruit_probability(&self, count: usize, n: usize, round: u64) -> f64 {
        if count == 0 || n == 0 {
            return 0.0;
        }
        let share = count as f64 / n as f64;
        let boosted = (Self::THETA * share * Self::k_estimate(round, n)).min(1.0);
        share.max(boosted).min(1.0)
    }

    fn label(&self) -> &'static str {
        "adaptive"
    }
}

/// An urn agent running the adaptive-rate schedule: Section 6's
/// "improved running time" ant.
///
/// # Examples
///
/// ```
/// use hh_core::{AdaptiveAnt, Agent};
/// use hh_model::Action;
///
/// let mut ant = AdaptiveAnt::new(1024, 7);
/// assert_eq!(ant.choose(1), Action::Search);
/// assert_eq!(ant.label(), "adaptive");
/// ```
pub type AdaptiveAnt = UrnAnt<AdaptivePolicy>;

impl AdaptiveAnt {
    /// Creates an adaptive ant with the paper-faithful options.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_policy(n, seed, AdaptivePolicy, UrnOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Agent;
    use crate::simple::LinearPolicy;
    use crate::testutil::{boxed_colony, drive_to_consensus, make_env};
    use hh_model::QualitySpec;

    #[test]
    fn estimate_decays_on_schedule_and_floors() {
        let k = AdaptivePolicy::k_estimate;
        let n = 1024; // log2 = 10, period = τ·10 = 10 rounds, start √n = 32
        assert!((k(0, n) - 32.0).abs() < 1e-9);
        assert!((k(10, n) - 16.0).abs() < 1e-9);
        assert!((k(20, n) - 8.0).abs() < 1e-9);
        // Floor at 2.
        assert_eq!(k(10_000, n), 2.0);
        // And no overflow at absurd rounds.
        assert!(k(u64::MAX, n).is_finite());
    }

    #[test]
    fn memoized_estimate_is_the_schedule_bit_for_bit() {
        // A freshly spawned thread starts with an empty memo, whatever
        // ran before on the test harness's threads.
        std::thread::spawn(|| {
            let calls = [
                // First, on the empty memo: the true value is 2.0, which
                // a memo pre-filled with a sentinel at this key misses.
                (u64::MAX, 0),
                (3, 1024),
                (3, 1024),
                (3, 4096),
                (2, 4096),
                (2, 1024),
                (0, 1024),
                (0, 4096),
                (9, 4096),
                (9, 1024),
                (1, 1024),
                (1, 4096),
                (u64::MAX, 0),
            ];
            for (round, n) in calls {
                assert_eq!(
                    AdaptivePolicy::k_estimate(round, n).to_bits(),
                    AdaptivePolicy::schedule(round, n).to_bits(),
                    "round {round}, n {n}"
                );
            }
            assert_eq!(AdaptivePolicy::k_estimate(u64::MAX, 0), 2.0);
        })
        .join()
        .expect("the memo check panicked");
    }

    #[test]
    fn never_below_the_simple_rule() {
        let adaptive = AdaptivePolicy;
        let simple = LinearPolicy;
        for n in [64usize, 512, 4096] {
            for count in [0usize, 1, n / 64, n / 8, n / 2, n] {
                for round in [0u64, 10, 100, 10_000] {
                    let a = adaptive.recruit_probability(count, n, round);
                    let s = simple.recruit_probability(count, n, round);
                    assert!(
                        a + 1e-12 >= s,
                        "adaptive {a} below simple {s} at n={n}, c={count}, r={round}"
                    );
                    assert!(a <= 1.0 + 1e-12);
                }
            }
        }
    }

    #[test]
    fn late_schedule_degenerates_to_the_simple_rule() {
        // Once k̃ bottoms out at 2, θ·(c/n)·2 = 0.8·(c/n) < c/n, so the
        // linear floor takes over and the rule equals Algorithm 3's.
        let policy = AdaptivePolicy;
        let n = 4096;
        for count in [1usize, 100, 2_048, 4_096] {
            let p = policy.recruit_probability(count, n, 1_000_000);
            let simple = count as f64 / n as f64;
            assert!((p - simple).abs() < 1e-12, "c={count}: {p} vs {simple}");
        }
    }

    #[test]
    fn early_schedule_saturates_fair_shares() {
        // At round 0 with k̃ = √n, a fair-share nest (c = n/k, k ≤ √n)
        // recruits at the full rate: the harmless symmetric-churn
        // prologue.
        let policy = AdaptivePolicy;
        let n = 1024;
        let p = policy.recruit_probability(n / 8, n, 0);
        assert!((p - 1.0).abs() < 1e-12, "expected saturation, got {p}");
    }

    #[test]
    fn probability_is_monotone_in_count() {
        let policy = AdaptivePolicy;
        let n = 4096;
        for round in [0u64, 50, 200, 1_000] {
            let mut last = -1.0;
            for count in [0usize, 1, 10, 100, 1_000, 4_096] {
                let p = policy.recruit_probability(count, n, round);
                assert!((0.0..=1.0).contains(&p), "p = {p}");
                assert!(p >= last, "monotonicity violated at count {count}");
                last = p;
            }
        }
    }

    #[test]
    fn zero_count_is_zero_probability() {
        let policy = AdaptivePolicy;
        assert_eq!(policy.recruit_probability(0, 100, 10), 0.0);
    }

    #[test]
    fn colony_converges() {
        for seed in 0..5 {
            let env = make_env(128, QualitySpec::good_prefix(8, 4), seed);
            let agents = boxed_colony(128, |i| AdaptiveAnt::new(128, seed * 777 + i as u64));
            let (solved, env) = drive_to_consensus(env, agents, 6_000);
            let (_, winner) = solved.unwrap_or_else(|| panic!("seed {seed}: no consensus"));
            assert!(env.quality_of(winner).unwrap().is_good());
        }
    }

    #[test]
    fn label_and_role() {
        let ant = AdaptiveAnt::new(64, 0);
        assert_eq!(ant.label(), "adaptive");
        assert_eq!(ant.committed_nest(), None);
    }
}
