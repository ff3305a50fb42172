//! The ledger of model clarifications: where the code resolves what the
//! paper (Ghaffari, Musco, Radeva & Lynch, PODC 2015) leaves open. Each
//! entry gives the paper's section or pseudocode line, what it leaves
//! open, the choice the code makes, the code site, and the test that pins
//! the choice. This module holds no code; doc comments elsewhere link to
//! its entries.
//!
//! ## 1. Knowledge-based legality
//!
//! * **Paper:** §2, the preconditions of `go(i)` and `recruit(b, i)`.
//! * **Open:** the precondition is a prior round with `ℓ(a, r′) = i`, yet
//!   both algorithms `go` to a nest the ant was just *recruited to*
//!   (Algorithm 2, lines 14–18).
//! * **Choice:** legal nests are those the ant visited *or was recruited
//!   to*. A recruit participant learns the nest its call returns; unless
//!   another ant recruited it, that is the nest it called with.
//! * **Site:** [`AntChunk::check_action`](crate::AntChunk::check_action)
//!   and [`Environment::check_action`](crate::Environment::check_action)
//!   test it; [`AntChunk::apply`](crate::AntChunk::apply) learns searched
//!   nests and [`AntChunk::outcome`](crate::AntChunk::outcome)
//!   recruited-to ones, each ant in its own chunk.
//! * **Test:** `env::tests::recruited_ant_learns_the_nest`.
//!
//! ## 2. Round 1 admits only `search`
//!
//! * **Paper:** §2; line 1 of Algorithms 2 and 3.
//! * **Open:** whether an ant may `go` or `recruit` before it has been
//!   anywhere.
//! * **Choice:** no: knowledge sets start empty, so by entry 1 only
//!   `search()` is legal in round 1. The executor sandboxes any other
//!   call into a no-op and counts it as illegal.
//! * **Site:** the empty knowledge sets of
//!   [`Environment::new`](crate::Environment::new).
//! * **Test:** `env::tests::round_one_must_search`.
//!
//! ## 3. Algorithm 1 allows self-pairs
//!
//! * **Paper:** Algorithm 1, line 4; Lemma 3.1.
//! * **Open:** whether a recruiter's random target may be itself.
//! * **Choice:** yes, as Lemma 3.1 assumes; a self-pair counts as a
//!   successful recruitment and returns the ant's own nest.
//! * **Site:** the match loop of
//!   [`recruitment::pair_chunks_into`](crate::recruitment::pair_chunks_into).
//! * **Test:** `recruitment::tests::lone_active_ant_self_recruits` and the
//!   exact law in `tests/property_model.rs`.
//!
//! ## 4. Case 3 updates the remembered count
//!
//! * **Paper:** §4, Algorithm 2, Case 3 (recruited to a new nest).
//! * **Open:** the prose says the ant "updates that count"; the
//!   pseudocode omits the assignment.
//! * **Choice:** an ant that stays active adopts the new nest's R3 count.
//! * **Site:** `OptimalAnt`'s active R3 observation (`hh_core::optimal`).
//! * **Test:** `optimal::tests::case_3_adopts_the_new_nests_count`.
//!
//! ## 5. The assessing `go`
//!
//! * **Paper:** §2's `go(i)` returns only `c(i, r)`; §6's non-binary
//!   quality and fault tolerance need recruited ants to judge the nest.
//! * **Open:** how a recruited ant learns a nest's quality.
//! * **Choice:** an opt-in extension in which `go(i)` also returns the
//!   (possibly noisy) quality; the registry turns it on for non-binary
//!   habitats and the quality-weighted and hardened algorithms.
//! * **Site:** [`ColonyConfig::reveal_quality_on_go`](crate::ColonyConfig::reveal_quality_on_go)
//!   and the `Go` arm of [`AntChunk::outcome`](crate::AntChunk::outcome).
//! * **Test:** `quality::tests::recruited_ant_assesses_new_nest`.
//!
//! ## 6. A crashed ant's in-place no-op
//!
//! * **Paper:** §6, crash faults and partial asynchrony.
//! * **Open:** which call a crashed or delayed ant makes in a model where
//!   every ant makes exactly one per round.
//! * **Choice:** a location-preserving no-op: `go` to its own nest, a
//!   passive `recruit` of its lowest known nest at home, or `search` in
//!   round 1; the ant does not observe. Illegal calls get the same no-op.
//! * **Site:** [`faults::noop_action`](crate::faults::noop_action).
//! * **Test:** `faults::tests::noop_action_respects_location_and_knowledge`.
//!
//! ## 7. The adaptive-rate schedule
//!
//! * **Paper:** §6, "Improved running time": recruit at rate
//!   `O(c(i, r)/n · k̃(r))` with `k̃(r)` estimated from the round number.
//! * **Open:** the schedule of `k̃(r)` and the form of the rate.
//! * **Choice:** `p = max(c/n, min(1, θ·(c/n)·k̃(r)))` with θ = 0.4, and
//!   `k̃(r) = clamp(√n · 2^(−r/(τ·log₂ n)), 2, √n)` with τ = 1, so `k̃`
//!   halves every `log₂ n` rounds from `√n` down to 2. Both are
//!   constants, not knobs; `hh_core::adaptive` says why two other forms
//!   fail.
//! * **Site:** `AdaptivePolicy::{THETA, TAU}` (`hh_core::adaptive`).
//! * **Test:** `adaptive::tests::early_schedule_saturates_fair_shares`
//!   and `late_schedule_degenerates_to_the_simple_rule`; experiment F18
//!   runs all three forms against the simple rule.
