//! Property-based tests on the model substrate: the recruitment pairing
//! process (both of the kernel's entry points, on one call vector and on
//! the engine's call chunks, against a textbook transcription of
//! Algorithm 1, and the kernel against Algorithm 1's exact law at small
//! m), the environment's invariants under arbitrary legal action
//! sequences, seed derivation, and the bit set.

use std::collections::{BTreeMap, BTreeSet};

use house_hunting::model::recruitment::{pair_ants, pair_chunks_into, Pairing, RecruitCall};
use house_hunting::model::seeding::{derive_seed, StreamKind};
use house_hunting::model::util::BitMatrix;
use house_hunting::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt, SeedableRng};

/// Algorithm 1 transcribed line by line with one array per predicate —
/// `recruited_by` and `succeeded` — the way the paper states it. It
/// shares no code with the kernel in `hh_model::recruitment`, only the
/// random draws: the same shuffle of the ascending active indices, then
/// one multiply-shift target draw per active ant that line 3 lets
/// attempt. The kernel must reproduce it exactly.
struct ReferencePairing {
    recruited_by: Vec<u32>,
    succeeded: Vec<bool>,
    assigned: Vec<NestId>,
    pairs: Vec<(AntId, AntId)>,
    matched: Vec<(u32, u32)>,
}

/// "No recruiter" in [`ReferencePairing::recruited_by`].
const NOT_RECRUITED: u32 = u32::MAX;

fn reference_pairing<R: Rng + ?Sized>(calls: &[RecruitCall], rng: &mut R) -> ReferencePairing {
    let m = calls.len();
    let mut pairing = ReferencePairing {
        recruited_by: vec![NOT_RECRUITED; m],
        succeeded: vec![false; m],
        assigned: Vec::new(),
        pairs: Vec::new(),
        matched: Vec::new(),
    };

    // Line 2: a uniform random order; passive ants never draw, so only
    // the actives are shuffled.
    let mut perm: Vec<u32> = calls
        .iter()
        .enumerate()
        .filter(|(_, call)| call.active)
        .map(|(idx, _)| idx as u32)
        .collect();
    perm.shuffle(rng);

    let bound = u128::from(m as u64);
    for &idx in perm.iter() {
        let idx = idx as usize;
        // Line 3: an active ant that has already been recruited by an
        // earlier ant in P does not attempt to recruit.
        if pairing.recruited_by[idx] != NOT_RECRUITED {
            continue;
        }
        // Line 4: choose a uniformly random participant — possibly idx
        // itself.
        let target = ((u128::from(rng.next_u64()) * bound) >> 64) as usize;
        // Line 5: the target must have neither recruited nor been
        // recruited.
        if pairing.succeeded[target] || pairing.recruited_by[target] != NOT_RECRUITED {
            continue;
        }
        // Line 6: M := M ∪ (idx, target).
        pairing.succeeded[idx] = true;
        pairing.recruited_by[target] = idx as u32;
        pairing.pairs.push((calls[idx].ant, calls[target].ant));
        pairing.matched.push((idx as u32, target as u32));
    }

    // Lines 7–12: each recruited ant receives its recruiter's nest input;
    // everyone else receives its own input.
    pairing.assigned = pairing
        .recruited_by
        .iter()
        .enumerate()
        .map(|(idx, &recruiter)| match recruiter {
            NOT_RECRUITED => calls[idx].nest,
            recruiter => calls[recruiter as usize].nest,
        })
        .collect();
    pairing
}

/// Runs the kernel and the reference from the same seed, and asserts
/// they agree on every accessor and leave their streams at the same
/// point. Both entry points run: [`pair_ants`], which also builds the
/// id-level pairs, and the engine's [`pair_chunks_into`] (into the reused
/// `pairing`/`perm` buffers) on the same calls cut at random points into
/// 1–16 chunks (empty ones included), which builds no pairs.
fn assert_kernel_matches_reference(
    calls: &[RecruitCall],
    seed: u64,
    pairing: &mut Pairing,
    perm: &mut Vec<u32>,
) {
    let mut reference_rng = SmallRng::seed_from_u64(seed);
    let reference = reference_pairing(calls, &mut reference_rng);
    let reference_next = reference_rng.next_u64();

    let mut kernel_rng = SmallRng::seed_from_u64(seed);
    let fresh = pair_ants(calls, &mut kernel_rng);
    assert_eq!(fresh.pairs(), reference.pairs.as_slice());
    assert_pairing_matches_reference(&fresh, &reference);
    assert_eq!(
        kernel_rng.next_u64(),
        reference_next,
        "the kernel and the reference drew a different number of values"
    );

    let mut cut_rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut cuts: Vec<usize> = (1..cut_rng.random_range(1..=16usize))
        .map(|_| cut_rng.random_range(0..=calls.len()))
        .collect();
    cuts.sort_unstable();
    let chunks: Vec<&[RecruitCall]> = [0]
        .into_iter()
        .chain(cuts.iter().copied())
        .zip(cuts.iter().copied().chain([calls.len()]))
        .map(|(start, end)| &calls[start..end])
        .collect();
    // The reused buffers start from the one-vector result, pairs
    // included, so a kernel that leaves a stale view is caught.
    pairing.clone_from(&fresh);
    let mut engine_rng = SmallRng::seed_from_u64(seed);
    pair_chunks_into(chunks.iter().copied(), &mut engine_rng, pairing, perm);
    assert!(
        pairing.pairs().is_empty(),
        "the engine's kernel builds no id-level pairs ({} chunks)",
        chunks.len()
    );
    assert_pairing_matches_reference(pairing, &reference);
    assert_eq!(
        engine_rng.next_u64(),
        reference_next,
        "the engine's kernel over {} chunks drew a different number of values",
        chunks.len()
    );
}

/// Asserts that `pairing` holds the reference's matching as call indices,
/// its assigned nests, and the recruiter of every participant, which is
/// what a state word says.
fn assert_pairing_matches_reference(pairing: &Pairing, reference: &ReferencePairing) {
    let m = reference.assigned.len();
    assert_eq!(pairing.len(), m);
    assert_eq!(pairing.matched_indices(), reference.matched.as_slice());
    assert_eq!(pairing.matched_count(), reference.matched.len());
    for idx in 0..m {
        let recruiter = reference.recruited_by[idx];
        let expected_by = (recruiter != NOT_RECRUITED).then_some(recruiter as usize);
        assert_eq!(
            pairing.assigned_nest(idx),
            reference.assigned[idx],
            "assigned {idx}"
        );
        assert_eq!(pairing.recruited_by(idx), expected_by, "recruited_by {idx}");
        assert_eq!(
            pairing.succeeded(idx),
            reference.succeeded[idx],
            "succeeded {idx}"
        );
        assert_eq!(
            pairing.was_recruited_by_other(idx),
            expected_by.is_some_and(|recruiter| recruiter != idx),
            "was_recruited_by_other {idx}"
        );
    }
}

/// A call vector with ant ids that differ from call indices, so a kernel
/// that confused the two would be caught.
fn calls_from(cells: impl Iterator<Item = (bool, usize)>) -> Vec<RecruitCall> {
    cells
        .enumerate()
        .map(|(i, (active, nest))| {
            RecruitCall::new(AntId::new(3 * i + 1), active, NestId::candidate(nest))
        })
        .collect()
}

#[test]
fn kernel_matches_reference_with_no_participants() {
    let mut pairing = Pairing::default();
    let mut perm = Vec::new();
    assert_kernel_matches_reference(&[], 5, &mut pairing, &mut perm);
    assert!(pairing.is_empty());
    assert_eq!(pairing.matched_count(), 0);
}

#[test]
fn kernel_matches_reference_for_a_lone_active_ant() {
    let calls = calls_from([(true, 2)].into_iter());
    let mut pairing = Pairing::default();
    let mut perm = Vec::new();
    assert_kernel_matches_reference(&calls, 6, &mut pairing, &mut perm);
    assert!(pairing.succeeded(0));
    assert_eq!(pairing.recruited_by(0), Some(0));
    assert!(!pairing.was_recruited_by_other(0));
    assert_eq!(pairing.matched_indices(), &[(0, 0)]);
}

#[test]
fn all_passive_round_consumes_no_randomness() {
    let calls = calls_from((0..300).map(|i| (false, 1 + i % 4)));
    let mut pairing = Pairing::default();
    let mut perm = Vec::new();
    assert_kernel_matches_reference(&calls, 7, &mut pairing, &mut perm);
    let mut rng = SmallRng::seed_from_u64(7);
    pair_chunks_into([&calls[..]], &mut rng, &mut pairing, &mut perm);
    assert_eq!(rng.next_u64(), SmallRng::seed_from_u64(7).next_u64());
    assert_eq!(pairing.matched_count(), 0);
}

#[test]
fn kernel_matches_reference_at_colony_scale() {
    // m = 16 384 with about 84 % active, the share a simple colony's
    // recruit rounds reach.
    let mut layout = SmallRng::seed_from_u64(8);
    let calls = calls_from((0..16_384).map(|_| {
        let draw = layout.next_u64();
        (draw % 100 < 84, 1 + (draw >> 32) as usize % 4)
    }));
    let mut pairing = Pairing::default();
    let mut perm = Vec::new();
    for seed in 0..4 {
        assert_kernel_matches_reference(&calls, seed, &mut pairing, &mut perm);
    }
    assert!(pairing.matched_count() > 0);
}

// Algorithm 1 against its exact law. The transcription above shares the
// kernel's `shuffle` and target draw, so a bias in either passes both.
// These tests share no code with the kernel: they enumerate every order
// of all m participants (passive ones included) and every target vector,
// apply lines 2–6 as the `recruitment` module docs state them, and so
// count the exact probability of each matching. Then 200 000 kernel
// matchings per configuration, from a fixed seed, are chi-squared
// against that law. A configuration fails if it samples a matching of
// probability 0, or if the statistic's Wilson–Hilferty z exceeds 5: a
// one-sided false-alarm rate of about 3·10⁻⁷ per configuration for an
// unbiased kernel.
//
// The enumeration also counts, per participant, the cases in which it
// succeeds — `(idx, ·) ∈ M`, self-pairs included, the event of Lemma 2.1.
// Every active participant's exact success probability must be at least
// 1/16. The kernel's success frequency over the same draws must equal
// it where it is 0 or 1, and otherwise lie within |z| ≤ 5 of it (normal
// approximation to the success count): a two-sided false-alarm rate of about
// 6·10⁻⁷ per participant. The seeds are fixed, so every run gives the
// same z.

/// Kernel matchings drawn per configuration.
const LAW_SAMPLES: u64 = 200_000;

/// Encodes a matching on `m` participants as one number: digit `i` (base
/// `m + 1`) is participant `i`'s recruiter, or `m` if it has none. A
/// recruiter list determines every pair, self-pairs included.
fn matching_key(m: usize, recruited_by: impl Fn(usize) -> Option<usize>) -> u64 {
    (0..m).rev().fold(0, |key, idx| {
        key * (m as u64 + 1) + recruited_by(idx).unwrap_or(m) as u64
    })
}

/// Calls `visit` once with every ordering of `items[k..]`.
fn for_each_permutation(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        for_each_permutation(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// The exact law of Algorithm 1's matching: for each matching (keyed by
/// [`matching_key`]), how many of the m!·m^m equally likely (order,
/// target vector) cases produce it; and for each participant, how many
/// of those cases it succeeds in.
fn exact_matching_law(active: &[bool]) -> (BTreeMap<u64, u64>, Vec<u64>) {
    let m = active.len();
    let mut law = BTreeMap::new();
    let mut successes = vec![0; m];
    let mut order: Vec<usize> = (0..m).collect();
    for_each_permutation(&mut order, 0, &mut |order| {
        for targets in 0..m.pow(m as u32) {
            let mut recruited_by = vec![None; m];
            let mut recruited = vec![false; m];
            // Line 2: ants are processed in the order P.
            for &idx in order {
                // Line 3: only an active ant that is still free recruits.
                if !active[idx] || recruited_by[idx].is_some() {
                    continue;
                }
                // Line 4: its target is uniform among all m participants,
                // itself included: digit `idx` of `targets` in base m.
                let target = targets / m.pow(idx as u32) % m;
                // Lines 5–6: the pair forms if the target is free.
                if recruited_by[target].is_none() && !recruited[target] {
                    recruited[idx] = true;
                    recruited_by[target] = Some(idx);
                }
            }
            *law.entry(matching_key(m, |idx| recruited_by[idx]))
                .or_insert(0) += 1;
            for (tally, &succeeded) in successes.iter_mut().zip(&recruited) {
                *tally += u64::from(succeeded);
            }
        }
    });
    (law, successes)
}

/// Chi-squares [`LAW_SAMPLES`] kernel matchings on the given active
/// pattern against [`exact_matching_law`], and checks each participant's
/// success against Lemma 2.1 and its exact probability, as the header
/// above states.
fn assert_kernel_follows_exact_law(active: &[bool], seed: u64) {
    let m = active.len();
    let (law, exact_successes) = exact_matching_law(active);
    let cases: u64 = law.values().sum();
    let calls = calls_from(active.iter().map(|&active| (active, 1)));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut observed: BTreeMap<u64, u64> = BTreeMap::new();
    let mut successes = vec![0u64; m];
    for _ in 0..LAW_SAMPLES {
        let pairing = pair_ants(&calls, &mut rng);
        let key = matching_key(m, |idx| pairing.recruited_by(idx));
        *observed.entry(key).or_insert(0) += 1;
        for (idx, tally) in successes.iter_mut().enumerate() {
            *tally += u64::from(pairing.succeeded(idx));
        }
    }
    for key in observed.keys() {
        assert!(
            law.contains_key(key),
            "{active:?}: the kernel drew matching {key}, which has probability 0"
        );
    }
    let chi_square: f64 = law
        .iter()
        .map(|(key, &count)| {
            let expected = LAW_SAMPLES as f64 * count as f64 / cases as f64;
            let seen = observed.get(key).copied().unwrap_or(0) as f64;
            (seen - expected).powi(2) / expected
        })
        .sum();
    let df = (law.len() - 1) as f64;
    let spread = 2.0 / (9.0 * df);
    let z = ((chi_square / df).cbrt() - (1.0 - spread)) / spread.sqrt();
    assert!(
        z <= 5.0,
        "{active:?}: chi-square {chi_square:.1} on {df} degrees of freedom, z = {z:.2}"
    );

    for (idx, (&exact, &seen)) in exact_successes.iter().zip(&successes).enumerate() {
        let p = exact as f64 / cases as f64;
        assert!(
            !active[idx] || 16 * exact >= cases,
            "{active:?}: participant {idx} succeeds with probability {p:.4} < 1/16"
        );
        if exact == 0 || exact == cases {
            assert_eq!(
                seen * cases,
                exact * LAW_SAMPLES,
                "{active:?}: participant {idx} succeeded {seen} times; its probability is {p}"
            );
        } else {
            let samples = LAW_SAMPLES as f64;
            let z = (seen as f64 - samples * p) / (samples * p * (1.0 - p)).sqrt();
            assert!(
                z.abs() <= 5.0,
                "{active:?}: participant {idx} succeeded {seen} times, \
                 exact probability {p:.4}, z = {z:.2}"
            );
        }
    }
}

#[test]
fn kernel_follows_exact_law_on_three_participants() {
    assert_kernel_follows_exact_law(&[false, true, false], 30);
    assert_kernel_follows_exact_law(&[true, false, true], 31);
    assert_kernel_follows_exact_law(&[true; 3], 32);
}

#[test]
fn kernel_follows_exact_law_on_five_participants() {
    assert_kernel_follows_exact_law(&[true, false, true, false, true], 50);
    assert_kernel_follows_exact_law(&[true; 5], 51);
}

proptest! {
    /// Algorithm 1 invariants for arbitrary participant vectors:
    /// the matching is a partial injection (each ant recruited at most
    /// once, recruiters are active, nobody both recruits another ant and
    /// is recruited by a different ant), and every participant's return
    /// value is either its own input or its recruiter's input.
    #[test]
    fn pairing_invariants(
        actives in proptest::collection::vec(any::<bool>(), 1..80),
        nests in proptest::collection::vec(1usize..5, 1..80),
        seed in any::<u64>(),
    ) {
        let m = actives.len().min(nests.len());
        let calls: Vec<RecruitCall> = (0..m)
            .map(|i| RecruitCall::new(AntId::new(i), actives[i], NestId::candidate(nests[i])))
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairing = pair_ants(&calls, &mut rng);

        prop_assert_eq!(pairing.len(), m);
        let mut recruited_seen = BTreeSet::new();
        for &(recruiter, recruited) in pairing.pairs() {
            prop_assert!(calls[recruiter.index()].active, "recruiters are in S");
            prop_assert!(recruited_seen.insert(recruited), "double recruitment");
        }
        for idx in 0..m {
            let assigned = pairing.assigned_nest(idx);
            match pairing.recruited_by(idx) {
                Some(recruiter) => {
                    prop_assert_eq!(assigned, calls[recruiter].nest);
                    if recruiter != idx {
                        prop_assert!(
                            !pairing.succeeded(idx),
                            "an ant recruited by another cannot also recruit"
                        );
                    }
                }
                None => prop_assert_eq!(assigned, calls[idx].nest),
            }
            if !calls[idx].active {
                prop_assert!(!pairing.succeeded(idx), "passive ants never recruit");
            }
        }
    }

    /// The kernel reproduces the reference transcription of Algorithm 1
    /// exactly, on random call vectors whose active share runs from all
    /// passive to all active. The second pairing reuses the first one's
    /// buffers on a shorter prefix, so stale state would show.
    #[test]
    fn kernel_matches_reference_pairing(
        cells in proptest::collection::vec((0.0f64..1.0, 1usize..6), 0..300),
        share in 0u8..4,
        p in 0.0f64..1.0,
        seed in any::<u64>(),
        prefix in 0.0f64..1.0,
    ) {
        let calls = calls_from(cells.iter().map(|&(coin, nest)| {
            let active = match share {
                0 => false,
                1 => true,
                _ => coin < p,
            };
            (active, nest)
        }));
        let mut pairing = Pairing::default();
        let mut perm = Vec::new();
        assert_kernel_matches_reference(&calls, seed, &mut pairing, &mut perm);
        let shorter = &calls[..(calls.len() as f64 * prefix) as usize];
        assert_kernel_matches_reference(shorter, seed ^ 1, &mut pairing, &mut perm);
    }

    /// The environment conserves ants, keeps locations consistent with
    /// actions, and only grows knowledge sets, under arbitrary legal
    /// action schedules.
    #[test]
    fn environment_invariants(
        n in 1usize..40,
        k in 1usize..6,
        seed in any::<u64>(),
        choices in proptest::collection::vec(0u8..4, 0..30),
    ) {
        let config = ColonyConfig::new(n, QualitySpec::all_good(k)).seed(seed);
        let mut env = Environment::new(&config).unwrap();
        env.step(&vec![Action::Search; n]).unwrap();
        let mut known_sizes = vec![1usize; n];

        for (r, &choice) in choices.iter().enumerate() {
            let actions: Vec<Action> = (0..n)
                .map(|i| {
                    let ant = AntId::new(i);
                    let here = env.location_of(ant);
                    let anchor = env.first_known(ant).unwrap();
                    match (choice as usize + i + r) % 4 {
                        0 => Action::Search,
                        1 if !here.is_home() => Action::Go(here),
                        1 => Action::Go(anchor),
                        2 => Action::recruit_active(anchor),
                        _ => Action::recruit_passive(anchor),
                    }
                })
                .collect();
            let report = env.step(&actions).unwrap();

            prop_assert_eq!(env.counts().iter().sum::<usize>(), n);
            for i in 0..n {
                let ant = AntId::new(i);
                match actions[i] {
                    Action::Search => {
                        prop_assert!(!env.location_of(ant).is_home());
                    }
                    Action::Go(nest) => prop_assert_eq!(env.location_of(ant), nest),
                    Action::Recruit { .. } => {
                        prop_assert!(env.location_of(ant).is_home());
                    }
                }
                // Knowledge is monotone.
                let size = env.known_nests(ant).count();
                prop_assert!(size >= known_sizes[i], "knowledge shrank");
                known_sizes[i] = size;
                // Outcome counts match the true state (no noise); true
                // counts are bounded by n, so the u32 narrowing is exact.
                match (actions[i], &report.outcomes[i]) {
                    (Action::Go(nest), Outcome::Go { count, .. }) => {
                        prop_assert_eq!(*count as usize, env.count(nest));
                    }
                    (Action::Recruit { .. }, Outcome::Recruit { home_count, .. }) => {
                        prop_assert_eq!(*home_count as usize, env.count(NestId::HOME));
                    }
                    (Action::Search, Outcome::Search { nest, count, .. }) => {
                        prop_assert_eq!(*count as usize, env.count(*nest));
                    }
                    (action, outcome) => {
                        prop_assert!(false, "mismatched {action:?} / {outcome:?}");
                    }
                }
            }
        }
    }

    /// Seed derivation never collides across streams/indices in sampled
    /// windows (a collision would silently correlate two random streams).
    #[test]
    fn seed_streams_do_not_collide(base in any::<u64>()) {
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
            for index in 0..64 {
                prop_assert!(seen.insert(derive_seed(base, kind, index)));
            }
        }
    }

    /// One row implementation serves the whole matrix and both halves of
    /// a band split at `cut`: under arbitrary inserts spread over the
    /// rows, each op going through the matrix or through the band half
    /// that holds its row, every row agrees with its own reference
    /// BTreeSet on insert, contains, first and iter_row, with no row
    /// bleeding into another.
    #[test]
    fn bitset_matches_btreeset_model(
        rows in 1usize..6,
        capacity in 1usize..200,
        cut in 0usize..7,
        ops in proptest::collection::vec((0usize..6, 0usize..220, any::<bool>()), 0..100),
    ) {
        let cut = cut % (rows + 1);
        let mut matrix = BitMatrix::new(rows, capacity);
        let mut model: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); rows];
        for (row, value, through_band) in ops {
            let row = row % rows;
            let set = &mut model[row];
            if through_band {
                let (mut head, mut tail) = matrix.rows_mut().split_at(cut);
                prop_assert_eq!((head.rows(), tail.rows()), (cut, rows - cut));
                let (band, local) = if row < cut { (&mut head, row) } else { (&mut tail, row - cut) };
                if value < capacity {
                    prop_assert_eq!(band.insert(local, value), set.insert(value));
                }
                prop_assert_eq!(band.contains(local, value), set.contains(&value));
                prop_assert_eq!(band.first(local), set.first().copied());
            } else {
                if value < capacity {
                    prop_assert_eq!(matrix.insert(row, value), set.insert(value));
                }
                prop_assert_eq!(matrix.contains(row, value), set.contains(&value));
            }
        }
        for (row, set) in model.iter().enumerate() {
            let want: Vec<usize> = set.iter().copied().collect();
            prop_assert_eq!(matrix.first(row), set.first().copied());
            prop_assert_eq!(matrix.iter_row(row).collect::<Vec<_>>(), want.clone());
            let (head, tail) = matrix.rows_mut().split_at(cut);
            let (band, local) = if row < cut { (&head, row) } else { (&tail, row - cut) };
            prop_assert_eq!(band.first(local), set.first().copied());
            prop_assert_eq!(band.iter_row(local).collect::<Vec<_>>(), want);
        }
    }

    /// Delay plans are pure functions of (ant, round) and respect the
    /// probability edge cases.
    #[test]
    fn delay_plans_are_pure(prob in 0.0f64..1.0, seed in any::<u64>(), ant in 0usize..100, round in 0u64..10_000) {
        use house_hunting::model::faults::DelayPlan;
        let plan = DelayPlan::new(prob, seed);
        let first = plan.is_delayed(AntId::new(ant), round);
        for _ in 0..3 {
            prop_assert_eq!(plan.is_delayed(AntId::new(ant), round), first);
        }
    }
}
