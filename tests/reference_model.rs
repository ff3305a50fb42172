//! An independent reference for the simple algorithm's round, compared
//! with the engine in distribution.
//!
//! Every other equivalence suite compares two renderings of the round
//! that share `Environment`, the Algorithm 1 kernel and the agents, so a
//! bug in that shared code passes them all. This file is a second,
//! naive rendering of the same model, written from the module docs of
//! `hh_model::env` (the Section 2 round), `hh_model::recruitment`
//! (Algorithm 1) and `hh_core::simple` (the Section 5 simple ant). It
//! imports nothing from `hh_model` or `hh_core`: its generator
//! (SplitMix64), its shuffle (Fisher–Yates), its nests, ants and pairing
//! are all its own. Only the engine side of the comparison goes through
//! the public registry.
//!
//! # The reference round `r`
//!
//! * Every live ant makes one call. A simple ant searches in round 1.
//!   After that, in even rounds it calls `recruit(b, i)` for its nest `i`,
//!   with `b = 1` with probability `count / n` if it is active, and in odd
//!   rounds it calls `go(i)`. An ant is active if it found a good nest or
//!   was recruited, and passive if it found a bad one.
//! * A crashed ant makes the in-place no-op instead and never observes:
//!   `go` to where it stands at a candidate nest, `recruit(0, j)` for its
//!   lowest known nest `j` at home, and `search` if it knows no nest.
//! * `search` moves the ant to a uniformly random candidate nest and
//!   teaches it that nest. `go(i)` moves it to `i`. `recruit` moves it
//!   home and enters it into the pairing.
//! * Algorithm 1 walks a uniform random permutation of all participants.
//!   An active participant that nobody has recruited yet picks a target
//!   uniformly from all participants, itself included. The target is
//!   matched if it has neither recruited nor been recruited yet. A
//!   recruited ant gets its recruiter's nest and learns it. Every other
//!   participant keeps its own nest.
//! * Every outcome reports end-of-round counts: `search` the nest, its
//!   quality and its count, `go` the nest's count, and `recruit` the
//!   assigned nest and the home count. A recruited ant whose nest changed
//!   commits to the new nest and turns active.
//!
//! Convergence is the catalog rule: every live ant committed to the same
//! good nest, held for the rule's window. Crashed ants leave the count
//! from their crash round.
//!
//! # The comparison and its false-alarm rate
//!
//! For each of three catalog cells, [`TRIALS`] engine trials
//! (`Scenario::run_trials_with_workers`, the cell's own trial seeds) are
//! compared with [`TRIALS`] reference trials on fixed seeds:
//!
//! * a two-sample Kolmogorov–Smirnov test on the round of convergence,
//!   rejecting at `D > 1.949 · sqrt(2 / TRIALS)`. That is the asymptotic
//!   α = 0.001 bound. Rounds are integers, and ties make the test
//!   conservative, so the rate is at most 0.001;
//! * a chi-square homogeneity test on the winning nest wherever more than
//!   one nest can win (the all-good and crash cells), rejecting above the
//!   α = 0.001 critical value for its degrees of freedom.
//!
//! These are five tests at α = 0.001. A correct engine therefore fails
//! this file for at most 0.5 % of seed choices. The seeds are fixed, so a
//! verdict reproduces exactly on rerun.

use house_hunting::prelude::*;

/// Trials per side and cell.
const TRIALS: usize = 300;

/// `c(α)` of the two-sample Kolmogorov–Smirnov bound at α = 0.001.
const KS_C_ALPHA: f64 = 1.949;

/// Upper α = 0.001 critical values of the chi-square distribution for
/// 1–7 degrees of freedom.
const CHI2_CRIT: [f64; 7] = [10.828, 13.816, 16.266, 18.467, 20.515, 22.458, 24.322];

/// SplitMix64 (Steele, Lea & Flood, 2014).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..m`, exactly: draws at or above the largest
    /// multiple of `m` are rejected.
    fn below(&mut self, m: usize) -> usize {
        let m = m as u64;
        let zone = u64::MAX - u64::MAX % m;
        loop {
            let x = self.next();
            if x < zone {
                return (x % m) as usize;
            }
        }
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One catalog cell as the reference sees it.
struct Cell {
    name: &'static str,
    n: usize,
    /// `good[i]` for candidate nest `i` in `1..=k`; `good[0]` is home.
    good: Vec<bool>,
    /// `(fraction, round)` of a crash-stop schedule.
    crash: Option<(f64, u64)>,
    /// Consecutive rounds the consensus must hold.
    window: u64,
    budget: u64,
}

impl Cell {
    fn k(&self) -> usize {
        self.good.len() - 1
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Call {
    Search,
    Go(usize),
    Recruit { active: bool, nest: usize },
}

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Searching,
    Active,
    Passive,
}

/// A simple ant plus its environment-side state.
#[derive(Clone)]
struct Ant {
    role: Role,
    /// Committed nest; 0 while uncommitted.
    nest: usize,
    /// Last population counted at `nest`.
    count: usize,
    location: usize,
    /// Bit `i`: the ant knows candidate nest `i`.
    known: u64,
    /// First round the ant is crashed in, if it crashes.
    crash_round: Option<u64>,
}

impl Ant {
    fn crashed(&self, round: u64) -> bool {
        self.crash_round.is_some_and(|at| at <= round)
    }

    fn choose(&self, round: u64, n: usize, rng: &mut SplitMix64) -> Call {
        if round <= 1 || self.role == Role::Searching {
            return Call::Search;
        }
        if round % 2 == 1 {
            return Call::Go(self.nest);
        }
        let active = self.role == Role::Active && rng.below(n) < self.count;
        Call::Recruit {
            active,
            nest: self.nest,
        }
    }

    fn noop(&self) -> Call {
        if self.location != 0 {
            Call::Go(self.location)
        } else if self.known != 0 {
            Call::Recruit {
                active: false,
                nest: self.known.trailing_zeros() as usize,
            }
        } else {
            Call::Search
        }
    }
}

/// Algorithm 1 over `calls` (participant ant, active, nest), in ant
/// order. Returns each participant's assigned nest and whether it was
/// recruited by another participant.
fn pair(calls: &[(usize, bool, usize)], rng: &mut SplitMix64) -> Vec<(usize, bool)> {
    let m = calls.len();
    let mut order: Vec<usize> = (0..m).collect();
    rng.shuffle(&mut order);
    let mut recruited = vec![false; m];
    let mut recruiting = vec![false; m];
    let mut result: Vec<(usize, bool)> = calls.iter().map(|&(_, _, nest)| (nest, false)).collect();
    for &i in &order {
        let (_, active, nest) = calls[i];
        if !active || recruited[i] {
            continue;
        }
        let j = rng.below(m);
        if !recruited[j] && !recruiting[j] {
            recruited[j] = true;
            recruiting[i] = true;
            result[j] = (nest, j != i);
        }
    }
    result
}

/// Runs one reference trial; returns the solved `(round, nest)`, if any.
fn run_reference(cell: &Cell, seed: u64) -> Option<(u64, usize)> {
    let (n, k) = (cell.n, cell.k());
    let mut rng = SplitMix64(seed);
    let ant = Ant {
        role: Role::Searching,
        nest: 0,
        count: 0,
        location: 0,
        known: 0,
        crash_round: None,
    };
    let mut ants = vec![ant; n];
    if let Some((fraction, round)) = cell.crash {
        let mut victims: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut victims);
        for &victim in victims.iter().take((n as f64 * fraction).floor() as usize) {
            ants[victim].crash_round = Some(round);
        }
    }
    let mut calls = vec![Call::Search; n];
    let (mut candidate, mut streak) = (0usize, 0u64);
    for round in 1..=cell.budget {
        for (a, ant) in ants.iter().enumerate() {
            calls[a] = if ant.crashed(round) {
                ant.noop()
            } else {
                ant.choose(round, n, &mut rng)
            };
        }
        let mut participants = Vec::new();
        for (a, ant) in ants.iter_mut().enumerate() {
            match calls[a] {
                Call::Search => {
                    let nest = 1 + rng.below(k);
                    ant.location = nest;
                    ant.known |= 1 << nest;
                }
                Call::Go(nest) => {
                    assert!(ant.known & (1 << nest) != 0, "go to an unknown nest");
                    ant.location = nest;
                }
                Call::Recruit { active, nest } => {
                    assert!(ant.known & (1 << nest) != 0, "recruit for an unknown nest");
                    ant.location = 0;
                    participants.push((a, active, nest));
                }
            }
        }
        let mut counts = vec![0usize; k + 1];
        for ant in &ants {
            counts[ant.location] += 1;
        }
        // `assigned[a]`: the nest participant `a`'s recruit call returns.
        let mut assigned = vec![0usize; n];
        for (&(a, _, _), &(nest, by_other)) in
            participants.iter().zip(&pair(&participants, &mut rng))
        {
            assigned[a] = nest;
            if by_other {
                ants[a].known |= 1 << nest;
            }
        }
        for (a, ant) in ants.iter_mut().enumerate() {
            if ant.crashed(round) {
                continue;
            }
            match calls[a] {
                Call::Search => {
                    ant.nest = ant.location;
                    ant.count = counts[ant.location];
                    ant.role = if cell.good[ant.location] {
                        Role::Active
                    } else {
                        Role::Passive
                    };
                }
                Call::Go(nest) => ant.count = counts[nest],
                Call::Recruit { .. } => {
                    if assigned[a] != ant.nest {
                        ant.nest = assigned[a];
                        ant.role = Role::Active;
                    }
                }
            }
        }
        let mut live = ants.iter().filter(|ant| !ant.crashed(round));
        let first = live.next().map_or(0, |ant| ant.nest);
        let consensus =
            (first != 0 && cell.good[first] && live.all(|ant| ant.nest == first)).then_some(first);
        match consensus {
            Some(nest) if nest == candidate => streak += 1,
            Some(nest) => (candidate, streak) = (nest, 1),
            None => (candidate, streak) = (0, 0),
        }
        if streak >= cell.window {
            return Some((round + 1 - cell.window, candidate));
        }
    }
    None
}

/// The two-sample Kolmogorov–Smirnov statistic.
fn ks_statistic(a: &[u64], b: &[u64]) -> f64 {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j, mut d) = (0usize, 0usize, 0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] == x {
            i += 1;
        }
        while j < b.len() && b[j] == x {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d
}

/// The chi-square homogeneity statistic of two count vectors over the
/// same categories, and its degrees of freedom (empty categories are
/// dropped).
fn chi_square(a: &[usize], b: &[usize]) -> (f64, usize) {
    let (total_a, total_b) = (
        a.iter().sum::<usize>() as f64,
        b.iter().sum::<usize>() as f64,
    );
    let mut stat = 0.0;
    let mut categories = 0;
    for (&x, &y) in a.iter().zip(b) {
        let both = (x + y) as f64;
        if both == 0.0 {
            continue;
        }
        categories += 1;
        for (observed, total) in [(x as f64, total_a), (y as f64, total_b)] {
            let expected = both * total / (total_a + total_b);
            stat += (observed - expected).powi(2) / expected;
        }
    }
    (stat, categories - 1)
}

fn compare(cell: &Cell, seed: u64) {
    let scenario = registry::lookup(cell.name).expect("catalog cell");
    assert_eq!(scenario.n(), cell.n, "{}: n", cell.name);
    assert_eq!(scenario.k(), cell.k(), "{}: k", cell.name);
    assert_eq!(
        scenario.round_budget(),
        cell.budget,
        "{}: budget",
        cell.name
    );
    assert_eq!(
        scenario.convergence_rule(),
        ConvergenceRule::stable_commitment(cell.window),
        "{}: rule",
        cell.name
    );

    // Unconverged trials rank above every converged round and form their
    // own winning-nest category (index 0).
    let mut engine_rounds = Vec::with_capacity(TRIALS);
    let mut engine_wins = vec![0usize; cell.k() + 1];
    for trial in scenario
        .run_trials_with_workers(TRIALS, 2)
        .expect("engine trials")
    {
        let (round, nest) = trial
            .solved
            .map_or((u64::MAX, 0), |s| (s.round, s.nest.raw()));
        engine_rounds.push(round);
        engine_wins[nest] += 1;
    }
    let mut reference_rounds = Vec::with_capacity(TRIALS);
    let mut reference_wins = vec![0usize; cell.k() + 1];
    let mut seeds = SplitMix64(seed);
    for _ in 0..TRIALS {
        let (round, nest) = run_reference(cell, seeds.next()).unwrap_or((u64::MAX, 0));
        reference_rounds.push(round);
        reference_wins[nest] += 1;
    }

    let median = |rounds: &[u64]| {
        let mut sorted = rounds.to_vec();
        sorted.sort_unstable();
        match sorted[sorted.len() / 2] {
            u64::MAX => "unconverged".to_string(),
            round => round.to_string(),
        }
    };
    let d = ks_statistic(&engine_rounds, &reference_rounds);
    let d_crit = KS_C_ALPHA * (2.0 / TRIALS as f64).sqrt();
    println!(
        "{}: median round engine {} / reference {}; KS D = {d:.4} (reject above {d_crit:.4}); \
         wins engine {engine_wins:?} / reference {reference_wins:?}",
        cell.name,
        median(&engine_rounds),
        median(&reference_rounds),
    );
    assert!(
        d <= d_crit,
        "{}: rounds to convergence differ from the reference (KS D = {d:.4} > {d_crit:.4})",
        cell.name
    );
    if cell.good.iter().filter(|&&good| good).count() > 1 {
        let (stat, df) = chi_square(&engine_wins, &reference_wins);
        let crit = CHI2_CRIT[df - 1];
        println!(
            "{}: winning nest chi-square = {stat:.2} on {df} df (reject above {crit})",
            cell.name
        );
        assert!(
            stat <= crit,
            "{}: winning nests differ from the reference (chi-square {stat:.2} > {crit} on {df} df: \
             engine {engine_wins:?}, reference {reference_wins:?})",
            cell.name
        );
    }
}

#[test]
fn all_good_race_matches_the_reference() {
    compare(
        &Cell {
            name: "all-good-race-256",
            n: 256,
            good: vec![false, true, true, true, true],
            crash: None,
            window: 1,
            budget: 30_000,
        },
        0x0A11_600D,
    );
}

#[test]
fn single_good_needle_matches_the_reference() {
    let mut good = vec![false; 9];
    good[5] = true;
    compare(
        &Cell {
            name: "single-good-needle-128",
            n: 128,
            good,
            crash: None,
            window: 1,
            budget: 40_000,
        },
        0x005E_ED1E,
    );
}

#[test]
fn crash_quarter_matches_the_reference() {
    compare(
        &Cell {
            name: "crash-quarter-128",
            n: 128,
            good: vec![false, true, true, false, false],
            crash: Some((0.25, 10)),
            window: 8,
            budget: 30_000,
        },
        0x000C_4A54,
    );
}

#[test]
fn reference_pairing_follows_algorithm_1() {
    // A lone active participant always recruits itself; passive-only
    // rounds match nobody; a recruited participant gets the recruiter's
    // nest.
    let mut rng = SplitMix64(7);
    assert_eq!(pair(&[(0, true, 3)], &mut rng), vec![(3, false)]);
    assert_eq!(
        pair(&[(0, false, 1), (1, false, 2)], &mut rng),
        vec![(1, false), (2, false)]
    );
    let mut recruited_by_other = 0;
    for _ in 0..1_000 {
        let result = pair(&[(0, true, 1), (1, false, 2)], &mut rng);
        assert_eq!(result[0], (1, false), "the recruiter keeps its nest");
        if result[1] == (1, true) {
            recruited_by_other += 1;
        } else {
            assert_eq!(result[1], (2, false));
        }
    }
    // The target is uniform over both participants: about half the
    // rounds recruit the passive ant.
    assert!(
        (400..=600).contains(&recruited_by_other),
        "{recruited_by_other}"
    );
}
