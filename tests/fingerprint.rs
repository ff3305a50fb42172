//! Bit-identity across commits: one digest over the whole catalog, and
//! one over runs under the noisy count channel, which no catalog
//! scenario uses.
//!
//! For every catalog scenario (`registry::all_scenarios()`), trials 0–2,
//! at round threads 1 and 2, the test builds the trial's simulation,
//! runs it through `run_to_convergence` to the scenario's own rule and
//! budget, and then takes one more `step()`. At two round threads the
//! segment runs on spawned workers and the step runs inline, so the
//! digest covers both ways of executing a round.
//!
//! It hashes explicit fields, never `Debug` strings, so renaming a field
//! or adding one does not move the digest:
//! * the solved round, nest and good flag;
//! * rounds run, replaced actions and illegal actions;
//! * the nest counts and every ant's location;
//! * the role census;
//! * the next step's matched pairs and outcomes, with qualities hashed
//!   through `to_bits()`.
//!
//! A change that moves a digest changes some outcome. That is a
//! re-baseline: update [`DIGEST`] or [`NOISY_DIGEST`] and record the old
//! and new values, with the argument that the distribution is unchanged.
//!
//! Outcomes pass through `exp`, `ln`, `log2` and `powf`, which the
//! platform's libm computes and which are not correctly rounded, so the
//! constants are asserted only on x86-64 Linux (the CI target). Elsewhere
//! the tests still run every trial and print the digests.

use house_hunting::prelude::*;

/// The catalog digest of the current engine.
const DIGEST: u64 = 0x0bdf_2180_52ac_ba55;

/// The digest of the noisy runs of [`noisy_digest_is_unchanged`].
const NOISY_DIGEST: u64 = 0xd952_5170_6306_5051;

/// FNV-1a, 64-bit, fed whole `u64` words in little-endian byte order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn usize(&mut self, value: usize) {
        self.word(value as u64);
    }

    fn quality(&mut self, quality: Quality) {
        self.word(quality.value().to_bits());
    }

    fn outcome(&mut self, outcome: &Outcome) {
        match *outcome {
            Outcome::Search {
                nest,
                quality,
                count,
            } => {
                self.word(0);
                self.usize(nest.raw());
                self.quality(quality);
                self.word(count.into());
            }
            Outcome::Go { count, quality } => {
                self.word(1);
                self.word(count.into());
                match quality {
                    None => self.word(0),
                    Some(quality) => {
                        self.word(1);
                        self.quality(quality);
                    }
                }
            }
            Outcome::Recruit { nest, home_count } => {
                self.word(2);
                self.usize(nest.raw());
                self.word(home_count.into());
            }
        }
    }
}

/// Hashes one finished segment, then takes one more `step()` and hashes
/// its pairs and outcomes.
fn hash_run(hash: &mut Fnv, sim: &mut Simulation, outcome: &RunOutcome) -> Result<(), SimError> {
    match outcome.solved {
        None => hash.word(0),
        Some(solved) => {
            hash.word(1);
            hash.word(solved.round);
            hash.usize(solved.nest.raw());
            hash.word(solved.good.into());
        }
    }
    hash.word(outcome.rounds_run);
    hash.word(outcome.replaced_actions);
    hash.word(outcome.illegal_actions);
    hash.usize(sim.env().counts().len());
    for &count in sim.env().counts() {
        hash.usize(count);
    }
    hash.usize(sim.env().locations().len());
    for location in sim.env().locations() {
        hash.usize(location.raw());
    }
    let census = sim.role_census();
    for count in [
        census.searching,
        census.active,
        census.passive,
        census.final_count,
        census.other,
    ] {
        hash.usize(count);
    }
    let report = sim.step()?;
    hash.usize(report.recruitment.pairs.len());
    for (recruiter, recruited) in &report.recruitment.pairs {
        hash.usize(recruiter.index());
        hash.usize(recruited.index());
    }
    hash.usize(report.outcomes.len());
    for outcome in &report.outcomes {
        hash.outcome(outcome);
    }
    Ok(())
}

/// Asserts `digest` against `expected` on x86-64 Linux only (see the
/// module docs).
fn assert_digest(name: &str, digest: u64, expected: u64, runs: usize) {
    println!("{name} {digest:016x} over {runs} runs");
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(
            digest, expected,
            "the {name} moved: some outcome changed (digest {digest:016x})"
        );
    }
}

#[test]
fn catalog_digest_is_unchanged() -> Result<(), SimError> {
    let mut hash = Fnv::new();
    let mut runs = 0usize;
    for scenario in registry::all_scenarios() {
        for trial in 0..3 {
            for threads in [1, 2] {
                let mut sim = scenario
                    .clone()
                    .round_threads(threads)
                    .build(scenario.trial_seed(trial))?;
                let outcome =
                    sim.run_to_convergence(scenario.convergence_rule(), scenario.round_budget())?;
                hash_run(&mut hash, &mut sim, &outcome)?;
                runs += 1;
            }
        }
    }
    assert_digest("digest", hash.0, DIGEST, runs);
    Ok(())
}

/// Noisy realizations, which the catalog (all exact) does not reach:
/// three scenarios under the multiplicative count channel at σ = 0.3,
/// trials 0–1, round threads 1 and 2. `baseline-128` runs the fast path,
/// `quality-tie-128` has `go` reveal quality (so `go` outcomes carry
/// both a noisy count and an exact quality), and `mixed-faults-128` runs
/// the scalar path. Each segment is a fixed 60 rounds, since its
/// stability window is longer than its budget, then one `step()`; the
/// fields hashed are the catalog digest's.
#[test]
fn noisy_digest_is_unchanged() -> Result<(), SimError> {
    const ROUNDS: u64 = 60;
    let rule = ConvergenceRule::stable_commitment(ROUNDS + 1);
    let noise = NoiseModel::multiplicative(0.3)?;
    let mut hash = Fnv::new();
    let mut runs = 0usize;
    for name in ["baseline-128", "quality-tie-128", "mixed-faults-128"] {
        let scenario = registry::lookup(name).expect("catalog scenario");
        for trial in 0..2 {
            for threads in [1, 2] {
                let mut sim = scenario
                    .clone()
                    .noise(noise)
                    .round_threads(threads)
                    .build(scenario.trial_seed(trial))?;
                let outcome = sim.run_to_convergence(rule, ROUNDS)?;
                assert_eq!(
                    outcome.rounds_run, ROUNDS,
                    "{name}: the segment ended early"
                );
                hash_run(&mut hash, &mut sim, &outcome)?;
                runs += 1;
            }
        }
    }
    assert_digest("noisy digest", hash.0, NOISY_DIGEST, runs);
    Ok(())
}
