//! Fingerprint: one digest line that changes iff a catalog outcome does.
//!
//! For every catalog scenario (`registry::all_scenarios()`), trials 0–2,
//! at round threads 1 and 2, it builds the trial's simulation, runs it to
//! the scenario's own rule and budget, and prints one line with the
//! `RunOutcome`, the nest populations, a hash of every ant's location,
//! the role census, and the matched pairs and outcomes of one further
//! `step()`. The last line is an FNV-1a digest of all the lines before
//! it. Two builds are bit-identical on the catalog when they print the
//! same digest:
//!
//! ```text
//! cargo run --release --example fingerprint | tail -1
//! ```

use std::fmt::Debug;

use house_hunting::prelude::*;

/// FNV-1a, 64-bit.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a of a value's `Debug` rendering.
fn hash_of(value: &impl Debug) -> u64 {
    fnv1a(FNV_OFFSET, format!("{value:?}").as_bytes())
}

fn main() -> Result<(), SimError> {
    let mut digest = FNV_OFFSET;
    let mut lines = 0usize;
    for scenario in registry::all_scenarios() {
        for trial in 0..3 {
            for threads in [1, 2] {
                let mut sim = scenario
                    .clone()
                    .round_threads(threads)
                    .build(scenario.trial_seed(trial))?;
                let outcome =
                    sim.run_to_convergence(scenario.convergence_rule(), scenario.round_budget())?;
                let counts = sim.env().counts().to_vec();
                let locations = hash_of(&sim.env().locations());
                let census = sim.role_census();
                let report = sim.step()?;
                let line = format!(
                    "{} trial={trial} threads={threads} {outcome:?} counts={counts:?} \
                     locations={locations:016x} {census:?} pairs={}#{:016x} outcomes={:016x}",
                    scenario.name(),
                    report.recruitment.pairs.len(),
                    hash_of(&report.recruitment.pairs),
                    hash_of(&report.outcomes),
                );
                digest = fnv1a(fnv1a(digest, line.as_bytes()), b"\n");
                lines += 1;
                println!("{line}");
            }
        }
    }
    println!("digest {digest:016x} over {lines} runs");
    Ok(())
}
