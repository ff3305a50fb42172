//! T2 — engineering throughput of the executor.
//!
//! Not a paper claim: wall-clock sanity numbers (rounds/sec and
//! ant·rounds/sec) for the synchronous executor across colony sizes,
//! recorded so performance regressions are visible next to the science.
//! Each size also runs on the scalar oracle, and Algorithm 1 is timed on
//! its own, since the pairing is the one serial phase of a round.

use std::hint::black_box;
use std::time::Instant;

use hh_analysis::{fmt_f64, Table};
use hh_model::recruitment::{pair_chunks_into, Pairing, RecruitCall};
use hh_model::{AntId, NestId, QualitySpec};
use hh_sim::registry::{Algorithm, ColonyMix, FaultSchedule, Scenario};
use hh_sim::EngineKind;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::common::cell_seed;
use super::{ExperimentReport, Finding, Mode};

/// Measured executor throughput at one colony size.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Simulated rounds per wall-clock second.
    pub rounds_per_sec: f64,
    /// Ant-rounds (agent steps) per wall-clock second.
    pub ant_rounds_per_sec: f64,
}

/// Number of blocks the timed rounds are split into; the two engines
/// take turns block by block.
const BLOCKS: u64 = 10;

/// Measures steady-state executor throughput for the simple colony on
/// the fast path and on the scalar oracle, in that order. Both run the
/// bit-identical process from the same seed, so they differ in wall
/// clock only. They take turns in blocks of rounds, so a change in
/// machine load during the measurement slows both alike. Also returns
/// the lowest and the highest fast/scalar speed ratio of one block: a
/// difference in the total ratio inside that range is unresolved.
#[must_use]
// Wall-clock reads are banned workspace-wide (clippy.toml mirrors the
// hh_lint `wall-clock` rule); measuring throughput is the one job that
// genuinely needs them, and hh-bench is outside the engine contract.
#[allow(clippy::disallowed_methods)]
pub fn measure_throughput(n: usize, rounds: u64, cell: u64) -> ([Throughput; 2], (f64, f64)) {
    let scenario = Scenario::custom(
        format!("t2-n{n}"),
        n,
        QualitySpec::AllGood { k: 4 },
        FaultSchedule::None,
        ColonyMix::Uniform(Algorithm::Simple),
    )
    .base_seed_value(cell_seed(22, cell, 0));
    let mut sims = [EngineKind::Fused, EngineKind::Scalar].map(|engine| {
        let scenario = scenario.clone().engine(engine);
        let mut sim = scenario
            .build(scenario.trial_seed(0))
            .expect("valid experiment configuration");
        // Warm-up: past the search round.
        for _ in 0..4 {
            sim.step_in_place().expect("legal run");
        }
        sim
    });
    let mut elapsed = [0.0f64; 2];
    let mut ratio_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut timed = 0;
    while timed < rounds {
        let block = (rounds / BLOCKS).max(1).min(rounds - timed);
        let mut seconds = [0.0f64; 2];
        for (sim, seconds) in sims.iter_mut().zip(&mut seconds) {
            let start = Instant::now();
            // The engine's hot path: the convergence loop (detector
            // included). Simple agents never report the final state, so
            // the all-final rule cannot fire and the loop executes
            // exactly `block` rounds.
            let out = sim
                .run_to_convergence(hh_sim::ConvergenceRule::all_final(), block)
                .expect("legal run");
            assert_eq!(out.rounds_run, block, "rule must not fire");
            *seconds = start.elapsed().as_secs_f64();
        }
        // Both engines ran the same rounds, so the ratio of their times
        // is this block's fast/scalar speed ratio.
        let ratio = seconds[1] / seconds[0].max(1e-9);
        ratio_range = (ratio_range.0.min(ratio), ratio_range.1.max(ratio));
        elapsed = [elapsed[0] + seconds[0], elapsed[1] + seconds[1]];
        timed += block;
    }
    let totals = elapsed.map(|elapsed| {
        let elapsed = elapsed.max(1e-9);
        Throughput {
            rounds_per_sec: rounds as f64 / elapsed,
            ant_rounds_per_sec: (rounds as f64 * n as f64) / elapsed,
        }
    });
    (totals, ratio_range)
}

/// Measures Algorithm 1 alone: nanoseconds per participant of the
/// kernel the engine runs every round, [`pair_chunks_into`], over `m`
/// participants in one chunk (as at one round thread), every other one
/// active, with the pairing and permutation scratch reused across calls
/// as `SharedRound::pair_round` reuses them. The id-level pairs, which
/// only a reporting round builds, are not timed. Runs about
/// `participants` participants in total.
#[must_use]
#[allow(clippy::disallowed_methods)] // wall clock, as in `measure_throughput`
pub fn measure_pairing(m: usize, participants: usize) -> f64 {
    let calls: Vec<RecruitCall> = (0..m)
        .map(|i| RecruitCall::new(AntId::new(i), i % 2 == 0, NestId::candidate(1 + i % 4)))
        .collect();
    let mut rng = SmallRng::seed_from_u64(cell_seed(22, m as u64, 1));
    let mut pairing = Pairing::default();
    let mut perm = Vec::new();
    // Warm-up: grows the scratch to size, as the executor's first round does.
    pair_chunks_into([calls.as_slice()], &mut rng, &mut pairing, &mut perm);
    let calls_run = (participants / m).max(1);
    let start = Instant::now();
    for _ in 0..calls_run {
        pair_chunks_into(
            [black_box(calls.as_slice())],
            &mut rng,
            &mut pairing,
            &mut perm,
        );
        black_box(pairing.matched_count());
    }
    let elapsed = start.elapsed().as_secs_f64();
    elapsed * 1e9 / (calls_run * m) as f64
}

/// Runs experiment T2.
#[must_use]
pub fn run(mode: Mode) -> ExperimentReport {
    let (rounds, participants) = match mode {
        Mode::Quick => (2_000, 1 << 22),
        Mode::Full => (20_000, 1 << 25),
    };
    let ns = [256usize, 1_024, 4_096, 16_384];

    let mut table = Table::new([
        "n",
        "rounds/sec",
        "scalar rounds/sec",
        "fast/scalar",
        "per-block range",
        "ant·rounds/sec",
    ]);
    let mut slowest_ant_rate = f64::INFINITY;
    for (ni, &n) in ns.iter().enumerate() {
        let ([t, scalar], (lo, hi)) = measure_throughput(n, rounds, ni as u64);
        slowest_ant_rate = slowest_ant_rate.min(t.ant_rounds_per_sec);
        table.row([
            n.to_string(),
            fmt_f64(t.rounds_per_sec, 0),
            fmt_f64(scalar.rounds_per_sec, 0),
            fmt_f64(t.rounds_per_sec / scalar.rounds_per_sec, 2),
            format!("{}–{}", fmt_f64(lo, 2), fmt_f64(hi, 2)),
            fmt_f64(t.ant_rounds_per_sec, 0),
        ]);
    }

    let mut pairing = Table::new(["m", "ns/participant"]);
    for m in [64usize, 1_024, 16_384] {
        pairing.row([m.to_string(), fmt_f64(measure_pairing(m, participants), 1)]);
    }

    let findings = vec![Finding::new(
        "the executor sustains at least one million agent steps per second",
        format!(
            "slowest configuration: {:.0} ant·rounds/sec",
            slowest_ant_rate
        ),
        slowest_ant_rate >= 1e6,
    )];

    let body = format!(
        "simple colony, all nests good, {rounds} timed rounds per row on the \
         fast path and on the scalar oracle, in {BLOCKS} alternating blocks; \
         the per-block range is the lowest and highest fast/scalar ratio of \
         one block, and a difference inside it is unresolved (perfbench is \
         the benchmark of record)\n\n{table}\n\
         Algorithm 1 alone (pair_chunks_into, the kernel the engine runs \
         every round, without the id-level pairs; reused scratch, every \
         other participant active), about {participants} participants per \
         row\n\n{pairing}"
    );
    ExperimentReport {
        id: "T2",
        title: "Engineering throughput (ant·rounds/sec)",
        body,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_positive() {
        let ([fast, scalar], (lo, hi)) = measure_throughput(64, 50, 9);
        for t in [fast, scalar] {
            assert!(t.rounds_per_sec > 0.0);
            assert!(t.ant_rounds_per_sec > t.rounds_per_sec);
        }
        // The total ratio is a time-weighted mean of the block ratios.
        let total = fast.rounds_per_sec / scalar.rounds_per_sec;
        assert!(0.0 < lo && lo <= hi, "range {lo}–{hi}");
        assert!(lo * (1.0 - 1e-9) <= total && total <= hi * (1.0 + 1e-9));
        assert!(measure_pairing(64, 640) > 0.0);
    }
}
