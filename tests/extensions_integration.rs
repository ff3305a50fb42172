//! Integration: the Section 6 extension agents through the full stack —
//! adaptive rate, non-binary quality, the lower-bound spreaders, and
//! sleeper adversaries.

use house_hunting::core::SleeperAnt;
use house_hunting::model::Quality;
use house_hunting::prelude::*;
use house_hunting::sim::{run_trials, success_rate, SeriesRecorder};

#[test]
fn adaptive_colony_converges_on_mixed_habitats() {
    for seed in 0..4 {
        let solved = ScenarioSpec::new(96, QualitySpec::good_prefix(6, 3))
            .seed(seed)
            .build_simulation(colony::adaptive(96, seed))
            .unwrap()
            .run_to_convergence(ConvergenceRule::commitment(), 30_000)
            .unwrap()
            .solved
            .unwrap_or_else(|| panic!("seed {seed}: adaptive stuck"));
        assert!(solved.good);
    }
}

#[test]
fn quality_colony_picks_the_best_of_three_graded_nests() {
    let spec = QualitySpec::Explicit(vec![
        Quality::new(0.95).unwrap(),
        Quality::new(0.55).unwrap(),
        Quality::new(0.15).unwrap(),
    ]);
    let mut best_wins = 0;
    let trials = 10;
    for seed in 0..trials {
        let solved = ScenarioSpec::new(96, spec.clone())
            .seed(seed)
            .reveal_quality_on_go()
            .build_simulation(colony::quality(96, seed, 3.0))
            .unwrap()
            .run_to_convergence(ConvergenceRule::commitment_any(), 30_000)
            .unwrap()
            .solved;
        if solved.map(|s| s.nest) == Some(NestId::candidate(1)) {
            best_wins += 1;
        }
    }
    assert!(best_wins >= 7, "best nest won only {best_wins}/{trials}");
}

#[test]
fn spreader_strategies_all_inform_with_wait_fastest_at_scale() {
    let n = 512;
    let mut results = Vec::new();
    for strategy in [
        SpreadStrategy::WaitAtHome,
        SpreadStrategy::SearchForever,
        SpreadStrategy::Hybrid {
            search_probability: 0.3,
        },
    ] {
        let outcomes = run_trials(6, 20_000, ConvergenceRule::commitment(), |trial| {
            let seed = 40 + trial as u64;
            ScenarioSpec::new(n, QualitySpec::single_good(4, 2))
                .seed(seed)
                .build_simulation(colony::spreaders(n, seed, strategy))
        })
        .unwrap();
        assert_eq!(success_rate(&outcomes), 1.0, "{}", strategy.label());
        let mean: f64 = outcomes
            .iter()
            .filter_map(|o| o.solved.map(|s| s.round as f64))
            .sum::<f64>()
            / outcomes.len() as f64;
        results.push((strategy.label(), mean));
    }
    // With k = 4, pure searching informs at rate 1/4 per round; the
    // recruitment-driven wait strategy spreads exponentially and should
    // be substantially faster at this scale.
    let wait = results[0].1;
    let search = results[1].1;
    assert!(
        wait < search,
        "wait {wait} should beat pure search {search} at n = {n}, k = 4"
    );
}

#[test]
fn sleepers_only_delay_the_honest_colony() {
    let n = 72;
    let outcomes = run_trials(8, 30_000, ConvergenceRule::quorum(0.9, 8), |trial| {
        let seed = 60 + trial as u64;
        let mut agents = colony::simple(n, seed);
        colony::plant_adversaries(&mut agents, 2, |slot| {
            SleeperAnt::new(n, seed + slot as u64, 30)
        });
        ScenarioSpec::new(n, QualitySpec::good_prefix(4, 2))
            .seed(seed)
            .build_simulation(agents)
    })
    .unwrap();
    assert!(
        success_rate(&outcomes) >= 0.75,
        "rate {}",
        success_rate(&outcomes)
    );
}

#[test]
fn series_recorder_tracks_extension_colonies() {
    let mut sim = ScenarioSpec::new(48, QualitySpec::all_good(3))
        .seed(3)
        .build_simulation(colony::adaptive(48, 3))
        .unwrap();
    let mut recorder = SeriesRecorder::new();
    let outcome = sim
        .run_observed(ConvergenceRule::commitment(), 20_000, |sim, _| {
            recorder.record(sim)
        })
        .unwrap();
    assert!(outcome.solved.is_some());
    let competing = recorder.competing_series();
    assert_eq!(*competing.last().unwrap(), 1, "ends with a single nest");
    assert!(competing.iter().max().unwrap() <= &3);
}
