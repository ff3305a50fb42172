//! Integration: the environment enforces the Section 2 semantics
//! end-to-end through the public facade.

use house_hunting::prelude::*;

fn build_env(n: usize, k: usize, seed: u64) -> Environment {
    Environment::new(&ColonyConfig::new(n, QualitySpec::all_good(k)).seed(seed)).expect("valid")
}

#[test]
fn counts_are_conserved_across_a_long_mixed_run() {
    let n = 64;
    let k = 5;
    let mut env = build_env(n, k, 1);
    env.step(&vec![Action::Search; n]).unwrap();
    for round in 0..200u64 {
        let actions: Vec<Action> = (0..n)
            .map(|i| {
                let ant = AntId::new(i);
                let here = env.location_of(ant);
                let known = env.first_known(ant).expect("searched in round 1");
                match (i as u64 + round) % 4 {
                    0 => Action::Search,
                    1 if !here.is_home() => Action::Go(here),
                    2 => Action::recruit_active(known),
                    _ => Action::recruit_passive(known),
                }
            })
            .collect();
        env.step(&actions).unwrap();
        assert_eq!(env.counts().iter().sum::<usize>(), n, "ants conserved");
        let home = env.count(NestId::HOME);
        let away: usize = (1..=k).map(|i| env.count(NestId::candidate(i))).sum();
        assert_eq!(home + away, n);
    }
}

#[test]
fn locations_follow_actions_exactly() {
    let n = 8;
    let mut env = build_env(n, 3, 2);
    let report = env.step(&vec![Action::Search; n]).unwrap();
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let Outcome::Search { nest, .. } = outcome else {
            panic!("round 1 must answer searches")
        };
        assert_eq!(env.location_of(AntId::new(i)), *nest);
    }
    // Everyone recruits: all at home afterwards.
    let actions: Vec<Action> = (0..n)
        .map(|i| Action::recruit_passive(env.location_of(AntId::new(i))))
        .collect();
    env.step(&actions).unwrap();
    assert_eq!(env.count(NestId::HOME), n);
}

#[test]
fn recruitment_report_matches_outcomes() {
    let n = 32;
    let mut env = build_env(n, 2, 3);
    env.step(&vec![Action::Search; n]).unwrap();
    let actions: Vec<Action> = (0..n)
        .map(|i| {
            let nest = env.location_of(AntId::new(i));
            if i % 2 == 0 {
                Action::recruit_active(nest)
            } else {
                Action::recruit_passive(nest)
            }
        })
        .collect();
    let report = env.step(&actions).unwrap();
    assert_eq!(report.recruitment.calls.len(), n);
    // Every recruited ant's outcome nest must equal its recruiter's input
    // nest.
    for &(recruiter, recruited) in &report.recruitment.pairs {
        let recruiter_input = actions[recruiter.index()].nest().unwrap();
        match report.outcomes[recruited.index()] {
            Outcome::Recruit { nest, .. } => assert_eq!(nest, recruiter_input),
            ref other => panic!("recruited ant has outcome {other:?}"),
        }
    }
    // No ant appears twice on the recruited side.
    let mut seen = std::collections::BTreeSet::new();
    for &(_, recruited) in &report.recruitment.pairs {
        assert!(seen.insert(recruited), "{recruited} recruited twice");
    }
}

#[test]
fn knowledge_gates_go_and_recruit() {
    let mut env = build_env(2, 3, 4);
    // Find what ant 0 knows after searching.
    let report = env.step(&[Action::Search, Action::Search]).unwrap();
    let known0 = report.outcomes[0].nest().unwrap();
    // Any nest that is neither ant 0's search result nor learned by
    // recruitment is out of bounds.
    let unknown = (1..=3)
        .map(NestId::candidate)
        .find(|&nest| nest != known0)
        .unwrap();
    let err = env
        .step(&[Action::Go(unknown), Action::Search])
        .unwrap_err();
    assert!(matches!(err, ModelError::NestNotKnown { .. }));
    // The environment state is untouched by the failed step.
    assert_eq!(env.round(), 1);
    // The known nest works.
    env.step(&[Action::Go(known0), Action::Search]).unwrap();
    assert_eq!(env.round(), 2);
}

#[test]
fn environment_executions_are_reproducible() {
    let run = |seed: u64| {
        let n = 24;
        let mut env = build_env(n, 3, seed);
        let mut populations = Vec::new();
        env.step(&vec![Action::Search; n]).unwrap();
        for _ in 0..50 {
            let actions: Vec<Action> = (0..n)
                .map(|i| {
                    let ant = AntId::new(i);
                    let target = if env.location_of(ant).is_home() {
                        env.first_known(ant).unwrap()
                    } else {
                        env.location_of(ant)
                    };
                    Action::recruit_active(target)
                })
                .collect();
            env.step(&actions).unwrap();
            let back: Vec<Action> = (0..n)
                .map(|i| Action::Go(env.first_known(AntId::new(i)).unwrap()))
                .collect();
            env.step(&back).unwrap();
            populations.push(env.counts().to_vec());
        }
        populations
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78));
}

#[test]
fn noise_affects_observations_not_state() {
    let n = 500;
    let config = ColonyConfig::new(n, QualitySpec::all_good(1))
        .seed(9)
        .noise(NoiseModel::multiplicative(0.3).unwrap());
    let mut env = Environment::new(&config).unwrap();
    let report = env.step(&vec![Action::Search; n]).unwrap();
    // True state is exact.
    assert_eq!(env.count(NestId::candidate(1)), n);
    // Observations vary around the truth.
    let counts: Vec<u32> = report.outcomes.iter().map(|o| o.count()).collect();
    let distinct: std::collections::BTreeSet<u32> = counts.iter().copied().collect();
    assert!(distinct.len() > 1, "independent noise draws should differ");
    let mean = counts.iter().map(|&c| c as u64).sum::<u64>() as f64 / n as f64;
    assert!(
        (mean - n as f64).abs() / (n as f64) < 0.1,
        "unbiased around truth"
    );
}
