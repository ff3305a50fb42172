//! The composed round driver: one synchronous round built from each
//! layer's public function, called one layer at a time in the engine's
//! order, with a span around every layer call.
//!
//! For round `r`:
//!
//! 1. `choose` — [`Colony::choose`] for every ant (`hh_core`);
//! 2. `validate` — [`Environment::check_action`] for every ant, an
//!    illegal action sandboxed into the in-place no-op (`hh_model::env`);
//! 3. `relocate` — `relocation_view().apply_all`, then `merge_counts`;
//! 4. `pair` — [`Environment::pair_round`], Algorithm 1
//!    (`hh_model::recruitment`);
//! 5. `outcome` — `outcome_view()` and `outcome` for every ant;
//! 6. `observe` — [`Colony::observe`] for every ant whose own action
//!    ran, then [`Colony::refresh`] for every ant (`hh_core`).
//!
//! This is the unperturbed round the engine runs, so after any number of
//! rounds the driver's environment must equal the engine's
//! (`counts()` and `locations()`); the traced run checks that.

use hh_core::Colony;
use hh_model::faults::{noop_action, CrashStyle};
use hh_model::recruitment::RecruitCall;
use hh_model::{Action, AntId, Environment, Outcome, StepReport};

use crate::trace::Tracer;

/// Work counts accumulated over composed rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundCounts {
    /// Rounds driven.
    pub rounds: u64,
    /// `search` actions chosen.
    pub search: u64,
    /// `go` actions chosen.
    pub go: u64,
    /// `recruit` actions chosen.
    pub recruit: u64,
    /// Recruit calls handed to the pairing (participants).
    pub recruit_calls: u64,
    /// Of those, active recruiters (`recruit(1, ·)`).
    pub active_calls: u64,
    /// Matched pairs: active recruiters that succeeded (Lemma 2.1).
    pub matched: u64,
    /// Illegal actions sandboxed.
    pub illegal: u64,
}

impl RoundCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &RoundCounts) {
        self.rounds += other.rounds;
        self.search += other.search;
        self.go += other.go;
        self.recruit += other.recruit;
        self.recruit_calls += other.recruit_calls;
        self.active_calls += other.active_calls;
        self.matched += other.matched;
        self.illegal += other.illegal;
    }
}

/// An environment and a colony stepped by hand, layer by layer.
#[derive(Debug)]
pub struct Composed {
    env: Environment,
    colony: Colony,
    actions: Vec<Action>,
    ran: Vec<bool>,
    outcomes: Vec<Outcome>,
    counts: Vec<usize>,
    calls: Vec<RecruitCall>,
    report: StepReport,
}

impl Composed {
    /// A driver over a freshly built environment and colony (the colony
    /// is synced first, as the engine does on construction).
    #[must_use]
    pub fn new(env: Environment, mut colony: Colony) -> Self {
        colony.sync();
        Self {
            env,
            colony,
            actions: Vec::new(),
            ran: Vec::new(),
            outcomes: Vec::new(),
            counts: Vec::new(),
            calls: Vec::new(),
            report: StepReport::default(),
        }
    }

    /// The environment as driven so far.
    #[must_use]
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// Drives `rounds` rounds, each inside a `round` span with one child
    /// span per layer call; adds the work counts to `counts`.
    pub fn run(&mut self, rounds: u64, tracer: &mut Tracer, counts: &mut RoundCounts) {
        for _ in 0..rounds {
            let span = tracer.open("round");
            self.round(tracer, counts);
            tracer.close(span);
        }
    }

    fn round(&mut self, tracer: &mut Tracer, counts: &mut RoundCounts) {
        let n = self.env.n();
        let round = self.env.round() + 1;
        let Self {
            env,
            colony,
            actions,
            ran,
            outcomes,
            counts: tally,
            calls,
            report,
        } = self;

        tracer.span("choose", |_| {
            actions.clear();
            actions.extend((0..n).map(|idx| colony.choose(idx, round)));
        });

        let illegal = tracer.span("validate", |_| {
            ran.clear();
            ran.resize(n, true);
            let mut illegal = 0;
            for (idx, action) in actions.iter_mut().enumerate() {
                let ant = AntId::new(idx);
                if env.check_action(ant, action).is_err() {
                    *action = noop_action(env, ant, CrashStyle::InPlace);
                    ran[idx] = false;
                    illegal += 1;
                }
            }
            illegal
        });

        tracer.span("relocate", |_| {
            tally.clear();
            tally.resize(env.k() + 1, 0);
            calls.clear();
            env.relocation_view().apply_all(actions, tally, calls);
            env.merge_counts(std::iter::once(tally.as_slice()));
        });

        tracer.span("pair", |_| env.pair_round(calls));

        tracer.span("outcome", |_| {
            outcomes.clear();
            let (mut chunk, ctx) = env.outcome_view();
            let mut cursor = 0usize;
            outcomes.extend(
                actions
                    .iter()
                    .enumerate()
                    .map(|(idx, &action)| chunk.outcome(&ctx, idx, action, &mut cursor)),
            );
        });

        tracer.span("observe", |_| {
            for idx in 0..n {
                if ran[idx] {
                    colony.observe(idx, round, &outcomes[idx]);
                }
                colony.refresh(idx);
            }
        });

        // Counting is outside every layer span.
        env.export_pairs(report);
        counts.rounds += 1;
        counts.illegal += illegal;
        counts.recruit_calls += calls.len() as u64;
        counts.active_calls += calls.iter().filter(|call| call.active).count() as u64;
        counts.matched += report.recruitment.pairs.len() as u64;
        for action in actions.iter() {
            match action {
                Action::Search => counts.search += 1,
                Action::Go(_) => counts.go += 1,
                Action::Recruit { .. } => counts.recruit += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_sim::registry::{Algorithm, ColonyMix, FaultSchedule, QualityProfile, Scenario};
    use hh_sim::ConvergenceRule;

    #[test]
    fn composed_rounds_match_the_engine() {
        let scenario = Scenario::custom(
            "composed-check",
            512,
            QualityProfile::AllGood { k: 4 },
            FaultSchedule::None,
            ColonyMix::Uniform(Algorithm::Simple),
        );
        let seed = 11;
        let mut sim = scenario.build(seed).unwrap();
        let outcome = sim
            .run_to_convergence(ConvergenceRule::all_final(), 40)
            .unwrap();
        assert_eq!(outcome.rounds_run, 40);

        let env = scenario.spec_for(seed).build_environment().unwrap();
        let mut driver = Composed::new(env, scenario.colony_for(seed));
        let mut tracer = Tracer::new();
        let mut counts = RoundCounts::default();
        driver.run(40, &mut tracer, &mut counts);
        assert_eq!(driver.env().counts(), sim.env().counts());
        assert_eq!(driver.env().locations(), sim.env().locations());
        assert_eq!(counts.rounds, 40);
        assert_eq!(counts.search + counts.go + counts.recruit, 40 * 512);
        assert!(counts.matched <= counts.active_calls);
        assert_eq!(tracer.totals()["pair"].count, 40);
    }
}
