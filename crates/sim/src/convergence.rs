//! Convergence detection: when has the colony solved HouseHunting?
//!
//! The problem statement (Section 2) requires all ants located at one good
//! nest for all `r ≥ T`. Neither of the paper's algorithms parks its ants
//! (simple ants are all home on every even round, final optimal ants
//! recruit from home every round), so the paper evaluates them on
//! absorbing commitment states instead (Section 4.2's "we consider the
//! algorithm to terminate once all ants have reached the final state"),
//! and perturbed executions can flicker in and out of agreement — so
//! detection is a *rule*:
//!
//! * [`ConvergenceRule::commitment`] — every honest agent committed to the
//!   same good nest (the standard rule for both algorithms; absorbing in
//!   unperturbed runs);
//! * [`ConvergenceRule::commitment_any`] — same without the binary "good"
//!   requirement (for non-binary-quality colonies);
//! * [`ConvergenceRule::all_final`] — additionally every honest agent
//!   reports [`AgentRole::Final`] (Algorithm 2's termination point);
//! * [`ConvergenceRule::quorum`] — a fraction of the honest agents
//!   committed to one good nest, the robustness experiments' rule.
//!
//! Crashed ants are excluded from every rule: a crash-stop ant's state
//! machine is frozen, so the Section 6 fault-tolerance claim — the colony
//! keeps working despite a few crash faults — is a statement about the
//! *live* honest colony.
//!
//! The detector is fed by the executor's incrementally maintained
//! live-honest tally (commitment counts per nest, uncommitted/final
//! counters), so every rule is answered from O(k) cached state instead of
//! re-dispatching into all n agents.
//!
//! [`AgentRole::Final`]: hh_core::AgentRole::Final

use hh_model::{Nest, NestId};

use crate::executor::{LiveTally, Simulation};

/// What counts as "solved", plus how long it must hold.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ConvergenceRule {
    /// All honest agents committed to the same nest for `stable_rounds`
    /// consecutive rounds; `require_good` additionally demands a good
    /// nest.
    Commitment {
        /// Consecutive rounds the agreement must hold (≥ 1).
        stable_rounds: u64,
        /// Demand a good nest.
        require_good: bool,
    },
    /// Commitment consensus on a good nest with every honest agent final.
    AllFinal,
    /// A quorum of the live honest colony committed to one good nest —
    /// the biological success notion (the paper's introduction describes
    /// real Temnothorax deciding by quorum thresholds). Under active
    /// adversaries unanimity is unattainable (a Byzantine recruiter can
    /// always kidnap one more ant), so robustness experiments use this
    /// rule.
    Quorum {
        /// Fraction of live honest ants that must agree, in `(0, 1]`.
        fraction: f64,
        /// Consecutive rounds the quorum must hold (≥ 1).
        stable_rounds: u64,
    },
}

impl ConvergenceRule {
    /// Commitment consensus on a good nest, detected immediately.
    #[must_use]
    pub fn commitment() -> Self {
        ConvergenceRule::Commitment {
            stable_rounds: 1,
            require_good: true,
        }
    }

    /// Commitment consensus on any nest (non-binary-quality colonies).
    #[must_use]
    pub fn commitment_any() -> Self {
        ConvergenceRule::Commitment {
            stable_rounds: 1,
            require_good: false,
        }
    }

    /// Commitment consensus held for `stable_rounds` consecutive rounds —
    /// the robust choice under perturbations, where agreement can
    /// flicker.
    #[must_use]
    pub fn stable_commitment(stable_rounds: u64) -> Self {
        ConvergenceRule::Commitment {
            stable_rounds: stable_rounds.max(1),
            require_good: true,
        }
    }

    /// Good-nest consensus with every honest agent final.
    #[must_use]
    pub fn all_final() -> Self {
        ConvergenceRule::AllFinal
    }

    /// Quorum commitment on a good nest over a stability window.
    ///
    /// Invalid fractions are sanitized rather than silently accepted:
    /// `NaN` and non-positive values snap to `0.5` (a simple majority,
    /// the smallest quorum that still means agreement), values above 1
    /// clamp to `1.0`. The old behavior let `NaN` through (`f64::clamp`
    /// propagates it, corrupting the detector's threshold arithmetic)
    /// and turned `0.0` into `f64::MIN_POSITIVE`, where a single
    /// committed ant satisfied the "quorum".
    #[must_use]
    pub fn quorum(fraction: f64, stable_rounds: u64) -> Self {
        ConvergenceRule::Quorum {
            fraction: sanitize_quorum_fraction(fraction),
            stable_rounds: stable_rounds.max(1),
        }
    }
}

/// Snaps an invalid quorum fraction to a sane value: `NaN` and
/// non-positive fractions become `0.5` (simple majority), fractions
/// above 1 become `1.0` (unanimity). Valid fractions pass through.
fn sanitize_quorum_fraction(fraction: f64) -> f64 {
    if fraction.is_nan() || fraction <= 0.0 {
        0.5
    } else {
        fraction.min(1.0)
    }
}

/// A successful detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solved {
    /// First round of the stable window — the `T` of the problem
    /// statement as observed.
    pub round: u64,
    /// The winning nest.
    pub nest: NestId,
    /// Whether the winning nest is good (always `true` under
    /// good-requiring rules).
    pub good: bool,
}

/// Streak-tracking state for a rule; feed it the simulation after every
/// round.
#[derive(Debug, Clone)]
pub struct Detector {
    rule: ConvergenceRule,
    candidate: Option<NestId>,
    streak: u64,
}

impl Detector {
    /// Creates a fresh detector for `rule`.
    #[must_use]
    pub fn new(rule: ConvergenceRule) -> Self {
        Self {
            rule,
            candidate: None,
            streak: 0,
        }
    }

    /// Checks the simulation's current state; returns the detection once
    /// the rule's window is satisfied.
    pub fn check(&mut self, sim: &Simulation) -> Option<Solved> {
        self.check_tally(sim.live_tally(), sim.round(), sim.env().nests())
    }

    /// [`check`](Self::check) after completed round `round`, from the
    /// live tally. The executor's round workers call it directly: they
    /// hold the simulation's per-ant state while a segment runs.
    pub(crate) fn check_tally(
        &mut self,
        tally: &LiveTally,
        round: u64,
        nests: &[Nest],
    ) -> Option<Solved> {
        let is_good = |nest: NestId| {
            nest.candidate_index()
                .and_then(|idx| nests.get(idx))
                .is_some_and(|nest| nest.quality().is_good())
        };
        let (agreed, window) = match self.rule {
            ConvergenceRule::Commitment {
                stable_rounds,
                require_good,
            } => {
                let nest = tally
                    .consensus()
                    .filter(|&nest| !require_good || is_good(nest));
                (nest, stable_rounds)
            }
            ConvergenceRule::AllFinal => {
                let nest = tally
                    .consensus()
                    .filter(|&nest| is_good(nest))
                    .filter(|_| tally.all_final());
                (nest, 1)
            }
            ConvergenceRule::Quorum {
                fraction,
                stable_rounds,
            } => (
                // Re-sanitize: the variant's fields are public, so a
                // hand-built rule can bypass the constructor.
                tally.quorum(sanitize_quorum_fraction(fraction), is_good),
                stable_rounds,
            ),
        };

        match agreed {
            Some(nest) if self.candidate == Some(nest) => self.streak += 1,
            Some(nest) => {
                self.candidate = Some(nest);
                self.streak = 1;
            }
            None => {
                self.candidate = None;
                self.streak = 0;
            }
        }

        // Hand-built rules can carry `stable_rounds: 0` (the variant
        // fields are public); snap to the constructors' minimum window
        // so a zero-streak round never "satisfies" it.
        let window = window.max(1);
        if self.streak >= window {
            let nest = self.candidate.expect("streak implies candidate");
            Some(Solved {
                round: round + 1 - self.streak,
                nest,
                good: is_good(nest),
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use hh_core::colony;
    use hh_model::{ColonyConfig, Environment, QualitySpec};

    fn sim(n: usize, spec: QualitySpec, seed: u64, agents: hh_core::Colony) -> Simulation {
        let env = Environment::new(&ColonyConfig::new(n, spec).seed(seed)).unwrap();
        Simulation::new(env, agents).unwrap()
    }

    #[test]
    fn constructors_clamp_windows() {
        assert_eq!(
            ConvergenceRule::stable_commitment(0),
            ConvergenceRule::Commitment {
                stable_rounds: 1,
                require_good: true
            }
        );
    }

    #[test]
    fn commitment_detects_simple_convergence() {
        let mut s = sim(24, QualitySpec::good_prefix(3, 1), 1, colony::simple(24, 1));
        let outcome = s
            .run_to_convergence(ConvergenceRule::commitment(), 5_000)
            .unwrap();
        let solved = outcome.solved.unwrap();
        assert_eq!(solved.nest, hh_model::NestId::candidate(1));
        assert!(solved.good);
    }

    #[test]
    fn stable_commitment_waits_for_window() {
        // Run two identically-seeded simulations with windows 1 and 20:
        // the windowed detection must land at the same first-stable round
        // but fire later.
        let run = |window: u64| {
            let mut s = sim(24, QualitySpec::good_prefix(3, 1), 3, colony::simple(24, 3));
            let outcome = s
                .run_to_convergence(ConvergenceRule::stable_commitment(window), 5_000)
                .unwrap();
            let solved = outcome.solved.unwrap();
            (solved.round, outcome.rounds_run)
        };
        let (first_round_w1, fired_w1) = run(1);
        let (first_round_w20, fired_w20) = run(20);
        // Unperturbed commitment consensus is absorbing, so the window
        // start agrees and the larger window fires later.
        assert_eq!(first_round_w1, first_round_w20);
        assert!(fired_w20 >= fired_w1 + 19);
    }

    #[test]
    fn all_final_requires_final_states() {
        // Simple ants never report final, so the AllFinal rule must not
        // fire for them even after consensus.
        let run = |rule| {
            let mut s = sim(16, QualitySpec::all_good(2), 5, colony::simple(16, 5));
            s.run_to_convergence(rule, 400).unwrap().solved
        };
        assert!(run(ConvergenceRule::commitment()).is_some());
        assert!(run(ConvergenceRule::all_final()).is_none());
    }

    #[test]
    fn quorum_rule_tolerates_stragglers() {
        // Strict commitment and a 90% quorum on the same converging
        // colony: the quorum can only fire at or before unanimity.
        let mut strict = sim(
            24,
            QualitySpec::good_prefix(3, 1),
            21,
            colony::simple(24, 21),
        );
        let strict_round = strict
            .run_to_convergence(ConvergenceRule::commitment(), 5_000)
            .unwrap()
            .solved
            .unwrap()
            .round;
        let mut quorum = sim(
            24,
            QualitySpec::good_prefix(3, 1),
            21,
            colony::simple(24, 21),
        );
        let quorum_round = quorum
            .run_to_convergence(ConvergenceRule::quorum(0.9, 1), 5_000)
            .unwrap()
            .solved
            .unwrap()
            .round;
        assert!(quorum_round <= strict_round);
    }

    #[test]
    fn quorum_constructor_clamps() {
        match ConvergenceRule::quorum(5.0, 0) {
            ConvergenceRule::Quorum {
                fraction,
                stable_rounds,
            } => {
                assert_eq!(fraction, 1.0);
                assert_eq!(stable_rounds, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn quorum_fraction(rule: ConvergenceRule) -> f64 {
        match rule {
            ConvergenceRule::Quorum { fraction, .. } => fraction,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quorum_rejects_nan_fraction() {
        // The old `f64::clamp` let NaN straight through.
        assert_eq!(quorum_fraction(ConvergenceRule::quorum(f64::NAN, 1)), 0.5);
    }

    #[test]
    fn quorum_rejects_non_positive_fractions() {
        // The old clamp snapped 0.0 to `f64::MIN_POSITIVE`, a "quorum"
        // one single ant satisfies.
        assert_eq!(quorum_fraction(ConvergenceRule::quorum(0.0, 1)), 0.5);
        assert_eq!(quorum_fraction(ConvergenceRule::quorum(-3.0, 1)), 0.5);
    }

    #[test]
    fn hand_built_zero_window_does_not_panic() {
        // `stable_rounds: 0` via the public fields: the first check has
        // streak 0 and no candidate; the window must snap to 1 instead
        // of reporting a detection out of nothing (or panicking).
        for rule in [
            ConvergenceRule::Quorum {
                fraction: 0.7,
                stable_rounds: 0,
            },
            ConvergenceRule::Commitment {
                stable_rounds: 0,
                require_good: true,
            },
        ] {
            let mut fresh = sim(8, QualitySpec::good_prefix(2, 1), 5, colony::simple(8, 5));
            let mut detector = Detector::new(rule);
            assert!(
                detector.check(&fresh).is_none(),
                "{rule:?}: detected before any round ran"
            );
            // And the rule still works as a window-1 rule.
            let outcome = fresh.run_to_convergence(rule, 5_000).unwrap();
            assert!(outcome.solved.is_some(), "{rule:?}: never converged");
        }
    }

    #[test]
    fn nan_quorum_detects_at_simple_majority() {
        // End to end: a hand-built NaN-fraction rule must behave exactly
        // like the sanitized 0.5 rule rather than silently corrupting
        // the detector's threshold.
        let run = |rule: ConvergenceRule| {
            let mut s = sim(
                24,
                QualitySpec::good_prefix(3, 1),
                13,
                colony::simple(24, 13),
            );
            s.run_to_convergence(rule, 5_000).unwrap().solved
        };
        let nan = run(ConvergenceRule::Quorum {
            fraction: f64::NAN,
            stable_rounds: 1,
        });
        let majority = run(ConvergenceRule::quorum(0.5, 1));
        assert_eq!(nan, majority);
        assert!(nan.is_some());
    }

    #[test]
    fn zero_quorum_needs_more_than_one_ant() {
        // With a 24-ant colony just starting out, a single early commit
        // must not satisfy a (sanitized) zero quorum: run one round and
        // check nothing fires before half the colony agrees.
        let mut s = sim(
            24,
            QualitySpec::good_prefix(3, 1),
            17,
            colony::simple(24, 17),
        );
        let mut detector = Detector::new(ConvergenceRule::quorum(0.0, 1));
        s.step().unwrap();
        let census = s.role_census();
        if let Some(solved) = detector.check(&s) {
            let committed: usize = census.active + census.passive + census.final_count;
            assert!(
                committed * 2 >= 24,
                "quorum fired at round 1 with only {committed} committed ants ({solved:?})"
            );
        }
    }

    #[test]
    fn commitment_any_ignores_quality() {
        use hh_model::Quality;
        let spec =
            QualitySpec::Explicit(vec![Quality::new(0.3).unwrap(), Quality::new(0.4).unwrap()]);
        let env = Environment::new(
            &ColonyConfig::new(16, spec)
                .seed(9)
                .allow_no_good()
                .reveal_quality_on_go(),
        )
        .unwrap();
        let mut s = Simulation::new(env, colony::quality(16, 9, 2.0)).unwrap();
        let outcome = s
            .run_to_convergence(ConvergenceRule::commitment_any(), 8_000)
            .unwrap();
        let solved = outcome.solved.expect("quality colony agrees on some nest");
        // Neither nest is 'good' in the binary sense.
        assert!(!solved.good);
    }
}
