//! Experiment registry and shared report types.

pub mod ablation;
pub mod adaptive_rate;
pub mod asynchrony;
pub mod common;
pub mod head_to_head;
pub mod lower_bound;
pub mod optimal;
pub mod quality;
pub mod recruitment;
pub mod robustness;
pub mod rumor;
pub mod simple;
pub mod throughput;

/// Effort level: `Quick` keeps every experiment CI-sized; `Full` uses the
/// publication-sized sweeps recorded in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Small sweeps, few trials (seconds per experiment).
    Quick,
    /// Full sweeps (minutes per experiment).
    Full,
}

impl Mode {
    /// Scales a trial count.
    #[must_use]
    pub fn trials(self, quick: usize, full: usize) -> usize {
        match self {
            Mode::Quick => quick,
            Mode::Full => full,
        }
    }

    /// Picks one of two sweeps.
    #[must_use]
    pub fn sweep<T: Clone>(self, quick: &[T], full: &[T]) -> Vec<T> {
        match self {
            Mode::Quick => quick.to_vec(),
            Mode::Full => full.to_vec(),
        }
    }
}

/// A machine-checked claim about an experiment's measured shape.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The claim, phrased after the paper ("rounds grow ≈ a·log n").
    pub claim: String,
    /// What was measured, human-readable.
    pub measured: String,
    /// Did the measurement satisfy the claim?
    pub pass: bool,
}

impl Finding {
    /// Builds a finding.
    #[must_use]
    pub fn new(claim: impl Into<String>, measured: impl Into<String>, pass: bool) -> Self {
        Self {
            claim: claim.into(),
            measured: measured.into(),
            pass,
        }
    }
}

/// One experiment's rendered output plus its structured findings.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (`"F3"`, `"T2"`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered tables/series, ready to print.
    pub body: String,
    /// Shape checks.
    pub findings: Vec<Finding>,
}

impl ExperimentReport {
    /// `true` if every finding passed.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.findings.iter().all(|f| f.pass)
    }
}

/// A runnable experiment: id, title, and entry point.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Experiment id (`"F3"`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Entry point.
    pub run: fn(Mode) -> ExperimentReport,
}

/// Renders the experiment-registry index exactly as embedded in
/// `EXPERIMENTS.md` between the `BEGIN/END GENERATED` markers. A tier-1
/// test compares that block with this function's output byte for byte,
/// so the table can only be edited here.
#[must_use]
pub fn experiments_index_markdown() -> String {
    let mut out = String::from("| id | title |\n|----|-------|\n");
    for experiment in all_experiments() {
        out.push_str(&format!("| {} | {} |\n", experiment.id, experiment.title));
    }
    out
}

/// The full registry, in `EXPERIMENTS.md` order.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "F1",
            title: "Theorem 3.2 — Ω(log n) lower bound",
            run: lower_bound::run,
        },
        Experiment {
            id: "F2",
            title: "Lemma 2.1 — recruiter success ≥ 1/16",
            run: recruitment::run,
        },
        Experiment {
            id: "F3",
            title: "Theorem 4.3 — optimal algorithm is O(log n) in n",
            run: optimal::run_f3,
        },
        Experiment {
            id: "F4",
            title: "Theorem 4.3 — optimal algorithm nearly flat in k",
            run: optimal::run_f4,
        },
        Experiment {
            id: "F8",
            title: "Lemma 4.2 — competing nests drop out at ≥ 1/66 per cycle",
            run: optimal::run_f8,
        },
        Experiment {
            id: "F5",
            title: "Theorem 5.11 — simple algorithm is O(log n) at fixed k",
            run: simple::run_f5,
        },
        Experiment {
            id: "F6",
            title: "Theorem 5.11 — simple algorithm linear in k",
            run: simple::run_f6,
        },
        Experiment {
            id: "F9",
            title: "Lemma 5.4 — initial gap E[ε] ≥ 1/(3(n−1))",
            run: simple::run_f9,
        },
        Experiment {
            id: "F16",
            title: "Lemmas 5.8/5.9 — sub-threshold nests die out",
            run: simple::run_f16,
        },
        Experiment {
            id: "F7",
            title: "Optimal vs simple — who wins, and by how much",
            run: head_to_head::run,
        },
        Experiment {
            id: "F10",
            title: "Section 6 — robustness to unbiased count noise",
            run: robustness::run_f10,
        },
        Experiment {
            id: "F11",
            title: "Section 6 — robustness to crash faults",
            run: robustness::run_f11,
        },
        Experiment {
            id: "F12",
            title: "Section 6 — robustness to Byzantine recruiters",
            run: robustness::run_f12,
        },
        Experiment {
            id: "F17",
            title: "Section 6 — partial asynchrony (per-round delays)",
            run: asynchrony::run,
        },
        Experiment {
            id: "F13",
            title: "Section 6 — adaptive recruitment rate vs k",
            run: adaptive_rate::run,
        },
        Experiment {
            id: "F14",
            title: "Section 6 — non-binary quality: speed/accuracy",
            run: quality::run,
        },
        Experiment {
            id: "F15",
            title: "Rumor-spreading substrate (Karp et al.)",
            run: rumor::run,
        },
        Experiment {
            id: "F18",
            title: "Ablation — adaptive-rate design choices",
            run: ablation::run,
        },
        Experiment {
            id: "T2",
            title: "Engineering throughput (ant·rounds/sec)",
            run: throughput::run,
        },
    ]
}
