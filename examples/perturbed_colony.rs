//! Perturbed colony: the Section 6 robustness story in one run.
//!
//! Subjects the two algorithms to the perturbations the paper discusses —
//! noisy population counts, crash faults, partial asynchrony (delays),
//! and Byzantine recruiters — with every cell assembled from registry
//! axes, and prints a success-rate grid. The paper's qualitative
//! prediction: the optimal algorithm, which "relies heavily on the
//! synchrony in the execution and the precise counting of the number of
//! ants", collapses, while the simple algorithm keeps working.
//!
//! ```text
//! cargo run --release --example perturbed_colony
//! ```

use house_hunting::analysis::{fmt_f64, Table};
use house_hunting::model::faults::CrashStyle;
use house_hunting::prelude::*;
use house_hunting::sim::success_rate;

#[derive(Clone, Copy)]
enum Setup {
    Baseline,
    NoisyCounts(f64),
    Crashes(f64),
    Delays(f64),
    Byzantine(usize),
}

impl Setup {
    fn label(self) -> String {
        match self {
            Setup::Baseline => "baseline".into(),
            Setup::NoisyCounts(sigma) => format!("count noise σ={sigma}"),
            Setup::Crashes(frac) => format!("{:.0}% crash at r=10", frac * 100.0),
            Setup::Delays(p) => format!("{:.0}% delays", p * 100.0),
            Setup::Byzantine(count) => format!("{count} byzantine"),
        }
    }

    /// Maps the setup onto the registry's fault and mix axes.
    fn scenario(self, algorithm: Algorithm, n: usize) -> Scenario {
        let faults = match self {
            Setup::Crashes(fraction) => FaultSchedule::Crash {
                fraction,
                round: 10,
                style: CrashStyle::InPlace,
            },
            Setup::Delays(probability) => FaultSchedule::Delay { probability },
            _ => FaultSchedule::None,
        };
        let mix = match self {
            Setup::Byzantine(adversaries) => ColonyMix::Byzantine {
                algorithm,
                adversaries,
            },
            _ => ColonyMix::Uniform(algorithm),
        };
        let mut scenario = Scenario::custom(
            format!(
                "perturbed-{}-{}",
                self.label(),
                mix.primary_algorithm().label()
            ),
            n,
            QualitySpec::GoodPrefix { k: 4, good: 2 },
            faults,
            mix,
        )
        .rule(ConvergenceRule::stable_commitment(8))
        .max_rounds(30_000);
        if let Setup::NoisyCounts(sigma) = self {
            scenario = scenario.noise(NoiseModel::multiplicative(sigma).expect("valid sigma"));
        }
        scenario
    }
}

fn run(setup: Setup, algorithm: Algorithm, n: usize, trials: usize) -> Result<f64, SimError> {
    let outcomes = setup.scenario(algorithm, n).run_trials(trials)?;
    Ok(success_rate(&outcomes))
}

fn main() -> Result<(), SimError> {
    let n = 96;
    let trials = 8;
    println!(
        "robustness grid: n = {n}, k = 4 (2 good), {trials} trials per cell,\n\
         success = stable commitment consensus on a good nest\n"
    );

    let setups = [
        Setup::Baseline,
        Setup::NoisyCounts(0.3),
        Setup::Crashes(0.10),
        Setup::Delays(0.10),
        Setup::Byzantine(4),
    ];

    let mut table = Table::new(["perturbation", "optimal", "simple"]);
    for setup in setups {
        let optimal = run(setup, Algorithm::Optimal, n, trials)?;
        let simple = run(setup, Algorithm::Simple, n, trials)?;
        table.row([
            setup.label(),
            format!("{}%", fmt_f64(optimal * 100.0, 0)),
            format!("{}%", fmt_f64(simple * 100.0, 0)),
        ]);
    }
    println!("{table}");
    println!("expected shape: both near 100% at baseline; the optimal algorithm degrades");
    println!("under noise/delays (it needs exact counts and lockstep cycles) while the");
    println!("simple algorithm stays high — the paper's Section 6 robustness claim");
    Ok(())
}
