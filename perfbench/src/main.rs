//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (`colony-16k`, `catalog-trials`, `optimal-4096`)
//! for `--seconds`, prints every metric by name with its unit, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` the
//! per-layer metrics, writing its spans to `traces/<workload>.csv`
//! beside this crate. `--tiny` shrinks every input for the self-test.
//! Exits 1 when an output check fails, 2 on a usage error.

use std::process::ExitCode;

use perfbench::json::result_line;
use perfbench::workload::Options;
use perfbench::{trace_path, traced, untraced};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]";

struct Args {
    workload: String,
    options: Options,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        options: Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            threads,
            tiny,
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let options = &args.options;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        options.seed,
        options.seconds,
        u8::from(args.trace),
        options.threads
    );
    let result = if args.trace {
        traced::run(&args.workload, options, &trace_path(&args.workload))
    } else {
        untraced::run(&args.workload, options)
    };
    let report = match result {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for metric in &report.metrics {
        println!("{:<24} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    for mismatch in &report.mismatches {
        eprintln!("perfbench: check failed: {mismatch}");
    }
    let line = result_line(&report);
    println!("{line}");
    if line.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
