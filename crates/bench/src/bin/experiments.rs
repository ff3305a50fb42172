//! The experiment runner: regenerates every figure/table of
//! `EXPERIMENTS.md`.
//!
//! ```text
//! experiments [--quick | --full] [--index] [IDS...]
//! ```
//!
//! With no ids, runs the full registry in order and prints a T1 summary
//! table of all findings at the end. Exit code is 0 if every finding
//! passed, 1 otherwise, and 2 if an argument is neither a flag nor a
//! known id (ids are case-insensitive).

use std::time::Instant;

use hh_analysis::Table;
use hh_bench::{all_experiments, experiments_index_markdown, ExperimentReport, Mode};

const USAGE: &str =
    "usage: experiments [--quick | --full] [--index] [IDS...]   (e.g. experiments --quick F3 F5)";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// Print the usage line.
    Help,
    /// Print the EXPERIMENTS.md registry index, for regeneration.
    Index,
    /// Run the selected experiments (upper-cased ids; none selects all).
    Run { mode: Mode, ids: Vec<String> },
}

/// Parses the arguments after the program name against the `known`
/// experiment ids. Every argument that is neither a flag nor a known id
/// lands in the error, in command-line order.
fn parse_args(args: &[String], known: &[&str]) -> Result<Command, Vec<String>> {
    let (mut mode, mut help, mut index) = (Mode::Full, false, false);
    let mut ids = Vec::new();
    let mut unknown = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--quick" => mode = Mode::Quick,
            "--full" => mode = Mode::Full,
            "--index" => index = true,
            "--help" | "-h" => help = true,
            other => {
                let id = other.to_ascii_uppercase();
                if known.contains(&id.as_str()) {
                    ids.push(id);
                } else {
                    unknown.push(other.to_string());
                }
            }
        }
    }
    if !unknown.is_empty() {
        Err(unknown)
    } else if help {
        Ok(Command::Help)
    } else if index {
        Ok(Command::Index)
    } else {
        Ok(Command::Run { mode, ids })
    }
}

// The harness times each experiment for the progress report — a
// legitimate wall-clock read outside the engine's determinism contract
// (clippy.toml mirrors the hh_lint `wall-clock` rule).
#[allow(clippy::disallowed_methods)]
fn main() {
    let registry = all_experiments();
    let known: Vec<&str> = registry.iter().map(|e| e.id).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, selected) = match parse_args(&args, &known) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Ok(Command::Index) => {
            print!("{}", experiments_index_markdown());
            return;
        }
        Ok(Command::Run { mode, ids }) => (mode, ids),
        Err(unknown) => {
            eprintln!("unknown arguments: {}", unknown.join(" "));
            eprintln!("{USAGE}\nknown ids:");
            for e in &registry {
                eprintln!("  {}  {}", e.id, e.title);
            }
            std::process::exit(2);
        }
    };
    let to_run: Vec<_> = registry
        .iter()
        .filter(|e| selected.is_empty() || selected.iter().any(|s| s == e.id))
        .collect();

    println!(
        "house-hunting experiment harness ({} mode, {} experiments)\n",
        if mode == Mode::Quick { "quick" } else { "full" },
        to_run.len()
    );

    let mut reports: Vec<ExperimentReport> = Vec::new();
    for experiment in to_run {
        let start = Instant::now();
        println!("=== {}: {} ===", experiment.id, experiment.title);
        let report = (experiment.run)(mode);
        println!("{}", report.body);
        for finding in &report.findings {
            println!(
                "  [{}] {} — {}",
                if finding.pass { "PASS" } else { "FAIL" },
                finding.claim,
                finding.measured
            );
        }
        println!("  ({:.1}s)\n", start.elapsed().as_secs_f64());
        reports.push(report);
    }

    // T1: the summary table.
    println!("=== T1: summary — paper claims vs measurements ===");
    let mut table = Table::new(["id", "status", "claim", "measured"]);
    let mut failures = 0;
    for report in &reports {
        for finding in &report.findings {
            if !finding.pass {
                failures += 1;
            }
            table.row([
                report.id.to_string(),
                if finding.pass { "PASS" } else { "FAIL" }.to_string(),
                finding.claim.clone(),
                finding.measured.clone(),
            ]);
        }
    }
    println!("{table}");
    if failures > 0 {
        println!("{failures} finding(s) FAILED");
        std::process::exit(1);
    }
    println!("all findings passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, Vec<String>> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_args(&args, &["F2", "F3", "T2"])
    }

    #[test]
    fn every_unknown_id_and_flag_is_named() {
        assert_eq!(parse(&["--quick", "F2", "F99"]), Err(vec!["F99".into()]));
        assert_eq!(parse(&["--quik", "F2"]), Err(vec!["--quik".into()]));
        assert_eq!(
            parse(&["f99", "--index", "-x", "t2"]),
            Err(vec!["f99".into(), "-x".into()])
        );
    }

    #[test]
    fn flags_and_known_ids_parse() {
        assert_eq!(
            parse(&[]),
            Ok(Command::Run {
                mode: Mode::Full,
                ids: Vec::new()
            })
        );
        assert_eq!(
            parse(&["f3", "--quick", "T2"]),
            Ok(Command::Run {
                mode: Mode::Quick,
                ids: vec!["F3".into(), "T2".into()]
            })
        );
        assert_eq!(
            parse(&["--quick", "--full", "F2"]),
            Ok(Command::Run {
                mode: Mode::Full,
                ids: vec!["F2".into()]
            })
        );
        assert_eq!(parse(&["--index", "F2"]), Ok(Command::Index));
        assert_eq!(parse(&["--quick", "-h"]), Ok(Command::Help));
    }
}
