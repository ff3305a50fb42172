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
//! known id (ids are case-insensitive). `--help` and `--index` exit 0.
//!
//! Output goes through one locked stdout and stops at the first write
//! that fails, such as when the reader closes the pipe
//! (`experiments --quick | head -1`). A run cut short that way exits 1,
//! since it did not show every finding passing; `--help` and `--index`
//! still exit 0, and any other write error is reported on stderr and
//! exits 1.

use std::io::{self, Write};
use std::time::Instant;

use hh_analysis::Table;
use hh_bench::{all_experiments, experiments_index_markdown, Experiment, ExperimentReport, Mode};

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = execute(
        &args,
        &all_experiments(),
        &mut io::stdout().lock(),
        &mut io::stderr().lock(),
    );
    std::process::exit(code);
}

/// Carries out the command line `args` against `registry`, writing the
/// report to `out` and errors to `err`, and returns the exit code the
/// module docs state.
fn execute(
    args: &[String],
    registry: &[Experiment],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> i32 {
    let known: Vec<&str> = registry.iter().map(|e| e.id).collect();
    match parse_args(args, &known) {
        Err(unknown) => {
            // Nothing is left to report if stderr is closed too.
            let _ = write_usage_error(err, &unknown, registry);
            2
        }
        Ok(Command::Help) => {
            let written = writeln!(out, "{USAGE}").and_then(|()| out.flush());
            exit_code(written.map(|()| 0), 0, err)
        }
        Ok(Command::Index) => {
            let written =
                write!(out, "{}", experiments_index_markdown()).and_then(|()| out.flush());
            exit_code(written.map(|()| 0), 0, err)
        }
        Ok(Command::Run { mode, ids }) => {
            let written = run(out, registry, mode, &ids);
            exit_code(written.map(|all_passed| i32::from(!all_passed)), 1, err)
        }
    }
}

/// The exit code of output that ended in `written`: its own code once it
/// is all written, `cut_short` if the reader closed the pipe first, and 1
/// after reporting any other write error on `err`.
fn exit_code(written: io::Result<i32>, cut_short: i32, err: &mut dyn Write) -> i32 {
    match written {
        Ok(code) => code,
        Err(error) if error.kind() == io::ErrorKind::BrokenPipe => cut_short,
        Err(error) => {
            // Nothing is left to report if stderr fails too.
            let _ = writeln!(err, "experiments: cannot write the report: {error}");
            1
        }
    }
}

/// Names every unknown argument, then the usage line and the known ids.
fn write_usage_error(
    err: &mut dyn Write,
    unknown: &[String],
    registry: &[Experiment],
) -> io::Result<()> {
    writeln!(err, "unknown arguments: {}", unknown.join(" "))?;
    writeln!(err, "{USAGE}\nknown ids:")?;
    for e in registry {
        writeln!(err, "  {}  {}", e.id, e.title)?;
    }
    err.flush()
}

/// Runs the experiments of `registry` whose ids are in `selected` (all
/// if it is empty), writing each report and then the T1 summary to
/// `out`. Returns whether every finding passed, or the first write
/// error, at which the run stops.
// The harness times each experiment for the progress report — a
// legitimate wall-clock read outside the engine's determinism contract
// (clippy.toml mirrors the hh_lint `wall-clock` rule).
#[allow(clippy::disallowed_methods)]
fn run(
    out: &mut dyn Write,
    registry: &[Experiment],
    mode: Mode,
    selected: &[String],
) -> io::Result<bool> {
    let to_run: Vec<_> = registry
        .iter()
        .filter(|e| selected.is_empty() || selected.iter().any(|s| s == e.id))
        .collect();

    writeln!(
        out,
        "house-hunting experiment harness ({} mode, {} experiments)\n",
        if mode == Mode::Quick { "quick" } else { "full" },
        to_run.len()
    )?;

    let mut reports: Vec<ExperimentReport> = Vec::new();
    for experiment in to_run {
        let start = Instant::now();
        writeln!(out, "=== {}: {} ===", experiment.id, experiment.title)?;
        let report = (experiment.run)(mode);
        writeln!(out, "{}", report.body)?;
        for finding in &report.findings {
            writeln!(
                out,
                "  [{}] {} — {}",
                if finding.pass { "PASS" } else { "FAIL" },
                finding.claim,
                finding.measured
            )?;
        }
        writeln!(out, "  ({:.1}s)\n", start.elapsed().as_secs_f64())?;
        reports.push(report);
    }

    // T1: the summary table.
    writeln!(out, "=== T1: summary — paper claims vs measurements ===")?;
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
    writeln!(out, "{table}")?;
    if failures > 0 {
        writeln!(out, "{failures} finding(s) FAILED")?;
    } else {
        writeln!(out, "all findings passed")?;
    }
    out.flush()?;
    Ok(failures == 0)
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

    /// A sink that takes `room` bytes, then fails every write with `kind`.
    struct FailingSink {
        room: usize,
        kind: io::ErrorKind,
    }

    impl FailingSink {
        /// A pipe whose reader goes away after a few bytes.
        fn closed_pipe() -> Self {
            Self {
                room: 8,
                kind: io::ErrorKind::BrokenPipe,
            }
        }
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(self.kind.into());
            }
            let taken = buf.len().min(self.room);
            self.room -= taken;
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn execute_with(args: &[&str], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        execute(&args, &all_experiments(), out, err)
    }

    #[test]
    fn a_closed_pipe_ends_each_path_with_its_exit_code() {
        let code = |args: &[&str]| {
            let mut out = FailingSink::closed_pipe();
            let mut err = FailingSink::closed_pipe();
            execute_with(args, &mut out, &mut err)
        };
        assert_eq!(code(&["--help"]), 0);
        assert_eq!(code(&["--index"]), 0);
        assert_eq!(code(&["--quick", "F99"]), 2);
        // The header overflows the sink, so the run stops before F2 starts.
        assert_eq!(code(&["--quick", "F2"]), 1);
    }

    #[test]
    fn any_other_write_error_is_reported_and_exits_1() {
        let mut out = FailingSink {
            room: 8,
            kind: io::ErrorKind::Other,
        };
        let mut err = Vec::new();
        assert_eq!(execute_with(&["--index"], &mut out, &mut err), 1);
        let message = String::from_utf8(err).unwrap();
        assert!(
            message.starts_with("experiments: cannot write"),
            "{message}"
        );
    }
}
