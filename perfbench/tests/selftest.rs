//! Self-test: every workload, at a tiny size, prints every metric that
//! `BENCHMARK.json` names, with its unit, as a parseable result line,
//! and passes its output checks.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use perfbench::json::{parse, Value};
use perfbench::trace_path;
use perfbench::workload::NAMES;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` metric list.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .get(key)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list} entry has a string {key}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary; returns (exit success, stdout).
fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("spawn the benchmark");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("UTF-8 output"),
    )
}

fn check_result(workload: &str, trace: &str, stdout: &str, expected: &[(String, String)]) {
    let last = stdout.lines().last().expect("some output");
    let result = parse(last).unwrap_or_else(|e| panic!("{workload}: last line is JSON: {e}"));
    let keys: Vec<&str> = result
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(name, _)| name.as_str()).collect();
    let (mut printed_sorted, mut wanted_sorted) = (printed.clone(), wanted.clone());
    printed_sorted.sort_unstable();
    wanted_sorted.sort_unstable();
    assert_eq!(printed_sorted, wanted_sorted, "{workload} --trace {trace}");
    for (name, unit) in expected {
        let metric = result.get("metrics").and_then(|m| m.get(name)).unwrap();
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload} --trace {trace}: {name} = {value:?}"
        );
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str())
        );
        // The human-readable table names the metric with its unit too.
        assert!(
            stdout
                .lines()
                .any(|line| line.starts_with(name.as_str()) && line.ends_with(unit.as_str())),
            "{workload}: no table row for {name}"
        );
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let spec = benchmark_json();
    let listed: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(listed, NAMES);
}

#[test]
fn every_workload_prints_every_metric() {
    let spec = benchmark_json();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    for workload in NAMES {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let (ok, stdout) = run(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--tiny",
            ]);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            check_result(workload, trace, &stdout, expected);
        }
        let spans = std::fs::read_to_string(trace_path(workload)).expect("trace written");
        assert!(spans.lines().count() > 1, "{workload}: no spans written");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "colony-16k",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "colony-16k", "--seed", "1", "--seconds", "1"][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} should fail");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
