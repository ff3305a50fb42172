//! The workspace gate and the rule set's fixture conformance.
//!
//! `workspace_tree_is_clean` lints every `.rs` file of the repository;
//! it is the only caller of [`lint_workspace`], and through it a rule
//! violation anywhere in the tree fails tier-1's `cargo test -q`.
//!
//! Every fixture under `tests/fixtures/` deliberately violates exactly
//! one rule (or none), and each must produce exactly its expected
//! diagnostics — rule id, line, and nothing else. The fixtures directory
//! is excluded from the workspace walk precisely so these violations can
//! exist in-tree.

use hh_lint::{default_root, lint_source, lint_workspace};

#[test]
fn workspace_tree_is_clean() {
    let (checked, diags) = lint_workspace(&default_root()).expect("walk the workspace");
    assert!(checked > 0, "the workspace walk found no .rs files");
    let report: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        diags.is_empty(),
        "hh_lint: {} violation(s) in {checked} files:\n{}",
        diags.len(),
        report.join("\n")
    );
}

/// Reads a fixture and lints it under a virtual repo path (rule scoping
/// is path-driven).
fn lint_fixture(fixture: &str, virtual_path: &str) -> Vec<(String, u32)> {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    lint_source(virtual_path, &source)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

#[test]
fn stray_unsafe_is_confined() {
    let diags = lint_fixture("stray_unsafe.rs", "crates/core/src/colony.rs");
    assert_eq!(diags, vec![("unsafe-confinement".to_string(), 8)]);
}

#[test]
fn stray_unsafe_is_flagged_in_the_sim_crate_too() {
    for path in ["crates/sim/src/handshake.rs", "crates/sim/src/executor.rs"] {
        let diags = lint_fixture("stray_unsafe.rs", path);
        assert_eq!(diags, vec![("unsafe-confinement".to_string(), 8)], "{path}");
    }
}

#[test]
fn hash_containers_are_flagged_in_engine_crates() {
    let diags = lint_fixture("hash_iteration.rs", "crates/model/src/nest.rs");
    assert_eq!(
        diags,
        vec![
            ("hash-container".to_string(), 5),
            ("hash-container".to_string(), 7),
        ]
    );
}

#[test]
fn hash_containers_are_fine_outside_the_engine() {
    let diags = lint_fixture("hash_iteration.rs", "crates/analysis/src/stats.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_reads_are_flagged() {
    let diags = lint_fixture("wall_clock.rs", "crates/sim/src/metrics.rs");
    assert_eq!(
        diags,
        vec![
            ("wall-clock".to_string(), 3),
            ("wall-clock".to_string(), 6),
            ("wall-clock".to_string(), 7),
        ]
    );
}

#[test]
fn ambient_randomness_is_flagged_even_in_tests() {
    let diags = lint_fixture("ambient_rng.rs", "crates/core/src/agent.rs");
    assert_eq!(
        diags,
        vec![
            ("ambient-randomness".to_string(), 4),
            ("ambient-randomness".to_string(), 14),
        ]
    );
}

#[test]
fn thread_locals_are_flagged_in_engine_non_test_code() {
    let diags = lint_fixture("thread_local.rs", "crates/core/src/adaptive.rs");
    assert_eq!(diags, vec![("thread-local".to_string(), 5)]);
    let diags = lint_fixture("thread_local.rs", "crates/bench/src/experiments/common.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn shared_stream_draws_in_chunk_impls_are_flagged() {
    let diags = lint_fixture("shared_stream_chunk.rs", "crates/model/src/env.rs");
    assert_eq!(diags, vec![("shared-stream".to_string(), 12)]);
}

#[test]
fn every_shared_stream_is_flagged_in_chunk_phase_files() {
    // As executor.rs the whole file is chunk-phase: the constructor's
    // draw on line 19 is now also in scope.
    let diags = lint_fixture("shared_stream_chunk.rs", "crates/sim/src/executor.rs");
    assert_eq!(
        diags,
        vec![
            ("shared-stream".to_string(), 12),
            ("shared-stream".to_string(), 19),
        ]
    );
}

#[test]
fn every_raw_row_draw_is_flagged_in_chunk_phase_files() {
    // The executor holds the shared round bodies: an inline stateful
    // draw anywhere in its non-test code is flagged.
    let diags = lint_fixture("raw_row_draw.rs", "crates/sim/src/executor.rs");
    assert_eq!(
        diags,
        vec![
            ("raw-row-draw".to_string(), 12),
            ("raw-row-draw".to_string(), 17),
        ]
    );
    // The agents draw their own coins: the rule is scoped to the
    // executor.
    let diags = lint_fixture("raw_row_draw.rs", "crates/core/src/simple.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn every_keyed_row_draw_is_flagged_in_chunk_phase_files() {
    // The counter-based draws are the second hazard class: an ad-hoc
    // keyed `.coin`/`.word` call in the executor forks the draw-site
    // logic away from the agents' single implementation.
    let diags = lint_fixture("keyed_row_draw.rs", "crates/sim/src/executor.rs");
    assert_eq!(
        diags,
        vec![
            ("raw-row-draw".to_string(), 13),
            ("raw-row-draw".to_string(), 17),
            ("raw-row-draw".to_string(), 22),
        ]
    );
    let diags = lint_fixture("keyed_row_draw.rs", "crates/core/src/simple.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unlisted_ordering_is_flagged_despite_justification() {
    let diags = lint_fixture("unlisted_ordering.rs", "crates/sim/src/handshake.rs");
    assert_eq!(diags, vec![("atomic-ordering".to_string(), 8)]);
}

#[test]
fn missing_ordering_justification_is_flagged() {
    let diags = lint_fixture("missing_justification.rs", "crates/sim/src/runner.rs");
    assert_eq!(diags, vec![("atomic-ordering".to_string(), 9)]);
}

#[test]
fn orderings_outside_audited_files_are_not_flagged() {
    let diags = lint_fixture("missing_justification.rs", "crates/sim/src/convergence.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn bad_crate_root_header_is_flagged() {
    let diags = lint_fixture("bad_header.rs", "crates/rumor/src/lib.rs");
    assert_eq!(
        diags,
        vec![
            ("lint-header".to_string(), 1),
            ("lint-header".to_string(), 1),
        ]
    );
}

#[test]
fn waiver_with_reason_silences_a_determinism_rule() {
    let diags = lint_fixture("waived.rs", "crates/core/src/colony.rs");
    assert!(diags.is_empty(), "waiver must apply: {diags:?}");
}

#[test]
fn clean_fixture_is_clean_everywhere() {
    for path in [
        "crates/model/src/census.rs",
        "crates/sim/src/executor.rs",
        "crates/analysis/src/table.rs",
    ] {
        let diags = lint_fixture("clean.rs", path);
        assert!(
            diags.is_empty(),
            "clean fixture flagged at {path}: {diags:?}"
        );
    }
}
