//! # hh_lint — the workspace determinism-and-soundness analyzer
//!
//! The engine's headline guarantee is that a trial's outcome is a pure
//! function of `(scenario, seed)` — bit-identical at any
//! `round_threads`, any trial-worker count, on any machine. That
//! guarantee is what makes every cached `TrialOutcome` valid forever,
//! and it rests on source-level invariants that the type system cannot
//! express. This crate machine-checks them.
//!
//! ## The determinism contract
//!
//! 1. **No unsafe** (`unsafe-confinement`): the `unsafe` keyword
//!    appears in no file, test code included, and every crate root
//!    forbids unsafe code outright (rule 9). The round workers borrow
//!    their chunks inside `std::thread::scope` instead.
//! 2. **No order-unstable state** (`hash-container`): engine crates
//!    (`hh-model`, `hh-core`, `hh-sim`) never touch `HashMap`/`HashSet`
//!    outside test code — their iteration order is randomized per
//!    process, so any escape into outcomes breaks cross-run
//!    reproducibility even serially.
//! 3. **No wall clock** (`wall-clock`): engine crates never read
//!    `Instant`/`SystemTime` outside test code. Timing belongs to
//!    `hh-bench`, never to anything that can steer a simulation.
//! 4. **No ambient randomness** (`ambient-randomness`): every draw
//!    comes from a stream derived via `hh_model::seeding::derive_seed`;
//!    `thread_rng`/`from_entropy`/`OsRng` never appear, test code
//!    included.
//! 5. **No per-thread state** (`thread-local`): engine crates declare
//!    no `thread_local!` outside test code. Per-thread state is the
//!    easiest way to make outcomes depend on how many round threads or
//!    trial workers run, and on which of them steps which ant. The one
//!    waived use is a pure memo keyed on every input of the value it
//!    caches, which returns the same bits on any thread.
//! 6. **Per-ant streams on the round workers** (`shared-stream`):
//!    chunk-phase code — everything that runs on the intra-round round
//!    workers — may draw only from the per-ant streams
//!    (`StreamKind::AgentEnvironment`, `StreamKind::AgentNoise`). A
//!    shared-stream draw there would make outcomes depend on ant
//!    processing order, which is exactly what `round_threads`
//!    determinism forbids.
//! 7. **Confined row draws** (`raw-row-draw`): the executor's shared
//!    round bodies never draw a per-row coin inline. Every agent coin
//!    is drawn inside the agents' own state machines (the urn ants'
//!    `recruit_draw`), which the fast path and the scalar oracle call
//!    identically. The rule covers both hazard classes: a stateful
//!    `.random_bool(...)`-style call would desynchronize a row's
//!    stream from the oracle's, and an ad-hoc keyed
//!    `.coin(...)`/`.word(...)` call would duplicate the draw-site
//!    logic (probability clamp, counter convention) and silently
//!    diverge from the scalar oracle the first time either copy
//!    changes.
//! 8. **Audited atomics** (`atomic-ordering`): every `Ordering::` use
//!    in the round workers' phase handshake and the lock-free trial
//!    runner sits on an explicit
//!    per-file allowlist and carries a `// ordering:` justification
//!    comment, so the memory-ordering protocol stays reviewable.
//! 9. **Conformant crate roots** (`lint-header`): crate roots carry the
//!    agreed preamble (`#![forbid(unsafe_code)]`,
//!    `#![warn(missing_docs)]`,
//!    `#![warn(missing_debug_implementations)]`).
//!
//! Rules 2–7 accept an explicit, reviewable waiver: a comment
//! `// hh-lint: allow(<rule>) — <reason>` on the flagged line or the
//! comment block directly above it. Rules 1, 8, and 9 are unwaivable;
//! changing them means editing the policy tables in [`rules`].
//!
//! The analyzer is deliberately zero-dependency and lexical: a small
//! comment/string-aware lexer ([`lexer`]) tokenizes each file, and the
//! rules ([`rules`]) match token patterns scoped by path, `#[cfg(test)]`
//! regions, and chunk-type `impl` blocks. That is coarser than a full
//! semantic analysis (a type alias could smuggle a `HashMap` past rule
//! 2) but has no false negatives on direct use, zero build cost, and no
//! shared failure modes with the code it audits.
//!
//! ## Invocation
//!
//! The crate is a library with one caller: the `workspace_tree_is_clean`
//! test in `crates/lint/tests/lint_rules.rs` calls
//! [`lint_workspace`]`(&`[`default_root`]`())` and fails, printing each
//! [`Diagnostic`] as `path:line: [rule] message`, unless the tree is
//! clean. The crate is a default workspace member, so the tier-1
//! `cargo test -q` runs it; alone:
//!
//! ```text
//! cargo test -p hh_lint
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::Diagnostic;
pub use rules::lint_source;

use std::path::{Path, PathBuf};

/// Directory names never descended into during the workspace walk.
/// `vendor/` holds third-party shims outside the repo's authorship (and
/// thus its invariants); `tests/fixtures/` holds deliberate violations.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "node_modules"];

/// Collects every lintable `.rs` file under `root`, repo-relative with
/// forward slashes, sorted (the walk itself must be deterministic —
/// `read_dir` order is OS-dependent).
///
/// # Errors
///
/// Returns the first I/O error encountered while walking.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                let is_fixture_dir =
                    name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests");
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') || is_fixture_dir {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints the whole workspace rooted at `root`; returns
/// `(checked_file_count, diagnostics)` with diagnostics sorted by
/// (path, line, rule).
///
/// # Errors
///
/// Returns the first I/O error (unreadable tree); individual files that
/// vanish mid-walk are reported as diagnostics, not errors.
pub fn lint_workspace(root: &Path) -> std::io::Result<(usize, Vec<Diagnostic>)> {
    let files = workspace_files(root)?;
    let mut diags = Vec::new();
    for rel in &files {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(source) => diags.extend(lint_source(rel, &source)),
            Err(err) => diags.push(Diagnostic::new(
                "unreadable-file",
                rel,
                1,
                format!("could not read file: {err}"),
            )),
        }
    }
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok((files.len(), diags))
}

/// The compiled-in workspace root (two levels above this crate's
/// manifest), so the lint works from any working directory.
#[must_use]
pub fn default_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_skips_vendor_target_and_fixtures() {
        let files = workspace_files(&default_root()).unwrap();
        assert!(files.iter().any(|f| f == "crates/sim/src/handshake.rs"));
        assert!(files.iter().any(|f| f == "src/lib.rs"));
        assert!(!files.iter().any(|f| f.starts_with("vendor/")));
        assert!(!files.iter().any(|f| f.starts_with("target/")));
        assert!(!files.iter().any(|f| f.contains("tests/fixtures/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk output must be deterministic");
    }
}
