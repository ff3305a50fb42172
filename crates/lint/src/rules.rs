//! The repo-specific rule set. See the crate docs for the determinism
//! contract each rule encodes; this module is the machine-checkable
//! half of that contract.

use crate::lexer::{cfg_test_regions, impl_regions, lex, Lexed, TokenKind};
use crate::report::Diagnostic;

/// Crates whose sources feed deterministic simulation state. The
/// determinism lints (hash containers, wall clock, ambient randomness)
/// apply to non-test code in these path prefixes.
pub const ENGINE_PREFIXES: [&str; 3] = ["crates/model/src/", "crates/core/src/", "crates/sim/src/"];

/// Files whose *entire* non-test body runs on (or hands work to) the
/// intra-round round workers.
pub const CHUNK_PHASE_FILES: [&str; 1] = ["crates/sim/src/executor.rs"];

/// Types whose `impl` blocks are chunk-phase code wherever they live:
/// the per-ant chunk round workers iterate in parallel. Their impls
/// must draw only from per-ant randomness.
pub const CHUNK_PHASE_TYPES: [&str; 1] = ["AntChunk"];

/// Method names that advance an RNG stream on their receiver. A call to
/// one of these inside the executor's shared round bodies is raw
/// per-row RNG access: it desynchronizes the row's stream from the
/// scalar oracle's.
pub const RAW_DRAW_METHODS: [&str; 6] = [
    "random_bool",
    "random_range",
    "random_ratio",
    "next_u32",
    "next_u64",
    "fill_bytes",
];

/// Method names of the counter-based `DrawKey` API
/// (`hh_model::seeding::DrawKey::coin`/`word`). Keyed draws are pure —
/// they cannot desynchronize a stream — but an ad-hoc call inside the
/// executor duplicates the agents' draw site's logic (probability
/// clamp, round-as-counter convention) and diverges from the scalar
/// oracle the first time either copy changes, so the executor may not
/// make them either.
pub const KEYED_DRAW_METHODS: [&str; 2] = ["coin", "word"];

/// The only `StreamKind` variants chunk-phase code may draw from: one
/// stream per ant, so outcomes cannot depend on ant processing order.
pub const PER_ANT_STREAMS: [&str; 2] = ["AgentEnvironment", "AgentNoise"];

/// Per-file allowlists for the atomic-ordering audit: every
/// `Ordering::<variant>` token in these files must use a listed variant
/// *and* carry an attached `// ordering:` justification comment.
pub const ORDERING_ALLOWLIST: [(&str, &[&str]); 2] = [
    // The round workers' phase handshake is pure release/acquire
    // publication (plus one relaxed counter reset that a release store
    // publishes); SeqCst would paper over a misunderstanding.
    (
        "crates/sim/src/handshake.rs",
        &["Acquire", "Release", "Relaxed"],
    ),
    // The trial runner needs acquire/release only for the abort flag;
    // the work-stealing cursor is intentionally relaxed.
    (
        "crates/sim/src/runner.rs",
        &["Acquire", "Release", "Relaxed"],
    ),
];

/// Rules a `hh-lint: allow(<rule>)` comment may waive. Soundness rules
/// (unsafe confinement, ordering audit, headers) are deliberately
/// unwaivable: changing those is a policy edit in this file, reviewed
/// as such.
pub const WAIVABLE_RULES: [&str; 6] = [
    "hash-container",
    "wall-clock",
    "ambient-randomness",
    "thread-local",
    "shared-stream",
    "raw-row-draw",
];

/// Lints one file's source as if it lived at repo-relative `path`
/// (forward slashes). The path decides which rules apply; fixture tests
/// use virtual paths to exercise every rule.
#[must_use]
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let mut diags = Vec::new();
    let test_regions = cfg_test_regions(&lexed);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| a <= line && line <= b);
    let waived = |rule: &str, line: u32| {
        WAIVABLE_RULES.contains(&rule)
            && lexed.attached_comment_contains(line, &format!("hh-lint: allow({rule})"))
    };
    let is_engine = ENGINE_PREFIXES.iter().any(|p| path.starts_with(p));

    unsafe_confinement(path, &lexed, &mut diags);
    lint_header(path, &lexed, &mut diags);
    if is_engine {
        determinism(path, &lexed, &in_test, &waived, &mut diags);
        shared_stream(path, &lexed, &in_test, &waived, &mut diags);
        raw_row_draw(path, &lexed, &in_test, &waived, &mut diags);
    }
    ordering_audit(path, &lexed, &in_test, &mut diags);
    diags
}

/// Rule `unsafe-confinement`: the `unsafe` keyword may appear in no
/// file (test code included — there is no such thing as test-only
/// unsafety).
fn unsafe_confinement(path: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    for tok in &lexed.tokens {
        if tok.kind == TokenKind::Ident && tok.text == "unsafe" {
            diags.push(Diagnostic::new(
                "unsafe-confinement",
                path,
                tok.line,
                "`unsafe` is forbidden in this workspace; make the code safe".to_string(),
            ));
        }
    }
}

/// Rule `lint-header`: every crate root (`crates/*/src/lib.rs` and the
/// facade `src/lib.rs`) carries the agreed preamble —
/// `#![forbid(unsafe_code)]`, `#![warn(missing_docs)]`, and
/// `#![warn(missing_debug_implementations)]`.
fn lint_header(path: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    let is_crate_root =
        path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    let required: [(&str, &str); 3] = [
        ("forbid", "unsafe_code"),
        ("warn", "missing_docs"),
        ("warn", "missing_debug_implementations"),
    ];
    for (level, lint) in required {
        if !has_inner_attr(lexed, level, lint) {
            diags.push(Diagnostic::new(
                "lint-header",
                path,
                1,
                format!(
                    "crate root is missing `#![{level}({lint})]` from the agreed lint preamble"
                ),
            ));
        }
    }
}

/// Matches the inner-attribute token sequence `# ! [ level ( lint ) ]`.
fn has_inner_attr(lexed: &Lexed, level: &str, lint: &str) -> bool {
    let toks = &lexed.tokens;
    toks.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == level
            && w[4].text == "("
            && w[5].text == lint
            && w[6].text == ")"
            && w[7].text == "]"
    })
}

/// Rules `hash-container`, `wall-clock`, `ambient-randomness`,
/// `thread-local`: engine crates must not use order-unstable
/// containers, read the wall clock, draw ambient (unseeded) randomness,
/// or keep per-thread state in non-test code. Test code is exempt from
/// all but ambient randomness: a test asserting uniqueness via
/// `HashSet` leaks no iteration order into outcomes, but an unseeded
/// test is unreproducible by construction.
fn determinism(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    for tok in &lexed.tokens {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let (rule, message): (&str, String) = match tok.text.as_str() {
            "HashMap" | "HashSet" if !in_test(tok.line) => (
                "hash-container",
                format!(
                    "`{}` iteration order is randomized per process; deterministic paths \
                     must use `BTreeMap`/`BTreeSet`, a `Vec`, or the crate's flat bitsets",
                    tok.text
                ),
            ),
            "Instant" | "SystemTime" if !in_test(tok.line) => (
                "wall-clock",
                format!(
                    "`{}` reads the wall clock; engine outcomes must be a function of \
                     (config, seed) only — time benchmarks belong in hh-bench",
                    tok.text
                ),
            ),
            "thread_local" if !in_test(tok.line) => (
                "thread-local",
                "`thread_local!` state is per thread, so what it holds can depend on \
                 how ants and trials are spread over threads; only a pure memo keyed \
                 on every input of the value it caches may waive this"
                    .to_string(),
            ),
            "thread_rng" | "ThreadRng" | "from_entropy" | "OsRng" => (
                "ambient-randomness",
                format!(
                    "`{}` is ambient randomness; every engine draw must come from a \
                     stream derived via `seeding::derive_seed`",
                    tok.text
                ),
            ),
            _ => continue,
        };
        if !waived(rule, tok.line) {
            diags.push(Diagnostic::new(rule, path, tok.line, message));
        }
    }
}

/// Rule `shared-stream`: inside chunk-phase code (the whole body of
/// [`CHUNK_PHASE_FILES`], and `impl` blocks of [`CHUNK_PHASE_TYPES`]
/// anywhere in the engine), only per-ant streams may be named. A draw
/// from a shared stream inside code that runs on the round workers
/// would make outcomes depend on ant processing order — exactly the bug
/// class the per-ant stream split exists to rule out.
fn shared_stream(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    let whole_file = CHUNK_PHASE_FILES.contains(&path);
    let impl_spans = impl_regions(lexed, &CHUNK_PHASE_TYPES);
    let in_chunk_scope =
        |line: u32| whole_file || impl_spans.iter().any(|&(a, b)| a <= line && line <= b);

    let toks = &lexed.tokens;
    for w in toks.windows(4) {
        let is_stream_path = w[0].kind == TokenKind::Ident
            && w[0].text == "StreamKind"
            && w[1].text == ":"
            && w[2].text == ":"
            && w[3].kind == TokenKind::Ident;
        if !is_stream_path {
            continue;
        }
        let variant = w[3].text.as_str();
        let line = w[0].line;
        if PER_ANT_STREAMS.contains(&variant) || !in_chunk_scope(line) || in_test(line) {
            continue;
        }
        if !waived("shared-stream", line) {
            diags.push(Diagnostic::new(
                "shared-stream",
                path,
                line,
                format!(
                    "`StreamKind::{variant}` is a shared stream; chunk-phase code running \
                     on the round workers may draw only from the per-ant streams \
                     (`StreamKind::AgentEnvironment`, `StreamKind::AgentNoise`)"
                ),
            ));
        }
    }
}

/// Rule `raw-row-draw`: the executor's shared round bodies (the whole
/// body of [`CHUNK_PHASE_FILES`]) must not evaluate per-row draws
/// inline. Every agent coin is drawn inside the agents' own state
/// machines (`hh_core`), which both engines call identically. Two
/// hazard classes, one confinement: a stateful [`RAW_DRAW_METHODS`]
/// call desynchronizes a row's stream from the oracle's (or
/// double-draws it) the moment the pass is split across workers, and
/// an ad-hoc keyed [`KEYED_DRAW_METHODS`] call forks the draw-site
/// logic (probability clamp, round-as-counter convention) away from
/// the agents' single implementation.
fn raw_row_draw(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    if !CHUNK_PHASE_FILES.contains(&path) {
        return;
    }
    let toks = &lexed.tokens;
    for w in toks.windows(2) {
        if w[0].kind != TokenKind::Punct || w[0].text != "." || w[1].kind != TokenKind::Ident {
            continue;
        }
        let method = w[1].text.as_str();
        let stateful = RAW_DRAW_METHODS.contains(&method);
        if !stateful && !KEYED_DRAW_METHODS.contains(&method) {
            continue;
        }
        let line = w[1].line;
        if in_test(line) {
            continue;
        }
        if !waived("raw-row-draw", line) {
            let message = if stateful {
                format!(
                    "`.{method}(...)` advances an RNG stream inline inside the executor's \
                     round bodies; agent coins are drawn only inside the agents' own state \
                     machines, so every row's stream advances in the scalar oracle's order"
                )
            } else {
                format!(
                    "`.{method}(...)` evaluates a keyed draw inline inside the executor's \
                     round bodies; counter draws are confined to the agents' own state \
                     machines so the draw-site logic (probability clamp, round-as-counter \
                     convention) has exactly one implementation"
                )
            };
            diags.push(Diagnostic::new("raw-row-draw", path, line, message));
        }
    }
}

/// Rule `atomic-ordering`: every `Ordering::<variant>` token in the
/// audited files must use an allowlisted variant and carry an attached
/// `// ordering:` justification comment (same line, or the own-line
/// comment block directly above). Test code is exempt — test counters
/// are not part of the synchronization protocol under audit.
fn ordering_audit(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    let Some((_, allowed)) = ORDERING_ALLOWLIST.iter().find(|(p, _)| *p == path) else {
        return;
    };
    let toks = &lexed.tokens;
    for w in toks.windows(4) {
        let is_ordering_path = w[0].kind == TokenKind::Ident
            && w[0].text == "Ordering"
            && w[1].text == ":"
            && w[2].text == ":"
            && w[3].kind == TokenKind::Ident;
        if !is_ordering_path {
            continue;
        }
        let variant = w[3].text.as_str();
        let line = w[0].line;
        if in_test(line) {
            continue;
        }
        if !allowed.contains(&variant) {
            diags.push(Diagnostic::new(
                "atomic-ordering",
                path,
                line,
                format!(
                    "`Ordering::{variant}` is not on the audited allowlist for {path} \
                     (allowed: {}); extend the allowlist in hh_lint with a review, or use \
                     a listed ordering",
                    allowed.join(", ")
                ),
            ));
        } else if !lexed.attached_comment_contains(line, "ordering:") {
            diags.push(Diagnostic::new(
                "atomic-ordering",
                path,
                line,
                format!(
                    "`Ordering::{variant}` has no attached `// ordering:` justification \
                     comment; every ordering in the audited files must say why it is \
                     sufficient"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_engine_source_is_clean() {
        let src = "//! Docs.\nfn f(x: u64) -> u64 { x + 1 }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn non_engine_crates_may_use_hash_containers() {
        let src = "use std::collections::HashMap;\nfn f() { let _m: HashMap<u8, u8> = HashMap::new(); }\n";
        assert!(lint_source("crates/analysis/src/x.rs", src).is_empty());
        assert_eq!(lint_source("crates/model/src/x.rs", src).len(), 3);
    }

    #[test]
    fn the_sim_root_must_forbid() {
        let preamble = "#![warn(missing_docs)]\n#![warn(missing_debug_implementations)]\n";
        let forbid = format!("#![forbid(unsafe_code)]\n{preamble}");
        assert!(lint_source("crates/sim/src/lib.rs", &forbid).is_empty());
        let deny = format!("#![deny(unsafe_code)]\n{preamble}");
        let diags = lint_source("crates/sim/src/lib.rs", &deny);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("#![forbid(unsafe_code)]"));
    }

    #[test]
    fn waiver_requires_the_exact_rule_name() {
        let waived = "// hh-lint: allow(hash-container) — census scratch, drained sorted\nuse std::collections::HashMap;\n";
        let wrong = "// hh-lint: allow(wall-clock)\nuse std::collections::HashMap;\n";
        assert!(lint_source("crates/core/src/x.rs", waived).is_empty());
        assert_eq!(lint_source("crates/core/src/x.rs", wrong).len(), 1);
    }

    #[test]
    fn unsafe_is_not_waivable() {
        let src = "// hh-lint: allow(unsafe-confinement)\nunsafe fn f() {}\n";
        assert_eq!(lint_source("crates/core/src/x.rs", src).len(), 1);
    }
}
