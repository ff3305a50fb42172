//! A small comment- and string-aware Rust lexer.
//!
//! The rules in this crate match *token* patterns (`unsafe`,
//! `Ordering :: SeqCst`, `StreamKind :: Environment`, …), so the lexer's
//! only job is to split source text into identifiers, punctuation,
//! literals, and comments without ever confusing the three classes: the
//! word `unsafe` inside a doc comment or a string literal must not trip
//! the unsafe-confinement rule, and a `{` inside a char literal must not
//! derail brace matching. It is not a full Rust lexer — shebangs, raw
//! identifiers, and exotic literal suffixes are handled just well enough
//! to never misclassify a comment or string boundary.
//!
//! Comments are kept (with their line spans) because two rules read
//! them: the atomic-ordering audit requires a `// ordering:`
//! justification next to every `Ordering::` use, and the waiver
//! mechanism recognizes `hh-lint: allow(<rule>)` markers.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `HashMap`, `foo`).
    Ident,
    /// A single punctuation character (`:`, `{`, `#`, …).
    Punct,
    /// A string or byte-string literal, raw or not.
    Str,
    /// A char or byte literal.
    Char,
    /// A numeric literal (possibly with a type suffix).
    Number,
    /// A lifetime (`'a`), including the quote.
    Lifetime,
}

/// One code token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Token text as spelled in the source; a literal keeps its quotes
    /// and prefix, since no rule reads a literal's contents.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// One comment (line or block, doc or plain) with its line span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (equal to `line` for `//`).
    pub end_line: u32,
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
    /// `true` if nothing but whitespace precedes the comment on its
    /// first line — i.e. the comment owns the line rather than trailing
    /// code. Justification/waiver lookup walks upward only over
    /// own-line comments.
    pub own_line: bool,
}

/// A lexed source file: code tokens plus comments, both in order.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens (comments and whitespace stripped).
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// `true` if some comment touching `line` (trailing or own-line) or
    /// the contiguous run of own-line comments directly above `line`
    /// contains `needle`. This is the attachment rule for both
    /// `// ordering:` justifications and `hh-lint: allow(...)` waivers.
    pub fn attached_comment_contains(&self, line: u32, needle: &str) -> bool {
        // Trailing (or wrapping block) comment on the same line.
        if self
            .comments
            .iter()
            .any(|c| c.line <= line && line <= c.end_line && c.text.contains(needle))
        {
            return true;
        }
        // Walk upward over own-line comments immediately above.
        let mut cursor = line;
        loop {
            let Some(above) = self
                .comments
                .iter()
                .find(|c| c.own_line && c.end_line + 1 == cursor)
            else {
                return false;
            };
            if above.text.contains(needle) {
                return true;
            }
            cursor = above.line;
        }
    }
}

/// Lexes `source` into tokens and comments. Never fails: on malformed
/// input (unterminated string, stray byte) it degrades to per-character
/// punctuation tokens, which at worst produces an extra diagnostic —
/// never a silently skipped file.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    // Does any non-whitespace token/comment precede the current column
    // on this line? (Tracks the `own_line` flag for comments.)
    let mut line_has_code = false;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            line_has_code = false;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            out.comments.push(Comment {
                line,
                end_line: line,
                text: chars[start..i].iter().collect(),
                own_line: !line_has_code,
            });
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            let own_line = !line_has_code;
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            out.comments.push(Comment {
                line: start_line,
                end_line: line,
                text: chars[start..i].iter().collect(),
                own_line,
            });
            line_has_code = true; // code may follow `*/` on this line
        } else if c == '"' || (c == 'b' && chars.get(i + 1) == Some(&'"')) {
            // A string or byte string: scan to the closing quote; a
            // backslash escapes the next char.
            let start = i;
            i += if c == 'b' { 2 } else { 1 };
            while i < chars.len() && chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            i = (i + 1).min(chars.len());
            let text: String = chars[start..i].iter().collect();
            let newlines = text.matches('\n').count() as u32;
            out.tokens.push(Token {
                kind: TokenKind::Str,
                text,
                line,
            });
            line += newlines;
            line_has_code = true;
        } else if c == '\'' {
            // Char literal or lifetime. A char literal is 'x' or an
            // escape '\..'; anything else ('a, 'static) is a lifetime.
            if chars.get(i + 1) == Some(&'\\') {
                let start = i;
                i += 2; // quote + backslash
                if i < chars.len() {
                    i += 1; // the escaped char (or x/u introducer)
                }
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
                i += 1; // closing quote
                out.tokens.push(Token {
                    kind: TokenKind::Char,
                    text: chars[start..i.min(chars.len())].iter().collect(),
                    line,
                });
            } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                out.tokens.push(Token {
                    kind: TokenKind::Char,
                    text: chars[i..i + 3].iter().collect(),
                    line,
                });
                i += 3;
            } else {
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            line_has_code = true;
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            // Raw string prefixes: r"..", r#".."#, br"..", br#".."#.
            let is_raw_prefix = matches!(ident.as_str(), "r" | "br");
            if is_raw_prefix && matches!(chars.get(i), Some('"') | Some('#')) {
                let mut hashes = 0usize;
                let mut j = i;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if chars.get(j) == Some(&'"') {
                    // Raw string: scan to `"` + hashes; no escapes.
                    let content_start = j + 1;
                    let mut k = content_start;
                    let mut newlines = 0u32;
                    'scan: while k < chars.len() {
                        if chars[k] == '\n' {
                            newlines += 1;
                        }
                        if chars[k] == '"' {
                            let mut h = 0usize;
                            while chars.get(k + 1 + h) == Some(&'#') {
                                h += 1;
                            }
                            if h >= hashes {
                                break 'scan;
                            }
                        }
                        k += 1;
                    }
                    i = (k + 1 + hashes).min(chars.len());
                    out.tokens.push(Token {
                        kind: TokenKind::Str,
                        text: chars[start..i].iter().collect(),
                        line,
                    });
                    line += newlines;
                } else {
                    // `r#ident` raw identifier: emit the ident without
                    // consuming the hashes specially.
                    out.tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: ident,
                        line,
                    });
                }
            } else if ident == "b" && chars.get(i) == Some(&'\'') {
                // Byte literal b'x': delegate to the char branch by
                // emitting nothing and letting the quote be re-scanned.
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: ident,
                    line,
                });
            } else {
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: ident,
                    line,
                });
            }
            line_has_code = true;
        } else if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Number,
                text: chars[start..i].iter().collect(),
                line,
            });
            line_has_code = true;
        } else {
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
            line_has_code = true;
        }
    }
    out
}

/// Returns the 1-based inclusive line ranges covered by `#[cfg(test)]`
/// items (in this workspace: always `mod tests { … }` blocks). Found by
/// matching the attribute token sequence, then brace-matching the next
/// block; an attribute followed by a `;` before any `{` covers a
/// single-line item instead.
pub fn cfg_test_regions(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_attr = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !is_attr {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let mut j = i + 7;
        // Find the item's opening brace (or terminating semicolon).
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            j += 1;
        }
        if j >= toks.len() || toks[j].text == ";" {
            let end = toks.get(j).map_or(start_line, |t| t.line);
            regions.push((start_line, end));
            i = j + 1;
            continue;
        }
        let close = match_brace(toks, j);
        regions.push((start_line, toks[close.min(toks.len() - 1)].line));
        i = close + 1;
    }
    regions
}

/// Returns the line ranges of `impl … <Type> … { … }` blocks whose
/// pre-brace tokens mention any identifier in `types` (e.g. the
/// chunk-phase view type `AntChunk`).
pub fn impl_regions(lexed: &Lexed, types: &[&str]) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i].text == "impl" {
            let mut j = i + 1;
            let mut hit = false;
            while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                if toks[j].kind == TokenKind::Ident && types.contains(&toks[j].text.as_str()) {
                    hit = true;
                }
                j += 1;
            }
            if hit && j < toks.len() && toks[j].text == "{" {
                let close = match_brace(toks, j);
                regions.push((toks[i].line, toks[close.min(toks.len() - 1)].line));
                i = close + 1;
                continue;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

/// Index of the `}` matching the `{` at `open` (or the last token on
/// unbalanced input — malformed files degrade, they don't panic).
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0isize;
    for (k, tok) in toks.iter().enumerate().skip(open) {
        if tok.kind == TokenKind::Punct {
            match tok.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_keywords() {
        let src = r##"
// unsafe in a line comment
/* unsafe in a /* nested */ block */
let s = "unsafe in a string";
let e = "an escaped \" quote, then unsafe";
let r = r#"unsafe in a raw string"#;
let ok = true;
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()), "ids: {ids:?}");
        assert!(ids.contains(&"ok".to_string()));
    }

    #[test]
    fn byte_strings_end_at_their_closing_quote() {
        // An escaped quote inside `b"…"` does not end the literal, so the
        // code after it stays visible to the rules.
        let ids = idents(r#"let b = b"a\"b"; unsafe { f() }"#);
        assert!(ids.contains(&"unsafe".to_string()), "ids: {ids:?}");
        // Its contents stay hidden, and a raw byte string has no escapes.
        let ids = idents(r#"let b = b"unsafe \" unsafe"; let r = br"a\"; ok"#);
        assert_eq!(ids, ["let", "b", "let", "r", "ok"]);
    }

    #[test]
    fn real_unsafe_is_a_token() {
        let ids = idents("unsafe { core::ptr::null::<u8>(); }");
        assert_eq!(ids.iter().filter(|t| *t == "unsafe").count(), 1);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "'x'");
    }

    #[test]
    fn braces_in_literals_do_not_break_matching() {
        let src = "mod m { const A: char = '{'; const B: &str = \"}}}\"; fn f() {} }";
        let lexed = lex(src);
        let opens = lexed.tokens.iter().filter(|t| t.text == "{").count();
        let closes = lexed.tokens.iter().filter(|t| t.text == "}").count();
        assert_eq!(opens, closes);
        assert_eq!(opens, 2);
    }

    #[test]
    fn token_lines_are_tracked() {
        let lexed = lex("a\n\nb /* c\nd */ e");
        let a = &lexed.tokens[0];
        let b = &lexed.tokens[1];
        let e = &lexed.tokens[2];
        assert_eq!((a.line, b.line, e.line), (1, 3, 4));
        assert_eq!(lexed.comments[0].line, 3);
        assert_eq!(lexed.comments[0].end_line, 4);
    }

    #[test]
    fn cfg_test_region_spans_the_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}\n";
        let lexed = lex(src);
        assert_eq!(cfg_test_regions(&lexed), vec![(2, 5)]);
    }

    #[test]
    fn impl_region_finds_named_types() {
        let src = "impl<'a> Foo<'a> {\n fn a() {}\n}\nimpl Bar {\n fn b() {}\n}\n";
        let lexed = lex(src);
        assert_eq!(impl_regions(&lexed, &["Bar"]), vec![(4, 6)]);
    }

    #[test]
    fn attached_comment_walks_upward() {
        let src = "// ordering: top\n// more\nlet x = 1; // trailing\nlet y = 2;\n";
        let lexed = lex(src);
        assert!(lexed.attached_comment_contains(3, "ordering:"));
        assert!(lexed.attached_comment_contains(3, "trailing"));
        assert!(!lexed.attached_comment_contains(4, "ordering:"));
    }

    #[test]
    fn own_line_flag_distinguishes_trailing_comments() {
        let src = "let x = 1; // trailing\n// own\nlet y = 2;\n";
        let lexed = lex(src);
        assert!(!lexed.comments[0].own_line);
        assert!(lexed.comments[1].own_line);
    }
}
