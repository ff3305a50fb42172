//! Diagnostics: one rule violation each, printed as `path:line: [rule] message`.

/// One finding: a rule violation at a file:line span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Kebab-case rule id (`unsafe-confinement`, `atomic-ordering`, …).
    pub rule: &'static str,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(rule: &'static str, path: &str, line: u32, message: impl Into<String>) -> Self {
        Self {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_path_line_rule() {
        let d = Diagnostic::new("r", "a/b.rs", 3, "msg");
        assert_eq!(d.to_string(), "a/b.rs:3: [r] msg");
    }
}
