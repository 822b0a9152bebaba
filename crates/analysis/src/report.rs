//! Diagnostic report: violations, suppressions, the unsafe inventory, and a
//! hand-rolled JSON encoder for the `--json` surface.
//!
//! The JSON shape is versioned and flat so CI validators (and future tooling)
//! can consume it without a schema registry:
//!
//! ```json
//! {
//!   "tool": "orthrus-analysis",
//!   "version": 1,
//!   "files_scanned": 42,
//!   "rules": [{"code": "ORT001", "name": "nondet-iter", "description": "…"}],
//!   "violations": [{"code": "ORT001", "rule": "nondet-iter",
//!                   "file": "crates/sim/src/engine.rs", "line": 17,
//!                   "snippet": "for (k, v) in &map {", "message": "…"}],
//!   "suppressions": [{"rule": "nondet-iter", "file": "…", "line": 3,
//!                     "reason": "commutative min-merge"}],
//!   "unsafe_inventory": [{"file": "…", "line": 9, "has_safety": true}],
//!   "clean": true
//! }
//! ```
//!
//! Everything is sorted by `(file, line)` before emission so the report is a
//! deterministic function of the source tree — the analyzer holds itself to
//! the same standard it enforces.

use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code, e.g. `ORT001`.
    pub code: String,
    /// Rule name, e.g. `nondet-iter`.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line the violation sits on.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}\n    {}",
            self.file, self.line, self.code, self.rule, self.message, self.snippet
        )
    }
}

/// A matched `// orthrus: allow(<rule>): <reason>` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub reason: String,
}

/// One `unsafe` occurrence, whether or not it carries a `SAFETY:` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    pub file: String,
    pub line: usize,
    pub has_safety: bool,
}

/// A rule's identity for the report header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleInfo {
    pub code: String,
    pub name: String,
    pub description: String,
}

/// The full analysis result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub files_scanned: usize,
    pub rules: Vec<RuleInfo>,
    pub violations: Vec<Diagnostic>,
    pub suppressions: Vec<Suppression>,
    pub unsafe_inventory: Vec<UnsafeSite>,
}

impl Report {
    /// No unsuppressed violations remain.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Sort every section by `(file, line, code)` so output is deterministic.
    pub fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, &a.code).cmp(&(&b.file, b.line, &b.code)));
        self.suppressions
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.unsafe_inventory
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Serialize to the versioned JSON shape.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"tool\": \"orthrus-analysis\",\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"rules\": [\n");
        for (i, r) in self.rules.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"code\": {}, \"name\": {}, \"description\": {}}}{}\n",
                json_str(&r.code),
                json_str(&r.name),
                json_str(&r.description),
                comma(i, self.rules.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"code\": {}, \"rule\": {}, \"file\": {}, \"line\": {}, \"snippet\": {}, \"message\": {}}}{}\n",
                json_str(&v.code),
                json_str(&v.rule),
                json_str(&v.file),
                v.line,
                json_str(&v.snippet),
                json_str(&v.message),
                comma(i, self.violations.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"suppressions\": [\n");
        for (i, s) in self.suppressions.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}{}\n",
                json_str(&s.rule),
                json_str(&s.file),
                s.line,
                json_str(&s.reason),
                comma(i, self.suppressions.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"unsafe_inventory\": [\n");
        for (i, u) in self.unsafe_inventory.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"has_safety\": {}}}{}\n",
                json_str(&u.file),
                u.line,
                u.has_safety,
                comma(i, self.unsafe_inventory.len())
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"clean\": {}\n", self.is_clean()));
        out.push_str("}\n");
        out
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// Escape a string for JSON output.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut report = Report {
            files_scanned: 3,
            rules: vec![RuleInfo {
                code: "ORT001".into(),
                name: "nondet-iter".into(),
                description: "order-dependent iteration".into(),
            }],
            violations: vec![Diagnostic {
                code: "ORT001".into(),
                rule: "nondet-iter".into(),
                file: "crates/sim/src/engine.rs".into(),
                line: 42,
                snippet: "for (k, v) in &map { \"quote\\path\" }".into(),
                message: "iteration over HashMap `map`\tat\r\n\u{1}".into(),
            }],
            suppressions: vec![Suppression {
                rule: "wall-clock".into(),
                file: "crates/types/src/profiling.rs".into(),
                line: 7,
                reason: "single sanctioned doorway".into(),
            }],
            unsafe_inventory: vec![UnsafeSite {
                file: "crates/sim/src/x.rs".into(),
                line: 33,
                has_safety: true,
            }],
        };
        report.sort();
        report
    }

    #[test]
    fn to_json_emits_the_pinned_text() {
        assert_eq!(
            sample().to_json(),
            r#"{
  "tool": "orthrus-analysis",
  "version": 1,
  "files_scanned": 3,
  "rules": [
    {"code": "ORT001", "name": "nondet-iter", "description": "order-dependent iteration"}
  ],
  "violations": [
    {"code": "ORT001", "rule": "nondet-iter", "file": "crates/sim/src/engine.rs", "line": 42, "snippet": "for (k, v) in &map { \"quote\\path\" }", "message": "iteration over HashMap `map`\tat\r\n\u0001"}
  ],
  "suppressions": [
    {"rule": "wall-clock", "file": "crates/types/src/profiling.rs", "line": 7, "reason": "single sanctioned doorway"}
  ],
  "unsafe_inventory": [
    {"file": "crates/sim/src/x.rs", "line": 33, "has_safety": true}
  ],
  "clean": false
}
"#
        );
        assert_eq!(
            Report::default().to_json(),
            r#"{
  "tool": "orthrus-analysis",
  "version": 1,
  "files_scanned": 0,
  "rules": [
  ],
  "violations": [
  ],
  "suppressions": [
  ],
  "unsafe_inventory": [
  ],
  "clean": true
}
"#
        );
    }
}
