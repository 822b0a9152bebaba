//! Diagnostic report: violations, suppressions, the unsafe inventory, and a
//! hand-rolled JSON encode/decode pair for the `--json` surface.
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

    /// Parse a report back from its JSON form. Accepts exactly the shape
    /// [`to_json`](Self::to_json) emits (any whitespace); used by the
    /// round-trip test and by external validators that want structured
    /// access without a JSON library.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object()?;
        let mut report = Report {
            files_scanned: obj.get("files_scanned")?.as_usize()?,
            ..Report::default()
        };
        for r in obj.get("rules")?.as_array()? {
            let r = r.as_object()?;
            report.rules.push(RuleInfo {
                code: r.get("code")?.as_str()?,
                name: r.get("name")?.as_str()?,
                description: r.get("description")?.as_str()?,
            });
        }
        for v in obj.get("violations")?.as_array()? {
            let v = v.as_object()?;
            report.violations.push(Diagnostic {
                code: v.get("code")?.as_str()?,
                rule: v.get("rule")?.as_str()?,
                file: v.get("file")?.as_str()?,
                line: v.get("line")?.as_usize()?,
                snippet: v.get("snippet")?.as_str()?,
                message: v.get("message")?.as_str()?,
            });
        }
        for s in obj.get("suppressions")?.as_array()? {
            let s = s.as_object()?;
            report.suppressions.push(Suppression {
                rule: s.get("rule")?.as_str()?,
                file: s.get("file")?.as_str()?,
                line: s.get("line")?.as_usize()?,
                reason: s.get("reason")?.as_str()?,
            });
        }
        for u in obj.get("unsafe_inventory")?.as_array()? {
            let u = u.as_object()?;
            report.unsafe_inventory.push(UnsafeSite {
                file: u.get("file")?.as_str()?,
                line: u.get("line")?.as_usize()?,
                has_safety: u.get("has_safety")?.as_bool()?,
            });
        }
        let clean = obj.get("clean")?.as_bool()?;
        if clean != report.is_clean() {
            return Err("clean flag disagrees with violations list".into());
        }
        Ok(report)
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

/// Minimal JSON value — just enough to parse what [`Report::to_json`] emits
/// (objects, arrays, strings, unsigned integers, booleans).
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    Num(u64),
    Bool(bool),
}

struct JsonObj<'a>(&'a [(String, Json)]);

impl<'a> JsonObj<'a> {
    fn get(&self, key: &str) -> Result<&'a Json, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    }
}

impl Json {
    fn as_object(&self) -> Result<JsonObj<'_>, String> {
        match self {
            Json::Object(fields) => Ok(JsonObj(fields)),
            _ => Err("expected object".into()),
        }
    }
    fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            _ => Err("expected array".into()),
        }
    }
    fn as_str(&self) -> Result<String, String> {
        match self {
            Json::Str(s) => Ok(s.clone()),
            _ => Err("expected string".into()),
        }
    }
    fn as_usize(&self) -> Result<usize, String> {
        match self {
            Json::Num(n) => Ok(*n as usize),
            _ => Err("expected number".into()),
        }
    }
    fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected bool".into()),
        }
    }

    fn parse(text: &str) -> Result<Json, String> {
        let chars: Vec<char> = text.chars().collect();
        let mut pos = 0usize;
        let value = Self::parse_value(&chars, &mut pos)?;
        Self::skip_ws(&chars, &mut pos);
        if pos != chars.len() {
            return Err(format!("trailing garbage at offset {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(chars: &[char], pos: &mut usize) {
        while chars
            .get(*pos)
            .is_some_and(|c| matches!(c, ' ' | '\t' | '\n' | '\r'))
        {
            *pos += 1;
        }
    }

    fn parse_value(chars: &[char], pos: &mut usize) -> Result<Json, String> {
        Self::skip_ws(chars, pos);
        match chars.get(*pos) {
            Some('{') => {
                *pos += 1;
                let mut fields = Vec::new();
                Self::skip_ws(chars, pos);
                if chars.get(*pos) == Some(&'}') {
                    *pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    Self::skip_ws(chars, pos);
                    let key = Self::parse_string(chars, pos)?;
                    Self::skip_ws(chars, pos);
                    if chars.get(*pos) != Some(&':') {
                        return Err(format!("expected ':' at offset {pos}"));
                    }
                    *pos += 1;
                    let value = Self::parse_value(chars, pos)?;
                    fields.push((key, value));
                    Self::skip_ws(chars, pos);
                    match chars.get(*pos) {
                        Some(',') => *pos += 1,
                        Some('}') => {
                            *pos += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                    }
                }
            }
            Some('[') => {
                *pos += 1;
                let mut items = Vec::new();
                Self::skip_ws(chars, pos);
                if chars.get(*pos) == Some(&']') {
                    *pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(Self::parse_value(chars, pos)?);
                    Self::skip_ws(chars, pos);
                    match chars.get(*pos) {
                        Some(',') => *pos += 1,
                        Some(']') => {
                            *pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                    }
                }
            }
            Some('"') => Ok(Json::Str(Self::parse_string(chars, pos)?)),
            Some('t') => Self::parse_lit(chars, pos, "true", Json::Bool(true)),
            Some('f') => Self::parse_lit(chars, pos, "false", Json::Bool(false)),
            Some(c) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(d) = chars.get(*pos).and_then(|c| c.to_digit(10)) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(d)))
                        .ok_or("number overflow")?;
                    *pos += 1;
                }
                Ok(Json::Num(n))
            }
            other => Err(format!("unexpected {other:?} at offset {pos}")),
        }
    }

    fn parse_lit(chars: &[char], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
        for expected in lit.chars() {
            if chars.get(*pos) != Some(&expected) {
                return Err(format!("bad literal at offset {pos}"));
            }
            *pos += 1;
        }
        Ok(value)
    }

    fn parse_string(chars: &[char], pos: &mut usize) -> Result<String, String> {
        if chars.get(*pos) != Some(&'"') {
            return Err(format!("expected string at offset {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match chars.get(*pos) {
                Some('"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    *pos += 1;
                    match chars.get(*pos) {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('/') => out.push('/'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                *pos += 1;
                                let d = chars
                                    .get(*pos)
                                    .and_then(|c| c.to_digit(16))
                                    .ok_or("bad \\u escape")?;
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(c) => {
                    out.push(*c);
                    *pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
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
                message: "iteration over HashMap `map`".into(),
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
    fn json_round_trips() {
        let report = sample();
        let parsed = Report::from_json(&report.to_json()).expect("parse back");
        assert_eq!(parsed, report);
    }

    #[test]
    fn empty_report_round_trips_and_is_clean() {
        let report = Report::default();
        assert!(report.is_clean());
        let json = report.to_json();
        assert!(json.contains("\"clean\": true"));
        assert_eq!(Report::from_json(&json).unwrap(), report);
    }

    #[test]
    fn escapes_survive() {
        let s = "tab\t \"quoted\" back\\slash\nnewline \u{1}";
        let json = json_str(s);
        let parsed = Json::parse(&json).unwrap().as_str().unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn clean_flag_is_cross_checked() {
        let mut json = sample().to_json();
        json = json.replace("\"clean\": false", "\"clean\": true");
        assert!(Report::from_json(&json).is_err());
    }
}
