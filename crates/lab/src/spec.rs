//! The `.orth` experiment-spec format: a zero-dependency, line-oriented
//! `key = value` notation for scenarios and sweep grids.
//!
//! # Grammar
//!
//! ```text
//! file     := line*
//! line     := blank | comment | kv | section
//! comment  := '#' <anything>                 (full-line only)
//! section  := '[' name ']'                   (scenario | base | axes | full_scale)
//! kv       := key '=' value                  (key: [a-z0-9_]+, value: to end of line)
//! ```
//!
//! Top-level keys (before any section): `kind` (`scenario` | `sweep`),
//! `name`, `title` (optional), `x_axis` (sweeps, optional).
//!
//! A `kind = scenario` file holds one `[scenario]` section; a `kind = sweep`
//! file holds a `[base]` section (scenario defaults), an `[axes]` section
//! whose entries form a cartesian grid (first axis outermost), and an
//! optional `[full_scale]` section of overrides applied when lowering at
//! [`crate::SpecScale::Full`].
//!
//! A [`Spec`] keeps each section as its `key = value` entries in file order,
//! and each axis as its key plus its value items. It holds no typed copy of
//! the scenario: what a key means lives in one place, the key table of
//! [`crate::lower`]. The parser checks every entry by applying it to a
//! scratch point through that table, so a bad value fails at parse time with
//! its line.
//!
//! `parse(serialize(spec)) == spec` for every valid spec: the same entries
//! come back in the same order (a seeded-loop property test pins this).
//! Comments and blank lines are lost, and an integer range on an axis
//! (`seed = 1..=5`) is written back as its expanded list.

use crate::lower::{axis_items, Point, AXES};
use std::fmt;
use std::fmt::Write as _;

/// A parse or lowering error, with the 1-based source line when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number in the spec source, if the error is positional.
    pub line: Option<usize>,
    /// Human-readable description.
    pub msg: String,
}

impl SpecError {
    pub(crate) fn at(line: usize, msg: impl Into<String>) -> Self {
        Self {
            line: Some(line),
            msg: msg.into(),
        }
    }

    pub(crate) fn general(msg: impl Into<String>) -> Self {
        Self {
            line: None,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for orthrus_types::OrthrusError {
    fn from(err: SpecError) -> Self {
        orthrus_types::OrthrusError::Config(format!("spec error: {err}"))
    }
}

/// One experiment spec: a single scenario (`kind = scenario`) or a sweep
/// grid (`kind = sweep`), kept as its entries in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub(crate) sweep: bool,
    pub(crate) name: String,
    pub(crate) title: Option<String>,
    pub(crate) x_axis: Option<String>,
    /// The `[scenario]` or `[base]` entries.
    pub(crate) base: Vec<(String, String)>,
    /// The `[axes]`: each key with its value items, first axis outermost.
    pub(crate) axes: Vec<(String, Vec<String>)>,
    /// The `[full_scale]` entries.
    pub(crate) full_scale: Vec<(String, String)>,
}

impl Spec {
    /// The spec's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The human-readable title, if one is set.
    pub fn title(&self) -> Option<&str> {
        self.title.as_deref()
    }

    /// `"scenario"` or `"sweep"`.
    pub fn kind(&self) -> &'static str {
        if self.sweep {
            "sweep"
        } else {
            "scenario"
        }
    }

    /// The key that provides each point's x value, if the spec names one
    /// (points fall back to their replica count).
    pub fn x_axis(&self) -> Option<&str> {
        self.x_axis.as_deref()
    }
}

/// Parse one `.orth` document into a [`Spec`].
pub fn parse(text: &str) -> Result<Spec, SpecError> {
    let mut spec = Spec {
        sweep: false,
        name: String::new(),
        title: None,
        x_axis: None,
        base: Vec::new(),
        axes: Vec::new(),
        full_scale: Vec::new(),
    };
    let (mut kind, mut name): (Option<String>, Option<String>) = (None, None);
    let mut kind_line = 0;
    let mut sections: Vec<&str> = Vec::new();
    let mut full_scale_lines = Vec::new();
    let mut scratch = Point::new(None);

    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(inner) = trimmed.strip_prefix('[') {
            let section = inner
                .strip_suffix(']')
                .ok_or_else(|| {
                    SpecError::at(line, format!("unterminated section header {trimmed:?}"))
                })?
                .trim();
            if !["scenario", "base", "axes", "full_scale"].contains(&section) {
                return Err(SpecError::at(line, format!("unknown section [{section}]")));
            }
            if sections.contains(&section) {
                return Err(SpecError::at(
                    line,
                    format!("duplicate [{section}] section"),
                ));
            }
            sections.push(section);
            continue;
        }
        let (key, value) = trimmed.split_once('=').ok_or_else(|| {
            SpecError::at(line, format!("expected `key = value`, got {trimmed:?}"))
        })?;
        let (key, value) = (key.trim(), value.trim());
        let at = |msg: String| SpecError::at(line, msg);
        let has_key = |entries: &[(String, String)]| entries.iter().any(|(k, _)| k == key);
        match sections.last().copied() {
            None => {
                let slot = match key {
                    "kind" => &mut kind,
                    "name" => &mut name,
                    "title" => &mut spec.title,
                    "x_axis" => &mut spec.x_axis,
                    other => {
                        return Err(at(format!(
                            "unknown top-level key {other:?} (kind|name|title|x_axis)"
                        )));
                    }
                };
                if slot.is_some() {
                    return Err(at(format!("duplicate key {key:?}")));
                }
                match key {
                    "kind" => kind_line = line,
                    "name"
                        if value.is_empty()
                            || !value.chars().all(|c| {
                                c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'
                            }) =>
                    {
                        return Err(at(format!("name {value:?} must be non-empty [a-z0-9_]+")));
                    }
                    "x_axis" if !AXES.contains(&value) => {
                        return Err(at(format!("unknown x_axis {value:?}")));
                    }
                    "x_axis" if value == "protocol" => {
                        return Err(at(format!("x_axis = {value} is not numeric")));
                    }
                    _ => {}
                }
                *slot = Some(value.to_string());
            }
            Some("scenario" | "base") => {
                if has_key(&spec.base) {
                    return Err(at(format!("duplicate key {key:?}")));
                }
                scratch.apply(key, value, false).map_err(at)?;
                spec.base.push((key.to_string(), value.to_string()));
            }
            Some("axes") => {
                if !AXES.contains(&key) {
                    return Err(at(format!(
                        "unknown axis {key:?} (known axes: {})",
                        AXES.join(", ")
                    )));
                }
                if spec.axes.iter().any(|(k, _)| k == key) {
                    return Err(at(format!("duplicate axis {key:?}")));
                }
                let items = axis_items(key, value, &mut scratch).map_err(at)?;
                spec.axes.push((key.to_string(), items));
            }
            Some(_) => {
                if has_key(&spec.full_scale) {
                    return Err(at(format!("duplicate full_scale override {key:?}")));
                }
                spec.full_scale.push((key.to_string(), value.to_string()));
                full_scale_lines.push(line);
            }
        }
    }

    // An override replaces an axis's items or a base entry; check it as
    // whichever it will be.
    for ((key, value), line) in spec.full_scale.iter().zip(full_scale_lines) {
        let checked = if spec.axes.iter().any(|(k, _)| k == key) {
            axis_items(key, value, &mut scratch).map(drop)
        } else {
            scratch.apply(key, value, false)
        };
        checked
            .map_err(|msg| SpecError::at(line, format!("full_scale override {key:?}: {msg}")))?;
    }

    spec.name = name.ok_or_else(|| SpecError::general("missing top-level `name`"))?;
    let kind =
        kind.ok_or_else(|| SpecError::general("missing top-level `kind` (scenario|sweep)"))?;
    // Each wrong section layout, and whether it is the `kind` line's fault.
    let has = |section: &str| sections.contains(&section);
    let (at_kind, msg) = match kind.as_str() {
        "scenario" if has("base") || has("axes") || has("full_scale") || spec.x_axis.is_some() => (
            true,
            "kind = scenario admits only a [scenario] section".into(),
        ),
        "scenario" if !has("scenario") => {
            (false, "kind = scenario needs a [scenario] section".into())
        }
        "sweep" if has("scenario") => (true, "kind = sweep uses [base], not [scenario]".into()),
        "sweep" if !has("base") => (false, "kind = sweep needs a [base] section".into()),
        "sweep" if spec.axes.is_empty() => {
            let msg = "kind = sweep needs an [axes] section with at least one axis";
            (false, msg.into())
        }
        "scenario" | "sweep" => {
            spec.sweep = kind == "sweep";
            return Ok(spec);
        }
        other => (true, format!("unknown kind {other:?} (scenario|sweep)")),
    };
    let line = at_kind.then_some(kind_line);
    Err(SpecError { line, msg })
}

/// Serialize a [`Spec`] into its canonical `.orth` text: its entries in
/// order, one per line. [`parse`] reads it back to an equal spec.
pub fn serialize(spec: &Spec) -> String {
    let mut out = format!("kind = {}\nname = {}\n", spec.kind(), spec.name);
    if let Some(title) = &spec.title {
        let _ = writeln!(out, "title = {title}");
    }
    if let Some(x_axis) = &spec.x_axis {
        let _ = writeln!(out, "x_axis = {x_axis}");
    }
    let section = if spec.sweep { "base" } else { "scenario" };
    let _ = write!(out, "\n[{section}]\n");
    for (key, value) in &spec.base {
        let _ = writeln!(out, "{key} = {value}");
    }
    if spec.sweep {
        out.push_str("\n[axes]\n");
        for (key, items) in &spec.axes {
            let _ = writeln!(out, "{key} = {}", items.join(", "));
        }
    }
    if !spec.full_scale.is_empty() {
        out.push_str("\n[full_scale]\n");
        for (key, value) in &spec.full_scale {
            let _ = writeln!(out, "{key} = {value}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_sim::faults::CrashRecoverSpec;
    use orthrus_types::{ReplicaId, SimTime};

    const SCENARIO_DOC: &str = "\
# a comment\n\
kind = scenario\n\
name = tiny\n\
title = Tiny smoke scenario\n\
\n\
[scenario]\n\
protocol = orthrus\n\
network = lan\n\
replicas = 4\n\
transactions = 120\n\
accounts = 32\n\
seed = 7\n";

    fn entries(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parses_a_scenario_spec() {
        let spec = parse(SCENARIO_DOC).expect("parse");
        assert_eq!(spec.kind(), "scenario");
        assert_eq!(spec.name(), "tiny");
        assert_eq!(spec.title(), Some("Tiny smoke scenario"));
        assert_eq!(
            spec.base,
            entries(&[
                ("protocol", "orthrus"),
                ("network", "lan"),
                ("replicas", "4"),
                ("transactions", "120"),
                ("accounts", "32"),
                ("seed", "7"),
            ])
        );
    }

    #[test]
    fn parses_a_sweep_spec_with_axes_in_order() {
        let doc = "\
kind = sweep\n\
name = grid\n\
x_axis = replicas\n\
\n\
[base]\n\
network = wan\n\
payment_share = 0.46\n\
stragglers = 0x10\n\
\n\
[axes]\n\
replicas = 4, 8, 16\n\
protocol = orthrus, iss\n\
\n\
[full_scale]\n\
replicas = 8, 16, 32\n\
transactions = 200000\n";
        let spec = parse(doc).expect("parse");
        assert_eq!(spec.kind(), "sweep");
        assert_eq!(spec.x_axis(), Some("replicas"));
        let axes: Vec<(&str, usize)> = spec
            .axes
            .iter()
            .map(|(key, items)| (key.as_str(), items.len()))
            .collect();
        assert_eq!(axes, vec![("replicas", 3), ("protocol", 2)]);
        assert_eq!(spec.base[2], ("stragglers".into(), "0x10".into()));
        assert_eq!(spec.full_scale.len(), 2);
    }

    #[test]
    fn seed_ranges_expand() {
        let items = axis_items("seed", "3..=6", &mut Point::new(None)).expect("axis");
        assert_eq!(items, ["3", "4", "5", "6"]);
    }

    #[test]
    fn crash_recover_stanza_parses_and_round_trips() {
        let doc = "\
kind = scenario\n\
name = rec\n\
\n\
[scenario]\n\
protocol = orthrus\n\
network = lan\n\
replicas = 4\n\
crash_recover = 2@300..1800, 3@9000..15000\n";
        let spec = parse(doc).expect("parse");
        let points = spec.lower(crate::SpecScale::Reduced).expect("lower");
        let window = |replica, crash_ms, recover_ms| CrashRecoverSpec {
            replica: ReplicaId::new(replica),
            crash_at: SimTime::from_millis(crash_ms),
            recover_at: SimTime::from_millis(recover_ms),
        };
        assert_eq!(
            points[0].scenario.faults.crash_recoveries,
            vec![window(2, 300, 1800), window(3, 9000, 15000)]
        );
        let reparsed = parse(&serialize(&spec)).expect("reparse");
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn malformed_crash_recover_stanzas_are_rejected_with_lines() {
        for (value, needle) in [
            ("2", "crash_recover"),
            ("2@300", "window"),
            ("2@300..x", "recovery time"),
            ("x@300..400", "replica id"),
        ] {
            let doc = format!(
                "kind = scenario\nname = rec\n\n[scenario]\nprotocol = orthrus\n\
                 network = lan\nreplicas = 4\ncrash_recover = {value}\n"
            );
            let err = parse(&doc).expect_err(&doc);
            assert_eq!(err.line, Some(8), "{value}");
            assert!(err.to_string().contains(needle), "{value} -> {err}");
        }
    }

    #[test]
    fn round_trips_through_serialize() {
        let spec = parse(SCENARIO_DOC).expect("parse");
        let text = serialize(&spec);
        let reparsed = parse(&text).expect("reparse");
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases = [
            ("name = x\n[scenario]\nprotocol = orthrus\n", "kind"),
            ("kind = scenario\n[scenario]\n", "name"),
            ("kind = banana\nname = x\n[scenario]\n", "banana"),
            ("kind = scenario\nname = x\n[axes]\n", "scenario"),
            ("kind = sweep\nname = x\n[base]\n", "axes"),
            (
                "kind = scenario\nname = x\n[scenario]\nprotocol = foo\n",
                "protocol",
            ),
            (
                "kind = scenario\nname = x\n[scenario]\nbananas = 4\n",
                "bananas",
            ),
            (
                "kind = scenario\nname = x\n[scenario]\nseed = 1\nseed = 2\n",
                "duplicate",
            ),
            ("kind = sweep\nname = x\nx_axis = protocol\n", "numeric"),
            ("kind = scenario\nname = Bad-Name\n[scenario]\n", "name"),
            (
                "kind = sweep\nname = x\n[base]\n[axes]\nreplicas =\n",
                "empty",
            ),
            ("kind = scenario\nname = x\n[scenario]\nx = NaN\n", "finite"),
            (
                "kind = scenario\nname = x\n[scenario]\nzipf_exponent = inf\n",
                "finite",
            ),
            (
                "kind = scenario\nname = x\n[scenario]\nlabel = say \"hi\"\n",
                "label",
            ),
            (
                "kind = scenario\nname = x\n[scenario]\nlabel = a,b\n",
                "label",
            ),
        ];
        for (doc, needle) in cases {
            let err = parse(doc).expect_err(doc);
            assert!(
                err.to_string().contains(needle),
                "{doc:?} -> {err} (expected {needle:?})"
            );
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "kind = scenario\nname = x\n[scenario]\nprotocol = nope\n";
        let err = parse(doc).expect_err("must fail");
        assert_eq!(err.line, Some(4));
    }

    #[test]
    fn axis_and_full_scale_values_are_checked_at_parse_time() {
        let sweep = "kind = sweep\nname = x\n[base]\nprotocol = orthrus\n[axes]\n";
        for (tail, line, needle) in [
            ("replicas = 4, x\n", 6, "replica count"),
            ("seed = 0..=18446744073709551615\n", 6, "1 to 10000 items"),
            ("seed = 5..=3\n", 6, "1 to 10000 items"),
            ("payments = 1\n", 6, "unknown axis"),
            (
                "replicas = 4\n[full_scale]\nreplicas = 8, y\n",
                8,
                "full_scale",
            ),
            (
                "replicas = 4\n[full_scale]\nbatch_size = -1\n",
                8,
                "batch size",
            ),
        ] {
            let err = parse(&format!("{sweep}{tail}")).expect_err(tail);
            assert_eq!(err.line, Some(line), "{tail}");
            assert!(err.to_string().contains(needle), "{tail} -> {err}");
        }
    }
}
