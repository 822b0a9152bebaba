//! The rule set: what each rule matches, where it applies, and the
//! suppression grammar that lets a justified site opt out *with a written
//! reason*.
//!
//! # Suppression grammar
//!
//! ```text
//! // orthrus: allow(<rule-name>): <reason text>
//! ```
//!
//! A suppression comment applies to the code on its own line, or — when it
//! sits on a comment-only line — to the next code line below it (doc-style
//! placement). The reason is mandatory: an empty reason, or an unknown rule
//! name, is itself a violation (`ORT007 bad-suppression`), so the workspace
//! can never accumulate silent waivers. Every matched suppression is
//! recorded in the report with its reason, giving reviewers a single list
//! of all sanctioned exceptions.
//!
//! # Scope policy
//!
//! Determinism rules apply to the *deterministic crates* — the ones whose
//! state feeds the digest: `sim`, `core`, `sb`, `ordering`, `execution`,
//! `workload`, `types`. Test regions (`#[cfg(test)]` / `#[test]`), tests/,
//! benches/ and examples/ trees are exempt from everything except
//! `unsafe-audit` (unsound is unsound even in a bench). Each rule with a
//! legitimate implementation site names it as a sanctioned file — the one
//! doorway the pattern may flow through:
//!
//! | rule         | sanctioned doorway                                  |
//! |--------------|-----------------------------------------------------|
//! | wall-clock   | `crates/bench/` (the measurement harness)           |
//! | ambient-rng  | `crates/types/src/rng.rs` (the RNG implementation)  |
//! | stray-thread | `crates/types/src/pool.rs` (the deterministic pool) |

use crate::lexer::Line;
use crate::report::{Diagnostic, Report, RuleInfo, Suppression, UnsafeSite};

/// All rules, in priority order. The discriminant order fixes the code
/// numbering (`ORT001`..), so new rules must be appended, never inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Order-dependent iteration over `HashMap`/`HashSet` in deterministic
    /// crates. Iteration order of a hash map is an implementation detail;
    /// anything derived from it (event order, message order, digests) is a
    /// replay hazard. Use `BTreeMap`, sort before iterating, or justify why
    /// the fold is commutative.
    NondetIter,
    /// `Instant::now()` / `SystemTime` outside the bench harness and the
    /// sanctioned profiling helper. Wall-clock reads inside the simulator are
    /// either dead (sim time is logical) or — worse — feeding decisions.
    WallClock,
    /// RNG construction outside `orthrus_types::rng` from anything but a
    /// scenario-derived seed. Ambient entropy breaks seed ⇒ digest identity.
    AmbientRng,
    /// `std::thread` use outside the deterministic sweep pool. All
    /// parallelism must flow through `parallel_map` so thread count can
    /// never influence results.
    StrayThread,
    /// `unsafe` without an adjacent `// SAFETY:` justification. Also feeds
    /// the workspace-wide unsafe inventory in the report.
    UnsafeAudit,
    /// `unwrap`/`expect`/`panic!` on engine dispatch and actor handler
    /// paths, where a panic tears down the whole simulation run instead of
    /// failing one message or transaction.
    PanicPath,
    /// A malformed suppression: unknown rule name or missing reason.
    BadSuppression,
}

impl Rule {
    pub const ALL: [Rule; 7] = [
        Rule::NondetIter,
        Rule::WallClock,
        Rule::AmbientRng,
        Rule::StrayThread,
        Rule::UnsafeAudit,
        Rule::PanicPath,
        Rule::BadSuppression,
    ];

    pub fn code(self) -> &'static str {
        match self {
            Rule::NondetIter => "ORT001",
            Rule::WallClock => "ORT002",
            Rule::AmbientRng => "ORT003",
            Rule::StrayThread => "ORT004",
            Rule::UnsafeAudit => "ORT005",
            Rule::PanicPath => "ORT006",
            Rule::BadSuppression => "ORT007",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-iter",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::StrayThread => "stray-thread",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::PanicPath => "panic-path",
            Rule::BadSuppression => "bad-suppression",
        }
    }

    pub fn description(self) -> &'static str {
        match self {
            Rule::NondetIter => {
                "order-dependent iteration over HashMap/HashSet in deterministic crates"
            }
            Rule::WallClock => "wall-clock read outside the bench harness / profiling doorway",
            Rule::AmbientRng => "RNG construction outside orthrus_types::rng seeded paths",
            Rule::StrayThread => "std::thread use outside the deterministic sweep pool",
            Rule::UnsafeAudit => "unsafe block/impl without a SAFETY: justification",
            Rule::PanicPath => "unwrap/expect/panic! on engine dispatch and actor handler paths",
            Rule::BadSuppression => "suppression with unknown rule name or missing reason",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    pub fn infos() -> Vec<RuleInfo> {
        Rule::ALL
            .iter()
            .map(|r| RuleInfo {
                code: r.code().into(),
                name: r.name().into(),
                description: r.description().into(),
            })
            .collect()
    }
}

/// Crates whose state feeds the determinism digest.
const DETERMINISTIC_CRATES: [&str; 7] = [
    "crates/sim/",
    "crates/core/",
    "crates/sb/",
    "crates/ordering/",
    "crates/execution/",
    "crates/workload/",
    "crates/types/",
];

/// Files on engine-dispatch / actor-handler paths, where a panic tears down
/// the whole run (the `panic-path` scope).
const PANIC_PATH_FILES: [&str; 3] = [
    "crates/sim/src/engine.rs",
    "crates/core/src/replica.rs",
    "crates/core/src/client.rs",
];

fn is_deterministic_crate(path: &str) -> bool {
    DETERMINISTIC_CRATES.iter().any(|c| path.starts_with(c)) && path.contains("/src/")
}

/// Integration tests, benches, and examples never run inside a simulation.
fn is_non_prod(path: &str) -> bool {
    path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
}

/// Hash container type names whose iteration order is arbitrary. `FxHashMap`
/// and `FxHashSet` (crates/types/src/hash.rs) hash *reproducibly*, but their
/// iteration order is still an artifact of insertion history and capacity —
/// the workspace invariant says nothing may depend on it.
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods on a hash container that expose iteration order.
const ORDER_METHODS: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".retain(",
];

/// Per-file analysis context.
pub struct FileAnalysis<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    pub lines: &'a [Line],
}

/// A parsed suppression annotation attached to a line index.
struct ParsedAllow {
    rule: Option<Rule>,
    reason: String,
    raw_name: String,
}

/// Parse `orthrus: allow(<rule>): <reason>` out of a comment channel. The
/// annotation must open the comment (after whitespace), so documentation
/// that merely *mentions* the grammar — doc comments, code-fence examples —
/// never parses as a suppression attempt.
fn parse_allow(comment: &str) -> Option<ParsedAllow> {
    let rest = comment.trim_start().strip_prefix("orthrus: allow(")?;
    let close = rest.find(')')?;
    let raw_name = rest[..close].trim().to_string();
    let after = &rest[close + 1..];
    let reason = after.strip_prefix(':').unwrap_or("").trim().to_string();
    Some(ParsedAllow {
        rule: Rule::from_name(&raw_name),
        reason,
        raw_name,
    })
}

/// Suppressions in effect per source line. A suppression on a comment-only
/// line carries forward (through further comment-only/blank lines) to the
/// next code line.
struct Allows {
    /// `per_line[i]` = suppressions applying to line `i`.
    per_line: Vec<Vec<(Rule, String)>>,
    /// (line, rule, reason) of every *matched* suppression gets recorded by
    /// the checker; this tracks which were declared so unused ones could be
    /// surfaced later if we ever want to.
    declared: Vec<(usize, Rule, String)>,
    bad: Vec<(usize, String)>,
}

fn collect_allows(lines: &[Line]) -> Allows {
    let mut allows = Allows {
        per_line: vec![Vec::new(); lines.len()],
        declared: Vec::new(),
        bad: Vec::new(),
    };
    let mut pending: Vec<(Rule, String)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(parsed) = parse_allow(&line.comment) {
            match (parsed.rule, parsed.reason.is_empty()) {
                (Some(rule), false) => {
                    allows.declared.push((i, rule, parsed.reason.clone()));
                    if line.code.trim().is_empty() {
                        // Comment-only line: applies to the next code line.
                        pending.push((rule, parsed.reason));
                    } else {
                        allows.per_line[i].push((rule, parsed.reason));
                    }
                }
                (None, _) => allows
                    .bad
                    .push((i, format!("unknown rule name {:?}", parsed.raw_name))),
                (Some(_), true) => allows.bad.push((
                    i,
                    format!(
                        "suppression for `{}` has no reason — a waiver must say why",
                        parsed.raw_name
                    ),
                )),
            }
        }
        if !pending.is_empty() && !line.code.trim().is_empty() {
            allows.per_line[i].append(&mut pending);
        }
    }
    allows
}

/// Last identifier token ending at byte offset `end` in `code` (the receiver
/// of a method call when `end` points at the `.`). For `self.runs.iter()`
/// this yields `runs` — field accesses resolve to the final segment.
fn receiver_before(code: &str, end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut i = end;
    // Skip over a closing paren group: `map.get(k).iter()` — give up, too
    // complex for name matching (conservative: no finding).
    if i > 0 && (bytes[i - 1] == b')' || bytes[i - 1] == b']') {
        return None;
    }
    while i > 0 {
        let c = bytes[i - 1] as char;
        if c.is_alphanumeric() || c == '_' {
            i -= 1;
        } else {
            break;
        }
    }
    if i == end {
        return None;
    }
    Some(&code[i..end])
}

/// Does `text[pos..]` start a word-boundary match of `word`?
fn word_at(text: &str, pos: usize, word: &str) -> bool {
    if !text[pos..].starts_with(word) {
        return false;
    }
    let before_ok = pos == 0
        || !text[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after = pos + word.len();
    let after_ok = !text[after..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// All word-boundary occurrences of `word` in `text`.
fn word_positions(text: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find(word) {
        let pos = from + rel;
        if word_at(text, pos, word) {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

/// Pass 1 of nondet-iter: names bound to hash-container types in non-test
/// code. Matches field/param declarations
/// (`name: [&]['a][mut] [Arc<][path::]Type`) and let-constructions
/// (`let [mut] name = [path::]Type::`).
fn hash_bound_names(lines: &[Line]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in lines {
        if line.is_test {
            continue;
        }
        let code = &line.code;
        for ty in HASH_TYPES {
            for pos in word_positions(code, ty) {
                // Strip a path prefix glued to the type (`std::collections::`).
                let mut rest = &code[..pos];
                while let Some(stripped) = rest.strip_suffix("::") {
                    rest = stripped.trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
                }
                let mut rest = rest.trim_end();
                // Strip type-position noise: `name: &'a mut Type`.
                loop {
                    let before = rest;
                    rest = rest.trim_end_matches('&').trim_end();
                    if let Some(s) = rest.strip_suffix("mut") {
                        rest = s.trim_end();
                    }
                    // A copy-on-write wrapper iterates like the map inside.
                    if let Some(s) = rest.strip_suffix("Arc<") {
                        rest = s.trim_end();
                    }
                    if let Some(apos) = rest.rfind('\'') {
                        // Lifetime like `'a` directly at the end.
                        let tail = &rest[apos + 1..];
                        if !tail.is_empty() && tail.chars().all(|c| c.is_alphanumeric() || c == '_')
                        {
                            rest = rest[..apos].trim_end();
                        }
                    }
                    if rest == before {
                        break;
                    }
                }
                let tail_ident = |s: &str| -> String {
                    let start = s
                        .rfind(|c: char| !c.is_alphanumeric() && c != '_')
                        .map_or(0, |p| p + 1);
                    s[start..].to_string()
                };
                if let Some(colonless) = rest.strip_suffix(':') {
                    // `name: Type` (field, param, or typed let).
                    let name = tail_ident(colonless.trim_end());
                    if !name.is_empty() && !names.contains(&name) {
                        names.push(name);
                    }
                } else if let Some(eqless) = rest.strip_suffix('=') {
                    // `let [mut] name = Type::new()` / `name = Type::default()`.
                    let lhs = eqless.trim_end();
                    let name = tail_ident(lhs);
                    if !name.is_empty() {
                        let before_name = lhs[..lhs.len() - name.len()].trim_end();
                        let is_binding = before_name.ends_with("let")
                            || before_name.ends_with("mut")
                            || before_name.ends_with('.')
                            || before_name.is_empty();
                        if is_binding && !names.contains(&name) {
                            names.push(name);
                        }
                    }
                }
            }
        }
    }
    names
}

/// A finding before suppression filtering.
struct Finding {
    rule: Rule,
    line: usize,
    message: String,
}

/// Run every rule over one file. `snippet_for` pulls the original (unlexed)
/// source line for diagnostics.
pub fn check_file(fa: &FileAnalysis<'_>, original: &str, report: &mut Report) {
    let path = fa.path;
    let lines = fa.lines;
    let originals: Vec<&str> = original.lines().collect();
    let allows = collect_allows(lines);
    let mut findings: Vec<Finding> = Vec::new();

    for (i, reason) in &allows.bad {
        findings.push(Finding {
            rule: Rule::BadSuppression,
            line: *i,
            message: reason.clone(),
        });
    }

    let non_prod = is_non_prod(path);
    let det = is_deterministic_crate(path) && !non_prod;

    // --- nondet-iter -----------------------------------------------------
    if det {
        let bound = hash_bound_names(lines);
        for (i, line) in lines.iter().enumerate() {
            if line.is_test {
                continue;
            }
            let code = &line.code;
            // Method-call sites: `recv.iter()` etc.
            for method in ORDER_METHODS {
                let mut from = 0;
                while let Some(rel) = code[from..].find(method) {
                    let pos = from + rel;
                    if let Some(recv) = receiver_before(code, pos) {
                        if bound.iter().any(|n| n == recv) {
                            findings.push(Finding {
                                rule: Rule::NondetIter,
                                line: i,
                                message: format!(
                                    "order-dependent `{method}` on hash container `{recv}` — \
                                     use BTreeMap, sort first, or justify commutativity",
                                    method = method.trim_end_matches('('),
                                ),
                            });
                        }
                    }
                    from = pos + method.len();
                }
            }
            // `for pat in [&[mut]] path.to.name [{]` — direct loop over the
            // container (no method call on the tail).
            if let Some(for_pos) = word_positions(code, "for").first().copied() {
                if let Some(in_rel) = code[for_pos..].find(" in ") {
                    let expr = &code[for_pos + in_rel + 4..];
                    let expr = expr.split('{').next().unwrap_or("").trim();
                    let expr = expr.trim_start_matches('&');
                    let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
                    if !expr.is_empty()
                        && expr
                            .chars()
                            .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
                    {
                        let tail = expr.rsplit('.').next().unwrap_or(expr);
                        if bound.iter().any(|n| n == tail) {
                            findings.push(Finding {
                                rule: Rule::NondetIter,
                                line: i,
                                message: format!(
                                    "order-dependent `for` loop over hash container `{tail}` — \
                                     use BTreeMap, sort first, or justify commutativity"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // --- wall-clock -------------------------------------------------------
    // The whole bench crate is the measurement harness; it is the sanctioned
    // home of wall-clock reads. Tests/benches/examples never run inside a
    // simulation, so timing them is equally fine.
    if !path.starts_with("crates/bench/") && !non_prod {
        for (i, line) in lines.iter().enumerate() {
            if line.is_test {
                continue;
            }
            for pat in ["Instant::now", "SystemTime"] {
                if line.code.contains(pat) {
                    findings.push(Finding {
                        rule: Rule::WallClock,
                        line: i,
                        message: format!(
                            "wall-clock read `{pat}` — route through orthrus_bench::timing or \
                             the ProfTimer doorway"
                        ),
                    });
                    break;
                }
            }
        }
    }

    // --- ambient-rng --------------------------------------------------------
    // rng.rs is the implementation; everywhere else a construction must be
    // seeded from scenario state (suppress with the provenance).
    if det && path != "crates/types/src/rng.rs" {
        for (i, line) in lines.iter().enumerate() {
            if line.is_test {
                continue;
            }
            if line.code.contains("seed_from_u64") || line.code.contains("StdRng::new") {
                findings.push(Finding {
                    rule: Rule::AmbientRng,
                    line: i,
                    message: "RNG construction — justify the seed's provenance \
                              (must derive from the scenario seed)"
                        .into(),
                });
            }
        }
    }

    // --- stray-thread -------------------------------------------------------
    // Scope-policy exemption for non-prod trees: a bench or test sizing
    // itself to the machine cannot leak thread count into a digest.
    if path != "crates/types/src/pool.rs" && !non_prod {
        for (i, line) in lines.iter().enumerate() {
            if line.is_test {
                continue;
            }
            let code = &line.code;
            let hit = code.contains("std::thread")
                || code.contains("thread::spawn(")
                || code.contains("thread::scope(")
                || code.contains("thread::Builder")
                || code.contains("thread::sleep")
                || code.contains("thread::park")
                || code.contains("thread::available_parallelism");
            if hit {
                findings.push(Finding {
                    rule: Rule::StrayThread,
                    line: i,
                    message: "direct std::thread use — all parallelism must flow through \
                              orthrus_types::pool"
                        .into(),
                });
            }
        }
    }

    // --- unsafe-audit (applies everywhere, tests included) ------------------
    for (i, line) in lines.iter().enumerate() {
        if word_positions(&line.code, "unsafe").is_empty() {
            continue;
        }
        // SAFETY: accepted on the same line's comment or within the three
        // preceding lines' comments (rustfmt may wrap a justification).
        let has_safety = (i.saturating_sub(3)..=i).any(|j| lines[j].comment.contains("SAFETY:"));
        report.unsafe_inventory.push(UnsafeSite {
            file: path.into(),
            line: i + 1,
            has_safety,
        });
        if !has_safety {
            findings.push(Finding {
                rule: Rule::UnsafeAudit,
                line: i,
                message: "unsafe without an adjacent `// SAFETY:` justification".into(),
            });
        }
    }

    // --- panic-path ----------------------------------------------------------
    if PANIC_PATH_FILES.contains(&path) {
        for (i, line) in lines.iter().enumerate() {
            if line.is_test {
                continue;
            }
            for pat in [
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ] {
                if line.code.contains(pat) {
                    findings.push(Finding {
                        rule: Rule::PanicPath,
                        line: i,
                        message: format!(
                            "`{}` on an engine/actor path — a panic here tears down the whole \
                             run; justify the invariant",
                            pat.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                }
            }
        }
    }

    // --- apply suppressions ---------------------------------------------------
    for finding in findings {
        let suppressed = allows.per_line[finding.line]
            .iter()
            .find(|(rule, _)| *rule == finding.rule);
        if let Some((rule, reason)) = suppressed {
            report.suppressions.push(Suppression {
                rule: rule.name().into(),
                file: path.into(),
                line: finding.line + 1,
                reason: reason.clone(),
            });
        } else {
            let snippet = originals
                .get(finding.line)
                .map(|s| s.trim().to_string())
                .unwrap_or_default();
            report.violations.push(Diagnostic {
                code: finding.rule.code().into(),
                rule: finding.rule.name().into(),
                file: path.into(),
                line: finding.line + 1,
                snippet,
                message: finding.message,
            });
        }
    }
}
