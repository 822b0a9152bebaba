//! In-tree determinism & safety static analyzer for the Orthrus workspace.
//!
//! The repo's headline invariant — same seed ⇒ bit-identical digests for all
//! six protocols, at any thread count — is enforced *dynamically* by the
//! determinism suite. This crate adds the static half: a source scanner that
//! catches the hazard classes which historically produce replay divergence
//! (hash-map iteration order, ambient wall-clock and RNG reads, stray
//! threads) before they ever reach a run, plus an unsafe-code audit and a
//! panic-path lint for the engine's dispatch surfaces.
//!
//! Run it as `orthrus analyze [--json out.json]`; it exits nonzero on any
//! unsuppressed violation. Suppressions are inline and carry a mandatory
//! reason:
//!
//! ```text
//! // orthrus: allow(nondet-iter): commutative min-merge, order-free.
//! for (id, rec) in other.txs { ... }
//! ```
//!
//! See [`rules`] for the rule table and scope policy, [`report`] for the
//! JSON diagnostic shape, and ARCHITECTURE.md §"Static analysis &
//! determinism lints" for the narrative version.
//!
//! Zero dependencies, like everything else in the workspace: the scanner is
//! a hand-rolled state machine ([`lexer`]), not a `syn` parse. That costs
//! some precision (name-based receiver matching instead of type inference)
//! and buys total control of the false-positive surface — the workspace is
//! ours, so a rare mismatch is fixed by a rename or a reasoned suppression,
//! and the meta-test in `tests/workspace_clean.rs` keeps the tree at zero.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{Diagnostic, Report, RuleInfo, Suppression, UnsafeSite};
pub use rules::Rule;

use std::io;
use std::path::{Path, PathBuf};

/// Analyze a single source text as if it lived at `relpath` (workspace-
/// relative, `/`-separated). This is the fixture-test entry point; the
/// walker calls it once per file.
pub fn analyze_source(relpath: &str, source: &str, report: &mut Report) {
    let lines = lexer::lex(source);
    let fa = rules::FileAnalysis {
        path: relpath,
        lines: &lines,
    };
    rules::check_file(&fa, source, report);
    report.files_scanned += 1;
}

/// Walk the workspace rooted at `root` and analyze every `.rs` file under
/// `crates/`, `src/`, `tests/`, and `examples/`, skipping `target/`. The
/// walk is sorted so the report is a deterministic function of the tree.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report {
        rules: Rule::infos(),
        ..Report::default()
    };
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        analyze_source(&rel, &source, &mut report);
    }
    report.sort();
    Ok(report)
}

/// Locate the workspace root: `start` or the nearest ancestor containing
/// both `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(relpath: &str, src: &str) -> Report {
        let mut report = Report::default();
        analyze_source(relpath, src, &mut report);
        report.sort();
        report
    }

    fn codes(report: &Report) -> Vec<&str> {
        report.violations.iter().map(|v| v.code.as_str()).collect()
    }

    // --- nondet-iter -----------------------------------------------------

    #[test]
    fn nondet_iter_flags_hashmap_method_iteration() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) -> u32 { self.m.values().sum() } }\n";
        let report = run("crates/sim/src/x.rs", src);
        assert_eq!(codes(&report), vec!["ORT001"]);
        assert_eq!(report.violations[0].line, 3);
    }

    #[test]
    fn nondet_iter_flags_for_loop_over_map() {
        let src = "use orthrus_types::FxHashMap;\n\
                   fn f(m: &FxHashMap<u32, u32>) { for (k, v) in m { let _ = (k, v); } }\n";
        let report = run("crates/execution/src/x.rs", src);
        assert_eq!(codes(&report), vec!["ORT001"]);
    }

    #[test]
    fn nondet_iter_sees_through_arc_wrapped_maps() {
        let src = "use orthrus_types::FxHashMap;\n\
                   struct S { m: Arc<FxHashMap<u32, u32>> }\n\
                   impl S { fn f(&self) -> u32 { self.m.values().sum() } }\n";
        let report = run("crates/execution/src/x.rs", src);
        assert_eq!(codes(&report), vec!["ORT001"]);
    }

    #[test]
    fn nondet_iter_respects_suppression_with_reason() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u64>) -> u64 {\n\
                       // orthrus: allow(nondet-iter): sum is commutative.\n\
                       m.values().sum()\n\
                   }\n";
        let report = run("crates/core/src/x.rs", src);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.suppressions.len(), 1);
        assert_eq!(report.suppressions[0].reason, "sum is commutative.");
    }

    #[test]
    fn nondet_iter_ignores_btreemap_and_vec() {
        let src = "use std::collections::BTreeMap;\n\
                   fn f(m: &BTreeMap<u32, u32>, v: &[u32]) -> u32 {\n\
                       m.values().sum::<u32>() + v.iter().sum::<u32>()\n\
                   }\n";
        assert!(run("crates/sim/src/x.rs", src).is_clean());
    }

    #[test]
    fn nondet_iter_ignores_lookup_only_use() {
        let src = "use std::collections::HashSet;\n\
                   fn f(s: &HashSet<u32>) -> bool { s.contains(&3) && s.len() > 1 }\n";
        assert!(run("crates/sb/src/x.rs", src).is_clean());
    }

    #[test]
    fn nondet_iter_skips_test_regions_and_foreign_crates() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn f(m: HashMap<u32, u32>) -> Vec<u32> { m.into_keys().collect() }\n\
                   }\n";
        assert!(run("crates/sim/src/x.rs", src).is_clean());
        let prod = "use std::collections::HashMap;\n\
                    fn f(m: HashMap<u32, u32>) -> Vec<u32> { m.into_keys().collect() }\n";
        assert!(run("crates/lab/src/x.rs", prod).is_clean(), "lab exempt");
        assert!(!run("crates/sim/src/x.rs", prod).is_clean());
        assert!(
            run("crates/sim/tests/x.rs", prod).is_clean(),
            "tests/ exempt"
        );
    }

    #[test]
    fn nondet_iter_ignores_mentions_in_comments_and_strings() {
        let src = "// a HashMap<u32, u32> named m: m.values() would be bad\n\
                   fn f() -> &'static str { \"m: HashMap — m.values()\" }\n";
        assert!(run("crates/sim/src/x.rs", src).is_clean());
    }

    // --- wall-clock --------------------------------------------------------

    #[test]
    fn wall_clock_flags_instant_outside_bench() {
        let src = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
        let report = run("crates/sim/src/x.rs", src);
        assert_eq!(codes(&report), vec!["ORT002"]);
        assert!(run("crates/bench/src/timing.rs", src).is_clean());
    }

    #[test]
    fn wall_clock_suppression_and_systemtime() {
        let ok = "// orthrus: allow(wall-clock): profiling doorway, observability only.\n\
                  fn now() -> std::time::Instant { std::time::Instant::now() }\n";
        assert!(run("crates/types/src/profiling.rs", ok).is_clean());
        let bad = "fn f() -> u64 { std::time::SystemTime::now().elapsed().unwrap().as_secs() }\n";
        assert_eq!(codes(&run("src/bin/x.rs", bad)), vec!["ORT002"]);
    }

    // --- ambient-rng ---------------------------------------------------------

    #[test]
    fn ambient_rng_flags_unjustified_construction() {
        let src = "fn f() { let _rng = orthrus_types::rng::StdRng::seed_from_u64(42); }\n";
        let report = run("crates/workload/src/x.rs", src);
        assert_eq!(codes(&report), vec!["ORT003"]);
        // The rng module itself is the sanctioned implementation site.
        assert!(run("crates/types/src/rng.rs", src).is_clean());
        let ok = "fn f(seed: u64) {\n\
                  // orthrus: allow(ambient-rng): seeded from the scenario seed.\n\
                  let _rng = StdRng::seed_from_u64(seed);\n\
                  }\n";
        assert!(run("crates/workload/src/x.rs", ok).is_clean());
    }

    // --- stray-thread ----------------------------------------------------------

    #[test]
    fn stray_thread_flags_spawn_outside_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(codes(&run("crates/core/src/x.rs", src)), vec!["ORT004"]);
        assert!(run("crates/types/src/pool.rs", src).is_clean());
    }

    // --- unsafe-audit -------------------------------------------------------

    #[test]
    fn unsafe_requires_safety_comment_and_feeds_inventory() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let report = run("crates/bench/benches/x.rs", bad);
        assert_eq!(codes(&report), vec!["ORT005"]);
        assert_eq!(report.unsafe_inventory.len(), 1);
        assert!(!report.unsafe_inventory[0].has_safety);

        let good = "// SAFETY: p is valid for reads by contract.\n\
                    fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let report = run("crates/bench/benches/x.rs", good);
        assert!(report.is_clean());
        assert!(report.unsafe_inventory[0].has_safety);
    }

    #[test]
    fn unsafe_audit_applies_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
        assert_eq!(codes(&run("crates/sim/src/x.rs", src)), vec!["ORT005"]);
    }

    // --- panic-path -----------------------------------------------------------

    #[test]
    fn panic_path_flags_unwrap_in_engine_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(codes(&run("crates/sim/src/engine.rs", src)), vec!["ORT006"]);
        assert!(run("crates/sim/src/stats.rs", src).is_clean());
        let ok = "fn f(x: Option<u32>) -> u32 {\n\
                  // orthrus: allow(panic-path): x is Some by loop invariant above.\n\
                  x.unwrap()\n\
                  }\n";
        assert!(run("crates/sim/src/engine.rs", ok).is_clean());
    }

    // --- suppression hygiene -----------------------------------------------------

    #[test]
    fn bad_suppressions_are_violations() {
        let unknown = "// orthrus: allow(made-up-rule): whatever\nfn f() {}\n";
        assert_eq!(codes(&run("crates/sim/src/x.rs", unknown)), vec!["ORT007"]);
        let reasonless = "fn f(x: Option<u32>) -> u32 {\n\
                          x.unwrap() // orthrus: allow(panic-path):\n\
                          }\n";
        let report = run("crates/sim/src/engine.rs", reasonless);
        // The reasonless allow does NOT suppress, so both ORT006 and ORT007 fire.
        let mut got = codes(&report);
        got.sort_unstable();
        assert_eq!(got, vec!["ORT006", "ORT007"]);
    }
}
