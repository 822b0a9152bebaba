//! The meta-test: the checked-in workspace is lint-clean, so a CI failure of
//! the `orthrus analyze` gate reproduces locally as plain `cargo test`.
//!
//! Also proves the gate has teeth — an injected hash-map iteration in
//! `crates/sim` must fail the pass — and that two walks of the workspace
//! emit the same `--json` report, byte for byte.

use orthrus_analysis::{analyze_source, analyze_workspace, find_workspace_root, Report};

fn workspace_report() -> Report {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("analysis crate lives inside the workspace");
    analyze_workspace(&root).expect("workspace walk")
}

#[test]
fn checked_in_workspace_is_lint_clean() {
    let report = workspace_report();
    assert!(
        report.is_clean(),
        "the workspace has unsuppressed violations — run `orthrus analyze` for the list:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walk covered the real tree, not an empty directory.
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
    // Every suppression in the tree carries a written reason (the analyzer
    // refuses reasonless ones, so this documents the invariant end-to-end).
    assert!(!report.suppressions.is_empty());
    for s in &report.suppressions {
        assert!(
            !s.reason.trim().is_empty(),
            "reasonless suppression at {}:{}",
            s.file,
            s.line
        );
    }
    // The unsafe inventory is complete: every site is justified.
    for u in &report.unsafe_inventory {
        assert!(u.has_safety, "unjustified unsafe at {}:{}", u.file, u.line);
    }
}

#[test]
fn injected_hashmap_iteration_in_sim_fails_the_pass() {
    let mut report = Report::default();
    let injected = "use std::collections::HashMap;\n\
                    pub struct Planner { lanes: HashMap<u64, Vec<u64>> }\n\
                    impl Planner {\n\
                        pub fn emit(&self) -> Vec<u64> {\n\
                            let mut out = Vec::new();\n\
                            for (id, lane) in self.lanes.iter() {\n\
                                out.push(*id + lane.len() as u64);\n\
                            }\n\
                            out\n\
                        }\n\
                    }\n";
    analyze_source("crates/sim/src/injected.rs", injected, &mut report);
    assert!(!report.is_clean(), "injected nondet iteration must fail");
    assert_eq!(report.violations.len(), 1);
    let v = &report.violations[0];
    assert_eq!(v.code, "ORT001");
    assert_eq!(v.rule, "nondet-iter");
    assert_eq!(v.file, "crates/sim/src/injected.rs");
    assert_eq!(v.line, 6);
}

#[test]
fn workspace_report_json_is_deterministic() {
    assert_eq!(workspace_report().to_json(), workspace_report().to_json());
}
