//! The named scenario registry: every checked-in `scenarios/*.orth` file,
//! embedded at compile time so the `orthrus` CLI works from any directory.
//!
//! The registry seeds the paper's whole evaluation grid (§VII): Figures 3–8
//! plus the five ablation studies and a tiny `quickstart` smoke scenario.
//! Each entry's name matches its file stem; golden-file tests in
//! `tests/scenario_specs.rs` pin that every entry parses, round-trips and
//! lowers to valid scenarios at both scales.

use crate::spec::{parse, Spec, SpecError};

/// One registry entry: a name plus the embedded `.orth` source.
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// Registry name (the file stem under `scenarios/`).
    pub name: &'static str,
    /// The embedded spec source.
    pub source: &'static str,
}

impl RegistryEntry {
    /// Parse the entry into a [`Spec`].
    pub fn spec(&self) -> Result<Spec, SpecError> {
        parse(self.source)
    }
}

macro_rules! entry {
    ($name:literal) => {
        RegistryEntry {
            name: $name,
            source: include_str!(concat!("../../../scenarios/", $name, ".orth")),
        }
    };
}

/// All checked-in specs, in presentation order.
pub const ENTRIES: &[RegistryEntry] = &[
    entry!("quickstart"),
    entry!("fig3_smoke"),
    entry!("fig3ab_wan_no_straggler"),
    entry!("fig3cd_wan_straggler"),
    entry!("fig4ab_lan_no_straggler"),
    entry!("fig4cd_lan_straggler"),
    entry!("fig5_payment_share_no_straggler"),
    entry!("fig5_payment_share_straggler"),
    entry!("fig6_latency_breakdown"),
    entry!("fig7_fault_timeline"),
    entry!("fig8_undetectable_faults"),
    entry!("ablation_fast_path"),
    entry!("ablation_global_ordering"),
    entry!("ablation_multi_payer"),
    entry!("ablation_hot_account"),
    entry!("ablation_inflight"),
    entry!("recovery_smoke"),
    entry!("recovery_protocols"),
];

/// Look up a registry entry by name.
pub fn find(name: &str) -> Option<&'static RegistryEntry> {
    ENTRIES.iter().find(|entry| entry.name == name)
}

/// Parse the named registry spec. Registry sources are pinned by golden
/// tests, so a parse failure here is a build defect, reported as an error
/// rather than a panic.
pub fn spec(name: &str) -> Result<Spec, SpecError> {
    let entry = find(name)
        .ok_or_else(|| SpecError::general(format!("no registry entry named {name:?}")))?;
    entry.spec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_parses_and_matches_its_name() {
        for entry in ENTRIES {
            let spec = entry.spec().unwrap_or_else(|err| {
                panic!("registry entry {} does not parse: {err}", entry.name)
            });
            assert_eq!(spec.name(), entry.name, "name must match the file stem");
        }
    }

    #[test]
    fn lookup_by_name_works() {
        assert!(find("quickstart").is_some());
        assert!(find("fig3ab_wan_no_straggler").is_some());
        assert!(find("no_such_grid").is_none());
        assert!(spec("no_such_grid").is_err());
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ENTRIES.len());
    }
}
