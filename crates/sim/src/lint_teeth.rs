//! The determinism lints' own tests: one expected hit per pattern that
//! `clippy.toml` and `[workspace.lints]` ban. Each case is an `#[expect]`,
//! so `cargo clippy --all-targets -- -D warnings` fails if a config entry
//! stops firing (the expectation goes unfulfilled). The crate root allows
//! these lints in test builds; an `#[expect]` on an item overrides that.
//! Adding a ban means adding its case here.
//!
//! An `#[expect]` also turns its lint on in its own scope, so a case stays
//! fulfilled even with its lint set to `allow` workspace-wide. That matters
//! for the two lints that take no list (`iter_over_hash_type`,
//! `allow_attributes_without_reason`): their cases show only that clippy sees
//! the pattern. What enables the lints everywhere else is the root
//! `Cargo.toml`'s `[workspace.lints]` table, which
//! `workspace_lint_levels_keep_the_gate_on` reads and checks.

use orthrus_types::rng::StdRng;
use orthrus_types::FxHashMap;
use std::sync::Arc;

#[derive(Default)]
struct Holder {
    map: FxHashMap<u32, u32>,
    shared: Arc<FxHashMap<u32, u32>>,
}

impl Holder {
    fn map(&self) -> &FxHashMap<u32, u32> {
        &self.map
    }
}

#[test]
#[expect(clippy::disallowed_methods, reason = "tooth: `.values()` on a field")]
fn values_on_a_field() {
    assert_eq!(Holder::default().map.values().count(), 0);
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "tooth: `.values()` through an `Arc`"
)]
fn values_through_an_arc() {
    assert_eq!(Holder::default().shared.values().count(), 0);
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "tooth: a map reached through a method's return value, which no name matcher sees"
)]
fn values_behind_a_method_call() {
    assert_eq!(Holder::default().map().values().count(), 0);
}

#[test]
#[expect(
    clippy::iter_over_hash_type,
    reason = "tooth: a `for` loop over `&FxHashMap`"
)]
fn for_loop_over_a_map() {
    let map = FxHashMap::from_iter([(1u32, 2u32)]);
    let mut sum = 0;
    for (k, v) in &map {
        sum += k + v;
    }
    assert_eq!(sum, 3);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "tooth: `.into_keys()`")]
fn into_keys() {
    let map = FxHashMap::from_iter([(1u32, 2u32)]);
    assert_eq!(map.into_keys().collect::<Vec<_>>(), vec![1]);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "tooth: `Instant::now`")]
fn instant_now() {
    let _ = std::time::Instant::now();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "tooth: `SystemTime::now`")]
fn system_time_now() {
    let _ = std::time::SystemTime::now();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "tooth: `thread::spawn`")]
fn thread_spawn() {
    assert!(std::thread::spawn(|| ()).join().is_ok());
}

#[test]
#[expect(clippy::disallowed_methods, reason = "tooth: `StdRng::seed_from_u64`")]
fn rng_construction() {
    let _ = StdRng::seed_from_u64(7);
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "tooth: a written `std::collections::HashMap`"
)]
fn randomly_seeded_map() {
    let map: std::collections::HashMap<u32, u32> = Default::default();
    assert!(map.is_empty());
}

#[test]
#[expect(
    clippy::allow_attributes_without_reason,
    reason = "tooth: a lint waiver without a written reason"
)]
fn reasonless_waiver() {
    #[allow(dead_code)]
    struct Unused;
}

/// The `key = "value"` lines of one table of a TOML file, comments skipped.
fn toml_table<'a>(toml: &'a str, header: &str) -> Vec<(&'a str, &'a str)> {
    toml.lines()
        .map(|line| line.split('#').next().unwrap_or_default().trim())
        .skip_while(|&line| line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('='))
        .map(|(key, value)| (key.trim(), value.trim().trim_matches('"')))
        .collect()
}

/// The workspace lint levels the determinism gate rests on: each lint that
/// `clippy.toml` configures or that the cases above exercise is on (so
/// `-D warnings` fails on a hit), and `unsafe` is forbidden outright.
/// Setting any of them to `allow`, or deleting its line, fails here even
/// though every `#[expect]` case above would still be fulfilled.
#[test]
fn workspace_lint_levels_keep_the_gate_on() {
    let manifest = include_str!("../../../Cargo.toml");
    let rust = toml_table(manifest, "[workspace.lints.rust]");
    assert!(rust.contains(&("unsafe_code", "forbid")), "{rust:?}");
    let clippy = toml_table(manifest, "[workspace.lints.clippy]");
    for lint in [
        "disallowed_methods",
        "disallowed_types",
        "iter_over_hash_type",
        "allow_attributes_without_reason",
    ] {
        let level = clippy
            .iter()
            .find(|&&(key, _)| key == lint)
            .map(|&(_, level)| level);
        assert!(
            matches!(level, Some("warn" | "deny" | "forbid")),
            "`{lint}` is {level:?} in [workspace.lints.clippy]"
        );
    }
}
