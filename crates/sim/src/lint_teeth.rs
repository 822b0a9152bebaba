//! The determinism lints' own tests: one expected hit per pattern that
//! `clippy.toml` and `[workspace.lints]` ban. Each case is an `#[expect]`,
//! so `cargo clippy --all-targets -- -D warnings` fails if a config entry
//! stops firing (the expectation goes unfulfilled). The crate root allows
//! these lints in test builds; an `#[expect]` on an item overrides that.
//! Adding a ban means adding its case here.
//!
//! An `#[expect]` also turns its lint on, so the cases of the two lints that
//! take no list (`iter_over_hash_type`, `allow_attributes_without_reason`)
//! show that clippy sees the pattern, not that `[workspace.lints]` enables
//! the lint.

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
