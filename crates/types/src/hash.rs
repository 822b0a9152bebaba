//! A fast, deterministic hasher for the hot in-memory maps.
//!
//! `std`'s default `SipHash` is keyed per process for HashDoS resistance —
//! protection the simulation does not need, at a cost the execution engine's
//! inner loops can feel (every key here is a trusted fixed-width id). This is
//! the Fx construction (rotate, xor, multiply per word), seedless and thus
//! identical across runs and platforms, which also keeps profiles and
//! benchmarks comparable.
//!
//! Nothing in the workspace may depend on map *iteration order* for
//! output determinism regardless of hasher choice; these aliases only make
//! lookups cheap.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx construction (the golden-ratio constant used by
/// rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word-at-a-time hasher: `h = (h <<< 5 ^ w) * SEED` per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.add(value as u64);
        self.add((value >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }
}

/// Seedless `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic Fx hasher.
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned std map: seedless, so its layout repeats run to run"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the deterministic Fx hasher.
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned std set: seedless, so its layout repeats run to run"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn byte_stream_matches_word_stream_for_whole_words() {
        let mut words = FxHasher::default();
        words.write_u64(u64::from_le_bytes(*b"orthrus!"));
        let mut bytes = FxHasher::default();
        bytes.write(b"orthrus!");
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn maps_and_sets_work() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(7, "seven");
        assert_eq!(map.get(&7), Some(&"seven"));
        let mut set: FxHashSet<(u64, u64)> = FxHashSet::default();
        assert!(set.insert((1, 2)));
        assert!(!set.insert((1, 2)));
    }
}
