//! Dense per-run transaction tables.
//!
//! Every replica touches every transaction several times — bucket admission
//! (§V-A), the client's `f + 1` broadcast and reply tally (§V-B), escrow and
//! plog/glog execution (§V-C) — and each step keeps per-transaction
//! bookkeeping for the whole run. A run's workload numbers each payer's
//! transactions densely from 0, so a [`TxTable`] built once from the workload
//! maps a [`TxId`] to a slot in `0..len` as `offsets[client] + seq`, without
//! hashing. [`TxSet`] (a bitset) and [`TxMap`] (a vector of `Option<V>`)
//! index by that slot and keep an Fx-hashed overflow for ids outside the
//! table, so an instance over the empty table ([`TxTable::default`]) behaves
//! exactly like the hash container it replaces.
//!
//! Slot storage is allocated on a container's first in-table write, not at
//! construction: building a simulation stays as cheap as before, and a
//! container that is never written costs nothing.

use crate::hash::{FxHashMap, FxHashSet};
use crate::ids::TxId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The run's `TxId` → slot mapping.
#[derive(Debug, Default)]
pub struct TxTable {
    /// Client `c`'s slots are `offsets[c]..offsets[c + 1]`, sequence number
    /// 0 first. Empty for the table-less table.
    offsets: Vec<usize>,
    /// Lookups of ids outside a non-empty table (see [`TxTable::misses`]).
    misses: AtomicU64,
}

impl TxTable {
    /// Build the table for the ids `(c, 0)` to `(c, counts[c] - 1)` of every
    /// client `c`: the workload generator numbers each payer's transactions
    /// densely from 0 and reports the counts.
    pub fn new(counts: &[u64]) -> Self {
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        offsets.push(0);
        let mut next = 0;
        for &count in counts {
            next += count as usize;
            offsets.push(next);
        }
        Self {
            offsets,
            misses: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Does the table have no slot (every id overflows)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot of `id`, or `None` if it lies outside the table. A miss on a
    /// non-empty table is counted.
    #[inline]
    pub fn slot(&self, id: TxId) -> Option<usize> {
        match self.offsets.get(id.client.as_usize()..) {
            Some([start, end, ..]) if id.seq < (end - start) as u64 => {
                Some(start + id.seq as usize)
            }
            _ => {
                if !self.offsets.is_empty() {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// How many container operations met an id outside this (non-empty)
    /// table and fell back to the overflow. Zero on every run whose ids all
    /// come from the workload the table was built from.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A set of transaction ids: one bit per table slot, an Fx set beyond.
#[derive(Debug, Clone, Default)]
pub struct TxSet {
    table: Arc<TxTable>,
    /// One bit per slot; empty until the first in-table insert.
    bits: Vec<u64>,
    len: usize,
    overflow: FxHashSet<TxId>,
}

impl TxSet {
    /// An empty set over `table`.
    pub fn new(table: Arc<TxTable>) -> Self {
        Self {
            table,
            bits: Vec::new(),
            len: 0,
            overflow: FxHashSet::default(),
        }
    }

    /// Add `id`; false if it was already present.
    pub fn insert(&mut self, id: TxId) -> bool {
        let fresh = match self.table.slot(id) {
            Some(slot) => {
                if self.bits.is_empty() {
                    self.bits = vec![0; self.table.len().div_ceil(64)];
                }
                let (word, bit) = (&mut self.bits[slot / 64], 1u64 << (slot % 64));
                let fresh = *word & bit == 0;
                *word |= bit;
                fresh
            }
            None => self.overflow.insert(id),
        };
        self.len += usize::from(fresh);
        fresh
    }

    /// Remove `id`; false if it was absent.
    pub fn remove(&mut self, id: TxId) -> bool {
        let removed = match self.table.slot(id) {
            Some(slot) => self.bits.get_mut(slot / 64).is_some_and(|word| {
                let bit = 1u64 << (slot % 64);
                let present = *word & bit != 0;
                *word &= !bit;
                present
            }),
            None => self.overflow.remove(&id),
        };
        self.len -= usize::from(removed);
        removed
    }

    /// Is `id` present?
    pub fn contains(&self, id: TxId) -> bool {
        match self.table.slot(id) {
            Some(slot) => self
                .bits
                .get(slot / 64)
                .is_some_and(|word| word >> (slot % 64) & 1 == 1),
            None => self.overflow.contains(&id),
        }
    }

    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A map from transaction ids to `V`: one `Option<V>` per table slot, and
/// beyond the table an insertion-ordered spill list with an Fx index, so
/// [`TxMap::values`] visits a deterministic sequence whatever the ids.
#[derive(Debug, Clone)]
pub struct TxMap<V> {
    table: Arc<TxTable>,
    /// One entry per slot; empty until the first in-table insert.
    slots: Vec<Option<V>>,
    len: usize,
    /// Entries outside the table; removal swaps the last one into the hole.
    spill: Vec<(TxId, V)>,
    /// Position of each spilled id in `spill`.
    spill_at: FxHashMap<TxId, usize>,
}

impl<V> Default for TxMap<V> {
    fn default() -> Self {
        Self::new(Arc::default())
    }
}

impl<V> TxMap<V> {
    /// An empty map over `table`.
    pub fn new(table: Arc<TxTable>) -> Self {
        Self {
            table,
            slots: Vec::new(),
            len: 0,
            spill: Vec::new(),
            spill_at: FxHashMap::default(),
        }
    }

    /// The table this map is indexed by.
    pub fn table(&self) -> &Arc<TxTable> {
        &self.table
    }

    /// Allocate the slot storage on the first in-table write.
    fn ensure_slots(&mut self) {
        if self.slots.is_empty() {
            self.slots.resize_with(self.table.len(), || None);
        }
    }

    /// The value for `id`, if present.
    pub fn get(&self, id: TxId) -> Option<&V> {
        match self.table.slot(id) {
            Some(slot) => self.slots.get(slot).and_then(Option::as_ref),
            None => self.spill_at.get(&id).map(|&at| &self.spill[at].1),
        }
    }

    /// Insert `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: TxId, value: V) -> Option<V> {
        let old = match self.table.slot(id) {
            Some(slot) => {
                self.ensure_slots();
                self.slots[slot].replace(value)
            }
            None => match self.spill_at.get(&id) {
                Some(&at) => Some(std::mem::replace(&mut self.spill[at].1, value)),
                None => {
                    self.spill_at.insert(id, self.spill.len());
                    self.spill.push((id, value));
                    None
                }
            },
        };
        self.len += usize::from(old.is_none());
        old
    }

    /// The value for `id`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, id: TxId, make: impl FnOnce() -> V) -> &mut V {
        match self.table.slot(id) {
            Some(slot) => {
                self.ensure_slots();
                let entry = &mut self.slots[slot];
                self.len += usize::from(entry.is_none());
                entry.get_or_insert_with(make)
            }
            None => {
                let (spill, len) = (&mut self.spill, &mut self.len);
                let at = *self.spill_at.entry(id).or_insert_with(|| {
                    spill.push((id, make()));
                    *len += 1;
                    spill.len() - 1
                });
                &mut self.spill[at].1
            }
        }
    }

    /// Remove `id`, returning its value.
    pub fn remove(&mut self, id: TxId) -> Option<V> {
        let old = match self.table.slot(id) {
            Some(slot) => self.slots.get_mut(slot).and_then(Option::take),
            None => self.spill_at.remove(&id).map(|at| {
                let (_, value) = self.spill.swap_remove(at);
                if let Some((moved, _)) = self.spill.get(at) {
                    self.spill_at.insert(*moved, at);
                }
                value
            }),
        };
        self.len -= usize::from(old.is_some());
        old
    }

    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every value: in-table ones in slot order, then the spilled ones.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        let spilled = self.spill.iter().map(|(_, value)| value);
        self.slots.iter().flatten().chain(spilled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::rng::{Rng, StdRng};

    const CLIENTS: u64 = 6;

    /// A table over clients `0..CLIENTS` with 0–4 transactions each.
    fn table(rng: &mut StdRng) -> Arc<TxTable> {
        let counts: Vec<u64> = (0..CLIENTS).map(|_| rng.gen_range(0..5u64)).collect();
        Arc::new(TxTable::new(&counts))
    }

    /// Ids inside and outside the table: clients one past the table, and
    /// sequence numbers past each client's count.
    fn random_id(rng: &mut StdRng) -> TxId {
        TxId::new(
            ClientId::new(rng.gen_range(0..CLIENTS + 2)),
            rng.gen_range(0..7u64),
        )
    }

    fn sorted<V: Ord + Clone>(values: impl Iterator<Item = V>) -> Vec<V> {
        let mut out: Vec<V> = values.collect();
        out.sort();
        out
    }

    #[test]
    fn slots_are_dense_and_unique() {
        let ids = [(3, 0), (0, 0), (3, 1), (0, 1), (3, 2), (1, 0)]
            .map(|(c, s)| TxId::new(ClientId::new(c), s));
        let table = TxTable::new(&[2, 1, 0, 3]);
        assert_eq!(table.len(), ids.len());
        let slots = sorted(ids.iter().map(|&id| table.slot(id).unwrap()));
        assert_eq!(slots, (0..ids.len()).collect::<Vec<_>>());
        assert_eq!(table.misses(), 0);
        // Client 2 has no transactions, client 4 is past the table, and
        // client 0's third transaction was not in the workload.
        for (c, s) in [(2, 0), (4, 0), (0, 2), (u64::MAX, 0), (3, u64::MAX)] {
            assert_eq!(table.slot(TxId::new(ClientId::new(c), s)), None);
        }
        assert_eq!(table.misses(), 5);
        // The empty table counts no misses: every id is meant to overflow.
        let empty = TxTable::default();
        assert_eq!(empty.slot(ids[0]), None);
        assert_eq!(empty.misses(), 0);
    }

    /// Seeded oracle: random operations on a `TxSet` and a `TxMap` return
    /// exactly what an `FxHashSet` / `FxHashMap` model returns, call by
    /// call, over ids inside and outside the table — including on clones,
    /// written after cloning, which must not disturb the original.
    #[test]
    fn random_ops_match_the_hash_container_model() {
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let table = if seed % 5 == 0 {
                Arc::default()
            } else {
                table(&mut rng)
            };
            let mut set = TxSet::new(Arc::clone(&table));
            let mut set_model = FxHashSet::default();
            let mut map = TxMap::new(Arc::clone(&table));
            let mut map_model = FxHashMap::default();
            let mut snapshot = None;
            for step in 0..300 {
                let id = random_id(&mut rng);
                let at = format!("seed {seed} step {step} {id}");
                match rng.gen_range(0..9u32) {
                    0 => assert_eq!(set.insert(id), set_model.insert(id), "{at}"),
                    1 => assert_eq!(set.remove(id), set_model.remove(&id), "{at}"),
                    2 => assert_eq!(set.contains(id), set_model.contains(&id), "{at}"),
                    3 => {
                        let value = rng.gen_range(0..1_000u64);
                        assert_eq!(map.insert(id, value), map_model.insert(id, value), "{at}");
                    }
                    4 => assert_eq!(map.remove(id), map_model.remove(&id), "{at}"),
                    5 => assert_eq!(map.get(id), map_model.get(&id), "{at}"),
                    6 => {
                        let value = rng.gen_range(0..1_000u64);
                        let got = map.get_or_insert_with(id, || value);
                        let want = map_model.entry(id).or_insert(value);
                        assert_eq!(got, want, "{at}");
                        *got += 1;
                        *want += 1;
                    }
                    7 => {
                        snapshot = Some((
                            set.clone(),
                            set_model.clone(),
                            map.clone(),
                            map_model.clone(),
                        ));
                    }
                    _ => {
                        // Copy-on-write: mutate the live containers, then
                        // check the snapshot still matches its own model.
                        if let Some((s, s_model, m, m_model)) = &snapshot {
                            for id in s_model.iter().chain(m_model.keys()) {
                                assert!(s.contains(*id) == s_model.contains(id), "{at}");
                                assert_eq!(m.get(*id), m_model.get(id), "{at}");
                            }
                            assert_eq!(s.len(), s_model.len(), "{at}");
                            assert_eq!(m.len(), m_model.len(), "{at}");
                            let values = sorted(m.values().copied());
                            assert_eq!(values, sorted(m_model.values().copied()), "{at}");
                        }
                    }
                }
                assert_eq!(set.len(), set_model.len(), "{at}");
                assert_eq!(set.is_empty(), set_model.is_empty(), "{at}");
                assert_eq!(map.len(), map_model.len(), "{at}");
                assert_eq!(
                    sorted(map.values().copied()),
                    sorted(map_model.values().copied()),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn values_visit_slots_in_order_then_spill_in_insertion_order() {
        let id = |c, s| TxId::new(ClientId::new(c), s);
        let table = Arc::new(TxTable::new(&[2, 1]));
        let mut map = TxMap::new(table);
        for (i, key) in [id(9, 0), id(1, 0), id(8, 3), id(0, 0), id(7, 1)]
            .into_iter()
            .enumerate()
        {
            map.insert(key, i);
        }
        assert_eq!(map.values().copied().collect::<Vec<_>>(), [3, 1, 0, 2, 4]);
        // Removing a spilled entry moves the last one into its place.
        assert_eq!(map.remove(id(9, 0)), Some(0));
        assert_eq!(map.values().copied().collect::<Vec<_>>(), [3, 1, 4, 2]);
        assert_eq!(map.get(id(7, 1)), Some(&4));
    }
}
