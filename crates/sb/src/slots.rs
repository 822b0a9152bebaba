//! The per-sequence-number slot list of a PBFT instance.
//!
//! An instance only ever holds a short run of sequence numbers: delivered
//! slots above the last stable checkpoint plus the leader's in-flight
//! proposals. Votes land almost always on the newest slot or a few below it,
//! so a `Vec` kept sorted by sequence number answers them with a probe of its
//! back or a binary search over a handful of entries, where an ordered tree
//! chases pointers through separately allocated nodes. It is deliberately not
//! a window indexed by `sn - base`: a vote for a far-ahead `sn` (a Byzantine
//! sender may name any) still costs exactly one entry.

use orthrus_types::SeqNum;

/// Values keyed by sequence number, kept sorted by sequence number. The
/// keys sit apart from the values, so a lookup reads one packed run of keys
/// instead of one key per value-sized stride.
#[derive(Debug, Clone)]
pub(crate) struct SlotList<V> {
    /// Ascending; `values[i]` belongs to `sns[i]`.
    sns: Vec<SeqNum>,
    values: Vec<V>,
}

impl<V> Default for SlotList<V> {
    fn default() -> Self {
        Self {
            sns: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<V> SlotList<V> {
    /// Where `sn` sits: `Ok(index)` if present, `Err(index)` where it would
    /// be inserted. The back is probed first because new votes target the
    /// newest slot.
    fn position(&self, sn: SeqNum) -> Result<usize, usize> {
        match self.sns.last() {
            None => Err(0),
            Some(&last) if last == sn => Ok(self.sns.len() - 1),
            Some(&last) if last < sn => Err(self.sns.len()),
            Some(_) => self.sns.binary_search(&sn),
        }
    }

    /// Number of retained slots.
    pub(crate) fn len(&self) -> usize {
        self.sns.len()
    }

    pub(crate) fn get_mut(&mut self, sn: SeqNum) -> Option<&mut V> {
        let index = self.position(sn).ok()?;
        Some(&mut self.values[index])
    }

    /// The slot for `sn`, inserted empty if absent.
    pub(crate) fn get_or_default(&mut self, sn: SeqNum) -> &mut V
    where
        V: Default,
    {
        let index = match self.position(sn) {
            Ok(index) => index,
            Err(index) => {
                self.sns.insert(index, sn);
                self.values.insert(index, V::default());
                index
            }
        };
        &mut self.values[index]
    }

    /// Keep only the slots for which `keep` returns true, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(SeqNum, &mut V) -> bool) {
        let mut kept = 0;
        for index in 0..self.sns.len() {
            if keep(self.sns[index], &mut self.values[index]) {
                // Everything in `kept..index` was dropped, so swapping keeps
                // the survivors in order.
                self.sns.swap(kept, index);
                self.values.swap(kept, index);
                kept += 1;
            }
        }
        self.sns.truncate(kept);
        self.values.truncate(kept);
    }

    /// The slots in ascending sequence-number order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SeqNum, &V)> {
        self.sns.iter().copied().zip(&self.values)
    }

    /// The slots in ascending sequence-number order, mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (SeqNum, &mut V)> {
        self.sns.iter().copied().zip(&mut self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::rng::{Rng, StdRng};
    use std::collections::BTreeMap;

    /// A key the way a PBFT instance meets them: mostly the newest slot or
    /// just past it, sometimes below the lowest retained slot, sometimes far
    /// ahead (a Byzantine vote for `u64::MAX - 1`).
    fn draw_sn(rng: &mut StdRng, model: &BTreeMap<SeqNum, u64>) -> SeqNum {
        const FAR: u64 = 1 << 40;
        let low = model.keys().next().map_or(0, |sn| sn.value());
        // The newest slot of the in-flight window, far-ahead entries aside.
        let high = model
            .keys()
            .rev()
            .map(|sn| sn.value())
            .find(|&sn| sn < FAR)
            .unwrap_or(0);
        SeqNum::new(match rng.gen_range(0..10u32) {
            0..=3 => high + rng.gen_range(0..3u64),
            4..=5 => rng.gen_range(low.min(high)..=high),
            6 => low.saturating_sub(rng.gen_range(1..4u64)),
            7 => u64::MAX - 1,
            8 => high + rng.gen_range(0..1_000_000u64),
            _ => rng.gen_range(0..64u64),
        })
    }

    /// Oracle test: seeded random `get_or_default` / `get_mut` / `retain`
    /// sequences, checked call by call against a `BTreeMap` model —
    /// every return value, and after every call the keys, their order, the
    /// values and `len()`. A slot not yet present (far-ahead ones included)
    /// adds exactly one entry.
    #[test]
    fn slot_list_matches_an_ordered_map() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut list: SlotList<u64> = SlotList::default();
            let mut model: BTreeMap<SeqNum, u64> = BTreeMap::new();
            for step in 0..2_000 {
                let sn = draw_sn(&mut rng, &model);
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let before = list.len();
                        let fresh = !model.contains_key(&sn);
                        *list.get_or_default(sn) += 1;
                        *model.entry(sn).or_default() += 1;
                        assert_eq!(list.len(), before + usize::from(fresh), "seed {seed}");
                    }
                    5..=8 => {
                        let got = list.get_mut(sn).map(|v| {
                            *v += 10;
                            *v
                        });
                        let want = model.get_mut(&sn).map(|v| {
                            *v += 10;
                            *v
                        });
                        assert_eq!(got, want, "seed {seed}");
                    }
                    _ => {
                        // The checkpoint GC's shape: drop what lies at or
                        // below a mark unless the value says keep it.
                        let mark = draw_sn(&mut rng, &model);
                        let keep = |sn: SeqNum, v: &mut u64| sn > mark || v.is_multiple_of(3);
                        list.retain(keep);
                        model.retain(|&sn, v| keep(sn, v));
                    }
                }
                let listed: Vec<(SeqNum, u64)> = list.iter().map(|(sn, v)| (sn, *v)).collect();
                let modeled: Vec<(SeqNum, u64)> = model.iter().map(|(sn, v)| (*sn, *v)).collect();
                assert_eq!(listed, modeled, "seed {seed} step {step}");
                assert_eq!(list.len(), model.len());
            }
        }
    }
}
