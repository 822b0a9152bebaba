//! Ladon's dynamic rank-based global ordering (paper Appendix A,
//! Algorithm 3), used by both the Ladon baseline and Orthrus (for its
//! contract transactions).
//!
//! Blocks are globally ordered by `(rank, instance)`. A delivered block `b`
//! can be confirmed as soon as the *bar* — the lowest `(rank + 1, instance)`
//! over the most recently delivered block of every instance — exceeds `b`'s
//! key, because rank monotonicity guarantees that no instance can later
//! deliver a block below the bar.
//!
//! Compared with the pre-determined interleaving, a straggler instance only
//! delays confirmation until its *next* delivery (which then carries a large,
//! up-to-date rank and advances the bar past everything waiting), instead of
//! forcing every other instance to wait for the straggler to fill each of its
//! reserved slots.

use crate::policy::GlobalOrderingPolicy;
use orthrus_types::{Block, InstanceId, Rank, SharedBlock};
use std::collections::BTreeMap;

/// The global ordering key of a block: `(rank, instance)`, compared
/// lexicographically (the paper's `≺` relation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderKey {
    /// The block's rank.
    pub rank: Rank,
    /// The block's instance (tie-breaker).
    pub instance: InstanceId,
}

impl OrderKey {
    /// Key of a block.
    pub fn of(block: &Block) -> Self {
        Self {
            rank: block.header.rank,
            instance: block.header.instance,
        }
    }
}

/// Dynamic rank-based global ordering.
#[derive(Debug, Clone)]
pub struct LadonOrdering {
    /// Number of instances `m`.
    num_instances: u32,
    /// Rank of the most recently delivered block per instance (`P'`).
    last_delivered: Vec<Option<Rank>>,
    /// Blocks delivered but not yet confirmed (`W`), keyed by order key plus
    /// sequence number to keep keys unique even if a Byzantine leader reuses
    /// a rank within its instance.
    waiting: BTreeMap<(OrderKey, u64), SharedBlock>,
}

impl LadonOrdering {
    /// Create the ordering for `m` instances.
    pub fn new(num_instances: u32) -> Self {
        Self {
            num_instances: num_instances.max(1),
            last_delivered: vec![None; num_instances.max(1) as usize],
            waiting: BTreeMap::new(),
        }
    }

    /// The current bar: the lowest `(rank + 1, instance)` over every
    /// instance's last delivered block. Instances that have not delivered yet
    /// contribute `(1, instance)` — their first block will carry rank ≥ 1 —
    /// which keeps the bar conservative (initially `(1, 0)`, matching the
    /// paper's `(0, 0)` initialisation in effect).
    pub fn bar(&self) -> OrderKey {
        let mut bar = OrderKey {
            rank: Rank::new(u64::MAX),
            instance: InstanceId::new(u32::MAX),
        };
        for (idx, last) in self.last_delivered.iter().enumerate() {
            let candidate = OrderKey {
                rank: last.map_or(Rank::new(1), Rank::next),
                instance: InstanceId::new(idx as u32),
            };
            if candidate < bar {
                bar = candidate;
            }
        }
        bar
    }
}

impl GlobalOrderingPolicy for LadonOrdering {
    fn on_deliver(&mut self, block: SharedBlock) -> Vec<SharedBlock> {
        let instance = block.header.instance.as_usize();
        if instance >= self.last_delivered.len() {
            self.last_delivered.resize(instance + 1, None);
            self.num_instances = (instance + 1) as u32;
        }
        // Update P': the most recent delivered block of this instance. Ranks
        // are monotone within an instance, so `max` and "most recent"
        // coincide; `max` also tolerates Byzantine rank regressions.
        let entry = &mut self.last_delivered[instance];
        *entry = Some(match *entry {
            Some(prev) => prev.max(block.header.rank),
            None => block.header.rank,
        });
        self.waiting
            .insert((OrderKey::of(&block), block.header.sn.value()), block);

        // Confirm every waiting block strictly below the bar.
        let bar = self.bar();
        let mut confirmed = Vec::new();
        while let Some((&(key, sn), _)) = self.waiting.iter().next() {
            if key < bar {
                let block = self
                    .waiting
                    .remove(&(key, sn))
                    .expect("key taken from iterator");
                confirmed.push(block);
            } else {
                break;
            }
        }
        confirmed
    }

    fn pending(&self) -> usize {
        self.waiting.len()
    }

    fn name(&self) -> &'static str {
        "ladon"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::block;
    use std::sync::Arc;

    #[test]
    fn bar_starts_conservative() {
        let ord = LadonOrdering::new(3);
        assert_eq!(
            ord.bar(),
            OrderKey {
                rank: Rank::new(1),
                instance: InstanceId::new(0)
            }
        );
    }

    #[test]
    fn confirmation_respects_the_bar() {
        let mut ord = LadonOrdering::new(2);
        // Instance 0 delivers rank 1. The bar is (1, instance 1) because
        // instance 1 has not delivered yet; key (1, instance 0) lies below it
        // (instance tie-break), so the block confirms immediately — no future
        // block of either instance can have a lower key.
        assert_eq!(ord.on_deliver(block(0, 0, 1)).len(), 1);
        // Instance 0's next block (rank 2) must wait: instance 1 could still
        // deliver a rank-1 block, whose key (1, 1) would be lower.
        assert!(ord.on_deliver(block(0, 1, 2)).is_empty());
        assert_eq!(ord.pending(), 1);
        // Instance 1's first delivery (rank 3) lifts the bar to (3, 0):
        // instance 0's rank-2 block confirms, instance 1's rank-3 block
        // still waits (its key (3,1) is not below the bar (3,0)).
        let confirmed = ord.on_deliver(block(1, 0, 3));
        let ranks: Vec<u64> = confirmed.iter().map(|b| b.header.rank.value()).collect();
        assert_eq!(ranks, vec![2]);
        assert_eq!(ord.pending(), 1);
    }

    #[test]
    fn straggler_catchup_confirms_backlog_at_once() {
        let mut ord = LadonOrdering::new(2);
        // Fast instance 1 delivers ranks 1..=5; straggler instance 0 has
        // delivered nothing, so everything waits (the bar stays at (1, 0)).
        for (sn, rank) in (1..=5).enumerate() {
            assert!(ord.on_deliver(block(1, sn as u64, rank)).is_empty());
        }
        assert_eq!(ord.pending(), 5);
        // The straggler finally delivers a block with an up-to-date rank (6):
        // the bar is min((7,0), (6,1)) = (6,1), so the whole backlog of
        // instance 1 (ranks 1..=5) confirms at once, and the straggler's own
        // rank-6 block confirms too (its key (6,0) lies below (6,1)).
        let confirmed = ord.on_deliver(block(0, 0, 6));
        assert_eq!(confirmed.len(), 6);
        assert_eq!(ord.pending(), 0);
    }

    #[test]
    fn order_is_by_rank_then_instance() {
        let mut ord = LadonOrdering::new(3);
        let mut confirmed = Vec::new();
        confirmed.extend(ord.on_deliver(block(2, 0, 2)));
        confirmed.extend(ord.on_deliver(block(1, 0, 2)));
        confirmed.extend(ord.on_deliver(block(0, 0, 5)));
        // bar = min((6,0),(3,1),(3,2)) = (3,1): both rank-2 blocks confirm,
        // instance 1 before instance 2.
        let keys: Vec<(u64, u32)> = confirmed
            .iter()
            .map(|b| (b.header.rank.value(), b.header.instance.value()))
            .collect();
        assert_eq!(keys, vec![(2, 1), (2, 2)]);
    }

    /// Agreement: two replicas that deliver the same blocks in different
    /// orders confirm the same global prefix in the same order. (Seeded-loop
    /// replacement for the former property-based test.)
    #[test]
    fn confirmation_order_is_delivery_order_independent() {
        use orthrus_types::rng::{SliceRandom, StdRng};
        let m = 3u32;
        // Per-instance monotone ranks loosely interleaved across instances.
        let mut blocks = Vec::new();
        let mut rank = 1u64;
        for sn in 0..4u64 {
            for inst in 0..m {
                blocks.push(block(inst, sn, rank));
                rank += 1;
            }
        }
        let run = |order: &[SharedBlock]| {
            let mut ord = LadonOrdering::new(m);
            let mut confirmed = Vec::new();
            for b in order {
                confirmed.extend(ord.on_deliver(Arc::clone(b)));
            }
            confirmed.iter().map(|b| b.id()).collect::<Vec<_>>()
        };
        // Replica A: per-instance in-order delivery, instances interleaved
        // round-robin (canonical).
        let canonical = run(&blocks);

        for seed in 0u64..150 {
            // Replica B: instances still deliver in order internally, but the
            // interleaving across instances is random.
            let mut per_instance: Vec<Vec<SharedBlock>> = vec![Vec::new(); m as usize];
            for b in &blocks {
                per_instance[b.header.instance.as_usize()].push(Arc::clone(b));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut shuffled = Vec::new();
            let mut cursors = vec![0usize; m as usize];
            while shuffled.len() < blocks.len() {
                let available: Vec<usize> = (0..m as usize)
                    .filter(|i| cursors[*i] < per_instance[*i].len())
                    .collect();
                let pick = *available.choose(&mut rng).unwrap();
                shuffled.push(Arc::clone(&per_instance[pick][cursors[pick]]));
                cursors[pick] += 1;
            }
            let other = run(&shuffled);

            // One run may have confirmed a longer prefix than the other, but
            // the shared prefix must be identical.
            let common = canonical.len().min(other.len());
            assert_eq!(&canonical[..common], &other[..common], "seed {seed}");
        }
    }

    /// Liveness/totality: once every instance has delivered its last block
    /// with the globally largest rank observed so far plus one sentinel
    /// block, every earlier block is confirmed.
    #[test]
    fn sentinel_flush_confirms_everything() {
        let m = 4u32;
        for num_blocks in 1usize..30 {
            let mut ord = LadonOrdering::new(m);
            let mut rank = 1u64;
            let mut total = 0usize;
            let mut confirmed = 0usize;
            for sn in 0..num_blocks as u64 {
                for inst in 0..m {
                    confirmed += ord.on_deliver(block(inst, sn, rank)).len();
                    total += 1;
                    rank += 1;
                }
            }
            // Flush with one sentinel block per instance carrying the highest
            // ranks.
            for inst in 0..m {
                confirmed += ord.on_deliver(block(inst, num_blocks as u64, rank)).len();
                rank += 1;
            }
            assert!(confirmed >= total, "confirmed {confirmed} of {total}");
        }
    }
}
