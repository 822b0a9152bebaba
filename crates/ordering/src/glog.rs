//! The global log (`glog`): the single, totally ordered sequence of blocks
//! shared by the whole Multi-BFT system (paper §V-B).
//!
//! Blocks are appended by the global ordering policy (pre-determined, DQBFT
//! or Ladon); the execution module consumes them in order through the cursor,
//! executing contract transactions sequentially.
//!
//! # Retention
//!
//! The log keeps the id of every block ever confirmed (a few words per
//! entry, for duplicate suppression) but releases the *payloads* (the
//! `Arc<Block>` handles) of executed blocks below the stable-checkpoint
//! frontier in [`GlobalLog::truncate_before`], so a long run holds payload
//! memory proportional to the in-flight window, not the full history.

use orthrus_types::{BlockId, FxHashSet, SharedBlock, SystemState};
use std::collections::VecDeque;
use std::sync::Arc;

/// The global log.
#[derive(Debug, Default, Clone)]
pub struct GlobalLog {
    /// Retained block payloads; `blocks[0]` sits at global position `base`.
    blocks: VecDeque<SharedBlock>,
    /// Global position of the first retained payload (number of truncated
    /// entries).
    base: usize,
    /// Every confirmed block id (compact; never truncated).
    ids: FxHashSet<BlockId>,
    /// Global position of the first entry not yet consumed by the execution
    /// module.
    cursor: usize,
    /// Wire-size estimate of the retained payloads.
    retained_bytes: u64,
}

impl GlobalLog {
    /// An empty global log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a globally confirmed block. Duplicate block ids are ignored
    /// (the ordering policy emits each block exactly once, but the execution
    /// layer's abort path may try to re-append during recovery).
    pub fn append(&mut self, block: SharedBlock) {
        if self.ids.insert(block.id()) {
            self.retained_bytes += block.wire_bytes();
            self.blocks.push_back(block);
        }
    }

    /// Number of blocks ever appended (truncated entries included).
    pub fn len(&self) -> usize {
        self.base + self.blocks.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of block payloads currently retained (not yet released by
    /// checkpoint truncation).
    pub fn retained_len(&self) -> usize {
        self.blocks.len()
    }

    /// Wire-size estimate of the retained payloads.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes
    }

    /// The first appended-but-not-yet-executed block, if any.
    pub fn first_pending(&self) -> Option<&SharedBlock> {
        self.blocks.get(self.cursor - self.base)
    }

    /// Pop the next block for execution, advancing the cursor. Returns a
    /// clone of the shared handle (a reference-count bump).
    pub fn pop_pending(&mut self) -> Option<SharedBlock> {
        let block = Arc::clone(self.blocks.get(self.cursor - self.base)?);
        self.cursor += 1;
        Some(block)
    }

    /// Checkpoint-driven truncation: release executed payloads from the
    /// front of the log whose `(instance, sn)` is covered by `stable`, the
    /// per-instance stable-checkpoint frontier. Truncation is prefix-only —
    /// the first unexecuted or uncovered entry stops it — so the retained
    /// window stays contiguous and the cursor always points into it.
    ///
    /// The confirmed-id set is never truncated: duplicate suppression keeps
    /// working over the full history.
    pub fn truncate_before(&mut self, stable: &SystemState) {
        while self.base < self.cursor {
            let Some(front) = self.blocks.front() else {
                break;
            };
            let covered = stable
                .get(front.header.instance)
                .is_some_and(|sn| sn >= front.header.sn);
            if !covered {
                break;
            }
            self.retained_bytes -= front.wire_bytes();
            self.blocks.pop_front();
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::{
        Block, BlockParams, Epoch, InstanceId, Rank, ReplicaId, SeqNum, SystemState, View,
    };

    fn block(instance: u32, sn: u64) -> SharedBlock {
        Arc::new(Block::no_op(BlockParams {
            instance: InstanceId::new(instance),
            sn: SeqNum::new(sn),
            epoch: Epoch::new(0),
            view: View::new(0),
            proposer: ReplicaId::new(instance),
            rank: Rank::new(sn),
            state: SystemState::new(2),
        }))
    }

    #[test]
    fn append_preserves_order_and_dedups() {
        let mut glog = GlobalLog::new();
        glog.append(block(0, 0));
        glog.append(block(1, 0));
        glog.append(block(0, 0)); // duplicate
        assert_eq!(glog.len(), 2);
        let order: Vec<BlockId> = std::iter::from_fn(|| glog.pop_pending())
            .map(|b| b.id())
            .collect();
        assert_eq!(
            order,
            vec![
                BlockId::new(InstanceId::new(0), SeqNum::new(0)),
                BlockId::new(InstanceId::new(1), SeqNum::new(0)),
            ]
        );
    }

    #[test]
    fn cursor_walks_the_log() {
        let mut glog = GlobalLog::new();
        glog.append(block(0, 0));
        glog.append(block(1, 0));
        assert_eq!(
            glog.first_pending().unwrap().header.instance,
            InstanceId::new(0)
        );
        assert_eq!(
            glog.pop_pending().unwrap().header.instance,
            InstanceId::new(0)
        );
        assert_eq!(
            glog.pop_pending().unwrap().header.instance,
            InstanceId::new(1)
        );
        assert!(glog.pop_pending().is_none());
    }

    #[test]
    fn truncation_releases_executed_covered_payloads_only() {
        let mut glog = GlobalLog::new();
        glog.append(block(0, 0));
        glog.append(block(1, 0));
        glog.append(block(0, 1));
        let full = glog.retained_bytes();

        // Nothing executed yet: truncation is a no-op even with coverage.
        let mut stable = SystemState::new(2);
        stable.observe(InstanceId::new(0), SeqNum::new(5));
        stable.observe(InstanceId::new(1), SeqNum::new(5));
        glog.truncate_before(&stable);
        assert_eq!(glog.retained_len(), 3);

        // Execute two entries; only instance 0 is checkpoint-covered.
        glog.pop_pending();
        glog.pop_pending();
        let mut partial = SystemState::new(2);
        partial.observe(InstanceId::new(0), SeqNum::new(5));
        glog.truncate_before(&partial);
        // (0,0) released; (1,0) uncovered stops the prefix truncation.
        assert_eq!(glog.retained_len(), 2);
        assert!(glog.retained_bytes() < full);

        // Full coverage releases the rest of the executed prefix, and the
        // cursor keeps working over the truncated representation.
        glog.truncate_before(&stable);
        assert_eq!(glog.retained_len(), 1);
        assert_eq!(
            glog.first_pending().unwrap().id(),
            BlockId::new(InstanceId::new(0), SeqNum::new(1))
        );
        assert_eq!(glog.pop_pending().unwrap().header.sn, SeqNum::new(1));
        glog.truncate_before(&stable);
        assert_eq!(glog.retained_len(), 0);
        assert_eq!(glog.retained_bytes(), 0);

        // History survives truncation: len and dedup are intact.
        assert_eq!(glog.len(), 3);
        glog.append(block(0, 0)); // duplicate of a truncated entry
        assert_eq!(glog.len(), 3);

        // New appends land after the truncated prefix and execute normally.
        glog.append(block(1, 1));
        assert_eq!(glog.retained_len(), 1);
        assert_eq!(glog.pop_pending().unwrap().header.sn, SeqNum::new(1));
    }
}
