//! The partial log (`plog`): per-instance sequence of delivered blocks.
//!
//! Each SB instance maintains its own partial log (paper §V-B). Blocks enter
//! the log when the instance delivers them; the execution module walks the
//! log in sequence-number order ("first pending transaction") to execute
//! payment transactions without waiting for the global log.

use orthrus_types::{InstanceId, SeqNum, SharedBlock, SystemState};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The partial log of a single SB instance.
#[derive(Debug, Default, Clone)]
pub struct PartialLog {
    blocks: BTreeMap<SeqNum, SharedBlock>,
    /// First sequence number not yet consumed by the execution module.
    cursor: SeqNum,
    /// Wire-size estimate of every retained block, maintained on insert and
    /// truncation so retained-memory accounting is O(1) to read.
    retained_bytes: u64,
}

impl PartialLog {
    /// An empty partial log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a delivered block at its sequence number. The log stores the
    /// shared handle the SB instance delivered — no transaction data is
    /// copied. Re-inserting the same sequence number keeps the first handle
    /// (SB agreement guarantees the contents are identical).
    pub fn insert(&mut self, block: SharedBlock) {
        let bytes = block.wire_bytes();
        if let std::collections::btree_map::Entry::Vacant(entry) =
            self.blocks.entry(block.header.sn)
        {
            entry.insert(block);
            self.retained_bytes += bytes;
        }
    }

    /// The block at `sn`, if delivered.
    pub fn get(&self, sn: SeqNum) -> Option<&SharedBlock> {
        self.blocks.get(&sn)
    }

    /// Number of blocks in the log (delivered, not yet garbage-collected).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The execution cursor: first sequence number not yet consumed.
    pub fn cursor(&self) -> SeqNum {
        self.cursor
    }

    /// The next contiguous block available for execution (the paper's
    /// `firstPending(plog[i])`), if it has been delivered.
    pub fn first_pending(&self) -> Option<&SharedBlock> {
        self.blocks.get(&self.cursor)
    }

    /// Pop the next contiguous block for execution, advancing the cursor.
    /// Returns a clone of the shared handle (a reference-count bump); the
    /// block stays in the log until garbage collection.
    pub fn pop_pending(&mut self) -> Option<SharedBlock> {
        let block = Arc::clone(self.blocks.get(&self.cursor)?);
        self.cursor = self.cursor.next();
        Some(block)
    }

    /// Checkpoint-driven truncation: drop blocks with sequence numbers at or
    /// below `stable` that the execution module has already consumed. The
    /// quorum certificate behind `stable` guarantees the prefix is durable at
    /// `2f + 1` replicas, so the `Arc` handles can be released; anything the
    /// cursor has not passed is retained regardless (it is still needed for
    /// execution).
    pub fn truncate_before(&mut self, stable: SeqNum) {
        let cursor = self.cursor;
        let mut freed = 0u64;
        self.blocks.retain(|k, block| {
            let keep = *k > stable || *k >= cursor;
            if !keep {
                freed += block.wire_bytes();
            }
            keep
        });
        self.retained_bytes -= freed;
    }

    /// Wire-size estimate of the retained blocks.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes
    }

    /// Iterate over all delivered blocks in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = &SharedBlock> {
        self.blocks.values()
    }
}

/// The set of partial logs of all instances, indexed by instance id.
#[derive(Debug, Default, Clone)]
pub struct PartialLogs {
    logs: BTreeMap<InstanceId, PartialLog>,
}

impl PartialLogs {
    /// Create partial logs for `m` instances.
    pub fn new(m: u32) -> Self {
        let logs = (0..m)
            .map(|i| (InstanceId::new(i), PartialLog::new()))
            .collect();
        Self { logs }
    }

    /// The partial log of `instance` (created on demand).
    pub fn get_mut(&mut self, instance: InstanceId) -> &mut PartialLog {
        self.logs.entry(instance).or_default()
    }

    /// Read-only access to the partial log of `instance`.
    pub fn get(&self, instance: InstanceId) -> Option<&PartialLog> {
        self.logs.get(&instance)
    }

    /// Iterate over `(instance, log)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, &PartialLog)> {
        self.logs.iter().map(|(i, l)| (*i, l))
    }

    /// Iterate mutably over `(instance, log)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (InstanceId, &mut PartialLog)> {
        self.logs.iter_mut().map(|(i, l)| (*i, l))
    }

    /// Total number of blocks across all instances.
    pub fn total_blocks(&self) -> usize {
        self.logs.values().map(PartialLog::len).sum()
    }

    /// Total wire-size estimate of retained blocks across all instances.
    pub fn retained_bytes(&self) -> u64 {
        self.logs.values().map(PartialLog::retained_bytes).sum()
    }

    /// Drain every block that is ready for execution: repeatedly sweep the
    /// instances in id order, popping each instance's first pending block
    /// whose referenced state `b.S` is covered by `executed` (paper §V-C) and
    /// recording its delivery in `executed`, until a full sweep makes no
    /// progress. The returned *schedule* — `(instance, block)` pairs in pop
    /// order — is exactly the order the replica's old serial walk consumed
    /// blocks in, so executing it through `Executor::process_plog_schedule`
    /// preserves the confirmation trace bit for bit.
    ///
    /// Readiness depends only on delivery coverage, never on execution
    /// outcomes, which is why the schedule can be computed up front and
    /// handed to the execution module as one batch.
    pub fn drain_ready(&mut self, executed: &mut SystemState) -> Vec<(InstanceId, SharedBlock)> {
        let mut schedule = Vec::new();
        loop {
            let mut progressed = false;
            for (instance, log) in self.logs.iter_mut() {
                let ready = log
                    .first_pending()
                    .is_some_and(|block| executed.covers(&block.header.state));
                if !ready {
                    continue;
                }
                let block = log.pop_pending().expect("first_pending was Some");
                executed.observe(*instance, block.header.sn);
                schedule.push((*instance, block));
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::{Block, BlockParams, Epoch, Rank, ReplicaId, SystemState, View};

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
    fn first_pending_requires_contiguity() {
        let mut log = PartialLog::new();
        log.insert(block(0, 1));
        assert!(log.first_pending().is_none());
        log.insert(block(0, 0));
        assert_eq!(log.first_pending().unwrap().header.sn, SeqNum::new(0));
        assert_eq!(log.pop_pending().unwrap().header.sn, SeqNum::new(0));
        assert_eq!(log.pop_pending().unwrap().header.sn, SeqNum::new(1));
        assert!(log.pop_pending().is_none());
        assert_eq!(log.cursor(), SeqNum::new(2));
    }

    #[test]
    fn duplicate_insert_keeps_first() {
        let mut log = PartialLog::new();
        let first = block(0, 0);
        log.insert(Arc::clone(&first));
        log.insert(block(0, 0));
        assert_eq!(log.len(), 1);
        assert_eq!(log.get(SeqNum::new(0)).unwrap().digest(), first.digest());
    }

    #[test]
    fn truncation_spares_unexecuted_blocks() {
        let mut log = PartialLog::new();
        for sn in 0..4 {
            log.insert(block(0, sn));
        }
        let full_bytes = log.retained_bytes();
        assert!(full_bytes > 0);
        log.pop_pending();
        log.pop_pending();
        // Truncate up to sn 3, but only executed blocks (0 and 1) may go.
        log.truncate_before(SeqNum::new(3));
        assert!(log.get(SeqNum::new(0)).is_none());
        assert!(log.get(SeqNum::new(1)).is_none());
        assert!(log.get(SeqNum::new(2)).is_some());
        assert!(log.get(SeqNum::new(3)).is_some());
        assert_eq!(log.retained_bytes(), full_bytes / 2);
    }

    #[test]
    fn retained_bytes_track_inserts_and_duplicates() {
        let mut log = PartialLog::new();
        log.insert(block(0, 0));
        let one = log.retained_bytes();
        // A duplicate insert keeps the first handle and charges nothing.
        log.insert(block(0, 0));
        assert_eq!(log.retained_bytes(), one);
        log.insert(block(0, 1));
        assert_eq!(log.retained_bytes(), 2 * one);
        log.pop_pending();
        log.pop_pending();
        log.truncate_before(SeqNum::new(1));
        assert_eq!(log.retained_bytes(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn logs_per_instance_are_independent() {
        let mut logs = PartialLogs::new(2);
        logs.get_mut(InstanceId::new(0)).insert(block(0, 0));
        logs.get_mut(InstanceId::new(1)).insert(block(1, 0));
        logs.get_mut(InstanceId::new(1)).insert(block(1, 1));
        assert_eq!(logs.get(InstanceId::new(0)).unwrap().len(), 1);
        assert_eq!(logs.get(InstanceId::new(1)).unwrap().len(), 2);
        assert_eq!(logs.total_blocks(), 3);
        assert_eq!(logs.iter().count(), 2);
    }

    #[test]
    fn on_demand_instance_creation() {
        let mut logs = PartialLogs::new(1);
        logs.get_mut(InstanceId::new(5)).insert(block(5, 0));
        assert!(logs.get(InstanceId::new(5)).is_some());
    }

    fn block_with_state(instance: u32, sn: u64, state: SystemState) -> SharedBlock {
        Arc::new(orthrus_types::Block::no_op(BlockParams {
            instance: InstanceId::new(instance),
            sn: SeqNum::new(sn),
            epoch: Epoch::new(0),
            view: View::new(0),
            proposer: ReplicaId::new(instance),
            rank: Rank::new(sn),
            state,
        }))
    }

    #[test]
    fn drain_ready_pops_in_sweep_order_and_respects_coverage() {
        let mut logs = PartialLogs::new(2);
        // Instance 1's second block requires instance 0 to have delivered
        // sn 0 first.
        let mut needs_i0 = SystemState::new(2);
        needs_i0.observe(InstanceId::new(0), SeqNum::new(0));
        logs.get_mut(InstanceId::new(0)).insert(block(0, 0));
        logs.get_mut(InstanceId::new(1))
            .insert(block_with_state(1, 0, SystemState::new(2)));
        logs.get_mut(InstanceId::new(1))
            .insert(block_with_state(1, 1, needs_i0));

        let mut executed = SystemState::new(2);
        let schedule = logs.drain_ready(&mut executed);
        // Sweep 1 pops (0, sn0) then (1, sn0); sweep 2 pops (1, sn1), which
        // became ready once instance 0's delivery was observed.
        let shape: Vec<(u32, u64)> = schedule
            .iter()
            .map(|(i, b)| (i.value(), b.header.sn.value()))
            .collect();
        assert_eq!(shape, vec![(0, 0), (1, 0), (1, 1)]);
        assert_eq!(executed.get(InstanceId::new(0)), Some(SeqNum::new(0)));
        assert_eq!(executed.get(InstanceId::new(1)), Some(SeqNum::new(1)));
        // Nothing left to drain.
        assert!(logs.drain_ready(&mut executed).is_empty());
    }

    #[test]
    fn drain_ready_leaves_uncovered_blocks_pending() {
        let mut logs = PartialLogs::new(1);
        let mut unreachable = SystemState::new(1);
        unreachable.observe(InstanceId::new(0), SeqNum::new(99));
        logs.get_mut(InstanceId::new(0))
            .insert(block_with_state(0, 0, unreachable));
        let mut executed = SystemState::new(1);
        assert!(logs.drain_ready(&mut executed).is_empty());
        assert_eq!(logs.total_blocks(), 1);
        assert_eq!(
            logs.get(InstanceId::new(0)).unwrap().cursor(),
            SeqNum::new(0)
        );
    }
}
