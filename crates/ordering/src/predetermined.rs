//! Pre-determined global ordering (ISS, Mir-BFT, RCC).
//!
//! The global position of block `(instance i, sequence number s)` is fixed in
//! advance as `s · m + i`: the log interleaves one block from every instance
//! per "round". A block can only be confirmed when every earlier position is
//! filled, so a straggler instance leaves a gap that stalls every subsequent
//! block of every other instance — exactly the behaviour the paper's Fig. 1
//! and Fig. 3c/3d demonstrate. ISS mitigates missing batches (empty buckets)
//! by delivering no-op blocks, which occupy their positions like any other
//! block; that happens at the proposal layer and is transparent here.

use crate::policy::GlobalOrderingPolicy;
use orthrus_types::SharedBlock;
use std::collections::BTreeMap;

/// Pre-determined (round-robin interleaved) global ordering.
#[derive(Debug, Clone)]
pub struct PredeterminedOrdering {
    /// Number of instances `m`.
    num_instances: u64,
    /// Next global position that must be filled before anything later can be
    /// confirmed.
    next_position: u64,
    /// Delivered blocks waiting for their position to be reached.
    buffer: BTreeMap<u64, SharedBlock>,
}

impl PredeterminedOrdering {
    /// Create the ordering for `m` instances.
    pub fn new(num_instances: u32) -> Self {
        Self {
            num_instances: u64::from(num_instances.max(1)),
            next_position: 0,
            buffer: BTreeMap::new(),
        }
    }

    /// The fixed global position of a block.
    fn position(&self, block: &SharedBlock) -> u64 {
        block.header.sn.value() * self.num_instances + u64::from(block.header.instance.value())
    }

    /// The next unfilled global position (exposed for tests and metrics).
    pub fn next_position(&self) -> u64 {
        self.next_position
    }
}

impl GlobalOrderingPolicy for PredeterminedOrdering {
    fn on_deliver(&mut self, block: SharedBlock) -> Vec<SharedBlock> {
        let position = self.position(&block);
        if position < self.next_position {
            // Late duplicate of an already-confirmed position.
            return Vec::new();
        }
        self.buffer.insert(position, block);
        let mut confirmed = Vec::new();
        while let Some(block) = self.buffer.remove(&self.next_position) {
            confirmed.push(block);
            self.next_position += 1;
        }
        confirmed
    }

    fn pending(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::block;
    use orthrus_types::InstanceId;

    #[test]
    fn confirms_in_round_robin_order() {
        let mut ord = PredeterminedOrdering::new(3);
        // Deliver out of order: (1,0), (0,0), (2,0).
        assert!(ord.on_deliver(block(1, 0, 0)).is_empty());
        let first = ord.on_deliver(block(0, 0, 0));
        assert_eq!(first.len(), 2); // positions 0 and 1
        assert_eq!(first[0].header.instance, InstanceId::new(0));
        assert_eq!(first[1].header.instance, InstanceId::new(1));
        let second = ord.on_deliver(block(2, 0, 0));
        assert_eq!(second.len(), 1);
        assert_eq!(ord.pending(), 0);
        assert_eq!(ord.next_position(), 3);
    }

    #[test]
    fn straggler_gap_blocks_everything() {
        let mut ord = PredeterminedOrdering::new(3);
        // Instances 1 and 2 race ahead by two sequence numbers; instance 0
        // (the straggler) has delivered nothing.
        for sn in 0..2 {
            for inst in 1..3 {
                assert!(ord.on_deliver(block(inst, sn, 0)).is_empty());
            }
        }
        assert_eq!(ord.pending(), 4);
        // The straggler's first block unblocks exactly one round plus the
        // buffered instance-1/2 blocks of round 0, then stalls again at
        // position 3 (instance 0, sn 1).
        let confirmed = ord.on_deliver(block(0, 0, 0));
        assert_eq!(confirmed.len(), 3);
        assert_eq!(ord.pending(), 2);
        let confirmed = ord.on_deliver(block(0, 1, 0));
        assert_eq!(confirmed.len(), 3);
        assert_eq!(ord.pending(), 0);
    }

    #[test]
    fn duplicate_deliveries_are_ignored() {
        let mut ord = PredeterminedOrdering::new(2);
        assert_eq!(ord.on_deliver(block(0, 0, 0)).len(), 1);
        assert!(ord.on_deliver(block(0, 0, 0)).is_empty());
    }

    /// Whatever the delivery interleaving, the confirmed order is always the
    /// canonical position order and every block is confirmed exactly once
    /// after all blocks are delivered. (Seeded-loop replacement for the
    /// former property-based test; 200 shuffles cover the interleavings.)
    #[test]
    fn total_order_is_position_order_under_any_interleaving() {
        use orthrus_types::rng::{SliceRandom, StdRng};
        let m = 4u32;
        let sns = 5u64;
        for seed in 0u64..200 {
            let mut blocks: Vec<_> = (0..m)
                .flat_map(|i| (0..sns).map(move |s| block(i, s, 0)))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            blocks.shuffle(&mut rng);

            let mut ord = PredeterminedOrdering::new(m);
            let mut confirmed = Vec::new();
            for b in blocks {
                confirmed.extend(ord.on_deliver(b));
            }
            assert_eq!(confirmed.len(), (m as u64 * sns) as usize);
            assert_eq!(ord.pending(), 0);
            for (idx, b) in confirmed.iter().enumerate() {
                let expected_sn = idx as u64 / m as u64;
                let expected_inst = idx as u64 % m as u64;
                assert_eq!(b.header.sn.value(), expected_sn);
                assert_eq!(u64::from(b.header.instance.value()), expected_inst);
            }
        }
    }
}
