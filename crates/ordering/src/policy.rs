//! The global-ordering policy abstraction.
//!
//! Every Multi-BFT protocol in the paper takes the blocks delivered by the
//! per-instance SB protocols and merges them into one global log; they differ
//! in *how* that merge is computed:
//!
//! * ISS, Mir-BFT and RCC use a **pre-determined** interleaving of sequence
//!   numbers ([`crate::predetermined::PredeterminedOrdering`]);
//! * DQBFT funnels delivered block ids through one **dedicated ordering
//!   instance** ([`crate::dqbft::DqbftOrdering`]);
//! * Ladon — and Orthrus for its contract transactions — uses **dynamic
//!   rank-based ordering** ([`crate::ladon::LadonOrdering`]).
//!
//! A policy is a deterministic function of the blocks it is fed, so every
//! honest replica running the same policy over the same delivered blocks
//! obtains the same global log, without extra communication (DQBFT's decision
//! stream also goes through consensus and is therefore identical everywhere).

use orthrus_types::{BlockId, SharedBlock};

/// A deterministic rule turning per-instance deliveries into a global order.
pub trait GlobalOrderingPolicy {
    /// Feed one block delivered by its SB instance. Returns the blocks that
    /// become globally confirmed as a result, in global order. May return
    /// zero blocks (the delivery filled no gap) or several (it unblocked a
    /// prefix). Blocks move through the policy as shared handles; buffering
    /// and confirming never copies transaction data.
    fn on_deliver(&mut self, block: SharedBlock) -> Vec<SharedBlock>;

    /// Feed one ordering decision (only meaningful for DQBFT, where the
    /// dedicated ordering instance delivers the ids of data blocks in their
    /// global order). The default implementation ignores decisions.
    fn on_order_decision(&mut self, _id: BlockId) -> Vec<SharedBlock> {
        Vec::new()
    }

    /// Number of blocks delivered but not yet globally confirmed (waiting for
    /// a gap to fill). Used by the metrics and by back-pressure heuristics.
    fn pending(&self) -> usize;
}

#[cfg(test)]
pub(crate) mod test_support {
    use orthrus_types::{
        Block, BlockParams, Epoch, InstanceId, Rank, ReplicaId, SeqNum, SharedBlock, SystemState,
        View,
    };

    /// Build a no-op block for ordering tests.
    pub(crate) fn block(instance: u32, sn: u64, rank: u64) -> SharedBlock {
        std::sync::Arc::new(Block::no_op(BlockParams {
            instance: InstanceId::new(instance),
            sn: SeqNum::new(sn),
            epoch: Epoch::new(0),
            view: View::new(0),
            proposer: ReplicaId::new(instance),
            rank: Rank::new(rank),
            state: SystemState::new(4),
        }))
    }
}
