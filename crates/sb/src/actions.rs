//! Output actions of a sequenced-broadcast instance.
//!
//! The PBFT state machine is IO-free: every handler returns a list of
//! [`SbAction`]s describing what the hosting replica should do — broadcast
//! messages, deliver blocks, or take note of control events. Keeping IO out
//! of the state machine makes it directly unit-testable and lets the same
//! code run under the discrete-event simulation or any other transport.

use crate::messages::SbMessage;
use orthrus_types::{ReplicaId, SharedBlock, StableCheckpoint, View};

/// An instruction from an SB instance to its hosting replica.
#[derive(Debug, Clone, PartialEq)]
pub enum SbAction {
    /// Send `msg` to every *other* replica (the instance has already applied
    /// the message's effect on itself where relevant).
    Broadcast {
        /// Message to broadcast.
        msg: SbMessage,
    },
    /// The instance delivered `block`: it is now (partially) ordered at its
    /// sequence number and may enter the partial/global logs.
    Deliver {
        /// Delivered block (shared handle — the same allocation the
        /// pre-prepare carried; the partial and global logs keep referencing
        /// it without copying).
        block: SharedBlock,
    },
    /// The instance moved to a new view with a new leader (used by the host
    /// for bookkeeping and by the statistics collector).
    ViewChanged {
        /// The view now in force.
        view: View,
        /// Leader of the new view.
        leader: ReplicaId,
    },
    /// The instance established a stable checkpoint: the quorum certificate
    /// covers all sequence numbers up to and including `checkpoint.seq`, and
    /// the instance's own protocol state below the low-water mark has been
    /// garbage-collected. The hosting replica uses the certificate to
    /// truncate its partial/global logs and to anchor state snapshots.
    StableCheckpoint {
        /// The quorum-certified checkpoint.
        checkpoint: StableCheckpoint,
    },
}

/// Helper for accumulating actions inside the instance implementation.
#[derive(Debug, Default)]
pub(crate) struct ActionSink {
    actions: Vec<SbAction>,
}

impl ActionSink {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn broadcast(&mut self, msg: SbMessage) {
        self.actions.push(SbAction::Broadcast { msg });
    }

    pub(crate) fn deliver(&mut self, block: SharedBlock) {
        self.actions.push(SbAction::Deliver { block });
    }

    pub(crate) fn view_changed(&mut self, view: View, leader: ReplicaId) {
        self.actions.push(SbAction::ViewChanged { view, leader });
    }

    pub(crate) fn stable_checkpoint(&mut self, checkpoint: StableCheckpoint) {
        self.actions.push(SbAction::StableCheckpoint { checkpoint });
    }

    pub(crate) fn into_vec(self) -> Vec<SbAction> {
        self.actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::{Block, BlockParams, Epoch, InstanceId, Rank, SeqNum, SystemState};
    use std::sync::Arc;

    fn block() -> SharedBlock {
        Arc::new(Block::no_op(BlockParams {
            instance: InstanceId::new(0),
            sn: SeqNum::new(0),
            epoch: Epoch::new(0),
            view: View::new(0),
            proposer: ReplicaId::new(0),
            rank: Rank::new(0),
            state: SystemState::new(1),
        }))
    }

    #[test]
    fn sink_collects_in_order() {
        let checkpoint = StableCheckpoint {
            instance: InstanceId::new(0),
            seq: SeqNum::new(3),
            state_digest: orthrus_types::Digest::EMPTY,
            proof: orthrus_types::CheckpointProof {
                voters: vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
            },
        };
        let preprepare = SbMessage::PrePrepare { block: block() };
        let delivered = block();
        let mut sink = ActionSink::new();
        sink.broadcast(preprepare.clone());
        sink.deliver(delivered.clone());
        sink.view_changed(View::new(1), ReplicaId::new(1));
        sink.stable_checkpoint(checkpoint.clone());
        assert_eq!(
            sink.into_vec(),
            vec![
                SbAction::Broadcast { msg: preprepare },
                SbAction::Deliver { block: delivered },
                SbAction::ViewChanged {
                    view: View::new(1),
                    leader: ReplicaId::new(1),
                },
                SbAction::StableCheckpoint { checkpoint },
            ]
        );
    }
}
