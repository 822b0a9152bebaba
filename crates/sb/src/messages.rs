//! PBFT wire messages used by the sequenced-broadcast instances.
//!
//! The paper treats sequenced broadcast (SB) as a black box with `broadcast`
//! and `deliver` events and implements it with PBFT (§VII-A). This module
//! defines the PBFT message vocabulary: the three normal-case messages
//! (pre-prepare, prepare, commit), checkpoints, and the view-change /
//! new-view pair used by the failure detector to replace faulty leaders.

use orthrus_sim::Payload;
use orthrus_types::{Digest, InstanceId, ReplicaId, SeqNum, SharedBlock, View};

/// Size in bytes charged for a vote-style message (prepare/commit/checkpoint):
/// digest + ids + signature.
pub const VOTE_WIRE_BYTES: u64 = 128;

/// Fixed overhead charged for a view-change or new-view message on top of any
/// embedded blocks.
pub const VIEW_CHANGE_OVERHEAD_BYTES: u64 = 256;

/// A prepared certificate carried inside a view-change message: the block the
/// sender had prepared but not yet seen delivered, so the new leader can
/// re-propose it.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedProof {
    /// Sequence number of the prepared slot.
    pub sn: SeqNum,
    /// The prepared block (shared handle; carrying it in a vote bumps a
    /// reference count instead of copying the batch).
    pub block: SharedBlock,
}

/// PBFT messages exchanged inside one SB instance.
#[derive(Debug, Clone, PartialEq)]
pub enum SbMessage {
    /// Leader → backups: proposal of `block` for its sequence number.
    PrePrepare {
        /// Proposed block (carries instance, sequence number, view, rank).
        /// Shared: broadcasting the pre-prepare to `n - 1` backups clones the
        /// handle, never the transaction batch.
        block: SharedBlock,
    },
    /// Backup → all: the sender accepted the pre-prepare for `(view, sn)`.
    Prepare {
        /// Instance the vote belongs to.
        instance: InstanceId,
        /// View in which the block was proposed.
        view: View,
        /// Sequence number being voted on.
        sn: SeqNum,
        /// Digest of the block being voted on.
        digest: Digest,
        /// Voting replica.
        voter: ReplicaId,
    },
    /// Replica → all: the sender has a prepared certificate for `(view, sn)`.
    Commit {
        /// Instance the vote belongs to.
        instance: InstanceId,
        /// View in which the block was proposed.
        view: View,
        /// Sequence number being voted on.
        sn: SeqNum,
        /// Digest of the block being voted on.
        digest: Digest,
        /// Voting replica.
        voter: ReplicaId,
    },
    /// Periodic checkpoint vote: the sender has delivered every sequence
    /// number up to and including `sn` and its delivery log digests to
    /// `digest`.
    Checkpoint {
        /// Instance being checkpointed.
        instance: InstanceId,
        /// Highest delivered sequence number covered by the checkpoint.
        sn: SeqNum,
        /// Digest of the delivery log up to `sn`.
        digest: Digest,
        /// Voting replica.
        voter: ReplicaId,
    },
    /// The sender suspects the current leader and votes to move to
    /// `new_view`.
    ViewChange {
        /// Instance whose leader is suspected.
        instance: InstanceId,
        /// The view the sender wants to move to.
        new_view: View,
        /// Highest sequence number the sender has delivered.
        last_delivered: Option<SeqNum>,
        /// Blocks the sender had prepared beyond its delivered prefix.
        prepared: Vec<PreparedProof>,
        /// Voting replica.
        voter: ReplicaId,
    },
    /// The leader of `new_view` announces the view change, carrying the
    /// blocks it will re-propose for in-flight sequence numbers.
    NewView {
        /// Instance whose view changed.
        instance: InstanceId,
        /// The view now in force.
        new_view: View,
        /// Replicas whose view-change votes justified this new view.
        supporters: Vec<ReplicaId>,
        /// Blocks re-proposed by the new leader (in sequence-number order).
        reproposals: Vec<SharedBlock>,
    },
}

impl SbMessage {
    /// The instance this message belongs to.
    pub fn instance(&self) -> InstanceId {
        match self {
            SbMessage::PrePrepare { block } => block.header.instance,
            SbMessage::Prepare { instance, .. }
            | SbMessage::Commit { instance, .. }
            | SbMessage::Checkpoint { instance, .. }
            | SbMessage::ViewChange { instance, .. }
            | SbMessage::NewView { instance, .. } => *instance,
        }
    }

    /// The replica a vote-style message claims to speak for (`None` for
    /// pre-prepare and new-view, which are attributed to their sender).
    pub fn voter(&self) -> Option<ReplicaId> {
        match self {
            SbMessage::Prepare { voter, .. }
            | SbMessage::Commit { voter, .. }
            | SbMessage::Checkpoint { voter, .. }
            | SbMessage::ViewChange { voter, .. } => Some(*voter),
            SbMessage::PrePrepare { .. } | SbMessage::NewView { .. } => None,
        }
    }

    /// Short tag used in logs and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            SbMessage::PrePrepare { .. } => "pre-prepare",
            SbMessage::Prepare { .. } => "prepare",
            SbMessage::Commit { .. } => "commit",
            SbMessage::Checkpoint { .. } => "checkpoint",
            SbMessage::ViewChange { .. } => "view-change",
            SbMessage::NewView { .. } => "new-view",
        }
    }
}

impl Payload for SbMessage {
    fn wire_bytes(&self) -> u64 {
        match self {
            SbMessage::PrePrepare { block } => block.wire_bytes(),
            SbMessage::Prepare { .. } | SbMessage::Commit { .. } | SbMessage::Checkpoint { .. } => {
                VOTE_WIRE_BYTES
            }
            SbMessage::ViewChange { prepared, .. } => {
                VIEW_CHANGE_OVERHEAD_BYTES
                    + prepared.iter().map(|p| p.block.wire_bytes()).sum::<u64>()
            }
            SbMessage::NewView { reproposals, .. } => {
                VIEW_CHANGE_OVERHEAD_BYTES + reproposals.iter().map(|b| b.wire_bytes()).sum::<u64>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::{Block, BlockParams, Epoch, Rank, SystemState};
    use std::sync::Arc;

    fn block(instance: u32, sn: u64) -> SharedBlock {
        Arc::new(Block::no_op(BlockParams {
            instance: InstanceId::new(instance),
            sn: SeqNum::new(sn),
            epoch: Epoch::new(0),
            view: View::new(0),
            proposer: ReplicaId::new(instance),
            rank: Rank::new(sn),
            state: SystemState::new(4),
        }))
    }

    #[test]
    fn instance_extraction() {
        let msg = SbMessage::PrePrepare { block: block(3, 0) };
        assert_eq!(msg.instance(), InstanceId::new(3));
        let vote = SbMessage::Prepare {
            instance: InstanceId::new(2),
            view: View::new(0),
            sn: SeqNum::new(1),
            digest: Digest::EMPTY,
            voter: ReplicaId::new(0),
        };
        assert_eq!(vote.instance(), InstanceId::new(2));
    }

    #[test]
    fn wire_sizes_reflect_content() {
        let pre = SbMessage::PrePrepare { block: block(0, 0) };
        let vote = SbMessage::Commit {
            instance: InstanceId::new(0),
            view: View::new(0),
            sn: SeqNum::new(0),
            digest: Digest::EMPTY,
            voter: ReplicaId::new(1),
        };
        assert!(pre.wire_bytes() > vote.wire_bytes());
        assert_eq!(vote.wire_bytes(), VOTE_WIRE_BYTES);

        let vc = SbMessage::ViewChange {
            instance: InstanceId::new(0),
            new_view: View::new(1),
            last_delivered: None,
            prepared: vec![PreparedProof {
                sn: SeqNum::new(0),
                block: block(0, 0),
            }],
            voter: ReplicaId::new(2),
        };
        assert!(vc.wire_bytes() > VIEW_CHANGE_OVERHEAD_BYTES);
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            SbMessage::PrePrepare { block: block(0, 0) }.kind(),
            SbMessage::Prepare {
                instance: InstanceId::new(0),
                view: View::new(0),
                sn: SeqNum::new(0),
                digest: Digest::EMPTY,
                voter: ReplicaId::new(0),
            }
            .kind(),
            SbMessage::NewView {
                instance: InstanceId::new(0),
                new_view: View::new(1),
                supporters: vec![],
                reproposals: vec![],
            }
            .kind(),
        ];
        assert_eq!(kinds.len(), 3);
        assert_ne!(kinds[0], kinds[1]);
        assert_ne!(kinds[1], kinds[2]);
    }
}
