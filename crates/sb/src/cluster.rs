//! In-memory PBFT cluster for deterministic protocol-level testing.
//!
//! [`LocalCluster`] wires `n` [`PbftInstance`]s for the *same* SB instance
//! index together with a synchronous message router (no virtual time, no
//! network model). It is used by the unit and integration tests to exercise
//! agreement, ordering, checkpointing and view changes without the
//! discrete-event engine, and by examples that want to demonstrate the SB
//! layer in isolation.

use crate::actions::SbAction;
use crate::messages::SbMessage;
use crate::pbft::{PbftConfig, PbftInstance};
use orthrus_types::{InstanceId, ReplicaId, SharedBlock, StableCheckpoint};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// A queued message: sender, explicit recipients, payload.
struct Envelope {
    from: ReplicaId,
    to: Arc<[ReplicaId]>,
    msg: SbMessage,
}

/// An in-memory cluster of PBFT instances sharing one instance index.
pub struct LocalCluster {
    instances: Vec<PbftInstance>,
    delivered: Vec<Vec<SharedBlock>>,
    checkpoints: Vec<Vec<StableCheckpoint>>,
    queue: VecDeque<Envelope>,
    silenced: BTreeSet<ReplicaId>,
    /// Every replica, in id order: the recipients of each broadcast.
    everyone: Arc<[ReplicaId]>,
}

impl LocalCluster {
    /// Build a cluster of `n` replicas all hosting SB instance `instance`,
    /// with the given checkpoint interval.
    pub fn new(instance: InstanceId, n: u32, checkpoint_interval: u64) -> Self {
        let instances = (0..n)
            .map(|r| {
                PbftInstance::new(PbftConfig {
                    instance,
                    me: ReplicaId::new(r),
                    num_replicas: n,
                    checkpoint_interval,
                })
            })
            .collect();
        Self {
            instances,
            delivered: (0..n).map(|_| Vec::new()).collect(),
            checkpoints: (0..n).map(|_| Vec::new()).collect(),
            queue: VecDeque::new(),
            silenced: BTreeSet::new(),
            everyone: (0..n).map(ReplicaId::new).collect(),
        }
    }

    /// Access the PBFT state machine of `replica`.
    pub fn instance(&self, replica: ReplicaId) -> &PbftInstance {
        &self.instances[replica.as_usize()]
    }

    /// Blocks delivered by `replica`, in delivery order.
    pub fn delivered(&self, replica: ReplicaId) -> &[SharedBlock] {
        &self.delivered[replica.as_usize()]
    }

    /// Stable-checkpoint certificates `replica` produced, in order of
    /// stabilisation.
    pub fn stable_checkpoints(&self, replica: ReplicaId) -> &[StableCheckpoint] {
        &self.checkpoints[replica.as_usize()]
    }

    /// Stop routing messages from (and to) `replica`: it behaves like a
    /// crashed node from now on.
    pub fn silence(&mut self, replica: ReplicaId) {
        self.silenced.insert(replica);
    }

    /// Have `replica` propose `block` as leader.
    pub fn propose(&mut self, replica: ReplicaId, block: SharedBlock) {
        let actions = self.instances[replica.as_usize()].propose(block);
        self.enqueue_actions(replica, actions);
    }

    /// Have `replica`'s failure detector fire (vote for a view change).
    pub fn timeout(&mut self, replica: ReplicaId) {
        let actions = self.instances[replica.as_usize()].on_timeout();
        self.enqueue_actions(replica, actions);
    }

    /// Inject a message from `from` to an explicit set of recipients (used to
    /// simulate Byzantine equivocation).
    pub fn inject(&mut self, from: ReplicaId, to: Vec<ReplicaId>, msg: SbMessage) {
        self.queue.push_back(Envelope {
            from,
            to: to.into(),
            msg,
        });
    }

    /// Route messages until the cluster is quiescent.
    pub fn run(&mut self) {
        self.run_dropping(|_| false);
    }

    /// Route messages until quiescent, dropping every message for which
    /// `drop` returns true (used to test partial progress, e.g. losing all
    /// commit messages).
    pub fn run_dropping<F: Fn(&SbMessage) -> bool>(&mut self, drop: F) {
        let mut budget: u64 = 1_000_000;
        while let Some(env) = self.queue.pop_front() {
            budget -= 1;
            if budget == 0 {
                panic!("LocalCluster did not quiesce");
            }
            if drop(&env.msg) || self.silenced.contains(&env.from) {
                continue;
            }
            for &to in env.to.iter() {
                if to == env.from || self.silenced.contains(&to) {
                    continue;
                }
                let actions =
                    self.instances[to.as_usize()].handle_message(env.from, env.msg.clone());
                self.enqueue_actions(to, actions);
            }
        }
    }

    fn enqueue_actions(&mut self, from: ReplicaId, actions: Vec<SbAction>) {
        for action in actions {
            match action {
                SbAction::Broadcast { msg } => self.queue.push_back(Envelope {
                    from,
                    to: Arc::clone(&self.everyone),
                    msg,
                }),
                SbAction::Deliver { block } => {
                    self.delivered[from.as_usize()].push(block);
                }
                SbAction::StableCheckpoint { checkpoint } => {
                    self.checkpoints[from.as_usize()].push(checkpoint);
                }
                SbAction::ViewChanged { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::{Block, BlockParams, Epoch, Rank, SeqNum, SystemState, View};
    use std::sync::Arc;

    fn block(sn: u64) -> SharedBlock {
        Arc::new(Block::no_op(BlockParams {
            instance: InstanceId::new(0),
            sn: SeqNum::new(sn),
            epoch: Epoch::new(0),
            view: View::new(0),
            proposer: ReplicaId::new(0),
            rank: Rank::new(sn),
            state: SystemState::new(4),
        }))
    }

    #[test]
    fn quiescent_cluster_delivers_nothing() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        cluster.run();
        for r in 0..4 {
            assert!(cluster.delivered(ReplicaId::new(r)).is_empty());
        }
    }

    #[test]
    fn silenced_replicas_do_not_participate() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        cluster.silence(ReplicaId::new(3));
        cluster.propose(ReplicaId::new(0), block(0));
        cluster.run();
        assert!(cluster.delivered(ReplicaId::new(3)).is_empty());
        // With only one silenced replica out of four, the rest still deliver.
        assert_eq!(cluster.delivered(ReplicaId::new(1)).len(), 1);
    }

    #[test]
    fn drop_filter_blocks_progress() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        cluster.propose(ReplicaId::new(0), block(0));
        // Dropping every prepare prevents any delivery.
        cluster.run_dropping(|m| matches!(m, SbMessage::Prepare { .. }));
        for r in 0..4 {
            assert!(cluster.delivered(ReplicaId::new(r)).is_empty());
        }
    }
}
