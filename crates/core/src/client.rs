//! Client / load-generator actors.
//!
//! A [`ClientNode`] submits a pre-assigned slice of the workload according to
//! its schedule, broadcasting every transaction to `f + 1` replicas (the
//! paper's censorship-resistance rule, §V-B) and confirming a transaction
//! once `f + 1` replicas have replied (the latency definition of §VII-B).
//! One actor may carry the traffic of many logical clients — the logical
//! client is identified by the transaction id, the actor only models the
//! submission point and reply counting.

use crate::messages::NetMessage;
use orthrus_sim::{Actor, Context, NodeId};
use orthrus_types::{Duration, ProtocolConfig, SharedTx, TxId, TxMap, TxSet, TxTable, VoteSet};
use std::any::Any;
use std::sync::Arc;

/// Timer tag used for scheduled submissions.
const TIMER_SUBMIT: u64 = 1;

/// A client actor submitting part of the workload.
pub struct ClientNode {
    config: ProtocolConfig,
    /// Submission schedule: (offset from simulation start, transaction),
    /// sorted by offset. Entries are shared handles, so submitting to `f + 1`
    /// replicas clones a pointer per target, not a payload.
    schedule: Vec<(Duration, SharedTx)>,
    next: usize,
    /// Replicas that replied, per transaction not yet confirmed.
    replies: TxMap<VoteSet>,
    confirmed: TxSet,
}

impl ClientNode {
    /// Build a client with a submission schedule (offset, transaction). The
    /// schedule is sorted by offset internally (stably, and only if it is
    /// not sorted already). `table` is the run's transaction table, which
    /// slot-indexes the reply tally.
    pub fn new(
        config: ProtocolConfig,
        mut schedule: Vec<(Duration, SharedTx)>,
        table: Arc<TxTable>,
    ) -> Self {
        if !schedule.is_sorted_by_key(|(offset, _)| *offset) {
            schedule.sort_by_key(|(offset, _)| *offset);
        }
        Self {
            config,
            schedule,
            next: 0,
            replies: TxMap::new(Arc::clone(&table)),
            confirmed: TxSet::new(table),
        }
    }

    /// Number of transactions this client has confirmed (received `f + 1`
    /// replies for).
    pub fn confirmed_count(&self) -> usize {
        self.confirmed.len()
    }

    /// Number of transactions submitted so far.
    pub fn submitted_count(&self) -> usize {
        self.next
    }

    /// The `f + 1` replicas this transaction is broadcast to, spread
    /// deterministically over the replica set so no single replica carries
    /// all client traffic.
    fn targets_for(&self, tx: &TxId) -> Vec<NodeId> {
        let n = self.config.num_replicas;
        let quorum = self.config.client_quorum();
        let start = (orthrus_types::Digest::of(tx).0 % u64::from(n)) as u32;
        (0..quorum)
            .map(|i| NodeId::replica((start + i) % n))
            .collect()
    }

    fn submit_due(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let now = ctx.now();
        while self.next < self.schedule.len() {
            let (offset, _) = &self.schedule[self.next];
            if orthrus_types::SimTime::ZERO + *offset > now {
                break;
            }
            let tx = Arc::clone(&self.schedule[self.next].1);
            self.next += 1;
            ctx.stats().tx_submitted(tx.id, now);
            let targets = self.targets_for(&tx.id);
            ctx.multicast(targets, NetMessage::ClientRequest { tx });
        }
        if self.next < self.schedule.len() {
            let (offset, _) = self.schedule[self.next];
            let delay = (orthrus_types::SimTime::ZERO + offset) - now;
            ctx.set_timer(
                if delay.as_micros() == 0 {
                    Duration::from_micros(1)
                } else {
                    delay
                },
                TIMER_SUBMIT,
            );
        }
    }
}

impl Actor<NetMessage> for ClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMessage>) {
        self.submit_due(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: NetMessage, ctx: &mut Context<'_, NetMessage>) {
        if let NetMessage::ClientReply { tx, replica, .. } = msg {
            if self.confirmed.contains(tx) {
                return;
            }
            let entry = self.replies.get_or_insert_with(tx, VoteSet::default);
            entry.insert(replica);
            if entry.len() >= self.config.client_quorum() as usize {
                self.confirmed.insert(tx);
                self.replies.remove(tx);
                let now = ctx.now();
                ctx.stats().tx_confirmed(tx, now);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, NetMessage>) {
        if tag == TIMER_SUBMIT {
            self.submit_due(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::{ClientId, FxHashSet};

    fn tx(seq: u64) -> SharedTx {
        orthrus_types::Transaction::payment(
            TxId::new(ClientId::new(7), seq),
            ClientId::new(7),
            ClientId::new(8),
            1,
        )
        .into_shared()
    }

    #[test]
    fn schedule_is_sorted_and_counts_track() {
        let config = ProtocolConfig::for_replicas(4);
        let client = ClientNode::new(
            config,
            vec![
                (Duration::from_millis(20), tx(1)),
                (Duration::from_millis(10), tx(0)),
            ],
            Arc::default(),
        );
        assert_eq!(client.schedule[0].0, Duration::from_millis(10));
        assert_eq!(client.submitted_count(), 0);
        assert_eq!(client.confirmed_count(), 0);
    }

    #[test]
    fn targets_are_distinct_and_quorum_sized() {
        let config = ProtocolConfig::for_replicas(16);
        let client = ClientNode::new(config.clone(), vec![], Arc::default());
        let targets = client.targets_for(&TxId::new(ClientId::new(3), 9));
        assert_eq!(targets.len(), config.client_quorum() as usize);
        let mut unique = targets.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), targets.len());
    }

    #[test]
    fn different_transactions_use_different_entry_points() {
        let config = ProtocolConfig::for_replicas(16);
        let client = ClientNode::new(config, vec![], Arc::default());
        let mut firsts = FxHashSet::default();
        for i in 0..50 {
            let targets = client.targets_for(&TxId::new(ClientId::new(i), 0));
            firsts.insert(targets[0]);
        }
        assert!(
            firsts.len() > 3,
            "client traffic should spread over replicas"
        );
    }
}
