//! PBFT-based sequenced broadcast (SB) instance.
//!
//! One [`PbftInstance`] realises the paper's SB abstraction (§III-C) for a
//! single instance index: the instance's leader broadcasts blocks with
//! increasing sequence numbers and all replicas cooperate to *deliver* every
//! sequence number, with the agreement and termination properties the paper
//! relies on. Internally this is textbook PBFT:
//!
//! * normal case: pre-prepare → prepare (quorum `2f+1` attestations,
//!   counting the leader's pre-prepare) → commit (quorum `2f+1`) → in-order
//!   delivery;
//! * checkpoints every `checkpoint_interval` deliveries, garbage-collecting
//!   older slots once `2f+1` matching checkpoint votes arrive;
//! * view change: on a timeout (raised by the hosting replica's failure
//!   detector) replicas vote to move to the next view; the new leader
//!   collects `2f+1` votes, re-proposes any prepared-but-undelivered blocks
//!   and announces the new view.
//!
//! The state machine is IO-free: every entry point returns [`SbAction`]s that
//! the hosting replica turns into network sends, deliveries into the
//! partial/global logs, or bookkeeping.

use crate::actions::{ActionSink, SbAction};
use crate::messages::{PreparedProof, SbMessage};
use crate::slots::SlotList;
use orthrus_types::{
    CheckpointProof, Digest, InstanceId, ReplicaId, SeqNum, SharedBlock, StableCheckpoint, View,
    VoteSet,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Static configuration of one PBFT instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PbftConfig {
    /// Which SB instance this is.
    pub instance: InstanceId,
    /// The replica hosting this state machine.
    pub me: ReplicaId,
    /// Total number of replicas `n`.
    pub num_replicas: u32,
    /// Deliveries between checkpoints.
    pub checkpoint_interval: u64,
}

impl PbftConfig {
    /// Maximum number of faulty replicas tolerated.
    pub fn f(&self) -> u32 {
        (self.num_replicas - 1) / 3
    }

    /// Quorum size `2f + 1`.
    pub fn quorum(&self) -> usize {
        (2 * self.f() + 1) as usize
    }

    /// Leader of `view` for this instance: rotates round-robin starting from
    /// the replica whose id equals the instance index.
    pub fn leader_of(&self, view: View) -> ReplicaId {
        let base = u64::from(self.instance.value());
        ReplicaId::new(((base + view.value()) % u64::from(self.num_replicas)) as u32)
    }
}

/// Per-sequence-number voting state.
#[derive(Debug, Default, Clone)]
struct Slot {
    proposal: Option<SharedBlock>,
    digest: Option<Digest>,
    /// Replicas attesting to the proposal (leader via pre-prepare, others via
    /// prepare votes). [`PbftInstance::handle_message`] admits ids below `n`
    /// only, so neither tally grows past `n` bits.
    prepares: VoteSet,
    commits: VoteSet,
    sent_commit: bool,
    delivered: bool,
}

impl Slot {
    fn accepts_digest(&self, digest: Digest) -> bool {
        self.digest.is_none_or(|d| d == digest)
    }

    /// Move to the commit phase once the proposal holds a prepare quorum:
    /// record our own commit vote and return the digest to broadcast it for.
    /// Returns `Some` at most once per slot.
    fn enter_commit(&mut self, quorum: usize, me: ReplicaId) -> Option<Digest> {
        if self.proposal.is_none() || self.sent_commit || self.prepares.len() < quorum {
            return None;
        }
        self.sent_commit = true;
        self.commits.insert(me);
        self.digest
    }
}

/// A PBFT sequenced-broadcast instance.
///
/// `Clone` exists for the state-transfer path: a recovering replica adopts a
/// peer's observed protocol state wholesale (proposals and votes are
/// observations of the same broadcast stream, so an honest peer's clone is a
/// valid local state) and then [`PbftInstance::rebind`]s it to its own id.
#[derive(Debug, Clone)]
pub struct PbftInstance {
    cfg: PbftConfig,
    view: View,
    in_view_change: bool,
    slots: SlotList<Slot>,
    next_delivery: SeqNum,
    next_propose: SeqNum,
    delivered_digest: Digest,
    delivered_count: u64,
    /// Checkpoint votes per sequence number, each tally sorted by voter.
    checkpoint_votes: BTreeMap<SeqNum, Vec<(ReplicaId, Digest)>>,
    stable_checkpoint: Option<StableCheckpoint>,
    view_change_votes: BTreeMap<View, BTreeMap<ReplicaId, Vec<PreparedProof>>>,
}

impl PbftInstance {
    /// Create a fresh instance in view 0.
    pub fn new(cfg: PbftConfig) -> Self {
        Self {
            cfg,
            view: View::new(0),
            in_view_change: false,
            slots: SlotList::default(),
            next_delivery: SeqNum::new(0),
            next_propose: SeqNum::new(0),
            delivered_digest: Digest::EMPTY,
            delivered_count: 0,
            checkpoint_votes: BTreeMap::new(),
            stable_checkpoint: None,
            view_change_votes: BTreeMap::new(),
        }
    }

    /// The instance's configuration.
    pub fn config(&self) -> &PbftConfig {
        &self.cfg
    }

    /// The view currently in force.
    pub fn current_view(&self) -> View {
        self.view
    }

    /// The leader of the current view.
    pub fn current_leader(&self) -> ReplicaId {
        self.cfg.leader_of(self.view)
    }

    /// Is the hosting replica the leader of the current view (and not in the
    /// middle of a view change)?
    pub fn is_leader(&self) -> bool {
        !self.in_view_change && self.current_leader() == self.cfg.me
    }

    /// Is a view change in progress?
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// Sequence number the leader should use for its next proposal.
    pub fn next_propose_sn(&self) -> SeqNum {
        self.next_propose
    }

    /// Highest sequence number delivered so far (None if nothing yet).
    pub fn last_delivered(&self) -> Option<SeqNum> {
        if self.next_delivery.value() == 0 {
            None
        } else {
            Some(SeqNum::new(self.next_delivery.value() - 1))
        }
    }

    /// Number of blocks delivered by this instance.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Sequence number of the latest stable checkpoint, if any.
    pub fn stable_checkpoint(&self) -> Option<SeqNum> {
        self.stable_checkpoint.as_ref().map(|c| c.seq)
    }

    /// The latest stable-checkpoint certificate, if one has formed: the
    /// quorum of matching votes is retained as a [`StableCheckpoint`] proof
    /// instead of being counted and dropped.
    pub fn latest_stable_checkpoint(&self) -> Option<&StableCheckpoint> {
        self.stable_checkpoint.as_ref()
    }

    /// Number of per-sequence-number slots currently retained (delivered
    /// slots above the low-water mark plus in-flight proposals). Feeds the
    /// replica's retained-entry accounting.
    pub fn retained_slots(&self) -> usize {
        self.slots.len()
    }

    /// Rebind the instance's host identity after adopting a peer's cloned
    /// state during state transfer. Only the identity changes — the observed
    /// proposals, votes and checkpoints carry over verbatim.
    pub fn rebind(&mut self, me: ReplicaId) {
        self.cfg.me = me;
    }

    /// Rolling digest over the delivered prefix (checkpoint material).
    pub fn delivery_digest(&self) -> Digest {
        self.delivered_digest
    }

    // ------------------------------------------------------------------
    // Leader path
    // ------------------------------------------------------------------

    /// Propose `block` as the leader of the current view. The block must
    /// carry this instance's id, the current view and the sequence number
    /// returned by [`Self::next_propose_sn`]. The handle is shared: the slot
    /// buffer keeps one reference and the broadcast moves the other, so no
    /// transaction payload is copied on the leader's hot path.
    pub fn propose(&mut self, block: SharedBlock) -> Vec<SbAction> {
        let mut sink = ActionSink::new();
        if !self.is_leader() {
            return sink.into_vec();
        }
        if block.header.instance != self.cfg.instance
            || block.header.view != self.view
            || block.header.sn != self.next_propose
        {
            return sink.into_vec();
        }
        let sn = block.header.sn;
        let digest = block.digest();
        let (quorum, me) = (self.cfg.quorum(), self.cfg.me);
        self.next_propose = sn.next();
        let slot = self.slots.get_or_default(sn);
        slot.proposal = Some(Arc::clone(&block));
        slot.digest = Some(digest);
        // The pre-prepare counts as the leader's attestation.
        slot.prepares.insert(me);
        let commit = slot.enter_commit(quorum, me);
        sink.broadcast(SbMessage::PrePrepare { block });
        self.broadcast_commit(sn, commit, &mut sink);
        self.try_deliver(&mut sink);
        sink.into_vec()
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Handle a PBFT message addressed to this instance.
    pub fn handle_message(&mut self, from: ReplicaId, msg: SbMessage) -> Vec<SbAction> {
        let mut sink = ActionSink::new();
        // Ids come off the wire: one outside `0..n` names no replica, so it
        // must neither count toward a quorum nor size a vote set.
        let n = self.cfg.num_replicas;
        if msg.instance() != self.cfg.instance
            || from.value() >= n
            || msg.voter().is_some_and(|voter| voter.value() >= n)
        {
            return sink.into_vec();
        }
        match msg {
            SbMessage::PrePrepare { block } => self.on_pre_prepare(from, block, &mut sink),
            SbMessage::Prepare {
                view,
                sn,
                digest,
                voter,
                ..
            } => self.on_prepare(voter, view, sn, digest, &mut sink),
            SbMessage::Commit {
                view,
                sn,
                digest,
                voter,
                ..
            } => self.on_commit(voter, view, sn, digest, &mut sink),
            SbMessage::Checkpoint {
                sn, digest, voter, ..
            } => self.on_checkpoint(voter, sn, digest, &mut sink),
            SbMessage::ViewChange {
                new_view,
                prepared,
                voter,
                ..
            } => self.on_view_change(voter, new_view, prepared, &mut sink),
            SbMessage::NewView {
                new_view,
                reproposals,
                ..
            } => self.on_new_view(from, new_view, reproposals, &mut sink),
        }
        sink.into_vec()
    }

    /// The hosting replica's failure detector suspects the current leader:
    /// vote to move to the next view.
    pub fn on_timeout(&mut self) -> Vec<SbAction> {
        let mut sink = ActionSink::new();
        let target = self.view.next();
        self.start_view_change(target, &mut sink);
        sink.into_vec()
    }

    // ------------------------------------------------------------------
    // Normal case
    // ------------------------------------------------------------------

    fn on_pre_prepare(&mut self, from: ReplicaId, block: SharedBlock, sink: &mut ActionSink) {
        if self.in_view_change {
            return;
        }
        if block.header.view != self.view || from != self.current_leader() {
            return;
        }
        if block.header.proposer != from || block.verify().is_err() {
            return;
        }
        let sn = block.header.sn;
        if sn < self.next_delivery {
            return; // already delivered
        }
        let digest = block.digest();
        let (quorum, me, leader) = (self.cfg.quorum(), self.cfg.me, self.current_leader());
        let slot = self.slots.get_or_default(sn);
        if !slot.accepts_digest(digest) {
            // Equivocation or conflict with an already-voted digest: ignore
            // the later proposal.
            return;
        }
        if slot.proposal.is_none() {
            slot.proposal = Some(block);
            slot.digest = Some(digest);
        }
        // Leader's pre-prepare and our own prepare both attest.
        slot.prepares.insert(leader);
        let broadcast_prepare = slot.prepares.insert(me) && me != leader;
        let commit = slot.enter_commit(quorum, me);
        if broadcast_prepare {
            sink.broadcast(SbMessage::Prepare {
                instance: self.cfg.instance,
                view: self.view,
                sn,
                digest,
                voter: me,
            });
        }
        self.broadcast_commit(sn, commit, sink);
        if sn == self.next_delivery {
            self.try_deliver(sink);
        }
    }

    fn on_prepare(
        &mut self,
        voter: ReplicaId,
        view: View,
        sn: SeqNum,
        digest: Digest,
        sink: &mut ActionSink,
    ) {
        if view != self.view || self.in_view_change || sn < self.next_delivery {
            return;
        }
        let (quorum, me) = (self.cfg.quorum(), self.cfg.me);
        let slot = self.slots.get_or_default(sn);
        if !slot.accepts_digest(digest) {
            return;
        }
        if slot.digest.is_none() {
            slot.digest = Some(digest);
        }
        slot.prepares.insert(voter);
        let commit = slot.enter_commit(quorum, me);
        self.broadcast_commit(sn, commit, sink);
        if sn == self.next_delivery {
            self.try_deliver(sink);
        }
    }

    fn on_commit(
        &mut self,
        voter: ReplicaId,
        view: View,
        sn: SeqNum,
        digest: Digest,
        sink: &mut ActionSink,
    ) {
        if view != self.view || self.in_view_change || sn < self.next_delivery {
            return;
        }
        let (quorum, me) = (self.cfg.quorum(), self.cfg.me);
        let slot = self.slots.get_or_default(sn);
        if !slot.accepts_digest(digest) {
            return;
        }
        slot.commits.insert(voter);
        let commit = slot.enter_commit(quorum, me);
        self.broadcast_commit(sn, commit, sink);
        if sn == self.next_delivery {
            self.try_deliver(sink);
        }
    }

    /// Broadcast our commit vote for `sn` if its slot just entered the
    /// commit phase ([`Slot::enter_commit`] returned its digest).
    fn broadcast_commit(&self, sn: SeqNum, digest: Option<Digest>, sink: &mut ActionSink) {
        if let Some(digest) = digest {
            sink.broadcast(SbMessage::Commit {
                instance: self.cfg.instance,
                view: self.view,
                sn,
                digest,
                voter: self.cfg.me,
            });
        }
    }

    /// Deliver committed slots in sequence-number order.
    ///
    /// Between calls the slot at `next_delivery` is never ready: every path
    /// that can make it ready (a proposal, a vote for it, a new view) ends
    /// here, and checkpoint garbage collection only removes slots. A vote for
    /// any other sequence number therefore cannot make anything deliverable,
    /// so the vote handlers call this only for `sn == next_delivery`.
    fn try_deliver(&mut self, sink: &mut ActionSink) {
        let quorum = self.cfg.quorum();
        loop {
            let sn = self.next_delivery;
            let block = match self.slots.get_mut(sn) {
                Some(slot)
                    if slot.sent_commit && !slot.delivered && slot.commits.len() >= quorum =>
                {
                    let Some(block) = slot.proposal.clone() else {
                        break;
                    };
                    slot.delivered = true;
                    block
                }
                _ => break,
            };
            self.delivered_digest = self.delivered_digest.combine(block.digest());
            self.delivered_count += 1;
            self.next_delivery = sn.next();
            if self.next_propose < self.next_delivery {
                self.next_propose = self.next_delivery;
            }
            sink.deliver(block);
            self.maybe_checkpoint(sink);
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints
    // ------------------------------------------------------------------

    fn maybe_checkpoint(&mut self, sink: &mut ActionSink) {
        let interval = self.cfg.checkpoint_interval.max(1);
        if self.next_delivery.value() == 0 || !self.next_delivery.value().is_multiple_of(interval) {
            return;
        }
        let sn = SeqNum::new(self.next_delivery.value() - 1);
        let digest = self.delivered_digest;
        let me = self.cfg.me;
        sink.broadcast(SbMessage::Checkpoint {
            instance: self.cfg.instance,
            sn,
            digest,
            voter: me,
        });
        self.record_checkpoint_vote(me, sn, digest, sink);
    }

    fn on_checkpoint(
        &mut self,
        voter: ReplicaId,
        sn: SeqNum,
        digest: Digest,
        sink: &mut ActionSink,
    ) {
        self.record_checkpoint_vote(voter, sn, digest, sink);
    }

    fn record_checkpoint_vote(
        &mut self,
        voter: ReplicaId,
        sn: SeqNum,
        digest: Digest,
        sink: &mut ActionSink,
    ) {
        if let Some(stable) = &self.stable_checkpoint {
            if sn <= stable.seq {
                return;
            }
        }
        let votes = self.checkpoint_votes.entry(sn).or_default();
        match votes.binary_search_by_key(&voter, |&(r, _)| r) {
            Ok(at) => votes[at].1 = digest,
            Err(at) => votes.insert(at, (voter, digest)),
        }
        let matching = votes.iter().filter(|(_, d)| *d == digest).count();
        if matching >= self.cfg.quorum() {
            let voters: Vec<ReplicaId> = votes
                .iter()
                .filter(|(_, d)| *d == digest)
                .map(|&(r, _)| r)
                .collect();
            // The quorum of matching votes *is* the certificate: surface it
            // instead of counting and dropping it, so the ordering and
            // execution layers above can truncate on, snapshot at, and
            // state-transfer from this checkpoint.
            let checkpoint = StableCheckpoint {
                instance: self.cfg.instance,
                seq: sn,
                state_digest: digest,
                proof: CheckpointProof { voters },
            };
            self.stable_checkpoint = Some(checkpoint.clone());
            // Garbage-collect below the low-water mark: delivered slots
            // covered by the checkpoint and stale checkpoint tallies.
            self.slots
                .retain(|slot_sn, slot| slot_sn > sn || !slot.delivered);
            self.checkpoint_votes.retain(|vote_sn, _| *vote_sn > sn);
            sink.stable_checkpoint(checkpoint);
        }
    }

    // ------------------------------------------------------------------
    // View change
    // ------------------------------------------------------------------

    fn prepared_proofs(&self) -> Vec<PreparedProof> {
        self.slots
            .iter()
            .filter(|(sn, slot)| {
                *sn >= self.next_delivery && slot.sent_commit && slot.proposal.is_some()
            })
            .map(|(sn, slot)| PreparedProof {
                sn,
                block: slot
                    .proposal
                    .as_ref()
                    .map(Arc::clone)
                    .expect("filtered on proposal"),
            })
            .collect()
    }

    fn start_view_change(&mut self, target: View, sink: &mut ActionSink) {
        if target <= self.view && self.in_view_change {
            return;
        }
        let target = if target > self.view {
            target
        } else {
            self.view.next()
        };
        self.view = target;
        self.in_view_change = true;
        let prepared = self.prepared_proofs();
        let me = self.cfg.me;
        sink.broadcast(SbMessage::ViewChange {
            instance: self.cfg.instance,
            new_view: target,
            last_delivered: self.last_delivered(),
            prepared: prepared.clone(),
            voter: me,
        });
        self.record_view_change_vote(me, target, prepared, sink);
    }

    fn on_view_change(
        &mut self,
        voter: ReplicaId,
        new_view: View,
        prepared: Vec<PreparedProof>,
        sink: &mut ActionSink,
    ) {
        if new_view < self.view || (new_view == self.view && !self.in_view_change) {
            // Stale: we are already past that view.
            return;
        }
        self.record_view_change_vote(voter, new_view, prepared, sink);

        // Join the view change once f + 1 replicas vouch for it, even if our
        // own timer has not fired (standard PBFT liveness amplification).
        let votes = self
            .view_change_votes
            .get(&new_view)
            .map(|v| v.len())
            .unwrap_or(0);
        let joined = self
            .view_change_votes
            .get(&new_view)
            .map(|v| v.contains_key(&self.cfg.me))
            .unwrap_or(false);
        if !joined && votes > self.cfg.f() as usize && new_view > self.view {
            self.view = new_view;
            self.in_view_change = true;
            let prepared = self.prepared_proofs();
            let me = self.cfg.me;
            sink.broadcast(SbMessage::ViewChange {
                instance: self.cfg.instance,
                new_view,
                last_delivered: self.last_delivered(),
                prepared: prepared.clone(),
                voter: me,
            });
            self.record_view_change_vote(me, new_view, prepared, sink);
        }
    }

    fn record_view_change_vote(
        &mut self,
        voter: ReplicaId,
        new_view: View,
        prepared: Vec<PreparedProof>,
        sink: &mut ActionSink,
    ) {
        let votes = self.view_change_votes.entry(new_view).or_default();
        votes.insert(voter, prepared);
        let have = votes.len();
        let i_am_new_leader = self.cfg.leader_of(new_view) == self.cfg.me;
        if i_am_new_leader
            && have >= self.cfg.quorum()
            && (self.in_view_change || new_view > self.view)
        {
            // Collect the highest prepared block per sequence number from the
            // quorum of view-change votes.
            let mut reproposals: BTreeMap<SeqNum, SharedBlock> = BTreeMap::new();
            if let Some(votes) = self.view_change_votes.get(&new_view) {
                for proofs in votes.values() {
                    for proof in proofs {
                        reproposals
                            .entry(proof.sn)
                            .or_insert_with(|| Arc::clone(&proof.block));
                    }
                }
            }
            let supporters: Vec<ReplicaId> = self
                .view_change_votes
                .get(&new_view)
                .map(|v| v.keys().copied().collect())
                .unwrap_or_default();
            let reproposals: Vec<SharedBlock> = reproposals.into_values().collect();
            sink.broadcast(SbMessage::NewView {
                instance: self.cfg.instance,
                new_view,
                supporters,
                reproposals: reproposals.clone(),
            });
            self.enter_new_view(new_view, reproposals, sink);
        }
    }

    fn on_new_view(
        &mut self,
        from: ReplicaId,
        new_view: View,
        reproposals: Vec<SharedBlock>,
        sink: &mut ActionSink,
    ) {
        if new_view < self.view || (new_view == self.view && !self.in_view_change) {
            return;
        }
        if from != self.cfg.leader_of(new_view) {
            return;
        }
        self.enter_new_view(new_view, reproposals, sink);
    }

    fn enter_new_view(
        &mut self,
        new_view: View,
        reproposals: Vec<SharedBlock>,
        sink: &mut ActionSink,
    ) {
        self.view = new_view;
        self.in_view_change = false;
        // Vote bookkeeping for views at or below the one now entered is below
        // the low-water mark of the view-change protocol: stale votes are
        // ignored on arrival, so retaining the tallies only leaks memory.
        self.view_change_votes.retain(|view, _| *view > new_view);
        let me = self.cfg.me;
        let leader = self.cfg.leader_of(new_view);

        // Drop voting state of undelivered, uncommitted slots: they will be
        // re-proposed (either from the carried reproposals or from the new
        // leader's bucket).
        let (next_delivery, quorum) = (self.next_delivery, self.cfg.quorum());
        self.slots.retain(|sn, slot| {
            sn < next_delivery
                || slot.delivered
                || (slot.sent_commit && slot.commits.len() >= quorum)
        });

        let mut highest = self.next_delivery;
        for block in reproposals {
            let sn = block.header.sn;
            if sn < self.next_delivery {
                continue;
            }
            if sn >= highest {
                highest = sn.next();
            }
            let digest = block.digest();
            let slot = self.slots.get_or_default(sn);
            if slot.delivered {
                continue;
            }
            if slot.digest.is_some() && slot.digest != Some(digest) {
                // Keep whatever we already committed; ignore the reproposal.
                if slot.sent_commit {
                    continue;
                }
                slot.prepares.clear();
                slot.commits.clear();
                slot.sent_commit = false;
            }
            slot.proposal = Some(block);
            slot.digest = Some(digest);
            slot.prepares.insert(leader);
            if slot.prepares.insert(me) && me != leader {
                sink.broadcast(SbMessage::Prepare {
                    instance: self.cfg.instance,
                    view: new_view,
                    sn,
                    digest,
                    voter: me,
                });
            }
        }
        if self.next_propose < highest {
            self.next_propose = highest;
        }
        sink.view_changed(new_view, leader);
        // A prepare quorum may already exist for re-proposed slots.
        let instance = self.cfg.instance;
        for (sn, slot) in self.slots.iter_mut() {
            if let Some(digest) = slot.enter_commit(quorum, me) {
                sink.broadcast(SbMessage::Commit {
                    instance,
                    view: new_view,
                    sn,
                    digest,
                    voter: me,
                });
            }
        }
        self.try_deliver(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LocalCluster;
    use orthrus_types::{
        Block, BlockParams, ClientId, Epoch, Rank, SystemState, Transaction, TxId,
    };

    fn cfg(me: u32, n: u32) -> PbftConfig {
        PbftConfig {
            instance: InstanceId::new(0),
            me: ReplicaId::new(me),
            num_replicas: n,
            checkpoint_interval: 4,
        }
    }

    fn make_block(instance: u32, sn: u64, view: u64, proposer: u32, ntx: u64) -> SharedBlock {
        let txs: Vec<Transaction> = (0..ntx)
            .map(|i| {
                Transaction::payment(
                    TxId::new(ClientId::new(sn * 1000 + i), 0),
                    ClientId::new(sn * 1000 + i),
                    ClientId::new(sn * 1000 + i + 1),
                    1,
                )
            })
            .collect();
        Arc::new(Block::new(
            BlockParams {
                instance: InstanceId::new(instance),
                sn: SeqNum::new(sn),
                epoch: Epoch::new(0),
                view: View::new(view),
                proposer: ReplicaId::new(proposer),
                rank: Rank::new(sn),
                state: SystemState::new(4),
            },
            txs,
        ))
    }

    #[test]
    fn config_quorums() {
        let c = cfg(0, 4);
        assert_eq!(c.f(), 1);
        assert_eq!(c.quorum(), 3);
        assert_eq!(c.leader_of(View::new(0)), ReplicaId::new(0));
        assert_eq!(c.leader_of(View::new(1)), ReplicaId::new(1));
        let c7 = PbftConfig {
            instance: InstanceId::new(3),
            ..cfg(0, 7)
        };
        assert_eq!(c7.leader_of(View::new(0)), ReplicaId::new(3));
        assert_eq!(c7.leader_of(View::new(5)), ReplicaId::new(1));
    }

    #[test]
    fn out_of_range_voter_does_not_count_toward_a_quorum() {
        let n = 4;
        let mut backup = PbftInstance::new(cfg(1, n));
        let block = make_block(0, 0, 0, 0, 1);
        let digest = block.digest();
        let prepare = |voter: u32| SbMessage::Prepare {
            instance: InstanceId::new(0),
            view: View::new(0),
            sn: SeqNum::new(0),
            digest,
            voter: ReplicaId::new(voter),
        };
        let commits = |actions: &[SbAction]| {
            actions
                .iter()
                .filter(|a| matches!(a, SbAction::Broadcast { msg } if msg.kind() == "commit"))
                .count()
        };
        // Leader's pre-prepare + our own prepare: one short of the quorum of 3.
        let actions = backup.handle_message(ReplicaId::new(0), SbMessage::PrePrepare { block });
        assert_eq!(commits(&actions), 0);
        // Neither a vote claiming an id ≥ n nor one relayed by such a sender
        // completes it.
        let actions = backup.handle_message(ReplicaId::new(2), prepare(n + 5));
        assert!(actions.is_empty(), "{actions:?}");
        let actions = backup.handle_message(ReplicaId::new(n + 5), prepare(2));
        assert!(actions.is_empty(), "{actions:?}");
        // A real third attestation does.
        let actions = backup.handle_message(ReplicaId::new(2), prepare(2));
        assert_eq!(commits(&actions), 1);
    }

    #[test]
    fn leader_cannot_propose_wrong_sequence() {
        let mut leader = PbftInstance::new(cfg(0, 4));
        let wrong_sn = make_block(0, 5, 0, 0, 1);
        assert!(leader.propose(wrong_sn).is_empty());
        let wrong_instance = make_block(1, 0, 0, 0, 1);
        assert!(leader.propose(wrong_instance).is_empty());
    }

    #[test]
    fn backup_cannot_propose() {
        let mut backup = PbftInstance::new(cfg(1, 4));
        let block = make_block(0, 0, 0, 1, 1);
        assert!(backup.propose(block).is_empty());
        assert!(!backup.is_leader());
    }

    #[test]
    fn four_replicas_deliver_a_block() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        let block = make_block(0, 0, 0, 0, 3);
        cluster.propose(ReplicaId::new(0), Arc::clone(&block));
        cluster.run();
        for r in 0..4 {
            let delivered = cluster.delivered(ReplicaId::new(r));
            assert_eq!(delivered.len(), 1, "replica {r} delivered {delivered:?}");
            assert_eq!(delivered[0].digest(), block.digest());
        }
    }

    #[test]
    fn deliveries_are_in_order_even_with_reordered_messages() {
        // Propose three blocks; the cluster's router delivers messages in
        // round-robin order which interleaves the instances' phases.
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        for sn in 0..3 {
            let block = make_block(0, sn, 0, 0, 1);
            cluster.propose(ReplicaId::new(0), block);
        }
        cluster.run();
        for r in 0..4 {
            let delivered = cluster.delivered(ReplicaId::new(r));
            let sns: Vec<u64> = delivered.iter().map(|b| b.header.sn.value()).collect();
            assert_eq!(sns, vec![0, 1, 2]);
        }
    }

    #[test]
    fn checkpoint_becomes_stable_and_garbage_collects() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 2);
        for sn in 0..4 {
            cluster.propose(ReplicaId::new(0), make_block(0, sn, 0, 0, 1));
        }
        cluster.run();
        for r in 0..4 {
            let inst = cluster.instance(ReplicaId::new(r));
            assert_eq!(inst.delivered_count(), 4);
            assert_eq!(inst.stable_checkpoint(), Some(SeqNum::new(3)));
            // Delivered slots up to the checkpoint were garbage collected.
            assert!(inst.slots.iter().all(|(sn, _)| sn.value() > 3));
            assert!(inst.retained_slots() <= 1);
        }
    }

    #[test]
    fn stable_checkpoints_carry_quorum_certificates() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 2);
        for sn in 0..4 {
            cluster.propose(ReplicaId::new(0), make_block(0, sn, 0, 0, 1));
        }
        cluster.run();
        for r in 0..4 {
            let replica = ReplicaId::new(r);
            let certs = cluster.stable_checkpoints(replica);
            // Checkpoint interval 2 over 4 deliveries: sn 1 and sn 3.
            let seqs: Vec<u64> = certs.iter().map(|c| c.seq.value()).collect();
            assert_eq!(seqs, vec![1, 3], "replica {r}");
            let quorum = cluster.instance(replica).config().quorum();
            for cert in certs {
                assert_eq!(cert.instance, InstanceId::new(0));
                assert!(cert.verify(quorum), "replica {r}: thin proof {cert:?}");
            }
            // The latest certificate is retained on the instance and matches
            // the delivered-prefix digest every honest replica computed.
            let latest = cluster
                .instance(replica)
                .latest_stable_checkpoint()
                .expect("checkpoint formed");
            assert_eq!(latest.seq, SeqNum::new(3));
            assert_eq!(
                latest.state_digest,
                cluster.instance(replica).delivery_digest()
            );
            assert_eq!(latest.low_water_mark(), SeqNum::new(4));
        }
    }

    #[test]
    fn cloned_instance_rebinds_to_a_new_host() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        cluster.propose(ReplicaId::new(0), make_block(0, 0, 0, 0, 1));
        cluster.run();
        let peer = cluster.instance(ReplicaId::new(1));
        let mut adopted = peer.clone();
        adopted.rebind(ReplicaId::new(3));
        assert_eq!(adopted.config().me, ReplicaId::new(3));
        assert_eq!(adopted.delivered_count(), peer.delivered_count());
        assert_eq!(adopted.delivery_digest(), peer.delivery_digest());
        assert_eq!(adopted.last_delivered(), peer.last_delivered());
    }

    #[test]
    fn view_change_vote_bookkeeping_is_pruned_on_entry() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        for r in 1..4 {
            cluster.timeout(ReplicaId::new(r));
        }
        cluster.run();
        for r in 1..4 {
            let inst = cluster.instance(ReplicaId::new(r));
            assert!(!inst.in_view_change(), "replica {r}");
            assert!(
                inst.view_change_votes.keys().all(|v| *v > inst.view),
                "replica {r} retains votes at or below its view"
            );
        }
    }

    #[test]
    fn equivocating_leader_cannot_get_two_blocks_delivered_at_same_sn() {
        // Leader sends block A to replicas 1,2 and block B to replica 3.
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        let block_a = make_block(0, 0, 0, 0, 1);
        let block_b = make_block(0, 0, 0, 0, 2);
        cluster.inject(
            ReplicaId::new(0),
            vec![ReplicaId::new(1), ReplicaId::new(2)],
            SbMessage::PrePrepare {
                block: Arc::clone(&block_a),
            },
        );
        cluster.inject(
            ReplicaId::new(0),
            vec![ReplicaId::new(3)],
            SbMessage::PrePrepare {
                block: Arc::clone(&block_b),
            },
        );
        cluster.run();
        // At most one of the two digests may be delivered, and every replica
        // that delivered anything delivered the same digest.
        let mut delivered_digests = Vec::new();
        for r in 1..4 {
            for b in cluster.delivered(ReplicaId::new(r)) {
                delivered_digests.push(b.digest());
            }
        }
        delivered_digests.dedup();
        assert!(delivered_digests.len() <= 1);
    }

    #[test]
    fn view_change_replaces_a_silent_leader() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        // Leader (replica 0) is silent. The other replicas time out.
        for r in 1..4 {
            cluster.timeout(ReplicaId::new(r));
        }
        cluster.run();
        for r in 1..4 {
            let inst = cluster.instance(ReplicaId::new(r));
            assert_eq!(inst.current_view(), View::new(1), "replica {r}");
            assert!(!inst.in_view_change(), "replica {r} should have finished");
            assert_eq!(inst.current_leader(), ReplicaId::new(1));
        }
        // The new leader can now propose and deliver.
        let block = make_block(0, 0, 1, 1, 1);
        cluster.propose(ReplicaId::new(1), block);
        cluster.run();
        for r in 1..4 {
            assert_eq!(cluster.delivered(ReplicaId::new(r)).len(), 1);
        }
    }

    #[test]
    fn prepared_block_survives_view_change() {
        let mut cluster = LocalCluster::new(InstanceId::new(0), 4, 4);
        let block = make_block(0, 0, 0, 0, 1);
        // Run the normal case only up to the prepare phase at replicas 1..3:
        // deliver the pre-prepare and prepares but drop all commit messages.
        cluster.propose(ReplicaId::new(0), Arc::clone(&block));
        cluster.run_dropping(|msg| matches!(msg, SbMessage::Commit { .. }));
        // Nothing delivered yet.
        for r in 0..4 {
            assert!(cluster.delivered(ReplicaId::new(r)).is_empty());
        }
        // Now the leader goes silent and the backups change views. The block
        // was prepared, so the new leader must re-propose it.
        for r in 1..4 {
            cluster.timeout(ReplicaId::new(r));
        }
        cluster.run();
        for r in 1..4 {
            let delivered = cluster.delivered(ReplicaId::new(r));
            assert_eq!(delivered.len(), 1, "replica {r}");
            assert_eq!(delivered[0].digest(), block.digest());
        }
    }

    #[test]
    fn sixteen_replicas_deliver_under_quorum_loss_of_f() {
        // With n = 16, f = 5: even if 5 replicas never vote, blocks deliver.
        let mut cluster = LocalCluster::new(InstanceId::new(0), 16, 8);
        cluster.silence(ReplicaId::new(11));
        cluster.silence(ReplicaId::new(12));
        cluster.silence(ReplicaId::new(13));
        cluster.silence(ReplicaId::new(14));
        cluster.silence(ReplicaId::new(15));
        for sn in 0..3 {
            cluster.propose(ReplicaId::new(0), make_block(0, sn, 0, 0, 2));
        }
        cluster.run();
        for r in 0..11 {
            assert_eq!(cluster.delivered(ReplicaId::new(r)).len(), 3, "replica {r}");
        }
    }

    #[test]
    fn flooded_proposal_delivers_at_the_leader() {
        let mut leader = PbftInstance::new(cfg(0, 4));
        let mut backups: Vec<PbftInstance> = (1..4).map(|i| PbftInstance::new(cfg(i, 4))).collect();
        let block = make_block(0, 0, 0, 0, 1);
        let mut all_msgs: Vec<(ReplicaId, SbMessage)> = Vec::new();
        for a in leader.propose(block) {
            if let SbAction::Broadcast { msg } = a {
                all_msgs.push((ReplicaId::new(0), msg));
            }
        }
        // Flood messages until quiescent.
        while let Some((from, msg)) = all_msgs.pop() {
            for inst in std::iter::once(&mut leader).chain(backups.iter_mut()) {
                if inst.config().me == from {
                    continue;
                }
                for a in inst.handle_message(from, msg.clone()) {
                    if let SbAction::Broadcast { msg } = a {
                        all_msgs.push((inst.config().me, msg));
                    }
                }
            }
        }
        assert_eq!(leader.delivered_count(), 1);
    }
}
