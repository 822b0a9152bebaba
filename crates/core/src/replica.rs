//! The Multi-BFT replica node.
//!
//! One [`ReplicaNode`] hosts everything a replica runs in the paper's
//! architecture (Fig. 2): the partition module (buckets), one PBFT
//! sequenced-broadcast instance per bucket, the ordering module (partial
//! logs, a global-ordering policy and the global log) and the execution
//! module (escrow + object store). The same node implements Orthrus and all
//! five baselines; the [`ProtocolKind`] only changes which ordering policy is
//! used and whether payments take the partial-ordering fast path.

use crate::messages::{NetMessage, ReplyStatus};
use crate::partition::{Bucket, Partitioner};
use orthrus_execution::{Executor, ObjectStore, TxOutcome};
use orthrus_ordering::{
    DqbftOrdering, GlobalLog, GlobalOrderingPolicy, LadonOrdering, PartialLogs,
    PredeterminedOrdering, RankTracker,
};
use orthrus_sb::{PbftConfig, PbftInstance, ProgressTracker, SbAction};
use orthrus_sim::{Actor, Context, LatencyStage, NodeId};
use orthrus_types::{
    Block, BlockId, BlockParams, Digest, Duration, Epoch, FxHashMap, InstanceId, ProtocolConfig,
    ProtocolKind, ReplicaId, SharedBlock, SharedTx, SimTime, StableCheckpoint, SystemState, TxId,
    TxSet, TxTable,
};
use std::any::Any;
use std::sync::Arc;

/// Timer tag base: leader batch timer (try to propose in every instance we
/// lead).
const TIMER_BATCH: u64 = 1;
/// Timer tag base: failure detector sweep.
const TIMER_FAILURE_DETECTOR: u64 = 2;
/// Timer tag base: crash-recovery sync round (only armed while syncing).
const TIMER_RECOVERY_SYNC: u64 = 3;
/// Timer tags carry a restart epoch in their upper bits so a timer armed
/// before a crash cannot fire into the state installed after recovery:
/// `tag = epoch * TIMER_EPOCH_STRIDE + base`.
const TIMER_EPOCH_STRIDE: u64 = 8;
/// Number of sequence numbers assigned to each instance per epoch (the
/// `epoch` stamped on every proposed block).
const EPOCH_LENGTH: u64 = 4;

/// The global-ordering policy selected by the protocol.
#[derive(Clone)]
pub(crate) enum Policy {
    Predetermined(PredeterminedOrdering),
    Dqbft(DqbftOrdering),
    Ladon(LadonOrdering),
}

impl Policy {
    fn for_protocol(protocol: ProtocolKind, m: u32) -> Self {
        match protocol {
            ProtocolKind::Iss | ProtocolKind::MirBft | ProtocolKind::Rcc => {
                Policy::Predetermined(PredeterminedOrdering::new(m))
            }
            ProtocolKind::Dqbft => Policy::Dqbft(DqbftOrdering::new()),
            ProtocolKind::Ladon | ProtocolKind::Orthrus => Policy::Ladon(LadonOrdering::new(m)),
        }
    }

    fn on_deliver(&mut self, block: SharedBlock) -> Vec<SharedBlock> {
        match self {
            Policy::Predetermined(p) => p.on_deliver(block),
            Policy::Dqbft(p) => p.on_deliver(block),
            Policy::Ladon(p) => p.on_deliver(block),
        }
    }

    fn on_order_decision(&mut self, id: orthrus_types::BlockId) -> Vec<SharedBlock> {
        match self {
            Policy::Predetermined(p) => p.on_order_decision(id),
            Policy::Dqbft(p) => p.on_order_decision(id),
            Policy::Ladon(p) => p.on_order_decision(id),
        }
    }

    fn pending(&self) -> usize {
        match self {
            Policy::Predetermined(p) => p.pending(),
            Policy::Dqbft(p) => p.pending(),
            Policy::Ladon(p) => p.pending(),
        }
    }

    fn dqbft(&self) -> Option<&DqbftOrdering> {
        match self {
            Policy::Dqbft(p) => Some(p),
            _ => None,
        }
    }
}

/// The lightweight snapshot a replica refreshes at every stable checkpoint:
/// the quorum certificates in force plus the executor's incremental state
/// digest at the moment of stabilisation. The cheap part (the store's
/// incremental digest, O(1)) is taken eagerly; the expensive part (cloning
/// the executor state) is deferred to state-transfer time
/// ("clone-on-snapshot"), when a recovering peer actually asks for it.
#[derive(Debug, Clone)]
pub struct CheckpointAnchor {
    /// The latest stable-checkpoint certificate of every instance that has
    /// one, in instance order.
    pub checkpoints: Vec<StableCheckpoint>,
    /// Executor state digest at the moment the anchor was refreshed.
    pub store_digest: Digest,
    /// Virtual time of the refresh.
    pub taken_at: SimTime,
}

/// Consensus- and ordering-layer catch-up state carried by a state transfer
/// so a restarted replica can rejoin mid-run, not just adopt balances.
#[derive(Clone)]
pub(crate) struct CatchUp {
    pub(crate) instances: Vec<PbftInstance>,
    pub(crate) plogs: PartialLogs,
    pub(crate) glog: GlobalLog,
    pub(crate) executed_state: SystemState,
    pub(crate) stable: SystemState,
    pub(crate) stable_certs: Vec<Option<StableCheckpoint>>,
    pub(crate) policy: Policy,
    pub(crate) rank: RankTracker,
    pub(crate) buckets: Vec<Bucket>,
    pub(crate) replied: TxSet,
    pub(crate) delivered_blocks: u64,
}

/// A crash-recovery state transfer: everything a restarted replica installs
/// to rejoin the run (paper §V-D's checkpoint-anchored recovery, carried
/// over the simulated network as one message).
///
/// The honest-peer assumption of the simulation applies: the receiver adopts
/// the sender's observed protocol state wholesale. A deployment would fetch
/// the same payload from `f + 1` peers and cross-check it against the
/// checkpoint certificates (which travel along precisely so that check is
/// possible — `StableCheckpoint::verify`).
pub struct StateTransfer {
    /// The latest stable-checkpoint certificate per instance at the sender.
    pub checkpoint: Vec<StableCheckpoint>,
    /// The sender's execution state: the object store (the paper's state
    /// payload) plus the escrow log and per-transaction outcome bookkeeping
    /// that make installation exact.
    pub executor: Executor,
    /// Consensus/ordering catch-up state (private to the crate).
    pub(crate) catch_up: CatchUp,
    /// Monotone progress mark of the sender (delivered blocks + global-log
    /// length); installs are fast-forward only.
    pub(crate) mark: u64,
    /// Estimated wire size, computed once at build time.
    pub(crate) wire_bytes: u64,
}

impl StateTransfer {
    /// Estimated bytes this transfer occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// The sender's monotone progress mark (delivered blocks across all
    /// instances plus global-log length).
    pub fn progress_mark(&self) -> u64 {
        self.mark
    }
}

impl std::fmt::Debug for StateTransfer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateTransfer")
            .field("checkpoints", &self.checkpoint.len())
            .field("objects", &self.executor.store().len())
            .field("mark", &self.mark)
            .field("wire_bytes", &self.wire_bytes)
            .finish_non_exhaustive()
    }
}

/// Equality by identity: transfers are `Arc`-shared snapshots, and message
/// equality (used only by tests over small control messages) never needs to
/// compare two distinct snapshots structurally.
impl PartialEq for StateTransfer {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

/// A Multi-BFT replica (Orthrus or one of the baselines).
pub struct ReplicaNode {
    me: ReplicaId,
    protocol: ProtocolKind,
    config: ProtocolConfig,
    partitioner: Partitioner,
    buckets: Vec<Bucket>,
    instances: Vec<PbftInstance>,
    plogs: PartialLogs,
    glog: GlobalLog,
    policy: Policy,
    executor: Executor,
    rank: RankTracker,
    progress: ProgressTracker,
    /// Blocks whose partial-log execution has completed, per instance.
    executed_state: SystemState,
    /// DQBFT: the delivery mark (`DqbftOrdering::next_mark`) up to which
    /// this replica has proposed the undecided ids as the ordering
    /// instance's leader in the current view.
    ordering_proposed: u64,
    /// Transactions already answered to their client.
    replied: TxSet,
    /// Undetectable-fault behaviour: keep leading our own instance but ignore
    /// every other instance (paper §VII-E).
    selfish: bool,
    /// Total number of blocks this replica delivered across instances.
    delivered_blocks: u64,
    /// Transaction occurrences in the data blocks this replica delivered
    /// (a transaction counts once per block it appears in).
    delivered_tx_occurrences: u64,
    /// Every other replica, in id order: the recipients of each broadcast.
    peers: Vec<NodeId>,
    /// Per-instance stable-checkpoint frontier (drives log truncation).
    stable: SystemState,
    /// Latest stable-checkpoint certificate per instance.
    stable_certs: Vec<Option<StableCheckpoint>>,
    /// Snapshot anchor refreshed at every stable checkpoint.
    anchor: Option<CheckpointAnchor>,
    /// Peak retained log entries observed (plog + glog payloads + PBFT
    /// slots).
    peak_retained_entries: u64,
    /// Peak retained log bytes observed (plog + glog payload estimate).
    peak_retained_bytes: u64,
    /// True between a crash-recover restart and the first installed state
    /// transfer: consensus traffic is ignored (the local state is stale).
    recovering: bool,
    /// True while the recovery sync loop is still requesting transfers.
    syncing: bool,
    /// Did any transfer advance us since the last sync round fired?
    sync_advanced: bool,
    /// Sync rounds issued since restart (rotates the request targets).
    sync_round: u64,
    /// Virtual time the first state transfer was installed after a restart.
    recovered_at: Option<SimTime>,
    /// Restart epoch carried in timer tags (see `TIMER_EPOCH_STRIDE`).
    timer_epoch: u64,
    /// Virtual time each block entered the glog's pending region, keyed by
    /// block id. Entries are removed when the block executes; the delta feeds
    /// the per-run glog-wait statistics (how long global ordering stalls
    /// behind partial-log execution under §V-C's alignment rule).
    glog_appended_at: FxHashMap<BlockId, SimTime>,
}

impl ReplicaNode {
    /// Build a replica for `protocol` with the given genesis state. The
    /// genesis store's write counters are sized to one slot per SB instance
    /// (plus shared writes), so they measure the load each instance's
    /// accounts put on execution; this never changes what the replica
    /// computes. `table` is the run's transaction table, which slot-indexes
    /// the buckets', the executor's and the reply bookkeeping.
    pub fn new(
        me: ReplicaId,
        protocol: ProtocolKind,
        config: ProtocolConfig,
        mut genesis: ObjectStore,
        table: Arc<TxTable>,
    ) -> Self {
        let m = config.num_instances;
        genesis.reshard(m);
        let total_instances = if protocol == ProtocolKind::Dqbft {
            m + 1
        } else {
            m
        };
        let instances = (0..total_instances)
            .map(|i| {
                PbftInstance::new(PbftConfig {
                    instance: InstanceId::new(i),
                    me,
                    num_replicas: config.num_replicas,
                    checkpoint_interval: config.checkpoint_interval,
                })
            })
            .collect();
        Self {
            me,
            protocol,
            partitioner: Partitioner::new(m),
            buckets: (0..m)
                .map(|_| Bucket::with_table(Arc::clone(&table)))
                .collect(),
            instances,
            plogs: PartialLogs::new(m),
            glog: GlobalLog::new(),
            policy: Policy::for_protocol(protocol, m),
            executor: Executor::with_store_and_table(genesis, Arc::clone(&table)),
            rank: RankTracker::new(),
            progress: ProgressTracker::new(config.view_change_timeout),
            executed_state: SystemState::new(m as usize),
            ordering_proposed: 0,
            replied: TxSet::new(table),
            selfish: false,
            delivered_blocks: 0,
            delivered_tx_occurrences: 0,
            peers: (0..config.num_replicas)
                .filter(|&r| r != me.value())
                .map(NodeId::replica)
                .collect(),
            stable: SystemState::new(total_instances as usize),
            stable_certs: vec![None; total_instances as usize],
            anchor: None,
            peak_retained_entries: 0,
            peak_retained_bytes: 0,
            recovering: false,
            syncing: false,
            sync_advanced: false,
            sync_round: 0,
            recovered_at: None,
            timer_epoch: 0,
            glog_appended_at: FxHashMap::default(),
            config,
        }
    }

    /// Mark this replica as a "selfish" Byzantine node: it keeps proposing in
    /// the instance it leads but ignores all other instances (undetectable
    /// fault of §VII-E).
    pub fn set_selfish(&mut self, selfish: bool) {
        self.selfish = selfish;
    }

    /// The protocol this replica runs.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Access to the execution engine (final balances, outcomes, digests).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Number of blocks delivered across all SB instances.
    pub fn delivered_blocks(&self) -> u64 {
        self.delivered_blocks
    }

    /// Transaction occurrences in the data blocks this replica delivered. A
    /// transaction with payers in k instances is ordered k times; anything
    /// beyond that is a duplicate proposal.
    pub fn delivered_tx_occurrences(&self) -> u64 {
        self.delivered_tx_occurrences
    }

    /// Number of transactions this replica has confirmed to clients.
    pub fn confirmed_transactions(&self) -> usize {
        self.replied.len()
    }

    /// Log entries currently retained: partial-log blocks, global-log
    /// payloads and PBFT per-sequence slots. Checkpoint truncation holds
    /// this at the in-flight window instead of letting it grow with the run.
    pub fn retained_log_entries(&self) -> u64 {
        self.plogs.total_blocks() as u64
            + self.glog.retained_len() as u64
            + self
                .instances
                .iter()
                .map(|i| i.retained_slots() as u64)
                .sum::<u64>()
    }

    /// Wire-size estimate of the retained partial/global-log payloads.
    pub fn retained_log_bytes(&self) -> u64 {
        self.plogs.retained_bytes() + self.glog.retained_bytes()
    }

    /// Peak of [`ReplicaNode::retained_log_entries`] over the run.
    pub fn peak_retained_entries(&self) -> u64 {
        self.peak_retained_entries
    }

    /// Peak of [`ReplicaNode::retained_log_bytes`] over the run.
    pub fn peak_retained_bytes(&self) -> u64 {
        self.peak_retained_bytes
    }

    /// Virtual time this replica completed crash recovery (installed its
    /// first state transfer after a restart), if it did.
    pub fn recovered_at(&self) -> Option<SimTime> {
        self.recovered_at
    }

    /// The DQBFT ordering instance id (one past the data instances).
    fn ordering_instance(&self) -> InstanceId {
        InstanceId::new(self.config.num_instances)
    }

    fn is_ordering_instance(&self, instance: InstanceId) -> bool {
        self.protocol == ProtocolKind::Dqbft && instance == self.ordering_instance()
    }

    /// Snapshot of the delivered state `S` across all data instances, used as
    /// the `b.S` reference in new proposals.
    fn delivered_state(&self) -> SystemState {
        let mut state = SystemState::new(self.config.num_instances as usize);
        for (idx, inst) in self
            .instances
            .iter()
            .enumerate()
            .take(self.config.num_instances as usize)
        {
            if let Some(sn) = inst.last_delivered() {
                state.observe(InstanceId::new(idx as u32), sn);
            }
        }
        state
    }

    // ------------------------------------------------------------------
    // Outbound plumbing
    // ------------------------------------------------------------------

    fn apply_sb_actions(
        &mut self,
        instance: InstanceId,
        actions: Vec<SbAction>,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        for action in actions {
            match action {
                SbAction::Broadcast { msg } => {
                    ctx.multicast(
                        self.peers.iter().copied(),
                        NetMessage::Consensus {
                            instance,
                            inner: msg,
                        },
                    );
                }
                SbAction::Deliver { block } => {
                    self.on_block_delivered(instance, block, ctx);
                }
                SbAction::ViewChanged { leader, .. } => {
                    ctx.stats().view_change_completed();
                    self.progress.record_progress(instance, ctx.now());
                    if self.is_ordering_instance(instance) {
                        // The new leader proposes every undecided id again,
                        // including those the old leader left in flight.
                        self.ordering_proposed = 0;
                    }
                    // Make sure the new leader knows about every transaction
                    // still pending in this bucket: the old leader may have
                    // been the only replica the client contacted.
                    if leader != self.me && !self.is_ordering_instance(instance) {
                        let pending: Vec<SharedTx> =
                            self.buckets[instance.as_usize()].pull(usize::MAX, |_| true);
                        for tx in pending {
                            ctx.send(
                                NodeId::Replica(leader),
                                NetMessage::ClientRequest {
                                    tx: Arc::clone(&tx),
                                },
                            );
                            // Keep a local reference so censorship by the new
                            // leader can still be detected.
                            self.buckets[instance.as_usize()].push(tx);
                        }
                    }
                }
                SbAction::StableCheckpoint { checkpoint } => {
                    self.on_stable_checkpoint(instance, checkpoint, ctx);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints, garbage collection and snapshots
    // ------------------------------------------------------------------

    /// A PBFT instance certified a stable checkpoint: advance the truncation
    /// frontier, release partial/global-log payloads below it and refresh the
    /// snapshot anchor.
    fn on_stable_checkpoint(
        &mut self,
        instance: InstanceId,
        checkpoint: StableCheckpoint,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        debug_assert_eq!(checkpoint.instance, instance);
        self.stable.observe(instance, checkpoint.seq);
        let idx = instance.as_usize();
        if idx < self.stable_certs.len() {
            self.stable_certs[idx] = Some(checkpoint.clone());
        }
        if !self.is_ordering_instance(instance) {
            self.plogs.get_mut(instance).truncate_before(checkpoint.seq);
        }
        self.glog.truncate_before(&self.stable);
        let certs = self.stable_certs.iter().flatten().cloned().collect();
        self.refresh_anchor(certs, ctx.now());
        self.sample_retention();
    }

    /// Rebuild the snapshot anchor from a certificate set: the one place the
    /// anchor's contents are assembled, shared by the checkpoint path and
    /// the state-transfer install path.
    fn refresh_anchor(&mut self, checkpoints: Vec<StableCheckpoint>, now: SimTime) {
        self.anchor = (!checkpoints.is_empty()).then(|| CheckpointAnchor {
            checkpoints,
            store_digest: self.executor.state_digest(),
            taken_at: now,
        });
    }

    /// Update the peak retained-entry/byte high-water marks. Called after
    /// every delivery and truncation, so the peaks reflect what the logs
    /// actually held between checkpoints.
    fn sample_retention(&mut self) {
        let entries = self.retained_log_entries();
        let bytes = self.retained_log_bytes();
        self.peak_retained_entries = self.peak_retained_entries.max(entries);
        self.peak_retained_bytes = self.peak_retained_bytes.max(bytes);
    }

    fn confirm_tx(&mut self, tx: TxId, outcome: TxOutcome, ctx: &mut Context<'_, NetMessage>) {
        if !self.replied.insert(tx) {
            return;
        }
        let now = ctx.now();
        ctx.stats()
            .stage_reached(tx, LatencyStage::GlobalOrdering, now);
        ctx.send(
            NodeId::Client(self.config.client_actor_of(tx.client)),
            NetMessage::ClientReply {
                tx,
                status: ReplyStatus::from(outcome),
                replica: self.me,
            },
        );
    }

    // ------------------------------------------------------------------
    // Delivery, global ordering and execution
    // ------------------------------------------------------------------

    fn on_block_delivered(
        &mut self,
        instance: InstanceId,
        block: SharedBlock,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        self.delivered_blocks += 1;
        ctx.stats().block_delivered();
        self.progress.record_progress(instance, ctx.now());
        self.rank.observe_block(&block);

        if self.is_ordering_instance(instance) {
            // DQBFT: the delivered block carries ordering decisions.
            for &id in &block.header.ordered_ids {
                let confirmed = self.policy.on_order_decision(id);
                self.handle_globally_confirmed(confirmed, ctx);
            }
            if self
                .policy
                .dqbft()
                .is_some_and(|p| p.undecided_from(0).next().is_none())
            {
                self.progress.clear_expectation(instance);
            }
            return;
        }

        // Partition-module bookkeeping: these transactions are no longer
        // pending in this instance's bucket.
        self.delivered_tx_occurrences += block.txs.len() as u64;
        for tx in &block.txs {
            self.buckets[instance.as_usize()].mark_delivered(tx.id);
            let now = ctx.now();
            ctx.stats()
                .stage_reached(tx.id, LatencyStage::PartialOrdering, now);
        }
        if !self.buckets[instance.as_usize()].has_pending() {
            self.progress.clear_expectation(instance);
        }

        // Ordering module: partial log + global ordering policy. Both paths
        // share the delivered block's handle — no payload copies.
        self.plogs.get_mut(instance).insert(Arc::clone(&block));
        let id = block.id();
        let confirmed = self.policy.on_deliver(block);
        if self.policy.dqbft().is_some_and(|p| p.is_undecided(id)) {
            // Every replica expects the ordering instance to decide it.
            let ordering = self.ordering_instance();
            self.progress.record_expectation(ordering, ctx.now());
        }
        self.handle_globally_confirmed(confirmed, ctx);

        // Execution module: advance the partial-log fast path, then any glog
        // entries that were waiting for those escrows.
        self.process_partial_logs(ctx);
        self.process_global_log(ctx);

        // DQBFT: the ordering leader proposes decisions as soon as it has
        // some (batched opportunistically; the batch timer also retries).
        self.try_propose_ordering(ctx);

        // Retained-memory accounting: the window between checkpoints is
        // exactly when retention peaks, so sample after every delivery.
        self.sample_retention();
    }

    /// Drain every partial-log block whose referenced state `b.S` is covered
    /// by what we have already executed (paper §V-C) and run the payment
    /// fast path over the batch, one transaction at a time in drain order
    /// ([`Executor::process_plog_schedule`]).
    fn process_partial_logs(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let schedule = self.plogs.drain_ready(&mut self.executed_state);
        if schedule.is_empty() || self.protocol != ProtocolKind::Orthrus {
            return;
        }
        // Fast path: escrow + commit payments straight from the partial logs
        // (Algorithm 1 lines 20–30).
        let assign = self.partitioner;
        let confirmations = self
            .executor
            .process_plog_schedule(&schedule, &|key| assign.assign(key));
        for (tx, outcome) in confirmations {
            if let Some(outcome) = outcome {
                self.confirm_tx(tx, outcome, ctx);
            }
        }
    }

    /// Append globally confirmed blocks to the glog and execute whatever
    /// prefix of the glog is ready according to the protocol's execution
    /// rule.
    fn handle_globally_confirmed(
        &mut self,
        confirmed: Vec<SharedBlock>,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        let now = ctx.now();
        for block in confirmed {
            // `or_insert` (not overwrite): duplicate global confirmations of
            // the same block must not reset the wait clock.
            self.glog_appended_at.entry(block.id()).or_insert(now);
            self.glog.append(block);
        }
        self.process_global_log(ctx);
    }

    /// Execute globally ordered blocks from the glog cursor onwards.
    ///
    /// For Orthrus the execution of a glog entry "must strictly align with
    /// the global state at its designated position" (§V-C): we only execute a
    /// glog block once its own partial-log processing (which performs the
    /// escrow operations of its transactions) has completed, so that
    /// `allEscrowed` reflects every leg that was going to be escrowed. The
    /// baselines execute unconditionally in glog order, which is already
    /// deterministic for them because all their effects happen here.
    fn process_global_log(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let assign = self.partitioner;
        loop {
            let ready = match self.glog.first_pending() {
                Some(block) => {
                    self.protocol != ProtocolKind::Orthrus
                        || self
                            .executed_state
                            .get(block.header.instance)
                            .is_some_and(|sn| sn >= block.header.sn)
                }
                None => false,
            };
            if !ready {
                break;
            }
            // orthrus: allow(panic-path): the ready check above just matched Some on first_pending; the glog is not touched in between.
            let block = self.glog.pop_pending().expect("first_pending was Some");
            if let Some(appended) = self.glog_appended_at.remove(&block.id()) {
                let wait = ctx.now() - appended;
                ctx.stats().glog_wait(wait);
            }
            for tx in &block.txs {
                let outcome = match self.protocol {
                    ProtocolKind::Orthrus => {
                        // Only contract transactions still need the global
                        // log; payments were confirmed on the fast path.
                        self.executor.process_glog_tx(tx, &|key| assign.assign(key))
                    }
                    _ => Some(self.executor.process_sequential_tx(tx)),
                };
                if let Some(outcome) = outcome {
                    self.confirm_tx(tx.id, outcome, ctx);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Proposal paths
    // ------------------------------------------------------------------

    /// Try to propose in every data instance this replica currently leads.
    fn try_propose_all(&mut self, ctx: &mut Context<'_, NetMessage>) {
        for i in 0..self.config.num_instances {
            self.try_propose_data(InstanceId::new(i), ctx);
        }
        self.try_propose_ordering(ctx);
    }

    fn try_propose_data(&mut self, instance: InstanceId, ctx: &mut Context<'_, NetMessage>) {
        let idx = instance.as_usize();
        if !self.instances[idx].is_leader() {
            return;
        }
        let sn = self.instances[idx].next_propose_sn();
        let delivered = self.instances[idx]
            .last_delivered()
            .map_or(0, |s| s.value() + 1);
        if sn.value() >= delivered + self.config.max_inflight_blocks {
            return;
        }
        let executor = &self.executor;
        let txs =
            self.buckets[idx].pull(self.config.batch_size, |tx| executor.speculative_valid(tx));
        // When the bucket is empty but other instances have delivered blocks
        // that cannot be globally confirmed yet (a gap in the pre-determined
        // interleaving, or a stalled Ladon bar), fill our slot with a no-op
        // block so the global log keeps moving (ISS's no-op mechanism).
        let needs_noop = txs.is_empty() && self.policy.pending() > 0;
        if txs.is_empty() && !needs_noop {
            return;
        }
        let params = BlockParams {
            instance,
            sn,
            epoch: Epoch::new(sn.value() / EPOCH_LENGTH),
            view: self.instances[idx].current_view(),
            proposer: self.me,
            rank: self.rank.next_rank(),
            state: self.delivered_state(),
        };
        let block = Arc::new(if txs.is_empty() {
            Block::no_op(params)
        } else {
            for tx in &txs {
                let now = ctx.now();
                ctx.stats()
                    .stage_reached(tx.id, LatencyStage::Preprocess, now);
            }
            // The batch is assembled from the bucket's shared handles; the
            // only allocation here is the block itself.
            Block::from_shared(params, txs)
        });
        let actions = self.instances[idx].propose(block, ctx.now());
        self.progress.record_expectation(instance, ctx.now());
        self.apply_sb_actions(instance, actions, ctx);
    }

    fn try_propose_ordering(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let Some(ordering) = self.policy.dqbft() else {
            return;
        };
        let from = self.ordering_proposed;
        if ordering.undecided_from(from).next().is_none() {
            return;
        }
        let instance = self.ordering_instance();
        let idx = instance.as_usize();
        if !self.instances[idx].is_leader() {
            return;
        }
        let sn = self.instances[idx].next_propose_sn();
        let delivered = self.instances[idx]
            .last_delivered()
            .map_or(0, |s| s.value() + 1);
        if sn.value() >= delivered + self.config.max_inflight_blocks {
            return;
        }
        let ids = ordering.undecided_from(from).collect();
        self.ordering_proposed = ordering.next_mark();
        let params = BlockParams {
            instance,
            sn,
            epoch: Epoch::new(sn.value() / EPOCH_LENGTH),
            view: self.instances[idx].current_view(),
            proposer: self.me,
            rank: self.rank.next_rank(),
            state: self.delivered_state(),
        };
        let block = Arc::new(Block::ordering(params, ids));
        let actions = self.instances[idx].propose(block, ctx.now());
        self.apply_sb_actions(instance, actions, ctx);
    }

    // ------------------------------------------------------------------
    // Inbound handlers
    // ------------------------------------------------------------------

    fn on_client_request(&mut self, from: NodeId, tx: SharedTx, ctx: &mut Context<'_, NetMessage>) {
        if tx.validate().is_err() {
            return;
        }
        if self.replied.contains(tx.id) {
            return;
        }
        let now = ctx.now();
        ctx.stats().stage_reached(tx.id, LatencyStage::Send, now);
        let forward = !from.is_replica();
        for instance in self.partitioner.instances_of(&tx) {
            if self.buckets[instance.as_usize()].push(Arc::clone(&tx)) {
                self.progress.record_expectation(instance, ctx.now());
            }
            // Clients only contact f + 1 replicas (censorship resistance,
            // §V-B); whichever replica receives the request relays it to the
            // instance's current leader so it can be proposed promptly.
            // Requests relayed by other replicas are not forwarded again,
            // which keeps the relay loop-free.
            if forward {
                let leader = self.instances[instance.as_usize()].current_leader();
                if leader != self.me {
                    ctx.send(
                        NodeId::Replica(leader),
                        NetMessage::ClientRequest {
                            tx: Arc::clone(&tx),
                        },
                    );
                }
            }
        }
    }

    fn on_consensus(
        &mut self,
        from: ReplicaId,
        instance: InstanceId,
        inner: orthrus_sb::SbMessage,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        let idx = instance.as_usize();
        if idx >= self.instances.len() {
            return;
        }
        if self.selfish {
            // Undetectable fault: participate only in the instance we lead.
            let leads_it = self.instances[idx].current_leader() == self.me;
            if !leads_it {
                return;
            }
        }
        let actions = self.instances[idx].handle_message(from, inner, ctx.now());
        self.apply_sb_actions(instance, actions, ctx);
    }

    fn on_failure_detector_sweep(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let now = ctx.now();
        for i in 0..self.instances.len() {
            let instance = InstanceId::new(i as u32);
            if self.instances[i].in_view_change() {
                continue;
            }
            if self.progress.should_suspect(instance, now) {
                let actions = self.instances[i].on_timeout(now);
                // Suspicion handled; reset the expectation clock so we do not
                // immediately re-suspect the new leader.
                self.progress.record_progress(instance, now);
                self.apply_sb_actions(instance, actions, ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Crash recovery: state transfer
    // ------------------------------------------------------------------

    /// Monotone progress mark: total blocks delivered across instances plus
    /// global-log length. State-transfer installs are fast-forward only with
    /// respect to this mark.
    fn progress_mark(&self) -> u64 {
        self.instances
            .iter()
            .map(PbftInstance::delivered_count)
            .sum::<u64>()
            + self.glog.len() as u64
    }

    /// Package this replica's state for a recovering peer: the stable
    /// checkpoint certificates, a clone-on-snapshot of the execution state,
    /// and the consensus/ordering catch-up. Everything above the checkpoint
    /// low-water marks is still retained locally (that is exactly what the
    /// retention policy keeps), so the transfer lets the peer resume mid-run,
    /// not just at the checkpoint.
    fn build_state_transfer(&self) -> StateTransfer {
        let checkpoint: Vec<StableCheckpoint> =
            self.stable_certs.iter().flatten().cloned().collect();
        let executor = self.executor.clone();
        let wire_bytes = 1_024
            + executor.store().len() as u64 * 48
            + checkpoint.len() as u64 * 128
            + self.plogs.retained_bytes()
            + self.glog.retained_bytes();
        StateTransfer {
            checkpoint,
            executor,
            catch_up: CatchUp {
                instances: self.instances.clone(),
                plogs: self.plogs.clone(),
                glog: self.glog.clone(),
                executed_state: self.executed_state.clone(),
                stable: self.stable.clone(),
                stable_certs: self.stable_certs.clone(),
                policy: self.policy.clone(),
                rank: self.rank.clone(),
                buckets: self.buckets.clone(),
                replied: self.replied.clone(),
                delivered_blocks: self.delivered_blocks,
            },
            mark: self.progress_mark(),
            wire_bytes,
        }
    }

    fn on_state_request(
        &mut self,
        from: ReplicaId,
        want_state: bool,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        // A replica that is itself mid-recovery has nothing trustworthy to
        // offer; the requester's other peers will answer.
        if self.recovering || from == self.me {
            return;
        }
        if want_state {
            let state = Arc::new(self.build_state_transfer());
            ctx.send(NodeId::Replica(from), NetMessage::StateTransfer { state });
        }
        // The requester may lead instances whose pending transactions only
        // exist in *our* buckets (relays sent while it was down were
        // dropped). Re-relay them, exactly like the view-change path does
        // for a new leader; bucket dedup makes repeats across sync rounds
        // harmless.
        for idx in 0..self.buckets.len() {
            if self.instances[idx].current_leader() != from {
                continue;
            }
            let pending: Vec<SharedTx> = self.buckets[idx].pull(usize::MAX, |_| true);
            for tx in pending {
                ctx.send(
                    NodeId::Replica(from),
                    NetMessage::ClientRequest {
                        tx: Arc::clone(&tx),
                    },
                );
                self.buckets[idx].push(tx);
            }
        }
    }

    /// Install a state transfer. Installs are fast-forward only: the first
    /// transfer after a restart always installs (the local state is stale by
    /// definition); later ones install only if the sender is ahead. A
    /// transfer that is *not* ahead means we have caught up with that peer —
    /// the sync round timer uses that to decide when to stop asking.
    ///
    /// An *advancing* transfer installs even after the sync loop has stopped
    /// (a large snapshot's serialization can outlive a short round delay):
    /// transfers only ever arrive in response to our own requests, the
    /// advancement gate makes late installs monotone, and installing one
    /// re-opens the loop so convergence is re-verified.
    fn on_state_transfer(&mut self, state: &StateTransfer, ctx: &mut Context<'_, NetMessage>) {
        if !self.recovering && state.mark <= self.progress_mark() {
            return;
        }
        // Adopt the peer's observed state wholesale, rebinding the PBFT
        // instances to our own identity.
        self.instances = state.catch_up.instances.clone();
        for instance in &mut self.instances {
            instance.rebind(self.me);
        }
        self.executor = state.executor.clone();
        self.plogs = state.catch_up.plogs.clone();
        self.glog = state.catch_up.glog.clone();
        self.executed_state = state.catch_up.executed_state.clone();
        self.stable = state.catch_up.stable.clone();
        self.stable_certs = state.catch_up.stable_certs.clone();
        self.policy = state.catch_up.policy.clone();
        self.rank = state.catch_up.rank.clone();
        // Adopt the peer's buckets, then merge back anything that reached
        // *us* between restart and install (direct client traffic and
        // peer re-relays) — the adopted bucket's delivered-set dedups
        // whatever the peer already saw ordered.
        let old_buckets = std::mem::replace(&mut self.buckets, state.catch_up.buckets.clone());
        for (idx, mut bucket) in old_buckets.into_iter().enumerate() {
            for tx in bucket.pull(usize::MAX, |_| true) {
                self.buckets[idx].push(tx);
            }
        }
        self.replied = state.catch_up.replied.clone();
        // Whatever the peer proposed is not ours: propose it again if we lead.
        self.ordering_proposed = 0;
        self.delivered_blocks = state.catch_up.delivered_blocks;
        let now = ctx.now();
        self.refresh_anchor(state.checkpoint.clone(), now);
        self.progress = ProgressTracker::new(self.config.view_change_timeout);
        self.sync_advanced = true;
        if !self.syncing {
            // The loop had already concluded; this late install re-opens it
            // so the next round can re-verify convergence.
            self.syncing = true;
            ctx.set_timer(self.sync_round_delay(), self.tag(TIMER_RECOVERY_SYNC));
        }
        if self.recovering {
            self.recovering = false;
            self.recovered_at = Some(now);
            // Restart the protocol timers under the current restart epoch
            // (the pre-crash timers are dead: their epoch no longer matches).
            self.arm_protocol_timers(ctx);
        }
        self.sample_retention();
    }

    /// Delay between recovery sync rounds: long enough for a round trip to
    /// the farthest peer plus its (large) response, short enough to keep
    /// recovery latency in the sub-second-per-round range.
    fn sync_round_delay(&self) -> Duration {
        Duration::from_micros(
            (self.config.view_change_timeout.as_micros() / 8)
                .max(4 * self.config.batch_timeout.as_micros())
                .max(200_000),
        )
    }

    fn tag(&self, base: u64) -> u64 {
        self.timer_epoch * TIMER_EPOCH_STRIDE + base
    }

    fn arm_protocol_timers(&mut self, ctx: &mut Context<'_, NetMessage>) {
        ctx.set_timer(self.config.batch_timeout, self.tag(TIMER_BATCH));
        let sweep =
            Duration::from_micros((self.config.view_change_timeout.as_micros() / 4).max(1_000));
        ctx.set_timer(sweep, self.tag(TIMER_FAILURE_DETECTOR));
    }

    /// The `f + 1` peers a sync round asks for state, rotating by round so
    /// crashed or lagging peers cannot starve recovery. Serving a transfer
    /// deep-clones the peer's whole state, so asking everyone every round
    /// (n − 1 clones of which at most one installs) would waste both peer
    /// CPU and simulated wire; `f + 1` guarantees at least one honest
    /// responder per round under the fault budget.
    fn sync_targets(&self) -> Vec<NodeId> {
        let n = self.config.num_replicas;
        let start = (u64::from(self.me.value()) + 1 + self.sync_round) % u64::from(n);
        (0..u64::from(n))
            .map(|i| ReplicaId::new(((start + i) % u64::from(n)) as u32))
            .filter(|r| *r != self.me)
            .take(self.config.client_quorum() as usize)
            .map(NodeId::Replica)
            .collect()
    }

    /// One recovery sync round: (re-)request state and re-arm the round
    /// timer. Rounds keep firing until a full round passes in which no
    /// transfer advanced us — at that point every live peer we heard from is
    /// at our position, all later traffic reaches us live, and the loop
    /// stops. (A transfer still in flight when the loop stops installs
    /// anyway if it advances us, and re-opens the loop — see
    /// [`ReplicaNode::on_state_transfer`].)
    fn run_sync_round(&mut self, ctx: &mut Context<'_, NetMessage>) {
        if !self.syncing {
            return;
        }
        if !self.recovering && !self.sync_advanced {
            self.syncing = false;
            return;
        }
        self.sync_advanced = false;
        let targets = self.sync_targets();
        if self.sync_round == 0 {
            // First round only: announce the restart to the peers *not*
            // asked for state, so every peer re-relays the pending
            // transactions of instances we lead (their relays during the
            // crash window were dropped). Re-relays received from here on
            // survive the install (bucket merge), so once is enough.
            let others: Vec<NodeId> = self
                .peers
                .iter()
                .copied()
                .filter(|node| !targets.contains(node))
                .collect();
            ctx.multicast(
                others,
                NetMessage::StateRequest {
                    replica: self.me,
                    want_state: false,
                },
            );
        }
        self.sync_round += 1;
        ctx.multicast(
            targets,
            NetMessage::StateRequest {
                replica: self.me,
                want_state: true,
            },
        );
        let delay = self.sync_round_delay();
        ctx.set_timer(delay, self.tag(TIMER_RECOVERY_SYNC));
    }
}

impl Actor<NetMessage> for ReplicaNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMessage>) {
        self.arm_protocol_timers(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: NetMessage, ctx: &mut Context<'_, NetMessage>) {
        match msg {
            NetMessage::ClientRequest { tx } => {
                // Accepted even mid-recovery: the bucket contents survive the
                // state-transfer install (merged back), so client traffic
                // arriving in the install window is not lost.
                self.on_client_request(from, tx, ctx);
            }
            NetMessage::Consensus { instance, inner } => {
                if self.recovering {
                    return;
                }
                if let Some(replica) = from.as_replica() {
                    self.on_consensus(replica, instance, inner, ctx);
                }
            }
            NetMessage::StateRequest {
                replica,
                want_state,
            } => self.on_state_request(replica, want_state, ctx),
            NetMessage::StateTransfer { state } => self.on_state_transfer(&state, ctx),
            NetMessage::ClientReply { .. } => {}
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, NetMessage>) {
        // Timers armed before a crash carry a stale epoch: ignore them so
        // they cannot fire into post-recovery state (or double-schedule the
        // protocol timers).
        if tag / TIMER_EPOCH_STRIDE != self.timer_epoch {
            return;
        }
        match tag % TIMER_EPOCH_STRIDE {
            TIMER_BATCH => {
                self.try_propose_all(ctx);
                ctx.set_timer(self.config.batch_timeout, self.tag(TIMER_BATCH));
            }
            TIMER_FAILURE_DETECTOR => {
                self.on_failure_detector_sweep(ctx);
                let sweep = Duration::from_micros(
                    (self.config.view_change_timeout.as_micros() / 4).max(1_000),
                );
                ctx.set_timer(sweep, self.tag(TIMER_FAILURE_DETECTOR));
            }
            TIMER_RECOVERY_SYNC => self.run_sync_round(ctx),
            _ => {}
        }
    }

    /// Crash-recover restart: forget that any timer chain exists (stale
    /// epochs are ignored on arrival), mark the local state stale and start
    /// the state-transfer sync loop.
    fn on_recover(&mut self, ctx: &mut Context<'_, NetMessage>) {
        self.timer_epoch += 1;
        self.recovering = true;
        self.syncing = true;
        self.sync_advanced = false;
        self.run_sync_round(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh replica `me` of a 4-replica `protocol` deployment.
    fn replica(me: u32, protocol: ProtocolKind) -> ReplicaNode {
        let mut genesis = ObjectStore::new();
        for k in 0..16u64 {
            genesis.create_account(orthrus_types::ObjectKey::new(k), 1_000);
        }
        let config = ProtocolConfig::for_replicas(4);
        ReplicaNode::new(
            ReplicaId::new(me),
            protocol,
            config,
            genesis,
            Arc::default(),
        )
    }

    #[test]
    fn replica_construction_per_protocol() {
        for protocol in ProtocolKind::ALL {
            let node = replica(0, protocol);
            assert_eq!(node.protocol(), protocol);
            let expected_instances = if protocol == ProtocolKind::Dqbft {
                5
            } else {
                4
            };
            assert_eq!(node.instances.len(), expected_instances);
            assert_eq!(node.buckets.len(), 4);
            assert_eq!(node.confirmed_transactions(), 0);
            assert_eq!(node.delivered_blocks(), 0);
        }
    }

    #[test]
    fn ordering_instance_id_is_one_past_data_instances() {
        let node = replica(1, ProtocolKind::Dqbft);
        assert_eq!(node.ordering_instance(), InstanceId::new(4));
        assert!(node.is_ordering_instance(InstanceId::new(4)));
        assert!(!node.is_ordering_instance(InstanceId::new(0)));
    }

    #[test]
    fn delivered_state_tracks_instances() {
        let node = replica(0, ProtocolKind::Orthrus);
        let s = node.delivered_state();
        assert_eq!(s.num_instances(), 4);
        assert_eq!(s.total_delivered_blocks(), 0);
    }

    #[test]
    fn peers_exclude_self() {
        let node = replica(2, ProtocolKind::Iss);
        let peers = [0, 1, 3].map(NodeId::replica);
        assert_eq!(node.peers, peers);
    }

    #[test]
    fn fresh_replica_has_empty_checkpoint_and_retention_state() {
        let node = replica(0, ProtocolKind::Orthrus);
        assert!(node.anchor.is_none());
        assert_eq!(node.stable.total_delivered_blocks(), 0);
        assert_eq!(node.retained_log_entries(), 0);
        assert_eq!(node.retained_log_bytes(), 0);
        assert_eq!(node.peak_retained_entries(), 0);
        assert_eq!(node.peak_retained_bytes(), 0);
        assert!(node.recovered_at().is_none());
        assert_eq!(node.progress_mark(), 0);
    }

    #[test]
    fn state_transfer_snapshots_the_executor_and_mark() {
        let node = replica(1, ProtocolKind::Orthrus);
        let transfer = node.build_state_transfer();
        assert_eq!(transfer.progress_mark(), 0);
        assert!(transfer.checkpoint.is_empty());
        assert_eq!(
            transfer.executor.state_digest(),
            node.executor().state_digest()
        );
        assert_eq!(transfer.catch_up.instances.len(), 4);
        assert!(transfer.wire_bytes() >= 1_024);
        // Identity equality: a shared handle equals itself, two builds do
        // not.
        let again = node.build_state_transfer();
        assert_ne!(transfer, again);
        let arc = Arc::new(transfer);
        assert_eq!(*arc, *Arc::clone(&arc));
    }

    #[test]
    fn timer_tags_carry_the_restart_epoch() {
        let mut node = replica(0, ProtocolKind::Orthrus);
        let t0 = node.tag(TIMER_BATCH);
        assert_eq!(t0 % TIMER_EPOCH_STRIDE, TIMER_BATCH);
        assert_eq!(t0 / TIMER_EPOCH_STRIDE, 0);
        node.timer_epoch += 1;
        let t1 = node.tag(TIMER_BATCH);
        assert_eq!(t1 % TIMER_EPOCH_STRIDE, TIMER_BATCH);
        assert_eq!(t1 / TIMER_EPOCH_STRIDE, 1);
        assert_ne!(t0, t1, "stale-epoch timers must not collide");
    }
}
