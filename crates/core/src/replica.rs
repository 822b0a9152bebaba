//! The Multi-BFT replica node.
//!
//! One [`ReplicaNode`] hosts everything a replica runs in the paper's
//! architecture (Fig. 2): the partition module (buckets), one PBFT
//! sequenced-broadcast instance per bucket, the ordering module (partial
//! logs, a global-ordering policy and the global log) and the execution
//! module (escrow + object store). The same node implements Orthrus and all
//! five baselines; the [`ProtocolKind`] only changes which ordering policy is
//! used and whether payments take the partial-ordering fast path.
//!
//! Everything a replica replicates sits in one `Replicated` value; crash
//! recovery ships a clone of it to a restarted peer (the `recovery` module).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "actor handler (and, through `replica::recovery`, state transfer): a panic here tears down the whole run instead of failing one message"
)]

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
    Block, BlockId, BlockParams, Duration, Epoch, FxHashMap, InstanceId, ProtocolConfig,
    ProtocolKind, ReplicaId, SharedBlock, SharedTx, SimTime, StableCheckpoint, SystemState, TxId,
    TxSet, TxTable,
};
use std::any::Any;
use std::sync::Arc;

mod recovery;

pub use recovery::StateTransfer;

/// Timer tag: leader batch timer (try to propose in every instance we lead).
const TIMER_BATCH: u64 = 1;
/// Timer tag: failure detector sweep.
const TIMER_FAILURE_DETECTOR: u64 = 2;
/// Timer tag: crash-recovery sync round (only armed while syncing).
const TIMER_RECOVERY_SYNC: u64 = 3;
/// Number of sequence numbers assigned to each instance per epoch (the
/// `epoch` stamped on every proposed block).
const EPOCH_LENGTH: u64 = 4;

/// The global-ordering policy selected by the protocol.
#[derive(Clone)]
enum Policy {
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

/// The state a replica replicates: its buckets, consensus instances,
/// partial/global logs, ordering policy, execution engine and the reply and
/// checkpoint bookkeeping around them. A crash-recovery state transfer
/// carries exactly this value, so a restarted replica rejoins mid-run
/// rather than just adopting balances (see [`recovery`]).
#[derive(Clone)]
struct Replicated {
    buckets: Vec<Bucket>,
    instances: Vec<PbftInstance>,
    plogs: PartialLogs,
    glog: GlobalLog,
    policy: Policy,
    executor: Executor,
    rank: RankTracker,
    /// Blocks whose partial-log execution has completed, per instance.
    executed_state: SystemState,
    /// Transactions already answered to their client.
    replied: TxSet,
    /// Total number of blocks this replica delivered across instances.
    delivered_blocks: u64,
    /// Per-instance stable-checkpoint frontier (drives log truncation).
    stable: SystemState,
    /// Latest stable-checkpoint certificate per instance.
    stable_certs: Vec<Option<StableCheckpoint>>,
}

/// A Multi-BFT replica (Orthrus or one of the baselines).
pub struct ReplicaNode {
    me: ReplicaId,
    protocol: ProtocolKind,
    config: ProtocolConfig,
    partitioner: Partitioner,
    state: Replicated,
    progress: ProgressTracker,
    /// DQBFT: the delivery mark (`DqbftOrdering::next_mark`) up to which
    /// this replica has proposed the undecided ids as the ordering
    /// instance's leader in the current view.
    ordering_proposed: u64,
    /// Undetectable-fault behaviour: keep leading our own instance but ignore
    /// every other instance (paper §VII-E).
    selfish: bool,
    /// Transaction occurrences in the data blocks this replica delivered
    /// (a transaction counts once per block it appears in).
    delivered_tx_occurrences: u64,
    /// Every other replica, in id order: the recipients of each broadcast.
    peers: Vec<NodeId>,
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
    /// Virtual time each data block was delivered by its SB instance, keyed
    /// by block id. Entries are removed when the block executes from the
    /// glog; the delta feeds the per-run glog-wait statistics: how long a
    /// partially ordered block waits at the global-ordering barrier (its
    /// rank, a pre-determined slot or a DQBFT decision) and, under Orthrus,
    /// on §V-C's alignment rule.
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
            state: Replicated {
                buckets: (0..m)
                    .map(|_| Bucket::with_table(Arc::clone(&table)))
                    .collect(),
                instances,
                plogs: PartialLogs::new(m),
                glog: GlobalLog::new(),
                policy: Policy::for_protocol(protocol, m),
                executor: Executor::with_store_and_table(genesis, Arc::clone(&table)),
                rank: RankTracker::new(),
                executed_state: SystemState::new(m as usize),
                replied: TxSet::new(table),
                delivered_blocks: 0,
                stable: SystemState::new(total_instances as usize),
                stable_certs: vec![None; total_instances as usize],
            },
            progress: ProgressTracker::new(config.view_change_timeout),
            ordering_proposed: 0,
            selfish: false,
            delivered_tx_occurrences: 0,
            peers: (0..config.num_replicas)
                .filter(|&r| r != me.value())
                .map(NodeId::replica)
                .collect(),
            peak_retained_entries: 0,
            peak_retained_bytes: 0,
            recovering: false,
            syncing: false,
            sync_advanced: false,
            sync_round: 0,
            recovered_at: None,
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
        &self.state.executor
    }

    /// Number of blocks delivered across all SB instances.
    pub fn delivered_blocks(&self) -> u64 {
        self.state.delivered_blocks
    }

    /// Transaction occurrences in the data blocks this replica delivered. A
    /// transaction with payers in k instances is ordered k times; anything
    /// beyond that is a duplicate proposal.
    pub fn delivered_tx_occurrences(&self) -> u64 {
        self.delivered_tx_occurrences
    }

    /// Number of transactions this replica has confirmed to clients.
    pub fn confirmed_transactions(&self) -> usize {
        self.state.replied.len()
    }

    /// Log entries currently retained: partial-log blocks, global-log
    /// payloads and PBFT per-sequence slots. Checkpoint truncation holds
    /// this at the in-flight window instead of letting it grow with the run.
    pub fn retained_log_entries(&self) -> u64 {
        self.state.plogs.total_blocks() as u64
            + self.state.glog.retained_len() as u64
            + self
                .state
                .instances
                .iter()
                .map(|i| i.retained_slots() as u64)
                .sum::<u64>()
    }

    /// Wire-size estimate of the retained partial/global-log payloads.
    pub fn retained_log_bytes(&self) -> u64 {
        self.state.plogs.retained_bytes() + self.state.glog.retained_bytes()
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
            .state
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
                            self.state.buckets[instance.as_usize()].pull(usize::MAX, |_| true);
                        for tx in pending {
                            ctx.send(
                                NodeId::Replica(leader),
                                NetMessage::ClientRequest {
                                    tx: Arc::clone(&tx),
                                },
                            );
                            // Keep a local reference so censorship by the new
                            // leader can still be detected.
                            self.state.buckets[instance.as_usize()].push(tx);
                        }
                    }
                }
                SbAction::StableCheckpoint { checkpoint } => {
                    self.on_stable_checkpoint(instance, checkpoint);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints and garbage collection
    // ------------------------------------------------------------------

    /// A PBFT instance certified a stable checkpoint: record its certificate,
    /// advance the truncation frontier and release partial/global-log
    /// payloads below it.
    fn on_stable_checkpoint(&mut self, instance: InstanceId, checkpoint: StableCheckpoint) {
        debug_assert_eq!(checkpoint.instance, instance);
        let seq = checkpoint.seq;
        self.state.stable.observe(instance, seq);
        if let Some(cert) = self.state.stable_certs.get_mut(instance.as_usize()) {
            *cert = Some(checkpoint);
        }
        if !self.is_ordering_instance(instance) {
            self.state.plogs.get_mut(instance).truncate_before(seq);
        }
        self.state.glog.truncate_before(&self.state.stable);
        self.sample_retention();
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
        if !self.state.replied.insert(tx) {
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
        self.state.delivered_blocks += 1;
        ctx.stats().block_delivered();
        self.progress.record_progress(instance, ctx.now());
        self.state.rank.observe_block(&block);

        if self.is_ordering_instance(instance) {
            // DQBFT: the delivered block carries ordering decisions.
            for &id in &block.header.ordered_ids {
                let confirmed = self.state.policy.on_order_decision(id);
                self.handle_globally_confirmed(confirmed, ctx);
            }
            if self
                .state
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
            self.state.buckets[instance.as_usize()].mark_delivered(tx.id);
            let now = ctx.now();
            ctx.stats()
                .stage_reached(tx.id, LatencyStage::PartialOrdering, now);
        }
        if !self.state.buckets[instance.as_usize()].has_pending() {
            self.progress.clear_expectation(instance);
        }

        // Ordering module: partial log + global ordering policy. Both paths
        // share the delivered block's handle — no payload copies.
        self.state
            .plogs
            .get_mut(instance)
            .insert(Arc::clone(&block));
        let id = block.id();
        self.glog_appended_at.insert(id, ctx.now());
        let confirmed = self.state.policy.on_deliver(block);
        if self
            .state
            .policy
            .dqbft()
            .is_some_and(|p| p.is_undecided(id))
        {
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
        let schedule = self.state.plogs.drain_ready(&mut self.state.executed_state);
        if schedule.is_empty() || self.protocol != ProtocolKind::Orthrus {
            return;
        }
        // Fast path: escrow + commit payments straight from the partial logs
        // (Algorithm 1 lines 20–30).
        let assign = self.partitioner;
        let confirmations = self
            .state
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
        for block in confirmed {
            self.state.glog.append(block);
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
        while self.state.glog.first_pending().is_some_and(|block| {
            self.protocol != ProtocolKind::Orthrus
                || self
                    .state
                    .executed_state
                    .get(block.header.instance)
                    .is_some_and(|sn| sn >= block.header.sn)
        }) {
            let Some(block) = self.state.glog.pop_pending() else {
                break;
            };
            if let Some(appended) = self.glog_appended_at.remove(&block.id()) {
                let wait = ctx.now() - appended;
                ctx.stats().glog_wait(wait);
            }
            for tx in &block.txs {
                let outcome = match self.protocol {
                    ProtocolKind::Orthrus => {
                        // Only contract transactions still need the global
                        // log; payments were confirmed on the fast path.
                        self.state
                            .executor
                            .process_glog_tx(tx, &|key| assign.assign(key))
                    }
                    _ => Some(self.state.executor.process_sequential_tx(tx)),
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
        if !self.state.instances[idx].is_leader() {
            return;
        }
        let sn = self.state.instances[idx].next_propose_sn();
        let delivered = self.state.instances[idx]
            .last_delivered()
            .map_or(0, |s| s.value() + 1);
        if sn.value() >= delivered + self.config.max_inflight_blocks {
            return;
        }
        let executor = &self.state.executor;
        let txs = self.state.buckets[idx]
            .pull(self.config.batch_size, |tx| executor.speculative_valid(tx));
        // When the bucket is empty but other instances have delivered blocks
        // that cannot be globally confirmed yet (a gap in the pre-determined
        // interleaving, or a stalled Ladon bar), fill our slot with a no-op
        // block so the global log keeps moving (ISS's no-op mechanism).
        let needs_noop = txs.is_empty() && self.state.policy.pending() > 0;
        if txs.is_empty() && !needs_noop {
            return;
        }
        let params = BlockParams {
            instance,
            sn,
            epoch: Epoch::new(sn.value() / EPOCH_LENGTH),
            view: self.state.instances[idx].current_view(),
            proposer: self.me,
            rank: self.state.rank.next_rank(),
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
        let actions = self.state.instances[idx].propose(block);
        self.progress.record_expectation(instance, ctx.now());
        self.apply_sb_actions(instance, actions, ctx);
    }

    fn try_propose_ordering(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let Some(ordering) = self.state.policy.dqbft() else {
            return;
        };
        let from = self.ordering_proposed;
        if ordering.undecided_from(from).next().is_none() {
            return;
        }
        let instance = self.ordering_instance();
        let idx = instance.as_usize();
        if !self.state.instances[idx].is_leader() {
            return;
        }
        let sn = self.state.instances[idx].next_propose_sn();
        let delivered = self.state.instances[idx]
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
            view: self.state.instances[idx].current_view(),
            proposer: self.me,
            rank: self.state.rank.next_rank(),
            state: self.delivered_state(),
        };
        let block = Arc::new(Block::ordering(params, ids));
        let actions = self.state.instances[idx].propose(block);
        self.apply_sb_actions(instance, actions, ctx);
    }

    // ------------------------------------------------------------------
    // Inbound handlers
    // ------------------------------------------------------------------

    fn on_client_request(&mut self, from: NodeId, tx: SharedTx, ctx: &mut Context<'_, NetMessage>) {
        if tx.validate().is_err() {
            return;
        }
        if self.state.replied.contains(tx.id) {
            return;
        }
        let now = ctx.now();
        ctx.stats().stage_reached(tx.id, LatencyStage::Send, now);
        let forward = !from.is_replica();
        for instance in self.partitioner.instances_of(&tx) {
            if self.state.buckets[instance.as_usize()].push(Arc::clone(&tx)) {
                self.progress.record_expectation(instance, ctx.now());
            }
            // Clients only contact f + 1 replicas (censorship resistance,
            // §V-B); whichever replica receives the request relays it to the
            // instance's current leader so it can be proposed promptly.
            // Requests relayed by other replicas are not forwarded again,
            // which keeps the relay loop-free.
            if forward {
                let leader = self.state.instances[instance.as_usize()].current_leader();
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
        if idx >= self.state.instances.len() {
            return;
        }
        if self.selfish {
            // Undetectable fault: participate only in the instance we lead.
            let leads_it = self.state.instances[idx].current_leader() == self.me;
            if !leads_it {
                return;
            }
        }
        let actions = self.state.instances[idx].handle_message(from, inner);
        self.apply_sb_actions(instance, actions, ctx);
    }

    fn on_failure_detector_sweep(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let now = ctx.now();
        for i in 0..self.state.instances.len() {
            let instance = InstanceId::new(i as u32);
            if self.state.instances[i].in_view_change() {
                continue;
            }
            if self.progress.should_suspect(instance, now) {
                let actions = self.state.instances[i].on_timeout();
                // Suspicion handled; reset the expectation clock so we do not
                // immediately re-suspect the new leader.
                self.progress.record_progress(instance, now);
                self.apply_sb_actions(instance, actions, ctx);
            }
        }
    }

    fn arm_protocol_timers(&mut self, ctx: &mut Context<'_, NetMessage>) {
        ctx.set_timer(self.config.batch_timeout, TIMER_BATCH);
        let sweep =
            Duration::from_micros((self.config.view_change_timeout.as_micros() / 4).max(1_000));
        ctx.set_timer(sweep, TIMER_FAILURE_DETECTOR);
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
        match tag {
            TIMER_BATCH => {
                self.try_propose_all(ctx);
                ctx.set_timer(self.config.batch_timeout, TIMER_BATCH);
            }
            TIMER_FAILURE_DETECTOR => {
                self.on_failure_detector_sweep(ctx);
                let sweep = Duration::from_micros(
                    (self.config.view_change_timeout.as_micros() / 4).max(1_000),
                );
                ctx.set_timer(sweep, TIMER_FAILURE_DETECTOR);
            }
            TIMER_RECOVERY_SYNC => self.run_sync_round(ctx),
            _ => {}
        }
    }

    /// Crash-recover restart: the engine has dropped every timer armed
    /// before the crash, so mark the local state stale and start the
    /// state-transfer sync loop, which re-arms the protocol timers once a
    /// transfer installs.
    fn on_recover(&mut self, ctx: &mut Context<'_, NetMessage>) {
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
    pub(super) fn replica(me: u32, protocol: ProtocolKind) -> ReplicaNode {
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
            assert_eq!(node.state.instances.len(), expected_instances);
            assert_eq!(node.state.buckets.len(), 4);
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
        assert_eq!(node.state.stable.total_delivered_blocks(), 0);
        assert_eq!(node.retained_log_entries(), 0);
        assert_eq!(node.retained_log_bytes(), 0);
        assert_eq!(node.peak_retained_entries(), 0);
        assert_eq!(node.peak_retained_bytes(), 0);
        assert!(node.recovered_at().is_none());
    }
}
