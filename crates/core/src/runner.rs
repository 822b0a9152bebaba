//! Scenario runner: builds a complete Multi-BFT deployment inside the
//! discrete-event simulation, drives it with a workload and extracts the
//! metrics the paper reports.
//!
//! Every benchmark harness, the `orthrus` CLI and most integration tests go
//! through [`run_scenario`]: it is the single entry point that assembles
//! replicas, clients, network model and fault plan from a declarative
//! [`Scenario`].
//!
//! The experiment API is deliberately *data first*:
//!
//! * a [`Scenario`] is built through `with_*` builders whose cross-field
//!   invariants are enforced in exactly one place, [`Scenario::validate`];
//! * when the run should stop is data too — a set of [`StopCondition`]s —
//!   instead of hard-coded drain loops;
//! * [`run_scenario`] is fallible: invalid configurations come back as a
//!   descriptive [`OrthrusError::Config`] *before* any event is simulated.
//!
//! The `orthrus-lab` crate layers a textual spec format and a named registry
//! of the paper's figure grids on top of this module; both lower to plain
//! [`Scenario`] values and run on the same pool.

use crate::client::ClientNode;
use crate::messages::NetMessage;
use crate::replica::ReplicaNode;
use orthrus_execution::ObjectStore;
use orthrus_sim::stats::LatencyBreakdown;
use orthrus_sim::{
    FaultPlan, NetworkConfig, NodeId, QueueKind, Simulation, SimulationReport, StatsCollector,
    ThroughputPoint,
};
use orthrus_types::{
    ClientId, Digest, Duration, NetworkKind, OrthrusError, ProtocolConfig, ProtocolKind, ReplicaId,
    Result, SharedTx, SimTime, TxTable,
};
use orthrus_workload::{Workload, WorkloadConfig};
use std::sync::Arc;

/// When a scenario run is allowed to stop.
///
/// Conditions compose as a set on [`Scenario::stop`]; the driver applies the
/// present conditions in a fixed order:
///
/// 1. [`StopCondition::AllConfirmed`] — run in one-second slices until every
///    submitted transaction is confirmed at a client (instead of simulating
///    idle batch timers forever).
/// 2. [`StopCondition::DigestsQuiesce`] — then drain in 250 ms slices until
///    every cooperative (non-crashed, non-selfish) replica reports the same
///    execution-state digest, so the digest snapshot reflects the safety
///    invariant rather than a mid-flight race.
/// 3. [`StopCondition::SimTimeLimit`] — the simulated-time budget
///    [`Scenario::max_sim_time`]. This cap is always enforced, with or
///    without the other conditions; listing it alone runs the scenario to
///    its full time budget in one-second slices.
///
/// `DigestsQuiesce` requires `AllConfirmed` in the same set (validation
/// rejects the combination otherwise): replica digests trivially agree at
/// genesis, so a quiesce-only run would stop at t = 0 without processing a
/// single event.
///
/// The default set is all three, which reproduces the behaviour of the
/// original infallible driver bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopCondition {
    /// Stop once every submitted transaction is confirmed at a client.
    AllConfirmed,
    /// Keep draining until all cooperative replicas agree on a state digest.
    DigestsQuiesce,
    /// Stop when `max_sim_time` is reached (always enforced as a cap).
    SimTimeLimit,
}

impl StopCondition {
    /// The default stop set: confirm everything, then drain until the
    /// cooperative replicas' state digests agree, all within the simulated
    /// time budget.
    pub const DEFAULT: [StopCondition; 3] = [
        StopCondition::AllConfirmed,
        StopCondition::DigestsQuiesce,
        StopCondition::SimTimeLimit,
    ];

    /// Stable lower-snake name (used by the `orthrus-lab` spec format).
    pub fn name(self) -> &'static str {
        match self {
            StopCondition::AllConfirmed => "all_confirmed",
            StopCondition::DigestsQuiesce => "digests_quiesce",
            StopCondition::SimTimeLimit => "sim_time_limit",
        }
    }

    /// Parse a stable name back into a condition.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "all_confirmed" => Some(StopCondition::AllConfirmed),
            "digests_quiesce" => Some(StopCondition::DigestsQuiesce),
            "sim_time_limit" => Some(StopCondition::SimTimeLimit),
            _ => None,
        }
    }
}

/// A declarative description of one simulation run.
///
/// Construct with [`Scenario::new`] and refine with the `with_*` builders;
/// [`run_scenario`] validates the result as a whole (protocol configuration,
/// workload, fault plan and their cross-field consistency) before anything is
/// simulated. The fields stay public so specs and tests can inspect them, but
/// hand-rolled literals get no validity guarantees until they pass through
/// [`Scenario::validate`] on the run path.
///
/// The workload's RNG seed is **derived from [`Scenario::seed`]** when the
/// simulation is built (see [`Scenario::effective_workload`]): a scenario has
/// exactly one seed, and `workload.seed` is ignored. This closes the footgun
/// where struct-literal construction could silently desynchronise the two.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which protocol every replica runs.
    pub protocol: ProtocolKind,
    /// LAN or WAN network model.
    pub network: NetworkKind,
    /// Protocol configuration (replica count, batch size, timeouts).
    pub config: ProtocolConfig,
    /// Workload configuration (accounts, transaction count, payment share).
    /// Its `seed` field is ignored: the effective workload seed is
    /// [`Scenario::seed`].
    pub workload: WorkloadConfig,
    /// Fault plan (crashes, stragglers, selfish replicas).
    pub faults: FaultPlan,
    /// The window over which client submissions are spread (open loop).
    pub submission_window: Duration,
    /// Hard limit on simulated time.
    pub max_sim_time: Duration,
    /// Seed for workload generation and network jitter.
    pub seed: u64,
    /// Compile shim for the frozen `benchmark/` crate, whose `replay.rs` reads
    /// this field; nothing else does. Goes away with the next
    /// `benchmark`-archetype PR.
    #[doc(hidden)]
    pub queue: QueueKind,
    /// When the run may stop (see [`StopCondition`]).
    pub stop: Vec<StopCondition>,
}

impl Scenario {
    /// A scenario with the paper's defaults for `n` replicas running
    /// `protocol` over `network`.
    pub fn new(protocol: ProtocolKind, network: NetworkKind, num_replicas: u32) -> Self {
        Self {
            protocol,
            network,
            config: ProtocolConfig::for_replicas(num_replicas),
            workload: WorkloadConfig::small(),
            faults: FaultPlan::none(),
            submission_window: Duration::from_secs(2),
            max_sim_time: Duration::from_secs(120),
            seed: 42,
            queue: Default::default(),
            stop: StopCondition::DEFAULT.to_vec(),
        }
    }

    /// Switch the protocol under test.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Use the given workload configuration (its `seed` field is ignored;
    /// the scenario seed is the single source of truth).
    pub fn with_workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = workload;
        self
    }

    /// Use the given fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Add the paper's standard straggler: the leader of instance 0 is 10×
    /// slower than everyone else.
    pub fn with_straggler(mut self) -> Self {
        self.faults = self.faults.clone().with_straggler(ReplicaId::new(0), 10.0);
        self
    }

    /// Override the seed (drives both workload generation and network
    /// jitter).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the number of client / load-generator actors
    /// (`ProtocolConfig::num_client_actors`).
    pub fn with_num_clients(mut self, num_clients: u64) -> Self {
        self.config.num_client_actors = num_clients;
        self
    }

    /// Override the open-loop submission window.
    pub fn with_submission_window(mut self, window: Duration) -> Self {
        self.submission_window = window;
        self
    }

    /// Override the simulated-time limit.
    pub fn with_max_sim_time(mut self, limit: Duration) -> Self {
        self.max_sim_time = limit;
        self
    }

    /// Override the leader batch size (`ProtocolConfig::batch_size`).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Override the leader batch timeout (`ProtocolConfig::batch_timeout`).
    pub fn with_batch_timeout(mut self, timeout: Duration) -> Self {
        self.config.batch_timeout = timeout;
        self
    }

    /// Override the PBFT view-change timeout
    /// (`ProtocolConfig::view_change_timeout`).
    pub fn with_view_change_timeout(mut self, timeout: Duration) -> Self {
        self.config.view_change_timeout = timeout;
        self
    }

    /// Override the per-instance leader pipelining depth
    /// (`ProtocolConfig::max_inflight_blocks`).
    pub fn with_max_inflight_blocks(mut self, depth: u64) -> Self {
        self.config.max_inflight_blocks = depth;
        self
    }

    /// Add a crash-recover fault: `replica` is silent during `[crash_at,
    /// recover_at)`, then restarts and rejoins via state transfer.
    pub fn with_crash_recover(
        mut self,
        replica: ReplicaId,
        crash_at: SimTime,
        recover_at: SimTime,
    ) -> Self {
        self.faults = self
            .faults
            .clone()
            .with_crash_recover(replica, crash_at, recover_at);
        self
    }

    /// Override the stop conditions (see [`StopCondition`]).
    pub fn with_stop(mut self, stop: Vec<StopCondition>) -> Self {
        self.stop = stop;
        self
    }

    /// The workload configuration the simulation actually generates from:
    /// [`Scenario::workload`] with its seed replaced by [`Scenario::seed`].
    /// This is the single source of truth for workload seeding — tools that
    /// regenerate the trace outside of [`build_simulation`] must use it.
    pub fn effective_workload(&self) -> WorkloadConfig {
        let mut workload = self.workload.clone();
        workload.seed = self.seed;
        workload
    }

    /// Validate the scenario as a whole. This is the one place cross-field
    /// invariants live: the protocol configuration, the (effective) workload,
    /// the fault plan against the replica count, and the runner's own knobs.
    /// [`run_scenario`] calls this before building the simulation.
    pub fn validate(&self) -> Result<()> {
        self.config.validate()?;
        self.effective_workload().validate()?;
        self.faults.validate(self.config.num_replicas)?;
        if self.config.num_client_actors == 0 {
            return Err(OrthrusError::Config(
                "num_client_actors must be at least 1 (someone has to submit the workload)".into(),
            ));
        }
        if self.submission_window <= Duration::ZERO {
            return Err(OrthrusError::Config(
                "submission_window must be positive".into(),
            ));
        }
        if self.max_sim_time <= Duration::ZERO {
            return Err(OrthrusError::Config("max_sim_time must be positive".into()));
        }
        if self.stop.is_empty() {
            return Err(OrthrusError::Config(
                "at least one stop condition is required (the default is \
                 [all_confirmed, digests_quiesce, sim_time_limit])"
                    .into(),
            ));
        }
        if self.stop.contains(&StopCondition::DigestsQuiesce)
            && !self.stop.contains(&StopCondition::AllConfirmed)
        {
            // At t = 0 every replica trivially agrees on the genesis digest,
            // so a quiesce-only run would stop before processing one event.
            return Err(OrthrusError::Config(
                "stop condition digests_quiesce requires all_confirmed (replica digests \
                 trivially agree at genesis, so a quiesce-only run would stop at t = 0)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// The measurements extracted from one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Protocol that was run.
    pub protocol: ProtocolKind,
    /// Number of transactions submitted by clients.
    pub submitted: usize,
    /// Number of transactions confirmed (committed or aborted) at clients.
    pub confirmed: usize,
    /// Overall throughput in kilo-transactions per second.
    pub throughput_ktps: f64,
    /// Average end-to-end latency.
    pub avg_latency: Duration,
    /// 95th-percentile end-to-end latency.
    pub p95_latency: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: Duration,
    /// Average per-stage latency breakdown (Fig. 6).
    pub breakdown: LatencyBreakdown,
    /// Throughput over time in 0.5 s buckets (Fig. 7a).
    pub throughput_series: Vec<ThroughputPoint>,
    /// Latency over time in 0.5 s buckets (Fig. 7b).
    pub latency_series: Vec<ThroughputPoint>,
    /// Number of completed view changes.
    pub view_changes: u64,
    /// Total blocks delivered by SB instances (as counted by the stats).
    pub blocks_delivered: u64,
    /// Final execution-state digest of every replica (honest replicas that
    /// processed the same prefix must agree; used by safety checks).
    pub state_digests: Vec<(ReplicaId, Digest)>,
    /// Successful store mutations per SB instance at the end of the run
    /// (replica 0; one entry per instance, shared-object writes last).
    /// Quantifies instance load skew under skewed workloads.
    pub shard_ops: Vec<u64>,
    /// Log entries (plog blocks + glog payloads + PBFT slots) replica 0
    /// still retains at the end of the run: checkpoint truncation holds it
    /// at the in-flight window, not the whole history.
    pub retained_plog_entries: u64,
    /// Peak of the retained-entry count over the run (replica 0).
    pub peak_retained_entries: u64,
    /// Peak retained partial/global-log bytes over the run (replica 0).
    pub peak_retained_bytes: u64,
    /// Every replica that completed crash recovery, with the virtual time
    /// its first state transfer was installed.
    pub recoveries: Vec<(ReplicaId, SimTime)>,
    /// Mean time (µs) a data block waited at the global-ordering barrier,
    /// from its SB instance's delivery to its execution from the glog,
    /// across all replicas. A straggling instance holds every later-ranked
    /// block here, so this is where a pre-determined order (ISS) loses to
    /// Orthrus's dynamic one; under Orthrus it also covers §V-C's alignment
    /// stall (a glog entry waits for its own partial-log execution).
    pub glog_wait_mean_us: f64,
    /// Worst single glog wait (µs) observed on any replica.
    pub glog_wait_max_us: u64,
    /// Number of data blocks executed from the glog with a wait sample.
    pub glog_wait_count: u64,
    /// Transaction occurrences each replica delivered in data blocks, per
    /// confirmed transaction (mean over replicas). A transaction with payers
    /// in k instances is ordered k times, so the floor is 1 plus the
    /// multi-instance share; the excess counts duplicate proposals.
    pub deliveries_per_tx: f64,
    /// Per-transaction bookkeeping operations whose id fell outside the run's
    /// transaction table (0 when every id comes from the workload).
    pub tx_table_misses: u64,
    /// Raw simulation report (events, messages, bytes).
    pub report: SimulationReport,
}

/// Build the simulation for a scenario without running it (used by tests that
/// want to poke at intermediate states). Validates the scenario first.
pub fn build_simulation(scenario: &Scenario) -> Result<(Simulation<NetMessage>, usize)> {
    scenario.validate()?;
    // The workload seed derives from the scenario seed here — the single
    // source of truth — so struct-literal construction cannot desynchronise
    // the two (satisfying `Scenario::effective_workload`).
    let workload = Workload::generate(scenario.effective_workload());
    let mut genesis = ObjectStore::new();
    workload.install_genesis(&mut genesis);

    let network = NetworkConfig::for_kind(scenario.network);
    let mut sim: Simulation<NetMessage> =
        Simulation::with_faults(network, scenario.faults.clone(), scenario.seed);
    // One slot per workload transaction, shared by every per-transaction
    // table of the run: the stats, each client's reply tally, and each
    // replica's buckets, executor and reply set.
    let table = Arc::new(TxTable::new(&workload.txs_per_client));
    *sim.stats_mut() = StatsCollector::with_table(Arc::clone(&table));

    // Replicas and clients share one config, so they agree with the runner on
    // the logical-client → client-actor mapping that routes replies.
    let config = &scenario.config;
    for r in 0..config.num_replicas {
        let replica = ReplicaId::new(r);
        let mut node = ReplicaNode::new(
            replica,
            scenario.protocol,
            config.clone(),
            genesis.clone(),
            Arc::clone(&table),
        );
        if scenario.faults.is_selfish(replica) {
            node.set_selfish(true);
        }
        sim.add_actor(NodeId::Replica(replica), Box::new(node));
    }

    // Assign each logical client to a client actor and spread submission
    // times uniformly over the submission window. Each actor's schedule is
    // sized from its clients' transaction counts and fills in offset order,
    // so `ClientNode::new` need not sort it. The handles move out of the
    // workload, so building the schedules touches no reference count.
    let submitted = workload.transactions.len();
    let total = submitted.max(1);
    let window_us = scenario.submission_window.as_micros();
    let mut sizes = vec![0; config.num_client_actors as usize];
    for (client, &count) in workload.txs_per_client.iter().enumerate() {
        sizes[config.client_actor_of(ClientId::new(client as u64)).value() as usize] +=
            count as usize;
    }
    let mut schedules: Vec<Vec<(Duration, SharedTx)>> =
        sizes.into_iter().map(Vec::with_capacity).collect();
    for (idx, tx) in workload.transactions.into_iter().enumerate() {
        let offset = Duration::from_micros(window_us * idx as u64 / total as u64);
        let actor = config.client_actor_of(tx.id.client).value() as usize;
        schedules[actor].push((offset, tx));
    }
    for (c, schedule) in schedules.into_iter().enumerate() {
        let client = ClientNode::new(config.clone(), schedule, Arc::clone(&table));
        sim.add_actor(NodeId::client(c as u64), Box::new(client));
    }

    Ok((sim, submitted))
}

/// Run a scenario until its [`StopCondition`]s are met (by default: all
/// transactions confirmed, then state digests quiesced) or until its
/// simulated-time budget is exhausted, and collect the measurements.
///
/// Fails fast with [`OrthrusError::Config`] when the scenario is invalid —
/// the protocol configuration, workload, fault plan and runner knobs are all
/// checked before any event is simulated.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioOutcome> {
    let (mut sim, submitted) = build_simulation(scenario)?;
    let deadline = SimTime::ZERO + scenario.max_sim_time;
    let wants = |condition: StopCondition| scenario.stop.contains(&condition);

    let mut last_report = orthrus_sim::SimulationReport {
        end_time: SimTime::ZERO,
        events_processed: 0,
        messages_sent: 0,
        bytes_sent: 0,
        peak_queue_len: 0,
    };

    if wants(StopCondition::AllConfirmed) {
        // Run in one-second slices so we can stop as soon as every
        // transaction is confirmed rather than simulating idle batch timers
        // forever.
        loop {
            let now = sim.now();
            if now >= deadline {
                break;
            }
            let slice_end = (now + Duration::from_secs(1)).min(deadline);
            last_report = sim.run_until(slice_end);
            if sim.stats().confirmed_count() >= submitted && submitted > 0 {
                break;
            }
        }
    }

    if wants(StopCondition::DigestsQuiesce) {
        // Clients confirm on `f + 1` replies, so the confirmation phase can
        // stop while slow-but-honest replicas (e.g. a 10x straggler) still
        // hold in-flight blocks. Drain in short slices until every
        // cooperative replica has executed the same prefix, so the
        // state-digest snapshot below reflects the safety invariant
        // (Theorem 1) rather than a mid-flight race. Permanently crashed and
        // selfish replicas are excluded: they stop processing by design and
        // would never catch up. Crash-*recover* replicas whose restart falls
        // inside the time budget are NOT excluded — converging their digest
        // (via state transfer) is exactly what this phase must wait for.
        let cooperative: Vec<ReplicaId> = (0..scenario.config.num_replicas)
            .map(ReplicaId::new)
            .filter(|r| {
                !scenario.faults.is_selfish(*r)
                    && !scenario
                        .faults
                        .is_crashed(*r, SimTime::ZERO + scenario.max_sim_time)
            })
            .collect();
        let digests_agree = |sim: &Simulation<NetMessage>| {
            let mut digests = cooperative.iter().filter_map(|r| {
                sim.actor_as::<ReplicaNode>(NodeId::Replica(*r))
                    .map(|node| node.executor().state_digest())
            });
            match digests.next() {
                Some(first) => digests.all(|d| d == first),
                None => true,
            }
        };
        while sim.now() < deadline && !digests_agree(&sim) {
            let slice_end = (sim.now() + Duration::from_millis(250)).min(deadline);
            last_report = sim.run_until(slice_end);
        }
    }

    if !wants(StopCondition::AllConfirmed) {
        // SimTimeLimit alone (validation guarantees DigestsQuiesce cannot
        // appear without AllConfirmed): run the full time budget, still
        // sliced so the cadence matches the other phases.
        while sim.now() < deadline {
            let slice_end = (sim.now() + Duration::from_secs(1)).min(deadline);
            last_report = sim.run_until(slice_end);
        }
    }

    let stats = sim.stats();
    let bucket = Duration::from_millis(500);
    let state_digests = (0..scenario.config.num_replicas)
        .filter_map(|r| {
            let id = ReplicaId::new(r);
            sim.actor_as::<ReplicaNode>(NodeId::Replica(id))
                .map(|node| (id, node.executor().state_digest()))
        })
        .collect();
    let shard_ops = sim
        .actor_as::<ReplicaNode>(NodeId::replica(0))
        .map(|node| node.executor().store().shard_op_counts())
        .unwrap_or_default();
    let (retained_plog_entries, peak_retained_entries, peak_retained_bytes) = sim
        .actor_as::<ReplicaNode>(NodeId::replica(0))
        .map(|node| {
            (
                node.retained_log_entries(),
                node.peak_retained_entries(),
                node.peak_retained_bytes(),
            )
        })
        .unwrap_or_default();
    let delivered_occurrences: u64 = (0..scenario.config.num_replicas)
        .filter_map(|r| sim.actor_as::<ReplicaNode>(NodeId::replica(r)))
        .map(ReplicaNode::delivered_tx_occurrences)
        .sum();
    let confirmed = stats.confirmed_count();
    let deliveries_per_tx = if confirmed == 0 {
        0.0
    } else {
        delivered_occurrences as f64 / f64::from(scenario.config.num_replicas) / confirmed as f64
    };
    let recoveries: Vec<(ReplicaId, SimTime)> = (0..scenario.config.num_replicas)
        .filter_map(|r| {
            let id = ReplicaId::new(r);
            sim.actor_as::<ReplicaNode>(NodeId::Replica(id))
                .and_then(|node| node.recovered_at())
                .map(|at| (id, at))
        })
        .collect();

    Ok(ScenarioOutcome {
        protocol: scenario.protocol,
        submitted,
        confirmed,
        throughput_ktps: stats.throughput_ktps(),
        avg_latency: stats.average_latency(),
        p95_latency: stats.latency_percentile(0.95),
        p99_latency: stats.latency_percentile(0.99),
        breakdown: stats.latency_breakdown(),
        throughput_series: stats.throughput_timeseries(bucket),
        latency_series: stats.latency_timeseries(bucket),
        view_changes: stats.view_changes,
        blocks_delivered: stats.blocks_delivered,
        state_digests,
        shard_ops,
        retained_plog_entries,
        peak_retained_entries,
        peak_retained_bytes,
        recoveries,
        glog_wait_mean_us: stats.glog_wait_mean_us(),
        glog_wait_max_us: stats.glog_wait_max_us,
        glog_wait_count: stats.glog_wait_count,
        deliveries_per_tx,
        tx_table_misses: stats.tx_table_misses(),
        report: orthrus_sim::SimulationReport {
            end_time: sim.now(),
            events_processed: last_report.events_processed,
            messages_sent: stats.messages_sent,
            bytes_sent: stats.bytes_sent,
            peak_queue_len: last_report.peak_queue_len,
        },
    })
}

// ----------------------------------------------------------------------
// Parallel scenario sweeps
// ----------------------------------------------------------------------

/// Number of worker threads a sweep uses: the `ORTHRUS_SWEEP_THREADS`
/// environment variable if set (≥ 1), otherwise the machine's available
/// parallelism.
#[expect(
    clippy::disallowed_methods,
    reason = "core-count discovery for the pool width only — results are bit-identical at any width, so no machine state leaks"
)]
pub fn sweep_threads() -> usize {
    match std::env::var("ORTHRUS_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The sweep driver's scoped thread pool, re-exported from
/// `orthrus_types::pool`. Workers claim items through a shared atomic
/// cursor, so uneven item costs balance automatically; each item is visited
/// exactly once, making results identical for every thread count.
pub use orthrus_types::pool::parallel_map;

/// Run independent scenarios in parallel (one deterministic seeded
/// [`Simulation`] per worker), with results in input order. Thread count
/// comes from [`sweep_threads`].
///
/// Every scenario is validated *before* any of them runs, so a sweep either
/// starts whole or not at all.
pub fn run_scenarios(scenarios: &[Scenario]) -> Result<Vec<ScenarioOutcome>> {
    run_scenarios_with_threads(scenarios, sweep_threads())
}

/// [`run_scenarios`] with an explicit worker count. `threads = 1` runs the
/// scenarios serially on the calling thread.
pub fn run_scenarios_with_threads(
    scenarios: &[Scenario],
    threads: usize,
) -> Result<Vec<ScenarioOutcome>> {
    for (index, scenario) in scenarios.iter().enumerate() {
        if let Err(err) = scenario.validate() {
            return Err(OrthrusError::Config(format!(
                "sweep scenario #{index} ({} on {} with {} replicas): {err}",
                scenario.protocol, scenario.network, scenario.config.num_replicas
            )));
        }
    }
    parallel_map(scenarios, threads, run_scenario)
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario(protocol: ProtocolKind) -> Scenario {
        let workload = WorkloadConfig {
            num_accounts: 32,
            num_transactions: 120,
            num_shared_objects: 4,
            ..WorkloadConfig::small()
        };
        Scenario::new(protocol, NetworkKind::Lan, 4)
            .with_workload(workload)
            .with_batch_size(32)
            .with_batch_timeout(Duration::from_millis(20))
            .with_num_clients(2)
            .with_submission_window(Duration::from_millis(200))
            .with_max_sim_time(Duration::from_secs(60))
            .with_seed(7)
    }

    fn run(scenario: &Scenario) -> ScenarioOutcome {
        run_scenario(scenario).expect("scenario must validate")
    }

    #[test]
    fn orthrus_confirms_every_transaction_on_a_small_lan() {
        let outcome = run(&tiny_scenario(ProtocolKind::Orthrus));
        assert_eq!(outcome.submitted, 120);
        assert_eq!(outcome.confirmed, 120, "outcome: {outcome:?}");
        assert!(outcome.throughput_ktps > 0.0);
        assert!(outcome.avg_latency > Duration::ZERO);
    }

    #[test]
    fn all_protocols_complete_the_tiny_workload() {
        for protocol in ProtocolKind::ALL {
            let outcome = run(&tiny_scenario(protocol));
            assert_eq!(
                outcome.confirmed, outcome.submitted,
                "{protocol} confirmed {}/{}",
                outcome.confirmed, outcome.submitted
            );
        }
    }

    #[test]
    fn replica_states_agree_after_a_run() {
        let outcome = run(&tiny_scenario(ProtocolKind::Orthrus));
        let digests: Vec<Digest> = outcome.state_digests.iter().map(|(_, d)| *d).collect();
        assert!(!digests.is_empty());
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "replica states diverged: {:?}",
            outcome.state_digests
        );
    }

    #[test]
    fn straggler_hurts_predetermined_more_than_orthrus() {
        // A WAN deployment with several blocks per instance, so the straggler
        // instance actually holds the pre-determined global log back.
        let scenario = |protocol| {
            let workload = WorkloadConfig {
                num_accounts: 64,
                num_transactions: 400,
                num_shared_objects: 8,
                payment_share: 0.8,
                ..WorkloadConfig::small()
            };
            Scenario::new(protocol, NetworkKind::Wan, 4)
                .with_workload(workload)
                .with_batch_size(16)
                .with_batch_timeout(Duration::from_millis(50))
                .with_num_clients(2)
                .with_seed(11)
                .with_straggler()
        };
        let iss = run(&scenario(ProtocolKind::Iss));
        let orthrus = run(&scenario(ProtocolKind::Orthrus));
        assert_eq!(orthrus.confirmed, orthrus.submitted);
        // Orthrus payments bypass the straggler-induced global-ordering wait,
        // so its average latency must be clearly lower than ISS's.
        assert!(
            orthrus.avg_latency.as_secs_f64() < iss.avg_latency.as_secs_f64() * 0.9,
            "orthrus {} vs iss {}",
            orthrus.avg_latency,
            iss.avg_latency
        );
        // The straggler holds ISS's later-ranked blocks at the global-ordering
        // barrier; Orthrus's dynamic order lets them through sooner.
        assert!(
            orthrus.glog_wait_mean_us > 0.0 && orthrus.glog_wait_mean_us < iss.glog_wait_mean_us,
            "glog wait: orthrus {} µs vs iss {} µs",
            orthrus.glog_wait_mean_us,
            iss.glog_wait_mean_us
        );
    }

    #[test]
    fn scenario_builders_compose() {
        let s = Scenario::new(ProtocolKind::Ladon, NetworkKind::Wan, 8)
            .with_straggler()
            .with_seed(9)
            .with_max_sim_time(Duration::from_secs(30))
            .with_max_inflight_blocks(8)
            .with_batch_size(128)
            .with_batch_timeout(Duration::from_millis(25))
            .with_view_change_timeout(Duration::from_secs(5))
            .with_num_clients(6)
            .with_submission_window(Duration::from_secs(1))
            .with_stop(vec![StopCondition::AllConfirmed]);
        assert_eq!(s.config.num_replicas, 8);
        assert_eq!(s.faults.stragglers.len(), 1);
        assert_eq!(s.seed, 9);
        assert_eq!(s.max_sim_time, Duration::from_secs(30));
        assert_eq!(s.config.max_inflight_blocks, 8);
        assert_eq!(s.config.batch_size, 128);
        assert_eq!(s.config.batch_timeout, Duration::from_millis(25));
        assert_eq!(s.config.view_change_timeout, Duration::from_secs(5));
        assert_eq!(s.config.num_client_actors, 6);
        assert_eq!(s.submission_window, Duration::from_secs(1));
        assert_eq!(s.stop, vec![StopCondition::AllConfirmed]);
        assert!(s.validate().is_ok());
    }

    /// The config's client-actor count is the one the run builds: nothing
    /// overrides a scenario that sets the field directly.
    #[test]
    fn config_sets_the_client_actor_count() {
        let mut s = tiny_scenario(ProtocolKind::Orthrus);
        s.config.num_client_actors = 3;
        let (sim, _) = build_simulation(&s).expect("valid scenario");
        assert_eq!(sim.actor_count(), 4 + 3);
    }

    /// The workload seed derives from the scenario seed at build time, so a
    /// struct literal with a desynchronised `workload.seed` produces exactly
    /// the same trace as the builder path.
    #[test]
    fn workload_seed_derives_from_scenario_seed() {
        let via_builder = tiny_scenario(ProtocolKind::Orthrus);
        let mut via_literal = tiny_scenario(ProtocolKind::Orthrus);
        via_literal.workload.seed = 999_999; // would desynchronise pre-redesign
        assert_eq!(
            via_builder.effective_workload(),
            via_literal.effective_workload()
        );

        let a = run(&via_builder);
        let b = run(&via_literal);
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.confirmed, b.confirmed);
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.state_digests, b.state_digests);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn effective_workload_uses_the_scenario_seed() {
        let s = tiny_scenario(ProtocolKind::Orthrus).with_seed(1234);
        assert_eq!(s.effective_workload().seed, 1234);
        // The stored workload config keeps whatever seed it was given; only
        // the effective view is rewritten.
        assert_eq!(s.workload.seed, WorkloadConfig::small().seed);
    }

    #[test]
    fn run_rejects_invalid_scenarios_with_descriptive_errors() {
        let cases: Vec<(Scenario, &str)> = vec![
            (
                tiny_scenario(ProtocolKind::Orthrus).with_num_clients(0),
                "num_client_actors",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus)
                    .with_faults(FaultPlan::none().with_selfish(ReplicaId::new(9))),
                "replica",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus)
                    .with_faults(FaultPlan::none().with_straggler(ReplicaId::new(0), 0.0)),
                "straggler factor",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus)
                    .with_faults(FaultPlan::none().with_crash(ReplicaId::new(4), SimTime::ZERO)),
                "replica",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus).with_batch_size(0),
                "batch size",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus).with_max_inflight_blocks(0),
                "max_inflight_blocks",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus).with_workload(WorkloadConfig {
                    num_transactions: 0,
                    ..WorkloadConfig::small()
                }),
                "transaction",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus).with_submission_window(Duration::ZERO),
                "submission_window",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus).with_max_sim_time(Duration::ZERO),
                "max_sim_time",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus).with_stop(Vec::new()),
                "stop condition",
            ),
            (
                tiny_scenario(ProtocolKind::Orthrus).with_stop(vec![
                    StopCondition::DigestsQuiesce,
                    StopCondition::SimTimeLimit,
                ]),
                "digests_quiesce requires all_confirmed",
            ),
        ];
        for (scenario, needle) in cases {
            let err = run_scenario(&scenario).expect_err("scenario must be rejected");
            let text = err.to_string();
            assert!(
                matches!(err, OrthrusError::Config(_)),
                "expected Config error, got {err:?}"
            );
            assert!(text.contains(needle), "error {text:?} misses {needle:?}");
        }
    }

    #[test]
    fn sim_time_limit_alone_runs_the_full_budget() {
        let scenario = tiny_scenario(ProtocolKind::Orthrus)
            .with_max_sim_time(Duration::from_secs(5))
            .with_stop(vec![StopCondition::SimTimeLimit]);
        let outcome = run(&scenario);
        assert_eq!(
            outcome.report.end_time,
            SimTime::ZERO + Duration::from_secs(5),
            "SimTimeLimit alone must run out the clock"
        );
        // The tiny workload still completes well inside five seconds.
        assert_eq!(outcome.confirmed, outcome.submitted);
    }

    #[test]
    fn default_stop_conditions_match_the_composed_phases() {
        // The default set and its explicit spelling are the same run.
        let implicit = run(&tiny_scenario(ProtocolKind::Orthrus));
        let explicit = run(&tiny_scenario(ProtocolKind::Orthrus).with_stop(vec![
            StopCondition::AllConfirmed,
            StopCondition::DigestsQuiesce,
            StopCondition::SimTimeLimit,
        ]));
        assert_eq!(implicit.report, explicit.report);
        assert_eq!(implicit.state_digests, explicit.state_digests);
        assert_eq!(implicit.avg_latency, explicit.avg_latency);
    }

    #[test]
    fn stop_condition_names_round_trip() {
        for condition in StopCondition::DEFAULT {
            assert_eq!(StopCondition::from_name(condition.name()), Some(condition));
        }
        assert_eq!(StopCondition::from_name("nonsense"), None);
    }

    #[test]
    fn parallel_map_preserves_input_order_and_covers_all_items() {
        let items: Vec<u64> = (0..37).collect();
        for threads in [1, 2, 5, 64] {
            let doubled = parallel_map(&items, threads, |x| x * 2);
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, 4, |x| *x).is_empty());
    }

    #[test]
    fn parallel_sweep_matches_serial_outcomes() {
        let scenarios: Vec<Scenario> = [ProtocolKind::Orthrus, ProtocolKind::Ladon]
            .into_iter()
            .map(tiny_scenario)
            .collect();
        let serial = run_scenarios_with_threads(&scenarios, 1).expect("valid sweep");
        let pooled = run_scenarios_with_threads(&scenarios, 2).expect("valid sweep");
        assert_eq!(serial.len(), pooled.len());
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.protocol, b.protocol);
            assert_eq!(a.confirmed, b.confirmed);
            assert_eq!(a.avg_latency, b.avg_latency);
            assert_eq!(a.state_digests, b.state_digests);
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn sweep_validation_names_the_offending_scenario() {
        let scenarios = vec![
            tiny_scenario(ProtocolKind::Orthrus),
            tiny_scenario(ProtocolKind::Ladon).with_num_clients(0),
        ];
        let err = run_scenarios_with_threads(&scenarios, 1).expect_err("must reject");
        let text = err.to_string();
        assert!(
            text.contains("#1"),
            "error does not locate the scenario: {text}"
        );
        assert!(text.contains("num_client_actors"), "{text}");
    }

    #[test]
    fn crashed_replica_recovers_via_state_transfer_and_reconverges() {
        // Replica 2 crashes mid-submission and restarts later; it must fetch
        // a state transfer, rejoin, and end the run with the same state
        // digest as everyone else. Two inputs: the tiny LAN run, and a
        // 16-replica run under 3 000 transactions.
        let tiny = tiny_scenario(ProtocolKind::Orthrus);
        let workload = WorkloadConfig {
            num_accounts: 1_000,
            num_transactions: 3_000,
            payment_share: 0.46,
            multi_payer_share: 0.05,
            num_shared_objects: 32,
            ..WorkloadConfig::default()
        };
        let wide = Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, 16)
            .with_workload(workload)
            .with_seed(42)
            .with_batch_size(32)
            .with_batch_timeout(Duration::from_millis(20))
            .with_num_clients(8)
            .with_submission_window(Duration::from_secs(4));
        for (base, crash_ms, restart_ms) in [(tiny, 100, 2_100), (wide, 500, 3_000)] {
            let restart = SimTime::from_millis(restart_ms);
            let scenario =
                base.with_crash_recover(ReplicaId::new(2), SimTime::from_millis(crash_ms), restart);
            let outcome = run(&scenario);
            let n = scenario.config.num_replicas;
            assert_eq!(outcome.confirmed, outcome.submitted, "n = {n}");
            assert_eq!(outcome.recoveries.len(), 1, "n = {n}");
            let (who, when) = outcome.recoveries[0];
            assert_eq!(who, ReplicaId::new(2));
            assert!(when >= restart, "n = {n}: install precedes restart: {when}");
            let digests: Vec<Digest> = outcome.state_digests.iter().map(|(_, d)| *d).collect();
            assert_eq!(digests.len(), n as usize);
            assert!(
                digests.windows(2).all(|w| w[0] == w[1]),
                "n = {n}: recovered replica diverged: {:?}",
                outcome.state_digests
            );
        }
    }

    #[test]
    fn checkpoint_truncation_bounds_retained_entries_without_changing_results() {
        let outcome = run(&tiny_scenario(ProtocolKind::Orthrus).with_batch_size(8));
        // Truncation is memory-only: the trace equals the one recorded with
        // truncation switched off (state digest, report, average latency)…
        assert_eq!(
            outcome.state_digests,
            (0..4)
                .map(|r| (ReplicaId::new(r), Digest(7_567_308_669_761_155_111)))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            outcome.report,
            SimulationReport {
                end_time: SimTime::from_secs(1),
                events_processed: 2_273,
                messages_sent: 1_948,
                bytes_sent: 661_068,
                peak_queue_len: 75,
            }
        );
        assert_eq!(outcome.avg_latency, Duration::from_micros(12_607));
        // … but the retained window is a fraction of the 85 entries and
        // 156 968 bytes that run kept.
        assert!(
            outcome.retained_plog_entries < 85,
            "retained {} entries",
            outcome.retained_plog_entries
        );
        assert!(outcome.peak_retained_bytes <= 156_968);
        assert!(outcome.recoveries.is_empty());
    }

    #[test]
    fn checkpoint_truncation_holds_retention_at_a_plateau_over_a_longer_run() {
        // Every instance proposes many blocks; run to all-confirmed, then two
        // more seconds so the last checkpoints (and their truncations) land.
        let workload = WorkloadConfig {
            num_accounts: 2_000,
            num_transactions: 6_000,
            payment_share: 0.46,
            multi_payer_share: 0.05,
            num_shared_objects: 64,
            ..WorkloadConfig::default()
        };
        let mut scenario = Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, 8)
            .with_workload(workload)
            .with_seed(42)
            .with_batch_size(32)
            .with_batch_timeout(Duration::from_millis(20))
            .with_num_clients(8)
            .with_submission_window(Duration::from_secs(10))
            .with_max_sim_time(Duration::from_secs(120));
        scenario.config.checkpoint_interval = 4;
        let (mut sim, submitted) = build_simulation(&scenario).expect("valid scenario");
        while sim.stats().confirmed_count() < submitted {
            assert!(
                sim.now() < SimTime::ZERO + scenario.max_sim_time,
                "run stalled"
            );
            sim.run_for(Duration::from_millis(250));
        }
        sim.run_for(Duration::from_secs(2));
        let node = sim
            .actor_as::<ReplicaNode>(NodeId::replica(0))
            .expect("replica 0 exists");
        let (retained, peak, delivered) = (
            node.retained_log_entries(),
            node.peak_retained_entries(),
            node.delivered_blocks(),
        );
        // A plateau far below the delivered history, every block of which an
        // untruncated log would still hold, and no late growth past the peak.
        assert!(
            retained * 2 <= delivered,
            "retained {retained} of {delivered} delivered blocks"
        );
        assert!(retained <= peak, "retained {retained} above peak {peak}");
    }

    #[test]
    fn deeper_pipelining_is_a_valid_configuration() {
        let s = tiny_scenario(ProtocolKind::Orthrus).with_max_inflight_blocks(16);
        let outcome = run(&s);
        assert_eq!(outcome.confirmed, outcome.submitted);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    #[test]
    #[ignore]
    fn debug_tiny_run() {
        let workload = WorkloadConfig {
            num_accounts: 32,
            num_transactions: 120,
            num_shared_objects: 4,
            ..WorkloadConfig::small()
        };
        let scenario = Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, 4)
            .with_workload(workload)
            .with_batch_size(32)
            .with_batch_timeout(Duration::from_millis(20))
            .with_num_clients(2)
            .with_submission_window(Duration::from_millis(200))
            .with_max_sim_time(Duration::from_secs(10))
            .with_seed(7);
        let (mut sim, submitted) = build_simulation(&scenario).expect("valid scenario");
        for step in 0..10 {
            let report = sim.run_for(Duration::from_secs(1));
            eprintln!(
                "t={}s submitted_stat={} confirmed_stat={} blocks={} events={}",
                step + 1,
                sim.stats().submitted_count(),
                sim.stats().confirmed_count(),
                sim.stats().blocks_delivered,
                report.events_processed,
            );
        }
        for r in 0..4 {
            let node = sim
                .actor_as::<crate::replica::ReplicaNode>(NodeId::replica(r))
                .unwrap();
            eprintln!(
                "replica {} confirmed={} delivered_blocks={} committed={} aborted={}",
                r,
                node.confirmed_transactions(),
                node.delivered_blocks(),
                node.executor().committed_count(),
                node.executor().aborted_count(),
            );
        }
        eprintln!("workload submitted={submitted}");
    }
}
