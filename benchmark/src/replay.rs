//! Per-layer replay drivers: each one times calls into a single layer's
//! public API, on inputs taken from the workload under test (its own
//! transactions, batch size, replica count, network kind, peak queue depth).
//! Nothing here touches the program's internals; spans inside the program
//! are a later change.
//!
//! Every timed value is the median of `SAMPLES` samples; a sample's inputs
//! are built outside the timed section.

use crate::metrics::Metrics;
use orthrus_core::{Bucket, Partitioner, Scenario};
use orthrus_execution::{Executor, ObjectStore};
use orthrus_ordering::{
    DqbftOrdering, GlobalLog, GlobalOrderingPolicy, LadonOrdering, PartialLogs,
    PredeterminedOrdering,
};
use orthrus_sb::LocalCluster;
use orthrus_sim::stats::LatencyStage;
use orthrus_sim::{
    Actor, Context, EventQueue, FaultPlan, NetworkConfig, NodeId, Payload, Simulation,
    StatsCollector,
};
use orthrus_types::rng::{Rng, StdRng};
use orthrus_types::{
    Block, BlockParams, Epoch, InstanceId, ProtocolKind, Rank, ReplicaId, SeqNum, SharedBlock,
    SharedTx, SimTime, SystemState, View,
};
use orthrus_workload::Workload;
use std::any::Any;
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 5;

/// What the drivers replay: the scenario, the workload generated from it and
/// the two numbers that only a whole run yields.
pub struct ReplayInput<'a> {
    pub spec_text: &'a str,
    pub scenario: &'a Scenario,
    pub workload: &'a Workload,
    pub events: u64,
    pub peak_queue_len: u64,
}

impl ReplayInput<'_> {
    fn instances(&self) -> u32 {
        self.scenario.config.num_instances
    }

    /// Operations per sample for the drivers whose input is synthetic: a
    /// fixed fraction of the run's own event count, within `[floor, cap]`.
    fn ops(&self, fraction: u64, floor: u64, cap: u64) -> u64 {
        (self.events / fraction).clamp(floor, cap)
    }

    fn batch_size(&self) -> usize {
        self.scenario.config.batch_size
    }

    fn txs(&self) -> &[SharedTx] {
        &self.workload.transactions
    }

    /// The genesis store laid out the way `ReplicaNode::new` lays it out.
    fn genesis(&self) -> ObjectStore {
        let mut store = ObjectStore::new();
        self.workload.install_genesis(&mut store);
        store.reshard(self.instances());
        store
    }

    /// Every transaction with the instances it is bucketed into.
    fn routed(&self) -> Vec<(SharedTx, Vec<InstanceId>)> {
        let partitioner = Partitioner::new(self.instances());
        self.txs()
            .iter()
            .map(|tx| (Arc::clone(tx), partitioner.instances_of(tx)))
            .collect()
    }
}

/// Median over `SAMPLES` of the nanoseconds `timed` takes, divided by `ops`.
/// `prepare` runs outside the timed section, once per sample.
fn median_ns_per_op<S, T>(
    ops: u64,
    mut prepare: impl FnMut() -> S,
    mut timed: impl FnMut(S) -> T,
) -> f64 {
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let state = prepare();
        let start = Instant::now();
        let out = timed(state);
        let elapsed = start.elapsed();
        black_box(out);
        samples.push(elapsed.as_nanos() as f64 / ops.max(1) as f64);
    }
    crate::measure::median(&samples)
}

fn block_params(instance: u32, sn: u64, instances: u32) -> BlockParams {
    BlockParams {
        instance: InstanceId::new(instance),
        sn: SeqNum::new(sn),
        epoch: Epoch::new(0),
        view: View::new(0),
        proposer: ReplicaId::new(instance),
        // Ranks rise with the sequence number, as a live leader's do.
        rank: Rank::new(sn + 1),
        // The all-⊥ state is covered by every state, so blocks are always
        // ready to drain.
        state: SystemState::new(instances as usize),
    }
}

/// `count` blocks of `batch_size` transactions each, cycling through the
/// workload's transactions; block `i` belongs to instance `i mod instances`.
fn blocks_of(input: &ReplayInput<'_>, instances: u32, count: usize) -> Vec<SharedBlock> {
    let mut txs = input.txs().iter().cycle();
    (0..count)
        .map(|i| {
            let batch: Vec<SharedTx> = txs.by_ref().take(input.batch_size()).cloned().collect();
            let params = block_params(
                i as u32 % instances,
                i as u64 / u64::from(instances),
                instances,
            );
            Arc::new(Block::from_shared(params, batch))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// workload, lab, types
// ---------------------------------------------------------------------------

pub fn workload(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    let config = input.scenario.effective_workload();
    let ops = config.num_transactions as u64;
    metrics.set(
        "workload.generate_ns_per_tx",
        median_ns_per_op(ops, || config.clone(), Workload::generate),
    );
    metrics.set(
        "workload.payment_fraction",
        input.workload.payment_fraction(),
    );
    ops
}

pub fn lab(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    const ROUNDS: u64 = 200;
    let ns = median_ns_per_op(
        ROUNDS,
        || (),
        |()| {
            for _ in 0..ROUNDS {
                black_box(crate::measure::lower(
                    black_box(input.spec_text),
                    input.scenario.seed,
                ))
                .expect("the spec lowered once already");
            }
        },
    );
    metrics.set("lab.parse_lower_us", ns / 1e3);
    ROUNDS
}

pub fn types(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    let config = input.scenario.effective_workload();
    let ops = config.num_transactions as u64;
    let ns = median_ns_per_op(
        ops,
        // Transaction digests are memoized on the shared handle, so every
        // sample builds its blocks from freshly generated transactions, the
        // way a leader sees them.
        || -> Vec<Vec<SharedTx>> {
            Workload::generate(config.clone())
                .transactions
                .chunks(input.batch_size())
                .map(<[SharedTx]>::to_vec)
                .collect()
        },
        |batches| {
            let mut digest = orthrus_types::Digest::EMPTY;
            for (sn, batch) in batches.into_iter().enumerate() {
                let block = Block::from_shared(block_params(0, sn as u64, 1), batch);
                digest = digest.combine(block.digest());
            }
            digest
        },
    );
    metrics.set("types.block_build_ns_per_tx", ns);
    ops
}

// ---------------------------------------------------------------------------
// sim: event queue, network model, engine floor, stats
// ---------------------------------------------------------------------------

pub fn sim_event(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    let hold_ops = input.ops(8, 20_000, 400_000);
    let network = NetworkConfig::for_kind(input.scenario.network);
    // Events land between now and one batch timer plus a round trip ahead.
    let horizon_us = input.scenario.config.batch_timeout.as_micros()
        + 2 * network
            .base_latency(NodeId::replica(0), NodeId::replica(1))
            .as_micros();
    let depth = input.peak_queue_len.max(1);
    let ns = median_ns_per_op(
        hold_ops,
        || {
            let mut rng = StdRng::seed_from_u64(input.scenario.seed);
            let mut queue: EventQueue<u64> = EventQueue::new();
            for i in 0..depth {
                queue.schedule(SimTime::from_micros(rng.gen_range(0..horizon_us)), i);
            }
            (queue, rng)
        },
        |(mut queue, mut rng)| {
            // The steady state of a discrete-event run: pop one, push one.
            for i in 0..hold_ops {
                let (now, _) = queue.pop().expect("hold pattern keeps the depth");
                let at = now.as_micros() + rng.gen_range(0..horizon_us);
                queue.schedule(SimTime::from_micros(at), i);
            }
            queue.len()
        },
    );
    metrics.set("sim.event.hold_ns_per_op", ns);
    hold_ops
}

pub fn sim_network(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    let calls = input.ops(8, 20_000, 400_000);
    let network = NetworkConfig::for_kind(input.scenario.network);
    let n = input.scenario.config.num_replicas;
    let vote_bytes = 256;
    let block_bytes = blocks_of(input, 1, 1)[0].wire_bytes();
    let ns = median_ns_per_op(
        calls,
        || StdRng::seed_from_u64(input.scenario.seed),
        |mut rng| {
            let mut total = 0u64;
            for i in 0..calls as u32 {
                let from = NodeId::replica(i % n);
                let to = NodeId::replica(i.wrapping_mul(7).wrapping_add(1) % n);
                let bytes = if i % 16 == 0 { block_bytes } else { vote_bytes };
                total += network.sample_latency(from, to, &mut rng).as_micros()
                    + network.serialization_delay(bytes).as_micros();
            }
            total
        },
    );
    metrics.set("sim.network.sample_ns", ns);
    calls
}

/// A vote-sized message carrying its round.
#[derive(Clone)]
struct Ping(u32);

impl Payload for Ping {
    fn wire_bytes(&self) -> u64 {
        256
    }
}

/// Does no protocol work: multicasts round `r + 1` once it has heard round
/// `r` from every peer.
struct NullNode {
    peers: Vec<NodeId>,
    heard: Vec<u32>,
}

impl Actor<Ping> for NullNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.multicast(self.peers.iter().copied(), Ping(0));
    }

    fn on_message(&mut self, _from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping>) {
        let round = msg.0 as usize;
        self.heard[round] += 1;
        if self.heard[round] as usize == self.peers.len() && round + 1 < self.heard.len() {
            ctx.multicast(self.peers.iter().copied(), Ping(msg.0 + 1));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The engine's floor: an n-node multicast storm with null actors — queue,
/// network model and dispatch, with zero protocol work per delivery.
pub fn sim_engine(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    let target_deliveries = input.ops(20, 10_000, 150_000);
    let n = input.scenario.config.num_replicas;
    let per_round = u64::from(n) * u64::from(n - 1).max(1);
    let rounds = (target_deliveries / per_round).max(1);
    let deliveries = rounds * per_round;
    let nodes: Vec<NodeId> = (0..n).map(NodeId::replica).collect();
    let ns = median_ns_per_op(
        deliveries,
        || {
            let mut sim: Simulation<Ping> = Simulation::with_queue(
                NetworkConfig::for_kind(input.scenario.network),
                FaultPlan::none(),
                input.scenario.seed,
                input.scenario.queue,
            );
            for &node in &nodes {
                let peers = nodes.iter().copied().filter(|p| *p != node).collect();
                let heard = vec![0; rounds as usize];
                sim.add_actor(node, Box::new(NullNode { peers, heard }));
            }
            sim
        },
        |mut sim| sim.run_to_completion().events_processed,
    );
    metrics.set("sim.engine.null_ns_per_delivery", ns);
    deliveries
}

pub fn sim_stats(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    let config = &input.scenario.config;
    let ops = input.txs().len() as u64;
    // Who reports each stage in a run: the f + 1 contacted replicas see the
    // request, the leader batches it, every replica delivers and confirms it.
    let stage_calls = [
        (LatencyStage::Send, config.client_quorum()),
        (LatencyStage::Preprocess, 1),
        (LatencyStage::PartialOrdering, config.num_replicas),
        (LatencyStage::GlobalOrdering, config.num_replicas),
    ];
    let ns = median_ns_per_op(ops, StatsCollector::new, |mut stats| {
        for (i, tx) in input.txs().iter().enumerate() {
            let mut now = SimTime::from_micros(i as u64);
            stats.tx_submitted(tx.id, now);
            for (stage, calls) in stage_calls {
                now += orthrus_types::Duration::from_micros(100);
                for _ in 0..calls {
                    stats.stage_reached(tx.id, stage, now);
                }
            }
            stats.tx_confirmed(tx.id, now + orthrus_types::Duration::from_micros(100));
        }
        (
            stats.confirmed_count(),
            stats.average_latency(),
            stats.latency_percentile(0.99),
            stats.latency_breakdown(),
            stats.throughput_ktps(),
        )
    });
    metrics.set("sim.stats.record_ns_per_tx", ns);
    ops
}

// ---------------------------------------------------------------------------
// sb
// ---------------------------------------------------------------------------

pub fn sb(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    const BLOCKS: usize = 24;
    let config = &input.scenario.config;
    let n = config.num_replicas;
    let leader = ReplicaId::new(0);
    let cluster = || LocalCluster::new(InstanceId::new(0), n, config.checkpoint_interval);
    let blocks = blocks_of(input, 1, BLOCKS);

    // One untimed pass counts routed envelopes (a multicast counts once).
    let envelopes = Cell::new(0u64);
    let mut counted = cluster();
    for block in &blocks {
        counted.propose(leader, Arc::clone(block));
        counted.run_dropping(|_| {
            envelopes.set(envelopes.get() + 1);
            false
        });
    }
    assert_eq!(
        counted.delivered(ReplicaId::new(n - 1)).len(),
        BLOCKS,
        "the replayed cluster must deliver every proposed block"
    );
    metrics.set(
        "sb.cluster_msgs_per_block",
        envelopes.get() as f64 / BLOCKS as f64,
    );

    let ns = median_ns_per_op(BLOCKS as u64 * u64::from(n), cluster, |mut cluster| {
        for block in &blocks {
            cluster.propose(leader, Arc::clone(block));
            cluster.run();
        }
        cluster.delivered(leader).len()
    });
    metrics.set("sb.cluster_ns_per_block_replica", ns);
    BLOCKS as u64
}

// ---------------------------------------------------------------------------
// ordering
// ---------------------------------------------------------------------------

fn policy_for(protocol: ProtocolKind, instances: u32) -> Box<dyn GlobalOrderingPolicy> {
    match protocol {
        ProtocolKind::Iss | ProtocolKind::MirBft | ProtocolKind::Rcc => {
            Box::new(PredeterminedOrdering::new(instances))
        }
        ProtocolKind::Dqbft => Box::new(DqbftOrdering::new()),
        ProtocolKind::Ladon | ProtocolKind::Orthrus => Box::new(LadonOrdering::new(instances)),
    }
}

pub fn ordering(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    let m = input.instances();
    let per_instance = (1024 / m as usize).max(32);
    let blocks = blocks_of(input, m, per_instance * m as usize);
    let count = blocks.len() as u64;

    let plog_ns = median_ns_per_op(
        count,
        || (PartialLogs::new(m), SystemState::new(m as usize)),
        |(mut plogs, mut executed)| {
            for block in &blocks {
                plogs
                    .get_mut(block.header.instance)
                    .insert(Arc::clone(block));
            }
            let drained = plogs.drain_ready(&mut executed).len();
            assert_eq!(drained as u64, count, "every replayed block is ready");
            drained
        },
    );
    metrics.set("ordering.plog_ns_per_block", plog_ns);

    let mut stable = SystemState::new(m as usize);
    for block in &blocks {
        stable.observe(block.header.instance, block.header.sn);
    }
    let glog_ns = median_ns_per_op(count, GlobalLog::new, |mut glog| {
        for block in &blocks {
            glog.append(Arc::clone(block));
        }
        while let Some(block) = glog.pop_pending() {
            black_box(block);
        }
        glog.truncate_before(&stable);
        assert_eq!(glog.retained_len(), 0, "a fully stable log truncates fully");
        glog.len()
    });
    metrics.set("ordering.glog_ns_per_block", glog_ns);

    let policy_ns = median_ns_per_op(
        count,
        || policy_for(input.scenario.protocol, m),
        |mut policy| {
            let mut confirmed = 0;
            for block in &blocks {
                confirmed += policy.on_deliver(Arc::clone(block)).len();
            }
            confirmed
        },
    );
    metrics.set("ordering.policy_ns_per_block", policy_ns);
    count
}

// ---------------------------------------------------------------------------
// execution
// ---------------------------------------------------------------------------

pub fn execution(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    let partitioner = Partitioner::new(input.instances());
    let assign = |key| partitioner.assign(key);
    let genesis = input.genesis();
    let routed = input.routed();
    let ops = routed.len() as u64;

    // The walk a replica does at pool width 1, where every execution mode
    // collapses to `process_plog_tx` per occurrence.
    let plog_walk = |executor: &mut Executor| {
        for (tx, instances) in &routed {
            for instance in instances {
                black_box(executor.process_plog_tx(tx, *instance, &assign));
            }
        }
    };
    // Orthrus walks every delivered block again in global order: contracts
    // execute here, payments find their fast-path outcome.
    let glog_walk = |executor: &mut Executor| {
        for (tx, instances) in &routed {
            for _ in instances {
                black_box(executor.process_glog_tx(tx, &assign));
            }
        }
    };

    metrics.set(
        "execution.plog_ns_per_tx",
        median_ns_per_op(
            ops,
            || Executor::with_store(genesis.clone()),
            |mut executor| {
                plog_walk(&mut executor);
                executor
            },
        ),
    );
    metrics.set(
        "execution.glog_ns_per_tx",
        median_ns_per_op(
            ops,
            || {
                let mut executor = Executor::with_store(genesis.clone());
                plog_walk(&mut executor);
                executor
            },
            |mut executor| {
                glog_walk(&mut executor);
                executor
            },
        ),
    );
    metrics.set(
        "execution.sequential_ns_per_tx",
        median_ns_per_op(
            ops,
            || Executor::with_store(genesis.clone()),
            |mut executor| {
                for tx in input.txs() {
                    black_box(executor.process_sequential_tx(tx));
                }
                executor
            },
        ),
    );

    let mut end_of_run = Executor::with_store(genesis.clone());
    plog_walk(&mut end_of_run);
    glog_walk(&mut end_of_run);
    const DIGESTS: u64 = 10_000;
    let digest_ns = median_ns_per_op(
        DIGESTS,
        || (),
        |()| {
            for _ in 0..DIGESTS {
                black_box(black_box(&end_of_run).state_digest());
            }
        },
    );
    metrics.set("execution.state_digest_us", digest_ns / 1e3);

    // Abort rate of the optimistic engine on this workload's own schedule:
    // each instance's transactions in batch-sized blocks, instances
    // interleaved the way `drain_ready` sweeps them.
    let mut per_instance: Vec<Vec<SharedTx>> = vec![Vec::new(); input.instances() as usize];
    for (tx, instances) in &routed {
        for instance in instances {
            per_instance[instance.as_usize()].push(Arc::clone(tx));
        }
    }
    let mut schedule: Vec<(u64, InstanceId, SharedBlock)> = Vec::new();
    for (instance, txs) in per_instance.iter().enumerate() {
        for (sn, batch) in txs.chunks(input.batch_size()).enumerate() {
            let params = block_params(instance as u32, sn as u64, input.instances());
            let block = Arc::new(Block::from_shared(params, batch.to_vec()));
            schedule.push((sn as u64, InstanceId::new(instance as u32), block));
        }
    }
    schedule.sort_by_key(|(sn, instance, _)| (*sn, *instance));
    let schedule: Vec<(InstanceId, SharedBlock)> =
        schedule.into_iter().map(|(_, i, b)| (i, b)).collect();
    let (_, stm) =
        Executor::with_store(genesis).process_plog_schedule_stm_with_stats(&schedule, &assign, 1);
    metrics.set("execution.stm_abort_rate", stm.abort_rate());
    ops
}

// ---------------------------------------------------------------------------
// core: partition module
// ---------------------------------------------------------------------------

pub fn core_partition(input: &ReplayInput<'_>, metrics: &mut Metrics) -> u64 {
    let m = input.instances();
    let partitioner = Partitioner::new(m);
    let ops = input.txs().len() as u64;
    let ns = median_ns_per_op(
        ops,
        || -> Vec<Bucket> { (0..m).map(|_| Bucket::new()).collect() },
        |mut buckets| {
            // The whole workload arrives first (the backlog a saturated
            // leader sits on), then leaves in batches.
            for tx in input.txs() {
                for instance in partitioner.instances_of(tx) {
                    buckets[instance.as_usize()].push(Arc::clone(tx));
                }
            }
            let mut pending = 0u64;
            for bucket in &mut buckets {
                loop {
                    let batch = bucket.pull(input.batch_size(), |_| true);
                    if batch.is_empty() {
                        break;
                    }
                    for tx in &batch {
                        bucket.mark_delivered(tx.id);
                    }
                    pending += u64::from(bucket.has_pending());
                }
            }
            pending
        },
    );
    metrics.set("core.partition_ns_per_tx", ns);
    ops
}

/// A replay driver: sets its layer's metrics and returns how many operations
/// one sample replayed (recorded on its span).
pub type Driver = fn(&ReplayInput<'_>, &mut Metrics) -> u64;

/// Span name and driver, in the order they run.
pub const DRIVERS: [(&str, Driver); 11] = [
    ("replay.workload", workload),
    ("replay.lab", lab),
    ("replay.types", types),
    ("replay.sim.event", sim_event),
    ("replay.sim.network", sim_network),
    ("replay.sim.engine", sim_engine),
    ("replay.sim.stats", sim_stats),
    ("replay.sb", sb),
    ("replay.ordering", ordering),
    ("replay.execution", execution),
    ("replay.core.partition", core_partition),
];
