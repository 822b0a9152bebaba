//! Engine snapshot: quantifies the coalesced multicast delivery path and the
//! parallel scenario sweep, and records the result to `BENCH_engine.json` at
//! the repository root.
//!
//! Two measurements:
//!
//! 1. **Broadcast storm** — an n-replica gossip round-trip through the full
//!    engine (every replica broadcasts each round until a fixed round count),
//!    once with per-recipient unicasts (the PR-1 baseline) and once with
//!    coalesced multicast. At the full scale (`ORTHRUS_FULL_SCALE=1`) this is
//!    a 128-replica, ≥1e6-delivery scenario.
//! 2. **Scenario sweep** — a multi-point paper-style sweep run serially and
//!    on the scoped thread pool, with a cross-thread-count determinism check.
//!
//! Run with `cargo bench --bench engine` (reduced scale) or
//! `ORTHRUS_FULL_SCALE=1 cargo bench --bench engine` (paper scale).

use orthrus_bench::harness::{self, BenchScale};
use orthrus_core::{run_scenario, run_scenarios_with_threads};
use orthrus_sim::{Actor, Context, NetworkConfig, NodeId, Payload, Simulation, SimulationReport};
use orthrus_types::{NetworkKind, ProtocolKind};
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

// ----------------------------------------------------------------------
// 1. Broadcast storm through the full engine
// ----------------------------------------------------------------------

/// A gossip message with an `Arc` payload, mimicking the zero-copy fabric's
/// shared blocks.
#[derive(Clone)]
struct Gossip {
    round: u32,
    payload: Arc<Vec<u8>>,
}

impl Payload for Gossip {
    fn wire_bytes(&self) -> u64 {
        64 + self.payload.len() as u64
    }
}

/// Broadcasts one message per round: on the first message of round `r` it
/// gossips round `r + 1` to every peer, until `rounds` is reached.
struct StormNode {
    peers: Vec<NodeId>,
    rounds: u32,
    next_round: u32,
    delivered: u64,
    coalesce: bool,
    payload: Arc<Vec<u8>>,
}

impl StormNode {
    fn broadcast(&mut self, round: u32, ctx: &mut Context<'_, Gossip>) {
        let msg = Gossip {
            round,
            payload: Arc::clone(&self.payload),
        };
        if self.coalesce {
            ctx.multicast(self.peers.iter().copied(), msg);
        } else {
            for &p in &self.peers {
                ctx.send(p, msg.clone());
            }
        }
    }
}

impl Actor<Gossip> for StormNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Gossip>) {
        self.next_round = 1;
        self.broadcast(0, ctx);
    }
    fn on_message(&mut self, _from: NodeId, msg: Gossip, ctx: &mut Context<'_, Gossip>) {
        self.delivered += 1;
        // Seeing any message of round r is evidence the cluster reached it;
        // broadcast every round up to r + 1 that we have not yet sent, so
        // each node broadcasts exactly `rounds` times.
        while self.next_round < self.rounds && self.next_round <= msg.round + 1 {
            let round = self.next_round;
            self.next_round += 1;
            self.broadcast(round, ctx);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct StormResult {
    wall_ms: f64,
    deliveries: u64,
    deliveries_per_sec: f64,
    events_processed: u64,
    peak_queue_len: u64,
    end_time_us: u64,
}

fn storm(replicas: u32, rounds: u32, coalesce: bool) -> StormResult {
    let mut sim: Simulation<Gossip> = Simulation::new(NetworkConfig::wan(), 7);
    let payload = Arc::new(vec![0u8; 1024]);
    let all: Vec<NodeId> = (0..replicas).map(NodeId::replica).collect();
    for &node in &all {
        let peers: Vec<NodeId> = all.iter().copied().filter(|&p| p != node).collect();
        sim.add_actor(
            node,
            Box::new(StormNode {
                peers,
                rounds,
                next_round: 0,
                delivered: 0,
                coalesce,
                payload: Arc::clone(&payload),
            }),
        );
    }
    let wall = Instant::now();
    let report: SimulationReport = sim.run_to_completion();
    let wall_s = wall.elapsed().as_secs_f64();
    let deliveries: u64 = (0..replicas)
        .map(|r| {
            sim.actor_as::<StormNode>(NodeId::replica(r))
                .expect("storm node exists")
                .delivered
        })
        .sum();
    StormResult {
        wall_ms: wall_s * 1e3,
        deliveries,
        deliveries_per_sec: deliveries as f64 / wall_s,
        events_processed: report.events_processed,
        peak_queue_len: report.peak_queue_len,
        end_time_us: report.end_time.as_micros(),
    }
}

fn storm_json(name: &str, r: &StormResult) -> String {
    format!(
        concat!(
            "    \"{}\": {{\"wall_ms\": {:.1}, \"deliveries\": {}, ",
            "\"deliveries_per_sec\": {:.0}, \"events_processed\": {}, ",
            "\"peak_queue_len\": {}, \"virtual_end_time_us\": {}}}"
        ),
        name,
        r.wall_ms,
        r.deliveries,
        r.deliveries_per_sec,
        r.events_processed,
        r.peak_queue_len,
        r.end_time_us,
    )
}

// ----------------------------------------------------------------------
// 2. Parallel scenario sweep
// ----------------------------------------------------------------------

/// Fixed machine width the work-span model is evaluated at, so the modeled
/// speedup is comparable across benchmark hosts.
const MODEL_WIDTH: u64 = 8;

struct SweepResult {
    scenarios: usize,
    threads: usize,
    serial_wall_ms: f64,
    parallel_wall_ms: f64,
    /// Longest single scenario in the serial pass — the span of the sweep's
    /// work-span model (no schedule can beat it).
    span_ms: f64,
    /// Greedy list-schedule makespan of the measured per-scenario times at
    /// the fixed [`MODEL_WIDTH`], host-independent like the executor model
    /// (the walls depend on how many cores the host has).
    modeled_makespan_ms: f64,
    modeled_speedup: f64,
    identical: bool,
}

fn sweep_bench(scale: BenchScale) -> SweepResult {
    let replica_points: &[u32] = match scale {
        BenchScale::Reduced => &[4, 8],
        BenchScale::Full => &[4, 8, 16, 32],
    };
    // The sweep measures the *pool*, not the per-scenario workload, so the
    // points stay at the reduced workload size even at full scale — full-size
    // points would take tens of minutes each without changing the scaling
    // shape (scenarios are independent and deterministic either way).
    let scenarios: Vec<_> = replica_points
        .iter()
        .flat_map(|&n| {
            [ProtocolKind::Orthrus, ProtocolKind::Iss]
                .into_iter()
                .map(move |p| (p, n))
        })
        .map(|(p, n)| {
            harness::paper_scenario(p, NetworkKind::Lan, n, 0.46, false, BenchScale::Reduced)
        })
        .collect();
    let threads = orthrus_core::sweep_threads().max(2);

    // Serial pass, timed per scenario: the per-point times are the task
    // durations the work-span model schedules below.
    let wall = Instant::now();
    let mut serial = Vec::with_capacity(scenarios.len());
    let mut point_ms = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        let one = Instant::now();
        serial.push(run_scenario(scenario).expect("bench scenarios must validate"));
        point_ms.push(one.elapsed().as_secs_f64() * 1e3);
    }
    let serial_wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let wall = Instant::now();
    let parallel =
        run_scenarios_with_threads(&scenarios, threads).expect("bench scenarios must validate");
    let parallel_wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    // Work-span makespan at the fixed model width: greedy earliest-free
    // assignment in input order, the same discipline the sweep pool uses.
    let work_ms: f64 = point_ms.iter().sum();
    let span_ms = point_ms.iter().copied().fold(0.0, f64::max);
    let mut workers = [0.0f64; MODEL_WIDTH as usize];
    for &t in &point_ms {
        let earliest = workers
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        workers[earliest] += t;
    }
    let modeled_makespan_ms = workers.iter().copied().fold(0.0, f64::max);

    let identical = serial.len() == parallel.len()
        && serial.iter().zip(&parallel).all(|(a, b)| {
            a.confirmed == b.confirmed
                && a.avg_latency == b.avg_latency
                && a.state_digests == b.state_digests
                && a.report == b.report
        });
    SweepResult {
        scenarios: scenarios.len(),
        threads,
        serial_wall_ms,
        parallel_wall_ms,
        span_ms,
        modeled_makespan_ms,
        modeled_speedup: work_ms / modeled_makespan_ms.max(0.001),
        identical,
    }
}

fn main() {
    let scale = BenchScale::from_env();
    let replicas = match scale {
        BenchScale::Reduced => 24u32,
        BenchScale::Full => 128u32,
    };
    // Rounds needed so the storm delivers at least 1e6 messages at full
    // scale: each round is n * (n - 1) deliveries.
    let per_round = u64::from(replicas) * u64::from(replicas - 1);
    let target_deliveries: u64 = match scale {
        BenchScale::Reduced => 100_000,
        BenchScale::Full => 2_000_000,
    };
    let rounds = target_deliveries.div_ceil(per_round) as u32;

    println!("== engine snapshot ({scale:?} scale) ==");
    println!("\n-- broadcast storm: {replicas} replicas x {rounds} rounds --");
    let baseline = storm(replicas, rounds, false);
    let coalesced = storm(replicas, rounds, true);
    for (name, r) in [
        ("per-recipient (baseline)", &baseline),
        ("coalesced               ", &coalesced),
    ] {
        println!(
            "{name}: {:>8.1} ms, {:>10.0} deliveries/s, peak queue {:>8}",
            r.wall_ms, r.deliveries_per_sec, r.peak_queue_len
        );
    }
    assert_eq!(
        baseline.deliveries, coalesced.deliveries,
        "both delivery paths must do the same logical work"
    );
    // Coalescing preserves arrival times but not the tie-break order against
    // unrelated same-timestamp events, so on tie-heavy workloads virtual end
    // times can legitimately drift; report rather than fail.
    if baseline.end_time_us != coalesced.end_time_us {
        println!(
            "note: virtual end time differs across delivery paths ({} vs {} us; \
             same-timestamp tie-breaks resolve differently)",
            baseline.end_time_us, coalesced.end_time_us
        );
    }
    let speedup = coalesced.deliveries_per_sec / baseline.deliveries_per_sec;

    println!("\n-- parallel scenario sweep --");
    let sweep = sweep_bench(scale);
    println!(
        "{} scenarios: serial {:.0} ms, {} threads {:.0} ms (identical: {})",
        sweep.scenarios,
        sweep.serial_wall_ms,
        sweep.threads,
        sweep.parallel_wall_ms,
        sweep.identical
    );
    println!(
        "work-span model @ width {MODEL_WIDTH}: span {:.0} ms, makespan {:.0} ms, \
         speedup {:.2}",
        sweep.span_ms, sweep.modeled_makespan_ms, sweep.modeled_speedup
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"engine\",\n",
            "  \"scale\": \"{}\",\n",
            "  \"broadcast_storm\": {{\n",
            "    \"replicas\": {},\n",
            "    \"rounds\": {},\n",
            "{},\n",
            "{},\n",
            "    \"speedup\": {:.2},\n",
            "    \"peak_queue_reduction\": {:.1}\n",
            "  }},\n",
            "  \"sweep\": {{\n",
            "    \"scenarios\": {},\n",
            "    \"available_cores\": {},\n",
            "    \"threads\": {},\n",
            "    \"serial_wall_ms\": {:.1},\n",
            "    \"parallel_wall_ms\": {:.1},\n",
            "    \"speedup\": {:.2},\n",
            "    \"model_width\": {},\n",
            "    \"span_ms\": {:.1},\n",
            "    \"modeled_makespan_ms\": {:.1},\n",
            "    \"modeled_speedup\": {:.2},\n",
            "    \"identical_across_thread_counts\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        if scale == BenchScale::Full {
            "full"
        } else {
            "reduced"
        },
        replicas,
        rounds,
        storm_json("per_recipient_baseline", &baseline),
        storm_json("coalesced", &coalesced),
        speedup,
        baseline.peak_queue_len as f64 / coalesced.peak_queue_len.max(1) as f64,
        sweep.scenarios,
        cores,
        sweep.threads,
        sweep.serial_wall_ms,
        sweep.parallel_wall_ms,
        sweep.serial_wall_ms / sweep.parallel_wall_ms.max(0.001),
        MODEL_WIDTH,
        sweep.span_ms,
        sweep.modeled_makespan_ms,
        sweep.modeled_speedup,
        sweep.identical,
    );
    // Cargo runs benches with the package directory as cwd; the snapshot
    // belongs at the workspace root next to ROADMAP.md.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_engine.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nsnapshot written to {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
    if !sweep.identical {
        eprintln!("warning: sweep outcomes diverged across thread counts");
        std::process::exit(1);
    }
}
