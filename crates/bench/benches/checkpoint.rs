//! Checkpoint snapshot: measures that checkpoint-driven truncation turns
//! log retention from monotone growth into a plateau, and how long a
//! crashed replica takes to rejoin via state transfer. Records the result
//! to `BENCH_checkpoint.json` at the repository root.
//!
//! Two measurements:
//!
//! 1. **Retention** — a long fig3-class run (every instance proposing many
//!    blocks), sampling replica 0's retained log entries (plog blocks + glog
//!    payloads + PBFT slots) every 250 ms of virtual time. Checkpoint
//!    truncation must hold the series at a plateau (the in-flight window)
//!    far below the delivered history, which is what an untruncated log
//!    would keep.
//! 2. **Recovery** — a run in which one replica crashes mid-load and
//!    restarts later: reports the state-transfer latency (restart → first
//!    install) and checks the recovered replica reconverges to the same
//!    state digest as its peers.
//!
//! Run with `cargo bench --bench checkpoint` (reduced scale: 16 replicas)
//! or `ORTHRUS_FULL_SCALE=1 cargo bench --bench checkpoint` (the paper's
//! 128 replicas).

use orthrus_bench::harness::BenchScale;
use orthrus_core::{build_simulation, run_scenario, ReplicaNode, Scenario};
use orthrus_sim::NodeId;
use orthrus_types::{Digest, Duration, NetworkKind, ProtocolKind, ReplicaId, SimTime};
use orthrus_workload::WorkloadConfig;
use std::fmt::Write as _;

struct RetentionRun {
    /// (virtual ms, retained entries) samples on replica 0.
    series: Vec<(u64, u64)>,
    final_retained: u64,
    peak_retained: u64,
    peak_retained_bytes: u64,
    /// Blocks replica 0 delivered: every one of them would still be
    /// retained without truncation.
    delivered_blocks: u64,
}

fn retention_scenario(scale: BenchScale) -> Scenario {
    let (replicas, transactions) = match scale {
        BenchScale::Reduced => (16, 6_000),
        BenchScale::Full => (128, 60_000),
    };
    let workload = WorkloadConfig {
        num_accounts: 2_000,
        num_transactions: transactions,
        payment_share: 0.46,
        multi_payer_share: 0.05,
        num_shared_objects: 64,
        ..WorkloadConfig::default()
    };
    let mut scenario = Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, replicas)
        .with_workload(workload)
        .with_seed(42)
        .with_batch_size(32)
        .with_batch_timeout(Duration::from_millis(20))
        .with_num_clients(8)
        .with_submission_window(Duration::from_secs(10))
        .with_max_sim_time(Duration::from_secs(120));
    scenario.config.checkpoint_interval = 4;
    scenario
}

/// Run the retention scenario in fixed 250 ms slices, sampling replica 0's
/// retained-entry count after each slice.
fn measure_retention(scenario: &Scenario) -> RetentionRun {
    let (mut sim, submitted) = build_simulation(scenario).expect("bench scenario must validate");
    let deadline = SimTime::ZERO + scenario.max_sim_time;
    let mut series = Vec::new();
    let mut peak = 0u64;
    let slice = Duration::from_millis(250);
    // Run to all-confirmed, then two extra seconds of drain so the last
    // checkpoints (and their truncations) land.
    let mut drain_until: Option<SimTime> = None;
    loop {
        let now = sim.now();
        if now >= deadline {
            break;
        }
        let slice_end = (now + slice).min(deadline);
        sim.run_until(slice_end);
        let node = sim
            .actor_as::<ReplicaNode>(NodeId::replica(0))
            .expect("replica 0 exists");
        let retained = node.retained_log_entries();
        peak = peak.max(retained);
        series.push((sim.now().as_micros() / 1_000, retained));
        match drain_until {
            Some(t) if sim.now() >= t => break,
            Some(_) => {}
            None => {
                if sim.stats().confirmed_count() >= submitted {
                    drain_until = Some(sim.now() + Duration::from_secs(2));
                }
            }
        }
    }
    let node = sim
        .actor_as::<ReplicaNode>(NodeId::replica(0))
        .expect("replica 0 exists");
    RetentionRun {
        final_retained: node.retained_log_entries(),
        peak_retained: node.peak_retained_entries().max(peak),
        peak_retained_bytes: node.peak_retained_bytes(),
        delivered_blocks: node.delivered_blocks(),
        series,
    }
}

fn series_json(series: &[(u64, u64)]) -> String {
    let mut out = String::from("[");
    for (i, (t, entries)) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"t_ms\":{t},\"entries\":{entries}}}");
    }
    out.push(']');
    out
}

struct RecoveryRun {
    replicas: u32,
    crash_at_ms: u64,
    recover_at_ms: u64,
    recovery_latency_ms: f64,
    digests_converged: bool,
    confirmed: usize,
    submitted: usize,
}

fn measure_recovery(scale: BenchScale) -> RecoveryRun {
    let replicas = match scale {
        BenchScale::Reduced => 16,
        BenchScale::Full => 128,
    };
    let crash_at = SimTime::from_millis(500);
    let recover_at = SimTime::from_millis(3_000);
    let workload = WorkloadConfig {
        num_accounts: 1_000,
        num_transactions: 3_000,
        payment_share: 0.46,
        multi_payer_share: 0.05,
        num_shared_objects: 32,
        ..WorkloadConfig::default()
    };
    let scenario = Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, replicas)
        .with_workload(workload)
        .with_seed(42)
        .with_batch_size(32)
        .with_batch_timeout(Duration::from_millis(20))
        .with_num_clients(8)
        .with_submission_window(Duration::from_secs(4))
        .with_crash_recover(ReplicaId::new(2), crash_at, recover_at);
    let outcome = run_scenario(&scenario).expect("bench scenario must validate");
    let recovered_at = outcome
        .recoveries
        .iter()
        .find(|(r, _)| *r == ReplicaId::new(2))
        .map(|(_, at)| *at)
        .expect("replica 2 must recover");
    let digests: Vec<Digest> = outcome.state_digests.iter().map(|(_, d)| *d).collect();
    RecoveryRun {
        replicas,
        crash_at_ms: crash_at.as_micros() / 1_000,
        recover_at_ms: recover_at.as_micros() / 1_000,
        recovery_latency_ms: (recovered_at - recover_at).as_micros() as f64 / 1_000.0,
        digests_converged: digests.windows(2).all(|w| w[0] == w[1]),
        confirmed: outcome.confirmed,
        submitted: outcome.submitted,
    }
}

fn main() {
    let scale = BenchScale::from_env();
    println!("== checkpoint bench ({scale:?} scale) ==");

    let scenario = retention_scenario(scale);
    let replicas = scenario.config.num_replicas;
    let transactions = scenario.workload.num_transactions;
    println!("retention: {replicas} replicas, {transactions} txs …");
    let retention = measure_retention(&scenario);

    // Bounded = the steady state is a plateau well below the delivered
    // history: the final retained window must be a fraction of the blocks
    // delivered (each of which an untruncated log would still hold), and no
    // bigger than its own observed peak (no late growth).
    let bounded = retention.final_retained * 2 <= retention.delivered_blocks.max(1)
        && retention.final_retained <= retention.peak_retained;
    println!(
        "  final {:>6} entries (peak {:>6}, peak {:>9} bytes) of {} delivered blocks",
        retention.final_retained,
        retention.peak_retained,
        retention.peak_retained_bytes,
        retention.delivered_blocks
    );
    println!("  bounded: {bounded}");

    println!("recovery: crash-recover one replica …");
    let recovery = measure_recovery(scale);
    println!(
        "  {} replicas: crash at {} ms, restart at {} ms, state transfer installed after {:.1} ms \
         (digests converged: {}, {}/{} confirmed)",
        recovery.replicas,
        recovery.crash_at_ms,
        recovery.recover_at_ms,
        recovery.recovery_latency_ms,
        recovery.digests_converged,
        recovery.confirmed,
        recovery.submitted,
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"checkpoint\",\n  \"scale\": \"{scale:?}\",\n  \"retention\": {{\n    \
         \"replicas\": {replicas},\n    \"transactions\": {transactions},\n    \
         \"final_retained_entries\": {}, \"peak_retained_entries\": {}, \
         \"peak_retained_bytes\": {}, \"delivered_blocks\": {},\n    \
         \"series\": {},\n    \"bounded\": {bounded}\n  }},\n  \
         \"recovery\": {{\"replicas\": {}, \"crash_at_ms\": {}, \"recover_at_ms\": {}, \
         \"recovery_latency_ms\": {:.3}, \"digests_converged\": {}, \
         \"confirmed\": {}, \"submitted\": {}}}\n}}\n",
        retention.final_retained,
        retention.peak_retained,
        retention.peak_retained_bytes,
        retention.delivered_blocks,
        series_json(&retention.series),
        recovery.replicas,
        recovery.crash_at_ms,
        recovery.recover_at_ms,
        recovery.recovery_latency_ms,
        recovery.digests_converged,
        recovery.confirmed,
        recovery.submitted,
    );

    // Cargo runs benches with the package directory as cwd; the snapshot
    // belongs at the workspace root next to ROADMAP.md.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_checkpoint.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nsnapshot written to {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
    if !bounded {
        eprintln!("error: retained entries did not plateau under checkpoint truncation");
        std::process::exit(1);
    }
    if !recovery.digests_converged {
        eprintln!("error: recovered replica did not reconverge to the peer state digest");
        std::process::exit(1);
    }
}
