//! Determinism regression tests for the zero-copy message fabric.
//!
//! The refactor that threaded `Arc`-shared blocks and transactions through
//! the broadcast path must not change *what* the simulation computes — only
//! how much it allocates. These tests pin that down: a given scenario seed
//! always produces the same confirmed/committed counts, the same delivered
//! block totals, the same bytes on the wire and the same final state digest,
//! run after run.

use orthrus::prelude::*;
use orthrus::sim::SimulationReport;
use orthrus::types::Digest;

fn scenario(seed: u64) -> Scenario {
    let workload = WorkloadConfig {
        num_accounts: 64,
        num_transactions: 300,
        payment_share: 0.6,
        multi_payer_share: 0.05,
        num_shared_objects: 8,
        ..WorkloadConfig::small()
    };
    Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, 4)
        .with_workload(workload)
        .with_seed(seed)
        .with_batch_size(64)
        .with_batch_timeout(Duration::from_millis(20))
        .with_submission_window(Duration::from_millis(500))
}

fn run(scenario: &Scenario) -> ScenarioOutcome {
    run_scenario(scenario).expect("scenario must validate")
}

/// A compact fingerprint of everything the fabric could plausibly perturb.
fn fingerprint(outcome: &ScenarioOutcome) -> (usize, usize, u64, u64, u64, Vec<u64>) {
    (
        outcome.submitted,
        outcome.confirmed,
        outcome.blocks_delivered,
        outcome.report.bytes_sent,
        outcome.report.messages_sent,
        outcome.state_digests.iter().map(|(_, d)| d.0).collect(),
    )
}

#[test]
fn same_seed_same_counts_and_state() {
    let first = run(&scenario(7));
    let second = run(&scenario(7));
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(first.confirmed, first.submitted, "workload must complete");
    assert_eq!(
        first.avg_latency, second.avg_latency,
        "latencies are part of the deterministic trace"
    );
}

#[test]
fn different_seeds_differ() {
    let a = run(&scenario(7));
    let b = run(&scenario(8));
    // Both complete, but the traces (timings, bytes) must differ — if they
    // do not, the seed is being ignored somewhere.
    assert_eq!(a.confirmed, a.submitted);
    assert_eq!(b.confirmed, b.submitted);
    assert_ne!(
        (a.report.bytes_sent, a.avg_latency),
        (b.report.bytes_sent, b.avg_latency)
    );
}

/// `scenario(13)` under each protocol, as recorded on the last commit that
/// had two event queues (heap and calendar agreed on every value): final
/// state digest (the same on all four replicas), blocks delivered, average
/// latency in µs, and the report's events / messages / bytes / peak queue
/// length. Every run submitted and confirmed all 300 transactions and ended
/// at sim-time 1 s.
const PINNED_TRACES: [(ProtocolKind, u64, u64, u64, [u64; 4]); 6] = [
    (
        ProtocolKind::Orthrus,
        11538589179555980204,
        380,
        12_304,
        [5_330, 4_823, 1_627_572, 74],
    ),
    (
        ProtocolKind::Iss,
        10196309939737643668,
        780,
        15_703,
        [8_042, 7_547, 2_059_764, 85],
    ),
    (
        ProtocolKind::Rcc,
        10196309939737643668,
        780,
        15_703,
        [8_042, 7_547, 2_059_764, 85],
    ),
    (
        ProtocolKind::MirBft,
        10196309939737643668,
        780,
        15_703,
        [8_042, 7_547, 2_059_764, 85],
    ),
    (
        ProtocolKind::Dqbft,
        11538589179555980204,
        760,
        13_033,
        [7_886, 7_379, 2_032_116, 70],
    ),
    (
        ProtocolKind::Ladon,
        9672578382349679344,
        380,
        12_640,
        [5_330, 4_823, 1_627_572, 78],
    ),
];

/// The event order is part of the simulation's contract: these values only
/// depend on the `(time, seq)` pop order, so a queue change that reorders
/// events — even among ties — moves them. A PR that means to change
/// simulated behaviour re-records the table and says so.
#[test]
fn event_order_matches_pinned_traces() {
    assert_eq!(
        PINNED_TRACES.map(|(protocol, ..)| protocol),
        ProtocolKind::ALL
    );
    for (protocol, digest, blocks, latency_us, [events, messages, bytes, peak]) in PINNED_TRACES {
        let mut s = scenario(13);
        s.protocol = protocol;
        let outcome = run(&s);
        assert_eq!(
            fingerprint(&outcome),
            (300, 300, blocks, bytes, messages, vec![digest; 4]),
            "{protocol} fingerprint moved"
        );
        assert_eq!(
            outcome.avg_latency,
            Duration::from_micros(latency_us),
            "{protocol} latency trace moved"
        );
        assert_eq!(
            outcome.report,
            SimulationReport {
                end_time: SimTime::from_secs(1),
                events_processed: events,
                messages_sent: messages,
                bytes_sent: bytes,
                peak_queue_len: peak,
            },
            "{protocol} simulation report moved"
        );
    }
}

/// The generated trace itself, before any protocol runs: every transaction
/// digest of the three stock workloads at seeds 1 and 42, folded in order, as
/// recorded when the Zipf sampler was a binary search and legs and
/// signatures were `Vec`s. Every stock transaction keeps its legs and
/// signatures inline.
#[test]
fn stock_workload_traces_match_pinned_digests() {
    let pinned = [
        (
            "default",
            WorkloadConfig::default(),
            [0x1ae9d710a570f2a8, 0x1ee2e2d5482e4c67],
        ),
        (
            "small",
            WorkloadConfig::small(),
            [0x083f26b3790239ca, 0x48cfaeff3efc752c],
        ),
        (
            "hot_accounts",
            WorkloadConfig::hot_accounts(),
            [0x39d5083513954f79, 0xf134b7db69b99a8e],
        ),
    ];
    for (name, config, digests) in pinned {
        for (seed, digest) in [1, 42].into_iter().zip(digests) {
            let workload = Workload::generate(config.clone().with_seed(seed));
            let fold = workload
                .transactions
                .iter()
                .fold(Digest::EMPTY, |acc, tx| acc.combine(tx.digest()));
            assert_eq!(fold, Digest(digest), "{name} trace at seed {seed} moved");
            assert!(
                workload
                    .transactions
                    .iter()
                    .all(|tx| !tx.ops.spilled() && !tx.signatures.spilled()),
                "{name} at seed {seed} has a transaction on the heap"
            );
        }
    }
}

/// The scenario-sweep thread pool must not perturb results: any thread count
/// yields the same outcomes in the same (input) order.
#[test]
fn sweeps_are_deterministic_across_thread_counts() {
    let scenarios: Vec<Scenario> = (0..4).map(|i| scenario(20 + i)).collect();
    let serial = run_scenarios_with_threads(&scenarios, 1).expect("valid sweep");
    let pooled = run_scenarios_with_threads(&scenarios, 3).expect("valid sweep");
    assert_eq!(serial.len(), pooled.len());
    for (i, (a, b)) in serial.iter().zip(&pooled).enumerate() {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "scenario {i} diverged across thread counts"
        );
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.report, b.report);
    }
}

/// `scenario(23)` under each protocol with replica 2 crashed from 150 ms to
/// 2 s, as recorded before state transfer carried one `Replicated` value:
/// final state digest (the same on all four replicas), average latency in
/// µs, the time replica 2 installed its first transfer in µs, and the
/// report's events / messages / bytes. The bytes include every transfer's
/// wire-size estimate, so a change to what a transfer carries moves them.
const CRASH_RECOVER_TRACES: [(ProtocolKind, u64, u64, u64, [u64; 3]); 6] = [
    (
        ProtocolKind::Orthrus,
        10894949751509401007,
        581_896,
        2_000_904,
        [13_639, 12_719, 2_998_836],
    ),
    (
        ProtocolKind::Iss,
        15558174543928616697,
        1_252_841,
        2_000_933,
        [14_623, 13_813, 3_146_884],
    ),
    (
        ProtocolKind::Rcc,
        15558174543928616697,
        1_252_841,
        2_000_933,
        [14_623, 13_813, 3_146_884],
    ),
    (
        ProtocolKind::MirBft,
        15558174543928616697,
        1_252_841,
        2_000_933,
        [14_623, 13_813, 3_146_884],
    ),
    (
        ProtocolKind::Dqbft,
        14518047840997176881,
        221_570,
        2_001_751,
        [6_549, 5_730, 2_065_116],
    ),
    (
        ProtocolKind::Ladon,
        16979927604646481563,
        1_180_110,
        2_000_920,
        [13_730, 12_810, 3_007_572],
    ),
];

/// Crash-recovery determinism: for every protocol, a replica that crashes
/// mid-run and rejoins via state transfer must (a) not stop the workload
/// from completing, (b) reconverge to the exact state digest of its peers,
/// and (c) reproduce the pinned trace, run over run.
#[test]
fn crash_recovered_replica_reconverges_for_every_protocol() {
    assert_eq!(
        CRASH_RECOVER_TRACES.map(|(protocol, ..)| protocol),
        ProtocolKind::ALL
    );
    for (protocol, digest, latency_us, recovered_us, [events, messages, bytes]) in
        CRASH_RECOVER_TRACES
    {
        let make = || {
            let mut s = scenario(23);
            s.protocol = protocol;
            s = s.with_crash_recover(
                ReplicaId::new(2),
                SimTime::from_millis(150),
                SimTime::from_millis(2_000),
            );
            run(&s)
        };
        let first = make();
        assert_eq!(
            first.confirmed, first.submitted,
            "{protocol} must complete despite the crash-recover fault"
        );
        assert_eq!(
            first.recoveries,
            vec![(ReplicaId::new(2), SimTime::from_micros(recovered_us))],
            "{protocol}: replica 2 must recover at the pinned time"
        );
        let digests: Vec<u64> = first.state_digests.iter().map(|(_, d)| d.0).collect();
        assert_eq!(
            digests,
            vec![digest; 4],
            "{protocol}: recovered replica diverged or the digest moved"
        );
        assert_eq!(
            first.avg_latency,
            Duration::from_micros(latency_us),
            "{protocol} latency trace moved"
        );
        assert_eq!(
            (
                first.report.events_processed,
                first.report.messages_sent,
                first.report.bytes_sent
            ),
            (events, messages, bytes),
            "{protocol} crash-recover report moved"
        );
        let second = make();
        assert_eq!(
            fingerprint(&first),
            fingerprint(&second),
            "{protocol}: crash-recovery trace must be reproducible"
        );
        assert_eq!(first.recoveries, second.recoveries);
    }
}

/// `scenario(29)` under each protocol as recorded with checkpoint truncation
/// switched off (it was bit-identical with truncation on): final state
/// digest, blocks delivered, average latency in µs, the report's events /
/// messages / bytes / peak queue length, and the log entries replica 0 still
/// retained at the end — the whole delivered history.
const UNTRUNCATED_TRACES: [(ProtocolKind, u64, u64, u64, [u64; 4], u64); 6] = [
    (
        ProtocolKind::Orthrus,
        17054277779727721308,
        396,
        12_237,
        [5_456, 4_949, 1_651_272, 81],
        201,
    ),
    (
        ProtocolKind::Iss,
        17054277779727721308,
        780,
        14_236,
        [8_048, 7_553, 2_064_648, 82],
        393,
    ),
    (
        ProtocolKind::Rcc,
        17054277779727721308,
        780,
        14_236,
        [8_048, 7_553, 2_064_648, 82],
        393,
    ),
    (
        ProtocolKind::MirBft,
        17054277779727721308,
        780,
        14_236,
        [8_048, 7_553, 2_064_648, 82],
        393,
    ),
    (
        ProtocolKind::Dqbft,
        3818474512258424656,
        792,
        13_032,
        [8_120, 7_613, 2_072_904, 73],
        204,
    ),
    (
        ProtocolKind::Ladon,
        17054277779727721308,
        396,
        12_372,
        [5_456, 4_949, 1_651_272, 81],
        201,
    ),
];

/// Checkpoint-driven truncation is memory-only: every protocol's trace
/// equals the one recorded without truncation, bit for bit, while the
/// retained-entry count stays within what that run kept.
#[test]
fn checkpoint_truncation_is_memory_only_for_every_protocol() {
    assert_eq!(
        UNTRUNCATED_TRACES.map(|(protocol, ..)| protocol),
        ProtocolKind::ALL
    );
    for (protocol, digest, blocks, latency_us, [events, messages, bytes, peak], retained) in
        UNTRUNCATED_TRACES
    {
        let mut s = scenario(29);
        s.protocol = protocol;
        let outcome = run(&s);
        assert_eq!(
            fingerprint(&outcome),
            (300, 300, blocks, bytes, messages, vec![digest; 4]),
            "{protocol} diverged from the untruncated trace"
        );
        assert_eq!(
            outcome.avg_latency,
            Duration::from_micros(latency_us),
            "{protocol} latency trace diverged"
        );
        assert_eq!(
            outcome.report,
            SimulationReport {
                end_time: SimTime::from_secs(1),
                events_processed: events,
                messages_sent: messages,
                bytes_sent: bytes,
                peak_queue_len: peak,
            },
            "{protocol} simulation report diverged"
        );
        assert!(
            outcome.retained_plog_entries <= retained,
            "{protocol}: truncation retains {} vs {retained} without",
            outcome.retained_plog_entries
        );
    }
}

/// Every protocol, fault-free and under the paper's straggler, completes
/// the workload, reproduces its trace run over run, and records how long
/// delivered data blocks waited at the global-ordering barrier.
#[test]
fn determinism_holds_for_every_protocol() {
    for protocol in ProtocolKind::ALL {
        for straggler in [false, true] {
            let make = || {
                let mut s = scenario(11);
                s.protocol = protocol;
                if straggler {
                    s = s.with_straggler();
                }
                run(&s)
            };
            let first = make();
            let second = make();
            assert_eq!(
                fingerprint(&first),
                fingerprint(&second),
                "{protocol} (straggler: {straggler}) trace must be reproducible"
            );
            assert_eq!(
                first.confirmed, first.submitted,
                "{protocol} (straggler: {straggler}) must complete"
            );
            assert!(
                first.glog_wait_count > 0,
                "{protocol} (straggler: {straggler}) must record glog-wait samples"
            );
        }
    }
}
