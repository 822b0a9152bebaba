//! Workspace-level integration tests: safety and liveness properties of the
//! full stack (clients → PBFT instances → ordering → escrow execution) for
//! Orthrus and every baseline protocol.

use orthrus::prelude::*;

/// A small but non-trivial scenario used by most tests: 4 replicas, LAN,
/// mixed payment/contract workload with multi-payer transactions.
fn base_scenario(protocol: ProtocolKind, txs: usize, seed: u64) -> Scenario {
    let workload = WorkloadConfig {
        num_accounts: 64,
        num_transactions: txs,
        payment_share: 0.46,
        multi_payer_share: 0.1,
        num_shared_objects: 8,
        ..WorkloadConfig::small()
    };
    Scenario::new(protocol, NetworkKind::Lan, 4)
        .with_workload(workload)
        .with_seed(seed)
        .with_batch_size(64)
        .with_batch_timeout(Duration::from_millis(20))
}

fn run(scenario: &Scenario) -> ScenarioOutcome {
    run_scenario(scenario).expect("scenario must validate")
}

#[test]
fn liveness_every_protocol_confirms_the_whole_workload() {
    for protocol in ProtocolKind::ALL {
        let outcome = run(&base_scenario(protocol, 300, 1));
        assert_eq!(
            outcome.confirmed, outcome.submitted,
            "{protocol}: {}/{} confirmed",
            outcome.confirmed, outcome.submitted
        );
        assert!(outcome.throughput_ktps > 0.0, "{protocol}: zero throughput");
        assert!(outcome.avg_latency > Duration::ZERO);
    }
}

#[test]
fn safety_replica_states_agree_for_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let outcome = run(&base_scenario(protocol, 250, 2));
        assert_eq!(outcome.confirmed, outcome.submitted, "{protocol}");
        let first = outcome.state_digests[0].1;
        assert!(
            outcome.state_digests.iter().all(|(_, d)| *d == first),
            "{protocol}: replica states diverged: {:?}",
            outcome.state_digests
        );
    }
}

#[test]
fn runs_are_deterministic_for_a_fixed_seed() {
    let a = run(&base_scenario(ProtocolKind::Orthrus, 200, 3));
    let b = run(&base_scenario(ProtocolKind::Orthrus, 200, 3));
    assert_eq!(a.confirmed, b.confirmed);
    assert_eq!(a.avg_latency, b.avg_latency);
    assert_eq!(a.state_digests, b.state_digests);
    // A different seed gives a different (but still complete) run.
    let c = run(&base_scenario(ProtocolKind::Orthrus, 200, 4));
    assert_eq!(c.confirmed, c.submitted);
}

#[test]
fn orthrus_and_ladon_converge_to_the_same_final_balances() {
    // The same workload executed by two different protocols must produce the
    // same final object states: the hybrid fast path changes *when*
    // transactions confirm, never *what* they compute.
    let orthrus = run(&base_scenario(ProtocolKind::Orthrus, 250, 5));
    let ladon = run(&base_scenario(ProtocolKind::Ladon, 250, 5));
    assert_eq!(orthrus.confirmed, orthrus.submitted);
    assert_eq!(ladon.confirmed, ladon.submitted);
    assert_eq!(
        orthrus.state_digests[0].1, ladon.state_digests[0].1,
        "Orthrus and Ladon disagree on the final state"
    );
}

#[test]
fn payments_only_workload_avoids_global_ordering_in_orthrus() {
    let workload = WorkloadConfig {
        num_accounts: 64,
        num_transactions: 300,
        payment_share: 1.0,
        multi_payer_share: 0.1,
        num_shared_objects: 0,
        ..WorkloadConfig::small()
    };
    let mut scenario = Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, 4)
        .with_workload(workload)
        .with_seed(6);
    scenario.config.batch_size = 64;
    let outcome = run(&scenario);
    assert_eq!(outcome.confirmed, outcome.submitted);
    // Payments confirm straight from the partial logs, so the global-ordering
    // share of end-to-end latency is negligible.
    assert!(
        outcome.breakdown.global_ordering_share() < 0.05,
        "global ordering share was {:.3}",
        outcome.breakdown.global_ordering_share()
    );
}

#[test]
fn selfish_replicas_do_not_stop_confirmation() {
    // Undetectable fault (paper §VII-E): one replica only participates in the
    // instance it leads. With n = 4 and f = 1 the system still confirms
    // everything, just slower on the selfish replica's instances.
    let mut scenario = base_scenario(ProtocolKind::Orthrus, 200, 7);
    scenario.faults = FaultPlan::none().with_selfish(ReplicaId::new(3));
    let outcome = run(&scenario);
    assert_eq!(outcome.confirmed, outcome.submitted);
}

#[test]
fn crash_fault_triggers_view_change_and_recovery() {
    // Replica 0 crashes shortly after the run starts. It leads instance 0
    // and, under DQBFT, the ordering instance too. Its instances recover
    // through a view change and the workload still completes. The
    // view-change timeout is shortened so the test stays fast.
    for protocol in ProtocolKind::ALL {
        let mut scenario = base_scenario(protocol, 200, 8);
        scenario.config.view_change_timeout = Duration::from_secs(2);
        scenario.faults =
            FaultPlan::none().with_crash(ReplicaId::new(0), SimTime::from_millis(200));
        scenario.max_sim_time = Duration::from_secs(120);
        let outcome = run(&scenario);
        assert!(
            outcome.view_changes > 0,
            "{protocol}: expected at least one view change, got none"
        );
        assert_eq!(
            outcome.confirmed, outcome.submitted,
            "{protocol}: workload did not complete after the crash: {}/{}",
            outcome.confirmed, outcome.submitted
        );
    }
}

#[test]
fn wan_and_lan_models_produce_sane_relative_latencies() {
    let lan = run(&base_scenario(ProtocolKind::Orthrus, 150, 9));
    let mut wan_scenario = base_scenario(ProtocolKind::Orthrus, 150, 9);
    wan_scenario.network = NetworkKind::Wan;
    let wan = run(&wan_scenario);
    assert_eq!(lan.confirmed, lan.submitted);
    assert_eq!(wan.confirmed, wan.submitted);
    // WAN latency must be clearly higher than LAN latency for the same
    // protocol and workload.
    assert!(
        wan.avg_latency.as_secs_f64() > lan.avg_latency.as_secs_f64() * 1.5,
        "WAN {} vs LAN {}",
        wan.avg_latency,
        lan.avg_latency
    );
}
