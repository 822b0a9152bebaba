//! Workspace-level integration tests of the paper's qualitative claims at a
//! reduced scale (the full-scale sweeps are `orthrus run <name> --full`).

use orthrus::prelude::*;

fn wan_scenario(protocol: ProtocolKind, payment_share: f64, seed: u64) -> Scenario {
    let workload = WorkloadConfig {
        num_accounts: 128,
        num_transactions: 500,
        payment_share,
        multi_payer_share: 0.05,
        num_shared_objects: 16,
        ..WorkloadConfig::small()
    };
    Scenario::new(protocol, NetworkKind::Wan, 8)
        .with_workload(workload)
        .with_seed(seed)
        .with_batch_size(64)
        .with_batch_timeout(Duration::from_millis(50))
        .with_submission_window(Duration::from_secs(2))
}

fn run(scenario: &Scenario) -> ScenarioOutcome {
    run_scenario(scenario).expect("scenario must validate")
}

/// Claim (Fig. 3c/3d): with one straggler, Orthrus's latency is far below the
/// pre-determined protocols' latency and no worse than Ladon's.
#[test]
fn straggler_latency_ranking_matches_the_paper() {
    let orthrus = run(&wan_scenario(ProtocolKind::Orthrus, 0.46, 1).with_straggler());
    let ladon = run(&wan_scenario(ProtocolKind::Ladon, 0.46, 1).with_straggler());
    let iss = run(&wan_scenario(ProtocolKind::Iss, 0.46, 1).with_straggler());

    assert_eq!(orthrus.confirmed, orthrus.submitted);
    assert_eq!(ladon.confirmed, ladon.submitted);
    assert_eq!(iss.confirmed, iss.submitted);

    // Orthrus clearly beats the pre-determined ordering under a straggler…
    assert!(
        orthrus.avg_latency.as_secs_f64() < iss.avg_latency.as_secs_f64() * 0.8,
        "Orthrus {} vs ISS {}",
        orthrus.avg_latency,
        iss.avg_latency
    );
    // …and is no worse than Ladon (the payment fast path only removes work).
    assert!(
        orthrus.avg_latency.as_secs_f64() <= ladon.avg_latency.as_secs_f64() * 1.05,
        "Orthrus {} vs Ladon {}",
        orthrus.avg_latency,
        ladon.avg_latency
    );
}

/// Claim (Fig. 1b / Fig. 6): with a straggler, global ordering dominates
/// ISS's end-to-end latency but not Orthrus's.
#[test]
fn latency_breakdown_shows_global_ordering_dominates_iss_not_orthrus() {
    let orthrus = run(&wan_scenario(ProtocolKind::Orthrus, 0.46, 2).with_straggler());
    let iss = run(&wan_scenario(ProtocolKind::Iss, 0.46, 2).with_straggler());
    let orthrus_share = orthrus.breakdown.global_ordering_share();
    let iss_share = iss.breakdown.global_ordering_share();
    assert!(
        iss_share > orthrus_share,
        "ISS global-ordering share {iss_share:.2} should exceed Orthrus's {orthrus_share:.2}"
    );
    assert!(
        iss_share > 0.3,
        "ISS global ordering share with a straggler should be substantial, got {iss_share:.2}"
    );
}

/// Claim (Fig. 5): raising the payment share lowers Orthrus's latency,
/// especially with a straggler.
#[test]
fn higher_payment_share_reduces_orthrus_latency_under_straggler() {
    let low = run(&wan_scenario(ProtocolKind::Orthrus, 0.0, 3).with_straggler());
    let high = run(&wan_scenario(ProtocolKind::Orthrus, 1.0, 3).with_straggler());
    assert_eq!(low.confirmed, low.submitted);
    assert_eq!(high.confirmed, high.submitted);
    assert!(
        high.avg_latency < low.avg_latency,
        "100% payments {} should beat 0% payments {}",
        high.avg_latency,
        low.avg_latency
    );
}

/// Claim (Fig. 3a/3b): without stragglers all protocols complete the workload
/// and Orthrus is competitive (its latency is within the range of the
/// baselines, never the worst).
#[test]
fn no_straggler_orthrus_is_competitive() {
    let mut latencies = Vec::new();
    for protocol in ProtocolKind::ALL {
        let outcome = run(&wan_scenario(protocol, 0.46, 4));
        assert_eq!(outcome.confirmed, outcome.submitted, "{protocol}");
        latencies.push((protocol, outcome.avg_latency));
    }
    let orthrus = latencies
        .iter()
        .find(|(p, _)| *p == ProtocolKind::Orthrus)
        .unwrap()
        .1;
    let worst = latencies.iter().map(|(_, l)| *l).max().unwrap();
    assert!(
        orthrus < worst || latencies.iter().all(|(_, l)| *l == worst),
        "Orthrus should not be the single worst protocol without stragglers: {latencies:?}"
    );
}
