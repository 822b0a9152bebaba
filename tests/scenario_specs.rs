//! Tests for the declarative experiment layer (`orthrus-lab`):
//!
//! * **Golden files** — every checked-in `scenarios/*.orth` parses, matches
//!   its file stem, survives an exact serialize/parse round trip, and lowers
//!   to valid scenarios at both scales.
//! * **Round-trip property** — `parse ∘ serialize = id` over randomized
//!   specs (seeded loop).
//! * **Differential** — the registry-lowered figure grids are *exactly* the
//!   scenarios the pre-redesign hand-rolled bench literals produced, and the
//!   fig3 grid produces bit-identical `ScenarioOutcome`s (state digests,
//!   reports) when run from specs versus literals. The outcome comparison
//!   runs on `run_scenarios`' env-configured pool, so CI pins it at
//!   `ORTHRUS_SWEEP_THREADS ∈ {1, 4}`.

use orthrus::prelude::*;
use orthrus_core::run_scenarios;
use orthrus_lab::{parse, registry, serialize, Axis, AxisKey, AxisValues, Params, Spec, SpecScale};
use orthrus_types::rng::{Rng, StdRng};

// ----------------------------------------------------------------------
// Golden files
// ----------------------------------------------------------------------

fn scenarios_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

#[test]
fn every_checked_in_spec_is_registered_and_golden() {
    let mut on_disk = 0;
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ directory") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("orth") {
            continue;
        }
        on_disk += 1;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 stem")
            .to_string();
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let registered = registry::find(&stem)
            .unwrap_or_else(|| panic!("{stem}.orth is not in the embedded registry"));
        assert_eq!(
            registered.source, text,
            "{stem}: embedded registry source drifted from the file on disk"
        );

        let spec = parse(&text).unwrap_or_else(|err| panic!("{stem}: {err}"));
        assert_eq!(spec.name(), stem, "spec name must match the file stem");
        assert!(
            spec.title().is_some(),
            "{stem}: checked-in specs carry titles"
        );

        // Exact round trip at the data-model level.
        let reparsed = parse(&serialize(&spec)).unwrap_or_else(|err| panic!("{stem}: {err}"));
        assert_eq!(spec, reparsed, "{stem}: serialize/parse round trip drifted");

        // Lowers to valid scenarios at both scales.
        let points = spec.lint().unwrap_or_else(|err| panic!("{stem}: {err}"));
        assert!(points >= 1, "{stem}: empty grid");
    }
    assert_eq!(
        on_disk,
        registry::ENTRIES.len(),
        "scenarios/ and the registry must list the same specs"
    );
}

#[test]
fn quickstart_spec_matches_the_quickstart_example() {
    // The checked-in quickstart spec and examples/quickstart.rs must be the
    // same run.
    let spec = registry::find("quickstart").unwrap().spec().unwrap();
    let lowered = spec.lower(SpecScale::Reduced).unwrap();
    assert_eq!(lowered.len(), 1);
    let from_builder = Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, 4)
        .with_workload(
            WorkloadConfig::small()
                .with_transactions(1_000)
                .with_payment_share(0.46),
        )
        .with_seed(1);
    assert_eq!(lowered[0].scenario, from_builder);
    assert_eq!(lowered[0].scenario.effective_workload().seed, 1);
}

// ----------------------------------------------------------------------
// Round-trip property (seeded loop)
// ----------------------------------------------------------------------

fn random_params(rng: &mut StdRng, protocol_required: bool) -> Params {
    let mut params = Params::default();
    let protocols = ProtocolKind::ALL;
    if protocol_required || rng.gen_bool(0.7) {
        params.protocol = Some(protocols[rng.gen_range(0..6) as usize]);
    }
    params.network = Some(if rng.gen_bool(0.5) {
        NetworkKind::Lan
    } else {
        NetworkKind::Wan
    });
    params.replicas = Some(rng.gen_range(4..64) as u32);
    if rng.gen_bool(0.5) {
        params.clients = Some(rng.gen_range(1..16));
    }
    if rng.gen_bool(0.5) {
        params.seed = Some(rng.gen_range(0..u64::MAX / 2));
    }
    if rng.gen_bool(0.5) {
        params.batch_size = Some(rng.gen_range(1..5000) as usize);
    }
    if rng.gen_bool(0.4) {
        params.batch_timeout_ms = Some(rng.gen_range(1..1000));
    }
    if rng.gen_bool(0.3) {
        params.view_change_timeout_ms = Some(rng.gen_range(1000..20000));
    }
    if rng.gen_bool(0.3) {
        params.max_inflight_blocks = Some(rng.gen_range(1..32));
    }
    if rng.gen_bool(0.6) {
        params.accounts = Some(rng.gen_range(2..100_000));
    }
    if rng.gen_bool(0.6) {
        params.transactions = Some(rng.gen_range(1..500_000) as usize);
    }
    if rng.gen_bool(0.6) {
        params.payment_share = Some(rng.gen_range(0.0..1.0));
    }
    if rng.gen_bool(0.4) {
        params.multi_payer_share = Some(rng.gen_range(0.0..1.0));
    }
    if rng.gen_bool(0.4) {
        params.shared_objects = Some(rng.gen_range(0..1000));
    }
    if rng.gen_bool(0.4) {
        params.zipf_exponent = Some(rng.gen_range(0.0..2.0));
    }
    if rng.gen_bool(0.3) {
        params.payload_bytes = Some(rng.gen_range(1..4096) as u32);
    }
    if rng.gen_bool(0.2) {
        params.initial_balance = Some(rng.gen_range(1..10_000_000));
    }
    if rng.gen_bool(0.2) {
        params.max_transfer = Some(rng.gen_range(1..1000));
    }
    if rng.gen_bool(0.4) {
        params.submission_window_ms = Some(rng.gen_range(1..60_000));
    }
    if rng.gen_bool(0.4) {
        params.max_sim_time_ms = Some(rng.gen_range(1..600_000));
    }
    if rng.gen_bool(0.4) {
        let all = StopCondition::DEFAULT;
        let count = rng.gen_range(1..=3) as usize;
        params.stop = Some(all[..count].to_vec());
    }
    if rng.gen_bool(0.4) {
        let count = rng.gen_range(1..=3);
        params.stragglers = Some(
            (0..count)
                .map(|_| (rng.gen_range(0..32) as u32, rng.gen_range(0.5..20.0)))
                .collect(),
        );
    }
    if rng.gen_bool(0.3) {
        let count = rng.gen_range(1..=3);
        params.crashes = Some(
            (0..count)
                .map(|_| (rng.gen_range(0..32) as u32, rng.gen_range(0..60_000)))
                .collect(),
        );
    }
    if rng.gen_bool(0.3) {
        let count = rng.gen_range(1..=3);
        params.selfish = Some((0..count).map(|_| rng.gen_range(0..32) as u32).collect());
    }
    if rng.gen_bool(0.2) {
        params.crash_count = Some(rng.gen_range(0..5) as u32);
    }
    if rng.gen_bool(0.2) {
        params.crash_at_ms = Some(rng.gen_range(0..30_000));
    }
    if rng.gen_bool(0.2) {
        params.selfish_count = Some(rng.gen_range(0..5) as u32);
    }
    if rng.gen_bool(0.3) {
        params.label = Some(format!("series_{}", rng.gen_range(0..100)));
    }
    if rng.gen_bool(0.3) {
        params.x = Some(rng.gen_range(0.0..128.0));
    }
    params
}

fn random_axis(rng: &mut StdRng, key: AxisKey) -> Axis {
    let count = rng.gen_range(1..=5) as usize;
    let values = match key {
        AxisKey::Protocol => AxisValues::Protocols(
            (0..count)
                .map(|_| ProtocolKind::ALL[rng.gen_range(0..6) as usize])
                .collect(),
        ),
        AxisKey::ZipfExponent => {
            AxisValues::Floats((0..count).map(|_| rng.gen_range(0.0..2.0)).collect())
        }
        _ => AxisValues::Ints((0..count).map(|_| rng.gen_range(0..200)).collect()),
    };
    Axis { key, values }
}

#[test]
fn randomized_specs_round_trip_exactly() {
    for seed in 0u64..200 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0A7B_5EED);
        let spec = if rng.gen_bool(0.5) {
            Spec::Scenario(orthrus_lab::ScenarioSpec {
                name: format!("spec_{seed}"),
                title: rng
                    .gen_bool(0.5)
                    .then(|| format!("Random spec #{seed} — with punctuation, commas")),
                params: random_params(&mut rng, false),
            })
        } else {
            // Pick a random non-empty subset of axes, in random-but-unique
            // order.
            let mut keys = AxisKey::ALL.to_vec();
            // Fisher-Yates with the deterministic rng.
            for i in (1..keys.len()).rev() {
                let j = rng.gen_range(0..(i as u64 + 1)) as usize;
                keys.swap(i, j);
            }
            let axis_count = rng.gen_range(1..=4) as usize;
            let axes: Vec<Axis> = keys[..axis_count]
                .iter()
                .map(|&key| random_axis(&mut rng, key))
                .collect();
            let x_axis = axes.iter().map(|a| a.key).find(|&k| k != AxisKey::Protocol);
            let full_scale = if rng.gen_bool(0.5) {
                vec![
                    (
                        "transactions".to_string(),
                        format!("{}", rng.gen_range(1..1_000_000)),
                    ),
                    ("replicas".to_string(), "8, 16, 32".to_string()),
                ]
            } else {
                Vec::new()
            };
            Spec::Sweep(orthrus_lab::SweepSpec {
                name: format!("sweep_{seed}"),
                title: rng.gen_bool(0.5).then(|| format!("Random sweep #{seed}")),
                x_axis,
                base: random_params(&mut rng, false),
                axes,
                full_scale,
            })
        };
        let text = serialize(&spec);
        let reparsed = parse(&text)
            .unwrap_or_else(|err| panic!("seed {seed}: canonical form rejected: {err}\n{text}"));
        assert_eq!(spec, reparsed, "seed {seed}: round trip drifted\n{text}");
    }
}

/// Keys that went with what they selected — the calendar queue, the windowed
/// engine, the parallel plog executors (and their boolean shorthand), and
/// the switch that turned checkpoint truncation off. A spec that still sets
/// one must fail loudly, not run as something other than what it names.
#[test]
fn removed_queue_key_is_rejected_with_its_line() {
    for (key, value) in [
        ("queue", "calendar"),
        ("engine_mode", "parallel"),
        ("parallel_execution", "true"),
        ("execution_mode", "stm"),
        ("checkpoint_gc", "false"),
    ] {
        let text = format!(
            "kind = scenario\nname = stale\n\n[scenario]\nprotocol = orthrus\n\
             network = lan\nreplicas = 4\n{key} = {value}\n"
        );
        let err = parse(&text).expect_err("removed keys are no longer parameters");
        assert_eq!(err.line, Some(8));
        assert_eq!(err.msg, format!("unknown parameter {key:?}"));
    }
}

// ----------------------------------------------------------------------
// Differential: registry grids versus the pre-redesign bench literals
// ----------------------------------------------------------------------

/// Scale knobs of the pre-redesign `BenchScale` (frozen copies — the point
/// of this module is to pin today's registry against *yesterday's* code).
#[derive(Clone, Copy, PartialEq)]
enum FrozenScale {
    Reduced,
    Full,
}

impl FrozenScale {
    fn replica_counts(self) -> Vec<u32> {
        match self {
            FrozenScale::Reduced => vec![4, 8, 16],
            FrozenScale::Full => vec![8, 16, 32, 64, 128],
        }
    }
    fn transactions(self) -> usize {
        match self {
            FrozenScale::Reduced => 2_000,
            FrozenScale::Full => 200_000,
        }
    }
    fn accounts(self) -> u64 {
        match self {
            FrozenScale::Reduced => 2_000,
            FrozenScale::Full => 18_000,
        }
    }
    fn batch_size(self) -> usize {
        match self {
            FrozenScale::Reduced => 256,
            FrozenScale::Full => 4_096,
        }
    }
    fn fixed_replicas(self) -> u32 {
        match self {
            FrozenScale::Reduced => 8,
            FrozenScale::Full => 16,
        }
    }
    fn spec_scale(self) -> SpecScale {
        match self {
            FrozenScale::Reduced => SpecScale::Reduced,
            FrozenScale::Full => SpecScale::Full,
        }
    }
}

/// A frozen copy of the pre-redesign `harness::paper_scenario` literal.
fn frozen_paper_scenario(
    protocol: ProtocolKind,
    network: NetworkKind,
    replicas: u32,
    payment_share: f64,
    straggler: bool,
    scale: FrozenScale,
) -> Scenario {
    let workload = WorkloadConfig {
        num_accounts: scale.accounts(),
        num_transactions: scale.transactions(),
        payment_share,
        multi_payer_share: 0.05,
        num_shared_objects: 256,
        ..WorkloadConfig::default()
    };
    let mut scenario = Scenario::new(protocol, network, replicas)
        .with_workload(workload)
        .with_seed(42);
    scenario.config.batch_size = scale.batch_size();
    scenario.config.batch_timeout = Duration::from_millis(50);
    scenario.submission_window = Duration::from_secs(5);
    scenario.max_sim_time = Duration::from_secs(600);
    scenario.num_clients = 8;
    if straggler {
        scenario.faults = FaultPlan::one_straggler(ReplicaId::new(0));
    }
    scenario
}

/// The pre-redesign fig3/fig4 grid loop, frozen as data:
/// `(label, x, scenario)` triples in bench emission order.
fn frozen_replica_grid(
    network: NetworkKind,
    straggler: bool,
    scale: FrozenScale,
) -> Vec<(String, f64, Scenario)> {
    let mut grid = Vec::new();
    for &n in &scale.replica_counts() {
        for protocol in ProtocolKind::ALL {
            grid.push((
                protocol.label().to_string(),
                f64::from(n),
                frozen_paper_scenario(protocol, network, n, 0.46, straggler, scale),
            ));
        }
    }
    grid
}

fn assert_grid_matches(name: &str, scale: FrozenScale, frozen: &[(String, f64, Scenario)]) {
    let spec = registry::find(name)
        .unwrap_or_else(|| panic!("missing registry entry {name}"))
        .spec()
        .unwrap_or_else(|err| panic!("{name}: {err}"));
    let lowered = spec
        .lower(scale.spec_scale())
        .unwrap_or_else(|err| panic!("{name}: {err}"));
    assert_eq!(
        lowered.len(),
        frozen.len(),
        "{name}: grid size diverged from the pre-redesign loop"
    );
    for (point, (label, x, scenario)) in lowered.iter().zip(frozen) {
        assert_eq!(&point.label, label, "{name}: label order diverged");
        assert_eq!(point.x, *x, "{name}: x order diverged");
        assert_eq!(
            &point.scenario, scenario,
            "{name}: scenario diverged for {label} at x={x}"
        );
    }
}

/// Figures 3 and 4 (both straggler variants, both scales): the registry
/// lowers to *exactly* the scenarios the hand-rolled bench loops produced.
#[test]
fn fig3_and_fig4_registry_grids_equal_the_pre_redesign_literals() {
    for scale in [FrozenScale::Reduced, FrozenScale::Full] {
        assert_grid_matches(
            "fig3ab_wan_no_straggler",
            scale,
            &frozen_replica_grid(NetworkKind::Wan, false, scale),
        );
        assert_grid_matches(
            "fig3cd_wan_straggler",
            scale,
            &frozen_replica_grid(NetworkKind::Wan, true, scale),
        );
        assert_grid_matches(
            "fig4ab_lan_no_straggler",
            scale,
            &frozen_replica_grid(NetworkKind::Lan, false, scale),
        );
        assert_grid_matches(
            "fig4cd_lan_straggler",
            scale,
            &frozen_replica_grid(NetworkKind::Lan, true, scale),
        );
    }
}

/// Figures 5–8 and the four ablations (both scales): same equality,
/// mirroring each pre-redesign bench loop.
#[test]
fn fig5_to_fig8_and_ablation_grids_equal_the_pre_redesign_literals() {
    for scale in [FrozenScale::Reduced, FrozenScale::Full] {
        fixed_size_grids_match(scale);
    }
}

fn fixed_size_grids_match(scale: FrozenScale) {
    let replicas = scale.fixed_replicas();

    // fig5 (both variants): payment-share sweep.
    for (name, straggler) in [
        ("fig5_payment_share_no_straggler", false),
        ("fig5_payment_share_straggler", true),
    ] {
        let frozen: Vec<_> = [0u32, 20, 40, 60, 80, 100]
            .into_iter()
            .map(|pct| {
                (
                    "Orthrus".to_string(),
                    f64::from(pct),
                    frozen_paper_scenario(
                        ProtocolKind::Orthrus,
                        NetworkKind::Wan,
                        replicas,
                        f64::from(pct) / 100.0,
                        straggler,
                        scale,
                    ),
                )
            })
            .collect();
        assert_grid_matches(name, scale, &frozen);
    }

    // fig6: Orthrus vs ISS with a straggler.
    let frozen: Vec<_> = [ProtocolKind::Orthrus, ProtocolKind::Iss]
        .into_iter()
        .map(|protocol| {
            (
                protocol.label().to_string(),
                f64::from(replicas),
                frozen_paper_scenario(protocol, NetworkKind::Wan, replicas, 0.46, true, scale),
            )
        })
        .collect();
    assert_grid_matches("fig6_latency_breakdown", scale, &frozen);

    // fig7: crash-fault timelines (faults on replicas 1..=k at t = 9 s).
    let frozen: Vec<_> = [0u32, 1, 5.min(replicas / 3)]
        .into_iter()
        .map(|faults| {
            let mut scenario = frozen_paper_scenario(
                ProtocolKind::Orthrus,
                NetworkKind::Wan,
                replicas,
                0.46,
                false,
                scale,
            );
            scenario.submission_window = Duration::from_secs(25);
            scenario.max_sim_time = Duration::from_secs(120);
            scenario.config.view_change_timeout = Duration::from_secs(10);
            let mut plan = FaultPlan::none();
            for f in 0..faults {
                plan = plan.with_crash(ReplicaId::new(1 + f), SimTime::from_secs(9));
            }
            scenario.faults = plan;
            ("Orthrus".to_string(), f64::from(faults), scenario)
        })
        .collect();
    assert_grid_matches("fig7_fault_timeline", scale, &frozen);

    // fig8: selfish replicas from the tail, 0..=f.
    let max_faulty = (replicas - 1) / 3;
    let frozen: Vec<_> = (0..=max_faulty)
        .map(|faulty| {
            let mut scenario = frozen_paper_scenario(
                ProtocolKind::Orthrus,
                NetworkKind::Wan,
                replicas,
                0.46,
                false,
                scale,
            );
            let mut plan = FaultPlan::none();
            for f in 0..faulty {
                plan = plan.with_selfish(ReplicaId::new(replicas - 1 - f));
            }
            scenario.faults = plan;
            ("Orthrus".to_string(), f64::from(faulty), scenario)
        })
        .collect();
    assert_grid_matches("fig8_undetectable_faults", scale, &frozen);

    // Ablation A: payment fast path (share × {Orthrus, Ladon}, straggler).
    let mut frozen = Vec::new();
    for share_pct in [20u32, 60, 100] {
        for protocol in [ProtocolKind::Orthrus, ProtocolKind::Ladon] {
            frozen.push((
                protocol.label().to_string(),
                f64::from(share_pct),
                frozen_paper_scenario(
                    protocol,
                    NetworkKind::Wan,
                    replicas,
                    f64::from(share_pct) / 100.0,
                    true,
                    scale,
                ),
            ));
        }
    }
    assert_grid_matches("ablation_fast_path", scale, &frozen);

    // Ablation B: global ordering policy under a straggler.
    let frozen: Vec<_> = [ProtocolKind::Ladon, ProtocolKind::Iss, ProtocolKind::Dqbft]
        .into_iter()
        .map(|protocol| {
            (
                protocol.label().to_string(),
                f64::from(replicas),
                frozen_paper_scenario(protocol, NetworkKind::Wan, replicas, 0.46, true, scale),
            )
        })
        .collect();
    assert_grid_matches("ablation_global_ordering", scale, &frozen);

    // Ablation C: multi-payer share, payments only.
    let frozen: Vec<_> = [0u32, 10, 30, 50]
        .into_iter()
        .map(|pct| {
            let mut scenario = frozen_paper_scenario(
                ProtocolKind::Orthrus,
                NetworkKind::Wan,
                replicas,
                1.0,
                false,
                scale,
            );
            scenario.workload.multi_payer_share = f64::from(pct) / 100.0;
            ("Orthrus".to_string(), f64::from(pct), scenario)
        })
        .collect();
    assert_grid_matches("ablation_multi_payer", scale, &frozen);

    // Ablation D: hot-account skew, payments only, LAN.
    let frozen: Vec<_> = [8u32, 12, 14]
        .into_iter()
        .map(|tenths| {
            let exponent = f64::from(tenths) / 10.0;
            let mut scenario = frozen_paper_scenario(
                ProtocolKind::Orthrus,
                NetworkKind::Lan,
                replicas,
                1.0,
                false,
                scale,
            );
            scenario.workload = scenario.workload.clone().with_zipf_exponent(exponent);
            ("Orthrus".to_string(), exponent, scenario)
        })
        .collect();
    assert_grid_matches("ablation_hot_account", scale, &frozen);
}

/// A compact fingerprint of everything a run could plausibly perturb.
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

/// End-to-end differential: running the registry-lowered fig3 straggler grid
/// produces bit-identical outcomes (state digests, reports, latencies) to
/// running the pre-redesign literals. Both sides are trimmed identically to
/// keep the test fast — the trim cannot mask a divergence because it is the
/// same mutation on both sides. `run_scenarios` takes its worker count from
/// `ORTHRUS_SWEEP_THREADS`; CI runs this at 1 and 4 workers.
#[test]
fn fig3_spec_runs_are_bit_identical_to_literal_runs() {
    let trim = |mut scenario: Scenario| {
        scenario.workload.num_transactions = 240;
        scenario.workload.num_accounts = 128;
        scenario.workload.num_shared_objects = 16;
        scenario.submission_window = Duration::from_secs(1);
        scenario
    };

    let spec = registry::find("fig3cd_wan_straggler")
        .unwrap()
        .spec()
        .unwrap();
    let from_spec: Vec<Scenario> = spec
        .lower(SpecScale::Reduced)
        .unwrap()
        .into_iter()
        .filter(|point| point.x <= 8.0) // 4- and 8-replica points
        .map(|point| trim(point.scenario))
        .collect();
    let from_literals: Vec<Scenario> =
        frozen_replica_grid(NetworkKind::Wan, true, FrozenScale::Reduced)
            .into_iter()
            .filter(|(_, x, _)| *x <= 8.0)
            .map(|(_, _, scenario)| trim(scenario))
            .collect();
    assert_eq!(from_spec.len(), 12, "2 replica counts × 6 protocols");
    assert_eq!(
        from_spec, from_literals,
        "lowered scenarios must be identical"
    );

    let spec_outcomes = run_scenarios(&from_spec).expect("spec grid runs");
    let literal_outcomes = run_scenarios(&from_literals).expect("literal grid runs");
    for ((a, b), scenario) in spec_outcomes.iter().zip(&literal_outcomes).zip(&from_spec) {
        let context = format!(
            "{} at {} replicas",
            scenario.protocol, scenario.config.num_replicas
        );
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "{context}: outcome diverged"
        );
        assert_eq!(a.avg_latency, b.avg_latency, "{context}: latency diverged");
        assert_eq!(
            a.state_digests, b.state_digests,
            "{context}: digests diverged"
        );
        assert_eq!(a.report, b.report, "{context}: report diverged");
    }
}
