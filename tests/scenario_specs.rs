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

#![allow(
    clippy::disallowed_methods,
    reason = "a test outside any simulation: its fixed seeds and iteration feed no digest"
)]
use orthrus::prelude::*;
use orthrus_core::run_scenarios;
use orthrus_lab::{parse, registry, serialize, SpecScale};
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
// Lowering pin
// ----------------------------------------------------------------------

/// FNV-1a over each point's label, the bits of its x and every `Scenario`
/// field a spec key can set. `ProtocolConfig` fields no key reaches are left
/// out, so the pin does not move when such a field is added or removed.
fn lowering_digest(points: &[orthrus_lab::LoweredPoint]) -> u64 {
    let mut text = String::new();
    for p in points {
        let (s, c) = (&p.scenario, &p.scenario.config);
        let config = (c.num_replicas, c.num_instances, c.batch_size);
        let timing = (
            c.batch_timeout,
            c.view_change_timeout,
            c.max_inflight_blocks,
        );
        let run = (
            c.num_client_actors,
            s.seed,
            s.submission_window,
            s.max_sim_time,
        );
        text.push_str(&format!(
            "{}|{}|{:?}|{:?}|{config:?}|{timing:?}|{run:?}|{:?}|{:?}|{:?}\n",
            p.label,
            p.x.to_bits(),
            s.protocol,
            s.network,
            s.workload,
            s.stop,
            s.faults
        ));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `spec reduced-digest full-digest`, one line per registry spec and then
/// per benchmark workload, recorded before the key table replaced the typed
/// parameter model.
const LOWERING_PINS: &str = "\
quickstart 9b364204156a4631 9b364204156a4631
fig3_smoke 4e24816105a07d18 4e24816105a07d18
fig3ab_wan_no_straggler fb6513b0c7b79817 5e9949d3720a68ed
fig3cd_wan_straggler 74372514f363cabd b1adf3f3a8e2eb07
fig4ab_lan_no_straggler 2bd42def24947dd7 52a4d033e871713d
fig4cd_lan_straggler 9c8c5746465777d7 eae784aef8ecec8d
fig5_payment_share_no_straggler 6f3b80ad5d7f0cde 60ffecf84b2b6566
fig5_payment_share_straggler 3a9325c34b847780 a8fa909b072a0006
fig6_latency_breakdown 3bcb24720d354e41 8a4cffbaacdeed05
fig7_fault_timeline 510802e13491ffbc 48bd0d02488325da
fig8_undetectable_faults 43175a0e9adae8ee ea0766e2140f2242
ablation_fast_path f402199dc34932ab e3ba1a465e5d6905
ablation_global_ordering 7e65238c6d0b3424 299acac5287048de
ablation_multi_payer ff536e9d692b9e01 0bbdaadf5ea92d21
ablation_hot_account 8886d4b6cd839fe5 f6027c306c5ba772
ablation_inflight a61452c9f2a49f13 efa9799b5af62aa6
recovery_smoke c5dcb837160fec39 c5dcb837160fec39
recovery_protocols b55237a2946973a1 93427ec36f04fb2d
lan_contracts_sat cc751744894ebfc7 cc751744894ebfc7
lan_payments_sat f84a233d34647e8c f84a233d34647e8c
smoke aa170d78a72d9cc1 aa170d78a72d9cc1
wan_fanout_n32 ef8ec2c1c46ebdec ef8ec2c1c46ebdec
wan_straggler_n16 013941d7dc445a1c 013941d7dc445a1c
";

/// Every registry spec and every benchmark workload (read only) lowers, at
/// both scales, to the points it lowered to when the pins were recorded.
#[test]
fn lowering_matches_the_pinned_digests() {
    let workloads = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/workloads");
    let mut files: Vec<_> = std::fs::read_dir(workloads)
        .expect("benchmark/workloads")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    files.sort();
    let registry = registry::ENTRIES
        .iter()
        .map(|entry| (entry.name.to_string(), entry.source.to_string()));
    let benchmark = files.iter().map(|path| {
        let name = path.file_stem().and_then(|s| s.to_str()).expect("stem");
        (
            name.to_string(),
            std::fs::read_to_string(path).expect("spec"),
        )
    });
    let mut actual = String::new();
    for (name, text) in registry.chain(benchmark) {
        let spec = parse(&text).unwrap_or_else(|err| panic!("{name}: {err}"));
        let [reduced, full] = [SpecScale::Reduced, SpecScale::Full].map(|scale| {
            let points = spec.lower(scale);
            lowering_digest(&points.unwrap_or_else(|err| panic!("{name}: {err}")))
        });
        actual.push_str(&format!("{name} {reduced:016x} {full:016x}\n"));
    }
    assert_eq!(actual, LOWERING_PINS, "lowering moved; now:\n{actual}");
}

// ----------------------------------------------------------------------
// Round-trip property (seeded loop)
// ----------------------------------------------------------------------

/// Every key a `[scenario]` / `[base]` section takes.
const BASE_KEYS: &str = "protocol network replicas clients seed batch_size batch_timeout_ms \
    view_change_timeout_ms max_inflight_blocks accounts transactions payment_share \
    multi_payer_share shared_objects zipf_exponent payload_bytes initial_balance max_transfer \
    submission_window_ms max_sim_time_ms stop stragglers crashes crash_recover selfish \
    crash_count crash_at_ms selfish_count label x";

/// Every key an `[axes]` section takes.
const AXIS_KEYS: &str = "protocol replicas seed payment_share_pct multi_payer_pct crash_count \
    selfish_count zipf_exponent max_inflight_blocks";

/// A random valid value (or axis item) for `key`.
fn random_value(rng: &mut StdRng, key: &str) -> String {
    let list = |rng: &mut StdRng, item: &dyn Fn(&mut StdRng) -> String| {
        let count = rng.gen_range(1..=3);
        let items: Vec<String> = (0..count).map(|_| item(rng)).collect();
        items.join(", ")
    };
    match key {
        "protocol" => ProtocolKind::ALL[rng.gen_range(0..6) as usize]
            .name()
            .to_string(),
        "network" => ["lan", "wan"][rng.gen_range(0..2) as usize].to_string(),
        "replicas" => rng.gen_range(4..64).to_string(),
        "clients" => rng.gen_range(1..16).to_string(),
        "seed" => rng.gen_range(0..u64::MAX / 2).to_string(),
        "batch_size" => rng.gen_range(1..5000).to_string(),
        "payment_share" | "multi_payer_share" => rng.gen_range(0.0..1.0).to_string(),
        "payment_share_pct" | "multi_payer_pct" => rng.gen_range(0..=100).to_string(),
        "zipf_exponent" => rng.gen_range(0.0..2.0).to_string(),
        "x" => rng.gen_range(0.0..128.0).to_string(),
        "crash_count" | "selfish_count" => rng.gen_range(0..4).to_string(),
        "stop" => {
            let names: Vec<&str> = StopCondition::DEFAULT[..rng.gen_range(1..=3) as usize]
                .iter()
                .map(|c| c.name())
                .collect();
            names.join(", ")
        }
        "stragglers" => list(rng, &|rng| {
            format!("{}x{}", rng.gen_range(0..32), rng.gen_range(0.5..20.0))
        }),
        "crashes" => list(rng, &|rng| {
            format!("{}@{}", rng.gen_range(0..32), rng.gen_range(0..60_000))
        }),
        "crash_recover" => list(rng, &|rng| {
            let crash = rng.gen_range(0..30_000);
            let recover = crash + rng.gen_range(1..30_000);
            format!("{}@{crash}..{recover}", rng.gen_range(0..32))
        }),
        "selfish" => list(rng, &|rng| rng.gen_range(0..32).to_string()),
        "label" => format!("series_{}", rng.gen_range(0..100)),
        _ => rng.gen_range(1..100_000).to_string(),
    }
}

/// The words of `keys` in a random order, keeping `network` and `replicas`
/// (no point lowers without them) and each other word with probability `keep`.
fn random_subset(rng: &mut StdRng, keys: &'static str, keep: f64) -> Vec<&'static str> {
    let mut keys: Vec<&str> = keys.split_whitespace().collect();
    for i in (1..keys.len()).rev() {
        let j = rng.gen_range(0..(i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    keys.retain(|key| matches!(*key, "network" | "replicas") || rng.gen_bool(keep));
    keys
}

/// Specs written from random valid entries of every key, in random order,
/// survive `parse ∘ serialize` exactly and lower to the same points.
#[test]
fn randomized_specs_round_trip_exactly() {
    let mut lowered = 0;
    for seed in 0u64..200 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0A7B_5EED);
        let sweep = rng.gen_bool(0.5);
        let mut text = format!(
            "kind = {}\nname = spec_{seed}\n",
            if sweep { "sweep" } else { "scenario" }
        );
        if rng.gen_bool(0.5) {
            text.push_str(&format!(
                "title = Random spec #{seed} — with punctuation, commas\n"
            ));
        }
        let axes = if sweep {
            let mut axes = random_subset(&mut rng, AXIS_KEYS, 1.0);
            axes.truncate(rng.gen_range(1..=4) as usize);
            if let Some(x_axis) = axes.iter().find(|&&key| key != "protocol") {
                text.push_str(&format!("x_axis = {x_axis}\n"));
            }
            axes
        } else {
            Vec::new()
        };
        text.push_str(if sweep {
            "\n[base]\n"
        } else {
            "\n[scenario]\n"
        });
        for key in random_subset(&mut rng, BASE_KEYS, 0.4) {
            let value = random_value(&mut rng, key);
            text.push_str(&format!("{key} = {value}\n"));
        }
        if sweep {
            text.push_str("\n[axes]\n");
            for key in &axes {
                let items = if *key == "seed" && rng.gen_bool(0.5) {
                    let start = rng.gen_range(0..100);
                    format!("{start}..={}", start + rng.gen_range(0..4))
                } else {
                    let count = rng.gen_range(1..=4);
                    let items: Vec<String> =
                        (0..count).map(|_| random_value(&mut rng, key)).collect();
                    items.join(", ")
                };
                text.push_str(&format!("{key} = {items}\n"));
            }
            if rng.gen_bool(0.5) {
                text.push_str("\n[full_scale]\n");
                text.push_str(&format!("transactions = {}\n", rng.gen_range(1..1_000_000)));
                let key = axes[rng.gen_range(0..axes.len() as u64) as usize];
                text.push_str(&format!("{key} = {}\n", random_value(&mut rng, key)));
            }
        }

        let spec = parse(&text).unwrap_or_else(|err| panic!("seed {seed}: {err}\n{text}"));
        let canonical = serialize(&spec);
        let reparsed = parse(&canonical).unwrap_or_else(|err| {
            panic!("seed {seed}: canonical form rejected: {err}\n{canonical}")
        });
        assert_eq!(spec, reparsed, "seed {seed}: round trip drifted\n{text}");
        for scale in [SpecScale::Reduced, SpecScale::Full] {
            let points = spec.lower(scale);
            assert_eq!(
                points,
                reparsed.lower(scale),
                "seed {seed}: lowering drifted"
            );
            lowered += usize::from(points.is_ok());
        }
    }
    assert!(lowered > 100, "only {lowered} of 400 lowerings succeeded");
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
    scenario.config.num_client_actors = 8;
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

/// Every per-transaction table of a run (stats, client tallies, buckets,
/// executor, reply sets) is slot-indexed by the run's `TxTable`; an id
/// outside it would fall back to the hashed overflow and be counted. Run
/// every registry spec's reduced points with up to 8 replicas and check
/// that no id missed. Each point keeps its protocol, network and faults,
/// but runs at most 200 transactions and stops once they are all
/// confirmed: which ids reach a table depends on the paths a point
/// exercises, not on its size, and the full grid takes minutes in a test
/// build (the 16-replica points and the digest-quiesce drain, ROADMAP
/// item 8).
#[test]
fn registry_points_never_overflow_the_transaction_table() {
    let mut names = Vec::new();
    let mut scenarios = Vec::new();
    for entry in registry::ENTRIES {
        let points = entry.spec().unwrap().lower(SpecScale::Reduced).unwrap();
        for point in points {
            if point.scenario.config.num_replicas > 8 {
                continue;
            }
            names.push(format!("{} {} x={}", entry.name, point.label, point.x));
            let mut scenario = point.scenario;
            scenario.workload.num_transactions = scenario.workload.num_transactions.min(200);
            scenario.stop = vec![StopCondition::AllConfirmed, StopCondition::SimTimeLimit];
            scenarios.push(scenario);
        }
    }
    assert!(scenarios.len() > 50, "only {} points", scenarios.len());
    let outcomes = run_scenarios(&scenarios).expect("registry points run");
    for (name, outcome) in names.iter().zip(&outcomes) {
        assert!(outcome.confirmed > 0, "{name}: nothing confirmed");
        assert_eq!(outcome.tx_table_misses, 0, "{name}: ids missed the table");
    }
}
