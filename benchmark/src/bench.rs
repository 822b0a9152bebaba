//! One benchmark run of one workload: the timed run that yields the
//! end-to-end metrics (tracing off) and the traced run that yields the
//! per-layer metrics.

use crate::measure::{self, Counts, WorkloadSpec};
use crate::metrics::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use crate::replay::{self, ReplayInput};
use crate::trace::{self, Span, Tracer};
use orthrus_core::{
    build_simulation, run_scenario, NetMessage, ReplicaNode, Scenario, StopCondition,
};
use orthrus_sim::{NodeId, Simulation, SimulationReport};
use orthrus_types::{Duration, ProtocolKind, ReplicaId, SimTime};
use orthrus_workload::Workload;
use std::time::Instant;

/// Set-ups timed per run. A set-up takes 10–40 ms, so its median needs many
/// more samples than the seconds-long runs do.
const SETUP_REPEATS: usize = 21;
/// Fewest timed repeats (or untraced runs before a traced pass), whatever
/// `--seconds` says.
const MIN_REPEATS: usize = 3;
const MIN_UNTRACED: usize = 2;
/// Seconds of a traced invocation's budget kept for the replay drivers
/// (0.3–1.7 s measured; a slow phase of the host stretches that by 1.6).
const REPLAY_RESERVE_S: f64 = 3.0;
/// Child spans must cover this share of a workload's root span.
const MIN_COVERAGE: f64 = 0.95;

/// What one invocation reports; rendered as the result line.
pub struct RunResult {
    pub defs: &'static [MetricDef],
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means `correct`.
    pub failures: Vec<String>,
    /// Sample counts and quartiles behind the medians, for the reader.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn describe(what: &str, unit: &str, samples: &[f64]) -> String {
    let (q1, median, q3) = measure::quartiles(samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    format!(
        "{what}: n={} median={median:.4} q1={q1:.4} q3={q3:.4} min={min:.4} max={max:.4} {unit}",
        samples.len()
    )
}

fn run_checked(scenario: &Scenario) -> Result<(f64, Counts), String> {
    let start = Instant::now();
    let outcome = run_scenario(scenario).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    Ok((wall, Counts::from_outcome(&outcome)))
}

/// Parse + lower + `build_simulation`: everything up to, but excluding, the
/// first event.
fn time_setup(text: &str, seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    let scenario = measure::lower(text, seed)?;
    let built = build_simulation(&scenario).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    drop(built);
    Ok(elapsed)
}

/// `--trace 0`: end-to-end metrics. One discarded warm-up, the set-ups, then
/// timed `run_scenario` calls for as long as one more is expected to end
/// inside `seconds`, counted from entry.
pub fn timed_run(workload: &WorkloadSpec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let entered = Instant::now();
    let scenario = measure::lower(workload.text, seed)?;
    let mut failures = Vec::new();

    let (_, reference) = run_checked(&scenario)?;
    failures.extend(measure::check_counts(&scenario, &reference));
    failures.extend(measure::check_fingerprint(
        workload.fingerprints,
        seed,
        &reference,
    ));

    let setups = (0..SETUP_REPEATS)
        .map(|_| time_setup(workload.text, seed))
        .collect::<Result<Vec<f64>, String>>()?;

    let mut walls = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first_divergence = None;
    while walls.len() < MIN_REPEATS
        || entered.elapsed().as_secs_f64() + measure::median(&walls) <= seconds
    {
        let (wall, counts) = run_checked(&scenario)?;
        attempted += counts.submitted as u64;
        failed += (counts.submitted - counts.confirmed) as u64;
        walls.push(wall);
        if counts != reference {
            first_divergence.get_or_insert(walls.len());
        }
    }
    if let Some(repeat) = first_divergence {
        failures.push(format!(
            "determinism: repeat {repeat} of seed {seed} differs from the warm-up run"
        ));
    }

    let mut metrics = Metrics::default();
    metrics.set("wall_s", measure::median(&walls));
    metrics.set("setup_s", measure::median(&setups));
    metrics.set("sim_latency_avg_s", reference.avg_latency.as_secs_f64());
    metrics.set("sim_latency_p99_s", reference.p99_latency.as_secs_f64());
    metrics.set("sim_throughput_ktps", reference.throughput_ktps);
    Ok(RunResult {
        defs: &END_TO_END,
        metrics,
        attempted,
        failed,
        failures,
        notes: vec![
            describe("wall_s", "s", &walls),
            describe("setup_s", "s", &setups),
            reference.fingerprint_row(seed),
        ],
        spans: Vec::new(),
    })
}

/// The traced pass: drives `build_simulation` + `Simulation::run_until`
/// itself, slice by slice, mirroring `run_scenario`'s stop logic, with one
/// span per step. Returns the run's fingerprint, which must equal the
/// untraced run's — that also checks the mirror — and replica 0's share of
/// executed transactions that committed (no `ScenarioOutcome` field has it).
fn traced_pass(
    tracer: &mut Tracer,
    text: &str,
    seed: u64,
) -> Result<(Scenario, Workload, Counts, f64), String> {
    let scenario = tracer.span("lab.parse_lower", |_| {
        (measure::lower(text, seed), Vec::new())
    })?;
    let workload = tracer.span("workload.generate", |_| {
        let workload = Workload::generate(scenario.effective_workload());
        let txs = workload.len() as u64;
        (workload, vec![("txs", txs)])
    });
    let (mut sim, submitted) = tracer
        .span("core.build_simulation", |_| {
            let built = build_simulation(&scenario);
            let actors = built
                .as_ref()
                .map_or(0, |(sim, _)| sim.actor_count() as u64);
            (built, vec![("actors", actors)])
        })
        .map_err(|e| e.to_string())?;

    let last_report = tracer.span("core.run_phase", |tracer| {
        let report = run_phase(tracer, &mut sim, &scenario, submitted);
        let counts = vec![
            ("events", report.events_processed),
            ("confirmed", sim.stats().confirmed_count() as u64),
        ];
        (report, counts)
    });

    let (counts, commit_share) = tracer.span("core.collect", |_| {
        let counts = Counts::from_sim(&sim, &scenario, submitted, last_report);
        let commit_share = sim
            .actor_as::<ReplicaNode>(NodeId::replica(0))
            .map_or(0.0, |node| {
                let (committed, aborted) = (
                    node.executor().committed_count(),
                    node.executor().aborted_count(),
                );
                committed as f64 / ((committed + aborted) as f64).max(1.0)
            });
        ((counts, commit_share), Vec::new())
    });
    tracer.span("core.drop_simulation", |_| (drop(sim), Vec::new()));
    Ok((scenario, workload, counts, commit_share))
}

/// `run_scenario`'s stop logic, one `sim.run_until` span per simulated slice.
fn run_phase(
    tracer: &mut Tracer,
    sim: &mut Simulation<NetMessage>,
    scenario: &Scenario,
    submitted: usize,
) -> SimulationReport {
    let deadline = SimTime::ZERO + scenario.max_sim_time;
    let wants = |condition| scenario.stop.contains(&condition);
    let mut last_report = SimulationReport {
        end_time: SimTime::ZERO,
        events_processed: 0,
        messages_sent: 0,
        bytes_sent: 0,
        peak_queue_len: 0,
    };
    let mut slice = |tracer: &mut Tracer, sim: &mut Simulation<NetMessage>, span: Duration| {
        let slice_end = (sim.now() + span).min(deadline);
        let events_before = last_report.events_processed;
        let confirmed_before = sim.stats().confirmed_count();
        last_report = tracer.span("sim.run_until", |_| {
            let report = sim.run_until(slice_end);
            let counts = vec![
                ("events", report.events_processed - events_before),
                (
                    "confirmed",
                    (sim.stats().confirmed_count() - confirmed_before) as u64,
                ),
                ("sim_end_us", slice_end.as_micros()),
            ];
            (report, counts)
        });
    };

    if wants(StopCondition::AllConfirmed) {
        while sim.now() < deadline {
            slice(tracer, sim, Duration::from_secs(1));
            if sim.stats().confirmed_count() >= submitted && submitted > 0 {
                break;
            }
        }
    }
    if wants(StopCondition::DigestsQuiesce) {
        let horizon = SimTime::ZERO + scenario.max_sim_time;
        let cooperative: Vec<ReplicaId> = (0..scenario.config.num_replicas)
            .map(ReplicaId::new)
            .filter(|r| !scenario.faults.is_selfish(*r) && !scenario.faults.is_crashed(*r, horizon))
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
        while sim.now() < deadline && !digests_agree(sim) {
            slice(tracer, sim, Duration::from_millis(250));
        }
    }
    if !wants(StopCondition::AllConfirmed) {
        while sim.now() < deadline {
            slice(tracer, sim, Duration::from_secs(1));
        }
    }
    last_report
}

/// The exact per-layer metrics: counts and simulated times straight from the
/// run's fingerprint. `ladon_avg_s` is `None` where the reference did not run.
fn set_count_metrics(
    metrics: &mut Metrics,
    reference: &Counts,
    n: f64,
    ladon_avg_s: Option<f64>,
    commit_share: f64,
) {
    let txs = reference.submitted as f64;
    let report = reference.report;
    let events = report.events_processed as f64;
    metrics.set("sim.network.msgs_per_tx", report.messages_sent as f64 / txs);
    metrics.set("sim.network.bytes_per_tx", report.bytes_sent as f64 / txs);
    metrics.set("sim.engine.events", events);
    metrics.set("sim.engine.events_per_tx", events / txs);
    metrics.set("sim.engine.peak_queue_len", report.peak_queue_len as f64);
    metrics.set("sim.engine.sim_end_s", reference.sim_end_s());
    metrics.set("sb.blocks_delivered", reference.blocks_delivered as f64);
    // `blocks_delivered` counts every replica's delivery of every block.
    metrics.set(
        "sb.txs_per_block",
        txs * n / (reference.blocks_delivered as f64).max(1.0),
    );
    metrics.set("sb.view_changes", reference.view_changes as f64);
    let stages = reference.breakdown;
    metrics.set(
        "ordering.stage_partial_s",
        stages.partial_ordering.as_secs_f64(),
    );
    metrics.set(
        "ordering.stage_global_s",
        stages.global_ordering.as_secs_f64(),
    );
    metrics.set("ordering.global_share", stages.global_ordering_share());
    metrics.set("ordering.glog_wait_mean_us", reference.glog_wait_mean_us);
    metrics.set(
        "ordering.glog_wait_max_us",
        reference.glog_wait_max_us as f64,
    );
    metrics.set(
        "ordering.retained_entries_peak",
        reference.peak_retained_entries as f64,
    );
    metrics.set(
        "ordering.retained_bytes_peak",
        reference.peak_retained_bytes as f64,
    );
    // 0 where the reference is not run (no straggler).
    metrics.set(
        "ordering.ref_ladon_latency_avg_s",
        ladon_avg_s.unwrap_or(0.0),
    );
    metrics.set(
        "ordering.latency_vs_ladon",
        ladon_avg_s.map_or(0.0, |ladon| reference.avg_latency.as_secs_f64() / ladon),
    );
    metrics.set("execution.commit_share", commit_share);
    // The shared-object shard comes last; imbalance is over account shards.
    let account_ops = &reference.shard_ops[..reference.shard_ops.len().saturating_sub(1)];
    let mean_ops = account_ops.iter().sum::<u64>() as f64 / (account_ops.len() as f64).max(1.0);
    let max_ops = account_ops.iter().copied().max().unwrap_or(0) as f64;
    metrics.set(
        "execution.shard_imbalance",
        if mean_ops > 0.0 {
            max_ops / mean_ops
        } else {
            0.0
        },
    );
    metrics.set(
        "execution.store_ops",
        reference.shard_ops.iter().sum::<u64>() as f64,
    );
    metrics.set("core.stage_send_s", stages.send.as_secs_f64());
    metrics.set("core.stage_preprocess_s", stages.preprocess.as_secs_f64());
    metrics.set("core.stage_reply_s", stages.reply.as_secs_f64());
}

/// `--trace 1`: per-layer metrics. Untraced runs first (counts, the wall the
/// derived metrics divide by, and the base of the tracing overhead), then one
/// traced pass and the replay drivers under a single root span. The untraced
/// runs stop when what follows them is expected to fill `seconds`, counted
/// from entry.
pub fn traced_run(workload: &WorkloadSpec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let entered = Instant::now();
    let scenario = measure::lower(workload.text, seed)?;
    let mut failures = Vec::new();
    let mut metrics = Metrics::default();
    let mut calib = Vec::new();

    let mut walls = Vec::new();
    let mut reference: Option<Counts> = None;
    let mut first_divergence = None;
    // After the untraced runs come the traced pass, the Ladon reference where
    // there is a straggler, and the replay drivers.
    let runs_after = if scenario.faults.stragglers.is_empty() {
        1.0
    } else {
        2.0
    };
    while walls.len() < MIN_UNTRACED
        || entered.elapsed().as_secs_f64()
            + measure::median(&walls) * (1.0 + runs_after)
            + REPLAY_RESERVE_S
            <= seconds
    {
        calib.push(measure::calibrate_ms());
        let (wall, counts) = run_checked(&scenario)?;
        if walls.is_empty() {
            // Read right after the process's first run: the peak resident
            // set of a process that ran this workload once. (Read later it
            // also measures how the allocator fragments over several runs.)
            metrics.set("host.peak_rss_mb", measure::peak_rss_mb()?);
        }
        walls.push(wall);
        if *reference.get_or_insert_with(|| counts.clone()) != counts {
            first_divergence.get_or_insert(walls.len());
        }
    }
    let reference = reference.expect("at least one untraced run");
    if let Some(run) = first_divergence {
        failures.push(format!(
            "determinism: untraced run {run} of seed {seed} differs from the first"
        ));
    }
    failures.extend(measure::check_counts(&scenario, &reference));
    failures.extend(measure::check_fingerprint(
        workload.fingerprints,
        seed,
        &reference,
    ));

    calib.push(measure::calibrate_ms());
    let mut tracer = Tracer::new(workload.name);
    let root = tracer.open("bench.workload");
    let (scenario, generated, traced, commit_share) =
        traced_pass(&mut tracer, workload.text, seed)?;
    if traced != reference {
        failures.push(
            "traced pass does not reproduce the untraced run's counts \
             (the mirror of run_scenario's stop logic is out of date)"
                .to_string(),
        );
    }

    // The Orthrus-vs-baseline anchor: the same spec under Ladon, once. Only
    // run where a straggler makes global ordering the bottleneck.
    let ladon_avg_s = if scenario.faults.stragglers.is_empty() {
        None
    } else {
        let ladon = scenario.clone().with_protocol(ProtocolKind::Ladon);
        let (_, counts) =
            tracer.span("ordering.ref_ladon", |_| (run_checked(&ladon), Vec::new()))?;
        let avg = counts.avg_latency.as_secs_f64();
        if reference.avg_latency.as_secs_f64() >= avg {
            failures.push(format!(
                "Orthrus does not beat the Ladon reference under a straggler: {:.6} vs {avg:.6} sim_s",
                reference.avg_latency.as_secs_f64()
            ));
        }
        Some(avg)
    };

    calib.push(tracer.span("host.calibrate", |_| (measure::calibrate_ms(), Vec::new())));
    let input = ReplayInput {
        spec_text: workload.text,
        scenario: &scenario,
        workload: &generated,
        events: reference.report.events_processed,
        peak_queue_len: reference.report.peak_queue_len,
    };
    for (name, driver) in replay::DRIVERS {
        tracer.span(name, |_| {
            let ops = driver(&input, &mut metrics);
            ((), vec![("ops_per_sample", ops)])
        });
    }
    tracer.close(root, vec![("txs", reference.submitted as u64)]);
    let spans = tracer.finish();

    let coverage = trace::root_coverage(&spans);
    if coverage < MIN_COVERAGE {
        failures.push(format!(
            "child spans cover {coverage:.3} of the root span, below {MIN_COVERAGE}"
        ));
    }

    let txs = reference.submitted as f64;
    let n = f64::from(scenario.config.num_replicas);
    let events = reference.report.events_processed as f64;
    set_count_metrics(&mut metrics, &reference, n, ladon_avg_s, commit_share);

    // Host time of the run proper: wall minus set-up.
    let wall = measure::median(&walls);
    let setup = trace::duration_s(&spans, "lab.parse_lower")
        + trace::duration_s(&spans, "core.build_simulation");
    let run_s = (wall - setup).max(f64::MIN_POSITIVE);
    let run_ns = run_s * 1e9;
    metrics.set("sim.engine.host_ns_per_event", run_ns / events);
    metrics.set("sim.engine.host_s_per_sim_s", run_s / reference.sim_end_s());

    // Estimates, not measurements: a driver's ns per operation times the
    // run's operation count, over the run's host time.
    let measured = |name: &str| metrics.get(name).expect("replay drivers ran");
    let engine = measured("sim.engine.null_ns_per_delivery") * events / run_ns;
    let sb =
        measured("sb.cluster_ns_per_block_replica") * reference.blocks_delivered as f64 / run_ns;
    let execution =
        (measured("execution.plog_ns_per_tx") + measured("execution.glog_ns_per_tx")) * txs * n
            / run_ns;
    // A request is bucketed by the f + 1 replicas the client contacts and by
    // the leader they relay it to.
    let bucketing = f64::from(scenario.config.client_quorum()) + 1.0;
    let partition = measured("core.partition_ns_per_tx") * txs * bucketing / run_ns;
    metrics.set("sim.engine.est_share", engine);
    metrics.set("sb.est_share", sb);
    metrics.set("execution.est_share", execution);
    metrics.set("core.partition.est_share", partition);
    metrics.set(
        "core.unattributed_share",
        1.0 - engine - sb - execution - partition,
    );

    metrics.set("host.calib_ms", measure::median(&calib));
    metrics.set("host.calib_spread", measure::spread(&calib));
    let traced_s = trace::duration_s(&spans, "core.build_simulation")
        + trace::duration_s(&spans, "core.run_phase")
        + trace::duration_s(&spans, "core.collect")
        + trace::duration_s(&spans, "core.drop_simulation");
    metrics.set("trace.overhead_share", (traced_s - wall) / wall);
    metrics.set("trace.coverage_share", coverage);

    Ok(RunResult {
        defs: &PER_LAYER,
        metrics,
        attempted: reference.submitted as u64,
        failed: (reference.submitted - reference.confirmed) as u64,
        failures,
        notes: vec![
            describe("untraced wall_s", "s", &walls),
            describe("host.calib_ms", "ms", &calib),
            reference.fingerprint_row(seed),
        ],
        spans,
    })
}
