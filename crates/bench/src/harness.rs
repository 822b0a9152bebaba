//! Shared machinery for the figure-reproduction benches.

use orthrus_core::{parallel_map, run_scenario, sweep_threads, Scenario, ScenarioOutcome};
use orthrus_lab::{registry, SpecScale};
use orthrus_sim::FaultPlan;
use orthrus_types::{Duration, NetworkKind, ProtocolKind, ReplicaId};
use orthrus_workload::WorkloadConfig;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Reduced scale: a few replicas and a few thousand transactions so the
    /// whole suite completes quickly on a laptop.
    Reduced,
    /// The paper's scale: 8–128 replicas and the full 200k-transaction
    /// workload. Enable with `ORTHRUS_FULL_SCALE=1`.
    Full,
}

impl BenchScale {
    /// Pick the scale from the `ORTHRUS_FULL_SCALE` environment variable
    /// (delegates to [`SpecScale::from_env`] so the CLI and the benches can
    /// never disagree on the convention).
    pub fn from_env() -> Self {
        match SpecScale::from_env() {
            SpecScale::Reduced => BenchScale::Reduced,
            SpecScale::Full => BenchScale::Full,
        }
    }

    /// Replica counts swept by Figures 3 and 4.
    pub fn replica_counts(self) -> Vec<u32> {
        match self {
            BenchScale::Reduced => vec![4, 8, 16],
            BenchScale::Full => vec![8, 16, 32, 64, 128],
        }
    }

    /// Number of transactions per run.
    pub fn transactions(self) -> usize {
        match self {
            BenchScale::Reduced => 2_000,
            BenchScale::Full => 200_000,
        }
    }

    /// Number of accounts in the synthetic trace.
    pub fn accounts(self) -> u64 {
        match self {
            BenchScale::Reduced => 2_000,
            BenchScale::Full => 18_000,
        }
    }

    /// Batch size (the paper uses 4096; the reduced scale uses a smaller
    /// batch so several blocks are produced per instance even with few
    /// transactions).
    pub fn batch_size(self) -> usize {
        match self {
            BenchScale::Reduced => 256,
            BenchScale::Full => 4_096,
        }
    }

    /// Replica count used by the fixed-size experiments (Figs. 5–8 use 16).
    pub fn fixed_replicas(self) -> u32 {
        match self {
            BenchScale::Reduced => 8,
            BenchScale::Full => 16,
        }
    }

    /// The matching spec-lowering scale (registry sweeps apply their
    /// `[full_scale]` overrides at [`BenchScale::Full`]).
    pub fn spec_scale(self) -> SpecScale {
        match self {
            BenchScale::Reduced => SpecScale::Reduced,
            BenchScale::Full => SpecScale::Full,
        }
    }
}

/// Replica counts for the current scale (convenience wrapper).
pub fn replica_counts() -> Vec<u32> {
    BenchScale::from_env().replica_counts()
}

/// One measured point of a figure series.
///
/// Carries enough raw counters that downstream tooling can track the perf
/// trajectory across PRs without re-running the scenario (see
/// [`write_json`]).
#[derive(Debug, Clone)]
pub struct MeasuredPoint {
    /// Protocol label (matches the paper's legends).
    pub protocol: String,
    /// X-axis value (replica count, payment share, time, fault count …).
    pub x: f64,
    /// Throughput in ktps.
    pub throughput_ktps: f64,
    /// Average latency in seconds.
    pub latency_s: f64,
    /// 99th-percentile latency in seconds.
    pub p99_latency_s: f64,
    /// Transactions confirmed / submitted.
    pub confirmed: usize,
    /// Transactions submitted.
    pub submitted: usize,
    /// Protocol bytes sent over the simulated network.
    pub bytes_sent: u64,
    /// Simulation events dispatched.
    pub events_processed: u64,
    /// Largest number of events simultaneously waiting in the engine queue.
    pub peak_queue_len: u64,
    /// Wall-clock time the scenario took to simulate, in milliseconds
    /// (`0` when the point was built from an outcome without timing it).
    /// Measured under whatever concurrency the sweep ran with, so points
    /// timed on a busy pool include contention — compare trajectories only
    /// across runs with the same `ORTHRUS_SWEEP_THREADS` setting.
    pub wall_clock_ms: f64,
    /// Objects per executor state shard at the end of the run (replica 0;
    /// account shards first, shared-object shard last).
    pub shard_objects: Vec<u64>,
    /// Successful store mutations per executor state shard (same layout as
    /// `shard_objects`). Under a skewed hot-account workload the spread of
    /// these counters *is* the shard imbalance.
    pub shard_ops: Vec<u64>,
    /// Log entries (plog blocks + glog payloads + PBFT slots) replica 0
    /// still retained at the end of the run. Checkpoint truncation holds it
    /// at the in-flight window instead of letting it grow with the run —
    /// bounded memory as a measured claim, not an assertion.
    pub retained_plog_entries: u64,
    /// Peak retained partial/global-log bytes over the run (replica 0).
    pub peak_retained_bytes: u64,
    /// Mean time (µs) a globally confirmed block waited in the glog pending
    /// region before executing (all replicas pooled). Quantifies the §V-C
    /// alignment stall for Orthrus; queueing only for the baselines.
    pub glog_wait_mean_us: f64,
    /// Worst single glog wait (µs) on any replica.
    pub glog_wait_max_us: u64,
}

/// Imbalance of the per-shard op counters (`MeasuredPoint::shard_ops`
/// layout: account shards first, shared-object shard last): the hottest
/// account shard's load as a multiple of the mean across account shards.
/// Returns 0.0 when no account ops were recorded. 1.0 means perfectly even;
/// a hot-account workload (zipf ≥ 1.2) pushes this well above 1.
pub fn shard_imbalance(shard_ops: &[u64]) -> f64 {
    let account_ops = &shard_ops[..shard_ops.len().saturating_sub(1)];
    let total: u64 = account_ops.iter().sum();
    if total == 0 {
        return 0.0;
    }
    *account_ops
        .iter()
        .max()
        .expect("total > 0 implies non-empty") as f64
        * account_ops.len() as f64
        / total as f64
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
/// Labels normally come from `ProtocolKind::label`, but the `orthrus` CLI
/// feeds user-authored spec labels through here too.
fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a `u64` slice as a JSON array.
fn json_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

impl MeasuredPoint {
    /// Build a point from a finished scenario outcome. The single place a
    /// point is assembled — every bench and the `orthrus` CLI go through it.
    /// Pass `0.0` for `wall_clock_ms` when the run was not timed.
    pub fn from_outcome(
        label: &str,
        x: f64,
        outcome: &ScenarioOutcome,
        wall_clock_ms: f64,
    ) -> Self {
        Self {
            protocol: label.to_string(),
            x,
            throughput_ktps: outcome.throughput_ktps,
            latency_s: outcome.avg_latency.as_secs_f64(),
            p99_latency_s: outcome.p99_latency.as_secs_f64(),
            confirmed: outcome.confirmed,
            submitted: outcome.submitted,
            bytes_sent: outcome.report.bytes_sent,
            events_processed: outcome.report.events_processed,
            peak_queue_len: outcome.report.peak_queue_len,
            wall_clock_ms,
            shard_objects: outcome.shard_objects.clone(),
            shard_ops: outcome.shard_ops.clone(),
            retained_plog_entries: outcome.retained_plog_entries,
            peak_retained_bytes: outcome.peak_retained_bytes,
            glog_wait_mean_us: outcome.glog_wait_mean_us,
            glog_wait_max_us: outcome.glog_wait_max_us,
        }
    }

    /// Serialize the point as one JSON object (hand-rolled; the workspace
    /// builds without serde).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"protocol\":\"{}\",\"x\":{},\"throughput_ktps\":{:.6},",
                "\"avg_latency_s\":{:.6},\"p99_latency_s\":{:.6},",
                "\"confirmed\":{},\"submitted\":{},",
                "\"bytes_sent\":{},\"events_processed\":{},",
                "\"peak_queue_len\":{},\"wall_clock_ms\":{:.3},",
                "\"shard_objects\":{},\"shard_ops\":{},",
                "\"retained_plog_entries\":{},\"peak_retained_bytes\":{},",
                "\"glog_wait_mean_us\":{:.3},\"glog_wait_max_us\":{}}}"
            ),
            escape_json(&self.protocol),
            self.x,
            self.throughput_ktps,
            self.latency_s,
            self.p99_latency_s,
            self.confirmed,
            self.submitted,
            self.bytes_sent,
            self.events_processed,
            self.peak_queue_len,
            self.wall_clock_ms,
            json_u64_array(&self.shard_objects),
            json_u64_array(&self.shard_ops),
            self.retained_plog_entries,
            self.peak_retained_bytes,
            self.glog_wait_mean_us,
            self.glog_wait_max_us,
        )
    }
}

/// Build the scenario shared by the figure benches.
pub fn paper_scenario(
    protocol: ProtocolKind,
    network: NetworkKind,
    replicas: u32,
    payment_share: f64,
    straggler: bool,
    scale: BenchScale,
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

/// Run one scenario and convert the outcome into a measured point.
///
/// Panics on an invalid scenario: bench grids are checked-in data validated
/// by the spec lint, so an invalid point is a bug in the harness, not input.
pub fn measure(label: &str, x: f64, scenario: &Scenario) -> MeasuredPoint {
    let wall = Instant::now();
    let outcome = run_scenario(scenario).expect("bench scenario must validate");
    MeasuredPoint::from_outcome(label, x, &outcome, wall.elapsed().as_secs_f64() * 1e3)
}

/// One labelled point of a sweep: a scenario plus its series label and
/// x-axis value.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Protocol label (matches the paper's legends).
    pub label: String,
    /// X-axis value of the point.
    pub x: f64,
    /// The scenario to run.
    pub scenario: Scenario,
}

impl SweepJob {
    /// Build a sweep job.
    pub fn new(label: &str, x: f64, scenario: Scenario) -> Self {
        Self {
            label: label.to_string(),
            x,
            scenario,
        }
    }
}

impl From<orthrus_lab::LoweredPoint> for SweepJob {
    fn from(point: orthrus_lab::LoweredPoint) -> Self {
        Self {
            label: point.label,
            x: point.x,
            scenario: point.scenario,
        }
    }
}

/// Lower a named registry spec into sweep jobs at the given scale. The
/// figure benches pull their grids from here, so the grid definitions live
/// in `scenarios/*.orth` instead of per-bench Rust.
///
/// Panics when the entry is missing or does not lower: registry sources are
/// embedded and pinned by golden tests, so that is a build defect.
pub fn registry_jobs(name: &str, scale: BenchScale) -> Vec<SweepJob> {
    let spec = registry::spec(name)
        .unwrap_or_else(|err| panic!("registry spec {name:?} failed to parse: {err}"));
    spec.lower(scale.spec_scale())
        .unwrap_or_else(|err| panic!("registry spec {name:?} failed to lower: {err}"))
        .into_iter()
        .map(SweepJob::from)
        .collect()
}

/// The human-readable title of a registry spec (falls back to the name).
/// Bench banners print this instead of hard-coding grid facts that now live
/// in the spec files — editing a `.orth` file cannot leave a stale banner.
pub fn registry_title(name: &str) -> String {
    registry::spec(name)
        .ok()
        .and_then(|spec| spec.title().map(str::to_string))
        .unwrap_or_else(|| name.to_string())
}

/// Run a sweep of independent scenario points on the scoped thread pool
/// (`orthrus_core::parallel_map`), one deterministic seeded simulation per
/// worker. Results come back in input order, so figure series are stable
/// regardless of thread count; set `ORTHRUS_SWEEP_THREADS` to override the
/// worker count.
pub fn measure_sweep(jobs: &[SweepJob]) -> Vec<MeasuredPoint> {
    measure_sweep_with_threads(jobs, sweep_threads())
}

/// [`measure_sweep`] with an explicit worker count.
pub fn measure_sweep_with_threads(jobs: &[SweepJob], threads: usize) -> Vec<MeasuredPoint> {
    parallel_map(jobs, threads, |job| {
        measure(&job.label, job.x, &job.scenario)
    })
}

/// Print the header of a figure table.
pub fn print_header(figure: &str, x_label: &str) {
    println!();
    println!("=== {figure} ===");
    println!(
        "{:<10} {:>12} {:>16} {:>14}",
        "protocol", x_label, "throughput ktps", "latency s"
    );
}

/// Print one row of a figure table.
pub fn print_row(point: &MeasuredPoint) {
    println!(
        "{:<10} {:>12.2} {:>16.3} {:>14.3}",
        point.protocol, point.x, point.throughput_ktps, point.latency_s
    );
}

/// Location of the CSV output for a figure. Anchored at the workspace root's
/// `target/figures/` regardless of the bench binary's working directory
/// (cargo runs benches with the package directory as cwd).
pub fn figure_csv_path(figure: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
        .join("figures");
    let _ = fs::create_dir_all(&dir);
    dir.join(format!("{figure}.csv"))
}

/// Write the measured series of a figure to `target/figures/<figure>.csv`,
/// plus a machine-readable JSON twin at `target/figures/<figure>.json` so
/// future PRs can diff the perf trajectory.
pub fn write_csv(figure: &str, x_label: &str, points: &[MeasuredPoint]) {
    let mut csv = format!("protocol,{x_label},throughput_ktps,latency_s\n");
    for p in points {
        csv.push_str(&format!(
            "{},{},{},{}\n",
            p.protocol, p.x, p.throughput_ktps, p.latency_s
        ));
    }
    let path = figure_csv_path(figure);
    if let Err(err) = fs::write(&path, csv) {
        eprintln!("warning: could not write {}: {err}", path.display());
    } else {
        println!("(series written to {})", path.display());
    }
    write_json(figure, x_label, points);
}

/// Location of the JSON output for a figure.
pub fn figure_json_path(figure: &str) -> PathBuf {
    figure_csv_path(figure).with_extension("json")
}

/// Serialize a measured series as a JSON document.
pub fn series_json(figure: &str, x_label: &str, points: &[MeasuredPoint]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"figure\": \"{}\",\n  \"x_label\": \"{}\",\n  \"points\": [",
        escape_json(figure),
        escape_json(x_label)
    );
    for (i, p) in points.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    {}", p.to_json());
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Write the measured series of a figure to `target/figures/<figure>.json`.
pub fn write_json(figure: &str, x_label: &str, points: &[MeasuredPoint]) {
    let path = figure_json_path(figure);
    if let Err(err) = fs::write(&path, series_json(figure, x_label, points)) {
        eprintln!("warning: could not write {}: {err}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_scale_is_small() {
        let scale = BenchScale::Reduced;
        assert!(scale.replica_counts().iter().all(|n| *n <= 16));
        assert!(scale.transactions() <= 10_000);
    }

    #[test]
    fn full_scale_matches_the_paper() {
        let scale = BenchScale::Full;
        assert_eq!(scale.replica_counts(), vec![8, 16, 32, 64, 128]);
        assert_eq!(scale.transactions(), 200_000);
        assert_eq!(scale.accounts(), 18_000);
        assert_eq!(scale.batch_size(), 4_096);
        assert_eq!(scale.fixed_replicas(), 16);
    }

    #[test]
    fn scenario_builder_applies_parameters() {
        let s = paper_scenario(
            ProtocolKind::Orthrus,
            NetworkKind::Wan,
            8,
            0.46,
            true,
            BenchScale::Reduced,
        );
        assert_eq!(s.config.num_replicas, 8);
        assert_eq!(s.workload.payment_share, 0.46);
        assert_eq!(s.faults.stragglers.len(), 1);
        assert_eq!(s.config.batch_size, BenchScale::Reduced.batch_size());
    }

    #[test]
    fn registry_jobs_cover_the_fig3_grid() {
        let jobs = registry_jobs("fig3ab_wan_no_straggler", BenchScale::Reduced);
        // 3 replica counts × 6 protocols, replica axis outermost.
        assert_eq!(jobs.len(), 18);
        assert_eq!(jobs[0].x, 4.0);
        assert_eq!(jobs[0].label, "Orthrus");
        assert_eq!(jobs[17].x, 16.0);
        assert_eq!(jobs[17].label, "Ladon");
        let full = registry_jobs("fig3ab_wan_no_straggler", BenchScale::Full);
        assert_eq!(full.len(), 30);
        assert_eq!(full[29].x, 128.0);
        assert_eq!(
            full[0].scenario.workload.num_transactions,
            BenchScale::Full.transactions()
        );
    }

    #[test]
    fn csv_path_is_under_target() {
        let path = figure_csv_path("fig_test");
        assert!(path.to_string_lossy().contains("figures"));
        assert_eq!(figure_json_path("fig_test").extension().unwrap(), "json");
    }

    #[test]
    fn json_labels_are_escaped() {
        assert_eq!(escape_json("Orthrus"), "Orthrus");
        assert_eq!(escape_json("say \"hi\"\\"), "say \\\"hi\\\"\\\\");
        assert_eq!(escape_json("a\nb"), "a\\u000ab");
    }

    #[test]
    fn series_json_is_well_formed() {
        let point = MeasuredPoint {
            protocol: "Orthrus".into(),
            x: 8.0,
            throughput_ktps: 1.25,
            latency_s: 0.5,
            p99_latency_s: 0.9,
            confirmed: 2_000,
            submitted: 2_000,
            bytes_sent: 123_456,
            events_processed: 789,
            peak_queue_len: 321,
            wall_clock_ms: 12.5,
            shard_objects: vec![10, 12, 3],
            shard_ops: vec![100, 90, 4],
            retained_plog_entries: 17,
            peak_retained_bytes: 4_096,
            glog_wait_mean_us: 42.5,
            glog_wait_max_us: 120,
        };
        let doc = series_json("fig_test", "replicas", &[point.clone(), point]);
        // Structural sanity without a JSON parser: balanced braces/brackets,
        // the expected keys, and exactly two point objects.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert_eq!(doc.matches("\"protocol\":\"Orthrus\"").count(), 2);
        for key in [
            "\"figure\"",
            "\"x_label\"",
            "\"points\"",
            "\"throughput_ktps\"",
            "\"p99_latency_s\"",
            "\"bytes_sent\"",
            "\"events_processed\"",
            "\"peak_queue_len\"",
            "\"wall_clock_ms\"",
            "\"shard_objects\":[10,12,3]",
            "\"shard_ops\":[100,90,4]",
            "\"retained_plog_entries\":17",
            "\"peak_retained_bytes\":4096",
            "\"glog_wait_mean_us\":42.500",
            "\"glog_wait_max_us\":120",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }

    #[test]
    fn sweep_points_come_back_in_input_order_for_any_thread_count() {
        let scale = BenchScale::Reduced;
        let jobs: Vec<SweepJob> = [4u32, 8]
            .into_iter()
            .map(|n| {
                let scenario = paper_scenario(
                    ProtocolKind::Orthrus,
                    NetworkKind::Lan,
                    n,
                    0.46,
                    false,
                    scale,
                );
                SweepJob::new("Orthrus", f64::from(n), scenario)
            })
            .collect();
        let serial = measure_sweep_with_threads(&jobs, 1);
        let pooled = measure_sweep_with_threads(&jobs, 2);
        assert_eq!(serial.len(), 2);
        for ((s, p), job) in serial.iter().zip(&pooled).zip(&jobs) {
            assert_eq!(s.x, job.x);
            assert_eq!(p.x, job.x);
            // Wall clock differs run to run; everything simulated must not.
            assert_eq!(s.throughput_ktps, p.throughput_ktps);
            assert_eq!(s.events_processed, p.events_processed);
            assert_eq!(s.peak_queue_len, p.peak_queue_len);
        }
    }
}
