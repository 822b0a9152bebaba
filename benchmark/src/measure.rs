//! Building blocks shared by the timed run and the traced run: the checked-in
//! workloads, the deterministic fingerprint of a run, order statistics and
//! the host probes (calibration kernel, peak resident set).

use crate::fingerprints::{self, Fingerprint};
use orthrus_core::{ReplicaNode, Scenario, ScenarioOutcome, StopCondition};
use orthrus_lab::SpecScale;
use orthrus_sim::stats::LatencyBreakdown;
use orthrus_sim::{NodeId, Simulation, SimulationReport};
use orthrus_types::{Digest, Duration, ReplicaId};
use std::time::Instant;

/// One benchmark workload: a checked-in `.orth` spec and what its runs must
/// reproduce. Why each exists is in `BENCHMARK.json` and the README.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub text: &'static str,
    pub fingerprints: &'static [Fingerprint],
}

macro_rules! workload {
    ($name:literal, $fingerprints:expr) => {
        WorkloadSpec {
            name: $name,
            text: include_str!(concat!("../workloads/", $name, ".orth")),
            fingerprints: $fingerprints,
        }
    };
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    workload!("wan_fanout_n32", fingerprints::WAN_FANOUT_N32),
    workload!("lan_payments_sat", fingerprints::LAN_PAYMENTS_SAT),
    workload!("lan_contracts_sat", fingerprints::LAN_CONTRACTS_SAT),
    workload!("wan_straggler_n16", fingerprints::WAN_STRAGGLER_N16),
];

/// Quickstart-sized spec for the self-tests; not a benchmark workload.
#[cfg(test)]
pub const SMOKE: WorkloadSpec = workload!("smoke", &[]);

/// Parse and lower a workload spec, replacing its seed. The seed is the only
/// thing threaded from the command line into the scenario: the program under
/// test sees generated inputs, never a workload name.
pub fn lower(text: &str, seed: u64) -> Result<Scenario, String> {
    let spec = orthrus_lab::parse(text).map_err(|e| e.to_string())?;
    let mut points = spec.lower(SpecScale::Reduced).map_err(|e| e.to_string())?;
    if points.len() != 1 {
        return Err(format!(
            "a workload spec must lower to one scenario, got {}",
            points.len()
        ));
    }
    Ok(points.remove(0).scenario.with_seed(seed))
}

/// Everything deterministic a run produces. Two runs of one seed must agree
/// on all of it, and so must the traced pass that mirrors `run_scenario`.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub submitted: usize,
    pub confirmed: usize,
    pub report: SimulationReport,
    pub throughput_ktps: f64,
    pub avg_latency: Duration,
    pub p99_latency: Duration,
    pub breakdown: LatencyBreakdown,
    pub view_changes: u64,
    pub blocks_delivered: u64,
    pub state_digests: Vec<(ReplicaId, Digest)>,
    pub shard_ops: Vec<u64>,
    pub peak_retained_entries: u64,
    pub peak_retained_bytes: u64,
    pub glog_wait_mean_us: f64,
    pub glog_wait_max_us: u64,
}

impl Counts {
    pub fn from_outcome(outcome: &ScenarioOutcome) -> Self {
        Self {
            submitted: outcome.submitted,
            confirmed: outcome.confirmed,
            report: outcome.report,
            throughput_ktps: outcome.throughput_ktps,
            avg_latency: outcome.avg_latency,
            p99_latency: outcome.p99_latency,
            breakdown: outcome.breakdown,
            view_changes: outcome.view_changes,
            blocks_delivered: outcome.blocks_delivered,
            state_digests: outcome.state_digests.clone(),
            shard_ops: outcome.shard_ops.clone(),
            peak_retained_entries: outcome.peak_retained_entries,
            peak_retained_bytes: outcome.peak_retained_bytes,
            glog_wait_mean_us: outcome.glog_wait_mean_us,
            glog_wait_max_us: outcome.glog_wait_max_us,
        }
    }

    /// The same fingerprint read off a finished simulation through the public
    /// API, the way `run_scenario` collects its outcome. `last_report` is the
    /// report of the last `run_until` slice.
    pub fn from_sim(
        sim: &Simulation<orthrus_core::NetMessage>,
        scenario: &Scenario,
        submitted: usize,
        last_report: SimulationReport,
    ) -> Self {
        let stats = sim.stats();
        let replica = |r: u32| sim.actor_as::<ReplicaNode>(NodeId::replica(r));
        let first = replica(0);
        Self {
            submitted,
            confirmed: stats.confirmed_count(),
            report: SimulationReport {
                end_time: sim.now(),
                events_processed: last_report.events_processed,
                messages_sent: stats.messages_sent,
                bytes_sent: stats.bytes_sent,
                peak_queue_len: last_report.peak_queue_len,
            },
            throughput_ktps: stats.throughput_ktps(),
            avg_latency: stats.average_latency(),
            p99_latency: stats.latency_percentile(0.99),
            breakdown: stats.latency_breakdown(),
            view_changes: stats.view_changes,
            blocks_delivered: stats.blocks_delivered,
            state_digests: (0..scenario.config.num_replicas)
                .filter_map(|r| {
                    replica(r).map(|n| (ReplicaId::new(r), n.executor().state_digest()))
                })
                .collect(),
            shard_ops: first
                .map(|n| n.executor().store().shard_op_counts())
                .unwrap_or_default(),
            peak_retained_entries: first.map_or(0, ReplicaNode::peak_retained_entries),
            peak_retained_bytes: first.map_or(0, ReplicaNode::peak_retained_bytes),
            glog_wait_mean_us: stats.glog_wait_mean_us(),
            glog_wait_max_us: stats.glog_wait_max_us,
        }
    }

    pub fn sim_end_s(&self) -> f64 {
        self.report.end_time.as_secs_f64()
    }

    pub fn fingerprint(&self, seed: u64) -> Fingerprint {
        (
            seed,
            self.report.events_processed,
            self.avg_latency.as_micros(),
            self.p99_latency.as_micros(),
            self.throughput_ktps,
        )
    }

    /// This run as a row of `fingerprints.rs`.
    pub fn fingerprint_row(&self, seed: u64) -> String {
        let (seed, events, avg_us, p99_us, ktps) = self.fingerprint(seed);
        format!("fingerprint: ({seed}, {events}, {avg_us}, {p99_us}, {ktps:.6}),")
    }
}

/// Output checks every run of a workload must pass; each failure is one line.
pub fn check_counts(scenario: &Scenario, counts: &Counts) -> Vec<String> {
    let mut failures = Vec::new();
    if counts.confirmed != counts.submitted {
        failures.push(format!(
            "failed_share > 0: {} of {} transactions confirmed",
            counts.confirmed, counts.submitted
        ));
    }
    // With the default stop set the run drains until the cooperative
    // replicas agree, so a disagreement here is a safety failure. (The WAN
    // workloads leave `digests_quiesce` out: ROADMAP open item 4.)
    if scenario.stop.contains(&StopCondition::DigestsQuiesce) {
        let mut digests = counts.state_digests.iter().map(|(_, d)| d);
        let first = digests.next();
        if first.is_none() || digests.any(|d| Some(d) != first) {
            failures.push(format!(
                "replica state digests disagree: {:?}",
                counts.state_digests
            ));
        }
    }
    failures
}

/// Simulated behaviour is pinned per seed: on a seed that has a checked-in
/// fingerprint the run must reproduce it. A change that moves one changed
/// simulated behaviour, and says so by editing the table.
pub fn check_fingerprint(table: &[Fingerprint], seed: u64, counts: &Counts) -> Vec<String> {
    let Some(want) = table.iter().find(|row| row.0 == seed) else {
        return Vec::new();
    };
    let got = counts.fingerprint(seed);
    // Throughput is quoted to six decimals; the rest are whole numbers.
    if (got.0, got.1, got.2, got.3) == (want.0, want.1, want.2, want.3)
        && (got.4 - want.4).abs() <= 5e-7
    {
        return Vec::new();
    }
    vec![format!(
        "seed-{seed} fingerprint (seed, events, avg latency us, p99 latency us, ktps): \
         got ({}, {}, {}, {}, {:.6}), expected ({}, {}, {}, {}, {:.6})",
        got.0, got.1, got.2, got.3, got.4, want.0, want.1, want.2, want.3, want.4
    )]
}

/// First quartile, median and third quartile, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so a spread computed here
/// is the spread the driver computes. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lower = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lower as f64;
        sorted[lower - 1] + (sorted[lower] - sorted[lower - 1]) * frac
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// A fixed pure-CPU kernel (xorshift over registers, no memory traffic):
/// milliseconds it took. Timed before every pass, it says how fast and how
/// disturbed the host was while the numbers next to it were taken.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..10_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn a_run_must_reproduce_the_fingerprint_of_its_seed() {
        let scenario = lower(SMOKE.text, 5).expect("smoke lowers");
        let outcome = orthrus_core::run_scenario(&scenario).expect("smoke runs");
        let counts = Counts::from_outcome(&outcome);
        let row = counts.fingerprint(5);
        assert_eq!(check_fingerprint(&[row], 5, &counts), Vec::<String>::new());
        // No row for the seed: nothing to hold the run to.
        assert_eq!(check_fingerprint(&[row], 6, &counts), Vec::<String>::new());
        let one_more_event = (row.0, row.1 + 1, row.2, row.3, row.4);
        assert_eq!(check_fingerprint(&[one_more_event], 5, &counts).len(), 1);
        let slower = (row.0, row.1, row.2, row.3, row.4 - 0.001);
        assert_eq!(check_fingerprint(&[slower], 5, &counts).len(), 1);
    }

    #[test]
    fn every_workload_spec_lowers_and_takes_the_seed() {
        for workload in WORKLOADS.iter().chain([&SMOKE]) {
            let scenario = lower(workload.text, 1234).expect(workload.name);
            assert_eq!(scenario.seed, 1234, "{}", workload.name);
            scenario.validate().expect(workload.name);
        }
    }
}
