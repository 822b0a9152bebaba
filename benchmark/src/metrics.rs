//! The metrics this benchmark reports, by name. `BENCHMARK.json` declares the
//! same names, units and directions (a self-test keeps the two in step) and
//! adds the regression bound of every end-to-end metric.
//!
//! Two clocks appear side by side and the unit says which one a number uses:
//! `s`, `ms`, `us`, `ns` are host time; `sim_s`, `sim_us` are simulated time,
//! which is a deterministic function of the seed.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or a simulated time: identical on every run of one seed, so a
    /// host-only optimisation must leave it unchanged.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of `orthrus run` sees, and what `BENCHMARK.json` gates.
/// `failed_share` is reported through the result line's `attempted` /
/// `failed` instead, because it must be 0 and a gated metric may never be 0.
/// Peak memory is the per-layer `host.peak_rss_mb`: across seeds it is
/// bimodal on `wan_straggler_n16`, wider than any bound a gated metric may
/// have (see README), so `compare` gates it between runs of equal seeds.
pub const END_TO_END: [MetricDef; 5] = [
    host("wall_s", "s", Lower),
    host("setup_s", "s", Lower),
    exact("sim_latency_avg_s", "sim_s", Lower),
    exact("sim_latency_p99_s", "sim_s", Lower),
    exact("sim_throughput_ktps", "ktx/sim_s", Higher),
];

/// One layer each; layer = module name. "count" metrics are exact, "replay"
/// metrics are host time of a driver in `replay.rs`, the rest are derived.
pub const PER_LAYER: [MetricDef; 55] = [
    host("workload.generate_ns_per_tx", "ns", Lower),
    exact("workload.payment_fraction", "share", Higher),
    host("lab.parse_lower_us", "us", Lower),
    host("types.block_build_ns_per_tx", "ns", Lower),
    host("sim.event.hold_ns_per_op", "ns", Lower),
    host("sim.network.sample_ns", "ns", Lower),
    exact("sim.network.msgs_per_tx", "count", Lower),
    exact("sim.network.bytes_per_tx", "bytes", Lower),
    exact("sim.engine.events", "count", Lower),
    exact("sim.engine.events_per_tx", "count", Lower),
    exact("sim.engine.peak_queue_len", "count", Lower),
    exact("sim.engine.sim_end_s", "sim_s", Lower),
    host("sim.engine.host_ns_per_event", "ns", Lower),
    host("sim.engine.host_s_per_sim_s", "s/sim_s", Lower),
    host("sim.engine.null_ns_per_delivery", "ns", Lower),
    host("sim.stats.record_ns_per_tx", "ns", Lower),
    exact("sb.blocks_delivered", "count", Lower),
    exact("sb.txs_per_block", "count", Higher),
    exact("sb.view_changes", "count", Lower),
    host("sb.cluster_ns_per_block_replica", "ns", Lower),
    exact("sb.cluster_msgs_per_block", "count", Lower),
    exact("ordering.stage_partial_s", "sim_s", Lower),
    exact("ordering.stage_global_s", "sim_s", Lower),
    exact("ordering.global_share", "share", Lower),
    exact("ordering.glog_wait_mean_us", "sim_us", Lower),
    exact("ordering.glog_wait_max_us", "sim_us", Lower),
    exact("ordering.retained_entries_peak", "count", Lower),
    exact("ordering.retained_bytes_peak", "bytes", Lower),
    host("ordering.plog_ns_per_block", "ns", Lower),
    host("ordering.glog_ns_per_block", "ns", Lower),
    host("ordering.policy_ns_per_block", "ns", Lower),
    exact("ordering.ref_ladon_latency_avg_s", "sim_s", Higher),
    exact("ordering.latency_vs_ladon", "ratio", Lower),
    host("execution.plog_ns_per_tx", "ns", Lower),
    host("execution.glog_ns_per_tx", "ns", Lower),
    host("execution.sequential_ns_per_tx", "ns", Lower),
    host("execution.state_digest_us", "us", Lower),
    exact("execution.commit_share", "share", Higher),
    exact("execution.stm_abort_rate", "share", Lower),
    exact("execution.shard_imbalance", "ratio", Lower),
    exact("execution.store_ops", "count", Lower),
    exact("core.stage_send_s", "sim_s", Lower),
    exact("core.stage_preprocess_s", "sim_s", Lower),
    exact("core.stage_reply_s", "sim_s", Lower),
    host("core.partition_ns_per_tx", "ns", Lower),
    host("sim.engine.est_share", "share", Lower),
    host("sb.est_share", "share", Lower),
    host("execution.est_share", "share", Lower),
    host("core.partition.est_share", "share", Lower),
    host("core.unattributed_share", "share", Lower),
    host("host.peak_rss_mb", "MB", Lower),
    host("host.calib_ms", "ms", Lower),
    host("host.calib_spread", "share", Lower),
    host("trace.overhead_share", "share", Lower),
    host("trace.coverage_share", "share", Higher),
];

pub fn find(defs: &'static [MetricDef], name: &str) -> Option<&'static MetricDef> {
    defs.iter().find(|def| def.name == name)
}

/// Measured values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `(def, value)` in declaration order. Panics when the values set are
    /// not exactly the declared set: every run reports every metric.
    pub fn in_order(&self, defs: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        for (name, _) in &self.0 {
            assert!(find(defs, name).is_some(), "metric {name} is not declared");
        }
        defs.iter()
            .map(|def| {
                let value = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
                (def, value)
            })
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self, defs: &'static [MetricDef]) -> Json {
        Json::obj(self.in_order(defs).into_iter().map(|(def, value)| {
            (
                def.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::from(def.unit))]),
            )
        }))
    }
}
