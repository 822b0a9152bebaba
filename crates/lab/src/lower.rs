//! The key table and lowering: what each `.orth` entry sets, and how a
//! parsed [`Spec`] becomes runnable [`orthrus_core::Scenario`] values.
//!
//! Every key is matched in one place, `Point::apply`. The parser applies
//! each entry to a scratch point to check it; lowering applies the same
//! entries to each grid point.
//!
//! # Lowering rules
//!
//! * Every grid point starts from `Scenario::new(protocol, network,
//!   replicas)` with a full-size `WorkloadConfig::default()` workload, then
//!   applies its entries in file order: the `[scenario]` / `[base]` entries,
//!   then one item of each axis. `protocol`, `network` and `replicas` are
//!   required (from the base or an axis).
//! * A sweep enumerates the cartesian product of its axes, **first axis
//!   outermost** — exactly the nesting order of the hand-written bench loops
//!   the registry replaced.
//! * `payment_share_pct` / `multi_payer_pct` exist only as axes; they lower
//!   to shares divided by 100 (the percent stays in `x` so figure axes match
//!   the paper).
//! * `crash_count = k` crashes replicas `1..=k` at `crash_at_ms` (instance 0
//!   keeps its leader, as in Fig. 7); `selfish_count = k` flags the tail
//!   replicas `n-1, n-2, …` (they lead instances other than 0, as in
//!   Fig. 8). Both are applied after every other entry.
//! * Each point's label defaults to the protocol's figure label. Its x is an
//!   explicit `x` entry, else the numeric value of its `x_axis` entry, else
//!   the replica count.
//! * At [`SpecScale::Full`], each `[full_scale]` entry replaces the items of
//!   the axis it names, or else the base entry with its key (it is appended
//!   when the base has none).

use crate::spec::{Spec, SpecError};
use orthrus_core::{Scenario, StopCondition};
use orthrus_sim::faults::{CrashRecoverSpec, CrashSpec, StragglerSpec};
use orthrus_types::{Duration, NetworkKind, ProtocolKind, ReplicaId, SimTime};
use orthrus_workload::WorkloadConfig;

/// Whether to lower the spec's reduced (default) or full-scale grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpecScale {
    /// The checked-in values: small enough for a laptop run.
    #[default]
    Reduced,
    /// Apply the spec's `[full_scale]` overrides (the paper's scale).
    Full,
}

/// One runnable point of a lowered spec: the scenario plus the series label
/// and x value the harness reports it under.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredPoint {
    /// Series label (matches the paper's figure legends).
    pub label: String,
    /// X-axis value of the point.
    pub x: f64,
    /// The scenario to run.
    pub scenario: Scenario,
}

/// The default crash time for `crash_count` lowering (the paper's t = 9 s).
pub const DEFAULT_CRASH_AT_MS: u64 = 9_000;

/// The most items an axis's `start..=end` range may expand to.
const MAX_RANGE_ITEMS: u64 = 10_000;

/// The keys an `[axes]` entry (and `x_axis`) may name.
pub(crate) const AXES: [&str; 9] = [
    "protocol",
    "replicas",
    "seed",
    "payment_share_pct",
    "multi_payer_pct",
    "crash_count",
    "selfish_count",
    "zipf_exponent",
    "max_inflight_blocks",
];

/// One grid point while its entries are applied: the scenario under
/// construction plus the values only lowering reads.
#[derive(Debug, Clone)]
pub(crate) struct Point<'a> {
    scenario: Scenario,
    protocol: Option<ProtocolKind>,
    network: Option<NetworkKind>,
    replicas: Option<u32>,
    crash_count: Option<u32>,
    crash_at_ms: Option<u64>,
    selfish_count: Option<u32>,
    label: Option<String>,
    x: Option<f64>,
    /// The spec's `x_axis` key, and the numeric value of its last entry.
    x_axis: Option<&'a str>,
    axis_x: Option<f64>,
}

fn num<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    let value = value.trim();
    value
        .parse::<T>()
        .map_err(|_| format!("invalid {what}: {value:?}"))
}

/// Parse a float, rejecting `NaN`/`inf`: non-finite values have no place in
/// the spec format and would corrupt the emitted JSON series downstream.
fn finite(value: &str, what: &str) -> Result<f64, String> {
    let parsed: f64 = num(value, what)?;
    if !parsed.is_finite() {
        return Err(format!("{what} must be finite, got {value:?}"));
    }
    Ok(parsed)
}

fn replica(value: &str) -> Result<ReplicaId, String> {
    num(value, "replica id").map(ReplicaId::new)
}

fn items(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn split<'v>(item: &'v str, separator: &str, shape: &str) -> Result<(&'v str, &'v str), String> {
    item.split_once(separator)
        .ok_or_else(|| format!("{item:?} is not {shape}"))
}

impl<'a> Point<'a> {
    pub(crate) fn new(x_axis: Option<&'a str>) -> Self {
        Self {
            scenario: Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, 4)
                .with_workload(WorkloadConfig::default()),
            protocol: None,
            network: None,
            replicas: None,
            crash_count: None,
            crash_at_ms: None,
            selfish_count: None,
            label: None,
            x: None,
            x_axis,
            axis_x: None,
        }
    }

    /// Apply one `key = value` entry: the one place a spec key is given its
    /// meaning. `on_axis` admits the axis-only percent keys.
    pub(crate) fn apply(&mut self, key: &str, value: &str, on_axis: bool) -> Result<(), String> {
        let s = &mut self.scenario;
        match key {
            "protocol" => {
                self.protocol = Some(ProtocolKind::from_name(value).ok_or_else(|| {
                    let names = ProtocolKind::ALL.map(ProtocolKind::name);
                    format!("unknown protocol {value:?} ({})", names.join("|"))
                })?);
            }
            "network" => {
                self.network = Some(match value {
                    "lan" => NetworkKind::Lan,
                    "wan" => NetworkKind::Wan,
                    _ => return Err(format!("unknown network {value:?} (lan|wan)")),
                });
            }
            "replicas" => self.replicas = Some(num(value, "replica count")?),
            "clients" => s.config.num_client_actors = num(value, "client count")?,
            "seed" => s.seed = num(value, "seed")?,
            "batch_size" => s.config.batch_size = num(value, "batch size")?,
            "batch_timeout_ms" => {
                s.config.batch_timeout = Duration::from_millis(num(value, "timeout")?);
            }
            "view_change_timeout_ms" => {
                s.config.view_change_timeout = Duration::from_millis(num(value, "timeout")?);
            }
            "max_inflight_blocks" => s.config.max_inflight_blocks = num(value, "depth")?,
            "accounts" => s.workload.num_accounts = num(value, "account count")?,
            "transactions" => s.workload.num_transactions = num(value, "transaction count")?,
            "payment_share" => s.workload.payment_share = finite(value, "share")?,
            "payment_share_pct" if on_axis => {
                s.workload.payment_share = num::<u64>(value, key)? as f64 / 100.0;
            }
            "multi_payer_share" => s.workload.multi_payer_share = finite(value, "share")?,
            "multi_payer_pct" if on_axis => {
                s.workload.multi_payer_share = num::<u64>(value, key)? as f64 / 100.0;
            }
            "shared_objects" => s.workload.num_shared_objects = num(value, "object count")?,
            "zipf_exponent" => s.workload.zipf_exponent = finite(value, "exponent")?,
            "payload_bytes" => s.workload.payload_bytes = num(value, "byte count")?,
            "initial_balance" => s.workload.initial_balance = num(value, "balance")?,
            "max_transfer" => s.workload.max_transfer = num(value, "amount")?,
            "submission_window_ms" => {
                s.submission_window = Duration::from_millis(num(value, "duration")?);
            }
            "max_sim_time_ms" => {
                s.max_sim_time = Duration::from_millis(num(value, "duration")?);
            }
            "stop" => {
                s.stop = items(value)
                    .map(|item| {
                        StopCondition::from_name(item).ok_or_else(|| {
                            format!(
                                "unknown stop condition {item:?} \
                                 (all_confirmed|digests_quiesce|sim_time_limit)"
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "stragglers" => {
                for item in items(value) {
                    let (id, factor) = split(item, "x", "<replica>x<factor>")
                        .map_err(|e| format!("straggler {e}"))?;
                    s.faults.stragglers.push(StragglerSpec {
                        replica: replica(id)?,
                        factor: finite(factor, "slowdown factor")?,
                    });
                }
            }
            "crashes" => {
                for item in items(value) {
                    let (id, at) =
                        split(item, "@", "<replica>@<ms>").map_err(|e| format!("crash {e}"))?;
                    s.faults.crashes.push(CrashSpec {
                        replica: replica(id)?,
                        at: SimTime::from_millis(num(at, "crash time (ms)")?),
                    });
                }
            }
            "crash_recover" => {
                for item in items(value) {
                    let (id, window) = split(item, "@", "<replica>@<crash_ms>..<recover_ms>")
                        .map_err(|e| format!("crash_recover {e}"))?;
                    let (crash_ms, recover_ms) = window.split_once("..").ok_or_else(|| {
                        format!(
                            "crash_recover {item:?} is missing the <crash_ms>..<recover_ms> window"
                        )
                    })?;
                    s.faults.crash_recoveries.push(CrashRecoverSpec {
                        replica: replica(id)?,
                        crash_at: SimTime::from_millis(num(crash_ms, "crash time (ms)")?),
                        recover_at: SimTime::from_millis(num(recover_ms, "recovery time (ms)")?),
                    });
                }
            }
            "selfish" => {
                for item in items(value) {
                    s.faults.selfish.push(replica(item)?);
                }
            }
            "crash_count" => self.crash_count = Some(num(value, "fault count")?),
            "crash_at_ms" => self.crash_at_ms = Some(num(value, "crash time (ms)")?),
            "selfish_count" => self.selfish_count = Some(num(value, "fault count")?),
            "label" => {
                // Labels flow into the emitted JSON/CSV series verbatim, so
                // keep them to a charset that cannot corrupt either format.
                if value.is_empty()
                    || value
                        .chars()
                        .any(|c| c.is_control() || matches!(c, '"' | '\\' | ','))
                {
                    return Err(format!(
                        "label {value:?} must be non-empty and free of quotes, \
                         backslashes, commas and control characters"
                    ));
                }
                self.label = Some(value.to_string());
            }
            "x" => self.x = Some(finite(value, "x value")?),
            _ => return Err(format!("unknown parameter {key:?}")),
        }
        if self.x_axis == Some(key) {
            self.axis_x = value.parse().ok();
        }
        Ok(())
    }

    /// Apply the placement counts and the required keys, and name the point.
    fn finish(mut self) -> Result<LoweredPoint, SpecError> {
        let protocol = self.protocol.ok_or_else(|| {
            SpecError::general("missing `protocol` (set it in base or as an axis)")
        })?;
        let network = self
            .network
            .ok_or_else(|| SpecError::general("missing `network` (lan|wan)"))?;
        let replicas = self.replicas.ok_or_else(|| {
            SpecError::general("missing `replicas` (set it in base or as an axis)")
        })?;
        for (key, count) in [
            ("crash_count", self.crash_count),
            ("selfish_count", self.selfish_count),
        ] {
            if let Some(count) = count.filter(|&count| count >= replicas) {
                return Err(SpecError::general(format!(
                    "{key} {count} does not fit a {replicas}-replica deployment"
                )));
            }
        }
        let s = &mut self.scenario;
        s.protocol = protocol;
        s.network = network;
        s.config.num_replicas = replicas;
        s.config.num_instances = replicas;
        let at = SimTime::from_millis(self.crash_at_ms.unwrap_or(DEFAULT_CRASH_AT_MS));
        for f in 0..self.crash_count.unwrap_or(0) {
            let replica = ReplicaId::new(1 + f);
            s.faults.crashes.push(CrashSpec { replica, at });
        }
        for f in 0..self.selfish_count.unwrap_or(0) {
            s.faults.selfish.push(ReplicaId::new(replicas - 1 - f));
        }
        Ok(LoweredPoint {
            label: self.label.unwrap_or_else(|| protocol.label().to_string()),
            x: self.x.or(self.axis_x).unwrap_or(f64::from(replicas)),
            scenario: self.scenario,
        })
    }
}

/// An axis's value items — a comma list, or an inclusive `start..=end`
/// integer range — each checked by applying it to `scratch`.
pub(crate) fn axis_items(
    key: &str,
    value: &str,
    scratch: &mut Point,
) -> Result<Vec<String>, String> {
    let items: Vec<String> = match value.split_once("..=") {
        Some((start, end)) => {
            let start: u64 = num(start, key)?;
            let end: u64 = num(end, key)?;
            if end < start || end - start >= MAX_RANGE_ITEMS {
                let most = MAX_RANGE_ITEMS;
                return Err(format!(
                    "range {start}..={end} for {key} must hold 1 to {most} items"
                ));
            }
            (start..=end).map(|v| v.to_string()).collect()
        }
        None => items(value).map(str::to_string).collect(),
    };
    if items.is_empty() {
        return Err(format!("axis {key} is empty"));
    }
    for item in &items {
        scratch.apply(key, item, true)?;
    }
    Ok(items)
}

impl Spec {
    /// Lower the spec into runnable points at the given scale.
    ///
    /// Scenario specs yield exactly one point; sweeps yield their full
    /// cartesian grid in deterministic order (first axis outermost).
    pub fn lower(&self, scale: SpecScale) -> Result<Vec<LoweredPoint>, SpecError> {
        let mut base = self.base.clone();
        let mut axes = self.axes.clone();
        if scale == SpecScale::Full {
            for (key, value) in &self.full_scale {
                if let Some(axis) = axes.iter_mut().find(|(k, _)| k == key) {
                    axis.1 = axis_items(key, value, &mut Point::new(None)).map_err(|msg| {
                        SpecError::general(format!("full_scale override {key:?}: {msg}"))
                    })?;
                } else if let Some(entry) = base.iter_mut().find(|(k, _)| k == key) {
                    entry.1.clone_from(value);
                } else {
                    base.push((key.clone(), value.clone()));
                }
            }
        }
        let mut start = Point::new(self.x_axis.as_deref());
        for (key, value) in &base {
            start.apply(key, value, false).map_err(SpecError::general)?;
        }
        // Cartesian product, first axis outermost.
        let mut points = vec![start];
        for (key, items) in &axes {
            points = points
                .iter()
                .flat_map(|point| {
                    items.iter().map(move |item| {
                        let mut point = point.clone();
                        point.apply(key, item, true).map(|()| point)
                    })
                })
                .collect::<Result<_, _>>()
                .map_err(SpecError::general)?;
        }
        points.into_iter().map(Point::finish).collect()
    }

    /// Validate the spec end to end: lower it at both scales and run every
    /// resulting scenario through [`Scenario::validate`]. Returns the number
    /// of (reduced-scale) points on success.
    pub fn lint(&self) -> Result<usize, SpecError> {
        let mut reduced_points = 0;
        for scale in [SpecScale::Reduced, SpecScale::Full] {
            let points = self.lower(scale)?;
            if scale == SpecScale::Reduced {
                reduced_points = points.len();
            }
            for point in &points {
                point.scenario.validate().map_err(|err| {
                    SpecError::general(format!(
                        "{} (scale {scale:?}, label {}, x {}): {err}",
                        self.name(),
                        point.label,
                        point.x
                    ))
                })?;
            }
        }
        Ok(reduced_points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse;
    use orthrus_sim::FaultPlan;

    const SWEEP_DOC: &str = "\
kind = sweep\n\
name = grid\n\
x_axis = replicas\n\
\n\
[base]\n\
network = wan\n\
payment_share = 0.46\n\
transactions = 200\n\
accounts = 64\n\
shared_objects = 8\n\
stragglers = 0x10\n\
\n\
[axes]\n\
replicas = 4, 8\n\
protocol = orthrus, iss\n\
\n\
[full_scale]\n\
replicas = 8, 16\n\
transactions = 500\n";

    /// Each arm of the key table sets the field its key names.
    #[test]
    fn every_key_sets_its_scenario_field() {
        let doc = "kind = scenario\nname = all\n[scenario]\n\
            protocol = ladon\nnetwork = wan\nreplicas = 7\nclients = 3\nseed = 11\n\
            batch_size = 12\nbatch_timeout_ms = 13\nview_change_timeout_ms = 14\n\
            max_inflight_blocks = 15\naccounts = 16\ntransactions = 17\n\
            payment_share = 0.18\nmulti_payer_share = 0.19\nshared_objects = 20\n\
            zipf_exponent = 0.21\npayload_bytes = 22\ninitial_balance = 23\n\
            max_transfer = 24\nsubmission_window_ms = 25\nmax_sim_time_ms = 26\n\
            stop = all_confirmed\nstragglers = 1x2.5\ncrashes = 2@27\n\
            crash_recover = 3@28..29\nselfish = 4\ncrash_count = 1\ncrash_at_ms = 30\n\
            selfish_count = 1\nlabel = All\nx = 31\n";
        let points = parse(doc).expect("parse").lower(SpecScale::Reduced);
        let workload = WorkloadConfig {
            num_accounts: 16,
            num_transactions: 17,
            payment_share: 0.18,
            multi_payer_share: 0.19,
            num_shared_objects: 20,
            zipf_exponent: 0.21,
            payload_bytes: 22,
            initial_balance: 23,
            max_transfer: 24,
            ..WorkloadConfig::default()
        };
        let (r, ms) = (ReplicaId::new, SimTime::from_millis);
        let faults = FaultPlan::none()
            .with_straggler(r(1), 2.5)
            .with_crash(r(2), ms(27))
            .with_crash_recover(r(3), ms(28), ms(29))
            .with_selfish(r(4))
            .with_crash(r(1), ms(30))
            .with_selfish(r(6));
        let mut scenario = Scenario::new(ProtocolKind::Ladon, NetworkKind::Wan, 7)
            .with_workload(workload)
            .with_faults(faults)
            .with_num_clients(3)
            .with_seed(11)
            .with_batch_size(12)
            .with_batch_timeout(Duration::from_millis(13))
            .with_view_change_timeout(Duration::from_millis(14))
            .with_max_inflight_blocks(15)
            .with_submission_window(Duration::from_millis(25))
            .with_max_sim_time(Duration::from_millis(26));
        scenario.stop = vec![StopCondition::AllConfirmed];
        let label = "All".to_string();
        assert_eq!(
            points,
            Ok(vec![LoweredPoint {
                label,
                x: 31.0,
                scenario
            }])
        );
    }

    #[test]
    fn sweep_lowering_orders_first_axis_outermost() {
        let spec = parse(SWEEP_DOC).expect("parse");
        let points = spec.lower(SpecScale::Reduced).expect("lower");
        assert_eq!(points.len(), 4);
        let summary: Vec<(f64, &str)> = points.iter().map(|p| (p.x, p.label.as_str())).collect();
        assert_eq!(
            summary,
            vec![
                (4.0, "Orthrus"),
                (4.0, "ISS"),
                (8.0, "Orthrus"),
                (8.0, "ISS")
            ]
        );
        for point in &points {
            assert_eq!(point.scenario.network, NetworkKind::Wan);
            assert_eq!(point.scenario.workload.num_transactions, 200);
            assert_eq!(point.scenario.faults.stragglers.len(), 1);
            assert!(point.scenario.validate().is_ok());
        }
    }

    #[test]
    fn full_scale_overrides_axes_and_base() {
        let spec = parse(SWEEP_DOC).expect("parse");
        let points = spec.lower(SpecScale::Full).expect("lower");
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].x, 8.0);
        assert_eq!(points[3].x, 16.0);
        for point in &points {
            assert_eq!(point.scenario.workload.num_transactions, 500);
        }
    }

    #[test]
    fn crash_and_selfish_counts_follow_the_paper_placement() {
        let doc = "\
kind = sweep\n\
name = faults\n\
x_axis = crash_count\n\
\n\
[base]\n\
protocol = orthrus\n\
network = wan\n\
replicas = 8\n\
crash_at_ms = 9000\n\
\n\
[axes]\n\
crash_count = 0, 2\n";
        let spec = parse(doc).expect("parse");
        let points = spec.lower(SpecScale::Reduced).expect("lower");
        assert_eq!(points.len(), 2);
        assert!(points[0].scenario.faults.crashes.is_empty());
        let crashed: Vec<u32> = points[1]
            .scenario
            .faults
            .crashes
            .iter()
            .map(|c| c.replica.value())
            .collect();
        assert_eq!(crashed, vec![1, 2], "instance 0 keeps its leader");
        assert_eq!(points[1].x, 2.0);

        let doc = "\
kind = sweep\n\
name = selfish\n\
x_axis = selfish_count\n\
\n\
[base]\n\
protocol = orthrus\n\
network = wan\n\
replicas = 8\n\
\n\
[axes]\n\
selfish_count = 2\n";
        let spec = parse(doc).expect("parse");
        let points = spec.lower(SpecScale::Reduced).expect("lower");
        let selfish: Vec<u32> = points[0]
            .scenario
            .faults
            .selfish
            .iter()
            .map(|r| r.value())
            .collect();
        assert_eq!(selfish, vec![7, 6], "selfish replicas come from the tail");
    }

    #[test]
    fn percent_axes_keep_percent_in_x_but_lower_to_shares() {
        let doc = "\
kind = sweep\n\
name = shares\n\
x_axis = payment_share_pct\n\
\n\
[base]\n\
protocol = orthrus\n\
network = wan\n\
replicas = 4\n\
\n\
[axes]\n\
payment_share_pct = 0, 40, 100\n";
        let spec = parse(doc).expect("parse");
        let points = spec.lower(SpecScale::Reduced).expect("lower");
        let pairs: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.x, p.scenario.workload.payment_share))
            .collect();
        assert_eq!(pairs, vec![(0.0, 0.0), (40.0, 0.4), (100.0, 1.0)]);
    }

    #[test]
    fn oversized_axis_counts_are_rejected_not_truncated() {
        // An axis item goes through the same key arm as a base entry, so
        // 2^32 + 4 replicas fails to parse instead of wrapping to 4.
        let doc = "\
kind = sweep\n\
name = overflow\n\
\n\
[base]\n\
protocol = orthrus\n\
network = lan\n\
\n\
[axes]\n\
replicas = 4294967300\n";
        let err = parse(doc).expect_err("must reject");
        assert_eq!(err.line, Some(9));
        assert!(err.to_string().contains("replica count"), "{err}");
    }

    #[test]
    fn crash_recover_lowers_to_fault_plan_windows() {
        let doc = "\
kind = scenario\n\
name = rec\n\
\n\
[scenario]\n\
protocol = orthrus\n\
network = lan\n\
replicas = 4\n\
transactions = 100\n\
accounts = 32\n\
crash_recover = 2@300..1800\n";
        // The windows themselves are checked by
        // `spec.rs::crash_recover_stanza_parses_and_round_trips`.
        assert_eq!(parse(doc).expect("parse").lint(), Ok(1));
        // An inverted window is caught by scenario validation through lint.
        let bad = doc.replace("2@300..1800", "2@1800..300");
        let err = parse(&bad).expect("parse").lint().expect_err("must fail");
        assert!(err.to_string().contains("recover"), "{err}");
    }

    #[test]
    fn max_inflight_axis_sweeps_the_pipelining_depth() {
        let doc = "\
kind = sweep\n\
name = inflight\n\
x_axis = max_inflight_blocks\n\
\n\
[base]\n\
protocol = orthrus\n\
network = lan\n\
replicas = 4\n\
transactions = 100\n\
accounts = 32\n\
\n\
[axes]\n\
max_inflight_blocks = 1, 4, 16\n";
        let spec = parse(doc).expect("parse");
        let points = spec.lower(SpecScale::Reduced).expect("lower");
        let pairs: Vec<(f64, u64)> = points
            .iter()
            .map(|p| (p.x, p.scenario.config.max_inflight_blocks))
            .collect();
        assert_eq!(pairs, vec![(1.0, 1), (4.0, 4), (16.0, 16)]);
        assert!(spec.lint().is_ok());
    }

    #[test]
    fn missing_required_keys_are_reported() {
        let doc = "kind = scenario\nname = x\n\n[scenario]\nnetwork = lan\n";
        let spec = parse(doc).expect("parse");
        let err = spec.lower(SpecScale::Reduced).expect_err("must fail");
        assert!(err.to_string().contains("protocol"), "{err}");
    }

    #[test]
    fn scenario_specs_lower_to_one_point() {
        let doc = "\
kind = scenario\n\
name = tiny\n\
\n\
[scenario]\n\
protocol = ladon\n\
network = lan\n\
replicas = 4\n\
transactions = 100\n\
accounts = 32\n\
label = MyRun\n";
        let spec = parse(doc).expect("parse");
        let points = spec.lower(SpecScale::Reduced).expect("lower");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].label, "MyRun");
        assert_eq!(points[0].x, 4.0);
        assert_eq!(points[0].scenario.protocol, ProtocolKind::Ladon);
    }

    #[test]
    fn lint_runs_scenario_validation() {
        // 3 replicas is below the BFT minimum: lint must surface it.
        let doc = "\
kind = scenario\n\
name = bad\n\
\n\
[scenario]\n\
protocol = orthrus\n\
network = lan\n\
replicas = 3\n";
        let spec = parse(doc).expect("parse");
        let err = spec.lint().expect_err("must fail");
        assert!(err.to_string().contains("replicas"), "{err}");
    }
}
