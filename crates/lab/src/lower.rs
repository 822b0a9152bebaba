//! Lowering: turn a parsed [`Spec`] into runnable
//! [`orthrus_core::Scenario`] values.
//!
//! # Lowering rules
//!
//! * Every grid point starts from `Scenario::new(protocol, network,
//!   replicas)` with a full-size `WorkloadConfig::default()` workload, then
//!   applies each parameter the spec sets. `protocol`, `network` and
//!   `replicas` are required (from the base or an axis).
//! * A sweep enumerates the cartesian product of its axes, **first axis
//!   outermost** — exactly the nesting order of the hand-written bench loops
//!   the registry replaced.
//! * `payment_share_pct` / `multi_payer_pct` axes lower to shares divided by
//!   100 (the percent stays in `x` so figure axes match the paper).
//! * `crash_count = k` crashes replicas `1..=k` at `crash_at_ms` (instance 0
//!   keeps its leader, as in Fig. 7); `selfish_count = k` flags the tail
//!   replicas `n-1, n-2, …` (they lead instances other than 0, as in
//!   Fig. 8).
//! * Each point's label defaults to the protocol's figure label, and its x
//!   value to the sweep's `x_axis` (falling back to the replica count).
//! * At [`SpecScale::Full`], `[full_scale]` overrides are applied first:
//!   keys naming an existing axis replace that axis's values, any other key
//!   overrides the base parameters.

use crate::spec::{parse_axis, Axis, AxisKey, AxisValues, Params, Spec, SpecError, SweepSpec};
use orthrus_core::Scenario;
use orthrus_sim::FaultPlan;
use orthrus_types::{Duration, ReplicaId, SimTime};
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

impl SpecScale {
    /// Pick the scale from the `ORTHRUS_FULL_SCALE` environment variable
    /// (`1` or `true` selects [`SpecScale::Full`]; the `orthrus` CLI and the
    /// snapshot benches share this convention).
    pub fn from_env() -> Self {
        match std::env::var("ORTHRUS_FULL_SCALE") {
            Ok(value) if value == "1" || value.eq_ignore_ascii_case("true") => SpecScale::Full,
            _ => SpecScale::Reduced,
        }
    }
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

fn params_to_scenario(params: &Params) -> Result<Scenario, SpecError> {
    let protocol = params
        .protocol
        .ok_or_else(|| SpecError::general("missing `protocol` (set it in base or as an axis)"))?;
    let network = params
        .network
        .ok_or_else(|| SpecError::general("missing `network` (lan|wan)"))?;
    let replicas = params
        .replicas
        .ok_or_else(|| SpecError::general("missing `replicas` (set it in base or as an axis)"))?;

    let mut scenario =
        Scenario::new(protocol, network, replicas).with_workload(WorkloadConfig::default());

    if let Some(clients) = params.clients {
        scenario.num_clients = clients;
    }
    if let Some(seed) = params.seed {
        scenario.seed = seed;
    }
    if let Some(batch_size) = params.batch_size {
        scenario.config.batch_size = batch_size;
    }
    if let Some(ms) = params.batch_timeout_ms {
        scenario.config.batch_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = params.view_change_timeout_ms {
        scenario.config.view_change_timeout = Duration::from_millis(ms);
    }
    if let Some(depth) = params.max_inflight_blocks {
        scenario.config.max_inflight_blocks = depth;
    }
    if let Some(accounts) = params.accounts {
        scenario.workload.num_accounts = accounts;
    }
    if let Some(transactions) = params.transactions {
        scenario.workload.num_transactions = transactions;
    }
    if let Some(share) = params.payment_share {
        scenario.workload.payment_share = share;
    }
    if let Some(share) = params.multi_payer_share {
        scenario.workload.multi_payer_share = share;
    }
    if let Some(objects) = params.shared_objects {
        scenario.workload.num_shared_objects = objects;
    }
    if let Some(exponent) = params.zipf_exponent {
        scenario.workload.zipf_exponent = exponent;
    }
    if let Some(bytes) = params.payload_bytes {
        scenario.workload.payload_bytes = bytes;
    }
    if let Some(balance) = params.initial_balance {
        scenario.workload.initial_balance = balance;
    }
    if let Some(amount) = params.max_transfer {
        scenario.workload.max_transfer = amount;
    }
    if let Some(ms) = params.submission_window_ms {
        scenario.submission_window = Duration::from_millis(ms);
    }
    if let Some(ms) = params.max_sim_time_ms {
        scenario.max_sim_time = Duration::from_millis(ms);
    }
    if let Some(stop) = &params.stop {
        scenario.stop = stop.clone();
    }

    let mut faults = FaultPlan::none();
    if let Some(stragglers) = &params.stragglers {
        for &(replica, factor) in stragglers {
            faults = faults.with_straggler(ReplicaId::new(replica), factor);
        }
    }
    if let Some(crashes) = &params.crashes {
        for &(replica, at_ms) in crashes {
            faults = faults.with_crash(ReplicaId::new(replica), SimTime::from_millis(at_ms));
        }
    }
    if let Some(recoveries) = &params.crash_recover {
        for &(replica, crash_ms, recover_ms) in recoveries {
            faults = faults.with_crash_recover(
                ReplicaId::new(replica),
                SimTime::from_millis(crash_ms),
                SimTime::from_millis(recover_ms),
            );
        }
    }
    if let Some(selfish) = &params.selfish {
        for &replica in selfish {
            faults = faults.with_selfish(ReplicaId::new(replica));
        }
    }
    if let Some(count) = params.crash_count {
        let at = SimTime::from_millis(params.crash_at_ms.unwrap_or(DEFAULT_CRASH_AT_MS));
        for f in 0..count {
            faults = faults.with_crash(ReplicaId::new(1 + f), at);
        }
    }
    if let Some(count) = params.selfish_count {
        if count >= replicas {
            return Err(SpecError::general(format!(
                "selfish_count {count} does not fit a {replicas}-replica deployment"
            )));
        }
        for f in 0..count {
            faults = faults.with_selfish(ReplicaId::new(replicas - 1 - f));
        }
    }
    scenario.faults = faults;

    Ok(scenario)
}

/// The x value a set of resolved params yields for `key` (used when the
/// `x_axis` key lives in the base rather than on an axis).
fn x_from_params(key: AxisKey, params: &Params) -> Option<f64> {
    match key {
        AxisKey::Protocol => None,
        AxisKey::Replicas => params.replicas.map(f64::from),
        AxisKey::Seed => params.seed.map(|s| s as f64),
        AxisKey::PaymentSharePct => params.payment_share.map(|s| s * 100.0),
        AxisKey::MultiPayerPct => params.multi_payer_share.map(|s| s * 100.0),
        AxisKey::CrashCount => params.crash_count.map(f64::from),
        AxisKey::SelfishCount => params.selfish_count.map(f64::from),
        AxisKey::ZipfExponent => params.zipf_exponent,
        AxisKey::MaxInflightBlocks => params.max_inflight_blocks.map(|d| d as f64),
    }
}

/// Narrow a u64 axis value into a u32 parameter, rejecting overflow with a
/// diagnostic (the `[base]` path parses these keys as u32 directly, so the
/// axis path must not be laxer and silently wrap).
fn narrow_u32(key: AxisKey, value: u64) -> Result<u32, SpecError> {
    u32::try_from(value).map_err(|_| {
        SpecError::general(format!(
            "axis {} value {value} does not fit a 32-bit count",
            key.name()
        ))
    })
}

/// Apply one axis value to `params`, returning the value's numeric
/// representation (None for the protocol axis).
fn apply_axis_value(
    params: &mut Params,
    key: AxisKey,
    values: &AxisValues,
    index: usize,
) -> Result<Option<f64>, SpecError> {
    match (key, values) {
        (AxisKey::Protocol, AxisValues::Protocols(list)) => {
            params.protocol = Some(list[index]);
            Ok(None)
        }
        (AxisKey::Replicas, AxisValues::Ints(list)) => {
            params.replicas = Some(narrow_u32(key, list[index])?);
            Ok(Some(list[index] as f64))
        }
        (AxisKey::Seed, AxisValues::Ints(list)) => {
            params.seed = Some(list[index]);
            Ok(Some(list[index] as f64))
        }
        (AxisKey::PaymentSharePct, AxisValues::Ints(list)) => {
            params.payment_share = Some(list[index] as f64 / 100.0);
            Ok(Some(list[index] as f64))
        }
        (AxisKey::MultiPayerPct, AxisValues::Ints(list)) => {
            params.multi_payer_share = Some(list[index] as f64 / 100.0);
            Ok(Some(list[index] as f64))
        }
        (AxisKey::CrashCount, AxisValues::Ints(list)) => {
            params.crash_count = Some(narrow_u32(key, list[index])?);
            Ok(Some(list[index] as f64))
        }
        (AxisKey::SelfishCount, AxisValues::Ints(list)) => {
            params.selfish_count = Some(narrow_u32(key, list[index])?);
            Ok(Some(list[index] as f64))
        }
        (AxisKey::ZipfExponent, AxisValues::Floats(list)) => {
            params.zipf_exponent = Some(list[index]);
            Ok(Some(list[index]))
        }
        (AxisKey::MaxInflightBlocks, AxisValues::Ints(list)) => {
            params.max_inflight_blocks = Some(list[index]);
            Ok(Some(list[index] as f64))
        }
        (key, _) => Err(SpecError::general(format!(
            "axis {} carries values of the wrong type",
            key.name()
        ))),
    }
}

fn apply_full_scale(sweep: &SweepSpec) -> Result<(Params, Vec<Axis>), SpecError> {
    let mut base = sweep.base.clone();
    let mut axes = sweep.axes.clone();
    for (key, value) in &sweep.full_scale {
        let as_axis =
            AxisKey::from_name(key).and_then(|k| axes.iter().position(|axis| axis.key == k));
        match as_axis {
            Some(position) => {
                axes[position] = parse_axis(key, value, 0).map_err(|err| {
                    SpecError::general(format!("full_scale override {key:?}: {}", err.msg))
                })?;
            }
            None => {
                base.set(key, value, 0, true).map_err(|err| {
                    SpecError::general(format!("full_scale override {key:?}: {}", err.msg))
                })?;
            }
        }
    }
    Ok((base, axes))
}

impl Spec {
    /// Lower the spec into runnable points at the given scale.
    ///
    /// Scenario specs yield exactly one point; sweeps yield their full
    /// cartesian grid in deterministic order (first axis outermost).
    pub fn lower(&self, scale: SpecScale) -> Result<Vec<LoweredPoint>, SpecError> {
        match self {
            Spec::Scenario(spec) => {
                let scenario = params_to_scenario(&spec.params)?;
                let label = spec
                    .params
                    .label
                    .clone()
                    .unwrap_or_else(|| scenario.protocol.label().to_string());
                let x = spec
                    .params
                    .x
                    .unwrap_or(f64::from(scenario.config.num_replicas));
                Ok(vec![LoweredPoint { label, x, scenario }])
            }
            Spec::Sweep(sweep) => {
                let (base, axes) = match scale {
                    SpecScale::Reduced => (sweep.base.clone(), sweep.axes.clone()),
                    SpecScale::Full => apply_full_scale(sweep)?,
                };
                // Cartesian product, first axis outermost.
                let mut combos: Vec<(Params, Option<f64>)> = vec![(base, None)];
                for axis in &axes {
                    let mut next = Vec::with_capacity(combos.len() * axis.values.len());
                    for (params, x) in &combos {
                        for index in 0..axis.values.len() {
                            let mut refined = params.clone();
                            let raw =
                                apply_axis_value(&mut refined, axis.key, &axis.values, index)?;
                            let x = if sweep.x_axis == Some(axis.key) {
                                raw
                            } else {
                                *x
                            };
                            next.push((refined, x));
                        }
                    }
                    combos = next;
                }
                combos
                    .into_iter()
                    .map(|(params, axis_x)| {
                        let scenario = params_to_scenario(&params)?;
                        let label = params
                            .label
                            .clone()
                            .unwrap_or_else(|| scenario.protocol.label().to_string());
                        let x = params
                            .x
                            .or(axis_x)
                            .or_else(|| sweep.x_axis.and_then(|key| x_from_params(key, &params)))
                            .unwrap_or(f64::from(scenario.config.num_replicas));
                        Ok(LoweredPoint { label, x, scenario })
                    })
                    .collect()
            }
        }
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
    use orthrus_types::{NetworkKind, ProtocolKind};

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
        // The [base] path parses `replicas` as u32 and rejects overflow; the
        // axis path must do the same instead of wrapping 2^32 + 4 to 4.
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
        let spec = parse(doc).expect("parse");
        let err = spec.lower(SpecScale::Reduced).expect_err("must reject");
        assert!(err.to_string().contains("does not fit"), "{err}");
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
        let spec = parse(doc).expect("parse");
        let points = spec.lower(SpecScale::Reduced).expect("lower");
        assert_eq!(points.len(), 1);
        let scenario = &points[0].scenario;
        assert_eq!(scenario.faults.crash_recoveries.len(), 1);
        let spec_fault = scenario.faults.crash_recoveries[0];
        assert_eq!(spec_fault.replica.value(), 2);
        assert_eq!(spec_fault.crash_at, SimTime::from_millis(300));
        assert_eq!(spec_fault.recover_at, SimTime::from_millis(1800));
        assert!(scenario.validate().is_ok());
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
