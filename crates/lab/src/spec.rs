//! The `.orth` experiment-spec format: a zero-dependency, line-oriented
//! `key = value` notation for scenarios and sweep grids.
//!
//! # Grammar
//!
//! ```text
//! file     := line*
//! line     := blank | comment | kv | section
//! comment  := '#' <anything>                 (full-line only)
//! section  := '[' name ']'                   (scenario | base | axes | full_scale)
//! kv       := key '=' value                  (key: [a-z0-9_]+, value: to end of line)
//! ```
//!
//! Top-level keys (before any section): `kind` (`scenario` | `sweep`),
//! `name`, `title` (optional), `x_axis` (sweeps, optional).
//!
//! A `kind = scenario` file holds one `[scenario]` section; a `kind = sweep`
//! file holds a `[base]` section (scenario defaults), an `[axes]` section
//! whose entries form a cartesian grid (first axis outermost), and an
//! optional `[full_scale]` section of overrides applied when lowering at
//! [`crate::SpecScale::Full`].
//!
//! Parsing and serialization are exact inverses at the data-model level:
//! `parse(serialize(spec)) == spec` for every valid spec (a seeded-loop
//! property test pins this). Comments and blank lines are the only content
//! the round trip does not preserve.

use orthrus_core::StopCondition;
use orthrus_types::{NetworkKind, ProtocolKind};
use std::fmt;
use std::fmt::Write as _;

/// A parse or lowering error, with the 1-based source line when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number in the spec source, if the error is positional.
    pub line: Option<usize>,
    /// Human-readable description.
    pub msg: String,
}

impl SpecError {
    pub(crate) fn at(line: usize, msg: impl Into<String>) -> Self {
        Self {
            line: Some(line),
            msg: msg.into(),
        }
    }

    pub(crate) fn general(msg: impl Into<String>) -> Self {
        Self {
            line: None,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for orthrus_types::OrthrusError {
    fn from(err: SpecError) -> Self {
        orthrus_types::OrthrusError::Config(format!("spec error: {err}"))
    }
}

/// One experiment spec: a single scenario or a sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// A single named scenario.
    Scenario(ScenarioSpec),
    /// A named sweep: base parameters × axis grid.
    Sweep(SweepSpec),
}

impl Spec {
    /// The spec's registry name.
    pub fn name(&self) -> &str {
        match self {
            Spec::Scenario(s) => &s.name,
            Spec::Sweep(s) => &s.name,
        }
    }

    /// The human-readable title, if one is set.
    pub fn title(&self) -> Option<&str> {
        match self {
            Spec::Scenario(s) => s.title.as_deref(),
            Spec::Sweep(s) => s.title.as_deref(),
        }
    }

    /// `"scenario"` or `"sweep"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Spec::Scenario(_) => "scenario",
            Spec::Sweep(_) => "sweep",
        }
    }
}

/// A single named scenario spec (`kind = scenario`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry name (matches the file stem for checked-in specs).
    pub name: String,
    /// Optional human-readable title.
    pub title: Option<String>,
    /// The scenario parameters (`[scenario]` section).
    pub params: Params,
}

/// A named sweep spec (`kind = sweep`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Registry name (matches the file stem for checked-in specs).
    pub name: String,
    /// Optional human-readable title.
    pub title: Option<String>,
    /// Which axis provides each point's x value (default: `replicas`).
    pub x_axis: Option<AxisKey>,
    /// Scenario defaults every grid point starts from (`[base]` section).
    pub base: Params,
    /// The grid axes, first axis outermost (`[axes]` section).
    pub axes: Vec<Axis>,
    /// Raw `key = value` overrides applied at full scale (`[full_scale]`
    /// section): keys naming an existing axis replace that axis's values,
    /// all other keys override the base parameters.
    pub full_scale: Vec<(String, String)>,
}

/// Scenario parameters as written in a spec (`[scenario]` / `[base]`
/// sections). Every field is optional; unset fields keep the defaults of
/// [`orthrus_core::Scenario::new`] with a full-size
/// [`orthrus_workload::WorkloadConfig::default`] workload (see the lowering
/// rules in `ARCHITECTURE.md`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    /// `protocol = orthrus | iss | rcc | mir | dqbft | ladon`
    pub protocol: Option<ProtocolKind>,
    /// `network = lan | wan`
    pub network: Option<NetworkKind>,
    /// `replicas = <u32>` (instances follow `m = n`)
    pub replicas: Option<u32>,
    /// `clients = <u64>` client-actor count
    pub clients: Option<u64>,
    /// `seed = <u64>` (single source of truth; drives the workload too)
    pub seed: Option<u64>,
    /// `batch_size = <usize>`
    pub batch_size: Option<usize>,
    /// `batch_timeout_ms = <u64>`
    pub batch_timeout_ms: Option<u64>,
    /// `view_change_timeout_ms = <u64>`
    pub view_change_timeout_ms: Option<u64>,
    /// `max_inflight_blocks = <u64>`
    pub max_inflight_blocks: Option<u64>,
    /// `accounts = <u64>`
    pub accounts: Option<u64>,
    /// `transactions = <usize>`
    pub transactions: Option<usize>,
    /// `payment_share = <f64 in [0,1]>`
    pub payment_share: Option<f64>,
    /// `multi_payer_share = <f64 in [0,1]>`
    pub multi_payer_share: Option<f64>,
    /// `shared_objects = <u64>`
    pub shared_objects: Option<u64>,
    /// `zipf_exponent = <f64>`
    pub zipf_exponent: Option<f64>,
    /// `payload_bytes = <u32>`
    pub payload_bytes: Option<u32>,
    /// `initial_balance = <u64>`
    pub initial_balance: Option<u64>,
    /// `max_transfer = <u64>`
    pub max_transfer: Option<u64>,
    /// `submission_window_ms = <u64>`
    pub submission_window_ms: Option<u64>,
    /// `max_sim_time_ms = <u64>`
    pub max_sim_time_ms: Option<u64>,
    /// `stop = all_confirmed, digests_quiesce, sim_time_limit` (any subset)
    pub stop: Option<Vec<StopCondition>>,
    /// `stragglers = <replica>x<factor>, ...` (e.g. `0x10`)
    pub stragglers: Option<Vec<(u32, f64)>>,
    /// `crashes = <replica>@<ms>, ...` (e.g. `1@9000`)
    pub crashes: Option<Vec<(u32, u64)>>,
    /// `crash_recover = <replica>@<crash_ms>..<recover_ms>, ...`
    /// (e.g. `2@9000..15000`): the replica is silent in the window and then
    /// restarts, rejoining via state transfer.
    pub crash_recover: Option<Vec<(u32, u64, u64)>>,
    /// `selfish = <replica>, ...`
    pub selfish: Option<Vec<u32>>,
    /// `crash_count = <u32>`: crash replicas `1..=count` at `crash_at_ms`
    /// (the paper's Fig. 7 placement: instance 0 keeps its leader).
    pub crash_count: Option<u32>,
    /// `crash_at_ms = <u64>` (default 9000, the paper's t = 9 s)
    pub crash_at_ms: Option<u64>,
    /// `selfish_count = <u32>`: flag replicas `n-1, n-2, ...` as selfish
    /// (the paper's Fig. 8 placement: chosen from the tail so they lead
    /// instances other than instance 0).
    pub selfish_count: Option<u32>,
    /// `label = <string>` series label (default: the protocol's label)
    pub label: Option<String>,
    /// `x = <f64>` explicit x value (default: from `x_axis`, else replicas)
    pub x: Option<f64>,
}

/// The sweepable axes. Each key also names the value written into
/// [`crate::LoweredPoint::x`] when it is the sweep's `x_axis`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisKey {
    /// Protocol under test (not usable as `x_axis`).
    Protocol,
    /// Replica count (`m = n` instances follow).
    Replicas,
    /// Scenario seed (supports `start..=end` ranges).
    Seed,
    /// Payment share in percent (lowered to `payment_share = pct / 100`).
    PaymentSharePct,
    /// Multi-payer share in percent.
    MultiPayerPct,
    /// Number of crash faults (placement as in `Params::crash_count`).
    CrashCount,
    /// Number of selfish replicas (placement as in `Params::selfish_count`).
    SelfishCount,
    /// Zipf exponent of account popularity.
    ZipfExponent,
    /// Per-instance leader pipelining depth
    /// (`ProtocolConfig::max_inflight_blocks`) — the adaptive-batching sweep
    /// axis.
    MaxInflightBlocks,
}

impl AxisKey {
    /// All axis keys (used by the parser and lint diagnostics).
    pub const ALL: [AxisKey; 9] = [
        AxisKey::Protocol,
        AxisKey::Replicas,
        AxisKey::Seed,
        AxisKey::PaymentSharePct,
        AxisKey::MultiPayerPct,
        AxisKey::CrashCount,
        AxisKey::SelfishCount,
        AxisKey::ZipfExponent,
        AxisKey::MaxInflightBlocks,
    ];

    /// Stable spec-file name of the axis.
    pub fn name(self) -> &'static str {
        match self {
            AxisKey::Protocol => "protocol",
            AxisKey::Replicas => "replicas",
            AxisKey::Seed => "seed",
            AxisKey::PaymentSharePct => "payment_share_pct",
            AxisKey::MultiPayerPct => "multi_payer_pct",
            AxisKey::CrashCount => "crash_count",
            AxisKey::SelfishCount => "selfish_count",
            AxisKey::ZipfExponent => "zipf_exponent",
            AxisKey::MaxInflightBlocks => "max_inflight_blocks",
        }
    }

    /// Parse a spec-file name back into an axis key.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One sweep axis: a key plus its value list.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Which knob the axis sweeps.
    pub key: AxisKey,
    /// The values, in sweep order.
    pub values: AxisValues,
}

/// Axis values, typed per [`AxisKey`]: `protocol` takes protocol names,
/// `zipf_exponent` takes floats, every other axis takes unsigned integers
/// (written as a comma list or, for seeds, a `start..=end` range).
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// Protocol names (the `protocol` axis).
    Protocols(Vec<ProtocolKind>),
    /// Unsigned integers (every numeric axis except `zipf_exponent`).
    Ints(Vec<u64>),
    /// Floats (the `zipf_exponent` axis).
    Floats(Vec<f64>),
}

impl AxisValues {
    /// Number of values on the axis.
    pub fn len(&self) -> usize {
        match self {
            AxisValues::Protocols(v) => v.len(),
            AxisValues::Ints(v) => v.len(),
            AxisValues::Floats(v) => v.len(),
        }
    }

    /// Is the axis empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

fn protocol_name(protocol: ProtocolKind) -> &'static str {
    match protocol {
        ProtocolKind::Orthrus => "orthrus",
        ProtocolKind::Iss => "iss",
        ProtocolKind::Rcc => "rcc",
        ProtocolKind::MirBft => "mir",
        ProtocolKind::Dqbft => "dqbft",
        ProtocolKind::Ladon => "ladon",
    }
}

fn parse_protocol(value: &str, line: usize) -> Result<ProtocolKind, SpecError> {
    ProtocolKind::ALL
        .into_iter()
        .find(|p| protocol_name(*p) == value)
        .ok_or_else(|| {
            SpecError::at(
                line,
                format!("unknown protocol {value:?} (orthrus|iss|rcc|mir|dqbft|ladon)"),
            )
        })
}

fn parse_network(value: &str, line: usize) -> Result<NetworkKind, SpecError> {
    match value {
        "lan" => Ok(NetworkKind::Lan),
        "wan" => Ok(NetworkKind::Wan),
        _ => Err(SpecError::at(
            line,
            format!("unknown network {value:?} (lan|wan)"),
        )),
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, line: usize, what: &str) -> Result<T, SpecError> {
    value
        .parse::<T>()
        .map_err(|_| SpecError::at(line, format!("invalid {what}: {value:?}")))
}

/// Parse a float, rejecting `NaN`/`inf`: non-finite values have no place in
/// the spec format and would corrupt the emitted JSON series downstream.
fn parse_finite_f64(value: &str, line: usize, what: &str) -> Result<f64, SpecError> {
    let parsed: f64 = parse_num(value, line, what)?;
    if !parsed.is_finite() {
        return Err(SpecError::at(
            line,
            format!("{what} must be finite, got {value:?}"),
        ));
    }
    Ok(parsed)
}

fn list_items(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Parse an integer list, allowing a single inclusive `start..=end` range
/// (used for seed axes and anywhere a dense integer list would be tedious).
fn parse_int_list(value: &str, line: usize, what: &str) -> Result<Vec<u64>, SpecError> {
    if let Some((start, end)) = value.split_once("..=") {
        let start: u64 = parse_num(start.trim(), line, what)?;
        let end: u64 = parse_num(end.trim(), line, what)?;
        if end < start {
            return Err(SpecError::at(
                line,
                format!("empty range {start}..={end} for {what}"),
            ));
        }
        return Ok((start..=end).collect());
    }
    list_items(value)
        .map(|item| parse_num(item, line, what))
        .collect()
}

impl Params {
    /// Set `key` from its textual `value`. `overwrite` is only allowed for
    /// `[full_scale]` overrides; inside a section a duplicate key is an
    /// error.
    pub(crate) fn set(
        &mut self,
        key: &str,
        value: &str,
        line: usize,
        overwrite: bool,
    ) -> Result<(), SpecError> {
        macro_rules! put {
            ($field:ident, $parsed:expr) => {{
                if self.$field.is_some() && !overwrite {
                    return Err(SpecError::at(line, format!("duplicate key {key:?}")));
                }
                self.$field = Some($parsed);
                Ok(())
            }};
        }
        match key {
            "protocol" => put!(protocol, parse_protocol(value, line)?),
            "network" => put!(network, parse_network(value, line)?),
            "replicas" => put!(replicas, parse_num(value, line, "replica count")?),
            "clients" => put!(clients, parse_num(value, line, "client count")?),
            "seed" => put!(seed, parse_num(value, line, "seed")?),
            "batch_size" => put!(batch_size, parse_num(value, line, "batch size")?),
            "batch_timeout_ms" => put!(batch_timeout_ms, parse_num(value, line, "timeout")?),
            "view_change_timeout_ms" => {
                put!(view_change_timeout_ms, parse_num(value, line, "timeout")?)
            }
            "max_inflight_blocks" => {
                put!(max_inflight_blocks, parse_num(value, line, "depth")?)
            }
            "accounts" => put!(accounts, parse_num(value, line, "account count")?),
            "transactions" => put!(transactions, parse_num(value, line, "transaction count")?),
            "payment_share" => put!(payment_share, parse_finite_f64(value, line, "share")?),
            "multi_payer_share" => {
                put!(multi_payer_share, parse_finite_f64(value, line, "share")?)
            }
            "shared_objects" => put!(shared_objects, parse_num(value, line, "object count")?),
            "zipf_exponent" => put!(zipf_exponent, parse_finite_f64(value, line, "exponent")?),
            "payload_bytes" => put!(payload_bytes, parse_num(value, line, "byte count")?),
            "initial_balance" => put!(initial_balance, parse_num(value, line, "balance")?),
            "max_transfer" => put!(max_transfer, parse_num(value, line, "amount")?),
            "submission_window_ms" => {
                put!(submission_window_ms, parse_num(value, line, "duration")?)
            }
            "max_sim_time_ms" => put!(max_sim_time_ms, parse_num(value, line, "duration")?),
            "stop" => {
                let conditions: Vec<StopCondition> = list_items(value)
                    .map(|item| {
                        StopCondition::from_name(item).ok_or_else(|| {
                            SpecError::at(
                                line,
                                format!(
                                    "unknown stop condition {item:?} \
                                     (all_confirmed|digests_quiesce|sim_time_limit)"
                                ),
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
                put!(stop, conditions)
            }
            "stragglers" => {
                let entries: Vec<(u32, f64)> = list_items(value)
                    .map(|item| {
                        let (replica, factor) = item.split_once('x').ok_or_else(|| {
                            SpecError::at(
                                line,
                                format!("straggler {item:?} is not <replica>x<factor>"),
                            )
                        })?;
                        Ok((
                            parse_num(replica.trim(), line, "replica id")?,
                            parse_finite_f64(factor.trim(), line, "slowdown factor")?,
                        ))
                    })
                    .collect::<Result<_, SpecError>>()?;
                put!(stragglers, entries)
            }
            "crashes" => {
                let entries: Vec<(u32, u64)> = list_items(value)
                    .map(|item| {
                        let (replica, at) = item.split_once('@').ok_or_else(|| {
                            SpecError::at(line, format!("crash {item:?} is not <replica>@<ms>"))
                        })?;
                        Ok((
                            parse_num(replica.trim(), line, "replica id")?,
                            parse_num(at.trim(), line, "crash time (ms)")?,
                        ))
                    })
                    .collect::<Result<_, SpecError>>()?;
                put!(crashes, entries)
            }
            "crash_recover" => {
                let entries: Vec<(u32, u64, u64)> = list_items(value)
                    .map(|item| {
                        let (replica, window) = item.split_once('@').ok_or_else(|| {
                            SpecError::at(
                                line,
                                format!(
                                    "crash_recover {item:?} is not \
                                     <replica>@<crash_ms>..<recover_ms>"
                                ),
                            )
                        })?;
                        let (crash_ms, recover_ms) = window.split_once("..").ok_or_else(|| {
                            SpecError::at(
                                line,
                                format!(
                                    "crash_recover {item:?} is missing the \
                                     <crash_ms>..<recover_ms> window"
                                ),
                            )
                        })?;
                        Ok((
                            parse_num(replica.trim(), line, "replica id")?,
                            parse_num(crash_ms.trim(), line, "crash time (ms)")?,
                            parse_num(recover_ms.trim(), line, "recovery time (ms)")?,
                        ))
                    })
                    .collect::<Result<_, SpecError>>()?;
                put!(crash_recover, entries)
            }
            "selfish" => {
                let entries: Vec<u32> = list_items(value)
                    .map(|item| parse_num(item, line, "replica id"))
                    .collect::<Result<_, _>>()?;
                put!(selfish, entries)
            }
            "crash_count" => put!(crash_count, parse_num(value, line, "fault count")?),
            "crash_at_ms" => put!(crash_at_ms, parse_num(value, line, "crash time (ms)")?),
            "selfish_count" => put!(selfish_count, parse_num(value, line, "fault count")?),
            "label" => {
                // Labels flow into the emitted JSON/CSV series verbatim, so
                // keep them to a charset that cannot corrupt either format.
                if value.is_empty()
                    || value
                        .chars()
                        .any(|c| c.is_control() || matches!(c, '"' | '\\' | ','))
                {
                    return Err(SpecError::at(
                        line,
                        format!(
                            "label {value:?} must be non-empty and free of quotes, \
                             backslashes, commas and control characters"
                        ),
                    ));
                }
                put!(label, value.to_string())
            }
            "x" => put!(x, parse_finite_f64(value, line, "x value")?),
            _ => Err(SpecError::at(line, format!("unknown parameter {key:?}"))),
        }
    }
}

pub(crate) fn parse_axis(key: &str, value: &str, line: usize) -> Result<Axis, SpecError> {
    let key = AxisKey::from_name(key).ok_or_else(|| {
        let known: Vec<&str> = AxisKey::ALL.iter().map(|k| k.name()).collect();
        SpecError::at(
            line,
            format!("unknown axis {key:?} (known axes: {})", known.join(", ")),
        )
    })?;
    let values = match key {
        AxisKey::Protocol => AxisValues::Protocols(
            list_items(value)
                .map(|item| parse_protocol(item, line))
                .collect::<Result<_, _>>()?,
        ),
        AxisKey::ZipfExponent => AxisValues::Floats(
            list_items(value)
                .map(|item| parse_finite_f64(item, line, "exponent"))
                .collect::<Result<_, _>>()?,
        ),
        _ => AxisValues::Ints(parse_int_list(value, line, key.name())?),
    };
    if values.is_empty() {
        return Err(SpecError::at(line, format!("axis {} is empty", key.name())));
    }
    Ok(Axis { key, values })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Top,
    Scenario,
    Base,
    Axes,
    FullScale,
}

/// Parse one `.orth` document into a [`Spec`].
pub fn parse(text: &str) -> Result<Spec, SpecError> {
    let mut kind: Option<(String, usize)> = None;
    let mut name: Option<String> = None;
    let mut title: Option<String> = None;
    let mut x_axis: Option<AxisKey> = None;
    let mut scenario_params: Option<Params> = None;
    let mut base: Option<Params> = None;
    let mut axes: Vec<Axis> = Vec::new();
    let mut saw_axes = false;
    let mut full_scale: Vec<(String, String)> = Vec::new();
    let mut saw_full_scale = false;
    let mut section = Section::Top;

    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(inner) = trimmed.strip_prefix('[') {
            let section_name = inner.strip_suffix(']').ok_or_else(|| {
                SpecError::at(line, format!("unterminated section header {trimmed:?}"))
            })?;
            section = match section_name.trim() {
                "scenario" => {
                    if scenario_params.is_some() {
                        return Err(SpecError::at(line, "duplicate [scenario] section"));
                    }
                    scenario_params = Some(Params::default());
                    Section::Scenario
                }
                "base" => {
                    if base.is_some() {
                        return Err(SpecError::at(line, "duplicate [base] section"));
                    }
                    base = Some(Params::default());
                    Section::Base
                }
                "axes" => {
                    if saw_axes {
                        return Err(SpecError::at(line, "duplicate [axes] section"));
                    }
                    saw_axes = true;
                    Section::Axes
                }
                "full_scale" => {
                    if saw_full_scale {
                        return Err(SpecError::at(line, "duplicate [full_scale] section"));
                    }
                    saw_full_scale = true;
                    Section::FullScale
                }
                other => {
                    return Err(SpecError::at(line, format!("unknown section [{other}]")));
                }
            };
            continue;
        }
        let (key, value) = trimmed.split_once('=').ok_or_else(|| {
            SpecError::at(line, format!("expected `key = value`, got {trimmed:?}"))
        })?;
        let key = key.trim();
        let value = value.trim();
        match section {
            Section::Top => match key {
                "kind" => {
                    if kind.is_some() {
                        return Err(SpecError::at(line, "duplicate key \"kind\""));
                    }
                    kind = Some((value.to_string(), line));
                }
                "name" => {
                    if name.is_some() {
                        return Err(SpecError::at(line, "duplicate key \"name\""));
                    }
                    if value.is_empty()
                        || !value
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                    {
                        return Err(SpecError::at(
                            line,
                            format!("name {value:?} must be non-empty [a-z0-9_]+"),
                        ));
                    }
                    name = Some(value.to_string());
                }
                "title" => {
                    if title.is_some() {
                        return Err(SpecError::at(line, "duplicate key \"title\""));
                    }
                    title = Some(value.to_string());
                }
                "x_axis" => {
                    if x_axis.is_some() {
                        return Err(SpecError::at(line, "duplicate key \"x_axis\""));
                    }
                    let axis = AxisKey::from_name(value)
                        .ok_or_else(|| SpecError::at(line, format!("unknown x_axis {value:?}")))?;
                    if axis == AxisKey::Protocol {
                        return Err(SpecError::at(
                            line,
                            format!("x_axis = {} is not numeric", axis.name()),
                        ));
                    }
                    x_axis = Some(axis);
                }
                other => {
                    return Err(SpecError::at(
                        line,
                        format!("unknown top-level key {other:?} (kind|name|title|x_axis)"),
                    ));
                }
            },
            Section::Scenario => {
                scenario_params
                    .as_mut()
                    .expect("section implies params")
                    .set(key, value, line, false)?;
            }
            Section::Base => {
                base.as_mut()
                    .expect("section implies params")
                    .set(key, value, line, false)?;
            }
            Section::Axes => {
                let axis = parse_axis(key, value, line)?;
                if axes.iter().any(|a| a.key == axis.key) {
                    return Err(SpecError::at(line, format!("duplicate axis {key:?}")));
                }
                axes.push(axis);
            }
            Section::FullScale => {
                if full_scale.iter().any(|(k, _)| k == key) {
                    return Err(SpecError::at(
                        line,
                        format!("duplicate full_scale override {key:?}"),
                    ));
                }
                full_scale.push((key.to_string(), value.to_string()));
            }
        }
    }

    let name = name.ok_or_else(|| SpecError::general("missing top-level `name`"))?;
    let (kind, kind_line) =
        kind.ok_or_else(|| SpecError::general("missing top-level `kind` (scenario|sweep)"))?;
    match kind.as_str() {
        "scenario" => {
            if base.is_some() || saw_axes || saw_full_scale || x_axis.is_some() {
                return Err(SpecError::at(
                    kind_line,
                    "kind = scenario admits only a [scenario] section",
                ));
            }
            let params = scenario_params
                .ok_or_else(|| SpecError::general("kind = scenario needs a [scenario] section"))?;
            Ok(Spec::Scenario(ScenarioSpec {
                name,
                title,
                params,
            }))
        }
        "sweep" => {
            if scenario_params.is_some() {
                return Err(SpecError::at(
                    kind_line,
                    "kind = sweep uses [base], not [scenario]",
                ));
            }
            let base =
                base.ok_or_else(|| SpecError::general("kind = sweep needs a [base] section"))?;
            if axes.is_empty() {
                return Err(SpecError::general(
                    "kind = sweep needs an [axes] section with at least one axis",
                ));
            }
            Ok(Spec::Sweep(SweepSpec {
                name,
                title,
                x_axis,
                base,
                axes,
                full_scale,
            }))
        }
        other => Err(SpecError::at(
            kind_line,
            format!("unknown kind {other:?} (scenario|sweep)"),
        )),
    }
}

// ----------------------------------------------------------------------
// Serialization
// ----------------------------------------------------------------------

fn write_params(out: &mut String, params: &Params) {
    macro_rules! kv {
        ($key:literal, $value:expr) => {
            if let Some(v) = &$value {
                let _ = writeln!(out, concat!($key, " = {}"), v);
            }
        };
    }
    if let Some(p) = params.protocol {
        let _ = writeln!(out, "protocol = {}", protocol_name(p));
    }
    if let Some(n) = params.network {
        let _ = writeln!(
            out,
            "network = {}",
            match n {
                NetworkKind::Lan => "lan",
                NetworkKind::Wan => "wan",
            }
        );
    }
    kv!("replicas", params.replicas);
    kv!("clients", params.clients);
    kv!("seed", params.seed);
    kv!("batch_size", params.batch_size);
    kv!("batch_timeout_ms", params.batch_timeout_ms);
    kv!("view_change_timeout_ms", params.view_change_timeout_ms);
    kv!("max_inflight_blocks", params.max_inflight_blocks);
    kv!("accounts", params.accounts);
    kv!("transactions", params.transactions);
    kv!("payment_share", params.payment_share);
    kv!("multi_payer_share", params.multi_payer_share);
    kv!("shared_objects", params.shared_objects);
    kv!("zipf_exponent", params.zipf_exponent);
    kv!("payload_bytes", params.payload_bytes);
    kv!("initial_balance", params.initial_balance);
    kv!("max_transfer", params.max_transfer);
    kv!("submission_window_ms", params.submission_window_ms);
    kv!("max_sim_time_ms", params.max_sim_time_ms);
    if let Some(stop) = &params.stop {
        let names: Vec<&str> = stop.iter().map(|c| c.name()).collect();
        let _ = writeln!(out, "stop = {}", names.join(", "));
    }
    if let Some(stragglers) = &params.stragglers {
        let items: Vec<String> = stragglers
            .iter()
            .map(|(replica, factor)| format!("{replica}x{factor}"))
            .collect();
        let _ = writeln!(out, "stragglers = {}", items.join(", "));
    }
    if let Some(crashes) = &params.crashes {
        let items: Vec<String> = crashes
            .iter()
            .map(|(replica, at)| format!("{replica}@{at}"))
            .collect();
        let _ = writeln!(out, "crashes = {}", items.join(", "));
    }
    if let Some(recoveries) = &params.crash_recover {
        let items: Vec<String> = recoveries
            .iter()
            .map(|(replica, crash_ms, recover_ms)| format!("{replica}@{crash_ms}..{recover_ms}"))
            .collect();
        let _ = writeln!(out, "crash_recover = {}", items.join(", "));
    }
    if let Some(selfish) = &params.selfish {
        let items: Vec<String> = selfish.iter().map(u32::to_string).collect();
        let _ = writeln!(out, "selfish = {}", items.join(", "));
    }
    kv!("crash_count", params.crash_count);
    kv!("crash_at_ms", params.crash_at_ms);
    kv!("selfish_count", params.selfish_count);
    kv!("label", params.label);
    kv!("x", params.x);
}

fn write_axis(out: &mut String, axis: &Axis) {
    let values = match &axis.values {
        AxisValues::Protocols(list) => list
            .iter()
            .map(|p| protocol_name(*p).to_string())
            .collect::<Vec<_>>(),
        AxisValues::Ints(list) => list.iter().map(u64::to_string).collect(),
        AxisValues::Floats(list) => list.iter().map(f64::to_string).collect(),
    };
    let _ = writeln!(out, "{} = {}", axis.key.name(), values.join(", "));
}

/// Serialize a [`Spec`] into its canonical `.orth` text. Exact inverse of
/// [`parse`] at the data-model level: `parse(serialize(spec)) == spec`.
pub fn serialize(spec: &Spec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "kind = {}", spec.kind());
    let _ = writeln!(out, "name = {}", spec.name());
    if let Some(title) = spec.title() {
        let _ = writeln!(out, "title = {title}");
    }
    match spec {
        Spec::Scenario(scenario) => {
            out.push('\n');
            out.push_str("[scenario]\n");
            write_params(&mut out, &scenario.params);
        }
        Spec::Sweep(sweep) => {
            if let Some(x_axis) = sweep.x_axis {
                let _ = writeln!(out, "x_axis = {}", x_axis.name());
            }
            out.push('\n');
            out.push_str("[base]\n");
            write_params(&mut out, &sweep.base);
            out.push('\n');
            out.push_str("[axes]\n");
            for axis in &sweep.axes {
                write_axis(&mut out, axis);
            }
            if !sweep.full_scale.is_empty() {
                out.push('\n');
                out.push_str("[full_scale]\n");
                for (key, value) in &sweep.full_scale {
                    let _ = writeln!(out, "{key} = {value}");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO_DOC: &str = "\
# a comment\n\
kind = scenario\n\
name = tiny\n\
title = Tiny smoke scenario\n\
\n\
[scenario]\n\
protocol = orthrus\n\
network = lan\n\
replicas = 4\n\
transactions = 120\n\
accounts = 32\n\
seed = 7\n";

    #[test]
    fn parses_a_scenario_spec() {
        let spec = parse(SCENARIO_DOC).expect("parse");
        let Spec::Scenario(scenario) = &spec else {
            panic!("expected a scenario spec");
        };
        assert_eq!(scenario.name, "tiny");
        assert_eq!(scenario.title.as_deref(), Some("Tiny smoke scenario"));
        assert_eq!(scenario.params.protocol, Some(ProtocolKind::Orthrus));
        assert_eq!(scenario.params.replicas, Some(4));
        assert_eq!(scenario.params.transactions, Some(120));
        assert_eq!(scenario.params.seed, Some(7));
    }

    #[test]
    fn parses_a_sweep_spec_with_axes_in_order() {
        let doc = "\
kind = sweep\n\
name = grid\n\
x_axis = replicas\n\
\n\
[base]\n\
network = wan\n\
payment_share = 0.46\n\
stragglers = 0x10\n\
\n\
[axes]\n\
replicas = 4, 8, 16\n\
protocol = orthrus, iss\n\
\n\
[full_scale]\n\
replicas = 8, 16, 32\n\
transactions = 200000\n";
        let spec = parse(doc).expect("parse");
        let Spec::Sweep(sweep) = &spec else {
            panic!("expected a sweep spec");
        };
        assert_eq!(sweep.x_axis, Some(AxisKey::Replicas));
        assert_eq!(sweep.axes.len(), 2);
        assert_eq!(sweep.axes[0].key, AxisKey::Replicas);
        assert_eq!(sweep.axes[1].key, AxisKey::Protocol);
        assert_eq!(sweep.base.stragglers, Some(vec![(0, 10.0)]));
        assert_eq!(sweep.full_scale.len(), 2);
    }

    #[test]
    fn seed_ranges_expand() {
        let axis = parse_axis("seed", "3..=6", 1).expect("axis");
        assert_eq!(axis.values, AxisValues::Ints(vec![3, 4, 5, 6]));
    }

    #[test]
    fn crash_recover_stanza_parses_and_round_trips() {
        let doc = "\
kind = scenario\n\
name = rec\n\
\n\
[scenario]\n\
protocol = orthrus\n\
network = lan\n\
replicas = 4\n\
crash_recover = 2@300..1800, 3@9000..15000\n";
        let spec = parse(doc).expect("parse");
        let Spec::Scenario(scenario) = &spec else {
            panic!("expected a scenario spec");
        };
        assert_eq!(
            scenario.params.crash_recover,
            Some(vec![(2, 300, 1800), (3, 9000, 15000)])
        );
        let reparsed = parse(&serialize(&spec)).expect("reparse");
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn malformed_crash_recover_stanzas_are_rejected_with_lines() {
        for (value, needle) in [
            ("2", "crash_recover"),
            ("2@300", "window"),
            ("2@300..x", "recovery time"),
            ("x@300..400", "replica id"),
        ] {
            let doc = format!(
                "kind = scenario\nname = rec\n\n[scenario]\nprotocol = orthrus\n\
                 network = lan\nreplicas = 4\ncrash_recover = {value}\n"
            );
            let err = parse(&doc).expect_err(&doc);
            assert_eq!(err.line, Some(8), "{value}");
            assert!(err.to_string().contains(needle), "{value} -> {err}");
        }
    }

    #[test]
    fn max_inflight_blocks_is_a_sweepable_axis() {
        let axis = parse_axis("max_inflight_blocks", "1, 4, 16", 1).expect("axis");
        assert_eq!(axis.key, AxisKey::MaxInflightBlocks);
        assert_eq!(axis.values, AxisValues::Ints(vec![1, 4, 16]));
        assert_eq!(
            AxisKey::from_name("max_inflight_blocks"),
            Some(AxisKey::MaxInflightBlocks)
        );
    }

    #[test]
    fn round_trips_through_serialize() {
        let spec = parse(SCENARIO_DOC).expect("parse");
        let text = serialize(&spec);
        let reparsed = parse(&text).expect("reparse");
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases = [
            ("name = x\n[scenario]\nprotocol = orthrus\n", "kind"),
            ("kind = scenario\n[scenario]\n", "name"),
            ("kind = banana\nname = x\n[scenario]\n", "banana"),
            ("kind = scenario\nname = x\n[axes]\n", "scenario"),
            ("kind = sweep\nname = x\n[base]\n", "axes"),
            (
                "kind = scenario\nname = x\n[scenario]\nprotocol = foo\n",
                "protocol",
            ),
            (
                "kind = scenario\nname = x\n[scenario]\nbananas = 4\n",
                "bananas",
            ),
            (
                "kind = scenario\nname = x\n[scenario]\nseed = 1\nseed = 2\n",
                "duplicate",
            ),
            ("kind = sweep\nname = x\nx_axis = protocol\n", "numeric"),
            ("kind = scenario\nname = Bad-Name\n[scenario]\n", "name"),
            (
                "kind = sweep\nname = x\n[base]\n[axes]\nreplicas =\n",
                "empty",
            ),
            ("kind = scenario\nname = x\n[scenario]\nx = NaN\n", "finite"),
            (
                "kind = scenario\nname = x\n[scenario]\nzipf_exponent = inf\n",
                "finite",
            ),
            (
                "kind = scenario\nname = x\n[scenario]\nlabel = say \"hi\"\n",
                "label",
            ),
            (
                "kind = scenario\nname = x\n[scenario]\nlabel = a,b\n",
                "label",
            ),
        ];
        for (doc, needle) in cases {
            let err = parse(doc).expect_err(doc);
            assert!(
                err.to_string().contains(needle),
                "{doc:?} -> {err} (expected {needle:?})"
            );
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "kind = scenario\nname = x\n[scenario]\nprotocol = nope\n";
        let err = parse(doc).expect_err("must fail");
        assert_eq!(err.line, Some(4));
    }
}
