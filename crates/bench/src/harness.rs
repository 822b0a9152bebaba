//! Measuring, printing and serializing sweep points: the wall-clock half of
//! `orthrus run`.

use orthrus_core::{parallel_map, run_scenario, Scenario, ScenarioOutcome};
use orthrus_lab::LoweredPoint;
use orthrus_sim::ThroughputPoint;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured point of a figure series: a finished scenario plus the
/// series label and x value it is reported under.
#[derive(Debug, Clone)]
pub struct MeasuredPoint {
    /// Series label (matches the paper's legends).
    pub label: String,
    /// X-axis value (replica count, payment share, time, fault count …).
    pub x: f64,
    /// Everything the run measured.
    pub outcome: ScenarioOutcome,
    /// Wall-clock time the scenario took to simulate, in milliseconds.
    /// Measured under whatever concurrency the sweep ran with, so points
    /// timed on a busy pool include contention — compare trajectories only
    /// across runs with the same `ORTHRUS_SWEEP_THREADS` setting.
    pub wall_clock_ms: f64,
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

/// Render a time series as a JSON array of `[time_s, value]` pairs.
fn json_series(series: &[ThroughputPoint]) -> String {
    let mut out = String::from("[");
    for (i, p) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{:.6}]", p.time_s, p.value);
    }
    out.push(']');
    out
}

impl MeasuredPoint {
    /// Serialize the point as one JSON object (hand-rolled; the workspace
    /// builds without serde). The one place the point schema lives:
    /// `breakdown` is Fig. 6's per-stage table (seconds), and the two series
    /// are Fig. 7's 0.5 s buckets as `[time_s, value]` pairs (ktps and
    /// seconds).
    pub fn to_json(&self) -> String {
        let o = &self.outcome;
        let b = &o.breakdown;
        format!(
            concat!(
                "{{\"protocol\":\"{}\",\"x\":{},\"throughput_ktps\":{:.6},",
                "\"avg_latency_s\":{:.6},\"p99_latency_s\":{:.6},",
                "\"confirmed\":{},\"submitted\":{},",
                "\"bytes_sent\":{},\"events_processed\":{},",
                "\"peak_queue_len\":{},\"wall_clock_ms\":{:.3},",
                "\"shard_ops\":{},",
                "\"retained_plog_entries\":{},\"peak_retained_bytes\":{},",
                "\"glog_wait_mean_us\":{:.3},\"glog_wait_max_us\":{},",
                "\"deliveries_per_tx\":{:.4},",
                "\"breakdown\":{{\"send_s\":{:.6},\"preprocess_s\":{:.6},",
                "\"partial_ordering_s\":{:.6},\"global_ordering_s\":{:.6},",
                "\"reply_s\":{:.6},\"global_ordering_share\":{:.6}}},",
                "\"throughput_series\":{},\"latency_series\":{}}}"
            ),
            escape_json(&self.label),
            self.x,
            o.throughput_ktps,
            o.avg_latency.as_secs_f64(),
            o.p99_latency.as_secs_f64(),
            o.confirmed,
            o.submitted,
            o.report.bytes_sent,
            o.report.events_processed,
            o.report.peak_queue_len,
            self.wall_clock_ms,
            json_u64_array(&o.shard_ops),
            o.retained_plog_entries,
            o.peak_retained_bytes,
            o.glog_wait_mean_us,
            o.glog_wait_max_us,
            o.deliveries_per_tx,
            b.send.as_secs_f64(),
            b.preprocess.as_secs_f64(),
            b.partial_ordering.as_secs_f64(),
            b.global_ordering.as_secs_f64(),
            b.reply.as_secs_f64(),
            b.global_ordering_share(),
            json_series(&o.throughput_series),
            json_series(&o.latency_series),
        )
    }
}

/// Run one scenario and time it.
///
/// Panics on an invalid scenario: callers validate their grids first (the
/// CLI does, and registry specs are pinned by the spec lint), so an invalid
/// point here is a bug, not input.
fn measure(label: &str, x: f64, scenario: &Scenario) -> MeasuredPoint {
    let wall = Instant::now();
    let outcome = run_scenario(scenario).expect("sweep scenario must validate");
    MeasuredPoint {
        label: label.to_string(),
        x,
        outcome,
        wall_clock_ms: wall.elapsed().as_secs_f64() * 1e3,
    }
}

/// Run a sweep of independent scenario points on the scoped thread pool
/// (`orthrus_core::parallel_map`) with `threads` workers, one deterministic
/// seeded simulation per worker. Results come back in input order, so
/// figure series are stable regardless of thread count.
pub fn measure_sweep_with_threads(points: &[LoweredPoint], threads: usize) -> Vec<MeasuredPoint> {
    parallel_map(points, threads, |point| {
        measure(&point.label, point.x, &point.scenario)
    })
}

/// Write to stdout, the one writer every line of `orthrus` output goes
/// through. A reader that goes away early (`orthrus list | head -1`) ends
/// the process quietly with status 0, as for any Unix filter; another write
/// error is reported on stderr and exits with status 1.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write as _};
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(err) if err.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(err) => {
            eprintln!("error: writing to stdout: {err}");
            std::process::exit(1);
        }
    }
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::harness::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::harness::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Print the header of a figure table.
pub fn print_header(figure: &str, x_label: &str) {
    crate::outln!();
    crate::outln!("=== {figure} ===");
    crate::outln!(
        "{:<10} {:>12} {:>16} {:>14} {:>10}",
        "protocol",
        x_label,
        "throughput ktps",
        "latency s",
        "global %"
    );
}

/// Print one row of a figure table.
pub fn print_row(point: &MeasuredPoint) {
    let o = &point.outcome;
    crate::outln!(
        "{:<10} {:>12.2} {:>16.3} {:>14.3} {:>9.1}%",
        point.label,
        point.x,
        o.throughput_ktps,
        o.avg_latency.as_secs_f64(),
        o.breakdown.global_ordering_share() * 100.0
    );
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

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_lab::{registry, SpecScale};
    use orthrus_sim::stats::LatencyBreakdown;
    use orthrus_sim::SimulationReport;
    use orthrus_types::{Duration, ProtocolKind, SimTime};

    #[test]
    fn json_labels_are_escaped() {
        assert_eq!(escape_json("Orthrus"), "Orthrus");
        assert_eq!(escape_json("say \"hi\"\\"), "say \\\"hi\\\"\\\\");
        assert_eq!(escape_json("a\nb"), "a\\u000ab");
    }

    #[test]
    fn series_json_is_well_formed() {
        let outcome = ScenarioOutcome {
            protocol: ProtocolKind::Orthrus,
            submitted: 2_000,
            confirmed: 2_000,
            throughput_ktps: 1.25,
            avg_latency: Duration::from_millis(500),
            p95_latency: Duration::from_millis(800),
            p99_latency: Duration::from_millis(900),
            breakdown: LatencyBreakdown {
                send: Duration::from_millis(10),
                preprocess: Duration::from_millis(20),
                partial_ordering: Duration::from_millis(100),
                global_ordering: Duration::from_millis(50),
                reply: Duration::from_millis(20),
            },
            throughput_series: vec![
                ThroughputPoint {
                    time_s: 0.5,
                    value: 2.0,
                },
                ThroughputPoint {
                    time_s: 1.0,
                    value: 0.5,
                },
            ],
            latency_series: vec![ThroughputPoint {
                time_s: 0.5,
                value: 0.25,
            }],
            view_changes: 0,
            blocks_delivered: 8,
            state_digests: Vec::new(),
            shard_ops: vec![100, 90, 4],
            retained_plog_entries: 17,
            peak_retained_entries: 20,
            peak_retained_bytes: 4_096,
            recoveries: Vec::new(),
            glog_wait_mean_us: 42.5,
            glog_wait_max_us: 120,
            glog_wait_count: 3,
            deliveries_per_tx: 1.0625,
            tx_table_misses: 0,
            report: SimulationReport {
                end_time: SimTime::from_secs(2),
                events_processed: 789,
                messages_sent: 55,
                bytes_sent: 123_456,
                peak_queue_len: 321,
            },
        };
        let point = MeasuredPoint {
            label: "Orthrus".into(),
            x: 8.0,
            outcome,
            wall_clock_ms: 12.5,
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
            "\"shard_ops\":[100,90,4]",
            "\"retained_plog_entries\":17",
            "\"peak_retained_bytes\":4096",
            "\"glog_wait_mean_us\":42.500",
            "\"glog_wait_max_us\":120",
            "\"deliveries_per_tx\":1.0625",
            "\"breakdown\":{\"send_s\":0.010000,\"preprocess_s\":0.020000,",
            "\"partial_ordering_s\":0.100000,\"global_ordering_s\":0.050000,",
            "\"reply_s\":0.020000,\"global_ordering_share\":0.250000}",
            "\"throughput_series\":[[0.5,2.000000],[1,0.500000]]",
            "\"latency_series\":[[0.5,0.250000]]",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }

    #[test]
    fn sweep_points_come_back_in_input_order_for_any_thread_count() {
        let points: Vec<LoweredPoint> = registry::spec("fig4ab_lan_no_straggler")
            .and_then(|spec| spec.lower(SpecScale::Reduced))
            .expect("registry spec lowers")
            .into_iter()
            .filter(|p| p.label == "Orthrus" && p.x <= 8.0)
            .collect();
        assert_eq!(points.len(), 2);
        let serial = measure_sweep_with_threads(&points, 1);
        let pooled = measure_sweep_with_threads(&points, 2);
        for ((s, p), point) in serial.iter().zip(&pooled).zip(&points) {
            assert_eq!(s.x, point.x);
            assert_eq!(p.x, point.x);
            // Wall clock differs run to run; everything simulated must not.
            let (s, p) = (&s.outcome, &p.outcome);
            assert_eq!(s.throughput_ktps, p.throughput_ktps);
            assert_eq!(s.report, p.report);
            assert_eq!(s.state_digests, p.state_digests);
            assert_eq!(s.breakdown, p.breakdown);
            assert_eq!(s.throughput_series, p.throughput_series);
        }
    }
}
