//! The repository's benchmark: four paper-shaped workloads run through
//! `orthrus_core::run_scenario`, reported on two clocks (host and simulated)
//! with per-layer replay drivers and a traced pass. See `README.md`.
//!
//! ```text
//! orthrus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! orthrus-benchmark run [--seed 42] [--runs 3] [--out results.json] [--trace trace.json]
//! orthrus-benchmark compare <a.json> <b.json>
//! ```

mod bench;
mod compare;
mod fingerprints;
mod json;
mod measure;
mod metrics;
mod replay;
mod trace;

use bench::RunResult;
use json::Json;
use measure::WORKLOADS;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `BENCHMARK.json`, the contract this program is checked against: metric
/// names, units, directions and the regression bounds `compare` applies.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage:
  orthrus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  orthrus-benchmark run [--seed 42] [--runs 3] [--out results.json] [--trace trace.json]
  orthrus-benchmark compare <a.json> <b.json>";

/// `--key value` pairs, each key at most once and from `allowed`.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut rest = args.iter();
    while let Some(key) = rest.next() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown argument {key:?}\n{USAGE}"));
        }
        let value = rest
            .next()
            .ok_or_else(|| format!("{key} needs a value"))?
            .clone();
        if flags.iter().any(|(k, _)| k == key) {
            return Err(format!("{key} given twice"));
        }
        flags.push((key.clone(), value));
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a [(String, String)], key: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn number<T: std::str::FromStr>(
    flags: &[(String, String)],
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(flags, key) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{key}: {text:?} is not a valid number")),
        None => default.ok_or_else(|| format!("{key} is required")),
    }
}

/// Spans go next to the executable: that is inside the build directory, which
/// is inside the checkout and ignored by git.
fn default_trace_path(workload: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe.parent().ok_or("the executable has no directory")?;
    Ok(dir.join(format!("trace-{workload}.json")))
}

fn result_line(result: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", result.metrics.to_json(result.defs)),
    ])
}

/// One workload, one seed: what the benchmark driver invokes.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flag(&flags, "--workload").ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = number(&flags, "--seed", None)?;
    let seconds: f64 = number(&flags, "--seconds", None)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let traced = match flag(&flags, "--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };

    // Pool width 1: the box has two shared cores, and width 1 is also where
    // every execution mode and the engine collapse to their serial walk.
    std::env::set_var("ORTHRUS_SWEEP_THREADS", "1");

    let result = if traced {
        bench::traced_run(workload, seed, seconds)?
    } else {
        bench::timed_run(workload, seed, seconds)?
    };

    println!("workload {name} seed {seed} trace {}", u8::from(traced));
    for (def, value) in result.metrics.in_order(result.defs) {
        println!("{:<36} {value:>18.6} {}", def.name, def.unit);
    }
    for note in &result.notes {
        println!("# {note}");
    }
    if traced {
        let path = default_trace_path(name)?;
        std::fs::write(&path, trace::to_json(&result.spans).to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        print!("{}", trace::summary(&result.spans));
        println!(
            "# {} spans written to {}",
            result.spans.len(),
            path.display()
        );
    }
    for failure in &result.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", result_line(&result));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run this executable on one workload and return its result line.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    // A child per run: each workload gets its own peak resident set.
    let output = command
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = json::parse(line).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if !output.status.success() {
        let failures: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("CHECK FAILED"))
            .collect();
        return Err(format!("{workload} seed {seed}: {}", failures.join("; ")));
    }
    Ok(result)
}

/// `metrics` of a result line as `(name, value, unit)`.
fn metric_rows(result: &Json) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            )
        })
        .collect()
}

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
fn run_seconds() -> Result<u64, String> {
    json::parse(BENCHMARK_JSON)?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .map(|seconds| seconds as u64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

/// Every workload, `--runs` timed invocations each of the same seed (rounds
/// interleaved across workloads so a slow stretch of the host spreads over
/// all of them), then one traced run each. Prints every metric by name.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--seed", "--runs", "--out", "--trace"])?;
    let seed: u64 = number(&flags, "--seed", Some(42))?;
    let runs: u64 = number(&flags, "--runs", Some(3))?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let seconds = run_seconds()?;

    // values[workload][metric] = one value per round.
    let mut values: Vec<Vec<(String, String, Vec<f64>)>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..runs {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("run {}/{runs} {}", round + 1, workload.name);
            let result = child(workload.name, seed, seconds, false)?;
            for (name, value, unit) in metric_rows(&result) {
                match values[w].iter_mut().find(|(n, _, _)| *n == name) {
                    Some(row) => row.2.push(value),
                    None => values[w].push((name, unit, vec![value])),
                }
            }
        }
    }
    // Rounds are separate processes running one seed: a simulated metric
    // that differs between them is a determinism failure.
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, _, samples) in &values[w] {
            let exact = metrics::find(&metrics::END_TO_END, name).is_some_and(|def| def.exact);
            if exact && samples.iter().any(|v| *v != samples[0]) {
                return Err(format!(
                    "determinism: {} {name} differs between rounds of seed {seed}: {samples:?}",
                    workload.name
                ));
            }
        }
    }

    let mut spans = Vec::new();
    let mut layers = Vec::new();
    for workload in &WORKLOADS {
        eprintln!("traced run {}", workload.name);
        layers.push(metric_rows(&child(workload.name, seed, seconds, true)?));
        let path = default_trace_path(workload.name)?;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        spans.extend(json::parse(&text)?.as_arr().unwrap_or_default().to_vec());
    }

    let mut report = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        println!("== {} ==", workload.name);
        let mut end_to_end = Vec::new();
        for (name, unit, samples) in &values[w] {
            let (q1, median, q3) = measure::quartiles(samples);
            println!(
                "{name:<36} {median:>18.6} {unit:<10} n={} q1={q1:.6} q3={q3:.6}",
                samples.len()
            );
            end_to_end.push((
                name.clone(),
                Json::obj([
                    ("unit", Json::from(unit.as_str())),
                    ("median", Json::Num(median)),
                    (
                        "values",
                        Json::Arr(samples.iter().copied().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for (name, value, unit) in &layers[w] {
            println!("{name:<36} {value:>18.6} {unit}");
            per_layer.push((
                name.clone(),
                Json::obj([
                    ("unit", Json::from(unit.as_str())),
                    ("value", Json::Num(*value)),
                ]),
            ));
        }
        report.push((
            workload.name,
            Json::obj([
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        ));
    }
    let report = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("workloads", Json::obj(report)),
    ]);
    if let Some(path) = flag(&flags, "--out") {
        std::fs::write(path, report.to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# results written to {path}");
    }
    if let Some(path) = flag(&flags, "--trace") {
        std::fs::write(path, Json::Arr(spans).to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# spans written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some(_) => single(&args),
        None => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests;
