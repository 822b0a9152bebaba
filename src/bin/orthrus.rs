//! The `orthrus` CLI: run the paper's experiment grids (and your own) from
//! declarative `.orth` spec files. `orthrus run <name>` is the one way to
//! reproduce a figure of the paper's evaluation (Figs. 3–8) or an ablation.
//!
//! ```text
//! orthrus list
//!     Show every named spec in the registry.
//!
//! orthrus show <name|file.orth>
//!     Print a spec in canonical form plus its lowered grid.
//!
//! orthrus run <name|file.orth> [--threads N] [--json PATH] [--full]
//!     Lower the spec and run every point on the sweep pool, printing the
//!     figure table and (optionally) writing one JSON document with every
//!     point's counters, Fig. 6 stage breakdown and Fig. 7 time series.
//!
//! orthrus lint [files...]
//!     Parse, round-trip and lower every registry spec (and any extra
//!     files), validating each resulting scenario. Exits non-zero on the
//!     first failure.
//!
//! orthrus analyze [--json PATH]
//!     Run the in-tree determinism & safety static analyzer
//!     (orthrus-analysis) over the workspace sources: nondeterministic
//!     hash-map iteration, stray wall-clock/RNG/thread use, unsafe without
//!     SAFETY:, and panic paths in the engine. Exits non-zero on any
//!     unsuppressed violation.
//! ```
//!
//! Specs are resolved against the built-in registry first; anything
//! containing a path separator or ending in `.orth` is read from disk.
//! `--full` applies the spec's `[full_scale]` overrides (the paper's
//! scale); `--threads` (or `ORTHRUS_SWEEP_THREADS`) sets the width of the
//! sweep pool (how many points run at once). Results do not depend on it.

use orthrus_bench::harness::{self, MeasuredPoint};
use orthrus_bench::outln;
use orthrus_core::sweep_threads;
use orthrus_lab::{parse, registry, serialize, Spec, SpecScale};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  orthrus list\n  orthrus show <name|file.orth>\n  orthrus run <name|file.orth> \
         [--threads N] [--json PATH] [--full]\n  orthrus lint [files...]\n  orthrus analyze \
         [--json PATH]\n\n--full applies the spec's [full_scale] overrides (the paper's scale).\n\
         --threads N (default: ORTHRUS_SWEEP_THREADS, else the host's cores) sets how many sweep \
         points run\nat once; results do not depend on it."
    );
    ExitCode::from(2)
}

/// Resolve a spec argument: registry name, or a file when it looks like a
/// path.
fn load_spec(arg: &str) -> Result<Spec, String> {
    let looks_like_path = arg.contains('/') || arg.contains('\\') || arg.ends_with(".orth");
    if !looks_like_path {
        if let Some(entry) = registry::find(arg) {
            return entry
                .spec()
                .map_err(|err| format!("registry spec {arg:?}: {err}"));
        }
    }
    match std::fs::read_to_string(arg) {
        Ok(text) => parse(&text).map_err(|err| format!("{arg}: {err}")),
        Err(io) if looks_like_path => Err(format!("{arg}: {io}")),
        Err(_) => {
            let known: Vec<&str> = registry::ENTRIES.iter().map(|e| e.name).collect();
            Err(format!(
                "no registry entry or file named {arg:?} (known specs: {})",
                known.join(", ")
            ))
        }
    }
}

fn cmd_list() -> ExitCode {
    outln!("{:<34} {:<9} {:>7}  title", "name", "kind", "points");
    for entry in registry::ENTRIES {
        match entry.spec() {
            Ok(spec) => {
                let points = spec
                    .lower(SpecScale::Reduced)
                    .map(|p| p.len().to_string())
                    .unwrap_or_else(|_| "?".to_string());
                outln!(
                    "{:<34} {:<9} {:>7}  {}",
                    entry.name,
                    spec.kind(),
                    points,
                    spec.title().unwrap_or("")
                );
            }
            Err(err) => {
                eprintln!("{:<34} UNPARSEABLE: {err}", entry.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_show(arg: &str) -> ExitCode {
    let spec = match load_spec(arg) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    harness::write_stdout(format_args!("{}", serialize(&spec)));
    for scale in [SpecScale::Reduced, SpecScale::Full] {
        match spec.lower(scale) {
            Ok(points) => {
                outln!("\n# {scale:?} grid: {} point(s)", points.len());
                for point in &points {
                    let s = &point.scenario;
                    outln!(
                        "#   {:<8} x={:<8} {} {} replicas, {} txs, seed {}",
                        point.label,
                        point.x,
                        s.network,
                        s.config.num_replicas,
                        s.workload.num_transactions,
                        s.seed
                    );
                }
            }
            Err(err) => {
                eprintln!("error lowering at {scale:?}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut target: Option<&str> = None;
    let mut threads: Option<usize> = None;
    let mut json_path: Option<&str> = None;
    let mut scale = SpecScale::Reduced;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("error: --threads needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("error: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--full" => scale = SpecScale::Full,
            other if target.is_none() && !other.starts_with('-') => target = Some(other),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(target) = target else {
        return usage();
    };
    let spec = match load_spec(target) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    let points = match spec.lower(scale) {
        Ok(points) => points,
        Err(err) => {
            eprintln!("error lowering {}: {err}", spec.name());
            return ExitCode::FAILURE;
        }
    };
    // Validate the whole grid before running any point, so a bad spec fails
    // in milliseconds instead of after minutes of simulation.
    for point in &points {
        if let Err(err) = point.scenario.validate() {
            eprintln!(
                "error: {} (label {}, x {}): {err}",
                spec.name(),
                point.label,
                point.x
            );
            return ExitCode::FAILURE;
        }
    }
    let threads = threads.unwrap_or_else(sweep_threads);
    let label = spec.x_axis().unwrap_or("replicas");
    let title = spec.title().unwrap_or_else(|| spec.name());
    harness::print_header(
        &format!("{title} ({scale:?} scale, {threads} thread(s))"),
        label,
    );
    let measured: Vec<MeasuredPoint> = harness::measure_sweep_with_threads(&points, threads);
    for point in &measured {
        harness::print_row(point);
    }
    if let Some(path) = json_path {
        let doc = harness::series_json(spec.name(), label, &measured);
        if let Err(err) = std::fs::write(path, doc) {
            eprintln!("error: could not write {path}: {err}");
            return ExitCode::FAILURE;
        }
        outln!("(series written to {path})");
    }
    ExitCode::SUCCESS
}

fn cmd_lint(files: &[String]) -> ExitCode {
    let mut checked = 0usize;
    let mut failed = false;
    let mut check = |name: &str, spec: Result<Spec, String>| {
        checked += 1;
        let spec = match spec {
            Ok(spec) => spec,
            Err(err) => {
                eprintln!("FAIL {name}: {err}");
                failed = true;
                return;
            }
        };
        // Canonical round trip: serialize ∘ parse must be the identity on
        // the data model.
        match parse(&serialize(&spec)) {
            Ok(reparsed) if reparsed == spec => {}
            Ok(_) => {
                eprintln!("FAIL {name}: serialize/parse round trip altered the spec");
                failed = true;
                return;
            }
            Err(err) => {
                eprintln!("FAIL {name}: canonical form does not reparse: {err}");
                failed = true;
                return;
            }
        }
        match spec.lint() {
            Ok(points) => outln!("ok   {name}: {points} point(s)"),
            Err(err) => {
                eprintln!("FAIL {name}: {err}");
                failed = true;
            }
        }
    };
    for entry in registry::ENTRIES {
        check(entry.name, entry.spec().map_err(|err| err.to_string()));
    }
    for file in files {
        check(file, load_spec(file));
    }
    outln!("linted {checked} spec(s)");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut json_path: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("error: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let cwd = match std::env::current_dir() {
        Ok(cwd) => cwd,
        Err(err) => {
            eprintln!("error: cannot determine working directory: {err}");
            return ExitCode::FAILURE;
        }
    };
    let Some(root) = orthrus_analysis::find_workspace_root(&cwd) else {
        eprintln!("error: no workspace root (Cargo.toml + crates/) above {cwd:?}");
        return ExitCode::FAILURE;
    };
    let report = match orthrus_analysis::analyze_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: analysis walk failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = json_path {
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!("error: could not write {path}: {err}");
            return ExitCode::FAILURE;
        }
        outln!("(report written to {path})");
    }
    for violation in &report.violations {
        eprintln!("{violation}");
    }
    let unsafe_total = report.unsafe_inventory.len();
    let unsafe_justified = report
        .unsafe_inventory
        .iter()
        .filter(|u| u.has_safety)
        .count();
    outln!(
        "analyzed {} file(s): {} violation(s), {} suppression(s), \
         {unsafe_justified}/{unsafe_total} unsafe site(s) justified",
        report.files_scanned,
        report.violations.len(),
        report.suppressions.len(),
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") if args.len() == 1 => cmd_list(),
        Some("show") if args.len() == 2 => cmd_show(&args[1]),
        Some("run") => cmd_run(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        _ => usage(),
    }
}
