//! `compare a.json b.json`: the parent-versus-change report. For every
//! workload and end-to-end metric it prints both medians, the ratio with its
//! base, the bound from `BENCHMARK.json` and a verdict.

use crate::json::{self, Json};
use crate::measure;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, or a side has too few
    /// runs to have a spread, so the medians cannot show a difference of that
    /// size either way.
    Unresolved,
}

/// Fewest runs per side from which quartiles are read off the data, not
/// extrapolated.
const MIN_RUNS: usize = 3;

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative when `b` is better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Verdict on a host-time metric from the runs of each side.
pub fn judge(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let spread = measure::spread(a).max(measure::spread(b));
    if a.len().min(b.len()) < MIN_RUNS || spread > bound {
        Verdict::Unresolved
    } else if worse_by(def.better, measure::median(a), measure::median(b)) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The `bound` of an end-to-end metric in `BENCHMARK.json`.
pub fn declared_bound(benchmark: &Json, name: &str) -> Option<f64> {
    benchmark
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
        .get("bound")?
        .as_f64()
}

/// Bound of `host.peak_rss_mb` between two runs of the same seeds.
const PEAK_RSS_BOUND: f64 = 0.10;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn samples(results: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn layer_value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [path_a, path_b] = args else {
        return Err("compare takes two result files".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let benchmark = json::parse(crate::BENCHMARK_JSON)?;
    // Simulated metrics and counts are a function of the seed: when both
    // files ran the same seed they must agree exactly, so their bound is 0.
    let same_seed = a.get("seed") == b.get("seed");
    if !same_seed {
        println!(
            "# the two files ran different seeds: simulated metrics use their declared bounds"
        );
    }

    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path_a}: no workloads"))?
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();

    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>6} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    );
    let mut worse = 0;
    let mut changed = 0;
    for workload in &workloads {
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (
                samples(&a, workload, def.name),
                samples(&b, workload, def.name),
            ) else {
                return Err(format!("{workload}/{} is missing from a file", def.name));
            };
            let pinned = def.exact && same_seed;
            let bound = if pinned {
                0.0
            } else {
                declared_bound(&benchmark, def.name)
                    .ok_or_else(|| format!("BENCHMARK.json declares no bound for {}", def.name))?
            };
            let (ma, mb) = (measure::median(&va), measure::median(&vb));
            let verdict = if pinned {
                // `run` has checked that every round of a file gave one value.
                changed += usize::from(ma != mb);
                if worse_by(def.better, ma, mb) > 0.0 {
                    Verdict::Worse
                } else {
                    Verdict::Ok
                }
            } else {
                judge(def, bound, &va, &vb)
            };
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload:<18} {:<20} {ma:>14.6} {mb:>14.6} {:>9.4} {bound:>6.2} {:>7.4}  {}",
                def.name,
                mb / ma,
                measure::spread(&va).max(measure::spread(&vb)),
                verdict.name()
            );
        }
    }

    // Peak memory repeats within a few percent for one seed but not across
    // seeds, so it is gated here, between runs of one seed, and not in
    // `BENCHMARK.json`. Each file has one value, from its traced run.
    if same_seed {
        let def = crate::metrics::find(&PER_LAYER, "host.peak_rss_mb").expect("declared");
        for workload in &workloads {
            let (Some(ma), Some(mb)) = (
                layer_value(&a, workload, def.name),
                layer_value(&b, workload, def.name),
            ) else {
                return Err(format!("{workload}/{} is missing from a file", def.name));
            };
            let verdict = if worse_by(def.better, ma, mb) > PEAK_RSS_BOUND {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload:<18} {:<20} {ma:>14.6} {mb:>14.6} {:>9.4} {PEAK_RSS_BOUND:>6.2} {:>7}  {}",
                def.name,
                mb / ma,
                "-",
                verdict.name()
            );
        }
        for workload in &workloads {
            for def in PER_LAYER.iter().filter(|def| def.exact) {
                let (va, vb) = (
                    layer_value(&a, workload, def.name),
                    layer_value(&b, workload, def.name),
                );
                if va != vb {
                    changed += 1;
                    println!("changed: {workload} {} {va:?} -> {vb:?}", def.name);
                }
            }
        }
        println!("# {changed} simulated metrics or counts changed");
    }
    println!("# {worse} worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = &END_TO_END[0];
        assert_eq!(wall.name, "wall_s");
        let steady = [4.0, 4.02, 3.98, 4.01, 3.99];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.3).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.7).collect();
        let noisy = [3.0, 4.0, 5.0, 6.0, 4.5];
        assert_eq!(judge(wall, 0.1, &steady, &steady), Verdict::Ok);
        assert_eq!(judge(wall, 0.1, &steady, &slower), Verdict::Worse);
        assert_eq!(judge(wall, 0.1, &steady, &faster), Verdict::Ok);
        assert_eq!(judge(wall, 0.1, &steady, &noisy), Verdict::Unresolved);

        // One run a side has no spread: a 30 % difference could be noise.
        assert_eq!(judge(wall, 0.1, &[4.0], &[5.2]), Verdict::Unresolved);

        let ktps = &END_TO_END[4];
        assert_eq!(ktps.better, Better::Higher);
        assert!(worse_by(ktps.better, 99.7, 99.6) > 0.0);
        assert!(worse_by(ktps.better, 99.7, 99.8) < 0.0);
        assert_eq!(worse_by(ktps.better, 99.7, 99.7), 0.0);
    }
}
