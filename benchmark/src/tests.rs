//! Self-tests of the benchmark as a whole: its declared names against
//! `BENCHMARK.json`, and the full pipeline on a quickstart-sized workload.

use crate::bench;
use crate::json::{self, Json};
use crate::measure::{SMOKE, WORKLOADS};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::trace;
use std::time::Instant;

/// The direction as `BENCHMARK.json` spells it.
fn better_name(better: Better) -> &'static str {
    match better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_and_counts_stay_within_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_unit(def.unit), "unit of {}: {:?}", def.name, def.unit);
        names.push(def.name);
    }
    for name in &names {
        assert!(valid_name(name), "{name:?}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    let setup = crate::metrics::find(&END_TO_END, "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

fn declared(benchmark: &Json, key: &str) -> Vec<(String, String, String)> {
    let text = |item: &Json, field: &str| {
        item.get(field)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key}: an entry has no {field}"))
            .to_string()
    };
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|item| (text(item, "name"), text(item, "unit"), text(item, "better")))
        .collect()
}

fn printed(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), better_name(d.better).into()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_is_printed() {
    let benchmark = json::parse(crate::BENCHMARK_JSON).expect("BENCHMARK.json parses");
    assert_eq!(declared(&benchmark, "end_to_end"), printed(&END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), printed(&PER_LAYER));
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for def in &END_TO_END {
        let bound = crate::compare::declared_bound(&benchmark, def.name).expect(def.name);
        assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", def.name);
    }
}

#[test]
fn smoke_workload_runs_the_whole_pipeline_in_under_a_second() {
    std::env::set_var("ORTHRUS_SWEEP_THREADS", "1");
    let start = Instant::now();
    let timed = bench::timed_run(&SMOKE, 1, 0.01).expect("timed run");
    let traced = bench::traced_run(&SMOKE, 1, 0.01).expect("traced run");
    let elapsed = start.elapsed().as_secs_f64();

    assert_eq!(timed.failures, Vec::<String>::new());
    assert_eq!(traced.failures, Vec::<String>::new());
    assert!(timed.attempted >= 3_000 && timed.failed == 0);
    // `in_order` panics unless exactly the declared metrics were measured.
    for (def, value) in timed
        .metrics
        .in_order(timed.defs)
        .into_iter()
        .chain(traced.metrics.in_order(traced.defs))
    {
        assert!(value.is_finite(), "{} = {value}", def.name);
    }
    for (def, value) in timed.metrics.in_order(timed.defs) {
        assert!(value > 0.0, "end-to-end metric {} is {value}", def.name);
    }

    let self_ns = trace::self_times_ns(&traced.spans).expect("spans are well nested");
    assert_eq!(self_ns.len(), traced.spans.len());
    let roots: Vec<_> = traced.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].name, "bench.workload");
    for name in [
        "lab.parse_lower",
        "workload.generate",
        "core.build_simulation",
    ]
    .into_iter()
    .chain(["core.run_phase", "sim.run_until", "core.collect"])
    .chain(crate::replay::DRIVERS.iter().map(|(name, _)| *name))
    {
        assert!(
            traced.spans.iter().any(|s| s.name == name),
            "no {name} span"
        );
    }
    assert!(trace::root_coverage(&traced.spans) >= 0.95);
    assert_eq!(
        json::parse(&trace::to_json(&traced.spans).to_string())
            .expect("span file parses")
            .as_arr()
            .map(<[Json]>::len),
        Some(traced.spans.len())
    );

    assert!(elapsed < 1.0, "smoke pipeline took {elapsed:.3} s");
}
