//! Message-fabric snapshot: quantifies the zero-copy refactor and records the
//! result to `BENCH_msgfabric.json` at the repository root.
//!
//! Two measurements:
//!
//! 1. **Broadcast fan-out microbench** — send one 256-transaction block to 99
//!    recipients, once by deep-copying the batch per recipient (the old
//!    `Vec<Transaction>` payload behaviour) and once by cloning the
//!    `Arc<Block>` handle (the new fabric). A counting global allocator
//!    reports allocations and bytes for each variant.
//! 2. **Macro snapshot** — point 0 of the reduced `fig4ab_lan_no_straggler`
//!    grid (Orthrus, LAN, 4 replicas, 2 000 transactions) recording
//!    throughput, latency, bytes on the wire and events processed, so the
//!    trajectory can be tracked across changes.
//!
//! Run with `cargo bench --bench msgfabric`.

use orthrus_bench::fabric::{self, arc_fanout, deep_clone_fanout, BATCH, RECIPIENTS};
use orthrus_bench::harness;
use orthrus_lab::{registry, SpecScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A pass-through allocator that counts allocations while enabled.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counters are
// monotonic atomics with no allocation of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same contract as System.alloc — the caller's layout is
        // forwarded untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegation only; ptr/layout come from the paired alloc above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim to the allocator that produced ptr.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The registry grid whose first point is the macro snapshot.
const SNAPSHOT_SPEC: &str = "fig4ab_lan_no_straggler";

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting enabled; returns (allocations, bytes).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    ALLOC_CALLS.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    std::hint::black_box(out);
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn main() {
    println!("== message-fabric snapshot ==");
    let block = fabric::make_fanout_block();

    let (deep_allocs, deep_bytes) = count_allocs(|| deep_clone_fanout(&block));
    let (arc_allocs, arc_bytes) = count_allocs(|| arc_fanout(&block));
    println!(
        "deep-clone fan-out ({RECIPIENTS} recipients x {BATCH} txs): {deep_allocs} allocations, {deep_bytes} bytes"
    );
    println!(
        "arc fan-out        ({RECIPIENTS} recipients x {BATCH} txs): {arc_allocs} allocations, {arc_bytes} bytes"
    );

    let timings = fabric::run_fabric_benches(&block);
    let (deep, arc) = (&timings.deep, &timings.arc);
    let (cached, uncached) = (&timings.cached, &timings.uncached);

    // Macro snapshot: the first point of the reduced fig4a/b grid.
    println!();
    println!("running {SNAPSHOT_SPEC} point 0 (reduced scale) ...");
    let lowered = registry::spec(SNAPSHOT_SPEC)
        .and_then(|spec| spec.lower(SpecScale::Reduced))
        .expect("registry spec lowers");
    let first = &lowered[0];
    let point = harness::measure(&first.label, first.x, &first.scenario);
    harness::print_header(&format!("{SNAPSHOT_SPEC} point 0"), "replicas");
    harness::print_row(&point);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"msgfabric\",\n",
            "  \"fanout\": {{\n",
            "    \"recipients\": {},\n",
            "    \"batch_txs\": {},\n",
            "    \"deep_clone\": {{\"allocations\": {}, \"bytes\": {}, \"median_ns\": {:.1}}},\n",
            "    \"arc\": {{\"allocations\": {}, \"bytes\": {}, \"median_ns\": {:.1}}},\n",
            "    \"alloc_reduction\": {:.4},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"digest\": {{\n",
            "    \"cached_median_ns\": {:.1},\n",
            "    \"uncached_median_ns\": {:.1}\n",
            "  }},\n",
            "  \"fig4_lan_snapshot\": {{\n",
            "    \"scenario\": \"{}\",\n",
            "    \"point_index\": 0,\n",
            "    \"point\": {},\n",
            "    \"wall_clock_s\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        RECIPIENTS,
        BATCH,
        deep_allocs,
        deep_bytes,
        deep.median_ns,
        arc_allocs,
        arc_bytes,
        arc.median_ns,
        if deep_allocs == 0 {
            0.0
        } else {
            1.0 - arc_allocs as f64 / deep_allocs as f64
        },
        if arc.median_ns == 0.0 {
            0.0
        } else {
            deep.median_ns / arc.median_ns
        },
        cached.median_ns,
        uncached.median_ns,
        SNAPSHOT_SPEC,
        point.to_json(),
        point.wall_clock_ms / 1e3,
    );
    // Cargo runs benches with the package directory as cwd; the snapshot
    // belongs at the workspace root next to ROADMAP.md.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_msgfabric.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nsnapshot written to {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}
