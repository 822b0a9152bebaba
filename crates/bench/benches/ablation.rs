//! Ablation study of the design choices called out in `DESIGN.md`:
//!
//! * **Fast path** — Orthrus (partial ordering + escrow for payments) versus
//!   Ladon (same dynamic global ordering, no fast path): isolates the benefit
//!   of confirming payments from the partial logs.
//! * **Dynamic versus pre-determined global ordering** — Ladon versus ISS:
//!   isolates the benefit of rank-based ordering under a straggler.
//! * **Multi-payer share** — how much the cross-instance escrow costs as more
//!   payments span two instances.
//! * **Hot accounts** — a skewed workload (`zipf_exponent ≥ 1.2`) that
//!   concentrates load on one bucket / SB instance; the per-instance write
//!   counts recorded in each `MeasuredPoint` quantify the skew.
//!
//! All four grids live in the spec registry (`scenarios/ablation_*.orth`);
//! this bench lowers, runs and prints them.

use orthrus_bench::harness::{self, BenchScale};

fn main() {
    let scale = BenchScale::from_env();

    let grids = [
        ("ablation_fast_path", "payment %", "payment_share_pct"),
        ("ablation_global_ordering", "replicas", "replicas"),
        ("ablation_multi_payer", "multi-payer %", "multi_payer_pct"),
        ("ablation_hot_account", "zipf exponent", "zipf_exponent"),
    ];

    for (figure, x_label, x_column) in grids {
        let jobs = harness::registry_jobs(figure, scale);
        // Banners come from the spec titles, so editing a `.orth` grid
        // cannot leave a stale header.
        harness::print_header(
            &format!(
                "{} ({} replicas)",
                harness::registry_title(figure),
                jobs[0].scenario.config.num_replicas
            ),
            x_label,
        );
        let points = harness::measure_sweep(&jobs);
        for point in &points {
            if figure == "ablation_hot_account" {
                let imbalance = harness::instance_imbalance(&point.shard_ops);
                println!(
                    "    busiest instance carries {imbalance:.2}x the mean load (ops {:?})",
                    point.shard_ops
                );
            }
            harness::print_row(point);
        }
        harness::write_csv(figure, x_column, &points);
    }
}
