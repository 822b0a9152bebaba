//! # orthrus-bench
//!
//! The workspace's wall-clock code: the [`harness`] that times, prints and
//! serializes sweep points for `orthrus run`, plus the snapshot benches in
//! `benches/` (`micro`, `msgfabric`, `engine`, `executor`, `checkpoint`),
//! which write the `BENCH_*.json` files at the repository root.
//!
//! The paper's figures (§VII, Figs. 3–8) and the ablations are named specs
//! in the `orthrus_lab` registry; reproduce one with `orthrus run <name>`
//! (`--json PATH` for the per-point JSON, `--full` for the paper's scale).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod harness;
pub mod timing;

pub use timing::{bench, BenchResult};
