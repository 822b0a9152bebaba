//! # orthrus-bench
//!
//! The workspace's wall-clock code: the [`harness`] that times, prints and
//! serializes sweep points for `orthrus run`.
//!
//! The paper's figures (§VII, Figs. 3–8) and the ablations are named specs
//! in the `orthrus_lab` registry; reproduce one with `orthrus run <name>`
//! (`--json PATH` for the per-point JSON, `--full` for the paper's scale).
//! Per-layer host costs are reported by the separate `benchmark/` workspace.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
