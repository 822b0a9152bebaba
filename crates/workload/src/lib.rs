//! # orthrus-workload
//!
//! Synthetic Ethereum-like workload generation.
//!
//! The paper's evaluation replays a real Ethereum trace (≈200,000
//! transactions from 18,000 active accounts, 46% simple payments). This crate
//! produces a synthetic equivalent with the same statistical shape (see
//! `DESIGN.md` for the substitution rationale):
//!
//! * [`zipf`] — the skewed account-popularity sampler;
//! * [`generator`] — the [`generator::Workload`] builder: genesis balances,
//!   shared contract objects, and a deterministic transaction trace with a
//!   configurable payment share (the knob swept by the paper's Fig. 5).

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::iter_over_hash_type,
        reason = "unit tests run outside any simulation: they may time, thread and iterate freely"
    )
)]
#![warn(missing_docs)]

pub mod generator;
pub mod zipf;

pub use generator::{Workload, WorkloadConfig};
pub use zipf::Zipf;
