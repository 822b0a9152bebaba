//! # orthrus-ordering
//!
//! Partial and global log structures plus the global-ordering policies of
//! every protocol the paper evaluates.
//!
//! * [`plog`] — the per-instance partial log (`plog`) of delivered blocks and
//!   its execution cursor;
//! * [`glog`] — the system-wide global log (`glog`);
//! * [`rank`] — monotonic rank assignment for dynamic ordering;
//! * [`policy`] — the [`policy::GlobalOrderingPolicy`] trait;
//! * [`predetermined`] — ISS / Mir-BFT / RCC round-robin interleaving;
//! * [`dqbft`] — DQBFT's dedicated ordering instance;
//! * [`ladon`] — Ladon's rank-based dynamic ordering, also used by Orthrus
//!   for contract transactions.

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

pub mod dqbft;
pub mod glog;
pub mod ladon;
pub mod plog;
pub mod policy;
pub mod predetermined;
pub mod rank;

pub use dqbft::DqbftOrdering;
pub use glog::GlobalLog;
pub use ladon::{LadonOrdering, OrderKey};
pub use plog::{PartialLog, PartialLogs};
pub use policy::GlobalOrderingPolicy;
pub use predetermined::PredeterminedOrdering;
pub use rank::RankTracker;
