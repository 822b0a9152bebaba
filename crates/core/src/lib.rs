//! # orthrus-core
//!
//! The Orthrus Multi-BFT protocol and the five baseline protocols the paper
//! compares against (ISS, Mir-BFT, RCC, DQBFT, Ladon), all built on one
//! shared chassis:
//!
//! * [`partition`] — the partition module of Fig. 2: the object → bucket
//!   assignment function and the per-instance buckets;
//! * [`messages`] — the client/replica wire messages carried by the
//!   discrete-event network;
//! * [`replica`] — the [`replica::ReplicaNode`] actor hosting the buckets,
//!   the PBFT sequenced-broadcast instances, the partial/global logs, the
//!   global-ordering policy and the execution engine;
//! * [`client`] — load-generating clients that submit transactions to `f+1`
//!   replicas and confirm on `f+1` replies;
//! * [`runner`] — the declarative [`runner::Scenario`] / [`runner::run_scenario`]
//!   entry point used by the examples, the integration tests and every
//!   benchmark harness.
//!
//! Protocol differences are confined to two choices inside `ReplicaNode`:
//! which [`orthrus_ordering::GlobalOrderingPolicy`] merges delivered blocks
//! into the global log, and whether payment transactions are confirmed on the
//! partial-ordering fast path (Orthrus) or only through the global log
//! (everyone else). This mirrors the paper's methodology, where all
//! comparators are built on the same ISS codebase.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod messages;
pub mod partition;
pub mod replica;
pub mod runner;

pub use client::ClientNode;
pub use messages::{NetMessage, ReplyStatus};
pub use partition::{Bucket, Partitioner};
pub use replica::{ReplicaNode, StateTransfer};
pub use runner::{
    build_simulation, parallel_map, run_scenario, run_scenarios, run_scenarios_with_threads,
    sweep_threads, Scenario, ScenarioOutcome, StopCondition,
};
