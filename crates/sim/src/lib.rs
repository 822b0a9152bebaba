//! # orthrus-sim
//!
//! Deterministic discrete-event simulation substrate.
//!
//! The paper evaluates Orthrus on 8–128 AWS EC2 instances spread over four
//! regions. This crate replaces that testbed with a message-level simulation
//! that runs on a single machine while exercising exactly the same protocol
//! code paths:
//!
//! * [`node`] — node identifiers (replicas and clients) and the [`node::Payload`]
//!   trait that tells the network model how many bytes a message occupies.
//! * [`event`] — the virtual-time event queue.
//! * [`actor`] — the [`actor::Actor`] trait implemented by replicas and
//!   clients, and the [`actor::Context`] handed to them on every event.
//! * [`network`] — LAN and WAN latency models (4-region matrix), link
//!   bandwidth and per-message processing cost.
//! * [`faults`] — fault plans: crashes, stragglers (the paper's 10× slow
//!   instance), message drops and Byzantine flags.
//! * [`engine`] — the simulation loop that owns the actors, the clock and the
//!   network, delivers messages and fires timers deterministically.
//! * [`stats`] — measurement: per-transaction latency (end-to-end and per
//!   stage), throughput over time, delivered-block counters.
//!
//! Determinism: all randomness is drawn from `StdRng` streams seeded from the
//! scenario seed, and simultaneous events are ordered by insertion sequence,
//! so a given (scenario, seed) pair always produces the same trace.

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

pub mod actor;
pub mod engine;
pub mod event;
pub mod faults;
pub mod network;
pub mod node;
pub mod stats;

#[cfg(test)]
mod lint_teeth;

pub use actor::{Actor, Context};
pub use engine::{QueueKind, Simulation, SimulationReport};
pub use event::EventQueue;
pub use faults::{CrashRecoverSpec, FaultPlan, StragglerSpec};
pub use network::{NetworkConfig, Region};
pub use node::{NodeId, Payload};
pub use stats::{LatencyStage, StatsCollector, ThroughputPoint};
