//! # orthrus-sb
//!
//! Sequenced broadcast (SB): the consensus primitive underneath every
//! Multi-BFT instance (paper §III-C).
//!
//! An SB instance takes blocks from its leader and *delivers* them to every
//! honest replica with two guarantees the rest of the system builds on:
//!
//! * **Agreement** — all honest replicas deliver the same block for a given
//!   sequence number;
//! * **Termination** — every sequence number is eventually delivered (a
//!   failure detector replaces leaders that stop making progress).
//!
//! The crate provides:
//!
//! * [`messages`] — the PBFT wire vocabulary (pre-prepare / prepare / commit,
//!   checkpoints, view-change / new-view);
//! * [`actions`] — the IO-free action list returned by the state machine;
//! * [`pbft`] — the [`pbft::PbftInstance`] state machine itself (normal case,
//!   checkpointing, view change), used as the SB implementation exactly as
//!   the paper's evaluation does;
//! * [`failure_detector`] — the timing policy deciding when the hosting
//!   replica should suspect an instance's leader;
//! * [`cluster`] — an in-memory cluster harness for protocol-level tests.

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

pub mod actions;
pub mod cluster;
pub mod failure_detector;
pub mod messages;
pub mod pbft;
mod slots;

pub use actions::SbAction;
pub use cluster::LocalCluster;
pub use failure_detector::ProgressTracker;
pub use messages::{PreparedProof, SbMessage};
pub use pbft::{PbftConfig, PbftInstance};
