//! # orthrus-types
//!
//! Core data model for the Orthrus Multi-BFT reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`ids`] — strongly typed identifiers (replicas, instances, clients,
//!   transactions, sequence numbers, epochs, ranks).
//! * [`crypto`] — simulated cryptographic primitives (digests, signatures and
//!   a public-key infrastructure). The simulation does not need real
//!   cryptography, but the types preserve the structure of the paper's model
//!   (§III-A): every replica owns a key pair and signs blocks and messages.
//! * [`object`] — the object-centric data model of §III-B: owned and shared
//!   objects, incremental/decremental/assignment operations and conditions.
//! * [`transaction`] — payment and contract transactions over objects.
//! * [`inlinevec`] — the inline short list holding a transaction's legs and
//!   signatures.
//! * [`block`] — blocks proposed by sequenced-broadcast instance leaders.
//! * [`checkpoint`] — quorum-certified stable checkpoints, the low-water
//!   marks behind log truncation and crash recovery.
//! * [`state`] — the Multi-BFT system state `S = (sn_0, …, sn_{m-1})`.
//! * [`config`] — protocol-level configuration shared by all protocols.
//! * [`time`] — virtual time used by the discrete-event simulation.
//! * [`rng`] — deterministic pseudo-random number generation (the workspace
//!   builds offline, so it carries its own seeded generator instead of
//!   depending on the `rand` crate).
//! * [`txtable`] — the per-run dense transaction table and the slot-indexed
//!   set and map over it that replace `TxId`-keyed hash containers.
//! * [`voteset`] — a bitset of replicas, the quorum tally type.
//! * [`hash`] — a seedless Fx hasher for the hot in-memory maps (faster and
//!   run-to-run stable, unlike `std`'s keyed SipHash).
//! * [`error`] — the common error type.

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

pub mod block;
pub mod checkpoint;
pub mod config;
pub mod crypto;
pub mod error;
pub mod hash;
pub mod ids;
pub mod inlinevec;
pub mod object;
pub mod pool;
pub mod profiling;
pub mod rng;
pub mod state;
pub mod time;
pub mod transaction;
pub mod txtable;
pub mod voteset;

pub use block::{Block, BlockHeader, BlockId, BlockParams, SharedBlock};
pub use checkpoint::{CheckpointProof, StableCheckpoint};
pub use config::{NetworkKind, ProtocolConfig, ProtocolKind};
pub use crypto::{Digest, KeyPair, PublicKey, Signature};
pub use error::{OrthrusError, Result};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{ClientId, Epoch, InstanceId, ObjectKey, Rank, ReplicaId, SeqNum, TxId, View};
pub use inlinevec::InlineVec;
pub use object::{Amount, Condition, ObjectOp, ObjectType, Operation, Value};
pub use profiling::ProfTimer;
pub use state::SystemState;
pub use time::{Duration, SimTime};
pub use transaction::{SharedTx, Transaction, TxKind};
pub use txtable::{TxMap, TxSet, TxTable};
pub use voteset::VoteSet;
