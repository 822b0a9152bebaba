//! # orthrus-execution
//!
//! The execution module of Orthrus (paper §V-C): the replicated object
//! store, the escrow mechanism and the executor that consumes transactions
//! from the partial logs (payment fast path) and the global log (contract
//! transactions).
//!
//! * [`store`] — owned accounts and shared contract records;
//! * [`escrow`] — the escrow log and the `escrow` / `allEscrowed` /
//!   `commitEscrow` / `abortEscrow` operations of Algorithm 2;
//! * [`executor`] — Algorithm 1's execution rules for plog and glog entries,
//!   plus the leader-side speculative validity check.
//!
//! The same executor serves every protocol in the workspace: baselines that
//! confirm all transactions through the global log simply route payments
//! through [`executor::Executor::process_glog_tx`]'s calling layer instead of
//! using the fast path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod escrow;
pub mod executor;
pub mod store;

pub use escrow::EscrowLog;
pub use executor::{Executor, TxOutcome};
pub use store::{ObjectState, ObjectStore};
