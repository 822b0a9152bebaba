//! # Orthrus
//!
//! A Rust reproduction of *“Orthrus: Accelerating Multi-BFT Consensus through
//! Concurrent Partial Ordering of Transactions”* (ICDE 2025).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`types`] — the data model (objects, transactions, blocks, system state);
//! * [`sim`] — the deterministic discrete-event simulation substrate;
//! * [`sb`] — sequenced broadcast (PBFT) instances;
//! * [`ordering`] — partial/global logs and the global-ordering policies
//!   (pre-determined, DQBFT, Ladon);
//! * [`execution`] — the object store, escrow mechanism and executor;
//! * [`workload`] — synthetic Ethereum-like workload generation;
//! * [`core`] — the Orthrus replica, the baseline protocols and the fallible
//!   [`core::runner::run_scenario`] driver used by examples, tests and
//!   benchmarks;
//! * [`lab`] — declarative `.orth` experiment specs, sweep grids and the
//!   named registry behind the `orthrus` CLI.
//!
//! ## Quick start
//!
//! Scenarios are built with a fluent builder and run through a fallible
//! driver: cross-field invariants (protocol config, workload, fault plan)
//! are validated in one place before any event is simulated, and the
//! workload seed derives from the scenario seed — one seed, one trace.
//!
//! ```
//! use orthrus::prelude::*;
//!
//! // Four replicas on a simulated LAN running Orthrus over a small workload.
//! let scenario = Scenario::new(ProtocolKind::Orthrus, NetworkKind::Lan, 4)
//!     .with_workload(WorkloadConfig::small().with_transactions(200))
//!     .with_seed(7);
//! let outcome = run_scenario(&scenario).expect("a valid scenario");
//! assert_eq!(outcome.confirmed, outcome.submitted);
//! println!(
//!     "throughput {:.1} ktps, avg latency {}",
//!     outcome.throughput_ktps, outcome.avg_latency
//! );
//!
//! // Invalid configurations are rejected before the simulation starts.
//! let invalid = scenario.clone().with_num_clients(0);
//! assert!(run_scenario(&invalid).is_err());
//! ```
//!
//! The same experiment can live as data: a `.orth` spec file lowered through
//! [`lab`] (see `scenarios/` for the paper's figure grids):
//!
//! ```
//! use orthrus::lab::{parse, SpecScale};
//!
//! let spec = parse(
//!     "kind = scenario\n\
//!      name = smoke\n\
//!      \n\
//!      [scenario]\n\
//!      protocol = orthrus\n\
//!      network = lan\n\
//!      replicas = 4\n\
//!      accounts = 64\n\
//!      transactions = 200\n\
//!      shared_objects = 8\n\
//!      seed = 7\n",
//! )
//! .expect("valid spec");
//! let point = &spec.lower(SpecScale::Reduced).expect("lowers")[0];
//! let outcome = orthrus::core::run_scenario(&point.scenario).expect("runs");
//! assert_eq!(outcome.confirmed, outcome.submitted);
//! ```
//!
//! ## The `orthrus` CLI
//!
//! The `orthrus` binary drives the registry from the command line; every
//! figure of the paper's evaluation is `orthrus run <name>`:
//!
//! ```bash
//! orthrus list                               # every named spec
//! orthrus show fig3ab_wan_no_straggler       # canonical form + lowered grid
//! orthrus run quickstart --json out.json     # run and record a grid
//! orthrus run my_experiment.orth --threads 4 # run a spec file
//! orthrus lint                               # parse + validate all specs
//! ```

#![warn(missing_docs)]

pub use orthrus_core as core;
pub use orthrus_execution as execution;
pub use orthrus_lab as lab;
pub use orthrus_ordering as ordering;
pub use orthrus_sb as sb;
pub use orthrus_sim as sim;
pub use orthrus_types as types;
pub use orthrus_workload as workload;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use orthrus_core::{
        run_scenario, run_scenarios, run_scenarios_with_threads, Scenario, ScenarioOutcome,
        StopCondition,
    };
    pub use orthrus_execution::{Executor, ObjectStore, TxOutcome};
    pub use orthrus_lab::{LoweredPoint, Spec, SpecScale};
    pub use orthrus_sim::{CrashRecoverSpec, FaultPlan, NetworkConfig, StatsCollector};
    pub use orthrus_types::{
        Amount, Block, ClientId, Duration, InstanceId, NetworkKind, ObjectKey, OrthrusError,
        ProtocolConfig, ProtocolKind, ReplicaId, SimTime, StableCheckpoint, Transaction, TxId,
        TxKind,
    };
    pub use orthrus_workload::{Workload, WorkloadConfig};
}
