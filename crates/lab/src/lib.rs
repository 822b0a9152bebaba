//! # orthrus-lab
//!
//! Declarative experiment specs for the Orthrus reproduction: **scenarios as
//! data**, not as copy-pasted Rust.
//!
//! The paper's evaluation (§VII) is a large grid — 6 protocols × {LAN, WAN}
//! × replica counts × payment shares × fault plans. This crate puts a named,
//! serializable experiment layer in front of `orthrus_core::run_scenario`:
//!
//! * [`spec`] — the zero-dependency, line-oriented `.orth` format
//!   (`key = value` sections): a [`Spec`] keeps each section's entries in
//!   file order, and its hand-rolled parser and serializer round-trip them
//!   exactly;
//! * [`lower`] — the one key table that says what each entry sets, and the
//!   lowering from [`Spec`] to runnable [`orthrus_core::Scenario`] grids
//!   ([`Spec::lower`]), plus end-to-end validation ([`Spec::lint`]);
//! * [`registry`] — the named registry of checked-in `scenarios/*.orth`
//!   files covering Figures 3–8 and the ablation studies.
//!
//! The `orthrus` CLI (`orthrus list | show | run <name|file>`) is a thin
//! shell over these three modules and the one way to reproduce a figure:
//! `orthrus run <name>` lowers a registry spec and runs its grid, so a new
//! experiment is a ten-line spec file instead of a new binary.
//!
//! ## Example
//!
//! ```
//! use orthrus_lab::{parse, SpecScale};
//!
//! let spec = parse(
//!     "kind = scenario\n\
//!      name = smoke\n\
//!      \n\
//!      [scenario]\n\
//!      protocol = orthrus\n\
//!      network = lan\n\
//!      replicas = 4\n\
//!      accounts = 32\n\
//!      transactions = 120\n\
//!      shared_objects = 4\n\
//!      clients = 2\n\
//!      submission_window_ms = 200\n\
//!      seed = 7\n",
//! )
//! .expect("valid spec");
//! let points = spec.lower(SpecScale::Reduced).expect("lowers");
//! let outcome = orthrus_core::run_scenario(&points[0].scenario).expect("runs");
//! assert_eq!(outcome.confirmed, outcome.submitted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lower;
pub mod registry;
pub mod spec;

pub use lower::{LoweredPoint, SpecScale, DEFAULT_CRASH_AT_MS};
pub use registry::{find, RegistryEntry, ENTRIES};
pub use spec::{parse, serialize, Spec, SpecError};
