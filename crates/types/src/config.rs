//! Protocol-level configuration shared by Orthrus and the baseline
//! Multi-BFT protocols.

use crate::error::{OrthrusError, Result};
use crate::time::Duration;
use std::fmt;

/// Which Multi-BFT protocol a replica runs. All protocols share the same
/// chassis (partition → SB instances → ordering → execution) and differ in
/// their global ordering / execution policy, mirroring the paper's
/// methodology of building every comparator on the ISS platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Orthrus: partial ordering fast path for payments + Ladon-style dynamic
    /// global ordering for contract transactions + escrow (this paper).
    Orthrus,
    /// ISS (EuroSys '22): pre-determined global ordering with no-op filling.
    Iss,
    /// Mir-BFT (JSys '22): pre-determined global ordering, epoch change on
    /// leader failure.
    MirBft,
    /// RCC (ICDE '21): pre-determined (round-robin) global ordering with
    /// per-instance recovery.
    Rcc,
    /// DQBFT (VLDB '22): a dedicated ordering instance sequences the blocks
    /// delivered by all other instances.
    Dqbft,
    /// Ladon (EuroSys '25): rank-based dynamic global ordering.
    Ladon,
}

impl ProtocolKind {
    /// All protocols evaluated in the paper, in the order used by its plots.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::Orthrus,
        ProtocolKind::Iss,
        ProtocolKind::Rcc,
        ProtocolKind::MirBft,
        ProtocolKind::Dqbft,
        ProtocolKind::Ladon,
    ];

    /// Stable lower-case name (the value of the `protocol` key in `.orth`
    /// specs).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Orthrus => "orthrus",
            ProtocolKind::Iss => "iss",
            ProtocolKind::MirBft => "mir",
            ProtocolKind::Rcc => "rcc",
            ProtocolKind::Dqbft => "dqbft",
            ProtocolKind::Ladon => "ladon",
        }
    }

    /// The protocol with the given [`ProtocolKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Short label used by the benchmark harness output (matches the paper's
    /// figure legends).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Orthrus => "Orthrus",
            ProtocolKind::Iss => "ISS",
            ProtocolKind::MirBft => "Mir",
            ProtocolKind::Rcc => "RCC",
            ProtocolKind::Dqbft => "DQBFT",
            ProtocolKind::Ladon => "Ladon",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which network environment the evaluation runs in (paper §VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Single data centre, 1 Gbps links, sub-millisecond latency.
    Lan,
    /// Four regions (France, United States, Australia, Tokyo), 1 Gbps links.
    Wan,
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkKind::Lan => f.write_str("LAN"),
            NetworkKind::Wan => f.write_str("WAN"),
        }
    }
}

/// Configuration of a Multi-BFT deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Number of replicas `n`.
    pub num_replicas: u32,
    /// Number of SB instances `m`. The paper's evaluation uses `m = n`
    /// (every replica leads one instance).
    pub num_instances: u32,
    /// Maximum number of transactions per block (paper: 4096).
    pub batch_size: usize,
    /// How long a leader waits for a full batch before proposing whatever its
    /// bucket holds (possibly a no-op block).
    pub batch_timeout: Duration,
    /// PBFT view-change timeout (paper §VII-E uses 10 s).
    pub view_change_timeout: Duration,
    /// Interval, in sequence numbers, between PBFT checkpoints inside an
    /// instance.
    pub checkpoint_interval: u64,
    /// Number of client (load-generator) actors in the deployment. Logical
    /// client `c` is served by actor `c mod num_client_actors`; replicas use
    /// the same mapping to route replies.
    pub num_client_actors: u64,
    /// Maximum number of proposals a leader keeps in flight (beyond the
    /// delivered prefix) per instance. Deeper pipelining keeps NICs busier at
    /// large scale at the cost of more speculative state per instance.
    pub max_inflight_blocks: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            num_replicas: 4,
            num_instances: 4,
            batch_size: 4096,
            batch_timeout: Duration::from_millis(50),
            view_change_timeout: Duration::from_secs(10),
            checkpoint_interval: 4,
            num_client_actors: 4,
            max_inflight_blocks: 4,
        }
    }
}

impl ProtocolConfig {
    /// Configuration for `n` replicas with `m = n` instances and the paper's
    /// evaluation defaults.
    pub fn for_replicas(n: u32) -> Self {
        Self {
            num_replicas: n,
            num_instances: n,
            ..Self::default()
        }
    }

    /// Maximum number of Byzantine replicas tolerated: `f = ⌊(n-1)/3⌋`.
    #[inline]
    pub fn max_faulty(&self) -> u32 {
        (self.num_replicas - 1) / 3
    }

    /// Quorum size `2f + 1`.
    #[inline]
    pub fn quorum(&self) -> u32 {
        2 * self.max_faulty() + 1
    }

    /// Number of matching replies a client needs before confirming a
    /// transaction (`f + 1`).
    #[inline]
    pub fn client_quorum(&self) -> u32 {
        self.max_faulty() + 1
    }

    /// The client actor serving a logical client id.
    #[inline]
    pub fn client_actor_of(&self, client: crate::ids::ClientId) -> crate::ids::ClientId {
        crate::ids::ClientId::new(client.value() % self.num_client_actors.max(1))
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_replicas < 4 {
            return Err(OrthrusError::Config(format!(
                "need at least 4 replicas for BFT, got {}",
                self.num_replicas
            )));
        }
        if self.num_replicas < 3 * self.max_faulty() + 1 {
            return Err(OrthrusError::Config(
                "replica count violates n >= 3f + 1".into(),
            ));
        }
        if self.num_instances == 0 {
            return Err(OrthrusError::Config("need at least one SB instance".into()));
        }
        if self.num_instances > self.num_replicas {
            return Err(OrthrusError::Config(format!(
                "more instances ({}) than replicas ({}) is not supported",
                self.num_instances, self.num_replicas
            )));
        }
        if self.batch_size == 0 {
            return Err(OrthrusError::Config("batch size must be positive".into()));
        }
        if self.max_inflight_blocks == 0 {
            return Err(OrthrusError::Config(
                "max_inflight_blocks must be at least 1 (a leader needs one slot in flight)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ProtocolConfig::default().validate().is_ok());
    }

    #[test]
    fn fault_thresholds() {
        let c = ProtocolConfig::for_replicas(4);
        assert_eq!(c.max_faulty(), 1);
        assert_eq!(c.quorum(), 3);
        assert_eq!(c.client_quorum(), 2);

        let c = ProtocolConfig::for_replicas(16);
        assert_eq!(c.max_faulty(), 5);
        assert_eq!(c.quorum(), 11);
        assert_eq!(c.client_quorum(), 6);

        let c = ProtocolConfig::for_replicas(128);
        assert_eq!(c.max_faulty(), 42);
        assert_eq!(c.quorum(), 85);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ProtocolConfig::for_replicas(3);
        assert!(c.validate().is_err());
        c = ProtocolConfig::for_replicas(8);
        c.num_instances = 9;
        assert!(c.validate().is_err());
        c = ProtocolConfig::for_replicas(8);
        c.batch_size = 0;
        assert!(c.validate().is_err());
        c = ProtocolConfig::for_replicas(8);
        c.num_instances = 0;
        assert!(c.validate().is_err());
        c = ProtocolConfig::for_replicas(8);
        c.max_inflight_blocks = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn inflight_depth_is_tunable_and_defaults_to_four() {
        let c = ProtocolConfig::default();
        assert_eq!(c.max_inflight_blocks, 4);
        let mut c = ProtocolConfig::for_replicas(16);
        c.max_inflight_blocks = 16;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn protocol_names_round_trip() {
        for protocol in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_name(protocol.name()), Some(protocol));
        }
        assert_eq!(ProtocolKind::MirBft.name(), "mir");
        assert_eq!(ProtocolKind::from_name("Orthrus"), None);
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(ProtocolKind::Orthrus.to_string(), "Orthrus");
        assert_eq!(ProtocolKind::MirBft.to_string(), "Mir");
        assert_eq!(NetworkKind::Wan.to_string(), "WAN");
    }
}
