//! Network models: LAN and 4-region WAN latency, bandwidth and per-message
//! processing cost.
//!
//! The paper's testbed (§VII-A) places replicas in four AWS regions —
//! France (eu-west-3), the United States, Australia and Tokyo — with network
//! interfaces limited to 1 Gbps, and a LAN setting with 1 Gbps private
//! networking. This module reproduces that topology with representative
//! one-way propagation delays; absolute values differ from any particular AWS
//! measurement but preserve the relative geometry (Europe ↔ Australia is the
//! longest path, intra-region is sub-millisecond).

use crate::node::NodeId;
use orthrus_types::rng::Rng;
use orthrus_types::{Duration, NetworkKind};

/// Geographic region hosting a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Paris (eu-west-3).
    France,
    /// N. Virginia (us-east-1).
    UnitedStates,
    /// Sydney (ap-southeast-2).
    Australia,
    /// Tokyo (ap-northeast-1).
    Tokyo,
}

impl Region {
    /// The four regions used by the paper's WAN deployment, in the order
    /// replicas are assigned to them (round-robin).
    pub const ALL: [Region; 4] = [
        Region::France,
        Region::UnitedStates,
        Region::Australia,
        Region::Tokyo,
    ];

    fn index(self) -> usize {
        match self {
            Region::France => 0,
            Region::UnitedStates => 1,
            Region::Australia => 2,
            Region::Tokyo => 3,
        }
    }
}

/// One-way propagation delay between regions in milliseconds. Derived from
/// typical public inter-region RTT measurements (half of RTT), rounded.
const WAN_ONE_WAY_MS: [[u64; 4]; 4] = [
    // France   US    Australia  Tokyo
    [1, 40, 140, 110], // France
    [40, 1, 100, 75],  // United States
    [140, 100, 1, 55], // Australia
    [110, 75, 55, 1],  // Tokyo
];

/// One-way delay inside a LAN (same data centre).
const LAN_ONE_WAY_US: u64 = 250;

/// Network configuration: topology kind, bandwidth, jitter and per-message
/// processing cost.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// LAN or WAN topology.
    pub kind: NetworkKind,
    /// Link bandwidth in bits per second (paper: 1 Gbps).
    pub bandwidth_bps: u64,
    /// Relative jitter applied to propagation delay, e.g. `0.1` for ±10%.
    pub jitter: f64,
    /// CPU cost charged per message at the sender and at the receiver
    /// (signature checks, marshalling). Multiplied by a straggler's slowdown
    /// factor.
    pub processing_per_message: Duration,
}

impl NetworkConfig {
    /// The WAN environment of the paper: 4 regions, 1 Gbps, modest jitter.
    pub fn wan() -> Self {
        Self {
            kind: NetworkKind::Wan,
            bandwidth_bps: 1_000_000_000,
            jitter: 0.05,
            processing_per_message: Duration::from_micros(30),
        }
    }

    /// The LAN environment of the paper: one data centre, 1 Gbps.
    pub fn lan() -> Self {
        Self {
            kind: NetworkKind::Lan,
            bandwidth_bps: 1_000_000_000,
            jitter: 0.05,
            processing_per_message: Duration::from_micros(30),
        }
    }

    /// Construct the configuration matching a [`NetworkKind`].
    pub fn for_kind(kind: NetworkKind) -> Self {
        match kind {
            NetworkKind::Lan => Self::lan(),
            NetworkKind::Wan => Self::wan(),
        }
    }

    /// Region hosting `node`. Replicas are assigned to the four regions
    /// round-robin by id (as in the paper's deployment); clients are likewise
    /// spread round-robin so each client is co-located with some replicas.
    /// In the LAN everything is in one region.
    pub fn region_of(&self, node: NodeId) -> Region {
        match self.kind {
            NetworkKind::Lan => Region::France,
            NetworkKind::Wan => {
                let idx = match node {
                    NodeId::Replica(r) => r.value() as usize,
                    NodeId::Client(c) => c.value() as usize,
                };
                Region::ALL[idx % Region::ALL.len()]
            }
        }
    }

    /// Base one-way propagation delay between two nodes (no jitter, no
    /// bandwidth component).
    pub fn base_latency(&self, from: NodeId, to: NodeId) -> Duration {
        if from == to {
            return Duration::from_micros(1);
        }
        match self.kind {
            NetworkKind::Lan => Duration::from_micros(LAN_ONE_WAY_US),
            NetworkKind::Wan => {
                let a = self.region_of(from).index();
                let b = self.region_of(to).index();
                Duration::from_millis(WAN_ONE_WAY_MS[a][b])
            }
        }
    }

    /// Propagation delay between two nodes with jitter sampled from `rng`.
    pub fn sample_latency<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut R,
    ) -> Duration {
        let base = self.base_latency(from, to);
        if self.jitter <= 0.0 || base.as_micros() == 0 {
            return base;
        }
        let factor = 1.0 + rng.gen_range(-self.jitter..=self.jitter);
        base.mul_f64(factor.max(0.0))
    }

    /// Serialization (transmission) delay of `bytes` on a link of this
    /// bandwidth.
    pub fn serialization_delay(&self, bytes: u64) -> Duration {
        if self.bandwidth_bps == 0 {
            return Duration::ZERO;
        }
        let micros = bytes.saturating_mul(8).saturating_mul(1_000_000) / self.bandwidth_bps;
        Duration::from_micros(micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::rng::StdRng;

    #[test]
    #[allow(
        clippy::needless_range_loop,
        reason = "indexing both ways is the symmetry being checked"
    )]
    fn wan_matrix_is_symmetric_and_plausible() {
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(WAN_ONE_WAY_MS[i][j], WAN_ONE_WAY_MS[j][i]);
            }
            assert_eq!(WAN_ONE_WAY_MS[i][i], 1);
        }
        // Europe <-> Australia is the longest link.
        assert!(WAN_ONE_WAY_MS[0][2] >= WAN_ONE_WAY_MS[0][1]);
        assert!(WAN_ONE_WAY_MS[0][2] >= WAN_ONE_WAY_MS[0][3]);
    }

    #[test]
    fn region_assignment_round_robin() {
        let net = NetworkConfig::wan();
        assert_eq!(net.region_of(NodeId::replica(0)), Region::France);
        assert_eq!(net.region_of(NodeId::replica(1)), Region::UnitedStates);
        assert_eq!(net.region_of(NodeId::replica(2)), Region::Australia);
        assert_eq!(net.region_of(NodeId::replica(3)), Region::Tokyo);
        assert_eq!(net.region_of(NodeId::replica(4)), Region::France);
    }

    #[test]
    fn lan_is_flat() {
        let net = NetworkConfig::lan();
        assert_eq!(
            net.base_latency(NodeId::replica(0), NodeId::replica(63)),
            Duration::from_micros(LAN_ONE_WAY_US)
        );
        assert_eq!(net.region_of(NodeId::replica(17)), Region::France);
    }

    #[test]
    fn wan_latency_depends_on_regions() {
        let net = NetworkConfig::wan();
        // replica 0 (France) -> replica 2 (Australia) is the long haul.
        let long = net.base_latency(NodeId::replica(0), NodeId::replica(2));
        // replica 0 (France) -> replica 4 (France) is intra-region.
        let short = net.base_latency(NodeId::replica(0), NodeId::replica(4));
        assert!(long > short);
        assert_eq!(long, Duration::from_millis(140));
        assert_eq!(short, Duration::from_millis(1));
    }

    #[test]
    fn self_messages_are_near_instant() {
        let net = NetworkConfig::wan();
        assert_eq!(
            net.base_latency(NodeId::replica(5), NodeId::replica(5)),
            Duration::from_micros(1)
        );
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let net = NetworkConfig::wan();
        let mut rng = StdRng::seed_from_u64(7);
        let base = net
            .base_latency(NodeId::replica(0), NodeId::replica(1))
            .as_micros() as f64;
        for _ in 0..200 {
            let sampled = net
                .sample_latency(NodeId::replica(0), NodeId::replica(1), &mut rng)
                .as_micros() as f64;
            assert!(sampled >= base * 0.94 && sampled <= base * 1.06);
        }
    }

    #[test]
    fn serialization_delay_matches_bandwidth() {
        let net = NetworkConfig::wan();
        // 1 Gbps: 125 bytes take 1 microsecond.
        assert_eq!(net.serialization_delay(125), Duration::from_micros(1));
        // A 2 MB block takes ~16 ms.
        let block = net.serialization_delay(2_000_000);
        assert!(block >= Duration::from_millis(15) && block <= Duration::from_millis(17));
    }

    #[test]
    fn for_kind_dispatch() {
        assert_eq!(
            NetworkConfig::for_kind(NetworkKind::Lan),
            NetworkConfig::lan()
        );
        assert_eq!(
            NetworkConfig::for_kind(NetworkKind::Wan),
            NetworkConfig::wan()
        );
    }
}
