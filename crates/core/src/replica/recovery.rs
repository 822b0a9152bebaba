//! Crash recovery: state transfer to a restarted replica.
//!
//! A replica that restarts after a crash ignores consensus traffic and runs
//! a sync loop: each round asks `f + 1` peers for their state, and the first
//! answer installs wholesale. A [`StateTransfer`] is one clone of the
//! sender's [`Replicated`] state, taken when the request arrives; installing
//! one replaces the receiver's replicated state in one assignment. Rounds
//! keep firing until one passes in which no transfer advanced the replica.

use super::{ReplicaNode, Replicated, TIMER_RECOVERY_SYNC};
use crate::messages::NetMessage;
use orthrus_sb::{PbftInstance, ProgressTracker};
use orthrus_sim::{Context, NodeId};
use orthrus_types::{Duration, ReplicaId, SharedTx};
use std::sync::Arc;

/// A crash-recovery state transfer: everything a restarted replica installs
/// to rejoin the run (paper §V-D's checkpoint-anchored recovery, carried
/// over the simulated network as one message).
///
/// The honest-peer assumption of the simulation applies: the receiver adopts
/// the sender's observed protocol state wholesale. A deployment would fetch
/// the same payload from `f + 1` peers and cross-check it against the
/// stable-checkpoint certificates it carries (`StableCheckpoint::verify`).
pub struct StateTransfer {
    /// The sender's replicated state, cloned when the request arrived.
    state: Replicated,
    /// Monotone progress mark of the sender (delivered blocks + global-log
    /// length); installs are fast-forward only.
    mark: u64,
    /// Estimated wire size, computed once at build time.
    wire_bytes: u64,
}

impl StateTransfer {
    /// Estimated bytes this transfer occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// The sender's monotone progress mark (delivered blocks across all
    /// instances plus global-log length).
    pub fn progress_mark(&self) -> u64 {
        self.mark
    }
}

impl std::fmt::Debug for StateTransfer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateTransfer")
            .field("mark", &self.mark)
            .field("wire_bytes", &self.wire_bytes)
            .finish_non_exhaustive()
    }
}

/// Equality by identity: transfers are `Arc`-shared snapshots, and message
/// equality (used only by tests over small control messages) never needs to
/// compare two distinct snapshots structurally.
impl PartialEq for StateTransfer {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl ReplicaNode {
    /// Monotone progress mark: total blocks delivered across instances plus
    /// global-log length. State-transfer installs are fast-forward only with
    /// respect to this mark.
    fn progress_mark(&self) -> u64 {
        self.state
            .instances
            .iter()
            .map(PbftInstance::delivered_count)
            .sum::<u64>()
            + self.state.glog.len() as u64
    }

    /// Package this replica's state for a recovering peer. Everything above
    /// the checkpoint low-water marks is still retained locally (that is
    /// exactly what the retention policy keeps), so the transfer lets the
    /// peer resume mid-run, not just at the checkpoint.
    fn build_state_transfer(&self) -> StateTransfer {
        let state = self.state.clone();
        let wire_bytes = 1_024
            + state.executor.store().len() as u64 * 48
            + state.stable_certs.iter().flatten().count() as u64 * 128
            + state.plogs.retained_bytes()
            + state.glog.retained_bytes();
        StateTransfer {
            state,
            mark: self.progress_mark(),
            wire_bytes,
        }
    }

    pub(super) fn on_state_request(
        &mut self,
        from: ReplicaId,
        want_state: bool,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        // A replica that is itself mid-recovery has nothing trustworthy to
        // offer; the requester's other peers will answer.
        if self.recovering || from == self.me {
            return;
        }
        if want_state {
            let state = Arc::new(self.build_state_transfer());
            ctx.send(NodeId::Replica(from), NetMessage::StateTransfer { state });
        }
        // The requester may lead instances whose pending transactions only
        // exist in *our* buckets (relays sent while it was down were
        // dropped). Re-relay them, exactly like the view-change path does
        // for a new leader; bucket dedup makes repeats across sync rounds
        // harmless.
        for idx in 0..self.state.buckets.len() {
            if self.state.instances[idx].current_leader() != from {
                continue;
            }
            let pending: Vec<SharedTx> = self.state.buckets[idx].pull(usize::MAX, |_| true);
            for tx in pending {
                ctx.send(
                    NodeId::Replica(from),
                    NetMessage::ClientRequest {
                        tx: Arc::clone(&tx),
                    },
                );
                self.state.buckets[idx].push(tx);
            }
        }
    }

    /// Install a state transfer. Installs are fast-forward only: the first
    /// transfer after a restart always installs (the local state is stale by
    /// definition); later ones install only if the sender is ahead. A
    /// transfer that is *not* ahead means we have caught up with that peer —
    /// the sync round timer uses that to decide when to stop asking.
    ///
    /// An *advancing* transfer installs even after the sync loop has stopped
    /// (a large snapshot's serialization can outlive a short round delay):
    /// transfers only ever arrive in response to our own requests, the
    /// advancement gate makes late installs monotone, and installing one
    /// re-opens the loop so convergence is re-verified.
    pub(super) fn on_state_transfer(
        &mut self,
        transfer: &StateTransfer,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        if !self.recovering && transfer.mark <= self.progress_mark() {
            return;
        }
        // Adopt the peer's observed state wholesale, rebinding the PBFT
        // instances to our own identity.
        let old = std::mem::replace(&mut self.state, transfer.state.clone());
        for instance in &mut self.state.instances {
            instance.rebind(self.me);
        }
        // Merge back anything that reached *our* buckets between restart and
        // install (direct client traffic and peer re-relays) — the adopted
        // bucket's delivered-set dedups whatever the peer already saw ordered.
        for (idx, mut bucket) in old.buckets.into_iter().enumerate() {
            for tx in bucket.pull(usize::MAX, |_| true) {
                self.state.buckets[idx].push(tx);
            }
        }
        // Whatever the peer proposed is not ours: propose it again if we lead.
        self.ordering_proposed = 0;
        self.progress = ProgressTracker::new(self.config.view_change_timeout);
        self.sync_advanced = true;
        if !self.syncing {
            // The loop had already concluded; this late install re-opens it
            // so the next round can re-verify convergence.
            self.syncing = true;
            ctx.set_timer(self.sync_round_delay(), TIMER_RECOVERY_SYNC);
        }
        if self.recovering {
            self.recovering = false;
            self.recovered_at = Some(ctx.now());
            // The restart dropped the pre-crash timer chains: start them anew.
            self.arm_protocol_timers(ctx);
        }
        self.sample_retention();
    }

    /// Delay between recovery sync rounds: long enough for a round trip to
    /// the farthest peer plus its (large) response, short enough to keep
    /// recovery latency in the sub-second-per-round range.
    fn sync_round_delay(&self) -> Duration {
        Duration::from_micros(
            (self.config.view_change_timeout.as_micros() / 8)
                .max(4 * self.config.batch_timeout.as_micros())
                .max(200_000),
        )
    }

    /// The `f + 1` peers a sync round asks for state, rotating by round so
    /// crashed or lagging peers cannot starve recovery. Serving a transfer
    /// deep-clones the peer's whole state, so asking everyone every round
    /// (n − 1 clones of which at most one installs) would waste both peer
    /// CPU and simulated wire; `f + 1` guarantees at least one honest
    /// responder per round under the fault budget.
    fn sync_targets(&self) -> Vec<NodeId> {
        let n = self.config.num_replicas;
        let start = (u64::from(self.me.value()) + 1 + self.sync_round) % u64::from(n);
        (0..u64::from(n))
            .map(|i| ReplicaId::new(((start + i) % u64::from(n)) as u32))
            .filter(|r| *r != self.me)
            .take(self.config.client_quorum() as usize)
            .map(NodeId::Replica)
            .collect()
    }

    /// One recovery sync round: (re-)request state and re-arm the round
    /// timer. Rounds keep firing until a full round passes in which no
    /// transfer advanced us — at that point every live peer we heard from is
    /// at our position, all later traffic reaches us live, and the loop
    /// stops. (A transfer still in flight when the loop stops installs
    /// anyway if it advances us, and re-opens the loop — see
    /// [`ReplicaNode::on_state_transfer`].)
    pub(super) fn run_sync_round(&mut self, ctx: &mut Context<'_, NetMessage>) {
        if !self.syncing {
            return;
        }
        if !self.recovering && !self.sync_advanced {
            self.syncing = false;
            return;
        }
        self.sync_advanced = false;
        let targets = self.sync_targets();
        if self.sync_round == 0 {
            // First round only: announce the restart to the peers *not*
            // asked for state, so every peer re-relays the pending
            // transactions of instances we lead (their relays during the
            // crash window were dropped). Re-relays received from here on
            // survive the install (bucket merge), so once is enough.
            let others: Vec<NodeId> = self
                .peers
                .iter()
                .copied()
                .filter(|node| !targets.contains(node))
                .collect();
            ctx.multicast(
                others,
                NetMessage::StateRequest {
                    replica: self.me,
                    want_state: false,
                },
            );
        }
        self.sync_round += 1;
        ctx.multicast(
            targets,
            NetMessage::StateRequest {
                replica: self.me,
                want_state: true,
            },
        );
        let delay = self.sync_round_delay();
        ctx.set_timer(delay, TIMER_RECOVERY_SYNC);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::replica;
    use orthrus_types::ProtocolKind;
    use std::sync::Arc;

    #[test]
    fn state_transfer_snapshots_the_replicated_state_and_mark() {
        let node = replica(1, ProtocolKind::Orthrus);
        let transfer = node.build_state_transfer();
        assert_eq!(transfer.progress_mark(), 0);
        assert!(transfer.state.stable_certs.iter().all(Option::is_none));
        assert_eq!(
            transfer.state.executor.state_digest(),
            node.executor().state_digest()
        );
        assert_eq!(transfer.state.instances.len(), 4);
        // 1 KiB of framing plus 48 bytes for each of the 16 genesis accounts.
        assert_eq!(transfer.wire_bytes(), 1_024 + 16 * 48);
        // Identity equality: a shared handle equals itself, two builds do
        // not.
        let again = node.build_state_transfer();
        assert_ne!(transfer, again);
        let arc = Arc::new(transfer);
        assert_eq!(*arc, *Arc::clone(&arc));
    }
}
