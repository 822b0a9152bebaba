//! The actor abstraction: protocol nodes (replicas, clients) implement
//! [`Actor`] and interact with the simulation exclusively through the
//! [`Context`] handed to every event handler.

use crate::node::NodeId;
use crate::stats::StatsCollector;
use orthrus_types::rng::StdRng;
use orthrus_types::{Duration, SimTime};
use std::any::Any;

/// A buffered outbound transmission: a unicast to one node, or a coalesced
/// multicast the engine carries through its queue as a *single* event.
#[derive(Debug, PartialEq)]
pub(crate) enum Outbound<M> {
    /// One message to one recipient.
    One(NodeId, M),
    /// One message to many recipients (at least two), delivered in the given
    /// deterministic order.
    Many(Vec<NodeId>, M),
}

/// A protocol node driven by the simulation engine.
///
/// Handlers must not block; any work a node wants to do "later" is expressed
/// by sending itself a message or setting a timer. All state lives inside the
/// actor, so two actors never share memory — exactly like separate processes
/// on separate machines.
pub trait Actor<M>: Any {
    /// Called once when the simulation starts (or when the actor is added to
    /// a running simulation).
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message from `from` is delivered to this actor.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<'_, M>);

    /// Called when a timer set by this actor fires. `tag` is the value passed
    /// to [`Context::set_timer`].
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, M>) {}

    /// Called when the actor restarts after a crash-recover fault (the
    /// `recover_at` instant of its `CrashRecoverSpec`). Everything delivered
    /// during the crash window was dropped, and the engine has forgotten
    /// every timer armed before the restart: none of them fires, even one
    /// due after `recover_at`. A recovering protocol node typically re-arms
    /// its timers and requests a state transfer from its peers here. The
    /// default does nothing.
    fn on_recover(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Up-cast for post-simulation inspection (the engine exposes actors as
    /// trait objects; tests and harnesses use this to read final state).
    fn as_any(&self) -> &dyn Any;
}

/// Everything an actor may do while handling an event: read the clock, send
/// messages, set timers, draw randomness and record metrics.
///
/// Sends and timers are buffered and applied by the engine after the handler
/// returns, which keeps handlers free of re-entrancy concerns.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) stats: &'a mut StatsCollector,
    pub(crate) outbox: &'a mut Vec<Outbound<M>>,
    pub(crate) timer_requests: &'a mut Vec<(Duration, u64)>,
}

impl<'a, M> Context<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The identity of the actor handling this event.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Send `msg` to `to`. Delivery time is decided by the network model
    /// (propagation + serialization + processing, with straggler slowdown).
    /// Sending to oneself is allowed and arrives after the loopback delay.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Outbound::One(to, msg));
    }

    /// Send the same message to every node in `targets`.
    ///
    /// The whole fan-out travels through the engine's queue as *one*
    /// coalesced event holding the single original message, so an `n`-way
    /// broadcast adds one queue entry instead of `n` and performs zero clones
    /// up front. Per-recipient copies (a reference-count bump with the
    /// workspace's `Arc`-backed payloads — see `ARCHITECTURE.md`) are made
    /// only when each delivery is dispatched, and per-link latency is sampled
    /// in the deterministic order recipients appear in `targets`.
    pub fn multicast<I>(&mut self, targets: I, msg: M)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut recipients: Vec<NodeId> = targets.into_iter().collect();
        match recipients.len() {
            0 => {}
            1 => self.outbox.push(Outbound::One(recipients.remove(0), msg)),
            _ => self.outbox.push(Outbound::Many(recipients, msg)),
        }
    }

    /// Arm a timer that fires after `delay` with the given `tag`, unless the
    /// node restarts first (see [`Actor::on_recover`]).
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.timer_requests.push((delay, tag));
    }

    /// Deterministic per-node random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The shared metrics collector.
    #[inline]
    pub fn stats(&mut self) -> &mut StatsCollector {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::rng::Rng;

    #[allow(
        clippy::type_complexity,
        reason = "one tuple of the buffers a `Context` borrows, spelled out"
    )]
    fn make_parts() -> (
        StdRng,
        StatsCollector,
        Vec<Outbound<u64>>,
        Vec<(Duration, u64)>,
    ) {
        (
            StdRng::seed_from_u64(1),
            StatsCollector::new(),
            Vec::new(),
            Vec::new(),
        )
    }

    #[test]
    fn context_buffers_sends_and_timers() {
        let (mut rng, mut stats, mut outbox, mut timers) = make_parts();
        let mut ctx = Context {
            now: SimTime::from_millis(10),
            self_id: NodeId::replica(0),
            rng: &mut rng,
            stats: &mut stats,
            outbox: &mut outbox,
            timer_requests: &mut timers,
        };
        assert_eq!(ctx.now(), SimTime::from_millis(10));
        assert_eq!(ctx.id(), NodeId::replica(0));
        ctx.send(NodeId::replica(1), 42u64);
        ctx.multicast([NodeId::replica(2), NodeId::replica(3)], 7u64);
        ctx.set_timer(Duration::from_millis(5), 99);
        ctx.set_timer(Duration::from_millis(6), 100);
        let _: u32 = ctx.rng().gen();
        ctx.stats().block_delivered();

        assert_eq!(outbox.len(), 2);
        assert_eq!(outbox[0], Outbound::One(NodeId::replica(1), 42));
        assert_eq!(
            outbox[1],
            Outbound::Many(vec![NodeId::replica(2), NodeId::replica(3)], 7)
        );
        assert_eq!(
            timers,
            vec![
                (Duration::from_millis(5), 99),
                (Duration::from_millis(6), 100)
            ]
        );
        assert_eq!(stats.blocks_delivered, 1);
    }

    #[test]
    fn multicast_collapses_degenerate_fanouts() {
        let (mut rng, mut stats, mut outbox, mut timers) = make_parts();
        let mut ctx = Context {
            now: SimTime::ZERO,
            self_id: NodeId::replica(0),
            rng: &mut rng,
            stats: &mut stats,
            outbox: &mut outbox,
            timer_requests: &mut timers,
        };
        ctx.multicast([], 1u64);
        ctx.multicast([NodeId::replica(5)], 2u64);
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0], Outbound::One(NodeId::replica(5), 2));
    }
}
