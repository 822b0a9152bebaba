//! The discrete-event simulation engine.
//!
//! The engine owns the actors, the virtual clock, the event queue, the
//! network model and the fault plan. It repeatedly takes the earliest event,
//! advances the clock to its timestamp and dispatches it to the target actor;
//! messages the actor sends in response are run through the network model
//! (processing delay → NIC serialization with a per-sender queue →
//! propagation latency with jitter) and scheduled as future delivery events.
//!
//! The per-sender NIC queue is what reproduces the *leader bottleneck* that
//! motivates Multi-BFT consensus: a single-leader protocol funnels every
//! block through one NIC, while Multi-BFT spreads proposals over all
//! replicas.
//!
//! Multicasts are *coalesced*: an `n`-way [`Context::multicast`] occupies a
//! single `EngineEvent::DeliverBatch` queue entry carrying one message and
//! a per-recipient delivery plan (NIC serialization is still charged once per
//! copy, and per-link latency is sampled in deterministic recipient order at
//! send time). The queue holds one entry per in-flight broadcast instead of
//! `n` — at 128 replicas this shrinks the peak queue by roughly the fan-out.
//!
//! A due batch is not popped but *held* (see `event.rs`): its key stays at
//! the heap top and its payload in its queue slot while the engine delivers
//! every recipient whose arrival time has come, one clone of the message
//! each. Nothing the handlers schedule can displace it, because it is due
//! no earlier than now and takes a later sequence number. The entry is then
//! re-keyed to the next arrival with a fresh sequence number, one sift down
//! from the top, or released after the last recipient. The fresh sequence
//! number is taken after the handlers ran, so an event a handler scheduled
//! for the instant of the batch's next arrival runs before that arrival.
//!
//! Coalescing preserves every per-recipient *arrival time* and the relative
//! order of a batch's own deliveries, but not the interleaving with
//! unrelated events at the exact same timestamp: the re-keyed remainder
//! carries a fresh insertion sequence, so a tie against another sender's
//! message may dispatch in a different order than the per-recipient path
//! would have. Runs remain fully deterministic for a given seed and
//! configuration — only the (arbitrary) tie-break between simultaneous
//! events differs between the two delivery strategies.
//!
//! A crash-recover restart forgets the node's timers: every timer event
//! carries the incarnation of the node that armed it, the restart bumps the
//! incarnation, and a timer from an older one still pops (and counts) but
//! reaches no handler.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "event dispatch: a panic here tears down the whole run instead of failing one event"
)]

use crate::actor::{Actor, Context, Outbound};
use crate::event::EventQueue;
use crate::faults::FaultPlan;
use crate::network::NetworkConfig;
use crate::node::{NodeId, Payload};
use crate::stats::StatsCollector;
use orthrus_types::rng::StdRng;
use orthrus_types::{Duration, SimTime};
use std::hash::{Hash, Hasher};

/// Internal events moved through the queue.
enum EngineEvent<M> {
    Start {
        node: NodeId,
    },
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// A coalesced multicast: one message, one queue entry, many recipients.
    /// `plan` is sorted by arrival time (ties keep recipient order) and
    /// `next` indexes the first undelivered recipient.
    DeliverBatch {
        from: NodeId,
        msg: M,
        plan: Vec<(SimTime, NodeId)>,
        next: usize,
    },
    /// A timer armed by `node` while it was in `incarnation`.
    Timer {
        node: NodeId,
        incarnation: u64,
        tag: u64,
    },
    /// A crash-recover fault's restart instant: start the node's next
    /// incarnation and fire the actor's `on_recover` hook.
    Recover {
        node: NodeId,
    },
}

/// What a dispatched event asks of an actor.
enum Invocation<M> {
    Start,
    Message { from: NodeId, msg: M },
    Timer { tag: u64 },
    Recover,
}

/// Summary of a completed (or deadline-limited) simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationReport {
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
    /// Number of events dispatched.
    pub events_processed: u64,
    /// Number of protocol messages sent.
    pub messages_sent: u64,
    /// Number of protocol bytes sent.
    pub bytes_sent: u64,
    /// Largest number of events simultaneously waiting in the queue.
    pub peak_queue_len: u64,
}

/// An actor and its private simulation state: one index per invocation
/// reaches all of it.
struct NodeState<M> {
    actor: Box<dyn Actor<M>>,
    rng: StdRng,
    /// When the node's NIC finishes serializing what it has already sent.
    nic_free: SimTime,
    /// Restarts so far. A timer fires only in the incarnation that armed it.
    incarnation: u64,
}

/// The registered nodes: one dense table per node kind, indexed by the id's
/// value, so a dispatch reaches its node with one bounds-checked index
/// instead of a hash probe. Ids are meant to be numbered densely from 0 per
/// kind (the runner registers replicas `0..n` and client actors `0..c`); an
/// unregistered id resolves to `None`.
struct Nodes<M> {
    replicas: Vec<Option<NodeState<M>>>,
    clients: Vec<Option<NodeState<M>>>,
}

impl<M> Nodes<M> {
    fn new() -> Self {
        Self {
            replicas: Vec::new(),
            clients: Vec::new(),
        }
    }

    fn table_mut(&mut self, id: NodeId) -> (&mut Vec<Option<NodeState<M>>>, usize) {
        match id {
            NodeId::Replica(r) => (&mut self.replicas, r.as_usize()),
            NodeId::Client(c) => (&mut self.clients, c.as_usize()),
        }
    }

    /// Register (or replace) the state of `id`.
    fn insert(&mut self, id: NodeId, state: NodeState<M>) {
        let (table, index) = self.table_mut(id);
        if table.len() <= index {
            table.resize_with(index + 1, || None);
        }
        table[index] = Some(state);
    }

    fn get(&self, id: NodeId) -> Option<&NodeState<M>> {
        let (table, index) = match id {
            NodeId::Replica(r) => (&self.replicas, r.as_usize()),
            NodeId::Client(c) => (&self.clients, c.as_usize()),
        };
        table.get(index)?.as_ref()
    }

    fn get_mut(&mut self, id: NodeId) -> Option<&mut NodeState<M>> {
        let (table, index) = self.table_mut(id);
        table.get_mut(index)?.as_mut()
    }

    fn len(&self) -> usize {
        self.replicas.iter().chain(&self.clients).flatten().count()
    }
}

/// The simulation: actors plus the virtual world they live in.
pub struct Simulation<M> {
    nodes: Nodes<M>,
    queue: EventQueue<EngineEvent<M>>,
    network: NetworkConfig,
    faults: FaultPlan,
    stats: StatsCollector,
    /// What the running handler buffered through its [`Context`]. Each
    /// `invoke` drains both, so they are empty between invocations and only
    /// their capacity carries over.
    outbox: Vec<Outbound<M>>,
    timer_requests: Vec<(Duration, u64)>,
    /// Emptied plans of finished [`EngineEvent::DeliverBatch`]es, reused by
    /// the next multicasts; never longer than the peak number of batches
    /// that were in flight at once.
    plan_pool: Vec<Vec<(SimTime, NodeId)>>,
    now: SimTime,
    seed: u64,
    events_processed: u64,
}

/// Compile shim for the frozen `benchmark/` crate: the type of
/// `Scenario::queue` and of [`Simulation::with_queue`]'s ignored argument.
/// There is one event queue (see `event.rs`); this goes away with the next
/// `benchmark`-archetype PR.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    #[default]
    Heap,
}

// `M: Clone` is required at the engine level (not just on `multicast`)
// because any actor may multicast and the coalesced batch clones the message
// per recipient at dispatch; the workspace's `Arc`-backed payload convention
// makes that a reference-count bump.
impl<M: Payload + Clone + 'static> Simulation<M> {
    /// Create a simulation over the given network with no faults.
    pub fn new(network: NetworkConfig, seed: u64) -> Self {
        Self::with_faults(network, FaultPlan::none(), seed)
    }

    /// Create a simulation over the given network and fault plan.
    pub fn with_faults(network: NetworkConfig, faults: FaultPlan, seed: u64) -> Self {
        Self {
            nodes: Nodes::new(),
            queue: EventQueue::new(),
            network,
            faults,
            stats: StatsCollector::new(),
            outbox: Vec::new(),
            timer_requests: Vec::new(),
            plan_pool: Vec::new(),
            now: SimTime::ZERO,
            seed,
            events_processed: 0,
        }
    }

    /// Compile shim for the frozen `benchmark/` crate, whose `replay.rs` calls
    /// this with `Scenario::queue`; the argument is ignored. Goes away with
    /// the next `benchmark`-archetype PR.
    #[doc(hidden)]
    pub fn with_queue(
        network: NetworkConfig,
        faults: FaultPlan,
        seed: u64,
        _queue: QueueKind,
    ) -> Self {
        Self::with_faults(network, faults, seed)
    }

    /// Register an actor. Its `on_start` handler runs at the current virtual
    /// time once the simulation is (next) run. If the fault plan gives the
    /// node a crash-recover window, its restart (`on_recover`) is scheduled
    /// at the window's `recover_at`, and no timer armed before then fires
    /// after it. Nodes live in per-kind tables indexed by id, so number each
    /// kind densely from 0.
    pub fn add_actor(&mut self, id: NodeId, actor: Box<dyn Actor<M>>) {
        let mut hasher = orthrus_types::crypto::FnvHasher::default();
        id.hash(&mut hasher);
        let node_seed = self.seed ^ hasher.finish();
        #[expect(
            clippy::disallowed_methods,
            reason = "per-node stream derived from the scenario seed XOR a stable node-id hash"
        )]
        let state = NodeState {
            actor,
            rng: StdRng::seed_from_u64(node_seed),
            nic_free: SimTime::ZERO,
            incarnation: 0,
        };
        self.nodes.insert(id, state);
        self.queue
            .schedule(self.now, EngineEvent::Start { node: id });
        if let NodeId::Replica(replica) = id {
            if let Some(recovery) = self.faults.recovery_of(replica) {
                self.queue
                    .schedule(recovery.recover_at, EngineEvent::Recover { node: id });
            }
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The fault plan in force.
    #[inline]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The network configuration in force.
    #[inline]
    pub fn network(&self) -> &NetworkConfig {
        &self.network
    }

    /// Read access to the metrics collector.
    #[inline]
    pub fn stats(&self) -> &StatsCollector {
        &self.stats
    }

    /// Mutable access to the metrics collector (used by harnesses that feed
    /// in externally computed events).
    #[inline]
    pub fn stats_mut(&mut self) -> &mut StatsCollector {
        &mut self.stats
    }

    /// Look at an actor's final state, down-cast to its concrete type.
    pub fn actor_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let state = self.nodes.get(id)?;
        state.actor.as_any().downcast_ref()
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.nodes.len()
    }

    /// Run until the event queue drains or virtual time would exceed
    /// `deadline`, whichever comes first.
    pub fn run_until(&mut self, deadline: SimTime) -> SimulationReport {
        let is_batch = |event: &EngineEvent<M>| matches!(event, EngineEvent::DeliverBatch { .. });
        while let Ok((time, popped)) = self.queue.pop_or_hold_before(deadline, is_batch) {
            self.now = self.now.max(time);
            match popped {
                Some(event) => {
                    self.dispatch(event);
                    self.events_processed += 1;
                }
                None => self.deliver_held_batch(),
            }
        }
        // Even if no event landed exactly on the deadline, the run covers the
        // full interval (unless the caller asked for "run forever", in which
        // case the clock stays at the last event).
        if deadline.0 != u64::MAX && self.queue.peek_time().is_none_or(|t| t > deadline) {
            self.now = self.now.max(deadline);
        }
        self.report()
    }

    /// Run for an additional `span` of virtual time.
    pub fn run_for(&mut self, span: Duration) -> SimulationReport {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// Run until the event queue is completely drained.
    pub fn run_to_completion(&mut self) -> SimulationReport {
        self.run_until(SimTime(u64::MAX))
    }

    fn report(&self) -> SimulationReport {
        SimulationReport {
            end_time: self.now,
            events_processed: self.events_processed,
            messages_sent: self.stats.messages_sent,
            bytes_sent: self.stats.bytes_sent,
            peak_queue_len: self.queue.peak_len() as u64,
        }
    }

    fn node_crashed(&self, node: NodeId, at: SimTime) -> bool {
        match node {
            NodeId::Replica(r) => self.faults.is_crashed(r, at),
            NodeId::Client(_) => false,
        }
    }

    fn dispatch(&mut self, event: EngineEvent<M>) {
        match event {
            EngineEvent::Start { node } => self.invoke(node, Invocation::Start),
            EngineEvent::Deliver { from, to, msg } => {
                self.invoke(to, Invocation::Message { from, msg });
            }
            // Held in the queue and delivered in place, never popped.
            EngineEvent::DeliverBatch { .. } => {}
            EngineEvent::Timer {
                node,
                incarnation,
                tag,
            } => {
                let current = self.nodes.get(node).map(|state| state.incarnation);
                if current == Some(incarnation) {
                    self.invoke(node, Invocation::Timer { tag });
                }
            }
            EngineEvent::Recover { node } => {
                if let Some(state) = self.nodes.get_mut(node) {
                    state.incarnation += 1;
                }
                self.invoke(node, Invocation::Recover);
            }
        }
    }

    /// Deliver the due prefix of the held coalesced multicast, one clone of
    /// the message per recipient, then re-key its queue entry to the next
    /// arrival or, once every recipient has it, release the entry. Each
    /// delivery counts as one event, so `events_processed` tracks actor
    /// invocations as the per-recipient path would.
    fn deliver_held_batch(&mut self) {
        loop {
            let Some(EngineEvent::DeliverBatch {
                from,
                msg,
                plan,
                next,
            }) = self.queue.held_mut()
            else {
                return;
            };
            match plan.get(*next) {
                Some(&(at, to)) if at <= self.now => {
                    *next += 1;
                    let (from, msg) = (*from, msg.clone());
                    self.invoke(to, Invocation::Message { from, msg });
                    self.events_processed += 1;
                }
                Some(&(at, _)) => return self.queue.rekey(at),
                None => {
                    if let Some(EngineEvent::DeliverBatch { mut plan, .. }) = self.queue.release() {
                        plan.clear();
                        self.plan_pool.push(plan);
                    }
                    return;
                }
            }
        }
    }

    /// Run one actor handler and apply everything it buffered: timers first,
    /// then outbound messages through the network model.
    fn invoke(&mut self, node: NodeId, invocation: Invocation<M>) {
        if self.node_crashed(node, self.now) {
            return;
        }
        let Some(state) = self.nodes.get_mut(node) else {
            return;
        };

        {
            let mut ctx = Context {
                now: self.now,
                self_id: node,
                rng: &mut state.rng,
                stats: &mut self.stats,
                outbox: &mut self.outbox,
                timer_requests: &mut self.timer_requests,
            };
            match invocation {
                Invocation::Start => state.actor.on_start(&mut ctx),
                Invocation::Message { from, msg } => state.actor.on_message(from, msg, &mut ctx),
                Invocation::Timer { tag } => state.actor.on_timer(tag, &mut ctx),
                Invocation::Recover => state.actor.on_recover(&mut ctx),
            }
        }

        let incarnation = state.incarnation;
        for (delay, tag) in self.timer_requests.drain(..) {
            self.queue.schedule(
                self.now + delay,
                EngineEvent::Timer {
                    node,
                    incarnation,
                    tag,
                },
            );
        }
        // Run buffered sends through the network model in send order: each
        // charges the wire counters, takes its NIC slot(s), draws its link
        // jitter from the sender's stream and goes straight into the queue.
        if self.outbox.is_empty() {
            return;
        }
        let (network, faults, now) = (&self.network, &self.faults, self.now);
        let slow_from = slowdown_of(faults, node);
        for item in self.outbox.drain(..) {
            let (msg, copies) = match &item {
                Outbound::One(_, msg) => (msg, 1),
                Outbound::Many(recipients, msg) => (msg, recipients.len() as u64),
            };
            let bytes = msg.wire_bytes();
            self.stats.messages_sent += copies;
            self.stats.bytes_sent += bytes * copies;
            // Per-sender NIC: copies serialize one after another, and each
            // samples its link in the order the recipients were given.
            let (mut done, serialization) =
                nic_slot(network, now, state.nic_free, bytes, slow_from);
            let mut arrival = |to: NodeId| {
                done += serialization;
                copy_arrival(network, faults, node, to, done, slow_from, &mut state.rng)
            };
            let from = node;
            match item {
                Outbound::One(to, msg) => {
                    let at = arrival(to);
                    self.queue
                        .schedule(at, EngineEvent::Deliver { from, to, msg });
                }
                // An `n`-way multicast is charged exactly as `n` unicasts but
                // occupies one queue entry.
                Outbound::Many(recipients, msg) => {
                    let mut plan = self.plan_pool.pop().unwrap_or_default();
                    plan.extend(recipients.into_iter().map(|to| (arrival(to), to)));
                    sort_by_arrival(&mut plan);
                    self.queue.schedule(
                        plan[0].0,
                        EngineEvent::DeliverBatch {
                            from,
                            msg,
                            plan,
                            next: 0,
                        },
                    );
                }
            }
            state.nic_free = done;
        }
    }
}

fn slowdown_of(faults: &FaultPlan, node: NodeId) -> f64 {
    match node {
        NodeId::Replica(r) => faults.slowdown(r),
        NodeId::Client(_) => 1.0,
    }
}

/// `delay` stretched by a straggler's slowdown `factor`. Every node that is
/// not a straggler has factor exactly 1.0, where the float round trip is
/// skipped: `(x as f64 * 1.0).round() as u64 == x` for every `x < 2^53` µs,
/// so the result is bit-identical to `mul_f64`.
fn slowed(delay: Duration, factor: f64) -> Duration {
    if factor == 1.0 {
        delay
    } else {
        delay.mul_f64(factor)
    }
}

/// When the sender's NIC can start serializing the next message of `bytes`,
/// and how long one copy takes on the wire.
fn nic_slot(
    network: &NetworkConfig,
    now: SimTime,
    nic_free: SimTime,
    bytes: u64,
    slow_from: f64,
) -> (SimTime, Duration) {
    let processing = slowed(network.processing_per_message, slow_from);
    let ready = now + processing;
    let serialization = slowed(network.serialization_delay(bytes), slow_from);
    let start = if nic_free > ready { nic_free } else { ready };
    (start, serialization)
}

/// Arrival time at `to` of a copy whose NIC serialization finished at
/// `done`: jittered per-link propagation (drawn from the sender's RNG
/// stream) plus receiver-side processing. Unicast and multicast both charge
/// copies through here, so their arrival math cannot diverge.
fn copy_arrival(
    network: &NetworkConfig,
    faults: &FaultPlan,
    from: NodeId,
    to: NodeId,
    done: SimTime,
    slow_from: f64,
    rng: &mut StdRng,
) -> SimTime {
    let propagation = slowed(network.sample_latency(from, to, rng), slow_from);
    let recv_processing = slowed(network.processing_per_message, slowdown_of(faults, to));
    done + propagation + recv_processing
}

/// Stable insertion sort of a multicast plan by arrival time: equal arrivals
/// keep recipient order, matching the `seq` tie-break the per-recipient path
/// would have produced. A plan is one fan-out (`n - 1` entries), short
/// enough that this beats the allocating merge sort behind `sort_by_key`.
fn sort_by_arrival(plan: &mut [(SimTime, NodeId)]) {
    for i in 1..plan.len() {
        let entry = plan[i];
        let mut j = i;
        while j > 0 && plan[j - 1].0 > entry.0 {
            plan[j] = plan[j - 1];
            j -= 1;
        }
        plan[j] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::ReplicaId;
    use std::any::Any;

    /// A message carrying a hop counter, used to bounce between two actors.
    #[derive(Clone)]
    struct Ping {
        hops: u32,
        bytes: u64,
    }

    impl Payload for Ping {
        fn wire_bytes(&self) -> u64 {
            self.bytes
        }
    }

    /// Bounces every ping back until `hops` reaches a limit and records the
    /// arrival times.
    struct Bouncer {
        peer: NodeId,
        limit: u32,
        arrivals: Vec<SimTime>,
        timer_fired: u32,
        start_pings: bool,
    }

    impl Actor<Ping> for Bouncer {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if self.start_pings {
                ctx.send(
                    self.peer,
                    Ping {
                        hops: 0,
                        bytes: 100,
                    },
                );
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping>) {
            self.arrivals.push(ctx.now());
            if msg.hops < self.limit {
                ctx.send(
                    from,
                    Ping {
                        hops: msg.hops + 1,
                        bytes: msg.bytes,
                    },
                );
            }
        }

        fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, Ping>) {
            self.timer_fired += 1;
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn bouncer(peer: NodeId, start: bool) -> Box<Bouncer> {
        Box::new(Bouncer {
            peer,
            limit: 4,
            arrivals: Vec::new(),
            timer_fired: 0,
            start_pings: start,
        })
    }

    #[test]
    fn ping_pong_advances_virtual_time() {
        let mut sim: Simulation<Ping> = Simulation::new(NetworkConfig::lan(), 42);
        let a = NodeId::replica(0);
        let b = NodeId::replica(1);
        sim.add_actor(a, bouncer(b, true));
        sim.add_actor(b, bouncer(a, false));
        let report = sim.run_to_completion();
        // 5 deliveries total (hops 0..=4), alternating between b and a.
        let a_state: &Bouncer = sim.actor_as(a).unwrap();
        let b_state: &Bouncer = sim.actor_as(b).unwrap();
        assert_eq!(a_state.arrivals.len() + b_state.arrivals.len(), 5);
        assert!(report.end_time > SimTime::ZERO);
        assert_eq!(report.messages_sent, 5);
        assert!(report.bytes_sent >= 500);
        assert!(report.peak_queue_len >= 1);
        // Arrival times strictly increase across the exchange.
        let mut all: Vec<SimTime> = a_state
            .arrivals
            .iter()
            .chain(b_state.arrivals.iter())
            .copied()
            .collect();
        let sorted = {
            let mut s = all.clone();
            s.sort_unstable();
            s
        };
        all.sort_unstable();
        assert_eq!(all, sorted);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed: u64| {
            let mut sim: Simulation<Ping> = Simulation::new(NetworkConfig::wan(), seed);
            let a = NodeId::replica(0);
            let b = NodeId::replica(3);
            sim.add_actor(a, bouncer(b, true));
            sim.add_actor(b, bouncer(a, false));
            sim.run_to_completion().end_time
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn straggler_slows_down_its_messages() {
        let run = |faults: FaultPlan| {
            let mut sim: Simulation<Ping> =
                Simulation::with_faults(NetworkConfig::wan(), faults, 1);
            let a = NodeId::replica(0);
            let b = NodeId::replica(1);
            sim.add_actor(a, bouncer(b, true));
            sim.add_actor(b, bouncer(a, false));
            sim.run_to_completion().end_time
        };
        let normal = run(FaultPlan::none());
        let slow = run(FaultPlan::one_straggler(ReplicaId::new(0)));
        assert!(slow > normal);
        // Half the hops originate at the straggler, so the end-to-end time
        // should be substantially (though not 10x) larger.
        assert!(slow.as_micros() as f64 > normal.as_micros() as f64 * 3.0);
    }

    #[test]
    fn crashed_nodes_go_silent() {
        let faults = FaultPlan::none().with_crash(ReplicaId::new(1), SimTime::ZERO);
        let mut sim: Simulation<Ping> = Simulation::with_faults(NetworkConfig::lan(), faults, 1);
        let a = NodeId::replica(0);
        let b = NodeId::replica(1);
        sim.add_actor(a, bouncer(b, true));
        sim.add_actor(b, bouncer(a, false));
        sim.run_to_completion();
        let b_state: &Bouncer = sim.actor_as(b).unwrap();
        // The crashed node never processed anything.
        assert!(b_state.arrivals.is_empty());
    }

    /// A node that records recovery firings and answers pings afterwards.
    struct Phoenix {
        arrivals: Vec<SimTime>,
        recovered_at: Option<SimTime>,
    }
    impl Actor<Ping> for Phoenix {
        fn on_message(&mut self, _f: NodeId, _m: Ping, ctx: &mut Context<'_, Ping>) {
            self.arrivals.push(ctx.now());
        }
        fn on_recover(&mut self, ctx: &mut Context<'_, Ping>) {
            self.recovered_at = Some(ctx.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Sends one ping at every timer tick so traffic spans the crash window.
    struct Ticker {
        peer: NodeId,
        remaining: u32,
    }
    impl Actor<Ping> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(Duration::from_millis(100), 0);
        }
        fn on_message(&mut self, _f: NodeId, _m: Ping, _c: &mut Context<'_, Ping>) {}
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_, Ping>) {
            ctx.send(self.peer, Ping { hops: 0, bytes: 64 });
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(Duration::from_millis(100), 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn crash_recover_node_goes_silent_then_resumes() {
        let crash_at = SimTime::from_millis(250);
        let recover_at = SimTime::from_millis(650);
        let faults = FaultPlan::none().with_crash_recover(ReplicaId::new(1), crash_at, recover_at);
        let mut sim: Simulation<Ping> = Simulation::with_faults(NetworkConfig::lan(), faults, 9);
        let target = NodeId::replica(1);
        sim.add_actor(
            NodeId::replica(0),
            Box::new(Ticker {
                peer: target,
                remaining: 10,
            }),
        );
        sim.add_actor(
            target,
            Box::new(Phoenix {
                arrivals: Vec::new(),
                recovered_at: None,
            }),
        );
        sim.run_to_completion();
        let phoenix: &Phoenix = sim.actor_as(target).unwrap();
        assert_eq!(phoenix.recovered_at, Some(recover_at));
        // Pings sent at ~100/200 ms arrive; those landing in the crash window
        // are dropped; ticks after recovery arrive again.
        assert!(phoenix.arrivals.iter().any(|t| *t < crash_at));
        assert!(phoenix
            .arrivals
            .iter()
            .all(|t| *t < crash_at || *t >= recover_at));
        assert!(phoenix.arrivals.iter().any(|t| *t >= recover_at));
    }

    #[test]
    fn run_until_respects_the_deadline() {
        let mut sim: Simulation<Ping> = Simulation::new(NetworkConfig::wan(), 11);
        let a = NodeId::replica(0);
        let b = NodeId::replica(2);
        sim.add_actor(a, bouncer(b, true));
        sim.add_actor(b, bouncer(a, false));
        let deadline = SimTime::from_millis(100);
        let report = sim.run_until(deadline);
        assert!(report.end_time <= SimTime::from_millis(100) || report.end_time == deadline);
        // Continuing afterwards processes the rest.
        let final_report = sim.run_to_completion();
        assert!(final_report.events_processed >= report.events_processed);
    }

    /// Arms a 10 ms and a 20 ms timer at start and a 1 ms one on recovery,
    /// and records the tag of every timer that reaches it.
    struct TimerUser {
        fired: Vec<u64>,
    }

    impl Actor<Ping> for TimerUser {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(Duration::from_millis(10), 1);
            ctx.set_timer(Duration::from_millis(20), 2);
        }
        fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
        fn on_timer(&mut self, tag: u64, _ctx: &mut Context<'_, Ping>) {
            self.fired.push(tag);
        }
        fn on_recover(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(Duration::from_millis(1), 3);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn run_timer_user(faults: FaultPlan) -> (Vec<u64>, SimulationReport) {
        let mut sim: Simulation<Ping> = Simulation::with_faults(NetworkConfig::lan(), faults, 3);
        let n = NodeId::replica(0);
        sim.add_actor(n, Box::new(TimerUser { fired: Vec::new() }));
        let report = sim.run_to_completion();
        let state: &TimerUser = sim.actor_as(n).unwrap();
        (state.fired.clone(), report)
    }

    #[test]
    fn timers_fire() {
        let (fired, report) = run_timer_user(FaultPlan::none());
        assert_eq!(fired, vec![1, 2]);
        assert_eq!(report.end_time, SimTime::from_millis(20));
    }

    #[test]
    fn restart_forgets_timers_armed_before_the_crash() {
        // Down from 5 to 15 ms: the 10 ms timer pops while the node is down
        // and the 20 ms one after it restarted; only the timer armed by
        // `on_recover` (due at 16 ms) reaches the actor.
        let faults = FaultPlan::none().with_crash_recover(
            ReplicaId::new(0),
            SimTime::from_millis(5),
            SimTime::from_millis(15),
        );
        let (fired, report) = run_timer_user(faults);
        assert_eq!(fired, vec![3]);
        // Start, recover and all three timer pops are still counted.
        assert_eq!(report.events_processed, 5);
        assert_eq!(report.end_time, SimTime::from_millis(20));
    }

    #[test]
    fn nic_serialization_queues_large_messages() {
        // Sending two large messages back-to-back: the second one's delivery
        // is delayed by the first one's serialization time.
        struct Burst {
            peer: NodeId,
        }
        impl Actor<Ping> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.send(
                    self.peer,
                    Ping {
                        hops: 0,
                        bytes: 2_000_000,
                    },
                );
                ctx.send(
                    self.peer,
                    Ping {
                        hops: 1,
                        bytes: 2_000_000,
                    },
                );
            }
            fn on_message(&mut self, _f: NodeId, _m: Ping, _c: &mut Context<'_, Ping>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        struct Sink {
            arrivals: Vec<SimTime>,
        }
        impl Actor<Ping> for Sink {
            fn on_message(&mut self, _f: NodeId, _m: Ping, ctx: &mut Context<'_, Ping>) {
                self.arrivals.push(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim: Simulation<Ping> = Simulation::new(NetworkConfig::lan(), 9);
        let a = NodeId::replica(0);
        let b = NodeId::replica(1);
        sim.add_actor(a, Box::new(Burst { peer: b }));
        sim.add_actor(
            b,
            Box::new(Sink {
                arrivals: Vec::new(),
            }),
        );
        sim.run_to_completion();
        let sink: &Sink = sim.actor_as(b).unwrap();
        assert_eq!(sink.arrivals.len(), 2);
        let gap = sink.arrivals[1] - sink.arrivals[0];
        // 2 MB at 1 Gbps is ~16 ms of serialization; the gap reflects it.
        assert!(gap >= Duration::from_millis(14), "gap was {gap}");
    }

    /// A sender that broadcasts one message to all peers, either through the
    /// coalesced multicast or as explicit per-recipient unicasts.
    struct Broadcaster {
        peers: Vec<NodeId>,
        coalesce: bool,
    }
    impl Actor<Ping> for Broadcaster {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            let msg = Ping {
                hops: 0,
                bytes: 1_000,
            };
            if self.coalesce {
                ctx.multicast(self.peers.iter().copied(), msg);
            } else {
                for &p in &self.peers {
                    ctx.send(p, msg.clone());
                }
            }
        }
        fn on_message(&mut self, _f: NodeId, _m: Ping, _c: &mut Context<'_, Ping>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
    struct ArrivalSink {
        arrivals: Vec<SimTime>,
    }
    impl Actor<Ping> for ArrivalSink {
        fn on_message(&mut self, _f: NodeId, _m: Ping, ctx: &mut Context<'_, Ping>) {
            self.arrivals.push(ctx.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn broadcast_sim(coalesce: bool, peers: u32) -> Simulation<Ping> {
        let mut sim: Simulation<Ping> = Simulation::new(NetworkConfig::wan(), 17);
        let targets: Vec<NodeId> = (1..=peers).map(NodeId::replica).collect();
        sim.add_actor(
            NodeId::replica(0),
            Box::new(Broadcaster {
                peers: targets.clone(),
                coalesce,
            }),
        );
        for t in targets {
            sim.add_actor(
                t,
                Box::new(ArrivalSink {
                    arrivals: Vec::new(),
                }),
            );
        }
        sim
    }

    #[test]
    fn coalesced_multicast_matches_per_recipient_arrival_times() {
        // The batch path must charge the exact same NIC + propagation math as
        // n unicasts: every recipient sees identical arrival times.
        let peers = 12u32;
        let mut batched = broadcast_sim(true, peers);
        let mut unicast = broadcast_sim(false, peers);
        let batched_report = batched.run_to_completion();
        let unicast_report = unicast.run_to_completion();
        for p in 1..=peers {
            let b: &ArrivalSink = batched.actor_as(NodeId::replica(p)).unwrap();
            let u: &ArrivalSink = unicast.actor_as(NodeId::replica(p)).unwrap();
            assert_eq!(b.arrivals, u.arrivals, "recipient {p} diverged");
        }
        assert_eq!(batched_report.messages_sent, unicast_report.messages_sent);
        assert_eq!(batched_report.bytes_sent, unicast_report.bytes_sent);
        // The whole broadcast occupied one queue entry instead of n.
        assert!(
            batched_report.peak_queue_len < unicast_report.peak_queue_len,
            "batched peak {} vs unicast peak {}",
            batched_report.peak_queue_len,
            unicast_report.peak_queue_len
        );
    }

    #[test]
    fn coalesced_multicast_skips_crashed_recipients() {
        let faults = FaultPlan::none().with_crash(ReplicaId::new(2), SimTime::ZERO);
        let mut sim: Simulation<Ping> = Simulation::with_faults(NetworkConfig::lan(), faults, 3);
        let targets: Vec<NodeId> = (1..=3).map(NodeId::replica).collect();
        sim.add_actor(
            NodeId::replica(0),
            Box::new(Broadcaster {
                peers: targets.clone(),
                coalesce: true,
            }),
        );
        for t in targets {
            sim.add_actor(
                t,
                Box::new(ArrivalSink {
                    arrivals: Vec::new(),
                }),
            );
        }
        sim.run_to_completion();
        let crashed: &ArrivalSink = sim.actor_as(NodeId::replica(2)).unwrap();
        assert!(crashed.arrivals.is_empty());
        for p in [1u32, 3] {
            let alive: &ArrivalSink = sim.actor_as(NodeId::replica(p)).unwrap();
            assert_eq!(alive.arrivals.len(), 1, "replica {p} missed delivery");
        }
    }

    /// A gossip actor that drives every queue-facing path of the engine at
    /// once: coalesced broadcasts whose remainders are re-keyed across other
    /// nodes' events, short timers, 1 µs self-sends, and a timer armed in one
    /// handler and disowned in a later one.
    struct Stormer {
        peers: Vec<NodeId>,
        arrivals: Vec<(NodeId, SimTime)>,
        rebroadcasts: u32,
        ticks: u32,
        /// Whether the 50 ms timer is still wanted; the first message
        /// clears it, so the timer pops but does nothing.
        long_timer_armed: bool,
        rng_draws: Vec<u32>,
    }

    impl Stormer {
        fn boxed(peers: Vec<NodeId>) -> Box<Self> {
            Box::new(Stormer {
                peers,
                arrivals: Vec::new(),
                rebroadcasts: 0,
                ticks: 0,
                long_timer_armed: false,
                rng_draws: Vec::new(),
            })
        }
    }

    impl Actor<Ping> for Stormer {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.multicast(
                self.peers.iter().copied(),
                Ping {
                    hops: 0,
                    bytes: 600,
                },
            );
            // Fires before any peer's broadcast can arrive.
            ctx.set_timer(Duration::from_micros(100), 1);
            // Disowned by the first message.
            ctx.set_timer(Duration::from_millis(50), 2);
            self.long_timer_armed = true;
        }

        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping>) {
            self.arrivals.push((from, ctx.now()));
            self.rng_draws.push(orthrus_types::rng::Rng::gen(ctx.rng()));
            self.long_timer_armed = false;
            if msg.hops < 2 && self.rebroadcasts < 4 {
                self.rebroadcasts += 1;
                ctx.multicast(
                    self.peers.iter().copied(),
                    Ping {
                        hops: msg.hops + 1,
                        bytes: 600,
                    },
                );
            }
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Ping>) {
            if tag == 2 {
                assert!(!self.long_timer_armed, "the long timer must be disowned");
                return;
            }
            self.ticks += 1;
            // A self-send lands 1 µs (loopback) plus processing later.
            ctx.send(ctx.id(), Ping { hops: 9, bytes: 8 });
            if self.ticks < 3 {
                ctx.set_timer(Duration::from_micros(150), 1);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn storm_sim(network: NetworkConfig, faults: FaultPlan, nodes: u32) -> Simulation<Ping> {
        let mut sim: Simulation<Ping> = Simulation::with_faults(network, faults, 23);
        let all: Vec<NodeId> = (0..nodes).map(NodeId::replica).collect();
        for &node in &all {
            let peers: Vec<NodeId> = all.iter().copied().filter(|&p| p != node).collect();
            sim.add_actor(node, Stormer::boxed(peers));
        }
        sim
    }

    /// FNV-1a over everything the Stormers observed — per node, every
    /// `(sender, arrival µs)`, every RNG draw and the tick count — so an equal
    /// fingerprint means bit-identical execution.
    fn storm_fingerprint(sim: &Simulation<Ping>, nodes: u32) -> u64 {
        let mut h = orthrus_types::crypto::FnvHasher::default();
        for n in 0..nodes {
            let s: &Stormer = sim.actor_as(NodeId::replica(n)).unwrap();
            for &(from, at) in &s.arrivals {
                h.write_u32(from.as_replica().unwrap().value());
                h.write_u64(at.as_micros());
            }
            for &draw in &s.rng_draws {
                h.write_u32(draw);
            }
            h.write_u32(s.ticks);
        }
        h.finish()
    }

    /// A report as `[end µs, events, messages, bytes, peak queue]`.
    fn report_words(report: SimulationReport) -> [u64; 5] {
        [
            report.end_time.as_micros(),
            report.events_processed,
            report.messages_sent,
            report.bytes_sent,
            report.peak_queue_len,
        ]
    }

    /// The oracle for the send path and `deliver_held_batch`: these values
    /// depend on the exact order of RNG draws, NIC updates, `schedule` calls
    /// and re-keys (coalesced remainders, self-sends, disowned timers), under a
    /// straggler, across a crash-recover window, and across a deadline pause.
    /// They are what the serial walk produced on the last commit that also
    /// had the windowed engine, which the deleted differential tests held
    /// equal to it on exactly these runs.
    #[test]
    fn serial_storm_matches_pinned_traces() {
        let straggler = FaultPlan::one_straggler(ReplicaId::new(1));
        let crash_recover = FaultPlan::none().with_crash_recover(
            ReplicaId::new(2),
            SimTime::from_micros(400),
            SimTime::from_millis(2),
        );
        let stop = (SimTime::from_millis(120), [120_000, 434, 480, 270_240, 52]);
        // The run — network, faults, nodes, (`run_until` deadline, report
        // there) if it pauses — then its final report and fingerprint.
        let (lan, wan, none) = (NetworkConfig::lan, NetworkConfig::wan, FaultPlan::none);
        let cases = [
            (
                (lan(), none(), 12, None),
                ([50_000, 756, 696, 396_288, 83], 16323609348152499789),
            ),
            (
                (wan(), none(), 12, None),
                ([148_823, 756, 696, 396_288, 72], 7160155436954009337),
            ),
            (
                (lan(), straggler, 8, None),
                ([50_000, 344, 304, 168_192, 54], 14294761223075979457),
            ),
            (
                (lan(), crash_recover, 8, None),
                ([50_000, 344, 303, 168_184, 55], 4388009357955961896),
            ),
            (
                (wan(), none(), 10, Some(stop)),
                ([200_210, 530, 480, 270_240, 52], 7729740000251924628),
            ),
        ];
        for (i, (run, pinned)) in cases.into_iter().enumerate() {
            let (network, faults, nodes, pause) = run;
            let mut sim = storm_sim(network, faults, nodes);
            if let Some((deadline, paused)) = pause {
                let at_pause = report_words(sim.run_until(deadline));
                assert_eq!(at_pause, paused, "storm {i} moved before its pause");
            }
            let end = report_words(sim.run_to_completion());
            assert_eq!(
                (end, storm_fingerprint(&sim, nodes)),
                pinned,
                "storm {i} moved"
            );
        }
    }

    /// Every dispatch the [`Echo`]s saw, in order: `(node, kind, µs)`.
    type EchoLog = std::rc::Rc<std::cell::RefCell<Vec<(u32, char, u64)>>>;

    /// A batch recipient that answers its delivery while the batch still has
    /// recipients to go: a zero-delay timer, a 1 µs self-message, a timer due
    /// exactly when the batch's next recipients arrive, and two timers hours
    /// ahead that stay queued (and unlogged) until the end.
    struct Echo {
        log: EchoLog,
        /// How long after this node's arrival the batch's next recipients
        /// arrive, if any do.
        gap: Option<Duration>,
    }

    impl Actor<Ping> for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if ctx.id() == NodeId::replica(0) {
                let peers = (1..=8).map(NodeId::replica);
                ctx.multicast(peers, Ping { hops: 0, bytes: 8 });
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping>) {
            let node = ctx.id().as_replica().unwrap().value();
            let kind = if msg.hops == 0 { 'm' } else { 's' };
            self.log
                .borrow_mut()
                .push((node, kind, ctx.now().as_micros()));
            if msg.hops == 0 {
                ctx.set_timer(Duration::ZERO, 0);
                ctx.send(ctx.id(), Ping { hops: 1, bytes: 8 });
                if let Some(gap) = self.gap {
                    ctx.set_timer(gap, 1);
                }
                ctx.set_timer(Duration::from_secs(3_600), 2);
                ctx.set_timer(Duration::from_secs(7_200), 2);
            }
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Ping>) {
            let node = ctx.id().as_replica().unwrap().value();
            let kind = match tag {
                0 => 't',
                1 => 'g',
                _ => return,
            };
            self.log
                .borrow_mut()
                .push((node, kind, ctx.now().as_micros()));
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Handlers run while a coalesced multicast still has tied and later
    /// recipients. Replica 0 (France) multicasts to replicas 1–8 on a
    /// jitter-free WAN with 0 µs serialization, so the plan is four tied
    /// pairs, {4, 8} at 1 ms, {1, 5} at 40 ms, {3, 7} at 110 ms and {2, 6} at
    /// 140 ms. Every recipient arms a zero-delay timer ('t'), sends itself a
    /// 1 µs message ('s') and arms a timer ('g') due exactly at the next
    /// pair's arrival, which must fire before that pair ('m') because it was
    /// scheduled first. The hours-ahead timers pile up, so the queue peaks
    /// while the last pair's handlers run, after the batch has no recipient
    /// left: a batch entry counted there would show in `peak_queue_len`.
    /// Order and report are the values the engine produced when a batch
    /// popped and re-pushed its entry.
    #[test]
    fn batch_recipients_schedule_around_the_rest_of_their_batch() {
        let network = NetworkConfig {
            jitter: 0.0,
            ..NetworkConfig::wan()
        };
        let arrival = |r: u32| network.base_latency(NodeId::replica(0), NodeId::replica(r));
        let log = EchoLog::default();
        let mut sim: Simulation<Ping> = Simulation::new(network.clone(), 5);
        for r in 0..=8 {
            let gap = (1..=8)
                .map(arrival)
                .filter(|&later| later > arrival(r))
                .min()
                .map(|next| next.saturating_sub(arrival(r)));
            let log = log.clone();
            sim.add_actor(NodeId::replica(r), Box::new(Echo { log, gap }));
        }
        let report = sim.run_to_completion();
        let order: Vec<String> = log
            .borrow()
            .iter()
            .map(|&(node, kind, at)| format!("{node}{kind}@{at}"))
            .collect();
        let pinned = [
            "4m@1060 8m@1060 4t@1060 8t@1060 4s@1121 8s@1121",
            "4g@40060 8g@40060 1m@40060 5m@40060 1t@40060 5t@40060 1s@40121 5s@40121",
            "1g@110060 5g@110060 3m@110060 7m@110060 3t@110060 7t@110060 3s@110121 7s@110121",
            "3g@140060 7g@140060 2m@140060 6m@140060 2t@140060 6t@140060 2s@140121 6s@140121",
        ];
        assert_eq!(order.join(" "), pinned.join(" "));
        assert_eq!(report_words(report), [7_200_140_060, 55, 16, 128, 20]);
    }
}
