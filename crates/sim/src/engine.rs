//! The discrete-event simulation engine.
//!
//! The engine owns the actors, the virtual clock, the event queue, the
//! network model and the fault plan. It repeatedly pops the earliest event,
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
//! single [`EngineEvent::DeliverBatch`] queue entry carrying one message and
//! a per-recipient delivery plan (NIC serialization is still charged once per
//! copy, and per-link latency is sampled in deterministic recipient order at
//! send time). The batch dispatches each recipient exactly at its arrival
//! time and re-schedules itself for the next one, so the queue holds one
//! entry per in-flight broadcast instead of `n` — at 128 replicas this
//! shrinks the peak queue by roughly the fan-out.
//!
//! Coalescing preserves every per-recipient *arrival time* and the relative
//! order of a batch's own deliveries, but not the interleaving with
//! unrelated events at the exact same timestamp: the rescheduled remainder
//! carries a fresh insertion sequence, so a tie against another sender's
//! message may dispatch in a different order than the per-recipient path
//! would have. Runs remain fully deterministic for a given seed and
//! configuration — only the (arbitrary) tie-break between simultaneous
//! events differs between the two delivery strategies.

use crate::actor::{Actor, Context, Outbound, TimerId};
use crate::event::EventQueue;
use crate::faults::FaultPlan;
use crate::network::NetworkConfig;
use crate::node::{NodeId, Payload};
use crate::stats::StatsCollector;
use orthrus_types::pool::parallel_for_mut;
use orthrus_types::rng::StdRng;
use orthrus_types::{Duration, FxHashMap, FxHashSet, ProfTimer, SimTime};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hash::{Hash, Hasher};

/// Minimum number of predicted invocations in a lookahead window before the
/// parallel engine fans out lanes; smaller windows run serially (the fan-out
/// overhead would dominate). A pure function of queue state, so every thread
/// count takes the same path.
const MIN_PARALLEL_INVOCATIONS: usize = 8;

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
    Timer {
        node: NodeId,
        id: TimerId,
        tag: u64,
    },
    /// A crash-recover fault's restart instant: fire the actor's
    /// `on_recover` hook.
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

/// Summary of a completed (or budget-limited) simulation run.
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

/// Wall-clock profile of one lookahead window, recorded when
/// [`Simulation::set_engine_profiling`] is on. Serial fallback windows carry
/// all their time in `serial_ns` with `lanes == 0`. Samples never feed back
/// into virtual time; they exist for the work-span benchmark model.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowSample {
    /// Nanoseconds spent in the serial phases (window prediction plus barrier
    /// replay, or the entire window for a serial fallback).
    pub serial_ns: u64,
    /// Longest single lane execution — the parallel span.
    pub max_lane_ns: u64,
    /// Sum of all lane executions — the parallel work.
    pub sum_lane_ns: u64,
    /// Number of lanes fanned out.
    pub lanes: u32,
    /// Events dispatched in this window.
    pub invocations: u64,
}

/// An actor and its private simulation state: one map lookup per invocation
/// reaches all of it, and a parallel lane takes the whole record with it.
struct NodeState<M> {
    actor: Box<dyn Actor<M>>,
    rng: StdRng,
    /// When the node's NIC finishes serializing what it has already sent.
    nic_free: SimTime,
    /// Per-node timer-id allocator. Ids are only ever compared within one
    /// node, so per-node streams keep allocation independent of the global
    /// event interleaving — which is what lets a lane allocate ids on a
    /// worker thread and still match the serial walk bit for bit.
    timer_seq: u64,
}

/// The simulation: actors plus the virtual world they live in.
pub struct Simulation<M> {
    nodes: FxHashMap<NodeId, NodeState<M>>,
    queue: EventQueue<EngineEvent<M>>,
    network: NetworkConfig,
    faults: FaultPlan,
    stats: StatsCollector,
    /// Timers scheduled but not yet popped, keyed `(owner, per-node id)`.
    /// Entries leave on pop, so the set is bounded by in-flight timers.
    armed_timers: FxHashSet<(NodeId, u64)>,
    /// Armed timers that were cancelled. Entries leave when the timer's event
    /// pops (even if the node crashed meanwhile), so long runs do not leak.
    cancelled_timers: FxHashSet<(NodeId, u64)>,
    now: SimTime,
    seed: u64,
    events_processed: u64,
    messages_sent: u64,
    bytes_sent: u64,
    max_events: u64,
    /// Conservative time-window parallel scheduler toggle (see
    /// `run_windows_until`). Gated on the *requested* thread count so a
    /// single-core host exercises the identical windowed code path.
    engine_parallel: bool,
    /// Worker budget for lane fan-out.
    intra_threads: usize,
    /// Collect [`WindowSample`]s.
    profile: bool,
    windows_parallel: u64,
    windows_serial: u64,
    window_samples: Vec<WindowSample>,
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
// makes that a reference-count bump. `M: Send` lets the parallel engine move
// in-flight messages onto lane worker threads.
impl<M: Payload + Clone + Send + 'static> Simulation<M> {
    /// Create a simulation over the given network with no faults.
    pub fn new(network: NetworkConfig, seed: u64) -> Self {
        Self::with_faults(network, FaultPlan::none(), seed)
    }

    /// Create a simulation over the given network and fault plan.
    pub fn with_faults(network: NetworkConfig, faults: FaultPlan, seed: u64) -> Self {
        Self {
            nodes: FxHashMap::default(),
            queue: EventQueue::new(),
            network,
            faults,
            stats: StatsCollector::new(),
            armed_timers: FxHashSet::default(),
            cancelled_timers: FxHashSet::default(),
            now: SimTime::ZERO,
            seed,
            events_processed: 0,
            messages_sent: 0,
            bytes_sent: 0,
            max_events: u64::MAX,
            engine_parallel: false,
            intra_threads: 1,
            profile: false,
            windows_parallel: 0,
            windows_serial: 0,
            window_samples: Vec::new(),
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

    /// Switch the engine to the conservative time-window parallel scheduler
    /// with the given worker budget; `threads <= 1` keeps the serial walk.
    /// The parallel scheduler is bit-identical to the serial one at any
    /// thread count, faults included (fault windows fall back to serial).
    pub fn set_parallel_engine(&mut self, threads: usize) {
        self.intra_threads = threads.max(1);
        self.engine_parallel = threads > 1;
    }

    /// Record per-window wall-clock samples (serial vs lane time) for the
    /// work-span benchmark model. Off by default; never affects virtual time.
    pub fn set_engine_profiling(&mut self, on: bool) {
        self.profile = on;
    }

    /// Lookahead windows executed through parallel lanes.
    pub fn windows_parallel(&self) -> u64 {
        self.windows_parallel
    }

    /// Lookahead windows that fell back to the serial walk (fault hazard or
    /// too little independent work).
    pub fn windows_serial(&self) -> u64 {
        self.windows_serial
    }

    /// Per-window profiling samples (empty unless profiling is on).
    pub fn window_samples(&self) -> &[WindowSample] {
        &self.window_samples
    }

    /// Limit the total number of events the engine will dispatch (a safety
    /// valve against protocol livelock in tests).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Register an actor. Its `on_start` handler runs at the current virtual
    /// time once the simulation is (next) run. If the fault plan gives the
    /// node a crash-recover window, its restart (`on_recover`) is scheduled
    /// at the window's `recover_at`.
    pub fn add_actor(&mut self, id: NodeId, actor: Box<dyn Actor<M>>) {
        let mut hasher = orthrus_types::crypto::FnvHasher::default();
        id.hash(&mut hasher);
        let node_seed = self.seed ^ hasher.finish();
        let state = NodeState {
            actor,
            // orthrus: allow(ambient-rng): per-node stream derived from the scenario seed XOR a stable node-id hash.
            rng: StdRng::seed_from_u64(node_seed),
            nic_free: SimTime::ZERO,
            timer_seq: 0,
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
        let state = self.nodes.get(&id)?;
        state.actor.as_any().downcast_ref()
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.nodes.len()
    }

    /// Run until the event queue drains or virtual time would exceed
    /// `deadline`, whichever comes first.
    pub fn run_until(&mut self, deadline: SimTime) -> SimulationReport {
        // The windowed scheduler does not track the `max_events` budget
        // mid-window, so budgeted runs (a test-only safety valve) always take
        // the serial walk.
        if self.engine_parallel && self.intra_threads > 1 && self.max_events == u64::MAX {
            self.run_windows_until(deadline);
        } else {
            while self.events_processed < self.max_events {
                match self.queue.pop_before(deadline) {
                    Ok((time, event)) => {
                        self.now = self.now.max(time);
                        self.dispatch(event);
                        self.events_processed += 1;
                    }
                    Err(_) => break,
                }
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
            messages_sent: self.messages_sent,
            bytes_sent: self.bytes_sent,
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
            EngineEvent::DeliverBatch {
                from,
                msg,
                plan,
                next,
            } => self.dispatch_batch(from, msg, plan, next),
            EngineEvent::Timer { node, id, tag } => {
                // Retire the timer's bookkeeping unconditionally — before the
                // crash check inside `invoke` — so cancelled timers of
                // crashed nodes do not leak their tombstones.
                self.armed_timers.remove(&(node, id.0));
                if self.cancelled_timers.remove(&(node, id.0)) {
                    return;
                }
                self.invoke(node, Invocation::Timer { tag });
            }
            EngineEvent::Recover { node } => self.invoke(node, Invocation::Recover),
        }
    }

    /// Deliver the due prefix of a coalesced multicast, then re-schedule the
    /// remainder as the same single queue entry.
    fn dispatch_batch(&mut self, from: NodeId, msg: M, plan: Vec<(SimTime, NodeId)>, start: usize) {
        let mut due_end = start;
        while due_end < plan.len() && plan[due_end].0 <= self.now {
            due_end += 1;
        }
        // The pop that got us here counts as one event; tied arrivals beyond
        // the first still count individually so `events_processed` (and the
        // `max_events` livelock budget) track actor invocations, comparable
        // to the per-recipient path.
        self.events_processed += (due_end - start).saturating_sub(1) as u64;
        let mut msg = Some(msg);
        for (i, &(_, to)) in plan.iter().enumerate().take(due_end).skip(start) {
            let m = if i + 1 == plan.len() {
                msg.take()
                    // orthrus: allow(panic-path): only the final recipient takes the message; every earlier arm clones from the still-occupied Option.
                    .expect("batch message present until last recipient")
            } else {
                msg.as_ref()
                    // orthrus: allow(panic-path): the take() above only runs on the last plan index, so a shared borrow always finds the message.
                    .expect("batch message present until last recipient")
                    .clone()
            };
            self.invoke(to, Invocation::Message { from, msg: m });
        }
        if due_end < plan.len() {
            let at = plan[due_end].0;
            // orthrus: allow(panic-path): due_end < plan.len() means the last recipient has not consumed the message yet.
            let msg = msg.take().expect("undelivered batch keeps its message");
            self.queue.schedule(
                at,
                EngineEvent::DeliverBatch {
                    from,
                    msg,
                    plan,
                    next: due_end,
                },
            );
        }
    }

    /// Run one actor handler and apply everything it buffered: timers first
    /// (so a timer set and cancelled in the same handler resolves), then
    /// cancellations, then outbound messages through the network model.
    fn invoke(&mut self, node: NodeId, invocation: Invocation<M>) {
        if self.node_crashed(node, self.now) {
            return;
        }
        let Some(state) = self.nodes.get_mut(&node) else {
            return;
        };

        let mut outbox: Vec<Outbound<M>> = Vec::new();
        let mut timer_requests: Vec<(Duration, u64, TimerId)> = Vec::new();
        let mut cancel_requests: Vec<u64> = Vec::new();
        {
            let mut ctx = Context {
                now: self.now,
                self_id: node,
                rng: &mut state.rng,
                stats: &mut self.stats,
                outbox: &mut outbox,
                timer_requests: &mut timer_requests,
                cancel_requests: &mut cancel_requests,
                next_timer_id: &mut state.timer_seq,
            };
            match invocation {
                Invocation::Start => state.actor.on_start(&mut ctx),
                Invocation::Message { from, msg } => state.actor.on_message(from, msg, &mut ctx),
                Invocation::Timer { tag } => state.actor.on_timer(tag, &mut ctx),
                Invocation::Recover => state.actor.on_recover(&mut ctx),
            }
        }

        // Apply buffered timer requests.
        for (delay, tag, id) in timer_requests {
            self.armed_timers.insert((node, id.0));
            self.queue
                .schedule(self.now + delay, EngineEvent::Timer { node, id, tag });
        }
        // Apply buffered cancellations. Only a still-armed timer leaves a
        // tombstone; cancelling an already-fired handle is a true no-op, so
        // neither set can grow without bound.
        for id in cancel_requests {
            if self.armed_timers.remove(&(node, id)) {
                self.cancelled_timers.insert((node, id));
            }
        }
        // Resolve buffered sends through the network model (the exact code
        // path a parallel lane uses) and schedule the results.
        if !outbox.is_empty() {
            let mut sender = SenderState {
                rng: &mut state.rng,
                nic_free: &mut state.nic_free,
                stats: &mut self.stats,
                messages_sent: &mut self.messages_sent,
                bytes_sent: &mut self.bytes_sent,
            };
            let emissions = resolve_outbox(
                &self.network,
                &self.faults,
                self.now,
                node,
                outbox,
                &mut sender,
            );
            for emission in emissions {
                self.schedule_emission(emission);
            }
        }
    }

    /// Insert a fully resolved transmission into the queue.
    fn schedule_emission(&mut self, emission: ResolvedEmission<M>) {
        match emission {
            ResolvedEmission::Unicast { at, from, to, msg } => {
                self.queue
                    .schedule(at, EngineEvent::Deliver { from, to, msg });
            }
            ResolvedEmission::Batch { from, msg, plan } => {
                let first = plan[0].0;
                self.queue.schedule(
                    first,
                    EngineEvent::DeliverBatch {
                        from,
                        msg,
                        plan,
                        next: 0,
                    },
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Conservative time-window parallel scheduler.
//
// The network model guarantees every cross-node message takes at least
// `NetworkConfig::delivery_lookahead()` of virtual time to arrive. Events in
// the window `[t_min, t_min + lookahead)` therefore cannot influence each
// other across nodes: the engine can execute each node's events on its own
// *lane* (a worker thread owning the actor, its RNG stream, NIC state and
// timer-id allocator) and merge at a barrier. Three phases per window:
//
//  A. *Predict* (serial): drain the window's events from the queue without
//     touching any bookkeeping and walk them exactly as the serial
//     dispatcher would — batch unrolling included — to produce each lane's
//     invocation list.
//  B. *Execute* (parallel): every lane runs its handlers with virtual time
//     pinned to each invocation's timestamp, resolving sends immediately so
//     RNG draws happen in serial order. A lane that arms a timer or emits a
//     message landing *inside* the window stops there — such spawns can
//     interleave with later events in ways only the global walk orders, so
//     the tail is left to the replay's real execution path.
//  C. *Replay* (serial): restore the drained events and re-run the window's
//     queue bookkeeping — pops, sequence numbers, tombstones, batch
//     re-schedules, counters — applying each lane-executed invocation's
//     cached record instead of re-running its handler. Anything no lane
//     executed (stopped tails, actorless nodes, in-window spawns) runs for
//     real. The result is bit-identical to the serial walk at any thread
//     count; windows overlapping fault activity fall back to serial wholesale.
// ---------------------------------------------------------------------------

impl<M: Payload + Clone + Send + 'static> Simulation<M> {
    /// Drive the simulation to `deadline` in conservative lookahead windows.
    fn run_windows_until(&mut self, deadline: SimTime) {
        let lookahead = self.network.delivery_lookahead().as_micros().max(1);
        while let Some(t_min) = self.queue.peek_time() {
            if t_min > deadline {
                break;
            }
            // The window covers [t_min, end); `end` never reaches past the
            // deadline's last included microsecond.
            let cap = if deadline.0 == u64::MAX {
                u64::MAX
            } else {
                deadline.0.saturating_add(1)
            };
            let end = SimTime(t_min.0.saturating_add(lookahead).min(cap));
            if self.faults.parallel_hazard_in(t_min, end) {
                let started = ProfTimer::maybe(self.profile);
                let before = self.events_processed;
                self.run_serial_window(end);
                self.windows_serial += 1;
                self.sample_serial_window(started, before);
                continue;
            }
            self.run_window(end);
        }
    }

    /// Run every event strictly before `end` through the ordinary serial
    /// dispatcher.
    fn run_serial_window(&mut self, end: SimTime) {
        let below = SimTime(end.0 - 1);
        while let Ok((time, event)) = self.queue.pop_before(below) {
            self.now = self.now.max(time);
            self.dispatch(event);
            self.events_processed += 1;
        }
    }

    fn sample_serial_window(&mut self, started: ProfTimer, events_before: u64) {
        if started.active() {
            self.window_samples.push(WindowSample {
                serial_ns: started.elapsed_ns(),
                invocations: self.events_processed - events_before,
                ..WindowSample::default()
            });
        }
    }

    /// One conservative window `[t_min, end)`: predict, fan out, merge.
    fn run_window(&mut self, end: SimTime) {
        let plan_started = ProfTimer::maybe(self.profile);
        let events_before = self.events_processed;
        let drained = self.queue.drain_upto(end);
        let (planned, invocations) = self.plan_window(&drained, end);
        // Too little independent work to amortize a fan-out: put the events
        // back and walk them serially. The decision depends only on queue
        // state, so every thread count takes the same path.
        if planned.len() < 2 || invocations < MIN_PARALLEL_INVOCATIONS {
            self.queue.restore(drained);
            self.run_serial_window(end);
            self.windows_serial += 1;
            self.sample_serial_window(plan_started, events_before);
            return;
        }
        let mut lanes = self.make_lanes(planned);
        let plan_ns = plan_started.elapsed_ns();

        {
            let network = &self.network;
            let faults = &self.faults;
            let profile = self.profile;
            parallel_for_mut(&mut lanes, self.intra_threads, |lane| {
                run_lane(network, faults, end, lane, profile);
            });
        }

        let merge_started = ProfTimer::maybe(self.profile);
        let (mut max_lane_ns, mut sum_lane_ns) = (0u64, 0u64);
        let lane_count = lanes.len() as u32;
        if self.profile {
            for lane in &lanes {
                max_lane_ns = max_lane_ns.max(lane.wall_ns);
                sum_lane_ns += lane.wall_ns;
            }
        }
        let fifos = self.merge_lanes(lanes);
        self.queue.restore(drained);
        self.replay_window(end, fifos);
        self.windows_parallel += 1;
        if merge_started.active() {
            self.window_samples.push(WindowSample {
                serial_ns: plan_ns + merge_started.elapsed_ns(),
                max_lane_ns,
                sum_lane_ns,
                lanes: lane_count,
                invocations: self.events_processed - events_before,
            });
        }
    }

    /// Phase A: walk the drained window serially — without running handlers
    /// or touching engine bookkeeping — to predict which actor each event
    /// invokes and in what order. Batches are unrolled exactly as the serial
    /// dispatcher would, including remainder re-scheduling (simulated with
    /// pseudo-sequence numbers starting at the queue's next fresh sequence,
    /// which preserves the relative order the real re-schedules receive
    /// during replay: originals order before remainders at equal times, and
    /// remainders order among themselves by creation).
    #[allow(clippy::type_complexity)]
    fn plan_window(
        &self,
        drained: &[(SimTime, u64, EngineEvent<M>)],
        end: SimTime,
    ) -> (BTreeMap<NodeId, Vec<PlannedInv<M>>>, usize) {
        let mut planned: BTreeMap<NodeId, Vec<PlannedInv<M>>> = BTreeMap::new();
        let mut count = 0usize;
        let mut scratch: BinaryHeap<ScratchEntry<M>> = BinaryHeap::new();
        let mut pseudo_seq = self.queue.next_seq();
        let mut originals = drained.iter().peekable();
        loop {
            let take_scratch = match (originals.peek(), scratch.peek()) {
                (None, None) => break,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some(&&(time, seq, _)), Some(s)) => (s.time, s.seq) < (time, seq),
            };
            if take_scratch {
                // orthrus: allow(panic-path): take_scratch is only true when scratch.peek() returned Some in the match above.
                let mut s = scratch.pop().expect("peeked entry exists");
                let mut due_end = s.next;
                while due_end < s.plan.len() && s.plan[due_end].0 <= s.time {
                    due_end += 1;
                }
                for &(_, to) in &s.plan[s.next..due_end] {
                    self.push_planned(
                        &mut planned,
                        &mut count,
                        to,
                        s.time,
                        LaneInvocation::Message {
                            from: s.from,
                            msg: s.msg.clone(),
                        },
                    );
                }
                if due_end < s.plan.len() && s.plan[due_end].0 < end {
                    s.time = s.plan[due_end].0;
                    s.seq = pseudo_seq;
                    pseudo_seq += 1;
                    s.next = due_end;
                    scratch.push(s);
                }
                // A remainder at or beyond `end` is dropped here: the replay
                // re-schedules it for real when the batch event pops.
                continue;
            }
            // orthrus: allow(panic-path): this branch is only reached when originals.peek() returned Some in the match above.
            let &(time, _seq, ref event) = originals.next().expect("peeked entry exists");
            match event {
                EngineEvent::Start { node } => {
                    self.push_planned(&mut planned, &mut count, *node, time, LaneInvocation::Start);
                }
                EngineEvent::Deliver { from, to, msg } => {
                    self.push_planned(
                        &mut planned,
                        &mut count,
                        *to,
                        time,
                        LaneInvocation::Message {
                            from: *from,
                            msg: msg.clone(),
                        },
                    );
                }
                EngineEvent::DeliverBatch {
                    from,
                    msg,
                    plan,
                    next,
                } => {
                    let mut due_end = *next;
                    while due_end < plan.len() && plan[due_end].0 <= time {
                        due_end += 1;
                    }
                    for &(_, to) in &plan[*next..due_end] {
                        self.push_planned(
                            &mut planned,
                            &mut count,
                            to,
                            time,
                            LaneInvocation::Message {
                                from: *from,
                                msg: msg.clone(),
                            },
                        );
                    }
                    if due_end < plan.len() && plan[due_end].0 < end {
                        scratch.push(ScratchEntry {
                            time: plan[due_end].0,
                            seq: pseudo_seq,
                            from: *from,
                            msg: msg.clone(),
                            plan: plan.clone(),
                            next: due_end,
                        });
                        pseudo_seq += 1;
                    }
                }
                EngineEvent::Timer { node, id, tag } => {
                    // A pre-window tombstone means the serial walk would skip
                    // this timer before reaching the actor; the replay's real
                    // tombstone check does the same, so no lane record may
                    // exist for it.
                    if !self.cancelled_timers.contains(&(*node, id.0)) {
                        self.push_planned(
                            &mut planned,
                            &mut count,
                            *node,
                            time,
                            LaneInvocation::Timer { id: *id, tag: *tag },
                        );
                    }
                }
                EngineEvent::Recover { node } => {
                    self.push_planned(
                        &mut planned,
                        &mut count,
                        *node,
                        time,
                        LaneInvocation::Recover,
                    );
                }
            }
        }
        (planned, count)
    }

    /// Assign one predicted invocation to a lane. Nodes without a registered
    /// actor get no lane — the replay's real path no-ops them, as the serial
    /// walk would.
    fn push_planned(
        &self,
        planned: &mut BTreeMap<NodeId, Vec<PlannedInv<M>>>,
        count: &mut usize,
        node: NodeId,
        time: SimTime,
        inv: LaneInvocation<M>,
    ) {
        if !self.nodes.contains_key(&node) {
            return;
        }
        planned
            .entry(node)
            .or_default()
            .push(PlannedInv { time, inv });
        *count += 1;
    }

    /// Phase B setup: move each planned actor and its private simulation
    /// state out of the engine into a lane task. The planner map is a
    /// `BTreeMap`, so lanes come out sorted by node id and the fan-out order
    /// is deterministic by construction (the merge is order-insensitive, but
    /// determinism is cheap).
    fn make_lanes(&mut self, planned: BTreeMap<NodeId, Vec<PlannedInv<M>>>) -> Vec<LaneTask<M>> {
        planned
            .into_iter()
            .map(|(node, pending)| LaneTask {
                node,
                state: self
                    .nodes
                    .remove(&node)
                    // orthrus: allow(panic-path): plan_window only plans invocations for registered actors; a miss is an engine bug, not a recoverable schedule state.
                    .expect("planned lanes have actors"),
                pending,
                records: Vec::new(),
                stats: StatsCollector::new(),
                messages_sent: 0,
                bytes_sent: 0,
                wall_ns: 0,
            })
            .collect()
    }

    /// Phase C setup: move every lane's state back into the engine and build
    /// the per-node record FIFOs the barrier replay consumes. Stats merging
    /// is commutative (first-write-wins timestamps become min-merges), so
    /// lane order cannot leak into results.
    fn merge_lanes(
        &mut self,
        lanes: Vec<LaneTask<M>>,
    ) -> BTreeMap<NodeId, VecDeque<InvocationRecord<M>>> {
        let mut fifos = BTreeMap::new();
        for lane in lanes {
            self.nodes.insert(lane.node, lane.state);
            self.messages_sent += lane.messages_sent;
            self.bytes_sent += lane.bytes_sent;
            self.stats.absorb(lane.stats);
            fifos.insert(lane.node, VecDeque::from(lane.records));
        }
        fifos
    }

    /// Phase C: the barrier replay. Re-run the window's queue bookkeeping —
    /// pops, sequence numbers, timer tombstones, batch re-schedules, event
    /// and peak-queue counters — exactly as the serial walk would, applying
    /// each lane-executed invocation's cached record instead of re-running
    /// its handler.
    fn replay_window(
        &mut self,
        end: SimTime,
        mut fifos: BTreeMap<NodeId, VecDeque<InvocationRecord<M>>>,
    ) {
        let below = SimTime(end.0 - 1);
        while let Ok((time, event)) = self.queue.pop_before(below) {
            self.now = self.now.max(time);
            self.dispatch_replay(event, &mut fifos);
            self.events_processed += 1;
        }
        assert!(
            fifos.values().all(VecDeque::is_empty),
            "parallel window left unconsumed lane records"
        );
    }

    fn dispatch_replay(
        &mut self,
        event: EngineEvent<M>,
        fifos: &mut BTreeMap<NodeId, VecDeque<InvocationRecord<M>>>,
    ) {
        match event {
            EngineEvent::Start { node } => {
                self.replay_invoke(node, RecordKind::Start, Invocation::Start, fifos);
            }
            EngineEvent::Deliver { from, to, msg } => {
                self.replay_invoke(
                    to,
                    RecordKind::Message,
                    Invocation::Message { from, msg },
                    fifos,
                );
            }
            EngineEvent::DeliverBatch {
                from,
                msg,
                plan,
                next,
            } => self.dispatch_batch_replay(from, msg, plan, next, fifos),
            EngineEvent::Timer { node, id, tag } => {
                self.armed_timers.remove(&(node, id.0));
                if self.cancelled_timers.remove(&(node, id.0)) {
                    return;
                }
                self.replay_invoke(node, RecordKind::Timer, Invocation::Timer { tag }, fifos);
            }
            EngineEvent::Recover { node } => {
                self.replay_invoke(node, RecordKind::Recover, Invocation::Recover, fifos);
            }
        }
    }

    /// Replay twin of `dispatch_batch`: identical due-prefix, event-count and
    /// re-schedule logic, with deliveries routed through the record FIFOs.
    fn dispatch_batch_replay(
        &mut self,
        from: NodeId,
        msg: M,
        plan: Vec<(SimTime, NodeId)>,
        start: usize,
        fifos: &mut BTreeMap<NodeId, VecDeque<InvocationRecord<M>>>,
    ) {
        let mut due_end = start;
        while due_end < plan.len() && plan[due_end].0 <= self.now {
            due_end += 1;
        }
        self.events_processed += (due_end - start).saturating_sub(1) as u64;
        let mut msg = Some(msg);
        for (i, &(_, to)) in plan.iter().enumerate().take(due_end).skip(start) {
            let m = if i + 1 == plan.len() {
                msg.take()
                    // orthrus: allow(panic-path): mirror of dispatch_batch — only the final recipient takes the message.
                    .expect("batch message present until last recipient")
            } else {
                msg.as_ref()
                    // orthrus: allow(panic-path): mirror of dispatch_batch — earlier arms clone from the still-occupied Option.
                    .expect("batch message present until last recipient")
                    .clone()
            };
            self.replay_invoke(
                to,
                RecordKind::Message,
                Invocation::Message { from, msg: m },
                fifos,
            );
        }
        if due_end < plan.len() {
            let at = plan[due_end].0;
            // orthrus: allow(panic-path): mirror of dispatch_batch — due_end < plan.len() means the message was not consumed.
            let msg = msg.take().expect("undelivered batch keeps its message");
            self.queue.schedule(
                at,
                EngineEvent::DeliverBatch {
                    from,
                    msg,
                    plan,
                    next: due_end,
                },
            );
        }
    }

    /// Apply the lane's cached record for this invocation, or fall back to
    /// real execution for work no lane performed (stopped-lane tails,
    /// actorless nodes, in-window spawns — whose lanes are guaranteed to have
    /// exhausted their FIFOs, because spawns only come from real execution).
    fn replay_invoke(
        &mut self,
        node: NodeId,
        kind: RecordKind,
        invocation: Invocation<M>,
        fifos: &mut BTreeMap<NodeId, VecDeque<InvocationRecord<M>>>,
    ) {
        if self.node_crashed(node, self.now) {
            return;
        }
        if let Some(front) = fifos.get_mut(&node).and_then(VecDeque::pop_front) {
            assert!(
                front.time == self.now && front.kind == kind,
                "lane record misaligned at {node}: recorded ({:?}, {:?}), replaying ({:?}, {kind:?})",
                front.time,
                front.kind,
                self.now,
            );
            self.apply_record(node, front);
            return;
        }
        self.invoke(node, invocation);
    }

    /// Apply a lane-executed invocation's side effects with real engine
    /// bookkeeping. The handler already ran on the lane — its state changes,
    /// stats, wire counters and RNG draws were merged at the barrier — so
    /// only the queue-facing effects happen here, in exactly the order the
    /// serial walk applies them (timers, then cancels, then emissions).
    fn apply_record(&mut self, node: NodeId, rec: InvocationRecord<M>) {
        for (fire_at, id, tag) in rec.timers {
            self.armed_timers.insert((node, id.0));
            self.queue
                .schedule(fire_at, EngineEvent::Timer { node, id, tag });
        }
        for id in rec.cancels {
            if self.armed_timers.remove(&(node, id)) {
                self.cancelled_timers.insert((node, id));
            }
        }
        for emission in rec.emissions {
            self.schedule_emission(emission);
        }
    }
}

/// Mutable sender-side state threaded through network resolution. The same
/// code path computes delivery schedules for the serial engine (borrowing
/// the engine's node record and counters) and for a parallel lane (borrowing
/// the lane's), so the two cannot drift apart.
struct SenderState<'a> {
    rng: &'a mut StdRng,
    nic_free: &'a mut SimTime,
    stats: &'a mut StatsCollector,
    messages_sent: &'a mut u64,
    bytes_sent: &'a mut u64,
}

impl SenderState<'_> {
    /// Count `copies` sends of `bytes` each in the wire statistics.
    fn charge(&mut self, bytes: u64, copies: u64) {
        *self.messages_sent += copies;
        *self.bytes_sent += bytes * copies;
        self.stats.messages_sent += copies;
        self.stats.bytes_sent += bytes * copies;
    }
}

/// A fully resolved transmission: every arrival time fixed, every RNG draw
/// made. Scheduling it is a pure queue insertion, so lanes resolve their
/// sends in parallel and the barrier replay inserts them bit-identically.
enum ResolvedEmission<M> {
    Unicast {
        at: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// `plan` is sorted by arrival (ties keep recipient order) and non-empty.
    Batch {
        from: NodeId,
        msg: M,
        plan: Vec<(SimTime, NodeId)>,
    },
}

impl<M> ResolvedEmission<M> {
    /// Earliest instant any copy of this emission is delivered.
    fn earliest(&self) -> SimTime {
        match self {
            ResolvedEmission::Unicast { at, .. } => *at,
            ResolvedEmission::Batch { plan, .. } => plan[0].0,
        }
    }
}

fn slowdown_of(faults: &FaultPlan, node: NodeId) -> f64 {
    match node {
        NodeId::Replica(r) => faults.slowdown(r),
        NodeId::Client(_) => 1.0,
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
    let processing = network.processing_per_message.mul_f64(slow_from);
    let ready = now + processing;
    let serialization = network.serialization_delay(bytes).mul_f64(slow_from);
    let start = if nic_free > ready { nic_free } else { ready };
    (start, serialization)
}

/// Arrival time at `to` of a copy whose NIC serialization finished at
/// `done`: jittered per-link propagation (drawn from the sender's RNG
/// stream) plus receiver-side processing. Unicast and multicast both charge
/// copies through here, so their arrival math cannot diverge.
#[allow(clippy::too_many_arguments)]
fn copy_arrival(
    network: &NetworkConfig,
    faults: &FaultPlan,
    from: NodeId,
    to: NodeId,
    done: SimTime,
    slow_from: f64,
    rng: &mut StdRng,
) -> SimTime {
    let propagation = network.sample_latency(from, to, rng).mul_f64(slow_from);
    let recv_processing = network
        .processing_per_message
        .mul_f64(slowdown_of(faults, to));
    done + propagation + recv_processing
}

#[allow(clippy::too_many_arguments)]
fn resolve_unicast<M: Payload>(
    network: &NetworkConfig,
    faults: &FaultPlan,
    now: SimTime,
    from: NodeId,
    to: NodeId,
    msg: M,
    slow_from: f64,
    sender: &mut SenderState<'_>,
) -> ResolvedEmission<M> {
    let bytes = msg.wire_bytes();
    sender.charge(bytes, 1);
    // Per-sender NIC: messages serialize one after another.
    let (start, serialization) = nic_slot(network, now, *sender.nic_free, bytes, slow_from);
    let done = start + serialization;
    *sender.nic_free = done;
    let at = copy_arrival(network, faults, from, to, done, slow_from, sender.rng);
    ResolvedEmission::Unicast { at, from, to, msg }
}

/// Coalesce an `n`-way multicast into one queue entry. The network model is
/// charged exactly as for `n` unicasts — per-message stats, one NIC
/// serialization slot per copy, per-link jittered propagation sampled in
/// recipient order — but the queue carries a single `DeliverBatch`.
#[allow(clippy::too_many_arguments)]
fn resolve_multicast<M: Payload>(
    network: &NetworkConfig,
    faults: &FaultPlan,
    now: SimTime,
    from: NodeId,
    recipients: Vec<NodeId>,
    msg: M,
    slow_from: f64,
    sender: &mut SenderState<'_>,
) -> ResolvedEmission<M> {
    if recipients.len() == 1 {
        let to = recipients[0];
        return resolve_unicast(network, faults, now, from, to, msg, slow_from, sender);
    }
    let bytes = msg.wire_bytes();
    sender.charge(bytes, recipients.len() as u64);
    let (start, serialization) = nic_slot(network, now, *sender.nic_free, bytes, slow_from);

    let mut plan: Vec<(SimTime, NodeId)> = Vec::with_capacity(recipients.len());
    let mut done = start;
    for to in recipients {
        // The sender's NIC still serializes one copy per recipient.
        done += serialization;
        let arrival = copy_arrival(network, faults, from, to, done, slow_from, sender.rng);
        plan.push((arrival, to));
    }
    *sender.nic_free = done;

    // Stable sort: equal arrivals keep recipient order, matching the seq
    // tie-break the per-recipient path would have produced.
    plan.sort_by_key(|&(at, _)| at);
    ResolvedEmission::Batch { from, msg, plan }
}

/// Resolve every buffered send of one invocation through the network model.
fn resolve_outbox<M: Payload>(
    network: &NetworkConfig,
    faults: &FaultPlan,
    now: SimTime,
    from: NodeId,
    outbox: Vec<Outbound<M>>,
    sender: &mut SenderState<'_>,
) -> Vec<ResolvedEmission<M>> {
    let slow_from = slowdown_of(faults, from);
    let mut out = Vec::with_capacity(outbox.len());
    for item in outbox {
        out.push(match item {
            Outbound::One(to, msg) => {
                resolve_unicast(network, faults, now, from, to, msg, slow_from, sender)
            }
            Outbound::Many(recipients, msg) => resolve_multicast(
                network, faults, now, from, recipients, msg, slow_from, sender,
            ),
        });
    }
    out
}

/// One predicted actor invocation inside a lookahead window (phase A output).
struct PlannedInv<M> {
    time: SimTime,
    inv: LaneInvocation<M>,
}

/// Lane-executable invocation kinds. Mirrors [`Invocation`] but carries the
/// timer id so a lane can honour in-window cancellations.
enum LaneInvocation<M> {
    Start,
    Message { from: NodeId, msg: M },
    Timer { id: TimerId, tag: u64 },
    Recover,
}

/// Which event kind produced a record — asserted against the replayed queue
/// to pin lane/serial alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordKind {
    Start,
    Message,
    Timer,
    Recover,
}

/// Everything one lane-executed invocation did, applied verbatim at the
/// barrier replay: timers to arm (absolute fire times), cancellations, and
/// fully resolved emissions. The handler itself does not re-run.
struct InvocationRecord<M> {
    time: SimTime,
    kind: RecordKind,
    timers: Vec<(SimTime, TimerId, u64)>,
    cancels: Vec<u64>,
    emissions: Vec<ResolvedEmission<M>>,
}

/// A per-actor work packet for one lookahead window: the node's
/// [`NodeState`] moves onto a worker thread, executes its predicted
/// invocations, and the outcome merges back at the barrier.
struct LaneTask<M> {
    node: NodeId,
    state: NodeState<M>,
    pending: Vec<PlannedInv<M>>,
    records: Vec<InvocationRecord<M>>,
    stats: StatsCollector,
    messages_sent: u64,
    bytes_sent: u64,
    wall_ns: u64,
}

/// A batch remainder re-scheduled during window *prediction*. Pseudo-seqs
/// start at the queue's next fresh sequence number, so remainders order
/// after every drained original and among themselves in creation order —
/// the relative order the real re-schedules receive during replay.
struct ScratchEntry<M> {
    time: SimTime,
    seq: u64,
    from: NodeId,
    msg: M,
    plan: Vec<(SimTime, NodeId)>,
    next: usize,
}

impl<M> PartialEq for ScratchEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<M> Eq for ScratchEntry<M> {}
impl<M> PartialOrd for ScratchEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for ScratchEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest entry pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Execute one lane's predicted invocations (phase B, on a worker thread).
///
/// Stops early — leaving the tail to the barrier replay's real execution
/// path — as soon as an invocation arms a timer or resolves an emission
/// landing *inside* the window: such spawns interleave with later events in
/// ways only the global serial walk orders. Cross-node sends always land at
/// or beyond the window end (that is what the lookahead guarantees), so a
/// stop is only ever triggered by self-sends and short timers.
fn run_lane<M: Payload + Clone + Send + 'static>(
    network: &NetworkConfig,
    faults: &FaultPlan,
    window_end: SimTime,
    lane: &mut LaneTask<M>,
    profile: bool,
) {
    let started = ProfTimer::maybe(profile);
    // Ids of timers this lane cancelled. A pending in-window timer invocation
    // with a matching id is skipped without a record: the replay applies the
    // recorded cancel for real, so its tombstone check skips the pop too.
    let mut cancelled_pending: FxHashSet<u64> = FxHashSet::default();
    let pending = std::mem::take(&mut lane.pending);
    for planned in pending {
        let mut outbox: Vec<Outbound<M>> = Vec::new();
        let mut timer_requests: Vec<(Duration, u64, TimerId)> = Vec::new();
        let mut cancel_requests: Vec<u64> = Vec::new();
        let kind;
        {
            let mut ctx = Context {
                now: planned.time,
                self_id: lane.node,
                rng: &mut lane.state.rng,
                stats: &mut lane.stats,
                outbox: &mut outbox,
                timer_requests: &mut timer_requests,
                cancel_requests: &mut cancel_requests,
                next_timer_id: &mut lane.state.timer_seq,
            };
            match planned.inv {
                LaneInvocation::Start => {
                    lane.state.actor.on_start(&mut ctx);
                    kind = RecordKind::Start;
                }
                LaneInvocation::Message { from, msg } => {
                    lane.state.actor.on_message(from, msg, &mut ctx);
                    kind = RecordKind::Message;
                }
                LaneInvocation::Timer { id, tag } => {
                    if cancelled_pending.contains(&id.0) {
                        continue;
                    }
                    lane.state.actor.on_timer(tag, &mut ctx);
                    kind = RecordKind::Timer;
                }
                LaneInvocation::Recover => {
                    lane.state.actor.on_recover(&mut ctx);
                    kind = RecordKind::Recover;
                }
            }
        }
        let mut stop = false;
        let timers: Vec<(SimTime, TimerId, u64)> = timer_requests
            .into_iter()
            .map(|(delay, tag, id)| {
                let fire_at = planned.time + delay;
                if fire_at < window_end {
                    stop = true;
                }
                (fire_at, id, tag)
            })
            .collect();
        cancelled_pending.extend(cancel_requests.iter().copied());
        let emissions = {
            let mut sender = SenderState {
                rng: &mut lane.state.rng,
                nic_free: &mut lane.state.nic_free,
                stats: &mut lane.stats,
                messages_sent: &mut lane.messages_sent,
                bytes_sent: &mut lane.bytes_sent,
            };
            resolve_outbox(
                network,
                faults,
                planned.time,
                lane.node,
                outbox,
                &mut sender,
            )
        };
        if emissions.iter().any(|e| e.earliest() < window_end) {
            stop = true;
        }
        lane.records.push(InvocationRecord {
            time: planned.time,
            kind,
            timers,
            cancels: cancel_requests,
            emissions,
        });
        if stop {
            break;
        }
    }
    if started.active() {
        lane.wall_ns = started.elapsed_ns();
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

    /// Actor used to test timers and cancellation.
    struct TimerUser {
        fired: Vec<u64>,
        cancel_second: bool,
    }

    impl Actor<Ping> for TimerUser {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(Duration::from_millis(10), 1);
            let second = ctx.set_timer(Duration::from_millis(20), 2);
            if self.cancel_second {
                ctx.cancel_timer(second);
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
        fn on_timer(&mut self, tag: u64, _ctx: &mut Context<'_, Ping>) {
            self.fired.push(tag);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut sim: Simulation<Ping> = Simulation::new(NetworkConfig::lan(), 3);
        let n = NodeId::replica(0);
        sim.add_actor(
            n,
            Box::new(TimerUser {
                fired: Vec::new(),
                cancel_second: true,
            }),
        );
        sim.run_to_completion();
        let state: &TimerUser = sim.actor_as(n).unwrap();
        assert_eq!(state.fired, vec![1]);
    }

    /// Regression test for the cancelled-timer leak: tombstones must not
    /// survive the timer's pop, cancelling an already-fired timer must not
    /// create one, and crashed nodes must not pin theirs forever.
    struct TimerChurner {
        stale: Option<TimerId>,
        churns: u32,
    }

    impl Actor<Ping> for TimerChurner {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            // A timer that fires, whose handle we cancel *afterwards*.
            self.stale = Some(ctx.set_timer(Duration::from_millis(1), 1));
            // Set-and-cancel churn within one handler.
            for i in 0..self.churns {
                let id = ctx.set_timer(Duration::from_millis(5 + u64::from(i)), 100 + u64::from(i));
                ctx.cancel_timer(id);
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Ping>) {
            if tag == 1 {
                // Cancel the handle of the timer that just fired: a no-op
                // that must leave no tombstone behind.
                ctx.cancel_timer(self.stale.expect("set in on_start"));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn cancelled_timer_bookkeeping_does_not_leak() {
        let mut sim: Simulation<Ping> = Simulation::new(NetworkConfig::lan(), 5);
        sim.add_actor(
            NodeId::replica(0),
            Box::new(TimerChurner {
                stale: None,
                churns: 200,
            }),
        );
        // A node that cancels a timer and then crashes before it would fire:
        // the pop must still clear the tombstone.
        struct CancelThenCrash;
        impl Actor<Ping> for CancelThenCrash {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                let id = ctx.set_timer(Duration::from_secs(2), 9);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _f: NodeId, _m: Ping, _c: &mut Context<'_, Ping>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let faults = FaultPlan::none().with_crash(ReplicaId::new(1), SimTime::from_secs(1));
        let mut crash_sim: Simulation<Ping> =
            Simulation::with_faults(NetworkConfig::lan(), faults, 6);
        crash_sim.add_actor(NodeId::replica(1), Box::new(CancelThenCrash));

        sim.run_to_completion();
        crash_sim.run_to_completion();
        assert!(sim.cancelled_timers.is_empty(), "tombstones leaked");
        assert!(sim.armed_timers.is_empty(), "armed set leaked");
        assert!(crash_sim.cancelled_timers.is_empty(), "crash leaked");
        assert!(crash_sim.armed_timers.is_empty(), "crash leaked armed");
    }

    #[test]
    fn max_events_limits_livelock() {
        // Two actors that ping each other forever.
        struct Forever {
            peer: NodeId,
        }
        impl Actor<Ping> for Forever {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.send(self.peer, Ping { hops: 0, bytes: 8 });
            }
            fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping>) {
                ctx.send(from, msg);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim: Simulation<Ping> = Simulation::new(NetworkConfig::lan(), 5);
        sim.set_max_events(500);
        sim.add_actor(
            NodeId::replica(0),
            Box::new(Forever {
                peer: NodeId::replica(1),
            }),
        );
        sim.add_actor(
            NodeId::replica(1),
            Box::new(Forever {
                peer: NodeId::replica(0),
            }),
        );
        let report = sim.run_to_completion();
        assert_eq!(report.events_processed, 500);
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

    /// A gossip actor built to stress every parallel-engine code path:
    /// coalesced broadcasts (batch remainders crossing windows), in-window
    /// timers and self-sends (lane stops), and timer cancellation both
    /// within and across windows.
    struct Stormer {
        peers: Vec<NodeId>,
        arrivals: Vec<(NodeId, SimTime)>,
        rebroadcasts: u32,
        ticks: u32,
        long_timer: Option<TimerId>,
        rng_draws: Vec<u32>,
    }

    impl Stormer {
        fn boxed(peers: Vec<NodeId>) -> Box<Self> {
            Box::new(Stormer {
                peers,
                arrivals: Vec::new(),
                rebroadcasts: 0,
                ticks: 0,
                long_timer: None,
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
            // Fires inside the first lookahead window: forces a lane stop.
            ctx.set_timer(Duration::from_micros(100), 1);
            // Cancelled by the first message, typically in a later window.
            self.long_timer = Some(ctx.set_timer(Duration::from_millis(50), 2));
        }

        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping>) {
            self.arrivals.push((from, ctx.now()));
            self.rng_draws.push(orthrus_types::rng::Rng::gen(ctx.rng()));
            if let Some(id) = self.long_timer.take() {
                ctx.cancel_timer(id);
            }
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
            assert_eq!(tag, 1, "the long timer must always be cancelled");
            self.ticks += 1;
            // A self-send lands inside the window (1 µs loopback).
            ctx.send(ctx.id(), Ping { hops: 9, bytes: 8 });
            if self.ticks < 3 {
                ctx.set_timer(Duration::from_micros(150), 1);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn storm_sim(
        network: NetworkConfig,
        faults: FaultPlan,
        nodes: u32,
        threads: usize,
    ) -> Simulation<Ping> {
        let mut sim: Simulation<Ping> = Simulation::with_faults(network, faults, 23);
        if threads > 1 {
            sim.set_parallel_engine(threads);
        }
        let all: Vec<NodeId> = (0..nodes).map(NodeId::replica).collect();
        for &node in &all {
            let peers: Vec<NodeId> = all.iter().copied().filter(|&p| p != node).collect();
            sim.add_actor(node, Stormer::boxed(peers));
        }
        sim
    }

    /// Per-node (arrivals, rng draws, tick count) — everything a Stormer
    /// observes, so equality here means bit-identical execution.
    type StormPrint = (Vec<(NodeId, SimTime)>, Vec<u32>, u32);

    fn storm_fingerprint(sim: &Simulation<Ping>, nodes: u32) -> Vec<StormPrint> {
        (0..nodes)
            .map(|n| {
                let s: &Stormer = sim.actor_as(NodeId::replica(n)).unwrap();
                (s.arrivals.clone(), s.rng_draws.clone(), s.ticks)
            })
            .collect()
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_serial() {
        for network in [NetworkConfig::lan(), NetworkConfig::wan()] {
            let nodes = 12u32;
            let mut serial = storm_sim(network.clone(), FaultPlan::none(), nodes, 1);
            let serial_report = serial.run_to_completion();
            for threads in [2usize, 4, 8] {
                let mut parallel = storm_sim(network.clone(), FaultPlan::none(), nodes, threads);
                let parallel_report = parallel.run_to_completion();
                // Whole-report equality covers end time, event counts, wire
                // stats and the peak queue length (the restore/replay path
                // must reproduce the serial queue bookkeeping exactly).
                assert_eq!(
                    serial_report, parallel_report,
                    "{:?} x{threads}",
                    network.kind
                );
                assert_eq!(
                    storm_fingerprint(&serial, nodes),
                    storm_fingerprint(&parallel, nodes),
                    "{:?} x{threads}: actor states diverged",
                    network.kind
                );
                assert!(
                    parallel.windows_parallel() > 0,
                    "{:?} x{threads}: the storm never fanned out",
                    network.kind
                );
                assert!(parallel.armed_timers.is_empty());
                assert!(parallel.cancelled_timers.is_empty());
            }
        }
    }

    #[test]
    fn parallel_engine_fault_windows_fall_back_to_serial() {
        let nodes = 8u32;
        // A straggler makes every window hazardous: the run must stay fully
        // serial and still match the serial engine bit for bit.
        let straggler = FaultPlan::one_straggler(ReplicaId::new(1));
        let mut serial = storm_sim(NetworkConfig::lan(), straggler.clone(), nodes, 1);
        let mut parallel = storm_sim(NetworkConfig::lan(), straggler, nodes, 4);
        assert_eq!(serial.run_to_completion(), parallel.run_to_completion());
        assert_eq!(parallel.windows_parallel(), 0);
        assert!(parallel.windows_serial() > 0);
        assert_eq!(
            storm_fingerprint(&serial, nodes),
            storm_fingerprint(&parallel, nodes)
        );

        // A crash-recover window forces serial execution only while it is
        // active; the run must be identical either way.
        let faults = FaultPlan::none().with_crash_recover(
            ReplicaId::new(2),
            SimTime::from_micros(400),
            SimTime::from_millis(2),
        );
        let mut serial = storm_sim(NetworkConfig::lan(), faults.clone(), nodes, 1);
        let mut parallel = storm_sim(NetworkConfig::lan(), faults, nodes, 4);
        assert_eq!(serial.run_to_completion(), parallel.run_to_completion());
        assert!(
            parallel.windows_serial() > 0,
            "hazard windows must go serial"
        );
        assert_eq!(
            storm_fingerprint(&serial, nodes),
            storm_fingerprint(&parallel, nodes)
        );
    }

    #[test]
    fn parallel_engine_respects_deadlines_and_resume() {
        let nodes = 10u32;
        let mut serial = storm_sim(NetworkConfig::wan(), FaultPlan::none(), nodes, 1);
        let mut parallel = storm_sim(NetworkConfig::wan(), FaultPlan::none(), nodes, 4);
        let deadline = SimTime::from_millis(120);
        assert_eq!(serial.run_until(deadline), parallel.run_until(deadline));
        // Resuming after a deadline must also stay aligned.
        assert_eq!(serial.run_to_completion(), parallel.run_to_completion());
        assert_eq!(
            storm_fingerprint(&serial, nodes),
            storm_fingerprint(&parallel, nodes)
        );
    }

    #[test]
    fn parallel_engine_profiling_samples_cover_all_windows() {
        let nodes = 12u32;
        let mut sim = storm_sim(NetworkConfig::lan(), FaultPlan::none(), nodes, 4);
        sim.set_engine_profiling(true);
        let report = sim.run_to_completion();
        let samples = sim.window_samples();
        assert_eq!(
            samples.len() as u64,
            sim.windows_parallel() + sim.windows_serial()
        );
        let invocations: u64 = samples.iter().map(|s| s.invocations).sum();
        assert_eq!(invocations, report.events_processed);
        assert!(samples
            .iter()
            .any(|s| s.lanes > 1 && s.sum_lane_ns >= s.max_lane_ns && s.max_lane_ns > 0));
    }
}
