//! The virtual-time event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, insertion sequence)`. The insertion sequence
//! is a deterministic tie-breaker for events scheduled at the same virtual
//! time, so a run is reproducible whatever the heap does internally. The
//! queue is one `BinaryHeap`, `O(log n)` per operation, over 24-byte
//! `(time, seq, slot)` entries: payloads sit out of line in a slab, so a sift
//! moves three words per level however large the event type is.
//!
//! An event that is worked on in several steps, such as the engine's
//! coalesced multicast, can be *held* instead of popped
//! (`EventQueue::pop_or_hold_before`): its key stays at the heap top and its
//! payload in its slot, where the caller edits it, while the caller schedules
//! more events. Each of those must be due no earlier than the held event, so
//! its later sequence number keeps it below the held key. The caller then
//! either releases the entry (`EventQueue::release`) or re-keys it to a new
//! time with a fresh sequence number (`EventQueue::rekey`): one sift down
//! from the top, which stops early when the new time is close, in place of a
//! pop and a push. The counters see a hold as a pop and a re-key as a
//! schedule, and a held entry counts as absent in [`EventQueue::len`] and
//! [`EventQueue::peak_len`], so both read exactly as if the event had been
//! popped and scheduled again.

use orthrus_types::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap entry: the `(time, seq)` ordering key plus the slab slot holding
/// the payload (keys are unique, so the slot never decides a comparison).
/// `Reverse` because `BinaryHeap` is a max-heap and the earliest event must
/// pop first.
type Entry = Reverse<(SimTime, u64, u32)>;

/// A deterministic priority queue of simulation events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    /// Payloads of the queued entries, indexed by the entry's slot. Freed
    /// slots are reused before the slab grows, so it never holds more slots
    /// than the largest number of events that were queued at once, plus one
    /// held entry.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// The slot of the held entry, which is the heap top while it is held.
    held: Option<u32>,
    next_seq: u64,
    scheduled: u64,
    processed: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            held: None,
            next_seq: 0,
            scheduled: 0,
            processed: 0,
            peak_len: 0,
        }
    }

    /// Schedule `payload` to fire at absolute virtual time `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("under 2^32 queued events")
        });
        self.slab[slot as usize] = Some(payload);
        self.heap.push(Reverse((time, seq, slot)));
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime(u64::MAX)).ok()
    }

    /// Pop the earliest event if its time is at most `limit`; otherwise leave
    /// the queue untouched and return `Err` with the time of the next event
    /// (`Err(None)` when empty).
    pub fn pop_before(&mut self, limit: SimTime) -> Result<(SimTime, E), Option<SimTime>> {
        let (time, payload) = self.pop_or_hold_before(limit, |_| false)?;
        Ok((time, payload.expect("queued entry owns its slot")))
    }

    /// [`pop_before`](Self::pop_before), except that an event for which
    /// `hold` returns `true` is held instead of popped and comes back as
    /// `None`. Its payload stays in the queue ([`held_mut`](Self::held_mut))
    /// until [`release`](Self::release) or [`rekey`](Self::rekey). In between,
    /// only [`schedule`](Self::schedule) and the read-only counters may be
    /// used, and every event scheduled must be due no earlier than the held
    /// one.
    pub(crate) fn pop_or_hold_before(
        &mut self,
        limit: SimTime,
        hold: impl FnOnce(&E) -> bool,
    ) -> Result<(SimTime, Option<E>), Option<SimTime>> {
        debug_assert!(self.held.is_none(), "an entry is still held");
        let &Reverse((time, _, slot)) = self.heap.peek().ok_or(None)?;
        if time > limit {
            return Err(Some(time));
        }
        self.processed += 1;
        let payload = &mut self.slab[slot as usize];
        if payload.as_ref().is_some_and(hold) {
            self.held = Some(slot);
            return Ok((time, None));
        }
        let payload = payload.take();
        self.heap.pop();
        self.free.push(slot);
        Ok((time, payload))
    }

    /// The payload of the held event, if one is held.
    pub(crate) fn held_mut(&mut self) -> Option<&mut E> {
        self.slab[self.held? as usize].as_mut()
    }

    /// Remove the held event and hand back its payload (`None` if nothing
    /// is held). It was already counted as popped when it was held.
    pub(crate) fn release(&mut self) -> Option<E> {
        let slot = self.held.take()?;
        debug_assert_eq!(self.top_slot(), Some(slot), "the held entry left the top");
        self.heap.pop();
        self.free.push(slot);
        self.slab[slot as usize].take()
    }

    /// Queue the held event again at `time`, with the sequence number a
    /// [`schedule`](Self::schedule) call would have given it now, by
    /// re-keying its entry in place: one sift down from the top instead of a
    /// pop and a push. Does nothing if nothing is held.
    pub(crate) fn rekey(&mut self, time: SimTime) {
        let Some(slot) = self.held.take() else {
            return;
        };
        debug_assert_eq!(self.top_slot(), Some(slot), "the held entry left the top");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        if let Some(mut top) = self.heap.peek_mut() {
            *top = Reverse((time, seq, slot));
        }
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// The slot of the heap top.
    fn top_slot(&self) -> Option<u32> {
        self.heap.peek().map(|&Reverse((_, _, slot))| slot)
    }

    /// Virtual time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        debug_assert!(self.held.is_none(), "an entry is still held");
        self.heap.peek().map(|&Reverse((time, ..))| time)
    }

    /// Number of events waiting in the queue, not counting a held one.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.held.is_some())
    }

    /// Is the queue empty (a held event does not count)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total number of events ever popped.
    pub fn total_processed(&self) -> u64 {
        self.processed
    }

    /// Largest number of events that were ever waiting simultaneously, not
    /// counting a held one.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::rng::{Rng, StdRng};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_respects_the_limit() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_before(t(100)), Err(None));
        q.schedule(t(10), "a");
        q.schedule(t(30), "b");
        assert_eq!(q.pop_before(t(5)), Err(Some(t(10))));
        assert_eq!(q.pop_before(t(10)), Ok((t(10), "a")));
        assert_eq!(q.pop_before(t(20)), Err(Some(t(30))));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(t(1_000)), Ok((t(30), "b")));
        assert_eq!(q.pop_before(t(1_000)), Err(None));
    }

    /// A time for the oracle test to schedule at, `base` or after it: a tie,
    /// an offset of a few µs, of up to 50 ms or of up to 100 s, or hours
    /// ahead.
    fn at_or_after(rng: &mut StdRng, base: u64) -> u64 {
        match rng.gen_range(0..8u32) {
            0..=2 => base,
            3..=4 => base + rng.gen_range(0..50_000u64),
            5 => base + rng.gen_range(0..100_000_000u64),
            6 => base + 3_600_000_000 * rng.gen_range(1..48u64),
            _ => base + rng.gen_range(0..4u64),
        }
    }

    /// The oracle test's model of an `EventQueue<u64>`: a plain sorted `Vec`
    /// in which a hold is a pop and a re-key a schedule.
    #[derive(Default)]
    struct Model {
        /// Pending `(time_us, payload)` in stable time order, so equal times
        /// keep schedule (= `seq`) order.
        pending: Vec<(u64, u64)>,
        scheduled: u64,
        popped: u64,
        peak: usize,
    }

    impl Model {
        fn schedule(&mut self, time: u64, payload: u64) {
            let at = self.pending.partition_point(|&(t, _)| t <= time);
            self.pending.insert(at, (time, payload));
            self.scheduled += 1;
            self.peak = self.peak.max(self.pending.len());
        }

        fn pop_before(&mut self, limit: u64) -> Result<(u64, u64), Option<SimTime>> {
            match self.pending.first() {
                None => Err(None),
                Some(&(time, _)) if time > limit => Err(Some(SimTime(time))),
                Some(_) => {
                    self.popped += 1;
                    Ok(self.pending.remove(0))
                }
            }
        }

        /// The queue matches the model, with nothing held.
        fn check(&self, q: &EventQueue<u64>, seed: u64) {
            assert_eq!(q.len(), self.pending.len());
            assert_eq!(
                q.peek_time(),
                self.pending.first().map(|&(t, _)| SimTime(t))
            );
            assert_eq!(q.total_scheduled(), self.scheduled);
            assert_eq!(q.total_processed(), self.popped);
            assert_eq!(q.peak_len(), self.peak);
            assert!(
                q.slab.len() <= self.peak + 1,
                "slab outgrew the peak at seed {seed}"
            );
            assert_eq!(q.slab.len() - q.free.len(), self.pending.len());
        }
    }

    /// Oracle test: for many seeds, a random interleaving of `schedule`,
    /// `pop`, `pop_before` and `pop_or_hold_before` — sub-µs ties, past
    /// times, far-future offsets, and held events that are released or
    /// re-keyed after more schedules (ties at the held time, later times,
    /// hours ahead) — pops exactly the stable `(time, seq)` sort of what was
    /// scheduled and re-keyed. `len`, `peek_time`, the counters and
    /// `peak_len` match the [`Model`], during holds too, and the payload slab
    /// never outgrows `peak_len` plus the held entry.
    #[test]
    fn random_interleavings_pop_the_stable_time_seq_sort() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut model = Model::default();
            // `now` is the latest time popped or held; payloads are handed
            // out fresh for every schedule and every in-place edit.
            let (mut now, mut next_id) = (0u64, 0u64);
            let mut holds = [0u32; 2];
            for _ in 0..2_000 {
                for _ in 0..rng.gen_range(0..6u32) {
                    let time = if rng.gen_range(0..10u32) == 0 {
                        now.saturating_sub(rng.gen_range(0..1_000u64))
                    } else {
                        at_or_after(&mut rng, now)
                    };
                    q.schedule(SimTime::from_micros(time), next_id);
                    model.schedule(time, next_id);
                    next_id += 1;
                }
                for _ in 0..rng.gen_range(0..4u32) {
                    let limit = match rng.gen_range(0..3u32) {
                        0 => u64::MAX,
                        1 => now + rng.gen_range(0..100u64),
                        _ => now + rng.gen_range(0..100_000u64),
                    };
                    let hold = rng.gen_bool(0.5);
                    let mut offered = None;
                    let got = match rng.gen_range(0..3u32) {
                        0 if limit == u64::MAX => q.pop().map(|(t, id)| (t, Some(id))).ok_or(None),
                        0 => q.pop_before(SimTime(limit)).map(|(t, id)| (t, Some(id))),
                        _ => q.pop_or_hold_before(SimTime(limit), |&id| {
                            offered = Some(id);
                            hold
                        }),
                    };
                    let (time, id) = match (got, model.pop_before(limit)) {
                        (Err(got), Err(want)) => {
                            assert_eq!(got, want, "pop diverged at seed {seed}");
                            continue;
                        }
                        (Ok((t, got_id)), Ok((time, id))) => {
                            assert_eq!(t.0, time, "pop diverged at seed {seed}");
                            now = now.max(time);
                            if got_id.is_some() {
                                assert_eq!(got_id, Some(id), "pop diverged at seed {seed}");
                                assert!(offered.is_none() || !hold);
                                continue;
                            }
                            assert_eq!(offered, Some(id), "hold diverged at seed {seed}");
                            (time, id)
                        }
                        (got, want) => panic!("seed {seed}: got {got:?}, want {want:?}"),
                    };
                    // Held: schedule behind it, edit it in place, then release
                    // it or re-key it (possibly into the past).
                    assert_eq!(q.held_mut().copied(), Some(id));
                    for _ in 0..rng.gen_range(0..6u32) {
                        let at = at_or_after(&mut rng, time);
                        q.schedule(SimTime(at), next_id);
                        model.schedule(at, next_id);
                        next_id += 1;
                        assert_eq!(q.len(), model.pending.len());
                        assert_eq!(q.peak_len(), model.peak);
                        assert_eq!(q.total_scheduled(), model.scheduled);
                    }
                    if let Some(payload) = q.held_mut() {
                        *payload = next_id;
                    }
                    if rng.gen_bool(0.5) {
                        assert_eq!(q.release(), Some(next_id), "release at seed {seed}");
                        holds[0] += 1;
                    } else {
                        let at = if rng.gen_range(0..10u32) == 0 {
                            time.saturating_sub(rng.gen_range(0..1_000u64))
                        } else {
                            at_or_after(&mut rng, time)
                        };
                        q.rekey(SimTime(at));
                        model.schedule(at, next_id);
                        holds[1] += 1;
                    }
                    next_id += 1;
                    assert!(q.held_mut().is_none() && q.release().is_none());
                    model.check(&q, seed);
                }
                model.check(&q, seed);
            }
            assert!(
                holds.iter().all(|&n| n > 100),
                "seed {seed} held too little: {holds:?}"
            );
            let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|(t, id)| (t.0, id))).collect();
            assert_eq!(rest, model.pending, "final drain diverged at seed {seed}");
            assert_eq!(q.total_processed(), model.popped + rest.len() as u64);
        }
    }

    /// A sift moves heap entries, so their size must not depend on the event
    /// type: three words, whatever the payload.
    #[test]
    fn heap_entries_are_24_bytes_for_any_payload() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
        let mut q: EventQueue<[u8; 256]> = EventQueue::new();
        q.schedule(t(1), [7; 256]);
        assert_eq!(q.pop(), Some((t(1), [7; 256])));
    }

    /// The shape of a saturated LAN run: a backlog of tens of thousands of
    /// events stacked on a few timestamps, plus a few timers hours ahead.
    #[test]
    fn saturated_backlog_pops_in_insertion_order_per_timestamp() {
        const STAMPS: u64 = 8;
        const BACKLOG: u64 = 40_000;
        let mut q = EventQueue::new();
        for hours in 1..=5 {
            q.schedule(SimTime::from_secs(3_600 * hours), BACKLOG + hours);
        }
        for i in 0..BACKLOG {
            q.schedule(SimTime::from_micros(100 + 7 * (i % STAMPS)), i);
        }
        assert_eq!(q.peak_len() as u64, BACKLOG + 5);
        for stamp in 0..STAMPS {
            let at = SimTime::from_micros(100 + 7 * stamp);
            for i in (stamp..BACKLOG).step_by(STAMPS as usize) {
                assert_eq!(q.pop_before(at), Ok((at, i)));
            }
            assert!(q.pop_before(at).is_err());
        }
        for hours in 1..=5 {
            let at = SimTime::from_secs(3_600 * hours);
            assert_eq!(q.pop(), Some((at, BACKLOG + hours)));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.total_processed(), BACKLOG + 5);
    }
}
