//! The virtual-time event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, insertion sequence)`. The insertion sequence
//! is a deterministic tie-breaker for events scheduled at the same virtual
//! time, so a run is reproducible whatever the heap does internally. The
//! queue is one `BinaryHeap`, `O(log n)` per operation, over 24-byte
//! `(time, seq, slot)` entries: payloads sit out of line in a slab, so a sift
//! moves three words per level however large the event type is.

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
    /// than the largest number of events that were queued at once.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
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
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime(u64::MAX)).ok()
    }

    /// Pop the earliest event if its time is at most `limit`; otherwise leave
    /// the queue untouched and return `Err` with the time of the next event
    /// (`Err(None)` when empty).
    pub fn pop_before(&mut self, limit: SimTime) -> Result<(SimTime, E), Option<SimTime>> {
        let &Reverse((next, ..)) = self.heap.peek().ok_or(None)?;
        if next > limit {
            return Err(Some(next));
        }
        let Reverse((time, _, slot)) = self.heap.pop().expect("peeked entry exists");
        let payload = self.slab[slot as usize]
            .take()
            .expect("queued entry owns its slot");
        self.free.push(slot);
        self.processed += 1;
        Ok((time, payload))
    }

    /// Virtual time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((time, ..))| time)
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total number of events ever popped.
    pub fn total_processed(&self) -> u64 {
        self.processed
    }

    /// Largest number of events that were ever waiting simultaneously.
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

    /// Oracle test: for many seeds, a random interleaving of `schedule`,
    /// `pop` and `pop_before` — sub-µs ties, past times, far-future offsets —
    /// pops exactly the stable `(time, seq)` sort of what was scheduled, the
    /// counters and `peak_len` match a plain sorted-`Vec` model, and the
    /// payload slab never outgrows `peak_len`.
    #[test]
    fn random_interleavings_pop_the_stable_time_seq_sort() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            // The model: pending `(time_us, id)` kept in stable (time, id)
            // order; ids are handed out in schedule order, like `seq`.
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let (mut now, mut next_id, mut popped, mut peak) = (0u64, 0u64, 0u64, 0usize);
            for _ in 0..2_000 {
                for _ in 0..rng.gen_range(0..6u32) {
                    let time = match rng.gen_range(0..10u32) {
                        0..=2 => now,
                        3..=5 => now + rng.gen_range(0..50_000u64),
                        6 => now + rng.gen_range(0..100_000_000u64),
                        7 => now + 3_600_000_000 * rng.gen_range(1..48u64),
                        8 => now.saturating_sub(rng.gen_range(0..1_000u64)),
                        _ => now + rng.gen_range(0..4u64),
                    };
                    q.schedule(SimTime::from_micros(time), next_id);
                    let at = pending.partition_point(|&(t, _)| t <= time);
                    pending.insert(at, (time, next_id));
                    next_id += 1;
                    peak = peak.max(pending.len());
                }
                for _ in 0..rng.gen_range(0..4u32) {
                    let limit = match rng.gen_range(0..3u32) {
                        0 => u64::MAX,
                        1 => now + rng.gen_range(0..100u64),
                        _ => now + rng.gen_range(0..100_000u64),
                    };
                    let got = if limit == u64::MAX {
                        q.pop().ok_or(None)
                    } else {
                        q.pop_before(SimTime(limit))
                    };
                    let want = match pending.first() {
                        None => Err(None),
                        Some(&(time, _)) if time > limit => Err(Some(SimTime(time))),
                        Some(_) => {
                            let (time, id) = pending.remove(0);
                            Ok((SimTime(time), id))
                        }
                    };
                    assert_eq!(got, want, "pop diverged at seed {seed}");
                    if let Ok((time, _)) = got {
                        now = now.max(time.as_micros());
                        popped += 1;
                    }
                }
                assert_eq!(q.len(), pending.len());
                assert_eq!(q.peek_time(), pending.first().map(|&(t, _)| SimTime(t)));
                assert_eq!(q.total_scheduled(), next_id);
                assert_eq!(q.total_processed(), popped);
                assert_eq!(q.peak_len(), peak);
                assert!(q.slab.len() <= peak, "slab outgrew the peak at seed {seed}");
                assert_eq!(q.slab.len() - q.free.len(), pending.len());
            }
            let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|(t, id)| (t.0, id))).collect();
            assert_eq!(rest, pending, "final drain diverged at seed {seed}");
            assert_eq!(q.total_processed(), next_id);
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
