//! DQBFT-style global ordering: a dedicated ordering instance sequences the
//! blocks delivered by all data instances.
//!
//! In DQBFT (Arun & Ravindran, VLDB '22) replicas run many data instances
//! plus one *ordering* instance. Data instances deliver blocks; the ordering
//! instance runs consensus over the delivered block ids, and the resulting
//! decision stream *is* the global order. A block is confirmed once (a) its
//! data has been delivered by its data instance and (b) the ordering instance
//! has decided its position and every earlier decided block is confirmed.
//!
//! Confirmation therefore costs one extra consensus round on the ordering
//! instance, and the ordering instance's leader is a throughput bottleneck
//! and an attack target — which is why the paper's Fig. 3/4 show DQBFT behind
//! Orthrus/Ladon but ahead of the pre-determined protocols under stragglers.

use crate::policy::GlobalOrderingPolicy;
use orthrus_types::{BlockId, SharedBlock};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Global ordering driven by a dedicated ordering instance's decisions.
#[derive(Debug, Default, Clone)]
pub struct DqbftOrdering {
    /// Data blocks delivered but not yet confirmed, keyed by id.
    delivered: HashMap<BlockId, SharedBlock>,
    /// Decided ids waiting for their data (or for earlier decisions).
    decisions: VecDeque<BlockId>,
    /// Ids already confirmed (to drop duplicates).
    confirmed: HashSet<BlockId>,
    /// Delivered ids the ordering instance has not decided yet, keyed by
    /// their delivery mark, so whoever leads the ordering instance proposes
    /// them in delivery order.
    undecided: BTreeMap<u64, BlockId>,
    /// The delivery mark of each id in `undecided`.
    undecided_marks: HashMap<BlockId, u64>,
    /// The delivery mark the next undecided id gets.
    next_mark: u64,
}

impl DqbftOrdering {
    /// Create an empty ordering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain the front of the decision queue as long as data is available.
    fn drain(&mut self) -> Vec<SharedBlock> {
        let mut out = Vec::new();
        while let Some(next) = self.decisions.front() {
            if self.confirmed.contains(next) {
                self.decisions.pop_front();
                continue;
            }
            match self.delivered.remove(next) {
                Some(block) => {
                    self.confirmed.insert(*next);
                    self.decisions.pop_front();
                    out.push(block);
                }
                None => break,
            }
        }
        out
    }

    /// Delivered ids not decided yet, in delivery order, whose delivery
    /// mark is at least `from`.
    pub fn undecided_from(&self, from: u64) -> impl Iterator<Item = BlockId> + '_ {
        self.undecided.range(from..).map(|(_, &id)| id)
    }

    /// The delivery mark the next undecided id gets: every id listed so far
    /// has a lower one.
    pub fn next_mark(&self) -> u64 {
        self.next_mark
    }

    /// Is `id` delivered and still waiting for the ordering instance?
    pub fn is_undecided(&self, id: BlockId) -> bool {
        self.undecided_marks.contains_key(&id)
    }
}

impl GlobalOrderingPolicy for DqbftOrdering {
    fn on_deliver(&mut self, block: SharedBlock) -> Vec<SharedBlock> {
        let id = block.id();
        if self.confirmed.contains(&id) {
            return Vec::new();
        }
        if !self.decisions.contains(&id) && !self.undecided_marks.contains_key(&id) {
            self.undecided.insert(self.next_mark, id);
            self.undecided_marks.insert(id, self.next_mark);
            self.next_mark += 1;
        }
        self.delivered.entry(id).or_insert(block);
        self.drain()
    }

    fn on_order_decision(&mut self, id: BlockId) -> Vec<SharedBlock> {
        if self.confirmed.contains(&id) || self.decisions.contains(&id) {
            return Vec::new();
        }
        if let Some(mark) = self.undecided_marks.remove(&id) {
            self.undecided.remove(&mark);
        }
        self.decisions.push_back(id);
        self.drain()
    }

    fn pending(&self) -> usize {
        self.delivered.len() + self.decisions.len()
    }

    fn name(&self) -> &'static str {
        "dqbft"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::block;

    #[test]
    fn confirmation_waits_for_both_data_and_decision() {
        let mut ord = DqbftOrdering::new();
        let b = block(0, 0, 0);
        let id = b.id();
        assert!(ord.on_deliver(b).is_empty());
        assert_eq!(ord.pending(), 1);
        assert!(ord.is_undecided(id));
        let confirmed = ord.on_order_decision(id);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(ord.pending(), 0);
        assert!(ord.on_deliver(block(0, 0, 0)).is_empty());
        assert!(!ord.is_undecided(id), "a confirmed block stays decided");
    }

    #[test]
    fn decision_before_data_also_works() {
        let mut ord = DqbftOrdering::new();
        let b = block(1, 3, 0);
        let id = b.id();
        assert!(ord.on_order_decision(id).is_empty());
        let confirmed = ord.on_deliver(b);
        assert_eq!(confirmed.len(), 1);
        assert!(!ord.is_undecided(id), "decided before its data arrived");
    }

    #[test]
    fn global_order_follows_the_decision_stream() {
        let mut ord = DqbftOrdering::new();
        let a = block(0, 0, 0);
        let b = block(1, 0, 0);
        let c = block(2, 0, 0);
        // Data arrives a, b, c but the ordering instance decides c, a, b.
        assert!(ord.on_deliver(a.clone()).is_empty());
        assert!(ord.on_deliver(b.clone()).is_empty());
        assert!(ord.on_deliver(c.clone()).is_empty());
        let mut confirmed = Vec::new();
        confirmed.extend(ord.on_order_decision(c.id()));
        confirmed.extend(ord.on_order_decision(a.id()));
        confirmed.extend(ord.on_order_decision(b.id()));
        let ids: Vec<BlockId> = confirmed.iter().map(|b| b.id()).collect();
        assert_eq!(ids, vec![c.id(), a.id(), b.id()]);
    }

    #[test]
    fn undecided_ids_keep_delivery_order_and_marks() {
        let mut ord = DqbftOrdering::new();
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| block(i, 0, 0));
        for blk in [&a, &b, &c] {
            ord.on_deliver(blk.clone());
        }
        ord.on_deliver(b.clone());
        ord.on_order_decision(b.id());
        let ids: Vec<BlockId> = ord.undecided_from(0).collect();
        assert_eq!(ids, vec![a.id(), c.id()]);
        let mark = ord.next_mark();
        ord.on_deliver(d.clone());
        let ids: Vec<BlockId> = ord.undecided_from(mark).collect();
        assert_eq!(ids, vec![d.id()], "only ids delivered after the mark");
    }

    #[test]
    fn missing_data_blocks_later_decisions() {
        let mut ord = DqbftOrdering::new();
        let a = block(0, 0, 0);
        let b = block(1, 0, 0);
        // Decisions for a then b, but only b's data is available: nothing can
        // confirm until a's data arrives (FIFO discipline of the decision
        // stream).
        assert!(ord.on_order_decision(a.id()).is_empty());
        assert!(ord.on_order_decision(b.id()).is_empty());
        assert!(ord.on_deliver(b.clone()).is_empty());
        let confirmed = ord.on_deliver(a.clone());
        assert_eq!(confirmed.len(), 2);
        assert_eq!(confirmed[0].id(), a.id());
        assert_eq!(confirmed[1].id(), b.id());
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut ord = DqbftOrdering::new();
        let a = block(0, 0, 0);
        ord.on_deliver(a.clone());
        ord.on_order_decision(a.id());
        assert!(ord.on_deliver(a.clone()).is_empty());
        assert!(ord.on_order_decision(a.id()).is_empty());
        assert_eq!(ord.pending(), 0);
    }
}
