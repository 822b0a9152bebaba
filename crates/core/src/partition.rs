//! The partition module (paper §V-A): assigning transactions to buckets.
//!
//! Each owned object maps to exactly one bucket / SB instance via the
//! `assign` function (hash of the object key modulo `m`). A transaction is
//! pushed into the bucket of every owned object it debits, so all
//! transactions spending from the same account are serialised by the same
//! instance — which is what prevents double spending without global
//! ordering.

use orthrus_types::{InstanceId, ObjectKey, SharedTx, Transaction, TxId, TxSet, TxTable};
use std::collections::VecDeque;
use std::sync::Arc;

/// The deterministic object → instance assignment function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    num_instances: u32,
}

impl Partitioner {
    /// Create the partitioner for `m` instances.
    pub fn new(num_instances: u32) -> Self {
        Self {
            num_instances: num_instances.max(1),
        }
    }

    /// Number of instances.
    pub fn num_instances(&self) -> u32 {
        self.num_instances
    }

    /// The bucket/instance responsible for an owned object: a hash of the
    /// key modulo `m`, as suggested by the paper. Hashing (rather than the
    /// raw key) spreads adjacent account addresses across instances. The
    /// routing function itself lives on [`ObjectKey::shard`] so the object
    /// store's per-instance write counters agree with the partition module
    /// about which instance owns which account.
    pub fn assign(&self, key: ObjectKey) -> InstanceId {
        InstanceId::new(key.shard(self.num_instances))
    }

    /// The set of instances a transaction is assigned to: one per distinct
    /// payer bucket. Transactions without payers (which validation rejects)
    /// fall back to instance 0 so they are still handled somewhere.
    pub fn instances_of(&self, tx: &Transaction) -> Vec<InstanceId> {
        let mut instances: Vec<InstanceId> = tx.payers().map(|key| self.assign(key)).collect();
        instances.sort_unstable();
        instances.dedup();
        if instances.is_empty() {
            instances.push(InstanceId::new(0));
        }
        instances
    }
}

/// A bucket of pending transactions for one SB instance.
///
/// Backups only append; the instance's leader pulls batches from the front.
/// Delivered transactions are removed everywhere so that a new leader (after
/// a view change) does not re-propose them.
///
/// Invariant: `known` holds exactly the ids that are queued and not yet
/// delivered, so "anything pending?" is `!known.is_empty()`. Delivery also
/// pops delivered entries off the queue front, so a backup — which never
/// pulls — sheds its queue as blocks deliver instead of keeping every
/// transaction it was ever sent.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    queue: VecDeque<SharedTx>,
    known: TxSet,
    delivered: TxSet,
}

impl Bucket {
    /// An empty bucket with no transaction table: its id sets are hashed.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty bucket whose id sets are slot-indexed by the run's
    /// transaction table.
    pub fn with_table(table: Arc<TxTable>) -> Self {
        Self {
            queue: VecDeque::new(),
            known: TxSet::new(Arc::clone(&table)),
            delivered: TxSet::new(table),
        }
    }

    /// Number of queued transactions (delivered ones behind an undelivered
    /// front entry still count until the front reaches them).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Is the bucket empty?
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Push a transaction unless it is already known (pending or delivered).
    /// Returns whether it was added. The bucket stores the shared handle the
    /// request arrived in — a multi-payer transaction queued in several
    /// buckets still exists once in memory.
    pub fn push(&mut self, tx: SharedTx) -> bool {
        if self.known.contains(tx.id) || self.delivered.contains(tx.id) {
            return false;
        }
        self.known.insert(tx.id);
        self.queue.push_back(tx);
        true
    }

    /// Pull up to `max` transactions from the front of the bucket that
    /// satisfy `valid`. Transactions that fail the predicate stay in the
    /// bucket (they may become valid later, e.g. once a credit arrives).
    pub fn pull<F: FnMut(&Transaction) -> bool>(
        &mut self,
        max: usize,
        mut valid: F,
    ) -> Vec<SharedTx> {
        let mut pulled = Vec::new();
        let mut skipped = VecDeque::new();
        while pulled.len() < max {
            let Some(tx) = self.queue.pop_front() else {
                break;
            };
            if self.delivered.contains(tx.id) {
                continue;
            }
            if valid(&tx) {
                self.known.remove(tx.id);
                pulled.push(tx);
            } else {
                skipped.push_back(tx);
            }
        }
        // Skipped transactions keep their relative order at the front.
        while let Some(tx) = skipped.pop_back() {
            self.queue.push_front(tx);
        }
        pulled
    }

    /// Mark a transaction as delivered by the instance: it will never be
    /// proposed from this bucket again. If it was queued, delivered entries
    /// are popped off the queue front; one behind an undelivered entry leaves
    /// when the front reaches it (here or in [`Bucket::pull`]).
    pub fn mark_delivered(&mut self, id: TxId) {
        self.delivered.insert(id);
        if self.known.remove(id) {
            while let Some(front) = self.queue.front() {
                if !self.delivered.contains(front.id) {
                    break;
                }
                self.queue.pop_front();
            }
        }
    }

    /// Does the bucket still hold undelivered transactions?
    pub fn has_pending(&self) -> bool {
        !self.known.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::rng::{Rng, StdRng};
    use orthrus_types::{ClientId, FxHashSet, ObjectOp};

    fn tx(client: u64, seq: u64) -> SharedTx {
        Transaction::payment(
            TxId::new(ClientId::new(client), seq),
            ClientId::new(client),
            ClientId::new(client + 1),
            1,
        )
        .into_shared()
    }

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        let p = Partitioner::new(8);
        for k in 0..1_000u64 {
            let a = p.assign(ObjectKey::new(k));
            let b = p.assign(ObjectKey::new(k));
            assert_eq!(a, b);
            assert!(a.value() < 8);
        }
    }

    #[test]
    fn assignment_spreads_keys_across_instances() {
        let p = Partitioner::new(4);
        let mut counts = [0u32; 4];
        for k in 0..4_000u64 {
            counts[p.assign(ObjectKey::new(k)).as_usize()] += 1;
        }
        for c in counts {
            assert!(c > 600, "unbalanced buckets: {counts:?}");
        }
    }

    #[test]
    fn multi_payer_transactions_map_to_multiple_instances() {
        let p = Partitioner::new(16);
        // Find two clients that land in different buckets.
        let (a, b) = (0..100u64)
            .flat_map(|x| (0..100u64).map(move |y| (x, y)))
            .find(|(x, y)| x != y && p.assign(ObjectKey::new(*x)) != p.assign(ObjectKey::new(*y)))
            .unwrap();
        let tx = Transaction::multi_payment(
            TxId::new(ClientId::new(a), 0),
            &[(ClientId::new(a), 1), (ClientId::new(b), 1)],
            &[(ClientId::new(1_000), 2)],
        );
        assert_eq!(p.instances_of(&tx).len(), 2);
        let single = Transaction::payment(
            TxId::new(ClientId::new(a), 1),
            ClientId::new(a),
            ClientId::new(b),
            1,
        );
        assert_eq!(p.instances_of(&single).len(), 1);
    }

    #[test]
    fn payee_does_not_influence_assignment() {
        let p = Partitioner::new(8);
        let t1 = Transaction::payment(
            TxId::new(ClientId::new(5), 0),
            ClientId::new(5),
            ClientId::new(6),
            1,
        );
        let t2 = Transaction::payment(
            TxId::new(ClientId::new(5), 1),
            ClientId::new(5),
            ClientId::new(7),
            1,
        );
        assert_eq!(p.instances_of(&t1), p.instances_of(&t2));
    }

    #[test]
    fn contract_without_payers_falls_back_to_instance_zero() {
        let p = Partitioner::new(8);
        let tx = Transaction::from_ops(
            TxId::new(ClientId::new(1), 0),
            vec![ObjectOp::set_shared(ObjectKey::new(999), 1)],
            vec![],
        );
        assert_eq!(p.instances_of(&tx), vec![InstanceId::new(0)]);
    }

    #[test]
    fn bucket_dedups_and_preserves_fifo() {
        let mut bucket = Bucket::new();
        assert!(bucket.push(tx(1, 0)));
        assert!(bucket.push(tx(2, 0)));
        assert!(!bucket.push(tx(1, 0)));
        assert_eq!(bucket.len(), 2);
        let pulled = bucket.pull(10, |_| true);
        assert_eq!(pulled.len(), 2);
        assert_eq!(pulled[0].id, TxId::new(ClientId::new(1), 0));
        assert!(bucket.is_empty());
    }

    #[test]
    fn pull_respects_batch_size_and_validity() {
        let mut bucket = Bucket::new();
        for i in 0..5 {
            bucket.push(tx(1, i));
        }
        // Only even sequence numbers are "valid" right now.
        let pulled = bucket.pull(10, |t| t.id.seq % 2 == 0);
        assert_eq!(pulled.len(), 3);
        assert_eq!(bucket.len(), 2);
        // The skipped ones are still there, in order.
        let rest = bucket.pull(10, |_| true);
        assert_eq!(rest[0].id.seq, 1);
        assert_eq!(rest[1].id.seq, 3);
        // Batch size limit.
        for i in 10..20 {
            bucket.push(tx(1, i));
        }
        assert_eq!(bucket.pull(4, |_| true).len(), 4);
    }

    #[test]
    fn delivered_transactions_are_not_reproposed() {
        let mut bucket = Bucket::new();
        bucket.push(tx(1, 0));
        bucket.mark_delivered(TxId::new(ClientId::new(1), 0));
        assert!(bucket.pull(10, |_| true).is_empty());
        // And cannot be re-added.
        assert!(!bucket.push(tx(1, 0)));
        assert!(!bucket.has_pending());
    }

    #[test]
    fn backup_queue_drains_on_delivery() {
        let mut bucket = Bucket::new();
        for i in 0..100 {
            bucket.push(tx(1, i));
        }
        // A backup never pulls: delivery alone must empty the queue.
        for i in 0..100 {
            bucket.mark_delivered(TxId::new(ClientId::new(1), i));
        }
        assert_eq!(bucket.len(), 0);
        assert!(!bucket.has_pending());
    }

    /// The bucket as it was before `known` meant "queued and undelivered":
    /// delivered entries stay queued until a pull reaches them and
    /// `has_pending` scans for an undelivered one. Kept as the oracle.
    #[derive(Default)]
    struct ScanBucket {
        queue: VecDeque<SharedTx>,
        delivered: FxHashSet<TxId>,
    }

    impl ScanBucket {
        fn push(&mut self, tx: SharedTx) -> bool {
            if self.queue.iter().any(|q| q.id == tx.id) || self.delivered.contains(&tx.id) {
                return false;
            }
            self.queue.push_back(tx);
            true
        }

        fn pull<F: FnMut(&Transaction) -> bool>(&mut self, max: usize, mut valid: F) -> Vec<TxId> {
            let mut pulled = Vec::new();
            let mut kept = VecDeque::new();
            while let Some(tx) = self.queue.pop_front() {
                if self.delivered.contains(&tx.id) && pulled.len() < max {
                    continue;
                }
                if pulled.len() < max && valid(&tx) {
                    pulled.push(tx.id);
                } else {
                    kept.push_back(tx);
                }
            }
            self.queue = kept;
            pulled
        }

        fn has_pending(&self) -> bool {
            self.queue.iter().any(|tx| !self.delivered.contains(&tx.id))
        }
    }

    /// Model test: random `push` / `pull(max, predicate)` / `mark_delivered`
    /// over a small id space return exactly what the scanning bucket returns,
    /// with hashed id sets and with a transaction table covering half the
    /// ids (the other half overflow).
    #[test]
    fn random_op_sequences_match_the_scanning_bucket() {
        const IDS: u64 = 12;
        let table = Arc::new(TxTable::new(&[1; IDS as usize / 2]));
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bucket = if seed % 2 == 0 {
                Bucket::new()
            } else {
                Bucket::with_table(Arc::clone(&table))
            };
            let mut model = ScanBucket::default();
            for step in 0..400 {
                let id = rng.gen_range(0..IDS);
                match rng.gen_range(0..4u32) {
                    0 | 1 => assert_eq!(
                        bucket.push(tx(id, 0)),
                        model.push(tx(id, 0)),
                        "push diverged at seed {seed} step {step}"
                    ),
                    2 => {
                        let max = [0, 1, 3, usize::MAX][rng.gen_range(0..4usize)];
                        let valid_mask = rng.gen_range(0..1u64 << IDS);
                        let valid = |t: &Transaction| valid_mask >> t.id.client.value() & 1 == 1;
                        let got: Vec<TxId> = bucket.pull(max, valid).iter().map(|t| t.id).collect();
                        assert_eq!(
                            got,
                            model.pull(max, valid),
                            "pull diverged at seed {seed} step {step}"
                        );
                    }
                    _ => {
                        let id = TxId::new(ClientId::new(id), 0);
                        bucket.mark_delivered(id);
                        model.delivered.insert(id);
                    }
                }
                assert_eq!(
                    bucket.has_pending(),
                    model.has_pending(),
                    "has_pending diverged at seed {seed} step {step}"
                );
                assert!(bucket.len() <= model.queue.len());
            }
        }
    }
}
