//! The replicated object store: owned accounts and shared contract records.
//!
//! Objects follow the paper's object-centric model (§III-B). Owned objects
//! hold token balances and support incremental (credit) and decremental
//! (debit) operations; shared objects hold a contract value and support
//! assignment / arithmetic updates. The store is purely local state — every
//! replica has its own copy and the protocols above keep the copies
//! consistent.
//!
//! # Sharding
//!
//! The store is split into `m` account shards plus one dedicated shard for
//! shared objects. An owned object lives in the shard selected by
//! [`ObjectKey::shard`] — the same routing function `Partitioner::assign`
//! uses to map accounts to SB instances — so the accounts instance `i`
//! serialises are exactly the objects shard `i` owns, and per-shard op
//! counters measure per-instance execution load.
//!
//! # Incremental digests
//!
//! Each shard maintains a running accumulator: the wrapping sum of the
//! digests of its entries, adjusted on every write. [`ObjectStore::digest`]
//! folds the `m + 1` accumulators instead of rescanning every object, so the
//! steady-state cost is O(m) rather than O(objects). The accumulator is
//! commutative, which makes the digest independent of the shard count — a
//! single-shard store and a 16-way sharded store holding the same objects
//! produce the same digest ([`ObjectStore::rescan_digest`] pins the
//! equivalence in tests).

use orthrus_types::{Amount, Digest, FxHashMap, ObjectKey, OrthrusError, Result, Value};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// The state of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectState {
    /// An owned account holding a balance.
    Owned {
        /// Spendable balance of the account.
        balance: Amount,
    },
    /// A shared contract record holding a value.
    Shared {
        /// Current value of the record.
        value: Value,
    },
}

impl ObjectState {
    /// Deterministic digest of one `(key, state)` entry. The formula is the
    /// per-entry digest the unsharded store used, so state fingerprints stay
    /// comparable across shard layouts.
    fn entry_digest(key: ObjectKey, state: &ObjectState) -> u64 {
        match state {
            ObjectState::Owned { balance } => Digest::of(&(key, 0u8, *balance)).0,
            ObjectState::Shared { value } => Digest::of(&(key, 1u8, *value as u64)).0,
        }
    }
}

/// One shard of the object store: a hash map plus running aggregates (digest
/// accumulator, owned-balance total, mutation count) maintained on every
/// write. Nothing reads the map in key order — every aggregate is a
/// commutative fold — so each write costs one hash probe.
#[derive(Debug, Clone, Default)]
pub(crate) struct StoreShard {
    objects: FxHashMap<ObjectKey, ObjectState>,
    /// Wrapping sum of the entry digests of everything in `objects`.
    acc: u64,
    /// Sum of the owned balances in this shard.
    owned_total: u128,
    /// Number of successful mutating operations (credit / debit / shared
    /// writes) applied to this shard — the per-shard load counter surfaced by
    /// `MeasuredPoint` to quantify shard imbalance under skewed workloads.
    ops: u64,
}

impl StoreShard {
    /// Number of objects in the shard.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Successful mutating operations applied to this shard so far.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Does the shard hold this key?
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.objects.contains_key(&key)
    }

    /// Balance of an owned account in this shard (zero if absent).
    pub fn balance(&self, key: ObjectKey) -> Amount {
        match self.objects.get(&key) {
            Some(ObjectState::Owned { balance }) => *balance,
            _ => 0,
        }
    }

    /// Value of a shared object in this shard (zero if absent).
    pub fn shared_value(&self, key: ObjectKey) -> Value {
        match self.objects.get(&key) {
            Some(ObjectState::Shared { value }) => *value,
            _ => 0,
        }
    }

    /// Move the aggregates from entry `old` to entry `new` of `key` (either
    /// may be absent).
    fn reaccount(&mut self, key: ObjectKey, old: Option<ObjectState>, new: Option<ObjectState>) {
        if let Some(old) = old {
            self.acc = self.acc.wrapping_sub(ObjectState::entry_digest(key, &old));
            if let ObjectState::Owned { balance } = old {
                self.owned_total -= u128::from(balance);
            }
        }
        if let Some(new) = new {
            self.acc = self.acc.wrapping_add(ObjectState::entry_digest(key, &new));
            if let ObjectState::Owned { balance } = new {
                self.owned_total += u128::from(balance);
            }
        }
    }

    /// Insert or replace an entry, keeping the aggregates in sync.
    fn put(&mut self, key: ObjectKey, state: ObjectState) {
        let old = self.objects.insert(key, state);
        self.reaccount(key, old, Some(state));
    }

    /// Remove an entry, keeping the aggregates in sync.
    fn remove(&mut self, key: ObjectKey) -> Option<ObjectState> {
        let old = self.objects.remove(&key)?;
        self.reaccount(key, Some(old), None);
        Some(old)
    }

    /// Replace `key`'s entry by `write(current entry)` in one probe and count
    /// the write as an op. An `Err` from `write` leaves the shard unchanged.
    fn write(
        &mut self,
        key: ObjectKey,
        write: impl FnOnce(Option<ObjectState>) -> Result<ObjectState>,
    ) -> Result<()> {
        let (old, new) = match self.objects.entry(key) {
            Entry::Occupied(mut slot) => {
                let old = *slot.get();
                let new = write(Some(old))?;
                slot.insert(new);
                (Some(old), new)
            }
            Entry::Vacant(slot) => {
                let new = write(None)?;
                slot.insert(new);
                (None, new)
            }
        };
        self.reaccount(key, old, Some(new));
        self.ops += 1;
        Ok(())
    }

    /// Wrapping sum of the entry digests, recomputed by visiting every entry.
    fn rescan_acc(&self) -> u64 {
        let mut acc = 0u64;
        // orthrus: allow(nondet-iter): a wrapping sum of entry digests is commutative — visit order cannot reach the result.
        for (key, state) in &self.objects {
            acc = acc.wrapping_add(ObjectState::entry_digest(*key, state));
        }
        acc
    }
}

fn type_mismatch(object: ObjectKey, reason: &str) -> OrthrusError {
    OrthrusError::TypeMismatch {
        object,
        reason: reason.into(),
    }
}

/// The store of all objects known to a replica: `m` account shards plus a
/// dedicated shard for shared (contract) objects.
///
/// Shards sit behind [`Arc`]s with copy-on-write mutation
/// ([`Arc::make_mut`]), so cloning the store — the basis of checkpoint
/// snapshots and crash-recovery state transfer — costs O(shards) reference
/// bumps instead of a deep copy; a shard's map is only duplicated when the
/// live store next writes to it while a snapshot is still holding the other
/// reference.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    accounts: Vec<Arc<StoreShard>>,
    shared: Arc<StoreShard>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

impl ObjectStore {
    /// An empty store with a single account shard (the unsharded layout).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with `shards` account shards (plus the shared-object
    /// shard).
    pub fn with_shards(shards: u32) -> Self {
        Self {
            accounts: (0..shards.max(1))
                .map(|_| Arc::new(StoreShard::default()))
                .collect(),
            shared: Arc::new(StoreShard::default()),
        }
    }

    /// Number of account shards.
    pub fn num_account_shards(&self) -> u32 {
        self.accounts.len() as u32
    }

    /// Re-split the store into `shards` account shards, re-routing every
    /// owned object. Digests are shard-count independent, so resharding never
    /// changes [`ObjectStore::digest`]. Used when a replica adopts a genesis
    /// store built with the default layout.
    pub fn reshard(&mut self, shards: u32) {
        let shards = shards.max(1);
        if self.accounts.len() == shards as usize {
            return;
        }
        let old = std::mem::take(&mut self.accounts);
        self.accounts = (0..shards)
            .map(|_| Arc::new(StoreShard::default()))
            .collect();
        let mut ops = 0u64;
        for shard in old {
            let shard = Arc::try_unwrap(shard).unwrap_or_else(|arc| (*arc).clone());
            ops += shard.ops;
            // orthrus: allow(nondet-iter): every entry is re-put under its own key and the aggregates are commutative sums, so re-insertion order reaches no observable value.
            for (key, state) in shard.objects {
                Arc::make_mut(&mut self.accounts[key.shard(shards) as usize]).put(key, state);
            }
        }
        // Mutation history cannot be attributed to the new layout; park it on
        // shard 0 so global op totals survive a reshard.
        Arc::make_mut(&mut self.accounts[0]).ops += ops;
    }

    #[inline]
    fn route(&self, key: ObjectKey) -> usize {
        key.shard(self.accounts.len() as u32) as usize
    }

    /// Create (or reset) an owned account with the given initial balance.
    pub fn create_account(&mut self, key: ObjectKey, balance: Amount) {
        // A key has exactly one live entry across the whole store: creating
        // it as an account evicts any shared record under the same key (the
        // unsharded store's `insert` semantics).
        Arc::make_mut(&mut self.shared).remove(key);
        let shard = self.route(key);
        Arc::make_mut(&mut self.accounts[shard]).put(key, ObjectState::Owned { balance });
    }

    /// Create (or reset) a shared object with the given initial value.
    pub fn create_shared(&mut self, key: ObjectKey, value: Value) {
        let shard = self.route(key);
        Arc::make_mut(&mut self.accounts[shard]).remove(key);
        Arc::make_mut(&mut self.shared).put(key, ObjectState::Shared { value });
    }

    /// Number of objects in the store.
    pub fn len(&self) -> usize {
        self.accounts.iter().map(|s| s.len()).sum::<usize>() + self.shared.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The balance of an owned account (zero if the account does not exist
    /// yet — accounts spring into existence on first credit).
    pub fn balance(&self, key: ObjectKey) -> Amount {
        self.accounts[self.route(key)].balance(key)
    }

    /// The value of a shared object (zero if it does not exist yet).
    pub fn shared_value(&self, key: ObjectKey) -> Value {
        self.shared.shared_value(key)
    }

    /// Does the account have at least `amount` available?
    pub fn can_debit(&self, key: ObjectKey, amount: Amount) -> bool {
        self.balance(key) >= amount
    }

    /// Credit `amount` tokens to the owned account `key`, creating it if
    /// needed.
    pub fn credit(&mut self, key: ObjectKey, amount: Amount) -> Result<()> {
        let shard = self.route(key);
        let shared = &self.shared;
        Arc::make_mut(&mut self.accounts[shard]).write(key, |old| {
            let balance = match old {
                Some(ObjectState::Owned { balance }) => balance,
                None if shared.contains(key) => {
                    return Err(type_mismatch(key, "credit applied to a shared object"))
                }
                _ => 0,
            };
            Ok(ObjectState::Owned {
                balance: balance.saturating_add(amount),
            })
        })
    }

    /// Debit `amount` tokens from the owned account `key`. Fails (leaving the
    /// store unchanged) if the balance is insufficient or the object is not
    /// an account.
    pub fn debit(&mut self, key: ObjectKey, amount: Amount) -> Result<()> {
        let shard = self.route(key);
        let shared = &self.shared;
        Arc::make_mut(&mut self.accounts[shard]).write(key, |old| match old {
            Some(ObjectState::Owned { balance }) if balance >= amount => Ok(ObjectState::Owned {
                balance: balance - amount,
            }),
            Some(ObjectState::Owned { balance }) => Err(OrthrusError::InsufficientBalance {
                object: key,
                have: balance,
                need: amount,
            }),
            None if !shared.contains(key) => Err(OrthrusError::UnknownObject(key)),
            _ => Err(type_mismatch(key, "debit applied to a shared object")),
        })
    }

    /// Assign `value` to the shared object `key`, creating it if needed.
    pub fn set_shared(&mut self, key: ObjectKey, value: Value) -> Result<()> {
        self.write_shared(key, "contract write applied to an owned account", |_| value)
    }

    /// Add `delta` to the shared object `key`, creating it if needed.
    pub fn add_shared(&mut self, key: ObjectKey, delta: Value) -> Result<()> {
        self.write_shared(
            key,
            "contract update applied to an owned account",
            |value| value.saturating_add(delta),
        )
    }

    /// Set the shared object `key` to `next(current value)`, refusing with
    /// `reason` if `key` is an owned account.
    fn write_shared(
        &mut self,
        key: ObjectKey,
        reason: &str,
        next: impl FnOnce(Value) -> Value,
    ) -> Result<()> {
        let owner = &self.accounts[self.route(key)];
        Arc::make_mut(&mut self.shared).write(key, |old| {
            let current = match old {
                Some(ObjectState::Shared { value }) => value,
                None if owner.contains(key) => return Err(type_mismatch(key, reason)),
                _ => 0,
            };
            Ok(ObjectState::Shared {
                value: next(current),
            })
        })
    }

    /// Sum of all account balances (used by conservation-of-supply checks;
    /// escrowed amounts are tracked separately by the escrow log). O(m):
    /// folds the per-shard running totals.
    pub fn total_balance(&self) -> u128 {
        self.accounts.iter().map(|s| s.owned_total).sum()
    }

    /// Deterministic digest of the full store contents, used to compare
    /// replica states (the paper's safety property: replicas in the same
    /// state have consistent values for all objects).
    ///
    /// O(m): folds the per-shard accumulators maintained on every write. The
    /// commutative accumulator makes the digest independent of the shard
    /// layout, so sharded and unsharded replicas of the same state agree.
    pub fn digest(&self) -> Digest {
        let mut acc = self.shared.acc;
        let mut len = self.shared.len() as u64;
        for shard in &self.accounts {
            acc = acc.wrapping_add(shard.acc);
            len += shard.len() as u64;
        }
        Digest::of(&(acc, len))
    }

    /// Recompute [`ObjectStore::digest`] from scratch by walking every
    /// object. Used by tests and benches to pin the incremental accumulator
    /// against a full rescan.
    pub fn rescan_digest(&self) -> Digest {
        let acc = self
            .accounts
            .iter()
            .fold(self.shared.rescan_acc(), |acc, s| {
                acc.wrapping_add(s.rescan_acc())
            });
        Digest::of(&(acc, self.len() as u64))
    }

    /// Per-shard object counts: one entry per account shard, then the
    /// shared-object shard last.
    pub fn shard_object_counts(&self) -> Vec<u64> {
        self.accounts
            .iter()
            .map(|s| s.len() as u64)
            .chain(std::iter::once(self.shared.len() as u64))
            .collect()
    }

    /// Per-shard mutation counts (successful credits/debits/shared writes):
    /// one entry per account shard, then the shared-object shard last.
    pub fn shard_op_counts(&self) -> Vec<u64> {
        self.accounts
            .iter()
            .map(|s| s.op_count())
            .chain(std::iter::once(self.shared.op_count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u64) -> ObjectKey {
        ObjectKey::new(k)
    }

    #[test]
    fn accounts_credit_and_debit() {
        let mut store = ObjectStore::new();
        store.create_account(key(1), 100);
        assert_eq!(store.balance(key(1)), 100);
        store.credit(key(1), 50).unwrap();
        assert_eq!(store.balance(key(1)), 150);
        store.debit(key(1), 120).unwrap();
        assert_eq!(store.balance(key(1)), 30);
        assert!(store.debit(key(1), 31).is_err());
        assert_eq!(store.balance(key(1)), 30);
    }

    #[test]
    fn credits_create_accounts_on_demand() {
        let mut store = ObjectStore::new();
        store.credit(key(7), 5).unwrap();
        assert_eq!(store.balance(key(7)), 5);
        assert!(store.can_debit(key(7), 5));
        assert!(!store.can_debit(key(7), 6));
    }

    #[test]
    fn debit_of_unknown_account_fails() {
        let mut store = ObjectStore::new();
        assert!(store.debit(key(9), 1).is_err());
        assert_eq!(store.balance(key(9)), 0);
    }

    #[test]
    fn overdraft_reports_insufficient_balance() {
        let mut store = ObjectStore::new();
        store.create_account(key(1), 10);
        assert_eq!(
            store.debit(key(1), 11),
            Err(OrthrusError::InsufficientBalance {
                object: key(1),
                have: 10,
                need: 11,
            })
        );
        assert_eq!(store.balance(key(1)), 10);
    }

    #[test]
    fn shared_objects() {
        let mut store = ObjectStore::new();
        store.set_shared(key(100), 42).unwrap();
        assert_eq!(store.shared_value(key(100)), 42);
        store.add_shared(key(100), -2).unwrap();
        assert_eq!(store.shared_value(key(100)), 40);
        store.add_shared(key(101), 7).unwrap();
        assert_eq!(store.shared_value(key(101)), 7);
    }

    #[test]
    fn type_mismatches_are_rejected() {
        let mut store = ObjectStore::new();
        store.create_account(key(1), 10);
        store.create_shared(key(2), 0);
        assert!(store.set_shared(key(1), 5).is_err());
        assert!(store.add_shared(key(1), 5).is_err());
        assert!(store.credit(key(2), 5).is_err());
        assert!(store.debit(key(2), 5).is_err());
    }

    #[test]
    fn type_mismatches_are_rejected_on_every_shard_layout() {
        for shards in [1u32, 4, 16] {
            let mut store = ObjectStore::with_shards(shards);
            store.create_account(key(1), 10);
            store.create_shared(key(2), 0);
            assert!(store.set_shared(key(1), 5).is_err());
            assert!(store.add_shared(key(1), 5).is_err());
            assert!(store.credit(key(2), 5).is_err());
            assert!(store.debit(key(2), 5).is_err());
        }
    }

    #[test]
    fn recreation_swaps_the_object_type() {
        let mut store = ObjectStore::with_shards(4);
        store.create_account(key(5), 10);
        store.create_shared(key(5), 3);
        assert_eq!(store.len(), 1);
        assert_eq!(store.shared_value(key(5)), 3);
        assert_eq!(store.balance(key(5)), 0);
        store.create_account(key(5), 7);
        assert_eq!(store.len(), 1);
        assert_eq!(store.balance(key(5)), 7);
        assert_eq!(store.shared_value(key(5)), 0);
        assert_eq!(store.digest(), store.rescan_digest());
    }

    #[test]
    fn digest_reflects_state() {
        let mut a = ObjectStore::new();
        let mut b = ObjectStore::new();
        a.create_account(key(1), 10);
        b.create_account(key(1), 10);
        assert_eq!(a.digest(), b.digest());
        b.credit(key(1), 1).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_is_shard_count_independent() {
        let build = |shards: u32| {
            let mut store = ObjectStore::with_shards(shards);
            for k in 0..200u64 {
                store.create_account(key(k), k * 3);
            }
            for k in 0..20u64 {
                store.create_shared(key(1_000_000 + k), k as i64 - 5);
            }
            store.debit(key(3), 4).unwrap();
            store.credit(key(7), 11).unwrap();
            store.add_shared(key(1_000_001), 9).unwrap();
            store
        };
        let one = build(1);
        let four = build(4);
        let sixteen = build(16);
        assert_eq!(one.digest(), four.digest());
        assert_eq!(four.digest(), sixteen.digest());
        assert_eq!(one.digest(), one.rescan_digest());
        assert_eq!(sixteen.digest(), sixteen.rescan_digest());
        assert_eq!(one.total_balance(), sixteen.total_balance());
    }

    #[test]
    fn reshard_preserves_contents_and_digest() {
        let mut store = ObjectStore::new();
        for k in 0..100u64 {
            store.create_account(key(k), k + 1);
        }
        store.create_shared(key(1 << 40), 12);
        let before = (store.digest(), store.total_balance(), store.len());
        store.reshard(8);
        assert_eq!(store.num_account_shards(), 8);
        assert_eq!((store.digest(), store.total_balance(), store.len()), before);
        assert_eq!(store.balance(key(42)), 43);
        assert_eq!(store.digest(), store.rescan_digest());
    }

    #[test]
    fn total_balance_ignores_shared_objects() {
        let mut store = ObjectStore::new();
        store.create_account(key(1), 10);
        store.create_account(key(2), 5);
        store.create_shared(key(3), 1_000);
        assert_eq!(store.total_balance(), 15);
    }

    #[test]
    fn shard_counters_track_objects_and_ops() {
        let mut store = ObjectStore::with_shards(4);
        for k in 0..40u64 {
            store.create_account(key(k), 100);
        }
        store.create_shared(key(1 << 30), 0);
        let objects = store.shard_object_counts();
        assert_eq!(objects.len(), 5);
        assert_eq!(objects.iter().sum::<u64>(), 41);
        assert_eq!(*objects.last().unwrap(), 1);
        // Creates are not ops; a credit and a shared write are.
        assert_eq!(store.shard_op_counts().iter().sum::<u64>(), 0);
        store.credit(key(1), 1).unwrap();
        store.add_shared(key(1 << 30), 2).unwrap();
        assert_eq!(store.shard_op_counts().iter().sum::<u64>(), 2);
        assert_eq!(*store.shard_op_counts().last().unwrap(), 1);
    }
}
