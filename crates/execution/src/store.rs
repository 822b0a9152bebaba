//! The replicated object store: owned accounts and shared contract records.
//!
//! Objects follow the paper's object-centric model (§III-B). Owned objects
//! hold token balances and support incremental (credit) and decremental
//! (debit) operations; shared objects hold a contract value and support
//! assignment / arithmetic updates. The store is purely local state — every
//! replica has its own copy and the protocols above keep the copies
//! consistent.
//!
//! # Incremental digests
//!
//! The store keeps a running accumulator: the wrapping sum of the digests of
//! its entries, adjusted on every write. [`ObjectStore::digest`] hashes the
//! accumulator and the object count instead of rescanning every object, so
//! the steady-state cost is O(1) rather than O(objects)
//! ([`ObjectStore::rescan_digest`] pins the equivalence in tests).
//!
//! # Per-instance write counters
//!
//! Every successful write is also counted against the SB instance that
//! serialises it: an owned write against the instance `Partitioner::assign`
//! routes its key to, and a shared write against one last slot. The counters
//! only measure per-instance execution load; they never change where or how
//! an object is stored.

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
    /// Deterministic digest of one `(key, state)` entry.
    fn entry_digest(key: ObjectKey, state: &ObjectState) -> u64 {
        match state {
            ObjectState::Owned { balance } => Digest::of(&(key, 0u8, *balance)).0,
            ObjectState::Shared { value } => Digest::of(&(key, 1u8, *value as u64)).0,
        }
    }
}

fn type_mismatch(object: ObjectKey, reason: &str) -> OrthrusError {
    OrthrusError::TypeMismatch {
        object,
        reason: reason.into(),
    }
}

/// The store of all objects known to a replica: one hash map plus running
/// aggregates (digest accumulator, owned-balance total, per-instance write
/// counters) maintained on every write. Nothing reads the map in key order —
/// every aggregate is a commutative fold — so each write costs one hash
/// probe.
///
/// The map sits behind an [`Arc`] with copy-on-write mutation
/// ([`Arc::make_mut`]), so cloning the store — the basis of crash-recovery
/// state transfer — copies no object; the map is only duplicated when the
/// live store next writes while a snapshot still holds the other reference.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    objects: Arc<FxHashMap<ObjectKey, ObjectState>>,
    /// Wrapping sum of the entry digests of everything in `objects`.
    acc: u64,
    /// Sum of the owned balances.
    owned_total: u128,
    /// Successful mutating operations (credits / debits / shared writes) in
    /// m + 1 slots: owned writes at their key's instance, shared writes last.
    ops: Vec<u64>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self {
            objects: Arc::default(),
            acc: 0,
            owned_total: 0,
            ops: vec![0; 2],
        }
    }
}

impl ObjectStore {
    /// An empty store counting writes for a single SB instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count writes for `m` SB instances: sizes the write counters
    /// [`ObjectStore::shard_op_counts`] returns to `m + 1` zeroed slots and
    /// touches no object. Callers size a genesis store, before its first
    /// write. The name is kept for the `benchmark/` crate until ROADMAP item
    /// 2, step 0.
    pub fn reshard(&mut self, m: u32) {
        self.ops = vec![0; m.max(1) as usize + 1];
    }

    /// Make room for `additional` more objects, so populating a genesis
    /// store rehashes nothing. Touches no aggregate.
    pub fn reserve(&mut self, additional: usize) {
        Arc::make_mut(&mut self.objects).reserve(additional);
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
        let old = Arc::make_mut(&mut self.objects).insert(key, state);
        self.reaccount(key, old, Some(state));
    }

    /// Replace `key`'s entry by `write(current entry)` in one probe and count
    /// the write against its instance. An `Err` from `write` leaves the store
    /// unchanged.
    fn write(
        &mut self,
        key: ObjectKey,
        write: impl FnOnce(Option<ObjectState>) -> Result<ObjectState>,
    ) -> Result<()> {
        let (old, new) = match Arc::make_mut(&mut self.objects).entry(key) {
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
        let m = self.ops.len() - 1;
        let slot = match new {
            ObjectState::Owned { .. } => key.shard(m as u32) as usize,
            ObjectState::Shared { .. } => m,
        };
        self.ops[slot] += 1;
        Ok(())
    }

    /// Create (or reset) an owned account with the given initial balance.
    pub fn create_account(&mut self, key: ObjectKey, balance: Amount) {
        self.put(key, ObjectState::Owned { balance });
    }

    /// Create (or reset) a shared object with the given initial value.
    pub fn create_shared(&mut self, key: ObjectKey, value: Value) {
        self.put(key, ObjectState::Shared { value });
    }

    /// Number of objects in the store.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The balance of an owned account (zero if the account does not exist
    /// yet — accounts spring into existence on first credit).
    pub fn balance(&self, key: ObjectKey) -> Amount {
        match self.objects.get(&key) {
            Some(ObjectState::Owned { balance }) => *balance,
            _ => 0,
        }
    }

    /// The value of a shared object (zero if it does not exist yet).
    pub fn shared_value(&self, key: ObjectKey) -> Value {
        match self.objects.get(&key) {
            Some(ObjectState::Shared { value }) => *value,
            _ => 0,
        }
    }

    /// Credit `amount` tokens to the owned account `key`, creating it if
    /// needed.
    pub fn credit(&mut self, key: ObjectKey, amount: Amount) -> Result<()> {
        self.write(key, |old| match old {
            Some(ObjectState::Shared { .. }) => {
                Err(type_mismatch(key, "credit applied to a shared object"))
            }
            Some(ObjectState::Owned { balance }) => Ok(ObjectState::Owned {
                balance: balance.saturating_add(amount),
            }),
            None => Ok(ObjectState::Owned { balance: amount }),
        })
    }

    /// Debit `amount` tokens from the owned account `key`. Fails (leaving the
    /// store unchanged) if the balance is insufficient or the object is not
    /// an account.
    pub fn debit(&mut self, key: ObjectKey, amount: Amount) -> Result<()> {
        self.write(key, |old| match old {
            Some(ObjectState::Owned { balance }) if balance >= amount => Ok(ObjectState::Owned {
                balance: balance - amount,
            }),
            Some(ObjectState::Owned { balance }) => Err(OrthrusError::InsufficientBalance {
                object: key,
                have: balance,
                need: amount,
            }),
            None => Err(OrthrusError::UnknownObject(key)),
            Some(ObjectState::Shared { .. }) => {
                Err(type_mismatch(key, "debit applied to a shared object"))
            }
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
        self.write(key, |old| match old {
            Some(ObjectState::Owned { .. }) => Err(type_mismatch(key, reason)),
            Some(ObjectState::Shared { value }) => Ok(ObjectState::Shared { value: next(value) }),
            None => Ok(ObjectState::Shared { value: next(0) }),
        })
    }

    /// Sum of all account balances (used by conservation-of-supply checks;
    /// escrowed amounts are tracked separately by the escrow log). O(1):
    /// reads the running total.
    pub fn total_balance(&self) -> u128 {
        self.owned_total
    }

    /// Deterministic digest of the full store contents, used to compare
    /// replica states (the paper's safety property: replicas in the same
    /// state have consistent values for all objects). O(1): hashes the
    /// accumulator maintained on every write.
    pub fn digest(&self) -> Digest {
        Digest::of(&(self.acc, self.objects.len() as u64))
    }

    /// Recompute [`ObjectStore::digest`] from scratch by walking every
    /// object. Used by tests and benches to pin the incremental accumulator
    /// against a full rescan.
    #[expect(
        clippy::disallowed_methods,
        reason = "a wrapping sum of entry digests is commutative — visit order cannot reach the result"
    )]
    pub fn rescan_digest(&self) -> Digest {
        let acc = self.objects.iter().fold(0u64, |acc, (key, state)| {
            acc.wrapping_add(ObjectState::entry_digest(*key, state))
        });
        Digest::of(&(acc, self.objects.len() as u64))
    }

    /// Successful mutations (credits / debits / shared writes) per SB
    /// instance: one slot per instance in [`ObjectKey::shard`] order, then
    /// the shared-object writes last.
    pub fn shard_op_counts(&self) -> Vec<u64> {
        self.ops.clone()
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
    fn recreation_swaps_the_object_type() {
        let mut store = ObjectStore::new();
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
    fn total_balance_ignores_shared_objects() {
        let mut store = ObjectStore::new();
        store.create_account(key(1), 10);
        store.create_account(key(2), 5);
        store.create_shared(key(3), 1_000);
        assert_eq!(store.total_balance(), 15);
    }
}
