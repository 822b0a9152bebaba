//! Oracle test for the object store and the escrow log: seeded random call
//! sequences over a few colliding keys and transaction ids, checked call by
//! call against a model built on ordered maps — one `BTreeMap` of objects and
//! one of `(object, tx)` reservations, with the semantics spelled out
//! directly. Every return value is compared, and after every call so are
//! balances, shared values, digests (incremental, rescanned and the model's),
//! totals, per-account reservations, reservation membership, sizes and the
//! per-instance write counters. Copy-on-write snapshots taken mid-sequence
//! must still match the model as it was when they were taken.

#![allow(
    clippy::disallowed_methods,
    reason = "a test outside any simulation: its fixed seeds and iteration feed no digest"
)]
use orthrus_execution::{EscrowLog, ObjectState, ObjectStore};
use orthrus_types::rng::{Rng, StdRng};
use orthrus_types::{
    Amount, ClientId, Condition, Digest, ObjectKey, ObjectOp, ObjectType, OrthrusError, Result,
    Transaction, TxId, Value,
};
use std::collections::BTreeMap;

const KEYS: u64 = 6;
const TXS: u64 = 4;

fn key(k: u64) -> ObjectKey {
    ObjectKey::new(k)
}

fn txid(s: u64) -> TxId {
    TxId::new(ClientId::new(1), s)
}

fn mismatch(object: ObjectKey, reason: &str) -> OrthrusError {
    OrthrusError::TypeMismatch {
        object,
        reason: reason.into(),
    }
}

/// The reference semantics: one ordered map per structure and no running
/// aggregates, plus the write counters of `m` instances — a successful owned
/// write counts at `key.shard(m)`, a shared write in the last slot.
#[derive(Debug, Clone)]
struct Model {
    objects: BTreeMap<ObjectKey, ObjectState>,
    escrows: BTreeMap<(ObjectKey, TxId), Amount>,
    ops: Vec<u64>,
}

impl Model {
    fn new(m: u32) -> Self {
        Self {
            objects: BTreeMap::new(),
            escrows: BTreeMap::new(),
            ops: vec![0; m as usize + 1],
        }
    }

    fn count_owned_write(&mut self, key: ObjectKey) {
        let m = self.ops.len() as u32 - 1;
        self.ops[key.shard(m) as usize] += 1;
    }

    fn balance(&self, key: ObjectKey) -> Amount {
        match self.objects.get(&key) {
            Some(ObjectState::Owned { balance }) => *balance,
            _ => 0,
        }
    }

    fn shared_value(&self, key: ObjectKey) -> Value {
        match self.objects.get(&key) {
            Some(ObjectState::Shared { value }) => *value,
            _ => 0,
        }
    }

    fn credit(&mut self, key: ObjectKey, amount: Amount) -> Result<()> {
        if let Some(ObjectState::Shared { .. }) = self.objects.get(&key) {
            return Err(mismatch(key, "credit applied to a shared object"));
        }
        let balance = self.balance(key).saturating_add(amount);
        self.objects.insert(key, ObjectState::Owned { balance });
        self.count_owned_write(key);
        Ok(())
    }

    fn debit(&mut self, key: ObjectKey, amount: Amount) -> Result<()> {
        match self.objects.get(&key) {
            None => Err(OrthrusError::UnknownObject(key)),
            Some(ObjectState::Shared { .. }) => {
                Err(mismatch(key, "debit applied to a shared object"))
            }
            Some(&ObjectState::Owned { balance }) if balance < amount => {
                Err(OrthrusError::InsufficientBalance {
                    object: key,
                    have: balance,
                    need: amount,
                })
            }
            Some(&ObjectState::Owned { balance }) => {
                let balance = balance - amount;
                self.objects.insert(key, ObjectState::Owned { balance });
                self.count_owned_write(key);
                Ok(())
            }
        }
    }

    fn write_shared(&mut self, key: ObjectKey, value: Value, reason: &str) -> Result<()> {
        if let Some(ObjectState::Owned { .. }) = self.objects.get(&key) {
            return Err(mismatch(key, reason));
        }
        self.objects.insert(key, ObjectState::Shared { value });
        *self.ops.last_mut().unwrap() += 1;
        Ok(())
    }

    fn escrow(&mut self, leg: &ObjectOp, tx: TxId) -> bool {
        if !leg.is_owned_decrement() {
            return false;
        }
        if self.escrows.contains_key(&(leg.key, tx)) {
            return true;
        }
        let amount = leg.op.amount();
        let after = i128::from(self.balance(leg.key)) - i128::from(amount);
        if !leg.condition.allows_balance(after) || self.debit(leg.key, amount).is_err() {
            return false;
        }
        self.escrows.insert((leg.key, tx), amount);
        true
    }

    fn commit(&mut self, tx: &Transaction) {
        for payer in tx.payers() {
            self.escrows.remove(&(payer, tx.id));
        }
    }

    fn abort(&mut self, tx: &Transaction) {
        for payer in tx.payers() {
            if let Some(amount) = self.escrows.remove(&(payer, tx.id)) {
                // A refund to a key that has since become a shared object is
                // lost, exactly as the log's ignored credit error loses it.
                let _ = self.credit(payer, amount);
            }
        }
    }

    /// The store digest, computed from the entry formula over the ordered
    /// map — pins the incremental accumulator to the formula itself.
    fn digest(&self) -> Digest {
        let mut acc = 0u64;
        for (key, state) in &self.objects {
            let entry = match state {
                ObjectState::Owned { balance } => Digest::of(&(*key, 0u8, *balance)).0,
                ObjectState::Shared { value } => Digest::of(&(*key, 1u8, *value as u64)).0,
            };
            acc = acc.wrapping_add(entry);
        }
        Digest::of(&(acc, self.objects.len() as u64))
    }

    fn total_balance(&self) -> u128 {
        (0..KEYS).map(|k| u128::from(self.balance(key(k)))).sum()
    }

    fn reserved_for(&self, object: ObjectKey) -> Amount {
        self.escrows
            .iter()
            .filter(|((k, _), _)| *k == object)
            .map(|(_, amount)| *amount)
            .sum()
    }
}

/// Compare every observable of `store` and `elog` against `model`.
fn check(store: &ObjectStore, elog: &EscrowLog, model: &Model, at: &str) {
    assert_eq!(store.digest(), store.rescan_digest(), "rescan at {at}");
    assert_eq!(store.digest(), model.digest(), "digest at {at}");
    assert_eq!(store.len(), model.objects.len(), "len at {at}");
    assert_eq!(
        store.total_balance(),
        model.total_balance(),
        "total at {at}"
    );
    assert_eq!(store.shard_op_counts(), model.ops, "write counters at {at}");
    assert_eq!(elog.len(), model.escrows.len(), "elog len at {at}");
    assert_eq!(
        elog.is_empty(),
        model.escrows.is_empty(),
        "is_empty at {at}"
    );
    let reserved: u128 = model.escrows.values().map(|a| u128::from(*a)).sum();
    assert_eq!(elog.total_reserved(), reserved, "reserved at {at}");
    for k in 0..KEYS {
        let object = key(k);
        assert_eq!(
            store.balance(object),
            model.balance(object),
            "balance {k} at {at}"
        );
        assert_eq!(
            store.shared_value(object),
            model.shared_value(object),
            "shared value {k} at {at}"
        );
        assert_eq!(
            elog.reserved_for(object),
            model.reserved_for(object),
            "reserved_for {k} at {at}"
        );
        for s in 0..TXS {
            assert_eq!(
                elog.contains(object, txid(s)),
                model.escrows.contains_key(&(object, txid(s))),
                "contains ({k}, {s}) at {at}"
            );
        }
    }
}

/// A leg for `escrow`: mostly owned debits under the three conditions, with
/// credits and shared-typed debits mixed in (never escrowable).
fn random_leg(rng: &mut StdRng) -> ObjectOp {
    let object = key(rng.gen_range(0..KEYS));
    let amount = rng.gen_range(0..120u64);
    let mut leg = match rng.gen_range(0..8u32) {
        0 => ObjectOp::credit(object, amount),
        _ => ObjectOp::debit(object, amount),
    };
    match rng.gen_range(0..6u32) {
        0 => leg.condition = Condition::None,
        1 => leg.condition = Condition::MinBalance(25),
        2 => leg.object_type = ObjectType::Shared,
        _ => {}
    }
    leg
}

/// A transaction for `commit` / `abort`: up to three payer legs (duplicates
/// allowed) plus a credit, under a random id.
fn random_tx(rng: &mut StdRng) -> Transaction {
    let payers = rng.gen_range(0..4usize);
    let mut ops: Vec<ObjectOp> = (0..payers)
        .map(|_| ObjectOp::debit(key(rng.gen_range(0..KEYS)), rng.gen_range(0..120u64)))
        .collect();
    ops.push(ObjectOp::credit(key(rng.gen_range(0..KEYS)), 1));
    Transaction::from_ops(txid(rng.gen_range(0..TXS)), ops, Vec::new())
}

#[test]
fn random_store_and_escrow_calls_match_the_ordered_map_model() {
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = [1, 2, 5][rng.gen_range(0..3usize)];
        let mut store = ObjectStore::new();
        store.reshard(m);
        let mut elog = EscrowLog::new();
        let mut model = Model::new(m);
        let mut snapshot: Option<(ObjectStore, EscrowLog, Model)> = None;
        for step in 0..400 {
            let at = format!("seed {seed} step {step}");
            let object = key(rng.gen_range(0..KEYS));
            // Mostly small amounts; now and then one near the top of the range
            // so saturating credits and shared adds are exercised.
            let amount = if rng.gen_bool(0.03) {
                u64::MAX - rng.gen_range(0..4u64)
            } else {
                rng.gen_range(0..150u64)
            };
            let value: Value = if rng.gen_bool(0.03) {
                i64::MAX - 1
            } else {
                rng.gen_range(-50..50i64)
            };
            match rng.gen_range(0..11u32) {
                0 => {
                    store.create_account(object, amount % 500);
                    model.objects.insert(
                        object,
                        ObjectState::Owned {
                            balance: amount % 500,
                        },
                    );
                }
                1 => {
                    store.create_shared(object, value);
                    model.objects.insert(object, ObjectState::Shared { value });
                }
                2 => assert_eq!(
                    store.credit(object, amount),
                    model.credit(object, amount),
                    "credit at {at}"
                ),
                3 => assert_eq!(
                    store.debit(object, amount),
                    model.debit(object, amount),
                    "debit at {at}"
                ),
                4 => assert_eq!(
                    store.set_shared(object, value),
                    model.write_shared(object, value, "contract write applied to an owned account"),
                    "set_shared at {at}"
                ),
                5 => {
                    let next = model.shared_value(object).saturating_add(value);
                    assert_eq!(
                        store.add_shared(object, value),
                        model.write_shared(
                            object,
                            next,
                            "contract update applied to an owned account"
                        ),
                        "add_shared at {at}"
                    );
                }
                6..=8 => {
                    let leg = random_leg(&mut rng);
                    let tx = txid(rng.gen_range(0..TXS));
                    assert_eq!(
                        elog.escrow(&mut store, &leg, tx),
                        model.escrow(&leg, tx),
                        "escrow {leg:?} by {tx} at {at}"
                    );
                }
                9 => {
                    let tx = random_tx(&mut rng);
                    elog.commit(&tx);
                    model.commit(&tx);
                }
                _ => {
                    let tx = random_tx(&mut rng);
                    elog.abort(&mut store, &tx);
                    model.abort(&tx);
                }
            }
            check(&store, &elog, &model, &at);
            if rng.gen_bool(0.02) {
                snapshot = Some((store.clone(), elog.clone(), model.clone()));
            }
        }
        if let Some((store, elog, model)) = &snapshot {
            check(store, elog, model, &format!("seed {seed} snapshot"));
        }
    }
}
