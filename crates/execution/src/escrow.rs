//! The escrow mechanism (paper §V-C, Algorithm 2).
//!
//! Orthrus uses escrow for two purposes:
//!
//! * **Atomicity of multi-payer payments** (Challenge-I): every payer leg is
//!   escrowed in its own instance; only when *all* legs have escrowed does
//!   the transaction commit, otherwise every reservation is refunded.
//! * **Non-blocking interaction with contract transactions** (Challenge-II):
//!   a pending contract transaction escrows its payers' funds immediately, so
//!   later payments by the same payer are evaluated as if the contract's
//!   debit had already happened and never wait for global ordering.
//!
//! An escrow reservation deducts the amount from the payer's spendable
//! balance and records `(object, tx) → amount` in the escrow log (`elog`).
//! Committing drops the reservation (the funds are gone for good); aborting
//! refunds it.
//!
//! # Commit and abort cost
//!
//! Commit and abort walk the transaction's payer legs and remove exactly
//! those reservations, one hash probe per leg — O(legs) instead of the
//! former O(outstanding-entries) retain scan, which matters when thousands
//! of contract escrows sit waiting for global ordering while the payment
//! fast path keeps committing.

use crate::store::ObjectStore;
use orthrus_types::{Amount, FxHashMap, ObjectKey, ObjectOp, Operation, Transaction, TxId};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// The escrow log (`elog`): outstanding reservations keyed by
/// `(object, tx)`, plus their running total. Every probe on the execution
/// path names both halves of the key, so each is one hash lookup.
///
/// Like the object store, the map sits behind an [`Arc`] with copy-on-write
/// mutation, so a snapshot clone is a reference bump.
#[derive(Debug, Clone, Default)]
pub struct EscrowLog {
    entries: Arc<FxHashMap<(ObjectKey, TxId), Amount>>,
    reserved: u128,
}

impl EscrowLog {
    /// An empty escrow log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of outstanding reservations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is `(object, tx)` currently escrowed?
    pub fn contains(&self, object: ObjectKey, tx: TxId) -> bool {
        self.entries.contains_key(&(object, tx))
    }

    /// Total amount currently reserved across all transactions (used by
    /// supply-conservation checks). O(1): reads the running total.
    pub fn total_reserved(&self) -> u128 {
        self.reserved
    }

    /// Total amount currently reserved against a specific account: a scan
    /// of the log (only tests and diagnostics ask).
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum over the matching reservations is commutative — visit order cannot reach the result"
    )]
    pub fn reserved_for(&self, object: ObjectKey) -> Amount {
        self.entries
            .iter()
            .filter(|((key, _), _)| *key == object)
            .map(|(_, amount)| amount)
            .sum()
    }

    /// Drop a reservation, returning its amount if it existed.
    fn remove(&mut self, object: ObjectKey, tx: TxId) -> Option<Amount> {
        let amount = Arc::make_mut(&mut self.entries).remove(&(object, tx))?;
        self.reserved -= u128::from(amount);
        Some(amount)
    }

    /// Attempt to escrow the owned-decrement leg `leg` of transaction `tx`
    /// (Algorithm 2, `escrow`): apply the debit speculatively; if the
    /// object's condition holds, keep the deduction and record the
    /// reservation. Returns whether the escrow succeeded. Escrowing the same
    /// `(object, tx)` pair twice is idempotent.
    pub fn escrow(&mut self, store: &mut ObjectStore, leg: &ObjectOp, tx: TxId) -> bool {
        if !leg.is_owned_decrement() {
            return false;
        }
        let slot = match Arc::make_mut(&mut self.entries).entry((leg.key, tx)) {
            Entry::Occupied(_) => return true,
            Entry::Vacant(slot) => slot,
        };
        let amount = match leg.op {
            Operation::Debit(a) => a,
            _ => return false,
        };
        let balance_after = i128::from(store.balance(leg.key)) - i128::from(amount);
        if !leg.condition.allows_balance(balance_after) {
            return false;
        }
        if store.debit(leg.key, amount).is_err() {
            return false;
        }
        slot.insert(amount);
        self.reserved += u128::from(amount);
        true
    }

    /// Algorithm 2, `allEscrowed`: have all owned-decrement legs of `tx` been
    /// escrowed?
    pub fn all_escrowed(&self, tx: &Transaction) -> bool {
        tx.ops
            .iter()
            .filter(|leg| leg.is_owned_decrement())
            .all(|leg| self.contains(leg.key, tx.id))
    }

    /// Algorithm 2, `commitEscrow`: drop every reservation of `tx`. The
    /// deducted funds become permanently spent. Reservations of a
    /// transaction exist only under its own payer-leg keys, so walking the
    /// legs removes exactly the reservations the old full-log retain did.
    pub fn commit(&mut self, tx: &Transaction) {
        for leg in tx.ops.iter().filter(|leg| leg.is_owned_decrement()) {
            self.remove(leg.key, tx.id);
        }
    }

    /// Algorithm 2, `abortEscrow`: refund and drop every reservation of `tx`.
    pub fn abort(&mut self, store: &mut ObjectStore, tx: &Transaction) {
        for leg in tx.ops.iter().filter(|leg| leg.is_owned_decrement()) {
            if let Some(amount) = self.remove(leg.key, tx.id) {
                // Refunding cannot fail: the account existed when the escrow
                // was taken and credits never fail on owned objects.
                let _ = store.credit(leg.key, amount);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::{ClientId, Transaction, TxId};

    fn key(k: u64) -> ObjectKey {
        ObjectKey::new(k)
    }
    fn txid(i: u64) -> TxId {
        TxId::new(ClientId::new(1), i)
    }

    fn setup() -> (ObjectStore, EscrowLog) {
        let mut store = ObjectStore::new();
        store.create_account(key(1), 100);
        store.create_account(key(2), 50);
        (store, EscrowLog::new())
    }

    #[test]
    fn successful_escrow_reserves_funds() {
        let (mut store, mut elog) = setup();
        let leg = ObjectOp::debit(key(1), 30);
        assert!(elog.escrow(&mut store, &leg, txid(0)));
        assert_eq!(store.balance(key(1)), 70);
        assert!(elog.contains(key(1), txid(0)));
        assert_eq!(elog.reserved_for(key(1)), 30);
        assert_eq!(elog.total_reserved(), 30);
    }

    #[test]
    fn escrow_is_idempotent_per_object_and_tx() {
        let (mut store, mut elog) = setup();
        let leg = ObjectOp::debit(key(1), 30);
        assert!(elog.escrow(&mut store, &leg, txid(0)));
        assert!(elog.escrow(&mut store, &leg, txid(0)));
        assert_eq!(store.balance(key(1)), 70);
        assert_eq!(elog.len(), 1);
    }

    #[test]
    fn insufficient_balance_fails_and_leaves_state_untouched() {
        let (mut store, mut elog) = setup();
        let leg = ObjectOp::debit(key(2), 51);
        assert!(!elog.escrow(&mut store, &leg, txid(0)));
        assert_eq!(store.balance(key(2)), 50);
        assert!(elog.is_empty());
    }

    #[test]
    fn non_decrement_legs_cannot_be_escrowed() {
        let (mut store, mut elog) = setup();
        assert!(!elog.escrow(&mut store, &ObjectOp::credit(key(1), 5), txid(0)));
        assert!(!elog.escrow(&mut store, &ObjectOp::set_shared(key(9), 1), txid(0)));
        assert!(elog.is_empty());
    }

    #[test]
    fn commit_consumes_the_reservation() {
        let (mut store, mut elog) = setup();
        let tx = Transaction::payment(txid(0), ClientId::new(1), ClientId::new(2), 30);
        let leg = ObjectOp::debit(key(1), 30);
        elog.escrow(&mut store, &leg, tx.id);
        assert!(elog.all_escrowed(&tx));
        elog.commit(&tx);
        assert!(elog.is_empty());
        assert_eq!(elog.total_reserved(), 0);
        // Funds stay deducted after a commit.
        assert_eq!(store.balance(key(1)), 70);
    }

    #[test]
    fn abort_refunds_every_leg() {
        let (mut store, mut elog) = setup();
        let tx = Transaction::multi_payment(
            txid(0),
            &[(ClientId::new(1), 10), (ClientId::new(2), 20)],
            &[(ClientId::new(3), 30)],
        );
        for leg in tx.ops.iter().filter(|l| l.is_owned_decrement()) {
            assert!(elog.escrow(&mut store, leg, tx.id));
        }
        assert!(elog.all_escrowed(&tx));
        elog.abort(&mut store, &tx);
        assert!(elog.is_empty());
        assert_eq!(store.balance(key(1)), 100);
        assert_eq!(store.balance(key(2)), 50);
    }

    #[test]
    fn all_escrowed_detects_missing_legs() {
        let (mut store, mut elog) = setup();
        let tx = Transaction::multi_payment(
            txid(0),
            &[(ClientId::new(1), 10), (ClientId::new(2), 20)],
            &[(ClientId::new(3), 30)],
        );
        let first_leg = tx.ops.iter().find(|l| l.is_owned_decrement()).unwrap();
        elog.escrow(&mut store, first_leg, tx.id);
        assert!(!elog.all_escrowed(&tx));
    }

    /// Conservation of supply: spendable balances plus escrow reservations
    /// stay constant under any sequence of escrow / abort operations, and
    /// only decrease by committed amounts after commits. (Seeded-loop
    /// replacement for the former property-based test.)
    #[test]
    fn supply_is_conserved_under_random_escrow_sequences() {
        use orthrus_types::rng::{Rng, StdRng};
        for seed in 0u64..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ObjectStore::new();
            store.create_account(key(1), 500);
            store.create_account(key(2), 500);
            let mut elog = EscrowLog::new();
            let initial: u128 = 1_000;
            let mut committed: u128 = 0;
            let mut live_txs: Vec<Transaction> = Vec::new();

            let steps = rng.gen_range(1usize..60);
            for i in 0..steps {
                let action: u64 = rng.gen_range(0..3);
                let account: u64 = rng.gen_range(1..3);
                let amount: u64 = rng.gen_range(1..60);
                match action {
                    0 => {
                        // Escrow a fresh single-payer payment.
                        let payer = ClientId::new(account);
                        let tx =
                            Transaction::payment(txid(i as u64), payer, ClientId::new(3), amount);
                        let leg = ObjectOp::debit(ObjectKey::account_of(payer), amount);
                        if elog.escrow(&mut store, &leg, tx.id) {
                            live_txs.push(tx);
                        }
                    }
                    1 => {
                        // Abort the oldest live transaction.
                        if !live_txs.is_empty() {
                            let tx = live_txs.remove(0);
                            elog.abort(&mut store, &tx);
                        }
                    }
                    _ => {
                        // Commit the oldest live transaction (without applying
                        // payee credits, to isolate the escrow accounting).
                        if !live_txs.is_empty() {
                            let tx = live_txs.remove(0);
                            committed += u128::from(tx.total_debit());
                            elog.commit(&tx);
                        }
                    }
                }
                let held = store.total_balance() + elog.total_reserved();
                assert_eq!(held + committed, initial, "seed {seed} step {i}");
            }
        }
    }
}
