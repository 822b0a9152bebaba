//! The execution module (paper §V-C, Algorithm 1 lines 20–41).
//!
//! The executor consumes transactions from two sources:
//!
//! * **Partial logs** — [`Executor::process_plog_tx`] implements the
//!   "execute transactions in plog" rule: escrow every owned-decrement leg
//!   assigned to the current instance; abort the transaction if any escrow
//!   fails; and, for *payment* transactions whose legs are all escrowed,
//!   commit the escrows and apply the payee credits immediately (the fast
//!   path that never waits for global ordering).
//! * **The global log** — [`Executor::process_glog_tx`] implements the
//!   "execute transactions in glog" rule: contract transactions are executed
//!   at their *last* occurrence in the global log (a multi-payer contract
//!   appears once per involved instance); execution succeeds iff every payer
//!   leg is escrowed, in which case the shared-object operations are applied
//!   and the escrows committed, otherwise every escrow is refunded.

use crate::escrow::EscrowLog;
use crate::store::ObjectStore;
use orthrus_types::{
    InstanceId, ObjectKey, Operation, SharedBlock, Transaction, TxId, TxMap, TxTable,
};
use std::sync::Arc;

/// Final outcome of a transaction at this replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxOutcome {
    /// The transaction executed successfully.
    Committed,
    /// The transaction was aborted (an escrow failed / contract execution
    /// failed). Aborted transactions still count as confirmed towards the
    /// client (the paper confirms both successful and unsuccessful
    /// executions).
    Aborted,
}

/// The execution engine of one replica.
///
/// `Clone` exists for crash-recovery state transfer and copies no map: the
/// store map, the escrow map and the per-transaction tables all sit behind
/// [`Arc`]s with copy-on-write mutation, so a snapshot is a consistent copy
/// of exactly what this replica has executed, taken by bumping reference
/// counts — the live executor only duplicates a map when it next writes to
/// it while a snapshot still holds the other reference.
#[derive(Debug, Default, Clone)]
pub struct Executor {
    store: ObjectStore,
    elog: EscrowLog,
    outcomes: Arc<TxMap<TxOutcome>>,
    /// Number of glog occurrences of a transaction seen so far (a
    /// transaction assigned to k instances appears k times in the glog and is
    /// executed only at its last occurrence; k is at most the `u32` number
    /// of instances).
    glog_occurrences: Arc<TxMap<u32>>,
    committed_count: u64,
    aborted_count: u64,
}

impl Executor {
    /// Create an executor over an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an executor over a pre-populated store (genesis balances),
    /// with no transaction table: per-transaction state is hashed.
    pub fn with_store(store: ObjectStore) -> Self {
        Self {
            store,
            ..Self::default()
        }
    }

    /// Create an executor over a pre-populated store whose per-transaction
    /// state is slot-indexed by the run's transaction table.
    pub fn with_store_and_table(store: ObjectStore, table: Arc<TxTable>) -> Self {
        Self {
            store,
            outcomes: Arc::new(TxMap::new(Arc::clone(&table))),
            glog_occurrences: Arc::new(TxMap::new(table)),
            ..Self::default()
        }
    }

    /// Read access to the object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Mutable access to the store (genesis setup).
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }

    /// Read access to the escrow log.
    pub fn escrow_log(&self) -> &EscrowLog {
        &self.elog
    }

    /// Outcome recorded for `tx`, if it was confirmed at this replica.
    pub fn outcome(&self, tx: TxId) -> Option<TxOutcome> {
        self.outcomes.get(tx).copied()
    }

    /// Number of committed transactions.
    pub fn committed_count(&self) -> u64 {
        self.committed_count
    }

    /// Number of aborted transactions.
    pub fn aborted_count(&self) -> u64 {
        self.aborted_count
    }

    /// Can the leader include `tx` in a block right now? True when every
    /// owned-decrement leg could be escrowed against the current spendable
    /// balances. Leaders use this to only propose transactions that are valid
    /// under the state `S` they reference, which is what makes escrow at the
    /// backups deterministic (§V-B "Broadcast transactions").
    pub fn speculative_valid(&self, tx: &Transaction) -> bool {
        // Aggregate per payer so a transaction debiting the same account
        // twice is checked against the sum (legs are few: summing them per
        // leg beats allocating a map per call).
        let debits = || tx.ops.iter().filter(|l| l.is_owned_decrement());
        debits().all(|leg| {
            let needed: u128 = debits()
                .filter(|other| other.key == leg.key)
                .map(|other| u128::from(other.op.amount()))
                .sum();
            u128::from(self.store.balance(leg.key)) >= needed
        })
    }

    fn record(&mut self, tx: TxId, outcome: TxOutcome) -> TxOutcome {
        if Arc::make_mut(&mut self.outcomes)
            .insert(tx, outcome)
            .is_none()
        {
            match outcome {
                TxOutcome::Committed => self.committed_count += 1,
                TxOutcome::Aborted => self.aborted_count += 1,
            }
        }
        outcome
    }

    /// Apply the payee credits of a payment transaction.
    fn apply_credits(&mut self, tx: &Transaction) {
        for leg in tx.ops.iter().filter(|l| l.is_owned_increment()) {
            let _ = self.store.credit(leg.key, leg.op.amount());
        }
    }

    /// Apply the shared-object operations of a contract transaction.
    fn apply_contract_ops(&mut self, tx: &Transaction) {
        for leg in tx.ops.iter().filter(|l| l.is_shared()) {
            let result = match leg.op {
                Operation::Set(v) => self.store.set_shared(leg.key, v),
                Operation::Add(v) => self.store.add_shared(leg.key, v),
                Operation::Read => Ok(()),
                // Payment operations never target shared objects; transaction
                // validation rejects such legs before they reach execution.
                Operation::Credit(_) | Operation::Debit(_) => Ok(()),
            };
            debug_assert!(result.is_ok(), "contract op failed: {result:?}");
        }
    }

    /// Process transaction `tx` as it becomes first-pending in the partial
    /// log of `instance`. `assign` maps a payer key to the instance
    /// responsible for it (the partition function of §V-A).
    ///
    /// Returns the outcome if the transaction was confirmed (committed or
    /// aborted) by this call, or `None` if it is still waiting (for escrows
    /// in other instances, or for global ordering in the case of contract
    /// transactions).
    pub fn process_plog_tx(
        &mut self,
        tx: &Transaction,
        instance: InstanceId,
        assign: &dyn Fn(ObjectKey) -> InstanceId,
    ) -> Option<TxOutcome> {
        if let Some(existing) = self.outcomes.get(tx.id) {
            return Some(*existing);
        }
        // Escrow every owned-decrement leg that belongs to this instance
        // (Algorithm 1 lines 22–23).
        for leg in tx
            .ops
            .iter()
            .filter(|leg| leg.is_owned_decrement() && assign(leg.key) == instance)
        {
            if !self.elog.escrow(&mut self.store, leg, tx.id) {
                // Lines 24–26: abort the whole transaction, refunding every
                // escrow already taken (possibly in other instances).
                self.elog.abort(&mut self.store, tx);
                return Some(self.record(tx.id, TxOutcome::Aborted));
            }
        }
        // Lines 27–30: payment transactions commit as soon as every payer leg
        // (across all instances) has been escrowed.
        if tx.is_payment() && self.elog.all_escrowed(tx) {
            self.elog.commit(tx);
            self.apply_credits(tx);
            return Some(self.record(tx.id, TxOutcome::Committed));
        }
        None
    }

    /// Execute a batch of partial-log blocks — the schedule
    /// `PartialLogs::drain_ready` produces — in order, one
    /// [`Executor::process_plog_tx`] call per transaction occurrence, and
    /// return `(tx, outcome)` for every occurrence in schedule order.
    pub fn process_plog_schedule(
        &mut self,
        schedule: &[(InstanceId, SharedBlock)],
        assign: &dyn Fn(ObjectKey) -> InstanceId,
    ) -> Vec<(TxId, Option<TxOutcome>)> {
        let mut outcomes = Vec::new();
        for (instance, block) in schedule {
            for tx in &block.txs {
                outcomes.push((tx.id, self.process_plog_tx(tx, *instance, assign)));
            }
        }
        outcomes
    }

    /// Compile shim for the frozen `benchmark/` crate, whose `replay.rs`
    /// reads an abort rate from this entry point of the deleted optimistic
    /// engine. It runs [`Executor::process_plog_schedule`] — the walk the
    /// replica runs — ignores `threads`, and reports zero re-executions.
    /// Goes away with the `benchmark/` unfreeze (ROADMAP item 2, step 0).
    #[doc(hidden)]
    pub fn process_plog_schedule_stm_with_stats(
        &mut self,
        schedule: &[(InstanceId, SharedBlock)],
        assign: &dyn Fn(ObjectKey) -> InstanceId,
        _threads: usize,
    ) -> (Vec<(TxId, Option<TxOutcome>)>, NoReexecutions) {
        (self.process_plog_schedule(schedule, assign), NoReexecutions)
    }

    /// Process transaction `tx` as it becomes first-pending in the global
    /// log. `assign` is the partition function (used to count how many
    /// occurrences of the transaction the global log will contain).
    ///
    /// Returns the outcome if this was the transaction's last occurrence and
    /// it was executed (committed or aborted); `None` if this occurrence was
    /// skipped (not the last one, or the transaction is a payment already
    /// confirmed on the fast path).
    pub fn process_glog_tx(
        &mut self,
        tx: &Transaction,
        assign: &dyn Fn(ObjectKey) -> InstanceId,
    ) -> Option<TxOutcome> {
        if let Some(existing) = self.outcomes.get(tx.id) {
            // Already confirmed (payments on the fast path, or an earlier
            // abort). Nothing to do at this position.
            return Some(*existing);
        }
        if tx.is_payment() {
            // Payments never require global ordering; they are handled
            // entirely by the plog path.
            return None;
        }
        // Count occurrences: a contract transaction appears once per distinct
        // instance among its payers (Algorithm 1 lines 34, 40–41).
        let expected = tx
            .payers()
            .enumerate()
            .filter(|&(i, payer)| {
                let instance = assign(payer);
                !tx.payers()
                    .take(i)
                    .any(|earlier| assign(earlier) == instance)
            })
            .count();
        // A transaction in one instance has one occurrence: nothing to count.
        if expected > 1 {
            let occurrences = Arc::make_mut(&mut self.glog_occurrences);
            let seen = occurrences.get_or_insert_with(tx.id, || 0);
            *seen += 1;
            if (*seen as usize) < expected {
                return None;
            }
            occurrences.remove(tx.id);
        }

        // Last occurrence: execute (lines 35–39).
        if self.elog.all_escrowed(tx) {
            self.apply_contract_ops(tx);
            self.apply_credits(tx);
            self.elog.commit(tx);
            Some(self.record(tx.id, TxOutcome::Committed))
        } else {
            self.elog.abort(&mut self.store, tx);
            Some(self.record(tx.id, TxOutcome::Aborted))
        }
    }

    /// Execute `tx` in one shot, as the baseline protocols (ISS, Mir-BFT,
    /// RCC, DQBFT, Ladon) do once the transaction's block reaches its
    /// position in the global log: escrow every payer leg, and either commit
    /// (applying credits and contract operations) or abort and refund.
    /// Re-processing a confirmed transaction (e.g. a multi-payer transaction
    /// appearing in several globally ordered blocks) is idempotent.
    pub fn process_sequential_tx(&mut self, tx: &Transaction) -> TxOutcome {
        if let Some(existing) = self.outcomes.get(tx.id) {
            return *existing;
        }
        for leg in tx.ops.iter().filter(|leg| leg.is_owned_decrement()) {
            if !self.elog.escrow(&mut self.store, leg, tx.id) {
                self.elog.abort(&mut self.store, tx);
                return self.record(tx.id, TxOutcome::Aborted);
            }
        }
        self.elog.commit(tx);
        self.apply_credits(tx);
        if tx.is_contract() {
            self.apply_contract_ops(tx);
        }
        self.record(tx.id, TxOutcome::Committed)
    }

    /// Deterministic digest of the executed state (object store only; the
    /// escrow log is transient). Two honest replicas that confirmed the same
    /// transactions must produce equal digests (Theorem 1).
    pub fn state_digest(&self) -> orthrus_types::Digest {
        self.store.digest()
    }

    /// Total supply held in spendable balances plus escrow reservations.
    pub fn total_supply(&self) -> u128 {
        self.store.total_balance() + self.elog.total_reserved()
    }
}

/// The statistics [`Executor::process_plog_schedule_stm_with_stats`]
/// returns: the serial walk never re-executes an occurrence.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoReexecutions;

impl NoReexecutions {
    /// Fraction of occurrences re-executed: always zero.
    pub fn abort_rate(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::{ClientId, ObjectOp};

    fn txid(i: u64) -> TxId {
        TxId::new(ClientId::new(99), i)
    }

    /// Partition function used by tests: account key modulo `m`.
    fn assign_mod(m: u32) -> impl Fn(ObjectKey) -> InstanceId {
        move |key: ObjectKey| InstanceId::new((key.value() % u64::from(m)) as u32)
    }

    fn executor_with_accounts(accounts: &[(u64, u64)]) -> Executor {
        let mut store = ObjectStore::new();
        for (key, balance) in accounts {
            store.create_account(ObjectKey::new(*key), *balance);
        }
        Executor::with_store(store)
    }

    #[test]
    fn single_payer_payment_commits_on_fast_path() {
        let mut exec = executor_with_accounts(&[(1, 100), (2, 0)]);
        let assign = assign_mod(4);
        let tx = Transaction::payment(txid(0), ClientId::new(1), ClientId::new(2), 40);
        let outcome = exec.process_plog_tx(&tx, InstanceId::new(1), &assign);
        assert_eq!(outcome, Some(TxOutcome::Committed));
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 60);
        assert_eq!(exec.store().balance(ObjectKey::new(2)), 40);
        assert!(exec.escrow_log().is_empty());
        assert_eq!(exec.committed_count(), 1);
    }

    #[test]
    fn insufficient_funds_aborts() {
        let mut exec = executor_with_accounts(&[(1, 10), (2, 0)]);
        let assign = assign_mod(4);
        let tx = Transaction::payment(txid(0), ClientId::new(1), ClientId::new(2), 40);
        let outcome = exec.process_plog_tx(&tx, InstanceId::new(1), &assign);
        assert_eq!(outcome, Some(TxOutcome::Aborted));
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 10);
        assert_eq!(exec.store().balance(ObjectKey::new(2)), 0);
        assert_eq!(exec.aborted_count(), 1);
    }

    #[test]
    fn multi_payer_payment_waits_for_both_instances_then_commits() {
        // Payers 1 and 2 live in different instances (mod 4); payee is 3.
        let mut exec = executor_with_accounts(&[(1, 10), (2, 10), (3, 0)]);
        let assign = assign_mod(4);
        let tx = Transaction::multi_payment(
            txid(0),
            &[(ClientId::new(1), 4), (ClientId::new(2), 6)],
            &[(ClientId::new(3), 10)],
        );
        // Instance 1 processes its leg first: escrow taken, no commit yet.
        assert_eq!(exec.process_plog_tx(&tx, InstanceId::new(1), &assign), None);
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 6);
        assert_eq!(exec.escrow_log().len(), 1);
        assert_eq!(exec.store().balance(ObjectKey::new(3)), 0);
        // Instance 2 processes its leg: everything escrowed, commit.
        assert_eq!(
            exec.process_plog_tx(&tx, InstanceId::new(2), &assign),
            Some(TxOutcome::Committed)
        );
        assert_eq!(exec.store().balance(ObjectKey::new(2)), 4);
        assert_eq!(exec.store().balance(ObjectKey::new(3)), 10);
        assert!(exec.escrow_log().is_empty());
    }

    #[test]
    fn multi_payer_abort_refunds_the_other_payer() {
        let mut exec = executor_with_accounts(&[(1, 10), (2, 3), (3, 0)]);
        let assign = assign_mod(4);
        let tx = Transaction::multi_payment(
            txid(0),
            &[(ClientId::new(1), 4), (ClientId::new(2), 6)],
            &[(ClientId::new(3), 10)],
        );
        assert_eq!(exec.process_plog_tx(&tx, InstanceId::new(1), &assign), None);
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 6);
        // Payer 2 cannot cover its leg: the whole transaction aborts and
        // payer 1 gets its escrow back.
        assert_eq!(
            exec.process_plog_tx(&tx, InstanceId::new(2), &assign),
            Some(TxOutcome::Aborted)
        );
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 10);
        assert_eq!(exec.store().balance(ObjectKey::new(2)), 3);
        assert_eq!(exec.store().balance(ObjectKey::new(3)), 0);
        assert!(exec.escrow_log().is_empty());
    }

    #[test]
    fn contract_transaction_escrows_in_plog_and_executes_in_glog() {
        let mut exec = executor_with_accounts(&[(1, 10), (2, 10)]);
        let assign = assign_mod(4);
        let tx = Transaction::contract(
            txid(0),
            &[(ClientId::new(1), 1), (ClientId::new(2), 1)],
            vec![ObjectOp::set_shared(ObjectKey::new(100), 7)],
        );
        // plog processing escrows but does not confirm contract transactions.
        assert_eq!(exec.process_plog_tx(&tx, InstanceId::new(1), &assign), None);
        assert_eq!(exec.process_plog_tx(&tx, InstanceId::new(2), &assign), None);
        assert_eq!(exec.escrow_log().len(), 2);
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 9);

        // glog: first occurrence skipped, second (last) executes.
        assert_eq!(exec.process_glog_tx(&tx, &assign), None);
        assert_eq!(
            exec.process_glog_tx(&tx, &assign),
            Some(TxOutcome::Committed)
        );
        assert_eq!(exec.store().shared_value(ObjectKey::new(100)), 7);
        assert!(exec.escrow_log().is_empty());
    }

    #[test]
    fn contract_with_failed_escrow_aborts_in_glog_and_refunds() {
        let mut exec = executor_with_accounts(&[(1, 10), (2, 0)]);
        let assign = assign_mod(4);
        let tx = Transaction::contract(
            txid(0),
            &[(ClientId::new(1), 1), (ClientId::new(2), 1)],
            vec![ObjectOp::set_shared(ObjectKey::new(100), 7)],
        );
        // Payer 1's escrow succeeds; payer 2's fails, aborting the whole
        // transaction already at plog time.
        assert_eq!(exec.process_plog_tx(&tx, InstanceId::new(1), &assign), None);
        assert_eq!(
            exec.process_plog_tx(&tx, InstanceId::new(2), &assign),
            Some(TxOutcome::Aborted)
        );
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 10);
        // Later glog occurrences observe the existing outcome and change
        // nothing.
        assert_eq!(exec.process_glog_tx(&tx, &assign), Some(TxOutcome::Aborted));
        assert_eq!(exec.store().shared_value(ObjectKey::new(100)), 0);
        assert_eq!(exec.aborted_count(), 1);
    }

    #[test]
    fn pending_contract_does_not_block_later_payment_by_same_payer() {
        // Challenge-II: a contract escrow on payer 1 must not delay a later
        // payment by payer 1 (it is evaluated as if the contract's debit had
        // already executed).
        let mut exec = executor_with_accounts(&[(1, 10), (2, 0)]);
        let assign = assign_mod(4);
        let contract = Transaction::contract(
            txid(0),
            &[(ClientId::new(1), 4)],
            vec![ObjectOp::set_shared(ObjectKey::new(100), 1)],
        );
        assert_eq!(
            exec.process_plog_tx(&contract, InstanceId::new(1), &assign),
            None
        );
        // The payment is processed immediately, against the post-escrow
        // balance of 6.
        let payment = Transaction::payment(txid(1), ClientId::new(1), ClientId::new(2), 6);
        assert_eq!(
            exec.process_plog_tx(&payment, InstanceId::new(1), &assign),
            Some(TxOutcome::Committed)
        );
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 0);
        assert_eq!(exec.store().balance(ObjectKey::new(2)), 6);
        // The contract still commits later from the glog.
        assert_eq!(
            exec.process_glog_tx(&contract, &assign),
            Some(TxOutcome::Committed)
        );
        assert_eq!(exec.store().shared_value(ObjectKey::new(100)), 1);
    }

    #[test]
    fn sequential_execution_matches_baseline_semantics() {
        let mut exec = executor_with_accounts(&[(1, 10), (2, 10), (3, 0)]);
        // A committed payment.
        let pay = Transaction::payment(txid(0), ClientId::new(1), ClientId::new(3), 4);
        assert_eq!(exec.process_sequential_tx(&pay), TxOutcome::Committed);
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 6);
        assert_eq!(exec.store().balance(ObjectKey::new(3)), 4);
        // An aborted payment (insufficient funds) leaves state untouched.
        let broke = Transaction::payment(txid(1), ClientId::new(2), ClientId::new(3), 11);
        assert_eq!(exec.process_sequential_tx(&broke), TxOutcome::Aborted);
        assert_eq!(exec.store().balance(ObjectKey::new(2)), 10);
        // A contract applies its shared-object operations.
        let contract = Transaction::contract(
            txid(2),
            &[(ClientId::new(2), 1)],
            vec![ObjectOp::add_shared(ObjectKey::new(200), 5)],
        );
        assert_eq!(exec.process_sequential_tx(&contract), TxOutcome::Committed);
        assert_eq!(exec.store().shared_value(ObjectKey::new(200)), 5);
        // Re-processing is idempotent.
        assert_eq!(exec.process_sequential_tx(&pay), TxOutcome::Committed);
        assert_eq!(exec.store().balance(ObjectKey::new(3)), 4);
        assert!(exec.escrow_log().is_empty());
    }

    #[test]
    fn speculative_validity_aggregates_per_payer() {
        let exec = executor_with_accounts(&[(1, 10)]);
        let ok = Transaction::payment(txid(0), ClientId::new(1), ClientId::new(2), 10);
        assert!(exec.speculative_valid(&ok));
        let too_much = Transaction::payment(txid(1), ClientId::new(1), ClientId::new(2), 11);
        assert!(!exec.speculative_valid(&too_much));
        // Two legs of 6 from the same payer exceed the balance of 10 even
        // though each individually fits.
        let double = Transaction::multi_payment(
            txid(2),
            &[(ClientId::new(1), 6), (ClientId::new(1), 6)],
            &[(ClientId::new(2), 12)],
        );
        assert!(!exec.speculative_valid(&double));
    }

    #[test]
    fn speculative_validity_ignores_escrowed_funds() {
        // An escrow reduces the spendable balance immediately, so the
        // leader's validity check naturally reflects pending contracts
        // (Challenge-II: later payments see the post-escrow balance).
        let mut exec = executor_with_accounts(&[(1, 10)]);
        let assign = assign_mod(4);
        let contract = Transaction::contract(
            txid(0),
            &[(ClientId::new(1), 7)],
            vec![ObjectOp::set_shared(ObjectKey::new(100), 1)],
        );
        assert_eq!(
            exec.process_plog_tx(&contract, InstanceId::new(1), &assign),
            None
        );
        // 3 tokens remain spendable: a 3-token payment is valid, 4 is not.
        let fits = Transaction::payment(txid(1), ClientId::new(1), ClientId::new(2), 3);
        let too_much = Transaction::payment(txid(2), ClientId::new(1), ClientId::new(2), 4);
        assert!(exec.speculative_valid(&fits));
        assert!(!exec.speculative_valid(&too_much));
    }

    #[test]
    fn speculative_validity_of_unknown_account_is_false_unless_free() {
        let exec = executor_with_accounts(&[(1, 10)]);
        // Account 99 does not exist: any debit is invalid…
        let ghost = Transaction::payment(txid(0), ClientId::new(99), ClientId::new(1), 1);
        assert!(!exec.speculative_valid(&ghost));
        // …but a transaction debiting nothing passes trivially.
        let free = Transaction::multi_payment(txid(1), &[], &[(ClientId::new(1), 0)]);
        assert!(exec.speculative_valid(&free));
    }

    #[test]
    fn double_debit_of_same_account_escrows_the_sum_once() {
        // `multi_payment` aggregates duplicate payer entries into one debit
        // leg, so the escrow log holds one reservation for the sum and a
        // commit/refund cycle moves the full aggregated amount.
        let mut exec = executor_with_accounts(&[(1, 10), (2, 0)]);
        let assign = assign_mod(4);
        let tx = Transaction::multi_payment(
            txid(0),
            &[(ClientId::new(1), 4), (ClientId::new(1), 4)],
            &[(ClientId::new(2), 8)],
        );
        assert_eq!(tx.payer_count(), 1);
        assert_eq!(
            exec.process_plog_tx(&tx, InstanceId::new(1), &assign),
            Some(TxOutcome::Committed)
        );
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 2);
        assert_eq!(exec.store().balance(ObjectKey::new(2)), 8);
        assert!(exec.escrow_log().is_empty());
    }

    #[test]
    fn double_debit_exceeding_balance_aborts_cleanly() {
        let mut exec = executor_with_accounts(&[(1, 7), (2, 0)]);
        let assign = assign_mod(4);
        // Aggregated debit of 8 exceeds the balance of 7.
        let tx = Transaction::multi_payment(
            txid(0),
            &[(ClientId::new(1), 4), (ClientId::new(1), 4)],
            &[(ClientId::new(2), 8)],
        );
        assert!(!exec.speculative_valid(&tx));
        assert_eq!(
            exec.process_plog_tx(&tx, InstanceId::new(1), &assign),
            Some(TxOutcome::Aborted)
        );
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 7);
        assert!(exec.escrow_log().is_empty());
    }

    #[test]
    fn multi_payer_contract_abort_refunds_every_escrowed_leg() {
        // Three payers, the third cannot cover its fee: the abort at plog
        // time must refund the two escrows already taken in other instances.
        let mut exec = executor_with_accounts(&[(1, 10), (2, 10), (3, 0)]);
        let assign = assign_mod(4);
        let tx = Transaction::contract(
            txid(0),
            &[
                (ClientId::new(1), 5),
                (ClientId::new(2), 5),
                (ClientId::new(3), 5),
            ],
            vec![ObjectOp::set_shared(ObjectKey::new(100), 9)],
        );
        assert_eq!(exec.process_plog_tx(&tx, InstanceId::new(1), &assign), None);
        assert_eq!(exec.process_plog_tx(&tx, InstanceId::new(2), &assign), None);
        assert_eq!(exec.escrow_log().len(), 2);
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 5);
        assert_eq!(
            exec.process_plog_tx(&tx, InstanceId::new(3), &assign),
            Some(TxOutcome::Aborted)
        );
        // Every leg refunded, nothing executed, abort is sticky in the glog.
        assert!(exec.escrow_log().is_empty());
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 10);
        assert_eq!(exec.store().balance(ObjectKey::new(2)), 10);
        assert_eq!(exec.process_glog_tx(&tx, &assign), Some(TxOutcome::Aborted));
        assert_eq!(exec.store().shared_value(ObjectKey::new(100)), 0);
        assert_eq!(exec.aborted_count(), 1);
    }

    #[test]
    fn contract_missing_escrow_at_last_glog_occurrence_refunds() {
        // The contract's legs never went through the plog (e.g. the replica
        // saw the glog entries first); at the last occurrence `allEscrowed`
        // fails and any partial escrow is refunded.
        let mut exec = executor_with_accounts(&[(1, 10), (2, 10)]);
        let assign = assign_mod(4);
        let tx = Transaction::contract(
            txid(0),
            &[(ClientId::new(1), 1), (ClientId::new(2), 1)],
            vec![ObjectOp::set_shared(ObjectKey::new(100), 7)],
        );
        // Only payer 1's leg is escrowed before global ordering completes.
        assert_eq!(exec.process_plog_tx(&tx, InstanceId::new(1), &assign), None);
        assert_eq!(exec.process_glog_tx(&tx, &assign), None);
        assert_eq!(exec.process_glog_tx(&tx, &assign), Some(TxOutcome::Aborted));
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 10);
        assert_eq!(exec.store().shared_value(ObjectKey::new(100)), 0);
        assert!(exec.escrow_log().is_empty());
    }

    #[test]
    fn reprocessing_a_confirmed_tx_is_idempotent() {
        let mut exec = executor_with_accounts(&[(1, 100), (2, 0)]);
        let assign = assign_mod(4);
        let tx = Transaction::payment(txid(0), ClientId::new(1), ClientId::new(2), 40);
        assert_eq!(
            exec.process_plog_tx(&tx, InstanceId::new(1), &assign),
            Some(TxOutcome::Committed)
        );
        assert_eq!(
            exec.process_plog_tx(&tx, InstanceId::new(1), &assign),
            Some(TxOutcome::Committed)
        );
        assert_eq!(exec.store().balance(ObjectKey::new(1)), 60);
        assert_eq!(exec.store().balance(ObjectKey::new(2)), 40);
        assert_eq!(exec.committed_count(), 1);
    }

    /// Commutativity of conflict-free payments (Lemma 2): executing the same
    /// set of single-payer payments in any two orders yields the same final
    /// balances, provided every payment succeeds in both orders (here
    /// guaranteed by generous initial balances). (Seeded-loop replacement for
    /// the former property-based test.)
    #[test]
    fn payment_batches_commute() {
        use orthrus_types::rng::{Rng, SliceRandom, StdRng};
        let assign = assign_mod(4);
        let accounts: Vec<(u64, u64)> = (1..=8).map(|k| (k, 10_000)).collect();
        for seed in 0u64..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let count = rng.gen_range(1usize..40);
            let txs: Vec<Transaction> = (0..count)
                .map(|i| {
                    let payer: u64 = rng.gen_range(1..8);
                    let payee: u64 = rng.gen_range(1..8);
                    let amount: u64 = rng.gen_range(1..20);
                    Transaction::payment(
                        txid(i as u64),
                        ClientId::new(payer),
                        ClientId::new(payee),
                        amount,
                    )
                })
                .collect();

            let run = |order: &[Transaction]| {
                let mut exec = executor_with_accounts(&accounts);
                for tx in order {
                    let payer = tx.payers().next().unwrap();
                    let outcome = exec.process_plog_tx(tx, assign(payer), &assign);
                    assert_eq!(outcome, Some(TxOutcome::Committed));
                }
                exec.state_digest()
            };

            let forward = run(&txs);
            let mut shuffled = txs.clone();
            shuffled.shuffle(&mut rng);
            let reordered = run(&shuffled);
            assert_eq!(forward, reordered, "seed {seed}");
        }
    }

    /// Atomicity (Lemma 5) and conservation: for any mix of multi-payer
    /// payments processed leg by leg, the total supply (balances + escrow)
    /// never changes, and after all legs are processed the escrow log is
    /// empty (every transaction either fully committed or fully aborted).
    #[test]
    fn multi_payer_atomicity_conserves_supply() {
        use orthrus_types::rng::{Rng, StdRng};
        for seed in 0u64..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let assign = assign_mod(3);
            let mut exec = executor_with_accounts(&[
                (1, 50),
                (2, 50),
                (3, 50),
                (4, 50),
                (5, 0),
                (6, 0),
                (7, 0),
            ]);
            let initial_supply = exec.total_supply();
            let count = rng.gen_range(1usize..25);
            let txs: Vec<Transaction> = (0..count)
                .map(|i| {
                    let p1: u64 = rng.gen_range(1..5);
                    let p2: u64 = rng.gen_range(1..5);
                    let payee: u64 = rng.gen_range(5..8);
                    let amount: u64 = rng.gen_range(1..40);
                    Transaction::multi_payment(
                        txid(i as u64),
                        &[
                            (ClientId::new(p1), amount),
                            (ClientId::new(p2), amount / 2 + 1),
                        ],
                        &[(ClientId::new(payee), amount + amount / 2 + 1)],
                    )
                })
                .collect();
            for tx in &txs {
                let mut instances: Vec<InstanceId> = tx.payers().map(&assign).collect();
                instances.sort_unstable();
                instances.dedup();
                for inst in instances {
                    exec.process_plog_tx(tx, inst, &assign);
                    assert_eq!(exec.total_supply(), initial_supply, "seed {seed}");
                }
            }
            assert!(exec.escrow_log().is_empty(), "seed {seed}");
            for tx in &txs {
                assert!(exec.outcome(tx.id).is_some(), "seed {seed}");
            }
        }
    }
}
