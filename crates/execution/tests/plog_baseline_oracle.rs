//! Oracle test for the payment fast path: `Executor::process_plog_schedule`
//! against a reference executor kept as simple as possible — one `BTreeMap`
//! of balances and an escrow log whose commit walks the *whole* log with
//! `retain`. Seeded payment streams run over a few hundred accounts while
//! about two hundred contract escrows sit outstanding (contracts waiting
//! for global ordering). Balances are small enough that both commits and
//! aborts occur. Every occurrence's outcome, every transaction's final
//! outcome, every balance, the commit and abort counts and the total supply
//! must agree.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a test outside any simulation: its fixed seeds and iteration feed no digest"
)]
use orthrus_execution::{Executor, ObjectStore, TxOutcome};
use orthrus_types::rng::{Rng, StdRng};
use orthrus_types::{
    Amount, Block, BlockParams, ClientId, Epoch, InstanceId, ObjectKey, ObjectOp, Rank, ReplicaId,
    SeqNum, SharedBlock, SystemState, Transaction, TxId, View,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const ACCOUNTS: u64 = 300;
const OUTSTANDING: u64 = 200;
const PAYMENTS: u64 = 2_000;
const CONTRACT_AMOUNT: Amount = 3;
const SHARED: ObjectKey = ObjectKey::new(1 << 48);

struct PlogWorkload {
    /// Initial balance of every account; the contract payers come last.
    balances: Vec<Amount>,
    /// The payment stream, in submission order.
    payments: Vec<Arc<Transaction>>,
    /// Contract transactions whose escrows sit outstanding while the
    /// payments execute.
    contracts: Vec<Arc<Transaction>>,
}

/// Payments move 1–4 units between any two accounts, the contract payers
/// included, so a reservation's funds must stay unspendable. Each account
/// starts with 0–15 units on top of what its contract reserves.
fn build_workload(seed: u64) -> PlogWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let all = ACCOUNTS + OUTSTANDING;
    let balances = (0..all)
        .map(|c| rng.gen_range(0..16) + if c >= ACCOUNTS { CONTRACT_AMOUNT } else { 0 })
        .collect();
    let contracts = (ACCOUNTS..all)
        .map(|c| {
            let payer = ClientId::new(c);
            Arc::new(Transaction::contract(
                TxId::new(payer, 0),
                &[(payer, CONTRACT_AMOUNT)],
                vec![ObjectOp::add_shared(SHARED, 1)],
            ))
        })
        .collect();
    let payments = (0..PAYMENTS)
        .map(|i| {
            let payer: u64 = rng.gen_range(0..all);
            let payee = (payer + rng.gen_range(1..all)) % all;
            Arc::new(Transaction::payment(
                TxId::new(ClientId::new(payer), i + 1),
                ClientId::new(payer),
                ClientId::new(payee),
                rng.gen_range(1..5),
            ))
        })
        .collect();
    PlogWorkload {
        balances,
        payments,
        contracts,
    }
}

/// Pack the payments into blocks of `batch` transactions of one instance,
/// in order.
fn build_schedule(workload: &PlogWorkload, batch: usize) -> Vec<(InstanceId, SharedBlock)> {
    workload
        .payments
        .chunks(batch)
        .enumerate()
        .map(|(sn, txs)| {
            let params = BlockParams {
                instance: InstanceId::new(0),
                sn: SeqNum::new(sn as u64),
                epoch: Epoch::new(0),
                view: View::new(0),
                proposer: ReplicaId::new(0),
                rank: Rank::new(sn as u64),
                state: SystemState::new(1),
            };
            let block = Block::from_shared(params, txs.to_vec());
            (InstanceId::new(0), Arc::new(block))
        })
        .collect()
}

/// Every key routes to the one instance of the schedule.
fn assign(_: ObjectKey) -> InstanceId {
    InstanceId::new(0)
}

fn account(c: u64) -> ObjectKey {
    ObjectKey::account_of(ClientId::new(c))
}

/// The payment fast path as first written: one `BTreeMap` store and an
/// escrow log whose commit and abort walk the entire log.
struct BaselineExecutor {
    balances: BTreeMap<ObjectKey, Amount>,
    elog: BTreeMap<(ObjectKey, TxId), Amount>,
    outcomes: HashMap<TxId, TxOutcome>,
    committed: u64,
    aborted: u64,
}

impl BaselineExecutor {
    fn new(workload: &PlogWorkload) -> Self {
        let balances = (0..)
            .zip(&workload.balances)
            .map(|(c, b)| (account(c), *b))
            .collect();
        let mut this = Self {
            balances,
            elog: BTreeMap::new(),
            outcomes: HashMap::new(),
            committed: 0,
            aborted: 0,
        };
        for tx in &workload.contracts {
            for leg in tx.ops.iter().filter(|l| l.is_owned_decrement()) {
                let balance = this.balances.get_mut(&leg.key).unwrap();
                *balance -= leg.op.amount();
                this.elog.insert((leg.key, tx.id), leg.op.amount());
            }
        }
        this
    }

    fn process_payment(&mut self, tx: &Transaction) -> TxOutcome {
        if let Some(existing) = self.outcomes.get(&tx.id) {
            return *existing;
        }
        for leg in tx.ops.iter().filter(|l| l.is_owned_decrement()) {
            let balance = self.balances.entry(leg.key).or_insert(0);
            if *balance < leg.op.amount() {
                // Abort: refund every reservation of `tx` found by a
                // full-log scan.
                let refunds: Vec<(ObjectKey, Amount)> = self
                    .elog
                    .iter()
                    .filter(|((_, id), _)| *id == tx.id)
                    .map(|((key, _), amount)| (*key, *amount))
                    .collect();
                for (key, amount) in refunds {
                    *self.balances.get_mut(&key).unwrap() += amount;
                    self.elog.remove(&(key, tx.id));
                }
                self.outcomes.insert(tx.id, TxOutcome::Aborted);
                self.aborted += 1;
                return TxOutcome::Aborted;
            }
            *balance -= leg.op.amount();
            self.elog.insert((leg.key, tx.id), leg.op.amount());
        }
        // Commit: scan every outstanding reservation in the log.
        self.elog.retain(|(_, id), _| *id != tx.id);
        for leg in tx.ops.iter().filter(|l| l.is_owned_increment()) {
            *self.balances.entry(leg.key).or_insert(0) += leg.op.amount();
        }
        self.outcomes.insert(tx.id, TxOutcome::Committed);
        self.committed += 1;
        TxOutcome::Committed
    }

    /// Spendable balances plus outstanding reservations.
    fn total_supply(&self) -> u128 {
        self.balances.values().map(|b| u128::from(*b)).sum::<u128>()
            + self.elog.values().map(|a| u128::from(*a)).sum::<u128>()
    }
}

fn new_executor(workload: &PlogWorkload) -> Executor {
    let mut store = ObjectStore::new();
    for (c, balance) in (0..).zip(&workload.balances) {
        store.create_account(account(c), *balance);
    }
    store.create_shared(SHARED, 0);
    let mut exec = Executor::with_store(store);
    // Seed the outstanding contract escrows through the ordinary plog path.
    for tx in &workload.contracts {
        let outcome = exec.process_plog_tx(tx, InstanceId::new(0), &assign);
        assert_eq!(outcome, None, "contract escrow must stay outstanding");
    }
    exec
}

#[test]
fn plog_schedule_matches_the_full_scan_baseline_executor() {
    for (seed, batch) in [(0xBEEF, 256), (1, 64), (2, 1), (3, 500)] {
        let workload = build_workload(seed);
        let mut baseline = BaselineExecutor::new(&workload);
        let mut exec = new_executor(&workload);
        let walked = exec.process_plog_schedule(&build_schedule(&workload, batch), &assign);

        assert_eq!(walked.len(), workload.payments.len());
        for ((id, outcome), tx) in walked.iter().zip(&workload.payments) {
            assert_eq!(*id, tx.id, "seed {seed}: schedule order");
            assert_eq!(
                *outcome,
                Some(baseline.process_payment(tx)),
                "seed {seed}: outcome of {id:?}"
            );
        }
        for tx in workload.payments.iter().chain(&workload.contracts) {
            assert_eq!(
                exec.outcome(tx.id),
                baseline.outcomes.get(&tx.id).copied(),
                "seed {seed}: final outcome of {:?}",
                tx.id
            );
        }
        for (key, balance) in &baseline.balances {
            assert_eq!(exec.store().balance(*key), *balance, "seed {seed}: {key:?}");
        }
        assert_eq!(exec.committed_count(), baseline.committed, "seed {seed}");
        assert_eq!(exec.aborted_count(), baseline.aborted, "seed {seed}");
        assert_eq!(exec.total_supply(), baseline.total_supply(), "seed {seed}");
        assert_eq!(
            exec.escrow_log().len() as u64,
            OUTSTANDING,
            "seed {seed}: only the contract escrows stay outstanding"
        );
        assert!(
            baseline.committed > 0 && baseline.aborted > 0,
            "seed {seed}: {} committed, {} aborted — balances must yield both",
            baseline.committed,
            baseline.aborted
        );
    }
}
