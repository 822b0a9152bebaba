//! Executor snapshot: quantifies the execution state and records the result
//! to `BENCH_executor.json` at the repository root.
//!
//! Two measurements:
//!
//! 1. **Plog execution** — a payment fast-path workload with a realistic
//!    population of outstanding contract escrows (contracts waiting for
//!    global ordering, as in the paper's 46%-payment trace), executed by
//!    (a) a faithful re-implementation of the original executor (one
//!    `BTreeMap` store, escrow commit via a full-log `retain` scan) and (b)
//!    the executor's schedule walk — the one the replica runs — over the
//!    hash-map store. Both must agree on committed counts and final supply.
//! 2. **Digest micro** — incremental `digest()` vs `rescan_digest()` on a
//!    ≥ 100k-object store (the cost the scenario runner pays every time it
//!    compares replica states).
//!
//! Run with `cargo bench --bench executor` (reduced scale) or
//! `ORTHRUS_FULL_SCALE=1 cargo bench --bench executor` (paper scale).

use orthrus_execution::{Executor, ObjectStore, TxOutcome};
use orthrus_lab::SpecScale;
use orthrus_types::rng::{Rng, StdRng};
use orthrus_types::{
    Amount, Block, BlockParams, ClientId, Epoch, InstanceId, ObjectKey, ObjectOp, Rank, SeqNum,
    SharedBlock, SystemState, Transaction, TxId, View,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

// ----------------------------------------------------------------------
// Workload
// ----------------------------------------------------------------------

struct PlogWorkload {
    /// The payment stream, in submission order.
    payments: Vec<Arc<Transaction>>,
    /// Contract transactions whose escrows sit outstanding while the
    /// payments execute.
    pending_contracts: Vec<Arc<Transaction>>,
    accounts: u64,
}

fn build_workload(accounts: u64, outstanding: usize, payments: usize) -> PlogWorkload {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut out = Vec::with_capacity(payments);
    for i in 0..payments {
        let payer: u64 = rng.gen_range(0..accounts);
        let mut payee: u64 = rng.gen_range(0..accounts);
        if payee == payer {
            payee = (payee + 1) % accounts;
        }
        let amount: u64 = rng.gen_range(1..5);
        out.push(Arc::new(Transaction::payment(
            TxId::new(ClientId::new(payer), i as u64),
            ClientId::new(payer),
            ClientId::new(payee),
            amount,
        )));
    }
    // Contract payers live in a disjoint account range so the payment fast
    // path never conflicts with them — their escrows just sit in the log,
    // which is exactly what makes the old commit scan expensive.
    let contracts = (0..outstanding)
        .map(|i| {
            let payer = ClientId::new(accounts + i as u64);
            Arc::new(Transaction::contract(
                TxId::new(payer, 0),
                &[(payer, 3)],
                vec![ObjectOp::add_shared(ObjectKey::new(1 << 48), 1)],
            ))
        })
        .collect();
    PlogWorkload {
        payments: out,
        pending_contracts: contracts,
        accounts,
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
                proposer: orthrus_types::ReplicaId::new(0),
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

fn new_executor(workload: &PlogWorkload) -> Executor {
    let mut store = ObjectStore::new();
    for c in 0..workload.accounts + workload.pending_contracts.len() as u64 {
        store.create_account(ObjectKey::account_of(ClientId::new(c)), 1_000_000);
    }
    store.create_shared(ObjectKey::new(1 << 48), 0);
    let mut exec = Executor::with_store(store);
    // Seed the outstanding contract escrows through the ordinary plog path.
    for tx in &workload.pending_contracts {
        let outcome = exec.process_plog_tx(tx, InstanceId::new(0), &assign);
        assert_eq!(outcome, None, "contract escrow must stay outstanding");
    }
    exec
}

// ----------------------------------------------------------------------
// Baseline: the original executor
// ----------------------------------------------------------------------

/// Minimal, faithful replica of the old payment fast path: one `BTreeMap`
/// store and an escrow log whose commit/abort walk the *entire* log with
/// `retain`, as `EscrowLog::commit` originally did.
struct BaselineExecutor {
    balances: BTreeMap<ObjectKey, Amount>,
    elog: BTreeMap<(ObjectKey, TxId), Amount>,
    outcomes: HashMap<TxId, TxOutcome>,
    committed: u64,
}

impl BaselineExecutor {
    fn new(workload: &PlogWorkload) -> Self {
        let mut balances = BTreeMap::new();
        for c in 0..workload.accounts + workload.pending_contracts.len() as u64 {
            balances.insert(ObjectKey::account_of(ClientId::new(c)), 1_000_000u64);
        }
        let mut this = Self {
            balances,
            elog: BTreeMap::new(),
            outcomes: HashMap::new(),
            committed: 0,
        };
        for tx in &workload.pending_contracts {
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
                // Abort: refund via the old full-log retain.
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
                return TxOutcome::Aborted;
            }
            *balance -= leg.op.amount();
            self.elog.insert((leg.key, tx.id), leg.op.amount());
        }
        // Commit: the old `EscrowLog::commit` — scan every outstanding
        // reservation in the log.
        self.elog.retain(|(_, id), _| *id != tx.id);
        for leg in tx.ops.iter().filter(|l| l.is_owned_increment()) {
            *self.balances.entry(leg.key).or_insert(0) += leg.op.amount();
        }
        self.outcomes.insert(tx.id, TxOutcome::Committed);
        self.committed += 1;
        TxOutcome::Committed
    }

    /// Spendable balances plus outstanding reservations — comparable to the
    /// new engine's `total_supply`.
    fn total_supply(&self) -> u128 {
        self.balances.values().map(|b| u128::from(*b)).sum::<u128>()
            + self.elog.values().map(|a| u128::from(*a)).sum::<u128>()
    }
}

// ----------------------------------------------------------------------
// Measurements
// ----------------------------------------------------------------------

struct PlogRun {
    label: String,
    wall_ms: f64,
    tx_per_sec: f64,
    committed: u64,
}

/// Run the payment stream through the baseline executor, returning the run
/// stats and the final supply (balances + reservations).
fn run_baseline(workload: &PlogWorkload) -> (PlogRun, u128) {
    let mut exec = BaselineExecutor::new(workload);
    let wall = Instant::now();
    for tx in &workload.payments {
        exec.process_payment(tx);
    }
    let secs = wall.elapsed().as_secs_f64();
    (
        PlogRun {
            label: "baseline_single_map_retain".into(),
            wall_ms: secs * 1e3,
            tx_per_sec: workload.payments.len() as f64 / secs,
            committed: exec.committed,
        },
        exec.total_supply(),
    )
}

struct WalkOutcome {
    run: PlogRun,
    total_supply: u128,
}

/// Run the payment schedule through the executor's schedule walk
/// (`Executor::process_plog_schedule`, the walk the replica runs).
fn run_walk(workload: &PlogWorkload, batch: usize) -> WalkOutcome {
    let schedule = build_schedule(workload, batch);
    let mut exec = new_executor(workload);
    let wall = Instant::now();
    exec.process_plog_schedule(&schedule, &assign);
    let secs = wall.elapsed().as_secs_f64();
    WalkOutcome {
        run: PlogRun {
            label: "reference_walk_m1".into(),
            wall_ms: secs * 1e3,
            tx_per_sec: workload.payments.len() as f64 / secs,
            committed: exec.committed_count(),
        },
        total_supply: exec.total_supply(),
    }
}

struct DigestMicro {
    objects: usize,
    incremental_ns: f64,
    rescan_ns: f64,
}

fn digest_micro(objects: u64) -> DigestMicro {
    let mut store = ObjectStore::new();
    for k in 0..objects {
        store.create_account(ObjectKey::new(k), k);
    }
    assert_eq!(store.digest(), store.rescan_digest());
    // Steady state: a write dirties the accumulator, then the runner
    // compares states.
    let incremental_reps = 2_000u32;
    let wall = Instant::now();
    let mut acc = 0u64;
    for i in 0..incremental_reps {
        store
            .credit(ObjectKey::new(u64::from(i) % objects), 1)
            .unwrap();
        acc ^= store.digest().0;
    }
    let incremental_ns = wall.elapsed().as_secs_f64() * 1e9 / f64::from(incremental_reps);
    let rescan_reps = 20u32;
    let wall = Instant::now();
    for i in 0..rescan_reps {
        store
            .credit(ObjectKey::new(u64::from(i) % objects), 1)
            .unwrap();
        acc ^= store.rescan_digest().0;
    }
    let rescan_ns = wall.elapsed().as_secs_f64() * 1e9 / f64::from(rescan_reps);
    std::hint::black_box(acc);
    DigestMicro {
        objects: objects as usize,
        incremental_ns,
        rescan_ns,
    }
}

fn plog_run_json(r: &PlogRun) -> String {
    format!(
        "    {{\"label\": \"{}\", \"wall_ms\": {:.1}, \"tx_per_sec\": {:.0}, \"committed\": {}}}",
        r.label, r.wall_ms, r.tx_per_sec, r.committed
    )
}

fn main() {
    let scale = SpecScale::from_env();
    let (accounts, outstanding, payments, batch) = match scale {
        SpecScale::Reduced => (20_000u64, 2_000usize, 24_000usize, 256usize),
        SpecScale::Full => (100_000u64, 8_000, 120_000, 4_096),
    };
    println!("== executor snapshot ({scale:?} scale) ==");

    // ------------------------------------------------------------------
    // 1. Plog execution: baseline vs the schedule walk.
    // ------------------------------------------------------------------
    println!(
        "\n-- plog execution: {payments} payments over {accounts} accounts, \
         {outstanding} outstanding contract escrows --"
    );
    let workload = build_workload(accounts, outstanding, payments);
    let (baseline, baseline_supply) = run_baseline(&workload);
    let walk = run_walk(&workload, batch);
    for run in [&baseline, &walk.run] {
        println!(
            "{:<28} {:>9.1} ms  {:>11.0} tx/s  ({} committed)",
            run.label, run.wall_ms, run.tx_per_sec, run.committed
        );
    }
    // Cross-check: both executors agree on what was computed.
    assert_eq!(
        walk.run.committed, baseline.committed,
        "commit counts diverged"
    );
    assert_eq!(walk.total_supply, baseline_supply, "balance books diverged");
    let speedup = walk.run.tx_per_sec / baseline.tx_per_sec;
    println!("schedule walk vs baseline: {speedup:.2}x");

    // ------------------------------------------------------------------
    // 2. Digest micro.
    // ------------------------------------------------------------------
    let objects = match scale {
        SpecScale::Reduced => 100_000u64,
        SpecScale::Full => 500_000,
    };
    println!("\n-- digest micro: {objects} objects --");
    let micro = digest_micro(objects);
    let digest_speedup = micro.rescan_ns / micro.incremental_ns;
    println!(
        "incremental {:>12.0} ns/call   full rescan {:>12.0} ns/call   ({digest_speedup:.0}x)",
        micro.incremental_ns, micro.rescan_ns
    );

    // ------------------------------------------------------------------
    // JSON snapshot
    // ------------------------------------------------------------------
    let runs_json = [&baseline, &walk.run].map(plog_run_json).join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"executor\",\n",
            "  \"scale\": \"{}\",\n",
            "  \"plog_execution\": {{\n",
            "    \"payments\": {},\n",
            "    \"accounts\": {},\n",
            "    \"outstanding_escrows\": {},\n",
            "    \"runs\": [\n{}\n    ],\n",
            "    \"speedup_vs_baseline\": {:.2},\n",
            "    \"identical_outcomes\": true\n",
            "  }},\n",
            "  \"digest_micro\": {{\n",
            "    \"objects\": {},\n",
            "    \"incremental_ns_per_call\": {:.1},\n",
            "    \"rescan_ns_per_call\": {:.1},\n",
            "    \"speedup\": {:.1}\n",
            "  }}\n",
            "}}\n"
        ),
        if scale == SpecScale::Full {
            "full"
        } else {
            "reduced"
        },
        payments,
        accounts,
        outstanding,
        runs_json,
        speedup,
        micro.objects,
        micro.incremental_ns,
        micro.rescan_ns,
        digest_speedup,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_executor.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nsnapshot written to {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}
