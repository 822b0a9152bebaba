//! Executor snapshot: quantifies the sharded execution state and records
//! the result to `BENCH_executor.json` at the repository root.
//!
//! Three measurements:
//!
//! 1. **Plog execution** — a payment fast-path workload with a realistic
//!    population of outstanding contract escrows (contracts waiting for
//!    global ordering, as in the paper's 46%-payment trace), executed by
//!    (a) a faithful re-implementation of the pre-sharding executor (single
//!    `BTreeMap` store, escrow commit via a full-log `retain` scan) and (b)
//!    the executor's schedule walk — the one the replica runs — over a
//!    single-shard store and over m ∈ {4, 8, 16}-shard stores. All variants
//!    must agree on committed counts and final balances; the sharded digests
//!    must also agree across shard counts.
//! 2. **Digest micro** — incremental `digest()` vs `rescan_digest()` on a
//!    ≥ 100k-object store (the cost the scenario runner pays every time it
//!    compares replica states).
//! 3. **Hot-account ablation** — the same plog workload with Zipf-1.4 payer
//!    skew: per-shard op counts quantify the imbalance a hot account causes.
//!
//! Run with `cargo bench --bench executor` (reduced scale) or
//! `ORTHRUS_FULL_SCALE=1 cargo bench --bench executor` (paper scale).

use orthrus_bench::harness::{self, BenchScale};
use orthrus_execution::{Executor, ObjectStore, TxOutcome};
use orthrus_types::rng::{Rng, StdRng};
use orthrus_types::{
    Amount, Block, BlockParams, ClientId, Epoch, InstanceId, ObjectKey, ObjectOp, Rank, SeqNum,
    SharedBlock, SystemState, Transaction, TxId, View,
};
use orthrus_workload::Zipf;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

// ----------------------------------------------------------------------
// Workload
// ----------------------------------------------------------------------

struct PlogWorkload {
    /// Payment schedule bucketed per instance for a given m, rebuilt per
    /// shard count (bucketing depends on m).
    payments: Vec<Arc<Transaction>>,
    /// Contract transactions whose escrows sit outstanding while the
    /// payments execute.
    pending_contracts: Vec<Arc<Transaction>>,
    accounts: u64,
}

fn build_workload(
    accounts: u64,
    outstanding: usize,
    payments: usize,
    zipf: Option<f64>,
) -> PlogWorkload {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let sampler = zipf.map(|e| Zipf::new(accounts as usize, e));
    let mut out = Vec::with_capacity(payments);
    for i in 0..payments {
        let payer: u64 = match &sampler {
            Some(z) => z.sample(&mut rng) as u64,
            None => rng.gen_range(0..accounts),
        };
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

/// Bucket the payments by payer shard and pack them into per-instance blocks
/// of `batch` transactions, interleaved in the order `drain_ready` yields.
fn build_schedule(workload: &PlogWorkload, m: u32, batch: usize) -> Vec<(InstanceId, SharedBlock)> {
    let mut buckets: Vec<std::collections::VecDeque<Arc<Transaction>>> =
        (0..m).map(|_| std::collections::VecDeque::new()).collect();
    for tx in &workload.payments {
        let payer = tx.payers().next().expect("payments have a payer");
        buckets[payer.shard(m) as usize].push_back(Arc::clone(tx));
    }
    let mut schedule = Vec::new();
    let mut next_sn = vec![0u64; m as usize];
    loop {
        let mut progressed = false;
        for i in 0..m as usize {
            if buckets[i].is_empty() {
                continue;
            }
            let txs: Vec<Arc<Transaction>> =
                (0..batch).map_while(|_| buckets[i].pop_front()).collect();
            let params = BlockParams {
                instance: InstanceId::new(i as u32),
                sn: SeqNum::new(next_sn[i]),
                epoch: Epoch::new(0),
                view: View::new(0),
                proposer: orthrus_types::ReplicaId::new(i as u32),
                rank: Rank::new(next_sn[i]),
                state: SystemState::new(m as usize),
            };
            next_sn[i] += 1;
            schedule.push((
                InstanceId::new(i as u32),
                Arc::new(Block::from_shared(params, txs)),
            ));
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    schedule
}

fn new_executor(workload: &PlogWorkload, m: u32) -> Executor {
    let mut store = ObjectStore::with_shards(m);
    for c in 0..workload.accounts + workload.pending_contracts.len() as u64 {
        store.create_account(ObjectKey::account_of(ClientId::new(c)), 1_000_000);
    }
    store.create_shared(ObjectKey::new(1 << 48), 0);
    let mut exec = Executor::with_store(store);
    // Seed the outstanding contract escrows through the ordinary plog path.
    let assign = move |key: ObjectKey| InstanceId::new(key.shard(m));
    for tx in &workload.pending_contracts {
        let instance = assign(tx.payers().next().unwrap());
        let outcome = exec.process_plog_tx(tx, instance, &assign);
        assert_eq!(outcome, None, "contract escrow must stay outstanding");
    }
    exec
}

// ----------------------------------------------------------------------
// Baseline: the pre-sharding executor (PR 2 state of the code)
// ----------------------------------------------------------------------

/// Minimal, faithful replica of the old payment fast path: one `BTreeMap`
/// store and an escrow log whose commit/abort walk the *entire* log with
/// `retain`, as `EscrowLog::commit` did before sharding.
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

struct ShardedOutcome {
    run: PlogRun,
    digest: orthrus_types::Digest,
    total_supply: u128,
    shard_ops: Vec<u64>,
}

/// Run the payment schedule for an `m`-shard layout through the executor's
/// schedule walk (`Executor::process_plog_schedule`, the walk the replica
/// runs).
fn run_sharded(workload: &PlogWorkload, m: u32, batch: usize) -> ShardedOutcome {
    let schedule = build_schedule(workload, m, batch);
    let mut exec = new_executor(workload, m);
    let assign = move |key: ObjectKey| InstanceId::new(key.shard(m));
    let wall = Instant::now();
    exec.process_plog_schedule(&schedule, &assign);
    let secs = wall.elapsed().as_secs_f64();
    let label = if m == 1 {
        "reference_walk_m1".to_string()
    } else {
        format!("sharded_m{m}")
    };
    ShardedOutcome {
        run: PlogRun {
            label,
            wall_ms: secs * 1e3,
            tx_per_sec: workload.payments.len() as f64 / secs,
            committed: exec.committed_count(),
        },
        digest: exec.state_digest(),
        total_supply: exec.total_supply(),
        shard_ops: exec.store().shard_op_counts(),
    }
}

struct DigestMicro {
    objects: usize,
    incremental_ns: f64,
    rescan_ns: f64,
}

fn digest_micro(objects: u64) -> DigestMicro {
    let mut store = ObjectStore::with_shards(16);
    for k in 0..objects {
        store.create_account(ObjectKey::new(k), k);
    }
    assert_eq!(store.digest(), store.rescan_digest());
    // Steady state: a write dirties the accumulators, then the runner
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
    let scale = BenchScale::from_env();
    let (accounts, outstanding, payments, batch) = match scale {
        BenchScale::Reduced => (20_000u64, 2_000usize, 24_000usize, 256usize),
        BenchScale::Full => (100_000u64, 8_000, 120_000, 4_096),
    };
    println!("== executor snapshot ({scale:?} scale) ==");

    // ------------------------------------------------------------------
    // 1. Plog execution: baseline vs the schedule walk at m = 1, 4, 8, 16.
    // ------------------------------------------------------------------
    println!(
        "\n-- plog execution: {payments} payments over {accounts} accounts, \
         {outstanding} outstanding contract escrows --"
    );
    let workload = build_workload(accounts, outstanding, payments, None);
    let (baseline, baseline_supply) = run_baseline(&workload);
    let reference = run_sharded(&workload, 1, batch);
    let sharded: Vec<ShardedOutcome> = [4u32, 8, 16]
        .into_iter()
        .map(|m| run_sharded(&workload, m, batch))
        .collect();

    for run in std::iter::once(&baseline)
        .chain(std::iter::once(&reference.run))
        .chain(sharded.iter().map(|s| &s.run))
    {
        println!(
            "{:<28} {:>9.1} ms  {:>11.0} tx/s  ({} committed)",
            run.label, run.wall_ms, run.tx_per_sec, run.committed
        );
    }
    // Cross-check: every variant agrees on what was computed.
    for s in &sharded {
        assert_eq!(
            s.run.committed, baseline.committed,
            "commit counts diverged"
        );
        assert_eq!(
            s.digest, reference.digest,
            "digests diverged across shard counts"
        );
        assert_eq!(s.total_supply, reference.total_supply);
    }
    assert_eq!(reference.run.committed, baseline.committed);
    assert_eq!(
        reference.total_supply, baseline_supply,
        "balance books diverged"
    );
    let speedup_m8 = sharded[1].run.tx_per_sec / baseline.tx_per_sec;
    println!("sharded m=8 vs baseline: {speedup_m8:.2}x");

    // ------------------------------------------------------------------
    // 2. Digest micro.
    // ------------------------------------------------------------------
    let objects = match scale {
        BenchScale::Reduced => 100_000u64,
        BenchScale::Full => 500_000,
    };
    println!("\n-- digest micro: {objects} objects --");
    let micro = digest_micro(objects);
    let digest_speedup = micro.rescan_ns / micro.incremental_ns;
    println!(
        "incremental {:>12.0} ns/call   full rescan {:>12.0} ns/call   ({digest_speedup:.0}x)",
        micro.incremental_ns, micro.rescan_ns
    );

    // ------------------------------------------------------------------
    // 3. Hot-account ablation.
    // ------------------------------------------------------------------
    println!("\n-- hot-account ablation: zipf 1.4 payer skew, m = 8 --");
    let hot_workload = build_workload(accounts, outstanding, payments, Some(1.4));
    let hot = run_sharded(&hot_workload, 8, batch);
    let uniform = &sharded[1];
    let hot_imbalance = harness::shard_imbalance(&hot.shard_ops);
    let uniform_imbalance = harness::shard_imbalance(&uniform.shard_ops);
    println!(
        "uniform: {:>10.0} tx/s, hottest shard {uniform_imbalance:.2}x mean",
        uniform.run.tx_per_sec
    );
    println!(
        "zipf1.4: {:>10.0} tx/s, hottest shard {hot_imbalance:.2}x mean (ops {:?})",
        hot.run.tx_per_sec, hot.shard_ops
    );

    // ------------------------------------------------------------------
    // JSON snapshot
    // ------------------------------------------------------------------
    let mut runs_json = String::new();
    for (i, run) in std::iter::once(&baseline)
        .chain(std::iter::once(&reference.run))
        .chain(sharded.iter().map(|s| &s.run))
        .enumerate()
    {
        if i > 0 {
            runs_json.push_str(",\n");
        }
        runs_json.push_str(&plog_run_json(run));
    }
    let hot_ops: Vec<String> = hot.shard_ops.iter().map(u64::to_string).collect();
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
            "    \"speedup_m8_vs_baseline\": {:.2},\n",
            "    \"identical_outcomes\": true\n",
            "  }},\n",
            "  \"digest_micro\": {{\n",
            "    \"objects\": {},\n",
            "    \"incremental_ns_per_call\": {:.1},\n",
            "    \"rescan_ns_per_call\": {:.1},\n",
            "    \"speedup\": {:.1}\n",
            "  }},\n",
            "  \"hot_account\": {{\n",
            "    \"zipf_exponent\": 1.4,\n",
            "    \"tx_per_sec\": {:.0},\n",
            "    \"uniform_tx_per_sec\": {:.0},\n",
            "    \"hot_shard_imbalance\": {:.2},\n",
            "    \"uniform_shard_imbalance\": {:.2},\n",
            "    \"shard_ops\": [{}]\n",
            "  }}\n",
            "}}\n"
        ),
        if scale == BenchScale::Full {
            "full"
        } else {
            "reduced"
        },
        payments,
        accounts,
        outstanding,
        runs_json,
        speedup_m8,
        micro.objects,
        micro.incremental_ns,
        micro.rescan_ns,
        digest_speedup,
        hot.run.tx_per_sec,
        uniform.run.tx_per_sec,
        hot_imbalance,
        uniform_imbalance,
        hot_ops.join(","),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_executor.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nsnapshot written to {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}
