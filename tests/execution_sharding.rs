//! Tests for the sharded execution state.
//!
//! The executor's state is split into per-instance shards (accounts routed
//! by `ObjectKey::shard`, shared objects in a dedicated shard) with
//! incremental per-shard digests. None of that may change *what* gets
//! computed:
//!
//! * sharded and unsharded stores holding the same objects have the same
//!   digest (the accumulator is shard-layout independent);
//! * the incremental digest always equals a full rescan;
//! * replaying a partial-log schedule through the executor is idempotent;
//! * executor snapshots (`Executor::clone`, the payload of checkpoint and
//!   crash-recovery state transfer) are copy-on-write: post-snapshot writes
//!   by the live executor never leak into an in-flight snapshot;
//! * at the scenario level, Orthrus runs conserve token supply and the
//!   per-shard load counters expose a hot-account workload's skew.

use orthrus::prelude::*;
use orthrus_types::rng::{Rng, StdRng};
use orthrus_types::{
    Block, BlockParams, ClientId, Epoch, InstanceId, ObjectKey, ObjectOp, Rank, SeqNum,
    SharedBlock, SystemState, Transaction, TxId, View,
};
use std::sync::Arc;

// ----------------------------------------------------------------------
// Store level: incremental digest vs full rescan, shard-layout independence
// ----------------------------------------------------------------------

/// Apply an identical random credit/debit/shared-write workload to stores
/// with different shard layouts; digests must agree with each other and with
/// a full rescan after every step.
#[test]
fn incremental_digest_matches_rescan_under_random_workloads() {
    for seed in 0u64..20 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stores = vec![
            ObjectStore::with_shards(1),
            ObjectStore::with_shards(4),
            ObjectStore::with_shards(16),
        ];
        for store in &mut stores {
            for k in 0..64u64 {
                store.create_account(ObjectKey::new(k), 1_000);
            }
            for k in 0..8u64 {
                store.create_shared(ObjectKey::new((1 << 48) + k), 0);
            }
        }
        for step in 0..200 {
            let action: u64 = rng.gen_range(0..4);
            let key: u64 = rng.gen_range(0..70); // some keys do not exist
            let amount: u64 = rng.gen_range(1..50);
            for store in &mut stores {
                match action {
                    0 => {
                        let _ = store.credit(ObjectKey::new(key), amount);
                    }
                    1 => {
                        let _ = store.debit(ObjectKey::new(key), amount);
                    }
                    2 => {
                        let _ =
                            store.set_shared(ObjectKey::new((1 << 48) + (key % 8)), amount as i64);
                    }
                    _ => {
                        let _ = store
                            .add_shared(ObjectKey::new((1 << 48) + (key % 8)), amount as i64 - 25);
                    }
                }
            }
            let reference = stores[0].digest();
            for store in &stores {
                assert_eq!(
                    store.digest(),
                    reference,
                    "seed {seed} step {step}: digest depends on shard layout"
                );
                assert_eq!(
                    store.digest(),
                    store.rescan_digest(),
                    "seed {seed} step {step}: incremental digest drifted from rescan"
                );
            }
            assert_eq!(stores[0].total_balance(), stores[2].total_balance());
        }
    }
}

// ----------------------------------------------------------------------
// Executor level: schedule replay and snapshots
// ----------------------------------------------------------------------

fn account(c: u64) -> ObjectKey {
    ObjectKey::account_of(ClientId::new(c))
}

/// Build a random plog schedule: `m` instances, several blocks each, mixing
/// single-payer payments, cross-instance multi-payer payments and contract
/// transactions, bucketed the same way the partition module buckets them.
fn random_schedule(seed: u64, m: u32, accounts: u64, txs: usize) -> Vec<(InstanceId, SharedBlock)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let assign = |key: ObjectKey| InstanceId::new(key.shard(m));
    let mut buckets: Vec<Vec<Arc<Transaction>>> = vec![Vec::new(); m as usize];
    for i in 0..txs {
        let id = TxId::new(ClientId::new(9_999), i as u64);
        let payer: u64 = rng.gen_range(0..accounts);
        let amount: u64 = rng.gen_range(1..40);
        let kind: u64 = rng.gen_range(0..10);
        let tx = if kind < 6 {
            let payee: u64 = rng.gen_range(0..accounts);
            Transaction::payment(id, ClientId::new(payer), ClientId::new(payee), amount)
        } else if kind < 8 {
            let second: u64 = rng.gen_range(0..accounts);
            let payee: u64 = rng.gen_range(0..accounts);
            Transaction::multi_payment(
                id,
                &[(ClientId::new(payer), amount), (ClientId::new(second), 1)],
                &[(ClientId::new(payee), amount + 1)],
            )
        } else {
            Transaction::contract(
                id,
                &[(ClientId::new(payer), amount)],
                vec![ObjectOp::add_shared(ObjectKey::new((1 << 48) + kind), 3)],
            )
        };
        let tx = Arc::new(tx);
        let mut instances: Vec<InstanceId> = tx.payers().map(assign).collect();
        instances.sort_unstable();
        instances.dedup();
        if instances.is_empty() {
            instances.push(InstanceId::new(0));
        }
        for instance in instances {
            buckets[instance.as_usize()].push(Arc::clone(&tx));
        }
    }
    // One sweep of blocks per instance, batch size 16, in instance order —
    // the shape `PartialLogs::drain_ready` produces.
    let mut schedule = Vec::new();
    let mut next_sn = vec![0u64; m as usize];
    let mut remaining: Vec<std::collections::VecDeque<Arc<Transaction>>> =
        buckets.into_iter().map(Into::into).collect();
    loop {
        let mut progressed = false;
        for i in 0..m as usize {
            if remaining[i].is_empty() {
                continue;
            }
            let batch: Vec<Arc<Transaction>> =
                (0..16).map_while(|_| remaining[i].pop_front()).collect();
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
                Arc::new(Block::from_shared(params, batch)),
            ));
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    schedule
}

fn executor_for(m: u32, accounts: u64) -> Executor {
    let mut store = ObjectStore::with_shards(m);
    for c in 0..accounts {
        store.create_account(account(c), 100);
    }
    for k in 0..16u64 {
        store.create_shared(ObjectKey::new((1 << 48) + k), 0);
    }
    Executor::with_store(store)
}

/// Re-running a schedule (re-delivery after recovery) must be idempotent:
/// known outcomes short-circuit, pending contract escrows are already held,
/// and no state moves.
#[test]
fn reprocessing_a_schedule_is_idempotent() {
    let m = 4;
    let schedule = random_schedule(77, m, 32, 100);
    let assign = move |key: ObjectKey| InstanceId::new(key.shard(m));
    let mut exec = executor_for(m, 32);
    exec.process_plog_schedule(&schedule, &assign);
    let digest = exec.state_digest();
    let committed = exec.committed_count();
    let supply = exec.total_supply();
    let replay = exec.process_plog_schedule(&schedule, &assign);
    assert_eq!(exec.state_digest(), digest);
    assert_eq!(exec.committed_count(), committed);
    assert_eq!(exec.total_supply(), supply);
    // Payments were confirmed the first time round and must report their
    // recorded outcome again; contracts legitimately stay pending (they wait
    // for the global log) unless they already aborted.
    let mut replayed = replay.iter();
    for (_, block) in &schedule {
        for tx in &block.txs {
            let (id, outcome) = replayed.next().unwrap();
            assert_eq!(*id, tx.id);
            if tx.is_payment() {
                assert!(outcome.is_some(), "payment {id} lost its outcome on replay");
            }
        }
    }
}

/// Executor snapshots are copy-on-write (`Arc` per shard and outcome map):
/// the clone a checkpoint or crash-recovery state transfer holds must stay
/// frozen while the live executor keeps executing — a post-snapshot write
/// leaking into an in-flight transfer would hand the recovering replica a
/// state it never agreed on.
#[test]
fn snapshot_clone_is_isolated_from_post_snapshot_writes() {
    let m = 4;
    let schedule = random_schedule(3, m, 32, 120);
    let assign = move |key: ObjectKey| InstanceId::new(key.shard(m));
    let mut exec = executor_for(m, 32);
    exec.process_plog_schedule(&schedule, &assign);

    // The in-flight transfer payload.
    let snapshot = exec.clone();
    let digest = snapshot.state_digest();
    let committed = snapshot.committed_count();
    let aborted = snapshot.aborted_count();
    let supply = snapshot.total_supply();
    let escrows = snapshot.escrow_log().len();

    // The live executor moves on: fresh accounts, credits, debits and a
    // payment confirmation touching several shards.
    exec.store_mut().create_account(account(900), 1_000);
    for c in 0..8u64 {
        let _ = exec.store_mut().credit(account(c), 17);
    }
    let _ = exec.store_mut().debit(account(0), 5);
    let late = Transaction::payment(
        TxId::new(ClientId::new(9_999), 1 << 32),
        ClientId::new(900),
        ClientId::new(901),
        40,
    );
    exec.process_plog_tx(&late, assign(account(900)), &assign);
    assert_ne!(exec.state_digest(), digest, "the live executor must move");
    assert!(exec.committed_count() > committed);

    // The snapshot still shows exactly the pre-snapshot state.
    assert_eq!(snapshot.state_digest(), digest);
    assert_eq!(snapshot.store().rescan_digest(), digest);
    assert_eq!(snapshot.committed_count(), committed);
    assert_eq!(snapshot.aborted_count(), aborted);
    assert_eq!(snapshot.total_supply(), supply);
    assert_eq!(snapshot.escrow_log().len(), escrows);
    assert_eq!(snapshot.outcome(late.id), None);
    assert_eq!(snapshot.store().balance(account(900)), 0);
}

// ----------------------------------------------------------------------
// Scenario level: supply conservation and shard load
// ----------------------------------------------------------------------

/// The scenario every test below varies.
fn base_scenario(protocol: ProtocolKind, seed: u64) -> Scenario {
    let workload = WorkloadConfig {
        num_accounts: 64,
        num_transactions: 260,
        payment_share: 0.6,
        multi_payer_share: 0.08,
        num_shared_objects: 8,
        ..WorkloadConfig::small()
    };
    Scenario::new(protocol, NetworkKind::Lan, 4)
        .with_workload(workload)
        .with_seed(seed)
        .with_batch_size(64)
        .with_batch_timeout(Duration::from_millis(20))
        .with_submission_window(Duration::from_millis(500))
}

fn run(scenario: &Scenario) -> ScenarioOutcome {
    run_scenario(scenario).expect("scenario must validate")
}

/// Conservation of supply on the plog fast path: after an Orthrus run,
/// every replica's spendable balances plus outstanding escrow equal the
/// genesis supply minus exactly the fees of committed contract transactions
/// (contract fees are consumed by `commitEscrow`; payments only move funds).
/// Any partial escrow left behind by a non-atomic commit/abort would break
/// the equality.
#[test]
fn parallel_execution_conserves_supply_across_seeds() {
    for seed in [21u64, 22, 23] {
        let scenario = base_scenario(ProtocolKind::Orthrus, seed);
        let (sim, _) = orthrus_core::build_simulation(&scenario).expect("valid scenario");
        let genesis_supply: u128 = sim
            .actor_as::<orthrus_core::ReplicaNode>(orthrus_sim::NodeId::replica(0))
            .unwrap()
            .executor()
            .total_supply();
        let outcome = run(&scenario);
        assert_eq!(outcome.confirmed, outcome.submitted, "seed {seed}");

        // Re-run and inspect the final executor states directly. The
        // workload seed derives from the scenario seed at build time, so the
        // regenerated trace must come from `effective_workload()`.
        let workload = Workload::generate(scenario.effective_workload());
        let (mut sim, _) = orthrus_core::build_simulation(&scenario).expect("valid scenario");
        sim.run_until(orthrus_types::SimTime::ZERO + scenario.max_sim_time);
        for r in 0..scenario.config.num_replicas {
            let node = sim
                .actor_as::<orthrus_core::ReplicaNode>(orthrus_sim::NodeId::replica(r))
                .unwrap();
            let burned: u128 = workload
                .transactions
                .iter()
                .filter(|tx| {
                    tx.kind == TxKind::Contract
                        && node.executor().outcome(tx.id) == Some(TxOutcome::Committed)
                })
                .map(|tx| u128::from(tx.total_debit()))
                .sum();
            let supply = node.executor().total_supply();
            assert_eq!(supply + burned, genesis_supply, "seed {seed} replica {r}");
        }
    }
}

/// Per-shard load counters surface the skew of a hot-account workload: with
/// `zipf_exponent ≥ 1.2` the busiest account shard carries a clear multiple
/// of the average load.
#[test]
fn hot_account_workload_shows_shard_imbalance() {
    let mut scenario = base_scenario(ProtocolKind::Orthrus, 31);
    scenario.workload = WorkloadConfig::hot_accounts()
        .with_transactions(260)
        .with_seed(31);
    scenario.workload.num_accounts = 64;
    scenario.workload.num_shared_objects = 8;
    let outcome = run(&scenario);
    assert_eq!(outcome.confirmed, outcome.submitted);

    // Account shards only (the shared shard is last).
    let ops = &outcome.shard_ops[..outcome.shard_ops.len() - 1];
    let total: u64 = ops.iter().sum();
    let max = *ops.iter().max().unwrap();
    assert!(total > 0, "no account ops recorded: {ops:?}");
    let mean = total as f64 / ops.len() as f64;
    assert!(
        max as f64 >= 1.5 * mean,
        "expected a hot shard under zipf ≥ 1.2: ops {ops:?}"
    );
}
