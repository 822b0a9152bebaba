//! Differential tests for the sharded execution engine.
//!
//! The executor's state was split into per-instance shards (accounts routed
//! by `ObjectKey::shard`, shared objects in a dedicated shard) with
//! incremental per-shard digests, and `Replica::process_partial_logs` gained
//! a parallel mode that executes independent instances' payment fast paths
//! on a shard pool. None of that may change *what* gets computed:
//!
//! * sharded and unsharded stores holding the same objects have the same
//!   digest (the accumulator is shard-layout independent);
//! * the incremental digest always equals a full rescan;
//! * executing a partial-log schedule through the shard pool is bit-identical
//!   to the single-threaded reference walk — same outcomes, same digests,
//!   same counts — for any thread count;
//! * the Block-STM optimistic engine (`execution_mode = stm`) lands on the
//!   same bit-identical result — outcomes, digests, per-shard op counts —
//!   from speculative execution plus trace validation, again for any thread
//!   count, and replaying a schedule through it is idempotent;
//! * executor snapshots (`Executor::clone`, the payload of checkpoint and
//!   crash-recovery state transfer) are copy-on-write: post-snapshot writes
//!   by the live executor never leak into an in-flight snapshot;
//! * at the scenario level, all three execution modes (serial reference,
//!   sharded demotion, optimistic STM) produce identical traces for all six
//!   protocols on uniform and hot-account (zipf 1.4) workloads, including
//!   straggler and crash-recovery scenarios, and conserve token supply.

use orthrus::prelude::*;
use orthrus_core::parallel_for_mut;
use orthrus_execution::Executor;
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
// Executor level: schedule API vs per-transaction reference walk
// ----------------------------------------------------------------------

fn account(c: u64) -> ObjectKey {
    ObjectKey::account_of(ClientId::new(c))
}

/// Build a random plog schedule: `m` instances, several blocks each, mixing
/// single-payer payments, cross-instance multi-payer payments and contract
/// transactions, bucketed the same way the partition module buckets them.
fn random_schedule(
    seed: u64,
    m: u32,
    accounts: u64,
    txs: usize,
) -> (Vec<(InstanceId, SharedBlock)>, Vec<Arc<Transaction>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let assign = |key: ObjectKey| InstanceId::new(key.shard(m));
    let mut all: Vec<Arc<Transaction>> = Vec::new();
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
        all.push(tx);
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
    (schedule, all)
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

/// The heart of the tentpole: for random schedules, the serial reference walk
/// (per-tx `process_plog_tx`, single shard and sharded), the schedule API
/// driven serially, and the schedule API driven by a multi-threaded pool all
/// produce identical digests, outcomes, counts and supply.
#[test]
fn parallel_schedule_matches_serial_reference_walk() {
    for seed in 0u64..15 {
        let m = [4u32, 8][seed as usize % 2];
        let accounts = 48;
        let (schedule, txs) = random_schedule(seed, m, accounts, 180);
        let assign = move |key: ObjectKey| InstanceId::new(key.shard(m));

        // Reference: per-transaction walk on an unsharded store.
        let mut reference = executor_for(1, accounts);
        let mut ref_outcomes = Vec::new();
        for (instance, block) in &schedule {
            for tx in &block.txs {
                ref_outcomes.push((tx.id, reference.process_plog_tx(tx, *instance, &assign)));
            }
        }

        // Same walk on a sharded store.
        let mut sharded_serial = executor_for(m, accounts);
        for (instance, block) in &schedule {
            for tx in &block.txs {
                sharded_serial.process_plog_tx(tx, *instance, &assign);
            }
        }

        // Schedule API, jobs run in place and on a 4-thread pool.
        let mut inplace = executor_for(m, accounts);
        let inplace_outcomes = inplace.process_plog_schedule(&schedule, &assign, |jobs| {
            for job in jobs {
                job.run();
            }
        });
        let mut pooled = executor_for(m, accounts);
        let pooled_outcomes = pooled.process_plog_schedule(&schedule, &assign, |jobs| {
            parallel_for_mut(jobs, 4, |job| job.run());
        });

        for exec in [&sharded_serial, &inplace, &pooled] {
            assert_eq!(
                exec.state_digest(),
                reference.state_digest(),
                "seed {seed}: digests diverged"
            );
            assert_eq!(exec.committed_count(), reference.committed_count());
            assert_eq!(exec.aborted_count(), reference.aborted_count());
            assert_eq!(exec.total_supply(), reference.total_supply());
            assert_eq!(exec.escrow_log().len(), reference.escrow_log().len());
            for tx in &txs {
                assert_eq!(exec.outcome(tx.id), reference.outcome(tx.id), "seed {seed}");
            }
        }
        assert_eq!(ref_outcomes, inplace_outcomes, "seed {seed}");
        assert_eq!(ref_outcomes, pooled_outcomes, "seed {seed}");
        assert_eq!(inplace.state_digest(), inplace.store().rescan_digest());
    }
}

/// Re-running a schedule (re-delivery after recovery) must be idempotent in
/// both modes.
#[test]
fn reprocessing_a_schedule_is_idempotent() {
    let m = 4;
    let (schedule, _) = random_schedule(77, m, 32, 100);
    let assign = move |key: ObjectKey| InstanceId::new(key.shard(m));
    let mut exec = executor_for(m, 32);
    exec.process_plog_schedule(&schedule, &assign, |jobs| {
        parallel_for_mut(jobs, 3, |job| job.run());
    });
    let digest = exec.state_digest();
    let committed = exec.committed_count();
    let replay = exec.process_plog_schedule(&schedule, &assign, |jobs| {
        parallel_for_mut(jobs, 3, |job| job.run());
    });
    assert_eq!(exec.state_digest(), digest);
    assert_eq!(exec.committed_count(), committed);
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

/// The Block-STM engine against the serial reference walk: for random mixed
/// schedules (payments, cross-instance multi-payer payments, contracts) the
/// optimistic execute/validate/commit pipeline must land on bit-identical
/// outcomes, digests, counters and per-shard op counts at any thread count.
#[test]
fn stm_schedule_matches_serial_reference_walk() {
    for seed in 0u64..15 {
        let m = [4u32, 8][seed as usize % 2];
        let accounts = 48;
        let (schedule, txs) = random_schedule(seed, m, accounts, 180);
        let assign = move |key: ObjectKey| InstanceId::new(key.shard(m));

        let mut reference = executor_for(m, accounts);
        let mut ref_outcomes = Vec::new();
        for (instance, block) in &schedule {
            for tx in &block.txs {
                ref_outcomes.push((tx.id, reference.process_plog_tx(tx, *instance, &assign)));
            }
        }

        for threads in [1usize, 4] {
            let mut stm = executor_for(m, accounts);
            let (outcomes, stats) =
                stm.process_plog_schedule_stm_with_stats(&schedule, &assign, threads);
            assert_eq!(outcomes, ref_outcomes, "seed {seed} threads {threads}");
            assert_eq!(
                stm.state_digest(),
                reference.state_digest(),
                "seed {seed} threads {threads}: STM digest diverged"
            );
            assert_eq!(stm.state_digest(), stm.store().rescan_digest());
            assert_eq!(stm.committed_count(), reference.committed_count());
            assert_eq!(stm.aborted_count(), reference.aborted_count());
            assert_eq!(stm.total_supply(), reference.total_supply());
            assert_eq!(stm.escrow_log().len(), reference.escrow_log().len());
            assert_eq!(
                stm.store().shard_op_counts(),
                reference.store().shard_op_counts(),
                "seed {seed} threads {threads}: coalesced commit broke op counts"
            );
            assert!(stats.reexecutions <= stats.occurrences);
            assert_eq!(stats.occurrences as usize, ref_outcomes.len());
            for tx in &txs {
                assert_eq!(stm.outcome(tx.id), reference.outcome(tx.id), "seed {seed}");
            }
        }
    }
}

/// Re-delivering a schedule to the STM engine (recovery replay) must be
/// idempotent: known outcomes short-circuit speculation, pending contract
/// escrows validate as already-held, and no state moves.
#[test]
fn stm_reprocessing_a_schedule_is_idempotent() {
    let m = 4;
    let (schedule, _) = random_schedule(77, m, 32, 100);
    let assign = move |key: ObjectKey| InstanceId::new(key.shard(m));
    let mut exec = executor_for(m, 32);
    exec.process_plog_schedule_stm(&schedule, &assign, 3);
    let digest = exec.state_digest();
    let committed = exec.committed_count();
    let supply = exec.total_supply();
    let replay = exec.process_plog_schedule_stm(&schedule, &assign, 3);
    assert_eq!(exec.state_digest(), digest);
    assert_eq!(exec.committed_count(), committed);
    assert_eq!(exec.total_supply(), supply);
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
    let (schedule, _) = random_schedule(3, m, 32, 120);
    let assign = move |key: ObjectKey| InstanceId::new(key.shard(m));
    let mut exec = executor_for(m, 32);
    exec.process_plog_schedule_stm(&schedule, &assign, 2);

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
// Scenario level: execution modes across protocols and faults
// ----------------------------------------------------------------------

fn fingerprint(outcome: &ScenarioOutcome) -> (usize, usize, u64, u64, u64, Vec<u64>) {
    (
        outcome.submitted,
        outcome.confirmed,
        outcome.blocks_delivered,
        outcome.report.bytes_sent,
        outcome.report.messages_sent,
        outcome.state_digests.iter().map(|(_, d)| d.0).collect(),
    )
}

/// The scenario every test below varies, on the serial reference walk (the
/// default is `ShardedDemotion`), so "serial" sides need no override.
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
        .with_execution_mode(ExecutionMode::Serial)
}

fn run(scenario: &Scenario) -> ScenarioOutcome {
    run_scenario(scenario).expect("scenario must validate")
}

/// Parallel and serial partial-log execution are bit-identical for every
/// protocol — same fingerprints, same latency trace, same per-shard stats.
#[test]
fn parallel_execution_is_bit_identical_for_all_protocols() {
    for protocol in ProtocolKind::ALL {
        for seed in [5u64, 6] {
            let serial = run(&base_scenario(protocol, seed));
            let parallel =
                run(&base_scenario(protocol, seed)
                    .with_execution_mode(ExecutionMode::ShardedDemotion));
            assert_eq!(
                fingerprint(&serial),
                fingerprint(&parallel),
                "{protocol} seed {seed} diverged across execution modes"
            );
            assert_eq!(serial.avg_latency, parallel.avg_latency, "{protocol}");
            assert_eq!(serial.report, parallel.report, "{protocol}");
            assert_eq!(serial.shard_objects, parallel.shard_objects, "{protocol}");
            assert_eq!(serial.shard_ops, parallel.shard_ops, "{protocol}");
            assert_eq!(serial.confirmed, serial.submitted, "{protocol} seed {seed}");
        }
    }
}

/// The same bit-identity must hold under the paper's fault scenarios: a 10×
/// straggler leader and a crashed replica.
#[test]
fn parallel_execution_is_bit_identical_under_faults() {
    let crash_plan = || {
        FaultPlan::none().with_crash(
            ReplicaId::new(3),
            SimTime::ZERO + Duration::from_millis(300),
        )
    };
    for protocol in [
        ProtocolKind::Orthrus,
        ProtocolKind::Ladon,
        ProtocolKind::Iss,
    ] {
        let straggler_serial = run(&base_scenario(protocol, 9).with_straggler());
        let straggler_parallel = run(&base_scenario(protocol, 9)
            .with_straggler()
            .with_execution_mode(ExecutionMode::ShardedDemotion));
        assert_eq!(
            fingerprint(&straggler_serial),
            fingerprint(&straggler_parallel),
            "{protocol} diverged under a straggler"
        );

        let crash_serial = run(&base_scenario(protocol, 10).with_faults(crash_plan()));
        let crash_parallel = run(&base_scenario(protocol, 10)
            .with_faults(crash_plan())
            .with_execution_mode(ExecutionMode::ShardedDemotion));
        assert_eq!(
            fingerprint(&crash_serial),
            fingerprint(&crash_parallel),
            "{protocol} diverged under a crash"
        );
    }
}

/// All three execution modes are bit-identical for every protocol on both a
/// uniform and a hot-account (zipf 1.4) workload — the optimistic STM engine
/// must be indistinguishable from the serial reference walk and the demotion
/// scheduler in everything but wall-clock.
#[test]
fn optimistic_stm_is_bit_identical_for_all_protocols() {
    for protocol in ProtocolKind::ALL {
        for hot in [false, true] {
            let scenario_for = |mode: ExecutionMode| {
                let mut scenario = base_scenario(protocol, 12).with_execution_mode(mode);
                if hot {
                    scenario.workload = scenario.workload.with_zipf_exponent(1.4);
                }
                scenario
            };
            let label = if hot { "zipf-1.4" } else { "uniform" };
            let serial = run(&scenario_for(ExecutionMode::Serial));
            let demotion = run(&scenario_for(ExecutionMode::ShardedDemotion));
            let stm = run(&scenario_for(ExecutionMode::OptimisticStm));
            assert_eq!(
                fingerprint(&serial),
                fingerprint(&stm),
                "{protocol} ({label}): STM diverged from the serial reference"
            );
            assert_eq!(
                fingerprint(&serial),
                fingerprint(&demotion),
                "{protocol} ({label}): demotion diverged from the serial reference"
            );
            assert_eq!(serial.avg_latency, stm.avg_latency, "{protocol} ({label})");
            assert_eq!(serial.report, stm.report, "{protocol} ({label})");
            assert_eq!(serial.shard_ops, stm.shard_ops, "{protocol} ({label})");
            assert_eq!(serial.shard_objects, stm.shard_objects, "{protocol}");
            assert_eq!(serial.confirmed, serial.submitted, "{protocol} ({label})");
        }
    }
}

/// STM bit-identity must survive the paper's fault scenarios: a 10× straggler
/// leader and a replica that crashes and later recovers through checkpoint
/// state transfer (whose payload is a COW executor snapshot).
#[test]
fn optimistic_stm_is_bit_identical_under_faults() {
    let recover_plan = || {
        FaultPlan::none().with_crash_recover(
            ReplicaId::new(2),
            SimTime::ZERO + Duration::from_millis(250),
            SimTime::ZERO + Duration::from_millis(600),
        )
    };
    for protocol in [
        ProtocolKind::Orthrus,
        ProtocolKind::Ladon,
        ProtocolKind::Iss,
    ] {
        let straggler = |mode: ExecutionMode| {
            run(&base_scenario(protocol, 9)
                .with_straggler()
                .with_execution_mode(mode))
        };
        assert_eq!(
            fingerprint(&straggler(ExecutionMode::Serial)),
            fingerprint(&straggler(ExecutionMode::OptimisticStm)),
            "{protocol} STM diverged under a straggler"
        );

        let recover = |mode: ExecutionMode| {
            run(&base_scenario(protocol, 11)
                .with_faults(recover_plan())
                .with_execution_mode(mode))
        };
        assert_eq!(
            fingerprint(&recover(ExecutionMode::Serial)),
            fingerprint(&recover(ExecutionMode::OptimisticStm)),
            "{protocol} STM diverged under crash-recovery"
        );
    }
}

/// Conservation of supply survives the parallel path: after an Orthrus run,
/// every replica's spendable balances plus outstanding escrow equal the
/// genesis supply minus exactly the fees of committed contract transactions
/// (contract fees are consumed by `commitEscrow`; payments only move funds).
/// Any partial escrow left behind by a non-atomic commit/abort would break
/// the equality.
#[test]
fn parallel_execution_conserves_supply_across_seeds() {
    for seed in [21u64, 22, 23] {
        let scenario = base_scenario(ProtocolKind::Orthrus, seed)
            .with_execution_mode(ExecutionMode::ShardedDemotion);
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
/// of the average load, and the counters agree across execution modes.
#[test]
fn hot_account_workload_shows_shard_imbalance() {
    let mut scenario = base_scenario(ProtocolKind::Orthrus, 31);
    scenario.workload = WorkloadConfig::hot_accounts()
        .with_transactions(260)
        .with_seed(31);
    scenario.workload.num_accounts = 64;
    scenario.workload.num_shared_objects = 8;
    let serial = run(&scenario);
    let parallel = run(&scenario
        .clone()
        .with_execution_mode(ExecutionMode::ShardedDemotion));
    assert_eq!(serial.shard_ops, parallel.shard_ops);
    assert_eq!(serial.confirmed, serial.submitted);

    // Account shards only (the shared shard is last).
    let ops = &serial.shard_ops[..serial.shard_ops.len() - 1];
    let total: u64 = ops.iter().sum();
    let max = *ops.iter().max().unwrap();
    assert!(total > 0, "no account ops recorded: {ops:?}");
    let mean = total as f64 / ops.len() as f64;
    assert!(
        max as f64 >= 1.5 * mean,
        "expected a hot shard under zipf ≥ 1.2: ops {ops:?}"
    );
}
