//! Synthetic Ethereum-like workload generation.
//!
//! The paper's evaluation (§VII-A) replays ~200,000 real Ethereum
//! transactions drawn from 18,000 active accounts, of which 46% are simple
//! payments and the rest are contract interactions. The real trace is not
//! redistributable, so this module generates a synthetic workload that
//! preserves the characteristics the protocols are sensitive to:
//!
//! * account population size and Zipf-skewed sender/receiver popularity;
//! * the payment/contract mix (configurable, 46% payments by default);
//! * a small fraction of multi-payer payments (which exercise cross-instance
//!   escrow atomicity);
//! * contract transactions touching a bounded set of shared objects;
//! * a fixed payload size per transaction (500 bytes by default).

use crate::zipf::Zipf;
use orthrus_types::rng::{Rng, StdRng};
use orthrus_types::transaction::DEFAULT_PAYLOAD_BYTES;
use orthrus_types::{
    Amount, ClientId, ObjectKey, ObjectOp, OrthrusError, SharedTx, Transaction, TxId, TxKind,
};

/// Configuration of the synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of client accounts (the paper's trace has 18,000 active users).
    pub num_accounts: u64,
    /// Number of transactions to generate (the paper replays 200,000).
    pub num_transactions: usize,
    /// Fraction of payment transactions (0.0–1.0); the paper's trace has 46%.
    pub payment_share: f64,
    /// Fraction of *payment* transactions that have two payers (exercising
    /// cross-instance atomicity).
    pub multi_payer_share: f64,
    /// Number of distinct shared (contract) objects.
    pub num_shared_objects: u64,
    /// Zipf exponent of account popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Initial balance of every account.
    pub initial_balance: Amount,
    /// Largest single transfer amount.
    pub max_transfer: Amount,
    /// Payload bytes per transaction (the paper uses 500).
    pub payload_bytes: u32,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            num_accounts: 18_000,
            num_transactions: 200_000,
            payment_share: 0.46,
            multi_payer_share: 0.05,
            num_shared_objects: 512,
            zipf_exponent: 0.8,
            initial_balance: 1_000_000,
            max_transfer: 100,
            payload_bytes: DEFAULT_PAYLOAD_BYTES,
            seed: 42,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration for unit tests and quick examples.
    pub fn small() -> Self {
        Self {
            num_accounts: 64,
            num_transactions: 512,
            num_shared_objects: 8,
            ..Self::default()
        }
    }

    /// A hot-account workload: account popularity follows a steep Zipf law
    /// (`zipf_exponent = 1.4 ≥ 1.2`), concentrating most debits on a handful
    /// of accounts and therefore most execution load on the one SB instance
    /// those accounts route to. Used by the hot-account load-skew test.
    pub fn hot_accounts() -> Self {
        Self {
            zipf_exponent: 1.4,
            ..Self::default()
        }
    }

    /// Override the Zipf exponent of account popularity.
    pub fn with_zipf_exponent(mut self, exponent: f64) -> Self {
        self.zipf_exponent = exponent;
        self
    }

    /// Override the number of transactions.
    pub fn with_transactions(mut self, n: usize) -> Self {
        self.num_transactions = n;
        self
    }

    /// Override the payment share (Fig. 5's sweep knob).
    pub fn with_payment_share(mut self, share: f64) -> Self {
        self.payment_share = share.clamp(0.0, 1.0);
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Key space offset where shared (contract) objects live, far away from
    /// account keys.
    pub fn shared_object_key(&self, index: u64) -> ObjectKey {
        ObjectKey::new((1 << 48) + index)
    }

    /// Check the configuration for values the generator cannot honour.
    ///
    /// The generator itself clamps some knobs (shares) and loops around
    /// others, so a bad configuration used to *silently* produce a workload
    /// that did not match what was asked for. The scenario driver calls this
    /// up front and refuses to run instead.
    pub fn validate(&self) -> Result<(), OrthrusError> {
        if self.num_accounts < 2 {
            return Err(OrthrusError::Config(format!(
                "workload needs at least 2 accounts (payments have distinct payer and payee), \
                 got {}",
                self.num_accounts
            )));
        }
        if self.num_transactions == 0 {
            return Err(OrthrusError::Config(
                "workload must contain at least one transaction".into(),
            ));
        }
        for (name, share) in [
            ("payment_share", self.payment_share),
            ("multi_payer_share", self.multi_payer_share),
        ] {
            if !share.is_finite() || !(0.0..=1.0).contains(&share) {
                return Err(OrthrusError::Config(format!(
                    "{name} must be within [0, 1], got {share}"
                )));
            }
        }
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return Err(OrthrusError::Config(format!(
                "zipf_exponent must be a finite non-negative number, got {}",
                self.zipf_exponent
            )));
        }
        if self.max_transfer == 0 {
            return Err(OrthrusError::Config(
                "max_transfer must be at least 1".into(),
            ));
        }
        if self.payment_share < 1.0 && self.num_shared_objects == 0 {
            return Err(OrthrusError::Config(format!(
                "payment_share {} admits contract transactions, which need at least one shared \
                 object (num_shared_objects = 0)",
                self.payment_share
            )));
        }
        Ok(())
    }
}

/// A generated workload: genesis state plus the transaction trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The configuration that produced this workload.
    pub config: WorkloadConfig,
    /// Initial account balances (account key, balance).
    pub genesis_accounts: Vec<(ObjectKey, Amount)>,
    /// Shared objects that exist at genesis (key, initial value).
    pub genesis_shared: Vec<(ObjectKey, i64)>,
    /// The transaction trace, in submission order. Transactions are born as
    /// shared handles: the runner, the client actors and every replica bucket
    /// reference the same allocation.
    pub transactions: Vec<SharedTx>,
    /// Transactions generated per payer: client `c`'s ids are `(c, 0)` up
    /// to `(c, txs_per_client[c] - 1)`, the counts a run's `TxTable` is
    /// built from.
    pub txs_per_client: Vec<u64>,
}

impl Workload {
    /// Generate the workload described by `config`.
    pub fn generate(config: WorkloadConfig) -> Self {
        // orthrus: allow(ambient-rng): seeded directly from the scenario's workload seed — the sanctioned provenance.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let popularity = Zipf::new(config.num_accounts as usize, config.zipf_exponent);

        let genesis_accounts: Vec<(ObjectKey, Amount)> = (0..config.num_accounts)
            .map(|a| {
                (
                    ObjectKey::account_of(ClientId::new(a)),
                    config.initial_balance,
                )
            })
            .collect();
        let genesis_shared: Vec<(ObjectKey, i64)> = (0..config.num_shared_objects)
            .map(|i| (config.shared_object_key(i), 0))
            .collect();

        let mut transactions = Vec::with_capacity(config.num_transactions);
        let mut txs_per_client = vec![0u64; config.num_accounts as usize];
        for _ in 0..config.num_transactions {
            let payer_idx = popularity.sample(&mut rng) as u64;
            let payer = ClientId::new(payer_idx);
            let seq = txs_per_client[payer_idx as usize];
            txs_per_client[payer_idx as usize] += 1;
            let id = TxId::new(payer, seq);
            let amount = rng.gen_range(1..=config.max_transfer);
            let is_payment = rng.gen_bool(config.payment_share.clamp(0.0, 1.0));

            let tx = if is_payment {
                let payee = Self::pick_other(&popularity, &mut rng, payer_idx, config.num_accounts);
                if rng.gen_bool(config.multi_payer_share.clamp(0.0, 1.0)) {
                    let second =
                        Self::pick_other(&popularity, &mut rng, payer_idx, config.num_accounts);
                    let second_amount = rng.gen_range(1..=config.max_transfer);
                    Transaction::multi_payment(
                        id,
                        &[(payer, amount), (ClientId::new(second), second_amount)],
                        &[(ClientId::new(payee), amount + second_amount)],
                    )
                } else {
                    Transaction::payment(id, payer, ClientId::new(payee), amount)
                }
            } else {
                // Contract call: the payer (and sometimes a co-signer) pays a
                // fee and the contract updates one shared object.
                let object =
                    config.shared_object_key(rng.gen_range(0..config.num_shared_objects.max(1)));
                let op = if rng.gen_bool(0.5) {
                    ObjectOp::set_shared(object, rng.gen_range(0..1_000))
                } else {
                    ObjectOp::add_shared(object, rng.gen_range(-50..50))
                };
                if rng.gen_bool(0.3) {
                    let second =
                        Self::pick_other(&popularity, &mut rng, payer_idx, config.num_accounts);
                    Transaction::contract(
                        id,
                        &[(payer, amount), (ClientId::new(second), amount)],
                        vec![op],
                    )
                } else {
                    Transaction::contract(id, &[(payer, amount)], vec![op])
                }
            };
            transactions.push(tx.with_payload_bytes(config.payload_bytes).into_shared());
        }

        Self {
            config,
            genesis_accounts,
            genesis_shared,
            transactions,
            txs_per_client,
        }
    }

    fn pick_other(zipf: &Zipf, rng: &mut StdRng, exclude: u64, n: u64) -> u64 {
        debug_assert!(n > 1, "need at least two accounts");
        loop {
            let candidate = zipf.sample(rng) as u64;
            if candidate != exclude {
                return candidate;
            }
            // Fall back to uniform to avoid pathological loops on tiny,
            // extremely skewed populations.
            let candidate = rng.gen_range(0..n);
            if candidate != exclude {
                return candidate;
            }
        }
    }

    /// Number of transactions in the trace.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Fraction of payment transactions actually generated.
    pub fn payment_fraction(&self) -> f64 {
        if self.transactions.is_empty() {
            return 0.0;
        }
        let payments = self
            .transactions
            .iter()
            .filter(|tx| tx.kind == TxKind::Payment)
            .count();
        payments as f64 / self.transactions.len() as f64
    }

    /// Populate an executor's store with the genesis state.
    pub fn install_genesis(&self, store: &mut orthrus_execution::ObjectStore) {
        store.reserve(self.genesis_accounts.len() + self.genesis_shared.len());
        for (key, balance) in &self.genesis_accounts {
            store.create_account(*key, *balance);
        }
        for (key, value) in &self.genesis_shared {
            store.create_shared(*key, *value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_the_stock_configs() {
        assert!(WorkloadConfig::default().validate().is_ok());
        assert!(WorkloadConfig::small().validate().is_ok());
        assert!(WorkloadConfig::hot_accounts().validate().is_ok());
        // Payments-only workloads are allowed to have no shared objects.
        let payments_only = WorkloadConfig {
            num_shared_objects: 0,
            ..WorkloadConfig::small().with_payment_share(1.0)
        };
        assert!(payments_only.validate().is_ok());
    }

    #[test]
    fn validate_rejects_impossible_configs() {
        let cases: Vec<WorkloadConfig> = vec![
            WorkloadConfig {
                num_accounts: 1,
                ..WorkloadConfig::small()
            },
            WorkloadConfig {
                num_transactions: 0,
                ..WorkloadConfig::small()
            },
            WorkloadConfig {
                payment_share: 1.5,
                ..WorkloadConfig::small()
            },
            WorkloadConfig {
                multi_payer_share: -0.1,
                ..WorkloadConfig::small()
            },
            WorkloadConfig {
                zipf_exponent: f64::NAN,
                ..WorkloadConfig::small()
            },
            WorkloadConfig {
                max_transfer: 0,
                ..WorkloadConfig::small()
            },
            WorkloadConfig {
                num_shared_objects: 0,
                ..WorkloadConfig::small().with_payment_share(0.5)
            },
        ];
        for config in cases {
            assert!(config.validate().is_err(), "accepted: {config:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(WorkloadConfig::small());
        let b = Workload::generate(WorkloadConfig::small());
        assert_eq!(a.transactions, b.transactions);
        assert_eq!(a.genesis_accounts, b.genesis_accounts);
        let c = Workload::generate(WorkloadConfig::small().with_seed(7));
        assert_ne!(a.transactions, c.transactions);
    }

    #[test]
    fn payment_share_is_respected() {
        let config = WorkloadConfig {
            num_transactions: 5_000,
            ..WorkloadConfig::small()
        };
        let w = Workload::generate(config.clone().with_payment_share(0.46));
        assert!(
            (w.payment_fraction() - 0.46).abs() < 0.05,
            "{}",
            w.payment_fraction()
        );
        let all_payments = Workload::generate(config.clone().with_payment_share(1.0));
        assert_eq!(all_payments.payment_fraction(), 1.0);
        let no_payments = Workload::generate(config.with_payment_share(0.0));
        assert_eq!(no_payments.payment_fraction(), 0.0);
    }

    #[test]
    fn every_transaction_validates() {
        let w = Workload::generate(WorkloadConfig::small().with_transactions(1_000));
        for tx in &w.transactions {
            tx.validate().expect("generated transaction must be valid");
            assert_eq!(tx.payload_bytes, DEFAULT_PAYLOAD_BYTES);
        }
    }

    #[test]
    fn ids_are_unique() {
        let w = Workload::generate(WorkloadConfig::small().with_transactions(2_000));
        let mut ids: Vec<TxId> = w.transactions.iter().map(|tx| tx.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), w.transactions.len());
    }

    /// A run's transaction table assumes each payer's ids are numbered
    /// densely from 0 and counted in `txs_per_client`.
    #[test]
    fn ids_are_dense_per_client_and_counted() {
        let w = Workload::generate(WorkloadConfig::small().with_transactions(2_000));
        let mut ids: Vec<TxId> = w.transactions.iter().map(|tx| tx.id).collect();
        ids.sort_unstable();
        let expected: Vec<TxId> = (0..w.txs_per_client.len() as u64)
            .flat_map(|c| {
                (0..w.txs_per_client[c as usize]).map(move |s| TxId::new(ClientId::new(c), s))
            })
            .collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn genesis_matches_population() {
        let w = Workload::generate(WorkloadConfig::small());
        assert_eq!(w.genesis_accounts.len(), 64);
        assert_eq!(w.genesis_shared.len(), 8);
        let mut store = orthrus_execution::ObjectStore::new();
        w.install_genesis(&mut store);
        assert_eq!(store.len(), 64 + 8);
        assert_eq!(
            store.balance(ObjectKey::account_of(ClientId::new(0))),
            w.config.initial_balance
        );
    }

    #[test]
    fn sender_popularity_is_skewed() {
        let w = Workload::generate(WorkloadConfig {
            num_transactions: 20_000,
            zipf_exponent: 1.0,
            ..WorkloadConfig::small()
        });
        // Count how many transactions are debited from the 5 most popular
        // accounts; with 64 accounts and uniform choice this would be ~7.8%.
        let mut counts = vec![0u32; 64];
        for tx in &w.transactions {
            if let Some(payer) = tx.payers().next() {
                counts[payer.value() as usize] += 1;
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: u32 = counts.iter().take(5).sum();
        let share = head as f64 / w.transactions.len() as f64;
        assert!(share > 0.2, "head share {share}");
    }

    /// Whatever the configuration, generated transactions are structurally
    /// valid, payments touch only owned objects and contracts touch at least
    /// one shared object. (Seeded-loop replacement for the former
    /// property-based test.)
    #[test]
    fn generated_transactions_are_well_formed_across_configs() {
        for seed in 0u64..30 {
            let mut knob = StdRng::seed_from_u64(seed ^ 0xA5A5);
            let share: f64 = knob.gen_range(0.0..1.0);
            let multi: f64 = knob.gen_range(0.0..0.5);
            let config = WorkloadConfig {
                payment_share: share,
                multi_payer_share: multi,
                num_transactions: 200,
                ..WorkloadConfig::small()
            }
            .with_seed(seed);
            let w = Workload::generate(config);
            for tx in &w.transactions {
                assert!(tx.validate().is_ok(), "seed {seed}");
                match tx.kind {
                    TxKind::Payment => {
                        assert_eq!(tx.shared_objects().count(), 0, "seed {seed}");
                        assert!(tx.total_debit() > 0, "seed {seed}");
                    }
                    TxKind::Contract => {
                        assert!(tx.shared_objects().count() >= 1, "seed {seed}");
                    }
                }
            }
        }
    }
}
