//! Transactions (paper §III-B).
//!
//! A transaction `tx = (O, id, σ)` lists the objects it touches together
//! with the operation per object, carries a unique identifier and the owner
//! signatures authorising its decremental operations.
//!
//! Transactions fall into two categories:
//!
//! * **Payment transactions** involve only owned objects (credits and
//!   debits). They are conflict-free across payers and are the transactions
//!   Orthrus confirms through *partial ordering* alone.
//! * **Contract transactions** additionally touch shared objects (or use
//!   non-commutative operations) and must be confirmed through *global
//!   ordering*.

use crate::crypto::{Digest, KeyPair, Signature};
use crate::ids::{ClientId, ObjectKey, TxId};
use crate::inlinevec::InlineVec;
use crate::object::{Amount, ObjectOp, Operation};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A reference-counted handle to an immutable transaction.
///
/// A transaction enters the system once (at the client) and is then
/// referenced — by buckets, blocks, partial logs and the global log — through
/// this shared handle; no layer copies the payload.
pub type SharedTx = Arc<Transaction>;

/// The category of a transaction, which determines its confirmation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// Conflict-free transfer between owned objects; confirmed via partial
    /// ordering (the fast path).
    Payment,
    /// General transaction touching shared objects; confirmed via global
    /// ordering.
    Contract,
}

/// A transaction's object operations: up to three legs (two payers and a
/// payee, or two payers and a contract write) are stored inline.
pub type Legs = InlineVec<ObjectOp, 3>;

/// A transaction's owner signatures: up to two payers' are stored inline.
pub type Signatures = InlineVec<Signature, 2>;

/// A transaction.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// Unique identifier (client id + client-local sequence number).
    pub id: TxId,
    /// The set `O` of object operations.
    pub ops: Legs,
    /// Payment or contract.
    pub kind: TxKind,
    /// Signatures of the owners of all owned objects with decremental
    /// operations (σ in the paper). One signature per distinct payer.
    pub signatures: Signatures,
    /// Size of the client payload in bytes. The paper's evaluation uses
    /// 500-byte payloads; the network model charges bandwidth per byte.
    pub payload_bytes: u32,
    /// Memoized content digest: computed on first use, shared by every holder
    /// of the same [`SharedTx`] handle. Excluded from equality.
    digest_memo: OnceLock<Digest>,
}

impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.ops == other.ops
            && self.kind == other.kind
            && self.signatures == other.signatures
            && self.payload_bytes == other.payload_bytes
    }
}

impl Eq for Transaction {}

/// Default client payload size used by the paper's evaluation (§VII-A).
pub const DEFAULT_PAYLOAD_BYTES: u32 = 500;

impl Transaction {
    /// Build a single-payer, single-payee payment: `payer → payee` of
    /// `amount` tokens, signed by the payer.
    pub fn payment(id: TxId, payer: ClientId, payee: ClientId, amount: Amount) -> Self {
        Self::multi_payment(id, &[(payer, amount)], &[(payee, amount)])
    }

    /// Build a multi-payer / multi-payee payment. Each payer entry debits the
    /// payer by the given amount; each payee entry credits the payee. Entries
    /// naming the same payer are aggregated into one debit leg (a transaction
    /// carries at most one decremental operation per object, matching the
    /// paper's object-set model).
    ///
    /// The paper splits such transactions into single-payer sub-transactions
    /// handled by (possibly) different instances and glues them back together
    /// with the escrow mechanism (§IV-C, Challenge-I).
    pub fn multi_payment(
        id: TxId,
        payers: &[(ClientId, Amount)],
        payees: &[(ClientId, Amount)],
    ) -> Self {
        let mut tx = Self::signed_debits(id, TxKind::Payment, payers);
        tx.ops.extend(
            payees
                .iter()
                .map(|&(payee, amount)| ObjectOp::credit(ObjectKey::account_of(payee), amount)),
        );
        tx
    }

    /// A transaction of `kind` with one debit leg per payer account (entries
    /// naming the same account merged into one leg, in first-seen order) and
    /// each leg's owner signature. Callers append their remaining legs.
    fn signed_debits(id: TxId, kind: TxKind, payers: &[(ClientId, Amount)]) -> Self {
        let mut tx = Self {
            id,
            ops: Legs::new(),
            kind,
            signatures: Signatures::new(),
            payload_bytes: DEFAULT_PAYLOAD_BYTES,
            digest_memo: OnceLock::new(),
        };
        for &(payer, amount) in payers {
            let key = ObjectKey::account_of(payer);
            match tx.ops.iter_mut().find(|leg| leg.key == key) {
                Some(leg) => *leg = ObjectOp::debit(key, leg.op.amount() + amount),
                None => tx.ops.push(ObjectOp::debit(key, amount)),
            }
        }
        for leg in tx.ops.iter() {
            let digest = Self::authorisation_digest(id, leg.key, leg.op.amount());
            tx.signatures
                .push(KeyPair::for_owner(leg.key.value()).sign(digest));
        }
        tx
    }

    /// Build a contract transaction: the listed payers each pay `fee` into
    /// the contract, and the contract performs the given shared-object
    /// operations.
    ///
    /// This mirrors the running example of Appendix B: "a smart contract that
    /// requires two clients to invoke it together, incurring a cost of $1 per
    /// client".
    pub fn contract(id: TxId, payers: &[(ClientId, Amount)], shared_ops: Vec<ObjectOp>) -> Self {
        let mut tx = Self::signed_debits(id, TxKind::Contract, payers);
        tx.ops.extend(shared_ops);
        tx
    }

    /// Construct a transaction from raw parts, inferring its kind.
    ///
    /// The kind is `Payment` iff every operation is a credit or debit on an
    /// owned object; otherwise it is `Contract`.
    pub fn from_ops(id: TxId, ops: Vec<ObjectOp>, signatures: Vec<Signature>) -> Self {
        let kind = if ops.iter().all(|o| !o.is_shared() && o.op.is_payment_op()) {
            TxKind::Payment
        } else {
            TxKind::Contract
        };
        Self {
            id,
            ops: ops.into(),
            kind,
            signatures: signatures.into(),
            payload_bytes: DEFAULT_PAYLOAD_BYTES,
            digest_memo: OnceLock::new(),
        }
    }

    /// Override the payload size (bytes) carried by this transaction.
    pub fn with_payload_bytes(mut self, bytes: u32) -> Self {
        self.payload_bytes = bytes;
        // The payload size participates in the digest; a builder-style
        // override invalidates anything memoized on the intermediate value.
        self.digest_memo = OnceLock::new();
        self
    }

    /// Wrap the transaction into a shared handle (the form in which it moves
    /// through buckets, blocks and logs).
    pub fn into_shared(self) -> SharedTx {
        Arc::new(self)
    }

    /// Digest a payer's authorisation of a single debit leg.
    pub fn authorisation_digest(id: TxId, payer: ObjectKey, amount: Amount) -> Digest {
        Digest::of(&(id, payer, amount))
    }

    /// Digest of the whole transaction (used inside block digests). Memoized:
    /// every holder of the same shared handle pays the hash at most once.
    pub fn digest(&self) -> Digest {
        *self.digest_memo.get_or_init(|| self.compute_digest())
    }

    /// Recompute the digest from the contents, bypassing the memo. Integrity
    /// checks ([`crate::block::Block::verify`]) use this.
    pub fn compute_digest(&self) -> Digest {
        Digest::of(&(self.id, &self.ops, self.payload_bytes))
    }

    /// Is this a payment transaction (fast-path eligible)?
    #[inline]
    pub fn is_payment(&self) -> bool {
        self.kind == TxKind::Payment
    }

    /// Is this a contract transaction (requires global ordering)?
    #[inline]
    pub fn is_contract(&self) -> bool {
        self.kind == TxKind::Contract
    }

    /// Keys of the owned objects this transaction debits (the payers).
    /// Bucket assignment and escrow both iterate over exactly these legs.
    pub fn payers(&self) -> impl Iterator<Item = ObjectKey> + '_ {
        self.ops
            .iter()
            .filter(|o| o.is_owned_decrement())
            .map(|o| o.key)
    }

    /// Keys of the owned objects this transaction credits (the payees).
    pub fn payees(&self) -> impl Iterator<Item = ObjectKey> + '_ {
        self.ops
            .iter()
            .filter(|o| o.is_owned_increment())
            .map(|o| o.key)
    }

    /// Keys of the shared objects this transaction touches.
    pub fn shared_objects(&self) -> impl Iterator<Item = ObjectKey> + '_ {
        self.ops.iter().filter(|o| o.is_shared()).map(|o| o.key)
    }

    /// Number of distinct payers.
    pub fn payer_count(&self) -> usize {
        let mut payers: Vec<ObjectKey> = self.payers().collect();
        payers.sort_unstable();
        payers.dedup();
        payers.len()
    }

    /// Does the transaction have more than one payer (and therefore span
    /// multiple buckets / instances)?
    pub fn is_multi_payer(&self) -> bool {
        self.payer_count() > 1
    }

    /// Total amount debited across all payer legs.
    pub fn total_debit(&self) -> Amount {
        self.ops
            .iter()
            .filter(|o| o.is_owned_decrement())
            .map(|o| o.op.amount())
            .sum()
    }

    /// Total amount credited across all payee legs.
    pub fn total_credit(&self) -> Amount {
        self.ops
            .iter()
            .filter(|o| o.is_owned_increment())
            .map(|o| o.op.amount())
            .sum()
    }

    /// Verify the structure and authorisation of the transaction (paper
    /// §V-A: "it verifies the validity of the transaction's format and checks
    /// the owner's signature").
    ///
    /// Checks performed:
    /// 1. the transaction touches at least one owned object (every
    ///    transaction is initiated by a client whose account is owned);
    /// 2. a payment transaction contains no shared-object legs;
    /// 3. every owned-object debit leg is covered by a valid signature of the
    ///    object's owner.
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::OrthrusError;
        if !self
            .ops
            .iter()
            .any(|o| o.object_type == crate::object::ObjectType::Owned)
        {
            return Err(OrthrusError::InvalidTransaction {
                id: self.id,
                reason: "transaction must involve at least one owned object".into(),
            });
        }
        if self.kind == TxKind::Payment && self.ops.iter().any(|o| o.is_shared()) {
            return Err(OrthrusError::InvalidTransaction {
                id: self.id,
                reason: "payment transaction must not touch shared objects".into(),
            });
        }
        // At most one decremental operation per object: the escrow log keys
        // reservations by (object, transaction), so duplicate debit legs on
        // the same account would alias each other. Legs are few, so a
        // pairwise scan beats collecting and sorting the keys.
        let debits = || self.ops.iter().filter(|o| o.is_owned_decrement());
        if debits()
            .enumerate()
            .any(|(i, leg)| debits().skip(i + 1).any(|later| later.key == leg.key))
        {
            return Err(OrthrusError::InvalidTransaction {
                id: self.id,
                reason: "duplicate decremental operations on the same object".into(),
            });
        }
        for leg in self.ops.iter().filter(|o| o.is_owned_decrement()) {
            let amount = match leg.op {
                Operation::Debit(a) => a,
                _ => unreachable!("is_owned_decrement implies Debit"),
            };
            let digest = Self::authorisation_digest(self.id, leg.key, amount);
            let authorised = self
                .signatures
                .iter()
                .any(|sig| sig.signer.owner == leg.key.value() && sig.verify(digest));
            if !authorised {
                return Err(OrthrusError::MissingAuthorisation {
                    id: self.id,
                    payer: leg.key,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            TxKind::Payment => "payment",
            TxKind::Contract => "contract",
        };
        write!(f, "{} {} ({} ops)", kind, self.id, self.ops.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn tx_id(seq: u64) -> TxId {
        TxId::new(ClientId::new(1), seq)
    }

    #[test]
    fn simple_payment_shape() {
        let tx = Transaction::payment(tx_id(0), ClientId::new(1), ClientId::new(2), 10);
        assert!(tx.is_payment());
        assert!(!tx.is_multi_payer());
        assert_eq!(tx.payers().collect::<Vec<_>>(), vec![ObjectKey::new(1)]);
        assert_eq!(tx.payees().collect::<Vec<_>>(), vec![ObjectKey::new(2)]);
        assert_eq!(tx.total_debit(), 10);
        assert_eq!(tx.total_credit(), 10);
        assert!(tx.validate().is_ok());
    }

    #[test]
    fn multi_payer_payment_spans_buckets() {
        let tx = Transaction::multi_payment(
            tx_id(1),
            &[(ClientId::new(1), 1), (ClientId::new(2), 1)],
            &[(ClientId::new(3), 2)],
        );
        assert!(tx.is_payment());
        assert!(tx.is_multi_payer());
        assert_eq!(tx.payer_count(), 2);
        assert_eq!(tx.total_debit(), 2);
        assert_eq!(tx.total_credit(), 2);
        assert!(tx.validate().is_ok());
    }

    #[test]
    fn contract_transaction_is_detected() {
        let tx = Transaction::contract(
            tx_id(2),
            &[(ClientId::new(1), 1), (ClientId::new(2), 1)],
            vec![ObjectOp::set_shared(ObjectKey::new(999), 42)],
        );
        assert!(tx.is_contract());
        assert_eq!(tx.shared_objects().count(), 1);
        assert_eq!(tx.payer_count(), 2);
        assert!(tx.validate().is_ok());
    }

    #[test]
    fn kind_inference_from_ops() {
        let payment_ops = vec![
            ObjectOp::debit(ObjectKey::new(1), 5),
            ObjectOp::credit(ObjectKey::new(2), 5),
        ];
        let tx = Transaction::from_ops(tx_id(3), payment_ops, vec![]);
        assert_eq!(tx.kind, TxKind::Payment);

        let contract_ops = vec![
            ObjectOp::debit(ObjectKey::new(1), 5),
            ObjectOp::set_shared(ObjectKey::new(7), 1),
        ];
        let tx = Transaction::from_ops(tx_id(4), contract_ops, vec![]);
        assert_eq!(tx.kind, TxKind::Contract);
    }

    #[test]
    fn validation_rejects_missing_signature() {
        let ops = vec![
            ObjectOp::debit(ObjectKey::new(1), 5),
            ObjectOp::credit(ObjectKey::new(2), 5),
        ];
        let tx = Transaction::from_ops(tx_id(5), ops, vec![]);
        assert!(tx.validate().is_err());
    }

    #[test]
    fn validation_rejects_wrong_signer() {
        let id = tx_id(6);
        let ops = vec![
            ObjectOp::debit(ObjectKey::new(1), 5),
            ObjectOp::credit(ObjectKey::new(2), 5),
        ];
        // Signature from the wrong owner (account 2 signs account 1's debit).
        let digest = Transaction::authorisation_digest(id, ObjectKey::new(1), 5);
        let sig = KeyPair::for_owner(2).sign(digest);
        let tx = Transaction::from_ops(id, ops, vec![sig]);
        assert!(tx.validate().is_err());
    }

    #[test]
    fn validation_rejects_payment_with_shared_object() {
        let id = tx_id(7);
        let mut tx = Transaction::payment(id, ClientId::new(1), ClientId::new(2), 1);
        tx.ops.push(ObjectOp::set_shared(ObjectKey::new(9), 1));
        // kind still says Payment, so validation must flag the inconsistency.
        assert!(tx.validate().is_err());
    }

    #[test]
    fn validation_rejects_duplicate_debits_on_one_object() {
        let id = tx_id(11);
        let sign = |key: u64, amount| {
            KeyPair::for_owner(key).sign(Transaction::authorisation_digest(
                id,
                ObjectKey::new(key),
                amount,
            ))
        };
        let legs = |keys: &[u64]| -> Vec<ObjectOp> {
            let mut ops: Vec<ObjectOp> = keys
                .iter()
                .map(|&k| ObjectOp::debit(ObjectKey::new(k), 1))
                .collect();
            ops.push(ObjectOp::credit(ObjectKey::new(50), keys.len() as u64));
            ops
        };
        let signed = |keys: &[u64]| {
            Transaction::from_ops(id, legs(keys), keys.iter().map(|&k| sign(k, 1)).collect())
        };
        assert!(signed(&[1, 2, 3]).validate().is_ok());
        // The duplicate may sit anywhere among the debit legs, adjacent or not.
        for keys in [[1, 1, 3], [1, 2, 1], [3, 2, 2]] {
            match signed(&keys).validate() {
                Err(crate::error::OrthrusError::InvalidTransaction { reason, .. }) => {
                    assert_eq!(
                        reason, "duplicate decremental operations on the same object",
                        "{keys:?}"
                    );
                }
                other => panic!("{keys:?} validated to {other:?}"),
            }
        }
    }

    #[test]
    fn validation_requires_an_owned_object() {
        let id = tx_id(8);
        let tx =
            Transaction::from_ops(id, vec![ObjectOp::set_shared(ObjectKey::new(9), 1)], vec![]);
        assert!(tx.validate().is_err());
    }

    #[test]
    fn digest_changes_with_content() {
        let a = Transaction::payment(tx_id(9), ClientId::new(1), ClientId::new(2), 10);
        let b = Transaction::payment(tx_id(9), ClientId::new(1), ClientId::new(2), 11);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    /// Content digests of a 1-, 2- and 3-payer payment and a contract, as
    /// recorded when legs and signatures were `Vec`s: the inline storage
    /// hashes exactly as the slice did.
    #[test]
    fn digests_are_pinned_across_leg_storage() {
        let id = |seq| TxId::new(ClientId::new(3), seq);
        let c = ClientId::new;
        let cases = [
            (
                Transaction::payment(id(0), c(3), c(9), 17),
                0x58ff64f84199f525,
            ),
            (
                Transaction::multi_payment(id(1), &[(c(3), 5), (c(4), 6)], &[(c(9), 11)]),
                0x1eb0ebbc1b095f01,
            ),
            (
                Transaction::multi_payment(
                    id(2),
                    &[(c(3), 5), (c(4), 6), (c(5), 7)],
                    &[(c(9), 18)],
                ),
                0x3a629f42edca6b8e,
            ),
            (
                Transaction::contract(
                    id(3),
                    &[(c(3), 1), (c(4), 1)],
                    vec![ObjectOp::add_shared(ObjectKey::new((1 << 48) + 2), -7)],
                ),
                0x9fab529d579c7d2d,
            ),
        ];
        for (tx, pinned) in cases {
            assert_eq!(tx.compute_digest(), Digest(pinned), "{tx}");
            tx.validate().expect("pinned transactions are well formed");
            // Only the 3-payer payment (four legs, three signatures) spills.
            let spills = tx.payer_count() == 3;
            assert_eq!(tx.ops.spilled(), spills, "{tx}");
            assert_eq!(tx.signatures.spilled(), spills, "{tx}");
        }
    }

    #[test]
    fn payload_override() {
        let tx = Transaction::payment(tx_id(10), ClientId::new(1), ClientId::new(2), 10)
            .with_payload_bytes(128);
        assert_eq!(tx.payload_bytes, 128);
    }
}
