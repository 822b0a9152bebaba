//! Blocks proposed by sequenced-broadcast instance leaders (paper §III-B).
//!
//! A block is `b = (txs, ins, sn, S, σ)`: a batch of transactions, the
//! instance it belongs to, its sequence number within that instance, the
//! system state the leader observed when building it, and the leader's
//! signature. For the dynamic global ordering algorithm (Ladon, Appendix A)
//! the block additionally carries a `rank`; pre-determined orderings ignore
//! it.
//!
//! # Ownership and sharing
//!
//! Blocks travel through the message fabric as [`SharedBlock`]
//! (`Arc<Block>`): broadcasting to `n - 1` replicas, buffering in PBFT slots,
//! and inserting into partial/global logs all share one allocation instead of
//! deep-copying the transaction batch. The batch itself holds [`SharedTx`]
//! handles, so a transaction's payload exists once per process no matter how
//! many buckets, blocks and logs reference it. Blocks are immutable after
//! construction; the header digest is computed once and memoized (tamper
//! checks in [`Block::verify`] deliberately bypass the memo and recompute
//! from the contents).

use crate::crypto::{Digest, KeyPair, Signature};
use crate::ids::{Epoch, InstanceId, Rank, ReplicaId, SeqNum, View};
use crate::state::SystemState;
use crate::transaction::{SharedTx, Transaction};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A reference-counted handle to an immutable block, the unit the message
/// fabric moves around. Cloning is an atomic increment, never a deep copy.
pub type SharedBlock = Arc<Block>;

/// Identifier of a block: the instance it belongs to and its sequence number
/// within that instance. With the agreement property of sequenced broadcast,
/// all honest replicas associate the same block contents with a given id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId {
    /// SB instance that produced the block.
    pub instance: InstanceId,
    /// Sequence number of the block within the instance.
    pub sn: SeqNum,
}

impl BlockId {
    /// Construct a block id.
    #[inline]
    pub const fn new(instance: InstanceId, sn: SeqNum) -> Self {
        Self { instance, sn }
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}^{}", self.sn.value(), self.instance.value())
    }
}

/// The header of a block: everything except the transaction batch.
#[derive(Debug, Clone)]
pub struct BlockHeader {
    /// Instance the block belongs to (`ins`).
    pub instance: InstanceId,
    /// Sequence number within the instance (`sn`).
    pub sn: SeqNum,
    /// Epoch the sequence number belongs to.
    pub epoch: Epoch,
    /// PBFT view in which the block was proposed.
    pub view: View,
    /// Replica that proposed the block.
    pub proposer: ReplicaId,
    /// Ladon-style rank used by dynamic global ordering; pre-determined
    /// orderings ignore it.
    pub rank: Rank,
    /// System state the leader observed when pulling the batch (`S`).
    pub state: SystemState,
    /// Digest of the transaction batch.
    pub payload_digest: Digest,
    /// `true` for filler blocks that carry no transactions. ISS delivers
    /// no-op blocks to keep the pre-determined global log moving when a
    /// bucket is empty; other protocols use them during recovery.
    pub no_op: bool,
    /// For DQBFT's dedicated ordering instance: the ids of data blocks whose
    /// global order this block decides. Empty for ordinary data blocks.
    pub ordered_ids: Vec<BlockId>,
    /// Memoized header digest. Headers are immutable once signed, so every
    /// `digest()` call after the first is a load instead of a hash of the
    /// whole state vector. Excluded from equality; `compute_digest` ignores
    /// it.
    digest_memo: OnceLock<Digest>,
}

impl PartialEq for BlockHeader {
    fn eq(&self, other: &Self) -> bool {
        self.instance == other.instance
            && self.sn == other.sn
            && self.epoch == other.epoch
            && self.view == other.view
            && self.proposer == other.proposer
            && self.rank == other.rank
            && self.state == other.state
            && self.payload_digest == other.payload_digest
            && self.no_op == other.no_op
            && self.ordered_ids == other.ordered_ids
    }
}

impl Eq for BlockHeader {}

impl BlockHeader {
    /// Digest of the header (what the leader signs). Memoized: the first call
    /// hashes the header contents, later calls return the cached value.
    pub fn digest(&self) -> Digest {
        *self.digest_memo.get_or_init(|| self.compute_digest())
    }

    /// Recompute the digest from the header contents, bypassing the memo.
    /// Verification paths use this so that a tampered header can never hide
    /// behind a digest cached before the tampering.
    pub fn compute_digest(&self) -> Digest {
        Digest::of(&(
            self.instance,
            self.sn,
            self.epoch,
            self.view,
            self.proposer,
            self.rank,
            &self.state,
            self.payload_digest,
            self.no_op,
            &self.ordered_ids,
        ))
    }

    /// The block id this header describes.
    #[inline]
    pub fn id(&self) -> BlockId {
        BlockId::new(self.instance, self.sn)
    }
}

/// A block: header, transaction batch and the proposer's signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Header fields.
    pub header: BlockHeader,
    /// Batch of transactions (`txs`). Each entry is a shared handle — the
    /// same `Arc` the client request arrived in and the bucket stored.
    pub txs: Vec<SharedTx>,
    /// Proposer's signature over the header digest (`σ`).
    pub signature: Signature,
}

/// Builder-style constructor inputs for [`Block::new`].
#[derive(Debug, Clone)]
pub struct BlockParams {
    /// Instance the block belongs to.
    pub instance: InstanceId,
    /// Sequence number within the instance.
    pub sn: SeqNum,
    /// Epoch of the sequence number.
    pub epoch: Epoch,
    /// PBFT view of the proposal.
    pub view: View,
    /// Proposing replica.
    pub proposer: ReplicaId,
    /// Rank assigned by the leader (Ladon ordering).
    pub rank: Rank,
    /// System state observed by the leader.
    pub state: SystemState,
}

impl Block {
    fn build(
        params: BlockParams,
        txs: Vec<SharedTx>,
        no_op: bool,
        ordered_ids: Vec<BlockId>,
    ) -> Self {
        let payload_digest = Self::payload_digest(&txs);
        let header = BlockHeader {
            instance: params.instance,
            sn: params.sn,
            epoch: params.epoch,
            view: params.view,
            proposer: params.proposer,
            rank: params.rank,
            state: params.state,
            payload_digest,
            no_op,
            ordered_ids,
            digest_memo: OnceLock::new(),
        };
        let signature = KeyPair::for_replica(header.proposer).sign(header.digest());
        Self {
            header,
            txs,
            signature,
        }
    }

    /// Build and sign a block containing `txs` (owned transactions are
    /// wrapped into shared handles; leaders that already hold shared handles
    /// use [`Block::from_shared`] instead, which copies nothing).
    pub fn new(params: BlockParams, txs: Vec<Transaction>) -> Self {
        Self::from_shared(params, txs.into_iter().map(Arc::new).collect())
    }

    /// Build and sign a block from already-shared transactions. This is the
    /// leader's hot path: the batch is assembled from the bucket's `Arc`
    /// handles without copying any transaction payload.
    pub fn from_shared(params: BlockParams, txs: Vec<SharedTx>) -> Self {
        Self::build(params, txs, false, Vec::new())
    }

    /// Build and sign an empty no-op block (used by ISS-style protocols to
    /// fill their pre-determined global log and by recovery paths).
    pub fn no_op(params: BlockParams) -> Self {
        Self::build(params, Vec::new(), true, Vec::new())
    }

    /// Build and sign an ordering block for DQBFT's dedicated ordering
    /// instance: it carries no transactions, only the ids of data blocks
    /// whose global order it decides.
    pub fn ordering(params: BlockParams, ordered_ids: Vec<BlockId>) -> Self {
        Self::build(params, Vec::new(), true, ordered_ids)
    }

    /// Digest of a transaction batch. Per-transaction digests are memoized on
    /// the transactions themselves, so recomputing a batch digest over shared
    /// handles hashes only the combination, not the payloads.
    pub fn payload_digest(txs: &[SharedTx]) -> Digest {
        txs.iter()
            .map(|tx| tx.digest())
            .fold(Digest::EMPTY, Digest::combine)
    }

    /// The block id (instance, sequence number).
    #[inline]
    pub fn id(&self) -> BlockId {
        self.header.id()
    }

    /// The header digest (what was signed). Memoized on the header.
    #[inline]
    pub fn digest(&self) -> Digest {
        self.header.digest()
    }

    /// Number of transactions in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Is the transaction batch empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Wire size of the block in bytes, as charged by the bandwidth model:
    /// a fixed header overhead plus each transaction's payload.
    pub fn wire_bytes(&self) -> u64 {
        const HEADER_BYTES: u64 = 256;
        HEADER_BYTES
            + self
                .txs
                .iter()
                .map(|tx| u64::from(tx.payload_bytes))
                .sum::<u64>()
    }

    /// Verify the block's integrity: the proposer's signature covers the
    /// header, and the header's payload digest matches the batch.
    ///
    /// Both digests are recomputed from the contents (bypassing the memo and
    /// each transaction's cached digest), so tampering after construction is
    /// always detected.
    pub fn verify(&self) -> crate::error::Result<()> {
        use crate::error::OrthrusError;
        let fresh_payload = self
            .txs
            .iter()
            .map(|tx| tx.compute_digest())
            .fold(Digest::EMPTY, Digest::combine);
        if fresh_payload != self.header.payload_digest {
            return Err(OrthrusError::InvalidBlock {
                id: self.id(),
                reason: "payload digest mismatch".into(),
            });
        }
        if self.signature.signer != KeyPair::for_replica(self.header.proposer).public
            || !self.signature.verify(self.header.compute_digest())
        {
            return Err(OrthrusError::InvalidBlock {
                id: self.id(),
                reason: "invalid proposer signature".into(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rank={} |txs|={}{}",
            self.id(),
            self.header.rank.value(),
            self.txs.len(),
            if self.header.no_op { " (no-op)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::transaction::Transaction;
    use crate::TxId;

    fn params(instance: u32, sn: u64, proposer: u32) -> BlockParams {
        BlockParams {
            instance: InstanceId::new(instance),
            sn: SeqNum::new(sn),
            epoch: Epoch::new(0),
            view: View::new(0),
            proposer: ReplicaId::new(proposer),
            rank: Rank::new(sn),
            state: SystemState::new(4),
        }
    }

    fn sample_txs(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::payment(
                    TxId::new(ClientId::new(i), 0),
                    ClientId::new(i),
                    ClientId::new(i + 1),
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn block_verifies_round_trip() {
        let b = Block::new(params(0, 3, 0), sample_txs(5));
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert!(b.verify().is_ok());
        assert_eq!(b.id(), BlockId::new(InstanceId::new(0), SeqNum::new(3)));
    }

    #[test]
    fn tampering_with_payload_is_detected() {
        let mut b = Block::new(params(0, 0, 0), sample_txs(3));
        b.txs.pop();
        assert!(b.verify().is_err());
    }

    #[test]
    fn tampering_with_header_is_detected() {
        let mut b = Block::new(params(0, 0, 0), sample_txs(3));
        b.header.rank = Rank::new(999);
        assert!(b.verify().is_err());
    }

    #[test]
    fn tampering_after_digest_was_cached_is_still_detected() {
        let mut b = Block::new(params(0, 0, 0), sample_txs(3));
        // Prime the memo, then tamper: verification recomputes from contents
        // and must not be fooled by the stale cached digest.
        let _ = b.digest();
        b.header.rank = Rank::new(999);
        assert!(b.verify().is_err());
    }

    #[test]
    fn forged_proposer_is_detected() {
        let mut b = Block::new(params(0, 0, 0), sample_txs(1));
        // Claim the block was proposed by replica 5 while keeping replica 0's
        // signature: verification must fail.
        b.header.proposer = ReplicaId::new(5);
        assert!(b.verify().is_err());
    }

    #[test]
    fn no_op_blocks_are_empty_and_valid() {
        let b = Block::no_op(params(2, 7, 2));
        assert!(b.is_empty());
        assert!(b.header.no_op);
        assert!(b.verify().is_ok());
    }

    #[test]
    fn ordering_blocks_carry_ids_and_verify() {
        let ids = vec![
            BlockId::new(InstanceId::new(0), SeqNum::new(0)),
            BlockId::new(InstanceId::new(1), SeqNum::new(0)),
        ];
        let b = Block::ordering(params(3, 0, 3), ids.clone());
        assert!(b.verify().is_ok());
        assert_eq!(b.header.ordered_ids, ids);
        // Tampering with the decided order is caught by verification.
        let mut tampered = b.clone();
        tampered.header.ordered_ids.reverse();
        assert!(tampered.verify().is_err());
    }

    #[test]
    fn wire_bytes_scales_with_batch() {
        let small = Block::new(params(0, 0, 0), sample_txs(1));
        let large = Block::new(params(0, 1, 0), sample_txs(10));
        assert!(large.wire_bytes() > small.wire_bytes());
        assert_eq!(Block::no_op(params(0, 2, 0)).wire_bytes(), 256);
    }

    #[test]
    fn shared_construction_copies_no_transactions() {
        let txs: Vec<SharedTx> = sample_txs(4).into_iter().map(Arc::new).collect();
        let handles: Vec<SharedTx> = txs.iter().map(Arc::clone).collect();
        let b = Block::from_shared(params(0, 0, 0), handles);
        for (original, in_block) in txs.iter().zip(b.txs.iter()) {
            assert!(Arc::ptr_eq(original, in_block));
        }
        assert!(b.verify().is_ok());
    }

    #[test]
    fn digest_is_memoized_and_stable() {
        let b = Block::new(params(0, 1, 0), sample_txs(3));
        let first = b.digest();
        assert_eq!(first, b.digest());
        assert_eq!(first, b.header.compute_digest());
        // A shared handle observes the same memoized value.
        let shared: SharedBlock = Arc::new(b);
        assert_eq!(shared.digest(), first);
        assert_eq!(Arc::clone(&shared).digest(), first);
    }

    #[test]
    fn block_id_display() {
        assert_eq!(
            BlockId::new(InstanceId::new(2), SeqNum::new(5)).to_string(),
            "B5^2"
        );
    }
}
