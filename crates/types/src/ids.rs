//! Strongly typed identifiers used throughout the workspace.
//!
//! The paper's system model (§III) identifies replicas `r_0 … r_{n-1}`,
//! sequenced-broadcast instances `0 … m-1`, clients, transactions, sequence
//! numbers inside an instance, epochs, PBFT views and Ladon ranks. Each gets
//! a newtype so the compiler keeps the different number spaces apart.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Construct a new identifier from its raw value.
            #[inline]
            pub const fn new(value: $inner) -> Self {
                Self(value)
            }

            /// Return the raw value of the identifier.
            #[inline]
            pub const fn value(self) -> $inner {
                self.0
            }

            /// Return the identifier as a `usize`, for indexing into vectors.
            #[inline]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(value: $inner) -> Self {
                Self(value)
            }
        }

        impl From<$name> for $inner {
            #[inline]
            fn from(value: $name) -> Self {
                value.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifier of a replica (`r_i` in the paper). Replicas are numbered
    /// `0 … n-1`; with `m = n` (the default in the evaluation) replica `i`
    /// initially leads instance `i`.
    ReplicaId,
    u32
);

id_newtype!(
    /// Identifier of a sequenced-broadcast (SB) instance, `0 … m-1`.
    InstanceId,
    u32
);

id_newtype!(
    /// Identifier of a client submitting transactions.
    ClientId,
    u64
);

id_newtype!(
    /// Sequence number of a block *within* an SB instance.
    SeqNum,
    u64
);

id_newtype!(
    /// Epoch number. Orthrus (like ISS and Ladon) runs in epochs; each epoch
    /// assigns a contiguous range of sequence numbers to every instance and
    /// ends with a checkpoint (paper §V, §V-D).
    Epoch,
    u64
);

id_newtype!(
    /// PBFT view number inside one SB instance. The leader of view `v` for
    /// instance `i` is replica `(i + v) mod n`.
    View,
    u64
);

id_newtype!(
    /// Ladon-style monotonic rank used by the dynamic global ordering
    /// algorithm (paper Appendix A). Blocks are globally ordered by
    /// `(rank, instance)`.
    Rank,
    u64
);

/// Unique identifier of a transaction.
///
/// In the paper a transaction carries an application-level `id`; in the
/// reproduction the identifier combines the submitting client and a
/// client-local sequence number, which keeps ids unique without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId {
    /// Client that created the transaction.
    pub client: ClientId,
    /// Client-local sequence number.
    pub seq: u64,
}

impl TxId {
    /// Construct a transaction identifier.
    #[inline]
    pub const fn new(client: ClientId, seq: u64) -> Self {
        Self { client, seq }
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx({}:{})", self.client.0, self.seq)
    }
}

/// Key of an object (§III-B): a cryptographically unique identifier. For
/// owned objects (accounts) the key is the owner's address; for shared
/// objects it identifies a smart-contract record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectKey(pub u64);

impl ObjectKey {
    /// Construct an object key from a raw address.
    #[inline]
    pub const fn new(value: u64) -> Self {
        Self(value)
    }

    /// Raw value of the key.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Key of the account object owned by `client`.
    ///
    /// The paper models every client's account as an owned object whose key
    /// is the owner's address; deriving it from the client id keeps the
    /// mapping deterministic.
    #[inline]
    pub const fn account_of(client: ClientId) -> Self {
        Self(client.0)
    }

    /// The SB instance / bucket (§V-A) responsible for this key when
    /// transactions are partitioned `shards` ways: a hash of the key modulo
    /// `shards`. This is the single canonical routing function shared by the
    /// partition module (`Partitioner::assign`) and the object store's
    /// per-instance write counters, so "the accounts instance `i`
    /// serialises" and "the writes counted against instance `i`" are the
    /// same set by construction. State itself is never split.
    #[inline]
    pub fn shard(self, shards: u32) -> u32 {
        let h = crate::crypto::Digest::of(&self).0;
        (h % u64::from(shards.max(1))) as u32
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj({:#x})", self.0)
    }
}

impl From<u64> for ObjectKey {
    fn from(value: u64) -> Self {
        Self(value)
    }
}

impl SeqNum {
    /// The sequence number that follows `self`.
    #[inline]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl Epoch {
    /// The epoch that follows `self`.
    #[inline]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl View {
    /// The view that follows `self`.
    #[inline]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl Rank {
    /// The rank that follows `self`.
    #[inline]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }

    /// The larger of two ranks.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtype_roundtrip() {
        let r = ReplicaId::new(7);
        assert_eq!(r.value(), 7);
        assert_eq!(r.as_usize(), 7);
        assert_eq!(ReplicaId::from(7u32), r);
        assert_eq!(u32::from(r), 7);
    }

    #[test]
    fn display_formats_are_distinct() {
        assert_eq!(ReplicaId::new(3).to_string(), "ReplicaId(3)");
        assert_eq!(InstanceId::new(3).to_string(), "InstanceId(3)");
        assert_eq!(TxId::new(ClientId::new(1), 4).to_string(), "tx(1:4)");
    }

    #[test]
    fn ordering_follows_raw_values() {
        assert!(SeqNum::new(1) < SeqNum::new(2));
        assert!(Rank::new(10) > Rank::new(9));
        assert_eq!(Rank::new(4).max(Rank::new(9)), Rank::new(9));
    }

    #[test]
    fn successors() {
        assert_eq!(SeqNum::new(0).next(), SeqNum::new(1));
        assert_eq!(Epoch::new(3).next(), Epoch::new(4));
        assert_eq!(View::new(3).next(), View::new(4));
        assert_eq!(Rank::new(3).next(), Rank::new(4));
    }

    #[test]
    fn account_key_derivation_is_stable() {
        let c = ClientId::new(42);
        assert_eq!(ObjectKey::account_of(c), ObjectKey::new(42));
    }

    #[test]
    fn tx_id_ordering_groups_by_client_then_seq() {
        let a = TxId::new(ClientId::new(1), 5);
        let b = TxId::new(ClientId::new(1), 6);
        let c = TxId::new(ClientId::new(2), 0);
        assert!(a < b);
        assert!(b < c);
    }
}
