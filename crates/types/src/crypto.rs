//! Simulated cryptographic primitives.
//!
//! The paper assumes a PKI: every replica `r_i` holds a key pair
//! `(pk_i, sk_i)` and the adversary cannot forge signatures (§III-A). Inside
//! a deterministic simulation real cryptography would only add CPU cost
//! without changing protocol behaviour, so this module provides *structural*
//! stand-ins:
//!
//! * [`Digest`] — a 64-bit content hash computed with a fast FNV-1a style
//!   hasher. Collisions are astronomically unlikely for the workloads used
//!   here and the digest is only used for equality checks (matching
//!   pre-prepares, checkpoint digests, block ids).
//! * [`Signature`] / [`KeyPair`] / [`PublicKey`] — a signature is the pair
//!   (signer, keyed digest). Verification recomputes the keyed digest; an
//!   adversary inside the simulation can only "forge" a signature by calling
//!   `sign` with a key pair it owns, which matches the computationally
//!   bounded adversary of the model.
//!
//! Nothing in the rest of the workspace depends on these being real
//! primitives, so swapping in `ed25519`/`sha2` for a networked deployment
//! would be a local change.

use crate::ids::ReplicaId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A 64-bit content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub u64);

impl Digest {
    /// Digest of the empty byte string.
    pub const EMPTY: Digest = Digest(FNV_OFFSET);

    /// Compute the digest of a byte slice.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let mut h = FnvHasher::default();
        h.write(bytes);
        Digest(h.finish())
    }

    /// Compute the digest of any hashable value.
    ///
    /// This routes the value's [`Hash`] implementation through the same
    /// deterministic FNV hasher used for byte slices, so digests are stable
    /// across runs and platforms (unlike `std::collections::hash_map`'s
    /// randomly-seeded default hasher).
    pub fn of<T: Hash + ?Sized>(value: &T) -> Self {
        let mut h = FnvHasher::default();
        value.hash(&mut h);
        Digest(h.finish())
    }

    /// Combine two digests into one (order-sensitive).
    pub fn combine(self, other: Digest) -> Digest {
        let mut h = FnvHasher::default();
        h.write_u64(self.0);
        h.write_u64(other.0);
        Digest(h.finish())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x00000100000001B3;

/// Deterministic FNV-1a hasher used for digests.
///
/// `std`'s `DefaultHasher` is randomly seeded per process, which would break
/// run-to-run determinism of block ids and checkpoint digests; FNV-1a is
/// simple, fast and byte-order independent.
#[derive(Debug, Clone)]
pub struct FnvHasher {
    state: u64,
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self { state: FNV_OFFSET }
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

/// A public key. In the simulation the key is derived deterministically from
/// the owner identifier, so the PKI needs no setup phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PublicKey {
    /// Owner of the key (replica or client address space).
    pub owner: u64,
    key_material: u64,
}

/// A key pair (public + "secret" component).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    /// The public half.
    pub public: PublicKey,
    secret: u64,
}

impl KeyPair {
    /// Derive the key pair of a replica. Deterministic, so every component of
    /// the simulation agrees on the PKI without message exchange.
    pub fn for_replica(replica: ReplicaId) -> Self {
        Self::derive(u64::from(replica.value()) | (1 << 63))
    }

    /// Derive the key pair for an arbitrary owner address (used for client
    /// accounts, whose decremental operations require the owner's signature).
    pub fn for_owner(owner: u64) -> Self {
        Self::derive(owner)
    }

    fn derive(owner: u64) -> Self {
        // Split-mix style diffusion so related owners do not get related key
        // material.
        let mut z = owner.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        let secret = z ^ (z >> 31);
        let key_material = secret.rotate_left(17) ^ 0xA5A5_A5A5_5A5A_5A5A;
        Self {
            public: PublicKey {
                owner,
                key_material,
            },
            secret,
        }
    }

    /// Sign a digest.
    pub fn sign(&self, digest: Digest) -> Signature {
        Signature {
            signer: self.public,
            tag: Self::tag(self.secret, digest),
        }
    }

    fn tag(secret: u64, digest: Digest) -> u64 {
        let mut h = FnvHasher::default();
        h.write_u64(secret);
        h.write_u64(digest.0);
        h.finish()
    }
}

/// A signature over a digest. The all-zero default, the filler of unused
/// inline signature slots, never verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Signature {
    /// Public key of the signer.
    pub signer: PublicKey,
    tag: u64,
}

impl Signature {
    /// Verify the signature against a digest.
    ///
    /// The verifier re-derives the signer's key pair from the public key's
    /// owner address; this models the paper's PKI where public keys are known
    /// to everyone.
    pub fn verify(&self, digest: Digest) -> bool {
        let expected = KeyPair::derive(self.signer.owner);
        expected.public == self.signer && KeyPair::tag(expected.secret, digest) == self.tag
    }

    /// A placeholder signature that never verifies. Used by Byzantine
    /// behaviours in fault-injection tests.
    pub fn invalid() -> Self {
        Signature {
            signer: PublicKey {
                owner: u64::MAX,
                key_material: 0,
            },
            tag: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(Digest::of_bytes(b"orthrus"), Digest::of_bytes(b"orthrus"));
        assert_ne!(Digest::of_bytes(b"orthrus"), Digest::of_bytes(b"ladon"));
        assert_eq!(Digest::of(&(1u64, 2u64)), Digest::of(&(1u64, 2u64)));
        assert_ne!(Digest::of(&(1u64, 2u64)), Digest::of(&(2u64, 1u64)));
    }

    #[test]
    fn digest_combine_is_order_sensitive() {
        let a = Digest::of_bytes(b"a");
        let b = Digest::of_bytes(b"b");
        assert_ne!(a.combine(b), b.combine(a));
    }

    #[test]
    fn signatures_verify() {
        let kp = KeyPair::for_replica(ReplicaId::new(3));
        let d = Digest::of_bytes(b"block");
        let sig = kp.sign(d);
        assert!(sig.verify(d));
        assert!(!sig.verify(Digest::of_bytes(b"other block")));
    }

    #[test]
    fn signature_cannot_be_transplanted() {
        let kp1 = KeyPair::for_replica(ReplicaId::new(1));
        let kp2 = KeyPair::for_replica(ReplicaId::new(2));
        let d = Digest::of_bytes(b"block");
        let sig = kp1.sign(d);
        // A signature from replica 1 does not verify as replica 2's.
        assert_ne!(sig.signer, kp2.public);
        assert!(sig.verify(d));
    }

    #[test]
    fn invalid_signature_never_verifies() {
        assert!(!Signature::invalid().verify(Digest::of_bytes(b"anything")));
        assert!(!Signature::invalid().verify(Digest::EMPTY));
    }

    #[test]
    fn replica_and_owner_keyspaces_are_disjoint() {
        let r = KeyPair::for_replica(ReplicaId::new(5));
        let o = KeyPair::for_owner(5);
        assert_ne!(r.public, o.public);
    }
}
