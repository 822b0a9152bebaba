//! The object-centric data model (paper §III-B).
//!
//! Objects are long-lived records identified by an [`ObjectKey`]
//! (`crate::ids::ObjectKey`). Each object is either *owned* (an account with
//! a balance, controlled by one owner whose signature authorises decrements)
//! or *shared* (a smart-contract record that any authorised transaction may
//! read or assign).
//!
//! A transaction does not embed object state; it lists, per object, the
//! operation to perform and the condition that must hold after the operation
//! (`o = (key, value, op, con, type)` in the paper — the `value` lives in the
//! replica's store, the rest is carried by the transaction as an
//! [`ObjectOp`]).

use crate::ids::ObjectKey;
use std::fmt;

/// Token amounts held by owned objects (account balances).
pub type Amount = u64;

/// Values held by shared objects (contract records).
pub type Value = i64;

/// Whether an object is owned (an account) or shared (a contract record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectType {
    /// Owned object: has a specific owner; decremental operations require the
    /// owner's signature. Example: Alice's account balance.
    Owned,
    /// Shared object: no specific owner; may be accessed by any transaction
    /// authorised by the smart contract.
    Shared,
}

/// An operation on a single object.
///
/// The two *payment* operations (`Credit`, `Debit`) act on owned objects and
/// are the commutative building blocks that make partial ordering sufficient
/// (§II-A): credits always commute, and debits on *different* accounts
/// commute. The remaining operations model contract behaviour on shared
/// objects and are non-commutative in general (§II-B, Observation 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Incremental operation: add `amount` tokens to an owned object.
    Credit(Amount),
    /// Decremental operation: remove `amount` tokens from an owned object.
    /// Requires the owner's authorisation and is subject to the object's
    /// condition (usually "balance stays non-negative").
    Debit(Amount),
    /// Assign a value to a shared object (non-commutative).
    Set(Value),
    /// Add a delta to a shared object. Although arithmetically commutative,
    /// the paper treats all shared-object operations as contract operations
    /// requiring global ordering, and so do we.
    Add(Value),
    /// Read a shared object (contract input).
    Read,
}

impl Operation {
    /// Is this the incremental operation on an owned object?
    #[inline]
    pub fn is_incremental(&self) -> bool {
        matches!(self, Operation::Credit(_))
    }

    /// Is this the decremental operation on an owned object?
    #[inline]
    pub fn is_decremental(&self) -> bool {
        matches!(self, Operation::Debit(_))
    }

    /// Does this operation commute with every other operation that touches a
    /// *different* object, and with credits on the same object?
    ///
    /// Payment operations qualify; shared-object operations do not.
    #[inline]
    pub fn is_payment_op(&self) -> bool {
        matches!(self, Operation::Credit(_) | Operation::Debit(_))
    }

    /// The token amount moved by a payment operation (zero for contract
    /// operations).
    #[inline]
    pub fn amount(&self) -> Amount {
        match self {
            Operation::Credit(a) | Operation::Debit(a) => *a,
            _ => 0,
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Credit(a) => write!(f, "+{a}"),
            Operation::Debit(a) => write!(f, "-{a}"),
            Operation::Set(v) => write!(f, ":={v}"),
            Operation::Add(v) => write!(f, "+={v}"),
            Operation::Read => write!(f, "read"),
        }
    }
}

/// The condition (`con` in the paper) that must be satisfied after executing
/// an operation on the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Condition {
    /// No condition: the operation always succeeds.
    #[default]
    None,
    /// The owned object's balance must remain at or above the given floor
    /// after the operation. `MinBalance(0)` is the ordinary "no overdraft"
    /// rule for debits.
    MinBalance(Amount),
}

impl Condition {
    /// Check the condition against a candidate post-operation balance.
    #[inline]
    pub fn allows_balance(&self, balance_after: i128) -> bool {
        match self {
            Condition::None => true,
            Condition::MinBalance(min) => balance_after >= i128::from(*min),
        }
    }
}

/// One entry of a transaction's object set: which object, what type it has,
/// which operation to apply and which condition must hold afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectOp {
    /// Key of the object being touched.
    pub key: ObjectKey,
    /// Owned or shared.
    pub object_type: ObjectType,
    /// Operation to apply.
    pub op: Operation,
    /// Condition to check after applying the operation.
    pub condition: Condition,
}

/// A read of shared object 0: the filler of unused inline leg slots.
impl Default for ObjectOp {
    fn default() -> Self {
        Self::read_shared(ObjectKey::default())
    }
}

impl ObjectOp {
    /// Credit `amount` tokens to the owned object `key` (a payee leg).
    pub fn credit(key: ObjectKey, amount: Amount) -> Self {
        Self {
            key,
            object_type: ObjectType::Owned,
            op: Operation::Credit(amount),
            condition: Condition::None,
        }
    }

    /// Debit `amount` tokens from the owned object `key` (a payer leg),
    /// subject to the no-overdraft condition.
    pub fn debit(key: ObjectKey, amount: Amount) -> Self {
        Self {
            key,
            object_type: ObjectType::Owned,
            op: Operation::Debit(amount),
            condition: Condition::MinBalance(0),
        }
    }

    /// Assign `value` to the shared object `key` (a contract write).
    pub fn set_shared(key: ObjectKey, value: Value) -> Self {
        Self {
            key,
            object_type: ObjectType::Shared,
            op: Operation::Set(value),
            condition: Condition::None,
        }
    }

    /// Add `delta` to the shared object `key` (a contract update).
    pub fn add_shared(key: ObjectKey, delta: Value) -> Self {
        Self {
            key,
            object_type: ObjectType::Shared,
            op: Operation::Add(delta),
            condition: Condition::None,
        }
    }

    /// Read the shared object `key` (a contract read).
    pub fn read_shared(key: ObjectKey) -> Self {
        Self {
            key,
            object_type: ObjectType::Shared,
            op: Operation::Read,
            condition: Condition::None,
        }
    }

    /// Is this a decremental operation on an owned object? These are the legs
    /// that determine bucket assignment (paper §V-A) and that must be
    /// escrowed before the transaction can commit (Algorithm 1, line 22).
    #[inline]
    pub fn is_owned_decrement(&self) -> bool {
        self.object_type == ObjectType::Owned && self.op.is_decremental()
    }

    /// Is this an incremental operation on an owned object (a payee leg)?
    #[inline]
    pub fn is_owned_increment(&self) -> bool {
        self.object_type == ObjectType::Owned && self.op.is_incremental()
    }

    /// Does this leg touch a shared object?
    #[inline]
    pub fn is_shared(&self) -> bool {
        self.object_type == ObjectType::Shared
    }
}

impl fmt::Display for ObjectOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ty = match self.object_type {
            ObjectType::Owned => "owned",
            ObjectType::Shared => "shared",
        };
        write!(f, "{}[{}]{}", self.key, ty, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u64) -> ObjectKey {
        ObjectKey::new(k)
    }

    #[test]
    fn operation_classification() {
        assert!(Operation::Credit(5).is_incremental());
        assert!(!Operation::Credit(5).is_decremental());
        assert!(Operation::Debit(5).is_decremental());
        assert!(Operation::Credit(5).is_payment_op());
        assert!(Operation::Debit(5).is_payment_op());
        assert!(!Operation::Set(1).is_payment_op());
        assert!(!Operation::Add(1).is_payment_op());
        assert!(!Operation::Read.is_payment_op());
    }

    #[test]
    fn operation_amounts() {
        assert_eq!(Operation::Credit(7).amount(), 7);
        assert_eq!(Operation::Debit(9).amount(), 9);
        assert_eq!(Operation::Set(3).amount(), 0);
    }

    #[test]
    fn debit_leg_carries_no_overdraft_condition() {
        let leg = ObjectOp::debit(key(1), 10);
        assert!(leg.is_owned_decrement());
        assert_eq!(leg.condition, Condition::MinBalance(0));
        assert!(leg.condition.allows_balance(0));
        assert!(leg.condition.allows_balance(5));
        assert!(!leg.condition.allows_balance(-1));
    }

    #[test]
    fn credit_leg_is_unconditional() {
        let leg = ObjectOp::credit(key(2), 10);
        assert!(leg.is_owned_increment());
        assert!(!leg.is_owned_decrement());
        assert_eq!(leg.condition, Condition::None);
        assert!(leg.condition.allows_balance(-100));
    }

    #[test]
    fn shared_legs_are_contract_legs() {
        assert!(ObjectOp::set_shared(key(9), 1).is_shared());
        assert!(ObjectOp::add_shared(key(9), 1).is_shared());
        assert!(ObjectOp::read_shared(key(9)).is_shared());
        assert!(!ObjectOp::set_shared(key(9), 1).is_owned_decrement());
    }

    #[test]
    fn min_balance_condition_respects_floor() {
        let c = Condition::MinBalance(100);
        assert!(c.allows_balance(100));
        assert!(c.allows_balance(101));
        assert!(!c.allows_balance(99));
    }

    #[test]
    fn display_is_readable() {
        let leg = ObjectOp::debit(key(0xAB), 3);
        let text = leg.to_string();
        assert!(text.contains("owned"));
        assert!(text.contains("-3"));
    }
}
