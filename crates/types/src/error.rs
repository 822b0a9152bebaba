//! The common error type shared across the workspace.

use crate::block::BlockId;
use crate::ids::{ObjectKey, TxId};
use std::fmt;

/// Convenient result alias using [`OrthrusError`].
pub type Result<T> = std::result::Result<T, OrthrusError>;

/// Errors produced by protocol components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrthrusError {
    /// A transaction failed structural validation.
    InvalidTransaction {
        /// Offending transaction.
        id: TxId,
        /// Human-readable reason.
        reason: String,
    },
    /// A debit leg was not covered by a valid owner signature.
    MissingAuthorisation {
        /// Offending transaction.
        id: TxId,
        /// The payer whose authorisation is missing.
        payer: ObjectKey,
    },
    /// A block failed verification.
    InvalidBlock {
        /// Offending block.
        id: BlockId,
        /// Human-readable reason.
        reason: String,
    },
    /// An object involved in execution does not exist in the store.
    UnknownObject(ObjectKey),
    /// A debit exceeded the account's spendable balance.
    InsufficientBalance {
        /// The account that could not cover the debit.
        object: ObjectKey,
        /// Spendable balance at the time of the debit.
        have: crate::object::Amount,
        /// Amount the debit required.
        need: crate::object::Amount,
    },
    /// An operation was applied to an object of the wrong type (e.g. a
    /// contract write to an owned account).
    TypeMismatch {
        /// The object involved.
        object: ObjectKey,
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// Invalid protocol or scenario configuration.
    Config(String),
}

impl fmt::Display for OrthrusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrthrusError::InvalidTransaction { id, reason } => {
                write!(f, "invalid transaction {id}: {reason}")
            }
            OrthrusError::MissingAuthorisation { id, payer } => {
                write!(f, "transaction {id} lacks authorisation from payer {payer}")
            }
            OrthrusError::InvalidBlock { id, reason } => {
                write!(f, "invalid block {id}: {reason}")
            }
            OrthrusError::UnknownObject(o) => write!(f, "unknown object {o}"),
            OrthrusError::InsufficientBalance { object, have, need } => {
                write!(
                    f,
                    "insufficient balance on {object}: have {have}, need {need}"
                )
            }
            OrthrusError::TypeMismatch { object, reason } => {
                write!(f, "type mismatch on {object}: {reason}")
            }
            OrthrusError::Config(reason) => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for OrthrusError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    #[test]
    fn display_messages_mention_offenders() {
        let err = OrthrusError::MissingAuthorisation {
            id: TxId::new(ClientId::new(1), 2),
            payer: ObjectKey::new(7),
        };
        let text = err.to_string();
        assert!(text.contains("authorisation"));
        assert!(text.contains("tx(1:2)"));
    }

    #[test]
    fn insufficient_balance_names_the_account_and_amounts() {
        let err = OrthrusError::InsufficientBalance {
            object: ObjectKey::new(7),
            have: 3,
            need: 10,
        };
        let text = err.to_string();
        assert!(text.contains("insufficient balance"));
        assert!(text.contains("have 3"));
        assert!(text.contains("need 10"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&OrthrusError::Config("bad".into()));
    }

    #[test]
    fn errors_compare_by_value() {
        assert_eq!(
            OrthrusError::UnknownObject(ObjectKey::new(1)),
            OrthrusError::UnknownObject(ObjectKey::new(1))
        );
        assert_ne!(
            OrthrusError::UnknownObject(ObjectKey::new(1)),
            OrthrusError::UnknownObject(ObjectKey::new(2))
        );
    }
}
