//! Index errors.

use std::error::Error;
use std::fmt;

/// Errors returned by the index structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// The index's PM arena is exhausted (no space for a new segment/node).
    OutOfSpace,
    /// The reserved sentinel key (`u64::MAX`) was passed.
    ReservedKey,
    /// A bulk load was handed the same key twice.
    DuplicateKey {
        /// The repeated key.
        key: u64,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::OutOfSpace => write!(f, "index arena out of space"),
            IndexError::ReservedKey => write!(f, "key u64::MAX is reserved"),
            IndexError::DuplicateKey { key } => write!(f, "bulk load repeats key {key}"),
        }
    }
}

impl Error for IndexError {}
