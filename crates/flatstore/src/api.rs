//! The blocking client surface: the [`KvApi`] trait.
//!
//! The engine exposes two ways to talk to it — the clonable
//! [`StoreHandle`] (one private depth-1 session per clone) and the
//! pipelined [`Session`](crate::Session) (explicit tickets, up to
//! `pipeline_depth` in flight). [`KvApi`] is the blocking half:
//! `StoreHandle` implements it here and the cluster layer's routed client
//! implements it too, so code written against the trait for one engine
//! runs unchanged over a cluster.

use crate::engine::StoreHandle;
use crate::error::StoreError;

/// The blocking key-value surface shared by every client type.
///
/// Methods take `&mut self` so an implementation may keep per-caller
/// state (a routed client's cached routing snapshot); [`StoreHandle`]'s
/// implementation simply forwards to its internally synchronized `&self`
/// methods. The trait is object-safe: `&mut dyn KvApi` works where the
/// implementation is chosen at run time.
pub trait KvApi {
    /// Stores `value` under `key`, acknowledged only once durable.
    ///
    /// # Errors
    ///
    /// [`StoreError::EmptyValue`], [`StoreError::ReservedKey`],
    /// [`StoreError::OutOfSpace`], [`StoreError::ShuttingDown`].
    fn put(&mut self, key: u64, value: &[u8]) -> Result<(), StoreError>;

    /// Reads `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::ShuttingDown`] or corruption errors.
    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, StoreError>;

    /// Deletes `key`; returns whether it existed.
    ///
    /// # Errors
    ///
    /// As for [`put`](Self::put).
    fn delete(&mut self, key: u64) -> Result<bool, StoreError>;

    /// Range scan over `lo..hi`, at most `limit` items (FlatStore-M/-FF
    /// only).
    ///
    /// # Errors
    ///
    /// [`StoreError::RangeUnsupported`] on FlatStore-H;
    /// [`StoreError::ShuttingDown`].
    fn range(&mut self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>, StoreError>;
}

impl KvApi for StoreHandle {
    fn put(&mut self, key: u64, value: &[u8]) -> Result<(), StoreError> {
        StoreHandle::put(self, key, value)
    }

    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        StoreHandle::get(self, key)
    }

    fn delete(&mut self, key: u64) -> Result<bool, StoreError> {
        StoreHandle::delete(self, key)
    }

    fn range(&mut self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        StoreHandle::range(self, lo, hi, limit)
    }
}
