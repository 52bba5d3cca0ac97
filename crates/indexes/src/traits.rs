//! The index abstraction shared by all four structures (and by FlatStore's
//! pluggable volatile index).

use crate::error::IndexError;

/// A mutable map from `u64` keys to opaque `u64` values.
///
/// FlatStore packs `(version, log-entry pointer)` into the value; the
/// baseline KV stores pack a record pointer. The key `u64::MAX` is reserved.
pub trait Index: Send {
    /// Inserts or updates `key`, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// [`IndexError::OutOfSpace`] if the arena is full,
    /// [`IndexError::ReservedKey`] for the sentinel key.
    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>, IndexError>;

    /// Loads `pairs` in one call (crash recovery, snapshot load). The keys
    /// must be distinct and absent from the index; the slice may be
    /// reordered. The default inserts one pair at a time; an index with a
    /// cheaper way to place keys it knows are new overrides it (CCEH
    /// writes each segment once).
    ///
    /// # Errors
    ///
    /// As for [`insert`](Self::insert), plus [`IndexError::DuplicateKey`]
    /// when a key repeats within `pairs`. No key is ever stored twice.
    fn bulk_load(&mut self, pairs: &mut [(u64, u64)]) -> Result<(), IndexError> {
        for &(key, value) in pairs.iter() {
            if self.insert(key, value)?.is_some() {
                return Err(IndexError::DuplicateKey { key });
            }
        }
        Ok(())
    }

    /// Looks up `key`.
    fn get(&self, key: u64) -> Option<u64>;

    /// Removes `key`, returning its value if present.
    fn remove(&mut self, key: u64) -> Option<u64>;

    /// Atomically replaces `key`'s value with `new` only if it currently
    /// equals `old` (the log cleaner's pointer-update primitive). Returns
    /// whether the swap happened.
    fn cas(&mut self, key: u64, old: u64, new: u64) -> bool {
        if self.get(key) == Some(old) {
            // Single-writer default; concurrent indexes override.
            let _ = self.insert(key, new);
            true
        } else {
            false
        }
    }

    /// Visits every live `(key, value)` pair once, in no promised order
    /// (FlatStore's shutdown snapshot).
    fn for_each(&self, f: &mut dyn FnMut(u64, u64));

    /// Number of live keys.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An [`Index`] that additionally supports ordered range scans
/// (the tree-based structures).
pub trait OrderedIndex: Index {
    /// Visits `(key, value)` pairs with `lo <= key < hi` in ascending key
    /// order until `f` returns `false`.
    fn range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, u64) -> bool);
}
