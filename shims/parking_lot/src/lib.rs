//! Local, std-only stand-in for the `parking_lot` crate.
//!
//! The workspace builds with no registry access, so it vendors the API
//! surface it uses: a non-poisoning [`Mutex`], a thin wrapper over
//! `std::sync::Mutex`.
//!
//! Semantics intentionally kept from parking_lot:
//! * locks never poison — a panic while holding a guard just unlocks;
//! * `try_lock` returns `Option` rather than a `Result`.
//!
//! The persistence crates deny `unwrap`/`expect` outside tests, so this
//! veneer is where their lock sites' poisoning policy is written once.

use std::sync::{Mutex as StdMutex, TryLockError};

/// A non-poisoning mutual-exclusion lock.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

/// RAII guard for [`Mutex`]; unlocks on drop.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is acquired. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic_and_try_lock() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
