//! The production facade for the fabric's lock-free hand-offs.
//!
//! `flatrpc::ring` and `flatstore::batch` take their cursor atomics and
//! slot cells from here instead of `std::sync`. In a normal build every
//! atomic is a *re-export* of the `std` type and [`RaceCell`] is a bare
//! `UnsafeCell` wrapper — identical codegen, zero cost. Under
//! `RUSTFLAGS="--cfg racecheck"` the same paths resolve to
//! [`crate::model`]'s checked types, so the `#[cfg(all(test, racecheck))]`
//! test modules beside that code run the shipped source under
//! [`crate::model::check`]. Nothing else in the workspace imports the
//! facade: code no racecheck test drives uses `std::sync` directly.

/// The atomics the checked hand-offs use, mirroring `std::sync::atomic`.
pub mod atomic {
    #[cfg(not(racecheck))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

    #[cfg(racecheck)]
    pub use crate::model::{AtomicBool, AtomicU64, AtomicUsize};

    // `Ordering` is always the std enum — the model consumes it directly.
    pub use std::sync::atomic::Ordering;
}

#[cfg(racecheck)]
pub use crate::model::RaceCell;

/// Plain shared memory whose synchronization discipline is *asserted by
/// the caller* and *verified under `cfg(racecheck)`* — the release-build
/// counterpart of [`crate::model::RaceCell`]. Accesses compile to bare
/// loads/stores through an `UnsafeCell`. Like `UnsafeCell` it is not
/// `Sync`: the type embedding it states the protocol that makes sharing
/// sound.
#[cfg(not(racecheck))]
#[derive(Debug)]
pub struct RaceCell<T> {
    data: std::cell::UnsafeCell<T>,
}

#[cfg(not(racecheck))]
impl<T> RaceCell<T> {
    pub fn new(value: T) -> RaceCell<T> {
        RaceCell {
            data: std::cell::UnsafeCell::new(value),
        }
    }

    /// Name-tagged constructor (the tag names the cell in race reports
    /// under racecheck).
    pub fn named(_name: &str, value: T) -> RaceCell<T> {
        RaceCell::new(value)
    }

    /// Shared access.
    ///
    /// # Safety
    ///
    /// No write to this cell may run concurrently, and `f` must not
    /// re-enter the cell mutably.
    // SAFETY: the contract is the caller's, stated above.
    pub unsafe fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        // SAFETY: the caller guarantees no concurrent or nested writer.
        f(unsafe { &*self.data.get() })
    }

    /// Exclusive access.
    ///
    /// # Safety
    ///
    /// No other access to this cell may run concurrently, and `f` must
    /// not re-enter the cell.
    // SAFETY: the contract is the caller's, stated above.
    pub unsafe fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        // SAFETY: the caller guarantees exclusivity.
        f(unsafe { &mut *self.data.get() })
    }
}
