//! Monotonic event counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free monotonic counter.
///
/// All operations are `Relaxed`: counters are statistics, not
/// synchronisation, and readers tolerate slightly stale values.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one; returns the previous value.
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Adds `n`; returns the previous value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (between measurement windows).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}
