//! Shared storage plumbing for the index structures.

use std::sync::Arc;

use pmem::{PmAddr, PmRegion};

use crate::error::IndexError;

/// Largest permissible key; `u64::MAX` is the empty-slot sentinel.
pub const MAX_KEY: u64 = u64::MAX - 1;

/// The empty-slot sentinel stored in hash buckets.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Whether an index persists its updates (the baseline configuration) or
/// elides all flushes (FlatStore's DRAM-resident volatile index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Every structural store is flushed and fenced per the original design.
    #[default]
    Persistent,
    /// Identical code path with flushes/fences elided (index lives in DRAM).
    Volatile,
}

/// An index's arena: a range of a region plus a bump allocator and
/// mode-aware flush helpers.
#[derive(Debug)]
pub(crate) struct Store {
    pub pm: Arc<PmRegion>,
    mode: Mode,
    cursor: u64,
    end: u64,
    free: Vec<(u64, PmAddr)>, // (size, addr) free list of uniform nodes
}

impl Store {
    pub fn new(pm: Arc<PmRegion>, base: PmAddr, len: u64, mode: Mode) -> Self {
        assert!(
            base.offset() + len <= pm.len() as u64,
            "arena exceeds region"
        );
        Store {
            pm,
            mode,
            cursor: base.align_up(64).offset(),
            end: base.offset() + len,
            free: Vec::new(),
        }
    }

    /// Bump-allocates `size` bytes at 64 B alignment, reusing freed blocks
    /// of the same size first.
    pub fn alloc(&mut self, size: u64) -> Result<PmAddr, IndexError> {
        if let Some(i) = self.free.iter().position(|(s, _)| *s == size) {
            return Ok(self.free.swap_remove(i).1);
        }
        let at = PmAddr(self.cursor).align_up(64);
        if at.offset() + size > self.end {
            return Err(IndexError::OutOfSpace);
        }
        self.cursor = at.offset() + size;
        Ok(at)
    }

    pub fn dealloc(&mut self, addr: PmAddr, size: u64) {
        self.free.push((size, addr));
    }

    #[inline]
    pub fn flush(&self, addr: PmAddr, len: usize) {
        if self.mode == Mode::Persistent {
            self.pm.flush(addr, len);
        }
    }

    #[inline]
    pub fn fence(&self) {
        if self.mode == Mode::Persistent {
            self.pm.fence();
        }
    }

    #[inline]
    pub fn persist(&self, addr: PmAddr, len: usize) {
        if self.mode == Mode::Persistent {
            self.pm.flush(addr, len);
            self.pm.fence();
        }
    }
}

/// 64-bit finalizer from MurmurHash3 — the hash used by all hash indexes.
#[inline]
pub(crate) fn hash64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51afd7ed558ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ceb9fe1a85ec53);
    k ^= k >> 33;
    k
}

/// A second, independent hash (for Level-Hashing's two hash locations).
#[inline]
pub(crate) fn hash64_alt(k: u64) -> u64 {
    hash64(k ^ 0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_alloc_respects_bounds_and_alignment() {
        let pm = Arc::new(PmRegion::new(4096));
        let mut s = Store::new(pm, PmAddr(64), 1024, Mode::Persistent);
        let a = s.alloc(100).unwrap();
        let b = s.alloc(100).unwrap();
        assert!(a.is_aligned(64) && b.is_aligned(64));
        assert!(b.offset() >= a.offset() + 100);
        // Exhaustion
        assert!(s.alloc(2000).is_err());
        // Free list reuse
        s.dealloc(a, 100);
        assert_eq!(s.alloc(100).unwrap(), a);
    }

    #[test]
    fn volatile_mode_elides_flushes() {
        let pm = Arc::new(PmRegion::new(4096));
        let s = Store::new(Arc::clone(&pm), PmAddr(0), 4096, Mode::Volatile);
        s.pm.write_u64(PmAddr(0), 1);
        s.persist(PmAddr(0), 8);
        assert_eq!(pm.stats().flushes(), 0);
        assert_eq!(pm.stats().fences(), 0);
    }

    #[test]
    fn hashes_differ() {
        for k in 0..1000 {
            assert_ne!(hash64(k), hash64_alt(k));
        }
    }
}
