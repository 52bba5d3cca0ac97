//! Level Hashing (Zuo et al., OSDI '18), reimplemented as a FlatStore
//! comparison baseline.
//!
//! Two levels of 4-slot buckets: a top level of `N` buckets and a bottom
//! level of `N/2`. A key has four candidate buckets — two top (independent
//! hashes) and two bottom. Conflicts are relieved by *moving* a resident
//! item to its alternate bucket (extra PM writes — the rehash-on-conflict
//! amplification the FlatStore paper calls out); when movement fails the
//! table resizes: a new top of `2N` buckets is allocated, the old top
//! becomes the new bottom, and every old-bottom entry is rehashed into the
//! new structure.

use std::sync::Arc;

use pmem::{PmAddr, PmRegion};

use crate::common::{hash64, hash64_alt, Mode, Store, EMPTY};
use crate::error::IndexError;
use crate::traits::Index;

const SLOT_LEN: u64 = 16;
const SLOTS_PER_BUCKET: u64 = 4;
const BUCKET_LEN: u64 = SLOTS_PER_BUCKET * SLOT_LEN;

/// A Level-Hashing index over a PM arena.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pmem::{PmRegion, PmAddr};
/// use indexes::{LevelHash, Index, Mode};
///
/// let pm = Arc::new(PmRegion::new(1 << 22));
/// let mut idx = LevelHash::new(pm, PmAddr(0), 1 << 22, Mode::Persistent, 64)?;
/// idx.insert(1, 100)?;
/// assert_eq!(idx.get(1), Some(100));
/// # Ok::<(), indexes::IndexError>(())
/// ```
pub struct LevelHash {
    store: Store,
    top: PmAddr,
    bottom: PmAddr,
    /// Top-level bucket count (power of two); bottom has half.
    top_buckets: u64,
    len: usize,
}

impl std::fmt::Debug for LevelHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelHash")
            .field("top_buckets", &self.top_buckets)
            .field("len", &self.len)
            .finish()
    }
}

impl LevelHash {
    /// Creates an index in `[base, base+len)` of `pm` with `top_buckets`
    /// top-level buckets (rounded up to a power of two, minimum 4).
    ///
    /// # Errors
    ///
    /// [`IndexError::OutOfSpace`] if the arena cannot hold the two levels.
    pub fn new(
        pm: Arc<PmRegion>,
        base: PmAddr,
        len: u64,
        mode: Mode,
        top_buckets: u64,
    ) -> Result<LevelHash, IndexError> {
        let top_buckets = top_buckets.next_power_of_two().max(4);
        let mut store = Store::new(pm, base, len, mode);
        let top = Self::fresh_level(&mut store, top_buckets)?;
        let bottom = Self::fresh_level(&mut store, top_buckets / 2)?;
        Ok(LevelHash {
            store,
            top,
            bottom,
            top_buckets,
            len: 0,
        })
    }

    fn fresh_level(store: &mut Store, buckets: u64) -> Result<PmAddr, IndexError> {
        let addr = store.alloc(buckets * BUCKET_LEN)?;
        store.pm.fill(addr, (buckets * BUCKET_LEN) as usize, 0xFF);
        store.flush(addr, (buckets * BUCKET_LEN) as usize);
        store.fence();
        Ok(addr)
    }

    /// The four candidate buckets of `key`: two top, two bottom.
    fn candidates(&self, key: u64) -> [PmAddr; 4] {
        let (h1, h2) = (hash64(key), hash64_alt(key));
        let nb = self.top_buckets / 2;
        [
            self.top + (h1 % self.top_buckets) * BUCKET_LEN,
            self.top + (h2 % self.top_buckets) * BUCKET_LEN,
            self.bottom + (h1 % nb) * BUCKET_LEN,
            self.bottom + (h2 % nb) * BUCKET_LEN,
        ]
    }

    fn find_in_bucket(&self, bucket: PmAddr, key: u64) -> Option<PmAddr> {
        for s in 0..SLOTS_PER_BUCKET {
            let a = bucket + s * SLOT_LEN;
            if self.store.pm.read_u64(a) == key {
                return Some(a);
            }
        }
        None
    }

    fn empty_in_bucket(&self, bucket: PmAddr) -> Option<PmAddr> {
        for s in 0..SLOTS_PER_BUCKET {
            let a = bucket + s * SLOT_LEN;
            if self.store.pm.read_u64(a) == EMPTY {
                return Some(a);
            }
        }
        None
    }

    /// Writes a slot: value first, then the 8 B key publish, one flush.
    fn write_slot(&mut self, slot: PmAddr, key: u64, value: u64) {
        self.store.pm.write_u64(slot + 8, value);
        self.store.pm.write_u64(slot, key);
        self.store.persist(slot, 16);
    }

    /// Tries to relocate one resident of `bucket` to its alternate bucket on
    /// the same level, freeing a slot. Returns the freed slot.
    fn try_move(&mut self, bucket: PmAddr) -> Option<PmAddr> {
        for s in 0..SLOTS_PER_BUCKET {
            let a = bucket + s * SLOT_LEN;
            let k = self.store.pm.read_u64(a);
            if k == EMPTY {
                continue;
            }
            let cands = self.candidates(k);
            for alt in cands {
                if alt == bucket {
                    continue;
                }
                // All four candidates are legal homes for k, so any with
                // space works.
                if let Some(dst) = self.empty_in_bucket(alt) {
                    let v = self.store.pm.read_u64(a + 8);
                    // Copy first, then invalidate the source (ordered for
                    // crash consistency; duplicates are benign, loss is not).
                    self.write_slot(dst, k, v);
                    self.store.pm.write_u64(a, EMPTY);
                    self.store.persist(a, 8);
                    return Some(a);
                }
            }
        }
        None
    }

    /// Tries to place `(key, value)` without resizing: empty candidate slot
    /// first, then one round of movement. Returns whether it succeeded.
    fn insert_no_resize(&mut self, key: u64, value: u64) -> bool {
        let cands = self.candidates(key);
        for b in cands {
            if let Some(a) = self.empty_in_bucket(b) {
                self.write_slot(a, key, value);
                return true;
            }
        }
        for b in cands {
            if let Some(a) = self.try_move(b) {
                self.write_slot(a, key, value);
                return true;
            }
        }
        false
    }

    fn resize(&mut self) -> Result<(), IndexError> {
        let new_top_buckets = self.top_buckets * 2;
        let new_top = Self::fresh_level(&mut self.store, new_top_buckets)?;
        let old_bottom = self.bottom;
        let old_bottom_buckets = self.top_buckets / 2;

        // Collect the old-bottom entries to rehash.
        let mut items = Vec::new();
        for b in 0..old_bottom_buckets {
            for s in 0..SLOTS_PER_BUCKET {
                let a = old_bottom + b * BUCKET_LEN + s * SLOT_LEN;
                let k = self.store.pm.read_u64(a);
                if k != EMPTY {
                    items.push((k, self.store.pm.read_u64(a + 8)));
                }
            }
        }

        // Old top becomes the new bottom (its entries sit exactly at
        // `h % new_bottom_size`); old-bottom entries are rehashed into the
        // new structure with the full insert logic.
        self.bottom = self.top;
        self.top = new_top;
        self.top_buckets = new_top_buckets;
        self.store
            .dealloc(old_bottom, old_bottom_buckets * BUCKET_LEN);

        for (k, v) in items {
            if !self.insert_no_resize(k, v) {
                // Pathological collision pile-up: grow again and retry this
                // item (terminates at arena exhaustion).
                self.resize()?;
                if !self.insert_no_resize(k, v) {
                    return Err(IndexError::OutOfSpace);
                }
            }
        }
        Ok(())
    }
}

impl Index for LevelHash {
    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>, IndexError> {
        if key == EMPTY {
            return Err(IndexError::ReservedKey);
        }
        for _ in 0..8 {
            let cands = self.candidates(key);
            // Existing key: in-place value update.
            for b in cands {
                if let Some(a) = self.find_in_bucket(b, key) {
                    let old = self.store.pm.read_u64(a + 8);
                    self.store.pm.write_u64(a + 8, value);
                    self.store.persist(a + 8, 8);
                    return Ok(Some(old));
                }
            }
            // Empty slot (top buckets first), then movement, then resize.
            if self.insert_no_resize(key, value) {
                self.len += 1;
                return Ok(None);
            }
            self.resize()?;
        }
        Err(IndexError::OutOfSpace)
    }

    fn get(&self, key: u64) -> Option<u64> {
        for b in self.candidates(key) {
            if let Some(a) = self.find_in_bucket(b, key) {
                return Some(self.store.pm.read_u64(a + 8));
            }
        }
        None
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        for b in self.candidates(key) {
            if let Some(a) = self.find_in_bucket(b, key) {
                let v = self.store.pm.read_u64(a + 8);
                self.store.pm.write_u64(a, EMPTY);
                self.store.persist(a, 8);
                self.len -= 1;
                return Some(v);
            }
        }
        None
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        let levels = [
            (self.top, self.top_buckets),
            (self.bottom, self.top_buckets / 2),
        ];
        for (level, buckets) in levels {
            for slot in 0..buckets * SLOTS_PER_BUCKET {
                let a = level + slot * SLOT_LEN;
                let k = self.store.pm.read_u64(a);
                if k != EMPTY {
                    f(k, self.store.pm.read_u64(a + 8));
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LevelHash {
        let pm = Arc::new(PmRegion::new(64 << 20));
        LevelHash::new(pm, PmAddr(0), 64 << 20, Mode::Persistent, 16).unwrap()
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut idx = small();
        for k in 0..2000u64 {
            assert_eq!(idx.insert(k, k + 1).unwrap(), None);
        }
        assert_eq!(idx.len(), 2000);
        for k in 0..2000u64 {
            assert_eq!(idx.get(k), Some(k + 1), "key {k}");
        }
        assert_eq!(idx.remove(7), Some(8));
        assert_eq!(idx.get(7), None);
        assert_eq!(idx.remove(7), None);
    }

    #[test]
    fn grows_through_resizes() {
        let mut idx = small();
        let start_buckets = idx.top_buckets;
        for k in 0..30_000u64 {
            idx.insert(k * 7 + 1, k).unwrap();
        }
        assert!(idx.top_buckets > start_buckets, "resize must have run");
        for k in 0..30_000u64 {
            assert_eq!(idx.get(k * 7 + 1), Some(k), "key {} lost", k * 7 + 1);
        }
    }

    #[test]
    fn update_in_place() {
        let mut idx = small();
        idx.insert(5, 1).unwrap();
        assert_eq!(idx.insert(5, 2).unwrap(), Some(1));
        assert_eq!(idx.get(5), Some(2));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn volatile_mode_never_flushes() {
        let pm = Arc::new(PmRegion::new(8 << 20));
        let mut idx =
            LevelHash::new(Arc::clone(&pm), PmAddr(0), 8 << 20, Mode::Volatile, 16).unwrap();
        for k in 0..5000u64 {
            idx.insert(k, k).unwrap();
        }
        assert_eq!(pm.stats().flushes(), 0);
        assert_eq!(pm.stats().fences(), 0);
    }

    #[test]
    fn reserved_key_rejected() {
        let mut idx = small();
        assert_eq!(idx.insert(u64::MAX, 0), Err(IndexError::ReservedKey));
    }
}
