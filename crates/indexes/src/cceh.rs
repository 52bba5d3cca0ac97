//! CCEH: Cacheline-Conscious Extendible Hashing (Nam et al., FAST '19),
//! reimplemented as a FlatStore comparison baseline.
//!
//! Three-level layout per the original paper and FlatStore Table 1: a
//! volatile *directory* of segment pointers (top hash bits), 16 KB PM
//! *segments* of 256 cacheline-sized *buckets*, 4 slots per bucket. Inserts
//! probe a 4-bucket window with linear probing; a full window triggers a
//! segment split (copy half the slots to a new segment, persist it whole,
//! update the directory — the write amplification FlatStore's log avoids).
//! Stale slots left behind by lazy deletion are recognized by checking the
//! slot's hash prefix against the segment's `(prefix, local_depth)`.

use std::sync::Arc;

use pmem::{PmAddr, PmRegion};

use crate::common::{hash64, Mode, Store, EMPTY};
use crate::error::IndexError;
use crate::traits::Index;

const SLOT_LEN: u64 = 16; // key + value
const SLOTS_PER_BUCKET: u64 = 4;
const BUCKET_LEN: u64 = SLOTS_PER_BUCKET * SLOT_LEN; // one cacheline
const BUCKETS_PER_SEG: u64 = 256;
const SEG_LEN: u64 = BUCKETS_PER_SEG * BUCKET_LEN; // 16 KB
const PROBE_BUCKETS: u64 = 4;
const MAX_GLOBAL_DEPTH: u32 = 28;

#[derive(Debug, Clone)]
struct Segment {
    addr: PmAddr,
    local_depth: u32,
    /// Top `local_depth` hash bits every resident key shares.
    prefix: u64,
}

/// A CCEH hash index over a PM arena.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pmem::{PmRegion, PmAddr};
/// use indexes::{Cceh, Index, Mode};
///
/// let pm = Arc::new(PmRegion::new(1 << 22));
/// let mut idx = Cceh::new(pm, PmAddr(0), 1 << 22, Mode::Persistent, 1)?;
/// idx.insert(7, 700)?;
/// assert_eq!(idx.get(7), Some(700));
/// # Ok::<(), indexes::IndexError>(())
/// ```
pub struct Cceh {
    store: Store,
    directory: Vec<u32>,
    segments: Vec<Segment>,
    global_depth: u32,
    len: usize,
}

impl std::fmt::Debug for Cceh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cceh")
            .field("global_depth", &self.global_depth)
            .field("segments", &self.segments.len())
            .field("len", &self.len)
            .finish()
    }
}

impl Cceh {
    /// Creates an index in `[base, base+len)` of `pm`, starting with
    /// `2^initial_depth` segments.
    ///
    /// # Errors
    ///
    /// [`IndexError::OutOfSpace`] if the arena cannot hold the initial
    /// segments.
    pub fn new(
        pm: Arc<PmRegion>,
        base: PmAddr,
        len: u64,
        mode: Mode,
        initial_depth: u32,
    ) -> Result<Cceh, IndexError> {
        let mut store = Store::new(pm, base, len, mode);
        let nsegs = 1u32 << initial_depth;
        let mut segments = Vec::with_capacity(nsegs as usize);
        let mut directory = Vec::with_capacity(nsegs as usize);
        for i in 0..nsegs {
            let addr = Self::fresh_segment(&mut store)?;
            segments.push(Segment {
                addr,
                local_depth: initial_depth,
                prefix: i as u64,
            });
            directory.push(i);
        }
        Ok(Cceh {
            store,
            directory,
            segments,
            global_depth: initial_depth,
            len: 0,
        })
    }

    /// The directory depth at which `keys` keys bulk-load without a split:
    /// the smallest one that leaves every segment at most a quarter full
    /// (256 of its 1024 slots — at that load a 16-slot probe window
    /// overflows about once in a thousand segments, and a split still
    /// handles it), capped so the initial segments take at most half of an
    /// arena of `arena_len` bytes.
    pub fn depth_for(keys: usize, arena_len: u64) -> u32 {
        let quarter_full = BUCKETS_PER_SEG as usize;
        let want = keys.div_ceil(quarter_full).next_power_of_two().ilog2();
        let fit = (arena_len / SEG_LEN / 2).max(1).ilog2();
        want.min(fit).min(MAX_GLOBAL_DEPTH)
    }

    /// Segments allocated so far: `2^initial_depth` plus one per split.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn fresh_segment(store: &mut Store) -> Result<PmAddr, IndexError> {
        let addr = store.alloc(SEG_LEN)?;
        store.pm.fill(addr, SEG_LEN as usize, 0xFF); // all-EMPTY slots
        store.flush(addr, SEG_LEN as usize);
        store.fence();
        Ok(addr)
    }

    #[inline]
    fn dir_index(&self, h: u64) -> usize {
        if self.global_depth == 0 {
            0
        } else {
            (h >> (64 - self.global_depth)) as usize
        }
    }

    #[inline]
    fn slot_offset(bucket: u64, slot: u64) -> u64 {
        bucket * BUCKET_LEN + slot * SLOT_LEN
    }

    #[inline]
    fn slot_addr(seg: PmAddr, bucket: u64, slot: u64) -> PmAddr {
        seg + Self::slot_offset(bucket, slot)
    }

    #[inline]
    fn belongs(seg: &Segment, h: u64) -> bool {
        seg.local_depth == 0 || (h >> (64 - seg.local_depth)) == seg.prefix
    }

    /// Scans `h`'s 16-slot window of `seg` for `key` and returns
    /// `(slot_addr, current_value)` if found, plus the first usable (empty
    /// or stale) slot. With `key = None` — a key the caller knows is
    /// absent — the scan stops at that first usable slot.
    fn probe(
        &self,
        seg: &Segment,
        h: u64,
        key: Option<u64>,
    ) -> (Option<(PmAddr, u64)>, Option<PmAddr>) {
        let start = h & (BUCKETS_PER_SEG - 1);
        let mut empty = None;
        for i in 0..PROBE_BUCKETS {
            let bucket = (start + i) & (BUCKETS_PER_SEG - 1);
            for s in 0..SLOTS_PER_BUCKET {
                let a = Self::slot_addr(seg.addr, bucket, s);
                let k = self.store.pm.read_u64(a);
                if Some(k) == key {
                    return (Some((a, self.store.pm.read_u64(a + 8))), empty);
                }
                if empty.is_none() && (k == EMPTY || !Self::belongs(seg, hash64(k))) {
                    if key.is_none() {
                        return (None, Some(a));
                    }
                    empty = Some(a);
                }
            }
        }
        (None, empty)
    }

    /// Stores `key` → `value` (`h = hash64(key)`), splitting until its
    /// window has room; returns the value it replaced. `known_absent`
    /// skips the search for `key` itself: the key goes to the first usable
    /// slot, which is all a bulk load of new keys needs.
    fn upsert(
        &mut self,
        h: u64,
        key: u64,
        value: u64,
        known_absent: bool,
    ) -> Result<Option<u64>, IndexError> {
        let wanted = (!known_absent).then_some(key);
        for _ in 0..64 {
            let seg = self.segments[self.directory[self.dir_index(h)] as usize].clone();
            let (found, empty) = self.probe(&seg, h, wanted);
            if let Some((a, old)) = found {
                // In-place value update: 8 B store + flush + fence (the
                // repeated-cacheline pattern skewed workloads suffer from).
                self.store.pm.write_u64(a + 8, value);
                self.store.persist(a + 8, 8);
                return Ok(Some(old));
            }
            if let Some(a) = empty {
                // Value first, then key (8 B atomic publish), one cacheline
                // flush covers the 16 B slot.
                self.store.pm.write_u64(a + 8, value);
                self.store.pm.write_u64(a, key);
                self.store.persist(a, 16);
                self.len += 1;
                return Ok(None);
            }
            self.split(self.dir_index(h))?;
        }
        Err(IndexError::OutOfSpace)
    }

    fn split(&mut self, dir_idx: usize) -> Result<(), IndexError> {
        let seg_id = self.directory[dir_idx];
        let old = self.segments[seg_id as usize].clone();
        if old.local_depth >= MAX_GLOBAL_DEPTH {
            return Err(IndexError::OutOfSpace);
        }
        if old.local_depth == self.global_depth {
            // Double the directory (volatile metadata).
            if self.global_depth >= MAX_GLOBAL_DEPTH {
                return Err(IndexError::OutOfSpace);
            }
            let mut doubled = Vec::with_capacity(self.directory.len() * 2);
            for &e in &self.directory {
                doubled.push(e);
                doubled.push(e);
            }
            self.directory = doubled;
            self.global_depth += 1;
        }
        let new_depth = old.local_depth + 1;
        let new_prefix = (old.prefix << 1) | 1;
        let new_addr = Self::fresh_segment(&mut self.store)?;

        // Copy the slots whose hash now maps to the new segment.
        for bucket in 0..BUCKETS_PER_SEG {
            for s in 0..SLOTS_PER_BUCKET {
                let a = Self::slot_addr(old.addr, bucket, s);
                let k = self.store.pm.read_u64(a);
                if k == EMPTY {
                    continue;
                }
                let h = hash64(k);
                if !Self::belongs(&old, h) {
                    continue; // already-stale slot
                }
                if (h >> (64 - new_depth)) == new_prefix {
                    let v = self.store.pm.read_u64(a + 8);
                    // Same bucket index bits; first empty slot in the window.
                    let start = h & (BUCKETS_PER_SEG - 1);
                    'place: for i in 0..PROBE_BUCKETS {
                        let b = (start + i) & (BUCKETS_PER_SEG - 1);
                        for t in 0..SLOTS_PER_BUCKET {
                            let na = Self::slot_addr(new_addr, b, t);
                            if self.store.pm.read_u64(na) == EMPTY {
                                self.store.pm.write_u64(na + 8, v);
                                self.store.pm.write_u64(na, k);
                                break 'place;
                            }
                        }
                    }
                }
            }
        }
        // Persist the whole new segment before publishing it (CCEH's
        // split-then-flush; the bulk of its write amplification).
        self.store.persist(new_addr, SEG_LEN as usize);

        let new_id = self.segments.len() as u32;
        self.segments.push(Segment {
            addr: new_addr,
            local_depth: new_depth,
            prefix: new_prefix,
        });
        self.segments[seg_id as usize].local_depth = new_depth;
        self.segments[seg_id as usize].prefix = old.prefix << 1;

        // Re-point directory entries covering the new prefix.
        let span = 1usize << (self.global_depth - new_depth);
        let first = (new_prefix << (self.global_depth - new_depth)) as usize;
        for e in &mut self.directory[first..first + span] {
            *e = new_id;
        }
        Ok(())
    }
}

impl Index for Cceh {
    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>, IndexError> {
        if key == EMPTY {
            return Err(IndexError::ReservedKey);
        }
        self.upsert(hash64(key), key, value, false)
    }

    /// Partitions `pairs` by directory entry in one counting pass, hashing
    /// each key once, and sorts each entry's group (about 200 keys at
    /// [`depth_for`](Cceh::depth_for)'s depth) by hash. `hash64` is a
    /// bijection, so a repeated key lands next to itself and is rejected,
    /// like a reserved key, before anything is stored. Then each segment
    /// is copied out whole, its keys go to the first usable slot of their
    /// windows — no search for the key itself: the precondition says it
    /// is absent — and the segment is written back and persisted once.
    /// A key whose window is full is stored by `insert`'s path after the
    /// write-back and splits as `insert` does; a split re-points the
    /// directory, so the keys after it take that path too.
    fn bulk_load(&mut self, pairs: &mut [(u64, u64)]) -> Result<(), IndexError> {
        let hashes: Vec<u64> = pairs.iter().map(|&(key, _)| hash64(key)).collect();
        let ndir = self.directory.len();
        // starts[d]..starts[d + 1] is directory entry d's group.
        let mut starts = vec![0usize; ndir + 1];
        for &h in &hashes {
            starts[self.dir_index(h) + 1] += 1;
        }
        for d in 0..ndir {
            starts[d + 1] += starts[d];
        }
        let mut next = starts.clone();
        let mut grouped = vec![(0u64, 0u64, 0u64); pairs.len()];
        for (&h, &(key, value)) in hashes.iter().zip(pairs.iter()) {
            let d = self.dir_index(h);
            grouped[next[d]] = (h, key, value);
            next[d] += 1;
        }
        drop((hashes, next));
        for d in 0..ndir {
            let group = &mut grouped[starts[d]..starts[d + 1]];
            group.sort_unstable_by_key(|&(h, _, _)| h);
            if let Some(w) = group.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(IndexError::DuplicateKey { key: w[0].1 });
            }
        }
        if grouped.iter().any(|&(_, key, _)| key == EMPTY) {
            return Err(IndexError::ReservedKey);
        }

        let mut seg_buf = vec![0u8; SEG_LEN as usize];
        let word = |buf: &[u8], at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let mut full = Vec::new();
        let mut d = 0;
        while d < ndir {
            // A segment serves a run of adjacent directory entries.
            let seg_id = self.directory[d];
            let end = d + self.directory[d..]
                .iter()
                .take_while(|&&id| id == seg_id)
                .count();
            let run = &grouped[starts[d]..starts[end]];
            d = end;
            if run.is_empty() {
                continue;
            }
            let seg = self.segments[seg_id as usize].clone();
            self.store.pm.read(seg.addr, &mut seg_buf);
            'key: for &(h, key, value) in run {
                let start = h & (BUCKETS_PER_SEG - 1);
                for i in 0..PROBE_BUCKETS {
                    let bucket = (start + i) & (BUCKETS_PER_SEG - 1);
                    for s in 0..SLOTS_PER_BUCKET {
                        let at = Self::slot_offset(bucket, s) as usize;
                        let k = word(&seg_buf, at);
                        if k == EMPTY || !Self::belongs(&seg, hash64(k)) {
                            seg_buf[at..at + 8].copy_from_slice(&key.to_le_bytes());
                            seg_buf[at + 8..at + 16].copy_from_slice(&value.to_le_bytes());
                            self.len += 1;
                            continue 'key;
                        }
                    }
                }
                full.push((h, key, value));
            }
            // One flush of the segment: a 16 B slot never straddles a
            // cacheline, so a key persists with its value.
            self.store.pm.write(seg.addr, &seg_buf);
            self.store.persist(seg.addr, SEG_LEN as usize);
            let nsegs = self.segments.len();
            for (h, key, value) in full.drain(..) {
                self.upsert(h, key, value, true)?;
            }
            if self.segments.len() != nsegs {
                // `starts` indexes the directory as it was before the split.
                for &(h, key, value) in &grouped[starts[end]..] {
                    self.upsert(h, key, value, true)?;
                }
                return Ok(());
            }
        }
        Ok(())
    }

    fn get(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let seg = &self.segments[self.directory[self.dir_index(h)] as usize];
        self.probe(seg, h, Some(key)).0.map(|(_, v)| v)
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let seg = self.segments[self.directory[self.dir_index(h)] as usize].clone();
        let (found, _) = self.probe(&seg, h, Some(key));
        found.map(|(a, v)| {
            self.store.pm.write_u64(a, EMPTY);
            self.store.persist(a, 8);
            self.len -= 1;
            v
        })
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        // Walk the directory, visiting each segment the first time an
        // entry references it (2^(global − local depth) entries share one).
        let mut seen = vec![false; self.segments.len()];
        for &seg_id in &self.directory {
            if std::mem::replace(&mut seen[seg_id as usize], true) {
                continue;
            }
            let seg = &self.segments[seg_id as usize];
            for bucket in 0..BUCKETS_PER_SEG {
                for s in 0..SLOTS_PER_BUCKET {
                    let a = Self::slot_addr(seg.addr, bucket, s);
                    let k = self.store.pm.read_u64(a);
                    if k != EMPTY && Self::belongs(seg, hash64(k)) {
                        f(k, self.store.pm.read_u64(a + 8));
                    }
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

    fn small() -> Cceh {
        let pm = Arc::new(PmRegion::new(32 << 20));
        Cceh::new(pm, PmAddr(0), 32 << 20, Mode::Persistent, 1).unwrap()
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut idx = small();
        for k in 0..1000u64 {
            assert_eq!(idx.insert(k, k * 10).unwrap(), None);
        }
        assert_eq!(idx.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(idx.get(k), Some(k * 10));
        }
        assert_eq!(idx.remove(500), Some(5000));
        assert_eq!(idx.get(500), None);
        assert_eq!(idx.len(), 999);
        assert_eq!(idx.remove(500), None);
    }

    #[test]
    fn update_returns_old_value() {
        let mut idx = small();
        assert_eq!(idx.insert(1, 10).unwrap(), None);
        assert_eq!(idx.insert(1, 20).unwrap(), Some(10));
        assert_eq!(idx.get(1), Some(20));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn survives_many_splits() {
        let mut idx = small();
        let n = 60_000u64;
        for k in 0..n {
            idx.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k).unwrap();
        }
        assert_eq!(idx.len(), n as usize);
        for k in 0..n {
            assert_eq!(idx.get(k.wrapping_mul(0x9E3779B97F4A7C15)), Some(k));
        }
        assert!(idx.global_depth > 1, "splits must have happened");
    }

    #[test]
    fn presized_bulk_load_does_not_split() {
        let n = 100_000usize;
        let arena = 64u64 << 20;
        let depth = Cceh::depth_for(n, arena);
        assert_eq!(depth, 9, "100 k keys / 256 per segment -> 512 segments");
        let pm = Arc::new(PmRegion::dram_arena(arena as usize));
        let mut idx = Cceh::new(pm, PmAddr(0), arena, Mode::Volatile, depth).unwrap();
        for k in 0..n as u64 {
            idx.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k).unwrap();
        }
        assert_eq!(idx.len(), n);
        assert!(
            idx.segments.len() <= (1 << depth) + 2,
            "{} segments: the bulk load split",
            idx.segments.len()
        );
        // for_each sees every key exactly once, shared directory entries
        // or not.
        let mut seen = 0usize;
        idx.for_each(&mut |_, _| seen += 1);
        assert_eq!(seen, n);
        // A small arena caps the depth instead of failing the build.
        assert_eq!(Cceh::depth_for(n, 1 << 20), 5);
        assert_eq!(Cceh::depth_for(0, arena), 0);
    }

    #[test]
    fn for_each_visits_split_segments_once() {
        let mut idx = small();
        let n = 20_000u64;
        for k in 0..n {
            idx.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k).unwrap();
        }
        let mut sum = 0u64;
        let mut count = 0u64;
        idx.for_each(&mut |_, v| {
            sum += v;
            count += 1;
        });
        assert_eq!(count, n);
        assert_eq!(sum, n * (n - 1) / 2);
    }

    #[test]
    fn reserved_key_rejected() {
        let mut idx = small();
        assert_eq!(idx.insert(u64::MAX, 1), Err(IndexError::ReservedKey));
    }

    #[test]
    fn persistent_insert_flushes_once_volatile_never() {
        let pm = Arc::new(PmRegion::new(4 << 20));
        let mut idx = Cceh::new(Arc::clone(&pm), PmAddr(0), 4 << 20, Mode::Persistent, 1).unwrap();
        let before = pm.stats().snapshot();
        idx.insert(42, 1).unwrap();
        let d = pm.stats().snapshot().delta(&before);
        assert_eq!(d.flushes, 1, "slot fits one cacheline");
        assert_eq!(d.fences, 1);

        let pm2 = Arc::new(PmRegion::new(4 << 20));
        let mut vol = Cceh::new(Arc::clone(&pm2), PmAddr(0), 4 << 20, Mode::Volatile, 1).unwrap();
        vol.insert(42, 1).unwrap();
        assert_eq!(pm2.stats().flushes(), 0);
    }

    #[test]
    fn cas_swaps_only_on_match() {
        let mut idx = small();
        idx.insert(3, 30).unwrap();
        assert!(!idx.cas(3, 31, 99));
        assert_eq!(idx.get(3), Some(30));
        assert!(idx.cas(3, 30, 99));
        assert_eq!(idx.get(3), Some(99));
    }

    #[test]
    fn out_of_space_is_reported() {
        let pm = Arc::new(PmRegion::new(256 << 10));
        // Arena fits only a few segments.
        let mut idx = Cceh::new(pm, PmAddr(0), 256 << 10, Mode::Persistent, 1).unwrap();
        let mut err = None;
        for k in 0..1_000_000u64 {
            if let Err(e) = idx.insert(k, k) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(IndexError::OutOfSpace));
    }
}
