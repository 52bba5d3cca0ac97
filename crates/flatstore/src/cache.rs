//! DRAM-resident hot-value read cache.
//!
//! Every Get that misses here pays a simulated-PM media read to fetch the
//! value from the log (two for out-of-log values); under skewed workloads a
//! small DRAM cache absorbs most of that cost. The cache is **purely
//! volatile** — it is rebuilt empty on every open/recovery/promotion and
//! never touches the [`PmRegion`](pmem::PmRegion) — so it cannot affect
//! durability, only read latency.
//!
//! # Sharding and coherence
//!
//! The cache is sharded per server core. Requests are routed by keyhash
//! ([`core_of`](crate::shard::core_of)), so a key's cache shard is only
//! ever touched by its owner core's worker thread: the per-shard mutex is
//! uncontended and exists only to keep the type `Sync` for the engine's
//! report path. Coherence follows from two facts (see DESIGN.md §11):
//!
//! 1. the conflict gate defers a Get while the key has an in-flight Put or
//!    Delete, so a cached fill can never race an older pending write, and
//! 2. [`Shard::complete`](crate::shard::Shard) invalidates the key *before*
//!    acknowledging the write, on the same thread that serves the key's
//!    Gets — so once a client sees a write acked, the stale value is gone.
//!
//! Range scans bypass the cache entirely: a shared ordered index crosses
//! core ownership, and filling another core's shard from a scan would break
//! the single-writer discipline above.
//!
//! # Admission
//!
//! A miss-fill into a shard with room is always admitted. Into a full
//! shard it is admitted only if the key's access frequency beats every
//! victim CLOCK would evict to make room (TinyLFU, Einziger, Friedman &
//! Manes, ACM TOS 2017). Frequencies come from a per-shard count-min
//! [`Sketch`] that every lookup — hit or miss — increments. A rejected
//! fill returns before any allocation, map insert or eviction, so a Get
//! over a footprint far larger than the cache stops paying a fill and an
//! eviction it would never earn back. A skipped fill is just a miss, so
//! the coherence argument above is unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Accounted DRAM bytes per cached entry beyond the value itself — one
/// cacheline of metadata (key, map slot, CLOCK state, allocation headers).
const SLOT_OVERHEAD: usize = 64;

/// Hashed counters per key in the frequency sketch.
const SKETCH_ROWS: usize = 4;

/// Largest value of a 4-bit sketch counter.
const COUNTER_MAX: u64 = 15;

/// One cacheline of sketch counters: eight words of sixteen 4-bit
/// counters, two words per row.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Block([u64; 2 * SKETCH_ROWS]);

/// Count-min frequency sketch: [`SKETCH_ROWS`] rows of `width` 4-bit
/// saturating counters. A key's estimate is the minimum of its one
/// counter per row; all four sit in one cacheline-sized [`Block`]
/// picked by the key's hash, so a lookup touches one line. After
/// `10 × width` increments every counter is halved, so the estimate
/// tracks recent frequency.
struct Sketch {
    blocks: Box<[Block]>,
    /// Increments since the last halving.
    additions: u64,
    /// Increments between halvings.
    sample: u64,
}

impl Sketch {
    fn new(width: usize) -> Sketch {
        let width = width.next_power_of_two();
        // A block holds 32 counters of each row.
        let nblocks = (width / 32).max(1);
        Sketch {
            blocks: vec![Block([0; 2 * SKETCH_ROWS]); nblocks].into_boxed_slice(),
            additions: 0,
            sample: 10 * width as u64,
        }
    }

    /// `(block, word, bit shift)` of `key`'s counter in each row, from
    /// disjoint bits of one splitmix64 mix of the key: the low bits pick
    /// the block, bits 32.. the word of each row's pair, bits 40.. the
    /// counter within it.
    fn cells(&self, key: u64) -> [(usize, usize, u32); SKETCH_ROWS] {
        let mut h = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let block = h as usize & (self.blocks.len() - 1);
        std::array::from_fn(|row| {
            let word = 2 * row + (h >> (32 + row)) as usize % 2;
            let counter = (h >> (40 + 4 * row)) as u32 % 16;
            (block, word, counter * 4)
        })
    }

    fn increment(&mut self, key: u64) {
        for (block, word, shift) in self.cells(key) {
            let w = &mut self.blocks[block].0[word];
            if (*w >> shift) & COUNTER_MAX < COUNTER_MAX {
                *w += 1 << shift;
            }
        }
        self.additions += 1;
        if self.additions >= self.sample {
            self.age();
        }
    }

    fn estimate(&self, key: u64) -> u64 {
        self.cells(key)
            .iter()
            .map(|&(block, word, shift)| (self.blocks[block].0[word] >> shift) & COUNTER_MAX)
            .min()
            .unwrap_or(0)
    }

    /// Halves every counter.
    fn age(&mut self) {
        for w in self.blocks.iter_mut().flat_map(|b| b.0.iter_mut()) {
            *w = (*w >> 1) & 0x7777_7777_7777_7777;
        }
        self.additions = 0;
    }
}

struct Slot {
    key: u64,
    value: Box<[u8]>,
    /// CLOCK reference bit: set on hit, cleared as the hand sweeps past.
    referenced: bool,
}

impl Slot {
    fn cost(&self) -> usize {
        SLOT_OVERHEAD + self.value.len()
    }
}

/// One core's CLOCK ring: a slot vector swept by a hand plus a key → slot
/// map, gated by a frequency sketch. Eviction order is approximate LRU
/// (second chance).
struct ClockShard {
    cap_bytes: usize,
    used_bytes: usize,
    hand: usize,
    slots: Vec<Slot>,
    map: HashMap<u64, usize>,
    sketch: Sketch,
    /// Keys [`admit`](Self::admit) picked to make room; reused across
    /// fills so a rejected one allocates nothing.
    victims: Vec<u64>,
}

impl ClockShard {
    fn new(cap_bytes: usize) -> ClockShard {
        ClockShard {
            cap_bytes,
            used_bytes: 0,
            hand: 0,
            slots: Vec::new(),
            map: HashMap::new(),
            sketch: Sketch::new(cap_bytes / SLOT_OVERHEAD),
            victims: Vec::new(),
        }
    }

    fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.sketch.increment(key);
        let &i = self.map.get(&key)?;
        self.slots[i].referenced = true;
        Some(self.slots[i].value.to_vec())
    }

    /// Fills `key` after a miss, dropping any resident copy first. Returns
    /// how many entries were evicted to make room, or `None` if the fill
    /// was not admitted — including values that cannot fit even an empty
    /// shard, which are never cached rather than wiping the whole shard.
    fn insert(&mut self, key: u64, value: &[u8]) -> Option<u64> {
        self.remove(key);
        let cost = SLOT_OVERHEAD + value.len();
        if cost > self.cap_bytes || !self.admit(key, cost) {
            return None;
        }
        let victims = std::mem::take(&mut self.victims);
        for &victim in &victims {
            self.remove(victim);
        }
        let evicted = victims.len() as u64;
        self.victims = victims;
        self.slots.push(Slot {
            key,
            value: value.into(),
            referenced: true,
        });
        self.map.insert(key, self.slots.len() - 1);
        self.used_bytes += cost;
        Some(evicted)
    }

    /// Whether a fill of `cost` bytes for `key` gets in; on `true`,
    /// `victims` holds the keys to evict first. With room it always does.
    /// Otherwise the hand sweeps as CLOCK would — clearing reference bits
    /// on the way — and `key` must beat the sketch estimate of every
    /// unreferenced slot it reaches until they free enough. On a loss the
    /// hand stays on the winning victim.
    fn admit(&mut self, key: u64, cost: usize) -> bool {
        self.victims.clear();
        let mut need = (self.used_bytes + cost).saturating_sub(self.cap_bytes);
        if need == 0 {
            return true;
        }
        let freq = self.sketch.estimate(key);
        let mut pos = self.hand;
        // Two laps always suffice: the first clears every reference bit,
        // and the slots hold `used_bytes >= need` (as `cost <= cap_bytes`).
        for _ in 0..2 * self.slots.len() {
            if pos >= self.slots.len() {
                pos = 0;
            }
            let s = &mut self.slots[pos];
            if s.referenced {
                s.referenced = false;
            } else if !self.victims.contains(&s.key) {
                if self.sketch.estimate(s.key) >= freq {
                    self.hand = pos;
                    return false;
                }
                self.victims.push(s.key);
                need = need.saturating_sub(s.cost());
                if need == 0 {
                    self.hand = pos + 1;
                    return true;
                }
            }
            pos += 1;
        }
        false
    }

    fn remove(&mut self, key: u64) -> bool {
        let Some(i) = self.map.remove(&key) else {
            return false;
        };
        self.used_bytes -= self.slots[i].cost();
        self.slots.swap_remove(i);
        if let Some(moved) = self.slots.get(i) {
            self.map.insert(moved.key, i);
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
        true
    }
}

/// The engine-wide read cache: one [`ClockShard`] per server core plus the
/// monotonic counters surfaced through
/// [`FlatStore::stats_report`](crate::FlatStore::stats_report).
pub(crate) struct ReadCache {
    shards: Vec<Mutex<ClockShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ReadCache {
    /// Splits `total_bytes` of DRAM budget evenly across `ncores` shards;
    /// `total_bytes == 0` disables the cache (the engine then skips it
    /// entirely, leaving the Get path byte-identical to a cache-less
    /// build).
    pub fn new(total_bytes: usize, ncores: usize) -> Option<Arc<ReadCache>> {
        if total_bytes == 0 {
            return None;
        }
        let per_shard = (total_bytes / ncores.max(1)).max(1);
        let mut shards = Vec::with_capacity(ncores);
        shards.resize_with(ncores, || Mutex::new(ClockShard::new(per_shard)));
        Some(Arc::new(ReadCache {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }))
    }

    /// Looks `key` up in `core`'s shard, counting the hit or miss and the
    /// key's access in the shard's sketch.
    pub fn get(&self, core: usize, key: u64) -> Option<Vec<u8>> {
        let got = self.shards[core].lock().get(key);
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Fills `key` after a cache miss served from the log, if admitted.
    pub fn insert(&self, core: usize, key: u64, value: &[u8]) {
        match self.shards[core].lock().insert(key, value) {
            Some(evicted) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                if evicted > 0 {
                    self.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
            }
            None => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Write-through invalidation: called by the owner core before it acks
    /// a Put or Delete of `key`.
    pub fn invalidate(&self, core: usize, key: u64) {
        if self.shards[core].lock().remove(key) {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fills the `read_cache` report section.
    pub fn fill_report(&self, r: &mut obs::StatsReport) {
        let (mut entries, mut used, mut cap) = (0usize, 0usize, 0usize);
        for shard in &self.shards {
            let s = shard.lock();
            entries += s.slots.len();
            used += s.used_bytes;
            cap += s.cap_bytes;
        }
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let lookups = hits + misses;
        let admitted = self.admitted.load(Ordering::Relaxed);
        let rejected = self.rejected.load(Ordering::Relaxed);
        let sec = r.section("read_cache");
        sec.row("capacity_bytes", cap)
            .row("used_bytes", used)
            .row("entries", entries)
            .row("hits", hits)
            .row("misses", misses)
            .row(
                "hit_rate",
                if lookups == 0 {
                    0.0
                } else {
                    hits as f64 / lookups as f64
                },
            )
            .row("inserts", admitted + rejected)
            .row("admitted", admitted)
            .row("rejected", rejected)
            .row("evictions", self.evictions.load(Ordering::Relaxed))
            .row("invalidations", self.invalidations.load(Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(bytes: usize, ncores: usize) -> Arc<ReadCache> {
        match ReadCache::new(bytes, ncores) {
            Some(c) => c,
            None => panic!("capacity {bytes} should enable the cache"),
        }
    }

    #[test]
    fn zero_budget_disables() {
        assert!(ReadCache::new(0, 4).is_none());
    }

    #[test]
    fn hit_after_insert_miss_after_invalidate() {
        let c = cache(1 << 20, 2);
        assert_eq!(c.get(0, 7), None);
        c.insert(0, 7, b"value");
        assert_eq!(c.get(0, 7).as_deref(), Some(&b"value"[..]));
        // Shards are independent: the same key misses on another core.
        assert_eq!(c.get(1, 7), None);
        c.invalidate(0, 7);
        assert_eq!(c.get(0, 7), None);
    }

    #[test]
    fn replacing_insert_updates_value_and_bytes() {
        let c = cache(1 << 20, 1);
        c.insert(0, 1, b"old");
        c.insert(0, 1, b"newer-value");
        assert_eq!(c.get(0, 1).as_deref(), Some(&b"newer-value"[..]));
        let s = c.shards[0].lock();
        assert_eq!(s.slots.len(), 1);
        assert_eq!(s.used_bytes, SLOT_OVERHEAD + b"newer-value".len());
    }

    #[test]
    fn oversized_value_is_not_cached() {
        // Budget below one slot's overhead: nothing ever fits (the
        // "capacity 1" degenerate case must behave, not panic).
        let c = cache(1, 1);
        c.insert(0, 1, b"x");
        assert_eq!(c.get(0, 1), None);
        assert_eq!(c.shards[0].lock().used_bytes, 0);
    }

    #[test]
    fn clock_evicts_cold_entries_first() {
        // Room for exactly two value-less-than-16B entries.
        let c = cache(2 * (SLOT_OVERHEAD + 16), 1);
        c.insert(0, 1, &[1u8; 16]);
        c.insert(0, 2, &[2u8; 16]);
        // Touch key 1 so its reference bit survives the next sweep.
        assert!(c.get(0, 1).is_some());
        // But clear key 2's bit by sweeping: inserting key 3 must evict the
        // unreferenced key 2, not the just-touched key 1.
        c.shards[0].lock().slots.iter_mut().for_each(|s| {
            if s.key == 2 {
                s.referenced = false;
            }
        });
        // The fill follows its miss, as in the engine: key 3 has been
        // looked up once, its victim never, so admission lets it in.
        assert_eq!(c.get(0, 3), None);
        c.insert(0, 3, &[3u8; 16]);
        assert!(c.get(0, 1).is_some(), "hot key evicted");
        assert_eq!(c.get(0, 2), None, "cold key kept");
        assert!(c.get(0, 3).is_some());
        assert_eq!(c.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn eviction_churn_keeps_accounting_consistent() {
        let c = cache(8 * (SLOT_OVERHEAD + 32), 1);
        for round in 0..50u64 {
            for k in 0..16u64 {
                c.insert(0, k, &[round as u8; 32]);
                let _ = c.get(0, (k * 7 + round) % 16);
            }
            c.invalidate(0, round % 16);
        }
        let s = c.shards[0].lock();
        let sum: usize = s.slots.iter().map(Slot::cost).sum();
        assert_eq!(s.used_bytes, sum);
        assert!(s.used_bytes <= s.cap_bytes);
        assert_eq!(s.map.len(), s.slots.len());
        for (k, &i) in &s.map {
            assert_eq!(s.slots[i].key, *k);
        }
    }

    #[test]
    fn report_rows_reflect_counters() {
        let c = cache(1 << 20, 1);
        c.insert(0, 1, b"v");
        let _ = c.get(0, 1);
        let _ = c.get(0, 2);
        c.invalidate(0, 1);
        let mut r = obs::StatsReport::new("t");
        c.fill_report(&mut r);
        assert_eq!(r.get("read_cache", "hits"), Some(&obs::Value::U64(1)));
        assert_eq!(r.get("read_cache", "misses"), Some(&obs::Value::U64(1)));
        assert_eq!(
            r.get("read_cache", "invalidations"),
            Some(&obs::Value::U64(1))
        );
        assert_eq!(r.get("read_cache", "admitted"), Some(&obs::Value::U64(1)));
        assert_eq!(r.get("read_cache", "rejected"), Some(&obs::Value::U64(0)));
    }

    /// A Get as the engine serves it: look up, and fill on a miss.
    fn serve(c: &ReadCache, key: u64, len: usize) -> bool {
        let hit = c.get(0, key).is_some();
        if !hit {
            c.insert(0, key, &vec![key as u8; len]);
        }
        hit
    }

    #[test]
    fn shard_with_room_admits_every_miss() {
        let c = cache(64 * (SLOT_OVERHEAD + 32), 1);
        for k in 0..64u64 {
            assert!(!serve(&c, k, 32));
        }
        for k in 0..64u64 {
            assert!(serve(&c, k, 32), "key {k} was not admitted");
        }
        assert_eq!(c.admitted.load(Ordering::Relaxed), 64);
        assert_eq!(c.rejected.load(Ordering::Relaxed), 0);
        assert_eq!(c.evictions.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn hot_set_survives_a_cold_scan() {
        // 64 entries of 512 B; the sketch is 512 counters wide.
        const LEN: usize = 512 - SLOT_OVERHEAD;
        let c = cache(64 * 512, 1);
        let hot = 0..32u64;
        for _ in 0..8 {
            for k in hot.clone() {
                serve(&c, k, LEN);
            }
        }
        // One pass over 2× the shard's capacity of never-seen keys.
        for k in 1000..1128u64 {
            assert!(!serve(&c, k, LEN));
        }
        for k in hot {
            assert!(c.get(0, k).is_some(), "hot key {k} evicted by the scan");
        }
        // The first 32 scanned keys filled the free half; the rest lost.
        assert_eq!(c.admitted.load(Ordering::Relaxed), 64);
        assert_eq!(c.rejected.load(Ordering::Relaxed), 96);
    }

    /// A full shard of four 1 KiB entries, keys 1..=4 looked up
    /// 1, 5, 5, 5 times, every reference bit clear and the hand on key 1;
    /// then key 9 is looked up `lookups` times and filled with a 2 KiB
    /// value, which needs two victims: keys 1 and 2.
    fn two_victim_fill(lookups: usize) -> Arc<ReadCache> {
        let c = cache(4 * 1024, 1);
        for (k, n) in [(1u64, 1), (2, 5), (3, 5), (4, 5)] {
            c.insert(0, k, &[k as u8; 1024 - SLOT_OVERHEAD]);
            for _ in 0..n {
                assert!(c.get(0, k).is_some());
            }
        }
        for _ in 0..lookups {
            assert_eq!(c.get(0, 9), None);
        }
        {
            let mut s = c.shards[0].lock();
            s.slots.iter_mut().for_each(|s| s.referenced = false);
            s.hand = 0;
            let estimates: Vec<u64> = [1, 2, 3, 4, 9].map(|k| s.sketch.estimate(k)).into();
            assert_eq!(estimates, [1, 5, 5, 5, lookups as u64], "sketch collision");
        }
        c.insert(0, 9, &[9u8; 2048 - SLOT_OVERHEAD]);
        c
    }

    #[test]
    fn fill_is_judged_against_every_victim() {
        // Key 9 beats the first victim but not the second: rejected, and
        // nothing was evicted.
        let c = two_victim_fill(3);
        assert_eq!(c.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(c.evictions.load(Ordering::Relaxed), 0);
        assert_eq!(c.get(0, 9), None);
        for k in 1..=4 {
            assert!(c.get(0, k).is_some(), "key {k} evicted by a rejected fill");
        }
        // Key 9 beats both: admitted in place of keys 1 and 2.
        let c = two_victim_fill(6);
        assert_eq!(c.rejected.load(Ordering::Relaxed), 0);
        assert_eq!(c.evictions.load(Ordering::Relaxed), 2);
        assert!(c.get(0, 9).is_some());
        assert_eq!((c.get(0, 1), c.get(0, 2)), (None, None));
        assert!(c.get(0, 3).is_some() && c.get(0, 4).is_some());
    }

    #[test]
    fn aging_halves_the_counters() {
        let mut s = Sketch::new(16);
        assert_eq!(s.sample, 160);
        for _ in 0..6 {
            s.increment(1);
        }
        for _ in 6..159 {
            s.increment(2);
        }
        assert_eq!((s.estimate(1), s.estimate(2)), (6, COUNTER_MAX));
        // The 160th increment triggers the halving.
        s.increment(2);
        assert_eq!((s.estimate(1), s.estimate(2)), (3, 7));
        assert_eq!(s.additions, 0);
    }
}
