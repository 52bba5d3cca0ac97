//! Horizontal-batching machinery and engine-shared state (paper §3.3).

#![expect(
    unsafe_code,
    reason = "publish-list slots are accessed without a lock; the list's cursor atomics hand each slot to one side at a time"
)]

use racecheck::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use racecheck::sync::RaceCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use oplog::ChunkUsage;
use parking_lot::Mutex;
use pmalloc::{ChunkManager, CHUNK_SIZE};
use pmem::PmAddr;

use oplog::LogEntry;

/// Sentinel meaning "batch append failed" in a [`Completion`].
const FAILED: u64 = u64::MAX;

/// The durable-address hand-off between the leader that persisted a log
/// entry and the core that posted it.
#[derive(Debug, Default)]
pub(crate) struct Completion {
    /// 0 = pending; `u64::MAX` = failed; otherwise the entry's PM address
    /// (entry addresses are always ≥ the first chunk's entry area, never 0).
    addr: AtomicU64,
    /// Replication watermark gating the client ack: `(core << 48) | seq`
    /// of the ship batch that carried this op, 0 = not replicated. Written
    /// by the leader *before* [`fulfil`](Self::fulfil) (whose `Release`
    /// store publishes it) and read by the owner core's ack gate.
    repl: AtomicU64,
    /// Traced ops only — leader-side stage stamps (ns, 0 = unset),
    /// written before [`fulfil`](Self::fulfil) like `repl` so the owner
    /// core reads them race-free after a successful `poll`: when the
    /// leader collected the posted entry, when the batched append
    /// returned, and when the replication sink accepted the batch.
    collected_ns: AtomicU64,
    persisted_ns: AtomicU64,
    shipped_ns: AtomicU64,
}

impl Completion {
    pub fn new() -> Arc<Completion> {
        Arc::new(Completion::default())
    }

    pub fn fulfil(&self, addr: PmAddr) {
        self.addr.store(addr.offset(), Ordering::Release);
    }

    pub fn fail(&self) {
        self.addr.store(FAILED, Ordering::Release);
    }

    /// `None` while pending; `Some(Ok(addr))` once persisted.
    pub fn poll(&self) -> Option<Result<PmAddr, ()>> {
        match self.addr.load(Ordering::Acquire) {
            0 => None,
            FAILED => Some(Err(())),
            a => Some(Ok(PmAddr(a))),
        }
    }

    /// Records the ship-batch watermark this op's ack must wait for.
    pub fn set_repl(&self, core: usize, seq: u64) {
        debug_assert!(core < 1 << 16 && seq >> 48 == 0);
        let watermark = ((core as u64) << 48) | seq;
        // pmlint: allow(relaxed-ordering) — written by the leader before
        // `fulfil`'s Release store on `addr`, read only after `poll`'s
        // Acquire observed it (racecheck `completion_model`).
        self.repl.store(watermark, Ordering::Relaxed);
    }

    /// The `(leader core, ship seq)` watermark, if this op was replicated.
    pub fn repl(&self) -> Option<(usize, u64)> {
        // pmlint: allow(relaxed-ordering) — ordered after the leader's
        // stores by `poll`'s Acquire on `addr` (racecheck `completion_model`).
        match self.repl.load(Ordering::Relaxed) {
            0 => None,
            v => Some(((v >> 48) as usize, v & ((1 << 48) - 1))),
        }
    }

    /// Leader stamps for a traced op; call before [`fulfil`](Self::fulfil)
    /// (`shipped_ns` is 0 when the batch was not shipped).
    pub fn set_stage_stamps(&self, collected_ns: u64, persisted_ns: u64, shipped_ns: u64) {
        let stamps = [
            (&self.collected_ns, collected_ns),
            (&self.persisted_ns, persisted_ns),
            (&self.shipped_ns, shipped_ns),
        ];
        for (cell, ns) in stamps {
            // pmlint: allow(relaxed-ordering) — published to the owner core
            // by `fulfil`'s Release store on `addr` (racecheck
            // `completion_model`).
            cell.store(ns, Ordering::Relaxed);
        }
    }

    /// `(collected, persisted, shipped)` stamps (0 = unset), valid after
    /// [`poll`](Self::poll) returned `Some`.
    pub fn stage_stamps(&self) -> (u64, u64, u64) {
        // pmlint: allow(relaxed-ordering) — ordered after the leader's
        // stamp stores by `poll`'s Acquire on `addr` (racecheck
        // `completion_model`).
        let stamp = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        (
            stamp(&self.collected_ns),
            stamp(&self.persisted_ns),
            stamp(&self.shipped_ns),
        )
    }
}

/// A log entry posted to a request pool, awaiting a leader.
pub(crate) struct Posted {
    pub entry: LogEntry,
    pub completion: Arc<Completion>,
    /// Whether the posting core carries a span for this op — tells the
    /// leader to publish stage stamps through the completion.
    pub traced: bool,
}

/// One member's bounded SPSC publish list: the owner core is the only
/// producer, and whichever leader holds this list's consumer token is
/// the only consumer. `head`/`tail` are monotonic cursors into a
/// power-of-two slot ring; occupancy is `tail - head`.
///
/// The happens-before protocol, checked on this source by
/// `racecheck_tests::three_posts_two_leaders`:
/// * producer → consumer: the slot write is published by the `Release`
///   store on `tail` and observed through the consumer's `Acquire` load;
/// * consumer → producer: the slot vacate is published by the `Release`
///   store on `head`, so a producer that sees the freed capacity via its
///   `Acquire` load may reuse the slot;
/// * consumer → consumer: successive leaders hand the list over through
///   the token's `Acquire` CAS / `Release` clear in [`Group::collect`].
pub(crate) struct PublishList {
    slots: Box<[RaceCell<Option<Posted>>]>,
    mask: u64,
    head: AtomicU64,
    tail: AtomicU64,
}

// SAFETY: the slot cells are only touched under the SPSC protocol above —
// one producer (the owner core, structurally: `post` takes the poster's
// own slot) and one consumer at a time (guarded by the per-list token in
// `Group`), with every hand-off ordered by a Release/Acquire edge.
unsafe impl Sync for PublishList {}

impl PublishList {
    fn new(capacity: usize) -> PublishList {
        let capacity = capacity.next_power_of_two();
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || RaceCell::named("publish.slot", None));
        PublishList {
            slots: slots.into_boxed_slice(),
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
        }
    }

    /// Producer side: one slot store + one cursor publish. Returns the
    /// record back when the ring is full (the caller persists its own
    /// batch instead — bounded memory beats blocking on a leader).
    fn push(&self, posted: Posted) -> Result<(), Posted> {
        // pmlint: allow(relaxed-ordering) — producer-private cursor: only
        // this core ever stores `tail`, so its own last value is current.
        let t = self.tail.load(Ordering::Relaxed);
        // Acquire pairs with the consumer's Release on `head`: observing
        // the freed capacity also orders us after its slot `take`.
        if t.wrapping_sub(self.head.load(Ordering::Acquire)) > self.mask {
            return Err(posted);
        }
        // SAFETY: sole producer (own slot), and the capacity check above
        // proved index `t` is vacated — ordered by the Acquire on `head`.
        unsafe { self.slots[(t & self.mask) as usize].with_mut(|slot| *slot = Some(posted)) };
        self.tail.store(t.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side (caller must hold this list's token): takes every
    /// published record, returning how many. Wait-free — one Acquire
    /// load bounds the sweep.
    fn drain(&self, out: &mut Vec<Posted>) -> usize {
        // pmlint: allow(relaxed-ordering) — consumer cursor: only a token
        // holder stores `head`, and the token's Acquire CAS in
        // `Group::collect` ordered us after the previous holder's store.
        let h = self.head.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Acquire);
        let mut i = h;
        while i != t {
            // SAFETY: `h..t` was published by the producer's Release on
            // `tail` before our Acquire read of it, and no other consumer
            // can run (token held).
            let taken = unsafe { self.slots[(i & self.mask) as usize].with_mut(Option::take) };
            #[expect(
                clippy::expect_used,
                reason = "SPSC invariant: every published index holds the record stored before its tail publish"
            )]
            let posted = taken.expect("published slot filled");
            out.push(posted);
            i = i.wrapping_add(1);
        }
        self.head.store(t, Ordering::Release);
        t.wrapping_sub(h) as usize
    }
}

/// One horizontal-batching group, rebuilt as a flat-combining publish
/// fabric (paper Figure 5, minus every mutex): per-member SPSC
/// [`PublishList`]s replace the locked pools, and the group lock shrinks
/// to per-list CAS-claimed consumer tokens, so leader election is
/// wait-free and two leaders can sweep disjoint lists concurrently.
pub(crate) struct Group {
    lists: Vec<PublishList>,
    /// Per-list consumer tokens: `true` while some leader owns the list.
    tokens: Vec<AtomicBool>,
    /// Entries posted but not yet collected (cheap emptiness check).
    pub pending: AtomicUsize,
}

impl Group {
    pub fn new(members: usize, list_capacity: usize) -> Arc<Group> {
        let mut lists = Vec::with_capacity(members);
        lists.resize_with(members, || PublishList::new(list_capacity));
        let mut tokens = Vec::with_capacity(members);
        tokens.resize_with(members, || AtomicBool::new(false));
        Arc::new(Group {
            lists,
            tokens,
            pending: AtomicUsize::new(0),
        })
    }

    /// Posts an entry to `slot`'s publish list: one slot store, one
    /// cursor publish, one pending bump — no locks. `Err` returns the
    /// record when the list is full; the caller self-persists.
    pub fn post(&self, slot: usize, posted: Posted) -> Result<(), Posted> {
        self.lists[slot].push(posted)?;
        self.pending.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// The leader's steal (wait-free): claims each of the group's lists
    /// via its token CAS — skipping lists another leader holds — drains
    /// what it wins and releases each token as soon as its list is
    /// drained (pipelined HB's early release, Figure 4d).
    pub fn collect(&self, out: &mut Vec<Posted>) {
        let mut drained = 0;
        for (list, token) in self.lists.iter().zip(&self.tokens) {
            // Acquire on success orders this sweep after the previous
            // holder's head store.
            if token
                // pmlint: allow(relaxed-ordering) — failure load only: a
                // lost CAS skips the held list, touching nothing it guards
                // (test: held_list_is_skipped_until_its_token_clears).
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            drained += list.drain(out);
            token.store(false, Ordering::Release);
        }
        if drained > 0 {
            self.pending.fetch_sub(drained, Ordering::Release);
        }
    }
}

/// Stripes in the [`UsageTable`] (power of two).
const USAGE_STRIPES: usize = 16;

/// Engine-wide per-chunk liveness accounting. Log entries of one core are
/// persisted into whichever group member led the batch, so dead-entry
/// notifications cross log boundaries; this shared table replaces the
/// per-log accounting for the engine.
///
/// The map is striped by chunk index: every batch append and dead-entry
/// note from every core lands here, and one global lock was the last
/// shared mutex on the write path. A chunk's record lives in exactly one
/// stripe, so per-chunk reads and updates keep the single-map semantics;
/// only [`for_each`](Self::for_each)'s iteration order changes, which
/// was HashMap-arbitrary already (consumers sort or don't care).
#[derive(Debug)]
pub(crate) struct UsageTable {
    stripes: Box<[Mutex<HashMap<u64, ChunkUsage>>]>,
}

impl UsageTable {
    pub fn new() -> Arc<UsageTable> {
        let mut stripes = Vec::with_capacity(USAGE_STRIPES);
        stripes.resize_with(USAGE_STRIPES, || Mutex::new(HashMap::new()));
        Arc::new(UsageTable {
            stripes: stripes.into_boxed_slice(),
        })
    }

    /// The stripe owning `chunk` (a chunk-base offset).
    fn stripe(&self, chunk: u64) -> &Mutex<HashMap<u64, ChunkUsage>> {
        &self.stripes[(chunk / CHUNK_SIZE) as usize & (USAGE_STRIPES - 1)]
    }

    pub fn note_appended(&self, chunk: PmAddr, n: u32) {
        self.stripe(chunk.offset())
            .lock()
            .entry(chunk.offset())
            .or_default()
            .total += n;
    }

    pub fn note_dead(&self, entry_addr: PmAddr) {
        let chunk = oplog::OpLog::chunk_of(entry_addr);
        if let Some(u) = self.stripe(chunk.offset()).lock().get_mut(&chunk.offset()) {
            u.dead = (u.dead + 1).min(u.total);
        }
    }

    pub fn usage(&self, chunk: PmAddr) -> ChunkUsage {
        self.stripe(chunk.offset())
            .lock()
            .get(&chunk.offset())
            .copied()
            .unwrap_or_default()
    }

    /// Replaces the record for a relocated-to chunk and drops the victim's.
    /// The two chunks may live in different stripes; the locks are taken
    /// strictly one after the other (never nested), so stripe order can't
    /// deadlock.
    pub fn on_cleaned(&self, victim: PmAddr, target: Option<(PmAddr, u32)>) {
        self.stripe(victim.offset()).lock().remove(&victim.offset());
        if let Some((t, live)) = target {
            self.stripe(t.offset())
                .lock()
                .entry(t.offset())
                .or_default()
                .total += live;
        }
    }

    /// Visits every `(chunk_base, total, dead)` triple (snapshot
    /// serialization).
    pub fn for_each(&self, f: &mut dyn FnMut(u64, u32, u32)) {
        for stripe in self.stripes.iter() {
            for (chunk, u) in stripe.lock().iter() {
                f(*chunk, u.total, u.dead);
            }
        }
    }

    /// Restores one chunk's accounting (snapshot load).
    pub fn restore(&self, chunk: u64, total: u32, dead: u32) {
        self.stripe(chunk)
            .lock()
            .insert(chunk, ChunkUsage { total, dead });
    }
}

/// Per-owner-core tombstone tracking: key → (version, tombstone entry
/// address). Needed so a new Put to a deleted key continues the version
/// sequence and so the cleaner can judge tombstone liveness.
pub(crate) struct DeletedTable {
    shards: Vec<Mutex<HashMap<u64, (u32, PmAddr)>>>,
}

impl DeletedTable {
    pub fn new(ncores: usize) -> Arc<DeletedTable> {
        let mut shards = Vec::with_capacity(ncores);
        shards.resize_with(ncores, || Mutex::new(HashMap::new()));
        Arc::new(DeletedTable { shards })
    }

    pub fn get(&self, core: usize, key: u64) -> Option<(u32, PmAddr)> {
        self.shards[core].lock().get(&key).copied()
    }

    pub fn insert(&self, core: usize, key: u64, version: u32, addr: PmAddr) {
        self.shards[core].lock().insert(key, (version, addr));
    }

    pub fn remove(&self, core: usize, key: u64) -> Option<(u32, PmAddr)> {
        self.shards[core].lock().remove(&key)
    }

    /// The cleaner relocated a tombstone: repoint it if still current.
    pub fn cas_addr(&self, core: usize, key: u64, version: u32, old: PmAddr, new: PmAddr) -> bool {
        let mut m = self.shards[core].lock();
        match m.get_mut(&key) {
            Some(v) if *v == (version, old) => {
                v.1 = new;
                true
            }
            _ => false,
        }
    }

    pub fn for_each_of_core(&self, core: usize, f: &mut dyn FnMut(u64, u32, PmAddr)) {
        for (k, (ver, addr)) in self.shards[core].lock().iter() {
            f(*k, *ver, *addr);
        }
    }
}

/// Chunks reclaimed by the cleaner sit here for a grace period before
/// re-entering the pool, so concurrent readers holding pre-CAS entry
/// addresses never observe recycled memory (RAMCloud-style epoch
/// protection, simplified to a time-based grace window).
pub(crate) struct Quarantine {
    chunks: Mutex<Vec<(Instant, PmAddr)>>,
    grace_ms: u64,
}

impl Quarantine {
    pub fn new(grace_ms: u64) -> Arc<Quarantine> {
        Arc::new(Quarantine {
            chunks: Mutex::new(Vec::new()),
            grace_ms,
        })
    }

    pub fn push(&self, chunk: PmAddr) {
        self.chunks.lock().push((Instant::now(), chunk));
    }

    /// Chunks waiting out their grace period.
    pub fn len(&self) -> u32 {
        self.chunks.lock().len() as u32
    }

    /// Returns matured chunks to the pool; call periodically.
    pub fn release(&self, mgr: &ChunkManager) -> u32 {
        let mut released = 0;
        let mut chunks = self.chunks.lock();
        chunks.retain(|(t, c)| {
            if t.elapsed().as_millis() as u64 >= self.grace_ms {
                let _ = mgr.return_raw_chunk(*c);
                released += 1;
                false
            } else {
                true
            }
        });
        released
    }

    /// Releases everything regardless of age (shutdown/quiesced paths).
    pub fn drain(&self, mgr: &ChunkManager) {
        for (_, c) in self.chunks.lock().drain(..) {
            let _ = mgr.return_raw_chunk(c);
        }
    }
}

/// Engine-wide activity counters (all monotonic) and latency/batch-size
/// histograms.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Completed Put operations.
    pub puts: AtomicU64,
    /// Completed Get operations.
    pub gets: AtomicU64,
    /// Completed Delete operations.
    pub deletes: AtomicU64,
    /// Batches persisted by leaders.
    pub batches: AtomicU64,
    /// Log entries persisted across all batches.
    pub batched_entries: AtomicU64,
    /// Requests deferred by the conflict queue.
    pub conflicts_deferred: AtomicU64,
    /// Chunks reclaimed by the cleaner.
    pub gc_chunks: AtomicU64,
    /// Entries relocated by the cleaner.
    pub gc_relocated: AtomicU64,
    /// Client-observed Put latency (ns, recorded by [`StoreHandle`]).
    ///
    /// [`StoreHandle`]: crate::StoreHandle
    pub put_latency: obs::LogHistogram,
    /// Client-observed Get latency (ns).
    pub get_latency: obs::LogHistogram,
    /// Server-side Get service latency for read-cache hits (ns, recorded
    /// on the owner core; excludes fabric round-trip time).
    pub get_hit_latency: obs::LogHistogram,
    /// Server-side Get service latency for read-cache misses served from
    /// the log (ns).
    pub get_miss_latency: obs::LogHistogram,
    /// Client-observed Delete latency (ns).
    pub delete_latency: obs::LogHistogram,
    /// Client-observed Range latency (ns).
    pub range_latency: obs::LogHistogram,
    /// Entries per persisted batch, recorded by the group leader.
    pub batch_size: obs::LogHistogram,
    /// Session pipeline occupancy sampled at each submit (the blocking
    /// handle always records 1).
    pub inflight_depth: obs::LogHistogram,
    /// Submit-to-completion latency per pipelined operation (ns).
    pub completion_latency: obs::LogHistogram,
    /// Per-stage causal latency breakdown of sampled traces
    /// ([`Config::trace_sample`]), including the end-to-end distribution
    /// and the batch-amortized persist cost.
    ///
    /// [`Config::trace_sample`]: crate::Config::trace_sample
    pub breakdown: obs::StageSet,
}

impl EngineStats {
    /// Reads one monotone stat counter for reporting.
    fn stat(counter: &AtomicU64) -> u64 {
        // pmlint: allow(relaxed-ordering) — stat counter; reports tolerate
        // torn cross-counter snapshots.
        counter.load(Ordering::Relaxed)
    }

    /// Average entries per persisted batch so far.
    pub fn avg_batch(&self) -> f64 {
        let b = Self::stat(&self.batches);
        if b == 0 {
            0.0
        } else {
            Self::stat(&self.batched_entries) as f64 / b as f64
        }
    }

    /// Reduces the counters and histograms to the shared
    /// [`obs::StatsReport`] sections (the engine adds its PM section on
    /// top in [`FlatStore::stats_report`]).
    ///
    /// [`FlatStore::stats_report`]: crate::FlatStore::stats_report
    pub fn fill_report(&self, r: &mut obs::StatsReport) {
        r.section("ops")
            .row("puts", Self::stat(&self.puts))
            .row("gets", Self::stat(&self.gets))
            .row("deletes", Self::stat(&self.deletes))
            .row("conflicts_deferred", Self::stat(&self.conflicts_deferred));
        {
            let batch = self.batch_size.snapshot();
            let sec = r.section("batching");
            sec.row("batches", Self::stat(&self.batches))
                .row("batched_entries", Self::stat(&self.batched_entries))
                .row("avg_batch", self.avg_batch());
            if batch.count > 0 {
                sec.row("batch_p50_entries", batch.percentile(50.0))
                    .row("batch_p99_entries", batch.percentile(99.0))
                    .row("batch_max_entries", batch.max);
            }
        }
        {
            let sec = r.section("latency");
            sec.latency_rows("put", &self.put_latency.snapshot());
            sec.latency_rows("get", &self.get_latency.snapshot());
            sec.latency_rows("delete", &self.delete_latency.snapshot());
            sec.latency_rows("range", &self.range_latency.snapshot());
            // The hit/miss split only exists with the read cache enabled.
            let hit = self.get_hit_latency.snapshot();
            let miss = self.get_miss_latency.snapshot();
            if hit.count > 0 || miss.count > 0 {
                sec.latency_rows("get_hit", &hit);
                sec.latency_rows("get_miss", &miss);
            }
        }
        {
            let depth = self.inflight_depth.snapshot();
            let sec = r.section("session");
            sec.latency_rows("completion", &self.completion_latency.snapshot());
            if depth.count > 0 {
                sec.row("inflight_p50", depth.percentile(50.0))
                    .row("inflight_p99", depth.percentile(99.0))
                    .row("inflight_max", depth.max);
            }
        }
        if self.breakdown.spans() > 0 {
            self.breakdown.fill_section(r.section("latency_breakdown"));
        }
        r.section("maintenance")
            .row("gc_chunks", Self::stat(&self.gc_chunks))
            .row("gc_relocated", Self::stat(&self.gc_relocated));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn posted(key: u64) -> Posted {
        Posted {
            entry: LogEntry::put_inline(key, 1, vec![7]).expect("inline fits"),
            completion: Completion::new(),
            traced: false,
        }
    }

    #[test]
    fn publish_list_is_fifo_and_bounded() {
        let g = Group::new(1, 4);
        for k in 0..4 {
            assert!(g.post(0, posted(k)).is_ok());
        }
        // Ring full: the record comes back instead of blocking.
        let bounced = g.post(0, posted(99)).expect_err("ring full");
        assert_eq!(bounced.entry.key, 99);
        assert_eq!(g.pending.load(Ordering::Acquire), 4);

        let mut out = Vec::new();
        g.collect(&mut out);
        let keys: Vec<u64> = out.iter().map(|p| p.entry.key).collect();
        assert_eq!(keys, vec![0, 1, 2, 3], "steal preserves post order");
        assert_eq!(g.pending.load(Ordering::Acquire), 0);

        // Freed capacity is visible to the producer again.
        assert!(g.post(0, posted(5)).is_ok());
    }

    #[test]
    fn held_list_is_skipped_until_its_token_clears() {
        let g = Group::new(2, 8);
        assert!(g.post(0, posted(1)).is_ok());
        assert!(g.post(1, posted(2)).is_ok());
        // Another leader is mid-sweep on list 0: it owns that token.
        g.tokens[0].store(true, Ordering::Release);

        let mut first = Vec::new();
        g.collect(&mut first);
        let keys: Vec<u64> = first.iter().map(|p| p.entry.key).collect();
        assert_eq!(keys, vec![2], "the held list is skipped, not waited on");
        assert_eq!(g.pending.load(Ordering::Acquire), 1);

        // Once the other leader clears the token, the next sweep takes
        // the list.
        g.tokens[0].store(false, Ordering::Release);
        let mut second = Vec::new();
        g.collect(&mut second);
        let keys: Vec<u64> = second.iter().map(|p| p.entry.key).collect();
        assert_eq!(keys, vec![1]);
        assert_eq!(g.pending.load(Ordering::Acquire), 0);
    }

    /// The striped table must stay observation-equivalent to the single
    /// global map it replaced.
    #[test]
    fn usage_table_matches_unstriped_model() {
        let table = UsageTable::new();
        let mut model: HashMap<u64, ChunkUsage> = HashMap::new();
        let chunk = |i: u64| PmAddr(i * CHUNK_SIZE);
        // Spread over more chunks than stripes so every stripe is hit.
        for i in 0..64u64 {
            let n = (i % 5 + 1) as u32;
            table.note_appended(chunk(i), n);
            model.entry(chunk(i).offset()).or_default().total += n;
        }
        for i in (0..64u64).step_by(3) {
            // `note_dead` maps an entry address to its chunk base.
            let addr = PmAddr(chunk(i).offset() + 64);
            table.note_dead(addr);
            let u = model.get_mut(&chunk(i).offset()).expect("appended");
            u.dead = (u.dead + 1).min(u.total);
        }
        table.on_cleaned(chunk(9), Some((chunk(70), 2)));
        model.remove(&chunk(9).offset());
        model.entry(chunk(70).offset()).or_default().total += 2;
        table.restore(chunk(80).offset(), 10, 4);
        model.insert(chunk(80).offset(), ChunkUsage { total: 10, dead: 4 });

        for (&c, &u) in model.iter() {
            assert_eq!(table.usage(PmAddr(c)), u, "chunk {c:#x}");
        }
        assert_eq!(table.usage(chunk(9)), ChunkUsage::default());
        let mut dumped: Vec<(u64, u32, u32)> = Vec::new();
        table.for_each(&mut |c, t, d| dumped.push((c, t, d)));
        dumped.sort_unstable();
        let mut expect: Vec<(u64, u32, u32)> =
            model.iter().map(|(&c, u)| (c, u.total, u.dead)).collect();
        expect.sort_unstable();
        assert_eq!(dumped, expect);
    }
}

#[cfg(all(test, racecheck))]
mod racecheck_tests {
    use super::*;
    use racecheck::model::{check, thread, Config};

    /// Three posts through a 2-slot list against two concurrent leaders
    /// and a final sweep: the third post overwrites a slot a drain
    /// vacated, the leaders hand the list over through its token, and
    /// every posted record is consumed exactly once.
    #[test]
    fn three_posts_two_leaders() {
        check("publish-list/two-leaders", Config::new(), || {
            let group = Group::new(1, 2);
            let g = Arc::clone(&group);
            let producer = thread::spawn(move || {
                let mut posted = Vec::new();
                for key in 100..103u64 {
                    let mut rec = tests::posted(key);
                    let mut tries = 0;
                    while let Err(back) = g.post(0, rec) {
                        rec = back;
                        tries += 1;
                        if tries == 4 {
                            return posted; // full and no leader scheduled
                        }
                        thread::yield_now();
                    }
                    posted.push(key);
                }
                posted
            });
            let leaders: Vec<_> = (0..2)
                .map(|_| {
                    let g = Arc::clone(&group);
                    thread::spawn(move || {
                        let mut out = Vec::new();
                        for _ in 0..2 {
                            g.collect(&mut out);
                            thread::yield_now();
                        }
                        out.iter().map(|p| p.entry.key).collect::<Vec<u64>>()
                    })
                })
                .collect();

            let posted = producer.join().unwrap();
            let mut consumed = Vec::new();
            for leader in leaders {
                let keys = leader.join().unwrap();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "drain out of order");
                consumed.extend(keys);
            }
            // Every leader released its token, so the final claim wins.
            let mut rest = Vec::new();
            group.collect(&mut rest);
            consumed.extend(rest.iter().map(|p| p.entry.key));
            consumed.sort_unstable();
            assert_eq!(consumed, posted, "each posted record consumed exactly once");
            assert_eq!(group.pending.load(Ordering::Acquire), 0);
        });
    }
}
