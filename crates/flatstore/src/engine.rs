//! The FlatStore engine: worker lifecycle, the FlatRPC fabric, recovery
//! and shutdown.

use racecheck::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use racecheck::sync::Arc;
use std::thread::JoinHandle;

use oplog::{newer, EntryHeader, LogEntry, LogOp, OpLog, VERSION_MASK};
use pmalloc::{ChunkManager, CoreAllocator, CHUNK_SIZE};
use pmem::{PmAddr, PmRegion};

use crate::batch::{CkptGuard, DeletedTable, EngineStats, Group, Quarantine, UsageTable};
use crate::cache::ReadCache;
use crate::config::Config;
use crate::error::StoreError;
use crate::flight::FlightRegistry;
use crate::repl::ReplicationSink;
use crate::request::{Op, Reply, StoreFabric};
use crate::session::{EngineShared, Session};
use crate::shard::{core_of, Shard};
use crate::superblock::{Superblock, POOL_BASE};
use crate::value::{pack, unpack};
use crate::vindex::VolatileIndex;

/// Nanoseconds since `start`, saturated into a histogram sample.
#[inline]
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What one `open` did to rebuild the volatile state: the `recovery`
/// section of the stats report (absent on a store built by `create`).
#[derive(Debug, Clone, Copy, Default)]
struct Recovery {
    /// 1: clean shutdown + snapshot; 2: crash with a valid checkpoint;
    /// 3: bare crash, full log scan.
    path: u64,
    /// Log entries the scan decoded.
    entries_scanned: u64,
    /// Keys in the index when recovery ended.
    keys_loaded: u64,
    /// Scanned entries that lost newest-wins.
    stale_entries: u64,
    scan_ns: u64,
    newest_wins_ns: u64,
    index_build_ns: u64,
    index_load_ns: u64,
}

impl Recovery {
    fn fill_section(&self, sec: &mut obs::Section) {
        sec.row("path", self.path)
            .row("entries_scanned", self.entries_scanned)
            .row("keys_loaded", self.keys_loaded)
            .row("stale_entries", self.stale_entries)
            .row("scan_ns", self.scan_ns)
            .row("newest_wins_ns", self.newest_wins_ns)
            .row("index_build_ns", self.index_build_ns)
            .row("index_load_ns", self.index_load_ns);
    }
}

/// Runs `f(i, item)` for every item on a thread of its own and returns
/// the results in item order (recovery's per-core phases). A panic on a
/// thread resumes on the caller's.
fn on_threads<I: Send, T: Send>(items: Vec<I>, f: impl Fn(usize, I) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| s.spawn(move || f(i, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// A completion of the wrong kind arrived for a blocking call — the
/// session matched the ticket, so this indicates engine corruption.
fn mismatched(other: Reply) -> StoreError {
    StoreError::corrupt(format!("mismatched completion kind: {other:?}"))
}

/// A clonable, thread-safe client handle to a running [`FlatStore`].
///
/// Methods block until the engine acknowledges the operation (a Put is
/// acknowledged only after its log entry is durable — paper §3.2), and
/// record the client-observed latency of every call into the engine's
/// [`EngineStats`] histograms. Each method is a depth-1 pipeline: it
/// submits on the handle's private [`Session`] and waits for that single
/// completion. For overlapping operations, open a dedicated session with
/// [`session`](Self::session).
pub struct StoreHandle {
    shared: Arc<EngineShared>,
    /// Lazily attached depth-1 session backing the blocking methods.
    session: parking_lot::Mutex<Option<Session>>,
}

impl Clone for StoreHandle {
    fn clone(&self) -> Self {
        // Each clone attaches its own client port on first use, so clones
        // on different threads never contend on one response ring.
        StoreHandle {
            shared: Arc::clone(&self.shared),
            session: parking_lot::Mutex::new(None),
        }
    }
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle")
            .field("ncores", &self.shared.ncores)
            .finish()
    }
}

impl StoreHandle {
    /// Runs `f` on this handle's private session, attaching it on first
    /// use.
    fn with_session<T>(
        &self,
        f: impl FnOnce(&mut Session) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut guard = self.session.lock();
        if guard.is_none() {
            if self.shared.stopped() {
                return Err(StoreError::ShuttingDown);
            }
            *guard = Some(Session::attach(Arc::clone(&self.shared)));
        }
        // pmlint: allow(no-unwrap) — the branch above just filled the slot.
        f(guard.as_mut().expect("session attached above"))
    }

    /// Opens a new pipelined [`Session`] on the fabric (up to
    /// [`Config::pipeline_depth`] operations in flight).
    ///
    /// # Errors
    ///
    /// [`StoreError::ShuttingDown`] if the engine stopped.
    pub fn session(&self) -> Result<Session, StoreError> {
        if self.shared.stopped() {
            return Err(StoreError::ShuttingDown);
        }
        Ok(Session::attach(Arc::clone(&self.shared)))
    }

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::EmptyValue`], [`StoreError::ReservedKey`],
    /// [`StoreError::OutOfSpace`], [`StoreError::ShuttingDown`].
    pub fn put(&self, key: u64, value: impl AsRef<[u8]>) -> Result<(), StoreError> {
        let start = std::time::Instant::now();
        self.with_session(|s| {
            let t = s.submit(Op::put(key, value.as_ref()))?;
            let r = s.wait(t)?;
            self.shared.stats.put_latency.record(elapsed_ns(start));
            match r {
                Reply::Put(r) => r,
                other => Err(mismatched(other)),
            }
        })
    }

    /// Reads `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::ShuttingDown`] or corruption errors.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let start = std::time::Instant::now();
        self.with_session(|s| {
            let t = s.submit(Op::Get { key })?;
            let r = s.wait(t)?;
            self.shared.stats.get_latency.record(elapsed_ns(start));
            match r {
                Reply::Get(r) => r,
                other => Err(mismatched(other)),
            }
        })
    }

    /// Deletes `key`; returns whether it existed.
    ///
    /// # Errors
    ///
    /// As for [`put`](Self::put).
    pub fn delete(&self, key: u64) -> Result<bool, StoreError> {
        let start = std::time::Instant::now();
        self.with_session(|s| {
            let t = s.submit(Op::Delete { key })?;
            let r = s.wait(t)?;
            self.shared.stats.delete_latency.record(elapsed_ns(start));
            match r {
                Reply::Delete(r) => r,
                other => Err(mismatched(other)),
            }
        })
    }

    /// Range scan over `lo..hi`, at most `limit` items (FlatStore-M/-FF).
    /// Scans are weakly consistent under concurrent writes; quiesce with
    /// [`barrier`](Self::barrier) for a stable view.
    ///
    /// # Errors
    ///
    /// [`StoreError::RangeUnsupported`] on FlatStore-H.
    pub fn range(&self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        let start = std::time::Instant::now();
        self.with_session(|s| {
            let t = s.submit(Op::Range { lo, hi, limit })?;
            let r = s.wait(t)?;
            self.shared.stats.range_latency.record(elapsed_ns(start));
            match r {
                Reply::Range(r) => r,
                other => Err(mismatched(other)),
            }
        })
    }

    /// Blocks until every request sent before this call has fully
    /// completed on all cores. A no-op once the engine stops.
    pub fn barrier(&self) {
        let _ = self.with_session(|s| s.barrier());
    }
}

/// The FlatStore engine (paper Figure 2): per-core workers over a shared
/// PM region, a volatile index, per-core compacted operation logs, the
/// lazy-persist allocator and pipelined horizontal batching, fronted by
/// the FlatRPC fabric (paper §4.3).
///
/// # Example
///
/// ```
/// use flatstore::{Config, FlatStore};
///
/// let cfg = Config::builder()
///     .pm_bytes(64 << 20)
///     .ncores(2)
///     .group_size(2)
///     .build()?;
/// let store = FlatStore::create(cfg)?;
/// store.put(1, b"hello")?;
/// assert_eq!(store.get(1)?.as_deref(), Some(&b"hello"[..]));
/// store.shutdown()?;
/// # Ok::<(), flatstore::StoreError>(())
/// ```
pub struct FlatStore {
    pm: Arc<PmRegion>,
    mgr: Arc<ChunkManager>,
    index: Arc<VolatileIndex>,
    deleted: Arc<DeletedTable>,
    usage: Arc<UsageTable>,
    quarantine: Arc<Quarantine>,
    ckpt: Arc<CkptGuard>,
    stats: Arc<EngineStats>,
    /// Hot-value read cache (`None` when `read_cache_bytes == 0`). Volatile
    /// by construction: create/open/promote all start it empty.
    cache: Option<Arc<ReadCache>>,
    /// How `open` rebuilt the volatile state (`None` after `create`).
    recovery: Option<Recovery>,
    shared: Arc<EngineShared>,
    handle: StoreHandle,
    /// The engine's own fabric client (client id 0), used for checkpoint
    /// barriers/cursors and the shutdown broadcast.
    control: parking_lot::Mutex<Session>,
    workers: Vec<JoinHandle<Shard>>,
    cfg: Config,
}

impl std::fmt::Debug for FlatStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatStore")
            .field("ncores", &self.cfg.ncores)
            .field("index", &self.cfg.index)
            .finish()
    }
}

impl FlatStore {
    /// Formats a fresh region per `cfg` and starts the engine.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] on inconsistent settings;
    /// [`StoreError::OutOfSpace`] if the region cannot hold the initial
    /// per-core logs.
    pub fn create(cfg: Config) -> Result<FlatStore, StoreError> {
        Self::create_inner(cfg, None)
    }

    /// Like [`create`](Self::create), but every persisted batch is also
    /// shipped through `sink`, and operations are acknowledged to clients
    /// only once the sink's acked watermark covers them (primary–backup
    /// replication; see the `flatrepl` crate for the transport).
    ///
    /// # Errors
    ///
    /// As for [`create`](Self::create).
    pub fn create_with_replication(
        cfg: Config,
        sink: Arc<dyn ReplicationSink>,
    ) -> Result<FlatStore, StoreError> {
        Self::create_inner(cfg, Some(sink))
    }

    fn create_inner(
        cfg: Config,
        repl: Option<Arc<dyn ReplicationSink>>,
    ) -> Result<FlatStore, StoreError> {
        cfg.validate()?;
        let pm = if let Some(seed) = cfg.strict_fence_seed {
            Arc::new(PmRegion::with_strict_fences(cfg.pm_bytes, seed))
        } else if cfg.crash_tracking {
            Arc::new(PmRegion::with_crash_tracking(cfg.pm_bytes))
        } else {
            Arc::new(PmRegion::new(cfg.pm_bytes))
        };
        let nchunks = ((cfg.pm_bytes as u64 - POOL_BASE) / CHUNK_SIZE) as u32;
        Superblock::new(&pm).format(cfg.ncores, nchunks);
        let mgr = Arc::new(ChunkManager::format(
            Arc::clone(&pm),
            PmAddr(POOL_BASE),
            nchunks,
        ));
        let index = Arc::new(VolatileIndex::build(
            cfg.index,
            cfg.ncores,
            cfg.dram_bytes,
            0,
        )?);
        let deleted = DeletedTable::new(cfg.ncores);
        let usage = UsageTable::new();

        let mut shards = Vec::with_capacity(cfg.ncores);
        for core in 0..cfg.ncores {
            let log = OpLog::create(Arc::clone(&mgr), Superblock::log_desc(core))?;
            let alloc = CoreAllocator::new(Arc::clone(&mgr), core as u32);
            shards.push((log, alloc));
        }
        Self::start(pm, mgr, index, deleted, usage, shards, cfg, repl, None)
    }

    /// Reopens an existing region: fast path after a clean shutdown,
    /// full log-scan recovery after a crash (paper §3.5).
    ///
    /// The persistent layout dictates the shard count: `cfg.ncores` is
    /// overridden by the superblock's, and `cfg.group_size` falls back to
    /// that core count if it no longer divides it.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadImage`] if the region is not a FlatStore image;
    /// [`StoreError::InvalidConfig`] on inconsistent settings.
    pub fn open(pm: Arc<PmRegion>, cfg: Config) -> Result<FlatStore, StoreError> {
        Self::open_inner(pm, cfg, None)
    }

    /// Like [`open`](Self::open), with replication through `sink` (see
    /// [`create_with_replication`](Self::create_with_replication)). Used
    /// when a recovered or rejoining node resumes the primary role.
    ///
    /// # Errors
    ///
    /// As for [`open`](Self::open).
    pub fn open_with_replication(
        pm: Arc<PmRegion>,
        cfg: Config,
        sink: Arc<dyn ReplicationSink>,
    ) -> Result<FlatStore, StoreError> {
        Self::open_inner(pm, cfg, Some(sink))
    }

    fn open_inner(
        pm: Arc<PmRegion>,
        cfg: Config,
        repl: Option<Arc<dyn ReplicationSink>>,
    ) -> Result<FlatStore, StoreError> {
        let sb = Superblock::new(&pm);
        let (ncores, nchunks) = sb.load()?;
        let mut cfg = cfg;
        cfg.ncores = ncores; // the persistent layout dictates the shards
        if cfg.group_size == 0 || ncores % cfg.group_size != 0 {
            cfg.group_size = ncores;
        }
        cfg.validate()?;
        let clean = sb.is_clean();
        let ckpt_valid = sb.ckpt_valid();

        let deleted = DeletedTable::new(ncores);
        let usage = UsageTable::new();

        // Three recovery paths (paper §3.5):
        //  1. clean shutdown + snapshot: trust bitmaps, load the snapshot,
        //     walk only the chain structure — no log scan at all;
        //  2. crash with a valid checkpoint: trust the bitmaps persisted at
        //     checkpoint time, load the snapshot, replay only the log
        //     suffix after each core's checkpoint cursor;
        //  3. bare crash: full log scan rebuilding everything.
        let trust_bitmaps = clean || ckpt_valid;
        let mgr = if trust_bitmaps {
            Arc::new(ChunkManager::load_clean(
                Arc::clone(&pm),
                PmAddr(POOL_BASE),
                nchunks,
            ))
        } else {
            Arc::new(ChunkManager::recover(
                Arc::clone(&pm),
                PmAddr(POOL_BASE),
                nchunks,
            ))
        };
        // Paths 1 and 2 bulk-load the snapshot into an index sized by its
        // per-core key counts; path 3 builds its index after the scan,
        // sized by what it found.
        let mut rec = Recovery::default();
        let snapshot_index = match sb.snapshot() {
            Some((snap, _len)) if trust_bitmaps => {
                rec.path = if clean { 1 } else { 2 };
                let index =
                    Self::load_snapshot(&pm, snap, &mgr, &cfg, &deleted, &usage, ncores, &mut rec)?;
                Some(index)
            }
            _ => None,
        };

        let mut logs = Vec::with_capacity(ncores);
        let index = match snapshot_index {
            Some(index) => {
                for core in 0..ncores {
                    let desc = Superblock::log_desc(core);
                    // Path 1 resumes at the persisted tail (a structure-only
                    // chain walk); path 2 replays the post-checkpoint
                    // suffix, newest version wins against the snapshot.
                    let from = if clean {
                        PmAddr(pm.read_u64(desc + 8))
                    } else {
                        sb.read_ckpt_cursor(core)
                    };
                    let t = std::time::Instant::now();
                    let mut suffix = Vec::new();
                    let log =
                        OpLog::recover_headers(Arc::clone(&mgr), desc, Some(from), |h, a| {
                            suffix.push((h, a));
                        })?;
                    rec.scan_ns += elapsed_ns(t);
                    let t = std::time::Instant::now();
                    rec.entries_scanned += suffix.len() as u64;
                    for (h, addr) in suffix {
                        let stale =
                            Self::apply_recovered(&index, &deleted, &usage, &mgr, ncores, h, addr)?;
                        rec.stale_entries += u64::from(stale);
                    }
                    rec.newest_wins_ns += elapsed_ns(t);
                    logs.push(log);
                }
                index
            }
            None => {
                // Path 3: one pass over entry headers, no owned values.
                rec.path = 3;
                let t = std::time::Instant::now();
                // Each log is a chain of its own: scan them in parallel,
                // then concatenate in core order (the order a sequential
                // scan yields).
                let parts = on_threads(vec![(); ncores], |core, ()| {
                    let mut part: Vec<(EntryHeader, PmAddr)> = Vec::new();
                    let desc = Superblock::log_desc(core);
                    let collect = |h, a| part.push((h, a));
                    OpLog::recover_headers(Arc::clone(&mgr), desc, None, collect)
                        .map(|log| (log, part))
                });
                let mut scanned: Vec<(EntryHeader, PmAddr)> = Vec::new();
                for part in parts {
                    let (log, part) = part?;
                    logs.push(log);
                    if scanned.is_empty() {
                        scanned = part;
                    } else {
                        scanned.extend(part);
                    }
                }
                rec.scan_ns = elapsed_ns(t);
                rec.entries_scanned = scanned.len() as u64;

                // Newest version of each key wins. Sorting (key, log
                // position) puts each key's entries in one run, in log
                // order, and folding a run with `newer` picks the winner a
                // log-order pass would. The version rides in the low bits
                // beside the position, so the fold reads `scanned` only
                // for winners; a chunk's dead count is its entries minus
                // its winners. Winning Puts go to their core's list.
                let t = std::time::Instant::now();
                let ver_bits = VERSION_MASK.count_ones();
                let mut runs: Vec<(u64, u64)> = scanned
                    .iter()
                    .enumerate()
                    .map(|(i, (h, _))| (h.key, (i as u64) << ver_bits | u64::from(h.version)))
                    .collect();
                runs.sort_unstable();
                let version = |r: u64| (r & u64::from(VERSION_MASK)) as u32;
                let chunk_id = |a: PmAddr| ((a.offset() - POOL_BASE) / CHUNK_SIZE) as usize;
                let mut won_in = vec![0u32; nchunks as usize];
                let mut winners: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ncores];
                for run in runs.chunk_by(|a, b| a.0 == b.0) {
                    let mut won = run[0].1;
                    for &(_, r) in &run[1..] {
                        if newer(version(r), version(won)) {
                            won = r;
                        }
                    }
                    rec.stale_entries += run.len() as u64 - 1;
                    let (h, addr) = scanned[(won >> ver_bits) as usize];
                    won_in[chunk_id(addr)] += 1;
                    let owner = core_of(h.key, ncores);
                    match h.op {
                        LogOp::Put => {
                            winners[owner].push((h.key, pack(h.version, addr)));
                            if let (Some(block), false) = (h.block(), trust_bitmaps) {
                                mgr.mark_allocated(block).map_err(|err| {
                                    StoreError::corrupt_with("recovery mark failed", err)
                                })?;
                            }
                        }
                        LogOp::Delete => deleted.insert(owner, h.key, h.version, addr),
                        LogOp::Seal => {}
                    }
                }
                drop((runs, scanned));
                for (chunk, u) in logs.iter().flat_map(|log| log.usages()) {
                    usage.restore(chunk.offset(), u.total, u.total - won_in[chunk_id(chunk)]);
                }
                if !trust_bitmaps {
                    mgr.finish_recovery();
                }
                rec.newest_wins_ns = elapsed_ns(t);

                let t = std::time::Instant::now();
                let most = winners.iter().map(Vec::len).max().unwrap_or(0);
                let index = VolatileIndex::build(cfg.index, ncores, cfg.dram_bytes, most)?;
                rec.index_build_ns = elapsed_ns(t);

                // Each core's shard is a table of its own: load them in
                // parallel.
                let t = std::time::Instant::now();
                on_threads(winners, |core, mut pairs| index.bulk_load(core, &mut pairs))
                    .into_iter()
                    .collect::<Result<(), _>>()?;
                rec.index_load_ns = elapsed_ns(t);
                index
            }
        };
        rec.keys_loaded = index.len() as u64;
        let index = Arc::new(index);

        // Reclaim reserved chunks unreachable from any log chain (a crash
        // between take_raw_chunk and linking leaks them).
        let reachable: std::collections::HashSet<u64> = logs
            .iter()
            .flat_map(|l| l.chunks().iter().map(|c| c.offset()))
            .collect();
        for r in mgr.reserved_chunks() {
            if !reachable.contains(&r.offset()) {
                let _ = mgr.return_raw_chunk(r);
            }
        }

        sb.set_clean(false);
        sb.set_ckpt_valid(false); // cursors/snapshot are consumed

        let mut shards = Vec::with_capacity(ncores);
        for (core, log) in logs.into_iter().enumerate() {
            let mut alloc = CoreAllocator::new(Arc::clone(&mgr), core as u32);
            alloc.adopt_recovered(ncores as u32);
            shards.push((log, alloc));
        }
        Self::start(pm, mgr, index, deleted, usage, shards, cfg, repl, Some(rec))
    }

    /// Applies one post-checkpoint log entry on top of snapshot state:
    /// newest version wins, equal versions re-anchor the same entry (its
    /// out-of-log block may postdate the persisted bitmaps). Returns
    /// whether the entry itself turned out stale.
    fn apply_recovered(
        index: &VolatileIndex,
        deleted: &DeletedTable,
        usage: &UsageTable,
        mgr: &ChunkManager,
        ncores: usize,
        e: EntryHeader,
        addr: PmAddr,
    ) -> Result<bool, StoreError> {
        usage.note_appended(OpLog::chunk_of(addr), 1);
        let owner = core_of(e.key, ncores);
        let cur = index.get(owner, e.key);
        let cur_ver = cur.map(|c| unpack(c).0);
        let del_ver = deleted.get(owner, e.key).map(|(v, _)| v);
        let newest = cur_ver.is_none_or(|v| newer(e.version, v))
            && del_ver.is_none_or(|v| newer(e.version, v));
        let mut stale = false;
        match e.op {
            LogOp::Put => {
                if newest {
                    if let Some(b) = e.block() {
                        // Tolerate already-set: the block may be covered by
                        // the checkpoint's persisted bitmaps.
                        let _ = mgr.mark_allocated(b);
                    }
                    if let Some(old) = index.insert(owner, e.key, pack(e.version, addr))? {
                        usage.note_dead(unpack(old).1);
                    }
                    if let Some((_, tomb)) = deleted.remove(owner, e.key) {
                        usage.note_dead(tomb);
                    }
                } else if cur_ver == Some(e.version) && cur.map(|c| unpack(c).1) == Some(addr) {
                    // The snapshot already references exactly this entry;
                    // just make sure its block is accounted for.
                    if let Some(b) = e.block() {
                        let _ = mgr.mark_allocated(b);
                    }
                } else {
                    usage.note_dead(addr);
                    stale = true;
                }
            }
            LogOp::Delete => {
                if newest {
                    if let Some(old) = index.remove(owner, e.key) {
                        usage.note_dead(unpack(old).1);
                    }
                    if let Some((_, tomb)) = deleted.remove(owner, e.key) {
                        usage.note_dead(tomb);
                    }
                    deleted.insert(owner, e.key, e.version, addr);
                } else if del_ver != Some(e.version) {
                    usage.note_dead(addr);
                    stale = true;
                }
            }
            LogOp::Seal => {}
        }
        Ok(stale)
    }

    /// Loads the snapshot anchored at `addr` into fresh volatile state,
    /// then frees its block and clears the anchor. The per-core key
    /// counts are read first, so the index is built at the depth where
    /// each core's keys bulk-load without a split; snapshot keys are
    /// distinct by construction.
    #[allow(clippy::too_many_arguments)]
    fn load_snapshot(
        pm: &PmRegion,
        addr: PmAddr,
        mgr: &ChunkManager,
        cfg: &Config,
        deleted: &DeletedTable,
        usage: &UsageTable,
        ncores: usize,
        rec: &mut Recovery,
    ) -> Result<VolatileIndex, StoreError> {
        let read_u64 = |pos: &mut PmAddr| {
            let v = pm.read_u64(*pos);
            *pos += 8;
            v
        };
        let mut pos = addr;
        let snap_cores = read_u64(&mut pos) as usize;
        if snap_cores != ncores {
            return Err(StoreError::BadImage("snapshot core count".into()));
        }
        // Per core: n_idx, n_idx × (key, packed), n_del, n_del × (key,
        // version, tombstone address).
        let t = std::time::Instant::now();
        let body = pos;
        let mut most = 0;
        for _ in 0..ncores {
            let n_idx = read_u64(&mut pos);
            most = most.max(n_idx as usize);
            pos += n_idx * 16;
            let n_del = read_u64(&mut pos);
            pos += n_del * 24;
        }
        let index = VolatileIndex::build(cfg.index, ncores, cfg.dram_bytes, most)?;
        rec.index_build_ns = elapsed_ns(t);

        let t = std::time::Instant::now();
        let mut pos = body;
        let mut pairs = Vec::with_capacity(most);
        for core in 0..ncores {
            let n_idx = read_u64(&mut pos);
            pairs.clear();
            for _ in 0..n_idx {
                let key = read_u64(&mut pos);
                pairs.push((key, read_u64(&mut pos)));
            }
            index.bulk_load(core, &mut pairs)?;
            let n_del = read_u64(&mut pos);
            for _ in 0..n_del {
                let key = read_u64(&mut pos);
                let ver = read_u64(&mut pos) as u32;
                let taddr = PmAddr(read_u64(&mut pos));
                deleted.insert(core_of(key, ncores), key, ver, taddr);
            }
        }
        let n_usage = read_u64(&mut pos);
        for _ in 0..n_usage {
            let chunk = read_u64(&mut pos);
            let total = read_u64(&mut pos) as u32;
            let dead = read_u64(&mut pos) as u32;
            usage.restore(chunk, total, dead);
        }
        rec.index_load_ns = elapsed_ns(t);
        // The snapshot block is consumed; free it and clear the anchor.
        let _ = mgr.free_block(addr);
        Superblock::new(pm).set_snapshot(PmAddr::NULL, 0);
        Ok(index)
    }

    /// Serializes the volatile state (index, tombstones, chunk-liveness
    /// accounting) for a shutdown snapshot or a checkpoint.
    fn snapshot_payload(&self) -> Vec<u8> {
        let mut payload: Vec<u8> = Vec::new();
        payload.extend_from_slice(&(self.cfg.ncores as u64).to_le_bytes());
        for core in 0..self.cfg.ncores {
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            self.index
                .for_each_of_core(core, &mut |k, v| pairs.push((k, v)));
            payload.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
            for (k, v) in pairs {
                payload.extend_from_slice(&k.to_le_bytes());
                payload.extend_from_slice(&v.to_le_bytes());
            }
            let mut dels: Vec<(u64, u32, PmAddr)> = Vec::new();
            self.deleted
                .for_each_of_core(core, &mut |k, ver, addr| dels.push((k, ver, addr)));
            payload.extend_from_slice(&(dels.len() as u64).to_le_bytes());
            for (k, ver, addr) in dels {
                payload.extend_from_slice(&k.to_le_bytes());
                payload.extend_from_slice(&(ver as u64).to_le_bytes());
                payload.extend_from_slice(&addr.offset().to_le_bytes());
            }
        }
        let mut usages: Vec<(u64, u32, u32)> = Vec::new();
        self.usage
            .for_each(&mut |chunk, total, dead| usages.push((chunk, total, dead)));
        payload.extend_from_slice(&(usages.len() as u64).to_le_bytes());
        for (chunk, total, dead) in usages {
            payload.extend_from_slice(&chunk.to_le_bytes());
            payload.extend_from_slice(&(total as u64).to_le_bytes());
            payload.extend_from_slice(&(dead as u64).to_le_bytes());
        }
        payload
    }

    /// Writes `payload` as the region's snapshot, replacing (and freeing)
    /// any previous one. Returns whether a block could be allocated.
    fn write_snapshot(&self, payload: &[u8]) -> bool {
        let sb = Superblock::new(&self.pm);
        if let Some((old, _)) = sb.snapshot() {
            sb.set_snapshot(PmAddr::NULL, 0);
            let _ = self.mgr.free_block(old);
        }
        match self.mgr.alloc_huge(payload.len() as u64) {
            Ok(addr) => {
                self.pm.write(addr, payload);
                self.pm.persist(addr, payload.len());
                sb.set_snapshot(addr, payload.len() as u64);
                true
            }
            Err(_) => false,
        }
    }

    /// Takes a checkpoint (paper §3.5: "FlatStore also supports to
    /// checkpoint the volatile index into PMs periodically"): records each
    /// core's log position, persists the allocator bitmaps and snapshots
    /// the volatile state, so that a subsequent **crash** recovery replays
    /// only the log written after this call.
    ///
    /// The checkpoint stays valid until the log cleaner next relocates
    /// entries (the cleaner durably invalidates it first). Intended to run
    /// during quiet periods; writes racing the checkpoint are still
    /// recovered correctly via version comparison, they just shrink the
    /// saved work.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfSpace`] if no PM block can hold the snapshot;
    /// [`StoreError::ShuttingDown`] if the engine is stopping.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        {
            let mut ctl = self.control.lock();
            ctl.barrier()?;
            // 1. Per-core cursors (each core persists its own, on its
            //    thread).
            ctl.ckpt_cursors()?;
        }
        // 2. Allocator bitmaps (covers everything allocated so far).
        self.mgr.persist_bitmaps();
        // 3. Volatile-state snapshot.
        let payload = self.snapshot_payload();
        if !self.write_snapshot(&payload) {
            return Err(StoreError::OutOfSpace);
        }
        // 4. Publish.
        Superblock::new(&self.pm).set_ckpt_valid(true);
        // Durability point: cursors, bitmaps and snapshot are all
        // persisted, and the valid flag just made them reachable.
        self.pm.commit_point();
        self.ckpt.arm();
        self.stats
            .checkpoints
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn start(
        pm: Arc<PmRegion>,
        mgr: Arc<ChunkManager>,
        index: Arc<VolatileIndex>,
        deleted: Arc<DeletedTable>,
        usage: Arc<UsageTable>,
        shards: Vec<(OpLog, CoreAllocator)>,
        cfg: Config,
        repl: Option<Arc<dyn ReplicationSink>>,
        recovery: Option<Recovery>,
    ) -> Result<FlatStore, StoreError> {
        let ncores = cfg.ncores;
        let quarantine = Quarantine::new(20);
        let ckpt = CkptGuard::new(Arc::clone(&pm));
        let stats = Arc::new(EngineStats::default());
        let cache = ReadCache::new(cfg.read_cache_bytes, ncores);
        // Each member's publish list must absorb a burst of posts between
        // leader sweeps; several full pipelines of headroom keeps the
        // self-persist overflow path a cold corner case.
        let list_capacity = (cfg.pipeline_depth * 8).max(128);
        // `validate` guarantees `group_size` divides `ncores`.
        let groups: Vec<Arc<Group>> = (0..ncores / cfg.group_size)
            .map(|_| Group::new(cfg.group_size, list_capacity))
            .collect();

        // Ring capacity covers a full pipeline plus one control message
        // per core, so the agent can always complete a response without
        // waiting on a client that is still submitting.
        let capacity = cfg.pipeline_depth + ncores + 4;
        let fabric = Arc::new(StoreFabric::new(ncores, 1, capacity));
        let mut cores = fabric.server_cores();
        let control_port = fabric.client_port(0);
        let exited = Arc::new(AtomicUsize::new(0));
        let flight = FlightRegistry::new(ncores);
        {
            // The crash dump's stats_report closure captures only Arc'd
            // state (never the engine or EngineShared — that would cycle
            // through the registry), so the panic hook can render the full
            // report from any thread.
            let stats = Arc::clone(&stats);
            let fabric = Arc::clone(&fabric);
            let cache = cache.clone();
            let pm = Arc::clone(&pm);
            let mgr = Arc::clone(&mgr);
            flight.set_stats_source(move || {
                Self::render_report(
                    &stats,
                    &fabric,
                    cache.as_ref(),
                    &pm,
                    &mgr,
                    recovery.as_ref(),
                )
                .to_json()
            });
        }

        let shared = Arc::new(EngineShared {
            fabric,
            ncores,
            depth: cfg.pipeline_depth,
            stats: Arc::clone(&stats),
            trace_sample: cfg.trace_sample,
            flight: Arc::clone(&flight),
            stop: AtomicBool::new(false),
        });

        let mut workers = Vec::with_capacity(ncores);
        for (core, (log, alloc)) in shards.into_iter().enumerate() {
            let server = cores.remove(0);
            debug_assert_eq!(server.core(), core);
            let shard = Shard::new(
                core,
                ncores,
                Arc::clone(&pm),
                Arc::clone(&mgr),
                log,
                alloc,
                Arc::clone(&index),
                Arc::clone(&deleted),
                Arc::clone(&usage),
                Arc::clone(&quarantine),
                Arc::clone(&ckpt),
                Arc::clone(&groups[core / cfg.group_size]),
                core % cfg.group_size,
                cfg.gc,
                Arc::clone(&stats),
                server,
                Arc::clone(&exited),
                repl.clone(),
                cache.clone(),
                Arc::clone(&flight),
            );
            workers.push(
                std::thread::Builder::new()
                    .name(format!("flatstore-core-{core}"))
                    .spawn(move || shard.run())
                    // pmlint: allow(no-unwrap) — thread-spawn failure at startup
                    // is unrecoverable; no PM state exists to strand yet.
                    .expect("spawn worker"),
            );
        }
        let handle = StoreHandle {
            shared: Arc::clone(&shared),
            session: parking_lot::Mutex::new(None),
        };
        let control =
            parking_lot::Mutex::new(Session::with_port(Arc::clone(&shared), control_port));
        Ok(FlatStore {
            pm,
            mgr,
            index,
            deleted,
            usage,
            quarantine,
            ckpt,
            stats,
            cache,
            recovery,
            shared,
            handle,
            control,
            workers,
            cfg,
        })
    }

    /// A clonable client handle.
    pub fn handle(&self) -> StoreHandle {
        self.handle.clone()
    }

    /// Opens a new pipelined [`Session`] (see [`StoreHandle::session`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::ShuttingDown`] if the engine stopped.
    pub fn session(&self) -> Result<Session, StoreError> {
        self.handle.session()
    }

    /// See [`StoreHandle::put`].
    ///
    /// # Errors
    ///
    /// As for [`StoreHandle::put`].
    pub fn put(&self, key: u64, value: impl AsRef<[u8]>) -> Result<(), StoreError> {
        self.handle.put(key, value)
    }

    /// See [`StoreHandle::get`].
    ///
    /// # Errors
    ///
    /// As for [`StoreHandle::get`].
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.handle.get(key)
    }

    /// See [`StoreHandle::delete`].
    ///
    /// # Errors
    ///
    /// As for [`StoreHandle::delete`].
    pub fn delete(&self, key: u64) -> Result<bool, StoreError> {
        self.handle.delete(key)
    }

    /// See [`StoreHandle::range`].
    ///
    /// # Errors
    ///
    /// As for [`StoreHandle::range`].
    pub fn range(&self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        self.handle.range(lo, hi, limit)
    }

    /// Quiesces all cores (see [`StoreHandle::barrier`]).
    pub fn barrier(&self) {
        self.handle.barrier();
    }

    /// Engine activity counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// One coherent report over the whole engine: operation counters,
    /// client-observed latency percentiles, batching, session-pipeline and
    /// cleaning activity, the FlatRPC fabric's counters, and the
    /// underlying region's persistence-op counters. Render it with
    /// `Display`, [`obs::StatsReport::to_json`] or
    /// [`obs::StatsReport::to_jsonl`].
    pub fn stats_report(&self) -> obs::StatsReport {
        Self::render_report(
            &self.stats,
            &self.shared.fabric,
            self.cache.as_ref(),
            &self.pm,
            &self.mgr,
            self.recovery.as_ref(),
        )
    }

    /// Builds the full report from `Arc`'d engine state only, so the
    /// flight recorder's panic hook can render the same document
    /// [`stats_report`](Self::stats_report) produces.
    fn render_report(
        stats: &EngineStats,
        fabric: &StoreFabric,
        cache: Option<&Arc<ReadCache>>,
        pm: &PmRegion,
        mgr: &ChunkManager,
        recovery: Option<&Recovery>,
    ) -> obs::StatsReport {
        let mut r = obs::StatsReport::new("flatstore");
        stats.fill_report(&mut r);
        {
            use racecheck::sync::atomic::Ordering::Relaxed;
            let fs = fabric.stats();
            r.section("fabric")
                .row("requests", fs.requests.load(Relaxed))
                .row("direct_responses", fs.direct_responses.load(Relaxed))
                .row("delegated_responses", fs.delegated_responses.load(Relaxed))
                .row("clients_attached", fs.clients_attached.load(Relaxed))
                .row("send_backpressure", fs.send_backpressure.load(Relaxed))
                .row("peak_ring_occupancy", fs.peak_ring_occupancy.load(Relaxed));
        }
        if let Some(cache) = cache {
            cache.fill_report(&mut r);
        }
        let sec = r.section("pm");
        pm.stats().snapshot().fill_section(sec);
        sec.row("free_chunks", mgr.free_chunks());
        if let Some(recovery) = recovery {
            recovery.fill_section(r.section("recovery"));
        }
        r
    }

    /// Renders the engine-side trace accumulated in the flight rings —
    /// one lane per server core, with `batch_persist` spans linking HB
    /// batches to their member ops via the `ship_seq`/`entries` args —
    /// plus the given client-side spans (from [`Session::drain_spans`]),
    /// as a Chrome trace-event JSON document loadable in
    /// `chrome://tracing` or Perfetto. Client spans render on their
    /// owning core's lane; spans that never reached a shard land on the
    /// extra `client` lane.
    pub fn chrome_trace(&self, client_spans: &[obs::Span]) -> String {
        let mut events = self.shared.flight.chrome_events();
        let client_lane = self.cfg.ncores as u32;
        for s in client_spans {
            let tid = if s.core == u32::MAX {
                client_lane
            } else {
                s.core
            };
            events.extend(s.chrome_events(tid));
        }
        let mut names: Vec<(u32, String)> = (0..self.cfg.ncores)
            .map(|c| (c as u32, format!("core-{c}")))
            .collect();
        names.push((client_lane, "client".to_string()));
        obs::chrome_trace("flatstore", names, &events)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free chunks in the PM pool.
    pub fn free_chunks(&self) -> u32 {
        self.mgr.free_chunks()
    }

    /// Liveness accounting of every log chunk — `(chunk base, entries
    /// appended, entries dead)`, sorted by address: the cleaner's victim
    /// selection input. Recovery rebuilds exactly this table, which is
    /// what the crash tests compare.
    pub fn chunk_usage(&self) -> Vec<(PmAddr, u32, u32)> {
        let mut usages = Vec::new();
        self.usage
            .for_each(&mut |chunk, total, dead| usages.push((PmAddr(chunk), total, dead)));
        usages.sort_unstable();
        usages
    }

    /// The underlying (simulated) PM region.
    pub fn pm(&self) -> Arc<PmRegion> {
        Arc::clone(&self.pm)
    }

    /// Read-only scan of `core`'s log suffix at or after `from` (the whole
    /// log when `from` is [`PmAddr::NULL`]), invoking `f` per surviving
    /// entry and returning the persisted tail. Replication catch-up uses
    /// this to re-ship everything past a stale backup's persisted cursor.
    ///
    /// Only yields a consistent cut while the engine is quiescent (call
    /// [`barrier`](Self::barrier) first and keep clients paused), and only
    /// while the cleaner has not reordered the chain since the cursor was
    /// recorded — disable GC or fall back to a full re-ship on error.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] variants if the chain cannot be walked from
    /// `from` (e.g. the cleaner relocated it).
    pub fn log_suffix(
        &self,
        core: usize,
        from: PmAddr,
        f: impl FnMut(LogEntry, PmAddr),
    ) -> Result<PmAddr, StoreError> {
        let from = (from != PmAddr::NULL).then_some(from);
        Ok(OpLog::scan_descriptor(
            &self.pm,
            Superblock::log_desc(core),
            from,
            f,
        )?)
    }

    /// Like [`log_suffix`](Self::log_suffix), but yields shipping-ready
    /// [`ReplOp`](crate::ReplOp)s (pointer payloads resolved to bytes) —
    /// the catch-up path: re-ship everything a stale backup's persisted
    /// cursor has not covered. Same quiescence caveats as `log_suffix`.
    ///
    /// # Errors
    ///
    /// As for [`log_suffix`](Self::log_suffix).
    pub fn repl_suffix(
        &self,
        core: usize,
        from: PmAddr,
        mut f: impl FnMut(crate::ReplOp),
    ) -> Result<PmAddr, StoreError> {
        let pm = Arc::clone(&self.pm);
        self.log_suffix(core, from, move |e, _| {
            f(crate::repl::ReplOp::from_entry(&pm, &e));
        })
    }

    fn join_workers(&mut self) -> Vec<Shard> {
        if self.workers.is_empty() {
            return Vec::new();
        }
        self.control.lock().send_shutdown_all();
        let shards: Vec<Shard> = self
            .workers
            .drain(..)
            // pmlint: allow(no-unwrap) — propagate a worker panic rather
            // than pretend a clean shutdown happened over its corpse.
            .map(|w| w.join().expect("worker panicked"))
            .collect();
        // Only now do sessions fail fast: every ring has been fully
        // drained, so nothing submitted before this point is lost.
        self.shared.stop.store(true, Ordering::Release);
        shards
    }

    /// Clean shutdown (paper §3.5): drains all cores, snapshots the
    /// volatile index and tombstone table into PM, persists the allocator
    /// bitmaps and sets the clean flag. Returns the region for reopening.
    ///
    /// # Errors
    ///
    /// Snapshot allocation failures degrade gracefully: the image is still
    /// marked clean and the next open replays the log instead.
    pub fn shutdown(mut self) -> Result<Arc<PmRegion>, StoreError> {
        let shards = self.join_workers();
        self.quarantine.drain(&self.mgr);

        let payload = self.snapshot_payload();
        let sb = Superblock::new(&self.pm);
        if !self.write_snapshot(&payload) {
            // Degrade gracefully: the next open replays the log instead.
            sb.set_snapshot(PmAddr::NULL, 0);
        }
        self.mgr.persist_bitmaps();
        sb.set_ckpt_valid(false);
        sb.set_clean(true);
        // Durability point: the image is now a complete clean-shutdown
        // state (snapshot + bitmaps + clean flag).
        self.pm.commit_point();
        drop(shards);
        Ok(Arc::clone(&self.pm))
    }

    /// Abrupt stop without the clean-shutdown protocol: the next open takes
    /// the crash-recovery path. Combine with
    /// [`PmRegion::simulate_crash`] to also drop unflushed state.
    pub fn kill(mut self) -> Arc<PmRegion> {
        let _ = self.join_workers();
        Arc::clone(&self.pm)
    }
}

impl Drop for FlatStore {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            let _ = self.join_workers();
        }
        let _ = &self.usage; // shared tables dropped with the engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Op;
    use indexes::Index;
    use std::collections::HashMap;
    use workloads::value_bytes;

    /// Puts `value(i)` under `key(i)` for every `i` in `ops` through one
    /// pipelined session, asserting that every Put is acked.
    fn pipelined_puts(
        store: &FlatStore,
        ops: std::ops::Range<u64>,
        key: impl Fn(u64) -> u64,
        value: impl Fn(u64) -> Vec<u8>,
    ) {
        let mut session = store.session().unwrap();
        for i in ops {
            session.submit(Op::put(key(i), value(i))).unwrap();
            if i % 1024 == 0 {
                for (_, reply) in session.poll_completions() {
                    assert_eq!(reply, Reply::Put(Ok(())), "put {i}");
                }
            }
        }
        for (_, reply) in session.wait_all().unwrap() {
            assert_eq!(reply, Reply::Put(Ok(())));
        }
    }

    fn gc_chunks(store: &FlatStore) -> u64 {
        store
            .stats()
            .gc_chunks
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// A crash between a chunk rollover's link and its tail persist, on a
    /// pool the cleaner has churned (recycled chunks are the norm there):
    /// the reopened store holds exactly the acked writes, and so does the
    /// one reopened after more churn and a second crash.
    #[test]
    fn a_crash_inside_a_chunk_rollover_on_a_churned_pool_loses_nothing() {
        // Five pool chunks and one core: the cleaner runs all along.
        let cfg = Config::builder()
            .pm_bytes(24 << 20)
            .dram_bytes(8 << 20)
            .ncores(1)
            .group_size(1)
            .crash_tracking(true)
            .build()
            .unwrap();
        let key = |i: u64| i % 2_000;
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let store = FlatStore::create(cfg.clone()).unwrap();
        let churn = |store: &FlatStore, ops: std::ops::Range<u64>, model: &mut HashMap<_, _>| {
            pipelined_puts(store, ops.clone(), key, |i| value_bytes(i, 64));
            for i in ops {
                model.insert(key(i), value_bytes(i, 64));
            }
        };
        churn(&store, 0..60_000, &mut model);
        assert!(gc_chunks(&store) > 0, "the pool never churned");
        // Let the quarantine hand its chunks back to the pool.
        std::thread::sleep(std::time::Duration::from_millis(100));

        // Drive core 0's log past a rollover through the oplog API, then
        // put the tail word back: the image of a crash after the fresh
        // chunk was linked and the batch fenced, before the tail moved.
        let pm = store.kill();
        pm.simulate_crash();
        let nchunks = ((cfg.pm_bytes as u64 - POOL_BASE) / CHUNK_SIZE) as u32;
        let mgr = Arc::new(ChunkManager::recover(
            Arc::clone(&pm),
            PmAddr(POOL_BASE),
            nchunks,
        ));
        let desc = Superblock::log_desc(0);
        let mut log = OpLog::recover_headers(Arc::clone(&mgr), desc, None, |_, _| {}).unwrap();
        // As `open` does: the free list is rebuilt, and chunks the chain
        // does not reach (quarantined victims) go back to the pool.
        mgr.finish_recovery();
        for c in mgr.reserved_chunks() {
            if !log.chunks().contains(&c) {
                mgr.return_raw_chunk(c).unwrap();
            }
        }
        let chunks = log.chunks().len();
        let mut next = 1u64 << 30;
        let lost = loop {
            let before = log.tail();
            let batch: Vec<LogEntry> = (next..next + 256)
                .map(|k| LogEntry::put_inline(k, 1, value_bytes(k, 64)).unwrap())
                .collect();
            next += 256;
            log.append_batch(&batch).unwrap();
            if log.chunks().len() > chunks {
                pm.write_u64(desc + 8, before.offset());
                pm.persist(desc + 8, 8);
                break batch;
            }
            for e in &batch {
                model.insert(e.key, value_bytes(e.key, 64));
            }
        };
        drop(log);
        pm.simulate_crash();

        let check = |store: &FlatStore, model: &HashMap<u64, Vec<u8>>| {
            assert_eq!(store.len(), model.len());
            for (k, v) in model {
                assert_eq!(store.get(*k).unwrap().as_ref(), Some(v), "key {k}");
            }
            for e in &lost {
                assert_eq!(store.get(e.key).unwrap(), None, "unacked key {}", e.key);
            }
        };
        let store = FlatStore::open(pm, cfg.clone()).unwrap();
        check(&store, &model);

        // More churn, so the cleaner picks victims on the recovered chain,
        // then a second crash.
        let cleaned = gc_chunks(&store);
        churn(&store, 60_000..120_000, &mut model);
        assert!(gc_chunks(&store) > cleaned, "the cleaner never ran again");
        let pm = store.kill();
        pm.simulate_crash();
        let store = FlatStore::open(pm, cfg).unwrap();
        check(&store, &model);
    }

    /// A clean shutdown → open of 100 k keys sizes the index from the
    /// snapshot's per-core counts and bulk-loads it: no CCEH split.
    #[test]
    fn clean_reopen_of_100k_keys_bulk_loads_without_a_split() {
        let cfg = Config::builder()
            .pm_bytes(64 << 20)
            .dram_bytes(16 << 20)
            .ncores(2)
            .group_size(2)
            .build()
            .unwrap();
        let n = 100_000u64;
        let store = FlatStore::create(cfg.clone()).unwrap();
        pipelined_puts(&store, 0..n, |i| i, |i| value_bytes(i, 8));
        let pm = store.shutdown().unwrap();
        let store = FlatStore::open(pm, cfg.clone()).unwrap();
        assert_eq!(store.len() as u64, n);
        let VolatileIndex::PerCoreHash(shards) = &*store.index else {
            panic!("the default index is the per-core hash");
        };
        for shard in shards {
            let shard = shard.lock();
            let depth = indexes::Cceh::depth_for(shard.len(), cfg.dram_bytes as u64);
            assert!(depth > 2, "a depth-2 table would have had to split");
            assert_eq!(shard.segment_count(), 1 << depth, "the load split");
        }
        for k in (0..n).step_by(997) {
            assert_eq!(store.get(k).unwrap(), Some(value_bytes(k, 8)));
        }
    }
}
