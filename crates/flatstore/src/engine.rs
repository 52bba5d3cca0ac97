//! The FlatStore engine: worker lifecycle, the FlatRPC fabric, recovery
//! and shutdown.

use racecheck::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use racecheck::sync::Arc;
use std::collections::hash_map::{Entry, HashMap};
use std::thread::JoinHandle;

use oplog::{newer, EntryHeader, LogEntry, LogOp, OpLog};
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
use crate::tuner::BatchTuner;
use crate::value::{pack, unpack};
use crate::vindex::VolatileIndex;

/// Nanoseconds since `start`, saturated into a histogram sample.
#[inline]
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
    /// Adaptive-batching controllers (empty in static mode) — kept for
    /// the `batch_tuner` stats section.
    tuners: Vec<Arc<BatchTuner>>,
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
        Self::start(pm, mgr, index, deleted, usage, shards, cfg, repl)
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
        // Paths 1 and 2 load the snapshot into an index built up front;
        // path 3 builds its index after the scan, sized by what it found.
        let snapshot_index = match sb.snapshot() {
            Some((snap, _len)) if trust_bitmaps => {
                let index = VolatileIndex::build(cfg.index, ncores, cfg.dram_bytes, 0)?;
                Self::load_snapshot(&pm, snap, &mgr, &index, &deleted, &usage, ncores)?;
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
                    let mut suffix = Vec::new();
                    let log =
                        OpLog::recover_headers(Arc::clone(&mgr), desc, Some(from), |h, a| {
                            suffix.push((h, a));
                        })?;
                    for (h, addr) in suffix {
                        Self::apply_recovered(&index, &deleted, &usage, &mgr, ncores, h, addr)?;
                    }
                    logs.push(log);
                }
                index
            }
            None => {
                // Path 3: one pass over entry headers, no owned values.
                let mut scanned: Vec<(EntryHeader, PmAddr)> = Vec::new();
                for core in 0..ncores {
                    let (mgr, desc) = (Arc::clone(&mgr), Superblock::log_desc(core));
                    let collect = |h, a| scanned.push((h, a));
                    logs.push(OpLog::recover_headers(mgr, desc, None, collect)?);
                }
                // Newest version of each key wins; `newest` maps a key to
                // (version, position in `scanned`) and is sized once.
                let mut newest: HashMap<u64, (u32, usize)> = HashMap::with_capacity(scanned.len());
                let mut stale = vec![false; scanned.len()];
                let mut dead: HashMap<PmAddr, u32> = HashMap::new();
                for (i, (h, _)) in scanned.iter().enumerate() {
                    let loser = match newest.entry(h.key) {
                        Entry::Vacant(slot) => {
                            slot.insert((h.version, i));
                            continue;
                        }
                        Entry::Occupied(won) if !newer(h.version, won.get().0) => i,
                        Entry::Occupied(mut won) => won.insert((h.version, i)).1,
                    };
                    stale[loser] = true;
                    *dead.entry(OpLog::chunk_of(scanned[loser].1)).or_default() += 1;
                }
                for (chunk, u) in logs.iter().flat_map(|log| log.usages()) {
                    let dead = dead.get(&chunk).copied().unwrap_or(0);
                    usage.restore(chunk.offset(), u.total, dead);
                }
                let index = VolatileIndex::build(cfg.index, ncores, cfg.dram_bytes, newest.len())?;
                for ((h, addr), _) in scanned.iter().zip(&stale).filter(|(_, stale)| !**stale) {
                    let owner = core_of(h.key, ncores);
                    match h.op {
                        LogOp::Put => {
                            index.insert(owner, h.key, pack(h.version, *addr))?;
                            if let (Some(block), false) = (h.block(), trust_bitmaps) {
                                mgr.mark_allocated(block).map_err(|err| {
                                    StoreError::corrupt_with("recovery mark failed", err)
                                })?;
                            }
                        }
                        LogOp::Delete => deleted.insert(owner, h.key, h.version, *addr),
                        LogOp::Seal => {}
                    }
                }
                if !trust_bitmaps {
                    mgr.finish_recovery();
                }
                index
            }
        };
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
        Self::start(pm, mgr, index, deleted, usage, shards, cfg, repl)
    }

    /// Applies one post-checkpoint log entry on top of snapshot state:
    /// newest version wins, equal versions re-anchor the same entry (its
    /// out-of-log block may postdate the persisted bitmaps).
    fn apply_recovered(
        index: &VolatileIndex,
        deleted: &DeletedTable,
        usage: &UsageTable,
        mgr: &ChunkManager,
        ncores: usize,
        e: EntryHeader,
        addr: PmAddr,
    ) -> Result<(), StoreError> {
        usage.note_appended(OpLog::chunk_of(addr), 1);
        let owner = core_of(e.key, ncores);
        let cur = index.get(owner, e.key);
        let cur_ver = cur.map(|c| unpack(c).0);
        let del_ver = deleted.get(owner, e.key).map(|(v, _)| v);
        let newest = cur_ver.is_none_or(|v| newer(e.version, v))
            && del_ver.is_none_or(|v| newer(e.version, v));
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
                }
            }
            LogOp::Seal => {}
        }
        Ok(())
    }

    /// Loads the snapshot anchored at `addr` into the (empty) volatile
    /// state, then frees its block and clears the anchor.
    fn load_snapshot(
        pm: &PmRegion,
        addr: PmAddr,
        mgr: &ChunkManager,
        index: &VolatileIndex,
        deleted: &DeletedTable,
        usage: &UsageTable,
        ncores: usize,
    ) -> Result<(), StoreError> {
        let mut pos = addr;
        let read_u64 = |pos: &mut PmAddr| {
            let v = pm.read_u64(*pos);
            *pos += 8;
            v
        };
        let snap_cores = read_u64(&mut pos) as usize;
        if snap_cores != ncores {
            return Err(StoreError::BadImage("snapshot core count".into()));
        }
        for _ in 0..ncores {
            let n_idx = read_u64(&mut pos);
            for _ in 0..n_idx {
                let key = read_u64(&mut pos);
                let packed = read_u64(&mut pos);
                index.insert(core_of(key, ncores), key, packed)?;
            }
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
        // The snapshot block is consumed; free it and clear the anchor.
        let _ = mgr.free_block(addr);
        Superblock::new(pm).set_snapshot(PmAddr::NULL, 0);
        Ok(())
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
        let (groups, tuners): (Vec<Arc<Group>>, Vec<Arc<BatchTuner>>) = if cfg.adaptive {
            // Adaptive mode: one publish fabric spanning every core, with
            // the configured group_size as the controller's starting
            // effective sweep width — it can grow past it under
            // contention or shrink below it when batches run empty.
            let tuner = BatchTuner::new(ncores, cfg.group_size, cfg.pipeline_depth as u64);
            (
                vec![Group::with_tuner(
                    ncores,
                    list_capacity,
                    Some(Arc::clone(&tuner)),
                )],
                vec![tuner],
            )
        } else {
            let ngroups = ncores.div_ceil(cfg.group_size);
            let groups = (0..ngroups)
                .map(|g| {
                    let members = (ncores - g * cfg.group_size).min(cfg.group_size);
                    Group::new(members, list_capacity)
                })
                .collect();
            (groups, Vec::new())
        };

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
            let tuners = tuners.clone();
            flight.set_stats_source(move || {
                Self::render_report(&stats, &fabric, cache.as_ref(), &pm, &mgr, &tuners).to_json()
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
                if cfg.adaptive {
                    Arc::clone(&groups[0])
                } else {
                    Arc::clone(&groups[core / cfg.group_size])
                },
                if cfg.adaptive {
                    core
                } else {
                    core % cfg.group_size
                },
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
            tuners,
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
            &self.tuners,
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
        tuners: &[Arc<BatchTuner>],
    ) -> obs::StatsReport {
        let mut r = obs::StatsReport::new("flatstore");
        stats.fill_report(&mut r);
        // Adaptive mode only: decision counters + the current operating
        // point (static runs keep the report byte-identical to before).
        for tuner in tuners {
            tuner.fill_section(r.section("batch_tuner"));
        }
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
