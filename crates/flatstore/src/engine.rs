//! The FlatStore engine: worker lifecycle, the FlatRPC fabric, recovery
//! and shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use oplog::{newer, EntryHeader, LogEntry, LogOp, OpLog, VERSION_MASK};
use pmalloc::{ChunkManager, CoreAllocator, CHUNK_SIZE};
use pmem::{PmAddr, PmRegion};

use crate::batch::{DeletedTable, EngineStats, Group, Quarantine, UsageTable};
use crate::cache::ReadCache;
use crate::config::Config;
use crate::error::StoreError;
use crate::flight::FlightRegistry;
use crate::repl::ReplicationSink;
use crate::request::{Op, Reply, StoreFabric};
use crate::session::{EngineShared, Session};
use crate::shard::{core_of, Shard};
use crate::superblock::{Superblock, POOL_BASE};
use crate::value::pack;
use crate::vindex::{LaneIndex, VolatileIndex};

/// Nanoseconds since `start`, saturated into a histogram sample.
#[inline]
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What one `open` did to rebuild the volatile state: the `recovery`
/// section of the stats report (absent on a store built by `create`).
#[derive(Debug, Clone, Copy, Default)]
struct Recovery {
    /// 1: clean shutdown + snapshot; 3: crash (or no snapshot), full log
    /// scan. (2 was the retired checkpoint path; the numbers stay put so
    /// reports stay comparable.)
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

/// Bits of a path-3 newest-wins record that name its log: `Config`
/// allows at most 60 cores.
const LOG_BITS: u32 = 6;

/// A shutdown snapshot's payload as little-endian words, consumed front
/// to back. A count is checked against the words left before it is used.
struct SnapshotWords<'a>(&'a [[u8; 8]]);

impl<'a> SnapshotWords<'a> {
    /// The next word.
    fn word(&mut self) -> Result<u64, StoreError> {
        let (word, rest) = self
            .0
            .split_first()
            .ok_or_else(|| StoreError::BadImage("snapshot ends early".into()))?;
        self.0 = rest;
        Ok(u64::from_le_bytes(*word))
    }

    /// The next `n` records of `width` words each.
    fn records(&mut self, n: u64, width: usize) -> Result<&'a [[u8; 8]], StoreError> {
        let words = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(width))
            .filter(|&words| words <= self.0.len())
            .ok_or_else(|| {
                StoreError::BadImage(format!("snapshot count {n} overruns its block"))
            })?;
        let (records, rest) = self.0.split_at(words);
        self.0 = rest;
        Ok(records)
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
        if guard.is_none() && self.shared.stopped() {
            return Err(StoreError::ShuttingDown);
        }
        f(guard.get_or_insert_with(|| Session::attach(Arc::clone(&self.shared))))
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

    /// Range scan over `lo..hi`, at most `limit` items (FlatStore-M).
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
    stats: Arc<EngineStats>,
    /// Hot-value read cache (`None` when `read_cache_bytes == 0`). Volatile
    /// by construction: create/open/promote all start it empty.
    cache: Option<Arc<ReadCache>>,
    /// How `open` rebuilt the volatile state (`None` after `create`).
    recovery: Option<Recovery>,
    shared: Arc<EngineShared>,
    handle: StoreHandle,
    /// The engine's own fabric client (client id 0), used for the
    /// shutdown broadcast.
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
        let index = Arc::new(VolatileIndex::build(cfg.index, cfg.ncores, cfg.dram_bytes)?);
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
        let sb = Superblock::new(&pm);
        let (ncores, nchunks) = sb.load()?;
        let mut cfg = cfg;
        cfg.ncores = ncores; // the persistent layout dictates the shards
        if cfg.group_size == 0 || ncores % cfg.group_size != 0 {
            cfg.group_size = ncores;
        }
        cfg.validate()?;
        let clean = sb.is_clean();

        let deleted = DeletedTable::new(ncores);
        let usage = UsageTable::new();

        // Two recovery paths (paper §3.5):
        //  1. clean shutdown + snapshot: trust bitmaps, load the snapshot,
        //     walk only the chain structure — no log scan at all;
        //  3. crash, or a clean image whose shutdown found no room for a
        //     snapshot: full log scan rebuilding the index (and, after a
        //     crash, the bitmaps).
        let mgr = if clean {
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
        // Path 1 bulk-loads the snapshot into an index sized by its
        // per-core key counts; path 3 builds its index after the scan,
        // sized by what it found.
        let mut rec = Recovery::default();
        let snapshot_index = match sb.snapshot() {
            Some((snap, len)) if clean => {
                rec.path = 1;
                let index = Self::load_snapshot(
                    &pm, snap, len, &mgr, &cfg, &deleted, &usage, ncores, &mut rec,
                )?;
                Some(index)
            }
            Some(_) => {
                // A crash inside `shutdown` after the snapshot was anchored
                // (or an image whose checkpoint a crash left behind): the
                // scan below treats the snapshot's block as free, so the
                // anchor must go before any shard can reuse that chunk, or
                // the next `write_snapshot` would free a live block.
                sb.set_snapshot(PmAddr::NULL, 0);
                None
            }
            None => None,
        };

        let (logs, index) = match snapshot_index {
            Some(index) => {
                // Path 1 resumes each log at its persisted tail: a
                // structure-only chain walk that yields no entry.
                let t = std::time::Instant::now();
                let mut logs = Vec::with_capacity(ncores);
                for core in 0..ncores {
                    let desc = Superblock::log_desc(core);
                    let tail = PmAddr(pm.read_u64(desc + 8));
                    let log =
                        OpLog::recover_headers(Arc::clone(&mgr), desc, Some(tail), |_, _| {})?;
                    logs.push(log);
                }
                rec.scan_ns = elapsed_ns(t);
                (logs, index)
            }
            None => {
                rec.path = 3;
                Self::scan_logs(&mgr, &cfg, &deleted, &usage, clean, nchunks, &mut rec)?
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

        let mut shards = Vec::with_capacity(ncores);
        for (core, log) in logs.into_iter().enumerate() {
            let mut alloc = CoreAllocator::new(Arc::clone(&mgr), core as u32);
            alloc.adopt_recovered(ncores as u32);
            shards.push((log, alloc));
        }
        Self::start(pm, mgr, index, deleted, usage, shards, cfg, None, Some(rec))
    }

    /// Path 3: rebuilds the volatile state from a full scan of every log,
    /// on two passes of per-core lanes (DESIGN.md §4). Each scan lane reads
    /// one log's entry headers — no owned values — and partitions
    /// newest-wins records by owner core. Each owner lane then picks its
    /// keys' winners, marks their blocks, fills its core's tombstones and
    /// builds and loads its core's index. Each phase row reports its
    /// slowest lane.
    fn scan_logs(
        mgr: &Arc<ChunkManager>,
        cfg: &Config,
        deleted: &DeletedTable,
        usage: &UsageTable,
        clean: bool,
        nchunks: u32,
        rec: &mut Recovery,
    ) -> Result<(Vec<OpLog>, VolatileIndex), StoreError> {
        // A record is `(key, log | position | version)`: the log and the
        // entry's position in it above the 20-bit version. Sorting records
        // puts each key's entries in one run, in the order a sequential
        // scan of the logs in core order would visit them, and folding a
        // run with `newer` picks the winner that scan would. The fold reads
        // a header only for winners; a chunk's dead count is its entries
        // minus its winners.
        let ncores = cfg.ncores;
        let ver_bits = VERSION_MASK.count_ones();
        let pos_bits = 64 - ver_bits - LOG_BITS;
        debug_assert!(ncores <= 1 << LOG_BITS);
        let version = |r: u64| (r & u64::from(VERSION_MASK)) as u32;
        let chunk_id = |a: PmAddr| ((a.offset() - POOL_BASE) / CHUNK_SIZE) as usize;

        struct ScanLane {
            log: OpLog,
            headers: Vec<(EntryHeader, PmAddr)>,
            /// Records by owner core.
            records: Vec<Vec<(u64, u64)>>,
            ns: u64,
        }
        let scans = on_threads(vec![(); ncores], |log, ()| {
            let t = std::time::Instant::now();
            let mut headers = Vec::new();
            let mut records = vec![Vec::new(); ncores];
            let base = (log as u64) << pos_bits;
            let collect = |h: EntryHeader, a| {
                let r = (base | headers.len() as u64) << ver_bits | u64::from(h.version);
                records[core_of(h.key, ncores)].push((h.key, r));
                headers.push((h, a));
            };
            let desc = Superblock::log_desc(log);
            OpLog::recover_headers(Arc::clone(mgr), desc, None, collect).map(|log| ScanLane {
                log,
                headers,
                records,
                ns: elapsed_ns(t),
            })
        });
        let mut logs = Vec::with_capacity(ncores);
        let mut headers = Vec::with_capacity(ncores);
        let mut by_owner: Vec<Vec<Vec<(u64, u64)>>> = vec![Vec::with_capacity(ncores); ncores];
        for scan in scans {
            let scan = scan?;
            rec.scan_ns = rec.scan_ns.max(scan.ns);
            rec.entries_scanned += scan.headers.len() as u64;
            logs.push(scan.log);
            headers.push(scan.headers);
            for (owner, part) in scan.records.into_iter().enumerate() {
                by_owner[owner].push(part);
            }
        }

        struct OwnerLane {
            shard: Option<indexes::Cceh>,
            won_in: Vec<u32>,
            stale: u64,
            newest_wins_ns: u64,
            build_ns: u64,
            load_ns: u64,
        }
        let lanes = LaneIndex::new(cfg.index, cfg.dram_bytes)?;
        let headers = &headers;
        let owners = on_threads(by_owner, |core, parts| {
            let t = std::time::Instant::now();
            let mut records = parts.concat();
            drop(parts);
            records.sort_unstable();
            let mut won_in = vec![0u32; nchunks as usize];
            let mut pairs = Vec::new();
            let mut stale = 0;
            for run in records.chunk_by(|a, b| a.0 == b.0) {
                let mut won = run[0].1;
                for &(_, r) in &run[1..] {
                    if newer(version(r), version(won)) {
                        won = r;
                    }
                }
                stale += run.len() as u64 - 1;
                let pos = won >> ver_bits;
                let (h, addr) =
                    headers[(pos >> pos_bits) as usize][(pos & ((1 << pos_bits) - 1)) as usize];
                won_in[chunk_id(addr)] += 1;
                match h.op {
                    LogOp::Put => {
                        pairs.push((h.key, pack(h.version, addr)));
                        if let (Some(block), false) = (h.block(), clean) {
                            mgr.mark_allocated(block).map_err(|err| {
                                StoreError::corrupt_with("recovery mark failed", err)
                            })?;
                        }
                    }
                    LogOp::Delete => deleted.insert(core, h.key, h.version, addr),
                    LogOp::Seal => {}
                }
            }
            drop(records);
            let newest_wins_ns = elapsed_ns(t);

            let t = std::time::Instant::now();
            let mut lane = lanes.lane(pairs.len())?;
            let build_ns = elapsed_ns(t);
            let t = std::time::Instant::now();
            lane.load(core, &mut pairs)?;
            Ok::<_, StoreError>(OwnerLane {
                shard: lane.into_shard(),
                won_in,
                stale,
                newest_wins_ns,
                build_ns,
                load_ns: elapsed_ns(t),
            })
        });
        let mut won_in = vec![0u32; nchunks as usize];
        let mut shards = Vec::with_capacity(ncores);
        for owner in owners {
            let owner = owner?;
            rec.stale_entries += owner.stale;
            rec.newest_wins_ns = rec.newest_wins_ns.max(owner.newest_wins_ns);
            rec.index_build_ns = rec.index_build_ns.max(owner.build_ns);
            rec.index_load_ns = rec.index_load_ns.max(owner.load_ns);
            for (sum, n) in won_in.iter_mut().zip(owner.won_in) {
                *sum += n;
            }
            shards.push(owner.shard);
        }

        // Every block is marked: settle the chunks.
        let t = std::time::Instant::now();
        for (chunk, u) in logs.iter().flat_map(|log| log.usages()) {
            usage.restore(chunk.offset(), u.total, u.total - won_in[chunk_id(chunk)]);
        }
        if !clean {
            mgr.finish_recovery();
        }
        rec.newest_wins_ns += elapsed_ns(t);
        Ok((logs, lanes.finish(shards)))
    }

    /// Loads the `len`-byte snapshot anchored at `addr` into fresh
    /// volatile state, then frees its block and clears the anchor. The
    /// block is read with one `pm.read`, and every count in it is checked
    /// against the words left before anything is allocated or loaded: a
    /// short or corrupt payload is [`StoreError::BadImage`]. Then each
    /// core's section loads on a lane of its own (DESIGN.md §4), into an
    /// index built at the depth where that core's keys bulk-load without a
    /// split. Snapshot keys are distinct by construction.
    #[expect(
        clippy::too_many_arguments,
        reason = "one private call site hands over the boot state the load fills"
    )]
    fn load_snapshot(
        pm: &PmRegion,
        addr: PmAddr,
        len: u64,
        mgr: &ChunkManager,
        cfg: &Config,
        deleted: &DeletedTable,
        usage: &UsageTable,
        ncores: usize,
        rec: &mut Recovery,
    ) -> Result<VolatileIndex, StoreError> {
        let t = std::time::Instant::now();
        let fits = addr
            .offset()
            .checked_add(len)
            .is_some_and(|end| end <= pm.len() as u64);
        if !fits {
            return Err(StoreError::BadImage("snapshot extent".into()));
        }
        let mut payload = vec![0u8; len as usize];
        pm.read(addr, &mut payload);
        let read_ns = elapsed_ns(t);

        // The layout `snapshot_payload` writes: the core count; per core
        // n_idx, n_idx × (key, packed), n_del, n_del × (key, version,
        // tombstone address); then n_usage × (chunk, total, dead).
        let t = std::time::Instant::now();
        let (words, rest) = payload.as_chunks::<8>();
        if !rest.is_empty() {
            return Err(StoreError::BadImage("snapshot length".into()));
        }
        let mut words = SnapshotWords(words);
        if words.word()? != ncores as u64 {
            return Err(StoreError::BadImage("snapshot core count".into()));
        }
        let mut sections = Vec::with_capacity(ncores);
        for _ in 0..ncores {
            let n_idx = words.word()?;
            let pairs = words.records(n_idx, 2)?;
            let n_del = words.word()?;
            sections.push((pairs, words.records(n_del, 3)?));
        }
        let n_usage = words.word()?;
        let usages = words.records(n_usage, 3)?;
        if !words.0.is_empty() {
            return Err(StoreError::BadImage("snapshot length".into()));
        }
        let lanes = LaneIndex::new(cfg.index, cfg.dram_bytes)?;
        let count_ns = elapsed_ns(t);

        let le = |w: &[u8; 8]| u64::from_le_bytes(*w);
        let loaded = on_threads(sections, |core, (pairs, dels)| {
            let t = std::time::Instant::now();
            let mut lane = lanes.lane(pairs.len() / 2)?;
            let build_ns = elapsed_ns(t);
            let t = std::time::Instant::now();
            let mut pairs: Vec<(u64, u64)> = pairs
                .chunks_exact(2)
                .map(|r| (le(&r[0]), le(&r[1])))
                .collect();
            lane.load(core, &mut pairs)?;
            for r in dels.chunks_exact(3) {
                let (key, ver, taddr) = (le(&r[0]), le(&r[1]) as u32, PmAddr(le(&r[2])));
                deleted.insert(core_of(key, ncores), key, ver, taddr);
            }
            Ok::<_, StoreError>((lane.into_shard(), build_ns, elapsed_ns(t)))
        });
        let mut shards = Vec::with_capacity(ncores);
        let (mut build_ns, mut load_ns) = (0, 0);
        for lane in loaded {
            let (shard, build, load) = lane?;
            build_ns = build_ns.max(build);
            load_ns = load_ns.max(load);
            shards.push(shard);
        }
        rec.index_build_ns = count_ns + build_ns;

        let t = std::time::Instant::now();
        for r in usages.chunks_exact(3) {
            usage.restore(le(&r[0]), le(&r[1]) as u32, le(&r[2]) as u32);
        }
        rec.index_load_ns = read_ns + load_ns + elapsed_ns(t);
        // The snapshot block is consumed; free it and clear the anchor.
        let _ = mgr.free_block(addr);
        Superblock::new(pm).set_snapshot(PmAddr::NULL, 0);
        Ok(lanes.finish(shards))
    }

    /// Serializes the volatile state (index, tombstones, chunk-liveness
    /// accounting) for the shutdown snapshot.
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

    #[expect(
        clippy::too_many_arguments,
        reason = "every open path hands its recovered pieces to this one constructor"
    )]
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
        // per core; a (core, client) response ring holds at most that
        // client's in-flight ops to that core, so a core never blocks
        // pushing a response to a client that is still submitting.
        let capacity = cfg.pipeline_depth + ncores + 4;
        let fabric = Arc::new(StoreFabric::new(ncores, 1, capacity));
        let mut cores = fabric.server_cores();
        let control_port = fabric.client_port(0);
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
                Arc::clone(&groups[core / cfg.group_size]),
                core % cfg.group_size,
                cfg.gc,
                Arc::clone(&stats),
                server,
                repl.clone(),
                cache.clone(),
                Arc::clone(&flight),
            );
            #[expect(
                clippy::expect_used,
                reason = "thread-spawn failure at startup is unrecoverable; no PM state exists to strand yet"
            )]
            let worker = std::thread::Builder::new()
                .name(format!("flatstore-core-{core}"))
                .spawn(move || shard.run())
                .expect("spawn worker");
            workers.push(worker);
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
            use std::sync::atomic::Ordering::Relaxed;
            let fs = fabric.stats();
            r.section("fabric")
                .row("requests", fs.requests.load(Relaxed))
                .row("responses", fs.responses.load(Relaxed))
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
        #[expect(
            clippy::expect_used,
            reason = "propagate a worker panic rather than pretend a clean shutdown happened over its corpse"
        )]
        let shards: Vec<Shard> = self
            .workers
            .drain(..)
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

    /// A crash inside `shutdown` after `write_snapshot` anchored the
    /// snapshot, before the clean flag: the open takes the scan path,
    /// which hands the snapshot's chunk back to the pool. The anchor must
    /// go with it, or the next `write_snapshot` frees that chunk's block 0
    /// again after the chunk was reused — and a later Put overwrites an
    /// acked value.
    #[test]
    fn a_snapshot_anchor_left_by_a_crash_never_frees_a_live_block() {
        let cfg = Config::builder()
            .pm_bytes(64 << 20)
            .dram_bytes(8 << 20)
            .ncores(2)
            .group_size(2)
            .crash_tracking(true)
            .build()
            .unwrap();
        let store = FlatStore::create(cfg.clone()).unwrap();
        pipelined_puts(&store, 0..500, |i| i, |i| value_bytes(i, 64));
        // The first half of `shutdown`, then the crash.
        assert!(store.write_snapshot(&store.snapshot_payload()));
        let pm = store.kill();
        pm.simulate_crash();

        let store = FlatStore::open(pm, cfg.clone()).unwrap();
        assert_eq!(store.recovery.map(|r| r.path), Some(3));
        let key = |i: u64| 10_000 + i;
        pipelined_puts(&store, 0..3_000, key, |i| value_bytes(i, 1_000));
        let pm = store.shutdown().unwrap();
        let store = FlatStore::open(pm, cfg).unwrap();
        pipelined_puts(&store, 3_000..6_000, key, |i| value_bytes(i, 1_000));
        for i in 0..500 {
            assert_eq!(store.get(i).unwrap(), Some(value_bytes(i, 64)), "key {i}");
        }
        for i in 0..6_000 {
            let (k, v) = (key(i), store.get(key(i)).unwrap());
            assert!(v == Some(value_bytes(i, 1_000)), "key {k}");
        }
    }

    /// A clean image whose snapshot lies about a count or its own length
    /// opens as `BadImage`, without a panic and with nothing consumed:
    /// once the word is restored, the image opens by path 1 with every
    /// key.
    #[test]
    fn a_corrupt_snapshot_is_a_bad_image() {
        let cfg = Config::builder()
            .pm_bytes(64 << 20)
            .dram_bytes(8 << 20)
            .ncores(2)
            .group_size(2)
            .build()
            .unwrap();
        let store = FlatStore::create(cfg.clone()).unwrap();
        pipelined_puts(&store, 0..500, |i| i, |i| value_bytes(i, 64));
        assert!(store.delete(7).unwrap());
        let pm = store.shutdown().unwrap();
        let sb = Superblock::new(&pm);
        let (addr, len) = sb.snapshot().unwrap();
        // Core 0's section, then core 1's key count.
        let n_idx0 = pm.read_u64(addr + 8);
        let n_del0 = pm.read_u64(addr + 16 + n_idx0 * 16);
        let n_idx1_at = addr + 24 + n_idx0 * 16 + n_del0 * 24;
        let n_idx1 = pm.read_u64(n_idx1_at);
        assert_eq!(n_idx0 + n_idx1, 499);

        for (at, word) in [
            (n_idx1_at, n_idx1 + 1),
            (n_idx1_at, u64::MAX),
            (addr + 8, 1 << 60),
        ] {
            pm.write_u64(at, word);
            let opened = FlatStore::open(Arc::clone(&pm), cfg.clone());
            assert!(
                matches!(opened, Err(StoreError::BadImage(_))),
                "count {word}"
            );
        }
        pm.write_u64(addr + 8, n_idx0);
        pm.write_u64(n_idx1_at, n_idx1);
        for bad_len in [len - 8, len + 8, pm.len() as u64] {
            sb.set_snapshot(addr, bad_len);
            let opened = FlatStore::open(Arc::clone(&pm), cfg.clone());
            assert!(
                matches!(opened, Err(StoreError::BadImage(_))),
                "length {bad_len}"
            );
        }
        sb.set_snapshot(addr, len);

        let store = FlatStore::open(pm, cfg).unwrap();
        assert_eq!(store.recovery.map(|r| r.path), Some(1));
        assert_eq!(store.len(), 499);
        assert_eq!(store.get(7).unwrap(), None);
        for i in (0..500).filter(|&i| i != 7) {
            assert_eq!(store.get(i).unwrap(), Some(value_bytes(i, 64)), "key {i}");
        }
    }

    /// A clean shutdown of a full pool finds no chunk for the snapshot:
    /// the reopen scans the log over the bitmaps the shutdown persisted,
    /// and every acked key reads back.
    #[test]
    fn a_clean_shutdown_of_a_full_pool_reopens_by_scan() {
        let cfg = Config::builder()
            .pm_bytes(20 << 20)
            .dram_bytes(8 << 20)
            .ncores(2)
            .group_size(2)
            .build()
            .unwrap();
        let store = FlatStore::create(cfg.clone()).unwrap();
        let mut session = store.session().unwrap();
        let mut keys = HashMap::new();
        let mut acked = Vec::new();
        let mut full = false;
        let mut next = 0u64;
        while !full || !keys.is_empty() {
            if !full {
                let ticket = session.submit(Op::put(next, value_bytes(next, 200)));
                keys.insert(ticket.unwrap(), next);
                next += 1;
            }
            let done = if full {
                session.wait_all().unwrap()
            } else {
                session.poll_completions()
            };
            for (ticket, reply) in done {
                let k = keys.remove(&ticket).unwrap();
                match reply {
                    Reply::Put(Ok(())) => acked.push(k),
                    Reply::Put(Err(StoreError::OutOfSpace)) => full = true,
                    other => panic!("put {k}: {other:?}"),
                }
            }
        }
        drop(session);
        assert_eq!(store.free_chunks(), 0);
        assert!(acked.len() > 10_000, "only {} puts acked", acked.len());

        let pm = store.shutdown().unwrap();
        let store = FlatStore::open(pm, cfg).unwrap();
        assert_eq!(store.recovery.map(|r| r.path), Some(3));
        assert_eq!(store.len(), acked.len());
        let mut session = store.session().unwrap();
        for k in acked {
            keys.insert(session.submit(Op::Get { key: k }).unwrap(), k);
        }
        for (ticket, reply) in session.wait_all().unwrap() {
            let k = keys[&ticket];
            let want = Reply::Get(Ok(Some(value_bytes(k, 200))));
            assert!(reply == want, "key {k}");
        }
    }

    /// Writes 100 k keys on two cores, reopens the store through `reopen`
    /// and checks that recovery took `path`, built each core's CCEH at the
    /// depth its keys bulk-load at without a split, and did not split.
    fn reopen_100k_keys_without_a_split(
        path: u64,
        reopen: impl FnOnce(FlatStore) -> Arc<PmRegion>,
    ) {
        let cfg = Config::builder()
            .pm_bytes(64 << 20)
            .dram_bytes(16 << 20)
            .ncores(2)
            .group_size(2)
            .crash_tracking(path == 3)
            .build()
            .unwrap();
        let n = 100_000u64;
        let store = FlatStore::create(cfg.clone()).unwrap();
        pipelined_puts(&store, 0..n, |i| i, |i| value_bytes(i, 8));
        let store = FlatStore::open(reopen(store), cfg.clone()).unwrap();
        assert_eq!(store.recovery.map(|r| r.path), Some(path));
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

    /// A clean shutdown → open sizes the index from the snapshot's
    /// per-core counts and bulk-loads it: no CCEH split.
    #[test]
    fn clean_reopen_of_100k_keys_bulk_loads_without_a_split() {
        reopen_100k_keys_without_a_split(1, |store| store.shutdown().unwrap());
    }

    /// A crash → open sizes each owner lane's index from the keys it won
    /// and bulk-loads it: no CCEH split either.
    #[test]
    fn crash_reopen_of_100k_keys_bulk_loads_without_a_split() {
        reopen_100k_keys_without_a_split(3, |store| {
            let pm = store.kill();
            pm.simulate_crash();
            pm
        });
    }
}
