//! The FlatStore discrete-event simulation: N simulated server cores run
//! the *real* OpLog/allocator/index code; every PM event the code emits is
//! charged to virtual time through the Optane device model, and the
//! horizontal-batching protocol (lock, stealing, pipelining — paper §3.3)
//! is modeled at event granularity.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use indexes::{Cceh, FastFair, Index, Mode};
use masstree::Masstree;
use obs::{Event, EventRing, Sampler, Span, SpanCtx, Stage, StageSet};
use oplog::{newer, LogEntry, LogOp, OpLog, Payload, INLINE_MAX, VERSION_MASK};
use pmalloc::{ChunkManager, CoreAllocator, CHUNK_SIZE};
use pmem::cost::Device;
use pmem::{PmAddr, PmRegion};
use workloads::{EtcWorkload, Op};

use crate::common::{route, Charger, ClientPool, Gen, Mailbox, Nic, SimReq};
use crate::metrics::{Metrics, Summary};
use crate::params::{ExecModel, SimConfig, SimIndex, WorkloadSpec};

const ADDR_BITS: u32 = 42;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;
/// Core stall before retrying when the PM pool is momentarily exhausted.
const RETRY_NS: f64 = 20_000.0;
/// Cleaner poll interval.
const CLEANER_POLL_NS: f64 = 20_000.0;
/// Cheap per-read charge for the cleaner's sequential scans.
const GC_SCAN_READ_NS: f64 = 4.0;

#[inline]
fn pack(version: u32, addr: u64) -> u64 {
    ((version as u64 & VERSION_MASK as u64) << ADDR_BITS) | addr
}

#[inline]
fn unpack(v: u64) -> (u32, u64) {
    (
        ((v >> ADDR_BITS) & VERSION_MASK as u64) as u32,
        v & ADDR_MASK,
    )
}

/// FlatStore's volatile index inside the simulation.
enum VIndex {
    Hash(Vec<Cceh>),
    Mass(Masstree),
    Ff(FastFair),
}

impl VIndex {
    fn build(kind: SimIndex, ncores: usize) -> VIndex {
        match kind {
            SimIndex::Hash => {
                let mut v = Vec::with_capacity(ncores);
                for _ in 0..ncores {
                    let dram = Arc::new(PmRegion::new(64 << 20));
                    v.push(
                        Cceh::new(dram, PmAddr(0), 64 << 20, Mode::Volatile, 2)
                            .expect("dram index"),
                    );
                }
                VIndex::Hash(v)
            }
            SimIndex::Masstree => VIndex::Mass(Masstree::new()),
            SimIndex::FastFair => {
                let dram = Arc::new(PmRegion::new(512 << 20));
                VIndex::Ff(
                    FastFair::new(dram, PmAddr(0), 512 << 20, Mode::Volatile).expect("dram tree"),
                )
            }
        }
    }

    fn get(&self, owner: usize, key: u64) -> Option<u64> {
        match self {
            VIndex::Hash(v) => v[owner].get(key),
            VIndex::Mass(t) => t.get(key),
            VIndex::Ff(t) => t.get(key),
        }
    }

    fn insert(&mut self, owner: usize, key: u64, val: u64) -> Option<u64> {
        match self {
            VIndex::Hash(v) => v[owner].insert(key, val).expect("index space"),
            VIndex::Mass(t) => t.insert(key, val),
            VIndex::Ff(t) => t.insert(key, val).expect("index space"),
        }
    }

    fn cas(&mut self, owner: usize, key: u64, old: u64, new: u64) -> bool {
        match self {
            VIndex::Hash(v) => v[owner].cas(key, old, new),
            VIndex::Mass(t) => t.cas(key, old, new),
            VIndex::Ff(t) => t.cas(key, old, new),
        }
    }

    fn op_ns(&self, cpu: &crate::params::CpuParams) -> f64 {
        match self {
            VIndex::Hash(_) => cpu.hash_op_ns,
            VIndex::Mass(_) => cpu.tree_op_ns,
            // A volatile FAST&FAIR is less multicore-tuned than Masstree
            // (paper §5.1: FlatStore-M > FlatStore-FF).
            VIndex::Ff(_) => cpu.tree_op_ns * 1.3,
        }
    }
}

struct PostSlot {
    core: usize,
    req: SimReq,
    version: u32,
    entry: LogEntry,
    post_time: f64,
    done: Option<(f64, u64)>,
}

struct GroupSim {
    pool: Vec<usize>,
    lock_free_at: f64,
}

struct CoreSim {
    clock: f64,
    mailbox: Mailbox<SimReq>,
    log: OpLog,
    alloc: CoreAllocator,
    /// Keys with in-flight Puts: latest assigned version + in-flight count.
    /// Later Puts to the same key pipeline (versions order them); only
    /// reads are delayed by the conflict queue (paper §3.3 "Discussion").
    pending: HashMap<u64, (u32, u32)>,
    deferred: VecDeque<SimReq>,
    inflight: Vec<usize>,
    group: usize,
    /// Per-core DRAM read cache (the engine's `cache.rs` without its
    /// admission policy): a hit skips the cold PM value read(s); a
    /// completed Put invalidates its key before the response is scheduled.
    cache: SimCache,
}

/// Key-only CLOCK cache for the DES: the engine caches value bytes, but
/// virtual time only needs membership — what matters is whether the Get
/// pays `pm_read_cold_ns` or `cache_hit_ns`. Unlike the engine's cache,
/// it admits every miss: there is no frequency sketch here.
struct SimCache {
    /// Capacity in entries; 0 disables the cache entirely.
    cap: usize,
    hand: usize,
    /// `(key, referenced)` CLOCK ring.
    slots: Vec<(u64, bool)>,
    map: HashMap<u64, usize>,
}

impl SimCache {
    fn new(cap: usize) -> SimCache {
        SimCache {
            cap,
            hand: 0,
            slots: Vec::new(),
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: u64) -> bool {
        match self.map.get(&key) {
            Some(&i) => {
                self.slots[i].1 = true;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, key: u64) {
        if self.cap == 0 || self.map.contains_key(&key) {
            return;
        }
        while self.slots.len() >= self.cap {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].1 {
                self.slots[self.hand].1 = false;
                self.hand += 1;
            } else {
                let victim = self.slots[self.hand].0;
                self.remove(victim);
            }
        }
        self.slots.push((key, true));
        self.map.insert(key, self.slots.len() - 1);
    }

    fn remove(&mut self, key: u64) {
        let Some(i) = self.map.remove(&key) else {
            return;
        };
        self.slots.swap_remove(i);
        if let Some(&(moved, _)) = self.slots.get(i) {
            self.map.insert(moved, i);
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
    }
}

struct CleanerSim {
    clock: f64,
}

/// Per-chunk liveness accounting (shared across the cores' logs, since the
/// leader persists other cores' entries into its own log).
#[derive(Default)]
struct Usage {
    map: HashMap<u64, (u32, u32)>, // chunk base -> (total, dead)
}

impl Usage {
    fn appended(&mut self, chunk: PmAddr, n: u32) {
        self.map.entry(chunk.offset()).or_default().0 += n;
    }

    fn dead(&mut self, entry_addr: u64) {
        let chunk = OpLog::chunk_of(PmAddr(entry_addr));
        if let Some(e) = self.map.get_mut(&chunk.offset()) {
            e.1 = (e.1 + 1).min(e.0);
        }
    }

    fn live_ratio(&self, chunk: PmAddr) -> Option<f64> {
        self.map
            .get(&chunk.offset())
            .and_then(|&(total, dead)| (total > 0).then(|| (total - dead) as f64 / total as f64))
    }

    fn cleaned(&mut self, victim: PmAddr, target: Option<(PmAddr, u32)>) {
        self.map.remove(&victim.offset());
        if let Some((t, live)) = target {
            self.map.entry(t.offset()).or_default().0 += live;
        }
    }
}

/// The FlatStore simulation (built by [`run_flatstore`](crate::run_flatstore)).
pub(crate) struct FlatSim {
    cfg: SimConfig,
    model: ExecModel,
    pm: Arc<PmRegion>,
    mgr: Arc<ChunkManager>,
    charger: Charger,
    index: VIndex,
    cores: Vec<CoreSim>,
    groups: Vec<GroupSim>,
    cleaners: Vec<CleanerSim>,
    posts: Vec<PostSlot>,
    clients: ClientPool,
    usage: Usage,
    nic: Nic,
    batches: u64,
    batched_entries: u64,
    ship_batches: u64,
    ship_msgs: u64,
    /// Cold PM media reads issued on the Get path (entry fetch, plus one
    /// more for pointer payloads). Counted whether or not the cache model
    /// is on, so cache-on vs cache-off runs compare like for like.
    pm_value_reads: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Virtual-time trace events, on when `cfg.trace_events > 0`. The
    /// simulated core id doubles as the trace `tid`; cleaners render on
    /// tracks `ncores + group`.
    events: Option<EventRing>,
    /// 1-in-N causal-trace sampling (`cfg.trace_sample`); decided when a
    /// request is first polled from its core's mailbox.
    sampler: Sampler,
    /// In-flight sampled spans, keyed by `SimReq::trace`. Stamps are
    /// virtual nanoseconds; observation only, never charged to a clock.
    spans: HashMap<u64, Span>,
    /// Trace-id allocator (deterministic: DES poll order).
    next_trace: u64,
    /// Virtual-time stage breakdown, same schema as the engine's.
    breakdown: StageSet,
}

impl FlatSim {
    pub fn new(cfg: SimConfig, model: ExecModel, kind: SimIndex) -> FlatSim {
        let pool_bytes = cfg.pool_chunks as usize * CHUNK_SIZE as usize;
        // First chunk-sized slab holds the per-core log descriptors.
        let pm = Arc::new(PmRegion::new(pool_bytes + CHUNK_SIZE as usize));
        let mgr = Arc::new(ChunkManager::format(
            Arc::clone(&pm),
            PmAddr(CHUNK_SIZE),
            cfg.pool_chunks,
        ));
        let ngroups = cfg.ncores.div_ceil(cfg.group_size);
        let mut cores = Vec::with_capacity(cfg.ncores);
        if cfg.ablate.eager_alloc {
            mgr.set_eager_persist(true);
        }
        for c in 0..cfg.ncores {
            let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(c as u64 * 64))
                .expect("pool too small for per-core logs");
            if cfg.ablate.no_padding {
                log.set_batch_padding(false);
            }
            cores.push(CoreSim {
                clock: f64::INFINITY,
                mailbox: Mailbox::new(),
                log,
                alloc: CoreAllocator::new(Arc::clone(&mgr), c as u32),
                pending: HashMap::new(),
                deferred: VecDeque::new(),
                inflight: Vec::new(),
                group: c / cfg.group_size,
                cache: SimCache::new(cfg.read_cache_entries),
            });
        }
        let groups = (0..ngroups)
            .map(|_| GroupSim {
                pool: Vec::new(),
                lock_free_at: 0.0,
            })
            .collect();
        let cleaners = (0..ngroups)
            .map(|_| CleanerSim {
                clock: if cfg.gc {
                    CLEANER_POLL_NS
                } else {
                    f64::INFINITY
                },
            })
            .collect();
        let device = Device::new(cfg.cost.clone());
        let charger = Charger::new(device, cfg.cpu.clone(), cfg.ncores + ngroups);
        let index = VIndex::build(kind, cfg.ncores);
        let gen = Gen::new(cfg.workload, cfg.keyspace, cfg.seed);
        let metrics = Metrics::new(cfg.warmup, cfg.window_ns);
        let clients = ClientPool::new(
            cfg.clients,
            cfg.client_batch,
            cfg.ncores,
            gen,
            cfg.net.clone(),
            metrics,
            cfg.warmup + cfg.ops,
        );
        FlatSim {
            model,
            pm,
            mgr,
            charger,
            index,
            cores,
            groups,
            cleaners,
            posts: Vec::new(),
            clients,
            usage: Usage::default(),
            nic: Nic::new(cfg.net.nic_ns_per_msg),
            batches: 0,
            batched_entries: 0,
            ship_batches: 0,
            ship_msgs: 0,
            pm_value_reads: 0,
            cache_hits: 0,
            cache_misses: 0,
            events: (cfg.trace_events > 0).then(|| EventRing::new(cfg.trace_events)),
            sampler: Sampler::new(cfg.trace_sample),
            spans: HashMap::new(),
            next_trace: 0,
            breakdown: StageSet::new(),
            cfg,
        }
    }

    fn value_len(&self, key: u64) -> usize {
        match self.cfg.workload {
            WorkloadSpec::Ycsb { value_len, .. } => value_len,
            WorkloadSpec::Etc { .. } => EtcWorkload::value_len(key, self.cfg.keyspace),
        }
    }

    /// Loads every key once, without charging simulated time.
    fn prefill(&mut self) {
        let ncores = self.cfg.ncores;
        let mut batches: Vec<Vec<LogEntry>> = vec![Vec::new(); ncores];
        for key in 0..self.cfg.keyspace {
            let len = self.value_len(key);
            let owner = route(key, ncores);
            let entry = if len <= INLINE_MAX {
                LogEntry::put_inline(key, 1, vec![0xAB; len.max(1)]).expect("inline")
            } else {
                let block = self.cores[owner]
                    .alloc
                    .alloc(8 + len as u64)
                    .expect("prefill space");
                self.pm.write_u64(block, len as u64);
                self.pm.fill(block + 8, len, 0xAB);
                self.pm.persist(block, 8 + len);
                LogEntry::put_ptr(key, 1, block)
            };
            batches[owner].push(entry);
            if batches[owner].len() >= 128 {
                self.flush_prefill(owner, &mut batches[owner]);
            }
        }
        for (owner, batch) in batches.iter_mut().enumerate() {
            let mut b = std::mem::take(batch);
            self.flush_prefill(owner, &mut b);
        }
    }

    fn flush_prefill(&mut self, owner: usize, batch: &mut Vec<LogEntry>) {
        if batch.is_empty() {
            return;
        }
        let addrs = self.cores[owner]
            .log
            .append_batch(batch)
            .expect("prefill log space");
        self.usage
            .appended(OpLog::chunk_of(addrs[0]), addrs.len() as u32);
        for (e, a) in batch.iter().zip(&addrs) {
            self.index.insert(owner, e.key, pack(1, a.offset()));
        }
        batch.clear();
    }

    /// Runs the simulation to completion and returns the summary.
    pub fn run(mut self) -> Summary {
        if self.cfg.prefill {
            self.prefill();
        }
        self.pm.set_trace(true);
        let _ = self.pm.take_events();

        {
            let (clients, cores) = (&mut self.clients, &mut self.cores);
            clients.start(|c, at, req| {
                if cores[c].clock.is_infinite() {
                    cores[c].clock = at;
                }
                cores[c].mailbox.push(at, req);
            });
        }

        while !self.clients.done() {
            // Pick the actor with the smallest virtual clock.
            let mut best = f64::INFINITY;
            let mut who = usize::MAX;
            for (i, c) in self.cores.iter().enumerate() {
                if c.clock < best {
                    best = c.clock;
                    who = i;
                }
            }
            let mut cleaner = usize::MAX;
            for (g, cl) in self.cleaners.iter().enumerate() {
                if cl.clock < best {
                    best = cl.clock;
                    cleaner = g;
                    who = usize::MAX;
                }
            }
            if best.is_infinite() {
                panic!(
                    "simulation stalled: {} completed of {}",
                    self.clients.metrics.completed,
                    self.cfg.warmup + self.cfg.ops
                );
            }
            if who != usize::MAX {
                self.step_core(who);
            } else {
                self.step_cleaner(cleaner);
            }
        }
        let device = self.charger.device.stats();
        let avg_batch = if self.batches == 0 {
            0.0
        } else {
            self.batched_entries as f64 / self.batches as f64
        };
        let ring = self.events.take();
        let mut summary = self.clients.metrics.summary(device, avg_batch);
        summary.persistency = self.charger.persistency();
        summary.ship_batches = self.ship_batches;
        summary.ship_msgs = self.ship_msgs;
        summary.pm_value_reads = self.pm_value_reads;
        summary.cache_hits = self.cache_hits;
        summary.cache_misses = self.cache_misses;
        if let Some(ring) = ring {
            summary.events_dropped = ring.dropped();
            summary.events = ring.into_events();
        }
        if self.cfg.trace_sample > 0 {
            summary.breakdown = Some(Arc::new(self.breakdown));
        }
        summary
    }

    fn step_core(&mut self, i: usize) {
        let mut t = self.cores[i].clock;
        let mut staged: Vec<usize> = Vec::new();
        let mut pending_fence = false;

        // Naive HB strictly orders the phases: a core with in-flight posts
        // does not poll new requests (Figure 4c).
        let blocked = self.model == ExecModel::NaiveHb && !self.cores[i].inflight.is_empty();

        // ---- Poll the message buffer (FlatRPC) ----
        if !blocked {
            // Small per-step drain budget keeps virtual clocks close
            // together (device causality) and phase interleaving fine-
            // grained, as in the real engine loop.
            let budget = if self.model == ExecModel::NonBatch {
                1
            } else {
                4
            };
            let mut taken = 0;
            // Deferred requests whose conflicts cleared go first.
            let deferred: Vec<SimReq> = {
                let core = &mut self.cores[i];
                let n = core.deferred.len();
                let mut ready = Vec::new();
                for _ in 0..n {
                    let req = core.deferred.pop_front().expect("len");
                    if core.pending.contains_key(&req.op.key()) {
                        core.deferred.push_back(req);
                    } else {
                        ready.push(req);
                    }
                }
                ready
            };
            for req in deferred {
                t = self.admit(i, t, req, &mut staged, &mut pending_fence);
            }
            while taken < budget {
                let Some((_, mut req)) = self.cores[i].mailbox.pop_arrived(t) else {
                    break;
                };
                taken += 1;
                let polled_at = t;
                t += self.cfg.cpu.per_msg_ns;
                // Causal tracing (mirrors the engine's Envelope spans):
                // sampled on first poll; retries keep their span. Stamps
                // are pure observations of the virtual clock.
                if req.trace == 0 && self.sampler.hit() {
                    self.next_trace += 1;
                    req.trace = self.next_trace;
                    let mut span = Span::new(SpanCtx {
                        trace_id: req.trace,
                        op_seq: req.trace,
                        origin_tsc: req.send as u64,
                    });
                    span.core = i as u32;
                    span.stamp(Stage::ClientEnqueue, req.send as u64);
                    span.stamp(Stage::RingTransit, polled_at as u64);
                    span.stamp(Stage::ShardPoll, t as u64);
                    self.spans.insert(req.trace, span);
                }
                // Only reads must wait for in-flight writes of their key;
                // writes pipeline through versioning.
                if !matches!(req.op, Op::Put { .. })
                    && self.cores[i].pending.contains_key(&req.op.key())
                {
                    self.cores[i].deferred.push_back(req);
                    continue;
                }
                t = self.admit(i, t, req, &mut staged, &mut pending_fence);
            }
        }

        // ---- Close the l-persist phase: one fence for all large records ----
        if pending_fence {
            self.pm.fence();
            let ev = self.pm.take_events();
            t = self
                .charger
                .charge(i, t, &ev, self.cfg.cpu.pm_read_cached_ns);
        }

        // ---- Publish the staged entries ----
        let posted = !staged.is_empty();
        match self.model {
            ExecModel::PipelinedHb | ExecModel::NaiveHb => {
                let g = self.cores[i].group;
                for id in staged {
                    t += self.cfg.cpu.post_ns;
                    self.posts[id].post_time = t;
                    self.groups[g].pool.push(id);
                    self.cores[i].inflight.push(id);
                }
            }
            ExecModel::Vertical | ExecModel::NonBatch => {
                for &id in &staged {
                    self.posts[id].post_time = t;
                    self.cores[i].inflight.push(id);
                }
                if !staged.is_empty() {
                    t = self.persist_ids(i, t, staged);
                }
            }
        }

        // ---- Leader election + g-persist ----
        // A core competes for the lock right after posting (paper Fig. 5
        // step 3); otherwise it only steps in as a fallback when its own
        // entries sit uncollected — this keeps leadership with the cores
        // that produce work instead of convoying on the slowest one.
        let must_lead = posted
            || self.cores[i]
                .inflight
                .iter()
                .any(|&id| self.posts[id].done.is_none());
        if must_lead {
            t = self.try_lead(i, t);
        }

        // ---- Volatile phase for completed posts ----
        t = self.complete(i, t);

        // ---- Schedule the next wake-up ----
        self.cores[i].clock = self.next_wake(i, t);
    }

    /// Admits one request at time `t`: Gets are served inline; Puts run
    /// their l-persist phase and are staged for posting.
    fn admit(
        &mut self,
        i: usize,
        mut t: f64,
        req: SimReq,
        staged: &mut Vec<usize>,
        pending_fence: &mut bool,
    ) -> f64 {
        // KeyGate closes at admission: for a request that sat in the
        // deferred FIFO the delta is the whole per-key conflict wait.
        self.stamp(req.trace, Stage::KeyGate, t);
        match req.op {
            Op::Get { key } => {
                t += self.index.op_ns(&self.cfg.cpu);
                if let Some(packed) = self.index.get(i, key) {
                    if self.cores[i].cache.get(key) {
                        // DRAM hit: the value never touches PM media.
                        self.cache_hits += 1;
                        t += self.cfg.cpu.cache_hit_ns;
                    } else {
                        if self.cfg.read_cache_entries > 0 {
                            self.cache_misses += 1;
                        }
                        let (_, addr) = unpack(packed);
                        // One cold PM read fetches the entry (inline values
                        // ride in the same lines); pointer payloads cost a
                        // second cold read for the record block.
                        let decoded = LogEntry::decode(&self.pm, PmAddr(addr));
                        let ev = self.pm.take_events();
                        t = self.charger.charge(i, t, &ev, 0.0);
                        t += self.cfg.cpu.pm_read_cold_ns;
                        self.pm_value_reads += 1;
                        if let Ok(Some((e, _))) = decoded {
                            if matches!(e.payload, Payload::Ptr(_)) {
                                t += self.cfg.cpu.pm_read_cold_ns;
                                self.pm_value_reads += 1;
                            }
                        }
                        self.cores[i].cache.insert(key);
                    }
                }
                self.stamp(req.trace, Stage::Execute, t);
                self.respond(&req, t);
                t
            }
            Op::Put { key, value_len } => {
                t += self.index.op_ns(&self.cfg.cpu);
                let version = match self.cores[i].pending.get(&key) {
                    Some(&(latest, _)) => latest.wrapping_add(1) & VERSION_MASK,
                    None => match self.index.get(i, key) {
                        Some(p) => unpack(p).0.wrapping_add(1) & VERSION_MASK,
                        None => 1,
                    },
                };
                // Fat-entry ablation: emulate logging raw index updates by
                // inflating every entry to a 64-byte record.
                let inline_len = if self.cfg.ablate.fat_entries {
                    value_len.clamp(52, INLINE_MAX)
                } else {
                    value_len
                };
                let entry = if value_len <= INLINE_MAX {
                    LogEntry::put_inline(key, version, vec![0xAB; inline_len.max(1)])
                        .expect("inline size")
                } else {
                    t += self.cfg.cpu.alloc_ns;
                    let block = match self.cores[i].alloc.alloc(8 + value_len as u64) {
                        Ok(b) => b,
                        Err(_) => {
                            // Pool exhausted: retry once the cleaner makes
                            // space.
                            assert!(
                                self.cfg.gc,
                                "PM pool exhausted; enlarge pool_chunks or enable gc"
                            );
                            self.cores[i].mailbox.push(t + RETRY_NS, req);
                            return t;
                        }
                    };
                    self.pm.write_u64(block, value_len as u64);
                    self.pm.fill(block + 8, value_len, 0xAB);
                    self.pm.flush(block, 8 + value_len);
                    let ev = self.pm.take_events();
                    t = self
                        .charger
                        .charge(i, t, &ev, self.cfg.cpu.pm_read_cached_ns);
                    *pending_fence = true;
                    LogEntry::put_ptr(key, version, block)
                };
                t += self.cfg.cpu.entry_build_ns;
                self.stamp(req.trace, Stage::Execute, t);
                let slot = self.cores[i].pending.entry(key).or_insert((0, 0));
                slot.0 = version;
                slot.1 += 1;
                let id = self.posts.len();
                self.posts.push(PostSlot {
                    core: i,
                    req,
                    version,
                    entry,
                    post_time: t,
                    done: None,
                });
                staged.push(id);
                t
            }
            Op::Delete { key } => {
                // The paper's evaluation workloads have no deletes; treat
                // as a Get miss (kept for API completeness).
                let _ = key;
                self.stamp(req.trace, Stage::Execute, t);
                self.respond(&req, t);
                t
            }
        }
    }

    /// Appends the posts in `ids` to core `i`'s log and marks them done.
    fn persist_ids(&mut self, i: usize, mut t: f64, ids: Vec<usize>) -> f64 {
        let flush_start = t;
        let entries: Vec<LogEntry> = ids.iter().map(|&id| self.posts[id].entry.clone()).collect();
        match self.cores[i].log.append_batch(&entries) {
            Ok(addrs) => {
                let ev = self.pm.take_events();
                t = self
                    .charger
                    .charge(i, t, &ev, self.cfg.cpu.pm_read_cached_ns);
                self.usage
                    .appended(OpLog::chunk_of(addrs[0]), addrs.len() as u32);
                // Log shipping (flatrepl): the whole batch travels to each
                // replica as ONE envelope, and the ops only become
                // completable once the slowest replica's durable-apply ack
                // returns. The leader does NOT wait — shipping pipelines
                // like the early lock release — so only the *completion*
                // time moves, by one NIC hop pair per replica plus the
                // backup's own persist.
                let acked_t = if self.cfg.replicas > 0 {
                    let msgs = 2.0 * self.cfg.replicas as f64;
                    let nic = self.nic.delay(t, msgs);
                    self.ship_batches += 1;
                    self.ship_msgs += msgs as u64;
                    if let Some(events) = self.events.as_mut() {
                        events.push(
                            Event::instant("ship", "repl", i as u32, t as u64)
                                .arg("entries", ids.len() as u64),
                        );
                    }
                    t + nic + 2.0 * self.cfg.net.one_way_ns + self.cfg.repl_persist_ns
                } else {
                    t
                };
                for (&id, a) in ids.iter().zip(&addrs) {
                    self.posts[id].done = Some((acked_t, a.offset()));
                    let owner = self.posts[id].core;
                    if self.cores[owner].clock.is_infinite() {
                        self.cores[owner].clock = t;
                    }
                    let trace = self.posts[id].req.trace;
                    if trace != 0 {
                        // Leader-side stamps, exactly the engine's hand-off:
                        // collect → persist → ship → (later) ack gate.
                        self.stamp(trace, Stage::BatchJoin, flush_start);
                        self.stamp(trace, Stage::LeaderPersist, t);
                        if self.cfg.replicas > 0 {
                            self.stamp(trace, Stage::ReplShip, t);
                            self.stamp(trace, Stage::ReplAckWait, acked_t);
                        }
                    }
                }
                if ids.iter().any(|&id| self.posts[id].req.trace != 0) {
                    self.breakdown
                        .record_batch((t - flush_start).max(0.0) as u64, ids.len() as u64);
                }
                self.batches += 1;
                self.batched_entries += ids.len() as u64;
                let stolen = ids.iter().filter(|&&id| self.posts[id].core != i).count();
                if let Some(events) = self.events.as_mut() {
                    events.push(
                        Event::span("batch_flush", "hb", i as u32, flush_start as u64, t as u64)
                            .arg("entries", ids.len() as u64)
                            .arg("stolen", stolen as u64),
                    );
                }
            }
            Err(_) => {
                // Out of chunks: return the posts to the pool and retry
                // after the cleaner runs.
                assert!(
                    self.cfg.gc,
                    "PM pool exhausted; enlarge pool_chunks or enable gc"
                );
                let g = self.cores[i].group;
                match self.model {
                    ExecModel::PipelinedHb | ExecModel::NaiveHb => {
                        self.groups[g].pool.extend(ids);
                    }
                    _ => {
                        // Vertical/NonBatch retry from the same core.
                        for id in ids {
                            self.cores[i].inflight.retain(|&x| x != id);
                            let req = self.posts[id].req;
                            let key = req.op.key();
                            if let Some(slot) = self.cores[i].pending.get_mut(&key) {
                                slot.1 -= 1;
                                if slot.1 == 0 {
                                    self.cores[i].pending.remove(&key);
                                }
                            }
                            self.cores[i].mailbox.push(t + RETRY_NS, req);
                        }
                    }
                }
                t += RETRY_NS;
            }
        }
        t
    }

    fn try_lead(&mut self, i: usize, mut t: f64) -> f64 {
        if !matches!(self.model, ExecModel::PipelinedHb | ExecModel::NaiveHb) {
            return t;
        }
        let g = self.cores[i].group;
        if self.groups[g].pool.is_empty() || self.groups[g].lock_free_at > t {
            return t;
        }
        let lock_start = t;
        t += self.cfg.cpu.lock_ns;
        let mut ids = Vec::new();
        {
            let posts = &self.posts;
            self.groups[g].pool.retain(|&id| {
                if posts[id].post_time <= t {
                    ids.push(id);
                    false
                } else {
                    true
                }
            });
        }
        t += ids.len() as f64 * self.cfg.cpu.collect_per_entry_ns;
        let stolen = ids.iter().filter(|&&id| self.posts[id].core != i).count();
        if stolen > 0 {
            if let Some(events) = self.events.as_mut() {
                events.push(
                    Event::instant("steal", "hb", i as u32, t as u64)
                        .arg("stolen", stolen as u64)
                        .arg("collected", ids.len() as u64),
                );
            }
        }
        if self.model == ExecModel::PipelinedHb {
            // Early release: the next leader can collect while we flush.
            self.groups[g].lock_free_at = t;
            if let Some(ring) = self.events.as_mut() {
                ring.push(
                    Event::span("group_lock", "hb", i as u32, lock_start as u64, t as u64)
                        .arg("collected", ids.len() as u64),
                );
            }
        }
        if !ids.is_empty() {
            t = self.persist_ids(i, t, ids);
        }
        if self.model == ExecModel::NaiveHb {
            self.groups[g].lock_free_at = t;
            if let Some(ring) = self.events.as_mut() {
                ring.push(Event::span(
                    "group_lock",
                    "hb",
                    i as u32,
                    lock_start as u64,
                    t as u64,
                ));
            }
        }
        t
    }

    /// Volatile phase: index update, old-state reclamation, response.
    fn complete(&mut self, i: usize, mut t: f64) -> f64 {
        let mut j = 0;
        while j < self.cores[i].inflight.len() {
            let id = self.cores[i].inflight[j];
            let Some((done_t, addr)) = self.posts[id].done else {
                j += 1;
                continue;
            };
            // Replicated runs: a persisted-but-unacked op stays in flight —
            // the core keeps serving other requests (shipping is pipelined)
            // and `next_wake` re-arms at the ack time.
            if self.cfg.replicas > 0 && done_t > t {
                j += 1;
                continue;
            }
            self.cores[i].inflight.swap_remove(j);
            t = t.max(done_t);
            t += self.index.op_ns(&self.cfg.cpu);
            let key = self.posts[id].req.op.key();
            let version = self.posts[id].version;
            // Write-through invalidation, mirroring the engine: the cached
            // key is dropped before the response is scheduled, even for
            // superseded Puts (one extra miss, never staleness).
            self.cores[i].cache.remove(key);
            // Pipelined same-key Puts may complete out of order across
            // batches; the newest version wins (exactly the rule recovery
            // and the cleaner apply).
            let newest = self
                .index
                .get(i, key)
                .is_none_or(|cur| newer(version, unpack(cur).0));
            if newest {
                let old = self.index.insert(i, key, pack(version, addr));
                if let Some(old) = old {
                    let (_, old_addr) = unpack(old);
                    self.usage.dead(old_addr);
                    if let Ok(Some((e, _))) = LogEntry::decode(&self.pm, PmAddr(old_addr)) {
                        if let Payload::Ptr(b) = e.payload {
                            t += self.cfg.cpu.alloc_ns;
                            let _ = self.cores[i].alloc.free(b);
                        }
                    }
                    let ev = self.pm.take_events();
                    t = self
                        .charger
                        .charge(i, t, &ev, self.cfg.cpu.pm_read_cached_ns);
                }
            } else {
                // Superseded before it was applied: dead on arrival.
                self.usage.dead(addr);
                if let Payload::Ptr(b) = &self.posts[id].entry.payload {
                    let _ = self.cores[i].alloc.free(*b);
                }
            }
            if let Some(slot) = self.cores[i].pending.get_mut(&key) {
                slot.1 -= 1;
                if slot.1 == 0 {
                    self.cores[i].pending.remove(&key);
                }
            }
            let req = self.posts[id].req;
            if self.cfg.read_cache_entries > 0 {
                self.stamp(req.trace, Stage::CacheInvalidate, t);
            }
            self.respond(&req, t);
        }
        t
    }

    /// Stamps `stage` on the span of trace `trace` (no-op for trace 0 —
    /// one map probe per stage on sampled ops, one branch otherwise).
    fn stamp(&mut self, trace: u64, stage: Stage, at: f64) {
        if trace != 0 {
            if let Some(s) = self.spans.get_mut(&trace) {
                s.stamp(stage, at as u64);
            }
        }
    }

    fn respond(&mut self, req: &SimReq, t: f64) {
        let nic = self.nic.delay(t, 2.0); // request + response messages
        let resp = t + self.cfg.cpu.respond_ns + nic + self.cfg.net.one_way_ns;
        if req.trace != 0 {
            if let Some(mut span) = self.spans.remove(&req.trace) {
                span.stamp(Stage::Delivery, resp as u64);
                self.breakdown.record_span(&span);
            }
        }
        let (clients, cores) = (&mut self.clients, &mut self.cores);
        clients.deliver(req, resp, &mut |c, at, r| {
            if cores[c].clock.is_infinite() {
                cores[c].clock = at;
            }
            cores[c].mailbox.push(at, r);
        });
    }

    /// Earliest future time at which core `i` has something to do.
    fn next_wake(&self, i: usize, t: f64) -> f64 {
        let core = &self.cores[i];
        let mut next = f64::INFINITY;
        if let Some(a) = core.mailbox.next_time() {
            next = next.min(a.max(t));
        }
        for &id in &core.inflight {
            if let Some((dt, _)) = self.posts[id].done {
                next = next.min(dt.max(t));
            }
        }
        let g = core.group;
        let group = &self.groups[g];
        if !group.pool.is_empty() {
            let earliest_post = group
                .pool
                .iter()
                .map(|&id| self.posts[id].post_time)
                .fold(f64::INFINITY, f64::min);
            next = next.min(earliest_post.max(group.lock_free_at).max(t));
        }
        // Something to do *right now* (deferred retries resolved by the
        // above wake conditions anyway).
        if next <= t {
            // Nudge forward to guarantee progress even in degenerate cases.
            return t.max(next) + 1.0;
        }
        next
    }

    fn step_cleaner(&mut self, g: usize) {
        let mut t = self.cleaners[g].clock;
        if self.mgr.free_chunks() >= self.cfg.gc_min_free {
            self.cleaners[g].clock = t + CLEANER_POLL_NS;
            return;
        }
        // Victim: the group's chunk with the lowest live ratio.
        let lo = g * self.cfg.group_size;
        let hi = ((g + 1) * self.cfg.group_size).min(self.cfg.ncores);
        let mut best: Option<(usize, PmAddr, f64)> = None;
        for c in lo..hi {
            let tail = OpLog::chunk_of(self.cores[c].log.tail());
            for &chunk in self.cores[c].log.chunks() {
                if chunk == tail {
                    continue;
                }
                if let Some(r) = self.usage.live_ratio(chunk) {
                    if best.is_none_or(|(_, _, br)| r < br) {
                        best = Some((c, chunk, r));
                    }
                }
            }
        }
        let Some((victim_core, victim, _)) = best else {
            self.cleaners[g].clock = t + CLEANER_POLL_NS;
            return;
        };
        let stream = self.cfg.ncores + g;
        let index = &self.index;
        let ncores = self.cfg.ncores;
        let relocs = match self.cores[victim_core].log.clean_chunk(victim, |e, addr| {
            e.op == LogOp::Put
                && index.get(route(e.key, ncores), e.key) == Some(pack(e.version, addr.offset()))
        }) {
            Ok(r) => r,
            Err(_) => {
                self.cleaners[g].clock = t + CLEANER_POLL_NS;
                return;
            }
        };
        let clean_start = t;
        let ev = self.pm.take_events();
        t = self.charger.charge(stream, t, &ev, GC_SCAN_READ_NS);
        let target = relocs
            .first()
            .map(|r| (OpLog::chunk_of(r.new), relocs.len() as u32));
        self.usage.cleaned(victim, target);
        for r in &relocs {
            t += self.cfg.cpu.gc_cas_ns;
            let owner = route(r.entry.key, ncores);
            let ok = self.index.cas(
                owner,
                r.entry.key,
                pack(r.entry.version, r.old.offset()),
                pack(r.entry.version, r.new.offset()),
            );
            if !ok {
                self.usage.dead(r.new.offset());
            }
        }
        self.mgr
            .return_raw_chunk(victim)
            .expect("victim was reserved");
        if let Some(ring) = self.events.as_mut() {
            ring.push(
                Event::span(
                    "gc_clean",
                    "gc",
                    stream as u32,
                    clean_start as u64,
                    t as u64,
                )
                .arg("relocated", relocs.len() as u64),
            );
        }
        self.clients.metrics.record_gc(t, 1);
        self.cleaners[g].clock = t;
    }
}
