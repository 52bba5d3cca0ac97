//! The per-core server worker: request processing, the three-phase Put
//! (l-persist → g-persist → volatile, paper §3.3), conflict queueing,
//! leader election and log cleaning.
//!
//! Workers poll their per-core FlatRPC request rings (paper §4.3) instead
//! of blocking on a channel: requests arrive as [`FabReq`] envelopes from
//! any attached client, and each core sends its [`FabResp`] envelopes
//! straight back on its own response ring to that client.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use flatrpc::{clock, ClientId, Envelope};
use obs::{Event, FlightRecord, Span, Stage};
use oplog::{
    newer, ChunkUsage, LogEntry, LogError, LogOp, OpLog, Payload, INLINE_MAX, VERSION_MASK,
};
use pmalloc::{ChunkManager, CoreAllocator};
use pmem::{PmAddr, PmRegion};

use crate::batch::{Completion, DeletedTable, EngineStats, Group, Posted, Quarantine, UsageTable};
use crate::cache::ReadCache;
use crate::config::GcConfig;
use crate::error::StoreError;
use crate::flight::FlightRegistry;
use crate::repl::{ReplOp, ReplicationSink};
use crate::request::{FabReq, OpReq, Reply, StoreServerCore};
use crate::value::{pack, read_record, record_size, unpack, write_record};
use crate::vindex::VolatileIndex;

/// Max requests a core drains from its request rings per loop iteration.
const POLL_BATCH: usize = 32;

/// Routes `key` to its owning server core (paper §3.1: clients send
/// requests to the core determined by the keyhash).
#[inline]
pub(crate) fn core_of(key: u64, ncores: usize) -> usize {
    let mut k = key;
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51afd7ed558ccd);
    k ^= k >> 33;
    (k % ncores as u64) as usize
}

enum InflightOp {
    Put {
        key: u64,
        version: u32,
    },
    Delete {
        key: u64,
        version: u32,
        old_block: Option<PmAddr>,
    },
}

struct Inflight {
    completion: Arc<Completion>,
    op: InflightOp,
    client: ClientId,
    seq: u64,
    /// Causal span of a sampled op, carried until the response ships.
    span: Option<Box<Span>>,
}

impl Inflight {
    fn key(&self) -> u64 {
        match self.op {
            InflightOp::Put { key, .. } | InflightOp::Delete { key, .. } => key,
        }
    }
}

/// One server core's state; owned by its worker thread and returned to the
/// engine at shutdown for snapshotting.
pub(crate) struct Shard {
    pub core: usize,
    ncores: usize,
    pm: Arc<PmRegion>,
    mgr: Arc<ChunkManager>,
    pub log: OpLog,
    pub alloc: CoreAllocator,
    index: Arc<VolatileIndex>,
    deleted: Arc<DeletedTable>,
    usage: Arc<UsageTable>,
    quarantine: Arc<Quarantine>,
    group: Arc<Group>,
    slot: usize,
    gc: GcConfig,
    stats: Arc<EngineStats>,
    server: StoreServerCore,
    /// Log-shipping sink: each batch this core leads is shipped as one
    /// message after its local persist, and a completion is withheld from
    /// the client until the sink's acked watermark covers it.
    repl: Option<Arc<dyn ReplicationSink>>,
    /// Hot-value read cache; this core only ever touches its own shard
    /// (keyhash routing), and invalidates a key *before* acking its write.
    cache: Option<Arc<ReadCache>>,
    /// Always-on flight recorder: this core's ring of recent op records.
    flight: Arc<FlightRegistry>,
    /// Crash-test knob (`FLATSTORE_CRASH_TEST_KEY`): a Put to this key
    /// panics the worker mid-operation, exercising the flight-recorder
    /// dump path. Unset in normal operation.
    crash_key: Option<u64>,

    /// Keys with a Delete in flight (these serialize everything).
    conflicts: HashSet<u64>,
    /// Keys with in-flight Puts: latest assigned version + count. Later
    /// Puts to the same key pipeline (versions order them); only reads and
    /// deletes wait (paper §3.3 "Discussion").
    pending_puts: HashMap<u64, (u32, u32)>,
    deferred: VecDeque<(ClientId, FabReq)>,
    /// Count of deferred ops per key: later arrivals for these keys defer
    /// too, keeping per-key dispatch in arrival order (pipelined clients
    /// observe completion order).
    deferred_keys: HashMap<u64, u32>,
    inflight: VecDeque<Inflight>,
    barriers: Vec<(ClientId, u64)>,
    staged: Vec<(Posted, Inflight)>,
    pending_fence: bool,
    draining: bool,
    tick: u64,
}

#[allow(clippy::too_many_arguments)]
impl Shard {
    pub fn new(
        core: usize,
        ncores: usize,
        pm: Arc<PmRegion>,
        mgr: Arc<ChunkManager>,
        log: OpLog,
        alloc: CoreAllocator,
        index: Arc<VolatileIndex>,
        deleted: Arc<DeletedTable>,
        usage: Arc<UsageTable>,
        quarantine: Arc<Quarantine>,
        group: Arc<Group>,
        slot: usize,
        gc: GcConfig,
        stats: Arc<EngineStats>,
        server: StoreServerCore,
        repl: Option<Arc<dyn ReplicationSink>>,
        cache: Option<Arc<ReadCache>>,
        flight: Arc<FlightRegistry>,
    ) -> Shard {
        let crash_key = std::env::var("FLATSTORE_CRASH_TEST_KEY")
            .ok()
            .and_then(|v| v.parse().ok());
        Shard {
            core,
            ncores,
            pm,
            mgr,
            log,
            alloc,
            index,
            deleted,
            usage,
            quarantine,
            group,
            slot,
            gc,
            stats,
            server,
            repl,
            cache,
            flight,
            crash_key,
            conflicts: HashSet::new(),
            pending_puts: HashMap::new(),
            deferred: VecDeque::new(),
            deferred_keys: HashMap::new(),
            inflight: VecDeque::new(),
            barriers: Vec::new(),
            staged: Vec::new(),
            pending_fence: false,
            draining: false,
            tick: 0,
        }
    }

    /// The worker main loop; returns the shard for shutdown serialization.
    pub fn run(mut self) -> Shard {
        let mut idle = 0u32;
        loop {
            let mut did = self.drain_rings();
            did |= self.retry_deferred();
            self.publish_staged();
            did |= self.lead();
            did |= self.process_completions();
            self.maybe_gc();
            self.answer_barriers();

            if self.draining
                && self.quiet()
                && self.barriers.is_empty()
                && !self.server.has_pending_requests()
            {
                break;
            }

            if did {
                idle = 0;
            } else {
                idle += 1;
                if idle < 32 {
                    std::hint::spin_loop();
                } else if idle < 256 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
        self
    }

    fn quiet(&self) -> bool {
        self.inflight.is_empty() && self.deferred.is_empty() && self.staged.is_empty()
    }

    fn respond(&mut self, client: ClientId, seq: u64, body: Reply) {
        self.respond_span(client, seq, body, None);
    }

    /// Responds, handing a sampled op's span back on the response
    /// envelope — the client stamps Delivery when it harvests it.
    fn respond_span(&mut self, client: ClientId, seq: u64, body: Reply, span: Option<Box<Span>>) {
        self.server
            .respond(client, Envelope::new(seq, body).with_span(span));
    }

    /// Records the finished op in this core's flight ring (always on —
    /// unsampled ops leave a record with no stamps) and responds.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        client: ClientId,
        seq: u64,
        kind: &'static str,
        ok: bool,
        detail: String,
        span: Option<Box<Span>>,
        body: Reply,
    ) {
        let (trace_id, origin_ns, stamps) = match &span {
            Some(s) => (s.ctx.trace_id, s.ctx.origin_tsc, s.stamps.clone()),
            None => (0, 0, Vec::new()),
        };
        self.flight.record(
            self.core,
            FlightRecord {
                trace_id,
                op_seq: seq,
                origin_ns,
                core: self.core as u32,
                client: client as u64,
                kind,
                ok,
                detail,
                stamps,
            },
        );
        self.respond_span(client, seq, body, span);
    }

    fn drain_rings(&mut self) -> bool {
        let mut got = false;
        for _ in 0..POLL_BATCH {
            match self.server.poll_stamped() {
                Some((client, env)) => {
                    self.dispatch(client, env);
                    got = true;
                }
                None => break,
            }
        }
        got
    }

    fn dispatch(&mut self, client: ClientId, mut env: FabReq) {
        if env.span.is_some() {
            env.stamp(Stage::ShardPoll, clock::now_ns());
        }
        if let Some(key) = env.body.conflict_key() {
            // Deletes serialize against everything; reads and deletes also
            // wait for in-flight Puts. Put-after-Put pipelines through
            // versioning. An op whose key already has deferred
            // predecessors defers too (per-key FIFO).
            let blocked = self.deferred_keys.contains_key(&key)
                || self.conflicts.contains(&key)
                || (!matches!(env.body, OpReq::Put { .. }) && self.pending_puts.contains_key(&key));
            if blocked {
                self.stats
                    .conflicts_deferred
                    .fetch_add(1, Ordering::Relaxed);
                *self.deferred_keys.entry(key).or_insert(0) += 1;
                self.deferred.push_back((client, env));
                return;
            }
        }
        self.execute(client, env);
    }

    /// Runs one request (conflict checks already passed).
    fn execute(&mut self, client: ClientId, mut env: FabReq) {
        if env.span.is_some() {
            // KeyGate ends here: for deferred ops the delta is the whole
            // per-key FIFO wait, for the rest it is ~0.
            env.stamp(Stage::KeyGate, clock::now_ns());
        }
        let seq = env.seq;
        let mut span = env.take_span();
        if let Some(s) = span.as_deref_mut() {
            s.core = self.core as u32;
        }
        match env.body {
            OpReq::Put { key, value } => self.begin_put(client, seq, key, value, span),
            OpReq::Get { key } => self.serve_get(client, seq, key, span),
            OpReq::Delete { key } => self.begin_delete(client, seq, key, span),
            OpReq::Range { lo, hi, limit } => self.serve_range(client, seq, lo, hi, limit, span),
            OpReq::Barrier => self.barriers.push((client, seq)),
            OpReq::Shutdown => self.draining = true,
        }
    }

    /// The version the next update of `key` takes.
    fn next_version(&self, key: u64) -> u32 {
        let cur = match self.index.get(self.core, key) {
            Some(packed) => unpack(packed).0,
            None => match self.deleted.get(self.core, key) {
                Some((ver, _)) => ver,
                None => return 1,
            },
        };
        cur.wrapping_add(1) & VERSION_MASK
    }

    /// The out-of-log block owned by the entry at `addr` (an address taken
    /// from the index, so the header is trusted: no CRC, no value copy).
    fn block_of(&self, addr: PmAddr) -> Option<PmAddr> {
        self.log.read_header(addr).ok().and_then(|h| h.block())
    }

    /// Phase 1 (l-persist): allocate + persist the record if large, build
    /// the compacted log entry, stage it for the group pool.
    fn begin_put(
        &mut self,
        client: ClientId,
        seq: u64,
        key: u64,
        value: Vec<u8>,
        span: Option<Box<Span>>,
    ) {
        if self.crash_key == Some(key) {
            // Crash-test knob: leave the in-flight op's partial stage
            // vector in the flight ring, then die mid-put the way a
            // corrupted worker would.
            self.flight.record(
                self.core,
                FlightRecord {
                    trace_id: span.as_ref().map_or(0, |s| s.ctx.trace_id),
                    op_seq: seq,
                    origin_ns: span.as_ref().map_or(0, |s| s.ctx.origin_tsc),
                    core: self.core as u32,
                    client: client as u64,
                    kind: "put",
                    ok: false,
                    detail: "crash-test poisoned key".into(),
                    stamps: span.as_ref().map_or_else(Vec::new, |s| s.stamps.clone()),
                },
            );
            panic!("flatstore crash-test: put to poisoned key {key}");
        }
        if key == u64::MAX {
            self.finish(
                client,
                seq,
                "put",
                false,
                "reserved key".into(),
                span,
                Reply::Put(Err(StoreError::ReservedKey)),
            );
            return;
        }
        if value.is_empty() {
            self.finish(
                client,
                seq,
                "put",
                false,
                "empty value".into(),
                span,
                Reply::Put(Err(StoreError::EmptyValue)),
            );
            return;
        }
        let version = match self.pending_puts.get(&key) {
            Some(&(latest, _)) => latest.wrapping_add(1) & VERSION_MASK,
            None => self.next_version(key),
        };
        let entry = if value.len() <= INLINE_MAX {
            // The request's value is moved into the entry — no second copy.
            // pmlint: allow(no-unwrap) — guarded by `len() <= INLINE_MAX`.
            LogEntry::put_inline(key, version, value).expect("length checked")
        } else {
            let block = match self.alloc.alloc(record_size(value.len())) {
                Ok(b) => b,
                Err(e) => {
                    let detail = e.to_string();
                    self.finish(
                        client,
                        seq,
                        "put",
                        false,
                        detail,
                        span,
                        Reply::Put(Err(e.into())),
                    );
                    return;
                }
            };
            write_record(&self.pm, block, &value);
            self.pending_fence = true;
            LogEntry::put_ptr(key, version, block)
        };
        let completion = Completion::new();
        let slot = self.pending_puts.entry(key).or_insert((0, 0));
        slot.0 = version;
        slot.1 += 1;
        self.staged.push((
            Posted {
                entry,
                completion: Arc::clone(&completion),
                traced: span.is_some(),
            },
            Inflight {
                completion,
                op: InflightOp::Put { key, version },
                client,
                seq,
                span,
            },
        ));
    }

    fn begin_delete(&mut self, client: ClientId, seq: u64, key: u64, span: Option<Box<Span>>) {
        let Some(packed) = self.index.get(self.core, key) else {
            self.finish(
                client,
                seq,
                "delete",
                true,
                String::new(),
                span,
                Reply::Delete(Ok(false)),
            );
            return;
        };
        let (ver, addr) = unpack(packed);
        let old_block = self.block_of(addr);
        let version = ver.wrapping_add(1) & VERSION_MASK;
        let completion = Completion::new();
        self.conflicts.insert(key);
        self.staged.push((
            Posted {
                entry: LogEntry::tombstone(key, version),
                completion: Arc::clone(&completion),
                traced: span.is_some(),
            },
            Inflight {
                completion,
                op: InflightOp::Delete {
                    key,
                    version,
                    old_block,
                },
                client,
                seq,
                span,
            },
        ));
    }

    fn serve_get(&mut self, client: ClientId, seq: u64, key: u64, mut span: Option<Box<Span>>) {
        let start = std::time::Instant::now();
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        // Dispatch already deferred this Get if the key has an in-flight
        // Put or Delete, so a cache hit here can never be older than an
        // acked write (complete() invalidates before it acks).
        if let Some(cache) = &self.cache {
            if let Some(value) = cache.get(self.core, key) {
                self.stats
                    .get_hit_latency
                    .record(start.elapsed().as_nanos() as u64);
                if let Some(s) = span.as_deref_mut() {
                    s.stamp(Stage::Execute, clock::now_ns());
                }
                self.finish(
                    client,
                    seq,
                    "get",
                    true,
                    String::new(),
                    span,
                    Reply::Get(Ok(Some(value))),
                );
                return;
            }
        }
        let result: Result<Option<Vec<u8>>, StoreError> = match self.index.get(self.core, key) {
            None => Ok(None),
            Some(packed) => {
                let (_, addr) = unpack(packed);
                match self.log.read_entry(addr) {
                    Ok(e) => Ok(Some(self.payload_into_bytes(e))),
                    Err(e) => Err(e.into()),
                }
            }
        };
        if let Some(cache) = &self.cache {
            if let Ok(Some(value)) = &result {
                cache.insert(self.core, key, value);
            }
            self.stats
                .get_miss_latency
                .record(start.elapsed().as_nanos() as u64);
        }
        if let Some(s) = span.as_deref_mut() {
            s.stamp(Stage::Execute, clock::now_ns());
        }
        let (ok, detail) = match &result {
            Ok(_) => (true, String::new()),
            Err(e) => (false, e.to_string()),
        };
        self.finish(client, seq, "get", ok, detail, span, Reply::Get(result));
    }

    /// Consumes a decoded entry into its value bytes. Inline payloads are
    /// *moved* out of the entry — the Vec decode filled from PM is the one
    /// handed to the client, with no intermediate copy.
    fn payload_into_bytes(&self, e: LogEntry) -> Vec<u8> {
        match e.payload {
            Payload::Inline(v) => v,
            Payload::Ptr(b) => read_record(&self.pm, b),
            Payload::None => Vec::new(),
        }
    }

    /// Range scans read the log directly and never consult or fill the
    /// cache: the shared ordered index crosses core ownership, and another
    /// core's cache shard must only be touched by its own worker (see
    /// `cache.rs`). Bypassing is always coherent — the log entry an index
    /// value points at *is* the current value.
    fn serve_range(
        &mut self,
        client: ClientId,
        seq: u64,
        lo: u64,
        hi: u64,
        limit: usize,
        mut span: Option<Box<Span>>,
    ) {
        let mut out = Vec::new();
        let r = self.index.range(lo, hi, &mut |k, packed| {
            let (_, addr) = unpack(packed);
            if let Ok(Some((e, _))) = LogEntry::decode(&self.pm, addr) {
                if e.op == LogOp::Put {
                    let value = self.payload_into_bytes(e);
                    out.push((k, value));
                }
            }
            out.len() < limit
        });
        if let Some(s) = span.as_deref_mut() {
            s.stamp(Stage::Execute, clock::now_ns());
        }
        let (ok, detail) = match &r {
            Ok(()) => (true, String::new()),
            Err(e) => (false, e.to_string()),
        };
        self.finish(
            client,
            seq,
            "range",
            ok,
            detail,
            span,
            Reply::Range(r.map(|()| out)),
        );
    }

    /// Phase-1 close: one fence covers every large record written in this
    /// drain, then the staged entries are published for batching.
    fn publish_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        if self.pending_fence {
            self.pm.fence();
            self.pending_fence = false;
        }
        // Publishing is one slot store + one cursor store per op; a full
        // list bounces the record back and this core persists the overflow
        // itself (a vertical mini-batch) — bounded memory without ever
        // blocking on a leader.
        let mut overflow = Vec::new();
        for (posted, inflight) in self.staged.drain(..) {
            if let Err(bounced) = self.group.post(self.slot, posted) {
                overflow.push(bounced);
            }
            self.inflight.push_back(inflight);
        }
        if !overflow.is_empty() {
            self.persist_posts(overflow);
        }
    }

    /// Leader election + g-persist (paper Figure 5). Leadership is a
    /// wait-free sweep over the group's publish lists: each list's
    /// consumer token is claimed with a CAS, so there is no group lock to
    /// contend on and concurrent leaders simply partition the lists.
    fn lead(&mut self) -> bool {
        if self.group.pending.load(Ordering::Acquire) == 0 {
            return false;
        }
        // Each list is released as soon as it is drained (Figure 4d's
        // early release, per list instead of per group), so followers keep
        // posting while this leader flushes.
        let mut posts = Vec::new();
        self.group.collect(&mut posts);
        if posts.is_empty() {
            return false;
        }
        self.persist_posts(posts);
        true
    }

    /// Appends a collected batch to this core's log and fulfils the
    /// completions.
    fn persist_posts(&mut self, posts: Vec<Posted>) {
        if posts.is_empty() {
            return;
        }
        // Leader-side stage clock: read only when the batch carries at
        // least one sampled op, so trace_sample = 0 stays clock-free.
        let any_traced = posts.iter().any(|p| p.traced);
        let collected_ns = if any_traced { clock::now_ns() } else { 0 };
        let mut entries = Vec::with_capacity(posts.len());
        let mut completions = Vec::with_capacity(posts.len());
        let mut traced = Vec::with_capacity(posts.len());
        for p in posts {
            entries.push(p.entry);
            completions.push(p.completion);
            traced.push(p.traced);
        }
        match self.log.append_batch(&entries) {
            Ok(addrs) => {
                let persisted_ns = if any_traced { clock::now_ns() } else { 0 };
                self.usage
                    .note_appended(OpLog::chunk_of(addrs[0]), addrs.len() as u32);
                // Ship the whole batch as ONE replication message, piggy-
                // backing on the HB batch boundary; tag each completion
                // with the ship sequence before fulfilling it (fulfil is
                // the Release publish the poller synchronizes on).
                let shipped = self.repl.as_ref().map(|sink| {
                    let ops: Vec<ReplOp> = entries
                        .iter()
                        .map(|e| ReplOp::from_entry(&self.pm, e))
                        .collect();
                    sink.ship(self.core, ops, self.log.tail())
                });
                let shipped_ns = if any_traced && shipped.is_some() {
                    clock::now_ns()
                } else {
                    0
                };
                for ((c, a), is_traced) in completions.iter().zip(&addrs).zip(&traced) {
                    if let Some(seq) = shipped {
                        c.set_repl(self.core, seq);
                    }
                    if *is_traced {
                        c.set_stage_stamps(collected_ns, persisted_ns, shipped_ns);
                    }
                    c.fulfil(*a);
                }
                if any_traced {
                    // Batch-amortization view (persist time ÷ batch size)
                    // plus one flight-ring span linking the batch to its
                    // member ops through the ship sequence.
                    self.stats.breakdown.record_batch(
                        persisted_ns.saturating_sub(collected_ns),
                        addrs.len() as u64,
                    );
                    self.flight.event(
                        self.core,
                        Event::span(
                            "batch_persist",
                            "batch",
                            self.core as u32,
                            collected_ns,
                            persisted_ns,
                        )
                        .arg("entries", addrs.len() as u64)
                        .arg("ship_seq", shipped.unwrap_or(0)),
                    );
                }
                self.stats.batches.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .batched_entries
                    .fetch_add(addrs.len() as u64, Ordering::Relaxed);
                self.stats.batch_size.record(addrs.len() as u64);
            }
            Err(_) => {
                for c in &completions {
                    c.fail();
                }
            }
        }
    }

    /// Phase 3 (volatile): index update, old-state reclamation, client
    /// response. Completions are applied per-key in submission order — a
    /// ready entry whose key has an older pending entry waits, so a
    /// pipelined client sees its same-key completions in the order it
    /// submitted them.
    fn process_completions(&mut self) -> bool {
        let mut progressed = false;
        let mut waiting: HashSet<u64> = HashSet::new();
        let mut i = 0;
        while i < self.inflight.len() {
            let key = self.inflight[i].key();
            if waiting.contains(&key) {
                i += 1;
                continue;
            }
            match self.inflight[i].completion.poll() {
                Some(result) => {
                    // Replication gate: locally durable but not yet covered
                    // by the backup's acked watermark — the client ack must
                    // wait (treat like an unfinished completion so per-key
                    // FIFO holds for everything queued behind it).
                    if result.is_ok() && !self.repl_acked(&self.inflight[i].completion) {
                        waiting.insert(key);
                        i += 1;
                        continue;
                    }
                    // pmlint: allow(no-unwrap) — `i < inflight.len()` is the
                    // loop condition and complete() runs after the remove.
                    let inf = self.inflight.remove(i).expect("index in bounds");
                    self.complete(inf, result);
                    progressed = true;
                    // The next entry shifted into `i`; don't advance.
                }
                None => {
                    waiting.insert(key);
                    i += 1;
                }
            }
        }
        progressed
    }

    /// Whether the replication watermark covers this completion (vacuously
    /// true without a sink, or for an entry persisted before replication
    /// tagging — e.g. one that failed before shipping).
    fn repl_acked(&self, c: &Completion) -> bool {
        match (&self.repl, c.repl()) {
            (Some(sink), Some((core, seq))) => sink.acked(core) >= seq,
            _ => true,
        }
    }

    fn unpend(&mut self, key: u64) {
        if let Some(slot) = self.pending_puts.get_mut(&key) {
            slot.1 -= 1;
            if slot.1 == 0 {
                self.pending_puts.remove(&key);
            }
        }
    }

    /// Write-through invalidation: drops `key` from this core's cache
    /// shard. Must run before the write's `respond()` — once the client
    /// sees the ack, the next Get on this core must re-read the log (or it
    /// could serve a value older than the acked write).
    fn invalidate_cached(&self, key: u64) {
        if let Some(cache) = &self.cache {
            cache.invalidate(self.core, key);
        }
    }

    fn complete(&mut self, inf: Inflight, result: Result<PmAddr, ()>) {
        let Inflight {
            op,
            client,
            seq,
            completion,
            mut span,
        } = inf;
        if let Some(s) = span.as_deref_mut() {
            // Leader-side stamps published through the completion (its
            // fulfil is the Release the poll above synchronized with).
            let (collected, persisted, shipped) = completion.stage_stamps();
            if collected > 0 {
                s.stamp(Stage::BatchJoin, collected);
            }
            if persisted > 0 {
                s.stamp(Stage::LeaderPersist, persisted);
            }
            if shipped > 0 {
                s.stamp(Stage::ReplShip, shipped);
                // The ack gate in process_completions released this op
                // just before calling here; the backup wait ends now.
                s.stamp(Stage::ReplAckWait, clock::now_ns());
            }
        }
        match op {
            InflightOp::Put { key, version } => {
                self.unpend(key);
                // Invalidate even on failure or supersession: dropping a
                // still-valid entry costs one extra miss, never coherence.
                self.invalidate_cached(key);
                if self.cache.is_some() {
                    if let Some(s) = span.as_deref_mut() {
                        s.stamp(Stage::CacheInvalidate, clock::now_ns());
                    }
                }
                let Ok(addr) = result else {
                    self.finish(
                        client,
                        seq,
                        "put",
                        false,
                        "out of space".into(),
                        span,
                        Reply::Put(Err(StoreError::OutOfSpace)),
                    );
                    return;
                };
                // Pipelined same-key Puts may complete out of order across
                // batches; the newest version wins (the same rule recovery
                // and the cleaner apply).
                let newest = self
                    .index
                    .get(self.core, key)
                    .is_none_or(|cur| newer(version, unpack(cur).0));
                if !newest {
                    // Superseded before it was applied: its entry (and any
                    // out-of-log block) is dead on arrival.
                    self.usage.note_dead(addr);
                    if let Some(b) = self.block_of(addr) {
                        let _ = self.alloc.free(b);
                    }
                    self.stats.puts.fetch_add(1, Ordering::Relaxed);
                    self.finish(
                        client,
                        seq,
                        "put",
                        true,
                        String::new(),
                        span,
                        Reply::Put(Ok(())),
                    );
                    return;
                }
                let packed = pack(version, addr);
                match self.index.insert(self.core, key, packed) {
                    Ok(old) => {
                        if let Some(old) = old {
                            let (_, old_addr) = unpack(old);
                            self.usage.note_dead(old_addr);
                            // Free the previous version's out-of-log block
                            // (safe within the cleaner's grace period). Still
                            // a full decode, unlike `block_of`. A header-only
                            // decode (CRC still checked) was measured to move
                            // static `pm_write_amp` by only +0.3 %
                            // (EXPERIMENTS.md, "One batching policy"), so the
                            // saving is free to take without a batching rule.
                            if let Ok(e) = self.log.read_entry(old_addr) {
                                if let Payload::Ptr(b) = e.payload {
                                    let _ = self.alloc.free(b);
                                }
                            }
                        } else if let Some((_, tomb)) = self.deleted.remove(self.core, key) {
                            // A Put over a deleted key supersedes the
                            // tombstone.
                            self.usage.note_dead(tomb);
                        }
                        self.stats.puts.fetch_add(1, Ordering::Relaxed);
                        self.finish(
                            client,
                            seq,
                            "put",
                            true,
                            String::new(),
                            span,
                            Reply::Put(Ok(())),
                        );
                    }
                    Err(e) => {
                        let detail = e.to_string();
                        self.finish(client, seq, "put", false, detail, span, Reply::Put(Err(e)));
                    }
                }
            }
            InflightOp::Delete {
                key,
                version,
                old_block,
            } => {
                self.invalidate_cached(key);
                if self.cache.is_some() {
                    if let Some(s) = span.as_deref_mut() {
                        s.stamp(Stage::CacheInvalidate, clock::now_ns());
                    }
                }
                let Ok(addr) = result else {
                    self.conflicts.remove(&key);
                    self.finish(
                        client,
                        seq,
                        "delete",
                        false,
                        "out of space".into(),
                        span,
                        Reply::Delete(Err(StoreError::OutOfSpace)),
                    );
                    return;
                };
                if let Some(old) = self.index.remove(self.core, key) {
                    let (_, old_addr) = unpack(old);
                    self.usage.note_dead(old_addr);
                }
                if let Some(b) = old_block {
                    let _ = self.alloc.free(b);
                }
                self.deleted.insert(self.core, key, version, addr);
                self.stats.deletes.fetch_add(1, Ordering::Relaxed);
                self.conflicts.remove(&key);
                self.finish(
                    client,
                    seq,
                    "delete",
                    true,
                    String::new(),
                    span,
                    Reply::Delete(Ok(true)),
                );
            }
        }
    }

    fn retry_deferred(&mut self) -> bool {
        let mut progressed = false;
        let n = self.deferred.len();
        // Keys re-pushed this round: later same-key entries stay behind
        // them to preserve per-key FIFO.
        let mut repushed: HashSet<u64> = HashSet::new();
        for _ in 0..n {
            // pmlint: allow(no-unwrap) — the loop runs deferred.len() times.
            let (client, env) = self.deferred.pop_front().expect("len checked");
            let key = env.body.conflict_key();
            let blocked = key.is_some_and(|k| {
                repushed.contains(&k)
                    || self.conflicts.contains(&k)
                    || (!matches!(env.body, OpReq::Put { .. })
                        && self.pending_puts.contains_key(&k))
            });
            if blocked {
                if let Some(k) = key {
                    repushed.insert(k);
                }
                self.deferred.push_back((client, env));
                continue;
            }
            if let Some(k) = key {
                if let Some(count) = self.deferred_keys.get_mut(&k) {
                    *count -= 1;
                    if *count == 0 {
                        self.deferred_keys.remove(&k);
                    }
                }
            }
            // Re-execute without re-counting the conflict deferral.
            self.execute(client, env);
            progressed = true;
        }
        progressed
    }

    fn answer_barriers(&mut self) {
        if self.quiet() {
            for (client, seq) in std::mem::take(&mut self.barriers) {
                self.respond(client, seq, Reply::Control);
            }
        }
    }

    /// Incremental log cleaning (paper §3.4), run cooperatively on the
    /// server core. Victims are this core's chunks with the lowest live
    /// ratio ([`gc_victim`]); the reclaimed chunk passes through the
    /// grace-period quarantine before re-entering the pool.
    fn maybe_gc(&mut self) {
        self.tick += 1;
        if self.tick.is_multiple_of(64) {
            self.quarantine.release(&self.mgr);
        }
        if !self.gc.enabled || !self.tick.is_multiple_of(16) {
            return;
        }
        let free = self.mgr.free_chunks();
        if free >= self.gc.min_free_chunks {
            return;
        }
        let headroom = free + self.quarantine.len();
        let tail_chunk = OpLog::chunk_of(self.log.tail());
        let chunks = self
            .log
            .chunks()
            .iter()
            .filter(|&&c| c != tail_chunk)
            .map(|&c| (c, self.usage.usage(c)));
        if let Some(victim) = gc_victim(&self.gc, headroom, chunks) {
            self.clean(victim);
        }
    }

    fn clean(&mut self, victim: PmAddr) {
        let index = Arc::clone(&self.index);
        let deleted = Arc::clone(&self.deleted);
        let ncores = self.ncores;
        let relocs = match self.log.clean_chunk(victim, |e, addr| {
            let owner = core_of(e.key, ncores);
            match e.op {
                LogOp::Put => index.get(owner, e.key) == Some(pack(e.version, addr)),
                LogOp::Delete => deleted.get(owner, e.key) == Some((e.version, addr)),
                LogOp::Seal => false,
            }
        }) {
            Ok(r) => r,
            Err(LogError::OutOfSpace) => return, // no relocation chunk free; retry later
            Err(_) => {
                // A media error in the victim (an entry fails its CRC-8):
                // its bytes cannot be relocated, so the chunk stays as it
                // is and is never picked again, rather than retried
                // before every other victim forever.
                self.usage.restore(victim.offset(), 0, 0);
                return;
            }
        };

        let target = relocs
            .first()
            .map(|r| (OpLog::chunk_of(r.new), relocs.len() as u32));
        self.usage.on_cleaned(victim, target);

        for r in &relocs {
            let owner = core_of(r.entry.key, self.ncores);
            let moved = match r.entry.op {
                LogOp::Put => self.index.cas(
                    owner,
                    r.entry.key,
                    pack(r.entry.version, r.old),
                    pack(r.entry.version, r.new),
                ),
                LogOp::Delete => {
                    self.deleted
                        .cas_addr(owner, r.entry.key, r.entry.version, r.old, r.new)
                }
                LogOp::Seal => false,
            };
            if !moved {
                // Superseded while relocating: the copy is dead on arrival.
                self.usage.note_dead(r.new);
            }
        }
        self.quarantine.push(victim);
        self.stats.gc_chunks.fetch_add(1, Ordering::Relaxed);
        self.stats
            .gc_relocated
            .fetch_add(relocs.len() as u64, Ordering::Relaxed);
    }
}

/// The cleaner's decision. Nothing is cleaned while the pool's headroom —
/// free chunks plus quarantined ones on their way back — reaches
/// `min_free_chunks`. Otherwise the least-live chunk is cleaned, but only
/// if at most `max_live_ratio` of it is live: survivors are copied into a
/// fresh chunk, one victim to one target, so a fuller victim nets no
/// chunk and cleaning it would only park one in quarantine.
fn gc_victim(
    gc: &GcConfig,
    headroom: u32,
    chunks: impl IntoIterator<Item = (PmAddr, ChunkUsage)>,
) -> Option<PmAddr> {
    if headroom >= gc.min_free_chunks {
        return None;
    }
    let (victim, ratio) = chunks
        .into_iter()
        .filter(|(_, u)| u.total > 0)
        .map(|(c, u)| (c, u.live_ratio()))
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    (ratio <= gc.max_live_ratio).then_some(victim)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(total: u32, dead: u32) -> ChunkUsage {
        ChunkUsage { total, dead }
    }

    #[test]
    fn cleaner_cleans_the_least_live_chunk_only_when_it_can_net_one() {
        let gc = GcConfig::default(); // min_free_chunks 8, max_live_ratio 0.5
        let (a, b, c) = (PmAddr(4 << 20), PmAddr(8 << 20), PmAddr(12 << 20));
        let chunks = [(a, usage(100, 40)), (b, usage(100, 90)), (c, usage(0, 0))];
        assert_eq!(gc_victim(&gc, 3, chunks), Some(b), "least live wins");
        assert_eq!(gc_victim(&gc, 8, chunks), None, "enough headroom");
        // Only full or barely dead chunks: none is worth a clean, however
        // tight the pool — a 3-entry, all-live survivor chunk included.
        let full = [(a, usage(3, 0)), (b, usage(100, 40))];
        assert_eq!(gc_victim(&gc, 0, full), None);
        // A fully dead chunk is always worth it: it nets a whole chunk.
        let dead = [(a, usage(3, 0)), (b, usage(50, 50))];
        assert_eq!(gc_victim(&gc, 0, dead), Some(b));
        // Empty (never-appended) chunks are no candidates at all.
        assert_eq!(gc_victim(&gc, 0, [(c, usage(0, 0))]), None);
    }
}
