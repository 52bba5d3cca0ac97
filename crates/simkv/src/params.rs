//! Simulation parameters: CPU costs, network model and experiment
//! configuration.

pub use pmem::cost::CostParams;
use workloads::KeyDist;

/// Per-operation CPU costs in nanoseconds, charged to the simulated core's
//  clock alongside the device model's persistence costs.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuParams {
    /// Parsing/dispatching one request from the message buffer.
    pub per_msg_ns: f64,
    /// Volatile hash-index operation (DRAM CCEH probe/insert).
    pub hash_op_ns: f64,
    /// Volatile tree operation (Masstree / volatile FAST&FAIR traversal).
    pub tree_op_ns: f64,
    /// Building one compacted log entry.
    pub entry_build_ns: f64,
    /// Posting an entry descriptor to the request pool.
    pub post_ns: f64,
    /// Acquiring the group lock.
    pub lock_ns: f64,
    /// Collecting one stolen entry while leading.
    pub collect_per_entry_ns: f64,
    /// Allocator fast path.
    pub alloc_ns: f64,
    /// Writing one byte into PM (store bandwidth, before flushing).
    pub store_ns_per_byte: f64,
    /// A PM load that mostly hits the CPU cache (index probes on PM).
    pub pm_read_cached_ns: f64,
    /// A cold PM load (reading a value record on the Get path).
    pub pm_read_cold_ns: f64,
    /// Serving a Get from the DRAM read cache (hash probe + copy-out);
    /// replaces the cold PM load(s) on a hit.
    pub cache_hit_ns: f64,
    /// Preparing and posting the response (incl. agent-core delegation).
    pub respond_ns: f64,
    /// The cleaner's per-relocation index CAS.
    pub gc_cas_ns: f64,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            per_msg_ns: 150.0,
            hash_op_ns: 90.0,
            tree_op_ns: 700.0,
            entry_build_ns: 35.0,
            post_ns: 40.0,
            lock_ns: 30.0,
            collect_per_entry_ns: 15.0,
            alloc_ns: 60.0,
            store_ns_per_byte: 0.05,
            pm_read_cached_ns: 25.0,
            pm_read_cold_ns: 170.0,
            cache_hit_ns: 30.0,
            respond_ns: 150.0,
            gc_cas_ns: 120.0,
        }
    }
}

/// The FlatRPC network model (paper §4.3): 100 Gbps InfiniBand with
/// RDMA-written message buffers and agent-core response delegation.
#[derive(Debug, Clone, PartialEq)]
pub struct NetParams {
    /// One-way client↔server latency.
    pub one_way_ns: f64,
    /// Client-side think/processing time between completed batch and next.
    pub client_think_ns: f64,
    /// Shared NIC/agent-core service time per message (a request-response
    /// pair costs two messages). FlatRPC measures 52.7 M msg/s on the
    /// paper's platform (§4.3); this shared resource — not per-core CPU —
    /// is what caps FlatStore's small-value throughput, and why skewed
    /// loads barely hurt it.
    pub nic_ns_per_msg: f64,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            one_way_ns: 900.0,
            client_think_ns: 300.0,
            nic_ns_per_msg: 14.0,
        }
    }
}

/// Which engine a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// FlatStore with the given execution model and index.
    FlatStore {
        /// The batching model (Figure 4).
        model: ExecModel,
        /// The volatile index flavor.
        index: SimIndex,
    },
    /// A compared persistent-index system (Table 1).
    Baseline(BaselineKind),
}

/// FlatStore batching models (paper Figure 4 / §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecModel {
    /// One request at a time ("Base").
    NonBatch,
    /// Per-core batching only.
    Vertical,
    /// Horizontal batching, lock held through the flush.
    NaiveHb,
    /// Pipelined horizontal batching (the paper's design).
    PipelinedHb,
}

/// FlatStore volatile index flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimIndex {
    /// Per-core volatile CCEH (FlatStore-H).
    Hash,
    /// Shared Masstree (FlatStore-M).
    Masstree,
    /// Shared volatile FAST&FAIR (FlatStore-FF).
    FastFair,
}

/// The compared systems (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// CCEH, per-core instance, persistent mode.
    Cceh,
    /// Level-Hashing, per-core instance, persistent mode.
    LevelHashing,
    /// FAST&FAIR, one shared persistent instance.
    FastFair,
    /// FPTree, one shared instance (DRAM inner, PM leaves).
    FpTree,
}

impl BaselineKind {
    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineKind::Cceh => "CCEH",
            BaselineKind::LevelHashing => "Level-Hashing",
            BaselineKind::FastFair => "FAST&FAIR",
            BaselineKind::FpTree => "FPTree",
        }
    }
}

/// Workload specification for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// §5.1 YCSB microbenchmark: fixed value size, uniform/zipfian keys.
    Ycsb {
        /// Key popularity.
        dist: KeyDist,
        /// Value size in bytes.
        value_len: usize,
        /// Put fraction in [0, 1].
        put_ratio: f64,
    },
    /// §5.2 Facebook ETC trimodal mix.
    Etc {
        /// Put fraction in [0, 1].
        put_ratio: f64,
    },
}

/// Design-choice ablation switches (all off = the paper's design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ablation {
    /// Disable cacheline padding between log batches (§3.2 "Padding"):
    /// adjacent batches share cachelines and hit the repeat-flush stall.
    pub no_padding: bool,
    /// Persist allocator bitmaps eagerly on every alloc/free instead of
    /// lazily (§3.2 "Lazy-persist Allocator").
    pub eager_alloc: bool,
    /// Replace the 16-byte compacted entries with 64-byte "fat" entries
    /// (what logging raw index updates costs, §3.2 "Log Entry Compaction").
    pub fat_entries: bool,
}

/// One simulation run's configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The engine under test.
    pub engine: Engine,
    /// Simulated server cores.
    pub ncores: usize,
    /// Cores per horizontal-batching group.
    pub group_size: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests per client batch (paper's default is 8).
    pub client_batch: usize,
    /// Key-space size (paper: 192 M; scaled down by default to fit RAM).
    pub keyspace: u64,
    /// The workload.
    pub workload: WorkloadSpec,
    /// PM pool chunks (4 MB each).
    pub pool_chunks: u32,
    /// Insert every key before measuring.
    pub prefill: bool,
    /// Operations to simulate after warm-up.
    pub ops: u64,
    /// Operations discarded as warm-up.
    pub warmup: u64,
    /// Enable the per-group log cleaner.
    pub gc: bool,
    /// Cleaner pressure threshold (free chunks).
    pub gc_min_free: u32,
    /// CPU cost calibration.
    pub cpu: CpuParams,
    /// Device cost calibration.
    pub cost: CostParams,
    /// Network calibration.
    pub net: NetParams,
    /// Passive backups each persisted batch is shipped to (0 = standalone,
    /// no replication). Shipping is batched exactly like the paper's
    /// horizontal batching: ONE request/ack message pair per replica per
    /// *batch*, so the per-operation NIC cost of replication shrinks as
    /// batches grow.
    pub replicas: usize,
    /// Backup-side durability time for one shipped batch (its own log
    /// append — flush plus fence — before the ack comes back).
    pub repl_persist_ns: f64,
    /// Design-choice ablations (benchmarks only).
    pub ablate: Ablation,
    /// Per-core DRAM read-cache capacity in *entries* (the engine's
    /// `read_cache_bytes`, divided by core count and mean entry cost);
    /// 0 disables the cache model and leaves every Get charging the full
    /// cold PM read — bit-identical to the pre-cache simulation.
    pub read_cache_entries: usize,
    /// RNG seed.
    pub seed: u64,
    /// Throughput-timeline window (ns); 0 disables the timeline.
    pub window_ns: f64,
    /// Capacity of the virtual-time trace-event ring (batch flushes, group
    /// locking, stealing, cleaning); 0 disables event collection. When the
    /// ring overflows the oldest events are dropped, so a long run keeps
    /// its most recent window.
    pub trace_events: usize,
    /// Causal-tracing sample rate, mirroring the engine's
    /// `Config::trace_sample`: every Nth polled request gets a
    /// virtual-time stage vector recorded into the summary's
    /// `latency_breakdown` section (same schema as the engine's). 1
    /// traces every request, 0 disables tracing. Sampling only
    /// *observes* the simulation — virtual timing is bit-identical with
    /// tracing on or off.
    pub trace_sample: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            engine: Engine::FlatStore {
                model: ExecModel::PipelinedHb,
                index: SimIndex::Hash,
            },
            ncores: 36,
            group_size: 18,
            clients: 288,
            client_batch: 8,
            keyspace: 200_000,
            workload: WorkloadSpec::Ycsb {
                dist: KeyDist::Uniform,
                value_len: 64,
                put_ratio: 1.0,
            },
            pool_chunks: 256,
            prefill: true,
            ops: 200_000,
            warmup: 20_000,
            gc: false,
            gc_min_free: 16,
            cpu: CpuParams::default(),
            cost: CostParams::default(),
            net: NetParams::default(),
            replicas: 0,
            repl_persist_ns: 500.0,
            ablate: Ablation::default(),
            read_cache_entries: 0,
            seed: 42,
            window_ns: 0.0,
            trace_events: 0,
            trace_sample: 0,
        }
    }
}
