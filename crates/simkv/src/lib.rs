//! Discrete-event evaluation testbed for the FlatStore reproduction.
//!
//! The paper's testbed — 36 Xeon cores, 4 Optane DIMMs, a 100 Gbps
//! InfiniBand cluster — is replaced by a deterministic discrete-event
//! simulation that runs on a single host core:
//!
//! * **Simulated server cores** execute the *real* data-structure code
//!   (the `oplog`, `pmalloc`, `indexes` and `masstree` crates). Every PM
//!   event that code emits (store, cacheline flush, fence, load) is traced
//!   by the `pmem` crate and charged to the core's virtual clock through
//!   the Optane-calibrated [`pmem::cost::Device`] model, so flush counts,
//!   batching arithmetic, chunk rollovers and GC behave exactly as in the
//!   library.
//! * **The HB protocol** (group lock, request pools, stealing, early lock
//!   release, pipelining — paper §3.3/Figure 4) is modeled at event
//!   granularity, with all four execution models selectable.
//! * **FlatRPC** is a message-level network model: one-way latency,
//!   per-message server CPU and closed-loop clients with configurable
//!   batch size (paper §4.3/§5).
//!
//! [`run`] simulates one configuration and returns a [`Summary`]
//! (throughput, latency percentiles, device counters, optional timeline);
//! [`probe`] reproduces the raw-device measurements of Figure 1.
//!
//! # Example
//!
//! ```
//! use simkv::{run, SimConfig, Engine, ExecModel, SimIndex};
//!
//! let cfg = SimConfig {
//!     engine: Engine::FlatStore { model: ExecModel::PipelinedHb, index: SimIndex::Hash },
//!     ncores: 4,
//!     group_size: 4,
//!     clients: 16,
//!     keyspace: 10_000,
//!     ops: 5_000,
//!     warmup: 500,
//!     ..SimConfig::default()
//! };
//! let summary = run(&cfg);
//! assert!(summary.mops > 0.0);
//! ```

mod basesim;
mod common;
mod flatsim;
mod metrics;
mod params;
pub mod probe;

pub use metrics::{Summary, WindowStat};
pub use params::{
    Ablation, BaselineKind, CostParams, CpuParams, Engine, ExecModel, NetParams, SimConfig,
    SimIndex, WorkloadSpec,
};

/// Runs one simulation to completion.
///
/// # Panics
///
/// Panics if the configuration starves the simulation (PM pool exhausted
/// with GC disabled, zero clients, …) — configuration errors, not runtime
/// conditions.
pub fn run(cfg: &SimConfig) -> Summary {
    match cfg.engine {
        Engine::FlatStore { model, index } => {
            flatsim::FlatSim::new(cfg.clone(), model, index).run()
        }
        Engine::Baseline(kind) => basesim::BaseSim::new(cfg.clone(), kind).run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::KeyDist;

    fn quick(engine: Engine) -> SimConfig {
        SimConfig {
            engine,
            ncores: 4,
            group_size: 4,
            clients: 32,
            client_batch: 4,
            keyspace: 20_000,
            pool_chunks: 64,
            ops: 20_000,
            warmup: 2_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn flatstore_sim_runs_and_batches() {
        let cfg = quick(Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Hash,
        });
        let s = run(&cfg);
        assert!(s.mops > 0.0);
        assert!(s.avg_latency_ns > 0.0);
        assert!(s.avg_batch >= 1.0, "avg batch {}", s.avg_batch);
        assert!(s.device.media_writes > 0);
    }

    #[test]
    fn all_exec_models_complete() {
        for model in [
            ExecModel::NonBatch,
            ExecModel::Vertical,
            ExecModel::NaiveHb,
            ExecModel::PipelinedHb,
        ] {
            let cfg = quick(Engine::FlatStore {
                model,
                index: SimIndex::Hash,
            });
            let s = run(&cfg);
            assert!(s.ops >= cfg.ops, "{model:?} measured {}", s.ops);
        }
    }

    #[test]
    fn all_baselines_complete() {
        for kind in [
            BaselineKind::Cceh,
            BaselineKind::LevelHashing,
            BaselineKind::FastFair,
            BaselineKind::FpTree,
        ] {
            let mut cfg = quick(Engine::Baseline(kind));
            cfg.keyspace = 5_000;
            cfg.ops = 5_000;
            cfg.warmup = 500;
            let s = run(&cfg);
            assert!(s.mops > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn flatstore_beats_cceh_on_small_puts() {
        // The paper's headline: ≥2× on 8 B values, 100 % Put.
        let mut f = quick(Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Hash,
        });
        f.workload = WorkloadSpec::Ycsb {
            dist: KeyDist::Uniform,
            value_len: 8,
            put_ratio: 1.0,
        };
        f.ncores = 8;
        f.group_size = 8;
        f.clients = 128;
        let mut b = f.clone();
        b.engine = Engine::Baseline(BaselineKind::Cceh);
        let fs = run(&f);
        let cc = run(&b);
        // The simulated gap plateaus around 1.5× for this configuration;
        // assert safely below the plateau so workload-stream changes
        // (e.g. a different RNG) cannot flip the verdict.
        assert!(
            fs.mops > cc.mops * 1.4,
            "FlatStore {} vs CCEH {}",
            fs.mops,
            cc.mops
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick(Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Hash,
        });
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.mops, b.mops);
        assert_eq!(a.p99_ns, b.p99_ns);
    }

    #[test]
    fn masstree_index_variant_runs() {
        let cfg = quick(Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Masstree,
        });
        let s = run(&cfg);
        assert!(s.mops > 0.0);
    }

    #[test]
    fn pipelined_hb_writes_less_media_than_nonbatch() {
        // Horizontal batching coalesces per-entry flushes into cacheline
        // batches; at the device level that must show up as fewer 256 B
        // media writes for the same op stream.
        let hb = quick(Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Hash,
        });
        let mut nb = hb.clone();
        nb.engine = Engine::FlatStore {
            model: ExecModel::NonBatch,
            index: SimIndex::Hash,
        };
        let hb_run = run(&hb);
        let nb_run = run(&nb);
        assert!(
            hb_run.device.media_writes < nb_run.device.media_writes,
            "PipelinedHb {} media writes vs NonBatch {}",
            hb_run.device.media_writes,
            nb_run.device.media_writes
        );
    }

    #[test]
    fn trace_ring_captures_per_core_batch_flushes() {
        let mut cfg = quick(Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Hash,
        });
        cfg.trace_events = 1 << 16;
        let s = run(&cfg);
        assert!(!s.events.is_empty(), "trace ring stayed empty");
        let flush_tids: std::collections::BTreeSet<u32> = s
            .events
            .iter()
            .filter(|e| e.name == "batch_flush")
            .map(|e| e.tid)
            .collect();
        assert!(
            flush_tids.len() >= 4,
            "expected batch_flush spans on all 4 cores, saw tids {flush_tids:?}"
        );
        assert!(
            s.events.iter().any(|e| e.name == "group_lock"),
            "no group_lock spans recorded"
        );
        // Disabled by default: the same config without the knob records
        // nothing, so the ring costs nothing unless asked for.
        let mut off = cfg.clone();
        off.trace_events = 0;
        let s_off = run(&off);
        assert!(s_off.events.is_empty());
        assert_eq!(s_off.events_dropped, 0);
    }

    #[test]
    fn trace_sample_mirrors_breakdown_without_perturbing_time() {
        let mut cfg = quick(Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Hash,
        });
        cfg.replicas = 1;
        cfg.read_cache_entries = 64;
        let off = run(&cfg);
        let mut traced = cfg.clone();
        traced.trace_sample = 4;
        let on = run(&traced);
        // Tracing only observes the virtual clock: every performance
        // number must be bit-identical with sampling on or off.
        assert_eq!(off.mops, on.mops);
        assert_eq!(off.p99_ns, on.p99_ns);
        assert_eq!(off.device.media_writes, on.device.media_writes);
        assert!(off.breakdown.is_none());
        let b = on.breakdown.as_ref().expect("sampled run has a breakdown");
        assert!(b.spans() > 0, "no spans recorded");
        // Same report schema as the engine's latency_breakdown section,
        // including the replication and cache stages this config exercises.
        let r = on.report("sim");
        assert_eq!(
            r.get("latency_breakdown", "spans"),
            Some(&obs::Value::U64(b.spans()))
        );
        for row in [
            "ring_transit_p50_ns",
            "leader_persist_p50_ns",
            "repl_ship_p50_ns",
            "repl_ack_wait_p50_ns",
            "cache_invalidate_p50_ns",
            "end_to_end_p50_ns",
            "persist_per_entry_p50_ns",
        ] {
            assert!(
                r.get("latency_breakdown", row).is_some(),
                "missing breakdown row {row}"
            );
        }
    }

    #[test]
    fn gc_timeline_records_cleaning() {
        let mut cfg = quick(Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Hash,
        });
        cfg.ncores = 2;
        cfg.group_size = 2;
        cfg.clients = 16;
        cfg.pool_chunks = 12;
        cfg.keyspace = 3_000;
        cfg.ops = 120_000;
        cfg.warmup = 1_000;
        cfg.gc = true;
        cfg.gc_min_free = 9;
        cfg.window_ns = 1e6;
        cfg.workload = WorkloadSpec::Ycsb {
            dist: KeyDist::Uniform,
            value_len: 128,
            put_ratio: 1.0,
        };
        let s = run(&cfg);
        let cleaned: u64 = s.timeline.iter().map(|w| w.gc_chunks).sum();
        assert!(cleaned > 0, "cleaner never ran");
        assert!(s.ops >= cfg.ops, "puts must keep completing under GC");
    }
}
