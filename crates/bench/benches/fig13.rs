//! Figure 13 — garbage-collection efficiency: ETC workload (50 % Get) in a
//! constrained PM pool; throughput and cleaning rate over time once the
//! cleaner engages.

use flatstore_bench::{Bench, Col, Scale};
use simkv::{Engine, ExecModel, SimIndex, WorkloadSpec};

fn main() {
    let scale = Scale::from_env();
    let mut cfg = scale.config();
    cfg.engine = Engine::FlatStore {
        model: ExecModel::PipelinedHb,
        index: SimIndex::Hash,
    };
    cfg.workload = WorkloadSpec::Etc { put_ratio: 0.5 };
    // A small core count keeps the per-core/per-class chunk footprint low
    // and concentrates log churn so per-core logs actually roll (and seal)
    // 4 MB chunks — sealed chunks are what the cleaner reclaims, and this
    // figure studies that reclamation.
    cfg.ncores = 2;
    cfg.group_size = 2;
    cfg.clients = cfg.clients.min(48);
    // Few hot keys => overwrites quickly deaden sealed chunks.
    cfg.keyspace = scale.keyspace.min(6_000);
    // Room for the two per-core logs, the allocator's per-(core, class)
    // chunks and the prefill, plus bounded headroom the cleaner must
    // maintain: small enough that the pool constraint bites on log churn.
    cfg.pool_chunks = 30;
    cfg.gc = true;
    cfg.gc_min_free = 14;
    cfg.ops = scale.ops * 16;
    cfg.warmup = scale.ops / 10;
    cfg.window_ns = 2e6; // 2 ms windows

    println!("== Figure 13: GC efficiency (ETC, 50% Get, constrained pool) ==");
    let s = simkv::run(&cfg);
    let mut bench = Bench::new("fig13");
    bench.print_report(s.report("fig13 FlatStore-H (ETC, GC)"));
    bench
        .table(
            "fig13_gc_timeline",
            12,
            [
                Col::headed("Mops/s", "FlatStore-H", "mops").fmt(14, 2),
                Col::headed("chunks cleaned/s", "cleaner", "chunks_per_s").fmt(16, 0),
            ],
        )
        .header("t (ms)", "");
    let window_s = 2e-3;
    for w in &s.timeline {
        bench.print_row(
            &format!("{:.1}", w.start_s * 1e3),
            &[w.ops as f64 / window_s / 1e6, w.gc_chunks as f64 / window_s],
        );
    }
    let total_cleaned: u64 = s.timeline.iter().map(|w| w.gc_chunks).sum();
    println!("total chunks cleaned: {total_cleaned}");
    bench.row("cleaner/total_chunks", total_cleaned);
    assert!(total_cleaned > 0, "GC never engaged — shrink the pool");
    bench.finish();
}
