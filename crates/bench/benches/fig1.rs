//! Figure 1 — Performance evaluation of (simulated) Optane DCPMM.
//!
//! (a) Raw 64 B random-write throughput vs. FAST&FAIR Put throughput as the
//!     thread count grows; (b) sequential vs. random 256 B write bandwidth;
//! (c) write latency for Seq / Rnd / In-place patterns.

use flatstore_bench::{Bench, Col, Scale};
use simkv::probe::{write_bandwidth, write_latency, write_throughput_mops, Pattern};
use simkv::{BaselineKind, CostParams, Engine, SimConfig, WorkloadSpec};
use workloads::KeyDist;

fn fastfair_put_mops(threads: usize, scale: &Scale) -> f64 {
    let cfg = SimConfig {
        engine: Engine::Baseline(BaselineKind::FastFair),
        ncores: threads,
        group_size: threads,
        clients: (threads * 8).max(8),
        keyspace: scale.keyspace.min(100_000),
        ops: (scale.ops / 3).max(10_000),
        warmup: (scale.ops / 30).max(1_000),
        workload: WorkloadSpec::Ycsb {
            dist: KeyDist::Uniform,
            value_len: 8,
            put_ratio: 1.0,
        },
        ..SimConfig::default()
    };
    simkv::run(&cfg).mops
}

fn main() {
    let scale = Scale::from_env();
    let p = CostParams::default();
    let ops = 20_000;
    let mut bench = Bench::new("fig1");

    println!("== Figure 1(a): Optane 64B random writes vs FAST&FAIR Put (Mops/s) ==");
    bench
        .table(
            "fig1a_random_write_vs_put",
            10,
            vec![
                Col::mops("Optane-64B").fmt(14, 2),
                Col::mops("FAST&FAIR").fmt(14, 2),
                Col::new("ratio", "x").fmt(7, 1).suffix("x"),
            ],
        )
        .header("threads", "");
    for threads in [1usize, 2, 4, 8, 12, 16, 20] {
        let raw = write_throughput_mops(&p, threads, 64, ops);
        let ff = fastfair_put_mops(threads, &scale);
        bench.print_row(&threads.to_string(), &[raw, ff, raw / ff.max(1e-9)]);
    }

    println!();
    println!("== Figure 1(b): 256B write bandwidth (GB/s) ==");
    bench
        .table(
            "fig1b_write_bandwidth_256b",
            10,
            vec![Col::new("Write-Seq", "gbps"), Col::new("Write-Rnd", "gbps")],
        )
        .header("threads", "");
    for threads in [1usize, 2, 4, 8, 12, 16, 20, 24, 32, 40] {
        let seq = write_bandwidth(&p, threads, 256, true, ops);
        let rnd = write_bandwidth(&p, threads, 256, false, ops);
        bench.print_row(&threads.to_string(), &[seq, rnd]);
    }

    println!();
    println!("== Figure 1(c): write latency (ns) ==");
    bench.table(
        "fig1c_write_latency",
        10,
        vec![Col::new("write", "ns").fmt(10, 0)],
    );
    for (name, pat) in [
        ("Seq", Pattern::Seq),
        ("Rnd", Pattern::Rnd),
        ("In-place", Pattern::InPlace),
    ] {
        bench.print_row(name, &[write_latency(&p, pat, 50_000)]);
    }
    bench.finish();
}
