//! Figure 11 — ablation of each optimization (paper §5.4): CCEH vs Base
//! (compacted log, no batching) vs +Naive HB vs +Pipelined HB, 100 % Put,
//! uniform keys, 8/64/128 B values.

use flatstore_bench::{mops, ycsb_put, Bench, Col, Scale};
use simkv::{BaselineKind, Engine, ExecModel, SimIndex};

fn main() {
    let scale = Scale::from_env();
    let systems: [(&str, Engine); 4] = [
        ("CCEH", Engine::Baseline(BaselineKind::Cceh)),
        (
            "Base",
            Engine::FlatStore {
                model: ExecModel::NonBatch,
                index: SimIndex::Hash,
            },
        ),
        (
            "+Naive HB",
            Engine::FlatStore {
                model: ExecModel::NaiveHb,
                index: SimIndex::Hash,
            },
        ),
        (
            "+Pipelined HB",
            Engine::FlatStore {
                model: ExecModel::PipelinedHb,
                index: SimIndex::Hash,
            },
        ),
    ];

    println!("== Figure 11: benefit of each optimization (Put Mops/s, uniform) ==");
    println!("(RPC ceiling relaxed so the storage-engine differences are visible)");
    let mut bench = Bench::new("fig11");
    bench.print_header(
        "fig11_put_uniform",
        "value (B)",
        systems.map(|(n, _)| Col::mops(n)),
    );
    for len in [8usize, 64, 128] {
        let mut cells = Vec::new();
        for (_, engine) in systems {
            let mut cfg = scale.config();
            cfg.engine = engine;
            // Isolate the persistence engine from the shared NIC cap.
            cfg.net.nic_ns_per_msg = 5.0;
            cfg.workload = ycsb_put(len, false);
            cells.push(mops(&cfg));
        }
        bench.print_row(&len.to_string(), &cells);
    }
    bench.finish();
}
