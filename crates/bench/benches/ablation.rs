//! Design-choice ablations beyond the paper's Figure 11: each row turns
//! one of FlatStore's §3.2 mechanisms off and measures what it was buying.
//!
//! * **no padding** — adjacent batches share cachelines, exposing the
//!   repeat-flush stall the padding avoids (Fig. 3 bottom).
//! * **eager allocator** — the allocator persists its bitmap on every
//!   alloc/free like a conventional PM allocator, instead of relying on
//!   the log-pointer redundancy.
//! * **fat entries** — 64-byte log entries (what logging raw index updates
//!   would cost) instead of the 16-byte compacted operation records.

use flatstore_bench::{mops, ycsb_put, Bench, Col, Scale};
use simkv::{Ablation, Engine, ExecModel, SimIndex};

fn main() {
    let scale = Scale::from_env();
    let variants: [(&str, Ablation); 4] = [
        ("FlatStore", Ablation::default()),
        (
            "-padding",
            Ablation {
                no_padding: true,
                ..Ablation::default()
            },
        ),
        (
            "+eager alloc",
            Ablation {
                eager_alloc: true,
                ..Ablation::default()
            },
        ),
        (
            "fat entries",
            Ablation {
                fat_entries: true,
                ..Ablation::default()
            },
        ),
    ];

    println!("== Ablation: what each §3.2 mechanism buys (Put Mops/s, uniform) ==");
    println!("(RPC ceiling relaxed so the engine differences are visible)");
    let mut bench = Bench::new("ablation");
    bench.print_header(
        "ablation_put_uniform",
        "value (B)",
        variants.map(|(n, _)| Col::mops(n)),
    );
    // 8 B stresses entry compaction/padding; 512 B stresses the allocator.
    for len in [8usize, 64, 512] {
        let mut cells = Vec::new();
        for (_, ablate) in variants {
            let mut cfg = scale.config();
            cfg.engine = Engine::FlatStore {
                model: ExecModel::PipelinedHb,
                index: SimIndex::Hash,
            };
            cfg.net.nic_ns_per_msg = 5.0;
            cfg.ablate = ablate;
            cfg.workload = ycsb_put(len, false);
            cells.push(mops(&cfg));
        }
        bench.print_row(&len.to_string(), &cells);
    }
    bench.finish();
}
