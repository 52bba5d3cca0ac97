//! Figure 8 — Put performance of FlatStore-M / FlatStore-FF vs FPTree vs
//! FAST&FAIR (the tree family), uniform and zipfian keys, 8 B – 1 KB.

use flatstore_bench::{mops, ycsb_put, Bench, Col, Scale};
use simkv::{BaselineKind, Engine, ExecModel, SimIndex};

fn main() {
    let scale = Scale::from_env();
    let sizes = [8usize, 64, 128, 256, 512, 1024];
    let mut bench = Bench::new("fig8");
    let systems: [(&str, Engine); 4] = [
        (
            "FlatStore-M",
            Engine::FlatStore {
                model: ExecModel::PipelinedHb,
                index: SimIndex::Masstree,
            },
        ),
        (
            "FlatStore-FF",
            Engine::FlatStore {
                model: ExecModel::PipelinedHb,
                index: SimIndex::FastFair,
            },
        ),
        ("FPTree", Engine::Baseline(BaselineKind::FpTree)),
        ("FAST&FAIR", Engine::Baseline(BaselineKind::FastFair)),
    ];

    for (title, section, skew) in [
        ("(a) Uniform", "fig8a_put_uniform", false),
        ("(b) Skew (zipf 0.99)", "fig8b_put_zipf", true),
    ] {
        println!("== Figure 8{title}: Put throughput (Mops/s) ==");
        bench.print_header(section, "value (B)", systems.map(|(n, _)| Col::mops(n)));
        for &len in &sizes {
            let mut cells = Vec::new();
            for (_, engine) in systems {
                let mut cfg = scale.config();
                cfg.engine = engine;
                cfg.workload = ycsb_put(len, skew);
                cells.push(mops(&cfg));
            }
            bench.print_row(&len.to_string(), &cells);
        }
        println!();
    }
    bench.finish();
}
