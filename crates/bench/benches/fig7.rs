//! Figure 7 — Put performance of FlatStore-H vs CCEH vs Level-Hashing,
//! uniform and zipfian(0.99) key popularity, value sizes 8 B – 1 KB.

use flatstore_bench::{mops, ycsb_put, Bench, Col, Scale};
use simkv::{BaselineKind, Engine, ExecModel, SimIndex};

fn main() {
    let scale = Scale::from_env();
    let sizes = [8usize, 64, 128, 256, 512, 1024];
    let mut bench = Bench::new("fig7");
    let systems: [(&str, Engine); 3] = [
        (
            "FlatStore-H",
            Engine::FlatStore {
                model: ExecModel::PipelinedHb,
                index: SimIndex::Hash,
            },
        ),
        ("CCEH", Engine::Baseline(BaselineKind::Cceh)),
        (
            "Level-Hashing",
            Engine::Baseline(BaselineKind::LevelHashing),
        ),
    ];

    for (title, section, skew) in [
        ("(a) Uniform", "fig7a_put_uniform", false),
        ("(b) Skew (zipf 0.99)", "fig7b_put_zipf", true),
    ] {
        println!("== Figure 7{title}: Put throughput (Mops/s) ==");
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
