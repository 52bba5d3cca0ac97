//! Figure 9 — Facebook ETC pool (trimodal sizes, zipfian tiny/small keys)
//! at Put:Get ratios 100:0, 50:50 and 5:95.

use flatstore_bench::{mops, Bench, Col, Scale};
use simkv::{BaselineKind, Engine, ExecModel, SimIndex, WorkloadSpec};

fn main() {
    let scale = Scale::from_env();
    let ratios = [("100:0", 1.0f64), ("50:50", 0.5), ("5:95", 0.05)];

    let tree: [(&str, Engine); 3] = [
        (
            "FlatStore-M",
            Engine::FlatStore {
                model: ExecModel::PipelinedHb,
                index: SimIndex::Masstree,
            },
        ),
        ("FAST&FAIR", Engine::Baseline(BaselineKind::FastFair)),
        ("FPTree", Engine::Baseline(BaselineKind::FpTree)),
    ];
    let hash: [(&str, Engine); 3] = [
        (
            "FlatStore-H",
            Engine::FlatStore {
                model: ExecModel::PipelinedHb,
                index: SimIndex::Hash,
            },
        ),
        (
            "Level-Hashing",
            Engine::Baseline(BaselineKind::LevelHashing),
        ),
        ("CCEH", Engine::Baseline(BaselineKind::Cceh)),
    ];

    let mut bench = Bench::new("fig9");
    for (i, (title, section, systems)) in [
        ("(a): ETC, tree-based", "fig9a_etc_tree", tree),
        ("(b): ETC, hash-based", "fig9b_etc_hash", hash),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            println!();
        }
        println!("== Figure 9{title} systems (Mops/s) ==");
        bench.print_header(section, "Put:Get", systems.map(|(n, _)| Col::mops(n)));
        for (label, put_ratio) in ratios {
            let mut cells = Vec::new();
            for (_, engine) in systems {
                let mut cfg = scale.config();
                cfg.engine = engine;
                cfg.workload = WorkloadSpec::Etc { put_ratio };
                cells.push(mops(&cfg));
            }
            bench.print_row(label, &cells);
        }
    }
    bench.finish();
}
