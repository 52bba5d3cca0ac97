//! Figure 10 — multicore scalability: throughput with 4–36 server cores,
//! 100 % Put, 64 B values, uniform and skewed keys. Cores are spread over
//! two sockets; the HB group size grows with the per-socket core count.

use flatstore_bench::{mops, ycsb_put, Bench, Col, Scale};
use simkv::{Engine, ExecModel, SimIndex};

fn main() {
    let scale = Scale::from_env();
    let max = scale.ncores;
    let steps: Vec<usize> = [4usize, 8, 12, 16, 20, 26, 30, 36]
        .into_iter()
        .filter(|&c| c <= max)
        .collect();

    println!("== Figure 10: throughput with varying server cores (Mops/s) ==");
    let mut bench = Bench::new("fig10");
    bench.print_header(
        "fig10_core_scaling",
        "cores",
        ["FS-H uni", "FS-H skew", "FS-M uni", "FS-M skew"].map(Col::mops),
    );
    for &cores in &steps {
        let mut cells = Vec::new();
        // Header order: hash-uni, hash-skew, mass-uni, mass-skew.
        for index in [SimIndex::Hash, SimIndex::Masstree] {
            for skew in [false, true] {
                let mut cfg = scale.config();
                cfg.engine = Engine::FlatStore {
                    model: ExecModel::PipelinedHb,
                    index,
                };
                cfg.ncores = cores;
                cfg.group_size = cores.div_ceil(2).max(1);
                cfg.clients = (cores * 8).max(16);
                cfg.workload = ycsb_put(64, skew);
                cells.push(mops(&cfg));
            }
        }
        bench.print_row(&cores.to_string(), &cells);
    }
    bench.finish();
}
