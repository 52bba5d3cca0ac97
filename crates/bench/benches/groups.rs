//! Horizontal-batching group-size sweep (paper §3.3 "Pipelined HB with
//! Grouping"): "smaller group size incurs low locking overhead, with the
//! cost of decreased size of each batch, or conversely. … arranging all
//! the cores from the same socket into one group provides the optimal
//! performance." The paper states this without a figure; this harness
//! regenerates the trade-off curve.

use flatstore_bench::{run, ycsb_put, Bench, Col, Scale};
use simkv::{Engine, ExecModel, SimIndex};

fn main() {
    let scale = Scale::from_env();
    let cores = scale.ncores;
    println!(
        "== HB group-size sweep: {cores} cores, 64 B values, 100 % Put (RPC ceiling relaxed) =="
    );
    let mut bench = Bench::new("groups");
    bench
        .table(
            "hb_group_size",
            12,
            [
                Col::headed("Mops/s", "FlatStore-H", "mops"),
                Col::headed("avg batch", "FlatStore-H", "avg_batch").fmt(12, 1),
                Col::headed("p99 (us)", "FlatStore-H", "p99_us").fmt(12, 1),
            ],
        )
        .header("group size", "");
    let mut sizes: Vec<usize> = vec![1, 2, 4];
    let mut g = 8;
    while g < cores {
        sizes.push(g);
        g *= 2;
    }
    sizes.push(cores.div_ceil(2)); // one socket (the paper's optimum)
    sizes.push(cores); // whole machine in one group
    sizes.sort_unstable();
    sizes.dedup();

    for group in sizes {
        let mut cfg = scale.config();
        cfg.engine = Engine::FlatStore {
            model: ExecModel::PipelinedHb,
            index: SimIndex::Hash,
        };
        cfg.group_size = group;
        cfg.net.nic_ns_per_msg = 5.0;
        cfg.workload = ycsb_put(64, false);
        let s = run(&cfg);
        bench.print_row(&group.to_string(), &[s.mops, s.avg_batch, s.p99_ns / 1e3]);
    }
    println!("(group size 1 degenerates to vertical batching)");
    bench.finish();
}
