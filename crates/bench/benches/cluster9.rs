//! Cluster scaling — `simkv::run_cluster` sweeps 1/2/4 replica groups
//! under a zipf-skewed mixed workload and reports aggregate Mops plus
//! the analytic hot-slot migration model (suffix-ship window vs. flip
//! pause). Groups run concurrently in virtual time, so this is the
//! throughput-vs-group-count plot the hardware testbed would produce.
//! The real engine's live migration is checked for correctness by
//! `flatclus/tests/cluster_tests.rs`, not timed here.

use flatstore_bench::{Bench, Col, Scale};
use simkv::{run_cluster, ClusterSimConfig, WorkloadSpec};
use workloads::KeyDist;

const GROUP_COUNTS: [usize; 3] = [1, 2, 4];

fn main() {
    let scale = Scale::from_env();
    println!(
        "== BENCH cluster: throughput vs groups + migration pause, zipf 0.99, 64 B, 50 % Put =="
    );

    let mut base = scale.config();
    base.workload = WorkloadSpec::Ycsb {
        dist: KeyDist::Zipfian { theta: 0.99 },
        value_len: 64,
        put_ratio: 0.5,
    };
    let mut bench = Bench::new("cluster9");
    bench.print_header(
        "cluster_scaling",
        "sim groups",
        [
            Col::headed("Mops", "cluster", "mops"),
            Col::headed("p99 us", "cluster", "p99_us"),
            Col::headed("hot share", "cluster", "hot_slot_share"),
            Col::headed("window ms", "migration", "window_ms"),
            Col::headed("pause us", "migration", "pause_us"),
        ],
    );
    for groups in GROUP_COUNTS {
        let s = run_cluster(&ClusterSimConfig {
            groups,
            nslots: workloads::NSLOTS,
            base: base.clone(),
        });
        bench.print_row(
            &groups.to_string(),
            &[
                s.mops,
                s.p99_ns / 1e3,
                s.hot_slot_share,
                s.migration.window_ns / 1e6,
                s.migration.pause_ns / 1e3,
            ],
        );
    }
    println!();
    bench.finish();
}
