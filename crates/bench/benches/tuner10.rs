//! Self-tuning horizontal batching vs static group sizes.
//!
//! The paper picks a group size once ("all the cores from the same
//! socket into one group", §3.3) and lives with it; the adaptive
//! controller (`flatstore::Config::adaptive`'s DES twin) is supposed to make that
//! choice obsolete. This harness sweeps key skew × static group sizes
//! and runs the adaptive configuration against each sweep: the claim —
//! gated at test scale by `simkv/tests/adaptive_sim.rs` and re-measured
//! here at the pinned full scale — is that the adaptive point lands
//! within 5 % of the *best* static size at every skew and strictly above
//! the *worst*, without anyone telling it the skew in advance.
//!
//! Deterministic DES: the golden reproduces bit-for-bit anywhere.

use flatstore_bench::{Bench, Col, Scale};
use simkv::{run, Engine, ExecModel, SimConfig, SimIndex, WorkloadSpec};
use workloads::KeyDist;

const VALUE_LEN: usize = 64;

struct StaticPoint {
    group_size: usize,
    mops: f64,
    avg_batch: f64,
}

struct SkewSweep {
    name: &'static str,
    statics: Vec<StaticPoint>,
    adaptive_mops: f64,
    adaptive_avg_batch: f64,
}

fn cfg(scale: &Scale, dist: KeyDist) -> SimConfig {
    let mut c = scale.config();
    // Steady-state comparison: the controller converges and settles
    // within ~150 epochs, so every config — static and adaptive alike —
    // runs 3× the pinned op count with half the pinned count as warmup,
    // measuring the converged operating point rather than the transient.
    c.ops = scale.ops * 3;
    c.warmup = scale.ops / 2;
    c.engine = Engine::FlatStore {
        model: ExecModel::PipelinedHb,
        index: SimIndex::Hash,
    };
    c.workload = WorkloadSpec::Ycsb {
        dist,
        value_len: VALUE_LEN,
        put_ratio: 1.0,
    };
    c
}

fn sweep_sizes(ncores: usize) -> Vec<usize> {
    let mut sizes = vec![1, 4, ncores.div_ceil(2).max(1), ncores];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

fn main() {
    let scale = Scale::from_env();
    let sizes = sweep_sizes(scale.ncores);
    println!(
        "== BENCH adaptive batching: static group sizes {:?} vs self-tuning, {} cores, 64 B Put ==",
        sizes, scale.ncores
    );

    let dists: [(&'static str, KeyDist); 3] = [
        ("uniform", KeyDist::Uniform),
        ("zipf-0.9", KeyDist::Zipfian { theta: 0.9 }),
        ("zipf-0.99", KeyDist::Zipfian { theta: 0.99 }),
    ];

    let mut sweeps = Vec::new();
    for (name, dist) in dists {
        let statics: Vec<StaticPoint> = sizes
            .iter()
            .map(|&gs| {
                let mut c = cfg(&scale, dist);
                c.group_size = gs;
                let s = run(&c);
                StaticPoint {
                    group_size: gs,
                    mops: s.mops,
                    avg_batch: s.avg_batch,
                }
            })
            .collect();
        let mut c = cfg(&scale, dist);
        c.group_size = scale.ncores;
        c.adaptive = true;
        let a = run(&c);
        sweeps.push(SkewSweep {
            name,
            statics,
            adaptive_mops: a.mops,
            adaptive_avg_batch: a.avg_batch,
        });
    }

    let mut bench = Bench::new("tuner10");
    let mut cols: Vec<Col> = sizes
        .iter()
        .map(|g| Col::mops(&format!("static-{g}")))
        .collect();
    cols.push(Col::mops("adaptive"));
    bench.print_header("adaptive_vs_static", "skew \\ Mops", cols);
    for s in &sweeps {
        let mut cells: Vec<f64> = s.statics.iter().map(|p| p.mops).collect();
        cells.push(s.adaptive_mops);
        bench.print_row(s.name, &cells);
    }
    println!();
    for s in &sweeps {
        let best = s.statics.iter().map(|p| p.mops).fold(0.0, f64::max);
        let worst = s
            .statics
            .iter()
            .map(|p| p.mops)
            .fold(f64::INFINITY, f64::min);
        println!(
            "{}: adaptive at {:.1} % of best static, {} worst ({:.4} vs [{:.4}, {:.4}])",
            s.name,
            s.adaptive_mops / best * 100.0,
            if s.adaptive_mops > worst {
                "above"
            } else {
                "NOT above"
            },
            s.adaptive_mops,
            worst,
            best,
        );
        for p in &s.statics {
            bench.row(
                &format!("static-{}/{}_avg_batch", p.group_size, s.name),
                p.avg_batch,
            );
        }
        bench.row(
            &format!("adaptive/{}_avg_batch", s.name),
            s.adaptive_avg_batch,
        );
    }
    println!();
    bench.finish();
}
