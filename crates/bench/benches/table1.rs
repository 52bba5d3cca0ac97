//! Table 1 — description of the compared index schemes, augmented with a
//! structural self-check: measured flushes and fences per Put on each
//! freshly loaded persistent index (the write-amplification the paper's
//! §2.2 analysis predicts).

use std::sync::Arc;

use flatstore_bench::{Bench, Col};
use indexes::{Cceh, FastFair, FpTree, Index, LevelHash, Mode};
use pmem::{PmAddr, PmRegion};

fn profile(bench: &mut Bench, name: &str, desc: &str, idx: &mut dyn Index, pm: &PmRegion) {
    // Load phase.
    for k in 0..20_000u64 {
        idx.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k).unwrap();
    }
    let before = pm.stats().snapshot();
    let ops = 5_000u64;
    for k in 0..ops {
        idx.insert(k.wrapping_mul(0xD1B54A32D192ED03), k).unwrap();
    }
    let d = pm.stats().snapshot().delta(&before);
    bench.print_row_note(
        name,
        &[d.flushes as f64 / ops as f64, d.fences as f64 / ops as f64],
        desc,
    );
}

fn main() {
    println!("== Table 1: compared index schemes ==");
    let mut bench = Bench::new("table1");
    bench
        .table(
            "table1_index_persistence",
            14,
            [
                Col::headed("flushes/Put", "flushes", "per_put").fmt(11, 2),
                Col::headed("fences/Put", "fences", "per_put").fmt(11, 2),
            ],
        )
        .header("scheme", "structure");
    println!("{}", "-".repeat(100));

    let pm = Arc::new(PmRegion::new(512 << 20));
    let mut cceh = Cceh::new(Arc::clone(&pm), PmAddr(0), 128 << 20, Mode::Persistent, 4).unwrap();
    profile(
        &mut bench,
        "CCEH",
        "three level (directory, segments, buckets), 4 slots in a bucket",
        &mut cceh,
        &pm,
    );

    let pm = Arc::new(PmRegion::new(512 << 20));
    let mut level = LevelHash::new(
        Arc::clone(&pm),
        PmAddr(0),
        256 << 20,
        Mode::Persistent,
        16_384,
    )
    .unwrap();
    profile(
        &mut bench,
        "Level-Hashing",
        "two-level (top/bottom level), 4 slots in a bucket",
        &mut level,
        &pm,
    );

    let pm = Arc::new(PmRegion::new(512 << 20));
    let mut ff = FastFair::new(Arc::clone(&pm), PmAddr(0), 256 << 20, Mode::Persistent).unwrap();
    profile(
        &mut bench,
        "FAST&FAIR",
        "B+-tree, all nodes are placed in PM",
        &mut ff,
        &pm,
    );

    let pm = Arc::new(PmRegion::new(512 << 20));
    let mut fp = FpTree::new(Arc::clone(&pm), PmAddr(0), 256 << 20, Mode::Persistent).unwrap();
    profile(
        &mut bench,
        "FPTree",
        "B+-tree, inner nodes are placed in DRAM, leaves in PM",
        &mut fp,
        &pm,
    );

    println!();
    println!("(FlatStore's compacted log costs 5 flushes / 2 fences for a batch of");
    println!(" SIXTEEN 16-byte entries — see oplog::tests and Figure 11.)");
    bench.finish();
}
