//! Regression budget on wasted `clwb`s: the standard mixed workload must
//! keep [`pmem::REDUNDANT_FLUSH_BUDGET`] — see the constant's docs for why
//! the engine should essentially never flush a clean line.

use flatstore::{Config, FlatStore, Op};
use pmem::REDUNDANT_FLUSH_BUDGET;
use workloads::value_bytes;

#[test]
fn standard_workload_keeps_redundant_flush_budget() {
    let cfg = Config::builder()
        .pm_bytes(64 << 20)
        .dram_bytes(8 << 20)
        .ncores(2)
        .group_size(2)
        .build()
        .expect("valid test config");
    let store = FlatStore::create(cfg).unwrap();

    // The standard mix: inline puts, out-of-place puts, overwrites, gets
    // and deletes, plus a pipelined session burst.
    for k in 0..2_000u64 {
        let len = if k % 5 == 0 {
            1024
        } else {
            30 + (k % 64) as usize
        };
        store.put(k % 600, value_bytes(k, len)).unwrap();
        if k % 3 == 0 {
            store.get(k % 600).unwrap();
        }
        if k % 11 == 0 {
            store.delete((k + 1) % 600).unwrap();
        }
    }
    let mut session = store.session().unwrap();
    for k in 0..500u64 {
        session
            .submit(Op::put(10_000 + k, value_bytes(k, 48)))
            .unwrap();
    }
    session.wait_all().unwrap();
    drop(session);
    store.barrier();

    let s = store.pm().stats().snapshot();
    assert!(
        s.flushes > 1_000,
        "workload too small to be meaningful: {} flushes",
        s.flushes
    );
    let ratio = s.redundant_flush_ratio();
    assert!(
        ratio <= REDUNDANT_FLUSH_BUDGET,
        "redundant flush ratio {:.4} ({} of {} flushes) exceeds the {:.2}% budget",
        ratio,
        s.redundant_flushes,
        s.flushes,
        REDUNDANT_FLUSH_BUDGET * 100.0
    );
}
