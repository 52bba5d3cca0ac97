//! End-to-end engine tests: correctness across index kinds, concurrency,
//! crash recovery, clean shutdown and log cleaning.

use flatstore::{Config, FlatStore, IndexKind, Op, Reply, StoreError};
use workloads::value_bytes;

fn cfg(ncores: usize) -> Config {
    Config::builder()
        .pm_bytes(128 << 20)
        .dram_bytes(16 << 20)
        .ncores(ncores)
        .group_size(ncores.max(1))
        .crash_tracking(false)
        .build()
        .expect("valid test config")
}

#[test]
fn put_get_delete_round_trip() {
    let store = FlatStore::create(cfg(2)).unwrap();
    for k in 0..500u64 {
        store.put(k, value_bytes(k, 32)).unwrap();
    }
    for k in 0..500u64 {
        assert_eq!(store.get(k).unwrap(), Some(value_bytes(k, 32)), "key {k}");
    }
    assert_eq!(store.get(10_000).unwrap(), None);
    assert!(store.delete(123).unwrap());
    assert_eq!(store.get(123).unwrap(), None);
    assert!(!store.delete(123).unwrap());
    assert_eq!(store.len(), 499);
}

#[test]
fn overwrites_return_latest() {
    let store = FlatStore::create(cfg(2)).unwrap();
    for round in 1..=5u64 {
        for k in 0..50u64 {
            store.put(k, value_bytes(k * round + 1, 24)).unwrap();
        }
    }
    for k in 0..50u64 {
        assert_eq!(store.get(k).unwrap(), Some(value_bytes(k * 5 + 1, 24)));
    }
    assert_eq!(store.len(), 50);
}

#[test]
fn values_span_inline_and_allocator_paths() {
    let store = FlatStore::create(cfg(2)).unwrap();
    // 1 B (inline), 256 B (inline boundary), 257 B (allocator), 4 KB, 1 MB.
    for (k, len) in [(1u64, 1usize), (2, 256), (3, 257), (4, 4096), (5, 1 << 20)] {
        store.put(k, value_bytes(k, len)).unwrap();
    }
    for (k, len) in [(1u64, 1usize), (2, 256), (3, 257), (4, 4096), (5, 1 << 20)] {
        assert_eq!(
            store.get(k).unwrap(),
            Some(value_bytes(k, len)),
            "len {len}"
        );
    }
}

#[test]
fn empty_values_and_reserved_keys_rejected() {
    let store = FlatStore::create(cfg(1)).unwrap();
    assert_eq!(store.put(1, b""), Err(StoreError::EmptyValue));
    assert_eq!(store.put(u64::MAX, b"x"), Err(StoreError::ReservedKey));
}

#[test]
fn cloned_handles_on_three_threads_keep_every_put() {
    let store = FlatStore::create(cfg(3)).unwrap();
    let handle = store.handle();
    let mut joins = Vec::new();
    for t in 0..3u64 {
        let h = handle.clone();
        joins.push(std::thread::spawn(move || {
            for i in 0..300u64 {
                let k = t * 1000 + i;
                h.put(k, value_bytes(k, 40)).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    for t in 0..3u64 {
        for i in 0..300u64 {
            let k = t * 1000 + i;
            assert_eq!(store.get(k).unwrap(), Some(value_bytes(k, 40)), "key {k}");
        }
    }
    assert_eq!(store.len(), 900);
}

#[test]
fn all_index_kinds_are_correct() {
    for kind in [IndexKind::Hash, IndexKind::Masstree] {
        let mut c = cfg(2);
        c.index = kind;
        let store = FlatStore::create(c).unwrap();
        for k in 0..400u64 {
            store.put(k, value_bytes(k, 16)).unwrap();
        }
        for k in 0..400u64 {
            assert_eq!(store.get(k).unwrap(), Some(value_bytes(k, 16)), "{kind:?}");
        }
        store.delete(7).unwrap();
        assert_eq!(store.get(7).unwrap(), None);
    }
}

#[test]
fn range_scan_on_masstree() {
    let mut c = cfg(2);
    c.index = IndexKind::Masstree;
    let store = FlatStore::create(c).unwrap();
    for k in (0..200u64).rev() {
        store.put(k * 2, value_bytes(k, 20)).unwrap();
    }
    store.barrier();
    let got = store.range(10, 50, 100).unwrap();
    let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
    let expect: Vec<u64> = (10..50).filter(|k| k % 2 == 0).collect();
    assert_eq!(keys, expect);
    for (k, v) in got {
        assert_eq!(v, value_bytes(k / 2, 20));
    }
    // Limit respected.
    assert_eq!(store.range(0, 400, 5).unwrap().len(), 5);
}

#[test]
fn range_unsupported_on_hash() {
    let store = FlatStore::create(cfg(1)).unwrap();
    assert_eq!(
        store.range(0, 10, 10).unwrap_err(),
        StoreError::RangeUnsupported
    );
}

#[test]
fn concurrent_mixed_clients() {
    let store = FlatStore::create(cfg(4)).unwrap();
    let handle = store.handle();
    let mut joins = Vec::new();
    for t in 0..6u64 {
        let h = handle.clone();
        joins.push(std::thread::spawn(move || {
            for i in 0..400u64 {
                let k = i % 200; // heavy key overlap across clients
                match (t + i) % 3 {
                    0 => {
                        h.put(k, value_bytes(k + t, 30)).unwrap();
                    }
                    1 => {
                        let _ = h.get(k).unwrap();
                    }
                    _ => {
                        let _ = h.delete(k).unwrap();
                    }
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    store.barrier();
    // Batching actually happened under concurrency.
    assert!(
        store
            .stats()
            .batches
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
}

#[test]
fn clean_shutdown_and_reopen() {
    let mut c = cfg(2);
    c.crash_tracking = true;
    let store = FlatStore::create(c.clone()).unwrap();
    for k in 0..300u64 {
        store.put(k, value_bytes(k, 48)).unwrap();
    }
    store.delete(5).unwrap();
    store.delete(6).unwrap();
    let pm = store.shutdown().unwrap();

    let store = FlatStore::open(pm, c).unwrap();
    assert_eq!(store.len(), 298);
    for k in 0..300u64 {
        let expect = (k != 5 && k != 6).then(|| value_bytes(k, 48));
        assert_eq!(store.get(k).unwrap(), expect, "key {k}");
    }
    // The store remains fully usable: new writes and deletes work.
    store.put(5, value_bytes(500, 48)).unwrap();
    assert_eq!(store.get(5).unwrap(), Some(value_bytes(500, 48)));
}

#[test]
fn crash_recovery_preserves_acknowledged_writes() {
    let mut c = cfg(2);
    c.crash_tracking = true;
    let store = FlatStore::create(c.clone()).unwrap();
    for k in 0..300u64 {
        store.put(k, value_bytes(k, 100)).unwrap();
    }
    // Mix of inline and out-of-log values.
    for k in 0..50u64 {
        store.put(k, value_bytes(k + 1, 1000)).unwrap();
    }
    store.delete(10).unwrap();
    store.barrier();
    let pm = store.kill();
    pm.simulate_crash();

    let store = FlatStore::open(pm, c).unwrap();
    for k in 0..300u64 {
        let expect = if k == 10 {
            None
        } else if k < 50 {
            Some(value_bytes(k + 1, 1000))
        } else {
            Some(value_bytes(k, 100))
        };
        assert_eq!(store.get(k).unwrap(), expect, "key {k}");
    }
    // Version continuity: a new Put to the deleted key wins over the
    // tombstone even across another crash.
    store.put(10, value_bytes(99, 64)).unwrap();
    store.barrier();
    let pm = store.kill();
    pm.simulate_crash();
    let store = FlatStore::open(pm, cfg(2)).unwrap();
    assert_eq!(store.get(10).unwrap(), Some(value_bytes(99, 64)));
}

#[test]
fn crash_recovery_after_overwrites_keeps_newest() {
    let mut c = cfg(2);
    c.crash_tracking = true;
    let store = FlatStore::create(c.clone()).unwrap();
    for round in 0..6u64 {
        for k in 0..100u64 {
            store.put(k, value_bytes(k + round * 7, 64)).unwrap();
        }
    }
    store.barrier();
    let pm = store.kill();
    pm.simulate_crash();
    let store = FlatStore::open(pm, c).unwrap();
    for k in 0..100u64 {
        assert_eq!(store.get(k).unwrap(), Some(value_bytes(k + 35, 64)));
    }
    assert_eq!(store.len(), 100);
}

#[test]
fn gc_reclaims_space_under_overwrite_pressure() {
    let mut c = cfg(2);
    c.pm_bytes = 64 << 20; // 15 pool chunks
    c.gc.min_free_chunks = 10;
    c.gc.max_live_ratio = 0.9;
    let store = FlatStore::create(c).unwrap();
    // Overwrite a small key set with inline values until several chunks
    // fill with dead entries.
    for round in 0..300u64 {
        for k in 0..400u64 {
            store.put(k, value_bytes(k + round, 200)).unwrap();
        }
    }
    store.barrier();
    // Wait for quarantined chunks to mature and be released.
    std::thread::sleep(std::time::Duration::from_millis(60));
    for k in 0..10u64 {
        store.put(100_000 + k, value_bytes(k, 8)).unwrap();
    }
    store.barrier();
    let cleaned = store
        .stats()
        .gc_chunks
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(cleaned > 0, "cleaner never ran");
    // All data still correct after cleaning.
    for k in 0..400u64 {
        assert_eq!(store.get(k).unwrap(), Some(value_bytes(k + 299, 200)));
    }
    assert!(store.free_chunks() > 0);
}

#[test]
fn gc_then_crash_recovery_is_consistent() {
    let mut c = cfg(2);
    c.pm_bytes = 64 << 20;
    c.crash_tracking = true;
    c.gc.min_free_chunks = 10;
    c.gc.max_live_ratio = 0.9;
    let store = FlatStore::create(c.clone()).unwrap();
    for round in 0..400u64 {
        for k in 0..300u64 {
            store.put(k, value_bytes(k * round + 3, 180)).unwrap();
        }
    }
    store.barrier();
    assert!(
        store
            .stats()
            .gc_chunks
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "test needs GC to have run"
    );
    let pm = store.kill();
    pm.simulate_crash();
    let store = FlatStore::open(pm, c).unwrap();
    for k in 0..300u64 {
        assert_eq!(
            store.get(k).unwrap(),
            Some(value_bytes(k * 399 + 3, 180)),
            "key {k}"
        );
    }
}

#[test]
fn out_of_space_is_an_error_not_a_crash() {
    let mut c = cfg(1);
    c.pm_bytes = 24 << 20; // 5 pool chunks: log + a few huge values
    c.gc.enabled = false;
    let store = FlatStore::create(c).unwrap();
    let mut hit_oom = false;
    for k in 0..40u64 {
        match store.put(k, value_bytes(k, 3 << 20)) {
            Ok(()) => {}
            Err(StoreError::OutOfSpace) => {
                hit_oom = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(hit_oom, "expected OOM in a tiny region");
    // Store still serves reads.
    assert_eq!(store.get(0).unwrap(), Some(value_bytes(0, 3 << 20)));
}

#[test]
fn pipelined_hb_batches_multiple_cores_entries() {
    let store = FlatStore::create(cfg(4)).unwrap();
    let handle = store.handle();
    let mut joins = Vec::new();
    for t in 0..8u64 {
        let h = handle.clone();
        joins.push(std::thread::spawn(move || {
            for i in 0..500u64 {
                h.put(t * 10_000 + i, value_bytes(i, 8)).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let stats = store.stats();
    let avg = stats.avg_batch();
    assert!(avg >= 1.0, "avg batch {avg}");
    // With 8 concurrent clients over 4 cores some batches must carry more
    // than one entry (stealing worked).
    assert!(
        stats
            .batched_entries
            .load(std::sync::atomic::Ordering::Relaxed)
            > stats.batches.load(std::sync::atomic::Ordering::Relaxed),
        "no multi-entry batch was ever formed"
    );
}

#[test]
fn handle_is_usable_from_many_threads_after_store_drop_errors() {
    let store = FlatStore::create(cfg(2)).unwrap();
    let handle = store.handle();
    store.put(1, b"x").unwrap();
    drop(store); // workers stop
    assert_eq!(handle.put(2, b"y"), Err(StoreError::ShuttingDown));
}

#[test]
fn pipelined_same_key_puts_keep_version_order() {
    // Multiple clients hammer one hot key concurrently: Put-after-Put
    // pipelines (no conflict stall), versions order the overwrites, and
    // the final state is some client's *last* write — before and after a
    // crash.
    let mut c = cfg(3);
    c.crash_tracking = true;
    let store = FlatStore::create(c.clone()).unwrap();
    let handle = store.handle();
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let h = handle.clone();
        joins.push(std::thread::spawn(move || {
            for i in 0..500u64 {
                h.put(42, value_bytes(t * 10_000 + i, 32)).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    store.barrier();
    let finals: Vec<Vec<u8>> = (0..4u64)
        .map(|t| value_bytes(t * 10_000 + 499, 32))
        .collect();
    let got = store.get(42).unwrap().unwrap();
    assert!(
        finals.contains(&got),
        "final value is not any client's last write"
    );
    assert_eq!(store.len(), 1);

    let pm = store.kill();
    pm.simulate_crash();
    let store = FlatStore::open(pm, c).unwrap();
    assert_eq!(store.get(42).unwrap().as_deref(), Some(got.as_slice()));
}

#[test]
fn get_after_put_same_key_reads_own_write() {
    // The conflict queue still guarantees read-your-writes per key.
    let store = FlatStore::create(cfg(2)).unwrap();
    let handle = store.handle();
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let h = handle.clone();
        joins.push(std::thread::spawn(move || {
            for i in 0..300u64 {
                let key = 1000 + t; // per-thread key
                let v = value_bytes(t * 1_000 + i, 24);
                h.put(key, &v).unwrap();
                assert_eq!(h.get(key).unwrap().as_deref(), Some(v.as_slice()));
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn ordered_index_gc_and_crash_compose() {
    // FlatStore-M with cleaning pressure, then a crash: relocated entries,
    // CAS-updated Masstree pointers and the recovery scan must agree.
    let mut c = cfg(2);
    c.index = IndexKind::Masstree;
    c.pm_bytes = 64 << 20;
    c.crash_tracking = true;
    c.gc.min_free_chunks = 10;
    c.gc.max_live_ratio = 0.9;
    let store = FlatStore::create(c.clone()).unwrap();
    for round in 0..250u64 {
        for k in 0..300u64 {
            loop {
                match store.put(k, value_bytes(k * 13 + round, 190)) {
                    Ok(()) => break,
                    Err(StoreError::OutOfSpace) => {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        }
    }
    store.barrier();
    assert!(
        store
            .stats()
            .gc_chunks
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "cleaner must have run"
    );
    // Range scan sees relocated entries correctly.
    let rows = store.range(10, 20, 100).unwrap();
    assert_eq!(rows.len(), 10);
    for (k, v) in rows {
        assert_eq!(v, value_bytes(k * 13 + 249, 190));
    }
    let pm = store.kill();
    pm.simulate_crash();
    let store = FlatStore::open(pm, c).unwrap();
    for k in 0..300u64 {
        assert_eq!(
            store.get(k).unwrap(),
            Some(value_bytes(k * 13 + 249, 190)),
            "key {k}"
        );
    }
    let rows = store.range(0, 300, 1000).unwrap();
    assert_eq!(rows.len(), 300);
}

/// Puts `value(i)` under `key(i)` for every `i` in `ops` through one
/// pipelined session, asserting that every Put is acked.
fn pipelined_puts(
    store: &FlatStore,
    ops: std::ops::Range<u64>,
    key: impl Fn(u64) -> u64,
    value: impl Fn(u64) -> Vec<u8>,
) {
    let mut session = store.session().unwrap();
    let mut replies = Vec::new();
    for i in ops {
        session.submit(Op::put(key(i), value(i))).unwrap();
        if i % 1024 == 0 {
            replies.extend(session.poll_completions());
        }
        for (_, reply) in replies.drain(..) {
            assert_eq!(reply, Reply::Put(Ok(())), "put {i}");
        }
    }
    for (_, reply) in session.wait_all().unwrap() {
        assert_eq!(reply, Reply::Put(Ok(())));
    }
}

#[test]
fn versions_wrap_without_dropping_acked_puts() {
    // One key overwritten past 2^20 times: its 20-bit version wraps to 0
    // at the 2^20-th Put. A 32 MiB pool holds at most seven chunks of
    // 77 B entries (< 2^19), so the key's versions present in the log
    // stay within the window `newer` orders unambiguously.
    const WRAP: u64 = 1 << 20;
    let mut c = cfg(1);
    c.pm_bytes = 32 << 20;
    c.crash_tracking = true;
    let store = FlatStore::create(c.clone()).unwrap();
    let value = |i: u64| value_bytes(i, 64);
    pipelined_puts(&store, 0..WRAP + 8, |_| 7, value);
    assert_eq!(store.get(7).unwrap(), Some(value(WRAP + 7)));
    pipelined_puts(&store, WRAP + 8..WRAP + 4096, |_| 7, value);
    let last = value(WRAP + 4095);
    assert_eq!(store.get(7).unwrap().as_ref(), Some(&last));
    let pm = store.kill();
    pm.simulate_crash();
    let store = FlatStore::open(pm, c).unwrap();
    assert_eq!(store.get(7).unwrap(), Some(last));
    assert_eq!(store.len(), 1);
}

#[test]
fn tight_pool_cleaner_goes_idle_at_rest() {
    // Five pool chunks, fewer than the default min_free_chunks (8), so
    // the cleaner is under pressure all run long. 64 anchor keys written
    // once, then overwrites of 2 k other keys: cleaning moves the anchors
    // into an all-live survivor chunk, and cleaning that chunk again
    // would take a fresh chunk for the one it frees — forever, at rest.
    let mut c = cfg(1);
    c.pm_bytes = 24 << 20;
    let store = FlatStore::create(c).unwrap();
    let key = |i: u64| match i {
        0..64 => 1 << 20 | i,
        _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 53,
    };
    let ops = 0..60_000;
    pipelined_puts(&store, ops.clone(), key, |i| value_bytes(i, 256));
    let gc_chunks = || {
        store
            .stats()
            .gc_chunks
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    assert!(gc_chunks() > 0, "the cleaner never ran");
    // At rest the cleaner finishes whatever still pays, then stops.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let settled = gc_chunks();
    std::thread::sleep(std::time::Duration::from_millis(200));
    assert_eq!(gc_chunks(), settled, "an idle store kept cleaning");
    let mut newest = std::collections::HashMap::new();
    for i in ops {
        newest.insert(key(i), i);
    }
    for (k, i) in newest {
        assert_eq!(store.get(k).unwrap(), Some(value_bytes(i, 256)), "key {k}");
    }
}

/// Long soak: millions of mixed operations with periodic crash/recover
/// cycles. Run explicitly with `cargo test -p flatstore -- --ignored`.
#[test]
#[ignore = "multi-minute soak; run with --ignored"]
fn soak_mixed_ops_with_periodic_crashes() {
    let mut c = cfg(3);
    c.pm_bytes = 512 << 20;
    c.crash_tracking = true;
    let mut store = FlatStore::create(c.clone()).unwrap();
    let mut model: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
    let mut gen = workloads::Workload::new(
        20_000,
        workloads::KeyDist::Zipfian { theta: 0.99 },
        0,
        0.6,
        99,
    );
    let mut serial = 0u64;
    for cycle in 0..6 {
        for _ in 0..100_000 {
            serial += 1;
            let key = gen.next_key();
            match serial % 10 {
                0..=5 => {
                    let len = 8 + (serial % 900) as usize;
                    let v = value_bytes(key ^ serial, len);
                    store.put(key, &v).unwrap();
                    model.insert(key, v);
                }
                6..=8 => {
                    assert_eq!(store.get(key).unwrap(), model.get(&key).cloned());
                }
                _ => {
                    assert_eq!(store.delete(key).unwrap(), model.remove(&key).is_some());
                }
            }
        }
        store.barrier();
        let pm = store.kill();
        pm.simulate_crash();
        store = FlatStore::open(pm, c.clone()).unwrap();
        assert_eq!(store.len(), model.len(), "cycle {cycle}");
        for (k, v) in model.iter().take(500) {
            assert_eq!(store.get(*k).unwrap().as_deref(), Some(v.as_slice()));
        }
    }
}
