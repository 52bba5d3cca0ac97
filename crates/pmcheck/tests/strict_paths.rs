//! Strict-mode runs of the real persistence paths: the oplog and the full
//! FlatStore engine execute against a traced region and must produce
//! **zero** checker violations. A deliberately buggy fixture (an append
//! that drops the entry flush) proves the checker actually fires on the
//! class of bug these paths are being cleared of.

use std::collections::HashMap;
use std::sync::Arc;

use flatstore::{Config, FlatStore};
use oplog::{LogEntry, OpLog};
use pmalloc::{ChunkManager, CHUNK_SIZE};
use pmcheck::{checked_region, Checker, Rule};
use pmem::{PmAddr, PmRegion};
use workloads::value_bytes;

/// Descriptor area in chunk 0, pool chunks after — the oplog tests' layout,
/// but on a checked (traced) region.
fn checked_log_setup(nchunks: u32) -> (pmcheck::CheckedRegion, Arc<ChunkManager>) {
    let region = checked_region((nchunks as usize + 1) * CHUNK_SIZE as usize);
    let mgr = Arc::new(ChunkManager::format(
        Arc::clone(region.pm()),
        PmAddr(CHUNK_SIZE),
        nchunks,
    ));
    (region, mgr)
}

#[test]
fn oplog_append_paths_are_checker_clean() {
    let (region, mgr) = checked_log_setup(4);
    let mut log = OpLog::create(mgr, PmAddr(0)).unwrap();
    // Mixed batches: inline payloads, pointer entries, tombstones, and the
    // degenerate single-entry batch.
    for round in 0..20u64 {
        let entries: Vec<_> = (0..64u64)
            .map(|k| match k % 3 {
                0 => LogEntry::put_inline(round * 100 + k, round as u32 + 1, vec![k as u8; 40])
                    .unwrap(),
                1 => LogEntry::put_ptr(round * 100 + k, round as u32 + 1, PmAddr(0x100 * (k + 1))),
                _ => LogEntry::tombstone(round * 100 + k, round as u32 + 1),
            })
            .collect();
        log.append_batch(&entries).unwrap();
        log.append_batch(&entries[..1]).unwrap();
        region.sync(); // bound trace memory; checker state carries over
    }
    region.assert_clean("oplog append_batch");
}

#[test]
fn oplog_recovery_and_cleaning_are_checker_clean() {
    let (region, mgr) = checked_log_setup(6);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();

    // Fill past one chunk so cleaning has a victim; odd keys are
    // overwritten every round so the first chunk accumulates garbage.
    let mut index: HashMap<u64, (u32, PmAddr)> = HashMap::new();
    let mut version = 1u32;
    let mut round = 0u64;
    while log.chunks().len() < 2 {
        let entries: Vec<_> = (0..512u64)
            .map(|k| {
                let key = if k % 2 == 0 { round * 10_000 + k } else { k };
                LogEntry::put_inline(key, version, vec![k as u8; 40]).unwrap()
            })
            .collect();
        let addrs = log.append_batch(&entries).unwrap();
        for (e, a) in entries.iter().zip(&addrs) {
            if let Some((_, old)) = index.insert(e.key, (version, *a)) {
                log.note_dead(old);
            }
        }
        version += 1;
        round += 1;
        region.sync();
    }

    let victim = log.chunks()[0];
    let index_ref = index.clone();
    let relocs = log
        .clean_chunk(victim, |e, addr| {
            index_ref
                .get(&e.key)
                .is_some_and(|(v, a)| *v == e.version && *a == addr)
        })
        .unwrap();
    assert!(!relocs.is_empty(), "cleaning should relocate live entries");
    mgr.return_raw_chunk(victim).unwrap();
    region.assert_clean("oplog clean_chunk");

    // Recovery replays the surviving chain; it must neither trip the
    // checker itself nor lose anything the appends committed.
    let desc = log.desc();
    drop(log);
    let mut recovered = 0usize;
    let _log = OpLog::recover_headers(mgr, desc, None, |_, _| recovered += 1).unwrap();
    assert!(recovered > 0, "recovery should surface surviving entries");
    region.assert_clean("oplog recover_headers");
}

#[test]
fn flatstore_lifecycle_is_checker_clean() {
    let cfg = Config::builder()
        .pm_bytes(64 << 20)
        .dram_bytes(8 << 20)
        .ncores(1)
        .group_size(1)
        .crash_tracking(true)
        .build()
        .expect("valid test config");

    // `create` owns its region, so tracing starts at the reopen: the whole
    // open → put/delete → get → shutdown lifecycle is checked.
    let store = FlatStore::create(cfg.clone()).unwrap();
    for k in 0..64u64 {
        store.put(k, value_bytes(k, 30)).unwrap();
    }
    let pm = store.shutdown().unwrap();

    pm.set_trace(true);
    let store = FlatStore::open(pm, cfg).unwrap();
    for k in 0..256u64 {
        // Inline values and out-of-place (allocator-backed) values both
        // exercise their durability protocols.
        let len = if k % 4 == 0 {
            2048
        } else {
            30 + (k % 40) as usize
        };
        store.put(k, value_bytes(k * 7, len)).unwrap();
    }
    for k in 0..40u64 {
        store.delete(k * 5).unwrap();
    }
    store.barrier();
    for k in 0..256u64 {
        store.get(k).unwrap();
    }
    let pm = store.shutdown().unwrap();

    let violations = Checker::scan(&pm.take_events());
    assert!(
        violations.is_empty(),
        "flatstore lifecycle produced {} violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
}

/// The seeded-bug fixture: a hand-rolled append that persists the tail
/// pointer *without flushing the entry it publishes* — exactly the
/// pointer-before-payload bug the real `append_batch` is designed to avoid.
/// The checker must flag the entry's cacheline at the commit point.
#[test]
fn dropped_entry_flush_fixture_fires() {
    let pm = Arc::new(PmRegion::with_crash_tracking(4096));
    pm.set_trace(true);

    let entry_at = PmAddr(0x100);
    let tail_at = PmAddr(0);
    // The "log entry" payload.
    pm.write(entry_at, &[0xAB; 48]);
    // BUG: the entry flush is dropped here. Correct code would
    // `pm.flush(entry_at, 48)` before publishing the tail.
    pm.write_u64(tail_at, entry_at.offset() + 48);
    pm.persist(tail_at, 8); // tail pointer flushed + fenced
    pm.commit_point(); // "the batch is durable" — it is not

    let violations = Checker::scan(&pm.take_events());
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, Rule::UnpersistedAtCommit);
    assert_eq!(violations[0].line, Some(entry_at.offset() / 64));

    // And the claim is real: a crash actually loses the unflushed entry
    // while the tail pointer survives.
    pm.simulate_crash();
    assert_eq!(pm.read_u64(tail_at), entry_at.offset() + 48);
    let mut entry = vec![0u8; 48];
    pm.read(entry_at, &mut entry);
    assert_ne!(entry, vec![0xAB; 48], "unflushed entry must not survive");
}
