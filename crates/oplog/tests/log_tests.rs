//! Integration tests for the operation log: batching arithmetic, padding,
//! chunk rollover, cleaning and crash recovery.

use std::collections::HashMap;
use std::sync::Arc;

use oplog::{LogEntry, LogError, LogOp, OpLog, Payload};
use pmalloc::{ChunkManager, CHUNK_SIZE};
use pmem::{PmAddr, PmRegion};

/// Builds a PM layout: descriptors in the first 4 MB, `nchunks` pool chunks
/// after.
fn setup(nchunks: u32, crash: bool) -> (Arc<PmRegion>, Arc<ChunkManager>) {
    let len = (nchunks as usize + 1) * CHUNK_SIZE as usize;
    let pm = if crash {
        Arc::new(PmRegion::with_crash_tracking(len))
    } else {
        Arc::new(PmRegion::new(len))
    };
    let mgr = Arc::new(ChunkManager::format(
        Arc::clone(&pm),
        PmAddr(CHUNK_SIZE),
        nchunks,
    ));
    (pm, mgr)
}

#[test]
fn batch_of_16_ptr_entries_costs_5_flushes_2_fences() {
    let (pm, mgr) = setup(4, false);
    let mut log = OpLog::create(mgr, PmAddr(0)).unwrap();
    let entries: Vec<_> = (0..16)
        .map(|k| LogEntry::put_ptr(k, 1, PmAddr(0x100 * (k + 1))))
        .collect();
    let before = pm.stats().snapshot();
    let addrs = log.append_batch(&entries).unwrap();
    let d = pm.stats().snapshot().delta(&before);
    // 16 × 16 B = 256 B = 4 cachelines, plus the tail pointer's line.
    assert_eq!(d.flushes, 5, "batch flush count");
    assert_eq!(d.fences, 2, "entries fence + tail fence");
    assert_eq!(addrs.len(), 16);
    // The paper's headline arithmetic: same cost as one entry's batch.
    let before = pm.stats().snapshot();
    log.append_batch(&entries[..1]).unwrap();
    let d1 = pm.stats().snapshot().delta(&before);
    assert_eq!(d1.flushes, 2); // 1 line of entry + tail
    assert_eq!(d1.fences, 2);
}

#[test]
fn adjacent_batches_never_share_a_cacheline() {
    let (pm, mgr) = setup(4, false);
    let mut log = OpLog::create(mgr, PmAddr(0)).unwrap();
    let mut last_line_end = 0u64;
    for k in 0..50u64 {
        let addrs = log
            .append_batch(&[LogEntry::put_ptr(k, 1, PmAddr(0x100))])
            .unwrap();
        let line = addrs[0].cacheline();
        assert!(
            addrs[0].offset().is_multiple_of(64),
            "batch must start cacheline-aligned"
        );
        assert!(line >= last_line_end, "batches share a cacheline");
        last_line_end = line + 1;
    }
    // No redundant (same-line) flushes on the entry path; the only repeated
    // line is the tail pointer.
    let s = pm.stats().snapshot();
    assert!(s.redundant_flushes == 0);
}

#[test]
fn entries_round_trip_through_read_entry() {
    let (_pm, mgr) = setup(4, false);
    let mut log = OpLog::create(mgr, PmAddr(0)).unwrap();
    let e1 = LogEntry::put_inline(7, 3, vec![9u8; 100]).unwrap();
    let e2 = LogEntry::put_ptr(8, 4, PmAddr(CHUNK_SIZE + 0x400));
    let e3 = LogEntry::tombstone(7, 5);
    let addrs = log
        .append_batch(&[e1.clone(), e2.clone(), e3.clone()])
        .unwrap();
    assert_eq!(log.read_entry(addrs[0]).unwrap(), e1);
    assert_eq!(log.read_entry(addrs[1]).unwrap(), e2);
    assert_eq!(log.read_entry(addrs[2]).unwrap(), e3);
}

#[test]
fn chunk_rollover_links_chain() {
    let (_pm, mgr) = setup(6, false);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    // Fill more than one chunk with max-size batches.
    let batch: Vec<_> = (0..1024)
        .map(|k| LogEntry::put_ptr(k, 1, PmAddr(0x100)))
        .collect();
    let batch_bytes = 1024 * 16;
    let batches_per_chunk = (CHUNK_SIZE as usize - 128) / batch_bytes;
    let mut total = 0u64;
    for _ in 0..(batches_per_chunk + 2) {
        log.append_batch(&batch).unwrap();
        total += batch.len() as u64;
    }
    assert!(log.chunks().len() >= 2, "log should have rolled over");
    let mut seen = 0u64;
    log.scan(|_, _| seen += 1).unwrap();
    assert_eq!(seen, total);
}

#[test]
fn scan_order_preserves_append_order_within_chain() {
    let (_pm, mgr) = setup(4, false);
    let mut log = OpLog::create(mgr, PmAddr(0)).unwrap();
    for k in 0..100u64 {
        log.append_batch(&[LogEntry::put_ptr(k, k as u32, PmAddr(0x100))])
            .unwrap();
    }
    let mut keys = Vec::new();
    log.scan(|e, _| keys.push(e.key)).unwrap();
    assert_eq!(keys, (0..100).collect::<Vec<_>>());
}

#[test]
fn recovery_sees_only_persisted_tail() {
    let (pm, mgr) = setup(4, true);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    log.append_batch(&[LogEntry::put_inline(1, 1, vec![1; 8]).unwrap()])
        .unwrap();
    log.append_batch(&[LogEntry::put_inline(2, 1, vec![2; 8]).unwrap()])
        .unwrap();
    // A torn batch: written but the tail pointer was never persisted.
    let tail = log.tail();
    let mut torn = Vec::new();
    LogEntry::put_inline(3, 1, vec![3; 8])
        .unwrap()
        .encode_into(&mut torn);
    pm.write(tail, &torn);
    pm.flush(tail, torn.len());
    pm.fence();
    drop(log);
    pm.simulate_crash();

    let mgr2 = Arc::new(ChunkManager::recover(
        Arc::clone(&pm),
        PmAddr(CHUNK_SIZE),
        4,
    ));
    let mut recovered = Vec::new();
    let log = OpLog::recover_headers(mgr2, PmAddr(0), None, |h, _| recovered.push(h.key)).unwrap();
    assert_eq!(recovered, vec![1, 2], "torn entry must not be replayed");
    assert_eq!(log.tail(), tail);
}

/// A value byte flipped after its batch was persisted (a media error,
/// not a torn write: the bytes were durable before the tail covered them)
/// is replayed by the header-only scan, which keeps the tail, and is
/// reported by every path that reads the entry.
#[test]
fn media_flip_before_tail_is_replayed_and_reported_on_read() {
    let (pm, mgr) = setup(4, false);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    log.append_batch(&[
        LogEntry::put_inline(1, 1, vec![1; 8]).unwrap(),
        LogEntry::put_inline(2, 1, vec![2; 8]).unwrap(),
    ])
    .unwrap();
    let addrs = log
        .append_batch(&[LogEntry::put_inline(3, 1, vec![3; 8]).unwrap()])
        .unwrap();
    let flipped_at = addrs[0];
    let tail_before = log.tail();
    drop(log);
    let b = pm.read_u8(flipped_at + 13);
    pm.write_u8(flipped_at + 13, b ^ 0x40);
    pm.persist(flipped_at + 13, 1);

    let mut recovered = Vec::new();
    let log = OpLog::recover_headers(Arc::clone(&mgr), PmAddr(0), None, |h, _| {
        recovered.push(h.key)
    })
    .unwrap();
    assert_eq!(recovered, vec![1, 2, 3], "every acked entry is replayed");
    assert_eq!(log.tail(), tail_before, "the tail stays where it was");

    let flip = LogError::ChecksumMismatch {
        addr: flipped_at.offset(),
    };
    assert_eq!(log.read_entry(flipped_at), Err(flip.clone()));
    assert_eq!(log.scan(|_, _| {}), Err(flip));
}

/// A value flip in the middle of a chunk that is not the tail's loses no
/// later acked entry: the scan reads headers only, so every entry after
/// the flip — in that chunk and in the next — is recovered.
#[test]
fn media_flip_mid_chunk_loses_no_later_entry() {
    let (pm, mgr) = setup(6, false);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    let mut key = 0u64;
    let mut addrs = Vec::new();
    while log.chunks().len() < 3 {
        let batch: Vec<_> = (0..32)
            .map(|_| {
                key += 1;
                LogEntry::put_inline(key, 1, vec![key as u8; 64]).unwrap()
            })
            .collect();
        addrs.extend(log.append_batch(&batch).unwrap());
    }
    let first = log.chunks()[0];
    let in_first: Vec<_> = addrs
        .iter()
        .filter(|&&a| OpLog::chunk_of(a) == first)
        .collect();
    let flipped_at = *in_first[in_first.len() / 2];
    drop(log);
    let b = pm.read_u8(flipped_at + 20);
    pm.write_u8(flipped_at + 20, b ^ 0x40);
    pm.persist(flipped_at + 20, 1);

    let mut recovered = Vec::new();
    OpLog::recover_headers(mgr, PmAddr(0), None, |h, _| recovered.push(h.key)).unwrap();
    assert_eq!(recovered.len() as u64, key, "entries lost after the flip");
    assert!(recovered.into_iter().eq(1..=key), "in append order");
}

#[test]
fn recovery_after_rollover_walks_all_chunks() {
    let (pm, mgr) = setup(6, true);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    let batch: Vec<_> = (0..512)
        .map(|k| LogEntry::put_ptr(k, 1, PmAddr(0x100)))
        .collect();
    let mut total = 0u64;
    while log.chunks().len() < 3 {
        log.append_batch(&batch).unwrap();
        total += batch.len() as u64;
    }
    drop(log);
    pm.simulate_crash();
    let mgr2 = Arc::new(ChunkManager::recover(
        Arc::clone(&pm),
        PmAddr(CHUNK_SIZE),
        6,
    ));
    let mut seen = 0u64;
    OpLog::recover_headers(mgr2, PmAddr(0), None, |_, _| seen += 1).unwrap();
    assert_eq!(seen, total);
}

#[test]
fn cleaning_relocates_live_and_frees_the_chunk() {
    let (_pm, mgr) = setup(8, false);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();

    // Simulate an index: key -> (version, addr). Fill over a chunk boundary.
    // Even slots use round-unique keys (they stay live); odd slots reuse the
    // same keys every round (old versions die).
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
    }
    let victim = log.chunks()[0];
    let free_before = mgr.free_chunks();

    let index_ref = index.clone();
    let relocs = log
        .clean_chunk(victim, |e, addr| {
            index_ref
                .get(&e.key)
                .is_some_and(|(v, a)| *v == e.version && *a == addr)
        })
        .unwrap();
    // Dead entries (old versions) were dropped.
    assert!(!relocs.is_empty());
    for r in &relocs {
        let (v, a) = index.get_mut(&r.entry.key).unwrap();
        assert_eq!(*v, r.entry.version);
        assert_eq!(*a, r.old);
        *a = r.new; // CAS the index
        assert_eq!(log.read_entry(r.new).unwrap(), r.entry);
    }
    // The victim is unlinked but not yet pooled: the caller returns it
    // after the index CAS pass (grace-period reclamation).
    assert!(!log.chunks().contains(&victim));
    assert_eq!(mgr.free_chunks(), free_before - 1); // relocation target taken
    mgr.return_raw_chunk(victim).unwrap();
    assert_eq!(mgr.free_chunks(), free_before);

    // Full scan still yields exactly the live set.
    let mut live_seen: HashMap<u64, u32> = HashMap::new();
    log.scan(|e, addr| {
        if index
            .get(&e.key)
            .is_some_and(|(v, a)| *v == e.version && *a == addr)
        {
            live_seen.insert(e.key, e.version);
        }
    })
    .unwrap();
    assert_eq!(live_seen.len(), index.len());
}

#[test]
fn cleaning_empty_victim_just_frees() {
    let (_pm, mgr) = setup(8, false);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    while log.chunks().len() < 2 {
        let entries: Vec<_> = (0..512)
            .map(|k| LogEntry::put_ptr(k, 1, PmAddr(0x100)))
            .collect();
        log.append_batch(&entries).unwrap();
    }
    let victim = log.chunks()[0];
    let free_before = mgr.free_chunks();
    let relocs = log.clean_chunk(victim, |_, _| false).unwrap();
    assert!(relocs.is_empty());
    mgr.return_raw_chunk(victim).unwrap();
    assert_eq!(mgr.free_chunks(), free_before + 1);
}

#[test]
fn cleaning_the_tail_chunk_is_refused() {
    let (_pm, mgr) = setup(4, false);
    let mut log = OpLog::create(mgr, PmAddr(0)).unwrap();
    log.append_batch(&[LogEntry::put_ptr(1, 1, PmAddr(0x100))])
        .unwrap();
    let tail_chunk = log.chunks()[0];
    assert!(log.clean_chunk(tail_chunk, |_, _| true).is_err());
}

#[test]
fn usage_accounting_tracks_dead_entries() {
    let (_pm, mgr) = setup(4, false);
    let mut log = OpLog::create(mgr, PmAddr(0)).unwrap();
    let addrs = log
        .append_batch(&[
            LogEntry::put_ptr(1, 1, PmAddr(0x100)),
            LogEntry::put_ptr(2, 1, PmAddr(0x200)),
        ])
        .unwrap();
    log.note_dead(addrs[0]);
    let (_, usage) = log.usages().next().unwrap();
    assert_eq!(usage.total, 2);
    assert_eq!(usage.dead, 1);
    assert_eq!(usage.live(), 1);
    assert!((usage.live_ratio() - 0.5).abs() < 1e-9);
}

#[test]
fn note_dead_lowers_only_its_own_chunks_live_ratio() {
    let (_pm, mgr) = setup(8, false);
    let mut log = OpLog::create(mgr, PmAddr(0)).unwrap();
    let mut first_chunk_addrs = Vec::new();
    while log.chunks().len() < 2 {
        let entries: Vec<_> = (0..256)
            .map(|k| LogEntry::put_ptr(k, 1, PmAddr(0x100)))
            .collect();
        let addrs = log.append_batch(&entries).unwrap();
        if log.chunks().len() == 1 {
            first_chunk_addrs.extend(addrs);
        }
    }
    assert!(
        log.usages().all(|(_, u)| u.live_ratio() == 1.0),
        "everything is live"
    );
    // Kill 80 % of the first chunk.
    let kill = first_chunk_addrs.len() * 4 / 5;
    for a in &first_chunk_addrs[..kill] {
        log.note_dead(*a);
    }
    let first = log.chunks()[0];
    for (chunk, u) in log.usages() {
        if chunk == first {
            assert_eq!(u.dead as usize, kill);
            assert!(u.live_ratio() <= 0.5, "{u:?}");
        } else {
            assert_eq!(u.dead, 0, "tail chunk untouched");
            assert_eq!(u.live_ratio(), 1.0);
        }
    }
}

#[test]
fn tombstones_survive_the_log_round_trip() {
    let (pm, mgr) = setup(4, true);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    log.append_batch(&[
        LogEntry::put_inline(5, 1, vec![1; 10]).unwrap(),
        LogEntry::tombstone(5, 2),
    ])
    .unwrap();
    drop(log);
    pm.simulate_crash();
    let mgr2 = Arc::new(ChunkManager::recover(
        Arc::clone(&pm),
        PmAddr(CHUNK_SIZE),
        4,
    ));
    let mut ops = Vec::new();
    OpLog::recover_headers(mgr2, PmAddr(0), None, |h, _| {
        ops.push((h.op, h.key, h.version))
    })
    .unwrap();
    assert_eq!(ops, vec![(LogOp::Put, 5, 1), (LogOp::Delete, 5, 2)]);
}

#[test]
fn inline_payload_contents_preserved_across_crash() {
    let (pm, mgr) = setup(4, true);
    let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    let value: Vec<u8> = (0..=255).collect();
    log.append_batch(&[LogEntry::put_inline(9, 1, value.clone()).unwrap()])
        .unwrap();
    drop(log);
    pm.simulate_crash();
    let mgr2 = Arc::new(ChunkManager::recover(
        Arc::clone(&pm),
        PmAddr(CHUNK_SIZE),
        4,
    ));
    let mut got = None;
    OpLog::recover_headers(mgr2, PmAddr(0), None, |h, addr| {
        if let Payload::Inline(v) = h.load(&pm, addr).payload {
            got = Some(v);
        }
    })
    .unwrap();
    assert_eq!(got.as_deref(), Some(&value[..]));
}

#[test]
fn padding_off_packs_batches_but_scan_still_works() {
    let (pm, mgr) = setup(4, false);
    let mut log = OpLog::create(mgr, PmAddr(0)).unwrap();
    log.set_batch_padding(false);
    let mut n = 0u64;
    for k in 0..40u64 {
        log.append_batch(&[LogEntry::put_ptr(k, 1, PmAddr(0x100))])
            .unwrap();
        n += 1;
    }
    // Without padding, consecutive 16 B batches share cachelines: the
    // second batch in a line re-flushes it (redundant-flush counter is 0
    // only because the line was re-dirtied; instead verify density).
    let span = log.tail().offset() - (log.chunks()[0].offset() + 64);
    assert_eq!(span, n * 16, "entries must be back-to-back");
    let mut seen = 0;
    log.scan(|_, _| seen += 1).unwrap();
    assert_eq!(seen, n);
    let _ = pm;
}

#[test]
fn padding_on_spends_more_space_than_padding_off() {
    let (_pm, mgr) = setup(8, false);
    let mut padded = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    let mut packed = OpLog::create(Arc::clone(&mgr), PmAddr(64)).unwrap();
    packed.set_batch_padding(false);
    for k in 0..32u64 {
        let e = [LogEntry::put_ptr(k, 1, PmAddr(0x100))];
        padded.append_batch(&e).unwrap();
        packed.append_batch(&e).unwrap();
    }
    let used = |l: &OpLog| l.tail().offset() % pmalloc::CHUNK_SIZE - 64;
    assert!(used(&padded) > used(&packed));
    assert_eq!(used(&padded), 32 * 64, "one cacheline per padded batch");
}

/// Key of every entry log B leaves behind in the chunk it recycles.
const B_KEY: u64 = 1 << 40;

/// One of log A's batches: 512 cold keys written once and 512 hot keys
/// overwritten by every batch, all at version `round + 1`.
fn a_batch(round: u64) -> Vec<LogEntry> {
    (0..1024u64)
        .map(|i| {
            let key = if i % 2 == 0 {
                10_000 + round * 512 + i / 2
            } else {
                i / 2
            };
            LogEntry::put_ptr(key, round as u32 + 1, PmAddr(0x100))
        })
        .collect()
}

/// Builds the image a crash inside a chunk rollover leaves. Log B
/// (descriptor at 64) writes 4 096 entries of `B_KEY` into a chunk and
/// returns it to the pool; `spare` further chunks are taken and held, so
/// the only free chunk is B's. Log A (descriptor at 0) appends
/// [`a_batch`]es until one rolls over into B's recycled chunk; then the
/// tail word is put back to its value before that batch, as a crash
/// between the batch fence and the tail persist leaves it. Returns the
/// region, the recycled chunk and each acked key's newest version.
fn rollover_crash_image(spare: u32) -> (Arc<PmRegion>, PmAddr, HashMap<u64, u32>) {
    let (pm, mgr) = setup(2 + spare, true);
    let mut b = OpLog::create(Arc::clone(&mgr), PmAddr(64)).unwrap();
    let old: Vec<_> = (1..=1024u32)
        .map(|v| LogEntry::put_ptr(B_KEY, v, PmAddr(0x100)))
        .collect();
    for _ in 0..4 {
        b.append_batch(&old).unwrap();
    }
    let recycled = b.chunks()[0];
    let mut a = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();
    for _ in 0..spare {
        mgr.take_raw_chunk().unwrap();
    }
    mgr.return_raw_chunk(recycled).unwrap();

    let mut acked = HashMap::new();
    for round in 0.. {
        let before = a.tail();
        let batch = a_batch(round);
        a.append_batch(&batch).unwrap();
        if a.chunks().len() > 1 {
            assert_eq!(a.chunks()[1], recycled, "the rollover took B's chunk");
            pm.write_u64(PmAddr(8), before.offset());
            pm.persist(PmAddr(8), 8);
            break;
        }
        acked.extend(batch.iter().map(|e| (e.key, e.version)));
    }
    drop(a);
    pm.simulate_crash();
    (pm, recycled, acked)
}

/// Recovers log A from `pm` (a pool of `nchunks`) and returns it with its
/// chunk manager and each key's newest `(version, address)`.
fn recover_a(
    pm: &Arc<PmRegion>,
    nchunks: u32,
) -> (OpLog, Arc<ChunkManager>, HashMap<u64, (u32, PmAddr)>) {
    let mgr = Arc::new(ChunkManager::recover(
        Arc::clone(pm),
        PmAddr(CHUNK_SIZE),
        nchunks,
    ));
    let mut newest: HashMap<u64, (u32, PmAddr)> = HashMap::new();
    let log = OpLog::recover_headers(Arc::clone(&mgr), PmAddr(0), None, |h, a| {
        let e = newest.entry(h.key).or_insert((h.version, a));
        if oplog::newer(h.version, e.0) {
            *e = (h.version, a);
        }
    })
    .unwrap();
    (log, mgr, newest)
}

fn versions(newest: &HashMap<u64, (u32, PmAddr)>) -> HashMap<u64, u32> {
    newest.iter().map(|(k, (v, _))| (*k, *v)).collect()
}

#[test]
fn recovery_stops_at_the_tail_chunk_and_never_replays_a_recycled_one() {
    let (pm, recycled, acked) = rollover_crash_image(0);
    let (log, mgr, newest) = recover_a(&pm, 2);
    assert!(
        !newest.contains_key(&B_KEY),
        "replayed log B's recycled chunk"
    );
    assert_eq!(versions(&newest), acked, "exactly the acked entries");
    assert_eq!(log.chunks().len(), 1, "the chain ends at the tail's chunk");
    assert_eq!(OpLog::chunk_of(log.tail()), log.chunks()[0]);
    assert_eq!(mgr.free_chunks(), 1, "the orphan went back to the pool");
    assert!(mgr.reserved_chunks().iter().all(|&c| c != recycled));

    // The cut link is persistent: a second crash recovers the same log.
    drop(log);
    pm.simulate_crash();
    let (log, _, again) = recover_a(&pm, 2);
    assert_eq!(again, newest);
    assert_eq!(log.chunks().len(), 1);
}

#[test]
fn cleaning_after_a_rollover_crash_keeps_every_acked_entry() {
    let (pm, _, mut acked) = rollover_crash_image(2);
    let (mut log, mgr, mut newest) = recover_a(&pm, 4);
    // As the engine does: chunks no chain reaches (the spare) go back.
    for c in mgr.reserved_chunks() {
        if !log.chunks().contains(&c) {
            mgr.return_raw_chunk(c).unwrap();
        }
    }

    // Append until the next rollover.
    let chunks = log.chunks().len();
    let mut round = 1_000;
    while log.chunks().len() == chunks {
        let batch = a_batch(round);
        let addrs = log.append_batch(&batch).unwrap();
        for (e, a) in batch.iter().zip(addrs) {
            acked.insert(e.key, e.version);
            newest.insert(e.key, (e.version, a));
        }
        round += 1;
    }

    // Clean the non-tail chunk with the fewest live entries (the last
    // such in chain order on a tie), as a dead-ratio cleaner would.
    let tail_chunk = OpLog::chunk_of(log.tail());
    let live_in = |c: PmAddr| {
        newest
            .values()
            .filter(|(_, a)| OpLog::chunk_of(*a) == c)
            .count()
    };
    let victim = log
        .chunks()
        .iter()
        .copied()
        .filter(|&c| c != tail_chunk)
        .min_by_key(|&c| (live_in(c), std::cmp::Reverse(c)))
        .unwrap();
    let relocs = log
        .clean_chunk(victim, |h, a| newest.get(&h.key) == Some(&(h.version, a)))
        .unwrap();
    for r in relocs {
        newest.insert(r.entry.key, (r.entry.version, r.new));
    }
    mgr.return_raw_chunk(victim).unwrap();

    // A second crash must not lose any acked entry.
    drop(log);
    pm.simulate_crash();
    let (_, _, after) = recover_a(&pm, 4);
    let lost = acked
        .iter()
        .filter(|&(k, v)| after.get(k).map(|e| e.0) != Some(*v))
        .count();
    assert_eq!(lost, 0, "acked entries lost after the cleaner's unlink");
    assert_eq!(versions(&after), acked);
}
