//! Pipelined-session semantics over the FlatRPC fabric: every ticket
//! completes exactly once, per-key completions arrive in submission order,
//! and pipelining actually feeds horizontal batching (the reason the
//! session API exists).

use std::collections::{HashMap, HashSet};

use flatstore::{Config, FlatStore, Op, Reply, StoreError, Ticket};
use proptest::prelude::*;
use workloads::value_bytes;

fn cfg(ncores: usize, depth: usize) -> Config {
    grouped(ncores, ncores, depth)
}

/// `ncores` server cores in HB groups of `group_size`.
fn grouped(ncores: usize, group_size: usize, depth: usize) -> Config {
    Config::builder()
        .pm_bytes(64 << 20)
        .dram_bytes(8 << 20)
        .ncores(ncores)
        .group_size(group_size)
        .pipeline_depth(depth)
        .build()
        .expect("valid test config")
}

/// The HB layouts the session tests run on, as `(ncores, group_size)`:
/// one group spanning every core, and two groups of two.
const LAYOUTS: [(usize, usize); 2] = [(2, 2), (4, 2)];

/// What one submitted op should complete with, per a sequential replay of
/// the whole script. Per-key completions are promised in submission order
/// and keys are independent, so sequential replay is the exact model.
fn sequential_model(ops: &[(u8, u64)]) -> Vec<Reply> {
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    ops.iter()
        .enumerate()
        .map(|(i, &(op, key))| match op % 3 {
            0 => {
                model.insert(key, value_bytes(i as u64, 24));
                Reply::Put(Ok(()))
            }
            1 => Reply::Delete(Ok(model.remove(&key).is_some())),
            _ => Reply::Get(Ok(model.get(&key).cloned())),
        })
        .collect()
}

proptest! {
    // Each case spins up a live engine; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A depth-8 session under a random put/delete/get script over a hot
    /// key space, on each of the [`LAYOUTS`]: every ticket completes
    /// exactly once, a harvested ticket is gone, per-key completion order
    /// equals submission order, and each completion carries the
    /// sequentially-consistent result.
    #[test]
    fn pipelined_script_completes_exactly_once_in_per_key_order(
        layout in 0..LAYOUTS.len(),
        ops in proptest::collection::vec((0..3u8, 0..12u64), 1..150)
    ) {
        let (ncores, group_size) = LAYOUTS[layout];
        let store = FlatStore::create(grouped(ncores, group_size, 8)).unwrap();
        let mut session = store.session().unwrap();

        let mut submitted: HashMap<Ticket, usize> = HashMap::new();
        let mut completed: Vec<(Ticket, Reply)> = Vec::new();
        for (i, &(op, key)) in ops.iter().enumerate() {
            let t = match op % 3 {
                0 => session.submit(Op::put(key, value_bytes(i as u64, 24))).unwrap(),
                1 => session.submit(Op::Delete { key }).unwrap(),
                _ => session.submit(Op::Get { key }).unwrap(),
            };
            prop_assert!(submitted.insert(t, i).is_none(), "ticket reused");
            // Harvest opportunistically, as a real client would.
            completed.extend(session.poll_completions());
        }
        completed.extend(session.wait_all().unwrap());
        prop_assert_eq!(session.in_flight(), 0);

        // Exactly once: one completion per submission, no strays.
        prop_assert_eq!(completed.len(), ops.len());
        let uniq: HashSet<Ticket> = completed.iter().map(|(t, _)| *t).collect();
        prop_assert_eq!(uniq.len(), ops.len());
        for (t, _) in &completed {
            prop_assert!(submitted.contains_key(t), "completion for unknown ticket");
        }
        // A harvested ticket is spent.
        let (first, _) = completed[0];
        prop_assert!(matches!(session.wait(first), Err(StoreError::UnknownTicket)));

        // Per-key completion order matches submission order, and each
        // result is the sequential-replay one.
        let expect = sequential_model(&ops);
        let mut last_idx_per_key: HashMap<u64, usize> = HashMap::new();
        for (t, result) in &completed {
            let i = submitted[t];
            let key = ops[i].1;
            if let Some(&prev) = last_idx_per_key.get(&key) {
                prop_assert!(
                    prev < i,
                    "key {} completed op {} before op {}", key, prev, i
                );
            }
            last_idx_per_key.insert(key, i);
            prop_assert_eq!(result, &expect[i], "op {} on key {}", i, key);
        }
        store.shutdown().unwrap();
    }
}

/// The regression the pipeline exists to prevent: with blocking depth-1
/// clients a core's batch rarely exceeds one entry, but 4 sessions at
/// depth 8 must keep enough puts in flight that horizontal batching
/// amortises persists across entries (mean batch size > 1), whether one
/// group spans all 4 cores or two groups of two split them — and every
/// write must read back.
#[test]
fn pipelined_sessions_fill_hb_batches() {
    for group_size in [4, 2] {
        let store = FlatStore::create(grouped(4, group_size, 8)).unwrap();

        std::thread::scope(|s| {
            for client in 0..4u64 {
                let mut session = store.session().unwrap();
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let key = client * 100_000 + i % 512;
                        session.submit(Op::put(key, value_bytes(i, 32))).unwrap();
                    }
                    for (_, r) in session.wait_all().unwrap() {
                        assert_eq!(r, Reply::Put(Ok(())));
                    }
                });
            }
        });

        let avg = store.stats().avg_batch();
        assert!(
            avg > 1.0,
            "4 clients x depth 8 in groups of {group_size} should batch more \
             than one entry per persist, got {avg:.3}"
        );
        for client in 0..4u64 {
            for k in 0..512u64 {
                let last = (k..2_000).step_by(512).last().unwrap();
                assert_eq!(
                    store.get(client * 100_000 + k).unwrap(),
                    Some(value_bytes(last, 32)),
                    "groups of {group_size}: client {client} key {k}"
                );
            }
        }
        store.shutdown().unwrap();
    }
}

/// The backoff ladder in `Session::wait` must never throttle an *active*
/// pipeline: a saturated depth-8 session spends its waits in the spin
/// phase (completions arrive within microseconds), so a sustained burst
/// has to finish at interactive speed AND still fill HB batches. If the
/// ladder ever escalated to sleeps on the hot path, this burst would
/// take minutes, not seconds.
#[test]
fn backoff_does_not_throttle_a_saturated_pipeline() {
    let store = FlatStore::create(cfg(2, 8)).unwrap();
    let mut session = store.session().unwrap();

    let ops = 20_000u64;
    let start = std::time::Instant::now();
    for i in 0..ops {
        session
            .submit(Op::put(i % 1024, value_bytes(i, 32)))
            .unwrap();
    }
    for (_, r) in session.wait_all().unwrap() {
        assert_eq!(r, Reply::Put(Ok(())));
    }
    let elapsed = start.elapsed();
    drop(session);

    // Generous bound: the engine sustains well over 100k puts/s here even
    // on a loaded CI box; a sleep-poisoned wait path would blow through it
    // by orders of magnitude (20k ops x 5 µs minimum sleep = 100 ms of
    // sleeping per escalation round).
    assert!(
        elapsed < std::time::Duration::from_secs(20),
        "saturated pipeline took {elapsed:?} for {ops} ops"
    );
    let avg = store.stats().avg_batch();
    assert!(avg > 1.0, "pipelined puts should still batch, got {avg:.3}");
    store.shutdown().unwrap();
}

/// Dropping a session mid-flight must not wedge the engine or lose
/// acknowledged-by-submission durability semantics for completed ops.
#[test]
fn dropping_a_busy_session_leaves_the_engine_healthy() {
    let store = FlatStore::create(cfg(2, 8)).unwrap();
    {
        let mut session = store.session().unwrap();
        for k in 0..64u64 {
            session.submit(Op::put(k, value_bytes(k, 48))).unwrap();
        }
        // Drop with most completions unharvested.
    }
    // The blocking path still works and observes the drained puts.
    for k in 0..64u64 {
        assert_eq!(store.get(k).unwrap(), Some(value_bytes(k, 48)), "key {k}");
    }
    store.shutdown().unwrap();
}

/// Sessions fail fast once the engine has stopped.
#[test]
fn sessions_error_after_shutdown() {
    let store = FlatStore::create(cfg(2, 4)).unwrap();
    let handle = store.handle();
    store.shutdown().unwrap();
    assert!(matches!(handle.session(), Err(StoreError::ShuttingDown)));
    assert!(matches!(handle.put(1, b"x"), Err(StoreError::ShuttingDown)));
}

/// `KvApi` drives a `StoreHandle` both through a generic bound and as a
/// trait object.
#[test]
fn kv_api_drives_store_handle_generically_and_as_dyn() {
    use flatstore::KvApi;

    fn drive(kv: &mut (impl KvApi + ?Sized), base: u64) {
        kv.put(base, b"unified").unwrap();
        assert_eq!(kv.get(base).unwrap(), Some(b"unified".to_vec()));
        assert!(kv.delete(base).unwrap());
        assert_eq!(kv.get(base).unwrap(), None);
        assert!(matches!(
            kv.range(0, 10, 4),
            Err(StoreError::RangeUnsupported)
        ));
    }

    let store = FlatStore::create(cfg(2, 4)).unwrap();
    let mut handle = store.handle();
    drive(&mut handle, 100);
    // Object safety: the implementation can be picked at run time.
    let mut dyn_kv: Box<dyn KvApi> = Box::new(handle);
    drive(dyn_kv.as_mut(), 200);
    drop(dyn_kv);
    store.shutdown().unwrap();
}
