//! Crash-point property testing: run an arbitrary prefix of an arbitrary
//! workload, pull the plug, and verify recovery restores exactly the
//! acknowledged state — for every prefix the strategy picks.

use std::collections::HashMap;
use std::sync::Arc;

use flatstore::{core_of, Config, FlatStore};
use obs::Value;
use oplog::LogError;
use pmem::{PmAddr, PmRegion};
use proptest::prelude::*;
use workloads::value_bytes;

#[derive(Debug, Clone)]
enum Cmd {
    Put { key: u64, len: usize },
    Delete { key: u64 },
}

fn script() -> impl Strategy<Value = (Vec<Cmd>, usize)> {
    let cmd = prop_oneof![
        4 => (0u64..60, 1usize..600).prop_map(|(key, len)| Cmd::Put { key, len }),
        1 => (0u64..60).prop_map(|key| Cmd::Delete { key }),
    ];
    prop::collection::vec(cmd, 1..120).prop_flat_map(|cmds| {
        let n = cmds.len();
        (Just(cmds), 0..n)
    })
}

const NCORES: usize = 2;

fn small_cfg() -> Config {
    Config::builder()
        .pm_bytes(64 << 20)
        .dram_bytes(8 << 20)
        .ncores(NCORES)
        .group_size(NCORES)
        .crash_tracking(true)
        .build()
        .expect("valid test config")
}

type Model = HashMap<u64, Vec<u8>>;

/// Applies `cmds` to both the store and the model. Values up to 256 B are
/// inline log entries, longer ones out-of-log allocator blocks.
fn apply(store: &FlatStore, model: &mut Model, cmds: &[Cmd]) -> Result<(), TestCaseError> {
    for (i, cmd) in cmds.iter().enumerate() {
        match cmd {
            Cmd::Put { key, len } => {
                let v = value_bytes(*key ^ i as u64, *len);
                store.put(*key, &v).unwrap();
                model.insert(*key, v);
            }
            Cmd::Delete { key } => {
                let existed = store.delete(*key).unwrap();
                prop_assert_eq!(existed, model.remove(key).is_some());
            }
        }
    }
    Ok(())
}

/// The store holds exactly the model: same length, same bytes, and the
/// script's other keys absent.
fn check_matches(store: &FlatStore, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.len(), model.len());
    for (k, v) in model {
        let got = store.get(*k).unwrap();
        prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
    }
    for k in 0..60u64 {
        if !model.contains_key(&k) {
            prop_assert_eq!(store.get(k).unwrap(), None);
        }
    }
    Ok(())
}

/// Kill, drop every unflushed byte, reopen through the bare-crash path.
fn crash_and_open(store: FlatStore, cfg: &Config) -> FlatStore {
    let pm: Arc<PmRegion> = store.kill();
    pm.simulate_crash();
    FlatStore::open(pm, cfg.clone()).unwrap()
}

proptest! {
    // Each case spins up worker threads; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash after an arbitrary prefix of acknowledged operations: the
    /// recovered store equals the model at exactly that prefix.
    #[test]
    fn any_crash_point_recovers_acknowledged_state((cmds, crash_at) in script()) {
        let cfg = small_cfg();
        let store = FlatStore::create(cfg.clone()).unwrap();
        let mut model = Model::new();
        apply(&store, &mut model, &cmds[..crash_at])?;
        // Every operation above was acknowledged (put/delete returned), so
        // all of it must survive the crash — nothing more, nothing less.
        let store = crash_and_open(store, &cfg);
        check_matches(&store, &model)?;
        // The recovered store accepts new writes.
        store.put(1_000, b"post-crash").unwrap();
        let got = store.get(1_000).unwrap();
        prop_assert_eq!(got.as_deref(), Some(&b"post-crash"[..]));
    }

    /// Recovery rebuilds the *whole* volatile state of the engine that
    /// crashed, not just its key→value view: per-chunk liveness counts and
    /// the free-chunk count equal the running engine's, and recovering the
    /// recovered image again changes nothing.
    #[test]
    fn recovery_rebuilds_the_running_engines_accounting((cmds, _) in script()) {
        let cfg = small_cfg();
        let store = FlatStore::create(cfg.clone()).unwrap();
        let mut model = Model::new();
        // One never-touched out-of-log value per (core, size class) the
        // script can reach (record sizes 265..=608 B: the 512 B and 768 B
        // classes). Recovery returns a class chunk whose every block died
        // to the pool; the running engine never does. The anchors keep
        // every class chunk populated, so `free_chunks` must match exactly.
        let mut anchor = 1_000u64;
        for core in 0..NCORES {
            for len in [300usize, 600] {
                while core_of(anchor, NCORES) != core {
                    anchor += 1;
                }
                let v = value_bytes(anchor, len);
                store.put(anchor, &v).unwrap();
                model.insert(anchor, v);
                anchor += 1;
            }
        }
        apply(&store, &mut model, &cmds)?;
        store.barrier();
        let usage = store.chunk_usage();
        let free = store.free_chunks();
        // Not vacuous: every live key has at least one counted entry.
        prop_assert!(usage.iter().map(|u| u.1 as usize).sum::<usize>() >= model.len());

        let store = crash_and_open(store, &cfg);
        check_matches(&store, &model)?;
        prop_assert_eq!(store.chunk_usage(), usage.clone());
        prop_assert_eq!(store.free_chunks(), free);

        // A second crash with no operation in between is a fixed point.
        let store = crash_and_open(store, &cfg);
        check_matches(&store, &model)?;
        prop_assert_eq!(store.chunk_usage(), usage);
        prop_assert_eq!(store.free_chunks(), free);
    }
}

/// A value byte flipped below the persisted tail after its batch was
/// persisted (a media error, not a torn write: strict fences drop only
/// unfenced lines, and the batch was fenced before the tail covered it).
/// The header-only scan keeps the tail and every key; the Get of the
/// flipped entry and `log_suffix`, which verify the CRC, report the flip
/// and never return wrong bytes; and the log keeps working.
#[test]
fn media_flip_below_tail_is_reported_on_read_under_strict_fences() {
    for seed in 0..4u64 {
        let cfg = Config::builder()
            .pm_bytes(64 << 20)
            .dram_bytes(8 << 20)
            .ncores(NCORES)
            .group_size(NCORES)
            .crash_tracking(true)
            .strict_fence_seed(Some(seed))
            .build()
            .expect("valid test config");
        let store = FlatStore::create(cfg.clone()).unwrap();
        let keys = 200u64;
        for k in 0..keys {
            store.put(k, value_bytes(k ^ seed, 40)).unwrap();
        }
        store.barrier();
        // The last entry of core 0's log (whichever key an HB leader put
        // there) — every key was written once, so it is that key's only
        // version.
        let mut last = None;
        store
            .log_suffix(0, PmAddr::NULL, |e, addr| last = Some((e.key, addr)))
            .unwrap();
        let (flipped_key, flipped_at) = last.expect("core 0 led at least one batch");

        let pm = store.kill();
        // One value byte flipped and made durable.
        let b = pm.read_u8(flipped_at + 13);
        pm.write_u8(flipped_at + 13, b ^ 0x40);
        pm.persist(flipped_at + 13, 1);
        pm.simulate_crash();

        let store = FlatStore::open(pm, cfg.clone()).unwrap();
        assert_eq!(store.len() as u64, keys, "seed {seed}");
        for k in (0..keys).filter(|&k| k != flipped_key) {
            let expect = value_bytes(k ^ seed, 40);
            assert_eq!(store.get(k).unwrap(), Some(expect), "seed {seed} key {k}");
        }
        assert!(store.get(flipped_key).is_err(), "seed {seed}: wrong bytes");
        let err = store.log_suffix(0, PmAddr::NULL, |_, _| {}).unwrap_err();
        let cause = std::error::Error::source(&err).and_then(|c| c.downcast_ref::<LogError>());
        assert_eq!(
            cause,
            Some(&LogError::ChecksumMismatch {
                addr: flipped_at.offset()
            }),
            "seed {seed}"
        );

        // A rewrite supersedes the flipped entry, and survives the next
        // crash.
        store.put(flipped_key, b"rewritten").unwrap();
        let store = crash_and_open(store, &cfg);
        assert_eq!(store.len() as u64, keys);
        assert_eq!(
            store.get(flipped_key).unwrap().as_deref(),
            Some(&b"rewritten"[..])
        );
    }
}

/// A media flip in a chunk whose entries are all dead does not stop the
/// cleaner. Recovery replays the chunk, so it is the least-live victim,
/// but its entry fails the cleaner's CRC: the cleaner must leave it and
/// clean the others, or it retries that one victim forever and the pool
/// runs out.
#[test]
fn media_flip_in_a_dead_chunk_does_not_stop_the_cleaner() {
    let mut cfg = Config::builder()
        .pm_bytes(28 << 20)
        .dram_bytes(8 << 20)
        .ncores(1)
        .group_size(1)
        .crash_tracking(true)
        .build()
        .expect("valid test config");
    cfg.gc.min_free_chunks = 3;
    let store = FlatStore::create(cfg.clone()).unwrap();
    // 400 hot keys: every entry but the newest per key is dead.
    let mut serial = 0u64;
    let mut put = |store: &FlatStore| {
        serial += 1;
        store.put(serial % 400, value_bytes(serial, 200))
    };
    while store.chunk_usage().len() < 3 {
        put(&store).unwrap();
    }
    store.barrier();
    let mut head = None;
    store
        .log_suffix(0, PmAddr::NULL, |_, addr| {
            head.get_or_insert(addr);
        })
        .unwrap();
    let pm = store.kill();
    let at = head.expect("the log holds entries") + 20;
    let b = pm.read_u8(at);
    pm.write_u8(at, b ^ 0x40);
    pm.persist(at, 1);
    pm.simulate_crash();

    let store = FlatStore::open(pm, cfg).unwrap();
    // Twice what the pool holds without cleaning.
    for i in 0..100_000 {
        if let Err(e) = put(&store) {
            panic!("put {i} after the flip: {e}");
        }
    }
}

/// Newest-wins when chain order is not version order. On a tight pool
/// the cleaner copies live entries into fresh chunks at the head of the
/// chain, ahead of older chunks that can still hold stale versions of the
/// same keys. After a crash every key must still resolve to its newest
/// entry, each loser must be counted dead exactly once, and the pool and
/// the key count must be what the running engine had.
#[test]
fn newest_wins_when_chain_order_is_not_version_order() {
    // 19 pool chunks and a cleaner that wants 14 free: with two logs and
    // four class chunks it cleans from the first non-tail chunk on. (At
    // 0.9 live, a hot key set re-cleans each fresh survivor chunk faster
    // than the quarantine returns victims, and the pool runs dry.)
    let mut cfg = small_cfg();
    cfg.pm_bytes = 80 << 20;
    cfg.gc.min_free_chunks = 14;
    cfg.gc.max_live_ratio = 0.5;
    let store = FlatStore::create(cfg.clone()).unwrap();
    let mut model = Model::new();
    let mut ever_put = std::collections::HashSet::new();
    // Anchors: one never-overwritten pointer value per (core, size class)
    // keeps every class chunk populated, so recovery frees none of them.
    let mut anchor = 1_000u64;
    for core in 0..NCORES {
        for len in [300usize, 600] {
            while core_of(anchor, NCORES) != core {
                anchor += 1;
            }
            let v = value_bytes(anchor, len);
            store.put(anchor, &v).unwrap();
            model.insert(anchor, v);
            ever_put.insert(anchor);
            anchor += 1;
        }
    }
    // 40 k ops over 400 keys: 2 in 16 Delete a present key, 1 in 16 Puts
    // a pointer value (300 or 600 B), the rest Put 200 B inline — each
    // its own batch, so every core's log rolls over and gets cleaned.
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..40_000u64 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let key = rng % 400;
        match rng >> 60 {
            0..=1 if model.contains_key(&key) => {
                model.remove(&key);
                assert!(store.delete(key).unwrap());
            }
            kind => {
                let v = value_bytes(i, [300, 600][(rng & 1) as usize]);
                let v = if kind == 2 { v } else { value_bytes(i, 200) };
                store.put(key, &v).unwrap();
                model.insert(key, v);
                ever_put.insert(key);
            }
        }
    }
    let relocated = || {
        store
            .stats()
            .gc_relocated
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    // Let the cleaner finish and the quarantine hand its chunks back.
    let mut settled = relocated();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if relocated() == settled {
            break;
        }
        settled = relocated();
    }
    assert!(settled > 0, "the cleaner never relocated a live entry");
    let (len, free) = (store.len(), store.free_chunks());

    let store = crash_and_open(store, &cfg);
    check_matches(&store, &model).unwrap();
    let r = store.stats_report();
    let row = |name: &str| match r.get("recovery", name) {
        Some(Value::U64(v)) => *v,
        other => panic!("recovery row {name}: {other:?}"),
    };
    assert_eq!(row("path"), 3);
    let dead: u64 = store.chunk_usage().iter().map(|u| u64::from(u.2)).sum();
    // Every key ever written keeps its newest entry (a Put or a
    // tombstone) in the log, so the winners are exactly those keys.
    assert_eq!(dead, row("entries_scanned") - ever_put.len() as u64);
    assert_eq!(row("stale_entries"), dead);
    assert_eq!(store.len(), len);
    assert_eq!(store.free_chunks(), free);
}

/// Cross-log newest-wins on every index kind. Four cores, as two HB
/// groups of 2 and as one group of 4, serve two pipelined sessions at
/// depth 8. A leader appends its group members' entries to its own log,
/// so one key's versions land in several logs, and recovery's owner lanes
/// must pick each key's newest across them. Values are inline and out of
/// log, with deletes among them. After a crash the store equals the
/// model, and the per-chunk liveness counts and the free-chunk count equal
/// the running engine's; a second crash changes nothing.
#[test]
fn cross_log_newest_wins_on_every_index() {
    use flatstore::{IndexKind, Op, Reply, Session};

    const CORES: usize = 4;
    const CLIENTS: u64 = 2;
    const KEYS: u64 = 64;

    /// One round of client `t`'s script over its own keys (`key % CLIENTS
    /// == t`), so the model's order per key is the session's submission
    /// order.
    fn drive(mut session: Session, t: u64, round: u64, mut model: Model) -> Model {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ t ^ round << 32;
        let mut deletes = Vec::new();
        for i in 0..1_000u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = (rng % (KEYS / CLIENTS)) * CLIENTS + t;
            if rng >> 61 == 0 {
                let existed = model.remove(&key).is_some();
                deletes.push((session.submit(Op::Delete { key }).unwrap(), existed));
            } else {
                let len = [40, 200, 300, 600][(rng >> 40) as usize % 4];
                let v = value_bytes(round << 24 | i << 8 | t, len);
                session.submit(Op::put(key, &v)).unwrap();
                model.insert(key, v);
            }
        }
        for (ticket, reply) in session.wait_all().unwrap() {
            if let Some(&(_, existed)) = deletes.iter().find(|d| d.0 == ticket) {
                assert_eq!(reply, Reply::Delete(Ok(existed)));
            } else {
                assert_eq!(reply, Reply::Put(Ok(())));
            }
        }
        model
    }

    for index in [IndexKind::Hash, IndexKind::Masstree] {
        for group in [2, CORES] {
            let at = format!("{index:?}, groups of {group}");
            let cfg = Config::builder()
                .pm_bytes(128 << 20)
                .dram_bytes(8 << 20)
                .ncores(CORES)
                .group_size(group)
                .pipeline_depth(8)
                .index(index)
                .crash_tracking(true)
                .build()
                .expect("valid test config");
            let store = FlatStore::create(cfg.clone()).unwrap();
            // One never-overwritten out-of-log value per (core, size
            // class): recovery frees a class chunk all of whose blocks
            // died, the running engine does not, so the anchors keep
            // `free_chunks` comparable.
            let mut model = Model::new();
            let mut anchor = 1_000u64;
            for core in 0..CORES {
                for len in [300usize, 600] {
                    while core_of(anchor, CORES) != core {
                        anchor += 1;
                    }
                    let v = value_bytes(anchor, len);
                    store.put(anchor, &v).unwrap();
                    model.insert(anchor, v);
                    anchor += 1;
                }
            }
            // Rounds until some key has entries in more than one log: how
            // often a leader takes another core's posts is up to the
            // scheduler, so a round can keep every key in one log.
            let mut models = vec![Model::new(); CLIENTS as usize];
            let mut cross_log = false;
            for round in 0..20 {
                if cross_log {
                    break;
                }
                let clients: Vec<_> = models
                    .drain(..)
                    .enumerate()
                    .map(|(t, m)| {
                        let session = store.session().unwrap();
                        std::thread::spawn(move || drive(session, t as u64, round, m))
                    })
                    .collect();
                models = clients.into_iter().map(|c| c.join().unwrap()).collect();
                store.barrier();
                let mut logs_of: HashMap<u64, usize> = HashMap::new();
                for core in 0..CORES {
                    store
                        .log_suffix(core, PmAddr::NULL, |e, _| {
                            let first = *logs_of.entry(e.key).or_insert(core);
                            cross_log |= first != core;
                        })
                        .unwrap();
                }
            }
            assert!(cross_log, "{at}: every key stayed in one log");
            model.extend(models.into_iter().flatten());
            let usage = store.chunk_usage();
            let free = store.free_chunks();

            let check = |store: &FlatStore| {
                assert_eq!(store.len(), model.len(), "{at}");
                for k in 0..KEYS {
                    assert_eq!(
                        store.get(k).unwrap().as_ref(),
                        model.get(&k),
                        "{at}: key {k}"
                    );
                }
                assert_eq!(store.chunk_usage(), usage, "{at}");
                assert_eq!(store.free_chunks(), free, "{at}");
            };
            let store = crash_and_open(store, &cfg);
            let r = store.stats_report();
            assert_eq!(r.get("recovery", "path"), Some(&Value::U64(3)), "{at}");
            check(&store);
            let store = crash_and_open(store, &cfg);
            check(&store);
        }
    }
}
