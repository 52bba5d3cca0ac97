//! Hot-read cache equivalence: a cache of ANY capacity must be purely an
//! optimization. Every test drives a cache-enabled store and a
//! cache-disabled twin through identical scripts and demands byte-for-byte
//! identical answers — including range scans that bypass the cache, crash
//! recovery, and eviction-heavy capacities of a single slot.

use std::collections::{BTreeMap, HashMap};

use flatstore::{Config, FlatStore, IndexKind};
use proptest::prelude::*;
use workloads::value_bytes;

fn cfg(read_cache_bytes: usize, index: IndexKind) -> Config {
    Config::builder()
        .pm_bytes(64 << 20)
        .dram_bytes(8 << 20)
        .ncores(2)
        .group_size(2)
        .index(index)
        .read_cache_bytes(read_cache_bytes)
        .crash_tracking(false)
        .build()
        .expect("valid test config")
}

#[derive(Debug, Clone)]
enum Cmd {
    Put { key: u64, len: usize },
    Get { key: u64 },
    Delete { key: u64 },
    Range { lo: u64, span: u64 },
}

fn script() -> impl Strategy<Value = Vec<Cmd>> {
    let cmd = prop_oneof![
        4 => (0u64..48, 1usize..600).prop_map(|(key, len)| Cmd::Put { key, len }),
        4 => (0u64..48).prop_map(|key| Cmd::Get { key }),
        2 => (0u64..48).prop_map(|key| Cmd::Delete { key }),
        1 => (0u64..48, 1u64..48).prop_map(|(lo, span)| Cmd::Range { lo, span }),
    ];
    prop::collection::vec(cmd, 1..160)
}

/// Replays `cmds` against a store, checking every answer against a model
/// as it goes; returns the transcript of Get/Range answers so two stores
/// can additionally be compared to each other.
#[allow(clippy::type_complexity)]
fn replay(store: &FlatStore, cmds: &[Cmd]) -> Result<Vec<Vec<(u64, Vec<u8>)>>, TestCaseError> {
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut transcript = Vec::new();
    for (i, cmd) in cmds.iter().enumerate() {
        match cmd {
            Cmd::Put { key, len } => {
                let v = value_bytes(key ^ i as u64, *len);
                store.put(*key, &v).unwrap();
                model.insert(*key, v);
            }
            Cmd::Get { key } => {
                let got = store.get(*key).unwrap();
                prop_assert_eq!(&got, &model.get(key).cloned(), "get {} at step {}", key, i);
                transcript.push(got.map(|v| vec![(*key, v)]).unwrap_or_default());
            }
            Cmd::Delete { key } => {
                let existed = store.delete(*key).unwrap();
                prop_assert_eq!(existed, model.remove(key).is_some());
            }
            Cmd::Range { lo, span } => {
                // Engine ranges are half-open: lo..hi.
                let hi = lo + span;
                let got = store.range(*lo, hi, usize::MAX).unwrap();
                let want: Vec<(u64, Vec<u8>)> =
                    model.range(*lo..hi).map(|(k, v)| (*k, v.clone())).collect();
                prop_assert_eq!(&got, &want, "range [{}, {}] at step {}", lo, hi, i);
                transcript.push(got);
            }
        }
    }
    Ok(transcript)
}

proptest! {
    // Each case spins up several engines with worker threads.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The ISSUE's core property: for ANY capacity — disabled, a single
    /// slot (eviction on every insert), small (CLOCK churn) or default —
    /// randomized put/get/delete/range interleavings answer exactly like
    /// the cache-disabled engine. Ranges run on Masstree so the ordered
    /// index and the cache are exercised against each other.
    #[test]
    fn any_capacity_matches_disabled_engine(cmds in script()) {
        let mut transcripts = Vec::new();
        for budget in [0usize, 1, 4 << 10, 8 << 20] {
            let store = FlatStore::create(cfg(budget, IndexKind::Masstree)).unwrap();
            transcripts.push(replay(&store, &cmds)?);
            store.shutdown().unwrap();
        }
        let base = &transcripts[0];
        for t in &transcripts[1..] {
            prop_assert_eq!(base, t);
        }
    }

    /// Crash recovery is cache-oblivious: populate the cache with reads,
    /// pull the plug, and the recovered store (cache enabled again, now
    /// cold) equals the acknowledged state exactly.
    #[test]
    fn recovery_with_hot_cache_matches_acknowledged_state(cmds in script()) {
        let config = Config::builder()
            .pm_bytes(64 << 20)
            .dram_bytes(8 << 20)
            .ncores(2)
            .group_size(2)
            .read_cache_bytes(1 << 20)
            .crash_tracking(true)
            .build()
            .unwrap();
        let store = FlatStore::create(config.clone()).unwrap();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (i, cmd) in cmds.iter().enumerate() {
            match cmd {
                Cmd::Put { key, len } => {
                    let v = value_bytes(key ^ i as u64, *len);
                    store.put(*key, &v).unwrap();
                    model.insert(*key, v);
                }
                // Gets warm the cache; Ranges need Masstree, skip here.
                Cmd::Get { key } | Cmd::Range { lo: key, .. } => {
                    let _ = store.get(*key).unwrap();
                }
                Cmd::Delete { key } => {
                    let existed = store.delete(*key).unwrap();
                    prop_assert_eq!(existed, model.remove(key).is_some());
                }
            }
        }
        let pm = store.kill();
        pm.simulate_crash();
        let store = FlatStore::open(pm, config).unwrap();
        prop_assert_eq!(store.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(&store.get(*k).unwrap(), &Some(v.clone()));
        }
        store.shutdown().unwrap();
    }
}

/// Overlapping puts and deletes interleaved with gets and scans: the
/// ordered index and the cache must never disagree. This is the
/// deterministic regression for the range/cache interaction — a stale
/// cached value after an overwrite would make a Get disagree with the
/// scan that bypasses the cache.
#[test]
fn range_scans_agree_with_cached_gets_after_overwrites() {
    let store = FlatStore::create(cfg(1 << 20, IndexKind::Masstree)).unwrap();
    for k in 0..64u64 {
        store.put(k, value_bytes(k, 64)).unwrap();
    }
    // Warm the cache on every key.
    for k in 0..64u64 {
        assert_eq!(store.get(k).unwrap(), Some(value_bytes(k, 64)));
    }
    // Overwrite half, delete a quarter — all keys currently cached.
    for k in (0..64u64).step_by(2) {
        store.put(k, value_bytes(k + 1000, 96)).unwrap();
    }
    for k in (0..64u64).step_by(4) {
        assert!(store.delete(k).unwrap());
    }
    // Scan bypasses the cache; gets may hit it. Both must tell the same
    // story for every key.
    let scan = store.range(0, 64, usize::MAX).unwrap();
    let by_scan: HashMap<u64, Vec<u8>> = scan.into_iter().collect();
    for k in 0..64u64 {
        let expect = if k % 4 == 0 {
            None
        } else if k % 2 == 0 {
            Some(value_bytes(k + 1000, 96))
        } else {
            Some(value_bytes(k, 64))
        };
        assert_eq!(store.get(k).unwrap(), expect, "get key {k}");
        assert_eq!(by_scan.get(&k).cloned(), expect, "scan key {k}");
    }
    store.shutdown().unwrap();
}

/// Repeated hits actually come from the cache: stats must show hits
/// climbing while the answers stay correct, and invalidation must reset
/// the key to a miss.
#[test]
fn stats_expose_hits_misses_and_invalidations() {
    let store = FlatStore::create(cfg(8 << 20, IndexKind::Hash)).unwrap();
    store.put(7, b"cached").unwrap();
    for _ in 0..10 {
        assert_eq!(store.get(7).unwrap().as_deref(), Some(&b"cached"[..]));
    }
    store.put(7, b"fresh").unwrap();
    assert_eq!(store.get(7).unwrap().as_deref(), Some(&b"fresh"[..]));
    let r = store.stats_report();
    let row = |name: &str| match r.get("read_cache", name) {
        Some(obs::Value::U64(v)) => *v,
        other => panic!("missing read_cache {name} row: {other:?}"),
    };
    let hits = row("hits");
    let inval = row("invalidations");
    assert!(hits >= 9, "repeated gets should hit, saw {hits}");
    assert!(inval >= 1, "overwrite should invalidate, saw {inval}");
    // Both misses filled a shard with room, so admission let them in.
    assert_eq!((row("admitted"), row("rejected")), (2, 0));
    assert_eq!(row("inserts"), 2);
    store.shutdown().unwrap();
}

/// `read_cache_bytes(0)` must not report a cache section at all — the
/// disabled engine is bit-identical to the pre-cache engine.
#[test]
fn disabled_cache_reports_nothing() {
    let store = FlatStore::create(cfg(0, IndexKind::Hash)).unwrap();
    store.put(1, b"v").unwrap();
    assert_eq!(store.get(1).unwrap().as_deref(), Some(&b"v"[..]));
    let r = store.stats_report();
    assert!(r.get("read_cache", "hits").is_none());
    store.shutdown().unwrap();
}
