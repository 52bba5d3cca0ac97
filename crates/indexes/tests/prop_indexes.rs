//! Model-based property tests: every index structure must behave exactly
//! like a `BTreeMap` under arbitrary insert/update/remove interleavings,
//! and a bulk load must leave the contents one-at-a-time inserts do.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use indexes::{Cceh, FastFair, FpTree, Index, IndexError, LevelHash, Mode, OrderedIndex, MAX_KEY};
use pmem::{PmAddr, PmRegion};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert { key: u64, value: u64 },
    Remove { key: u64 },
    Get { key: u64 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..500, any::<u64>()).prop_map(|(key, value)| Op::Insert { key, value }),
            (0u64..500).prop_map(|key| Op::Remove { key }),
            (0u64..500).prop_map(|key| Op::Get { key }),
        ],
        1..400,
    )
}

fn check_against_model(idx: &mut dyn Index, script: &[Op]) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in script {
        match op {
            Op::Insert { key, value } => {
                let old = idx.insert(*key, *value).map_err(|e: IndexError| {
                    TestCaseError::fail(format!("unexpected index error: {e}"))
                })?;
                prop_assert_eq!(old, model.insert(*key, *value));
            }
            Op::Remove { key } => {
                prop_assert_eq!(idx.remove(*key), model.remove(key));
            }
            Op::Get { key } => {
                prop_assert_eq!(idx.get(*key), model.get(key).copied());
            }
        }
        prop_assert_eq!(idx.len(), model.len());
    }
    Ok(())
}

fn region() -> Arc<PmRegion> {
    Arc::new(PmRegion::new(64 << 20))
}

/// Every index kind, empty, in a 16 MiB arena of its own. The hash
/// tables start undersized: CCEH with a one-segment directory (1 024
/// slots) and Level hashing with four top buckets, so a bulk load of
/// more keys has to split or resize on the way.
fn every_kind() -> Vec<(&'static str, Box<dyn Index>)> {
    let arena = 16u64 << 20;
    let pm = || Arc::new(PmRegion::new(arena as usize));
    vec![
        (
            "cceh",
            Box::new(Cceh::new(pm(), PmAddr(0), arena, Mode::Persistent, 0).unwrap()),
        ),
        (
            "cceh_presized",
            Box::new(Cceh::new(pm(), PmAddr(0), arena, Mode::Volatile, 4).unwrap()),
        ),
        (
            "level",
            Box::new(LevelHash::new(pm(), PmAddr(0), arena, Mode::Persistent, 4).unwrap()),
        ),
        (
            "fastfair",
            Box::new(FastFair::new(pm(), PmAddr(0), arena, Mode::Persistent).unwrap()),
        ),
        (
            "fptree",
            Box::new(FpTree::new(pm(), PmAddr(0), arena, Mode::Persistent).unwrap()),
        ),
    ]
}

/// Distinct keys from the whole key space, in random order: `len` draws
/// with the repeats dropped.
fn distinct_pairs_of(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..=MAX_KEY, any::<u64>()), len).prop_map(|mut pairs| {
        let mut seen = BTreeSet::new();
        pairs.retain(|(k, _)| seen.insert(*k));
        pairs
    })
}

/// At least one distinct key.
fn distinct_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    distinct_pairs_of(1..2500)
}

/// 1 100–3 999 distinct keys and a cut: the first `cut` of them (at
/// least 1 100, more than one CCEH segment holds) go in before the load.
fn prefill_and_load() -> impl Strategy<Value = (Vec<(u64, u64)>, usize)> {
    distinct_pairs_of(1100..4000).prop_flat_map(|pairs| {
        let n = pairs.len();
        (Just(pairs), 1100.min(n)..=n)
    })
}

/// More distinct keys than the 1 024 << `depth` slots of a depth-`depth`
/// CCEH hold.
fn overfull(depth: u32) -> impl Strategy<Value = Vec<(u64, u64)>> {
    let lo = 1100 << depth;
    distinct_pairs_of(lo..lo + 2000)
}

fn contents(idx: &dyn Index) -> Vec<(u64, u64)> {
    let mut all = Vec::new();
    idx.for_each(&mut |k, v| all.push((k, v)));
    all.sort_unstable();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cceh_matches_model(script in ops()) {
        let pm = region();
        let mut idx = Cceh::new(pm, PmAddr(0), 64 << 20, Mode::Persistent, 1).unwrap();
        check_against_model(&mut idx, &script)?;
    }

    #[test]
    fn level_hash_matches_model(script in ops()) {
        let pm = region();
        let mut idx = LevelHash::new(pm, PmAddr(0), 64 << 20, Mode::Persistent, 8).unwrap();
        check_against_model(&mut idx, &script)?;
    }

    #[test]
    fn fastfair_matches_model(script in ops()) {
        let pm = region();
        let mut idx = FastFair::new(pm, PmAddr(0), 64 << 20, Mode::Persistent).unwrap();
        check_against_model(&mut idx, &script)?;
    }

    #[test]
    fn fptree_matches_model(script in ops()) {
        let pm = region();
        let mut idx = FpTree::new(pm, PmAddr(0), 64 << 20, Mode::Persistent).unwrap();
        check_against_model(&mut idx, &script)?;
    }

    #[test]
    fn ordered_indexes_scan_like_model(script in ops(), lo in 0u64..400, span in 1u64..200) {
        let pm = region();
        let mut ff = FastFair::new(Arc::clone(&pm), PmAddr(0), 32 << 20, Mode::Volatile).unwrap();
        let mut fp = FpTree::new(pm, PmAddr(32 << 20), 32 << 20, Mode::Volatile).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &script {
            if let Op::Insert { key, value } = op {
                ff.insert(*key, *value).unwrap();
                fp.insert(*key, *value).unwrap();
                model.insert(*key, *value);
            }
        }
        let hi = lo + span;
        let expect: Vec<(u64, u64)> = model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
        for t in [&ff as &dyn OrderedIndex, &fp as &dyn OrderedIndex] {
            let mut got = Vec::new();
            t.range(lo, hi, &mut |k, v| { got.push((k, v)); true });
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn bulk_load_leaves_what_inserts_leave(pairs in distinct_pairs()) {
        let model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        for ((name, mut one), (_, mut bulk)) in every_kind().into_iter().zip(every_kind()) {
            for &(k, v) in &pairs {
                prop_assert_eq!(one.insert(k, v), Ok(None), "{}", name);
            }
            prop_assert_eq!(bulk.bulk_load(&mut pairs.clone()), Ok(()), "{}", name);
            prop_assert_eq!(bulk.len(), one.len(), "{}", name);
            for &(k, v) in &pairs {
                prop_assert_eq!(bulk.get(k), Some(v), "{} key {}", name, k);
            }
            prop_assert_eq!(&contents(bulk.as_ref()), &expect, "{}", name);
            prop_assert_eq!(&contents(one.as_ref()), &expect, "{}", name);
        }
    }

    #[test]
    fn bulk_load_rejects_a_repeated_key(
        pairs in distinct_pairs(),
        pick in any::<u64>(),
        at in any::<u64>(),
        value in any::<u64>(),
    ) {
        let key = pairs[(pick % pairs.len() as u64) as usize].0;
        let mut with_dup = pairs.clone();
        with_dup.insert((at % (pairs.len() as u64 + 1)) as usize, (key, value));
        for (name, mut idx) in every_kind() {
            prop_assert_eq!(
                idx.bulk_load(&mut with_dup.clone()),
                Err(IndexError::DuplicateKey { key }),
                "{}", name
            );
            // Whatever was stored before the error, nothing twice; CCEH
            // finds the repeat before it stores anything.
            let stored = contents(idx.as_ref());
            let keys: BTreeSet<u64> = stored.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(keys.len(), stored.len(), "{} stored a key twice", name);
            prop_assert_eq!(idx.len(), stored.len(), "{}", name);
            if name.starts_with("cceh") {
                prop_assert_eq!(stored.len(), 0, "{} stored keys before the error", name);
            }
        }
    }

    /// A CCEH load on top of earlier inserts, removes and the stale slots
    /// their splits left behind leaves what one-at-a-time inserts leave.
    #[test]
    fn cceh_bulk_load_onto_a_split_index_leaves_what_inserts_leave(
        (pairs, cut) in prefill_and_load(),
        mode in prop_oneof![Just(Mode::Persistent), Just(Mode::Volatile)],
    ) {
        let arena = 16u64 << 20;
        let build = || Cceh::new(Arc::new(PmRegion::new(arena as usize)), PmAddr(0), arena, mode, 0);
        let (mut one, mut bulk) = (build().unwrap(), build().unwrap());
        let mut model = BTreeMap::new();
        for (i, &(k, v)) in pairs[..cut].iter().enumerate() {
            let removed = i % 7 == 0;
            for idx in [&mut one, &mut bulk] {
                prop_assert_eq!(idx.insert(k, v), Ok(None));
                if removed {
                    prop_assert_eq!(idx.remove(k), Some(v));
                }
            }
            if !removed {
                model.insert(k, v);
            }
        }
        prop_assert!(bulk.segment_count() > 1, "the prefill never split");
        for &(k, v) in &pairs[cut..] {
            prop_assert_eq!(one.insert(k, v), Ok(None));
            model.insert(k, v);
        }
        prop_assert_eq!(bulk.bulk_load(&mut pairs[cut..].to_vec()), Ok(()));
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(bulk.len(), expect.len());
        for &(k, v) in &expect {
            prop_assert_eq!(bulk.get(k), Some(v), "key {}", k);
        }
        prop_assert_eq!(&contents(&bulk), &expect);
        prop_assert_eq!(&contents(&one), &expect);
    }

    /// A load into a table too small for it: windows fill part-way through,
    /// the full ones split, and every key after the first split goes the
    /// insert path — still what one-at-a-time inserts leave.
    #[test]
    fn cceh_bulk_load_that_overflows_splits_like_inserts(
        (depth, pairs) in (0u32..3).prop_flat_map(|depth| (Just(depth), overfull(depth))),
    ) {
        let arena = 16u64 << 20;
        let build = || Cceh::new(Arc::new(PmRegion::new(arena as usize)), PmAddr(0), arena, Mode::Persistent, depth);
        let (mut one, mut bulk) = (build().unwrap(), build().unwrap());
        for &(k, v) in &pairs {
            prop_assert_eq!(one.insert(k, v), Ok(None));
        }
        prop_assert_eq!(bulk.bulk_load(&mut pairs.clone()), Ok(()));
        prop_assert!(bulk.segment_count() > 1 << depth, "the load never split");
        let expect: Vec<(u64, u64)> = pairs.iter().copied().collect::<BTreeMap<_, _>>().into_iter().collect();
        prop_assert_eq!(bulk.len(), expect.len());
        for &(k, v) in &pairs {
            prop_assert_eq!(bulk.get(k), Some(v), "key {}", k);
        }
        prop_assert_eq!(&contents(&bulk), &expect);
        prop_assert_eq!(&contents(&one), &expect);
    }
}
