//! Cross-crate integration tests: the full stack (workload generators →
//! engine → PM substrate → recovery) exercised end to end.

use std::collections::HashMap;

use flatstore::{Config, FlatStore, IndexKind};
use workloads::{value_bytes, EtcWorkload, KeyDist, Op, Workload};

fn cfg() -> Config {
    Config::builder()
        .pm_bytes(192 << 20)
        .dram_bytes(16 << 20)
        .ncores(3)
        .group_size(3)
        .build()
        .expect("valid test config")
}

/// Replays a YCSB-style script through the engine and checks the final
/// state against a model map.
#[test]
fn ycsb_workload_matches_model() {
    let store = FlatStore::create(cfg()).unwrap();
    let mut gen = Workload::new(2_000, KeyDist::Zipfian { theta: 0.99 }, 48, 0.7, 11);
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut serial = 0u64;
    for _ in 0..20_000 {
        match gen.next_op() {
            Op::Put { key, value_len } => {
                serial += 1;
                let v = value_bytes(key ^ serial, value_len);
                store.put(key, &v).unwrap();
                model.insert(key, v);
            }
            Op::Get { key } => {
                assert_eq!(store.get(key).unwrap(), model.get(&key).cloned());
            }
            Op::Delete { key } => {
                assert_eq!(store.delete(key).unwrap(), model.remove(&key).is_some());
            }
        }
    }
    store.barrier();
    assert_eq!(store.len(), model.len());
    for (k, v) in &model {
        assert_eq!(store.get(*k).unwrap().as_deref(), Some(v.as_slice()));
    }
}

/// The ETC trimodal mix (inline + allocator paths interleaved) survives a
/// crash with exactly the acknowledged state.
#[test]
fn etc_mix_survives_crash() {
    let mut c = cfg();
    c.crash_tracking = true;
    let store = FlatStore::create(c.clone()).unwrap();
    let keyspace = 3_000u64;
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut gen = EtcWorkload::new(keyspace, 1.0, 5);
    for round in 0..15_000u64 {
        if let Op::Put { key, value_len } = gen.next_op() {
            let v = value_bytes(key.wrapping_add(round), value_len);
            store.put(key, &v).unwrap();
            model.insert(key, v);
        }
    }
    store.barrier();
    let pm = store.kill();
    pm.simulate_crash();

    let store = FlatStore::open(pm, c).unwrap();
    assert_eq!(store.len(), model.len());
    for (k, v) in &model {
        assert_eq!(
            store.get(*k).unwrap().as_deref(),
            Some(v.as_slice()),
            "key {k}"
        );
    }
}

/// Two crash/recover cycles back to back (recovery state is itself
/// recoverable).
#[test]
fn double_crash_recovery() {
    let mut c = cfg();
    c.crash_tracking = true;
    let store = FlatStore::create(c.clone()).unwrap();
    for k in 0..500u64 {
        store.put(k, value_bytes(k, 120)).unwrap();
    }
    store.barrier();
    let pm = store.kill();
    pm.simulate_crash();

    let store = FlatStore::open(pm, c.clone()).unwrap();
    for k in 500..800u64 {
        store.put(k, value_bytes(k, 120)).unwrap();
    }
    store.delete(0).unwrap();
    store.barrier();
    let pm = store.kill();
    pm.simulate_crash();

    let store = FlatStore::open(pm, c).unwrap();
    assert_eq!(store.len(), 799);
    assert_eq!(store.get(0).unwrap(), None);
    for k in 1..800u64 {
        assert_eq!(store.get(k).unwrap(), Some(value_bytes(k, 120)));
    }
}

/// Clean shutdown → reopen → crash → reopen: both recovery paths compose.
#[test]
fn clean_then_crash_paths_compose() {
    let mut c = cfg();
    c.crash_tracking = true;
    let store = FlatStore::create(c.clone()).unwrap();
    for k in 0..400u64 {
        store.put(k, value_bytes(k, 200)).unwrap();
    }
    let pm = store.shutdown().unwrap();

    let store = FlatStore::open(pm, c.clone()).unwrap();
    for k in 0..200u64 {
        store.put(k, value_bytes(k + 1, 500)).unwrap();
    }
    store.barrier();
    let pm = store.kill();
    pm.simulate_crash();

    let store = FlatStore::open(pm, c).unwrap();
    for k in 0..400u64 {
        let expect = if k < 200 {
            value_bytes(k + 1, 500)
        } else {
            value_bytes(k, 200)
        };
        assert_eq!(store.get(k).unwrap(), Some(expect), "key {k}");
    }
}

/// Ordered index + workload mix: range results always reflect a quiesced
/// prefix of operations.
#[test]
fn ordered_index_full_stack() {
    let mut c = cfg();
    c.index = IndexKind::Masstree;
    let store = FlatStore::create(c).unwrap();
    for k in (0..1_000u64).step_by(2) {
        store.put(k, value_bytes(k, 33)).unwrap();
    }
    store.barrier();
    let rows = store.range(100, 200, 1000).unwrap();
    assert_eq!(rows.len(), 50);
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    for (k, v) in rows {
        assert_eq!(v, value_bytes(k, 33));
    }
}

/// In the DES, pipelined horizontal batching beats the non-batched
/// engine on the same workload and actually forms batches (mean > 1.5).
#[test]
fn des_pipelined_hb_beats_nonbatch() {
    use simkv::{Engine, ExecModel, SimConfig, SimIndex};
    let mk = |model| SimConfig {
        engine: Engine::FlatStore {
            model,
            index: SimIndex::Hash,
        },
        ncores: 4,
        group_size: 4,
        clients: 64,
        keyspace: 10_000,
        ops: 15_000,
        warmup: 1_500,
        ..SimConfig::default()
    };
    let pipelined = simkv::run(&mk(ExecModel::PipelinedHb));
    let nonbatch = simkv::run(&mk(ExecModel::NonBatch));
    assert!(
        pipelined.mops > nonbatch.mops,
        "batching must win: {} vs {}",
        pipelined.mops,
        nonbatch.mops
    );
    assert!(pipelined.avg_batch > 1.5);
}
