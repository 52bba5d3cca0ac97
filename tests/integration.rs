//! Cross-crate integration tests: the full stack (workload generators →
//! engine → PM substrate → recovery, replication failover and the RESP
//! wire front end) exercised end to end.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;

use flatrepl::ReplicatedStore;
use flatsrv::resp::{self, Reply};
use flatsrv::{Listener, Server, ServerOpts, StatsSource};
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

/// A bare-crash `open` reads entry headers only: every key survives, and
/// the PM bytes `open` reads stay within 16 B per scanned entry plus a
/// fixed allowance for the superblock, descriptors and chunk headers.
/// Each Put here is its own batch: a 13 B header and a one-byte padding
/// probe. A scan that checked the CRC would read the whole 77 B entry.
#[test]
fn crash_scan_reads_entry_headers_only() {
    let mut c = cfg();
    c.crash_tracking = true;
    let store = FlatStore::create(c.clone()).unwrap();
    let keys = 5_000u64;
    for k in 0..keys {
        store.put(k, value_bytes(k, 64)).unwrap();
    }
    store.barrier();
    let pm = store.kill();
    pm.simulate_crash();

    let before = pm.stats().snapshot();
    let store = FlatStore::open(Arc::clone(&pm), c).unwrap();
    let read = pm.stats().snapshot().delta(&before).bytes_read;
    let scanned = match store.stats_report().get("recovery", "entries_scanned") {
        Some(obs::Value::U64(n)) => *n,
        other => panic!("entries_scanned: {other:?}"),
    };
    assert_eq!(scanned, keys);
    assert_eq!(store.len() as u64, keys);
    for k in 0..keys {
        assert_eq!(store.get(k).unwrap(), Some(value_bytes(k, 64)), "key {k}");
    }
    const ALLOWANCE: u64 = 4 << 10;
    assert!(
        read <= 16 * scanned + ALLOWANCE,
        "open read {read} B for {scanned} entries"
    );
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

/// Replication and the wire front end in one pass: every put acked by a
/// `ReplicatedStore` survives the primary's loss and the backup's
/// promotion, and the promoted store then serves a SET/GET round trip
/// through an in-process `flatsrv` server on a Unix socket.
#[test]
fn repl_failover_then_resp_round_trip() {
    let c = Config::builder()
        .pm_bytes(64 << 20)
        .ncores(2)
        .group_size(2)
        .crash_tracking(true)
        .build()
        .expect("valid test config");
    let store = ReplicatedStore::create(c.clone()).unwrap();
    for k in 0..400u64 {
        store.put(k, value_bytes(k, 64)).unwrap();
    }
    let (primary_pm, backup) = store.fail_primary();
    primary_pm.simulate_crash();
    let promoted = Arc::new(backup.promote(c).unwrap());
    assert_eq!(promoted.len(), 400);
    for k in 0..400u64 {
        assert_eq!(
            promoted.get(k).unwrap(),
            Some(value_bytes(k, 64)),
            "key {k}"
        );
    }

    let path = std::env::temp_dir().join(format!("flatstore-tier1-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let st = Arc::clone(&promoted);
    let stats: StatsSource = Arc::new(move || st.stats_report().to_json());
    let server = Server::start(
        promoted.handle(),
        stats,
        vec![Listener::Unix(listener)],
        ServerOpts::default(),
    )
    .unwrap();
    let mut conn = UnixStream::connect(&path).unwrap();
    conn.write_all(&resp::command(&[
        b"SET".to_vec(),
        b"tier1".to_vec(),
        b"wire".to_vec(),
    ]))
    .unwrap();
    conn.write_all(&resp::command(&[b"GET".to_vec(), b"tier1".to_vec()]))
        .unwrap();
    let mut buf = Vec::new();
    let mut replies = Vec::new();
    while replies.len() < 2 {
        match resp::parse_reply(&buf).unwrap() {
            Some((r, used)) => {
                buf.drain(..used);
                replies.push(r);
            }
            None => {
                let mut chunk = [0u8; 512];
                let n = conn.read(&mut chunk).unwrap();
                assert!(n > 0, "server closed mid-reply");
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
    assert_eq!(
        replies,
        [
            Reply::Simple("OK".into()),
            Reply::Bulk(Some(b"wire".to_vec()))
        ]
    );
    drop(conn);
    server.stop();
    let _ = std::fs::remove_file(&path);
}
