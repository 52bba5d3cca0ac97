//! Property test: arbitrary batched workloads survive crash + recovery with
//! exactly the persisted prefix, and version-max replay equals a model map.

use std::collections::HashMap;
use std::sync::Arc;

use oplog::{LogEntry, LogOp, OpLog, Payload};
use pmalloc::{ChunkManager, CHUNK_SIZE};
use pmem::{PmAddr, PmRegion};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Cmd {
    Put { key: u64, val_len: usize },
    Del { key: u64 },
}

fn cmds() -> impl Strategy<Value = Vec<Vec<Cmd>>> {
    let cmd = prop_oneof![
        (0u64..40, 1usize..200).prop_map(|(key, val_len)| Cmd::Put { key, val_len }),
        (0u64..40).prop_map(|key| Cmd::Del { key }),
    ];
    prop::collection::vec(prop::collection::vec(cmd, 1..20), 1..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn replay_after_crash_matches_model(batches in cmds()) {
        let pm = Arc::new(PmRegion::with_crash_tracking(5 * CHUNK_SIZE as usize));
        let mgr = Arc::new(ChunkManager::format(Arc::clone(&pm), PmAddr(CHUNK_SIZE), 4));
        let mut log = OpLog::create(Arc::clone(&mgr), PmAddr(0)).unwrap();

        // Model: key -> Option<(version, value)>; None = deleted.
        let mut model: HashMap<u64, Option<(u32, Vec<u8>)>> = HashMap::new();
        let mut next_version: HashMap<u64, u32> = HashMap::new();

        for batch in &batches {
            let entries: Vec<LogEntry> = batch.iter().map(|c| match c {
                Cmd::Put { key, val_len } => {
                    let v = next_version.entry(*key).or_insert(0);
                    *v += 1;
                    let value = vec![(*key as u8).wrapping_add(*val_len as u8); *val_len];
                    model.insert(*key, Some((*v, value.clone())));
                    LogEntry::put_inline(*key, *v, value).unwrap()
                }
                Cmd::Del { key } => {
                    let v = next_version.entry(*key).or_insert(0);
                    *v += 1;
                    model.insert(*key, None);
                    LogEntry::tombstone(*key, *v)
                }
            }).collect();
            log.append_batch(&entries).unwrap();
        }
        drop(log);
        pm.simulate_crash();

        let mgr2 = Arc::new(ChunkManager::recover(Arc::clone(&pm), PmAddr(CHUNK_SIZE), 4));
        let mut replay: HashMap<u64, (u32, Option<Vec<u8>>)> = HashMap::new();
        OpLog::recover_headers(mgr2, PmAddr(0), None, |h, addr| {
            let e = h.load(&pm, addr);
            let newer = replay.get(&e.key).is_none_or(|(v, _)| e.version >= *v);
            if newer {
                let val = match (&e.op, &e.payload) {
                    (LogOp::Delete, _) => None,
                    (_, Payload::Inline(v)) => Some(v.clone()),
                    _ => None,
                };
                replay.insert(e.key, (e.version, val));
            }
        }).unwrap();

        for (key, state) in &model {
            match state {
                Some((ver, value)) => {
                    let (rv, rval) = replay.get(key).expect("live key lost by recovery");
                    prop_assert_eq!(rv, ver);
                    prop_assert_eq!(rval.as_ref(), Some(value));
                }
                None => {
                    // Deleted: replay must end on the tombstone.
                    if let Some((_, rval)) = replay.get(key) {
                        prop_assert!(rval.is_none(), "deleted key resurrected");
                    }
                }
            }
        }
    }
}
