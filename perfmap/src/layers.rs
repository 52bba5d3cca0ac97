//! Isolated primitives: each layer's public functions priced alone, the
//! method of van Renen et al. ("Persistent Memory I/O Primitives") —
//! price each primitive by itself, then compose. The figures are host
//! bookkeeping costs of the *simulated* device, not device latencies.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

use flatsrv::{keymap, resp};
use indexes::{Cceh, Index, Mode};
use masstree::Masstree;
use oplog::{LogEntry, OpLog};
use pmalloc::{ChunkManager, CoreAllocator, CHUNK_SIZE};
use pmem::{PmAddr, PmRegion};
use workloads::value_bytes;

/// Batches timed per primitive; the reported cost is their median.
const ROUNDS: usize = 5;

/// Median over [`ROUNDS`] batches of `iters` calls, in ns per call.
fn per_call_ns(iters: u64, mut batch: impl FnMut(u64)) -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            batch(iters);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

fn pmem_costs(out: &mut BTreeMap<String, f64>, div: u64) {
    let pm = PmRegion::new(1 << 20);
    let line = [0xA5u8; 64];
    let lines = (1u64 << 20) / 64;
    let mut i = 0u64;
    let write = per_call_ns(200_000 / div, |n| {
        for _ in 0..n {
            i = (i + 1) % lines;
            pm.write(PmAddr(i * 64), black_box(&line));
        }
    });
    out.insert("pmem.write64_ns".into(), write);

    // Persisting needs a dirty line: a burst of lines is dirtied off the
    // clock, then persisted on it.
    const BURST: u64 = 1024;
    let bursts = 200_000 / div / BURST;
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut on_clock = 0u128;
            for burst in 0..bursts {
                let base = burst * BURST % lines;
                for l in 0..BURST {
                    pm.write(PmAddr((base + l) * 64), &line);
                }
                let t0 = Instant::now();
                for l in 0..BURST {
                    pm.persist(PmAddr((base + l) * 64), 64);
                }
                on_clock += t0.elapsed().as_nanos();
            }
            on_clock as f64 / (bursts * BURST) as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    out.insert("pmem.persist64_ns".into(), rounds[ROUNDS / 2]);
}

fn oplog_costs(out: &mut BTreeMap<String, f64>, div: u64) {
    for batch in [1usize, 4, 16] {
        let fresh = || {
            let pm = Arc::new(PmRegion::new(64 * CHUNK_SIZE as usize));
            let mgr = Arc::new(ChunkManager::format(pm, PmAddr(CHUNK_SIZE), 63));
            OpLog::create(mgr, PmAddr(0)).expect("a fresh 63-chunk pool holds a log")
        };
        let entries: Vec<LogEntry> = (0..batch as u64)
            .map(|k| LogEntry::put_ptr(k, 1, PmAddr(0x100)))
            .collect();
        let mut log = fresh();
        let per_batch = per_call_ns(100_000 / div / batch as u64, |n| {
            for _ in 0..n {
                if log.append_batch(black_box(&entries)).is_err() {
                    // Pool exhausted: start over on a fresh one.
                    log = fresh();
                }
            }
        });
        out.insert(
            format!("oplog.append_b{batch}_ns"),
            per_batch / batch as f64,
        );
    }
}

fn pmalloc_costs(out: &mut BTreeMap<String, f64>, div: u64) {
    let pm = Arc::new(PmRegion::new(64 * CHUNK_SIZE as usize));
    let mgr = Arc::new(ChunkManager::format(pm, PmAddr(0), 64));
    let mut a = CoreAllocator::new(mgr, 0);
    let ns = per_call_ns(200_000 / div, |n| {
        for _ in 0..n {
            let block = a
                .alloc(black_box(1000))
                .expect("a 64-chunk pool holds one 1 KiB block");
            a.free(block).expect("freeing the block just allocated");
        }
    });
    out.insert("pmalloc.alloc_free_1k_ns".into(), ns);
}

/// Keys of the isolated index measurements (the engine's are larger;
/// the table's depth at this size is what a lookup pays per level).
const INDEX_KEYS: u64 = 200_000;

fn index_costs(out: &mut BTreeMap<String, f64>, div: u64) {
    let keys = INDEX_KEYS / div;
    let scramble = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1;

    let pm = Arc::new(PmRegion::new(256 << 20));
    let mut cceh = Cceh::new(pm, PmAddr(0), 256 << 20, Mode::Volatile, 4)
        .expect("a 256 MiB arena holds the initial segments");
    let t0 = Instant::now();
    for k in 0..keys {
        cceh.insert(scramble(k), k)
            .expect("arena sized for the key count");
    }
    out.insert(
        "indexes.cceh_insert_ns".into(),
        t0.elapsed().as_nanos() as f64 / keys as f64,
    );
    let mut k = 0u64;
    let get = per_call_ns(keys, |n| {
        for _ in 0..n {
            k = (k + 7919) % keys;
            black_box(cceh.get(scramble(k)));
        }
    });
    out.insert("indexes.cceh_get_ns".into(), get);

    let tree = Masstree::new();
    let t0 = Instant::now();
    for k in 0..keys {
        tree.insert(scramble(k), k);
    }
    out.insert(
        "masstree.insert_ns".into(),
        t0.elapsed().as_nanos() as f64 / keys as f64,
    );
    let get = per_call_ns(keys, |n| {
        for _ in 0..n {
            k = (k + 7919) % keys;
            black_box(tree.get(scramble(k)));
        }
    });
    out.insert("masstree.get_ns".into(), get);
}

/// Two threads, two SPSC rings, one message bouncing between them.
fn ring_costs(out: &mut BTreeMap<String, f64>, div: u64) {
    let pings = 50_000 / div;
    let (ping_tx, ping_rx) = flatrpc::ring::<u64>(16);
    let (pong_tx, pong_rx) = flatrpc::ring::<u64>(16);
    let rtt = std::thread::scope(|s| {
        s.spawn(move || {
            let mut echoed = 0;
            while echoed < pings * ROUNDS as u64 {
                if let Some(v) = ping_rx.pop() {
                    pong_tx.push_blocking(v);
                    echoed += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        per_call_ns(pings, |n| {
            for i in 0..n {
                ping_tx.push_blocking(i);
                while pong_rx.pop().is_none() {
                    std::hint::spin_loop();
                }
            }
        })
    });
    out.insert("flatrpc.ring_rtt_ns".into(), rtt);
}

fn wire_costs(out: &mut BTreeMap<String, f64>, div: u64) {
    let raw = flatsrv::load::raw_key(42);
    let value = value_bytes(42, 64);
    let set = resp::command(&[b"SET".to_vec(), raw.clone(), value.clone()]);
    let parse = per_call_ns(100_000 / div, |n| {
        for _ in 0..n {
            black_box(resp::parse_command(black_box(&set)).expect("a well-formed SET"));
        }
    });
    out.insert("flatsrv.resp_parse_ns".into(), parse);

    // What one SET/GET pair costs to put on the wire: the client's
    // command framing and the server's bulk reply.
    let mut reply = Vec::with_capacity(128);
    let encode = per_call_ns(100_000 / div, |n| {
        for _ in 0..n {
            black_box(resp::command(&[
                b"SET".to_vec(),
                raw.clone(),
                value.clone(),
            ]));
            reply.clear();
            resp::bulk(&mut reply, black_box(&value));
        }
    });
    out.insert("flatsrv.resp_encode_ns".into(), encode);

    let map = per_call_ns(100_000 / div, |n| {
        for _ in 0..n {
            black_box(keymap::hash_key(black_box(&raw)));
            let frame = keymap::encode_frame(&raw, &value);
            black_box(keymap::decode_frame(black_box(&frame)));
        }
    });
    out.insert("flatsrv.keymap_ns".into(), map);
}

/// A 64-byte message bouncing over a Unix socket pair between two
/// harness threads, no server: the floor under any wire round trip.
fn socket_costs(out: &mut BTreeMap<String, f64>, div: u64) -> std::io::Result<()> {
    let pings = 4_000 / div;
    let (mut near, mut far) = UnixStream::pair()?;
    let rtt = std::thread::scope(|s| {
        s.spawn(move || {
            let mut buf = [0u8; 64];
            for _ in 0..pings * ROUNDS as u64 {
                if far.read_exact(&mut buf).is_err() || far.write_all(&buf).is_err() {
                    return;
                }
            }
        });
        let mut failed = None;
        let msg = [7u8; 64];
        let mut buf = [0u8; 64];
        let ns = per_call_ns(pings, |n| {
            for _ in 0..n {
                if let Err(e) = near
                    .write_all(&msg)
                    .and_then(|()| near.read_exact(&mut buf))
                {
                    failed.get_or_insert(e);
                    return;
                }
            }
        });
        // Dropping `near` unblocks the echo thread if a round was cut short.
        drop(near);
        failed.map_or(Ok(ns), Err)
    })?;
    out.insert("flatsrv.sock_echo_rtt_us".into(), rtt / 1e3);
    Ok(())
}

/// Prices every primitive and adds its metric to `out`. `quick` (the
/// smoke mode) runs a tenth of the iterations.
pub fn measure(out: &mut BTreeMap<String, f64>, quick: bool) {
    let div = if quick { 10 } else { 1 };
    pmem_costs(out, div);
    oplog_costs(out, div);
    pmalloc_costs(out, div);
    index_costs(out, div);
    ring_costs(out, div);
    wire_costs(out, div);
    if let Err(e) = socket_costs(out, div) {
        eprintln!("perfmap: socket echo failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_primitive_reports_a_positive_cost_under_a_known_name() {
        let mut out = BTreeMap::new();
        measure(&mut out, true);
        for (name, v) in &out {
            assert!(
                crate::spec::PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not in the per-layer table"
            );
            assert!(*v > 0.0, "{name} = {v}");
        }
        assert_eq!(out.len(), 15);
    }
}
