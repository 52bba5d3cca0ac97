//! Models of the disciplines behind the workspace's lock-based and
//! dual-atomic hand-offs, each explored exhaustively (bounded) by the
//! racecheck scheduler. These are models of a discipline, not copies of
//! code: the lock-free SPSC ring and publish list are checked on their
//! shipped source instead (`racecheck_tests` in `flatrpc::ring` and
//! `flatstore::batch`).
//!
//! Every model comes in a *clean* form — asserted race-free and
//! invariant-preserving under every explored schedule — and, where the
//! bug class is subtle, a *seeded-buggy* variant that the checker must
//! catch. The buggy variants are the regression tests for the checker
//! itself: if a refactor of the engine stops flagging a Relaxed publish,
//! these fail.
//!
//! Model ↔ source map:
//! * completion fulfil/poll    ↔ `flatstore::batch::Completion`
//! * per-key completion gate   ↔ `flatstore::shard` deferred-key FIFO
//! * port park/reuse           ↔ `flatrpc` ClientPort parking
//! * cache fill vs invalidate  ↔ `flatstore::cache` write-through
//! * flight ring append        ↔ `obs::flight` recorder

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use racecheck::model::{
    check, check_race, thread, AtomicU64, Config, FailureKind, Mutex, RaceCell,
};

/// `Completion` fulfil/poll from `flatstore::batch`: the leader writes
/// the reply payload, then `fulfil` publishes the record offset with a
/// Release store on `addr`; a waiter that observes the offset via an
/// Acquire load must see the complete payload.
fn completion_model(fulfil: Ordering) {
    let addr = Arc::new(AtomicU64::named("addr", 0));
    let payload = Arc::new(RaceCell::named("payload", 0u64));

    let (a, p) = (Arc::clone(&addr), Arc::clone(&payload));
    let leader = thread::spawn(move || {
        p.write(0xfee1); // set_repl: written before fulfil publishes it
        a.store(0x40, fulfil);
    });

    // poll(): bounded spin, mirroring the waiter's poll loop.
    for _ in 0..4 {
        if addr.load(Ordering::Acquire) != 0 {
            assert_eq!(payload.read(), 0xfee1, "observed fulfil before payload");
            break;
        }
        thread::yield_now();
    }
    leader.join().unwrap();
}

#[test]
fn completion_release_fulfil_is_clean() {
    check("completion/release", Config::new(), || {
        completion_model(Ordering::Release)
    });
}

#[test]
fn completion_relaxed_fulfil_is_caught() {
    let failure = check_race("completion/relaxed-fulfil", Config::new(), || {
        completion_model(Ordering::Relaxed)
    });
    assert_eq!(failure.kind, FailureKind::Race, "{failure}");
    assert!(
        failure.message.contains("payload"),
        "race should be on the reply payload: {failure}"
    );
}

/// The shard completion-order gate from `flatstore::shard`: ops on the
/// same key must execute exclusively and in arrival order. An op
/// arriving while the key is busy parks in a deferred queue; the
/// finishing op drains it. The per-key value is a `RaceCell`, so a gate
/// that fails to serialize shows up as a data race, and the appended log
/// checks FIFO draining.
struct Gate {
    busy: bool,
    deferred: VecDeque<u64>,
    log: Vec<u64>,
}

fn gate_submit(gate: &Arc<Mutex<Gate>>, value: &Arc<RaceCell<u64>>, op: u64) {
    {
        let mut g = gate.lock().unwrap();
        if g.busy {
            g.deferred.push_back(op);
            return; // the current holder will run it on completion
        }
        g.busy = true;
    }
    let mut run = op;
    loop {
        value.write(value.read() + run); // the op body: exclusive by the gate
        let mut g = gate.lock().unwrap();
        g.log.push(run);
        match g.deferred.pop_front() {
            Some(next) => run = next,
            None => {
                g.busy = false;
                return;
            }
        }
    }
}

#[test]
fn shard_gate_serializes_and_drains_fifo() {
    check("shard/gate", Config::new(), || {
        let gate = Arc::new(Mutex::named(
            "gate",
            Gate {
                busy: false,
                deferred: VecDeque::new(),
                log: Vec::new(),
            },
        ));
        let value = Arc::new(RaceCell::named("keyval", 0u64));

        let (g1, v1) = (Arc::clone(&gate), Arc::clone(&value));
        let t1 = thread::spawn(move || gate_submit(&g1, &v1, 1));
        let (g2, v2) = (Arc::clone(&gate), Arc::clone(&value));
        let t2 = thread::spawn(move || gate_submit(&g2, &v2, 2));
        t1.join().unwrap();
        t2.join().unwrap();

        let g = gate.lock().unwrap();
        assert!(!g.busy, "gate left busy");
        assert!(g.deferred.is_empty(), "deferred op never drained");
        assert_eq!(g.log.len(), 2, "an op was lost");
        assert_eq!(value.read(), 3, "op bodies did not all run");
    });
}

/// The seeded-buggy gate: running a deferred op *without* holding the
/// busy claim (completion drops `busy` before draining) lets a third
/// submission overlap the deferred body — a race on the key value.
#[test]
fn shard_gate_unclaimed_drain_is_caught() {
    let failure = check_race("shard/unclaimed-drain", Config::new(), || {
        let gate = Arc::new(Mutex::named(
            "gate",
            Gate {
                busy: false,
                deferred: VecDeque::new(),
                log: Vec::new(),
            },
        ));
        let value = Arc::new(RaceCell::named("keyval", 0u64));

        let buggy_submit = |gate: &Arc<Mutex<Gate>>, value: &Arc<RaceCell<u64>>, op: u64| {
            {
                let mut g = gate.lock().unwrap();
                if g.busy {
                    g.deferred.push_back(op);
                    return;
                }
                g.busy = true;
            }
            value.write(value.read() + op);
            // BUG: release the claim before draining, so a concurrent
            // submit can start while the deferred op still runs.
            let next = {
                let mut g = gate.lock().unwrap();
                g.log.push(op);
                g.busy = false;
                g.deferred.pop_front()
            };
            if let Some(n) = next {
                value.write(value.read() + n);
                gate.lock().unwrap().log.push(n);
            }
        };

        let (g1, v1) = (Arc::clone(&gate), Arc::clone(&value));
        let s1 = buggy_submit;
        let t1 = thread::spawn(move || s1(&g1, &v1, 1));
        let (g2, v2) = (Arc::clone(&gate), Arc::clone(&value));
        let s2 = buggy_submit;
        let t2 = thread::spawn(move || s2(&g2, &v2, 2));
        let (g3, v3) = (Arc::clone(&gate), Arc::clone(&value));
        let s3 = buggy_submit;
        let t3 = thread::spawn(move || s3(&g3, &v3, 4));
        t1.join().unwrap();
        t2.join().unwrap();
        t3.join().unwrap();
    });
    assert_eq!(failure.kind, FailureKind::Race, "{failure}");
}

/// ClientPort park/reuse from `flatrpc`: detach parks the port in a
/// mutex-guarded free list; attach pops a parked port or mints a fresh
/// one. A port's session state is a `RaceCell` — two clients holding the
/// same port concurrently would be a race.
#[test]
fn port_park_reuse_is_exclusive() {
    check("port/park-reuse", Config::new(), || {
        let parked: Arc<Mutex<Vec<Arc<RaceCell<u64>>>>> =
            Arc::new(Mutex::named("parked", Vec::new()));
        let next_id = Arc::new(AtomicU64::named("next_id", 0));

        let client =
            |parked: Arc<Mutex<Vec<Arc<RaceCell<u64>>>>>, next_id: Arc<AtomicU64>, tag: u64| {
                // attach: reuse a parked port or mint one.
                let port = {
                    let mut p = parked.lock().unwrap();
                    p.pop()
                }
                .unwrap_or_else(|| {
                    next_id.fetch_add(1, Ordering::Relaxed);
                    Arc::new(RaceCell::new(0))
                });
                // session traffic: exclusive use of the port.
                port.write(tag);
                assert_eq!(port.read(), tag, "port shared between clients");
                // detach: park for reuse.
                parked.lock().unwrap().push(port);
            };

        let (p1, n1) = (Arc::clone(&parked), Arc::clone(&next_id));
        let t1 = thread::spawn(move || client(p1, n1, 1));
        let (p2, n2) = (Arc::clone(&parked), Arc::clone(&next_id));
        let t2 = thread::spawn(move || client(p2, n2, 2));
        t1.join().unwrap();
        t2.join().unwrap();

        let minted = next_id.load(Ordering::Relaxed);
        let free = parked.lock().unwrap().len() as u64;
        assert_eq!(minted, free, "a port leaked or was double-parked");
    });
}

/// Cache write-through invalidation from `flatstore::cache`: the writer
/// updates the store, bumps the version, invalidates the cache entry,
/// and only then publishes the ack. A reader that observes the ack and
/// hits the cache must never see the stale value; concurrent fills
/// re-check the version before inserting.
fn cache_model(invalidate_before_ack: bool) {
    let store = Arc::new(Mutex::named("store", 1u64));
    // Cache entry: (value, version-at-fill).
    let cache = Arc::new(Mutex::named("cache", Some((1u64, 0u64))));
    let version = Arc::new(AtomicU64::named("version", 0));
    let ack = Arc::new(AtomicU64::named("ack", 0));

    // Writer: store:=2, then invalidate, then ack (or the buggy order).
    let (s, c, v, a) = (
        Arc::clone(&store),
        Arc::clone(&cache),
        Arc::clone(&version),
        Arc::clone(&ack),
    );
    let writer = thread::spawn(move || {
        *s.lock().unwrap() = 2;
        v.fetch_add(1, Ordering::Release);
        if invalidate_before_ack {
            *c.lock().unwrap() = None;
            a.store(1, Ordering::Release);
        } else {
            // BUG: ack first — a reader can hit the stale entry.
            a.store(1, Ordering::Release);
            *c.lock().unwrap() = None;
        }
    });

    // Filler: warms the cache from the store, version-checked.
    let (s2, c2, v2) = (Arc::clone(&store), Arc::clone(&cache), Arc::clone(&version));
    let filler = thread::spawn(move || {
        let seen = v2.load(Ordering::Acquire);
        let val = *s2.lock().unwrap();
        let mut c = c2.lock().unwrap();
        // Re-check: only install if nothing invalidated since the read.
        if v2.load(Ordering::Acquire) == seen && c.is_none() {
            *c = Some((val, seen));
        }
    });

    // Reader: after the ack, a cache hit must not be stale.
    if ack.load(Ordering::Acquire) == 1 {
        let hit = *cache.lock().unwrap();
        if let Some((val, _)) = hit {
            assert_eq!(val, 2, "acked write but cache served the stale value");
        }
    }
    writer.join().unwrap();
    filler.join().unwrap();
}

#[test]
fn cache_invalidate_before_ack_is_clean() {
    check("cache/invalidate-first", Config::new(), || {
        cache_model(true)
    });
}

#[test]
fn cache_ack_before_invalidate_is_caught() {
    let failure = check_race("cache/ack-first", Config::new(), || cache_model(false));
    assert_eq!(failure.kind, FailureKind::Panic, "{failure}");
    assert!(
        failure.message.contains("stale"),
        "expected the staleness assertion: {failure}"
    );
}

/// The flight recorder ring from `obs::flight`: concurrent appends into
/// a mutex-guarded bounded ring plus a snapshot reader. Bounded, FIFO,
/// and no events lost before the bound.
#[test]
fn flight_ring_append_and_snapshot() {
    check("flight/ring", Config::new(), || {
        const CAP: usize = 2;
        let ring: Arc<Mutex<VecDeque<u64>>> = Arc::new(Mutex::named("flight", VecDeque::new()));

        let push = |ring: &Arc<Mutex<VecDeque<u64>>>, ev: u64| {
            let mut r = ring.lock().unwrap();
            if r.len() == CAP {
                r.pop_front();
            }
            r.push_back(ev);
        };

        let r1 = Arc::clone(&ring);
        let t1 = thread::spawn(move || push(&r1, 1));
        let r2 = Arc::clone(&ring);
        let t2 = thread::spawn(move || push(&r2, 2));

        // Snapshot while writers run: always within bounds, always FIFO.
        let snap: Vec<u64> = ring.lock().unwrap().iter().copied().collect();
        assert!(snap.len() <= CAP);
        assert!(snap.windows(2).all(|w| w[0] != w[1]), "duplicate event");

        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(ring.lock().unwrap().len(), 2, "an append was lost");
    });
}
