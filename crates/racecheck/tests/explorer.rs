//! Explorer semantics: determinism of exploration, deadlock detection,
//! preemption-bound behaviour, step budgets, the nondeterminism guard
//! that keeps DFS replay honest, failures that unwind through
//! destructors running model ops, and the read→write race direction.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use racecheck::model::{
    check, check_race, explore, explore_random, thread, AtomicU64, Config, FailureKind, Mutex,
    RaceCell,
};

/// A small two-thread model with real scheduling freedom: both threads
/// RMW a shared atomic and briefly hold a mutex.
fn busy_model() {
    let n = Arc::new(AtomicU64::named("n", 0));
    let m = Arc::new(Mutex::named("m", 0u64));

    let (n1, m1) = (Arc::clone(&n), Arc::clone(&m));
    let t1 = thread::spawn(move || {
        n1.fetch_add(1, Ordering::AcqRel);
        *m1.lock().unwrap() += 1;
    });
    let (n2, m2) = (Arc::clone(&n), Arc::clone(&m));
    let t2 = thread::spawn(move || {
        *m2.lock().unwrap() += 10;
        n2.fetch_add(2, Ordering::AcqRel);
    });
    t1.join().unwrap();
    t2.join().unwrap();
    assert_eq!(n.load(Ordering::Acquire), 3);
    assert_eq!(*m.lock().unwrap(), 11);
}

#[test]
fn exploration_is_deterministic() {
    let a = explore(Config::new(), busy_model);
    let b = explore(Config::new(), busy_model);
    assert!(a.failure.is_none(), "{:?}", a.failure);
    assert!(a.complete, "bounded tree should be exhausted");
    assert_eq!(a.schedules, b.schedules, "schedule count must replay");
    assert_eq!(a.digest, b.digest, "schedule digest must replay");
    assert!(a.schedules > 1, "model must have scheduling freedom");
}

#[test]
fn random_exploration_is_seed_deterministic() {
    let a = explore_random(Config::new(), 0xfeed, 20, busy_model);
    let b = explore_random(Config::new(), 0xfeed, 20, busy_model);
    assert!(a.failure.is_none(), "{:?}", a.failure);
    assert_eq!(
        a.digest, b.digest,
        "same seed must give identical schedules"
    );
    assert_eq!(a.schedules, 20);
}

/// Classic ABBA: t1 locks a then b, t2 locks b then a. Requires a
/// preemption between the two acquisitions, so the default bound finds it.
#[test]
fn abba_deadlock_is_detected() {
    let failure = check_race("abba", Config::new(), || {
        let a = Arc::new(Mutex::named("a", ()));
        let b = Arc::new(Mutex::named("b", ()));

        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let t1 = thread::spawn(move || {
            let _ga = a1.lock().unwrap();
            let _gb = b1.lock().unwrap();
        });
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t2 = thread::spawn(move || {
            let _gb = b2.lock().unwrap();
            let _ga = a2.lock().unwrap();
        });
        t1.join().unwrap();
        t2.join().unwrap();
    });
    assert_eq!(failure.kind, FailureKind::Deadlock, "{failure}");
}

/// A lost update: both threads load-then-store the counter. The bug
/// needs one preemption between a load and its store; with bound 0
/// every thread runs to completion uninterrupted, so the tree is clean,
/// and with bound 1 the assertion fires.
fn lost_update_model() {
    let n = Arc::new(AtomicU64::named("n", 0));

    let bump = |n: Arc<AtomicU64>| {
        let v = n.load(Ordering::Acquire);
        n.store(v + 1, Ordering::Release);
    };
    let n1 = Arc::clone(&n);
    let t1 = thread::spawn(move || bump(n1));
    let n2 = Arc::clone(&n);
    let t2 = thread::spawn(move || bump(n2));
    t1.join().unwrap();
    t2.join().unwrap();
    assert_eq!(n.load(Ordering::Acquire), 2, "lost update");
}

#[test]
fn preemption_bound_gates_what_is_found() {
    let clean = explore(Config::new().preemption_bound(Some(0)), lost_update_model);
    assert!(
        clean.failure.is_none(),
        "bound 0 cannot interleave load/store: {:?}",
        clean.failure
    );
    assert!(clean.complete);

    let failure = check_race(
        "lost-update",
        Config::new().preemption_bound(Some(1)),
        lost_update_model,
    );
    assert_eq!(failure.kind, FailureKind::Panic, "{failure}");
    assert!(failure.message.contains("lost update"), "{failure}");
}

/// The step budget converts runaway schedules into a diagnosable
/// failure instead of a hang.
#[test]
fn step_budget_reports_too_many_steps() {
    let failure = check_race("step-budget", Config::new().max_steps(4), || {
        let n = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            n.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(failure.kind, FailureKind::TooManySteps, "{failure}");
}

/// A model whose behaviour depends on state outside the execution (a
/// process-global counter) breaks replay; the explorer must call that
/// out as nondeterminism rather than mis-explore.
#[test]
fn external_state_is_flagged_as_nondeterminism() {
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    static RUNS: StdAtomicUsize = StdAtomicUsize::new(0);

    let failure = check_race("nondet", Config::new(), || {
        let hidden = RUNS.fetch_add(1, Ordering::Relaxed);
        let n = Arc::new(AtomicU64::new(0));
        let n1 = Arc::clone(&n);
        let t1 = thread::spawn(move || {
            n1.fetch_add(1, Ordering::AcqRel);
        });
        // The extra thread exists only on odd runs — a schedule replay
        // then sees a different enabled set.
        let t2 = if hidden % 2 == 1 {
            let n2 = Arc::clone(&n);
            Some(thread::spawn(move || {
                n2.fetch_add(1, Ordering::AcqRel);
            }))
        } else {
            None
        };
        t1.join().unwrap();
        if let Some(t2) = t2 {
            t2.join().unwrap();
        }
    });
    assert_eq!(failure.kind, FailureKind::Nondeterminism, "{failure}");
}

/// A value whose destructor runs model ops, like a ring draining its
/// undelivered messages when the last handle drops.
struct Drains {
    cursor: AtomicU64,
    slot: RaceCell<u64>,
}

impl Drop for Drains {
    fn drop(&mut self) {
        if self.cursor.load(Ordering::Acquire) == 0 {
            self.slot.write(0);
        }
    }
}

fn drains() -> Arc<Drains> {
    Arc::new(Drains {
        cursor: AtomicU64::named("cursor", 0),
        slot: RaceCell::named("slot", 0),
    })
}

/// A failure mid-schedule unwinds the model thread through `Drains::drop`.
/// Its model ops must not panic a second time (which aborts the process):
/// the first failure has to reach `check_race`, both for an assertion
/// and for a race found by the checker.
#[test]
fn failure_unwinding_through_model_ops_is_reported() {
    let failure = check_race("unwind/assert", Config::new(), || {
        let d = drains();
        let t = thread::spawn(move || {
            let _held = d;
            panic!("boom");
        });
        let _ = t.join();
    });
    assert_eq!(failure.kind, FailureKind::Panic, "{failure}");
    assert!(failure.message.contains("boom"), "{failure}");

    let failure = check_race("unwind/race", Config::new(), || {
        let d = drains();
        let d1 = Arc::clone(&d);
        let t = thread::spawn(move || d1.slot.write(1));
        d.slot.write(2);
        drop(d);
        let _ = t.join();
    });
    assert_eq!(failure.kind, FailureKind::Race, "{failure}");
}

/// The read→write litmus: one thread reads a slot and then marks it
/// free; the other reuses the slot once it sees the mark. Only a
/// `Release` mark orders the reuse after the read.
fn vacate_model(vacate: Ordering) {
    let slot = Arc::new(RaceCell::named("slot", 1u64));
    let free = Arc::new(AtomicU64::named("free", 0));
    let (s, f) = (Arc::clone(&slot), Arc::clone(&free));
    let reader = thread::spawn(move || {
        assert_eq!(s.read(), 1);
        f.store(1, vacate);
    });
    for _ in 0..2 {
        if free.load(Ordering::Acquire) == 1 {
            slot.write(2);
            break;
        }
        thread::yield_now();
    }
    reader.join().unwrap();
}

#[test]
fn relaxed_vacate_races_the_reuse() {
    check("vacate/release", Config::new(), || {
        vacate_model(Ordering::Release)
    });
    let failure = check_race("vacate/relaxed", Config::new(), || {
        vacate_model(Ordering::Relaxed)
    });
    assert_eq!(failure.kind, FailureKind::Race, "{failure}");
    assert!(
        failure
            .message
            .contains("write by t0 races with unsynchronized read by t1"),
        "{failure}"
    );
}
