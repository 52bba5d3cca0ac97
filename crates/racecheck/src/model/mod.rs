//! The checked concurrency model: drop-in `std::sync` lookalikes whose
//! every operation is a scheduling choice point feeding the
//! happens-before engine.
//!
//! Code under test runs inside [`explore`]/[`check`] as a closure; it
//! creates [`AtomicU64`]-family atomics, [`Mutex`]es and [`RaceCell`]s,
//! spawns model threads with [`thread::spawn`], and the explorer runs
//! the closure once per schedule. Within one schedule exactly one model
//! thread executes at a time (a token handed off at visible
//! operations), so plain-memory accesses through [`RaceCell`] are
//! physically serialized — the vector-clock engine then reports the
//! *logical* races the memory orderings fail to forbid.
//!
//! Models must be finite: no unbounded spin loops. Poll loops should
//! retry a bounded number of times and call [`thread::yield_now`]
//! between attempts — a yielded thread is only rescheduled once every
//! other thread is blocked or finished, which keeps the schedule tree
//! small and makes bounded retries sufficient.

#![expect(
    unsafe_code,
    reason = "the model's Mutex and RaceCell hand out references into UnsafeCells; the scheduler runs one model thread at a time"
)]

mod exec;
mod explore;

pub use exec::{Failure, FailureKind};
pub use explore::{check, check_race, explore, explore_random, Config, Report};

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use exec::{AbortToken, ApplyOutcome, ExecState, Execution, Status};

thread_local! {
    static CTX: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> (Arc<Execution>, usize) {
    CTX.with(|c| c.borrow().clone())
        .expect("racecheck model type used outside explore()/check()")
}

/// Returns the calling model thread's id, panicking with a pointer check
/// if `exec` belongs to a different (stale) execution.
fn ctx_tid(exec: &Arc<Execution>) -> usize {
    let (cur, tid) = ctx();
    assert!(
        Arc::ptr_eq(&cur, exec),
        "racecheck model object used across executions — create objects inside the model closure"
    );
    tid
}

pub(crate) fn set_ctx(exec: Arc<Execution>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((exec, tid)));
}

pub(crate) fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
}

fn ordering_name(o: Ordering) -> &'static str {
    match o {
        Ordering::Relaxed => "Relaxed",
        Ordering::Acquire => "Acquire",
        Ordering::Release => "Release",
        Ordering::AcqRel => "AcqRel",
        Ordering::SeqCst => "SeqCst",
        _ => "?",
    }
}

/// A model 64-bit atomic; the base everything else wraps.
#[derive(Debug)]
pub struct AtomicU64 {
    exec: Arc<Execution>,
    id: usize,
    name: String,
}

impl AtomicU64 {
    pub fn new(value: u64) -> AtomicU64 {
        let (exec, _) = ctx();
        let id = exec.register_atomic(value);
        AtomicU64 {
            exec,
            id,
            name: format!("atomic{id}"),
        }
    }

    /// Like [`AtomicU64::new`] with a trace-friendly name.
    pub fn named(name: &str, value: u64) -> AtomicU64 {
        let mut a = AtomicU64::new(value);
        a.name = name.to_string();
        a
    }

    pub fn load(&self, order: Ordering) -> u64 {
        let tid = ctx_tid(&self.exec);
        let (id, name) = (self.id, &self.name);
        self.exec.visible(tid, |st: &mut ExecState| {
            let v = st.threads.atomic_load(tid, &mut st.atomics[id], order);
            Execution::trace(
                st,
                tid,
                format!("{name}.load({}) -> {v}", ordering_name(order)),
            );
            ApplyOutcome::Done(v)
        })
    }

    pub fn store(&self, value: u64, order: Ordering) {
        let tid = ctx_tid(&self.exec);
        let (id, name) = (self.id, &self.name);
        self.exec.visible(tid, |st: &mut ExecState| {
            st.threads
                .atomic_store(tid, &mut st.atomics[id], value, order);
            Execution::trace(
                st,
                tid,
                format!("{name}.store({value}, {})", ordering_name(order)),
            );
            ApplyOutcome::Done(())
        })
    }

    fn rmw(&self, op: &str, order: Ordering, f: impl Fn(u64) -> u64) -> u64 {
        let tid = ctx_tid(&self.exec);
        let (id, name) = (self.id, &self.name);
        self.exec.visible(tid, |st: &mut ExecState| {
            let old = st.atomics[id].value;
            let new = f(old);
            st.threads.atomic_rmw(tid, &mut st.atomics[id], new, order);
            Execution::trace(
                st,
                tid,
                format!("{name}.{op}({}) {old} -> {new}", ordering_name(order)),
            );
            ApplyOutcome::Done(old)
        })
    }

    pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        self.rmw("fetch_add", order, |old| old.wrapping_add(v))
    }

    pub fn fetch_sub(&self, v: u64, order: Ordering) -> u64 {
        self.rmw("fetch_sub", order, |old| old.wrapping_sub(v))
    }

    /// Strong compare-exchange (the model has no spurious failures).
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let tid = ctx_tid(&self.exec);
        let (id, name) = (self.id, &self.name);
        self.exec.visible(tid, |st: &mut ExecState| {
            let old = st.atomics[id].value;
            let r = if old == current {
                st.threads
                    .atomic_rmw(tid, &mut st.atomics[id], new, success);
                Ok(old)
            } else {
                st.threads.atomic_load(tid, &mut st.atomics[id], failure);
                Err(old)
            };
            let verdict = if r.is_ok() { "ok" } else { "fail" };
            Execution::trace(
                st,
                tid,
                format!("{name}.compare_exchange({current} -> {new}) {verdict} (was {old})"),
            );
            ApplyOutcome::Done(r)
        })
    }
}

impl Default for AtomicU64 {
    fn default() -> AtomicU64 {
        AtomicU64::new(0)
    }
}

/// A model `usize` atomic.
#[derive(Debug)]
pub struct AtomicUsize(AtomicU64);

impl AtomicUsize {
    pub fn new(value: usize) -> AtomicUsize {
        AtomicUsize(AtomicU64::new(value as u64))
    }

    pub fn load(&self, order: Ordering) -> usize {
        self.0.load(order) as usize
    }

    pub fn store(&self, value: usize, order: Ordering) {
        self.0.store(value as u64, order)
    }

    pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        self.0.fetch_add(v as u64, order) as usize
    }

    pub fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
        self.0.fetch_sub(v as u64, order) as usize
    }
}

/// A model boolean atomic.
#[derive(Debug)]
pub struct AtomicBool(AtomicU64);

impl AtomicBool {
    pub fn new(value: bool) -> AtomicBool {
        AtomicBool(AtomicU64::new(value as u64))
    }

    pub fn load(&self, order: Ordering) -> bool {
        self.0.load(order) != 0
    }

    pub fn store(&self, value: bool, order: Ordering) {
        self.0.store(value as u64, order)
    }

    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        self.0
            .compare_exchange(current as u64, new as u64, success, failure)
            .map(|v| v != 0)
            .map_err(|v| v != 0)
    }
}

/// A memory fence with ordering `order`.
pub fn fence(order: Ordering) {
    let (exec, tid) = ctx();
    exec.visible(tid, |st: &mut ExecState| {
        st.threads.fence(tid, order);
        Execution::trace(st, tid, format!("fence({})", ordering_name(order)));
        ApplyOutcome::Done(())
    })
}

/// A model mutex mirroring `std::sync::Mutex` (no poisoning: a panicking
/// model thread aborts the whole schedule instead).
#[derive(Debug)]
pub struct Mutex<T> {
    exec: Arc<Execution>,
    id: usize,
    name: String,
    data: UnsafeCell<T>,
}

// SAFETY: access to `data` is serialized by the model mutex itself, whose
// lock/unlock operations run under the execution's scheduling token.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: same lock discipline as `Send` above.
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        let (exec, _) = ctx();
        let id = exec.register_mutex();
        Mutex {
            exec,
            id,
            name: format!("mutex{id}"),
            data: UnsafeCell::new(value),
        }
    }

    /// Constructor with a trace-friendly name.
    pub fn named(name: &str, value: T) -> Mutex<T> {
        let mut m = Mutex::new(value);
        m.name = name.to_string();
        m
    }

    /// Acquires the mutex, blocking this model thread (and exploring the
    /// schedules where others run) while it is held.
    pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
        let tid = ctx_tid(&self.exec);
        let (id, name) = (self.id, &self.name);
        self.exec.visible(tid, |st: &mut ExecState| {
            let holder = st.mutexes[id].1;
            match holder {
                None => {
                    st.mutexes[id].1 = Some(tid);
                    let (threads, mutexes) = (&mut st.threads, &mut st.mutexes);
                    threads.mutex_lock(tid, &mut mutexes[id].0);
                    Execution::trace(st, tid, format!("{name}.lock()"));
                    ApplyOutcome::Done(())
                }
                Some(_) => {
                    st.status[tid] = Status::LockWait(id);
                    ApplyOutcome::Block
                }
            }
        });
        Ok(MutexGuard { m: self })
    }
}

/// RAII guard for [`Mutex`]; unlocking is a visible operation.
pub struct MutexGuard<'a, T> {
    m: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this thread holds the model mutex, and only the token
        // holder executes, so no other reference to `data` is live.
        unsafe { &*self.m.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive by the same lock discipline as `deref`.
        unsafe { &mut *self.m.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Unwinding (abort teardown or a model assertion failure):
            // the schedule is already dead, and a visible op here would
            // double-panic. Leave the mutex state as-is.
            return;
        }
        let tid = ctx_tid(&self.m.exec);
        let (id, name) = (self.m.id, &self.m.name);
        self.m.exec.visible(tid, |st: &mut ExecState| {
            st.mutexes[id].1 = None;
            let (threads, mutexes) = (&mut st.threads, &mut st.mutexes);
            threads.mutex_unlock(tid, &mut mutexes[id].0);
            for t in 0..st.status.len() {
                if st.status[t] == Status::LockWait(id) {
                    st.status[t] = Status::Runnable;
                }
            }
            Execution::trace(st, tid, format!("{name}.unlock()"));
            ApplyOutcome::Done(())
        })
    }
}

/// Plain (non-atomic) shared memory — the locations data races are
/// detected *on*. The release build's counterpart is
/// [`crate::sync::RaceCell`], an `UnsafeCell` whose discipline this type
/// verifies; `with`/`with_mut` keep its `unsafe` signatures so shipped
/// code compiles warning-free under both builds.
#[derive(Debug)]
pub struct RaceCell<T> {
    exec: Arc<Execution>,
    id: usize,
    name: String,
    data: UnsafeCell<T>,
}

// SAFETY: the scheduler serializes all access physically; logically racy
// schedules are reported and abort before user code observes them.
unsafe impl<T: Send> Send for RaceCell<T> {}
// SAFETY: same serialization argument as `Send` above.
unsafe impl<T: Send> Sync for RaceCell<T> {}

impl<T> RaceCell<T> {
    pub fn new(value: T) -> RaceCell<T> {
        let (exec, _) = ctx();
        let id = exec.register_cell();
        RaceCell {
            exec,
            id,
            name: format!("cell{id}"),
            data: UnsafeCell::new(value),
        }
    }

    /// Constructor with a trace-friendly name.
    pub fn named(name: &str, value: T) -> RaceCell<T> {
        let mut c = RaceCell::new(value);
        c.name = name.to_string();
        c
    }

    fn access(&self, write: bool) {
        if std::thread::panicking() {
            // A destructor touching the cell while this thread unwinds:
            // the schedule is already dead, and a race found now would
            // panic again and abort the process.
            return;
        }
        let tid = ctx_tid(&self.exec);
        let (id, name) = (self.id, &self.name);
        self.exec.visible(tid, |st: &mut ExecState| {
            let r = if write {
                st.threads.cell_write(tid, &mut st.cells[id])
            } else {
                st.threads.cell_read(tid, &mut st.cells[id])
            };
            let kind = if write { "write" } else { "read" };
            Execution::trace(st, tid, format!("{name}.{kind}"));
            match r {
                Ok(()) => ApplyOutcome::Done(()),
                Err(race) => ApplyOutcome::Fail(
                    FailureKind::Race,
                    Execution::race_message(&format!("`{name}`"), &race),
                ),
            }
        })
    }

    /// Immutable access; a read event for the race detector.
    ///
    /// # Safety
    ///
    /// The release-build contract: no concurrent writer and no nested
    /// mutable access. Under the model a violating schedule is reported
    /// as a race before `f` runs.
    // SAFETY: the contract is the caller's, stated above.
    pub unsafe fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.access(false);
        // SAFETY: the calling thread holds the scheduling token, so no
        // other model thread executes concurrently; racy schedules abort
        // in `access` before reaching here.
        f(unsafe { &*self.data.get() })
    }

    /// Mutable access; a write event for the race detector.
    ///
    /// # Safety
    ///
    /// The release-build contract: no concurrent access and no nested
    /// access from `f`.
    // SAFETY: the contract is the caller's, stated above.
    pub unsafe fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.access(true);
        // SAFETY: exclusive by the token discipline described in `with`.
        f(unsafe { &mut *self.data.get() })
    }
}

impl<T: Copy> RaceCell<T> {
    /// Copies the value out (read event).
    pub fn read(&self) -> T {
        // SAFETY: the copy cannot re-enter the cell, and the scheduler
        // serializes model threads physically.
        unsafe { self.with(|v| *v) }
    }

    /// Overwrites the value (write event).
    pub fn write(&self, value: T) {
        // SAFETY: as in `read`.
        unsafe { self.with_mut(|v| *v = value) }
    }
}

/// Model threads: spawn/join with happens-before edges, plus the
/// scheduler-aware yield.
pub mod thread {
    use super::*;

    /// Handle to a model thread; dropping it detaches (the explorer
    /// still waits for the thread at end of schedule).
    pub struct JoinHandle<T> {
        exec: Arc<Execution>,
        tid: usize,
        result: Arc<std::sync::Mutex<Option<T>>>,
    }

    /// Spawns a model thread. The closure runs on its own OS thread but
    /// only ever executes while holding the execution's token.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (exec, parent) = ctx();
        let child = exec.visible(parent, |st: &mut ExecState| {
            let child = Execution::add_thread(st, parent);
            Execution::trace(st, parent, format!("spawn t{child}"));
            ApplyOutcome::Done(child)
        });
        let result = Arc::new(std::sync::Mutex::new(None));
        let slot = Arc::clone(&result);
        let exec2 = Arc::clone(&exec);
        std::thread::Builder::new()
            .name(format!("racecheck-t{child}"))
            .spawn(move || run_thread(exec2, child, f, slot))
            .expect("racecheck failed to spawn a model OS thread");
        JoinHandle {
            exec,
            tid: child,
            result,
        }
    }

    pub(super) fn run_thread<F, T>(
        exec: Arc<Execution>,
        tid: usize,
        f: F,
        slot: Arc<std::sync::Mutex<Option<T>>>,
    ) where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        set_ctx(Arc::clone(&exec), tid);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        match r {
            Ok(v) => {
                *slot.lock().expect("racecheck result slot poisoned") = Some(v);
            }
            Err(p) if p.downcast_ref::<AbortToken>().is_some() => {}
            Err(p) => {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                exec.fail_panic(tid, msg);
            }
        }
        exec.thread_exit(tid);
        clear_ctx();
        exec.os_exit();
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread and joins its clock into the caller's.
        pub fn join(self) -> std::thread::Result<T> {
            let me = ctx_tid(&self.exec);
            let target = self.tid;
            self.exec.visible(me, |st: &mut ExecState| {
                if st.status[target] == Status::Finished {
                    st.threads.join(me, target);
                    Execution::trace(st, me, format!("join t{target}"));
                    ApplyOutcome::Done(())
                } else {
                    st.status[me] = Status::JoinWait(target);
                    ApplyOutcome::Block
                }
            });
            let v = self
                .result
                .lock()
                .expect("racecheck result slot poisoned")
                .take()
                .expect("joined model thread stored no result");
            Ok(v)
        }
    }

    /// Parks this thread until every other thread is blocked or done —
    /// the model-world replacement for spin-loop back-off. Poll loops
    /// must call this between bounded retries.
    pub fn yield_now() {
        let (exec, tid) = ctx();
        let mut parked = false;
        exec.visible(tid, |st: &mut ExecState| {
            if parked {
                Execution::trace(st, tid, "resume".to_string());
                ApplyOutcome::Done(())
            } else {
                parked = true;
                st.status[tid] = Status::Yielded;
                Execution::trace(st, tid, "yield".to_string());
                ApplyOutcome::Block
            }
        })
    }
}
