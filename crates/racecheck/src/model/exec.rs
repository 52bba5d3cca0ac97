//! One model execution: a set of OS threads driven one-at-a-time by a
//! cooperative scheduler, with every visible operation (atomic access,
//! lock, cell access, spawn/join/exit, yield, fence) forming a
//! scheduling choice point.
//!
//! The token discipline: exactly one thread is *active* (`current`). An
//! active thread runs local code freely; at each visible operation it
//! first makes the scheduling decision for the next operation (possibly
//! handing the token to another thread and sleeping until re-picked),
//! then applies the operation's happens-before effects through
//! [`crate::engine`] and appends to the event trace. A thread granted
//! the token after waiting executes its pending operation without a new
//! decision — so every decision corresponds to exactly one executed
//! operation, and enabled sets are a pure function of the choice
//! history. That purity is what makes prefix replay — and therefore DFS
//! exploration — deterministic.
//!
//! Thread exit is deliberately *not* a free transition: an exiting
//! thread waits for the token before flipping to `Finished`, otherwise
//! the enabled set seen by other threads' decisions would depend on OS
//! timing instead of the schedule.

use std::sync::{Arc, Condvar, Mutex};

use crate::engine::{AtomicState, CellState, MutexState, Race, Threads};

/// Payload used to unwind model threads when the execution aborts; the
/// thread wrapper swallows it.
pub(crate) struct AbortToken;

/// Why an execution was declared failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// Two unordered conflicting plain-memory accesses.
    Race,
    /// Every live thread is blocked.
    Deadlock,
    /// A model thread panicked (assertion failure).
    Panic,
    /// A schedule exceeded the step budget (livelock / unbounded spin).
    TooManySteps,
    /// Replay diverged — the model is not deterministic.
    Nondeterminism,
}

/// A failing schedule, with enough context to reproduce and read it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    /// Human-readable description of what fired.
    pub message: String,
    /// The schedule (chosen thread per step) that exposed it.
    pub schedule: Vec<usize>,
    /// The interleaved event trace, one line per visible operation.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "racecheck {:?}: {}", self.kind, self.message)?;
        writeln!(f, "schedule: {:?}", self.schedule)?;
        writeln!(f, "trace ({} events):", self.trace.len())?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// One recorded scheduling decision.
#[derive(Debug, Clone)]
pub(crate) struct Choice {
    /// Runnable thread ids at the decision (ascending).
    pub enabled: Vec<usize>,
    /// The thread chosen to execute the next operation.
    pub chosen: usize,
    /// The thread that held the token when the decision was made.
    pub prev: usize,
}

impl Choice {
    /// A decision preempts when the previous holder could have continued
    /// but another thread was chosen.
    pub fn is_preemption(&self) -> bool {
        self.chosen != self.prev && self.enabled.contains(&self.prev)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    /// Parked by `yield_now`; schedulable only when no thread is Runnable.
    Yielded,
    /// Waiting for a mutex (by registry index).
    LockWait(usize),
    /// Waiting for a thread to finish.
    JoinWait(usize),
    Finished,
}

/// How the scheduler picks beyond the replay prefix.
#[derive(Debug, Clone)]
pub(crate) enum Policy {
    /// Prefer the current holder, else the lowest runnable id (the DFS
    /// base schedule; alternatives come from the explorer's prefix).
    Deterministic,
    /// Seeded xorshift pick, uniform over the enabled set.
    Random { state: u64 },
}

fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

#[derive(Debug)]
pub(crate) struct ExecState {
    pub status: Vec<Status>,
    /// `granted[t]` is set when a scheduling decision chose `t` to
    /// execute its next operation and `t` has not consumed it yet.
    /// Exactly one grant is outstanding at a time; consuming it is the
    /// only way to execute an operation, which makes every decision
    /// correspond to exactly one op regardless of OS timing.
    pub granted: Vec<bool>,
    /// The active thread (token holder).
    pub current: usize,
    pub step: usize,
    pub max_steps: usize,
    /// Replay prefix: chosen thread per step for the first
    /// `prefix.len()` decisions.
    pub prefix: Vec<usize>,
    pub policy: Policy,
    pub choices: Vec<Choice>,
    pub threads: Threads,
    pub atomics: Vec<AtomicState>,
    /// Mutex registry: happens-before clock + current holder.
    pub mutexes: Vec<(MutexState, Option<usize>)>,
    pub cells: Vec<CellState>,
    pub trace: Vec<String>,
    pub failure: Option<Failure>,
    pub abort: bool,
    /// Threads not yet Finished.
    pub live: usize,
    /// OS wrapper threads still running (run teardown barrier).
    pub os_alive: usize,
    /// Set when the last model thread finished cleanly.
    pub done: bool,
}

#[derive(Debug)]
pub(crate) struct Execution {
    m: Mutex<ExecState>,
    cv: Condvar,
}

impl Execution {
    pub fn new(prefix: Vec<usize>, policy: Policy, max_steps: usize) -> Arc<Execution> {
        Arc::new(Execution {
            m: Mutex::new(ExecState {
                status: vec![Status::Runnable],
                granted: vec![false],
                current: 0,
                step: 0,
                max_steps,
                prefix,
                policy,
                choices: Vec::new(),
                threads: Threads::root(),
                atomics: Vec::new(),
                mutexes: Vec::new(),
                cells: Vec::new(),
                trace: Vec::new(),
                failure: None,
                abort: false,
                live: 1,
                os_alive: 1, // the root wrapper, accounted before it spawns
                done: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecState> {
        // A poisoned lock means the checker itself panicked while
        // holding it; propagate loudly.
        self.m.lock().expect("racecheck execution state poisoned")
    }

    /// Registers a model atomic; returns its id.
    pub fn register_atomic(&self, value: u64) -> usize {
        let mut st = self.lock();
        st.atomics.push(AtomicState {
            value,
            msg: Default::default(),
        });
        st.atomics.len() - 1
    }

    pub fn register_mutex(&self) -> usize {
        let mut st = self.lock();
        st.mutexes.push((MutexState::default(), None));
        st.mutexes.len() - 1
    }

    pub fn register_cell(&self) -> usize {
        let mut st = self.lock();
        st.cells.push(CellState::default());
        st.cells.len() - 1
    }

    /// Records a failure (first one wins) and aborts the execution.
    fn fail(&self, st: &mut ExecState, kind: FailureKind, message: String) {
        if st.failure.is_none() {
            st.failure = Some(Failure {
                kind,
                message,
                schedule: st.choices.iter().map(|c| c.chosen).collect(),
                trace: st.trace.clone(),
            });
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// Records a model-thread panic (assertion failure) as the
    /// execution's failure.
    pub fn fail_panic(&self, tid: usize, message: String) {
        let mut st = self.lock();
        let msg = format!("thread t{tid} panicked: {message}");
        self.fail(&mut st, FailureKind::Panic, msg);
    }

    pub fn os_exit(&self) {
        let mut st = self.lock();
        st.os_alive -= 1;
        self.cv.notify_all();
    }

    /// The scheduling decision: pick who executes the next operation.
    /// Called with the lock held by the token holder (`prev`). Returns
    /// the chosen tid, or `None` when the execution ended (completion,
    /// deadlock, step-budget or replay failure — `st.abort`/`st.done`
    /// distinguish them).
    fn pick(&self, st: &mut ExecState, prev: usize) -> Option<usize> {
        let mut enabled: Vec<usize> = (0..st.status.len())
            .filter(|&t| st.status[t] == Status::Runnable)
            .collect();
        if enabled.is_empty() {
            // Spinners parked by yield_now become schedulable only once
            // nothing else can run.
            let yielded: Vec<usize> = (0..st.status.len())
                .filter(|&t| st.status[t] == Status::Yielded)
                .collect();
            if !yielded.is_empty() {
                for &t in &yielded {
                    st.status[t] = Status::Runnable;
                }
                enabled = yielded;
            } else if st.live > 0 {
                let blocked: Vec<String> = (0..st.status.len())
                    .filter(|&t| st.status[t] != Status::Finished)
                    .map(|t| format!("t{t} {:?}", st.status[t]))
                    .collect();
                self.fail(
                    st,
                    FailureKind::Deadlock,
                    format!("all live threads blocked: {}", blocked.join(", ")),
                );
                return None;
            } else {
                st.done = true;
                self.cv.notify_all();
                return None;
            }
        }
        let step = st.step;
        if step >= st.max_steps {
            self.fail(
                st,
                FailureKind::TooManySteps,
                format!(
                    "schedule exceeded {} steps — unbounded spin in the model? \
                     (bound retries and racecheck-yield between poll attempts)",
                    st.max_steps
                ),
            );
            return None;
        }
        let chosen = if let Some(&want) = st.prefix.get(step) {
            if !enabled.contains(&want) {
                let msg = format!(
                    "replay diverged at step {step}: prefix wants t{want}, enabled {enabled:?}"
                );
                self.fail(st, FailureKind::Nondeterminism, msg);
                return None;
            }
            want
        } else {
            match &mut st.policy {
                Policy::Deterministic => {
                    if enabled.contains(&prev) {
                        prev
                    } else {
                        enabled[0]
                    }
                }
                Policy::Random { state } => {
                    let i = (xorshift(state) % enabled.len() as u64) as usize;
                    enabled[i]
                }
            }
        };
        st.choices.push(Choice {
            enabled,
            chosen,
            prev,
        });
        st.step += 1;
        st.current = chosen;
        st.granted[chosen] = true;
        Some(chosen)
    }

    /// Blocks until this thread holds an unconsumed grant, consuming it.
    /// If this thread is the token holder at a fresh op boundary (its
    /// previous grant consumed, nothing outstanding), it makes the next
    /// scheduling decision itself. Unwinds with [`AbortToken`] when the
    /// execution aborts.
    fn acquire_grant<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, ExecState>,
        tid: usize,
    ) -> std::sync::MutexGuard<'a, ExecState> {
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(AbortToken);
            }
            if st.granted[tid] {
                st.granted[tid] = false;
                return st;
            }
            if st.current == tid && st.status[tid] == Status::Runnable {
                // Fresh op boundary: this thread owns the next decision.
                match self.pick(&mut st, tid) {
                    Some(next) if next == tid => continue, // consume above
                    Some(_) => self.cv.notify_all(),
                    None => {
                        drop(st);
                        std::panic::panic_any(AbortToken);
                    }
                }
            }
            st = self
                .cv
                .wait(st)
                .expect("racecheck execution state poisoned");
        }
    }

    /// The visible-operation protocol: acquire the grant for exactly one
    /// operation, then run `apply`. `apply` returning
    /// [`ApplyOutcome::Block`] means the operation cannot proceed (mutex
    /// held, join target live) — the closure has set this thread's
    /// blocked status, the decision is handed to another thread, and
    /// `apply` retries when this thread is granted again.
    pub fn visible<R>(
        self: &Arc<Self>,
        tid: usize,
        mut apply: impl FnMut(&mut ExecState) -> ApplyOutcome<R>,
    ) -> R {
        if std::thread::panicking() {
            // A destructor reached a model op while this thread unwinds
            // (an abort, or an assertion `run_thread` is about to
            // record). The schedule is dead: apply the op out of band,
            // with no decision, because a second panic would abort the
            // process before the first failure reaches `check`. Only a
            // blocking op (a held lock, a join, a yield) cannot complete
            // this way and still unwinds.
            if let ApplyOutcome::Done(r) = apply(&mut self.lock()) {
                return r;
            }
        }
        let mut st = self.acquire_grant(self.lock(), tid);
        loop {
            match apply(&mut st) {
                ApplyOutcome::Done(r) => return r,
                ApplyOutcome::Fail(kind, msg) => {
                    self.fail(&mut st, kind, msg);
                    drop(st);
                    std::panic::panic_any(AbortToken);
                }
                ApplyOutcome::Block => {
                    // Status set by `apply`; grant someone else and
                    // retry the operation when re-granted.
                    match self.pick(&mut st, tid) {
                        Some(_) => {
                            self.cv.notify_all();
                            st = self.acquire_grant(st, tid);
                        }
                        None => {
                            drop(st);
                            std::panic::panic_any(AbortToken);
                        }
                    }
                }
            }
        }
    }

    /// Formats a race found by the engine.
    pub(crate) fn race_message(what: &str, race: &Race) -> String {
        let cur = if race.write { "write" } else { "read" };
        let prior = if race.other_write { "write" } else { "read" };
        format!(
            "data race on {what}: {cur} by t{} races with unsynchronized {prior} by t{}",
            race.tid, race.other
        )
    }

    /// Appends one event-trace line.
    pub(crate) fn trace(st: &mut ExecState, tid: usize, desc: String) {
        let step = st.step;
        st.trace.push(format!("#{step:<4} t{tid} {desc}"));
    }

    /// Spawn bookkeeping (called from within a visible op's `apply`).
    pub(crate) fn add_thread(st: &mut ExecState, parent: usize) -> usize {
        let child = st.threads.spawn(parent);
        debug_assert_eq!(child, st.status.len());
        st.status.push(Status::Runnable);
        st.granted.push(false);
        st.live += 1;
        st.os_alive += 1;
        child
    }

    /// Thread exit — a visible operation: the exiting thread acquires a
    /// grant like any op, flips to `Finished`, wakes joiners, and makes
    /// the next decision. Never unwinds: it runs after the wrapper's
    /// `catch_unwind`.
    pub fn thread_exit(self: &Arc<Self>, tid: usize) {
        let mut st = self.lock();
        loop {
            if st.abort {
                // The run is being torn down; the explorer only waits on
                // os_alive, so no status bookkeeping is needed.
                return;
            }
            if st.granted[tid] {
                st.granted[tid] = false;
                break;
            }
            if st.current == tid && st.status[tid] == Status::Runnable {
                match self.pick(&mut st, tid) {
                    Some(next) if next == tid => continue,
                    Some(_) => self.cv.notify_all(),
                    None => return, // execution ended under us
                }
            }
            st = self
                .cv
                .wait(st)
                .expect("racecheck execution state poisoned");
        }
        st.status[tid] = Status::Finished;
        st.live -= 1;
        for t in 0..st.status.len() {
            if st.status[t] == Status::JoinWait(tid) {
                st.status[t] = Status::Runnable;
            }
        }
        Execution::trace(&mut st, tid, "exit".to_string());
        let _ = self.pick(&mut st, tid);
        self.cv.notify_all();
    }

    /// Waits until the execution completed (or aborted) and every model
    /// OS thread exited; returns the failure, the recorded decisions and
    /// the event trace. `watchdog_polls` bounds the wait in ~100 ms
    /// ticks before force-aborting a hung run.
    pub fn finish(&self, watchdog_polls: u32) -> (Option<Failure>, Vec<Choice>, Vec<String>) {
        let mut st = self.lock();
        let mut polls = 0u32;
        loop {
            if (st.done || st.abort) && st.os_alive == 0 {
                break;
            }
            let (g, timeout) = self
                .cv
                .wait_timeout(st, std::time::Duration::from_millis(100))
                .expect("racecheck execution state poisoned");
            st = g;
            if timeout.timed_out() {
                polls += 1;
                if polls == watchdog_polls && !(st.done || st.abort) {
                    self.fail(
                        &mut st,
                        FailureKind::TooManySteps,
                        "execution hung: a model thread stopped reaching visible operations"
                            .to_string(),
                    );
                }
                if polls >= 2 * watchdog_polls {
                    // OS threads refuse to die — stop waiting; the leaked
                    // Arc keeps their state alive so they fault nothing.
                    break;
                }
            }
        }
        (
            st.failure.clone(),
            std::mem::take(&mut st.choices),
            std::mem::take(&mut st.trace),
        )
    }
}

/// Result of applying one visible operation.
pub(crate) enum ApplyOutcome<R> {
    Done(R),
    /// The op cannot proceed; the apply closure has set the thread's
    /// blocked status.
    Block,
    Fail(FailureKind, String),
}
