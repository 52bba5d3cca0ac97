//! Pipelined client sessions over the FlatRPC fabric.
//!
//! A [`Session`] is the paper's client view of FlatRPC: it owns a
//! `ClientPort` (one request ring into and one response ring out of
//! every server core) and keeps up to
//! `pipeline_depth` operations in flight. Submitting returns a
//! [`Ticket`] immediately; completions are harvested out of order with
//! [`Session::poll_completions`] or awaited with [`Session::wait`].
//! Horizontal batching feeds on this concurrency: every in-flight
//! operation is a log entry a leader can steal into its batch.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use flatrpc::{clock, Envelope};
use obs::{Sampler, Span, SpanCtx, Stage};

use crate::batch::EngineStats;
use crate::error::StoreError;
use crate::flight::FlightRegistry;
use crate::request::{Op, OpReq, Reply, StoreClientPort, StoreFabric};

/// Engine state every session (and the blocking handle) hangs off.
pub(crate) struct EngineShared {
    pub fabric: Arc<StoreFabric>,
    pub ncores: usize,
    /// Max in-flight operations per session ([`Config::pipeline_depth`]).
    ///
    /// [`Config::pipeline_depth`]: crate::Config::pipeline_depth
    pub depth: usize,
    pub stats: Arc<EngineStats>,
    /// Causal-trace sampling rate each session seeds its [`Sampler`]
    /// with ([`Config::trace_sample`]).
    ///
    /// [`Config::trace_sample`]: crate::Config::trace_sample
    pub trace_sample: u64,
    /// Per-core flight recorder rings (always on; dumped on panic).
    pub flight: Arc<FlightRegistry>,
    /// Set once the workers have exited; sessions then fail fast instead
    /// of spinning on rings nobody drains.
    pub stop: AtomicBool,
}

impl EngineShared {
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Bounded spin-then-yield-then-sleep backoff for the session's poll
/// loops.
///
/// A hot busy-poll burns a full client core while waiting and, on an
/// oversubscribed host, steals cycles from the very worker threads it is
/// waiting on; sleeping immediately would add wake-up latency to every
/// completion. The ladder escalates instead: a short `spin_loop` burst
/// (completions usually land within a batch flush), then scheduler
/// yields, then exponentially growing sleeps capped at
/// [`SLEEP_CAP_US`](Backoff::SLEEP_CAP_US) so even a long stall polls
/// frequently enough to keep tail latency bounded. Any progress resets
/// the ladder to fully responsive.
pub(crate) struct Backoff {
    step: u32,
}

impl Backoff {
    /// Steps spent in `spin_loop` before yielding.
    const SPIN: u32 = 64;
    /// Further steps spent in `yield_now` before sleeping.
    const YIELD: u32 = 192;
    /// First sleep duration; doubles each step.
    const SLEEP_BASE_US: u64 = 5;
    /// Longest sleep between polls.
    const SLEEP_CAP_US: u64 = 200;

    pub fn new() -> Backoff {
        Backoff { step: 0 }
    }

    /// Restores full responsiveness after progress.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// The sleep this step takes, in µs — 0 while still spinning or
    /// yielding.
    fn sleep_us(step: u32) -> u64 {
        let Some(exp) = step.checked_sub(Self::SPIN + Self::YIELD) else {
            return 0;
        };
        (Self::SLEEP_BASE_US << exp.min(16)).min(Self::SLEEP_CAP_US)
    }

    /// One step of waiting; escalates each call until [`reset`](Self::reset).
    pub fn wait(&mut self) {
        if self.step < Self::SPIN {
            std::hint::spin_loop();
        } else if self.step < Self::SPIN + Self::YIELD {
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(Self::sleep_us(self.step)));
        }
        self.step = self.step.saturating_add(1);
    }
}

/// Identifies one submitted operation within its [`Session`].
///
/// Tickets are session-local: a ticket from one session is meaningless to
/// another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// A pipelined client connection to a running store.
///
/// Obtained from [`FlatStore::session`] or [`StoreHandle::session`]; each
/// session attaches its own `ClientPort` to the fabric and may move to any
/// thread. Submission never blocks on persistence — only on the pipeline
/// being full (`pipeline_depth` ops outstanding) or a request ring being
/// out of credits, and both stalls absorb completions while they wait.
///
/// Dropping a session with operations still in flight drains them first
/// (their effects are kept; their results are discarded).
///
/// [`FlatStore::session`]: crate::FlatStore::session
/// [`StoreHandle::session`]: crate::StoreHandle::session
///
/// # Example
///
/// ```
/// use flatstore::prelude::*;
/// use flatstore::FlatStore;
///
/// let store = FlatStore::create(
///     Config::builder().pm_bytes(64 << 20).ncores(2).group_size(2).build()?,
/// )?;
/// let mut session = store.session()?;
/// let tickets: Vec<_> = (0..32u64)
///     .map(|k| session.submit(Op::put(k, b"v")))
///     .collect::<Result<_, _>>()?;
/// for t in tickets {
///     assert_eq!(session.wait(t)?, Reply::Put(Ok(())));
/// }
/// # store.shutdown()?;
/// # Ok::<(), flatstore::StoreError>(())
/// ```
pub struct Session {
    shared: Arc<EngineShared>,
    port: StoreClientPort,
    next_seq: u64,
    /// Data operations in flight: seq → submission time.
    inflight: HashMap<u64, Instant>,
    /// Control requests (barrier/cursor) awaiting their ack.
    pending_control: HashSet<u64>,
    /// Completed but unharvested results.
    ready: VecDeque<(Ticket, Reply)>,
    /// Decides which submissions carry a causal span.
    sampler: Sampler,
    /// Completed spans awaiting [`drain_spans`](Session::drain_spans);
    /// bounded to [`SPAN_KEEP`](Session::SPAN_KEEP), oldest dropped.
    spans: VecDeque<Span>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("client", &self.port.id())
            .field("in_flight", &self.inflight.len())
            .finish()
    }
}

impl Session {
    /// Attaches a fresh client port to the live fabric.
    pub(crate) fn attach(shared: Arc<EngineShared>) -> Session {
        let port = shared.fabric.attach_client();
        Session::with_port(shared, port)
    }

    pub(crate) fn with_port(shared: Arc<EngineShared>, port: StoreClientPort) -> Session {
        let sampler = Sampler::new(shared.trace_sample);
        Session {
            shared,
            port,
            next_seq: 1,
            inflight: HashMap::new(),
            pending_control: HashSet::new(),
            ready: VecDeque::new(),
            sampler,
            spans: VecDeque::new(),
        }
    }

    /// Most completed spans kept for [`drain_spans`](Session::drain_spans)
    /// before the oldest are discarded.
    const SPAN_KEEP: usize = 4096;

    /// Operations submitted but not yet harvested as completions.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// The pipeline depth this session submits up to.
    pub fn pipeline_depth(&self) -> usize {
        self.shared.depth
    }

    fn stopped(&self) -> bool {
        self.shared.stopped()
    }

    /// Drains the response ring into the ready queue; returns whether
    /// anything arrived.
    fn absorb(&mut self) -> bool {
        let mut progressed = false;
        while let Some(mut resp) = self.port.try_recv() {
            progressed = true;
            let span = resp.take_span();
            if self.pending_control.remove(&resp.seq) {
                continue;
            }
            if let Some(submitted) = self.inflight.remove(&resp.seq) {
                let ns = u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.shared.stats.completion_latency.record(ns);
                if let Some(mut span) = span {
                    span.stamp(Stage::Delivery, clock::now_ns());
                    self.shared.stats.breakdown.record_span(&span);
                    if self.spans.len() >= Self::SPAN_KEEP {
                        self.spans.pop_front();
                    }
                    self.spans.push_back(*span);
                }
                self.ready.push_back((Ticket(resp.seq), resp.body));
            }
        }
        progressed
    }

    /// Blocks (polling with bounded backoff) until at least one response
    /// arrives.
    fn absorb_blocking(&mut self) -> Result<(), StoreError> {
        let mut backoff = Backoff::new();
        loop {
            if self.absorb() {
                return Ok(());
            }
            if self.stopped() {
                return Err(StoreError::ShuttingDown);
            }
            backoff.wait();
        }
    }

    /// Sends one envelope to `core`, absorbing completions while the ring
    /// is out of credits.
    fn send(&mut self, core: usize, mut env: Envelope<OpReq>) -> Result<(), StoreError> {
        let mut backoff = Backoff::new();
        loop {
            if self.stopped() {
                return Err(StoreError::ShuttingDown);
            }
            if env.span.is_some() {
                // Re-stamped on every retry (same-stage stamps replace), so
                // the span records when the envelope actually entered the
                // ring, not the first refused attempt.
                env.stamp(Stage::ClientEnqueue, clock::now_ns());
            }
            match self.port.send(core, env) {
                Ok(()) => return Ok(()),
                Err(back) => env = back,
            }
            // Ring full: the core is behind — drain our completions so the
            // cores can push their responses, then retry.
            if self.absorb() {
                backoff.reset();
            } else {
                backoff.wait();
            }
        }
    }

    fn submit_req(&mut self, core: usize, body: OpReq) -> Result<Ticket, StoreError> {
        while self.inflight.len() >= self.shared.depth {
            self.absorb_blocking()?;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let env = if self.sampler.hit() {
            Envelope::traced(
                seq,
                body,
                SpanCtx {
                    trace_id: (self.port.id() as u64).rotate_left(40) ^ seq,
                    op_seq: seq,
                    origin_tsc: clock::now_ns(),
                },
            )
        } else {
            Envelope::new(seq, body)
        };
        self.send(core, env)?;
        self.inflight.insert(seq, Instant::now());
        self.shared
            .stats
            .inflight_depth
            .record(self.inflight.len() as u64);
        Ok(Ticket(seq))
    }

    fn submit_control(&mut self, core: usize, body: OpReq) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send(core, Envelope::new(seq, body))?;
        self.pending_control.insert(seq);
        Ok(seq)
    }

    /// Submits one operation, routed to its owning core; the single entry
    /// point every verb goes through.
    ///
    /// Returns a [`Ticket`] immediately; the matching [`Reply`] variant
    /// (`Op::Get` → [`Reply::Get`], …) is harvested later with
    /// [`poll_completions`](Self::poll_completions) or
    /// [`wait`](Self::wait). Blocks only when the pipeline is full
    /// (`pipeline_depth` ops outstanding) or the target ring is out of
    /// credits, absorbing completions while it waits.
    ///
    /// # Errors
    ///
    /// [`StoreError::ShuttingDown`] if the engine stopped. Per-operation
    /// failures ([`StoreError::EmptyValue`], …) surface in the completed
    /// [`Reply`], not here.
    pub fn submit(&mut self, op: Op) -> Result<Ticket, StoreError> {
        let core = op.home_core(self.shared.ncores);
        self.submit_req(core, op.into_req())
    }

    /// Harvests every completion that has arrived, in completion order
    /// (which may differ from submission order across keys).
    pub fn poll_completions(&mut self) -> Vec<(Ticket, Reply)> {
        self.absorb();
        self.ready.drain(..).collect()
    }

    /// Takes the causal spans of completed sampled operations
    /// ([`Config::trace_sample`]), each an ordered stage vector whose
    /// deltas sum to its end-to-end latency. At most the most recent 4096
    /// spans are kept between calls; older ones are dropped silently.
    /// Feed them to [`obs::chrome_trace`] via [`Span::chrome_events`] for
    /// a per-core timeline view.
    ///
    /// [`Config::trace_sample`]: crate::Config::trace_sample
    pub fn drain_spans(&mut self) -> Vec<Span> {
        self.spans.drain(..).collect()
    }

    /// Blocks until `ticket` completes and returns its result. Other
    /// completions harvested while waiting stay queued for
    /// [`poll_completions`](Self::poll_completions).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownTicket`] if the ticket was already harvested
    /// (or belongs to another session); [`StoreError::ShuttingDown`] if
    /// the engine stops first.
    pub fn wait(&mut self, ticket: Ticket) -> Result<Reply, StoreError> {
        loop {
            if let Some(i) = self.ready.iter().position(|(t, _)| *t == ticket) {
                #[expect(
                    clippy::expect_used,
                    reason = "`i` comes from position() on the same vec two lines up; nothing mutates it in between"
                )]
                let (_, result) = self.ready.remove(i).expect("index in bounds");
                return Ok(result);
            }
            if !self.inflight.contains_key(&ticket.0) {
                return Err(StoreError::UnknownTicket);
            }
            self.absorb_blocking()?;
        }
    }

    /// Blocks until everything submitted has completed; returns the
    /// completions harvested (including any already queued).
    ///
    /// # Errors
    ///
    /// [`StoreError::ShuttingDown`] if the engine stops first.
    pub fn wait_all(&mut self) -> Result<Vec<(Ticket, Reply)>, StoreError> {
        while !self.inflight.is_empty() {
            self.absorb_blocking()?;
        }
        Ok(self.ready.drain(..).collect())
    }

    /// Blocks until every request sent to any core before this call has
    /// fully completed (all cores quiesce). Does not harvest this
    /// session's own completions — they stay queued.
    ///
    /// # Errors
    ///
    /// [`StoreError::ShuttingDown`] if the engine stops first.
    pub fn barrier(&mut self) -> Result<(), StoreError> {
        let mut seqs = Vec::with_capacity(self.shared.ncores);
        for core in 0..self.shared.ncores {
            seqs.push(self.submit_control(core, OpReq::Barrier)?);
        }
        self.await_control(&seqs)
    }

    fn await_control(&mut self, seqs: &[u64]) -> Result<(), StoreError> {
        while seqs.iter().any(|s| self.pending_control.contains(s)) {
            self.absorb_blocking()?;
        }
        Ok(())
    }

    /// Tells every core to begin draining and exit (engine-internal;
    /// workers never answer a Shutdown).
    pub(crate) fn send_shutdown_all(&mut self) {
        for core in 0..self.shared.ncores {
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut env = Envelope::new(seq, OpReq::Shutdown);
            loop {
                match self.port.send(core, env) {
                    Ok(()) => break,
                    Err(back) => env = back,
                }
                self.absorb();
                std::thread::yield_now();
            }
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Drain in-flight work so no core blocks pushing into a ring
        // nobody reads. If the engine already stopped, the rings are
        // dead and there is nothing to wait for.
        let mut backoff = Backoff::new();
        while (!self.inflight.is_empty() || !self.pending_control.is_empty()) && !self.stopped() {
            if self.absorb() {
                backoff.reset();
            } else {
                backoff.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Backoff;

    #[test]
    fn ladder_escalates_spin_yield_sleep() {
        // Spinning and yielding sleep nothing.
        assert_eq!(Backoff::sleep_us(0), 0);
        assert_eq!(Backoff::sleep_us(Backoff::SPIN), 0);
        assert_eq!(Backoff::sleep_us(Backoff::SPIN + Backoff::YIELD - 1), 0);
        // First sleep is the base, then doubles.
        let s0 = Backoff::SPIN + Backoff::YIELD;
        assert_eq!(Backoff::sleep_us(s0), Backoff::SLEEP_BASE_US);
        assert_eq!(Backoff::sleep_us(s0 + 1), 2 * Backoff::SLEEP_BASE_US);
        assert_eq!(Backoff::sleep_us(s0 + 2), 4 * Backoff::SLEEP_BASE_US);
    }

    #[test]
    fn sleep_is_capped_and_never_overflows() {
        let s0 = Backoff::SPIN + Backoff::YIELD;
        for step in [s0 + 6, s0 + 16, s0 + 63, s0 + 1000, u32::MAX] {
            assert_eq!(Backoff::sleep_us(step), Backoff::SLEEP_CAP_US);
        }
    }

    #[test]
    fn reset_restores_spinning() {
        let mut b = Backoff::new();
        for _ in 0..(Backoff::SPIN + Backoff::YIELD) {
            b.wait(); // never sleeps: all spin/yield steps
        }
        assert_eq!(Backoff::sleep_us(b.step), Backoff::SLEEP_BASE_US);
        b.reset();
        assert_eq!(b.step, 0);
        assert_eq!(Backoff::sleep_us(b.step), 0);
    }
}
