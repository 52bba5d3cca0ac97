//! The closed-loop driver: transports, phases, slices and output checks.
//!
//! One load-generating thread keeps `depth` operations in flight and
//! sends the next only after a reply frees a slot — the paper's clients,
//! `Session` callers and RESP connections all wait for replies, so the
//! loop is closed and a slow system receives less load. Every reply is
//! matched to the op that caused it and checked before it counts.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use flatrpc::clock;
use flatsrv::keymap::{decode_frame, encode_frame, hash_key};
use flatsrv::load::raw_key;
use flatsrv::resp;
use flatstore::prelude::*;
use flatstore::Session;

use crate::gen::{GenOp, OpStream, Verb};
use crate::spans::{HarnessSpan, SpanKind};
use crate::stats::{percentile, Summary};

/// What came back for one submitted op.
pub enum Outcome {
    PutOk,
    Got(Option<Vec<u8>>),
    /// An `Err` reply, a reply of the wrong variant, or a reply nobody
    /// asked for.
    Failed(String),
}

/// A way to get ops to the engine and replies back.
pub trait Transport {
    /// Sends `op` (with the value a Put writes); `Err` if it was refused.
    fn submit(&mut self, id: u64, op: &GenOp, value: Option<Vec<u8>>) -> Result<(), String>;
    /// Waits until at least one reply has arrived, then collects every
    /// one that has. Only called with ops in flight.
    fn harvest(&mut self, done: &mut Vec<(u64, Outcome)>);
    /// Engine-side spans of completed sampled ops, where the transport
    /// can reach them.
    fn drain_spans(&mut self) -> Vec<obs::Span> {
        Vec::new()
    }
    /// Bytes of key a user of this transport sends per op (the
    /// denominator of write amplification counts them).
    fn key_bytes(&self) -> u64;
    /// Ops submitted over this transport's life. Every 64th keeps its
    /// harness spans: a session's engine-side sampler
    /// (`trace_sample(64)`) counts the same submissions, so both sides
    /// trace the same ops.
    fn submitted(&self) -> u64;
}

/// Whether the op just submitted is one whose spans are kept.
fn sampled(t: &dyn Transport) -> bool {
    t.submitted().is_multiple_of(64)
}

/// In-process: one pipelined [`Session`] on the FlatRPC fabric.
pub struct SessionTransport {
    session: Session,
    pending: Vec<(Ticket, u64, Verb)>,
    submitted: u64,
    /// Speak the wire front end's key hashing and value frames, so the
    /// engine does for this session exactly what it does for a socket
    /// connection (the in-process twin of a wire workload).
    framed: bool,
}

impl SessionTransport {
    pub fn new(session: Session, framed: bool) -> SessionTransport {
        SessionTransport {
            session,
            pending: Vec::new(),
            submitted: 0,
            framed,
        }
    }
}

impl Transport for SessionTransport {
    fn submit(&mut self, id: u64, op: &GenOp, value: Option<Vec<u8>>) -> Result<(), String> {
        let raw = self.framed.then(|| raw_key(op.key));
        let key = raw.as_deref().map_or(op.key, hash_key);
        let req = match (op.verb, value) {
            (Verb::Put, Some(value)) => Op::Put {
                key,
                value: match &raw {
                    Some(raw) => encode_frame(raw, &value),
                    None => value,
                },
            },
            (Verb::Put, None) => return Err("put without a value".into()),
            (Verb::Get, _) => Op::Get { key },
        };
        let ticket = self.session.submit(req).map_err(|e| e.to_string())?;
        self.submitted += 1;
        self.pending.push((ticket, id, op.verb));
        Ok(())
    }

    fn harvest(&mut self, done: &mut Vec<(u64, Outcome)>) {
        // Spin, then yield: replies land within microseconds, so sleeping
        // would add wake-up latency to every one, and a hot spin would
        // take the CPU an engine core needs on a 2-CPU host.
        let mut polls = 0u32;
        let completions = loop {
            let c = self.session.poll_completions();
            if !c.is_empty() {
                break c;
            }
            if polls < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            polls = polls.saturating_add(1);
        };
        for (ticket, reply) in completions {
            let Some(i) = self.pending.iter().position(|(t, ..)| *t == ticket) else {
                done.push((u64::MAX, Outcome::Failed("reply for unknown ticket".into())));
                continue;
            };
            let (_, id, verb) = self.pending.swap_remove(i);
            let outcome = match (verb, reply) {
                (Verb::Put, Reply::Put(Ok(()))) => Outcome::PutOk,
                (Verb::Get, Reply::Get(Ok(v))) if self.framed => {
                    Outcome::Got(v.and_then(|f| decode_frame(&f).map(|(_, v)| v.to_vec())))
                }
                (Verb::Get, Reply::Get(Ok(v))) => Outcome::Got(v),
                (_, Reply::Put(Err(e))) | (_, Reply::Get(Err(e))) => Outcome::Failed(e.to_string()),
                (verb, other) => Outcome::Failed(format!("{verb:?} answered by {other:?}")),
            };
            done.push((id, outcome));
        }
    }

    fn drain_spans(&mut self) -> Vec<obs::Span> {
        self.session.drain_spans()
    }

    fn key_bytes(&self) -> u64 {
        if self.framed {
            raw_key(0).len() as u64
        } else {
            8
        }
    }

    fn submitted(&self) -> u64 {
        self.submitted
    }
}

/// RESP over one Unix-socket connection. The socket blocks, like a
/// real client's: a waiting generator sleeps in `read` and leaves the
/// CPU to the server and the engine core.
pub struct WireTransport {
    stream: UnixStream,
    rdbuf: Vec<u8>,
    pos: usize,
    /// Replies arrive in command order.
    fifo: VecDeque<(u64, Verb)>,
    submitted: u64,
}

impl WireTransport {
    pub fn new(stream: UnixStream) -> WireTransport {
        WireTransport {
            stream,
            rdbuf: Vec::new(),
            pos: 0,
            fifo: VecDeque::new(),
            submitted: 0,
        }
    }

    /// Parses every complete reply buffered so far.
    fn parse_buffered(&mut self, done: &mut Vec<(u64, Outcome)>) {
        loop {
            match resp::parse_reply(&self.rdbuf[self.pos..]) {
                Ok(Some((reply, used))) => {
                    self.pos += used;
                    let Some((id, verb)) = self.fifo.pop_front() else {
                        done.push((u64::MAX, Outcome::Failed("reply without request".into())));
                        continue;
                    };
                    let outcome = match (verb, reply) {
                        (Verb::Put, resp::Reply::Simple(s)) if s == "OK" => Outcome::PutOk,
                        (Verb::Get, resp::Reply::Bulk(v)) => Outcome::Got(v),
                        (_, resp::Reply::Error(e)) => Outcome::Failed(e),
                        (verb, other) => Outcome::Failed(format!("{verb:?} answered by {other:?}")),
                    };
                    done.push((id, outcome));
                }
                Ok(None) => break,
                Err(e) => {
                    self.fail_all(done, &format!("bad reply: {e}"));
                    break;
                }
            }
        }
        if self.pos == self.rdbuf.len() {
            self.rdbuf.clear();
            self.pos = 0;
        }
    }

    fn fail_all(&mut self, done: &mut Vec<(u64, Outcome)>, why: &str) {
        for (id, _) in self.fifo.drain(..) {
            done.push((id, Outcome::Failed(why.to_string())));
        }
    }
}

impl Transport for WireTransport {
    fn submit(&mut self, id: u64, op: &GenOp, value: Option<Vec<u8>>) -> Result<(), String> {
        let cmd = match (op.verb, value) {
            (Verb::Put, Some(value)) => resp::command(&[b"SET".to_vec(), raw_key(op.key), value]),
            (Verb::Put, None) => return Err("put without a value".into()),
            (Verb::Get, _) => resp::command(&[b"GET".to_vec(), raw_key(op.key)]),
        };
        self.stream.write_all(&cmd).map_err(|e| e.to_string())?;
        self.fifo.push_back((id, op.verb));
        self.submitted += 1;
        Ok(())
    }

    fn harvest(&mut self, done: &mut Vec<(u64, Outcome)>) {
        let mut chunk = [0u8; 16 * 1024];
        while done.is_empty() {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.fail_all(done, "server closed mid-reply"),
                Ok(n) => {
                    self.rdbuf.extend_from_slice(&chunk[..n]);
                    self.parse_buffered(done);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.fail_all(done, &e.to_string()),
            }
        }
    }

    fn key_bytes(&self) -> u64 {
        raw_key(0).len() as u64
    }

    fn submitted(&self) -> u64 {
        self.submitted
    }
}

/// Top bit of a latency sample marks a Get; the rest is nanoseconds.
const GET_BIT: u32 = 1 << 31;

/// Everything one phase measured.
pub struct PhaseResult {
    pub secs: f64,
    /// Per slice, one sample per op completed in it.
    slices: Vec<Vec<u32>>,
    slice_secs: f64,
    /// Ops submitted (every one is waited for before the phase returns).
    pub attempted: u64,
    /// Ops that failed: refused, `Err` reply, wrong variant, wrong bytes.
    pub failed: u64,
    pub first_failure: Option<String>,
    pub acked_puts: u64,
    pub acked_put_bytes: u64,
    pub gets: u64,
    /// Traced phases only: summed nanoseconds per harness activity.
    pub gen_ns: u64,
    pub submit_ns: u64,
    pub blocked_ns: u64,
    /// Nanoseconds spent in completion gaps longer than 1 ms.
    pub stall_ns: u64,
    pub spans: Vec<HarnessSpan>,
}

/// Which ops a percentile is taken over.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Which {
    All,
    Puts,
    Gets,
}

impl PhaseResult {
    /// Appends another instance's run of the same phase: the slices pool,
    /// the counts add up.
    pub fn merge(&mut self, other: PhaseResult) {
        self.secs += other.secs;
        self.slices.extend(other.slices);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.acked_puts += other.acked_puts;
        self.acked_put_bytes += other.acked_put_bytes;
        self.gets += other.gets;
        self.gen_ns += other.gen_ns;
        self.submit_ns += other.submit_ns;
        self.blocked_ns += other.blocked_ns;
        self.stall_ns += other.stall_ns;
        self.spans.extend(other.spans);
    }

    /// Median over slices of completions per second, in kops/s.
    pub fn throughput_kops(&self) -> Option<Summary> {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.len() as f64 / self.slice_secs / 1e3)
            .collect();
        let total = self.slices.iter().map(|s| s.len() as u64).sum();
        Summary::of_slices(&per_slice, total)
    }

    /// Median over slices of the `q`-th latency percentile, in µs.
    /// `None` when the phase has no such ops.
    pub fn latency_us(&self, which: Which, q: f64) -> Option<Summary> {
        let mut per_slice = Vec::new();
        let mut total = 0u64;
        for slice in &self.slices {
            let mut v: Vec<u32> = slice
                .iter()
                .filter(|&&s| match which {
                    Which::All => true,
                    Which::Puts => s & GET_BIT == 0,
                    Which::Gets => s & GET_BIT != 0,
                })
                .map(|&s| s & !GET_BIT)
                .collect();
            v.sort_unstable();
            if let Some(p) = percentile(&v, q) {
                per_slice.push(p / 1e3);
                total += v.len() as u64;
            }
        }
        Summary::of_slices(&per_slice, total)
    }
}

struct InFlight {
    id: u64,
    op: GenOp,
    sent: Instant,
    /// Keep this op's harness spans (traced phases only).
    sampled: bool,
}

/// How one phase is driven.
pub struct PhasePlan {
    pub depth: usize,
    pub secs: f64,
    pub slice_secs: f64,
    /// Record harness spans and per-activity time (the traced run).
    pub traced: bool,
}

/// Tracks which acked version each key must still hold after a crash.
pub type Acked = Vec<u32>;

/// Runs one closed-loop phase and waits for everything it submitted.
///
/// `on_slice` is called at every slice boundary (free-chunk sampling).
pub fn run_phase(
    t: &mut dyn Transport,
    stream: &mut OpStream,
    plan: &PhasePlan,
    mut acked: Option<&mut Acked>,
    on_slice: &mut dyn FnMut(),
) -> PhaseResult {
    let nslices = (plan.secs / plan.slice_secs).round().max(1.0) as usize;
    let slice_len = Duration::from_secs_f64(plan.slice_secs);
    let mut res = PhaseResult {
        secs: plan.slice_secs * nslices as f64,
        slices: vec![Vec::new(); nslices],
        slice_secs: plan.slice_secs,
        attempted: 0,
        failed: 0,
        first_failure: None,
        acked_puts: 0,
        acked_put_bytes: 0,
        gets: 0,
        gen_ns: 0,
        submit_ns: 0,
        blocked_ns: 0,
        stall_ns: 0,
        spans: Vec::new(),
    };
    let key_bytes = t.key_bytes();
    let mut inflight: Vec<InFlight> = Vec::with_capacity(plan.depth);
    let mut done: Vec<(u64, Outcome)> = Vec::new();
    let mut next_id = 0u64;
    let start = Instant::now();
    let end = start + slice_len * nslices as u32;
    let mut slice_idx = 0usize;
    let mut slice_end = start + slice_len;
    let mut last_completion = start;
    let mut submitting = true;

    let fail = |res: &mut PhaseResult, why: String| {
        res.failed += 1;
        res.first_failure.get_or_insert(why);
    };

    while submitting || !inflight.is_empty() {
        while submitting && inflight.len() < plan.depth {
            let t_gen = plan.traced.then(clock::now_ns);
            let op = stream.next_op();
            let value = (op.verb == Verb::Put).then(|| stream.value_of(&op));
            let id = next_id;
            next_id += 1;
            let t_sub = plan.traced.then(clock::now_ns);
            let sent = Instant::now();
            res.attempted += 1;
            let accepted = t.submit(id, &op, value);
            let keep = plan.traced && sampled(t);
            match accepted {
                Ok(()) => inflight.push(InFlight {
                    id,
                    op,
                    sent,
                    sampled: keep,
                }),
                Err(why) => fail(&mut res, format!("refused: {why}")),
            }
            if let (Some(t_gen), Some(t_sub)) = (t_gen, t_sub) {
                let t_done = clock::now_ns();
                res.gen_ns += t_sub - t_gen;
                res.submit_ns += t_done - t_sub;
                if keep {
                    res.spans
                        .push(HarnessSpan::new(SpanKind::Gen, id, t_gen, t_sub));
                    res.spans
                        .push(HarnessSpan::new(SpanKind::Submit, id, t_sub, t_done));
                }
            }
        }

        let t_wait = plan.traced.then(clock::now_ns);
        t.harvest(&mut done);
        let now = Instant::now();
        if let Some(t_wait) = t_wait {
            res.blocked_ns += clock::now_ns() - t_wait;
        }
        let gap = now.duration_since(last_completion);
        if gap > Duration::from_millis(1) {
            res.stall_ns += gap.as_nanos() as u64;
        }
        last_completion = now;

        while now >= slice_end && slice_idx + 1 < nslices {
            slice_idx += 1;
            slice_end += slice_len;
            on_slice();
        }
        if now >= end {
            submitting = false;
        }

        for (id, outcome) in done.drain(..) {
            let Some(i) = inflight.iter().position(|f| f.id == id) else {
                fail(&mut res, "reply matches no op in flight".into());
                continue;
            };
            let f = inflight.swap_remove(i);
            let ns = now
                .duration_since(f.sent)
                .as_nanos()
                .min(u128::from(!GET_BIT)) as u32;
            match (f.op.verb, outcome) {
                (Verb::Put, Outcome::PutOk) => {
                    res.acked_puts += 1;
                    res.acked_put_bytes += key_bytes + f.op.len as u64;
                    if let Some(acked) = acked.as_deref_mut() {
                        let slot = &mut acked[f.op.key as usize];
                        *slot = (*slot).max(f.op.tag);
                    }
                }
                (Verb::Get, Outcome::Got(Some(v))) if v == stream.value_of(&f.op) => res.gets += 1,
                (Verb::Get, Outcome::Got(got)) => fail(
                    &mut res,
                    format!(
                        "get {} returned {} bytes, not the {} written",
                        f.op.key,
                        got.map_or(0, |v| v.len()),
                        f.op.len
                    ),
                ),
                (_, Outcome::Failed(why)) => fail(&mut res, why),
                (verb, _) => fail(&mut res, format!("{verb:?} got the other verb's reply")),
            }
            if now < end {
                let tag = if f.op.verb == Verb::Get { GET_BIT } else { 0 };
                res.slices[slice_idx].push(ns | tag);
            }
            if f.sampled {
                let sent_ns = clock::now_ns() - now.duration_since(f.sent).as_nanos() as u64;
                res.spans.push(HarnessSpan::new(
                    SpanKind::Op,
                    f.id,
                    sent_ns,
                    sent_ns + u64::from(ns),
                ));
            }
        }
    }
    res
}

/// Loads every key once through `t` at `depth`, checking each ack.
/// Returns `(acked puts, user bytes)`.
pub fn preload(
    t: &mut dyn Transport,
    stream: &OpStream,
    depth: usize,
) -> Result<(u64, u64), String> {
    let key_bytes = t.key_bytes();
    let mut done = Vec::new();
    let mut inflight = 0usize;
    let mut acked = 0u64;
    let mut bytes = 0u64;
    let mut next = 0u64;
    while acked < stream.keys() {
        while inflight < depth && next < stream.keys() {
            let op = stream.preload_op(next);
            t.submit(next, &op, Some(stream.value_of(&op)))?;
            bytes += key_bytes + op.len as u64;
            inflight += 1;
            next += 1;
        }
        t.harvest(&mut done);
        for (id, outcome) in done.drain(..) {
            match outcome {
                Outcome::PutOk => {
                    inflight -= 1;
                    acked += 1;
                }
                Outcome::Got(_) => return Err(format!("preload put {id} answered as a get")),
                Outcome::Failed(why) => return Err(format!("preload put {id} failed: {why}")),
            }
        }
    }
    Ok((acked, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Mix;
    use std::collections::HashMap;

    /// An in-memory store that answers at once; `corrupt` makes every
    /// Get of that key come back with a flipped byte, `refuse_puts`
    /// answers every Put with an error.
    #[derive(Default)]
    struct FakeStore {
        values: HashMap<u64, Vec<u8>>,
        ready: Vec<(u64, Outcome)>,
        submitted: u64,
        corrupt: Option<u64>,
        refuse_puts: bool,
    }

    impl Transport for FakeStore {
        fn submit(&mut self, id: u64, op: &GenOp, value: Option<Vec<u8>>) -> Result<(), String> {
            self.submitted += 1;
            let outcome = match (op.verb, value) {
                (Verb::Put, _) if self.refuse_puts => Outcome::Failed("out of space".into()),
                (Verb::Put, Some(v)) => {
                    self.values.insert(op.key, v);
                    Outcome::PutOk
                }
                (Verb::Put, None) => return Err("put without a value".into()),
                (Verb::Get, _) => {
                    let mut v = self.values.get(&op.key).cloned();
                    if let (Some(v), true) = (&mut v, self.corrupt == Some(op.key)) {
                        v[0] ^= 0xFF;
                    }
                    Outcome::Got(v)
                }
            };
            self.ready.push((id, outcome));
            Ok(())
        }

        fn harvest(&mut self, done: &mut Vec<(u64, Outcome)>) {
            done.append(&mut self.ready);
        }

        fn key_bytes(&self) -> u64 {
            8
        }

        fn submitted(&self) -> u64 {
            self.submitted
        }
    }

    const MIX: Mix = Mix::Uniform {
        value_len: 32,
        put_ratio: 0.5,
    };

    fn short_plan(traced: bool) -> PhasePlan {
        PhasePlan {
            depth: 4,
            secs: 0.06,
            slice_secs: 0.02,
            traced,
        }
    }

    fn loaded(keys: u64) -> (FakeStore, OpStream) {
        let mut store = FakeStore::default();
        let stream = OpStream::new(MIX, keys, 5, false);
        let (acked, bytes) = preload(&mut store, &stream, 4).expect("fake preload");
        assert_eq!((acked, bytes), (keys, keys * 40));
        (store, stream)
    }

    #[test]
    fn a_correct_store_passes_every_check_and_fills_every_slice() {
        let (mut store, mut stream) = loaded(64);
        let mut boundaries = 0;
        let res = run_phase(
            &mut store,
            &mut stream,
            &short_plan(true),
            None,
            &mut || boundaries += 1,
        );
        assert_eq!(res.failed, 0, "{:?}", res.first_failure);
        assert!(res.attempted > 100);
        assert_eq!(res.acked_puts + res.gets, res.attempted);
        assert_eq!(res.acked_put_bytes, res.acked_puts * 40);
        assert_eq!(boundaries, 2, "three slices have two inner boundaries");
        let tput = res.throughput_kops().expect("samples");
        assert_eq!(tput.slices, 3);
        assert!(tput.samples <= res.attempted);
        let all = res.latency_us(Which::All, 50.0).expect("samples").samples;
        let puts = res.latency_us(Which::Puts, 50.0).expect("puts").samples;
        let gets = res.latency_us(Which::Gets, 50.0).expect("gets").samples;
        assert_eq!(puts + gets, all);
        // Traced: the time is accounted for and every 64th op kept spans.
        assert!(res.gen_ns > 0 && res.submit_ns > 0);
        let ops = res.spans.iter().filter(|s| s.kind == SpanKind::Op).count() as u64;
        assert!(
            ops >= res.attempted / 64 - 1,
            "{ops} op spans for {} ops",
            res.attempted
        );
    }

    #[test]
    fn an_untraced_phase_records_no_spans_or_activity_times() {
        let (mut store, mut stream) = loaded(64);
        let res = run_phase(
            &mut store,
            &mut stream,
            &short_plan(false),
            None,
            &mut || {},
        );
        assert!(res.spans.is_empty());
        assert_eq!((res.gen_ns, res.submit_ns, res.blocked_ns), (0, 0, 0));
    }

    #[test]
    fn one_wrong_byte_is_a_failure() {
        let (mut store, mut stream) = loaded(8);
        store.corrupt = Some(3);
        let res = run_phase(
            &mut store,
            &mut stream,
            &short_plan(false),
            None,
            &mut || {},
        );
        assert!(res.failed > 0);
        assert!(res.failed < res.attempted / 4, "only key 3's Gets fail");
        assert!(res.first_failure.expect("recorded").contains("get 3"));
    }

    #[test]
    fn an_error_reply_is_a_failure_and_acks_nothing() {
        let (mut store, mut stream) = loaded(8);
        store.refuse_puts = true;
        let mut acked: Acked = vec![0; 8];
        let res = run_phase(
            &mut store,
            &mut stream,
            &short_plan(false),
            Some(&mut acked),
            &mut || {},
        );
        assert_eq!(res.acked_puts, 0);
        assert!(res.failed > 0);
        assert_eq!(res.failed + res.gets, res.attempted);
        assert!(acked.iter().all(|&v| v == 0));
        assert!(preload(&mut store, &stream, 4).is_err());
    }

    #[test]
    fn acked_versions_follow_the_tagged_stream() {
        let mut store = FakeStore::default();
        let mut stream = OpStream::new(MIX, 16, 9, true);
        preload(&mut store, &stream, 4).expect("fake preload");
        let mut acked: Acked = vec![0; 16];
        let res = run_phase(
            &mut store,
            &mut stream,
            &short_plan(false),
            Some(&mut acked),
            &mut || {},
        );
        assert_eq!(res.failed, 0, "{:?}", res.first_failure);
        for key in 0..16 {
            // Everything submitted was waited for, so acked == submitted.
            assert_eq!(acked[key as usize], stream.submitted_tag(key));
        }
    }

    #[test]
    fn merged_phases_pool_their_slices() {
        let (mut store, mut stream) = loaded(64);
        let mut a = run_phase(
            &mut store,
            &mut stream,
            &short_plan(false),
            None,
            &mut || {},
        );
        let b = run_phase(
            &mut store,
            &mut stream,
            &short_plan(false),
            None,
            &mut || {},
        );
        let (attempted, secs) = (a.attempted + b.attempted, a.secs + b.secs);
        a.merge(b);
        assert_eq!(a.attempted, attempted);
        assert_eq!(a.secs, secs);
        assert_eq!(a.throughput_kops().expect("samples").slices, 6);
    }
}
