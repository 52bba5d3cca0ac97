//! Shared simulation plumbing: time-ordered mailboxes, the event charger
//! that converts real PM traces into simulated time, and the closed-loop
//! client pool.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use pmem::cost::Device;
use pmem::PmEvent;
use workloads::{core_of, EtcWorkload, Op, Workload};

use crate::metrics::Metrics;
use crate::params::{CpuParams, NetParams, WorkloadSpec};

/// A min-heap of `(time, payload)` items.
#[derive(Debug)]
pub(crate) struct Mailbox<T> {
    heap: BinaryHeap<Item<T>>,
    seq: u64,
}

#[derive(Debug)]
struct Item<T> {
    time: f64,
    seq: u64,
    val: T,
}

impl<T> PartialEq for Item<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Item<T> {}
impl<T> PartialOrd for Item<T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Item<T> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T> Mailbox<T> {
    pub fn new() -> Self {
        Mailbox {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub fn push(&mut self, time: f64, val: T) {
        self.seq += 1;
        self.heap.push(Item {
            time,
            seq: self.seq,
            val,
        });
    }

    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|i| i.time)
    }

    /// Pops the earliest item if it has arrived by `now`.
    pub fn pop_arrived(&mut self, now: f64) -> Option<(f64, T)> {
        if self.next_time()? <= now {
            self.heap.pop().map(|i| (i.time, i.val))
        } else {
            None
        }
    }
}

/// Converts the [`PmEvent`] traces emitted by the real data-structure code
/// into simulated time on a core's clock, via the shared device model.
///
/// Every drained event batch is also fed to a [`pmcheck::Checker`]: the
/// DES executes the real persistence code sequentially, so the drain order
/// is a faithful single stream and the run's `Summary` can carry a
/// persistency verdict alongside its performance numbers.
pub(crate) struct Charger {
    pub device: Device,
    pub cpu: CpuParams,
    /// Per-stream outstanding flush completions (waited on at fences).
    outstanding: Vec<Vec<f64>>,
    /// Persistency-ordering checker fed with every charged event.
    checker: pmcheck::Checker,
}

impl Charger {
    pub fn new(device: Device, cpu: CpuParams, streams: usize) -> Charger {
        Charger {
            device,
            cpu,
            checker: pmcheck::Checker::new(),
            outstanding: vec![Vec::new(); streams],
        }
    }

    /// Charges `events` to stream `stream` starting at time `t`; returns
    /// the stream's new clock. `read_ns` prices one *newly touched
    /// cacheline* of traced reads (repeat loads of the same line within one
    /// charge call are cache hits and free). Use
    /// [`CpuParams::pm_read_cached_ns`] for front-line code, a smaller
    /// value for the cleaner's sequential scans.
    pub fn charge(&mut self, stream: usize, mut t: f64, events: &[PmEvent], read_ns: f64) -> f64 {
        self.checker.feed(events);
        let mut read_lines: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for ev in events {
            match ev {
                PmEvent::Write { len, .. } => {
                    t += *len as f64 * self.cpu.store_ns_per_byte;
                }
                PmEvent::Flush { line } => {
                    t += self.device.params().flush_issue_ns;
                    let done = self.device.flush(t, stream as u64, *line);
                    self.outstanding[stream].push(done);
                }
                PmEvent::Fence => {
                    for done in self.outstanding[stream].drain(..) {
                        t = t.max(done);
                    }
                }
                PmEvent::Read { addr, len } => {
                    let first = addr / 64;
                    let last = (addr + (*len as u64).max(1) - 1) / 64;
                    for line in first..=last {
                        if read_lines.insert(line) {
                            t += read_ns;
                        }
                    }
                }
                // Commit points are checker markers, not hardware work.
                PmEvent::CommitPoint { .. } => {}
            }
        }
        t
    }

    /// The persistency verdict accumulated across every charged event.
    pub fn persistency(&self) -> pmcheck::RuleCounts {
        self.checker.counts()
    }
}

/// The shared NIC / agent-core: a leaky-bucket server over messages
/// (paper §4.3 — all responses funnel through the socket close to the
/// NIC).
#[derive(Debug, Default)]
pub(crate) struct Nic {
    backlog_ns: f64,
    last_ns: f64,
    pub per_msg_ns: f64,
}

impl Nic {
    pub fn new(per_msg_ns: f64) -> Nic {
        Nic {
            per_msg_ns,
            ..Nic::default()
        }
    }

    /// Queue + service delay for `msgs` messages issued at `now`.
    pub fn delay(&mut self, now: f64, msgs: f64) -> f64 {
        let elapsed = (now - self.last_ns).max(0.0);
        self.last_ns = self.last_ns.max(now);
        self.backlog_ns = (self.backlog_ns - elapsed).max(0.0) + msgs * self.per_msg_ns;
        self.backlog_ns
    }
}

/// Generates requests for the client pool.
pub(crate) enum Gen {
    Ycsb(Workload),
    Etc(EtcWorkload),
}

impl Gen {
    pub fn new(spec: WorkloadSpec, keyspace: u64, seed: u64) -> Gen {
        match spec {
            WorkloadSpec::Ycsb {
                dist,
                value_len,
                put_ratio,
            } => Gen::Ycsb(Workload::new(keyspace, dist, value_len, put_ratio, seed)),
            WorkloadSpec::Etc { put_ratio } => {
                Gen::Etc(EtcWorkload::new(keyspace, put_ratio, seed))
            }
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self {
            Gen::Ycsb(w) => w.next_op(),
            Gen::Etc(w) => w.next_op(),
        }
    }
}

/// A request travelling through the simulated network.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimReq {
    pub client: u32,
    pub send: f64,
    pub op: Op,
    /// Causal-trace id assigned when a sampled request is first polled;
    /// 0 = unsampled. Rides every copy of the request (deferred queue,
    /// post slots, retries) so stage stamps land on one span.
    pub trace: u64,
}

struct Client {
    outstanding: u32,
    last_resp: f64,
}

/// Closed-loop clients: each keeps `batch` requests outstanding, sends the
/// next batch once all responses arrived (paper §5: "clients post multiple
/// requests asynchronously and poll the completion in a batch manner").
pub(crate) struct ClientPool {
    clients: Vec<Client>,
    gen: Gen,
    batch: usize,
    ncores: usize,
    net: NetParams,
    pub metrics: Metrics,
    target: u64,
}

impl ClientPool {
    pub fn new(
        nclients: usize,
        batch: usize,
        ncores: usize,
        gen: Gen,
        net: NetParams,
        metrics: Metrics,
        target: u64,
    ) -> ClientPool {
        let mut clients = Vec::with_capacity(nclients);
        clients.resize_with(nclients, || Client {
            outstanding: 0,
            last_resp: 0.0,
        });
        ClientPool {
            clients,
            gen,
            batch,
            ncores,
            net,
            metrics,
            target,
        }
    }

    pub fn done(&self) -> bool {
        self.metrics.completed >= self.target
    }

    /// Sends the initial batch of every client at time 0.
    pub fn start(&mut self, mut push: impl FnMut(usize, f64, SimReq)) {
        for c in 0..self.clients.len() {
            self.send_batch(c as u32, 0.0, &mut push);
        }
    }

    fn send_batch(&mut self, client: u32, now: f64, push: &mut impl FnMut(usize, f64, SimReq)) {
        for _ in 0..self.batch {
            let op = self.gen.next_op();
            let core = core_of(op.key(), self.ncores);
            let req = SimReq {
                client,
                send: now,
                op,
                trace: 0,
            };
            push(core, now + self.net.one_way_ns, req);
        }
        self.clients[client as usize].outstanding = self.batch as u32;
    }

    /// A server finished `req`; the response reaches the client at
    /// `resp_ns`. May trigger the client's next batch.
    pub fn deliver(
        &mut self,
        req: &SimReq,
        resp_ns: f64,
        push: &mut impl FnMut(usize, f64, SimReq),
    ) {
        self.metrics.record(req.send, resp_ns);
        let (outstanding, last_resp) = {
            let c = &mut self.clients[req.client as usize];
            c.outstanding -= 1;
            c.last_resp = c.last_resp.max(resp_ns);
            (c.outstanding, c.last_resp)
        };
        if outstanding == 0 && !self.done() {
            let next = last_resp + self.net.client_think_ns;
            self.send_batch(req.client, next, push);
        }
    }
}

/// Stable key → core routing shared with the engine crate's convention.
pub(crate) fn route(key: u64, ncores: usize) -> usize {
    core_of(key, ncores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_orders_by_time() {
        let mut m = Mailbox::new();
        m.push(5.0, "b");
        m.push(1.0, "a");
        m.push(9.0, "c");
        assert_eq!(m.next_time(), Some(1.0));
        assert_eq!(m.pop_arrived(0.5), None);
        assert_eq!(m.pop_arrived(6.0).map(|x| x.1), Some("a"));
        assert_eq!(m.pop_arrived(6.0).map(|x| x.1), Some("b"));
        assert_eq!(m.pop_arrived(6.0), None);
        assert_eq!(m.next_time(), Some(9.0));
    }

    #[test]
    fn charger_fence_waits_for_flushes() {
        let device = Device::new(pmem::cost::CostParams::default());
        let mut ch = Charger::new(device, CpuParams::default(), 1);
        let t = ch.charge(
            0,
            0.0,
            &[
                PmEvent::Write { addr: 0, len: 64 },
                PmEvent::Flush { line: 0 },
                PmEvent::Fence,
            ],
            25.0,
        );
        // Must include flush latency + media service, not just CPU costs.
        assert!(t > 80.0, "fence returned too early: {t}");
    }
}
