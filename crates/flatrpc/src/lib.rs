//! FlatRPC (paper §4.3) as a shared-memory fabric.
//!
//! The paper's RPC lets a client RDMA-write requests **directly into the
//! message buffer of a specific server core** (chosen by keyhash), and
//! delegates every response to a single agent core near the NIC, so a
//! client needs one queue pair per server *node* instead of one per
//! server *core*. That delegation exists only for the NIC's connection
//! cache; shared memory has none, so this crate keeps the request side
//! and answers each request from the core that served it:
//!
//! * [`ClientPort::send`] writes a request into the `(core, client)` SPSC
//!   [`ring`](ring()) — the "message buffer" the paper pre-allocates per
//!   core per client.
//! * [`ServerCore::poll`] is the server core's user-level polling loop.
//! * [`ServerCore::respond`] posts the response into the `(core, client)`
//!   response ring, and [`ClientPort::try_recv`] polls the client's
//!   response ring from every core.
//!
//! The agent core's cost survives only in the discrete-event simulator's
//! network model (`simkv::NetParams`), which the paper's Figure 12
//! reproduction runs.
//!
//! Clients can also join a live fabric: [`Fabric::attach_client`] grows the
//! ring matrix by one client while the server cores keep polling; each core
//! claims the new rings lazily on its next poll (the paper's connection
//! setup — registering a freshly allocated message buffer with the server —
//! without stopping the world).
//!
//! # Example
//!
//! ```
//! use flatrpc::Fabric;
//!
//! let fabric = Fabric::<u64, u64>::new(2, 1, 64);
//! let mut cores = fabric.server_cores();
//! let client = fabric.client_port(0);
//!
//! client.send(1, 7).unwrap();
//! let (from, req) = loop {
//!     if let Some(m) = cores[1].poll() {
//!         break m;
//!     }
//! };
//! cores[1].respond(from, req * 2); // core 1 answers its own client
//! assert_eq!(client.recv(), 14);
//! ```

mod ring;

pub use ring::{ring, Consumer, Producer};

use obs::span::{Span, SpanCtx, Stage};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The fabric's monotonic clock: nanoseconds since a process-wide
/// epoch, so stamps taken on any thread (client sessions, server cores,
/// replication appliers) are directly comparable. Span stamping is the
/// only consumer; the simulator never calls this — it stamps virtual
/// time straight into [`obs::span`] types.
pub mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    static EPOCH: OnceLock<Instant> = OnceLock::new();

    /// Nanoseconds since the first call in this process.
    pub fn now_ns() -> u64 {
        let epoch = *EPOCH.get_or_init(Instant::now);
        Instant::now().duration_since(epoch).as_nanos() as u64
    }
}

/// Identifies a client connection.
pub type ClientId = usize;

/// A sequenced message: the fixed header every RPC payload travels under.
///
/// A pipelined client keeps many requests in flight across several cores,
/// and responses from different cores arrive in no fixed order — so the
/// wire format needs a client-chosen sequence number to match completions
/// back to submissions. `seq` is opaque to the fabric.
///
/// A sampled request additionally carries its causal [`Span`] (`None`
/// for the unsampled fast path — every stamping helper is one branch on
/// that option), which the server side moves onto the response envelope
/// so the client can finalise the stage vector on delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<T> {
    /// Client-chosen correlation id, echoed back in the response envelope.
    pub seq: u64,
    /// The actual payload.
    pub body: T,
    /// Causal trace span; `None` for unsampled traffic.
    pub span: Option<Box<Span>>,
}

impl<T> Envelope<T> {
    /// Wraps `body` under sequence number `seq` (unsampled).
    pub fn new(seq: u64, body: T) -> Self {
        Envelope {
            seq,
            body,
            span: None,
        }
    }

    /// Wraps `body` under a sampled trace context.
    pub fn traced(seq: u64, body: T, ctx: SpanCtx) -> Self {
        Envelope {
            seq,
            body,
            span: Some(Box::new(Span::new(ctx))),
        }
    }

    /// Attaches an existing span (server → response hand-off).
    pub fn with_span(mut self, span: Option<Box<Span>>) -> Self {
        self.span = span;
        self
    }

    /// Stamps `stage` at `at_ns` on a sampled envelope; a no-op (one
    /// branch) otherwise.
    pub fn stamp(&mut self, stage: Stage, at_ns: u64) {
        if let Some(span) = &mut self.span {
            span.stamp(stage, at_ns);
        }
    }

    /// Detaches the span, leaving the envelope unsampled.
    pub fn take_span(&mut self) -> Option<Box<Span>> {
        self.span.take()
    }
}

/// Fabric-wide counters.
#[derive(Debug, Default)]
pub struct FabricStats {
    /// Requests delivered to server cores (successful sends only).
    pub requests: AtomicU64,
    /// Responses posted by server cores.
    pub responses: AtomicU64,
    /// Client ports currently live (gauge): incremented when a port is
    /// taken ([`Fabric::client_port`]) or attached
    /// ([`Fabric::attach_client`], fresh or reused), decremented when a
    /// port drops. A dropped port whose rings are fully drained is parked
    /// for reuse, so connection churn returns this gauge to its baseline
    /// instead of growing the ring matrix forever.
    pub clients_attached: AtomicU64,
    /// Sends rejected because the request ring was out of credits (the
    /// caller retries); a rising rate means a server core is falling
    /// behind its message buffers.
    pub send_backpressure: AtomicU64,
    /// High-water mark of request-ring occupancy observed at send time
    /// (messages queued in the ring just after a successful push).
    pub peak_ring_occupancy: AtomicU64,
}

impl FabricStats {
    fn note_occupancy(&self, n: u64) {
        self.peak_ring_occupancy.fetch_max(n, Ordering::Relaxed);
    }
}

/// The client's ends of one (core, client) connection.
struct ClientEnds<Req, Resp> {
    /// Requests into the core's message buffer.
    tx: Producer<Req>,
    /// Responses back from the core.
    rx: Consumer<Resp>,
}

/// The server core's ends of one (core, client) connection.
struct CoreEnds<Req, Resp> {
    rx: Consumer<Req>,
    tx: Producer<Resp>,
}

/// Builds one (core, client) connection: a request ring into the core
/// and a response ring back out of it, each of `capacity` messages.
fn connection<Req, Resp>(capacity: usize) -> (ClientEnds<Req, Resp>, CoreEnds<Req, Resp>) {
    let (req_tx, req_rx) = ring(capacity);
    let (resp_tx, resp_rx) = ring(capacity);
    (
        ClientEnds {
            tx: req_tx,
            rx: resp_rx,
        },
        CoreEnds {
            rx: req_rx,
            tx: resp_tx,
        },
    )
}

/// Endpoints wired at construction, waiting to be taken.
struct Wiring<Req, Resp> {
    /// `[core][client]` server ends, taken at once by
    /// [`Fabric::server_cores`].
    cores: Option<Vec<Vec<CoreEnds<Req, Resp>>>>,
    /// `[client][core]` client ends, each taken by
    /// [`Fabric::client_port`].
    clients: Vec<Option<Vec<ClientEnds<Req, Resp>>>>,
}

/// Ring ends for one dynamically attached client, waiting to be claimed:
/// each server core takes its `[core]` entry.
struct PendingClient<Req, Resp> {
    cores: Vec<Option<CoreEnds<Req, Resp>>>,
}

/// The client half of a detached port, parked for reuse: the server side
/// stays wired, so a later [`Fabric::attach_client`] can hand these ends
/// back out under the same client id without growing the ring matrix.
struct ParkedPort<Req, Resp> {
    id: ClientId,
    cores: Vec<ClientEnds<Req, Resp>>,
}

/// State shared between the fabric handle and every endpoint; carries the
/// growth list server cores sync against.
struct Shared<Req, Resp> {
    ncores: usize,
    /// Clients wired at construction (ids `0..base_clients`).
    base_clients: usize,
    capacity: usize,
    /// Number of entries published to `growth`; endpoints compare against
    /// their claimed count to skip the lock on the fast path.
    grown: AtomicUsize,
    growth: Mutex<Vec<PendingClient<Req, Resp>>>,
    /// Detached-but-drained client ports awaiting reuse.
    parked: Mutex<Vec<ParkedPort<Req, Resp>>>,
    stats: Arc<FabricStats>,
}

/// Builds and hands out the fabric's endpoints.
///
/// Construction order: create the fabric, then take the [`ServerCore`]s
/// (once) and each client's [`ClientPort`] (once each); endpoints are
/// free-standing and can move to their threads. Additional clients can
/// join later through [`Fabric::attach_client`].
pub struct Fabric<Req, Resp> {
    wiring: Mutex<Wiring<Req, Resp>>,
    shared: Arc<Shared<Req, Resp>>,
}

impl<Req: Send, Resp: Send> Fabric<Req, Resp> {
    /// Creates a fabric for `ncores` server cores and `nclients` clients
    /// with per-ring `capacity` (the paper's per-core message buffers).
    ///
    /// # Panics
    ///
    /// Panics on zero cores/clients/capacity.
    pub fn new(ncores: usize, nclients: usize, capacity: usize) -> Self {
        assert!(ncores > 0 && nclients > 0 && capacity > 0);
        let mut cores: Vec<Vec<_>> = (0..ncores).map(|_| Vec::with_capacity(nclients)).collect();
        let clients = (0..nclients)
            .map(|_| {
                let ends = cores
                    .iter_mut()
                    .map(|core| {
                        let (client, server) = connection(capacity);
                        core.push(server);
                        client
                    })
                    .collect();
                Some(ends)
            })
            .collect();
        Fabric {
            wiring: Mutex::new(Wiring {
                cores: Some(cores),
                clients,
            }),
            shared: Arc::new(Shared {
                ncores,
                base_clients: nclients,
                capacity,
                grown: AtomicUsize::new(0),
                growth: Mutex::new(Vec::new()),
                parked: Mutex::new(Vec::new()),
                stats: Arc::new(FabricStats::default()),
            }),
        }
    }

    /// Takes all server-core endpoints (index = core id).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn server_cores(&self) -> Vec<ServerCore<Req, Resp>> {
        let mut w = self.wiring.lock().expect("fabric lock");
        w.cores
            .take()
            .expect("server cores already taken")
            .into_iter()
            .enumerate()
            .map(|(core, clients)| ServerCore {
                core,
                clients,
                next_client: 0,
                claimed: 0,
                shared: Arc::clone(&self.shared),
            })
            .collect()
    }

    /// Takes client `id`'s endpoint (ids wired at construction).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or taken twice.
    pub fn client_port(&self, id: ClientId) -> ClientPort<Req, Resp> {
        let mut w = self.wiring.lock().expect("fabric lock");
        assert!(id < w.clients.len(), "client id out of range");
        let cores = w.clients[id].take().expect("client port already taken");
        self.port(id, cores)
    }

    /// Attaches a new client to a live fabric and returns its port.
    ///
    /// A previously dropped port that had received a response to every
    /// request it sent is reused (same client id, same rings — the server
    /// side never noticed it was gone); otherwise the new connections are
    /// published to a growth list and each server core claims its ends
    /// lazily on its next [`ServerCore::poll`], so attachment never blocks
    /// the data path.
    /// Requests sent before every core has synced simply wait in the ring.
    pub fn attach_client(&self) -> ClientPort<Req, Resp> {
        let shared = &self.shared;
        if let Some(parked) = shared.parked.lock().expect("fabric parked lock").pop() {
            return self.port(parked.id, parked.cores);
        }
        let (ends, cores): (Vec<_>, Vec<_>) = (0..shared.ncores)
            .map(|_| connection(shared.capacity))
            .unzip();
        let mut growth = shared.growth.lock().expect("fabric growth lock");
        let id = shared.base_clients + growth.len();
        growth.push(PendingClient {
            cores: cores.into_iter().map(Some).collect(),
        });
        // Publish while still holding the lock so `grown` stays monotonic
        // under concurrent attaches.
        shared.grown.store(growth.len(), Ordering::Release);
        drop(growth);
        self.port(id, ends)
    }

    fn port(&self, id: ClientId, cores: Vec<ClientEnds<Req, Resp>>) -> ClientPort<Req, Resp> {
        self.shared
            .stats
            .clients_attached
            .fetch_add(1, Ordering::Relaxed);
        ClientPort {
            id,
            cores,
            sent: Cell::new(0),
            received: Cell::new(0),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Fabric counters.
    pub fn stats(&self) -> Arc<FabricStats> {
        Arc::clone(&self.shared.stats)
    }
}

/// A client's connection: a request ring into every core's message
/// buffer and a response ring back out of every core.
pub struct ClientPort<Req, Resp> {
    id: ClientId,
    /// `[core]` connection ends.
    cores: Vec<ClientEnds<Req, Resp>>,
    /// Requests sent, and responses received, through this port: `Drop`
    /// parks it only when the two match.
    sent: Cell<u64>,
    received: Cell<u64>,
    shared: Arc<Shared<Req, Resp>>,
}

impl<Req, Resp> ClientPort<Req, Resp> {
    /// This port's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Writes `req` into `core`'s message buffer (non-blocking; an `Err`
    /// means the buffer has no credits and the caller should retry).
    ///
    /// # Errors
    ///
    /// Returns the request back when the ring is full.
    pub fn send(&self, core: usize, req: Req) -> Result<(), Req> {
        let stats = &self.shared.stats;
        let tx = &self.cores[core].tx;
        match tx.push(req) {
            Ok(()) => {
                self.sent.set(self.sent.get() + 1);
                stats.requests.fetch_add(1, Ordering::Relaxed);
                stats.note_occupancy(tx.len() as u64);
                Ok(())
            }
            Err(r) => {
                stats.send_backpressure.fetch_add(1, Ordering::Relaxed);
                Err(r)
            }
        }
    }

    /// Messages currently queued in this port's request ring into `core`
    /// (approximate under concurrency).
    pub fn ring_occupancy(&self, core: usize) -> usize {
        self.cores[core].tx.len()
    }

    /// Polls every core's response ring for one response. Responses from
    /// one core arrive in the order that core posted them; responses
    /// from different cores have no order between them.
    pub fn try_recv(&self) -> Option<Resp> {
        let resp = self.cores.iter().find_map(|c| c.rx.pop())?;
        self.received.set(self.received.get() + 1);
        Some(resp)
    }

    /// Blocks (polling) for one response.
    pub fn recv(&self) -> Resp {
        let mut spins = 0u32;
        loop {
            if let Some(r) = self.try_recv() {
                return r;
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl<Req, Resp> Drop for ClientPort<Req, Resp> {
    fn drop(&mut self) {
        self.shared
            .stats
            .clients_attached
            .fetch_sub(1, Ordering::Relaxed);
        // Park only a fully drained port: a request still in flight — in
        // a ring, or popped by a core that has not answered it yet — would
        // surface to the next owner as a stale response. A non-drained
        // port's rings are intentionally leaked to the fabric (the server
        // side keeps polling them; they just never see traffic again).
        if self.sent.get() == self.received.get()
            && self
                .cores
                .iter()
                .all(|c| c.tx.is_empty() && c.rx.is_empty())
        {
            self.shared
                .parked
                .lock()
                .expect("fabric parked lock")
                .push(ParkedPort {
                    id: self.id,
                    cores: std::mem::take(&mut self.cores),
                });
        }
    }
}

/// One server core's endpoint: poll requests, post responses.
pub struct ServerCore<Req, Resp> {
    core: usize,
    /// `[client]` connection ends: `rx` polls the client's requests, `tx`
    /// carries this core's responses back to it.
    clients: Vec<CoreEnds<Req, Resp>>,
    next_client: usize,
    /// Growth entries whose connection this core has claimed.
    claimed: usize,
    shared: Arc<Shared<Req, Resp>>,
}

impl<Req, Resp> ServerCore<Req, Resp> {
    /// This endpoint's core id.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Claims the connections of clients attached since the last sync.
    fn sync_clients(&mut self) {
        if self.shared.grown.load(Ordering::Acquire) == self.claimed {
            return;
        }
        let mut growth = self.shared.growth.lock().expect("fabric growth lock");
        while self.claimed < growth.len() {
            let ends = growth[self.claimed].cores[self.core]
                .take()
                .expect("connection claimed once per core");
            self.clients.push(ends);
            self.claimed += 1;
        }
    }

    /// Polls the per-client message buffers round-robin.
    pub fn poll(&mut self) -> Option<(ClientId, Req)> {
        self.sync_clients();
        let n = self.clients.len();
        for _ in 0..n {
            let i = self.next_client;
            self.next_client = (self.next_client + 1) % n;
            if let Some(m) = self.clients[i].rx.pop() {
                return Some((i, m));
            }
        }
        None
    }

    /// Whether any request is waiting in this core's message buffers.
    ///
    /// Used by shutdown protocols: a core that intends to exit must first
    /// observe all its rings empty, or late requests would hang their
    /// clients.
    pub fn has_pending_requests(&mut self) -> bool {
        self.sync_clients();
        self.clients.iter().any(|c| !c.rx.is_empty())
    }

    /// Posts the response verb into `client`'s response ring from this
    /// core, spinning while that ring is full. `client` must be an id
    /// this core has polled a request from.
    pub fn respond(&mut self, client: ClientId, resp: Resp) {
        self.shared.stats.responses.fetch_add(1, Ordering::Relaxed);
        self.clients[client].tx.push_blocking(resp);
    }
}

impl<A, B> ServerCore<Envelope<A>, Envelope<B>> {
    /// [`ServerCore::poll`] for envelope fabrics: sampled requests get
    /// their [`Stage::RingTransit`] stamp the moment they leave the
    /// message buffer, closing the client-send → server-poll interval.
    /// Unsampled requests cost one branch and no clock read.
    pub fn poll_stamped(&mut self) -> Option<(ClientId, Envelope<A>)> {
        let (client, mut env) = self.poll()?;
        if env.span.is_some() {
            env.stamp(Stage::RingTransit, clock::now_ns());
        }
        Some((client, env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_across_cores() {
        let fabric = Fabric::<u64, u64>::new(3, 2, 16);
        let mut cores = fabric.server_cores();
        let c0 = fabric.client_port(0);
        let c1 = fabric.client_port(1);

        c0.send(2, 100).unwrap();
        c1.send(1, 200).unwrap();
        let (from, req) = cores[2].poll().unwrap();
        assert_eq!((from, req), (0, 100));
        cores[2].respond(from, req + 1);
        let (from, req) = cores[1].poll().unwrap();
        assert_eq!((from, req), (1, 200));
        cores[1].respond(from, req + 1);
        assert_eq!(c0.try_recv(), Some(101));
        assert_eq!(c1.try_recv(), Some(201));
        assert_eq!(c0.try_recv(), None);

        let stats = fabric.stats();
        assert_eq!(stats.requests.load(Ordering::Relaxed), 2);
        assert_eq!(stats.responses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn each_core_answers_its_own_clients() {
        let fabric = Fabric::<u8, u8>::new(2, 1, 4);
        let mut cores = fabric.server_cores();
        let client = fabric.client_port(0);

        // Core 1 answers while core 0 is never polled.
        client.send(1, 9).unwrap();
        let (from, req) = cores[1].poll().unwrap();
        cores[1].respond(from, req * 2);
        assert_eq!(client.try_recv(), Some(18), "core 1 needs no other core");

        // Core 0 answers the same way while core 1 sits idle.
        client.send(0, 5).unwrap();
        let (from, req) = cores[0].poll().unwrap();
        cores[0].respond(from, req * 2);
        assert_eq!(client.try_recv(), Some(10));
        assert_eq!(client.try_recv(), None);
    }

    #[test]
    fn backpressure_when_buffer_full() {
        let fabric = Fabric::<u32, u32>::new(1, 1, 2);
        let _cores = fabric.server_cores();
        let client = fabric.client_port(0);
        client.send(0, 1).unwrap();
        client.send(0, 2).unwrap();
        assert!(client.send(0, 3).is_err(), "no credits left");
        let stats = fabric.stats();
        // Failed sends are not counted as delivered requests — they count
        // as backpressure events instead.
        assert_eq!(stats.requests.load(Ordering::Relaxed), 2);
        assert_eq!(stats.send_backpressure.load(Ordering::Relaxed), 1);
        // The occupancy high-water mark saw the full ring.
        assert_eq!(stats.peak_ring_occupancy.load(Ordering::Relaxed), 2);
        assert_eq!(client.ring_occupancy(0), 2);
    }

    #[test]
    fn envelope_round_trip() {
        let fabric = Fabric::<Envelope<u32>, Envelope<u32>>::new(1, 1, 4);
        let mut cores = fabric.server_cores();
        let client = fabric.client_port(0);
        client.send(0, Envelope::new(41, 10)).unwrap();
        let (from, env) = cores[0].poll().unwrap();
        cores[0].respond(from, Envelope::new(env.seq, env.body + 1));
        assert_eq!(client.recv(), Envelope::new(41, 11));
    }

    #[test]
    fn traced_envelope_accumulates_ring_transit() {
        let fabric = Fabric::<Envelope<u32>, Envelope<u32>>::new(1, 1, 4);
        let mut cores = fabric.server_cores();
        let client = fabric.client_port(0);
        let ctx = SpanCtx {
            trace_id: 99,
            op_seq: 5,
            origin_tsc: clock::now_ns(),
        };
        let mut env = Envelope::traced(5, 11u32, ctx);
        env.stamp(Stage::ClientEnqueue, clock::now_ns());
        client.send(0, env).unwrap();
        let (from, mut req) = cores[0].poll_stamped().unwrap();
        let span = req.take_span().expect("span crosses the ring");
        assert_eq!(span.ctx, ctx);
        assert_eq!(
            span.stamps.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![Stage::ClientEnqueue, Stage::RingTransit]
        );
        // Monotonic stamps on one clock.
        assert!(span.stamps[0].1 >= ctx.origin_tsc);
        assert!(span.stamps[1].1 >= span.stamps[0].1);
        // The response can carry the span back.
        cores[0].respond(from, Envelope::new(req.seq, req.body).with_span(Some(span)));
        let resp = client.recv();
        assert!(resp.span.is_some());

        // Unsampled envelopes stay spanless through the stamped poll.
        client.send(0, Envelope::new(6, 1u32)).unwrap();
        let (_, req) = cores[0].poll_stamped().unwrap();
        assert!(req.span.is_none());
    }

    #[test]
    fn attach_client_to_live_fabric() {
        let fabric = Fabric::<u64, u64>::new(2, 1, 8);
        let mut cores = fabric.server_cores();
        let base = fabric.client_port(0);

        let late = fabric.attach_client();
        assert_eq!(late.id(), 1);
        late.send(1, 50).unwrap();
        base.send(1, 40).unwrap();

        // Core 1 sees both clients and answers both.
        let mut got = Vec::new();
        while got.len() < 2 {
            if let Some((from, req)) = cores[1].poll() {
                cores[1].respond(from, req + 1);
                got.push((from, req));
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![(0, 40), (1, 50)]);
        assert_eq!(base.recv(), 41);
        assert_eq!(late.recv(), 51);

        // Another attach, answered by core 0.
        let later = fabric.attach_client();
        assert_eq!(later.id(), 2);
        later.send(0, 7).unwrap();
        let (from, req) = loop {
            if let Some(m) = cores[0].poll() {
                break m;
            }
        };
        cores[0].respond(from, req * 10);
        assert_eq!(later.recv(), 70);
        // Gauge: the base port and both attached ports are live.
        assert_eq!(fabric.stats().clients_attached.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn dropped_port_is_parked_and_reused() {
        let fabric = Fabric::<u64, u64>::new(2, 1, 8);
        let mut cores = fabric.server_cores();
        let gauge = || fabric.stats().clients_attached.load(Ordering::Relaxed);

        let first = fabric.attach_client();
        let first_id = first.id();
        assert_eq!(gauge(), 1);

        // Round-trip a request so the port is provably wired, then drain
        // fully before dropping.
        first.send(0, 9).unwrap();
        let (from, req) = loop {
            if let Some(m) = cores[0].poll() {
                break m;
            }
        };
        cores[0].respond(from, req + 1);
        assert_eq!(first.recv(), 10);
        drop(first);
        assert_eq!(gauge(), 0, "drop returns the gauge to baseline");

        // Reattach: same id, no ring-matrix growth, and the rings still
        // carry traffic.
        let second = fabric.attach_client();
        assert_eq!(second.id(), first_id, "drained port is reused");
        assert_eq!(gauge(), 1);
        second.send(0, 20).unwrap();
        let (from, req) = loop {
            if let Some(m) = cores[0].poll() {
                break m;
            }
        };
        cores[0].respond(from, req + 1);
        assert_eq!(second.recv(), 21);

        // Churn: many attach/drop cycles neither grow the fabric nor move
        // the gauge off baseline.
        let grown_before = fabric.shared.grown.load(Ordering::Acquire);
        drop(second);
        for _ in 0..100 {
            let port = fabric.attach_client();
            assert_eq!(port.id(), first_id);
        }
        assert_eq!(gauge(), 0);
        assert_eq!(fabric.shared.grown.load(Ordering::Acquire), grown_before);

        // A port whose only unharvested response sits in core 1's ring is
        // not drained: parking it would hand that response to the next
        // owner, so the next attach grows the fabric instead.
        let third = fabric.attach_client();
        assert_eq!(third.id(), first_id);
        third.send(1, 30).unwrap();
        let (from, req) = loop {
            if let Some(m) = cores[1].poll() {
                break m;
            }
        };
        cores[1].respond(from, req + 1);
        drop(third);
        let fourth = fabric.attach_client();
        assert_ne!(fourth.id(), first_id, "undrained port was parked");
        assert_eq!(
            fabric.shared.grown.load(Ordering::Acquire),
            grown_before + 1
        );
    }

    #[test]
    fn port_with_a_popped_unanswered_request_is_not_reused() {
        let fabric = Fabric::<u64, u64>::new(1, 1, 8);
        let mut cores = fabric.server_cores();
        let first = fabric.attach_client();
        first.send(0, 5).unwrap();
        // The core holds the request: every ring of the port is empty.
        let (from, req) = loop {
            if let Some(m) = cores[0].poll() {
                break m;
            }
        };
        drop(first);
        let second = fabric.attach_client();
        cores[0].respond(from, req + 1);
        assert_eq!(
            second.try_recv(),
            None,
            "stale response reached a new owner"
        );
        assert_ne!(second.id(), from);
    }

    #[test]
    fn pending_requests_visible_before_poll() {
        let fabric = Fabric::<u8, u8>::new(1, 1, 4);
        let mut cores = fabric.server_cores();
        let client = fabric.attach_client();
        client.send(0, 1).unwrap();
        assert!(cores[0].has_pending_requests());
        cores[0].poll().unwrap();
        assert!(!cores[0].has_pending_requests());
    }

    #[test]
    fn threaded_echo_server() {
        let ncores = 3usize;
        let nclients = 4usize;
        let per_client = 400u64;
        let fabric = Arc::new(Fabric::<u64, u64>::new(ncores, nclients, 64));
        let cores = fabric.server_cores();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut handles = Vec::new();
        for mut core in cores {
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some((client, req)) = core.poll() {
                        core.respond(client, req.wrapping_mul(3));
                    } else {
                        // One host core runs all these threads; yield so
                        // clients make progress.
                        std::thread::yield_now();
                    }
                }
            }));
        }

        let mut clients = Vec::new();
        for id in 0..nclients {
            // Half the clients are wired at construction, half attach to
            // the live fabric.
            let port = if id % 2 == 0 {
                fabric.client_port(id)
            } else {
                let _ = fabric.client_port(id);
                fabric.attach_client()
            };
            clients.push(std::thread::spawn(move || {
                for i in 0..per_client {
                    let core = (i % 3) as usize;
                    let mut msg = i;
                    while let Err(m) = port.send(core, msg) {
                        msg = m;
                        std::thread::yield_now();
                    }
                    let r = port.recv();
                    assert_eq!(r, i.wrapping_mul(3));
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        let stats = fabric.stats();
        assert_eq!(
            stats.requests.load(Ordering::Relaxed),
            nclients as u64 * per_client
        );
        assert_eq!(
            stats.responses.load(Ordering::Relaxed),
            nclients as u64 * per_client
        );
    }
}
