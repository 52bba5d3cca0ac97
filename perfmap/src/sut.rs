//! The system under test: an engine built from a workload's
//! configuration behind the front end the workload names.

use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flatrepl::ReplicatedStore;
use flatsrv::{Listener, Server, ServerOpts};
use flatstore::{Config, FlatStore};

use crate::drive::{SessionTransport, Transport, WireTransport};
use crate::spec::{Front, Spec};

/// Pipeline depth of the loaded (*sat*) phase and of every session.
pub const DEPTH: usize = 8;

enum Kind {
    Plain(FlatStore),
    Repl(ReplicatedStore),
    // Field order is drop order: the server's sessions go before the
    // engine they are attached to.
    Wire {
        server: Server,
        addr: SocketAddr,
        store: FlatStore,
    },
}

pub struct Sut {
    kind: Kind,
    pub cfg: Config,
}

/// Engine configuration of `spec`. The flush policy is the same in
/// every run: `pmem`'s simulated flush + fence on every batch, crash
/// tracking off except where the workload crashes the store.
pub fn config(spec: &Spec, front: Front, trace_sample: u64) -> Result<Config, String> {
    Config::builder()
        .pm_bytes(spec.pm_bytes)
        .dram_bytes(64 << 20)
        .ncores(spec.ncores)
        .group_size(spec.group_size)
        .pipeline_depth(DEPTH)
        .crash_tracking(front == Front::Crash)
        .trace_sample(trace_sample)
        .build()
        .map_err(|e| e.to_string())
}

/// Socket names are unique per process and per server started in it.
static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);

impl Sut {
    /// Creates and formats the engine (and starts the server in front of
    /// it), empty.
    pub fn create(spec: &Spec, front: Front, trace_sample: u64) -> Result<Sut, String> {
        let cfg = config(spec, front, trace_sample)?;
        let kind = match front {
            Front::Session | Front::Crash => {
                Kind::Plain(FlatStore::create(cfg.clone()).map_err(|e| e.to_string())?)
            }
            Front::Repl => {
                Kind::Repl(ReplicatedStore::create(cfg.clone()).map_err(|e| e.to_string())?)
            }
            Front::Wire => {
                let store = FlatStore::create(cfg.clone()).map_err(|e| e.to_string())?;
                // An abstract-namespace socket: nothing is left on disk.
                let name = format!(
                    "perfmap-{}-{}",
                    std::process::id(),
                    NEXT_SOCKET.fetch_add(1, Ordering::Relaxed)
                );
                let addr = SocketAddr::from_abstract_name(name).map_err(|e| e.to_string())?;
                let listener = UnixListener::bind_addr(&addr).map_err(|e| e.to_string())?;
                let server = Server::start(
                    store.handle(),
                    Arc::new(String::new),
                    vec![Listener::Unix(listener)],
                    ServerOpts::default(),
                )
                .map_err(|e| e.to_string())?;
                Kind::Wire {
                    server,
                    addr,
                    store,
                }
            }
        };
        Ok(Sut { kind, cfg })
    }

    /// Wraps a store reopened after a crash.
    pub fn reopened(store: FlatStore, cfg: Config) -> Sut {
        Sut {
            kind: Kind::Plain(store),
            cfg,
        }
    }

    pub fn store(&self) -> &FlatStore {
        match &self.kind {
            Kind::Plain(store) | Kind::Wire { store, .. } => store,
            Kind::Repl(repl) => repl.primary(),
        }
    }

    pub fn repl(&self) -> Option<&ReplicatedStore> {
        match &self.kind {
            Kind::Repl(repl) => Some(repl),
            _ => None,
        }
    }

    pub fn server(&self) -> Option<&Server> {
        match &self.kind {
            Kind::Wire { server, .. } => Some(server),
            _ => None,
        }
    }

    /// Opens the client side: one session, or one socket connection.
    /// `framed` makes a session speak the wire front end's key hashing
    /// and value frames (the in-process twin of a wire workload).
    pub fn connect(&self, framed: bool) -> Result<Box<dyn Transport>, String> {
        match &self.kind {
            Kind::Wire { addr, .. } => {
                let stream = UnixStream::connect_addr(addr).map_err(|e| e.to_string())?;
                Ok(Box::new(WireTransport::new(stream)))
            }
            _ => {
                let session = self.store().session().map_err(|e| e.to_string())?;
                Ok(Box::new(SessionTransport::new(session, framed)))
            }
        }
    }

    /// Stops the engine without the clean-shutdown protocol and returns
    /// its region (the crash workload's first step).
    pub fn kill(self) -> Option<Arc<pmem::PmRegion>> {
        match self.kind {
            Kind::Plain(store) => Some(store.kill()),
            _ => None,
        }
    }
}
