//! **FlatStore** — a log-structured key-value storage engine for
//! persistent memory (reproduction of Chen et al., ASPLOS 2020).
//!
//! FlatStore decouples a PM key-value store into a **volatile index** in
//! DRAM and a **persistent compacted operation log**. Small updates that
//! would each cost a cacheline flush in a conventional persistent index are
//! instead appended as 16-byte log entries and persisted in
//! cacheline-aligned batches; **pipelined horizontal batching** lets one
//! server core steal the pending entries of its group's other cores so a
//! batch fills quickly without adding latency.
//!
//! # Engine anatomy (paper Figure 2)
//!
//! * Per-core **compacted OpLog** ([`oplog`]) — 16 B pointer entries or
//!   inline values ≤ 256 B; batch appends padded to cacheline boundaries.
//! * **Lazy-persist allocator** ([`pmalloc`]) — 4 MB chunks and size
//!   classes for values > 256 B; allocation bitmaps are never flushed on
//!   the fast path and are reconstructed from the log on recovery.
//! * **Volatile index** — pluggable: per-core CCEH hash
//!   ([`IndexKind::Hash`], FlatStore-H), a shared Masstree
//!   ([`IndexKind::Masstree`], FlatStore-M) or a volatile FAST&FAIR
//!   ([`IndexKind::FastFair`], FlatStore-FF).
//! * **FlatRPC fabric** ([`flatrpc`]) — per-core per-client shared-memory
//!   request rings (§4.3); each core answers on its own per-client
//!   response ring, with no agent-core hop.
//! * **Pipelined horizontal batching** — the paper's execution model
//!   (Figure 4d) and the only one the threaded engine runs; the Figure 4
//!   ablation stages live in the `simkv` discrete-event model.
//! * **Log cleaning** — version-based liveness, per-core victim selection,
//!   index CAS re-pointing and grace-period chunk reclamation.
//! * **Recovery** — clean-shutdown snapshot or full log scan (§3.5).
//!
//! # Quickstart
//!
//! ```
//! use flatstore::{Config, FlatStore};
//!
//! let cfg = Config::builder()
//!     .pm_bytes(64 << 20)
//!     .ncores(2)
//!     .group_size(2)
//!     .build()?;
//! let store = FlatStore::create(cfg)?;
//! store.put(7, b"persistent")?;
//! assert_eq!(store.get(7)?.as_deref(), Some(&b"persistent"[..]));
//! assert!(store.delete(7)?);
//! let pm = store.shutdown()?; // clean shutdown; reopen with FlatStore::open
//! # drop(pm);
//! # Ok::<(), flatstore::StoreError>(())
//! ```
//!
//! # Pipelined sessions
//!
//! Blocking calls complete one operation per round trip. A [`Session`]
//! keeps up to [`Config::pipeline_depth`] operations in flight, which is
//! what lets horizontal batching fill a group's batch from a single
//! client. Every verb goes through one entry point,
//! [`Session::submit`], taking a typed [`Op`] and completing as the
//! mirrored [`Reply`] variant:
//!
//! ```
//! use flatstore::prelude::*;
//! use flatstore::FlatStore;
//!
//! let cfg = Config::builder()
//!     .pm_bytes(64 << 20)
//!     .ncores(2)
//!     .group_size(2)
//!     .pipeline_depth(8)
//!     .build()?;
//! let store = FlatStore::create(cfg)?;
//!
//! let mut session = store.session()?;
//! let tickets: Vec<_> = (0..32)
//!     .map(|k| session.submit(Op::put(k, b"v")))
//!     .collect::<Result<_, _>>()?;
//! for t in tickets {
//!     assert_eq!(session.wait(t)?, Reply::Put(Ok(())));
//! }
//! drop(session);
//! store.shutdown()?;
//! # Ok::<(), flatstore::StoreError>(())
//! ```
//!
//! For blocking callers, [`StoreHandle`] (clonable, internally
//! synchronized) offers `put`/`get`/`delete`/`range`, each a depth-1
//! pipeline over a private session.

// Library code on the persistence path propagates errors: a panic can
// strand half-written PM state. A sound exception is an
// `#[expect(clippy::unwrap_used, reason = "...")]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod batch;
mod cache;
mod config;
mod engine;
mod error;
mod flight;
mod repl;
mod request;
mod session;
mod shard;
mod superblock;
mod value;
mod vindex;

pub use batch::EngineStats;
pub use config::{Config, ConfigBuilder, GcConfig, IndexKind};
pub use engine::{FlatStore, StoreHandle};
pub use error::StoreError;
pub use repl::{BackupImage, ReplOp, ReplicationSink};
pub use request::{Op, Reply};
pub use session::{Session, Ticket};

/// The one-line import for client code: the types every caller touches.
///
/// ```
/// use flatstore::prelude::*;
/// ```
pub mod prelude {
    pub use crate::config::Config;
    pub use crate::error::StoreError;
    pub use crate::request::{Op, Reply};
    pub use crate::session::Ticket;
}

/// Routes `key` to its owning server core (exposed for benchmark
/// harnesses that model client-side routing).
pub fn core_of(key: u64, ncores: usize) -> usize {
    shard::core_of(key, ncores)
}
