//! `flatsrv`: a RESP wire front end for the FlatStore engine.
//!
//! The paper's clients reach FlatStore over an RDMA-style shared-memory
//! fabric; this crate adds the commodity equivalent — a socket server
//! speaking a Redis-protocol (RESP) subset — so the engine can be driven
//! by ordinary network clients and the pipelining/batching story can be
//! measured end-to-end under real connections.
//!
//! Layers, bottom up:
//!
//! - [`resp`]: the codec. Server-side incremental command parsing
//!   (multi-bulk `*N\r\n$len\r\n…` and inline commands), reply
//!   serializers, and a client-side reply parser for test and benchmark
//!   clients.
//! - [`keymap`]: byte keys on the engine's `u64` keyspace. Raw keys are
//!   hashed (FNV-1a + avalanche) and stored inside the value frame, so
//!   `GET` verifies the raw key and a hash collision reads as a miss,
//!   never as another key's value.
//! - [`server`]: acceptor threads (one per listener, TCP or Unix
//!   socket) running a poll-style event loop. Each connection owns one
//!   pipelined engine [`Session`](flatstore::Session), so N busy
//!   connections look to the engine like the paper's client fleet and
//!   fill horizontal batches. Commands: `GET` `SET` `DEL` `MGET` `MSET`
//!   `SCAN` `PING` `INFO` `QUIT` (+ `SHUTDOWN` for orchestration). The
//!   multi-key verbs fan out over the session's pipelined `Op` API and
//!   gather their replies into one frame, so a single command fills a
//!   whole horizontal batch.
//! - [`load`]: [`raw_key`](load::raw_key), the wire name of an engine
//!   key that every RESP client here uses.
//!
//! Everything is `std`-only: no async runtime, no epoll crate — a
//! non-blocking sweep loop with a spin/yield/sleep idle ladder, matching
//! the engine's own polling discipline.

pub mod keymap;
pub mod load;
pub mod resp;
pub mod server;

pub use server::{Listener, Server, ServerOpts, ServerStats, StatsSource};
