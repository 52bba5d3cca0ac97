//! Operation payloads carried over the FlatRPC fabric.
//!
//! The public surface is the [`Op`]/[`Reply`] pair: a client builds an
//! [`Op`] and hands it to [`Session::submit`](crate::Session::submit),
//! which routes it to the owning core and wraps the internal [`OpReq`] in
//! a [`flatrpc::Envelope`] whose `seq` is the session-local ticket
//! number; the server core echoes the same `seq` back on the [`Reply`]
//! envelope so the session can match completions to submissions in any
//! order. `OpReq` additionally carries the engine-internal control verbs
//! (barrier, checkpoint cursor, shutdown) that never appear in `Op`.

use flatrpc::Envelope;

use crate::error::StoreError;
use crate::shard::core_of;

/// One data operation, the single argument of
/// [`Session::submit`](crate::Session::submit).
///
/// Each variant mirrors a [`Reply`] variant: a submitted `Op::Get`
/// completes as `Reply::Get`, and so on. The enum is `#[non_exhaustive]`
/// so later PRs can add verbs (e.g. compare-and-swap) without a breaking
/// release; match with a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Op {
    /// Store `value` under `key`.
    Put {
        /// The key.
        key: u64,
        /// The value (moved, not re-copied, into the log entry).
        value: Vec<u8>,
    },
    /// Read `key`.
    Get {
        /// The key.
        key: u64,
    },
    /// Delete `key`.
    Delete {
        /// The key.
        key: u64,
    },
    /// Range scan over `lo..hi`, at most `limit` items (FlatStore-M/-FF
    /// only; FlatStore-H completes with
    /// [`StoreError::RangeUnsupported`]).
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Exclusive upper bound.
        hi: u64,
        /// Max items returned.
        limit: usize,
    },
}

impl Op {
    /// Convenience constructor: a Put of `value` under `key`, copying the
    /// caller's buffer (the one copy on the write path).
    pub fn put(key: u64, value: impl AsRef<[u8]>) -> Op {
        Op::Put {
            key,
            value: value.as_ref().to_vec(),
        }
    }

    /// The key this operation routes by: the touched key for point ops,
    /// the inclusive lower bound for range scans. Cluster routers use
    /// this the way the engine's internal `home_core` shards cores — one
    /// routing rule for every verb (a Range additionally fans out across
    /// groups; its routing key only picks the coordinator).
    pub fn routing_key(&self) -> u64 {
        match self {
            Op::Put { key, .. } | Op::Get { key } | Op::Delete { key } => *key,
            Op::Range { lo, .. } => *lo,
        }
    }

    /// The server core this operation routes to (range scans route by
    /// their lower bound; the owning core walks the shared tree).
    pub(crate) fn home_core(&self, ncores: usize) -> usize {
        match self {
            Op::Put { key, .. } | Op::Get { key } | Op::Delete { key } => core_of(*key, ncores),
            Op::Range { lo, .. } => core_of(*lo, ncores),
        }
    }

    /// Lowers the public verb to the wire request.
    pub(crate) fn into_req(self) -> OpReq {
        match self {
            Op::Put { key, value } => OpReq::Put { key, value },
            Op::Get { key } => OpReq::Get { key },
            Op::Delete { key } => OpReq::Delete { key },
            Op::Range { lo, hi, limit } => OpReq::Range { lo, hi, limit },
        }
    }
}

/// A request written into a server core's message buffer.
pub(crate) enum OpReq {
    /// Store `value` under `key`.
    Put {
        /// The key.
        key: u64,
        /// The value (moved, not re-copied, into the log entry).
        value: Vec<u8>,
    },
    /// Read `key`.
    Get {
        /// The key.
        key: u64,
    },
    /// Delete `key`.
    Delete {
        /// The key.
        key: u64,
    },
    /// Range scan over `lo..hi`, at most `limit` items.
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Exclusive upper bound.
        hi: u64,
        /// Max items returned.
        limit: usize,
    },
    /// Replies once every request this core received before it has fully
    /// completed (tests and benchmarks use this to quiesce).
    Barrier,
    /// Records this core's current log tail as its checkpoint cursor
    /// (persisted), then replies. Only sent by `FlatStore::checkpoint`.
    CkptCursor,
    /// Begin draining; the worker exits once quiet (never answered).
    Shutdown,
}

impl OpReq {
    /// The key a conflict-queue check applies to, if any.
    pub fn conflict_key(&self) -> Option<u64> {
        match self {
            OpReq::Put { key, .. } | OpReq::Get { key } | OpReq::Delete { key } => Some(*key),
            _ => None,
        }
    }
}

/// The outcome of one submitted [`Op`], matched to its
/// [`Ticket`](crate::Ticket) by the session.
///
/// Each variant mirrors an [`Op`] variant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Reply {
    /// Outcome of a Put.
    Put(Result<(), StoreError>),
    /// Outcome of a Get: the value if present.
    Get(Result<Option<Vec<u8>>, StoreError>),
    /// Outcome of a Delete: whether the key existed.
    Delete(Result<bool, StoreError>),
    /// Outcome of a Range scan.
    Range(Result<Vec<(u64, Vec<u8>)>, StoreError>),
    /// Acknowledgement of a control request (barrier, checkpoint cursor);
    /// never surfaced through the public completion API.
    Control,
}

impl Reply {
    /// Flattens this result to `Ok(())`/`Err`, for callers that only care
    /// whether the operation failed.
    pub fn status(&self) -> Result<(), StoreError> {
        match self {
            Reply::Put(r) => r.clone(),
            Reply::Get(r) => r.as_ref().map(|_| ()).map_err(Clone::clone),
            Reply::Delete(r) => r.as_ref().map(|_| ()).map_err(Clone::clone),
            Reply::Range(r) => r.as_ref().map(|_| ()).map_err(Clone::clone),
            Reply::Control => Ok(()),
        }
    }
}

/// Request envelope on the wire.
pub(crate) type FabReq = Envelope<OpReq>;
/// Response envelope on the wire.
pub(crate) type FabResp = Envelope<Reply>;
/// The engine's fabric instantiation.
pub(crate) type StoreFabric = flatrpc::Fabric<FabReq, FabResp>;
/// One server core's fabric endpoint.
pub(crate) type StoreServerCore = flatrpc::ServerCore<FabReq, FabResp>;
/// One client's fabric endpoint.
pub(crate) type StoreClientPort = flatrpc::ClientPort<FabReq, FabResp>;
