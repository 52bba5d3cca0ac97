//! FlatStore's compacted operation log (paper §3.2–3.4).
//!
//! The log is the persistence half of FlatStore's decoupled design: every
//! Put/Delete appends one **compacted log entry** — 16 bytes for
//! pointer-based entries, `12 + len` bytes for values embedded inline — and
//! the volatile index simply points at those entries. Because entries are
//! tiny and appended together, a batch of sixteen pointer entries fills
//! exactly one 256 B XPLine: the persistence cost of a *batch* equals the
//! cost of a *single* entry, which is the paper's central throughput lever.
//!
//! Key pieces:
//!
//! * [`LogEntry`] / [`LogOp`] / [`Payload`] — the entry codec (Figure 3);
//!   [`EntryHeader`] — its allocation-free, header-only decode.
//! * [`OpLog`] — a per-core log over a chain of 4 MB chunks with batched,
//!   cacheline-padded appends, a persisted tail pointer, log cleaning
//!   ([`OpLog::clean_chunk`]) and a recovery scan
//!   ([`OpLog::recover_headers`]).
//! * [`ChunkUsage`] — per-chunk liveness accounting for victim selection.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pmem::{PmRegion, PmAddr};
//! use pmalloc::{ChunkManager, CHUNK_SIZE};
//! use oplog::{OpLog, LogEntry};
//!
//! let pm = Arc::new(PmRegion::new(8 * CHUNK_SIZE as usize + 4096 * 64));
//! // Chunks must start 4 MB-aligned; the low 4 MB holds descriptors.
//! let mgr = Arc::new(ChunkManager::format(pm, PmAddr(CHUNK_SIZE), 7));
//! let mut log = OpLog::create(mgr, PmAddr(0))?;
//! let addrs = log.append_batch(&[
//!     LogEntry::put_inline(1, 0, b"alpha".to_vec())?,
//!     LogEntry::put_inline(2, 0, b"beta".to_vec())?,
//! ])?;
//! assert_eq!(log.read_entry(addrs[0])?.key, 1);
//! # Ok::<(), oplog::LogError>(())
//! ```

mod entry;
mod error;
mod log;

pub use entry::{
    newer, EntryHeader, LogEntry, LogOp, Payload, INLINE_HEADER_LEN, INLINE_MAX, PTR_ENTRY_LEN,
    VERSION_MASK,
};
pub use error::LogError;
pub use log::{ChunkUsage, OpLog, Relocation, ENTRY_AREA};
