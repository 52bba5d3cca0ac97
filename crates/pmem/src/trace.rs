//! Event tracing for the discrete-event cost model.

/// A single persistence-relevant hardware event emitted by a
/// [`PmRegion`](crate::PmRegion) with tracing enabled.
///
/// The `simkv` discrete-event simulator runs the *real* data-structure code
/// against a traced region, drains the events the operation emitted, and
/// charges each one to simulated time through [`cost::Device`](crate::cost::Device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmEvent {
    /// A store of `len` bytes at byte offset `addr`.
    Write {
        /// Byte offset of the store.
        addr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// A `clwb`-style flush of the 64 B cacheline with index `line`.
    Flush {
        /// Cacheline index (byte offset / 64).
        line: u64,
    },
    /// An `sfence`-style ordering fence.
    Fence,
    /// A load of `len` bytes at byte offset `addr` (used to charge PM read
    /// latency for Get paths that touch the device).
    Read {
        /// Byte offset of the load.
        addr: u64,
        /// Length in bytes.
        len: u32,
    },
    /// A durability commit point emitted by
    /// [`PmRegion::commit_point`](crate::PmRegion::commit_point): the
    /// caller asserts that everything it wrote so far is persistent (e.g.
    /// the operation log just persisted its tail pointer, or the engine
    /// just published a clean shutdown). `pmcheck` verifies the claim: every
    /// store issued before a commit point must have been flushed **and**
    /// fenced by the time the marker appears in the stream.
    ///
    /// `epoch` is a monotonically increasing marker index (1-based), so
    /// violations can name the durability epoch they fall into.
    CommitPoint {
        /// 1-based index of this commit point within the region's trace.
        epoch: u64,
    },
}
