//! Simulated byte-addressable persistent memory.
//!
//! This crate is the hardware substrate of the FlatStore reproduction. It
//! models an Intel Optane DC Persistent Memory module closely enough that the
//! persistence-critical logic of a PM key-value store — flush placement,
//! fence ordering, cacheline alignment, batching and crash recovery — can be
//! implemented and validated without the physical device:
//!
//! * [`PmRegion`] is a byte-addressable region with explicit [`flush`] /
//!   [`fence`] operations mirroring `clwb` / `sfence`. Writes land in a
//!   volatile "CPU cache" (the live buffer); with crash tracking enabled, a
//!   shadow copy holds only the flushed state, and [`PmRegion::simulate_crash`]
//!   discards everything that was never flushed — exactly the data loss a
//!   power failure causes on real hardware.
//! * [`PmRegion::dram_arena`] is the same byte-addressable interface over
//!   plain DRAM — committed on first touch, nothing counted, flushes ignored —
//!   for the volatile indexes that live beside the PM pool.
//! * [`PmStats`] counts every write, flush and fence so tests and benchmarks
//!   can assert on the *number of persistence operations*, the quantity the
//!   FlatStore paper optimizes.
//! * [`cost`] provides a discrete-event cost model of the device calibrated
//!   to the paper's Figure 1 measurements: 64 B cacheline flush granularity,
//!   256 B internal XPLine write granularity with a small write-combining
//!   buffer, a shared (non-scalable) media bandwidth server, and the ~800 ns
//!   stall on repeated flushes to the same cacheline.
//!
//! [`flush`]: PmRegion::flush
//! [`fence`]: PmRegion::fence
//!
//! # Example
//!
//! ```
//! use pmem::{PmRegion, PmAddr};
//!
//! let pm = PmRegion::with_crash_tracking(1 << 20);
//! pm.write(PmAddr(0), b"hello");
//! // Not yet flushed: a crash would lose it.
//! pm.simulate_crash();
//! let mut buf = [0u8; 5];
//! pm.read(PmAddr(0), &mut buf);
//! assert_eq!(&buf, b"\0\0\0\0\0");
//!
//! pm.write(PmAddr(0), b"hello");
//! pm.persist(PmAddr(0), 5); // flush + fence
//! pm.simulate_crash();
//! pm.read(PmAddr(0), &mut buf);
//! assert_eq!(&buf, b"hello");
//! ```

mod addr;
pub mod cost;
mod region;
mod stats;
mod trace;

pub use addr::{PmAddr, CACHELINE, XPLINE};
pub use region::PmRegion;
pub use stats::{PmStats, PmStatsSnapshot, REDUNDANT_FLUSH_BUDGET};
pub use trace::PmEvent;
