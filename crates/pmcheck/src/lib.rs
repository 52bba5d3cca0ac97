//! Dynamic persistency-ordering checker for the simulated PM event stream.
//!
//! FlatStore's contribution lives in flush/fence placement: compacted log
//! entries, pointer-after-payload publication, batched `clwb`s. A missing
//! flush before a fence — or a log-tail pointer persisted before its entry —
//! silently passes functional tests and only (maybe) surfaces as a flaky
//! crash-sim failure. This crate catches that class of bug mechanically, the
//! way `pmemcheck`/XFDetector do on real hardware: it replays the
//! [`PmEvent`](pmem::PmEvent) trace a [`PmRegion`](pmem::PmRegion) records into a
//! per-cacheline state machine and reports every ordering violation with
//! the rule, cacheline and event index.
//!
//! # Rules
//!
//! | rule | fires when |
//! |------|------------|
//! | [`Rule::UnpersistedAtCommit`] | a [`PmEvent::CommitPoint`](pmem::PmEvent) passes a cacheline that is dirty, or flushed but not yet fenced |
//! | [`Rule::RedundantFlush`] | a flush targets a line with no store since its last flush (wasted `clwb`, repeat-flush stall on hardware) |
//! | [`Rule::WriteAfterFlush`] | a store lands on a line that was flushed but not yet fenced (the in-flight `clwb` races the new data) |
//! | [`Rule::UselessFence`] | a fence is issued with zero flushes outstanding since the previous fence |
//!
//! Commit points are placed by the durability owners themselves:
//! `oplog::OpLog` marks one after persisting its tail pointer, and the
//! `flatstore` engine after publishing a clean shutdown. The
//! checker then verifies the claim those markers make.
//!
//! # Example: catching a dropped flush
//!
//! ```
//! use pmem::PmAddr;
//! use pmcheck::{checked_region, Rule};
//!
//! // A correct put: payload persisted before the commit point.
//! let region = checked_region(4096);
//! let pm = region.pm();
//! pm.write(PmAddr(0), b"payload");
//! pm.persist(PmAddr(0), 7);
//! pm.commit_point();
//! region.assert_clean("correct put");
//!
//! // The bug class pmcheck exists for: flush dropped, tail still persisted.
//! let region = checked_region(4096);
//! let pm = region.pm();
//! pm.write(PmAddr(0), b"payload"); // never flushed!
//! pm.write(PmAddr(64), b"tail");
//! pm.persist(PmAddr(64), 4);
//! pm.commit_point();
//! let v = region.violations();
//! assert_eq!(v[0].rule, Rule::UnpersistedAtCommit);
//! ```

mod checker;
mod harness;
mod report;

pub use checker::{Checker, Rule, Violation};
pub use harness::{checked_region, CheckedRegion};
pub use report::RuleCounts;
