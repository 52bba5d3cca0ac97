//! racecheck — a loom-style concurrency checker for the flatstore
//! workspace, with a zero-cost facade for the lock-free hand-offs.
//!
//! The crate has two halves:
//!
//! * [`sync`] is what `flatrpc::ring` and `flatstore::batch` import
//!   instead of `std::sync` for their cursor atomics and slot cells. By
//!   default the atomics are the `std` types and [`sync::RaceCell`] is a
//!   bare `UnsafeCell` wrapper — zero overhead. Compiling with
//!   `RUSTFLAGS="--cfg racecheck"` swaps the facade to the checked model
//!   types below, and the `#[cfg(all(test, racecheck))] mod
//!   racecheck_tests` beside that code explore the shipped source.
//! * [`model`] (always compiled, no cfg needed) is the checker itself:
//!   drop-in atomics/mutexes/threads whose every operation is a
//!   scheduling choice point, a cooperative scheduler that explores
//!   interleavings (bounded-exhaustive DFS via [`model::explore`],
//!   seeded random via [`model::explore_random`]), and a vector-clock
//!   happens-before [`engine`] that reports data races, missing
//!   release/acquire edges, and deadlocks with per-thread event traces.
//!
//! Discipline models live in `tests/models.rs`: the completion-gate
//! dual-atomic handshake, the shard deferred-key FIFO, client-port
//! park/reuse, the cache fill-vs-invalidate ordering and the flight
//! ring — each asserted under every explored schedule, with seeded-buggy
//! variants proving the checker actually catches the bug class it
//! exists for.
//!
//! ```
//! use racecheck::model::{self, thread, RaceCell};
//! use std::sync::atomic::Ordering;
//! use std::sync::Arc;
//!
//! // A Release publish / Acquire consume handshake is clean:
//! model::check("publish", model::Config::new(), || {
//!     let data = Arc::new(RaceCell::named("data", 0u64));
//!     let flag = Arc::new(model::AtomicU64::named("flag", 0));
//!     let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
//!     let t = thread::spawn(move || {
//!         d.write(42);
//!         f.store(1, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(data.read(), 42);
//!     }
//!     t.join().unwrap();
//! });
//! ```

pub mod engine;
pub mod model;
pub mod sync;
pub mod vc;
