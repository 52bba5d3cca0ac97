//! Umbrella crate for the FlatStore reproduction (Chen et al., ASPLOS'20).
//!
//! This workspace implements the paper's full system and evaluation stack:
//!
//! | Crate | Role |
//! |---|---|
//! | [`pmem`] | simulated persistent memory + Optane cost model |
//! | [`pmalloc`] | lazy-persist allocator (4 MB chunks, size classes) |
//! | [`oplog`] | compacted operation log (16 B entries, batched appends) |
//! | [`indexes`] | CCEH, Level-Hashing, FAST&FAIR, FPTree baselines |
//! | [`masstree`] | concurrent ordered index for FlatStore-M |
//! | [`flatstore`] | the engine: pipelined horizontal batching, GC, recovery |
//! | [`simkv`] | discrete-event evaluation testbed (regenerates §5) |
//! | [`workloads`] | YCSB + Facebook-ETC workload generators |
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results. Runnable examples live
//! in `examples/` (`cargo run --release --example quickstart`).

pub use flatstore::{Config, FlatStore, GcConfig, IndexKind, StoreError};
