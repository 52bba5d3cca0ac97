//! Baseline persistent index structures for the FlatStore reproduction.
//!
//! The FlatStore paper (Table 1, §5) compares against four state-of-the-art
//! persistent indexes. This crate implements all four from scratch, each
//! usable in two modes:
//!
//! * **Persistent mode** ([`Mode::Persistent`]) — every structural store is
//!   followed by the cacheline flushes and fences the original design
//!   prescribes. This is how the *compared systems* run in the evaluation:
//!   the index lives in PM and pays the full persistence cost.
//! * **Volatile mode** ([`Mode::Volatile`]) — identical code paths with all
//!   flushes/fences elided, mirroring the paper's method of reusing an index
//!   as FlatStore's DRAM-resident volatile index ("we place CCEH directly in
//!   DRAM and remove all its flush operations", §4.1).
//!
//! Implemented structures:
//!
//! | Type | Structure | Shape (paper Table 1) |
//! |---|---|---|
//! | [`Cceh`] | CCEH | three level (directory, segments, buckets), 4 slots/bucket |
//! | [`LevelHash`] | Level-Hashing | two-level (top/bottom), 4 slots/bucket |
//! | [`FastFair`] | FAST&FAIR | B+-tree, all nodes in PM, shift-based in-node inserts |
//! | [`FpTree`] | FPTree | B+-tree, inner nodes in DRAM, fingerprinted leaves in PM |
//!
//! All indexes map `u64` keys to opaque `u64` values (FlatStore packs a
//! 20-bit version and a 40-bit entry pointer into the value). The key
//! `u64::MAX` is reserved as the empty-slot sentinel.

// Library code on the persistence path propagates errors: a panic can
// strand half-written PM state. A sound exception is an
// `#[expect(clippy::unwrap_used, reason = "...")]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cceh;
mod common;
mod error;
mod fastfair;
mod fptree;
mod level;
mod traits;

pub use cceh::Cceh;
pub use common::{Mode, MAX_KEY};
pub use error::IndexError;
pub use fastfair::FastFair;
pub use fptree::FpTree;
pub use level::LevelHash;
pub use traits::{Index, OrderedIndex};
