//! Lazy-persist persistent-memory allocator (FlatStore paper §3.2).
//!
//! FlatStore stores key-value records larger than 256 B out of the operation
//! log, in blocks handed out by this allocator. The allocator's defining
//! property is that its allocation metadata (per-chunk bitmaps) is **not
//! flushed on the allocation fast path**: the operation log already records
//! the address of every live block, so after a crash the bitmaps are
//! reconstructed by scanning the log ([`ChunkManager::mark_allocated`]).
//! This removes one flush+fence from every Put of a large value — one of the
//! paper's three write-reduction techniques.
//!
//! # Structure (Hoard-like)
//!
//! * PM space is cut into 4 MB [`CHUNK_SIZE`] chunks, each 4 MB-aligned.
//! * A chunk is *formatted* to a single size class when first used; the class
//!   is persisted in the chunk header **at format time** (the only flush the
//!   allocator ever issues on its own), so recovery can derive a block index
//!   from any pointer: `chunk = ptr & !(4 MB − 1)`, `block = (ptr − data_base)
//!   / class`.
//! * Each server core owns a [`CoreAllocator`] with private partial chunks,
//!   so the fast path takes no global lock.
//! * Allocations larger than a chunk's usable space take whole contiguous
//!   chunks ("huge" allocations).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pmem::PmRegion;
//! use pmalloc::{ChunkManager, CoreAllocator, CHUNK_SIZE};
//!
//! let pm = Arc::new(PmRegion::new(16 * CHUNK_SIZE as usize));
//! let mgr = Arc::new(ChunkManager::format(pm, pmem::PmAddr(0), 16));
//! let mut alloc = CoreAllocator::new(Arc::clone(&mgr), 0);
//! let block = alloc.alloc(1000)?;
//! assert!(block.offset() % 256 == 0, "blocks are 256 B aligned for 40-bit pointers");
//! alloc.free(block)?;
//! # Ok::<(), pmalloc::AllocError>(())
//! ```

// Library code on the persistence path propagates errors: a panic can
// strand half-written PM state. A sound exception is an
// `#[expect(clippy::unwrap_used, reason = "...")]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod arena;
mod bitmap;
mod chunk;
mod classes;
mod error;

pub use arena::CoreAllocator;
pub use bitmap::Bitmap;
pub use chunk::{ChunkManager, ChunkStats, CHUNK_HEADER, CHUNK_SIZE};
pub use classes::{class_for, class_sizes, BLOCK_ALIGN};
pub use error::AllocError;
