//! The pluggable volatile index (paper §3.1: "FlatStore can use any
//! existing index solutions").

use std::sync::Arc;

use indexes::{Cceh, FastFair, Index, IndexError, Mode, OrderedIndex};
use masstree::Masstree;
use parking_lot::Mutex;
use pmem::{PmAddr, PmRegion};

use crate::config::IndexKind;
use crate::error::StoreError;

/// The DRAM-resident index shared by the server cores.
///
/// * `PerCoreHash` — FlatStore-H: one lock-free-by-partitioning CCEH
///   instance per core; core `i` only ever touches instance `i`, so the
///   mutexes are uncontended (they exist to satisfy the borrow checker, not
///   the paper's design, which has no locks here either).
/// * `SharedMasstree` — FlatStore-M: one concurrent Masstree.
/// * `SharedTree` — FlatStore-FF: one volatile FAST&FAIR behind a lock
///   (the original shares a single instance between cores; its internal
///   fine-grained locking is approximated by a structure-wide lock).
pub(crate) enum VolatileIndex {
    PerCoreHash(Vec<Mutex<Cceh>>),
    SharedMasstree(Masstree),
    SharedTree(Mutex<FastFair>),
}

impl VolatileIndex {
    /// Builds the index for `kind` with a DRAM arena of `dram_bytes`
    /// (per core for `Hash`), sized so that `core_keys` keys per core
    /// bulk-load without a CCEH split (0: the smallest table, grown by
    /// splitting).
    ///
    /// The arenas are plain DRAM ([`PmRegion::dram_arena`]): committed on
    /// first touch and free of the PM bookkeeping a volatile index never
    /// reads. `Mode::Volatile` elides every flush.
    pub fn build(
        kind: IndexKind,
        ncores: usize,
        dram_bytes: usize,
        core_keys: usize,
    ) -> Result<Self, StoreError> {
        let arena = || Arc::new(PmRegion::dram_arena(dram_bytes));
        match kind {
            IndexKind::Hash => {
                let depth = Cceh::depth_for(core_keys, dram_bytes as u64).max(2);
                let mut shards = Vec::with_capacity(ncores);
                for _ in 0..ncores {
                    shards.push(Mutex::new(Cceh::new(
                        arena(),
                        PmAddr(0),
                        dram_bytes as u64,
                        Mode::Volatile,
                        depth,
                    )?));
                }
                Ok(VolatileIndex::PerCoreHash(shards))
            }
            IndexKind::Masstree => Ok(VolatileIndex::SharedMasstree(Masstree::new())),
            IndexKind::FastFair => Ok(VolatileIndex::SharedTree(Mutex::new(FastFair::new(
                arena(),
                PmAddr(0),
                dram_bytes as u64,
                Mode::Volatile,
            )?))),
        }
    }

    pub fn insert(&self, core: usize, key: u64, value: u64) -> Result<Option<u64>, StoreError> {
        match self {
            VolatileIndex::PerCoreHash(shards) => Ok(shards[core].lock().insert(key, value)?),
            VolatileIndex::SharedMasstree(t) => Ok(t.insert(key, value)),
            VolatileIndex::SharedTree(t) => Ok(t.lock().insert(key, value)?),
        }
    }

    /// Loads `core`'s `pairs` — distinct keys, none yet present — in one
    /// call ([`Index::bulk_load`]); Masstree takes them one at a time.
    pub fn bulk_load(&self, core: usize, pairs: &mut [(u64, u64)]) -> Result<(), StoreError> {
        match self {
            VolatileIndex::PerCoreHash(shards) => Ok(shards[core].lock().bulk_load(pairs)?),
            VolatileIndex::SharedMasstree(t) => {
                for &(key, value) in pairs.iter() {
                    if t.insert(key, value).is_some() {
                        return Err(IndexError::DuplicateKey { key }.into());
                    }
                }
                Ok(())
            }
            VolatileIndex::SharedTree(t) => Ok(t.lock().bulk_load(pairs)?),
        }
    }

    pub fn get(&self, core: usize, key: u64) -> Option<u64> {
        match self {
            VolatileIndex::PerCoreHash(shards) => shards[core].lock().get(key),
            VolatileIndex::SharedMasstree(t) => t.get(key),
            VolatileIndex::SharedTree(t) => t.lock().get(key),
        }
    }

    pub fn remove(&self, core: usize, key: u64) -> Option<u64> {
        match self {
            VolatileIndex::PerCoreHash(shards) => shards[core].lock().remove(key),
            VolatileIndex::SharedMasstree(t) => t.remove(key),
            VolatileIndex::SharedTree(t) => t.lock().remove(key),
        }
    }

    /// The cleaner's pointer CAS (paper §3.4).
    pub fn cas(&self, core: usize, key: u64, old: u64, new: u64) -> bool {
        match self {
            VolatileIndex::PerCoreHash(shards) => shards[core].lock().cas(key, old, new),
            VolatileIndex::SharedMasstree(t) => t.cas(key, old, new),
            VolatileIndex::SharedTree(t) => t.lock().cas(key, old, new),
        }
    }

    /// Ordered scan; `None` for the hash index.
    pub fn range(
        &self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, u64) -> bool,
    ) -> Result<(), StoreError> {
        match self {
            VolatileIndex::PerCoreHash(_) => Err(StoreError::RangeUnsupported),
            VolatileIndex::SharedMasstree(t) => {
                t.range(lo, hi, f);
                Ok(())
            }
            VolatileIndex::SharedTree(t) => {
                t.lock().range(lo, hi, f);
                Ok(())
            }
        }
    }

    /// Total keys across shards.
    pub fn len(&self) -> usize {
        match self {
            VolatileIndex::PerCoreHash(shards) => shards.iter().map(|s| s.lock().len()).sum(),
            VolatileIndex::SharedMasstree(t) => t.len(),
            VolatileIndex::SharedTree(t) => t.lock().len(),
        }
    }

    /// Visits every `(key, value)` pair owned by `core` (snapshot
    /// serialization). For the per-core hash this walks core `core`'s
    /// shard; for shared indexes core 0 walks everything and other cores
    /// contribute nothing.
    pub fn for_each_of_core(&self, core: usize, f: &mut dyn FnMut(u64, u64)) {
        match self {
            VolatileIndex::PerCoreHash(shards) => shards[core].lock().for_each(f),
            VolatileIndex::SharedMasstree(t) => {
                if core == 0 {
                    t.range(0, u64::MAX, &mut |k, v| {
                        f(k, v);
                        true
                    });
                }
            }
            VolatileIndex::SharedTree(t) => {
                if core == 0 {
                    t.lock().for_each(f);
                }
            }
        }
    }
}
