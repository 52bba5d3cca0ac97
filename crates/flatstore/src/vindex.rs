//! The pluggable volatile index (paper §3.1: "FlatStore can use any
//! existing index solutions").

use std::sync::Arc;

use indexes::{Cceh, Index, IndexError, Mode};
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
pub(crate) enum VolatileIndex {
    PerCoreHash(Vec<Mutex<Cceh>>),
    SharedMasstree(Masstree),
}

impl VolatileIndex {
    /// Builds an empty index for `kind` with a DRAM arena of `dram_bytes`
    /// (per core for `Hash`), at the smallest CCEH depth (grown by
    /// splitting).
    pub fn build(kind: IndexKind, ncores: usize, dram_bytes: usize) -> Result<Self, StoreError> {
        let lanes = LaneIndex::new(kind, dram_bytes)?;
        let shards = (0..ncores)
            .map(|_| lanes.lane(0).map(Lane::into_shard))
            .collect::<Result<_, _>>()?;
        Ok(lanes.finish(shards))
    }

    pub fn insert(&self, core: usize, key: u64, value: u64) -> Result<Option<u64>, StoreError> {
        match self {
            VolatileIndex::PerCoreHash(shards) => Ok(shards[core].lock().insert(key, value)?),
            VolatileIndex::SharedMasstree(t) => Ok(t.insert(key, value)),
        }
    }

    /// Loads `core`'s `pairs` — distinct keys, none yet present — in one
    /// call ([`Index::bulk_load`]); Masstree takes them one at a time.
    fn bulk_load(&self, core: usize, pairs: &mut [(u64, u64)]) -> Result<(), StoreError> {
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
        }
    }

    pub fn get(&self, core: usize, key: u64) -> Option<u64> {
        match self {
            VolatileIndex::PerCoreHash(shards) => shards[core].lock().get(key),
            VolatileIndex::SharedMasstree(t) => t.get(key),
        }
    }

    pub fn remove(&self, core: usize, key: u64) -> Option<u64> {
        match self {
            VolatileIndex::PerCoreHash(shards) => shards[core].lock().remove(key),
            VolatileIndex::SharedMasstree(t) => t.remove(key),
        }
    }

    /// The cleaner's pointer CAS (paper §3.4).
    pub fn cas(&self, core: usize, key: u64, old: u64, new: u64) -> bool {
        match self {
            VolatileIndex::PerCoreHash(shards) => shards[core].lock().cas(key, old, new),
            VolatileIndex::SharedMasstree(t) => t.cas(key, old, new),
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
        }
    }

    /// Total keys across shards.
    pub fn len(&self) -> usize {
        match self {
            VolatileIndex::PerCoreHash(shards) => shards.iter().map(|s| s.lock().len()).sum(),
            VolatileIndex::SharedMasstree(t) => t.len(),
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
        }
    }
}

/// The index recovery builds on per-core lanes (DESIGN.md §4). Under
/// FlatStore-H each lane builds its own core's CCEH shard, at the depth
/// where that core's keys bulk-load without a split, and loads it; under
/// FlatStore-M every lane loads the one shared Masstree.
///
/// The arenas are plain DRAM ([`PmRegion::dram_arena`]): committed on
/// first touch and free of the PM bookkeeping a volatile index never
/// reads. `Mode::Volatile` elides every flush.
pub(crate) struct LaneIndex {
    dram_bytes: usize,
    /// The FlatStore-M index; `None` under FlatStore-H.
    shared: Option<VolatileIndex>,
}

/// One lane's part of a [`LaneIndex`].
pub(crate) enum Lane<'a> {
    /// FlatStore-H: the lane's own core's shard.
    Own(Cceh),
    /// FlatStore-M: the index every lane loads.
    Shared(&'a VolatileIndex),
}

impl LaneIndex {
    pub fn new(kind: IndexKind, dram_bytes: usize) -> Result<Self, StoreError> {
        let shared = match kind {
            IndexKind::Hash => None,
            IndexKind::Masstree => Some(VolatileIndex::SharedMasstree(Masstree::new())),
        };
        Ok(LaneIndex { dram_bytes, shared })
    }

    /// A lane about to load `keys` keys: under FlatStore-H a fresh shard
    /// sized for them.
    pub fn lane(&self, keys: usize) -> Result<Lane<'_>, StoreError> {
        if let Some(index) = &self.shared {
            return Ok(Lane::Shared(index));
        }
        let depth = Cceh::depth_for(keys, self.dram_bytes as u64).max(2);
        Ok(Lane::Own(Cceh::new(
            Arc::new(PmRegion::dram_arena(self.dram_bytes)),
            PmAddr(0),
            self.dram_bytes as u64,
            Mode::Volatile,
            depth,
        )?))
    }

    /// The finished index: the shared one, or the lanes' shards in core
    /// order.
    pub fn finish(self, shards: Vec<Option<Cceh>>) -> VolatileIndex {
        match self.shared {
            Some(index) => index,
            None => {
                VolatileIndex::PerCoreHash(shards.into_iter().flatten().map(Mutex::new).collect())
            }
        }
    }
}

impl Lane<'_> {
    /// Loads core `core`'s `pairs` — distinct keys, none yet present.
    pub fn load(&mut self, core: usize, pairs: &mut [(u64, u64)]) -> Result<(), StoreError> {
        match self {
            Lane::Own(shard) => Ok(shard.bulk_load(pairs)?),
            Lane::Shared(index) => index.bulk_load(core, pairs),
        }
    }

    /// The lane's own shard, if it built one.
    pub fn into_shard(self) -> Option<Cceh> {
        match self {
            Lane::Own(shard) => Some(shard),
            Lane::Shared(_) => None,
        }
    }
}
