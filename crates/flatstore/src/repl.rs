//! Primary–backup replication hooks: the shipped-operation wire type, the
//! sink trait the engine calls at batch-persist time, and the passive
//! backup image that applies shipped batches into its own persistent logs.
//!
//! FlatStore's horizontal batching gives replication its unit of shipping
//! for free: the leader that just persisted a group batch ships that whole
//! batch as **one** message, so the per-message network cost is amortized
//! exactly like the per-batch flush cost (Cyclone-style log shipping on
//! top of paper §3.3's batches). The engine acknowledges a client only
//! once its operation is durable locally **and** covered by the backup's
//! acked watermark; the actual transport lives in the `flatrepl` crate.

use std::sync::Arc;

use oplog::{LogEntry, OpLog, INLINE_MAX};
use pmalloc::{ChunkManager, CoreAllocator, CHUNK_SIZE};
use pmem::{PmAddr, PmRegion};

use crate::config::Config;
use crate::error::StoreError;
use crate::superblock::{Superblock, POOL_BASE};
use crate::value::{read_record, record_size, write_record};

/// One replicated operation, self-contained: pointer payloads are resolved
/// to bytes before shipping, so a backup never needs the primary's heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplOp {
    /// A Put of `value` under `key` at `version`.
    Put {
        /// The key.
        key: u64,
        /// The version the primary assigned.
        version: u32,
        /// The full value bytes.
        value: Vec<u8>,
    },
    /// A tombstone for `key` at `version`.
    Delete {
        /// The key.
        key: u64,
        /// The version the primary assigned.
        version: u32,
    },
}

impl ReplOp {
    /// Builds the shipped form of a just-persisted log entry, resolving a
    /// pointer payload through `pm`. Seal entries are internal and never
    /// reach replication.
    pub(crate) fn from_entry(pm: &PmRegion, e: &LogEntry) -> ReplOp {
        match e.op {
            oplog::LogOp::Delete => ReplOp::Delete {
                key: e.key,
                version: e.version,
            },
            _ => ReplOp::Put {
                key: e.key,
                version: e.version,
                value: match &e.payload {
                    oplog::Payload::Inline(v) => v.clone(),
                    oplog::Payload::Ptr(b) => read_record(pm, *b),
                    oplog::Payload::None => Vec::new(),
                },
            },
        }
    }
}

/// Where a primary ships its persisted batches. Implemented by
/// `flatrepl::Replicator`; the engine only sees this trait so the
/// dependency points from the transport to the engine, not back.
///
/// Shipping is pipelined: [`ship`](Self::ship) enqueues and returns a
/// per-core sequence number immediately; the engine withholds the client
/// acknowledgment of each operation until [`acked`](Self::acked) reaches
/// that number (the backup has durably applied the batch).
pub trait ReplicationSink: Send + Sync {
    /// Ships one persisted batch from `core`. `tail` is the primary's log
    /// tail after the append — the backup persists it as its catch-up
    /// cursor. Returns the batch's per-core ship sequence number (1-based,
    /// monotonic per core).
    fn ship(&self, core: usize, ops: Vec<ReplOp>, tail: PmAddr) -> u64;

    /// Highest ship sequence number of `core` the backup has durably
    /// applied and acknowledged.
    fn acked(&self, core: usize) -> u64;
}

/// One core's persistent state on a backup image.
struct BackupCore {
    log: OpLog,
    alloc: CoreAllocator,
}

/// A passive replica image: the same persistent layout as a primary
/// (superblock, chunk pool, per-core compacted logs), but with no worker
/// threads and no volatile index — shipped batches are appended straight
/// into the per-core logs. Promotion is just [`FlatStore::open`] on the
/// image's region: the clean flag is never set, so opening takes the
/// full log-scan crash path and rebuilds the index and allocator bitmaps
/// from the logs (paper §3.5, path 3).
///
/// [`FlatStore::open`]: crate::FlatStore::open
pub struct BackupImage {
    pm: Arc<PmRegion>,
    cores: Vec<parking_lot::Mutex<BackupCore>>,
}

impl std::fmt::Debug for BackupImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackupImage")
            .field("ncores", &self.cores.len())
            .finish()
    }
}

impl BackupImage {
    /// Formats a fresh backup region mirroring a primary built from `cfg`
    /// (same core count, same chunk pool geometry).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] on inconsistent settings;
    /// [`StoreError::OutOfSpace`] if the region cannot hold the per-core
    /// logs.
    pub fn format(cfg: &Config) -> Result<BackupImage, StoreError> {
        cfg.validate()?;
        let pm = if let Some(seed) = cfg.strict_fence_seed {
            Arc::new(PmRegion::with_strict_fences(cfg.pm_bytes, seed))
        } else if cfg.crash_tracking {
            Arc::new(PmRegion::with_crash_tracking(cfg.pm_bytes))
        } else {
            Arc::new(PmRegion::new(cfg.pm_bytes))
        };
        let nchunks = ((cfg.pm_bytes as u64 - POOL_BASE) / CHUNK_SIZE) as u32;
        // Deliberately never marked clean: a promoted backup must take the
        // full-scan recovery path, because only its logs are trustworthy
        // (the lazy-persist bitmaps were never maintained here).
        Superblock::new(&pm).format(cfg.ncores, nchunks);
        let mgr = Arc::new(ChunkManager::format(
            Arc::clone(&pm),
            PmAddr(POOL_BASE),
            nchunks,
        ));
        let mut cores = Vec::with_capacity(cfg.ncores);
        for core in 0..cfg.ncores {
            let log = OpLog::create(Arc::clone(&mgr), Superblock::log_desc(core))?;
            let alloc = CoreAllocator::new(Arc::clone(&mgr), core as u32);
            cores.push(parking_lot::Mutex::new(BackupCore { log, alloc }));
        }
        Ok(BackupImage { pm, cores })
    }

    /// Number of per-core logs.
    pub fn ncores(&self) -> usize {
        self.cores.len()
    }

    /// The backup's PM region (promote by passing it to
    /// [`FlatStore::open`](crate::FlatStore::open)).
    pub fn pm(&self) -> Arc<PmRegion> {
        Arc::clone(&self.pm)
    }

    /// Appends one shipped batch into `core`'s log, mirroring the
    /// primary's append path: out-of-line records first (one fence covers
    /// them all), then the compacted entries as one batched append whose
    /// tail persist is the batch's durability point.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfSpace`] if the backup pool is exhausted.
    pub fn apply(&self, core: usize, ops: &[ReplOp]) -> Result<(), StoreError> {
        let mut guard = self.cores[core].lock();
        let mut entries = Vec::with_capacity(ops.len());
        let mut fence_needed = false;
        for op in ops {
            match op {
                ReplOp::Put {
                    key,
                    version,
                    value,
                } if value.len() <= INLINE_MAX => {
                    entries.push(LogEntry::put_inline(*key, *version, value.clone())?);
                }
                ReplOp::Put {
                    key,
                    version,
                    value,
                } => {
                    let block = guard.alloc.alloc(record_size(value.len()))?;
                    write_record(&self.pm, block, value);
                    fence_needed = true;
                    entries.push(LogEntry::put_ptr(*key, *version, block));
                }
                ReplOp::Delete { key, version } => {
                    entries.push(LogEntry::tombstone(*key, *version));
                }
            }
        }
        if fence_needed {
            self.pm.fence();
        }
        // append_batch flushes, fences, persists the tail and declares the
        // commit point — the backup's durability point for this batch.
        guard.log.append_batch(&entries)?;
        Ok(())
    }

    /// Durably records that everything before the primary's log `tail` on
    /// `core` has been applied here. A rejoining primary reads this
    /// cursor to ship only the suffix past it.
    pub fn set_ship_cursor(&self, core: usize, tail: PmAddr) {
        let cursor = Superblock::ship_cursor(core);
        self.pm.write_u64(cursor, tail.offset());
        self.pm.persist(cursor, 8);
        // Durability point: the batch this cursor covers was already
        // committed by `apply`, so advancing the cursor is safe.
        self.pm.commit_point();
    }

    /// The persisted ship cursor of `core` ([`PmAddr::NULL`] before the
    /// first batch lands).
    pub fn ship_cursor(&self, core: usize) -> PmAddr {
        PmAddr(self.pm.read_u64(Superblock::ship_cursor(core)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatStore;

    fn cfg() -> Config {
        // pmlint: allow(no-unwrap) — test-only configuration.
        Config::builder()
            .pm_bytes(64 << 20)
            .ncores(2)
            .group_size(2)
            .build()
            .expect("valid config")
    }

    #[test]
    fn backup_image_applies_and_promotes() {
        let backup = BackupImage::format(&cfg()).expect("format backup");
        assert_eq!(backup.ncores(), 2);
        let core = crate::core_of(7, 2);
        backup
            .apply(
                core,
                &[
                    ReplOp::Put {
                        key: 7,
                        version: 1,
                        value: b"small".to_vec(),
                    },
                    ReplOp::Put {
                        key: 9,
                        version: 1,
                        value: vec![0xCD; 4000], // out-of-line record
                    },
                ],
            )
            .expect("apply batch");
        backup
            .apply(core, &[ReplOp::Delete { key: 9, version: 2 }])
            .expect("apply delete");
        let tail = PmAddr(0x40_0040);
        backup.set_ship_cursor(core, tail);
        assert_eq!(backup.ship_cursor(core), tail);
        assert_eq!(backup.ship_cursor(1 - core), PmAddr::NULL);

        // Promotion: opening the image takes the full-scan crash path and
        // rebuilds the store from the shipped log alone.
        let pm = backup.pm();
        drop(backup);
        let store = FlatStore::open(pm, cfg()).expect("promote backup");
        assert_eq!(store.get(7).expect("get"), Some(b"small".to_vec()));
        assert_eq!(store.get(9).expect("get"), None);
        store.shutdown().expect("shutdown");
    }

    #[test]
    fn repl_op_resolves_pointer_payloads() {
        let pm = PmRegion::new(1 << 20);
        write_record(&pm, PmAddr(4096), b"resolved");
        pm.fence();
        let e = LogEntry::put_ptr(42, 3, PmAddr(4096));
        assert_eq!(
            ReplOp::from_entry(&pm, &e),
            ReplOp::Put {
                key: 42,
                version: 3,
                value: b"resolved".to_vec(),
            }
        );
        let d = LogEntry::tombstone(42, 4);
        assert_eq!(
            ReplOp::from_entry(&pm, &d),
            ReplOp::Delete {
                key: 42,
                version: 4
            }
        );
    }
}
