//! The replicated pair: a primary engine gated on a backup's watermark,
//! plus failover and catch-up.

use std::sync::Arc;

use flatstore::{BackupImage, Config, FlatStore, StoreError, StoreHandle};
use pmem::PmRegion;

use crate::backup::Backup;
use crate::replicator::{ReplStats, Replicator};
use crate::ShipFabric;

/// Batches a catch-up re-ship applies at a time: mirrors the fast path
/// (one durable append per batch) without building one giant batch that
/// would overflow a log chunk.
const CATCH_UP_BATCH: usize = 64;

/// A primary [`FlatStore`] paired with one passive [`Backup`] over an
/// in-process shipping fabric. Every operation acknowledged through this
/// handle is durable on **both** nodes (see the crate docs).
pub struct ReplicatedStore {
    // Field order is drop order: the primary drains first (its shards spin
    // until the watermark covers their in-flight batches), and only then
    // may the backup's applier stop.
    primary: FlatStore,
    replicator: Arc<Replicator>,
    backup: Backup,
}

impl std::fmt::Debug for ReplicatedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedStore")
            .field("primary", &self.primary)
            .field("backup", &self.backup)
            .finish()
    }
}

impl ReplicatedStore {
    /// Creates a fresh primary and a fresh backup from the same `cfg`.
    ///
    /// # Errors
    ///
    /// As for [`FlatStore::create`].
    pub fn create(cfg: Config) -> Result<ReplicatedStore, StoreError> {
        Self::create_with(cfg.clone(), cfg)
    }

    /// Creates a fresh primary from `primary_cfg` and a fresh backup from
    /// `backup_cfg` (they may differ in fault-injection settings — e.g.
    /// distinct strict-fence seeds — but must agree on `ncores`).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] if the core counts differ; otherwise
    /// as for [`FlatStore::create`].
    pub fn create_with(
        primary_cfg: Config,
        backup_cfg: Config,
    ) -> Result<ReplicatedStore, StoreError> {
        if primary_cfg.ncores != backup_cfg.ncores {
            return Err(StoreError::InvalidConfig(
                "primary and backup must agree on ncores".into(),
            ));
        }
        // One server core (the backup applier, which acks on its own
        // response rings), one client port per primary core. Capacity bounds
        // replication lag: a core more than `capacity` batches ahead of the
        // backup blocks in ship().
        let fabric: ShipFabric = ShipFabric::new(1, primary_cfg.ncores, 64);
        let backup = Backup::start(&backup_cfg, &fabric)?;
        let ports = (0..primary_cfg.ncores)
            .map(|i| fabric.client_port(i))
            .collect();
        let replicator = Arc::new(Replicator::new(ports));
        let primary =
            FlatStore::create_with_replication(primary_cfg, Arc::clone(&replicator) as _)?;
        Ok(ReplicatedStore {
            primary,
            replicator,
            backup,
        })
    }

    /// The primary engine (sessions, stats, log suffixes for [`catch_up`]…).
    pub fn primary(&self) -> &FlatStore {
        &self.primary
    }

    /// A clonable client handle onto the primary.
    pub fn handle(&self) -> StoreHandle {
        self.primary.handle()
    }

    /// The backup's replica image.
    pub fn backup_image(&self) -> &Arc<BackupImage> {
        self.backup.image()
    }

    /// Replication counters.
    pub fn repl_stats(&self) -> &ReplStats {
        self.replicator.stats()
    }

    /// Stores `value` under `key`; acked only once durable on both nodes.
    ///
    /// # Errors
    ///
    /// As for [`FlatStore::put`].
    pub fn put(&self, key: u64, value: impl AsRef<[u8]>) -> Result<(), StoreError> {
        self.primary.put(key, value)
    }

    /// Reads `key` (served by the primary).
    ///
    /// # Errors
    ///
    /// As for [`FlatStore::get`].
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.primary.get(key)
    }

    /// Deletes `key`; acked only once durable on both nodes.
    ///
    /// # Errors
    ///
    /// As for [`FlatStore::delete`].
    pub fn delete(&self, key: u64) -> Result<bool, StoreError> {
        self.primary.delete(key)
    }

    /// Quiesces the primary (every acked op is then also backup-durable).
    pub fn barrier(&self) {
        self.primary.barrier();
    }

    /// The primary's full stats report with a `replication` section added.
    pub fn stats_report(&self) -> obs::StatsReport {
        let mut r = self.primary.stats_report();
        self.replicator.stats().fill_report(&mut r);
        r
    }

    /// Clean shutdown of both nodes: the primary drains first (so the
    /// watermark covers everything acked), then the backup applier stops
    /// after the ring is empty. Returns `(primary_pm, backup_pm)`.
    ///
    /// # Errors
    ///
    /// As for [`FlatStore::shutdown`]; backup applier failures surface
    /// after the primary's region is already safe.
    pub fn shutdown(self) -> Result<(Arc<PmRegion>, Arc<PmRegion>), StoreError> {
        let primary_pm = self.primary.shutdown()?;
        let backup_pm = self.backup.stop()?;
        Ok((primary_pm, backup_pm))
    }

    /// Fails the primary abruptly (no clean-shutdown snapshot; combine
    /// with [`PmRegion::simulate_crash`] to also drop its unflushed
    /// lines) and hands the surviving [`Backup`] to the caller for
    /// [`promote`](Backup::promote). Returns the dead primary's region
    /// for post-mortem inspection or a later rejoin via [`catch_up`].
    pub fn fail_primary(self) -> (Arc<PmRegion>, Backup) {
        let ReplicatedStore {
            primary, backup, ..
        } = self;
        (primary.kill(), backup)
    }
}

/// Re-ships the suffix of a quiescent `primary`'s logs that `image`'s
/// persisted ship cursors have not covered, durably applying it and
/// advancing the cursors — a stale or freshly formatted replica converges
/// without a full data copy (a fresh image's NULL cursor degenerates to a
/// full ship). Returns the number of operations shipped.
///
/// The caller must hold the primary quiescent ([`FlatStore::barrier`] is
/// called here, but clients must stay paused) and must not race the live
/// applier for the same image — in a [`ReplicatedStore`], stop shipping
/// first. Cursors are only valid while the primary's cleaner has not
/// reordered its chain (disable GC for the rejoin window, or treat a
/// `Corrupt` error as "full re-sync required").
///
/// # Errors
///
/// As for [`FlatStore::log_suffix`] and [`BackupImage::apply`].
pub fn catch_up(
    primary: &FlatStore,
    image: &BackupImage,
    stats: &ReplStats,
) -> Result<u64, StoreError> {
    primary.barrier();
    let mut total = 0u64;
    for core in 0..image.ncores() {
        let cursor = image.ship_cursor(core);
        let mut ops = Vec::new();
        let tail = primary.repl_suffix(core, cursor, |op| ops.push(op))?;
        total += ops.len() as u64;
        for chunk in ops.chunks(CATCH_UP_BATCH) {
            image.apply(core, chunk)?;
            stats.catch_up_batches.inc();
            stats.catch_up_entries.add(chunk.len() as u64);
        }
        if tail != cursor {
            image.set_ship_cursor(core, tail);
        }
    }
    Ok(total)
}
