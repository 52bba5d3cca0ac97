//! The passive replica: an applier thread over a [`flatstore::BackupImage`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use flatrpc::Envelope;
use flatstore::{BackupImage, Config, FlatStore, StoreError};
use pmem::PmRegion;

use crate::{ShipAck, ShipFabric};

/// A running backup: one applier thread draining the shipping fabric into
/// the image's persistent per-core logs.
///
/// Each shipped batch is applied with the primary's own durability
/// protocol (out-of-line records, one fence, one batched log append whose
/// tail persist is the commit point), then the per-core ship cursor is
/// durably advanced, and only then is the ack sent — so an acked batch
/// survives a backup crash, which is exactly what lets the primary release
/// client acknowledgments against the watermark.
pub struct Backup {
    image: Arc<BackupImage>,
    stop: Arc<AtomicBool>,
    applier: Option<JoinHandle<Result<(), StoreError>>>,
}

impl std::fmt::Debug for Backup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backup")
            .field("ncores", &self.image.ncores())
            .finish()
    }
}

impl Backup {
    /// Formats a fresh backup image per `cfg` and starts its applier as
    /// the fabric's single server core, which acks on its own response
    /// rings.
    pub(crate) fn start(cfg: &Config, fabric: &ShipFabric) -> Result<Backup, StoreError> {
        let image = Arc::new(BackupImage::format(cfg)?);
        let stop = Arc::new(AtomicBool::new(false));
        let mut core = fabric.server_cores().remove(0);
        let thread_image = Arc::clone(&image);
        let thread_stop = Arc::clone(&stop);
        let applier = std::thread::Builder::new()
            .name("flatrepl-backup".into())
            .spawn(move || {
                let mut idle = 0u32;
                loop {
                    match core.poll() {
                        Some((client, env)) => {
                            idle = 0;
                            let batch = env.body;
                            // Apply durably, advance the cursor durably,
                            // only then ack. A failed apply (backup pool
                            // exhausted) stops acking: the primary stalls
                            // at the watermark instead of lying to clients.
                            thread_image.apply(batch.core, &batch.ops)?;
                            thread_image.set_ship_cursor(batch.core, batch.tail);
                            core.respond(
                                client,
                                Envelope::new(
                                    env.seq,
                                    ShipAck {
                                        core: batch.core,
                                        seq: batch.seq,
                                    },
                                ),
                            );
                        }
                        None => {
                            if thread_stop.load(Ordering::Acquire) {
                                return Ok(());
                            }
                            idle += 1;
                            if idle < 64 {
                                std::hint::spin_loop();
                            } else if idle < 512 {
                                std::thread::yield_now();
                            } else {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                        }
                    }
                }
            })
            // pmlint: allow(no-unwrap) — thread-spawn failure at startup is
            // unrecoverable; no shipped state exists to strand yet.
            .expect("spawn backup applier");
        Ok(Backup {
            image,
            stop,
            applier: Some(applier),
        })
    }

    /// The replica image (for catch-up and inspection).
    pub fn image(&self) -> &Arc<BackupImage> {
        &self.image
    }

    /// Stops the applier after it drains every batch already shipped, and
    /// returns the image's region.
    ///
    /// # Errors
    ///
    /// Propagates an applier failure (e.g. the backup pool filled up).
    pub fn stop(mut self) -> Result<Arc<PmRegion>, StoreError> {
        self.join()?;
        Ok(self.image.pm())
    }

    /// Promotes this backup to a standalone primary: stops the applier,
    /// then opens the image like any crashed region — the backup never
    /// sets the clean flag, so [`FlatStore::open`] takes the full log-scan
    /// path and rebuilds the index and allocator state from the shipped
    /// logs alone (paper §3.5, path 3).
    ///
    /// Volatile engine state starts fresh: in particular the hot-read
    /// cache (`Config::read_cache_bytes`) comes up empty on the promoted
    /// store, so nothing cached on the failed primary can outlive it —
    /// the first reads warm it from the recovered logs.
    ///
    /// # Errors
    ///
    /// As for [`FlatStore::open`]; applier failures surface first.
    pub fn promote(mut self, cfg: Config) -> Result<FlatStore, StoreError> {
        self.join()?;
        let pm = self.image.pm();
        drop(self);
        FlatStore::open(pm, cfg)
    }

    fn join(&mut self) -> Result<(), StoreError> {
        let Some(handle) = self.applier.take() else {
            return Ok(());
        };
        self.stop.store(true, Ordering::Release);
        handle
            .join()
            // pmlint: allow(no-unwrap) — propagate an applier panic rather
            // than pretend the replica is consistent.
            .expect("backup applier panicked")
    }
}

impl Drop for Backup {
    fn drop(&mut self) {
        let _ = self.join();
    }
}
