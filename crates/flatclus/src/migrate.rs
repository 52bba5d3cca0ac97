//! Online shard migration: suffix rounds over the source's logs, a
//! flatrpc ring into the destination, and the gated flip.
//!
//! # Convergence
//!
//! The ring carries the slot's operations in rounds that partition the
//! source's per-core logs by position: bulk `(NULL, T0]` (deduplicated
//! to the newest version per key), delta `(T0, T1]`, final `(T1, T2]`
//! in log order. Per key, the versions the stream carries are therefore
//! non-decreasing, and the single applier applies them in stream order
//! — so the *last* ring apply of any key is its newest logged version.
//! Double-writes may interleave stale ring applies in between, but the
//! final round runs with the slot's write gate held **after** every
//! double-write drained (each double-writer completes its destination
//! apply before releasing the gate), so the final applies land last and
//! the destination converges to exactly the source's slot contents at
//! the flip. The flip happens only after the ring acks the final round,
//! which the applier sends only after the destination engine acked the
//! ops (durably, and replicated inside the destination group).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use flatrpc::{clock, ClientPort, Envelope, Fabric};
use flatstore::{ReplOp, StoreError, StoreHandle};
use pmem::PmAddr;
use workloads::slot_of_key;

use crate::cluster::ClusterShared;
use crate::ring::GroupId;
use crate::stats::ClusterStats;

/// Operations per shipped batch: mirrors `flatrepl`'s catch-up batching
/// (one destination-durable apply per batch, no chunk-overflow risk).
const MIG_BATCH: usize = 64;

/// Outstanding batches the ring may buffer before `ship` blocks —
/// bounds how far the source can run ahead of the destination applier.
const RING_CAPACITY: usize = 16;

/// One migration batch on the inter-group ring: a self-contained run of
/// shipping-ready operations (pointer payloads already resolved), in
/// the order the applier must apply them.
#[derive(Debug, Clone)]
pub struct MigBatch {
    /// The operations (puts and tombstones with source versions).
    pub ops: Vec<ReplOp>,
}

/// The destination's acknowledgment: batch `seq` is durably applied
/// (and replicated, when the destination group has a backup).
#[derive(Debug, Clone, Copy)]
pub struct MigAck {
    /// Whether every operation in the batch applied cleanly.
    pub ok: bool,
}

type MigFabric = Fabric<Envelope<MigBatch>, Envelope<MigAck>>;
type MigPort = ClientPort<Envelope<MigBatch>, Envelope<MigAck>>;

/// What one completed migration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// The migrated slot.
    pub slot: usize,
    /// The source group.
    pub from: GroupId,
    /// The destination (and new owner).
    pub to: GroupId,
    /// Newest-version-per-key snapshot operations the bulk round shipped.
    pub bulk_ops: u64,
    /// Suffix operations the un-paused delta round shipped.
    pub delta_ops: u64,
    /// Suffix operations shipped inside the flip window.
    pub final_ops: u64,
    /// The client-visible flip pause, in nanoseconds.
    pub pause_ns: u64,
    /// The routing epoch after the flip (unchanged for a no-op
    /// migration to the current owner).
    pub epoch: u64,
}

/// The migrator's end of the inter-group ring, plus the destination
/// applier thread feeding the batches into the destination group's
/// ordinary write path.
struct MigRing {
    port: MigPort,
    stop: Arc<AtomicBool>,
    applier: Option<JoinHandle<()>>,
    sent: u64,
    acked: u64,
}

impl MigRing {
    fn start(dst: StoreHandle, stats: Arc<ClusterStats>) -> Result<MigRing, StoreError> {
        let fabric: MigFabric = Fabric::new(1, 1, RING_CAPACITY);
        let port = fabric.client_port(0);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_applier = Arc::clone(&stop);
        let mut cores = fabric.server_cores();
        let mut core = cores.remove(0);
        let applier = std::thread::Builder::new()
            .name("flatclus-mig-apply".into())
            .spawn(move || {
                let mut idle: u32 = 0;
                while !stop_applier.load(Ordering::Acquire) {
                    match core.poll() {
                        Some((client, env)) => {
                            idle = 0;
                            let mut ok = true;
                            for op in &env.body.ops {
                                let applied = match op {
                                    ReplOp::Put { key, value, .. } => dst.put(*key, value),
                                    ReplOp::Delete { key, .. } => dst.delete(*key).map(|_| ()),
                                };
                                if applied.is_err() {
                                    ok = false;
                                    break;
                                }
                            }
                            stats.mig_batches.inc();
                            stats.mig_ops.add(env.body.ops.len() as u64);
                            core.respond(client, Envelope::new(env.seq, MigAck { ok }));
                        }
                        None => {
                            idle = idle.saturating_add(1);
                            if idle < 64 {
                                std::hint::spin_loop();
                            } else if idle < 256 {
                                std::thread::yield_now();
                            } else {
                                std::thread::sleep(std::time::Duration::from_micros(50));
                            }
                        }
                    }
                }
            })
            .map_err(|e| {
                StoreError::InvalidConfig(format!("cannot spawn migration applier: {e}"))
            })?;
        Ok(MigRing {
            port,
            stop,
            applier: Some(applier),
            sent: 0,
            acked: 0,
        })
    }

    fn take_ack(&mut self, env: Envelope<MigAck>) -> Result<(), StoreError> {
        self.acked += 1;
        if env.body.ok {
            Ok(())
        } else {
            Err(StoreError::corrupt(
                "migration batch failed to apply at the destination",
            ))
        }
    }

    /// Ships `ops` in [`MIG_BATCH`] chunks, absorbing acks whenever the
    /// ring is full (back-pressure from the destination applier).
    fn ship(&mut self, ops: &[ReplOp]) -> Result<(), StoreError> {
        for chunk in ops.chunks(MIG_BATCH) {
            let mut env = Envelope::new(
                self.sent + 1,
                MigBatch {
                    ops: chunk.to_vec(),
                },
            );
            loop {
                match self.port.send(0, env) {
                    Ok(()) => break,
                    Err(back) => {
                        env = back;
                        let ack = self.port.recv();
                        self.take_ack(ack)?;
                    }
                }
            }
            self.sent += 1;
        }
        Ok(())
    }

    /// Blocks until every shipped batch is destination-acked.
    fn drain(&mut self) -> Result<(), StoreError> {
        while self.acked < self.sent {
            let ack = self.port.recv();
            self.take_ack(ack)?;
        }
        Ok(())
    }
}

impl Drop for MigRing {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.applier.take() {
            let _ = t.join();
        }
    }
}

impl ClusterShared {
    /// [`Cluster::migrate`](crate::Cluster::migrate)'s implementation.
    pub(crate) fn migrate_slot(
        &self,
        slot: usize,
        to: GroupId,
    ) -> Result<MigrationReport, StoreError> {
        let _serial = self.migration.lock();
        if slot >= self.nslots() {
            return Err(StoreError::InvalidConfig(format!("no slot {slot}")));
        }
        if usize::from(to) >= self.incarnation.len() {
            return Err(StoreError::InvalidConfig(format!("no group {to}")));
        }
        let from = self.table.owner(slot);
        if from == to {
            return Ok(MigrationReport {
                slot,
                from,
                to,
                bulk_ops: 0,
                delta_ops: 0,
                final_ops: 0,
                pause_ns: 0,
                epoch: self.table.epoch(),
            });
        }
        self.stats.migrations_started.inc();
        let started_ns = clock::now_ns();
        // Mark under the gate: no write can straddle the transition into
        // double-writing (anything already past its check completes
        // before we hold the write side; anything after re-reads the
        // mark).
        {
            let _g = self.gates[slot].write();
            self.table.set_migrating(slot, to)?;
        }
        match self.run_rounds(slot, from, to) {
            Ok(report) => {
                self.stats.migrations_completed.inc();
                self.stats
                    .migration_ns
                    .record(clock::now_ns().saturating_sub(started_ns));
                Ok(report)
            }
            Err(e) => {
                // Abort: the source (possibly freshly promoted) keeps the
                // slot; double-writing stops. Ownership never changed, so
                // the epoch stays — stale clients were never created.
                let _g = self.gates[slot].write();
                self.table.clear_migrating(slot);
                self.stats.migrations_aborted.inc();
                Err(e)
            }
        }
    }

    /// Barriers the source and collects the slot's suffix past
    /// `cursors` (`None` = whole chain, deduplicated newest-per-key).
    /// Returns the new per-core cursors and the operations to ship.
    fn collect_round(
        &self,
        slot: usize,
        from: GroupId,
        incarnation: u64,
        cursors: Option<&[PmAddr]>,
    ) -> Result<(Vec<PmAddr>, Vec<ReplOp>), StoreError> {
        let groups = self.groups.read();
        // Same-lock check: a failover bumps the incarnation under the
        // write lock, so under the read lock the engine we see matches
        // the incarnation we check — cursors never cross engines.
        if self.incarnation[usize::from(from)].load(Ordering::Acquire) != incarnation {
            return Err(StoreError::ShuttingDown);
        }
        let engine = groups
            .get(usize::from(from))
            .and_then(|g| g.as_ref())
            .ok_or(StoreError::ShuttingDown)?;
        engine.barrier();
        let ncores = self.cfg.engine.ncores;
        let nslots = self.nslots();
        let mut tails = Vec::with_capacity(ncores);
        let mut ops = Vec::new();
        for core in 0..ncores {
            let from_addr = cursors.map_or(PmAddr::NULL, |c| c[core]);
            let tail = engine.repl_suffix(core, from_addr, |op| {
                let key = match &op {
                    ReplOp::Put { key, .. } | ReplOp::Delete { key, .. } => *key,
                };
                if slot_of_key(key, nslots) == slot {
                    ops.push(op);
                }
            })?;
            tails.push(tail);
        }
        if cursors.is_none() {
            ops = dedupe_newest(ops);
        }
        Ok((tails, ops))
    }

    fn run_rounds(
        &self,
        slot: usize,
        from: GroupId,
        to: GroupId,
    ) -> Result<MigrationReport, StoreError> {
        let incarnation = self.incarnation[usize::from(from)].load(Ordering::Acquire);
        let mut ring = MigRing::start(self.group_handle(to)?, Arc::clone(&self.stats))?;

        // Bulk: the slot's snapshot as of the mark, newest version per
        // key. Shipped outside any lock — writes keep flowing (they
        // double-write, so nothing the bulk misses is lost).
        let (cursors, bulk) = self.collect_round(slot, from, incarnation, None)?;
        let bulk_ops = bulk.len() as u64;
        ring.ship(&bulk)?;

        // Delta: whatever landed in the log while the bulk shipped, in
        // log order — repairs any bulk apply that raced a newer
        // double-write, and shrinks the final (paused) sliver.
        let (cursors, delta) = self.collect_round(slot, from, incarnation, Some(&cursors))?;
        let delta_ops = delta.len() as u64;
        ring.ship(&delta)?;

        // Flip window: exclusive gate drains in-flight double-writes and
        // pauses new slot operations (only this slot's); the last sliver
        // ships, the ring drains, ownership flips.
        let pause_start = clock::now_ns();
        let gate = self.gates[slot].write();
        let (_, final_round) = self.collect_round(slot, from, incarnation, Some(&cursors))?;
        let final_ops = final_round.len() as u64;
        ring.ship(&final_round)?;
        ring.drain()?;
        if self.incarnation[usize::from(from)].load(Ordering::Acquire) != incarnation {
            return Err(StoreError::ShuttingDown);
        }
        let epoch = self.table.flip(slot, to);
        drop(gate);
        let pause_ns = clock::now_ns().saturating_sub(pause_start);
        self.stats.pause_ns.record(pause_ns);

        Ok(MigrationReport {
            slot,
            from,
            to,
            bulk_ops,
            delta_ops,
            final_ops,
            pause_ns,
            epoch,
        })
    }
}

/// Collapses a full-chain walk to the newest version per key. Entries
/// for one key all live in one core's log (keys shard by hash), so the
/// version field orders them ([`oplog::newer`], across wrap-around).
fn dedupe_newest(ops: Vec<ReplOp>) -> Vec<ReplOp> {
    let mut newest: std::collections::HashMap<u64, ReplOp> = std::collections::HashMap::new();
    for op in ops {
        let (key, version) = match &op {
            ReplOp::Put { key, version, .. } | ReplOp::Delete { key, version } => (*key, *version),
        };
        match newest.get(&key) {
            Some(ReplOp::Put { version: v, .. }) | Some(ReplOp::Delete { version: v, .. })
                if !oplog::newer(version, *v) => {}
            _ => {
                newest.insert(key, op);
            }
        }
    }
    newest.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedupe_keeps_newest_version() {
        let ops = vec![
            ReplOp::Put {
                key: 1,
                version: 1,
                value: b"old".to_vec(),
            },
            ReplOp::Put {
                key: 1,
                version: 3,
                value: b"new".to_vec(),
            },
            ReplOp::Delete { key: 2, version: 2 },
            ReplOp::Put {
                key: 2,
                version: 1,
                value: b"stale".to_vec(),
            },
        ];
        let mut out = dedupe_newest(ops);
        out.sort_by_key(|op| match op {
            ReplOp::Put { key, .. } | ReplOp::Delete { key, .. } => *key,
        });
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], ReplOp::Put { version: 3, value, .. } if value == b"new"));
        assert!(matches!(&out[1], ReplOp::Delete { key: 2, version: 2 }));
    }
}
