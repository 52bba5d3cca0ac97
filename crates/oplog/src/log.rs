//! The per-core operation log: batched, cacheline-padded appends over a
//! chain of 4 MB PM chunks, with log cleaning and crash-recovery scan.

use std::collections::HashMap;
use std::sync::Arc;

use pmalloc::{ChunkManager, CHUNK_SIZE};
use pmem::{PmAddr, PmRegion, CACHELINE};

use crate::entry::{EntryHeader, LogEntry, LogOp, PTR_ENTRY_LEN};
use crate::error::LogError;

/// Byte offset of the first entry in a chunk (the first cacheline holds the
/// chunk header: reserved magic, next pointer, sequence number).
pub const ENTRY_AREA: u64 = 64;

/// Entries never extend past this offset; the reserved tail guarantees room
/// for a 16 B seal marker plus padding.
const ENTRY_END: u64 = CHUNK_SIZE - 64;

const OFF_NEXT: u64 = 8;
const OFF_SEQ: u64 = 16;

const DESC_HEAD: u64 = 0;
const DESC_TAIL: u64 = 8;

/// Liveness accounting for one log chunk, driving victim selection for the
/// cleaner (paper §3.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkUsage {
    /// Entries appended to this chunk (excluding seals/padding).
    pub total: u32,
    /// Entries known stale (superseded or deleted).
    pub dead: u32,
}

impl ChunkUsage {
    /// Entries still referenced.
    pub fn live(&self) -> u32 {
        self.total.saturating_sub(self.dead)
    }

    /// Fraction of entries still live (1.0 for an empty chunk).
    pub fn live_ratio(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.live() as f64 / self.total as f64
        }
    }
}

/// A relocation performed by the cleaner: the entry moved from `old` to
/// `new`; the volatile index must be CAS-updated accordingly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relocation {
    /// Previous entry address.
    pub old: PmAddr,
    /// New entry address.
    pub new: PmAddr,
    /// The relocated entry.
    pub entry: LogEntry,
}

/// A log's persistent chain as [`OpLog::walk_chain`] found it.
struct Chain {
    /// Head first; the tail's chunk is last.
    chunks: Vec<PmAddr>,
    /// The persisted tail.
    tail: PmAddr,
    /// A successor the tail's chunk links to, which holds nothing acked.
    orphan: Option<PmAddr>,
}

/// How [`OpLog::walk_entries`] goes on after one position.
enum Step {
    /// An entry of this many bytes.
    Entry(u64),
    /// Batch padding up to the next cacheline.
    Padding,
    /// A seal or a torn entry: nothing further in this chunk.
    ChunkEnd,
}

/// A per-core compacted operation log (paper §3.2).
///
/// The log is a chain of 4 MB chunks taken whole from the shared
/// [`ChunkManager`]. A tiny persistent descriptor (two 8-byte words: head
/// chunk and tail address) anchors the chain; everything else — the chunk
/// list, the per-chunk liveness table — is volatile and rebuilt by
/// [`recover_headers`](Self::recover_headers).
///
/// ## Append path (paper's three-flush Put, steps 2–3)
///
/// [`append_batch`](Self::append_batch) encodes all entries back to back,
/// **pads the batch to a cacheline boundary** so adjacent batches never share
/// a cacheline (avoiding the repeat-flush stall of §2.3), flushes the batch
/// with one flush per touched cacheline + one fence, then persists the tail
/// pointer (one more flush + fence). Sixteen 16-byte pointer entries thus
/// cost 4 cacheline flushes — one 256 B XPLine — no matter how many requests
/// they represent.
pub struct OpLog {
    pm: Arc<PmRegion>,
    mgr: Arc<ChunkManager>,
    desc: PmAddr,
    /// Chain order, head first. The tail chunk is always last.
    chunks: Vec<PmAddr>,
    tail: PmAddr,
    usage: HashMap<u64, ChunkUsage>,
    seq: u64,
    scratch: Vec<u8>,
    pad_batches: bool,
}

impl std::fmt::Debug for OpLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpLog")
            .field("desc", &self.desc)
            .field("chunks", &self.chunks.len())
            .field("tail", &self.tail)
            .finish()
    }
}

impl OpLog {
    /// Creates a fresh log anchored at descriptor `desc` (64 B-aligned, two
    /// u64 words), allocating its first chunk.
    ///
    /// # Errors
    ///
    /// [`LogError::OutOfSpace`] if no chunk is free.
    ///
    /// # Panics
    ///
    /// Panics if `desc` is not 64 B-aligned.
    pub fn create(mgr: Arc<ChunkManager>, desc: PmAddr) -> Result<OpLog, LogError> {
        assert!(
            desc.is_aligned(CACHELINE),
            "descriptor must own a cacheline"
        );
        let pm = Arc::clone(mgr.pm());
        let first = mgr.take_raw_chunk().ok_or(LogError::OutOfSpace)?;
        pm.write_u64(first + OFF_NEXT, 0);
        pm.write_u64(first + OFF_SEQ, 0);
        pm.persist(first + OFF_NEXT, 16);
        let tail = first + ENTRY_AREA;
        pm.write_u64(desc + DESC_HEAD, first.offset());
        pm.write_u64(desc + DESC_TAIL, tail.offset());
        pm.persist(desc, 16);
        // Durability point: the descriptor now anchors a recoverable chain.
        pm.commit_point();
        let mut usage = HashMap::new();
        usage.insert(first.offset(), ChunkUsage::default());
        Ok(OpLog {
            pm,
            mgr,
            desc,
            chunks: vec![first],
            tail,
            usage,
            seq: 0,
            scratch: Vec::with_capacity(4096),
            pad_batches: true,
        })
    }

    /// Enables or disables cacheline padding between batches. Padding is on
    /// by default (paper §3.2: adjacent batches must not share a cacheline
    /// or the later one hits the repeat-flush stall); turning it off exists
    /// for the ablation benchmarks.
    pub fn set_batch_padding(&mut self, on: bool) {
        self.pad_batches = on;
    }

    /// Rebuilds a log from its persistent descriptor, invoking `f` with the
    /// [`EntryHeader`] and address of every surviving entry (in chain
    /// order) — the recovery scan: one pass, nothing allocated per entry,
    /// every entry's CRC-8 verified. The caller replays the headers into
    /// the volatile index (newest version wins) and finds the per-chunk
    /// entry counts in [`usages`](Self::usages) afterwards.
    ///
    /// With `from = Some(cursor)` (a checkpoint cursor: a tail address
    /// recorded while the log was quiescent) every entry before the cursor
    /// is skipped, and chunks preceding the cursor's chunk are not scanned
    /// at all — the checkpoint's recovery speedup (paper §3.5). Only sound
    /// while the chain has not been re-ordered by the cleaner since the
    /// cursor was taken (the engine invalidates checkpoints before
    /// cleaning).
    ///
    /// An entry failing its CRC-8 (a torn write) is **truncated, not
    /// replayed**: the scan stops there, and if the tear precedes the
    /// persisted tail the tail is pulled back and re-persisted so later
    /// appends overwrite the garbage.
    ///
    /// The walk ends at the chunk holding the persisted tail. If that
    /// chunk still links a successor (a crash inside a chunk rollover), the
    /// link is persisted as null and the successor goes back to the pool,
    /// so the recovered chain — in PM and in [`chunks`](Self::chunks) —
    /// ends at the tail's chunk.
    ///
    /// # Errors
    ///
    /// [`LogError::Corrupt`] on undecodable state, or when `from` is not on
    /// the chain.
    pub fn recover_headers(
        mgr: Arc<ChunkManager>,
        desc: PmAddr,
        from: Option<PmAddr>,
        mut f: impl FnMut(EntryHeader, PmAddr),
    ) -> Result<OpLog, LogError> {
        let pm = Arc::clone(mgr.pm());
        let chain = Self::walk_chain(&pm, desc)?;
        let tail = chain.tail;
        if let Some(orphan) = chain.orphan {
            // A crash between `seal_and_extend`'s link and the tail persist:
            // the successor holds no acked entry (only, perhaps, a previous
            // owner's). Cut it off before anything can follow the link.
            // pmlint: allow(no-unwrap) — walk_chain ends at the tail's chunk.
            let last = *chain.chunks.last().expect("chain is never empty");
            pm.write_u64(last + OFF_NEXT, 0);
            pm.persist(last + OFF_NEXT, 8);
            // Durability point: the chain ends at the tail's chunk again.
            pm.commit_point();
            let _ = mgr.return_raw_chunk(orphan);
        }
        let seq = chain
            .chunks
            .iter()
            .map(|&c| pm.read_u64(c + OFF_SEQ))
            .max()
            .unwrap_or(0);
        let mut counts = vec![0u32; chain.chunks.len()];
        let mut new_tail = tail;
        Self::walk_entries(&chain.chunks, tail, from, |i, pos| {
            match EntryHeader::decode(&pm, pos) {
                Ok(None) => Ok(Step::Padding),
                Ok(Some(h)) if h.op == LogOp::Seal => Ok(Step::ChunkEnd),
                Ok(Some(h)) => {
                    counts[i] += 1;
                    f(h, pos);
                    Ok(Step::Entry(h.encoded_len() as u64))
                }
                Err(LogError::ChecksumMismatch { .. }) => {
                    // Torn write: nothing from here on in this chunk was
                    // ever acknowledged. Truncate instead of replaying; if
                    // the tear precedes the persisted tail, pull the tail
                    // back so later appends overwrite the garbage.
                    if Self::chunk_of(tail) == chain.chunks[i] && pos < tail {
                        new_tail = pos;
                    }
                    Ok(Step::ChunkEnd)
                }
                Err(e) => Err(e),
            }
        })?;
        if new_tail != tail {
            pm.write_u64(desc + DESC_TAIL, new_tail.offset());
            pm.persist(desc + DESC_TAIL, 8);
            // Durability point: the truncated tail is now the log's end.
            pm.commit_point();
        }
        let usage = chain
            .chunks
            .iter()
            .zip(counts)
            .map(|(c, total)| (c.offset(), ChunkUsage { total, dead: 0 }))
            .collect();
        Ok(OpLog {
            pm,
            mgr,
            desc,
            chunks: chain.chunks,
            tail: new_tail,
            usage,
            seq,
            scratch: Vec::with_capacity(4096),
            pad_batches: true,
        })
    }

    /// The one chain walk: follows `OFF_NEXT` from the descriptor's head to
    /// the chunk that holds the persisted tail, and **never past it**.
    /// `seal_and_extend` links and fences a fresh chunk before the tail
    /// moves into it, so after a crash in between the tail's chunk can
    /// point at a successor whose bytes (a recycled chunk's old entries)
    /// were never acked; that successor is returned as `orphan`.
    fn walk_chain(pm: &PmRegion, desc: PmAddr) -> Result<Chain, LogError> {
        let head = PmAddr(pm.read_u64(desc + DESC_HEAD));
        let tail = PmAddr(pm.read_u64(desc + DESC_TAIL));
        let corrupt = LogError::Corrupt {
            addr: desc.offset(),
        };
        if head == PmAddr::NULL {
            return Err(corrupt);
        }
        let tail_chunk = Self::chunk_of(tail);
        // A chain longer than the region has chunks is a cycle.
        let max_chunks = pm.len() as u64 / CHUNK_SIZE;
        let mut chunks = Vec::new();
        let mut cur = head;
        loop {
            chunks.push(cur);
            let next = PmAddr(pm.read_u64(cur + OFF_NEXT));
            if cur == tail_chunk {
                let orphan = (next != PmAddr::NULL).then_some(next);
                return Ok(Chain {
                    chunks,
                    tail,
                    orphan,
                });
            }
            if next == PmAddr::NULL || chunks.len() as u64 > max_chunks {
                return Err(corrupt);
            }
            cur = next;
        }
    }

    /// The one entry walk over `chunks` (chain order): each chunk from its
    /// first entry (or, in the cursor's chunk, from `from`; chunks before
    /// it are skipped) up to a seal, its entry area's end, or `tail` in the
    /// tail's chunk. `visit(i, pos)` handles the entry of `chunks[i]` at
    /// `pos` and says how to go on.
    ///
    /// # Errors
    ///
    /// What `visit` returns, or [`LogError::Corrupt`] when `from` is not
    /// on the chain.
    fn walk_entries(
        chunks: &[PmAddr],
        tail: PmAddr,
        from: Option<PmAddr>,
        mut visit: impl FnMut(usize, PmAddr) -> Result<Step, LogError>,
    ) -> Result<(), LogError> {
        let from_chunk = from.map(Self::chunk_of);
        let mut reached_cursor = from.is_none();
        for (i, &chunk) in chunks.iter().enumerate() {
            let end = if Self::chunk_of(tail) == chunk {
                tail
            } else {
                chunk + ENTRY_END
            };
            let mut pos = chunk + ENTRY_AREA;
            if !reached_cursor {
                if Some(chunk) != from_chunk {
                    continue; // entirely pre-cursor
                }
                // Resume exactly at the cursor.
                // pmlint: allow(no-unwrap) — from_chunk is Some only when
                // `from` is (both derive from the same Option).
                pos = from.expect("cursor present");
                reached_cursor = true;
            }
            while pos < end {
                match visit(i, pos)? {
                    Step::Entry(len) => pos += len,
                    // Padding: skip to the next cacheline.
                    Step::Padding => pos = (pos + 1).align_up(CACHELINE),
                    Step::ChunkEnd => break,
                }
            }
        }
        if !reached_cursor {
            return Err(LogError::Corrupt {
                // pmlint: allow(no-unwrap) — reached_cursor starts false
                // only when `from` is Some (see the initialisation above).
                addr: from.expect("cursor present").offset(),
            });
        }
        Ok(())
    }

    /// The persistent descriptor address.
    pub fn desc(&self) -> PmAddr {
        self.desc
    }

    /// Current tail (next append position).
    pub fn tail(&self) -> PmAddr {
        self.tail
    }

    /// Chunk bases in chain order (head first; the tail chunk is last).
    pub fn chunks(&self) -> &[PmAddr] {
        &self.chunks
    }

    /// The underlying PM region.
    pub fn pm(&self) -> &Arc<PmRegion> {
        &self.pm
    }

    /// Base of the chunk containing `addr`.
    pub fn chunk_of(addr: PmAddr) -> PmAddr {
        addr.align_down(CHUNK_SIZE)
    }

    /// Liveness accounting for every chunk, chain order.
    pub fn usages(&self) -> impl Iterator<Item = (PmAddr, ChunkUsage)> + '_ {
        self.chunks
            .iter()
            .map(move |c| (*c, self.usage.get(&c.offset()).copied().unwrap_or_default()))
    }

    /// Records that the entry at `addr` became stale (superseded by a newer
    /// Put, deleted, or lost a recovery-replay race).
    pub fn note_dead(&mut self, addr: PmAddr) {
        let chunk = Self::chunk_of(addr);
        if let Some(u) = self.usage.get_mut(&chunk.offset()) {
            u.dead = (u.dead + 1).min(u.total);
        }
    }

    /// Appends `entries` as one durable batch; returns each entry's address.
    ///
    /// Costs `ceil(bytes / 64)` cacheline flushes + 1 fence for the entries,
    /// plus 1 flush + 1 fence for the tail pointer — regardless of how many
    /// entries the batch carries. The batch is padded to a cacheline
    /// boundary so the next batch starts on a fresh line.
    ///
    /// # Errors
    ///
    /// [`LogError::BatchTooLarge`] if the encoded batch exceeds a chunk;
    /// [`LogError::OutOfSpace`] if a new chunk was needed and none is free.
    pub fn append_batch(&mut self, entries: &[LogEntry]) -> Result<Vec<PmAddr>, LogError> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        self.scratch.clear();
        let mut offsets = Vec::with_capacity(entries.len());
        for e in entries {
            debug_assert!(e.op != LogOp::Seal, "seal entries are internal");
            offsets.push(self.scratch.len() as u64);
            e.encode_into(&mut self.scratch);
        }
        // Cacheline padding (explicit zeros: recycled chunks hold garbage).
        // With padding disabled (ablation), batches still align to entry
        // boundaries but may share cachelines — and pay the repeat-flush
        // stall the paper's padding avoids.
        if self.pad_batches {
            while !self.scratch.len().is_multiple_of(CACHELINE as usize) {
                self.scratch.push(0);
            }
        }
        let len = self.scratch.len() as u64;
        if len > ENTRY_END - ENTRY_AREA {
            return Err(LogError::BatchTooLarge {
                bytes: len as usize,
            });
        }
        let chunk = Self::chunk_of(self.tail);
        if self.tail - chunk + len > ENTRY_END {
            self.seal_and_extend(chunk)?;
        }

        let base = self.tail;
        self.pm.write(base, &self.scratch);
        self.pm.flush(base, self.scratch.len());
        self.pm.fence();

        self.tail = base + len;
        self.pm.write_u64(self.desc + DESC_TAIL, self.tail.offset());
        self.pm.persist(self.desc + DESC_TAIL, 8);
        // Durability point: entries first, then the tail pointer — the
        // batch is now acknowledged-durable (pmcheck verifies the order).
        self.pm.commit_point();

        let cur = Self::chunk_of(base);
        self.usage.entry(cur.offset()).or_default().total += entries.len() as u32;
        Ok(offsets.into_iter().map(|o| base + o).collect())
    }

    fn seal_and_extend(&mut self, chunk: PmAddr) -> Result<(), LogError> {
        let new = self.mgr.take_raw_chunk().ok_or(LogError::OutOfSpace)?;
        self.seq += 1;
        self.pm.write_u64(new + OFF_NEXT, 0);
        self.pm.write_u64(new + OFF_SEQ, self.seq);
        self.pm.persist(new + OFF_NEXT, 16);
        // Seal marker at the old tail + link to the new chunk; one fence
        // covers both (they are independent writes, and the chain is only
        // followed up to the persisted tail).
        let mut seal = Vec::with_capacity(PTR_ENTRY_LEN);
        LogEntry::seal().encode_into(&mut seal);
        self.pm.write(self.tail, &seal);
        self.pm.flush(self.tail, seal.len());
        self.pm.write_u64(chunk + OFF_NEXT, new.offset());
        self.pm.flush(chunk + OFF_NEXT, 8);
        self.pm.fence();
        self.chunks.push(new);
        self.usage.insert(new.offset(), ChunkUsage::default());
        self.tail = new + ENTRY_AREA;
        Ok(())
    }

    /// Decodes the entry at `addr` (the Get path, via the volatile index).
    ///
    /// # Errors
    ///
    /// [`LogError::Corrupt`] if `addr` does not hold a valid entry.
    pub fn read_entry(&self, addr: PmAddr) -> Result<LogEntry, LogError> {
        match LogEntry::decode(&self.pm, addr)? {
            Some((e, _)) if e.op != LogOp::Seal => Ok(e),
            _ => Err(LogError::Corrupt {
                addr: addr.offset(),
            }),
        }
    }

    /// Decodes only the header of the entry at `addr`, trusting it (no
    /// CRC, no allocation): for addresses taken from the volatile index,
    /// which only references validated entries — e.g. to learn whether a
    /// superseded entry owned an out-of-log block.
    ///
    /// # Errors
    ///
    /// [`LogError::Corrupt`] if `addr` does not hold an entry.
    pub fn read_header(&self, addr: PmAddr) -> Result<EntryHeader, LogError> {
        match EntryHeader::decode_trusted(&self.pm, addr)? {
            Some(h) if h.op != LogOp::Seal => Ok(h),
            _ => Err(LogError::Corrupt {
                addr: addr.offset(),
            }),
        }
    }

    /// Reclaims `victim`: copies the entries whose header `is_live` approves to a fresh
    /// chunk inserted at the chain head, unlinks the victim from the chain,
    /// and returns the relocations. The victim chunk is **not** returned to
    /// the pool — the caller must CAS the volatile index to the new
    /// addresses first and only then call
    /// [`ChunkManager::return_raw_chunk`] (typically after a grace period,
    /// since concurrent readers may still hold pre-CAS entry addresses).
    ///
    /// Crash-safe by ordering: the relocated chunk is fully persisted and
    /// linked before the victim is unlinked, and the victim is unlinked
    /// before its chunk can return to the pool. A crash in between recovers
    /// a superset of live entries; version comparison deduplicates.
    ///
    /// # Errors
    ///
    /// [`LogError::OutOfSpace`] if no relocation chunk is free;
    /// [`LogError::Corrupt`] if `victim` is not a cleanable chunk of this
    /// log.
    pub fn clean_chunk(
        &mut self,
        victim: PmAddr,
        mut is_live: impl FnMut(&EntryHeader, PmAddr) -> bool,
    ) -> Result<Vec<Relocation>, LogError> {
        let idx = self
            .chunks
            .iter()
            .position(|c| *c == victim)
            .ok_or(LogError::Corrupt {
                addr: victim.offset(),
            })?;
        if victim == Self::chunk_of(self.tail) {
            return Err(LogError::Corrupt {
                addr: victim.offset(),
            });
        }

        // Collect live entries: liveness is judged on the header, and only
        // survivors have their value copied out of the victim.
        let mut live = Vec::new();
        let mut pos = victim + ENTRY_AREA;
        let end = PmAddr(victim.offset() + ENTRY_END);
        while pos < end {
            match EntryHeader::decode(&self.pm, pos)? {
                None => pos = (pos + 1).align_up(CACHELINE),
                Some(h) if h.op == LogOp::Seal => break,
                Some(h) => {
                    if is_live(&h, pos) {
                        live.push((h.load(&self.pm, pos), pos));
                    }
                    pos += h.encoded_len() as u64;
                }
            }
        }

        let mut relocations = Vec::with_capacity(live.len());
        let old_head = self.chunks[0];
        if live.is_empty() {
            // Nothing to relocate; just unlink and free.
            self.unlink(idx)?;
            self.pm.commit_point();
            return Ok(relocations);
        }

        let target = self.mgr.take_raw_chunk().ok_or(LogError::OutOfSpace)?;
        self.seq += 1;
        self.pm.write_u64(target + OFF_SEQ, self.seq);

        // Encode all live entries into the target chunk.
        self.scratch.clear();
        for (e, old) in &live {
            relocations.push(Relocation {
                old: *old,
                new: target + ENTRY_AREA + self.scratch.len() as u64,
                entry: e.clone(),
            });
            e.encode_into(&mut self.scratch);
        }
        while !self.scratch.len().is_multiple_of(CACHELINE as usize) {
            self.scratch.push(0);
        }
        // Seal the target right after its content so scans stop there.
        let mut seal = Vec::with_capacity(PTR_ENTRY_LEN);
        LogEntry::seal().encode_into(&mut seal);
        self.scratch.extend_from_slice(&seal);
        self.pm.write(target + ENTRY_AREA, &self.scratch);
        self.pm.flush(target + ENTRY_AREA, self.scratch.len());
        // Link target at the chain head.
        self.pm.write_u64(target + OFF_NEXT, old_head.offset());
        self.pm.flush(target + OFF_NEXT, 8);
        self.pm.fence();
        self.pm.write_u64(self.desc + DESC_HEAD, target.offset());
        self.pm.persist(self.desc + DESC_HEAD, 8);

        self.chunks.insert(0, target);
        self.usage.insert(
            target.offset(),
            ChunkUsage {
                total: live.len() as u32,
                dead: 0,
            },
        );

        // Victim moved one position right after the head insert.
        self.unlink(idx + 1)?;
        // Durability point: relocated entries persisted and linked, victim
        // unlinked — the chain is consistent again.
        self.pm.commit_point();
        Ok(relocations)
    }

    /// Unlinks `self.chunks[idx]` from the persistent chain. The chunk's
    /// memory stays valid until the caller returns it to the pool.
    fn unlink(&mut self, idx: usize) -> Result<(), LogError> {
        let victim = self.chunks[idx];
        let next = self.pm.read_u64(victim + OFF_NEXT);
        if idx == 0 {
            self.pm.write_u64(self.desc + DESC_HEAD, next);
            self.pm.persist(self.desc + DESC_HEAD, 8);
        } else {
            let pred = self.chunks[idx - 1];
            self.pm.write_u64(pred + OFF_NEXT, next);
            self.pm.persist(pred + OFF_NEXT, 8);
        }
        self.chunks.remove(idx);
        self.usage.remove(&victim.offset());
        Ok(())
    }

    /// Read-only scan of a log chain straight from its persistent
    /// descriptor, without constructing an [`OpLog`] (and so without
    /// needing the [`ChunkManager`] that owns the live log). Invokes `f`
    /// for every surviving entry at or after `from` (all entries when
    /// `from` is `None`) and returns the persisted tail.
    ///
    /// Used by replication catch-up to ship a quiescent primary's log
    /// suffix past a backup's persisted watermark; the cursor soundness
    /// caveat of [`recover_headers`](Self::recover_headers) applies.
    /// Unlike recovery, a torn entry here is an error (`ChecksumMismatch`)
    /// rather than a truncation: the caller's log is supposed to be quiet.
    ///
    /// # Errors
    ///
    /// [`LogError::Corrupt`] on undecodable state or when `from` is not on
    /// the chain; [`LogError::ChecksumMismatch`] on a torn entry.
    pub fn scan_descriptor(
        pm: &PmRegion,
        desc: PmAddr,
        from: Option<PmAddr>,
        mut f: impl FnMut(LogEntry, PmAddr),
    ) -> Result<PmAddr, LogError> {
        let chain = Self::walk_chain(pm, desc)?;
        Self::walk_entries(&chain.chunks, chain.tail, from, |_, pos| {
            Self::visit_entry(pm, pos, &mut f)
        })?;
        Ok(chain.tail)
    }

    /// Scans all surviving entries in chain order (used by tests and the
    /// recovery path of the engine).
    ///
    /// # Errors
    ///
    /// [`LogError::Corrupt`] on undecodable state.
    pub fn scan(&self, mut f: impl FnMut(LogEntry, PmAddr)) -> Result<(), LogError> {
        Self::walk_entries(&self.chunks, self.tail, None, |_, pos| {
            Self::visit_entry(&self.pm, pos, &mut f)
        })
    }

    /// Full-decodes the entry at `pos` for [`scan`](Self::scan) and
    /// [`scan_descriptor`](Self::scan_descriptor).
    fn visit_entry(
        pm: &PmRegion,
        pos: PmAddr,
        f: &mut impl FnMut(LogEntry, PmAddr),
    ) -> Result<Step, LogError> {
        Ok(match LogEntry::decode(pm, pos)? {
            None => Step::Padding,
            Some((e, _)) if e.op == LogOp::Seal => Step::ChunkEnd,
            Some((e, len)) => {
                f(e, pos);
                Step::Entry(len as u64)
            }
        })
    }
}
