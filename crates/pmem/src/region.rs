//! The simulated persistent-memory region.

#![expect(
    unsafe_code,
    reason = "the simulated PM is one raw 64 B-aligned allocation, read and written by offset after a bounds check"
)]

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::addr::{PmAddr, CACHELINE};
use crate::stats::PmStats;
use crate::trace::PmEvent;

/// A zeroed, 64 B-aligned, manually managed byte buffer.
struct RawBuf {
    /// First usable byte (64 B-aligned).
    ptr: *mut u8,
    /// What the allocator returned (`ptr` or up to 63 bytes before it).
    base: *mut u8,
    layout: Layout,
}

impl RawBuf {
    /// Every page committed up front: `alloc_zeroed` at 64 B alignment is
    /// `posix_memalign` + `memset`.
    fn new(len: usize) -> Self {
        assert!(len > 0, "PM region must be non-empty");
        #[expect(
            clippy::expect_used,
            reason = "len > 0 asserted above and 64 is a valid power-of-two alignment, so the layout is always constructible"
        )]
        let layout = Layout::from_size_align(len, CACHELINE as usize).expect("layout");
        // SAFETY: layout has non-zero size.
        let base = unsafe { alloc_zeroed(layout) };
        assert!(!base.is_null(), "PM region allocation failed");
        RawBuf {
            ptr: base,
            base,
            layout,
        }
    }

    /// Pages committed on first touch: at an alignment the platform
    /// allocator guarantees anyway (≤ 16), `alloc_zeroed` is `calloc`,
    /// which hands out untouched zero pages for large sizes. The buffer
    /// is over-allocated by one cacheline and its start rounded up to
    /// 64 B by hand.
    fn lazy(len: usize) -> Self {
        assert!(len > 0, "DRAM arena must be non-empty");
        let slack = CACHELINE as usize;
        #[expect(
            clippy::expect_used,
            reason = "non-zero size, power-of-two alignment; only a length within 64 B of `isize::MAX` could fail"
        )]
        let layout = Layout::from_size_align(len + slack, 16).expect("layout");
        // SAFETY: layout has non-zero size.
        let base = unsafe { alloc_zeroed(layout) };
        assert!(!base.is_null(), "DRAM arena allocation failed");
        let pad = base.align_offset(slack);
        assert!(pad < slack, "cannot align the arena to a cacheline");
        // SAFETY: pad < 64 and the allocation is len + 64 bytes, so
        // `base + pad .. base + pad + len` lies inside it.
        let ptr = unsafe { base.add(pad) };
        RawBuf { ptr, base, layout }
    }
}

impl Drop for RawBuf {
    fn drop(&mut self) {
        // SAFETY: `base` was allocated with this exact layout.
        unsafe { dealloc(self.base, self.layout) }
    }
}

// SAFETY: access discipline is enforced by callers (each byte range is owned
// by a single writer at a time); see the `PmRegion` docs.
unsafe impl Send for RawBuf {}
// SAFETY: same caller-enforced single-writer-per-range discipline as `Send`.
unsafe impl Sync for RawBuf {}

/// A simulated persistent-memory device.
///
/// The region models the two-level persistence hierarchy of real PM:
///
/// * **Live buffer** — what loads observe; plays the role of "CPU cache
///   merged with media". All [`write`](Self::write)s go here immediately.
/// * **Shadow buffer** (only with [`with_crash_tracking`](Self::with_crash_tracking)) —
///   what has actually reached the persistence domain. A cacheline is copied
///   to the shadow only when it is [`flush`](Self::flush)ed.
///   [`simulate_crash`](Self::simulate_crash) replaces the live contents with
///   the shadow, losing every un-flushed write — the failure mode a
///   PM data structure must survive.
///
/// # Concurrency discipline
///
/// `PmRegion` is `Send + Sync` and all methods take `&self`, mirroring raw
/// memory. Like raw memory, it does **not** serialize concurrent writers:
/// callers must ensure that a given byte range has at most one writer at a
/// time (FlatStore partitions PM per server core, so this holds by
/// construction). Concurrent reads of ranges being written may observe torn
/// data, exactly as on hardware; PM data structures are designed to tolerate
/// or exclude that.
///
/// # Addresses
///
/// All addresses are byte offsets ([`PmAddr`]) so that pointers stored inside
/// the region remain valid across "reboots" (re-instantiations from the same
/// backing state).
pub struct PmRegion {
    buf: RawBuf,
    shadow: Option<RawBuf>,
    /// One bit per cacheline: written since last flush (empty for a
    /// [`dram_arena`](Self::dram_arena)).
    dirty: Vec<AtomicU64>,
    /// A plain-DRAM arena: no dirty bits, no counters, no trace, and
    /// flush/fence are no-ops.
    dram: bool,
    /// Strict-fence mode: lines flushed but not yet fenced, with the line
    /// contents captured at flush time. On a crash each survives only with
    /// probability ½ (seeded) — `clwb` alone does not order persistence.
    strict: Option<Mutex<StrictFence>>,
    len: usize,
    stats: PmStats,
    trace_on: AtomicBool,
    trace: Mutex<Vec<PmEvent>>,
    commit_epoch: AtomicU64,
}

struct StrictFence {
    pending: Vec<(u64, [u8; CACHELINE as usize])>,
    rng: u64,
}

impl std::fmt::Debug for PmRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmRegion")
            .field("len", &self.len)
            .field("crash_tracking", &self.shadow.is_some())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl PmRegion {
    /// Creates a region of `len` bytes without crash tracking (half the
    /// memory cost; `simulate_crash` is unavailable).
    ///
    /// Every page of the region (and of the crash shadow, where there is
    /// one) is committed here, on purpose: with the pool committed on
    /// first touch instead, the page faults land on whichever Put first
    /// reaches a page, and `perfmap`'s `crash_recover` `lat_p99_us` rose
    /// from 46 to 64–82 µs (EXPERIMENTS.md, "tried, no resolvable gain").
    /// Only [`dram_arena`](Self::dram_arena) commits lazily.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or not a multiple of the cacheline size (64).
    pub fn new(len: usize) -> Self {
        Self::build(len, false, false)
    }

    /// Creates a region of `len` bytes with a shadow copy tracking flushed
    /// state, enabling [`simulate_crash`](Self::simulate_crash).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or not a multiple of the cacheline size (64).
    pub fn with_crash_tracking(len: usize) -> Self {
        Self::build(len, true, false)
    }

    /// Like [`with_crash_tracking`](Self::with_crash_tracking), but with
    /// **strict fence semantics**: a flushed cacheline only becomes part of
    /// the persisted state at the next [`fence`](Self::fence); on a crash,
    /// flushed-but-unfenced lines survive with probability ½ (deterministic
    /// per `seed`). Use this to catch code that flushes without fencing.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or not a multiple of the cacheline size (64).
    pub fn with_strict_fences(len: usize, seed: u64) -> Self {
        let mut r = Self::build(len, true, false);
        r.strict = Some(Mutex::new(StrictFence {
            pending: Vec::new(),
            rng: seed | 1,
        }));
        r
    }

    /// Creates `len` bytes of plain **DRAM** for a volatile index (the
    /// engine's per-core CCEH / FAST&FAIR arenas) — not a PM device:
    ///
    /// * zeroed like every region, but pages are committed on first touch,
    ///   so an arena sized for the worst case costs only what the index
    ///   actually uses;
    /// * [`write`](Self::write), [`fill`](Self::fill) and
    ///   [`read`](Self::read) are a bounds check and a copy — no dirty
    ///   bits, no [`PmStats`] counters, no trace events (nothing ever reads
    ///   them for DRAM);
    /// * [`flush`](Self::flush) and [`fence`](Self::fence) do nothing and
    ///   [`is_dirty`](Self::is_dirty) is always `false`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or not a multiple of the cacheline size (64).
    pub fn dram_arena(len: usize) -> Self {
        Self::build(len, false, true)
    }

    fn build(len: usize, crash: bool, dram: bool) -> Self {
        assert!(len > 0, "PM region must be non-empty");
        assert_eq!(
            len as u64 % CACHELINE,
            0,
            "PM region length must be a multiple of the 64 B cacheline"
        );
        let alloc = if dram { RawBuf::lazy } else { RawBuf::new };
        let lines = len as u64 / CACHELINE;
        let words = if dram { 0 } else { lines.div_ceil(64) as usize };
        let mut dirty = Vec::with_capacity(words);
        dirty.resize_with(words, || AtomicU64::new(0));
        PmRegion {
            buf: alloc(len),
            shadow: crash.then(|| alloc(len)),
            dirty,
            dram,
            strict: None,
            len,
            stats: PmStats::new(),
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
            commit_epoch: AtomicU64::new(0),
        }
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`; regions are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether this region was built with crash tracking.
    pub fn crash_tracking(&self) -> bool {
        self.shadow.is_some()
    }

    /// Persistence-operation counters for this region.
    pub fn stats(&self) -> &PmStats {
        &self.stats
    }

    #[inline]
    fn check(&self, addr: PmAddr, len: usize) {
        #[expect(
            clippy::expect_used,
            reason = "deliberate loud death: an offset overflow is a caller bug the bounds assert below cannot name"
        )]
        let end = addr
            .offset()
            .checked_add(len as u64)
            .expect("PM address overflow");
        assert!(
            end <= self.len as u64,
            "PM access out of bounds: {addr} + {len} > {}",
            self.len
        );
    }

    #[inline]
    fn mark_dirty(&self, addr: PmAddr, len: usize) {
        if len == 0 {
            return;
        }
        let first = addr.cacheline();
        let last = (addr + (len as u64 - 1)).cacheline();
        for line in first..=last {
            let word = (line / 64) as usize;
            let bit = line % 64;
            self.dirty[word].fetch_or(1 << bit, Ordering::Relaxed);
        }
    }

    #[inline]
    fn trace_event(&self, ev: PmEvent) {
        if self.trace_on.load(Ordering::Relaxed) {
            self.trace.lock().push(ev);
        }
    }

    /// Stores `src` at `addr`. The data is volatile until flushed and fenced.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    #[inline]
    pub fn write(&self, addr: PmAddr, src: &[u8]) {
        self.check(addr, src.len());
        // SAFETY: bounds checked; caller upholds the single-writer discipline.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.buf.ptr.add(addr.offset() as usize),
                src.len(),
            );
        }
        self.note_write(addr, src.len());
    }

    /// Dirty bits, counters and trace for a store of `len` bytes at `addr`
    /// (none of them kept for a DRAM arena).
    #[inline]
    fn note_write(&self, addr: PmAddr, len: usize) {
        if self.dram {
            return;
        }
        self.mark_dirty(addr, len);
        self.stats.record_write(len as u64);
        self.trace_event(PmEvent::Write {
            addr: addr.offset(),
            len: len as u32,
        });
    }

    /// Stores a little-endian `u64` at `addr` (need not be aligned).
    pub fn write_u64(&self, addr: PmAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Stores a single byte at `addr`.
    pub fn write_u8(&self, addr: PmAddr, v: u8) {
        self.write(addr, &[v]);
    }

    /// Fills `len` bytes at `addr` with `byte`.
    pub fn fill(&self, addr: PmAddr, len: usize, byte: u8) {
        self.check(addr, len);
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::write_bytes(self.buf.ptr.add(addr.offset() as usize), byte, len);
        }
        self.note_write(addr, len);
    }

    /// Loads `dst.len()` bytes from `addr` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    #[inline]
    pub fn read(&self, addr: PmAddr, dst: &mut [u8]) {
        self.check(addr, dst.len());
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.buf.ptr.add(addr.offset() as usize),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
        if self.dram {
            return;
        }
        self.stats.record_read(dst.len() as u64);
        self.trace_event(PmEvent::Read {
            addr: addr.offset(),
            len: dst.len() as u32,
        });
    }

    /// Loads a little-endian `u64` from `addr`.
    pub fn read_u64(&self, addr: PmAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Loads a single byte from `addr`.
    pub fn read_u8(&self, addr: PmAddr) -> u8 {
        let mut b = [0u8; 1];
        self.read(addr, &mut b);
        b[0]
    }

    /// Loads `len` bytes from `addr` into a fresh `Vec`.
    pub fn read_vec(&self, addr: PmAddr, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v);
        v
    }

    /// Flushes every cacheline overlapping `[addr, addr+len)` (`clwb`).
    ///
    /// With crash tracking, the flushed lines become part of the persisted
    /// (shadow) state. Flushing a clean line is counted as a *redundant
    /// flush* in [`PmStats`].
    pub fn flush(&self, addr: PmAddr, len: usize) {
        if len == 0 || self.dram {
            return;
        }
        self.check(addr, len);
        let first = addr.cacheline();
        let last = (addr + (len as u64 - 1)).cacheline();
        for line in first..=last {
            self.flush_line(line);
        }
    }

    fn flush_line(&self, line: u64) {
        let word = (line / 64) as usize;
        let bit = 1u64 << (line % 64);
        let prev = self.dirty[word].fetch_and(!bit, Ordering::Relaxed);
        let was_dirty = prev & bit != 0;
        self.stats.record_flush(!was_dirty);
        if let Some(strict) = &self.strict {
            // Capture the line now; it reaches the shadow at the fence.
            let mut buf = [0u8; CACHELINE as usize];
            let off = (line * CACHELINE) as usize;
            // SAFETY: line is in bounds (derived from a checked range).
            unsafe {
                std::ptr::copy_nonoverlapping(self.buf.ptr.add(off), buf.as_mut_ptr(), buf.len());
            }
            strict.lock().pending.push((line, buf));
        } else if let Some(shadow) = &self.shadow {
            let off = (line * CACHELINE) as usize;
            // SAFETY: line is in bounds (derived from a checked range).
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.buf.ptr.add(off),
                    shadow.ptr.add(off),
                    CACHELINE as usize,
                );
            }
        }
        self.trace_event(PmEvent::Flush { line });
    }

    fn commit_pending(&self, pending: &mut Vec<(u64, [u8; CACHELINE as usize])>) {
        let Some(shadow) = &self.shadow else { return };
        for (line, bytes) in pending.drain(..) {
            let off = (line * CACHELINE) as usize;
            // SAFETY: captured from a bounds-checked line.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), shadow.ptr.add(off), bytes.len());
            }
        }
    }

    /// Issues an ordering fence (`sfence`). In strict-fence mode this is
    /// the moment flushed lines join the persisted state.
    pub fn fence(&self) {
        if self.dram {
            return;
        }
        if let Some(strict) = &self.strict {
            self.commit_pending(&mut strict.lock().pending);
        }
        self.stats.record_fence();
        self.trace_event(PmEvent::Fence);
    }

    /// Convenience: `flush(addr, len)` followed by `fence()`.
    pub fn persist(&self, addr: PmAddr, len: usize) {
        self.flush(addr, len);
        self.fence();
    }

    /// Marks a **durability commit point**: the caller asserts that every
    /// store it issued so far has been flushed and fenced. The operation
    /// log places one after persisting its tail pointer, and the engine
    /// after publishing a clean-shutdown superblock.
    ///
    /// With tracing enabled this emits [`PmEvent::CommitPoint`] carrying a
    /// monotonically increasing epoch, which `pmcheck` replays to verify
    /// the claim. Without tracing the call is a no-op, so production hot
    /// paths pay nothing.
    pub fn commit_point(&self) {
        if self.trace_on.load(Ordering::Relaxed) {
            let epoch = self.commit_epoch.fetch_add(1, Ordering::Relaxed) + 1;
            self.trace.lock().push(PmEvent::CommitPoint { epoch });
        }
    }

    /// Is the cacheline containing `addr` dirty (written but not flushed)?
    pub fn is_dirty(&self, addr: PmAddr) -> bool {
        self.check(addr, 1);
        let line = addr.cacheline();
        let word = (line / 64) as usize;
        !self.dram && self.dirty[word].load(Ordering::Relaxed) & (1 << (line % 64)) != 0
    }

    /// Simulates a power failure: every write that was not flushed is lost,
    /// and the region's contents revert to the last flushed state.
    ///
    /// The caller must ensure no other thread is accessing the region (a
    /// crashed machine has no running threads).
    ///
    /// # Panics
    ///
    /// Panics if the region was not created with
    /// [`with_crash_tracking`](Self::with_crash_tracking).
    pub fn simulate_crash(&self) {
        #[expect(
            clippy::expect_used,
            reason = "documented panic contract of this test-oriented API (see the doc comment above)"
        )]
        let shadow = self
            .shadow
            .as_ref()
            .expect("simulate_crash requires a region built with_crash_tracking");
        if let Some(strict) = &self.strict {
            // Flushed-but-unfenced lines race the power failure: each one
            // survives with probability ½ (seeded xorshift).
            let mut st = strict.lock();
            let pending = std::mem::take(&mut st.pending);
            let mut state = st.rng;
            let mut keep = Vec::new();
            for (line, bytes) in pending {
                // splitmix64: well-mixed low bits even for tiny seeds.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                if z & 1 == 1 {
                    keep.push((line, bytes));
                }
            }
            st.rng = state;
            drop(st);
            self.commit_pending(&mut keep);
        }
        // SAFETY: both buffers are `len` bytes; quiescence is a documented
        // caller obligation.
        unsafe {
            std::ptr::copy_nonoverlapping(shadow.ptr, self.buf.ptr, self.len);
        }
        for w in &self.dirty {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Writes the **persisted** state (what a crash would preserve) to a
    /// file, making the simulated PM durable across processes.
    ///
    /// Regions without crash tracking save their live contents (everything
    /// is considered persisted).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let src = self.shadow.as_ref().unwrap_or(&self.buf);
        // SAFETY: the buffer is `len` initialized bytes.
        let bytes = unsafe { std::slice::from_raw_parts(src.ptr, self.len) };
        let mut f = std::fs::File::create(path)?;
        f.write_all(&(self.len as u64).to_le_bytes())?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    /// Loads a region previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; rejects truncated or oversized images.
    pub fn load(path: &std::path::Path, crash_tracking: bool) -> std::io::Result<PmRegion> {
        use std::io::Read;
        let mut f = std::fs::File::open(path)?;
        let mut hdr = [0u8; 8];
        f.read_exact(&mut hdr)?;
        let len = u64::from_le_bytes(hdr) as usize;
        if len == 0 || !len.is_multiple_of(CACHELINE as usize) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "bad PM image length",
            ));
        }
        let region = if crash_tracking {
            PmRegion::with_crash_tracking(len)
        } else {
            PmRegion::new(len)
        };
        // SAFETY: freshly allocated `len`-byte buffer.
        let live = unsafe { std::slice::from_raw_parts_mut(region.buf.ptr, len) };
        f.read_exact(live)?;
        if let Some(shadow) = &region.shadow {
            // The loaded contents are the persisted state.
            // SAFETY: same length allocation.
            unsafe { std::ptr::copy_nonoverlapping(region.buf.ptr, shadow.ptr, len) };
        }
        Ok(region)
    }

    /// Enables or disables event tracing (see [`PmEvent`]).
    pub fn set_trace(&self, on: bool) {
        self.trace_on.store(on, Ordering::Relaxed);
    }

    /// Drains and returns the events recorded since the last call.
    pub fn take_events(&self) -> Vec<PmEvent> {
        std::mem::take(&mut *self.trace.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::XPLINE;

    #[test]
    fn write_read_round_trip() {
        let pm = PmRegion::new(4096);
        pm.write(PmAddr(100), b"flatstore");
        let mut buf = [0u8; 9];
        pm.read(PmAddr(100), &mut buf);
        assert_eq!(&buf, b"flatstore");
        assert_eq!(pm.read_u8(PmAddr(100)), b'f');
    }

    #[test]
    fn u64_round_trip_unaligned() {
        let pm = PmRegion::new(4096);
        pm.write_u64(PmAddr(13), 0xdead_beef_cafe_f00d);
        assert_eq!(pm.read_u64(PmAddr(13)), 0xdead_beef_cafe_f00d);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let pm = PmRegion::new(128);
        pm.write(PmAddr(120), &[0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "multiple of the 64")]
    fn unaligned_len_panics() {
        let _ = PmRegion::new(100);
    }

    #[test]
    fn crash_loses_unflushed_data() {
        let pm = PmRegion::with_crash_tracking(4096);
        pm.write(PmAddr(0), b"persisted");
        pm.persist(PmAddr(0), 9);
        pm.write(PmAddr(64), b"volatile!");
        pm.simulate_crash();
        assert_eq!(pm.read_vec(PmAddr(0), 9), b"persisted");
        assert_eq!(pm.read_vec(PmAddr(64), 9), vec![0u8; 9]);
    }

    #[test]
    fn crash_is_cacheline_granular() {
        let pm = PmRegion::with_crash_tracking(4096);
        // Two values on the same cacheline: flushing one persists both
        // (cacheline granularity), exactly like hardware.
        pm.write(PmAddr(0), b"aaaa");
        pm.write(PmAddr(32), b"bbbb");
        pm.persist(PmAddr(0), 4);
        pm.simulate_crash();
        assert_eq!(pm.read_vec(PmAddr(32), 4), b"bbbb");
    }

    #[test]
    fn flush_clears_dirty_and_counts_redundant() {
        let pm = PmRegion::new(4096);
        pm.write(PmAddr(0), &[1u8; 64]);
        assert!(pm.is_dirty(PmAddr(0)));
        pm.flush(PmAddr(0), 64);
        assert!(!pm.is_dirty(PmAddr(0)));
        let before = pm.stats().snapshot();
        pm.flush(PmAddr(0), 64); // redundant
        let d = pm.stats().snapshot().delta(&before);
        assert_eq!(d.flushes, 1);
        assert_eq!(d.redundant_flushes, 1);
    }

    #[test]
    fn flush_spans_cachelines() {
        let pm = PmRegion::new(4096);
        pm.write(PmAddr(60), &[7u8; 8]); // straddles lines 0 and 1
        let before = pm.stats().snapshot();
        pm.flush(PmAddr(60), 8);
        let d = pm.stats().snapshot().delta(&before);
        assert_eq!(d.flushes, 2);
        assert_eq!(d.redundant_flushes, 0);
    }

    #[test]
    fn trace_records_events_in_order() {
        let pm = PmRegion::new(4096);
        pm.set_trace(true);
        pm.write(PmAddr(XPLINE), &[1u8; 16]);
        pm.persist(PmAddr(XPLINE), 16);
        let ev = pm.take_events();
        assert_eq!(
            ev,
            vec![
                PmEvent::Write { addr: 256, len: 16 },
                PmEvent::Flush { line: 4 },
                PmEvent::Fence,
            ]
        );
        assert!(pm.take_events().is_empty());
        pm.set_trace(false);
        pm.write(PmAddr(0), &[0u8; 1]);
        assert!(pm.take_events().is_empty());
    }

    #[test]
    fn commit_points_trace_with_increasing_epochs() {
        let pm = PmRegion::new(4096);
        pm.commit_point(); // tracing off: no event, no epoch consumed
        pm.set_trace(true);
        pm.write(PmAddr(0), b"x");
        pm.persist(PmAddr(0), 1);
        pm.commit_point();
        pm.commit_point();
        let ev = pm.take_events();
        assert_eq!(
            ev,
            vec![
                PmEvent::Write { addr: 0, len: 1 },
                PmEvent::Flush { line: 0 },
                PmEvent::Fence,
                PmEvent::CommitPoint { epoch: 1 },
                PmEvent::CommitPoint { epoch: 2 },
            ]
        );
    }

    #[test]
    fn fill_marks_dirty() {
        let pm = PmRegion::with_crash_tracking(4096);
        pm.fill(PmAddr(128), 64, 0xAB);
        assert!(pm.is_dirty(PmAddr(128)));
        pm.persist(PmAddr(128), 64);
        pm.simulate_crash();
        assert_eq!(pm.read_vec(PmAddr(128), 64), vec![0xAB; 64]);
    }

    #[test]
    fn strict_fences_gate_persistence() {
        let pm = PmRegion::with_strict_fences(4096, 7);
        pm.write(PmAddr(0), b"fenced!!");
        pm.flush(PmAddr(0), 8);
        pm.fence();
        // Flushed but never fenced: only probabilistically durable.
        pm.write(PmAddr(1024), b"unfenced");
        pm.flush(PmAddr(1024), 8);
        pm.simulate_crash();
        assert_eq!(pm.read_vec(PmAddr(0), 8), b"fenced!!");
        let survived = pm.read_vec(PmAddr(1024), 8);
        assert!(
            survived == b"unfenced".to_vec() || survived == vec![0u8; 8],
            "unfenced line must be all-or-nothing"
        );
    }

    #[test]
    fn strict_fences_eventually_drop_an_unfenced_line() {
        // Across seeds, at least one crash must lose an unfenced line —
        // proving the mode actually injects the failure.
        let mut dropped = false;
        for seed in 0..16u64 {
            let pm = PmRegion::with_strict_fences(4096, seed);
            pm.write(PmAddr(0), b"x");
            pm.flush(PmAddr(0), 1);
            pm.simulate_crash();
            if pm.read_u8(PmAddr(0)) == 0 {
                dropped = true;
            }
        }
        assert!(dropped, "no seed ever dropped an unfenced flush");
    }

    #[test]
    fn save_and_load_preserve_persisted_state_only() {
        let dir = std::env::temp_dir().join(format!("pmem-save-{}", std::process::id()));
        let pm = PmRegion::with_crash_tracking(4096);
        pm.write(PmAddr(0), b"durable");
        pm.persist(PmAddr(0), 7);
        pm.write(PmAddr(64), b"volatile");
        pm.save(&dir).unwrap();

        let back = PmRegion::load(&dir, true).unwrap();
        assert_eq!(back.len(), 4096);
        assert_eq!(back.read_vec(PmAddr(0), 7), b"durable");
        // The unflushed write never reached the persisted state.
        assert_eq!(back.read_vec(PmAddr(64), 8), vec![0u8; 8]);
        // Crash tracking works on the loaded region too.
        back.write(PmAddr(128), b"new");
        back.simulate_crash();
        assert_eq!(back.read_vec(PmAddr(128), 3), vec![0u8; 3]);
        assert_eq!(back.read_vec(PmAddr(0), 7), b"durable");
        std::fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn load_rejects_garbage_images() {
        let dir = std::env::temp_dir().join(format!("pmem-bad-{}", std::process::id()));
        std::fs::write(&dir, [9u8; 8]).unwrap(); // absurd length header
        assert!(PmRegion::load(&dir, false).is_err());
        std::fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn dram_arena_is_zeroed_aligned_and_counts_nothing() {
        let len = 8 << 20;
        let dram = PmRegion::dram_arena(len);
        assert_eq!(dram.len(), len);
        assert_eq!(dram.buf.ptr as usize % CACHELINE as usize, 0);
        // Zeroed end to end (first, last and a stride through the middle).
        for off in (0..len as u64).step_by(4096 - 8).chain([len as u64 - 8]) {
            assert_eq!(dram.read_u64(PmAddr(off)), 0, "offset {off}");
        }
        // Plain memory semantics…
        dram.write(PmAddr(100), b"volatile");
        dram.fill(PmAddr(len as u64 - 64), 64, 0xFF);
        assert_eq!(dram.read_vec(PmAddr(100), 8), b"volatile");
        assert_eq!(dram.read_u64(PmAddr(len as u64 - 8)), u64::MAX);
        // …with none of the PM bookkeeping: no dirty bits, no counters, no
        // trace, and flush/fence are accepted and ignored.
        dram.set_trace(true);
        dram.write_u64(PmAddr(0), 7);
        assert!(!dram.is_dirty(PmAddr(0)));
        dram.persist(PmAddr(0), 8);
        assert_eq!(dram.stats().snapshot(), PmStats::new().snapshot());
        assert!(dram.take_events().is_empty());
        assert!(!dram.crash_tracking());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dram_arena_still_bounds_checks() {
        let dram = PmRegion::dram_arena(128);
        dram.write(PmAddr(120), &[0u8; 16]);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        use std::sync::Arc;
        let pm = Arc::new(PmRegion::new(64 * 1024));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pm = Arc::clone(&pm);
            handles.push(std::thread::spawn(move || {
                let base = PmAddr(t * 16 * 1024);
                for i in 0..100u64 {
                    pm.write_u64(base + i * 8, t * 1000 + i);
                }
                pm.persist(base, 800);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            let base = PmAddr(t * 16 * 1024);
            for i in 0..100u64 {
                assert_eq!(pm.read_u64(base + i * 8), t * 1000 + i);
            }
        }
    }
}
