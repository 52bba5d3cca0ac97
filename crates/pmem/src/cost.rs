//! Discrete-event cost model of an Optane-like persistent-memory device.
//!
//! The model reproduces the four empirical behaviours of Intel Optane DCPMM
//! that the FlatStore paper's design responds to (paper §2.3, Figure 1):
//!
//! 1. **Coarse internal write granularity.** Media writes happen in 256 B
//!    XPLine blocks; flushing a single dirty cacheline still occupies the
//!    media for a full block. A small write-combining buffer
//!    ([`CostParams::xpbuffer_blocks`]) merges flushes that hit a block which
//!    is still buffered — this is why batching 16 compacted log entries into
//!    one block costs the same as persisting a single entry.
//! 2. **Non-scalable write bandwidth.** All media writes serialize through a
//!    single bandwidth server (`media_free_at`), so adding threads stops
//!    helping once the device saturates.
//! 3. **Sequential ≈ random under high concurrency.** A sequential stream
//!    gets a cheaper per-block service time, but the device only tracks a
//!    limited number of open streams ([`CostParams::seq_streams`]); with more
//!    concurrent writers the sequential bonus disappears, matching Fig. 1(b).
//! 4. **Repeated flushes to the same cacheline stall (~800 ns).** A flush
//!    that hits a cacheline flushed within the last
//!    [`CostParams::repeat_window_ns`] is delayed by
//!    [`CostParams::repeat_flush_stall_ns`], matching the "In-place" bar of
//!    Fig. 1(c). FlatStore's batch padding exists to avoid exactly this.
//!
//! The model is deliberately simple and fully deterministic: the `simkv`
//! discrete-event simulator feeds it the flush/read events that the *real*
//! data-structure code emitted and advances per-core virtual clocks with the
//! completion times it returns.

use std::collections::HashMap;

/// Calibration constants for the device model, in nanoseconds.
///
/// Defaults approximate the 4-DIMM Optane DCPMM platform of the paper; see
/// `EXPERIMENTS.md` for the calibration rationale. All fields are public so
/// experiments can explore other device points.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// CPU-side cost of issuing one `clwb` (the instruction itself).
    pub flush_issue_ns: f64,
    /// Issue→durability latency for a flush whose block is part of a
    /// detected sequential stream (the write lands in an open buffer row).
    pub flush_latency_seq_ns: f64,
    /// Issue→durability latency for a random-block flush.
    pub flush_latency_rnd_ns: f64,
    /// Media service time per 256 B block for a sequential-successor write.
    pub media_seq_ns: f64,
    /// Media service time per 256 B block for a random write.
    pub media_rnd_ns: f64,
    /// Write-combining buffer capacity in 256 B blocks. Flushes to a block
    /// still in the buffer merge for free.
    pub xpbuffer_blocks: usize,
    /// How many concurrent sequential streams the device can track before
    /// sequential writes degrade to random service time.
    pub seq_streams: usize,
    /// Extra stall when a cacheline is flushed again within
    /// [`repeat_window_ns`](Self::repeat_window_ns).
    pub repeat_flush_stall_ns: f64,
    /// Window for the repeat-flush stall.
    pub repeat_window_ns: f64,
    /// Latency of a load served from PM media.
    pub read_latency_ns: f64,
    /// Additional per-byte read cost (bandwidth term).
    pub read_ns_per_byte: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            flush_issue_ns: 25.0,
            flush_latency_seq_ns: 40.0,
            flush_latency_rnd_ns: 150.0,
            media_seq_ns: 15.0,
            media_rnd_ns: 30.0,
            xpbuffer_blocks: 64,
            seq_streams: 20,
            repeat_flush_stall_ns: 800.0,
            repeat_window_ns: 900.0,
            read_latency_ns: 170.0,
            read_ns_per_byte: 0.05,
        }
    }
}

/// Packs a block's durability time and its sequential-stream flag into the
/// LRU's `u64` value slot (the low bit of the f64 mantissa is noise).
#[inline]
fn pack_block(done: f64, seq: bool) -> u64 {
    (done.to_bits() & !1) | seq as u64
}

#[inline]
fn unpack_block(v: u64) -> (f64, bool) {
    (f64::from_bits(v & !1), v & 1 == 1)
}

/// A tiny LRU set keyed by `u64`, sized for double-digit capacities.
///
/// Eviction scans all entries; capacities in this model are ≤ a few hundred,
/// so the scan is cheaper than a linked structure.
#[derive(Debug)]
struct LruMap {
    cap: usize,
    tick: u64,
    /// key -> (value, last-use tick)
    map: HashMap<u64, (u64, u64)>,
}

impl LruMap {
    fn new(cap: usize) -> Self {
        LruMap {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::with_capacity(cap + 1),
        }
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.1 = tick;
            e.0
        })
    }

    fn insert(&mut self, key: u64, value: u64) {
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        if self.map.len() > self.cap {
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, (_, t))| *t) {
                self.map.remove(&victim);
            }
        }
    }
}

/// Aggregate device activity, for utilization reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// 256 B media block writes actually performed.
    pub media_writes: u64,
    /// Flushes merged into a still-buffered block (no media cost).
    pub merged_flushes: u64,
    /// Flushes that hit the repeat-flush stall.
    pub repeat_stalls: u64,
    /// Total media busy time in ns.
    pub media_busy_ns: f64,
}

impl DeviceStats {
    /// Appends these counters as rows of `section` (the shared
    /// [`obs::StatsReport`] vocabulary every layer reports in).
    pub fn fill_section(&self, section: &mut obs::Section) {
        section
            .row("media_writes", self.media_writes)
            .row("merged_flushes", self.merged_flushes)
            .row("repeat_stalls", self.repeat_stalls)
            .row("media_busy_ns", self.media_busy_ns);
    }
}

/// The shared device: a bandwidth server plus write-combining and
/// stream-tracking state.
///
/// One `Device` instance represents the whole PM subsystem and is shared by
/// every simulated core; its single `media_free_at` horizon is what makes
/// write bandwidth non-scalable.
///
/// # Example
///
/// ```
/// use pmem::cost::{CostParams, Device};
/// let mut dev = Device::new(CostParams::default());
/// // Four flushes to the same 256 B block: only the first pays for media.
/// let t0 = dev.flush(0.0, 0, 0);
/// let t1 = dev.flush(t0, 0, 1);
/// assert!(t1 - t0 < t0, "merged flush is cheaper than the first");
/// assert_eq!(dev.stats().media_writes, 1);
/// assert_eq!(dev.stats().merged_flushes, 1);
/// ```
#[derive(Debug)]
pub struct Device {
    params: CostParams,
    /// Outstanding media work (ns) not yet drained at `media_last_ns`.
    media_backlog_ns: f64,
    /// Latest time the backlog was drained to.
    media_last_ns: f64,
    xpbuffer: LruMap,
    stream_last_block: LruMap,
    line_last_flush: HashMap<u64, f64>,
    stats: DeviceStats,
}

impl Device {
    /// Creates a device with the given calibration.
    pub fn new(params: CostParams) -> Self {
        let xp = params.xpbuffer_blocks;
        let streams = params.seq_streams;
        Device {
            params,
            media_backlog_ns: 0.0,
            media_last_ns: 0.0,
            xpbuffer: LruMap::new(xp),
            stream_last_block: LruMap::new(streams),
            line_last_flush: HashMap::new(),
            stats: DeviceStats::default(),
        }
    }

    /// The calibration constants in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Activity counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Charges a flush of cacheline `line` issued by `stream` (a core id) at
    /// time `now`; returns the time at which the flushed data is durable.
    ///
    /// The issuing core does not block for this duration — it blocks at its
    /// next fence, for the max of its outstanding completions (see
    /// `simkv`).
    pub fn flush(&mut self, now: f64, stream: u64, line: u64) -> f64 {
        let block = line / 4; // 4 × 64 B cachelines per 256 B XPLine

        // Repeat-flush stall (Fig. 1c "In-place").
        let mut extra = 0.0;
        if let Some(&last) = self.line_last_flush.get(&line) {
            if now - last < self.params.repeat_window_ns {
                extra = self.params.repeat_flush_stall_ns;
                self.stats.repeat_stalls += 1;
            }
        }

        let completion = if let Some(v) = self.xpbuffer.get(block) {
            // Merged into the still-buffered block: no media work, but
            // durability cannot precede the block's media write.
            let (block_done, seq) = unpack_block(v);
            let lat = if seq {
                self.params.flush_latency_seq_ns
            } else {
                self.params.flush_latency_rnd_ns
            };
            self.stats.merged_flushes += 1;
            (now + lat).max(block_done) + extra
        } else {
            let seq = self.stream_last_block.get(stream) == Some(block.wrapping_sub(1));
            self.stream_last_block.insert(stream, block);
            let (service, lat) = if seq {
                (self.params.media_seq_ns, self.params.flush_latency_seq_ns)
            } else {
                (self.params.media_rnd_ns, self.params.flush_latency_rnd_ns)
            };
            // Leaky-bucket media queue: the backlog drains at media rate
            // as (virtual) time advances and every block write adds its
            // service time. Anchoring the delay to the caller's own clock
            // keeps the model causal for slightly out-of-order simulated
            // cores while still saturating at the media rate.
            let elapsed = (now - self.media_last_ns).max(0.0);
            self.media_last_ns = self.media_last_ns.max(now);
            self.media_backlog_ns = (self.media_backlog_ns - elapsed).max(0.0) + service;
            self.stats.media_writes += 1;
            self.stats.media_busy_ns += service;
            let done = now + self.media_backlog_ns + lat + extra;
            self.xpbuffer.insert(block, pack_block(done, seq));
            done
        };

        self.line_last_flush.insert(line, completion);
        if self.line_last_flush.len() > 1 << 16 {
            let horizon = now - self.params.repeat_window_ns;
            self.line_last_flush.retain(|_, t| *t >= horizon);
        }
        completion
    }

    /// Charges a PM load of `len` bytes at time `now`; returns its
    /// completion time. Reads do not occupy the write-bandwidth server
    /// (Optane read bandwidth is several times its write bandwidth).
    pub fn read(&mut self, now: f64, len: u32) -> f64 {
        now + self.params.read_latency_ns + self.params.read_ns_per_byte * len as f64
    }

    /// Fraction of wall time `[0, now]` the media spent writing.
    pub fn utilization(&self, now: f64) -> f64 {
        if now <= 0.0 {
            0.0
        } else {
            (self.stats.media_busy_ns / now).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(CostParams::default())
    }

    #[test]
    fn flushes_within_one_block_merge() {
        let mut d = dev();
        let mut now = 0.0;
        for line in 0..4 {
            now = d.flush(now, 0, line);
        }
        assert_eq!(d.stats().media_writes, 1);
        assert_eq!(d.stats().merged_flushes, 3);
    }

    #[test]
    fn random_blocks_each_pay_media() {
        let mut d = dev();
        let mut now = 0.0;
        for i in 0..8 {
            now = d.flush(now, 0, i * 4_000 + 17);
        }
        assert_eq!(d.stats().media_writes, 8);
        assert_eq!(d.stats().merged_flushes, 0);
    }

    #[test]
    fn sequential_stream_is_faster_than_random() {
        let p = CostParams::default();
        // Sequential: blocks 0,1,2,... (lines 0,4,8,...)
        let mut ds = dev();
        let mut t_seq = 0.0;
        for b in 0..100u64 {
            t_seq = ds.flush(t_seq, 0, b * 4);
        }
        // Random: far-apart blocks.
        let mut dr = dev();
        let mut t_rnd = 0.0;
        for b in 0..100u64 {
            t_rnd = dr.flush(t_rnd, 0, (b * 7919 % 100_000) * 4);
        }
        assert!(t_seq < t_rnd, "seq {t_seq} !< rnd {t_rnd}");
        // The per-block gap approaches the service-time difference.
        assert!(t_rnd - t_seq > 50.0 * (p.media_rnd_ns - p.media_seq_ns));
    }

    #[test]
    fn many_streams_lose_the_sequential_bonus() {
        // One stream sequential: cheap. 64 interleaved sequential streams
        // with a 20-entry tracker: each stream's context is evicted between
        // its accesses, so writes are serviced as random.
        let mut d1 = dev();
        let mut t = 0.0;
        for b in 1..=200u64 {
            t = d1.flush(t, 0, b * 4);
        }
        let one_stream_media = d1.stats().media_busy_ns;

        let mut dn = dev();
        let mut t = 0.0;
        let streams = 64u64;
        for round in 1..=(200 / streams + 1) {
            for s in 0..streams {
                // Stream s writes its own sequential region, interleaved.
                let block = s * 1_000_000 + round;
                t = dn.flush(t, s, block * 4);
            }
        }
        let per_block_1 = one_stream_media / d1.stats().media_writes as f64;
        let per_block_n = dn.stats().media_busy_ns / dn.stats().media_writes as f64;
        assert!(per_block_1 < per_block_n);
        assert!((per_block_1 - CostParams::default().media_seq_ns).abs() < 1.0);
        assert!((per_block_n - CostParams::default().media_rnd_ns).abs() < 1.0);
    }

    #[test]
    fn repeat_flush_same_line_stalls() {
        let mut d = dev();
        let t1 = d.flush(0.0, 0, 42);
        let t2 = d.flush(t1, 0, 42);
        assert!(
            t2 - t1 >= CostParams::default().repeat_flush_stall_ns,
            "repeat flush not stalled: {} -> {}",
            t1,
            t2
        );
        assert_eq!(d.stats().repeat_stalls, 1);
        // After the window passes, no stall.
        let later = t2 + CostParams::default().repeat_window_ns + 1.0;
        let t3 = d.flush(later, 0, 42);
        assert!(t3 - later < CostParams::default().repeat_flush_stall_ns);
    }

    #[test]
    fn media_bandwidth_serializes_concurrent_flushes() {
        let mut d = dev();
        // Two cores issue at the same instant to different blocks: the second
        // completion is pushed back by the first's service time.
        let a = d.flush(0.0, 0, 0);
        let b = d.flush(0.0, 1, 4_000);
        assert!(b > a);
        let gap = b - a;
        assert!((gap - CostParams::default().media_rnd_ns).abs() < 1.0);
    }

    #[test]
    fn reads_scale_with_length() {
        let mut d = dev();
        let small = d.read(0.0, 64);
        let large = d.read(0.0, 4096);
        assert!(large > small);
        assert!(small >= CostParams::default().read_latency_ns);
    }

    #[test]
    fn utilization_bounded() {
        let mut d = dev();
        let mut t = 0.0;
        for i in 0..1000 {
            t = d.flush(t, 0, i * 8);
        }
        let u = d.utilization(t);
        assert!(u > 0.0 && u <= 1.0);
    }
}

#[cfg(test)]
mod probe_debug {
    use super::*;

    #[test]
    fn four_interleaved_seq_streams_get_seq_service() {
        let mut d = Device::new(CostParams::default());
        let mut clocks = [0.0f64; 4];
        for op in 0..50u64 {
            for s in 0..4u64 {
                let base_line = s * 100_000 + op * 4;
                let mut t = clocks[s as usize];
                let mut done = t;
                for l in 0..4 {
                    t += d.params().flush_issue_ns;
                    done = done.max(d.flush(t, s, base_line + l));
                }
                clocks[s as usize] = t.max(done);
            }
        }
        let per_block = d.stats().media_busy_ns / d.stats().media_writes as f64;
        assert!(
            (per_block - CostParams::default().media_seq_ns).abs() < 2.0,
            "expected seq service, got {per_block} ns/block"
        );
    }
}
