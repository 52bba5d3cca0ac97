//! Persistence-operation counters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per [`PmStats`]: enough that the engine's cores, its clients
/// and recovery's lanes rarely share one.
const STRIPES: usize = 8;

/// Hands each thread its stripe index, round robin.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index, picked on its first counted operation.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// One stripe of counters, alone on its pair of cachelines (adjacent-line
/// prefetch pulls lines in 128 B pairs).
#[derive(Default)]
#[repr(align(128))]
struct Stripe {
    writes: AtomicU64,
    bytes_written: AtomicU64,
    reads: AtomicU64,
    bytes_read: AtomicU64,
    flushes: AtomicU64,
    redundant_flushes: AtomicU64,
    fences: AtomicU64,
}

/// Counters of every persistence-relevant operation performed on a
/// [`PmRegion`](crate::PmRegion).
///
/// The FlatStore paper's central argument is about the *count* of flushes a
/// KV store issues per operation; these counters let tests assert that, e.g.,
/// a batched append of 16 log entries flushes 4 cachelines and not 16.
///
/// The counters are striped: each thread bumps the stripe it picked on its
/// first counted operation, each stripe sits on a 128 B line pair of its
/// own, and every read sums the stripes. Threads that count at once — the
/// engine's cores, recovery's scan lanes — so never bounce one cacheline
/// between them, and every count stays exact. All counters are
/// monotonically increasing and safe to read concurrently: a snapshot never
/// exceeds one taken after it.
///
/// # Example
///
/// ```
/// use pmem::{PmRegion, PmAddr};
/// let pm = PmRegion::new(4096);
/// pm.write(PmAddr(0), &[1u8; 128]);
/// pm.flush(PmAddr(0), 128);
/// pm.fence();
/// let s = pm.stats().snapshot();
/// assert_eq!(s.flushes, 2); // 128 B spans two cachelines
/// assert_eq!(s.fences, 1);
/// ```
#[derive(Default)]
pub struct PmStats {
    stripes: [Stripe; STRIPES],
}

impl std::fmt::Debug for PmStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

impl PmStats {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The calling thread's stripe.
    #[inline]
    fn mine(&self) -> &Stripe {
        &self.stripes[STRIPE.with(|s| *s)]
    }

    /// `field` summed over the stripes.
    fn sum(&self, field: impl Fn(&Stripe) -> &AtomicU64) -> u64 {
        self.stripes
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }

    #[inline]
    pub(crate) fn record_write(&self, bytes: u64) {
        let s = self.mine();
        s.writes.fetch_add(1, Ordering::Relaxed);
        s.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_read(&self, bytes: u64) {
        let s = self.mine();
        s.reads.fetch_add(1, Ordering::Relaxed);
        s.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_flush(&self, redundant: bool) {
        let s = self.mine();
        s.flushes.fetch_add(1, Ordering::Relaxed);
        if redundant {
            s.redundant_flushes.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn record_fence(&self) {
        self.mine().fences.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cacheline flush operations issued so far.
    pub fn flushes(&self) -> u64 {
        self.sum(|s| &s.flushes)
    }

    /// Number of fences issued so far.
    pub fn fences(&self) -> u64 {
        self.sum(|s| &s.fences)
    }

    /// Total bytes passed to `write`.
    pub fn bytes_written(&self) -> u64 {
        self.sum(|s| &s.bytes_written)
    }

    /// Takes a consistent-enough point-in-time copy of all counters.
    pub fn snapshot(&self) -> PmStatsSnapshot {
        PmStatsSnapshot {
            writes: self.sum(|s| &s.writes),
            bytes_written: self.sum(|s| &s.bytes_written),
            reads: self.sum(|s| &s.reads),
            bytes_read: self.sum(|s| &s.bytes_read),
            flushes: self.sum(|s| &s.flushes),
            redundant_flushes: self.sum(|s| &s.redundant_flushes),
            fences: self.sum(|s| &s.fences),
        }
    }
}

/// A point-in-time copy of [`PmStats`], suitable for diffing around an
/// operation under test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmStatsSnapshot {
    /// Number of `write` calls.
    pub writes: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of `read` calls.
    pub reads: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Number of cacheline flushes.
    pub flushes: u64,
    /// Flushes of cachelines that were not dirty (wasted work).
    pub redundant_flushes: u64,
    /// Number of fences.
    pub fences: u64,
}

/// Regression budget for [`PmStatsSnapshot::redundant_flush_ratio`] on the
/// standard engine workload (mixed inline/out-of-place puts, gets and
/// deletes driven through the session path).
///
/// FlatStore's design goal is that every issued `clwb` does useful work:
/// batches are cacheline-padded so adjacent batches never re-flush a shared
/// line, and the lazy-persist allocator keeps bitmap flushes off the hot
/// path. A rising ratio means some path started flushing clean lines —
/// wasted PM bandwidth and, on real hardware, the ~800 ns repeat-flush
/// stall. The engine regression test
/// (`flatstore/tests/flush_budget.rs`) fails if the workload ratio ever
/// exceeds this budget; `pmcheck` additionally reports each individual
/// redundant flush as a `Violation` in strict mode.
///
/// The observed ratio on the standard workload is ~0 (every flush follows
/// a store to the same line); 2% leaves headroom for benign layout changes
/// without letting a systematic regression through.
pub const REDUNDANT_FLUSH_BUDGET: f64 = 0.02;

impl PmStatsSnapshot {
    /// Difference `self - earlier`, counter by counter.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    pub fn delta(&self, earlier: &PmStatsSnapshot) -> PmStatsSnapshot {
        PmStatsSnapshot {
            writes: self.writes - earlier.writes,
            bytes_written: self.bytes_written - earlier.bytes_written,
            reads: self.reads - earlier.reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
            flushes: self.flushes - earlier.flushes,
            redundant_flushes: self.redundant_flushes - earlier.redundant_flushes,
            fences: self.fences - earlier.fences,
        }
    }

    /// Fraction of flushes that targeted clean cachelines (wasted work);
    /// 0 when no flush was issued.
    pub fn redundant_flush_ratio(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.redundant_flushes as f64 / self.flushes as f64
        }
    }

    /// Appends these counters as rows of `section` (the shared
    /// [`obs::StatsReport`] vocabulary every layer reports in).
    pub fn fill_section(&self, section: &mut obs::Section) {
        section
            .row("writes", self.writes)
            .row("bytes_written", self.bytes_written)
            .row("reads", self.reads)
            .row("bytes_read", self.bytes_read)
            .row("flushes", self.flushes)
            .row("redundant_flushes", self.redundant_flushes)
            .row("redundant_flush_ratio", self.redundant_flush_ratio())
            .row("fences", self.fences);
    }
}

impl std::fmt::Display for PmStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut report = obs::StatsReport::new("pm");
        self.fill_section(report.section("pm"));
        report.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let s = PmStats::new();
        s.record_write(10);
        s.record_flush(false);
        let a = s.snapshot();
        s.record_write(5);
        s.record_flush(true);
        s.record_fence();
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.writes, 1);
        assert_eq!(d.bytes_written, 5);
        assert_eq!(d.flushes, 1);
        assert_eq!(d.redundant_flushes, 1);
        assert_eq!(d.fences, 1);
    }

    /// Threads counting at once on one region land on several stripes;
    /// the sums are the exact totals, and a snapshot taken mid-run never
    /// exceeds a later one.
    #[test]
    fn striped_counts_sum_exactly() {
        use crate::{PmAddr, PmRegion, CACHELINE};
        use std::sync::atomic::AtomicBool;

        fn fields(s: &PmStatsSnapshot) -> [u64; 7] {
            [
                s.writes,
                s.bytes_written,
                s.reads,
                s.bytes_read,
                s.flushes,
                s.redundant_flushes,
                s.fences,
            ]
        }
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 500;
        let pm = PmRegion::new((THREADS * CACHELINE) as usize);
        let before = pm.stats().snapshot();
        let done = AtomicBool::new(false);
        let last = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let pm = &pm;
                    s.spawn(move || {
                        let line = PmAddr(t * CACHELINE);
                        let mut buf = [0u8; 24];
                        for i in 0..ROUNDS {
                            pm.write(line, &[i as u8; 40]);
                            pm.read(line, &mut buf);
                            pm.flush(line, 1);
                            pm.flush(line, 1); // redundant: the line is clean
                            pm.fence();
                        }
                    })
                })
                .collect();
            let observer = s.spawn(|| {
                let mut last = before;
                while !done.load(Ordering::Relaxed) {
                    let now = pm.stats().snapshot();
                    assert!(fields(&last).iter().zip(fields(&now)).all(|(a, b)| *a <= b));
                    last = now;
                }
                last
            });
            for w in workers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            observer.join().unwrap()
        });
        let d = pm.stats().snapshot().delta(&before);
        let n = THREADS * ROUNDS;
        assert_eq!(d.writes, n);
        assert_eq!(d.bytes_written, 40 * n);
        assert_eq!(d.reads, n);
        assert_eq!(d.bytes_read, 24 * n);
        assert_eq!(d.flushes, 2 * n);
        assert_eq!(d.redundant_flushes, n);
        assert_eq!(d.fences, n);
        assert_eq!(pm.stats().flushes() - before.flushes, 2 * n);
        assert_eq!(pm.stats().fences() - before.fences, n);
        assert_eq!(pm.stats().bytes_written() - before.bytes_written, 40 * n);
        // The observer's last mid-run snapshot is no later than the end.
        let end = pm.stats().snapshot();
        assert!(fields(&last).iter().zip(fields(&end)).all(|(a, b)| *a <= b));
    }

    #[test]
    fn display_and_report_rows() {
        let s = PmStats::new();
        s.record_flush(false);
        s.record_flush(false);
        s.record_flush(true);
        s.record_fence();
        let snap = s.snapshot();
        assert!((snap.redundant_flush_ratio() - 1.0 / 3.0).abs() < 1e-12);
        let text = snap.to_string();
        assert!(text.contains("[pm]"));
        assert!(text.contains("redundant_flush_ratio"));
        let mut report = obs::StatsReport::new("t");
        snap.fill_section(report.section("pm"));
        assert_eq!(report.get("pm", "flushes"), Some(&obs::Value::U64(3)));
    }
}
