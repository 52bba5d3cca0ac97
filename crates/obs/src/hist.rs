//! Log-bucketed latency histograms.
//!
//! A [`LogHistogram`] has 64 power-of-two buckets: bucket 0 holds the
//! value 0 and bucket `b ≥ 1` holds values in `[2^(b-1), 2^b - 1]`
//! (the last bucket additionally absorbs everything above `2^62`).
//! Recording is a single relaxed `fetch_add`, so histograms can sit on
//! hot paths; querying goes through an immutable [`HistSnapshot`].
//!
//! Percentiles interpolate linearly inside the owning bucket, which
//! bounds the error of any reported quantile by the bucket width — a
//! factor of two worst case, a few percent for latencies in the
//! hundreds-of-nanoseconds range this repository cares about.

use std::sync::atomic::{AtomicU64, Ordering};

pub const NUM_BUCKETS: usize = 64;

/// Index of the bucket that stores `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

/// Inclusive `[lo, hi]` value range of bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    match idx {
        0 => (0, 0),
        _ if idx < NUM_BUCKETS - 1 => (1 << (idx - 1), (1 << idx) - 1),
        _ => (1 << (NUM_BUCKETS - 2), u64::MAX),
    }
}

/// A concurrent histogram over `u64` samples (typically nanoseconds).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    ///
    /// The running sum **saturates** at `u64::MAX` instead of wrapping,
    /// so a stream of near-`u64::MAX` samples degrades the mean to a
    /// documented ceiling rather than a silently wrong small number.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let prev = self.sum.fetch_add(v, Ordering::Relaxed);
        if prev.checked_add(v).is_none() {
            // The cheap add wrapped; pin the sum at its saturation
            // sentinel (racy repairs all land on the same value).
            self.sum.store(u64::MAX, Ordering::Relaxed);
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// A coherent-enough copy for reporting (individual loads are
    /// relaxed; concurrent recording may skew a snapshot by a sample).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Convenience for one-shot queries; prefer [`LogHistogram::snapshot`]
    /// when reading several quantiles.
    pub fn percentile(&self, q: f64) -> u64 {
        self.snapshot().percentile(q)
    }
}

/// Immutable view of a [`LogHistogram`] at one point in time.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    pub buckets: [u64; NUM_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistSnapshot {
    /// Arithmetic mean of the recorded samples; `0` when empty. If the
    /// running sum saturated (see [`LogHistogram::record`]) the mean is
    /// an underestimate pinned at `u64::MAX / count`.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (percent, e.g. `99.9`), linearly
    /// interpolated inside the owning bucket.
    ///
    /// Documented sentinels (never panics, in debug builds included):
    ///
    /// * empty histogram → `0` for every `q`;
    /// * single sample → the sample's bucket clamped by the true max,
    ///   i.e. the exact value for any `q`;
    /// * top-bucket saturation (samples ≥ 2^62, up to `u64::MAX`) → a
    ///   value clamped into `[bucket lo, max]`. The interpolation offset
    ///   is clamped to the bucket width before the add, because a 63-bit
    ///   width rounds *up* through `f64` and the raw `lo + offset` would
    ///   overflow `u64` for quantiles near 100.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 100.0);
        // Rank of the sample we are after, 1-based, ceil convention:
        // p50 of 10 samples is the 5th smallest.
        let rank = ((q / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank <= cum + n {
                let (lo, mut hi) = bucket_bounds(idx);
                hi = hi.min(self.max);
                let width = hi.saturating_sub(lo);
                let frac = (rank - cum) as f64 / n as f64;
                let offset = ((frac * width as f64) as u64).min(width);
                return lo + offset;
            }
            cum += n;
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_tile_the_domain() {
        assert_eq!(bucket_bounds(0), (0, 0));
        for idx in 1..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
            let (prev_lo, prev_hi) = bucket_bounds(idx - 1);
            assert!(prev_lo <= prev_hi);
            assert_eq!(
                prev_hi + 1,
                lo,
                "gap between buckets {} and {}",
                idx - 1,
                idx
            );
        }
    }

    #[test]
    fn exact_stats_survive() {
        let h = LogHistogram::new();
        for v in [3u64, 3, 3, 900] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 909);
        assert_eq!(s.max, 900);
        assert!((s.mean() - 227.25).abs() < 1e-9);
    }

    #[test]
    fn percentiles_track_known_distribution_within_bucket_error() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // A log histogram can be off by at most its bucket width: the
        // reported quantile must live in the same bucket as the truth.
        for (q, truth) in [(50.0, 500u64), (95.0, 950), (99.0, 990), (99.9, 999)] {
            let got = s.percentile(q);
            assert_eq!(
                bucket_index(got),
                bucket_index(truth),
                "p{q} reported {got}, truth {truth}"
            );
        }
        assert_eq!(s.percentile(100.0), 1000);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn single_value_distribution_is_tight() {
        let h = LogHistogram::new();
        for _ in 0..100 {
            h.record(7);
        }
        let s = h.snapshot();
        // All mass in bucket [4, 7], capped by max == 7.
        for q in [1.0, 50.0, 99.0, 99.9, 100.0] {
            let v = s.percentile(q);
            assert!((4..=7).contains(&v), "p{q} = {v}");
        }
        assert_eq!(s.percentile(100.0), 7);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        // Sentinel: every quantile of an empty histogram is 0.
        for q in [0.0, 1.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(q), 0, "p{q}");
        }
        assert_eq!(h.snapshot().mean(), 0.0);
        assert_eq!(h.snapshot().max, 0);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        // Sentinel: with one sample, interpolation collapses to the
        // sample itself (bucket lo..hi clamped by max == the sample).
        for v in [0u64, 1, 7, 1 << 40, u64::MAX] {
            let h = LogHistogram::new();
            h.record(v);
            let s = h.snapshot();
            for q in [0.0, 50.0, 99.9, 100.0] {
                let got = s.percentile(q);
                let (lo, _) = bucket_bounds(bucket_index(v));
                assert!(
                    got >= lo && got <= v.max(lo),
                    "single sample {v}, p{q} = {got}"
                );
            }
            assert_eq!(s.percentile(100.0), v);
        }
    }

    #[test]
    fn top_bucket_saturation_never_panics() {
        // Samples at and above 2^63 all land in the top bucket, whose
        // 63-bit width rounds up through f64: the unclamped `lo + offset`
        // would overflow u64 (a debug-build panic). The clamp keeps every
        // quantile inside [bucket lo, max].
        let h = LogHistogram::new();
        for v in [
            1u64 << 62,
            1 << 63,
            (1 << 63) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ] {
            h.record(v);
        }
        let s = h.snapshot();
        let (lo, _) = bucket_bounds(NUM_BUCKETS - 1);
        for q in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            let got = s.percentile(q);
            assert!(got >= lo && got <= s.max, "p{q} = {got}");
        }
        assert_eq!(s.percentile(100.0), u64::MAX);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(1);
        let s = h.snapshot();
        assert_eq!(s.sum, u64::MAX, "sum pins at its saturation sentinel");
        assert_eq!(s.count, 3);
        // The mean stays a large finite underestimate, not a tiny
        // wrapped value.
        assert!(s.mean() > (u64::MAX / 4) as f64);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LogHistogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
