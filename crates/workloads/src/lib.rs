//! Deterministic workload generators for the FlatStore evaluation (§5).
//!
//! * [`Zipfian`] — YCSB's scrambled-zipfian key popularity (default
//!   skewness 0.99, the paper's setting).
//! * [`Workload`] — the §5.1 microbenchmark: a key space, uniform or
//!   zipfian popularity, fixed value sizes, and a Put/Get ratio.
//! * [`EtcWorkload`] — the §5.2 production workload: Facebook's ETC pool
//!   emulated as a trimodal size mix (40 % tiny 1–13 B, 55 % small
//!   14–300 B, 5 % large > 300 B), zipfian over tiny+small keys, uniform
//!   over large keys.
//!
//! All generators are seeded and fully deterministic, so every benchmark
//! run (and the discrete-event simulation) is reproducible.

mod etc;
mod zipf;

pub use etc::{EtcWorkload, SizeClass, ETC_LARGE_PCT, ETC_SMALL_PCT, ETC_TINY_PCT};
pub use zipf::Zipfian;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Store `value_len` bytes under `key`.
    Put {
        /// The 8-byte key.
        key: u64,
        /// Value size in bytes.
        value_len: usize,
    },
    /// Read `key`.
    Get {
        /// The 8-byte key.
        key: u64,
    },
    /// Delete `key`.
    Delete {
        /// The 8-byte key.
        key: u64,
    },
}

impl Op {
    /// The key this operation touches.
    pub fn key(&self) -> u64 {
        match *self {
            Op::Put { key, .. } | Op::Get { key } | Op::Delete { key } => key,
        }
    }
}

/// Key-popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Scrambled zipfian with the given skewness (YCSB default 0.99).
    Zipfian {
        /// The zipf exponent θ.
        theta: f64,
    },
}

/// The §5.1 YCSB-style microbenchmark generator.
///
/// # Example
///
/// ```
/// use workloads::{Workload, KeyDist, Op};
/// let mut w = Workload::new(1_000, KeyDist::Zipfian { theta: 0.99 }, 64, 1.0, 42);
/// match w.next_op() {
///     Op::Put { key, value_len } => {
///         assert!(key < 1_000);
///         assert_eq!(value_len, 64);
///     }
///     _ => unreachable!("100 % puts"),
/// }
/// ```
#[derive(Debug)]
pub struct Workload {
    keyspace: u64,
    dist: KeyDist,
    zipf: Option<Zipfian>,
    value_len: usize,
    put_ratio: f64,
    rng: SmallRng,
}

impl Workload {
    /// Creates a generator over `keyspace` keys with the given popularity
    /// `dist`, fixed `value_len`, `put_ratio` ∈ [0, 1] and RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `keyspace == 0` or `put_ratio` is outside [0, 1].
    pub fn new(keyspace: u64, dist: KeyDist, value_len: usize, put_ratio: f64, seed: u64) -> Self {
        assert!(keyspace > 0, "empty key space");
        assert!((0.0..=1.0).contains(&put_ratio), "put_ratio out of range");
        let zipf = match dist {
            KeyDist::Zipfian { theta } => Some(Zipfian::new(keyspace, theta)),
            KeyDist::Uniform => None,
        };
        Workload {
            keyspace,
            dist,
            zipf,
            value_len,
            put_ratio,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws the next key according to the popularity distribution.
    pub fn next_key(&mut self) -> u64 {
        match self.dist {
            KeyDist::Uniform => self.rng.gen_range(0..self.keyspace),
            KeyDist::Zipfian { .. } => self
                .zipf
                .as_mut()
                .expect("zipf generator present")
                .next(&mut self.rng),
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let key = self.next_key();
        if self.rng.gen_bool(self.put_ratio) {
            Op::Put {
                key,
                value_len: self.value_len,
            }
        } else {
            Op::Get { key }
        }
    }

    /// The key-space size.
    pub fn keyspace(&self) -> u64 {
        self.keyspace
    }

    /// YCSB workload A: 50 % reads, 50 % updates, zipfian.
    pub fn ycsb_a(keyspace: u64, value_len: usize, seed: u64) -> Workload {
        Workload::new(
            keyspace,
            KeyDist::Zipfian { theta: 0.99 },
            value_len,
            0.5,
            seed,
        )
    }

    /// YCSB workload B: 95 % reads, 5 % updates, zipfian.
    pub fn ycsb_b(keyspace: u64, value_len: usize, seed: u64) -> Workload {
        Workload::new(
            keyspace,
            KeyDist::Zipfian { theta: 0.99 },
            value_len,
            0.05,
            seed,
        )
    }

    /// YCSB workload C: 100 % reads, zipfian.
    pub fn ycsb_c(keyspace: u64, value_len: usize, seed: u64) -> Workload {
        Workload::new(
            keyspace,
            KeyDist::Zipfian { theta: 0.99 },
            value_len,
            0.0,
            seed,
        )
    }
}

/// Deterministic value bytes for `key` (so Gets can validate contents).
pub fn value_bytes(key: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let mut x = key.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    while v.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let b = x.to_le_bytes();
        let take = (len - v.len()).min(8);
        v.extend_from_slice(&b[..take]);
    }
    v
}

/// Stable key hash used to route a request to a server core (paper §3.1:
/// "the server cores are determined by the keyhashes").
#[inline]
pub fn core_of(key: u64, ncores: usize) -> usize {
    let mut k = key;
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51afd7ed558ccd);
    k ^= k >> 33;
    (k % ncores as u64) as usize
}

/// Seeded RNG helper shared by the crate.
pub(crate) fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let mut a = Workload::new(1000, KeyDist::Zipfian { theta: 0.99 }, 8, 0.5, 7);
        let mut b = Workload::new(1000, KeyDist::Zipfian { theta: 0.99 }, 8, 0.5, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn put_ratio_respected() {
        let mut w = Workload::new(100, KeyDist::Uniform, 8, 0.05, 3);
        let puts = (0..20_000)
            .filter(|_| matches!(w.next_op(), Op::Put { .. }))
            .count();
        let ratio = puts as f64 / 20_000.0;
        assert!((ratio - 0.05).abs() < 0.01, "put ratio {ratio}");
    }

    #[test]
    fn uniform_covers_keyspace_evenly() {
        let mut w = Workload::new(10, KeyDist::Uniform, 8, 1.0, 5);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[w.next_key() as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (700..1300).contains(&c),
                "uniform counts skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn value_bytes_deterministic_and_sized() {
        assert_eq!(value_bytes(42, 100), value_bytes(42, 100));
        assert_ne!(value_bytes(42, 100), value_bytes(43, 100));
        assert_eq!(value_bytes(1, 13).len(), 13);
        assert_eq!(value_bytes(1, 0).len(), 0);
    }

    #[test]
    fn ycsb_presets_have_expected_mixes() {
        for (w, expect) in [
            (Workload::ycsb_a(1000, 8, 1), 0.5),
            (Workload::ycsb_b(1000, 8, 1), 0.05),
            (Workload::ycsb_c(1000, 8, 1), 0.0),
        ] {
            let mut w = w;
            let puts = (0..10_000)
                .filter(|_| matches!(w.next_op(), Op::Put { .. }))
                .count();
            let ratio = puts as f64 / 10_000.0;
            assert!((ratio - expect).abs() < 0.02, "got {ratio}, want {expect}");
        }
    }

    #[test]
    fn core_routing_is_stable_and_balanced() {
        let n = 16;
        let mut counts = vec![0u32; n];
        for key in 0..100_000u64 {
            let c = core_of(key, n);
            assert_eq!(c, core_of(key, n));
            counts[c] += 1;
        }
        for &c in &counts {
            assert!((5000..7600).contains(&c), "unbalanced cores: {counts:?}");
        }
    }
}
