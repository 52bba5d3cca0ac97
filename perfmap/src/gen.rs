//! Seeded op streams and the values they write and expect back.
//!
//! The engine only ever sees generated ops: the seed is an argument of
//! the harness, every stream is a pure function of it, and a Get is
//! checked byte for byte against what the stream last wrote.

use workloads::{value_bytes, EtcWorkload, KeyDist, Op as WlOp, Workload};

/// Key popularity and size mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Fixed-size values, uniform keys.
    Uniform { value_len: usize, put_ratio: f64 },
    /// Fixed-size values, scrambled zipfian keys (θ = 0.99).
    Zipf { value_len: usize, put_ratio: f64 },
    /// Facebook ETC: trimodal sizes, zipfian over tiny+small keys.
    Etc { put_ratio: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Put,
    Get,
}

/// One generated operation. `len` is the value length written (Put) or
/// expected back (Get); `tag` is the version the value carries on a
/// tagged stream (0 otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenOp {
    pub key: u64,
    pub verb: Verb,
    pub len: usize,
    pub tag: u32,
}

enum Source {
    Micro { wl: Workload, value_len: usize },
    Etc(EtcWorkload),
}

/// A deterministic op stream over `keys` preloaded keys.
pub struct OpStream {
    source: Source,
    keys: u64,
    /// Tagged streams stamp each value with a per-key version so a lost
    /// or stale acked write is detectable after a crash: the version
    /// last submitted per key (index = key).
    submitted: Option<Vec<u32>>,
}

/// Bytes of the version tag at the front of a tagged value.
const TAG_LEN: usize = 4;

impl OpStream {
    pub fn new(mix: Mix, keys: u64, seed: u64, tagged: bool) -> OpStream {
        let source = match mix {
            Mix::Uniform {
                value_len,
                put_ratio,
            } => Source::Micro {
                wl: Workload::new(keys, KeyDist::Uniform, value_len, put_ratio, seed),
                value_len,
            },
            Mix::Zipf {
                value_len,
                put_ratio,
            } => Source::Micro {
                wl: Workload::new(
                    keys,
                    KeyDist::Zipfian { theta: 0.99 },
                    value_len,
                    put_ratio,
                    seed,
                ),
                value_len,
            },
            Mix::Etc { put_ratio } => Source::Etc(EtcWorkload::new(keys, put_ratio, seed)),
        };
        OpStream {
            source,
            keys,
            submitted: tagged.then(|| vec![0; keys as usize]),
        }
    }

    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// The value length every op on `key` writes or expects.
    pub fn len_of(&self, key: u64) -> usize {
        match &self.source {
            Source::Micro { value_len, .. } => *value_len,
            Source::Etc(_) => EtcWorkload::value_len(key, self.keys).max(1),
        }
    }

    /// The op that loads `key` before any measurement (tag 0).
    pub fn preload_op(&self, key: u64) -> GenOp {
        GenOp {
            key,
            verb: Verb::Put,
            len: self.len_of(key),
            tag: 0,
        }
    }

    /// Draws the next operation. On a tagged stream a Put takes the
    /// key's next version and a Get expects the last one submitted (the
    /// engine's per-key gate keeps same-key ops of one client in
    /// submission order).
    pub fn next_op(&mut self) -> GenOp {
        let wl_op = match &mut self.source {
            Source::Micro { wl, .. } => wl.next_op(),
            Source::Etc(wl) => wl.next_op(),
        };
        let (key, verb) = match wl_op {
            WlOp::Put { key, .. } => (key, Verb::Put),
            WlOp::Get { key } | WlOp::Delete { key } => (key, Verb::Get),
        };
        let tag = match (&mut self.submitted, verb) {
            (Some(v), Verb::Put) => {
                v[key as usize] += 1;
                v[key as usize]
            }
            (Some(v), Verb::Get) => v[key as usize],
            (None, _) => 0,
        };
        GenOp {
            key,
            verb,
            len: self.len_of(key),
            tag,
        }
    }

    /// The version last submitted for `key` on a tagged stream.
    pub fn submitted_tag(&self, key: u64) -> u32 {
        self.submitted.as_ref().map_or(0, |v| v[key as usize])
    }

    pub fn tagged(&self) -> bool {
        self.submitted.is_some()
    }

    /// The bytes `op` writes (Put) or must read back (Get).
    pub fn value_of(&self, op: &GenOp) -> Vec<u8> {
        if self.tagged() {
            tagged_value(op.key, op.len, op.tag)
        } else {
            value_bytes(op.key, op.len)
        }
    }
}

/// `[tag: u32 LE][value_bytes(key, len - 4)]`.
pub fn tagged_value(key: u64, len: usize, tag: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&tag.to_le_bytes());
    v.extend_from_slice(&value_bytes(key, len.saturating_sub(TAG_LEN)));
    v
}

/// Splits a tagged value read back from the store into its version and
/// whether the rest of the bytes are the key's.
pub fn read_tag(key: u64, value: &[u8]) -> Option<u32> {
    let (tag, rest) = value.split_first_chunk::<TAG_LEN>()?;
    (rest == value_bytes(key, rest.len())).then(|| u32::from_le_bytes(*tag))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(mix: Mix, seed: u64, tagged: bool) -> Vec<GenOp> {
        let mut s = OpStream::new(mix, 10_000, seed, tagged);
        (0..10_000).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_for_every_mix() {
        for mix in [
            Mix::Uniform {
                value_len: 64,
                put_ratio: 1.0,
            },
            Mix::Uniform {
                value_len: 64,
                put_ratio: 0.0,
            },
            Mix::Zipf {
                value_len: 1024,
                put_ratio: 0.5,
            },
            Mix::Etc { put_ratio: 0.5 },
        ] {
            for tagged in [false, true] {
                let a = first_ops(mix, 42, tagged);
                assert_eq!(a, first_ops(mix, 42, tagged), "{mix:?}");
                assert_ne!(a, first_ops(mix, 43, tagged), "{mix:?}");
            }
        }
    }

    #[test]
    fn tagged_gets_expect_the_last_submitted_version() {
        let mix = Mix::Zipf {
            value_len: 64,
            put_ratio: 0.5,
        };
        let mut s = OpStream::new(mix, 100, 7, true);
        let mut last = vec![0u32; 100];
        for _ in 0..5_000 {
            let op = s.next_op();
            match op.verb {
                Verb::Put => {
                    last[op.key as usize] += 1;
                    assert_eq!(op.tag, last[op.key as usize]);
                }
                Verb::Get => assert_eq!(op.tag, last[op.key as usize]),
            }
            assert_eq!(s.submitted_tag(op.key), last[op.key as usize]);
        }
    }

    #[test]
    fn tagged_values_round_trip_and_reject_foreign_bytes() {
        let v = tagged_value(9, 64, 3);
        assert_eq!(v.len(), 64);
        assert_eq!(read_tag(9, &v), Some(3));
        assert_eq!(read_tag(10, &v), None);
        assert_eq!(read_tag(9, &v[..2]), None);
    }

    #[test]
    fn etc_values_follow_the_key_size_class() {
        let s = OpStream::new(Mix::Etc { put_ratio: 0.5 }, 10_000, 1, false);
        for key in [0, 3_999, 4_000, 9_499, 9_500, 9_999] {
            let op = s.preload_op(key);
            assert_eq!(op.len, EtcWorkload::value_len(key, 10_000));
            assert_eq!(s.value_of(&op), value_bytes(key, op.len));
        }
    }
}
