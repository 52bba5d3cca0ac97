//! A fixed-size allocation bitmap.

/// A fixed-capacity bitmap tracking which blocks of a chunk are in use.
///
/// Lives in DRAM during normal operation (the "lazy persist" in the crate
/// name); it is serialized to the chunk header only on clean shutdown and
/// reconstructed from the operation log after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    bits: u32,
    used: u32,
    /// Search hint: first word that may contain a free bit.
    hint: u32,
}

impl Bitmap {
    /// Creates an all-free bitmap of `bits` blocks.
    pub fn new(bits: u32) -> Self {
        Bitmap {
            words: vec![0; bits.div_ceil(64) as usize],
            bits,
            used: 0,
            hint: 0,
        }
    }

    /// Number of blocks tracked.
    pub fn capacity(&self) -> u32 {
        self.bits
    }

    /// Number of allocated blocks.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Number of free blocks.
    pub fn free(&self) -> u32 {
        self.bits - self.used
    }

    /// Is block `i` allocated?
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_set(&self, i: u32) -> bool {
        assert!(i < self.bits);
        self.words[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    /// Allocates the first free block, returning its index.
    pub fn alloc_first(&mut self) -> Option<u32> {
        let start = self.hint as usize;
        for (off, w) in self.words[start..].iter().enumerate() {
            let wi = start + off;
            // Mask out the tail bits beyond `bits` in the last word.
            let valid = if wi as u32 == self.bits / 64 && !self.bits.is_multiple_of(64) {
                (1u64 << (self.bits % 64)) - 1
            } else {
                u64::MAX
            };
            let free = !w & valid;
            if free != 0 {
                let bit = free.trailing_zeros();
                let i = wi as u32 * 64 + bit;
                self.words[wi] |= 1 << bit;
                self.used += 1;
                self.hint = wi as u32;
                return Some(i);
            }
        }
        None
    }

    /// Marks block `i` allocated. Returns `false` if it already was.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: u32) -> bool {
        assert!(i < self.bits);
        let w = (i / 64) as usize;
        let mask = 1u64 << (i % 64);
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.used += 1;
        true
    }

    /// Frees block `i`. Returns `false` if it was already free.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn clear(&mut self, i: u32) -> bool {
        assert!(i < self.bits);
        let w = (i / 64) as usize;
        let mask = 1u64 << (i % 64);
        if self.words[w] & mask == 0 {
            return false;
        }
        self.words[w] &= !mask;
        self.used -= 1;
        self.hint = self.hint.min(i / 64);
        true
    }

    /// Serializes to little-endian bytes (for the lazy shutdown persist).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Reconstructs from bytes written by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bits: u32, bytes: &[u8]) -> Self {
        let mut bm = Bitmap::new(bits);
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            if i >= bm.words.len() {
                break;
            }
            #[expect(clippy::expect_used, reason = "chunks_exact(8) yields 8-byte slices")]
            let word: [u8; 8] = chunk.try_into().expect("8-byte chunk");
            bm.words[i] = u64::from_le_bytes(word);
        }
        bm.used = bm.words.iter().map(|w| w.count_ones()).sum();
        bm.hint = 0;
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_fills_in_order_then_exhausts() {
        let mut bm = Bitmap::new(130);
        for expect in 0..130 {
            assert_eq!(bm.alloc_first(), Some(expect));
        }
        assert_eq!(bm.alloc_first(), None);
        assert_eq!(bm.used(), 130);
        assert_eq!(bm.free(), 0);
    }

    #[test]
    fn clear_allows_reuse_of_lowest() {
        let mut bm = Bitmap::new(64);
        for _ in 0..64 {
            bm.alloc_first();
        }
        assert!(bm.clear(7));
        assert!(bm.clear(3));
        assert!(!bm.clear(3), "double free detected");
        assert_eq!(bm.alloc_first(), Some(3));
        assert_eq!(bm.alloc_first(), Some(7));
    }

    #[test]
    fn set_reports_prior_state() {
        let mut bm = Bitmap::new(10);
        assert!(bm.set(9));
        assert!(!bm.set(9));
        assert!(bm.is_set(9));
        assert!(!bm.is_set(0));
    }

    #[test]
    fn byte_round_trip() {
        let mut bm = Bitmap::new(100);
        for i in [0, 5, 63, 64, 99] {
            bm.set(i);
        }
        let bytes = bm.to_bytes();
        let back = Bitmap::from_bytes(100, &bytes);
        assert_eq!(back, {
            let mut b = bm.clone();
            b.hint = 0;
            b
        });
        assert_eq!(back.used(), 5);
    }

    #[test]
    fn tail_word_bits_do_not_leak() {
        // capacity 70: the second word has only 6 valid bits.
        let mut bm = Bitmap::new(70);
        let mut got = Vec::new();
        while let Some(i) = bm.alloc_first() {
            got.push(i);
        }
        assert_eq!(got.len(), 70);
        assert_eq!(*got.last().unwrap(), 69);
    }
}
