//! The compacted log-entry format (paper §3.2, Figure 3).
//!
//! A pointer-based entry is exactly **16 bytes**, so sixteen of them fill one
//! 256 B XPLine and can be made durable with the cost of a single internal
//! media write. Layout (bit offsets, little-endian):
//!
//! ```text
//! [ Op:2 | Emd:2 | Version:20 | Key:64 | Ptr:32 | Crc:8          ]  = 128 bits
//! [ Op:2 | Emd:2 | Version:20 | Key:64 | Size:8 | Crc:8 | value… ]  = 104 bits + value
//! ```
//!
//! * `Op` — 0 is *invalid* (so zero-filled padding never parses as an
//!   entry), 1 = Put, 2 = Delete (tombstone), 3 = Seal (end of chunk).
//! * `Emd` — whether the value is embedded at the end of the entry.
//! * `Version` — 20-bit per-key version used by the log cleaner and by
//!   recovery to pick the newest entry. Versions wrap ([`VERSION_MASK`])
//!   and are ordered by serial-number arithmetic ([`newer`]), which is
//!   unambiguous only while the versions of one key present in the log
//!   span less than 2¹⁹. Nothing enforces that window yet: a stale entry
//!   in a chunk the cleaner never picks can fall further behind.
//! * `Ptr` — 32 bits storing `block_address >> 8`; blocks from the
//!   lazy-persist allocator are 256 B-aligned, so the low 8 bits carry no
//!   information and 40 bits of address space (1 TB) remain reachable.
//! * `Size` — `value_len − 1`, encoding inline values of 1..=256 bytes.
//!   Values larger than [`INLINE_MAX`] bytes (and empty values) are stored
//!   out of the log.
//! * `Crc` — CRC-8 (polynomial 0x07) over the whole encoded entry with the
//!   checksum byte zeroed. Recovery and replication catch-up verify it
//!   before replaying an entry, so a torn write (or a partially-shipped
//!   batch on a backup) truncates the log instead of replaying garbage.

use pmem::{PmAddr, PmRegion};

use crate::error::LogError;

/// Largest value embedded directly in a log entry (paper: 256 B, "enough to
/// saturate the bandwidth of Optane DCPMM").
pub const INLINE_MAX: usize = 256;

/// Size of a pointer-based (or tombstone/seal) entry.
pub const PTR_ENTRY_LEN: usize = 16;

/// Header bytes preceding the value of an inline entry.
pub const INLINE_HEADER_LEN: usize = 13;

/// The bits of an entry's version field; versions wrap within it.
pub const VERSION_MASK: u32 = 0xF_FFFF;

/// Whether version `a` is newer than version `b`: `a` follows `b` by
/// less than half the 20-bit version space (RFC 1982 serial-number
/// arithmetic), so the order survives wrap-around.
///
/// ```
/// use oplog::{newer, VERSION_MASK};
/// assert!(newer(2, 1) && !newer(1, 2) && !newer(7, 7));
/// assert!(newer(0, VERSION_MASK), "0 follows the last version");
/// ```
pub fn newer(a: u32, b: u32) -> bool {
    let ahead = a.wrapping_sub(b) & VERSION_MASK;
    ahead != 0 && ahead < 1 << 19
}

const OP_MASK: u8 = 0b11;
const EMD_SHIFT: u32 = 2;
/// Byte offset of the inline-entry size field.
const INLINE_SIZE_OFF: u64 = 11;
/// Byte offset of the inline-entry checksum.
const INLINE_CRC_OFF: usize = 12;
/// Byte offset of the pointer/tombstone/seal checksum.
const PTR_CRC_OFF: usize = 15;

/// CRC-8, polynomial 0x07 (ATM HEC), bitwise — entries are tiny, so a
/// lookup table buys nothing.
fn crc8(bytes: &[u8], skip: usize) -> u8 {
    let mut crc = 0u8;
    for (i, &b) in bytes.iter().enumerate() {
        crc ^= if i == skip { 0 } else { b };
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// The 20-bit version and the key out of an entry's first 11 bytes.
fn version_and_key(raw: &[u8]) -> (u32, u64) {
    let version = (raw[0] >> 4) as u32 | (u16::from_le_bytes([raw[1], raw[2]]) as u32) << 4;
    // pmlint: allow(no-unwrap) — [3..11] is 8 bytes; every caller passes at
    // least a 13-byte header.
    let key = u64::from_le_bytes(raw[3..11].try_into().expect("8 bytes"));
    (version, key)
}

/// Operation recorded by a log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogOp {
    /// Insert or update a key.
    Put,
    /// Tombstone: the key was deleted.
    Delete,
    /// Internal: marks the used end of a sealed chunk.
    Seal,
}

impl LogOp {
    fn code(self) -> u8 {
        match self {
            LogOp::Put => 1,
            LogOp::Delete => 2,
            LogOp::Seal => 3,
        }
    }

    fn from_code(c: u8) -> Option<LogOp> {
        match c {
            1 => Some(LogOp::Put),
            2 => Some(LogOp::Delete),
            3 => Some(LogOp::Seal),
            _ => None,
        }
    }
}

/// Where a Put's value lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// No payload (tombstones, seals).
    None,
    /// Value stored out of the log in an allocator block (its 256 B-aligned
    /// address fits the 32-bit packed pointer field).
    Ptr(PmAddr),
    /// Value embedded in the entry (1..=256 bytes).
    Inline(Vec<u8>),
}

/// A decoded (or to-be-encoded) operation-log entry.
///
/// # Example
///
/// ```
/// use oplog::{LogEntry, LogOp, Payload};
/// let e = LogEntry::put_inline(42, 7, b"tiny".to_vec()).unwrap();
/// assert_eq!(e.encoded_len(), 17); // 13 B header + 4 B value
/// let t = LogEntry::tombstone(42, 8);
/// assert_eq!(t.encoded_len(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Operation type.
    pub op: LogOp,
    /// The 8-byte key.
    pub key: u64,
    /// 20-bit per-key version (masked on encode).
    pub version: u32,
    /// The value location.
    pub payload: Payload,
}

/// The fixed-size fields of a log entry — everything but an inline value's
/// bytes, in 24 bytes.
///
/// Recovery, the log cleaner and the update path decide on these fields
/// alone (which version is newest, is the entry still referenced, does it
/// own an out-of-log block), so they decode headers: no allocation, and
/// the value is only copied ([`load`](Self::load)) for entries that
/// survive.
///
/// # Example
///
/// ```
/// use oplog::{EntryHeader, LogEntry, LogOp};
/// use pmem::{PmAddr, PmRegion};
///
/// let pm = PmRegion::new(4096);
/// let e = LogEntry::put_inline(42, 7, b"tiny".to_vec())?;
/// let mut buf = Vec::new();
/// e.encode_into(&mut buf);
/// pm.write(PmAddr(64), &buf);
///
/// let h = EntryHeader::decode(&pm, PmAddr(64))?.expect("not padding");
/// assert_eq!((h.op, h.key, h.version), (LogOp::Put, 42, 7));
/// assert_eq!((h.block(), h.encoded_len()), (None, 17));
/// assert_eq!(h.load(&pm, PmAddr(64)), e);
/// # Ok::<(), oplog::LogError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryHeader {
    /// Operation type.
    pub op: LogOp,
    /// The 8-byte key.
    pub key: u64,
    /// 20-bit per-key version.
    pub version: u32,
    /// The packed pointer field (`block >> 8`); 0 when the entry has none.
    ptr: u32,
    /// Encoded length in bytes.
    len: u16,
}

impl EntryHeader {
    /// Decodes the header of the entry at `addr`, verifying the entry's
    /// CRC-8 (over a stack buffer — nothing is allocated). Accepts and
    /// rejects exactly what [`LogEntry::decode`] does: `Ok(None)` for
    /// padding (a zero op byte).
    ///
    /// # Errors
    ///
    /// [`LogError::ChecksumMismatch`] on a torn entry, [`LogError::Corrupt`]
    /// if the bytes do not decode.
    pub fn decode(pm: &PmRegion, addr: PmAddr) -> Result<Option<EntryHeader>, LogError> {
        Self::decode_at(pm, addr, true)
    }

    /// [`decode`](Self::decode) without the checksum, for an address that
    /// is known to hold a validated entry — the volatile index only ever
    /// references entries that were appended by this process or passed
    /// recovery's CRC. Reads the 13–16 header bytes only.
    ///
    /// # Errors
    ///
    /// [`LogError::Corrupt`] if the bytes do not decode.
    pub fn decode_trusted(pm: &PmRegion, addr: PmAddr) -> Result<Option<EntryHeader>, LogError> {
        Self::decode_at(pm, addr, false)
    }

    fn decode_at(
        pm: &PmRegion,
        addr: PmAddr,
        verify: bool,
    ) -> Result<Option<EntryHeader>, LogError> {
        let mut raw = [0u8; INLINE_HEADER_LEN + INLINE_MAX];
        // The shortest entry (13 B header + 1 B value) is longer than this
        // first read, so it never leaves the entry.
        pm.read(addr, &mut raw[..INLINE_HEADER_LEN]);
        let b0 = raw[0];
        let Some(op) = LogOp::from_code(b0 & OP_MASK) else {
            return Ok(None); // padding
        };
        let inline = op == LogOp::Put && (b0 >> EMD_SHIFT) & 0b11 == 1;
        let (len, crc_off) = if inline {
            let size = raw[INLINE_SIZE_OFF as usize] as usize + 1;
            (INLINE_HEADER_LEN + size, INLINE_CRC_OFF)
        } else {
            (PTR_ENTRY_LEN, PTR_CRC_OFF)
        };
        if verify || !inline {
            pm.read(
                addr + INLINE_HEADER_LEN as u64,
                &mut raw[INLINE_HEADER_LEN..len],
            );
        }
        if verify && crc8(&raw[..len], crc_off) != raw[crc_off] {
            return Err(LogError::ChecksumMismatch {
                addr: addr.offset(),
            });
        }
        if op == LogOp::Seal {
            // As `LogEntry::decode`: a seal carries no fields.
            return Ok(Some(EntryHeader {
                op,
                key: 0,
                version: 0,
                ptr: 0,
                len: len as u16,
            }));
        }
        let (version, key) = version_and_key(&raw);
        let ptr = if op == LogOp::Put && !inline {
            // pmlint: allow(no-unwrap) — fixed-width slice of a 269-byte array.
            let packed = u32::from_le_bytes(raw[11..15].try_into().expect("4 bytes"));
            if packed == 0 {
                return Err(LogError::Corrupt {
                    addr: addr.offset(),
                });
            }
            packed
        } else {
            0
        };
        Ok(Some(EntryHeader {
            op,
            key,
            version,
            ptr,
            len: len as u16,
        }))
    }

    /// The out-of-log block a pointer Put references (`None` for inline
    /// Puts, tombstones and seals).
    pub fn block(&self) -> Option<PmAddr> {
        (self.ptr != 0).then_some(PmAddr((self.ptr as u64) << 8))
    }

    /// Encoded size of the whole entry in bytes.
    pub fn encoded_len(&self) -> usize {
        self.len as usize
    }

    /// Materialises the full entry whose header this is, copying an inline
    /// value out of the log at `addr` (the address the header was decoded
    /// from). No checksum: the header's decode already covered the bytes.
    pub fn load(&self, pm: &PmRegion, addr: PmAddr) -> LogEntry {
        let payload = match self.block() {
            Some(block) => Payload::Ptr(block),
            None if self.op == LogOp::Put => Payload::Inline(pm.read_vec(
                addr + INLINE_HEADER_LEN as u64,
                self.encoded_len() - INLINE_HEADER_LEN,
            )),
            None => Payload::None,
        };
        LogEntry {
            op: self.op,
            key: self.key,
            version: self.version,
            payload,
        }
    }
}

impl LogEntry {
    /// A Put whose value is embedded in the log entry.
    ///
    /// # Errors
    ///
    /// [`LogError::ValueTooLarge`] if the value is empty or longer than
    /// [`INLINE_MAX`].
    pub fn put_inline(key: u64, version: u32, value: Vec<u8>) -> Result<LogEntry, LogError> {
        if value.is_empty() || value.len() > INLINE_MAX {
            return Err(LogError::ValueTooLarge { len: value.len() });
        }
        Ok(LogEntry {
            op: LogOp::Put,
            key,
            version,
            payload: Payload::Inline(value),
        })
    }

    /// A Put whose value lives in an allocator block at `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not 256 B-aligned or exceeds 40 bits.
    pub fn put_ptr(key: u64, version: u32, block: PmAddr) -> LogEntry {
        assert!(
            block.is_aligned(256),
            "block pointers must be 256 B aligned"
        );
        assert!(block.offset() >> 40 == 0, "pointer exceeds 40 bits");
        LogEntry {
            op: LogOp::Put,
            key,
            version,
            payload: Payload::Ptr(block),
        }
    }

    /// A Delete tombstone.
    pub fn tombstone(key: u64, version: u32) -> LogEntry {
        LogEntry {
            op: LogOp::Delete,
            key,
            version,
            payload: Payload::None,
        }
    }

    pub(crate) fn seal() -> LogEntry {
        LogEntry {
            op: LogOp::Seal,
            key: 0,
            version: 0,
            payload: Payload::None,
        }
    }

    /// Encoded size in bytes: 16 for pointer-based entries, `13 + len` for
    /// inline entries.
    pub fn encoded_len(&self) -> usize {
        match &self.payload {
            Payload::Inline(v) => INLINE_HEADER_LEN + v.len(),
            _ => PTR_ENTRY_LEN,
        }
    }

    /// Appends the encoded entry to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        let emd = matches!(self.payload, Payload::Inline(_)) as u8;
        let ver = self.version & VERSION_MASK;
        let b0 = self.op.code() | (emd << EMD_SHIFT) | (((ver & 0xF) as u8) << 4);
        buf.push(b0);
        buf.extend_from_slice(&((ver >> 4) as u16).to_le_bytes());
        buf.extend_from_slice(&self.key.to_le_bytes());
        let crc_off = match &self.payload {
            Payload::Inline(v) => {
                buf.push((v.len() - 1) as u8);
                buf.push(0); // checksum placeholder
                buf.extend_from_slice(v);
                INLINE_CRC_OFF
            }
            Payload::Ptr(p) => {
                let packed = (p.offset() >> 8) as u32;
                buf.extend_from_slice(&packed.to_le_bytes());
                buf.push(0); // checksum placeholder
                PTR_CRC_OFF
            }
            Payload::None => {
                buf.extend_from_slice(&[0u8; 5]);
                PTR_CRC_OFF
            }
        };
        buf[start + crc_off] = crc8(&buf[start..], crc_off);
    }

    /// Decodes the entry at `addr`, returning it and its encoded length.
    /// Returns `Ok(None)` for padding (a zero op byte).
    ///
    /// # Errors
    ///
    /// [`LogError::ChecksumMismatch`] if the entry's CRC-8 does not match
    /// (a torn write); [`LogError::Corrupt`] if the bytes do not decode.
    pub fn decode(pm: &PmRegion, addr: PmAddr) -> Result<Option<(LogEntry, usize)>, LogError> {
        let b0 = pm.read_u8(addr);
        let Some(op) = LogOp::from_code(b0 & OP_MASK) else {
            return Ok(None); // padding
        };
        let emd = (b0 >> EMD_SHIFT) & 0b11;
        let inline = op == LogOp::Put && emd == 1;
        // Verify the checksum over the whole encoded entry before trusting
        // any field beyond the two needed to find its length.
        let (len, crc_off) = if inline {
            let size = pm.read_u8(addr + INLINE_SIZE_OFF) as usize + 1;
            (INLINE_HEADER_LEN + size, INLINE_CRC_OFF)
        } else {
            (PTR_ENTRY_LEN, PTR_CRC_OFF)
        };
        let raw = pm.read_vec(addr, len);
        if crc8(&raw, crc_off) != raw[crc_off] {
            return Err(LogError::ChecksumMismatch {
                addr: addr.offset(),
            });
        }
        let (version, key) = version_and_key(&raw);
        match op {
            LogOp::Seal => Ok(Some((LogEntry::seal(), PTR_ENTRY_LEN))),
            LogOp::Delete => Ok(Some((
                LogEntry {
                    op,
                    key,
                    version,
                    payload: Payload::None,
                },
                PTR_ENTRY_LEN,
            ))),
            LogOp::Put if inline => {
                // Reuse the checksummed read buffer as the value (one
                // allocation per decode, not two): the header is drained
                // off the front and the Vec handed onward — the Get path
                // moves it to the client without another copy.
                let mut value = raw;
                value.drain(..INLINE_HEADER_LEN);
                Ok(Some((
                    LogEntry {
                        op,
                        key,
                        version,
                        payload: Payload::Inline(value),
                    },
                    len,
                )))
            }
            LogOp::Put => {
                // pmlint: allow(no-unwrap) — raw[11..15] is 4 bytes.
                let packed = u32::from_le_bytes(raw[11..15].try_into().expect("4 bytes"));
                let ptr = (packed as u64) << 8;
                if ptr == 0 {
                    return Err(LogError::Corrupt {
                        addr: addr.offset(),
                    });
                }
                Ok(Some((
                    LogEntry {
                        op,
                        key,
                        version,
                        payload: Payload::Ptr(PmAddr(ptr)),
                    },
                    PTR_ENTRY_LEN,
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: &LogEntry) -> LogEntry {
        let pm = PmRegion::new(4096);
        let mut buf = Vec::new();
        e.encode_into(&mut buf);
        assert_eq!(buf.len(), e.encoded_len());
        pm.write(PmAddr(64), &buf);
        let (got, len) = LogEntry::decode(&pm, PmAddr(64)).unwrap().unwrap();
        assert_eq!(len, e.encoded_len());
        got
    }

    #[test]
    fn ptr_entry_is_16_bytes_and_round_trips() {
        let e = LogEntry::put_ptr(0xdead_beef_0042, 0x5_4321, PmAddr(0x1234_5600));
        assert_eq!(e.encoded_len(), 16);
        assert_eq!(round_trip(&e), e);
    }

    #[test]
    fn inline_entry_round_trips_all_sizes() {
        for len in [1usize, 2, 7, 8, 52, 255, 256] {
            let e = LogEntry::put_inline(99, 3, vec![0xA5; len]).unwrap();
            assert_eq!(e.encoded_len(), 13 + len);
            assert_eq!(round_trip(&e), e);
        }
    }

    #[test]
    fn tombstone_round_trips() {
        let e = LogEntry::tombstone(7, 0xF_FFFF);
        assert_eq!(round_trip(&e), e);
    }

    #[test]
    fn version_is_masked_to_20_bits() {
        let e = LogEntry::tombstone(7, 0xABC_DEF0);
        let got = round_trip(&e);
        assert_eq!(got.version, 0xABC_DEF0 & 0xF_FFFF);
    }

    #[test]
    fn newer_orders_across_the_wrap() {
        const HALF: u32 = 1 << 19;
        for b in [0, 1, HALF - 1, HALF, VERSION_MASK - 3, VERSION_MASK] {
            for ahead in [1, 2, 4096, HALF - 1] {
                let a = b.wrapping_add(ahead) & VERSION_MASK;
                assert!(newer(a, b) && !newer(b, a), "{a} vs {b}");
            }
            // Exactly half the space apart is ambiguous: neither is newer.
            let opposite = (b + HALF) & VERSION_MASK;
            assert!(!newer(opposite, b) && !newer(b, opposite));
            assert!(!newer(b, b));
        }
    }

    #[test]
    fn zero_bytes_decode_as_padding() {
        let pm = PmRegion::new(4096);
        assert_eq!(LogEntry::decode(&pm, PmAddr(0)).unwrap(), None);
    }

    #[test]
    fn oversized_or_empty_inline_rejected() {
        assert!(LogEntry::put_inline(1, 1, vec![]).is_err());
        assert!(LogEntry::put_inline(1, 1, vec![0; 257]).is_err());
    }

    #[test]
    #[should_panic(expected = "256 B aligned")]
    fn unaligned_ptr_panics() {
        let _ = LogEntry::put_ptr(1, 1, PmAddr(100));
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        // Flip one byte anywhere in an encoded entry (including the CRC
        // itself) and decode must report ChecksumMismatch, never a wrong
        // entry.
        for e in [
            LogEntry::put_ptr(0xdead_beef, 0x5_4321, PmAddr(0x1234_5600)),
            LogEntry::put_inline(99, 3, vec![0xA5; 8]).unwrap(),
            LogEntry::tombstone(7, 9),
        ] {
            let mut buf = Vec::new();
            e.encode_into(&mut buf);
            for i in 0..buf.len() {
                let pm = PmRegion::new(4096);
                let mut torn = buf.clone();
                torn[i] ^= 0x40; // keeps the op code valid (bits 0..2 untouched)
                pm.write(PmAddr(64), &torn);
                assert_eq!(
                    LogEntry::decode(&pm, PmAddr(64)),
                    Err(LogError::ChecksumMismatch { addr: 64 }),
                    "byte {i} of {e:?}"
                );
            }
        }
    }

    /// Every shape `encode_into` can produce: pointer Puts, tombstones,
    /// the seal, and inline Puts from the shortest to the longest value.
    fn every_entry_shape() -> Vec<LogEntry> {
        let mut shapes = vec![
            LogEntry::put_ptr(0xdead_beef_0042, 0x5_4321, PmAddr(0x1234_5600)),
            LogEntry::put_ptr(0, 0, PmAddr(0x100)),
            LogEntry::put_ptr(u64::MAX - 1, 0xF_FFFF, PmAddr(0xFF_FFFF_FF00)),
            LogEntry::tombstone(7, 0xF_FFFF),
            LogEntry::tombstone(0, 0),
            LogEntry::seal(),
        ];
        for len in [1usize, 2, 3, 4, 7, 8, 52, 64, 255, 256] {
            let value = (0..len).map(|i| (i * 7 + len) as u8).collect();
            shapes.push(LogEntry::put_inline(len as u64 * 31, len as u32, value).unwrap());
        }
        shapes
    }

    #[test]
    fn header_is_24_bytes() {
        assert_eq!(std::mem::size_of::<EntryHeader>(), 24);
    }

    #[test]
    fn header_decode_agrees_with_full_decode_on_every_shape() {
        for e in every_entry_shape() {
            let pm = PmRegion::new(4096);
            let mut buf = Vec::new();
            e.encode_into(&mut buf);
            // Straddle a cacheline so both reads of the header are exercised.
            let at = PmAddr(128 - 5);
            pm.write(at, &buf);
            let (full, len) = LogEntry::decode(&pm, at).unwrap().unwrap();
            for h in [
                EntryHeader::decode(&pm, at).unwrap().unwrap(),
                EntryHeader::decode_trusted(&pm, at).unwrap().unwrap(),
            ] {
                assert_eq!((h.op, h.key, h.version), (full.op, full.key, full.version));
                assert_eq!(h.encoded_len(), len, "{e:?}");
                let block = match &full.payload {
                    Payload::Ptr(b) => Some(*b),
                    _ => None,
                };
                assert_eq!(h.block(), block, "{e:?}");
                assert_eq!(h.load(&pm, at), full, "{e:?}");
            }
        }
        let pm = PmRegion::new(4096);
        assert_eq!(EntryHeader::decode(&pm, PmAddr(0)), Ok(None), "padding");
        assert_eq!(EntryHeader::decode_trusted(&pm, PmAddr(0)), Ok(None));
    }

    #[test]
    fn header_decode_rejects_what_full_decode_rejects() {
        // Every single-bit corruption of every byte of every shape: the two
        // decoders must return the same verdict (the same error, or — when
        // the flip turns the op code into padding or leaves a CRC-valid
        // entry — the same fields).
        for e in every_entry_shape() {
            let mut buf = Vec::new();
            e.encode_into(&mut buf);
            // Bytes past the entry are zero here; flips of the size byte
            // make both decoders read into them alike.
            for i in 0..buf.len() {
                for bit in 0..8 {
                    let pm = PmRegion::new(4096);
                    let mut torn = buf.clone();
                    torn[i] ^= 1 << bit;
                    pm.write(PmAddr(64), &torn);
                    let full = LogEntry::decode(&pm, PmAddr(64));
                    let head = EntryHeader::decode(&pm, PmAddr(64));
                    match (full, head) {
                        (Err(a), Err(b)) => assert_eq!(a, b, "byte {i} bit {bit} of {e:?}"),
                        (Ok(None), Ok(None)) => {}
                        (Ok(Some((f, len))), Ok(Some(h))) => {
                            assert_eq!(h.load(&pm, PmAddr(64)), f);
                            assert_eq!(h.encoded_len(), len);
                        }
                        (f, h) => panic!("byte {i} bit {bit} of {e:?}: {f:?} vs {h:?}"),
                    }
                }
            }
        }
        // A CRC-valid pointer Put with a null pointer is Corrupt in both.
        let mut buf = Vec::new();
        LogEntry::put_ptr(9, 9, PmAddr(0x100)).encode_into(&mut buf);
        buf[11..15].fill(0);
        buf[PTR_CRC_OFF] = crc8(&buf, PTR_CRC_OFF);
        let pm = PmRegion::new(4096);
        pm.write(PmAddr(64), &buf);
        assert_eq!(
            LogEntry::decode(&pm, PmAddr(64)),
            Err(LogError::Corrupt { addr: 64 })
        );
        assert_eq!(
            EntryHeader::decode(&pm, PmAddr(64)),
            Err(LogError::Corrupt { addr: 64 })
        );
    }

    #[test]
    fn sixteen_ptr_entries_fill_one_xpline() {
        let mut buf = Vec::new();
        for k in 0..16u64 {
            LogEntry::put_ptr(k, 1, PmAddr(0x100 * (k + 1))).encode_into(&mut buf);
        }
        assert_eq!(buf.len(), 256);
    }
}
