//! Index-value packing and the out-of-log record format.

use oplog::VERSION_MASK;
use pmem::{PmAddr, PmRegion};

/// Bits of the packed value holding the entry address (1 TB of PM).
const ADDR_BITS: u32 = 42;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;

/// Packs a 20-bit version and a log-entry address into the opaque `u64`
/// stored in the volatile index ("an array of Keys and co-located Versions …
/// and an array of pointers pointing to the log entries", paper §4.1).
#[inline]
pub(crate) fn pack(version: u32, addr: PmAddr) -> u64 {
    debug_assert!(addr.offset() <= ADDR_MASK);
    (((version & VERSION_MASK) as u64) << ADDR_BITS) | addr.offset()
}

/// Inverse of [`pack`].
#[inline]
pub(crate) fn unpack(v: u64) -> (u32, PmAddr) {
    (
        (v >> ADDR_BITS) as u32 & VERSION_MASK,
        PmAddr(v & ADDR_MASK),
    )
}

/// Writes an out-of-log record `(v_len, value)` into `block` (paper §3.2
/// step 1) and flushes it. The caller issues the fence.
pub(crate) fn write_record(pm: &PmRegion, block: PmAddr, value: &[u8]) {
    pm.write_u64(block, value.len() as u64);
    pm.write(block + 8, value);
    pm.flush(block, 8 + value.len());
}

/// Reads an out-of-log record back.
pub(crate) fn read_record(pm: &PmRegion, block: PmAddr) -> Vec<u8> {
    let len = pm.read_u64(block) as usize;
    pm.read_vec(block + 8, len)
}

/// Bytes a record of `value_len` occupies in an allocator block.
#[inline]
pub(crate) fn record_size(value_len: usize) -> u64 {
    8 + value_len as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        for (v, a) in [(0u32, 64u64), (1, 4096), (VERSION_MASK, ADDR_MASK)] {
            let packed = pack(v, PmAddr(a));
            assert_eq!(unpack(packed), (v, PmAddr(a)));
        }
    }

    #[test]
    fn version_is_masked() {
        let (v, _) = unpack(pack(0xABC_DEF0, PmAddr(64)));
        assert_eq!(v, 0xABC_DEF0 & VERSION_MASK);
    }

    #[test]
    fn record_round_trips() {
        let pm = PmRegion::new(4096);
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        write_record(&pm, PmAddr(256), &data);
        pm.fence();
        assert_eq!(read_record(&pm, PmAddr(256)), data);
        assert_eq!(record_size(200), 208);
    }
}
