//! The persistent superblock: region identification, shutdown flag, log
//! descriptors and the clean-shutdown snapshot anchor.
//!
//! Layout (region offsets):
//!
//! ```text
//! 0x0000  magic, layout version, ncores, nchunks, clean flag,
//!         snapshot address + length, one reserved word (0x38)
//! 0x1000  per-core operation-log descriptors, one cacheline each
//! 0x2000  per-core ship cursors (a backup image's replicated log tail),
//!         one cacheline each
//! 4 MB    chunk pool (4 MB-aligned as the lazy-persist allocator requires)
//! ```
//!
//! The word at 0x38 held the flag of a periodic index checkpoint, since
//! removed. It stays reserved so that no other field moves: `format`
//! zeroes it and nothing reads it.

use pmem::{PmAddr, PmRegion};

use crate::error::StoreError;

const MAGIC: u64 = 0x464c_4154_5354_4f52; // "FLATSTOR"
const LAYOUT_VERSION: u64 = 1;

const OFF_MAGIC: u64 = 0x00;
const OFF_VERSION: u64 = 0x08;
const OFF_NCORES: u64 = 0x10;
const OFF_NCHUNKS: u64 = 0x18;
const OFF_CLEAN: u64 = 0x20;
const OFF_SNAP_ADDR: u64 = 0x28;
const OFF_SNAP_LEN: u64 = 0x30;
const OFF_RESERVED: u64 = 0x38;

const DESC_BASE: u64 = 0x1000;
const SHIP_BASE: u64 = 0x2000;

/// Base of the chunk pool.
pub(crate) const POOL_BASE: u64 = 4 << 20;

/// A typed view over the superblock.
pub(crate) struct Superblock<'a> {
    pm: &'a PmRegion,
}

impl<'a> Superblock<'a> {
    pub fn new(pm: &'a PmRegion) -> Self {
        Superblock { pm }
    }

    /// Formats a fresh superblock for `ncores` / `nchunks`.
    pub fn format(&self, ncores: usize, nchunks: u32) {
        self.pm.write_u64(PmAddr(OFF_VERSION), LAYOUT_VERSION);
        self.pm.write_u64(PmAddr(OFF_NCORES), ncores as u64);
        self.pm.write_u64(PmAddr(OFF_NCHUNKS), nchunks as u64);
        self.pm.write_u64(PmAddr(OFF_CLEAN), 0);
        self.pm.write_u64(PmAddr(OFF_SNAP_ADDR), 0);
        self.pm.write_u64(PmAddr(OFF_SNAP_LEN), 0);
        self.pm.write_u64(PmAddr(OFF_RESERVED), 0);
        self.pm.flush(PmAddr(0), 0x40);
        self.pm.fence();
        // Magic written last: a torn format is unrecognizable, not corrupt.
        self.pm.write_u64(PmAddr(OFF_MAGIC), MAGIC);
        self.pm.persist(PmAddr(OFF_MAGIC), 8);
    }

    /// Validates magic/version and returns `(ncores, nchunks)`.
    pub fn load(&self) -> Result<(usize, u32), StoreError> {
        if self.pm.read_u64(PmAddr(OFF_MAGIC)) != MAGIC {
            return Err(StoreError::BadImage("missing FlatStore magic".into()));
        }
        let v = self.pm.read_u64(PmAddr(OFF_VERSION));
        if v != LAYOUT_VERSION {
            return Err(StoreError::BadImage(format!("layout version {v}")));
        }
        Ok((
            self.pm.read_u64(PmAddr(OFF_NCORES)) as usize,
            self.pm.read_u64(PmAddr(OFF_NCHUNKS)) as u32,
        ))
    }

    /// Whether the image was cleanly shut down.
    pub fn is_clean(&self) -> bool {
        self.pm.read_u64(PmAddr(OFF_CLEAN)) == 1
    }

    /// Sets/clears the clean-shutdown flag (persisted).
    pub fn set_clean(&self, clean: bool) {
        self.pm.write_u64(PmAddr(OFF_CLEAN), clean as u64);
        self.pm.persist(PmAddr(OFF_CLEAN), 8);
    }

    /// Records the snapshot block (0 = none); persisted.
    pub fn set_snapshot(&self, addr: PmAddr, len: u64) {
        self.pm.write_u64(PmAddr(OFF_SNAP_ADDR), addr.offset());
        self.pm.write_u64(PmAddr(OFF_SNAP_LEN), len);
        self.pm.persist(PmAddr(OFF_SNAP_ADDR), 16);
    }

    /// The snapshot block, if any.
    pub fn snapshot(&self) -> Option<(PmAddr, u64)> {
        let addr = self.pm.read_u64(PmAddr(OFF_SNAP_ADDR));
        (addr != 0).then(|| (PmAddr(addr), self.pm.read_u64(PmAddr(OFF_SNAP_LEN))))
    }

    /// The operation-log descriptor address of `core` (one cacheline each).
    pub fn log_desc(core: usize) -> PmAddr {
        PmAddr(DESC_BASE + core as u64 * 64)
    }

    /// The ship-cursor address of `core` (one cacheline each; see
    /// [`BackupImage::set_ship_cursor`](crate::BackupImage::set_ship_cursor)).
    pub fn ship_cursor(core: usize) -> PmAddr {
        PmAddr(SHIP_BASE + core as u64 * 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_load_round_trip() {
        let pm = PmRegion::new(8 << 20);
        let sb = Superblock::new(&pm);
        sb.format(7, 42);
        assert_eq!(sb.load().unwrap(), (7, 42));
        assert!(!sb.is_clean());
        sb.set_clean(true);
        assert!(sb.is_clean());
        sb.set_snapshot(PmAddr(0x40_0000), 123);
        assert_eq!(sb.snapshot(), Some((PmAddr(0x40_0000), 123)));
        sb.set_snapshot(PmAddr::NULL, 0);
        assert_eq!(sb.snapshot(), None);
    }

    #[test]
    fn load_rejects_garbage() {
        let pm = PmRegion::new(1 << 20);
        assert!(matches!(
            Superblock::new(&pm).load(),
            Err(StoreError::BadImage(_))
        ));
    }

    #[test]
    fn descriptors_have_private_cachelines() {
        let a = Superblock::log_desc(0);
        let b = Superblock::log_desc(1);
        assert_ne!(a.cacheline(), b.cacheline());
        assert!(a.is_aligned(64) && b.is_aligned(64));
        // They stay below the chunk pool for any realistic core count.
        assert!(Superblock::log_desc(60).offset() < SHIP_BASE);
        assert!(Superblock::ship_cursor(1024).offset() < POOL_BASE);
        assert_ne!(
            Superblock::log_desc(0).cacheline(),
            Superblock::ship_cursor(0).cacheline()
        );
    }
}
