//! FPTree (Oukid et al., SIGMOD '16), reimplemented as a FlatStore
//! comparison baseline.
//!
//! A hybrid B+-tree: **inner nodes live in DRAM** (rebuilt on recovery),
//! **leaves live in PM**. Each leaf keeps a one-byte *fingerprint* per slot
//! so lookups probe at most the matching slots, a presence *bitmap* whose
//! 8-byte atomic update commits an insert, and unsorted slots so inserts
//! never shift data (paper Table 1 / FlatStore §2.2). A Put costs two small
//! persists (slot+fingerprint, then bitmap); a split copies half the leaf
//! out of place.

use std::sync::Arc;

use pmem::{PmAddr, PmRegion};

use crate::common::{hash64, Mode, Store, EMPTY};
use crate::error::IndexError;
use crate::traits::{Index, OrderedIndex};

const LEAF_SLOTS: u16 = 28;
const LEAF_LEN: u64 = 64 + LEAF_SLOTS as u64 * 16; // 512 B
const OFF_BITMAP: u64 = 0;
const OFF_NEXT: u64 = 8;
const OFF_FPS: u64 = 16; // 28 fingerprint bytes
const OFF_SLOTS: u64 = 64;

/// DRAM inner fanout.
const INNER_FANOUT: usize = 16;

#[inline]
fn fingerprint(key: u64) -> u8 {
    (hash64(key) & 0xFF) as u8
}

/// A DRAM inner node: `children[i]` covers keys < `keys[i]`; the last child
/// covers the rest.
#[derive(Debug)]
struct Inner {
    keys: Vec<u64>,
    children: Vec<Child>,
}

#[derive(Debug)]
enum Child {
    Inner(Box<Inner>),
    Leaf(PmAddr),
}

/// An FPTree over a PM arena (leaves) and the Rust heap (inner nodes).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pmem::{PmRegion, PmAddr};
/// use indexes::{FpTree, Index, OrderedIndex, Mode};
///
/// let pm = Arc::new(PmRegion::new(1 << 22));
/// let mut t = FpTree::new(pm, PmAddr(0), 1 << 22, Mode::Persistent)?;
/// t.insert(3, 33)?;
/// t.insert(1, 11)?;
/// let mut keys = vec![];
/// t.range(0, 10, &mut |k, _| { keys.push(k); true });
/// assert_eq!(keys, vec![1, 3]);
/// # Ok::<(), indexes::IndexError>(())
/// ```
pub struct FpTree {
    store: Store,
    root: Child,
    len: usize,
}

impl std::fmt::Debug for FpTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FpTree").field("len", &self.len).finish()
    }
}

impl FpTree {
    /// Creates a tree in `[base, base+len)` of `pm`.
    ///
    /// # Errors
    ///
    /// [`IndexError::OutOfSpace`] if the arena cannot hold the first leaf.
    pub fn new(
        pm: Arc<PmRegion>,
        base: PmAddr,
        len: u64,
        mode: Mode,
    ) -> Result<FpTree, IndexError> {
        let mut store = Store::new(pm, base, len, mode);
        let leaf = Self::fresh_leaf(&mut store)?;
        Ok(FpTree {
            store,
            root: Child::Leaf(leaf),
            len: 0,
        })
    }

    fn fresh_leaf(store: &mut Store) -> Result<PmAddr, IndexError> {
        let addr = store.alloc(LEAF_LEN)?;
        store.pm.fill(addr, LEAF_LEN as usize, 0);
        store.persist(addr, LEAF_LEN as usize);
        Ok(addr)
    }

    #[inline]
    fn bitmap(&self, leaf: PmAddr) -> u64 {
        self.store.pm.read_u64(leaf + OFF_BITMAP)
    }

    #[inline]
    fn slot_addr(leaf: PmAddr, i: u16) -> PmAddr {
        leaf + OFF_SLOTS + i as u64 * 16
    }

    #[inline]
    fn slot(&self, leaf: PmAddr, i: u16) -> (u64, u64) {
        let a = Self::slot_addr(leaf, i);
        (self.store.pm.read_u64(a), self.store.pm.read_u64(a + 8))
    }

    /// Finds `key` in `leaf` using the fingerprint filter.
    fn find_slot(&self, leaf: PmAddr, key: u64) -> Option<u16> {
        let bm = self.bitmap(leaf);
        let fp = fingerprint(key);
        for i in 0..LEAF_SLOTS {
            if bm & (1 << i) == 0 {
                continue;
            }
            if self.store.pm.read_u8(leaf + OFF_FPS + i as u64) != fp {
                continue;
            }
            if self.slot(leaf, i).0 == key {
                return Some(i);
            }
        }
        None
    }

    fn leaf_for(root: &Child, key: u64) -> PmAddr {
        let mut node = root;
        loop {
            match node {
                Child::Leaf(a) => return *a,
                Child::Inner(inner) => {
                    let idx = inner.keys.partition_point(|&k| key >= k);
                    node = &inner.children[idx];
                }
            }
        }
    }

    /// Splits `leaf`, returning `(separator, right_leaf)`.
    fn split_leaf(&mut self, leaf: PmAddr) -> Result<(u64, PmAddr), IndexError> {
        let right = Self::fresh_leaf(&mut self.store)?;
        let bm = self.bitmap(leaf);
        let mut keys: Vec<(u64, u16)> = (0..LEAF_SLOTS)
            .filter(|i| bm & (1 << i) != 0)
            .map(|i| (self.slot(leaf, i).0, i))
            .collect();
        keys.sort_unstable();
        let mid = keys.len() / 2;
        let sep = keys[mid].0;
        // Copy the upper half into the new leaf (out-of-place).
        let mut new_bm = 0u64;
        for (j, &(k, i)) in keys[mid..].iter().enumerate() {
            let (_, v) = self.slot(leaf, i);
            let a = Self::slot_addr(right, j as u16);
            self.store.pm.write_u64(a, k);
            self.store.pm.write_u64(a + 8, v);
            self.store
                .pm
                .write_u8(right + OFF_FPS + j as u64, fingerprint(k));
            new_bm |= 1 << j;
        }
        self.store
            .pm
            .write_u64(right + OFF_NEXT, self.store.pm.read_u64(leaf + OFF_NEXT));
        self.store.pm.write_u64(right + OFF_BITMAP, new_bm);
        self.store.persist(right, LEAF_LEN as usize);
        // Link, then atomically clear the moved slots from the old bitmap.
        self.store.pm.write_u64(leaf + OFF_NEXT, right.offset());
        self.store.flush(leaf + OFF_NEXT, 8);
        let mut old_bm = bm;
        for &(_, i) in &keys[mid..] {
            old_bm &= !(1 << i);
        }
        self.store.pm.write_u64(leaf + OFF_BITMAP, old_bm);
        self.store.flush(leaf + OFF_BITMAP, 8);
        self.store.fence();
        Ok((sep, right))
    }

    /// Inserts `(sep, right)` into the DRAM inner path above the split leaf.
    fn insert_inner(root: &mut Child, key: u64, sep: u64, right: PmAddr) {
        // Recursive DRAM-only insert; splits inner nodes at fanout.
        fn rec(node: &mut Child, key: u64, sep: u64, right: PmAddr) -> Option<(u64, Child)> {
            match node {
                Child::Leaf(_) => {
                    // Replace the leaf with an inner node of two children.
                    let old = std::mem::replace(node, Child::Leaf(PmAddr::NULL));
                    *node = Child::Inner(Box::new(Inner {
                        keys: vec![sep],
                        children: vec![old, Child::Leaf(right)],
                    }));
                    None
                }
                Child::Inner(inner) => {
                    let idx = inner.keys.partition_point(|&k| key >= k);
                    let promoted = match &mut inner.children[idx] {
                        c @ Child::Leaf(_) => {
                            let _ = c;
                            inner.keys.insert(idx, sep);
                            inner.children.insert(idx + 1, Child::Leaf(right));
                            None
                        }
                        c @ Child::Inner(_) => rec(c, key, sep, right),
                    };
                    if let Some((k, child)) = promoted {
                        let idx = inner.keys.partition_point(|&ik| k >= ik);
                        inner.keys.insert(idx, k);
                        inner.children.insert(idx + 1, child);
                    }
                    if inner.keys.len() >= INNER_FANOUT {
                        let mid = inner.keys.len() / 2;
                        let up = inner.keys[mid];
                        let right_keys = inner.keys.split_off(mid + 1);
                        inner.keys.pop();
                        let right_children = inner.children.split_off(mid + 1);
                        return Some((
                            up,
                            Child::Inner(Box::new(Inner {
                                keys: right_keys,
                                children: right_children,
                            })),
                        ));
                    }
                    None
                }
            }
        }
        if let Some((k, new_child)) = rec(root, key, sep, right) {
            let old = std::mem::replace(root, Child::Leaf(PmAddr::NULL));
            *root = Child::Inner(Box::new(Inner {
                keys: vec![k],
                children: vec![old, new_child],
            }));
        }
    }
}

impl Index for FpTree {
    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>, IndexError> {
        if key == EMPTY {
            return Err(IndexError::ReservedKey);
        }
        loop {
            let leaf = Self::leaf_for(&self.root, key);
            if let Some(i) = self.find_slot(leaf, key) {
                let a = Self::slot_addr(leaf, i) + 8;
                let old = self.store.pm.read_u64(a);
                self.store.pm.write_u64(a, value);
                self.store.persist(a, 8);
                return Ok(Some(old));
            }
            let bm = self.bitmap(leaf);
            let free = (!bm).trailing_zeros() as u16;
            if free < LEAF_SLOTS {
                // Slot + fingerprint, flush, fence, then the atomic bitmap
                // publish, flush, fence — FPTree's two-persist insert.
                let a = Self::slot_addr(leaf, free);
                self.store.pm.write_u64(a, key);
                self.store.pm.write_u64(a + 8, value);
                self.store
                    .pm
                    .write_u8(leaf + OFF_FPS + free as u64, fingerprint(key));
                self.store.flush(a, 16);
                self.store.flush(leaf + OFF_FPS + free as u64, 1);
                self.store.fence();
                self.store.pm.write_u64(leaf + OFF_BITMAP, bm | (1 << free));
                self.store.persist(leaf + OFF_BITMAP, 8);
                self.len += 1;
                return Ok(None);
            }
            let (sep, right) = self.split_leaf(leaf)?;
            Self::insert_inner(&mut self.root, key, sep, right);
        }
    }

    fn get(&self, key: u64) -> Option<u64> {
        let leaf = Self::leaf_for(&self.root, key);
        self.find_slot(leaf, key).map(|i| self.slot(leaf, i).1)
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let leaf = Self::leaf_for(&self.root, key);
        let i = self.find_slot(leaf, key)?;
        let v = self.slot(leaf, i).1;
        let bm = self.bitmap(leaf) & !(1 << i);
        self.store.pm.write_u64(leaf + OFF_BITMAP, bm);
        self.store.persist(leaf + OFF_BITMAP, 8);
        self.len -= 1;
        Some(v)
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        self.range(0, u64::MAX, &mut |k, v| {
            f(k, v);
            true
        });
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl OrderedIndex for FpTree {
    fn range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, u64) -> bool) {
        // Leaves are unsorted internally: walk the chain, sorting each
        // leaf's live slots (as the original does for scans).
        let mut leaf = Self::leaf_for(&self.root, lo);
        loop {
            let bm = self.bitmap(leaf);
            let mut items: Vec<(u64, u64)> = (0..LEAF_SLOTS)
                .filter(|i| bm & (1 << i) != 0)
                .map(|i| self.slot(leaf, i))
                .filter(|(k, _)| *k >= lo && *k < hi)
                .collect();
            items.sort_unstable();
            for (k, v) in items {
                if !f(k, v) {
                    return;
                }
            }
            // Stop when this leaf's max key reaches hi.
            let max_key = (0..LEAF_SLOTS)
                .filter(|i| bm & (1 << i) != 0)
                .map(|i| self.slot(leaf, i).0)
                .max();
            if max_key.is_some_and(|m| m >= hi) {
                return;
            }
            let next = self.store.pm.read_u64(leaf + OFF_NEXT);
            if next == 0 {
                return;
            }
            leaf = PmAddr(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> FpTree {
        let pm = Arc::new(PmRegion::new(64 << 20));
        FpTree::new(pm, PmAddr(0), 64 << 20, Mode::Persistent).unwrap()
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = tree();
        for k in 0..5000u64 {
            assert_eq!(t.insert(k, k * 3).unwrap(), None);
        }
        for k in 0..5000u64 {
            assert_eq!(t.get(k), Some(k * 3), "key {k}");
        }
        assert_eq!(t.remove(123), Some(369));
        assert_eq!(t.get(123), None);
        assert_eq!(t.remove(123), None);
        assert_eq!(t.len(), 4999);
    }

    #[test]
    fn random_order_inserts() {
        let mut t = tree();
        let keys: Vec<u64> = (0..8000u64)
            .map(|k| k.wrapping_mul(0x9E3779B97F4A7C15) >> 4)
            .collect();
        for &k in &keys {
            t.insert(k, !k).unwrap();
        }
        for &k in &keys {
            assert_eq!(t.get(k), Some(!k));
        }
    }

    #[test]
    fn range_scan_sorted_across_leaves() {
        let mut t = tree();
        for k in (0..3000u64).rev() {
            t.insert(k, k).unwrap();
        }
        let mut seen = Vec::new();
        t.range(500, 1500, &mut |k, _| {
            seen.push(k);
            true
        });
        assert_eq!(seen, (500..1500).collect::<Vec<_>>());
    }

    #[test]
    fn insert_is_two_persist_ops() {
        let pm = Arc::new(PmRegion::new(8 << 20));
        let mut t = FpTree::new(Arc::clone(&pm), PmAddr(0), 8 << 20, Mode::Persistent).unwrap();
        t.insert(1, 1).unwrap(); // warm the leaf
        let before = pm.stats().snapshot();
        t.insert(2, 2).unwrap();
        let d = pm.stats().snapshot().delta(&before);
        assert_eq!(d.fences, 2, "slot persist + bitmap persist");
        assert!(d.flushes <= 3);
    }

    #[test]
    fn update_in_place_returns_old() {
        let mut t = tree();
        t.insert(9, 1).unwrap();
        assert_eq!(t.insert(9, 2).unwrap(), Some(1));
        assert_eq!(t.get(9), Some(2));
    }

    #[test]
    fn volatile_mode_never_flushes() {
        let pm = Arc::new(PmRegion::new(16 << 20));
        let mut t = FpTree::new(Arc::clone(&pm), PmAddr(0), 16 << 20, Mode::Volatile).unwrap();
        for k in 0..3000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(pm.stats().flushes(), 0);
    }
}
