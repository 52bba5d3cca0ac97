//! FAST&FAIR (Hwang et al., FAST '18), reimplemented as a FlatStore
//! comparison baseline.
//!
//! A B+-tree whose nodes all live in PM (paper Table 1). Inserts shift the
//! sorted in-node entries with 8-byte stores and flush every touched
//! cacheline — no logging, readers tolerate the transient states. Splits
//! copy half a node out of place and link siblings (FAIR). This shift/split
//! traffic is the tree-side write amplification FlatStore's append-only log
//! eliminates.
//!
//! Simplifications vs. the original (documented for the reproduction): a
//! persistent entry count replaces NULL-terminated scanning (our engine
//! serializes writers per structure, so lock-free readers are not needed),
//! and deletion does not rebalance (sparse nodes remain valid; the paper's
//! evaluation is insert/lookup-dominated).

use std::sync::Arc;

use pmem::{PmAddr, PmRegion, CACHELINE};

use crate::common::{Mode, Store, EMPTY};
use crate::error::IndexError;
use crate::traits::{Index, OrderedIndex};

const NODE_LEN: u64 = 512;
const HDR_LEN: u64 = 32;
/// (512 − 32) / 16 = 30 entries per node.
const CAP: u16 = 30;

const OFF_IS_LEAF: u64 = 0;
const OFF_COUNT: u64 = 2;
const OFF_SIBLING: u64 = 8; // leaf: right sibling; inner: unused
const OFF_LEFTMOST: u64 = 16; // inner: child for keys < key[0]
const OFF_ENTRIES: u64 = HDR_LEN;

/// A FAST&FAIR B+-tree over a PM arena.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pmem::{PmRegion, PmAddr};
/// use indexes::{FastFair, Index, OrderedIndex, Mode};
///
/// let pm = Arc::new(PmRegion::new(1 << 22));
/// let mut t = FastFair::new(pm, PmAddr(0), 1 << 22, Mode::Persistent)?;
/// for k in [5u64, 1, 9] { t.insert(k, k * 2)?; }
/// let mut seen = vec![];
/// t.range(0, 10, &mut |k, _| { seen.push(k); true });
/// assert_eq!(seen, vec![1, 5, 9]);
/// # Ok::<(), indexes::IndexError>(())
/// ```
pub struct FastFair {
    store: Store,
    root: PmAddr,
    len: usize,
}

impl std::fmt::Debug for FastFair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastFair")
            .field("root", &self.root)
            .field("len", &self.len)
            .finish()
    }
}

struct NodeRef(PmAddr);

impl FastFair {
    /// Creates a tree in `[base, base+len)` of `pm`.
    ///
    /// # Errors
    ///
    /// [`IndexError::OutOfSpace`] if the arena cannot hold the root node.
    pub fn new(
        pm: Arc<PmRegion>,
        base: PmAddr,
        len: u64,
        mode: Mode,
    ) -> Result<FastFair, IndexError> {
        let mut store = Store::new(pm, base, len, mode);
        let root = Self::fresh_node(&mut store, true)?;
        Ok(FastFair {
            store,
            root,
            len: 0,
        })
    }

    fn fresh_node(store: &mut Store, is_leaf: bool) -> Result<PmAddr, IndexError> {
        let addr = store.alloc(NODE_LEN)?;
        store.pm.fill(addr, NODE_LEN as usize, 0);
        store.pm.write_u8(addr + OFF_IS_LEAF, is_leaf as u8);
        store.persist(addr, NODE_LEN as usize);
        Ok(addr)
    }

    #[inline]
    fn is_leaf(&self, n: PmAddr) -> bool {
        self.store.pm.read_u8(n + OFF_IS_LEAF) != 0
    }

    #[inline]
    fn count(&self, n: PmAddr) -> u16 {
        let mut b = [0u8; 2];
        self.store.pm.read(n + OFF_COUNT, &mut b);
        u16::from_le_bytes(b)
    }

    fn set_count(&self, n: PmAddr, c: u16) {
        // pmlint: allow(write-without-persist) — FAST&FAIR inserts persist
        // the whole node once per mutation at the call site, after the
        // shifted entries and the count are all in place.
        self.store.pm.write(n + OFF_COUNT, &c.to_le_bytes());
    }

    #[inline]
    fn entry_addr(n: PmAddr, i: u16) -> PmAddr {
        n + OFF_ENTRIES + i as u64 * 16
    }

    #[inline]
    fn entry(&self, n: PmAddr, i: u16) -> (u64, u64) {
        let a = Self::entry_addr(n, i);
        (self.store.pm.read_u64(a), self.store.pm.read_u64(a + 8))
    }

    fn write_entry(&self, n: PmAddr, i: u16, key: u64, val: u64) {
        let a = Self::entry_addr(n, i);
        // pmlint: allow(write-without-persist) — value before key is the
        // FAST ordering; callers flush the affected lines and fence once
        // per shift sequence (§FAST&FAIR), not per entry.
        self.store.pm.write_u64(a + 8, val);
        self.store.pm.write_u64(a, key);
    }

    /// Child of inner node `n` for `key`.
    fn child_for(&self, n: PmAddr, key: u64) -> PmAddr {
        let c = self.count(n);
        // Linear scan (nodes are one cacheline-friendly array).
        let mut child = self.store.pm.read_u64(n + OFF_LEFTMOST);
        for i in 0..c {
            let (k, v) = self.entry(n, i);
            if key >= k {
                child = v;
            } else {
                break;
            }
        }
        PmAddr(child)
    }

    /// Descends to the leaf for `key`, recording the path of inner nodes.
    fn descend(&self, key: u64) -> (PmAddr, Vec<PmAddr>) {
        let mut path = Vec::new();
        let mut n = self.root;
        while !self.is_leaf(n) {
            path.push(n);
            n = self.child_for(n, key);
        }
        (n, path)
    }

    /// Position of the first entry in `n` with key >= `key`.
    fn lower_bound(&self, n: PmAddr, key: u64) -> u16 {
        let c = self.count(n);
        for i in 0..c {
            if self.entry(n, i).0 >= key {
                return i;
            }
        }
        c
    }

    /// FAST in-node insertion: shift entries right with 8-byte stores,
    /// flushing each touched cacheline, then publish the count.
    fn insert_in_node(&mut self, n: PmAddr, key: u64, val: u64) {
        let c = self.count(n);
        debug_assert!(c < CAP);
        let pos = self.lower_bound(n, key);
        let mut i = c;
        while i > pos {
            let (k, v) = self.entry(n, i - 1);
            self.write_entry(n, i, k, v);
            i -= 1;
        }
        self.write_entry(n, pos, key, val);
        // Flush the dirtied span [pos .. c] plus the header line.
        let lo = Self::entry_addr(n, pos).align_down(CACHELINE);
        let hi = Self::entry_addr(n, c) + 16;
        self.store.flush(lo, (hi - lo) as usize);
        self.set_count(n, c + 1);
        self.store.flush(n, 8);
        self.store.fence();
    }

    /// Splits full node `n`; returns `(separator, new_right_node)`.
    fn split(&mut self, n: PmAddr) -> Result<(u64, PmAddr), IndexError> {
        let is_leaf = self.is_leaf(n);
        let right = Self::fresh_node(&mut self.store, is_leaf)?;
        let c = self.count(n);
        let mid = c / 2;
        let sep;
        let mut moved = 0u16;
        if is_leaf {
            sep = self.entry(n, mid).0;
            for i in mid..c {
                let (k, v) = self.entry(n, i);
                self.write_entry(right, moved, k, v);
                moved += 1;
            }
        } else {
            // Inner split: middle key moves up; its child becomes the new
            // node's leftmost.
            sep = self.entry(n, mid).0;
            let (_, mid_child) = self.entry(n, mid);
            self.store.pm.write_u64(right + OFF_LEFTMOST, mid_child);
            for i in (mid + 1)..c {
                let (k, v) = self.entry(n, i);
                self.write_entry(right, moved, k, v);
                moved += 1;
            }
        }
        self.set_count(right, moved);
        // Link sibling (FAIR) and persist the new node before shrinking the
        // old one.
        self.store
            .pm
            .write_u64(right + OFF_SIBLING, self.store.pm.read_u64(n + OFF_SIBLING));
        self.store.persist(right, NODE_LEN as usize);
        if is_leaf {
            self.store.pm.write_u64(n + OFF_SIBLING, right.offset());
            self.store.flush(n + OFF_SIBLING, 8);
        }
        self.set_count(n, mid);
        self.store.flush(n, 8);
        self.store.fence();
        Ok((sep, right))
    }

    fn insert_recursive(&mut self, key: u64, val: u64) -> Result<Option<u64>, IndexError> {
        let (leaf, path) = self.descend(key);
        // Existing key: in-place update.
        let pos = self.lower_bound(leaf, key);
        if pos < self.count(leaf) {
            let (k, v) = self.entry(leaf, pos);
            if k == key {
                self.store
                    .pm
                    .write_u64(Self::entry_addr(leaf, pos) + 8, val);
                self.store.persist(Self::entry_addr(leaf, pos) + 8, 8);
                return Ok(Some(v));
            }
        }
        // Split along the path bottom-up as needed.
        let mut target = leaf;
        if self.count(leaf) == CAP {
            let (sep, right) = self.split(leaf)?;
            self.insert_separator(&path, sep, right)?;
            // Re-descend: parents changed, and the key may now belong in
            // the new right node.
            target = self.descend(key).0;
            debug_assert!(self.count(target) < CAP);
        }
        self.insert_in_node(target, key, val);
        self.len += 1;
        Ok(None)
    }

    fn insert_separator(
        &mut self,
        path: &[PmAddr],
        mut sep: u64,
        mut right: PmAddr,
    ) -> Result<(), IndexError> {
        for &parent in path.iter().rev() {
            if self.count(parent) < CAP {
                self.insert_in_node(parent, sep, right.offset());
                return Ok(());
            }
            let (psep, pright) = self.split(parent)?;
            // Insert into the correct half.
            let target = if sep >= psep { pright } else { parent };
            self.insert_in_node(target, sep, right.offset());
            sep = psep;
            right = pright;
        }
        // Root split.
        let new_root = Self::fresh_node(&mut self.store, false)?;
        self.store
            .pm
            .write_u64(new_root + OFF_LEFTMOST, self.root.offset());
        self.write_entry(new_root, 0, sep, right.offset());
        self.set_count(new_root, 1);
        self.store.persist(new_root, NODE_LEN as usize);
        self.root = new_root;
        Ok(())
    }

    /// First leaf whose keys may reach `key`.
    fn leaf_for(&self, key: u64) -> PmAddr {
        self.descend(key).0
    }
}

impl Index for FastFair {
    fn insert(&mut self, key: u64, value: u64) -> Result<Option<u64>, IndexError> {
        if key == EMPTY {
            return Err(IndexError::ReservedKey);
        }
        self.insert_recursive(key, value)
    }

    fn get(&self, key: u64) -> Option<u64> {
        let leaf = self.leaf_for(key);
        let pos = self.lower_bound(leaf, key);
        if pos < self.count(leaf) {
            let (k, v) = self.entry(leaf, pos);
            if k == key {
                return Some(v);
            }
        }
        None
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let leaf = self.leaf_for(key);
        let c = self.count(leaf);
        let pos = self.lower_bound(leaf, key);
        if pos >= c || self.entry(leaf, pos).0 != key {
            return None;
        }
        let old = self.entry(leaf, pos).1;
        // FAIR shift-left with per-cacheline flushes.
        for i in pos..c - 1 {
            let (k, v) = self.entry(leaf, i + 1);
            self.write_entry(leaf, i, k, v);
        }
        let lo = Self::entry_addr(leaf, pos).align_down(CACHELINE);
        let hi = Self::entry_addr(leaf, c);
        self.store.flush(lo, (hi - lo).max(8) as usize);
        self.set_count(leaf, c - 1);
        self.store.flush(leaf, 8);
        self.store.fence();
        self.len -= 1;
        Some(old)
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

impl OrderedIndex for FastFair {
    fn range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, u64) -> bool) {
        let mut leaf = NodeRef(self.leaf_for(lo)).0;
        loop {
            let c = self.count(leaf);
            for i in 0..c {
                let (k, v) = self.entry(leaf, i);
                if k >= hi {
                    return;
                }
                if k >= lo && !f(k, v) {
                    return;
                }
            }
            let sib = self.store.pm.read_u64(leaf + OFF_SIBLING);
            if sib == 0 {
                return;
            }
            leaf = PmAddr(sib);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> FastFair {
        let pm = Arc::new(PmRegion::new(64 << 20));
        FastFair::new(pm, PmAddr(0), 64 << 20, Mode::Persistent).unwrap()
    }

    #[test]
    fn sorted_insert_get() {
        let mut t = tree();
        for k in 0..5000u64 {
            assert_eq!(t.insert(k, k + 1).unwrap(), None);
        }
        for k in 0..5000u64 {
            assert_eq!(t.get(k), Some(k + 1), "key {k}");
        }
        assert_eq!(t.get(5000), None);
    }

    #[test]
    fn random_insert_get_remove() {
        let mut t = tree();
        let mut keys: Vec<u64> = (0..5000u64)
            .map(|k| k.wrapping_mul(0x9E3779B97F4A7C15) >> 8)
            .collect();
        for &k in &keys {
            t.insert(k, k ^ 1).unwrap();
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(t.len(), keys.len());
        for &k in &keys {
            assert_eq!(t.get(k), Some(k ^ 1));
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(t.remove(k), Some(k ^ 1));
            assert_eq!(t.get(k), None);
        }
    }

    #[test]
    fn range_scan_is_sorted_and_bounded() {
        let mut t = tree();
        for k in (0..2000u64).rev() {
            t.insert(k * 2, k).unwrap();
        }
        let mut seen = Vec::new();
        t.range(100, 500, &mut |k, _| {
            seen.push(k);
            true
        });
        let expect: Vec<u64> = (100..500).filter(|k| k % 2 == 0).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn range_scan_early_stop() {
        let mut t = tree();
        for k in 0..100u64 {
            t.insert(k, k).unwrap();
        }
        let mut seen = 0;
        t.range(0, 100, &mut |_, _| {
            seen += 1;
            seen < 10
        });
        assert_eq!(seen, 10);
    }

    #[test]
    fn update_in_place() {
        let mut t = tree();
        t.insert(42, 1).unwrap();
        assert_eq!(t.insert(42, 2).unwrap(), Some(1));
        assert_eq!(t.get(42), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn shift_inserts_flush_more_than_appends() {
        // Inserting at the front of a near-full node dirties (and flushes)
        // more cachelines than appending at the back — FAST's signature
        // write pattern.
        let pm = Arc::new(PmRegion::new(8 << 20));
        let mut t = FastFair::new(Arc::clone(&pm), PmAddr(0), 8 << 20, Mode::Persistent).unwrap();
        for k in 10..38u64 {
            t.insert(k, k).unwrap();
        }
        let before = pm.stats().snapshot();
        t.insert(1, 1).unwrap(); // front insert: shifts 28 entries
        let front = pm.stats().snapshot().delta(&before).flushes;
        let before = pm.stats().snapshot();
        t.insert(40, 40).unwrap(); // back insert: shifts nothing
        let back = pm.stats().snapshot().delta(&before).flushes;
        assert!(front > back, "front {front} !> back {back}");
    }

    #[test]
    fn volatile_mode_never_flushes() {
        let pm = Arc::new(PmRegion::new(16 << 20));
        let mut t = FastFair::new(Arc::clone(&pm), PmAddr(0), 16 << 20, Mode::Volatile).unwrap();
        for k in 0..3000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(pm.stats().flushes(), 0);
    }
}
