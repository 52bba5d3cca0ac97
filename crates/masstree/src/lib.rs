//! A concurrent ordered index for FlatStore-M (paper §4.2).
//!
//! The paper deploys [Masstree] as FlatStore's shared, range-searchable
//! volatile index. Masstree is a trie of B+-trees keyed by 8-byte slices;
//! for the paper's fixed 8-byte keys the trie has exactly one layer, so the
//! structure degenerates to a single concurrent B+-tree — which is what this
//! crate implements. The synchronization uses per-node `std` reader/writer
//! locks with hand-over-hand coupling and *preemptive splits* (a full child
//! is split while its parent is still locked, so splits never propagate
//! upwards), a simplification of Masstree's version-validation protocol that
//! preserves its interface and linearizability, if not its lock-freedom on
//! reads.
//!
//! [Masstree]: https://dl.acm.org/doi/10.1145/2168836.2168855
//!
//! # Example
//!
//! ```
//! use masstree::Masstree;
//!
//! let t = Masstree::new();
//! t.insert(10, 100);
//! t.insert(5, 50);
//! t.insert(7, 70);
//! assert_eq!(t.get(7), Some(70));
//! let mut keys = vec![];
//! t.range(6, 11, &mut |k, _| { keys.push(k); true });
//! assert_eq!(keys, vec![7, 10]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Per-node fanout: a full node holds this many keys.
const FANOUT: usize = 32;

type NodeRef = Arc<RwLock<Node>>;

#[derive(Debug)]
enum Node {
    Inner {
        /// Child index for `key` = `keys.partition_point(|k| key >= *k)`.
        keys: Vec<u64>,
        children: Vec<NodeRef>,
    },
    Leaf {
        keys: Vec<u64>,
        vals: Vec<u64>,
        next: Option<NodeRef>,
    },
}

impl Node {
    fn is_full(&self) -> bool {
        match self {
            Node::Inner { keys, .. } | Node::Leaf { keys, .. } => keys.len() >= FANOUT,
        }
    }

    /// Splits a full node, returning `(separator, right_sibling)`. The
    /// upper half moves into the new right sibling, which a leaf links in
    /// right after itself.
    fn split(&mut self) -> (u64, NodeRef) {
        match self {
            Node::Leaf { keys, vals, next } => {
                let mid = keys.len() / 2;
                let rkeys = keys.split_off(mid);
                let rvals = vals.split_off(mid);
                let sep = rkeys[0];
                let right = Arc::new(RwLock::new(Node::Leaf {
                    keys: rkeys,
                    vals: rvals,
                    next: next.take(),
                }));
                *next = Some(Arc::clone(&right));
                (sep, right)
            }
            Node::Inner { keys, children } => {
                let mid = keys.len() / 2;
                let sep = keys[mid];
                let rkeys = keys.split_off(mid + 1);
                keys.pop();
                let rchildren = children.split_off(mid + 1);
                let right = Arc::new(RwLock::new(Node::Inner {
                    keys: rkeys,
                    children: rchildren,
                }));
                (sep, right)
            }
        }
    }
}

// Locks never poison. A node is write-locked only by this crate's own
// code, which calls out to none and cannot panic part-way through an
// update (allocation failure aborts), so a node a panicking thread held
// is still consistent.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Descends from the read-locked `node` to `key`'s leaf hand over hand —
/// each child is locked before its parent is released — and runs
/// `at_leaf` on the leaf's keys, values and successor. Each level is one
/// stack frame, which owns the child `Arc` its guard borrows.
fn read_leaf<R>(
    node: RwLockReadGuard<'_, Node>,
    key: u64,
    at_leaf: impl FnOnce(&[u64], &[u64], &Option<NodeRef>) -> R,
) -> R {
    let child = match &*node {
        Node::Leaf { keys, vals, next } => return at_leaf(keys, vals, next),
        Node::Inner { keys, children } => {
            Arc::clone(&children[keys.partition_point(|&k| key >= k)])
        }
    };
    let guard = read(&child);
    drop(node);
    read_leaf(guard, key, at_leaf)
}

/// Descends from the write-locked, non-full `node` to `key`'s leaf hand
/// over hand and runs `at_leaf` on the leaf's keys and values. A full
/// child is split before the descent enters it, while its parent is
/// still locked (a *preemptive split*), so a split never climbs back up.
fn write_leaf<R>(
    mut node: RwLockWriteGuard<'_, Node>,
    key: u64,
    at_leaf: impl FnOnce(&mut Vec<u64>, &mut Vec<u64>) -> R,
) -> R {
    let (keys, children) = match &mut *node {
        Node::Leaf { keys, vals, .. } => return at_leaf(keys, vals),
        Node::Inner { keys, children } => (keys, children),
    };
    let idx = keys.partition_point(|&k| key >= k);
    let child = Arc::clone(&children[idx]);
    let mut guard = write(&child);
    if guard.is_full() {
        let (sep, right) = guard.split();
        keys.insert(idx, sep);
        children.insert(idx + 1, Arc::clone(&right));
        if key >= sep {
            drop(guard);
            let guard = write(&right);
            drop(node);
            return write_leaf(guard, key, at_leaf);
        }
    }
    drop(node);
    write_leaf(guard, key, at_leaf)
}

/// The concurrent ordered index. All operations take `&self`; the structure
/// is `Send + Sync` and is shared by all of FlatStore's server cores.
pub struct Masstree {
    /// Lock order everywhere: the root holder before any node, parents
    /// before children. A range scan holds one leaf at a time.
    root: RwLock<NodeRef>,
    len: AtomicUsize,
}

impl std::fmt::Debug for Masstree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Masstree")
            .field("len", &self.len())
            .finish()
    }
}

impl Default for Masstree {
    fn default() -> Self {
        Self::new()
    }
}

impl Masstree {
    /// Creates an empty tree.
    pub fn new() -> Masstree {
        Masstree {
            root: RwLock::new(Arc::new(RwLock::new(Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
            }))),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` on the write-locked root node, growing the tree first if
    /// the root is full, so descents below never have to split upwards.
    ///
    /// The holder stays read-locked until the root node is locked, and
    /// replacing the root takes both the holder's write lock and the old
    /// root's, so the node `f` gets stays the true root while `f` runs.
    fn with_root_write<R>(&self, f: impl FnOnce(RwLockWriteGuard<'_, Node>) -> R) -> R {
        loop {
            {
                let holder = read(&self.root);
                let root = Arc::clone(&holder);
                let guard = write(&root);
                drop(holder);
                if !guard.is_full() {
                    return f(guard);
                }
            }
            // Grow the tree.
            let mut holder = write(&self.root);
            let root = Arc::clone(&holder);
            let mut guard = write(&root);
            if guard.is_full() {
                let (sep, right) = guard.split();
                drop(guard);
                *holder = Arc::new(RwLock::new(Node::Inner {
                    keys: vec![sep],
                    children: vec![root, right],
                }));
            }
        }
    }

    /// Runs `f` on the read-locked root node (same holder-then-node order).
    fn with_root_read<R>(&self, f: impl FnOnce(RwLockReadGuard<'_, Node>) -> R) -> R {
        let holder = read(&self.root);
        let root = Arc::clone(&holder);
        let guard = read(&root);
        drop(holder);
        f(guard)
    }

    /// Inserts or updates `key`, returning the previous value if any.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        self.with_root_write(|root| {
            write_leaf(root, key, |keys, vals| match keys.binary_search(&key) {
                Ok(i) => Some(std::mem::replace(&mut vals[i], value)),
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, value);
                    self.len.fetch_add(1, Ordering::Relaxed);
                    None
                }
            })
        })
    }

    /// Looks up `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.with_root_read(|root| {
            read_leaf(root, key, |keys, vals, _| {
                keys.binary_search(&key).ok().map(|i| vals[i])
            })
        })
    }

    /// Removes `key`, returning its value if present. Leaves are not
    /// rebalanced (deletion-heavy workloads are outside the paper's
    /// evaluation; the tree stays correct, merely sparser).
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.with_root_write(|root| {
            write_leaf(root, key, |keys, vals| {
                let i = keys.binary_search(&key).ok()?;
                keys.remove(i);
                self.len.fetch_sub(1, Ordering::Relaxed);
                Some(vals.remove(i))
            })
        })
    }

    /// Atomically replaces `key`'s value with `new` iff it currently equals
    /// `old` — the log cleaner's pointer-update primitive (paper §3.4).
    /// Returns whether the swap happened.
    pub fn cas(&self, key: u64, old: u64, new: u64) -> bool {
        self.with_root_write(|root| {
            write_leaf(root, key, |keys, vals| match keys.binary_search(&key) {
                Ok(i) if vals[i] == old => {
                    vals[i] = new;
                    true
                }
                _ => false,
            })
        })
    }

    /// Visits `(key, value)` pairs with `lo <= key < hi` in ascending order
    /// until `f` returns `false`.
    ///
    /// The scan descends to `lo`'s leaf, then walks the leaf chain holding
    /// one leaf at a time: it reads the leaf, takes its `next`, unlocks it
    /// and only then locks `next`. A key present for the whole scan is
    /// still visited exactly once, in order, because a split moves keys
    /// only rightward, into a sibling linked right after the split leaf,
    /// and leaves are never unlinked (remove does not merge). A leaf that
    /// splits after the scan read it hands the scan its old `next`, past
    /// the keys it already visited; one that split before holds none of
    /// them. Keys inserted or removed during the scan may or may not be
    /// seen.
    pub fn range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, u64) -> bool) {
        // Visits one leaf; returns the leaf to read next, if the scan goes on.
        let mut visit = |keys: &[u64], vals: &[u64], next: &Option<NodeRef>| {
            for (&k, &v) in keys.iter().zip(vals) {
                if k >= hi || (k >= lo && !f(k, v)) {
                    return None;
                }
            }
            next.clone()
        };
        let mut next = self.with_root_read(|root| read_leaf(root, lo, &mut visit));
        while let Some(leaf) = next {
            let guard = read(&leaf);
            let Node::Leaf {
                keys,
                vals,
                next: after,
            } = &*guard
            else {
                unreachable!("leaf chain holds only leaves")
            };
            next = visit(keys, vals, after);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let t = Masstree::new();
        for k in 0..10_000u64 {
            assert_eq!(t.insert(k, k * 2), None);
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(k), Some(k * 2));
        }
        assert_eq!(t.remove(5000), Some(10_000));
        assert_eq!(t.get(5000), None);
        assert_eq!(t.remove(5000), None);
        assert_eq!(t.len(), 9999);
    }

    #[test]
    fn reverse_and_random_insert_order() {
        let t = Masstree::new();
        for k in (0..5000u64).rev() {
            t.insert(k, k);
        }
        for k in 0..5000u64 {
            assert_eq!(t.get(k), Some(k));
        }
        let t = Masstree::new();
        for k in 0..5000u64 {
            let k = k.wrapping_mul(0x9E3779B97F4A7C15);
            t.insert(k, !k);
        }
        for k in 0..5000u64 {
            let k = k.wrapping_mul(0x9E3779B97F4A7C15);
            assert_eq!(t.get(k), Some(!k));
        }
    }

    #[test]
    fn update_returns_old() {
        let t = Masstree::new();
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(1, 20), Some(10));
        assert_eq!(t.get(1), Some(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn range_scan_sorted_and_bounded() {
        let t = Masstree::new();
        for k in (0..4000u64).rev() {
            t.insert(k * 3, k);
        }
        let mut seen = Vec::new();
        t.range(100, 1000, &mut |k, _| {
            seen.push(k);
            true
        });
        let expect: Vec<u64> = (100..1000).filter(|k| k % 3 == 0).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn range_early_stop() {
        let t = Masstree::new();
        for k in 0..1000u64 {
            t.insert(k, k);
        }
        let mut n = 0;
        t.range(0, 1000, &mut |_, _| {
            n += 1;
            n < 17
        });
        assert_eq!(n, 17);
    }

    #[test]
    fn cas_semantics() {
        let t = Masstree::new();
        t.insert(9, 90);
        assert!(!t.cas(9, 91, 99));
        assert!(t.cas(9, 90, 99));
        assert_eq!(t.get(9), Some(99));
        assert!(!t.cas(404, 0, 1));
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let t = Arc::new(Masstree::new());
        let threads = 8u64;
        let per = 3000u64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = tid * per + i;
                    t.insert(k, k + 1);
                    // Interleave reads of our own writes.
                    assert_eq!(t.get(k), Some(k + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), (threads * per) as usize);
        let mut count = 0u64;
        let mut prev = None;
        t.range(0, u64::MAX, &mut |k, v| {
            assert_eq!(v, k + 1);
            if let Some(p) = prev {
                assert!(k > p, "range out of order");
            }
            prev = Some(k);
            count += 1;
            true
        });
        assert_eq!(count, threads * per);
    }

    #[test]
    fn concurrent_mixed_workload_with_scans() {
        // The even keys are present throughout. The mixers insert the odd
        // keys, splitting leaves under the scanners, whose full scans must
        // each report every even key exactly once, strictly ascending.
        const EVENS: u64 = 50_000;
        let t = Masstree::new();
        for k in 0..EVENS {
            t.insert(2 * k, 0);
        }
        let done = std::sync::atomic::AtomicBool::new(false);
        let scans = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let stop = done.load(Ordering::Acquire);
                    let mut evens = 0;
                    let mut prev = None;
                    t.range(0, u64::MAX, &mut |k, _| {
                        assert!(prev < Some(k), "scan visited {k} after {prev:?}");
                        prev = Some(k);
                        if k % 2 == 0 {
                            assert_eq!(k, 2 * evens, "scan skipped an even key");
                            evens += 1;
                        }
                        true
                    });
                    assert_eq!(evens, EVENS);
                    scans.fetch_add(1, Ordering::Relaxed);
                    if stop {
                        return;
                    }
                });
            }
            let mixers: Vec<_> = (0..4u64)
                .map(|tid| {
                    let t = &t;
                    s.spawn(move || {
                        for i in 0..EVENS {
                            let odd = 2 * i + 1;
                            match (i + tid) % 4 {
                                0 => {
                                    assert_eq!(t.insert(odd, tid), None);
                                }
                                1 => {
                                    t.get(odd);
                                }
                                2 => {
                                    let mut n = 0;
                                    t.range(odd, odd + 50, &mut |_, _| {
                                        n += 1;
                                        n < 20
                                    });
                                }
                                _ => {
                                    t.cas(2 * i, tid, tid + 1);
                                }
                            }
                        }
                    })
                })
                .collect();
            for m in mixers {
                m.join().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(t.len(), 2 * EVENS as usize);
        assert!(scans.load(Ordering::Relaxed) >= 2);
    }
}
