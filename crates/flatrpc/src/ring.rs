//! A bounded single-producer / single-consumer ring — the shared-memory
//! stand-in for an RDMA-written message buffer.
//!
//! The happens-before protocol, checked on this source by
//! `racecheck_tests::three_messages_through_one_slot`:
//! * producer → consumer: the slot write is published by the `Release`
//!   store on `tail` and observed through the consumer's `Acquire` load;
//! * consumer → producer: the slot read is published by the `Release`
//!   store on `head`, so a producer that sees the freed slot via its
//!   `Acquire` load may overwrite it.

use racecheck::sync::atomic::{AtomicUsize, Ordering};
use racecheck::sync::RaceCell;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::sync::Arc;

/// Pads and aligns a value to 128 bytes so the producer's and the
/// consumer's index never share a cacheline (two 64 B lines: safe
/// against the adjacent-line spatial prefetcher).
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

struct Inner<T> {
    head: CachePadded<AtomicUsize>, // next slot to pop
    tail: CachePadded<AtomicUsize>, // next slot to push
    slots: Box<[RaceCell<MaybeUninit<T>>]>,
}

// SAFETY: slots are accessed exclusively by the single producer (tail side)
// or the single consumer (head side), synchronized through the indices.
unsafe impl<T: Send> Sync for Inner<T> {}

/// Creates a connected SPSC ring of `capacity` messages.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let mut slots = Vec::with_capacity(capacity + 1);
    slots.resize_with(capacity + 1, || {
        RaceCell::named("ring.slot", MaybeUninit::uninit())
    });
    let inner = Arc::new(Inner {
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        slots: slots.into_boxed_slice(),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
        },
        Consumer { inner },
    )
}

/// The writing end (one per sender).
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
}

/// The polling end (one per receiver).
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Producer<T> {
    /// Pushes a message; returns it back if the ring is full (the caller
    /// retries — RDMA senders see the same backpressure when a message
    /// buffer has no credits).
    pub fn push(&self, value: T) -> Result<(), T> {
        let inner = &self.inner;
        // pmlint: allow(relaxed-ordering) — the producer is `tail`'s only
        // writer, so program order suffices for its own index (racecheck
        // `ring::racecheck_tests`).
        let tail = inner.tail.load(Ordering::Relaxed);
        let next = (tail + 1) % inner.slots.len();
        if next == inner.head.load(Ordering::Acquire) {
            return Err(value);
        }
        // SAFETY: slot `tail` is owned by the producer until tail is
        // published, and the Acquire load of `head` above ordered us
        // after the consumer's read of its previous message.
        unsafe { inner.slots[tail].with_mut(|slot| *slot = MaybeUninit::new(value)) };
        inner.tail.store(next, Ordering::Release);
        Ok(())
    }

    /// Pushes, spinning until space is available.
    pub fn push_blocking(&self, mut value: T) {
        loop {
            match self.push(value) {
                Ok(()) => return,
                Err(v) => {
                    value = v;
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Messages currently queued (approximate under concurrency: the two
    /// indices are read independently).
    pub fn len(&self) -> usize {
        occupancy(&self.inner)
    }

    /// Whether the ring currently holds no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn occupancy<T>(inner: &Inner<T>) -> usize {
    let head = inner.head.load(Ordering::Acquire);
    let tail = inner.tail.load(Ordering::Acquire);
    (tail + inner.slots.len() - head) % inner.slots.len()
}

impl<T> Consumer<T> {
    /// Polls one message.
    pub fn pop(&self) -> Option<T> {
        let inner = &self.inner;
        // pmlint: allow(relaxed-ordering) — the consumer is `head`'s only
        // writer, so program order suffices for its own index (racecheck
        // `ring::racecheck_tests`).
        let head = inner.head.load(Ordering::Relaxed);
        if head == inner.tail.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: slot `head` was fully written before tail was published,
        // and the producer leaves it alone until `head` moves past it.
        let value = unsafe { inner.slots[head].with(|slot| slot.assume_init_read()) };
        inner
            .head
            .store((head + 1) % inner.slots.len(), Ordering::Release);
        Some(value)
    }

    /// Whether a message is waiting.
    pub fn is_empty(&self) -> bool {
        // pmlint: allow(relaxed-ordering) — `head` is this consumer's own
        // index; only `tail` needs Acquire to order the slot read.
        self.inner.head.load(Ordering::Relaxed) == self.inner.tail.load(Ordering::Acquire)
    }

    /// Messages currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        occupancy(&self.inner)
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Drop any undelivered messages. Relaxed loads suffice: `&mut
        // self` proves exclusive ownership, and the model atomics
        // `racecheck_tests` runs this under have no `get_mut`.
        // pmlint: allow(relaxed-ordering) — exclusive `&mut self` in Drop
        let mut head = self.head.load(Ordering::Relaxed);
        // pmlint: allow(relaxed-ordering) — exclusive `&mut self` in Drop
        let tail = self.tail.load(Ordering::Relaxed);
        while head != tail {
            // SAFETY: slots in [head, tail) are initialized, and `&mut
            // self` excludes every other access.
            unsafe { self.slots[head].with_mut(|slot| slot.assume_init_drop()) };
            head = (head + 1) % self.slots.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_sit_on_separate_128_byte_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicUsize>>(), 128);
    }

    #[test]
    fn fifo_order_and_capacity() {
        let (p, c) = ring::<u32>(4);
        for i in 0..4 {
            p.push(i).unwrap();
        }
        assert!(p.push(99).is_err(), "ring should be full");
        for i in 0..4 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn len_tracks_occupancy_across_wraparound() {
        let (p, c) = ring::<u32>(3);
        assert_eq!(p.len(), 0);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(c.len(), 2);
        c.pop().unwrap();
        assert_eq!(p.len(), 1);
        // Wrap the indices past the physical end.
        for i in 0..10 {
            p.push(i).unwrap();
            c.pop().unwrap();
        }
        assert_eq!(p.len(), 1);
        c.pop().unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn wraps_around() {
        let (p, c) = ring::<u64>(3);
        for round in 0..100u64 {
            p.push(round).unwrap();
            assert_eq!(c.pop(), Some(round));
        }
    }

    #[test]
    fn cross_thread_stream() {
        let (p, c) = ring::<u64>(64);
        let producer = std::thread::spawn(move || {
            for i in 0..100_000u64 {
                p.push_blocking(i);
            }
        });
        let mut expect = 0u64;
        while expect < 100_000 {
            if let Some(v) = c.pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn drops_undelivered_messages() {
        let flag = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        struct Probe(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (p, c) = ring::<Probe>(8);
        p.push(Probe(Arc::clone(&flag))).ok();
        p.push(Probe(Arc::clone(&flag))).ok();
        drop(p);
        drop(c);
        assert_eq!(flag.load(Ordering::Relaxed), 2);
    }
}

#[cfg(all(test, racecheck))]
mod racecheck_tests {
    use super::*;
    use racecheck::model::{check, thread, Config};

    /// Three messages through a one-message ring: every push after the
    /// first waits for a pop, and the third overwrites the slot the
    /// first pop read — so both edges of the protocol carry the run.
    #[test]
    fn three_messages_through_one_slot() {
        check("ring/one-slot", Config::new(), || {
            let (p, c) = ring::<u64>(1);
            let producer = thread::spawn(move || {
                for v in 100..103u64 {
                    let mut msg = v;
                    let mut tries = 0;
                    while let Err(back) = p.push(msg) {
                        msg = back;
                        tries += 1;
                        if tries == 4 {
                            return; // full and the consumer gave up
                        }
                        thread::yield_now();
                    }
                }
            });
            let mut next = 100u64;
            let mut idle = 0;
            while next < 103 && idle < 4 {
                match c.pop() {
                    Some(v) => {
                        assert_eq!(v, next, "ring delivered out of order");
                        next += 1;
                        idle = 0;
                    }
                    None => {
                        idle += 1;
                        thread::yield_now();
                    }
                }
            }
            producer.join().unwrap();
        });
    }
}
