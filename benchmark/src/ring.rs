//! Cross-thread hand-off owned by the benchmark: one lock-free
//! single-producer single-consumer ring per ordered pair of threads.
//!
//! The workspace's `crossbeam` stand-in implements `SegQueue` as mutex
//! shards behind shared cursors, so a driver that hands blocks over through
//! it measures the stand-in as soon as two threads run.  A bounded SPSC ring
//! needs two indices and no read-modify-write at all; a full ring makes the
//! sender keep the item (and free it locally), so no operation ever waits.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Keeps the two indices on separate cache lines (128 covers the adjacent
/// line prefetcher).
#[repr(align(128))]
struct Padded<T>(T);

struct Shared<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot to read; written by the consumer only.
    head: Padded<AtomicUsize>,
    /// Next slot to write; written by the producer only.
    tail: Padded<AtomicUsize>,
}

// SAFETY: the ring moves `T` values from the producer's thread to the
// consumer's, so `T: Send` is what both need.  A slot is touched by the
// producer only while it lies in `tail..head + capacity` and by the consumer
// only while it lies in `head..tail`; the Release store of one index and the
// Acquire load of it on the other side order the slot accesses.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        let tail = *self.tail.0.get_mut();
        let mut head = *self.head.0.get_mut();
        while head != tail {
            // SAFETY: slots in `head..tail` hold initialised values nobody
            // else can reach any more.
            unsafe { (*self.slots[head & self.mask].get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

/// The sending half of a ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Last seen value of the consumer's index; refreshed only when the ring
    /// looks full, so a push usually reads no shared line.
    seen_head: Cell<usize>,
}

/// The receiving half of a ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    seen_tail: Cell<usize>,
}

/// A ring of `capacity` slots (rounded up to a power of two).
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(2).next_power_of_two();
    let shared = Arc::new(Shared {
        slots: (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        mask: capacity - 1,
        head: Padded(AtomicUsize::new(0)),
        tail: Padded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            seen_head: Cell::new(0),
        },
        Consumer {
            shared,
            seen_tail: Cell::new(0),
        },
    )
}

impl<T: Send> Producer<T> {
    /// Appends `value`, or gives it back when the ring is full.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let s = &*self.shared;
        let tail = s.tail.0.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.seen_head.get()) > s.mask {
            self.seen_head.set(s.head.0.load(Ordering::Acquire));
            if tail.wrapping_sub(self.seen_head.get()) > s.mask {
                return Err(value);
            }
        }
        // SAFETY: the slot lies outside `head..tail`, so the consumer does
        // not touch it, and `&mut self` rules out a second producer.
        unsafe { (*s.slots[tail & s.mask].get()).write(value) };
        s.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }
}

impl<T: Send> Consumer<T> {
    /// Removes the oldest value, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::Relaxed);
        if head == self.seen_tail.get() {
            self.seen_tail.set(s.tail.0.load(Ordering::Acquire));
            if head == self.seen_tail.get() {
                return None;
            }
        }
        // SAFETY: the slot lies inside `head..tail`: the producer wrote it
        // before the Release store this thread has Acquired, and will not
        // write it again until `head` moves past it.
        let value = unsafe { (*s.slots[head & s.mask].get()).assume_init_read() };
        s.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

/// One thread's ends of a full mesh: a producer to, and a consumer from,
/// every other thread (`None` at the thread's own index).
pub struct Endpoint<T> {
    pub to: Vec<Option<Producer<T>>>,
    pub from: Vec<Option<Consumer<T>>>,
}

/// Rings between every ordered pair of `threads` threads.
pub fn mesh<T: Send>(threads: usize, capacity: usize) -> Vec<Endpoint<T>> {
    let mut ends: Vec<Endpoint<T>> = (0..threads)
        .map(|_| Endpoint {
            to: (0..threads).map(|_| None).collect(),
            from: (0..threads).map(|_| None).collect(),
        })
        .collect();
    for src in 0..threads {
        for dst in 0..threads {
            if src != dst {
                let (tx, rx) = ring(capacity);
                ends[src].to[dst] = Some(tx);
                ends[dst].from[src] = Some(rx);
            }
        }
    }
    ends
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn fifo_order_and_full_ring_gives_the_item_back() {
        let (mut tx, mut rx) = ring::<u32>(4);
        assert_eq!(rx.pop(), None);
        for i in 0..4 {
            assert_eq!(tx.push(i), Ok(()));
        }
        assert_eq!(tx.push(99), Err(99), "a full ring refuses");
        assert_eq!(rx.pop(), Some(0));
        assert_eq!(tx.push(4), Ok(()), "one pop frees one slot");
        assert_eq!(
            (1..=4).map(|_| rx.pop().unwrap()).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn every_value_crosses_threads_exactly_once_in_order() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(64);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..N {
                    let mut v = i;
                    while let Err(back) = tx.push(v) {
                        v = back;
                        std::hint::spin_loop();
                    }
                }
            });
            start.wait();
            let mut next = 0;
            while next < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, next);
                    next += 1;
                }
            }
            assert_eq!(rx.pop(), None);
        });
    }

    #[test]
    fn values_left_in_a_dropped_ring_are_dropped() {
        let marker = Arc::new(());
        let (mut tx, rx) = ring::<Arc<()>>(8);
        for _ in 0..5 {
            tx.push(Arc::clone(&marker)).unwrap();
        }
        drop((tx, rx));
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn mesh_connects_every_ordered_pair() {
        let mut ends = mesh::<(usize, usize)>(3, 4);
        for (src, end) in ends.iter_mut().enumerate() {
            for (dst, tx) in end.to.iter_mut().enumerate() {
                match tx {
                    Some(tx) => tx.push((src, dst)).unwrap(),
                    None => assert_eq!(src, dst),
                }
            }
        }
        for (dst, end) in ends.iter_mut().enumerate() {
            for (src, rx) in end.from.iter_mut().enumerate() {
                if let Some(rx) = rx {
                    assert_eq!(rx.pop(), Some((src, dst)));
                }
            }
        }
    }
}
