//! A bounded, lock-free LIFO (Treiber stack) over a pre-allocated slab.
//!
//! The classic Treiber stack CASes a head pointer over heap-allocated nodes,
//! which forces a safe-memory-reclamation scheme (epochs, hazard pointers) to
//! avoid the ABA problem.  [`BoundedStack`] sidesteps reclamation entirely:
//! the nodes are a fixed slab allocated up front, the head packs a **slot
//! index** together with a 32-bit **version tag** into one `AtomicU64`, and
//! every successful CAS bumps the tag — so a stale head value can never
//! match again even when a slot is popped, recycled and re-pushed in between
//! (the tag would have to wrap exactly 2^32 times within one CAS window).
//!
//! Two intrusive free/full lists thread through the same slab, giving the
//! ownership protocol its safety argument: a slot is always in *exactly one*
//! of three states — linked on the free list, linked on the full list, or
//! privately owned by the single thread that just popped it from either
//! list.  Only a private owner touches the slot's value cell, and list
//! push/pop pairs synchronize through the release/acquire CAS on the head,
//! so the value handoff is data-race free.
//!
//! Both [`BoundedStack::push`] and [`BoundedStack::pop`] are lock-free: a
//! failed CAS means some other thread's CAS succeeded, i.e. the system as a
//! whole made progress.  `push` is total — when the slab is exhausted it
//! returns the value to the caller instead of blocking or allocating.
//!
//! A new stack writes none of its slots.  A slot's link is stored XOR its
//! *initial* successor (`i + 1`, or `NIL` for the last slot), so the
//! all-zero slot is already chained onto the initial free list, and the
//! slab comes from zeroed memory ([`crate::zeroed_slice`]): a stack sized
//! for the worst case costs resident memory only for the slots it uses.
//!
//! This is the depot substrate of the `nbbs-cache` magazine layer: full
//! magazine exchange between threads becomes two CASes (free-list pop +
//! full-list push, or vice versa) with no mutex anywhere on the path.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::backoff::Backoff;
use crate::zeroed::{zeroed_slice, Zeroable, ZeroedSlice};

/// Sentinel index terminating a list.
const NIL: u32 = u32::MAX;

#[inline]
fn pack(tag: u32, idx: u32) -> u64 {
    ((tag as u64) << 32) | idx as u64
}

#[inline]
fn unpack(head: u64) -> (u32, u32) {
    ((head >> 32) as u32, head as u32)
}

struct Slot<T> {
    /// Index of the next slot on whichever list this slot is linked on,
    /// XOR the slot's initial successor ([`BoundedStack::initial_next`]).
    link: AtomicU32,
    /// The payload; initialised exactly while the slot is on the full list
    /// (or privately owned by a pusher that has written it / a popper that
    /// has not yet taken it).
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: an all-zero `AtomicU32` is `new(0)`, and any bytes are a valid
// `MaybeUninit`.
unsafe impl<T> Zeroable for Slot<T> {}

/// A fixed-capacity, lock-free Treiber stack of `T`.
///
/// # Examples
///
/// ```
/// use nbbs_sync::BoundedStack;
///
/// let stack: BoundedStack<Vec<u32>> = BoundedStack::new(2);
/// assert!(stack.push(vec![1]).is_ok());
/// assert!(stack.push(vec![2, 3]).is_ok());
/// // Full: push hands the value back instead of blocking or growing.
/// assert_eq!(stack.push(vec![4]), Err(vec![4]));
/// assert_eq!(stack.pop(), Some(vec![2, 3])); // LIFO
/// assert_eq!(stack.pop(), Some(vec![1]));
/// assert_eq!(stack.pop(), None);
/// ```
pub struct BoundedStack<T> {
    slots: ZeroedSlice<Slot<T>>,
    /// Packed `(tag, index)` head of the free list.
    free: AtomicU64,
    /// Packed `(tag, index)` head of the full list.
    full: AtomicU64,
    /// Occupied-slot count (approximate under concurrency, exact at
    /// quiescence).
    len: AtomicUsize,
}

// SAFETY: the free/full lists hand each slot to at most one owner at a time
// (see the module docs), so sharing the stack only requires the payload to be
// sendable between threads.
unsafe impl<T: Send> Send for BoundedStack<T> {}
// SAFETY: as above: a shared reference moves a payload in or out of a slot
// only while it owns that slot, so `T: Send` is all sharing needs.
unsafe impl<T: Send> Sync for BoundedStack<T> {}

impl<T> BoundedStack<T> {
    /// Creates an empty stack holding at most `capacity` values.
    ///
    /// A zero-capacity stack is permitted: every `push` fails, every `pop`
    /// returns `None` (useful to disable a depot shard outright).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` cannot be indexed by `u32` (the head word packs
    /// the slot index into 32 bits).
    pub fn new(capacity: usize) -> Self {
        Self::with_initial_tag(capacity, 0)
    }

    /// [`BoundedStack::new`], but with both list heads starting at version
    /// tag `tag` instead of 0.
    ///
    /// A white-box test hook: the 32-bit tag is what defeats ABA, and its
    /// arithmetic is *wrapping* (`tag.wrapping_add(1)` on every successful
    /// CAS), so correctness must hold across the `u32::MAX -> 0` wrap.
    /// Reaching the wrap organically takes 2^32 operations; starting the
    /// tags just below `u32::MAX` lets the wraparound tests cross it in a
    /// handful of operations.  Behaviour is otherwise identical to `new` —
    /// tags are never compared for order, only for (in)equality inside the
    /// packed CAS word.
    pub fn with_initial_tag(capacity: usize, tag: u32) -> Self {
        assert!(
            capacity < NIL as usize,
            "BoundedStack capacity {capacity} exceeds the u32 index space"
        );
        BoundedStack {
            // Zeroed slots are chained i -> i + 1: the initial free list.
            slots: zeroed_slice(capacity),
            free: AtomicU64::new(pack(tag, if capacity == 0 { NIL } else { 0 })),
            full: AtomicU64::new(pack(tag, NIL)),
            len: AtomicUsize::new(0),
        }
    }

    /// Current `(free-list tag, full-list tag)` pair — exposed for the
    /// wraparound tests to assert the tags actually crossed `u32::MAX`.
    pub fn version_tags(&self) -> (u32, u32) {
        let (free_tag, _) = unpack(self.free.load(Ordering::Acquire));
        let (full_tag, _) = unpack(self.full.load(Ordering::Acquire));
        (free_tag, full_tag)
    }

    /// Maximum number of values the stack holds.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of values currently on the stack (approximate while pushes and
    /// pops are in flight, exact at quiescence).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the stack currently holds no value (same caveat as
    /// [`BoundedStack::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The successor slot `idx` is linked to before anything is stored in
    /// it: the next slot, or `NIL` after the last.
    #[inline]
    fn initial_next(&self, idx: u32) -> u32 {
        if idx as usize + 1 < self.slots.len() {
            idx + 1
        } else {
            NIL
        }
    }

    #[inline]
    fn next(&self, idx: u32) -> u32 {
        self.slots[idx as usize].link.load(Ordering::Relaxed) ^ self.initial_next(idx)
    }

    #[inline]
    fn set_next(&self, idx: u32, next: u32) {
        self.slots[idx as usize]
            .link
            .store(next ^ self.initial_next(idx), Ordering::Relaxed);
    }

    /// Pops the head slot of `list`, transferring its ownership to the
    /// caller.
    fn pop_idx(&self, list: &AtomicU64) -> Option<u32> {
        let backoff = Backoff::new();
        let mut cur = list.load(Ordering::Acquire);
        loop {
            let (tag, idx) = unpack(cur);
            if idx == NIL {
                return None;
            }
            // Reading a racing `next` is fine: if the slot was concurrently
            // popped (and possibly re-pushed), the tag moved and our CAS
            // below fails.
            let next = self.next(idx);
            match list.compare_exchange_weak(
                cur,
                pack(tag.wrapping_add(1), next),
                // Success acquires the pusher's release so the subsequent
                // value read sees the payload write.
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(idx),
                Err(seen) => {
                    cur = seen;
                    backoff.spin();
                }
            }
        }
    }

    /// Pushes a privately-owned slot onto `list`, publishing its value.
    fn push_idx(&self, list: &AtomicU64, idx: u32) {
        let backoff = Backoff::new();
        let mut cur = list.load(Ordering::Relaxed);
        loop {
            let (tag, head_idx) = unpack(cur);
            self.set_next(idx, head_idx);
            match list.compare_exchange_weak(
                cur,
                pack(tag.wrapping_add(1), idx),
                // Release publishes both the `next` link and the payload
                // write that preceded this call.
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => {
                    cur = seen;
                    backoff.spin();
                }
            }
        }
    }

    /// Pushes `value`, or hands it back when every slot is occupied.
    ///
    /// Lock-free; never blocks and never allocates.
    pub fn push(&self, value: T) -> Result<(), T> {
        let Some(idx) = self.pop_idx(&self.free) else {
            return Err(value);
        };
        // SAFETY: popping from the free list made this thread the slot's
        // sole owner until the full-list push below publishes it.
        unsafe {
            (*self.slots[idx as usize].value.get()).write(value);
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        self.push_idx(&self.full, idx);
        Ok(())
    }

    /// Pops the most recently pushed value, or `None` when empty.
    ///
    /// Lock-free; never blocks.
    pub fn pop(&self) -> Option<T> {
        let idx = self.pop_idx(&self.full)?;
        // SAFETY: popping from the full list made this thread the slot's
        // sole owner of an initialised value; the pusher's release CAS
        // ordered its payload write before our acquire, and the slot goes
        // to the free list, whose slots are never read, right after.
        let value = unsafe { (*self.slots[idx as usize].value.get()).assume_init_read() };
        self.len.fetch_sub(1, Ordering::Relaxed);
        self.push_idx(&self.free, idx);
        Some(value)
    }

    /// Pops every value currently reachable, in LIFO order.
    ///
    /// Concurrent pushes may land while draining; only the values popped are
    /// returned.  At quiescence this empties the stack exactly.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }
}

impl<T> Drop for BoundedStack<T> {
    /// Drops the values still on the full list.
    fn drop(&mut self) {
        let (_, mut idx) = unpack(*self.full.get_mut());
        while idx != NIL {
            // SAFETY: `&mut self` rules out an operation in flight, so every
            // slot on the full list holds an initialised value nobody else
            // will read.
            unsafe { (*self.slots[idx as usize].value.get()).assume_init_drop() };
            idx = self.next(idx);
        }
    }
}

impl<T> fmt::Debug for BoundedStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedStack")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn lifo_order_and_capacity_bound() {
        let s = BoundedStack::new(3);
        assert_eq!(s.capacity(), 3);
        assert!(s.is_empty());
        for v in [10u64, 20, 30] {
            assert!(s.push(v).is_ok());
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.push(40), Err(40), "full stack rejects the value");
        assert_eq!(s.pop(), Some(30));
        assert_eq!(s.pop(), Some(20));
        assert!(s.push(50).is_ok(), "freed slot is reusable");
        assert_eq!(s.pop(), Some(50));
        assert_eq!(s.pop(), Some(10));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let s: BoundedStack<u8> = BoundedStack::new(0);
        assert_eq!(s.capacity(), 0);
        assert_eq!(s.push(1), Err(1));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn drain_empties_at_quiescence() {
        let s = BoundedStack::new(8);
        for v in 0..5u32 {
            s.push(v).unwrap();
        }
        let drained = s.drain();
        assert_eq!(drained, vec![4, 3, 2, 1, 0]);
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn values_drop_with_the_stack() {
        let flag = Arc::new(());
        let s = BoundedStack::new(4);
        s.push(Arc::clone(&flag)).unwrap();
        s.push(Arc::clone(&flag)).unwrap();
        assert_eq!(Arc::strong_count(&flag), 3);
        drop(s);
        assert_eq!(Arc::strong_count(&flag), 1, "undropped slot payloads");
    }

    #[test]
    fn concurrent_push_pop_conserves_distinct_values() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 20_000;
        let stack = Arc::new(BoundedStack::new(64));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    // Alternate push-then-pop: the stack never holds more
                    // than THREADS values, so pushes all but trivially fit,
                    // and between phases every stalled thread has one value
                    // on the stack — some pop can always succeed.
                    let mut reclaimed = Vec::with_capacity(PER_THREAD);
                    for i in 0..PER_THREAD as u64 {
                        let mut token = (t as u64) << 32 | i;
                        while let Err(back) = stack.push(token) {
                            token = back;
                            std::hint::spin_loop();
                        }
                        loop {
                            if let Some(v) = stack.pop() {
                                reclaimed.push(v);
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                    reclaimed
                })
            })
            .collect();
        let mut all: Vec<u64> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.extend(stack.drain());
        // Every pushed value came back out exactly once: no loss, no
        // duplication (the ABA pathologies a tag-less Treiber stack shows).
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a value was popped twice");
        let expected: HashSet<u64> = (0..THREADS as u64)
            .flat_map(|t| (0..PER_THREAD as u64).map(move |i| t << 32 | i))
            .collect();
        assert_eq!(unique, expected, "pushed values were lost");
        assert!(stack.is_empty());
    }
}
