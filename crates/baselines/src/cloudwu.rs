//! `buddy-sl`: a spin-locked, tree-based buddy allocator in the style of
//! `cloudwu/buddy.c` (the paper's reference \[21\]).
//!
//! The original single-file allocator keeps, for every node of a complete
//! binary tree, the size of the **longest** free block available in that
//! node's subtree (`longest[]`).  Allocation descends from the root towards
//! the smallest subtree that still fits the request, marks the chosen node by
//! zeroing its `longest`, and propagates the new maxima back to the root;
//! release restores the node's capacity and re-merges buddies whose
//! capacities indicate both halves are completely free.  Every operation is
//! `O(log n)` — but, as in the paper's `buddy-sl` configuration, the whole
//! structure is protected by **one global spin lock**, so concurrent threads
//! serialize.
//!
//! Differences from the C original are purely cosmetic (the C version indexes
//! from 0 and manages abstract "unit" counts; we reuse the crate-wide
//! [`Geometry`] so offsets and sizes are bytes, and we honour `max_size` by
//! refusing requests above it).  The placement policy — descend into the
//! left child when both children fit — is preserved.

use nbbs::error::FreeError;
use nbbs::stats::OpStatsSnapshot;
use nbbs::{BuddyBackend, BuddyConfig, Geometry};
use nbbs_sync::SpinLock;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Mutable allocator state, guarded by the spin lock.
#[derive(Debug)]
struct State {
    /// `longest[n]` = size in bytes of the largest free chunk in `n`'s
    /// subtree (0 when the subtree is exhausted or `n` itself is allocated).
    longest: Vec<usize>,
}

/// The `buddy-sl` baseline: tree buddy allocator behind a global spin lock.
pub struct CloudwuBuddy {
    geo: Geometry,
    state: SpinLock<State>,
    allocated: AtomicUsize,
}

impl CloudwuBuddy {
    /// Creates an allocator for the given configuration.
    pub fn new(config: BuddyConfig) -> Self {
        let geo = Geometry::new(&config);
        let mut longest = vec![0usize; geo.tree_len()];
        for (n, slot) in longest.iter_mut().enumerate().skip(1) {
            *slot = geo.size_of(n);
        }
        CloudwuBuddy {
            geo,
            state: SpinLock::new(State { longest }),
            allocated: AtomicUsize::new(0),
        }
    }

    /// The allocator's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Allocates at least `size` bytes, returning the chunk's byte offset.
    pub fn alloc(&self, size: usize) -> Option<usize> {
        let level = self.geo.target_level(size)?;
        let want = self.geo.size_of_level(level);
        let mut st = self.state.lock();
        if st.longest[1] < want {
            return None;
        }
        // Descend towards the target level, preferring the left child and
        // falling back to the right one (cloudwu's traversal order).
        let mut node = 1usize;
        for _ in 0..level {
            let left = self.geo.left_child(node);
            let right = self.geo.right_child(node);
            node = if st.longest[left] >= want {
                left
            } else {
                right
            };
        }
        debug_assert_eq!(self.geo.level_of(node), level);
        debug_assert!(st.longest[node] >= want);
        let offset = self.geo.offset_of(node);
        st.longest[node] = 0;
        // Propagate the new maxima towards the root.
        let mut cur = node;
        while cur > 1 {
            cur >>= 1;
            let l = st.longest[self.geo.left_child(cur)];
            let r = st.longest[self.geo.right_child(cur)];
            st.longest[cur] = l.max(r);
        }
        drop(st);
        self.allocated.fetch_add(want, Ordering::Relaxed);
        Some(offset)
    }

    /// Releases the chunk starting at `offset`.
    pub fn dealloc(&self, offset: usize) {
        match self.release(offset) {
            Some(_) => {}
            None => panic!("dealloc of non-live offset {offset}"),
        }
    }

    /// Releases `offset`, returning the size of the released chunk, or `None`
    /// if the offset does not correspond to a live allocation.
    fn release(&self, offset: usize) -> Option<usize> {
        if offset >= self.geo.total_memory() || !offset.is_multiple_of(self.geo.min_size()) {
            return None;
        }
        let mut st = self.state.lock();
        // As in the C original: walk up from the leaf covering `offset` until
        // the first node whose `longest` was zeroed — that is the node the
        // allocation was served from (descendants of an allocated node keep
        // their original capacities, so no deeper node on the path can be 0).
        let mut node = self.geo.leaf_of_offset(offset);
        while st.longest[node] != 0 {
            if node == 1 {
                return None;
            }
            node >>= 1;
        }
        if self.geo.offset_of(node) != offset {
            // `offset` points inside an allocated chunk, not at its start.
            return None;
        }
        let size = self.geo.size_of(node);
        st.longest[node] = size;
        // Merge towards the root: a parent's capacity becomes its full size
        // when both children are completely free, otherwise the max of the
        // children's capacities.
        let mut cur = node;
        while cur > 1 {
            cur >>= 1;
            let full = self.geo.size_of(cur);
            let l = st.longest[self.geo.left_child(cur)];
            let r = st.longest[self.geo.right_child(cur)];
            st.longest[cur] = if l + r == full { full } else { l.max(r) };
        }
        drop(st);
        self.allocated.fetch_sub(size, Ordering::Relaxed);
        Some(size)
    }

    /// Bytes currently handed out.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Largest chunk that could currently be allocated, in bytes.
    pub fn largest_free_chunk(&self) -> usize {
        self.state.lock().longest[1].min(self.geo.max_size())
    }

    /// Number of lock acquisitions that found the lock already held.
    pub fn contended_acquisitions(&self) -> u64 {
        self.state.contended_acquisitions()
    }
}

impl BuddyBackend for CloudwuBuddy {
    fn name(&self) -> &'static str {
        "buddy-sl"
    }

    fn geometry(&self) -> &Geometry {
        &self.geo
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        CloudwuBuddy::alloc(self, size)
    }

    fn dealloc(&self, offset: usize) {
        CloudwuBuddy::dealloc(self, offset)
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        self.geo
            .check_release_offset(offset, self.geo.total_memory())?;
        self.release(offset)
            .map(|_| ())
            .ok_or(FreeError::NotAllocated { offset })
    }

    fn allocated_bytes(&self) -> usize {
        CloudwuBuddy::allocated_bytes(self)
    }

    fn stats(&self) -> OpStatsSnapshot {
        OpStatsSnapshot::default()
    }
}

impl std::fmt::Debug for CloudwuBuddy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudwuBuddy")
            .field("total_memory", &self.geo.total_memory())
            .field("min_size", &self.geo.min_size())
            .field("max_size", &self.geo.max_size())
            .field("allocated_bytes", &self.allocated_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn buddy(total: usize, min: usize, max: usize) -> CloudwuBuddy {
        CloudwuBuddy::new(BuddyConfig::new(total, min, max).unwrap())
    }

    #[test]
    fn basic_alloc_free_cycle() {
        let b = buddy(1024, 64, 1024);
        let a = b.alloc(64).unwrap();
        let c = b.alloc(200).unwrap();
        assert_eq!(b.allocated_bytes(), 64 + 256);
        assert_ne!(a, c);
        b.dealloc(a);
        b.dealloc(c);
        assert_eq!(b.allocated_bytes(), 0);
        assert_eq!(b.largest_free_chunk(), 1024);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let b = buddy(1 << 14, 8, 1 << 10);
        let sizes = [8usize, 16, 128, 1024, 8, 256, 64, 32, 512, 8];
        let mut live: Vec<(usize, usize)> = Vec::new();
        for &s in &sizes {
            let off = b.alloc(s).unwrap();
            let granted = b.geometry().granted_size(s).unwrap();
            assert_eq!(off % granted, 0, "chunks are naturally aligned");
            for &(o, g) in &live {
                assert!(off + granted <= o || o + g <= off, "overlap at {off}");
            }
            live.push((off, granted));
        }
        for (o, _) in live {
            b.dealloc(o);
        }
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn exhaustion_and_full_recovery() {
        let b = buddy(1024, 64, 1024);
        let offs: Vec<usize> = (0..16).map(|_| b.alloc(64).unwrap()).collect();
        assert_eq!(b.alloc(64), None);
        assert_eq!(b.largest_free_chunk(), 0);
        for off in offs {
            b.dealloc(off);
        }
        let whole = b.alloc(1024).unwrap();
        assert_eq!(whole, 0);
        b.dealloc(whole);
    }

    #[test]
    fn respects_max_size() {
        let b = buddy(1 << 16, 8, 1 << 12);
        assert_eq!(b.alloc(1 << 13), None);
        assert!(b.alloc(1 << 12).is_some());
    }

    #[test]
    fn coalescing_rebuilds_large_chunks() {
        let b = buddy(4096, 64, 4096);
        let a = b.alloc(1024).unwrap();
        let c = b.alloc(1024).unwrap();
        let d = b.alloc(2048).unwrap();
        assert_eq!(b.alloc(64), None);
        b.dealloc(a);
        b.dealloc(c);
        // The first half coalesces back into a 2 KiB chunk.
        let e = b.alloc(2048).unwrap();
        assert!(e != d);
        b.dealloc(d);
        b.dealloc(e);
        assert_eq!(b.largest_free_chunk(), 4096);
    }

    #[test]
    fn try_dealloc_validates() {
        let b = buddy(1024, 64, 1024);
        assert!(matches!(
            b.try_dealloc(9999),
            Err(FreeError::OutOfRange { .. })
        ));
        assert!(matches!(
            b.try_dealloc(7),
            Err(FreeError::Misaligned { .. })
        ));
        assert!(matches!(
            b.try_dealloc(64),
            Err(FreeError::NotAllocated { .. })
        ));
        let off = b.alloc(64).unwrap();
        assert!(b.try_dealloc(off).is_ok());
        assert!(matches!(
            b.try_dealloc(off),
            Err(FreeError::NotAllocated { .. })
        ));
    }

    #[test]
    fn concurrent_usage_conserves_memory() {
        const THREADS: usize = 8;
        let b = Arc::new(buddy(1 << 14, 8, 1 << 10));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut live = Vec::new();
                    for i in 0..2_000usize {
                        let size = 8usize << ((i + t) % 7);
                        if let Some(off) = b.alloc(size) {
                            live.push(off);
                        }
                        if live.len() > 16 {
                            b.dealloc(live.swap_remove(0));
                        }
                    }
                    for off in live {
                        b.dealloc(off);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.allocated_bytes(), 0);
        assert_eq!(b.largest_free_chunk(), 1 << 10);
    }

    #[test]
    fn trait_object_name() {
        let b: Box<dyn BuddyBackend> = Box::new(buddy(1024, 64, 1024));
        assert_eq!(b.name(), "buddy-sl");
    }
}
