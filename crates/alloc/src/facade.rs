//! The layout-aware allocator facade.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr::NonNull;

use nbbs::error::AllocError;
use nbbs::{BuddyBackend, BuddyRegion};

/// The buddy request size for `layout` before any alignment bump: rounding
/// to `max(size, align)` makes a *naturally aligned* (power-of-two) grant
/// satisfy the alignment for free.
#[inline]
pub(crate) fn base_request_size(layout: Layout) -> usize {
    layout.size().max(layout.align()).max(1)
}

/// A layout-aware allocator over any [`BuddyBackend`].
///
/// The `Layout` adapter for compositions the shipped
/// [`NbbsGlobalAlloc`](crate::NbbsGlobalAlloc) does not build —
///
/// ```text
/// NbbsFourLevel / NbbsOneLevel      lock-free buddy tree   (nbbs)
///         └─ MagazineCache          per-thread magazines   (nbbs-cache)
///                 └─ NbbsAllocator  Layout in, pointers out (nbbs-alloc)
/// ```
///
/// — though any [`BuddyBackend`] slots in below it: a slab, a multi-node
/// set or a fault injector under a cache, or a bare tree.  The facade owns
/// a [`BuddyRegion`] (real backing memory) and speaks `Layout` through
/// [`NbbsAllocator::allocate`] / [`NbbsAllocator::deallocate`] and a
/// [`GlobalAlloc`] impl:
///
/// * **Over-aligned requests are served by the buddy itself.**  Power-of-two
///   buddy blocks are naturally aligned to their own size and the region
///   base is `max_size`-aligned, so rounding a request to
///   `max(size, align)` guarantees the alignment for free — no fallback
///   allocator, no alignment headers.  A backend whose grants are *not*
///   naturally aligned (a slab front-end's spaced size classes) reports so
///   through [`BuddyBackend::grant_alignment_for`], and the facade bumps
///   the request to the next power of two — present in every grant ladder
///   — restoring the guarantee.
/// * **The layout names the block's class.**  A block allocated under a
///   layout is released under a layout that rounds to the same granted
///   size, and `realloc` keeps a block in place only when the new size
///   names the class it already has (it keeps the alignment, so the
///   pointer stays aligned enough).  That is what lets a release hand the
///   size down the stack ([`BuddyBackend::dealloc_sized`]) instead of
///   having a cache look it up in the tree.
/// * Everything routes through whatever backend it wraps, so putting a
///   `MagazineCache` underneath turns every allocation and release into a
///   magazine operation; the facade adds no locks and no counts of its own.
///
/// Zero-sized layouts are grilled up to one allocation unit rather than
/// handed a dangling pointer: the facade's pointers are always real,
/// region-owned memory, which keeps `deallocate` uniform.
pub struct NbbsAllocator<A: BuddyBackend> {
    region: BuddyRegion<A>,
}

impl<A: BuddyBackend> NbbsAllocator<A> {
    /// Wraps `backend` together with a freshly allocated backing region.
    pub fn new(backend: A) -> Self {
        NbbsAllocator {
            region: BuddyRegion::new(backend),
        }
    }

    /// The wrapped backend (e.g. the `MagazineCache` layer).
    pub fn backend(&self) -> &A {
        self.region.backend()
    }

    /// The backing region (base pointer, offset mapping).
    pub fn region(&self) -> &BuddyRegion<A> {
        &self.region
    }

    /// The request size actually sent to the backend for `layout`.
    ///
    /// Starts from [`base_request_size`].  When the backend's grant
    /// for that size is not naturally aligned far enough — a slab
    /// front-end's spaced classes (say 96 bytes) guarantee only their
    /// granule alignment — the request is bumped to the next power of two:
    /// every grant ladder contains the powers of two in its range, and a
    /// power-of-two grant is aligned to its own size.
    #[inline]
    fn request_size(&self, layout: Layout) -> usize {
        let want = base_request_size(layout);
        match self.backend().grant_alignment_for(want) {
            Some(align) if align < layout.align() => want.next_power_of_two(),
            _ => want,
        }
    }

    /// The size the backend grants a request of `layout` — the size class
    /// under a slab front-end, a power of two otherwise — or `None` if the
    /// layout exceeds the per-request maximum.
    #[inline]
    fn granted_size(&self, layout: Layout) -> Option<usize> {
        self.backend().granted_size_for(self.request_size(layout))
    }

    /// Whether `ptr` points into the facade's region.
    pub fn owns(&self, ptr: *mut u8) -> bool {
        NonNull::new(ptr).is_some_and(|nn| self.region.contains(nn))
    }

    /// Bytes currently handed out (as the backend counts them — a caching
    /// backend subtracts parked chunks).
    pub fn allocated_bytes(&self) -> usize {
        self.region.allocated_bytes()
    }

    /// Allocates memory fitting `layout`.
    ///
    /// The returned slice covers the whole granted buddy block — at least
    /// `layout.size()` bytes, aligned to at least `layout.align()`.  The
    /// caller may use every byte of it, and may pass any layout whose
    /// request rounds to the same granted size to [`NbbsAllocator::deallocate`].
    pub fn allocate(&self, layout: Layout) -> Result<NonNull<[u8]>, AllocError> {
        let want = self.request_size(layout);
        let granted = self
            .backend()
            .granted_size_for(want)
            .ok_or(AllocError::TooLarge {
                requested: want,
                max_size: self.backend().max_size(),
            })?;
        let ptr = self.region.try_alloc_bytes(want)?;
        debug_assert_eq!(ptr.as_ptr() as usize % layout.align(), 0);
        Ok(NonNull::slice_from_raw_parts(ptr, granted))
    }

    /// Releases a block obtained from this facade.
    ///
    /// The release is *sized*: the granted size of `layout` goes down the
    /// stack with the offset ([`BuddyBackend::dealloc_sized`]), so a cache
    /// underneath parks the chunk without asking the tree what it is.
    /// That is sound because the layout names the block's class by
    /// construction (see the type docs).
    ///
    /// # Safety
    ///
    /// `ptr` must denote a block currently allocated by this facade, and
    /// `layout` must round to the same granted size as the layout it was
    /// allocated (or last reallocated) with.  A layout of another class is
    /// a logic error of the same rank as a wrong pointer: the block would
    /// be filed under the class the layout names.
    pub unsafe fn deallocate(&self, ptr: NonNull<u8>, layout: Layout) {
        debug_assert!(self.region.contains(ptr), "pointer outside the region");
        match self.granted_size(layout) {
            Some(granted) => self.region.dealloc_bytes_sized(ptr, granted),
            // Unreachable for a correctly-used facade (the layout was
            // allocatable); let the backend look the size up rather than
            // guess.
            None => self.region.dealloc_bytes(ptr),
        }
    }
}

// SAFETY: blocks come either from the region (released back to it, matched
// by address range) or from `System` (released to `System`).  Region blocks
// are granted at least `max(size, align)` bytes from a class whose natural
// alignment covers the layout (`request_size` bumps the request to a power
// of two when it would not), so every layout requirement is met; `realloc`
// keeps the alignment and preserves the first `min(old, new)` bytes through
// either the in-place or the copying path.
unsafe impl<A: BuddyBackend> GlobalAlloc for NbbsAllocator<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match self.allocate(layout) {
            Ok(block) => block.cast::<u8>().as_ptr(),
            // Oversized or exhausted: keep the program running on the
            // system allocator, as the paper's front ends would fail over.
            // SAFETY: the caller's contract for `layout`.
            Err(_) => unsafe { System.alloc(layout) },
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract; a block outside the region is
        // `System`'s.
        unsafe {
            match NonNull::new(ptr) {
                Some(nn) if self.region.contains(nn) => self.deallocate(nn, layout),
                _ => System.dealloc(ptr, layout),
            }
        }
    }

    /// A new size of the block's granted class keeps the block.  Another
    /// class allocates a block of it (or, when the buddy cannot serve it,
    /// a `System` one), copies `min(old, new)` bytes and frees the old
    /// block, so the layout keeps naming the class of the block it is
    /// released under.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some(nn) = NonNull::new(ptr).filter(|&nn| self.region.contains(nn)) else {
            // SAFETY: the caller's contract; a block outside the region is
            // `System`'s.
            return unsafe { System.realloc(ptr, layout, new_size) };
        };
        let Ok(new_layout) = Layout::from_size_align(new_size, layout.align()) else {
            return std::ptr::null_mut();
        };
        let granted = self.granted_size(new_layout);
        if granted.is_some() && granted == self.granted_size(layout) {
            return ptr;
        }
        // SAFETY: the caller's contract: `nn` is live under `layout`.  The
        // blocks are distinct, each holding the bytes copied, and the old
        // one is released once, under its layout.
        unsafe {
            let moved = self.alloc(new_layout);
            if !moved.is_null() {
                std::ptr::copy_nonoverlapping(ptr, moved, layout.size().min(new_size));
                self.deallocate(nn, layout);
            }
            moved
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbs::{BuddyConfig, NbbsFourLevel};
    use nbbs_cache::MagazineCache;

    fn facade() -> NbbsAllocator<MagazineCache<NbbsFourLevel>> {
        let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
        NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(config)))
    }

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn allocate_honours_size_and_alignment() {
        let a = facade();
        for (size, align) in [
            (1usize, 1usize),
            (100, 8),
            (64, 4096),
            (4097, 16),
            (1, 1 << 14),
        ] {
            let layout = Layout::from_size_align(size, align).unwrap();
            let block = a.allocate(layout).unwrap();
            assert!(block.len() >= size);
            assert_eq!(block.cast::<u8>().as_ptr() as usize % align, 0);
            // SAFETY: each block is used within its size and freed once, under its layout.
            unsafe {
                block.cast::<u8>().as_ptr().write_bytes(0xA5, block.len());
                a.deallocate(block.cast(), layout);
            }
        }
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn over_aligned_requests_never_leave_the_buddy() {
        let a = facade();
        let layout = Layout::from_size_align(64, 8192).unwrap();
        let block = a.allocate(layout).unwrap();
        assert!(a.owns(block.cast::<u8>().as_ptr()));
        assert_eq!(block.len(), 8192, "request rounded to max(size, align)");
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(block.cast(), layout) };
    }

    /// `GlobalAlloc::alloc_zeroed` zeroes a recycled block, and a request
    /// the buddy cannot serve comes zeroed from `System`.
    #[test]
    fn allocate_zeroed_scrubs_recycled_chunks() {
        let a = facade();
        let reads_zero = |p: *mut u8, len: usize| {
            !p.is_null()
                // SAFETY: a live block holding at least the bytes read.
                && unsafe { std::slice::from_raw_parts(p, len) }
                    .iter()
                    .all(|&b| b == 0)
        };
        let small = layout(256);
        let oversized = layout(1 << 20);
        // SAFETY: each block is used within its size and freed once, under its layout.
        unsafe {
            let p = a.alloc(small);
            p.write_bytes(0xFF, small.size());
            a.dealloc(p, small);
            let q = a.alloc_zeroed(small);
            assert_eq!(q, p, "the recycled chunk");
            assert!(reads_zero(q, small.size()));
            a.dealloc(q, small);
            let r = a.alloc_zeroed(oversized);
            assert!(!a.owns(r) && reads_zero(r, oversized.size()));
            a.dealloc(r, oversized);
        }
    }

    /// Reallocs `p` (live under `layout(old)`, its first `old` bytes set to
    /// `0x7E`) to `new` bytes and checks the bytes that must survive.
    ///
    /// # Safety
    ///
    /// As `GlobalAlloc::realloc`.
    unsafe fn realloc_keeps(
        a: &NbbsAllocator<MagazineCache<NbbsFourLevel>>,
        p: *mut u8,
        old: usize,
        new: usize,
    ) -> *mut u8 {
        // SAFETY: the caller's contract.
        let q = unsafe { a.realloc(p, layout(old), new) };
        assert!(a.owns(q));
        // SAFETY: a live block of at least `min(old, new)` bytes.
        let kept = unsafe { std::slice::from_raw_parts(q, old.min(new)) };
        assert!(kept.iter().all(|&b| b == 0x7E));
        q
    }

    fn filled(a: &NbbsAllocator<MagazineCache<NbbsFourLevel>>, size: usize) -> *mut u8 {
        // SAFETY: a fresh block of `size` bytes.
        unsafe {
            let p = a.alloc(layout(size));
            p.write_bytes(0x7E, size);
            p
        }
    }

    #[test]
    fn grow_within_the_granted_block_is_in_place() {
        let a = facade();
        let p = filled(&a, 100); // granted 128
                                 // SAFETY: `p` is live under `layout(100)`; freed once below.
        unsafe {
            assert_eq!(realloc_keeps(&a, p, 100, 128), p, "no move needed");
            a.dealloc(p, layout(128));
        }
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn grow_past_the_block_moves_and_preserves_contents() {
        let a = facade();
        let p = filled(&a, 100);
        // SAFETY: `p` is live under `layout(100)`; the grown block is freed
        // once below.
        unsafe {
            let q = realloc_keeps(&a, p, 100, 1000);
            assert_ne!(q, p);
            a.dealloc(q, layout(1000));
        }
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn shrink_to_a_smaller_class_releases_memory() {
        let a = facade();
        let p = filled(&a, 4096);
        // SAFETY: `p` is live under `layout(4096)`; the shrunk block is
        // freed once below.
        unsafe {
            let q = realloc_keeps(&a, p, 4096, 64);
            assert_ne!(q, p);
            assert!(a.allocated_bytes() <= 64, "difference released");
            a.dealloc(q, layout(64));
        }
    }

    #[test]
    fn shrink_within_the_class_is_in_place() {
        let a = facade();
        let p = filled(&a, 120); // granted 128
                                 // SAFETY: `p` is live under `layout(120)`; freed once below.
        unsafe {
            assert_eq!(realloc_keeps(&a, p, 120, 70), p, "still granted 128");
            a.dealloc(p, layout(70));
        }
    }

    #[test]
    fn global_alloc_falls_back_to_system_for_oversized() {
        let a = facade();
        let layout = layout(1 << 20);
        // SAFETY: each block is used within its size and freed once, under its layout.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert!(!a.owns(p));
            a.dealloc(p, layout);
        }
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn global_realloc_round_trips_through_grow_and_shrink() {
        let a = facade();
        let p = filled(&a, 100);
        // SAFETY: each block is reallocated from the layout it is live
        // under and freed once.
        unsafe {
            let q = realloc_keeps(&a, p, 100, 5000);
            let r = realloc_keeps(&a, q, 5000, 100);
            assert_ne!(q, r);
            a.dealloc(r, layout(100));
        }
        assert_eq!(a.allocated_bytes(), 0);
    }
}
