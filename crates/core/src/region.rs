//! Backing memory for a buddy backend: turns offsets into real pointers.
//!
//! The allocator state machines in this crate are expressed over byte
//! offsets.  [`BuddyRegion`] owns an actual memory span of `total_memory`
//! bytes, aligned to the maximum chunk size (so that every chunk handed out
//! is naturally aligned to its own size, like physical page frames under the
//! kernel buddy allocator), and converts offsets to [`NonNull<u8>`] pointers
//! and back.  This is the only place where the crate touches raw memory.
//!
//! The span is a demand-zero [`Mapping`]: pages cost nothing until touched,
//! and the region can give quiescent pages *back*.  [`BuddyRegion::scrub_pass`]
//! walks the backend's occupancy snapshot and claims each maximal free block
//! through the ordinary allocation protocol
//! ([`BuddyBackend::scrub_claim`] — so a decommit can never race a live
//! chunk).  It holds the claimed blocks while the next free chunk is
//! adjacent, releases the physical frames of the whole *run* with one kernel
//! call (one `madvise`, one TLB shoot-down, instead of one per block), and
//! only then frees the blocks back.  It offers the run to the backend whole
//! first ([`BuddyBackend::scrub_dealloc_run`]): a tree frees it there and,
//! still under the claims, gives back the pages of its `index[]` and of its
//! node storage that only the run uses; a backend that declines gets the
//! blocks one by one.
//! A run is capped at 2 MiB and 1/16 of the span (never less than one
//! block), which bounds what the scrubber can keep from a concurrent
//! allocation; the held blocks live in a guard whose `Drop` frees them, so
//! a pass that panics mid-run strands nothing.
//! [`BuddyRegion::start_scrubber`] runs that pass periodically on a
//! background thread, which makes the region *elastic*: committed memory
//! follows the live set down at trough instead of staying pinned at peak.
//! Recommit is automatic — the kernel faults fresh zero pages in on first
//! touch, and the grant path clears the accounting marks.  A fresh span
//! starts with every page marked, so the scrubber only ever claims blocks
//! some grant has covered.
//!
//! A grant through the region clears the marks of its block: its own
//! [`BuddyBackend::alloc`] too, so a region may sit *under* a cache, where
//! a refill commits what the tree grants and a hit never touches the
//! mapping (a parked chunk is live in the tree, out of the scrubber's reach).

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::{AllocError, FreeError};
use crate::geometry::Geometry;
use crate::mapping::Mapping;
use crate::stats::MemoryStatsSnapshot;
use crate::traits::BuddyBackend;

/// The state shared between a region and its scrubber thread.
struct RegionInner<A: BuddyBackend> {
    backend: A,
    mapping: Mapping,
    scrub_passes: AtomicU64,
    scrub_blocks: AtomicU64,
    scrub_bytes: AtomicU64,
    metadata_decommitted_bytes: AtomicU64,
    trimmed_pages: AtomicU64,
}

/// Most bytes one decommit call releases and one run holds: a PMD's worth
/// of 4 KiB pages.  Past that size a longer `madvise` buys nothing (40 MiB
/// resident cost 13–17 ms in 64 KiB calls against 5.8–6.5 ms in calls of
/// 256 KiB or more), while every byte of it is kept from the allocator.
const RUN_CAP_BYTES: usize = 2 << 20;

impl<A: BuddyBackend> RegionInner<A> {
    /// The cap on a run for this span: [`RUN_CAP_BYTES`] and at most 1/16 of
    /// the span, but never less than one (maximal) block.
    fn run_cap(&self) -> usize {
        RUN_CAP_BYTES
            .min(self.mapping.len() / 16)
            .max(self.backend.max_size())
    }

    /// One synchronous scrub pass; returns bytes newly decommitted.
    ///
    /// **Claim-before-scrub, per block.**  Every block goes through
    /// [`BuddyBackend::scrub_claim`] — the allocation CAS — before any of
    /// its frames is released, so a stale snapshot entry (the block gained
    /// an occupant since the walk) fails the claim instead of racing a live
    /// chunk, and no frame is released that the scrubber does not own.
    ///
    /// **Decommit per run.**  Claimed blocks are held while the next free
    /// chunk is adjacent; the whole run then goes back to the kernel in one
    /// [`Mapping::decommit`] call and only after that are its blocks freed,
    /// in one [`BuddyBackend::scrub_dealloc_run`] call that also drops the
    /// backend's metadata pages under the run, or block by block if the
    /// backend declines.
    /// A chunk whose pages are all decommitted already joins a run that
    /// has a chunk with a page to release: it has no frame left to
    /// release, but the metadata pages under a span that went back in
    /// pieces go whole once the span is free end to end.  It is claimed
    /// only then, because a claim writes the tree's metadata: claiming
    /// every such chunk would fault in the whole `index[]` of a span no
    /// grant ever touched.
    /// A run ends when the next chunk is not adjacent, fails its claim
    /// (leaving a gap) or would take the run past [`RegionInner::run_cap`].
    /// That cap is also the bound on what the scrubber keeps from a
    /// concurrent allocation at any moment: one run, where a
    /// block-at-a-time pass kept one block.
    fn scrub_pass(&self) -> usize {
        let trimmed = self.backend.trim_empty_pages();
        if trimmed > 0 {
            self.trimmed_pages
                .fetch_add(trimmed as u64, Ordering::Relaxed);
        }
        let min_block = self.backend.min_size().max(self.mapping.page_size());
        let mut freed = 0usize;
        // The pruned free-chunk walk stops at `min_block` granularity —
        // sub-page blocks have no whole page to release anyway — so a pass
        // costs O(total / page_size) even on unit-granular trees.
        if let Some(chunks) = self.backend.free_chunks(min_block) {
            let cap = self.run_cap();
            // Everything the loop needs from the heap is taken here, before
            // the first claim: under a registered `#[global_allocator]` an
            // allocation made while blocks are held re-enters the allocator.
            let mut run = Run {
                region: self,
                held: Vec::with_capacity((cap / min_block).min(chunks.len())),
                start: 0,
                len: 0,
                dirty: 0,
            };
            // `chunks[i - waiting..i]`: decommitted chunks of `waiting_len`
            // bytes past the run's end, claimed once the run has a chunk
            // with pages.
            let (mut waiting, mut waiting_len) = (0, 0);
            for (i, &(off, size)) in chunks.iter().enumerate() {
                let reach = run.start + run.len + waiting_len;
                if off != reach || run.len + waiting_len + size > cap {
                    freed += run.close(&chunks[i - waiting..i]);
                    run.start = off;
                    (waiting, waiting_len) = (0, 0);
                }
                if self.mapping.is_fully_decommitted(off, size) {
                    waiting += 1;
                    waiting_len += size;
                    continue;
                }
                for &(gone, gone_size) in &chunks[i - waiting..i] {
                    freed += run.take(gone, gone_size, false);
                }
                (waiting, waiting_len) = (0, 0);
                freed += run.take(off, size, true);
            }
            freed += run.close(&chunks[chunks.len() - waiting..]);
        }
        self.scrub_passes.fetch_add(1, Ordering::Relaxed);
        freed
    }
}

/// The blocks a scrub pass has claimed and not yet given back, as
/// `(offset, size)`: one run of adjacent free chunks covering
/// `[start, start + len)`, `dirty` of which had a page left to release
/// when they were claimed.
///
/// A guard, so held blocks go back on every exit: a panic between the first
/// claim and the last release (an injected fault in `scrub_dealloc`, a
/// scrubber killed mid-claim) unwinds through `Drop`, which frees whatever
/// is still held (a release that panics again there aborts the process:
/// nobody is left to hand the block to).  `held` never grows past the
/// capacity it was given before the first claim.
struct Run<'a, A: BuddyBackend> {
    region: &'a RegionInner<A>,
    held: Vec<(usize, usize)>,
    start: usize,
    len: usize,
    dirty: usize,
}

impl<A: BuddyBackend> Run<'_, A> {
    /// Claims the chunk at the run's end into the run; `dirty` if it has a
    /// page to release.  A failed claim leaves a gap: the run goes back
    /// and the next one starts past the chunk.  Returns the bytes that
    /// release decommitted.
    fn take(&mut self, off: usize, size: usize, dirty: bool) -> usize {
        debug_assert_eq!(off, self.start + self.len);
        if !self.region.backend.scrub_claim(off, size) {
            let freed = self.release();
            self.start = off + size;
            return freed;
        }
        debug_assert!(self.held.len() < self.held.capacity());
        self.held.push((off, size));
        self.len += size;
        self.dirty += usize::from(dirty);
        0
    }

    /// Ends the run: claims the decommitted chunks `trailing` it if it has
    /// a page to release, then releases it.  Returns the bytes decommitted.
    fn close(&mut self, trailing: &[(usize, usize)]) -> usize {
        let mut freed = 0;
        for &(off, size) in trailing {
            if self.dirty == 0 {
                break; // nothing to release, or a failed claim ended the run
            }
            freed += self.take(off, size, false);
        }
        freed + self.release()
    }

    /// Releases the run's frames with one kernel call, then frees its
    /// blocks, the whole run in one backend call where the backend takes
    /// it (a tree drops its metadata pages under the run there, and for
    /// its node pages first waits out the scans already at work in the
    /// run); returns the bytes newly decommitted and leaves the run empty.
    fn release(&mut self) -> usize {
        let dirty = std::mem::take(&mut self.dirty);
        if self.held.is_empty() {
            return 0;
        }
        let region = self.region;
        let freed = region.mapping.decommit(self.start, self.len);
        if freed > 0 {
            // The blocks that had a page left to release when they were
            // claimed (two passes racing over one block may both count it).
            region
                .scrub_blocks
                .fetch_add(dirty as u64, Ordering::Relaxed);
            region
                .scrub_bytes
                .fetch_add(freed as u64, Ordering::Relaxed);
        }
        match region.backend.scrub_dealloc_run(&self.held) {
            Some(metadata) => {
                self.held.clear();
                self.len = 0;
                region
                    .metadata_decommitted_bytes
                    .fetch_add(metadata as u64, Ordering::Relaxed);
            }
            None => self.give_back(),
        }
        freed
    }

    /// Frees the held blocks.  A block leaves `held` only once its release
    /// has returned, so one that panicked on the way is retried by `Drop`.
    fn give_back(&mut self) {
        while let Some(&(off, _)) = self.held.last() {
            self.region.backend.scrub_dealloc(off);
            self.held.pop();
        }
        self.len = 0;
    }
}

impl<A: BuddyBackend> Drop for Run<'_, A> {
    fn drop(&mut self) {
        self.give_back();
    }
}

/// A running background scrubber.
struct ScrubberHandle {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

/// A buddy backend plus the contiguous memory region it manages.
///
/// See the [crate docs](crate) for an example.
pub struct BuddyRegion<A: BuddyBackend> {
    inner: Arc<RegionInner<A>>,
    scrubber: Mutex<Option<ScrubberHandle>>,
}

impl<A: BuddyBackend> BuddyRegion<A> {
    /// Reserves a demand-zero backing region for `backend` and wraps it.
    ///
    /// The region is aligned to the backend's `max_size`, so a chunk of size
    /// `2^k` returned by [`BuddyRegion::alloc_bytes`] is always `2^k`-aligned.
    /// On Linux the backing is an anonymous private mapping — pages cost no
    /// physical memory until first touch; elsewhere it falls back to a
    /// zeroed heap allocation with the same observable behaviour.  Either
    /// way the span starts decommitted in the accounting
    /// ([`BuddyRegion::committed_bytes`] is 0).
    pub fn new(backend: A) -> Self {
        let total = backend.total_memory();
        let align = backend.max_size().max(std::mem::align_of::<usize>());
        let mapping = Mapping::new(total, align);
        BuddyRegion {
            inner: Arc::new(RegionInner {
                backend,
                mapping,
                scrub_passes: AtomicU64::new(0),
                scrub_blocks: AtomicU64::new(0),
                scrub_bytes: AtomicU64::new(0),
                metadata_decommitted_bytes: AtomicU64::new(0),
                trimmed_pages: AtomicU64::new(0),
            }),
            scrubber: Mutex::new(None),
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &A {
        &self.inner.backend
    }

    /// Base address of the managed region.
    pub fn base(&self) -> NonNull<u8> {
        self.inner.mapping.base()
    }

    /// Total size of the managed region in bytes: the backend's
    /// [`BuddyBackend::total_memory`] as read at construction (a backend's
    /// span never changes, and every release bounds-checks against this).
    pub fn total_memory(&self) -> usize {
        self.inner.mapping.len()
    }

    /// Clears the decommit accounting for a grant of `size` bytes at
    /// `offset` (the kernel recommits the frames lazily on first touch).
    fn note_grant(&self, offset: usize, size: usize) {
        let granted = self.inner.backend.granted_size_for(size).unwrap_or(size);
        self.inner.mapping.commit_range(offset, granted.max(size));
    }

    /// Allocates at least `size` bytes and returns a pointer into the region.
    pub fn alloc_bytes(&self, size: usize) -> Option<NonNull<u8>> {
        let offset = self.alloc(size)?;
        // SAFETY: `offset < total_memory`, so the resulting pointer stays
        // within the mapping backing this region.
        Some(unsafe { NonNull::new_unchecked(self.base().as_ptr().add(offset)) })
    }

    /// Fallible variant of [`BuddyRegion::alloc_bytes`].
    pub fn try_alloc_bytes(&self, size: usize) -> Result<NonNull<u8>, AllocError> {
        let offset = self.try_alloc(size)?;
        // SAFETY: as above.
        Ok(unsafe { NonNull::new_unchecked(self.base().as_ptr().add(offset)) })
    }

    /// The offset of a pointer handed to a release; panics on a pointer the
    /// region never granted.
    fn released_offset(&self, ptr: NonNull<u8>) -> usize {
        self.offset_of(ptr).expect("pointer outside the region")
    }

    /// Releases a pointer previously returned by [`BuddyRegion::alloc_bytes`].
    pub fn dealloc_bytes(&self, ptr: NonNull<u8>) {
        self.inner.backend.dealloc(self.released_offset(ptr));
    }

    /// [`BuddyRegion::dealloc_bytes`] for a caller that knows the block's
    /// granted size (the contract of [`BuddyBackend::dealloc_sized`]): a
    /// cache underneath parks the chunk without looking its class up.
    pub fn dealloc_bytes_sized(&self, ptr: NonNull<u8>, granted: usize) {
        self.inner
            .backend
            .dealloc_sized(self.released_offset(ptr), granted);
    }

    /// Fallible release with validation of the pointer.
    pub fn try_dealloc_bytes(&self, ptr: NonNull<u8>) -> Result<(), FreeError> {
        match self.offset_of(ptr) {
            Some(offset) => self.inner.backend.try_dealloc(offset),
            None => Err(FreeError::OutOfRange {
                offset: ptr.as_ptr() as usize,
                total_memory: self.total_memory(),
            }),
        }
    }

    /// Converts a pointer inside the region back to its byte offset.
    pub fn offset_of(&self, ptr: NonNull<u8>) -> Option<usize> {
        let base = self.base().as_ptr() as usize;
        let addr = ptr.as_ptr() as usize;
        if addr < base || addr >= base + self.total_memory() {
            return None;
        }
        Some(addr - base)
    }

    /// Whether `ptr` points inside the managed region.
    pub fn contains(&self, ptr: NonNull<u8>) -> bool {
        self.offset_of(ptr).is_some()
    }

    /// Bytes currently handed out by the backend.
    pub fn allocated_bytes(&self) -> usize {
        self.inner.backend.allocated_bytes()
    }

    /// Bytes of the span currently committed — managed minus decommitted.
    /// Exact from construction: a fresh region reads 0, and a page counts
    /// from the grant that covers it until the scrubber decommits it.
    pub fn committed_bytes(&self) -> usize {
        self.inner.mapping.committed_bytes()
    }

    /// Total span the region manages, in bytes (alias of
    /// [`BuddyRegion::total_memory`], named for the committed/managed pair).
    pub fn managed_bytes(&self) -> usize {
        self.total_memory()
    }

    /// Point-in-time backing-memory accounting.
    pub fn memory_stats(&self) -> MemoryStatsSnapshot {
        let inner = &*self.inner;
        MemoryStatsSnapshot {
            managed_bytes: self.total_memory() as u64,
            committed_bytes: inner.mapping.committed_bytes() as u64,
            decommitted_bytes: inner.mapping.decommitted_bytes() as u64,
            scrub_passes: inner.scrub_passes.load(Ordering::Relaxed),
            scrub_blocks: inner.scrub_blocks.load(Ordering::Relaxed),
            scrub_bytes: inner.scrub_bytes.load(Ordering::Relaxed),
            decommit_calls: inner.mapping.decommit_calls(),
            recommitted_bytes: inner.mapping.recommit_bytes_total(),
            metadata_decommitted_bytes: inner.metadata_decommitted_bytes.load(Ordering::Relaxed),
            trimmed_pages: inner.trimmed_pages.load(Ordering::Relaxed),
        }
    }

    /// Clears the decommit accounting for `[offset, offset + len)`.  For
    /// callers that write region memory without a grant through the region
    /// (a front end handing out the backend's raw offsets, a test dirtying
    /// the span by hand).
    pub fn commit_range(&self, offset: usize, len: usize) {
        self.inner.mapping.commit_range(offset, len);
    }

    /// One synchronous scrub pass: trims empty slab pages, then walks the
    /// backend's free blocks, claiming each quiescent one, releasing the
    /// physical frames of each run of adjacent claimed blocks with one
    /// kernel call and freeing the run's blocks back.  Returns bytes newly
    /// decommitted of the span (the metadata pages a tree gives back with a
    /// run are counted apart, in
    /// [`MemoryStatsSnapshot::metadata_decommitted_bytes`]).  Safe to call
    /// concurrently with allocation traffic — the claim is the ordinary
    /// allocation protocol, so the scrubber and the mutators resolve
    /// conflicts exactly like racing allocators.
    ///
    /// A run ends at a gap (a live or already-decommitted block, a failed
    /// claim) or at its cap: 2 MiB, at most 1/16 of the span, never
    /// less than one block.  While a run is held those bytes are allocated
    /// as far as a concurrent `alloc` can tell, so the cap is what a pass
    /// can cost an allocation that arrives during it.  The held blocks are
    /// freed on every exit, a panic unwinding through the pass included.
    /// [`MemoryStatsSnapshot::decommit_calls`] counts the kernel calls for
    /// the span.
    ///
    /// A tree frees a run in one call and drops the whole pages of its
    /// `index[]` that only the run's units use (one page per 128 KiB of
    /// 32 B units) and of the node storage below the run's blocks (on the
    /// shipped 4-level tree, a leaf-layer word page per 128 KiB and a page
    /// of the layer above per 2 MiB); a wrapper that routes or intercepts
    /// the scrubber's release (a slotted set, a lock, a fault injector)
    /// frees it block by block and gives back no metadata.
    pub fn scrub_pass(&self) -> usize {
        self.inner.scrub_pass()
    }

    /// Starts the background scrubber thread (`nbbs-scrub`), running
    /// [`BuddyRegion::scrub_pass`] every `interval`.  A no-op if the
    /// scrubber is already running.  Stopped by
    /// [`BuddyRegion::stop_scrubber`] or when the region drops.
    pub fn start_scrubber(&self, interval: Duration)
    where
        A: 'static,
    {
        let mut guard = self.scrubber.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_some() {
            return;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let inner = Arc::clone(&self.inner);
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("nbbs-scrub".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    inner.scrub_pass();
                    // Sleep in slices so stop requests are honoured promptly.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop_flag.load(Ordering::Acquire) {
                        let slice = (interval - slept).min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                }
            })
            .expect("failed to spawn nbbs-scrub");
        *guard = Some(ScrubberHandle { stop, thread });
    }

    /// Stops and joins the background scrubber, if running.
    pub fn stop_scrubber(&self) {
        let handle = self
            .scrubber
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(h) = handle {
            h.stop.store(true, Ordering::Release);
            let _ = h.thread.join();
        }
    }
}

/// Forwards each listed method to the region's backend.
macro_rules! to_backend {
    ($(fn $method:ident(&self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?;)*) => {
        $(fn $method(&self $(, $arg: $ty)*) $(-> $ret)? {
            self.inner.backend.$method($($arg),*)
        })*
    };
}

/// The region as a layer of offsets: a grant clears the commit marks of its
/// block, as [`BuddyRegion::alloc_bytes`] does; the rest is the backend's.
impl<A: BuddyBackend> BuddyBackend for BuddyRegion<A> {
    fn alloc(&self, size: usize) -> Option<usize> {
        let offset = self.inner.backend.alloc(size)?;
        self.note_grant(offset, size);
        Some(offset)
    }

    fn try_alloc(&self, size: usize) -> Result<usize, AllocError> {
        let offset = self.inner.backend.try_alloc(size)?;
        self.note_grant(offset, size);
        Ok(offset)
    }

    fn inner(&self) -> Option<&dyn BuddyBackend> {
        Some(&self.inner.backend)
    }

    to_backend! {
        fn name(&self) -> &'static str;
        fn geometry(&self) -> &Geometry;
        fn dealloc(&self, offset: usize);
        fn dealloc_sized(&self, offset: usize, granted: usize);
        fn try_dealloc(&self, offset: usize) -> Result<(), FreeError>;
        fn allocated_bytes(&self) -> usize;
        fn granted_size_of_live(&self, offset: usize) -> Option<usize>;
        fn granted_size_for(&self, size: usize) -> Option<usize>;
        fn grant_alignment_for(&self, size: usize) -> Option<usize>;
        fn scrub_dealloc_run(&self, run: &[(usize, usize)]) -> Option<usize>;
    }
}

impl<A: BuddyBackend> Drop for BuddyRegion<A> {
    fn drop(&mut self) {
        // The scrubber only holds the shared inner state (kept alive by its
        // Arc), but there is no reason to keep burning cycles for a region
        // that is going away.
        self.stop_scrubber();
    }
}

impl<A: BuddyBackend + std::fmt::Debug> std::fmt::Debug for BuddyRegion<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuddyRegion")
            .field("backend", &self.inner.backend)
            .field("base", &self.base())
            .field("committed_bytes", &self.committed_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::page_size;
    use crate::{BuddyConfig, NbbsFourLevel, NbbsOneLevel};

    fn region(total: usize, min: usize, max: usize) -> BuddyRegion<NbbsOneLevel> {
        BuddyRegion::new(NbbsOneLevel::new(
            BuddyConfig::new(total, min, max).unwrap(),
        ))
    }

    #[test]
    fn pointers_are_inside_the_region_and_aligned() {
        let r = region(1 << 16, 64, 1 << 12);
        let p = r.alloc_bytes(100).unwrap();
        assert!(r.contains(p));
        assert_eq!(r.offset_of(p).unwrap() % 128, 0);
        // Natural alignment: a 128-byte chunk is 128-byte aligned because the
        // base itself is max_size-aligned.
        assert_eq!(p.as_ptr() as usize % 128, 0);
        r.dealloc_bytes(p);
        assert_eq!(r.allocated_bytes(), 0);
    }

    #[test]
    fn memory_is_actually_usable() {
        let r = BuddyRegion::new(NbbsFourLevel::new(
            BuddyConfig::new(1 << 16, 64, 1 << 12).unwrap(),
        ));
        let p = r.alloc_bytes(4096).unwrap();
        // Write and read back through the pointer.
        unsafe {
            p.as_ptr().write_bytes(0x5A, 4096);
            assert_eq!(*p.as_ptr(), 0x5A);
            assert_eq!(*p.as_ptr().add(4095), 0x5A);
        }
        r.dealloc_bytes(p);
    }

    #[test]
    fn distinct_allocations_get_distinct_memory() {
        let r = region(1 << 14, 64, 1 << 10);
        let a = r.alloc_bytes(256).unwrap();
        let b = r.alloc_bytes(256).unwrap();
        unsafe {
            a.as_ptr().write_bytes(0x11, 256);
            b.as_ptr().write_bytes(0x22, 256);
            assert_eq!(*a.as_ptr(), 0x11);
            assert_eq!(*b.as_ptr(), 0x22);
        }
        r.dealloc_bytes(a);
        r.dealloc_bytes(b);
    }

    #[test]
    fn out_of_region_pointers_are_rejected() {
        let r = region(4096, 64, 4096);
        let mut outside = 0u8;
        let stray = NonNull::new(&mut outside as *mut u8).unwrap();
        assert!(!r.contains(stray));
        assert!(matches!(
            r.try_dealloc_bytes(stray),
            Err(FreeError::OutOfRange { .. })
        ));
    }

    #[test]
    fn try_alloc_bytes_reports_exhaustion() {
        let r = region(1024, 64, 1024);
        let p = r.alloc_bytes(1024).unwrap();
        assert!(matches!(
            r.try_alloc_bytes(64),
            Err(AllocError::OutOfMemory { .. })
        ));
        r.dealloc_bytes(p);
        assert!(r.try_alloc_bytes(64).is_ok());
    }

    #[test]
    fn region_exposes_backend() {
        let r = region(4096, 64, 4096);
        assert_eq!(r.backend().name(), "1lvl-nb");
        assert_eq!(r.total_memory(), 4096);
    }

    #[test]
    fn scrub_pass_decommits_idle_memory_and_grants_recommit() {
        let page = page_size();
        // 64 top-level blocks of 4 pages each, all page-multiple.
        let total = page * 256;
        let r = region(total, page, page * 4);
        assert_eq!(r.committed_bytes(), 0, "a fresh region starts decommitted");

        // Dirty a block, free it, scrub: the one block granted goes back,
        // and committed bytes fall to zero again.
        let p = r.alloc_bytes(page * 4).unwrap();
        assert_eq!(r.committed_bytes(), page * 4);
        unsafe { p.as_ptr().write_bytes(0xEE, page * 4) };
        r.dealloc_bytes(p);
        let freed = r.scrub_pass();
        assert_eq!(
            freed,
            page * 4,
            "only the granted block had pages to release"
        );
        assert_eq!(r.committed_bytes(), 0);
        let stats = r.memory_stats();
        assert_eq!(stats.scrub_passes, 1);
        assert_eq!(stats.scrub_bytes, (page * 4) as u64);
        assert_eq!(stats.managed_bytes, total as u64);
        assert_eq!(stats.decommitted_bytes, total as u64);
        assert_eq!(stats.scrub_blocks, 1);

        // A second pass finds everything already decommitted.
        assert_eq!(r.scrub_pass(), 0);

        // Reuse after decommit: the memory reads zero and is writable, and
        // the grant recommits its pages in the accounting.
        let q = r.alloc_bytes(page * 4).unwrap();
        unsafe {
            for i in 0..page * 4 {
                assert_eq!(*q.as_ptr().add(i), 0, "decommitted block reads zero");
            }
            q.as_ptr().write_bytes(0x77, page * 4);
        }
        assert_eq!(r.committed_bytes(), page * 4);
        assert_eq!(
            r.memory_stats().recommitted_bytes,
            (page * 8) as u64,
            "a first grant counts, as does the one after the scrub"
        );
        r.dealloc_bytes(q);
    }

    #[test]
    fn scrubber_skips_live_blocks() {
        let page = page_size();
        let total = page * 64;
        let r = region(total, page, page * 4);

        let live = r.alloc_bytes(page * 4).unwrap();
        unsafe { live.as_ptr().write_bytes(0xAB, page * 4) };

        // A granted, dirtied and freed block is the scrubber's to take.
        let freed = r.alloc_bytes(page * 4).unwrap();
        unsafe { freed.as_ptr().write_bytes(0xCD, page * 4) };
        r.dealloc_bytes(freed);

        assert_eq!(r.scrub_pass(), page * 4);
        // The live block kept its contents and its pages.
        unsafe {
            assert_eq!(*live.as_ptr(), 0xAB);
            assert_eq!(*live.as_ptr().add(page * 4 - 1), 0xAB);
        }
        assert_eq!(
            r.committed_bytes(),
            page * 4,
            "only the live block stays committed"
        );
        assert_eq!(
            r.allocated_bytes(),
            page * 4,
            "scrubber returned every claim"
        );
        r.dealloc_bytes(live);
    }

    #[test]
    fn a_touched_free_span_decommits_in_runs_not_blocks() {
        // The shipped arena's shape: 64 MiB of 4 KiB units under 64 KiB
        // blocks, every page granted and touched, everything free.
        const TOTAL: usize = 64 << 20;
        const BLOCK: usize = 64 << 10;
        let r = BuddyRegion::new(NbbsFourLevel::new(
            BuddyConfig::new(TOTAL, 4096, BLOCK).unwrap(),
        ));
        r.commit_range(0, TOTAL);
        for at in (0..TOTAL).step_by(page_size()) {
            unsafe { r.base().as_ptr().add(at).write(0xEE) };
        }
        assert_eq!(r.scrub_pass(), TOTAL);
        let stats = r.memory_stats();
        assert_eq!(stats.scrub_blocks, (TOTAL / BLOCK) as u64);
        assert_eq!(stats.scrub_bytes, TOTAL as u64);
        assert_eq!(
            stats.decommit_calls,
            (TOTAL / RUN_CAP_BYTES) as u64,
            "one kernel call per 2 MiB run, not one per 64 KiB block"
        );
        assert_eq!(r.allocated_bytes(), 0, "every held block went back");
        assert_eq!(r.committed_bytes(), 0);
        assert_eq!(unsafe { *r.base().as_ptr().add(TOTAL / 2) }, 0);
    }

    #[test]
    fn each_run_gives_back_the_index_pages_under_it() {
        // The shipped tree: 64 MiB of 32 B units, a 2 MiB `index[]`, one
        // page of it per 128 KiB of span.  Its 64 KiB blocks are level 10,
        // the root of a bunch of levels 10–13, and the two bunch layers
        // below it, rooted at levels 14 and 18, hold 2^14 and 2^18 words,
        // page-aligned: every run covers whole pages of them too.
        const TOTAL: usize = 64 << 20;
        const BLOCK: usize = 64 << 10;
        let r = BuddyRegion::new(NbbsFourLevel::new(
            BuddyConfig::new(TOTAL, 32, BLOCK).unwrap(),
        ));
        let whole: Vec<_> = (0..TOTAL / BLOCK)
            .map(|_| r.alloc_bytes(BLOCK).expect("full capacity"))
            .collect();
        for p in whole {
            r.dealloc_bytes(p);
        }
        assert_eq!(r.scrub_pass(), TOTAL);
        let stats = r.memory_stats();
        assert_eq!(stats.decommit_calls, (TOTAL / RUN_CAP_BYTES) as u64);
        if page_size() == 4096 {
            // Node pages go only where the scrubber can wait scans out.
            let words = if nbbs_sync::Grace::new().can_wait() {
                ((1 << 14) + (1 << 18)) * 8
            } else {
                0
            };
            assert_eq!(
                stats.metadata_decommitted_bytes,
                (TOTAL / 32 + words) as u64,
                "every run covers whole index and word pages, so all of them went: {stats}"
            );
        }
        assert_eq!(r.allocated_bytes(), 0, "the tree freed every run");
        crate::verify::audit_empty(r.backend()).assert_clean();
        // The second day's grants write their entries on fresh pages.
        let whole: Vec<_> = (0..TOTAL / BLOCK)
            .map(|_| r.alloc_bytes(BLOCK).expect("full capacity"))
            .collect();
        for p in whole {
            r.dealloc_bytes(p);
        }
        crate::verify::audit_empty(r.backend()).assert_clean();
    }

    #[test]
    fn a_span_freed_in_two_halves_gives_back_its_whole_index_on_the_second_pass() {
        // The shipped tree, every 64 KiB block granted and touched.  The
        // first night finds every other block free: each is a run of its
        // own, too short to cover a page of `index[]` (one per 128 KiB).
        // The second finds the rest free too, beside blocks the first pass
        // decommitted, and its 2 MiB runs cover every page.
        const TOTAL: usize = 64 << 20;
        const BLOCK: usize = 64 << 10;
        let r = BuddyRegion::new(NbbsFourLevel::new(
            BuddyConfig::new(TOTAL, 32, BLOCK).unwrap(),
        ));
        let blocks: Vec<_> = (0..TOTAL / BLOCK)
            .map(|_| r.alloc_bytes(BLOCK).expect("full capacity"))
            .collect();
        for p in &blocks {
            for at in (0..BLOCK).step_by(page_size()) {
                unsafe { p.as_ptr().add(at).write(0xEE) };
            }
        }
        let (odd, even): (Vec<_>, Vec<_>) = blocks
            .into_iter()
            .partition(|p| r.offset_of(*p).unwrap() / BLOCK % 2 == 1);
        for p in odd {
            r.dealloc_bytes(p);
        }
        assert_eq!(r.scrub_pass(), TOTAL / 2);
        let first = r.memory_stats();
        assert_eq!(first.decommit_calls, (TOTAL / BLOCK / 2) as u64);
        for p in even {
            r.dealloc_bytes(p);
        }
        assert_eq!(r.scrub_pass(), TOTAL / 2);
        let second = r.memory_stats();
        assert_eq!(
            second.decommit_calls - first.decommit_calls,
            (TOTAL / RUN_CAP_BYTES) as u64,
            "the decommitted blocks joined the runs"
        );
        assert_eq!(second.scrub_blocks, (TOTAL / BLOCK) as u64);
        if page_size() == 4096 {
            assert_eq!(first.metadata_decommitted_bytes, 0, "{first}");
            // The bunch layers below the blocks go too, where scans can be
            // waited out (see `each_run_gives_back_the_index_pages_under_it`).
            let words = if nbbs_sync::Grace::new().can_wait() {
                ((1 << 14) + (1 << 18)) * 8
            } else {
                0
            };
            assert_eq!(
                second.metadata_decommitted_bytes,
                (TOTAL / 32 + words) as u64,
                "the second pass drops the whole index[] and the words below: {second}"
            );
        }
        assert_eq!(r.allocated_bytes(), 0);
        assert_eq!(r.committed_bytes(), 0);
        crate::verify::audit_empty(r.backend()).assert_clean();
    }

    #[test]
    fn live_blocks_split_the_run_and_decommitted_ones_extend_it() {
        let page = page_size();
        let block = page * 4;
        const BLOCKS: usize = 256;
        const LIVE: usize = 40;
        const GONE: usize = 170;
        let r = region(block * BLOCKS, page, block);
        r.commit_range(0, block * BLOCKS);
        unsafe { r.base().as_ptr().write_bytes(0xEE, block * BLOCKS) };
        let fill = |b: usize, byte: u8| unsafe {
            r.base().as_ptr().add(b * block).write_bytes(byte, block)
        };
        let reads_all = |b: usize, byte: u8| {
            let bytes =
                unsafe { std::slice::from_raw_parts(r.base().as_ptr().add(b * block), block) };
            bytes.iter().all(|&x| x == byte)
        };

        assert!(r.backend().claim_block(LIVE * block, block));
        fill(LIVE, 0xAB);
        assert_eq!(r.inner.mapping.decommit(GONE * block, block), block);

        let cap_blocks = r.inner.run_cap() / block;
        assert_eq!(cap_blocks, BLOCKS / 16);
        let freed = r.scrub_pass();
        let scrubbed = BLOCKS - 2;
        assert_eq!(freed, scrubbed * block);
        let stats = r.memory_stats();
        assert_eq!(stats.scrub_blocks, scrubbed as u64);
        assert_eq!(stats.scrub_bytes, (scrubbed * block) as u64);
        // Two free spans either side of the live block, each cut into runs
        // of at most the cap, plus the call that decommitted `GONE` by hand:
        // no run crossed the live block, and `GONE` split none.
        let spans = [LIVE, BLOCKS - LIVE - 1];
        let runs: usize = spans.iter().map(|s| s.div_ceil(cap_blocks)).sum();
        assert_eq!(stats.decommit_calls, 1 + runs as u64);

        assert_eq!(r.allocated_bytes(), block, "only the live block is out");
        assert!(reads_all(LIVE, 0xAB), "the live block survived the pass");
        for neighbour in [LIVE - 1, LIVE + 1, GONE - 1, GONE + 1] {
            assert!(r.backend().claim_block(neighbour * block, block));
            r.commit_range(neighbour * block, block);
            assert!(reads_all(neighbour, 0), "block {neighbour} reads zero");
            fill(neighbour, 0x11);
            r.backend().dealloc(neighbour * block);
        }
        r.backend().dealloc(LIVE * block);
        assert_eq!(r.allocated_bytes(), 0);
    }

    #[test]
    fn a_fresh_region_commits_only_what_is_granted_and_scrubs_only_that() {
        // The shipped arena's shape: 32 B units, 1 024 blocks of 16 pages.
        let page = page_size();
        let block = page * 16;
        let total = block * 1024;
        let r = BuddyRegion::new(NbbsFourLevel::new(
            BuddyConfig::new(total, 32, block).unwrap(),
        ));
        assert_eq!(r.committed_bytes(), 0, "nothing granted, nothing committed");
        assert_eq!(r.memory_stats().decommitted_bytes, total as u64);

        let p = r.alloc_bytes(page).unwrap();
        assert_eq!(r.committed_bytes(), page, "one page granted, one committed");
        assert_eq!(r.memory_stats().recommitted_bytes, page as u64);
        unsafe { p.as_ptr().write_bytes(0xEE, page) };
        r.dealloc_bytes(p);

        // Every block is free, but only the one that held the grant has a
        // page to release: one kernel call, and no claim past that block.
        assert_eq!(r.scrub_pass(), page);
        let stats = r.memory_stats();
        assert_eq!(stats.scrub_blocks, 1);
        assert_eq!(stats.decommit_calls, 1);
        assert_eq!(r.committed_bytes(), 0);
        assert_eq!(r.allocated_bytes(), 0);
        assert_eq!(r.scrub_pass(), 0);
        assert_eq!(r.memory_stats().decommit_calls, 1);
    }

    #[test]
    fn background_scrubber_starts_stops_and_scrubs() {
        let page = page_size();
        let r = region(page * 64, page, page * 4);
        let p = r.alloc_bytes(page * 4).unwrap();
        unsafe { p.as_ptr().write_bytes(0x42, page * 4) };
        r.dealloc_bytes(p);

        r.start_scrubber(Duration::from_millis(1));
        r.start_scrubber(Duration::from_millis(1)); // idempotent
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while r.committed_bytes() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(r.committed_bytes(), 0, "background scrubber drained RSS");
        r.stop_scrubber();
        let passes = r.memory_stats().scrub_passes;
        assert!(passes >= 1);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            r.memory_stats().scrub_passes,
            passes,
            "stopped scrubber makes no more passes"
        );
        // Allocation still works after scrubbing stops.
        assert!(r.alloc_bytes(page).is_some());
    }

    #[test]
    fn sub_page_regions_survive_scrubbing() {
        // A region smaller than one page: nothing can be decommitted, but
        // nothing breaks either (fallback platforms would round to zero
        // pages the same way).
        let r = region(1024, 64, 1024);
        let p = r.alloc_bytes(512).unwrap();
        unsafe { p.as_ptr().write_bytes(0x99, 512) };
        assert_eq!(r.scrub_pass(), 0);
        unsafe { assert_eq!(*p.as_ptr(), 0x99) };
        assert_eq!(r.committed_bytes(), 1024);
        r.dealloc_bytes(p);
        assert_eq!(r.scrub_pass(), 0, "sub-page blocks are skipped");
    }
}
