//! The layout-aware allocator facade.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nbbs::error::AllocError;
use nbbs::{BuddyBackend, BuddyRegion, FacadeStatsSnapshot};
use nbbs_obs::{size_detail, HeapProfiler, OpKind, Recorder};
use nbbs_sync::{default_stripes, CachePadded, Claim, ThreadToken};

/// The buddy request size for `layout` before any alignment bump: rounding
/// to `max(size, align)` makes a *naturally aligned* (power-of-two) grant
/// satisfy the alignment for free.
#[inline]
pub(crate) fn base_request_size(layout: Layout) -> usize {
    layout.size().max(layout.align()).max(1)
}

/// A layout-aware allocator over any [`BuddyBackend`].
///
/// This is the top layer of the stack the NBBS paper sketches —
///
/// ```text
/// NbbsFourLevel / NbbsOneLevel      lock-free buddy tree   (nbbs)
///         └─ MagazineCache          per-thread magazines   (nbbs-cache)
///                 └─ NbbsAllocator  Layout in, pointers out (nbbs-alloc)
/// ```
///
/// — though any [`BuddyBackend`] slots in below it.  The facade owns a
/// [`BuddyRegion`] (real backing memory) and speaks `Layout`, exposing the
/// `core::alloc::Allocator`-shaped operations as inherent methods plus a
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
/// * **`grow`/`shrink` resolve in place whenever the new layout names the
///   class the block already has.**  The granted size is a pure function of
///   the request size ([`BuddyBackend::granted_size_for`]), so the decision
///   is level math on the geometry — no tree walk, no metadata lookup.
/// * **The layout names the block's class.**  At every
///   [`NbbsAllocator::deallocate`] the block's true granted size is
///   [`NbbsAllocator::granted_size`] of the layout it is released under:
///   `allocate` grants exactly that, and `grow`/`shrink` keep a block in
///   place only under a layout of the same class.  That is what lets a
///   release hand the size down the stack
///   ([`BuddyBackend::dealloc_sized`]) instead of having a cache look it up
///   in the tree.
/// * Everything routes through whatever backend it wraps, so putting a
///   `MagazineCache` underneath turns every allocation and release into a
///   magazine operation; the facade adds no locks of its own, and its
///   always-on counts — the requested/granted odometer and the grow/shrink
///   split — live on a stripe per thread that the thread claims like its
///   cache slot ([`nbbs_sync::owned`]'s claim rule), so a thread that owns
///   its stripe books a grant or a resize with plain loads and stores on a
///   line no other thread writes.
///
/// Zero-sized layouts are grilled up to one allocation unit rather than
/// handed a dangling pointer: the facade's pointers are always real,
/// region-owned memory, which keeps `deallocate` uniform.
pub struct NbbsAllocator<A: BuddyBackend> {
    region: BuddyRegion<A>,
    /// The cumulative counts: the `(requested, granted)` byte odometer and
    /// the grow/shrink split.
    odometer: Odometer,
    /// Optional observer.  Every *public* facade operation records exactly
    /// one event (a moved grow is one `Grow`, not a `Grow` + `Alloc` +
    /// `Free`), and when the handle carries a heap profiler every granted
    /// block is offered to [`HeapProfiler::record_alloc`] (which samples
    /// 1-in-stride) and every release to [`HeapProfiler::record_free`].
    /// `None` skips all of it: no timestamp read, nothing else tested.
    obs: Option<Arc<Recorder>>,
}

impl<A: BuddyBackend> NbbsAllocator<A> {
    /// Wraps `backend` together with a freshly allocated backing region.
    pub fn new(backend: A) -> Self {
        NbbsAllocator {
            region: BuddyRegion::new(backend),
            odometer: Odometer::new(default_stripes()),
            obs: None,
        }
    }

    /// Attaches an observer: `allocate`/`deallocate`/`grow`/`shrink` record
    /// one [`nbbs_obs::OpKind`] event each, and its heap profiler (if it has
    /// one) sees every block the facade hands out.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.obs = Some(recorder);
        self
    }

    /// The attached observer, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.obs.as_ref()
    }

    /// The observer's heap profiler, when both are there.
    #[inline]
    fn profiler(&self) -> Option<&HeapProfiler> {
        self.obs.as_ref().and_then(|rec| rec.profiler())
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
    pub(crate) fn request_size(&self, layout: Layout) -> usize {
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
    pub fn granted_size(&self, layout: Layout) -> Option<usize> {
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

    /// Point-in-time copy of what the facade counts: the grow/shrink split
    /// and the requested/granted odometers.  The two `system_*` fields are
    /// the global shell's and stay zero.
    pub fn facade_stats(&self) -> FacadeStatsSnapshot {
        self.odometer.totals()
    }

    /// Books a successful grant: requested-vs-granted byte accounting on
    /// the calling thread's odometer stripe plus the (sampled)
    /// heap-profiler capture.
    fn account_grant(&self, layout: Layout, granted: usize, offset: Option<usize>) {
        self.odometer
            .add(layout.size().max(1) as u64, granted as u64);
        if let (Some(profiler), Some(offset)) = (self.profiler(), offset) {
            profiler.record_alloc(offset, granted);
        }
    }

    /// Allocates memory fitting `layout`.
    ///
    /// The returned slice covers the whole granted buddy block — at least
    /// `layout.size()` bytes, aligned to at least `layout.align()`.  The
    /// caller may use every byte of it, and may pass any layout whose
    /// request rounds to the same granted size to [`NbbsAllocator::deallocate`].
    pub fn allocate(&self, layout: Layout) -> Result<NonNull<[u8]>, AllocError> {
        Recorder::time(
            &self.obs,
            OpKind::Alloc,
            || self.allocate_inner(layout),
            |out| (size_detail(base_request_size(layout)), out.is_ok()),
        )
    }

    /// [`NbbsAllocator::allocate`] without the latency recording — the
    /// building block `grow`/`shrink` use so a moved realloc records as one
    /// event of its own kind.
    fn allocate_inner(&self, layout: Layout) -> Result<NonNull<[u8]>, AllocError> {
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
        self.account_grant(
            layout,
            granted,
            self.profiler().and_then(|_| self.region.offset_of(ptr)),
        );
        Ok(NonNull::slice_from_raw_parts(ptr, granted))
    }

    /// Allocates zero-initialized memory fitting `layout`.
    ///
    /// Buddy chunks are recycled without scrubbing, so the whole granted
    /// block is zeroed here.
    pub fn allocate_zeroed(&self, layout: Layout) -> Result<NonNull<[u8]>, AllocError> {
        let block = self.allocate(layout)?;
        // SAFETY: `block` is a fresh, exclusive allocation of exactly
        // `block.len()` bytes.
        unsafe { block.cast::<u8>().as_ptr().write_bytes(0, block.len()) };
        Ok(block)
    }

    /// Releases a block obtained from this facade.
    ///
    /// The release is *sized*: [`NbbsAllocator::granted_size`] of `layout`
    /// goes down the stack with the offset
    /// ([`BuddyBackend::dealloc_sized`]), so a cache underneath parks the
    /// chunk without asking the tree what it is.  That is sound because the
    /// layout names the block's class by construction (see the type docs).
    ///
    /// # Safety
    ///
    /// `ptr` must denote a block currently allocated by this facade, and
    /// `layout` must round to the same granted size as the layout it was
    /// allocated (or last grown/shrunk) with.  A layout of another class is
    /// a logic error of the same rank as a wrong pointer: the block would
    /// be filed under the class the layout names.
    pub unsafe fn deallocate(&self, ptr: NonNull<u8>, layout: Layout) {
        Recorder::time(
            &self.obs,
            OpKind::Free,
            // SAFETY: the caller's contract, passed on unchanged.
            || unsafe { self.deallocate_inner(ptr, layout) },
            |_| (size_detail(base_request_size(layout)), true),
        )
    }

    /// [`NbbsAllocator::deallocate`] without the latency recording.
    ///
    /// # Safety
    ///
    /// Same contract as [`NbbsAllocator::deallocate`].
    unsafe fn deallocate_inner(&self, ptr: NonNull<u8>, layout: Layout) {
        debug_assert!(self.region.contains(ptr), "pointer outside the region");
        if self.profiler().is_some() {
            if let Some(offset) = self.region.offset_of(ptr) {
                self.note_release(offset);
            }
        }
        match self.granted_size(layout) {
            Some(granted) => self.region.dealloc_bytes_sized(ptr, granted),
            // Unreachable for a correctly-used facade (the layout was
            // allocatable); let the backend look the size up rather than
            // guess.
            None => self.region.dealloc_bytes(ptr),
        }
    }

    /// What a release does before the block at `offset` goes back to the
    /// backend: the profiler sees it go.
    fn note_release(&self, offset: usize) {
        if let Some(profiler) = self.profiler() {
            profiler.record_free(offset);
        }
    }

    /// The in-place rule of `grow` and `shrink`: a block of `granted` bytes
    /// at `ptr` stays put only when `new_layout` names the same class, so
    /// the layout it is eventually released under still names the block.
    /// The alignment is checked on the pointer itself — a spaced slab class
    /// is only granule-aligned, so "same class" does not imply "aligned
    /// enough" when the new layout raises the alignment.
    #[inline]
    fn stays_in_place(&self, ptr: NonNull<u8>, granted: usize, new_layout: Layout) -> bool {
        self.granted_size(new_layout) == Some(granted)
            && (ptr.as_ptr() as usize).is_multiple_of(new_layout.align())
    }

    /// Grows a block to `new_layout`, preserving its first
    /// `old_layout.size()` bytes.
    ///
    /// Resolves in place — same pointer back, no copy — whenever
    /// `new_layout` names the class the block already has (and the pointer
    /// meets its alignment); otherwise allocates a block of the new class,
    /// copies, and releases the old one.  "The block is big enough" is not
    /// the rule: a new layout that *lowers* the alignment into a smaller
    /// class (`(8, align 4096)` → `(16, align 1)`) moves, so that the
    /// layout keeps naming the block's class for the eventual
    /// [`NbbsAllocator::deallocate`].
    ///
    /// # Safety
    ///
    /// `ptr` must denote a block currently allocated by this facade with
    /// `old_layout` (same contract as [`NbbsAllocator::deallocate`]), and
    /// `new_layout.size()` must be at least `old_layout.size()`.
    pub unsafe fn grow(
        &self,
        ptr: NonNull<u8>,
        old_layout: Layout,
        new_layout: Layout,
    ) -> Result<NonNull<[u8]>, AllocError> {
        Recorder::time(
            &self.obs,
            OpKind::Grow,
            // SAFETY: the caller's contract, passed on unchanged.
            || unsafe { self.grow_inner(ptr, old_layout, new_layout) },
            |out| (size_detail(base_request_size(new_layout)), out.is_ok()),
        )
    }

    /// [`NbbsAllocator::grow`] without the latency recording.
    ///
    /// # Safety
    ///
    /// Same contract as [`NbbsAllocator::grow`].
    unsafe fn grow_inner(
        &self,
        ptr: NonNull<u8>,
        old_layout: Layout,
        new_layout: Layout,
    ) -> Result<NonNull<[u8]>, AllocError> {
        debug_assert!(new_layout.size() >= old_layout.size());
        if let Some(granted) = self.granted_size(old_layout) {
            if self.stays_in_place(ptr, granted, new_layout) {
                self.odometer.count(|c| &c.grows_in_place);
                return Ok(NonNull::slice_from_raw_parts(ptr, granted));
            }
        }
        let new_block = self.allocate_inner(new_layout)?;
        // SAFETY: distinct blocks; the old block holds `old_layout.size()`
        // initialized-or-caller-owned bytes and the new one is larger, and
        // the old one is released once, under the caller's layout.
        unsafe {
            std::ptr::copy_nonoverlapping(
                ptr.as_ptr(),
                new_block.cast::<u8>().as_ptr(),
                old_layout.size(),
            );
            self.deallocate_inner(ptr, old_layout);
        }
        self.odometer.count(|c| &c.grows_moved);
        Ok(new_block)
    }

    /// Shrinks a block to `new_layout`, preserving its first
    /// `new_layout.size()` bytes.
    ///
    /// When the new layout still rounds to the same granted size the block
    /// stays put (a buddy cannot return half a block anyway); when it names
    /// another class the block moves there, releasing the difference.  If
    /// that move cannot be served — the smaller class is momentarily
    /// exhausted — `shrink` fails and the block stays valid under
    /// `old_layout`, as `Allocator::shrink` permits: keeping the larger
    /// block under the smaller layout would break the class invariant
    /// [`NbbsAllocator::deallocate`] relies on.  (The `GlobalAlloc::realloc`
    /// impl then migrates the block to `System`, as it does for a grow the
    /// buddy cannot serve.)
    ///
    /// # Safety
    ///
    /// Same contract as [`NbbsAllocator::grow`], with
    /// `new_layout.size()` at most `old_layout.size()`.
    pub unsafe fn shrink(
        &self,
        ptr: NonNull<u8>,
        old_layout: Layout,
        new_layout: Layout,
    ) -> Result<NonNull<[u8]>, AllocError> {
        Recorder::time(
            &self.obs,
            OpKind::Shrink,
            // SAFETY: the caller's contract, passed on unchanged.
            || unsafe { self.shrink_inner(ptr, old_layout, new_layout) },
            |out| (size_detail(base_request_size(new_layout)), out.is_ok()),
        )
    }

    /// [`NbbsAllocator::shrink`] without the latency recording.
    ///
    /// # Safety
    ///
    /// Same contract as [`NbbsAllocator::shrink`].
    unsafe fn shrink_inner(
        &self,
        ptr: NonNull<u8>,
        old_layout: Layout,
        new_layout: Layout,
    ) -> Result<NonNull<[u8]>, AllocError> {
        debug_assert!(new_layout.size() <= old_layout.size());
        let Some(granted) = self.granted_size(old_layout) else {
            // Unreachable for a correctly-used facade (the old layout was
            // allocatable); keep the block rather than guess.
            self.odometer.count(|c| &c.shrinks_in_place);
            return Ok(NonNull::slice_from_raw_parts(ptr, new_layout.size()));
        };
        // Any other class moves, whether the new layout outgrows the block
        // (a raised alignment) or a smaller class would release memory; a
        // move that fails is the caller's error to see — the block is still
        // theirs under `old_layout`.
        if self.stays_in_place(ptr, granted, new_layout) {
            self.odometer.count(|c| &c.shrinks_in_place);
            return Ok(NonNull::slice_from_raw_parts(ptr, granted));
        }
        let new_block = self.allocate_inner(new_layout)?;
        // SAFETY: distinct blocks; the new one holds `new_layout.size()`
        // bytes, at most what the old one held, and the old one is released
        // once, under the caller's layout.
        unsafe {
            std::ptr::copy_nonoverlapping(
                ptr.as_ptr(),
                new_block.cast::<u8>().as_ptr(),
                new_layout.size(),
            );
            self.deallocate_inner(ptr, old_layout);
        }
        self.odometer.count(|c| &c.shrinks_moved);
        Ok(new_block)
    }
}

/// The facade's cumulative counts, the `(requested, granted)` byte odometer
/// and the grow/shrink split: one stripe per [`thread_stripe`] of
/// [`default_stripes`] — the size and index of the cache's default slot
/// table — each with a shared line beside it.
///
/// A thread claims its stripe on first use ([`Claim::hold`]) and from then
/// on is its only writer, so it books a grant or a resize with plain loads
/// and stores: no read-modify-write, on a line no other thread writes.  A
/// thread whose stripe another live thread holds adds to that stripe's
/// shared line with `fetch_add`, so crowded threads spread over as many
/// lines as there are stripes.  The stripe of a thread that exits stays
/// claimed, and later threads mapping there use its shared line — exact,
/// and as spread as a table of plain atomic stripes.  Every line only
/// grows, and [`Odometer::totals`] sums them, exactly at quiescence.
struct Odometer {
    stripes: Box<[Stripe]>,
    shared: Box<[CachePadded<Counts>]>,
}

/// One claimable stripe: its owner word and what it counts, on two lines,
/// so the threads crowded onto the stripe, which read the owner word on
/// every grant, do not pull the line its owner writes.
#[derive(Default)]
struct Stripe {
    claim: CachePadded<Claim>,
    counts: CachePadded<Counts>,
}

/// What a stripe or a shared line counts (one line's worth).
#[derive(Default)]
struct Counts {
    requested: AtomicU64,
    granted: AtomicU64,
    grows_in_place: AtomicU64,
    grows_moved: AtomicU64,
    shrinks_in_place: AtomicU64,
    shrinks_moved: AtomicU64,
}

/// Adds `by` to `cell`.  The holder of a stripe is its only writer, so a
/// plain load and store (`owned`) cannot lose an update, and the claim's
/// Acquire/Release hands the running sums from one holder to the next; a
/// shared line takes a `fetch_add`.
#[inline]
fn bump(cell: &AtomicU64, by: u64, owned: bool) {
    if owned {
        cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    } else {
        cell.fetch_add(by, Ordering::Relaxed);
    }
}

impl Odometer {
    fn new(stripes: usize) -> Self {
        Odometer {
            stripes: (0..stripes).map(|_| Stripe::default()).collect(),
            shared: (0..stripes).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Runs `book` on the calling thread's counts: its own stripe when it
    /// holds it (`owned`), else that stripe's shared line.
    #[inline]
    fn book(&self, book: impl FnOnce(&Counts, bool)) {
        let me = ThreadToken::current();
        let index = me.stripe(self.stripes.len());
        let stripe = &self.stripes[index];
        if stripe.claim.hold(me) {
            book(&stripe.counts, true);
        } else {
            book(&self.shared[index], false);
        }
    }

    /// Adds one grant on the calling thread's stripe.
    #[inline]
    fn add(&self, requested: u64, granted: u64) {
        self.book(|c, owned| {
            bump(&c.requested, requested, owned);
            bump(&c.granted, granted, owned);
        });
    }

    /// Counts one event (a grow or shrink outcome) on the calling thread's
    /// stripe.
    #[inline]
    fn count(&self, tally: fn(&Counts) -> &AtomicU64) {
        self.book(|c, owned| bump(tally(c), 1, owned));
    }

    /// Every count summed over every line, in the snapshot's fields (the
    /// global shell's stay zero).
    fn totals(&self) -> FacadeStatsSnapshot {
        let lines = self
            .stripes
            .iter()
            .map(|s| &*s.counts)
            .chain(self.shared.iter().map(|c| &**c));
        let sum = |tally: fn(&Counts) -> &AtomicU64| {
            lines
                .clone()
                .map(|c| tally(c).load(Ordering::Relaxed))
                .sum()
        };
        FacadeStatsSnapshot {
            grows_in_place: sum(|c| &c.grows_in_place),
            grows_moved: sum(|c| &c.grows_moved),
            shrinks_in_place: sum(|c| &c.shrinks_in_place),
            shrinks_moved: sum(|c| &c.shrinks_moved),
            requested_bytes: sum(|c| &c.requested),
            granted_bytes: sum(|c| &c.granted),
            ..FacadeStatsSnapshot::default()
        }
    }
}

// SAFETY: blocks come either from the region (released back to it, matched
// by address range) or from `System` (released to `System`).  Region blocks
// are granted at least `max(size, align)` bytes from a class whose natural
// alignment covers the layout (`request_size` bumps the request to a power
// of two when it would not), so every layout requirement is met; the
// realloc override preserves the first `min(old, new)` bytes through either
// the in-place or the copying path.
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

    /// A buddy block is zeroed here (chunks are recycled dirty); a request
    /// the buddy cannot serve goes to `System.alloc_zeroed`, which for a
    /// large size maps fresh demand-zero pages instead of writing them.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        match self.allocate(layout) {
            Ok(block) => {
                let ptr = block.cast::<u8>().as_ptr();
                // SAFETY: a fresh block of at least `layout.size()` bytes.
                unsafe { ptr.write_bytes(0, layout.size()) };
                ptr
            }
            // SAFETY: the caller's contract for `layout`.
            Err(_) => unsafe { System.alloc_zeroed(layout) },
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

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some(nn) = NonNull::new(ptr).filter(|&nn| self.region.contains(nn)) else {
            // SAFETY: the caller's contract; a block outside the region is
            // `System`'s.
            return unsafe { System.realloc(ptr, layout, new_size) };
        };
        let Ok(new_layout) = Layout::from_size_align(new_size, layout.align()) else {
            return std::ptr::null_mut();
        };
        // SAFETY: the caller's contract: `nn` is live under `layout`, and
        // the grow or the shrink is chosen by the size.  On the migration
        // the blocks are distinct, each holding the bytes copied, and the
        // old one is released once.
        unsafe {
            let moved_or_kept = if new_size >= layout.size() {
                self.grow(nn, layout, new_layout)
            } else {
                self.shrink(nn, layout, new_layout)
            };
            match moved_or_kept {
                Ok(block) => block.cast::<u8>().as_ptr(),
                Err(_) => {
                    // The buddy cannot serve the new layout: migrate to the
                    // system allocator, preserving the contents.
                    let sys = System.alloc(new_layout);
                    if !sys.is_null() {
                        std::ptr::copy_nonoverlapping(ptr, sys, layout.size().min(new_size));
                        self.deallocate(nn, layout);
                    }
                    sys
                }
            }
        }
    }
}

impl<A: BuddyBackend + std::fmt::Debug> std::fmt::Debug for NbbsAllocator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NbbsAllocator")
            .field("region", &self.region)
            .field("stats", &self.facade_stats())
            .finish()
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

    #[test]
    fn allocate_zeroed_scrubs_recycled_chunks() {
        let a = facade();
        let layout = Layout::from_size_align(256, 8).unwrap();
        let dirty = a.allocate(layout).unwrap();
        // SAFETY: each block is used within its size and freed once, under its layout.
        unsafe {
            dirty.cast::<u8>().as_ptr().write_bytes(0xFF, dirty.len());
            a.deallocate(dirty.cast(), layout);
        }
        let clean = a.allocate_zeroed(layout).unwrap();
        // SAFETY: a live block holding at least the bytes read.
        let bytes = unsafe { std::slice::from_raw_parts(clean.cast::<u8>().as_ptr(), clean.len()) };
        assert!(bytes.iter().all(|&b| b == 0));
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(clean.cast(), layout) };

        // The `GlobalAlloc` entry zeroes a recycled block too, and sends what
        // the buddy cannot serve to `System.alloc_zeroed`.
        let reads_zero = |p: *mut u8, len: usize| {
            !p.is_null()
                // SAFETY: a live block holding at least the bytes read.
                && unsafe { std::slice::from_raw_parts(p, len) }
                    .iter()
                    .all(|&b| b == 0)
        };
        // SAFETY: each block is used within its size and freed once, under its layout.
        unsafe {
            let p = GlobalAlloc::alloc(&a, layout);
            p.write_bytes(0xFF, layout.size());
            GlobalAlloc::dealloc(&a, p, layout);
            let q = GlobalAlloc::alloc_zeroed(&a, layout);
            assert!(a.owns(q) && reads_zero(q, layout.size()));
            GlobalAlloc::dealloc(&a, q, layout);
            let oversized = Layout::from_size_align(1 << 20, 8).unwrap();
            let r = GlobalAlloc::alloc_zeroed(&a, oversized);
            assert!(!a.owns(r) && reads_zero(r, oversized.size()));
            GlobalAlloc::dealloc(&a, r, oversized);
        }
    }

    #[test]
    fn grow_within_the_granted_block_is_in_place() {
        let a = facade();
        let old = Layout::from_size_align(100, 8).unwrap(); // granted 128
        let block = a.allocate(old).unwrap();
        let p = block.cast::<u8>();
        // SAFETY: a live block holding at least the bytes written.
        unsafe { p.as_ptr().write_bytes(0x7E, 100) };
        let new = Layout::from_size_align(128, 8).unwrap();
        // SAFETY: a live block of this facade, under its layout.
        let grown = unsafe { a.grow(p, old, new).unwrap() };
        assert_eq!(grown.cast::<u8>(), p, "no move needed");
        assert_eq!(a.facade_stats().grows_in_place, 1);
        // SAFETY: a live block holding at least the bytes read.
        let bytes = unsafe { std::slice::from_raw_parts(p.as_ptr(), 100) };
        assert!(bytes.iter().all(|&b| b == 0x7E));
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(p, new) };
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn grow_past_the_block_moves_and_preserves_contents() {
        let a = facade();
        let old = Layout::from_size_align(100, 8).unwrap();
        let block = a.allocate(old).unwrap();
        let p = block.cast::<u8>();
        for i in 0..100 {
            // SAFETY: a live block holding at least the bytes written.
            unsafe { p.as_ptr().add(i).write(i as u8) };
        }
        let new = Layout::from_size_align(1000, 8).unwrap();
        // SAFETY: a live block of this facade, under its layout.
        let grown = unsafe { a.grow(p, old, new).unwrap() };
        assert_ne!(grown.cast::<u8>(), p);
        assert_eq!(a.facade_stats().grows_moved, 1);
        // SAFETY: a live block holding at least the bytes read.
        let bytes = unsafe { std::slice::from_raw_parts(grown.cast::<u8>().as_ptr(), 100) };
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(b, i as u8);
        }
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(grown.cast(), new) };
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn shrink_to_a_smaller_class_releases_memory() {
        let a = facade();
        let old = Layout::from_size_align(4096, 8).unwrap();
        let block = a.allocate(old).unwrap();
        let p = block.cast::<u8>();
        // SAFETY: a live block holding at least the bytes written.
        unsafe { p.as_ptr().write_bytes(0x3C, 64) };
        let new = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: a live block of this facade, under its layout.
        let shrunk = unsafe { a.shrink(p, old, new).unwrap() };
        assert_eq!(a.facade_stats().shrinks_moved, 1);
        assert!(a.allocated_bytes() <= 64, "difference released");
        // SAFETY: a live block holding at least the bytes read.
        let bytes = unsafe { std::slice::from_raw_parts(shrunk.cast::<u8>().as_ptr(), 64) };
        assert!(bytes.iter().all(|&b| b == 0x3C));
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(shrunk.cast(), new) };
    }

    #[test]
    fn shrink_within_the_class_is_in_place() {
        let a = facade();
        let old = Layout::from_size_align(120, 8).unwrap(); // granted 128
        let block = a.allocate(old).unwrap();
        let p = block.cast::<u8>();
        let new = Layout::from_size_align(70, 8).unwrap(); // still granted 128
                                                           // SAFETY: a live block of this facade, under its layout.
        let shrunk = unsafe { a.shrink(p, old, new).unwrap() };
        assert_eq!(shrunk.cast::<u8>(), p);
        assert_eq!(a.facade_stats().shrinks_in_place, 1);
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(p, new) };
    }

    #[test]
    fn recorder_times_each_public_op_once() {
        let rec = Arc::new(Recorder::new());
        let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
        let a = NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(config)))
            .with_recorder(Arc::clone(&rec));
        let old = Layout::from_size_align(100, 8).unwrap();
        let block = a.allocate(old).unwrap();
        let p = block.cast::<u8>();
        let big = Layout::from_size_align(5000, 8).unwrap();
        // SAFETY: a live block of this facade, under its layout.
        let grown = unsafe { a.grow(p, old, big).unwrap() };
        let small = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: a live block of this facade, under its layout.
        let shrunk = unsafe { a.shrink(grown.cast(), big, small).unwrap() };
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(shrunk.cast(), small) };
        // One event per public call: the moved grow and moved shrink must
        // not double-record their internal alloc/free legs.
        assert_eq!(rec.snapshot(OpKind::Alloc).total(), 1);
        assert_eq!(rec.snapshot(OpKind::Grow).total(), 1);
        assert_eq!(rec.snapshot(OpKind::Shrink).total(), 1);
        assert_eq!(rec.snapshot(OpKind::Free).total(), 1);
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn requested_vs_granted_accounting_is_cumulative() {
        let a = facade();
        let layout = Layout::from_size_align(100, 8).unwrap();
        let block = a.allocate(layout).unwrap();
        let granted = block.len() as u64;
        assert!(granted >= 100);
        let stats = a.facade_stats();
        assert_eq!(stats.requested_bytes, 100);
        assert_eq!(stats.granted_bytes, granted);
        assert!(stats.granted_over_requested() >= 1.0);
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(block.cast(), layout) };
        // Frees do not rewind the odometer: both figures are cumulative.
        assert_eq!(a.facade_stats().requested_bytes, 100);
        // Zero-sized layouts count as the 1 byte they are grilled up to.
        let zst = Layout::from_size_align(0, 1).unwrap();
        let z = a.allocate(zst).unwrap();
        assert_eq!(a.facade_stats().requested_bytes, 101);
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(z.cast(), zst) };
    }

    #[test]
    fn resize_counts_sum_over_owned_stripes_and_shared_lines() {
        let odometer = Arc::new(Odometer::new(1));
        odometer.count(|c| &c.grows_in_place);
        let crowded = Arc::clone(&odometer);
        std::thread::spawn(move || {
            crowded.count(|c| &c.grows_in_place);
            crowded.count(|c| &c.shrinks_moved);
        })
        .join()
        .unwrap();
        assert_eq!(
            odometer.stripes[0]
                .counts
                .grows_in_place
                .load(Ordering::Relaxed),
            1
        );
        assert_eq!(odometer.shared[0].grows_in_place.load(Ordering::Relaxed), 1);
        let totals = odometer.totals();
        assert_eq!(
            (
                totals.grows_in_place,
                totals.grows_moved,
                totals.shrinks_in_place,
                totals.shrinks_moved
            ),
            (2, 0, 0, 1)
        );
    }

    #[test]
    fn attached_profiler_tracks_live_blocks_through_alloc_and_free() {
        let rec = Arc::new(Recorder::profiler_only(1)); // sample everything
        let profiler = rec.profiler().unwrap();
        let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
        let a = NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(config)))
            .with_recorder(Arc::clone(&rec));
        let layout = Layout::from_size_align(100, 8).unwrap();
        let block = a.allocate(layout).unwrap();
        let live = profiler.report();
        assert_eq!(live.attributed_live_bytes(), block.len() as u64);
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(block.cast(), layout) };
        assert_eq!(profiler.report().attributed_live_bytes(), 0);
        // Reallocs track too: the moved block swaps one live entry for
        // another at the new size.
        let small = a.allocate(layout).unwrap();
        let big_layout = Layout::from_size_align(5000, 8).unwrap();
        // SAFETY: a live block of this facade, under its layout.
        let big = unsafe { a.grow(small.cast(), layout, big_layout).unwrap() };
        assert_eq!(
            profiler.report().attributed_live_bytes(),
            big.len() as u64,
            "old block freed, new block live"
        );
        // SAFETY: a live block of this facade, under its layout.
        unsafe { a.deallocate(big.cast(), big_layout) };
        assert_eq!(profiler.report().attributed_live_bytes(), 0);
        assert!(rec.ring().is_empty(), "profiling alone times nothing");
    }

    #[test]
    fn global_alloc_falls_back_to_system_for_oversized() {
        let a = facade();
        let layout = Layout::from_size_align(1 << 20, 8).unwrap();
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
        let layout = Layout::from_size_align(100, 8).unwrap();
        // SAFETY: each block is used within its size and freed once, under its layout.
        unsafe {
            let p = a.alloc(layout);
            assert!(a.owns(p));
            p.write_bytes(0x42, 100);
            let q = a.realloc(p, layout, 120); // still inside the 128 block
            assert_eq!(q, p, "in-place grow");
            let grown_layout = Layout::from_size_align(120, 8).unwrap();
            let r = a.realloc(q, grown_layout, 5000);
            assert!(a.owns(r));
            assert_eq!(*r, 0x42);
            assert_eq!(*r.add(99), 0x42);
            a.dealloc(r, Layout::from_size_align(5000, 8).unwrap());
        }
        assert_eq!(a.allocated_bytes(), 0);
    }
}
