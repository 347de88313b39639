//! Demand-zero backing memory with page-granular decommit accounting.
//!
//! [`Mapping`] is the raw-memory half of [`crate::BuddyRegion`]: a span of
//! `len` bytes aligned to `align`, obtained from an anonymous private
//! `mmap` on Linux (so untouched pages cost no physical memory) and from
//! `alloc_zeroed` elsewhere.  On top of the span it keeps a page-granular
//! *decommit bitmap*: the scrub path marks quiescent free ranges as
//! decommitted (releasing their frames with `madvise(MADV_DONTNEED)` on
//! Linux, rewriting them to zero elsewhere so the "decommitted memory reads
//! zero" contract holds on every platform), and the grant path clears the
//! marks again — the kernel recommits lazily on first touch, the bitmap
//! only tracks the accounting.
//!
//! A fresh span is demand-zero end to end, which is exactly what a
//! decommitted page is, so every page starts marked decommitted and only a
//! grant clears a mark.  `committed_bytes` derived from the bitmap is
//! therefore **exact from construction**: it counts the pages grants have
//! covered since each was last decommitted, never a page nobody was given.
//! (A granted page its owner has not written yet is counted although the
//! kernel has not backed it.)  The scrubber skips a block whose pages are
//! all marked, so it never claims one that was never granted.
//!
//! The region's grant clears the marks ([`crate::BuddyRegion`]); under a
//! magazine cache that is the refill, and a hit clears nothing.
//!
//! All bitmap operations are lock-free (`fetch_or` / `fetch_and` over
//! `AtomicU64` words, each preceded by a load that skips the RMW when it
//! would change nothing, so a grant over committed pages writes no shared
//! word).  Callers must guarantee that a range passed to
//! [`Mapping::decommit`] holds no live data (the buddy scrubber claims the
//! block through the allocation path first); a range passed to
//! [`Mapping::commit_range`] only ever touches pages of blocks the caller
//! owns, so the two directions never race on the same page.

#[cfg(not(target_os = "linux"))]
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

#[cfg(target_os = "linux")]
use nbbs_sync::pages;

/// The platform page size (the decommit granule), falling back to 4 KiB.
pub use nbbs_sync::pages::page_size;

/// How the span is backed (and must be released).
enum Backing {
    /// Anonymous private mapping; the whole reservation (which may be larger
    /// than the usable span, to satisfy over-page alignment) is unmapped on
    /// drop.
    #[cfg(target_os = "linux")]
    Mapped { map_base: *mut u8, map_len: usize },
    /// Heap allocation from the global allocator (non-Linux fallback).
    #[cfg(not(target_os = "linux"))]
    Heap { raw: *mut u8, layout: Layout },
}

/// A demand-zero span of memory with page-granular decommit accounting.
pub struct Mapping {
    base: NonNull<u8>,
    len: usize,
    page_size: usize,
    /// `log2(page_size)`: every grant turns its byte range into pages, so
    /// that takes shifts, not divisions.
    page_shift: u32,
    backing: Backing,
    /// One bit per page of the span: set = decommitted (reads zero, costs
    /// no physical frame on Linux).  Every page starts set.
    decommitted: Box<[AtomicU64]>,
    /// Gauge: pages currently marked decommitted (all of them at first).
    decommitted_pages: AtomicUsize,
    /// Cumulative bytes ever decommitted.
    decommit_bytes_total: AtomicU64,
    /// Cumulative kernel calls [`Mapping::decommit`] issued.
    decommit_calls: AtomicU64,
    /// Cumulative bytes whose decommit mark was cleared by a grant, a
    /// page's first grant included.
    recommit_bytes_total: AtomicU64,
}

// SAFETY: the span is only dereferenced through disjoint ranges handed out
// by a thread-safe buddy backend; the bitmap is atomic.
unsafe impl Send for Mapping {}
// SAFETY: as above; every field a shared reference writes is atomic.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Reserves a demand-zero span of `len` bytes aligned to `align`
    /// (`align` must be a power of two), every page of it marked
    /// decommitted: `committed_bytes()` reads 0 until the first grant.
    ///
    /// # Panics
    ///
    /// Panics if the reservation fails (mirroring `handle_alloc_error` for
    /// the heap path: a region that cannot be backed is unrecoverable).
    pub fn new(len: usize, align: usize) -> Self {
        assert!(len > 0, "empty mapping");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let page = page_size();
        assert!(page.is_power_of_two(), "page size must be a power of two");
        let (base, backing) = Self::reserve(len, align, page);
        let pages = len.div_ceil(page);
        // Bits past the last page stay clear: no page range reaches them.
        let word_of = |w: usize| match pages - w * 64 {
            n if n >= 64 => u64::MAX,
            n => (1u64 << n) - 1,
        };
        Mapping {
            base,
            len,
            page_size: page,
            page_shift: page.trailing_zeros(),
            backing,
            decommitted: (0..pages.div_ceil(64))
                .map(|w| AtomicU64::new(word_of(w)))
                .collect(),
            decommitted_pages: AtomicUsize::new(pages),
            decommit_bytes_total: AtomicU64::new(0),
            decommit_calls: AtomicU64::new(0),
            recommit_bytes_total: AtomicU64::new(0),
        }
    }

    #[cfg(target_os = "linux")]
    fn reserve(len: usize, align: usize, page: usize) -> (NonNull<u8>, Backing) {
        // Over-reserve when the requested alignment exceeds what mmap
        // guarantees; the slack pages are never touched, so demand paging
        // makes them free.
        let map_len = len
            .div_ceil(page)
            .checked_mul(page)
            .and_then(|l| l.checked_add(if align > page { align } else { 0 }))
            .expect("mapping length overflow");
        let map_base = pages::map(map_len)
            .unwrap_or_else(|| panic!("mmap of {map_len} bytes failed"))
            .as_ptr();
        let aligned = (map_base as usize).next_multiple_of(align);
        // mmap returns page-aligned memory, and any align > page is a
        // multiple of page, so `aligned` stays page-aligned: offset-space
        // page boundaries coincide with address-space page boundaries,
        // which `decommit` relies on for madvise.
        let base = NonNull::new(aligned as *mut u8).expect("aligned base is non-null");
        (base, Backing::Mapped { map_base, map_len })
    }

    #[cfg(not(target_os = "linux"))]
    fn reserve(len: usize, align: usize, _page: usize) -> (NonNull<u8>, Backing) {
        let layout = Layout::from_size_align(len, align.max(std::mem::align_of::<usize>()))
            .expect("invalid mapping layout");
        // SAFETY: layout has non-zero size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let base = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        (base, Backing::Heap { raw, layout })
    }

    /// Base address of the usable span.
    pub fn base(&self) -> NonNull<u8> {
        self.base
    }

    /// Usable span length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the span is empty (never true: construction requires
    /// `len > 0`; provided for `len`/`is_empty` lint symmetry).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page size the decommit bitmap is expressed in.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pages currently marked decommitted (every page of a fresh span).
    pub fn decommitted_pages(&self) -> usize {
        self.decommitted_pages.load(Ordering::Relaxed)
    }

    /// Bytes currently marked decommitted.
    pub fn decommitted_bytes(&self) -> usize {
        self.decommitted_pages() * self.page_size
    }

    /// Committed bytes: span length minus decommitted bytes.  Exact from
    /// construction: 0 for a fresh span, then the pages grants have covered
    /// since each was last decommitted (see the module docs).
    pub fn committed_bytes(&self) -> usize {
        self.len.saturating_sub(self.decommitted_bytes())
    }

    /// Cumulative bytes ever decommitted.
    pub fn decommit_bytes_total(&self) -> u64 {
        self.decommit_bytes_total.load(Ordering::Relaxed)
    }

    /// Cumulative kernel calls [`Mapping::decommit`] issued (one per call
    /// that found a page to release; the fallback's zeroing counts as one).
    pub fn decommit_calls(&self) -> u64 {
        self.decommit_calls.load(Ordering::Relaxed)
    }

    /// Cumulative bytes whose decommit mark was cleared by a grant (a
    /// page's first grant clears the mark it was built with, so it counts).
    pub fn recommit_bytes_total(&self) -> u64 {
        self.recommit_bytes_total.load(Ordering::Relaxed)
    }

    /// Releases the physical frames of `[offset, offset + len)`, shrunk
    /// inward to whole pages, and marks them decommitted.  Returns the
    /// number of bytes *newly* decommitted (0 when the range was already
    /// fully decommitted — the madvise is skipped in that case).
    ///
    /// The caller must guarantee the range holds no live data: afterwards
    /// it reads as zero.
    pub fn decommit(&self, offset: usize, len: usize) -> usize {
        let Some((first, end)) = self.page_span_inward(offset, len) else {
            return 0;
        };
        let newly = self.mark_range(first, end, true);
        if newly == 0 {
            return 0; // already decommitted end to end: nothing to release
        }
        let start_byte = first * self.page_size;
        let span = (end - first) * self.page_size;
        #[cfg(target_os = "linux")]
        {
            // SAFETY: the range is whole pages of the mapping (base is
            // page-aligned), and the caller owns it exclusively.
            let released = unsafe { pages::release(self.base.add(start_byte), span) };
            debug_assert!(released, "madvise(MADV_DONTNEED) failed");
        }
        #[cfg(not(target_os = "linux"))]
        {
            // No kernel decommit available: emulate the observable contract
            // (decommitted memory reads zero) so behaviour and tests match
            // across platforms.
            // SAFETY: as above — the caller owns the range exclusively.
            unsafe { self.base.as_ptr().add(start_byte).write_bytes(0, span) };
        }
        let bytes = newly * self.page_size;
        self.decommit_calls.fetch_add(1, Ordering::Relaxed);
        self.decommitted_pages.fetch_add(newly, Ordering::Relaxed);
        self.decommit_bytes_total
            .fetch_add(bytes as u64, Ordering::Relaxed);
        bytes
    }

    /// Whether every page of `[offset, offset + len)` (shrunk inward to
    /// whole pages) is already marked decommitted.
    pub fn is_fully_decommitted(&self, offset: usize, len: usize) -> bool {
        let Some((first, end)) = self.page_span_inward(offset, len) else {
            return false;
        };
        for page in first..end {
            let bit = 1u64 << (page % 64);
            if self.decommitted[page / 64].load(Ordering::Relaxed) & bit == 0 {
                return false;
            }
        }
        true
    }

    /// Clears the decommit marks of every page overlapping
    /// `[offset, offset + len)` — called on the grant path so the
    /// committed-bytes gauge follows memory into service.  The kernel
    /// commits lazily on first touch; this only maintains the accounting.
    ///
    /// Every grant runs it, magazine hits included, so it stays flat: the
    /// page span takes two shifts, and a grant whose pages are already
    /// committed costs one load per bitmap word and writes nothing.
    pub fn commit_range(&self, offset: usize, len: usize) {
        let (first, end) = self.page_span_outward(offset, len);
        let cleared = self.mark_range(first, end, false);
        if cleared > 0 {
            self.decommitted_pages.fetch_sub(cleared, Ordering::Relaxed);
            self.recommit_bytes_total
                .fetch_add((cleared * self.page_size) as u64, Ordering::Relaxed);
        }
    }

    /// Whole pages strictly inside `[offset, offset + len)`, as a
    /// `[first, end)` page-index range.
    fn page_span_inward(&self, offset: usize, len: usize) -> Option<(usize, usize)> {
        let lo = offset.min(self.len);
        let hi = offset.checked_add(len)?.min(self.len);
        // `lo <= len`, and `len + page_size` fits: the mapping reserved it.
        let first = (lo + self.page_size - 1) >> self.page_shift;
        let end = hi >> self.page_shift;
        (first < end).then_some((first, end))
    }

    /// Every page overlapping `[offset, offset + len)`, as a `[first, end)`
    /// page-index range (clamped to the span).
    #[inline]
    fn page_span_outward(&self, offset: usize, len: usize) -> (usize, usize) {
        let lo = offset.min(self.len);
        let hi = offset.saturating_add(len).min(self.len);
        let first = lo >> self.page_shift;
        let end = (hi + self.page_size - 1) >> self.page_shift;
        (first, end)
    }

    /// Sets (`true`) or clears (`false`) the bitmap over `[first, end)`
    /// pages, word at a time; returns how many bits actually changed.  A
    /// word that already reads as asked is left alone, so a grant over
    /// committed pages (every magazine hit on a chunk granted before)
    /// executes no RMW on a word its neighbours' grants share.
    fn mark_range(&self, first: usize, end: usize, set: bool) -> usize {
        let mut changed = 0usize;
        let mut page = first;
        while page < end {
            let word = page / 64;
            let lo_bit = page % 64;
            let hi_bit = (end - word * 64).min(64);
            let mask = if hi_bit - lo_bit == 64 {
                u64::MAX
            } else {
                ((1u64 << (hi_bit - lo_bit)) - 1) << lo_bit
            };
            // Look before writing.  A grant clears the bits of pages
            // overlapping a block it owns; the scrubber sets bits only for
            // whole pages inside a block it claimed.  The two never hold
            // the same page, so between this load and the skipped RMW the
            // bits looked at can only have been cleared by a neighbour in
            // the same page (a grant's view) or not touched at all (the
            // scrubber's), never moved away from what the caller wants.
            // `decommit`'s `newly == 0` return and `is_fully_decommitted`
            // rest on the same ownership.
            let seen = self.decommitted[word].load(Ordering::Acquire);
            let pending = if set { mask & !seen } else { mask & seen };
            if pending != 0 {
                let flipped = if set {
                    mask & !self.decommitted[word].fetch_or(mask, Ordering::AcqRel)
                } else {
                    mask & self.decommitted[word].fetch_and(!mask, Ordering::AcqRel)
                };
                changed += flipped.count_ones() as usize;
            }
            page = (word + 1) * 64;
        }
        changed
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        match self.backing {
            #[cfg(target_os = "linux")]
            Backing::Mapped { map_base, map_len } => {
                // SAFETY: exactly the reservation made in `reserve`.
                unsafe { pages::unmap(NonNull::new_unchecked(map_base), map_len) };
            }
            #[cfg(not(target_os = "linux"))]
            Backing::Heap { raw, layout } => {
                // SAFETY: allocated with exactly this layout in `reserve`.
                unsafe { std::alloc::dealloc(raw, layout) };
            }
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping")
            .field("base", &self.base)
            .field("len", &self.len)
            .field("page_size", &self.page_size)
            .field("decommitted_pages", &self.decommitted_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_is_aligned_zeroed_and_writable() {
        let m = Mapping::new(1 << 16, 1 << 12);
        assert_eq!(m.base().as_ptr() as usize % (1 << 12), 0);
        assert_eq!(m.len(), 1 << 16);
        assert!(!m.is_empty());
        unsafe {
            for i in [0usize, 1 << 12, (1 << 16) - 1] {
                assert_eq!(*m.base().as_ptr().add(i), 0, "byte {i} not zero");
            }
            m.base().as_ptr().write_bytes(0xAB, 1 << 16);
            assert_eq!(*m.base().as_ptr().add((1 << 16) - 1), 0xAB);
        }
    }

    #[test]
    fn over_page_alignment_is_honoured() {
        let align = page_size() * 4;
        let m = Mapping::new(align * 2, align);
        assert_eq!(m.base().as_ptr() as usize % align, 0);
    }

    #[test]
    fn decommit_zeroes_and_accounts() {
        let page = page_size();
        let m = Mapping::new(page * 8, page);
        assert_eq!(m.committed_bytes(), 0, "a fresh span starts decommitted");
        assert_eq!(m.decommitted_pages(), 8);
        m.commit_range(0, page * 8);
        unsafe { m.base().as_ptr().write_bytes(0xFF, page * 8) };
        assert_eq!(m.committed_bytes(), page * 8);

        let freed = m.decommit(page * 2, page * 3);
        assert_eq!(freed, page * 3);
        assert_eq!(m.decommitted_pages(), 3);
        assert_eq!(m.decommitted_bytes(), page * 3);
        assert_eq!(m.committed_bytes(), page * 5);
        assert!(m.is_fully_decommitted(page * 2, page * 3));
        assert!(!m.is_fully_decommitted(page, page * 2));
        unsafe {
            assert_eq!(
                *m.base().as_ptr().add(page * 2),
                0,
                "decommitted reads zero"
            );
            assert_eq!(*m.base().as_ptr().add(page * 5 - 1), 0);
            assert_eq!(*m.base().as_ptr().add(page), 0xFF, "neighbour untouched");
            assert_eq!(*m.base().as_ptr().add(page * 5), 0xFF);
        }

        // Second decommit of the same range is a no-op.
        assert_eq!(m.decommit(page * 2, page * 3), 0);
        assert_eq!(m.decommit_bytes_total(), (page * 3) as u64);
    }

    #[test]
    fn sub_page_ranges_round_inward_to_nothing() {
        let page = page_size();
        let m = Mapping::new(page * 4, page);
        m.commit_range(0, page * 4);
        assert_eq!(m.decommit(10, page - 20), 0, "no whole page inside");
        assert_eq!(m.decommitted_pages(), 0);
        assert_eq!(m.decommit_calls(), 0);
        assert!(!m.is_fully_decommitted(10, page - 20));
    }

    #[test]
    fn commit_clears_marks_and_counts_recommits() {
        let page = page_size();
        let m = Mapping::new(page * 8, page);
        assert_eq!(m.decommitted_pages(), 8, "a fresh span starts decommitted");
        assert!(m.is_fully_decommitted(0, page * 8));
        assert_eq!(m.decommit(0, page * 8), 0, "nothing to release yet");
        assert_eq!(m.decommit_calls(), 0);

        // A grant overlapping pages 1..3 (partially) recommits pages 1..=3.
        m.commit_range(page + 7, page * 2);
        assert_eq!(m.decommitted_pages(), 5);
        assert_eq!(m.recommit_bytes_total(), (page * 3) as u64);
        assert_eq!(m.committed_bytes(), page * 3);

        // Committing an already-committed range changes nothing.
        m.commit_range(page, page * 2);
        assert_eq!(m.decommitted_pages(), 5);
        m.commit_range(0, page * 8);
        assert_eq!(m.decommitted_pages(), 0);
        assert_eq!(m.committed_bytes(), page * 8);
        m.commit_range(0, page * 8);
        assert_eq!(m.recommit_bytes_total(), (page * 8) as u64);
    }

    #[test]
    fn a_repeated_grant_changes_nothing() {
        let page = page_size();
        let m = Mapping::new(page * 128, page);
        m.commit_range(0, page * 128);
        let first_grants = (page * 128) as u64;
        assert_eq!(m.recommit_bytes_total(), first_grants);
        assert_eq!(m.decommit(0, page * 64), page * 64);
        assert_eq!(m.decommit_calls(), 1);
        m.commit_range(page * 3, page);
        assert_eq!(m.decommitted_pages(), 63);
        assert_eq!(m.recommit_bytes_total(), first_grants + page as u64);
        let word = m.decommitted[0].load(Ordering::Relaxed);
        assert_eq!(word, !(1u64 << 3));

        // The second grant of the same page finds its bit clear and leaves
        // the word, the gauge and the total alone.
        m.commit_range(page * 3, page);
        assert_eq!(m.decommitted[0].load(Ordering::Relaxed), word);
        assert_eq!(m.decommitted_pages(), 63);
        assert_eq!(m.recommit_bytes_total(), first_grants + page as u64);

        // So does a grant in a word nothing was decommitted in since its
        // first grant, and a decommit of what is already gone issues no
        // kernel call.
        m.commit_range(page * 70, page * 4);
        assert_eq!(m.decommitted[1].load(Ordering::Relaxed), 0);
        assert_eq!(m.recommit_bytes_total(), first_grants + page as u64);
        assert_eq!(m.decommit(page * 8, page * 8), 0);
        assert_eq!(m.decommit_calls(), 1);
        assert_eq!(m.decommit_bytes_total(), (page * 64) as u64);
    }

    #[test]
    fn spans_smaller_than_a_page_work() {
        let m = Mapping::new(1024, 1024);
        assert_eq!(m.committed_bytes(), 0);
        m.commit_range(0, 1024);
        unsafe {
            m.base().as_ptr().write_bytes(0x11, 1024);
            assert_eq!(*m.base().as_ptr().add(1023), 0x11);
        }
        assert_eq!(m.committed_bytes(), 1024);
        assert_eq!(m.decommit(0, 1024), 0, "smaller than one page");
        assert_eq!(m.committed_bytes(), 1024);
    }

    #[test]
    fn bitmap_word_boundaries_are_exact() {
        let page = page_size();
        // 130 pages spans three bitmap words; the bits past the last page
        // are never set.
        let m = Mapping::new(page * 130, page);
        assert_eq!(m.decommitted_pages(), 130);
        assert_eq!(m.decommitted[2].load(Ordering::Relaxed), 0b11);
        m.commit_range(page * 63, page * 2); // straddles the word boundary
        assert_eq!(m.decommitted_pages(), 128);
        assert!(m.is_fully_decommitted(page * 65, page * 65));
        assert!(!m.is_fully_decommitted(page * 63, page * 2));
        m.commit_range(0, page * 130);
        assert_eq!(m.decommit(0, page * 130), page * 130);
        assert_eq!(m.decommitted_pages(), 130);
        assert_eq!(m.decommitted[2].load(Ordering::Relaxed), 0b11);
    }
}
