//! # nbbs-slab — size-class slabs over buddy pages
//!
//! The buddy tree rounds every request up to a power of two, so a 40-byte
//! session object burns 64 bytes — ~40% of a small-object heap wasted at
//! scale.  [`SlabBackend`] kills that internal fragmentation up to a 2 KiB
//! cutoff: requests are served from jemalloc-style *spaced* size classes
//! (8, 16, 24, …, 64, 80, 96, 112, 128, 160, … — four classes per
//! doubling, ≤ 25% worst-case waste above the granule) carved out of
//! 16 KiB pages granted by the underlying buddy tree (clamped into the
//! tree's block sizes; the cutoff falls to half a page when the page is
//! smaller).  Requests above the cutoff pass through unchanged.  Nothing
//! else is tuned.
//!
//! ## Offset-world "intrusive" metadata
//!
//! Classic slab allocators thread a free list *through* the free objects
//! themselves.  This repository's backends are offset state machines that
//! never touch the managed memory (see `nbbs::BuddyBackend`), so the slab
//! keeps the same zero-extra-allocation property in offset space instead:
//! all page metadata lives in flat tables sized at construction —
//!
//! * one `AtomicU64` **state word** per page-slot of the managed region
//!   (live-object count | bound class | generation | on-list flag), and
//! * one bitmap word per 64 granules of each page (bit set ⇔ slot live).
//!
//! No allocation ever happens after construction, mirroring the in-page
//! header design at zero bytes *inside* the data pages themselves.
//!
//! ## Lock-freedom
//!
//! Per-class partial-page lists reuse [`nbbs_sync::BoundedStack`] (the
//! tagged-CAS Treiber stack behind the cache depot).  A page is published
//! to its class list at most once (the `ONLIST` flag in the state word
//! gates pushes), poppers validate the (class, generation) pair so entries
//! for retired pages are discarded harmlessly, and slot claims are single
//! bitmap CASes under a reservation in the state word, so no path takes a
//! lock and the generation scheme defuses ABA.
//!
//! ## Page reclaim hysteresis
//!
//! A fully-freed page is kept warm while its class holds fewer than two
//! empty pages; beyond that it is retired to the buddy (generation bumped,
//! offset returned) so capacity flows back to large requests.  [`BuddyBackend::drain_cache`] retires *all*
//! empty pages, mirroring the magazine cache's drain semantics.
//!
//! ## Stacking
//!
//! `SlabBackend` implements [`BuddyBackend`] with a geometry-honest
//! [`BuddyBackend::granted_size_for`] (it reports the *class* size, which
//! may not be a power of two) and overrides
//! [`BuddyBackend::grant_alignment_for`] (a 40-byte object is only
//! granule-aligned), so `MagazineCache`, `NodeSet`, `Recorded`,
//! `FaultInjecting` and the `nbbs-alloc` facade all stack on it unchanged.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nbbs::error::{AllocError, FreeError};
use nbbs::stats::{FragClassSnapshot, FragStatsSnapshot};
use nbbs::{BuddyBackend, BuddyConfig, Geometry};
use nbbs_obs::{OpKind, Recorder};
use nbbs_sync::{zeroed_slice, BoundedStack, CachePadded, SpinLock, ZeroedSlice};

/// Smallest class size and slot granule: every class size is a multiple of
/// this, so every object offset is too.
const GRANULE: usize = 8;

/// Largest request served from a size class; bigger requests pass through
/// to the buddy.  `class_table` also stops at half a page.
const CUTOFF: usize = 2048;

/// Bytes per slab page granted from the buddy, clamped into the buddy's
/// `[min_size, max_size]`.
const PAGE_SIZE: usize = 16 << 10;

/// Reclaim hysteresis: fully-free pages each class keeps warm before
/// further empties are retired to the buddy.
const KEEP_EMPTY_PAGES: usize = 2;

// State-word layout: | ONLIST:1 | generation:39 | class+1:8 | used:16 |.
// `class+1 == 0` means the page is not (currently) a slab page.
const USED_MASK: u64 = 0xFFFF;
const CLASS_SHIFT: u32 = 16;
const CLASS_MASK: u64 = 0xFF;
const GEN_SHIFT: u32 = 24;
const GEN_MASK: u64 = (1 << 39) - 1;
const ONLIST: u64 = 1 << 63;

#[inline]
fn used_of(s: u64) -> usize {
    (s & USED_MASK) as usize
}

#[inline]
fn class_plus1_of(s: u64) -> usize {
    ((s >> CLASS_SHIFT) & CLASS_MASK) as usize
}

#[inline]
fn gen_of(s: u64) -> u64 {
    (s >> GEN_SHIFT) & GEN_MASK
}

#[inline]
fn pack(used: usize, class_plus1: usize, generation: u64) -> u64 {
    (used as u64 & USED_MASK)
        | ((class_plus1 as u64 & CLASS_MASK) << CLASS_SHIFT)
        | ((generation & GEN_MASK) << GEN_SHIFT)
}

// Partial-list entries pack (page index, generation) so poppers can tell a
// stale entry (the page was retired and possibly re-bound since the push)
// from a live one.
#[inline]
fn pack_entry(idx: usize, generation: u64) -> u64 {
    debug_assert!(idx < (1 << 24));
    idx as u64 | (generation << GEN_SHIFT)
}

#[inline]
fn unpack_entry(entry: u64) -> (usize, u64) {
    (
        (entry & ((1 << GEN_SHIFT) - 1)) as usize,
        entry >> GEN_SHIFT,
    )
}

/// Builds the spaced class ladder: every multiple of the granule up to 64,
/// then four classes per doubling (80, 96, 112, 128, 160, …), stopping at
/// `cutoff` and at `page_size / 2` (a class must fit at least two objects
/// per page).  Contains every power of two in range, which is what lets the
/// facade bump over-aligned requests to a naturally-aligned class.
fn class_table(cutoff: usize, page_size: usize) -> Vec<usize> {
    let limit = cutoff.min(page_size / 2);
    let mut classes = Vec::new();
    let mut s = GRANULE;
    while s <= 64 && s <= limit {
        classes.push(s);
        s += GRANULE;
    }
    let mut base = 64;
    while classes.last() == Some(&base) {
        let quarter = base / 4;
        for k in 1..=4usize {
            let c = base + k * quarter;
            if c > limit {
                return classes;
            }
            classes.push(c);
        }
        base *= 2;
    }
    classes
}

/// Cache-padded per-class counters (hot on the refill/flush paths).
#[derive(Debug, Default)]
struct ClassCounters {
    /// Cumulative raw bytes requested from this class.
    requested: AtomicU64,
    /// Cumulative `objects_served × class_size`.
    committed: AtomicU64,
    /// Objects currently handed out (gauge).
    live: AtomicU64,
    /// Approximate count of fully-free pages kept warm for this class.
    empty_pages: AtomicU64,
}

/// Per-class control block: the lock-free partial-page list plus counters.
#[derive(Debug)]
struct ClassCtl {
    partial: BoundedStack<u64>,
    objects_per_page: usize,
    counters: CachePadded<ClassCounters>,
}

/// A size-class slab front-end over any [`BuddyBackend`].
///
/// See the [module docs](self) for the design.  Requests ≤ the cutoff are
/// served from spaced size classes carved out of buddy-granted pages;
/// larger requests (and frees of their offsets) pass straight through.
///
/// ```
/// use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
/// use nbbs_slab::SlabBackend;
///
/// let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
/// let slab = SlabBackend::new(NbbsFourLevel::new(config));
/// assert_eq!(slab.granted_size_for(40), Some(40)); // not 64
/// let a = slab.alloc(40).unwrap();
/// let b = slab.alloc(40).unwrap();
/// assert_ne!(a, b);
/// slab.dealloc(a);
/// slab.dealloc(b);
/// slab.drain_cache(); // retire warm pages
/// assert_eq!(slab.allocated_bytes(), 0);
/// ```
pub struct SlabBackend<A> {
    inner: A,
    name: &'static str,
    geometry: Geometry,
    page_size: usize,
    cutoff: usize,
    classes: Vec<usize>,
    class_ctl: Vec<ClassCtl>,
    /// One state word per page slot of the managed span.
    pages: ZeroedSlice<AtomicU64>,
    /// `words_per_page` bitmap words per page slot.
    bitmap: ZeroedSlice<AtomicU64>,
    words_per_page: usize,
    pages_held: AtomicU64,
    pages_retired: AtomicU64,
    passthrough: AtomicU64,
    /// Page offsets whose return to the buddy was interrupted by a panic
    /// unwinding out of [`BuddyBackend::dealloc`]; the next slow-path
    /// toucher (a page grant or a drain) rescues them.  Mirrors the
    /// magazine cache's orphan list.
    orphaned_pages: SpinLock<Vec<usize>>,
    /// Fast-path gate for the orphan list: one relaxed load when empty.
    has_orphans: AtomicBool,
    /// Slow-path latency recorder (page grants/retires, orphan rescues);
    /// `None` means no timestamp is ever taken.
    obs: Option<std::sync::Arc<Recorder>>,
}

impl<A: BuddyBackend> SlabBackend<A> {
    /// Wraps `inner`: 16 KiB pages (clamped into `inner`'s block sizes)
    /// carved into the classes up to 2 KiB (and at most half a page).
    pub fn new(inner: A) -> Self {
        let inner_geo = *inner.geometry();
        let page_size = PAGE_SIZE.clamp(inner_geo.min_size(), inner_geo.max_size());
        let classes = class_table(CUTOFF, page_size);
        let cutoff = classes.last().copied().unwrap_or(0);
        // The slab's own geometry: granule-sized allocation units, so the
        // cache's offset-alignment checks accept class-spaced offsets.  The
        // widened span of a multi-node inner is used because it is the
        // power-of-two one; `total_memory()` still reports the logical span.
        let geometry = BuddyConfig::new(
            inner_geo.total_memory(),
            GRANULE.min(inner_geo.min_size()),
            inner_geo.max_size(),
        )
        .map(|c| Geometry::new(&c))
        .unwrap_or(inner_geo);
        let n_pages = inner_geo.total_memory() / page_size;
        let words_per_page = (page_size / GRANULE).div_ceil(64).max(1);
        let class_ctl = classes
            .iter()
            .map(|&size| ClassCtl {
                partial: BoundedStack::new(n_pages + 32),
                objects_per_page: page_size / size,
                counters: CachePadded::new(ClassCounters::default()),
            })
            .collect();
        SlabBackend {
            inner,
            name: "slab",
            geometry,
            page_size,
            cutoff,
            classes,
            class_ctl,
            // Zeroed memory: a page slot's words cost a frame only once a
            // page of its stretch of the span has been granted.
            pages: zeroed_slice(n_pages),
            bitmap: zeroed_slice(n_pages * words_per_page),
            words_per_page,
            pages_held: AtomicU64::new(0),
            pages_retired: AtomicU64::new(0),
            passthrough: AtomicU64::new(0),
            orphaned_pages: SpinLock::new(Vec::new()),
            has_orphans: AtomicBool::new(false),
            obs: None,
        }
    }

    /// Renames the slab in reports (e.g. `"slab-4lvl-nb"`).
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Attaches a latency recorder: page grants, page retires and orphan
    /// rescues show up as [`OpKind::PageGrant`] / [`OpKind::PageRetire`] /
    /// [`OpKind::OrphanRescue`] in its histograms and event ring.
    pub fn with_recorder(mut self, recorder: std::sync::Arc<Recorder>) -> Self {
        self.obs = Some(recorder);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&std::sync::Arc<Recorder>> {
        self.obs.as_ref()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Largest request served from a size class (after clamping).
    pub fn cutoff(&self) -> usize {
        self.cutoff
    }

    /// Bytes per slab page (after clamping).
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The resolved class ladder, ascending.
    pub fn class_sizes(&self) -> &[usize] {
        &self.classes
    }

    /// Index of the smallest class able to hold `size` bytes.
    /// Caller guarantees `size <= cutoff` (and a non-empty ladder).
    fn class_index_for(&self, size: usize) -> usize {
        debug_assert!(size <= self.cutoff && !self.classes.is_empty());
        self.classes.partition_point(|&c| c < size.max(1))
    }

    fn record_alloc(&self, class: usize, requested: usize) {
        let c = &self.class_ctl[class].counters;
        c.requested
            .fetch_add(requested.max(1) as u64, Ordering::Relaxed);
        c.committed
            .fetch_add(self.classes[class] as u64, Ordering::Relaxed);
        c.live.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes page `idx` to its class list unless it is already there.
    /// The `ONLIST` flag makes the push at-most-once per availability
    /// episode, which is what bounds the list to one entry per page.
    fn attempt_push(&self, idx: usize, class: usize) {
        let state = &self.pages[idx];
        let mut s = state.load(Ordering::Acquire);
        loop {
            if class_plus1_of(s) != class + 1 || s & ONLIST != 0 {
                return;
            }
            match state.compare_exchange_weak(s, s | ONLIST, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(cur) => s = cur,
            }
        }
        let generation = gen_of(s);
        if self.class_ctl[class]
            .partial
            .push(pack_entry(idx, generation))
            .is_err()
        {
            // Capacity exhausted (only reachable under extreme stale-entry
            // pile-up): roll the flag back so a later availability episode
            // can retry.  Validate (class, generation) so a racing retire +
            // re-grant is never clobbered.
            let mut s = state.load(Ordering::Acquire);
            while class_plus1_of(s) == class + 1 && gen_of(s) == generation && s & ONLIST != 0 {
                match state.compare_exchange_weak(
                    s,
                    s & !ONLIST,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(cur) => s = cur,
                }
            }
        }
    }

    /// Takes page `idx` off the list and reserves one slot, validating the
    /// (class, generation) pair from the popped entry.  Returns the used
    /// count *before* the reservation, or `None` if the entry is stale or
    /// the page filled up (in which case the `ONLIST` flag is cleared so
    /// the next full→partial free can re-publish it).
    fn try_reserve(&self, idx: usize, class: usize, generation: u64, cap: usize) -> Option<usize> {
        let state = &self.pages[idx];
        let mut s = state.load(Ordering::Acquire);
        loop {
            if class_plus1_of(s) != class + 1 || gen_of(s) != generation || s & ONLIST == 0 {
                return None;
            }
            let used = used_of(s);
            let next = if used >= cap {
                s & !ONLIST
            } else {
                (s & !ONLIST) + 1
            };
            match state.compare_exchange_weak(s, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) if used >= cap => return None,
                Ok(_) => return Some(used),
                Err(cur) => s = cur,
            }
        }
    }

    /// Claims one free bitmap slot of page `idx`.  The caller holds a
    /// reservation (a counted `used` increment), which guarantees a free
    /// bit exists; a CAS failure means another claimer made progress.
    fn claim_slot(&self, idx: usize, cap: usize) -> usize {
        let words = &self.bitmap[idx * self.words_per_page..(idx + 1) * self.words_per_page];
        loop {
            for (w, word) in words.iter().enumerate() {
                let base = w * 64;
                if base >= cap {
                    break;
                }
                let limit = (cap - base).min(64);
                let live_mask = if limit == 64 {
                    !0u64
                } else {
                    (1u64 << limit) - 1
                };
                let mut bits = word.load(Ordering::Acquire);
                loop {
                    let free = !bits & live_mask;
                    if free == 0 {
                        break;
                    }
                    let bit = free & free.wrapping_neg();
                    match word.compare_exchange_weak(
                        bits,
                        bits | bit,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return base + bit.trailing_zeros() as usize,
                        Err(cur) => bits = cur,
                    }
                }
            }
            std::hint::spin_loop();
        }
    }

    /// The slab-side allocation path for a request already mapped to a
    /// class: pop partial pages (discarding stale entries) until one yields
    /// a slot, granting a fresh page from the buddy when the list runs dry.
    fn slab_alloc(&self, class: usize, requested: usize) -> Result<usize, AllocError> {
        let ctl = &self.class_ctl[class];
        let class_size = self.classes[class];
        let cap = ctl.objects_per_page;
        loop {
            let Some(entry) = ctl.partial.pop() else {
                return self.grant_page(class, requested);
            };
            let (idx, generation) = unpack_entry(entry);
            let Some(prev_used) = self.try_reserve(idx, class, generation, cap) else {
                continue; // stale or filled-up entry: discard and keep popping
            };
            if prev_used == 0 {
                saturating_dec(&ctl.counters.empty_pages);
            }
            if prev_used + 1 < cap {
                self.attempt_push(idx, class);
            }
            let slot = self.claim_slot(idx, cap);
            self.record_alloc(class, requested);
            return Ok(idx * self.page_size + slot * class_size);
        }
    }

    /// Grants a fresh page from the buddy, binds it to `class`, pre-claims
    /// slot 0 for the caller and publishes the rest.  `Transient` and OOM
    /// propagate (OOM falls back to serving the request straight from the
    /// buddy first — coarser but sound: a power-of-two grant dominates the
    /// class in both size and alignment).  Injected panics fire *before*
    /// the wrapped buddy op (the `nbbs-chaos` contract), and everything
    /// after the grant is plain atomics, so no path can orphan a page.
    fn grant_page(&self, class: usize, requested: usize) -> Result<usize, AllocError> {
        self.rescue_orphaned_pages();
        let granted = Recorder::time(
            &self.obs,
            OpKind::PageGrant,
            || self.inner.try_alloc(self.page_size),
            |granted| (class as u64, granted.is_ok()),
        );
        let page_off = match granted {
            Ok(off) => off,
            Err(AllocError::OutOfMemory { .. }) => {
                self.passthrough.fetch_add(1, Ordering::Relaxed);
                return self.inner.try_alloc(requested.max(1));
            }
            Err(e) => return Err(e),
        };
        debug_assert_eq!(page_off % self.page_size, 0);
        let idx = page_off / self.page_size;
        let state = &self.pages[idx];
        let s = state.load(Ordering::Relaxed);
        debug_assert_eq!(class_plus1_of(s), 0, "buddy granted a live slab page");
        debug_assert_eq!(used_of(s), 0);
        // Exclusive ownership until the Release store below publishes the
        // binding: stale list entries cannot pass the generation check, and
        // a retired page left its bitmap all-clear.
        self.bitmap[idx * self.words_per_page].store(1, Ordering::Relaxed);
        self.pages_held.fetch_add(1, Ordering::Relaxed);
        state.store(pack(1, class + 1, gen_of(s)), Ordering::Release);
        if self.class_ctl[class].objects_per_page > 1 {
            self.attempt_push(idx, class);
        }
        self.record_alloc(class, requested);
        Ok(page_off)
    }

    /// Releases the slab object at `offset` inside the bound page `idx`
    /// whose state word was observed as `s`.
    fn slab_free(&self, idx: usize, offset: usize, s: u64) -> Result<(), FreeError> {
        let class = class_plus1_of(s) - 1;
        let class_size = self.classes[class];
        let ctl = &self.class_ctl[class];
        let cap = ctl.objects_per_page;
        let rem = offset - idx * self.page_size;
        if !rem.is_multiple_of(class_size) || rem / class_size >= cap {
            return Err(FreeError::NotAllocated { offset });
        }
        let slot = rem / class_size;
        let word = &self.bitmap[idx * self.words_per_page + slot / 64];
        let bit = 1u64 << (slot % 64);
        let prev = word.fetch_and(!bit, Ordering::AcqRel);
        if prev & bit == 0 {
            return Err(FreeError::NotAllocated { offset });
        }
        ctl.counters.live.fetch_sub(1, Ordering::Relaxed);
        // The object was live, so `used >= 1` and the page cannot be retired
        // (nor its generation bumped) concurrently: a plain decrement of the
        // state word's low bits is safe.
        let prev_state = self.pages[idx].fetch_sub(1, Ordering::AcqRel);
        let used_before = used_of(prev_state);
        debug_assert!(used_before >= 1);
        if used_before == cap {
            // full → partial: re-publish the page.
            self.attempt_push(idx, class);
        } else if used_before == 1 {
            self.on_page_empty(idx, class);
        }
        Ok(())
    }

    /// Hysteresis decision for a page that just went fully free: keep it
    /// warm while the class holds fewer than K empty pages, else retire it
    /// to the buddy.
    fn on_page_empty(&self, idx: usize, class: usize) {
        let ctl = &self.class_ctl[class];
        let mut kept = ctl.counters.empty_pages.load(Ordering::Relaxed);
        while (kept as usize) < KEEP_EMPTY_PAGES {
            match ctl.counters.empty_pages.compare_exchange_weak(
                kept,
                kept + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.attempt_push(idx, class);
                    return;
                }
                Err(cur) => kept = cur,
            }
        }
        self.try_retire(idx, class);
    }

    /// Retires page `idx` back to the buddy if it is still empty and bound
    /// to `class`.  Bumping the generation invalidates any list entry still
    /// pointing at the page; a concurrent reservation makes the CAS fail
    /// harmlessly.
    fn try_retire(&self, idx: usize, class: usize) -> bool {
        let state = &self.pages[idx];
        let mut s = state.load(Ordering::Acquire);
        loop {
            if class_plus1_of(s) != class + 1 || used_of(s) != 0 {
                return false;
            }
            let next = pack(0, 0, gen_of(s).wrapping_add(1));
            match state.compare_exchange_weak(s, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.pages_held.fetch_sub(1, Ordering::Relaxed);
                    self.pages_retired.fetch_add(1, Ordering::Relaxed);
                    Recorder::time(
                        &self.obs,
                        OpKind::PageRetire,
                        || self.return_page(idx * self.page_size),
                        |_| (class as u64, true),
                    );
                    return true;
                }
                Err(cur) => s = cur,
            }
        }
    }

    /// Hands a retired page back to the buddy, panic-safely: a panic
    /// unwinding out of the buddy's `dealloc` (injected panics fire
    /// *before* the wrapped operation, the `nbbs-chaos` contract) parks the
    /// offset on the orphan list via the guard's `Drop` instead of leaking
    /// the page — the slab has already unbound it, so nothing else would
    /// ever free it.
    fn return_page(&self, offset: usize) {
        let mut guard = OrphanGuard {
            slab: self,
            pages: vec![offset],
        };
        self.inner.dealloc(offset);
        guard.pages.clear();
    }

    /// Returns panic-stranded pages to the buddy.  Invoked by the next
    /// toucher of the slow path (page grants, drains); costs one relaxed
    /// load when there is nothing to rescue.  A panic during the rescue
    /// itself re-strands the remainder — pages are popped only after their
    /// free completed.
    fn rescue_orphaned_pages(&self) {
        if !self.has_orphans.load(Ordering::Relaxed) {
            return;
        }
        if !self.has_orphans.swap(false, Ordering::Acquire) {
            return;
        }
        let stranded = std::mem::take(&mut *self.orphaned_pages.lock());
        if stranded.is_empty() {
            return;
        }
        let rescued = stranded.len() as u64;
        let mut guard = OrphanGuard {
            slab: self,
            pages: stranded,
        };
        Recorder::time(
            &self.obs,
            OpKind::OrphanRescue,
            || {
                while let Some(&off) = guard.pages.last() {
                    self.inner.dealloc(off);
                    guard.pages.pop();
                }
            },
            |_| (rescued, true),
        );
    }

    /// Retires every fully-free page regardless of the hysteresis — the
    /// slab half of [`BuddyBackend::drain_cache`] and the
    /// [`BuddyBackend::trim_empty_pages`] payload.  Without this, a class
    /// that goes idle would keep its two warm pages bound
    /// forever, hiding them from the decommit scrubber.  Returns how many
    /// pages went back to the buddy.
    fn reclaim_empty_pages(&self) -> usize {
        let mut reclaimed = 0;
        for idx in 0..self.pages.len() {
            let s = self.pages[idx].load(Ordering::Acquire);
            let cp1 = class_plus1_of(s);
            if cp1 != 0 && used_of(s) == 0 && self.try_retire(idx, cp1 - 1) {
                saturating_dec(&self.class_ctl[cp1 - 1].counters.empty_pages);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Point-in-time fragmentation counters (the
    /// [`BuddyBackend::frag_stats`] payload).
    pub fn frag_snapshot(&self) -> FragStatsSnapshot {
        FragStatsSnapshot {
            classes: self
                .classes
                .iter()
                .zip(self.class_ctl.iter())
                .map(|(&class_size, ctl)| FragClassSnapshot {
                    class_size,
                    bytes_requested: ctl.counters.requested.load(Ordering::Relaxed),
                    bytes_committed: ctl.counters.committed.load(Ordering::Relaxed),
                    live_objects: ctl.counters.live.load(Ordering::Relaxed),
                })
                .collect(),
            pages_live: self.pages_held.load(Ordering::Relaxed),
            pages_retired: self.pages_retired.load(Ordering::Relaxed),
            passthrough_allocs: self.passthrough.load(Ordering::Relaxed),
        }
    }
}

/// Re-strands un-returned pages if a panic unwinds out of a buddy free —
/// both on the first return attempt and during a rescue.
struct OrphanGuard<'a, A> {
    slab: &'a SlabBackend<A>,
    pages: Vec<usize>,
}

impl<A> Drop for OrphanGuard<'_, A> {
    fn drop(&mut self) {
        if !self.pages.is_empty() {
            self.slab.orphaned_pages.lock().append(&mut self.pages);
            self.slab.has_orphans.store(true, Ordering::Release);
        }
    }
}

fn saturating_dec(counter: &AtomicU64) {
    let mut v = counter.load(Ordering::Relaxed);
    while v > 0 {
        match counter.compare_exchange_weak(v, v - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(cur) => v = cur,
        }
    }
}

impl<A: BuddyBackend> BuddyBackend for SlabBackend<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// The slab's own geometry: same span and per-request ceiling as the
    /// buddy's, but granule-sized (8 B) allocation units, because class
    /// offsets are multiples of the granule rather than of the buddy's
    /// `min_size`.
    fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        self.try_alloc(size).ok()
    }

    fn dealloc(&self, offset: usize) {
        let idx = offset / self.page_size;
        if idx < self.pages.len() {
            let s = self.pages[idx].load(Ordering::Acquire);
            if class_plus1_of(s) != 0 {
                let freed = self.slab_free(idx, offset, s);
                debug_assert!(freed.is_ok(), "invalid slab free at {offset}: {freed:?}");
                return;
            }
        }
        self.inner.dealloc(offset)
    }

    fn try_alloc(&self, size: usize) -> Result<usize, AllocError> {
        if size <= self.cutoff && !self.classes.is_empty() {
            self.slab_alloc(self.class_index_for(size), size)
        } else {
            self.passthrough.fetch_add(1, Ordering::Relaxed);
            self.inner.try_alloc(size)
        }
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        let idx = offset / self.page_size;
        if idx < self.pages.len() {
            let s = self.pages[idx].load(Ordering::Acquire);
            if class_plus1_of(s) != 0 {
                return self.slab_free(idx, offset, s);
            }
        }
        self.inner.try_dealloc(offset)
    }

    /// Everything the slab does not answer itself goes to the buddy — the
    /// scrubber's claim among it: a page bound to a slab class is allocated
    /// there, so the claim CAS refuses it and only whole free buddy blocks
    /// are claimable.
    fn inner(&self) -> Option<&dyn BuddyBackend> {
        Some(&self.inner)
    }

    /// Bytes the *callers* hold: the buddy's figure minus the pages parked
    /// in the slab, plus the live slab objects.  Zero at quiescence once
    /// [`BuddyBackend::drain_cache`] has retired the warm pages.
    fn allocated_bytes(&self) -> usize {
        let held = self.pages_held.load(Ordering::Relaxed) as usize * self.page_size;
        // Panic-stranded pages are already unbound (no caller holds them)
        // but still count as allocated inside the buddy until rescued.
        let stranded = if self.has_orphans.load(Ordering::Relaxed) {
            self.orphaned_pages.lock().len() * self.page_size
        } else {
            0
        };
        let live: usize = self
            .classes
            .iter()
            .zip(self.class_ctl.iter())
            .map(|(&size, ctl)| ctl.counters.live.load(Ordering::Relaxed) as usize * size)
            .sum();
        self.inner.allocated_bytes().saturating_sub(held + stranded) + live
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        let idx = offset / self.page_size;
        if idx < self.pages.len() {
            let s = self.pages[idx].load(Ordering::Acquire);
            let cp1 = class_plus1_of(s);
            if cp1 != 0 {
                let class_size = self.classes[cp1 - 1];
                let cap = self.class_ctl[cp1 - 1].objects_per_page;
                let rem = offset - idx * self.page_size;
                if rem.is_multiple_of(class_size) && rem / class_size < cap {
                    let slot = rem / class_size;
                    let word =
                        self.bitmap[idx * self.words_per_page + slot / 64].load(Ordering::Acquire);
                    if word & (1u64 << (slot % 64)) != 0 {
                        return Some(class_size);
                    }
                }
                return None;
            }
        }
        self.inner.granted_size_of_live(offset)
    }

    fn granted_size_for(&self, size: usize) -> Option<usize> {
        if size <= self.cutoff && !self.classes.is_empty() {
            Some(self.classes[self.class_index_for(size)])
        } else {
            self.inner.granted_size_for(size)
        }
    }

    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        if size <= self.cutoff && !self.classes.is_empty() {
            // A class object sits at page_base + slot × class_size: its
            // guaranteed alignment is the largest power of two dividing the
            // class size (e.g. 8 for the 40-byte class, 64 for the 64-byte
            // one).
            let class_size = self.classes[self.class_index_for(size)];
            Some(1 << class_size.trailing_zeros())
        } else {
            self.inner.grant_alignment_for(size)
        }
    }

    fn frag_stats(&self) -> Option<FragStatsSnapshot> {
        Some(self.frag_snapshot())
    }

    fn drain_cache(&self) {
        self.rescue_orphaned_pages();
        self.reclaim_empty_pages();
        self.inner.drain_cache()
    }

    /// Returns idle classes' warm empty pages to the buddy (bypassing the
    /// two-page hysteresis) so the scrubber can decommit them.
    fn trim_empty_pages(&self) -> usize {
        self.rescue_orphaned_pages();
        self.reclaim_empty_pages() + self.inner.trim_empty_pages()
    }

    /// Forwarded like the scrubber's claim: a scrub run is whole free buddy
    /// blocks, none of them a page bound to a class.
    fn scrub_dealloc_run(&self, run: &[(usize, usize)]) -> Option<usize> {
        self.inner.scrub_dealloc_run(run)
    }
}

impl<A: BuddyBackend + std::fmt::Debug> std::fmt::Debug for SlabBackend<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabBackend")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .field("page_size", &self.page_size)
            .field("cutoff", &self.cutoff)
            .field("classes", &self.classes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbs::NbbsFourLevel;
    use std::sync::Arc;

    fn tree() -> NbbsFourLevel {
        NbbsFourLevel::new(BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap())
    }

    fn slab() -> SlabBackend<NbbsFourLevel> {
        SlabBackend::new(tree())
    }

    #[test]
    fn page_lifecycle_is_recorded_when_a_recorder_is_attached() {
        let rec = Arc::new(Recorder::new());
        let s = SlabBackend::new(tree()).with_recorder(Arc::clone(&rec));
        let a = s.alloc(40).unwrap();
        assert_eq!(
            rec.snapshot(OpKind::PageGrant).total(),
            1,
            "first class alloc grants a page"
        );
        s.dealloc(a);
        s.drain_cache();
        assert_eq!(
            rec.snapshot(OpKind::PageRetire).total(),
            1,
            "drain retires the empty page"
        );
        assert_eq!(
            rec.snapshot(OpKind::OrphanRescue).total(),
            0,
            "no panic stranded anything"
        );
        let bare = slab();
        assert!(bare.recorder().is_none(), "recording is opt-in");
    }

    #[test]
    fn class_table_is_spaced_and_contains_every_power_of_two() {
        let classes = class_table(2048, 16 << 10);
        assert_eq!(classes.first(), Some(&8));
        assert_eq!(classes.last(), Some(&2048));
        assert!(classes.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(classes.iter().all(|c| c % GRANULE == 0));
        let mut p = 8usize;
        while p <= 2048 {
            assert!(classes.contains(&p), "missing power of two {p}");
            p *= 2;
        }
        // Spacing above 64 stays within 25% of the lower class.
        for w in classes.windows(2) {
            if w[0] >= 64 {
                assert!(w[1] - w[0] <= w[0] / 4, "{} -> {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn class_table_respects_page_and_cutoff_limits() {
        let classes = class_table(2048, 512);
        assert_eq!(classes.last(), Some(&256), "<= page_size / 2");
        let classes = class_table(100, 16 << 10);
        assert_eq!(classes.last(), Some(&96));
        assert!(class_table(2048, 8).is_empty());
    }

    #[test]
    fn granted_sizes_are_class_sizes_below_the_cutoff() {
        let s = slab();
        assert_eq!(s.cutoff(), 2048);
        assert_eq!(s.granted_size_for(1), Some(8));
        assert_eq!(s.granted_size_for(40), Some(40));
        assert_eq!(s.granted_size_for(41), Some(48));
        assert_eq!(s.granted_size_for(100), Some(112));
        assert_eq!(s.granted_size_for(2048), Some(2048));
        assert_eq!(s.granted_size_for(2049), Some(4096)); // passthrough
        assert_eq!(s.granted_size_for(1 << 16), Some(1 << 16));
        assert_eq!(s.granted_size_for((1 << 16) + 1), None);
    }

    #[test]
    fn grant_alignment_is_the_class_granule() {
        let s = slab();
        assert_eq!(s.grant_alignment_for(40), Some(8));
        assert_eq!(s.grant_alignment_for(48), Some(16));
        assert_eq!(s.grant_alignment_for(64), Some(64));
        assert_eq!(s.grant_alignment_for(96), Some(32));
        assert_eq!(s.grant_alignment_for(4096), Some(4096)); // buddy natural
    }

    #[test]
    fn alloc_free_round_trip_and_conservation() {
        let s = slab();
        let offs: Vec<usize> = (0..100).map(|_| s.alloc(40).unwrap()).collect();
        // All distinct, all granule-aligned, live sizes reported.
        let mut sorted = offs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), offs.len());
        for &o in &offs {
            assert_eq!(o % GRANULE, 0);
            assert_eq!(s.granted_size_of_live(o), Some(40));
        }
        assert_eq!(s.allocated_bytes(), 100 * 40);
        for &o in &offs {
            s.dealloc(o);
        }
        s.drain_cache();
        assert_eq!(s.allocated_bytes(), 0);
        assert_eq!(s.inner().allocated_bytes(), 0, "all pages returned");
    }

    #[test]
    fn objects_share_a_page_instead_of_burning_buddy_chunks() {
        let s = slab();
        let before = s.inner().allocated_bytes();
        let offs: Vec<usize> = (0..64).map(|_| s.alloc(40).unwrap()).collect();
        let after = s.inner().allocated_bytes();
        // 64 × 40 B fits in one 16 KiB page; the bare tree would have burned
        // 64 × 64 B = 4 KiB spread over 64 chunks.
        assert_eq!(after - before, s.page_size());
        for &o in &offs {
            s.dealloc(o);
        }
    }

    #[test]
    fn passthrough_above_the_cutoff() {
        let s = slab();
        let o = s.alloc(4096).unwrap();
        assert_eq!(s.granted_size_of_live(o), Some(4096));
        assert_eq!(s.frag_snapshot().passthrough_allocs, 1);
        s.dealloc(o);
        assert_eq!(s.allocated_bytes(), 0);
    }

    #[test]
    fn hysteresis_keeps_k_pages_then_retires() {
        let s = slab();
        let per_page = s.page_size() / 2048;
        // Fill four pages of the 2048 class, then free everything: two
        // empty pages stay warm, the others retire to the buddy.
        let offs: Vec<usize> = (0..4 * per_page).map(|_| s.alloc(2048).unwrap()).collect();
        assert_eq!(s.frag_snapshot().pages_live, 4);
        for &o in &offs {
            s.dealloc(o);
        }
        let snap = s.frag_snapshot();
        assert_eq!(snap.pages_live, 2, "K=2 pages kept warm");
        assert_eq!(snap.pages_retired, 2);
        // The retired capacity can satisfy a large buddy request again.
        let big = s.alloc(1 << 16).unwrap();
        s.dealloc(big);
        // The warm page serves the next small burst without a buddy grant.
        let buddy_before = s.inner().allocated_bytes();
        let o = s.alloc(2048).unwrap();
        assert_eq!(s.inner().allocated_bytes(), buddy_before, "no new grant");
        s.dealloc(o);
        s.drain_cache();
        assert_eq!(s.allocated_bytes(), 0);
        assert_eq!(s.inner().allocated_bytes(), 0);
    }

    #[test]
    fn frag_counters_track_requests_and_commits() {
        let s = slab();
        let a = s.alloc(33).unwrap(); // class 40
        let b = s.alloc(40).unwrap(); // class 40
        let snap = s.frag_snapshot();
        assert_eq!(snap.bytes_requested(), 73);
        assert_eq!(snap.bytes_committed(), 80);
        assert_eq!(snap.live_objects(), 2);
        assert!(snap.ratio() > 1.0 && snap.ratio() < 1.25);
        s.dealloc(a);
        s.dealloc(b);
        assert_eq!(s.frag_snapshot().live_objects(), 0);
    }

    #[test]
    fn double_free_and_bad_offsets_are_rejected() {
        let s = slab();
        let o = s.alloc(40).unwrap();
        assert!(s.try_dealloc(o + 8).is_err(), "mid-object offset");
        assert!(s.try_dealloc(o).is_ok());
        assert!(s.try_dealloc(o).is_err(), "double free");
        assert!(s.try_dealloc(usize::MAX).is_err());
    }

    #[test]
    fn zero_size_requests_get_the_smallest_class() {
        let s = slab();
        let o = s.alloc(0).unwrap();
        assert_eq!(s.granted_size_of_live(o), Some(8));
        s.dealloc(o);
    }

    #[test]
    fn mixed_classes_and_sizes_do_not_collide() {
        let s = slab();
        let mut held = Vec::new();
        for size in [8usize, 24, 40, 96, 320, 1536, 2048, 4096, 1 << 14] {
            for _ in 0..10 {
                held.push((s.alloc(size).unwrap(), size));
            }
        }
        // Byte ranges of all live grants are disjoint.
        let mut ranges: Vec<(usize, usize)> = held
            .iter()
            .map(|&(o, sz)| (o, o + s.granted_size_for(sz).unwrap()))
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
        for &(o, _) in &held {
            s.dealloc(o);
        }
        s.drain_cache();
        assert_eq!(s.allocated_bytes(), 0);
    }

    #[test]
    fn composes_behind_arc_and_reference() {
        let s = Arc::new(slab());
        let o = BuddyBackend::alloc(&s, 40).unwrap();
        assert_eq!(BuddyBackend::granted_size_for(&s, 40), Some(40));
        assert_eq!(BuddyBackend::grant_alignment_for(&s, 40), Some(8));
        assert!(BuddyBackend::frag_stats(&s).is_some());
        BuddyBackend::dealloc(&s, o);
        let r: &SlabBackend<_> = &s;
        assert_eq!(r.granted_size_for(100), Some(112));
    }

    #[test]
    fn concurrent_storm_conserves_and_converges() {
        let s = Arc::new(slab());
        let threads = 4;
        let iters = 2000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut held: Vec<(usize, usize)> = Vec::new();
                    let mut rng = 0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1);
                    for i in 0..iters {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let size =
                            [8, 24, 40, 40, 48, 96, 128, 320, 2048, 4096][(rng % 10) as usize];
                        if rng & 1 == 0 || held.is_empty() {
                            if let Some(o) = s.alloc(size) {
                                held.push((o, size));
                            }
                        } else {
                            let (o, _) = held.swap_remove((rng as usize / 2) % held.len());
                            s.dealloc(o);
                        }
                        if i % 512 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    for (o, _) in held {
                        s.dealloc(o);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        s.drain_cache();
        assert_eq!(s.allocated_bytes(), 0);
        assert_eq!(SlabBackend::inner(&s).allocated_bytes(), 0);
        let snap = s.frag_snapshot();
        assert_eq!(snap.live_objects(), 0);
        assert_eq!(snap.pages_live, 0);
    }

    #[test]
    fn tiny_arena_degenerates_gracefully() {
        // Arena where the page clamps to max_size and only 4 pages exist.
        let config = BuddyConfig::new(1 << 16, 8, 1 << 14).unwrap();
        let s = SlabBackend::new(NbbsFourLevel::new(config));
        assert_eq!(s.page_size(), 1 << 14);
        let offs: Vec<usize> = (0..32).map(|_| s.alloc(40).unwrap()).collect();
        for &o in &offs {
            s.dealloc(o);
        }
        s.drain_cache();
        assert_eq!(s.allocated_bytes(), 0);
    }
}
