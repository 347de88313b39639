//! Common interfaces implemented by every back-end allocator in the
//! reproduction (the non-blocking variants, their spin-locked counterparts
//! and the baselines in `nbbs-baselines`).
//!
//! The interface is expressed in terms of **byte offsets** into the managed
//! region rather than raw pointers.  This keeps the allocator state machines
//! free of `unsafe`, makes them trivially testable (no backing memory is
//! required) and mirrors how the paper's kernel-level experiment treats the
//! buddy system: as a service that hands out page-frame numbers, with the
//! mapping to addresses applied by a thin outer layer
//! ([`crate::BuddyRegion`] here).

use crate::error::{AllocError, FreeError};
use crate::geometry::Geometry;
use crate::occupancy::OccupancySnapshot;
use crate::stats::{CacheStatsSnapshot, FragStatsSnapshot, OpStatsSnapshot};

/// A concurrent back-end buddy allocator over a contiguous region.
///
/// All methods take `&self`: implementations must be safe to call from any
/// number of threads concurrently.  The *non-blocking* implementations in
/// this crate additionally guarantee lock-freedom (some thread always makes
/// progress); the `-sl` variants and baselines serialize internally.
///
/// # Writing a wrapper
///
/// A layer that wraps another backend (a recorder, a cache, a fault
/// injector) implements the six required methods, overrides
/// [`BuddyBackend::inner`] to return the backend it wraps, and overrides
/// the methods whose answer it changes — nothing else.  Every optional
/// read-out and maintenance method defaults to asking `inner()` first, so a
/// hook the wrapper never heard of answers with the wrapped backend's value
/// instead of the leaf default.  Four methods want a one-line forward of
/// their own.  [`BuddyBackend::try_alloc`] does not come through `inner()`:
/// its default goes through `self.alloc`, so a wrapper's own gate or lock
/// is never skipped, at the price of losing the inner backend's error
/// detail.  The per-operation lookups
/// [`BuddyBackend::granted_size_of_live`],
/// [`BuddyBackend::granted_size_for`] and
/// [`BuddyBackend::grant_alignment_for`] do reach `inner()` by default, but
/// through a `&dyn BuddyBackend`; caches and the facade call them on every
/// request, so forward them by hand to keep them statically dispatched.
///
/// [`BuddyBackend::dealloc_sized`] follows the `try_alloc` pattern: its
/// default is `self.dealloc(offset)`, so a wrapper's gate, lock or route is
/// never skipped and the default costs only the size.  Forward it (`gate,
/// then inner.dealloc_sized(offset, granted)`) when a cache can sit beneath
/// you: a cache that is handed the size parks the chunk without asking the
/// tree for it, and a wrapper between the facade and the cache that keeps
/// the default silently puts that lookup back on every release.
///
/// [`BuddyBackend::scrub_dealloc_run`] is the one maintenance hook whose
/// default does not go through `inner()`: it frees nothing, so the scrubber
/// falls back to [`BuddyBackend::scrub_dealloc`] block by block.  Forward it
/// only if your `scrub_dealloc` is the default's plain hand-down.
pub trait BuddyBackend: Send + Sync {
    /// Short, stable identifier used in benchmark reports
    /// (e.g. `"1lvl-nb"`, `"4lvl-nb"`, `"buddy-sl"`, `"linux-buddy"`).
    fn name(&self) -> &'static str;

    /// Geometry of the managed region (sizes, depth, level math).
    fn geometry(&self) -> &Geometry;

    /// Allocates a chunk of at least `size` bytes.
    ///
    /// Returns the byte offset of the chunk within the managed region, or
    /// `None` if the request exceeds the per-request maximum or no suitable
    /// free chunk is currently available.  The chunk actually reserved is the
    /// smallest power-of-two size able to hold `size`
    /// (see [`Geometry::granted_size`]).
    fn alloc(&self, size: usize) -> Option<usize>;

    /// Releases the chunk starting at `offset`.
    ///
    /// `offset` must be a value previously returned by [`BuddyBackend::alloc`]
    /// on this instance and not released since; passing anything else is a
    /// logic error (checked variants are available via
    /// [`BuddyBackend::try_dealloc`]).
    fn dealloc(&self, offset: usize);

    /// Releases the chunk starting at `offset`, whose granted size the
    /// caller already knows.
    ///
    /// `granted` must be what [`BuddyBackend::granted_size_for`] answers for
    /// the request the chunk was last granted under — the value
    /// [`BuddyBackend::granted_size_of_live`] would look up for `offset`.
    /// A wrong size is a logic error of the same rank as a wrong offset: a
    /// cache files the chunk under the class it is told.  The size is a
    /// hint that saves the lookup, never a different release: the default
    /// drops it and calls [`BuddyBackend::dealloc`], which is correct for
    /// every backend; caches override it to pick the magazine class from
    /// `granted` (see *Writing a wrapper* above for who should forward it).
    fn dealloc_sized(&self, offset: usize, granted: usize) {
        let _ = granted;
        self.dealloc(offset);
    }

    /// Fallible allocation reporting *why* the request could not be served.
    fn try_alloc(&self, size: usize) -> Result<usize, AllocError> {
        if size > self.geometry().max_size() {
            return Err(AllocError::TooLarge {
                requested: size,
                max_size: self.geometry().max_size(),
            });
        }
        self.alloc(size)
            .ok_or(AllocError::OutOfMemory { requested: size })
    }

    /// Fallible release that validates the offset before acting.
    ///
    /// Implementations reject offsets that are out of range, misaligned, or
    /// do not correspond to a live allocation *when that can be detected
    /// cheaply*; a full double-free detector is not required (nor provided by
    /// the paper's design).
    ///
    /// Both non-blocking trees ([`crate::tree::BuddyTree`]) check the range
    /// and the unit alignment ([`Geometry::check_release_offset`]), then
    /// that `index[]` names a node for the offset and that the node reads
    /// occupied.  That rejects every free offset, a double free included,
    /// on both variants.  An offset *inside* a live block is a caller error
    /// of the same rank, and only the 1-level tree always rejects it: a
    /// stale `index[]` entry there names a node under the live one, which
    /// reads free.  On the 4-level tree the stale entry can name a stored
    /// leaf whose slot an in-bunch ancestor's allocation set to `OCC` (over
    /// 4 KiB of 64-byte units, `alloc 64, alloc 64, free both, alloc 128`:
    /// offset 64 reads as a live 64-byte block), so the checked release of
    /// an interior offset can succeed and free half of a live block.  The blind spot is
    /// documented, not patched: a release never clears its `index[]` entry
    /// (the paper's design), and ROADMAP item 11 weighs the three ways to
    /// close it.
    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError>;

    /// The backend this one wraps, or `None` for a leaf allocator.
    ///
    /// This is the single forwarding path of the trait: the default body of
    /// every optional method below asks `inner()` first and only falls back
    /// to its leaf answer when there is none.  The call is dynamically
    /// dispatched, which is fine for read-outs and scrubber maintenance and
    /// is why the per-operation methods are forwarded by hand instead (see
    /// *Writing a wrapper* above).
    fn inner(&self) -> Option<&dyn BuddyBackend> {
        None
    }

    /// Total managed memory in bytes.
    ///
    /// A leaf answers with its geometry's span; slotted sets override it to
    /// their *logical* span (a widened geometry rounds the slot count up to
    /// a power of two, and the phantom tail manages nothing), which reaches
    /// backing-memory layers through [`BuddyBackend::inner`] so they never
    /// commit phantom bytes.
    fn total_memory(&self) -> usize {
        match self.inner() {
            Some(inner) => inner.total_memory(),
            None => self.geometry().total_memory(),
        }
    }

    /// Allocation-unit size in bytes.
    fn min_size(&self) -> usize {
        self.geometry().min_size()
    }

    /// Largest size a single request may obtain.
    fn max_size(&self) -> usize {
        self.geometry().max_size()
    }

    /// Bytes currently handed out (sum of granted chunk sizes).
    ///
    /// Maintained with relaxed atomic counters; exact once the allocator is
    /// quiescent, approximate while operations are in flight.
    fn allocated_bytes(&self) -> usize;

    /// Operation counters (all zeros unless the `op-stats` feature is on).
    fn stats(&self) -> OpStatsSnapshot {
        self.inner().map(|inner| inner.stats()).unwrap_or_default()
    }

    /// The granted (power-of-two) size of the live allocation starting at
    /// `offset`, or `None` if the backend cannot cheaply tell or no live
    /// allocation starts there.
    ///
    /// Caching front-ends use this on their unsized release path to find
    /// the size class of an offset they are handed: [`BuddyBackend::dealloc`]
    /// carries no size, but a magazine can only absorb a chunk whose class
    /// it knows ([`BuddyBackend::dealloc_sized`] is the release for callers
    /// that can say it themselves).
    /// The tree-based allocators answer from `index[]` + the node status (the
    /// same lookup their own `dealloc` performs): `Some` when the recorded
    /// node starts at `offset` and reads occupied.  Both variants answer
    /// `Some(granted)` for the start of every live block and `None` for
    /// every free offset; for an offset inside a live block the 1-level
    /// tree answers `None` and the 4-level tree may answer `Some` (the
    /// blind spot [`BuddyBackend::try_dealloc`] describes).  Backends
    /// without such metadata keep the default `None`, which makes caches
    /// pass their frees straight through.
    ///
    /// Like `dealloc`, this is only meaningful for offsets owned by the
    /// caller (returned by `alloc` and not yet released); concurrent
    /// operations on *other* chunks never invalidate the answer.
    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        self.inner()?.granted_size_of_live(offset)
    }

    /// The size a request of `size` bytes *would* be granted, without
    /// allocating anything, or `None` if the request exceeds the per-request
    /// maximum.  For the plain trees this is the smallest power of two able
    /// to hold `size`; a slab front-end reports its (possibly non-power-of-
    /// two) size class instead, which is why callers must not assume the
    /// answer is a power of two.
    ///
    /// This is the layout-aware companion to
    /// [`BuddyBackend::granted_size_of_live`]: because the granted size is a
    /// pure function of the request size, a front end that knows what it
    /// asked for (the `nbbs-alloc` front ends, which always have the
    /// caller's `Layout` in hand) can decide whether an in-place
    /// `realloc` fits inside the block it already holds — no tree walk,
    /// no `index[]` lookup, just level math.  A leaf answers from its
    /// geometry; wrappers forward to their backend so the answer reflects
    /// the innermost grant policy.
    fn granted_size_for(&self, size: usize) -> Option<usize> {
        match self.inner() {
            Some(inner) => inner.granted_size_for(size),
            None => self.geometry().granted_size(size),
        }
    }

    /// The *guaranteed alignment* of the block a request of `size` bytes
    /// would be granted, or `None` if the request exceeds the per-request
    /// maximum.
    ///
    /// Buddy grants are naturally aligned (a power-of-two chunk sits at a
    /// multiple of its own size), so a leaf answers
    /// [`BuddyBackend::granted_size_for`].  Slab front-ends override it:
    /// a 40-byte class object is only guaranteed the class *granule*
    /// alignment (the largest power of two dividing the class size), so the
    /// facade bumps over-aligned requests to the next power-of-two class —
    /// whose natural alignment is restored — before allocating.
    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        match self.inner() {
            Some(inner) => inner.grant_alignment_for(size),
            None => self.granted_size_for(size),
        }
    }

    /// Per-class fragmentation counters of a slab layer wrapped around this
    /// backend, if any.
    ///
    /// Plain backends return `None`; the `nbbs-slab` front-end overrides
    /// this so reports can surface the bytes-requested / bytes-committed
    /// ratio through `dyn BuddyBackend` without downcasting.
    fn frag_stats(&self) -> Option<FragStatsSnapshot> {
        self.inner()?.frag_stats()
    }

    /// Counters of the caching layer wrapped around this backend, if any.
    ///
    /// Plain backends return `None`; cache front-ends override this so
    /// reports can surface hit rates through `dyn BuddyBackend` without
    /// downcasting.
    fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.inner()?.cache_stats()
    }

    /// Per-size-class magazine capacities of the caching layer wrapped
    /// around this backend, as `(class_size, capacity)` pairs in ascending
    /// class order, or `None` for plain backends.
    ///
    /// The adaptive resize controller (`nbbs-cache`) moves these capacities
    /// at runtime; reports use this hook to show what geometry each class
    /// converged to without downcasting through `dyn BuddyBackend`.
    fn cache_class_capacities(&self) -> Option<Vec<(usize, usize)>> {
        self.inner()?.cache_class_capacities()
    }

    /// Returns any chunks parked in caching layers to the backing allocator.
    ///
    /// A no-op for plain backends.  Cache front-ends override this to flush
    /// every magazine and depot, making the full region available to
    /// *backend*-level requests again — the analogue of the Linux kernel
    /// draining its per-CPU page lists before falling back across zones.
    /// Callers use it at quiescent points (between benchmark epochs, before
    /// capacity assertions or metadata audits).
    fn drain_cache(&self) {
        if let Some(inner) = self.inner() {
            inner.drain_cache();
        }
    }

    /// Point-in-time tree occupancy (per-level fill, maximal free blocks,
    /// external fragmentation), or `None` for backends without a status
    /// tree to walk.
    ///
    /// The tree-based allocators answer via
    /// [`crate::occupancy::occupancy_of`], which reports reach through
    /// `dyn BuddyBackend` to render the occupancy heatmap, and slotted sets
    /// merge one snapshot per slot.  Like every other snapshot the answer
    /// is exact at quiescence and best-effort while operations are in
    /// flight.
    fn occupancy(&self) -> Option<OccupancySnapshot> {
        self.inner()?.occupancy()
    }

    /// Maximal free blocks of at least `min_size` bytes, ascending by
    /// offset, or `None` for backends without a status tree to walk.
    ///
    /// This is the decommit scrubber's fast path: the tree backends answer
    /// via [`crate::occupancy::free_chunks_of`], which prunes subtrees too
    /// small to matter instead of descending to allocation units, so a
    /// page-granular poll costs `O(total / page_size)` rather than a full
    /// occupancy snapshot.  A leaf without that walk derives the answer
    /// from [`BuddyBackend::occupancy`] by filtering.
    fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>> {
        if let Some(inner) = self.inner() {
            return inner.free_chunks(min_size);
        }
        Some(
            self.occupancy()?
                .free_chunks
                .into_iter()
                .filter(|&(_, size)| size >= min_size)
                .collect(),
        )
    }

    /// Claims the *specific* free block `[offset, offset + size)` for
    /// maintenance, bypassing any caching layers.  Returns `true` when the
    /// claim succeeded — the caller now owns the block exactly as if
    /// [`BuddyBackend::alloc`] had returned it and must release it with
    /// [`BuddyBackend::scrub_dealloc`].
    ///
    /// The decommit scrubber drives this with the `free_chunks` of an
    /// [`OccupancySnapshot`]: claim the quiescent block, release its
    /// physical frames, free it back.  A targeted claim (rather than an
    /// anonymous `alloc(size)`) is what gives the scrubber full coverage —
    /// an anonymous grant takes whichever free block follows the calling
    /// thread's scan point, so it could not aim at the snapshot's blocks,
    /// and it would move the point that thread's next grants start from —
    /// and a stale snapshot entry fails harmlessly: the claim is the same
    /// CAS protocol as allocation, so it refuses any block that gained an
    /// occupant since the walk.  Backends without a status tree keep the
    /// leaf answer `false`, which makes scrubbing inert on them.  Because
    /// the default goes to [`BuddyBackend::inner`], a cache or slab layer
    /// is bypassed without writing anything: a chunk it has parked is
    /// allocated in the tree, so the claim CAS refuses it.
    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        self.inner()
            .is_some_and(|inner| inner.scrub_claim(offset, size))
    }

    /// Releases a block claimed by [`BuddyBackend::scrub_claim`], bypassing
    /// any caching layers (a scrubbed block parked in a magazine could
    /// never coalesce or be claimed again).  A leaf releases through
    /// [`BuddyBackend::dealloc`]; a wrapper hands the block to
    /// [`BuddyBackend::inner`], which is what takes it past a cache's
    /// magazines.
    fn scrub_dealloc(&self, offset: usize) {
        match self.inner() {
            Some(inner) => inner.scrub_dealloc(offset),
            None => self.dealloc(offset),
        }
    }

    /// Releases a whole run of blocks claimed by
    /// [`BuddyBackend::scrub_claim`] in one call, or nothing.
    ///
    /// `run` lists `(offset, size)` of the blocks one scrub pass holds, in
    /// ascending order and adjacent, whose pages it has just decommitted.
    /// `Some(bytes)` says every block is free again and `bytes` of the
    /// backend's metadata went back to the kernel on the way; `None` says
    /// nothing was freed, and the caller releases each block with
    /// [`BuddyBackend::scrub_dealloc`].  The trees answer `Some`: while the
    /// run is held no other thread writes or needs the `index[]` entries
    /// under it, so they drop those pages too
    /// ([`crate::tree::BuddyTree::free_scrub_run`]).
    ///
    /// Unlike the other maintenance hooks the default does not ask
    /// [`BuddyBackend::inner`]: it answers `None`, so a wrapper that
    /// translates or intercepts `scrub_dealloc` (a slotted set, a lock, a
    /// fault injector) keeps its per-block route without writing anything.
    /// A wrapper whose scrub release goes straight to its backend forwards
    /// this too (`Arc`, `&`, the magazine cache, the slab, the recorder).
    /// An implementation must not panic once it has freed a block: the
    /// caller's guard frees the whole run again if the call unwinds.
    fn scrub_dealloc_run(&self, run: &[(usize, usize)]) -> Option<usize> {
        let _ = run;
        None
    }

    /// Asks slab-style layers to return empty pages they were keeping
    /// warm to the backing buddy, so the scrubber can decommit them.
    /// Returns how many pages were released; plain backends answer `0`.
    fn trim_empty_pages(&self) -> usize {
        self.inner().map_or(0, |inner| inner.trim_empty_pages())
    }
}

/// Read-only access to the logical status of every tree node.
///
/// Implemented by the tree-based allocators so that [`crate::verify`] can
/// audit the paper's safety properties over a quiescent instance.  For the
/// 4-level variant the returned status is the *derived* one (Figure 6).
pub trait TreeInspect {
    /// Geometry of the underlying tree.
    fn inspect_geometry(&self) -> &Geometry;

    /// Logical 5-bit status of node `n` (1-based index, root = 1).
    fn node_status(&self, n: usize) -> u8;

    /// The node recorded in `index[]` for the allocation unit `unit`, if any
    /// entry was written there since the scrubber last dropped its page.
    /// Entries are not cleared on release, so a `Some` value may be stale;
    /// callers must cross-check with [`TreeInspect::node_status`].
    fn recorded_node_of_unit(&self, unit: usize) -> Option<usize>;
}

/// Implements [`BuddyBackend`] for pointer types by dereferencing.
///
/// `T: ?Sized` covers `Arc<dyn BuddyBackend>`, which cannot be unsized
/// into an [`BuddyBackend::inner`] answer, so the pointers forward every
/// method from this one list instead.
macro_rules! forward_through_deref {
    ($ptr:ty: $(fn $method:ident(&self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?;)*) => {
        impl<T: BuddyBackend + ?Sized> BuddyBackend for $ptr {
            $(
                #[inline]
                fn $method(&self $(, $arg: $ty)*) $(-> $ret)? {
                    (**self).$method($($arg),*)
                }
            )*
        }
    };
    ($($ptr:ty),*) => {
        $(forward_through_deref! { $ptr:
            fn name(&self) -> &'static str;
            fn geometry(&self) -> &Geometry;
            fn alloc(&self, size: usize) -> Option<usize>;
            fn dealloc(&self, offset: usize);
            fn dealloc_sized(&self, offset: usize, granted: usize);
            fn try_alloc(&self, size: usize) -> Result<usize, AllocError>;
            fn try_dealloc(&self, offset: usize) -> Result<(), FreeError>;
            fn inner(&self) -> Option<&dyn BuddyBackend>;
            fn total_memory(&self) -> usize;
            fn min_size(&self) -> usize;
            fn max_size(&self) -> usize;
            fn allocated_bytes(&self) -> usize;
            fn stats(&self) -> OpStatsSnapshot;
            fn granted_size_of_live(&self, offset: usize) -> Option<usize>;
            fn granted_size_for(&self, size: usize) -> Option<usize>;
            fn grant_alignment_for(&self, size: usize) -> Option<usize>;
            fn frag_stats(&self) -> Option<FragStatsSnapshot>;
            fn cache_stats(&self) -> Option<CacheStatsSnapshot>;
            fn cache_class_capacities(&self) -> Option<Vec<(usize, usize)>>;
            fn drain_cache(&self);
            fn occupancy(&self) -> Option<OccupancySnapshot>;
            fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>>;
            fn scrub_claim(&self, offset: usize, size: usize) -> bool;
            fn scrub_dealloc(&self, offset: usize);
            fn scrub_dealloc_run(&self, run: &[(usize, usize)]) -> Option<usize>;
            fn trim_empty_pages(&self) -> usize;
        })*
    };
}

forward_through_deref!(std::sync::Arc<T>, &T);
