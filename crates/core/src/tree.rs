//! The NBALLOC / NBFREE shell both non-blocking variants share.
//!
//! The paper gives one allocation loop and one release entry (Algorithm 1
//! and `NBFREE`) and presents the 4-level variant (§III-D) as a re-encoding
//! of the nodes those two procedures touch, not as a second allocator.
//! [`BuddyTree`] is that shell, written once: the level scan with its
//! sub-tree skip (lines A11–A22), the `index[]` publication (A15) and
//! lookup, the per-thread scan cursor, the allocated-bytes gauge, the
//! operation counters, the checked release, and the single
//! [`BuddyBackend`], [`TreeInspect`] and `Debug` impls.  What a variant
//! actually differs in (how a node's five status bits are stored, and so
//! how `TRYALLOC`, `FREENODE` and `UNMARK` edit them) sits behind
//! [`NodeStore`]:
//!
//! * [`crate::onelvl::ByteStore`]: one byte per node, Algorithms 2–4 as
//!   printed ([`crate::NbbsOneLevel`]);
//! * [`crate::fourlvl::BunchStore`]: four levels per 64-bit word, the bunch
//!   editions of the same three procedures ([`crate::NbbsFourLevel`]).
//!
//! One thing the paper's shell does not have: every scan and claim is a
//! section of a per-tree [`Grace`] table and first checks the range a
//! scrub run is dropping node pages under, so that drop can close the run
//! to them and wait out those already at work there
//! ([`BuddyTree::free_scrub_run`]).  Entering and leaving a section are
//! two plain stores on the thread's own line while the thread holds its
//! entry; a thread done with the trees gives it up
//! ([`Grace::release_mine`]), as the magazine cache's per-thread drain
//! does, so a later thread on its stripe is not left counting in the
//! shared pair.
//!
//! Under `--cfg nbbs_model` `index[]` below, like each store's words, the
//! gauge's stripes, the section counters and the dropping range, is a
//! shadow atomic, so the `nbbs-model` crate enumerates the interleavings
//! of exactly the accesses this file and the stores make.

#[cfg(nbbs_model)]
use nbbs_sync::shadow::{AtomicU64, AtomicU8};
use nbbs_sync::{Grace, ZeroedSlice};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::Ordering;
#[cfg(not(nbbs_model))]
use std::sync::atomic::{AtomicU64, AtomicU8};

use crate::config::{BuddyConfig, ScanPolicy};
use crate::error::FreeError;
use crate::gauge::ByteGauge;
use crate::geometry::Geometry;
use crate::occupancy::{free_chunks_of, occupancy_of, OccupancySnapshot};
use crate::stats::{OpStats, OpStatsSnapshot};
use crate::status::is_occupied;
use crate::traits::{BuddyBackend, TreeInspect};

/// Per-thread scan cursor: one point in the span, whatever the level.
///
/// Concurrent allocations start probing from scattered positions (§III-B):
/// each thread's point is seeded from the high bits of the Fibonacci hash
/// of a monotone thread counter, so consecutive threads start a
/// golden-ratio fraction of the span apart (never less than a quarter).
/// The point is a 64-bit fraction of the span, not a node: a scan at level
/// `L` starts at the first node of `L` whose chunk starts at or after it,
/// and a grant moves it to the end of the granted block.  So a thread's
/// grants follow one another in address space across size classes, and a
/// thread does not rescan the run of chunks it just occupied — without
/// this the level scan degenerates to quadratic cost in batch-allocation
/// patterns such as the Thread Test benchmark.
///
/// Two points that meet would march on together, each thread taking the
/// node after the other's, so a scan that lost a node to another thread
/// (its `TRYALLOC` failed on the very node it had read free) moves its
/// point one seed step past the block's end instead: the threads part
/// again by the golden ratio.  A lone thread never loses a node, so its
/// grants stay together.
mod scan_cursor {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Marks a thread that has not scanned yet.  A seed can equal it only
    /// after 2^64 threads, and no point a grant leaves does (its low 34
    /// bits are those of 0 or of `STEP`).
    const UNSEEDED: u64 = u64::MAX;

    static NEXT_SEED: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static POINT: Cell<u64> = const { Cell::new(UNSEEDED) };
    }

    /// The golden ratio's fraction of the span: the step between two
    /// consecutive threads' seeds.
    pub(super) const STEP: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The point of the `raw`-th thread: the Fibonacci hash of `raw`,
    /// whose high bits step by the golden ratio's fraction of the span.
    #[inline]
    pub(super) fn seed(raw: u64) -> u64 {
        raw.wrapping_mul(STEP)
    }

    /// The calling thread's point (seeding it on first use).
    #[inline]
    pub(super) fn point() -> u64 {
        POINT.with(|p| {
            let mut v = p.get();
            if v == UNSEEDED {
                v = seed(NEXT_SEED.fetch_add(1, Ordering::Relaxed));
                p.set(v);
            }
            v
        })
    }

    /// Sets the calling thread's point.
    #[inline]
    pub(super) fn set(point: u64) {
        POINT.with(|p| p.set(point));
    }

    /// Position of the first node of `level` whose chunk starts at or
    /// after `point`, wrapping to 0 past the level's last node.
    #[inline]
    pub(super) fn start_position(point: u64, level: u32) -> usize {
        // ceil(point · 2^level / 2^64), then mod 2^level.
        let position = ((u128::from(point) << level) + u128::from(u64::MAX)) >> 64;
        position as usize & ((1usize << level) - 1)
    }

    /// The point at the end of the node at `position` of `level` (0 past
    /// the level's last node).
    #[inline]
    pub(super) fn end_of(position: usize, level: u32) -> u64 {
        (((position as u128 + 1) << 64) >> level) as u64
    }

    /// Moves the calling thread's point past the node at `position` of
    /// `level` it was just granted: to the block's end, and one seed step
    /// further if the scan lost a node to another thread on the way.
    #[inline]
    pub(super) fn advance_past(position: usize, level: u32, raced: bool) {
        let end = end_of(position, level);
        set(if raced { end.wrapping_add(STEP) } else { end });
    }
}

pub(crate) mod sealed {
    /// Keeps [`super::NodeStore`] closed to the two encodings of this crate.
    pub trait Sealed {}
}

/// How the status bits of the tree's nodes are stored: the one thing the
/// paper's two variants differ in.
///
/// This trait hides a format, it is not an extension point: it is sealed
/// and has exactly two implementors, [`crate::onelvl::ByteStore`] and
/// [`crate::fourlvl::BunchStore`].  Every method is a step of Algorithms
/// 1–4 whose shared-memory accesses depend on the encoding; everything
/// else lives in [`BuddyTree`].  The [`OpStats`] handed in are the tree's
/// (the stores count their CAS instructions there).
pub trait NodeStore: sealed::Sealed + Send + Sync + Sized {
    /// Report name of the tree over this store (`"1lvl-nb"`, `"4lvl-nb"`).
    const NAME: &'static str;

    /// Type name `Debug` prints for the tree over this store.
    const TYPE_NAME: &'static str;

    /// All-free node storage for a tree of geometry `geo`.
    fn new(geo: Geometry) -> Self;

    /// The level scan's pre-check (line A12): does node `n` read free?
    /// Advisory; [`NodeStore::try_alloc_node`] decides.
    fn is_free(&self, n: usize) -> bool;

    /// `TRYALLOC`: reserve node `n` and propagate the partial occupancy up
    /// to `max_level`.  On failure returns the node that caused the
    /// conflict (`n` itself or a fully-occupied ancestor), after rolling
    /// back any marks already applied.
    fn try_alloc_node(&self, n: usize, stats: &OpStats) -> Result<(), usize>;

    /// `FREENODE` + `UNMARK`: the three-phase release of node `n`, climbing
    /// up to `upper_level` (`max_level` for a release, the level of the
    /// last marked ancestor when rolling back a failed `TRYALLOC`).
    fn free_node(&self, n: usize, upper_level: u32, stats: &OpStats);

    /// Logical 5-bit status of node `n`: stored for the 1-level, derived
    /// per Figure 6 for the 4-level.
    fn node_status(&self, n: usize) -> u8;

    /// Gives back the whole pages of node storage that lie under the arena
    /// bytes `bytes` and below the bunch (4-level) or the level (1-level)
    /// of a block at `level`; returns how many bytes went.
    ///
    /// # Safety
    ///
    /// `bytes` must be covered by blocks the caller holds, none deeper than
    /// `level`, and no `TRYALLOC` may be at work under them
    /// ([`BuddyTree::free_scrub_run`]).
    unsafe fn discard_under(&self, bytes: Range<usize>, level: u32) -> usize;

    /// Store-specific `Debug` fields, printed between the sizes and
    /// `allocated_bytes`.
    fn debug_fields(&self, _out: &mut fmt::DebugStruct<'_, '_>) {}

    /// `(address, label)` of every shadow-atomic cell of the store, for
    /// `nbbs-model`'s witnesses.
    #[cfg(nbbs_model)]
    fn model_addr_labels(&self) -> Vec<(usize, String)>;
}

/// A non-blocking buddy allocator over node storage `S`.
///
/// Use it through the aliases [`crate::NbbsOneLevel`] and
/// [`crate::NbbsFourLevel`]; see the [crate docs](crate) for an example.
/// All operations are lock-free and may be invoked concurrently from any
/// number of threads.
pub struct BuddyTree<S> {
    geo: Geometry,
    scan_policy: ScanPolicy,
    /// `tree[]`, in the variant's encoding.
    store: S,
    /// `index[]`: for each allocation unit, the level of the node that
    /// served the chunk starting there, plus one (0: never written).  The
    /// level and the unit's own offset name the node
    /// ([`Geometry::node_at_offset`]), so one byte per unit says what the
    /// paper's node index says.  Written on allocation, read on release.
    /// A release leaves its entry behind, as the paper does (a later
    /// allocation overwrites it).  Stale entries go only when the decommit
    /// scrubber hands back a run of blocks it holds
    /// ([`BuddyTree::free_scrub_run`]): the whole pages of `index[]` under
    /// the run return to the kernel and read 0 until a grant writes them.
    index: ZeroedSlice<AtomicU8>,
    /// Bytes currently handed out (granted sizes), counted per thread so
    /// the last step of an operation stays on the caller's own line.
    allocated: ByteGauge,
    /// Every scan and claim is a section of it, so a scrub run can wait out
    /// those that began before it closed its range
    /// ([`BuddyTree::free_scrub_run`]).
    grace: Grace,
    /// The units `[start, end)` whose node storage a scrub run is dropping,
    /// packed `start << 32 | end` (0: none).  Scans and claims leave every
    /// node overlapping them alone.  Written only under `grace`'s turn.
    dropping: AtomicU64,
    stats: OpStats,
}

impl<S: NodeStore> BuddyTree<S> {
    /// Creates an allocator for the given configuration.
    ///
    /// Metadata footprint: the store's node words (one byte per node for
    /// the 1-level, one 64-bit word per bunch for the 4-level) plus one byte
    /// per allocation unit.  That much is reserved; it comes from zeroed
    /// memory ([`nbbs_sync::zeroed_slice`]), so on a demand-zero backing it
    /// is resident only on the pages an operation has written.
    pub fn new(config: BuddyConfig) -> Self {
        let geo = Geometry::new(&config);
        let store = S::new(geo);
        let index = nbbs_sync::zeroed_slice::<AtomicU8>(geo.unit_count());
        BuddyTree {
            geo,
            scan_policy: config.scan_policy(),
            store,
            index,
            allocated: ByteGauge::new(),
            grace: Grace::new(),
            dropping: AtomicU64::new(0),
            stats: OpStats::new(),
        }
    }

    /// The allocator's geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// The node storage (for the variants' own accessors).
    #[inline]
    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    /// Allocates at least `size` bytes, returning the chunk's byte offset.
    ///
    /// Equivalent to [`BuddyBackend::alloc`]; provided inherently so callers
    /// do not need the trait in scope.
    pub fn alloc(&self, size: usize) -> Option<usize> {
        let level = self.geo.target_level(size)?;
        self.alloc_at_level(level)
    }

    /// Allocates one chunk of the exact order associated with `level`.
    ///
    /// `level` must lie in `[max_level, depth]`.  This entry point is useful
    /// for workloads expressed in buddy orders (e.g. page-frame allocation)
    /// rather than byte sizes.
    pub fn alloc_at_level(&self, level: u32) -> Option<usize> {
        debug_assert!(level >= self.geo.max_level() && level <= self.geo.depth());
        let _scan = self.grace.enter();
        let first = self.geo.first_node_of_level(level);
        let count = self.geo.nodes_at_level(level);
        let start = match self.scan_policy {
            ScanPolicy::FirstFit => first,
            ScanPolicy::Scattered => {
                first + scan_cursor::start_position(scan_cursor::point(), level)
            }
        };

        // Scan [start, first + count) and then wrap to [first, start).
        if let Some(offset) = self.scan_range(level, start, first + count) {
            return Some(offset);
        }
        if start > first {
            if let Some(offset) = self.scan_range(level, first, start) {
                return Some(offset);
            }
        }
        self.stats.record_failed_alloc(1);
        None
    }

    /// Claims the *specific* block `[offset, offset + size)` — the targeted
    /// form of [`BuddyTree::alloc_at_level`] the decommit scrubber uses
    /// to take ownership of a block the occupancy walk reported free.
    ///
    /// `size` must be the exact chunk size of an allocatable level and
    /// `offset` naturally aligned to it; returns `false` for an invalid
    /// descriptor or when the block gained an occupant since it was
    /// observed (the claim is the ordinary `TRYALLOC` CAS protocol, so a
    /// stale target simply fails).  On success the caller owns the block as
    /// if `alloc(size)` had returned it.  The thread's scan point is
    /// deliberately left where it was: maintenance claims must not perturb
    /// placement.
    pub fn claim_block(&self, offset: usize, size: usize) -> bool {
        let Some(n) = self.node_of_block(offset, size) else {
            return false;
        };
        let _claim = self.grace.enter();
        if self.past_dropping(n, self.geo.level_of(n)).is_some()
            || self.store.try_alloc_node(n, &self.stats).is_err()
        {
            return false;
        }
        self.record_grant(n, offset, size);
        true
    }

    /// The node whose chunk is exactly `[offset, offset + size)`, or `None`
    /// when no allocatable level has such a chunk.
    fn node_of_block(&self, offset: usize, size: usize) -> Option<usize> {
        let level = self.geo.target_level(size)?;
        (self.geo.size_of_level(level) == size
            && offset.is_multiple_of(size)
            && offset + size <= self.geo.total_memory())
        .then(|| self.geo.node_at(level, offset / size))
    }

    /// Frees a run of blocks the decommit scrubber holds and gives back the
    /// metadata pages under the run: those of `index[]`, and those of the
    /// node storage below the bunch (4-level) or the level (1-level) of the
    /// run's deepest block.  Returns how many bytes of metadata went back.
    ///
    /// `run` lists `(offset, size)` of adjacent blocks in ascending order,
    /// each claimed with [`BuddyTree::claim_block`] and held by the caller,
    /// who gives up all of them by this call.  Holding them is what makes
    /// the drops sound, on two different grounds.
    ///
    /// * `index[]`: every unit of the run lies in a held block, and only a
    ///   successful grant writes an entry (none can succeed inside a held
    ///   block) while only the free of a live block needs one.  Nothing
    ///   writes the dropped entries while they go, and nothing needs them.
    /// * Node storage: the claims marked every block `OCC` in storage the
    ///   drop keeps, and no grant, release or `UNMARK` climb starts below a
    ///   held block.  But a scan that reaches a node there lands its
    ///   `TRYALLOC` CAS on it and only then climbs to the held ancestor,
    ///   where it fails and `free_node` rolls its marks back.  A drop under
    ///   such a transient could wipe some of its stores and keep others,
    ///   and its rollback, which stops where its own coalescing mark is
    ///   gone, would leave the rest behind; a transient whose climb arrives
    ///   after the free would even succeed on a node whose mark is gone.
    ///   So the call first closes the run to scans and claims: it
    ///   publishes the run's range, which every `TRYALLOC` of a scan or a
    ///   claim checks first and skips, and waits out every scan and claim
    ///   that began before ([`nbbs_sync::Grace`]).  Then nothing writes
    ///   under the run, every transient that did has rolled back, and the
    ///   storage dropped reads zero, as it did.  `nbbs-model`'s
    ///   `scrub-alloc` configs check this, and find both failures when the
    ///   range or the wait is left out.
    ///
    /// Each node is rebuilt from its `(offset, size)`, never from the
    /// dropped entries.  Pages the run covers only in part stay, so a run
    /// shorter than `page_size * min_size` bytes (128 KiB of 32 B units)
    /// gives back nothing, and an array under 64 KiB is heap-backed and
    /// never does.  Such a run skips the node drop and its wait.  A process
    /// without the asymmetric barrier the wait needs (`membarrier(2)`)
    /// keeps its node pages.  The wait is one system call and, at worst,
    /// the rest of a scan preempted mid-flight; runs take turns at it.
    /// Allocates nothing.  Panics, before it frees anything, if `run` is
    /// not adjacent blocks of this tree.  A block the caller does not hold
    /// is a logic error of the rank of a double free: besides freeing it,
    /// the call may drop the entry and the node marks of a live block
    /// inside it, whose own release then finds no node.
    pub fn free_scrub_run(&self, run: &[(usize, usize)]) -> usize {
        let Some(&(start, _)) = run.first() else {
            return 0;
        };
        let mut end = start;
        let mut deepest = 0;
        for &(offset, size) in run {
            let Some(n) = self.node_of_block(offset, size).filter(|_| offset == end) else {
                panic!("scrub run {run:?} is not adjacent blocks of this tree");
            };
            deepest = deepest.max(self.geo.level_of(n));
            end += size;
        }
        let units = start / self.geo.min_size()..end / self.geo.min_size();
        // SAFETY: `index[]` holds atomics.  Every unit in `units` lies in a
        // block of `run` (adjacent, checked above), and the caller holds
        // every one of those blocks: no grant there can succeed, and only a
        // grant writes an entry, so nothing stores into the range while the
        // pages go.  A racing checked release of a stray offset reads the
        // stale entry or 0, and either way finds no live block there.
        let mut dropped = unsafe { self.index.discard(units.clone()) };
        let fills_a_page = cfg!(nbbs_model) || units.len() >= crate::mapping::page_size();
        if fills_a_page && self.grace.can_wait() {
            let turn = self.grace.turn();
            let packed = (units.start as u64) << 32 | units.end as u64;
            self.dropping.store(packed, Ordering::SeqCst);
            turn.wait_out();
            // SAFETY: the held blocks of `run` cover `[start, end)` and none
            // is deeper than `deepest`.  Every scan and claim that began
            // before the range was published has ended, and every later one
            // skips the range, so nothing stores under the run while the
            // pages go, and what was stored there has been rolled back.
            dropped += unsafe { self.store.discard_under(start..end, deepest) };
            self.dropping.store(0, Ordering::Release);
        }
        for &(offset, size) in run {
            let n = self
                .node_of_block(offset, size)
                .expect("checked before the drop");
            self.free_granted(n);
        }
        dropped
    }

    /// Scans nodes of `level` with indices in `[from, to)`, attempting to
    /// reserve the first free one.  Implements lines A11–A22 of Algorithm 1,
    /// including the sub-tree skip after a failed `TRYALLOC`.
    fn scan_range(&self, level: u32, from: usize, to: usize) -> Option<usize> {
        let mut i = from;
        let mut raced = false;
        while i < to {
            if self.store.is_free(i) {
                if let Some(past) = self.past_dropping(i, level) {
                    self.stats.record_skip(1);
                    i = past;
                    continue;
                }
                match self.store.try_alloc_node(i, &self.stats) {
                    Ok(()) => {
                        let offset = self.geo.offset_of(i);
                        self.record_grant(i, offset, self.geo.size_of_level(level));
                        if self.scan_policy == ScanPolicy::Scattered {
                            scan_cursor::advance_past(i - (1 << level), level, raced);
                        }
                        return Some(offset);
                    }
                    Err(failed_at) => {
                        // Skip the whole subtree rooted at the conflicting
                        // ancestor (lines A18–A19): the next candidate at this
                        // level is the first node outside that subtree.  A
                        // failure at `i` itself, which read free, means
                        // another thread is at work there: it took the node
                        // first, or a release below it is still in flight.
                        self.stats.record_skip(1);
                        raced |= failed_at == i;
                        let d = 1usize << (level - self.geo.level_of(failed_at));
                        i = (failed_at + 1) * d;
                        continue;
                    }
                }
            } else {
                self.stats.record_skip(1);
            }
            i += 1;
        }
        None
    }

    /// If node `n` of `level` overlaps the range a scrub run is dropping
    /// node storage under, the first node of `level` past that range.
    #[inline]
    fn past_dropping(&self, n: usize, level: u32) -> Option<usize> {
        let packed = self.dropping.load(Ordering::Relaxed);
        if packed == 0 {
            return None;
        }
        let unit = self.geo.min_size();
        let start = (packed >> 32) as usize * unit;
        let end = (packed & u64::from(u32::MAX)) as usize * unit;
        let (offset, size) = (self.geo.offset_of(n), self.geo.size_of_level(level));
        (offset < end && offset + size > start)
            .then(|| self.geo.first_node_of_level(level) + end.div_ceil(size))
    }

    /// What follows a successful `TRYALLOC` of node `n`: record which node
    /// serves this address (line A15) by its level, then count the grant.
    #[inline]
    fn record_grant(&self, n: usize, offset: usize, granted: usize) {
        // MAX_DEPTH (30) keeps `level + 1` within a byte.
        let entry = self.geo.level_of(n) as u8 + 1;
        self.index[self.geo.unit_of_offset(offset)].store(entry, Ordering::Release);
        self.allocated.add(granted);
        self.stats.record_alloc(1);
    }

    /// The node the `index[]` entry of the unit starting at `offset` names
    /// (0: never written).
    #[inline]
    fn recorded_node(&self, offset: usize) -> usize {
        let entry = self.index[self.geo.unit_of_offset(offset)].load(Ordering::Acquire);
        self.node_of_entry(entry, offset)
    }

    /// Decodes an `index[]` entry of the unit starting at `offset`.
    #[inline]
    fn node_of_entry(&self, entry: u8, offset: usize) -> usize {
        match entry {
            0 => 0,
            stored => self.geo.node_at_offset(u32::from(stored) - 1, offset),
        }
    }

    /// Releases the chunk starting at byte `offset` (the paper's `NBFREE`).
    pub fn dealloc(&self, offset: usize) {
        let n = self.recorded_node(offset);
        debug_assert!(n >= 1, "dealloc of never-allocated offset {offset}");
        self.free_granted(n);
    }

    /// `FREENODE` + `UNMARK` of the granted node `n`, then the count.
    #[inline]
    fn free_granted(&self, n: usize) {
        let granted = self.geo.size_of(n);
        self.store.free_node(n, self.geo.max_level(), &self.stats);
        self.allocated.sub(granted);
        self.stats.record_free(1);
    }

    /// Bytes currently handed out.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.read()
    }

    /// Logical 5-bit status of node `n` (primarily for tests and
    /// verification): the stored byte for the 1-level, derived per
    /// Figure 6 for the 4-level.
    pub fn node_status(&self, n: usize) -> u8 {
        self.store.node_status(n)
    }

    /// Operation statistics (zeros unless the `op-stats` feature is on).
    pub fn op_stats(&self) -> OpStatsSnapshot {
        self.stats.snapshot()
    }

    /// Labels for every shadow-atomic cell of this instance, as
    /// `(address, label)` pairs — used by the `nbbs-model` crate to print
    /// schedule witnesses in terms of the store's words, `index[]` entries
    /// and the allocated-bytes stripes (`allocated[i]`) instead of raw
    /// addresses.
    ///
    /// Only exists under `--cfg nbbs_model`; the addresses are those the
    /// shadow scheduler observes at yield points.
    #[cfg(nbbs_model)]
    pub fn model_addr_labels(&self) -> Vec<(usize, String)> {
        let mut labels: Vec<_> = self.allocated.model_addr_labels().collect();
        labels.extend(self.grace.model_addr_labels());
        labels.push((self.dropping.model_addr(), "dropping".to_string()));
        labels.extend(self.store.model_addr_labels());
        for (u, cell) in self.index.iter().enumerate() {
            labels.push((cell.model_addr(), format!("index[{u}]")));
        }
        labels
    }
}

impl<S: NodeStore> BuddyBackend for BuddyTree<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn geometry(&self) -> &Geometry {
        &self.geo
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        BuddyTree::alloc(self, size)
    }

    fn dealloc(&self, offset: usize) {
        BuddyTree::dealloc(self, offset)
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        self.geo
            .check_release_offset(offset, self.geo.total_memory())?;
        let n = self.recorded_node(offset);
        if n == 0 || !is_occupied(self.store.node_status(n)) {
            return Err(FreeError::NotAllocated { offset });
        }
        BuddyTree::dealloc(self, offset);
        Ok(())
    }

    fn allocated_bytes(&self) -> usize {
        BuddyTree::allocated_bytes(self)
    }

    fn stats(&self) -> OpStatsSnapshot {
        self.stats.snapshot()
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        self.geo
            .check_release_offset(offset, self.geo.total_memory())
            .ok()?;
        let n = self.recorded_node(offset);
        if n == 0 || self.geo.offset_of(n) != offset || !is_occupied(self.store.node_status(n)) {
            return None;
        }
        Some(self.geo.size_of(n))
    }

    fn occupancy(&self) -> Option<OccupancySnapshot> {
        Some(occupancy_of(self))
    }

    fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>> {
        Some(free_chunks_of(self, min_size))
    }

    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        self.claim_block(offset, size)
    }

    fn scrub_dealloc_run(&self, run: &[(usize, usize)]) -> Option<usize> {
        Some(self.free_scrub_run(run))
    }
}

impl<S: NodeStore> TreeInspect for BuddyTree<S> {
    fn inspect_geometry(&self) -> &Geometry {
        &self.geo
    }

    fn node_status(&self, n: usize) -> u8 {
        self.store.node_status(n)
    }

    fn recorded_node_of_unit(&self, unit: usize) -> Option<usize> {
        let entry = self.index[unit].load(Ordering::Acquire);
        match self.node_of_entry(entry, unit * self.geo.min_size()) {
            0 => None,
            n => Some(n),
        }
    }
}

impl<S: NodeStore> fmt::Debug for BuddyTree<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct(S::TYPE_NAME);
        out.field("total_memory", &self.geo.total_memory())
            .field("min_size", &self.geo.min_size())
            .field("max_size", &self.geo.max_size());
        self.store.debug_fields(&mut out);
        out.field("allocated_bytes", &self.allocated_bytes())
            .finish()
    }
}

/// The shell's tests, each written once and instantiated for both stores
/// by [`suite::instantiate`] from `onelvl::tests` and `fourlvl::tests`;
/// what depends on an encoding is tested next to that encoding.
#[cfg(test)]
pub(crate) mod suite {
    use super::*;
    use crate::error::AllocError;
    use crate::verify::audit_empty;
    use std::collections::HashSet;
    use std::sync::mpsc;

    fn buddy<S: NodeStore>(total: usize, min: usize, max: usize) -> BuddyTree<S> {
        BuddyTree::new(BuddyConfig::new(total, min, max).unwrap())
    }

    pub(crate) fn buddy_first_fit<S: NodeStore>(
        total: usize,
        min: usize,
        max: usize,
    ) -> BuddyTree<S> {
        BuddyTree::new(
            BuddyConfig::new(total, min, max)
                .unwrap()
                .with_scan_policy(ScanPolicy::FirstFit),
        )
    }

    /// Quiescent and empty: nothing handed out, no status bit left anywhere.
    fn assert_clean<S: NodeStore>(b: &BuddyTree<S>) {
        assert_eq!(b.allocated_bytes(), 0);
        audit_empty(b).assert_clean();
    }

    pub(crate) fn claim_block_targets_specific_free_blocks<S: NodeStore>() {
        let b = buddy::<S>(1 << 16, 64, 1 << 12);
        assert!(b.claim_block(1 << 12, 1 << 12), "free block is claimable");
        assert!(
            !b.claim_block(1 << 12, 1 << 12),
            "a claimed block refuses a second claim"
        );
        assert!(!b.claim_block(0, 1 << 13), "size above max_size rejected");
        assert!(!b.claim_block(0, 96), "non-chunk size rejected");
        assert!(!b.claim_block(100, 4096), "misaligned offset rejected");
        assert!(!b.claim_block(1 << 16, 4096), "out of range rejected");
        assert_eq!(b.allocated_bytes(), 1 << 12);
        // A claim is an ordinary allocation: overlapping requests fail and
        // the release path is the ordinary dealloc.
        assert!(!b.claim_block(1 << 12, 64));
        b.dealloc(1 << 12);
        assert_eq!(b.allocated_bytes(), 0);
        assert!(b.claim_block(1 << 12, 64), "freed block claimable again");
        b.dealloc(1 << 12);
        // Claims compose with occupancy: every reported free chunk of an
        // idle tree can be claimed, and a live block never appears there.
        let held = b.alloc(4096).unwrap();
        let snap = BuddyBackend::occupancy(&b).unwrap();
        for &(off, size) in &snap.free_chunks {
            assert!(b.scrub_claim(off, size), "chunk ({off}, {size})");
        }
        assert_eq!(b.allocated_bytes(), 1 << 16, "whole region claimed");
        for &(off, _) in &snap.free_chunks {
            b.dealloc(off);
        }
        b.dealloc(held);
        assert_clean(&b);
    }

    pub(crate) fn single_allocation_and_release<S: NodeStore>() {
        let b = buddy::<S>(1024, 64, 1024);
        let off = b.alloc(64).unwrap();
        assert!(off < 1024);
        assert_eq!(off % 64, 0);
        assert_eq!(b.allocated_bytes(), 64);
        b.dealloc(off);
        assert_clean(&b);
    }

    pub(crate) fn allocation_grants_power_of_two_at_least_requested<S: NodeStore>() {
        let b = buddy::<S>(1 << 16, 8, 1 << 14);
        for req in [1usize, 8, 9, 100, 128, 1000, 1024, 5000] {
            let off = b.alloc(req).unwrap();
            let granted = b.geometry().granted_size(req).unwrap();
            assert!(granted >= req);
            assert_eq!(off % granted, 0, "buddy chunks are naturally aligned");
            b.dealloc(off);
        }
        assert_clean(&b);
    }

    pub(crate) fn rejects_oversized_requests<S: NodeStore>() {
        let b = buddy::<S>(1 << 16, 8, 1 << 12);
        assert_eq!(b.alloc((1 << 12) + 1), None);
        assert_eq!(b.alloc(1 << 16), None);
        assert!(b.alloc(1 << 12).is_some());
    }

    pub(crate) fn exhausts_and_recovers<S: NodeStore>() {
        let b = buddy_first_fit::<S>(1024, 64, 1024);
        let offs: Vec<usize> = (0..16).map(|_| b.alloc(64).unwrap()).collect();
        // All 16 units taken; nothing left at any level.
        assert_eq!(b.alloc(64), None);
        assert_eq!(b.alloc(1024), None);
        assert_eq!(b.allocated_bytes(), 1024);
        for off in offs {
            b.dealloc(off);
        }
        assert_eq!(b.allocated_bytes(), 0);
        // Full coalescing happened implicitly: the whole region is available.
        let whole = b.alloc(1024).unwrap();
        assert_eq!(whole, 0);
        b.dealloc(whole);
        assert_clean(&b);
    }

    pub(crate) fn offsets_never_overlap_while_live<S: NodeStore>() {
        let b = buddy::<S>(1 << 14, 8, 1 << 10);
        let sizes = [8usize, 16, 128, 1024, 8, 256, 64, 32, 512, 8];
        let mut live: Vec<(usize, usize)> = Vec::new();
        for &s in &sizes {
            let off = b.alloc(s).unwrap();
            let granted = b.geometry().granted_size(s).unwrap();
            for &(o, g) in &live {
                let disjoint = off + granted <= o || o + g <= off;
                assert!(
                    disjoint,
                    "overlap: [{off},{}) vs [{o},{})",
                    off + granted,
                    o + g
                );
            }
            live.push((off, granted));
        }
        for (o, _) in live {
            b.dealloc(o);
        }
        assert_clean(&b);
    }

    pub(crate) fn allocating_parent_blocks_children_and_vice_versa<S: NodeStore>() {
        let b = buddy_first_fit::<S>(1024, 64, 1024);
        // Take the whole region: nothing else fits.
        let whole = b.alloc(1024).unwrap();
        assert_eq!(b.alloc(64), None);
        assert_eq!(b.alloc(512), None);
        b.dealloc(whole);

        // Take one leaf: the root and the containing half are blocked, the
        // other half is still available.
        let leaf = b.alloc(64).unwrap();
        assert_eq!(b.alloc(1024), None);
        let half = b.alloc(512).unwrap();
        // The 512-byte chunk must not contain the leaf.
        assert!(leaf < half || leaf >= half + 512);
        b.dealloc(leaf);
        b.dealloc(half);
        assert_clean(&b);
    }

    pub(crate) fn distinct_addresses_for_all_units<S: NodeStore>() {
        let b = buddy::<S>(1 << 12, 64, 1 << 12);
        let units = (1 << 12) / 64;
        let mut seen = HashSet::new();
        for _ in 0..units {
            let off = b.alloc(64).unwrap();
            assert!(seen.insert(off), "duplicate offset {off}");
        }
        assert_eq!(b.alloc(64), None);
        for off in seen {
            b.dealloc(off);
        }
        assert_clean(&b);
    }

    pub(crate) fn free_then_realloc_reuses_space<S: NodeStore>() {
        let b = buddy_first_fit::<S>(4096, 64, 4096);
        let a = b.alloc(1024).unwrap();
        let c = b.alloc(1024).unwrap();
        b.dealloc(a);
        // The freed kilobyte (plus the untouched half) is enough for 2 KiB
        // only after coalescing with its buddy — which is still live, so a
        // 2 KiB request must come from the other half.
        let d = b.alloc(2048).unwrap();
        assert_eq!(d, 2048);
        b.dealloc(c);
        b.dealloc(d);
        // Now the whole region coalesces back.
        let whole = b.alloc(4096).unwrap();
        assert_eq!(whole, 0);
        b.dealloc(whole);
    }

    pub(crate) fn try_dealloc_validates_offsets<S: NodeStore>() {
        let b = buddy::<S>(1024, 64, 1024);
        assert!(matches!(
            b.try_dealloc(4096),
            Err(FreeError::OutOfRange { .. })
        ));
        assert!(matches!(
            b.try_dealloc(3),
            Err(FreeError::Misaligned { .. })
        ));
        assert!(matches!(
            b.try_dealloc(128),
            Err(FreeError::NotAllocated { .. })
        ));
        let off = b.alloc(64).unwrap();
        assert!(b.try_dealloc(off).is_ok());
        assert!(matches!(
            b.try_dealloc(off),
            Err(FreeError::NotAllocated { .. })
        ));
    }

    pub(crate) fn try_alloc_reports_reason<S: NodeStore>() {
        let b = buddy::<S>(1024, 64, 512);
        assert!(matches!(
            b.try_alloc(1024),
            Err(AllocError::TooLarge { .. })
        ));
        let a = b.alloc(512).unwrap();
        let c = b.alloc(512).unwrap();
        assert!(matches!(
            b.try_alloc(512),
            Err(AllocError::OutOfMemory { .. })
        ));
        b.dealloc(a);
        b.dealloc(c);
    }

    pub(crate) fn alloc_at_level_matches_order_semantics<S: NodeStore>() {
        let b = buddy_first_fit::<S>(1 << 12, 64, 1 << 12);
        let g = *b.geometry();
        // Order 0 = leaves, order depth = whole region in buddy terms; here we
        // address levels directly.
        let leaf_off = b.alloc_at_level(g.depth()).unwrap();
        assert_eq!(g.granted_size(64).unwrap(), 64);
        let half_off = b.alloc_at_level(1).unwrap();
        assert_eq!(half_off % (1 << 11), 0);
        b.dealloc(leaf_off);
        b.dealloc(half_off);
    }

    pub(crate) fn scattered_scan_still_finds_last_free_chunk<S: NodeStore>() {
        let b = buddy::<S>(1024, 64, 1024);
        // Fill all but one unit, then make sure a scattered-start scan finds
        // the single remaining hole regardless of where it starts.
        let mut offs: Vec<usize> = (0..16).map(|_| b.alloc(64).unwrap()).collect();
        let hole = offs.pop().unwrap();
        b.dealloc(hole);
        let again = b.alloc(64).unwrap();
        assert_eq!(again, hole);
        b.dealloc(again);
        for off in offs {
            b.dealloc(off);
        }
    }

    /// The shipped tree's geometry: 64 MiB of 32 B units, 64 KiB largest.
    fn shipped<S: NodeStore>() -> BuddyTree<S> {
        buddy::<S>(64 << 20, 32, 64 << 10)
    }

    /// The point at the start of the node at `position` of `level`.
    fn start_of(position: u64, level: u32) -> u64 {
        ((u128::from(position) << 64) >> level) as u64
    }

    /// Position of the first node of `level` at or after `point`, wrapping
    /// to 0: the rule the scan must follow, written by division.
    fn first_at_or_after(point: u64, level: u32) -> usize {
        let position = u128::from(point).div_ceil((1u128 << 64) >> level);
        (position % (1u128 << level)) as usize
    }

    /// Circular distance between two offsets of a span of `total` bytes.
    fn circular_distance(a: usize, b: usize, total: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(total - d)
    }

    pub(crate) fn the_scan_starts_at_the_first_node_at_or_after_the_point<S: NodeStore>() {
        let b = shipped::<S>();
        let g = *b.geometry();
        for level in 0..=g.depth() {
            let last = (1u64 << level) - 1;
            // Not `u64::MAX`: that value marks an unseeded thread, and no
            // block's end is it.
            let mut points = vec![0, 1, 1 << 63, (1 << 63) - 1, u64::MAX - 1];
            points.extend([1, 2, 12_345].map(scan_cursor::seed));
            for position in [1, last / 3, last] {
                let at = start_of(position, level);
                points.extend([at.saturating_sub(1), at, at + 1]);
            }
            for point in points {
                let position = first_at_or_after(point, level);
                assert_eq!(
                    scan_cursor::start_position(point, level),
                    position,
                    "level {level}, point {point:#x}"
                );
                if level < g.max_level() {
                    continue;
                }
                // The tree is empty, so the scan takes the node it starts at
                // and moves the point to that node's end.
                scan_cursor::set(point);
                let offset = b.alloc_at_level(level).unwrap();
                assert_eq!(offset, position * g.size_of_level(level), "level {level}");
                assert_eq!(scan_cursor::point(), start_of(position as u64 + 1, level));
                b.dealloc(offset);
            }
        }
        assert_clean(&b);
    }

    pub(crate) fn advancing_past_a_levels_last_node_wraps_to_position_0<S: NodeStore>() {
        let b = shipped::<S>();
        let g = *b.geometry();
        for level in 0..=g.depth() {
            let last = g.nodes_at_level(level) - 1;
            assert_eq!(scan_cursor::end_of(last, level), 0, "level {level}");
            assert_eq!(scan_cursor::start_position(0, level), 0);
            if level < g.max_level() {
                continue;
            }
            scan_cursor::set(start_of(last as u64, level));
            let tail = b.alloc_at_level(level).unwrap();
            assert_eq!(tail, g.total_memory() - g.size_of_level(level));
            assert_eq!(scan_cursor::point(), 0, "level {level}");
            let head = b.alloc_at_level(level).unwrap();
            assert_eq!(head, 0, "level {level}");
            b.dealloc(tail);
            b.dealloc(head);
        }
        assert_clean(&b);
    }

    pub(crate) fn consecutive_seeds_start_a_quarter_of_the_span_apart<S: NodeStore>() {
        let b = shipped::<S>();
        let g = *b.geometry();
        let total = g.total_memory();
        for level in g.max_level()..=g.depth() {
            let mut starts = (0..32u64).map(|raw| {
                scan_cursor::set(scan_cursor::seed(raw));
                let offset = b.alloc_at_level(level).unwrap();
                b.dealloc(offset);
                offset
            });
            let mut previous = starts.next().unwrap();
            for start in starts {
                let apart = circular_distance(previous, start, total);
                assert!(apart >= total / 4, "level {level}: {previous} and {start}");
                previous = start;
            }
        }
        assert_clean(&b);
    }

    /// A scan that lost a node to another thread moves its point one seed
    /// step past its block's end, so its next grant lands at least a
    /// quarter of the span from where the two threads met.
    pub(crate) fn a_scan_that_lost_a_node_moves_a_seed_step_on<S: NodeStore>() {
        let b = shipped::<S>();
        let g = *b.geometry();
        let total = g.total_memory();
        for level in g.max_level()..=g.depth() {
            let position = g.nodes_at_level(level) / 3;
            let end = scan_cursor::end_of(position, level);
            scan_cursor::advance_past(position, level, false);
            assert_eq!(scan_cursor::point(), end, "level {level}");
            scan_cursor::advance_past(position, level, true);
            assert_eq!(scan_cursor::point(), end.wrapping_add(scan_cursor::STEP));
            let next = b.alloc_at_level(level).unwrap();
            let met = (position + 1) * g.size_of_level(level);
            assert!(
                circular_distance(next, met, total) >= total / 4,
                "level {level}: {next} after meeting at {met}"
            );
            b.dealloc(next);
        }
        assert_clean(&b);
    }

    pub(crate) fn a_coarser_request_starts_after_the_grants_end<S: NodeStore>() {
        let b = shipped::<S>();
        let g = *b.geometry();
        let total = g.total_memory();
        let unit = g.min_size();
        // A unit inside the span and the span's last unit (whose end wraps).
        let last_unit = start_of((total / unit - 1) as u64, g.depth());
        for point in [scan_cursor::seed(7), last_unit] {
            for level in g.max_level()..g.depth() {
                scan_cursor::set(point);
                let fine = b.alloc(unit).unwrap();
                let coarse = b.alloc_at_level(level).unwrap();
                let size = g.size_of_level(level);
                assert_eq!(
                    coarse,
                    (fine + unit).next_multiple_of(size) % total,
                    "level {level}, after the unit at {fine}"
                );
                b.dealloc(fine);
                b.dealloc(coarse);
            }
        }
        assert_clean(&b);
    }

    /// One thread cycling through the size classes keeps its grants close
    /// together: the smallest circular window of the span holding all of
    /// them is at most twice the bytes they were granted.
    pub(crate) fn one_threads_grants_stay_together_across_size_classes<S: NodeStore>() {
        let b = shipped::<S>();
        let total = b.geometry().total_memory();
        let mut grants: Vec<(usize, usize)> = (0..2_000)
            .map(|i| {
                let request = 16usize << (i % 9);
                let granted = b.geometry().granted_size(request).unwrap();
                (b.alloc(request).unwrap(), granted)
            })
            .collect();
        grants.sort_unstable();
        let granted: usize = grants.iter().map(|&(_, size)| size).sum();
        let (first, _) = grants[0];
        let (last, last_size) = grants[grants.len() - 1];
        let widest_gap = grants
            .windows(2)
            .map(|w| w[1].0 - (w[0].0 + w[0].1))
            .chain([first + total - (last + last_size)])
            .max()
            .unwrap();
        let window = total - widest_gap;
        assert!(
            window <= 2 * granted,
            "{granted} B granted across a {window} B window"
        );
        for (offset, _) in grants {
            b.dealloc(offset);
        }
        assert_clean(&b);
    }

    /// One thread churning at about 60 % occupancy finds a free node within
    /// two skips per allocation on average: its scans start where its last
    /// grant ended, whatever the size class.  It holds 4 096 blocks of 4, 8
    /// or 16 KiB on a 64 MiB tree of 4 KiB units (the benchmark's
    /// `tree-direct` geometry and sizes) and replaces a random one of them
    /// 20 000 times.
    #[cfg(feature = "op-stats")]
    pub(crate) fn a_churning_thread_skips_at_most_two_nodes_per_allocation<S: NodeStore>() {
        fn xorshift(state: &mut u64) -> u64 {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        }
        let b = buddy::<S>(64 << 20, 4 << 10, 64 << 10);
        let mut rng = 0x2545_F491_4F6C_DD1D;
        let size = |rng: &mut u64| (4 << 10) << (xorshift(rng) % 3);
        scan_cursor::set(scan_cursor::seed(1));
        let mut live: Vec<usize> = (0..4096)
            .map(|_| b.alloc(size(&mut rng)).unwrap())
            .collect();
        let before = b.op_stats();
        for _ in 0..20_000 {
            let slot = xorshift(&mut rng) as usize % live.len();
            b.dealloc(live[slot]);
            live[slot] = b.alloc(size(&mut rng)).unwrap();
        }
        let after = b.op_stats();
        let allocs = after.allocs - before.allocs;
        let skipped = after.nodes_skipped - before.nodes_skipped;
        let per_alloc = skipped as f64 / allocs as f64;
        assert!(
            per_alloc <= 2.0,
            "{skipped} nodes skipped in {allocs} allocations ({per_alloc:.2} each)"
        );
        for offset in live {
            b.dealloc(offset);
        }
        assert_clean(&b);
    }

    pub(crate) fn first_fit_packs_from_the_left<S: NodeStore>() {
        let b = buddy_first_fit::<S>(1024, 64, 1024);
        let a = b.alloc(64).unwrap();
        let c = b.alloc(64).unwrap();
        assert_eq!(a, 0);
        assert_eq!(c, 64);
        b.dealloc(a);
        b.dealloc(c);
    }

    pub(crate) fn mixed_size_workload_settles_clean<S: NodeStore>() {
        let b = buddy::<S>(1 << 16, 8, 1 << 14);
        let mut live = Vec::new();
        for round in 0..200usize {
            let size = 8usize << (round % 9);
            if let Some(off) = b.alloc(size) {
                live.push(off);
            }
            if round % 3 == 0 {
                if let Some(off) = live.pop() {
                    b.dealloc(off);
                }
            }
        }
        for off in live {
            b.dealloc(off);
        }
        assert_clean(&b);
    }

    pub(crate) fn concurrent_allocations_never_overlap<S: NodeStore>() {
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let b = buddy::<S>(1 << 16, 8, 1 << 10);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let b = &b;
                s.spawn(move || {
                    let mut rng: u64 = 0x1234_5678 ^ (t as u64).wrapping_mul(0x9E37);
                    let mut live: Vec<usize> = Vec::new();
                    for _ in 0..ITERS {
                        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let size = 8usize << ((rng >> 60) as usize % 8);
                        if rng & 1 == 0 || live.is_empty() {
                            live.extend(b.alloc(size));
                        } else {
                            b.dealloc(live.swap_remove((rng >> 32) as usize % live.len()));
                        }
                    }
                    for off in live {
                        b.dealloc(off);
                    }
                });
            }
        });
        // Quiescent state: tree fully clean, accounting at zero.
        assert_clean(&b);
    }

    pub(crate) fn blocks_freed_on_other_threads_leave_the_gauge_at_zero<S: NodeStore>() {
        crate::gauge::tests::remote_frees_sum_to_zero(&buddy::<S>(1 << 20, 64, 1 << 12));
    }

    pub(crate) fn concurrent_same_size_contention_settles_clean<S: NodeStore>() {
        const THREADS: usize = 8;
        let b = buddy::<S>(1 << 12, 64, 1 << 12);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..3_000 {
                        if let Some(off) = b.alloc(64) {
                            b.dealloc(off);
                        }
                    }
                });
            }
        });
        assert_clean(&b);
    }

    pub(crate) fn concurrent_producer_consumer_frees<S: NodeStore>() {
        // One group of threads allocates and hands offsets to another group
        // that frees them (the Larson pattern) — exercises remote frees.
        const PAIRS: usize = 4;
        const ITERS: usize = 2_000;
        let b = buddy::<S>(1 << 14, 8, 1 << 10);
        std::thread::scope(|s| {
            for _ in 0..PAIRS {
                let (tx, rx) = mpsc::channel::<usize>();
                let b = &b;
                s.spawn(move || {
                    for i in 0..ITERS {
                        let size = 8usize << (i % 6);
                        loop {
                            if let Some(off) = b.alloc(size) {
                                tx.send(off).unwrap();
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
                s.spawn(move || {
                    for off in rx {
                        b.dealloc(off);
                    }
                });
            }
        });
        assert_clean(&b);
    }

    pub(crate) fn trait_object_usage<S: NodeStore + 'static>() {
        let b: Box<dyn BuddyBackend> = Box::new(buddy::<S>(1024, 64, 1024));
        assert_eq!(b.name(), S::NAME);
        assert_eq!(b.total_memory(), 1024);
        assert_eq!(b.min_size(), 64);
        let off = b.alloc(200).unwrap();
        assert_eq!(b.allocated_bytes(), 256);
        b.dealloc(off);
        assert_eq!(b.allocated_bytes(), 0);
    }

    pub(crate) fn granted_size_of_live_tracks_allocations<S: NodeStore>() {
        let b = buddy::<S>(1 << 14, 8, 1 << 10);
        assert_eq!(b.granted_size_of_live(0), None);
        let off = b.alloc(100).unwrap();
        assert_eq!(b.granted_size_of_live(off), Some(128));
        // Offsets inside the chunk (not its start) are not live starts.
        assert_eq!(b.granted_size_of_live(off + 8), None);
        // Out-of-range and misaligned offsets are rejected.
        assert_eq!(b.granted_size_of_live(1 << 14), None);
        assert_eq!(b.granted_size_of_live(3), None);
        b.dealloc(off);
        assert_eq!(b.granted_size_of_live(off), None);
    }

    /// `index[]` holds a level, and the unit's offset supplies the rest:
    /// every node of every level, the root's 0-level entry (stored as 1)
    /// included, must come back as itself.
    pub(crate) fn index_names_every_node_of_every_level<S: NodeStore>() {
        let b = buddy::<S>(1024, 64, 1024);
        let g = *b.geometry();
        for level in g.max_level()..=g.depth() {
            let size = g.size_of_level(level);
            for position in 0..g.nodes_at_level(level) {
                let node = g.node_at(level, position);
                let offset = position * size;
                assert!(b.claim_block(offset, size), "node {node}");
                assert_eq!(b.granted_size_of_live(offset), Some(size), "node {node}");
                assert_eq!(
                    b.recorded_node_of_unit(g.unit_of_offset(offset)),
                    Some(node)
                );
                b.dealloc(offset);
                assert_clean(&b);
            }
        }
    }

    /// A scrub run frees every block it holds and drops the whole pages of
    /// a mapped `index[]` under it, nothing around it; a later day's
    /// grants write the dropped entries afresh, and a run that is not
    /// adjacent blocks is refused before anything is freed.
    pub(crate) fn a_scrub_run_frees_its_blocks_and_drops_its_index_pages<S: NodeStore>() {
        // 64 Ki units of 64 B: a mapped `index[]` of 64 KiB, one page of it
        // per four 64 KiB blocks.  The deepest nodes take the same: a byte
        // per leaf after the 64 KiB of levels 0–15 (1-level), or a word per
        // eight leaves in the layer rooted at level 13, stored first
        // (4-level).  The blocks are level 6; the levels between (7–15, or
        // the bunch layer rooted at level 9) hold too little per block to
        // fill a page under nine of them.
        const BLOCK: usize = 64 << 10;
        let b = buddy::<S>(1 << 22, 64, BLOCK);
        let blocks = (1 << 22) / BLOCK;
        for i in 0..blocks {
            assert!(b.claim_block(i * BLOCK, BLOCK));
        }
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.free_scrub_run(&[(0, BLOCK), (2 * BLOCK, BLOCK)])
        }));
        assert!(refused.is_err(), "a gap in the run is refused");
        assert_eq!(b.allocated_bytes(), 1 << 22, "and nothing was freed");

        // Blocks 1..=9: the index page and the leaf page of blocks 4..=7
        // only.
        let run: Vec<_> = (1..10).map(|i| (i * BLOCK, BLOCK)).collect();
        let dropped = b.free_scrub_run(&run);
        let page = crate::mapping::page_size();
        if cfg!(all(target_os = "linux", not(nbbs_model))) && page == 4096 {
            let nodes = if b.grace.can_wait() { page } else { 0 };
            assert_eq!(dropped, page + nodes);
        }
        let units_per_block = BLOCK / 64;
        let entry = |i: usize| b.recorded_node_of_unit(i * units_per_block);
        assert!(entry(3).is_some(), "a partly covered page stays");
        assert_eq!(entry(5).is_none(), dropped > 0);
        assert!(entry(8).is_some());
        assert_eq!(b.allocated_bytes(), (blocks - 9) * BLOCK);
        assert_eq!(b.free_scrub_run(&[]), 0);
        for i in (0..blocks).filter(|i| !(1..10).contains(i)) {
            b.dealloc(i * BLOCK);
        }
        assert_clean(&b);

        // The next day writes the dropped entries again and frees through them.
        let offs: Vec<_> = (0..blocks).map(|_| b.alloc(BLOCK).unwrap()).collect();
        assert_eq!(entry(5), Some(b.geometry().node_at_offset(6, 5 * BLOCK)));
        for off in offs {
            b.dealloc(off);
        }
        assert_clean(&b);
    }

    /// While a scrub run drops node pages, scans step over its range and
    /// claims inside it fail; once it is done both reach it again.
    pub(crate) fn scans_and_claims_skip_the_range_a_run_is_dropping<S: NodeStore>() {
        let b = buddy_first_fit::<S>(1 << 16, 64, 1 << 12);
        let units = (4096 / 64) as u64..(3 * 4096 / 64) as u64;
        b.dropping
            .store(units.start << 32 | units.end, Ordering::SeqCst);
        assert_eq!(b.alloc(64), Some(0), "before the range");
        assert_eq!(b.alloc(4096), Some(3 * 4096), "a 4 KiB block past it");
        assert_eq!(b.alloc(64), Some(64));
        assert!(!b.claim_block(4096, 64), "inside the range");
        assert!(!b.claim_block(0, 1 << 12), "overlapping it");
        b.dropping.store(0, Ordering::SeqCst);
        assert!(b.claim_block(4096, 64));
        for offset in [0, 64, 3 * 4096, 4096] {
            b.dealloc(offset);
        }
        assert_clean(&b);
    }

    pub(crate) fn debug_output_mentions_sizes<S: NodeStore>() {
        let s = format!("{:?}", buddy::<S>(2048, 64, 1024));
        assert!(s.starts_with(S::TYPE_NAME), "{s}");
        assert!(s.contains("2048"));
        assert!(s.contains("1024"));
    }

    /// Declares one `#[test]` per function of this module, over `$store`.
    macro_rules! instantiate {
        ($store:ty) => {
            $crate::tree::suite::instantiate!($store:
                claim_block_targets_specific_free_blocks,
                single_allocation_and_release,
                allocation_grants_power_of_two_at_least_requested,
                rejects_oversized_requests,
                exhausts_and_recovers,
                offsets_never_overlap_while_live,
                allocating_parent_blocks_children_and_vice_versa,
                distinct_addresses_for_all_units,
                free_then_realloc_reuses_space,
                try_dealloc_validates_offsets,
                try_alloc_reports_reason,
                alloc_at_level_matches_order_semantics,
                scattered_scan_still_finds_last_free_chunk,
                the_scan_starts_at_the_first_node_at_or_after_the_point,
                advancing_past_a_levels_last_node_wraps_to_position_0,
                consecutive_seeds_start_a_quarter_of_the_span_apart,
                a_scan_that_lost_a_node_moves_a_seed_step_on,
                a_coarser_request_starts_after_the_grants_end,
                one_threads_grants_stay_together_across_size_classes,
                first_fit_packs_from_the_left,
                mixed_size_workload_settles_clean,
                concurrent_allocations_never_overlap,
                blocks_freed_on_other_threads_leave_the_gauge_at_zero,
                concurrent_same_size_contention_settles_clean,
                concurrent_producer_consumer_frees,
                trait_object_usage,
                granted_size_of_live_tracks_allocations,
                index_names_every_node_of_every_level,
                a_scrub_run_frees_its_blocks_and_drops_its_index_pages,
                scans_and_claims_skip_the_range_a_run_is_dropping,
                debug_output_mentions_sizes
            );
            #[cfg(feature = "op-stats")]
            $crate::tree::suite::instantiate!($store:
                a_churning_thread_skips_at_most_two_nodes_per_allocation
            );
        };
        ($store:ty: $($name:ident),*) => {
            $(
                #[test]
                fn $name() {
                    $crate::tree::suite::$name::<$store>()
                }
            )*
        };
    }
    pub(crate) use instantiate;
}
