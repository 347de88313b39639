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
//! Under `--cfg nbbs_model` `index[]` below, like each store's words and the
//! gauge's stripes, is a shadow atomic, so the `nbbs-model` crate enumerates
//! the interleavings of exactly the accesses this file and the stores make.

#[cfg(nbbs_model)]
use nbbs_sync::shadow::AtomicU8;
use nbbs_sync::ZeroedSlice;
use std::fmt;
#[cfg(not(nbbs_model))]
use std::sync::atomic::AtomicU8;
use std::sync::atomic::Ordering;

use crate::config::{BuddyConfig, ScanPolicy};
use crate::error::FreeError;
use crate::gauge::ByteGauge;
use crate::geometry::Geometry;
use crate::occupancy::{free_chunks_of, occupancy_of, OccupancySnapshot};
use crate::stats::{OpStats, OpStatsSnapshot};
use crate::status::is_occupied;
use crate::traits::{BuddyBackend, TreeInspect};

/// Per-thread scan cursor.
///
/// Concurrent allocations bound to the same level start probing from
/// scattered positions (§III-B): the cursor is seeded from a hash of a
/// monotone thread counter, so threads start far apart.  It is additionally
/// advanced past every successful allocation so that a thread does not
/// rescan the run of chunks it just occupied — without this the level scan
/// degenerates to quadratic cost in batch-allocation patterns such as the
/// Thread Test benchmark.
mod scan_cursor {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static NEXT_SEED: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static CURSOR: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    /// Current cursor value for the calling thread (seeding it on first use).
    #[inline]
    pub(super) fn get() -> usize {
        CURSOR.with(|s| {
            let mut v = s.get();
            if v == usize::MAX {
                // Fibonacci hashing of a monotone thread counter spreads
                // starting points uniformly over any level width.
                let raw = NEXT_SEED.fetch_add(1, Ordering::Relaxed);
                v = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                s.set(v);
            }
            v
        })
    }

    /// Moves the calling thread's cursor just past the node it last reserved.
    #[inline]
    pub(super) fn advance_past(node: usize) {
        CURSOR.with(|s| s.set(node + 1));
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
        let first = self.geo.first_node_of_level(level);
        let count = self.geo.nodes_at_level(level);
        let start = match self.scan_policy {
            ScanPolicy::FirstFit => first,
            ScanPolicy::Scattered => first + (scan_cursor::get() % count),
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
    /// if `alloc(size)` had returned it.  The scan cursor is deliberately
    /// not advanced: maintenance claims must not perturb placement.
    pub fn claim_block(&self, offset: usize, size: usize) -> bool {
        let Some(n) = self.node_of_block(offset, size) else {
            return false;
        };
        if self.store.try_alloc_node(n, &self.stats).is_err() {
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

    /// Frees a run of blocks the decommit scrubber holds and gives the
    /// `index[]` pages under the run back to the kernel; returns how many
    /// bytes of `index[]` went back.
    ///
    /// `run` lists `(offset, size)` of adjacent blocks in ascending order,
    /// each claimed with [`BuddyTree::claim_block`] and held by the caller,
    /// who gives up all of them by this call.  Holding them is what makes
    /// the drop sound: every unit of the run lies in a held block, and only
    /// a successful grant writes an entry (none can succeed inside a held
    /// block) while only the free of a live block needs one.  Each node is
    /// rebuilt from its `(offset, size)`, never from the dropped entries.
    /// Pages the run covers only in part stay, so a run shorter than
    /// `page_size * min_size` bytes (128 KiB of 32 B units) gives back
    /// nothing, and a heap-backed `index[]` (under 64 KiB) never does.
    /// Allocates nothing.  Panics, before it frees anything, if `run` is
    /// not adjacent blocks of this tree.  A block the caller does not hold
    /// is a logic error of the rank of a double free: besides freeing it,
    /// the call may drop the entry of a live block inside it, whose own
    /// release then finds no node.
    pub fn free_scrub_run(&self, run: &[(usize, usize)]) -> usize {
        let Some(&(start, _)) = run.first() else {
            return 0;
        };
        let mut end = start;
        for &(offset, size) in run {
            assert!(
                offset == end && self.node_of_block(offset, size).is_some(),
                "scrub run {run:?} is not adjacent blocks of this tree"
            );
            end += size;
        }
        let units = start / self.geo.min_size()..end / self.geo.min_size();
        // SAFETY: `index[]` holds atomics.  Every unit in `units` lies in a
        // block of `run` (adjacent, checked above), and the caller holds
        // every one of those blocks: no grant there can succeed, and only a
        // grant writes an entry, so nothing stores into the range while the
        // pages go.  A racing checked release of a stray offset reads the
        // stale entry or 0, and either way finds no live block there.
        let dropped = unsafe { self.index.discard(units) };
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
        while i < to {
            if self.store.is_free(i) {
                match self.store.try_alloc_node(i, &self.stats) {
                    Ok(()) => {
                        let offset = self.geo.offset_of(i);
                        self.record_grant(i, offset, self.geo.size_of_level(level));
                        if self.scan_policy == ScanPolicy::Scattered {
                            scan_cursor::advance_past(i);
                        }
                        return Some(offset);
                    }
                    Err(failed_at) => {
                        // Skip the whole subtree rooted at the conflicting
                        // ancestor (lines A18–A19): the next candidate at this
                        // level is the first node outside that subtree.
                        self.stats.record_skip(1);
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
        // per four 64 KiB blocks.
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

        // Blocks 1..=9: the index pages of blocks 4..=7 only.
        let run: Vec<_> = (1..10).map(|i| (i * BLOCK, BLOCK)).collect();
        let dropped = b.free_scrub_run(&run);
        let page = crate::mapping::page_size();
        if cfg!(all(target_os = "linux", not(nbbs_model))) && page == 4096 {
            assert_eq!(dropped, page);
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
                debug_output_mentions_sizes
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
