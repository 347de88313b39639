//! The 1-level non-blocking buddy system (`1lvl-nb`).
//!
//! This is a faithful implementation of Algorithms 1–4 of the paper: one
//! status byte per tree node, every metadata update performed through a CAS,
//! no locks anywhere.
//!
//! * **Allocation** (`NBALLOC`/`TRYALLOC`): scan the target level for a free
//!   node, CAS its status from `0` to `BUSY`, then climb towards `max_level`
//!   marking the traversed branch as (partially) occupied and clearing its
//!   coalescing bit.  If a fully-occupied ancestor is met the allocation is
//!   rolled back and the scan resumes after the conflicting subtree.
//! * **Release** (`NBFREE`/`FREENODE`/`UNMARK`): three phases — mark the
//!   ancestors' coalescing bits, zero the released node, then climb again
//!   clearing coalescing + occupancy bits.  A concurrent allocation that
//!   reuses the branch clears the coalescing bit first, which makes the
//!   release's third phase stop early and leave the occupancy marks in place.
//!
//! The structure is lock-free: a CAS can only fail because another operation
//! made progress on the same word (see the paper's appendix; the progress
//! argument is exercised by the stress tests in `tests/`).

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

use crate::config::{BuddyConfig, ScanPolicy};
use crate::error::FreeError;
use crate::gauge::ByteGauge;
use crate::geometry::Geometry;
use crate::stats::{OpStats, OpStatsSnapshot};
use crate::status::{
    clean_coal, is_coal, is_coal_buddy, is_free, is_occ_buddy, mark, unmark, BUSY, COAL_LEFT, OCC,
};
use crate::traits::{BuddyBackend, TreeInspect};

/// Per-thread scan cursor shared by both non-blocking variants.
///
/// Concurrent allocations bound to the same level start probing from
/// scattered positions (§III-B): the cursor is seeded from a hash of a
/// monotone thread counter, so threads start far apart.  It is additionally
/// advanced past every successful allocation so that a thread does not
/// rescan the run of chunks it just occupied — without this the level scan
/// degenerates to quadratic cost in batch-allocation patterns such as the
/// Thread Test benchmark.
pub(crate) mod scan_cursor {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static NEXT_SEED: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static CURSOR: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    /// Current cursor value for the calling thread (seeding it on first use).
    pub(crate) fn get() -> usize {
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
    pub(crate) fn advance_past(node: usize) {
        CURSOR.with(|s| s.set(node + 1));
    }
}

/// The 1-level non-blocking buddy allocator.
///
/// See the [crate docs](crate) for a usage example.  All operations are
/// lock-free and may be invoked concurrently from any number of threads.
pub struct NbbsOneLevel {
    geo: Geometry,
    scan_policy: ScanPolicy,
    /// `tree[]`: one 5-bit status word per node; index 0 unused, root at 1.
    tree: Box<[AtomicU8]>,
    /// `index[]`: for each allocation unit, the node that served the chunk
    /// starting there.  Written on allocation, read on release; never cleared
    /// (the paper keeps stale entries, later allocations overwrite them).
    index: Box<[AtomicU32]>,
    /// Bytes currently handed out (granted sizes), for occupancy
    /// accounting: per-thread partial sums, added up by
    /// [`NbbsOneLevel::allocated_bytes`].
    allocated: ByteGauge,
    stats: OpStats,
}

impl NbbsOneLevel {
    /// Creates an allocator for the given configuration.
    ///
    /// Metadata footprint: one byte per node (`2 * total/min` bytes) plus a
    /// `u32` per allocation unit.
    pub fn new(config: BuddyConfig) -> Self {
        let geo = Geometry::new(&config);
        let tree = (0..geo.tree_len()).map(|_| AtomicU8::new(0)).collect();
        let index = (0..geo.unit_count()).map(|_| AtomicU32::new(0)).collect();
        NbbsOneLevel {
            geo,
            scan_policy: config.scan_policy(),
            tree,
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
    /// form of [`NbbsOneLevel::alloc_at_level`] the decommit scrubber uses
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
        let Some(level) = self.geo.target_level(size) else {
            return false;
        };
        if self.geo.size_of_level(level) != size
            || !offset.is_multiple_of(size)
            || offset + size > self.geo.total_memory()
        {
            return false;
        }
        let n = self.geo.node_at(level, offset / size);
        if self.try_alloc_node(n).is_err() {
            return false;
        }
        self.index[self.geo.unit_of_offset(offset)].store(n as u32, Ordering::Release);
        self.allocated.add(size);
        self.stats.record_alloc(1);
        true
    }

    /// Scans nodes of `level` with indices in `[from, to)`, attempting to
    /// reserve the first free one.  Implements lines A11–A22 of Algorithm 1,
    /// including the sub-tree skip after a failed `TRYALLOC`.
    fn scan_range(&self, level: u32, from: usize, to: usize) -> Option<usize> {
        let mut i = from;
        while i < to {
            if is_free(self.tree[i].load(Ordering::Acquire)) {
                match self.try_alloc_node(i) {
                    Ok(()) => {
                        let offset = self.geo.offset_of(i);
                        // Record which node serves this address (line A15).
                        self.index[self.geo.unit_of_offset(offset)]
                            .store(i as u32, Ordering::Release);
                        let granted = self.geo.size_of_level(level);
                        self.allocated.add(granted);
                        self.stats.record_alloc(1);
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

    /// `TRYALLOC` (Algorithm 2): reserve node `n` and propagate the partial
    /// occupancy up to `max_level`.
    ///
    /// On success returns `Ok(())`; on failure returns the index of the node
    /// that caused the conflict (either `n` itself or a fully-occupied
    /// ancestor), after rolling back any marks already applied.
    fn try_alloc_node(&self, n: usize) -> Result<(), usize> {
        // Line T2: the node must transition atomically from completely free
        // (all five bits zero — coalescing bits included) to BUSY.
        self.stats.record_cas(1);
        if self.tree[n]
            .compare_exchange(0, BUSY, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            self.stats.record_cas_failure(1);
            self.stats
                .record_cas_failure_at(self.geo.level_of(n) as usize, 1);
            return Err(n);
        }

        // Lines T5–T18: climb towards max_level marking the traversed branch.
        let max_level = self.geo.max_level();
        let mut current = n;
        while self.geo.level_of(current) > max_level {
            let child = current;
            current >>= 1;
            loop {
                let cur_val = self.tree[current].load(Ordering::Acquire);
                if cur_val & OCC != 0 {
                    // A concurrent allocation owns this whole chunk: abort and
                    // revert the marks applied below it (line T12).
                    self.free_node(n, self.geo.level_of(child));
                    return Err(current);
                }
                let new_val = mark(clean_coal(cur_val, child), child);
                self.stats.record_cas(1);
                if self.tree[current]
                    .compare_exchange(cur_val, new_val, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
                self.stats.record_cas_failure(1);
                self.stats
                    .record_cas_failure_at(self.geo.level_of(current) as usize, 1);
                // The failure may be benign (the sibling branch changed);
                // re-read and retry — only an OCC ancestor aborts.
            }
        }
        Ok(())
    }

    /// Releases the chunk starting at byte `offset` (the paper's `NBFREE`).
    pub fn dealloc(&self, offset: usize) {
        let unit = self.geo.unit_of_offset(offset);
        let n = self.index[unit].load(Ordering::Acquire) as usize;
        debug_assert!(n >= 1, "dealloc of never-allocated offset {offset}");
        let granted = self.geo.size_of(n);
        self.free_node(n, self.geo.max_level());
        self.allocated.sub(granted);
        self.stats.record_free(1);
    }

    /// `FREENODE` (Algorithm 3): three-phase release of node `n`, climbing up
    /// to the node at `upper_level`.
    ///
    /// Called with `upper_level == max_level` by [`NbbsOneLevel::dealloc`],
    /// and with the level of the last successfully marked ancestor when
    /// rolling back a failed `TRYALLOC`.
    fn free_node(&self, n: usize, upper_level: u32) {
        // Phase 1 (lines F2–F18): mark the coalescing bit of the traversed
        // branch on every ancestor from parent(n) up to the upper bound,
        // stopping early if the buddy branch is occupied (the subtree above
        // cannot become free anyway).
        let mut runner = n;
        let mut current = n >> 1;
        while self.geo.level_of(runner) > upper_level {
            let or_val = COAL_LEFT >> ((runner & 1) as u8);
            let old_val;
            loop {
                let cur_val = self.tree[current].load(Ordering::Acquire);
                let new_val = cur_val | or_val;
                self.stats.record_cas(1);
                if self.tree[current]
                    .compare_exchange(cur_val, new_val, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    old_val = cur_val;
                    break;
                }
                self.stats.record_cas_failure(1);
                self.stats
                    .record_cas_failure_at(self.geo.level_of(current) as usize, 1);
            }
            if is_occ_buddy(old_val, runner) && !is_coal_buddy(old_val, runner) {
                break;
            }
            runner = current;
            current >>= 1;
        }

        // Phase 2 (line F19): the released node becomes completely free.
        self.tree[n].store(0, Ordering::Release);

        // Phase 3 (lines F20–F22): propagate the release upwards.
        if self.geo.level_of(n) > upper_level {
            self.unmark(n, upper_level);
        }
    }

    /// `UNMARK` (Algorithm 4): clear the coalescing and occupancy bits of the
    /// branch from `n` up to `upper_level`, stopping if a concurrent
    /// allocation already reused the branch (coalescing bit found cleared) or
    /// the buddy branch is occupied (no further merge possible).
    fn unmark(&self, n: usize, upper_level: u32) {
        let mut current = n;
        loop {
            let child = current;
            current >>= 1;
            let new_val;
            loop {
                let cur_val = self.tree[current].load(Ordering::Acquire);
                if !is_coal(cur_val, child) {
                    // Someone reused (or already cleaned) this branch.
                    return;
                }
                let candidate = unmark(cur_val, child);
                self.stats.record_cas(1);
                if self.tree[current]
                    .compare_exchange(cur_val, candidate, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    new_val = candidate;
                    break;
                }
                self.stats.record_cas_failure(1);
                self.stats
                    .record_cas_failure_at(self.geo.level_of(current) as usize, 1);
            }
            if self.geo.level_of(current) <= upper_level || is_occ_buddy(new_val, child) {
                return;
            }
        }
    }

    /// Bytes currently handed out.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.read()
    }

    /// Raw status byte of node `n` (primarily for tests and verification).
    pub fn node_status(&self, n: usize) -> u8 {
        self.tree[n].load(Ordering::Acquire)
    }

    /// Operation statistics (zeros unless the `op-stats` feature is on).
    pub fn op_stats(&self) -> OpStatsSnapshot {
        self.stats.snapshot()
    }
}

impl BuddyBackend for NbbsOneLevel {
    fn name(&self) -> &'static str {
        "1lvl-nb"
    }

    fn geometry(&self) -> &Geometry {
        &self.geo
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        NbbsOneLevel::alloc(self, size)
    }

    fn dealloc(&self, offset: usize) {
        NbbsOneLevel::dealloc(self, offset)
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        if offset >= self.geo.total_memory() {
            return Err(FreeError::OutOfRange {
                offset,
                total_memory: self.geo.total_memory(),
            });
        }
        if !offset.is_multiple_of(self.geo.min_size()) {
            return Err(FreeError::Misaligned {
                offset,
                min_size: self.geo.min_size(),
            });
        }
        let unit = self.geo.unit_of_offset(offset);
        let n = self.index[unit].load(Ordering::Acquire) as usize;
        if n == 0 || !crate::status::is_occupied(self.tree[n].load(Ordering::Acquire)) {
            return Err(FreeError::NotAllocated { offset });
        }
        NbbsOneLevel::dealloc(self, offset);
        Ok(())
    }

    fn allocated_bytes(&self) -> usize {
        NbbsOneLevel::allocated_bytes(self)
    }

    fn stats(&self) -> OpStatsSnapshot {
        self.stats.snapshot()
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        if offset >= self.geo.total_memory() || !offset.is_multiple_of(self.geo.min_size()) {
            return None;
        }
        let unit = self.geo.unit_of_offset(offset);
        let n = self.index[unit].load(Ordering::Acquire) as usize;
        if n == 0
            || self.geo.offset_of(n) != offset
            || !crate::status::is_occupied(self.tree[n].load(Ordering::Acquire))
        {
            return None;
        }
        Some(self.geo.size_of(n))
    }

    fn occupancy(&self) -> Option<crate::occupancy::OccupancySnapshot> {
        Some(crate::occupancy::occupancy_of(self))
    }

    fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>> {
        Some(crate::occupancy::free_chunks_of(self, min_size))
    }

    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        self.claim_block(offset, size)
    }
}

impl TreeInspect for NbbsOneLevel {
    fn inspect_geometry(&self) -> &Geometry {
        &self.geo
    }

    fn node_status(&self, n: usize) -> u8 {
        NbbsOneLevel::node_status(self, n)
    }

    fn recorded_node_of_unit(&self, unit: usize) -> Option<usize> {
        let v = self.index[unit].load(Ordering::Acquire) as usize;
        if v == 0 {
            None
        } else {
            Some(v)
        }
    }
}

impl std::fmt::Debug for NbbsOneLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NbbsOneLevel")
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
    use crate::status::{OCC_LEFT, OCC_RIGHT};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn buddy(total: usize, min: usize, max: usize) -> NbbsOneLevel {
        NbbsOneLevel::new(BuddyConfig::new(total, min, max).unwrap())
    }

    #[test]
    fn claim_block_targets_specific_free_blocks() {
        let b = buddy(1 << 16, 64, 1 << 12);
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
        assert_eq!(b.allocated_bytes(), 0);
    }

    fn buddy_first_fit(total: usize, min: usize, max: usize) -> NbbsOneLevel {
        NbbsOneLevel::new(
            BuddyConfig::new(total, min, max)
                .unwrap()
                .with_scan_policy(ScanPolicy::FirstFit),
        )
    }

    #[test]
    fn single_allocation_and_release() {
        let b = buddy(1024, 64, 1024);
        let off = b.alloc(64).unwrap();
        assert!(off < 1024);
        assert_eq!(off % 64, 0);
        assert_eq!(b.allocated_bytes(), 64);
        b.dealloc(off);
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn allocation_grants_power_of_two_at_least_requested() {
        let b = buddy(1 << 16, 8, 1 << 14);
        for req in [1usize, 8, 9, 100, 128, 1000, 1024, 5000] {
            let off = b.alloc(req).unwrap();
            let granted = b.geometry().granted_size(req).unwrap();
            assert!(granted >= req);
            assert_eq!(off % granted, 0, "buddy chunks are naturally aligned");
            b.dealloc(off);
        }
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn rejects_oversized_requests() {
        let b = buddy(1 << 16, 8, 1 << 12);
        assert_eq!(b.alloc((1 << 12) + 1), None);
        assert_eq!(b.alloc(1 << 16), None);
        assert!(b.alloc(1 << 12).is_some());
    }

    #[test]
    fn exhausts_and_recovers() {
        let b = buddy_first_fit(1024, 64, 1024);
        let mut offs = Vec::new();
        for _ in 0..16 {
            offs.push(b.alloc(64).unwrap());
        }
        // All 16 units taken; nothing left at any level.
        assert_eq!(b.alloc(64), None);
        assert_eq!(b.alloc(1024), None);
        assert_eq!(b.allocated_bytes(), 1024);
        for off in offs.drain(..) {
            b.dealloc(off);
        }
        assert_eq!(b.allocated_bytes(), 0);
        // Full coalescing happened implicitly: the whole region is available.
        let whole = b.alloc(1024).unwrap();
        assert_eq!(whole, 0);
        b.dealloc(whole);
    }

    #[test]
    fn offsets_never_overlap_while_live() {
        let b = buddy(1 << 14, 8, 1 << 10);
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
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn allocating_parent_blocks_children_and_vice_versa() {
        let b = buddy_first_fit(1024, 64, 1024);
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
    }

    #[test]
    fn occupancy_bits_propagate_to_max_level() {
        let b = buddy_first_fit(1024, 64, 1024);
        let off = b.alloc(64).unwrap();
        assert_eq!(off, 0);
        let leaf = b.geometry().leaf_of_offset(0);
        assert_eq!(b.node_status(leaf), BUSY);
        // Every proper ancestor of the leaf carries a partial-occupancy mark
        // for the branch the leaf lives in; the leaf here is a left-most
        // descendant so every mark is OCC_LEFT.
        let mut node = leaf >> 1;
        while node >= 1 {
            assert_eq!(b.node_status(node) & (OCC_LEFT | OCC_RIGHT), OCC_LEFT);
            if node == 1 {
                break;
            }
            node >>= 1;
        }
        b.dealloc(off);
        // After the release everything is clean again.
        for n in 1..b.geometry().tree_len() {
            assert_eq!(b.node_status(n), 0, "node {n} not clean");
        }
    }

    #[test]
    fn climb_stops_at_max_level() {
        // max_size = 256 over 1024 bytes → max_level = 2.
        let b = buddy_first_fit(1024, 64, 256);
        let off = b.alloc(64).unwrap();
        let leaf = b.geometry().leaf_of_offset(off);
        // Ancestors above max_level (levels 0 and 1) are never touched.
        assert_eq!(b.node_status(1), 0);
        assert_eq!(b.node_status(2), 0);
        // The ancestor at max_level is marked.
        let mut at_max = leaf;
        while b.geometry().level_of(at_max) > 2 {
            at_max >>= 1;
        }
        assert_ne!(b.node_status(at_max) & (OCC_LEFT | OCC_RIGHT), 0);
        b.dealloc(off);
    }

    #[test]
    fn distinct_addresses_for_all_units() {
        let b = buddy(1 << 12, 64, 1 << 12);
        let units = (1 << 12) / 64;
        let mut seen = HashSet::new();
        let mut offs = Vec::new();
        for _ in 0..units {
            let off = b.alloc(64).unwrap();
            assert!(seen.insert(off), "duplicate offset {off}");
            offs.push(off);
        }
        assert_eq!(seen.len(), units);
        assert_eq!(b.alloc(64), None);
        for off in offs {
            b.dealloc(off);
        }
    }

    #[test]
    fn free_then_realloc_reuses_space() {
        let b = buddy_first_fit(4096, 64, 4096);
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

    #[test]
    fn try_dealloc_validates_offsets() {
        let b = buddy(1024, 64, 1024);
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

    #[test]
    fn try_alloc_reports_reason() {
        use crate::error::AllocError;
        let b = buddy(1024, 64, 512);
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

    #[test]
    fn alloc_at_level_matches_order_semantics() {
        let b = buddy_first_fit(1 << 12, 64, 1 << 12);
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

    #[test]
    fn scattered_scan_still_finds_last_free_chunk() {
        let b = buddy(1024, 64, 1024);
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

    #[test]
    fn first_fit_packs_from_the_left() {
        let b = buddy_first_fit(1024, 64, 1024);
        let a = b.alloc(64).unwrap();
        let c = b.alloc(64).unwrap();
        assert_eq!(a, 0);
        assert_eq!(c, 64);
        b.dealloc(a);
        b.dealloc(c);
    }

    #[test]
    fn mixed_size_workload_settles_clean() {
        let b = buddy(1 << 16, 8, 1 << 14);
        let mut live = Vec::new();
        for round in 0..50usize {
            let size = 8usize << (round % 8);
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
        assert_eq!(b.allocated_bytes(), 0);
        for n in 1..b.geometry().tree_len() {
            assert_eq!(b.node_status(n), 0, "node {n} left dirty");
        }
    }

    #[test]
    fn concurrent_allocations_never_overlap() {
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let b = Arc::new(buddy(1 << 16, 8, 1 << 10));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut rng: u64 = 0x1234_5678 ^ (t as u64).wrapping_mul(0x9E37);
                    let mut live: Vec<(usize, usize)> = Vec::new();
                    let mut claimed: Vec<(usize, usize)> = Vec::new();
                    for _ in 0..ITERS {
                        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let size = 8usize << ((rng >> 60) as usize % 8);
                        if rng & 1 == 0 || live.is_empty() {
                            if let Some(off) = b.alloc(size) {
                                let granted = b.geometry().granted_size(size).unwrap();
                                live.push((off, granted));
                                claimed.push((off, granted));
                            }
                        } else {
                            let (off, _) = live.swap_remove((rng >> 32) as usize % live.len());
                            b.dealloc(off);
                        }
                    }
                    for (off, _) in live.drain(..) {
                        b.dealloc(off);
                    }
                    claimed
                })
            })
            .collect();
        let _all: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Quiescent state: tree fully clean, accounting at zero.
        assert_eq!(b.allocated_bytes(), 0);
        for n in 1..b.geometry().tree_len() {
            assert_eq!(b.node_status(n), 0, "node {n} left dirty");
        }
    }

    #[test]
    fn blocks_freed_on_other_threads_leave_the_gauge_at_zero() {
        crate::gauge::tests::remote_frees_sum_to_zero(&buddy(1 << 20, 64, 1 << 12));
    }

    #[test]
    fn concurrent_same_size_contention_settles_clean() {
        const THREADS: usize = 8;
        let b = Arc::new(buddy(1 << 12, 64, 1 << 12));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..3_000 {
                        if let Some(off) = b.alloc(64) {
                            b.dealloc(off);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.allocated_bytes(), 0);
        for n in 1..b.geometry().tree_len() {
            assert_eq!(b.node_status(n), 0);
        }
    }

    #[test]
    fn concurrent_producer_consumer_frees() {
        // One group of threads allocates and hands offsets to another group
        // that frees them (the Larson pattern) — exercises remote frees.
        use std::sync::mpsc;
        const PAIRS: usize = 4;
        const ITERS: usize = 2_000;
        let b = Arc::new(buddy(1 << 14, 8, 1 << 10));
        let mut handles = Vec::new();
        for _ in 0..PAIRS {
            let (tx, rx) = mpsc::channel::<usize>();
            let producer = {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
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
                })
            };
            let consumer = {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        let off = rx.recv().unwrap();
                        b.dealloc(off);
                    }
                })
            };
            handles.push(producer);
            handles.push(consumer);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.allocated_bytes(), 0);
        for n in 1..b.geometry().tree_len() {
            assert_eq!(b.node_status(n), 0);
        }
    }

    #[test]
    fn trait_object_usage() {
        let b: Box<dyn BuddyBackend> = Box::new(buddy(1024, 64, 1024));
        assert_eq!(b.name(), "1lvl-nb");
        assert_eq!(b.total_memory(), 1024);
        assert_eq!(b.min_size(), 64);
        let off = b.alloc(200).unwrap();
        assert_eq!(b.allocated_bytes(), 256);
        b.dealloc(off);
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn granted_size_of_live_tracks_allocations() {
        let b = buddy(1 << 14, 8, 1 << 10);
        assert_eq!(b.granted_size_of_live(0), None);
        let off = b.alloc(100).unwrap();
        assert_eq!(BuddyBackend::granted_size_of_live(&b, off), Some(128));
        // Offsets inside the chunk (not its start) are not live starts.
        assert_eq!(b.granted_size_of_live(off + 8), None);
        // Out-of-range and misaligned offsets are rejected.
        assert_eq!(b.granted_size_of_live(1 << 14), None);
        assert_eq!(b.granted_size_of_live(3), None);
        b.dealloc(off);
        assert_eq!(BuddyBackend::granted_size_of_live(&b, off), None);
    }

    #[test]
    fn debug_output_mentions_sizes() {
        let b = buddy(2048, 64, 1024);
        let s = format!("{b:?}");
        assert!(s.contains("2048"));
        assert!(s.contains("1024"));
    }

    #[cfg(feature = "op-stats")]
    #[test]
    fn op_stats_count_cas_when_enabled() {
        let b = buddy(1024, 64, 1024);
        let off = b.alloc(64).unwrap();
        b.dealloc(off);
        let s = b.op_stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.frees, 1);
        assert!(s.cas_ops > 4, "alloc alone needs depth CAS ops: {s}");
    }
}
