//! The 1-level non-blocking buddy system (`1lvl-nb`).
//!
//! This is the node storage of the paper's baseline design: one status byte
//! per tree node, every metadata update performed through a CAS, no locks
//! anywhere.  [`NbbsOneLevel`] is the shared shell ([`BuddyTree`]:
//! Algorithm 1 / `NBALLOC`, `NBFREE`, `index[]`) over [`ByteStore`], which
//! holds `tree[]` and Algorithms 2–4 as printed:
//!
//! * **`TRYALLOC`** (Algorithm 2, `try_alloc_node`): CAS the node's status
//!   from `0` to `BUSY`, then climb towards `max_level` marking the
//!   traversed branch as (partially) occupied and clearing its coalescing
//!   bit.  If a fully-occupied ancestor is met the allocation is rolled
//!   back and the shell's scan resumes after the conflicting subtree.
//! * **`FREENODE`** / **`UNMARK`** (Algorithms 3 and 4, `free_node` and
//!   `unmark`): three phases — mark the ancestors' coalescing bits, zero
//!   the released node, then climb again clearing coalescing + occupancy
//!   bits.  A concurrent allocation that reuses the branch clears the
//!   coalescing bit first, which makes the release's third phase stop early
//!   and leave the occupancy marks in place.
//!
//! The structure is lock-free: a CAS can only fail because another operation
//! made progress on the same word (see the paper's appendix; the progress
//! argument is exercised by the stress tests in `tests/`).
//!
//! Under `--cfg nbbs_model` `tree[]` is made of shadow atomics, so the
//! `nbbs-model` crate explores release/release and release/allocate on
//! this store as it does on the 4-level one.

#[cfg(nbbs_model)]
use nbbs_sync::shadow::AtomicU8;
use nbbs_sync::ZeroedSlice;
use std::ops::Range;
#[cfg(not(nbbs_model))]
use std::sync::atomic::AtomicU8;
use std::sync::atomic::Ordering;

use crate::geometry::Geometry;
use crate::stats::OpStats;
use crate::status::{
    clean_coal, is_coal, is_coal_buddy, is_free, is_occ_buddy, mark, unmark, BUSY, COAL_LEFT, OCC,
};
use crate::tree::{sealed::Sealed, BuddyTree, NodeStore};

/// The 1-level non-blocking buddy allocator: the shared shell over one
/// status byte per node.
pub type NbbsOneLevel = BuddyTree<ByteStore>;

/// `tree[]` as the paper prints it: one 5-bit status word per node, a byte
/// each; index 0 unused, root at 1.
pub struct ByteStore {
    geo: Geometry,
    tree: ZeroedSlice<AtomicU8>,
}

impl ByteStore {
    /// One CAS loop over node `n`: load its status, let `edit` name the
    /// successor (or give up with `None`), CAS, and on a failed CAS start
    /// over from the load.  Returns the status the landed CAS replaced.
    ///
    /// A failure may be benign (the sibling branch changed), which is why
    /// every caller re-evaluates instead of aborting.
    #[inline]
    fn update(&self, n: usize, stats: &OpStats, edit: impl Fn(u8) -> Option<u8>) -> Option<u8> {
        loop {
            let cur_val = self.tree[n].load(Ordering::Acquire);
            let new_val = edit(cur_val)?;
            stats.record_cas(1);
            if self.tree[n]
                .compare_exchange(cur_val, new_val, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(cur_val);
            }
            stats.record_cas_failure(1);
            stats.record_cas_failure_at(self.geo.level_of(n) as usize, 1);
        }
    }

    /// `UNMARK` (Algorithm 4): clear the coalescing and occupancy bits of the
    /// branch from `n` up to `upper_level`, stopping if a concurrent
    /// allocation already reused the branch (coalescing bit found cleared) or
    /// the buddy branch is occupied (no further merge possible).
    fn unmark(&self, n: usize, upper_level: u32, stats: &OpStats) {
        let mut current = n;
        loop {
            let child = current;
            current >>= 1;
            // `None`: someone reused (or already cleaned) this branch.
            let Some(old_val) = self.update(current, stats, |val| {
                is_coal(val, child).then(|| unmark(val, child))
            }) else {
                return;
            };
            if self.geo.level_of(current) <= upper_level
                || is_occ_buddy(unmark(old_val, child), child)
            {
                return;
            }
        }
    }
}

impl Sealed for ByteStore {}

impl NodeStore for ByteStore {
    const NAME: &'static str = "1lvl-nb";
    const TYPE_NAME: &'static str = "NbbsOneLevel";

    fn new(geo: Geometry) -> Self {
        let tree = nbbs_sync::zeroed_slice::<AtomicU8>(geo.tree_len());
        ByteStore { geo, tree }
    }

    #[inline]
    fn is_free(&self, n: usize) -> bool {
        is_free(self.tree[n].load(Ordering::Acquire))
    }

    /// `TRYALLOC` (Algorithm 2).
    #[inline]
    fn try_alloc_node(&self, n: usize, stats: &OpStats) -> Result<(), usize> {
        // Line T2: the node must transition atomically from completely free
        // (all five bits zero — coalescing bits included) to BUSY.
        stats.record_cas(1);
        if self.tree[n]
            .compare_exchange(0, BUSY, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            stats.record_cas_failure(1);
            stats.record_cas_failure_at(self.geo.level_of(n) as usize, 1);
            return Err(n);
        }

        // Lines T5–T18: climb towards max_level marking the traversed branch.
        let max_level = self.geo.max_level();
        let mut current = n;
        while self.geo.level_of(current) > max_level {
            let child = current;
            current >>= 1;
            let marked = self.update(current, stats, |val| {
                (val & OCC == 0).then(|| mark(clean_coal(val, child), child))
            });
            if marked.is_none() {
                // A concurrent allocation owns this whole chunk: abort and
                // revert the marks applied below it (line T12).
                self.free_node(n, self.geo.level_of(child), stats);
                return Err(current);
            }
        }
        Ok(())
    }

    /// `FREENODE` (Algorithm 3).
    #[inline]
    fn free_node(&self, n: usize, upper_level: u32, stats: &OpStats) {
        // Phase 1 (lines F2–F18): mark the coalescing bit of the traversed
        // branch on every ancestor from parent(n) up to the upper bound,
        // stopping early if the buddy branch is occupied (the subtree above
        // cannot become free anyway).
        let mut runner = n;
        let mut current = n >> 1;
        while self.geo.level_of(runner) > upper_level {
            let or_val = COAL_LEFT >> ((runner & 1) as u8);
            let old_val = self
                .update(current, stats, |val| Some(val | or_val))
                .expect("the coalescing mark never gives up");
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
            self.unmark(n, upper_level, stats);
        }
    }

    /// The stored byte.
    #[inline]
    fn node_status(&self, n: usize) -> u8 {
        self.tree[n].load(Ordering::Acquire)
    }

    /// Drops the status bytes of every level below `level` under `bytes`:
    /// one contiguous node range per level, whole pages only.
    unsafe fn discard_under(&self, bytes: Range<usize>, level: u32) -> usize {
        let geo = &self.geo;
        (level + 1..=geo.depth())
            .map(|l| {
                let first = geo.node_at_offset(l, bytes.start);
                let count = bytes.len() / geo.size_of_level(l);
                // SAFETY: status bytes are atomics, and the caller's
                // contract (`NodeStore::discard_under`) keeps every store
                // away from them while they go.
                unsafe { self.tree.discard(first..first + count) }
            })
            .sum()
    }

    #[cfg(nbbs_model)]
    fn model_addr_labels(&self) -> Vec<(usize, String)> {
        let cells = self.tree.iter().enumerate().skip(1);
        cells
            .map(|(n, cell)| (cell.model_addr(), format!("tree[{n}]")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::{OCC_LEFT, OCC_RIGHT};

    crate::tree::suite::instantiate!(ByteStore);

    fn buddy_first_fit(total: usize, min: usize, max: usize) -> NbbsOneLevel {
        crate::tree::suite::buddy_first_fit(total, min, max)
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

    #[cfg(feature = "op-stats")]
    #[test]
    fn op_stats_count_cas_when_enabled() {
        let b = buddy_first_fit(1024, 64, 1024);
        let off = b.alloc(64).unwrap();
        b.dealloc(off);
        let s = b.op_stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.frees, 1);
        assert!(s.cas_ops > 4, "alloc alone needs depth CAS ops: {s}");
    }
}
