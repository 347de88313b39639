//! [`SlotSet`]: N identically-configured buddy instances behind one widened
//! [`BuddyBackend`].
//!
//! The paper's introduction recalls that large NUMA machines deploy
//! *multiple disjoint instances of the buddy system*, one per node.  Two
//! layers here are such a set — `nbbs-numa`'s `NodeSet` (one slot per node,
//! all built up front) and [`crate::ElasticSet`] (one slot per region, built
//! on demand) — and they differ only in *which slot an allocation tries
//! first* and *when a slot is added or retired*.  The rest lives here, once.
//!
//! Every slot manages the same geometry (total size `T`, a power of two),
//! and a *global* offset packs the slot index into its high bits:
//!
//! ```text
//! global = (slot << log2(T)) | local        slot  = global >> log2(T)
//!                                           local = global & (T - 1)
//! ```
//!
//! so releases route by arithmetic, exactly how a physical frame number
//! identifies its NUMA node.  To keep the global offset space a valid buddy
//! geometry the slot count is rounded up to the next power of two
//! ([`Geometry::widened`]); offsets in the phantom tail are never produced,
//! and `total_memory()` reports the *logical* `capacity × T` span so backing
//! memory and cache byte budgets never cover it.  The widened geometry
//! keeps the per-slot `min_size`/`max_size`, so the set **is** a
//! [`BuddyBackend`] and the cache, the region and the facade stack on top
//! unchanged.  Read-outs merge over whichever slots are built; chunk lists
//! are rebased into the global offset space on the way out.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::error::FreeError;
use crate::geometry::Geometry;
use crate::occupancy::OccupancySnapshot;
use crate::stats::{CacheStatsSnapshot, FragStatsSnapshot, OpStatsSnapshot};
use crate::traits::BuddyBackend;

/// The distance-aware fallback order over `n` slots starting at `start`:
/// the start slot first, then its neighbours by increasing ring distance,
/// alternating sides (`start`, `start+1`, `start-1`, `start+2`, `start-2`,
/// …, wrapping modulo `n`).
///
/// This mirrors how a NUMA zone list prefers close nodes: a plain
/// `start, start+1, …, start+n-1` scan makes the node *just before* the
/// start the **last** candidate even though it is distance 1 away on the
/// ring.  Every slot is yielded exactly once.
pub fn nearest_first_order(start: usize, n: usize) -> impl Iterator<Item = usize> {
    debug_assert!(n > 0, "need at least one node");
    let start = if n == 0 { 0 } else { start % n };
    (0..n).map(move |k| {
        // k = 0 → start; odd k → +((k+1)/2); even k → -(k/2).
        let d = k.div_ceil(2);
        if k % 2 == 1 {
            (start + d) % n
        } else {
            (start + n - (d % n)) % n
        }
    })
}

/// A fixed number of slots, each holding at most one buddy instance, behind
/// one widened [`BuddyBackend`].
///
/// See the [module docs](self) for the offset scheme.  As a backend of its
/// own the set allocates from the first built slot that can serve; owners
/// that care which slot goes first call [`SlotSet::alloc_on`] in their own
/// order and reach everything else through [`BuddyBackend::inner`].
#[derive(Debug)]
pub struct SlotSet<A> {
    /// Slot 0.  It is built by `new` and speaks for the homogeneous set, so
    /// it sits outside the `OnceLock`s: the grant lookups the facade makes
    /// several times per request then contain no atomic load.  It is boxed
    /// because where the instance lands on the heap is measurable: the
    /// layers above allocate their tables and per-thread buffers right
    /// after it, and with slot 0 inline (or inside a `OnceLock`, 8 bytes
    /// larger) the `app-global` benchmark ran 6% slower than with a block
    /// of exactly the instance's size, which is what a one-node `Vec<A>`
    /// was before this type existed.
    first: Box<A>,
    /// Slots `1..capacity`, built on demand.
    rest: Box<[OnceLock<A>]>,
    /// Widened geometry spanning `capacity.next_power_of_two()` slots.
    geometry: Geometry,
    /// `log2(per-slot total)`: the packing shift.
    shift: u32,
    /// `per-slot total - 1`: the local-offset mask.
    mask: usize,
}

impl<A: BuddyBackend> SlotSet<A> {
    /// A set of `capacity` slots with `first` in slot 0 and the rest
    /// unbuilt.  Slot 0 speaks for the homogeneous set wherever one answer
    /// covers all (`granted_size_for`, `grant_alignment_for`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the widened geometry would exceed
    /// the supported tree depth.
    pub fn new(capacity: usize, first: A) -> Self {
        assert!(capacity > 0, "need at least one slot");
        let per_slot = *first.geometry();
        let geometry = per_slot
            .widened(capacity)
            .expect("widened geometry within the supported depth");
        SlotSet {
            first: Box::new(first),
            rest: (1..capacity).map(|_| OnceLock::new()).collect(),
            geometry,
            shift: per_slot.widening_shift(),
            mask: per_slot.total_memory() - 1,
        }
    }

    /// Number of slots (built or not; not the widened power-of-two span).
    pub fn capacity(&self) -> usize {
        self.rest.len() + 1
    }

    /// Bytes managed by each single slot.
    pub fn slot_memory(&self) -> usize {
        self.mask + 1
    }

    /// The instance in slot `i`, or `None` while the slot is unbuilt (or
    /// out of range).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&A> {
        match i.checked_sub(1) {
            None => Some(&*self.first),
            Some(r) => self.rest.get(r)?.get(),
        }
    }

    /// The instance in slot `i`, building it with `build` if the slot is
    /// empty.  Racing builders both get here; only one instance is kept.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the built instance's geometry
    /// differs from slot 0's.
    pub fn get_or_build(&self, i: usize, build: impl FnOnce() -> A) -> &A {
        let Some(r) = i.checked_sub(1) else {
            return &self.first;
        };
        self.rest[r].get_or_init(|| {
            let built = build();
            assert!(
                built.geometry() == self.first.geometry(),
                "all slots must share one geometry"
            );
            built
        })
    }

    /// The built slots, ascending, with their indices.
    pub fn built(&self) -> impl Iterator<Item = (usize, &A)> {
        let rest = self.rest.iter().enumerate();
        std::iter::once((0, &*self.first))
            .chain(rest.filter_map(|(r, slot)| Some((r + 1, slot.get()?))))
    }

    /// Packs `(slot, local offset)` into a global offset.
    #[inline]
    pub fn pack(&self, slot: usize, local: usize) -> usize {
        debug_assert!(slot < self.capacity());
        debug_assert!(local <= self.mask);
        (slot << self.shift) | local
    }

    /// Splits a global offset into `(slot, local offset)` — two shifts, no
    /// search.
    #[inline]
    pub fn split(&self, global: usize) -> (usize, usize) {
        (global >> self.shift, global & self.mask)
    }

    /// Allocates on slot `i` only, returning a global offset; `None` when
    /// the slot is unbuilt or cannot serve.
    #[inline]
    pub fn alloc_on(&self, i: usize, size: usize) -> Option<usize> {
        let local = self.get(i)?.alloc(size)?;
        Some(self.pack(i, local))
    }

    /// The owning instance and local offset of a global offset, or `None`
    /// for an unbuilt slot or the phantom widening tail.
    #[inline]
    fn route(&self, global: usize) -> Option<(&A, usize)> {
        let (slot, local) = self.split(global);
        Some((self.get(slot)?, local))
    }

    /// Reads every built slot and folds the answers that are `Some`.
    fn merged<T>(
        &self,
        read: impl Fn(usize, &A) -> Option<T>,
        fold: impl Fn(&mut T, T),
    ) -> Option<T> {
        self.built()
            .filter_map(|(i, backend)| read(i, backend))
            .reduce(|mut acc, answer| {
                fold(&mut acc, answer);
                acc
            })
    }
}

impl<A: BuddyBackend> BuddyBackend for SlotSet<A> {
    fn name(&self) -> &'static str {
        "slot-set"
    }

    /// The **widened** geometry: `capacity.next_power_of_two()` per-slot
    /// spans, per-slot `min_size`/`max_size`.
    fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        (0..self.capacity()).find_map(|i| self.alloc_on(i, size))
    }

    fn dealloc(&self, offset: usize) {
        let (backend, local) = self.route(offset).expect("free into an unbuilt slot");
        backend.dealloc(local);
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        match self.route(offset) {
            Some((backend, local)) => backend.try_dealloc(local),
            // Unbuilt slots and the phantom widening tail never produced an
            // offset; report the *logical* span, not the widened one.
            None => Err(FreeError::OutOfRange {
                offset,
                total_memory: self.total_memory(),
            }),
        }
    }

    /// The **logical** span, `capacity << shift` — smaller than the widened
    /// `geometry().total_memory()` when the capacity is not a power of two,
    /// and independent of how many slots are built: an unbuilt slot's span
    /// is *reserved, not committed* behind a demand-zero
    /// [`crate::BuddyRegion`].
    fn total_memory(&self) -> usize {
        self.capacity() << self.shift
    }

    fn allocated_bytes(&self) -> usize {
        self.built().map(|(_, b)| b.allocated_bytes()).sum()
    }

    fn stats(&self) -> OpStatsSnapshot {
        let mut acc = OpStatsSnapshot::default();
        for (_, backend) in self.built() {
            acc.merge(&backend.stats());
        }
        acc
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        let (backend, local) = self.route(offset)?;
        backend.granted_size_of_live(local)
    }

    fn granted_size_for(&self, size: usize) -> Option<usize> {
        self.first.granted_size_for(size)
    }

    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        // A packed offset's *global* alignment is also capped by the slot
        // stride.
        let local = self.first.grant_alignment_for(size)?;
        Some(local.min(1 << self.shift))
    }

    fn frag_stats(&self) -> Option<FragStatsSnapshot> {
        self.merged(|_, b| b.frag_stats(), |acc, s| acc.merge(&s))
    }

    fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.merged(|_, b| b.cache_stats(), |acc, s| acc.merge(&s))
    }

    /// Per class size, the *largest* capacity any slot's cache converged
    /// to (the geometry a burst on that slot earned).
    fn cache_class_capacities(&self) -> Option<Vec<(usize, usize)>> {
        let merged = self.merged(
            |_, b| Some(BTreeMap::from_iter(b.cache_class_capacities()?)),
            |acc, caps| {
                for (size, cap) in caps {
                    let entry = acc.entry(size).or_insert(0);
                    *entry = (*entry).max(cap);
                }
            },
        )?;
        Some(merged.into_iter().collect())
    }

    fn drain_cache(&self) {
        for (_, backend) in self.built() {
            backend.drain_cache();
        }
    }

    /// Merged over every *built* slot, whatever its owner currently routes
    /// allocations to, so the decommit scrubber sees (and can release) the
    /// fully free span of a parked one.
    fn occupancy(&self) -> Option<OccupancySnapshot> {
        self.merged(
            |i, b| {
                let mut snapshot = b.occupancy()?;
                snapshot.shift_free_chunks(i << self.shift);
                Some(snapshot)
            },
            |acc, s| acc.merge(&s),
        )
    }

    fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>> {
        self.merged(
            |i, b| {
                let mut chunks = b.free_chunks(min_size)?;
                for (off, _) in &mut chunks {
                    *off = self.pack(i, *off);
                }
                Some(chunks)
            },
            |acc, mut chunks| acc.append(&mut chunks),
        )
    }

    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        self.route(offset)
            .is_some_and(|(backend, local)| backend.scrub_claim(local, size))
    }

    fn scrub_dealloc(&self, offset: usize) {
        let (backend, local) = self
            .route(offset)
            .expect("scrub release into an unbuilt slot");
        backend.scrub_dealloc(local);
    }

    fn trim_empty_pages(&self) -> usize {
        self.built().map(|(_, b)| b.trim_empty_pages()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuddyConfig, NbbsOneLevel};

    #[test]
    fn nearest_first_order_is_a_distance_symmetric_permutation() {
        for n in 1..=9usize {
            for start in 0..n {
                let order: Vec<usize> = nearest_first_order(start, n).collect();
                assert_eq!(order[0], start, "start node first (n={n})");
                let mut seen: Vec<usize> = order.clone();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "permutation (n={n})");
                // Ring distance is non-decreasing along the order.
                let dist = |i: usize| {
                    let d = (i + n - start) % n;
                    d.min(n - d)
                };
                for w in order.windows(2) {
                    assert!(
                        dist(w[1]) >= dist(w[0]),
                        "distance must not decrease: {order:?} (n={n}, start={start})"
                    );
                }
            }
        }
    }

    #[test]
    fn wrapped_neighbour_is_an_early_fallback() {
        // A 0..n scan would make slot n-1 the *last* candidate for a thread
        // homed on 0, although it is distance 1 on the ring.
        let order: Vec<usize> = nearest_first_order(0, 4).collect();
        assert_eq!(order, vec![0, 1, 3, 2]);
    }

    #[test]
    fn unbuilt_slots_serve_nothing_and_built_ones_share_one_offset_space() {
        let tree = || NbbsOneLevel::new(BuddyConfig::new(4096, 64, 4096).unwrap());
        let s = SlotSet::new(3, tree());
        // Widened over 4 slots (3 rounded up); the logical span stays 3.
        assert_eq!(s.geometry().total_memory(), 4 * 4096);
        assert_eq!(s.total_memory(), 3 * 4096);
        assert!(s.get(2).is_none() && s.alloc_on(2, 64).is_none());
        assert!(!s.scrub_claim(s.pack(2, 0), 4096));
        assert!(matches!(
            s.try_dealloc(s.pack(2, 0)),
            Err(FreeError::OutOfRange { total_memory, .. }) if total_memory == 3 * 4096
        ));

        let a = s.alloc(4096).unwrap();
        assert!(s.alloc(64).is_none(), "only slot 0 is built");
        s.get_or_build(2, tree);
        let b = s.alloc(64).unwrap();
        assert_eq!(s.split(b).0, 2, "falls through to the next built slot");
        assert_eq!(s.granted_size_of_live(b), Some(64));
        s.dealloc(a);
        assert!(s.try_dealloc(b).is_ok());
        assert_eq!(s.free_chunks(4096), Some(vec![(0, 4096), (2 * 4096, 4096)]));
    }
}
