//! [`ElasticSet`]: a chain of buddy instances that grows under OOM
//! pressure and retires drained instances at trough.
//!
//! A [`SlotSet`] packs N buddy instances behind one widened
//! [`BuddyBackend`] by encoding the slot index in the high offset bits.
//! This module decides *when a slot is added or retired*: the set reserves
//! the widened offset space up front (cheap — the backing
//! [`crate::BuddyRegion`] is a demand-zero mapping, so slots that were
//! never built cost no physical memory), builds only the first region
//! eagerly, and
//!
//! * **grows** — builds or reactivates the next region — when allocation
//!   has failed across every active region for a few consecutive requests
//!   (sustained pressure, not a single unlucky race), then retries;
//! * **retires** a drained region at trough: an active region other than
//!   the first whose byte counter reads zero is claimed whole through the
//!   ordinary allocation protocol (the claims are a liveness barrier — any
//!   concurrent allocation makes the claim fail and the retirement abort),
//!   flipped to dormant, and the claims freed back.  A dormant region
//!   serves no further allocations, so its whole span stays free and the
//!   decommit scrubber returns its pages to the kernel on the next pass.
//!
//! Retirement is reversible: renewed pressure reactivates dormant regions
//! (their backing recommits lazily on first touch) before building new
//! ones.  Routing, merged read-outs and the scrubber hooks are the
//! [`SlotSet`]'s, reached through [`BuddyBackend::inner`].

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use crate::error::FreeError;
use crate::slotset::SlotSet;
use crate::traits::BuddyBackend;
use crate::Geometry;

/// Slot states: never built / serving allocations / drained and parked.
const EMPTY: u8 = 0;
const ACTIVE: u8 = 1;
const DORMANT: u8 = 2;

/// Point-in-time growth/retirement telemetry of an [`ElasticSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElasticStatsSnapshot {
    /// Regions currently serving allocations.
    pub active_regions: usize,
    /// Regions built so far (active + dormant).
    pub built_regions: usize,
    /// Maximum regions the reserved offset space can hold.
    pub max_regions: usize,
    /// New regions built under pressure (cumulative).
    pub grows: u64,
    /// Regions retired to dormant at trough (cumulative).
    pub retires: u64,
    /// Dormant regions reactivated under pressure (cumulative).
    pub reactivations: u64,
}

/// A chain of identically-configured buddy instances behind one widened
/// [`BuddyBackend`], growing under sustained OOM pressure and retiring
/// drained regions at trough.
///
/// See the [module docs](self) for the life cycle.
///
/// ```
/// use nbbs::{BuddyBackend, BuddyConfig, ElasticSet, NbbsFourLevel};
///
/// let config = BuddyConfig::new(1 << 16, 64, 1 << 12).unwrap();
/// let set = ElasticSet::new(4, move |_slot| NbbsFourLevel::new(config))
///     .with_grow_threshold(1); // grow on the first miss (default: 2)
/// assert_eq!(set.elastic_stats().built_regions, 1);
///
/// // Fill region 0 and keep asking: the set maps region 1 and serves on.
/// let mut held = Vec::new();
/// while let Some(off) = set.alloc(1 << 12) {
///     held.push(off);
/// }
/// assert!(held.len() >= 32, "grew past the first region");
/// for off in held {
///     set.dealloc(off);
/// }
/// set.retire_idle();
/// assert_eq!(set.elastic_stats().active_regions, 1);
/// ```
pub struct ElasticSet<A: BuddyBackend> {
    regions: SlotSet<A>,
    /// One EMPTY/ACTIVE/DORMANT word per slot of `regions`.
    states: Box<[AtomicU8]>,
    builder: Box<dyn Fn(usize) -> A + Send + Sync>,
    /// Consecutive allocations that failed on every active region.
    oom_streak: AtomicUsize,
    /// Failures the streak must reach before the set grows.
    grow_threshold: usize,
    grows: AtomicU64,
    retires: AtomicU64,
    reactivations: AtomicU64,
}

impl<A: BuddyBackend> ElasticSet<A> {
    /// Default consecutive-failure count before the set grows.
    pub const DEFAULT_GROW_THRESHOLD: usize = 2;

    /// Builds a set that can hold up to `max_regions` instances produced by
    /// `builder` (called with the slot index).  Slot 0 is built eagerly and
    /// never retired; the rest are built on demand under pressure.
    ///
    /// # Panics
    ///
    /// Panics if `max_regions` is zero or the widened geometry would exceed
    /// the supported tree depth.
    pub fn new(max_regions: usize, builder: impl Fn(usize) -> A + Send + Sync + 'static) -> Self {
        assert!(max_regions > 0, "need at least one region");
        let states: Box<[AtomicU8]> = (0..max_regions).map(|_| AtomicU8::new(EMPTY)).collect();
        states[0].store(ACTIVE, Ordering::Release);
        ElasticSet {
            regions: SlotSet::new(max_regions, builder(0)),
            states,
            builder: Box::new(builder),
            oom_streak: AtomicUsize::new(0),
            grow_threshold: Self::DEFAULT_GROW_THRESHOLD,
            grows: AtomicU64::new(0),
            retires: AtomicU64::new(0),
            reactivations: AtomicU64::new(0),
        }
    }

    /// Overrides how many consecutive all-region allocation failures it
    /// takes before the set grows (clamped to at least 1).  The default
    /// [`ElasticSet::DEFAULT_GROW_THRESHOLD`] absorbs a single unlucky
    /// race without mapping a new region.
    #[must_use]
    pub fn with_grow_threshold(mut self, threshold: usize) -> Self {
        self.grow_threshold = threshold.max(1);
        self
    }

    /// Bytes managed by each single region.
    pub fn region_memory(&self) -> usize {
        self.regions.slot_memory()
    }

    /// Maximum regions the reserved offset space can hold.
    pub fn max_regions(&self) -> usize {
        self.regions.capacity()
    }

    /// Access to a built region's instance (`None` for unbuilt slots).
    pub fn region(&self, i: usize) -> Option<&A> {
        self.regions.get(i)
    }

    /// Growth/retirement counters and the current slot census.
    pub fn elastic_stats(&self) -> ElasticStatsSnapshot {
        let active = |s: &&AtomicU8| s.load(Ordering::Acquire) == ACTIVE;
        ElasticStatsSnapshot {
            active_regions: self.states.iter().filter(active).count(),
            built_regions: self.regions.built().count(),
            max_regions: self.max_regions(),
            grows: self.grows.load(Ordering::Relaxed),
            retires: self.retires.load(Ordering::Relaxed),
            reactivations: self.reactivations.load(Ordering::Relaxed),
        }
    }

    /// One allocation attempt across the currently active regions.
    fn alloc_once(&self, size: usize) -> Option<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, state)| state.load(Ordering::Acquire) == ACTIVE)
            .find_map(|(i, _)| self.regions.alloc_on(i, size))
    }

    /// Brings one more region into service: reactivates the first dormant
    /// slot if there is one, otherwise builds the next empty slot.  Returns
    /// `false` when every slot is already active.
    pub fn grow(&self) -> bool {
        // Reactivate before building: dormant regions are already mapped
        // (if mostly decommitted) and strictly cheaper than a new build.
        for state in &self.states {
            if state
                .compare_exchange(DORMANT, ACTIVE, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.reactivations.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        for (i, state) in self.states.iter().enumerate() {
            if state.load(Ordering::Acquire) != EMPTY {
                continue;
            }
            // Racing growers both reach get_or_build; only one builds, and
            // the single EMPTY→ACTIVE transition decides who announced it.
            self.regions.get_or_build(i, || (self.builder)(i));
            if state
                .compare_exchange(EMPTY, ACTIVE, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.grows.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Retires drained regions: every active region other than the first
    /// whose byte counter reads zero is claimed whole through the ordinary
    /// allocation protocol (any concurrent allocation fails the claim and
    /// aborts the retirement), flipped dormant, and released again — fully
    /// free, so the next scrub pass decommits its span.  Returns how many
    /// regions were retired.
    pub fn retire_idle(&self) -> usize {
        let max = self.max_size();
        let blocks_per_region = self.region_memory() / max;
        let mut retired = 0;
        for (i, backend) in self.regions.built().skip(1) {
            let state = &self.states[i];
            // The gauge is only a hint here: a tree sums per-thread
            // stripes and may read a transient 0 while blocks are live.
            // The whole-span claim below decides, so a wrong 0 costs one
            // failed claim and nothing else.
            if state.load(Ordering::Acquire) != ACTIVE || backend.allocated_bytes() != 0 {
                continue;
            }
            // Liveness barrier: own the whole span before parking it.
            let claimed: Vec<usize> = (0..blocks_per_region)
                .map(|b| b * max)
                .take_while(|&local| backend.scrub_claim(local, max))
                .collect();
            if claimed.len() == blocks_per_region
                && state
                    .compare_exchange(ACTIVE, DORMANT, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.retires.fetch_add(1, Ordering::Relaxed);
                retired += 1;
            }
            for local in claimed {
                backend.scrub_dealloc(local);
            }
        }
        retired
    }
}

impl<A: BuddyBackend> BuddyBackend for ElasticSet<A> {
    fn name(&self) -> &'static str {
        "elastic"
    }

    fn geometry(&self) -> &Geometry {
        self.regions.geometry()
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        if let Some(off) = self.alloc_once(size) {
            self.oom_streak.store(0, Ordering::Relaxed);
            return Some(off);
        }
        // Sustained pressure (not a single unlucky race): grow and retry.
        let streak = self.oom_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.grow_threshold && self.grow() {
            self.oom_streak.store(0, Ordering::Relaxed);
            return self.alloc_once(size);
        }
        None
    }

    fn dealloc(&self, offset: usize) {
        self.regions.dealloc(offset)
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        self.regions.try_dealloc(offset)
    }

    fn inner(&self) -> Option<&dyn BuddyBackend> {
        Some(&self.regions)
    }

    fn allocated_bytes(&self) -> usize {
        self.regions.allocated_bytes()
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        self.regions.granted_size_of_live(offset)
    }

    fn granted_size_for(&self, size: usize) -> Option<usize> {
        self.regions.granted_size_for(size)
    }

    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        self.regions.grant_alignment_for(size)
    }

    /// Trims the built regions, then retires drained ones — the scrubber's
    /// periodic call is what drives the chain back down at trough.
    fn trim_empty_pages(&self) -> usize {
        let trimmed = self.regions.trim_empty_pages();
        self.retire_idle();
        trimmed
    }
}

impl<A: BuddyBackend + std::fmt::Debug> std::fmt::Debug for ElasticSet<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticSet")
            .field("max_regions", &self.max_regions())
            .field("stats", &self.elastic_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuddyConfig, NbbsOneLevel};

    fn elastic(regions: usize, per_region: usize) -> ElasticSet<NbbsOneLevel> {
        let config = BuddyConfig::new(per_region, 64, per_region.min(1 << 12)).unwrap();
        ElasticSet::new(regions, move |_| NbbsOneLevel::new(config)).with_grow_threshold(1)
    }

    #[test]
    fn starts_with_one_region_and_grows_under_pressure() {
        let s = elastic(4, 4096);
        assert_eq!(s.total_memory(), 4 * 4096);
        assert_eq!(s.region_memory(), 4096);
        assert_eq!(s.elastic_stats().built_regions, 1);
        assert!(s.region(1).is_none(), "slot 1 unbuilt at rest");

        let mut held = Vec::new();
        for _ in 0..4 {
            held.push(s.alloc(4096).expect("the set grows to serve"));
        }
        assert!(s.alloc(64).is_none(), "every slot active and full");
        let stats = s.elastic_stats();
        assert_eq!(stats.built_regions, 4);
        assert_eq!(stats.active_regions, 4);
        assert_eq!(stats.grows, 3);
        // One offset per region: pack/split round-trips by arithmetic.
        let owners: std::collections::HashSet<usize> =
            held.iter().map(|&o| s.regions.split(o).0).collect();
        assert_eq!(owners.len(), 4);
        for off in held {
            s.dealloc(off);
        }
        assert_eq!(s.allocated_bytes(), 0);
    }

    #[test]
    fn growth_threshold_absorbs_single_failures() {
        let config = BuddyConfig::new(4096, 64, 4096).unwrap();
        let s = ElasticSet::new(2, move |_| NbbsOneLevel::new(config)); // threshold 2
        let a = s.alloc(4096).unwrap();
        assert!(
            s.alloc(4096).is_none(),
            "first failure only bumps the streak"
        );
        assert_eq!(s.elastic_stats().built_regions, 1);
        assert!(s.alloc(4096).is_some(), "second failure grows");
        assert_eq!(s.elastic_stats().grows, 1);
        s.dealloc(a);
    }

    #[test]
    fn retirement_parks_drained_regions_and_reactivates() {
        let s = elastic(3, 4096);
        let offs: Vec<usize> = (0..3).map(|_| s.alloc(4096).unwrap()).collect();
        for off in &offs {
            s.dealloc(*off);
        }
        assert_eq!(s.retire_idle(), 2, "both non-first regions retire");
        let stats = s.elastic_stats();
        assert_eq!(stats.active_regions, 1);
        assert_eq!(stats.built_regions, 3, "dormant regions stay built");
        assert_eq!(stats.retires, 2);
        // Dormant spans are fully free and visible to the scrubber.
        let snap = BuddyBackend::occupancy(&s).unwrap();
        assert_eq!(
            snap.free_chunks.iter().map(|&(_, sz)| sz).sum::<usize>(),
            3 * 4096
        );

        // Renewed pressure reactivates before building.
        let offs: Vec<usize> = (0..3).map(|_| s.alloc(4096).unwrap()).collect();
        let stats = s.elastic_stats();
        assert_eq!(stats.reactivations, 2);
        assert_eq!(stats.grows, 2, "no new builds needed");
        for off in offs {
            s.dealloc(off);
        }
    }

    #[test]
    fn retirement_aborts_when_a_region_is_live() {
        let s = elastic(2, 4096);
        let a = s.alloc(4096).unwrap();
        let b = s.alloc(64).unwrap();
        assert_ne!(s.regions.split(a).0, s.regions.split(b).0);
        s.dealloc(a);
        // Region 1 holds the 64-byte chunk: allocated_bytes != 0, no retire.
        assert_eq!(s.retire_idle(), 0);
        assert_eq!(s.elastic_stats().active_regions, 2);
        s.dealloc(b);
        assert_eq!(s.retire_idle(), 1);
        s.alloc(64).unwrap();
        // First region is never retired, whoever is idle.
        assert_eq!(s.retire_idle(), 0);
    }

    #[test]
    fn scrub_claims_route_to_the_owning_region() {
        let s = elastic(2, 4096);
        let a = s.alloc(4096).unwrap();
        let b = s.alloc(4096).unwrap();
        s.dealloc(a);
        s.dealloc(b);
        let snap = BuddyBackend::occupancy(&s).unwrap();
        assert_eq!(snap.free_chunks.len(), 2);
        for &(off, size) in &snap.free_chunks {
            assert!(s.scrub_claim(off, size), "chunk ({off}, {size})");
        }
        assert_eq!(s.allocated_bytes(), 2 * 4096);
        for &(off, _) in &snap.free_chunks {
            s.scrub_dealloc(off);
        }
        assert_eq!(s.allocated_bytes(), 0);
        assert!(!s.scrub_claim(5 << 12, 4096), "unbuilt slot refuses claims");
    }

    #[test]
    fn invalid_frees_are_rejected_not_routed() {
        let s = elastic(2, 4096);
        assert!(
            matches!(s.try_dealloc(1 << 12), Err(FreeError::OutOfRange { .. })),
            "unbuilt slot"
        );
        assert!(
            matches!(s.try_dealloc(100 << 12), Err(FreeError::OutOfRange { .. })),
            "beyond the widened span"
        );
        let off = s.alloc(64).unwrap();
        assert!(s.try_dealloc(off).is_ok());
    }

    #[test]
    fn concurrent_churn_grows_safely_and_returns_every_byte() {
        let s = std::sync::Arc::new(elastic(4, 1 << 14));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut live = Vec::new();
                    for i in 0..2_000usize {
                        let size = 64usize << ((i + t) % 5);
                        if let Some(off) = s.alloc(size) {
                            live.push(off);
                        }
                        if live.len() > 24 {
                            live.rotate_left(1);
                            s.dealloc(live.pop().unwrap());
                        }
                    }
                    for off in live {
                        s.dealloc(off);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.allocated_bytes(), 0);
        for i in 0..s.max_regions() {
            if let Some(region) = s.region(i) {
                crate::verify::audit_empty(region).assert_clean();
            }
        }
        // Trough: everything built beyond slot 0 retires cleanly.
        let built = s.elastic_stats().built_regions;
        assert_eq!(s.retire_idle(), built - 1);
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_regions_panics() {
        let config = BuddyConfig::new(4096, 64, 4096).unwrap();
        let _ = ElasticSet::new(0, move |_| NbbsOneLevel::new(config));
    }
}
