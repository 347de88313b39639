//! Operation statistics, and every layer's snapshot type.
//!
//! Each layer keeps its own counters, but the plain-data *snapshot* it
//! reports is declared here, once: [`OpStatsSnapshot`] (tree),
//! [`CacheStatsSnapshot`] (`nbbs-cache`), [`FragStatsSnapshot`]
//! (`nbbs-slab`), [`NodeStatsSnapshot`] (`nbbs-numa`),
//! [`MemoryStatsSnapshot`] ([`crate::BuddyRegion`]) and
//! [`ShellStatsSnapshot`] (`nbbs-alloc`).  Every layer and `nbbs-obs`
//! already depend on this crate, so a stack snapshot, a report or a
//! `dyn BuddyBackend` hook takes the value the layer filled in instead of
//! a field-by-field copy; `nbbs-numa` and `nbbs-alloc` re-export theirs.
//!
//! ## Tree operation counters
//!
//! The 4-level optimization exists to *reduce the number of RMW instructions
//! on the critical path* (§III-D).  To be able to demonstrate that reduction
//! directly (ablation A2 in DESIGN.md) the allocators can count, per
//! instance:
//!
//! * successful allocations and releases,
//! * failed allocations (no free chunk found),
//! * CAS instructions issued and CAS failures (retries),
//! * nodes skipped during the level scan because they were busy.
//!
//! Counting on the hot path costs one relaxed `fetch_add` per event; to keep
//! the headline benchmarks honest the increments are compiled in only when
//! the `op-stats` feature is enabled.  Without the feature every recording
//! method is an empty `#[inline]` stub and [`OpStats::snapshot`] returns
//! zeros.

use std::fmt;
use std::sync::atomic::AtomicU64;
#[cfg(feature = "op-stats")]
use std::sync::atomic::Ordering;

/// Number of tree levels the per-level CAS-failure heatmap resolves.
///
/// Deeper trees clamp their tail levels into the last bin; the paper's
/// configurations (64 MiB / 8 B units ⇒ 24 levels would overflow — but CAS
/// traffic concentrates near the leaves, and the reports label the last
/// bin `N+`).
pub const CAS_LEVELS: usize = 16;

/// Cumulative operation counters for one allocator instance.
#[derive(Debug, Default)]
#[cfg_attr(not(feature = "op-stats"), allow(dead_code))]
pub struct OpStats {
    allocs: AtomicU64,
    frees: AtomicU64,
    failed_allocs: AtomicU64,
    cas_ops: AtomicU64,
    cas_failures: AtomicU64,
    nodes_skipped: AtomicU64,
    cas_failures_by_level: [AtomicU64; CAS_LEVELS],
}

/// A point-in-time copy of [`OpStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStatsSnapshot {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful releases.
    pub frees: u64,
    /// Allocations that failed because no suitable free chunk was found.
    pub failed_allocs: u64,
    /// CAS (RMW) instructions issued on the metadata.
    pub cas_ops: u64,
    /// CAS instructions that failed and forced a retry or an abort.
    pub cas_failures: u64,
    /// Candidate nodes skipped during level scans because they were busy.
    pub nodes_skipped: u64,
    /// CAS failures broken down by the tree level of the contended node
    /// (level 0 = root; levels ≥ [`CAS_LEVELS`]−1 share the last bin): a
    /// contention heatmap of the tree.  All zeros unless
    /// the `op-stats` feature is enabled *and* the backend reports levels
    /// (the tree allocators do; baselines leave it empty).
    pub cas_failures_by_level: [u64; CAS_LEVELS],
}

impl OpStatsSnapshot {
    /// Average number of CAS instructions per completed operation
    /// (allocation or release), or 0 if nothing completed.
    pub fn cas_per_op(&self) -> f64 {
        let ops = self.allocs + self.frees;
        if ops == 0 {
            0.0
        } else {
            self.cas_ops as f64 / ops as f64
        }
    }

    /// Fraction of CAS instructions that failed.
    pub fn cas_failure_rate(&self) -> f64 {
        if self.cas_ops == 0 {
            0.0
        } else {
            self.cas_failures as f64 / self.cas_ops as f64
        }
    }

    /// Accumulates `other` into `self`, counter by counter — the
    /// [`CacheStatsSnapshot::merge`] analogue multi-instance deployments
    /// use to report one aggregated view across per-node backends.
    pub fn merge(&mut self, other: &OpStatsSnapshot) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.failed_allocs += other.failed_allocs;
        self.cas_ops += other.cas_ops;
        self.cas_failures += other.cas_failures;
        self.nodes_skipped += other.nodes_skipped;
        for (a, b) in self
            .cas_failures_by_level
            .iter_mut()
            .zip(other.cas_failures_by_level.iter())
        {
            *a += *b;
        }
    }

    /// Whether any per-level CAS-failure bin is non-zero (reports hide the
    /// heatmap column block otherwise).
    pub fn has_level_contention(&self) -> bool {
        self.cas_failures_by_level.iter().any(|&c| c != 0)
    }
}

impl fmt::Display for OpStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocs={} frees={} failed={} cas={} cas_failed={} skipped={} cas/op={:.2}",
            self.allocs,
            self.frees,
            self.failed_allocs,
            self.cas_ops,
            self.cas_failures,
            self.nodes_skipped,
            self.cas_per_op()
        )
    }
}

/// A point-in-time copy of the counters of a caching front-end layered over
/// a backend allocator (e.g. the per-thread magazine cache in `nbbs-cache`).
///
/// Defined here, next to [`OpStatsSnapshot`], so that the
/// [`crate::BuddyBackend::cache_stats`] hook can expose cache behaviour
/// through `dyn BuddyBackend` without the core crate depending on any cache
/// implementation.  Plain backends return `None` from that hook; wrappers
/// fill this in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Allocations served from the cache without touching the backend.
    pub hits: u64,
    /// Allocations that had to fall through to the backend (including the
    /// batched refill traffic they triggered).
    pub misses: u64,
    /// Releases absorbed by the cache without touching the backend.
    pub cached_frees: u64,
    /// Chunks returned to the backend by flushes (magazine overflow, depot
    /// overflow, or drains).
    pub flushed: u64,
    /// Chunks fetched from the backend by batched refills.
    pub refilled: u64,
    /// Full magazines exchanged with the shared depot (gets + puts).
    pub depot_exchanges: u64,
    /// Chunks returned to the backend by explicit drain calls
    /// (thread-exit drains and whole-cache drains).
    pub drained: u64,
    /// Full magazines the depot could not park — the owning shard's stack
    /// was at capacity, or the cache byte budget was exhausted — so their
    /// chunks were flushed to the backend (the chunks themselves are
    /// counted in `flushed`).
    pub depot_spills: u64,
    /// Adaptive-resize events that grew a size class's magazine capacity
    /// (triggered by sustained depot spills; capacities never shrink).
    pub resize_grows: u64,
    /// Chunks rescued from the orphan list: chunks a panic stranded
    /// mid-flush/refill/drain, re-published by the unwinding thread and
    /// returned to the backend by the next toucher.
    pub orphan_rescues: u64,
    /// Number of depot shards magazine exchange is distributed over.
    /// Configuration surfaced for reports, not a counter; summed across
    /// instances when snapshots are merged.
    pub depot_shards: u64,
}

impl CacheStatsSnapshot {
    /// Fraction of allocations served without touching the backend.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total allocation requests observed by the cache.
    pub fn alloc_requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Accumulates `other` into `self`, counter by counter.
    ///
    /// Used by multi-instance deployments to report one merged cache view
    /// across per-node caches (`depot_shards` sums to the fleet-wide shard
    /// count).
    pub fn merge(&mut self, other: &CacheStatsSnapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.cached_frees += other.cached_frees;
        self.flushed += other.flushed;
        self.refilled += other.refilled;
        self.depot_exchanges += other.depot_exchanges;
        self.drained += other.drained;
        self.depot_spills += other.depot_spills;
        self.resize_grows += other.resize_grows;
        self.orphan_rescues += other.orphan_rescues;
        self.depot_shards += other.depot_shards;
    }
}

impl fmt::Display for CacheStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} hit-rate={:.3} cached-frees={} flushed={} refilled={} \
             depot={} drained={} shards={} spills={} grows={} rescued={}",
            self.hits,
            self.misses,
            self.hit_rate(),
            self.cached_frees,
            self.flushed,
            self.refilled,
            self.depot_exchanges,
            self.drained,
            self.depot_shards,
            self.depot_spills,
            self.resize_grows,
            self.orphan_rescues
        )
    }
}

/// A point-in-time copy of the backing-memory accounting of a
/// [`crate::BuddyRegion`]: how much of the managed span is actually
/// committed, and what the decommit scrubber has done about the rest.
///
/// `committed_bytes` is derived from the region's page-granular decommit
/// bitmap and is exact from construction: a fresh region is decommitted end
/// to end, and a page counts from the grant that covers it until the
/// scrubber decommits it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStatsSnapshot {
    /// Total span the region manages, in bytes.
    pub managed_bytes: u64,
    /// Bytes currently committed (managed minus decommitted) — a gauge, 0
    /// for a region nothing was granted from yet.
    pub committed_bytes: u64,
    /// Bytes currently decommitted (released to the kernel, or never
    /// granted: a fresh region is decommitted end to end) — a gauge.
    pub decommitted_bytes: u64,
    /// Scrub passes completed (cumulative).
    pub scrub_passes: u64,
    /// Free blocks the scrubber claimed and decommitted (cumulative).
    pub scrub_blocks: u64,
    /// Bytes the scrubber decommitted (cumulative).
    pub scrub_bytes: u64,
    /// Kernel calls the decommits took (cumulative): one per run of
    /// adjacent free blocks, so `scrub_blocks / decommit_calls` is the
    /// mean run length.
    pub decommit_calls: u64,
    /// Bytes whose decommit mark was cleared by a grant (cumulative).  A
    /// page's first grant counts, since a fresh region starts decommitted,
    /// so this is every page grants brought into service, not only those
    /// the scrubber had released; an upper bound on what the kernel backed.
    pub recommitted_bytes: u64,
    /// Bytes of backend metadata (the tree's `index[]` pages under each
    /// decommitted run) the scrubber gave back to the kernel (cumulative).
    /// Not part of the managed span, so not in the gauges above.
    pub metadata_decommitted_bytes: u64,
    /// Empty slab pages trim passes returned to the buddy (cumulative).
    pub trimmed_pages: u64,
}

impl MemoryStatsSnapshot {
    /// Fraction of the managed span currently committed, in `0.0..=1.0`.
    pub fn committed_ratio(&self) -> f64 {
        if self.managed_bytes == 0 {
            0.0
        } else {
            self.committed_bytes as f64 / self.managed_bytes as f64
        }
    }

    /// Accumulates `other` into `self` (gauges and counters both add up:
    /// merged regions manage disjoint spans).
    pub fn merge(&mut self, other: &MemoryStatsSnapshot) {
        self.managed_bytes += other.managed_bytes;
        self.committed_bytes += other.committed_bytes;
        self.decommitted_bytes += other.decommitted_bytes;
        self.scrub_passes += other.scrub_passes;
        self.scrub_blocks += other.scrub_blocks;
        self.scrub_bytes += other.scrub_bytes;
        self.decommit_calls += other.decommit_calls;
        self.recommitted_bytes += other.recommitted_bytes;
        self.metadata_decommitted_bytes += other.metadata_decommitted_bytes;
        self.trimmed_pages += other.trimmed_pages;
    }
}

impl fmt::Display for MemoryStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "committed={}/{} ({:.1}%) decommitted={} scrub: passes={} blocks={} bytes={} \
             calls={} recommitted={} metadata={} trimmed-pages={}",
            self.committed_bytes,
            self.managed_bytes,
            self.committed_ratio() * 100.0,
            self.decommitted_bytes,
            self.scrub_passes,
            self.scrub_blocks,
            self.scrub_bytes,
            self.decommit_calls,
            self.recommitted_bytes,
            self.metadata_decommitted_bytes,
            self.trimmed_pages
        )
    }
}

/// Point-in-time per-node telemetry of a multi-node deployment
/// (`nbbs-numa`'s `NodeSet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStatsSnapshot {
    /// Node index.
    pub node: usize,
    /// Bytes currently handed out by this node's instance.
    pub allocated_bytes: usize,
    /// Allocations this node served for requests that started on it.
    pub local_allocs: u64,
    /// Allocations this node served as a remote fallback.
    pub remote_allocs: u64,
    /// Requests that started on this node and failed everywhere.
    pub failed_allocs: u64,
}

impl NodeStatsSnapshot {
    /// Allocations this node served in total (local + remote-fallback).
    pub fn served(&self) -> u64 {
        self.local_allocs + self.remote_allocs
    }
}

/// Point-in-time copy of what the `NbbsGlobalAlloc` shell (`nbbs-alloc`)
/// reports of the calls it served; only the shell fills it.
///
/// A `realloc` resolves either *in place* (the new size names the class
/// the block already has — no copy, no backend traffic) or by *moving*
/// (allocate + copy + release).  The split is the shell's own figure of
/// merit: buddy blocks over-provision by construction, so a healthy
/// workload should see most grows land in place.
///
/// The requested and granted bytes and the realloc outcomes are booked in
/// the cache's slots; `system_bytes` and `system_failovers` are the
/// shell's own two counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShellStatsSnapshot {
    /// Growing `realloc`s resolved without moving the block.
    pub grows_in_place: u64,
    /// Growing `realloc`s that allocated a larger block and copied.
    pub grows_moved: u64,
    /// Shrinking `realloc`s resolved without moving the block.
    pub shrinks_in_place: u64,
    /// Shrinking `realloc`s that moved to a smaller size class (releasing the
    /// difference back to the buddy).
    pub shrinks_moved: u64,
    /// Cumulative bytes *asked for* by successful allocations
    /// (`layout.size()`, a zero size counted as 1) — the one odometer of
    /// bytes the buddy granted for.  An in-place `realloc` allocates nothing
    /// and adds nothing.
    pub requested_bytes: u64,
    /// Cumulative bytes *handed out* for those allocations (the granted
    /// block sizes).  `granted - requested` is internal fragmentation as
    /// the caller experiences it.
    pub granted_bytes: u64,
    /// Cumulative bytes that fell through to the system allocator
    /// (oversized requests, exhaustion, pre-build metadata).
    pub system_bytes: u64,
    /// Requests the built buddy stack failed that the system allocator
    /// rescued (degraded-mode events, not ordinary oversized traffic).
    pub system_failovers: u64,
}

impl ShellStatsSnapshot {
    /// Fraction of growing `realloc`s that resolved in place (0.0 when no grow
    /// ran).
    pub fn grow_in_place_rate(&self) -> f64 {
        let total = self.grows_in_place + self.grows_moved;
        if total == 0 {
            0.0
        } else {
            self.grows_in_place as f64 / total as f64
        }
    }

    /// Granted-to-requested byte ratio at the shell boundary — internal
    /// fragmentation as the *end user* experiences it (1.0 means no waste,
    /// and covers the nothing-allocated-yet case).  Unlike
    /// [`FragStatsSnapshot::ratio`], which sees magazine refill batches,
    /// this measures the caller's `Layout` sizes.
    pub fn granted_over_requested(&self) -> f64 {
        if self.requested_bytes == 0 {
            1.0
        } else {
            self.granted_bytes as f64 / self.requested_bytes as f64
        }
    }

    /// Fraction of served bytes that came from the buddy rather than the
    /// system allocator, by requested size (1.0 until the first fallback).
    pub fn buddy_share(&self) -> f64 {
        let total = self.requested_bytes + self.system_bytes;
        if total == 0 {
            1.0
        } else {
            self.requested_bytes as f64 / total as f64
        }
    }
}

/// Per-size-class fragmentation counters of a slab front-end layered over a
/// buddy backend (the `nbbs-slab` crate).
///
/// `bytes_requested` is what callers asked for; `bytes_committed` is what the
/// class actually spent (one `class_size` per object served).  Both are
/// cumulative over the instance's lifetime (a release does not know the
/// original request size, so live-only accounting is impossible without a
/// per-object side table); their ratio is the internal-fragmentation overhead
/// the slab exists to kill — ≤ 1.25 for spaced classes vs up to 2.0 for pure
/// power-of-two rounding.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FragClassSnapshot {
    /// The class's object size in bytes.
    pub class_size: usize,
    /// Sum of the raw request sizes served from this class (cumulative).
    pub bytes_requested: u64,
    /// `objects_served × class_size` — what those requests actually occupied
    /// (cumulative).
    pub bytes_committed: u64,
    /// Objects currently handed out from this class (a gauge, not a
    /// cumulative counter).
    pub live_objects: u64,
}

impl FragClassSnapshot {
    /// `bytes_committed / bytes_requested`, or 0 when nothing is live.
    pub fn ratio(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            self.bytes_committed as f64 / self.bytes_requested as f64
        }
    }
}

/// A point-in-time copy of the fragmentation counters of a slab front-end,
/// exposed through [`crate::BuddyBackend::frag_stats`] so reports can render
/// the per-class table through `dyn BuddyBackend` without downcasting.
///
/// Defined here, next to [`CacheStatsSnapshot`], for the same reason: the
/// core crate owns the hook surface, the `nbbs-slab` crate fills it in.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FragStatsSnapshot {
    /// Per-class counters in ascending `class_size` order.
    pub classes: Vec<FragClassSnapshot>,
    /// Buddy pages currently held by the slab (partial, full, or kept-empty
    /// under the reclaim hysteresis).
    pub pages_live: u64,
    /// Fully-free pages retired back to the buddy over the instance's
    /// lifetime (the hysteresis kept at most K per class; the rest flowed
    /// back for large requests).
    pub pages_retired: u64,
    /// Requests above the slab cutoff passed straight through to the buddy.
    pub passthrough_allocs: u64,
}

impl FragStatsSnapshot {
    /// Sum of `bytes_requested` across classes.
    pub fn bytes_requested(&self) -> u64 {
        self.classes.iter().map(|c| c.bytes_requested).sum()
    }

    /// Sum of `bytes_committed` across classes.
    pub fn bytes_committed(&self) -> u64 {
        self.classes.iter().map(|c| c.bytes_committed).sum()
    }

    /// Objects currently live across all classes.
    pub fn live_objects(&self) -> u64 {
        self.classes.iter().map(|c| c.live_objects).sum()
    }

    /// Overall `bytes_committed / bytes_requested`, or 0 when nothing has
    /// been served.  ≤ 1.25 by construction of the spaced class table.
    pub fn ratio(&self) -> f64 {
        let req = self.bytes_requested();
        if req == 0 {
            0.0
        } else {
            self.bytes_committed() as f64 / req as f64
        }
    }

    /// Accumulates `other` into `self`, aligning classes by size — the
    /// [`CacheStatsSnapshot::merge`] analogue for per-node slab instances.
    pub fn merge(&mut self, other: &FragStatsSnapshot) {
        for oc in &other.classes {
            match self
                .classes
                .iter_mut()
                .find(|c| c.class_size == oc.class_size)
            {
                Some(c) => {
                    c.bytes_requested += oc.bytes_requested;
                    c.bytes_committed += oc.bytes_committed;
                    c.live_objects += oc.live_objects;
                }
                None => self.classes.push(*oc),
            }
        }
        self.classes.sort_by_key(|c| c.class_size);
        self.pages_live += other.pages_live;
        self.pages_retired += other.pages_retired;
        self.passthrough_allocs += other.passthrough_allocs;
    }
}

impl fmt::Display for FragStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested={} committed={} ratio={:.3} live={} pages={} retired={} passthrough={}",
            self.bytes_requested(),
            self.bytes_committed(),
            self.ratio(),
            self.live_objects(),
            self.pages_live,
            self.pages_retired,
            self.passthrough_allocs
        )
    }
}

macro_rules! recorder {
    ($(#[$doc:meta])* $name:ident, $field:ident) => {
        $(#[$doc])*
        #[inline(always)]
        pub fn $name(&self, _n: u64) {
            #[cfg(feature = "op-stats")]
            self.$field.fetch_add(_n, Ordering::Relaxed);
        }
    };
}

impl OpStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether counting is compiled in (the `op-stats` feature).
    pub const fn enabled() -> bool {
        cfg!(feature = "op-stats")
    }

    recorder!(
        /// Records `n` successful allocations.
        record_alloc, allocs);
    recorder!(
        /// Records `n` successful releases.
        record_free, frees);
    recorder!(
        /// Records `n` failed allocations.
        record_failed_alloc, failed_allocs);
    recorder!(
        /// Records `n` CAS instructions issued.
        record_cas, cas_ops);
    recorder!(
        /// Records `n` CAS failures.
        record_cas_failure, cas_failures);
    recorder!(
        /// Records `n` nodes skipped by the level scan.
        record_skip, nodes_skipped);

    /// Records `n` CAS failures on a node at tree `level` (0 = root),
    /// feeding the per-level contention heatmap in addition to the
    /// aggregate `cas_failures` counter the caller records separately.
    /// Levels beyond [`CAS_LEVELS`]−1 share the last bin.
    #[inline(always)]
    pub fn record_cas_failure_at(&self, _level: usize, _n: u64) {
        #[cfg(feature = "op-stats")]
        self.cas_failures_by_level[_level.min(CAS_LEVELS - 1)].fetch_add(_n, Ordering::Relaxed);
    }

    /// Returns a copy of the current counter values.
    pub fn snapshot(&self) -> OpStatsSnapshot {
        #[cfg(feature = "op-stats")]
        {
            let mut levels = [0u64; CAS_LEVELS];
            for (out, c) in levels.iter_mut().zip(self.cas_failures_by_level.iter()) {
                *out = c.load(Ordering::Relaxed);
            }
            OpStatsSnapshot {
                allocs: self.allocs.load(Ordering::Relaxed),
                frees: self.frees.load(Ordering::Relaxed),
                failed_allocs: self.failed_allocs.load(Ordering::Relaxed),
                cas_ops: self.cas_ops.load(Ordering::Relaxed),
                cas_failures: self.cas_failures.load(Ordering::Relaxed),
                nodes_skipped: self.nodes_skipped.load(Ordering::Relaxed),
                cas_failures_by_level: levels,
            }
        }
        #[cfg(not(feature = "op-stats"))]
        {
            OpStatsSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recording_when_enabled() {
        let stats = OpStats::new();
        stats.record_alloc(2);
        stats.record_free(1);
        stats.record_cas(10);
        stats.record_cas_failure(3);
        stats.record_failed_alloc(1);
        stats.record_skip(5);
        let snap = stats.snapshot();
        if OpStats::enabled() {
            assert_eq!(snap.allocs, 2);
            assert_eq!(snap.frees, 1);
            assert_eq!(snap.cas_ops, 10);
            assert_eq!(snap.cas_failures, 3);
            assert_eq!(snap.failed_allocs, 1);
            assert_eq!(snap.nodes_skipped, 5);
            assert!((snap.cas_per_op() - 10.0 / 3.0).abs() < 1e-9);
            assert!((snap.cas_failure_rate() - 0.3).abs() < 1e-9);
        } else {
            assert_eq!(snap, OpStatsSnapshot::default());
        }
    }

    #[test]
    fn empty_snapshot_rates_are_zero() {
        let snap = OpStatsSnapshot::default();
        assert_eq!(snap.cas_per_op(), 0.0);
        assert_eq!(snap.cas_failure_rate(), 0.0);
        assert!(!snap.has_level_contention());
    }

    #[test]
    fn per_level_failures_bin_and_clamp() {
        let stats = OpStats::new();
        stats.record_cas_failure_at(0, 1);
        stats.record_cas_failure_at(3, 2);
        stats.record_cas_failure_at(CAS_LEVELS + 7, 5); // clamps into the last bin
        let snap = stats.snapshot();
        if OpStats::enabled() {
            assert_eq!(snap.cas_failures_by_level[0], 1);
            assert_eq!(snap.cas_failures_by_level[3], 2);
            assert_eq!(snap.cas_failures_by_level[CAS_LEVELS - 1], 5);
            assert!(snap.has_level_contention());
        } else {
            assert!(!snap.has_level_contention());
        }
    }

    #[test]
    fn merge_accumulates_level_bins() {
        let mut a = OpStatsSnapshot::default();
        let mut b = OpStatsSnapshot::default();
        a.cas_failures_by_level[2] = 3;
        b.cas_failures_by_level[2] = 4;
        b.cas_failures_by_level[9] = 1;
        a.merge(&b);
        assert_eq!(a.cas_failures_by_level[2], 7);
        assert_eq!(a.cas_failures_by_level[9], 1);
    }

    #[test]
    fn cache_snapshot_hit_rate() {
        let snap = CacheStatsSnapshot::default();
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(snap.alloc_requests(), 0);
        let snap = CacheStatsSnapshot {
            hits: 3,
            misses: 1,
            ..CacheStatsSnapshot::default()
        };
        assert!((snap.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(snap.alloc_requests(), 4);
        let s = snap.to_string();
        assert!(s.contains("hits=3"));
        assert!(s.contains("hit-rate=0.750"));
    }

    #[test]
    fn cache_snapshots_merge_counterwise() {
        let mut a = CacheStatsSnapshot {
            hits: 10,
            misses: 2,
            depot_spills: 1,
            resize_grows: 3,
            depot_shards: 4,
            ..CacheStatsSnapshot::default()
        };
        let b = CacheStatsSnapshot {
            hits: 5,
            flushed: 7,
            resize_grows: 1,
            depot_shards: 4,
            ..CacheStatsSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.hits, 15);
        assert_eq!(a.misses, 2);
        assert_eq!(a.flushed, 7);
        assert_eq!(a.depot_spills, 1);
        assert_eq!(a.resize_grows, 4);
        assert_eq!(a.depot_shards, 8, "shards sum across instances");
        let s = a.to_string();
        assert!(s.contains("shards=8"));
        assert!(s.contains("grows=4"));
    }

    #[test]
    fn display_is_informative() {
        let snap = OpStatsSnapshot {
            allocs: 1,
            frees: 1,
            cas_ops: 4,
            ..Default::default()
        };
        let s = snap.to_string();
        assert!(s.contains("allocs=1"));
        assert!(s.contains("cas=4"));
    }
}
