//! The magazine cache front-end.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use nbbs::error::FreeError;
use nbbs::{BuddyBackend, CacheStatsSnapshot, Geometry, TreeInspect};
use nbbs_obs::{OpKind, Recorder};
use nbbs_sync::{thread_stripe, Backoff, CachePadded, OwnedSlots, SpinLock};

use crate::config::CacheConfig;
use crate::depot::DepotShard;
use crate::magazine::{ClassMags, Magazine};

/// Spilled magazines of one class (since the last capacity change) that
/// trigger a doubling of that class's magazine capacity: a burst that keeps
/// overrunning the depot is cheaper to absorb in fewer, larger magazines.
const GROW_SPILL_MAGAZINES: usize = 2;

/// Bounded retries of a cache-miss refill whose backend attempt failed
/// *transiently* ([`nbbs::error::AllocError::Transient`], which today only
/// `nbbs-chaos`'s injected faults return), each preceded by a jittered
/// exponential backoff ([`nbbs_sync::Backoff::spin_jittered`]).  Hard OOM
/// never retries: genuine exhaustion must propagate immediately so the
/// facade's emergency-reserve / failover path can act on it.
const TRANSIENT_RETRIES: u32 = 3;

/// Ceiling on the batched backend refill a miss performs (chunks).
/// Adaptively grown magazines can reach thousands of entries — useful for
/// absorbing free bursts — but a cold miss must not turn into a
/// multi-thousand-chunk tree walk.
const REFILL_BATCH_MAX: usize = 64;

/// The slow-path counters: every one is bumped next to a backend call, a
/// depot CAS or a capacity change.  The two hit-path tallies live in the
/// [`Slot`], written inside the entry a hit makes anyway.
#[derive(Debug, Default)]
struct Counters {
    misses: AtomicU64,
    flushed: AtomicU64,
    refilled: AtomicU64,
    depot_exchanges: AtomicU64,
    drained: AtomicU64,
    depot_spills: AtomicU64,
    resize_grows: AtomicU64,
    resize_shrinks: AtomicU64,
    transient_retries: AtomicU64,
    orphan_rescues: AtomicU64,
}

/// One thread slot — everything an entry of it may touch: the per-class
/// magazine pairs and the slot's share of the two hit-path tallies, plain
/// integers bumped inside the entry a hit makes anyway.  The bytes a slot
/// parks are not stored: [`MagazineCache::cached_bytes`] sums them from the
/// magazine lengths.
struct Slot {
    mags: Vec<ClassMags>,
    /// Allocations this slot served from a magazine.
    hits: u64,
    /// Releases this slot absorbed into a magazine.
    cached_frees: u64,
}

/// Per-class adaptive-resize state.
struct ClassCtl {
    /// Current target magazine capacity; magazines adopt it at rotation and
    /// refill points (where they are empty).
    cap: AtomicUsize,
    /// Depot spills observed since the last capacity change.
    spills: AtomicUsize,
}

/// A per-thread, size-class-indexed magazine cache over any [`BuddyBackend`].
///
/// Threads are mapped to *slots*; each slot keeps, per cached buddy order, a
/// pair of bounded LIFO magazines (Bonwick's loaded/previous scheme).  A
/// thread claims the slot of its stripe on first use and from then on owns
/// it ([`nbbs_sync::OwnedSlots`]): the hot path — allocation hit, *sized*
/// release ([`BuddyBackend::dealloc_sized`]) into a non-full magazine — runs
/// no locked instruction for an owner, only plain loads and stores of its
/// own slot around a compiler fence, and never touches the backend tree, so
/// backend CAS traffic drops by roughly the magazine capacity.  A thread
/// whose stripe another live thread holds uses that stripe's shared slot,
/// under its lock.  The unsized release ([`BuddyBackend::dealloc`]) parks the
/// chunk the same way but first asks the backend for its class
/// ([`BuddyBackend::granted_size_of_live`]: a read of tree metadata other
/// threads write), because an offset alone does not name one.  Misses
/// refill in batches, first from the slot group's *depot
/// shard* — a lock-free [`nbbs_sync::BoundedStack`] of full magazines, so the
/// exchange is a single tagged CAS with no mutex anywhere on the path — and
/// second from batched backend allocations; overflowing frees flush whole
/// magazines to the same shard, falling back to batched backend releases.
///
/// Slots are grouped into shards (one depot shard per group, the analogue of
/// per-NUMA-node depots), so full/empty magazine circulation stops at the
/// group boundary instead of bouncing chunks across the whole machine.
/// With [`CacheConfig::node_groups`] set, the shard set is further
/// partitioned into per-NUMA-node banks keyed by the
/// [`CacheConfig::node_of`] hook: every exchange (park, refill pop)
/// stays within the calling thread's bank, so a depot shard never spans
/// nodes — the right configuration when the backend underneath is a
/// multi-node `NodeSet`.
///
/// Magazine capacities are *adaptive* (Bonwick's dynamic resizing): a class
/// whose bursts keep spilling past its depot shard doubles its capacity (up
/// to [`CacheConfig::max_magazine_capacity`] and a per-class share of the
/// byte budget), and byte-budget pressure shrinks it again.  The
/// [`CacheConfig::cache_bytes_budget`] bounds the total bytes parked.
///
/// `MagazineCache` implements [`BuddyBackend`] itself, so it nests unchanged
/// inside `BuddyRegion`, the `nbbs-alloc` facade (`NbbsGlobalAlloc`), a NUMA
/// `NodeSet` and the workload factory.
///
/// # Consistency
///
/// Chunks parked in a magazine are still *live* from the backend's
/// perspective; [`MagazineCache::allocated_bytes`] subtracts them so the
/// user-visible accounting matches what callers actually hold.  The
/// [`crate::verify_cached`] helper audits the backend's safety properties
/// treating cached chunks as live.
///
/// An entry of a slot covers its magazine pairs *and* its share of the
/// `hits` / `cached_frees` tallies, so a hit counts itself with a plain
/// increment inside the entry it makes anyway.  Nothing stores how many
/// bytes a slot parks.  The read-outs and drains —
/// [`MagazineCache::snapshot`], [`MagazineCache::cached_bytes`] (and through
/// it [`MagazineCache::allocated_bytes`]), [`MagazineCache::cached_chunks`],
/// [`MagazineCache::contains_cached`], [`MagazineCache::drain_all`] and
/// `Debug` — enter every slot as a remote, once per call: they take every
/// slot's lock, revoke every owner, pay one heavy barrier
/// (`membarrier(2)` where the kernel has it) and wait each owner out,
/// spinning while one is preempted mid-hit.  So a read-out sees every slot
/// between two operations, is exact at quiescence, costs a system call, and
/// is not meant to be called per operation.  The ones that only sum
/// allocate nothing inside (under a registered `#[global_allocator]` an
/// allocation there would re-enter a slot).
///
/// # Double frees
///
/// Like the underlying allocators, the cache cannot detect a double free of
/// an offset it has already absorbed (the backend still reports the chunk as
/// live); such a bug would make the cache hand the same offset out twice.
/// [`MagazineCache::try_dealloc`] therefore rejects offsets the *backend*
/// can prove dead, which is exactly the level of checking the backends
/// themselves provide.
pub struct MagazineCache<A: BuddyBackend> {
    backend: A,
    name: &'static str,
    config: CacheConfig,
    /// Cached size classes, ascending — probed from the backend's
    /// [`BuddyBackend::granted_size_for`] ladder at construction, so the
    /// table is the power-of-two orders for a plain tree and the spaced
    /// slab classes when a slab front-end sits underneath.  Class `k`
    /// caches chunks of exactly `classes[k]` bytes.
    classes: Box<[usize]>,
    /// A thread's slot is its [`nbbs_sync::thread_stripe`] in this table,
    /// the thread→stripe rule every per-thread table in the stack shares,
    /// claimed on first use; beside each, the shared slot of threads whose
    /// stripe another live thread holds.
    slots: OwnedSlots<Slot>,
    /// Depot shards, partitioned into `group_count` contiguous banks of
    /// `group_shards` shards each (one bank per NUMA-node group; a single
    /// machine-wide bank by default).  A thread on group `g` in slot `s`
    /// exchanges magazines with shard
    /// `g * group_shards + (s & group_shard_mask)` only — magazine traffic
    /// (parks, refill pops) never crosses the bank boundary, so a
    /// shard never mixes chunks from two nodes.
    shards: Box<[CachePadded<DepotShard>]>,
    /// Number of node-group banks (`CacheConfig::node_groups`, power of two).
    group_count: usize,
    /// Shards per bank (power of two).
    group_shards: usize,
    /// `group_shards - 1`: the within-bank shard mask.
    group_shard_mask: usize,
    /// Adaptive capacity controllers, one per class.
    ctl: Box<[ClassCtl]>,
    /// Resolved byte budget (caps adaptive magazine growth; split across
    /// shards to gate depot parking).
    budget: usize,
    /// Each shard's even share of `budget`: a shard parks a magazine only
    /// while its own byte counter stays within this share, so the gate is
    /// one relaxed load on a line the park is about to touch anyway —
    /// never a walk over every slot and shard.
    shard_budget: usize,
    /// Serializes depot *inspections* (`inspect_depot`) against each other
    /// and against `drain_all`'s depot sweep.  Inspection works by
    /// temporarily popping a shard's magazines; two concurrent inspections
    /// could each miss offsets the other holds in flight, which would break
    /// `try_dealloc`'s double-free detection for stably parked chunks.  The
    /// hot paths (alloc/dealloc/park/refill) never take this lock.
    inspect_lock: SpinLock<()>,
    /// Chunks a panic stranded mid-flight — taken out of a magazine (or
    /// freshly refilled from the backend) but not yet returned anywhere when
    /// an unwind tore through a flush/refill/drain loop.  The unwinding
    /// thread publishes them here (see [`OrphanGuard`]); the next toucher
    /// (a miss, a drain, or the final `Drop`) rescues them back to the
    /// backend.  Until rescued they are still *cached* from the accounting
    /// and verification point of view: backend-live, caller-free.
    ///
    /// The slot magazines themselves need no such recovery: every mutation
    /// of a slot happens inside an entry, whose guards end it on unwind, and
    /// consists of pure `Vec` moves that cannot panic halfway — so a slot
    /// is never left wedged or half-rotated.  Only chunks in flight
    /// *outside* an entry (backend calls in loops) can be stranded, and
    /// those are exactly what this list catches.
    orphans: SpinLock<Vec<(usize, usize)>>,
    /// Fast-path gate for the orphan list: set (release) after publishing,
    /// cleared (acquire) by the rescuer — so the common case costs one
    /// relaxed load and no lock.
    orphaned: AtomicBool,
    counters: Counters,
    /// Optional observer of the slow paths (miss, refill, flush, rescue,
    /// retry).  `None` skips every timestamp read — the
    /// zero-cost-when-disabled contract of `nbbs-obs`.
    obs: Option<Arc<Recorder>>,
}

impl<A: BuddyBackend> MagazineCache<A> {
    /// Wraps `backend` with a default-configured cache.
    pub fn new(backend: A) -> Self {
        Self::with_config(backend, CacheConfig::default())
    }

    /// Wraps `backend` with an explicit configuration.
    pub fn with_config(backend: A, config: CacheConfig) -> Self {
        Self::with_config_and_name(backend, config, "cached")
    }

    /// Wraps `backend` under a custom report name (e.g. `"cached-4lvl-nb"`).
    pub fn with_config_and_name(backend: A, config: CacheConfig, name: &'static str) -> Self {
        let cutoff = backend.geometry().max_size();
        // Probe the backend's grant ladder ascending: asking what a request
        // of `probe` bytes would be granted yields the next class, and
        // `granted + 1` lands the probe in the following one.  For a plain
        // tree this reconstructs exactly the old power-of-two table
        // (min_size << k); for a slab front-end it picks up the spaced
        // sub-power-of-two classes, so cached chunks stay class-exact.
        let mut classes = Vec::new();
        let mut probe = 1usize;
        while let Some(granted) = backend.granted_size_for(probe) {
            if granted > cutoff || granted < probe {
                break;
            }
            classes.push(granted);
            probe = granted + 1;
        }
        let classes: Box<[usize]> = classes.into();
        let slots = OwnedSlots::new(config.resolved_slots(), || Slot {
            mags: classes
                .iter()
                .map(|&size| ClassMags::new(config.capacity_for(size)))
                .collect(),
            hits: 0,
            cached_frees: 0,
        });
        let shard_count = config.resolved_shards();
        let group_count = config.resolved_groups();
        let group_shards = shard_count / group_count;
        let shards = (0..shard_count)
            .map(|_| CachePadded::new(DepotShard::new(classes.len(), config.depot_magazines)))
            .collect();
        let ctl = classes
            .iter()
            .map(|&size| ClassCtl {
                cap: AtomicUsize::new(config.capacity_for(size)),
                spills: AtomicUsize::new(0),
            })
            .collect();
        // Budget from the backend's *logical* span: a multi-node NodeSet
        // reports a widened (power-of-two) geometry but manages less.
        let budget = config.resolved_budget(backend.total_memory());
        MagazineCache {
            backend,
            name,
            config,
            classes,
            slots,
            shards,
            group_count,
            group_shards,
            group_shard_mask: group_shards - 1,
            ctl,
            budget,
            shard_budget: budget / shard_count,
            inspect_lock: SpinLock::new(()),
            orphans: SpinLock::new(Vec::new()),
            orphaned: AtomicBool::new(false),
            counters: Counters::default(),
            obs: None,
        }
    }

    /// Attaches a latency recorder to the cache's slow paths: misses
    /// ([`nbbs_obs::OpKind::CacheMiss`]), batched refills
    /// ([`nbbs_obs::OpKind::CacheRefill`]) and whole-magazine flushes
    /// ([`nbbs_obs::OpKind::CacheFlush`]).  Hits are deliberately not
    /// timed — the hit path is the product, and two TSC reads per hit
    /// would be the largest cost on it.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.obs = Some(recorder);
        self
    }

    /// Sets or clears the slow-path recorder in place.
    pub fn set_recorder(&mut self, recorder: Option<Arc<Recorder>>) {
        self.obs = recorder;
    }

    /// The attached slow-path recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.obs.as_ref()
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &A {
        &self.backend
    }

    /// The cache configuration in effect.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of cached size classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of thread slots (the shared slots not counted).
    pub fn slot_count(&self) -> usize {
        self.slots.slot_count()
    }

    /// Number of depot shards magazine exchange is distributed over.
    pub fn depot_shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of node-group banks the depot shards are partitioned into.
    pub fn node_group_count(&self) -> usize {
        self.group_count
    }

    /// The node-group bank of the calling thread (always 0 without
    /// [`CacheConfig::node_groups`]).
    fn current_group(&self) -> usize {
        if self.group_count == 1 {
            0
        } else {
            // `group_count` is a power of two.
            self.config.node_of.map_or(0, |f| f.call()) & (self.group_count - 1)
        }
    }

    /// The depot shard a given slot exchanges magazines with, for the
    /// calling thread: its node-group bank, then its slot's shard within
    /// the bank.
    #[inline]
    fn shard_of(&self, slot_idx: usize) -> usize {
        self.current_group() * self.group_shards + (slot_idx & self.group_shard_mask)
    }

    /// The depot shard the calling thread exchanges magazines with.
    pub fn current_shard(&self) -> usize {
        self.shard_of(thread_stripe(self.slots.slot_count()))
    }

    /// Full magazines currently parked in depot shard `shard` (approximate
    /// under concurrency, exact at quiescence).
    pub fn depot_parked_magazines(&self, shard: usize) -> usize {
        self.shards[shard].parked_magazines()
    }

    /// The current adaptive magazine-capacity target of size class `class`.
    pub fn magazine_capacity(&self, class: usize) -> usize {
        self.ctl[class].cap.load(Ordering::Relaxed)
    }

    /// Every class's current adaptive capacity target, as
    /// `(class_size, capacity)` pairs in ascending class order: what
    /// [`BuddyBackend::cache_class_capacities`] reports.
    pub fn class_capacities(&self) -> Vec<(usize, usize)> {
        (0..self.classes.len())
            .map(|c| (self.class_size(c), self.magazine_capacity(c)))
            .collect()
    }

    /// The resolved byte budget bounding the cache's parked chunks.
    pub fn cache_bytes_budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently parked in magazines and depots (allocated in the
    /// backend, available for cache hits): each slot's magazine lengths
    /// times their class size, plus the per-shard counters and any
    /// panic-stranded chunks — the same magazines
    /// [`MagazineCache::cached_chunks`] lists, so the two agree by
    /// construction.  A remote read-out (see *Consistency* on the type).
    pub fn cached_bytes(&self) -> usize {
        // Panic-stranded chunks count as cached until rescued: they are
        // live in the backend and held by nobody, exactly like a parked
        // chunk.  The flag check keeps the common case lock-free.
        let stranded = if self.orphaned.load(Ordering::Relaxed) {
            self.orphans.lock().iter().map(|&(_, size)| size).sum()
        } else {
            0
        };
        let mut in_slots = 0;
        self.slots.for_each_slot(|slot| {
            in_slots += slot
                .mags
                .iter()
                .zip(self.classes.iter())
                .map(|(pair, &size)| pair.len() * size)
                .sum::<usize>();
        });
        in_slots + self.shards.iter().map(|s| s.bytes()).sum::<usize>() + stranded
    }

    /// Size in bytes of class `class`.
    #[inline]
    fn class_size(&self, class: usize) -> usize {
        self.classes[class]
    }

    /// Size class caching chunks of exactly `granted` bytes, if cached.
    /// Granted sizes above the cutoff (or from a backend whose ladder the
    /// probe did not see) simply are not in the table and pass through.
    #[inline]
    fn class_of_granted(&self, granted: usize) -> Option<usize> {
        self.classes.binary_search(&granted).ok()
    }

    /// The adaptive capacity ceiling of `class`: the configured maximum,
    /// further bounded so one magazine never exceeds 1/8 of the byte budget.
    fn max_capacity_for(&self, class: usize) -> usize {
        let by_budget = self.budget / (8 * self.class_size(class));
        self.config.max_magazine_capacity.min(by_budget).max(2)
    }

    /// Records a depot spill of `class` and grows its capacity once the
    /// spill run is long enough.
    fn note_spill(&self, class: usize) {
        self.counters.depot_spills.fetch_add(1, Ordering::Relaxed);
        let ctl = &self.ctl[class];
        if ctl.spills.fetch_add(1, Ordering::Relaxed) + 1 < GROW_SPILL_MAGAZINES {
            return;
        }
        ctl.spills.store(0, Ordering::Relaxed);
        let cur = ctl.cap.load(Ordering::Relaxed);
        let target = (cur * 2).min(self.max_capacity_for(class));
        if target > cur
            && ctl
                .cap
                .compare_exchange(cur, target, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.counters.resize_grows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records byte-budget pressure on `class` and shrinks its capacity.
    fn note_pressure(&self, class: usize) {
        self.counters.depot_spills.fetch_add(1, Ordering::Relaxed);
        let ctl = &self.ctl[class];
        let cur = ctl.cap.load(Ordering::Relaxed);
        let target = (cur / 2).max(2);
        if target < cur
            && ctl
                .cap
                .compare_exchange(cur, target, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.counters.resize_shrinks.fetch_add(1, Ordering::Relaxed);
            ctl.spills.store(0, Ordering::Relaxed);
        }
    }

    /// Publishes chunks a panic stranded mid-flight; the next toucher
    /// rescues them.  Called from [`OrphanGuard::drop`] during unwinds.
    fn publish_orphans(&self, chunks: &mut Vec<(usize, usize)>) {
        self.orphans.lock().append(chunks);
        self.orphaned.store(true, Ordering::Release);
    }

    /// Returns any panic-stranded chunks to the backend.  Invoked by the
    /// next toucher of the slow path (miss refills, drains, `Drop`); costs
    /// one relaxed load when there is nothing to rescue.  A panic during
    /// the rescue itself re-strands the remainder — chunks are popped only
    /// after their free completed, relying on the `nbbs-chaos` contract
    /// that injected panics fire *before* the wrapped operation.
    fn rescue_orphans(&self) {
        if !self.orphaned.load(Ordering::Relaxed) {
            return;
        }
        if !self.orphaned.swap(false, Ordering::Acquire) {
            return;
        }
        let stranded = std::mem::take(&mut *self.orphans.lock());
        if stranded.is_empty() {
            return;
        }
        let rescued = stranded.len() as u64;
        let mut guard = OrphanGuard {
            cache: self,
            chunks: stranded,
        };
        Recorder::time(
            &self.obs,
            OpKind::OrphanRescue,
            || {
                while let Some(&(off, _)) = guard.chunks.last() {
                    self.backend.dealloc(off);
                    guard.chunks.pop();
                    self.counters.orphan_rescues.fetch_add(1, Ordering::Relaxed);
                }
            },
            |_| (rescued, true),
        );
    }

    /// One backend allocation attempt for a refill, with bounded
    /// retry-with-jittered-backoff on *transient* failures.  Hard failures
    /// (`AllocError::OutOfMemory` / `AllocError::TooLarge`) return
    /// `None` immediately — genuine exhaustion must reach the caller (and
    /// the facade's reserve/failover machinery) without added latency.
    fn backend_alloc_retrying(&self, class_size: usize, salt: u64) -> Option<usize> {
        let mut attempt = 0u32;
        let backoff = Backoff::new();
        loop {
            match self.backend.try_alloc(class_size) {
                Ok(off) => return Some(off),
                Err(e) if e.is_transient() && attempt < TRANSIENT_RETRIES => {
                    attempt += 1;
                    self.counters
                        .transient_retries
                        .fetch_add(1, Ordering::Relaxed);
                    // One retry round: the latency is the backoff spin.
                    Recorder::time(
                        &self.obs,
                        OpKind::TransientRetry,
                        || backoff.spin_jittered(salt ^ (u64::from(attempt) << 32)),
                        |_| (u64::from(attempt), true),
                    );
                }
                Err(_) => return None,
            }
        }
    }

    /// Serves one allocation of class `class`, preferring the magazines.
    fn alloc_cached(&self, class: usize) -> Option<usize> {
        let class_size = self.class_size(class);
        // A hit leaves the slot with its chunk; a miss with the stripe and
        // the refill batch its pair is sized for.
        let entered = self.slots.with_mine(|slot_idx, slot| {
            let pair = &mut slot.mags[class];
            if let Some(off) = pair.loaded.pop() {
                slot.hits += 1;
                return Ok(off);
            }
            if !pair.previous.is_empty() {
                std::mem::swap(&mut pair.loaded, &mut pair.previous);
                let off = pair.loaded.pop().expect("swapped magazine is non-empty");
                slot.hits += 1;
                return Ok(off);
            }

            // Both magazines empty: exchange with the slot group's depot
            // shard (a full magazine in via one lock-free pop, our empty
            // `loaded` out — recirculated as the spare for the next overflow
            // rotation).
            if let Some(full) = self.shards[self.shard_of(slot_idx)].pop_full(class, class_size) {
                let empty = std::mem::replace(&mut pair.loaded, full);
                pair.spare.get_or_insert(empty);
                self.counters
                    .depot_exchanges
                    .fetch_add(1, Ordering::Relaxed);
                let off = pair.loaded.pop().expect("depot magazines are full");
                slot.hits += 1;
                return Ok(off);
            }

            // Own shard dry too.  Both magazines are empty, which is the one
            // safe point to adopt a changed adaptive capacity for this
            // slot's pair; size the refill batch now as well, then leave the
            // slot — the backend refill below runs outside it, so a remote
            // read-out (or, on the shared slot, another thread's hit) is not
            // stalled behind our tree walks (mirror of the flush in
            // `dealloc_cached`).
            let target = self.ctl[class].cap.load(Ordering::Relaxed);
            if pair.loaded.capacity() != target {
                pair.loaded.set_capacity(target);
                pair.previous.set_capacity(target);
            }
            Err((
                slot_idx,
                (pair.loaded.capacity() / 2).clamp(1, REFILL_BATCH_MAX),
            ))
        });
        let (slot_idx, batch) = match entered {
            Ok(off) => return Some(off),
            Err(miss) => miss,
        };

        // Miss: batched refill from the backend.  A miss already pays for a
        // tree walk, so it is also the natural point to return any chunks a
        // panicked predecessor stranded (one relaxed load when there are
        // none).
        self.rescue_orphans();
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let first = Recorder::time(
            &self.obs,
            OpKind::CacheMiss,
            || self.backend_alloc_retrying(class_size, slot_idx as u64),
            |first| (class as u64, first.is_some()),
        )?;
        // Every chunk below is in flight outside any lock until it lands in
        // a magazine or back in the backend; the guard publishes whatever is
        // still in flight if a backend call unwinds (an injected panic), so
        // nothing leaks.  Index 0 is `first`, reserved for the caller.
        let mut guard = OrphanGuard {
            cache: self,
            chunks: Vec::with_capacity(batch + 1),
        };
        guard.chunks.push((first, class_size));
        // A refill the backend gave nothing to records as failed: the ring
        // then shows the tree running dry right behind the miss.
        Recorder::time(
            &self.obs,
            OpKind::CacheRefill,
            || self.refill(class, batch, &mut guard),
            |&refilled| (refilled.unwrap_or(0), refilled.is_some()),
        );
        let (first, _) = guard.chunks.pop().expect("first survives the refill");
        Some(first)
    }

    /// The batched half of a miss: allocates up to `batch` more chunks of
    /// `class` behind `guard.chunks[0]`, loads what fits into the calling
    /// thread's magazines and hands any surplus back.  Returns how many
    /// chunks were loaded, `None` when the backend had none to give.
    fn refill(&self, class: usize, batch: usize, guard: &mut OrphanGuard<'_, A>) -> Option<u64> {
        let class_size = self.class_size(class);
        for _ in 0..batch {
            match self.backend.alloc(class_size) {
                Some(off) => guard.chunks.push((off, class_size)),
                None => break,
            }
        }
        if guard.chunks.len() == 1 {
            return None;
        }
        // The slot may have changed since the miss left it; load whatever
        // fits and hand any surplus back to the backend.
        let refilled = self.slots.with_mine(|_, slot| {
            let pair = &mut slot.mags[class];
            let mut refilled = 0u64;
            while guard.chunks.len() > 1 {
                let (off, _) = *guard.chunks.last().expect("len checked above");
                let target = if !pair.loaded.is_full() {
                    &mut pair.loaded
                } else if !pair.previous.is_full() {
                    &mut pair.previous
                } else {
                    break;
                };
                target.push(off);
                guard.chunks.pop();
                refilled += 1;
            }
            refilled
        });
        if refilled > 0 {
            self.counters
                .refilled
                .fetch_add(refilled, Ordering::Relaxed);
        }
        // Surplus beyond what fit: freed before popped, so a panicked
        // dealloc strands only the chunks it has not yet returned.
        while guard.chunks.len() > 1 {
            let (off, _) = *guard.chunks.last().expect("len checked above");
            self.backend.dealloc(off);
            guard.chunks.pop();
        }
        Some(refilled)
    }

    /// Absorbs one release of class `class`.
    fn dealloc_cached(&self, class: usize, offset: usize) {
        let overflow = self.slots.with_mine(|slot_idx, slot| {
            let pair = &mut slot.mags[class];
            let mut overflow = None;
            if pair.loaded.is_full() {
                if pair.previous.is_empty() {
                    std::mem::swap(&mut pair.loaded, &mut pair.previous);
                } else {
                    // Both full: move `previous` out of the way (reusing the
                    // spare empty from an earlier depot exchange when one is
                    // around, retargeted to the current adaptive capacity),
                    // then rotate.
                    let target_cap = self.ctl[class].cap.load(Ordering::Relaxed);
                    let mut empty = pair
                        .spare
                        .take()
                        .unwrap_or_else(|| Magazine::new(target_cap));
                    debug_assert!(empty.is_empty());
                    if empty.capacity() != target_cap {
                        empty.set_capacity(target_cap);
                    }
                    let full = std::mem::replace(&mut pair.previous, empty);
                    std::mem::swap(&mut pair.loaded, &mut pair.previous);
                    overflow = Some((full, slot_idx));
                }
            }
            pair.loaded.push(offset);
            slot.cached_frees += 1;
            overflow
        });
        if let Some((full, slot_idx)) = overflow {
            // Parking (and a possible backend flush of a whole magazine)
            // happens outside the slot, so a remote read-out (or another
            // user of the shared slot) is not stalled behind it.
            self.park_full_magazine(class, full, slot_idx);
        }
    }

    /// Parks a full magazine in the slot group's depot shard, or returns its
    /// chunks to the backend when the shard is at capacity or the shard's
    /// share of the byte budget is exhausted.
    ///
    /// `full` must hold at least one chunk: the depot's pop consumer
    /// (`alloc_cached`'s exchange) assumes parked magazines are non-empty.
    fn park_full_magazine(&self, class: usize, mut full: Magazine, slot_idx: usize) {
        debug_assert!(!full.is_empty(), "parking an empty magazine");
        let class_size = self.class_size(class);
        let in_flight = full.len() * class_size;
        let shard = &self.shards[self.shard_of(slot_idx)];
        if shard.bytes() + in_flight <= self.shard_budget {
            match shard.push_full(class, class_size, full) {
                Ok(()) => {
                    self.counters
                        .depot_exchanges
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(rejected) => {
                    // Shard at capacity: this class's bursts outrun the
                    // depot — a grow signal.
                    full = rejected;
                    self.note_spill(class);
                }
            }
        } else {
            // Byte budget exhausted — a shrink signal.
            self.note_pressure(class);
        }
        self.flush_magazine(full, class_size);
    }

    /// Returns a magazine's chunks to the backend, counting them as flushed.
    fn flush_magazine(&self, mut mag: Magazine, class_size: usize) {
        let n = mag.len() as u64;
        Recorder::time(
            &self.obs,
            OpKind::CacheFlush,
            || {
                let mut guard = OrphanGuard {
                    cache: self,
                    chunks: mag
                        .take_all()
                        .into_iter()
                        .map(|off| (off, class_size))
                        .collect(),
                };
                while let Some(&(off, _)) = guard.chunks.last() {
                    self.backend.dealloc(off);
                    guard.chunks.pop();
                    self.counters.flushed.fetch_add(1, Ordering::Relaxed);
                }
            },
            |_| (n, true),
        );
    }

    /// Returns every chunk cached by the calling thread's slot to the
    /// backend, and gives the slot up so the next thread mapping to it can
    /// own it.
    ///
    /// Call this before a thread exits (or use [`MagazineCache::thread_guard`]
    /// for an RAII version; a `#[global_allocator]` shell runs it from the
    /// thread's exit hook) so chunks do not linger in a slot no live thread
    /// maps to, and the slot does not stay claimed by a dead thread.
    /// Draining is safe at any time; it only costs future hits, and a thread
    /// that goes on allocating claims its slot again.  It drains its
    /// stripe's shared slot too: a thread uses it while another live thread
    /// holds its stripe, and may since have come to own its own slot, so
    /// what it parked there would otherwise outlive it.  That takes the
    /// magazines of the co-located threads — those now on the same shared
    /// slot — as well: still correct, merely conservative.
    pub fn drain_current_thread(&self) {
        let mut drained = Vec::new();
        self.slots
            .with_mine(|_, slot| self.take_slot(slot, &mut drained));
        self.slots
            .with_shared(|slot| self.take_slot(slot, &mut drained));
        self.slots.release_mine();
        self.release_drained(drained);
    }

    /// Moves every chunk out of `slot`'s magazines into `drained`.
    fn take_slot(&self, slot: &mut Slot, drained: &mut Vec<(usize, usize)>) {
        for (class, pair) in slot.mags.iter_mut().enumerate() {
            let class_size = self.class_size(class);
            for off in pair
                .loaded
                .take_all()
                .into_iter()
                .chain(pair.previous.take_all())
            {
                drained.push((off, class_size));
            }
        }
    }

    /// Returns every cached chunk — all slots and all depot shards — to the
    /// backend.
    ///
    /// Intended for quiescent points (benchmark epochs, verification, final
    /// teardown); also invoked by `Drop`.  Enters every slot as a remote
    /// (see *Consistency* on the type).
    pub fn drain_all(&self) {
        let mut drained = Vec::new();
        self.slots
            .for_each_slot(|slot| self.take_slot(slot, &mut drained));
        // Exclude concurrent inspections: their temporarily popped magazines
        // would otherwise dodge the drain and be restored afterwards.
        let _inspecting = self.inspect_lock.lock();
        for shard in self.shards.iter() {
            for class in 0..self.classes.len() {
                let class_size = self.class_size(class);
                for mut m in shard.drain_class(class, class_size) {
                    for off in m.take_all() {
                        drained.push((off, class_size));
                    }
                }
            }
        }
        drop(_inspecting);
        self.release_drained(drained);
        // A full drain is the designated recovery point: return whatever a
        // panicked thread stranded as well, so `verify_cached_empty` after a
        // storm sees a truly empty cache.
        self.rescue_orphans();
    }

    fn release_drained(&self, drained: Vec<(usize, usize)>) {
        if drained.is_empty() {
            return;
        }
        // Freed before popped: a panic mid-release publishes exactly the
        // chunks not yet returned, never double-freeing the rest.
        let mut guard = OrphanGuard {
            cache: self,
            chunks: drained,
        };
        while let Some(&(off, _)) = guard.chunks.last() {
            self.backend.dealloc(off);
            guard.chunks.pop();
            self.counters.drained.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// RAII guard draining the calling thread's slot, and giving it up,
    /// when dropped ([`MagazineCache::drain_current_thread`]).
    pub fn thread_guard(&self) -> ThreadDrainGuard<'_, A> {
        ThreadDrainGuard { cache: self }
    }

    /// Runs `f` over the magazines parked in the depot shards until `f`
    /// returns `true` (stop) or every magazine has been visited.
    ///
    /// A lock-free stack cannot be iterated in place, so each shard's
    /// magazines are temporarily popped and pushed back afterwards; an
    /// early stop only ever holds one class's magazines in flight.  At
    /// quiescence (the documented contract of the callers) the restore
    /// always succeeds; if a concurrent thread races a slot away, the
    /// affected magazine's chunks are flushed to the backend — a correctness
    /// backstop, not an expected path.
    fn inspect_depot(&self, mut f: impl FnMut(usize, &Magazine) -> bool) {
        // Serialize inspections: while one caller holds a shard's magazines
        // popped, a concurrent inspection would see the shard empty and miss
        // stably parked offsets (breaking `try_dealloc`'s double-free
        // rejection).  Hot-path exchanges are unaffected — they may race an
        // inspection and simply fall through to the backend.
        let _inspecting = self.inspect_lock.lock();
        for shard in self.shards.iter() {
            for class in 0..self.classes.len() {
                let class_size = self.class_size(class);
                let mags = shard.drain_class(class, class_size);
                let mut stop = false;
                for m in &mags {
                    stop = f(class_size, m);
                    if stop {
                        break;
                    }
                }
                for m in mags {
                    if let Err(rejected) = shard.push_full(class, class_size, m) {
                        self.flush_magazine(rejected, class_size);
                    }
                }
                if stop {
                    return;
                }
            }
        }
    }

    /// Every chunk currently parked in the cache, as `(offset, size)` pairs.
    ///
    /// Only meaningful at quiescence (no concurrent cache operations); used
    /// by [`crate::verify_cached`] to audit the backend treating cached
    /// chunks as live.
    pub fn cached_chunks(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.slots.for_each_slot(|slot| {
            for (class, pair) in slot.mags.iter().enumerate() {
                let class_size = self.class_size(class);
                for &off in pair.loaded.entries().iter().chain(pair.previous.entries()) {
                    out.push((off, class_size));
                }
            }
        });
        self.inspect_depot(|class_size, m| {
            for &off in m.entries() {
                out.push((off, class_size));
            }
            false
        });
        // Panic-stranded chunks are cached too (backend-live, caller-free):
        // including them keeps `verify_cached`'s conservation audit honest
        // between a storm and the rescuing drain.
        out.extend(self.orphans.lock().iter().copied());
        out
    }

    /// Whether `offset` is currently parked in a magazine or the depot.
    ///
    /// Linear in the cache's contents — intended for the checked release
    /// path and tests, not the hot path.  Only reliable for offsets that are
    /// not concurrently moving through the cache.  A remote entry of every
    /// slot (see *Consistency* on the type): its heavy barrier interrupts
    /// every running thread of the process, so a thread that calls it in a
    /// loop (checked frees one after another) slows the others' hits, not
    /// only its own calls.
    pub fn contains_cached(&self, offset: usize) -> bool {
        let mut found = false;
        self.slots.for_each_slot(|slot| {
            found = found
                || slot.mags.iter().any(|pair| {
                    pair.loaded.entries().contains(&offset)
                        || pair.previous.entries().contains(&offset)
                });
        });
        if found {
            return true;
        }
        self.inspect_depot(|_, m| {
            found = m.entries().contains(&offset);
            found
        });
        found || self.orphans.lock().iter().any(|&(off, _)| off == offset)
    }

    /// Point-in-time copy of the cache counters: the slow-path atomics,
    /// plus `hits` and `cached_frees` folded from the per-slot tallies.  A
    /// remote read-out (see *Consistency* on the type).
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        let (mut hits, mut cached_frees) = (0, 0);
        self.slots.for_each_slot(|slot| {
            hits += slot.hits;
            cached_frees += slot.cached_frees;
        });
        CacheStatsSnapshot {
            hits,
            misses: self.counters.misses.load(Ordering::Relaxed),
            cached_frees,
            flushed: self.counters.flushed.load(Ordering::Relaxed),
            refilled: self.counters.refilled.load(Ordering::Relaxed),
            depot_exchanges: self.counters.depot_exchanges.load(Ordering::Relaxed),
            drained: self.counters.drained.load(Ordering::Relaxed),
            depot_spills: self.counters.depot_spills.load(Ordering::Relaxed),
            resize_grows: self.counters.resize_grows.load(Ordering::Relaxed),
            resize_shrinks: self.counters.resize_shrinks.load(Ordering::Relaxed),
            transient_retries: self.counters.transient_retries.load(Ordering::Relaxed),
            orphan_rescues: self.counters.orphan_rescues.load(Ordering::Relaxed),
            depot_shards: self.shards.len() as u64,
        }
    }
}

impl<A: BuddyBackend> BuddyBackend for MagazineCache<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn geometry(&self) -> &Geometry {
        self.backend.geometry()
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        // The backend names the class: `granted_size_for` is the same ladder
        // the constructor probed, so a hit here is a magazine class by
        // construction — power-of-two orders over a plain tree, slab classes
        // over a slab front-end.
        match self
            .backend
            .granted_size_for(size)
            .and_then(|granted| self.class_of_granted(granted))
        {
            Some(class) => self.alloc_cached(class),
            None => self.backend.alloc(size),
        }
    }

    fn dealloc(&self, offset: usize) {
        match self
            .backend
            .granted_size_of_live(offset)
            .and_then(|granted| self.class_of_granted(granted))
        {
            Some(class) => self.dealloc_cached(class, offset),
            // Unknown size class (backend without the lookup hook, or a
            // class above the cutoff): pass straight through.
            None => self.backend.dealloc(offset),
        }
    }

    /// The release for a caller that knows the chunk's granted size: the
    /// class comes from `granted`, so a chunk that parks in a magazine
    /// touches nothing but this thread's slot.  Shares `dealloc_cached`
    /// with [`BuddyBackend::dealloc`]; the two differ only in where the
    /// class comes from.  A size that is not one of the cache's classes
    /// goes on to the backend, size attached.
    fn dealloc_sized(&self, offset: usize, granted: usize) {
        // The audit of the caller's claim, on every sized free of every
        // suite run in debug; release builds never ask.
        debug_assert_eq!(
            self.backend.granted_size_of_live(offset),
            Some(granted),
            "sized free of offset {offset} names the wrong class"
        );
        match self.class_of_granted(granted) {
            Some(class) => self.dealloc_cached(class, offset),
            None => self.backend.dealloc_sized(offset, granted),
        }
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        // Against the backend's logical span: over a slotted set the
        // widened geometry runs past the last slot.
        self.backend
            .geometry()
            .check_release_offset(offset, self.backend.total_memory())?;
        match self
            .backend
            .granted_size_of_live(offset)
            .and_then(|granted| self.class_of_granted(granted))
        {
            Some(class) => {
                // The backend considers a parked chunk live, so a double
                // free of a cached offset would be absorbed silently and the
                // chunk handed out twice.  The checked path pays a cache
                // scan to reject it.
                if self.contains_cached(offset) {
                    return Err(FreeError::NotAllocated { offset });
                }
                self.dealloc_cached(class, offset);
                Ok(())
            }
            None => self.backend.try_dealloc(offset),
        }
    }

    /// Everything the cache does not answer itself goes to the backend —
    /// the scrubber's claim and release among it, which is what takes them
    /// *past* the magazines: a parked chunk is allocated in the backend, so
    /// the claim CAS refuses it, and a scrubbed (decommitted) block parked
    /// in a magazine could never coalesce or be claimed again.
    fn inner(&self) -> Option<&dyn BuddyBackend> {
        Some(&self.backend)
    }

    fn allocated_bytes(&self) -> usize {
        // Chunks parked in magazines are allocated in the backend but free
        // from the caller's perspective.  Loads race benignly with in-flight
        // operations (same contract as the backends' own counter).
        self.backend
            .allocated_bytes()
            .saturating_sub(self.cached_bytes())
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        self.backend.granted_size_of_live(offset)
    }

    fn granted_size_for(&self, size: usize) -> Option<usize> {
        // Forwarded, not derived from the geometry: a slab front-end
        // underneath grants spaced (non-power-of-two) classes.
        self.backend.granted_size_for(size)
    }

    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        self.backend.grant_alignment_for(size)
    }

    fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        Some(self.snapshot())
    }

    fn cache_class_capacities(&self) -> Option<Vec<(usize, usize)>> {
        Some(self.class_capacities())
    }

    fn drain_cache(&self) {
        // Our own chunks first: for nested caches, `drain_all` returns them
        // via `backend.dealloc`, which an inner cache absorbs into its
        // magazines — the inner drain below then pushes everything to the
        // tree.  The opposite order would leave our chunks re-parked inside
        // the freshly-drained inner cache.
        self.drain_all();
        self.backend.drain_cache();
    }
}

impl<A: BuddyBackend> Drop for MagazineCache<A> {
    fn drop(&mut self) {
        // Return every parked chunk so the backend's accounting reaches zero
        // when the cache (and everything above it) is done.
        self.drain_all();
    }
}

impl<A: BuddyBackend + TreeInspect> TreeInspect for MagazineCache<A> {
    fn inspect_geometry(&self) -> &Geometry {
        self.backend.inspect_geometry()
    }

    fn node_status(&self, n: usize) -> u8 {
        self.backend.node_status(n)
    }

    fn recorded_node_of_unit(&self, unit: usize) -> Option<usize> {
        self.backend.recorded_node_of_unit(unit)
    }
}

impl<A: BuddyBackend + std::fmt::Debug> std::fmt::Debug for MagazineCache<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MagazineCache")
            .field("name", &self.name)
            .field("classes", &self.classes)
            .field("slots", &self.slots.slot_count())
            .field("shards", &self.shards.len())
            .field("budget", &self.budget)
            .field("cached_bytes", &self.cached_bytes())
            .field("backend", &self.backend)
            .finish()
    }
}

/// Drains the owning thread's slot and gives it up on drop; see
/// [`MagazineCache::thread_guard`].
pub struct ThreadDrainGuard<'a, A: BuddyBackend> {
    cache: &'a MagazineCache<A>,
}

impl<A: BuddyBackend> Drop for ThreadDrainGuard<'_, A> {
    fn drop(&mut self) {
        self.cache.drain_current_thread();
    }
}

/// Holds chunks that are in flight outside any lock (mid-refill, mid-flush,
/// mid-drain).  On the happy path the owning loop empties `chunks` before
/// the guard drops and this is free; if a backend call unwinds, whatever is
/// still held is published to the cache's orphan list for the next toucher
/// to rescue — a panicked thread thus never leaks a chunk, never leaves a
/// slot wedged, and never double-frees (loops pop an entry only after its
/// backend call completed).
struct OrphanGuard<'a, A: BuddyBackend> {
    cache: &'a MagazineCache<A>,
    chunks: Vec<(usize, usize)>,
}

impl<A: BuddyBackend> Drop for OrphanGuard<'_, A> {
    fn drop(&mut self) {
        if !self.chunks.is_empty() {
            self.cache.publish_orphans(&mut self.chunks);
        }
    }
}
