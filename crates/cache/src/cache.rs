//! The magazine cache front-end.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use nbbs::error::FreeError;
use nbbs::{BuddyBackend, CacheStatsSnapshot, Geometry, ShellStatsSnapshot, TreeInspect};
use nbbs_obs::{OpKind, Recorder};
use nbbs_sync::{thread_stripe, CachePadded, OwnedSlots, SpinLock};

use crate::config::{
    budget, initial_capacity, shard_count, slot_count, DEPOT_MAGAZINES, MAX_MAGAZINE_ENTRIES,
};
use crate::depot::DepotShard;
use crate::magazine::{ClassMags, Magazine};

/// Spilled magazines of one class (since the last capacity change) that
/// trigger a doubling of that class's magazine capacity: a burst that keeps
/// overrunning the depot is cheaper to absorb in fewer, larger magazines.
const GROW_SPILL_MAGAZINES: usize = 2;

/// Ceiling on the batched backend refill a miss performs (chunks).
/// Adaptively grown magazines can reach thousands of entries — useful for
/// absorbing free bursts — but a cold miss must not turn into a
/// multi-thousand-chunk tree walk.
const REFILL_BATCH_MAX: usize = 64;

/// Builds the flat request → class table over an ascending class ladder
/// and each class's alignment: one entry per granule — the largest power
/// of two dividing every class — up to the largest class, each naming the
/// smallest class that holds the granule's top size in its low byte and
/// `log2` of that class's alignment in its high byte.  Returns the table
/// and `log2` of the granule.
fn class_table(classes: &[usize], alignment: impl Fn(usize) -> usize) -> (Box<[u16]>, u32) {
    let shift = classes
        .iter()
        .map(|size| size.trailing_zeros())
        .min()
        .unwrap_or(0);
    let mut table = Vec::with_capacity(classes.last().map_or(0, |&largest| largest >> shift));
    for (class, &size) in classes.iter().enumerate() {
        let class = u8::try_from(class).expect("at most 256 cached classes");
        let align = alignment(size);
        debug_assert!(align.is_power_of_two(), "alignment {align} of class {size}");
        // The granules above the previous class, up to and with this one.
        table.resize(
            size >> shift,
            u16::from(class) | (align.trailing_zeros() as u16) << 8,
        );
    }
    (table.into(), shift)
}

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
    orphan_rescues: AtomicU64,
}

/// One thread slot — everything an entry of it may touch: the per-class
/// magazine pairs and the slot's share of the tallies, plain integers
/// bumped inside the entry a grant or a park makes anyway.  The bytes a
/// slot parks are not stored: [`MagazineCache::cached_bytes`] sums them
/// from the magazine lengths.
#[derive(Default)]
struct Slot {
    mags: Vec<ClassMags>,
    /// Allocations this slot served from a magazine.
    hits: u64,
    /// Releases this slot absorbed into a magazine.
    cached_frees: u64,
    /// Bytes asked for by the grants served through this slot
    /// ([`MagazineCache::alloc_class`]).
    requested: u64,
    /// Bytes those grants were given (their class sizes).
    granted: u64,
    /// The realloc split counted in this slot
    /// ([`MagazineCache::count_resize`]), indexed `2 * grew + moved`.
    resizes: [u64; 4],
}

// `OwnedSlots` pads each entry to whole 128 B lines: the claim's line, then
// the slot's flags and this struct.  Up to 120 B that is 256 B; past it
// every entry takes a third line, which moves a burst-and-idle workload's
// resident set.
const _: () = assert!(std::mem::size_of::<Slot>() <= 120);

impl Slot {
    /// A hit of class `class`: pops the pair, counts it and books
    /// `requested` and `granted` bytes.
    #[inline]
    fn pop(&mut self, class: usize, requested: usize, granted: usize) -> Option<usize> {
        let popped = self.mags[class].pop()?;
        self.hits += 1;
        self.requested += requested as u64;
        self.granted += granted as u64;
        Some(popped)
    }

    /// A park of class `class`, counted; `false` when both magazines are
    /// full or the one it would push into has no buffer left
    /// ([`ClassMags::push`]): it never allocates.
    #[inline]
    fn park(&mut self, class: usize, offset: usize) -> bool {
        let parked = self.mags[class].push(offset);
        self.cached_frees += u64::from(parked);
        parked
    }

    /// [`Slot::park`] that grows a drained magazine's buffer.
    fn park_growing(&mut self, class: usize, offset: usize) -> bool {
        let parked = self.mags[class].push_growing(offset);
        self.cached_frees += u64::from(parked);
        parked
    }
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
/// A request is resolved to its class once, by one read of a flat table
/// built from the probed ladder ([`MagazineCache::class_of_request`]: two
/// bytes per granule up to the largest class, the class and the `log2` of
/// its alignment).  The same table answers
/// [`BuddyBackend::granted_size_for`], [`BuddyBackend::grant_alignment_for`]
/// and a sized free's class for every cached size, so a cached request
/// never asks the backend what it would grant.  The trait's calls and a
/// front end that resolved the class itself (the `nbbs-alloc` global
/// shell) share two class-level entry points, [`MagazineCache::alloc_class`]
/// and [`MagazineCache::free_class`]: a hit or a park is one inlined slot
/// entry, the depot, refill and flush are out of line.  A grant books its
/// requested and granted bytes in the slot ([`MagazineCache::served`] sums
/// them) and calls nothing below the slot: over a `BuddyRegion` (the
/// global shell's stack) a refill commits the pages of the blocks it takes,
/// and a parked chunk is live in the backend, out of the scrubber's reach.
///
/// The hit and the park are also exposed alone,
/// [`MagazineCache::try_hit`] and [`MagazineCache::try_park`]: an owner
/// entry that allocates nothing and never waits, refusing (with nothing
/// done) whatever it cannot finish there, so a front end can inline them
/// and send the rest to the out-of-line halves of
/// `alloc_class`/`free_class`, [`MagazineCache::alloc_miss`] and
/// [`MagazineCache::free_overflow`].  A slot's magazine
/// emptied by a drain has no buffer left, so a park into it refuses and
/// `free_class` grows the buffer out of line (`Vec::push`'s growth), and a
/// refill after a drain grows it the same way inside its entry.  Under a
/// registered `#[global_allocator]` those allocations come back to the
/// allocator on the same thread; the front end must send them past the
/// cache (the global shell's bypass latch does, and its inlined hit and
/// park, which never allocate, run without it).
///
/// Slots are grouped into shards (one depot shard per group, the analogue of
/// per-NUMA-node depots), so full/empty magazine circulation stops at the
/// group boundary instead of bouncing chunks across the whole machine.
///
/// The cache takes its shape from the backend and from the constants of
/// the crate's `config.rs`: a class's magazine starts at a fixed byte size
/// (within a floor and a ceiling of entries, so the smallest classes start
/// below it and the largest above), each depot shard keeps a fixed number
/// of full magazines per class, and the byte budget is a fixed share of
/// the backend's [`BuddyBackend::total_memory`];
/// [`MagazineCache::class_capacities`] and
/// [`MagazineCache::cache_bytes_budget`] read them back.  The one settable
/// value is the slot count ([`MagazineCache::with_slots`]); the depot
/// shards follow it ([`MagazineCache::depot_shard_count`]).
///
/// Magazine capacities are *adaptive* (Bonwick's dynamic resizing): a class
/// whose bursts keep spilling past its depot shard doubles its capacity.
/// Growth stops at a ceiling of entries and at an eighth of the byte
/// budget per magazine.  That is a rule on growth only: a class may start above it (a
/// 4 KiB class over a 64 KiB span starts at 8 × 4 KiB = 32 KiB against a
/// 16 KiB budget), and then it does not grow.  Capacities only grow.  The
/// budget bounds the total bytes parked: a full magazine that would take
/// its depot shard past its share goes back to the backend whole, and the
/// class keeps its capacity.
///
/// `MagazineCache` implements [`BuddyBackend`] itself, so it nests unchanged
/// inside `BuddyRegion` (so under the `nbbs-alloc` facade), a NUMA
/// `NodeSet` and the workload factory; the global shell puts it over one.
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
/// `hits` / `cached_frees` tallies and of the served bytes and realloc
/// split, so a hit counts itself with plain increments inside the entry it
/// makes anyway.  Nothing stores how many bytes a slot parks.  The
/// read-outs and drains — [`MagazineCache::snapshot`],
/// [`MagazineCache::served`], [`MagazineCache::cached_bytes`] (and through
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
    /// Cached size classes, ascending — probed from the backend's
    /// [`BuddyBackend::granted_size_for`] ladder at construction, so the
    /// table is the power-of-two orders for a plain tree and the spaced
    /// slab classes when a slab front-end sits underneath.  Class `k`
    /// caches chunks of exactly `classes[k]` bytes.
    classes: Box<[usize]>,
    /// The flat request → class table: entry `i` describes every request
    /// in `(i << shift, (i + 1) << shift]`, one entry per *granule*
    /// (`1 << shift`, the largest power of two dividing every class: 32 B
    /// over the shipped tree, 8 B over the slab) up to the largest class.
    /// Its low byte is the class, its high byte `log2` of the alignment the
    /// backend guarantees that class's chunks
    /// ([`BuddyBackend::grant_alignment_for`], probed once: the class size
    /// for a plain tree, the class granule for a slab's spaced class).
    /// Classes are granule multiples, so no entry straddles two classes,
    /// and [`MagazineCache::class_of_request`] is one shift and one load —
    /// it answers the grant ladder for every cached size, in place of
    /// asking the backend and searching `classes`.
    table: Box<[u16]>,
    /// `log2` of the table's granule.
    shift: u32,
    /// A thread's slot is its [`nbbs_sync::thread_stripe`] in this table,
    /// the thread→stripe rule every per-thread table in the stack shares,
    /// claimed on first use; beside each, the shared slot of threads whose
    /// stripe another live thread holds.
    slots: OwnedSlots<Slot>,
    /// Depot shards, a power of two of them: a thread in slot `s`
    /// exchanges magazines (parks, refill pops) with shard
    /// `s & (shards.len() - 1)` only.
    shards: Box<[CachePadded<DepotShard>]>,
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
    /// Optional observer of the slow paths (miss, refill, flush, rescue).
    /// `None` skips every timestamp read — the zero-cost-when-disabled
    /// contract of `nbbs-obs`.
    obs: Option<Arc<Recorder>>,
}

impl<A: BuddyBackend> MagazineCache<A> {
    /// Wraps `backend` with a slot per stripe
    /// ([`nbbs_sync::default_stripes`]).
    pub fn new(backend: A) -> Self {
        Self::with_slots(backend, nbbs_sync::default_stripes())
    }

    /// Wraps `backend` with `slots` thread slots, rounded up to a power of
    /// two, and one depot shard per four of them.  A thread looks for its
    /// slot at its [`nbbs_sync::thread_stripe`] and owns it if it claims it
    /// first ([`nbbs_sync::owned`]'s claim rule); a thread whose stripe
    /// another live thread holds uses that stripe's shared slot, under its
    /// lock.
    pub fn with_slots(backend: A, slots: usize) -> Self {
        let slots = slot_count(slots);
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
        let (table, shift) = class_table(&classes, |size| {
            backend
                .grant_alignment_for(size)
                .expect("a class the ladder granted has an alignment")
        });
        let shard_count = shard_count(slots);
        let slots = OwnedSlots::new(slots, || Slot {
            mags: classes
                .iter()
                .map(|&size| ClassMags::new(initial_capacity(size)))
                .collect(),
            ..Slot::default()
        });
        let shards = (0..shard_count)
            .map(|_| CachePadded::new(DepotShard::new(classes.len(), DEPOT_MAGAZINES)))
            .collect();
        let ctl = classes
            .iter()
            .map(|&size| ClassCtl {
                cap: AtomicUsize::new(initial_capacity(size)),
                spills: AtomicUsize::new(0),
            })
            .collect();
        // Budget from the backend's *logical* span: a multi-node NodeSet
        // reports a widened (power-of-two) geometry but manages less.
        let budget = budget(backend.total_memory());
        MagazineCache {
            backend,
            name: "cached",
            classes,
            table,
            shift,
            slots,
            shards,
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

    /// Renames the cache in reports (e.g. `"cached-4lvl-nb"`).
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
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

    /// The depot shard slot `slot_idx` exchanges magazines with.
    #[inline]
    fn shard_of(&self, slot_idx: usize) -> usize {
        slot_idx & (self.shards.len() - 1)
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

    /// The byte budget bounding the cache's parked chunks, a share of the
    /// backend's managed memory.
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
    pub fn class_size(&self, class: usize) -> usize {
        self.classes[class]
    }

    /// The class a request of `size` bytes is granted and the alignment
    /// the backend guarantees its chunks, or `None` above the largest class
    /// (where the backend answers): one table read.  A request of 0 bytes
    /// is granted the smallest class, as on the ladder.
    #[inline]
    pub fn class_of_request(&self, size: usize) -> Option<(usize, usize)> {
        self.table
            .get(size.saturating_sub(1) >> self.shift)
            .map(|&entry| (usize::from(entry as u8), 1 << (entry >> 8)))
    }

    /// Size class caching chunks of exactly `granted` bytes, if cached: the
    /// table's class for `granted`, if its size is `granted`.  Granted sizes
    /// above the cutoff (or from a backend whose ladder the probe did not
    /// see) simply are not in the table and pass through.
    #[inline]
    fn class_of_granted(&self, granted: usize) -> Option<usize> {
        self.class_of_request(granted)
            .map(|(class, _)| class)
            .filter(|&class| self.classes[class] == granted)
    }

    /// The capacity `class` may grow to: `MAX_MAGAZINE_ENTRIES`, and a
    /// magazine of at most an eighth of the byte budget.
    fn max_capacity_for(&self, class: usize) -> usize {
        let by_budget = self.budget / (8 * self.class_size(class));
        MAX_MAGAZINE_ENTRIES.min(by_budget).max(2)
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

    /// Publishes chunks a panic stranded mid-flight; the next toucher
    /// rescues them.  Called from the guards' `Drop` during unwinds.
    fn publish_orphans(&self, chunks: impl IntoIterator<Item = (usize, usize)>) {
        self.orphans.lock().extend(chunks);
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

    /// Serves one allocation of class `class`: the calling thread's
    /// magazine pair (`loaded`, then a swapped-in `previous`), its depot
    /// shard, then a batched refill.  A grant counts as a hit or a miss and
    /// books `requested` bytes and the class size in the slot; a failed one
    /// books nothing.  Returns the offset, or `None` when the backend has
    /// no chunk of the class left.  A hit is this one slot entry, with no
    /// call into the backend; the rest is out of line.
    #[inline]
    pub fn alloc_class(&self, class: usize, requested: usize) -> Option<usize> {
        self.try_hit(class, requested)
            .or_else(|| self.alloc_miss(class, requested))
    }

    /// The hit half of [`MagazineCache::alloc_class`]: a chunk of class
    /// `class` from the calling thread's own magazines, counted and booked
    /// like any grant, or `None` — the magazines are empty, or the thread
    /// does not hold its slot free of any other entry
    /// ([`nbbs_sync::OwnedSlots::try_mine`]) — with nothing done.  One
    /// owner entry: no lock, no wait, no allocation, no backend call.
    #[inline]
    pub fn try_hit(&self, class: usize, requested: usize) -> Option<usize> {
        let granted = self.classes[class];
        self.slots
            .try_mine(|_, slot| slot.pop(class, requested, granted))
            .flatten()
    }

    /// [`MagazineCache::alloc_class`] past a refused [`MagazineCache::try_hit`],
    /// out of line: one entry of the thread's slot, or of its stripe's
    /// shared one, that pops if it can (the shared slot's co-users may have
    /// loaded the pair, a revoked owner enters under the lock) and
    /// otherwise exchanges with the depot shard; then the refill.  Alone it
    /// is a whole grant, so a caller whose inlined `try_hit` refused calls
    /// it directly rather than enter the slot once more through
    /// `alloc_class`.
    #[inline(never)]
    pub fn alloc_miss(&self, class: usize, requested: usize) -> Option<usize> {
        let class_size = self.class_size(class);
        // A hit (the shared slot's co-users may have loaded the pair since)
        // or a depot exchange leaves the slot with its chunk; a miss with
        // the stripe and the refill batch its pair is sized for.
        let entered = self.slots.with_mine(|slot_idx, slot| {
            if let Some(hit) = slot.pop(class, requested, class_size) {
                return Ok(hit);
            }

            // Both magazines empty: exchange with the slot group's depot
            // shard (a full magazine in via one lock-free pop, our empty
            // `loaded` out — recirculated as the spare for the next overflow
            // rotation).
            let pair = &mut slot.mags[class];
            if let Some(full) = self.shards[self.shard_of(slot_idx)].pop_full(class, class_size) {
                let empty = std::mem::replace(&mut pair.loaded, full);
                pair.spare.get_or_insert(empty);
                self.counters
                    .depot_exchanges
                    .fetch_add(1, Ordering::Relaxed);
                let hit = slot.pop(class, requested, class_size);
                return Ok(hit.expect("depot magazines are full"));
            }

            // Own shard dry too.  Both magazines are empty, which is the one
            // safe point to adopt a changed adaptive capacity for this
            // slot's pair; size the refill batch now as well, then leave the
            // slot — the backend refill below runs outside it, so a remote
            // read-out (or, on the shared slot, another thread's hit) is not
            // stalled behind our tree walks (mirror of the flush in
            // `free_overflow`).
            let target = self.ctl[class].cap.load(Ordering::Relaxed);
            if pair.loaded.capacity() < target {
                pair.loaded.grow_to(target);
                pair.previous.grow_to(target);
            }
            Err((pair.loaded.capacity() / 2).clamp(1, REFILL_BATCH_MAX))
        });
        let batch = match entered {
            Ok(hit) => return Some(hit),
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
            || self.backend.alloc(class_size),
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
            || self.refill(class, batch, requested, &mut guard),
            |&refilled| (refilled.unwrap_or(0), refilled.is_some()),
        );
        let (first, _) = guard.chunks.pop().expect("first survives the refill");
        Some(first)
    }

    /// The batched half of a miss: allocates up to `batch` more chunks of
    /// `class` behind `guard.chunks[0]`, books the grant of that first one
    /// (`requested` bytes), loads what fits into the calling thread's
    /// magazines and hands any surplus back.  Returns how many chunks were
    /// loaded, `None` when the backend had none to give.
    fn refill(
        &self,
        class: usize,
        batch: usize,
        requested: usize,
        guard: &mut OrphanGuard<'_, A>,
    ) -> Option<u64> {
        let class_size = self.class_size(class);
        for _ in 0..batch {
            match self.backend.alloc(class_size) {
                Some(off) => guard.chunks.push((off, class_size)),
                None => break,
            }
        }
        let gave = guard.chunks.len() > 1;
        // The slot may have changed since the miss left it; load whatever
        // fits and hand any surplus back to the backend.
        let refilled = self.slots.with_mine(|_, slot| {
            slot.requested += requested as u64;
            slot.granted += class_size as u64;
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
        gave.then_some(refilled)
    }

    /// Absorbs one release of a chunk of class `class` at `offset`: parks
    /// it in the calling thread's magazine pair (`loaded`, or an empty
    /// `previous` swapped in), or, when both are full, rotates them and
    /// sends the full one to the depot shard or the backend.  The caller
    /// vouches that the chunk is live and of class `class`.  A park is this
    /// one slot entry; the rotation is out of line.
    #[inline]
    pub fn free_class(&self, class: usize, offset: usize) {
        if !self.try_park(class, offset) {
            self.free_overflow(class, offset);
        }
    }

    /// The park half of [`MagazineCache::free_class`]: parks the chunk of
    /// class `class` at `offset` in the calling thread's own magazines,
    /// counted, or returns `false` with nothing done — both magazines are
    /// full, the one it would push into has no buffer since a drain, or the
    /// thread does not hold its slot free of any other entry
    /// ([`nbbs_sync::OwnedSlots::try_mine`]).  One owner entry: no lock, no
    /// wait, no allocation, no backend call.  The caller vouches that the
    /// chunk is live and of class `class`.
    #[inline]
    pub fn try_park(&self, class: usize, offset: usize) -> bool {
        self.slots
            .try_mine(|_, slot| slot.park(class, offset))
            .unwrap_or(false)
    }

    /// [`MagazineCache::free_class`] past a refused [`MagazineCache::try_park`],
    /// out of line: into the stripe's shared slot, into a magazine whose
    /// buffer a drain took (growing a new one here, inside the entry, where
    /// a registered `#[global_allocator]` shell has its latch engaged), or
    /// into two full magazines, rotating one out.  Alone it is a whole
    /// release, so a caller whose inlined `try_park` refused calls it
    /// directly.  The caller vouches that the chunk is live and of class
    /// `class`.
    #[inline(never)]
    pub fn free_overflow(&self, class: usize, offset: usize) {
        let overflow = self.slots.with_mine(|slot_idx, slot| {
            // A drained buffer, or the shared slot's co-users made room.
            if slot.park_growing(class, offset) {
                return None;
            }
            slot.cached_frees += 1;
            let pair = &mut slot.mags[class];
            // Both full: move `previous` out of the way (reusing the spare
            // empty from an earlier depot exchange when one is around,
            // retargeted to the current adaptive capacity), then rotate.
            let target_cap = self.ctl[class].cap.load(Ordering::Relaxed);
            let mut empty = pair
                .spare
                .take()
                .unwrap_or_else(|| Magazine::new(target_cap));
            debug_assert!(empty.is_empty());
            if empty.capacity() < target_cap {
                empty.grow_to(target_cap);
            }
            let full = std::mem::replace(&mut pair.previous, empty);
            std::mem::swap(&mut pair.loaded, &mut pair.previous);
            pair.loaded.push(offset);
            Some((full, slot_idx))
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
    /// share of the byte budget is exhausted.  Either refusal counts as a
    /// depot spill; only the first is a grow signal, and budget pressure
    /// changes no capacity (Bonwick & Adams answer memory pressure by
    /// reaping the depot, never by shrinking magazines).
    ///
    /// `full` must hold at least one chunk: the depot's pop consumer
    /// (`alloc_miss`'s exchange) assumes parked magazines are non-empty.
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
            // Byte budget exhausted: the magazine's chunks go back to the
            // backend and the class keeps its capacity.  Shrinking it here
            // would knock every class a burst pushes past the budget down to
            // its floor, and the next burst would miss on nearly every
            // magazine.
            self.counters.depot_spills.fetch_add(1, Ordering::Relaxed);
        }
        self.flush_magazine(full, class_size);
    }

    /// Returns a magazine's chunks to the backend, counting them as flushed.
    fn flush_magazine(&self, mut mag: Magazine, class_size: usize) {
        let n = mag.len() as u64;
        Recorder::time(
            &self.obs,
            OpKind::CacheFlush,
            || self.release_offsets(mag.take_all(), class_size, &self.counters.flushed),
            |_| (n, true),
        );
    }

    /// Returns a magazine's offsets to the backend from its own buffer (a
    /// flush in a caller's free allocates nothing), counting each in `counter`.
    ///
    /// Freed before popped: a panic mid-release publishes exactly the
    /// chunks not yet returned, never double-freeing the rest.
    fn release_offsets(&self, offsets: Vec<usize>, class_size: usize, counter: &AtomicU64) {
        let mut guard = ClassOrphans {
            cache: self,
            offsets,
            class_size,
        };
        while let Some(&off) = guard.offsets.last() {
            self.backend.dealloc(off);
            guard.offsets.pop();
            counter.fetch_add(1, Ordering::Relaxed);
        }
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
    /// slot — as well: still correct, merely conservative.  The thread's
    /// entry in the trees' section tables goes with its slot
    /// ([`nbbs_sync::Grace::release_mine`]).
    pub fn drain_current_thread(&self) {
        let mut taken = self.taken();
        self.slots
            .with_mine(|_, slot| self.take_slot(slot, &mut taken.mags));
        self.slots
            .with_shared(|slot| self.take_slot(slot, &mut taken.mags));
        self.slots.release_mine();
        taken.release();
        nbbs_sync::Grace::release_mine();
    }

    /// An empty holder for the magazines a drain takes out.  A drain takes
    /// them under the slot locks (and the inspection lock) and releases them
    /// once it has given those back, so an owner entering meanwhile waits
    /// for the moves, never for the backend.  What it holds meanwhile is the
    /// magazines' own buffers, never a copy of their offsets.
    fn taken(&self) -> TakenMagazines<'_, A> {
        TakenMagazines {
            cache: self,
            mags: Vec::new(),
        }
    }

    /// Moves the offsets of every non-empty magazine of `slot` into
    /// `taken`.
    fn take_slot(&self, slot: &mut Slot, taken: &mut Vec<(usize, Vec<usize>)>) {
        for (class, pair) in slot.mags.iter_mut().enumerate() {
            for mag in [&mut pair.loaded, &mut pair.previous] {
                if !mag.is_empty() {
                    taken.push((self.class_size(class), mag.take_all()));
                }
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
        let mut taken = self.taken();
        self.slots
            .for_each_slot(|slot| self.take_slot(slot, &mut taken.mags));
        // Exclude concurrent inspections: their temporarily popped magazines
        // would otherwise dodge the drain and be restored afterwards.
        let _inspecting = self.inspect_lock.lock();
        for shard in self.shards.iter() {
            for class in 0..self.classes.len() {
                let class_size = self.class_size(class);
                for mut m in shard.drain_class(class, class_size) {
                    taken.mags.push((class_size, m.take_all()));
                }
            }
        }
        drop(_inspecting);
        taken.release();
        // A full drain is the designated recovery point: return whatever a
        // panicked thread stranded as well, so `verify_cached_empty` after a
        // storm sees a truly empty cache.
        self.rescue_orphans();
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

    /// Counts one `realloc` outcome of a front end in the calling thread's
    /// slot: a grow (`grew`) or a shrink, `moved` to another class or kept
    /// in place.
    #[inline]
    pub fn count_resize(&self, grew: bool, moved: bool) {
        let index = 2 * usize::from(grew) + usize::from(moved);
        self.slots.with_mine(|_, slot| slot.resizes[index] += 1);
    }

    /// What [`MagazineCache::alloc_class`] and
    /// [`MagazineCache::count_resize`] booked, summed over every slot, in
    /// the snapshot's fields (its two `system_*` stay zero).  A remote
    /// read-out (see *Consistency* on the type).
    pub fn served(&self) -> ShellStatsSnapshot {
        let (mut requested, mut granted, mut resizes) = (0, 0, [0; 4]);
        self.slots.for_each_slot(|slot| {
            requested += slot.requested;
            granted += slot.granted;
            for (sum, count) in resizes.iter_mut().zip(slot.resizes) {
                *sum += count;
            }
        });
        let [shrinks_in_place, shrinks_moved, grows_in_place, grows_moved] = resizes;
        ShellStatsSnapshot {
            grows_in_place,
            grows_moved,
            shrinks_in_place,
            shrinks_moved,
            requested_bytes: requested,
            granted_bytes: granted,
            ..ShellStatsSnapshot::default()
        }
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
        // The table is the ladder the constructor probed, so the class it
        // names is the backend's grant — power-of-two orders over a plain
        // tree, slab classes over a slab front-end.
        match self.class_of_request(size) {
            Some((class, _)) => self.alloc_class(class, size),
            None => self.backend.alloc(size),
        }
    }

    fn dealloc(&self, offset: usize) {
        match self
            .backend
            .granted_size_of_live(offset)
            .and_then(|granted| self.class_of_granted(granted))
        {
            Some(class) => self.free_class(class, offset),
            // Unknown size class (backend without the lookup hook, or a
            // class above the cutoff): pass straight through.
            None => self.backend.dealloc(offset),
        }
    }

    /// The release for a caller that knows the chunk's granted size: the
    /// class comes from `granted`, so a chunk that parks in a magazine
    /// touches nothing but this thread's slot.  Shares
    /// [`MagazineCache::free_class`] with [`BuddyBackend::dealloc`]; the
    /// two differ only in where the class comes from.  A size that is not
    /// one of the cache's classes goes on to the backend, size attached.
    fn dealloc_sized(&self, offset: usize, granted: usize) {
        // The audit of the caller's claim, on every sized free of every
        // suite run in debug; release builds never ask.
        debug_assert_eq!(
            self.backend.granted_size_of_live(offset),
            Some(granted),
            "sized free of offset {offset} names the wrong class"
        );
        match self.class_of_granted(granted) {
            Some(class) => self.free_class(class, offset),
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
                self.free_class(class, offset);
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

    /// The table's class for every cached size (the backend's own ladder,
    /// probed once: spaced classes over a slab front-end); forwarded above
    /// the largest class.
    fn granted_size_for(&self, size: usize) -> Option<usize> {
        match self.class_of_request(size) {
            Some((class, _)) => Some(self.class_size(class)),
            None => self.backend.granted_size_for(size),
        }
    }

    /// The probed alignment of the table's class for every cached size;
    /// forwarded above the largest class.
    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        match self.class_of_request(size) {
            Some((_, align)) => Some(align),
            None => self.backend.grant_alignment_for(size),
        }
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

    /// Forwarded like the scrubber's other two calls, which reach the
    /// backend through [`BuddyBackend::inner`]: the run is the backend's
    /// blocks, never a parked chunk.
    fn scrub_dealloc_run(&self, run: &[(usize, usize)]) -> Option<usize> {
        self.backend.scrub_dealloc_run(run)
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
            self.cache.publish_orphans(self.chunks.drain(..));
        }
    }
}

/// An [`OrphanGuard`] for one class's offsets, released where they lie.
struct ClassOrphans<'a, A: BuddyBackend> {
    cache: &'a MagazineCache<A>,
    offsets: Vec<usize>,
    class_size: usize,
}

impl<A: BuddyBackend> Drop for ClassOrphans<'_, A> {
    fn drop(&mut self) {
        if !self.offsets.is_empty() {
            let size = self.class_size;
            self.cache
                .publish_orphans(self.offsets.drain(..).map(|off| (off, size)));
        }
    }
}

/// Magazines a drain took out, `(class size, offsets)`, not yet released
/// ([`MagazineCache::taken`]).  If a release unwinds, the rest are
/// published like an [`OrphanGuard`]'s.
struct TakenMagazines<'a, A: BuddyBackend> {
    cache: &'a MagazineCache<A>,
    mags: Vec<(usize, Vec<usize>)>,
}

impl<A: BuddyBackend> TakenMagazines<'_, A> {
    /// Returns every chunk to the backend, counting them as drained.
    fn release(mut self) {
        let cache = self.cache;
        while let Some((class_size, offsets)) = self.mags.pop() {
            cache.release_offsets(offsets, class_size, &cache.counters.drained);
        }
    }
}

impl<A: BuddyBackend> Drop for TakenMagazines<'_, A> {
    fn drop(&mut self) {
        if !self.mags.is_empty() {
            let left = self.mags.drain(..);
            let left = left.flat_map(|(size, offs)| offs.into_iter().map(move |off| (off, size)));
            self.cache.publish_orphans(left);
        }
    }
}

#[cfg(test)]
mod tests {
    use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel, NbbsOneLevel};
    use nbbs_slab::SlabBackend;

    use super::MagazineCache;

    /// The cache over `backend` answers the grant ladder as the backend
    /// does for every size up to one granule past its largest class, and
    /// names a class for exactly the class sizes.
    fn the_table_answers_the_ladder_of<A: BuddyBackend>(backend: A, granule: usize) {
        let cache = MagazineCache::new(backend);
        let classes = cache.classes.clone();
        let largest = *classes.last().expect("a cached ladder");
        for size in 0..=largest + granule {
            let backend = cache.backend();
            assert_eq!(
                cache.granted_size_for(size),
                backend.granted_size_for(size),
                "granted size of a {size}-byte request"
            );
            assert_eq!(
                cache.grant_alignment_for(size),
                backend.grant_alignment_for(size),
                "alignment of a {size}-byte request"
            );
            assert_eq!(
                cache.class_of_granted(size),
                classes.iter().position(|&class| class == size),
                "class of a {size}-byte grant"
            );
        }
        assert_eq!(1 << cache.shift, granule);
        assert_eq!(cache.table.len(), largest / granule);
    }

    #[test]
    fn the_class_table_matches_the_backend_ladder() {
        // The shipped tree's 32 B units and 64 KiB largest block (2 048
        // entries), over a smaller span.
        let shipped = BuddyConfig::new(1 << 20, 32, 64 << 10).unwrap();
        the_table_answers_the_ladder_of(NbbsFourLevel::new(shipped), 32);
        let small = BuddyConfig::new(1 << 16, 8, 1 << 12).unwrap();
        the_table_answers_the_ladder_of(NbbsOneLevel::new(small), 8);
        // Spaced 8 B-granule classes up to the slab's cutoff, the tree's
        // powers of two above it.
        the_table_answers_the_ladder_of(SlabBackend::new(NbbsFourLevel::new(shipped)), 8);
    }
}
