//! The `#[global_allocator]` entry point: a `const`-constructible shell
//! that drives a lazily built, magazine-cached buddy region itself.
//!
//! The stack is the lock-free [`NbbsFourLevel`] tree, the [`BuddyRegion`]
//! that maps its offsets to memory and a [`MagazineCache`] over the region;
//! the shell's three sizes are all there is to configure.  Observation and the
//! background scrubber are armed by the environment alone (`NBBS_OBS`,
//! `NBBS_TRACE`, `NBBS_PROFILE`, `NBBS_SCRUB`), read once when the stack is
//! built.  What the shell adds around the stack:
//!
//! * **One route for every call.**  `alloc` and `dealloc` resolve
//!   `max(size, align)` to a class with one read of the cache's flat table
//!   ([`MagazineCache::class_of_request`]) and go to the calling thread's
//!   slot.  A hit or a park is each one's inlined fast path, taken by a
//!   thread whose key matches the shell's ([`KEY`]).  Everything else — the
//!   build, the nested route, registration, an armed build, misses,
//!   overflows, failover, `System` — is one cold call into the cache's
//!   out-of-line halves, [`MagazineCache::alloc_miss`] and
//!   [`MagazineCache::free_overflow`], which pop or park first, so a
//!   refused hit is not tried twice.  A grant books its requested and
//!   granted bytes in the slot, so [`NbbsGlobalAlloc::metrics`] reads one
//!   sum ([`MagazineCache::served`]).  The region commits a block's pages
//!   when the tree grants it (a refill, the nested route), never on a hit
//!   or a park: a parked chunk is live in the tree, out of the scrubber's
//!   reach.  A layout above the largest class goes to `System`, and so does
//!   one whose class the tree has no block of left (a failover).  An armed
//!   build never takes the fast path: its recorder (`NBBS_OBS`,
//!   `NBBS_TRACE`) times every call as one event, with the cache's events
//!   nested inside, and its profiler (`NBBS_PROFILE`) sees every grant and
//!   release.
//! * **`realloc` is the other two.**  A region block whose new size names
//!   the class it already has is kept: the grow or shrink is booked in the
//!   slot ([`MagazineCache::count_resize`]), inlined for a thread on the
//!   fast path, so growing a `Vec` inside its granted buddy block is free.
//!   A `System` block goes to `System.realloc`.  Any other `realloc` is the
//!   shell's own `alloc`, a copy of `min(old, new)` bytes and its own
//!   `dealloc`, each with its own fast path, miss, failover, nested route
//!   and `System` fallback.  It is booked as moved when the region holds
//!   the new block and the latch is not engaged (a nested call books
//!   nothing, as its `alloc` does not).  A recording build times each as one
//!   grow/shrink event, a move's `alloc` and `dealloc` nested in it.
//! * **`OnceLock::get_or_init` first touch.**  Threads that touch the
//!   allocator while it is being built *block* on the `OnceLock` for the
//!   few microseconds the build takes and then get buddy memory like
//!   everyone else, so no early (often long-lived) allocation escapes the
//!   buddy; only the building thread's own re-entrant metadata allocations
//!   fall through to `System` (they must — the state does not exist yet).
//! * **Foreign threads drain on exit.**  Every thread that touches the
//!   allocator is registered with `nbbs-cache`'s exit registry; its
//!   magazines flow back to the tree when it dies.
//!
//! # Re-entrancy
//!
//! A global allocator built on a caching layer has a bootstrap problem: the
//! cache's own bookkeeping (refill batches, magazine rotations, drain
//! scratch space) allocates, and those allocations arrive back at this very
//! allocator — potentially while the cache holds a slot lock, or forever
//! recursing miss-into-miss.  The shell cuts the knot with a thread-local
//! bypass latch: while a thread is inside one of its calls off the fast
//! path, any nested allocation it performs skips the cache and goes
//! straight to the raw tree (or `System` if the tree cannot serve it).  The
//! latch lives in the fast path's key word ([`KEY`]): engaging it stores a
//! sentinel no shell's key equals, so a nested call never takes the fast
//! path and reads one word to find the latch, and releasing it puts the
//! key back.  The latch is engaged only off the fast path: the inlined hit
//! and park allocate nothing (a park into a magazine whose buffer a drain
//! took refuses, and the slow free grows the buffer under the latch), so
//! they need none.  Once a thread's exit drain has run, the word holds a
//! second sentinel for good, so the teardown's own frees cannot re-park
//! chunks into the slot being emptied.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use nbbs::{BuddyBackend, BuddyConfig, BuddyRegion, NbbsFourLevel, ShellStatsSnapshot};
use nbbs_cache::{drain_on_thread_exit, DrainOnExit, MagazineCache};
use nbbs_obs::{
    size_detail, HeapProfiler, OpKind, Recorder, StackSnapshot, DEFAULT_PROFILE_STRIDE,
};
use nbbs_sync::CachePadded;

use crate::facade::base_request_size;

type CachedRegion = MagazineCache<BuddyRegion<NbbsFourLevel>>;

thread_local! {
    /// The fast path's key and the bypass latch, in one word: [`State::key`]
    /// of the shell the thread registered with while it may take that
    /// shell's fast path (outside any call of it off the fast path, not
    /// exiting, unarmed); 0 before it registered; the key with its low bit
    /// set under an armed shell; [`LATCHED`] or [`EXITED`] while the latch
    /// is engaged.  Keys are aligned addresses, so neither sentinel is one.
    /// Const init and no destructor: readable through all of teardown.
    static KEY: Cell<usize> = const { Cell::new(0) };
}

/// The key inside a call of the shell off the fast path.
const LATCHED: usize = usize::MAX - 1;

/// The key of a thread whose exit drain has run: it bypasses the cache for
/// good, and no latch restores another over it.
const EXITED: usize = usize::MAX;

/// Whether the latch is engaged: the key is [`LATCHED`] or [`EXITED`].
#[inline]
fn bypass_active() -> bool {
    KEY.try_with(Cell::get).unwrap_or(EXITED) >= LATCHED
}

/// RAII engagement of the bypass latch around one call of the shell off
/// the fast path: the key is [`LATCHED`] for the call, and the one it held
/// (or the one the registration put in its place) comes back when the call
/// ends, unless the exit drain ran meanwhile and left it [`EXITED`] for good.
struct BypassGuard {
    key: usize,
}

impl BypassGuard {
    fn engage() -> BypassGuard {
        BypassGuard {
            key: KEY.try_with(|k| k.replace(LATCHED)).unwrap_or(EXITED),
        }
    }

    /// Engages the latch for a call of `state`'s shell and registers the
    /// thread's exit drain with it, once per thread: when the key the latch
    /// will put back is not this shell's, registers the hook (the registry
    /// deduplicates, and its own allocation finds the latch engaged) and
    /// makes this shell's key the one put back — with its low bit set under
    /// an armed shell, so the fast path never matches it.
    ///
    /// Keyed on the exit hook's address, not the shell's: the thread's
    /// registry keeps a clone of every hook it was given, so a hook's
    /// address cannot be reused while a thread still compares against it.
    /// A shell's can — a new one built where a dropped one stood.
    fn enter(state: &State) -> BypassGuard {
        let mut op = BypassGuard::engage();
        let armed = state.obs.is_some() || state.profiler.is_some();
        let key = state.key | usize::from(armed);
        if op.key != key {
            drain_on_thread_exit(Arc::clone(&state.exit_hook) as Arc<dyn DrainOnExit>);
            op.key = key;
        }
        op
    }
}

impl Drop for BypassGuard {
    fn drop(&mut self) {
        let _ = KEY.try_with(|k| {
            if k.get() != EXITED {
                k.set(self.key);
            }
        });
    }
}

/// The exit-drain hook handed to `nbbs-cache`: retires the thread's key,
/// latching the bypass for good (all a dying thread frees goes straight to
/// the tree), then empties the thread's slot and gives it up to the next
/// thread mapping to it.  Weak, so a dropped shell unmaps.
struct ExitLatch(Weak<CachedRegion>);

impl DrainOnExit for ExitLatch {
    fn drain(&self) {
        let _ = KEY.try_with(|k| k.set(EXITED));
        if let Some(cache) = self.0.upgrade() {
            cache.drain_current_thread();
        }
    }
}

/// Where the armed event ring is dumped (as chrome-trace JSON) at exit.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TraceDump {
    /// `NBBS_TRACE=1` (or set but empty): to stderr.
    Stderr,
    /// `NBBS_TRACE=<path>`: to that file.
    File(String),
}

/// What the process environment arms — the one place the allocator's
/// `NBBS_*` variables are read ([`Arming::parse`]), once, when the stack is
/// built.  A variable that is unset or `0` arms nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Arming {
    /// `NBBS_OBS`: latency recording; implied by `NBBS_TRACE`.
    recording: bool,
    /// `NBBS_TRACE`: record, and dump the event ring when the process
    /// exits — from the `atexit` hook that
    /// [`NbbsGlobalAlloc::print_stats_on_exit`] registers, so only in a
    /// program that calls it.
    trace: Option<TraceDump>,
    /// `NBBS_PROFILE=<stride>`: the heap profiler (a stride that does not
    /// parse means the default one).
    profile_stride: Option<u32>,
    /// `NBBS_SCRUB=<ms>`: the background decommit scrubber's period (100 ms
    /// when it does not parse, at least 1).
    scrub_ms: Option<u64>,
}

impl Arming {
    /// Parses the four variables out of `lookup` (`std::env::var` in
    /// production, a literal table in tests).
    fn parse(lookup: impl Fn(&str) -> Option<String>) -> Arming {
        let armed = |key| lookup(key).filter(|v| v != "0");
        let trace = armed("NBBS_TRACE").map(|v| match v.as_str() {
            "" | "1" => TraceDump::Stderr,
            _ => TraceDump::File(v),
        });
        Arming {
            recording: trace.is_some() || armed("NBBS_OBS").is_some(),
            trace,
            profile_stride: armed("NBBS_PROFILE")
                .map(|v| v.parse().unwrap_or(DEFAULT_PROFILE_STRIDE)),
            scrub_ms: armed("NBBS_SCRUB").map(|v| v.parse().unwrap_or(100).max(1)),
        }
    }
}

struct State {
    /// The whole stack: the cache over the region over the tree.
    cache: Arc<CachedRegion>,
    exit_hook: Arc<ExitLatch>,
    /// The recorder `NBBS_OBS` or `NBBS_TRACE` armed, if any: the shell
    /// times every call on it, and the cache its slow paths.
    obs: Option<Arc<Recorder>>,
    /// The heap profiler `NBBS_PROFILE` armed, if any: it sees every grant
    /// and release.
    profiler: Option<Box<HeapProfiler>>,
    /// What the environment armed when the stack was built.
    env: Arming,
    /// The region's base address and length, read once when the stack is
    /// built: the fast path's ownership test and `base + offset`.
    base: usize,
    len: usize,
    /// The fast path's key: the exit hook's address, which no other live
    /// shell has (a thread registered with a hook keeps it alive).  A
    /// thread whose [`KEY`] equals it takes the fast path on this shell.
    key: usize,
}

impl State {
    #[inline]
    fn region(&self) -> &BuddyRegion<NbbsFourLevel> {
        self.cache.backend()
    }

    /// The class `layout` is served from: the cache's table entry for
    /// `max(size, align)`, or `None` above the largest class.  On the
    /// power-of-two tree a class's blocks are aligned to its size, which is
    /// at least `max(size, align)`, so the class is always aligned enough.
    #[inline]
    fn class_of(&self, layout: Layout) -> Option<usize> {
        let (class, align) = self.cache.class_of_request(base_request_size(layout))?;
        debug_assert!(align >= layout.align(), "class {class} under {layout:?}");
        Some(class)
    }

    /// The address of the block at `offset`: every offset the stack hands
    /// out lies inside the region's mapping.
    #[inline]
    fn ptr_at(&self, offset: usize) -> *mut u8 {
        (self.base + offset) as *mut u8
    }

    /// `ptr`'s offset in the region, when the region holds it.
    #[inline]
    fn offset_of(&self, ptr: *mut u8) -> Option<usize> {
        let offset = (ptr as usize).wrapping_sub(self.base);
        (offset < self.len).then_some(offset)
    }

    /// The sized free's audit, as `MagazineCache::dealloc_sized` runs it:
    /// in a debug build, the block at `offset` must be live in `class`.
    #[inline(always)]
    fn audit(&self, offset: usize, class: usize) {
        debug_assert_eq!(
            self.cache.backend().granted_size_of_live(offset),
            Some(self.cache.class_size(class)),
            "sized free of offset {offset} names the wrong class"
        );
    }
}

/// Global allocator over the cached non-blocking buddy.
///
/// Construction is `const` so it can sit in a `#[global_allocator]` static;
/// the stack (tree → region → magazine cache) is built on first use
/// under [`OnceLock::get_or_init`], with whatever the `NBBS_*` environment
/// arms.  Invalid size combinations degrade to the system allocator
/// instead of panicking.
///
/// ```no_run
/// use nbbs_alloc::NbbsGlobalAlloc;
///
/// // 64 MiB arena, 32-byte units, 64 KiB largest buddy-served request.
/// #[global_allocator]
/// static ALLOC: NbbsGlobalAlloc = NbbsGlobalAlloc::new(64 << 20, 32, 64 << 10);
///
/// fn main() {
///     let v: Vec<u64> = (0..1024).collect(); // magazine-cached buddy memory
///     let (buddy, system) = ALLOC.bytes_served();
///     println!("{}: {buddy} B served by the buddy, {system} B by System", v.len());
/// }
/// ```
pub struct NbbsGlobalAlloc {
    total_memory: usize,
    min_size: usize,
    max_size: usize,
    state: OnceLock<Option<State>>,
    /// On lines of their own: every `System`-routed request writes them,
    /// and beside the `OnceLock` every call reads, each write would take
    /// that line from every other thread.
    system: CachePadded<SystemCounters>,
}

/// The shell's two `System` counters.
struct SystemCounters {
    /// Bytes that fell through to the system allocator (oversized requests,
    /// exhaustion, and the metadata of the initial build).
    bytes: AtomicU64,
    /// Requests the *built* buddy stack failed that were rescued by
    /// `System` — degraded-mode events, distinct from `bytes`' routine
    /// oversized/bootstrap traffic.
    failovers: AtomicU64,
}

impl NbbsGlobalAlloc {
    /// Creates the shell.  The three sizes follow [`BuddyConfig::new`];
    /// invalid combinations make every request fall back to the system
    /// allocator (a global allocator must not panic).
    pub const fn new(total_memory: usize, min_size: usize, max_size: usize) -> Self {
        NbbsGlobalAlloc {
            total_memory,
            min_size,
            max_size,
            state: OnceLock::new(),
            system: CachePadded::new(SystemCounters {
                bytes: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
            }),
        }
    }

    /// The backing state, built on first call.
    ///
    /// Concurrent first-touch threads block on the `OnceLock` until the
    /// build completes (the fix for the old adapter's fall-back-forever
    /// race); only the building thread's own re-entrant allocations see
    /// `None` here and are served by `System`.
    fn state(&self) -> Option<&State> {
        if let Some(state) = self.state.get() {
            return state.as_ref();
        }
        self.build_once(|| Arming::parse(|key| std::env::var(key).ok()))
    }

    /// First touch: builds the state with what `arming` says the
    /// environment asks for.  `arming` runs under the bypass latch, at most
    /// once, by the thread that wins the build.
    fn build_once(&self, arming: impl FnOnce() -> Arming) -> Option<&State> {
        if bypass_active() {
            return None;
        }
        let _build = BypassGuard::engage();
        self.state.get_or_init(|| self.build(arming())).as_ref()
    }

    fn build(&self, env: Arming) -> Option<State> {
        let config = BuddyConfig::new(self.total_memory, self.min_size, self.max_size).ok()?;
        // One recorder for the whole stack.
        let obs = env.recording.then(|| Arc::new(Recorder::new()));
        let profiler = env
            .profile_stride
            .map(|stride| Box::new(HeapProfiler::new(stride)));
        let mut cache = MagazineCache::new(BuddyRegion::new(NbbsFourLevel::new(config)))
            .with_name("cached-4lvl-nb");
        cache.set_recorder(obs.clone());
        let cache = Arc::new(cache);
        let region = cache.backend();
        // The background decommit scrubber: every `scrub_ms` milliseconds
        // it claims quiescent free blocks through the allocation CAS
        // protocol and returns their pages to the kernel, so a long-idle
        // process's RSS follows its live set instead of its high-water mark.
        if let Some(ms) = env.scrub_ms {
            region.start_scrubber(std::time::Duration::from_millis(ms));
        }
        let (base, len) = (region.base().as_ptr() as usize, region.total_memory());
        let exit_hook = Arc::new(ExitLatch(Arc::downgrade(&cache)));
        Some(State {
            base,
            len,
            key: Arc::as_ptr(&exit_hook) as usize,
            exit_hook,
            cache,
            obs,
            profiler,
            env,
        })
    }

    /// The state if it has already been built (never triggers the build —
    /// release paths use this: a pointer cannot be buddy-owned before the
    /// buddy exists).
    fn built_state(&self) -> Option<&State> {
        self.state.get().and_then(|s| s.as_ref())
    }

    /// The built state and `ptr`'s offset in its region, when the buddy
    /// served `ptr`.
    #[inline]
    fn owned(&self, ptr: *mut u8) -> Option<(&State, usize)> {
        let state = self.state.get()?.as_ref()?;
        Some((state, state.offset_of(ptr)?))
    }

    /// The built state, when the calling thread may take the fast path on
    /// it: one `OnceLock` read and one thread-local compare ([`KEY`]).
    #[inline(always)]
    fn fast(&self) -> Option<&State> {
        let state = self.state.get()?.as_ref()?;
        (KEY.with(Cell::get) == state.key).then_some(state)
    }

    /// `alloc` (`zeroed == false`) and `alloc_zeroed` past the fast path,
    /// in one body: the route is the same, only the two ends differ.  A
    /// buddy block is zeroed here, since chunks are recycled dirty; a
    /// request that goes to `System` (before or during the build,
    /// oversized, failed over) asks it for zeroed memory, which for a large
    /// size is fresh demand-zero pages rather than a memset.  The stack's
    /// own metadata arrays below 64 KiB are such requests while the stack
    /// is being built (larger ones are mapped directly, see
    /// [`nbbs_sync::zeroed_slice`]).
    ///
    /// # Safety
    ///
    /// `GlobalAlloc::alloc`'s contract for `layout`.
    #[cold]
    #[inline(never)]
    unsafe fn alloc_slow(&self, layout: Layout, zeroed: bool) -> *mut u8 {
        let block = match self.state() {
            // The nested route: a block of the class from the region, past
            // the cache (which may be mid-entry above us on this thread's
            // stack); it goes down the stack under its class when freed.
            Some(state) if bypass_active() => state
                .class_of(layout)
                .and_then(|class| state.region().alloc(state.cache.class_size(class)))
                .map(|offset| state.ptr_at(offset)),
            Some(state) => {
                let _op = BypassGuard::enter(state);
                let class = state.class_of(layout);
                // Straight to the cache's out-of-line half, which pops
                // first: where the fast path ran, its `try_hit` refused
                // already; where it did not (an armed build, a thread's
                // first call), the half is a whole grant.
                let block = Recorder::time(
                    &state.obs,
                    OpKind::Alloc,
                    || {
                        let class = class?;
                        let offset = state.cache.alloc_miss(class, layout.size().max(1))?;
                        if let Some(profiler) = &state.profiler {
                            profiler.record_alloc(offset, state.cache.class_size(class));
                        }
                        Some(state.ptr_at(offset))
                    },
                    |block| (size_detail(base_request_size(layout)), block.is_some()),
                );
                // A class the tree has no block of left is a failover: the
                // built stack failed a request it serves.
                if block.is_none() && class.is_some() {
                    self.system.failovers.fetch_add(1, Ordering::Relaxed);
                }
                block
            }
            None => None,
        };
        if let Some(ptr) = block {
            if zeroed {
                // SAFETY: a fresh block of at least `layout.size()` bytes.
                unsafe { ptr.write_bytes(0, layout.size()) };
            }
            return ptr;
        }
        self.system
            .bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract.
        unsafe {
            if zeroed {
                System.alloc_zeroed(layout)
            } else {
                System.alloc(layout)
            }
        }
    }

    /// Bytes currently served by the buddy region (excludes system
    /// fallback; a magazine-parked chunk counts as free).
    pub fn buddy_allocated_bytes(&self) -> usize {
        self.built_state().map_or(0, |s| s.cache.allocated_bytes())
    }

    /// Whether `ptr` was served by the buddy region.
    pub fn owns(&self, ptr: *mut u8) -> bool {
        self.owned(ptr).is_some()
    }

    /// Cumulative `(buddy, system)` bytes served, by requested size.
    ///
    /// The buddy figure is every allocation the stack granted, a moved
    /// `realloc` at its new size, an in-place one not at all (it serves
    /// nothing new): the requested bytes each grant booked in the cache's
    /// slots.  What the nested raw route hands out — the stack's own
    /// bookkeeping, and threads past their exit drain — is not in it.  A
    /// remote read-out of the cache's slots (one heavy barrier), like
    /// [`NbbsGlobalAlloc::cache_stats`].
    pub fn bytes_served(&self) -> (u64, u64) {
        let stats = self.shell_stats();
        (stats.requested_bytes, stats.system_bytes)
    }

    /// Requests the built buddy stack failed (exhaustion, injected faults)
    /// that were rescued by the system allocator.  Routine `System` traffic
    /// — oversized requests, pre-build metadata — does not count; this is
    /// the degraded-mode odometer.
    pub fn system_failovers(&self) -> u64 {
        self.system.failovers.load(Ordering::Relaxed)
    }

    /// Counters of the magazine-cache layer, if the state has been built.
    pub fn cache_stats(&self) -> Option<nbbs::CacheStatsSnapshot> {
        self.built_state().map(|s| s.cache.snapshot())
    }

    /// What the grants booked in the cache's slots (the grow/shrink split,
    /// the requested/granted bytes — all zero until the state is built),
    /// with the shell's own two counters added: `system_bytes` and
    /// `system_failovers`.  Read through [`NbbsGlobalAlloc::metrics`]`.shell`.
    fn shell_stats(&self) -> ShellStatsSnapshot {
        let mut stats = self
            .built_state()
            .map(|s| s.cache.served())
            .unwrap_or_default();
        stats.system_bytes = self.system.bytes.load(Ordering::Relaxed);
        stats.system_failovers = self.system_failovers();
        stats
    }

    /// One synchronous decommit-scrubber pass over the backing region (see
    /// `BuddyRegion::scrub_pass`); returns the bytes decommitted.  The
    /// background variant is armed by `NBBS_SCRUB=<ms>`.
    pub fn scrub_pass(&self) -> usize {
        self.built_state().map_or(0, |s| s.region().scrub_pass())
    }

    /// Returns every magazine-parked chunk to the tree (a quiescent-point
    /// maintenance call, e.g. between benchmark epochs).
    pub fn drain_cache(&self) {
        if let Some(state) = self.built_state() {
            let _op = BypassGuard::engage();
            state.cache.drain_all();
        }
    }

    /// When built under `NBBS_TRACE`: stops the event ring and dumps it as
    /// chrome-trace JSON, to the file the variable named or to stderr for
    /// `NBBS_TRACE=1`.  No-op otherwise.  Runs from the
    /// [`NbbsGlobalAlloc::print_stats_on_exit`] hook.
    fn dump_trace(&self) {
        let Some((dump, rec)) = self
            .built_state()
            .and_then(|s| s.env.trace.as_ref().zip(s.obs.as_ref()))
        else {
            return;
        };
        rec.ring().stop();
        let json = rec.ring().to_chrome_json("nbbs-global");
        match dump {
            TraceDump::File(path) if std::fs::write(path, &json).is_ok() => {}
            _ => eprintln!("{json}"),
        }
    }

    /// The full telemetry of the stack as one unified
    /// [`nbbs_obs::StackSnapshot`] — backend and cache counters, magazine
    /// capacities, the byte shares and realloc split (`.shell`), the
    /// region's committed bytes and scrubber counters (`.memory`, once the
    /// stack is built), and (when recording) tail-latency percentiles per
    /// operation kind.  Reading it never builds the stack.
    pub fn metrics(&self) -> StackSnapshot {
        const LABEL: &str = "nbbs-alloc";
        let state = self.built_state();
        let mut snap = match state {
            Some(s) => StackSnapshot::of(LABEL, &*s.cache, s.obs.as_deref()),
            None => StackSnapshot {
                label: LABEL.to_string(),
                ..StackSnapshot::default()
            },
        };
        snap.shell = Some(self.shell_stats());
        snap.memory = state.map(|s| s.region().memory_stats());
        snap
    }

    /// A human-readable telemetry dump: buddy/system byte share, the
    /// grow-in-place rate, cache hit rate, committed memory, and — when
    /// armed — tail-latency percentiles, the event ring's `[flight]` crash
    /// dump and the ranked heap profile.
    ///
    /// Rendered by [`StackSnapshot::text_table`] (the one table every
    /// binary in the workspace prints); this is what
    /// [`NbbsGlobalAlloc::print_stats_on_exit`] writes to stderr when the
    /// process ends.
    pub fn stats_report(&self) -> String {
        let mut out = self.metrics().text_table();
        let Some(state) = self.built_state() else {
            return out;
        };
        if let Some(rec) = state.obs.as_ref().filter(|rec| !rec.ring().is_empty()) {
            out.push_str(&rec.ring().flight_dump());
        }
        if let Some(profiler) = &state.profiler {
            out.push_str(&profiler.report().text(10));
        }
        out
    }

    /// Dumps [`NbbsGlobalAlloc::stats_report`] to stderr when the process
    /// exits, via a C `atexit` hook — the share-telemetry knob for real
    /// deployments (`#[global_allocator]` statics are `'static` by
    /// construction, so any installed allocator can register itself, e.g.
    /// first thing in `main`).
    ///
    /// Registration is idempotent per instance; up to
    /// `EXIT_DUMP_CAPACITY` (8) distinct allocators can register.
    pub fn print_stats_on_exit(&'static self) {
        exit_dump::register(self);
    }
}

/// Maximum number of allocators [`NbbsGlobalAlloc::print_stats_on_exit`]
/// can register (a process has one `#[global_allocator]`; the slack is for
/// tests and auxiliary instances).
pub const EXIT_DUMP_CAPACITY: usize = 8;

/// The atexit-hook registry behind
/// [`NbbsGlobalAlloc::print_stats_on_exit`]: a fixed lock-free slot array
/// (the dump runs during process teardown, so it must not allocate to
/// *find* the allocators — formatting the report itself goes through the
/// still-installed global allocator, which is fine).
mod exit_dump {
    use super::{AtomicPtr, NbbsGlobalAlloc, Ordering, EXIT_DUMP_CAPACITY};

    static REGISTERED: [AtomicPtr<()>; EXIT_DUMP_CAPACITY] =
        [const { AtomicPtr::new(std::ptr::null_mut()) }; EXIT_DUMP_CAPACITY];

    extern "C" {
        fn atexit(cb: extern "C" fn()) -> std::os::raw::c_int;
    }

    extern "C" fn dump_all() {
        for slot in &REGISTERED {
            let ptr = slot.load(Ordering::Acquire) as *const NbbsGlobalAlloc;
            if !ptr.is_null() {
                // SAFETY: only `register` stores here, always a valid
                // `&'static NbbsGlobalAlloc`.
                let alloc = unsafe { &*ptr };
                eprint!("{}", alloc.stats_report());
                alloc.dump_trace();
            }
        }
    }

    pub(super) fn register(alloc: &'static NbbsGlobalAlloc) {
        let me = alloc as *const NbbsGlobalAlloc as *mut ();
        for (i, slot) in REGISTERED.iter().enumerate() {
            let mut current = slot.load(Ordering::Acquire);
            if current.is_null() {
                match slot.compare_exchange(
                    std::ptr::null_mut(),
                    me,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        if i == 0 {
                            // First registration in the process arms the
                            // hook.
                            // SAFETY: `dump_all` is a valid extern "C" fn;
                            // atexit has no other preconditions.
                            unsafe { atexit(dump_all) };
                        }
                        return;
                    }
                    // Lost the race for this slot: re-check what won it —
                    // if a concurrent call registered *this* allocator,
                    // moving on would register it twice.
                    Err(winner) => current = winner,
                }
            }
            if current == me {
                return; // already registered
            }
        }
        // Registry full: silently drop — telemetry must never break the
        // allocator.
    }

    /// Test hook: run the dump exactly as the atexit callback would.
    #[cfg(test)]
    pub(super) fn dump_now() {
        dump_all();
    }
}

/// The fast paths of `alloc` and `dealloc` (module docs, *One route for
/// every call*; they need no latch, see *Re-entrancy*), and what each does
/// past them, which starts again from the top.
impl NbbsGlobalAlloc {
    /// `alloc`'s fast path: a hit of `layout`'s class.
    #[inline(always)]
    fn alloc_fast(&self, layout: Layout) -> Option<*mut u8> {
        let state = self.fast()?;
        let class = state.class_of(layout)?;
        let offset = state.cache.try_hit(class, layout.size().max(1))?;
        Some(state.ptr_at(offset))
    }

    /// `dealloc`'s fast path: parks a region block in its class; `false`,
    /// with nothing done, when it cannot.
    #[inline(always)]
    fn dealloc_fast(&self, ptr: *mut u8, layout: Layout) -> bool {
        let Some(state) = self.fast() else {
            return false;
        };
        let (Some(offset), Some(class)) = (state.offset_of(ptr), state.class_of(layout)) else {
            return false;
        };
        state.audit(offset, class);
        state.cache.try_park(class, offset)
    }

    /// `dealloc` past the fast path.
    ///
    /// # Safety
    ///
    /// `GlobalAlloc::dealloc`'s contract.
    #[cold]
    #[inline(never)]
    unsafe fn dealloc_slow(&self, ptr: *mut u8, layout: Layout) {
        match self.owned(ptr) {
            // The nested route: straight to the tree.  The block may have
            // come from the normal route (a thread's frees after its exit
            // drain, the old block of a nested realloc): the profiler must
            // see a sampled one go.
            Some((state, offset)) if bypass_active() => {
                if let Some(profiler) = &state.profiler {
                    profiler.record_free(offset);
                }
                state.region().dealloc(offset);
            }
            Some((state, offset)) => {
                let _op = BypassGuard::enter(state);
                Recorder::time(
                    &state.obs,
                    OpKind::Free,
                    || {
                        if let Some(profiler) = &state.profiler {
                            profiler.record_free(offset);
                        }
                        match state.class_of(layout) {
                            // The out-of-line half, as in `alloc_slow`.
                            Some(class) => {
                                state.audit(offset, class);
                                state.cache.free_overflow(class, offset);
                            }
                            // Unreachable for a region block: a lookup.
                            None => state.cache.dealloc(offset),
                        }
                    },
                    |_| (size_detail(base_request_size(layout)), true),
                );
            }
            // SAFETY: outside the region, so `System` allocated it, under
            // `layout` (the caller's contract).
            None => unsafe { System.dealloc(ptr, layout) },
        }
    }

    /// `realloc`'s in-place resize past its fast path: registered and
    /// booked under the latch, timed as one event under a recording build;
    /// under a latch already engaged (a nested call, a thread past its exit
    /// drain) it books nothing.
    #[cold]
    #[inline(never)]
    fn resize_slow(state: &State, kind: OpKind, new_layout: Layout, grew: bool) {
        if bypass_active() {
            return;
        }
        let _op = BypassGuard::enter(state);
        Recorder::time(
            &state.obs,
            kind,
            || state.cache.count_resize(grew, false),
            |_| (size_detail(base_request_size(new_layout)), true),
        );
    }
}

// SAFETY: every pointer is either region-owned (granted and released by the
// stack, told apart by address range) or System-owned.  A region block is
// a whole block of the class `max(size, align)` names, whose size is at
// least that and whose address is aligned to it on the power-of-two tree,
// so every layout requirement is met on the fast path, the cached route and
// the raw one alike; `realloc` keeps the first `min(old, new)` bytes on
// every path.
unsafe impl GlobalAlloc for NbbsGlobalAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match self.alloc_fast(layout) {
            Some(ptr) => ptr,
            // SAFETY: the caller's contract.
            None => unsafe { self.alloc_slow(layout, false) },
        }
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        match self.alloc_fast(layout) {
            Some(ptr) => {
                // SAFETY: a block of at least `layout.size()` bytes.
                unsafe { ptr.write_bytes(0, layout.size()) };
                ptr
            }
            // SAFETY: the caller's contract.
            None => unsafe { self.alloc_slow(layout, true) },
        }
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !self.dealloc_fast(ptr, layout) {
            // SAFETY: the caller's contract.
            unsafe { self.dealloc_slow(ptr, layout) }
        }
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some((state, _)) = self.owned(ptr) else {
            // SAFETY: outside the region, so `System` allocated it, under
            // `layout` (the caller's contract).
            let out = unsafe { System.realloc(ptr, layout, new_size) };
            if !out.is_null() {
                self.system
                    .bytes
                    .fetch_add(new_size as u64, Ordering::Relaxed);
            }
            return out;
        };
        // SAFETY: the caller's contract: `new_size`, rounded up to the
        // alignment, does not overflow `isize`.
        let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        let grew = new_size >= layout.size();
        let kind = if grew { OpKind::Grow } else { OpKind::Shrink };
        let class = state.class_of(new_layout);
        if class.is_some() && class == state.class_of(layout) {
            if KEY.with(Cell::get) == state.key {
                state.cache.count_resize(grew, false);
            } else {
                Self::resize_slow(state, kind, new_layout, grew);
            }
            return ptr;
        }
        let in_region = |out| state.offset_of(out).is_some();
        Recorder::time(
            &state.obs,
            kind,
            // SAFETY: the caller's contract: `ptr` is live under `layout`.
            // The blocks are distinct, each holding the bytes copied, and
            // the old one is released once, under its layout.
            || unsafe {
                let out = self.alloc(new_layout);
                if !out.is_null() {
                    std::ptr::copy_nonoverlapping(ptr, out, layout.size().min(new_size));
                    self.dealloc(ptr, layout);
                }
                if in_region(out) && !bypass_active() {
                    state.cache.count_resize(grew, true);
                }
                out
            },
            |&out| (size_detail(base_request_size(new_layout)), in_region(out)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// `a`'s recorder: present when built under `NBBS_OBS=1` or
    /// `NBBS_TRACE=…`.
    fn recorder(a: &NbbsGlobalAlloc) -> Option<&Arc<Recorder>> {
        a.built_state()?.obs.as_ref()
    }

    /// The ranked heap profile of `a`'s armed profiler, if it has one.
    fn heap_profile(a: &NbbsGlobalAlloc) -> Option<nbbs_obs::ProfileReport> {
        Some(a.built_state()?.profiler.as_ref()?.report())
    }

    /// A small shell built as if the environment armed `arming`.
    fn armed(arming: Arming) -> NbbsGlobalAlloc {
        let a = NbbsGlobalAlloc::new(1 << 18, 64, 1 << 12);
        a.build_once(|| arming);
        a
    }

    /// Every call reads the `OnceLock`; a `System`-routed request writes
    /// the counters.  No 128-byte span (a line and the one the adjacent-line
    /// prefetcher pairs with it) holds both.
    #[test]
    fn the_system_counters_have_their_lines_to_themselves() {
        use std::mem::{offset_of, size_of};
        let counters = offset_of!(NbbsGlobalAlloc, system);
        assert_eq!(counters % 128, 0);
        let end = counters + size_of::<CachePadded<SystemCounters>>();
        let others = [
            (
                offset_of!(NbbsGlobalAlloc, state),
                size_of::<OnceLock<Option<State>>>(),
            ),
            (
                offset_of!(NbbsGlobalAlloc, total_memory),
                size_of::<usize>(),
            ),
            (offset_of!(NbbsGlobalAlloc, min_size), size_of::<usize>()),
            (offset_of!(NbbsGlobalAlloc, max_size), size_of::<usize>()),
        ];
        for (start, len) in others {
            assert!(
                start + len <= counters || start >= end,
                "a field at {start}..{} shares the counters' span {counters}..{end}",
                start + len
            );
        }
    }

    #[test]
    fn serves_small_requests_from_the_cached_buddy() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        let layout = Layout::from_size_align(512, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert!(a.owns(p));
            assert_eq!(a.buddy_allocated_bytes(), 512);
            p.write_bytes(0xCD, 512);
            a.dealloc(p, layout);
        }
        // The chunk parks in a magazine: user-visible accounting is zero.
        assert_eq!(a.buddy_allocated_bytes(), 0);
        assert!(a.cache_stats().unwrap().cached_frees > 0);
        assert_eq!(a.shell_stats().buddy_share(), 1.0);
    }

    #[test]
    fn reading_a_shell_that_served_nothing_does_not_build_it() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        let metrics = a.metrics();
        let report = a.stats_report();
        assert_eq!(a.bytes_served(), (0, 0));
        assert!(a.cache_stats().is_none());
        assert_eq!(a.scrub_pass(), 0);
        a.drain_cache();
        assert!(a.state.get().is_none(), "a read built the stack");
        assert!(metrics.memory.is_none() && metrics.cache.is_none());
        assert_eq!(metrics.shell, Some(ShellStatsSnapshot::default()));
        assert!(
            report.starts_with("== nbbs stack: nbbs-alloc =="),
            "{report}"
        );
    }

    #[test]
    fn over_aligned_requests_are_buddy_served() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        let layout = Layout::from_size_align(64, 4096).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert!(a.owns(p), "over-aligned request did not punt to System");
            assert_eq!(p as usize % 4096, 0);
            a.dealloc(p, layout);
        }
        assert_eq!(a.shell_stats().buddy_share(), 1.0);
    }

    #[test]
    fn oversized_requests_fall_back_to_system() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 12);
        let layout = Layout::from_size_align(1 << 16, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert!(!a.owns(p));
            a.dealloc(p, layout);
        }
        assert!(a.shell_stats().buddy_share() < 1.0);
    }

    #[test]
    fn invalid_configuration_degrades_to_system() {
        let a = NbbsGlobalAlloc::new(1000, 64, 512); // not a power of two
        let layout = Layout::from_size_align(128, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert!(!a.owns(p));
            a.dealloc(p, layout);
        }
    }

    #[test]
    fn realloc_grows_in_place_within_the_granted_block() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        let layout = Layout::from_size_align(100, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            p.write_bytes(0x11, 100);
            let q = a.realloc(p, layout, 128);
            assert_eq!(q, p, "grow inside the 128-byte grant");
            assert_eq!(*q.add(99), 0x11);
            a.dealloc(q, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(a.shell_stats().grows_in_place, 1);
        // An in-place grow serves nothing new: the buddy figure stays the
        // one 100-byte allocation.
        assert_eq!(a.bytes_served().0, 100);
    }

    #[test]
    fn a_shell_built_where_one_was_dropped_still_registers_its_threads() {
        // Two shells in turn at one address, both used by one thread: the
        // registration must tell them apart, or the thread's magazines in
        // the second are never drained when it exits.
        let mut place = Box::new(std::mem::MaybeUninit::<NbbsGlobalAlloc>::uninit());
        let layout = Layout::from_size_align(256, 8).unwrap();
        std::thread::scope(|s| {
            // SAFETY: each shell is written before it is used and dropped
            // exactly once; every block goes back to the shell it came from.
            s.spawn(|| unsafe {
                let first = place.write(NbbsGlobalAlloc::new(1 << 18, 64, 1 << 12));
                let p = first.alloc(layout);
                first.dealloc(p, layout);
                place.assume_init_drop();
                let second = place.write(NbbsGlobalAlloc::new(1 << 18, 64, 1 << 12));
                let p = second.alloc(layout);
                second.dealloc(p, layout);
            })
            // An explicit join waits for the thread's TLS destructors, the
            // exit drain among them; the end of the scope alone does not.
            .join()
            .unwrap();
        });
        // SAFETY: the thread left the second shell initialised.
        let second = unsafe { place.assume_init_ref() };
        assert!(
            second.cache_stats().unwrap().drained > 0,
            "the exiting thread drained its magazines in the second shell"
        );
        assert_eq!(second.buddy_allocated_bytes(), 0);
        // SAFETY: initialised, and not used again.
        unsafe { place.assume_init_drop() };
    }

    #[test]
    fn concurrent_first_touch_all_land_in_the_buddy() {
        // The old adapter's `initializing` spin-flag sent every losing
        // first-touch thread to System; the OnceLock discipline makes them
        // block briefly and then allocate buddy memory like the winner.
        let a = std::sync::Arc::new(NbbsGlobalAlloc::new(16 << 20, 64, 1 << 14));
        let barrier = std::sync::Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = std::sync::Arc::clone(&a);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let layout = Layout::from_size_align(256, 16).unwrap();
                    barrier.wait();
                    let mut all_buddy = true;
                    for _ in 0..100 {
                        // SAFETY: each block is freed once, under the layout it came with.
                        unsafe {
                            let p = a.alloc(layout);
                            assert!(!p.is_null());
                            all_buddy &= a.owns(p);
                            a.dealloc(p, layout);
                        }
                    }
                    all_buddy
                })
            })
            .collect();
        for h in handles {
            assert!(
                h.join().unwrap(),
                "a first-touch thread fell back to System"
            );
        }
        assert_eq!(a.shell_stats().buddy_share(), 1.0);
    }

    #[test]
    fn stats_report_carries_shares_and_no_node_rows() {
        // The shipped stack has no routing layer under the cache, and the
        // report has no per-node rows.
        let a = NbbsGlobalAlloc::new(1 << 18, 64, 1 << 12);
        let layout = Layout::from_size_align(100, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            let q = a.realloc(p, layout, 128); // in-place grow
            a.dealloc(q, Layout::from_size_align(128, 8).unwrap());
        }
        let report = a.stats_report();
        assert!(report.contains("buddy share"), "{report}");
        assert!(report.contains("grows in place"), "{report}");
        assert!(!report.contains("node 0:"), "{report}");
    }

    #[test]
    fn recording_build_reports_latency_and_flight() {
        let a = armed(Arming {
            recording: true,
            ..Arming::default()
        });
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            assert!(a.owns(p));
            let q = a.realloc(p, layout, 2048); // moved grow
            a.dealloc(q, Layout::from_size_align(2048, 8).unwrap());
        }
        assert!(recorder(&a).is_some());
        let report = a.stats_report();
        assert!(report.contains("latency  alloc"), "{report}");
        assert!(report.contains("latency  grow"), "{report}");
        assert!(report.contains("[flight]"), "{report}");
        let metrics = a.metrics();
        let grow = metrics.latency_of(OpKind::Grow).expect("a grow recorded");
        assert!(grow.p99_ns.is_finite(), "{grow:?}");
    }

    #[test]
    fn unobserved_build_reads_no_timestamps() {
        let a = NbbsGlobalAlloc::new(1 << 16, 64, 1 << 10);
        // Whatever NBBS_* the suite runs under, this build sees none.
        a.build_once(Arming::default);
        let layout = Layout::from_size_align(128, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        }
        assert!(recorder(&a).is_none());
        assert!(!a.stats_report().contains("latency"), "no latency section");
    }

    /// A literal environment for [`Arming::parse`].
    fn env<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn arming_parses_the_documented_forms() {
        use TraceDump::{File, Stderr};
        // (environment, (recording, trace, profile_stride, scrub_ms))
        type Row<'a> = (
            &'a [(&'a str, &'a str)],
            (bool, Option<TraceDump>, Option<u32>, Option<u64>),
        );
        let table: [Row<'_>; 14] = [
            (&[], (false, None, None, None)),
            (&[("NBBS_TRACE", "0")], (false, None, None, None)),
            (&[("NBBS_TRACE", "1")], (true, Some(Stderr), None, None)),
            (&[("NBBS_TRACE", "")], (true, Some(Stderr), None, None)),
            (
                &[("NBBS_TRACE", "/tmp/t.json")],
                (true, Some(File("/tmp/t.json".into())), None, None),
            ),
            (&[("NBBS_PROFILE", "0")], (false, None, None, None)),
            (&[("NBBS_PROFILE", "64")], (false, None, Some(64), None)),
            (
                &[("NBBS_PROFILE", "abc")],
                (false, None, Some(DEFAULT_PROFILE_STRIDE), None),
            ),
            (&[("NBBS_SCRUB", "0")], (false, None, None, None)),
            (&[("NBBS_SCRUB", "5")], (false, None, None, Some(5))),
            (&[("NBBS_SCRUB", "abc")], (false, None, None, Some(100))),
            (&[("NBBS_OBS", "0")], (false, None, None, None)),
            (&[("NBBS_OBS", "1")], (true, None, None, None)),
            (
                &[
                    ("NBBS_OBS", "0"),
                    ("NBBS_TRACE", "1"),
                    ("NBBS_PROFILE", "8"),
                ],
                (true, Some(Stderr), Some(8), None),
            ),
        ];
        for (vars, (recording, trace, profile_stride, scrub_ms)) in table {
            let want = Arming {
                recording,
                trace,
                profile_stride,
                scrub_ms,
            };
            assert_eq!(Arming::parse(env(vars)), want, "{vars:?}");
        }
    }

    #[test]
    fn each_armed_part_builds_the_matching_handle() {
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        let touch = |a: &NbbsGlobalAlloc| unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        };
        // Trace alone: a timing handle, no profiler, and an exit dump.
        let a = NbbsGlobalAlloc::new(1 << 18, 64, 1 << 12);
        let path = std::env::temp_dir().join(format!("nbbs-arming-{}.json", std::process::id()));
        a.build_once(|| Arming::parse(env(&[("NBBS_TRACE", path.to_str().unwrap())])));
        touch(&a);
        assert!(heap_profile(&a).is_none());
        a.dump_trace();
        let doc = std::fs::read_to_string(&path).expect("the dump went to the named file");
        let _ = std::fs::remove_file(&path);
        let slices = nbbs_obs::jsoncheck::validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(slices, 4, "alloc (a miss and its refill under it), free");
        assert!(
            !recorder(&a).unwrap().ring().is_recording(),
            "dump stops it"
        );
        // Profile alone: a profiler and no recorder.
        let a = armed(Arming::parse(env(&[("NBBS_PROFILE", "2")])));
        touch(&a);
        assert_eq!(heap_profile(&a).unwrap().stride, 2);
        assert!(recorder(&a).is_none());
        assert!(!a.stats_report().contains("latency"), "no latency section");
        a.dump_trace(); // not armed: nothing to do
    }

    #[test]
    fn print_stats_on_exit_registers_and_dumps() {
        // Leak an instance so it is 'static, as a #[global_allocator]
        // static would be; registering twice must stay idempotent, and the
        // dump path (exercised directly here, via atexit at process end)
        // must not panic.
        let a: &'static NbbsGlobalAlloc =
            Box::leak(Box::new(NbbsGlobalAlloc::new(1 << 16, 64, 1 << 10)));
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        }
        a.print_stats_on_exit();
        a.print_stats_on_exit();
        super::exit_dump::dump_now();
    }

    #[test]
    fn profiling_build_attributes_live_bytes_to_sites() {
        let a = armed(Arming {
            profile_stride: Some(1),
            ..Arming::default()
        });
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            assert!(a.owns(p));
            let profile = heap_profile(&a).expect("profiler armed");
            assert_eq!(profile.stride, 1);
            assert_eq!(profile.attributed_live_bytes(), 256);
            assert!(
                a.stats_report().contains("== heap profile:"),
                "report carries the ranked site table"
            );
            a.dealloc(p, layout);
        }
        assert_eq!(heap_profile(&a).unwrap().attributed_live_bytes(), 0);
        assert!(recorder(&a).is_none(), "profiling alone reads no timestamp");
        // Requested-vs-granted flows into the unified snapshot.
        let share = a.metrics().shell.expect("shell share present");
        assert_eq!(share.requested_bytes, 256);
        assert_eq!(share.granted_bytes, 256);
    }

    #[test]
    fn frees_on_the_bypass_path_reach_the_profiler() {
        // A block sampled on the cached route and freed with the bypass
        // latch engaged (a thread past its exit drain, the old block of a
        // re-entrant realloc) used to stay live in the profile until its
        // offset was recycled.
        let a = armed(Arming {
            profile_stride: Some(1),
            ..Arming::default()
        });
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            assert_eq!(heap_profile(&a).unwrap().attributed_live_bytes(), 256);
            let _latched = BypassGuard::engage();
            a.dealloc(p, layout);
        }
        assert_eq!(heap_profile(&a).unwrap().attributed_live_bytes(), 0);
    }

    #[test]
    fn degraded_mode_telemetry_reports_failovers() {
        // 2 KiB arena: two 1 KiB blocks, then the buddy is out of memory.
        let a = NbbsGlobalAlloc::new(2048, 64, 1024);
        let layout = Layout::from_size_align(1024, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p1 = a.alloc(layout);
            let p2 = a.alloc(layout);
            let p3 = a.alloc(layout); // buddy OOM -> System failover
            assert!(a.owns(p1) && a.owns(p2));
            assert!(!a.owns(p3), "third request fell over to System");
            assert_eq!(a.system_failovers(), 1);
            a.dealloc(p1, layout);
            a.dealloc(p2, layout);
            a.dealloc(p3, layout);
        }
        let report = a.stats_report();
        assert!(
            report.contains("degraded: 1 system failovers\n"),
            "{report}"
        );
        assert_eq!(a.metrics().shell.unwrap().system_failovers, 1);
    }

    #[test]
    fn metrics_carry_committed_memory_and_scrub_counters() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        let layout = Layout::from_size_align(512, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        }
        let mem = a.metrics().memory.expect("state built");
        assert_eq!(mem.managed_bytes, 1 << 20);
        let page = nbbs::mapping::page_size() as u64;
        // The grant was a miss: the region committed the pages of its block
        // and of every block the refill took behind it, as the tree granted
        // them, one run of adjacent blocks.
        let granted = 512 * (1 + a.cache_stats().unwrap().refilled);
        assert!(granted > 512, "the miss refilled the magazines");
        assert!(
            (granted..=granted.next_multiple_of(page) + page).contains(&mem.committed_bytes),
            "{granted} B granted, {} B committed",
            mem.committed_bytes
        );
        // Magazine-parked chunks are backend-live and refuse scrub claims;
        // drain first so the pass sees a fully idle tree.
        a.drain_cache();
        let freed = a.scrub_pass();
        assert_eq!(
            freed as u64, mem.committed_bytes,
            "the refill's pages were decommitted"
        );
        let mem = a.metrics().memory.unwrap();
        assert!(mem.scrub_passes >= 1);
        assert_eq!(mem.committed_bytes, 0);
        // The nested route commits the whole block too: 9 000 B get 16 KiB.
        let nested = Layout::from_size_align(9000, 8).unwrap();
        // SAFETY: the block is freed once, under the layout it came with.
        unsafe {
            let _latched = BypassGuard::engage();
            let p = a.alloc(nested);
            assert_eq!(a.metrics().memory.unwrap().committed_bytes, 16 << 10);
            a.dealloc(p, nested);
        }
        let report = a.stats_report();
        assert!(report.contains("  memory   "), "{report}");
        assert!(report.contains("  scrub    "), "{report}");
    }

    #[test]
    fn nbbs_scrub_env_arms_the_background_scrubber() {
        let a = NbbsGlobalAlloc::new(1 << 18, 64, 1 << 12);
        // This instance's first touch, under NBBS_SCRUB=5 and nothing else;
        // the process environment (and every neighbouring test) stays as
        // it was.
        a.build_once(|| Arming::parse(env(&[("NBBS_SCRUB", "5")])));
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while a.metrics().memory.map_or(0, |m| m.scrub_passes) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "background scrubber never completed a pass"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    /// Pages of `[ptr, ptr + len)` the kernel has backed, by `mincore(2)`.
    #[cfg(target_os = "linux")]
    fn resident_pages(ptr: *mut u8, len: usize) -> usize {
        extern "C" {
            fn mincore(addr: *mut std::ffi::c_void, length: usize, vec: *mut u8)
                -> std::ffi::c_int;
        }
        let page = nbbs::mapping::page_size();
        let start = ptr as usize & !(page - 1);
        let len = ptr as usize + len - start;
        let mut vec = vec![0u8; len.div_ceil(page)];
        // SAFETY: the range is mapped (it holds a live allocation) and `vec`
        // has one byte per page of it.
        let rc = unsafe { mincore(start as *mut _, len, vec.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore failed");
        vec.iter().filter(|&&b| b & 1 != 0).count()
    }

    /// Two threads churn several classes, each freeing half of what it
    /// allocates and sending the other half to its peer to free.
    fn churn_with_remote_frees(a: &NbbsGlobalAlloc) {
        const SIZES: [usize; 6] = [24, 100, 300, 1000, 2500, 6000];
        type Batch = Vec<(usize, Layout)>;
        let free = |batch: Batch| {
            for (p, layout) in batch {
                // SAFETY: allocated below under `layout`, freed once.
                unsafe { a.dealloc(p as *mut u8, layout) };
            }
        };
        let (to_second, from_first) = std::sync::mpsc::channel::<Batch>();
        let (to_first, from_second) = std::sync::mpsc::channel::<Batch>();
        std::thread::scope(|s| {
            let threads =
                [(to_second, from_second), (to_first, from_first)].map(|(peer, inbox)| {
                    s.spawn(move || {
                        for round in 0..40 {
                            let mut mine: Batch = (0..48)
                                .map(|i| {
                                    let size = SIZES[(i + round) % SIZES.len()];
                                    let layout = Layout::from_size_align(size, 8).unwrap();
                                    // SAFETY: a non-zero layout.
                                    let p = unsafe { a.alloc(layout) };
                                    assert!(a.owns(p), "{layout:?} was served by the buddy");
                                    // SAFETY: the block holds `size` bytes.
                                    unsafe { p.write_bytes(0xA5, size) };
                                    (p as usize, layout)
                                })
                                .collect();
                            peer.send(mine.split_off(24)).unwrap();
                            free(mine);
                            while let Ok(batch) = inbox.try_recv() {
                                free(batch);
                            }
                        }
                        drop(peer);
                        // Until the peer is done sending.
                        inbox.into_iter().for_each(free);
                    })
                });
            // An explicit join waits for each thread's exit drain.
            for thread in threads {
                thread.join().unwrap();
            }
        });
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_night_gives_back_every_page_the_hits_wrote() {
        // A refilled chunk must be committed when a hit serves it: a page
        // written without being marked committed is one the scrubber
        // believes is already given back, and it stays resident.
        const TOTAL: usize = 4 << 20;
        let a = NbbsGlobalAlloc::new(TOTAL, 32, 16 << 10);
        a.build_once(Arming::default);
        let base = a.built_state().unwrap().region().base().as_ptr();
        for night in 0..4 {
            churn_with_remote_frees(&a);
            a.drain_cache();
            a.scrub_pass();
            assert_eq!(a.buddy_allocated_bytes(), 0, "night {night}: nothing live");
            assert_eq!(
                a.metrics().memory.unwrap().committed_bytes,
                0,
                "night {night}: committed"
            );
            assert_eq!(
                resident_pages(base, TOTAL),
                0,
                "night {night}: pages of the arena still resident"
            );
        }
        assert!(a.cache_stats().unwrap().hits > 0, "the days hit");
    }

    #[test]
    fn alloc_zeroed_is_zeroed_on_every_route() {
        let a = NbbsGlobalAlloc::new(1 << 16, 64, 1 << 12);
        let block = Layout::from_size_align(1 << 12, 8).unwrap();
        let reads_zero = |p: *mut u8| {
            assert!(!p.is_null());
            // SAFETY: a live block of `block.size()` bytes.
            unsafe { std::slice::from_raw_parts(p, block.size()) }
                .iter()
                .all(|&b| b == 0)
        };
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            // Buddy, after a dirty free: every block of the arena has been
            // written, so whichever one comes back was dirty.
            let dirty = |a: &NbbsGlobalAlloc| {
                for p in fill_until_system(a, block) {
                    p.write_bytes(0xA5, block.size());
                    a.dealloc(p, block);
                }
            };
            dirty(&a);
            let p = a.alloc_zeroed(block);
            assert!(a.owns(p));
            assert!(reads_zero(p), "a recycled buddy block comes back zeroed");
            a.dealloc(p, block);

            // The bypass route (a nested allocation): the raw tree, past
            // the cache, so drain what the cache parked first.
            a.drain_cache();
            {
                let _latched = BypassGuard::engage();
                dirty(&a);
                let p = a.alloc_zeroed(block);
                assert!(a.owns(p));
                assert!(reads_zero(p), "a raw-route block comes back zeroed");
                a.dealloc(p, block);
            }

            // `System`, for a request above the largest block: calloc, whose
            // fresh pages stay unbacked until written (64 MiB is past glibc's
            // largest mmap threshold, so this is a fresh mapping).
            let huge = Layout::from_size_align(64 << 20, 8).unwrap();
            let p = a.alloc_zeroed(huge);
            assert!(!p.is_null() && !a.owns(p));
            for at in [0, huge.size() / 2, huge.size() - 1] {
                assert_eq!(*p.add(at), 0, "byte {at} of a System block");
            }
            #[cfg(target_os = "linux")]
            {
                let pages = huge.size() / nbbs::mapping::page_size();
                let resident = resident_pages(p, huge.size());
                assert!(
                    resident < pages / 4,
                    "{resident} of {pages} pages written: alloc plus memset, not calloc"
                );
            }
            a.dealloc(p, huge);
        }
    }

    #[test]
    fn exhaustion_falls_back_to_system_instead_of_failing() {
        let a = NbbsGlobalAlloc::new(1024, 64, 1024);
        let layout = Layout::from_size_align(1024, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let p1 = a.alloc(layout);
            let p2 = a.alloc(layout);
            assert!(!p1.is_null() && !p2.is_null());
            assert!(a.owns(p1));
            assert!(!a.owns(p2), "second request must come from the system");
            a.dealloc(p1, layout);
            a.dealloc(p2, layout);
        }
    }

    /// Allocates `layout` until a block lands in `System`; returns them all.
    ///
    /// # Safety
    ///
    /// `layout` has a non-zero size.
    unsafe fn fill_until_system(a: &NbbsGlobalAlloc, layout: Layout) -> Vec<*mut u8> {
        let mut blocks = Vec::new();
        loop {
            // SAFETY: the caller's contract.
            let p = unsafe { a.alloc(layout) };
            assert!(!p.is_null());
            blocks.push(p);
            if !a.owns(p) {
                return blocks;
            }
        }
    }

    #[test]
    fn a_realloc_the_stack_fails_and_system_rescues_is_a_failover() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        let big = Layout::from_size_align(1 << 16, 8).unwrap();
        let page = Layout::from_size_align(1 << 12, 8).unwrap();
        let small = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: each block is freed once, under the layout it came with.
        unsafe {
            let mut bigs = fill_until_system(&a, big);
            assert_eq!(a.system_failovers(), 1);
            // Leave one 64 KiB block free in the tree, and carve it up: a
            // 64 B block, then 4 KiB pages until one fails over.
            a.dealloc(bigs.remove(0), big);
            a.drain_cache();
            let p = a.alloc(small);
            assert!(a.owns(p));
            let pages = fill_until_system(&a, page);
            assert_eq!(a.system_failovers(), 2);
            a.drain_cache();
            // No 8 KiB block is left: the 64 B block moves to `System`.
            let q = a.realloc(p, small, 8192);
            assert!(!q.is_null() && !a.owns(q), "moved out of the region");
            assert_eq!(
                a.system_failovers(),
                3,
                "the stack failed a request it could have held"
            );
            a.dealloc(q, Layout::from_size_align(8192, 8).unwrap());
            for x in pages {
                a.dealloc(x, page);
            }
            for x in bigs {
                a.dealloc(x, big);
            }
        }
        assert_eq!(a.buddy_allocated_bytes(), 0);
    }

    #[test]
    fn calls_past_the_exit_latch_take_the_raw_route_and_book_nothing() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        a.build_once(Arming::default);
        let layout = |size| Layout::from_size_align(size, 8).unwrap();
        // What the raw route leaves alone: the cache's counters, and what
        // the grants and the realloc split booked.
        let tallies = |a: &NbbsGlobalAlloc| (a.cache_stats(), a.shell_stats());
        let on_a_thread =
            |f: &(dyn Fn() + Sync)| std::thread::scope(|s| s.spawn(f).join().unwrap());
        // SAFETY: each block is live under the layout it is passed with, and
        // the last one is freed once under its own.
        on_a_thread(&|| unsafe {
            // Registered, with the class's magazines loaded, then drained.
            a.dealloc(a.alloc(layout(100)), layout(100));
            a.built_state().unwrap().exit_hook.drain();
            let (before, live) = (tallies(&a), a.buddy_allocated_bytes());
            let p = a.alloc(layout(100));
            assert!(a.owns(p));
            assert_eq!(a.buddy_allocated_bytes(), live + 128, "a raw grant");
            p.write_bytes(0x5A, 100);
            assert_eq!(a.realloc(p, layout(100), 120), p, "the same class");
            let q = a.realloc(p, layout(120), 1000);
            assert!(a.owns(q) && q != p, "a raw move");
            assert!((0..100).all(|i| *q.add(i) == 0x5A), "its contents");
            assert_eq!(a.buddy_allocated_bytes(), live + 1024);
            a.dealloc(q, layout(1000));
            assert_eq!(a.buddy_allocated_bytes(), live);
            assert_eq!(tallies(&a), before, "the raw route books nothing");
        });
        let hits = a.cache_stats().unwrap().hits;
        // SAFETY: each block is freed once, under the layout it came with.
        on_a_thread(&|| unsafe {
            for _ in 0..2 {
                a.dealloc(a.alloc(layout(100)), layout(100));
            }
        });
        assert!(a.cache_stats().unwrap().hits > hits, "a later thread hits");
    }
}
