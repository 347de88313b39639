//! The `#[global_allocator]` entry point: a lazily-built, magazine-cached
//! [`NbbsAllocator`] behind a `const`-constructible shell.
//!
//! The stack is three layers — the lock-free [`NbbsFourLevel`] tree, a
//! [`MagazineCache`] over it, the [`NbbsAllocator`] facade over that — and
//! the shell's three sizes are all there is to configure.  Observation and
//! the background scrubber are armed by the environment alone (`NBBS_OBS`,
//! `NBBS_TRACE`, `NBBS_PROFILE`, `NBBS_SCRUB`), read once when the stack is
//! built.  What the shell adds around the stack:
//!
//! * **Cached.**  Requests route through `MagazineCache<NbbsFourLevel>`, so
//!   the hot path is a per-thread magazine pop/push instead of a tree walk.
//! * **`OnceLock::get_or_init` first touch.**  The old adapter guarded
//!   initialization with an `initializing` spin-flag: while one thread
//!   built the region, every other first-touch thread was waved off to the
//!   system allocator — under a concurrent start, a slice of early
//!   allocations (often long-lived ones) permanently escaped the buddy.
//!   Here the losing threads *block* on the `OnceLock` for the few
//!   microseconds the build takes and then get buddy memory like everyone
//!   else; only the building thread's own re-entrant metadata allocations
//!   fall through to `System` (they must — the state does not exist yet).
//! * **In-place realloc.**  `realloc` goes through [`NbbsAllocator::grow`] /
//!   [`NbbsAllocator::shrink`], so growing a `Vec` inside its granted buddy
//!   block is free.
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
//! recursing miss-into-miss.  The facade cuts the knot with a thread-local
//! bypass latch: while a thread is inside a facade operation, any nested
//! allocation it performs skips the cache and goes straight to the raw tree
//! (or `System` if the tree cannot serve it).  The latch is also left
//! permanently engaged on a thread once its exit drain has run, so the
//! teardown's own frees cannot re-park chunks into the slot being emptied.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use nbbs::{BuddyBackend, BuddyConfig, FacadeStatsSnapshot, NbbsFourLevel};
use nbbs_cache::{drain_on_thread_exit, CacheConfig, DrainOnExit, MagazineCache};
use nbbs_obs::{MetricsRegistry, Recorder, DEFAULT_PROFILE_STRIDE};

use crate::facade::{NbbsAllocator, Odometer};

type CachedTree = MagazineCache<NbbsFourLevel>;

thread_local! {
    /// True while this thread is inside a facade operation (or exiting):
    /// nested allocations bypass the cache.  `Cell<bool>` with const init
    /// has no destructor, so the flag stays readable through every phase of
    /// thread teardown.
    static BYPASS: Cell<bool> = const { Cell::new(false) };

    /// Address of the exit hook this thread last registered its exit drain
    /// with — the fast path of the once-per-thread registration.
    static REGISTERED_WITH: Cell<usize> = const { Cell::new(0) };
}

fn bypass_active() -> bool {
    BYPASS.try_with(Cell::get).unwrap_or(true)
}

/// `System.alloc`, or `System.alloc_zeroed` for a zeroed request.
unsafe fn system_alloc(layout: Layout, zeroed: bool) -> *mut u8 {
    if zeroed {
        System.alloc_zeroed(layout)
    } else {
        System.alloc(layout)
    }
}

/// RAII engagement of the bypass latch around one facade operation.
struct BypassGuard;

impl BypassGuard {
    fn engage() -> BypassGuard {
        let _ = BYPASS.try_with(|b| b.set(true));
        BypassGuard
    }
}

impl Drop for BypassGuard {
    fn drop(&mut self) {
        let _ = BYPASS.try_with(|b| b.set(false));
    }
}

/// The exit-drain hook handed to `nbbs-cache`: latches the bypass for good
/// (the thread is dying; everything it frees from here on must go straight
/// to the tree), empties the thread's slot and gives it up, and gives the
/// thread's odometer stripe up too, so the next thread mapping to either
/// owns it.
struct ExitLatch {
    cache: Arc<CachedTree>,
    odometer: Arc<Odometer>,
}

impl DrainOnExit for ExitLatch {
    fn drain(&self) {
        let _ = BYPASS.try_with(|b| b.set(true));
        self.cache.drain_current_thread();
        self.odometer.release_mine();
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
    /// `NBBS_TRACE`: dump the event ring when the process exits.
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
    /// The whole stack: the magazine cache is `facade.backend()`, the tree
    /// under it `facade.backend().backend()`.
    facade: NbbsAllocator<Arc<CachedTree>>,
    exit_hook: Arc<ExitLatch>,
    /// What the environment armed when the stack was built.  The observer
    /// itself — one `Recorder` shared by the facade and the cache's slow
    /// paths — is reached through the facade.
    env: Arming,
}

/// Global-allocator facade over the cached non-blocking buddy.
///
/// Construction is `const` so it can sit in a `#[global_allocator]` static;
/// the full stack (tree → magazine cache → facade, over one region) is
/// built on first use under [`OnceLock::get_or_init`], with whatever the
/// `NBBS_*` environment arms.  Invalid size combinations degrade to the
/// system allocator instead of panicking.
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
    /// Bytes that fell through to the system allocator (oversized requests,
    /// exhaustion, and the metadata of the initial build).
    system_bytes: AtomicU64,
    /// Requests the *built* buddy stack failed that were rescued by
    /// `System` — degraded-mode events, distinct from `system_bytes`' routine
    /// oversized/bootstrap traffic.
    system_failovers: AtomicU64,
}

impl NbbsGlobalAlloc {
    /// Creates the facade.  The three sizes follow [`BuddyConfig::new`];
    /// invalid combinations make every request fall back to the system
    /// allocator (a global allocator must not panic).
    pub const fn new(total_memory: usize, min_size: usize, max_size: usize) -> Self {
        NbbsGlobalAlloc {
            total_memory,
            min_size,
            max_size,
            state: OnceLock::new(),
            system_bytes: AtomicU64::new(0),
            system_failovers: AtomicU64::new(0),
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
        // One handle for the whole stack.
        let recorder = match (env.recording, env.profile_stride) {
            (true, Some(stride)) => Some(Recorder::new().with_profiler(stride)),
            (true, None) => Some(Recorder::new()),
            (false, Some(stride)) => Some(Recorder::profiler_only(stride)),
            (false, None) => None,
        }
        .map(Arc::new);
        let mut cache = MagazineCache::with_config_and_name(
            NbbsFourLevel::new(config),
            CacheConfig::default(),
            "cached-4lvl-nb",
        );
        cache.set_recorder(recorder.clone());
        let cache = Arc::new(cache);
        let mut facade = NbbsAllocator::new(Arc::clone(&cache));
        if let Some(recorder) = recorder {
            facade = facade.with_recorder(recorder);
        }
        // The background decommit scrubber: every `scrub_ms` milliseconds
        // it claims quiescent free blocks through the allocation CAS
        // protocol and returns their pages to the kernel, so a long-idle
        // process's RSS follows its live set instead of its high-water mark.
        if let Some(ms) = env.scrub_ms {
            facade
                .region()
                .start_scrubber(std::time::Duration::from_millis(ms));
        }
        let exit_hook = Arc::new(ExitLatch {
            cache,
            odometer: Arc::clone(facade.odometer()),
        });
        Some(State {
            facade,
            exit_hook,
            env,
        })
    }

    /// The state if it has already been built (never triggers the build —
    /// release paths use this: a pointer cannot be buddy-owned before the
    /// buddy exists).
    fn built_state(&self) -> Option<&State> {
        self.state.get().and_then(|s| s.as_ref())
    }

    /// Registers this thread's exit drain, once per thread (fast-path: one
    /// TLS compare).  Runs under the bypass latch, so the registry's own
    /// allocation cannot recurse into the cache.
    ///
    /// Keyed on the exit hook's address, not the shell's: the thread's
    /// registry keeps a clone of every hook it was given, so a hook's
    /// address cannot be reused while a thread still compares against it.
    /// A shell's can — a new one built where a dropped one stood.
    fn register_current_thread(state: &State) {
        let hook = Arc::as_ptr(&state.exit_hook) as usize;
        let _ = REGISTERED_WITH.try_with(|r| {
            if r.get() != hook {
                drain_on_thread_exit(Arc::clone(&state.exit_hook) as Arc<dyn DrainOnExit>);
                r.set(hook);
            }
        });
    }

    /// `alloc` (`zeroed == false`) and `alloc_zeroed` in one body: the
    /// route is the same, only the two ends differ.  A buddy block is
    /// zeroed here, since chunks are recycled dirty; a request that goes to
    /// `System` (before or during the build, oversized, failed over) asks
    /// it for zeroed memory, which for a large size is fresh demand-zero
    /// pages rather than a memset.  The stack's own metadata arrays below
    /// 64 KiB are such requests while the stack is being built (larger ones
    /// are mapped directly, see [`nbbs_sync::zeroed_slice`]).
    #[inline(always)]
    unsafe fn serve(&self, layout: Layout, zeroed: bool) -> *mut u8 {
        let Some(state) = self.state() else {
            self.system_bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
            return system_alloc(layout, zeroed);
        };
        if bypass_active() {
            return self.raw_alloc(state, layout, zeroed);
        }
        let _op = BypassGuard::engage();
        Self::register_current_thread(state);
        match state.facade.allocate(layout) {
            Ok(block) => {
                let ptr = block.cast::<u8>().as_ptr();
                if zeroed {
                    ptr.write_bytes(0, layout.size());
                }
                ptr
            }
            Err(err) => {
                // An oversized request is routine System traffic; anything
                // else means the built stack *failed* a servable request —
                // the degraded-mode event the failover odometer counts.
                if !matches!(err, nbbs::error::AllocError::TooLarge { .. }) {
                    self.system_failovers.fetch_add(1, Ordering::Relaxed);
                }
                self.system_bytes
                    .fetch_add(layout.size() as u64, Ordering::Relaxed);
                system_alloc(layout, zeroed)
            }
        }
    }

    /// Raw-tree service for re-entrant allocations: the cache is somewhere
    /// above us on this thread's stack (possibly holding a slot lock), so
    /// go straight to the lock-free tree and fail over to `System`.
    unsafe fn raw_alloc(&self, state: &State, layout: Layout, zeroed: bool) -> *mut u8 {
        // The raw path serves straight from the power-of-two tree, whose
        // grants are naturally aligned — no slab in the way, so the base
        // request needs no alignment bump.  For the same reason the facade's
        // `request_size` bumps nothing either, so the tree grants here
        // exactly the class `granted_size(layout)` names: a block allocated
        // on this route and freed on the normal one goes down the stack
        // under its true size.
        let want = NbbsAllocator::<Arc<CachedTree>>::base_request_size(layout);
        let tree = state.facade.backend().backend();
        if want <= tree.max_size() {
            if let Some(offset) = tree.alloc(want) {
                // This path bypasses the region's granting wrapper, so the
                // decommit bookkeeping must be told by hand that these pages
                // are in use again.
                state.facade.region().commit_range(offset, want);
                let ptr = state.facade.region().base().as_ptr().add(offset);
                if zeroed {
                    ptr.write_bytes(0, layout.size());
                }
                return ptr;
            }
        }
        self.system_bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        system_alloc(layout, zeroed)
    }

    unsafe fn raw_dealloc(&self, state: &State, ptr: NonNull<u8>) {
        let offset = state
            .facade
            .region()
            .offset_of(ptr)
            .expect("raw_dealloc is only called for region pointers");
        // The block may have come from the facade path (a thread's frees
        // after its exit drain, the old block of a re-entrant realloc): the
        // profiler must see a sampled one go.  The shell's facade carries no
        // emergency reserve, so `note_release` never keeps the block.
        if state.facade.note_release(offset) {
            return;
        }
        state.facade.backend().backend().dealloc(offset);
    }

    /// Bytes currently served by the buddy region (excludes system
    /// fallback; a magazine-parked chunk counts as free).
    pub fn buddy_allocated_bytes(&self) -> usize {
        self.built_state().map_or(0, |s| s.facade.allocated_bytes())
    }

    /// Whether `ptr` was served by the buddy region.
    pub fn owns(&self, ptr: *mut u8) -> bool {
        self.built_state().is_some_and(|s| s.facade.owns(ptr))
    }

    /// Cumulative `(buddy, system)` bytes served, by requested size.
    ///
    /// The buddy figure is the facade's `requested_bytes` odometer: every
    /// allocation the facade granted, a moved `realloc` at its new size, an
    /// in-place one not at all (it serves nothing new).  What the nested
    /// raw route hands out — the stack's own bookkeeping, and threads past
    /// their exit drain — bypasses the facade and is not part of it.
    pub fn bytes_served(&self) -> (u64, u64) {
        let stats = self.facade_stats();
        (stats.requested_bytes, stats.system_bytes)
    }

    /// Requests the built buddy stack failed (exhaustion, injected faults)
    /// that were rescued by the system allocator.  Routine `System` traffic
    /// — oversized requests, pre-build metadata — does not count; this is
    /// the degraded-mode odometer.
    pub fn system_failovers(&self) -> u64 {
        self.system_failovers.load(Ordering::Relaxed)
    }

    /// Counters of the magazine-cache layer, if the state has been built.
    pub fn cache_stats(&self) -> Option<nbbs::CacheStatsSnapshot> {
        self.built_state()
            .and_then(|s| s.facade.backend().cache_stats())
    }

    /// The facade's counters (grow/shrink split, requested/granted
    /// odometers — all zero until the state is built) with the shell's own
    /// two added: `system_bytes` and `system_failovers`.  Read through
    /// [`NbbsGlobalAlloc::metrics`]`.facade`.
    fn facade_stats(&self) -> FacadeStatsSnapshot {
        FacadeStatsSnapshot {
            system_bytes: self.system_bytes.load(Ordering::Relaxed),
            system_failovers: self.system_failovers(),
            ..self
                .built_state()
                .map(|s| s.facade.facade_stats())
                .unwrap_or_default()
        }
    }

    /// One synchronous decommit-scrubber pass over the backing region (see
    /// `BuddyRegion::scrub_pass`); returns the bytes decommitted.  The
    /// background variant is armed by `NBBS_SCRUB=<ms>`.
    pub fn scrub_pass(&self) -> usize {
        self.built_state()
            .map_or(0, |s| s.facade.region().scrub_pass())
    }

    /// Returns every magazine-parked chunk to the tree (a quiescent-point
    /// maintenance call, e.g. between benchmark epochs).
    pub fn drain_cache(&self) {
        if let Some(state) = self.built_state() {
            let _op = BypassGuard::engage();
            state.facade.backend().drain_all();
        }
    }

    /// The stack's observer: present when built under `NBBS_OBS=1`,
    /// `NBBS_TRACE=…` or `NBBS_PROFILE=<stride>`.
    fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.built_state().and_then(|s| s.facade.recorder())
    }

    /// When built under `NBBS_TRACE`: stops the event ring and dumps it as
    /// chrome-trace JSON, to the file the variable named or to stderr for
    /// `NBBS_TRACE=1`.  No-op otherwise.  Runs from the
    /// [`NbbsGlobalAlloc::print_stats_on_exit`] hook.
    fn dump_trace(&self) {
        let Some((dump, rec)) = self
            .built_state()
            .and_then(|s| s.env.trace.as_ref().zip(s.facade.recorder()))
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
    /// capacities, the facade's byte shares and realloc split (`.facade`),
    /// the region's committed bytes and scrubber counters (`.memory`, once
    /// the stack is built), and (when recording) tail-latency percentiles
    /// per operation kind.
    pub fn metrics(&self) -> nbbs_obs::StackSnapshot {
        let mut reg = MetricsRegistry::new("nbbs-alloc");
        reg.set_facade(self.facade_stats());
        if let Some(state) = self.built_state() {
            reg.observe_backend(state.facade.backend());
            reg.set_memory(Some(state.facade.region().memory_stats()));
            if let Some(rec) = state.facade.recorder() {
                reg.set_recorder(Arc::clone(rec));
            }
        }
        reg.snapshot()
    }

    /// A human-readable telemetry dump: buddy/system byte share, the
    /// facade's grow-in-place rate, cache hit rate, committed memory, and —
    /// when armed — tail-latency percentiles, the event ring's `[flight]`
    /// crash dump and the ranked heap profile.
    ///
    /// Rendered by [`nbbs_obs::MetricsRegistry`] (the one exposition path
    /// every binary in the workspace shares); this is what
    /// [`NbbsGlobalAlloc::print_stats_on_exit`] writes to stderr when the
    /// process ends.
    pub fn stats_report(&self) -> String {
        let mut out = self.metrics().text_table();
        if let Some(rec) = self.recorder() {
            if !rec.ring().is_empty() {
                out.push_str(&rec.ring().flight_dump());
            }
            if let Some(profiler) = rec.profiler() {
                out.push_str(&profiler.report().text(10));
            }
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

// SAFETY: every pointer is either region-owned (allocated from and released
// to the facade/tree, discriminated by address range) or System-owned; the
// facade guarantees layout fit (see `NbbsAllocator`'s `GlobalAlloc` impl),
// and the raw bypass serves from the same region with the same natural
// alignment guarantee.
unsafe impl GlobalAlloc for NbbsGlobalAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.serve(layout, false)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.serve(layout, true)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if let (Some(state), Some(nn)) = (self.built_state(), NonNull::new(ptr)) {
            if state.facade.region().contains(nn) {
                if bypass_active() {
                    self.raw_dealloc(state, nn);
                } else {
                    let _op = BypassGuard::engage();
                    Self::register_current_thread(state);
                    state.facade.deallocate(nn, layout);
                }
                return;
            }
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some(state) = self.built_state() else {
            return System.realloc(ptr, layout, new_size);
        };
        if bypass_active() {
            // Re-entrant realloc (rare: a Vec growing inside the cache's own
            // bookkeeping): raw alloc + copy + raw free keeps the cache out.
            let Some(nn) = NonNull::new(ptr) else {
                return System.realloc(ptr, layout, new_size);
            };
            if !state.facade.region().contains(nn) {
                return System.realloc(ptr, layout, new_size);
            }
            let Ok(new_layout) = Layout::from_size_align(new_size, layout.align()) else {
                return std::ptr::null_mut();
            };
            let fresh = self.raw_alloc(state, new_layout, false);
            if !fresh.is_null() {
                std::ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
                self.raw_dealloc(state, nn);
            }
            return fresh;
        }
        // The facade's own `GlobalAlloc::realloc` carries the whole dance
        // (ownership discrimination, in-place grow/shrink, migrate-to-System
        // on exhaustion) and counts what the buddy served; the wrapper only
        // adds the bypass bracket, thread registration, and the system
        // side of the byte-share accounting.
        let _op = BypassGuard::engage();
        Self::register_current_thread(state);
        let out = state.facade.realloc(ptr, layout, new_size);
        if !out.is_null() && !state.facade.owns(out) {
            self.system_bytes
                .fetch_add(new_size as u64, Ordering::Relaxed);
            // A buddy block moved out of the region although the buddy
            // could have held the new size: the built stack failed a
            // servable request, as `alloc` counts it.
            let was_buddy = NonNull::new(ptr).is_some_and(|nn| state.facade.region().contains(nn));
            let servable = Layout::from_size_align(new_size, layout.align())
                .is_ok_and(|new_layout| state.facade.granted_size(new_layout).is_some());
            if was_buddy && servable {
                self.system_failovers.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// The ranked heap profile of `a`'s armed profiler, if it has one.
    fn heap_profile(a: &NbbsGlobalAlloc) -> Option<nbbs_obs::ProfileReport> {
        Some(a.recorder()?.profiler()?.report())
    }

    /// A small shell built as if the environment armed `arming`.
    fn armed(arming: Arming) -> NbbsGlobalAlloc {
        let a = NbbsGlobalAlloc::new(1 << 18, 64, 1 << 12);
        a.build_once(|| arming);
        a
    }

    #[test]
    fn serves_small_requests_from_the_cached_buddy() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        let layout = Layout::from_size_align(512, 8).unwrap();
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
        assert_eq!(a.facade_stats().buddy_share(), 1.0);
    }

    #[test]
    fn over_aligned_requests_are_buddy_served() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        let layout = Layout::from_size_align(64, 4096).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert!(a.owns(p), "over-aligned request did not punt to System");
            assert_eq!(p as usize % 4096, 0);
            a.dealloc(p, layout);
        }
        assert_eq!(a.facade_stats().buddy_share(), 1.0);
    }

    #[test]
    fn oversized_requests_fall_back_to_system() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 12);
        let layout = Layout::from_size_align(1 << 16, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert!(!a.owns(p));
            a.dealloc(p, layout);
        }
        assert!(a.facade_stats().buddy_share() < 1.0);
    }

    #[test]
    fn invalid_configuration_degrades_to_system() {
        let a = NbbsGlobalAlloc::new(1000, 64, 512); // not a power of two
        let layout = Layout::from_size_align(128, 8).unwrap();
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
        unsafe {
            let p = a.alloc(layout);
            p.write_bytes(0x11, 100);
            let q = a.realloc(p, layout, 128);
            assert_eq!(q, p, "grow inside the 128-byte grant");
            assert_eq!(*q.add(99), 0x11);
            a.dealloc(q, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(a.facade_stats().grows_in_place, 1);
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
        assert_eq!(a.facade_stats().buddy_share(), 1.0);
    }

    #[test]
    fn stats_report_carries_shares_and_no_node_rows() {
        // The shipped stack has no routing layer under the cache, so the
        // report has no per-node service shares to print.
        let a = NbbsGlobalAlloc::new(1 << 18, 64, 1 << 12);
        let layout = Layout::from_size_align(100, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            let q = a.realloc(p, layout, 128); // in-place grow
            a.dealloc(q, Layout::from_size_align(128, 8).unwrap());
        }
        assert!(a.metrics().nodes.is_empty());
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
        unsafe {
            let p = a.alloc(layout);
            assert!(a.owns(p));
            let q = a.realloc(p, layout, 2048); // moved grow
            a.dealloc(q, Layout::from_size_align(2048, 8).unwrap());
        }
        assert!(a.recorder().is_some());
        let report = a.stats_report();
        assert!(report.contains("latency  alloc"), "{report}");
        assert!(report.contains("latency  grow"), "{report}");
        assert!(report.contains("[flight]"), "{report}");
        let json = a.metrics().to_json();
        assert!(json.contains("\"latency\":{"), "{json}");
        assert!(json.contains("\"p99_ns\":"), "{json}");
    }

    #[test]
    fn unobserved_build_reads_no_timestamps() {
        let a = NbbsGlobalAlloc::new(1 << 16, 64, 1 << 10);
        // Whatever NBBS_* the suite runs under, this build sees none.
        a.build_once(Arming::default);
        let layout = Layout::from_size_align(128, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        }
        assert!(a.recorder().is_none());
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
            !a.recorder().unwrap().ring().is_recording(),
            "dump stops it"
        );
        // Profile alone: a handle that times nothing.
        let a = armed(Arming::parse(env(&[("NBBS_PROFILE", "2")])));
        touch(&a);
        assert_eq!(heap_profile(&a).unwrap().stride, 2);
        assert!(a.recorder().unwrap().ring().is_empty());
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
        assert!(
            a.recorder().unwrap().ring().is_empty(),
            "profiling alone reads no timestamp"
        );
        // Requested-vs-granted flows into the unified snapshot.
        let share = a.metrics().facade.expect("facade share present");
        assert_eq!(share.requested_bytes, 256);
        assert_eq!(share.granted_bytes, 256);
    }

    #[test]
    fn frees_on_the_bypass_path_reach_the_profiler() {
        // A block sampled on the facade path and freed with the bypass
        // latch engaged (a thread past its exit drain, the old block of a
        // re-entrant realloc) used to stay live in the profile until its
        // offset was recycled.
        let a = armed(Arming {
            profile_stride: Some(1),
            ..Arming::default()
        });
        let layout = Layout::from_size_align(256, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert_eq!(heap_profile(&a).unwrap().attributed_live_bytes(), 256);
            let _latched = BypassGuard::engage();
            a.dealloc(p, layout);
        }
        assert_eq!(heap_profile(&a).unwrap().attributed_live_bytes(), 0);
    }

    #[test]
    fn degraded_mode_telemetry_reports_reserve_and_failovers() {
        // 2 KiB arena: two 1 KiB blocks, then the buddy is out of memory.
        let a = NbbsGlobalAlloc::new(2048, 64, 1024);
        let layout = Layout::from_size_align(1024, 8).unwrap();
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
        // The shell carves no emergency reserve: its counts stay zero.
        assert!(
            report.contains("degraded: 1 system failovers, 0 reserve hits, 0 reserve refills"),
            "{report}"
        );
        let json = a.metrics().to_json();
        assert!(json.contains("\"system_failovers\":1"), "{json}");
    }

    #[test]
    fn metrics_carry_committed_memory_and_scrub_counters() {
        let a = NbbsGlobalAlloc::new(1 << 20, 64, 1 << 16);
        let layout = Layout::from_size_align(512, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        }
        let mem = a.metrics().memory.expect("state built");
        assert_eq!(mem.managed_bytes, 1 << 20);
        let page = nbbs::mapping::page_size() as u64;
        assert_eq!(mem.committed_bytes, page, "one grant, one page committed");
        // Magazine-parked chunks are backend-live and refuse scrub claims;
        // drain first so the pass sees a fully idle tree.
        a.drain_cache();
        let freed = a.scrub_pass();
        assert_eq!(freed as u64, page, "the granted page was decommitted");
        let mem = a.metrics().memory.unwrap();
        assert!(mem.scrub_passes >= 1);
        assert_eq!(mem.committed_bytes, 0);
        let report = a.stats_report();
        assert!(report.contains("  memory   "), "{report}");
        assert!(report.contains("  scrub    "), "{report}");
        let json = a.metrics().to_json();
        assert!(
            json.contains("\"memory\":{\"managed_bytes\":1048576"),
            "{json}"
        );
    }

    #[test]
    fn nbbs_scrub_env_arms_the_background_scrubber() {
        let a = NbbsGlobalAlloc::new(1 << 18, 64, 1 << 12);
        // This instance's first touch, under NBBS_SCRUB=5 and nothing else;
        // the process environment (and every neighbouring test) stays as
        // it was.
        a.build_once(|| Arming::parse(env(&[("NBBS_SCRUB", "5")])));
        let layout = Layout::from_size_align(256, 8).unwrap();
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

    #[test]
    fn alloc_zeroed_is_zeroed_on_every_route() {
        let a = NbbsGlobalAlloc::new(1 << 16, 64, 1 << 12);
        let block = Layout::from_size_align(1 << 12, 8).unwrap();
        let reads_zero = |p: *mut u8| {
            assert!(!p.is_null());
            unsafe { std::slice::from_raw_parts(p, block.size()) }
                .iter()
                .all(|&b| b == 0)
        };
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
    unsafe fn fill_until_system(a: &NbbsGlobalAlloc, layout: Layout) -> Vec<*mut u8> {
        let mut blocks = Vec::new();
        loop {
            let p = a.alloc(layout);
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
}
