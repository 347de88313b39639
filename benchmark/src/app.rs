//! The `app-global` program: a small text-indexing service whose every
//! allocation goes through whatever `#[global_allocator]` the binary that
//! calls [`run`] registered.  `app_nbbs`, `app_system` and `app_rung` share
//! this body.
//!
//! Each worker tokenises its records into `Vec<String>`, keeps a bounded
//! `HashMap<String, Vec<u32>>` index of where each token was seen, builds a
//! response by growing a `String`, and hands every fourth response to another
//! worker to drop.  That exercises what no synthetic loop does: the standard
//! collections' size mix, `realloc`, frees on a thread other than the
//! allocating one, and thread exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};

use crate::gen::Rng;
use crate::ring::{mesh, Endpoint};
use crate::surface::Surface;
use crate::sys::{self, cycles, Stopwatch};

/// Requests per worker at scale 1.0, chosen so one run measures about a fifth
/// of a second under `NbbsGlobalAlloc` on the host the benchmark was defined
/// on (see `gen.rs` for why trials are short).
pub const FULL_REQUESTS: f64 = 6_000.0;

const VOCABULARY: usize = 4096;
/// Distinct tokens a worker's index keeps before it evicts the oldest.
const INDEX_KEYS: usize = 2048;
/// Postings kept per token before the older half is dropped.
const POSTINGS: usize = 128;

/// The records every worker will serve, generated before the clock starts.
pub struct Inputs {
    /// One blob of space-separated words per worker, and where each record
    /// of it ends.
    workers: Vec<(String, Vec<u32>)>,
}

impl Inputs {
    /// Bytes the records occupy.
    pub fn bytes(&self) -> usize {
        self.workers
            .iter()
            .map(|(blob, ends)| blob.len() + 4 * ends.len())
            .sum()
    }
}

/// Generates `requests` records for each of `workers` workers.
pub fn inputs(seed: u64, workers: usize, requests: usize) -> Inputs {
    let mut rng = Rng::new(seed ^ 0xA99);
    let words: Vec<String> = (0..VOCABULARY)
        .map(|_| {
            (0..rng.between(3, 10))
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect()
        })
        .collect();
    Inputs {
        workers: (0..workers)
            .map(|w| {
                let mut rng = Rng::new(seed ^ ((w as u64 + 1) << 40) ^ 0xA99);
                let mut blob = String::new();
                let mut ends = Vec::with_capacity(requests);
                for _ in 0..requests {
                    for i in 0..rng.between(4, 24) {
                        if i > 0 {
                            blob.push(' ');
                        }
                        // Cubing a uniform draw skews towards the low ranks,
                        // so some tokens are hot and most are rare.
                        let u = rng.below(1 << 20) as f64 / (1 << 20) as f64;
                        blob.push_str(&words[(u * u * u * VOCABULARY as f64) as usize]);
                    }
                    ends.push(blob.len() as u32);
                }
                (blob, ends)
            })
            .collect(),
    }
}

/// Called from inside [`run`] so that the binary can measure at the right
/// moments.
pub trait Hooks: Sync {
    /// On each worker, pinned, before the start barrier.
    fn worker_start(&self, _worker: usize) {}
    /// On worker 0 while the others wait, half way through.
    fn mid(&self) {}
    /// On each worker after its last request.
    fn worker_end(&self, _worker: usize) {}
}

/// What one run served.
#[derive(Debug, Default)]
pub struct Report {
    /// Seconds the slowest worker spent serving (see
    /// [`crate::sys::Stopwatch`]).
    pub busy_s: f64,
    pub requests: u64,
    /// Sum of the FNV-1a hashes of every response: the same under any
    /// allocator, or the program computed something else.
    pub checksum: u64,
    /// Cycles each request took, all workers together, ascending.
    pub latency_cycles: Vec<u32>,
    pub unpinned: u64,
}

type Index = HashMap<String, Vec<u32>, BuildHasherDefault<DefaultHasher>>;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Serves one record; returns the response.
fn serve(record: &str, request: u32, index: &mut Index, order: &mut VecDeque<String>) -> String {
    let tokens: Vec<String> = record.split(' ').map(str::to_owned).collect();
    for token in &tokens {
        match index.get_mut(token.as_str()) {
            Some(postings) => {
                postings.push(request);
                if postings.len() > POSTINGS {
                    postings.drain(..POSTINGS / 2);
                    postings.shrink_to_fit();
                }
            }
            None => {
                if index.len() == INDEX_KEYS {
                    let oldest = order.pop_front().expect("one entry per key");
                    index.remove(&oldest);
                }
                index.insert(token.clone(), vec![request]);
                order.push_back(token.clone());
            }
        }
    }
    let mut response = String::new();
    for token in &tokens {
        response.push_str(token);
        response.push('=');
        // A token seen earlier in this record may have been evicted since.
        let seen = index.get(token.as_str()).map_or(0, Vec::len);
        response.push_str(&seen.to_string());
        response.push(';');
    }
    response
}

/// Runs the service on `inputs` with one pinned worker per blob.
pub fn run(inputs: &Inputs, hooks: &dyn Hooks) -> Report {
    let workers = inputs.workers.len();
    let barrier = Barrier::new(workers);
    let ends = mesh::<String>(workers, 256);
    let outs: Vec<(f64, u64, Vec<u32>, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = ends
            .into_iter()
            .enumerate()
            .map(|(me, ends)| {
                let (barrier, input) = (&barrier, &inputs.workers[me]);
                s.spawn(move || worker(me, workers, input, ends, barrier, hooks))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a worker panicked"))
            .collect()
    });
    let mut latency: Vec<u32> = outs.iter().flat_map(|o| o.2.iter().copied()).collect();
    latency.sort_unstable();
    Report {
        busy_s: outs.iter().map(|o| o.0).fold(0.0, f64::max),
        requests: inputs.workers.iter().map(|w| w.1.len() as u64).sum(),
        checksum: outs.iter().fold(0, |sum, o| sum.wrapping_add(o.1)),
        latency_cycles: latency,
        unpinned: outs.iter().filter(|o| !o.3).count() as u64,
    }
}

fn worker(
    me: usize,
    workers: usize,
    (blob, record_ends): &(String, Vec<u32>),
    mut ends: Endpoint<String>,
    barrier: &Barrier,
    hooks: &dyn Hooks,
) -> (f64, u64, Vec<u32>, bool) {
    let pinned = sys::become_worker(me);
    let mut index = Index::default();
    let mut order = VecDeque::new();
    let mut latency = Vec::with_capacity(record_ends.len());
    let mut checksum = 0u64;
    let mut busy_s = 0.0;
    let half = record_ends.len() / 2;
    hooks.worker_start(me);
    barrier.wait();
    let mut segment = Stopwatch::start();
    let mut start = 0usize;
    for (i, &end) in record_ends.iter().enumerate() {
        if i == half {
            busy_s += segment.elapsed_s();
            barrier.wait();
            if me == 0 {
                hooks.mid();
            }
            barrier.wait();
            segment = Stopwatch::start();
        }
        let c0 = cycles();
        let response = serve(&blob[start..end as usize], i as u32, &mut index, &mut order);
        start = end as usize;
        checksum = checksum.wrapping_add(fnv1a(response.as_bytes()));
        if i % 4 == 3 && workers > 1 {
            // To each of the other workers in turn; a full ring means the
            // response is dropped here after all.
            let to = (me + 1 + (i / 4) % (workers - 1)) % workers;
            let _ = ends.to[to]
                .as_mut()
                .expect("a ring to every other worker")
                .push(response);
        }
        while let Some(handed) = ends.from.iter_mut().flatten().find_map(|rx| rx.pop()) {
            drop(handed);
        }
        latency.push(cycles().wrapping_sub(c0).min(u64::from(u32::MAX)) as u32);
    }
    busy_s += segment.elapsed_s();
    barrier.wait();
    hooks.worker_end(me);
    // Nobody pushes after the barrier: what is left in the rings is dropped
    // with them.
    (busy_s, checksum, latency, pinned)
}

/// A `GlobalAlloc` that keeps count of the bytes requested and not yet
/// freed, so that granted bytes can be set against them.  Requests above
/// `limit` are left out: they are the ones a buddy arena passes on to the
/// system allocator.
///
/// Each counter has one writer (the worker whose index selects it, or the
/// threads that are not workers, of which a run has one), so a count costs a
/// load and a store, not a locked instruction.
pub struct Accounted<A> {
    inner: A,
    limit: usize,
    allocated: [PaddedCounter; COUNTERS],
    freed: [PaddedCounter; COUNTERS],
}

const COUNTERS: usize = 17;

#[repr(align(128))]
struct PaddedCounter(AtomicU64);

impl<A> Accounted<A> {
    pub const fn new(inner: A, limit: usize) -> Self {
        Accounted {
            inner,
            limit,
            allocated: [const { PaddedCounter(AtomicU64::new(0)) }; COUNTERS],
            freed: [const { PaddedCounter(AtomicU64::new(0)) }; COUNTERS],
        }
    }

    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Requested bytes (of requests within the limit) currently live.
    pub fn live_requested(&self) -> u64 {
        let sum = |c: &[PaddedCounter]| -> u64 {
            c.iter()
                .fold(0, |s, c| s.wrapping_add(c.0.load(Ordering::Relaxed)))
        };
        sum(&self.allocated).wrapping_sub(sum(&self.freed))
    }

    #[inline]
    fn count(&self, counters: &[PaddedCounter; COUNTERS], size: usize) {
        if size <= self.limit {
            // Not-a-worker is `usize::MAX`, which wraps to counter 0.
            let c = &counters[sys::worker().wrapping_add(1).min(COUNTERS - 1)].0;
            c.store(c.load(Ordering::Relaxed) + size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `inner`, which upholds the
// contract; the counters touch no memory of the blocks.
unsafe impl<A: GlobalAlloc> GlobalAlloc for Accounted<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = self.inner.alloc(layout);
        if !ptr.is_null() {
            self.count(&self.allocated, layout.size());
        }
        ptr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = self.inner.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.count(&self.allocated, layout.size());
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.count(&self.freed, layout.size());
        self.inner.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = self.inner.realloc(ptr, layout, new_size);
        if !out.is_null() {
            self.count(&self.freed, layout.size());
            self.count(&self.allocated, new_size);
        }
        out
    }
}

/// A `#[global_allocator]` that serves from whichever [`Surface`] is
/// installed after start-up, so one binary can run the program on every
/// rung of the ladder.  Until a surface is installed, and for anything the
/// surface does not own or cannot serve, it is the system allocator.
pub struct RungGlobal {
    surface: OnceLock<&'static dyn Surface>,
    /// Frees of surface-owned blocks that arrived while the same thread was
    /// already inside the surface, and so had to be dropped.
    leaked: AtomicU64,
}

thread_local! {
    /// Set while the thread is inside the surface: what the surface's own
    /// internals allocate must not come back into it (a cache would be
    /// entered while it holds its slot lock).
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

impl RungGlobal {
    pub const fn new() -> Self {
        RungGlobal {
            surface: OnceLock::new(),
            leaked: AtomicU64::new(0),
        }
    }

    /// Routes every later request to `surface`.
    pub fn install(&self, surface: &'static dyn Surface) {
        assert!(
            self.surface.set(surface).is_ok(),
            "a surface is installed once"
        );
    }

    pub fn leaked(&self) -> u64 {
        self.leaked.load(Ordering::Relaxed)
    }

    /// Runs `f`, which calls into the installed surface directly (a drain, a
    /// scrub, a counter snapshot), with this thread's allocations going to
    /// the system allocator: the surface may allocate while it holds its own
    /// locks, exactly as it may inside a request.
    pub fn maintenance<R>(&self, f: impl FnOnce() -> R) -> R {
        let was = INSIDE.with(|i| i.replace(true));
        let out = f();
        INSIDE.with(|i| i.set(was));
        out
    }

    /// Runs `f` inside the surface unless the thread already is.
    #[inline]
    fn enter<R>(surface: &dyn Surface, f: impl FnOnce() -> R) -> Option<R> {
        if surface.reentrant() {
            return Some(f());
        }
        if INSIDE.with(|i| i.replace(true)) {
            return None;
        }
        let out = f();
        INSIDE.with(|i| i.set(false));
        Some(out)
    }
}

impl Default for RungGlobal {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: a block comes either from the surface, which owns it until it is
// freed through the surface, or from `System`; `owns` tells the two apart by
// address, and both honour the layout they are given.
unsafe impl GlobalAlloc for RungGlobal {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if let Some(&surface) = self.surface.get() {
            let served = Self::enter(surface, || surface.alloc(layout.size(), layout.align()));
            if let Some(ptr) = served.filter(|p| !p.is_null()) {
                return ptr;
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        match self.surface.get() {
            Some(&surface) if surface.owns(ptr) => {
                let freed =
                    Self::enter(surface, || surface.free(ptr, layout.size(), layout.align()));
                if freed.is_none() {
                    self.leaked.fetch_add(1, Ordering::Relaxed);
                }
            }
            _ => System.dealloc(ptr, layout),
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some(&surface) = self.surface.get().filter(|s| s.owns(ptr)) else {
            return System.realloc(ptr, layout, new_size);
        };
        // SAFETY: as in `dealloc`.
        let moved = Self::enter(surface, || unsafe {
            surface.realloc(ptr, layout.size(), layout.align(), new_size)
        });
        if let Some(out) = moved.filter(|p| !p.is_null()) {
            return out;
        }
        // The surface cannot serve the new size: move to the system
        // allocator, as its own fall-back would.
        let fresh = System.alloc(Layout::from_size_align_unchecked(new_size, layout.align()));
        if !fresh.is_null() {
            std::ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
            self.dealloc(ptr, layout);
        }
        fresh
    }
}
