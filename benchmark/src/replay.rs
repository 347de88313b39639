//! One trial: a fresh process builds one stack, replays the arrays on it
//! from pinned threads, checks every block, and prints what it measured.
//!
//! The load is a closed loop: each thread issues its next call when its
//! previous one has returned.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::gen::{self, Mark, Op, OpKind, Plan, Workload};
use crate::json::Json;
use crate::ring::{mesh, Endpoint};
use crate::span;
use crate::stats::percentile_sorted;
use crate::surface::{build, Counters, Header, Rung, Surface};
use crate::sys::{self, cycles, thread_cpu_s, Clock, Stopwatch};

/// One call in this many is timed with the cycle counter.
pub const SAMPLE_STRIDE: u64 = 64;

/// What the child process is asked to do.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    pub workload: Workload,
    pub rung: Rung,
    pub seed: u64,
    pub threads: usize,
    pub scale: f64,
    /// Where span files go.
    pub out_dir: PathBuf,
}

/// A block a thread holds (or hands to another thread to free).
#[derive(Clone, Copy)]
struct Block {
    ptr: *mut u8,
    size: u32,
    seq: u32,
    thread: u16,
    align: u16,
}

// SAFETY: a block is owned by exactly one thread at a time; the ring that
// moves it orders the hand-over.
unsafe impl Send for Block {}

const EMPTY: Block = Block {
    ptr: std::ptr::null_mut(),
    size: 0,
    seq: 0,
    thread: 0,
    align: 0,
};

/// What the leader reads at the marks.
#[derive(Debug, Default)]
struct LeaderLog {
    night_s: f64,
    granted_at_mid: Option<usize>,
    requested_at_mid: u64,
    parked_at_mid: f64,
    /// Resident KiB before and after the last night seen.
    night_rss: Option<(u64, u64)>,
    peak_rss_kib: u64,
    nights: Vec<(f64, f64)>,
}

/// A barrier whose waiters keep working: a thread that arrives early goes on
/// freeing what the others hand it instead of letting their rings fill up.
/// The threads are pinned one to a CPU, so spinning takes nothing from anyone.
struct Gate {
    threads: usize,
    arrived: AtomicUsize,
    round: AtomicUsize,
}

impl Gate {
    fn new(threads: usize) -> Gate {
        Gate {
            threads,
            arrived: AtomicUsize::new(0),
            round: AtomicUsize::new(0),
        }
    }

    /// Returns once every thread has arrived; runs `meanwhile` while waiting.
    fn wait(&self, mut meanwhile: impl FnMut()) {
        let round = self.round.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            self.arrived.store(0, Ordering::Relaxed);
            // Release: what each thread did before arriving is visible to
            // whoever sees the new round.
            self.round.store(round.wrapping_add(1), Ordering::Release);
        } else {
            while self.round.load(Ordering::Acquire) == round {
                meanwhile();
                std::hint::spin_loop();
            }
        }
    }
}

struct Shared<'a> {
    surface: &'a dyn Surface,
    plan: &'a Plan,
    gate: Gate,
    /// Requested bytes each thread has allocated and freed so far, published
    /// at marks.
    allocated: Vec<AtomicU64>,
    freed: Vec<AtomicU64>,
    /// Set by a thread when it will hand off no more blocks.
    finished: Vec<AtomicBool>,
    errors: Mutex<Vec<String>>,
}

#[derive(Default)]
struct WorkerOut {
    calls: u64,
    failed: u64,
    handed_off: u64,
    ring_full: u64,
    samples: Vec<u32>,
    busy_s: f64,
    log: Option<LeaderLog>,
    span_cost: Option<span::SpanCost>,
    pinned: bool,
}

struct Worker<'a> {
    me: usize,
    shared: &'a Shared<'a>,
    ends: Endpoint<Block>,
    slots: Vec<Block>,
    seq: u32,
    calls: u64,
    failed: u64,
    allocated: u64,
    freed: u64,
    sampling: bool,
    samples: Vec<u32>,
    /// Seconds this thread has spent replaying, and the stopwatch of the
    /// segment it is in.  The clock stops on arrival at a meeting point:
    /// spinning there is waiting, not work.
    busy_s: f64,
    segment: Stopwatch,
}

impl Worker<'_> {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        let mut errors = self
            .shared
            .errors
            .lock()
            .expect("no worker panics holding it");
        if errors.len() < 8 {
            errors.push(what);
        }
    }

    #[inline]
    fn allocate(&mut self, op: Op) {
        let surface = self.shared.surface;
        let (size, align) = (op.size(), op.align());
        let timed = self.sampling && self.calls.is_multiple_of(SAMPLE_STRIDE);
        self.calls += 1;
        let ptr = if timed {
            let c0 = cycles();
            let ptr = surface.alloc(size, align);
            self.samples
                .push(cycles().wrapping_sub(c0).min(u64::from(u32::MAX)) as u32);
            ptr
        } else {
            surface.alloc(size, align)
        };
        if ptr.is_null() {
            self.fail(format!(
                "thread {}: alloc({size}, {align}) returned null",
                self.me
            ));
            return;
        }
        if ptr as usize & (align - 1) != 0 {
            self.fail(format!(
                "thread {}: {ptr:p} is not aligned to {align}",
                self.me
            ));
        }
        self.seq = self.seq.wrapping_add(1);
        // SAFETY: the surface says where this block's header lives; the
        // block is ours until we free it.
        unsafe {
            surface
                .header(ptr)
                .write(Header::new(self.me, self.seq, size))
        };
        if self.shared.plan.touch_pages && surface.has_memory() {
            for at in (4096..size).step_by(4096) {
                // SAFETY: `at < size`, inside the block.
                unsafe { ptr.add(at).write_volatile(self.seq as u8) };
            }
        }
        self.allocated += size as u64;
        self.slots[op.slot()] = Block {
            ptr,
            size: size as u32,
            seq: self.seq,
            thread: self.me as u16,
            align: align as u16,
        };
    }

    /// Checks the block's header and frees it.
    #[inline]
    fn release(&mut self, block: Block) {
        let surface = self.shared.surface;
        let size = block.size as usize;
        // SAFETY: written by `allocate` for this live block.
        let found = unsafe { surface.header(block.ptr).read() };
        if found != Header::new(block.thread as usize, block.seq, size) {
            self.fail(format!(
                "thread {}: block {:p} of thread {} carries {found:?}",
                self.me, block.ptr, block.thread
            ));
        }
        let timed = self.sampling && self.calls.is_multiple_of(SAMPLE_STRIDE);
        self.calls += 1;
        // SAFETY: a `Block` is made by `allocate` from what `alloc` returned
        // and is released once: it leaves its slot, or the ring, by value.
        if timed {
            let c0 = cycles();
            unsafe { surface.free(block.ptr, size, block.align as usize) };
            self.samples
                .push(cycles().wrapping_sub(c0).min(u64::from(u32::MAX)) as u32);
        } else {
            unsafe { surface.free(block.ptr, size, block.align as usize) };
        }
        self.freed += size as u64;
    }

    /// Frees up to `most` blocks other threads have handed over.
    #[inline]
    fn drain(&mut self, most: usize) {
        for _ in 0..most {
            let Some(block) = self.ends.from.iter_mut().flatten().find_map(|rx| rx.pop()) else {
                break;
            };
            self.release(block);
        }
    }

    /// Stops this thread's clock and waits for the other threads, freeing
    /// what they hand over meanwhile.
    fn arrive(&mut self) {
        self.busy_s += self.segment.elapsed_s();
        let gate = &self.shared.gate;
        gate.wait(|| self.drain(1));
    }

    /// All threads meet with their clocks stopped; the leader runs `work`
    /// while the others wait; the clocks start again.
    fn meet(&mut self, log: &mut Option<LeaderLog>, work: impl FnOnce(&mut LeaderLog)) {
        self.arrive();
        let shared = self.shared;
        shared.allocated[self.me].store(self.allocated, Ordering::Relaxed);
        shared.freed[self.me].store(self.freed, Ordering::Relaxed);
        shared.gate.wait(|| {});
        if let Some(log) = log {
            work(log);
        }
        shared.gate.wait(|| {});
        self.segment = Stopwatch::start();
    }
}

/// A worker's slots and its (empty) sample buffer.
type Buffers = (Vec<Block>, Vec<u32>);

/// The buffers of every worker, allocated and written before the baseline
/// resident set is read, so that the harness's memory is not counted as the
/// allocator's.
fn buffers(plan: &Plan) -> Vec<Buffers> {
    plan.ops
        .iter()
        .map(|ops| {
            // Remote frees can add calls; twice the share is ample.
            let timed = 2 * (ops.len() - plan.prefix) / SAMPLE_STRIDE as usize + 1024;
            let mut samples = vec![0u32; timed];
            samples.clear();
            (vec![EMPTY; plan.slots], samples)
        })
        .collect()
}

fn mib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}

fn run_worker(
    shared: &Shared<'_>,
    me: usize,
    ends: Endpoint<Block>,
    (slots, samples): Buffers,
    spanned: bool,
) -> WorkerOut {
    let pinned = sys::become_worker(me);
    let plan = shared.plan;
    let threads = plan.ops.len();
    let ops = &plan.ops[me];
    let mut w = Worker {
        me,
        shared,
        ends,
        slots,
        seq: 0,
        calls: 0,
        failed: 0,
        allocated: 0,
        freed: 0,
        sampling: false,
        samples,
        busy_s: 0.0,
        segment: Stopwatch::start(),
    };
    let span_cost = (spanned && me == 0).then(span::calibrate);
    let next = (me + 1) % threads;
    let mut log = (me == 0).then(LeaderLog::default);
    let mut handed_off = 0u64;
    let mut ring_full = 0u64;

    // Build the live set, untimed.
    for &op in &ops[..plan.prefix] {
        w.allocate(op);
    }
    w.calls = 0;
    w.sampling = true;
    if spanned {
        span::start();
    }
    shared.gate.wait(|| {});
    w.segment = Stopwatch::start();

    for &op in &ops[plan.prefix..] {
        match op.kind() {
            OpKind::Alloc => w.allocate(op),
            OpKind::Free => {
                let block = std::mem::replace(&mut w.slots[op.slot()], EMPTY);
                if block.ptr.is_null() {
                    // The allocation into this slot failed and was counted.
                    continue;
                }
                if op.remote() && threads > 1 {
                    let tx = w.ends.to[next]
                        .as_mut()
                        .expect("a ring to every other thread");
                    match tx.push(block) {
                        Ok(()) => handed_off += 1,
                        Err(block) => {
                            ring_full += 1;
                            w.release(block);
                        }
                    }
                } else {
                    w.release(block);
                }
            }
            OpKind::Mark => {
                let surface = shared.surface;
                match op.which_mark() {
                    Mark::Mid => w.meet(&mut log, |log| {
                        log.granted_at_mid = surface.granted_bytes();
                        let sum = |v: &[AtomicU64]| -> u64 {
                            v.iter().map(|a| a.load(Ordering::Relaxed)).sum()
                        };
                        log.requested_at_mid = sum(&shared.allocated) - sum(&shared.freed);
                        let mut counters = Counters::new();
                        surface.counters(&mut counters);
                        log.parked_at_mid =
                            counters.get("cache.parked_bytes").copied().unwrap_or(0.0);
                        log.peak_rss_kib = log.peak_rss_kib.max(sys::rss_kib());
                    }),
                    Mark::Night => w.meet(&mut log, |log| {
                        let before = sys::rss_kib();
                        let night = surface.night();
                        // Maintenance the workload asks for is part of what
                        // its user waits for: it is added to the busy time.
                        log.night_s += night.drain_s + night.scrub_s;
                        log.nights.push((night.drain_s, night.scrub_s));
                        log.night_rss = Some((before, sys::rss_kib()));
                        log.peak_rss_kib = log.peak_rss_kib.max(before);
                    }),
                }
            }
        }
        // Free what other threads handed over; at most two per call, which
        // outruns the 30 % that are handed off.
        if threads > 1 {
            w.drain(2);
        }
    }

    // The clock stops when the last thread has replayed its array.
    w.arrive();
    if let Some(log) = &mut log {
        log.peak_rss_kib = log.peak_rss_kib.max(sys::rss_kib());
    }
    let calls = w.calls;
    w.sampling = false;
    if spanned {
        span::stop();
    }

    // Teardown, untimed: free what is still held, then what still arrives.
    for slot in 0..w.slots.len() {
        let block = std::mem::replace(&mut w.slots[slot], EMPTY);
        if !block.ptr.is_null() {
            w.release(block);
        }
    }
    shared.finished[me].store(true, Ordering::Release);
    for src in (0..threads).filter(|&src| src != me) {
        loop {
            let done = shared.finished[src].load(Ordering::Acquire);
            while let Some(block) = w.ends.from[src].as_mut().and_then(|rx| rx.pop()) {
                w.release(block);
            }
            if done {
                break;
            }
            std::hint::spin_loop();
        }
    }
    WorkerOut {
        calls,
        failed: w.failed,
        handed_off,
        ring_full,
        samples: w.samples,
        busy_s: w.busy_s,
        log,
        span_cost,
        pinned,
    }
}

/// Times building the stack of `rung` up to its first served allocation, in
/// CPU seconds.  Every trial is a fresh process, so every trial pays what a
/// user's process pays: the build and the page faults of its metadata.
fn timed_build(spec: &TrialSpec) -> (Box<dyn Surface>, f64) {
    let t0 = thread_cpu_s();
    let surface = build(spec.rung, spec.workload.geometry(), spec.threads);
    let ptr = surface.alloc(64, 8);
    let setup_s = thread_cpu_s() - t0;
    assert!(!ptr.is_null(), "a fresh stack serves its first request");
    // SAFETY: just allocated with this size and alignment.
    unsafe { surface.free(ptr, 64, 8) };
    (surface, setup_s)
}

/// Runs the trial and returns its measurements as one JSON object.
pub fn run(spec: &TrialSpec) -> Result<Json, String> {
    if spec.threads == 0 || spec.threads > sys::nproc() {
        return Err(format!(
            "{} threads asked for, {} CPUs available: a closed loop never runs more callers than CPUs",
            spec.threads,
            sys::nproc()
        ));
    }
    let clock = Clock::calibrate();
    let plan = gen::plan(spec.workload, spec.seed, spec.threads, spec.scale);
    let spanned = spec.rung.spanned();
    if spanned {
        // Sized for every traced operation to cross every layer twice.
        let per_thread = plan.ops[0].len() / span::TRACE_STRIDE as usize * 14 + (1 << 16);
        span::install(spec.threads, per_thread);
    }
    let ends = mesh::<Block>(spec.threads, 1024);
    let buffers = buffers(&plan);
    let steal0 = sys::steal_ticks();
    let base_rss = sys::rss_kib();

    let (surface, setup_s) = timed_build(spec);
    let shared = Shared {
        surface: &*surface,
        plan: &plan,
        gate: Gate::new(spec.threads),
        allocated: (0..spec.threads).map(|_| AtomicU64::new(0)).collect(),
        freed: (0..spec.threads).map(|_| AtomicU64::new(0)).collect(),
        finished: (0..spec.threads).map(|_| AtomicBool::new(false)).collect(),
        errors: Mutex::new(Vec::new()),
    };
    let started = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = ends
            .into_iter()
            .zip(buffers)
            .enumerate()
            .map(|(me, (ends, buffers))| {
                let shared = &shared;
                s.spawn(move || run_worker(shared, me, ends, buffers, spanned))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a worker panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut errors = shared.errors.into_inner().expect("workers are joined");

    // With every block freed: a last night, then the emptiness checks.
    let rss_before = sys::rss_kib();
    let last_night = surface.night();
    let rss_after = sys::rss_kib();
    let mut checks_failed = 0u64;
    if let Err(e) = surface.check_empty() {
        checks_failed += 1;
        errors.push(e);
    }
    let mut counters = Counters::new();
    surface.counters(&mut counters);

    let first_touch_ns = (spec.rung == Rung::R0Tree).then(|| first_touch_ns_per_page(&*surface));
    drop(surface);

    let log = outs[0].log.as_ref().expect("thread 0 leads");
    let calls: u64 = outs.iter().map(|o| o.calls).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum::<u64>() + checks_failed;
    let mut samples: Vec<u32> = outs
        .iter()
        .flat_map(|o| o.samples.iter().copied())
        .collect();
    samples.sort_unstable();
    let pct = |p: f64| percentile_sorted(&samples, p).map_or(0.0, |c| clock.call_ns(u64::from(c)));
    let above = |kib: u64| mib(kib.saturating_sub(base_rss));
    // The last night of the array if it has nights, the one after teardown
    // otherwise: both come after the load has gone.
    let (night_before, night_after) = log.night_rss.unwrap_or((rss_before, rss_after));
    let (drain_s, scrub_s) = log
        .nights
        .last()
        .copied()
        .unwrap_or((last_night.drain_s, last_night.scrub_s));

    let mut out = std::collections::BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), Json::Num(v));
    };
    // The slowest thread's time, plus the nights the leader worked while the
    // others waited.
    let busy_s = outs.iter().map(|o| o.busy_s).fold(0.0, f64::max) + log.night_s;
    put("busy_s", busy_s);
    put("wall_s", wall_s);
    put("calls", calls as f64);
    put("failed", failed as f64);
    put("ops_per_s", calls as f64 / busy_s);
    put(
        "ns_per_op",
        busy_s * 1e9 * spec.threads as f64 / calls as f64,
    );
    put("op_p50_ns", pct(50.0));
    put("op_p99_ns", pct(99.0));
    put("op_p999_ns", pct(99.9));
    put("samples", samples.len() as f64);
    if let Some(granted) = log.granted_at_mid {
        put(
            "granted_over_requested",
            granted as f64 / log.requested_at_mid.max(1) as f64,
        );
    }
    put("requested_at_mid", log.requested_at_mid as f64);
    put("parked_mib", log.parked_at_mid / (1 << 20) as f64);
    // The largest resident set read at a meeting point (mid-run, before each
    // night, end of the arrays).  Exact readings: `VmHWM` is kept by per-CPU
    // counters that may each be a batch of pages behind.
    put("peak_rss_mib", above(log.peak_rss_kib));
    put(
        "trough_rss_pct",
        100.0 * above(night_after) / above(night_before).max(1.0 / 1024.0),
    );
    put("trough_rss_mib", above(night_after));
    put("setup_s", setup_s);
    put("night_s", log.night_s);
    put("drain_ms", drain_s * 1e3);
    put("scrub_ms", scrub_s * 1e3);
    put(
        "handed_off",
        outs.iter().map(|o| o.handed_off).sum::<u64>() as f64,
    );
    put("unpinned", outs.iter().filter(|o| !o.pinned).count() as f64);
    put(
        "ring_full",
        outs.iter().map(|o| o.ring_full).sum::<u64>() as f64,
    );
    put("clock_overhead_ns", clock.overhead_ns());
    put(
        "steal_ticks",
        sys::steal_ticks().saturating_sub(steal0) as f64,
    );
    if let Some(ns) = first_touch_ns {
        put("first_touch_ns_per_page", ns);
    }
    for (k, v) in &counters {
        put(&format!("counter.{k}"), *v);
    }
    if spanned {
        let cost = outs[0].span_cost.expect("thread 0 calibrated");
        let tag = format!("{}-{}", spec.workload.name(), spec.seed);
        let a = span::collect(&clock, cost, &spec.out_dir, &tag, 50_000);
        put("span.cost_inside_ns", cost.inside * clock.ns_per_cycle);
        put(
            "span.cost_to_parent_ns",
            cost.to_parent * clock.ns_per_cycle,
        );
        for (k, v) in a.pairs() {
            put(&k, v);
        }
    }
    let mut doc = Json::Obj(out);
    if let Json::Obj(map) = &mut doc {
        map.insert(
            "errors".into(),
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        );
    }
    Ok(doc)
}

/// After a scrub the free span has no frames behind it: the cost of the
/// first write to each page of freshly granted blocks is the cost of a
/// first touch.
pub fn first_touch_ns_per_page(surface: &dyn Surface) -> f64 {
    const BLOCK: usize = 64 << 10;
    const BLOCKS: usize = 64;
    let blocks: Vec<*mut u8> = (0..BLOCKS).map(|_| surface.alloc(BLOCK, 8)).collect();
    let t0 = Instant::now();
    for &ptr in blocks.iter().filter(|p| !p.is_null()) {
        for at in (0..BLOCK).step_by(4096) {
            // SAFETY: inside the block just granted.
            unsafe { ptr.add(at).write_volatile(1) };
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / (BLOCKS * BLOCK / 4096) as f64;
    for ptr in blocks.into_iter().filter(|p| !p.is_null()) {
        // SAFETY: allocated above with this size and alignment.
        unsafe { surface.free(ptr, BLOCK, 8) };
    }
    ns
}
