//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! [`Spanned`] wraps any `BuddyBackend` and forwards every method.  The
//! calls a layer makes on its hot path — `alloc`, `dealloc`, their `try_`
//! forms and `granted_size_of_live` — are counted, and while the calling
//! thread is inside a traced operation each one records a span: layer, start
//! and end in cycles, the span that caused it and the operation's id.  One
//! top-level operation in [`TRACE_STRIDE`] is traced whole; the others pay
//! one thread-local read per boundary.  The pure geometry queries
//! (`granted_size_for`, `grant_alignment_for`) cross the boundaries unspanned
//! and so count towards the caller's self time.
//!
//! Records stay in per-thread buffers allocated before the run and are
//! analysed and written out after it.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use nbbs::error::{AllocError, FreeError};
use nbbs::{
    BuddyBackend, CacheStatsSnapshot, FragStatsSnapshot, Geometry, OccupancySnapshot,
    OpStatsSnapshot,
};

use crate::sys::{cycles, worker, Clock};

/// One top-level operation in this many is traced.
pub const TRACE_STRIDE: u32 = 16;

/// The layers of the stack, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Facade = 0,
    Cache = 1,
    Slab = 2,
    Numa = 3,
    Elastic = 4,
    Tree = 5,
}

pub const LAYERS: [Layer; 6] = [
    Layer::Facade,
    Layer::Cache,
    Layer::Slab,
    Layer::Numa,
    Layer::Elastic,
    Layer::Tree,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Facade => "facade",
            Layer::Cache => "cache",
            Layer::Slab => "slab",
            Layer::Numa => "numa",
            Layer::Elastic => "elastic",
            Layer::Tree => "tree",
        }
    }
}

/// One recorded span.  `parent` is the index of the causing span in the same
/// thread's buffer plus one, or 0 for a top-level span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub op: u32,
    pub parent: u32,
    pub layer: u8,
    pub start: u64,
    pub end: u64,
}

struct ThreadBuf {
    spans: Vec<Span>,
    /// Spans not recorded because the buffer was full.
    dropped: u64,
}

const MAX_WORKERS: usize = 64;

/// Buffers by worker index, installed before the run by [`install`].
static BUFFERS: [AtomicPtr<ThreadBuf>; MAX_WORKERS] =
    [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_WORKERS];

/// Calls into each layer, traced or not.
static CALLS: [AtomicU64; LAYERS.len()] = [const { AtomicU64::new(0) }; LAYERS.len()];

thread_local! {
    /// Index plus one of the innermost open span of the operation being
    /// traced on this thread; 0 while no operation is traced.
    static OPEN: Cell<u32> = const { Cell::new(0) };
    /// Whether top-level operations on this thread are counted and sampled.
    static RUNNING: Cell<bool> = const { Cell::new(false) };
    static TICK: Cell<u32> = const { Cell::new(0) };
    static OP_ID: Cell<u32> = const { Cell::new(0) };
    /// Per-thread call counts, folded into [`CALLS`] by [`flush_calls`].
    static MY_CALLS: [Cell<u64>; LAYERS.len()] = const { [const { Cell::new(0) }; LAYERS.len()] };
}

/// Allocates a buffer of `capacity` spans for each of `workers` workers and
/// touches it, so recording never allocates and never faults.
pub fn install(workers: usize, capacity: usize) {
    assert!(workers <= MAX_WORKERS);
    for slot in BUFFERS.iter().take(workers) {
        let mut spans = vec![Span::default(); capacity];
        spans.clear();
        let buf = Box::into_raw(Box::new(ThreadBuf { spans, dropped: 0 }));
        let old = slot.swap(buf, Ordering::AcqRel);
        assert!(old.is_null(), "span buffers installed twice");
    }
}

/// The calling worker's buffer.
///
/// Only the worker whose index selects the slot dereferences it while
/// recording, and [`collect`] runs after the workers have been joined.
#[inline]
fn my_buf() -> Option<&'static mut ThreadBuf> {
    let ptr = BUFFERS.get(worker())?.load(Ordering::Relaxed);
    // SAFETY: the pointer came from `Box::into_raw` in `install` and is
    // never freed; see above for why no second reference is live.
    unsafe { ptr.as_mut() }
}

/// An open span; closing it records the end.
pub struct Open {
    /// Index plus one of this span, 0 when nothing is being recorded.
    me: u32,
    parent: u32,
}

impl Open {
    const IDLE: Open = Open { me: 0, parent: 0 };
}

#[inline]
fn open(layer: Layer, parent: u32, op: u32) -> Open {
    let Some(buf) = my_buf() else {
        return Open::IDLE;
    };
    if buf.spans.len() == buf.spans.capacity() {
        buf.dropped += 1;
        return Open::IDLE;
    }
    buf.spans.push(Span {
        op,
        parent,
        layer: layer as u8,
        start: 0,
        end: 0,
    });
    let me = buf.spans.len() as u32;
    OPEN.with(|o| o.set(me));
    // Read the clock last, so the bookkeeping above is the parent's cost.
    buf.spans[me as usize - 1].start = cycles();
    Open { me, parent }
}

impl Drop for Open {
    #[inline]
    fn drop(&mut self) {
        if self.me == 0 {
            return;
        }
        let end = cycles();
        if let Some(buf) = my_buf() {
            buf.spans[self.me as usize - 1].end = end;
        }
        OPEN.with(|o| o.set(self.parent));
    }
}

/// Starts a top-level operation at `layer`: every [`TRACE_STRIDE`]-th one on
/// a thread is traced until the returned guard drops.
#[inline]
pub fn top(layer: Layer) -> Open {
    if !RUNNING.with(Cell::get) {
        return Open::IDLE;
    }
    count(layer);
    let tick = TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        v
    });
    if !tick.is_multiple_of(TRACE_STRIDE) {
        return Open::IDLE;
    }
    let op = OP_ID.with(|o| {
        let v = o.get().wrapping_add(1);
        o.set(v);
        v
    });
    open(layer, 0, op)
}

/// Starts a span inside the operation being traced, if one is.
#[inline]
fn child(layer: Layer) -> Open {
    count(layer);
    let parent = OPEN.with(Cell::get);
    if parent == 0 {
        return Open::IDLE;
    }
    let op = my_buf().map_or(0, |b| b.spans[parent as usize - 1].op);
    open(layer, parent, op)
}

#[inline]
fn count(layer: Layer) {
    MY_CALLS.with(|c| {
        let cell = &c[layer as usize];
        cell.set(cell.get() + 1);
    });
}

/// Starts counting and sampling the calling worker's operations, from an
/// empty buffer and zeroed counts: what came before (building the live set,
/// calibration) is not part of the measurement.
pub fn start() {
    if let Some(buf) = my_buf() {
        buf.spans.clear();
    }
    MY_CALLS.with(|c| c.iter().for_each(|cell| cell.set(0)));
    RUNNING.with(|r| r.set(true));
}

/// Stops sampling on the calling worker and adds its call counts to the
/// totals; what it does afterwards (teardown) is not counted.
pub fn stop() {
    RUNNING.with(|r| r.set(false));
    MY_CALLS.with(|c| {
        for (mine, total) in c.iter().zip(&CALLS) {
            total.fetch_add(mine.replace(0), Ordering::Relaxed);
        }
    });
}

/// A `BuddyBackend` that records a span around each hot-path call into the
/// backend it wraps.
pub struct Spanned<A> {
    inner: A,
    layer: Layer,
}

impl<A> Spanned<A> {
    pub fn new(layer: Layer, inner: A) -> Self {
        Spanned { inner, layer }
    }

    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: BuddyBackend> BuddyBackend for Spanned<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }
    fn alloc(&self, size: usize) -> Option<usize> {
        let _span = child(self.layer);
        self.inner.alloc(size)
    }
    fn dealloc(&self, offset: usize) {
        let _span = child(self.layer);
        self.inner.dealloc(offset)
    }
    fn try_alloc(&self, size: usize) -> Result<usize, AllocError> {
        let _span = child(self.layer);
        self.inner.try_alloc(size)
    }
    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        let _span = child(self.layer);
        self.inner.try_dealloc(offset)
    }
    fn total_memory(&self) -> usize {
        self.inner.total_memory()
    }
    fn min_size(&self) -> usize {
        self.inner.min_size()
    }
    fn max_size(&self) -> usize {
        self.inner.max_size()
    }
    fn allocated_bytes(&self) -> usize {
        self.inner.allocated_bytes()
    }
    fn stats(&self) -> OpStatsSnapshot {
        self.inner.stats()
    }
    // Without this forward the default answers `None`, and a cache above
    // would pass every free straight through instead of parking it.
    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        let _span = child(self.layer);
        self.inner.granted_size_of_live(offset)
    }
    fn granted_size_for(&self, size: usize) -> Option<usize> {
        self.inner.granted_size_for(size)
    }
    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        self.inner.grant_alignment_for(size)
    }
    fn frag_stats(&self) -> Option<FragStatsSnapshot> {
        self.inner.frag_stats()
    }
    fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.inner.cache_stats()
    }
    fn cache_class_capacities(&self) -> Option<Vec<(usize, usize)>> {
        self.inner.cache_class_capacities()
    }
    fn drain_cache(&self) {
        self.inner.drain_cache()
    }
    fn occupancy(&self) -> Option<OccupancySnapshot> {
        self.inner.occupancy()
    }
    fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>> {
        self.inner.free_chunks(min_size)
    }
    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        self.inner.scrub_claim(offset, size)
    }
    fn scrub_dealloc(&self, offset: usize) {
        self.inner.scrub_dealloc(offset)
    }
    fn trim_empty_pages(&self) -> usize {
        self.inner.trim_empty_pages()
    }
}

/// What recording one span costs, measured by recording empty ones.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Measured length of an empty span, in cycles.
    pub inside: f64,
    /// What an empty child span adds to its parent's measured length.
    pub to_parent: f64,
}

/// Measures [`SpanCost`] on the calling thread, which must be a worker with
/// a buffer installed; the buffer is left empty again.
pub fn calibrate() -> SpanCost {
    // Few enough rounds for the smallest buffer `install` is given.  The
    // buffer fills as it does in a run, so the records land on lines that
    // are not in the cache yet.
    const ROUNDS: usize = 8_000;
    let mut bare = Vec::with_capacity(ROUNDS);
    let mut nested = Vec::with_capacity(ROUNDS);
    for round in 0..2 * ROUNDS {
        let with_child = round % 2 == 1;
        let outer = open(Layer::Facade, 0, 0);
        if with_child {
            drop(std::hint::black_box(child(Layer::Cache)));
        }
        let me = outer.me;
        drop(outer);
        if me == 0 {
            continue;
        }
        let s = my_buf().expect("an open span has a buffer").spans[me as usize - 1];
        let len = (s.end - s.start) as f64;
        if with_child {
            nested.push(len);
        } else {
            bare.push(len);
        }
    }
    if let Some(buf) = my_buf() {
        buf.spans.clear();
        buf.dropped = 0;
    }
    let inside = crate::stats::median(&bare).unwrap_or(0.0);
    let to_parent = (crate::stats::median(&nested).unwrap_or(0.0) - inside).max(0.0);
    SpanCost { inside, to_parent }
}

/// Per-layer totals over every traced operation of a run.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Operations traced whole.
    pub traced_ops: u64,
    /// What the traced operations took in nanoseconds with the cost of
    /// recording removed: the sum of every layer's self time.
    pub total_ns: f64,
    /// Summed length of their top-level spans as recorded.
    pub raw_ns: f64,
    /// Self time by layer, in nanoseconds: span length minus what its child
    /// spans cover, both with the recording cost removed.
    pub self_ns: [f64; LAYERS.len()],
    /// Calls into each layer, over all operations, traced or not.
    pub calls: [u64; LAYERS.len()],
    pub spans: u64,
    pub dropped: u64,
}

impl Analysis {
    /// The analysis as named numbers, for a trial's JSON.
    pub fn pairs(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("span.traced_ops".to_string(), self.traced_ops as f64),
            ("span.total_ns".to_string(), self.total_ns),
            ("span.spans".to_string(), self.spans as f64),
            ("span.dropped".to_string(), self.dropped as f64),
        ];
        for layer in LAYERS {
            let i = layer as usize;
            out.push((format!("span.{}.self_ns", layer.name()), self.self_ns[i]));
            out.push((format!("span.{}.calls", layer.name()), self.calls[i] as f64));
        }
        out
    }
}

/// Analyses what the workers recorded and writes the first
/// `dump_limit` spans of each thread to `<dir>/spans-<tag>-t<i>.csv`.
/// Call after every worker has been joined.
pub fn collect(
    clock: &Clock,
    cost: SpanCost,
    dir: &Path,
    tag: &str,
    dump_limit: usize,
) -> Analysis {
    let mut out = Analysis::default();
    for (layer, total) in CALLS.iter().enumerate() {
        out.calls[layer] = total.load(Ordering::Relaxed);
    }
    let _ = std::fs::create_dir_all(dir);
    for (t, slot) in BUFFERS.iter().enumerate() {
        // SAFETY: as in `my_buf`; the workers are gone.
        let Some(buf) = (unsafe { slot.load(Ordering::Acquire).as_ref() }) else {
            continue;
        };
        out.dropped += buf.dropped;
        out.spans += buf.spans.len() as u64;
        let mut covered = vec![0f64; buf.spans.len()];
        // Children follow their parent in the buffer, so one backwards pass
        // has every child's length added before its parent is read.
        for (i, s) in buf.spans.iter().enumerate().rev() {
            let len = (s.end.saturating_sub(s.start)) as f64;
            let own = (len - cost.inside - covered[i]).max(0.0);
            out.self_ns[s.layer as usize] += own * clock.ns_per_cycle;
            if s.parent == 0 {
                out.traced_ops += 1;
                out.raw_ns += len * clock.ns_per_cycle;
            } else {
                covered[s.parent as usize - 1] += len - cost.inside + cost.to_parent;
            }
        }
        let path = dir.join(format!("spans-{tag}-t{t}.csv"));
        if let Ok(file) = std::fs::File::create(&path) {
            let mut w = std::io::BufWriter::new(file);
            let _ = writeln!(w, "op,span,parent,layer,start_cycles,end_cycles");
            for (i, s) in buf.spans.iter().take(dump_limit).enumerate() {
                let _ = writeln!(
                    w,
                    "{},{},{},{},{},{}",
                    s.op,
                    i + 1,
                    s.parent,
                    LAYERS[s.layer as usize].name(),
                    s.start,
                    s.end
                );
            }
            let _ = w.flush();
        }
    }
    out.total_ns = out.self_ns.iter().sum();
    out
}
