//! The pointer-returning surfaces a replay drives: the shipped allocator,
//! the system allocator it is compared with, and the rungs of the ladder
//! that add one layer at a time.
//!
//! Everything here reaches the allocator through its public constructors
//! and methods only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::ptr::NonNull;
use std::sync::Arc;

use nbbs::{BuddyBackend, BuddyConfig, BuddyRegion, ElasticSet, LockedFourLevel, NbbsFourLevel};
use nbbs_alloc::{NbbsAllocator, NbbsGlobalAlloc};
use nbbs_cache::MagazineCache;
use nbbs_numa::NodeSet;
use nbbs_obs::{Recorded, Recorder};
use nbbs_slab::SlabBackend;

use crate::span::{self, Layer, Spanned};
use crate::sys::{thread_cpu_s, worker};

/// Written into every block when it is allocated and checked when it is
/// freed: a block that two owners were given, or that came back from the
/// wrong place, fails the check.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub thread: u32,
    pub seq: u32,
    pub size: u32,
    pub check: u32,
}

impl Header {
    pub fn new(thread: usize, seq: u32, size: usize) -> Header {
        let (thread, size) = (thread as u32, size as u32);
        Header {
            thread,
            seq,
            size,
            check: 0xB10C_4EAD ^ thread.rotate_left(24) ^ seq.rotate_left(7) ^ size,
        }
    }
}

/// Named counters a surface reports about its layers after a run.
pub type Counters = BTreeMap<&'static str, f64>;

/// How long the two halves of a night took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Night {
    pub drain_s: f64,
    pub scrub_s: f64,
}

impl Night {
    /// Times the two halves of a night on the calling thread.
    pub fn of(drain: impl FnOnce(), scrub: impl FnOnce()) -> Night {
        Night {
            drain_s: timed(drain),
            scrub_s: timed(scrub),
        }
    }
}

/// What a replay needs from an allocator.
pub trait Surface: Sync {
    /// A block of `size` bytes aligned to `align`, or null.
    fn alloc(&self, size: usize, align: usize) -> *mut u8;

    /// Releases a block.
    ///
    /// # Safety
    ///
    /// `ptr` was returned by `alloc` (or `realloc`) of this surface for this
    /// size and alignment and has not been released since.
    unsafe fn free(&self, ptr: *mut u8, size: usize, align: usize);

    /// Resizes a block, keeping its leading bytes; null leaves it as it was.
    ///
    /// # Safety
    ///
    /// As for [`Surface::free`].
    unsafe fn realloc(&self, ptr: *mut u8, size: usize, align: usize, new_size: usize) -> *mut u8 {
        let fresh = self.alloc(new_size, align);
        if !fresh.is_null() {
            // SAFETY: both blocks are live and at least that many bytes long.
            unsafe { std::ptr::copy_nonoverlapping(ptr, fresh, size.min(new_size)) };
            // SAFETY: the caller's guarantee.
            unsafe { self.free(ptr, size, align) };
        }
        fresh
    }

    /// Whether `ptr` was given out by this surface (and so must be freed
    /// through it).
    fn owns(&self, ptr: *mut u8) -> bool;

    /// Where the header of the block at `ptr` lives: in the block, unless
    /// the surface hands out addresses without memory behind them.
    fn header(&self, ptr: *mut u8) -> *mut Header {
        ptr.cast()
    }

    /// Whether blocks are real memory a caller may write to.
    fn has_memory(&self) -> bool {
        true
    }

    /// Bytes the allocator counts as handed out, when it can tell.
    fn granted_bytes(&self) -> Option<usize> {
        None
    }

    /// `drain_cache()` then `scrub_pass()`.
    fn night(&self) -> Night {
        Night::default()
    }

    /// With every block freed and the caches drained: nothing is counted as
    /// handed out, and every tree passes `nbbs::verify`'s audit.
    fn check_empty(&self) -> Result<(), String> {
        Ok(())
    }

    /// Counters of the layers underneath.
    fn counters(&self, _out: &mut Counters) {}

    /// Whether the surface guards itself against allocations made by its own
    /// internals on the calling thread (only matters under a
    /// `#[global_allocator]`).
    fn reentrant(&self) -> bool {
        false
    }
}

/// Reaches through a composition of layers to the trees at the bottom and
/// collects each layer's counters on the way.
pub trait Inspect {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>);
    fn layer_counters(&self, out: &mut Counters);
}

fn add(out: &mut Counters, key: &'static str, value: f64) {
    *out.entry(key).or_insert(0.0) += value;
}

impl Inspect for NbbsFourLevel {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>) {
        out.push(self);
    }
    fn layer_counters(&self, out: &mut Counters) {
        let s = self.stats();
        add(out, "tree.allocs", s.allocs as f64);
        add(out, "tree.frees", s.frees as f64);
        add(out, "tree.cas_ops", s.cas_ops as f64);
        add(out, "tree.cas_failures", s.cas_failures as f64);
    }
}

impl Inspect for LockedFourLevel {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>) {
        out.push(self.inner());
    }
    fn layer_counters(&self, out: &mut Counters) {
        self.inner().layer_counters(out);
    }
}

impl<A: Inspect> Inspect for Arc<A> {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>) {
        (**self).trees(out);
    }
    fn layer_counters(&self, out: &mut Counters) {
        (**self).layer_counters(out);
    }
}

impl<A: Inspect> Inspect for Spanned<A> {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>) {
        self.inner().trees(out);
    }
    fn layer_counters(&self, out: &mut Counters) {
        self.inner().layer_counters(out);
    }
}

impl<A: Inspect> Inspect for Recorded<A> {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>) {
        self.inner().trees(out);
    }
    fn layer_counters(&self, out: &mut Counters) {
        self.inner().layer_counters(out);
    }
}

impl<A: BuddyBackend + Inspect> Inspect for NodeSet<A> {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>) {
        for i in 0..self.node_count() {
            self.node(i).trees(out);
        }
    }
    fn layer_counters(&self, out: &mut Counters) {
        for n in self.node_stats() {
            add(out, "numa.local_allocs", n.local_allocs as f64);
            add(out, "numa.remote_allocs", n.remote_allocs as f64);
        }
        for i in 0..self.node_count() {
            self.node(i).layer_counters(out);
        }
    }
}

impl<A: BuddyBackend + Inspect> Inspect for ElasticSet<A> {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>) {
        for region in (0..self.max_regions()).filter_map(|i| self.region(i)) {
            region.trees(out);
        }
    }
    fn layer_counters(&self, out: &mut Counters) {
        let s = self.elastic_stats();
        add(out, "elastic.grows", s.grows as f64);
        add(out, "elastic.retires", s.retires as f64);
        add(out, "elastic.reactivations", s.reactivations as f64);
        for region in (0..self.max_regions()).filter_map(|i| self.region(i)) {
            region.layer_counters(out);
        }
    }
}

impl<A: BuddyBackend + Inspect> Inspect for SlabBackend<A> {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>) {
        self.inner().trees(out);
    }
    fn layer_counters(&self, out: &mut Counters) {
        let f = self.frag_snapshot();
        add(out, "slab.bytes_requested", f.bytes_requested() as f64);
        add(out, "slab.bytes_committed", f.bytes_committed() as f64);
        add(
            out,
            "slab.pages_granted",
            (f.pages_live + f.pages_retired) as f64,
        );
        self.inner().layer_counters(out);
    }
}

impl<A: BuddyBackend + Inspect> Inspect for MagazineCache<A> {
    fn trees<'a>(&'a self, out: &mut Vec<&'a NbbsFourLevel>) {
        self.backend().trees(out);
    }
    fn layer_counters(&self, out: &mut Counters) {
        let s = self.snapshot();
        add(out, "cache.hits", s.hits as f64);
        add(out, "cache.misses", s.misses as f64);
        add(out, "cache.parked_bytes", self.cached_bytes() as f64);
        self.backend().layer_counters(out);
    }
}

fn check_trees<A: BuddyBackend + Inspect>(stack: &A) -> Result<(), String> {
    let live = stack.allocated_bytes();
    if live != 0 {
        return Err(format!("{live} bytes still handed out after the last free"));
    }
    let mut trees = Vec::new();
    stack.trees(&mut trees);
    for (i, tree) in trees.iter().enumerate() {
        let report = nbbs::verify::audit_empty(*tree);
        if !report.is_clean() {
            return Err(format!(
                "tree {i}: {} violations, first {:?}",
                report.violations.len(),
                report.violations.first()
            ));
        }
    }
    Ok(())
}

/// CPU seconds the calling thread spends in `f`.
fn timed(f: impl FnOnce()) -> f64 {
    let t0 = thread_cpu_s();
    f();
    thread_cpu_s() - t0
}

/// A `BuddyRegion` over any composition of offset layers: rungs `r0` to
/// `r2`.  Buddy blocks are aligned to their own size, so asking for
/// `max(size, align)` bytes gives the alignment.
pub struct RegionSurface<A: BuddyBackend> {
    region: BuddyRegion<A>,
}

impl<A: BuddyBackend> RegionSurface<A> {
    pub fn new(stack: A) -> Self {
        RegionSurface {
            region: BuddyRegion::new(stack),
        }
    }
}

impl<A: BuddyBackend + Inspect> Surface for RegionSurface<A> {
    fn alloc(&self, size: usize, align: usize) -> *mut u8 {
        self.region
            .alloc_bytes(size.max(align))
            .map_or(std::ptr::null_mut(), NonNull::as_ptr)
    }
    unsafe fn free(&self, ptr: *mut u8, _size: usize, _align: usize) {
        if let Some(nn) = NonNull::new(ptr) {
            self.region.dealloc_bytes(nn);
        }
    }
    fn owns(&self, ptr: *mut u8) -> bool {
        NonNull::new(ptr).is_some_and(|nn| self.region.contains(nn))
    }
    fn granted_bytes(&self) -> Option<usize> {
        Some(self.region.allocated_bytes())
    }
    fn night(&self) -> Night {
        Night::of(
            || self.region.backend().drain_cache(),
            || {
                self.region.scrub_pass();
            },
        )
    }
    fn check_empty(&self) -> Result<(), String> {
        check_trees(self.region.backend())
    }
    fn counters(&self, out: &mut Counters) {
        self.region.backend().layer_counters(out);
    }
}

/// An `NbbsAllocator` over any composition: rungs `r3`, `r5`, `r6`, `r7` and
/// the traced stack.
pub struct FacadeSurface<A: BuddyBackend> {
    facade: NbbsAllocator<A>,
    /// Set on the traced stack: the layer whose calls are the top-level
    /// spans.
    traced: Option<Layer>,
}

impl<A: BuddyBackend> FacadeSurface<A> {
    pub fn new(stack: A) -> Self {
        FacadeSurface {
            facade: NbbsAllocator::new(stack),
            traced: None,
        }
    }
}

fn layout(size: usize, align: usize) -> Layout {
    Layout::from_size_align(size, align).expect("the arrays hold valid layouts")
}

impl<A: BuddyBackend + Inspect> Surface for FacadeSurface<A> {
    fn alloc(&self, size: usize, align: usize) -> *mut u8 {
        let _op = self.traced.map(span::top);
        self.facade
            .allocate(layout(size, align))
            .map_or(std::ptr::null_mut(), |block| block.cast::<u8>().as_ptr())
    }
    unsafe fn free(&self, ptr: *mut u8, size: usize, align: usize) {
        let _op = self.traced.map(span::top);
        if let Some(nn) = NonNull::new(ptr) {
            // SAFETY: the caller's guarantee is `deallocate`'s requirement.
            unsafe { self.facade.deallocate(nn, layout(size, align)) };
        }
    }
    unsafe fn realloc(&self, ptr: *mut u8, size: usize, align: usize, new_size: usize) -> *mut u8 {
        let _op = self.traced.map(span::top);
        // SAFETY: the caller's guarantee is `realloc`'s requirement.
        unsafe { GlobalAlloc::realloc(&self.facade, ptr, layout(size, align), new_size) }
    }
    fn owns(&self, ptr: *mut u8) -> bool {
        self.facade.owns(ptr)
    }
    fn granted_bytes(&self) -> Option<usize> {
        Some(self.facade.allocated_bytes())
    }
    fn night(&self) -> Night {
        Night::of(
            || self.facade.backend().drain_cache(),
            || {
                self.facade.region().scrub_pass();
            },
        )
    }
    fn check_empty(&self) -> Result<(), String> {
        check_trees(self.facade.backend())
    }
    fn counters(&self, out: &mut Counters) {
        self.facade.backend().layer_counters(out);
    }
}

/// `drain_cache()` then `scrub_pass()` on an `NbbsGlobalAlloc`, local or
/// registered.
pub fn global_night(global: &NbbsGlobalAlloc) -> Night {
    Night::of(
        || global.drain_cache(),
        || {
            global.scrub_pass();
        },
    )
}

/// What an `NbbsGlobalAlloc` tells about itself.
pub fn global_counters(global: &NbbsGlobalAlloc, out: &mut Counters) {
    if let Some(s) = global.cache_stats() {
        add(out, "cache.hits", s.hits as f64);
        add(out, "cache.misses", s.misses as f64);
    }
    let (buddy, system) = global.bytes_served();
    add(out, "global.buddy_bytes", buddy as f64);
    add(out, "global.system_bytes", system as f64);
    add(out, "global.failovers", global.system_failovers() as f64);
}

/// The shipped `NbbsGlobalAlloc`, on a local instance that is not the
/// process's registered allocator: rung `r4` and the end-to-end runs.
pub struct GlobalSurface(pub NbbsGlobalAlloc);

impl Surface for GlobalSurface {
    fn alloc(&self, size: usize, align: usize) -> *mut u8 {
        // SAFETY: the layout has a non-zero size.
        unsafe { self.0.alloc(layout(size, align)) }
    }
    unsafe fn free(&self, ptr: *mut u8, size: usize, align: usize) {
        // SAFETY: the caller's guarantee is `dealloc`'s requirement.
        unsafe { self.0.dealloc(ptr, layout(size, align)) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, size: usize, align: usize, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantee is `realloc`'s requirement.
        unsafe { self.0.realloc(ptr, layout(size, align), new_size) }
    }
    fn owns(&self, _ptr: *mut u8) -> bool {
        // It tells its own blocks from the system's by address.
        true
    }
    fn granted_bytes(&self) -> Option<usize> {
        Some(self.0.buddy_allocated_bytes())
    }
    fn night(&self) -> Night {
        global_night(&self.0)
    }
    fn check_empty(&self) -> Result<(), String> {
        // The tree is not reachable from outside; the byte count is.
        match self.0.buddy_allocated_bytes() {
            0 => Ok(()),
            live => Err(format!("{live} bytes still handed out after the last free")),
        }
    }
    fn counters(&self, out: &mut Counters) {
        global_counters(&self.0, out);
    }
    fn reentrant(&self) -> bool {
        true
    }
}

/// `std::alloc::System`: what a user compares the shipped allocator with.
pub struct SystemSurface;

impl Surface for SystemSurface {
    fn alloc(&self, size: usize, align: usize) -> *mut u8 {
        // SAFETY: the layout has a non-zero size.
        unsafe { System.alloc(layout(size, align)) }
    }
    unsafe fn free(&self, ptr: *mut u8, size: usize, align: usize) {
        // SAFETY: the caller's guarantee is `dealloc`'s requirement.
        unsafe { System.dealloc(ptr, layout(size, align)) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, size: usize, align: usize, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantee is `realloc`'s requirement.
        unsafe { System.realloc(ptr, layout(size, align), new_size) }
    }
    fn owns(&self, _ptr: *mut u8) -> bool {
        true
    }
    fn reentrant(&self) -> bool {
        true
    }
}

/// A bare offset backend with no memory behind it, as the paper's own
/// experiment and a kernel page-frame consumer use the tree.  Offsets are
/// handed out as addresses that are never dereferenced; the headers live in
/// a table with one entry per allocation unit, so a unit given out twice is
/// caught exactly like an overwritten block.
pub struct OffsetSurface<A: BuddyBackend> {
    stack: A,
    unit_shift: u32,
    headers: Box<[UnsafeCell<Header>]>,
    traced: Option<Layer>,
}

/// Offsets are biased so that offset 0 is not the null pointer.
const OFFSET_BASE: usize = 1 << 40;

// SAFETY: a header entry is written by the thread that was just granted its
// unit and read by the one thread that frees it; the allocator's own
// synchronisation orders the two, as it does for the memory of a real block.
unsafe impl<A: BuddyBackend> Sync for OffsetSurface<A> {}

impl<A: BuddyBackend> OffsetSurface<A> {
    pub fn new(stack: A) -> Self {
        let units = stack.total_memory() / stack.min_size();
        OffsetSurface {
            unit_shift: stack.min_size().trailing_zeros(),
            headers: (0..units)
                .map(|_| UnsafeCell::new(Header::new(0, 0, 0)))
                .collect(),
            stack,
            traced: None,
        }
    }
}

impl<A: BuddyBackend + Inspect> Surface for OffsetSurface<A> {
    fn alloc(&self, size: usize, align: usize) -> *mut u8 {
        let _op = self.traced.map(span::top);
        match self.stack.alloc(size.max(align)) {
            Some(offset) => (OFFSET_BASE + offset) as *mut u8,
            None => std::ptr::null_mut(),
        }
    }
    unsafe fn free(&self, ptr: *mut u8, _size: usize, _align: usize) {
        let _op = self.traced.map(span::top);
        self.stack.dealloc(ptr as usize - OFFSET_BASE);
    }
    fn owns(&self, ptr: *mut u8) -> bool {
        (OFFSET_BASE..OFFSET_BASE + self.stack.total_memory()).contains(&(ptr as usize))
    }
    fn header(&self, ptr: *mut u8) -> *mut Header {
        self.headers[(ptr as usize - OFFSET_BASE) >> self.unit_shift].get()
    }
    fn has_memory(&self) -> bool {
        false
    }
    fn granted_bytes(&self) -> Option<usize> {
        Some(self.stack.allocated_bytes())
    }
    fn night(&self) -> Night {
        Night::of(|| self.stack.drain_cache(), || {})
    }
    fn check_empty(&self) -> Result<(), String> {
        check_trees(&self.stack)
    }
    fn counters(&self, out: &mut Counters) {
        self.stack.layer_counters(out);
    }
}

/// What the harness itself costs: per-thread free lists by power-of-two
/// class over a private arena.  A block freed by another thread joins that
/// thread's list; when hand-offs run one way for long enough that a list
/// overflows, half of it moves to a shared depot, where a thread whose list
/// ran dry looks before it carves fresh memory.  That is the only sharing,
/// and it happens once in thousands of calls.
pub struct NullSurface {
    /// What the system allocator returned, and its length.
    raw: (*mut u8, usize),
    /// The arena proper: `raw` rounded up to [`NULL_ALIGN`].
    arena: *mut u8,
    len: usize,
    threads: Box<[UnsafeCell<NullThread>]>,
    depot: [std::sync::Mutex<Vec<usize>>; NULL_CLASSES],
}

const NULL_CLASSES: usize = 24;
/// A list holding more blocks than this, or more bytes than
/// [`NULL_LIST_BYTES`], sheds half of itself to the depot.
const NULL_LIST_MAX: usize = 4096;
const NULL_LIST_BYTES: usize = 2 << 20;

/// Blocks a list of `class` (`log2` of the block size) may hold.
fn null_list_max(class: usize) -> usize {
    (NULL_LIST_BYTES >> class).clamp(8, NULL_LIST_MAX)
}

#[repr(align(128))]
struct NullThread {
    /// Free blocks by class (`log2` of the block size).
    free: [Vec<*mut u8>; NULL_CLASSES],
    /// This thread's share of the arena not yet carved: `next..end`.
    next: usize,
    end: usize,
}

/// Every block size up to this one is aligned to itself.
const NULL_ALIGN: usize = 1 << 16;
/// The share of the arena kept for the one thread that is not a worker.
const NULL_MAIN_SHARE: usize = 1 << 20;

// SAFETY: entry `i` of `threads` is touched only by worker `i` (the last one
// by the one thread that is not a worker), and blocks change hands only
// through the replay's own hand-off.
unsafe impl Sync for NullSurface {}

impl NullSurface {
    pub fn new(total: usize, workers: usize) -> Self {
        // Twice the managed span: free lists by class never split or merge a
        // block, so a changing size mix needs slack a buddy does not.  The
        // memory is demand-zero (a fresh mapping, no explicit zeroing at
        // this alignment), so untouched pages cost nothing, as in a
        // `BuddyRegion`.
        let len = 2 * total;
        let raw_len = len + NULL_ALIGN;
        // SAFETY: the layout has a non-zero size.
        let raw = unsafe { System.alloc_zeroed(layout(raw_len, 16)) };
        assert!(!raw.is_null());
        let arena = raw.wrapping_add(raw.align_offset(NULL_ALIGN));
        let share = (len - NULL_MAIN_SHARE) / workers / NULL_ALIGN * NULL_ALIGN;
        NullSurface {
            raw: (raw, raw_len),
            arena,
            len,
            threads: (0..=workers)
                .map(|i| {
                    UnsafeCell::new(NullThread {
                        free: std::array::from_fn(|_| Vec::with_capacity(NULL_LIST_MAX + 1)),
                        next: i * share,
                        end: if i < workers { (i + 1) * share } else { len },
                    })
                })
                .collect(),
            depot: std::array::from_fn(|_| std::sync::Mutex::new(Vec::new())),
        }
    }

    #[allow(clippy::mut_from_ref)]
    fn mine(&self) -> &mut NullThread {
        let i = worker().min(self.threads.len() - 1);
        // SAFETY: see the `Sync` impl.
        unsafe { &mut *self.threads[i].get() }
    }
}

impl Drop for NullSurface {
    fn drop(&mut self) {
        // SAFETY: allocated in `new` with this layout.
        unsafe { System.dealloc(self.raw.0, layout(self.raw.1, 16)) };
    }
}

impl Surface for NullSurface {
    fn alloc(&self, size: usize, align: usize) -> *mut u8 {
        let block = size.max(align).max(16).next_power_of_two();
        let class = block.trailing_zeros() as usize;
        let me = self.mine();
        if let Some(ptr) = me.free[class].pop() {
            return ptr;
        }
        {
            let mut depot = self.depot[class].lock().expect("no panic while held");
            let keep = depot.len().saturating_sub(null_list_max(class) / 2);
            me.free[class].extend(depot.drain(keep..).map(|p| p as *mut u8));
        }
        if let Some(ptr) = me.free[class].pop() {
            return ptr;
        }
        let at = me.next.next_multiple_of(block);
        if at + block > me.end {
            return std::ptr::null_mut();
        }
        me.next = at + block;
        // SAFETY: `at + block` lies inside the arena.
        unsafe { self.arena.add(at) }
    }
    unsafe fn free(&self, ptr: *mut u8, size: usize, align: usize) {
        let class = size.max(align).max(16).next_power_of_two().trailing_zeros() as usize;
        let list = &mut self.mine().free[class];
        list.push(ptr);
        if list.len() > null_list_max(class) {
            let mut depot = self.depot[class].lock().expect("no panic while held");
            depot.extend(list.drain(null_list_max(class) / 2..).map(|p| p as usize));
        }
    }
    fn owns(&self, ptr: *mut u8) -> bool {
        (self.arena as usize..self.arena as usize + self.len).contains(&(ptr as usize))
    }
}

/// The rungs of the ladder and the other stacks a trial can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Null,
    R0Tree,
    R1Numa,
    R2Cache,
    R3Facade,
    R4Global,
    R5Slab,
    R6Elastic,
    R7Obs,
    /// `r6-elastic` with a [`Spanned`] at every boundary.
    R6Spanned,
    /// `r0-tree` behind one spin lock (`4lvl-sl`).
    R0Locked,
    /// The bare tree handing out offsets: what `tree-direct` ships.
    Tree,
    /// The same behind one spin lock.
    TreeLocked,
    /// The bare tree under a [`Spanned`].
    TreeSpanned,
    System,
}

impl Rung {
    /// The ladder, in the order each rung adds to the one before.
    pub const LADDER: [Rung; 9] = [
        Rung::Null,
        Rung::R0Tree,
        Rung::R1Numa,
        Rung::R2Cache,
        Rung::R3Facade,
        Rung::R4Global,
        Rung::R5Slab,
        Rung::R6Elastic,
        Rung::R7Obs,
    ];

    const ALL: [Rung; 15] = [
        Rung::Null,
        Rung::R0Tree,
        Rung::R1Numa,
        Rung::R2Cache,
        Rung::R3Facade,
        Rung::R4Global,
        Rung::R5Slab,
        Rung::R6Elastic,
        Rung::R7Obs,
        Rung::R6Spanned,
        Rung::R0Locked,
        Rung::Tree,
        Rung::TreeLocked,
        Rung::TreeSpanned,
        Rung::System,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rung::Null => "null",
            Rung::R0Tree => "r0-tree",
            Rung::R1Numa => "r1-numa",
            Rung::R2Cache => "r2-cache",
            Rung::R3Facade => "r3-facade",
            Rung::R4Global => "r4-global",
            Rung::R5Slab => "r5-slab",
            Rung::R6Elastic => "r6-elastic",
            Rung::R7Obs => "r7-obs",
            Rung::R6Spanned => "r6-spanned",
            Rung::R0Locked => "r0-locked",
            Rung::Tree => "tree",
            Rung::TreeLocked => "tree-locked",
            Rung::TreeSpanned => "tree-spanned",
            Rung::System => "system",
        }
    }

    pub fn parse(name: &str) -> Option<Rung> {
        Rung::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Whether the stack records spans (and needs buffers installed).
    pub fn spanned(self) -> bool {
        matches!(self, Rung::R6Spanned | Rung::TreeSpanned)
    }
}

/// Regions an elastic stack may grow to; each holds a quarter of the arena,
/// so the whole chain spans what the other rungs manage.
const ELASTIC_REGIONS: usize = 4;

/// A chain that grows on the first request its active regions cannot serve.
/// (The default waits for a second one and fails the first, and the
/// workloads are chosen so that no operation fails.)
fn elastic_of<A: BuddyBackend>(
    region: impl Fn(usize) -> A + Send + Sync + 'static,
) -> ElasticSet<A> {
    ElasticSet::new(ELASTIC_REGIONS, region).with_grow_threshold(1)
}

/// Builds the stack of `rung` over an arena of `(total, unit, largest)`
/// bytes for `workers` caller threads.
pub fn build(rung: Rung, geometry: (usize, usize, usize), workers: usize) -> Box<dyn Surface> {
    let (total, unit, largest) = geometry;
    let config = BuddyConfig::new(total, unit, largest).expect("a valid arena geometry");
    let tree = || NbbsFourLevel::new(config);
    let numa = || NodeSet::new(vec![tree()]);
    let elastic = || {
        let part = BuddyConfig::new(total / ELASTIC_REGIONS, unit, largest)
            .expect("a valid region geometry");
        elastic_of(move |_| NbbsFourLevel::new(part))
    };
    match rung {
        Rung::Null => Box::new(NullSurface::new(total, workers)),
        Rung::R0Tree => Box::new(RegionSurface::new(tree())),
        Rung::R0Locked => Box::new(RegionSurface::new(LockedFourLevel::new(tree()))),
        Rung::R1Numa => Box::new(RegionSurface::new(numa())),
        Rung::R2Cache => Box::new(RegionSurface::new(MagazineCache::new(numa()))),
        Rung::R3Facade => Box::new(FacadeSurface::new(Arc::new(MagazineCache::new(numa())))),
        Rung::R4Global => Box::new(GlobalSurface(NbbsGlobalAlloc::new(total, unit, largest))),
        Rung::R5Slab => Box::new(FacadeSurface::new(Arc::new(MagazineCache::new(
            SlabBackend::new(numa()),
        )))),
        Rung::R6Elastic => Box::new(FacadeSurface::new(Arc::new(MagazineCache::new(
            SlabBackend::new(NodeSet::new(vec![elastic()])),
        )))),
        Rung::R7Obs => Box::new(FacadeSurface::new(Recorded::sampled(
            Arc::new(MagazineCache::new(numa())),
            Arc::new(Recorder::new()),
            // Armed and idle: every call pays the sampling tick, (almost)
            // none is recorded.
            u32::MAX,
        ))),
        Rung::R6Spanned => {
            let tree = move |_| {
                Spanned::new(
                    Layer::Tree,
                    NbbsFourLevel::new(
                        BuddyConfig::new(total / ELASTIC_REGIONS, unit, largest)
                            .expect("a valid region geometry"),
                    ),
                )
            };
            let elastic = Spanned::new(Layer::Elastic, elastic_of(tree));
            let numa = Spanned::new(Layer::Numa, NodeSet::new(vec![elastic]));
            let slab = Spanned::new(Layer::Slab, SlabBackend::new(numa));
            let cache = Spanned::new(Layer::Cache, Arc::new(MagazineCache::new(slab)));
            let mut surface = FacadeSurface::new(cache);
            surface.traced = Some(Layer::Facade);
            Box::new(surface)
        }
        Rung::Tree => Box::new(OffsetSurface::new(tree())),
        Rung::TreeLocked => Box::new(OffsetSurface::new(LockedFourLevel::new(tree()))),
        Rung::TreeSpanned => {
            // The tree is the whole stack here, so its calls are the
            // top-level spans.
            let mut surface = OffsetSurface::new(tree());
            surface.traced = Some(Layer::Tree);
            Box::new(surface)
        }
        Rung::System => Box::new(SystemSurface),
    }
}

/// The untraced and the traced `r6` stacks as plain backends over regions of
/// `part`, for the test that a [`Spanned`] changes nothing a caller can see.
pub fn r6_backends(part: BuddyConfig) -> (impl BuddyBackend, impl BuddyBackend) {
    let bare = MagazineCache::new(SlabBackend::new(NodeSet::new(vec![elastic_of(
        move |_| NbbsFourLevel::new(part),
    )])));
    let spanned = Spanned::new(
        Layer::Cache,
        MagazineCache::new(Spanned::new(
            Layer::Slab,
            SlabBackend::new(Spanned::new(
                Layer::Numa,
                NodeSet::new(vec![Spanned::new(
                    Layer::Elastic,
                    elastic_of(move |_| Spanned::new(Layer::Tree, NbbsFourLevel::new(part))),
                )]),
            )),
        )),
    );
    (bare, spanned)
}
