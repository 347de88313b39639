//! Differential and concurrency tests of the `nbbs-alloc` facade.
//!
//! The shared System-mirror walk (`tests/common`) drives the facade over
//! the magazine cache through `GlobalAlloc` with randomized layouts (sizes
//! *and* alignments) and scrub passes in between, and every other test
//! checks one property of `allocate`/`deallocate`/`realloc` against an
//! oracle of its own.

mod common;

use std::alloc::{GlobalAlloc, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use common::Front;
use nbbs::error::FreeError;
use nbbs::{BuddyBackend, BuddyConfig, Geometry, NbbsFourLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_cache::{drain_on_thread_exit, DrainOnExit, MagazineCache};

const TOTAL: usize = 1 << 20;
const MIN: usize = 16;
const MAX: usize = 1 << 13;

type Cached = NbbsAllocator<MagazineCache<NbbsFourLevel>>;

fn facade() -> Cached {
    let config = BuddyConfig::new(TOTAL, MIN, MAX).unwrap();
    NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(config)))
}

impl Front for Cached {
    fn night(&self) {
        self.region().scrub_pass();
    }
    fn live_bytes(&self) -> Option<usize> {
        Some(self.allocated_bytes())
    }
    fn audit(&self) {
        self.backend().drain_all();
        nbbs::verify::audit_empty(self.backend().backend()).assert_clean();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The facade over the cache agrees with the System mirror.
    #[test]
    fn facade_matches_system_oracle(ops in common::ops(1..150, common::layouts(5000, 12), 5000)) {
        common::walk(&facade(), ops);
    }
}

/// Deterministic zero-on-reuse check across the decommit boundary: a dirty
/// block whose pages went through `scrub_pass` (claim → `madvise` →
/// release) comes back as fresh zero pages even from plain `allocate` —
/// every free block of the span was decommitted or never touched — and
/// writable.
#[test]
fn zero_on_reuse_across_the_decommit_boundary() {
    let alloc = facade();
    let layout = Layout::from_size_align(1 << 13, 64).unwrap();
    let dirty = alloc.allocate(layout).unwrap();
    unsafe {
        dirty.cast::<u8>().as_ptr().write_bytes(0xFF, dirty.len());
        alloc.deallocate(dirty.cast(), layout);
    }
    // Push the parked chunk back to the tree so the scrubber can claim it,
    // then decommit the idle span.
    alloc.backend().drain_cache();
    let freed = alloc.region().scrub_pass();
    assert!(freed > 0, "the dirty block's pages were decommitted");
    let mem = alloc.region().memory_stats();
    assert!(mem.committed_bytes < mem.managed_bytes, "{mem}");

    let clean = alloc.allocate(layout).unwrap();
    let bytes = unsafe { std::slice::from_raw_parts(clean.cast::<u8>().as_ptr(), clean.len()) };
    assert!(
        bytes.iter().all(|&b| b == 0),
        "recycled block reads zero after the decommit boundary"
    );
    unsafe { alloc.deallocate(clean.cast(), layout) };

    let plain = alloc.allocate(layout).unwrap();
    unsafe {
        plain.cast::<u8>().as_ptr().write_bytes(0x5A, plain.len());
        assert_eq!(*plain.cast::<u8>().as_ptr().add(plain.len() - 1), 0x5A);
        alloc.deallocate(plain.cast(), layout);
    }
    assert_eq!(alloc.allocated_bytes(), 0);
}

/// Foreign threads — threads that never heard of the cache, as under a
/// `#[global_allocator]` — get slots assigned on first touch and their
/// magazines drained when they exit, via the `nbbs-cache` exit registry.
#[test]
fn foreign_threads_drain_on_exit() {
    let config = BuddyConfig::new(1 << 18, 8, 1 << 12).unwrap();
    let cache = Arc::new(MagazineCache::new(NbbsFourLevel::new(config)));
    let facade = Arc::new(NbbsAllocator::new(Arc::clone(&cache)));

    let handles: Vec<_> = (0..6)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let facade = Arc::clone(&facade);
            std::thread::spawn(move || {
                // What the global facade does on a thread's first touch.
                drain_on_thread_exit(Arc::clone(&cache) as Arc<dyn DrainOnExit>);
                let mut held = Vec::new();
                for i in 0..2_000usize {
                    let size = 8usize << ((i + t) % 6);
                    let layout = Layout::from_size_align(size, 8 << (i % 3)).unwrap();
                    if let Ok(block) = facade.allocate(layout) {
                        held.push((block.cast::<u8>(), layout));
                    }
                    if held.len() > 24 {
                        let (ptr, layout) = held.swap_remove(i % held.len());
                        unsafe { facade.deallocate(ptr, layout) };
                    }
                }
                for (ptr, layout) in held {
                    unsafe { facade.deallocate(ptr, layout) };
                }
                // Chunks are parked right now; the exit hook must return
                // them once this thread dies.
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // A thread holds at most 25 blocks, so no slot ever overflows its two
    // 64-entry magazines: cached bytes live in slots only, and a
    // fully-drained cache reads exactly zero.
    assert_eq!(cache.snapshot().depot_exchanges, 0);
    assert_eq!(facade.allocated_bytes(), 0, "no user-live memory");
    assert_eq!(
        cache.cached_bytes(),
        0,
        "every foreign thread's slot was drained on exit"
    );
    assert_eq!(cache.backend().allocated_bytes(), 0);
    nbbs::verify::audit_empty(cache.backend()).assert_clean();
}

/// Blocks allocated on one thread and released on another flow through the
/// releasing thread's magazines — the Larson-style cross-thread pattern a
/// global allocator must handle.
#[test]
fn cross_thread_release_through_the_facade() {
    let config = BuddyConfig::new(1 << 18, 8, 1 << 12).unwrap();
    let facade = Arc::new(NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(
        config,
    ))));
    let layout = Layout::from_size_align(192, 64).unwrap();
    let producer = Arc::clone(&facade);
    let blocks: Vec<usize> = std::thread::spawn(move || {
        (0..500)
            .map(|_| producer.allocate(layout).unwrap().cast::<u8>().as_ptr() as usize)
            .collect()
    })
    .join()
    .unwrap();
    let consumer = Arc::clone(&facade);
    std::thread::spawn(move || {
        for addr in blocks {
            let ptr = NonNull::new(addr as *mut u8).unwrap();
            unsafe { consumer.deallocate(ptr, layout) };
        }
    })
    .join()
    .unwrap();
    assert_eq!(facade.allocated_bytes(), 0);
    facade.backend().drain_cache();
    assert_eq!(facade.backend().backend().allocated_bytes(), 0);
}

/// First-principles oracle for [`BuddyBackend::granted_size_for`],
/// recomputed from the geometry parameters alone: the granted size is the
/// next power of two of the request, floored at the unit size, and `None`
/// past the per-request maximum.
fn oracle_granted(req: usize, min: usize, max: usize) -> Option<usize> {
    if req > max {
        None
    } else {
        Some(req.max(1).next_power_of_two().max(min))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `granted_size_for` agrees with the geometry oracle at and around
    /// every class boundary — on the bare tree, through the magazine
    /// cache, and on the widened `NodeSet` geometry (whose per-node
    /// request ceiling must survive the widening) — and the facade's
    /// realloc keeps a block exactly where the oracle predicts, including
    /// over-aligned layouts.
    #[test]
    fn granted_size_for_matches_geometry_oracle(
        case in (1usize..(MAX * 2), 0u32..14, 1usize..(MAX * 2))
    ) {
        let (old_size, align_log, new_size) = case;

        // --- 1. raw conformance, incl. exact powers and their neighbours --
        let bare = NbbsFourLevel::new(BuddyConfig::new(TOTAL, MIN, MAX).unwrap());
        let cached = MagazineCache::new(NbbsFourLevel::new(
            BuddyConfig::new(TOTAL, MIN, MAX).unwrap(),
        ));
        let node_set = {
            let config = BuddyConfig::new(TOTAL / 4, MIN, MAX / 4).unwrap();
            // 3 nodes widen to 4; the phantom tail must not change grants.
            nbbs_numa::NodeSet::with_topology(
                (0..3).map(|_| NbbsFourLevel::new(config)).collect(),
                nbbs_numa::Topology::synthetic(3),
                nbbs_numa::NodePolicy::HomeFirst,
            )
        };
        let mut probes = vec![1, MIN - 1, MIN, MIN + 1, MAX - 1, MAX, MAX + 1, old_size, new_size];
        let mut class = MIN;
        while class <= MAX {
            probes.extend([class - 1, class, class + 1]);
            class <<= 1;
        }
        for req in probes.drain(..) {
            prop_assert_eq!(
                bare.granted_size_for(req),
                oracle_granted(req, MIN, MAX),
                "bare tree diverged at request {}", req
            );
            prop_assert_eq!(
                cached.granted_size_for(req),
                oracle_granted(req, MIN, MAX),
                "cached backend diverged at request {}", req
            );
            prop_assert_eq!(
                node_set.granted_size_for(req),
                oracle_granted(req, MIN, MAX / 4),
                "widened NodeSet diverged at request {}", req
            );
        }

        // --- 2. realloc keeps the block exactly when the oracle names
        // the block's class, and serves another class from the buddy
        // exactly when the oracle grants it ----------------------------
        let facade = facade();
        let align = 1usize << align_log;
        let old_layout = Layout::from_size_align(old_size, align).unwrap();
        let Some(old_granted) = oracle_granted(old_size.max(align), MIN, MAX) else {
            prop_assert!(facade.allocate(old_layout).is_err());
            return;
        };
        let new_granted = oracle_granted(new_size.max(align), MIN, MAX);
        let p = facade.allocate(old_layout).unwrap().cast::<u8>().as_ptr();
        let q = unsafe { facade.realloc(p, old_layout, new_size) };
        prop_assert_eq!(
            q == p,
            new_granted == Some(old_granted),
            "realloc {:?} -> {}", old_layout, new_size
        );
        prop_assert_eq!(facade.owns(q), new_granted.is_some());
        unsafe { facade.dealloc(q, Layout::from_size_align(new_size, align).unwrap()) };
        prop_assert_eq!(facade.allocated_bytes(), 0);
    }
}

/// A transparent wrapper that counts the size lookups reaching the tree.
struct Counting<A> {
    inner: A,
    lookups: AtomicUsize,
}

impl<A: BuddyBackend> BuddyBackend for Counting<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }
    fn alloc(&self, size: usize) -> Option<usize> {
        self.inner.alloc(size)
    }
    fn dealloc(&self, offset: usize) {
        self.inner.dealloc(offset)
    }
    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        self.inner.try_dealloc(offset)
    }
    fn allocated_bytes(&self) -> usize {
        self.inner.allocated_bytes()
    }
    fn inner(&self) -> Option<&dyn BuddyBackend> {
        Some(&self.inner)
    }
    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.granted_size_of_live(offset)
    }
}

/// A release through the facade carries the size the layout names, so the
/// cache asks the tree nothing: zero lookups the way it ships, and exactly
/// one per free in debug builds, where the cache cross-checks every claim.
#[test]
fn a_sized_free_never_asks_the_tree_for_the_size() {
    let config = BuddyConfig::new(TOTAL, MIN, MAX).unwrap();
    let alloc = NbbsAllocator::new(MagazineCache::new(Counting {
        inner: NbbsFourLevel::new(config),
        lookups: AtomicUsize::new(0),
    }));
    let layouts: Vec<Layout> = (0..240usize)
        .map(|i| {
            // Sizes across every class, every third request over-aligned.
            let size = 1 + (i * 37) % 5000;
            let align = if i % 3 == 0 { 64 << (i % 7) } else { 8 };
            Layout::from_size_align(size, align).unwrap()
        })
        .collect();
    let blocks: Vec<_> = layouts
        .iter()
        .map(|&layout| alloc.allocate(layout).unwrap().cast::<u8>())
        .collect();
    assert_eq!(alloc.backend().backend().lookups.load(Ordering::Relaxed), 0);
    for (&layout, &ptr) in layouts.iter().zip(&blocks) {
        unsafe { alloc.deallocate(ptr, layout) };
    }
    let expected = if cfg!(debug_assertions) {
        layouts.len()
    } else {
        0
    };
    assert_eq!(
        alloc.backend().backend().lookups.load(Ordering::Relaxed),
        expected
    );
    assert_eq!(alloc.allocated_bytes(), 0);
}

/// A shrink into a smaller class whose move the buddy cannot serve does
/// not keep the larger block under the smaller layout, which would make
/// the eventual release name the wrong class: `realloc` migrates the block
/// to `System` and releases the buddy block.
#[test]
fn a_foiled_shrink_fails_and_realloc_migrates_to_system() {
    // The one 4 KiB block is the whole arena: no 64-byte class to move to.
    let alloc = NbbsAllocator::new(NbbsFourLevel::new(
        BuddyConfig::new(4096, 64, 4096).unwrap(),
    ));
    let old = Layout::from_size_align(4096, 8).unwrap();
    unsafe {
        let p = alloc.alloc(old);
        assert!(alloc.owns(p));
        p.write_bytes(0x6B, 4096);
        let q = alloc.realloc(p, old, 64);
        assert!(!q.is_null() && !alloc.owns(q), "migrated to System");
        let bytes = std::slice::from_raw_parts(q, 64);
        assert!(bytes.iter().all(|&b| b == 0x6B), "contents preserved");
        assert_eq!(alloc.allocated_bytes(), 0, "the buddy block was released");
        alloc.dealloc(q, Layout::from_size_align(64, 8).unwrap());
    }
}
