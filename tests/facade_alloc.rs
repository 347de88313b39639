//! Differential and concurrency tests of the `nbbs-alloc` facade.
//!
//! The property test drives `allocate`/`allocate_zeroed`/`grow`/`shrink`/
//! `deallocate` with randomized layouts (sizes *and* alignments) and checks
//! the facade against a mirror oracle kept in `System`-allocated `Vec`s:
//! every live block's contents must match its mirror after every step
//! (which catches overlap and realloc corruption in one stroke), every
//! pointer must honour its layout's alignment, and `allocate_zeroed` must
//! actually scrub recycled buddy chunks.  After every step each live
//! block's layout must also name the block's true granted size — the
//! invariant the facade's sized release rests on.

use std::alloc::{GlobalAlloc, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use nbbs::error::FreeError;
use nbbs::{BuddyBackend, BuddyConfig, Geometry, NbbsFourLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_cache::{drain_on_thread_exit, DrainOnExit, MagazineCache};

const TOTAL: usize = 1 << 20;
const MIN: usize = 16;
const MAX: usize = 1 << 13;

fn facade() -> NbbsAllocator<MagazineCache<NbbsFourLevel>> {
    let config = BuddyConfig::new(TOTAL, MIN, MAX).unwrap();
    NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(config)))
}

/// One step of a generated layout workload.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate `size` bytes at `1 << align_log` alignment; `zeroed` picks
    /// `allocate_zeroed`.
    Alloc {
        size: usize,
        align_log: u32,
        zeroed: bool,
    },
    /// Release the k-th live block (modulo the live count).
    Free(usize),
    /// Grow or shrink the k-th live block to `size` bytes at
    /// `1 << align_log` alignment (raised, kept or lowered).
    Realloc {
        idx: usize,
        size: usize,
        align_log: u32,
    },
    /// One synchronous decommit-scrubber pass over the backing region: free
    /// pages are claimed and released to the kernel mid-workload, so every
    /// later step runs against memory that may have crossed the decommit
    /// boundary.
    Scrub,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..u64::MAX).prop_map(|bits| Op::Alloc {
            size: 1 + (bits % 5000) as usize,
            align_log: ((bits >> 24) % 13) as u32, // 1 B .. 4 KiB
            zeroed: (bits >> 40) & 1 == 1,
        }),
        2 => (0usize..64).prop_map(Op::Free),
        3 => (0u64..u64::MAX).prop_map(|bits| Op::Realloc {
            idx: (bits % 64) as usize,
            size: 1 + ((bits >> 16) % 5000) as usize,
            align_log: ((bits >> 40) % 13) as u32,
        }),
        1 => Just(Op::Scrub),
    ]
}

/// A live facade block plus its `System`-side mirror of expected contents.
struct LiveBlock {
    ptr: NonNull<u8>,
    layout: Layout,
    mirror: Vec<u8>,
}

impl LiveBlock {
    fn contents_match(&self) -> bool {
        let actual = unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.layout.size()) };
        actual == self.mirror.as_slice()
    }
}

/// Deterministic fill pattern for the `n`-th allocation event.
fn fill(block: &mut LiveBlock, seed: usize) {
    for (i, byte) in block.mirror.iter_mut().enumerate() {
        *byte = (seed ^ i).wrapping_mul(0x9E) as u8;
    }
    unsafe {
        std::ptr::copy_nonoverlapping(
            block.mirror.as_ptr(),
            block.ptr.as_ptr(),
            block.mirror.len(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The facade agrees with the System-mirror oracle over arbitrary
    /// allocate/grow/shrink/deallocate sequences.
    #[test]
    fn facade_matches_system_oracle(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let alloc = facade();
        let mut live: Vec<LiveBlock> = Vec::new();
        let mut event = 0usize;
        for op in ops {
            event += 1;
            match op {
                Op::Alloc { size, align_log, zeroed } => {
                    let layout = Layout::from_size_align(size, 1 << align_log).unwrap();
                    let block = if zeroed {
                        alloc.allocate_zeroed(layout)
                    } else {
                        alloc.allocate(layout)
                    };
                    let Ok(block) = block else { continue }; // transient OOM
                    let ptr = block.cast::<u8>();
                    prop_assert!(block.len() >= size, "slice covers the request");
                    prop_assert_eq!(
                        ptr.as_ptr() as usize % layout.align(), 0,
                        "alignment honoured"
                    );
                    if zeroed {
                        let bytes = unsafe {
                            std::slice::from_raw_parts(ptr.as_ptr(), block.len())
                        };
                        prop_assert!(
                            bytes.iter().all(|&b| b == 0),
                            "allocate_zeroed scrubbed a recycled chunk"
                        );
                    }
                    let mut fresh = LiveBlock { ptr, layout, mirror: vec![0u8; size] };
                    fill(&mut fresh, event);
                    live.push(fresh);
                }
                Op::Free(k) => {
                    if live.is_empty() { continue; }
                    let block = live.swap_remove(k % live.len());
                    prop_assert!(block.contents_match(), "contents intact at release");
                    unsafe { alloc.deallocate(block.ptr, block.layout) };
                }
                Op::Realloc { idx, size, align_log } => {
                    if live.is_empty() { continue; }
                    let idx = idx % live.len();
                    let block = &mut live[idx];
                    let new_layout = Layout::from_size_align(size, 1 << align_log).unwrap();
                    let result = unsafe {
                        if size >= block.layout.size() {
                            alloc.grow(block.ptr, block.layout, new_layout)
                        } else {
                            alloc.shrink(block.ptr, block.layout, new_layout)
                        }
                    };
                    let Ok(moved) = result else { continue }; // transient OOM
                    let kept = block.layout.size().min(size);
                    block.ptr = moved.cast::<u8>();
                    block.layout = new_layout;
                    prop_assert_eq!(
                        block.ptr.as_ptr() as usize % new_layout.align(), 0,
                        "alignment preserved across realloc"
                    );
                    // The first `kept` bytes must have survived the move.
                    let survived = unsafe {
                        std::slice::from_raw_parts(block.ptr.as_ptr(), kept)
                    };
                    prop_assert_eq!(
                        survived, &block.mirror[..kept],
                        "contents preserved across grow/shrink"
                    );
                    block.mirror.resize(size, 0);
                    fill(block, event);
                }
                Op::Scrub => {
                    // The scrubber claims free blocks through the ordinary
                    // allocation protocol, so a pulse in the middle of the
                    // workload must never touch a live block's contents —
                    // the cross-check below proves it didn't.
                    alloc.region().scrub_pass();
                }
            }
            // Full cross-check: any overlap between live blocks (or a stray
            // write by the facade) corrupts somebody's pattern.
            for block in &live {
                prop_assert!(block.contents_match(), "no live block was clobbered");
                // The sized release's premise: the layout a block would be
                // freed under names the size the tree holds it at.
                let offset = alloc.region().offset_of(block.ptr).unwrap();
                prop_assert_eq!(
                    alloc.granted_size(block.layout),
                    alloc.backend().granted_size_of_live(offset),
                    "{:?} names the block's class", block.layout
                );
            }
        }
        for block in live.drain(..) {
            prop_assert!(block.contents_match());
            unsafe { alloc.deallocate(block.ptr, block.layout) };
        }
        prop_assert_eq!(alloc.allocated_bytes(), 0, "everything returned");
    }
}

/// Deterministic zero-on-reuse check across the decommit boundary: a dirty
/// block whose pages went through `scrub_pass` (claim → `madvise` →
/// release) must come back zeroed from `allocate_zeroed` and writable from
/// plain `allocate`.
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

    let clean = alloc.allocate_zeroed(layout).unwrap();
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
    /// grow/shrink in-place decisions agree with the decisions the oracle
    /// predicts, including over-aligned layouts.
    #[test]
    fn granted_size_for_matches_geometry_oracle(
        case in (1usize..(MAX * 2), 0u32..14, 1usize..(MAX * 2), 0u32..14)
    ) {
        let (old_size, old_align_log, other_size, new_align_log) = case;

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
        let mut probes = vec![1, MIN - 1, MIN, MIN + 1, MAX - 1, MAX, MAX + 1, old_size, other_size];
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

        // --- 2. grow/shrink in-place decisions match the oracle ----------
        let facade = facade();
        let old_align = 1usize << old_align_log;
        let new_align = 1usize << new_align_log;
        let old_layout = Layout::from_size_align(old_size, old_align).unwrap();
        let old_req = old_size.max(old_align);
        let old_granted = match oracle_granted(old_req, MIN, MAX) {
            Some(granted) => granted,
            None => {
                prop_assert!(facade.allocate(old_layout).is_err());
                return;
            }
        };

        // Grow: new size >= old size, arbitrary (possibly raised) alignment.
        let grow_size = old_size.max(other_size);
        let grow_layout = Layout::from_size_align(grow_size, new_align).unwrap();
        let grow_req = grow_size.max(new_align);
        let block = facade.allocate(old_layout).unwrap().cast::<u8>();
        let before = facade.facade_stats();
        match (unsafe { facade.grow(block, old_layout, grow_layout) }, oracle_granted(grow_req, MIN, MAX)) {
            (Ok(new_block), Some(_)) => {
                let after = facade.facade_stats();
                let expect_in_place = oracle_granted(grow_req, MIN, MAX) == Some(old_granted);
                prop_assert_eq!(
                    after.grows_in_place - before.grows_in_place,
                    expect_in_place as u64,
                    "grow {:?} -> {:?}: oracle says in_place={}",
                    old_layout, grow_layout, expect_in_place
                );
                prop_assert_eq!(
                    after.grows_moved - before.grows_moved,
                    !expect_in_place as u64
                );
                prop_assert_eq!(
                    (new_block.cast::<u8>() == block),
                    expect_in_place,
                    "pointer identity must mirror the in-place decision"
                );
                unsafe { facade.deallocate(new_block.cast::<u8>(), grow_layout) };
            }
            // Oversize grow rejected; the original block stays live per the
            // grow contract, so release it before the shrink phase.
            (Err(_), None) => unsafe { facade.deallocate(block, old_layout) },
            (Ok(_), None) => prop_assert!(false, "grow served a request past max_size"),
            (Err(e), Some(_)) => prop_assert!(false, "servable grow failed: {e:?}"),
        }

        // Shrink: new size <= old size, arbitrary alignment (raising it can
        // force a move even though the size shrinks).
        let shrink_size = old_size.min(other_size);
        let shrink_layout = Layout::from_size_align(shrink_size, new_align).unwrap();
        let shrink_req = shrink_size.max(new_align);
        let block = facade.allocate(old_layout).unwrap().cast::<u8>();
        let before = facade.facade_stats();
        let result = unsafe { facade.shrink(block, old_layout, shrink_layout) };
        let after = facade.facade_stats();
        let shrink_granted = oracle_granted(shrink_req, MIN, MAX).expect("shrink stays in range");
        let must_move = shrink_req > old_granted;
        let expect_in_place = !must_move && shrink_granted == old_granted;
        let new_block = result.unwrap();
        prop_assert_eq!(
            after.shrinks_in_place - before.shrinks_in_place,
            expect_in_place as u64,
            "shrink {:?} -> {:?}: oracle says in_place={}",
            old_layout, shrink_layout, expect_in_place
        );
        prop_assert_eq!(
            after.shrinks_moved - before.shrinks_moved,
            !expect_in_place as u64
        );
        prop_assert_eq!((new_block.cast::<u8>() == block), expect_in_place);
        unsafe { facade.deallocate(new_block.cast::<u8>(), shrink_layout) };
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

/// A shrink into a smaller class whose move cannot be served fails and
/// leaves the block as it was: keeping the larger block under the smaller
/// layout would make the eventual release name the wrong class.  Through
/// `GlobalAlloc::realloc` the block migrates to `System` instead.
#[test]
fn a_foiled_shrink_fails_and_realloc_migrates_to_system() {
    // The one 4 KiB block is the whole arena: no 64-byte class to move to.
    let arena = || {
        NbbsAllocator::new(NbbsFourLevel::new(
            BuddyConfig::new(4096, 64, 4096).unwrap(),
        ))
    };
    let old = Layout::from_size_align(4096, 8).unwrap();
    let new = Layout::from_size_align(64, 8).unwrap();

    let alloc = arena();
    let block = alloc.allocate(old).unwrap().cast::<u8>();
    unsafe {
        block.as_ptr().write_bytes(0x6B, 4096);
        assert!(alloc.shrink(block, old, new).is_err());
        let bytes = std::slice::from_raw_parts(block.as_ptr(), 4096);
        assert!(bytes.iter().all(|&b| b == 0x6B), "the block is intact");
        assert_eq!(alloc.allocated_bytes(), 4096);
        alloc.deallocate(block, old);
    }
    assert_eq!(alloc.allocated_bytes(), 0);

    let alloc = arena();
    unsafe {
        let p = alloc.alloc(old);
        assert!(alloc.owns(p));
        p.write_bytes(0x6B, 4096);
        let q = alloc.realloc(p, old, 64);
        assert!(!q.is_null() && !alloc.owns(q), "migrated to System");
        let bytes = std::slice::from_raw_parts(q, 64);
        assert!(bytes.iter().all(|&b| b == 0x6B), "contents preserved");
        assert_eq!(alloc.allocated_bytes(), 0, "the buddy block was released");
        alloc.dealloc(q, new);
    }
}

/// The odometer is striped per thread and stays exact: with more threads
/// than four times the stripes, most threads find their stripe held by
/// another live thread and book on that stripe's shared line, and the sums
/// still come out to the byte.  Then the threads exit and a second wave
/// replaces them: a bare facade has no exit hook, so every stripe stays
/// claimed by a dead thread and the whole wave books on the shared lines —
/// still exact after the joins.
#[test]
fn the_striped_odometer_is_exact_when_every_stripe_is_shared() {
    let sizes: Vec<usize> = (0..300usize).map(|i| (i * 53) % 4000).collect();
    let threads = 4 * nbbs_sync::default_stripes() + 1;
    const WAVES: usize = 2;
    let alloc = Arc::new(facade());
    for _ in 0..WAVES {
        let start = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let alloc = Arc::clone(&alloc);
                let start = Arc::clone(&start);
                let sizes = sizes.clone();
                std::thread::spawn(move || {
                    start.wait();
                    for size in sizes {
                        let layout = Layout::from_size_align(size, 8).unwrap();
                        let block = alloc.allocate(layout).unwrap();
                        unsafe { alloc.deallocate(block.cast(), layout) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
    let requested: usize = sizes.iter().map(|&size| size.max(1)).sum();
    let granted: usize = sizes
        .iter()
        .map(|&size| oracle_granted(size.max(8), MIN, MAX).unwrap())
        .sum();
    let stats = alloc.facade_stats();
    assert_eq!(stats.requested_bytes, (WAVES * threads * requested) as u64);
    assert_eq!(stats.granted_bytes, (WAVES * threads * granted) as u64);
    assert_eq!(alloc.allocated_bytes(), 0);
}
