//! Differential and concurrency tests of the `nbbs-alloc` facade.
//!
//! The property test drives `allocate`/`allocate_zeroed`/`grow`/`shrink`/
//! `deallocate` with randomized layouts (sizes *and* alignments) and checks
//! the facade against a mirror oracle kept in `System`-allocated `Vec`s:
//! every live block's contents must match its mirror after every step
//! (which catches overlap and realloc corruption in one stroke), every
//! pointer must honour its layout's alignment, and `allocate_zeroed` must
//! actually scrub recycled buddy chunks.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::Arc;

use proptest::prelude::*;

use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_cache::{drain_on_thread_exit, CacheConfig, DrainOnExit, MagazineCache};

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
    /// Grow or shrink the k-th live block to `size` bytes (same alignment).
    Realloc { idx: usize, size: usize },
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
                Op::Realloc { idx, size } => {
                    if live.is_empty() { continue; }
                    let idx = idx % live.len();
                    let block = &mut live[idx];
                    let new_layout =
                        Layout::from_size_align(size, block.layout.align()).unwrap();
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
    let mem = alloc.memory_stats();
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
    // No depot: cached bytes live in slots only and a fully-drained cache
    // reads exactly zero.
    let cache = Arc::new(MagazineCache::with_config(
        NbbsFourLevel::new(config),
        CacheConfig {
            depot_magazines: 0,
            ..CacheConfig::default()
        },
    ));
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
                let expect_in_place = grow_req <= old_granted;
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
