//! Failure-path and edge-case integration tests: exhaustion, oversized and
//! invalid requests, invalid frees, recovery after out-of-memory, a failed
//! grant under the magazine cache, and multi-node fallback behaviour.

use std::alloc::{GlobalAlloc, Layout};
use std::ptr::NonNull;

use proptest::prelude::*;

use nbbs::error::{AllocError, FreeError};
use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_cache::{verify_cached_empty, MagazineCache};
use nbbs_chaos::{FaultInjecting, FaultPlan};
use nbbs_numa::{NodePolicy, NodeSet, Topology};
use nbbs_workloads::factory::{build, AllocatorKind};
use nbbs_workloads::rng::SplitMix64;

fn config_for(kind: AllocatorKind, total: usize) -> BuddyConfig {
    if kind == AllocatorKind::LinuxBuddy {
        BuddyConfig::new(total.max(1 << 16), 4096, 1 << 16).unwrap()
    } else {
        BuddyConfig::new(total, 8, total.min(1 << 14)).unwrap()
    }
}

#[test]
fn oversized_requests_fail_cleanly_everywhere() {
    for &kind in AllocatorKind::all() {
        let alloc = build(kind, config_for(kind, 1 << 16));
        let max = alloc.max_size();
        assert_eq!(alloc.alloc(max + 1), None, "{}", alloc.name());
        assert!(matches!(
            alloc.try_alloc(max * 2),
            Err(AllocError::TooLarge { .. })
        ));
        assert_eq!(alloc.allocated_bytes(), 0);
        // The failed attempts must not have perturbed the allocator.
        let ok = alloc.alloc(max).unwrap();
        alloc.dealloc(ok);
    }
}

#[test]
fn exhaustion_reports_oom_and_recovers_everywhere() {
    for &kind in AllocatorKind::all() {
        let alloc = build(kind, config_for(kind, 1 << 16));
        let unit = alloc.min_size();
        let mut held = Vec::new();
        while let Some(off) = alloc.alloc(unit) {
            held.push(off);
            assert!(
                held.len() <= alloc.total_memory() / unit,
                "{} over-allocated",
                alloc.name()
            );
        }
        assert_eq!(
            held.len(),
            alloc.total_memory() / unit,
            "{} under-utilized its region",
            alloc.name()
        );
        assert!(matches!(
            alloc.try_alloc(unit),
            Err(AllocError::OutOfMemory { .. })
        ));
        // Free half, in a scattered order, and verify proportional recovery.
        let mut rng = SplitMix64::new(3);
        for _ in 0..held.len() / 2 {
            let off = held.swap_remove(rng.next_below(held.len()));
            alloc.dealloc(off);
        }
        let mut reacquired = Vec::new();
        for _ in 0..alloc.total_memory() / unit / 2 {
            reacquired.push(
                alloc
                    .alloc(unit)
                    .unwrap_or_else(|| panic!("{}: failed to reuse freed capacity", alloc.name())),
            );
        }
        for off in held.into_iter().chain(reacquired) {
            alloc.dealloc(off);
        }
        assert_eq!(alloc.allocated_bytes(), 0);
    }
}

#[test]
fn invalid_frees_are_rejected_without_corruption() {
    for &kind in AllocatorKind::all() {
        let alloc = build(kind, config_for(kind, 1 << 16));
        let unit = alloc.min_size();
        assert!(matches!(
            alloc.try_dealloc(alloc.total_memory() + unit),
            Err(FreeError::OutOfRange { .. })
        ));
        assert!(matches!(
            alloc.try_dealloc(unit / 2 + 1),
            Err(FreeError::Misaligned { .. })
        ));
        // A valid-looking offset that was never allocated.
        assert!(
            matches!(alloc.try_dealloc(unit), Err(FreeError::NotAllocated { .. })),
            "{}",
            alloc.name()
        );
        // The allocator still works normally afterwards.
        let off = alloc.alloc(unit).unwrap();
        assert!(alloc.try_dealloc(off).is_ok());
        assert!(matches!(
            alloc.try_dealloc(off),
            Err(FreeError::NotAllocated { .. })
        ));
        assert_eq!(alloc.allocated_bytes(), 0);
    }
}

#[test]
fn a_failed_grant_under_the_cache_fails_the_miss_once() {
    // Every gated allocation fails: the cold miss asks the backend once,
    // gets nothing, and hands the failure up without asking again.
    let plan = FaultPlan {
        fail_every_nth: 1,
        ..FaultPlan::inert(0x5EED)
    };
    let cache = MagazineCache::new(FaultInjecting::new(
        NbbsFourLevel::new(BuddyConfig::new(1 << 16, 64, 1 << 12).unwrap()),
        plan,
    ));
    assert_eq!(cache.alloc(64), None);
    assert_eq!(
        cache.backend().fault_stats().injected_failures,
        1,
        "one backend call per miss"
    );
    assert_eq!(cache.allocated_bytes(), 0);

    // The failure left nothing behind: once the faults stop, the same
    // request is served and the stack drains back to an empty tree.
    cache.backend().disarm();
    let off = cache.alloc(64).expect("a calm backend serves the miss");
    cache.dealloc(off);
    cache.drain_all();
    verify_cached_empty(&cache).assert_clean();
}

#[test]
fn fragmentation_induced_oom_is_temporary_not_permanent() {
    // Allocate every leaf, free every other leaf: half the memory is free but
    // a max-size request cannot be served (external fragmentation).  Freeing
    // the other half must restore full capacity (coalescing).
    for kind in [
        AllocatorKind::OneLevelNb,
        AllocatorKind::FourLevelNb,
        AllocatorKind::BuddySl,
    ] {
        let alloc = build(kind, BuddyConfig::new(1 << 12, 8, 1 << 12).unwrap());
        let leaves: Vec<usize> = (0..(1 << 12) / 8)
            .map(|_| alloc.alloc(8).unwrap())
            .collect();
        // Partition by *address* parity so that every buddy pair keeps exactly
        // one live unit (the scattered scan makes allocation order arbitrary).
        let (even, odd): (Vec<usize>, Vec<usize>) =
            leaves.into_iter().partition(|off| (off / 8) % 2 == 0);
        for &off in &even {
            alloc.dealloc(off);
        }
        assert_eq!(alloc.allocated_bytes(), (1 << 12) / 2);
        assert_eq!(
            alloc.alloc(1 << 12),
            None,
            "{}: fragmented region served a maximal chunk",
            alloc.name()
        );
        assert_eq!(
            alloc.alloc(16),
            None,
            "{}: no two adjacent free units exist",
            alloc.name()
        );
        for &off in &odd {
            alloc.dealloc(off);
        }
        let whole = alloc.alloc(1 << 12);
        assert!(
            whole.is_some(),
            "{}: coalescing failed after drain",
            alloc.name()
        );
        alloc.dealloc(whole.unwrap());
    }
}

#[test]
fn zero_sized_and_tiny_requests_round_up_to_the_unit() {
    for kind in [AllocatorKind::OneLevelNb, AllocatorKind::FourLevelNb] {
        let alloc = build(kind, BuddyConfig::new(1 << 12, 64, 1 << 12).unwrap());
        let a = alloc.alloc(0).expect("zero-sized requests round up");
        let b = alloc.alloc(1).unwrap();
        let c = alloc.alloc(63).unwrap();
        assert_eq!(alloc.allocated_bytes(), 3 * 64);
        for off in [a, b, c] {
            alloc.dealloc(off);
        }
        assert_eq!(alloc.allocated_bytes(), 0);
    }
}

#[test]
fn exhaustion_surfaces_oom_through_the_cached_facade_and_recovers() {
    // The production stack: Layout-aware facade over the magazine cache
    // over the 4-level tree.  Exhaustion must surface as a typed hard OOM
    // (not a panic, not a wedged cache), oversize as TooLarge, and freeing
    // everything must restore the full region — including the chunks that
    // were parked in magazines along the way.
    const TOTAL: usize = 1 << 16;
    const UNIT: usize = 64;
    let cfg = BuddyConfig::new(TOTAL, UNIT, 1 << 14).unwrap();
    let alloc = NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(cfg)));
    let layout = Layout::from_size_align(UNIT, UNIT).unwrap();

    let mut held: Vec<NonNull<u8>> = Vec::new();
    while let Ok(block) = alloc.allocate(layout) {
        held.push(block.cast());
        assert!(held.len() <= TOTAL / UNIT, "cached facade over-allocated");
    }
    // Magazines cannot hide capacity from a persistent caller: every unit
    // ends up served before the facade reports OOM.
    assert_eq!(held.len(), TOTAL / UNIT, "cached facade under-utilized");
    assert!(matches!(
        alloc.allocate(layout),
        Err(AllocError::OutOfMemory { .. })
    ));
    assert!(matches!(
        alloc.allocate(Layout::from_size_align(1 << 15, 8).unwrap()),
        Err(AllocError::TooLarge { .. })
    ));

    // Scattered half-free, then proportional reuse through the cache.
    let mut rng = SplitMix64::new(17);
    for _ in 0..held.len() / 2 {
        let ptr = held.swap_remove(rng.next_below(held.len()));
        unsafe { alloc.deallocate(ptr, layout) };
    }
    let mut reacquired = Vec::new();
    for _ in 0..TOTAL / UNIT / 2 {
        reacquired.push(
            alloc
                .allocate(layout)
                .expect("freed capacity must be reusable through the cache")
                .cast::<u8>(),
        );
    }
    for ptr in held.into_iter().chain(reacquired) {
        unsafe { alloc.deallocate(ptr, layout) };
    }
    assert_eq!(alloc.allocated_bytes(), 0);

    // Full recovery: drain the magazines and the whole region coalesces.
    alloc.backend().drain_cache();
    let whole = alloc
        .allocate(Layout::from_size_align(1 << 14, 8).unwrap())
        .expect("drained region must serve a max-class block");
    unsafe { alloc.deallocate(whole.cast(), Layout::from_size_align(1 << 14, 8).unwrap()) };
}

#[test]
fn exhaustion_surfaces_oom_through_the_nodeset_and_recovers() {
    // Multi-node deployment: exhausting every node must report OOM (after
    // remote fallback has genuinely tried them all, and never a grant out
    // of the phantom slot three nodes widen to), oversize must be
    // TooLarge, and scattered frees must restore capacity on every node.
    const PER_NODE: usize = 1 << 14;
    const UNIT: usize = 64;
    let per = BuddyConfig::new(PER_NODE, UNIT, 1 << 12).unwrap();
    let set = NodeSet::with_topology(
        (0..3).map(|_| NbbsFourLevel::new(per)).collect(),
        Topology::synthetic(3),
        NodePolicy::HomeFirst,
    );
    let mut held = Vec::new();
    while let Some(off) = set.alloc(UNIT) {
        held.push(off);
        assert!(
            held.len() <= set.total_memory() / UNIT,
            "NodeSet over-allocated"
        );
    }
    assert_eq!(
        held.len(),
        set.total_memory() / UNIT,
        "remote fallback left capacity stranded on a node"
    );
    assert!(matches!(
        set.try_alloc(UNIT),
        Err(AllocError::OutOfMemory { .. })
    ));
    assert!(matches!(
        set.try_alloc(set.max_size() * 2),
        Err(AllocError::TooLarge { .. })
    ));

    let mut rng = SplitMix64::new(23);
    for _ in 0..held.len() / 2 {
        let off = held.swap_remove(rng.next_below(held.len()));
        set.dealloc(off);
    }
    for _ in 0..set.total_memory() / UNIT / 2 {
        held.push(
            set.alloc(UNIT)
                .expect("freed capacity must be reusable across nodes"),
        );
    }
    for off in held {
        set.dealloc(off);
    }
    assert_eq!(set.allocated_bytes(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dirty-reuse property: `GlobalAlloc::alloc_zeroed` must always hand
    /// back all-zero memory even when the chunk it reuses was just
    /// scribbled on and round-tripped through a magazine (the cache returns
    /// recycled chunks without touching the backing bytes — zeroing is the
    /// front end's job).
    #[test]
    fn allocate_zeroed_never_leaks_dirty_bytes(ops in collection::vec((1usize..=2048, 0usize..=2), 1..200)) {
        let cfg = BuddyConfig::new(1 << 16, 64, 1 << 14).unwrap();
        let alloc = NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(cfg)));
        let mut live: Vec<(*mut u8, Layout)> = Vec::new();
        for (size, action) in ops {
            if action == 2 || live.len() > 24 {
                if live.is_empty() {
                    continue;
                }
                let (ptr, layout) = live.swap_remove(size % live.len());
                unsafe { alloc.dealloc(ptr, layout) };
                continue;
            }
            let layout = Layout::from_size_align(size, 8).unwrap();
            let ptr = unsafe {
                if action == 1 {
                    alloc.alloc_zeroed(layout)
                } else {
                    alloc.alloc(layout)
                }
            };
            prop_assert!(!ptr.is_null(), "the buddy or System serves it");
            if action == 1 {
                for i in 0..size {
                    let byte = unsafe { ptr.add(i).read() };
                    prop_assert_eq!(byte, 0, "dirty byte at offset {} of a zeroed {}-byte block", i, size);
                }
            }
            // Scribble over the whole block so any future reuse of this
            // chunk starts from maximally dirty bytes.
            unsafe { std::ptr::write_bytes(ptr, 0xAA, size) };
            live.push((ptr, layout));
        }
        for (ptr, layout) in live {
            unsafe { alloc.dealloc(ptr, layout) };
        }
        prop_assert_eq!(alloc.allocated_bytes(), 0);
    }
}

#[test]
fn four_level_and_one_level_survive_pathological_interleaving() {
    // Alternate parent/child-order allocations designed to maximize climb
    // conflicts and rollbacks (TRYALLOC abort path, lines T11–T13).
    for kind in [AllocatorKind::OneLevelNb, AllocatorKind::FourLevelNb] {
        let alloc = build(kind, BuddyConfig::new(1 << 12, 8, 1 << 12).unwrap());
        let mut rng = SplitMix64::new(11);
        for _ in 0..2_000 {
            let big = alloc.alloc(1 << 11);
            let mut smalls = Vec::new();
            for _ in 0..rng.next_below(8) {
                if let Some(off) = alloc.alloc(8 << rng.next_below(4)) {
                    smalls.push(off);
                }
            }
            // Freeing order alternates to exercise both coalescing directions.
            if rng.next_u64() & 1 == 0 {
                if let Some(off) = big {
                    alloc.dealloc(off);
                }
                for off in smalls {
                    alloc.dealloc(off);
                }
            } else {
                for off in smalls {
                    alloc.dealloc(off);
                }
                if let Some(off) = big {
                    alloc.dealloc(off);
                }
            }
        }
        assert_eq!(alloc.allocated_bytes(), 0);
        let whole = alloc
            .alloc(1 << 12)
            .expect("full capacity must be restored");
        alloc.dealloc(whole);
    }
}
