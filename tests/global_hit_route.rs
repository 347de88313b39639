//! The global shell's one route: every call `NbbsGlobalAlloc` serves from
//! the buddy resolves its class and goes to the calling thread's cache
//! slot, a hit staying there and a miss going on to the depot and a refill.
//! These tests pin down that the route books exactly what it serves — the
//! requested and granted bytes, the realloc split, the cache's hit/miss
//! tallies, the region's committed pages — that a recording build takes
//! the same route and records every call, and that the sized-free audit
//! runs on it — and walk a local shell against the shared System mirror
//! (`tests/common`).

mod common;

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use proptest::prelude::*;

use common::Front;
use nbbs_alloc::NbbsGlobalAlloc;
use nbbs_obs::OpKind;

/// The shipped allocation unit and largest block, over a smaller span
/// (room for three threads' churns at once).
const TOTAL: usize = 32 << 20;
const UNIT: usize = 32;
const LARGEST: usize = 64 << 10;

/// Serializes the first touches: the stack reads the `NBBS_*` environment
/// once, when the first allocation builds it.
static ENV: Mutex<()> = Mutex::new(());

/// A shell whose stack was built under exactly `vars` of the `NBBS_*`
/// environment (one byte allocated and freed to build it).
fn built_under(vars: &[(&str, &str)]) -> NbbsGlobalAlloc {
    let a = NbbsGlobalAlloc::new(TOTAL, UNIT, LARGEST);
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    for key in ["NBBS_OBS", "NBBS_TRACE", "NBBS_PROFILE", "NBBS_SCRUB"] {
        std::env::remove_var(key);
    }
    for (key, value) in vars {
        std::env::set_var(key, value);
    }
    let byte = Layout::new::<u8>();
    // SAFETY: the block is freed under the layout it was allocated with.
    unsafe {
        let p = a.alloc(byte);
        assert!(a.owns(p));
        a.dealloc(p, byte);
    }
    for (key, _) in vars {
        std::env::remove_var(key);
    }
    a
}

/// A shell built with nothing armed.
fn unarmed() -> NbbsGlobalAlloc {
    built_under(&[])
}

impl Front for NbbsGlobalAlloc {
    fn night(&self) {
        self.scrub_pass();
    }
    fn live_bytes(&self) -> Option<usize> {
        Some(self.buddy_allocated_bytes())
    }
    /// Once the magazines are drained nothing is live, and once a scrub
    /// pass ran nothing of the span stays committed.
    fn audit(&self) {
        self.drain_cache();
        assert_eq!(self.buddy_allocated_bytes(), 0);
        self.scrub_pass();
        assert_eq!(self.metrics().memory.unwrap().committed_bytes, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shipped shell agrees with the System mirror, on its inlined hit
    /// and park and its cold paths alike; one allocation in five may
    /// exceed the largest class and go to `System`.
    #[test]
    fn the_shell_matches_system_oracle(
        ops in common::ops(
            1..150,
            prop_oneof![4 => common::layouts(5000, 12), 1 => common::layouts(2 * LARGEST, 12)],
            5000,
        )
    ) {
        common::walk(&unarmed(), ops);
    }
}

/// What one churn asked for, summed over its calls.
#[derive(Debug, Default, PartialEq)]
struct Asked {
    allocations: u64,
    requested: u64,
    granted: u64,
}

/// Allocates 40 blocks of each class of the ladder, in layouts that round
/// into the class from below, exactly and by alignment, then frees them
/// all; three rounds, so later rounds hit what earlier ones parked and
/// full magazines rotate into the depot.
fn churn_every_class(a: &NbbsGlobalAlloc) -> Asked {
    let mut asked = Asked::default();
    for _round in 0..3 {
        let mut class = UNIT;
        while class <= LARGEST {
            let layouts = [
                Layout::from_size_align(class / 2 + 1, 8).unwrap(),
                Layout::from_size_align(class - 1, 1).unwrap(),
                Layout::from_size_align(class, 16).unwrap(),
                Layout::from_size_align(UNIT / 4, class).unwrap(),
            ];
            let mut live = Vec::new();
            for i in 0..40 {
                let layout = layouts[i % layouts.len()];
                // SAFETY: a non-zero layout; freed below under it.
                let p = unsafe { a.alloc(layout) };
                assert!(a.owns(p), "{layout:?} was served by the buddy");
                assert_eq!(p as usize % layout.align(), 0, "{layout:?}");
                // SAFETY: the block holds at least `layout.size()` bytes.
                unsafe { p.write_bytes(0x5A, layout.size()) };
                asked.allocations += 1;
                asked.requested += layout.size() as u64;
                asked.granted += class as u64;
                live.push((p, layout));
            }
            for (p, layout) in live {
                // SAFETY: allocated above under `layout`, freed once.
                unsafe { a.dealloc(p, layout) };
            }
            class *= 2;
        }
    }
    asked
}

/// The served bytes and the cache tallies, read together.
fn counts(a: &NbbsGlobalAlloc) -> (Asked, u64) {
    let metrics = a.metrics();
    let served = metrics.shell.expect("the shell reports its shares");
    let cache = metrics.cache.expect("the shell has a cache");
    let asked = Asked {
        allocations: cache.hits + cache.misses,
        requested: served.requested_bytes,
        granted: served.granted_bytes,
    };
    (asked, cache.hits)
}

#[test]
fn hits_keep_the_odometer_and_the_cache_tallies_exact() {
    let a = unarmed();
    let (before, hits_before) = counts(&a);
    let asked = churn_every_class(&a);
    let (after, hits_after) = counts(&a);
    let counted = Asked {
        allocations: after.allocations - before.allocations,
        requested: after.requested - before.requested,
        granted: after.granted - before.granted,
    };
    assert_eq!(counted, asked, "hits + misses, requested and granted bytes");
    assert!(
        hits_after - hits_before > asked.allocations / 2,
        "most of the churn hits the magazines"
    );
    a.drain_cache();
    assert!(
        a.cache_stats().unwrap().drained > 0,
        "the magazines held chunks"
    );
    assert_eq!(a.buddy_allocated_bytes(), 0, "nothing is live");
}

#[test]
fn threads_hitting_beside_a_reader_keep_the_counts_exact() {
    const THREADS: usize = 3;
    let a = unarmed();
    let (before, _) = counts(&a);
    let stop = AtomicBool::new(false);
    let churned = std::thread::scope(|s| {
        // A remote read-out revokes every owner mid-churn.
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let _ = a.cache_stats();
            }
        });
        let churners: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| churn_every_class(&a)))
            .collect();
        // An explicit join waits for each thread's exit drain.
        let churned: Vec<_> = churners.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Release);
        churned
    });
    let asked: Vec<Asked> = churned.into_iter().map(Result::unwrap).collect();
    let (after, _) = counts(&a);
    let sum = |f: fn(&Asked) -> u64| asked.iter().map(f).sum::<u64>();
    assert_eq!(
        Asked {
            allocations: after.allocations - before.allocations,
            requested: after.requested - before.requested,
            granted: after.granted - before.granted,
        },
        Asked {
            allocations: sum(|a| a.allocations),
            requested: sum(|a| a.requested),
            granted: sum(|a| a.granted),
        }
    );
    a.drain_cache();
    assert_eq!(a.buddy_allocated_bytes(), 0);
}

#[test]
fn a_refill_commits_the_pages_of_a_scrubbed_block_again() {
    let a = unarmed();
    let page = nbbs::mapping::page_size();
    let block = Layout::from_size_align(page, 8).unwrap();
    let committed = |a: &NbbsGlobalAlloc| a.metrics().memory.unwrap().committed_bytes;
    // Two blocks written and freed, then given back to the kernel.
    // SAFETY: each block is freed once under the layout it came with.
    unsafe {
        let (p, q) = (a.alloc(block), a.alloc(block));
        p.write_bytes(1, page);
        q.write_bytes(1, page);
        a.dealloc(p, block);
        a.dealloc(q, block);
    }
    a.drain_cache();
    assert!(a.scrub_pass() >= 2 * page, "both blocks decommitted");
    assert_eq!(committed(&a), 0);
    // A miss refills the magazine from the scrubbed tree: the region
    // commits every block the tree grants it.  A hit then serves one of
    // them and commits nothing more.
    let before = a.cache_stats().unwrap();
    // SAFETY: as above.
    unsafe {
        let p = a.alloc(block);
        let refill = a.cache_stats().unwrap();
        assert_eq!(refill.misses, before.misses + 1, "the first is a miss");
        let taken = 1 + refill.refilled - before.refilled;
        assert!(taken > 1, "the miss refilled the magazines");
        assert_eq!(committed(&a), taken * page as u64, "the refill");
        let q = a.alloc(block);
        assert_eq!(
            a.cache_stats().unwrap().hits,
            refill.hits + 1,
            "the second is a hit"
        );
        assert_eq!(committed(&a), taken * page as u64, "the hit");
        p.write_bytes(2, page);
        q.write_bytes(2, page);
        a.dealloc(p, block);
        a.dealloc(q, block);
    }
}

#[test]
fn a_recording_build_records_every_call() {
    let a = built_under(&[("NBBS_OBS", "1")]);
    let events = |a: &NbbsGlobalAlloc, kind| {
        a.metrics()
            .latency_of(kind)
            .map_or(0, |latency| latency.count)
    };
    let (allocs, frees) = (events(&a, OpKind::Alloc), events(&a, OpKind::Free));
    let (before, hits_before) = counts(&a);
    let asked = churn_every_class(&a);
    let (after, hits_after) = counts(&a);
    assert!(hits_after > hits_before, "an armed build hits the slot");
    assert_eq!(after.allocations - before.allocations, asked.allocations);
    assert_eq!(events(&a, OpKind::Alloc) - allocs, asked.allocations);
    assert_eq!(events(&a, OpKind::Free) - frees, asked.allocations);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "names the wrong class")]
fn a_free_under_another_class_fails_the_audit_on_the_hit_route() {
    let a = unarmed();
    let granted = Layout::from_size_align(256, 8).unwrap();
    let wrong = Layout::from_size_align(64, 8).unwrap();
    // SAFETY: deliberately breaks `dealloc`'s contract; the audit refuses
    // it before the block is filed anywhere.
    unsafe {
        let p = a.alloc(granted);
        a.dealloc(p, wrong);
    }
}

/// The realloc split and requested bytes, read together.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Resized {
    grows_in_place: u64,
    grows_moved: u64,
    shrinks_in_place: u64,
    shrinks_moved: u64,
    requested: u64,
}

fn resized(a: &NbbsGlobalAlloc) -> Resized {
    let served = a.metrics().shell.expect("the shell reports its shares");
    Resized {
        grows_in_place: served.grows_in_place,
        grows_moved: served.grows_moved,
        shrinks_in_place: served.shrinks_in_place,
        shrinks_moved: served.shrinks_moved,
        requested: served.requested_bytes,
    }
}

impl std::ops::Sub for Resized {
    type Output = Resized;
    fn sub(self, before: Resized) -> Resized {
        Resized {
            grows_in_place: self.grows_in_place - before.grows_in_place,
            grows_moved: self.grows_moved - before.grows_moved,
            shrinks_in_place: self.shrinks_in_place - before.shrinks_in_place,
            shrinks_moved: self.shrinks_moved - before.shrinks_moved,
            requested: self.requested - before.requested,
        }
    }
}

/// Byte `i` of a block written by [`fill`].
fn pattern(i: usize) -> u8 {
    (i % 251) as u8
}

/// Writes [`pattern`] over the first `len` bytes at `p`.
///
/// # Safety
///
/// `p` holds at least `len` writable bytes.
unsafe fn fill(p: *mut u8, len: usize) {
    for i in 0..len {
        p.add(i).write(pattern(i));
    }
}

/// Whether the first `len` bytes at `p` still read [`pattern`].
///
/// # Safety
///
/// `p` holds at least `len` readable bytes.
unsafe fn holds_pattern(p: *const u8, len: usize) -> bool {
    (0..len).all(|i| *p.add(i) == pattern(i))
}

/// Reallocs `p` (live under `layout`) to `new_size`, checks the pattern
/// survived the call, and books what the call should count in `expect`:
/// in place when the two sizes name the same class, moved otherwise, the
/// requested bytes at the new size only when it moved.
///
/// # Safety
///
/// `p` is live under `layout` and holds the pattern over `layout.size()`.
unsafe fn realloc_checked(
    a: &NbbsGlobalAlloc,
    p: *mut u8,
    layout: Layout,
    new_size: usize,
    expect: &mut Resized,
) -> (*mut u8, Layout) {
    let class = |size: usize| size.max(layout.align()).next_power_of_two().max(UNIT);
    let same = class(layout.size()) == class(new_size);
    let grew = new_size >= layout.size();
    let q = a.realloc(p, layout, new_size);
    assert!(a.owns(q), "{layout:?} -> {new_size} stayed in the buddy");
    assert_eq!(q as usize % layout.align(), 0);
    assert_eq!(
        q == p,
        same,
        "{layout:?} -> {new_size}: in place iff same class"
    );
    assert!(
        holds_pattern(q, layout.size().min(new_size)),
        "{layout:?} -> {new_size}: contents"
    );
    match (grew, same) {
        (true, true) => expect.grows_in_place += 1,
        (true, false) => expect.grows_moved += 1,
        (false, true) => expect.shrinks_in_place += 1,
        (false, false) => expect.shrinks_moved += 1,
    }
    if !same {
        expect.requested += new_size as u64;
    }
    let new_layout = Layout::from_size_align(new_size, layout.align()).unwrap();
    fill(q, new_size);
    (q, new_layout)
}

#[test]
fn reallocs_across_every_class_boundary_keep_contents_and_count_exactly() {
    let a = unarmed();
    for align in [8, 64] {
        // Load every class's magazines, so the moves below are hits.
        churn_every_class(&a);
        let misses = a.cache_stats().unwrap().misses;
        let before = resized(&a);
        let mut expect = Resized::default();
        let layout = Layout::from_size_align(1, align).unwrap();
        // SAFETY: every block is live under the layout it is passed with,
        // and the last one is freed under its own.
        unsafe {
            let p = a.alloc(layout);
            fill(p, 1);
            expect.requested += 1;
            let (mut p, mut layout) = (p, layout);
            // Up across every boundary: the top of a class, then one past it.
            let mut class = UNIT;
            while class < LARGEST {
                for size in [class - 1, class, class + 1] {
                    (p, layout) = realloc_checked(&a, p, layout, size, &mut expect);
                }
                class *= 2;
            }
            (p, layout) = realloc_checked(&a, p, layout, LARGEST, &mut expect);
            // And back down, shrinking within a class and then out of it.
            while class > UNIT {
                for size in [class / 2 + 1, class / 2] {
                    (p, layout) = realloc_checked(&a, p, layout, size, &mut expect);
                }
                class /= 2;
            }
            a.dealloc(p, layout);
        }
        assert_eq!(resized(&a) - before, expect, "align {align}");
        assert_eq!(
            a.cache_stats().unwrap().misses,
            misses,
            "every move was a magazine hit"
        );
    }
    a.drain_cache();
    assert_eq!(a.buddy_allocated_bytes(), 0, "nothing is live");
}

#[test]
fn a_realloc_into_empty_magazines_refills_and_succeeds() {
    let a = unarmed();
    let small = Layout::from_size_align(100, 8).unwrap();
    let big = 4 << 10;
    // SAFETY: each block is live under the layout it is passed with.
    unsafe {
        let p = a.alloc(small);
        fill(p, small.size());
        // Nothing of 4 KiB was ever allocated: its magazines are empty.
        let misses = a.cache_stats().unwrap().misses;
        let before = resized(&a);
        let mut expect = Resized {
            grows_moved: 1,
            requested: big as u64,
            ..Resized::default()
        };
        let (q, layout) = realloc_checked(&a, p, small, big, &mut Resized::default());
        assert_eq!(a.cache_stats().unwrap().misses, misses + 1, "a refill");
        assert_eq!(resized(&a) - before, expect, "counted once, as moved");
        // The refill loaded the class: the next move into it is a hit.
        let hits = a.cache_stats().unwrap().hits;
        let r = a.alloc(small);
        let (s, layout_s) = realloc_checked(&a, r, small, big, &mut expect);
        assert_eq!(a.cache_stats().unwrap().hits, hits + 2);
        a.dealloc(q, layout);
        a.dealloc(s, layout_s);
    }
}

#[test]
fn over_aligned_layouts_keep_their_alignment_through_realloc() {
    let a = unarmed();
    // SAFETY: each block is live under the layout it is passed with.
    unsafe {
        // Within the classes: the class's blocks are aligned to their size.
        let page = Layout::from_size_align(8, 4096).unwrap();
        let mut expect = Resized::default();
        let before = resized(&a);
        let p = a.alloc(page);
        fill(p, page.size());
        expect.requested += 8;
        let (p, page) = realloc_checked(&a, p, page, 4096, &mut expect);
        let (p, page) = realloc_checked(&a, p, page, 5000, &mut expect);
        let (p, page) = realloc_checked(&a, p, page, 16, &mut expect);
        a.dealloc(p, page);
        assert_eq!(resized(&a) - before, expect);
        // Past the largest class: the shell sends it to `System`, and
        // nothing is counted.
        let huge = Layout::from_size_align(64, 2 * LARGEST).unwrap();
        let before = resized(&a);
        let p = a.alloc(huge);
        assert!(!a.owns(p));
        fill(p, 64);
        let q = a.realloc(p, huge, 128);
        assert!(!a.owns(q) && (q as usize).is_multiple_of(huge.align()));
        assert!(holds_pattern(q, 64));
        a.dealloc(q, Layout::from_size_align(128, huge.align()).unwrap());
        let counted = resized(&a) - before;
        assert_eq!(
            (
                counted.grows_in_place,
                counted.grows_moved,
                counted.requested
            ),
            (0, 0, 0)
        );
    }
}

#[test]
fn a_recording_build_records_every_realloc() {
    let a = built_under(&[("NBBS_OBS", "1")]);
    let events = |a: &NbbsGlobalAlloc, kind| {
        a.metrics()
            .latency_of(kind)
            .map_or(0, |latency| latency.count)
    };
    churn_every_class(&a);
    let (grows, shrinks) = (events(&a, OpKind::Grow), events(&a, OpKind::Shrink));
    let hits = a.cache_stats().unwrap().hits;
    let before = resized(&a);
    let mut expect = Resized::default();
    let layout = Layout::from_size_align(40, 8).unwrap();
    // SAFETY: each block is live under the layout it is passed with.
    unsafe {
        let p = a.alloc(layout);
        fill(p, layout.size());
        expect.requested += 40;
        let (p, layout) = realloc_checked(&a, p, layout, 60, &mut expect); // grow in place
        let (p, layout) = realloc_checked(&a, p, layout, 3000, &mut expect); // grow, moved
        let (p, layout) = realloc_checked(&a, p, layout, 2500, &mut expect); // shrink in place
        let (p, layout) = realloc_checked(&a, p, layout, 33, &mut expect); // shrink, moved
        a.dealloc(p, layout);
    }
    assert_eq!(events(&a, OpKind::Grow) - grows, 2);
    assert_eq!(events(&a, OpKind::Shrink) - shrinks, 2);
    assert_eq!(resized(&a) - before, expect);
    assert!(
        a.cache_stats().unwrap().hits >= hits + 3,
        "the allocation and both moves hit the slot"
    );
}
