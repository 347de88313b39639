//! The global shell's magazine hit route: a request whose class has a
//! chunk in the calling thread's magazines goes from `NbbsGlobalAlloc`
//! straight to the thread's cache slot, past the facade.  These tests pin
//! down that the shortcut books everything the facade's route books — the
//! odometer, the cache's hit/miss tallies, the region's committed pages —
//! that a recording build still takes the facade's route, and that the
//! sized-free audit still runs on it.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

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

/// A shell built with nothing armed: its hits take the shortcut.
fn unarmed() -> NbbsGlobalAlloc {
    built_under(&[])
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

/// The odometer and the cache tallies, read together.
fn counts(a: &NbbsGlobalAlloc) -> (Asked, u64) {
    let metrics = a.metrics();
    let facade = metrics.facade.expect("the shell has a facade");
    let cache = metrics.cache.expect("the shell has a cache");
    let asked = Asked {
        allocations: cache.hits + cache.misses,
        requested: facade.requested_bytes,
        granted: facade.granted_bytes,
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
fn a_hit_commits_the_pages_of_a_scrubbed_block_again() {
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
    // A miss refills the magazine from the scrubbed tree, then a hit
    // serves one of the refilled blocks: each is committed as it goes out.
    let hits = a.cache_stats().unwrap().hits;
    // SAFETY: as above.
    unsafe {
        let p = a.alloc(block);
        assert_eq!(committed(&a), page as u64, "the miss");
        let q = a.alloc(block);
        assert_eq!(
            a.cache_stats().unwrap().hits,
            hits + 1,
            "the second is a hit"
        );
        assert_eq!(committed(&a), 2 * page as u64, "the hit");
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
    let asked = churn_every_class(&a);
    assert!(a.cache_stats().unwrap().hits > 0, "the churn hit");
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
