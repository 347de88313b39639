//! A free that overflows its magazines and finds the depot over its byte
//! budget flushes a whole magazine back to the tree, inside the caller's
//! free.  Under a registered `#[global_allocator]` that free is the
//! allocator's own, so the flush must allocate nothing: it releases the
//! offsets from the magazine's own buffer, and only a release that unwinds
//! copies what is left to the orphan list.
//!
//! This binary registers a counting allocator over `System` that counts
//! the calling thread's allocations while a test arms it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
use nbbs_cache::MagazineCache;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting the allocations of a thread that armed it.
struct Counting;

impl Counting {
    fn note() {
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                COUNT.with(|count| count.set(count.get() + 1));
            }
        });
    }
}

// SAFETY: every call is `System`'s, under the caller's contract.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    COUNT.with(|count| count.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    COUNT.with(Cell::get)
}

/// One slot and one depot shard over a 128 KiB span, so a 32 KiB budget:
/// it holds one magazine of 1 KiB chunks (32 of them) and not one of 64 B
/// (64 of them, 4 KiB) more.
const SMALL: usize = 64;
const SMALL_CAPACITY: usize = 64;
const LARGE: usize = 1024;
const LARGE_CAPACITY: usize = 32;

#[test]
fn a_free_that_flushes_a_magazine_allocates_nothing() {
    let tree = NbbsFourLevel::new(BuddyConfig::new(128 << 10, 32, 4 << 10).unwrap());
    let cache = MagazineCache::with_slots(tree, 1);
    assert_eq!(cache.depot_shard_count(), 1);
    assert_eq!(cache.cache_bytes_budget(), LARGE_CAPACITY * LARGE);
    assert!(cache.cache_bytes_budget() < LARGE_CAPACITY * LARGE + SMALL_CAPACITY * SMALL);
    let capacity_of = |size: usize| {
        let (class, _) = cache.class_of_request(size).unwrap();
        cache.magazine_capacity(class)
    };
    assert_eq!(capacity_of(SMALL), SMALL_CAPACITY);
    assert_eq!(capacity_of(LARGE), LARGE_CAPACITY);
    let parked = || cache.depot_parked_magazines(0);
    // Frees of `2 * capacity + 1` chunks of `size` fill both magazines of
    // the class and park the full one in the depot.
    let park_one = |size: usize, capacity: usize| {
        let chunks: Vec<_> = (0..=2 * capacity)
            .map(|_| cache.backend().alloc(size).unwrap())
            .collect();
        for offset in chunks {
            cache.dealloc_sized(offset, size);
        }
    };

    // The small class takes its magazine back from the depot, which leaves
    // the emptied one as the slot's spare: the next overflow rotates it in
    // and needs no new magazine.
    park_one(SMALL, SMALL_CAPACITY);
    assert_eq!(parked(), 1);
    let mut held: Vec<_> = (0..=SMALL_CAPACITY + 1)
        .map(|_| cache.alloc(SMALL).unwrap())
        .collect();
    assert_eq!(parked(), 0, "the last allocation took the magazine back");
    // The large class fills the depot's budget.
    park_one(LARGE, LARGE_CAPACITY);
    assert_eq!(parked(), 1);

    // Both small magazines full, then the free that overflows them.
    let last = held.pop().unwrap();
    for offset in held {
        cache.dealloc_sized(offset, SMALL);
    }
    let flushed = cache.snapshot().flushed;
    let allocations = allocations_in(|| cache.dealloc_sized(last, SMALL));
    assert_eq!(
        cache.snapshot().flushed - flushed,
        SMALL_CAPACITY as u64,
        "the budget refused the magazine and it went back to the tree"
    );
    assert_eq!(allocations, 0, "the flushing free allocated");

    cache.drain_all();
    assert_eq!(cache.backend().allocated_bytes(), 0);
}

/// The inlined halves of a grant and a release: on a warmed cache a hit
/// and a park allocate nothing.  After a drain took the magazines'
/// buffers, the park refuses, still allocating nothing, and `free_class`
/// parks the chunk out of line, with the one allocation of the new buffer.
#[test]
fn a_hit_and_a_park_never_allocate() {
    let tree = NbbsFourLevel::new(BuddyConfig::new(128 << 10, 32, 4 << 10).unwrap());
    let cache = MagazineCache::with_slots(tree, 1);
    let (class, _) = cache.class_of_request(SMALL).unwrap();
    let warm = cache.alloc_class(class, SMALL).unwrap();
    cache.free_class(class, warm);
    let allocations = allocations_in(|| {
        for _ in 0..1000 {
            let offset = cache.try_hit(class, SMALL).expect("a warmed magazine hits");
            assert!(cache.try_park(class, offset), "and takes the chunk back");
        }
    });
    assert_eq!(allocations, 0, "a hit or a park allocated");

    let offset = cache.try_hit(class, SMALL).unwrap();
    cache.drain_all();
    let cached_frees = cache.snapshot().cached_frees;
    let refused = allocations_in(|| assert!(!cache.try_park(class, offset)));
    assert_eq!(refused, 0, "the refused park allocated");
    assert_eq!(
        cache.snapshot().cached_frees,
        cached_frees,
        "nothing parked"
    );
    let parked = allocations_in(|| cache.free_class(class, offset));
    assert_eq!(
        parked, 1,
        "the drained magazine's new buffer, and nothing else"
    );
    assert_eq!(cache.snapshot().cached_frees, cached_frees + 1);
    assert_eq!(cache.cached_bytes(), SMALL);

    cache.drain_all();
    assert_eq!(cache.backend().allocated_bytes(), 0);
}
