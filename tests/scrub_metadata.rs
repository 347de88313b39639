//! The scrubber gives `index[]` pages back while allocations race it.
//!
//! A scrub run frees its blocks in one call and, under the claims it still
//! holds, drops the pages of `index[]` that only the run's units use.  An
//! entry lost under a live block would send that block's free to the wrong
//! node (or to none), and an entry written into a page as it goes would be
//! lost the same way.  These tests churn blocks from several threads while
//! another thread loops `scrub_pass` over a tree whose `index[]` is mapped,
//! so its pages really go, and check what such a loss would break: every
//! block's header survives until its owner frees it, the byte gauge returns
//! to 0 and the tree audits clean.  The blocks are of every size, or of
//! 256 B or less: then nearly every scan that meets a held run does so at
//! the leaves, below the run's bunch, and the run's release must leave no
//! mark of those scans behind, so every maximal block can be granted
//! afterwards.  Those tests do not count dropped pages: a looping pass
//! decommits what the workers free a few chunks at a time, so its runs
//! rarely cover a whole `index[]` page.  The last test runs the global
//! shell's composition, the cache over the region, under the background
//! scrubber: refills commit what the tree grants while passes decommit,
//! and after a drain one pass must leave no page of the arena resident.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nbbs::verify::audit_empty;
use nbbs::{BuddyBackend, BuddyConfig, BuddyRegion, NbbsFourLevel, NbbsOneLevel, TreeInspect};
use nbbs_cache::MagazineCache;

/// 8 MiB of 32 B units: a 256 KiB `index[]`, mapped, one page of it per
/// 128 KiB of span.  A run is capped at 1/16 of the span, 512 KiB.
fn config() -> BuddyConfig {
    BuddyConfig::new(8 << 20, 32, 64 << 10).expect("a valid geometry")
}

const WORKERS: usize = 3;
const OPS: usize = 20_000;
/// Blocks a worker holds at most: 3 × 16 × 64 KiB live plus one held run
/// leave most of the span free, so no allocation may fail.
const HELD: usize = 16;

/// A live block, by its offset in the region, and the tag its two ends
/// carry.
struct Held {
    offset: usize,
    size: usize,
    tag: u64,
}

impl Held {
    fn write<A: BuddyBackend>(
        region: &BuddyRegion<A>,
        ptr: NonNull<u8>,
        size: usize,
        tag: u64,
    ) -> Held {
        unsafe {
            ptr.as_ptr().cast::<u64>().write(tag);
            ptr.as_ptr().add(size - 8).cast::<u64>().write(!tag);
        }
        let offset = region.offset_of(ptr).expect("a block of the region");
        Held { offset, size, tag }
    }

    /// Checks both ends and frees the block.
    fn verify_and_free<A: BuddyBackend>(self, region: &BuddyRegion<A>) {
        let ptr = unsafe { NonNull::new_unchecked(region.base().as_ptr().add(self.offset)) };
        let (head, tail) = unsafe {
            (
                ptr.as_ptr().cast::<u64>().read(),
                ptr.as_ptr().add(self.size - 8).cast::<u64>().read(),
            )
        };
        assert_eq!(
            (head, tail),
            (self.tag, !self.tag),
            "the header of a live {}-byte block at {} changed under it",
            self.size,
            self.offset
        );
        region.dealloc_bytes(ptr);
    }
}

/// Stops the scrubbing loop when dropped, so a worker's panic ends the
/// test instead of leaving the scrubber spinning in the scope.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Block sizes of every class, 32 B to 64 KiB.
const EVERY_CLASS: usize = 12;
/// Block sizes of 32 B to 256 B.
const SMALL_CLASSES: usize = 4;

/// `WORKERS` threads allocate, tag, check and free blocks of 32 B to
/// `32 << (classes - 1)` bytes while a scrubber loops; they start once its
/// first pass is done, so the loop is running however briefly they churn.
/// Each worker's last blocks are checked and freed only once the scrubber
/// has stopped.  Then
/// the caches are drained and a last pass must find every granted page
/// free.  Returns the metadata bytes the passes gave back while the
/// workers ran.
fn churn_under_a_scrubbing_loop<A: BuddyBackend>(region: &BuddyRegion<A>, classes: usize) -> u64 {
    let stop = AtomicBool::new(false);
    let scrubbing = AtomicBool::new(false);
    let survivors: Vec<Held> = std::thread::scope(|s| {
        let scrubber = s.spawn(|| {
            let mut passes = 0u64;
            loop {
                region.scrub_pass();
                passes += 1;
                scrubbing.store(true, Ordering::Release);
                if stop.load(Ordering::Acquire) {
                    break passes;
                }
            }
        });
        let stop_scrubber = StopOnDrop(&stop);
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let scrubbing = &scrubbing;
                s.spawn(move || {
                    while !scrubbing.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1);
                    let mut held: Vec<Held> = Vec::with_capacity(HELD);
                    for i in 0..OPS {
                        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                        if held.len() < HELD && (held.is_empty() || rng >> 63 == 0) {
                            let size = 32usize << ((rng >> 40) as usize % classes);
                            let ptr = region
                                .alloc_bytes(size)
                                .expect("the span has room beyond the held blocks");
                            let tag = ((w as u64) << 56) | i as u64;
                            held.push(Held::write(region, ptr, size, tag));
                        } else {
                            held.swap_remove((rng >> 32) as usize % held.len())
                                .verify_and_free(region);
                        }
                    }
                    held
                })
            })
            .collect();
        let survivors = workers
            .into_iter()
            .flat_map(|w| w.join().expect("a worker panicked"))
            .collect();
        drop(stop_scrubber);
        assert!(scrubber.join().expect("the scrubber panicked") > 0);
        survivors
    });
    let dropped = region.memory_stats().metadata_decommitted_bytes;
    for block in survivors {
        block.verify_and_free(region);
    }
    region.backend().drain_cache();
    region.scrub_pass();
    assert_eq!(region.allocated_bytes(), 0);
    assert_eq!(region.committed_bytes(), 0, "the last pass took everything");
    dropped
}

/// Whether this build's `index[]` of [`config`] is a mapping, and so can
/// give pages back.
const MAPPED: bool = cfg!(target_os = "linux");

#[test]
fn index_pages_go_under_racing_allocations_on_the_four_level_tree() {
    let region = BuddyRegion::new(NbbsFourLevel::new(config()));
    let dropped = churn_under_a_scrubbing_loop(&region, EVERY_CLASS);
    assert!(
        dropped > 0 || !MAPPED,
        "no racing pass dropped an index page"
    );
    audit_empty(region.backend()).assert_clean();
}

#[test]
fn index_pages_go_under_racing_allocations_on_the_one_level_tree() {
    let region = BuddyRegion::new(NbbsOneLevel::new(config()));
    let dropped = churn_under_a_scrubbing_loop(&region, EVERY_CLASS);
    assert!(
        dropped > 0 || !MAPPED,
        "no racing pass dropped an index page"
    );
    audit_empty(region.backend()).assert_clean();
}

/// The shipped composition: the magazine cache forwards the run to the
/// tree, and its parked chunks are allocated there, so no run covers them.
/// The parked chunks of every class spread over the span, so while the
/// workers run a pass may find no run long enough to drop a page; the
/// pass after the drain does.
#[test]
fn index_pages_go_under_racing_allocations_through_the_cache() {
    let region = BuddyRegion::new(Arc::new(MagazineCache::new(NbbsFourLevel::new(config()))));
    churn_under_a_scrubbing_loop(&region, EVERY_CLASS);
    let dropped = region.memory_stats().metadata_decommitted_bytes;
    assert!(dropped > 0 || !MAPPED, "the cache lost the forward");
    let cache: &MagazineCache<NbbsFourLevel> = region.backend();
    audit_empty(cache).assert_clean();
}

/// Every maximal block of a quiescent, empty tree can be granted: no mark
/// a scan left under a released run holds a branch.
fn every_maximal_block_is_granted<A: BuddyBackend + TreeInspect>(tree: &A) {
    let (total, max) = (tree.total_memory(), tree.max_size());
    let blocks: Vec<_> = (0..total / max)
        .map(|i| {
            tree.alloc(max)
                .unwrap_or_else(|| panic!("maximal block {i} of {} refused", total / max))
        })
        .collect();
    assert_eq!(tree.alloc(max), None);
    for offset in blocks {
        tree.dealloc(offset);
    }
    audit_empty(tree).assert_clean();
}

#[test]
fn small_blocks_churn_under_the_scrubber_on_the_four_level_tree() {
    let region = BuddyRegion::new(NbbsFourLevel::new(config()));
    churn_under_a_scrubbing_loop(&region, SMALL_CLASSES);
    audit_empty(region.backend()).assert_clean();
    every_maximal_block_is_granted(region.backend());
}

#[test]
fn small_blocks_churn_under_the_scrubber_on_the_one_level_tree() {
    let region = BuddyRegion::new(NbbsOneLevel::new(config()));
    churn_under_a_scrubbing_loop(&region, SMALL_CLASSES);
    audit_empty(region.backend()).assert_clean();
    every_maximal_block_is_granted(region.backend());
}

/// Pages of `[base, base + len)` the kernel has backed, by `mincore(2)`.
#[cfg(target_os = "linux")]
fn resident_pages(base: NonNull<u8>, len: usize) -> usize {
    extern "C" {
        fn mincore(addr: *mut std::ffi::c_void, length: usize, vec: *mut u8) -> std::ffi::c_int;
    }
    let page = nbbs::mapping::page_size();
    let mut vec = vec![0u8; len.div_ceil(page)];
    // SAFETY: the region maps `len` bytes from its page-aligned base, and
    // `vec` has one byte per page of them.
    let rc = unsafe { mincore(base.as_ptr().cast(), len, vec.as_mut_ptr()) };
    assert_eq!(rc, 0, "mincore failed");
    vec.iter().filter(|&&b| b & 1 != 0).count()
}

/// Passes the background scrubber makes at least while the workers churn.
const PASSES: u64 = 50;

/// The global shell's composition: the cache over the region, so a refill
/// writes the commit marks of the blocks the tree grants it while the
/// background scrubber sets marks of the runs it gives back.  A drain of
/// the worker's slot every 256 operations sends the parked chunks back to
/// the tree and the misses to it, so the scrubber has freed blocks to give
/// back and the refills take them again.
/// Workers write a tag into every page of their blocks and check it before
/// the free (a page the scrubber gave back under a live or parked chunk
/// reads zero), until the scrubber has made [`PASSES`] passes.  Once the
/// caches are drained, one pass must leave no page of the arena resident:
/// a page written while marked decommitted would stay.
#[cfg(target_os = "linux")]
#[test]
fn refills_commit_under_a_background_scrubber_and_a_night_gives_every_page_back() {
    let cache = MagazineCache::new(BuddyRegion::new(NbbsFourLevel::new(config())));
    let region = cache.backend();
    let page = nbbs::mapping::page_size();
    region.start_scrubber(Duration::from_millis(1));
    while region.memory_stats().scrub_passes == 0 {
        std::thread::yield_now();
    }
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let cache = &cache;
            s.spawn(move || {
                let base = region.base().as_ptr();
                let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1);
                let mut held: Vec<(usize, usize, u64)> = Vec::with_capacity(HELD);
                for i in 0.. {
                    if i >= OPS && i % 1024 == 0 && region.memory_stats().scrub_passes >= PASSES {
                        break;
                    }
                    if i % 256 == 255 {
                        // Everything parked goes back to the tree, and the
                        // next allocations of each class refill.
                        cache.drain_current_thread();
                    }
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if held.len() < HELD && (held.is_empty() || rng >> 63 == 0) {
                        let size = 32usize << ((rng >> 40) as usize % EVERY_CLASS);
                        let offset = cache.alloc(size).expect("the span has room");
                        let tag = ((w as u64) << 56) | i as u64;
                        for at in (0..size).step_by(page.min(size)) {
                            // SAFETY: a live block of `size` bytes.
                            unsafe { base.add(offset + at).cast::<u64>().write(tag) };
                        }
                        held.push((offset, size, tag));
                    } else {
                        let (offset, size, tag) =
                            held.swap_remove((rng >> 32) as usize % held.len());
                        for at in (0..size).step_by(page.min(size)) {
                            // SAFETY: as above, until the free below.
                            let read = unsafe { base.add(offset + at).cast::<u64>().read() };
                            assert_eq!(read, tag, "page {at} of a live {size}-byte block");
                        }
                        cache.dealloc_sized(offset, size);
                    }
                }
                for (offset, size, _) in held {
                    cache.dealloc_sized(offset, size);
                }
            });
        }
    });
    region.stop_scrubber();
    assert!(
        region.memory_stats().scrub_bytes > 0 && cache.snapshot().refilled > 0,
        "the scrubber gave pages back while refills took blocks"
    );
    cache.drain_all();
    region.scrub_pass();
    assert_eq!(region.allocated_bytes(), 0);
    assert_eq!(region.committed_bytes(), 0, "the last pass took everything");
    assert_eq!(
        resident_pages(region.base(), region.total_memory()),
        0,
        "pages of the arena still resident after the night"
    );
    audit_empty(region.backend()).assert_clean();
}
