//! Panic-safety integration tests for the magazine cache: a thread that
//! dies mid-task — by its own panic or by an injected one from
//! `nbbs-chaos` — must never wedge a slot, strand chunks, or double-free.
//! Every chunk is either returned by the thread-exit drain or left
//! recoverable by a whole-cache drain, proven by the conservation audit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nbbs::{BuddyBackend, BuddyConfig, BuddyRegion, FreeError, Geometry, NbbsFourLevel};
use nbbs_cache::{drain_on_thread_exit, verify_cached_empty, DrainOnExit, MagazineCache};
use nbbs_chaos::{FaultInjecting, FaultPlan};
use nbbs_workloads::rng::SplitMix64;

const TOTAL: usize = 1 << 18;
const MIN: usize = 64;
const MAX: usize = 1 << 14;

fn cfg() -> BuddyConfig {
    BuddyConfig::new(TOTAL, MIN, MAX).unwrap()
}

/// A thread panics while its slot magazines are loaded with recycled
/// chunks.  The registered exit drain runs during the panic unwind (TLS
/// destructors fire on unwind too), so after join the chunks are back in
/// the depot or tree — a whole-cache drain plus the audit proves nothing
/// was stranded and nothing double-freed.
#[test]
fn panicking_thread_with_loaded_magazines_leaves_chunks_recoverable() {
    let cache = Arc::new(MagazineCache::new(NbbsFourLevel::new(cfg())));
    let worker = Arc::clone(&cache);
    let handle = std::thread::spawn(move || {
        drain_on_thread_exit(worker.clone() as Arc<dyn DrainOnExit>);
        // Load the magazines: allocate a spread of classes, free them all
        // so they park as recycled chunks in this thread's slot.
        let mut rng = SplitMix64::new(42);
        let offs: Vec<(usize, usize)> = (0..256)
            .filter_map(|_| {
                let size = MIN << rng.next_below(8);
                worker.alloc(size).map(|off| (off, size))
            })
            .collect();
        assert!(!offs.is_empty());
        for &(off, _) in &offs {
            worker.dealloc(off);
        }
        assert!(
            worker.cached_bytes() > 0,
            "magazines should be loaded before the panic"
        );
        panic!("worker dies while holding loaded magazines");
    });
    assert!(handle.join().is_err(), "the worker must have panicked");

    cache.drain_all();
    verify_cached_empty(&cache).assert_clean();
    assert_eq!(cache.allocated_bytes(), 0);
    // Nothing stranded: the whole region coalesces back to max-class blocks.
    let blocks: Vec<_> = (0..TOTAL / MAX)
        .map(|_| cache.alloc(MAX).expect("full capacity must be restored"))
        .collect();
    for off in blocks {
        cache.dealloc(off);
    }
}

/// Injected panics firing *inside* cache refill/flush loops strand the
/// in-flight chunks on the orphan list; the next toucher (here: the final
/// whole-cache drain) rescues them.  The audit plus a full-capacity probe
/// prove no chunk was lost and none was freed twice.
#[test]
fn injected_panics_during_magazine_traffic_are_rescued() {
    let injected =
        FaultInjecting::new(NbbsFourLevel::new(cfg()), FaultPlan::panic_storm(0xBAD5EED));
    let cache = MagazineCache::new(injected);
    let mut rng = SplitMix64::new(0xBAD5EED);
    let mut live: Vec<usize> = Vec::new();
    let mut panics = 0u32;
    for _ in 0..20_000 {
        if live.is_empty() || rng.next_u64() & 1 == 0 {
            let size = MIN << rng.next_below(8);
            match catch_unwind(AssertUnwindSafe(|| cache.alloc(size))) {
                Ok(Some(off)) => live.push(off),
                Ok(None) => {}
                Err(_) => panics += 1,
            }
        } else {
            let off = live.swap_remove(rng.next_below(live.len()));
            // The cache absorbs the chunk before any fault-gated backend
            // call, so a panicking free still counts as freed.
            if catch_unwind(AssertUnwindSafe(|| cache.dealloc(off))).is_err() {
                panics += 1;
            }
        }
    }
    assert!(panics > 0, "the storm should have injected panics");

    cache.backend().disarm();
    for off in live {
        cache.dealloc(off);
    }
    cache.drain_all();
    verify_cached_empty(&cache).assert_clean();
    assert_eq!(cache.allocated_bytes(), 0);
    let whole: Vec<_> = (0..TOTAL / MAX)
        .map(|_| cache.alloc(MAX).expect("no capacity may stay stranded"))
        .collect();
    for off in whole {
        cache.dealloc(off);
    }
}

/// A tree whose third `scrub_dealloc` panics before it reaches the tree:
/// the scrubber killed between a claim and its release.  Everything else
/// takes the provided forwards through `inner()`.
struct ThirdScrubFreePanics {
    tree: NbbsFourLevel,
    scrub_frees: AtomicUsize,
}

impl BuddyBackend for ThirdScrubFreePanics {
    fn name(&self) -> &'static str {
        "third-scrub-free-panics"
    }
    fn geometry(&self) -> &Geometry {
        self.tree.geometry()
    }
    fn alloc(&self, size: usize) -> Option<usize> {
        self.tree.alloc(size)
    }
    fn dealloc(&self, offset: usize) {
        self.tree.dealloc(offset)
    }
    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        self.tree.try_dealloc(offset)
    }
    fn allocated_bytes(&self) -> usize {
        self.tree.allocated_bytes()
    }
    fn inner(&self) -> Option<&dyn BuddyBackend> {
        Some(&self.tree)
    }
    fn scrub_dealloc(&self, offset: usize) {
        if self.scrub_frees.fetch_add(1, Ordering::Relaxed) == 2 {
            panic!("injected: scrubber dies holding claimed blocks");
        }
        self.tree.scrub_dealloc(offset)
    }
}

/// A scrub pass that panics while it holds a run of claimed blocks gives
/// every one of them back on the way out — the one whose release panicked
/// included — so nothing stays allocated in a tree nobody will free it from.
#[test]
fn a_scrub_pass_that_panics_mid_run_strands_no_block() {
    const BLOCK: usize = 64 << 10;
    let region = BuddyRegion::new(ThirdScrubFreePanics {
        tree: NbbsFourLevel::new(BuddyConfig::new(64 * BLOCK, 4096, BLOCK).unwrap()),
        scrub_frees: AtomicUsize::new(0),
    });
    // Grant, dirty and free the whole span, so every block has pages to
    // release (a fresh region's never-granted blocks are skipped).
    let whole: Vec<_> = (0..64)
        .map(|_| region.alloc_bytes(BLOCK).expect("full capacity"))
        .collect();
    for ptr in whole {
        unsafe { ptr.as_ptr().write_bytes(0x5A, BLOCK) };
        region.dealloc_bytes(ptr);
    }

    let pass = catch_unwind(AssertUnwindSafe(|| region.scrub_pass()));
    assert!(pass.is_err(), "the injected panic reached the caller");
    let wrapper = region.backend();
    assert_eq!(wrapper.allocated_bytes(), 0, "no claimed block left behind");
    nbbs::verify::audit_empty(&wrapper.tree).assert_clean();
    // Four blocks to a run here (1/16 of the span): two frees, the one that
    // panicked, then its retry and the last block from the guard's `Drop`.
    assert_eq!(wrapper.scrub_frees.load(Ordering::Relaxed), 5);

    // The region is whole and the scrubber still works: the next pass
    // finishes the span the first one dropped.
    let second = region.scrub_pass();
    assert!(second > 0);
    assert_eq!(region.committed_bytes(), 0);
    assert_eq!(wrapper.allocated_bytes(), 0);
    let whole: Vec<_> = (0..64)
        .map(|_| region.alloc_bytes(BLOCK).expect("full capacity"))
        .collect();
    for ptr in whole {
        region.dealloc_bytes(ptr);
    }
}
