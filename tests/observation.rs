//! One observer, three layers: a single `Recorder` shared by the facade,
//! the magazine cache and the slab sees every cause the stack can produce
//! deterministically, and shows each of them in all four places a user
//! looks — the kind's histogram, the event ring, the `[flight]` crash dump
//! and the chrome-trace export.  Its heap profiler stays exact when many
//! threads write it.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::Arc;

use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_cache::MagazineCache;
use nbbs_obs::{jsoncheck, OpKind, Recorder, FLIGHT_TAIL};
use nbbs_slab::SlabBackend;
use nbbs_workloads::rng::SplitMix64;

type Stack = NbbsAllocator<MagazineCache<SlabBackend<NbbsFourLevel>>>;

/// Tree → slab → cache → facade, every layer handed the same `rec`.  The
/// 64 KiB arena gives the one-slot cache a 16 KiB byte budget, less than
/// one full magazine of the 320 B class (64 entries, 20 KiB), so a flush
/// is 129 frees away; the slab's pages are 4 KiB, the tree's largest block.
fn stack(rec: &Arc<Recorder>) -> Stack {
    let config = BuddyConfig::new(1 << 16, 16, 1 << 12).unwrap();
    let slab = SlabBackend::new(NbbsFourLevel::new(config)).with_recorder(Arc::clone(rec));
    let cache = MagazineCache::with_slots(slab, 1).with_recorder(Arc::clone(rec));
    NbbsAllocator::new(cache).with_recorder(Arc::clone(rec))
}

/// The slab class whose full magazine the budget refuses.
const FLUSHED: usize = 320;

/// Drives `a` through every cause in [`CAUSES`] and back to empty; returns
/// the most bytes the heap profiler attributed on the way.
fn drive(a: &Stack, rec: &Recorder) -> u64 {
    let small = Layout::from_size_align(64, 8).unwrap();
    let mid = Layout::from_size_align(128, 8).unwrap();
    let ptr = |block: std::ptr::NonNull<[u8]>| block.cast::<u8>();
    // SAFETY: every block is released (or moved) exactly once, with the
    // layout it was last allocated, grown or shrunk to.
    unsafe {
        // A cold class: miss, batched refill, and under them a slab page.
        let block = a.allocate(small).unwrap();
        let grown = a.grow(ptr(block), small, mid).unwrap();
        let shrunk = a.shrink(ptr(grown), mid, small).unwrap();
        a.deallocate(ptr(shrunk), small);
        // Sixteen blocks for the profiler to attribute.
        let burst: Vec<_> = (0..16).map(|_| a.allocate(small).unwrap()).collect();
        let attributed = rec.profiler().unwrap().report().attributed_live_bytes();
        for block in burst {
            a.deallocate(ptr(block), small);
        }
        // Frees past both magazines of the 320 B class, on the cache below
        // the facade (a facade event per free would overrun the dump's
        // tail): the budget refuses the full magazine and it is flushed.
        let cache = a.backend();
        let (class, _) = cache.class_of_request(FLUSHED).unwrap();
        let capacity = cache.magazine_capacity(class);
        assert!(capacity * FLUSHED > cache.cache_bytes_budget());
        let chunks: Vec<_> = (0..=2 * capacity)
            .map(|_| cache.alloc(FLUSHED).unwrap())
            .collect();
        for offset in chunks {
            cache.dealloc_sized(offset, FLUSHED);
        }
        assert_eq!(cache.snapshot().flushed, capacity as u64);
        // Draining empties the slab's pages, which it hands back.
        a.backend().drain_cache();
        assert_eq!(a.allocated_bytes(), 0);
        attributed
    }
}

/// Each kind the drive must produce, and what in it does.
const CAUSES: [(OpKind, &str); 9] = [
    (OpKind::Alloc, "facade allocate"),
    (OpKind::Free, "facade deallocate"),
    (OpKind::Grow, "a grow that moves to a larger class"),
    (OpKind::Shrink, "a shrink that moves to a smaller class"),
    (OpKind::CacheMiss, "the first allocation of a class"),
    (OpKind::CacheRefill, "the batch behind that miss"),
    (
        OpKind::CacheFlush,
        "frees past both magazines, the budget refusing the full one",
    ),
    (OpKind::PageGrant, "the slab binding a page to a class"),
    (OpKind::PageRetire, "the drain emptying that page"),
];

#[test]
fn every_cause_shows_in_histogram_ring_dump_and_export() {
    let rec = Arc::new(Recorder::new().with_profiler(1));
    let attributed = drive(&stack(&rec), &rec);

    let ring = rec.ring();
    ring.stop();
    let events = ring.events();
    assert!(
        events.len() <= FLIGHT_TAIL && ring.dropped() == 0,
        "the drive must fit the dump's tail: {} events",
        events.len()
    );
    let dump = ring.flight_dump();
    let chrome = ring.to_chrome_json("observation");
    assert_eq!(
        jsoncheck::validate_chrome_trace(&chrome),
        Ok(events.len()),
        "one valid slice per event"
    );
    let doc = jsoncheck::parse(&chrome).unwrap();
    let slices = doc.get("traceEvents").unwrap().as_array().unwrap();
    let mut counted = 0;
    for (kind, cause) in CAUSES {
        let recorded = rec.snapshot(kind).total();
        assert!(recorded > 0, "{}: no latency for {cause}", kind.name());
        assert_eq!(
            events.iter().filter(|e| e.kind == kind).count() as u64,
            recorded,
            "{}: ring and histogram disagree",
            kind.name()
        );
        assert!(
            dump.contains(kind.name()),
            "{} not in:\n{dump}",
            kind.name()
        );
        assert!(
            slices
                .iter()
                .any(|s| s.get("name").and_then(|n| n.as_str()) == Some(kind.name())),
            "{} not in the chrome export",
            kind.name()
        );
        counted += recorded;
    }
    assert_eq!(
        counted,
        rec.merged_snapshot(&OpKind::ALL).total(),
        "nothing but the tabled causes fired"
    );
    // One handle: the profiler saw the same traffic, grants and frees.
    assert_eq!(attributed, 16 * 64, "every block of the burst had a site");
    let profile = rec.profiler().unwrap().report();
    assert_eq!(profile.attributed_live_bytes(), 0);
    assert_eq!(profile.dropped_samples, 0);
}

#[test]
fn a_profiler_only_handle_records_no_latency() {
    let rec = Arc::new(Recorder::profiler_only(1));
    let attributed = drive(&stack(&rec), &rec);
    assert_eq!(attributed, 16 * 64);
    assert!(rec.profiler().unwrap().report().sampled_allocs > 16);
    assert_eq!(rec.merged_snapshot(&OpKind::ALL).total(), 0);
    assert!(rec.ring().is_empty(), "no event without a timestamp");
    assert!(rec.ring().flight_dump().contains("no recorded operations"));
}

/// At stride 1 the profiler's books are exact at quiescence however many
/// threads wrote them: four threads churn a web-server mix (a 64–1023 B
/// header and one to four 256–2303 B body chunks per request, random
/// retirement past 64 live) through one facade over the cached tree, each
/// leaves its last 64 blocks live, and the report attributes exactly what
/// the facade granted for those blocks — then nothing once they are freed.
#[test]
fn concurrent_churn_is_attributed_to_the_byte_at_quiescence() {
    const THREADS: usize = 4;
    let rec = Arc::new(Recorder::profiler_only(1));
    let config = BuddyConfig::new(64 << 20, 64, 64 << 10).unwrap();
    let facade: NbbsAllocator<Arc<MagazineCache<NbbsFourLevel>>> =
        NbbsAllocator::new(Arc::new(MagazineCache::new(NbbsFourLevel::new(config))))
            .with_recorder(Arc::clone(&rec));
    let start = std::sync::Barrier::new(THREADS);
    let survivors: Vec<(usize, Layout)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|worker| {
                let (facade, start) = (&facade, &start);
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0xFACE ^ worker as u64);
                    // Addresses, so the survivors can cross to the main thread.
                    let mut live: Vec<(usize, Layout)> = Vec::new();
                    start.wait();
                    for _ in 0..300 {
                        let header = 64 + rng.next_below(960);
                        let chunks = (0..1 + rng.next_below(4))
                            .map(|_| 256 + rng.next_below(2 << 10))
                            .collect::<Vec<_>>();
                        for size in std::iter::once(header).chain(chunks) {
                            let layout = Layout::from_size_align(size, 8).unwrap();
                            let block = facade.allocate(layout).expect("64 MiB arena");
                            live.push((block.cast::<u8>().as_ptr() as usize, layout));
                        }
                        while live.len() > 64 {
                            let (addr, layout) = live.swap_remove(rng.next_below(live.len()));
                            // SAFETY: allocated above with this layout,
                            // released exactly once.
                            unsafe {
                                facade.deallocate(NonNull::new(addr as *mut u8).unwrap(), layout)
                            };
                        }
                    }
                    live
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    assert_eq!(survivors.len(), THREADS * 64);

    let profiler = rec.profiler().unwrap();
    let granted: u64 = survivors
        .iter()
        .map(|&(_, layout)| facade.granted_size(layout).unwrap() as u64)
        .sum();
    let report = profiler.report();
    assert_eq!(report.dropped_samples, 0);
    assert_eq!(report.attributed_live_bytes(), granted);
    assert_eq!(granted, facade.allocated_bytes() as u64);

    for (addr, layout) in survivors {
        // SAFETY: the survivors are still live; same provenance as above.
        unsafe { facade.deallocate(NonNull::new(addr as *mut u8).unwrap(), layout) };
    }
    assert_eq!(profiler.report().attributed_live_bytes(), 0);
}
