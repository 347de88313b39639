//! End-to-end tests of the elastic region stack: [`ElasticSet`] behind a
//! [`BuddyRegion`], growing under OOM pressure, retiring drained regions
//! at trough, and handing the retired spans back to the kernel through the
//! decommit scrubber.
//!
//! The widened offset space is reserved up front but the backing mapping
//! is demand-zero, so these tests check the *physical* story too: the
//! committed-bytes counter must ramp with the chain and collapse after a
//! scrub, and memory that crossed the decommit boundary must still be
//! readable/writable when its region reactivates.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use nbbs::mapping::page_size;
use nbbs::{BuddyBackend, BuddyConfig, BuddyRegion, ElasticSet, Mapping, NbbsFourLevel};
use proptest::prelude::*;

/// Per-region span: 64 KiB of 4 KiB blocks (16 per region).
const REGION_TOTAL: usize = 1 << 16;
const BLOCK: usize = 1 << 12;
const MAX_REGIONS: usize = 4;

fn elastic_region() -> BuddyRegion<ElasticSet<NbbsFourLevel>> {
    let config = BuddyConfig::new(REGION_TOTAL, 64, BLOCK).unwrap();
    BuddyRegion::new(
        ElasticSet::new(MAX_REGIONS, move |_slot| NbbsFourLevel::new(config))
            .with_grow_threshold(1),
    )
}

#[test]
fn chain_grows_under_pressure_and_scrubs_back_at_trough() {
    let region = elastic_region();
    assert_eq!(region.managed_bytes(), MAX_REGIONS * REGION_TOTAL);

    // Ramp: fill well past the first region, writing a distinct pattern to
    // every block so cross-region routing bugs show up as corruption.
    let mut held = Vec::new();
    while let Some(ptr) = region.alloc_bytes(BLOCK) {
        unsafe { ptr.as_ptr().write_bytes(held.len() as u8, BLOCK) };
        held.push(ptr);
    }
    assert_eq!(held.len(), MAX_REGIONS * (REGION_TOTAL / BLOCK));
    let stats = region.backend().elastic_stats();
    assert_eq!(stats.active_regions, MAX_REGIONS);
    assert_eq!(stats.grows as usize, MAX_REGIONS - 1);

    let peak = region.committed_bytes();
    assert_eq!(peak, MAX_REGIONS * REGION_TOTAL, "every grant committed");
    for (i, ptr) in held.iter().enumerate() {
        let b = unsafe { *ptr.as_ptr() };
        assert_eq!(b, i as u8, "block {i} kept its pattern across the ramp");
    }

    // Trough: free everything, then one scrub pass.  The pass first trims
    // and retires the drained regions, then walks the (now whole-span)
    // free chunks and releases their pages.
    for ptr in held.drain(..) {
        region.dealloc_bytes(ptr);
    }
    let freed = region.scrub_pass();
    assert!(freed > 0, "the scrub released pages");

    let stats = region.backend().elastic_stats();
    assert_eq!(stats.active_regions, 1, "only the first region survives");
    assert_eq!(stats.retires as usize, MAX_REGIONS - 1);
    let mem = region.memory_stats();
    assert!(
        mem.committed_bytes as usize <= peak * 35 / 100,
        "trough committed {} B should be well under peak {} B",
        mem.committed_bytes,
        peak
    );
}

#[test]
fn dormant_regions_reactivate_and_their_memory_survives_the_boundary() {
    let region = elastic_region();

    // Ramp up, ramp down, scrub: regions 1..N are now dormant with their
    // pages handed back to the kernel.
    let mut held = Vec::new();
    while let Some(ptr) = region.alloc_bytes(BLOCK) {
        held.push(ptr);
    }
    for ptr in held.drain(..) {
        region.dealloc_bytes(ptr);
    }
    region.scrub_pass();
    assert_eq!(region.backend().elastic_stats().active_regions, 1);

    // Renewed pressure: the set reactivates dormant slots (never builds
    // anew — they are already constructed) and the recycled memory, fresh
    // from the decommit boundary, must be demand-zero and writable.
    while let Some(ptr) = region.alloc_bytes(BLOCK) {
        held.push(ptr);
    }
    assert_eq!(held.len(), MAX_REGIONS * (REGION_TOTAL / BLOCK));
    let stats = region.backend().elastic_stats();
    assert_eq!(stats.active_regions, MAX_REGIONS);
    assert_eq!(
        stats.reactivations as usize,
        MAX_REGIONS - 1,
        "pressure reactivates, it does not rebuild"
    );
    assert_eq!(stats.built_regions, MAX_REGIONS);

    for ptr in &held {
        let bytes = unsafe { std::slice::from_raw_parts(ptr.as_ptr(), BLOCK) };
        assert!(
            bytes.iter().all(|&b| b == 0),
            "reactivated pages read demand-zero"
        );
        unsafe { ptr.as_ptr().write_bytes(0xC3, BLOCK) };
    }
    for ptr in held {
        region.dealloc_bytes(ptr);
    }
    assert_eq!(region.backend().allocated_bytes(), 0);
}

#[test]
fn background_scrubber_drives_the_chain_down() {
    let region = elastic_region();
    region.start_scrubber(Duration::from_millis(5));

    // Burst past the first region, then drop to idle.
    let mut held = Vec::new();
    while let Some(ptr) = region.alloc_bytes(BLOCK) {
        held.push(ptr);
    }
    let peak = region.committed_bytes();
    for ptr in held.drain(..) {
        region.dealloc_bytes(ptr);
    }

    // The background thread retires the drained regions and decommits
    // their spans without any further help from this thread.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = region.backend().elastic_stats();
        let mem = region.memory_stats();
        if stats.active_regions == 1 && mem.committed_bytes as usize <= peak * 35 / 100 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scrubber never drove the chain down: {stats:?}, {mem}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    region.stop_scrubber();
}

#[test]
fn scrub_claims_never_touch_live_blocks_across_regions() {
    let region = elastic_region();

    // Spread live blocks across the whole chain, then free every other one
    // so the scrubber has plenty to claim *between* live neighbours.
    let mut held = Vec::new();
    while let Some(ptr) = region.alloc_bytes(BLOCK) {
        unsafe { ptr.as_ptr().write_bytes(0xA5, BLOCK) };
        held.push(ptr);
    }
    let mut live = Vec::new();
    for (i, ptr) in held.drain(..).enumerate() {
        if i % 2 == 0 {
            live.push(ptr);
        } else {
            region.dealloc_bytes(ptr);
        }
    }

    for _ in 0..3 {
        region.scrub_pass();
    }

    for ptr in &live {
        let bytes = unsafe { std::slice::from_raw_parts(ptr.as_ptr(), BLOCK) };
        assert!(
            bytes.iter().all(|&b| b == 0xA5),
            "live block contents survive interleaved scrub passes"
        );
    }
    for ptr in live {
        region.dealloc_bytes(ptr);
    }
    region.scrub_pass();
    assert_eq!(region.backend().allocated_bytes(), 0);
}

/// The bound a run puts on the scrubber, tested: with a pass running in a
/// loop, three threads that together never hold more than
/// `total - cap - spare` bytes never see an allocation fail, because the
/// scrubber never holds more than one run (`cap` = 1/16 of the span here,
/// two blocks).  Every block is checked for its owner's pattern before it
/// is freed, so a frame released under a live block shows up as corruption.
#[test]
fn a_scrubbing_loop_never_starves_allocations_beyond_its_run_cap() {
    const BLOCKS: usize = 32;
    const WORKERS: usize = 3;
    const PER_WORKER: usize = 8; // 24 live + 2 held by the scrubber < 32
    let block = page_size() * 4;
    let region = BuddyRegion::new(NbbsFourLevel::new(
        BuddyConfig::new(BLOCKS * block, page_size(), block).unwrap(),
    ));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let scrubber = s.spawn(|| {
            let mut passes = 0u64;
            while !stop.load(Ordering::Acquire) {
                region.scrub_pass();
                passes += 1;
            }
            passes
        });
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let region = &region;
                s.spawn(move || {
                    let tag = 0xA0 + w as u8;
                    let mut rng = 0x9E37_79B9u64.wrapping_mul(w as u64 + 1);
                    let mut held = Vec::with_capacity(PER_WORKER);
                    for _ in 0..4_000 {
                        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                        if held.len() < PER_WORKER && (held.is_empty() || rng >> 63 == 0) {
                            let ptr = region
                                .alloc_bytes(block)
                                .expect("free bytes beyond the scrubber's cap");
                            unsafe { ptr.as_ptr().write_bytes(tag, block) };
                            held.push(ptr);
                        } else {
                            let ptr = held.swap_remove((rng >> 32) as usize % held.len());
                            let bytes = unsafe { std::slice::from_raw_parts(ptr.as_ptr(), block) };
                            assert!(bytes.iter().all(|&b| b == tag), "worker {w}'s block");
                            region.dealloc_bytes(ptr);
                        }
                    }
                    for ptr in held {
                        region.dealloc_bytes(ptr);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        assert!(scrubber.join().unwrap() > 0);
    });
    assert_eq!(region.allocated_bytes(), 0);
    nbbs::verify::audit_empty(region.backend()).assert_clean();
    let stats = region.memory_stats();
    assert!(stats.scrub_blocks > 0, "the loop found work: {stats}");
    assert!(stats.decommit_calls <= stats.scrub_blocks);
}

/// One step of the bitmap differential: byte ranges, not page ranges, so
/// the inward (decommit) and outward (commit) roundings are both in play.
#[derive(Debug, Clone)]
enum MapOp {
    Decommit(usize, usize),
    Commit(usize, usize),
}

const MAP_PAGES: usize = 200; // four bitmap words, the last one partial

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    let span = MAP_PAGES * page_size();
    let range = move || (0..span, 1..span / 3);
    proptest::collection::vec(
        prop_oneof![
            1 => range().prop_map(|(off, len)| MapOp::Decommit(off, len)),
            2 => range().prop_map(|(off, len)| MapOp::Commit(off, len)),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Mapping`'s bitmap, gauge and totals against one `bool` per page: a word
    /// the look-before-write skips must be a word the oracle leaves alone.
    #[test]
    fn the_decommit_bitmap_matches_a_bool_per_page(ops in map_ops()) {
        let page = page_size();
        let span = MAP_PAGES * page;
        let m = Mapping::new(span, page);
        // A fresh span is decommitted end to end.
        let mut gone = [true; MAP_PAGES];
        let (mut decommitted, mut recommitted, mut calls) = (0u64, 0u64, 0u64);
        for op in ops {
            match op {
                MapOp::Decommit(off, len) => {
                    let end = (off + len).min(span);
                    let pages = off.div_ceil(page)..end / page;
                    let newly = pages.clone().filter(|&p| !gone[p]).count();
                    pages.for_each(|p| gone[p] = true);
                    prop_assert_eq!(m.decommit(off, len), newly * page);
                    decommitted += (newly * page) as u64;
                    calls += (newly > 0) as u64;
                }
                MapOp::Commit(off, len) => {
                    let end = (off + len).min(span);
                    let pages = off / page..end.div_ceil(page);
                    let cleared = pages.clone().filter(|&p| gone[p]).count();
                    pages.for_each(|p| gone[p] = false);
                    m.commit_range(off, len);
                    recommitted += (cleared * page) as u64;
                }
            }
            let gone_pages = gone.iter().filter(|&&g| g).count();
            prop_assert_eq!(m.decommitted_pages(), gone_pages);
            prop_assert_eq!(m.committed_bytes(), (MAP_PAGES - gone_pages) * page);
            prop_assert_eq!(m.decommit_bytes_total(), decommitted);
            prop_assert_eq!(m.recommit_bytes_total(), recommitted);
            prop_assert_eq!(m.decommit_calls(), calls);
            for (p, &g) in gone.iter().enumerate() {
                prop_assert_eq!(m.is_fully_decommitted(p * page, page), g, "page {}", p);
            }
        }
    }
}
