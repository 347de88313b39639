//! Stress and differential coverage for the `nbbs-cache` magazine layer.
//!
//! * Property-based differential tests drive identical operation sequences
//!   through a cached non-blocking backend and the sequential reference
//!   oracle, checking behavioural equivalence (success/failure, accounting,
//!   alignment, non-overlap — placement legitimately differs because the
//!   cache recycles hot chunks LIFO).
//! * The drain paths (thread-exit guard, whole-cache drain, `Drop`) are
//!   checked to return every parked chunk: after a drain the backend's own
//!   accounting and metadata audit must agree with the caller-live set
//!   alone.
//! * Concurrent stress mirrors the uncached storms: overlap-freedom in
//!   space and time, conservation, and clean metadata at quiescence —
//!   audited *through* the cache with `verify_cached`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use nbbs::verify::audit_empty;
use nbbs::{
    BuddyBackend, BuddyConfig, CacheStatsSnapshot, NbbsFourLevel, NbbsOneLevel, ScanPolicy,
};
use nbbs_baselines::ReferenceBuddy;
use nbbs_cache::{verify_cached, verify_cached_empty, MagazineCache};
use nbbs_workloads::rng::SplitMix64;

// The other tests' span: units of 8 B and blocks up to 1 KiB over 1 MiB.
const TOTAL: usize = 1 << 20;
const MIN: usize = 8;
const MAX: usize = 1 << 10;

/// Shared log of `(offset, granted, start_epoch, end_epoch)` lifetimes.
type ChunkLifetimeLog = Arc<Mutex<Vec<(usize, usize, usize, usize)>>>;

fn backend_config() -> BuddyConfig {
    BuddyConfig::new(TOTAL, MIN, MAX)
        .unwrap()
        .with_scan_policy(ScanPolicy::FirstFit)
}

/// Units of 512 B and blocks up to 4 KiB over 8 MiB: the four classes
/// start with 64, 32, 16 and 8 entries a magazine, so a thread's random
/// walk overflows the larger ones into the depot within a few dozen frees.
const LARGE_UNIT: usize = 512;
const LARGE_TOTAL: usize = 8 << 20;

fn large_class_config() -> BuddyConfig {
    BuddyConfig::new(LARGE_TOTAL, LARGE_UNIT, 4 << 10).unwrap()
}

/// The walks' span: units of 2 KiB and blocks up to 16 KiB over 4 MiB.
/// The four classes start with 16, 8, 4 and 2 entries (32 KiB a
/// magazine), so a walk's frees park magazines within a few dozen
/// operations, and the 1 MiB budget (a quarter of the span) refuses parks
/// after a burst or two.  The worst generated live set (about 1 MiB) plus
/// one burst, the slot's magazines and the budget stays below the span,
/// so allocation success must match the oracle exactly.
const WALK_TOTAL: usize = 4 << 20;
const WALK_MAX: usize = 16 << 10;

fn walk_config() -> BuddyConfig {
    BuddyConfig::new(WALK_TOTAL, 2 << 10, WALK_MAX)
        .unwrap()
        .with_scan_policy(ScanPolicy::FirstFit)
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    Free(usize),
    /// `n` allocations of one size, then their frees, newest first.
    Burst(usize, usize),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            30 => (1usize..=WALK_MAX).prop_map(Op::Alloc),
            20 => (0usize..64).prop_map(Op::Free),
            1 => (1usize..=WALK_MAX, 16usize..=64).prop_map(|(size, n)| Op::Burst(size, n)),
        ],
        1..300,
    )
}

/// A fixed walk through every slow path: random traffic between bursts
/// of 64 chunks of the 16 KiB and the 8 KiB class.  The first burst parks
/// 30 magazines (960 KiB), the second takes the depot past the budget and
/// is flushed, and each later burst takes parked magazines back.
fn fixed_walk() -> Vec<Op> {
    let mut rng = SplitMix64::new(0x0AC1E);
    let mut ops = Vec::new();
    for _ in 0..4 {
        for _ in 0..40 {
            ops.push(if rng.next_below(5) < 3 {
                Op::Alloc(1 + rng.next_below(WALK_MAX))
            } else {
                Op::Free(rng.next_below(64))
            });
        }
        ops.push(Op::Burst(WALK_MAX, 64));
        ops.push(Op::Burst(WALK_MAX / 2, 64));
    }
    ops
}

/// Runs `ops` on the calling thread: a burst's chunks are freed before
/// the next operation.  Returns the `(offset, granted)` chunks left live.
fn run_ops<A: BuddyBackend>(cache: &MagazineCache<A>, ops: &[Op]) -> Vec<(usize, usize)> {
    let mut live: Vec<(usize, usize)> = Vec::new();
    let alloc = |live: &mut Vec<(usize, usize)>, size: usize| {
        if let Some(off) = cache.alloc(size) {
            live.push((off, cache.geometry().granted_size(size).unwrap()));
        }
    };
    for op in ops {
        match *op {
            Op::Alloc(size) => alloc(&mut live, size),
            Op::Free(k) => {
                if !live.is_empty() {
                    let (off, _) = live.swap_remove(k % live.len());
                    cache.dealloc(off);
                }
            }
            Op::Burst(size, n) => {
                let base = live.len();
                for _ in 0..n {
                    alloc(&mut live, size);
                }
                for (off, _) in live.split_off(base).into_iter().rev() {
                    cache.dealloc(off);
                }
            }
        }
    }
    live
}

/// Behavioural differential against the oracle: drives `ops` through a
/// one-slot cache and [`ReferenceBuddy`] side by side.  The cache succeeds
/// exactly when the oracle does, its accounting matches after every
/// operation, and it never hands out overlapping or misaligned chunks.
/// Returns the cache's counters at the end of the walk.
fn oracle_walk(ops: &[Op]) -> CacheStatsSnapshot {
    let mut oracle = ReferenceBuddy::new(walk_config());
    let cache = MagazineCache::with_slots(NbbsOneLevel::new(walk_config()), 1);
    let geo = *cache.geometry();
    // Index-aligned: the oracle's offset, the cache's offset and grant.
    let mut live: Vec<(usize, usize, usize)> = Vec::new();
    let agree = |oracle: &ReferenceBuddy| {
        assert_eq!(
            cache.allocated_bytes(),
            oracle.allocated_bytes(),
            "user-visible accounting diverged from oracle"
        );
    };
    let alloc = |live: &mut Vec<(usize, usize, usize)>, oracle: &mut ReferenceBuddy, size| {
        let expected = oracle.alloc(size);
        let got = cache.alloc(size);
        assert_eq!(
            expected.is_some(),
            got.is_some(),
            "alloc({size}) success diverged from oracle"
        );
        if let (Some(want), Some(off)) = (expected, got) {
            let granted = geo.granted_size(size).unwrap();
            assert!(off + granted <= geo.total_memory());
            assert_eq!(off % granted, 0, "misaligned cached chunk");
            for &(_, o, g) in live.iter() {
                assert!(
                    off + granted <= o || o + g <= off,
                    "cache handed out overlapping chunks"
                );
            }
            live.push((want, off, granted));
        }
        agree(oracle);
    };
    let free = |(want, off, _): (usize, usize, usize), oracle: &mut ReferenceBuddy| {
        oracle.dealloc(want);
        cache.dealloc(off);
        agree(oracle);
    };
    for op in ops {
        match *op {
            Op::Alloc(size) => alloc(&mut live, &mut oracle, size),
            Op::Free(k) => {
                if !live.is_empty() {
                    free(live.swap_remove(k % live.len()), &mut oracle);
                }
            }
            Op::Burst(size, n) => {
                let base = live.len();
                for _ in 0..n {
                    alloc(&mut live, &mut oracle, size);
                }
                while live.len() > base {
                    free(live.pop().unwrap(), &mut oracle);
                }
            }
        }
    }
    let stats = cache.snapshot();
    // Quiescent audit through the cache, with the surviving live set.
    let held: BTreeMap<usize, usize> = live.iter().map(|&(_, off, g)| (off, g)).collect();
    verify_cached(&cache, &held, true).assert_clean();
    // Release everything and drain: the backend must be pristine.
    for (_, off, _) in live {
        cache.dealloc(off);
    }
    cache.drain_all();
    assert_eq!(cache.backend().allocated_bytes(), 0);
    audit_empty(cache.backend()).assert_clean();
    stats
}

/// The thread-exit drain path: `ops` run on a worker thread holding a
/// drain guard over a 64-slot cache (16 depot shards, so a 64 KiB share
/// of the budget each).  The guard leaves no chunk in the worker's slot;
/// the depot keeps what it parked, and a final drain returns the backend
/// to exactly the caller-live set.  Returns the cache's counters and the
/// bytes still parked once the worker is gone.
fn exit_walk(ops: &[Op]) -> (CacheStatsSnapshot, usize) {
    let cache = Arc::new(MagazineCache::with_slots(
        NbbsFourLevel::new(walk_config()),
        64,
    ));
    let worker = {
        let cache = Arc::clone(&cache);
        let ops = ops.to_vec();
        std::thread::spawn(move || {
            let _guard = cache.thread_guard();
            run_ops(&cache, &ops)
        })
    };
    let survivors = worker.join().unwrap();
    let stats = cache.snapshot();
    let parked = cache.cached_bytes();
    // The guard drained the worker's slot; only depot magazines (full
    // ones parked by overflow) may still hold chunks.
    let expected: usize = survivors.iter().map(|&(_, g)| g).sum();
    assert_eq!(cache.allocated_bytes(), expected);
    let live: BTreeMap<usize, usize> = survivors.iter().copied().collect();
    verify_cached(&cache, &live, true).assert_clean();
    cache.drain_all();
    assert_eq!(
        cache.backend().allocated_bytes(),
        expected,
        "drain returned a caller-live chunk (or leaked a parked one)"
    );
    for (off, _) in survivors {
        cache.dealloc(off);
    }
    cache.drain_all();
    assert_eq!(cache.backend().allocated_bytes(), 0);
    audit_empty(cache.backend()).assert_clean();
    (stats, parked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_one_level_matches_oracle_behaviour(ops in ops_strategy()) {
        oracle_walk(&ops);
    }

    #[test]
    fn thread_exit_drain_leaks_nothing(ops in ops_strategy()) {
        exit_walk(&ops);
    }
}

/// Both walks take the depot and the budget's refusal under their checks:
/// magazines are parked and taken back, and some are flushed.
#[test]
fn fixed_walks_cross_the_depot_and_the_budget() {
    let ops = fixed_walk();
    let oracle = oracle_walk(&ops);
    assert!(oracle.depot_exchanges > 0, "{oracle:?}");
    assert!(oracle.flushed > 0, "{oracle:?}");
    assert!(oracle.depot_spills > 0, "{oracle:?}");
    let (exit, parked) = exit_walk(&ops);
    assert!(exit.depot_exchanges > 0, "{exit:?}");
    assert!(exit.flushed > 0, "{exit:?}");
    assert!(parked > 0, "the exit drain emptied the depot");
}

/// Concurrent storm through the cache: chunks never overlap in space while
/// their lifetimes overlap in time, and the backend audits clean at
/// quiescence once drained.
#[test]
fn concurrent_cached_chunks_never_overlap_in_space_and_time() {
    for slots in [1usize, 16] {
        let cache = Arc::new(MagazineCache::with_slots(
            NbbsFourLevel::new(large_class_config()),
            slots,
        ));
        let epoch = Arc::new(AtomicUsize::new(0));
        let log: ChunkLifetimeLog = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let epoch = Arc::clone(&epoch);
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    let _guard = cache.thread_guard();
                    let mut rng = SplitMix64::new(0xCAC4E ^ t as u64);
                    let mut held: Vec<(usize, usize, usize)> = Vec::new();
                    for _ in 0..2_000 {
                        if held.is_empty() || rng.next_u64() & 1 == 0 {
                            let size = LARGE_UNIT << rng.next_below(4);
                            if let Some(off) = cache.alloc(size) {
                                let granted = cache.geometry().granted_size(size).unwrap();
                                let start = epoch.fetch_add(1, Ordering::SeqCst);
                                held.push((off, granted, start));
                            }
                        } else {
                            let (off, granted, start) =
                                held.swap_remove(rng.next_below(held.len()));
                            let end = epoch.fetch_add(1, Ordering::SeqCst);
                            cache.dealloc(off);
                            log.lock().unwrap().push((off, granted, start, end));
                        }
                    }
                    let end = epoch.fetch_add(1, Ordering::SeqCst);
                    let mut l = log.lock().unwrap();
                    for (off, granted, start) in held {
                        cache.dealloc(off);
                        l.push((off, granted, start, end));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let entries = log.lock().unwrap();
        for a in entries.iter() {
            for b in entries.iter() {
                if std::ptr::eq(a, b) {
                    continue;
                }
                let space_overlap = a.0 < b.0 + b.1 && b.0 < a.0 + a.1;
                let time_overlap = a.2 > b.2 && a.2 < b.3;
                assert!(
                    !(space_overlap && time_overlap),
                    "slots={slots}: cached chunk {a:?} overlaps {b:?} in space and time"
                );
            }
        }
        drop(entries);
        assert!(
            cache.snapshot().depot_exchanges > 0,
            "slots={slots}: no depot exchange"
        );
        assert_eq!(cache.allocated_bytes(), 0);
        cache.drain_all();
        assert_eq!(cache.backend().allocated_bytes(), 0);
        audit_empty(cache.backend()).assert_clean();
    }
}

/// Remote (cross-thread) frees through the cache: producers allocate,
/// consumers release, so magazines fill on threads that never allocated.
#[test]
fn cached_remote_frees_conserve_and_audit_clean() {
    use std::sync::mpsc;
    let cache = Arc::new(MagazineCache::new(NbbsOneLevel::new(
        BuddyConfig::new(1 << 16, 8, 1 << 10).unwrap(),
    )));
    let pairs = 3;
    let iters = 1_500usize;
    let mut handles = Vec::new();
    for p in 0..pairs {
        let (tx, rx) = mpsc::channel::<usize>();
        let producer = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.thread_guard();
                let mut rng = SplitMix64::new(p as u64);
                for _ in 0..iters {
                    let size = 8usize << rng.next_below(4);
                    loop {
                        if let Some(off) = cache.alloc(size) {
                            tx.send(off).unwrap();
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            })
        };
        let consumer = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.thread_guard();
                for _ in 0..iters {
                    let off = rx.recv().unwrap();
                    cache.dealloc(off);
                }
            })
        };
        handles.push(producer);
        handles.push(consumer);
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cache.allocated_bytes(), 0, "cached remote frees leaked");
    assert!(
        cache.snapshot().alloc_requests() > 0,
        "cache saw no traffic"
    );
    cache.drain_all();
    assert_eq!(cache.backend().allocated_bytes(), 0);
    audit_empty(cache.backend()).assert_clean();
}

/// The cache must keep offering the backend's full capacity: after heavy
/// cached traffic and a drain, the whole region is allocatable as maximal
/// chunks again.
#[test]
fn drained_cache_restores_full_backend_capacity() {
    let cache = MagazineCache::new(NbbsFourLevel::new(
        BuddyConfig::new(1 << 16, 8, 1 << 12).unwrap(),
    ));
    let mut rng = SplitMix64::new(7);
    let mut held = Vec::new();
    for _ in 0..5_000 {
        if held.is_empty() || rng.next_u64() & 1 == 0 {
            let size = 8usize << rng.next_below(9);
            if let Some(off) = cache.alloc(size) {
                held.push(off);
            }
        } else {
            let off = held.swap_remove(rng.next_below(held.len()));
            cache.dealloc(off);
        }
    }
    for off in held {
        cache.dealloc(off);
    }
    cache.drain_all();
    let max = cache.max_size();
    let mut maximal = Vec::new();
    for _ in 0..cache.total_memory() / max {
        maximal.push(
            cache
                .backend()
                .alloc(max)
                .expect("cache drain lost backend capacity"),
        );
    }
    for off in maximal {
        cache.backend().dealloc(off);
    }
}

/// `drain_cache` must see through nesting: the outer cache drains its own
/// parked chunks first (they land in the inner cache's magazines), then the
/// inner cache drains to the tree — the opposite order would leave the
/// outer's chunks re-parked inside a freshly-drained inner cache.
#[test]
fn nested_cache_drain_reaches_the_tree() {
    let nested = MagazineCache::new(MagazineCache::new(NbbsFourLevel::new(
        BuddyConfig::new(1 << 16, 8, 1 << 10).unwrap(),
    )))
    .with_name("cached-cached-4lvl-nb");
    let mut held = Vec::new();
    for _ in 0..64 {
        if let Some(off) = nested.alloc(64) {
            held.push(off);
        }
    }
    for off in held {
        nested.dealloc(off);
    }
    nested.drain_cache();
    let tree = nested.backend().backend();
    assert_eq!(
        tree.allocated_bytes(),
        0,
        "nested drain left chunks parked in the inner cache"
    );
    audit_empty(tree).assert_clean();
}

/// Depot shard routing: a thread exchanges magazines only with its own
/// slot group's shard — parked magazines land in the calling thread's shard
/// and every other shard stays empty.
#[test]
fn overflow_parks_only_in_the_callers_shard() {
    // Sixteen slots, so four shards.
    let cache = MagazineCache::with_slots(NbbsOneLevel::new(backend_config()), 16);
    assert_eq!(cache.depot_shard_count(), 4);
    let home = cache.current_shard();
    assert!(home < 4);
    assert_eq!(home, cache.current_shard(), "shard routing is stable");
    // Overflow enough same-class chunks to park several full magazines:
    // the 8 B class holds 64 a magazine, two in the slot.
    let offs: Vec<_> = (0..5 * 64).filter_map(|_| cache.alloc(8)).collect();
    assert_eq!(offs.len(), 5 * 64);
    for off in offs {
        cache.dealloc(off);
    }
    assert!(
        cache.depot_parked_magazines(home) >= 2,
        "nothing parked in the caller's shard"
    );
    for shard in 0..cache.depot_shard_count() {
        if shard != home {
            assert_eq!(
                cache.depot_parked_magazines(shard),
                0,
                "magazine leaked into foreign shard {shard}"
            );
        }
    }
    // And the exchange comes back from the same shard.
    cache.drain_current_thread();
    let exchanges_before = cache.snapshot().depot_exchanges;
    let again: Vec<_> = (0..4).filter_map(|_| cache.alloc(8)).collect();
    assert!(cache.snapshot().depot_exchanges > exchanges_before);
    for off in again {
        cache.dealloc(off);
    }
}

/// Adaptive growth converges: a repeated burst that overruns the initial
/// magazine geometry grows the class's capacity until the burst parks
/// entirely — the last repetitions flush nothing to the backend.  The 8 B
/// class starts at 64 entries, so its slot and its shard's 64 depot
/// magazines park 4 224 chunks; the burst is larger.
#[test]
fn adaptive_growth_converges_on_repeated_bursts() {
    const BURST: usize = 6_000;
    let cache = MagazineCache::with_slots(NbbsOneLevel::new(backend_config()), 1);
    let class = 0;
    let initial = cache.magazine_capacity(class);
    assert_eq!(initial, 64);
    assert!(BURST > (2 + 64) * initial);
    let mut flushed_per_burst = Vec::new();
    for _ in 0..10 {
        let before = cache.snapshot().flushed;
        let offs: Vec<_> = (0..BURST).filter_map(|_| cache.alloc(8)).collect();
        assert_eq!(offs.len(), BURST);
        for off in offs {
            cache.dealloc(off);
        }
        flushed_per_burst.push(cache.snapshot().flushed - before);
    }
    let snap = cache.snapshot();
    assert!(snap.resize_grows > 0, "no growth despite sustained spills");
    assert!(
        cache.magazine_capacity(class) > initial,
        "capacity did not grow"
    );
    assert_eq!(
        *flushed_per_burst.last().unwrap(),
        0,
        "burst still spills after convergence: {flushed_per_burst:?}"
    );
    assert!(
        flushed_per_burst[0] > 0,
        "the first burst should overrun the initial geometry"
    );
}

/// Byte-budget pressure flushes without shrinking: with a budget far below
/// the burst's footprint, parking is refused, the refused magazines go back
/// to the backend whole, and the class keeps its capacity.  The 1 KiB
/// class starts at 32 entries, so eight of its magazines fill the 256 KiB
/// budget of the 1 MiB span long before the depot's 64.
#[test]
fn budget_pressure_flushes_without_shrinking() {
    const CLASS_SIZE: usize = 1 << 10;
    let cache = MagazineCache::with_slots(NbbsOneLevel::new(backend_config()), 1);
    let budget = cache.cache_bytes_budget();
    assert_eq!(budget, 256 << 10);
    let class = cache.class_count() - 1;
    assert_eq!(cache.class_size(class), CLASS_SIZE);
    assert_eq!(cache.magazine_capacity(class), 32);
    for _ in 0..6 {
        let offs: Vec<_> = (0..400).filter_map(|_| cache.alloc(CLASS_SIZE)).collect();
        assert_eq!(offs.len(), 400);
        for off in offs {
            cache.dealloc(off);
        }
    }
    let snap = cache.snapshot();
    assert!(snap.depot_spills > 0, "no spill despite budget pressure");
    assert!(snap.flushed > 0, "the refused magazines were not flushed");
    assert_eq!(snap.resize_grows, 0, "budget pressure is no grow signal");
    assert_eq!(
        cache.magazine_capacity(class),
        32,
        "budget pressure changed the capacity"
    );
    assert!(
        cache.cached_bytes() <= budget + 32 * CLASS_SIZE * 2,
        "parked bytes far exceed the budget: {}",
        cache.cached_bytes()
    );
    cache.drain_all();
    assert_eq!(cache.cached_bytes(), 0);
    audit_empty(cache.backend()).assert_clean();
}

/// Bursts of 40 MiB of 16 KiB blocks through one slot and one shard whose
/// default budget is 16 MiB: every burst pushes magazines past the budget.
/// Those go back to the tree, and the class keeps the capacity the first
/// burst grew, so a later burst refills in large batches and misses a few
/// dozen times.  Were the capacity halved on every refusal, each burst
/// would knock it to its floor and the next would miss hundreds of times.
#[test]
fn repeated_bursts_past_the_budget_keep_their_magazines() {
    const CLASS_SIZE: usize = 16 << 10;
    const BURST: usize = 2_560;
    let cache = MagazineCache::with_slots(
        NbbsFourLevel::new(BuddyConfig::new(64 << 20, 32, 64 << 10).unwrap()),
        1,
    );
    assert_eq!(cache.depot_shard_count(), 1);
    assert_eq!(cache.cache_bytes_budget(), 16 << 20);
    assert!(BURST * CLASS_SIZE > cache.cache_bytes_budget());
    let class = cache
        .class_capacities()
        .iter()
        .position(|&(size, _)| size == CLASS_SIZE)
        .expect("16 KiB is a cached class");
    let mut misses = Vec::new();
    let mut capacities = vec![cache.magazine_capacity(class)];
    for _ in 0..8 {
        let before = cache.snapshot().misses;
        let offs: Vec<_> = (0..BURST).filter_map(|_| cache.alloc(CLASS_SIZE)).collect();
        assert_eq!(offs.len(), BURST, "the tree serves the whole burst");
        for off in offs {
            cache.dealloc(off);
        }
        misses.push(cache.snapshot().misses - before);
        capacities.push(cache.magazine_capacity(class));
    }
    assert!(
        cache.snapshot().depot_spills > 0,
        "no burst went past the budget: {misses:?}"
    );
    assert!(
        capacities.windows(2).all(|w| w[1] >= w[0]),
        "the 16 KiB capacity fell: {capacities:?}"
    );
    assert!(
        misses[1..].iter().all(|&m| m <= 40),
        "a burst after the first missed more than 40 times: {misses:?} \
         (capacities {capacities:?})"
    );
    cache.drain_all();
    assert_eq!(cache.cached_bytes(), 0);
    audit_empty(cache.backend()).assert_clean();
}

/// `drain_all` and thread-exit drains see every shard: after concurrent
/// traffic spread over several slot groups, a full drain returns the
/// backend to pristine and leaves no magazine parked anywhere.
#[test]
fn drains_cover_every_depot_shard() {
    // Thirty-two slots, so eight shards: eight threads on consecutive
    // stripes land in eight different shards.
    let cache = Arc::new(MagazineCache::with_slots(
        NbbsFourLevel::new(backend_config()),
        32,
    ));
    assert_eq!(cache.depot_shard_count(), 8);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.thread_guard();
                let shard = cache.current_shard();
                let mut rng = SplitMix64::new(0xD3A1 ^ t as u64);
                let mut held = Vec::new();
                for _ in 0..3_000 {
                    if held.is_empty() || rng.next_u64() & 3 != 0 {
                        let size = 8usize << rng.next_below(4);
                        if let Some(off) = cache.alloc(size) {
                            held.push(off);
                        }
                    } else {
                        let off = held.swap_remove(rng.next_below(held.len()));
                        cache.dealloc(off);
                    }
                }
                for off in held {
                    cache.dealloc(off);
                }
                shard
            })
        })
        .collect();
    let shards_used: std::collections::HashSet<usize> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        !shards_used.is_empty(),
        "threads reported no shard assignment"
    );
    // Thread guards drained the slots; the depot shards still hold parked
    // magazines.  allocated_bytes must already be zero (cache-aware).
    let parked: usize = (0..cache.depot_shard_count())
        .map(|shard| cache.depot_parked_magazines(shard))
        .sum();
    assert!(parked > 0, "no magazine reached a depot shard");
    assert_eq!(cache.allocated_bytes(), 0);
    cache.drain_all();
    for shard in 0..cache.depot_shard_count() {
        assert_eq!(
            cache.depot_parked_magazines(shard),
            0,
            "drain_all left a magazine in shard {shard}"
        );
    }
    assert_eq!(cache.cached_bytes(), 0);
    assert_eq!(cache.backend().allocated_bytes(), 0);
    audit_empty(cache.backend()).assert_clean();
}

/// The parked-byte figure (per-slot magazine sums plus per-shard counters)
/// stays exact under concurrent shard exchanges: at quiescence,
/// `cached_bytes` equals exactly what the backend still considers allocated
/// (nothing is caller-live here).
#[test]
fn cached_bytes_is_exact_after_concurrent_exchanges() {
    // Eight slots, so two shards.
    let cache = Arc::new(MagazineCache::with_slots(
        NbbsFourLevel::new(large_class_config()),
        8,
    ));
    assert_eq!(cache.depot_shard_count(), 2);
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0xB17E5 ^ t as u64);
                let mut held = Vec::new();
                for _ in 0..5_000 {
                    if held.is_empty() || rng.next_u64() & 1 == 0 {
                        if let Some(off) = cache.alloc(LARGE_UNIT << rng.next_below(4)) {
                            held.push(off);
                        }
                    } else {
                        let off = held.swap_remove(rng.next_below(held.len()));
                        cache.dealloc(off);
                    }
                }
                for off in held {
                    cache.dealloc(off);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Quiescent: every chunk the backend holds is parked in the cache, and
    // the per-slot sums and per-shard counters must agree byte for byte.
    assert!(cache.snapshot().depot_exchanges > 0, "no shard exchange");
    assert_eq!(cache.cached_bytes(), cache.backend().allocated_bytes());
    let counted: usize = cache.cached_chunks().iter().map(|&(_, s)| s).sum();
    assert_eq!(cache.cached_bytes(), counted);
    assert_eq!(cache.allocated_bytes(), 0);
}

/// `hits`, `cached_frees` and the parked bytes are derived at read time,
/// under the slot locks, from what the hit path keeps there.  Reading them
/// while every slot is contended must neither wedge nor run backwards, and
/// at quiescence they must equal what the workers themselves counted.
#[test]
fn derived_readouts_hold_under_load_and_are_exact_at_quiescence() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    const WORKERS: usize = 6;
    // Fewer slots than workers: every slot lock is shared.
    let cache = Arc::new(MagazineCache::with_slots(
        NbbsFourLevel::new(large_class_config()),
        2,
    ));
    let start = Arc::new(Barrier::new(WORKERS + 1));
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let (cache, start, done) = (Arc::clone(&cache), Arc::clone(&start), Arc::clone(&done));
        std::thread::spawn(move || {
            start.wait();
            let (mut reads, mut seen) = (0u64, 0u64);
            while !done.load(Ordering::Acquire) {
                let requests = cache.cache_stats().unwrap().alloc_requests();
                assert!(requests >= seen, "hits + misses ran backwards");
                seen = requests;
                std::hint::black_box((cache.cached_bytes(), cache.allocated_bytes()));
                reads += 1;
            }
            reads
        })
    };
    let workers: Vec<_> = (0..WORKERS)
        .map(|t| {
            let (cache, start) = (Arc::clone(&cache), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0x0D0_5EED ^ t as u64);
                let (mut allocs, mut frees) = (0u64, 0u64);
                let mut held: Vec<(usize, usize)> = Vec::new();
                start.wait();
                for _ in 0..5_000 {
                    if held.is_empty() || rng.next_u64() & 1 == 0 {
                        // Four cached classes; powers of two, so the grant
                        // is the request.  The arena never runs dry.
                        let size = LARGE_UNIT << rng.next_below(4);
                        let off = cache.alloc(size).expect("ample headroom");
                        held.push((off, size));
                        allocs += 1;
                    } else {
                        let (off, _) = held.swap_remove(rng.next_below(held.len()));
                        cache.dealloc(off);
                        frees += 1;
                    }
                }
                (allocs, frees, held)
            })
        })
        .collect();
    let (mut allocs, mut frees, mut held) = (0u64, 0u64, Vec::new());
    for w in workers {
        let (a, f, h) = w.join().unwrap();
        allocs += a;
        frees += f;
        held.extend(h);
    }
    done.store(true, Ordering::Release);
    assert!(reader.join().unwrap() > 0, "the reader ran alongside");

    let stats = cache.cache_stats().unwrap();
    assert!(
        stats.depot_exchanges > 0,
        "no depot exchange under the reader"
    );
    assert_eq!(
        stats.alloc_requests(),
        allocs,
        "every allocation hit or missed"
    );
    assert_eq!(stats.cached_frees, frees, "every free was absorbed");
    let parked: usize = cache.cached_chunks().iter().map(|&(_, size)| size).sum();
    assert_eq!(cache.cached_bytes(), parked);
    let live: usize = held.iter().map(|&(_, size)| size).sum();
    assert_eq!(cache.allocated_bytes(), live);

    for (off, _) in held {
        cache.dealloc(off);
    }
    cache.drain_all();
    assert_eq!(cache.cached_bytes(), 0);
    verify_cached_empty(&cache).assert_clean();
    assert_eq!(cache.backend().allocated_bytes(), 0);
}

/// Hit-rate sanity on a recycling workload: most operations must bypass the
/// backend, and backend op-counters (when compiled in) must agree.
#[test]
fn recycling_workload_mostly_hits() {
    let cache = MagazineCache::new(NbbsOneLevel::new(backend_config()));
    // Warm up one magazine, then recycle the same class.
    let warm: Vec<_> = (0..8).filter_map(|_| cache.alloc(64)).collect();
    for off in warm {
        cache.dealloc(off);
    }
    for _ in 0..1_000 {
        let off = cache.alloc(64).unwrap();
        cache.dealloc(off);
    }
    let s = cache.snapshot();
    assert!(
        s.hit_rate() > 0.95,
        "recycling workload should almost always hit, got {}",
        s.hit_rate()
    );
    if nbbs::OpStats::enabled() {
        let backend_ops = cache.backend().stats();
        assert!(
            backend_ops.allocs + backend_ops.frees < 2 * 1_008,
            "backend saw traffic the cache should have absorbed"
        );
    }
}

/// The owner/remote hand-over under fire: owners churn hits on slots they
/// claimed, more threads than slots crowd the stripes' shared slots, threads exit
/// (giving their slot up through the drain guard, or — one of them — not)
/// and the next wave claims what was released, while a reader keeps
/// entering every slot as a remote with `drain_all`, `cached_bytes`,
/// `snapshot` and `cached_chunks`.  Every chunk handed out is tagged unit
/// by unit, so one given to two live holders at once is caught at the
/// second grant; at the end the tallies count every allocation call and
/// the drained cache audits empty.
#[test]
fn owned_slots_survive_a_storm_of_owners_sharers_exits_and_remote_readers() {
    const SLOTS: usize = 4;
    const WAVES: usize = 4;
    const PER_WAVE: usize = 6;
    const OPS: usize = 3_000;
    let cache = Arc::new(MagazineCache::with_slots(
        NbbsFourLevel::new(large_class_config()),
        SLOTS,
    ));
    // One tag per allocation unit: 0 while no live holder covers it.
    let tags: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..LARGE_TOTAL / LARGE_UNIT)
            .map(|_| AtomicUsize::new(0))
            .collect(),
    );
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let (cache, done) = (Arc::clone(&cache), Arc::clone(&done));
        std::thread::spawn(move || {
            let (mut rounds, mut seen) = (0u64, 0u64);
            while !done.load(Ordering::Acquire) {
                match rounds % 4 {
                    0 => cache.drain_all(),
                    1 => {
                        std::hint::black_box(cache.cached_bytes());
                    }
                    2 => {
                        let requests = cache.snapshot().alloc_requests();
                        assert!(requests >= seen, "hits + misses ran backwards");
                        seen = requests;
                    }
                    _ => {
                        std::hint::black_box(cache.cached_chunks());
                    }
                }
                rounds += 1;
            }
            rounds
        })
    };
    let mut allocs = 0u64;
    for wave in 0..WAVES {
        let workers: Vec<_> = (0..PER_WAVE)
            .map(|t| {
                let (cache, tags) = (Arc::clone(&cache), Arc::clone(&tags));
                std::thread::spawn(move || {
                    let tag = wave * PER_WAVE + t + 1;
                    // The first thread of the first wave dies holding its
                    // slot: later threads mapping there share.
                    let _guard = ((wave, t) != (0, 0)).then(|| cache.thread_guard());
                    let mut rng = SplitMix64::new(0x5707_0000 ^ tag as u64);
                    let mut held: Vec<(usize, usize)> = Vec::new();
                    let mut allocs = 0u64;
                    let release = |off: usize, size: usize| {
                        for unit in off / LARGE_UNIT..(off + size) / LARGE_UNIT {
                            tags[unit].store(0, Ordering::Release);
                        }
                        cache.dealloc(off);
                    };
                    for _ in 0..OPS {
                        if held.is_empty() || rng.next_u64() & 1 == 0 {
                            let size = LARGE_UNIT << rng.next_below(4);
                            let off = cache.alloc(size).expect("ample headroom");
                            allocs += 1;
                            for unit in off / LARGE_UNIT..(off + size) / LARGE_UNIT {
                                let prior = tags[unit].swap(tag, Ordering::AcqRel);
                                assert_eq!(prior, 0, "unit {unit} of {off} held by {prior} too");
                            }
                            held.push((off, size));
                        } else {
                            let (off, size) = held.swap_remove(rng.next_below(held.len()));
                            release(off, size);
                        }
                    }
                    for (off, size) in held {
                        release(off, size);
                    }
                    allocs
                })
            })
            .collect();
        for w in workers {
            allocs += w.join().unwrap();
        }
    }
    done.store(true, Ordering::Release);
    assert!(reader.join().unwrap() > 0, "the reader ran alongside");
    let stats = cache.snapshot();
    assert_eq!(stats.alloc_requests(), allocs);
    assert!(stats.depot_exchanges > 0, "no depot exchange in the storm");
    assert_eq!(cache.allocated_bytes(), 0);
    cache.drain_all();
    verify_cached_empty(&cache).assert_clean();
    assert_eq!(cache.backend().allocated_bytes(), 0);
}

/// The shape of the shipped cache, `MagazineCache<BuddyRegion<NbbsFourLevel>>`
/// on the global shell's 64 MiB / 32 B / 64 KiB: twelve classes, each
/// starting with `clamp(32 KiB / class, 2, 64)` entries, a budget of a
/// quarter of the span, a slot table of `default_stripes()` and one depot
/// shard per four slots.
#[test]
fn the_shipped_cache_has_the_shipped_shape() {
    let tree = NbbsFourLevel::new(BuddyConfig::new(64 << 20, 32, 64 << 10).unwrap());
    let cache = MagazineCache::new(nbbs::BuddyRegion::new(tree));
    let classes: Vec<usize> = (0..cache.class_count())
        .map(|c| cache.class_size(c))
        .collect();
    assert_eq!(classes, (0..12).map(|k| 32 << k).collect::<Vec<_>>());
    let capacities: Vec<usize> = (0..12).map(|c| cache.magazine_capacity(c)).collect();
    assert_eq!(capacities, [64, 64, 64, 64, 64, 32, 16, 8, 4, 2, 2, 2]);
    assert_eq!(cache.cache_bytes_budget(), 16 << 20);
    assert_eq!(cache.slot_count(), nbbs_sync::default_stripes());
    assert_eq!(cache.depot_shard_count(), (cache.slot_count() / 4).max(1));
}
