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
use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel, NbbsOneLevel, ScanPolicy};
use nbbs_baselines::ReferenceBuddy;
use nbbs_cache::{verify_cached, verify_cached_empty, CacheConfig, MagazineCache};
use nbbs_workloads::rng::SplitMix64;

// Generous headroom: the worst-case generated live set (~300 KiB granted)
// plus the cache's bounded working set stays far below the region size, so
// allocation success must match the oracle exactly.
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

fn small_cache_config() -> CacheConfig {
    CacheConfig {
        magazine_capacity: 8,
        magazine_bytes: 512,
        depot_magazines: 2,
        slots: Some(1),
        ..CacheConfig::default()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    Free(usize),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (1usize..=MAX).prop_map(Op::Alloc),
            2 => (0usize..64).prop_map(Op::Free),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Behavioural differential against the oracle: the cached allocator
    /// succeeds exactly when the oracle does (the workload leaves ample
    /// headroom for the bounded magazine working set), conserves accounting,
    /// and never hands out overlapping or misaligned chunks.
    #[test]
    fn cached_one_level_matches_oracle_behaviour(ops in ops_strategy()) {
        let mut oracle = ReferenceBuddy::new(backend_config());
        let cache = MagazineCache::with_config(
            NbbsOneLevel::new(backend_config()),
            small_cache_config(),
        );
        let geo = *cache.geometry();
        let mut oracle_live: Vec<usize> = Vec::new();
        let mut cache_live: Vec<(usize, usize)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Alloc(size) => {
                    let expected = oracle.alloc(size);
                    let got = cache.alloc(size);
                    prop_assert_eq!(
                        expected.is_some(),
                        got.is_some(),
                        "alloc({}) success diverged from oracle", size
                    );
                    if let Some(off) = got {
                        let granted = geo.granted_size(size).unwrap();
                        prop_assert!(off + granted <= geo.total_memory());
                        prop_assert_eq!(off % granted, 0, "misaligned cached chunk");
                        for &(o, g) in &cache_live {
                            prop_assert!(off + granted <= o || o + g <= off,
                                "cache handed out overlapping chunks");
                        }
                        cache_live.push((off, granted));
                    }
                    if let Some(off) = expected {
                        oracle_live.push(off);
                    }
                }
                Op::Free(k) => {
                    if oracle_live.is_empty() { continue; }
                    let i = k % oracle_live.len();
                    oracle.dealloc(oracle_live.swap_remove(i));
                    let (off, _) = cache_live.swap_remove(i);
                    cache.dealloc(off);
                }
            }
            prop_assert_eq!(cache.allocated_bytes(), oracle.allocated_bytes(),
                "user-visible accounting diverged from oracle");
        }
        // Quiescent audit through the cache, with the surviving live set.
        let live: BTreeMap<usize, usize> =
            cache_live.iter().map(|&(off, granted)| (off, granted)).collect();
        verify_cached(&cache, &live, true).assert_clean();
        // Release everything and drain: the backend must be pristine.
        for (off, _) in cache_live {
            cache.dealloc(off);
        }
        cache.drain_all();
        prop_assert_eq!(cache.backend().allocated_bytes(), 0);
        audit_empty(cache.backend()).assert_clean();
    }

    /// The thread-exit drain path: every operation sequence, executed on a
    /// worker thread holding a drain guard, leaves no chunk parked in the
    /// worker's slot once the thread exits; a final depot drain returns the
    /// backend to exactly the caller-live set.
    #[test]
    fn thread_exit_drain_leaks_nothing(ops in ops_strategy()) {
        let cache = Arc::new(MagazineCache::with_config(
            NbbsFourLevel::new(backend_config()),
            CacheConfig {
                magazine_capacity: 8,
                magazine_bytes: 512,
                depot_magazines: 2,
                slots: Some(64),
                ..CacheConfig::default()
            },
        ));
        let worker = {
            let cache = Arc::clone(&cache);
            let ops = ops.clone();
            std::thread::spawn(move || {
                let _guard = cache.thread_guard();
                let mut live: Vec<(usize, usize)> = Vec::new();
                for op in ops {
                    match op {
                        Op::Alloc(size) => {
                            if let Some(off) = cache.alloc(size) {
                                let granted = cache.geometry().granted_size(size).unwrap();
                                live.push((off, granted));
                            }
                        }
                        Op::Free(k) => {
                            if live.is_empty() { continue; }
                            let (off, _) = live.swap_remove(k % live.len());
                            cache.dealloc(off);
                        }
                    }
                }
                live
            })
        };
        let survivors = worker.join().unwrap();
        // The guard drained the worker's slot; only depot magazines (full
        // ones parked by overflow) may still hold chunks.
        let expected: usize = survivors.iter().map(|&(_, g)| g).sum();
        prop_assert_eq!(cache.allocated_bytes(), expected);
        let live: BTreeMap<usize, usize> = survivors.iter().copied().collect();
        verify_cached(&cache, &live, true).assert_clean();
        cache.drain_all();
        prop_assert_eq!(cache.backend().allocated_bytes(), expected,
            "drain returned a caller-live chunk (or leaked a parked one)");
        for (off, _) in survivors {
            cache.dealloc(off);
        }
        cache.drain_all();
        prop_assert_eq!(cache.backend().allocated_bytes(), 0);
        audit_empty(cache.backend()).assert_clean();
    }
}

/// Concurrent storm through the cache: chunks never overlap in space while
/// their lifetimes overlap in time, and the backend audits clean at
/// quiescence once drained.
#[test]
fn concurrent_cached_chunks_never_overlap_in_space_and_time() {
    for slots in [1usize, 16] {
        let cache = Arc::new(MagazineCache::with_config(
            NbbsFourLevel::new(BuddyConfig::new(1 << 16, 8, 1 << 10).unwrap()),
            CacheConfig {
                magazine_capacity: 8,
                magazine_bytes: 1 << 10,
                slots: Some(slots),
                ..CacheConfig::default()
            },
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
                            let size = 8usize << rng.next_below(8);
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
    let nested = MagazineCache::with_config_and_name(
        MagazineCache::new(NbbsFourLevel::new(
            BuddyConfig::new(1 << 16, 8, 1 << 10).unwrap(),
        )),
        CacheConfig::default(),
        "cached-cached-4lvl-nb",
    );
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
    let cache = MagazineCache::with_config(
        NbbsOneLevel::new(backend_config()),
        CacheConfig {
            magazine_capacity: 4,
            magazine_bytes: 32,
            depot_magazines: 8,
            slots: Some(4),
            depot_shards: Some(4),
            ..CacheConfig::default()
        },
    );
    assert_eq!(cache.depot_shard_count(), 4);
    let home = cache.current_shard();
    assert!(home < 4);
    assert_eq!(home, cache.current_shard(), "shard routing is stable");
    // Overflow enough same-class chunks to park several full magazines.
    let offs: Vec<_> = (0..32).filter_map(|_| cache.alloc(8)).collect();
    assert_eq!(offs.len(), 32);
    for off in offs {
        cache.dealloc(off);
    }
    assert!(
        cache.depot_parked_magazines(home) > 0,
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
/// entirely — the last repetitions flush nothing to the backend.
#[test]
fn adaptive_growth_converges_on_repeated_bursts() {
    let cache = MagazineCache::with_config(
        NbbsOneLevel::new(backend_config()),
        CacheConfig {
            magazine_capacity: 4,
            magazine_bytes: 32,
            depot_magazines: 1,
            slots: Some(1),
            max_magazine_capacity: 128,
            ..CacheConfig::default()
        },
    );
    let class = 0;
    let initial = cache.magazine_capacity(class);
    assert_eq!(initial, 4);
    let mut flushed_per_burst = Vec::new();
    for _ in 0..10 {
        let before = cache.snapshot().flushed;
        let offs: Vec<_> = (0..100).filter_map(|_| cache.alloc(8)).collect();
        assert_eq!(offs.len(), 100);
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
/// to the backend whole, and the class keeps its capacity.
#[test]
fn budget_pressure_flushes_without_shrinking() {
    let cache = MagazineCache::with_config(
        NbbsOneLevel::new(backend_config()),
        CacheConfig {
            magazine_capacity: 16,
            magazine_bytes: 16 * 8,
            depot_magazines: 8,
            slots: Some(1),
            cache_bytes_budget: Some(256),
            ..CacheConfig::default()
        },
    );
    let class = 0;
    assert_eq!(cache.magazine_capacity(class), 16);
    for _ in 0..6 {
        let offs: Vec<_> = (0..120).filter_map(|_| cache.alloc(8)).collect();
        for off in offs {
            cache.dealloc(off);
        }
    }
    let snap = cache.snapshot();
    assert!(snap.depot_spills > 0, "no spill despite budget pressure");
    assert!(snap.flushed > 0, "the refused magazines were not flushed");
    assert_eq!(
        cache.magazine_capacity(class),
        16,
        "budget pressure changed the capacity"
    );
    assert!(
        cache.cached_bytes() <= 256 + 16 * 8 * 2,
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
    let cache = MagazineCache::with_config(
        NbbsFourLevel::new(BuddyConfig::new(64 << 20, 32, 64 << 10).unwrap()),
        CacheConfig {
            slots: Some(1),
            depot_shards: Some(1),
            ..CacheConfig::default()
        },
    );
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
    let cache = Arc::new(MagazineCache::with_config(
        NbbsFourLevel::new(backend_config()),
        CacheConfig {
            magazine_capacity: 8,
            magazine_bytes: 64,
            depot_magazines: 16,
            slots: Some(8),
            depot_shards: Some(8),
            ..CacheConfig::default()
        },
    ));
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
    // Thread guards drained the slots; the depot shards may still hold
    // parked magazines.  allocated_bytes must already be zero (cache-aware).
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
    let cache = Arc::new(MagazineCache::with_config(
        NbbsFourLevel::new(backend_config()),
        CacheConfig {
            magazine_capacity: 8,
            magazine_bytes: 64,
            depot_magazines: 4,
            slots: Some(4),
            depot_shards: Some(2),
            ..CacheConfig::default()
        },
    ));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0xB17E5 ^ t as u64);
                let mut held = Vec::new();
                for _ in 0..5_000 {
                    if held.is_empty() || rng.next_u64() & 1 == 0 {
                        if let Some(off) = cache.alloc(8 << rng.next_below(3)) {
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
    let cache = Arc::new(MagazineCache::with_config(
        NbbsFourLevel::new(backend_config()),
        CacheConfig {
            magazine_capacity: 8,
            magazine_bytes: 256,
            depot_magazines: 4,
            // Fewer slots than workers: every slot lock is shared.
            slots: Some(2),
            ..CacheConfig::default()
        },
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
                        let size = 8usize << rng.next_below(4);
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
    let cache = Arc::new(MagazineCache::with_config(
        NbbsFourLevel::new(backend_config()),
        CacheConfig {
            magazine_capacity: 8,
            magazine_bytes: 256,
            depot_magazines: 4,
            slots: Some(SLOTS),
            ..CacheConfig::default()
        },
    ));
    // One tag per allocation unit: 0 while no live holder covers it.
    let tags: Arc<Vec<AtomicUsize>> =
        Arc::new((0..TOTAL / MIN).map(|_| AtomicUsize::new(0)).collect());
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
                        for unit in off / MIN..(off + size) / MIN {
                            tags[unit].store(0, Ordering::Release);
                        }
                        cache.dealloc(off);
                    };
                    for _ in 0..OPS {
                        if held.is_empty() || rng.next_u64() & 1 == 0 {
                            let size = MIN << rng.next_below(4);
                            let off = cache.alloc(size).expect("ample headroom");
                            allocs += 1;
                            for unit in off / MIN..(off + size) / MIN {
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
    assert_eq!(cache.snapshot().alloc_requests(), allocs);
    assert_eq!(cache.allocated_bytes(), 0);
    cache.drain_all();
    verify_cached_empty(&cache).assert_clean();
    assert_eq!(cache.backend().allocated_bytes(), 0);
}
