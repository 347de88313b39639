//! Differential and cross-node routing tests of the `nbbs-numa` stack:
//! `NbbsAllocator<MagazineCache<NodeSet<NbbsFourLevel>>>` against the
//! shared System-mirror walk (`tests/common`), plus cross-node free
//! routing with and without the magazine cache interposed.

mod common;

use std::alloc::Layout;
use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use common::Front;
use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel, NbbsOneLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_cache::{verify_cached_empty, MagazineCache};
use nbbs_numa::{NodePolicy, NodeSet, Topology};

const PER_NODE: usize = 1 << 18;
const MIN: usize = 16;
const MAX: usize = 1 << 13;
const NODES: usize = 3; // deliberately not a power of two: widening rounds to 4

fn node_set(nodes: usize) -> NodeSet<NbbsFourLevel> {
    let config = BuddyConfig::new(PER_NODE, MIN, MAX).unwrap();
    NodeSet::with_topology(
        (0..nodes).map(|_| NbbsFourLevel::new(config)).collect(),
        Topology::synthetic(nodes),
        NodePolicy::HomeFirst,
    )
}

type Stack = NbbsAllocator<MagazineCache<NodeSet<NbbsFourLevel>>>;

fn facade() -> Stack {
    NbbsAllocator::new(MagazineCache::new(node_set(NODES)))
}

impl Front for Stack {
    fn night(&self) {
        self.region().scrub_pass();
    }
    fn live_bytes(&self) -> Option<usize> {
        Some(self.allocated_bytes())
    }
    /// Every node's tree is back to empty once the cache is drained.
    fn audit(&self) {
        self.backend().drain_all();
        let set = self.backend().backend();
        assert_eq!(set.allocated_bytes(), 0);
        for i in 0..set.node_count() {
            nbbs::verify::audit_empty(set.node(i)).assert_clean();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The multi-node facade agrees with the System mirror: contents
    /// preserved, alignment honoured, no overlap across node boundaries.
    #[test]
    fn numa_facade_matches_system_oracle(ops in common::ops(1..150, common::layouts(5000, 12), 5000)) {
        common::walk(&facade(), ops);
    }
}

/// Bare cross-node free routing: blocks allocated on an explicit node are
/// freed from a thread homed elsewhere, and land back on the owner.
#[test]
fn cross_node_frees_route_to_the_owning_node() {
    let set = Arc::new(node_set(4));
    // Allocate a batch on every node explicitly from this thread.
    let mut offs = Vec::new();
    for node in 0..4 {
        for _ in 0..16 {
            let off = set.alloc_on(node, 1024).expect("fresh node has room");
            assert_eq!(set.owner_of(off), node);
            offs.push(off);
        }
    }
    let per_before = set.allocated_bytes_per_node();
    assert_eq!(per_before, vec![16 * 1024; 4]);
    // Free everything from a different (spawned) thread, whichever node it
    // is homed on: pure offset arithmetic must return each chunk home.
    let freer_set = Arc::clone(&set);
    std::thread::spawn(move || {
        for off in offs {
            freer_set.dealloc(off);
        }
    })
    .join()
    .unwrap();
    assert_eq!(set.allocated_bytes_per_node(), vec![0; 4]);
    // Every node can serve its maximal chunk again: nothing leaked across.
    for node in 0..4 {
        let off = set
            .alloc_on(node, PER_NODE.min(MAX))
            .expect("capacity back");
        set.dealloc(off);
    }
    for i in 0..4 {
        nbbs::verify::audit_empty(set.node(i)).assert_clean();
    }
}

/// Four nodes is where a `0..n` scan and nearest-first diverge: for a
/// thread homed on `h`, the *wrapped* neighbour `h-1` must be probed before
/// the distance-2 node `h+2`.
#[test]
fn fallback_respects_ring_distance_with_an_even_node_count() {
    let node = || NbbsOneLevel::new(BuddyConfig::new(4096, 64, 4096).unwrap());
    let set = NodeSet::new((0..4).map(|_| node()).collect());
    let home = set.home_node();
    let mut held = vec![
        set.alloc_on(home, 4096).expect("a fresh node serves"),
        set.alloc_on((home + 1) % 4, 4096)
            .expect("a fresh node serves"),
    ];
    // Home and home+1 are full: the next routed allocation must take the
    // wrapped distance-1 neighbour, not march on to home+2.
    for expected in [(home + 3) % 4, (home + 2) % 4] {
        let spill = set.alloc(4096).expect("a node still has room");
        assert_eq!(set.owner_of(spill), expected);
        held.push(spill);
    }
    for off in held {
        set.dealloc(off);
    }
    assert_eq!(set.allocated_bytes(), 0);
}

/// Random alloc/free churn from more threads than nodes: whichever thread
/// frees, every chunk goes back to the tree that owns it.
#[test]
fn spill_and_owner_return_survive_concurrent_churn() {
    let config = BuddyConfig::new(1 << 14, 64, 1 << 12).unwrap();
    let set = NodeSet::new((0..3).map(|_| NbbsFourLevel::new(config)).collect());
    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let set = &set;
            scope.spawn(move || {
                let mut rng = nbbs_workloads::rng::SplitMix64::new(0x11AC ^ t);
                let mut live = Vec::new();
                for _ in 0..3_000 {
                    if live.is_empty() || rng.next_u64() & 1 == 0 {
                        if let Some(off) = set.alloc(64usize << rng.next_below(5)) {
                            assert!(set.owner_of(off) < 3);
                            live.push(off);
                        }
                    } else {
                        set.dealloc(live.swap_remove(rng.next_below(live.len())));
                    }
                }
                for off in live {
                    set.dealloc(off);
                }
            });
        }
    });
    assert_eq!(set.allocated_bytes_per_node(), vec![0; 3]);
    for node in 0..3 {
        nbbs::verify::audit_empty(set.node(node)).assert_clean();
    }
}

/// Audits every node of a cache-over-`NodeSet` stack: the caller-live map
/// (global offsets) is merged with the cache's parked chunks — parked is
/// live to the trees — and projected onto each node's local offsets.  The
/// multi-node equivalent of `nbbs_cache::verify_cached`, which needs a
/// single inspectable tree and so cannot see through the router.
fn audit_nodes_cached(
    cache: &MagazineCache<NodeSet<NbbsFourLevel>>,
    live: &BTreeMap<usize, usize>,
) {
    let mut merged = live.clone();
    for (off, size) in cache.cached_chunks() {
        assert!(
            merged.insert(off, size).is_none(),
            "offset {off} reached two owners (parked twice, or parked while caller-live)"
        );
    }
    let set = cache.backend();
    for node in 0..set.node_count() {
        let node_live: BTreeMap<usize, usize> = merged
            .iter()
            .filter(|&(&off, _)| set.owner_of(off) == node)
            .map(|(&off, &size)| (off % set.node_memory(), size))
            .collect();
        nbbs::verify::audit(set.node(node), &node_live, true).assert_clean();
    }
}

/// Cross-node traffic *through the cache*: a thread homed on one node
/// allocates, a thread homed elsewhere frees; the remote chunks park in the
/// freeing thread's magazines, the cached per-node audit stays clean
/// throughout, and a full drain returns every chunk to its owning tree.
#[test]
fn cached_cross_node_traffic_drains_clean() {
    let cache = Arc::new(MagazineCache::new(node_set(2)));

    // Producer thread: allocate a pile of chunks (its home node serves
    // them, possibly with fallback).
    let producer = Arc::clone(&cache);
    let offs: Vec<usize> = std::thread::spawn(move || {
        (0..200)
            .map(|i| {
                let size = MIN << (i % 4);
                producer.alloc(size).expect("plenty of room")
            })
            .collect()
    })
    .join()
    .unwrap();

    // Mid-flight: caller-live blocks plus refill-parked chunks must cover
    // every occupied tree node, on both trees.
    let set_live: BTreeMap<usize, usize> = offs
        .iter()
        .enumerate()
        .map(|(i, &off)| (off, MIN << (i % 4)))
        .collect();
    audit_nodes_cached(&cache, &set_live);

    // Consumer thread: free everything; remote chunks flow through *its*
    // magazines.
    let consumer = Arc::clone(&cache);
    std::thread::spawn(move || {
        for off in offs {
            consumer.dealloc(off);
        }
    })
    .join()
    .unwrap();
    assert_eq!(cache.allocated_bytes(), 0, "nothing user-live");

    // With parked chunks still in magazines, the cached audit is the one
    // that must pass (a bare audit would flag them as stray occupancy).
    audit_nodes_cached(&cache, &BTreeMap::new());

    // Draining pushes every parked chunk back through the arithmetic free
    // routing to its owner tree.
    cache.drain_all();
    audit_nodes_cached(&cache, &BTreeMap::new());
    let set = cache.backend();
    assert_eq!(set.allocated_bytes_per_node(), vec![0; 2]);
    for i in 0..2 {
        nbbs::verify::audit_empty(set.node(i)).assert_clean();
    }
}

/// Per-node caches under the router (the other nesting direction):
/// `NodeSet<MagazineCache<NbbsFourLevel>>` routes, caches per node, and
/// each node's `verify_cached_empty` stays clean after cross-node churn.
#[test]
fn per_node_caches_verify_clean_after_cross_node_churn() {
    let config = BuddyConfig::new(PER_NODE, MIN, MAX).unwrap();
    let set = Arc::new(NodeSet::with_topology(
        (0..2)
            .map(|_| MagazineCache::new(NbbsFourLevel::new(config)))
            .collect::<Vec<_>>(),
        Topology::synthetic(2),
        NodePolicy::HomeFirst,
    ));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                let mut live = Vec::new();
                for i in 0..2_000usize {
                    let size = MIN << ((i + t) % 4);
                    if let Some(off) = set.alloc(size) {
                        live.push(off);
                    }
                    if live.len() > 24 {
                        // Free in FIFO order: chunks frequently return from
                        // a different thread phase than allocated them.
                        set.dealloc(live.remove(0));
                    }
                }
                for off in live {
                    set.dealloc(off);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(set.allocated_bytes(), 0);
    // The merged cache telemetry is visible through the router.
    assert!(set.cache_stats().expect("per-node caches").alloc_requests() > 0);
    for node in 0..2 {
        verify_cached_empty(set.node(node)).assert_clean();
    }
    set.drain_cache();
    for node in 0..2 {
        assert_eq!(set.node(node).backend().allocated_bytes(), 0);
        nbbs::verify::audit_empty(set.node(node).backend()).assert_clean();
    }
}

/// The facade's oversize fail-over stays per-node: a request above the
/// per-node ceiling is rejected by the widened geometry (`TooLarge`), never
/// silently split across nodes.
#[test]
fn oversize_requests_fail_over_per_node() {
    let alloc = facade();
    let too_big = Layout::from_size_align(MAX + 1, 8).unwrap();
    assert!(alloc.allocate(too_big).is_err(), "above per-node max_size");
    assert_eq!(alloc.backend().granted_size_for(MAX + 1), None);
    // At exactly the per-node ceiling the buddy serves it.
    let ceiling = Layout::from_size_align(MAX, 8).unwrap();
    let block = alloc.allocate(ceiling).expect("per-node max is servable");
    assert_eq!(block.len(), MAX);
    unsafe { alloc.deallocate(block.cast(), ceiling) };
    assert_eq!(alloc.allocated_bytes(), 0);
}

/// A cache's checked release measures an offset against the span its
/// backend manages, not the widened geometry: over three nodes the fourth,
/// phantom slot is out of range, and the cache says so with the same span
/// the set itself reports.
#[test]
fn cached_checked_release_reports_the_logical_span() {
    use nbbs::FreeError;
    let set = node_set(NODES);
    let logical = NODES * PER_NODE;
    assert_eq!(set.total_memory(), logical);
    assert_eq!(set.geometry().total_memory(), 4 * PER_NODE, "widened");
    let expected = Err(FreeError::OutOfRange {
        offset: logical,
        total_memory: logical,
    });
    assert_eq!(set.try_dealloc(logical), expected);
    let cache = MagazineCache::new(set);
    assert_eq!(cache.try_dealloc(logical), expected);
    // An offset no slot owns is out of range before it is misaligned.
    assert!(matches!(
        cache.try_dealloc(logical + 3),
        Err(FreeError::OutOfRange { .. })
    ));
}
