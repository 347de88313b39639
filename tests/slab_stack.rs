//! Integration tests of the full slab stack:
//! `NbbsAllocator<MagazineCache<SlabBackend<NbbsFourLevel>>>` against the
//! shared System-mirror walk (`tests/common`, with the size mix biased
//! below the slab cutoff), cross-thread frees routed back to the owning
//! slab page, fault storms during page grants, and composition of the slab
//! under the `Recorded`, `FaultInjecting` and `NodeSet` wrappers.

mod common;

use std::alloc::Layout;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::Arc;

use proptest::prelude::*;

use common::Front;
use nbbs::{AllocError, BuddyBackend, BuddyConfig, ElasticSet, NbbsFourLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_cache::MagazineCache;
use nbbs_chaos::{FaultInjecting, FaultPlan};
use nbbs_numa::{NodePolicy, NodeSet, Topology};
use nbbs_obs::{OpKind, Recorded, Recorder};
use nbbs_slab::SlabBackend;
use nbbs_workloads::rng::SplitMix64;

const TOTAL: usize = 1 << 20;
const MIN: usize = 64;
/// The tree's largest block, so the slabs carve 8 KiB pages.
const MAX: usize = 8 << 10;

fn cfg() -> BuddyConfig {
    BuddyConfig::new(TOTAL, MIN, MAX).unwrap()
}

fn slab() -> SlabBackend<NbbsFourLevel> {
    SlabBackend::new(NbbsFourLevel::new(cfg())).with_name("slab-4lvl-nb")
}

type Stack = NbbsAllocator<MagazineCache<SlabBackend<NbbsFourLevel>>>;

fn slab_stack() -> Stack {
    NbbsAllocator::new(MagazineCache::new(slab()))
}

/// Drains the whole stack (magazines, then warm slab pages) and proves the
/// innermost tree is back to a fully-coalesced empty state.
fn assert_stack_quiescent(stack: &Stack) {
    assert_eq!(stack.allocated_bytes(), 0, "no user-live memory");
    stack.backend().drain_cache();
    assert_eq!(stack.backend().cached_bytes(), 0, "magazines fully drained");
    let tree = stack.backend().backend().inner();
    assert_eq!(tree.allocated_bytes(), 0, "slab retired every page");
    nbbs::verify::audit_empty(tree).assert_clean();
}

impl Front for Stack {
    fn night(&self) {
        self.region().scrub_pass();
    }
    fn live_bytes(&self) -> Option<usize> {
        Some(self.allocated_bytes())
    }
    fn audit(&self) {
        assert_stack_quiescent(self);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The slab-fronted facade agrees with the System mirror.  Most sizes
    /// sit at or below the 2 KiB cutoff, so the slab classes serve them;
    /// their offsets are not power-of-two aligned, which exercises the
    /// facade's alignment bump.  The tail crosses into the buddy
    /// passthrough.
    #[test]
    fn slab_stack_matches_system_oracle(
        ops in common::ops(
            1..120,
            prop_oneof![
                4 => common::layouts(2048, 9),
                1 => common::layouts(6000, 12).prop_map(|(size, align)| (2048 + size, align)),
            ],
            4000,
        )
    ) {
        common::walk(&slab_stack(), ops);
    }
}

/// Blocks allocated on one thread and released on others must route back to
/// the owning slab page (a class offset freed on a foreign thread first
/// parks in that thread's magazines, then flows through the slab's
/// page-state lookup on flush) — the Larson-style hand-off pattern.
#[test]
fn cross_thread_frees_route_to_the_owning_page() {
    let stack = Arc::new(slab_stack());
    let layout = Layout::from_size_align(40, 8).unwrap();
    let producer = Arc::clone(&stack);
    let blocks: Vec<usize> = std::thread::spawn(move || {
        (0..600)
            .map(|_| producer.allocate(layout).unwrap().cast::<u8>().as_ptr() as usize)
            .collect()
    })
    .join()
    .unwrap();
    // Split the release across two consumer threads, neither the producer.
    let mid = blocks.len() / 2;
    let halves = [blocks[..mid].to_vec(), blocks[mid..].to_vec()];
    let handles: Vec<_> = halves
        .into_iter()
        .map(|half| {
            let consumer = Arc::clone(&stack);
            std::thread::spawn(move || {
                for addr in half {
                    let ptr = NonNull::new(addr as *mut u8).unwrap();
                    unsafe { consumer.deallocate(ptr, layout) };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Freed objects park in the consumers' magazines first; the drain
    // pushes them through the slab's page-state lookup.
    assert_eq!(stack.allocated_bytes(), 0, "no user-live memory");
    stack.backend().drain_cache();
    let frag = stack.backend().backend().frag_snapshot();
    assert_eq!(frag.live_objects(), 0, "every cross-thread free landed");
    assert_stack_quiescent(&stack);
}

/// Transient and OOM faults firing during slab page grants degrade per the
/// PR 7 semantics — transients surface as `AllocError::Transient`, hard OOM
/// falls back to a buddy passthrough grant — and no partially-granted page
/// is ever orphaned: after the storm, a drain returns the tree to a fully
/// coalesced empty state.
#[test]
fn fault_storm_during_page_grants_orphans_nothing() {
    let injected = FaultInjecting::new(NbbsFourLevel::new(cfg()), FaultPlan::storm(0x51AB_5EED));
    let slab = SlabBackend::new(injected);
    let mut rng = SplitMix64::new(0x51AB_5EED);
    let mut live: Vec<usize> = Vec::new();
    let mut transients = 0u64;
    for _ in 0..30_000 {
        if live.is_empty() || rng.next_u64() & 1 == 0 {
            // Sizes across the class ladder plus the passthrough tail.
            let size = 8usize << rng.next_below(10); // 8 B .. 4 KiB
            match slab.try_alloc(size) {
                Ok(off) => live.push(off),
                Err(AllocError::Transient { .. }) => transients += 1,
                Err(_) => {}
            }
        } else {
            let off = live.swap_remove(rng.next_below(live.len()));
            slab.dealloc(off);
        }
    }
    assert!(transients > 0, "the storm should have injected transients");
    let stats = slab.inner().fault_stats();
    assert!(
        stats.injected_failures > 0 && stats.injected_oom > 0,
        "both fault kinds must have reached the grant path: {stats:?}"
    );

    slab.inner().disarm();
    for off in live {
        slab.dealloc(off);
    }
    assert_eq!(slab.allocated_bytes(), 0);
    slab.drain_cache();
    let tree = slab.inner().inner();
    assert_eq!(tree.allocated_bytes(), 0, "no page was orphaned");
    nbbs::verify::audit_empty(tree).assert_clean();
}

/// Injected panics unwinding through the slab's grant path must not orphan
/// the page either: the grant panics *before* the buddy op runs (the
/// `nbbs-chaos` contract), so the slab's bookkeeping never observes a
/// half-granted page.
#[test]
fn panic_storm_through_the_slab_orphans_nothing() {
    let injected = FaultInjecting::new(
        NbbsFourLevel::new(cfg()),
        FaultPlan::panic_storm(0x51AB_0BAD),
    );
    let slab = SlabBackend::new(injected);
    let mut rng = SplitMix64::new(0x51AB_0BAD);
    let mut live: Vec<usize> = Vec::new();
    let mut interrupted: Vec<usize> = Vec::new();
    let mut panics = 0u32;
    for _ in 0..20_000 {
        if live.is_empty() || rng.next_u64() & 1 == 0 {
            let size = 8usize << rng.next_below(10);
            match catch_unwind(AssertUnwindSafe(|| slab.alloc(size))) {
                Ok(Some(off)) => live.push(off),
                Ok(None) => {}
                Err(_) => panics += 1,
            }
        } else {
            let off = live.swap_remove(rng.next_below(live.len()));
            if catch_unwind(AssertUnwindSafe(|| slab.dealloc(off))).is_err() {
                panics += 1;
                interrupted.push(off);
            }
        }
    }
    assert!(panics > 0, "the storm should have injected panics");

    slab.inner().disarm();
    // A panicking dealloc may or may not have released its offset: a class
    // object is freed in the bitmap before any backend call runs (the panic
    // can only interrupt the page *retire*, which the orphan list covers),
    // while a passthrough free panics before the buddy saw it at all.
    // Retry via `try_dealloc`, which rejects the already-freed case as an
    // error instead of double-freeing.
    for off in live.into_iter().chain(interrupted) {
        let _ = slab.try_dealloc(off);
    }
    slab.drain_cache();
    let tree = slab.inner().inner();
    assert_eq!(tree.allocated_bytes(), 0, "no page was orphaned by a panic");
    nbbs::verify::audit_empty(tree).assert_clean();
}

/// The slab composes under `Recorded`: latency histograms capture the slab
/// ops, and the frag/alignment hooks forward through the wrapper.
#[test]
fn slab_composes_under_recorded() {
    let recorder = Arc::new(Recorder::new());
    let recorded = Recorded::new(slab(), Arc::clone(&recorder));
    assert_eq!(recorded.granted_size_for(40), Some(40));
    assert_eq!(recorded.grant_alignment_for(40), Some(8));

    let offs: Vec<usize> = (0..128).filter_map(|_| recorded.alloc(40)).collect();
    assert_eq!(offs.len(), 128);
    for &off in &offs {
        recorded.dealloc(off);
    }
    let frag = recorded
        .frag_stats()
        .expect("frag forwards through Recorded");
    assert_eq!(frag.bytes_requested(), 128 * 40);
    assert_eq!(frag.bytes_committed(), 128 * 40);
    assert_eq!(frag.live_objects(), 0);
    assert!(
        recorder.snapshot(OpKind::Alloc).total() >= 128,
        "histograms observed the slab allocs"
    );
    assert!(recorder.snapshot(OpKind::Free).total() >= 128);
    recorded.drain_cache();
    assert_eq!(recorded.allocated_bytes(), 0);
}

/// The slab composes under an inert `FaultInjecting`: pure forwarding of
/// the grant geometry and the frag payload.
#[test]
fn slab_composes_under_inert_fault_injection() {
    let wrapped = FaultInjecting::inert(slab());
    assert_eq!(wrapped.granted_size_for(40), Some(40));
    assert_eq!(wrapped.grant_alignment_for(48), Some(16));
    let off = wrapped.alloc(40).expect("inert wrapper forwards");
    wrapped.dealloc(off);
    let frag = wrapped
        .frag_stats()
        .expect("frag forwards through FaultInjecting");
    assert_eq!(frag.bytes_requested(), 40);
    assert_eq!(frag.live_objects(), 0);
    wrapped.drain_cache();
    assert_eq!(wrapped.allocated_bytes(), 0);
}

/// Per-node slabs compose under `NodeSet`: allocations land on the home
/// node's slab, frees route back to the owning node's page via the packed
/// offset, and `frag_stats` merges the per-node snapshots.
#[test]
fn slab_composes_under_node_set() {
    const NODES: usize = 3; // deliberately not a power of two
    let per_node = BuddyConfig::new(1 << 18, MIN, 1 << 13).unwrap();
    let set = NodeSet::with_topology(
        (0..NODES)
            .map(|_| SlabBackend::new(NbbsFourLevel::new(per_node)))
            .collect(),
        Topology::synthetic(NODES),
        NodePolicy::HomeFirst,
    );
    // The class grant and its sub-node alignment survive the widening.
    assert_eq!(set.granted_size_for(40), Some(40));
    assert_eq!(set.grant_alignment_for(40), Some(8));

    // Spread allocations explicitly across all nodes, free every one from
    // this (foreign-to-most-nodes) context.
    let mut offs = Vec::new();
    for node in 0..NODES {
        for _ in 0..64 {
            offs.push(set.alloc_on(node, 40).expect("node-local slab grant"));
        }
    }
    let frag = set.frag_stats().expect("frag merges across nodes");
    assert_eq!(frag.bytes_requested(), (NODES * 64 * 40) as u64);
    assert_eq!(frag.live_objects(), (NODES * 64) as u64);
    for off in offs {
        set.dealloc(off);
    }
    let frag = set.frag_stats().unwrap();
    assert_eq!(frag.live_objects(), 0, "cross-node frees found their pages");
    set.drain_cache();
    assert_eq!(set.allocated_bytes(), 0);
    for i in 0..NODES {
        nbbs::verify::audit_empty(set.node(i).inner()).assert_clean();
    }
}

/// Slabs compose under `ElasticSet` like they do under `NodeSet`: the
/// facade must learn that a 40-byte class object is only 8-aligned (slot 1
/// of a class page sits at offset 40) and bump a 16-aligned request to the
/// naturally aligned 64-byte class, and `frag_stats` must come through.
#[test]
fn slab_composes_under_elastic_set() {
    let stack = NbbsAllocator::new(ElasticSet::new(2, |_| {
        SlabBackend::new(NbbsFourLevel::new(cfg()))
    }));
    let layout = Layout::from_size_align(40, 16).unwrap();
    let blocks: Vec<NonNull<u8>> = (0..64)
        .map(|i| {
            let block = stack.allocate(layout).expect("room for 64 small blocks");
            let ptr = block.cast::<u8>();
            assert_eq!(ptr.as_ptr() as usize % 16, 0, "allocation {i} at {ptr:?}");
            ptr
        })
        .collect();
    let frag = stack
        .backend()
        .frag_stats()
        .expect("the slab's counters come through the set");
    assert_eq!(frag.live_objects(), 64);
    for ptr in blocks {
        unsafe { stack.deallocate(ptr, layout) };
    }
    stack.backend().drain_cache();
    assert_eq!(stack.allocated_bytes(), 0);
}

/// What `sizes` cost in granted bytes: the slab's granted-over-requested
/// ratio, and the share of the bare tree's granted bytes the slab saves, at
/// the paper's user-space geometry with the default slab (2 KiB cutoff,
/// 16 KiB pages).  `granted_size_for` is what every stack above charges a
/// request, cached or not.
fn slab_against_tree(sizes: impl Iterator<Item = usize>) -> (f64, f64) {
    let config = BuddyConfig::new(64 << 20, 8, 16 << 10).unwrap();
    let tree = NbbsFourLevel::new(config);
    let slab = SlabBackend::new(NbbsFourLevel::new(config));
    let (mut requested, mut on_slab, mut on_tree) = (0usize, 0usize, 0usize);
    for size in sizes {
        requested += size;
        on_slab += slab.granted_size_for(size).expect("below max_size");
        on_tree += tree.granted_size_for(size).expect("below max_size");
    }
    (
        on_slab as f64 / requested as f64,
        1.0 - on_slab as f64 / on_tree as f64,
    )
}

/// The spaced classes are what the slab is for: on a 40-byte-heavy mix the
/// tree rounds every request up to a power of two (1.60 granted per byte
/// asked), the slab has a class for each (1.00, 37.5 % fewer bytes); on a
/// web-server mix of 64–1023 B headers and 256–2303 B body chunks, where
/// the chunks above the cutoff pass through to the tree, it still grants
/// less (1.23, 14 % fewer).
#[test]
fn slab_classes_grant_fewer_bytes_than_powers_of_two() {
    let (ratio, saved) = slab_against_tree((0..=5).map(|k| 40 << k));
    assert!(ratio <= 1.30, "40-byte mix: {ratio:.4} granted per byte");
    assert!(
        saved >= 0.20,
        "40-byte mix: only {:.1} % saved",
        saved * 100.0
    );

    let mut rng = SplitMix64::new(0xBEEF);
    let web = (0..4_000).flat_map(|_| {
        let header = 64 + rng.next_below(960);
        let chunks: Vec<usize> = (0..1 + rng.next_below(4))
            .map(|_| 256 + rng.next_below(2 << 10))
            .collect();
        std::iter::once(header).chain(chunks)
    });
    let (ratio, saved) = slab_against_tree(web);
    assert!(ratio <= 1.30, "web mix: {ratio:.4} granted per byte");
    assert!(saved > 0.0, "web mix: {:.1} % saved", saved * 100.0);
}
