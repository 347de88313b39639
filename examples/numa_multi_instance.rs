//! Multi-node (NUMA-style) deployment of the full NBBS stack:
//! tree-per-node → `NodeSet` → magazine cache → layout-aware facade.
//!
//! Run with:
//! ```text
//! cargo run --release --example numa_multi_instance [nodes] [threads]
//! ```
//! `nodes = 0` (or omitted arguments) detects the machine topology,
//! honouring the `NBBS_NUMA_NODES` override — which is how CI runs this at
//! 2 and 4 synthetic nodes on single-node runners.
//!
//! Large NUMA machines deploy one buddy instance per node; threads allocate
//! from their home node and fall back to remote nodes when it is exhausted.
//! The paper argues this data separation is *orthogonal* to its
//! contribution: each individual instance can still become a hotspot when
//! the memory policy skews requests towards one node (the Figure 12
//! scenario), and that is where the non-blocking design helps.  Since
//! `nbbs-numa`, the multi-node deployment is a first-class
//! [`nbbs::BuddyBackend`] — so this example drives it through the *whole*
//! stack:
//!
//! 1. **balanced**: threads churn `Layout` allocations through
//!    `NbbsAllocator<MagazineCache<NodeSet<NbbsFourLevel>>>`; the per-node
//!    share table shows home-routing keeping traffic local;
//! 2. **skewed**: a `Pinned(0)` policy hammers node 0 until it overflows —
//!    the remote-fallback counters make the spill visible.

use std::alloc::Layout;
use std::sync::Arc;

use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_cache::MagazineCache;
use nbbs_numa::{NodePolicy, NodeSet, Topology};
use nbbs_workloads::rng::SplitMix64;

const PER_NODE: usize = 8 << 20; // 8 MiB per "NUMA node"

fn node_set(nodes: usize, policy: NodePolicy) -> NodeSet<NbbsFourLevel> {
    let config = BuddyConfig::new(PER_NODE, 64, 64 << 10).unwrap();
    NodeSet::with_topology(
        (0..nodes).map(|_| NbbsFourLevel::new(config)).collect(),
        Topology::synthetic(nodes),
        policy,
    )
    .with_name("numa-4lvl-nb")
}

fn print_shares(set: &NodeSet<NbbsFourLevel>) {
    let stats = set.node_stats();
    let total: u64 = stats.iter().map(|s| s.served()).sum();
    for s in &stats {
        let share = if total == 0 {
            0.0
        } else {
            s.served() as f64 / total as f64 * 100.0
        };
        println!(
            "  node {}: {:>5.1}% of allocations ({} local, {} remote-fallback, {} B live)",
            s.node, share, s.local_allocs, s.remote_allocs, s.allocated_bytes
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes_arg: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let nodes = if nodes_arg == 0 {
        Topology::detect().node_count().max(2)
    } else {
        nodes_arg
    };
    // ---------------------------------------------------------------
    // Scenario 1: balanced — the full stack, home-first routing through
    // the facade.
    // ---------------------------------------------------------------
    let cache = MagazineCache::new(node_set(nodes, NodePolicy::HomeFirst));
    let facade = Arc::new(NbbsAllocator::new(cache));
    println!(
        "facade over {} nodes x {} MiB, {} depot shard(s)",
        nodes,
        PER_NODE >> 20,
        facade.backend().depot_shard_count(),
    );
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let facade = Arc::clone(&facade);
            std::thread::spawn(move || {
                let _drain = facade.backend().thread_guard();
                let mut rng = SplitMix64::new(t as u64 + 1);
                let mut live: Vec<(std::ptr::NonNull<u8>, Layout)> = Vec::new();
                for _ in 0..20_000 {
                    let size = 64usize << rng.next_below(6);
                    let align = 8usize << rng.next_below(4);
                    let layout = Layout::from_size_align(size, align).unwrap();
                    if let Ok(block) = facade.allocate(layout) {
                        live.push((block.cast(), layout));
                    }
                    if live.len() > 64 {
                        let (ptr, layout) = live.swap_remove(rng.next_below(64));
                        unsafe { facade.deallocate(ptr, layout) };
                    }
                }
                for (ptr, layout) in live {
                    unsafe { facade.deallocate(ptr, layout) };
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    println!("balanced Layout churn, {threads} threads (per-node shares):");
    print_shares(facade.backend().backend());
    let cache_stats = facade.backend().snapshot();
    println!(
        "  cache: {:.1}% hit rate over {} allocations",
        cache_stats.hit_rate() * 100.0,
        cache_stats.alloc_requests()
    );
    assert_eq!(facade.allocated_bytes(), 0, "no user-live memory remains");
    facade.backend().drain_all();
    assert_eq!(
        facade.backend().backend().allocated_bytes(),
        0,
        "every node's tree is empty after the drain"
    );

    // ---------------------------------------------------------------
    // Scenario 2: skewed — everything pinned to node 0 (a skewed memory
    // policy), overflowing to the nearest remote nodes only when it fills
    // up.  Offset-based, like the kernel handing out page frames.
    // ---------------------------------------------------------------
    let skewed = node_set(nodes, NodePolicy::Pinned(0));
    let mut live = Vec::new();
    let mut rng = SplitMix64::new(99);
    loop {
        let size = 4096usize << rng.next_below(3);
        match skewed.alloc(size) {
            Some(off) => live.push(off),
            None => break,
        }
        if skewed.allocated_bytes() > PER_NODE + PER_NODE / 2 {
            break;
        }
    }
    let remote: u64 = skewed.node_stats().iter().map(|s| s.remote_allocs).sum();
    println!("\nskewed load pinned to node 0 (per-node shares):");
    print_shares(&skewed);
    println!("  allocations that overflowed to a remote node: {remote}");
    if nodes > 1 {
        assert!(
            remote > 0,
            "pinning 1.5x a node's capacity must overflow remotely"
        );
    }
    for off in live {
        skewed.dealloc(off);
    }
    assert_eq!(skewed.allocated_bytes(), 0);
    println!(
        "\nall memory returned; per-node live bytes: {:?}",
        skewed.allocated_bytes_per_node()
    );
}
