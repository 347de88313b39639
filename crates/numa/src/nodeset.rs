//! [`NodeSet`]: one buddy instance per NUMA node behind one widened
//! [`BuddyBackend`].
//!
//! The instances sit in an [`nbbs::SlotSet`], which owns the offset scheme
//! (`global = (node << log2(T)) | local`, so `owner_of`/`dealloc` are pure
//! arithmetic — exactly how a physical frame number identifies its NUMA
//! node), the widened geometry that makes the set a [`BuddyBackend`] the
//! cache, the region and the facade stack on unchanged, and the per-node
//! merge of every read-out.  This module decides *which node an allocation
//! tries first*.
//!
//! # Routing
//!
//! Allocations start from a node chosen by the [`NodePolicy`] (the calling
//! thread's home node by default, read from the [`Topology`]) and fall back
//! across the remaining nodes in [`nearest_first_order`] — closest ring
//! neighbours first, like the kernel walking its NUMA zone list.  Releases
//! always go to the owning node, whoever frees.  Per-node counters record
//! how many allocations each node served for its own threads vs as a remote
//! fallback (the benchmark's `numa.remote_share`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use nbbs::error::FreeError;
use nbbs::{nearest_first_order, BuddyBackend, Geometry, NodeStatsSnapshot, SlotSet};
use nbbs_sync::CachePadded;

use crate::topology::Topology;

/// Which node an allocation is first attempted on.
///
/// Whatever the policy picks, exhaustion falls back across the remaining
/// nodes in [`nearest_first_order`]; releases always route to the owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodePolicy {
    /// Start from the calling thread's home node (the [`Topology`]'s
    /// CPU→node map, or the deterministic synthetic assignment).  The
    /// kernel's default local-allocation policy.
    #[default]
    HomeFirst,
    /// Rotate the start node per allocation, spreading load evenly — the
    /// kernel's `MPOL_INTERLEAVE`.
    Interleave,
    /// Always start from the given node (clamped modulo the node count) —
    /// a `MPOL_BIND`-style pin, still with remote fallback on exhaustion.
    Pinned(usize),
}

/// Cache-padded so the hot-path `fetch_add`s of threads homed on different
/// nodes never bounce a shared line — the cross-node traffic this crate
/// exists to avoid.
#[derive(Debug, Default)]
struct NodeCounters {
    /// Allocations this node served for requests that *started* here.
    local_allocs: AtomicU64,
    /// Allocations this node served as a remote fallback (the request
    /// started on another node).
    remote_allocs: AtomicU64,
    /// Requests that started here and failed on every node.
    failed_allocs: AtomicU64,
}

/// A set of per-node buddy instances behind one widened [`BuddyBackend`].
///
/// An allocation starts from the node its [`NodePolicy`] picks and falls
/// back nearest-first; a release goes to the owning node.  See
/// [`nbbs::SlotSet`] for the offset-widening scheme.
///
/// ```
/// use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
/// use nbbs_numa::{NodePolicy, NodeSet, Topology};
///
/// let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
/// let set = NodeSet::with_topology(
///     (0..2).map(|_| NbbsFourLevel::new(config)).collect(),
///     Topology::synthetic(2),
///     NodePolicy::HomeFirst,
/// );
/// let off = set.alloc(4096).unwrap();          // routed to this thread's home
/// assert!(set.owner_of(off) < 2);
/// set.dealloc(off);                            // routed back by arithmetic
/// assert_eq!(set.allocated_bytes(), 0);
/// ```
pub struct NodeSet<A: BuddyBackend> {
    /// One slot per node, every one built.
    nodes: SlotSet<A>,
    topology: Topology,
    policy: NodePolicy,
    next_interleave: AtomicUsize,
    counters: Box<[CachePadded<NodeCounters>]>,
    name: &'static str,
}

impl<A: BuddyBackend> NodeSet<A> {
    /// Builds a node set over identically-configured instances, with a
    /// synthetic topology matching the instance count and the default
    /// [`NodePolicy::HomeFirst`] routing.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, the instances disagree on their geometry,
    /// or the widened geometry would exceed the supported tree depth.
    pub fn new(nodes: Vec<A>) -> Self {
        let count = nodes.len();
        Self::with_topology(nodes, Topology::synthetic(count), NodePolicy::default())
    }

    /// Builds a node set with an explicit topology and routing policy.
    ///
    /// The topology's node count may differ from the instance count (e.g. a
    /// 2-node machine driving a 4-instance set); home nodes are taken modulo
    /// the instance count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`NodeSet::new`].
    pub fn with_topology(nodes: Vec<A>, topology: Topology, policy: NodePolicy) -> Self {
        let count = nodes.len();
        let mut rest = nodes.into_iter();
        let nodes = SlotSet::new(count, rest.next().expect("need at least one node"));
        for (i, node) in rest.enumerate() {
            nodes.get_or_build(i + 1, || node);
        }
        let counters = (0..count)
            .map(|_| CachePadded::new(NodeCounters::default()))
            .collect();
        NodeSet {
            topology,
            policy,
            next_interleave: AtomicUsize::new(0),
            counters,
            name: "numa-nodeset",
            nodes,
        }
    }

    /// Returns this set under a custom report name (e.g. `"numa-4lvl-nb"`).
    #[must_use]
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Number of nodes (real instances, not the widened power-of-two span).
    pub fn node_count(&self) -> usize {
        self.nodes.capacity()
    }

    /// Access to one node's instance (e.g. for per-node verification).
    pub fn node(&self, i: usize) -> &A {
        self.nodes.get(i).expect("node index in range")
    }

    /// Bytes managed by each single node.
    pub fn node_memory(&self) -> usize {
        self.nodes.slot_memory()
    }

    /// The routing policy in effect.
    pub fn policy(&self) -> NodePolicy {
        self.policy
    }

    /// The topology driving home-node routing.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calling thread's home node (topology home, modulo the node
    /// count).  Publishes the answer as the thread's node hint
    /// (`nbbs_sync::set_thread_node`), so events this thread subsequently
    /// records carry the node lane.
    pub fn home_node(&self) -> usize {
        let node = self.topology.current_node() % self.node_count();
        nbbs_sync::set_thread_node(node);
        node
    }

    /// Which node owns a global offset.
    #[inline]
    pub fn owner_of(&self, global: usize) -> usize {
        self.nodes.split(global).0
    }

    /// Allocates explicitly on node `i` with **no** fallback — the
    /// `__GFP_THISNODE` analogue.  Counts as local service when `i` is the
    /// caller's home node, as remote service otherwise.
    pub fn alloc_on(&self, i: usize, size: usize) -> Option<usize> {
        self.alloc_from(i, self.home_node(), size)
    }

    /// Allocates on node `i` for a request that started on node `start`,
    /// counting the service as local or remote accordingly.
    #[inline]
    fn alloc_from(&self, i: usize, start: usize, size: usize) -> Option<usize> {
        let offset = self.nodes.alloc_on(i, size)?;
        let served = if i == start {
            &self.counters[i].local_allocs
        } else {
            &self.counters[i].remote_allocs
        };
        served.fetch_add(1, Ordering::Relaxed);
        Some(offset)
    }

    /// The node an allocation starts from under the current policy.
    fn start_node(&self) -> usize {
        let n = self.node_count();
        match self.policy {
            NodePolicy::HomeFirst => self.home_node(),
            NodePolicy::Interleave => self.next_interleave.fetch_add(1, Ordering::Relaxed) % n,
            NodePolicy::Pinned(k) => k % n,
        }
    }

    /// Bytes currently handed out by each node — exact at quiescence, one
    /// relaxed counter read per node (phantom widening slots own nothing
    /// and are not listed).
    pub fn allocated_bytes_per_node(&self) -> Vec<usize> {
        self.nodes
            .built()
            .map(|(_, n)| n.allocated_bytes())
            .collect()
    }

    /// Point-in-time per-node telemetry (allocated bytes, local/remote
    /// service counts, failures).
    pub fn node_stats(&self) -> Vec<NodeStatsSnapshot> {
        self.nodes
            .built()
            .zip(self.counters.iter())
            .map(|((node, instance), c)| NodeStatsSnapshot {
                node,
                allocated_bytes: instance.allocated_bytes(),
                local_allocs: c.local_allocs.load(Ordering::Relaxed),
                remote_allocs: c.remote_allocs.load(Ordering::Relaxed),
                failed_allocs: c.failed_allocs.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl<A: BuddyBackend> BuddyBackend for NodeSet<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn geometry(&self) -> &Geometry {
        self.nodes.geometry()
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        let start = self.start_node();
        let served = nearest_first_order(start, self.node_count())
            .find_map(|i| self.alloc_from(i, start, size));
        if served.is_none() {
            self.counters[start]
                .failed_allocs
                .fetch_add(1, Ordering::Relaxed);
        }
        served
    }

    fn dealloc(&self, offset: usize) {
        self.nodes.dealloc(offset)
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        self.nodes.try_dealloc(offset)
    }

    fn inner(&self) -> Option<&dyn BuddyBackend> {
        Some(&self.nodes)
    }

    fn allocated_bytes(&self) -> usize {
        self.nodes.allocated_bytes()
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        self.nodes.granted_size_of_live(offset)
    }

    fn granted_size_for(&self, size: usize) -> Option<usize> {
        self.nodes.granted_size_for(size)
    }

    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        self.nodes.grant_alignment_for(size)
    }
}

impl<A: BuddyBackend + std::fmt::Debug> std::fmt::Debug for NodeSet<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeSet")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("policy", &self.policy)
            .field("topology", &self.topology)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbs::{BuddyConfig, NbbsOneLevel};

    fn set(n: usize, per_node: usize) -> NodeSet<NbbsOneLevel> {
        NodeSet::new(
            (0..n)
                .map(|_| NbbsOneLevel::new(BuddyConfig::new(per_node, 64, per_node).unwrap()))
                .collect(),
        )
    }

    #[test]
    fn offsets_pack_the_node_into_the_high_bits() {
        let s = set(3, 4096);
        assert_eq!(s.node_memory(), 4096);
        // Widened over 4 slots (3 rounded up), per-node ceiling kept; the
        // *logical* span stays 3 nodes — backing wrappers never commit the
        // phantom tail.
        assert_eq!(s.geometry().total_memory(), 4 * 4096);
        assert_eq!(s.total_memory(), 3 * 4096);
        assert_eq!(s.max_size(), 4096);
        let off = s.alloc_on(2, 64).unwrap();
        assert_eq!(s.owner_of(off), 2);
        assert_eq!(off >> 12, 2, "the node index sits above the node span");
        s.dealloc(off);
        assert_eq!(s.allocated_bytes(), 0);
    }

    #[test]
    fn fallback_covers_every_node_and_reports_oom() {
        let s = set(2, 1024);
        let a = s.alloc(1024).unwrap();
        let b = s.alloc(1024).unwrap();
        assert_ne!(s.owner_of(a), s.owner_of(b), "fallback took the other node");
        assert!(matches!(
            s.try_alloc(64),
            Err(nbbs::AllocError::OutOfMemory { .. })
        ));
        assert!(matches!(
            s.try_alloc(4096),
            Err(nbbs::AllocError::TooLarge { .. })
        ));
        let failed: u64 = s.node_stats().iter().map(|n| n.failed_allocs).sum();
        assert_eq!(failed, 1, "the OOM was recorded on the start node");
        s.dealloc(a);
        s.dealloc(b);
    }

    #[test]
    fn try_dealloc_rejects_the_phantom_widening_tail() {
        let s = set(3, 1024);
        // Slot 3 exists in the widened (4-slot) geometry but owns no
        // instance; beyond-the-widening offsets are equally rejected.
        assert!(matches!(
            s.try_dealloc(3 * 1024),
            Err(FreeError::OutOfRange { .. })
        ));
        assert!(matches!(
            s.try_dealloc(100 * 1024),
            Err(FreeError::OutOfRange { .. })
        ));
        let off = s.alloc(64).unwrap();
        assert!(s.try_dealloc(off).is_ok());
    }

    #[test]
    fn local_and_remote_service_counters_split_by_start_node() {
        let s = set(2, 1024);
        let home = s.home_node();
        // Fill the home node, then force a remote fallback.
        let a = s.alloc_on(home, 1024).unwrap();
        let b = s.alloc(1024).unwrap();
        assert_eq!(s.owner_of(b), 1 - home);
        let stats = s.node_stats();
        assert_eq!(stats[home].local_allocs, 1);
        assert_eq!(stats[1 - home].remote_allocs, 1);
        assert_eq!(stats[1 - home].served(), 1);
        assert_eq!(
            s.allocated_bytes_per_node(),
            {
                let mut v = vec![0; 2];
                v[home] = 1024;
                v[1 - home] = 1024;
                v
            },
            "per-node byte accounting exact under the widened geometry"
        );
        s.dealloc(a);
        s.dealloc(b);
        assert_eq!(s.allocated_bytes_per_node(), vec![0, 0]);
    }

    #[test]
    fn interleave_policy_rotates_start_nodes() {
        let s = NodeSet::with_topology(
            (0..4)
                .map(|_| NbbsOneLevel::new(BuddyConfig::new(4096, 64, 4096).unwrap()))
                .collect::<Vec<_>>(),
            Topology::synthetic(4),
            NodePolicy::Interleave,
        );
        let offs: Vec<usize> = (0..4).map(|_| s.alloc(64).unwrap()).collect();
        let owners: std::collections::HashSet<usize> =
            offs.iter().map(|&o| s.owner_of(o)).collect();
        assert_eq!(owners.len(), 4, "four interleaved allocations, four nodes");
        for off in offs {
            s.dealloc(off);
        }
    }

    #[test]
    fn pinned_policy_starts_from_the_pinned_node() {
        let s = NodeSet::with_topology(
            (0..3)
                .map(|_| NbbsOneLevel::new(BuddyConfig::new(4096, 64, 4096).unwrap()))
                .collect::<Vec<_>>(),
            Topology::synthetic(3),
            NodePolicy::Pinned(1),
        );
        for _ in 0..3 {
            let off = s.alloc(64).unwrap();
            assert_eq!(s.owner_of(off), 1);
            s.dealloc(off);
        }
        assert_eq!(s.node_stats()[1].local_allocs, 3);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_node_list_panics() {
        let _ = NodeSet::<NbbsOneLevel>::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "share one geometry")]
    fn mismatched_geometries_panic() {
        let _ = NodeSet::new(vec![
            NbbsOneLevel::new(BuddyConfig::new(4096, 64, 4096).unwrap()),
            NbbsOneLevel::new(BuddyConfig::new(8192, 64, 4096).unwrap()),
        ]);
    }
}
