//! # nbbs-numa — topology-aware multi-node deployment of the NBBS stack
//!
//! The NBBS paper's headline deployment (its Figure 12 setting) is **one
//! buddy instance per NUMA node**: threads allocate from their home node and
//! fall back to remote nodes only on exhaustion, so the non-blocking tree is
//! what keeps the *per-node* hotspot scalable.  This crate makes that
//! deployment a first-class backend instead of a side-car example:
//!
//! ```text
//!  ┌──────────────────────────────────────────────────────────────────┐
//!  │  NbbsAllocator                                    (nbbs-alloc)   │
//!  ├──────────────────────────────────────────────────────────────────┤
//!  │  MagazineCache<NodeSet<_>>                        (nbbs-cache)   │
//!  ├──────────────────────────────────────────────────────────────────┤
//!  │  NodeSet<A: BuddyBackend>                         (nbbs-numa)    │
//!  │     widened geometry · home-first routing · per-node telemetry   │
//!  ├──────────────┬──────────────┬──────────────┬────────────────────┤
//!  │ NbbsFourLevel│ NbbsFourLevel│ NbbsFourLevel│ …one tree per node  │
//!  └──────────────┴──────────────┴──────────────┴────────────────────┘
//! ```
//!
//! * [`NodeSet`] owns N per-node instances under one **widened geometry**
//!   (`nbbs::Geometry::widened`): the node index lives in the high bits of
//!   the global offset, so ownership lookups are two shifts — and the set
//!   itself implements `nbbs::BuddyBackend`, which is what lets the magazine
//!   cache and the allocator facade stack on top unchanged.
//! * [`Topology`] maps CPUs to nodes (sysfs on Linux, an `NBBS_NUMA_NODES`
//!   override for CI, a deterministic synthetic fallback everywhere else)
//!   and drives [`NodePolicy`] routing: `HomeFirst`, `Interleave`, or
//!   `Pinned(n)`, always with nearest-first remote fallback.
//! * [`NodeStatsSnapshot`] surfaces per-node allocated bytes and
//!   local/remote/failed service counts (the benchmark's
//!   `numa.remote_share`).
//!
//! The stack is a composition a program builds itself
//! (`examples/numa_multi_instance.rs`); the shipped `NbbsGlobalAlloc` is a
//! single tree under its cache and has no routing layer.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod nodeset;
pub mod topology;

pub use nbbs::NodeStatsSnapshot;
pub use nodeset::{NodePolicy, NodeSet};
pub use topology::{Topology, TopologySource};
