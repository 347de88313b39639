//! # nbbs — a Non-Blocking Buddy System
//!
//! Rust reproduction of *“A Non-blocking Buddy System for Scalable Memory
//! Allocation on Multi-core Machines”* (R. Marotta, M. Ianni, A. Scarselli,
//! A. Pellegrini, F. Quaglia — IEEE CLUSTER 2018, arXiv:1804.03436).
//!
//! A buddy system manages a contiguous memory region by recursively halving
//! it; every chunk has a power-of-two size and merging two *buddies* (the two
//! halves of the same parent) reconstitutes the parent chunk.  The paper's
//! contribution is a buddy system whose allocation, release **and coalescing**
//! paths are all *lock-free*: concurrent threads never take a lock, they only
//! race on single-word Compare-And-Swap (CAS) operations over the allocator's
//! metadata and retry (or move to another chunk) when a conflict materializes.
//!
//! ## What is in this crate
//!
//! * [`tree::BuddyTree`] — Algorithm 1 and `NBFREE`, written once over a
//!   [`tree::NodeStore`]; the two variants are aliases of it.
//! * [`NbbsOneLevel`] — the baseline non-blocking buddy (`1lvl-nb` in the
//!   paper): one status byte per tree node, Algorithms 2–4 as printed.
//! * [`NbbsFourLevel`] — the 4-level optimized variant (`4lvl-nb`, §III-D):
//!   four tree levels packed per 64-bit word so that one CAS updates four
//!   levels at a time.
//! * [`LockedBuddy`] — the same data structures behind a single global spin
//!   lock (`1lvl-sl` / `4lvl-sl`), used by the paper as blocking yardsticks.
//! * [`BuddyBackend`] — the common back-end allocator interface implemented by
//!   every variant (and by the baselines in `nbbs-baselines`), expressed in
//!   terms of byte *offsets* into the managed region so the core state machine
//!   contains no `unsafe`.
//! * [`BuddyRegion`] — wrapper that attaches real backing memory (a
//!   demand-zero [`Mapping`]) and exposes a pointer-returning API, plus the
//!   decommit scrubber that makes the region *elastic*: committed memory
//!   follows the live set instead of staying pinned at the configured peak.
//! * [`ElasticSet`] — a chain of buddy instances behind one widened
//!   [`BuddyBackend`] that grows under sustained OOM pressure and retires
//!   drained regions at trough.
//! * [`SlotSet`] — N identically-configured instances behind one widened
//!   [`BuddyBackend`] ([`Geometry::widened`]), mirroring how the Linux kernel
//!   deploys one buddy instance per NUMA node: the shared half of
//!   [`ElasticSet`] and of the `nbbs-numa` crate's `NodeSet`.
//! * [`verify`] — runtime checkers for the paper's safety properties (no two
//!   live allocations overlap; a free releases exactly what was allocated).
//!
//! The paper positions the non-blocking buddy as a *backend*: real
//! deployments interpose a per-CPU/per-thread front-end cache so the hot path
//! rarely touches the shared tree.  That layer lives in the companion
//! `nbbs-cache` crate (`MagazineCache<A: BuddyBackend>`, a Bonwick-style
//! magazine/depot cache), and the `nbbs-alloc` crate stacks a layout-aware
//! allocator facade on top (tree → cache → facade).  This crate only
//! provides the hooks they build on — [`BuddyBackend::granted_size_of_live`]
//! and [`BuddyBackend::granted_size_for`] (size-class and in-place-realloc
//! lookups), [`BuddyBackend::cache_stats`] / [`CacheStatsSnapshot`] and
//! [`BuddyBackend::cache_class_capacities`] (cache telemetry through `dyn
//! BuddyBackend`).  Because the cache implements [`BuddyBackend`] itself, it
//! nests unchanged inside [`BuddyRegion`] and [`SlotSet`].
//!
//! ## Quick start
//!
//! ```
//! use nbbs::{BuddyBackend, BuddyConfig, NbbsOneLevel};
//!
//! // 1 MiB arena, 64-byte allocation units, largest single request 64 KiB.
//! let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
//! let buddy = NbbsOneLevel::new(config);
//!
//! let a = buddy.alloc(100).expect("plenty of room");   // rounded up to 128
//! let b = buddy.alloc(4096).expect("plenty of room");
//! assert_ne!(a, b);
//! buddy.dealloc(a);
//! buddy.dealloc(b);
//! assert_eq!(buddy.allocated_bytes(), 0);
//! ```
//!
//! To hand out real pointers instead of offsets, wrap any backend in a
//! [`BuddyRegion`]:
//!
//! ```
//! use nbbs::{BuddyConfig, BuddyRegion, NbbsFourLevel};
//!
//! let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
//! let region = BuddyRegion::new(NbbsFourLevel::new(config));
//! let ptr = region.alloc_bytes(256).unwrap();
//! unsafe { ptr.as_ptr().write_bytes(0xAB, 256) };
//! region.dealloc_bytes(ptr);
//! ```
//!
//! ## Relationship to the paper's terminology
//!
//! | Paper | This crate |
//! |---|---|
//! | `NBALLOC`, `NBFREE` | [`BuddyBackend::alloc`], [`BuddyBackend::dealloc`]: the one shell, [`tree::BuddyTree`] |
//! | `TRYALLOC`, `FREENODE`, `UNMARK` | [`tree::NodeStore::try_alloc_node`] and [`tree::NodeStore::free_node`] of the two stores, [`onelvl::ByteStore`] and [`fourlvl::BunchStore`] |
//! | `index[]` | the shell's `index` field (one `AtomicU8` per allocation unit: the serving node's level plus one) |
//! | `tree[]` | the store: one `AtomicU8` per node, or one `AtomicU64` per bunch |
//! | status bits (Fig. 1) | [`status`] module |
//! | bunch (§III-D) | [`fourlvl::BunchGeometry`] |

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod elastic;
pub mod error;
pub mod fourlvl;
mod gauge;
pub mod geometry;
pub mod locked;
pub mod mapping;
pub mod occupancy;
pub mod onelvl;
pub mod region;
pub mod slotset;
pub mod stats;
pub mod status;
pub mod traits;
pub mod tree;
pub mod verify;

pub use config::{BuddyConfig, ScanPolicy};
pub use elastic::{ElasticSet, ElasticStatsSnapshot};
pub use error::{AllocError, ConfigError, FreeError};
pub use fourlvl::NbbsFourLevel;
pub use geometry::Geometry;
pub use locked::{LockedBuddy, LockedFourLevel, LockedOneLevel};
pub use mapping::Mapping;
pub use occupancy::{occupancy_of, LevelOccupancy, OccupancySnapshot};
pub use onelvl::NbbsOneLevel;
pub use region::BuddyRegion;
pub use slotset::{nearest_first_order, SlotSet};
pub use stats::{
    CacheStatsSnapshot, FragClassSnapshot, FragStatsSnapshot, MemoryStatsSnapshot,
    NodeStatsSnapshot, OpStats, OpStatsSnapshot, ShellStatsSnapshot, CAS_LEVELS,
};
pub use traits::{BuddyBackend, TreeInspect};
