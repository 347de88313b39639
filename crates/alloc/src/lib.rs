//! # nbbs-alloc — the allocator front ends over the NBBS stack
//!
//! The NBBS paper positions its non-blocking buddy as a *back-end*
//! allocator; PRs 1–2 of this reproduction built the front end the paper
//! alludes to (a Bonwick-style magazine cache with sharded lock-free
//! depots).  This crate adds the layer real Rust programs actually call,
//! in two shapes over the same cache:
//!
//! ```text
//!  ┌────────────────────────────────────────────────────────────────┐
//!  │  #[global_allocator]  NbbsGlobalAlloc          (nbbs-alloc)    │
//!  │     lazy OnceLock build · System fail-over · exit drains       │
//!  │     inlined hit/park: key compare · class-table read ·         │
//!  │     try_hit / try_park on the thread's slot; the rest cold     │
//!  ├────────────────────────────────────────────────────────────────┤
//!  │  MagazineCache<B>: per-thread magazines        (nbbs-cache)    │
//!  │     flat request → class table · loaded/previous pairs ·       │
//!  │     sharded lock-free depots · adaptive capacities ·           │
//!  │     foreign-thread exit drains                                 │
//!  ├────────────────────────────────────────────────────────────────┤
//!  │  BuddyRegion<T>: commits what the tree grants  (nbbs)          │
//!  │     offsets → pointers · background decommit scrubber          │
//!  ├────────────────────────────────────────────────────────────────┤
//!  │  NbbsFourLevel / NbbsOneLevel: lock-free tree  (nbbs)          │
//!  │     CAS-only alloc/free/coalesce over a contiguous region      │
//!  └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! [`NbbsGlobalAlloc`] is the shipped shell: `const`-constructible, lazily
//! built under `OnceLock::get_or_init` (concurrent first touches block
//! briefly instead of leaking to `System`, fixing the deprecated core
//! adapter's race), with a thread-local bypass latch so the cache's own
//! bookkeeping allocations cannot recurse, and per-thread exit drains so
//! short-lived threads return their magazines to the tree.  Its stack is
//! exactly the one drawn above, set by three sizes and observed when the
//! `NBBS_*` environment arms it.  Every call resolves
//! its class once and goes to the calling thread's cache slot, which books
//! what the shell reports.  A hit or a park is inlined into each entry
//! point and takes no latch (it cannot allocate); misses, overflows, the
//! nested route and armed builds are one cold call away.
//! [`NbbsGlobalAlloc::print_stats_on_exit`] registers an `atexit` hook
//! that dumps buddy/system shares, grow-in-place rates and the cache hit
//! rate when the process ends, and writes the chrome trace that
//! `NBBS_TRACE` asks for: the environment arms the recording, but nothing
//! is written at exit unless the program made that call.
//!
//! [`NbbsAllocator`] is the generic `Layout` adapter for compositions the
//! shell does not build: it speaks `Layout` over any
//! [`nbbs::BuddyBackend`] — the bare tree, a
//! [`nbbs_cache::MagazineCache`], a slab or a multi-node set under one, or
//! an `Arc<dyn BuddyBackend>` from the workload factory for ablations.  Two
//! properties fall out of the buddy geometry rather than extra
//! bookkeeping, in both front ends:
//!
//! * **Alignment is free.**  A granted block of `2^k` bytes is `2^k`-aligned
//!   (the region base is `max_size`-aligned), so an over-aligned `Layout`
//!   is served by rounding the request to `max(size, align)` — nothing
//!   punts to the system allocator for alignment.
//! * **Realloc is usually free.**  The granted size is a pure function of
//!   the request ([`nbbs::BuddyBackend::granted_size_for`]), so `realloc`
//!   can prove "the new size still names this block's class" with level
//!   math alone and return the same pointer — and, for the same reason,
//!   [`NbbsAllocator::deallocate`] can tell the stack the block's size
//!   instead of having it looked up.
//!
//! ```
//! use std::alloc::{GlobalAlloc, Layout};
//! use nbbs::{BuddyConfig, NbbsFourLevel};
//! use nbbs_alloc::NbbsAllocator;
//! use nbbs_cache::MagazineCache;
//!
//! let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
//! let alloc = NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(config)));
//!
//! // Over-aligned: a 64-byte payload on a 4 KiB boundary, buddy-served.
//! let layout = Layout::from_size_align(64, 4096).unwrap();
//! let block = alloc.allocate(layout).unwrap();
//! let p = block.cast::<u8>().as_ptr();
//! assert_eq!(p as usize % 4096, 0);
//!
//! // Growing within the granted block keeps the pointer.
//! let grown = unsafe { alloc.realloc(p, layout, 4096) };
//! assert_eq!(grown, p);
//! unsafe { alloc.dealloc(grown, Layout::from_size_align(4096, 4096).unwrap()) };
//! assert_eq!(alloc.allocated_bytes(), 0);
//! ```

//! # Error handling: a failed grant propagates
//!
//! As in the paper, where NBALLOC simply fails when no chunk is free, a
//! failed grant goes up the stack unchanged: tree → cache → front end.  A
//! cache miss makes one backend call, and if that call grants nothing the
//! allocation fails; [`NbbsAllocator::allocate`] returns the error
//! ([`nbbs::error::AllocError::OutOfMemory`] through a cache, the
//! backend's own error over a bare tree or a `nbbs-chaos` fault injector,
//! whose [`nbbs::error::AllocError::Transient`] is no different).  No
//! layer retries a failed grant or serves it from a pool.  Only
//! [`NbbsGlobalAlloc`] acts on it: it fails over to the system allocator
//! and counts the event ([`NbbsGlobalAlloc::system_failovers`]).

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(rust_2018_idioms)]

mod facade;
mod global;

pub use facade::NbbsAllocator;
pub use global::NbbsGlobalAlloc;
pub use nbbs::ShellStatsSnapshot;
