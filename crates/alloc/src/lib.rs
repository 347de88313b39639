//! # nbbs-alloc — the layout-aware allocator facade over the NBBS stack
//!
//! The NBBS paper positions its non-blocking buddy as a *back-end*
//! allocator; PRs 1–2 of this reproduction built the front end the paper
//! alludes to (a Bonwick-style magazine cache with sharded lock-free
//! depots).  This crate adds the final layer — the one real Rust programs
//! actually call — and completes the stack:
//!
//! ```text
//!  ┌────────────────────────────────────────────────────────────────┐
//!  │  #[global_allocator]  NbbsGlobalAlloc          (nbbs-alloc)    │
//!  │     lazy OnceLock build · System fail-over · exit drains       │
//!  ├────────────────────────────────────────────────────────────────┤
//!  │  NbbsAllocator<A>: Layout-aware facade         (nbbs-alloc)    │
//!  │     allocate / allocate_zeroed / deallocate / grow / shrink    │
//!  │     over-aligned ⇒ round to max(size, align); in-place realloc │
//!  ├────────────────────────────────────────────────────────────────┤
//!  │  MagazineCache<B>: per-thread magazines        (nbbs-cache)    │
//!  │     loaded/previous pairs · sharded lock-free depots ·         │
//!  │     adaptive capacities · foreign-thread exit drains           │
//!  ├────────────────────────────────────────────────────────────────┤
//!  │  NbbsFourLevel / NbbsOneLevel: lock-free tree  (nbbs)          │
//!  │     CAS-only alloc/free/coalesce over a contiguous region      │
//!  └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! [`NbbsAllocator`] is generic over any [`nbbs::BuddyBackend`] — wrap the
//! bare tree for a PR-0-style thin adapter, a [`nbbs_cache::MagazineCache`]
//! for the production configuration, or an `Arc<dyn BuddyBackend>` from the
//! workload factory for ablations.  Two properties fall out of the buddy
//! geometry rather than extra bookkeeping:
//!
//! * **Alignment is free.**  A granted block of `2^k` bytes is `2^k`-aligned
//!   (the region base is `max_size`-aligned), so an over-aligned `Layout`
//!   is served by rounding the request to `max(size, align)` — nothing
//!   punts to the system allocator for alignment.
//! * **Realloc is usually free.**  The granted size is a pure function of
//!   the request ([`nbbs::BuddyBackend::granted_size_for`]), so
//!   [`NbbsAllocator::grow`] / [`NbbsAllocator::shrink`] can prove "the new
//!   layout still names this block's class" with level math alone and
//!   return the same pointer — and, for the same reason,
//!   [`NbbsAllocator::deallocate`] can tell the stack the block's size
//!   instead of having it looked up.
//!
//! [`NbbsGlobalAlloc`] packages the cached facade for
//! `#[global_allocator]` use: `const`-constructible, lazily built under
//! `OnceLock::get_or_init` (concurrent first touches block briefly instead
//! of leaking to `System`, fixing the deprecated core adapter's race), with
//! a thread-local bypass latch so the cache's own bookkeeping allocations
//! cannot recurse, and per-thread exit drains so short-lived threads return
//! their magazines to the tree.  Its stack is exactly the one drawn above —
//! tree, cache, facade, set by three sizes, observed when the `NBBS_*`
//! environment arms it — and [`NbbsGlobalAlloc::print_stats_on_exit`] dumps
//! buddy/system shares, grow-in-place rates and the cache hit rate when the
//! process ends.
//!
//! ```
//! use std::alloc::Layout;
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
//! assert_eq!(block.cast::<u8>().as_ptr() as usize % 4096, 0);
//!
//! // Growing within the granted block keeps the pointer.
//! let grown = unsafe { alloc.grow(block.cast(), layout, Layout::from_size_align(4096, 8).unwrap()) }.unwrap();
//! assert_eq!(grown.cast::<u8>(), block.cast::<u8>());
//! unsafe { alloc.deallocate(grown.cast(), Layout::from_size_align(4096, 8).unwrap()) };
//! assert_eq!(alloc.allocated_bytes(), 0);
//! ```

//! # Error handling: hard OOM, transient failures, and the reserve
//!
//! Three distinct failure shapes flow through this stack, and they are
//! deliberately kept apart:
//!
//! * **Hard OOM** ([`nbbs::error::AllocError::OutOfMemory`]) — the buddy
//!   region genuinely cannot serve the request.  It propagates immediately:
//!   no layer retries it, because waiting will not conjure memory.  An
//!   [`NbbsAllocator`] gives it one last chance at its [`EmergencyReserve`]
//!   (if one was carved with [`NbbsAllocator::with_reserve`]; the global
//!   shell carves none).  [`NbbsGlobalAlloc`] fails over to the system
//!   allocator and counts the event
//!   ([`NbbsGlobalAlloc::system_failovers`]).
//! * **Transient failures** ([`nbbs::error::AllocError::Transient`]) — the
//!   attempt failed for a reason expected to clear shortly.  No tree or
//!   wrapper in the product returns one; today only `nbbs-chaos`'s
//!   `FaultInjecting` does.  The magazine cache's miss path retries these
//!   up to three times with jittered backoff before treating the miss as
//!   failed; hard OOM is never retried.
//! * **Reserve-served** — an OOM-path allocation an [`NbbsAllocator`]'s
//!   reserve held a block for.  The caller cannot tell (it got ordinary
//!   region memory); the event is visible only in telemetry
//!   ([`ReserveStatsSnapshot::hits`], [`NbbsAllocator::reserve_stats`]).
//!   Reserve blocks replenish *only* through frees of reserve-owned
//!   memory, so the pool's footprint is fixed at carve time.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod facade;
mod global;
mod reserve;

pub use facade::NbbsAllocator;
pub use global::NbbsGlobalAlloc;
pub use nbbs::FacadeStatsSnapshot;
pub use reserve::{EmergencyReserve, ReserveStatsSnapshot};
