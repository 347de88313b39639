//! Synchronization substrate for the NBBS reproduction.
//!
//! The paper compares a *non-blocking* buddy system against several
//! *spin-lock based* allocators (`buddy-sl`, `1lvl-sl`, `4lvl-sl`, and the
//! Linux kernel buddy, whose zones are protected by spin locks).  This crate
//! provides the blocking primitives those baselines are built on, plus a few
//! low-level utilities shared by the allocators and the benchmark harness:
//!
//! * [`SpinLock`] — a test-and-test-and-set spin lock with exponential
//!   backoff, the synchronization primitive used by every `-sl` baseline.
//! * [`TicketLock`] — a FIFO ticket spin lock, used to study the effect of
//!   fairness on the blocking baselines.
//! * [`Backoff`] — bounded exponential backoff used both inside the locks and
//!   by retry loops in benchmarks.
//! * [`CachePadded`] — aligns a value to a cache line to avoid false sharing
//!   between per-thread counters in the benchmark harness.
//! * [`BoundedStack`] — a bounded *lock-free* Treiber stack over a fixed
//!   slab (index + version-tag CAS, no reclamation needed), the depot
//!   substrate of the `nbbs-cache` magazine layer.
//! * [`cycles`] — a serializing time-stamp-counter reader used to reproduce
//!   the clock-cycle metric of Figure 12.
//! * [`thread_ordinal`] — process-wide monotone thread ids, shared by the
//!   cache's thread slots and `nbbs-numa`'s synthetic home-node assignment
//!   so both layers agree on which threads are "the same"; on top of it
//!   [`thread_stripe`] / [`default_stripes`], the one rule by which every
//!   per-thread table (the cache's slots) is indexed and sized (over
//!   [`available_cpus`], the CPU count read once per process);
//!   next to it
//!   [`set_thread_node`] / [`thread_node`], the home-node hint `nbbs-numa`
//!   publishes and `nbbs-obs` tags events with.
//! * [`owned`] — the claim rule (an owner word per entry, entered with the
//!   thread token a caller reads once per operation) and
//!   [`OwnedSlots`], a per-thread table whose owner enters its slot with
//!   plain stores while a remote reader pays an asymmetric
//!   (`membarrier(2)`) barrier: the cache's slot table.
//! * [`grace`] — [`Grace`], per-thread section counters on the same claim
//!   rule and barrier pair: a thread that changed memory behind other
//!   threads' atomics waits out every operation that began before it (the
//!   trees' node-page drop under a scrub run).
//! * [`shadow`] — instrumented counterparts of the `std::sync::atomic`
//!   types whose every access is a yield point reporting to a deterministic
//!   scheduler; the `nbbs` trees (`nbbs::tree` and both node stores) and
//!   [`OwnedSlots`] compile against them under `--cfg nbbs_model` so the
//!   `nbbs-model` crate can enumerate their interleavings.
//! * [`pages`] — the page system calls (`mmap`, `munmap`, `madvise`, the
//!   page size), declared once for the metadata arrays below and the
//!   trees' backing `Mapping` in `nbbs`.
//! * [`zeroed_slice`] — span-sized arrays of atomics taken from memory the
//!   kernel zeroes on demand (an anonymous mapping from 64 KiB up,
//!   `alloc_zeroed` below), so the trees' and the slab's metadata costs a
//!   physical page only where something writes it.
//!
//! Everything here is dependency-free; `unsafe` is confined to the interior
//! of the synchronization primitives (the lock, stack and slot value
//! cells), the `membarrier` system call and the `rdtsc` intrinsic (behind
//! `cfg(target_arch = "x86_64")`).

pub mod backoff;
pub mod cycles;
pub mod grace;
pub mod owned;
pub mod pad;
pub mod pages;
pub mod shadow;
pub mod spinlock;
pub mod ticket;
pub mod tid;
pub mod treiber;
pub mod zeroed;

pub use backoff::Backoff;
pub use cycles::{cycles_now, CycleTimer};
pub use grace::Grace;
pub use owned::OwnedSlots;
pub use pad::CachePadded;
pub use spinlock::{SpinLock, SpinLockGuard};
pub use ticket::{TicketLock, TicketLockGuard};
pub use tid::{
    available_cpus, default_stripes, set_thread_node, thread_node, thread_ordinal, thread_stripe,
};
pub use treiber::BoundedStack;
pub use zeroed::{zeroed_slice, Zeroable, ZeroedSlice};
