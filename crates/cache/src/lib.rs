//! # nbbs-cache — per-thread magazine cache over any `BuddyBackend`
//!
//! The NBBS paper positions its non-blocking buddy as a *backend* allocator.
//! Real deployments — the Linux page allocator's per-CPU page lists,
//! tcmalloc/jemalloc thread caches, Bonwick's magazine layer in the Solaris
//! slab allocator — always interpose a per-CPU/per-thread cache so the hot
//! path rarely touches the shared structure.  This crate adds that missing
//! layer: [`MagazineCache`] wraps any [`nbbs::BuddyBackend`] with
//! size-class-indexed, per-thread-slot magazines (bounded LIFO stacks of
//! chunk offsets, one per class of the backend's grant ladder up to its
//! largest block) plus a *sharded* depot of full magazines — one shard per
//! four thread slots, each a lock-free Treiber stack
//! ([`nbbs_sync::BoundedStack`]).
//!
//! Nothing is tuned: the cache takes its shape from the backend it wraps
//! and from fixed constants (see [`MagazineCache`] for the rules).  Only
//! the slot count can be set ([`MagazineCache::with_slots`];
//! [`MagazineCache::new`] takes [`nbbs_sync::default_stripes`]).
//!
//! * **Hits** (magazine pop / push) run no locked instruction for a thread
//!   that owns its slot: a thread claims the cache-padded slot of its stripe
//!   on first use and then enters it with plain stores around a compiler
//!   fence ([`nbbs_sync::OwnedSlots`]) — no CAS walk over the shared tree,
//!   no lock, and no counter outside the slot: an entry covers the slot's
//!   magazine pairs together with its `hits` / `cached_frees` tallies, which
//!   a hit bumps as plain integers.  A thread whose stripe another live
//!   thread holds shares that stripe's locked slot with the others in its
//!   position.  The hit and the park alone ([`MagazineCache::try_hit`],
//!   [`MagazineCache::try_park`]) never allocate, lock or wait: what they
//!   cannot finish in the owner's entry they refuse, for a front end to
//!   inline them and send the rest to the out-of-line halves
//!   ([`MagazineCache::alloc_miss`], [`MagazineCache::free_overflow`]).
//! * **Two release entries, one magazine push.**
//!   [`nbbs::BuddyBackend::dealloc_sized`] takes the chunk's granted size
//!   from the caller (the `nbbs-alloc` facade computes it from the `Layout`
//!   it is handed), picks the class from it and parks the chunk without
//!   reading a line another thread writes; debug builds cross-check the
//!   claim against the backend on every such free.
//!   [`nbbs::BuddyBackend::dealloc`] serves callers that hold only an
//!   offset ([`nbbs::BuddyRegion::dealloc_bytes`], the drain paths): it asks
//!   the backend's [`nbbs::BuddyBackend::granted_size_of_live`] for the
//!   class first, which reads tree metadata, and then takes the same path.
//! * **Read-outs pay the barrier.**  [`MagazineCache::snapshot`] folds those
//!   per-slot tallies and [`MagazineCache::cached_bytes`] (and through it
//!   `allocated_bytes`) sums magazine lengths × class size, so parked bytes
//!   and [`MagazineCache::cached_chunks`] agree by construction.  Each call
//!   enters every slot as a remote — every lock, every owner revoked, one
//!   `membarrier(2)` — and waits out an owner preempted mid-hit.  They
//!   allocate nothing inside, are exact at quiescence, and are not for
//!   per-operation use.
//! * **Misses** refill a whole magazine at a time (a single-CAS depot-shard
//!   exchange first, batched backend allocations second), so backend
//!   traffic drops by roughly the magazine capacity.
//! * **Overflows** flush whole magazines to the owning depot shard, falling
//!   back to batched backend releases; circulation never crosses the shard
//!   (slot-group) boundary, the analogue of per-NUMA-node depots.
//! * **Magazine capacities adapt** (Bonwick dynamic resizing): sustained
//!   depot spills double a class's capacity, up to a fixed ceiling;
//!   capacities only grow.
//!   Byte-budget pressure flushes whole magazines to the backend and
//!   leaves the capacity alone.
//! * **Foreign threads drain on exit**: any thread — including ones that
//!   reach the cache only through a `#[global_allocator]` facade
//!   (`nbbs-alloc`) — gets its slot assigned panic-free on first touch, and
//!   [`drain_on_thread_exit`] registers a thread-local guard that returns
//!   the slot's chunks to the backend and gives the slot up when the thread
//!   dies, so the next thread mapping there owns it.
//!
//! Because [`MagazineCache`] implements [`nbbs::BuddyBackend`] itself, it
//! composes with everything already written against the trait:
//!
//! ```
//! use nbbs::{BuddyBackend, BuddyConfig, BuddyRegion, NbbsFourLevel};
//! use nbbs_cache::MagazineCache;
//!
//! let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
//! let cached = MagazineCache::new(NbbsFourLevel::new(config));
//! let region = BuddyRegion::new(cached);              // nests unchanged
//! let ptr = region.alloc_bytes(256).unwrap();
//! region.dealloc_bytes(ptr);
//! assert_eq!(region.allocated_bytes(), 0);            // cache-aware
//! assert!(region.backend().cache_stats().unwrap().alloc_requests() > 0);
//! ```
//!
//! Chunks parked in magazines are live to the backend but free to callers;
//! [`verify_cached`] audits the paper's safety properties over that union,
//! and the drain APIs ([`MagazineCache::drain_current_thread`],
//! [`MagazineCache::thread_guard`], [`MagazineCache::drain_all`], plus a
//! draining `Drop`) guarantee no offset outlives the cache.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod config;
mod depot;
pub mod exit;
mod magazine;
mod verify;

pub use cache::{MagazineCache, ThreadDrainGuard};
pub use exit::{drain_on_thread_exit, DrainOnExit};
pub use verify::{verify_cached, verify_cached_empty};

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel, NbbsOneLevel};

    use super::*;

    fn cfg() -> BuddyConfig {
        BuddyConfig::new(1 << 16, 8, 1 << 12).unwrap()
    }

    /// A one-slot cache over a 64 KiB span: a 16 KiB budget, magazines of
    /// 64 entries up to the 256 B class.
    fn small_cache() -> MagazineCache<NbbsOneLevel> {
        MagazineCache::with_slots(NbbsOneLevel::new(cfg()), 1)
    }

    #[test]
    fn alloc_roundtrip_and_accounting() {
        let c = small_cache();
        let off = c.alloc(100).unwrap();
        assert_eq!(c.allocated_bytes(), 128);
        c.dealloc(off);
        assert_eq!(c.allocated_bytes(), 0, "cached chunks are not user-live");
        // The chunk is parked, not released.
        assert!(c.cached_bytes() >= 128);
        assert!(c.backend().allocated_bytes() >= 128);
        let s = c.snapshot();
        assert_eq!(s.cached_frees, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn second_allocation_hits_the_magazine() {
        let c = small_cache();
        let off = c.alloc(64).unwrap();
        c.dealloc(off);
        let again = c.alloc(64).unwrap();
        assert_eq!(again, off, "LIFO magazine returns the hot chunk");
        assert_eq!(c.snapshot().hits, 1);
        c.dealloc(again);
    }

    #[test]
    fn recorder_times_miss_refill_and_flush() {
        use nbbs_obs::{OpKind, Recorder};

        let rec = Arc::new(Recorder::new());
        let c = small_cache().with_recorder(Arc::clone(&rec));

        // First allocation of a class is a miss with a batched refill.
        let off = c.alloc(256).unwrap();
        assert_eq!(rec.snapshot(OpKind::CacheMiss).total(), 1);
        assert_eq!(rec.snapshot(OpKind::CacheRefill).total(), 1);
        c.dealloc(off);

        // Overflow the 64-entry magazines of 256 B: the first full one
        // fills the depot's 16 KiB budget, the second is flushed.
        let held: Vec<_> = (0..200).filter_map(|_| c.alloc(256)).collect();
        for off in held {
            c.dealloc(off);
        }
        assert!(c.snapshot().flushed > 0);
        assert!(
            rec.snapshot(OpKind::CacheFlush).total() > 0,
            "overflow past the depot must reach flush_magazine"
        );
        // Every recorded kind is also in the ring, and so in a crash dump.
        let dump = c.recorder().unwrap().ring().flight_dump();
        for kind in [OpKind::CacheMiss, OpKind::CacheRefill, OpKind::CacheFlush] {
            assert!(dump.contains(kind.name()), "{dump}");
        }
    }

    #[test]
    fn batched_refill_populates_magazine() {
        let c = small_cache();
        let off = c.alloc(8).unwrap();
        let s = c.snapshot();
        assert_eq!(s.misses, 1);
        assert!(s.refilled > 0, "a miss refills in batch");
        // Subsequent allocations of the class are hits.
        let off2 = c.alloc(8).unwrap();
        assert_eq!(c.snapshot().hits, 1);
        c.dealloc(off);
        c.dealloc(off2);
    }

    #[test]
    fn distinct_offsets_under_mixed_traffic() {
        // Classes of 1 KiB to 16 KiB start with 32 down to 2 entries, so
        // a window of 25 live chunks overflows the larger ones into the
        // depot.
        let c = MagazineCache::with_slots(
            NbbsOneLevel::new(BuddyConfig::new(1 << 20, 1 << 10, 1 << 14).unwrap()),
            1,
        );
        let mut live = std::collections::HashSet::new();
        let mut held = Vec::new();
        for i in 0..200usize {
            let size = 1024usize << (i % 5);
            if let Some(off) = c.alloc(size) {
                assert!(live.insert(off), "offset {off} handed out twice");
                held.push((off, size));
            }
            if held.len() > 24 {
                let (off, _) = held.remove(i % held.len());
                live.remove(&off);
                c.dealloc(off);
            }
        }
        for (off, _) in held {
            c.dealloc(off);
        }
        assert_eq!(c.allocated_bytes(), 0);
        assert!(
            c.snapshot().depot_exchanges > 0,
            "nothing reached the depot"
        );
    }

    #[test]
    fn oversized_and_exhausted_requests() {
        let c = small_cache();
        assert_eq!(c.alloc((1 << 12) + 1), None);
        assert!(matches!(
            c.try_alloc(1 << 13),
            Err(nbbs::error::AllocError::TooLarge { .. })
        ));
        // Exhaust everything through the cache.
        let mut held = Vec::new();
        while let Some(off) = c.alloc(1 << 12) {
            held.push(off);
        }
        assert!(matches!(
            c.try_alloc(1 << 12),
            Err(nbbs::error::AllocError::OutOfMemory { .. })
        ));
        for off in held {
            c.dealloc(off);
        }
        c.drain_all();
        assert_eq!(c.backend().allocated_bytes(), 0);
    }

    #[test]
    fn try_dealloc_validates_like_backends() {
        let c = small_cache();
        assert!(matches!(
            c.try_dealloc(1 << 20),
            Err(nbbs::error::FreeError::OutOfRange { .. })
        ));
        assert!(matches!(
            c.try_dealloc(3),
            Err(nbbs::error::FreeError::Misaligned { .. })
        ));
        assert!(matches!(
            c.try_dealloc(128),
            Err(nbbs::error::FreeError::NotAllocated { .. })
        ));
        let off = c.alloc(64).unwrap();
        assert!(c.try_dealloc(off).is_ok());
        // A double free of the now-parked offset is rejected: the backend
        // still reports the chunk live, but the cache knows it owns it.
        assert!(matches!(
            c.try_dealloc(off),
            Err(nbbs::error::FreeError::NotAllocated { .. })
        ));
        assert!(c.contains_cached(off));
    }

    #[test]
    fn drain_all_returns_everything_to_backend() {
        let c = small_cache();
        // Past two 64-entry magazines: the overflow parks in the depot.
        let offs: Vec<_> = (0..200).filter_map(|_| c.alloc(8)).collect();
        assert_eq!(offs.len(), 200);
        for off in offs {
            c.dealloc(off);
        }
        assert!(
            c.snapshot().depot_exchanges > 0,
            "nothing reached the depot"
        );
        assert!(c.cached_bytes() > 0);
        c.drain_all();
        assert_eq!(c.cached_bytes(), 0);
        assert_eq!(c.backend().allocated_bytes(), 0);
        assert!(c.snapshot().drained > 0);
        nbbs::verify::audit_empty(c.backend()).assert_clean();
    }

    #[test]
    fn drop_drains_the_backend_clean() {
        let backend = Arc::new(NbbsFourLevel::new(cfg()));
        {
            let c = MagazineCache::new(Arc::clone(&backend));
            let off = c.alloc(256).unwrap();
            c.dealloc(off);
            assert!(backend.allocated_bytes() > 0, "chunk parked in the cache");
        }
        assert_eq!(backend.allocated_bytes(), 0, "Drop drained the cache");
        nbbs::verify::audit_empty(&*backend).assert_clean();
    }

    #[test]
    fn thread_guard_drains_on_scope_exit() {
        let c = small_cache();
        {
            let _guard = c.thread_guard();
            let off = c.alloc(8).unwrap();
            c.dealloc(off);
            assert!(c.cached_bytes() > 0);
        }
        // Guard dropped: this thread's slot (the only slot) is empty again.
        assert_eq!(c.cached_bytes(), 0);
        assert_eq!(c.backend().allocated_bytes(), 0);
    }

    #[test]
    fn verify_sees_through_the_cache() {
        let c = small_cache();
        let keep = c.alloc(128).unwrap();
        let transient = c.alloc(512).unwrap();
        c.dealloc(transient);
        // A bare backend audit would report the parked 512-byte chunk (and
        // the refill surplus) as stray occupancy; the cached audit must not.
        let mut live = BTreeMap::new();
        live.insert(keep, 128usize);
        verify_cached(&c, &live, true).assert_clean();
        assert!(!nbbs::verify::audit(c.backend(), &live, true).is_clean());
        c.dealloc(keep);
        verify_cached_empty(&c).assert_clean();
    }

    #[test]
    fn depot_circulates_full_magazines() {
        let c = small_cache();
        // Fill loaded + previous (64 entries each) and overflow one
        // magazine of class 0 into the depot.
        let offs: Vec<_> = (0..2 * 64 + 1).filter_map(|_| c.alloc(8)).collect();
        for &off in &offs {
            c.dealloc(off);
        }
        let s = c.snapshot();
        assert!(s.depot_exchanges > 0, "a full magazine reached the depot");
        // Drain the per-thread magazines only; then a fresh allocation run
        // must recover depot chunks as hits.
        c.drain_current_thread();
        let before = c.snapshot().hits;
        let mut again = Vec::new();
        for _ in 0..4 {
            again.push(c.alloc(8).unwrap());
        }
        assert!(c.snapshot().hits > before, "depot refill produced hits");
        for off in again {
            c.dealloc(off);
        }
    }

    #[test]
    fn nests_inside_a_slot_set() {
        let m = nbbs::SlotSet::new(2, MagazineCache::new(NbbsOneLevel::new(cfg())));
        m.get_or_build(1, || MagazineCache::new(NbbsOneLevel::new(cfg())));
        let off = m.alloc_on(1, 64).unwrap();
        m.dealloc(off);
        assert_eq!(m.allocated_bytes(), 0);
        assert_eq!(m.cache_stats().unwrap().cached_frees, 1);
    }

    #[test]
    fn concurrent_threads_never_share_a_live_offset() {
        let c = Arc::new(MagazineCache::new(NbbsFourLevel::new(
            BuddyConfig::new(1 << 18, 8, 1 << 12).unwrap(),
        )));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let _guard = c.thread_guard();
                    let mut held: Vec<usize> = Vec::new();
                    for i in 0..2000usize {
                        if held.is_empty() || (i * 31 + t) % 3 != 0 {
                            let size = 8usize << ((i + t) % 6);
                            if let Some(off) = c.alloc(size) {
                                held.push(off);
                            }
                        } else {
                            let off = held.swap_remove(i % held.len());
                            c.dealloc(off);
                        }
                    }
                    for off in held {
                        c.dealloc(off);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.allocated_bytes(), 0);
        c.drain_all();
        assert_eq!(c.backend().allocated_bytes(), 0);
        nbbs::verify::audit_empty(c.backend()).assert_clean();
    }
}
