//! Quickstart: the non-blocking buddy system in five minutes.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks through the public API surface of the stack:
//! configuring an allocator, performing offset-based allocations, attaching
//! real backing memory, inspecting occupancy, sharing the allocator across
//! threads without any locking, interposing the magazine cache
//! (`nbbs-cache`), topping it with the layout-aware facade (`nbbs-alloc`),
//! carrying the whole stack across NUMA nodes (`nbbs-numa`), watching it
//! run through the one observation handle (`nbbs-obs`: latency
//! histograms, the event ring with its crash-dump and chrome-trace views,
//! the heap profiler, metrics exposition), storm-testing it with
//! deterministic fault injection (`nbbs-chaos`), killing power-of-two
//! internal fragmentation on the small-object path with the size-class
//! slab layer (`nbbs-slab`), and riding the elastic region chain — demand-zero
//! backing, the background decommit scrubber, and growth/retirement under
//! a diurnal load shape.

use std::sync::Arc;

use nbbs::{BuddyBackend, BuddyConfig, BuddyRegion, NbbsFourLevel, NbbsOneLevel};
use nbbs_cache::MagazineCache;

fn main() {
    // ------------------------------------------------------------------
    // 1. Configure: 1 MiB arena, 64-byte allocation units, 64 KiB max chunk.
    // ------------------------------------------------------------------
    let config = BuddyConfig::new(1 << 20, 64, 64 << 10).expect("valid configuration");
    println!(
        "tree depth = {}, max level = {}, allocation units = {}",
        config.depth(),
        config.max_level(),
        config.unit_count()
    );

    // ------------------------------------------------------------------
    // 2. Offset-based allocation (no backing memory needed): useful when the
    //    buddy system manages a resource that is not addressable memory,
    //    e.g. physical frames, file-system extents, or GPU heap offsets.
    // ------------------------------------------------------------------
    let buddy = NbbsOneLevel::new(config);
    let a = buddy.alloc(100).expect("plenty of space"); // rounded up to 128
    let b = buddy.alloc(4096).expect("plenty of space");
    println!(
        "a at offset {a} ({} bytes granted), b at offset {b} ({} bytes granted)",
        buddy.geometry().granted_size(100).unwrap(),
        buddy.geometry().granted_size(4096).unwrap()
    );
    println!("allocated bytes: {}", buddy.allocated_bytes());
    buddy.dealloc(a);
    buddy.dealloc(b);
    assert_eq!(buddy.allocated_bytes(), 0);

    // ------------------------------------------------------------------
    // 3. Pointer-based allocation: wrap any backend in a BuddyRegion to get
    //    real, naturally-aligned memory.
    // ------------------------------------------------------------------
    let region = BuddyRegion::new(NbbsFourLevel::new(config));
    let ptr = region.alloc_bytes(1000).expect("plenty of space");
    unsafe {
        ptr.as_ptr().write_bytes(0xAB, 1000);
        assert_eq!(*ptr.as_ptr().add(999), 0xAB);
    }
    println!(
        "region handed out {} bytes at {:p} (1024-byte aligned: {})",
        region.allocated_bytes(),
        ptr.as_ptr(),
        (ptr.as_ptr() as usize).is_multiple_of(1024)
    );
    region.dealloc_bytes(ptr);

    // ------------------------------------------------------------------
    // 4. Fully concurrent use: clone an Arc and hammer the allocator from
    //    several threads.  No locks are involved; conflicting operations
    //    retry on other chunks.
    // ------------------------------------------------------------------
    let shared = Arc::new(NbbsFourLevel::new(config));
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let alloc = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut live = Vec::new();
                for i in 0..50_000usize {
                    let size = 64 << ((i + t) % 5);
                    if let Some(off) = alloc.alloc(size) {
                        live.push(off);
                    }
                    if live.len() > 32 {
                        alloc.dealloc(live.swap_remove(0));
                    }
                }
                for off in live {
                    alloc.dealloc(off);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    println!(
        "after 4 threads x 50k operations: allocated bytes = {} (must be 0)",
        shared.allocated_bytes()
    );
    assert_eq!(shared.allocated_bytes(), 0);

    // ------------------------------------------------------------------
    // 5. The same code drives every allocator in the paper's evaluation via
    //    the BuddyBackend trait.
    // ------------------------------------------------------------------
    let backends: Vec<Box<dyn BuddyBackend>> = vec![
        Box::new(NbbsOneLevel::new(config)),
        Box::new(NbbsFourLevel::new(config)),
    ];
    for backend in &backends {
        let off = backend.alloc(256).unwrap();
        println!("{:<8} served 256 bytes at offset {off}", backend.name());
        backend.dealloc(off);
    }

    // ------------------------------------------------------------------
    // 6. Production deployments interpose a per-thread cache so the hot
    //    path rarely touches the shared tree.  MagazineCache wraps any
    //    backend — and is itself a BuddyBackend, so everything above
    //    (BuddyRegion, NodeSet, trait objects) nests unchanged.
    //
    //    Overflow/refill traffic goes through *sharded* depots (one
    //    lock-free magazine stack per group of thread slots, so chunks
    //    never circulate across the group boundary), and magazine
    //    capacities adapt to the workload: bursts that keep spilling past
    //    a depot shard double the class's capacity, byte-budget pressure
    //    halves it.  CacheConfig exposes the knobs: `depot_shards` (None =
    //    auto, ~one per two CPUs), `depot_magazines` (0 bypasses the
    //    depot), `max_magazine_capacity`, and `cache_bytes_budget` (None =
    //    a quarter of the managed region).
    // ------------------------------------------------------------------
    let cached = Arc::new(MagazineCache::new(NbbsFourLevel::new(config)));
    println!(
        "cache geometry: {} slots in {} depot shard(s), {} byte budget",
        cached.slot_count(),
        cached.depot_shard_count(),
        cached.cache_bytes_budget()
    );
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let alloc = Arc::clone(&cached);
            std::thread::spawn(move || {
                // Drain this thread's magazines back to the tree on exit.
                let _drain = alloc.thread_guard();
                for i in 0..50_000usize {
                    let size = 64 << ((i + t) % 5);
                    if let Some(off) = alloc.alloc(size) {
                        alloc.dealloc(off); // recycled by the magazine, not the tree
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = cached.snapshot();
    println!(
        "cached 4lvl-nb: {:.1}% of {} allocations never touched the tree \
         ({} refills, {} flushes, {} depot spills, {} capacity grows)",
        stats.hit_rate() * 100.0,
        stats.alloc_requests(),
        stats.refilled,
        stats.flushed,
        stats.depot_spills,
        stats.resize_grows
    );
    assert_eq!(cached.allocated_bytes(), 0);
    cached.drain_all();
    assert_eq!(cached.backend().allocated_bytes(), 0);

    // ------------------------------------------------------------------
    // 7. The top of the stack: the layout-aware facade (`nbbs-alloc`).
    //
    //        tree (nbbs) -> magazine cache (nbbs-cache) -> facade
    //
    //    NbbsAllocator speaks Layout instead of sizes: over-aligned
    //    requests are served by the buddy itself (round to max(size,
    //    align) — power-of-two blocks are naturally aligned), and
    //    grow/shrink resolve *in place* whenever the granted block already
    //    covers the new layout (pure level math, no tree walk).  For
    //    whole-program use, `nbbs_alloc::NbbsGlobalAlloc` packages this
    //    stack for #[global_allocator]: lazy OnceLock construction,
    //    System fail-over for oversized requests, and per-thread exit
    //    drains — see examples/global_allocator.rs.
    // ------------------------------------------------------------------
    use nbbs_alloc::NbbsAllocator;
    use std::alloc::Layout;

    let facade = NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(config)));
    // A 64-byte payload on a 4 KiB boundary: one buddy block, no fallback.
    let aligned = Layout::from_size_align(64, 4096).unwrap();
    let block = facade.allocate(aligned).expect("plenty of space");
    println!(
        "facade served {} bytes at {:p} (4096-aligned: {})",
        block.len(),
        block.cast::<u8>().as_ptr(),
        (block.cast::<u8>().as_ptr() as usize).is_multiple_of(4096)
    );
    unsafe { facade.deallocate(block.cast(), aligned) };

    // Growing inside the granted block keeps the pointer (no copy).
    let small = Layout::from_size_align(100, 8).unwrap(); // granted 128
    let grown_layout = Layout::from_size_align(128, 8).unwrap();
    let p = facade.allocate(small).expect("plenty of space");
    let grown = unsafe { facade.grow(p.cast(), small, grown_layout) }.expect("fits in place");
    assert_eq!(grown.cast::<u8>(), p.cast::<u8>());
    unsafe { facade.deallocate(grown.cast(), grown_layout) };
    let fstats = facade.facade_stats();
    println!(
        "facade realloc: {} in-place grows, {} moved",
        fstats.grows_in_place, fstats.grows_moved
    );
    assert_eq!(facade.allocated_bytes(), 0);

    // ------------------------------------------------------------------
    // 8. Multi-node (NUMA) deployment: `nbbs-numa`'s NodeSet owns one
    //    buddy instance per node under a single widened geometry — the
    //    node index lives in the high bits of every offset, so ownership
    //    is two shifts — and is itself a BuddyBackend.  The same cache and
    //    facade therefore carry across nodes unchanged: allocations route
    //    to the calling thread's home node (sysfs topology, or an
    //    NBBS_NUMA_NODES override, or a deterministic synthetic
    //    assignment) with nearest-first remote fallback, and frees return
    //    to the owning node from any thread.  It is a composition, not
    //    part of the shipped `NbbsGlobalAlloc` (tree -> cache -> facade);
    //    examples/numa_multi_instance.rs builds the whole multi-node stack.
    // ------------------------------------------------------------------
    use nbbs_numa::{NodePolicy, NodeSet, Topology};

    let numa_facade = NbbsAllocator::new(MagazineCache::new(NodeSet::with_topology(
        (0..2).map(|_| NbbsFourLevel::new(config)).collect(),
        Topology::synthetic(2),
        NodePolicy::HomeFirst,
    )));
    let layout = Layout::from_size_align(256, 64).unwrap();
    let block = numa_facade.allocate(layout).expect("plenty of space");
    let node_set = numa_facade.backend().backend();
    println!(
        "multi-node facade over {} nodes served {} bytes (home node {})",
        node_set.node_count(),
        block.len(),
        node_set.home_node()
    );
    unsafe { numa_facade.deallocate(block.cast(), layout) };
    numa_facade.backend().drain_all();
    let shares = node_set.node_stats();
    println!(
        "per-node service counts: {:?}",
        shares.iter().map(|s| s.served()).collect::<Vec<_>>()
    );
    assert_eq!(numa_facade.allocated_bytes(), 0);

    // ------------------------------------------------------------------
    // 9. Running the model checker: `nbbs-model` *enumerates* thread
    //    interleavings instead of sampling them.  Any program written
    //    against `nbbs_sync::shadow` atomics can be explored out of the
    //    box — below, the classic lost-update race, found in a handful of
    //    schedules with a replayable witness.  To point the checker at the
    //    real 4-level tree (every load/store/CAS of the bunch-word climbs
    //    becomes a scheduler yield point), rebuild with the shadow
    //    aliases and run the shipped configurations:
    //
    //        RUSTFLAGS="--cfg nbbs_model" cargo test -p nbbs-model
    //        RUSTFLAGS="--cfg nbbs_model" cargo run --release -p nbbs-model --bin model-check
    //
    //    (release/release, release/allocate and release/release/allocate
    //    over one bunch boundary; each run reports the schedules explored
    //    and fails with a replayable step trace on any violation.)
    // ------------------------------------------------------------------
    use nbbs_model::{Explorer, Program};
    use nbbs_sync::shadow;
    use std::sync::atomic::Ordering;

    let racy_counter = Program::new(
        || shadow::AtomicU64::new(0),
        |c: &shadow::AtomicU64| match c.load(Ordering::SeqCst) {
            2 => Ok(()),
            v => Err(format!("lost update: counter = {v}")),
        },
    )
    .thread(|c: &shadow::AtomicU64| {
        let v = c.load(Ordering::SeqCst);
        c.store(v + 1, Ordering::SeqCst); // load-then-store: not atomic!
    })
    .thread(|c: &shadow::AtomicU64| {
        let v = c.load(Ordering::SeqCst);
        c.store(v + 1, Ordering::SeqCst);
    });
    let report = Explorer::exhaustive().explore(&racy_counter);
    let witness = report
        .violations
        .first()
        .expect("the checker must find the lost-update schedule");
    println!(
        "model checker: lost-update race found after {} schedules; \
         replayable witness = {:?}",
        report.schedules, witness.choices
    );

    // ------------------------------------------------------------------
    // 10. Observability (`nbbs-obs`): wrap any backend in `Recorded` and
    //     every operation lands in a lock-free log-bucketed latency
    //     histogram (two sub-buckets per octave, sharded across threads)
    //     plus a per-thread flight ring of recent operations.  The
    //     benchmark harness samples one in 64 operations
    //     (`Recorded::sampled` with `DEFAULT_SAMPLE_STRIDE`) so recording
    //     stays in the measurement noise; a diagnostic run records
    //     everything, as here.  `MetricsRegistry` then folds the whole
    //     stack — backend counters, cache hit rates, magazine capacities,
    //     facade shares, and the recorded percentiles — into one
    //     `StackSnapshot` with `text_table()` / `to_json()` exposition
    //     (the same table `NbbsGlobalAlloc::stats_report()` prints).
    //     With the `op-stats` feature the backend additionally counts CAS
    //     retries per tree level.
    // ------------------------------------------------------------------
    use nbbs_obs::{MetricsRegistry, OpKind, Recorded, Recorder};

    let recorder = Arc::new(Recorder::new());
    let observed = Arc::new(Recorded::new(
        MagazineCache::new(NbbsFourLevel::new(config)),
        Arc::clone(&recorder),
    ));
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let alloc = Arc::clone(&observed);
            std::thread::spawn(move || {
                let _drain = Recorded::inner(&alloc).thread_guard();
                for i in 0..10_000usize {
                    let size = 64 << ((i + t) % 5);
                    if let Some(off) = alloc.alloc(size) {
                        alloc.dealloc(off);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let alloc_lat = recorder.snapshot(OpKind::Alloc).percentiles();
    println!(
        "observed alloc latency over {} samples: p50 {:.0} ns, p99 {:.0} ns, p99.9 {:.0} ns",
        alloc_lat.count, alloc_lat.p50_ns, alloc_lat.p99_ns, alloc_lat.p999_ns
    );
    let mut registry = MetricsRegistry::new("quickstart");
    registry.observe_backend(observed.as_ref());
    registry.set_recorder(Arc::clone(&recorder));
    print!("{}", registry.snapshot().text_table());
    // The recorder's event ring keeps each thread's most recent operations
    // for post-mortem dumps (panic hooks, soak REPRO paths); section 13
    // exports the same slots as a timeline:
    let dump = recorder.ring().flight_dump();
    println!(
        "crash dump of the event ring: {} line(s), starting\n{}",
        dump.lines().count(),
        dump.lines().take(3).collect::<Vec<_>>().join("\n")
    );

    // ------------------------------------------------------------------
    // 11. Chaos engineering (`nbbs-chaos`): wrap any backend in
    //     `FaultInjecting` and a *seeded* `FaultPlan` turns backend
    //     operations into transient failures, hard OOMs, delays — or, in a
    //     `panic_storm`, panics that unwind mid-refill.  The schedule is a
    //     pure function of the seed, so a failure observed once is a
    //     failure you can replay forever: the soak harness prints
    //     `REPRO: seed 0x…` lines, and re-running with that seed (e.g.
    //     `cargo run --release --example chaos_soak 1 4 4000 0x<seed>`)
    //     regenerates the identical storm.  The layers above degrade
    //     instead of breaking: the cache retries transient misses with
    //     jittered backoff and rescues chunks orphaned by panics, and the
    //     facade serves injected hard OOM from its emergency reserve.
    // ------------------------------------------------------------------
    use nbbs_chaos::{FaultInjecting, FaultPlan};

    let seed = 0x5EED_CAFE;
    // Carve the emergency reserve before arming the storm, then let the
    // injected hard OOMs land on the serving path.
    let injected = FaultInjecting::new(NbbsFourLevel::new(config), FaultPlan::storm(seed));
    injected.disarm();
    let hardened = NbbsAllocator::new(injected).with_reserve(4, 4096);
    hardened.backend().arm();
    let layout = Layout::from_size_align(256, 64).unwrap();
    let mut served = 0u32;
    let mut held = Vec::new();
    for _ in 0..10_000 {
        if let Ok(block) = hardened.allocate(layout) {
            served += 1;
            held.push(block);
        }
        if held.len() > 16 {
            unsafe { hardened.deallocate(held.swap_remove(0).cast(), layout) };
        }
    }
    for block in held.drain(..) {
        unsafe { hardened.deallocate(block.cast(), layout) };
    }
    let faults = hardened.backend().fault_stats();
    let reserve = hardened.reserve_stats().expect("reserve was carved");
    println!(
        "chaos: seed {seed:#x} injected {} transient failures + {} hard OOMs \
         over {} gated ops; {served} requests still served \
         ({} from the emergency reserve, {} refills)",
        faults.injected_failures, faults.injected_oom, faults.ops, reserve.hits, reserve.refills
    );
    assert_eq!(hardened.allocated_bytes(), 0);

    // Determinism is the whole point: the same seed over the same request
    // sequence injects the exact same faults, down to the last counter.
    let storm_run = |seed: u64| {
        let rerun = NbbsAllocator::new(FaultInjecting::new(
            NbbsFourLevel::new(config),
            FaultPlan::storm(seed),
        ));
        let mut held = Vec::new();
        for _ in 0..10_000 {
            if let Ok(block) = rerun.allocate(layout) {
                held.push(block);
            }
            if held.len() > 16 {
                unsafe { rerun.deallocate(held.swap_remove(0).cast(), layout) };
            }
        }
        for block in held {
            unsafe { rerun.deallocate(block.cast(), layout) };
        }
        rerun.backend().fault_stats()
    };
    let (first, replay) = (storm_run(seed), storm_run(seed));
    assert_eq!(first, replay, "seeded fault schedules must replay exactly");
    println!(
        "chaos replay: {} failures + {} OOMs + {} delays over {} gated ops, \
         twice, identically",
        replay.injected_failures, replay.injected_oom, replay.injected_delays, replay.ops
    );

    // ------------------------------------------------------------------
    // 12. Killing power-of-two waste (`nbbs-slab`): the buddy tree rounds
    //     every request up to a power of two, so a 40-byte session object
    //     burns 64 bytes — a 1.60 committed/requested ratio.  SlabBackend
    //     serves requests at or below a cutoff (default 2 KiB) from
    //     jemalloc-style *spaced* size classes (8, 16, …, 64, 80, 96, 112,
    //     128, 160, …; ≤ 25% worst-case waste) carved out of buddy-granted
    //     pages; bigger requests pass through unchanged.  It is itself a
    //     BuddyBackend with a geometry-honest `granted_size_for`, so the
    //     cache, the facade, NodeSet, Recorded and FaultInjecting all
    //     stack on it unchanged — the benchmark's
    //     `slab.committed_over_requested` is the measured ratio.
    // ------------------------------------------------------------------
    use nbbs_slab::{SlabBackend, SlabConfig};

    let slab = SlabBackend::with_config(
        NbbsFourLevel::new(config),
        SlabConfig::default(), // cutoff 2 KiB, 16 KiB pages, keep 2 empties
    );
    println!(
        "slab ladder: {} classes up to {} B over {} B pages (first ten: {:?})",
        slab.class_sizes().len(),
        slab.cutoff(),
        slab.page_size(),
        &slab.class_sizes()[..10]
    );
    // The 40-byte object that cost 64 bytes in section 2 now costs 40.
    let bare = NbbsFourLevel::new(config);
    println!(
        "40-byte request: buddy grants {} B, slab grants {} B",
        bare.granted_size_for(40).unwrap(),
        slab.granted_size_for(40).unwrap()
    );

    // The full production stack, slab interposed: facade -> cache -> slab
    // -> tree.  A 40-byte-heavy mix now commits what it requests.
    let slab_stack = NbbsAllocator::new(MagazineCache::new(SlabBackend::new(NbbsFourLevel::new(
        config,
    ))));
    let small = Layout::from_size_align(40, 8).unwrap();
    let mut held = Vec::new();
    for _ in 0..2_000 {
        if let Ok(block) = slab_stack.allocate(small) {
            held.push(block);
        }
        if held.len() > 64 {
            unsafe { slab_stack.deallocate(held.swap_remove(0).cast(), small) };
        }
    }
    for block in held.drain(..) {
        unsafe { slab_stack.deallocate(block.cast(), small) };
    }
    let frag = slab_stack
        .backend()
        .backend()
        .frag_stats()
        .expect("the slab reports fragmentation counters");
    println!(
        "slab stack after a 40-byte storm: {:.2} committed/requested \
         ({} B over {} B), {} pages granted, {} retired — the bare buddy \
         would sit at {:.2}",
        frag.ratio(),
        frag.bytes_committed(),
        frag.bytes_requested(),
        frag.pages_live + frag.pages_retired,
        frag.pages_retired,
        64.0 / 40.0
    );
    assert_eq!(slab_stack.allocated_bytes(), 0);
    slab_stack.backend().drain_cache(); // drain magazines, retire warm pages
    assert_eq!(slab_stack.backend().backend().inner().allocated_bytes(), 0);

    // ------------------------------------------------------------------
    // 13. The rest of the one observation crate (`nbbs-obs`): the ring's
    //     timeline view and the heap profiler.
    //
    //     (a) The `[flight]` dump of section 10 and a chrome://tracing
    //     timeline are two views of one `TraceRing`, which every Recorder
    //     owns and which records from the moment the recorder exists.
    //     `stop()` freezes it for an export and `start()` opens a new
    //     epoch (each event is tagged with its epoch, so a windowed export
    //     can tell its events from the tail before it);
    //     `to_chrome_json()` writes a timeline you can drop straight into
    //     chrome://tracing or Perfetto.  `NBBS_TRACE=trace.json` arms the
    //     same dump on NbbsGlobalAlloc's exit hook.
    // ------------------------------------------------------------------
    let ring = recorder.ring();
    ring.stop();
    let chrome = ring.to_chrome_json("quickstart");
    let slices = nbbs_obs::jsoncheck::validate_chrome_trace(&chrome)
        .expect("the exporter must emit valid chrome-trace JSON");
    println!(
        "event ring holds {} events ({} dropped once full) -> {} chrome-trace \
         slices, {} B of JSON for Perfetto",
        ring.events().len(),
        ring.dropped(),
        slices,
        chrome.len()
    );

    // ------------------------------------------------------------------
    //     (b) HeapProfiler — sampled allocation-site profiling, the
    //     recorder's optional third part.  Hand the facade a recorder that
    //     carries one (`Recorder::new().with_profiler(stride)`, or
    //     `profiler_only` as here, which times nothing; stride 1 here,
    //     production uses 1-in-64 and scales the estimates back up) and
    //     every sampled allocation captures a backtrace into a lock-free
    //     site table.  The report ranks sites by live bytes — at
    //     quiescence it must attribute everything the facade still holds.
    //     `NBBS_PROFILE=64` arms the same profiler on NbbsGlobalAlloc.
    // ------------------------------------------------------------------
    let profiling = Arc::new(Recorder::profiler_only(1));
    let profiler = profiling.profiler().expect("armed just above");
    let profiled = NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(config)))
        .with_recorder(Arc::clone(&profiling));
    let layout = Layout::from_size_align(256, 8).unwrap();
    let held: Vec<_> = (0..32)
        .filter_map(|_| profiled.allocate(layout).ok())
        .collect();
    let report = profiler.report();
    println!(
        "heap profiler attributes {} B live across {} site(s) \
         (facade holds {} B): \n{}",
        report.attributed_live_bytes(),
        report.sites.len(),
        profiled.allocated_bytes(),
        report.text(3)
    );
    assert_eq!(
        report.attributed_live_bytes(),
        profiled.allocated_bytes() as u64,
        "stride-1 profiling attributes every live byte"
    );
    for block in held {
        unsafe { profiled.deallocate(block.cast(), layout) };
    }
    assert_eq!(profiler.report().attributed_live_bytes(), 0);

    // ------------------------------------------------------------------
    // 14. Elastic regions: a BuddyRegion's mapping is demand-zero, so the
    //     virtual span is reserved up front but physical frames commit
    //     only as allocations are granted — and `scrub_pass()` (or the
    //     background `start_scrubber`, which `NBBS_SCRUB=<ms>` arms on
    //     NbbsGlobalAlloc) claims idle blocks through the ordinary
    //     allocation CAS and hands their pages back to the kernel.
    //
    //     ElasticSet stretches that into a *chain* of buddy instances
    //     behind one widened backend: slot 0 exists from the start, extra
    //     regions are built under sustained OOM pressure, and drained
    //     regions retire to dormant at trough so the scrubber can release
    //     their whole span.  Pressure later *reactivates* dormant regions
    //     instead of building new ones.
    // ------------------------------------------------------------------
    use nbbs::ElasticSet;

    let elastic = BuddyRegion::new(
        ElasticSet::new(4, move |_slot| NbbsFourLevel::new(config)).with_grow_threshold(1),
    );
    // `committed_bytes` is exact from construction: a fresh demand-zero
    // mapping reads 0, pages enter the count when a grant covers them and
    // leave it when the scrubber decommits them.
    println!(
        "\nelastic region: {} B reserved across up to {} regions, {} B committed",
        elastic.managed_bytes(),
        elastic.backend().max_regions(),
        elastic.committed_bytes()
    );
    assert_eq!(elastic.committed_bytes(), 0, "nothing granted yet");

    // Day: demand beyond one region's 1 MiB makes the chain grow.
    let mut day = Vec::new();
    while let Some(ptr) = elastic.alloc_bytes(64 << 10) {
        unsafe { ptr.as_ptr().write_bytes(0xEE, 64 << 10) };
        day.push(ptr);
    }
    let stats = elastic.backend().elastic_stats();
    println!(
        "peak: {} chunks live, {} of {} regions active ({} grown under pressure), {} B committed",
        day.len(),
        stats.active_regions,
        stats.max_regions,
        stats.grows,
        elastic.committed_bytes()
    );
    assert_eq!(stats.active_regions, 4);

    // Night: traffic stops; one scrub pass retires the drained regions and
    // decommits every idle span.
    for ptr in day.drain(..) {
        elastic.dealloc_bytes(ptr);
    }
    let released = elastic.scrub_pass();
    let mem = elastic.memory_stats();
    println!(
        "trough: scrub released {released} B -> {} B committed ({:.1}%), \
         {} regions retired, {} active",
        mem.committed_bytes,
        mem.committed_ratio() * 100.0,
        elastic.backend().elastic_stats().retires,
        elastic.backend().elastic_stats().active_regions
    );
    assert_eq!(elastic.backend().elastic_stats().active_regions, 1);

    // Dawn: renewed pressure reactivates the dormant regions — demand-zero
    // pages fault back in lazily, no rebuild.
    let again = elastic.alloc_bytes(64 << 10).expect("slot 0 serves");
    let mut dawn = vec![again];
    while let Some(ptr) = elastic.alloc_bytes(64 << 10) {
        dawn.push(ptr);
    }
    println!(
        "dawn: {} chunks live again, {} reactivation(s), 0 rebuilds",
        dawn.len(),
        elastic.backend().elastic_stats().reactivations
    );
    for ptr in dawn {
        elastic.dealloc_bytes(ptr);
    }
    assert_eq!(elastic.backend().allocated_bytes(), 0);
}
