//! Using the cached NBBS buddy as the program's global allocator.
//!
//! Run with:
//! ```text
//! cargo run --release --example global_allocator
//! ```
//!
//! The program's `#[global_allocator]` is `nbbs_alloc::NbbsGlobalAlloc` —
//! the shipped stack of this reproduction (the shell → per-thread magazine
//! cache → lock-free buddy tree, every call one class-table read and one
//! visit to the thread's cache slot).  Every `Vec`, `String` and
//! `HashMap` below is buddy memory; over-aligned requests are served by
//! rounding to `max(size, align)` (power-of-two blocks are naturally
//! aligned); `realloc` resolves in place whenever the new layout names the
//! class the block already has (a realloc between two cached classes is a
//! magazine hit either way); and threads drain their magazines back to the
//! tree when they exit.
//!
//! The burst at the end races 8 threads through direct `GlobalAlloc`
//! calls — all released by one barrier, so the first allocations race the
//! adapter's region construction.  The shell's `OnceLock` first touch
//! keeps the whole burst in the buddy, over-aligned requests included.

use std::alloc::{GlobalAlloc, Layout};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use nbbs_alloc::NbbsGlobalAlloc;

// 64 MiB arena, 32-byte allocation units, 64 KiB largest buddy-served chunk.
#[global_allocator]
static GLOBAL: NbbsGlobalAlloc = NbbsGlobalAlloc::new(64 << 20, 32, 64 << 10);

/// Pushes an identical 8-thread burst through `alloc` via direct
/// `GlobalAlloc` calls — all threads released by one barrier, so the first
/// allocations race the adapter's region construction — and returns the
/// fraction of requested bytes served by the buddy.  Every fourth request
/// is over-aligned (4 KiB boundary for a small payload).
fn burst_buddy_share<A>(alloc: &'static A, owns: fn(*mut u8) -> bool) -> f64
where
    A: GlobalAlloc + Sync,
{
    const THREADS: usize = 8;
    const REQUESTS: usize = 5_000;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut buddy = 0u64;
                let mut total = 0u64;
                barrier.wait();
                for i in 0..REQUESTS {
                    let size = 32 + (i * 37 + t * 11) % 2048;
                    let align = [8usize, 16, 64, 4096][i % 4];
                    let layout = Layout::from_size_align(size, align).unwrap();
                    unsafe {
                        let p = alloc.alloc(layout);
                        assert!(!p.is_null());
                        assert_eq!(p as usize % align, 0);
                        total += size as u64;
                        if owns(p) {
                            buddy += size as u64;
                        }
                        alloc.dealloc(p, layout);
                    }
                }
                (buddy, total)
            })
        })
        .collect();
    let (buddy, total) = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold((0u64, 0u64), |(b, t), (db, dt)| (b + db, t + dt));
    buddy as f64 / total as f64
}

fn main() {
    // A real deployment registers the exit dump up front: the stats report
    // (byte shares, cache hit rate, committed memory) lands on stderr at
    // process exit.  What else it carries is the environment's call, read
    // once on the allocator's first touch: NBBS_OBS=1 adds latency
    // percentiles and the event ring's [flight] tail, NBBS_TRACE=<path>
    // also writes the ring there as chrome-trace JSON, and
    // NBBS_PROFILE=<stride> appends the ranked heap profile.
    GLOBAL.print_stats_on_exit();

    // Ordinary collection work — served by the cached buddy.
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    for i in 0..10_000u64 {
        map.entry(format!("bucket-{}", i % 64)).or_default().push(i);
    }
    let total: u64 = map.values().map(|v| v.iter().sum::<u64>()).sum();
    println!("sum over 10k values in 64 buckets: {total}");
    println!(
        "bytes currently served by the buddy region: {}",
        GLOBAL.buddy_allocated_bytes()
    );

    // Thread churn: short-lived vectors, magazines absorb the round-trips,
    // and each thread's slot drains back to the tree when it exits.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut acc = 0usize;
                for i in 0..20_000usize {
                    let v: Vec<u8> = vec![t as u8; 16 + (i % 512)];
                    acc += v.len();
                }
                acc
            })
        })
        .collect();
    let churned: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    println!("4 threads churned {churned} bytes of short-lived vectors");

    // Growing a Vec within its block's class reallocs in place.
    let mut grower: Vec<u8> = Vec::with_capacity(100); // granted 128 bytes
    grower.extend(std::iter::repeat_n(0xA5u8, 100));
    grower.reserve_exact(128 - 100); // still inside the granted block
    let served = GLOBAL
        .metrics()
        .shell
        .expect("the shares are live once anything allocated");
    println!(
        "realloc behaviour so far: {} grows in place, {} moved ({:.0}% in place)",
        served.grows_in_place,
        served.grows_moved,
        served.grow_in_place_rate() * 100.0
    );

    // A deliberately huge allocation exceeds max_size and transparently
    // goes to the system allocator.
    let big: Vec<u8> = vec![0u8; 1 << 20];
    println!(
        "1 MiB vector at {:p}: served by the buddy? {}",
        big.as_ptr(),
        GLOBAL.owns(big.as_ptr() as *mut u8)
    );

    // A concurrent burst with over-aligned requests mixed in: the shell's
    // OnceLock first touch keeps the whole burst in the buddy even while
    // the losing first-touch threads race region construction.
    let share = burst_buddy_share(&GLOBAL, |p| GLOBAL.owns(p));
    println!("\nbytes-served-by-buddy share over an 8-thread burst (incl. over-aligned):");
    println!("  NbbsGlobalAlloc (nbbs-alloc)  {:>7.3}%", share * 100.0);
    if share > 0.99 {
        println!("  -> the shell kept the whole burst in the buddy");
    } else {
        println!("  -> WARNING: expected the shell to keep the whole burst in the buddy");
    }

    drop(map);
    println!(
        "after dropping the map, buddy-served bytes: {}",
        GLOBAL.buddy_allocated_bytes()
    );

    // The arena is demand-zero: physical frames commit on first grant and
    // a scrub pass hands idle ones back to the kernel (a background
    // scrubber does the same on a timer under NBBS_SCRUB=<ms>).
    GLOBAL.drain_cache();
    let freed = GLOBAL.scrub_pass();
    if let Some(mem) = GLOBAL.metrics().memory {
        println!(
            "scrub pass released {freed} B; {} B committed of {} B managed ({:.1}%)",
            mem.committed_bytes,
            mem.managed_bytes,
            mem.committed_ratio() * 100.0
        );
    }
    // The whole-program summary is the registry's unified exposition —
    // byte shares, the realloc split, cache hit rate, and magazine
    // capacities in the same table every binary in the workspace prints
    // (and what `print_stats_on_exit` would dump to stderr at exit).
    println!("\n{}", GLOBAL.stats_report());
}
