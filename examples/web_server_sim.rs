//! A miniature web-server simulation in the spirit of the Larson benchmark
//! (the motivation scenario of the paper's Figure 10), rewritten onto the
//! `nbbs-alloc` facade.
//!
//! Run with:
//! ```text
//! cargo run --release --example web_server_sim [threads] [seconds]
//! cargo run --release --example web_server_sim diurnal [threads] [seconds]
//! ```
//!
//! The `diurnal` mode plays a day/night traffic cycle against one cached
//! stack with the background decommit scrubber armed: worker threads ramp
//! a ~48 MiB working set up and churn it (peak), then the traffic drops to
//! zero (trough) and the scrubber hands the idle pages back to the kernel.
//! The mode asserts the committed-bytes counter falls to ≤ 35% of its peak
//! — and, on Linux, that the process's *resident set* (`/proc/self/statm`)
//! actually shrank with it, proving the `madvise` calls reach the kernel.
//!
//! Worker threads play request handlers driving the *layout-aware* facade —
//! the API a real server's buffers actually need: each incoming "request"
//! allocates a cache-line-aligned connection buffer and a response buffer
//! that *grows in steps* as the handler streams the body (through
//! `GlobalAlloc::realloc`, which resolves many of those steps in place,
//! because buddy blocks over-provision to the next power of two, and moves
//! a step the buddy cannot serve to `System`), and completed
//! responses are handed to other workers, so the freeing thread is often
//! not the allocating thread.
//!
//! Four back-ends are compared underneath the same facade: the 4-level
//! non-blocking buddy, the same buddy behind the magazine cache (how a
//! production server would deploy it), the cached stack with the
//! `nbbs-slab` size-class layer interposed (whose registry table adds a
//! `slab` committed/requested line — headers and small response chunks
//! stop rounding up to powers of two), and the spin-locked tree baseline —
//! the same ordering Figure 10 shows, now measured at the facade level.

use std::alloc::{GlobalAlloc, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_baselines::CloudwuBuddy;
use nbbs_cache::MagazineCache;
use nbbs_obs::StackSnapshot;
use nbbs_slab::SlabBackend;
use nbbs_workloads::rng::SplitMix64;

/// One in-flight request: a connection buffer plus a (grown) response
/// buffer, tracked as raw addresses so requests can cross worker threads.
struct Request {
    conn: usize,
    conn_layout: Layout,
    resp: usize,
    resp_layout: Layout,
}

/// Connection buffers sit on cache-line boundaries.
const CONN_ALIGN: usize = 64;

/// Releases both buffers; a response moved to `System` goes back there.
fn release(facade: &NbbsAllocator<Arc<dyn BuddyBackend>>, req: Request) {
    unsafe {
        facade.dealloc(req.conn as *mut u8, req.conn_layout);
        facade.dealloc(req.resp as *mut u8, req.resp_layout);
    }
}

fn simulate(label: &str, alloc: Arc<dyn BuddyBackend>, threads: usize, seconds: f64) -> u64 {
    let facade = Arc::new(NbbsAllocator::new(Arc::clone(&alloc)));
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    // Body steps that stayed in place, and steps that moved.
    let steps = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let exchange: Arc<crossbeam::queue::SegQueue<Request>> =
        Arc::new(crossbeam::queue::SegQueue::new());

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let facade = Arc::clone(&facade);
            let stop = Arc::clone(&stop);
            let completed = Arc::clone(&completed);
            let exchange = Arc::clone(&exchange);
            let steps = Arc::clone(&steps);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0xBEEF ^ t as u64);
                let mut in_flight: Vec<Request> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    // Accept a new "request": headers up to 1 KiB on a cache
                    // line; the response starts small and streams its body
                    // in up-to-2 KiB chunks through realloc().
                    let header = 64 + rng.next_below(960);
                    let conn_layout = Layout::from_size_align(header, CONN_ALIGN)
                        .expect("sizes stay well-formed");
                    let Ok(conn) = facade.allocate(conn_layout) else {
                        std::thread::yield_now();
                        continue;
                    };
                    let mut resp_layout =
                        Layout::from_size_align(256, 8).expect("sizes stay well-formed");
                    let resp = match facade.allocate(resp_layout) {
                        Ok(block) => block,
                        Err(_) => {
                            unsafe { facade.deallocate(conn.cast(), conn_layout) };
                            std::thread::yield_now();
                            continue;
                        }
                    };
                    let mut resp_ptr = resp.cast::<u8>().as_ptr();
                    // Stream the body: one to four grow steps.
                    for _ in 0..1 + rng.next_below(4) {
                        let new_size = resp_layout.size() + 256 + rng.next_below(2 << 10);
                        let grown = unsafe { facade.realloc(resp_ptr, resp_layout, new_size) };
                        assert!(!grown.is_null(), "System takes what the buddy cannot");
                        steps[usize::from(grown != resp_ptr)].fetch_add(1, Ordering::Relaxed);
                        resp_ptr = grown;
                        resp_layout =
                            Layout::from_size_align(new_size, 8).expect("sizes stay well-formed");
                    }
                    in_flight.push(Request {
                        conn: conn.cast::<u8>().as_ptr() as usize,
                        conn_layout,
                        resp: resp_ptr as usize,
                        resp_layout,
                    });

                    // Retire an old request, either ours or one handed over
                    // by another worker.
                    if let Some(req) = exchange.pop() {
                        release(&facade, req);
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    if in_flight.len() > 64 {
                        let req = in_flight.swap_remove(rng.next_below(in_flight.len()));
                        if rng.next_below(100) < 40 {
                            // Hand the response off to another worker.
                            exchange.push(req);
                        } else {
                            release(&facade, req);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                for req in in_flight.drain(..) {
                    release(&facade, req);
                }
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    while let Some(req) = exchange.pop() {
        release(&facade, req);
    }
    assert_eq!(facade.allocated_bytes(), 0, "no request may leak");
    // One snapshot picks up the backend's counters and the cache stats (if
    // any) in a single table.
    print!(
        "{}",
        StackSnapshot::of(label, alloc.as_ref(), None).text_table()
    );
    println!(
        "  body     {} steps in place, {} moved\n",
        steps[0].load(Ordering::Relaxed),
        steps[1].load(Ordering::Relaxed)
    );
    // Return any magazine-cached buffers to the tree (no-op for uncached
    // backends) so the next candidate starts from pristine state.
    alloc.drain_cache();
    completed.load(Ordering::Relaxed)
}

/// Resident-set bytes from `/proc/self/statm` (field 2 is resident pages).
#[cfg(target_os = "linux")]
fn resident_bytes() -> Option<usize> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: usize = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// The day/night cycle: ramp a working set up under churn, drop to idle,
/// and watch the background scrubber walk committed bytes (and, on Linux,
/// the resident set) back down.
fn diurnal(threads: usize, seconds: f64) {
    // 64 MiB arena, 8-byte units, 16 KiB max request — same geometry as
    // the comparison mode, one cached non-blocking stack.
    let config = BuddyConfig::new(64 << 20, 8, 16 << 10).unwrap();
    let alloc = Arc::new(NbbsAllocator::new(MagazineCache::new(NbbsFourLevel::new(
        config,
    ))));
    alloc
        .region()
        .start_scrubber(std::time::Duration::from_millis(25));

    // Peak: each handler holds a slice of a ~48 MiB working set and churns
    // it — every buffer is written, so the pages are genuinely resident.
    const WORKING_SET: usize = 48 << 20;
    let per_thread = WORKING_SET / threads;
    println!(
        "diurnal cycle: {threads} handlers, {:.1}s peak, ~{} MiB working set",
        seconds,
        WORKING_SET >> 20
    );
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let alloc = Arc::clone(&alloc);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0xD1A7 ^ t as u64);
                let mut held: Vec<(NonNull<u8>, Layout)> = Vec::new();
                let mut held_bytes = 0usize;
                let deadline =
                    std::time::Instant::now() + std::time::Duration::from_secs_f64(seconds);
                while std::time::Instant::now() < deadline {
                    if held_bytes < per_thread {
                        let size = 4096 + rng.next_below(12 << 10);
                        let layout = Layout::from_size_align(size, CONN_ALIGN)
                            .expect("sizes stay well-formed");
                        if let Ok(block) = alloc.allocate(layout) {
                            unsafe { block.cast::<u8>().as_ptr().write_bytes(0x5A, size) };
                            held_bytes += size;
                            held.push((block.cast(), layout));
                        }
                    } else {
                        // At capacity: churn — retire a random buffer and
                        // replace it next iteration.
                        let (ptr, layout) = held.swap_remove(rng.next_below(held.len()));
                        held_bytes -= layout.size();
                        unsafe { alloc.deallocate(ptr, layout) };
                    }
                }
                // Night falls: this handler's traffic goes to zero.
                for (ptr, layout) in held {
                    unsafe { alloc.deallocate(ptr, layout) };
                }
            })
        })
        .collect();

    // Sample the peak while the handlers are hot.
    std::thread::sleep(std::time::Duration::from_secs_f64(seconds * 0.8));
    let peak = alloc.region().memory_stats();
    #[cfg(target_os = "linux")]
    let peak_rss = resident_bytes();
    println!(
        "peak:   {} B committed of {} B managed ({:.1}%)",
        peak.committed_bytes,
        peak.managed_bytes,
        peak.committed_ratio() * 100.0
    );
    for h in handles {
        h.join().unwrap();
    }
    // Push magazine-parked chunks back to the tree so the scrubber can
    // claim them (parked chunks are backend-live and refuse claims).
    alloc.backend().drain_cache();

    // Trough: the background scrubber does the rest on its own timer.
    let budget = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let trough = loop {
        let mem = alloc.region().memory_stats();
        if mem.committed_bytes * 100 <= peak.committed_bytes * 35 {
            break mem;
        }
        assert!(
            std::time::Instant::now() < budget,
            "scrubber never reached the trough target: {mem}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    println!(
        "trough: {} B committed ({:.1}% of peak) after {} scrub passes",
        trough.committed_bytes,
        trough.committed_bytes as f64 / peak.committed_bytes.max(1) as f64 * 100.0,
        trough.scrub_passes
    );
    assert!(
        trough.committed_bytes * 100 <= peak.committed_bytes * 35,
        "trough committed must be <= 35% of peak"
    );

    // On Linux, the counter must be backed by reality: the resident set
    // shrinks by at least half of what the scrubber says it released.
    #[cfg(target_os = "linux")]
    if let (Some(before), Some(after)) = (peak_rss, resident_bytes()) {
        let released = (peak.committed_bytes - trough.committed_bytes) as usize;
        println!(
            "rss:    {} MiB at peak -> {} MiB at trough ({} MiB released by the scrubber)",
            before >> 20,
            after >> 20,
            released >> 20
        );
        assert!(
            after + released / 2 <= before,
            "resident set must track the decommit: {before} B -> {after} B, released {released} B"
        );
    }
    alloc.region().stop_scrubber();
    println!("diurnal cycle OK");
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("diurnal") {
        args.next();
        let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
        let seconds: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1.0);
        diurnal(threads.max(1), seconds);
        return;
    }
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let seconds: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1.0);

    // 64 MiB arena, 8-byte units, 16 KiB max request (the paper's user-space
    // configuration).
    let config = BuddyConfig::new(64 << 20, 8, 16 << 10).unwrap();

    println!("web-server simulation: {threads} handler threads, {seconds:.1}s window\n");
    let candidates: Vec<(&str, Arc<dyn BuddyBackend>)> = vec![
        (
            "4lvl-nb (non-blocking)",
            Arc::new(NbbsFourLevel::new(config)),
        ),
        (
            "cached-4lvl-nb (magazines)",
            Arc::new(MagazineCache::new(NbbsFourLevel::new(config)).with_name("cached-4lvl-nb")),
        ),
        (
            "cached-slab-4lvl-nb (+slab)",
            Arc::new(
                MagazineCache::new(
                    SlabBackend::new(NbbsFourLevel::new(config)).with_name("slab-4lvl-nb"),
                )
                .with_name("cached-slab-4lvl-nb"),
            ),
        ),
        ("buddy-sl (spin lock)", Arc::new(CloudwuBuddy::new(config))),
    ];

    let mut results = Vec::new();
    for (label, alloc) in candidates {
        let completed = simulate(label, alloc, threads, seconds);
        println!(
            "{label:<26} {completed:>10} requests completed  ({:.1} req/s)",
            completed as f64 / seconds
        );
        results.push((label, completed));
    }
    if let [(_, nb), (_, cached), (_, slab), (_, sl)] = results[..] {
        let gain = nb as f64 / sl.max(1) as f64 - 1.0;
        println!(
            "\nnon-blocking back-end completed {:.1}% {} requests than the spin-locked one",
            gain.abs() * 100.0,
            if gain >= 0.0 { "more" } else { "fewer" }
        );
        let cache_gain = cached as f64 / nb.max(1) as f64 - 1.0;
        println!(
            "the magazine cache completed {:.1}% {} requests than the bare non-blocking tree",
            cache_gain.abs() * 100.0,
            if cache_gain >= 0.0 { "more" } else { "fewer" }
        );
        let slab_cost = slab as f64 / cached.max(1) as f64 - 1.0;
        println!(
            "interposing the slab layer completed {:.1}% {} requests than the cached stack \
             (see its `slab` committed/requested line above for the bytes it saved)",
            slab_cost.abs() * 100.0,
            if slab_cost >= 0.0 { "more" } else { "fewer" }
        );
    }
}
