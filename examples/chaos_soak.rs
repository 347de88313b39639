//! Chaos soak: run concurrent mixed-size storms through the full cache
//! stack while a seeded fault injector (`nbbs-chaos`) fails, delays and
//! panics operations at the backend boundary — then prove, seed after
//! seed, that the stack degraded instead of breaking.
//!
//! Per seed, one phase, a **cache storm**:
//! `MagazineCache<FaultInjecting<NbbsFourLevel>>` under a panic storm.
//! Injected failures fail the miss they hit (the caller sees `None`),
//! injected panics unwind through refill/flush/drain loops (stranding
//! chunks on the orphan list for the next toucher to rescue).  Post-storm,
//! with the injector disarmed: conservation audit over the survivors
//! ([`nbbs_cache::verify_cached`] — the free-bitmap audit underneath), a
//! full drain, an empty-state audit, and a stranded-capacity probe (every
//! max-class block of the arena must be allocatable again — panics
//! stranded nothing, no slot wedged).
//!
//! A failing check prints a `REPRO: seed …` line (re-run with that seed as
//! the last argument to replay the identical fault schedule and request
//! sequences) plus the `[flight]` dump of the recorder's event ring, and
//! exits non-zero.
//!
//! Usage:
//! ```text
//! cargo run --release --example chaos_soak [seeds] [threads] [iters] [seed]
//! ```
//! `seeds` distinct base seeds are soaked (default 32); `seed` pins the
//! first one (hex with `0x` prefix or decimal; defaults to the wall
//! clock).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
use nbbs_cache::{verify_cached, verify_cached_empty, MagazineCache};
use nbbs_chaos::{FaultInjecting, FaultPlan};
use nbbs_obs::Recorder;
use nbbs_workloads::rng::SplitMix64;

const TOTAL: usize = 1 << 20;
const MIN: usize = 64;
const MAX: usize = 1 << 16;
/// Size classes 64 << 0 ..= 64 << 10 (= MAX).
const CLASSES: usize = 11;

fn fail(seed: u64, recorder: &Recorder, msg: &str) -> ! {
    println!("REPRO: seed {seed:#018x}: {msg}");
    print!("{}", recorder.ring().flight_dump());
    std::process::exit(1);
}

/// The cache stack under a panic storm.  Returns the number of
/// panics injected, so main() can assert the panic path ran somewhere in
/// the batch.
fn cache_storm(seed: u64, threads: usize, iters: usize) -> u64 {
    let cfg = BuddyConfig::new(TOTAL, MIN, MAX).unwrap();
    let recorder = Arc::new(Recorder::new());
    let injected = FaultInjecting::new(NbbsFourLevel::new(cfg), FaultPlan::panic_storm(seed));
    let cache = Arc::new(MagazineCache::new(injected).with_recorder(Arc::clone(&recorder)));

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let thread_seed = seed ^ ((t as u64) << 32) ^ 0xC0A5_7A1E;
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(thread_seed);
                let mut live: Vec<(usize, usize)> = Vec::new();
                for _ in 0..iters {
                    if live.is_empty() || rng.next_u64() & 1 == 0 {
                        let size = MIN << rng.next_below(CLASSES);
                        // An injected panic on the alloc path fires before
                        // the caller gained anything: catch and move on.
                        if let Ok(Some(off)) = catch_unwind(AssertUnwindSafe(|| cache.alloc(size)))
                        {
                            live.push((off, size));
                        }
                    } else {
                        let (off, _) = live.swap_remove(rng.next_below(live.len()));
                        // The cache absorbs the chunk into a magazine
                        // before any fault-gated backend call runs, so a
                        // panicking dealloc still counts as freed — the
                        // chunk is parked or orphan-published, never lost
                        // and never ours to free twice.
                        let _ = catch_unwind(AssertUnwindSafe(|| cache.dealloc(off)));
                    }
                }
                live
            })
        })
        .collect();

    let mut survivors: BTreeMap<usize, usize> = BTreeMap::new();
    for h in handles {
        for (off, size) in h.join().expect("workers catch injected panics") {
            if survivors.insert(off, size).is_some() {
                fail(seed, &recorder, "same offset served to two holders");
            }
        }
    }

    // The storm must actually have stormed, or the soak proves nothing.
    // (Panics are asserted in aggregate by main(): the cache's hit rate
    // keeps gated backend ops rare, so a single seed can legitimately see
    // none.)
    let faults = cache.backend().fault_stats();
    if faults.injected_failures == 0 {
        fail(seed, &recorder, "fault schedule injected nothing");
    }

    // Conservation over the survivors: every caller-held chunk is live in
    // the tree, nothing overlaps, nothing leaked (orphans count as cached).
    cache.backend().disarm();
    let report = verify_cached(&cache, &survivors, true);
    if !report.is_clean() {
        fail(seed, &recorder, &format!("post-storm audit: {report:?}"));
    }

    // Release the survivors, drain everything (rescuing any orphans), and
    // the tree must be spotless — the free-bitmap audit underneath
    // verify_cached checks every node status.
    for &off in survivors.keys() {
        cache.dealloc(off);
    }
    cache.drain_all();
    let report = verify_cached_empty(&cache);
    if !report.is_clean() {
        fail(seed, &recorder, &format!("post-drain audit: {report:?}"));
    }
    if cache.allocated_bytes() != 0 {
        fail(seed, &recorder, "allocated bytes nonzero after drain");
    }

    // Stranded-capacity probe: every max-class block must be allocatable
    // again.  A wedged slot or a stranded chunk would leave a branch
    // occupied and fail one of these.
    let blocks: Vec<_> = (0..TOTAL / MAX).map(|_| cache.alloc(MAX)).collect();
    if blocks.iter().any(Option::is_none) {
        fail(
            seed,
            &recorder,
            "stranded capacity: a max-class block is gone",
        );
    }
    for off in blocks.into_iter().flatten() {
        cache.dealloc(off);
    }
    cache.drain_all();

    // Not every panic strands a chunk (many fire before a guard holds
    // anything), so rescues may legitimately be zero for a given seed;
    // the audits above are the real assertion.
    let stats = cache.snapshot();
    eprintln!(
        "seed {seed:#018x} clean: {} faults ({} panics), {} rescues",
        faults.injected_failures + faults.injected_oom,
        faults.injected_panics,
        stats.orphan_rescues,
    );
    faults.injected_panics
}

fn main() {
    // Injected panics are the point of the exercise: silence their default
    // backtrace spew, pass every other panic through untouched.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("nbbs-chaos: injected panic") {
            default_hook(info);
        }
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds: u64 = args.first().map(|s| s.parse().unwrap()).unwrap_or(32);
    let threads: usize = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(4);
    let iters: usize = args.get(2).map(|s| s.parse().unwrap()).unwrap_or(4000);
    let base_seed: u64 = args
        .get(3)
        .map(|s| {
            // Hex only with an explicit 0x prefix: every all-digit string
            // is also valid hex, so a hex-first parse would silently
            // reinterpret decimal seeds.
            match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).unwrap(),
                None => s.parse().unwrap(),
            }
        })
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5EED_5EED)
        });
    println!(
        "chaos_soak: seeds={seeds} threads={threads} iters={iters} \
         base_seed={base_seed:#018x}"
    );
    let mut total_panics = 0u64;
    for i in 0..seeds {
        // Distinct, reproducible per-round seeds: REPRO lines print the
        // derived seed, which pins that round exactly.
        let seed = base_seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        total_panics += cache_storm(seed, threads, iters);
    }
    // Any individual seed may see no injected panic (gated backend ops are
    // rare behind a hot cache), but a whole batch without one means the
    // panic-recovery machinery went untested.
    if total_panics == 0 {
        println!("REPRO: seed {base_seed:#018x}: no panic injected across {seeds} seeds");
        std::process::exit(1);
    }
    println!("chaos_soak: {seeds} seeds clean ({total_panics} injected panics survived)");
}
