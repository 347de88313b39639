//! One observer per stack, every cause in four places: the shell built
//! under `NBBS_TRACE`, and a recorder handed to both the magazine cache and
//! the slab below it, show each cause the stack produces deterministically
//! in all four places a user looks — the kind's histogram, the event ring,
//! the `[flight]` crash dump and the chrome-trace export.  A shell built
//! under `NBBS_PROFILE=1` attributes every live block to the byte, however
//! many threads wrote its profiler.

use std::alloc::{GlobalAlloc, Layout};
use std::process::Command;
use std::sync::{Arc, Mutex, PoisonError};

use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
use nbbs_alloc::NbbsGlobalAlloc;
use nbbs_cache::MagazineCache;
use nbbs_obs::{jsoncheck, OpKind, Recorder, FLIGHT_TAIL};
use nbbs_slab::SlabBackend;
use nbbs_workloads::rng::SplitMix64;

/// Each kind a drive must produce, and what in it does: the first four
/// come from the shell, the rest from the cache over the slab.
const CAUSES: [(OpKind, &str); 9] = [
    (OpKind::Alloc, "a shell allocation"),
    (OpKind::Free, "a shell release"),
    (OpKind::Grow, "a realloc that moves to a larger class"),
    (OpKind::Shrink, "a realloc that moves to a smaller class"),
    (OpKind::CacheMiss, "the first allocation of a class"),
    (OpKind::CacheRefill, "the batch behind that miss"),
    (
        OpKind::CacheFlush,
        "frees past both magazines, the budget refusing the full one",
    ),
    (OpKind::PageGrant, "the slab binding a page to a class"),
    (OpKind::PageRetire, "the drain emptying that page"),
];

/// The slab class whose full magazine the budget refuses.
const FLUSHED: usize = 320;

/// Checks that `kind` shows in all four places: `histogram` calls counted,
/// as many `ring` events, a line of the `[flight]` `dump`, and a slice of
/// the chrome export whose slice names are `slices`.
fn assert_shows(kind: OpKind, cause: &str, histogram: u64, ring: u64, dump: &str, slices: &[&str]) {
    let name = kind.name();
    assert!(histogram > 0, "{name}: no latency for {cause}");
    assert_eq!(ring, histogram, "{name}: ring and histogram disagree");
    assert!(
        dump.contains(&format!("[flight]   {name:<12}")),
        "{name} not in:\n{dump}"
    );
    assert!(slices.contains(&name), "{name} not in the chrome export");
}

/// The names of a chrome export's slices (its `ph: "X"` events), once it
/// is checked valid.
fn slice_names(chrome: &str) -> Vec<String> {
    let count = jsoncheck::validate_chrome_trace(chrome).expect("a valid chrome trace");
    let doc = jsoncheck::parse(chrome).unwrap();
    fn str_of<'a>(e: &'a jsoncheck::JsonValue, key: &str) -> &'a str {
        e.get(key).and_then(|v| v.as_str()).unwrap()
    }
    let names: Vec<String> = doc
        .get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| str_of(e, "ph") == "X")
        .map(|e| str_of(e, "name").to_string())
        .collect();
    assert_eq!(names.len(), count);
    names
}

/// Tree → slab → cache, both layers handed the same `rec`, driven through
/// offsets.  The 64 KiB arena gives the one-slot cache a 16 KiB byte
/// budget, less than one full magazine of the 320 B class (64 entries,
/// 20 KiB), so a flush is 129 frees away; the slab's pages are 4 KiB, the
/// tree's largest block.
fn drive_cache(rec: &Arc<Recorder>) {
    let config = BuddyConfig::new(1 << 16, 16, 1 << 12).unwrap();
    let slab = SlabBackend::new(NbbsFourLevel::new(config)).with_recorder(Arc::clone(rec));
    let cache = MagazineCache::with_slots(slab, 1).with_recorder(Arc::clone(rec));
    // A cold class: miss, batched refill, and under them a slab page.
    let offset = cache.alloc(64).unwrap();
    cache.dealloc_sized(offset, 64);
    // Frees past both magazines of the 320 B class: the budget refuses the
    // full magazine and it is flushed.
    let (class, _) = cache.class_of_request(FLUSHED).unwrap();
    let capacity = cache.magazine_capacity(class);
    assert!(capacity * FLUSHED > cache.cache_bytes_budget());
    let chunks: Vec<_> = (0..=2 * capacity)
        .map(|_| cache.alloc(FLUSHED).unwrap())
        .collect();
    for offset in chunks {
        cache.dealloc_sized(offset, FLUSHED);
    }
    assert_eq!(cache.snapshot().flushed, capacity as u64);
    // Draining empties the slab's pages, which it hands back.
    cache.drain_cache();
    assert_eq!(cache.allocated_bytes(), 0);
}

/// Set in the environment of the child process that drives the traced
/// shell: the trace is written at exit, so it takes a process of its own.
const CHILD: &str = "NBBS_OBSERVATION_CHILD";

/// The child's shell, built under `NBBS_TRACE` and registered for the
/// exit dump.
static TRACED: NbbsGlobalAlloc = NbbsGlobalAlloc::new(1 << 20, 32, 4 << 10);

/// An allocation, a moved grow, a moved shrink and a release on [`TRACED`].
fn drive_shell() {
    TRACED.print_stats_on_exit();
    let small = Layout::from_size_align(64, 8).unwrap();
    let mid = Layout::from_size_align(128, 8).unwrap();
    // SAFETY: the block is live under the layout each call passes, and is
    // freed once under the last one.
    unsafe {
        let p = TRACED.alloc(small);
        let p = TRACED.realloc(p, small, mid.size());
        let p = TRACED.realloc(p, mid, small.size());
        TRACED.dealloc(p, small);
    }
}

#[test]
fn every_cause_shows_in_histogram_ring_dump_and_export() {
    if std::env::var_os(CHILD).is_some() {
        return drive_shell();
    }
    let rec = Arc::new(Recorder::new());
    drive_cache(&rec);
    let ring = rec.ring();
    ring.stop();
    let events = ring.events();
    assert!(
        events.len() <= FLIGHT_TAIL && ring.dropped() == 0,
        "the drive must fit the dump's tail: {} events",
        events.len()
    );
    let (dump, chrome) = (ring.flight_dump(), ring.to_chrome_json("observation"));
    let names = slice_names(&chrome);
    let slices: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(slices.len(), events.len(), "one slice per event");
    let mut counted = 0;
    for (kind, cause) in &CAUSES[4..] {
        let recorded = rec.snapshot(*kind).total();
        let ring = events.iter().filter(|e| e.kind == *kind).count() as u64;
        assert_shows(*kind, cause, recorded, ring, &dump, &slices);
        counted += recorded;
    }
    assert_eq!(
        counted,
        rec.merged_snapshot(&OpKind::ALL).total(),
        "nothing but the tabled causes fired"
    );

    // The shell's exit dump: the latency table and the `[flight]` lines on
    // stderr, the whole ring as chrome-trace JSON in the file.
    let trace = std::env::temp_dir().join(format!("nbbs-observation-{}.json", std::process::id()));
    let child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "every_cause_shows_in_histogram_ring_dump_and_export",
        ])
        .env(CHILD, "1")
        .env("NBBS_TRACE", &trace)
        .env_remove("NBBS_OBS")
        .env_remove("NBBS_PROFILE")
        .env_remove("NBBS_SCRUB")
        .output()
        .unwrap();
    assert!(child.status.success(), "{child:?}");
    let report = String::from_utf8(child.stderr).unwrap();
    let chrome = std::fs::read_to_string(&trace).expect("the exit dump wrote the trace");
    std::fs::remove_file(&trace).unwrap();
    let names = slice_names(&chrome);
    let slices: Vec<&str> = names.iter().map(String::as_str).collect();
    for (kind, cause) in &CAUSES[..4] {
        let name = kind.name();
        let line = report
            .lines()
            .find(|l| l.starts_with(&format!("  latency  {name:<12}")))
            .unwrap_or_else(|| panic!("no latency line for {name} in:\n{report}"));
        let histogram = line.rsplit("(n=").next().unwrap().trim_end_matches(')');
        let ring = slices.iter().filter(|&&s| s == name).count() as u64;
        assert_shows(
            *kind,
            cause,
            histogram.parse().unwrap(),
            ring,
            &report,
            &slices,
        );
    }
    assert!(
        slices
            .iter()
            .all(|s| CAUSES.iter().any(|(kind, _)| kind.name() == *s)),
        "nothing but the tabled causes fired: {slices:?}"
    );
}

/// Serializes the first touches: a shell reads the `NBBS_*` environment
/// once, when the first allocation builds it.
static ENV: Mutex<()> = Mutex::new(());

/// A 64 MiB shell built under `NBBS_PROFILE=1` (one byte allocated and
/// freed to build it): its heap profiler samples every grant.
fn profiled() -> NbbsGlobalAlloc {
    let a = NbbsGlobalAlloc::new(64 << 20, 32, 64 << 10);
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("NBBS_PROFILE", "1");
    let byte = Layout::new::<u8>();
    // SAFETY: the block is freed under the layout it was allocated with.
    unsafe { a.dealloc(a.alloc(byte), byte) };
    std::env::remove_var("NBBS_PROFILE");
    a
}

/// The heap profile's header in `a`'s report: the attributed live bytes,
/// the sampled allocations and the dropped samples.
fn profile(a: &NbbsGlobalAlloc) -> (u64, u64, u64) {
    let report = a.stats_report();
    let header = report
        .lines()
        .find(|l| l.starts_with("== heap profile: "))
        .unwrap_or_else(|| panic!("no heap profile in:\n{report}"));
    let number_before = |word: &str| -> u64 {
        let head = &header[..header.find(word).unwrap()];
        head.trim_end()
            .rsplit([' ', '('])
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    (
        number_before(" B live"),
        number_before(" sampled"),
        number_before(" dropped"),
    )
}

/// A profile-only build never takes the fast path, so every grant and
/// every release reaches the profiler, and nothing is timed.
#[test]
fn a_profiler_only_handle_records_no_latency() {
    let a = profiled();
    let small = Layout::from_size_align(64, 8).unwrap();
    let (_, sampled, _) = profile(&a);
    // SAFETY: every block is freed once, under its layout.
    unsafe {
        let burst: Vec<_> = (0..16).map(|_| a.alloc(small)).collect();
        assert_eq!(
            profile(&a).0,
            16 * 64,
            "every block of the burst has a site"
        );
        for p in burst {
            a.dealloc(p, small);
        }
    }
    let (live, now_sampled, dropped) = profile(&a);
    assert_eq!((live, dropped), (0, 0));
    assert_eq!(now_sampled - sampled, 16);
    assert!(a.metrics().latency.is_empty(), "no latency recorded");
    assert!(
        !a.stats_report().contains("[flight]"),
        "no event without a timestamp"
    );
}

/// At stride 1 the profiler's books are exact at quiescence however many
/// threads wrote them: four threads churn a web-server mix (a 64–1023 B
/// header and one to four 256–2303 B body chunks per request, random
/// retirement past 64 live) through one shell, each leaves its last 64
/// blocks live, and the report attributes exactly what the shell granted
/// for those blocks — then nothing once they are freed.
#[test]
fn concurrent_churn_is_attributed_to_the_byte_at_quiescence() {
    const THREADS: usize = 4;
    let shell = profiled();
    let start = std::sync::Barrier::new(THREADS);
    let survivors: Vec<(usize, Layout)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|worker| {
                let (shell, start) = (&shell, &start);
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0xFACE ^ worker as u64);
                    // Addresses, so the survivors can cross to the main thread.
                    let mut live: Vec<(usize, Layout)> = Vec::new();
                    start.wait();
                    for _ in 0..300 {
                        let header = 64 + rng.next_below(960);
                        let chunks = (0..1 + rng.next_below(4))
                            .map(|_| 256 + rng.next_below(2 << 10))
                            .collect::<Vec<_>>();
                        for size in std::iter::once(header).chain(chunks) {
                            let layout = Layout::from_size_align(size, 8).unwrap();
                            // SAFETY: a non-zero layout, freed below.
                            let p = unsafe { shell.alloc(layout) };
                            assert!(shell.owns(p), "64 MiB arena");
                            live.push((p as usize, layout));
                        }
                        while live.len() > 64 {
                            let (addr, layout) = live.swap_remove(rng.next_below(live.len()));
                            // SAFETY: allocated above with this layout,
                            // released exactly once.
                            unsafe { shell.dealloc(addr as *mut u8, layout) };
                        }
                    }
                    live
                })
            })
            .collect();
        // An explicit join waits for each thread's exit drain.
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    assert_eq!(survivors.len(), THREADS * 64);

    let granted: u64 = survivors
        .iter()
        .map(|&(_, layout)| layout.size().next_power_of_two() as u64)
        .sum();
    let (live, _, dropped) = profile(&shell);
    assert_eq!(dropped, 0);
    assert_eq!(live, granted);
    assert_eq!(granted, shell.buddy_allocated_bytes() as u64);

    for (addr, layout) in survivors {
        // SAFETY: the survivors are still live; same provenance as above.
        unsafe { shell.dealloc(addr as *mut u8, layout) };
    }
    assert_eq!(profile(&shell).0, 0);
}
