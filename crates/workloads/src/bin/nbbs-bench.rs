//! `nbbs-bench`: regenerate the figures of the NBBS paper from the command
//! line.
//!
//! ```text
//! nbbs-bench <command> [options]
//!
//! Commands:
//!   fig8            Linux Scalability execution times   (Figure 8)
//!   fig9            Thread Test execution times         (Figure 9)
//!   fig10           Larson throughput                   (Figure 10)
//!   fig11           Constant Occupancy execution times  (Figure 11)
//!   fig12           Kernel-buddy comparison, cycles, plus the multi-node
//!                   NodeSet sweep (threads x nodes x skew)   (Figure 12)
//!   fig13           Magazine-cache ablation: cached vs uncached backends
//!   all             All of the above (fig8-13 incl. mixed-layout + numa-skew);
//!                   writes one consolidated BENCH_<date>.json snapshot
//!   obs-overhead    Latency-recording overhead A/B (Larson, recording on/off)
//!   chaos           Larson + Mixed Layout under seeded fault schedules
//!                   (`nbbs-chaos` storms), with post-run conservation audits
//!                   and `REPRO:` lines on failure
//!   chaos-overhead  Disarmed fault-injection wrapper A/B (Larson, wrapper
//!                   present vs absent) — the zero-cost-when-disabled gate
//!   frag            Slab-layer fragmentation A/B: committed-over-requested
//!                   byte ratios for mixed-layout (40-byte-heavy mix) and a
//!                   web-server request mix, slab stacks vs power-of-two
//!                   stacks; prints `committed_over_requested=` and
//!                   `slab_reduction_pct=` lines for CI gates
//!   profile         Sampled allocation-site heap profile of the facade-level
//!                   web-server mix; prints the ranked site table and a
//!                   `profile_attributed_pct=` line (CI gates ≥95% at
//!                   stride 1); `--prom <path>` also runs a background
//!                   `MetricsSampler` over the run and writes Prometheus
//!                   text + JSON-lines series
//!   trace           Record a deterministic Larson run into the recorder's
//!                   event ring and write chrome://tracing (Perfetto) JSON
//!                   to `--out` (default nbbs-trace.json); `--check`
//!                   re-parses the file and gates an event-count floor
//!   scrub-overhead  Background decommit-scrubber A/B (Larson over a
//!                   demand-zero BuddyRegion, scrubber armed at the
//!                   production 100 ms cadence vs off) — min-gap
//!                   `overhead_pct=` line for the CI gate
//!   ablation-scan   Scan-start policy ablation (first-fit vs scattered)
//!   ablation-rmw    RMW-per-operation ablation (1lvl vs 4lvl)
//!   ablation-frag   Fragmentation-resilience ablation
//!   list            List allocators, workloads and figures
//!
//! Options:
//!   --scale <f>       Scale factor on the paper's operation counts (default 0.002)
//!   --paper           Full paper-scale runs (equivalent to --scale 1.0)
//!   --quick           Very small smoke-test runs (scale 0.0002, threads 1,2,4)
//!   --threads <list>  Comma-separated thread counts (default 4,8,16,24,32)
//!   --sizes <list>    Comma-separated request sizes in bytes
//!   --allocators <l>  Comma-separated allocator names
//!   --csv <path>      Also write raw measurements as CSV
//!   --json <path>     Also write JSON lines (incl. per-node share tables)
//!   --series <path>   Also write gnuplot-style series
//!   --date <stamp>    Date stamp for the `all` snapshot file name
//!                     (default: today, UTC); `all` writes
//!                     BENCH_<stamp>.json unless --json overrides the path
//!   --seed <s>        Base seed for `chaos` fault schedules (hex with an
//!                     explicit `0x` prefix, decimal otherwise; default:
//!                     wall clock — the chosen seed is always printed)
//!   --rounds <n>      Seeded rounds for `chaos` (default 8)
//!   --stride <n>      Heap-profiler sampling stride for `profile`
//!                     (default 1: sample every allocation)
//!   --out <path>      Output path for `trace` (default nbbs-trace.json)
//!   --prom <path>     For `profile`: sample the stack in the background and
//!                     write a Prometheus text series to <path> (plus
//!                     JSON-lines to <path>.jsonl)
//!   --check           For `trace`: re-parse the emitted chrome-trace JSON
//!                     with the strict `nbbs_obs::jsoncheck` validator and
//!                     fail below the event-count floor
//!   --quiet           Suppress progress output
//! ```
//!
//! ## `BENCH_<date>.json` snapshot schema
//!
//! One JSON object per line ([`Measurement::to_json`]), no enclosing array,
//! so snapshots diff and `grep` cleanly.  Every line carries:
//!
//! ```json
//! {"workload":"larson","allocator":"4lvl-nb","size":128,"threads":4,
//!  "operations":123456,"seconds":1.234567,"kops_per_sec":100.042,
//!  "cycles":987654321,"failed_allocs":0,
//!  "latency":{"count":123456,"p50_ns":210.000,"p90_ns":400.000,
//!             "p99_ns":950.000,"p999_ns":1800.000,"max_ns":52000.000}}
//! ```
//!
//! * `latency` — merged alloc+free tail percentiles from the
//!   `nbbs-obs` recording layer; fields are `null` when no sample was
//!   recorded, and the whole key is absent for rows measured with
//!   recording off (the overhead A/B baseline).
//! * `node_shares` — per-node `{node, allocated_bytes, local_allocs,
//!   remote_allocs, failed_allocs}` objects; multi-node rows only.
//! * `cache` — `{hits, misses, flushed, drained, depot_shards}`;
//!   cached-allocator rows only.
//!
//! Non-finite floats serialize as `null`; all strings are JSON-escaped.

use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel, NbbsOneLevel, ScanPolicy};
use nbbs_cache::{verify_cached_empty, CacheConfig, MagazineCache};
use nbbs_chaos::{FaultInjecting, FaultPlan};
use nbbs_numa::{NodePolicy, NodeSet, Topology};
use nbbs_obs::MetricsSampler;
use nbbs_sync::CycleTimer;
use nbbs_workloads::factory::{AllocatorKind, SharedBackend};
use nbbs_workloads::harness::{FigureSpec, Harness, Metric, SweepConfig, Workload};
use nbbs_workloads::linux_scalability::{self, LinuxScalabilityParams};
use nbbs_workloads::measure::{Measurement, WorkloadResult};
use nbbs_workloads::mixed_layout::{self, MixedLayoutParams};
use nbbs_workloads::numa_skew::{self, NumaSkewParams};
use nbbs_workloads::rng::SplitMix64;
use nbbs_workloads::{constant_occupancy, report};

#[derive(Debug, Clone)]
struct Options {
    scale: f64,
    threads: Option<Vec<usize>>,
    sizes: Option<Vec<usize>>,
    allocators: Option<Vec<AllocatorKind>>,
    csv_path: Option<String>,
    json_path: Option<String>,
    series_path: Option<String>,
    date: Option<String>,
    seed: Option<u64>,
    rounds: Option<u64>,
    stride: Option<u32>,
    out_path: Option<String>,
    prom_path: Option<String>,
    check: bool,
    verbose: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.002,
            threads: None,
            sizes: None,
            allocators: None,
            csv_path: None,
            json_path: None,
            series_path: None,
            date: None,
            seed: None,
            rounds: None,
            stride: None,
            out_path: None,
            prom_path: None,
            check: false,
            verbose: true,
        }
    }
}

/// Today's date as `YYYY-MM-DD` (UTC), from the system clock: days since
/// the Unix epoch converted to a civil date with the standard
/// days-from-civil inverse (Gregorian calendar, no external crates).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn parse_list<T: FromStr>(s: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.trim()
                .parse::<T>()
                .map_err(|e| format!("bad value '{p}': {e}"))
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    if args.is_empty() {
        return Err("missing command; try `nbbs-bench list`".into());
    }
    let command = args[0].clone();
    let mut opts = Options::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = args
                    .get(i)
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--paper" => opts.scale = 1.0,
            "--quick" => {
                opts.scale = 0.0002;
                opts.threads.get_or_insert(vec![1, 2, 4]);
            }
            "--threads" => {
                i += 1;
                opts.threads = Some(parse_list(args.get(i).ok_or("--threads needs a value")?)?);
            }
            "--sizes" => {
                i += 1;
                opts.sizes = Some(parse_list(args.get(i).ok_or("--sizes needs a value")?)?);
            }
            "--allocators" => {
                i += 1;
                opts.allocators = Some(parse_list(
                    args.get(i).ok_or("--allocators needs a value")?,
                )?);
            }
            "--csv" => {
                i += 1;
                opts.csv_path = Some(args.get(i).ok_or("--csv needs a path")?.clone());
            }
            "--json" => {
                i += 1;
                opts.json_path = Some(args.get(i).ok_or("--json needs a path")?.clone());
            }
            "--series" => {
                i += 1;
                opts.series_path = Some(args.get(i).ok_or("--series needs a path")?.clone());
            }
            "--date" => {
                i += 1;
                opts.date = Some(args.get(i).ok_or("--date needs a stamp")?.clone());
            }
            "--seed" => {
                i += 1;
                let raw = args.get(i).ok_or("--seed needs a value")?;
                // Hex only with an explicit 0x prefix: every all-digit
                // string is also valid hex, so a hex-first parse would
                // silently reinterpret decimal seeds.
                opts.seed = Some(match raw.strip_prefix("0x") {
                    Some(hex) => {
                        u64::from_str_radix(hex, 16).map_err(|e| format!("bad --seed: {e}"))?
                    }
                    None => raw.parse().map_err(|e| format!("bad --seed: {e}"))?,
                });
            }
            "--rounds" => {
                i += 1;
                opts.rounds = Some(
                    args.get(i)
                        .ok_or("--rounds needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --rounds: {e}"))?,
                );
            }
            "--stride" => {
                i += 1;
                opts.stride = Some(
                    args.get(i)
                        .ok_or("--stride needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --stride: {e}"))?,
                );
            }
            "--out" => {
                i += 1;
                opts.out_path = Some(args.get(i).ok_or("--out needs a path")?.clone());
            }
            "--prom" => {
                i += 1;
                opts.prom_path = Some(args.get(i).ok_or("--prom needs a path")?.clone());
            }
            "--check" => opts.check = true,
            "--quiet" => opts.verbose = false,
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    Ok((command, opts))
}

fn apply_overrides(mut sweep: SweepConfig, opts: &Options) -> SweepConfig {
    if let Some(threads) = &opts.threads {
        sweep = sweep.with_threads(threads.clone());
    }
    if let Some(sizes) = &opts.sizes {
        sweep = sweep.with_sizes(sizes.clone());
    }
    if let Some(allocators) = &opts.allocators {
        sweep = sweep.with_allocators(allocators.clone());
    }
    sweep.scale = opts.scale;
    sweep
}

fn run_figure(figure: FigureSpec, opts: &Options) -> Vec<Measurement> {
    let harness = Harness::new(opts.verbose);
    let mut measurements = Vec::new();
    println!("\n=== {} ===", figure.title());
    for sweep in figure.sweeps(opts.scale) {
        let sweep = apply_overrides(sweep, opts);
        measurements.extend(harness.run_sweep(&sweep));
    }
    print!("{}", report::text_table(&measurements, figure.metric()));
    let gains = report::speedup_summary(&measurements, figure.metric());
    if !gains.is_empty() {
        println!("Non-blocking gain over the best blocking allocator:");
        print!("{}", report::gain_table(&gains));
    }
    let cache = report::cache_table(&measurements);
    if !cache.is_empty() {
        println!("Magazine-cache behaviour:");
        print!("{cache}");
    }
    let frag = report::frag_table(&measurements);
    if !frag.is_empty() {
        println!("Byte accounting (requested vs committed):");
        print!("{frag}");
    }
    let latency = report::latency_table(&measurements);
    if !latency.is_empty() {
        println!("Tail latency (merged alloc+free, ns):");
        print!("{latency}");
    }
    measurements
}

/// The multi-node half of Figure 12 (this reproduction's own): the paper's
/// headline deployment is one buddy instance per NUMA node with home-node
/// allocation and remote fallback, so this sweep drives an `nbbs-numa`
/// `NodeSet<NbbsFourLevel>` (page-granular per-node arenas, synthetic
/// topology for reproducibility) across threads × node counts × home-node
/// hit ratios and prints the per-node share table: how much each node
/// served locally, how much as a remote fallback, and what failed.
fn fig12_numa(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Figure 12 (multi-node): one buddy per node — threads x nodes x home-ratio ===");
    // Honour the CLI filters like every figure sweep: an --allocators list
    // without the numa kind skips the multi-node half entirely, and --sizes
    // overrides the default page-sized requests.
    if let Some(allocators) = &opts.allocators {
        if !allocators.contains(&AllocatorKind::Numa4LvlNb) {
            println!("(skipped: --allocators does not include numa-4lvl-nb)");
            return Vec::new();
        }
    }
    let threads = opts.threads.clone().unwrap_or_else(|| vec![4, 8]);
    let sizes = opts.sizes.clone().unwrap_or_else(|| vec![4096]);
    let mut measurements = Vec::new();
    for nodes in [2usize, 4] {
        // Page-granular per-node arenas in the spirit of the kernel setup;
        // metadata only, no backing memory is touched.
        let per_node = BuddyConfig::new(512 << 20, 4096, 128 << 10).unwrap();
        for &size in &sizes {
            if size > per_node.max_size() {
                println!(
                    "(size {size} exceeds the per-node request ceiling {}; skipped)",
                    per_node.max_size()
                );
                continue;
            }
            for &t in &threads {
                for ratio in [1.0f64, 0.5] {
                    let set = Arc::new(
                        NodeSet::with_topology(
                            (0..nodes).map(|_| NbbsFourLevel::new(per_node)).collect(),
                            Topology::synthetic(nodes),
                            NodePolicy::HomeFirst,
                        )
                        .with_name("numa-4lvl-nb"),
                    );
                    let params = NumaSkewParams::paper(t, size)
                        .scaled(opts.scale)
                        .with_home_ratio(ratio);
                    let workload = format!("numa-skew/n={nodes}/home={:.0}%", ratio * 100.0);
                    if opts.verbose {
                        eprintln!("[nbbs-bench] {workload} threads={t} allocator=numa-4lvl-nb ...");
                    }
                    let recorder = Arc::new(nbbs_obs::Recorder::new());
                    let result = numa_skew::run_on_nodes(&set, params, Some(Arc::clone(&recorder)));
                    let latency = recorder
                        .merged_snapshot(&[nbbs_obs::OpKind::Alloc, nbbs_obs::OpKind::Free])
                        .percentiles();
                    let m = Measurement::new(workload, "numa-4lvl-nb", size, result)
                        .with_backend_ops(set.stats())
                        .with_node_shares(Some(set.node_stats()))
                        .with_latency(Some(latency));
                    if opts.verbose {
                        eprintln!("[nbbs-bench]   -> {m}");
                    }
                    measurements.push(m);
                }
            }
        }
    }
    print!("{}", report::text_table(&measurements, Metric::Seconds));
    println!(
        "Per-node allocation shares (remote = allocations a node served as \
         fallback for requests that started elsewhere):"
    );
    print!("{}", report::node_share_table(&measurements));
    measurements
}

/// Figure 13 (this reproduction's own): the magazine-cache ablation.  Runs
/// the contended user-space workloads (including the facade-level Mixed
/// Layout churn) over the cached variants and their uncached backends,
/// reporting the headline metric, the cache's hit/miss/flush behaviour and
/// the per-class capacities the adaptive resize controller converged to.
fn fig13_cache_ablation(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Figure 13: Per-thread magazine cache ablation (cached vs uncached) ===");
    let harness = Harness::new(opts.verbose);
    let mut measurements = Vec::new();
    for workload in [
        Workload::LinuxScalability,
        Workload::ThreadTest,
        Workload::Larson,
        Workload::MixedLayout,
    ] {
        let sweep = apply_overrides(
            SweepConfig::user_space(workload, opts.scale)
                .with_allocators(AllocatorKind::cache_ablation().to_vec()),
            opts,
        );
        measurements.extend(harness.run_sweep(&sweep));
    }
    print!("{}", report::text_table(&measurements, Metric::Seconds));
    let cache = report::cache_table(&measurements);
    if !cache.is_empty() {
        println!("Magazine-cache behaviour:");
        print!("{cache}");
    }
    let capacities = report::capacity_table(&measurements);
    if !capacities.is_empty() {
        println!("Per-class magazine capacities (adaptive-resize convergence):");
        print!("{capacities}");
    }
    let frag = report::frag_table(&measurements);
    if !frag.is_empty() {
        println!("Byte accounting (requested vs committed):");
        print!("{frag}");
    }
    let latency = report::latency_table(&measurements);
    if !latency.is_empty() {
        println!("Tail latency (merged alloc+free, ns):");
        print!("{latency}");
    }
    measurements
}

/// Backend-level replay of the web-server request mix
/// (`examples/web_server_sim.rs`): each "request" allocates one header
/// buffer of 64–1023 bytes plus one to four streamed body chunks of
/// 256–2303 bytes, and old requests retire once enough are in flight.
/// Byte accounting uses the backend's own `granted_size_for`, so the
/// committed-over-requested ratio isolates the grant geometry — spaced
/// slab classes vs power-of-two buddy blocks.
fn frag_web_sim(alloc: &SharedBackend, threads: usize, requests_per_thread: u64) -> WorkloadResult {
    let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
    // (ops, failed, requested, committed) — summed once per worker at exit,
    // so the measured loop carries only thread-local counters.
    let totals = Arc::new(std::sync::Mutex::new((0u64, 0u64, 0u64, 0u64)));
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let alloc = Arc::clone(alloc);
        let barrier = Arc::clone(&barrier);
        let totals = Arc::clone(&totals);
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(0xBEEF ^ t as u64);
            let mut in_flight: Vec<usize> = Vec::new();
            let (mut ops, mut failed) = (0u64, 0u64);
            let (mut requested, mut committed) = (0u64, 0u64);
            barrier.wait();
            for _ in 0..requests_per_thread {
                let header = 64 + rng.next_below(960);
                let chunks = 1 + rng.next_below(4);
                for i in 0..=chunks {
                    let size = if i == 0 {
                        header
                    } else {
                        256 + rng.next_below(2 << 10)
                    };
                    match alloc.alloc(size) {
                        Some(offset) => {
                            in_flight.push(offset);
                            requested += size as u64;
                            committed += alloc.granted_size_for(size).unwrap_or(size) as u64;
                            ops += 1;
                        }
                        None => failed += 1,
                    }
                }
                while in_flight.len() > 320 {
                    let idx = rng.next_below(in_flight.len());
                    alloc.dealloc(in_flight.swap_remove(idx));
                    ops += 1;
                }
            }
            for offset in in_flight {
                alloc.dealloc(offset);
                ops += 1;
            }
            let mut g = totals.lock().expect("no worker panics holding the lock");
            g.0 += ops;
            g.1 += failed;
            g.2 += requested;
            g.3 += committed;
        }));
    }
    let timer = CycleTimer::start();
    barrier.wait();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let (seconds, cycles) = timer.stop();
    let (ops, failed, requested, committed) = *totals.lock().expect("workers have exited");
    WorkloadResult {
        threads,
        operations: ops,
        seconds,
        cycles,
        failed_allocs: failed,
        bytes_requested: requested,
        bytes_committed: committed,
    }
}

/// Fragmentation sweep (the `nbbs-slab` A/B): the facade-level Mixed Layout
/// churn at a small-object mix (default 40-byte-heavy: sizes log-uniform in
/// 40..=1280, natural alignments) and the web-server request mix, each run
/// over four stacks — bare tree, cached tree, slab front-end, and the full
/// cache-over-slab stack.  Every run prints a parseable
/// `committed_over_requested=` line (CI gates the cached-slab stack at
/// 1.30 for the 40-byte mix) and each with/without-slab pairing prints the
/// committed-byte reduction the spaced classes deliver over power-of-two
/// grants (`slab_reduction_pct=`).
fn frag(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Fragmentation: slab size classes vs power-of-two grants ===");
    let threads = opts.threads.clone().unwrap_or_else(|| vec![4]);
    let sizes = opts.sizes.clone().unwrap_or_else(|| vec![40]);
    let kinds = opts.allocators.clone().unwrap_or_else(|| {
        vec![
            AllocatorKind::FourLevelNb,
            AllocatorKind::Slab4LvlNb,
            AllocatorKind::Cached4LvlNb,
            AllocatorKind::CachedSlab4LvlNb,
        ]
    });
    let memory = BuddyConfig::new(64 << 20, 8, 16 << 10).expect("frag configuration is valid");
    let mut measurements: Vec<Measurement> = Vec::new();
    for workload in ["mixed-layout", "web-server-sim"] {
        for &size in &sizes {
            for &t in &threads {
                for &kind in &kinds {
                    let alloc = nbbs_workloads::factory::build(kind, memory);
                    if opts.verbose {
                        eprintln!(
                            "[nbbs-bench] frag/{workload} size={size} threads={t} allocator={} ...",
                            kind.name()
                        );
                    }
                    let result = match workload {
                        "mixed-layout" => {
                            // Natural (8-byte) alignments: the ratio must
                            // measure the class geometry, not the padding the
                            // facade adds for over-aligned requests.
                            let params = MixedLayoutParams {
                                threads: t,
                                base_size: size,
                                max_align: 8,
                                realloc_percent: 30,
                                live_target: 256,
                                ops_per_thread: 1_000_000,
                            }
                            .scaled(opts.scale);
                            mixed_layout::run(&alloc, params)
                        }
                        _ => {
                            let requests = ((200_000f64 * opts.scale) as u64).max(1_000);
                            frag_web_sim(&alloc, t, requests)
                        }
                    };
                    println!(
                        "[frag] workload={workload} allocator={} bytes={size} threads={t} \
                         requested={} committed={} committed_over_requested={:.4}",
                        kind.name(),
                        result.bytes_requested,
                        result.bytes_committed,
                        result.committed_ratio(),
                    );
                    measurements.push(
                        Measurement::new(format!("frag/{workload}"), kind.name(), size, result)
                            .with_cache(alloc.cache_stats())
                            .with_backend_ops(alloc.stats()),
                    );
                }
                // The A/B: the same stack with and without the slab layer.
                for (plain, slab, label) in [
                    (
                        AllocatorKind::FourLevelNb,
                        AllocatorKind::Slab4LvlNb,
                        "bare",
                    ),
                    (
                        AllocatorKind::Cached4LvlNb,
                        AllocatorKind::CachedSlab4LvlNb,
                        "cached",
                    ),
                ] {
                    let find = |kind: AllocatorKind| {
                        measurements.iter().find(|m| {
                            m.workload == format!("frag/{workload}")
                                && m.allocator == kind.name()
                                && m.size == size
                                && m.result.threads == t
                        })
                    };
                    if let (Some(p), Some(s)) = (find(plain), find(slab)) {
                        let (pr, sr) = (p.result.committed_ratio(), s.result.committed_ratio());
                        if pr.is_finite() && sr.is_finite() && pr > 0.0 {
                            println!(
                                "[frag] workload={workload} ab={label} bytes={size} threads={t} \
                                 slab_reduction_pct={:.1}",
                                (1.0 - sr / pr) * 100.0
                            );
                        }
                    }
                }
            }
        }
    }
    println!("Byte accounting (requested vs committed, all stacks):");
    print!("{}", report::frag_table(&measurements));
    measurements
}

/// The min-gap A/B behind the four `*-overhead` subcommands: Larson (the
/// throughput-metric workload) with one thing switched on vs off, over
/// otherwise identical allocators.  `side(on, threads, size)` runs one side
/// and names its row.
///
/// Seven off/on pairs, order alternating each round: back-to-back runs are
/// not exchangeable on a busy host (cache warmth, turbo, neighbours), and a
/// fixed order would bias every pair the same way.  Run-to-run throughput
/// on a shared host swings by ±10-15%, an order of magnitude above the
/// costs measured here, so no single pair is meaningful.  As in min-time
/// microbenchmarking (noise only ever *slows* a run), the minimum per-round
/// gap is the reproducible cost; that is the `overhead_pct=` CI gates at
/// 5%.  The best-of-seven throughput of each side is printed alongside as
/// a second, independent estimate.
fn overhead(
    opts: &Options,
    tag: &str,
    detail: &str,
    side: impl Fn(bool, usize, usize) -> Measurement,
) -> Vec<Measurement> {
    let threads = opts.threads.clone().unwrap_or_else(|| vec![4]);
    let sizes = opts.sizes.clone().unwrap_or_else(|| vec![128]);
    let mut measurements = Vec::new();
    for &size in &sizes {
        for &t in &threads {
            let mut rounds = Vec::new();
            let mut best: [Option<Measurement>; 2] = [None, None];
            for round in 0..7 {
                let on_first = round % 2 == 1;
                let first = side(on_first, t, size);
                let second = side(!on_first, t, size);
                let (off, on) = if on_first {
                    (second, first)
                } else {
                    (first, second)
                };
                let off_kops = off.result.kops_per_sec();
                if off_kops > 0.0 {
                    rounds.push((off_kops - on.result.kops_per_sec()) / off_kops * 100.0);
                }
                for (slot, m) in best.iter_mut().zip([off, on]) {
                    if slot
                        .as_ref()
                        .is_none_or(|b| m.result.kops_per_sec() > b.result.kops_per_sec())
                    {
                        *slot = Some(m);
                    }
                }
            }
            let [mut off, mut on] = best.map(|m| m.expect("seven rounds ran"));
            let floor = rounds.iter().copied().fold(f64::INFINITY, f64::min);
            let overhead = if floor.is_finite() { floor } else { 0.0 };
            println!(
                "[{tag}] larson size={size} threads={t}{detail} \
                 off_kops={:.1} on_kops={:.1} rounds={} overhead_pct={overhead:.2}",
                off.result.kops_per_sec(),
                on.result.kops_per_sec(),
                rounds
                    .iter()
                    .map(|r| format!("{r:.1}"))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            off.workload = format!("{tag}/off");
            on.workload = format!("{tag}/on");
            measurements.push(off);
            measurements.push(on);
        }
    }
    measurements
}

/// The default-configured cache the overhead A/Bs run Larson on, over
/// `backend`: [`larson_tree`] or a wrapper around it.
fn larson_cache<A: BuddyBackend>(backend: A, name: &'static str) -> MagazineCache<A> {
    MagazineCache::with_config_and_name(backend, CacheConfig::default(), name)
}

fn larson_tree(opts: &Options) -> NbbsFourLevel {
    NbbsFourLevel::new(SweepConfig::user_space(Workload::Larson, opts.scale).memory)
}

/// One Larson run on `alloc`, as a row named `name`.
fn larson_row(
    opts: &Options,
    alloc: SharedBackend,
    name: &str,
    t: usize,
    size: usize,
) -> Measurement {
    let result = Workload::Larson.run(&alloc, t, size, opts.scale);
    Measurement::new("larson", name, size, result)
}

/// Latency-recording overhead: recording on vs off.  The off-side rows run
/// the exact pre-observability hot path (no `Recorded` wrapper, no
/// timestamps).
fn obs_overhead(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Observability overhead: Larson, recording on vs off ===");
    let kinds = opts
        .allocators
        .clone()
        .unwrap_or_else(|| vec![AllocatorKind::FourLevelNb]);
    let mut measurements = Vec::new();
    for kind in kinds {
        let detail = format!(" allocator={}", kind.name());
        measurements.extend(overhead(opts, "obs-overhead", &detail, |on, t, size| {
            let sweep = SweepConfig::user_space(Workload::Larson, opts.scale)
                .with_threads(vec![t])
                .with_sizes(vec![size])
                .with_allocators(vec![kind]);
            let harness = Harness::new(false).with_recording(on);
            harness.run_sweep(&sweep).remove(0)
        }));
    }
    measurements
}

/// Sampled allocation-site heap profile: the facade-level web-server
/// request mix (header + streamed body chunks per request, random
/// retirement) with a profiler-only [`nbbs_obs::Recorder`] attached to an
/// `NbbsAllocator` over the cached tree.  Each thread keeps its last 64
/// blocks live at exit, so the quiescent report has something to rank; the
/// printed `profile_attributed_pct=` compares the profiler's attributed
/// live bytes against the facade's own grant accounting (CI gates ≥95% at
/// stride 1, where sampling is exhaustive).  With `--prom <path>` a
/// background [`MetricsSampler`] snapshots the stack during
/// the run and the delta series is written as Prometheus text (plus
/// JSON-lines next to it).
fn profile(opts: &Options) -> Result<Vec<Measurement>, String> {
    println!("\n=== Heap profile: allocation sites of the facade web-server mix ===");
    let threads = opts.threads.clone().unwrap_or_else(|| vec![4]);
    let stride = opts.stride.unwrap_or(1);
    let requests = ((50_000f64 * opts.scale) as u64).max(500);
    let mut measurements = Vec::new();
    for &t in &threads {
        let config = BuddyConfig::new(64 << 20, 64, 64 << 10).expect("profile configuration");
        let profiling = Arc::new(nbbs_obs::Recorder::profiler_only(stride));
        let cache = Arc::new(MagazineCache::new(NbbsFourLevel::new(config)));
        let facade = Arc::new(
            nbbs_alloc::NbbsAllocator::new(Arc::clone(&cache))
                .with_recorder(Arc::clone(&profiling)),
        );
        let sampler = opts.prom_path.as_ref().map(|_| {
            let cache = Arc::clone(&cache);
            MetricsSampler::spawn(
                "nbbs-bench/profile",
                std::time::Duration::from_millis(20),
                512,
                move || {
                    let mut reg = nbbs_obs::MetricsRegistry::new("nbbs-bench");
                    reg.observe_backend(&*cache);
                    reg.snapshot()
                },
            )
        });
        if opts.verbose {
            eprintln!(
                "[nbbs-bench] profile/web-mix threads={t} stride={stride} requests={requests} ..."
            );
        }
        let barrier = Arc::new(std::sync::Barrier::new(t + 1));
        let mut handles = Vec::with_capacity(t);
        for worker in 0..t {
            let facade = Arc::clone(&facade);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0xFACE ^ worker as u64);
                // (address, layout) — addresses as usize so survivors can
                // cross back to the main thread for the post-report frees.
                let mut live: Vec<(usize, std::alloc::Layout)> = Vec::new();
                let (mut ops, mut failed) = (0u64, 0u64);
                barrier.wait();
                for _ in 0..requests {
                    let header = 64 + rng.next_below(960);
                    let chunks = 1 + rng.next_below(4);
                    for i in 0..=chunks {
                        let size = if i == 0 {
                            header
                        } else {
                            256 + rng.next_below(2 << 10)
                        };
                        let layout = std::alloc::Layout::from_size_align(size, 8)
                            .expect("sizes are small and the alignment fixed");
                        match facade.allocate(layout) {
                            Ok(block) => {
                                live.push((block.cast::<u8>().as_ptr() as usize, layout));
                                ops += 1;
                            }
                            Err(_) => failed += 1,
                        }
                    }
                    while live.len() > 64 {
                        let idx = rng.next_below(live.len());
                        let (addr, layout) = live.swap_remove(idx);
                        // SAFETY: `addr` came from this facade with this
                        // layout and is released exactly once.
                        unsafe {
                            facade.deallocate(
                                std::ptr::NonNull::new_unchecked(addr as *mut u8),
                                layout,
                            );
                        }
                        ops += 1;
                    }
                }
                (live, ops, failed)
            }));
        }
        let timer = CycleTimer::start();
        barrier.wait();
        let mut survivors = Vec::new();
        let (mut ops, mut failed) = (0u64, 0u64);
        for h in handles {
            let (live, o, f) = h.join().expect("worker panicked");
            survivors.extend(live);
            ops += o;
            failed += f;
        }
        let (seconds, cycles) = timer.stop();
        if let (Some(sampler), Some(path)) = (sampler, &opts.prom_path) {
            let series = sampler.stop();
            std::fs::write(path, series.to_prometheus())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            let jsonl = format!("{path}.jsonl");
            std::fs::write(&jsonl, series.to_json_lines())
                .map_err(|e| format!("cannot write {jsonl}: {e}"))?;
            println!(
                "[profile] wrote {} samples: prometheus to {path}, json-lines to {jsonl}",
                series.len()
            );
        }
        // Quiescent now: the survivors are the only live blocks, so the
        // facade's grant math is the oracle the attribution is held to.
        let actual_live: u64 = survivors
            .iter()
            .map(|&(_, layout)| facade.granted_size(layout).unwrap_or(layout.size()) as u64)
            .sum();
        let report = profiling
            .profiler()
            .expect("built with one just above")
            .report();
        let attributed = report.attributed_live_bytes();
        let pct = if actual_live == 0 {
            100.0
        } else {
            attributed as f64 / actual_live as f64 * 100.0
        };
        print!("{}", report.text(15));
        println!(
            "[profile] web-mix threads={t} stride={stride} live_bytes={actual_live} \
             attributed_bytes={attributed} profile_attributed_pct={pct:.1}"
        );
        for (addr, layout) in survivors {
            // SAFETY: same provenance as the worker-side frees.
            unsafe {
                facade.deallocate(std::ptr::NonNull::new_unchecked(addr as *mut u8), layout);
            }
            ops += 1;
        }
        let stats = facade.facade_stats();
        let result = WorkloadResult {
            threads: t,
            operations: ops,
            seconds,
            cycles,
            failed_allocs: failed,
            bytes_requested: stats.requested_bytes,
            bytes_committed: stats.granted_bytes,
        };
        measurements.push(
            Measurement::new("profile/web-mix", "cached-4lvl-nb", 0, result)
                .with_cache(cache.cache_stats()),
        );
    }
    println!("Byte accounting (requested vs granted, facade odometer):");
    print!("{}", report::frag_table(&measurements));
    Ok(measurements)
}

/// Event-trace capture: a deterministic Larson run over the cached tree
/// with every operation recorded (`Recorded` stride 1), exported from the
/// recorder's event ring as chrome://tracing (Perfetto) JSON.  `--check`
/// re-parses the emitted file with the strict `nbbs_obs::jsoncheck`
/// validator and enforces an event-count floor, so CI catches both
/// malformed output and a layer that silently stopped recording.
fn trace(opts: &Options) -> Result<Vec<Measurement>, String> {
    println!("\n=== Trace: chrome://tracing capture of a Larson run ===");
    let t = opts.threads.clone().unwrap_or_else(|| vec![4])[0];
    let size = opts.sizes.clone().unwrap_or_else(|| vec![128])[0];
    let sweep = SweepConfig::user_space(Workload::Larson, opts.scale);
    let rec = Arc::new(nbbs_obs::Recorder::new());
    let ring = rec.ring();
    let alloc: SharedBackend = Arc::new(nbbs_obs::Recorded::new(
        MagazineCache::with_config_and_name(
            NbbsFourLevel::new(sweep.memory),
            CacheConfig::default(),
            "traced-cached-4lvl",
        )
        .with_recorder(Arc::clone(&rec)),
        Arc::clone(&rec),
    ));
    if opts.verbose {
        eprintln!("[nbbs-bench] trace/larson size={size} threads={t} ...");
    }
    ring.start();
    let result = Workload::Larson.run(&alloc, t, size, opts.scale);
    ring.stop();
    let events = ring.events();
    let json = ring.to_chrome_json("nbbs-bench larson");
    let path = opts
        .out_path
        .clone()
        .unwrap_or_else(|| "nbbs-trace.json".into());
    std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "[trace] larson size={size} threads={t} trace_events={} trace_dropped={} \
         wrote chrome-trace JSON to {path}",
        events.len(),
        ring.dropped(),
    );
    if opts.check {
        let slices = nbbs_obs::jsoncheck::validate_chrome_trace(&json)
            .map_err(|e| format!("chrome-trace validation failed: {e}"))?;
        if slices < 16 {
            return Err(format!(
                "trace too sparse: {slices} slices (floor 16) — is anything recording?"
            ));
        }
        println!("[trace] check ok: {slices} valid slices");
    }
    println!("open the file in https://ui.perfetto.dev or chrome://tracing");
    Ok(vec![Measurement::new(
        "trace/larson",
        "traced-cached-4lvl",
        size,
        result,
    )])
}

/// Decommit-scrubber overhead: the cached 4-level tree also sits behind a
/// demand-zero [`nbbs::BuddyRegion`]; the on-side arms the background
/// scrubber at the production cadence (the `NBBS_SCRUB` default, 100 ms),
/// so its passes race the workload's allocation CAS traffic for the free
/// blocks and charge the workload the demand-zero refaults for whatever
/// they win.  The measured gap is the cost of leaving the scrubber always
/// on under a hot allocator.
fn scrub_overhead(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Scrub overhead: Larson, background scrubber armed (100 ms) vs off ===");
    overhead(opts, "scrub-overhead", "", |armed, t, size| {
        let cache = Arc::new(larson_cache(larson_tree(opts), "cached-4lvl"));
        let region = nbbs::BuddyRegion::new(Arc::clone(&cache));
        let name = if armed {
            // Take the one-time whole-arena decommit burst before the timed
            // window: a deployed scrubber runs for the process lifetime, so
            // the A/B measures steady-state passes racing the workload, not
            // first-pass setup.
            region.scrub_pass();
            region.start_scrubber(std::time::Duration::from_millis(100));
            "cached-4lvl+region+scrub"
        } else {
            "cached-4lvl+region"
        };
        // Dropping the region afterwards stops and joins the scrubber.
        larson_row(opts, cache, name, t, size)
    })
}

/// Chaos rounds: the paper-evaluation workloads (Larson and the
/// facade-level Mixed Layout churn) run over the cached 4-level tree with
/// an armed `nbbs-chaos` storm at the backend boundary — transient
/// failures, injected hard OOM and artificial delays, deterministically
/// derived from the printed seed.  After each round the injector is
/// disarmed, the cache fully drained, and the tree audited: the free
/// bitmap must be spotless and a max-class re-allocation probe proves no
/// capacity was stranded.  Any violation prints a `REPRO:` line naming the
/// exact seed to re-run with, prints the event ring's `[flight]` dump, and
/// exits non-zero.
fn chaos(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Chaos: Larson + Mixed Layout under seeded fault schedules ===");
    let rounds = opts.rounds.unwrap_or(8);
    let base_seed = opts.seed.unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED_5EED)
    });
    println!("[chaos] base_seed={base_seed:#018x} rounds={rounds}");
    let threads = opts.threads.clone().unwrap_or_else(|| vec![4]);
    let sizes = opts.sizes.clone().unwrap_or_else(|| vec![128]);
    let mut measurements = Vec::new();
    for round in 0..rounds {
        let seed = base_seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for workload in [Workload::Larson, Workload::MixedLayout] {
            let sweep = SweepConfig::user_space(workload, opts.scale);
            for &size in &sizes {
                for &t in &threads {
                    let recorder = Arc::new(nbbs_obs::Recorder::new());
                    let cache = Arc::new(
                        MagazineCache::with_config_and_name(
                            FaultInjecting::new(
                                NbbsFourLevel::new(sweep.memory),
                                FaultPlan::storm(seed),
                            ),
                            CacheConfig::default(),
                            "chaos-cached-4lvl",
                        )
                        .with_recorder(Arc::clone(&recorder)),
                    );
                    let shared: SharedBackend = Arc::clone(&cache) as SharedBackend;
                    if opts.verbose {
                        eprintln!(
                            "[nbbs-bench] chaos/{} seed={seed:#018x} size={size} threads={t} ...",
                            workload.name()
                        );
                    }
                    let result = workload.run(&shared, t, size, opts.scale);
                    let faults = cache.backend().fault_stats();
                    cache.backend().disarm();
                    cache.drain_all();
                    let audit = verify_cached_empty(&cache);
                    // Stranded-capacity probe: a freshly drained arena must
                    // serve a max-class block again.
                    let max = sweep.memory.max_size();
                    let probe = cache.alloc(max);
                    if let Some(off) = probe {
                        cache.dealloc(off);
                        cache.drain_all();
                    }
                    if !audit.is_clean() || cache.allocated_bytes() != 0 || probe.is_none() {
                        println!(
                            "REPRO: nbbs-bench chaos --seed {seed:#018x} --rounds 1 \
                             --threads {t} --sizes {size} --scale {}",
                            opts.scale
                        );
                        println!(
                            "  audit: {audit:?}  allocated_bytes={}",
                            cache.allocated_bytes()
                        );
                        print!("{}", recorder.ring().flight_dump());
                        std::process::exit(1);
                    }
                    let m = Measurement::new(
                        format!("chaos/{}", workload.name()),
                        "chaos-cached-4lvl",
                        size,
                        result,
                    )
                    .with_cache(cache.cache_stats())
                    .with_backend_ops(cache.stats());
                    if opts.verbose {
                        eprintln!(
                            "[nbbs-bench]   -> {m} (injected: {} failures, {} oom, \
                             {} delays over {} gated ops)",
                            faults.injected_failures,
                            faults.injected_oom,
                            faults.injected_delays,
                            faults.ops,
                        );
                    }
                    measurements.push(m);
                }
            }
        }
        println!("[chaos] round {round} seed={seed:#018x} clean");
    }
    print!("{}", report::text_table(&measurements, Metric::Seconds));
    let cache_table = report::cache_table(&measurements);
    if !cache_table.is_empty() {
        println!("Magazine-cache behaviour under injected faults:");
        print!("{cache_table}");
    }
    measurements
}

/// Zero-cost-when-disabled overhead: a *disarmed* `FaultInjecting` wrapper
/// between the cache and the tree vs the bare cached tree.
fn chaos_overhead(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Chaos overhead: Larson, disarmed fault wrapper vs bare ===");
    overhead(opts, "chaos-overhead", "", |wrapped, t, size| {
        if wrapped {
            let cache = larson_cache(FaultInjecting::inert(larson_tree(opts)), "chaos-disarmed");
            cache.backend().disarm();
            larson_row(opts, Arc::new(cache), "chaos-disarmed", t, size)
        } else {
            let cache = larson_cache(larson_tree(opts), "cached-4lvl");
            larson_row(opts, Arc::new(cache), "cached-4lvl", t, size)
        }
    })
}

fn write_outputs(
    measurements: &[Measurement],
    opts: &Options,
    metric: Metric,
) -> Result<(), String> {
    if let Some(path) = &opts.csv_path {
        std::fs::write(path, report::csv(measurements))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote CSV to {path}");
    }
    if let Some(path) = &opts.json_path {
        std::fs::write(path, report::json_lines(measurements))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote JSON lines to {path}");
    }
    if let Some(path) = &opts.series_path {
        std::fs::write(path, report::figure_series(measurements, metric))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote series to {path}");
    }
    Ok(())
}

/// Scan-start policy ablation: the same non-blocking tree with first-fit vs
/// scattered scan starts, on the most contended workload.
fn ablation_scan(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Ablation: scan-start policy (1lvl-nb, Linux Scalability, Bytes=8) ===");
    let threads = opts
        .threads
        .clone()
        .unwrap_or_else(|| vec![4, 8, 16, 24, 32]);
    let mut measurements = Vec::new();
    for &t in &threads {
        for (label, policy) in [
            ("scattered", ScanPolicy::Scattered),
            ("first-fit", ScanPolicy::FirstFit),
        ] {
            let cfg = BuddyConfig::new(64 << 20, 8, 16 << 10)
                .unwrap()
                .with_scan_policy(policy);
            let alloc: SharedBackend = Arc::new(NbbsOneLevel::new(cfg));
            let result = linux_scalability::run(
                &alloc,
                LinuxScalabilityParams::paper(t, 8).scaled(opts.scale),
            );
            let m = Measurement::new("scan-ablation", label, 8, result);
            if opts.verbose {
                eprintln!("[nbbs-bench]   -> {m}");
            }
            measurements.push(m);
        }
    }
    print!("{}", report::text_table(&measurements, Metric::Seconds));
    measurements
}

/// RMW-count ablation: CAS instructions per operation for 1lvl vs 4lvl.
fn ablation_rmw(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Ablation: RMW instructions per operation (1lvl vs 4lvl) ===");
    if !nbbs::OpStats::enabled() {
        println!(
            "note: rebuild with `--features nbbs/op-stats` to obtain CAS counts; \
             timing comparison is still reported below."
        );
    }
    let threads = opts.threads.clone().unwrap_or_else(|| vec![1, 8, 32]);
    let cfg = BuddyConfig::new(64 << 20, 8, 16 << 10).unwrap();
    let mut measurements = Vec::new();
    for &t in &threads {
        for (name, alloc) in [
            ("1lvl-nb", Arc::new(NbbsOneLevel::new(cfg)) as SharedBackend),
            (
                "4lvl-nb",
                Arc::new(NbbsFourLevel::new(cfg)) as SharedBackend,
            ),
        ] {
            let result = linux_scalability::run(
                &alloc,
                LinuxScalabilityParams::paper(t, 8).scaled(opts.scale),
            );
            let stats = alloc.stats();
            if stats.cas_ops > 0 {
                println!(
                    "  threads={t:<3} {name:<8} cas/op={:.2} cas-failure-rate={:.4}",
                    stats.cas_per_op(),
                    stats.cas_failure_rate()
                );
            }
            measurements.push(Measurement::new("rmw-ablation", name, 8, result));
        }
    }
    print!("{}", report::text_table(&measurements, Metric::Seconds));
    measurements
}

/// Fragmentation-resilience ablation: Constant Occupancy at increasing
/// occupancy levels (pool sizes), non-blocking vs spin-locked tree.
fn ablation_frag(opts: &Options) -> Vec<Measurement> {
    println!("\n=== Ablation: resilience to fragmentation/occupancy (Constant Occupancy) ===");
    let threads = opts.threads.clone().unwrap_or_else(|| vec![8]);
    let cfg = BuddyConfig::new(64 << 20, 8, 16 << 10).unwrap();
    let mut measurements = Vec::new();
    for &t in &threads {
        for pool in [64usize, 256, 1024] {
            for kind in [AllocatorKind::OneLevelNb, AllocatorKind::BuddySl] {
                let alloc = nbbs_workloads::factory::build(kind, cfg);
                let params = constant_occupancy::ConstantOccupancyParams {
                    threads: t,
                    min_block: 8,
                    size_ratio: 16,
                    base_pool_count: pool,
                    total_steps: (20_000_000f64 * opts.scale) as u64,
                };
                let result = constant_occupancy::run(&alloc, params);
                let m = Measurement::new(format!("frag-pool-{pool}"), kind.name(), 8, result);
                if opts.verbose {
                    eprintln!("[nbbs-bench]   -> {m}");
                }
                measurements.push(m);
            }
        }
    }
    print!("{}", report::text_table(&measurements, Metric::Seconds));
    measurements
}

fn list() {
    println!("Allocators:");
    for &kind in AllocatorKind::all() {
        println!(
            "  {:<16} {}",
            kind.name(),
            if kind.is_non_blocking() {
                "non-blocking (lock-free)"
            } else if kind.is_cached() {
                "magazine cache over a non-blocking backend"
            } else {
                "blocking (spin lock)"
            }
        );
    }
    println!("\nWorkloads:");
    for w in [
        Workload::LinuxScalability,
        Workload::ThreadTest,
        Workload::Larson,
        Workload::ConstantOccupancy,
        Workload::MixedLayout,
        Workload::NumaSkew,
    ] {
        println!("  {:<20} metric: {}", w.name(), w.primary_metric().label());
    }
    println!("\nFigures:");
    for &f in FigureSpec::all() {
        println!("  {}", f.title());
    }
    println!("  Figure 12 also sweeps the multi-node NodeSet deployment (threads x nodes x home-ratio) with a per-node share table");
    println!("  Figure 13: Magazine-cache ablation - cached vs uncached backends, facade churn, per-class capacities, depot-steal A/B (this reproduction's own)");
    println!("  frag: slab size-class fragmentation A/B - committed/requested byte ratios, slab stacks vs power-of-two stacks (this reproduction's own)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, mut opts) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: nbbs-bench <fig8|fig9|fig10|fig11|fig12|fig13|all|frag|profile|trace|scrub-overhead|obs-overhead|chaos|chaos-overhead|ablation-scan|ablation-rmw|ablation-frag|list> [options]");
            return ExitCode::FAILURE;
        }
    };
    if command == "all" && opts.json_path.is_none() {
        // `all` is the perf-trajectory snapshot: default its JSON-lines
        // output to BENCH_<date>.json in the current directory.
        let stamp = opts.date.clone().unwrap_or_else(today_utc);
        opts.json_path = Some(format!("BENCH_{stamp}.json"));
    }

    let (measurements, metric) = match command.as_str() {
        "fig8" => (
            run_figure(FigureSpec::Fig8, &opts),
            FigureSpec::Fig8.metric(),
        ),
        "fig9" => (
            run_figure(FigureSpec::Fig9, &opts),
            FigureSpec::Fig9.metric(),
        ),
        "fig10" => (
            run_figure(FigureSpec::Fig10, &opts),
            FigureSpec::Fig10.metric(),
        ),
        "fig11" => (
            run_figure(FigureSpec::Fig11, &opts),
            FigureSpec::Fig11.metric(),
        ),
        "fig12" => {
            let mut measurements = run_figure(FigureSpec::Fig12, &opts);
            measurements.extend(fig12_numa(&opts));
            (measurements, FigureSpec::Fig12.metric())
        }
        "fig13" => (fig13_cache_ablation(&opts), Metric::Seconds),
        "all" => {
            let mut all = Vec::new();
            for &figure in FigureSpec::all() {
                all.extend(run_figure(figure, &opts));
            }
            all.extend(fig12_numa(&opts));
            all.extend(fig13_cache_ablation(&opts));
            all.extend(frag(&opts));
            (all, Metric::Seconds)
        }
        "frag" => (frag(&opts), Metric::Seconds),
        "profile" => match profile(&opts) {
            Ok(m) => (m, Metric::Seconds),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        "trace" => match trace(&opts) {
            Ok(m) => (m, Metric::Seconds),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        "scrub-overhead" => (scrub_overhead(&opts), Metric::KopsPerSec),
        "obs-overhead" => (obs_overhead(&opts), Metric::KopsPerSec),
        "chaos" => (chaos(&opts), Metric::Seconds),
        "chaos-overhead" => (chaos_overhead(&opts), Metric::KopsPerSec),
        "ablation-scan" => (ablation_scan(&opts), Metric::Seconds),
        "ablation-rmw" => (ablation_rmw(&opts), Metric::Seconds),
        "ablation-frag" => (ablation_frag(&opts), Metric::Seconds),
        "list" => {
            list();
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command '{other}'");
            return ExitCode::FAILURE;
        }
    };

    if let Err(e) = write_outputs(&measurements, &opts, metric) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
