//! Coalescing soak: hammer a non-blocking buddy with concurrent mixed-size
//! storms and, after every quiescent round, assert that the tree is
//! completely clean (no stray occupancy or coalescing bits — i.e. full
//! coalescing happened and no capacity was stranded).
//!
//! This is the tool that found (and now guards against) the 4-level
//! release/release race where two frees racing in the same bunch could both
//! skip setting the ancestor's coalescing bit, permanently stranding the
//! ancestor's branch-occupancy bit.  A failing round prints the dirty nodes
//! with decoded status bits and exits non-zero.
//!
//! Usage:
//! ```text
//! cargo run --release --example coalescing_soak [variant] [threads] [iters] [depth] [rounds] [seed]
//! ```
//! `variant` is `4lvl` (default) or `1lvl`; `depth` sizes the tree
//! (`total = 8 << depth` bytes, 8-byte units, whole-region max requests, so
//! a leaf's climb crosses `depth / 4` bunch boundaries, and the top bunch
//! holds `(depth + 1) % 4` levels, or four when that is 0); `rounds` bounds the
//! soak (default 2M — expect hours for a full soak, interrupt freely; CI
//! runs a few thousand rounds as a smoke test so the residual race keeps
//! being hunted continuously).
//!
//! `seed` is the base RNG seed every round derives its per-thread streams
//! from.  It defaults to the wall clock, is printed **up front** and again
//! on failure together with the failing round, and re-running with the
//! same seed replays the identical per-thread request sequences — the OS
//! interleaving is still nondeterministic, but a CI hit is no longer lost:
//! the printed `(seed, round)` pair pins down the exact workload to
//! re-soak.  (For *deterministic* schedule replay use the `nbbs-model`
//! checker, which enumerates interleavings instead of sampling them.)

use std::sync::Arc;

use nbbs::status::describe;
use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel, NbbsOneLevel};
use nbbs_obs::{Recorded, Recorder};
use nbbs_workloads::rng::SplitMix64;

fn run<A: BuddyBackend + 'static>(
    make: impl Fn() -> A,
    node_status: impl Fn(&A, usize) -> u8,
    threads: usize,
    iters: usize,
    max_order: usize,
    rounds: u64,
    base_seed: u64,
) {
    for round in 0..rounds {
        // Record every operation into the recorder's event ring: a REPRO
        // print then carries each thread's last operations leading into
        // the dirty state — the interleaving evidence a (seed, round)
        // pair alone cannot replay.  Timing every op costs throughput
        // (fewer rounds per hour), but a hit without its history wastes
        // far more than the slower hunt.
        let recorder = Arc::new(Recorder::new());
        let a = Arc::new(Recorded::new(make(), Arc::clone(&recorder)));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let a = Arc::clone(&a);
                let seed = base_seed ^ round.wrapping_mul(0x9E37_79B9) ^ ((t as u64) << 32);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(seed);
                    let mut live = Vec::new();
                    for _ in 0..iters {
                        if live.is_empty() || rng.next_u64() & 1 == 0 {
                            let size = 8usize << rng.next_below(max_order);
                            if let Some(off) = a.alloc(size) {
                                live.push(off);
                            }
                        } else {
                            let off = live.swap_remove(rng.next_below(live.len()));
                            a.dealloc(off);
                        }
                    }
                    for off in live {
                        a.dealloc(off);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.allocated_bytes(), 0);
        let geo = *a.geometry();
        let dirty: Vec<(usize, u8)> = (1..geo.tree_len())
            .map(|n| (n, node_status(Recorded::inner(&a), n)))
            .filter(|&(_, s)| s != 0)
            .collect();
        if !dirty.is_empty() {
            println!(
                "REPRO: seed {base_seed:#018x} round {round} threads={threads} iters={iters}:"
            );
            for (n, s) in dirty {
                println!(
                    "  node {n:4} level {} status {s:#04x} {}",
                    geo.level_of(n),
                    describe(s)
                );
            }
            print!("{}", recorder.ring().flight_dump());
            std::process::exit(1);
        }
        if round % 20000 == 0 {
            eprintln!("round {round} clean");
        }
    }
    println!("no repro in {rounds} rounds");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let variant = args
        .first()
        .map(|s| s.as_str())
        .unwrap_or("4lvl")
        .to_string();
    let threads: usize = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(3);
    let iters: usize = args.get(2).map(|s| s.parse().unwrap()).unwrap_or(300);
    let depth: u32 = args.get(3).map(|s| s.parse().unwrap()).unwrap_or(9);
    let rounds: u64 = args.get(4).map(|s| s.parse().unwrap()).unwrap_or(2_000_000);
    let base_seed: u64 = args
        .get(5)
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
    // Printed up front so a CI hit (or an interrupted soak) is always
    // attributable to a reproducible (seed, round) pair.
    println!(
        "coalescing_soak: variant={variant} threads={threads} iters={iters} \
         depth={depth} rounds={rounds} seed={base_seed:#018x}"
    );
    let total = 8usize << depth;
    let cfg = BuddyConfig::new(total, 8, total).unwrap();
    let max_order = depth as usize + 1;
    match variant.as_str() {
        "4lvl" => run(
            move || NbbsFourLevel::new(cfg),
            |a, n| a.node_status(n),
            threads,
            iters,
            max_order,
            rounds,
            base_seed,
        ),
        "1lvl" => run(
            move || NbbsOneLevel::new(cfg),
            |a, n| a.node_status(n),
            threads,
            iters,
            max_order,
            rounds,
            base_seed,
        ),
        other => panic!("unknown variant {other}"),
    }
}
