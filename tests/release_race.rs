//! The release race of ROADMAP item 1, on the bare trees, with no cache.
//! Each round three threads make 1 500 grants of 8–64 B each from a fresh
//! 64 KiB tree (8 B units, 1 KiB largest blocks) and send them over `mpsc`
//! to three that free them; once all have joined, `audit_empty` must find
//! every node free.  A stray round prints its seed, its round and its dirty
//! nodes, decoded as `examples/coalescing_soak.rs` does.  The seeds replay
//! the requests, not the interleaving.  A soak takes minutes, so both are
//! ignored: `cargo test --test release_race -- --ignored --nocapture
//! --test-threads 1`.

use std::sync::mpsc;
use std::time::Instant;

use nbbs::status::describe;
use nbbs::verify::audit_empty;
use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel, NbbsOneLevel, TreeInspect};
use nbbs_workloads::rng::SplitMix64;

/// Rounds per tree, spread evenly over the seeds.
const ROUNDS: u64 = 30_000;
const SEEDS: [u64; 3] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003];

/// Runs the rounds on trees `make` builds; returns how many left strays.
fn soak<T: BuddyBackend + TreeInspect>(name: &str, make: impl Fn(BuddyConfig) -> T) -> u64 {
    let (started, mut strays) = (Instant::now(), 0);
    let rounds = (0..ROUNDS / SEEDS.len() as u64).flat_map(|r| SEEDS.map(|seed| (seed, r)));
    for (seed, round) in rounds {
        let tree = make(BuddyConfig::new(1 << 16, 8, 1 << 10).unwrap());
        std::thread::scope(|s| {
            for pair in 0..3u64 {
                let (tx, rx) = mpsc::channel();
                let mut rng =
                    SplitMix64::new(seed ^ round.wrapping_mul(0x9E37_79B9) ^ (pair << 32));
                let tree = &tree;
                s.spawn(move || {
                    for _ in 0..1_500 {
                        let size = 8usize << rng.next_below(4);
                        let offset = loop {
                            match tree.alloc(size) {
                                Some(offset) => break offset,
                                None => std::thread::yield_now(),
                            }
                        };
                        tx.send(offset).unwrap();
                    }
                });
                s.spawn(move || rx.into_iter().for_each(|offset| tree.dealloc(offset)));
            }
        });
        if audit_empty(&tree).is_clean() {
            continue;
        }
        strays += 1;
        println!("STRAY {name}: seed {seed:#x} round {round}:");
        let geo = tree.inspect_geometry();
        for n in 1..geo.tree_len() {
            let (level, status) = (geo.level_of(n), tree.node_status(n));
            if status != 0 {
                println!(
                    "  node {n:5} level {level} status {status:#04x} {}",
                    describe(status)
                );
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    println!("{name}: {strays} stray rounds in {ROUNDS}, {secs:.0} s");
    strays
}

#[test]
#[ignore = "a soak of minutes: ROADMAP item 1's reproduction"]
fn one_level_releases_leave_no_stray_bits() {
    assert_eq!(soak("1lvl", NbbsOneLevel::new), 0);
}

#[test]
#[ignore = "a soak of minutes: ROADMAP item 1's reproduction"]
fn four_level_releases_leave_no_stray_bits() {
    assert_eq!(soak("4lvl", NbbsFourLevel::new), 0);
}
