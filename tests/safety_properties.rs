//! Integration tests for the paper's safety properties S1 and S2
//! (appendix of the paper), checked dynamically through `nbbs::verify`.
//!
//! * S1 — a successful allocation returns a non-allocated, correctly-sized,
//!   correctly-aligned set of addresses;
//! * S2 — a correct free releases exactly the memory targeted by the request.
//!
//! The tests drive long random operation sequences on both non-blocking
//! variants while maintaining the ground-truth live set, and audit the
//! allocator metadata at every quiescent point.

use std::collections::BTreeMap;

use nbbs::fourlvl::BunchStore;
use nbbs::onelvl::ByteStore;
use nbbs::tree::{BuddyTree, NodeStore};
use nbbs::verify::{audit, audit_empty};
use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel, NbbsOneLevel, ScanPolicy, TreeInspect};
use nbbs_workloads::rng::SplitMix64;

fn config(total: usize, min: usize, max: usize) -> BuddyConfig {
    BuddyConfig::new(total, min, max).unwrap()
}

/// Runs a random alloc/free sequence on `alloc`, auditing after every
/// `audit_every` operations and at the end.
fn drive_and_audit<A>(alloc: &A, seed: u64, steps: usize, audit_every: usize)
where
    A: BuddyBackend + TreeInspect,
{
    let geo = *alloc.geometry();
    let mut rng = SplitMix64::new(seed);
    let mut live: BTreeMap<usize, usize> = BTreeMap::new();
    for step in 0..steps {
        let do_alloc = live.is_empty() || !rng.next_u64().is_multiple_of(3);
        if do_alloc {
            let size = geo.min_size() << rng.next_below(6);
            if let Some(off) = alloc.alloc(size) {
                // S1: the chunk must not overlap any live chunk; `audit`
                // re-checks this, but catching it here gives a precise step.
                for (&o, &s) in &live {
                    let g = geo.granted_size(s).unwrap();
                    let granted = geo.granted_size(size).unwrap();
                    assert!(
                        off + granted <= o || o + g <= off,
                        "S1 violated at step {step}: [{off}, +{granted}) overlaps [{o}, +{g})"
                    );
                }
                live.insert(off, size);
            }
        } else {
            let idx = rng.next_below(live.len());
            let (&off, _) = live.iter().nth(idx).unwrap();
            let size = live.remove(&off).unwrap();
            alloc.dealloc(off);
            // S2: after the free, an allocation of the same size must be able
            // to reuse that chunk eventually; at minimum the accounting drops
            // by exactly the granted size.
            let _ = size;
        }
        if step % audit_every == 0 {
            audit(alloc, &live, true).assert_clean();
            let expected: usize = live
                .iter()
                .map(|(_, &s)| geo.granted_size(s).unwrap())
                .sum();
            assert_eq!(
                alloc.allocated_bytes(),
                expected,
                "accounting drift at step {step}"
            );
        }
    }
    for (&off, _) in live.clone().iter() {
        alloc.dealloc(off);
    }
    audit_empty(alloc).assert_clean();
    assert_eq!(alloc.allocated_bytes(), 0);
}

#[test]
fn one_level_satisfies_safety_properties_scattered() {
    let alloc = NbbsOneLevel::new(config(1 << 16, 8, 1 << 12));
    drive_and_audit(&alloc, 1, 6_000, 97);
}

#[test]
fn one_level_satisfies_safety_properties_first_fit() {
    let alloc =
        NbbsOneLevel::new(config(1 << 16, 8, 1 << 12).with_scan_policy(ScanPolicy::FirstFit));
    drive_and_audit(&alloc, 2, 6_000, 97);
}

#[test]
fn four_level_satisfies_safety_properties_scattered() {
    let alloc = NbbsFourLevel::new(config(1 << 16, 8, 1 << 12));
    drive_and_audit(&alloc, 3, 6_000, 97);
}

#[test]
fn four_level_satisfies_safety_properties_first_fit() {
    let alloc =
        NbbsFourLevel::new(config(1 << 16, 8, 1 << 12).with_scan_policy(ScanPolicy::FirstFit));
    drive_and_audit(&alloc, 4, 6_000, 97);
}

#[test]
fn safety_holds_with_restricted_max_size() {
    // max_level > 0: climbs stop early; safety must still hold.
    let alloc = NbbsOneLevel::new(config(1 << 16, 8, 1 << 9));
    drive_and_audit(&alloc, 5, 4_000, 61);
    let alloc = NbbsFourLevel::new(config(1 << 16, 8, 1 << 9));
    drive_and_audit(&alloc, 6, 4_000, 61);
}

#[test]
fn safety_holds_on_tiny_trees() {
    for (total, min) in [(64usize, 8usize), (128, 8), (512, 64), (1024, 8)] {
        let alloc = NbbsOneLevel::new(config(total, min, total));
        drive_and_audit(&alloc, total as u64, 1_500, 37);
        let alloc = NbbsFourLevel::new(config(total, min, total));
        drive_and_audit(&alloc, total as u64 + 1, 1_500, 37);
    }
}

#[test]
fn quiescent_concurrent_state_audits_clean() {
    // After a concurrent storm completes, the tree must audit clean against
    // the surviving live set (here: empty).
    fn storm<S: NodeStore>() {
        let alloc = BuddyTree::<S>::new(config(1 << 14, 8, 1 << 10));
        std::thread::scope(|s| {
            for t in 0..6 {
                let alloc = &alloc;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(0xAB ^ t as u64);
                    let mut live = Vec::new();
                    for _ in 0..4_000 {
                        if live.is_empty() || rng.next_u64() & 1 == 0 {
                            let size = 8usize << rng.next_below(7);
                            live.extend(alloc.alloc(size));
                        } else {
                            alloc.dealloc(live.swap_remove(rng.next_below(live.len())));
                        }
                    }
                    for off in live {
                        alloc.dealloc(off);
                    }
                });
            }
        });
        audit_empty(&alloc).assert_clean();
        assert_eq!(alloc.allocated_bytes(), 0);
    }
    storm::<ByteStore>();
    storm::<BunchStore>();
}
