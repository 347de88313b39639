//! Property-based differential testing of every allocator against the
//! sequential reference oracle.
//!
//! Strategy: generate an arbitrary sequence of allocation/release commands
//! (with sizes spanning the whole configuration range, including invalid
//! oversized requests) and apply it simultaneously to the oracle and to the
//! implementation under test.  For the deterministic first-fit non-blocking
//! variants we require *identical offsets*; for the other allocators we only
//! require behavioural equivalence (same success/failure, no overlap,
//! conserved accounting) because their placement policies legitimately
//! differ.

use proptest::prelude::*;

use nbbs::fourlvl::BunchStore;
use nbbs::onelvl::ByteStore;
use nbbs::tree::{BuddyTree, NodeStore};
use nbbs::{BuddyBackend, BuddyConfig, FreeError, NbbsFourLevel, NbbsOneLevel, ScanPolicy};
use nbbs_baselines::{CloudwuBuddy, LinuxBuddy, ReferenceBuddy};

/// One step of a generated workload.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate this many bytes.
    Alloc(usize),
    /// Free the k-th oldest live allocation (modulo the live count).
    Free(usize),
}

fn op_strategy(max_size: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1usize..=max_size * 2).prop_map(Op::Alloc),
        2 => (0usize..64).prop_map(Op::Free),
    ]
}

fn ops_strategy(max_size: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(max_size), 1..400)
}

const TOTAL: usize = 1 << 14;
const MIN: usize = 8;
const MAX: usize = 1 << 11;

fn first_fit_config() -> BuddyConfig {
    BuddyConfig::new(TOTAL, MIN, MAX)
        .unwrap()
        .with_scan_policy(ScanPolicy::FirstFit)
}

/// What the checked lookups must answer for every allocation unit, given
/// the oracle's live set: a block's start names its granted size, and a
/// free offset is no allocation (the lookup says `None`, the checked
/// release refuses it and moves no byte count).
///
/// An offset *inside* a live block is a caller error of the rank of a
/// double free.  The 1-level tree rejects it (`rejects_interior`): the node
/// a stale `index[]` entry names there lies under the live block's node and
/// reads free.  The 4-level tree cannot always tell (the trait docs of
/// `try_dealloc` name the blind spot), so nothing is asserted for it there
/// beyond what the starts and the free offsets already pin: it never says
/// `None` where the 1-level says `Some`.
fn probe_checked_lookups<S: NodeStore>(
    nb: &BuddyTree<S>,
    oracle: &ReferenceBuddy,
    rejects_interior: bool,
) {
    let mut chunks = oracle.live_chunks().into_iter().peekable();
    let before = nb.allocated_bytes();
    for offset in (0..TOTAL).step_by(MIN) {
        while chunks.next_if(|&(o, g)| o + g <= offset).is_some() {}
        match chunks.peek() {
            Some(&(start, granted)) if start == offset => {
                assert_eq!(nb.granted_size_of_live(offset), Some(granted));
            }
            Some(&(start, _)) if start < offset => {
                if rejects_interior {
                    assert_eq!(nb.granted_size_of_live(offset), None, "inside {start}");
                }
            }
            _ => {
                assert_eq!(nb.granted_size_of_live(offset), None, "free {offset}");
                assert_eq!(
                    nb.try_dealloc(offset),
                    Err(FreeError::NotAllocated { offset })
                );
            }
        }
    }
    assert_eq!(
        nb.allocated_bytes(),
        before,
        "a refused release moved bytes"
    );
}

/// With first-fit scanning the non-blocking tree over store `S` is offset-
/// for-offset identical to the sequential oracle, and its checked lookups
/// agree with the oracle's live set at every step.
fn matches_oracle<S: NodeStore>(ops: Vec<Op>, rejects_interior: bool) {
    let mut oracle = ReferenceBuddy::new(first_fit_config());
    let nb = BuddyTree::<S>::new(first_fit_config());
    let mut live: Vec<usize> = Vec::new();
    for op in ops {
        match op {
            Op::Alloc(size) => {
                let expected = oracle.alloc(size);
                let got = nb.alloc(size);
                assert_eq!(expected, got, "alloc({size}) diverged");
                live.extend(got);
            }
            Op::Free(k) => {
                if live.is_empty() {
                    continue;
                }
                let off = live.remove(k % live.len());
                oracle.dealloc(off);
                nb.dealloc(off);
            }
        }
        assert_eq!(oracle.allocated_bytes(), nb.allocated_bytes());
        probe_checked_lookups(&nb, &oracle, rejects_interior);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_level_matches_oracle(ops in ops_strategy(MAX)) {
        matches_oracle::<ByteStore>(ops, true);
    }

    #[test]
    fn four_level_matches_oracle(ops in ops_strategy(MAX)) {
        matches_oracle::<BunchStore>(ops, false);
    }

    /// Behavioural equivalence for the blocking baselines: allocations
    /// succeed at least whenever the oracle can prove a chunk of that order
    /// is available to *some* placement policy (success may differ because
    /// placement differs and affects later fragmentation), no live chunks
    /// ever overlap, chunks are size-aligned, and accounting is conserved.
    #[test]
    fn baselines_respect_buddy_invariants(ops in ops_strategy(MAX)) {
        let allocators: Vec<Box<dyn BuddyBackend>> = vec![
            Box::new(CloudwuBuddy::new(BuddyConfig::new(TOTAL, MIN, MAX).unwrap())),
            Box::new(LinuxBuddy::new(BuddyConfig::new(TOTAL, 64, MAX).unwrap())),
            Box::new(NbbsOneLevel::new(BuddyConfig::new(TOTAL, MIN, MAX).unwrap())),
            Box::new(NbbsFourLevel::new(BuddyConfig::new(TOTAL, MIN, MAX).unwrap())),
        ];
        for alloc in &allocators {
            let geo = *alloc.geometry();
            let mut live: Vec<(usize, usize)> = Vec::new();
            let mut expected_bytes = 0usize;
            for op in &ops {
                match *op {
                    Op::Alloc(size) => {
                        if size > geo.max_size() {
                            prop_assert_eq!(alloc.alloc(size), None,
                                "{} accepted an oversized request", alloc.name());
                            continue;
                        }
                        if let Some(off) = alloc.alloc(size) {
                            let granted = geo.granted_size(size).unwrap();
                            prop_assert!(off + granted <= geo.total_memory());
                            prop_assert_eq!(off % granted, 0,
                                "{}: offset {} not aligned to {}", alloc.name(), off, granted);
                            for &(o, g) in &live {
                                prop_assert!(off + granted <= o || o + g <= off,
                                    "{}: overlap", alloc.name());
                            }
                            live.push((off, granted));
                            expected_bytes += granted;
                        }
                    }
                    Op::Free(k) => {
                        if live.is_empty() { continue; }
                        let (off, granted) = live.remove(k % live.len());
                        alloc.dealloc(off);
                        expected_bytes -= granted;
                    }
                }
                prop_assert_eq!(alloc.allocated_bytes(), expected_bytes,
                    "{}: accounting drift", alloc.name());
            }
            for (off, _) in live {
                alloc.dealloc(off);
            }
            prop_assert_eq!(alloc.allocated_bytes(), 0, "{} leaked", alloc.name());
        }
    }

    /// After any sequence that ends with everything freed, the full region is
    /// allocatable again as one maximal chunk (complete coalescing).
    #[test]
    fn full_coalescing_after_drain(ops in ops_strategy(MAX)) {
        let allocators: Vec<Box<dyn BuddyBackend>> = vec![
            Box::new(NbbsOneLevel::new(BuddyConfig::new(TOTAL, MIN, MAX).unwrap())),
            Box::new(NbbsFourLevel::new(BuddyConfig::new(TOTAL, MIN, MAX).unwrap())),
            Box::new(CloudwuBuddy::new(BuddyConfig::new(TOTAL, MIN, MAX).unwrap())),
        ];
        for alloc in &allocators {
            let mut live: Vec<usize> = Vec::new();
            for op in &ops {
                match *op {
                    Op::Alloc(size) => {
                        if let Some(off) = alloc.alloc(size) {
                            live.push(off);
                        }
                    }
                    Op::Free(k) => {
                        if live.is_empty() { continue; }
                        let off = live.remove(k % live.len());
                        alloc.dealloc(off);
                    }
                }
            }
            for off in live {
                alloc.dealloc(off);
            }
            // MAX is the largest single request; all of them must fit back to
            // back, proving that every buddy pair merged back.
            let mut maximal = Vec::new();
            for _ in 0..TOTAL / MAX {
                let off = alloc.alloc(MAX);
                prop_assert!(off.is_some(), "{}: lost capacity after drain", alloc.name());
                maximal.push(off.unwrap());
            }
            for off in maximal {
                alloc.dealloc(off);
            }
        }
    }
}
