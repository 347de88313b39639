//! Model-checking configurations over the real trees.
//!
//! Only compiled under `--cfg nbbs_model`, which switches the shell's
//! `index[]` (`nbbs::tree`), both node stores (`nbbs::fourlvl`'s bunch
//! words, `nbbs::onelvl`'s status bytes) and the gauge's stripes onto the
//! shadow atomics, so every access to them becomes a scheduler yield point.
//! The configs are generic over the store; the four release races run on
//! the 4-level tree, release/release and release/allocate run on the
//! 1-level tree as well, and a scrub run's release racing an allocation
//! runs on both.
//!
//! ## Geometry
//!
//! All configs run on the **minimal one-boundary geometry**: 256 bytes
//! at 8-byte units, whole-region max — a depth-5 tree.  The bunches are
//! bottom-aligned (`nbbs::fourlvl`): the leaves (level 5) are stored eight
//! to a word in the bunches rooted at level 2 (words 0–3, the deepest
//! layer first), and levels 0–1 form the partial root bunch, word 4, which
//! stores nodes 2 and 3.  Buddy leaves 32 and 33 share bunch word 0 (root
//! node 4) with leaves 34–39, so a release of either exercises the
//! *intra-bunch* `subtree_slots_busy` aggregate against its sibling's slot
//! **and** crosses exactly one bunch boundary: the coalescing/occupancy
//! bits of node 2 (slot 0 of the root word) — the interplay the first
//! release/release bug lived in and the kind of boundary the residual
//! `OCC|COAL` stray bit was once observed on (ROADMAP).  The smaller depth-4 tree would also share leaves within a
//! word (eight per word under roots 2 and 3, below a root bunch of node 1
//! alone) and cross one boundary, but its root bunch is a single node;
//! depth 5 keeps the counts comparable with those taken on the root-aligned
//! layout, where depth 5 was the smallest tree whose leaves shared a word.
//! The allocation of `free-unmark-alloc` may land on leaf 34, which
//! shares the releases' word, so a release's `subtree_slots_busy` can see
//! it; the 64-byte block of `free-free-alloc64` lands on node 5, in the
//! other branch of node 2, unless both releases are done.  `scrub-alloc`
//! holds node 2 as a scrub run and node 3 as a live block, both in the
//! root word, and frees the run while a unit allocation scans the leaves
//! under both.  First-fit scanning keeps every run deterministic.
//!
//! Over the 1-level store the same geometry is a depth-5 tree of status
//! bytes: leaves 32 and 33 are the children of node 16, and a release that
//! finds its buddy free climbs the five ancestors 16, 8, 4, 2, 1 twice
//! (coalescing marks, then `UNMARK`), one load and one CAS per node.  Both
//! 2-thread spaces are explored exhaustively: release/release is 78
//! sleep-set-distinct schedules (the first releaser finds its buddy
//! occupied and stops at node 16, so the two climbs only meet there),
//! release/allocate 933 (the allocation's own five-node climb interleaves
//! with the release's two).  The scrub run's release is 23 schedules on
//! either tree: the drops conflict with the allocation only through the
//! published range, its section counter and the nodes under node 2.
//! Each safeguard of the node drop, left out, yields a replayable
//! witness.  Without the wait (schedule 29 on the 4-level tree, 32 on the
//! 1-level one), a scan whose leaf CAS the drop wiped climbs once the run
//! is free and is granted a leaf that reads free, or its rollback stops at
//! a wiped coalescing mark and leaves the marks above it.  Without the
//! published range (schedules 21 and 16), a scan that begins after the
//! wait writes under the run while its pages go, to the same effect.  A
//! drop of the held block's own bunch word (the root word, which the live
//! block shares) fails at schedule 1.
//!
//! ## What is checked after every complete schedule
//!
//! 1. the `nbbs::verify` audit against the exact expected live set
//!    (quiescent mode: stray occupancy *and* stray coalescing bits fail);
//! 2. an exact **free-bitmap oracle**: for every allocation unit, the
//!    tree's derived statuses must agree with the oracle bitmap recomputed
//!    from the live set;
//! 3. `allocated_bytes` equals the live sum (the gauge is a table of
//!    per-thread stripes, every one a shadow atomic labelled
//!    `allocated[i]`, so each thread's closing add or subtract is a step
//!    of the schedule and the sum is checked across stripes);
//! 4. a **stranded-capacity probe**: after draining the live set, a
//!    whole-region allocation must succeed — the residual race's symptom
//!    is precisely a stray boundary bit making this impossible.

use std::collections::BTreeMap;
use std::sync::Mutex;

use nbbs::status::OCC;
use nbbs::tree::{BuddyTree, NodeStore};
use nbbs::verify::audit;
use nbbs::{BuddyConfig, ScanPolicy};

use crate::Program;

/// Total bytes of the model geometry (depth-5 tree at 8-byte units:
/// leaves are stored eight per bunch word, so buddy releases interact both
/// inside their shared word and across the boundary into the root word).
pub const TOTAL: usize = 256;
/// Allocation-unit size.
pub const UNIT: usize = 8;

/// Per-run state: the tree plus one result cell per logical thread (each
/// thread only touches its own cell, so the mutexes are never contended
/// across a scheduler grant).
pub struct TreeState<S> {
    /// The real allocator, compiled onto shadow atomics.
    pub tree: BuddyTree<S>,
    /// `allocs[tid]` records the offset returned by thread `tid`'s
    /// allocation (if that thread allocates).
    pub allocs: Vec<Mutex<Option<Option<usize>>>>,
}

/// The minimal one-boundary tree, first-fit for determinism.
fn tiny_tree<S: NodeStore>() -> BuddyTree<S> {
    BuddyTree::new(
        BuddyConfig::new(TOTAL, UNIT, TOTAL)
            .expect("model geometry")
            .with_scan_policy(ScanPolicy::FirstFit),
    )
}

/// Builds the per-run state: `setup_allocs` unit chunks pre-allocated at
/// offsets 0, 8, … (first-fit guarantees the placement), unscheduled.
fn base_state<S: NodeStore>(setup_allocs: usize, threads: usize) -> TreeState<S> {
    let tree = tiny_tree();
    for i in 0..setup_allocs {
        let off = tree.alloc(UNIT).expect("setup alloc");
        assert_eq!(off, i * UNIT, "first-fit setup placement");
    }
    TreeState {
        tree,
        allocs: (0..threads).map(|_| Mutex::new(None)).collect(),
    }
}

/// Checks the quiescent final state against the expected live set
/// (`offset -> requested size`).
pub fn check_final<S: NodeStore>(
    state: &TreeState<S>,
    live: &BTreeMap<usize, usize>,
) -> Result<(), String> {
    let tree = &state.tree;
    let geo = *tree.geometry();

    // 1. The paper's safety properties, including stray occupancy and
    //    stray coalescing bits (quiescent audit).
    let report = audit(tree, live, true);
    if !report.is_clean() {
        return Err(format!("verify audit failed: {:?}", report.violations));
    }

    // 2. Exact free-bitmap oracle: unit-granular occupancy derived from the
    //    tree must equal the bitmap recomputed from the live set.
    for unit in 0..geo.unit_count() {
        let byte = unit * geo.min_size();
        let expected = live.iter().any(|(&off, &req)| {
            let granted = geo.granted_size(req).expect("live size validated by audit");
            off <= byte && byte < off + granted
        });
        let mut node = geo.leaf_of_offset(byte);
        let mut actual = false;
        loop {
            if tree.node_status(node) & OCC != 0 {
                actual = true;
                break;
            }
            if node <= 1 {
                break;
            }
            node >>= 1;
        }
        if expected != actual {
            return Err(format!(
                "free-bitmap mismatch at unit {unit}: oracle says {}, tree says {}",
                if expected { "allocated" } else { "free" },
                if actual { "allocated" } else { "free" },
            ));
        }
    }

    // 3. The byte counter agrees with the live set.
    let expected_bytes: usize = live
        .iter()
        .map(|(_, &req)| geo.granted_size(req).expect("validated"))
        .sum();
    if tree.allocated_bytes() != expected_bytes {
        return Err(format!(
            "allocated_bytes = {}, live set says {expected_bytes}",
            tree.allocated_bytes()
        ));
    }

    // 4. Stranded-capacity probe: drain the live set; full coalescing must
    //    make the whole region allocatable again.  A stray OCC|COAL
    //    boundary bit — the residual race's symptom — fails exactly here.
    for &off in live.keys() {
        tree.dealloc(off);
    }
    match tree.alloc(TOTAL) {
        Some(0) => Ok(()),
        other => Err(format!(
            "stranded capacity: whole-region alloc returned {other:?} after draining the live set"
        )),
    }
}

/// Two releases racing in one shared bunch word *and* over the shared
/// bunch boundary: thread 0 frees the chunk at offset 0 (leaf 32), thread
/// 1 frees offset 8 (leaf 33).  The two leaves are stored slots 0 and 1
/// of bunch word 0 (root 4), so each release's `subtree_slots_busy` check
/// aggregates over its sibling's in-flight state, and both climbs target
/// node 2's slot in the root bunch word.  This is the release/release
/// shape of the residual race (and of the fixed PR-1 bug).
pub fn free_free<S: NodeStore + 'static>() -> Program<TreeState<S>> {
    Program::new(
        || base_state(2, 2),
        |s: &TreeState<S>| check_final(s, &BTreeMap::new()),
    )
    .thread(|s: &TreeState<S>| s.tree.dealloc(0))
    .thread(|s: &TreeState<S>| s.tree.dealloc(UNIT))
    .labels(|s: &TreeState<S>| s.tree.model_addr_labels())
}

/// A release racing an allocation: thread 0 frees offset 0 while thread 1
/// allocates a unit chunk (taking leaf 32 or 33 depending on the
/// schedule).  Exercises `clean_coal` stealing the coalescing bit from the
/// in-flight release and the release's `is_coal` refusal in `unmark`.
pub fn free_alloc<S: NodeStore + 'static>() -> Program<TreeState<S>> {
    Program::new(
        || base_state(1, 2),
        |s: &TreeState<S>| {
            let r = s.allocs[1]
                .lock()
                .unwrap()
                .expect("thread 1 ran to completion");
            let off = r.ok_or("allocation failed although free leaves were always available")?;
            check_final(s, &BTreeMap::from([(off, UNIT)]))
        },
    )
    .thread(|s: &TreeState<S>| s.tree.dealloc(0))
    .thread(|s: &TreeState<S>| {
        let r = s.tree.alloc(UNIT);
        *s.allocs[1].lock().unwrap() = Some(r);
    })
    .labels(|s: &TreeState<S>| s.tree.model_addr_labels())
}

/// Both buddy releases (the second one's climb is dominated by its
/// `unmark` interplay with the first) racing a concurrent allocation that
/// can *reuse the first-freed leaf* — the 3-thread shape closest to the
/// soak workload that surfaced the stray bit, and the config that caught
/// the `unmark` exclusion bug (a releaser blind to the re-allocation of
/// its own freed slot consuming a sibling release's branch-granular
/// coalescing bit; see the fourlvl module docs).  Per-push CI runs it
/// under a preemption bound ([`crate::recommended_explorer`]); the exhaustive
/// space is 32,600 sleep-set-distinct schedules (~6 min in release on two
/// vCPUs, verified clean once after the fix and again on the striped
/// gauge, both on the root-aligned layout), the bound-3 space 31,038.
pub fn free_unmark_alloc<S: NodeStore + 'static>() -> Program<TreeState<S>> {
    Program::new(
        || base_state(2, 3),
        |s: &TreeState<S>| {
            let r = s.allocs[2]
                .lock()
                .unwrap()
                .expect("thread 2 ran to completion");
            let off = r.ok_or("allocation failed although free leaves were always available")?;
            check_final(s, &BTreeMap::from([(off, UNIT)]))
        },
    )
    .thread(|s: &TreeState<S>| s.tree.dealloc(0))
    .thread(|s: &TreeState<S>| s.tree.dealloc(UNIT))
    .thread(|s: &TreeState<S>| {
        let r = s.tree.alloc(UNIT);
        *s.allocs[2].lock().unwrap() = Some(r);
    })
    .labels(|s: &TreeState<S>| s.tree.model_addr_labels())
}

/// Both buddy releases racing the allocation of a 64-byte block (level 2,
/// a bunch root): while either leaf is still held the scan fails on node 4
/// and takes node 5, in the right branch of node 2, and only once both
/// releases have cleared their slots can it take node 4.  Unlike
/// `free_unmark_alloc`'s unit, which always lands in the releases' bunch
/// word, this allocation leaves the releases' branch to them in most
/// schedules, so the drain in [`check_final`] does not heal what they left
/// on node 2: a phase-1 early break (both releases stopping at each other's
/// busy slot, the first release race) strands node 2's left branch, and
/// this search
/// finds it within preemption bound 3.
pub fn free_free_alloc64<S: NodeStore + 'static>() -> Program<TreeState<S>> {
    Program::new(
        || base_state(2, 3),
        |s: &TreeState<S>| {
            let r = s.allocs[2]
                .lock()
                .unwrap()
                .expect("thread 2 ran to completion");
            let off = r.ok_or("allocation failed although free blocks were always available")?;
            check_final(s, &BTreeMap::from([(off, 8 * UNIT)]))
        },
    )
    .thread(|s: &TreeState<S>| s.tree.dealloc(0))
    .thread(|s: &TreeState<S>| s.tree.dealloc(UNIT))
    .thread(|s: &TreeState<S>| {
        let r = s.tree.alloc(8 * UNIT);
        *s.allocs[2].lock().unwrap() = Some(r);
    })
    .labels(|s: &TreeState<S>| s.tree.model_addr_labels())
}

/// The block the scrubber holds in `scrub_alloc`, and the live one beside
/// it: nodes 2 and 3, the two halves of the root bunch.
const HALF: usize = TOTAL / 2;

/// The scrubber's release of a run racing an allocation.  The setup
/// claims `(0, HALF)`, which thread 0 holds as a scrub run, and
/// `(HALF, HALF)`, a live block.  Thread 0 frees the run with
/// `free_scrub_run`: it drops the run's `index[]` entries (units 0–15),
/// publishes the run's range, waits out the allocation's section if it
/// began before, drops the node storage under node 2 (the leaf words 0
/// and 1 of the 4-level tree, the 30 status bytes of levels 2–5 of the
/// 1-level one), each drop one shadow store of 0 per element, and frees
/// node 2.  Thread 1 allocates a unit: its scan lands failing `TRYALLOC`s
/// under the run while it is held, skips it while its range is published,
/// and may take leaf 32 once it is free.  This checks the ground of both
/// drops (see [`BuddyTree::free_scrub_run`]).
pub fn scrub_alloc<S: NodeStore + 'static>() -> Program<TreeState<S>> {
    Program::new(
        || {
            let state = base_state(0, 2);
            assert!(state.tree.claim_block(0, HALF), "setup claim of the run");
            assert!(state.tree.claim_block(HALF, HALF), "setup live block");
            state
        },
        |s: &TreeState<S>| {
            let r = s.allocs[1]
                .lock()
                .unwrap()
                .expect("thread 1 ran to completion");
            let mut live = BTreeMap::from([(HALF, HALF)]);
            if let Some(off) = r {
                if off >= HALF {
                    return Err(format!("allocation at {off}, inside the live block"));
                }
                live.insert(off, UNIT);
            }
            check_final(s, &live)
        },
    )
    .thread(|s: &TreeState<S>| {
        s.tree.free_scrub_run(&[(0, HALF)]);
    })
    .thread(|s: &TreeState<S>| {
        let r = s.tree.alloc(UNIT);
        *s.allocs[1].lock().unwrap() = Some(r);
    })
    .labels(|s: &TreeState<S>| s.tree.model_addr_labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recommended_explorer, Explorer};
    use nbbs::fourlvl::BunchStore;
    use nbbs::onelvl::ByteStore;

    /// Floors asserted by CI so a pruning regression cannot silently empty
    /// the search (measured: free/free explores 88 sleep-set-distinct
    /// schedules, free/alloc 29, free/unmark/alloc 31,038 at sound
    /// preemption bound 3; anything far below says the explorer stopped
    /// exploring).  The two exhaustive counts are half of what they were
    /// while `allocated_bytes` was one word (176 / 58): each thread now
    /// ends on its own stripe of the gauge, the two closing RMWs are
    /// independent, and the sleep sets explore one of their two orders.
    /// Were two workers' ordinals to collide modulo the stripe count the
    /// run would explore both again, so the counts can only read higher.
    /// The bounded search does not prune: it counts every step, and grew
    /// from 19,414 when scans became sections of the tree's grace table.
    const FREE_FREE_MIN_SCHEDULES: u64 = 50;
    const FREE_ALLOC_MIN_SCHEDULES: u64 = 15;
    const FREE_UNMARK_ALLOC_MIN_SCHEDULES: u64 = 10_000;
    // The bounded search of free/free/alloc64: 30,542 measured.
    const FREE_FREE_ALLOC64_MIN_SCHEDULES: u64 = 10_000;
    // The 1-level tree over the same geometry: 78 and 933 measured.
    const ONE_LEVEL_FREE_FREE_MIN_SCHEDULES: u64 = 40;
    const ONE_LEVEL_FREE_ALLOC_MIN_SCHEDULES: u64 = 500;
    // A scrub run's release racing an allocation: 23 on either tree.
    const SCRUB_ALLOC_MIN_SCHEDULES: u64 = 12;

    fn run<S: NodeStore + 'static>(name: &str, prog: &Program<TreeState<S>>, floor: u64) {
        let report = recommended_explorer(prog.thread_count()).explore(prog);
        eprintln!(
            "model [{name}]: {} schedules explored ({} pruned, {} overflows, max depth {})",
            report.schedules, report.pruned_runs, report.overflows, report.max_depth
        );
        // A violation panics here with the replayable witness (choices +
        // rendered step trace).
        report.assert_clean();
        assert!(
            report.schedules >= floor,
            "[{name}] pruning regression: only {} schedules explored (floor {floor})",
            report.schedules
        );
        assert_eq!(report.overflows, 0, "[{name}] runs hit the step cap");
        assert!(!report.truncated, "[{name}] search truncated");
    }

    #[test]
    fn free_free_over_one_boundary_is_exhaustively_clean() {
        run(
            "free-free",
            &free_free::<BunchStore>(),
            FREE_FREE_MIN_SCHEDULES,
        );
    }

    #[test]
    fn free_alloc_over_one_boundary_is_exhaustively_clean() {
        run(
            "free-alloc",
            &free_alloc::<BunchStore>(),
            FREE_ALLOC_MIN_SCHEDULES,
        );
    }

    #[test]
    fn free_unmark_alloc_is_clean_within_preemption_bound() {
        run(
            "free-unmark-alloc",
            &free_unmark_alloc::<BunchStore>(),
            FREE_UNMARK_ALLOC_MIN_SCHEDULES,
        );
    }

    #[test]
    fn free_free_alloc64_is_clean_within_preemption_bound() {
        run(
            "free-free-alloc64",
            &free_free_alloc64::<BunchStore>(),
            FREE_FREE_ALLOC64_MIN_SCHEDULES,
        );
    }

    #[test]
    fn scrub_alloc_is_exhaustively_clean() {
        run(
            "scrub-alloc",
            &scrub_alloc::<BunchStore>(),
            SCRUB_ALLOC_MIN_SCHEDULES,
        );
        run(
            "1lvl-scrub-alloc",
            &scrub_alloc::<ByteStore>(),
            SCRUB_ALLOC_MIN_SCHEDULES,
        );
    }

    #[test]
    fn one_level_free_free_is_exhaustively_clean() {
        run(
            "1lvl-free-free",
            &free_free::<ByteStore>(),
            ONE_LEVEL_FREE_FREE_MIN_SCHEDULES,
        );
    }

    #[test]
    fn one_level_free_alloc_is_exhaustively_clean() {
        run(
            "1lvl-free-alloc",
            &free_alloc::<ByteStore>(),
            ONE_LEVEL_FREE_ALLOC_MIN_SCHEDULES,
        );
    }

    /// Cross-check of the sleep-set pruning: with pruning OFF the explorer
    /// walks every raw interleaving of the free/free space.  It must still
    /// be clean (pruning never hides a violation because equivalent traces
    /// share their final state) and must explore strictly more schedules
    /// than the pruned search.
    #[test]
    fn free_free_unpruned_cross_check() {
        let unpruned = Explorer {
            sleep_sets: false,
            ..Explorer::exhaustive()
        };
        let report = unpruned.explore(&free_free::<BunchStore>());
        eprintln!(
            "model [free-free, no pruning]: {} schedules explored",
            report.schedules
        );
        report.assert_clean();
        assert!(
            report.schedules > FREE_FREE_MIN_SCHEDULES,
            "unpruned search must dominate the pruned one ({})",
            report.schedules
        );
        assert_eq!(report.overflows, 0);
    }

    /// An injected mutation witness: if the final tree is *forced* dirty,
    /// the checker must produce a replayable witness rather than pass —
    /// guards the checking half the clean-pass tests cannot cover.
    #[test]
    fn injected_stray_bit_produces_a_replayable_witness() {
        // Same shape as free_free, but the check is handed a live set that
        // claims nothing was freed — every schedule must then fail the
        // audit, and the first witness must replay to the same failure.
        let prog = Program::new(
            || base_state::<BunchStore>(2, 2),
            |s: &TreeState<BunchStore>| {
                // Deliberately wrong oracle: claims offset 0 is still live.
                check_final(s, &BTreeMap::from([(0, UNIT)]))
            },
        )
        .thread(|s: &TreeState<BunchStore>| s.tree.dealloc(0))
        .thread(|s: &TreeState<BunchStore>| s.tree.dealloc(UNIT))
        .labels(|s: &TreeState<BunchStore>| s.tree.model_addr_labels());
        let explorer = Explorer::exhaustive();
        let report = explorer.explore(&prog);
        assert!(!report.is_clean(), "mutated oracle must be caught");
        let witness = &report.violations[0];
        assert!(
            witness.rendered_trace.contains("word[0]"),
            "trace labels bunch words:\n{}",
            witness.rendered_trace
        );
        let (_, result) = explorer.replay(&prog, &witness.choices);
        assert!(result.is_err(), "witness must replay to the same failure");
    }
}
