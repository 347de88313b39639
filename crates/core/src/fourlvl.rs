//! The 4-level optimized non-blocking buddy system (`4lvl-nb`, §III-D).
//!
//! Executing an atomic RMW instruction forces the core to take exclusive
//! ownership of the target cache line, so the number of CAS operations on the
//! critical path directly bounds scalability.  In the 1-level design an
//! allocation/release at depth `d` issues roughly `d - max_level` CAS
//! operations (one per traversed tree level).  The optimization packs a
//! *bunch* of four consecutive tree levels into a single 64-bit word so that
//! one CAS updates four levels at a time, cutting the RMW count by ~4×.
//!
//! ## Bunch representation
//!
//! A bunch rooted at a node of level `4k` covers levels `4k ..= min(4k+3, depth)`
//! — up to 15 nodes, of which only the (at most) 8 nodes of the *lowest*
//! covered level are physically stored, 5 status bits each (40 bits total) in
//! one `AtomicU64` (Figure 7).  The state of the internal in-bunch nodes is
//! *derived* from the stored ones (Figure 6):
//!
//! * a node's left/right **partial occupancy** is the OR of the occupancy
//!   bits of the stored nodes below that branch;
//! * a node's **full occupancy** is the AND of the `OCC` bits of the stored
//!   nodes below it;
//! * its **coalescing** bits are the OR of the coalescing bits below the
//!   respective branch.
//!
//! Consequently:
//!
//! * occupying a node that is *not* at its bunch's stored level writes `BUSY`
//!   into every stored node underneath it — still a single CAS;
//! * climbing past a bunch touches exactly one stored node of the parent
//!   bunch (the parent of the current bunch's root), i.e. one CAS every four
//!   levels;
//! * nothing is ever written for in-bunch internal nodes.
//!
//! The allocation/release logic is otherwise identical to
//! [`crate::onelvl::NbbsOneLevel`] (Algorithms 1–4), with the per-node CAS
//! replaced by a CAS over the containing 64-bit bunch word.
//!
//! ## Memory ordering
//!
//! Why is `AcqRel` on every CAS (with `Acquire` loads) sufficient?  The
//! argument is written against the step semantics of the `nbbs-model`
//! checker — one shared-memory access commits per scheduler step, i.e.
//! sequential consistency — and then closes the gap between
//! release/acquire and SC explicitly:
//!
//! 1. **Every status mutation is an RMW; there are no blind stores to
//!    bunch words.**  All writes in `try_alloc_node`, `free_node` and
//!    `unmark` are `compare_exchange(AcqRel, Acquire)` loops.  RMWs on one
//!    word are totally ordered (each reads the latest value in the word's
//!    modification order), so per word the metadata is a linearizable
//!    state machine: a CAS can never act on a stale snapshot — staleness
//!    makes it fail and retry.  The only plain store is the `index[]`
//!    publication after a successful allocation; it is `Release`, and it
//!    is read (`Acquire`) only on the free path of the same chunk, whose
//!    offset must have been handed from allocator to releaser through
//!    some external happens-before edge anyway (the same contract
//!    `dealloc` always had).
//!
//! 2. **Cross-word ordering comes from release/acquire transitivity along
//!    each climb.**  A release executes: coalescing-bit CAS on the parent
//!    boundary slot (phase 1), clear CAS on the chunk's own word (phase
//!    2), then the `unmark` climb (phase 3).  Each is sequenced after the
//!    previous on the releasing thread and each is `AcqRel`: any thread
//!    whose acquire operation observes a later write of that chain
//!    synchronizes-with it and therefore also observes every earlier
//!    write.  Concretely, an allocation that sees phase 2's cleared word
//!    (its `try_alloc_node` CAS succeeds from the all-clear state) is
//!    guaranteed to see phase 1's coalescing bit when it climbs to the
//!    parent — which is exactly what `clean_coal` relies on to revoke the
//!    in-flight release.
//!
//! 3. **Decision loads are validated by a gating CAS, so
//!    RA-weaker-than-SC behaviours cannot commit a wrong transition.**
//!    Release/acquire admits store-buffering-like outcomes that SC
//!    forbids, but only for *plain* loads racing writes on different
//!    words.  The algorithm has two such decision loads: the level scan's
//!    is-free check (`node_is_free`) and the release climb's
//!    `subtree_slots_busy`.  Both are advisory: the scan's verdict is
//!    re-validated atomically by the `try_alloc_node` CAS (which requires
//!    the *entire* slot range clear at commit time), and
//!    `subtree_slots_busy`'s verdict is gated by the `is_coal` check
//!    inside `unmark`'s CAS loop on the parent word — if any interfering
//!    allocation got there first, its `clean_coal` makes the gate fail
//!    and the climb aborts.  A stale read therefore causes at worst a
//!    conservative refusal (the branch bit is cleared by the *last*
//!    releaser instead, whose gate CAS serializes against the
//!    interference), never a lost or duplicated chunk.
//!
//! The gate in (3) is load-bearing and subtle: the coalescing bit on a
//! bunch boundary is **branch-granular, not per-releaser** — two releases
//! climbing out of the same bunch share it, so a releaser can pass the
//! gate on a sibling's coalescing bit.  That is sound *only* because
//! `subtree_slots_busy` inspects the whole bunch, including the slots the
//! releaser itself freed in phase 2: an earlier version excluded the
//! freed node's own slot range and was blind to its re-allocation — the
//! `nbbs-model` checker found a 3-thread schedule (release/release of two
//! buddies racing an allocation that reuses the first-freed leaf) where
//! the first releaser consumed the second's coalescing bit and cleared
//! the ancestor's branch-occupancy bit under a live chunk, leaving the
//! chunk's ancestors readable as free (overlap hazard; quiescent echo: a
//! stray `OCC|COAL` boundary bit — the ROADMAP's residual-race symptom).
//!
//! The allocated-bytes gauge is `Relaxed` and outside the protocol: no
//! decision reads it, it publishes nothing, and each thread adds to and
//! subtracts from its own padded stripe (`gauge.rs`), so the last
//! step of an operation touches no line another thread writes.
//! `allocated_bytes()` sums the stripes and is exact at quiescence;
//! mid-flight it may meet a remote free before the allocation it cancels,
//! which is why the sum is read as signed and clamped at 0.
//!
//! Under `--cfg nbbs_model` the atomics below become shadow atomics and
//! the `nbbs-model` crate enumerates every SC interleaving of these
//! accesses for 2–3 threads over the minimal non-degenerate geometry (two
//! leaves sharing a bunch word, one boundary into the root word):
//! release/release and release/allocate are exhaustively clean (88 / 29
//! sleep-set-distinct schedules; pruning cross-validated by a 36,300-run
//! unpruned sweep), and release/release/allocate is clean exhaustively
//! (32,600 sleep-set-distinct schedules, one-time run) and under a sound
//! preemption-bound-3 search (19,864 schedules, no pruning) on every push
//! — while the same bounded search run against either historical bug (the
//! PR-1 early-break or the `unmark` exclusion) produces a replayable
//! witness within the first ~1,300 schedules.  (While the gauge was one
//! word the three pruned counts read 176, 58 and 195,600: every thread's
//! closing RMW then conflicted with every other's, and the sleep sets had
//! to explore all 2! or 3! orders of them.  On stripes of their own they
//! are independent and one order stands for all; the unpruned and the
//! bounded counts, which do not look at addresses, did not move.)

// Under `--cfg nbbs_model` every atomic the algorithm touches becomes a
// *shadow* atomic (same API, every access a scheduler yield point) so the
// `nbbs-model` crate can enumerate interleavings of the CAS climbs below.
// The default build aliases the very same names to `std::sync::atomic`:
// type aliases only, zero cost in production.
#[cfg(nbbs_model)]
use nbbs_sync::shadow::{AtomicU32, AtomicU64};
use std::sync::atomic::Ordering;
#[cfg(not(nbbs_model))]
use std::sync::atomic::{AtomicU32, AtomicU64};

use crate::config::{BuddyConfig, ScanPolicy};
use crate::error::FreeError;
use crate::gauge::ByteGauge;
use crate::geometry::Geometry;
use crate::stats::{OpStats, OpStatsSnapshot};
use crate::status::{
    clean_coal, is_coal, is_coal_buddy, is_occ_buddy, mark, unmark, BUSY, COAL_LEFT, COAL_RIGHT,
    OCC, OCC_LEFT, OCC_RIGHT, STATUS_BITS, STATUS_MASK,
};
use crate::traits::{BuddyBackend, TreeInspect};

/// Number of tree levels folded into one bunch word.
pub const BUNCH_LEVELS: u32 = 4;

/// Per-tree-level constants used by [`BunchGeometry::locate`].
///
/// `locate` sits on the allocator's hottest path (one call per candidate node
/// inspected by the level scan), so everything derivable from the level alone
/// is precomputed once at construction time.
#[derive(Debug, Clone, Copy)]
struct LevelParams {
    /// In-bunch depth of the level (`level % 4`): shift from a node to its
    /// bunch root.
    to_root: u32,
    /// Shift from a node to its first stored descendant (`floor - level`).
    span: u32,
    /// Shift from the bunch root to the stored level (`floor - root_level`).
    root_to_floor: u32,
    /// `word_offset[root_level / 4] - 2^root_level`, so that the word index
    /// of a bunch root `r` is simply `word_base + r`.
    word_base: isize,
}

/// Geometry extension mapping tree nodes to bunch words and slots.
///
/// A *slot* is the position (0..8) of a stored node inside its bunch word;
/// slot `j` occupies bits `[5j, 5j+5)` of the word.
#[derive(Debug, Clone)]
pub struct BunchGeometry {
    geo: Geometry,
    /// `word_offset[k]` = index of the first word of bunches rooted at level `4k`.
    word_offset: Vec<usize>,
    /// Total number of bunch words.
    word_count: usize,
    /// Precomputed per-level constants, indexed by tree level.
    levels: Vec<LevelParams>,
}

impl BunchGeometry {
    /// Builds the bunch layout for the given tree geometry.
    pub fn new(geo: Geometry) -> Self {
        let mut word_offset = Vec::new();
        let mut acc = 0usize;
        let mut root_level = 0u32;
        while root_level <= geo.depth() {
            word_offset.push(acc);
            acc += 1usize << root_level;
            root_level += BUNCH_LEVELS;
        }
        let levels = (0..=geo.depth())
            .map(|level| {
                let to_root = level % BUNCH_LEVELS;
                let root_level = level - to_root;
                let floor = (root_level + BUNCH_LEVELS - 1).min(geo.depth());
                LevelParams {
                    to_root,
                    span: floor - level,
                    root_to_floor: floor - root_level,
                    word_base: word_offset[(root_level / BUNCH_LEVELS) as usize] as isize
                        - (1isize << root_level),
                }
            })
            .collect();
        BunchGeometry {
            geo,
            word_offset,
            word_count: acc,
            levels,
        }
    }

    /// The underlying tree geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Total number of 64-bit bunch words required.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.word_count
    }

    /// Level of the root of the bunch containing a node at `level`.
    #[inline]
    pub fn bunch_root_level(&self, level: u32) -> u32 {
        level - (level % BUNCH_LEVELS)
    }

    /// Root node of the bunch containing node `n`.
    #[inline]
    pub fn bunch_root(&self, n: usize) -> usize {
        let level = self.geo.level_of(n);
        n >> (level % BUNCH_LEVELS)
    }

    /// Level whose nodes are physically stored for the bunch rooted at
    /// `root_level` (the bunch's lowest covered level).
    #[inline]
    pub fn floor_level(&self, root_level: u32) -> u32 {
        (root_level + BUNCH_LEVELS - 1).min(self.geo.depth())
    }

    /// Index of the bunch word for the bunch rooted at node `root`.
    #[inline]
    pub fn word_of_root(&self, root: usize) -> usize {
        let root_level = self.geo.level_of(root);
        debug_assert_eq!(
            root_level % BUNCH_LEVELS,
            0,
            "node {root} is not a bunch root"
        );
        self.word_offset[(root_level / BUNCH_LEVELS) as usize] + (root - (1usize << root_level))
    }

    /// Location of node `n` inside its bunch: `(word index, first slot,
    /// number of slots)`.
    ///
    /// For a node at its bunch's stored level the width is 1; for a node
    /// higher in the bunch the range covers all stored nodes underneath it.
    #[inline]
    pub fn locate(&self, n: usize) -> (usize, u32, u32) {
        let level = self.geo.level_of(n);
        let p = self.levels[level as usize];
        let root = n >> p.to_root;
        let slot = ((n << p.span) - (root << p.root_to_floor)) as u32;
        let word = (p.word_base + root as isize) as usize;
        debug_assert_eq!(word, self.word_of_root(root));
        (word, slot, 1u32 << p.span)
    }
}

/// Extracts the 5-bit status of `slot` from a bunch word.
#[inline(always)]
fn get_slot(word: u64, slot: u32) -> u8 {
    ((word >> (slot * STATUS_BITS)) & STATUS_MASK as u64) as u8
}

/// Returns `word` with `slot` replaced by `status`.
#[inline(always)]
fn set_slot(word: u64, slot: u32, status: u8) -> u64 {
    let shift = slot * STATUS_BITS;
    (word & !((STATUS_MASK as u64) << shift)) | ((status as u64) << shift)
}

/// Are all `width` slots starting at `slot` completely clear (all five bits)?
#[inline(always)]
fn slots_all_clear(word: u64, slot: u32, width: u32) -> bool {
    let mask = range_mask(slot, width);
    word & mask == 0
}

/// Do any of the `width` slots starting at `slot` carry a BUSY bit?
#[inline(always)]
fn slots_any_busy(word: u64, slot: u32, width: u32) -> bool {
    let busy_mask = spread(BUSY, slot, width);
    word & busy_mask != 0
}

/// Mask covering all bits of `width` slots starting at `slot`.
#[inline(always)]
fn range_mask(slot: u32, width: u32) -> u64 {
    spread(STATUS_MASK, slot, width)
}

/// Replicates `pattern` (a 5-bit value) across `width` slots starting at `slot`.
#[inline(always)]
fn spread(pattern: u8, slot: u32, width: u32) -> u64 {
    // REP[w] has a 1 in bit 5*i for every i < w, so multiplying by the
    // pattern replicates it across the w slots without a loop (this helper
    // runs once per candidate node inspected by the level scan).
    const REP: [u64; 9] = [
        0,
        0x0000000001,
        0x0000000021,
        0x0000000421,
        0x0000008421,
        0x0000108421,
        0x0002108421,
        0x0042108421,
        0x0842108421,
    ];
    (pattern as u64 * REP[width as usize]) << (slot * STATUS_BITS)
}

use crate::onelvl::scan_cursor;

/// The 4-level optimized non-blocking buddy allocator.
pub struct NbbsFourLevel {
    bgeo: BunchGeometry,
    scan_policy: ScanPolicy,
    /// One 64-bit word per bunch; bits `[5j, 5j+5)` hold the status of the
    /// bunch's `j`-th stored node.
    words: Box<[AtomicU64]>,
    /// Same role as the 1-level `index[]`.
    index: Box<[AtomicU32]>,
    /// Bytes currently handed out (granted sizes), counted per thread so
    /// the last step of an operation stays on the caller's own line.
    allocated: ByteGauge,
    stats: OpStats,
}

impl NbbsFourLevel {
    /// Creates an allocator for the given configuration.
    pub fn new(config: BuddyConfig) -> Self {
        let geo = Geometry::new(&config);
        let bgeo = BunchGeometry::new(geo);
        let words = (0..bgeo.word_count()).map(|_| AtomicU64::new(0)).collect();
        let index = (0..geo.unit_count()).map(|_| AtomicU32::new(0)).collect();
        NbbsFourLevel {
            bgeo,
            scan_policy: config.scan_policy(),
            words,
            index,
            allocated: ByteGauge::new(),
            stats: OpStats::new(),
        }
    }

    /// The allocator's geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        self.bgeo.geometry()
    }

    /// The bunch layout (exposed for diagnostics and white-box tests).
    #[inline]
    pub fn bunch_geometry(&self) -> &BunchGeometry {
        &self.bgeo
    }

    /// Allocates at least `size` bytes, returning the chunk's byte offset.
    pub fn alloc(&self, size: usize) -> Option<usize> {
        let level = self.geometry().target_level(size)?;
        self.alloc_at_level(level)
    }

    /// Allocates one chunk of the order associated with `level`
    /// (`max_level <= level <= depth`).
    pub fn alloc_at_level(&self, level: u32) -> Option<usize> {
        let geo = *self.geometry();
        debug_assert!(level >= geo.max_level() && level <= geo.depth());
        let first = geo.first_node_of_level(level);
        let count = geo.nodes_at_level(level);
        let start = match self.scan_policy {
            ScanPolicy::FirstFit => first,
            ScanPolicy::Scattered => first + (scan_cursor::get() % count),
        };
        if let Some(offset) = self.scan_range(level, start, first + count) {
            return Some(offset);
        }
        if start > first {
            if let Some(offset) = self.scan_range(level, first, start) {
                return Some(offset);
            }
        }
        self.stats.record_failed_alloc(1);
        None
    }

    /// Claims the *specific* block `[offset, offset + size)` — the targeted
    /// form of [`NbbsFourLevel::alloc_at_level`] the decommit scrubber uses
    /// to take ownership of a block the occupancy walk reported free.  See
    /// the 1-level twin for the contract; the claim rides the same
    /// bunch-word CAS protocol as allocation, so a stale target fails
    /// rather than racing a live chunk.
    pub fn claim_block(&self, offset: usize, size: usize) -> bool {
        let geo = *self.geometry();
        let Some(level) = geo.target_level(size) else {
            return false;
        };
        if geo.size_of_level(level) != size
            || !offset.is_multiple_of(size)
            || offset + size > geo.total_memory()
        {
            return false;
        }
        let n = geo.node_at(level, offset / size);
        if self.try_alloc_node(n).is_err() {
            return false;
        }
        self.index[geo.unit_of_offset(offset)].store(n as u32, Ordering::Release);
        self.allocated.add(size);
        self.stats.record_alloc(1);
        true
    }

    fn scan_range(&self, level: u32, from: usize, to: usize) -> Option<usize> {
        let geo = *self.geometry();
        let mut i = from;
        while i < to {
            if self.node_is_free(i) {
                match self.try_alloc_node(i) {
                    Ok(()) => {
                        let offset = geo.offset_of(i);
                        self.index[geo.unit_of_offset(offset)].store(i as u32, Ordering::Release);
                        let granted = geo.size_of_level(level);
                        self.allocated.add(granted);
                        self.stats.record_alloc(1);
                        if self.scan_policy == ScanPolicy::Scattered {
                            scan_cursor::advance_past(i);
                        }
                        return Some(offset);
                    }
                    Err(failed_at) => {
                        self.stats.record_skip(1);
                        let d = 1usize << (level - geo.level_of(failed_at));
                        i = (failed_at + 1) * d;
                        continue;
                    }
                }
            } else {
                self.stats.record_skip(1);
            }
            i += 1;
        }
        None
    }

    /// Is node `n` free according to the derived bunch state?
    fn node_is_free(&self, n: usize) -> bool {
        let (w, slot, width) = self.bgeo.locate(n);
        let word = self.words[w].load(Ordering::Acquire);
        !slots_any_busy(word, slot, width)
    }

    /// Do the stored slots under `subtree_root` contain any busy bit?
    ///
    /// This is the bunch-granular aggregate of the per-level buddy checks the
    /// 1-level algorithm performs while climbing inside the four levels
    /// folded into one word: a release may propagate past `subtree_root` only
    /// if nothing inside its bunch is occupied.
    ///
    /// Deliberately **no exclusion** of the releasing thread's own node: by
    /// the time `unmark` runs, phase 2 has already cleared that node's
    /// slots, so a busy bit there means the node was *re-allocated* by a
    /// concurrent `try_alloc_node` — exactly the case in which the climb
    /// must stop.  An earlier version excluded the freed node's slot range
    /// and was blind to that reuse: with two releases sharing the
    /// branch-granular coalescing bit on the bunch boundary, the first
    /// releaser could consume the second's coalescing bit and clear the
    /// ancestor's branch-occupancy bit while the re-allocated chunk was
    /// live — leaving a live chunk under ancestors that read free (found
    /// by the `nbbs-model` checker's free/free/alloc config; see the
    /// memory-ordering argument in the module docs).
    fn subtree_slots_busy(&self, subtree_root: usize) -> bool {
        !self.node_is_free(subtree_root)
    }

    /// `TRYALLOC`, bunch edition: occupy node `n` (writing BUSY into every
    /// stored node below it, one CAS) and propagate partial occupancy across
    /// the ancestor bunches up to `max_level`.
    fn try_alloc_node(&self, n: usize) -> Result<(), usize> {
        let geo = *self.geometry();
        let (w, slot, width) = self.bgeo.locate(n);
        let occupied_pattern = spread(BUSY, slot, width);
        loop {
            let cur = self.words[w].load(Ordering::Acquire);
            if !slots_all_clear(cur, slot, width) {
                // The node (or one of the stored nodes it covers) is busy or
                // in a transient coalescing state: conflict on `n` itself.
                return Err(n);
            }
            let new = cur | occupied_pattern;
            self.stats.record_cas(1);
            if self.words[w]
                .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
            self.stats.record_cas_failure(1);
            self.stats
                .record_cas_failure_at(geo.level_of(n) as usize, 1);
            // The CAS may have failed because an unrelated slot of the same
            // word changed; re-evaluate from the top.
        }

        // Climb across bunch boundaries: one stored node (one CAS) per
        // ancestor bunch, exactly the factor-4 reduction of §III-D.
        let max_level = geo.max_level();
        let mut child_root = self.bgeo.bunch_root(n);
        while child_root > 1 && geo.level_of(child_root) > max_level {
            let parent_node = child_root >> 1;
            let (pw, pslot, pwidth) = self.bgeo.locate(parent_node);
            debug_assert_eq!(pwidth, 1, "parent of a bunch root is a stored node");
            loop {
                let cur = self.words[pw].load(Ordering::Acquire);
                let status = get_slot(cur, pslot);
                if status & OCC != 0 {
                    // A concurrent allocation owns this whole chunk.
                    self.free_node(n, geo.level_of(child_root));
                    return Err(parent_node);
                }
                let new_status = mark(clean_coal(status, child_root), child_root);
                let new = set_slot(cur, pslot, new_status);
                self.stats.record_cas(1);
                if self.words[pw]
                    .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
                self.stats.record_cas_failure(1);
                self.stats
                    .record_cas_failure_at(geo.level_of(parent_node) as usize, 1);
            }
            child_root = self.bgeo.bunch_root(parent_node);
        }
        Ok(())
    }

    /// Releases the chunk starting at byte `offset` (the paper's `NBFREE`).
    pub fn dealloc(&self, offset: usize) {
        let geo = *self.geometry();
        let unit = geo.unit_of_offset(offset);
        let n = self.index[unit].load(Ordering::Acquire) as usize;
        debug_assert!(n >= 1, "dealloc of never-allocated offset {offset}");
        let granted = geo.size_of(n);
        self.free_node(n, geo.max_level());
        self.allocated.sub(granted);
        self.stats.record_free(1);
    }

    /// `FREENODE`, bunch edition.
    fn free_node(&self, n: usize, upper_level: u32) {
        let geo = *self.geometry();

        // Phase 1: mark the coalescing bit of the traversed branch on the
        // stored path node of every ancestor bunch, stopping early only when
        // the buddy branch at the stored path node is occupied and not itself
        // coalescing (the 1-level algorithm's break condition).
        //
        // Unlike `unmark`, this climb must NOT break early when other slots
        // of the bunch being left are busy: those slots may belong to a
        // concurrent release that has not yet cleared them (phase 2 of that
        // release is still in flight), and in-bunch slots carry no "being
        // freed" marker the way stored parent slots carry coalescing bits.
        // If both racing releases broke here, neither would ever set the
        // coalescing bit on the shared ancestor boundary, and the last
        // `unmark` to find the bunch empty would refuse to clear the
        // ancestor's branch-occupancy bit (its `is_coal` gate fails) —
        // permanently stranding capacity above the bunch.  The coalescing
        // bits written by an over-long climb are cheap and self-healing: a
        // racing allocation clears them with `clean_coal`, and the final
        // release's `unmark` clears them together with the occupancy bits.
        let mut child_root = self.bgeo.bunch_root(n);
        while child_root > 1 && geo.level_of(child_root) > upper_level {
            let parent_node = child_root >> 1;
            let (pw, pslot, _) = self.bgeo.locate(parent_node);
            let coal_bit = COAL_LEFT >> ((child_root & 1) as u8);
            let old_status;
            loop {
                let cur = self.words[pw].load(Ordering::Acquire);
                let status = get_slot(cur, pslot);
                let new = set_slot(cur, pslot, status | coal_bit);
                self.stats.record_cas(1);
                if self.words[pw]
                    .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    old_status = status;
                    break;
                }
                self.stats.record_cas_failure(1);
                self.stats
                    .record_cas_failure_at(geo.level_of(parent_node) as usize, 1);
            }
            if is_occ_buddy(old_status, child_root) && !is_coal_buddy(old_status, child_root) {
                break;
            }
            child_root = self.bgeo.bunch_root(parent_node);
        }

        // Phase 2: clear every stored node covered by `n` (single CAS loop on
        // the bunch word; other slots of the word must be preserved).
        let (w, slot, width) = self.bgeo.locate(n);
        let mask = range_mask(slot, width);
        loop {
            let cur = self.words[w].load(Ordering::Acquire);
            let new = cur & !mask;
            if cur == new {
                break;
            }
            self.stats.record_cas(1);
            if self.words[w]
                .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
            self.stats.record_cas_failure(1);
            self.stats
                .record_cas_failure_at(geo.level_of(n) as usize, 1);
        }

        // Phase 3: propagate the release across the ancestor bunches.
        if self.bgeo.bunch_root(n) > 1 && geo.level_of(self.bgeo.bunch_root(n)) > upper_level {
            self.unmark(n, upper_level);
        }
    }

    /// `UNMARK`, bunch edition.
    ///
    /// The release may clear a stored ancestor's branch-occupancy bit only if
    /// nothing remains allocated inside the bunch it is climbing out of
    /// ([`Self::subtree_slots_busy`] aggregates the per-level buddy checks
    /// of the 1-level algorithm; the releasing thread's own slots were
    /// cleared by phase 2, so a busy bit anywhere — including where the
    /// freed chunk used to live — denotes a live allocation and stops the
    /// climb) and the coalescing bit set by [`Self::free_node`] is still in
    /// place (otherwise a concurrent allocation has already reused the
    /// branch).
    fn unmark(&self, n: usize, upper_level: u32) {
        let geo = *self.geometry();
        let mut child_root = self.bgeo.bunch_root(n);
        while child_root > 1 && geo.level_of(child_root) > upper_level {
            if self.subtree_slots_busy(child_root) {
                return;
            }
            let parent_node = child_root >> 1;
            let (pw, pslot, _) = self.bgeo.locate(parent_node);
            let new_status;
            loop {
                let cur = self.words[pw].load(Ordering::Acquire);
                let status = get_slot(cur, pslot);
                if !is_coal(status, child_root) {
                    // Someone reused (or already cleaned) this branch.
                    return;
                }
                let candidate = unmark(status, child_root);
                let new = set_slot(cur, pslot, candidate);
                self.stats.record_cas(1);
                if self.words[pw]
                    .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    new_status = candidate;
                    break;
                }
                self.stats.record_cas_failure(1);
                self.stats
                    .record_cas_failure_at(geo.level_of(parent_node) as usize, 1);
            }
            if is_occ_buddy(new_status, child_root) {
                return;
            }
            child_root = self.bgeo.bunch_root(parent_node);
        }
    }

    /// Bytes currently handed out.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.read()
    }

    /// Derived 5-bit status of node `n` (Figure 6), for tests/verification.
    pub fn node_status(&self, n: usize) -> u8 {
        let geo = *self.geometry();
        let (w, slot, width) = self.bgeo.locate(n);
        let word = self.words[w].load(Ordering::Acquire);
        if width == 1 {
            return get_slot(word, slot);
        }
        // Derive from the stored nodes under each branch.
        let half = width / 2;
        let mut left_busy = false;
        let mut left_coal = false;
        let mut right_busy = false;
        let mut right_coal = false;
        let mut all_occ = true;
        for i in 0..width {
            let s = get_slot(word, slot + i);
            let busy = s & BUSY != 0;
            let coal = s & (COAL_LEFT | COAL_RIGHT) != 0;
            if i < half {
                left_busy |= busy;
                left_coal |= coal;
            } else {
                right_busy |= busy;
                right_coal |= coal;
            }
            all_occ &= s & OCC != 0;
        }
        // A node below the leaf level of the *tree* can only be fully
        // occupied when it was allocated directly, in which case every stored
        // node carries OCC; partial occupancy comes from either branch.
        let mut status = 0u8;
        if left_busy {
            status |= OCC_LEFT;
        }
        if right_busy {
            status |= OCC_RIGHT;
        }
        if left_coal {
            status |= COAL_LEFT;
        }
        if right_coal {
            status |= COAL_RIGHT;
        }
        if all_occ {
            status |= OCC;
        }
        let _ = geo;
        status
    }

    /// Operation statistics (zeros unless the `op-stats` feature is on).
    pub fn op_stats(&self) -> OpStatsSnapshot {
        self.stats.snapshot()
    }

    /// Labels for every shadow-atomic cell of this instance, as
    /// `(address, label)` pairs — used by the `nbbs-model` crate to print
    /// schedule witnesses in terms of bunch words (`word[w]@Lk`), `index[]`
    /// entries and the allocated-bytes stripes (`allocated[i]`) instead of
    /// raw addresses.
    ///
    /// Only exists under `--cfg nbbs_model`; the addresses are those the
    /// shadow scheduler observes at yield points.
    #[cfg(nbbs_model)]
    pub fn model_addr_labels(&self) -> Vec<(usize, String)> {
        let mut labels: Vec<_> = self.allocated.model_addr_labels().collect();
        for (w, word) in self.words.iter().enumerate() {
            // Recover the root level of the bunch this word belongs to so
            // the label shows which tree levels a CAS on it covers.
            let bucket = self
                .bgeo
                .word_offset
                .iter()
                .rposition(|&off| off <= w)
                .unwrap_or(0);
            let root_level = bucket as u32 * BUNCH_LEVELS;
            labels.push((
                word.model_addr(),
                format!(
                    "word[{w}]@L{root_level}..{}",
                    self.bgeo.floor_level(root_level)
                ),
            ));
        }
        for (u, cell) in self.index.iter().enumerate() {
            labels.push((cell.model_addr(), format!("index[{u}]")));
        }
        labels
    }
}

impl BuddyBackend for NbbsFourLevel {
    fn name(&self) -> &'static str {
        "4lvl-nb"
    }

    fn geometry(&self) -> &Geometry {
        self.bgeo.geometry()
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        NbbsFourLevel::alloc(self, size)
    }

    fn dealloc(&self, offset: usize) {
        NbbsFourLevel::dealloc(self, offset)
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        let geo = *self.geometry();
        if offset >= geo.total_memory() {
            return Err(FreeError::OutOfRange {
                offset,
                total_memory: geo.total_memory(),
            });
        }
        if !offset.is_multiple_of(geo.min_size()) {
            return Err(FreeError::Misaligned {
                offset,
                min_size: geo.min_size(),
            });
        }
        let unit = geo.unit_of_offset(offset);
        let n = self.index[unit].load(Ordering::Acquire) as usize;
        if n == 0 || self.node_status(n) & OCC == 0 {
            return Err(FreeError::NotAllocated { offset });
        }
        NbbsFourLevel::dealloc(self, offset);
        Ok(())
    }

    fn allocated_bytes(&self) -> usize {
        NbbsFourLevel::allocated_bytes(self)
    }

    fn stats(&self) -> OpStatsSnapshot {
        self.stats.snapshot()
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        let geo = *self.geometry();
        if offset >= geo.total_memory() || !offset.is_multiple_of(geo.min_size()) {
            return None;
        }
        let unit = geo.unit_of_offset(offset);
        let n = self.index[unit].load(Ordering::Acquire) as usize;
        if n == 0 || geo.offset_of(n) != offset || self.node_status(n) & OCC == 0 {
            return None;
        }
        Some(geo.size_of(n))
    }

    fn occupancy(&self) -> Option<crate::occupancy::OccupancySnapshot> {
        Some(crate::occupancy::occupancy_of(self))
    }

    fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>> {
        Some(crate::occupancy::free_chunks_of(self, min_size))
    }

    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        self.claim_block(offset, size)
    }
}

impl TreeInspect for NbbsFourLevel {
    fn inspect_geometry(&self) -> &Geometry {
        self.bgeo.geometry()
    }

    fn node_status(&self, n: usize) -> u8 {
        NbbsFourLevel::node_status(self, n)
    }

    fn recorded_node_of_unit(&self, unit: usize) -> Option<usize> {
        let v = self.index[unit].load(Ordering::Acquire) as usize;
        if v == 0 {
            None
        } else {
            Some(v)
        }
    }
}

impl std::fmt::Debug for NbbsFourLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NbbsFourLevel")
            .field("total_memory", &self.geometry().total_memory())
            .field("min_size", &self.geometry().min_size())
            .field("max_size", &self.geometry().max_size())
            .field("bunch_words", &self.bgeo.word_count())
            .field("allocated_bytes", &self.allocated_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn buddy(total: usize, min: usize, max: usize) -> NbbsFourLevel {
        NbbsFourLevel::new(BuddyConfig::new(total, min, max).unwrap())
    }

    #[test]
    fn claim_block_targets_specific_free_blocks() {
        let b = buddy(1 << 16, 64, 1 << 12);
        assert!(b.claim_block(2 << 12, 1 << 12));
        assert!(!b.claim_block(2 << 12, 1 << 12), "double claim refused");
        assert!(!b.claim_block(2 << 12, 64), "overlap refused");
        assert!(b.claim_block(0, 64), "leaf-sized claim works");
        b.dealloc(0);
        b.dealloc(2 << 12);
        let held = b.alloc(4096).unwrap();
        let snap = BuddyBackend::occupancy(&b).unwrap();
        for &(off, size) in &snap.free_chunks {
            assert!(b.scrub_claim(off, size), "chunk ({off}, {size})");
        }
        assert_eq!(b.allocated_bytes(), 1 << 16);
        for &(off, _) in &snap.free_chunks {
            b.dealloc(off);
        }
        b.dealloc(held);
        assert_eq!(b.allocated_bytes(), 0);
    }

    fn buddy_first_fit(total: usize, min: usize, max: usize) -> NbbsFourLevel {
        NbbsFourLevel::new(
            BuddyConfig::new(total, min, max)
                .unwrap()
                .with_scan_policy(ScanPolicy::FirstFit),
        )
    }

    /// Asserts that every bunch word of the allocator is zero.
    fn assert_clean(b: &NbbsFourLevel) {
        for (i, w) in b.words.iter().enumerate() {
            assert_eq!(w.load(Ordering::Acquire), 0, "bunch word {i} not clean");
        }
    }

    mod slot_ops {
        use super::*;

        #[test]
        fn get_set_round_trip() {
            let mut word = 0u64;
            for slot in 0..8 {
                word = set_slot(word, slot, (slot as u8 + 1) & STATUS_MASK);
            }
            for slot in 0..8 {
                assert_eq!(get_slot(word, slot), (slot as u8 + 1) & STATUS_MASK);
            }
            // Overwrite one slot; the others are untouched.
            word = set_slot(word, 3, 0);
            assert_eq!(get_slot(word, 3), 0);
            assert_eq!(get_slot(word, 2), 3);
            assert_eq!(get_slot(word, 4), 5);
        }

        #[test]
        fn clear_and_busy_predicates() {
            let word = set_slot(set_slot(0, 2, BUSY), 5, COAL_LEFT);
            assert!(!slots_all_clear(word, 2, 1));
            assert!(!slots_all_clear(word, 5, 1)); // coal bit counts as not clear
            assert!(slots_all_clear(word, 0, 2));
            assert!(slots_any_busy(word, 0, 8));
            assert!(slots_any_busy(word, 2, 1));
            assert!(!slots_any_busy(word, 5, 1)); // coal alone is not busy
            assert!(!slots_any_busy(word, 0, 2));
        }

        #[test]
        fn spread_replicates_pattern() {
            let v = spread(BUSY, 1, 3);
            assert_eq!(get_slot(v, 0), 0);
            assert_eq!(get_slot(v, 1), BUSY);
            assert_eq!(get_slot(v, 2), BUSY);
            assert_eq!(get_slot(v, 3), BUSY);
            assert_eq!(get_slot(v, 4), 0);
        }

        #[test]
        fn forty_bits_fit_in_a_word() {
            let v = spread(STATUS_MASK, 0, 8);
            assert_eq!(v, (1u64 << 40) - 1);
        }
    }

    mod bunch_geometry {
        use super::*;

        fn bg(total: usize, min: usize) -> BunchGeometry {
            BunchGeometry::new(Geometry::new(
                &BuddyConfig::whole_region(total, min).unwrap(),
            ))
        }

        #[test]
        fn word_count_sums_bunch_roots() {
            // depth 7: bunch roots at level 0 (1 root) and level 4 (16 roots).
            let g = bg(128, 1);
            assert_eq!(g.geometry().depth(), 7);
            assert_eq!(g.word_count(), 1 + 16);

            // depth 3: a single bunch.
            let g = bg(8, 1);
            assert_eq!(g.word_count(), 1);

            // depth 9: roots at levels 0, 4, 8.
            let g = bg(512, 1);
            assert_eq!(g.word_count(), 1 + 16 + 256);
        }

        #[test]
        fn floor_level_clamps_to_depth() {
            let g = bg(128, 1); // depth 7
            assert_eq!(g.floor_level(0), 3);
            assert_eq!(g.floor_level(4), 7);
            let g = bg(64, 1); // depth 6
            assert_eq!(g.floor_level(4), 6);
            let g = bg(4, 1); // depth 2
            assert_eq!(g.floor_level(0), 2);
        }

        #[test]
        fn locate_root_bunch_nodes() {
            let g = bg(256, 1); // depth 8
                                // Root bunch: root level 0, floor level 3 (8 stored nodes 8..15).
            assert_eq!(g.locate(1), (0, 0, 8));
            assert_eq!(g.locate(2), (0, 0, 4));
            assert_eq!(g.locate(3), (0, 4, 4));
            assert_eq!(g.locate(7), (0, 6, 2));
            assert_eq!(g.locate(8), (0, 0, 1));
            assert_eq!(g.locate(15), (0, 7, 1));
        }

        #[test]
        fn locate_second_bunch_layer() {
            let g = bg(256, 1); // depth 8: bunch roots at levels 0, 4, 8
                                // Bunch rooted at node 16 (level 4): word 1, covers levels 4..=7.
            assert_eq!(g.bunch_root(16), 16);
            assert_eq!(g.locate(16), (1, 0, 8));
            assert_eq!(g.bunch_root(17 << 3), 17);
            assert_eq!(g.locate(17), (2, 0, 8));
            // Node 16's children at level 5.
            assert_eq!(g.locate(32), (1, 0, 4));
            assert_eq!(g.locate(33), (1, 4, 4));
            // Stored nodes of bunch 16 are level-7 nodes 128..=135.
            assert_eq!(g.locate(128), (1, 0, 1));
            assert_eq!(g.locate(135), (1, 7, 1));
            // Level-8 nodes live in their own (partial) bunches below.
            let (w, slot, width) = g.locate(256);
            assert_eq!((slot, width), (0, 1));
            assert!(w > 16);
        }

        #[test]
        fn partial_bottom_bunches() {
            let g = bg(64, 1); // depth 6: bunch roots at 0 and 4; floor(4) = 6
                               // A bunch rooted at level 4 stores the level-6 nodes (4 of them).
            assert_eq!(g.locate(16), (1, 0, 4));
            assert_eq!(g.locate(64), (1, 0, 1));
            assert_eq!(g.locate(67), (1, 3, 1));
            assert_eq!(g.locate(17), (2, 0, 4));
        }

        #[test]
        fn bunch_root_is_ancestor_at_multiple_of_four() {
            let g = bg(1 << 10, 1); // depth 10
            for n in [1usize, 2, 7, 15, 16, 100, 1023, 1024, 2047] {
                let root = g.bunch_root(n);
                let rl = g.geometry().level_of(root);
                assert_eq!(rl % 4, 0);
                assert!(g.geometry().is_ancestor_or_self(root, n));
                assert!(g.geometry().level_of(n) - rl < 4);
            }
        }
    }

    #[test]
    fn single_allocation_and_release() {
        let b = buddy(1024, 64, 1024);
        let off = b.alloc(64).unwrap();
        assert!(off < 1024);
        assert_eq!(off % 64, 0);
        assert_eq!(b.allocated_bytes(), 64);
        b.dealloc(off);
        assert_eq!(b.allocated_bytes(), 0);
        assert_clean(&b);
    }

    #[test]
    fn allocation_grants_power_of_two_at_least_requested() {
        let b = buddy(1 << 16, 8, 1 << 14);
        for req in [1usize, 8, 9, 100, 128, 1000, 1024, 5000] {
            let off = b.alloc(req).unwrap();
            let granted = b.geometry().granted_size(req).unwrap();
            assert!(granted >= req);
            assert_eq!(off % granted, 0);
            b.dealloc(off);
        }
        assert_eq!(b.allocated_bytes(), 0);
        assert_clean(&b);
    }

    #[test]
    fn rejects_oversized_requests() {
        let b = buddy(1 << 16, 8, 1 << 12);
        assert_eq!(b.alloc((1 << 12) + 1), None);
        assert!(b.alloc(1 << 12).is_some());
    }

    #[test]
    fn exhausts_and_recovers() {
        let b = buddy_first_fit(1024, 64, 1024);
        let offs: Vec<usize> = (0..16).map(|_| b.alloc(64).unwrap()).collect();
        assert_eq!(b.alloc(64), None);
        assert_eq!(b.alloc(1024), None);
        for off in offs {
            b.dealloc(off);
        }
        let whole = b.alloc(1024).unwrap();
        assert_eq!(whole, 0);
        b.dealloc(whole);
        assert_clean(&b);
    }

    #[test]
    fn allocating_parent_blocks_children_and_vice_versa() {
        let b = buddy_first_fit(1024, 64, 1024);
        let whole = b.alloc(1024).unwrap();
        assert_eq!(b.alloc(64), None);
        assert_eq!(b.alloc(512), None);
        b.dealloc(whole);

        let leaf = b.alloc(64).unwrap();
        assert_eq!(b.alloc(1024), None);
        let half = b.alloc(512).unwrap();
        assert!(leaf < half || leaf >= half + 512);
        b.dealloc(leaf);
        b.dealloc(half);
        assert_clean(&b);
    }

    #[test]
    fn offsets_never_overlap_while_live() {
        let b = buddy(1 << 14, 8, 1 << 10);
        let sizes = [8usize, 16, 128, 1024, 8, 256, 64, 32, 512, 8];
        let mut live: Vec<(usize, usize)> = Vec::new();
        for &s in &sizes {
            let off = b.alloc(s).unwrap();
            let granted = b.geometry().granted_size(s).unwrap();
            for &(o, g) in &live {
                let disjoint = off + granted <= o || o + g <= off;
                assert!(disjoint, "overlap at {off}");
            }
            live.push((off, granted));
        }
        for (o, _) in live {
            b.dealloc(o);
        }
        assert_clean(&b);
    }

    #[test]
    fn derived_status_reflects_occupancy() {
        let b = buddy_first_fit(1 << 10, 8, 1 << 10); // depth 7, two bunch layers
        let geo = *b.geometry();
        let off = b.alloc(8).unwrap();
        assert_eq!(off, 0);
        let leaf = geo.leaf_of_offset(0);
        // The leaf itself is fully occupied.
        assert_eq!(b.node_status(leaf) & OCC, OCC);
        // Every ancestor between the leaf and the root shows occupancy in its
        // left branch but is not fully occupied.
        let mut node = leaf >> 1;
        loop {
            let st = b.node_status(node);
            assert_ne!(st & (OCC_LEFT | OCC_RIGHT), 0, "node {node}");
            assert_eq!(st & OCC, 0, "node {node} must not be fully occupied");
            if node == 1 {
                break;
            }
            node >>= 1;
        }
        b.dealloc(off);
        assert_clean(&b);
    }

    #[test]
    fn direct_allocation_of_mid_bunch_node_occupies_stored_slots() {
        let b = buddy_first_fit(1 << 10, 8, 1 << 10); // depth 7
                                                      // Allocate half the region: node 2 (level 1), inside the root bunch,
                                                      // covering stored slots 0..4 of word 0.
        let off = b.alloc(1 << 9).unwrap();
        assert_eq!(off, 0);
        let word = b.words[0].load(Ordering::Acquire);
        for slot in 0..4 {
            assert_eq!(get_slot(word, slot), BUSY, "slot {slot}");
        }
        for slot in 4..8 {
            assert_eq!(get_slot(word, slot), 0, "slot {slot}");
        }
        // Derived view: node 2 occupied, node 1 partially occupied (left).
        assert_eq!(b.node_status(2) & OCC, OCC);
        assert_eq!(b.node_status(1) & OCC_LEFT, OCC_LEFT);
        assert_eq!(b.node_status(1) & OCC, 0);
        // The other half is still allocatable.
        let other = b.alloc(1 << 9).unwrap();
        assert_eq!(other, 1 << 9);
        assert_eq!(b.alloc(8), None);
        b.dealloc(off);
        b.dealloc(other);
        assert_clean(&b);
    }

    #[test]
    fn climb_marks_exactly_one_slot_per_ancestor_bunch() {
        let b = buddy_first_fit(1 << 10, 8, 1 << 10); // depth 7: bunches at levels 0..3 and 4..7
        let off = b.alloc(8).unwrap(); // leaf at level 7, node 128
        assert_eq!(off, 0);
        let geo = *b.geometry();
        let leaf = geo.leaf_of_offset(0);
        assert_eq!(leaf, 128);
        // Leaf bunch (rooted at node 16): slot 0 BUSY, nothing else.
        let (w_leaf, s_leaf, _) = b.bgeo.locate(leaf);
        let word = b.words[w_leaf].load(Ordering::Acquire);
        assert_eq!(get_slot(word, s_leaf), BUSY);
        // Parent bunch (root bunch): exactly the stored node 8 carries the
        // partial-occupancy mark for its left child (node 16).
        let root_word = b.words[0].load(Ordering::Acquire);
        assert_eq!(get_slot(root_word, 0), OCC_LEFT);
        for slot in 1..8 {
            assert_eq!(get_slot(root_word, slot), 0, "slot {slot}");
        }
        b.dealloc(off);
        assert_clean(&b);
    }

    #[test]
    fn climb_stops_at_max_level() {
        // total 2^10, max 2^7 → max_level = 3 (inside the root bunch).
        let b = buddy_first_fit(1 << 10, 8, 1 << 7);
        let off = b.alloc(8).unwrap();
        // The root bunch stores levels 0..=3; allocations must mark the
        // level-3 stored ancestor (node 8) because level 3 == max_level.
        let root_word = b.words[0].load(Ordering::Acquire);
        assert_eq!(get_slot(root_word, 0), OCC_LEFT);
        b.dealloc(off);
        assert_clean(&b);
    }

    #[test]
    fn climb_skips_bunches_entirely_above_max_level() {
        // total 2^10 (depth 7), max 2^5 → max_level = 5, inside the second
        // bunch layer; the root bunch (levels 0..3) must never be touched.
        let b = buddy_first_fit(1 << 10, 8, 1 << 5);
        let off = b.alloc(8).unwrap();
        assert_eq!(b.words[0].load(Ordering::Acquire), 0);
        b.dealloc(off);
        assert_clean(&b);
    }

    #[test]
    fn distinct_addresses_for_all_units() {
        let b = buddy(1 << 12, 64, 1 << 12);
        let units = (1 << 12) / 64;
        let mut seen = HashSet::new();
        let mut offs = Vec::new();
        for _ in 0..units {
            let off = b.alloc(64).unwrap();
            assert!(seen.insert(off), "duplicate offset {off}");
            offs.push(off);
        }
        assert_eq!(b.alloc(64), None);
        for off in offs {
            b.dealloc(off);
        }
        assert_clean(&b);
    }

    #[test]
    fn mixed_size_workload_settles_clean() {
        let b = buddy(1 << 16, 8, 1 << 14);
        let mut live = Vec::new();
        for round in 0..200usize {
            let size = 8usize << (round % 9);
            if let Some(off) = b.alloc(size) {
                live.push(off);
            }
            if round % 3 == 0 {
                if let Some(off) = live.pop() {
                    b.dealloc(off);
                }
            }
        }
        for off in live {
            b.dealloc(off);
        }
        assert_eq!(b.allocated_bytes(), 0);
        assert_clean(&b);
    }

    #[test]
    fn matches_one_level_variant_on_identical_sequences() {
        use crate::onelvl::NbbsOneLevel;
        // With the FirstFit policy both variants are deterministic and must
        // produce exactly the same offsets for the same request sequence.
        let cfg = BuddyConfig::new(1 << 14, 8, 1 << 12)
            .unwrap()
            .with_scan_policy(ScanPolicy::FirstFit);
        let one = NbbsOneLevel::new(cfg);
        let four = NbbsFourLevel::new(cfg);
        let mut rng: u64 = 42;
        let mut live: Vec<usize> = Vec::new();
        for _ in 0..2_000 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let do_alloc = live.is_empty() || rng & 3 != 0;
            if do_alloc {
                let size = 8usize << ((rng >> 32) % 10);
                let a = one.alloc(size);
                let b = four.alloc(size);
                assert_eq!(a, b, "divergence on alloc({size})");
                if let Some(off) = a {
                    live.push(off);
                }
            } else {
                let pos = (rng >> 16) as usize % live.len();
                let off = live.swap_remove(pos);
                one.dealloc(off);
                four.dealloc(off);
            }
        }
        for off in live {
            one.dealloc(off);
            four.dealloc(off);
        }
        assert_eq!(one.allocated_bytes(), 0);
        assert_eq!(four.allocated_bytes(), 0);
    }

    #[test]
    fn try_dealloc_validates_offsets() {
        let b = buddy(1024, 64, 1024);
        assert!(matches!(
            b.try_dealloc(4096),
            Err(FreeError::OutOfRange { .. })
        ));
        assert!(matches!(
            b.try_dealloc(3),
            Err(FreeError::Misaligned { .. })
        ));
        assert!(matches!(
            b.try_dealloc(128),
            Err(FreeError::NotAllocated { .. })
        ));
        let off = b.alloc(64).unwrap();
        assert!(b.try_dealloc(off).is_ok());
        assert!(matches!(
            b.try_dealloc(off),
            Err(FreeError::NotAllocated { .. })
        ));
    }

    #[test]
    fn concurrent_allocations_never_overlap() {
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let b = Arc::new(buddy(1 << 16, 8, 1 << 10));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut rng: u64 = 0xDEAD_BEEF ^ (t as u64).wrapping_mul(0x9E37);
                    let mut live: Vec<usize> = Vec::new();
                    for _ in 0..ITERS {
                        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let size = 8usize << ((rng >> 60) as usize % 8);
                        if rng & 1 == 0 || live.is_empty() {
                            if let Some(off) = b.alloc(size) {
                                live.push(off);
                            }
                        } else {
                            let off = live.swap_remove((rng >> 32) as usize % live.len());
                            b.dealloc(off);
                        }
                    }
                    for off in live {
                        b.dealloc(off);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.allocated_bytes(), 0);
        assert_clean(&b);
    }

    #[test]
    fn blocks_freed_on_other_threads_leave_the_gauge_at_zero() {
        crate::gauge::tests::remote_frees_sum_to_zero(&buddy(1 << 20, 64, 1 << 12));
    }

    #[test]
    fn concurrent_same_size_contention_settles_clean() {
        const THREADS: usize = 8;
        let b = Arc::new(buddy(1 << 12, 64, 1 << 12));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..3_000 {
                        if let Some(off) = b.alloc(64) {
                            b.dealloc(off);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.allocated_bytes(), 0);
        assert_clean(&b);
    }

    #[test]
    fn trait_object_usage() {
        let b: Box<dyn BuddyBackend> = Box::new(buddy(1024, 64, 1024));
        assert_eq!(b.name(), "4lvl-nb");
        let off = b.alloc(100).unwrap();
        assert_eq!(b.allocated_bytes(), 128);
        b.dealloc(off);
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn small_trees_fit_in_single_bunch() {
        // depth 2 (< 4 levels): everything lives in one partial bunch.
        let b = buddy_first_fit(256, 64, 256);
        assert_eq!(b.bgeo.word_count(), 1);
        let a = b.alloc(64).unwrap();
        let c = b.alloc(128).unwrap();
        assert_eq!(a, 0);
        assert_eq!(c, 128);
        assert_eq!(b.alloc(128), None);
        let d = b.alloc(64).unwrap();
        assert_eq!(d, 64);
        b.dealloc(a);
        b.dealloc(c);
        b.dealloc(d);
        assert_clean(&b);
        let whole = b.alloc(256).unwrap();
        assert_eq!(whole, 0);
        b.dealloc(whole);
        assert_clean(&b);
    }

    #[cfg(feature = "op-stats")]
    #[test]
    fn four_level_issues_fewer_cas_than_one_level() {
        use crate::onelvl::NbbsOneLevel;
        let cfg = BuddyConfig::new(1 << 20, 8, 1 << 20)
            .unwrap()
            .with_scan_policy(ScanPolicy::FirstFit);
        let one = NbbsOneLevel::new(cfg);
        let four = NbbsFourLevel::new(cfg);
        for _ in 0..100 {
            let a = one.alloc(8).unwrap();
            one.dealloc(a);
            let b = four.alloc(8).unwrap();
            four.dealloc(b);
        }
        let c1 = one.op_stats().cas_ops;
        let c4 = four.op_stats().cas_ops;
        assert!(
            c4 * 2 < c1,
            "expected ≥2x fewer CAS for 4lvl (1lvl={c1}, 4lvl={c4})"
        );
    }
}
