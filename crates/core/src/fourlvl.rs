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
//! A bunch covers up to four consecutive levels — up to 15 nodes, of which
//! only the (at most) 8 nodes of the *lowest* covered level are physically
//! stored, 5 status bits each (40 bits total) in one `AtomicU64` (Figure 7).
//! The state of the internal in-bunch nodes is *derived* from the stored
//! ones (Figure 6):
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
//! **Reproduction note: the bunches are bottom-aligned.**  The bunches are
//! §III-D's, but their roots sit at the levels `r ≡ depth + 1 (mod 4)`, so
//! the lowest bunch of every path ends at the leaves, and the levels left
//! over at the top, `(depth + 1) % 4` of them, form a partial bunch at the
//! root (a full one when that is 0).  Rooting them at levels 0, 4, 8, …
//! instead leaves the partial bunch at the leaves: on the shipped 64 MiB /
//! 32 B tree (depth 21) its words hold two leaves each, so the layer of
//! 2^20 words is most of the 1 118 481 words (8.5 MiB) reserved, and 4 MiB
//! of packed 32 B blocks write 560 KiB of words.  Bottom-aligned, the
//! leaves are stored eight to a word: 279 621 words (2.1 MiB), 148 KiB for
//! the same blocks, and no level's grant crosses more bunch boundaries
//! than before.  The price falls on the classes whose level now roots a
//! larger layer (128/256 B and 2/4 KiB on the shipped tree), which write
//! more word pages per byte packed; small blocks dominate what the shipped
//! stack asks of the tree, so the layout follows them.  The layers are
//! stored deepest first, which puts every layer of a page or more on a
//! page boundary, so a leaf-layer word page covers an aligned 128 KiB of
//! arena there, the same as an `index[]` page, and a scrub run gives both
//! back page for page ([`BuddyTree::free_scrub_run`]): on a 64 KiB run it
//! drops the layers rooted at levels 14 and 18, below the bunch of levels
//! 10–13 its claim wrote.
//!
//! [`NbbsFourLevel`] is the shared shell ([`BuddyTree`]: Algorithm 1 /
//! `NBALLOC`, `NBFREE`, `index[]`) over [`BunchStore`].  This file holds
//! what §III-D re-encodes: [`BunchGeometry`] and the slot arithmetic, and
//! the bunch editions of `TRYALLOC`, `FREENODE` and `UNMARK` (Algorithms
//! 2–4; `try_alloc_node`, `free_node`, `unmark`), whose logic is that of
//! [`crate::onelvl::ByteStore`] with the per-node CAS replaced by a CAS
//! over the containing 64-bit bunch word.
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
//!    is-free check (`is_free`) and the release climb's
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
//! Under `--cfg nbbs_model` the bunch words below (and the shell's
//! `index[]`) become shadow atomics and the `nbbs-model` crate enumerates every SC interleaving of these
//! accesses for 2–3 threads over a minimal one-boundary geometry (a
//! depth-5 tree: eight leaves sharing a bunch word, one boundary into the
//! two-level root word): release/release and release/allocate are
//! exhaustively clean (88 / 29 sleep-set-distinct schedules; pruning
//! cross-validated by a 36,300-run unpruned sweep), and
//! release/release/allocate is clean under a sound preemption-bound-3
//! search (31,038 schedules, no pruning) on every push, and was clean
//! exhaustively on the root-aligned layout (32,600 schedules, one-time
//! run).  So is release/release racing a 64-byte allocation (30,542).
//! Re-injected, the `unmark` exclusion yields a replayable witness at
//! schedule 2,238 of the first bounded search, and the phase-1 early
//! break (the first release race, fixed in `free_node`) at schedule 3,847
//! of the second and at schedule 6 of the exhaustive
//! release/release search.  (While the
//! gauge was one word the three pruned counts read 176, 58 and 195,600:
//! every thread's closing RMW then conflicted with every other's, and the
//! sleep sets had to explore all 2! or 3! orders of them.  On stripes of
//! their own they are independent and one order stands for all; the
//! unpruned and the bounded counts, which do not look at addresses, did
//! not move.)

// Under `--cfg nbbs_model` the bunch words become *shadow* atomics (same API,
// every access a scheduler yield point) so the `nbbs-model` crate can
// enumerate interleavings of the CAS climbs below.  The default build
// aliases the very same name to `std::sync::atomic`: a type alias only,
// zero cost in production.
#[cfg(nbbs_model)]
use nbbs_sync::shadow::AtomicU64;
use nbbs_sync::ZeroedSlice;
use std::ops::Range;
#[cfg(not(nbbs_model))]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering;

use crate::geometry::Geometry;
use crate::stats::OpStats;
use crate::status::{
    clean_coal, is_coal, is_coal_buddy, is_occ_buddy, mark, unmark, BUSY, COAL_LEFT, COAL_RIGHT,
    OCC, OCC_LEFT, OCC_RIGHT, STATUS_BITS, STATUS_MASK,
};
use crate::tree::{sealed::Sealed, BuddyTree, NodeStore};

/// Number of tree levels folded into one bunch word.
pub const BUNCH_LEVELS: u32 = 4;

/// Per-tree-level constants used by [`BunchGeometry::locate`].
///
/// `locate` sits on the allocator's hottest path (one call per candidate node
/// inspected by the level scan), so everything derivable from the level alone
/// is precomputed once at construction time.
#[derive(Debug, Clone, Copy)]
struct LevelParams {
    /// In-bunch depth of the level (`level - root_level`): shift from a node
    /// to its bunch root.
    to_root: u32,
    /// Shift from a node to its first stored descendant (`floor - level`).
    span: u32,
    /// Shift from the bunch root to the stored level (`floor - root_level`).
    root_to_floor: u32,
    /// Index of the layer's first word minus `2^root_level`, so that the
    /// word index of a bunch root `r` is simply `word_base + r`.
    word_base: isize,
}

/// Geometry extension mapping tree nodes to bunch words and slots.
///
/// A *slot* is the position (0..8) of a stored node inside its bunch word;
/// slot `j` occupies bits `[5j, 5j+5)` of the word.
#[derive(Debug, Clone)]
pub struct BunchGeometry {
    geo: Geometry,
    /// Total number of bunch words.
    word_count: usize,
    /// Precomputed per-level constants, indexed by tree level.
    levels: Vec<LevelParams>,
}

impl BunchGeometry {
    /// Builds the bunch layout for the given tree geometry: full bunches
    /// rooted at every level `r` with `r ≡ depth + 1 (mod 4)`, so the lowest
    /// one stores the leaves, and a top bunch at level 0 holding the
    /// `(depth + 1) % 4` levels left above them (a full bunch when that is
    /// 0).  Each layer of bunch roots owns a contiguous run of words, the
    /// deepest layer first and the root word last.  A layer then starts at
    /// a multiple of sixteen times its own size (every deeper layer is at
    /// least that), so any layer of a page or more starts on a page
    /// boundary, and the words under an aligned stretch of arena fill
    /// whole pages ([`BunchStore`]'s drop under a scrub run).
    pub fn new(geo: Geometry) -> Self {
        let top = (geo.depth() + 1) % BUNCH_LEVELS;
        let is_root =
            |level: u32| level == 0 || (level >= top && (level - top).is_multiple_of(BUNCH_LEVELS));
        let mut word_count = 0usize;
        let mut first_word = vec![0usize; geo.depth() as usize + 1];
        for root_level in (0..=geo.depth()).rev().filter(|&l| is_root(l)) {
            first_word[root_level as usize] = word_count;
            word_count += 1usize << root_level;
        }
        let mut root_level = 0u32;
        let levels = (0..=geo.depth())
            .map(|level| {
                if is_root(level) {
                    root_level = level;
                }
                let floor = if root_level < top {
                    top - 1
                } else {
                    root_level + BUNCH_LEVELS - 1
                };
                LevelParams {
                    to_root: level - root_level,
                    span: floor - level,
                    root_to_floor: floor - root_level,
                    word_base: first_word[root_level as usize] as isize - (1isize << root_level),
                }
            })
            .collect();
        BunchGeometry {
            geo,
            word_count,
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
        level - self.levels[level as usize].to_root
    }

    /// Root node of the bunch containing node `n`.
    #[inline]
    pub fn bunch_root(&self, n: usize) -> usize {
        n >> self.levels[self.geo.level_of(n) as usize].to_root
    }

    /// Level whose nodes are physically stored for the bunch containing a
    /// node at `level` (the bunch's lowest covered level).
    #[inline]
    pub fn floor_level(&self, level: u32) -> u32 {
        level + self.levels[level as usize].span
    }

    /// Index of the bunch word for the bunch rooted at node `root`.
    #[inline]
    pub fn word_of_root(&self, root: usize) -> usize {
        let p = self.levels[self.geo.level_of(root) as usize];
        debug_assert_eq!(p.to_root, 0, "node {root} is not a bunch root");
        (p.word_base + root as isize) as usize
    }

    /// The words of the layer rooted at `root_level` whose bunches lie
    /// under the arena bytes `bytes` (aligned to that level's chunk size).
    pub fn words_under(&self, root_level: u32, bytes: Range<usize>) -> Range<usize> {
        let first = self.word_of_root(self.geo.node_at_offset(root_level, bytes.start));
        first..first + bytes.len() / self.geo.size_of_level(root_level)
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

/// The 4-level optimized non-blocking buddy allocator: the shared shell
/// over bunch words.
pub type NbbsFourLevel = BuddyTree<BunchStore>;

impl NbbsFourLevel {
    /// The bunch layout (exposed for diagnostics and white-box tests).
    #[inline]
    pub fn bunch_geometry(&self) -> &BunchGeometry {
        &self.store().bgeo
    }
}

/// `tree[]` packed four levels to a word (Figure 7).
pub struct BunchStore {
    bgeo: BunchGeometry,
    /// One 64-bit word per bunch; bits `[5j, 5j+5)` hold the status of the
    /// bunch's `j`-th stored node.
    words: ZeroedSlice<AtomicU64>,
}

impl BunchStore {
    /// One CAS loop over bunch word `w`: load it, let `edit` name the
    /// successor (or give up with `None`), CAS, and on a failed CAS start
    /// over from the load.  Returns the word the landed CAS replaced.
    ///
    /// The CAS may have failed because an unrelated slot of the same word
    /// changed, which is why every caller re-evaluates from the top.
    /// `node` is the tree node being edited, for the per-level counters.
    #[inline]
    fn update(
        &self,
        w: usize,
        node: usize,
        stats: &OpStats,
        edit: impl Fn(u64) -> Option<u64>,
    ) -> Option<u64> {
        loop {
            let cur = self.words[w].load(Ordering::Acquire);
            let new = edit(cur)?;
            stats.record_cas(1);
            if self.words[w]
                .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(cur);
            }
            stats.record_cas_failure(1);
            stats.record_cas_failure_at(self.bgeo.geo.level_of(node) as usize, 1);
        }
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
    #[inline]
    fn subtree_slots_busy(&self, subtree_root: usize) -> bool {
        !self.is_free(subtree_root)
    }

    /// `UNMARK`, bunch edition.
    ///
    /// The release may clear a stored ancestor's branch-occupancy bit only if
    /// nothing remains allocated inside the bunch it is climbing out of
    /// ([`Self::subtree_slots_busy`] aggregates the per-level buddy checks
    /// of the 1-level algorithm; the releasing thread's own slots were
    /// cleared by phase 2, so a busy bit anywhere — including where the
    /// freed chunk used to live — denotes a live allocation and stops the
    /// climb) and the coalescing bit set by `free_node` is still in place
    /// (otherwise a concurrent allocation has already reused the branch).
    fn unmark(&self, n: usize, upper_level: u32, stats: &OpStats) {
        let geo = &self.bgeo.geo;
        let mut child_root = self.bgeo.bunch_root(n);
        while child_root > 1 && geo.level_of(child_root) > upper_level {
            if self.subtree_slots_busy(child_root) {
                return;
            }
            let parent_node = child_root >> 1;
            let (pw, pslot, _) = self.bgeo.locate(parent_node);
            // `None`: someone reused (or already cleaned) this branch.
            let Some(old) = self.update(pw, parent_node, stats, |cur| {
                let status = get_slot(cur, pslot);
                is_coal(status, child_root)
                    .then(|| set_slot(cur, pslot, unmark(status, child_root)))
            }) else {
                return;
            };
            if is_occ_buddy(unmark(get_slot(old, pslot), child_root), child_root) {
                return;
            }
            child_root = self.bgeo.bunch_root(parent_node);
        }
    }
}

impl Sealed for BunchStore {}

impl NodeStore for BunchStore {
    const NAME: &'static str = "4lvl-nb";
    const TYPE_NAME: &'static str = "NbbsFourLevel";

    fn new(geo: Geometry) -> Self {
        let bgeo = BunchGeometry::new(geo);
        let words = nbbs_sync::zeroed_slice::<AtomicU64>(bgeo.word_count());
        BunchStore { bgeo, words }
    }

    /// Is node `n` free according to the derived bunch state?
    #[inline]
    fn is_free(&self, n: usize) -> bool {
        let (w, slot, width) = self.bgeo.locate(n);
        let word = self.words[w].load(Ordering::Acquire);
        !slots_any_busy(word, slot, width)
    }

    /// `TRYALLOC`, bunch edition: occupy node `n` (writing BUSY into every
    /// stored node below it, one CAS) and propagate partial occupancy across
    /// the ancestor bunches up to `max_level`.
    #[inline]
    fn try_alloc_node(&self, n: usize, stats: &OpStats) -> Result<(), usize> {
        let geo = &self.bgeo.geo;
        let (w, slot, width) = self.bgeo.locate(n);
        let occupied_pattern = spread(BUSY, slot, width);
        // `None`: the node (or one of the stored nodes it covers) is busy or
        // in a transient coalescing state: conflict on `n` itself.
        self.update(w, n, stats, |cur| {
            slots_all_clear(cur, slot, width).then_some(cur | occupied_pattern)
        })
        .ok_or(n)?;

        // Climb across bunch boundaries: one stored node (one CAS) per
        // ancestor bunch, exactly the factor-4 reduction of §III-D.
        let max_level = geo.max_level();
        let mut child_root = self.bgeo.bunch_root(n);
        while child_root > 1 && geo.level_of(child_root) > max_level {
            let parent_node = child_root >> 1;
            let (pw, pslot, pwidth) = self.bgeo.locate(parent_node);
            debug_assert_eq!(pwidth, 1, "parent of a bunch root is a stored node");
            let marked = self.update(pw, parent_node, stats, |cur| {
                let status = get_slot(cur, pslot);
                let new_status = mark(clean_coal(status, child_root), child_root);
                (status & OCC == 0).then(|| set_slot(cur, pslot, new_status))
            });
            if marked.is_none() {
                // A concurrent allocation owns this whole chunk.
                self.free_node(n, geo.level_of(child_root), stats);
                return Err(parent_node);
            }
            child_root = self.bgeo.bunch_root(parent_node);
        }
        Ok(())
    }

    /// `FREENODE`, bunch edition.
    #[inline]
    fn free_node(&self, n: usize, upper_level: u32, stats: &OpStats) {
        let geo = &self.bgeo.geo;

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
            let old = self
                .update(pw, parent_node, stats, |cur| {
                    Some(set_slot(cur, pslot, get_slot(cur, pslot) | coal_bit))
                })
                .expect("the coalescing mark never gives up");
            let old_status = get_slot(old, pslot);
            if is_occ_buddy(old_status, child_root) && !is_coal_buddy(old_status, child_root) {
                break;
            }
            child_root = self.bgeo.bunch_root(parent_node);
        }

        // Phase 2: clear every stored node covered by `n` (single CAS loop on
        // the bunch word; other slots of the word must be preserved, and a
        // range that already reads clear is left alone).
        let (w, slot, width) = self.bgeo.locate(n);
        let mask = range_mask(slot, width);
        self.update(w, n, stats, |cur| (cur & mask != 0).then_some(cur & !mask));

        // Phase 3: propagate the release across the ancestor bunches.
        let root = self.bgeo.bunch_root(n);
        if root > 1 && geo.level_of(root) > upper_level {
            self.unmark(n, upper_level, stats);
        }
    }

    /// Derived 5-bit status of node `n` (Figure 6).
    #[inline]
    fn node_status(&self, n: usize) -> u8 {
        let (w, slot, width) = self.bgeo.locate(n);
        let word = self.words[w].load(Ordering::Acquire);
        if width == 1 {
            return get_slot(word, slot);
        }
        // Derive from the stored nodes under each branch: partial occupancy
        // and coalescing are the OR over a branch; the node is fully
        // occupied only when it was allocated directly, in which case every
        // stored node below it carries OCC.
        let half = width / 2;
        let mut status = OCC;
        for i in 0..width {
            let s = get_slot(word, slot + i);
            let (occ_bit, coal_bit) = if i < half {
                (OCC_LEFT, COAL_LEFT)
            } else {
                (OCC_RIGHT, COAL_RIGHT)
            };
            if s & BUSY != 0 {
                status |= occ_bit;
            }
            if s & (COAL_LEFT | COAL_RIGHT) != 0 {
                status |= coal_bit;
            }
            if s & OCC == 0 {
                status &= !OCC;
            }
        }
        status
    }

    /// Drops the words of every bunch layer rooted below the floor of the
    /// bunch holding `level` (the layer the claims wrote stays), whole
    /// pages only.  The layers are stored deepest first and page-aligned,
    /// so an aligned run of a page's worth of bunches frees that page.
    unsafe fn discard_under(&self, bytes: Range<usize>, level: u32) -> usize {
        let depth = self.bgeo.geo.depth();
        (self.bgeo.floor_level(level) + 1..=depth)
            .step_by(BUNCH_LEVELS as usize)
            .map(|root_level| {
                let words = self.bgeo.words_under(root_level, bytes.clone());
                // SAFETY: bunch words are atomics, and the caller's
                // contract (`NodeStore::discard_under`) keeps every store
                // away from them while they go.
                unsafe { self.words.discard(words) }
            })
            .sum()
    }

    fn debug_fields(&self, out: &mut std::fmt::DebugStruct<'_, '_>) {
        out.field("bunch_words", &self.bgeo.word_count());
    }

    /// Bunch words are labelled `word[w]@Lk..j` with the tree levels a CAS
    /// on them covers.
    #[cfg(nbbs_model)]
    fn model_addr_labels(&self) -> Vec<(usize, String)> {
        let bgeo = &self.bgeo;
        let whole = 0..bgeo.geo.total_memory();
        (0..=bgeo.geo.depth())
            .filter(|&level| bgeo.bunch_root_level(level) == level)
            .flat_map(|r| {
                let levels = format!("@L{r}..{}", bgeo.floor_level(r));
                bgeo.words_under(r, whole.clone())
                    .map(move |w| (self.words[w].model_addr(), format!("word[{w}]{levels}")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BuddyConfig, ScanPolicy};

    crate::tree::suite::instantiate!(BunchStore);

    fn buddy_first_fit(total: usize, min: usize, max: usize) -> NbbsFourLevel {
        crate::tree::suite::buddy_first_fit(total, min, max)
    }

    /// Bunch word `w` of the allocator.
    fn word_of(b: &NbbsFourLevel, w: usize) -> u64 {
        b.store().words[w].load(Ordering::Acquire)
    }

    /// The root bunch's word.
    fn root_word(b: &NbbsFourLevel) -> u64 {
        word_of(b, b.bunch_geometry().word_of_root(1))
    }

    /// Asserts that no status bit is left anywhere in the tree.
    fn assert_clean(b: &NbbsFourLevel) {
        crate::verify::audit_empty(b).assert_clean();
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

            // depth 9: a top bunch of levels 0..=1, then roots at levels 2, 6.
            let g = bg(512, 1);
            assert_eq!(g.word_count(), 1 + 4 + 64);

            // The shipped 64 MiB / 32 B tree (depth 21): roots at 0, 2, 6,
            // 10, 14, 18, so the leaves are stored eight to a word.
            let g = bg(64 << 20, 32);
            assert_eq!(g.word_count(), 1 + 4 + 64 + 1024 + 16_384 + 262_144);
            assert_eq!(g.word_count(), 279_621);

            // 64 MiB / 4 KiB (depth 14): roots at 0, 3, 7, 11.
            let g = bg(64 << 20, 4 << 10);
            assert_eq!(g.word_count(), 2_185);
        }

        #[test]
        fn floor_level_clamps_to_depth() {
            // The lowest bunch always ends at the leaves.
            let g = bg(128, 1); // depth 7
            assert_eq!(g.floor_level(0), 3);
            assert_eq!(g.floor_level(4), 7);
            let g = bg(64, 1); // depth 6: top bunch 0..=2, then 3..=6
            assert_eq!(g.floor_level(0), 2);
            assert_eq!(g.floor_level(2), 2);
            assert_eq!(g.floor_level(3), 6);
            assert_eq!(g.floor_level(5), 6);
            let g = bg(4, 1); // depth 2
            assert_eq!(g.floor_level(0), 2);
            let g = bg(64 << 20, 32); // depth 21
            assert_eq!(g.floor_level(0), 1);
            assert_eq!(g.floor_level(2), 5);
            assert_eq!(g.floor_level(18), 21);
        }

        #[test]
        fn locate_root_bunch_nodes() {
            // depth 7: a full root bunch of levels 0..=3 (stored nodes
            // 8..15), stored last, after the 16 words of the layer below.
            let g = bg(128, 1);
            assert_eq!(g.locate(1), (16, 0, 8));
            assert_eq!(g.locate(2), (16, 0, 4));
            assert_eq!(g.locate(3), (16, 4, 4));
            assert_eq!(g.locate(7), (16, 6, 2));
            assert_eq!(g.locate(8), (16, 0, 1));
            assert_eq!(g.locate(15), (16, 7, 1));
            // depth 8: the root bunch is level 0 alone, after 32 + 2 words.
            let g = bg(256, 1);
            assert_eq!(g.locate(1), (34, 0, 1));
        }

        #[test]
        fn locate_second_bunch_layer() {
            // depth 8: bunch roots at levels 0, 1, 5, stored deepest
            // first.  The leaves (level 8) are stored eight to a word in
            // the 32 bunches rooted at level 5, words 0..=31.
            let g = bg(256, 1);
            assert_eq!(g.bunch_root(256), 32);
            assert_eq!(g.word_of_root(32), 0);
            assert_eq!(g.locate(256), (0, 0, 1));
            assert_eq!(g.locate(263), (0, 7, 1));
            assert_eq!(g.locate(264), (1, 0, 1));
            assert_eq!(g.locate(511), (31, 7, 1));
            // The bunch rooted at node 2 (level 1) is word 32 and covers
            // levels 1..=4.
            assert_eq!(g.bunch_root(2), 2);
            assert_eq!(g.locate(2), (32, 0, 8));
            assert_eq!(g.bunch_root(24), 3);
            assert_eq!(g.locate(3), (33, 0, 8));
            // Node 2's children at level 2.
            assert_eq!(g.locate(4), (32, 0, 4));
            assert_eq!(g.locate(5), (32, 4, 4));
            // Stored nodes of bunch 2 are level-4 nodes 16..=23.
            assert_eq!(g.locate(16), (32, 0, 1));
            assert_eq!(g.locate(23), (32, 7, 1));
            assert_eq!(g.locate(24), (33, 0, 1));
            assert_eq!(g.word_count(), 35);
        }

        #[test]
        fn partial_top_bunch() {
            let g = bg(64, 1); // depth 6: top bunch 0..=2 stores the 4 level-2 nodes
            assert_eq!(g.locate(1), (8, 0, 4));
            assert_eq!(g.locate(2), (8, 0, 2));
            assert_eq!(g.locate(4), (8, 0, 1));
            assert_eq!(g.locate(7), (8, 3, 1));
            // Below it, full bunches rooted at level 3 store the leaves.
            assert_eq!(g.locate(8), (0, 0, 8));
            assert_eq!(g.locate(64), (0, 0, 1));
            assert_eq!(g.locate(71), (0, 7, 1));
            assert_eq!(g.locate(9), (1, 0, 8));
            let g = bg(1 << 12, 1); // depth 12: the top bunch is the root alone
            assert_eq!(g.locate(1), (512 + 32 + 2, 0, 1));
            assert_eq!(g.locate(2), (512 + 32, 0, 8));
        }

        #[test]
        fn bunch_roots_are_bottom_aligned_at_every_depth() {
            for depth in 0..=21u32 {
                let g = bg(1 << depth, 1);
                let geo = *g.geometry();
                assert_eq!(geo.depth(), depth);
                assert_eq!(g.floor_level(depth), depth);
                let mut words = 0;
                for level in 0..=depth {
                    let rl = g.bunch_root_level(level);
                    assert!(
                        rl == 0 || (depth + 1 - rl).is_multiple_of(4),
                        "depth {depth}"
                    );
                    let floor = g.floor_level(level);
                    assert!(level - rl < 4 && floor - rl < 4, "depth {depth}");
                    // Only the top bunch may hold fewer than four levels.
                    assert!(rl == 0 || floor - rl == 3, "depth {depth}");
                    if rl == level {
                        words += 1usize << level;
                    }
                    let n = (1usize << level) + (1usize << level) / 3;
                    let root = g.bunch_root(n);
                    assert_eq!(geo.level_of(root), rl);
                    assert!(geo.is_ancestor_or_self(root, n));
                }
                assert_eq!(g.word_count(), words, "depth {depth}");
            }
        }

        #[test]
        fn layers_are_stored_deepest_first_and_page_aligned() {
            // The shipped tree: layers rooted at 18, 14, 10, 6, 2, 0.
            let g = bg(64 << 20, 32);
            let mut first = 0;
            for r in [18u32, 14, 10, 6, 2, 0] {
                assert_eq!(g.word_of_root(1 << r), first, "layer {r}");
                let bytes = 0..g.geometry().total_memory();
                assert_eq!(g.words_under(r, bytes), first..first + (1 << r));
                if 8usize << r >= 4096 {
                    assert!((first * 8).is_multiple_of(4096), "layer {r}");
                }
                first += 1 << r;
            }
            assert_eq!(first, g.word_count());
            // 128 KiB of arena holds 512 leaf-layer bunches: one page of
            // words, the same as one page of `index[]`.
            assert_eq!(g.words_under(18, 128 << 10..256 << 10), 512..1024);
            assert_eq!(g.words_under(14, 0..2 << 20), 262_144..262_656);
        }
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
        // depth 7.  Allocate half the region: node 2 (level 1), inside the
        // root bunch, covering stored slots 0..4 of its word.
        let b = buddy_first_fit(1 << 10, 8, 1 << 10);
        let off = b.alloc(1 << 9).unwrap();
        assert_eq!(off, 0);
        let word = root_word(&b);
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
        let (w_leaf, s_leaf, _) = b.bunch_geometry().locate(leaf);
        let word = word_of(&b, w_leaf);
        assert_eq!(get_slot(word, s_leaf), BUSY);
        // Parent bunch (root bunch): exactly the stored node 8 carries the
        // partial-occupancy mark for its left child (node 16).
        let root_word = root_word(&b);
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
        let root_word = root_word(&b);
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
        assert_eq!(root_word(&b), 0);
        b.dealloc(off);
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
    fn small_trees_fit_in_single_bunch() {
        // depth 2 (< 4 levels): everything lives in one partial bunch.
        let b = buddy_first_fit(256, 64, 256);
        assert_eq!(b.bunch_geometry().word_count(), 1);
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

    /// On the shipped 64 MiB / 32 B / 64 KiB tree (bunch roots at levels
    /// 2, 6, 10, 14, 18; `max_level` 10) a grant at level `l` is one CAS on
    /// its own word plus one per bunch boundary `c` it climbs across, and
    /// its release `c` coalescing marks, one clear and `c` unmarks.
    #[cfg(feature = "op-stats")]
    #[test]
    fn a_grant_and_its_release_cost_one_cas_per_bunch_boundary() {
        let b = NbbsFourLevel::new(BuddyConfig::new(64 << 20, 32, 64 << 10).unwrap());
        assert_eq!(b.geometry().max_level(), 10);
        for level in 10..=21u32 {
            let c = [14, 18].into_iter().filter(|&r| r <= level).count() as u64;
            let before = b.op_stats().cas_ops;
            let offset = b.alloc_at_level(level).unwrap();
            let granted = b.op_stats().cas_ops;
            b.dealloc(offset);
            let released = b.op_stats().cas_ops;
            assert_eq!(
                (granted - before, released - granted),
                (1 + c, 1 + 2 * c),
                "CAS for a grant and a release at level {level}"
            );
        }
        assert_clean(&b);
    }
}
