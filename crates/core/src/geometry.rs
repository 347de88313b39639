//! Tree geometry: the mapping between tree nodes, levels, sizes and offsets.
//!
//! The paper represents the buddy tree as an array `tree[]` of `2^(d+1) - 1`
//! elements with the root at index 1, the left child of node `n` at `2n` and
//! the right child at `2n + 1` (Figure 2).  Nodes of the same level are then
//! contiguous in the array, which makes the level scan of `NBALLOC` a linear
//! walk.  This module implements Rules (1)–(3) of §III-A:
//!
//! ```text
//! level(n)   = ⌊log2(n)⌋                                  (1)
//! size(n)    = total_memory / 2^level(n)                  (2)
//! offset(n)  = (n − 2^level(n)) · size(n)                 (3)
//! ```
//!
//! plus the inverse mappings needed by `NBFREE` (offset → allocation-unit
//! index → node) and by the allocation path (request size → target level).

use crate::config::BuddyConfig;
use crate::error::FreeError;

/// Immutable description of the buddy tree induced by a [`BuddyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    total_memory: usize,
    min_size: usize,
    max_size: usize,
    depth: u32,
    max_level: u32,
}

impl Geometry {
    /// Builds the geometry for a validated configuration.
    pub fn new(config: &BuddyConfig) -> Self {
        Geometry {
            total_memory: config.total_memory(),
            min_size: config.min_size(),
            max_size: config.max_size(),
            depth: config.depth(),
            max_level: config.max_level(),
        }
    }

    /// Total managed memory in bytes.
    #[inline]
    pub fn total_memory(&self) -> usize {
        self.total_memory
    }

    /// Allocation-unit (leaf) size in bytes.
    #[inline]
    pub fn min_size(&self) -> usize {
        self.min_size
    }

    /// Largest size a single request may obtain.
    #[inline]
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Depth of the tree (level of the leaves; the root is level 0).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Topmost allocatable level (paper's `max_level`).
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of nodes in the tree (`2^(depth+1) - 1`).
    #[inline]
    pub fn node_count(&self) -> usize {
        (1usize << (self.depth + 1)) - 1
    }

    /// Length of the `tree[]` array (index 0 is unused, root at index 1).
    #[inline]
    pub fn tree_len(&self) -> usize {
        1usize << (self.depth + 1)
    }

    /// Number of allocation units, i.e. leaves / entries of `index[]`.
    #[inline]
    pub fn unit_count(&self) -> usize {
        self.total_memory / self.min_size
    }

    /// Rule (1): level of node `n`.
    #[inline]
    pub fn level_of(&self, n: usize) -> u32 {
        debug_assert!(n >= 1 && n < self.tree_len(), "node {n} out of range");
        usize::BITS - 1 - n.leading_zeros()
    }

    /// Rule (2): size in bytes of the chunk tracked by a node at `level`.
    #[inline]
    pub fn size_of_level(&self, level: u32) -> usize {
        debug_assert!(level <= self.depth);
        self.total_memory >> level
    }

    /// Rule (2): size in bytes of the chunk tracked by node `n`.
    #[inline]
    pub fn size_of(&self, n: usize) -> usize {
        self.size_of_level(self.level_of(n))
    }

    /// Rule (3): byte offset (from the start of the managed region) of the
    /// chunk tracked by node `n`.
    #[inline]
    pub fn offset_of(&self, n: usize) -> usize {
        let level = self.level_of(n);
        (n - (1usize << level)) * self.size_of_level(level)
    }

    /// First node index of `level` (nodes of a level are contiguous).
    #[inline]
    pub fn first_node_of_level(&self, level: u32) -> usize {
        1usize << level
    }

    /// Number of nodes at `level`.
    #[inline]
    pub fn nodes_at_level(&self, level: u32) -> usize {
        1usize << level
    }

    /// Node index of the `position`-th node (0-based, left to right) at `level`.
    #[inline]
    pub fn node_at(&self, level: u32, position: usize) -> usize {
        debug_assert!(position < self.nodes_at_level(level));
        (1usize << level) + position
    }

    /// The node of `level` whose chunk starts at `offset` (`offset` must be
    /// a multiple of that level's size): `2^level + offset / size(level)`,
    /// in shifts only.  The inverse of Rule (3) for a known level, which is
    /// how `NBFREE` rebuilds a node from the level `index[]` records.
    #[inline]
    pub fn node_at_offset(&self, level: u32, offset: usize) -> usize {
        debug_assert!(level <= self.depth);
        debug_assert!(offset.is_multiple_of(self.size_of_level(level)));
        (1usize << level) + (offset >> (self.total_memory.trailing_zeros() - level))
    }

    /// The deepest level whose chunks are large enough to satisfy `size`
    /// bytes, i.e. the paper's
    /// `level = min(depth, ⌊log2(total_memory / size)⌋)`.
    ///
    /// Requests smaller than the allocation unit are rounded up to it;
    /// requests larger than [`Geometry::max_size`] have no valid level and
    /// return `None`.
    #[inline]
    pub fn target_level(&self, size: usize) -> Option<u32> {
        if size > self.max_size {
            return None;
        }
        let size = size.max(self.min_size).max(1);
        let level = (self.total_memory / size).ilog2();
        Some(level.min(self.depth))
    }

    /// Size actually delivered for a request of `size` bytes (the chunk size
    /// of the target level), or `None` if the request exceeds `max_size`.
    #[inline]
    pub fn granted_size(&self, size: usize) -> Option<usize> {
        self.target_level(size).map(|l| self.size_of_level(l))
    }

    /// Allocation-unit index of a byte offset (the `index[]` slot the paper
    /// uses: `(starting − base_address) / min_size`).
    #[inline]
    pub fn unit_of_offset(&self, offset: usize) -> usize {
        debug_assert!(offset < self.total_memory);
        debug_assert_eq!(offset % self.min_size, 0);
        offset / self.min_size
    }

    /// The prologue of every checked release: `offset` must lie inside
    /// `span` and on an allocation-unit boundary.
    ///
    /// `span` is the memory the caller actually manages, which it reports
    /// in the error.  A leaf passes its own [`Geometry::total_memory`]; a
    /// layer over a slotted set passes the set's *logical* span
    /// ([`crate::BuddyBackend::total_memory`]), which a widened geometry
    /// rounds up past (see [`Geometry::widened`]).
    #[inline]
    pub fn check_release_offset(&self, offset: usize, span: usize) -> Result<(), FreeError> {
        if offset >= span {
            return Err(FreeError::OutOfRange {
                offset,
                total_memory: span,
            });
        }
        if !offset.is_multiple_of(self.min_size) {
            return Err(FreeError::Misaligned {
                offset,
                min_size: self.min_size,
            });
        }
        Ok(())
    }

    /// Leaf node index tracking the allocation unit that starts at `offset`.
    #[inline]
    pub fn leaf_of_offset(&self, offset: usize) -> usize {
        (1usize << self.depth) + self.unit_of_offset(offset)
    }

    /// Parent of node `n` (the root has no parent).
    #[inline]
    pub fn parent(&self, n: usize) -> usize {
        debug_assert!(n > 1);
        n >> 1
    }

    /// Buddy (sibling) of node `n`.
    #[inline]
    pub fn buddy(&self, n: usize) -> usize {
        debug_assert!(n > 1);
        n ^ 1
    }

    /// Left child of node `n`.
    #[inline]
    pub fn left_child(&self, n: usize) -> usize {
        n << 1
    }

    /// Right child of node `n`.
    #[inline]
    pub fn right_child(&self, n: usize) -> usize {
        (n << 1) | 1
    }

    /// Whether node `a` is an ancestor of (or equal to) node `b`.
    #[inline]
    pub fn is_ancestor_or_self(&self, a: usize, b: usize) -> bool {
        let la = self.level_of(a);
        let lb = self.level_of(b);
        lb >= la && (b >> (lb - la)) == a
    }

    /// The half-open byte range `[start, end)` covered by node `n`.
    #[inline]
    pub fn byte_range(&self, n: usize) -> (usize, usize) {
        let start = self.offset_of(n);
        (start, start + self.size_of(n))
    }

    /// The *widened* multi-node geometry spanning `node_count` instances of
    /// this geometry.
    ///
    /// Multi-node deployments (`nbbs-numa`'s `NodeSet`) pack the node index
    /// into the high bits of a global offset: node `i` owns the range
    /// `[i << widening_shift(), (i + 1) << widening_shift())`.  To keep the
    /// global offset space a valid power-of-two buddy geometry (so a
    /// `NodeSet` can itself implement `BuddyBackend`), the node count is
    /// rounded up to the next power of two — offsets in the phantom tail
    /// beyond the real nodes are simply never produced.  `min_size` and
    /// `max_size` carry over unchanged: a single request is always served by
    /// one node, so the per-request ceiling does not widen.
    ///
    /// Fails when the widened region would exceed the supported tree depth
    /// or overflow `usize`.
    pub fn widened(&self, node_count: usize) -> Result<Geometry, crate::error::ConfigError> {
        let slots = node_count.max(1).next_power_of_two();
        let widened_total = self.total_memory.checked_mul(slots).ok_or(
            crate::error::ConfigError::WidenedTotalOverflow {
                per_node: self.total_memory,
                slots,
            },
        )?;
        let config = BuddyConfig::new(widened_total, self.min_size, self.max_size)?;
        Ok(Geometry::new(&config))
    }

    /// The shift that packs a node index into (and extracts it out of) a
    /// widened global offset: `log2(total_memory)` of the per-node geometry.
    ///
    /// `global = (node << shift) | local` and `node = global >> shift`,
    /// `local = global & (total_memory - 1)` — pure arithmetic, no search.
    #[inline]
    pub fn widening_shift(&self) -> u32 {
        self.total_memory.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(total: usize, min: usize, max: usize) -> Geometry {
        Geometry::new(&BuddyConfig::new(total, min, max).unwrap())
    }

    #[test]
    fn figure_2_example_levels() {
        // Figure 2: a depth-3 tree, indices 1..=15.
        let g = geo(8 * 64, 64, 8 * 64);
        assert_eq!(g.depth(), 3);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.tree_len(), 16);
        assert_eq!(g.level_of(1), 0);
        assert_eq!(g.level_of(2), 1);
        assert_eq!(g.level_of(3), 1);
        assert_eq!(g.level_of(7), 2);
        assert_eq!(g.level_of(8), 3);
        assert_eq!(g.level_of(15), 3);
    }

    #[test]
    fn rule_2_sizes_halve_per_level() {
        let g = geo(1 << 16, 16, 1 << 16);
        assert_eq!(g.size_of_level(0), 1 << 16);
        assert_eq!(g.size_of_level(1), 1 << 15);
        assert_eq!(g.size_of_level(g.depth()), 16);
        assert_eq!(g.size_of(1), 1 << 16);
        assert_eq!(g.size_of(2), 1 << 15);
        assert_eq!(g.size_of(3), 1 << 15);
    }

    #[test]
    fn rule_3_offsets_tile_each_level() {
        let g = geo(1024, 64, 1024);
        for level in 0..=g.depth() {
            let size = g.size_of_level(level);
            for pos in 0..g.nodes_at_level(level) {
                let n = g.node_at(level, pos);
                assert_eq!(g.offset_of(n), pos * size, "node {n}");
            }
        }
    }

    #[test]
    fn byte_ranges_of_children_partition_parent() {
        let g = geo(4096, 64, 4096);
        for n in 1..g.tree_len() / 2 {
            let (ps, pe) = g.byte_range(n);
            let (ls, le) = g.byte_range(g.left_child(n));
            let (rs, re) = g.byte_range(g.right_child(n));
            assert_eq!(ps, ls);
            assert_eq!(le, rs);
            assert_eq!(re, pe);
        }
    }

    #[test]
    fn target_level_picks_smallest_sufficient_chunk() {
        let g = geo(1 << 20, 8, 1 << 14);
        assert_eq!(g.target_level(8), Some(g.depth()));
        assert_eq!(g.target_level(1), Some(g.depth())); // rounded to min_size
        assert_eq!(g.target_level(9), Some(g.depth() - 1));
        assert_eq!(g.target_level(16), Some(g.depth() - 1));
        assert_eq!(g.target_level(1 << 14), Some(g.max_level()));
        assert_eq!(g.target_level((1 << 14) + 1), None);
        assert_eq!(g.target_level(usize::MAX), None);
    }

    #[test]
    fn granted_size_is_at_least_requested() {
        let g = geo(1 << 20, 8, 1 << 14);
        for req in [1usize, 7, 8, 9, 100, 128, 1000, 1024, 5000, 1 << 14] {
            let granted = g.granted_size(req).unwrap();
            assert!(granted >= req, "req {req} granted {granted}");
            assert!(granted.is_power_of_two());
            // Never more than twice the (rounded-up) request.
            assert!(granted < 2 * req.max(8).next_power_of_two());
        }
    }

    #[test]
    fn target_level_respects_max_level() {
        let g = geo(1 << 20, 8, 1 << 14);
        // max_level = log2(2^20 / 2^14) = 6; no allocatable level above it.
        assert_eq!(g.max_level(), 6);
        assert!(g.target_level(1 << 14).unwrap() >= g.max_level());
    }

    #[test]
    fn leaf_and_unit_round_trip() {
        let g = geo(1 << 12, 64, 1 << 12);
        for unit in 0..g.unit_count() {
            let offset = unit * g.min_size();
            assert_eq!(g.unit_of_offset(offset), unit);
            let leaf = g.leaf_of_offset(offset);
            assert_eq!(g.level_of(leaf), g.depth());
            assert_eq!(g.offset_of(leaf), offset);
        }
    }

    #[test]
    fn parent_child_buddy_relationships() {
        let g = geo(1024, 64, 1024);
        assert_eq!(g.parent(2), 1);
        assert_eq!(g.parent(3), 1);
        assert_eq!(g.parent(7), 3);
        assert_eq!(g.buddy(2), 3);
        assert_eq!(g.buddy(3), 2);
        assert_eq!(g.buddy(8), 9);
        assert_eq!(g.left_child(3), 6);
        assert_eq!(g.right_child(3), 7);
    }

    #[test]
    fn ancestor_predicate() {
        let g = geo(1024, 64, 1024);
        assert!(g.is_ancestor_or_self(1, 9));
        assert!(g.is_ancestor_or_self(2, 9));
        assert!(g.is_ancestor_or_self(4, 9));
        assert!(g.is_ancestor_or_self(9, 9));
        assert!(!g.is_ancestor_or_self(3, 9));
        assert!(!g.is_ancestor_or_self(9, 4));
        assert!(!g.is_ancestor_or_self(8, 9));
    }

    #[test]
    fn widened_geometry_rounds_nodes_to_a_power_of_two() {
        let g = geo(1 << 16, 64, 1 << 12);
        assert_eq!(g.widening_shift(), 16);
        for (nodes, slots) in [(1usize, 1usize), (2, 2), (3, 4), (4, 4), (5, 8)] {
            let w = g.widened(nodes).unwrap();
            assert_eq!(w.total_memory(), slots << 16, "{nodes} nodes");
            assert_eq!(w.min_size(), 64);
            assert_eq!(w.max_size(), 1 << 12);
            // Granted sizes are unchanged by widening: a request is always
            // served by one node.
            for req in [1usize, 64, 100, 4096] {
                assert_eq!(w.granted_size(req), g.granted_size(req), "req {req}");
            }
            assert_eq!(w.granted_size(1 << 13), None, "per-node ceiling kept");
        }
    }

    #[test]
    fn widened_geometry_rejects_overflow_and_excess_depth() {
        use crate::error::ConfigError;
        let g = geo(1 << 16, 64, 1 << 12);
        assert!(matches!(
            g.widened(usize::MAX / 4),
            Err(ConfigError::WidenedTotalOverflow { .. })
        ));
        // Depth cap: widening a deep tree past MAX_DEPTH must fail cleanly.
        let deep = geo(1 << 30, 1, 1 << 10);
        assert!(matches!(
            deep.widened(1 << 4),
            Err(ConfigError::TooDeep { .. })
        ));
    }

    #[test]
    fn degenerate_single_leaf_geometry() {
        let g = geo(128, 128, 128);
        assert_eq!(g.depth(), 0);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.tree_len(), 2);
        assert_eq!(g.unit_count(), 1);
        assert_eq!(g.target_level(128), Some(0));
        assert_eq!(g.target_level(1), Some(0));
        assert_eq!(g.offset_of(1), 0);
        assert_eq!(g.size_of(1), 128);
    }
}
