//! Runtime verification of the paper's safety properties.
//!
//! The appendix of the paper proves two safety properties:
//!
//! * **S1** — a successful allocation returns a non-allocated set of memory
//!   addresses coherent with the requested size;
//! * **S2** — a correct invocation of a free releases exactly the memory
//!   targeted by the request;
//!
//! together with the supporting axioms AX1–AX4 (allocations are contiguous,
//! size-aligned, of size `2^H`, and every climb updates all traversed nodes).
//!
//! This module re-checks those properties *dynamically*: given an allocator
//! (through [`TreeInspect`]) and the set of allocations the caller believes
//! are live, [`audit`] validates that the live set is consistent (S1-style
//! non-overlap, alignment, sizing) and that the allocator's metadata agrees
//! with it (every live chunk's node is occupied, every ancestor up to
//! `max_level` reflects the occupancy, and — when the allocator is quiescent —
//! nothing else is marked).  The property-based and stress tests in this
//! crate and in the workspace `tests/` directory drive it after every
//! quiescent point.

use std::collections::BTreeMap;

use crate::status::{is_free, is_occupied, COAL_LEFT, COAL_RIGHT};
use crate::traits::TreeInspect;

/// A single discrepancy found by [`audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A live chunk lies (partly) outside the managed region.
    OutOfRange {
        /// Offending offset.
        offset: usize,
        /// Claimed size.
        size: usize,
    },
    /// A live chunk's offset is not aligned to its granted size (violates AX2).
    Misaligned {
        /// Offending offset.
        offset: usize,
        /// Granted size.
        size: usize,
    },
    /// Two live chunks overlap (violates S1).
    Overlap {
        /// First chunk (offset, size).
        first: (usize, usize),
        /// Second chunk (offset, size).
        second: (usize, usize),
    },
    /// The node that should back a live chunk is not marked occupied.
    NodeNotOccupied {
        /// Tree node index.
        node: usize,
        /// Offset of the chunk.
        offset: usize,
    },
    /// An ancestor of a live chunk (at an allocatable level) appears free.
    AncestorNotMarked {
        /// Ancestor node index.
        ancestor: usize,
        /// Descendant (allocated) node index.
        node: usize,
    },
    /// A node is marked busy although no live chunk explains it
    /// (only reported for quiescent audits).
    StrayOccupancy {
        /// Offending node index.
        node: usize,
        /// Its status byte.
        status: u8,
    },
    /// A coalescing bit survived although the allocator is quiescent.
    StrayCoalescing {
        /// Offending node index.
        node: usize,
        /// Its status byte.
        status: u8,
    },
    /// The `index[]` entry for a live chunk does not point at its node.
    IndexMismatch {
        /// Allocation-unit index.
        unit: usize,
        /// Node recorded in `index[]` (if any).
        recorded: Option<usize>,
        /// Node expected from the live set.
        expected: usize,
    },
}

/// Result of an audit: either clean or a list of violations.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// All violations found.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether the audit found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a readable message if the audit found violations.
    ///
    /// Intended for use in tests:
    /// `audit(&buddy, &live, true).assert_clean();`
    #[track_caller]
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "allocator audit failed with {} violation(s): {:#?}",
            self.violations.len(),
            self.violations
        );
    }
}

/// Audits allocator metadata against a caller-supplied live set.
///
/// * `live` maps chunk offsets to the sizes *requested* (they are rounded to
///   granted sizes internally).
/// * `quiescent` must be `true` only when no allocator operation is in
///   flight; it enables the "nothing else is marked" checks (stray occupancy
///   and leftover coalescing bits), which cannot hold mid-operation.
pub fn audit<T: TreeInspect>(
    alloc: &T,
    live: &BTreeMap<usize, usize>,
    quiescent: bool,
) -> AuditReport {
    let geo = alloc.inspect_geometry();
    let mut report = AuditReport::default();
    let mut chunks: Vec<(usize, usize, usize)> = Vec::with_capacity(live.len()); // (offset, granted, node)

    // --- live-set internal consistency (S1, AX1–AX3) -----------------------
    for (&offset, &requested) in live {
        let granted = match geo.granted_size(requested) {
            Some(g) => g,
            None => {
                report.violations.push(Violation::OutOfRange {
                    offset,
                    size: requested,
                });
                continue;
            }
        };
        if offset + granted > geo.total_memory() {
            report.violations.push(Violation::OutOfRange {
                offset,
                size: granted,
            });
            continue;
        }
        if offset % granted != 0 {
            report.violations.push(Violation::Misaligned {
                offset,
                size: granted,
            });
        }
        let level = geo.target_level(requested).expect("validated above");
        let node = geo.node_at(level, offset / geo.size_of_level(level));
        chunks.push((offset, granted, node));
    }

    chunks.sort_unstable();
    for pair in chunks.windows(2) {
        let (o1, s1, _) = pair[0];
        let (o2, s2, _) = pair[1];
        if o1 + s1 > o2 {
            report.violations.push(Violation::Overlap {
                first: (o1, s1),
                second: (o2, s2),
            });
        }
    }

    // --- metadata agrees with the live set ---------------------------------
    for &(offset, _granted, node) in &chunks {
        let status = alloc.node_status(node);
        if !is_occupied(status) {
            report
                .violations
                .push(Violation::NodeNotOccupied { node, offset });
        }
        // Every proper ancestor within the allocatable range must be non-free
        // so that no other allocation can grab a covering chunk.
        let mut anc = node;
        while anc > 1 && geo.level_of(anc) > geo.max_level() {
            anc >>= 1;
            if geo.level_of(anc) < geo.max_level() {
                break;
            }
            if is_free(alloc.node_status(anc)) {
                report.violations.push(Violation::AncestorNotMarked {
                    ancestor: anc,
                    node,
                });
            }
        }
        // index[] must route a future free of this offset back to `node`.
        let unit = geo.unit_of_offset(offset);
        match alloc.recorded_node_of_unit(unit) {
            Some(recorded) if recorded == node => {}
            other => report.violations.push(Violation::IndexMismatch {
                unit,
                recorded: other,
                expected: node,
            }),
        }
    }

    // --- quiescent-only: nothing unexplained is marked ---------------------
    if quiescent {
        for n in 1..geo.tree_len() {
            let status = alloc.node_status(n);
            if status == 0 {
                continue;
            }
            // A coalescing bit may legitimately persist at quiescence on a
            // branch that still contains live chunks: the 4-level variant's
            // release climb must mark the coalescing bit on the ancestor
            // boundary *before* it can tell whether other chunks in the
            // bunch keep the branch busy (the bunch fold packs that
            // information into a different word, so the two cannot be
            // checked atomically), and the matching unmark then correctly
            // refuses to climb while the branch is occupied.  The bit is
            // cleared together with the occupancy bits by the release of
            // the branch's last chunk, so on an *empty* branch it is stray.
            for (coal_bit, child) in [(COAL_LEFT, n << 1), (COAL_RIGHT, (n << 1) | 1)] {
                if status & coal_bit == 0 {
                    continue;
                }
                let branch_live = child < geo.tree_len()
                    && chunks
                        .iter()
                        .any(|&(_, _, node)| geo.is_ancestor_or_self(child, node));
                if !branch_live {
                    report
                        .violations
                        .push(Violation::StrayCoalescing { node: n, status });
                }
            }
            if !is_free(status) {
                // Busy is legitimate iff this node is an allocated chunk or it
                // is related (ancestor or descendant) to one.
                let explained = chunks.iter().any(|&(_, _, node)| {
                    geo.is_ancestor_or_self(n, node) || geo.is_ancestor_or_self(node, n)
                });
                if !explained {
                    report
                        .violations
                        .push(Violation::StrayOccupancy { node: n, status });
                }
            }
        }
    }

    report
}

/// Convenience helper: audit an allocator expected to be completely empty.
pub fn audit_empty<T: TreeInspect>(alloc: &T) -> AuditReport {
    audit(alloc, &BTreeMap::new(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::suite::buddy_first_fit;
    use crate::{NbbsFourLevel, NbbsOneLevel};

    fn one(total: usize, min: usize, max: usize) -> NbbsOneLevel {
        buddy_first_fit(total, min, max)
    }

    fn four(total: usize, min: usize, max: usize) -> NbbsFourLevel {
        buddy_first_fit(total, min, max)
    }

    #[test]
    fn empty_allocators_audit_clean() {
        audit_empty(&one(1 << 12, 8, 1 << 12)).assert_clean();
        audit_empty(&four(1 << 12, 8, 1 << 12)).assert_clean();
    }

    #[test]
    fn live_allocations_audit_clean_one_level() {
        let b = one(1 << 14, 8, 1 << 10);
        let mut live = BTreeMap::new();
        for &size in &[8usize, 100, 1024, 64, 512] {
            let off = b.alloc(size).unwrap();
            live.insert(off, size);
        }
        audit(&b, &live, true).assert_clean();
        for &off in live.keys() {
            b.dealloc(off);
        }
        audit_empty(&b).assert_clean();
    }

    #[test]
    fn live_allocations_audit_clean_four_level() {
        let b = four(1 << 14, 8, 1 << 10);
        let mut live = BTreeMap::new();
        for &size in &[8usize, 100, 1024, 64, 512, 16, 16] {
            let off = b.alloc(size).unwrap();
            live.insert(off, size);
        }
        audit(&b, &live, true).assert_clean();
        for &off in live.keys() {
            b.dealloc(off);
        }
        audit_empty(&b).assert_clean();
    }

    #[test]
    fn missing_live_entry_is_reported_as_stray() {
        let b = one(1 << 12, 8, 1 << 12);
        let _off = b.alloc(64).unwrap();
        // We "forget" to tell the auditor about the allocation.
        let report = audit(&b, &BTreeMap::new(), true);
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StrayOccupancy { .. })));
    }

    #[test]
    fn phantom_live_entry_is_reported() {
        let b = one(1 << 12, 8, 1 << 12);
        // Claim something is live that was never allocated.
        let mut live = BTreeMap::new();
        live.insert(256, 128usize);
        let report = audit(&b, &live, true);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NodeNotOccupied { .. })));
    }

    #[test]
    fn overlapping_live_set_is_reported() {
        let b = one(1 << 12, 8, 1 << 12);
        // The live set itself is contradictory; the auditor must notice even
        // before looking at the allocator.
        let mut live = BTreeMap::new();
        live.insert(0, 1024usize);
        live.insert(512, 64usize);
        let report = audit(&b, &live, false);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Overlap { .. })));
    }

    #[test]
    fn out_of_range_and_misaligned_entries_are_reported() {
        let b = one(1 << 12, 8, 1 << 12);
        let mut live = BTreeMap::new();
        live.insert(1 << 12, 8usize); // starts exactly at the end
        live.insert(24, 64usize); // 64-byte chunk cannot start at offset 24
        let report = audit(&b, &live, false);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OutOfRange { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Misaligned { .. })));
    }

    #[test]
    fn audit_report_panics_with_context() {
        let b = one(1 << 12, 8, 1 << 12);
        let _off = b.alloc(64).unwrap();
        let report = audit(&b, &BTreeMap::new(), true);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            report.assert_clean();
        }));
        assert!(result.is_err());
    }

    #[test]
    fn quiescent_flag_gates_stray_checks() {
        let b = one(1 << 12, 8, 1 << 12);
        let _off = b.alloc(64).unwrap();
        // Non-quiescent audits skip the stray-occupancy sweep entirely.
        let report = audit(&b, &BTreeMap::new(), false);
        assert!(report.is_clean());
    }
}
