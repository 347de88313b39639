//! The one snapshot of an allocator stack.
//!
//! Each layer keeps its own counters — `OpStatsSnapshot` (tree),
//! `CacheStatsSnapshot` and magazine capacities (cache), fragmentation
//! counters (slab), buddy/system byte shares and realloc counters (shell),
//! committed memory (region).  [`StackSnapshot::of`] reads what a
//! `dyn BuddyBackend` reports, plus the latency histograms of a
//! [`Recorder`], into one typed [`StackSnapshot`] with a single text table,
//! so every binary in the workspace reports identically.  The figures no
//! backend reports (the shell's, the region's) are plain fields the caller
//! sets.
//!
//! The crate sits *below* `nbbs-cache`/`nbbs-numa`/`nbbs-alloc` in the
//! dependency graph; every layer's snapshot type is declared in
//! [`nbbs::stats`], which all of them depend on, so the snapshot takes the
//! very values the layers filled in.

use nbbs::{
    BuddyBackend, CacheStatsSnapshot, FragStatsSnapshot, MemoryStatsSnapshot, OccupancySnapshot,
    OpStatsSnapshot, ShellStatsSnapshot, CAS_LEVELS,
};

use crate::hist::LatencyPercentiles;
use crate::recorder::{OpKind, Recorder};

/// Everything one allocator stack reports, in one typed value.
#[derive(Debug, Default, Clone)]
pub struct StackSnapshot {
    /// Stack label (allocator name, binary name, …).
    pub label: String,
    /// The backend tree's operation counters (zeros without `op-stats`).
    pub backend_ops: OpStatsSnapshot,
    /// Magazine-cache counters, if the stack has a cache layer.
    pub cache: Option<CacheStatsSnapshot>,
    /// Converged per-class magazine capacities, if the stack has a cache.
    pub capacities: Option<Vec<(usize, usize)>>,
    /// Per-class fragmentation counters, if the stack has a slab layer
    /// (committed-over-requested ratio, live pages, passthrough traffic).
    pub frag: Option<FragStatsSnapshot>,
    /// The global shell's byte shares and realloc counters, if it reports
    /// them.
    pub shell: Option<ShellStatsSnapshot>,
    /// Tree occupancy (per-level fill, free-block runs, external
    /// fragmentation), if the backend exposes a status tree.
    pub occupancy: Option<OccupancySnapshot>,
    /// Committed-versus-managed memory figures and decommit-scrubber
    /// counters, if the stack owns a [`nbbs::BuddyRegion`].
    pub memory: Option<MemoryStatsSnapshot>,
    /// Tail-latency summaries per recorded operation kind (only kinds with
    /// at least one sample appear; ordered by [`OpKind::ALL`]).
    pub latency: Vec<(OpKind, LatencyPercentiles)>,
}

impl StackSnapshot {
    /// The snapshot of the stack `backend` heads: everything it reports
    /// (operation counters, cache counters, magazine capacities, slab
    /// fragmentation counters, occupancy), and the percentiles of every
    /// kind `recorder` holds samples of.  `shell` and `memory` stay `None`.
    ///
    /// ```
    /// use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
    /// use nbbs_obs::StackSnapshot;
    ///
    /// let tree = NbbsFourLevel::new(BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap());
    /// let a = tree.alloc(100).unwrap();
    /// tree.dealloc(a);
    ///
    /// let snap = StackSnapshot::of("example", &tree, None);
    /// assert!(snap.occupancy.is_some());
    /// assert!(snap.text_table().starts_with("== nbbs stack: example =="));
    /// ```
    pub fn of(label: &str, backend: &dyn BuddyBackend, recorder: Option<&Recorder>) -> Self {
        let latency = recorder.map_or_else(Vec::new, |rec| {
            OpKind::ALL
                .into_iter()
                .map(|kind| (kind, rec.snapshot(kind)))
                .filter(|(_, snap)| !snap.is_empty())
                .map(|(kind, snap)| (kind, snap.percentiles()))
                .collect()
        });
        StackSnapshot {
            label: label.to_string(),
            backend_ops: backend.stats(),
            cache: backend.cache_stats(),
            capacities: backend.cache_class_capacities(),
            frag: backend.frag_stats(),
            shell: None,
            occupancy: backend.occupancy(),
            memory: None,
            latency,
        }
    }

    /// The latency summary of one kind, if it recorded any samples.
    pub fn latency_of(&self, kind: OpKind) -> Option<&LatencyPercentiles> {
        self.latency
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| p)
    }

    /// Renders the snapshot as an aligned text table — the one report
    /// format every binary in the workspace prints.
    pub fn text_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== nbbs stack: {} ==", self.label);
        if let Some(f) = &self.shell {
            // The buddy figure is the shell's requested-bytes odometer.
            if f.requested_bytes + f.system_bytes > 0 {
                let _ = writeln!(
                    out,
                    "  shell    {} B buddy / {} B system ({:.1}% buddy share)",
                    f.requested_bytes,
                    f.system_bytes,
                    f.buddy_share() * 100.0
                );
            }
            let _ = writeln!(
                out,
                "  shell    realloc: {} grows in place, {} moved ({:.1}% in place); \
                 {} shrinks in place, {} moved",
                f.grows_in_place,
                f.grows_moved,
                f.grow_in_place_rate() * 100.0,
                f.shrinks_in_place,
                f.shrinks_moved
            );
            if f.requested_bytes > 0 {
                let _ = writeln!(
                    out,
                    "  shell    {:.2} granted/requested ({} B granted over {} B asked)",
                    f.granted_over_requested(),
                    f.granted_bytes,
                    f.requested_bytes
                );
            }
            if f.system_failovers > 0 {
                let _ = writeln!(
                    out,
                    "  shell    degraded: {} system failovers",
                    f.system_failovers
                );
            }
        }
        if let Some(frag) = &self.frag {
            let _ = writeln!(
                out,
                "  slab     {:.2} committed/requested ({} B over {} B), {} live objects, \
                 {} pages live, {} retired, {} passthrough",
                frag.ratio(),
                frag.bytes_committed(),
                frag.bytes_requested(),
                frag.live_objects(),
                frag.pages_live,
                frag.pages_retired,
                frag.passthrough_allocs
            );
        }
        if let Some(c) = &self.cache {
            let _ = writeln!(
                out,
                "  cache    {:.1}% hit rate over {} allocations \
                 ({} refilled, {} flushed, {} drained)",
                c.hit_rate() * 100.0,
                c.alloc_requests(),
                c.refilled,
                c.flushed,
                c.drained
            );
            let _ = writeln!(
                out,
                "  cache    depot: {} exchanges over {} shards, {} spills; \
                 {} capacity grows",
                c.depot_exchanges, c.depot_shards, c.depot_spills, c.resize_grows
            );
        }
        if let Some(caps) = &self.capacities {
            let rendered: Vec<String> = caps
                .iter()
                .map(|(class, cap)| format!("{class}B\u{d7}{cap}"))
                .collect();
            let _ = writeln!(
                out,
                "  cache    magazine capacities: {}",
                rendered.join(" ")
            );
        }
        let ops = &self.backend_ops;
        if ops.allocs + ops.frees + ops.cas_ops != 0 {
            let _ = writeln!(
                out,
                "  backend  {} allocs, {} frees, {} failed; {} CAS \
                 ({:.2} per op, {:.1}% failed), {} skipped",
                ops.allocs,
                ops.frees,
                ops.failed_allocs,
                ops.cas_ops,
                ops.cas_per_op(),
                ops.cas_failure_rate() * 100.0,
                ops.nodes_skipped
            );
        }
        if ops.has_level_contention() {
            let last = (0..CAS_LEVELS)
                .rev()
                .find(|&i| ops.cas_failures_by_level[i] != 0)
                .unwrap_or(0);
            let bins: Vec<String> = (0..=last)
                .map(|i| format!("L{i}:{}", ops.cas_failures_by_level[i]))
                .collect();
            let _ = writeln!(out, "  backend  CAS failures by level: {}", bins.join(" "));
        }
        if let Some(occ) = &self.occupancy {
            let heat: Vec<String> = occ
                .levels
                .iter()
                .map(|l| format!("{}:{:>3.0}%", fmt_size(l.chunk_size), l.fill() * 100.0))
                .collect();
            let _ = writeln!(out, "  tree     occupancy by chunk: {}", heat.join(" "));
            let _ = writeln!(
                out,
                "  tree     free: {} B in {} run(s), largest {} B \
                 (external frag {:.2})",
                occ.total_free_bytes,
                occ.free_blocks,
                occ.largest_free_block,
                occ.external_frag()
            );
        }
        if let Some(m) = &self.memory {
            let _ = writeln!(
                out,
                "  memory   {} B committed of {} B managed ({:.1}%), {} B decommitted",
                m.committed_bytes,
                m.managed_bytes,
                m.committed_ratio() * 100.0,
                m.decommitted_bytes
            );
            if m.scrub_passes + m.trimmed_pages > 0 {
                let _ = writeln!(
                    out,
                    "  scrub    {} passes: {} blocks / {} B decommitted in {} calls, \
                     {} B of metadata, {} B recommitted, {} pages trimmed",
                    m.scrub_passes,
                    m.scrub_blocks,
                    m.scrub_bytes,
                    m.decommit_calls,
                    m.metadata_decommitted_bytes,
                    m.recommitted_bytes,
                    m.trimmed_pages
                );
            }
        }
        for (kind, p) in &self.latency {
            let _ = writeln!(
                out,
                "  latency  {:<12} p50 {:>8} p90 {:>8} p99 {:>8} p99.9 {:>8} max {:>8} \
                 (n={})",
                kind.name(),
                fmt_ns(p.p50_ns),
                fmt_ns(p.p90_ns),
                fmt_ns(p.p99_ns),
                fmt_ns(p.p999_ns),
                fmt_ns(p.max_ns),
                p.count
            );
        }
        out
    }
}

/// Formats a byte size compactly for the occupancy heatmap row.
fn fmt_size(bytes: usize) -> String {
    if bytes >= (1 << 20) && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= (1 << 10) && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

/// Formats a nanosecond figure for the text table (`-` for NaN).
fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "-".to_string()
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::OpOutcome;
    use nbbs::{BuddyConfig, NbbsFourLevel};

    /// A snapshot labelled `label` that reports nothing.
    fn bare(label: &str) -> StackSnapshot {
        StackSnapshot {
            label: label.to_string(),
            ..StackSnapshot::default()
        }
    }

    #[test]
    fn snapshot_unifies_every_layer() {
        let rec = Recorder::new();
        rec.record_cycles(OpKind::Alloc, 120, 7, OpOutcome::Ok);
        rec.record_cycles(OpKind::Free, 80, 7, OpOutcome::Ok);
        let tree = NbbsFourLevel::new(BuddyConfig::new(1 << 16, 64, 1 << 12).unwrap());
        let snap = StackSnapshot {
            backend_ops: OpStatsSnapshot {
                allocs: 10,
                frees: 9,
                cas_ops: 40,
                cas_failures: 4,
                ..Default::default()
            },
            cache: Some(CacheStatsSnapshot {
                hits: 90,
                misses: 10,
                refilled: 10,
                depot_shards: 4,
                ..Default::default()
            }),
            capacities: Some(vec![(64, 8), (128, 16)]),
            shell: Some(ShellStatsSnapshot {
                requested_bytes: 1000,
                grows_in_place: 3,
                grows_moved: 1,
                system_failovers: 2,
                ..Default::default()
            }),
            ..StackSnapshot::of("unit", &tree, Some(&rec))
        };
        assert_eq!(snap.latency.len(), 2, "alloc and free recorded");
        assert_eq!(snap.latency_of(OpKind::Alloc).map(|p| p.count), Some(1));
        assert!(snap.latency_of(OpKind::Grow).is_none());

        let table = snap.text_table();
        assert!(table.contains("== nbbs stack: unit =="), "{table}");
        assert!(table.contains("100.0% buddy share"), "{table}");
        assert!(table.contains("90.0% hit rate"), "{table}");
        assert!(
            table.contains("magazine capacities: 64B\u{d7}8 128B\u{d7}16"),
            "{table}"
        );
        assert!(table.contains("latency  alloc"), "{table}");
        assert!(table.contains("10 allocs"), "{table}");
        assert!(table.contains("degraded: 2 system failovers\n"), "{table}");
        assert!(table.contains("occupancy by chunk"), "{table}");
    }

    #[test]
    fn empty_registry_renders_minimal_output() {
        let tree = NbbsFourLevel::new(BuddyConfig::new(1 << 16, 64, 1 << 12).unwrap());
        let snap = StackSnapshot::of("bare", &tree, Some(&Recorder::new()));
        assert!(snap.cache.is_none() && snap.shell.is_none() && snap.memory.is_none());
        assert!(snap.latency.is_empty(), "no kind recorded a sample");
        let table = bare("bare").text_table();
        assert!(table.contains("bare"));
        assert!(!table.contains("shell"), "no shell section: {table}");
        assert!(!table.contains("cache"), "no cache section: {table}");
        assert!(!table.contains("latency"), "no latency section: {table}");
    }

    #[test]
    fn frag_counters_render_when_present() {
        let snap = StackSnapshot {
            frag: Some(FragStatsSnapshot {
                classes: vec![nbbs::FragClassSnapshot {
                    class_size: 40,
                    bytes_requested: 400,
                    bytes_committed: 440,
                    live_objects: 3,
                }],
                pages_live: 2,
                pages_retired: 1,
                passthrough_allocs: 7,
            }),
            ..bare("slab")
        };
        let table = snap.text_table();
        assert!(
            table.contains("slab     1.10 committed/requested"),
            "{table}"
        );
        assert!(
            table.contains("2 pages live, 1 retired, 7 passthrough"),
            "{table}"
        );
        // Slab-free stacks carry no frag section at all.
        assert!(!bare("bare").text_table().contains("slab"));
    }

    #[test]
    fn occupancy_and_request_accounting_render() {
        let tree = NbbsFourLevel::new(BuddyConfig::new(1 << 16, 64, 1 << 12).unwrap());
        let hold = tree.alloc(4096).unwrap();
        let snap = StackSnapshot {
            shell: Some(ShellStatsSnapshot {
                requested_bytes: 4000,
                granted_bytes: 4096,
                ..Default::default()
            }),
            ..StackSnapshot::of("occ", &tree, None)
        };
        let occ = snap.occupancy.as_ref().expect("trees report occupancy");
        assert_eq!(occ.total_free_bytes, (1 << 16) - 4096);
        let table = snap.text_table();
        assert!(table.contains("occupancy by chunk: 4K:"), "{table}");
        assert!(table.contains("external frag"), "{table}");
        assert!(table.contains("1.02 granted/requested"), "{table}");
        tree.dealloc(hold);
        // Backends without a tree stay silent.
        assert!(!bare("bare").text_table().contains("tree "));
    }

    #[test]
    fn memory_and_scrub_sections_render_when_present() {
        let snap = StackSnapshot {
            memory: Some(MemoryStatsSnapshot {
                managed_bytes: 1 << 20,
                committed_bytes: 1 << 18,
                decommitted_bytes: (1 << 20) - (1 << 18),
                scrub_passes: 3,
                scrub_blocks: 12,
                scrub_bytes: 786_432,
                decommit_calls: 4,
                recommitted_bytes: 4096,
                metadata_decommitted_bytes: 8192,
                trimmed_pages: 2,
            }),
            ..bare("mem")
        };
        let table = snap.text_table();
        assert!(
            table.contains("memory   262144 B committed of 1048576 B managed (25.0%)"),
            "{table}"
        );
        assert!(table.contains("scrub    3 passes"), "{table}");
        assert!(table.contains("decommitted in 4 calls"), "{table}");
        assert!(table.contains("8192 B of metadata"), "{table}");
        assert!(table.contains("2 pages trimmed"), "{table}");
        // Regions that never scrubbed hide the scrub row but keep the gauge.
        let quiet = StackSnapshot {
            memory: Some(MemoryStatsSnapshot {
                managed_bytes: 4096,
                committed_bytes: 4096,
                ..Default::default()
            }),
            ..bare("quiet")
        };
        let table = quiet.text_table();
        assert!(table.contains("memory   4096 B committed"), "{table}");
        assert!(!table.contains("scrub "), "{table}");
        // Stacks without a region stay silent.
        assert!(!bare("bare").text_table().contains("memory"));
    }

    #[test]
    fn fmt_size_picks_natural_units() {
        assert_eq!(fmt_size(64), "64B");
        assert_eq!(fmt_size(4096), "4K");
        assert_eq!(fmt_size(1 << 21), "2M");
        assert_eq!(fmt_size(1536), "1536B");
    }

    #[test]
    fn level_contention_appears_when_present() {
        let mut ops = OpStatsSnapshot::default();
        ops.cas_failures_by_level[2] = 5;
        ops.cas_ops = 10;
        let snap = StackSnapshot {
            backend_ops: ops,
            ..bare("heat")
        };
        assert!(snap.text_table().contains("L2:5"), "{}", snap.text_table());
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(f64::NAN), "-");
        assert_eq!(fmt_ns(512.0), "512ns");
        assert_eq!(fmt_ns(2_500.0), "2.50us");
        assert_eq!(fmt_ns(3_200_000.0), "3.20ms");
    }
}
