//! The unified metrics registry.
//!
//! Each layer keeps its own counters — `OpStatsSnapshot` (tree),
//! `CacheStatsSnapshot` and magazine capacities (cache), fragmentation
//! counters (slab), buddy/system byte shares and realloc counters (shell),
//! committed memory (region).
//! [`MetricsRegistry`] collects all of them, plus the latency histograms of
//! an attached [`Recorder`], into one typed [`StackSnapshot`] with a single
//! text-table and a single hand-rolled JSON exposition, so every binary in
//! the workspace reports identically.
//!
//! The crate sits *below* `nbbs-cache`/`nbbs-numa`/`nbbs-alloc` in the
//! dependency graph; every layer's snapshot type is declared in
//! [`nbbs::stats`], which all of them depend on, so the registry takes the
//! very values the layers filled in.

use std::sync::Arc;

use nbbs::{
    BuddyBackend, CacheStatsSnapshot, FacadeStatsSnapshot, FragStatsSnapshot, MemoryStatsSnapshot,
    OccupancySnapshot, OpStatsSnapshot, CAS_LEVELS,
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
    /// The shell's byte shares and realloc counters, if it reports them.
    pub facade: Option<FacadeStatsSnapshot>,
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
        if let Some(f) = &self.facade {
            // The buddy figure is the shell's requested-bytes odometer.
            if f.requested_bytes + f.system_bytes > 0 {
                let _ = writeln!(
                    out,
                    "  facade   {} B buddy / {} B system ({:.1}% buddy share)",
                    f.requested_bytes,
                    f.system_bytes,
                    f.buddy_share() * 100.0
                );
            }
            let _ = writeln!(
                out,
                "  facade   realloc: {} grows in place, {} moved ({:.1}% in place); \
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
                    "  facade   {:.2} granted/requested ({} B granted over {} B asked)",
                    f.granted_over_requested(),
                    f.granted_bytes,
                    f.requested_bytes
                );
            }
            if f.system_failovers > 0 {
                let _ = writeln!(
                    out,
                    "  facade   degraded: {} system failovers",
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

    /// Renders the snapshot as one JSON object (one line, no trailing
    /// newline): the machine-readable twin of
    /// [`StackSnapshot::text_table`], for a program that logs what the
    /// global shell's `metrics()` returns.  No file is written from it.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"label\":\"{}\"", crate::json::esc(&self.label));
        let ops = &self.backend_ops;
        let _ = write!(
            out,
            ",\"backend_ops\":{{\"allocs\":{},\"frees\":{},\"failed_allocs\":{},\
             \"cas_ops\":{},\"cas_failures\":{},\"nodes_skipped\":{}",
            ops.allocs,
            ops.frees,
            ops.failed_allocs,
            ops.cas_ops,
            ops.cas_failures,
            ops.nodes_skipped
        );
        if ops.has_level_contention() {
            let bins: Vec<String> = ops
                .cas_failures_by_level
                .iter()
                .map(|c| c.to_string())
                .collect();
            let _ = write!(out, ",\"cas_failures_by_level\":[{}]", bins.join(","));
        }
        out.push('}');
        if let Some(c) = &self.cache {
            let _ = write!(
                out,
                ",\"cache\":{{\"hits\":{},\"misses\":{},\"cached_frees\":{},\"flushed\":{},\
                 \"refilled\":{},\"depot_exchanges\":{},\"drained\":{},\"depot_spills\":{},\
                 \"resize_grows\":{},\
                 \"orphan_rescues\":{},\"depot_shards\":{}}}",
                c.hits,
                c.misses,
                c.cached_frees,
                c.flushed,
                c.refilled,
                c.depot_exchanges,
                c.drained,
                c.depot_spills,
                c.resize_grows,
                c.orphan_rescues,
                c.depot_shards
            );
        }
        if let Some(caps) = &self.capacities {
            let rendered: Vec<String> = caps
                .iter()
                .map(|(class, cap)| format!("[{class},{cap}]"))
                .collect();
            let _ = write!(out, ",\"magazine_capacities\":[{}]", rendered.join(","));
        }
        if let Some(frag) = &self.frag {
            let classes: Vec<String> = frag
                .classes
                .iter()
                .map(|c| {
                    format!(
                        "{{\"class_size\":{},\"bytes_requested\":{},\"bytes_committed\":{},\
                         \"live_objects\":{}}}",
                        c.class_size, c.bytes_requested, c.bytes_committed, c.live_objects
                    )
                })
                .collect();
            let _ = write!(
                out,
                ",\"frag\":{{\"ratio\":{},\"bytes_requested\":{},\"bytes_committed\":{},\
                 \"pages_live\":{},\"pages_retired\":{},\"passthrough_allocs\":{},\
                 \"classes\":[{}]}}",
                crate::json::num(frag.ratio()),
                frag.bytes_requested(),
                frag.bytes_committed(),
                frag.pages_live,
                frag.pages_retired,
                frag.passthrough_allocs,
                classes.join(",")
            );
        }
        if let Some(f) = &self.facade {
            let _ = write!(
                out,
                ",\"facade\":{{\"buddy_bytes\":{},\"system_bytes\":{},\"grows_in_place\":{},\
                 \"grows_moved\":{},\"shrinks_in_place\":{},\"shrinks_moved\":{},\
                 \"system_failovers\":{},\
                 \"requested_bytes\":{},\"granted_bytes\":{},\"granted_over_requested\":{}}}",
                f.requested_bytes,
                f.system_bytes,
                f.grows_in_place,
                f.grows_moved,
                f.shrinks_in_place,
                f.shrinks_moved,
                f.system_failovers,
                f.requested_bytes,
                f.granted_bytes,
                crate::json::num(f.granted_over_requested())
            );
        }
        if let Some(occ) = &self.occupancy {
            let levels: Vec<String> = occ
                .levels
                .iter()
                .map(|l| {
                    format!(
                        "{{\"chunk_size\":{},\"nodes\":{},\"free\":{},\"occupied\":{},\
                         \"busy\":{},\"fill\":{}}}",
                        l.chunk_size,
                        l.nodes,
                        l.free,
                        l.occupied,
                        l.busy,
                        crate::json::num(l.fill())
                    )
                })
                .collect();
            let _ = write!(
                out,
                ",\"occupancy\":{{\"total_free_bytes\":{},\"largest_free_block\":{},\
                 \"free_blocks\":{},\"external_frag\":{},\"merged_trees\":{},\
                 \"levels\":[{}]}}",
                occ.total_free_bytes,
                occ.largest_free_block,
                occ.free_blocks,
                crate::json::num(occ.external_frag()),
                occ.merged_trees,
                levels.join(",")
            );
        }
        if let Some(m) = &self.memory {
            let _ = write!(
                out,
                ",\"memory\":{{\"managed_bytes\":{},\"committed_bytes\":{},\
                 \"decommitted_bytes\":{},\"committed_ratio\":{},\"scrub_passes\":{},\
                 \"scrub_blocks\":{},\"scrub_bytes\":{},\"decommit_calls\":{},\
                 \"metadata_decommitted_bytes\":{},\"recommitted_bytes\":{},\
                 \"trimmed_pages\":{}}}",
                m.managed_bytes,
                m.committed_bytes,
                m.decommitted_bytes,
                crate::json::num(m.committed_ratio()),
                m.scrub_passes,
                m.scrub_blocks,
                m.scrub_bytes,
                m.decommit_calls,
                m.metadata_decommitted_bytes,
                m.recommitted_bytes,
                m.trimmed_pages
            );
        }
        if !self.latency.is_empty() {
            let rendered: Vec<String> = self
                .latency
                .iter()
                .map(|(k, p)| format!("\"{}\":{}", k.name(), p.to_json()))
                .collect();
            let _ = write!(out, ",\"latency\":{{{}}}", rendered.join(","));
        }
        out.push('}');
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

/// Collects the per-layer snapshots of one allocator stack and produces
/// [`StackSnapshot`]s.
///
/// ```
/// use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
/// use nbbs_obs::MetricsRegistry;
///
/// let tree = NbbsFourLevel::new(BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap());
/// let a = tree.alloc(100).unwrap();
/// tree.dealloc(a);
///
/// let mut reg = MetricsRegistry::new("example");
/// reg.observe_backend(&tree);
/// let snap = reg.snapshot();
/// println!("{}", snap.text_table());
/// assert!(snap.to_json().starts_with("{\"label\":\"example\""));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    label: String,
    backend_ops: OpStatsSnapshot,
    cache: Option<CacheStatsSnapshot>,
    capacities: Option<Vec<(usize, usize)>>,
    frag: Option<FragStatsSnapshot>,
    facade: Option<FacadeStatsSnapshot>,
    occupancy: Option<OccupancySnapshot>,
    memory: Option<MemoryStatsSnapshot>,
    recorder: Option<Arc<Recorder>>,
}

impl MetricsRegistry {
    /// Creates an empty registry for the stack called `label`.
    pub fn new(label: impl Into<String>) -> Self {
        MetricsRegistry {
            label: label.into(),
            ..Default::default()
        }
    }

    /// Pulls everything a `dyn BuddyBackend` exposes: operation counters,
    /// cache counters, magazine capacities and slab fragmentation counters.
    pub fn observe_backend(&mut self, backend: &dyn BuddyBackend) -> &mut Self {
        self.backend_ops = backend.stats();
        self.cache = backend.cache_stats();
        self.capacities = backend.cache_class_capacities();
        self.frag = backend.frag_stats();
        self.occupancy = backend.occupancy();
        self
    }

    /// Sets the backend operation counters directly.
    pub fn set_backend_ops(&mut self, ops: OpStatsSnapshot) -> &mut Self {
        self.backend_ops = ops;
        self
    }

    /// Sets the cache counters directly.
    pub fn set_cache(&mut self, cache: Option<CacheStatsSnapshot>) -> &mut Self {
        self.cache = cache;
        self
    }

    /// Sets the per-class magazine capacities directly.
    pub fn set_capacities(&mut self, caps: Option<Vec<(usize, usize)>>) -> &mut Self {
        self.capacities = caps;
        self
    }

    /// Sets the slab layer's fragmentation counters directly.
    pub fn set_frag(&mut self, frag: Option<FragStatsSnapshot>) -> &mut Self {
        self.frag = frag;
        self
    }

    /// Sets the facade byte shares and realloc counters.
    pub fn set_facade(&mut self, facade: FacadeStatsSnapshot) -> &mut Self {
        self.facade = Some(facade);
        self
    }

    /// Sets the committed-memory and scrubber figures (from
    /// `BuddyRegion::memory_stats`).
    pub fn set_memory(&mut self, memory: Option<MemoryStatsSnapshot>) -> &mut Self {
        self.memory = memory;
        self
    }

    /// Attaches the stack's latency recorder; its histograms are merged
    /// into every subsequent [`MetricsRegistry::snapshot`].
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) -> &mut Self {
        self.recorder = Some(recorder);
        self
    }

    /// Produces the unified snapshot (histograms are merged now).
    pub fn snapshot(&self) -> StackSnapshot {
        let mut latency = Vec::new();
        if let Some(rec) = &self.recorder {
            for kind in OpKind::ALL {
                let snap = rec.snapshot(kind);
                if !snap.is_empty() {
                    latency.push((kind, snap.percentiles()));
                }
            }
        }
        StackSnapshot {
            label: self.label.clone(),
            backend_ops: self.backend_ops,
            cache: self.cache,
            capacities: self.capacities.clone(),
            frag: self.frag.clone(),
            facade: self.facade,
            occupancy: self.occupancy.clone(),
            memory: self.memory,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::OpOutcome;

    #[test]
    fn snapshot_unifies_every_layer() {
        let rec = Arc::new(Recorder::new());
        rec.record_cycles(OpKind::Alloc, 120, 7, OpOutcome::Ok);
        rec.record_cycles(OpKind::Free, 80, 7, OpOutcome::Ok);
        let mut reg = MetricsRegistry::new("unit");
        reg.set_backend_ops(OpStatsSnapshot {
            allocs: 10,
            frees: 9,
            cas_ops: 40,
            cas_failures: 4,
            ..Default::default()
        })
        .set_cache(Some(CacheStatsSnapshot {
            hits: 90,
            misses: 10,
            refilled: 10,
            depot_shards: 4,
            ..Default::default()
        }))
        .set_capacities(Some(vec![(64, 8), (128, 16)]))
        .set_facade(FacadeStatsSnapshot {
            requested_bytes: 1000,
            grows_in_place: 3,
            grows_moved: 1,
            system_failovers: 2,
            ..Default::default()
        })
        .set_recorder(Arc::clone(&rec));
        let snap = reg.snapshot();
        assert_eq!(snap.latency.len(), 2, "alloc and free recorded");
        assert!(snap.latency_of(OpKind::Alloc).is_some());
        assert!(snap.latency_of(OpKind::Grow).is_none());

        let table = snap.text_table();
        assert!(table.contains("== nbbs stack: unit =="), "{table}");
        assert!(table.contains("100.0% buddy share"), "{table}");
        assert!(table.contains("90.0% hit rate"), "{table}");
        assert!(table.contains("latency  alloc"), "{table}");
        assert!(table.contains("10 allocs"), "{table}");
        assert!(table.contains("degraded: 2 system failovers\n"), "{table}");

        let json = snap.to_json();
        assert!(json.starts_with("{\"label\":\"unit\""), "{json}");
        assert!(json.contains("\"cache\":{\"hits\":90"), "{json}");
        assert!(json.contains("\"facade\":{\"buddy_bytes\":1000"), "{json}");
        assert!(json.contains("\"system_failovers\":2"), "{json}");
        assert!(json.contains("\"orphan_rescues\":0"), "{json}");
        assert!(
            json.contains("\"latency\":{\"alloc\":{\"count\":1"),
            "{json}"
        );
        assert!(
            json.contains("\"magazine_capacities\":[[64,8],[128,16]]"),
            "{json}"
        );
        assert!(!json.contains('\n'));
    }

    #[test]
    fn empty_registry_renders_minimal_output() {
        let snap = MetricsRegistry::new("bare").snapshot();
        let table = snap.text_table();
        assert!(table.contains("bare"));
        assert!(!table.contains("facade"), "no facade section: {table}");
        assert!(!table.contains("cache"), "no cache section: {table}");
        let json = snap.to_json();
        assert!(json.contains("\"backend_ops\""));
        assert!(!json.contains("\"cache\""));
        assert!(!json.contains("\"latency\""));
    }

    #[test]
    fn frag_counters_render_when_present() {
        let mut reg = MetricsRegistry::new("slab");
        reg.set_frag(Some(FragStatsSnapshot {
            classes: vec![nbbs::FragClassSnapshot {
                class_size: 40,
                bytes_requested: 400,
                bytes_committed: 440,
                live_objects: 3,
            }],
            pages_live: 2,
            pages_retired: 1,
            passthrough_allocs: 7,
        }));
        let snap = reg.snapshot();
        let table = snap.text_table();
        assert!(
            table.contains("slab     1.10 committed/requested"),
            "{table}"
        );
        assert!(
            table.contains("2 pages live, 1 retired, 7 passthrough"),
            "{table}"
        );
        let json = snap.to_json();
        assert!(json.contains("\"frag\":{\"ratio\":1.100"), "{json}");
        assert!(
            json.contains("\"classes\":[{\"class_size\":40,\"bytes_requested\":400"),
            "{json}"
        );
        // Slab-free stacks carry no frag section at all.
        let bare = MetricsRegistry::new("bare").snapshot();
        assert!(bare.frag.is_none());
        assert!(!bare.to_json().contains("\"frag\""));
    }

    #[test]
    fn occupancy_and_request_accounting_render() {
        use nbbs::{BuddyConfig, NbbsFourLevel};
        let tree = NbbsFourLevel::new(BuddyConfig::new(1 << 16, 64, 1 << 12).unwrap());
        let hold = tree.alloc(4096).unwrap();
        let mut reg = MetricsRegistry::new("occ");
        reg.observe_backend(&tree).set_facade(FacadeStatsSnapshot {
            requested_bytes: 4000,
            granted_bytes: 4096,
            ..Default::default()
        });
        let snap = reg.snapshot();
        assert!(snap.occupancy.is_some(), "trees report occupancy");
        let table = snap.text_table();
        assert!(table.contains("occupancy by chunk: 4K:"), "{table}");
        assert!(table.contains("external frag"), "{table}");
        assert!(table.contains("1.02 granted/requested"), "{table}");
        let json = snap.to_json();
        assert!(
            json.contains("\"occupancy\":{\"total_free_bytes\":"),
            "{json}"
        );
        assert!(json.contains("\"requested_bytes\":4000"), "{json}");
        assert!(json.contains("\"granted_over_requested\":1.024"), "{json}");
        tree.dealloc(hold);
        // Backends without a tree stay silent.
        let bare = MetricsRegistry::new("bare").snapshot();
        assert!(bare.occupancy.is_none());
        assert!(!bare.to_json().contains("\"occupancy\""));
    }

    #[test]
    fn memory_and_scrub_sections_render_when_present() {
        let mut reg = MetricsRegistry::new("mem");
        reg.set_memory(Some(MemoryStatsSnapshot {
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
        }));
        let snap = reg.snapshot();
        let table = snap.text_table();
        assert!(
            table.contains("memory   262144 B committed of 1048576 B managed (25.0%)"),
            "{table}"
        );
        assert!(table.contains("scrub    3 passes"), "{table}");
        assert!(table.contains("decommitted in 4 calls"), "{table}");
        assert!(table.contains("8192 B of metadata"), "{table}");
        assert!(table.contains("2 pages trimmed"), "{table}");
        let json = snap.to_json();
        assert!(
            json.contains("\"memory\":{\"managed_bytes\":1048576,\"committed_bytes\":262144"),
            "{json}"
        );
        assert!(json.contains("\"scrub_passes\":3"), "{json}");
        assert!(
            json.contains("\"metadata_decommitted_bytes\":8192"),
            "{json}"
        );
        // Regions that never scrubbed hide the scrub row but keep the gauge.
        let mut quiet = MetricsRegistry::new("quiet");
        quiet.set_memory(Some(MemoryStatsSnapshot {
            managed_bytes: 4096,
            committed_bytes: 4096,
            ..Default::default()
        }));
        let table = quiet.snapshot().text_table();
        assert!(table.contains("memory   4096 B committed"), "{table}");
        assert!(!table.contains("scrub "), "{table}");
        // Stacks without a region stay silent.
        let bare = MetricsRegistry::new("bare").snapshot();
        assert!(bare.memory.is_none());
        assert!(!bare.to_json().contains("\"memory\""));
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
        let mut reg = MetricsRegistry::new("heat");
        reg.set_backend_ops(ops);
        let snap = reg.snapshot();
        assert!(snap.text_table().contains("L2:5"), "{}", snap.text_table());
        assert!(snap.to_json().contains("\"cas_failures_by_level\":[0,0,5,"));
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(f64::NAN), "-");
        assert_eq!(fmt_ns(512.0), "512ns");
        assert_eq!(fmt_ns(2_500.0), "2.50us");
        assert_eq!(fmt_ns(3_200_000.0), "3.20ms");
    }
}
