//! Construction of every allocator configuration evaluated in the paper.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use nbbs::{
    BuddyBackend, BuddyConfig, LockedFourLevel, LockedOneLevel, NbbsFourLevel, NbbsOneLevel,
};
use nbbs_baselines::{CloudwuBuddy, LinuxBuddy};
use nbbs_cache::MagazineCache;
use nbbs_numa::{NodePolicy, NodeSet, Topology};
use nbbs_slab::SlabBackend;

/// A shareable, dynamically-typed back-end allocator.
pub type SharedBackend = Arc<dyn BuddyBackend>;

/// The allocator configurations compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// The paper's 4-level optimized non-blocking buddy (`4lvl-nb`).
    FourLevelNb,
    /// The paper's 1-level non-blocking buddy (`1lvl-nb`).
    OneLevelNb,
    /// The 4-level structure behind a global spin lock (`4lvl-sl`).
    FourLevelSl,
    /// The 1-level structure behind a global spin lock (`1lvl-sl`).
    OneLevelSl,
    /// The cloudwu-style tree buddy behind a spin lock (`buddy-sl`).
    BuddySl,
    /// The Linux-kernel-style free-list buddy behind a zone lock
    /// (`linux-buddy`, Figure 12 only).
    LinuxBuddy,
    /// The 4-level non-blocking buddy behind a per-thread magazine cache
    /// (`cached-4lvl-nb`, the `nbbs-cache` front-end; not in the paper).
    Cached4LvlNb,
    /// The 1-level non-blocking buddy behind a per-thread magazine cache
    /// (`cached-1lvl-nb`).
    Cached1LvlNb,
    /// One 4-level non-blocking buddy per NUMA node behind an `nbbs-numa`
    /// `NodeSet` (`numa-4lvl-nb`): one instance per detected node
    /// (honouring `NBBS_NUMA_NODES`; at least two synthetic nodes on
    /// single-node hosts), each managing an equal power-of-two slice of the
    /// configured arena, with home-first routing and nearest-first remote
    /// fallback.
    Numa4LvlNb,
    /// The 4-level non-blocking buddy behind an `nbbs-slab` size-class
    /// front-end (`slab-4lvl-nb`): requests at or below the slab cutoff are
    /// carved from shared buddy pages into spaced size classes, killing the
    /// power-of-two internal fragmentation of the small-object path; larger
    /// requests pass through to the tree.
    Slab4LvlNb,
    /// The full small-object stack (`cached-slab-4lvl-nb`): tree → slab →
    /// magazine cache, so hits come from a per-thread magazine and misses
    /// refill from spaced slab classes instead of power-of-two chunks.
    CachedSlab4LvlNb,
}

impl AllocatorKind {
    /// The five user-space allocators of Figures 8–11, in the paper's legend
    /// order.
    pub fn user_space() -> &'static [AllocatorKind] {
        &[
            AllocatorKind::FourLevelNb,
            AllocatorKind::OneLevelNb,
            AllocatorKind::FourLevelSl,
            AllocatorKind::OneLevelSl,
            AllocatorKind::BuddySl,
        ]
    }

    /// The allocators of the kernel-level comparison (Figure 12).
    pub fn kernel_comparison() -> &'static [AllocatorKind] {
        &[
            AllocatorKind::FourLevelNb,
            AllocatorKind::OneLevelNb,
            AllocatorKind::BuddySl,
            AllocatorKind::LinuxBuddy,
        ]
    }

    /// Every configuration known to the factory.
    pub fn all() -> &'static [AllocatorKind] {
        &[
            AllocatorKind::FourLevelNb,
            AllocatorKind::OneLevelNb,
            AllocatorKind::FourLevelSl,
            AllocatorKind::OneLevelSl,
            AllocatorKind::BuddySl,
            AllocatorKind::LinuxBuddy,
            AllocatorKind::Cached4LvlNb,
            AllocatorKind::Cached1LvlNb,
            AllocatorKind::Numa4LvlNb,
            AllocatorKind::Slab4LvlNb,
            AllocatorKind::CachedSlab4LvlNb,
        ]
    }

    /// The short name used in the paper's plots and in reports.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::FourLevelNb => "4lvl-nb",
            AllocatorKind::OneLevelNb => "1lvl-nb",
            AllocatorKind::FourLevelSl => "4lvl-sl",
            AllocatorKind::OneLevelSl => "1lvl-sl",
            AllocatorKind::BuddySl => "buddy-sl",
            AllocatorKind::LinuxBuddy => "linux-buddy",
            AllocatorKind::Cached4LvlNb => "cached-4lvl-nb",
            AllocatorKind::Cached1LvlNb => "cached-1lvl-nb",
            AllocatorKind::Numa4LvlNb => "numa-4lvl-nb",
            AllocatorKind::Slab4LvlNb => "slab-4lvl-nb",
            AllocatorKind::CachedSlab4LvlNb => "cached-slab-4lvl-nb",
        }
    }

    /// Whether the configuration is non-blocking (lock-free).
    ///
    /// The cached variants are *almost* non-blocking: the backend below them
    /// is lock-free, and an owner's magazine hit runs no locked instruction
    /// at all, but two paths wait, so they do not qualify.  A thread whose
    /// stripe another live thread holds uses the stripe's shared slot under
    /// its spin lock, and a remote read-out or drain revokes every slot and
    /// waits each owner out of its entry.  The multi-node router qualifies: its
    /// routing is pure arithmetic plus relaxed counters over lock-free
    /// per-node trees.
    pub fn is_non_blocking(self) -> bool {
        matches!(
            self,
            AllocatorKind::FourLevelNb
                | AllocatorKind::OneLevelNb
                | AllocatorKind::Numa4LvlNb
                | AllocatorKind::Slab4LvlNb
        )
    }

    /// Whether the configuration layers a magazine cache over its backend.
    pub fn is_cached(self) -> bool {
        matches!(
            self,
            AllocatorKind::Cached4LvlNb
                | AllocatorKind::Cached1LvlNb
                | AllocatorKind::CachedSlab4LvlNb
        )
    }
}

impl fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AllocatorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "4lvl-nb" => Ok(AllocatorKind::FourLevelNb),
            "1lvl-nb" => Ok(AllocatorKind::OneLevelNb),
            "4lvl-sl" => Ok(AllocatorKind::FourLevelSl),
            "1lvl-sl" => Ok(AllocatorKind::OneLevelSl),
            "buddy-sl" => Ok(AllocatorKind::BuddySl),
            "linux-buddy" => Ok(AllocatorKind::LinuxBuddy),
            "cached-4lvl-nb" => Ok(AllocatorKind::Cached4LvlNb),
            "cached-1lvl-nb" => Ok(AllocatorKind::Cached1LvlNb),
            "numa-4lvl-nb" => Ok(AllocatorKind::Numa4LvlNb),
            "slab-4lvl-nb" => Ok(AllocatorKind::Slab4LvlNb),
            "cached-slab-4lvl-nb" => Ok(AllocatorKind::CachedSlab4LvlNb),
            other => Err(format!(
                "unknown allocator '{other}' (expected one of: 4lvl-nb, 1lvl-nb, 4lvl-sl, 1lvl-sl, buddy-sl, linux-buddy, cached-4lvl-nb, cached-1lvl-nb, numa-4lvl-nb, slab-4lvl-nb, cached-slab-4lvl-nb)"
            )),
        }
    }
}

/// The last step of [`build_with`]: what happens to the concrete allocator
/// before its one type erasure into a [`SharedBackend`].
///
/// A trait and not a closure because the step is generic over the
/// allocator type: a wrapper goes around the *concrete* allocator, inside
/// the one `Arc<dyn BuddyBackend>`.  Wrapping the finished `SharedBackend`
/// instead would add a second dynamic dispatch to every operation, which
/// costs as much as the sampled recording itself on a ~60 ns tree op.
trait Finish {
    fn finish<A: BuddyBackend + 'static>(self, allocator: A) -> SharedBackend;
}

/// The allocator as it is.
struct Plain;

impl Finish for Plain {
    fn finish<A: BuddyBackend + 'static>(self, allocator: A) -> SharedBackend {
        Arc::new(allocator)
    }
}

/// The allocator inside a sampled [`nbbs_obs::Recorded`].
struct Sampled {
    recorder: Arc<nbbs_obs::Recorder>,
    stride: u32,
}

impl Finish for Sampled {
    fn finish<A: BuddyBackend + 'static>(self, allocator: A) -> SharedBackend {
        Arc::new(nbbs_obs::Recorded::sampled(
            allocator,
            self.recorder,
            self.stride,
        ))
    }
}

/// The composition of every kind, in one place.
fn build_with(kind: AllocatorKind, config: BuddyConfig, f: impl Finish) -> SharedBackend {
    let slab = || SlabBackend::new(NbbsFourLevel::new(config)).with_name("slab-4lvl-nb");
    match kind {
        AllocatorKind::FourLevelNb => f.finish(NbbsFourLevel::new(config)),
        AllocatorKind::OneLevelNb => f.finish(NbbsOneLevel::new(config)),
        AllocatorKind::FourLevelSl => f.finish(LockedFourLevel::new(NbbsFourLevel::new(config))),
        AllocatorKind::OneLevelSl => f.finish(LockedOneLevel::new(NbbsOneLevel::new(config))),
        AllocatorKind::BuddySl => f.finish(CloudwuBuddy::new(config)),
        AllocatorKind::LinuxBuddy => f.finish(LinuxBuddy::new(config)),
        AllocatorKind::Cached4LvlNb => {
            f.finish(MagazineCache::new(NbbsFourLevel::new(config)).with_name("cached-4lvl-nb"))
        }
        AllocatorKind::Cached1LvlNb => {
            f.finish(MagazineCache::new(NbbsOneLevel::new(config)).with_name("cached-1lvl-nb"))
        }
        AllocatorKind::Numa4LvlNb => f.finish(build_node_set(config)),
        AllocatorKind::Slab4LvlNb => f.finish(slab()),
        AllocatorKind::CachedSlab4LvlNb => {
            f.finish(MagazineCache::new(slab()).with_name("cached-slab-4lvl-nb"))
        }
    }
}

/// Builds a fresh allocator instance of the given kind.
pub fn build(kind: AllocatorKind, config: BuddyConfig) -> SharedBackend {
    build_with(kind, config, Plain)
}

/// Builds a fresh allocator instance wrapped in a sampled
/// [`nbbs_obs::Recorded`] recording alloc/free latency into `recorder`.
pub fn build_recorded(
    kind: AllocatorKind,
    config: BuddyConfig,
    recorder: Arc<nbbs_obs::Recorder>,
    stride: u32,
) -> SharedBackend {
    build_with(kind, config, Sampled { recorder, stride })
}

/// Builds the `numa-4lvl-nb` configuration: one `NbbsFourLevel` per
/// detected node (env-overridable; at least two so single-node hosts still
/// exercise the routing).  Each node receives an equal power-of-two slice
/// of the configured arena — `total >> ceil(log2(nodes))` — so with a
/// non-power-of-two node count the aggregate stays *at most* the configured
/// total rather than inflating it, keeping sweeps comparable with the
/// single-arena kinds.
fn build_node_set(config: BuddyConfig) -> NodeSet<NbbsFourLevel> {
    let mut nodes = Topology::detect().node_count().max(2);
    // Each node must still be able to serve max_size-d requests; shrink the
    // node count rather than the per-request ceiling when the arena is tiny.
    while nodes > 1 && config.total_memory() / nodes.next_power_of_two() < config.max_size() {
        nodes -= 1;
    }
    let per_node = BuddyConfig::new(
        config.total_memory() / nodes.next_power_of_two(),
        config.min_size(),
        config.max_size(),
    )
    .expect("power-of-two slice of a valid config is valid")
    .with_scan_policy(config.scan_policy());
    NodeSet::with_topology(
        (0..nodes).map(|_| NbbsFourLevel::new(per_node)).collect(),
        Topology::synthetic(nodes),
        NodePolicy::HomeFirst,
    )
    .with_name("numa-4lvl-nb")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BuddyConfig {
        BuddyConfig::new(1 << 16, 8, 1 << 14).unwrap()
    }

    #[test]
    fn every_kind_builds_and_reports_its_name() {
        for &kind in AllocatorKind::all() {
            // linux-buddy wants page-like min sizes; use a dedicated config.
            let config = if kind == AllocatorKind::LinuxBuddy {
                BuddyConfig::new(1 << 20, 4096, 1 << 17).unwrap()
            } else {
                cfg()
            };
            let alloc = build(kind, config);
            assert_eq!(alloc.name(), kind.name());
            let off = alloc.alloc(alloc.min_size()).unwrap();
            alloc.dealloc(off);
            assert_eq!(alloc.allocated_bytes(), 0);
        }
    }

    #[test]
    fn kind_sets_match_paper() {
        assert_eq!(AllocatorKind::user_space().len(), 5);
        assert_eq!(AllocatorKind::kernel_comparison().len(), 4);
        assert!(AllocatorKind::user_space()
            .iter()
            .all(|k| *k != AllocatorKind::LinuxBuddy));
        assert!(AllocatorKind::kernel_comparison().contains(&AllocatorKind::LinuxBuddy));
    }

    #[test]
    fn parse_round_trips() {
        for &kind in AllocatorKind::all() {
            assert_eq!(kind.name().parse::<AllocatorKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("bogus".parse::<AllocatorKind>().is_err());
    }

    #[test]
    fn non_blocking_classification() {
        assert!(AllocatorKind::FourLevelNb.is_non_blocking());
        assert!(AllocatorKind::OneLevelNb.is_non_blocking());
        assert!(!AllocatorKind::BuddySl.is_non_blocking());
        assert!(!AllocatorKind::LinuxBuddy.is_non_blocking());
        assert!(!AllocatorKind::OneLevelSl.is_non_blocking());
        assert!(!AllocatorKind::Cached4LvlNb.is_non_blocking());
        assert!(AllocatorKind::Numa4LvlNb.is_non_blocking());
        assert!(!AllocatorKind::Numa4LvlNb.is_cached());
    }

    #[test]
    fn numa_kind_splits_the_arena_across_nodes() {
        let alloc = build(AllocatorKind::Numa4LvlNb, cfg());
        assert_eq!(alloc.name(), "numa-4lvl-nb");
        // The widened geometry preserves the per-request ceiling, so the
        // kind is interchangeable with the single-arena ones in sweeps.
        assert_eq!(alloc.max_size(), cfg().max_size());
        assert_eq!(alloc.min_size(), cfg().min_size());
        let off = alloc
            .alloc(cfg().max_size())
            .expect("a node serves max_size");
        alloc.dealloc(off);
        assert_eq!(alloc.allocated_bytes(), 0);
    }

    #[test]
    fn cached_kinds_wrap_their_backends() {
        for kind in [
            AllocatorKind::Cached4LvlNb,
            AllocatorKind::Cached1LvlNb,
            AllocatorKind::CachedSlab4LvlNb,
        ] {
            assert!(kind.is_cached());
            let alloc = build(kind, cfg());
            assert_eq!(alloc.name(), kind.name());
            // The cache layer is visible through the trait hook.
            assert!(alloc.cache_stats().is_some());
            let off = alloc.alloc(64).unwrap();
            alloc.dealloc(off);
            assert_eq!(alloc.allocated_bytes(), 0);
            assert!(alloc.cache_stats().unwrap().alloc_requests() > 0);
            // Draining empties the cache (chunks go back to the tree).
            alloc.drain_cache();
            assert!(alloc.cache_stats().unwrap().drained > 0);
        }
        assert!(!AllocatorKind::FourLevelNb.is_cached());
    }

    #[test]
    fn slab_kinds_grant_spaced_classes_and_report_frag_stats() {
        for kind in [AllocatorKind::Slab4LvlNb, AllocatorKind::CachedSlab4LvlNb] {
            let alloc = build(kind, cfg());
            assert_eq!(alloc.name(), kind.name());
            // 40 bytes lands in a 40-byte slab class, not a 64-byte chunk.
            assert_eq!(alloc.granted_size_for(40), Some(40));
            let off = alloc.alloc(40).unwrap();
            let frag = alloc.frag_stats().expect("slab publishes frag stats");
            // The cached kind batch-refills a magazine, so more than one
            // object may be committed — but all of them class-exact.
            assert!(frag.bytes_committed() >= 40);
            assert_eq!(frag.bytes_committed() % 40, 0);
            alloc.dealloc(off);
            alloc.drain_cache();
            assert_eq!(alloc.allocated_bytes(), 0);
        }
        // The bare tree keeps the default: no frag channel.
        assert!(build(AllocatorKind::FourLevelNb, cfg())
            .frag_stats()
            .is_none());
    }
}
