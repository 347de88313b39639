//! Machine topology: how many NUMA nodes exist and which node the calling
//! thread should treat as *home*.
//!
//! Three sources, in priority order:
//!
//! 1. **Environment override** — `NBBS_NUMA_NODES=<n>` forces a synthetic
//!    `n`-node topology.  This is how CI exercises multi-node routing on
//!    single-node runners, and how a deployment pins the node count without
//!    trusting sysfs (containers often mask it).
//! 2. **Sysfs** — `/sys/devices/system/node/node*/cpulist` on Linux gives
//!    the real CPU→node map; the calling thread's home node is derived from
//!    the CPU it is currently running on (`sched_getcpu`).
//! 3. **Synthetic fallback** — a deterministic round-robin assignment:
//!    every thread receives a monotone id on first use and homes on
//!    `id % node_count`.  This is also the fallback whenever the current
//!    CPU cannot be read.
//!
//! The synthetic assignment is deterministic by construction (thread ids are
//! handed out by one process-wide counter), so tests and benchmarks get
//! reproducible per-node spreads regardless of the host.

/// Where a [`Topology`] got its node count (and CPU map) from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySource {
    /// Parsed from `/sys/devices/system/node`.
    Sysfs,
    /// Forced by the `NBBS_NUMA_NODES` environment variable.
    EnvOverride,
    /// Deterministic synthetic assignment (explicit, or the fallback when
    /// neither sysfs nor the override is available).
    Synthetic,
}

/// The machine's node layout plus the thread→home-node policy.
#[derive(Debug, Clone)]
pub struct Topology {
    node_count: usize,
    /// `cpu_to_node[cpu]` when read from sysfs; empty for synthetic
    /// topologies (home nodes then come from the round-robin assignment).
    cpu_to_node: Vec<usize>,
    source: TopologySource,
}

/// Process-wide monotone thread ids backing the synthetic home assignment —
/// [`nbbs_sync::thread_ordinal`], the *same counter* `nbbs-cache` masks
/// into thread slots, so a thread's cache slot group and its synthetic home
/// node agree by construction.
fn thread_id() -> usize {
    nbbs_sync::thread_ordinal()
}

/// The CPU the calling thread is currently running on, when the platform
/// can tell.
#[cfg(target_os = "linux")]
fn current_cpu() -> Option<usize> {
    extern "C" {
        // glibc/musl both export it; std already links libc.
        fn sched_getcpu() -> std::os::raw::c_int;
    }
    // SAFETY: no arguments, no preconditions; returns -1 on error.
    let cpu = unsafe { sched_getcpu() };
    usize::try_from(cpu).ok()
}

#[cfg(not(target_os = "linux"))]
fn current_cpu() -> Option<usize> {
    None
}

/// Parses a sysfs `cpulist` string (`"0-3,8,10-11"`) into CPU indices.
fn parse_cpulist(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((lo, hi)) = part.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                cpus.extend(lo..=hi);
            }
        } else if let Ok(cpu) = part.parse::<usize>() {
            cpus.push(cpu);
        }
    }
    cpus
}

impl Topology {
    /// A synthetic topology of `node_count` nodes (at least 1): threads home
    /// on `thread_id % node_count`, deterministically.
    pub fn synthetic(node_count: usize) -> Self {
        Topology {
            node_count: node_count.max(1),
            cpu_to_node: Vec::new(),
            source: TopologySource::Synthetic,
        }
    }

    /// Detects the machine topology: the `NBBS_NUMA_NODES` override first,
    /// then sysfs, then a single synthetic node.
    pub fn detect() -> Self {
        if let Some(forced) = std::env::var("NBBS_NUMA_NODES")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return Topology {
                node_count: forced,
                cpu_to_node: Vec::new(),
                source: TopologySource::EnvOverride,
            };
        }
        Self::from_sysfs().unwrap_or_else(|| Topology::synthetic(1))
    }

    /// Reads `/sys/devices/system/node`, or `None` when it is absent or
    /// describes fewer than one node.
    pub fn from_sysfs() -> Option<Self> {
        Self::from_sysfs_root(std::path::Path::new("/sys/devices/system/node"))
    }

    /// Sysfs parser over an explicit root (separated out so tests can point
    /// it at a fixture directory).
    pub fn from_sysfs_root(root: &std::path::Path) -> Option<Self> {
        let mut nodes: Vec<(usize, Vec<usize>)> = Vec::new();
        for entry in std::fs::read_dir(root).ok()? {
            let entry = entry.ok()?;
            let name = entry.file_name();
            let name = name.to_str()?;
            let Some(idx) = name
                .strip_prefix("node")
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            let cpulist = std::fs::read_to_string(entry.path().join("cpulist")).ok()?;
            nodes.push((idx, parse_cpulist(&cpulist)));
        }
        if nodes.is_empty() {
            return None;
        }
        nodes.sort_unstable_by_key(|&(idx, _)| idx);
        let node_count = nodes.last().map(|&(idx, _)| idx + 1)?;
        let max_cpu = nodes
            .iter()
            .flat_map(|(_, cpus)| cpus.iter().copied())
            .max()?;
        let mut cpu_to_node = vec![0usize; max_cpu + 1];
        for (idx, cpus) in &nodes {
            for &cpu in cpus {
                cpu_to_node[cpu] = *idx;
            }
        }
        Some(Topology {
            node_count,
            cpu_to_node,
            source: TopologySource::Sysfs,
        })
    }

    /// Number of NUMA nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Where this topology came from.
    pub fn source(&self) -> TopologySource {
        self.source
    }

    /// The node owning `cpu`, when a CPU map exists.
    pub fn node_of_cpu(&self, cpu: usize) -> Option<usize> {
        self.cpu_to_node.get(cpu).copied()
    }

    /// The calling thread's home node.
    ///
    /// With a sysfs CPU map the home follows the CPU the thread is running
    /// on right now (so a migrated thread starts allocating from its new
    /// node); synthetic topologies — and any failure to read the current
    /// CPU — fall back to the deterministic round-robin assignment.
    pub fn current_node(&self) -> usize {
        if !self.cpu_to_node.is_empty() {
            if let Some(node) = current_cpu().and_then(|cpu| self.node_of_cpu(cpu)) {
                return node % self.node_count;
            }
        }
        thread_id() % self.node_count
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::detect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpulist_parsing_handles_ranges_and_singles() {
        assert_eq!(parse_cpulist("0-3"), vec![0, 1, 2, 3]);
        assert_eq!(parse_cpulist("0,2,4"), vec![0, 2, 4]);
        assert_eq!(parse_cpulist(" 0-1, 8 , 10-11 \n"), vec![0, 1, 8, 10, 11]);
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
    }

    #[test]
    fn synthetic_topology_is_deterministic_round_robin() {
        let t = Topology::synthetic(3);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.source(), TopologySource::Synthetic);
        // The same thread always maps to the same node.
        assert_eq!(t.current_node(), t.current_node());
        assert!(t.current_node() < 3);
        // Zero nodes is clamped to one.
        assert_eq!(Topology::synthetic(0).node_count(), 1);
    }

    #[test]
    fn threads_spread_over_synthetic_nodes() {
        let t = std::sync::Arc::new(Topology::synthetic(2));
        let homes: Vec<usize> = (0..8)
            .map(|_| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || t.current_node())
            })
            .map(|h| h.join().unwrap())
            .collect();
        assert!(homes.iter().all(|&h| h < 2));
        let distinct: std::collections::HashSet<_> = homes.into_iter().collect();
        assert_eq!(distinct.len(), 2, "8 fresh threads cover both nodes");
    }

    #[test]
    fn sysfs_fixture_round_trips() {
        let dir = std::env::temp_dir().join(format!("nbbs-numa-sysfs-{}", std::process::id()));
        for (node, cpus) in [(0usize, "0-1"), (1, "2-3")] {
            let d = dir.join(format!("node{node}"));
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("cpulist"), cpus).unwrap();
        }
        // A non-node entry must be ignored.
        std::fs::create_dir_all(dir.join("possible")).unwrap();
        let t = Topology::from_sysfs_root(&dir).expect("fixture parses");
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.source(), TopologySource::Sysfs);
        assert_eq!(t.node_of_cpu(0), Some(0));
        assert_eq!(t.node_of_cpu(3), Some(1));
        assert_eq!(t.node_of_cpu(64), None);
        assert!(t.current_node() < 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_sysfs_root_yields_none() {
        let ghost = std::path::Path::new("/this/path/does/not/exist/node");
        assert!(Topology::from_sysfs_root(ghost).is_none());
    }
}
