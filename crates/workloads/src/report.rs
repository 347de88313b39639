//! Rendering of measurement sets as tables and plot-ready series.
//!
//! The paper's figures plot one line per allocator, thread count on the x
//! axis and the workload metric on the y axis, with one panel per request
//! size.  [`figure_series`] emits exactly that structure as gnuplot-style
//! blocks, [`text_table`] renders the same data as aligned tables for the
//! terminal, [`csv`] produces machine-readable rows, and [`speedup_summary`]
//! computes the "gain of the non-blocking variants over the best blocking
//! one" number that backs the paper's 9%–95% claim.

use std::collections::BTreeSet;

use crate::harness::Metric;
use crate::measure::Measurement;

/// Renders all measurements as JSON lines (one object per row,
/// [`Measurement::to_json`]) — the `BENCH_*.json` snapshot format.
pub fn json_lines(measurements: &[Measurement]) -> String {
    let mut out = String::new();
    for m in measurements {
        out.push_str(&m.to_json());
        out.push('\n');
    }
    out
}

/// Renders all measurements as CSV (header + one row per measurement).
pub fn csv(measurements: &[Measurement]) -> String {
    let mut out = String::from(Measurement::csv_header());
    out.push('\n');
    for m in measurements {
        out.push_str(&m.to_csv_row());
        out.push('\n');
    }
    out
}

fn metric_value(metric: Metric, m: &Measurement) -> f64 {
    metric.of(&m.result)
}

fn sorted_unique<T: Ord + Clone, I: IntoIterator<Item = T>>(items: I) -> Vec<T> {
    items
        .into_iter()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Renders one aligned table per (workload, size) pair: rows are thread
/// counts, columns are allocators, cells carry `metric`.
pub fn text_table(measurements: &[Measurement], metric: Metric) -> String {
    let mut out = String::new();
    let panels = sorted_unique(measurements.iter().map(|m| (m.workload.clone(), m.size)));
    for (workload, size) in panels {
        let panel: Vec<&Measurement> = measurements
            .iter()
            .filter(|m| m.workload == workload && m.size == size)
            .collect();
        let allocators = {
            // Preserve first-appearance order (the paper's legend order).
            let mut seen = Vec::new();
            for m in &panel {
                if !seen.contains(&m.allocator) {
                    seen.push(m.allocator.clone());
                }
            }
            seen
        };
        let threads = sorted_unique(panel.iter().map(|m| m.result.threads));

        out.push_str(&format!(
            "## {workload} — Bytes={size} — {}\n",
            metric.label()
        ));
        out.push_str(&format!("{:>8}", "threads"));
        for a in &allocators {
            out.push_str(&format!(" {a:>12}"));
        }
        out.push('\n');
        for &t in &threads {
            out.push_str(&format!("{t:>8}"));
            for a in &allocators {
                let cell = panel
                    .iter()
                    .find(|m| m.result.threads == t && &m.allocator == a)
                    .map(|m| metric_value(metric, m));
                match cell {
                    Some(v) if metric == Metric::Cycles => {
                        out.push_str(&format!(" {v:>12.3e}"));
                    }
                    Some(v) => out.push_str(&format!(" {v:>12.4}")),
                    None => out.push_str(&format!(" {:>12}", "-")),
                }
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Renders gnuplot-style series: one block per (workload, size, allocator)
/// with `threads  value` rows, separated by blank lines and labelled with
/// `# series:` comments.
pub fn figure_series(measurements: &[Measurement], metric: Metric) -> String {
    let mut out = String::new();
    let keys = sorted_unique(
        measurements
            .iter()
            .map(|m| (m.workload.clone(), m.size, m.allocator.clone())),
    );
    for (workload, size, allocator) in keys {
        out.push_str(&format!(
            "# series: workload={workload} bytes={size} allocator={allocator} metric=\"{}\"\n",
            metric.label()
        ));
        let mut rows: Vec<(usize, f64)> = measurements
            .iter()
            .filter(|m| m.workload == workload && m.size == size && m.allocator == allocator)
            .map(|m| (m.result.threads, metric_value(metric, m)))
            .collect();
        rows.sort_unstable_by_key(|&(t, _)| t);
        for (threads, value) in rows {
            out.push_str(&format!("{threads} {value:.6}\n"));
        }
        out.push('\n');
    }
    out
}

/// Renders per-level CAS-failure counts as a compact contention heatmap:
/// one character per tree level (root leftmost, trailing idle levels
/// trimmed), `.` for no retries and `1`–`9` scaled against the busiest
/// level.  `-` when no retries were counted at all (e.g. a build without
/// `op-stats`).
fn contention_heatmap(levels: &[u64]) -> String {
    let max = levels.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return "-".to_string();
    }
    let deepest = levels.iter().rposition(|&v| v > 0).unwrap_or(0);
    levels[..=deepest]
        .iter()
        .map(|&v| {
            if v == 0 {
                '.'
            } else {
                let bucket = (v * 9).div_ceil(max).min(9);
                char::from_digit(bucket as u32, 10).expect("1..=9")
            }
        })
        .collect()
}

/// Renders the magazine-cache behaviour of every measurement that carries
/// cache counters (the `cached-*` allocator kinds): hit rate, the backend
/// traffic that remained, the depot shard/spill behaviour, the adaptive
/// resize activity, and — when the workspace is built with `op-stats` — the
/// backend CAS traffic per operation that the spill path still generates,
/// plus a per-level contention heatmap of where in the tree the remaining
/// CAS retries land (root leftmost, `1`–`9` scaled to the busiest level),
/// and the committed-over-requested byte ratio of the run (`frag`, `-` when
/// the workload did not track bytes).
/// Returns an empty string when no measurement has a cache layer.
pub fn cache_table(measurements: &[Measurement]) -> String {
    let cached: Vec<&Measurement> = measurements.iter().filter(|m| m.cache.is_some()).collect();
    if cached.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<20} {:>8} {:>8} {:>9} {:>12} {:>12} {:>10} {:>10} {:>7} {:>7} {:>7} {:>8} {:>6} {:>8}  {}\n",
        "workload",
        "allocator",
        "bytes",
        "threads",
        "hit-rate",
        "hits",
        "misses",
        "flushed",
        "drained",
        "shards",
        "spills",
        "grows",
        "shrinks",
        "frag",
        "cas/op",
        "cas-by-level"
    ));
    for m in cached {
        let c = m.cache.as_ref().expect("filtered to Some");
        // Backend CAS instructions per *workload* operation (not per backend
        // operation): for a cached allocator only miss/spill traffic reaches
        // the backend, so this ratio shrinks as the hit rate rises — the CAS
        // reduction the cache exists to deliver.
        let cas_per_op = if m.backend_ops.cas_ops > 0 && m.result.operations > 0 {
            format!(
                "{:.2}",
                m.backend_ops.cas_ops as f64 / m.result.operations as f64
            )
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<22} {:<20} {:>8} {:>8} {:>8.1}% {:>12} {:>12} {:>10} {:>10} {:>7} {:>7} {:>7} {:>8} {:>6} {:>8}  {}\n",
            m.workload,
            m.allocator,
            m.size,
            m.result.threads,
            c.hit_rate() * 100.0,
            c.hits,
            c.misses,
            c.flushed,
            c.drained,
            c.depot_shards,
            c.depot_spills,
            c.resize_grows,
            c.resize_shrinks,
            fmt_ratio(m.result.committed_ratio()),
            cas_per_op,
            contention_heatmap(&m.backend_ops.cas_failures_by_level)
        ));
    }
    out
}

/// Formats a committed-over-requested ratio for a table cell (`-` when the
/// workload did not track bytes and the ratio is NaN).
fn fmt_ratio(ratio: f64) -> String {
    if ratio.is_finite() {
        format!("{ratio:.2}")
    } else {
        "-".to_string()
    }
}

/// Renders the byte-accounting summary of every measurement whose workload
/// tracked request/commit bytes — requested bytes, committed bytes and their
/// ratio, for *all* allocators (bare trees included), so the slab stack's
/// internal-fragmentation advantage reads as a direct A/B column against the
/// power-of-two kinds.  Returns an empty string when nothing was tracked.
pub fn frag_table(measurements: &[Measurement]) -> String {
    let rows: Vec<&Measurement> = measurements
        .iter()
        .filter(|m| m.result.bytes_requested > 0)
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<20} {:>8} {:>8} {:>16} {:>16} {:>13}\n",
        "workload", "allocator", "bytes", "threads", "req-bytes", "commit-bytes", "commit/req"
    ));
    for m in rows {
        out.push_str(&format!(
            "{:<22} {:<20} {:>8} {:>8} {:>16} {:>16} {:>13}\n",
            m.workload,
            m.allocator,
            m.size,
            m.result.threads,
            m.result.bytes_requested,
            m.result.bytes_committed,
            fmt_ratio(m.result.committed_ratio())
        ));
    }
    out
}

/// Renders the tail-latency summary of every measurement that carries one
/// (harness runs with recording on): merged alloc+free p50/p90/p99/p99.9
/// and the exact maximum, in nanoseconds.  Empty percentiles (no samples)
/// render as `-`.  Returns an empty string when no measurement carries
/// latency data.
pub fn latency_table(measurements: &[Measurement]) -> String {
    let rows: Vec<&Measurement> = measurements
        .iter()
        .filter(|m| m.latency.is_some())
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let fmt_ns = |v: f64| {
        if v.is_finite() {
            format!("{v:.0}")
        } else {
            "-".to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<20} {:>8} {:>8} {:>12} {:>9} {:>9} {:>9} {:>9} {:>10}\n",
        "workload",
        "allocator",
        "bytes",
        "threads",
        "samples",
        "p50-ns",
        "p90-ns",
        "p99-ns",
        "p99.9-ns",
        "max-ns"
    ));
    for m in rows {
        let l = m.latency.as_ref().expect("filtered to Some");
        out.push_str(&format!(
            "{:<22} {:<20} {:>8} {:>8} {:>12} {:>9} {:>9} {:>9} {:>9} {:>10}\n",
            m.workload,
            m.allocator,
            m.size,
            m.result.threads,
            l.count,
            fmt_ns(l.p50_ns),
            fmt_ns(l.p90_ns),
            fmt_ns(l.p99_ns),
            fmt_ns(l.p999_ns),
            fmt_ns(l.max_ns)
        ));
    }
    out
}

/// Formats a byte count the way the paper's tables do (`8`, `128`, `16K`).
fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        bytes.to_string()
    }
}

/// Renders the per-class magazine capacities every cached measurement
/// converged to: one row per measurement, one column per size class, so
/// the adaptive resize controller's behaviour (which classes earned bigger
/// magazines under bursts, which were shrunk by budget pressure) is
/// visible at a glance in `nbbs-bench fig13 --paper`.  Returns an empty
/// string when no measurement carries capacities.
pub fn capacity_table(measurements: &[Measurement]) -> String {
    let rows: Vec<&Measurement> = measurements
        .iter()
        .filter(|m| {
            m.magazine_capacities
                .as_ref()
                .is_some_and(|c| !c.is_empty())
        })
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let class_sizes: Vec<usize> = sorted_unique(
        rows.iter()
            .flat_map(|m| m.magazine_capacities.as_ref().expect("filtered to Some"))
            .map(|&(size, _)| size),
    );
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<20} {:>8} {:>8}",
        "workload", "allocator", "bytes", "threads"
    ));
    for &size in &class_sizes {
        out.push_str(&format!(" {:>6}", fmt_size(size)));
    }
    out.push('\n');
    for m in rows {
        out.push_str(&format!(
            "{:<22} {:<20} {:>8} {:>8}",
            m.workload, m.allocator, m.size, m.result.threads
        ));
        let caps = m.magazine_capacities.as_ref().expect("filtered to Some");
        for &size in &class_sizes {
            match caps.iter().find(|&&(s, _)| s == size) {
                Some(&(_, cap)) => out.push_str(&format!(" {cap:>6}")),
                None => out.push_str(&format!(" {:>6}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the per-node share table of every measurement that carries
/// multi-node telemetry (`nbbs-numa` `NodeSet` backends): for each node its
/// share of served allocations, the local/remote-fallback split, and
/// failures.  Returns an empty string when no measurement is multi-node.
pub fn node_share_table(measurements: &[Measurement]) -> String {
    let rows: Vec<&Measurement> = measurements
        .iter()
        .filter(|m| m.node_shares.as_ref().is_some_and(|s| !s.is_empty()))
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<16} {:>8} {:>8} {:>5} {:>8} {:>10} {:>10} {:>8}\n",
        "workload", "allocator", "bytes", "threads", "node", "share", "local", "remote", "failed"
    ));
    for m in rows {
        let shares = m.node_shares.as_ref().expect("filtered to Some");
        let total: u64 = shares.iter().map(|n| n.served()).sum();
        for n in shares {
            let share = if total == 0 {
                0.0
            } else {
                n.served() as f64 / total as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<24} {:<16} {:>8} {:>8} {:>5} {:>7.1}% {:>10} {:>10} {:>8}\n",
                m.workload,
                m.allocator,
                m.size,
                m.result.threads,
                n.node,
                share,
                n.local_allocs,
                n.remote_allocs,
                n.failed_allocs
            ));
        }
    }
    out
}

/// Summary of the non-blocking gain for one (workload, size, threads) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GainRow {
    /// Workload name.
    pub workload: String,
    /// Request size.
    pub size: usize,
    /// Thread count.
    pub threads: usize,
    /// Best (according to the metric) non-blocking allocator and its value.
    pub best_non_blocking: (String, f64),
    /// Best blocking allocator and its value.
    pub best_blocking: (String, f64),
    /// Gain of the non-blocking side, as a fraction (0.25 = 25% better).
    pub gain: f64,
}

/// Computes, for every (workload, size, threads) cell, how much the best
/// non-blocking allocator improves over the best blocking one — the
/// comparison behind the paper's "9% to 95% gain at 32 threads" statement.
pub fn speedup_summary(measurements: &[Measurement], metric: Metric) -> Vec<GainRow> {
    let non_blocking = ["1lvl-nb", "4lvl-nb"];
    let keys = sorted_unique(
        measurements
            .iter()
            .map(|m| (m.workload.clone(), m.size, m.result.threads)),
    );
    let mut rows = Vec::new();
    for (workload, size, threads) in keys {
        let cell: Vec<&Measurement> = measurements
            .iter()
            .filter(|m| m.workload == workload && m.size == size && m.result.threads == threads)
            .collect();
        let pick_best = |nb: bool| -> Option<(String, f64)> {
            cell.iter()
                .filter(|m| non_blocking.contains(&m.allocator.as_str()) == nb)
                .map(|m| (m.allocator.clone(), metric_value(metric, m)))
                .min_by(|a, b| {
                    let (x, y) = if metric.lower_is_better() {
                        (a.1, b.1)
                    } else {
                        (b.1, a.1)
                    };
                    x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
                })
        };
        let (Some(best_nb), Some(best_bl)) = (pick_best(true), pick_best(false)) else {
            continue;
        };
        let gain = if metric.lower_is_better() {
            if best_nb.1 > 0.0 {
                best_bl.1 / best_nb.1 - 1.0
            } else {
                0.0
            }
        } else if best_bl.1 > 0.0 {
            best_nb.1 / best_bl.1 - 1.0
        } else {
            0.0
        };
        rows.push(GainRow {
            workload,
            size,
            threads,
            best_non_blocking: best_nb,
            best_blocking: best_bl,
            gain,
        });
    }
    rows
}

/// Renders a [`speedup_summary`] as an aligned text table.
pub fn gain_table(rows: &[GainRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>8} {:>8} {:>22} {:>22} {:>9}\n",
        "workload", "bytes", "threads", "best non-blocking", "best blocking", "gain"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>8} {:>8} {:>13} {:>8.3} {:>13} {:>8.3} {:>8.1}%\n",
            r.workload,
            r.size,
            r.threads,
            r.best_non_blocking.0,
            r.best_non_blocking.1,
            r.best_blocking.0,
            r.best_blocking.1,
            r.gain * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::WorkloadResult;

    fn m(workload: &str, allocator: &str, size: usize, threads: usize, secs: f64) -> Measurement {
        Measurement::new(
            workload,
            allocator,
            size,
            WorkloadResult {
                threads,
                operations: 1_000_000,
                seconds: secs,
                cycles: (secs * 2.7e9) as u64,
                failed_allocs: 0,
                bytes_requested: 0,
                bytes_committed: 0,
            },
        )
    }

    fn sample_set() -> Vec<Measurement> {
        vec![
            m("linux-scalability", "4lvl-nb", 8, 4, 1.0),
            m("linux-scalability", "1lvl-nb", 8, 4, 1.1),
            m("linux-scalability", "buddy-sl", 8, 4, 2.0),
            m("linux-scalability", "4lvl-nb", 8, 32, 1.2),
            m("linux-scalability", "1lvl-nb", 8, 32, 1.3),
            m("linux-scalability", "buddy-sl", 8, 32, 4.0),
        ]
    }

    #[test]
    fn csv_has_header_and_rows() {
        let out = csv(&sample_set());
        let lines: Vec<&str> = out.trim().lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].starts_with("workload,allocator"));
    }

    #[test]
    fn text_table_contains_all_allocators_and_threads() {
        let out = text_table(&sample_set(), Metric::Seconds);
        assert!(out.contains("Bytes=8"));
        assert!(out.contains("4lvl-nb"));
        assert!(out.contains("buddy-sl"));
        assert!(out.contains("\n       4"));
        assert!(out.contains("\n      32"));
    }

    #[test]
    fn figure_series_groups_by_allocator() {
        let out = figure_series(&sample_set(), Metric::Seconds);
        assert_eq!(out.matches("# series:").count(), 3);
        // Each series lists the thread counts in ascending order.
        let block = out
            .split("# series:")
            .find(|b| b.contains("allocator=buddy-sl"))
            .unwrap();
        let rows: Vec<&str> = block.lines().skip(1).filter(|l| !l.is_empty()).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("4 "));
        assert!(rows[1].starts_with("32 "));
    }

    #[test]
    fn cache_table_reports_only_cached_measurements() {
        let mut set = sample_set();
        assert_eq!(cache_table(&set), "");
        set[0].cache = Some(nbbs::CacheStatsSnapshot {
            hits: 75,
            misses: 25,
            flushed: 10,
            depot_shards: 4,
            depot_spills: 3,
            resize_grows: 2,
            ..Default::default()
        });
        set[0].allocator = "cached-4lvl-nb".into();
        let out = cache_table(&set);
        assert_eq!(out.lines().count(), 2, "header + one cached row");
        assert!(out.contains("cached-4lvl-nb"));
        assert!(out.contains("75.0%"));
        assert!(out.contains("shards"), "shard column present");
        assert!(out.contains("spills"), "spill column present");
        // No op-stats counters attached: the CAS column shows a dash.
        assert!(out.lines().nth(1).unwrap().trim_end().ends_with('-'));
    }

    #[test]
    fn capacity_table_lists_classes_in_order() {
        let mut set = sample_set();
        assert_eq!(capacity_table(&set), "");
        set[0].allocator = "cached-4lvl-nb".into();
        set[0].magazine_capacities = Some(vec![(8, 64), (16, 128), (16 << 10, 2)]);
        set[1].allocator = "cached-1lvl-nb".into();
        set[1].magazine_capacities = Some(vec![(8, 32), (16, 64)]);
        let out = capacity_table(&set);
        assert_eq!(out.lines().count(), 3, "header + two rows");
        let header = out.lines().next().unwrap();
        assert!(header.contains("16K"), "class sizes humanized: {header}");
        let first = out.lines().nth(1).unwrap();
        assert!(first.contains("cached-4lvl-nb"));
        assert!(
            first.trim_end().ends_with('2'),
            "16K class capacity: {first}"
        );
        let second = out.lines().nth(2).unwrap();
        assert!(
            second.trim_end().ends_with('-'),
            "missing class shows a dash: {second}"
        );
    }

    #[test]
    fn cache_table_shows_cas_per_workload_op_when_counters_exist() {
        let mut set = sample_set();
        set[0].cache = Some(nbbs::CacheStatsSnapshot {
            hits: 75,
            misses: 25,
            ..Default::default()
        });
        set[0].allocator = "cached-4lvl-nb".into();
        // The backend only saw the miss/spill traffic: its own cas/op is
        // ~2.5, but relative to the 1M workload operations the cache
        // absorbed, the CAS cost per operation is 0.50 — the reduction the
        // table must surface.
        set[0].backend_ops = nbbs::OpStatsSnapshot {
            allocs: 100_000,
            frees: 100_000,
            cas_ops: 500_000,
            ..Default::default()
        };
        let out = cache_table(&set);
        assert!(
            out.contains("0.50"),
            "cas/op = 500k CAS / 1M workload ops rendered: {out}"
        );
    }

    #[test]
    fn node_share_table_lists_one_row_per_node() {
        let mut set = sample_set();
        assert_eq!(node_share_table(&set), "");
        set[0].allocator = "numa-4lvl-nb".into();
        set[0].node_shares = Some(vec![
            nbbs_numa::NodeStatsSnapshot {
                node: 0,
                allocated_bytes: 0,
                local_allocs: 75,
                remote_allocs: 0,
                failed_allocs: 0,
            },
            nbbs_numa::NodeStatsSnapshot {
                node: 1,
                allocated_bytes: 0,
                local_allocs: 20,
                remote_allocs: 5,
                failed_allocs: 2,
            },
        ]);
        let out = node_share_table(&set);
        assert_eq!(out.lines().count(), 3, "header + two node rows");
        assert!(out.contains("remote"), "remote-fallback column present");
        assert!(out.contains("75.0%"), "node 0 share rendered: {out}");
        assert!(out.contains("25.0%"), "node 1 share rendered: {out}");
        let node1 = out.lines().nth(2).unwrap();
        assert!(node1.trim_end().ends_with('2'), "failure count: {node1}");
    }

    #[test]
    fn cache_table_renders_per_level_contention_heatmap() {
        let mut set = sample_set();
        set[0].cache = Some(nbbs::CacheStatsSnapshot::default());
        set[0].allocator = "cached-4lvl-nb".into();
        let mut levels = [0u64; nbbs::CAS_LEVELS];
        levels[0] = 10; // root sees some retries
        levels[3] = 90; // level 3 is the hot spot
        set[0].backend_ops = nbbs::OpStatsSnapshot {
            cas_failures_by_level: levels,
            ..Default::default()
        };
        let out = cache_table(&set);
        assert!(out.contains("cas-by-level"), "heatmap column present");
        // Root retries scale to 1/9 of the hot level; idle levels are dots
        // and trailing idle levels are trimmed.
        assert!(out.contains("1..9"), "heatmap rendered: {out}");

        // Without op-stats counters the heatmap shows a dash.
        set[0].backend_ops = nbbs::OpStatsSnapshot::default();
        let out = cache_table(&set);
        assert!(out.lines().nth(1).unwrap().trim_end().ends_with('-'));
    }

    #[test]
    fn cache_table_shows_the_committed_ratio_when_tracked() {
        let mut set = sample_set();
        set[0].cache = Some(nbbs::CacheStatsSnapshot::default());
        set[0].allocator = "cached-slab-4lvl-nb".into();
        set[0].result.bytes_requested = 4_000;
        set[0].result.bytes_committed = 4_400;
        let out = cache_table(&set);
        assert!(out.contains("frag"), "frag column present: {out}");
        assert!(out.contains("1.10"), "ratio rendered: {out}");
    }

    #[test]
    fn frag_table_covers_all_allocators_that_tracked_bytes() {
        let mut set = sample_set();
        assert_eq!(frag_table(&set), "", "nothing tracked, nothing rendered");
        // Bare tree and slab stack both tracked: both appear, A/B style.
        set[0].result.bytes_requested = 4_000;
        set[0].result.bytes_committed = 5_320; // power-of-two tree: 1.33
        set[2].result.bytes_requested = 4_000;
        set[2].result.bytes_committed = 4_400; // slab classes: 1.10
        let out = frag_table(&set);
        assert_eq!(out.lines().count(), 3, "header + two tracked rows");
        assert!(out.contains("commit/req"));
        assert!(out.contains("1.33"), "bare-tree ratio: {out}");
        assert!(out.contains("1.10"), "slab ratio: {out}");
        // Untracked measurements are excluded, not rendered as zeros.
        assert!(!out.contains(" 0 "));
    }

    #[test]
    fn latency_table_lists_only_measurements_with_percentiles() {
        let mut set = sample_set();
        assert_eq!(latency_table(&set), "");
        set[0].latency = Some(nbbs_obs::LatencyPercentiles {
            count: 1000,
            p50_ns: 120.4,
            p90_ns: 310.0,
            p99_ns: 950.0,
            p999_ns: 1800.0,
            max_ns: 2400.0,
        });
        set[1].latency = Some(nbbs_obs::LatencyPercentiles::empty());
        let out = latency_table(&set);
        assert_eq!(out.lines().count(), 3, "header + two rows");
        assert!(out.contains("p99.9-ns"), "tail column present");
        assert!(out.contains("120"), "p50 rendered");
        assert!(out.contains("2400"), "max rendered");
        // The empty summary renders dashes, not NaN.
        let empty_row = out.lines().nth(2).unwrap();
        assert!(empty_row.contains('-') && !empty_row.contains("NaN"));
    }

    #[test]
    fn json_lines_one_object_per_measurement() {
        let out = json_lines(&sample_set());
        assert_eq!(out.trim().lines().count(), 6);
        for line in out.trim().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn speedup_summary_computes_expected_gain() {
        let rows = speedup_summary(&sample_set(), Metric::Seconds);
        assert_eq!(rows.len(), 2);
        let at32 = rows.iter().find(|r| r.threads == 32).unwrap();
        assert_eq!(at32.best_non_blocking.0, "4lvl-nb");
        assert_eq!(at32.best_blocking.0, "buddy-sl");
        // buddy-sl takes 4.0 s vs 1.2 s → ~233% gain.
        assert!((at32.gain - (4.0 / 1.2 - 1.0)).abs() < 1e-9);
        let table = gain_table(&rows);
        assert!(table.contains("4lvl-nb"));
        assert!(table.contains('%'));
    }

    #[test]
    fn speedup_summary_handles_throughput_metric() {
        let mut set = sample_set();
        // Reinterpret as throughput: larger is better, so invert expectations.
        for meas in &mut set {
            meas.workload = "larson".into();
        }
        let rows = speedup_summary(&set, Metric::KopsPerSec);
        // With identical op counts, lower seconds ⇒ higher KOps/s, so the
        // non-blocking side still wins.
        assert!(rows.iter().all(|r| r.gain > 0.0));
    }
}
