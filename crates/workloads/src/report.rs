//! Rendering of measurement sets as tables.
//!
//! The paper's figures plot one line per allocator, thread count on the x
//! axis and the workload metric on the y axis, with one panel per request
//! size.  [`text_table`] renders that structure as aligned tables for the
//! terminal, [`json_lines`] writes the rows for machines, and
//! [`speedup_summary`] computes the "gain of the non-blocking variants over
//! the best blocking one" number that backs the paper's 9%–95% claim.

use std::collections::BTreeSet;

use crate::harness::Metric;
use crate::measure::Measurement;

/// Renders all measurements as JSON lines (one object per row,
/// [`Measurement::to_json`]) — what `nbbs-bench --json` writes.
pub fn json_lines(measurements: &[Measurement]) -> String {
    let mut out = String::new();
    for m in measurements {
        out.push_str(&m.to_json());
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
    fn text_table_contains_all_allocators_and_threads() {
        let out = text_table(&sample_set(), Metric::Seconds);
        assert!(out.contains("Bytes=8"));
        assert!(out.contains("4lvl-nb"));
        assert!(out.contains("buddy-sl"));
        assert!(out.contains("\n       4"));
        assert!(out.contains("\n      32"));
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
