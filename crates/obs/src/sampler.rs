//! Continuous metrics exposition: periodic snapshots folded into a
//! delta time series.
//!
//! [`SeriesRecorder`] is the testable core: feed it
//! [`StackSnapshot`]s and it computes per-interval *deltas* of the
//! cumulative counters (allocations, cache traffic, facade bytes) next to
//! point-in-time *gauges* (free bytes, external fragmentation, occupancy
//! fill), keeping the last `capacity` samples in a ring.  The
//! oracle-differential tests recompute every delta from the raw snapshot
//! pairs and compare.
//!
//! [`MetricsSampler`] wraps the core in a background thread with a stop
//! flag — the "continuous" half of the ISSUE.  Exposition is
//! dump-to-file/stdout only (JSON-lines per sample, Prometheus text
//! format v0 for the latest state); nothing in this workspace opens a
//! socket.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json;
use crate::registry::StackSnapshot;

/// One time-series sample: gauges at the sampling instant plus deltas
/// against the previous sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Sample sequence number (0-based).
    pub seq: u64,
    /// Milliseconds since the series started.
    pub at_ms: u64,
    /// Free bytes under the tree (occupancy gauge; 0 without a tree view).
    pub free_bytes: u64,
    /// Largest contiguous free run (occupancy gauge).
    pub largest_free_block: u64,
    /// External fragmentation (`largest/total`; 1.0 without a tree view).
    pub external_frag: f64,
    /// Backend allocations since the previous sample.
    pub d_allocs: u64,
    /// Backend frees since the previous sample.
    pub d_frees: u64,
    /// Backend failed allocations since the previous sample.
    pub d_failed_allocs: u64,
    /// Cache hits since the previous sample (0 without a cache).
    pub d_cache_hits: u64,
    /// Cache misses since the previous sample (0 without a cache).
    pub d_cache_misses: u64,
    /// Facade-requested bytes since the previous sample.
    pub d_requested_bytes: u64,
    /// Facade-granted bytes since the previous sample.
    pub d_granted_bytes: u64,
    /// Committed bytes of the backing region (gauge; 0 without a region).
    pub committed_bytes: u64,
    /// Managed span of the backing region (gauge; 0 without a region).
    pub managed_bytes: u64,
    /// Bytes the decommit scrubber released since the previous sample.
    pub d_scrub_bytes: u64,
}

impl Sample {
    /// Renders the sample as one JSON object (one JSON-lines record).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"at_ms\":{},\"free_bytes\":{},\"largest_free_block\":{},\
             \"external_frag\":{},\"d_allocs\":{},\"d_frees\":{},\"d_failed_allocs\":{},\
             \"d_cache_hits\":{},\"d_cache_misses\":{},\"d_requested_bytes\":{},\
             \"d_granted_bytes\":{},\"committed_bytes\":{},\"managed_bytes\":{},\
             \"d_scrub_bytes\":{}}}",
            self.seq,
            self.at_ms,
            self.free_bytes,
            self.largest_free_block,
            json::num(self.external_frag),
            self.d_allocs,
            self.d_frees,
            self.d_failed_allocs,
            self.d_cache_hits,
            self.d_cache_misses,
            self.d_requested_bytes,
            self.d_granted_bytes,
            self.committed_bytes,
            self.managed_bytes,
            self.d_scrub_bytes
        )
    }
}

/// Cumulative counters extracted from one snapshot — the delta baseline.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    allocs: u64,
    frees: u64,
    failed_allocs: u64,
    cache_hits: u64,
    cache_misses: u64,
    requested_bytes: u64,
    granted_bytes: u64,
    scrub_passes: u64,
    scrub_bytes: u64,
}

impl Counters {
    fn of(snap: &StackSnapshot) -> Counters {
        Counters {
            allocs: snap.backend_ops.allocs,
            frees: snap.backend_ops.frees,
            failed_allocs: snap.backend_ops.failed_allocs,
            cache_hits: snap.cache.as_ref().map_or(0, |c| c.hits),
            cache_misses: snap.cache.as_ref().map_or(0, |c| c.misses),
            requested_bytes: snap.facade.as_ref().map_or(0, |f| f.requested_bytes),
            granted_bytes: snap.facade.as_ref().map_or(0, |f| f.granted_bytes),
            scrub_passes: snap.memory.as_ref().map_or(0, |m| m.scrub_passes),
            scrub_bytes: snap.memory.as_ref().map_or(0, |m| m.scrub_bytes),
        }
    }
}

/// The time-series core: observes snapshots, computes deltas, keeps a
/// bounded ring of samples, and renders both exposition formats.
#[derive(Debug)]
pub struct SeriesRecorder {
    label: String,
    capacity: usize,
    samples: VecDeque<Sample>,
    prev: Option<Counters>,
    latest_counters: Counters,
    seq: u64,
}

impl SeriesRecorder {
    /// Creates an empty series for the stack called `label`, retaining
    /// the newest `capacity` samples (clamped to at least 1).
    pub fn new(label: impl Into<String>, capacity: usize) -> Self {
        SeriesRecorder {
            label: label.into(),
            capacity: capacity.max(1),
            samples: VecDeque::new(),
            prev: None,
            latest_counters: Counters::default(),
            seq: 0,
        }
    }

    /// Folds one snapshot taken `at_ms` milliseconds into the run into the
    /// series; returns the computed sample.  Counters that appear to run
    /// backwards (a racing torn read) clamp their delta to 0.
    pub fn observe(&mut self, snap: &StackSnapshot, at_ms: u64) -> Sample {
        let now = Counters::of(snap);
        let prev = self.prev.unwrap_or_default();
        let sample = Sample {
            seq: self.seq,
            at_ms,
            free_bytes: snap
                .occupancy
                .as_ref()
                .map_or(0, |o| o.total_free_bytes as u64),
            largest_free_block: snap
                .occupancy
                .as_ref()
                .map_or(0, |o| o.largest_free_block as u64),
            external_frag: snap.occupancy.as_ref().map_or(1.0, |o| o.external_frag()),
            d_allocs: now.allocs.saturating_sub(prev.allocs),
            d_frees: now.frees.saturating_sub(prev.frees),
            d_failed_allocs: now.failed_allocs.saturating_sub(prev.failed_allocs),
            d_cache_hits: now.cache_hits.saturating_sub(prev.cache_hits),
            d_cache_misses: now.cache_misses.saturating_sub(prev.cache_misses),
            d_requested_bytes: now.requested_bytes.saturating_sub(prev.requested_bytes),
            d_granted_bytes: now.granted_bytes.saturating_sub(prev.granted_bytes),
            committed_bytes: snap.memory.as_ref().map_or(0, |m| m.committed_bytes),
            managed_bytes: snap.memory.as_ref().map_or(0, |m| m.managed_bytes),
            d_scrub_bytes: now.scrub_bytes.saturating_sub(prev.scrub_bytes),
        };
        self.prev = Some(now);
        self.latest_counters = now;
        self.seq += 1;
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample.clone());
        sample
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Renders every retained sample as JSON-lines (one object per line,
    /// trailing newline).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// Renders the latest state in the Prometheus text exposition format
    /// (version 0.0.4): cumulative counters as `counter`, the newest
    /// sample's gauges as `gauge`, all labelled with the stack name.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let label = prom_label_escape(&self.label);
        let c = &self.latest_counters;
        let latest = self.samples.back();
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{{stack=\"{label}\"}} {v}");
        };
        counter(
            &mut out,
            "nbbs_allocs_total",
            "Backend allocations.",
            c.allocs,
        );
        counter(&mut out, "nbbs_frees_total", "Backend frees.", c.frees);
        counter(
            &mut out,
            "nbbs_failed_allocs_total",
            "Backend allocation failures.",
            c.failed_allocs,
        );
        counter(
            &mut out,
            "nbbs_cache_hits_total",
            "Magazine cache hits.",
            c.cache_hits,
        );
        counter(
            &mut out,
            "nbbs_cache_misses_total",
            "Magazine cache misses.",
            c.cache_misses,
        );
        counter(
            &mut out,
            "nbbs_requested_bytes_total",
            "Bytes requested through the facade.",
            c.requested_bytes,
        );
        counter(
            &mut out,
            "nbbs_granted_bytes_total",
            "Bytes granted by the backend for facade requests.",
            c.granted_bytes,
        );
        counter(
            &mut out,
            "nbbs_scrub_passes_total",
            "Decommit scrubber passes completed.",
            c.scrub_passes,
        );
        counter(
            &mut out,
            "nbbs_scrub_bytes_total",
            "Bytes the decommit scrubber released to the kernel.",
            c.scrub_bytes,
        );
        let gauge = |out: &mut String, name: &str, help: &str, v: String| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{stack=\"{label}\"}} {v}");
        };
        if let Some(s) = latest {
            gauge(
                &mut out,
                "nbbs_free_bytes",
                "Free bytes under the buddy tree.",
                s.free_bytes.to_string(),
            );
            gauge(
                &mut out,
                "nbbs_largest_free_block_bytes",
                "Largest contiguous free run.",
                s.largest_free_block.to_string(),
            );
            gauge(
                &mut out,
                "nbbs_external_frag_ratio",
                "Largest free block over total free bytes.",
                prom_num(s.external_frag),
            );
            gauge(
                &mut out,
                "nbbs_committed_bytes",
                "Bytes of the backing region currently committed.",
                s.committed_bytes.to_string(),
            );
            gauge(
                &mut out,
                "nbbs_managed_bytes",
                "Total span the backing region manages.",
                s.managed_bytes.to_string(),
            );
        }
        gauge(
            &mut out,
            "nbbs_series_samples",
            "Samples retained in the time-series ring.",
            self.samples.len().to_string(),
        );
        out
    }
}

/// Escapes a Prometheus label value: backslash, double quote and newline.
fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float sample value; Prometheus accepts `NaN`/`+Inf`/`-Inf`
/// spellings, unlike JSON.
fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// A background thread taking periodic snapshots into a shared
/// [`SeriesRecorder`].
///
/// ```no_run
/// use std::sync::Arc;
/// use std::time::Duration;
/// use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
/// use nbbs_obs::{MetricsRegistry, MetricsSampler};
///
/// let tree = Arc::new(NbbsFourLevel::new(
///     BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap(),
/// ));
/// let source = Arc::clone(&tree);
/// let sampler = MetricsSampler::spawn("demo", Duration::from_millis(50), 512, move || {
///     let mut reg = MetricsRegistry::new("demo");
///     reg.observe_backend(source.as_ref());
///     reg.snapshot()
/// });
/// // ... workload runs ...
/// let series = sampler.stop();
/// print!("{}", series.to_prometheus());
/// ```
pub struct MetricsSampler {
    stop: Arc<AtomicBool>,
    series: Arc<Mutex<SeriesRecorder>>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsSampler {
    /// Spawns the sampling thread: every `interval` it calls `source` and
    /// folds the snapshot into the series (one sample is taken immediately
    /// on spawn, so even sub-interval runs record something).
    pub fn spawn(
        label: impl Into<String>,
        interval: Duration,
        capacity: usize,
        source: impl Fn() -> StackSnapshot + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let series = Arc::new(Mutex::new(SeriesRecorder::new(label, capacity)));
        let thread_stop = Arc::clone(&stop);
        let thread_series = Arc::clone(&series);
        let handle = std::thread::Builder::new()
            .name("nbbs-sampler".into())
            .spawn(move || {
                let started = Instant::now();
                loop {
                    let snap = source();
                    let at_ms = started.elapsed().as_millis() as u64;
                    if let Ok(mut series) = thread_series.lock() {
                        series.observe(&snap, at_ms);
                    }
                    // Sleep in short slices so stop() returns promptly
                    // even with second-scale intervals.
                    let mut left = interval;
                    while !left.is_zero() {
                        if thread_stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let slice = left.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        left = left.saturating_sub(slice);
                    }
                    if thread_stop.load(Ordering::Relaxed) {
                        return;
                    }
                }
            })
            .expect("spawn sampler thread");
        MetricsSampler {
            stop,
            series,
            handle: Some(handle),
        }
    }

    /// The shared series (lock it to render mid-run).
    pub fn series(&self) -> Arc<Mutex<SeriesRecorder>> {
        Arc::clone(&self.series)
    }

    /// Stops the thread and returns the final series.
    pub fn stop(mut self) -> SeriesRecorder {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let series = Arc::clone(&self.series);
        drop(self);
        match Arc::try_unwrap(series) {
            Ok(m) => m.into_inner().unwrap_or_else(|p| p.into_inner()),
            // A clone from series() is still alive; fall back to copying.
            Err(arc) => {
                let guard = arc.lock().unwrap_or_else(|p| p.into_inner());
                SeriesRecorder {
                    label: guard.label.clone(),
                    capacity: guard.capacity,
                    samples: guard.samples.clone(),
                    prev: guard.prev,
                    latest_counters: guard.latest_counters,
                    seq: guard.seq,
                }
            }
        }
    }
}

impl Drop for MetricsSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbs::{FacadeStatsSnapshot, OpStatsSnapshot};

    fn snap_with(allocs: u64, frees: u64, hits: u64, requested: u64) -> StackSnapshot {
        StackSnapshot {
            label: "t".into(),
            backend_ops: OpStatsSnapshot {
                allocs,
                frees,
                ..Default::default()
            },
            cache: Some(nbbs::CacheStatsSnapshot {
                hits,
                ..Default::default()
            }),
            facade: Some(FacadeStatsSnapshot {
                requested_bytes: requested,
                granted_bytes: requested * 2,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn deltas_match_a_recomputed_oracle_series() {
        // The oracle: raw cumulative counter trajectories.
        let allocs = [0u64, 10, 10, 35, 100];
        let frees = [0u64, 4, 9, 9, 80];
        let hits = [0u64, 3, 30, 31, 31];
        let requested = [0u64, 1_000, 1_500, 1_500, 9_999];
        let mut series = SeriesRecorder::new("oracle", 16);
        for i in 0..allocs.len() {
            let s = series.observe(
                &snap_with(allocs[i], frees[i], hits[i], requested[i]),
                i as u64 * 100,
            );
            // Recompute independently from the oracle arrays.
            let prev = i.checked_sub(1);
            assert_eq!(s.d_allocs, allocs[i] - prev.map_or(0, |p| allocs[p]));
            assert_eq!(s.d_frees, frees[i] - prev.map_or(0, |p| frees[p]));
            assert_eq!(s.d_cache_hits, hits[i] - prev.map_or(0, |p| hits[p]));
            assert_eq!(
                s.d_requested_bytes,
                requested[i] - prev.map_or(0, |p| requested[p])
            );
            assert_eq!(
                s.d_granted_bytes,
                (requested[i] - prev.map_or(0, |p| requested[p])) * 2
            );
            assert_eq!(s.seq, i as u64);
            assert_eq!(s.at_ms, i as u64 * 100);
        }
        // Telescoping check: deltas sum back to the final cumulative value.
        let total: u64 = series.samples().map(|s| s.d_allocs).sum();
        assert_eq!(total, *allocs.last().unwrap());
    }

    #[test]
    fn backwards_counters_clamp_to_zero() {
        let mut series = SeriesRecorder::new("clamp", 4);
        series.observe(&snap_with(100, 0, 0, 0), 0);
        let s = series.observe(&snap_with(40, 0, 0, 0), 1);
        assert_eq!(s.d_allocs, 0, "torn read does not underflow");
    }

    #[test]
    fn ring_keeps_the_newest_capacity_samples() {
        let mut series = SeriesRecorder::new("ring", 3);
        for i in 0..10u64 {
            series.observe(&snap_with(i, 0, 0, 0), i);
        }
        assert_eq!(series.len(), 3);
        let seqs: Vec<u64> = series.samples().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn occupancy_gauges_flow_through() {
        let mut snap = snap_with(1, 0, 0, 0);
        snap.occupancy = Some(nbbs::OccupancySnapshot {
            total_free_bytes: 8192,
            largest_free_block: 4096,
            free_blocks: 2,
            merged_trees: 1,
            levels: Vec::new(),
            free_chunks: Vec::new(),
        });
        let mut series = SeriesRecorder::new("occ", 4);
        let s = series.observe(&snap, 5);
        assert_eq!(s.free_bytes, 8192);
        assert_eq!(s.largest_free_block, 4096);
        assert!((s.external_frag - 0.5).abs() < 1e-9);
    }

    #[test]
    fn memory_gauges_and_scrub_deltas_flow_through() {
        let mut snap = snap_with(1, 0, 0, 0);
        snap.memory = Some(nbbs::MemoryStatsSnapshot {
            managed_bytes: 1 << 20,
            committed_bytes: 1 << 19,
            scrub_passes: 2,
            scrub_bytes: 8192,
            decommit_calls: 1,
            ..Default::default()
        });
        let mut series = SeriesRecorder::new("mem", 4);
        let s = series.observe(&snap, 0);
        assert_eq!(s.committed_bytes, 1 << 19);
        assert_eq!(s.managed_bytes, 1 << 20);
        assert_eq!(s.d_scrub_bytes, 8192, "first sample baselines at zero");
        snap.memory.as_mut().unwrap().scrub_bytes = 12_288;
        snap.memory.as_mut().unwrap().committed_bytes = 1 << 18;
        let s = series.observe(&snap, 10);
        assert_eq!(s.d_scrub_bytes, 4096);
        assert_eq!(s.committed_bytes, 1 << 18);
        let text = series.to_prometheus();
        assert!(
            text.contains("nbbs_committed_bytes{stack=\"mem\"} 262144"),
            "{text}"
        );
        assert!(
            text.contains("nbbs_scrub_bytes_total{stack=\"mem\"} 12288"),
            "{text}"
        );
        assert!(text.contains("# TYPE nbbs_managed_bytes gauge"), "{text}");
        let parsed = crate::jsoncheck::parse_lines(&series.to_json_lines()).expect("valid");
        assert_eq!(
            parsed[1].get("d_scrub_bytes").unwrap().as_f64(),
            Some(4096.0)
        );
    }

    #[test]
    fn json_lines_parse_and_carry_every_sample() {
        let mut series = SeriesRecorder::new("jl", 8);
        for i in 0..5u64 {
            series.observe(&snap_with(i * 7, i * 3, i, i * 100), i * 50);
        }
        let lines = series.to_json_lines();
        let parsed = crate::jsoncheck::parse_lines(&lines).expect("valid JSON lines");
        assert_eq!(parsed.len(), 5);
        assert_eq!(
            parsed[4].get("d_allocs").unwrap().as_f64(),
            Some(7.0),
            "{lines}"
        );
    }

    #[test]
    fn prometheus_exposition_is_well_formed_and_escapes_labels() {
        let mut series = SeriesRecorder::new("web\"server\\sim\nstack", 8);
        series.observe(&snap_with(42, 40, 10, 512), 0);
        let text = series.to_prometheus();
        assert!(
            text.contains("nbbs_allocs_total{stack=\"web\\\"server\\\\sim\\nstack\"} 42"),
            "{text}"
        );
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .map(|(series, v)| {
                            series.contains("{stack=") && v.parse::<f64>().is_ok()
                                || v == "NaN"
                                || v == "+Inf"
                                || v == "-Inf"
                        })
                        .unwrap_or(false),
                "malformed line: {line}"
            );
        }
        // Every metric name is announced by a TYPE line before its sample.
        for metric in [
            "nbbs_allocs_total",
            "nbbs_free_bytes",
            "nbbs_series_samples",
        ] {
            assert!(text.contains(&format!("# TYPE {metric} ")), "{text}");
        }
    }

    #[test]
    fn background_sampler_collects_and_stops() {
        use std::sync::atomic::AtomicU64;
        let calls = Arc::new(AtomicU64::new(0));
        let src_calls = Arc::clone(&calls);
        let sampler = MetricsSampler::spawn("bg", Duration::from_millis(5), 64, move || {
            let n = src_calls.fetch_add(1, Ordering::Relaxed) + 1;
            StackSnapshot {
                backend_ops: OpStatsSnapshot {
                    allocs: n * 10,
                    ..Default::default()
                },
                ..Default::default()
            }
        });
        while calls.load(Ordering::Relaxed) < 3 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let series = sampler.stop();
        assert!(series.len() >= 3);
        let d: Vec<u64> = series.samples().map(|s| s.d_allocs).collect();
        assert_eq!(d[0], 10, "first sample baselines against zero");
        assert!(
            d[1..].iter().all(|&x| x == 10),
            "steady 10-alloc deltas: {d:?}"
        );
    }
}
