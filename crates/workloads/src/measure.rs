//! Measurement records produced by the workload drivers.

use std::fmt;

/// Raw result of running one workload on one allocator configuration.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadResult {
    /// Number of threads that participated.
    pub threads: usize,
    /// Completed allocator operations (one alloc or one free counts as one).
    pub operations: u64,
    /// Wall-clock duration of the measured section, in seconds.
    pub seconds: f64,
    /// Clock cycles elapsed over the measured section (TSC-based; the metric
    /// of the paper's Figure 12).
    pub cycles: u64,
    /// Allocation attempts that failed (out of memory / transient conflicts
    /// that exhausted the scan); the paper's workloads are sized so that this
    /// stays at zero.
    pub failed_allocs: u64,
}

impl WorkloadResult {
    /// Throughput in thousands of operations per second (Figure 10's unit).
    pub fn kops_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.operations as f64 / self.seconds / 1_000.0
    }

    /// Average nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.operations == 0 {
            return 0.0;
        }
        self.seconds * 1e9 / self.operations as f64
    }
}

/// One cell of a paper figure: a workload result annotated with the
/// allocator, workload and request size it belongs to.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name (e.g. `"linux-scalability"`).
    pub workload: String,
    /// Allocator name (e.g. `"4lvl-nb"`).
    pub allocator: String,
    /// Request size in bytes the workload was parameterized with.
    pub size: usize,
    /// The underlying result.
    pub result: WorkloadResult,
    /// Counters of the allocator's magazine-cache layer, if it has one
    /// (`cached-*` kinds); `None` for plain backends.
    pub cache: Option<nbbs::CacheStatsSnapshot>,
    /// Tail-latency summary (merged alloc + free distribution) of the run,
    /// recorded by the [`nbbs_obs`] layer when the harness runs with
    /// recording on; `None` for unobserved runs, e.g. the overhead A/B
    /// baseline.  Percentile fields are NaN (JSON `null`) when no sample
    /// was recorded.
    pub latency: Option<nbbs_obs::LatencyPercentiles>,
}

impl Measurement {
    /// Creates a measurement record.
    pub fn new(
        workload: impl Into<String>,
        allocator: impl Into<String>,
        size: usize,
        result: WorkloadResult,
    ) -> Self {
        Measurement {
            workload: workload.into(),
            allocator: allocator.into(),
            size,
            result,
            cache: None,
            latency: None,
        }
    }

    /// Attaches cache-layer counters to this measurement.
    #[must_use]
    pub fn with_cache(mut self, cache: Option<nbbs::CacheStatsSnapshot>) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches the run's tail-latency summary.
    #[must_use]
    pub fn with_latency(mut self, latency: Option<nbbs_obs::LatencyPercentiles>) -> Self {
        self.latency = latency;
        self
    }

    /// Renders the measurement as one self-contained JSON object (one line,
    /// no trailing newline) — the format `nbbs-bench --json` writes.
    ///
    /// Hand-rolled (the workspace is offline, no serde): strings go through
    /// [`nbbs_obs::json::esc`] (quotes, backslashes, control characters) and
    /// non-finite floats through [`nbbs_obs::json::num`] (rendered `null`),
    /// so the emitted line is always valid JSON.
    pub fn to_json(&self) -> String {
        use nbbs_obs::json::esc;
        fn fnum(v: f64, decimals: usize) -> String {
            if v.is_finite() {
                format!("{v:.decimals$}")
            } else {
                "null".to_string()
            }
        }
        let mut out = format!(
            "{{\"workload\":\"{}\",\"allocator\":\"{}\",\"size\":{},\"threads\":{},\
             \"operations\":{},\"seconds\":{},\"kops_per_sec\":{},\"cycles\":{},\
             \"failed_allocs\":{}",
            esc(&self.workload),
            esc(&self.allocator),
            self.size,
            self.result.threads,
            self.result.operations,
            fnum(self.result.seconds, 6),
            fnum(self.result.kops_per_sec(), 3),
            self.result.cycles,
            self.result.failed_allocs
        );
        if let Some(cache) = &self.cache {
            out.push_str(&format!(
                ",\"cache\":{{\"hits\":{},\"misses\":{},\"flushed\":{},\"drained\":{},\
                 \"depot_shards\":{}}}",
                cache.hits, cache.misses, cache.flushed, cache.drained, cache.depot_shards
            ));
        }
        if let Some(lat) = &self.latency {
            out.push_str(",\"latency\":");
            out.push_str(&lat.to_json());
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<20} {:<12} size={:<7} threads={:<3} {:>10.4}s {:>12.1} KOps/s",
            self.workload,
            self.allocator,
            self.size,
            self.result.threads,
            self.result.seconds,
            self.result.kops_per_sec()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            threads: 4,
            operations: 2_000_000,
            seconds: 2.0,
            cycles: 5_400_000_000,
            failed_allocs: 0,
        }
    }

    #[test]
    fn throughput_and_latency_derivations() {
        let r = sample();
        assert!((r.kops_per_sec() - 1_000.0).abs() < 1e-9);
        assert!((r.ns_per_op() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_is_guarded() {
        let r = WorkloadResult {
            threads: 1,
            operations: 0,
            seconds: 0.0,
            cycles: 0,
            failed_allocs: 0,
        };
        assert_eq!(r.kops_per_sec(), 0.0);
        assert_eq!(r.ns_per_op(), 0.0);
    }

    #[test]
    fn cache_counters_attach_optionally() {
        let m = Measurement::new("larson", "cached-4lvl-nb", 128, sample());
        assert!(m.cache.is_none());
        let snap = nbbs::CacheStatsSnapshot {
            hits: 9,
            misses: 1,
            ..Default::default()
        };
        let m = m.with_cache(Some(snap));
        assert_eq!(m.cache.unwrap().hits, 9);
    }

    #[test]
    fn display_is_informative() {
        let m = Measurement::new("thread-test", "buddy-sl", 1024, sample());
        let s = m.to_string();
        assert!(s.contains("thread-test"));
        assert!(s.contains("buddy-sl"));
        assert!(s.contains("1024"));
    }

    #[test]
    fn json_escapes_hostile_strings() {
        let m = Measurement::new("lar\"son\n", "4lvl\\nb\t", 128, sample());
        let json = m.to_json();
        assert!(json.contains("\"workload\":\"lar\\\"son\\n\""));
        assert!(json.contains("\"allocator\":\"4lvl\\\\nb\\t\""));
        assert!(!json.contains('\n'), "control chars escaped, line intact");
    }

    #[test]
    fn json_renders_non_finite_numbers_as_null() {
        let mut r = sample();
        r.seconds = f64::NAN; // NaN passes kops_per_sec's <= 0.0 guard too
        let m = Measurement::new("larson", "4lvl-nb", 128, r);
        let json = m.to_json();
        assert!(
            json.contains("\"seconds\":null"),
            "NaN becomes null: {json}"
        );
        assert!(json.contains("\"kops_per_sec\":null"), "NaN ratio: {json}");
        let mut r = sample();
        r.seconds = f64::INFINITY;
        let json = Measurement::new("larson", "4lvl-nb", 128, r).to_json();
        assert!(
            json.contains("\"seconds\":null"),
            "inf becomes null: {json}"
        );
    }

    #[test]
    fn json_records_latency_when_attached() {
        let m = Measurement::new("larson", "4lvl-nb", 128, sample());
        assert!(!m.to_json().contains("latency"), "absent when not attached");
        // An empty summary still serializes — percentiles become null.
        let m = m.with_latency(Some(nbbs_obs::LatencyPercentiles::empty()));
        let json = m.to_json();
        assert!(json.contains("\"latency\":{\"count\":0,\"p50_ns\":null"));
        assert!(json.contains("\"p999_ns\":null"));
        let m = m.with_latency(Some(nbbs_obs::LatencyPercentiles {
            count: 10,
            p50_ns: 120.0,
            p90_ns: 300.0,
            p99_ns: 950.0,
            p999_ns: 1800.0,
            max_ns: 2000.0,
        }));
        let json = m.to_json();
        assert!(json.contains("\"p50_ns\":120.000"));
        assert!(json.contains("\"p99_ns\":950.000"));
        assert!(!json.contains('\n'), "one line per measurement");
    }
}
