//! Sweep harness: runs workloads across allocators × thread counts × sizes
//! and produces the measurement sets behind each figure of the paper.

use std::sync::Arc;

use nbbs::BuddyConfig;
use nbbs_obs::{OpKind, Recorder};

use crate::constant_occupancy::{self, ConstantOccupancyParams};
use crate::factory::{build, build_recorded, AllocatorKind, SharedBackend};
use crate::larson::{self, LarsonParams};
use crate::linux_scalability::{self, LinuxScalabilityParams};
use crate::measure::{Measurement, WorkloadResult};
use crate::thread_test::{self, ThreadTestParams};

/// The four benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Linux Scalability (Figure 8).
    LinuxScalability,
    /// Thread Test (Figure 9).
    ThreadTest,
    /// Larson (Figure 10).
    Larson,
    /// Constant Occupancy (Figure 11).
    ConstantOccupancy,
}

impl Workload {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LinuxScalability => "linux-scalability",
            Workload::ThreadTest => "thread-test",
            Workload::Larson => "larson",
            Workload::ConstantOccupancy => "constant-occupancy",
        }
    }

    /// The metric the paper plots for this workload.
    pub fn primary_metric(self) -> Metric {
        match self {
            Workload::Larson => Metric::KopsPerSec,
            _ => Metric::Seconds,
        }
    }

    /// Runs this workload at the paper's parameters scaled by `scale`.
    pub fn run(
        self,
        alloc: &crate::factory::SharedBackend,
        threads: usize,
        size: usize,
        scale: f64,
    ) -> WorkloadResult {
        match self {
            Workload::LinuxScalability => linux_scalability::run(
                alloc,
                LinuxScalabilityParams::paper(threads, size).scaled(scale),
            ),
            Workload::ThreadTest => {
                thread_test::run(alloc, ThreadTestParams::paper(threads, size).scaled(scale))
            }
            Workload::Larson => {
                larson::run(alloc, LarsonParams::paper(threads, size).scaled(scale))
            }
            Workload::ConstantOccupancy => {
                let mut params = ConstantOccupancyParams::paper(threads, size).scaled(scale);
                // In the kernel-level experiment the figure's size denotes the
                // *maximum* allocatable chunk (§IV); shift the pool's size mix
                // down so its largest class still fits below max_size.
                if params.min_block * params.size_ratio > alloc.max_size() {
                    params.min_block = (alloc.max_size() / params.size_ratio).max(alloc.min_size());
                }
                constant_occupancy::run(alloc, params)
            }
        }
    }
}

/// The value plotted on a figure's y axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Execution time in seconds (Figures 8, 9, 11).
    Seconds,
    /// Throughput in KOps/s (Figure 10).
    KopsPerSec,
    /// Total clock cycles (Figure 12).
    Cycles,
}

impl Metric {
    /// Extracts the metric value from a result.
    pub fn of(self, result: &WorkloadResult) -> f64 {
        match self {
            Metric::Seconds => result.seconds,
            Metric::KopsPerSec => result.kops_per_sec(),
            Metric::Cycles => result.cycles as f64,
        }
    }

    /// Axis label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Seconds => "Seconds (s)",
            Metric::KopsPerSec => "Throughput (KOps/sec)",
            Metric::Cycles => "Clock cycles",
        }
    }

    /// Whether a *lower* value is better.
    pub fn lower_is_better(self) -> bool {
        !matches!(self, Metric::KopsPerSec)
    }
}

/// One sweep: a workload, the allocators to compare, and the parameter grid.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The benchmark to run.
    pub workload: Workload,
    /// Allocator configurations to compare.
    pub allocators: Vec<AllocatorKind>,
    /// Thread counts to sweep (the paper uses 4, 8, 16, 24, 32).
    pub thread_counts: Vec<usize>,
    /// Request sizes to sweep (the paper uses 8, 128 and 1024 bytes).
    pub sizes: Vec<usize>,
    /// Scale factor applied to the paper's operation counts / time windows.
    pub scale: f64,
    /// Buddy configuration used for every allocator instance.
    pub memory: BuddyConfig,
}

impl SweepConfig {
    /// The paper's user-space setup (Figures 8–11): five allocators,
    /// 4–32 threads, 8/128/1024-byte requests, 8 B units and 16 KiB max
    /// chunks over a 64 MiB arena.
    pub fn user_space(workload: Workload, scale: f64) -> Self {
        SweepConfig {
            workload,
            allocators: AllocatorKind::user_space().to_vec(),
            thread_counts: vec![4, 8, 16, 24, 32],
            sizes: vec![8, 128, 1024],
            scale,
            memory: BuddyConfig::new(64 << 20, 8, 16 << 10)
                .expect("user-space configuration is valid"),
        }
    }

    /// The paper's kernel-level setup (Figure 12): 4 allocators, 32 threads,
    /// 128 KiB chunks over page-granular memory.
    ///
    /// The managed region is 2 GiB so that the Thread Test's in-flight
    /// footprint (10 000 × 128 KiB ≈ 1.3 GiB) fits regardless of the thread
    /// count, as it did on the paper's 64 GiB testbed.  Only allocator
    /// metadata is materialized (a few MiB); no backing memory is touched.
    pub fn kernel_comparison(workload: Workload, scale: f64) -> Self {
        SweepConfig {
            workload,
            allocators: AllocatorKind::kernel_comparison().to_vec(),
            thread_counts: vec![32],
            sizes: vec![128 << 10],
            scale,
            memory: BuddyConfig::new(2 << 30, 4096, 128 << 10)
                .expect("kernel configuration is valid"),
        }
    }

    /// Restricts the sweep to the given thread counts.
    #[must_use]
    pub fn with_threads(mut self, threads: Vec<usize>) -> Self {
        self.thread_counts = threads;
        self
    }

    /// Restricts the sweep to the given request sizes.
    #[must_use]
    pub fn with_sizes(mut self, sizes: Vec<usize>) -> Self {
        self.sizes = sizes;
        self
    }

    /// Restricts the sweep to the given allocators.
    #[must_use]
    pub fn with_allocators(mut self, allocators: Vec<AllocatorKind>) -> Self {
        self.allocators = allocators;
        self
    }

    /// Number of cells (individual workload runs) in this sweep.
    pub fn cell_count(&self) -> usize {
        self.allocators.len() * self.thread_counts.len() * self.sizes.len()
    }
}

/// The figures of the paper's evaluation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureSpec {
    /// Figure 8: Linux Scalability execution times.
    Fig8,
    /// Figure 9: Thread Test execution times.
    Fig9,
    /// Figure 10: Larson throughput.
    Fig10,
    /// Figure 11: Constant Occupancy execution times.
    Fig11,
    /// Figure 12: clock-cycle comparison against the Linux buddy system.
    Fig12,
}

impl FigureSpec {
    /// All figures, in paper order.
    pub fn all() -> &'static [FigureSpec] {
        &[
            FigureSpec::Fig8,
            FigureSpec::Fig9,
            FigureSpec::Fig10,
            FigureSpec::Fig11,
            FigureSpec::Fig12,
        ]
    }

    /// Human-readable title matching the paper.
    pub fn title(self) -> &'static str {
        match self {
            FigureSpec::Fig8 => "Figure 8: Execution times - Linux Scalability benchmark",
            FigureSpec::Fig9 => "Figure 9: Execution times - Thread Test benchmark",
            FigureSpec::Fig10 => "Figure 10: Throughput - Larson benchmark",
            FigureSpec::Fig11 => "Figure 11: Execution times - Constant Occupancy benchmark",
            FigureSpec::Fig12 => "Figure 12: Comparison with the Linux buddy system (clock cycles)",
        }
    }

    /// The metric plotted by this figure.
    pub fn metric(self) -> Metric {
        match self {
            FigureSpec::Fig10 => Metric::KopsPerSec,
            FigureSpec::Fig12 => Metric::Cycles,
            _ => Metric::Seconds,
        }
    }

    /// The sweeps needed to regenerate this figure.
    pub fn sweeps(self, scale: f64) -> Vec<SweepConfig> {
        match self {
            FigureSpec::Fig8 => vec![SweepConfig::user_space(Workload::LinuxScalability, scale)],
            FigureSpec::Fig9 => vec![SweepConfig::user_space(Workload::ThreadTest, scale)],
            FigureSpec::Fig10 => vec![SweepConfig::user_space(Workload::Larson, scale)],
            FigureSpec::Fig11 => vec![SweepConfig::user_space(Workload::ConstantOccupancy, scale)],
            FigureSpec::Fig12 => vec![
                SweepConfig::kernel_comparison(Workload::LinuxScalability, scale),
                SweepConfig::kernel_comparison(Workload::ThreadTest, scale),
                SweepConfig::kernel_comparison(Workload::ConstantOccupancy, scale),
            ],
        }
    }
}

/// Executes sweeps and collects measurements.
#[derive(Debug)]
pub struct Harness {
    /// Print progress lines to stderr while running.
    pub verbose: bool,
    /// Wrap every allocator in [`nbbs_obs::Recorded`] and attach alloc+free
    /// tail-latency percentiles to each measurement.  On by default; turn
    /// off to measure the recording overhead itself (the A/B baseline runs
    /// the exact pre-observability hot path).
    pub recording: bool,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            verbose: false,
            recording: true,
        }
    }
}

impl Harness {
    /// Creates a harness; `verbose` enables progress output on stderr.
    /// Latency recording is on by default ([`Harness::with_recording`]).
    pub fn new(verbose: bool) -> Self {
        Harness {
            verbose,
            recording: true,
        }
    }

    /// Enables or disables latency recording for subsequent sweeps.
    #[must_use]
    pub fn with_recording(mut self, recording: bool) -> Self {
        self.recording = recording;
        self
    }

    /// Runs every cell of a sweep, one allocator instance per cell (each cell
    /// starts from an empty allocator, as in the paper's methodology).
    pub fn run_sweep(&self, sweep: &SweepConfig) -> Vec<Measurement> {
        let mut out = Vec::with_capacity(sweep.cell_count());
        for &size in &sweep.sizes {
            for &threads in &sweep.thread_counts {
                for &kind in &sweep.allocators {
                    let recorder = self.recording.then(|| Arc::new(Recorder::new()));
                    let alloc: SharedBackend = match &recorder {
                        // Sampled (1 in 64): full recording costs ~50% of a
                        // raw ~60 ns tree op; sampling keeps it in the noise.
                        Some(rec) => build_recorded(
                            kind,
                            sweep.memory,
                            Arc::clone(rec),
                            nbbs_obs::DEFAULT_SAMPLE_STRIDE,
                        ),
                        None => build(kind, sweep.memory),
                    };
                    if self.verbose {
                        eprintln!(
                            "[nbbs-bench] {} size={} threads={} allocator={} ...",
                            sweep.workload.name(),
                            size,
                            threads,
                            kind
                        );
                    }
                    let result = sweep.workload.run(&alloc, threads, size, sweep.scale);
                    let latency = recorder.map(|rec| {
                        rec.merged_snapshot(&[OpKind::Alloc, OpKind::Free])
                            .percentiles()
                    });
                    let m = Measurement::new(sweep.workload.name(), kind.name(), size, result)
                        .with_cache(alloc.cache_stats())
                        .with_latency(latency);
                    if self.verbose {
                        eprintln!("[nbbs-bench]   -> {m}");
                        if let Some(cache) = &m.cache {
                            eprintln!("[nbbs-bench]      cache: {cache}");
                        }
                        if let Some(lat) = &m.latency {
                            eprintln!(
                                "[nbbs-bench]      latency: p50={:.0}ns p99={:.0}ns p99.9={:.0}ns max={:.0}ns",
                                lat.p50_ns, lat.p99_ns, lat.p999_ns, lat.max_ns
                            );
                        }
                    }
                    out.push(m);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_and_metrics() {
        assert_eq!(Workload::LinuxScalability.name(), "linux-scalability");
        assert_eq!(Workload::Larson.primary_metric(), Metric::KopsPerSec);
        assert_eq!(Workload::ThreadTest.primary_metric(), Metric::Seconds);
        assert!(Metric::Seconds.lower_is_better());
        assert!(!Metric::KopsPerSec.lower_is_better());
    }

    #[test]
    fn figure_specs_cover_all_paper_figures() {
        assert_eq!(FigureSpec::all().len(), 5);
        assert_eq!(FigureSpec::Fig10.metric(), Metric::KopsPerSec);
        assert_eq!(FigureSpec::Fig12.metric(), Metric::Cycles);
        assert_eq!(FigureSpec::Fig12.sweeps(1.0).len(), 3);
        assert_eq!(FigureSpec::Fig8.sweeps(1.0).len(), 1);
        assert!(FigureSpec::Fig8.title().contains("Linux Scalability"));
    }

    #[test]
    fn paper_sweep_dimensions_match_figures() {
        let sweep = SweepConfig::user_space(Workload::LinuxScalability, 1.0);
        assert_eq!(sweep.allocators.len(), 5);
        assert_eq!(sweep.thread_counts, vec![4, 8, 16, 24, 32]);
        assert_eq!(sweep.sizes, vec![8, 128, 1024]);
        assert_eq!(sweep.cell_count(), 5 * 5 * 3);

        let kernel = SweepConfig::kernel_comparison(Workload::ThreadTest, 1.0);
        assert_eq!(kernel.allocators.len(), 4);
        assert_eq!(kernel.thread_counts, vec![32]);
        assert_eq!(kernel.sizes, vec![128 << 10]);
    }

    #[test]
    fn builder_overrides() {
        let sweep = SweepConfig::user_space(Workload::Larson, 0.5)
            .with_threads(vec![2])
            .with_sizes(vec![64])
            .with_allocators(vec![AllocatorKind::OneLevelNb]);
        assert_eq!(sweep.cell_count(), 1);
        assert_eq!(sweep.scale, 0.5);
    }

    #[test]
    fn tiny_sweep_produces_expected_measurements() {
        let sweep = SweepConfig::user_space(Workload::LinuxScalability, 0.0002)
            .with_threads(vec![2])
            .with_sizes(vec![64])
            .with_allocators(vec![AllocatorKind::OneLevelNb, AllocatorKind::BuddySl]);
        let measurements = Harness::new(false).run_sweep(&sweep);
        assert_eq!(measurements.len(), 2);
        for m in &measurements {
            assert_eq!(m.workload, "linux-scalability");
            assert_eq!(m.size, 64);
            assert_eq!(m.result.threads, 2);
            assert!(m.result.operations > 0);
        }
        let names: Vec<_> = measurements.iter().map(|m| m.allocator.as_str()).collect();
        assert_eq!(names, vec!["1lvl-nb", "buddy-sl"]);
    }

    #[test]
    fn recording_attaches_latency_percentiles_and_off_switch_removes_them() {
        let sweep = SweepConfig::user_space(Workload::LinuxScalability, 0.0002)
            .with_threads(vec![2])
            .with_sizes(vec![64])
            .with_allocators(vec![AllocatorKind::OneLevelNb]);
        let recorded = Harness::new(false).run_sweep(&sweep);
        let lat = recorded[0].latency.as_ref().expect("recording is on");
        assert!(lat.count > 0, "alloc+free samples recorded");
        assert!(lat.p50_ns.is_finite() && lat.p50_ns > 0.0);
        assert!(lat.p999_ns >= lat.p50_ns, "percentiles monotone");

        let bare = Harness::new(false).with_recording(false).run_sweep(&sweep);
        assert!(bare[0].latency.is_none(), "A/B baseline carries no latency");
    }
}
