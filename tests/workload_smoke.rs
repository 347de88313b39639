//! End-to-end smoke tests of the benchmark harness: every figure's sweep can
//! be executed (at a tiny scale) and produces structurally sound
//! measurements, reports and gain summaries.

use nbbs_workloads::factory::AllocatorKind;
use nbbs_workloads::harness::{FigureSpec, Harness, Metric, SweepConfig, Workload};
use nbbs_workloads::report;

fn tiny(sweep: SweepConfig) -> SweepConfig {
    sweep.with_threads(vec![2]).with_sizes(vec![64])
}

#[test]
fn every_user_space_figure_sweep_runs_end_to_end() {
    let harness = Harness::new(false);
    for (figure, workload) in [
        (FigureSpec::Fig8, Workload::LinuxScalability),
        (FigureSpec::Fig9, Workload::ThreadTest),
        (FigureSpec::Fig11, Workload::ConstantOccupancy),
    ] {
        let sweep = tiny(SweepConfig::user_space(workload, 0.0002));
        let measurements = harness.run_sweep(&sweep);
        assert_eq!(measurements.len(), 5, "{figure:?}");
        for m in &measurements {
            assert_eq!(m.result.threads, 2);
            assert!(m.result.operations > 0);
            assert!(m.result.seconds > 0.0);
            assert_eq!(m.result.failed_allocs, 0, "{figure:?} {}", m.allocator);
        }
        // All five paper allocators are present exactly once.
        let mut names: Vec<&str> = measurements.iter().map(|m| m.allocator.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            vec!["1lvl-nb", "1lvl-sl", "4lvl-nb", "4lvl-sl", "buddy-sl"]
        );
    }
}

#[test]
fn larson_figure_sweep_reports_throughput() {
    let harness = Harness::new(false);
    let sweep = tiny(SweepConfig::user_space(Workload::Larson, 0.01));
    let measurements = harness.run_sweep(&sweep);
    assert_eq!(measurements.len(), 5);
    for m in &measurements {
        assert!(
            m.result.kops_per_sec() > 0.0,
            "{} reported zero throughput",
            m.allocator
        );
        // Recording is on by default: every row of the figure carries real
        // percentiles, in the record and in the JSON line written from it.
        let lat = m.latency.as_ref().expect("recorded row");
        assert!(
            lat.p50_ns.is_finite() && lat.p99_ns.is_finite(),
            "{}: {lat:?}",
            m.allocator
        );
        let json = m.to_json();
        assert!(json.contains("\"latency\":{"), "{json}");
        assert!(
            !json.contains("\"p50_ns\":null") && !json.contains("\"p99_ns\":null"),
            "{json}"
        );
    }
}

#[test]
fn kernel_comparison_sweep_runs_and_reports_cycles() {
    let harness = Harness::new(false);
    let sweep =
        SweepConfig::kernel_comparison(Workload::LinuxScalability, 0.0002).with_threads(vec![2]);
    let measurements = harness.run_sweep(&sweep);
    assert_eq!(measurements.len(), 4);
    for m in &measurements {
        assert!(m.result.cycles > 0, "{}", m.allocator);
        assert_eq!(m.size, 128 << 10);
    }
    let names: std::collections::HashSet<&str> =
        measurements.iter().map(|m| m.allocator.as_str()).collect();
    assert!(names.contains("linux-buddy"));
}

#[test]
fn reports_are_generated_from_real_measurements() {
    let harness = Harness::new(false);
    let sweep = SweepConfig::user_space(Workload::LinuxScalability, 0.0002)
        .with_threads(vec![1, 2])
        .with_sizes(vec![8])
        .with_allocators(vec![
            AllocatorKind::FourLevelNb,
            AllocatorKind::OneLevelNb,
            AllocatorKind::BuddySl,
        ]);
    let measurements = harness.run_sweep(&sweep);
    assert_eq!(measurements.len(), 6);

    let table = report::text_table(&measurements, Metric::Seconds);
    assert!(table.contains("Bytes=8"));
    assert!(table.contains("4lvl-nb"));

    let gains = report::speedup_summary(&measurements, Metric::Seconds);
    assert_eq!(gains.len(), 2); // one row per thread count
    for g in &gains {
        assert!(["1lvl-nb", "4lvl-nb"].contains(&g.best_non_blocking.0.as_str()));
        assert_eq!(g.best_blocking.0, "buddy-sl");
    }
    assert!(!report::gain_table(&gains).is_empty());
}

#[test]
fn figure_metadata_is_consistent() {
    for &figure in FigureSpec::all() {
        assert!(!figure.title().is_empty());
        let sweeps = figure.sweeps(0.001);
        assert!(!sweeps.is_empty());
        for sweep in sweeps {
            assert!(sweep.cell_count() > 0);
            assert!(sweep.scale > 0.0);
        }
    }
    assert_eq!(FigureSpec::Fig10.metric(), Metric::KopsPerSec);
    assert_eq!(FigureSpec::Fig12.metric(), Metric::Cycles);
}
