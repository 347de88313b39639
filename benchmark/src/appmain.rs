//! What `app_nbbs`, `app_system` and `app_rung` do around [`crate::app::run`]:
//! read their arguments, generate the inputs, measure, print one JSON object.

use std::sync::Mutex;

use crate::app::{self, Hooks};
use crate::cli::Args;
use crate::json::Json;
use crate::span;
use crate::stats::percentile_sorted;
use crate::surface::{Counters, Night};
use crate::sys::{self, Clock};

/// What the binary knows about its own `#[global_allocator]`.
pub trait Probe: Sync {
    /// Bytes the allocator counts as handed out.
    fn granted(&self) -> Option<usize> {
        None
    }
    /// Requested bytes currently live.
    fn requested(&self) -> Option<u64> {
        None
    }
    /// `drain_cache()` then `scrub_pass()`.
    fn night(&self) -> Night {
        Night::default()
    }
    fn counters(&self, _out: &mut Counters) {}
    /// Further numbers to print, measured after the last night.
    fn extras(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Whether the allocator records spans.
    fn spanned(&self) -> bool {
        false
    }
}

#[derive(Default)]
struct Mid {
    /// Resident KiB half way and when worker 0 has served its last request.
    rss_kib: u64,
    end_rss_kib: u64,
    granted: Option<usize>,
    requested: Option<u64>,
    parked: f64,
    span_cost: Option<span::SpanCost>,
}

struct Measuring<'a> {
    probe: &'a dyn Probe,
    mid: Mutex<Mid>,
}

impl Hooks for Measuring<'_> {
    fn worker_start(&self, worker: usize) {
        if self.probe.spanned() {
            if worker == 0 {
                let cost = span::calibrate();
                self.mid.lock().expect("hooks do not panic").span_cost = Some(cost);
            }
            span::start();
        }
    }
    fn mid(&self) {
        let mut counters = Counters::new();
        self.probe.counters(&mut counters);
        let mut mid = self.mid.lock().expect("hooks do not panic");
        mid.rss_kib = sys::rss_kib();
        mid.granted = self.probe.granted();
        mid.requested = self.probe.requested();
        mid.parked = counters.get("cache.parked_bytes").copied().unwrap_or(0.0);
    }
    fn worker_end(&self, worker: usize) {
        if self.probe.spanned() {
            span::stop();
        }
        if worker == 0 {
            self.mid.lock().expect("hooks do not panic").end_rss_kib = sys::rss_kib();
        }
    }
}

/// Runs the program and prints its measurements.  `setup_s` is the CPU time
/// the process had used when its first allocation had been served.
pub fn main(probe: &dyn Probe, setup_s: f64) -> Result<(), String> {
    let args = Args::from_env();
    let seed = args.value("seed", 1u64)?;
    let workers = args.value("workers", sys::default_threads())?;
    let scale = args.value("scale", 1.0f64)?;
    let out_dir = std::path::PathBuf::from(args.text("out").unwrap_or("out"));
    if workers == 0 || workers > sys::nproc() {
        return Err(format!(
            "{workers} workers asked for, {} CPUs available: a closed loop never runs more callers than CPUs",
            sys::nproc()
        ));
    }
    let requests = ((app::FULL_REQUESTS * scale) as usize).max(8);
    let clock = Clock::calibrate();
    let steal0 = sys::steal_ticks();
    let inputs = app::inputs(seed, workers, requests);
    let input_kib = inputs.bytes() as u64 / 1024;

    let hooks = Measuring {
        probe,
        mid: Mutex::new(Mid::default()),
    };
    let report = app::run(&inputs, &hooks);
    let mid = hooks.mid.into_inner().expect("workers are joined");

    // The workers are gone and so is everything they held.
    let rss_before = sys::rss_kib();
    let night = probe.night();
    let rss_after = sys::rss_kib();
    let extras = probe.extras();
    let mut counters = Counters::new();
    probe.counters(&mut counters);

    // The inputs are the harness's memory, not the program's.
    let above = |kib: u64| kib.saturating_sub(input_kib) as f64 / 1024.0;
    let pct = |p: f64| {
        percentile_sorted(&report.latency_cycles, p).map_or(0.0, |c| clock.call_ns(u64::from(c)))
    };
    let mut out = std::collections::BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), Json::Num(v));
    };
    put("busy_s", report.busy_s);
    put("calls", report.requests as f64);
    put("failed", 0.0);
    put("ops_per_s", report.requests as f64 / report.busy_s);
    put(
        "ns_per_op",
        report.busy_s * 1e9 * workers as f64 / report.requests as f64,
    );
    put("op_p50_ns", pct(50.0));
    put("op_p99_ns", pct(99.0));
    put("op_p999_ns", pct(99.9));
    put("samples", report.latency_cycles.len() as f64);
    if let (Some(granted), Some(requested)) = (mid.granted, mid.requested) {
        put(
            "granted_over_requested",
            granted as f64 / requested.max(1) as f64,
        );
        put("requested_at_mid", requested as f64);
    }
    put("parked_mib", mid.parked / (1 << 20) as f64);
    // Exact readings half way and when the last request has been served,
    // where the indexes are fullest (see `replay.rs` on `VmHWM`).
    let peak = mid.rss_kib.max(mid.end_rss_kib);
    put("peak_rss_mib", above(peak));
    put(
        "trough_rss_pct",
        100.0 * above(rss_after) / above(peak).max(1.0 / 1024.0),
    );
    put("trough_rss_mib", above(rss_after));
    put("idle_rss_mib", above(rss_before));
    put("setup_s", setup_s);
    put("drain_ms", night.drain_s * 1e3);
    put("scrub_ms", night.scrub_s * 1e3);
    put("unpinned", report.unpinned as f64);
    put("clock_overhead_ns", clock.overhead_ns());
    put(
        "steal_ticks",
        sys::steal_ticks().saturating_sub(steal0) as f64,
    );
    for (k, v) in &counters {
        put(&format!("counter.{k}"), *v);
    }
    for (k, v) in extras {
        put(k, v);
    }
    if probe.spanned() {
        let cost = mid.span_cost.expect("worker 0 calibrated");
        let tag = format!("app-global-{seed}");
        let a = span::collect(&clock, cost, &out_dir, &tag, 50_000);
        for (k, v) in a.pairs() {
            put(&k, v);
        }
    }
    let mut doc = Json::Obj(out);
    if let Json::Obj(map) = &mut doc {
        // As text: a u64 does not survive a trip through a JSON number.
        map.insert(
            "checksum".into(),
            Json::Str(format!("{:016x}", report.checksum)),
        );
        map.insert("errors".into(), Json::Arr(Vec::new()));
    }
    println!("{doc}");
    Ok(())
}
