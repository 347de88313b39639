//! # nbbs-obs — the one observation surface of the NBBS reproduction.
//!
//! The paper evaluates the allocators on *throughput*; the production north
//! star is judged on p99/p99.9 and on being able to say what a slow or
//! failed allocation was doing.  Everything the stack offers for that is
//! here, behind one handle.
//!
//! **What the handle owns.**  A [`Recorder`] is one allocator stack's
//! observer: one lock-free log-bucketed [`LatencyHistogram`] per [`OpKind`]
//! (p50…p99.9/max, calibrated to nanoseconds via [`tsc_hz`]); one
//! [`TraceRing`] of the same events (start TSC, duration, kind, detail,
//! NUMA node, outcome), recording from the moment the recorder exists, with
//! two views — [`TraceRing::flight_dump`], the run-length `[flight]` tail
//! that `atexit` hooks, panic paths and failing soak assertions print, and
//! [`TraceRing::to_chrome_json`], the chrome://tracing timeline, windowed
//! by [`TraceRing::stop`] / [`TraceRing::start`] epochs; and, when armed
//! with one ([`Recorder::with_profiler`]), a sampled allocation-site
//! [`HeapProfiler`] dumped as a ranked [`ProfileReport`].
//!
//! **How a layer records.**  The facade, the cache and the slab each hold
//! one `Option<Arc<Recorder>>` and wrap a slow path in [`Recorder::time`]:
//!
//! ```
//! use std::sync::Arc;
//! use nbbs_obs::{OpKind, Recorder};
//!
//! let refill = |obs: &Option<Arc<Recorder>>| {
//!     Recorder::time(obs, OpKind::CacheRefill, || Some(8u64), |got| {
//!         (got.unwrap_or(0), got.is_some())
//!     })
//! };
//! assert_eq!(refill(&None), Some(8)); // one `Option` tested, no timestamp read
//! let rec = Arc::new(Recorder::new());
//! refill(&Some(Arc::clone(&rec)));
//! assert_eq!(rec.snapshot(OpKind::CacheRefill).total(), 1);
//! assert!(rec.ring().flight_dump().contains("cache_refill"));
//! ```
//!
//! A profiler-only handle ([`Recorder::profiler_only`]) reads no timestamp
//! either, and a new cause costs one [`OpKind`] variant and one such call.
//! [`Recorded`] is the same thing as a `BuddyBackend` wrapper (sampled by a
//! per-thread stride), which instruments every workload driver without
//! touching its loop.
//!
//! **How it is armed.**  In code, pass the handle to each layer's
//! `with_recorder` (`NbbsAllocator`, `MagazineCache`, `SlabBackend`).  The
//! shipped `NbbsGlobalAlloc` is armed by its process's environment alone:
//! `NBBS_OBS=1`, `NBBS_TRACE=1|<path>` (chrome trace at exit, to stderr or
//! the file) and `NBBS_PROFILE=<stride>`, which `nbbs-alloc` parses in one
//! place.
//!
//! Around the handle: [`MetricsRegistry`] / [`StackSnapshot`] unify every
//! counter family of the stack with one text-table and JSON exposition, and
//! [`jsoncheck`] is the strict parser every emitted format is gated by (the
//! build environment is offline — no serde).  The crate depends only on
//! `nbbs` and `nbbs-sync`, so every higher layer can use it without cycles:
//! each layer's snapshot type lives in [`nbbs::stats`], the recording
//! thread's NUMA node arrives through `nbbs_sync::thread_node`.

pub mod flight;
pub mod hist;
pub mod jsoncheck;
pub mod profile;
pub mod recorded;
pub mod recorder;
pub mod registry;
pub mod ring;

pub use flight::FLIGHT_TAIL;
pub use hist::{
    bucket_high, bucket_index, bucket_low, cycles_to_ns, tsc_hz, HistogramSnapshot,
    LatencyHistogram, LatencyPercentiles, BUCKETS,
};
pub use profile::{HeapProfiler, ProfileReport, SiteReport, DEFAULT_PROFILE_STRIDE};
pub use recorded::{Recorded, DEFAULT_SAMPLE_STRIDE};
pub use recorder::{size_detail, OpKind, OpOutcome, Recorder};
pub use registry::{MetricsRegistry, StackSnapshot};
pub use ring::{TraceEvent, TraceRing, TRACE_CAPACITY, TRACE_RINGS};

/// Hand-rolled JSON helpers shared by every exposition path in the
/// workspace (the build environment is offline — no serde).
pub mod json {
    /// Escapes a string for inclusion inside JSON double quotes:
    /// backslash, quote, and every control character below U+0020.
    pub fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Renders a float as a JSON number, or `null` when it is NaN or
    /// infinite (the required encoding for percentiles of an empty
    /// histogram — JSON has no NaN).
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn esc_handles_quotes_backslashes_and_controls() {
            assert_eq!(esc("plain"), "plain");
            assert_eq!(esc("a\"b"), "a\\\"b");
            assert_eq!(esc("a\\b"), "a\\\\b");
            assert_eq!(esc("a\nb\tc\r"), "a\\nb\\tc\\r");
            assert_eq!(esc("\u{1}"), "\\u0001");
            assert_eq!(esc("uni\u{e9}"), "uni\u{e9}", "non-ASCII passes through");
        }

        #[test]
        fn num_maps_non_finite_to_null() {
            assert_eq!(num(1.5), "1.500");
            assert_eq!(num(f64::NAN), "null");
            assert_eq!(num(f64::INFINITY), "null");
            assert_eq!(num(f64::NEG_INFINITY), "null");
        }
    }
}
