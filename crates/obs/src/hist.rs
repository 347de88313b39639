//! Lock-free log-bucketed latency histograms.
//!
//! The paper evaluates the allocators on *throughput* (Figures 8–13); the
//! production north star of this reproduction is judged on p99/p99.9.  This
//! module provides the missing distribution data: an HDR-style log-linear
//! histogram over `nbbs_sync::cycles` timestamps with **two sub-buckets per
//! octave** — every bucket spans at most 50% of its lower bound, so a
//! percentile estimate read back from a bucket is off by less than one
//! bucket width (verified against a sorted-`Vec` oracle in the tests).
//!
//! Recording is a single relaxed `fetch_add` on a per-thread shard (plus a
//! relaxed `fetch_max` for the exact maximum); shards are only merged when a
//! snapshot is taken.  There is no locking anywhere, so the histogram can be
//! updated from allocator hot paths — including re-entrant ones — without
//! changing their progress guarantees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use nbbs_sync::{thread_ordinal, CachePadded, CycleTimer};

/// Number of buckets: 64 octaves × 2 sub-buckets covers the full `u64`
/// range (values 0 and 1 get the two exact low buckets).
pub const BUCKETS: usize = 128;

/// Number of independently updated shards (power of two; threads map onto
/// shards by `thread_ordinal() % SHARDS`).
pub const SHARDS: usize = 16;

/// Maps a cycle count to its bucket index (0..[`BUCKETS`]).
///
/// Values 0 and 1 are exact; larger values land in bucket
/// `2·⌊log2 v⌋ + second-most-significant-bit`, i.e. two sub-buckets per
/// octave.  Monotone in `v`, and `u64::MAX` maps to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    msb * 2 + ((v >> (msb - 1)) & 1) as usize
}

/// The smallest value that maps to bucket `idx` (the inverse of
/// [`bucket_index`]; percentile estimates report this bound).
#[inline]
pub fn bucket_low(idx: usize) -> u64 {
    debug_assert!(idx < BUCKETS);
    if idx < 2 {
        return idx as u64;
    }
    let octave = idx / 2;
    (1u64 << octave) + (idx as u64 % 2) * (1u64 << (octave - 1))
}

/// The largest value that maps to bucket `idx`.
#[inline]
pub fn bucket_high(idx: usize) -> u64 {
    debug_assert!(idx < BUCKETS);
    if idx + 1 == BUCKETS {
        u64::MAX
    } else {
        bucket_low(idx + 1) - 1
    }
}

/// One shard of counters, updated by the threads that hash onto it.
struct Shard {
    counts: [AtomicU64; BUCKETS],
    max: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }
}

/// A sharded, lock-free, log-bucketed histogram of `u64` samples
/// (clock cycles in this crate's use, but the math is unit-agnostic).
///
/// ```
/// use nbbs_obs::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for v in [100u64, 200, 400, 100_000] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.total(), 4);
/// assert_eq!(snap.max, 100_000);
/// let p50 = snap.value_at_quantile(0.5).unwrap();
/// assert!(p50 <= 200, "estimate is the bucket's lower bound");
/// ```
pub struct LatencyHistogram {
    shards: Box<[CachePadded<Shard>]>,
}

impl LatencyHistogram {
    /// Creates an empty histogram with [`SHARDS`] shards.
    pub fn new() -> Self {
        LatencyHistogram {
            shards: (0..SHARDS)
                .map(|_| CachePadded::new(Shard::new()))
                .collect(),
        }
    }

    /// Records one sample on the calling thread's shard.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.shards[thread_ordinal() % SHARDS];
        shard.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merges every shard into one point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for shard in self.shards.iter() {
            for (i, c) in shard.counts.iter().enumerate() {
                out.counts[i] += c.load(Ordering::Relaxed);
            }
            out.max = out.max.max(shard.max.load(Ordering::Relaxed));
        }
        out
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A merged point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_low`] for the bucket bounds).
    pub counts: [u64; BUCKETS],
    /// Exact largest recorded sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Accumulates `other` into `self`, bucket by bucket (associative and
    /// commutative — the shard-merge and cross-instance merge operation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.max = self.max.max(other.max);
    }

    /// The lower bound of the bucket holding the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`), or `None` if the histogram is empty.
    ///
    /// The estimate under-reports by strictly less than one bucket width
    /// (≤ 50% of the value); the exact maximum is available in
    /// [`HistogramSnapshot::max`].
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        if rank == total {
            // The top rank is the maximum, which is tracked exactly.
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // A non-empty bucket holds samples ≥ its low bound, so the
                // clamp is a no-op in practice; it guarantees the estimate
                // never over-reports the exact maximum.
                return Some(bucket_low(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Converts the tail quantiles to nanoseconds via the calibrated TSC
    /// frequency ([`tsc_hz`]).  Empty histograms yield NaN percentiles
    /// (serialized as `null` by the JSON exposition).
    pub fn percentiles(&self) -> LatencyPercentiles {
        self.percentiles_at(tsc_hz())
    }

    /// [`HistogramSnapshot::percentiles`] with an explicit cycle frequency
    /// (tests use 1 GHz so cycles and nanoseconds coincide).
    pub fn percentiles_at(&self, hz: f64) -> LatencyPercentiles {
        let to_ns = |c: Option<u64>| match c {
            Some(c) if hz > 0.0 => c as f64 * 1e9 / hz,
            _ => f64::NAN,
        };
        let count = self.total();
        LatencyPercentiles {
            count,
            p50_ns: to_ns(self.value_at_quantile(0.50)),
            p90_ns: to_ns(self.value_at_quantile(0.90)),
            p99_ns: to_ns(self.value_at_quantile(0.99)),
            p999_ns: to_ns(self.value_at_quantile(0.999)),
            max_ns: to_ns(if count == 0 { None } else { Some(self.max) }),
        }
    }
}

/// Tail-latency summary of one histogram, calibrated to nanoseconds.
///
/// All fields are NaN when `count == 0`; the JSON helpers in
/// [`crate::json`] serialize non-finite values as `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPercentiles {
    /// Number of samples the percentiles summarize.
    pub count: u64,
    /// Median, in nanoseconds.
    pub p50_ns: f64,
    /// 90th percentile, in nanoseconds.
    pub p90_ns: f64,
    /// 99th percentile, in nanoseconds.
    pub p99_ns: f64,
    /// 99.9th percentile, in nanoseconds.
    pub p999_ns: f64,
    /// Exact maximum, in nanoseconds.
    pub max_ns: f64,
}

impl LatencyPercentiles {
    /// The empty summary (count 0, NaN percentiles).
    pub fn empty() -> Self {
        LatencyPercentiles {
            count: 0,
            p50_ns: f64::NAN,
            p90_ns: f64::NAN,
            p99_ns: f64::NAN,
            p999_ns: f64::NAN,
            max_ns: f64::NAN,
        }
    }

    /// Whether any sample backs this summary.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Renders as one JSON object (`null` for non-finite fields).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\
             \"max_ns\":{}}}",
            self.count,
            crate::json::num(self.p50_ns),
            crate::json::num(self.p90_ns),
            crate::json::num(self.p99_ns),
            crate::json::num(self.p999_ns),
            crate::json::num(self.max_ns),
        )
    }
}

impl Default for LatencyPercentiles {
    fn default() -> Self {
        Self::empty()
    }
}

/// The calibrated TSC frequency in Hz, measured once per process by timing
/// a ~20 ms sleep against both clocks (`CycleTimer::estimated_frequency_hz`)
/// and cached.  Falls back to 1 GHz if the measurement is implausible —
/// which also makes the non-x86_64 nanosecond clock exact by construction.
pub fn tsc_hz() -> f64 {
    static HZ: OnceLock<f64> = OnceLock::new();
    *HZ.get_or_init(|| {
        let timer = CycleTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let hz = timer.estimated_frequency_hz();
        if (1e8..1e11).contains(&hz) {
            hz
        } else {
            1e9
        }
    })
}

/// Converts a cycle count to nanoseconds via [`tsc_hz`].
pub fn cycles_to_ns(cycles: u64) -> f64 {
    cycles as f64 * 1e9 / tsc_hz()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_at_the_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(6), 5);
        assert_eq!(bucket_index(7), 5);
        assert_eq!(bucket_index(8), 6);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_low(0), 0);
        assert_eq!(bucket_low(1), 1);
        assert_eq!(bucket_low(BUCKETS - 1), (1 << 63) + (1 << 62));
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_index_is_monotone_and_inverts_bounds() {
        for idx in 0..BUCKETS {
            let low = bucket_low(idx);
            let high = bucket_high(idx);
            assert!(low <= high);
            assert_eq!(bucket_index(low), idx, "low bound of {idx}");
            assert_eq!(bucket_index(high), idx, "high bound of {idx}");
            if idx + 1 < BUCKETS {
                assert_eq!(bucket_low(idx + 1), high + 1, "buckets tile the range");
            }
        }
    }

    #[test]
    fn bucket_width_is_at_most_half_the_low_bound() {
        for idx in 4..BUCKETS {
            let low = bucket_low(idx);
            let width = bucket_high(idx) - low + 1;
            assert!(
                width as u128 * 2 <= low as u128,
                "bucket {idx}: width {width} vs low {low}"
            );
        }
    }

    #[test]
    fn empty_histogram_has_nan_percentiles() {
        let h = LatencyHistogram::new();
        let snap = h.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.value_at_quantile(0.5), None);
        let p = snap.percentiles_at(1e9);
        assert!(p.is_empty());
        assert!(p.p50_ns.is_nan() && p.p99_ns.is_nan() && p.max_ns.is_nan());
        assert!(p.to_json().contains("\"p50_ns\":null"));
        assert!(p.to_json().contains("\"max_ns\":null"));
    }

    #[test]
    fn percentiles_track_a_known_distribution() {
        let h = LatencyHistogram::new();
        // 1000 samples: 990 at ~100 cycles, 10 at ~100k cycles.
        for _ in 0..990 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.total(), 1000);
        assert_eq!(snap.max, 100_000);
        let p50 = snap.value_at_quantile(0.50).unwrap();
        let p99 = snap.value_at_quantile(0.99).unwrap();
        let p999 = snap.value_at_quantile(0.999).unwrap();
        assert_eq!(bucket_index(p50), bucket_index(100));
        assert_eq!(bucket_index(p99), bucket_index(100), "p99 is still fast");
        assert_eq!(
            bucket_index(p999),
            bucket_index(100_000),
            "p99.9 is the tail"
        );
        // At 1 GHz the nanosecond summary mirrors the cycle values.
        let p = snap.percentiles_at(1e9);
        assert_eq!(p.count, 1000);
        assert!((p.max_ns - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn merge_accumulates_counts_and_max() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(10);
        b.record(10);
        b.record(1 << 40);
        let mut sa = a.snapshot();
        let sb = b.snapshot();
        sa.merge(&sb);
        assert_eq!(sa.total(), 3);
        assert_eq!(sa.max, 1 << 40);
        assert_eq!(sa.counts[bucket_index(10)], 2);
    }

    #[test]
    fn calibration_is_plausible_and_stable() {
        let hz = tsc_hz();
        assert!((1e8..1e11).contains(&hz), "tsc_hz() = {hz}");
        assert_eq!(tsc_hz(), hz, "cached after first measurement");
        assert!(cycles_to_ns(0) == 0.0);
    }
}
