//! The observation handle threaded through the allocator stack: one
//! `Option<Arc<Recorder>>` per layer, one [`Recorder::time`] call per slow
//! path.  `None` reads no timestamp; armed, one recording is two `rdtsc`
//! reads, one relaxed `fetch_add`/`fetch_max` pair on a per-thread
//! histogram shard, and one two-word store into the event ring.

use std::sync::Arc;

use nbbs_sync::cycles_now;

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::ring::TraceRing;

/// The operations the stack records, one histogram each.
///
/// The first four are front-end/workload-level operations (the global
/// shell's calls, a workload driver's); the `Cache*` kinds are the magazine
/// cache's backend-touching slow paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// An allocation observed at the shell or workload boundary.
    Alloc = 0,
    /// A release observed at the shell or workload boundary.
    Free = 1,
    /// An in-place-or-move grow at the shell.
    Grow = 2,
    /// An in-place-or-move shrink at the shell.
    Shrink = 3,
    /// A cache miss: the first backend allocation a miss performs.
    CacheMiss = 4,
    /// A magazine flush returning chunks to the backend.
    CacheFlush = 5,
    /// A batched backend refill after a miss.
    CacheRefill = 6,
    /// The slab layer carving a fresh page out of the buddy tree.
    PageGrant = 7,
    /// The slab layer returning an empty page to the buddy tree.
    PageRetire = 8,
    /// A rescue pass returning chunks or pages a panic stranded mid-flight.
    OrphanRescue = 9,
}

impl OpKind {
    /// Number of kinds (the recorder keeps one histogram per kind).
    pub const COUNT: usize = 10;

    /// Every kind, in discriminant order.
    pub const ALL: [OpKind; OpKind::COUNT] = [
        OpKind::Alloc,
        OpKind::Free,
        OpKind::Grow,
        OpKind::Shrink,
        OpKind::CacheMiss,
        OpKind::CacheFlush,
        OpKind::CacheRefill,
        OpKind::PageGrant,
        OpKind::PageRetire,
        OpKind::OrphanRescue,
    ];

    /// Short stable name used in reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Alloc => "alloc",
            OpKind::Free => "free",
            OpKind::Grow => "grow",
            OpKind::Shrink => "shrink",
            OpKind::CacheMiss => "cache_miss",
            OpKind::CacheFlush => "cache_flush",
            OpKind::CacheRefill => "cache_refill",
            OpKind::PageGrant => "page_grant",
            OpKind::PageRetire => "page_retire",
            OpKind::OrphanRescue => "orphan_rescue",
        }
    }

    /// Inverse of the discriminant, for decoding ring slots.
    pub fn from_index(i: u8) -> Option<OpKind> {
        OpKind::ALL.get(i as usize).copied()
    }
}

/// Whether a recorded operation succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpOutcome {
    /// The operation completed.
    Ok = 0,
    /// The operation failed (out of memory, exhausted scan, moved realloc).
    Failed = 1,
}

impl OpOutcome {
    /// `Ok` for `true`, `Failed` for `false`.
    pub fn from_ok(ok: bool) -> Self {
        if ok {
            OpOutcome::Ok
        } else {
            OpOutcome::Failed
        }
    }
}

/// The per-stack observation handle: one latency histogram per [`OpKind`]
/// and the event ring of recent operations.
///
/// Shared as `Arc<Recorder>` by every instrumented layer of one allocator
/// stack, so a single snapshot, crash dump or trace export sees the shell,
/// the cache and the slab together.
pub struct Recorder {
    hists: [LatencyHistogram; OpKind::COUNT],
    ring: TraceRing,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder {
            hists: std::array::from_fn(|_| LatencyHistogram::new()),
            ring: TraceRing::new(),
        }
    }

    /// Runs `op`, timing it as one `kind` event when `obs` holds a
    /// recorder.  `describe` turns the finished operation into the event's
    /// `detail` payload and whether it succeeded; it runs only when the
    /// event is recorded, so an un-armed layer pays one `Option` test.
    /// `op` appears once in the body, so a caller's inlined fast path is
    /// not compiled twice (timed and untimed) into the caller.
    #[inline(always)]
    pub fn time<T>(
        obs: &Option<Arc<Recorder>>,
        kind: OpKind,
        op: impl FnOnce() -> T,
        describe: impl FnOnce(&T) -> (u64, bool),
    ) -> T {
        let started = obs.as_deref().map(|rec| (rec, cycles_now()));
        let out = op();
        if let Some((rec, t0)) = started {
            let (detail, ok) = describe(&out);
            rec.record_since(kind, t0, detail, OpOutcome::from_ok(ok));
        }
        out
    }

    /// Records one operation that started at TSC value `start_cycles`.
    ///
    /// `detail` is a small payload shown in crash dumps and trace exports —
    /// the size-class log2 for alloc/free, a chunk count for cache ops.
    #[inline]
    pub fn record_since(&self, kind: OpKind, start_cycles: u64, detail: u64, outcome: OpOutcome) {
        let dt = cycles_now().wrapping_sub(start_cycles);
        self.hists[kind as usize].record(dt);
        self.ring.push(kind, start_cycles, dt, detail, outcome);
    }

    /// Records one operation of known duration `cycles` (its start is
    /// reconstructed from the current TSC).
    #[inline]
    pub fn record_cycles(&self, kind: OpKind, cycles: u64, detail: u64, outcome: OpOutcome) {
        self.hists[kind as usize].record(cycles);
        self.ring.push(
            kind,
            cycles_now().wrapping_sub(cycles),
            cycles,
            detail,
            outcome,
        );
    }

    /// Snapshot of one kind's histogram.
    pub fn snapshot(&self, kind: OpKind) -> HistogramSnapshot {
        self.hists[kind as usize].snapshot()
    }

    /// Merged snapshot over a set of kinds (e.g. `Alloc` + `Free` for the
    /// per-row tail-latency summary of a benchmark measurement).
    pub fn merged_snapshot(&self, kinds: &[OpKind]) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for &k in kinds {
            out.merge(&self.snapshot(k));
        }
        out
    }

    /// The event ring: recent operations, with the crash-dump
    /// ([`TraceRing::flight_dump`]) and chrome-trace
    /// ([`TraceRing::to_chrome_json`]) views.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("recorded", &self.merged_snapshot(&OpKind::ALL).total())
            .finish()
    }
}

/// The size-class detail payload: `⌈log2(size)⌉`, read back as
/// `~2^detail` bytes.
#[inline]
pub fn size_detail(size: usize) -> u64 {
    (usize::BITS - size.saturating_sub(1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_indices() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
            assert_eq!(OpKind::from_index(i as u8), Some(*k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(OpKind::from_index(OpKind::COUNT as u8), None);
    }

    #[test]
    fn recording_lands_in_the_right_histogram() {
        let rec = Recorder::new();
        rec.record_cycles(OpKind::Alloc, 100, size_detail(128), OpOutcome::Ok);
        rec.record_cycles(OpKind::Alloc, 200, size_detail(128), OpOutcome::Ok);
        rec.record_cycles(OpKind::Free, 50, size_detail(128), OpOutcome::Ok);
        assert_eq!(rec.snapshot(OpKind::Alloc).total(), 2);
        assert_eq!(rec.snapshot(OpKind::Free).total(), 1);
        assert_eq!(rec.snapshot(OpKind::Grow).total(), 0);
        assert_eq!(
            rec.merged_snapshot(&[OpKind::Alloc, OpKind::Free]).total(),
            3
        );
        assert_eq!(
            rec.ring().events().len(),
            3,
            "every recording is in the ring"
        );
    }

    #[test]
    fn record_since_measures_elapsed_cycles() {
        let rec = Recorder::new();
        let t0 = nbbs_sync::cycles_now();
        let mut acc = 1u64;
        for i in 1..10_000u64 {
            acc = acc.wrapping_mul(i | 1);
        }
        std::hint::black_box(acc);
        rec.record_since(OpKind::Alloc, t0, 0, OpOutcome::Ok);
        let snap = rec.snapshot(OpKind::Alloc);
        assert_eq!(snap.total(), 1);
        assert!(snap.max > 0, "real work takes nonzero cycles");
    }

    #[test]
    fn every_recording_reaches_the_ring_until_stopped() {
        let rec = Recorder::new();
        rec.record_cycles(OpKind::PageGrant, 300, 4, OpOutcome::Ok);
        rec.record_since(OpKind::CacheMiss, cycles_now(), 1, OpOutcome::Failed);
        rec.ring().stop();
        rec.record_cycles(OpKind::Alloc, 80, 7, OpOutcome::Ok);
        let events = rec.ring().events();
        assert_eq!(events.len(), 2, "a stopped ring gates the third");
        assert_eq!(events[0].kind, OpKind::PageGrant);
        assert_eq!(events[0].duration_cycles, 300);
        assert!(events[0].start_cycles > 0, "start TSC is reconstructed");
        assert_eq!(events[1].outcome, OpOutcome::Failed);
        assert_eq!(
            rec.snapshot(OpKind::Alloc).total(),
            1,
            "histograms do not stop"
        );
    }

    #[test]
    fn time_records_only_on_an_armed_handle() {
        assert_eq!(
            Recorder::time(
                &None,
                OpKind::Alloc,
                || Some(1),
                |_| unreachable!("an unarmed layer describes nothing"),
            ),
            Some(1)
        );

        let armed = Some(Arc::new(Recorder::new()));
        assert_eq!(
            Recorder::time(
                &armed,
                OpKind::Alloc,
                || None::<u32>,
                |out| (7, out.is_some())
            ),
            None
        );
        let rec = armed.as_ref().unwrap();
        assert_eq!(rec.snapshot(OpKind::Alloc).total(), 1);
        let ev = rec.ring().events()[0];
        assert_eq!((ev.class, ev.outcome), (7, OpOutcome::Failed));
    }

    #[test]
    fn size_detail_is_log2ish() {
        assert_eq!(size_detail(1), 0);
        assert_eq!(size_detail(2), 1);
        assert_eq!(size_detail(128), 7);
        assert_eq!(size_detail(129), 8);
        assert_eq!(size_detail(1 << 20), 20);
    }
}
