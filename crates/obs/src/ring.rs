//! The event ring: per-thread rings of raw operation events.
//!
//! Every [`Recorder`](crate::Recorder) owns one.  A slot keeps enough per
//! event — the start TSC and the duration — to reconstruct a *timeline*,
//! and the ring has two views: the run-length `[flight]` crash dump of each
//! ring's tail ([`TraceRing::flight_dump`]) and the chrome://tracing JSON
//! export Perfetto and `chrome://tracing` open directly
//! ([`TraceRing::to_chrome_json`]).
//!
//! Each slot is two `AtomicU64`s:
//!
//! * word 0 — the raw start TSC of the operation;
//! * word 1 — `(kind+1) << 56 | outcome << 55 | node << 49 | class << 41
//!   | epoch << 33 | duration` (duration saturates at 2³³−1 cycles ≈ 2 s);
//!   an all-zero word 1 is the unambiguous empty-slot sentinel.
//!
//! Writers publish word 0 first and word 1 with `Release`; a reader that
//! `Acquire`-loads word 1 therefore sees the matching start.  A slot being
//! *reused* under a concurrent reader can still pair a new start with an
//! old word 1 — like every snapshot in this stack, a dump is exact at
//! quiescence and best-effort in flight.
//!
//! A ring records from the moment it exists (epoch 0), so a crash dump
//! always has a tail.  [`TraceRing::stop`] / [`TraceRing::start`] bracket a
//! window for export: recording is gated by one relaxed [`AtomicBool`], and
//! every `start` opens a new epoch the window's events are tagged with.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nbbs_sync::{thread_node, thread_ordinal, CachePadded};

use crate::hist::{cycles_to_ns, tsc_hz};
use crate::json;
use crate::recorder::{OpKind, OpOutcome};

/// Number of rings (threads map onto rings by ordinal).
pub const TRACE_RINGS: usize = 8;

/// Events retained per ring.
pub const TRACE_CAPACITY: usize = 4096;

const DUR_BITS: u32 = 33;
const DUR_MAX: u64 = (1 << DUR_BITS) - 1;

fn encode(kind: OpKind, outcome: OpOutcome, node: u8, class: u8, epoch: u8, dur: u64) -> u64 {
    ((kind as u64 + 1) << 56)
        | ((outcome as u64) << 55)
        | ((node as u64 & 0x3F) << 49)
        | ((class as u64) << 41)
        | ((epoch as u64) << 33)
        | dur.min(DUR_MAX)
}

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Ring the event was recorded on (a stable thread-group id).
    pub ring: usize,
    /// What operation ran.
    pub kind: OpKind,
    /// Whether it succeeded.
    pub outcome: OpOutcome,
    /// Raw TSC value at which the operation started.
    pub start_cycles: u64,
    /// Duration in cycles (saturated to 2³³−1).
    pub duration_cycles: u64,
    /// Size-class detail (`⌈log2 size⌉` for alloc/free, refill counts for
    /// cache ops), saturated to 255.
    pub class: u8,
    /// NUMA node the recording thread declared via
    /// [`nbbs_sync::set_thread_node`], if any.
    pub node: Option<usize>,
    /// Low 8 bits of the recording epoch the event belongs to.
    pub epoch: u8,
}

struct Slot {
    start: AtomicU64,
    word: AtomicU64,
}

struct Ring {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    start: AtomicU64::new(0),
                    word: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

/// Lock-free per-thread-group event rings with start/stop epochs.
///
/// ```
/// use nbbs_obs::{OpKind, OpOutcome, Recorder};
///
/// let rec = Recorder::new();
/// rec.record_cycles(OpKind::Alloc, 120, 7, OpOutcome::Ok);
/// rec.ring().stop();
/// rec.record_cycles(OpKind::Free, 90, 7, OpOutcome::Ok); // not in the ring
/// assert_eq!(rec.ring().events().len(), 1);
/// assert!(rec.ring().flight_dump().contains("alloc"));
/// ```
pub struct TraceRing {
    rings: Box<[CachePadded<Ring>]>,
    capacity: usize,
    enabled: AtomicBool,
    epoch: AtomicU64,
}

impl TraceRing {
    /// Creates a recording ring with the default geometry
    /// ([`TRACE_RINGS`] × [`TRACE_CAPACITY`]).
    pub fn new() -> Self {
        Self::with_geometry(TRACE_RINGS, TRACE_CAPACITY)
    }

    /// Creates a recording ring with `rings` rings of `capacity` slots each
    /// (both clamped to at least 1).
    pub fn with_geometry(rings: usize, capacity: usize) -> Self {
        let rings = rings.max(1);
        let capacity = capacity.max(1);
        TraceRing {
            rings: (0..rings)
                .map(|_| CachePadded::new(Ring::new(capacity)))
                .collect(),
            capacity,
            enabled: AtomicBool::new(true),
            epoch: AtomicU64::new(0),
        }
    }

    /// Opens a new recording epoch and starts accepting events.  Returns
    /// the epoch number (monotonic across the ring's lifetime).
    pub fn start(&self) -> u64 {
        let e = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.enabled.store(true, Ordering::Release);
        e
    }

    /// Stops accepting events.  Recorded slots stay readable until the
    /// next [`TraceRing::start`] overwrites them.
    pub fn stop(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether the ring is currently recording.
    pub fn is_recording(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The current epoch number (0 until the first [`TraceRing::start`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Events whose slot was overwritten because a ring wrapped (a lower
    /// bound: computed from head counters, exact at quiescence).
    pub fn dropped(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| {
                r.head
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.capacity as u64)
            })
            .sum()
    }

    /// Whether no event was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.rings
            .iter()
            .all(|r| r.head.load(Ordering::Relaxed) == 0)
    }

    /// Decodes every ring, oldest slot first within each ring.  Exact at
    /// quiescence; best-effort while writers are running.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for (ri, ring) in self.rings.iter().enumerate() {
            let head = ring.head.load(Ordering::Relaxed) as usize;
            for k in 0..self.capacity {
                let slot = &ring.slots[(head + k) % self.capacity];
                let word = slot.word.load(Ordering::Acquire);
                if word == 0 {
                    continue;
                }
                let kind = match OpKind::from_index(((word >> 56) as u8).wrapping_sub(1)) {
                    Some(k) => k,
                    None => continue,
                };
                let node = match (word >> 49) & 0x3F {
                    0 => None,
                    v => Some((v - 1) as usize),
                };
                out.push(TraceEvent {
                    ring: ri,
                    kind,
                    outcome: if (word >> 55) & 1 == 0 {
                        OpOutcome::Ok
                    } else {
                        OpOutcome::Failed
                    },
                    start_cycles: slot.start.load(Ordering::Relaxed),
                    duration_cycles: word & DUR_MAX,
                    class: ((word >> 41) & 0xFF) as u8,
                    node,
                    epoch: ((word >> 33) & 0xFF) as u8,
                });
            }
        }
        out
    }

    /// Renders the recorded events as a chrome://tracing JSON document
    /// (the "JSON object format": `traceEvents` plus metadata), loadable in
    /// Perfetto or `chrome://tracing` as-is.
    ///
    /// Rings map to thread lanes, operation kinds to event names, and the
    /// TSC timeline is rebased to the earliest event and converted to
    /// microseconds with the calibrated [`tsc_hz`].
    pub fn to_chrome_json(&self, label: &str) -> String {
        use std::fmt::Write as _;
        let mut events = self.events();
        events.sort_by_key(|e| e.start_cycles);
        let base = events.first().map_or(0, |e| e.start_cycles);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"label\":\"{}\",\
             \"tsc_hz\":{},\"events\":{},\"dropped\":{}}},\"traceEvents\":[",
            json::esc(label),
            json::num(tsc_hz()),
            events.len(),
            self.dropped()
        );
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json::esc(label)
        );
        for ev in &events {
            let ts_us = cycles_to_ns(ev.start_cycles.wrapping_sub(base)) / 1e3;
            let dur_us = cycles_to_ns(ev.duration_cycles) / 1e3;
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"nbbs\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"class\":{},\
                 \"epoch\":{},\"ok\":{}{}}}}}",
                json::esc(ev.kind.name()),
                ev.ring,
                json::num(ts_us),
                json::num(dur_us),
                ev.class,
                ev.epoch,
                ev.outcome == OpOutcome::Ok,
                match ev.node {
                    Some(n) => format!(",\"node\":{n}"),
                    None => String::new(),
                }
            );
        }
        out.push_str("]}");
        out
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRing {
    /// Appends one completed operation to the calling thread's ring: its
    /// kind, the TSC value at which it started, its duration in cycles, the
    /// `detail` payload (size-class log2, refill count, tree level…;
    /// saturated to 255) and outcome.  One relaxed load when stopped.
    #[inline]
    pub fn push(
        &self,
        kind: OpKind,
        start_cycles: u64,
        duration_cycles: u64,
        detail: u64,
        outcome: OpOutcome,
    ) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let node = thread_node().map_or(0, |n| (n + 1) as u8);
        let epoch = (self.epoch.load(Ordering::Relaxed) & 0xFF) as u8;
        let ring = &self.rings[thread_ordinal() % self.rings.len()];
        let i = ring.head.fetch_add(1, Ordering::Relaxed) as usize % self.capacity;
        let slot = &ring.slots[i];
        slot.start.store(start_cycles, Ordering::Relaxed);
        slot.word.store(
            encode(
                kind,
                outcome,
                node,
                detail.min(255) as u8,
                epoch,
                duration_cycles,
            ),
            Ordering::Release,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsoncheck;

    #[test]
    fn stopped_ring_records_nothing() {
        let ring = TraceRing::new();
        assert!(ring.is_recording() && ring.is_empty(), "created recording");
        ring.push(OpKind::Alloc, 10, 5, 7, OpOutcome::Ok);
        ring.stop();
        ring.push(OpKind::Free, 20, 5, 7, OpOutcome::Ok);
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, OpKind::Alloc);
        assert_eq!(events[0].epoch, 0, "before the first start()");
        assert!(!ring.is_empty());
    }

    #[test]
    fn events_round_trip_exactly_at_quiescence() {
        let ring = TraceRing::with_geometry(1, 64);
        ring.start();
        for i in 0..40u64 {
            ring.push(
                OpKind::ALL[i as usize % OpKind::COUNT],
                1_000 + i,
                i * 3,
                i,
                OpOutcome::from_ok(!i.is_multiple_of(5)),
            );
        }
        ring.stop();
        let events = ring.events();
        assert_eq!(events.len(), 40, "nothing lost below capacity");
        assert_eq!(ring.dropped(), 0);
        for (i, ev) in events.iter().enumerate() {
            let i = i as u64;
            assert_eq!(ev.kind, OpKind::ALL[i as usize % OpKind::COUNT]);
            assert_eq!(ev.start_cycles, 1_000 + i);
            assert_eq!(ev.duration_cycles, i * 3);
            assert_eq!(ev.class, i.min(255) as u8);
            assert_eq!(ev.epoch, 1);
            assert_eq!(ev.outcome, OpOutcome::from_ok(!i.is_multiple_of(5)));
        }
    }

    #[test]
    fn wrapping_keeps_the_newest_and_counts_drops() {
        let ring = TraceRing::with_geometry(1, 16);
        ring.start();
        for i in 0..20u64 {
            ring.push(OpKind::Alloc, i, 1, 0, OpOutcome::Ok);
        }
        let events = ring.events();
        assert_eq!(events.len(), 16);
        assert_eq!(events[0].start_cycles, 4, "oldest surviving");
        assert_eq!(events[15].start_cycles, 19);
        assert_eq!(ring.dropped(), 4);
    }

    #[test]
    fn epochs_are_monotonic_across_restarts() {
        let ring = TraceRing::with_geometry(1, 64);
        assert_eq!(ring.epoch(), 0);
        assert_eq!(ring.start(), 1);
        ring.push(OpKind::Alloc, 5, 1, 0, OpOutcome::Ok);
        ring.stop();
        assert_eq!(ring.start(), 2);
        ring.push(OpKind::Free, 9, 1, 0, OpOutcome::Ok);
        ring.stop();
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].epoch < events[1].epoch);
    }

    #[test]
    fn node_hint_and_saturation_reach_the_slot() {
        let ring = TraceRing::with_geometry(1, 8);
        ring.start();
        nbbs_sync::set_thread_node(2);
        ring.push(OpKind::Alloc, 1, u64::MAX, 999, OpOutcome::Ok);
        let ev = ring.events()[0];
        assert_eq!(ev.node, Some(2));
        assert_eq!(ev.class, 255, "detail saturates");
        assert_eq!(ev.duration_cycles, DUR_MAX, "duration saturates");
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_slice_per_event() {
        let ring = TraceRing::with_geometry(2, 32);
        ring.start();
        for i in 0..10u64 {
            ring.push(OpKind::Alloc, 1_000_000 + i * 100, 50, 7, OpOutcome::Ok);
        }
        ring.stop();
        let doc = ring.to_chrome_json("unit \"stack\"\n");
        let n = jsoncheck::validate_chrome_trace(&doc).expect("valid chrome trace");
        assert_eq!(n, 10);
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("unit \\\"stack\\\"\\n"), "label escaped");
    }
}
