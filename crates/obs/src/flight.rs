//! The crash dump: a run-length text view of each ring's tail, for `atexit`
//! hooks, panic paths and failing soak assertions — the trailing op history
//! of the threads involved, which a seeded `REPRO:` line alone cannot
//! replay.  Consecutive operations a line cannot tell apart compress to
//! `×N`, so a steady-state ring reads as a few lines.

use std::fmt::Write as _;

use crate::hist::{bucket_high, bucket_index, bucket_low};
use crate::recorder::{OpKind, OpOutcome};
use crate::ring::{TraceEvent, TraceRing};

/// Events of each ring a dump shows.
pub const FLIGHT_TAIL: usize = 256;

/// What a dump line shows of an event; equal keys run-length compress.
fn line_key(ev: &TraceEvent) -> (OpKind, OpOutcome, u8, usize) {
    (
        ev.kind,
        ev.outcome,
        ev.class,
        bucket_index(ev.duration_cycles),
    )
}

impl TraceRing {
    /// Renders a human-readable dump of every ring's tail — the crash-time
    /// artifact format used by the `atexit` stats dump, panic hooks and the
    /// soak examples' `REPRO:` paths.
    pub fn flight_dump(&self) -> String {
        let events = self.events();
        if events.is_empty() {
            return "[flight] no recorded operations\n".to_string();
        }
        let mut out = String::new();
        for ring in events.chunk_by(|a, b| a.ring == b.ring) {
            let tail = &ring[ring.len().saturating_sub(FLIGHT_TAIL)..];
            let _ = writeln!(
                out,
                "[flight] ring {}: last {} ops",
                tail[0].ring,
                tail.len()
            );
            for run in tail.chunk_by(|a, b| line_key(a) == line_key(b)) {
                let (kind, outcome, class, bucket) = line_key(&run[0]);
                let _ = writeln!(
                    out,
                    "[flight]   {:<12} {:<6} detail={class:<4} {}..{} cyc{}",
                    kind.name(),
                    if outcome == OpOutcome::Ok {
                        "ok"
                    } else {
                        "FAILED"
                    },
                    bucket_low(bucket),
                    bucket_high(bucket),
                    if run.len() > 1 {
                        format!("  \u{d7}{}", run.len())
                    } else {
                        String::new()
                    }
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_packed_word() {
        let ring = TraceRing::with_geometry(1, 4);
        ring.push(OpKind::CacheMiss, 0xAB_CDEF, 77, 9, OpOutcome::Failed);
        let ev = ring.events()[0];
        assert_eq!(
            (ev.kind, ev.outcome, ev.start_cycles, ev.duration_cycles),
            (OpKind::CacheMiss, OpOutcome::Failed, 0xAB_CDEF, 77)
        );
        assert_eq!(ev.class, 9);
        assert_eq!(
            TraceRing::with_geometry(1, 4).events(),
            vec![],
            "zero word is the empty slot"
        );
    }

    #[test]
    fn rings_keep_the_most_recent_events() {
        let ring = TraceRing::new();
        // Ten past the dump's tail, on this thread's ring alone.
        for i in 0..(FLIGHT_TAIL + 10) {
            ring.push(OpKind::Alloc, i as u64, 5, (i % 200) as u64, OpOutcome::Ok);
        }
        assert_eq!(ring.events().len(), FLIGHT_TAIL + 10);
        let dump = ring.flight_dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert!(
            lines[0].ends_with(&format!(": last {FLIGHT_TAIL} ops")),
            "{dump}"
        );
        assert_eq!(lines.len(), 1 + FLIGHT_TAIL, "distinct details: no runs");
        assert!(lines[1].contains("detail=10 "), "oldest shown op: {dump}");
        assert!(lines[FLIGHT_TAIL].contains("detail=65 "), "newest op");
    }

    #[test]
    fn render_compresses_runs_and_names_kinds() {
        let ring = TraceRing::new();
        for i in 0..50 {
            // Distinct starts, same bucket: a run all the same.
            ring.push(OpKind::Free, 1_000 + i, 9, 7, OpOutcome::Ok);
        }
        ring.push(OpKind::Alloc, 2_000, 600, 4, OpOutcome::Failed);
        let dump = ring.flight_dump();
        assert!(dump.contains("free"), "{dump}");
        assert!(dump.contains("\u{d7}50"), "{dump}");
        assert!(dump.contains("FAILED"), "{dump}");
        let empty = TraceRing::new().flight_dump();
        assert!(empty.contains("no recorded operations"));
    }

    #[test]
    fn latency_bounds_follow_the_bucket() {
        let ring = TraceRing::with_geometry(1, 4);
        ring.push(OpKind::Alloc, 0, 9, 0, OpOutcome::Ok);
        assert!(ring.flight_dump().contains(" 8..11 cyc"), "bucket 6");
    }
}
