//! Property suite for the lock-free event ring.
//!
//! * quiescent exactness: any batch below capacity reads back with no
//!   torn, lost or reordered events — every field round-trips;
//! * epoch discipline: stop gates recording, restart bumps the epoch, and
//!   recorded epochs are monotonic in insertion order;
//! * concurrency: a multi-thread storm below the per-ring capacity
//!   conserves every event at quiescence.

use proptest::prelude::*;

use nbbs_obs::{OpKind, OpOutcome, TraceRing};

/// Duration saturation point of the 33-bit slot field.
const DUR_MAX: u64 = (1 << 33) - 1;

/// One raw event as the ring is handed it.
fn event_strategy() -> impl Strategy<Value = (usize, u64, u64, u64, bool)> {
    (
        0usize..OpKind::ALL.len(),
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u32..2,
    )
        .prop_map(|(kind, start, dur, detail, ok)| (kind, start, dur, detail, ok == 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quiescent_capture_is_exact(batch in collection::vec(event_strategy(), 1..256)) {
        let ring = TraceRing::with_geometry(1, 256);
        ring.start();
        for &(kind, start, dur, detail, ok) in &batch {
            ring.push(OpKind::ALL[kind], start, dur, detail, OpOutcome::from_ok(ok));
        }
        ring.stop();
        let events = ring.events();
        prop_assert_eq!(events.len(), batch.len(), "nothing lost below capacity");
        prop_assert_eq!(ring.dropped(), 0);
        for (ev, &(kind, start, dur, detail, ok)) in events.iter().zip(&batch) {
            prop_assert_eq!(ev.kind, OpKind::ALL[kind]);
            prop_assert_eq!(ev.start_cycles, start);
            prop_assert_eq!(ev.duration_cycles, dur.min(DUR_MAX), "duration saturates, never tears");
            prop_assert_eq!(ev.class, detail.min(255) as u8);
            prop_assert_eq!(ev.outcome, OpOutcome::from_ok(ok));
            prop_assert_eq!(ev.epoch, 1);
        }
    }

    #[test]
    fn epochs_gate_and_tag_monotonically(
        script in collection::vec(
            (0u32..2, 0u32..2, event_strategy())
                .prop_map(|(restart, gap, ev)| (restart == 1, gap == 1, ev)),
            1..200,
        )
    ) {
        let ring = TraceRing::with_geometry(1, 2048);
        ring.start();
        let mut epoch = 1u64;
        let mut expected = Vec::with_capacity(script.len());
        for &(restart, stopped_gap, (kind, start, dur, detail, ok)) in &script {
            if restart {
                ring.stop();
                ring.start();
                epoch += 1;
            }
            if stopped_gap {
                // An event while stopped must vanish without a trace.
                ring.stop();
                ring.push(OpKind::Alloc, 0, 0, 0, OpOutcome::Ok);
                ring.start();
                epoch += 1;
            }
            ring.push(OpKind::ALL[kind], start, dur, detail, OpOutcome::from_ok(ok));
            expected.push((epoch & 0xFF) as u8);
        }
        ring.stop();
        prop_assert_eq!(ring.epoch(), epoch);
        let events = ring.events();
        prop_assert_eq!(events.len(), expected.len(), "stopped-gap events leaked in");
        let mut last = 0u8;
        for (ev, &want) in events.iter().zip(&expected) {
            prop_assert_eq!(ev.epoch, want);
            // The script stays far below 256 epochs, so no wrap: insertion
            // order must carry non-decreasing epoch tags.
            prop_assert!(ev.epoch >= last);
            last = ev.epoch;
        }
    }
}

#[test]
fn concurrent_storm_conserves_every_event_at_quiescence() {
    use std::sync::{Arc, Barrier};

    const THREADS: usize = 4;
    const PER_THREAD: u64 = 2_000;

    // Worst case every thread ordinal collides onto one ring: size each
    // ring to hold the whole storm so quiescent exactness still applies.
    let ring = Arc::new(TraceRing::with_geometry(
        8,
        (THREADS as u64 * PER_THREAD) as usize,
    ));
    ring.start();
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let ring = Arc::clone(&ring);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    // Class identifies the thread; start is a per-thread
                    // sequence number so order within a ring is checkable.
                    ring.push(OpKind::Alloc, i, 1, t as u64, OpOutcome::Ok);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    ring.stop();
    let events = ring.events();
    assert_eq!(events.len(), THREADS * PER_THREAD as usize, "no event lost");
    assert_eq!(ring.dropped(), 0);
    for t in 0..THREADS {
        let mine: Vec<_> = events.iter().filter(|e| e.class == t as u8).collect();
        assert_eq!(mine.len(), PER_THREAD as usize);
        // Per-ring insertion order preserves each thread's sequence.
        let mut last_per_ring = std::collections::HashMap::new();
        for ev in mine {
            let last = last_per_ring.entry(ev.ring).or_insert(0u64);
            assert!(
                ev.start_cycles >= *last,
                "thread {t}'s events reordered within ring {}",
                ev.ring
            );
            *last = ev.start_cycles;
        }
    }
}
