//! A [`BuddyBackend`] wrapper that times every operation.
//!
//! All workload drivers in `nbbs-workloads` speak `Arc<dyn BuddyBackend>`,
//! so wrapping the allocator in [`Recorded`] instruments *every* workload
//! and allocator kind without touching a single driver loop — and leaving
//! the wrapper out reverts to the exact pre-observability hot path, which
//! is what makes the recording-overhead A/B measurement clean.

use std::cell::Cell;
use std::sync::Arc;

use nbbs::error::{AllocError, FreeError};
use nbbs::{BuddyBackend, Geometry};
use nbbs_sync::cycles_now;

use crate::recorder::{size_detail, OpKind, OpOutcome, Recorder};

/// Default sampling stride of [`Recorded::sampled`]: record one in every
/// 64 operations per thread.  A raw tree operation is ~60 ns; recording it
/// costs two TSC reads plus a few relaxed stores, which measured at ~50%
/// throughput overhead when every operation was timed.  Sampling pushes
/// that under the 5% budget while still collecting thousands of samples
/// per second on any contended run.
pub const DEFAULT_SAMPLE_STRIDE: u32 = 64;

thread_local! {
    static SAMPLE_TICK: Cell<u32> = const { Cell::new(0) };
}

/// Advances the calling thread's sample tick; `true` on every `stride`-th
/// call (including the very first, so short runs still record something).
#[inline]
fn tick(stride: u32) -> bool {
    SAMPLE_TICK.with(|t| {
        let v = t.get();
        t.set(v.wrapping_add(1));
        v % stride == 0
    })
}

/// Wraps a backend and records alloc/free latency into a [`Recorder`].
///
/// ```
/// use std::sync::Arc;
/// use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
/// use nbbs_obs::{OpKind, Recorded, Recorder};
///
/// let rec = Arc::new(Recorder::new());
/// let tree = NbbsFourLevel::new(BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap());
/// let timed = Recorded::new(tree, Arc::clone(&rec));
/// let a = timed.alloc(100).unwrap();
/// timed.dealloc(a);
/// assert_eq!(rec.snapshot(OpKind::Alloc).total(), 1);
/// assert_eq!(rec.snapshot(OpKind::Free).total(), 1);
/// ```
pub struct Recorded<A> {
    inner: A,
    recorder: Arc<Recorder>,
    stride: u32,
}

impl<A> Recorded<A> {
    /// Wraps `inner`, recording every operation into `recorder`.
    pub fn new(inner: A, recorder: Arc<Recorder>) -> Self {
        Recorded {
            inner,
            recorder,
            stride: 1,
        }
    }

    /// Wraps `inner`, recording one in every `stride` operations per
    /// thread (0 is treated as 1).  The benchmark harness uses this with
    /// [`DEFAULT_SAMPLE_STRIDE`] so the recording overhead stays in the
    /// noise of the measured workload.
    pub fn sampled(inner: A, recorder: Arc<Recorder>, stride: u32) -> Self {
        Recorded {
            inner,
            recorder,
            stride: stride.max(1),
        }
    }

    /// The shared recorder.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwraps the backend.
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<A: BuddyBackend> BuddyBackend for Recorded<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        if !tick(self.stride) {
            return self.inner.alloc(size);
        }
        let t0 = cycles_now();
        let out = self.inner.alloc(size);
        self.recorder.record_since(
            OpKind::Alloc,
            t0,
            size_detail(size),
            OpOutcome::from_ok(out.is_some()),
        );
        out
    }

    fn dealloc(&self, offset: usize) {
        if !tick(self.stride) {
            return self.inner.dealloc(offset);
        }
        let t0 = cycles_now();
        self.inner.dealloc(offset);
        self.recorder
            .record_since(OpKind::Free, t0, 0, OpOutcome::Ok);
    }

    /// Forwarded, size attached, so a cache beneath keeps its lookup-free
    /// release; the `Free` event carries the class [`Recorded::dealloc`]
    /// cannot know.
    fn dealloc_sized(&self, offset: usize, granted: usize) {
        if !tick(self.stride) {
            return self.inner.dealloc_sized(offset, granted);
        }
        let t0 = cycles_now();
        self.inner.dealloc_sized(offset, granted);
        self.recorder
            .record_since(OpKind::Free, t0, size_detail(granted), OpOutcome::Ok);
    }

    fn try_alloc(&self, size: usize) -> Result<usize, AllocError> {
        if !tick(self.stride) {
            return self.inner.try_alloc(size);
        }
        let t0 = cycles_now();
        let out = self.inner.try_alloc(size);
        self.recorder.record_since(
            OpKind::Alloc,
            t0,
            size_detail(size),
            OpOutcome::from_ok(out.is_ok()),
        );
        out
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        if !tick(self.stride) {
            return self.inner.try_dealloc(offset);
        }
        let t0 = cycles_now();
        let out = self.inner.try_dealloc(offset);
        self.recorder
            .record_since(OpKind::Free, t0, 0, OpOutcome::from_ok(out.is_ok()));
        out
    }

    /// Read-outs and maintenance traffic (the decommit scrubber) reach the
    /// wrapped backend untimed: the latency recorders exist for the mutator
    /// paths.
    fn inner(&self) -> Option<&dyn BuddyBackend> {
        Some(&self.inner)
    }

    fn allocated_bytes(&self) -> usize {
        self.inner.allocated_bytes()
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        self.inner.granted_size_of_live(offset)
    }

    fn granted_size_for(&self, size: usize) -> Option<usize> {
        self.inner.granted_size_for(size)
    }

    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        self.inner.grant_alignment_for(size)
    }

    /// Untimed, like the scrubber's other calls through
    /// [`BuddyBackend::inner`].
    fn scrub_dealloc_run(&self, run: &[(usize, usize)]) -> Option<usize> {
        self.inner.scrub_dealloc_run(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbs::{BuddyConfig, NbbsFourLevel};

    fn tree() -> NbbsFourLevel {
        NbbsFourLevel::new(BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap())
    }

    #[test]
    fn wrapping_preserves_backend_semantics() {
        let rec = Arc::new(Recorder::new());
        let timed = Recorded::new(tree(), Arc::clone(&rec));
        assert_eq!(timed.name(), "4lvl-nb");
        let a = timed.alloc(100).unwrap();
        let b = timed.try_alloc(4096).unwrap();
        assert_ne!(a, b);
        assert_eq!(timed.allocated_bytes(), 128 + 4096);
        timed.dealloc(a);
        timed.try_dealloc(b).unwrap();
        assert_eq!(timed.allocated_bytes(), 0);
        assert_eq!(rec.snapshot(OpKind::Alloc).total(), 2);
        assert_eq!(rec.snapshot(OpKind::Free).total(), 2);

        // A `Free` event carries the class when the caller gave one.
        let last_free_class = || {
            let events = rec.ring().events();
            let free = events.iter().rev().find(|ev| ev.kind == OpKind::Free);
            free.expect("a free was recorded").class
        };
        let a = timed.alloc(100).unwrap();
        timed.dealloc_sized(a, 128);
        assert_eq!(last_free_class(), 7, "log2 of the 128 bytes named");
        assert_eq!(timed.allocated_bytes(), 0, "the sized free released");
        let a = timed.alloc(100).unwrap();
        timed.dealloc(a);
        assert_eq!(last_free_class(), 0, "an unsized free has no class to give");
        assert_eq!(timed.allocated_bytes(), 0);
        assert_eq!(rec.snapshot(OpKind::Free).total(), 4);
    }

    #[test]
    fn failures_record_with_failed_outcome() {
        let rec = Arc::new(Recorder::new());
        let timed = Recorded::new(tree(), Arc::clone(&rec));
        assert!(timed.alloc(1 << 30).is_none(), "over max_size");
        let snap = rec.snapshot(OpKind::Alloc);
        assert_eq!(snap.total(), 1);
        let ev = rec.ring().events().pop().unwrap();
        assert_eq!(ev.outcome, OpOutcome::Failed);
    }

    #[test]
    fn sampling_records_a_stride_subset_including_the_first_op() {
        let rec = Arc::new(Recorder::new());
        let timed = Recorded::sampled(tree(), Arc::clone(&rec), 8);
        let mut live = Vec::new();
        for _ in 0..64 {
            live.push(timed.alloc(64).unwrap());
        }
        for a in live.drain(..) {
            timed.dealloc(a);
        }
        let total = rec.merged_snapshot(&[OpKind::Alloc, OpKind::Free]).total();
        // 128 ops on one thread at stride 8: exactly 16 samples, modulo the
        // unknown phase of the thread-local tick other tests advanced.
        assert!((15..=17).contains(&total), "sampled {total} of 128 ops");

        let rec2 = Arc::new(Recorder::new());
        let full = Recorded::sampled(tree(), Arc::clone(&rec2), 0);
        let a = full.alloc(64).unwrap();
        full.dealloc(a);
        assert_eq!(
            rec2.merged_snapshot(&[OpKind::Alloc, OpKind::Free]).total(),
            2,
            "stride 0 clamps to record-everything"
        );
    }

    #[test]
    fn works_through_arc_dyn_like_the_harness() {
        let rec = Arc::new(Recorder::new());
        let shared: Arc<dyn BuddyBackend> = Arc::new(tree());
        let timed: Arc<dyn BuddyBackend> = Arc::new(Recorded::new(shared, Arc::clone(&rec)));
        let a = timed.alloc(64).unwrap();
        timed.dealloc(a);
        assert_eq!(
            rec.merged_snapshot(&[OpKind::Alloc, OpKind::Free]).total(),
            2
        );
    }
}
