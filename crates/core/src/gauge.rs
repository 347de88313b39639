//! The trees' allocated-bytes gauge, one padded word per thread stripe.
//!
//! Both non-blocking trees end every `alloc`/`dealloc` by adjusting a byte
//! count.  Kept in one word, that count is a global toll: two threads that
//! conflict on no tree node still take turns owning its cache line, and the
//! line it shares with the tree's read-mostly fields goes with it.
//! [`ByteGauge`] spreads the count over [`STRIPES`] cache-padded words
//! indexed by [`nbbs_sync::thread_stripe`] — the rule the cache's slots
//! follow — so a thread adds and subtracts on a line of its own.
//!
//! The stripes hold two's-complement partial sums: a block allocated on one
//! thread and freed on another leaves `+n` on the first stripe and `-n` on
//! the second.  [`ByteGauge::read`] adds them wrapping and is exact at
//! quiescence.  Mid-flight a reader can meet the free before the
//! allocation (a single word never showed that), so the sum is taken as
//! signed and clamped at 0: no caller receives a value near `usize::MAX`.
//!
//! The table is an inline array, not a boxed slice sized by
//! [`nbbs_sync::default_stripes`]: building a tree must not pay for a CPU
//! count, and 2 KiB per tree is the whole cost.  The lock-based baselines
//! (`LockedBuddy`, `linux_buddy`, `cloudwu`) keep a single word: they hold
//! a lock around it.

#[cfg(nbbs_model)]
use nbbs_sync::shadow::AtomicUsize;
#[cfg(not(nbbs_model))]
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering;

use nbbs_sync::{thread_stripe, CachePadded};

/// Stripes per gauge (a power of two, as [`thread_stripe`] asks).
const STRIPES: usize = 16;

/// Bytes currently handed out by one tree, counted per thread stripe.
pub(crate) struct ByteGauge {
    stripes: [CachePadded<AtomicUsize>; STRIPES],
}

impl ByteGauge {
    pub(crate) fn new() -> Self {
        ByteGauge {
            stripes: std::array::from_fn(|_| CachePadded::new(AtomicUsize::new(0))),
        }
    }

    /// Counts `bytes` granted by the calling thread.  `Relaxed`, like
    /// [`ByteGauge::sub`]: the gauge orders nothing and nothing orders it.
    #[inline]
    pub(crate) fn add(&self, bytes: usize) {
        self.stripes[thread_stripe(STRIPES)].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counts `bytes` released by the calling thread.
    #[inline]
    pub(crate) fn sub(&self, bytes: usize) {
        self.stripes[thread_stripe(STRIPES)].fetch_sub(bytes, Ordering::Relaxed);
    }

    /// The sum over the stripes: exact at quiescence, never negative.
    pub(crate) fn read(&self) -> usize {
        let sum = self.stripes.iter().fold(0usize, |sum, stripe| {
            sum.wrapping_add(stripe.load(Ordering::Relaxed))
        });
        (sum as isize).max(0) as usize
    }

    /// `(address, label)` of every stripe, for `nbbs-model`'s witnesses.
    #[cfg(nbbs_model)]
    pub(crate) fn model_addr_labels(&self) -> impl Iterator<Item = (usize, String)> + '_ {
        self.stripes
            .iter()
            .enumerate()
            .map(|(i, stripe)| (stripe.model_addr(), format!("allocated[{i}]")))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::traits::BuddyBackend;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    /// The gauge as both trees' tests see it: 4 096 unit blocks allocated
    /// on one thread and freed on two others sum to 0, and a fourth thread
    /// polling all the while never reads more than the span (every partial
    /// sum it can meet lies between "all frees, no allocation", clamped to
    /// 0, and "all allocations, no free", which fits the span).
    pub(crate) fn remote_frees_sum_to_zero<A: BuddyBackend + Sync>(tree: &A) {
        let blocks = 4096.min(tree.total_memory() / tree.min_size());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (to_b, from_a_b) = mpsc::channel::<usize>();
            let (to_c, from_a_c) = mpsc::channel::<usize>();
            s.spawn(move || {
                for i in 0..blocks {
                    let off = tree
                        .alloc(tree.min_size())
                        .expect("the span holds them all");
                    let to = if i % 2 == 0 { &to_b } else { &to_c };
                    to.send(off).unwrap();
                }
            });
            let freers = [from_a_b, from_a_c].map(|from_a| {
                s.spawn(move || {
                    for off in from_a {
                        tree.dealloc(off);
                    }
                })
            });
            let poller = s.spawn(|| loop {
                let seen = tree.allocated_bytes();
                assert!(seen <= tree.total_memory(), "gauge read {seen}");
                if done.load(Ordering::Acquire) {
                    break;
                }
            });
            for f in freers {
                f.join().unwrap();
            }
            done.store(true, Ordering::Release);
            poller.join().unwrap();
        });
        assert_eq!(tree.allocated_bytes(), 0, "+n on one stripe, -n on two");
    }

    #[test]
    fn remote_frees_cancel_and_a_negative_sum_reads_zero() {
        let g = ByteGauge::new();
        g.add(4096);
        assert_eq!(g.read(), 4096);
        std::thread::scope(|s| {
            s.spawn(|| g.sub(4096));
        });
        assert_eq!(g.read(), 0, "+n here and -n there cancel");

        // What a reader sees when it meets a free before its allocation.
        std::thread::scope(|s| {
            s.spawn(|| g.sub(64));
        });
        assert_eq!(g.read(), 0, "clamped, not usize::MAX - 63");
        g.add(64);
        assert_eq!(g.read(), 0);
    }

    #[test]
    fn the_table_is_inline_and_padded() {
        assert_eq!(std::mem::size_of::<ByteGauge>(), STRIPES * 128);
        assert!(STRIPES.is_power_of_two());
    }
}
