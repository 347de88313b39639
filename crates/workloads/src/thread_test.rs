//! The *Thread Test* benchmark (from the Hoard paper) — Figure 9.
//!
//! Each thread repeatedly allocates a batch of objects of a fixed size and
//! then frees the whole batch, for a fixed number of rounds.  The paper uses
//! `10 000 / num_threads` objects per batch and at least 200 rounds.  Unlike
//! Linux Scalability, the allocator here oscillates between an empty and a
//! populated state, exercising the split/merge (fragment/coalesce) paths in
//! bulk — the regime where the paper observed the 4-level optimization to pay
//! off most.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use nbbs_sync::{CachePadded, CycleTimer};

use crate::factory::SharedBackend;
use crate::measure::WorkloadResult;

/// Parameters of the Thread Test benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ThreadTestParams {
    /// Number of worker threads.
    pub threads: usize,
    /// Fixed request size in bytes (the paper uses 8, 128 and 1024).
    pub size: usize,
    /// Objects allocated per batch across all threads
    /// (the paper uses 10 000, i.e. `10 000 / threads` per thread).
    pub total_objects: usize,
    /// Number of allocate-all / free-all rounds (the paper uses 200).
    pub rounds: usize,
}

impl ThreadTestParams {
    /// The paper's configuration for a given thread count and size.
    pub fn paper(threads: usize, size: usize) -> Self {
        ThreadTestParams {
            threads,
            size,
            total_objects: 10_000,
            rounds: 200,
        }
    }

    /// Scales the number of rounds by `scale` (minimum 1 round).
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        self.rounds = ((self.rounds as f64 * scale).round() as usize).max(1);
        self
    }
}

/// Runs the benchmark against `alloc` and returns the measured result.
pub fn run(alloc: &SharedBackend, params: ThreadTestParams) -> WorkloadResult {
    assert!(params.threads > 0, "need at least one thread");
    let objects_per_thread = (params.total_objects / params.threads).max(1);
    let barrier = Arc::new(Barrier::new(params.threads + 1));
    let failed: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
        (0..params.threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
    );

    let mut handles = Vec::with_capacity(params.threads);
    for t in 0..params.threads {
        let alloc = Arc::clone(alloc);
        let barrier = Arc::clone(&barrier);
        let failed = Arc::clone(&failed);
        handles.push(std::thread::spawn(move || {
            let mut batch = Vec::with_capacity(objects_per_thread);
            let mut local_failed = 0u64;
            barrier.wait();
            for _ in 0..params.rounds {
                for _ in 0..objects_per_thread {
                    loop {
                        match alloc.alloc(params.size) {
                            Some(offset) => {
                                batch.push(offset);
                                break;
                            }
                            None => {
                                local_failed += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                for offset in batch.drain(..) {
                    alloc.dealloc(offset);
                }
            }
            failed[t].store(local_failed, Ordering::Relaxed);
        }));
    }

    // Started before the barrier so the window always covers the workers'
    // parallel section (see linux_scalability.rs for the rationale).
    let timer = CycleTimer::start();
    barrier.wait();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let (seconds, cycles) = timer.stop();

    let allocs = (objects_per_thread * params.rounds * params.threads) as u64;
    WorkloadResult {
        threads: params.threads,
        operations: allocs * 2,
        seconds,
        cycles,
        failed_allocs: failed.iter().map(|f| f.load(Ordering::Relaxed)).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build, AllocatorKind};
    use nbbs::BuddyConfig;

    fn cfg() -> BuddyConfig {
        // Must hold a full batch of 1 KiB objects comfortably.
        BuddyConfig::new(64 << 20, 8, 16 << 10).unwrap()
    }

    #[test]
    fn runs_on_every_user_space_allocator() {
        for &kind in AllocatorKind::user_space() {
            let alloc = build(kind, cfg());
            let params = ThreadTestParams {
                threads: 2,
                size: 128,
                total_objects: 200,
                rounds: 3,
            };
            let result = run(&alloc, params);
            assert_eq!(result.operations, 100 * 3 * 2 * 2, "allocator {kind}");
            assert_eq!(result.failed_allocs, 0, "allocator {kind}");
            assert_eq!(alloc.allocated_bytes(), 0, "allocator {kind} leaked");
        }
    }

    #[test]
    fn paper_params_and_scaling() {
        let p = ThreadTestParams::paper(4, 8);
        assert_eq!(p.total_objects, 10_000);
        assert_eq!(p.rounds, 200);
        let scaled = p.scaled(0.05);
        assert_eq!(scaled.rounds, 10);
    }

    #[test]
    fn batch_allocation_peaks_then_returns_to_zero() {
        let alloc = build(AllocatorKind::FourLevelNb, cfg());
        let result = run(
            &alloc,
            ThreadTestParams {
                threads: 1,
                size: 1024,
                total_objects: 512,
                rounds: 2,
            },
        );
        assert_eq!(result.failed_allocs, 0);
        assert_eq!(alloc.allocated_bytes(), 0);
    }
}
