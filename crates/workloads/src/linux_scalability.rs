//! The *Linux Scalability* benchmark (Lever & Boreham, 2000) — Figure 8.
//!
//! Every thread sits in a tight loop of `malloc(size); free(p)` pairs, with
//! the total number of iterations fixed (the paper uses
//! `20 000 000 / num_threads` per thread) so that the aggregate amount of
//! work is constant across thread counts: perfect scalability shows as a flat
//! execution-time curve, and any growth is pure coordination overhead on the
//! shared allocator metadata — precisely the effect the non-blocking design
//! targets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use nbbs_sync::{CachePadded, CycleTimer};

use crate::factory::SharedBackend;
use crate::measure::WorkloadResult;

/// Parameters of the Linux Scalability benchmark.
#[derive(Debug, Clone, Copy)]
pub struct LinuxScalabilityParams {
    /// Number of worker threads.
    pub threads: usize,
    /// Fixed request size in bytes (the paper uses 8, 128 and 1024).
    pub size: usize,
    /// Total number of alloc/free *pairs* across all threads
    /// (the paper uses 20 000 000).
    pub total_pairs: u64,
}

impl LinuxScalabilityParams {
    /// The paper's configuration for a given thread count and size.
    pub fn paper(threads: usize, size: usize) -> Self {
        LinuxScalabilityParams {
            threads,
            size,
            total_pairs: 20_000_000,
        }
    }

    /// A scaled-down configuration: `scale` multiplies the total pair count
    /// (e.g. `0.01` runs 200 000 pairs).
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        self.total_pairs =
            ((self.total_pairs as f64 * scale).round() as u64).max(self.threads as u64);
        self
    }
}

/// Runs the benchmark against `alloc` and returns the measured result.
///
/// Allocation failures (which the paper's sizing avoids entirely) are counted
/// and the iteration retried after a yield, so the reported operation count
/// always reflects completed pairs.
pub fn run(alloc: &SharedBackend, params: LinuxScalabilityParams) -> WorkloadResult {
    assert!(params.threads > 0, "need at least one thread");
    let pairs_per_thread = (params.total_pairs / params.threads as u64).max(1);
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
            barrier.wait();
            let mut local_failed = 0u64;
            for _ in 0..pairs_per_thread {
                loop {
                    match alloc.alloc(params.size) {
                        Some(offset) => {
                            alloc.dealloc(offset);
                            break;
                        }
                        None => {
                            local_failed += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            failed[t].store(local_failed, Ordering::Relaxed);
        }));
    }

    // Start the clock *before* releasing the barrier: on over-subscribed
    // hosts the coordinator may be descheduled inside `wait()` while the
    // workers run to completion, and a timer started afterwards would miss
    // the whole parallel section.
    let timer = CycleTimer::start();
    barrier.wait();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let (seconds, cycles) = timer.stop();
    WorkloadResult {
        threads: params.threads,
        operations: pairs_per_thread * params.threads as u64 * 2,
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
        BuddyConfig::new(1 << 20, 8, 16 << 10).unwrap()
    }

    #[test]
    fn runs_on_every_user_space_allocator() {
        for &kind in AllocatorKind::user_space() {
            let alloc = build(kind, cfg());
            let params = LinuxScalabilityParams {
                threads: 2,
                size: 128,
                total_pairs: 2_000,
            };
            let result = run(&alloc, params);
            assert_eq!(result.threads, 2);
            assert_eq!(result.operations, 4_000, "allocator {kind}");
            assert_eq!(result.failed_allocs, 0, "allocator {kind}");
            assert!(result.seconds > 0.0);
            assert_eq!(alloc.allocated_bytes(), 0, "allocator {kind} leaked");
        }
    }

    #[test]
    fn paper_params_scale_down() {
        let p = LinuxScalabilityParams::paper(8, 1024).scaled(0.001);
        assert_eq!(p.total_pairs, 20_000);
        assert_eq!(p.threads, 8);
        assert_eq!(p.size, 1024);
    }

    #[test]
    fn work_is_split_across_threads() {
        let alloc = build(AllocatorKind::OneLevelNb, cfg());
        let r1 = run(
            &alloc,
            LinuxScalabilityParams {
                threads: 1,
                size: 8,
                total_pairs: 4_000,
            },
        );
        let r4 = run(
            &alloc,
            LinuxScalabilityParams {
                threads: 4,
                size: 8,
                total_pairs: 4_000,
            },
        );
        // Same aggregate work regardless of the thread count.
        assert_eq!(r1.operations, r4.operations);
    }
}
