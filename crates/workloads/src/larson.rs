//! The *Larson* server benchmark (Larson & Krishnan, ISMM '98) — Figure 10.
//!
//! The benchmark emulates a long-running server: a large population of
//! in-flight objects with random lifetimes, where the thread that frees a
//! block is frequently *not* the thread that allocated it (requests are
//! handed over between worker threads).  Each worker owns a window of slots;
//! on every step it picks a random slot, releases whatever lives there and
//! installs a fresh allocation of a random size in `[min_block, max_block]`.
//! A configurable fraction of releases is routed through a shared exchange
//! queue so that blocks migrate across threads, reproducing the
//! producer/consumer ownership hand-off of the original benchmark.  The
//! metric is throughput (operations per second) over a fixed time window —
//! the paper uses 10 seconds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use crossbeam::queue::SegQueue;
use nbbs_sync::{CachePadded, CycleTimer};

use crate::factory::SharedBackend;
use crate::measure::WorkloadResult;
use crate::rng::SplitMix64;

/// Parameters of the Larson benchmark.
#[derive(Debug, Clone, Copy)]
pub struct LarsonParams {
    /// Number of worker threads.
    pub threads: usize,
    /// Smallest request size in bytes (the figure's `Bytes=` label).
    pub min_block: usize,
    /// Largest request size in bytes.
    pub max_block: usize,
    /// Slots (in-flight objects) per thread.
    pub slots_per_thread: usize,
    /// Fraction (0–100) of releases handed to another thread through the
    /// exchange queue instead of being freed locally.
    pub remote_free_percent: u32,
    /// Length of the measured window in seconds (the paper uses 10 s).
    pub window_secs: f64,
}

impl LarsonParams {
    /// The paper's configuration for a given thread count and block size
    /// (block sizes span `size ..= 2 * size` to keep a size mix while
    /// matching the figure's label).
    pub fn paper(threads: usize, size: usize) -> Self {
        LarsonParams {
            threads,
            min_block: size,
            max_block: size * 2,
            slots_per_thread: 512,
            remote_free_percent: 30,
            window_secs: 10.0,
        }
    }

    /// Scales the measurement window by `scale` (minimum 50 ms).
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        self.window_secs = (self.window_secs * scale).max(0.05);
        self
    }
}

/// Runs the benchmark against `alloc` and returns the measured result.
pub fn run(alloc: &SharedBackend, params: LarsonParams) -> WorkloadResult {
    assert!(params.threads > 0, "need at least one thread");
    assert!(params.min_block <= params.max_block);
    let barrier = Arc::new(Barrier::new(params.threads + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let exchange: Arc<SegQueue<usize>> = Arc::new(SegQueue::new());
    let ops: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
        (0..params.threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
    );
    let failed: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
        (0..params.threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
    );

    let mut handles = Vec::with_capacity(params.threads);
    for t in 0..params.threads {
        let alloc = Arc::clone(alloc);
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        let exchange = Arc::clone(&exchange);
        let ops = Arc::clone(&ops);
        let failed = Arc::clone(&failed);
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(0xC0FFEE ^ (t as u64) << 17);
            let size_span = params.max_block - params.min_block + 1;
            let mut slots: Vec<Option<usize>> = vec![None; params.slots_per_thread];
            let mut local_ops = 0u64;
            let mut local_failed = 0u64;
            barrier.wait();

            while !stop.load(Ordering::Relaxed) {
                let slot = rng.next_below(slots.len());
                // Release the previous occupant of the slot (locally or by
                // handing it to the exchange queue for another thread).
                if let Some(offset) = slots[slot].take() {
                    if (rng.next_u64() % 100) < params.remote_free_percent as u64 {
                        exchange.push(offset);
                    } else {
                        alloc.dealloc(offset);
                        local_ops += 1;
                    }
                }
                // Drain one remotely-released block, if any: the free is
                // executed by this thread although another one allocated it.
                if let Some(remote) = exchange.pop() {
                    alloc.dealloc(remote);
                    local_ops += 1;
                }
                // Install a fresh block of a random size.
                let size = params.min_block + rng.next_below(size_span);
                match alloc.alloc(size) {
                    Some(offset) => {
                        slots[slot] = Some(offset);
                        local_ops += 1;
                    }
                    None => {
                        local_failed += 1;
                        std::thread::yield_now();
                    }
                }
            }

            // Drain: release everything still owned by this thread.
            for offset in slots.into_iter().flatten() {
                alloc.dealloc(offset);
            }
            ops[t].store(local_ops, Ordering::Relaxed);
            failed[t].store(local_failed, Ordering::Relaxed);
        }));
    }

    barrier.wait();
    let timer = CycleTimer::start();
    std::thread::sleep(std::time::Duration::from_secs_f64(params.window_secs));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("worker panicked");
    }
    let (seconds, cycles) = timer.stop();
    // Anything left in the exchange queue belongs to nobody now; release it
    // so the allocator returns to a clean state.
    while let Some(offset) = exchange.pop() {
        alloc.dealloc(offset);
    }

    WorkloadResult {
        threads: params.threads,
        operations: ops.iter().map(|o| o.load(Ordering::Relaxed)).sum(),
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
        BuddyConfig::new(64 << 20, 8, 16 << 10).unwrap()
    }

    fn quick(threads: usize, size: usize) -> LarsonParams {
        LarsonParams {
            threads,
            min_block: size,
            max_block: size * 2,
            slots_per_thread: 64,
            remote_free_percent: 30,
            window_secs: 0.05,
        }
    }

    #[test]
    fn runs_on_every_user_space_allocator() {
        for &kind in AllocatorKind::user_space() {
            let alloc = build(kind, cfg());
            let result = run(&alloc, quick(2, 128));
            assert!(result.operations > 0, "allocator {kind} made no progress");
            assert!(result.seconds >= 0.05);
            assert_eq!(alloc.allocated_bytes(), 0, "allocator {kind} leaked");
        }
    }

    #[test]
    fn remote_frees_do_not_leak() {
        let alloc = build(AllocatorKind::OneLevelNb, cfg());
        let mut params = quick(4, 64);
        params.remote_free_percent = 100;
        let result = run(&alloc, params);
        assert!(result.operations > 0);
        assert_eq!(alloc.allocated_bytes(), 0);
    }

    #[test]
    fn paper_params_shape() {
        let p = LarsonParams::paper(32, 1024);
        assert_eq!(p.threads, 32);
        assert_eq!(p.min_block, 1024);
        assert_eq!(p.max_block, 2048);
        assert_eq!(p.window_secs, 10.0);
        assert!(p.scaled(0.01).window_secs <= 0.1 + 1e-9);
    }

    #[test]
    fn throughput_is_reported() {
        let alloc = build(AllocatorKind::FourLevelNb, cfg());
        let result = run(&alloc, quick(1, 8));
        assert!(result.kops_per_sec() > 0.0);
    }
}
