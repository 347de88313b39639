//! Spin-locked wrappers around the non-blocking data structures
//! (`1lvl-sl` and `4lvl-sl` in the paper's evaluation).
//!
//! §IV: *“we include data related to our own data structure with the variant
//! that, rather than using RMW instructions to make it non-blocking, we
//! synchronize the accesses in a blocking manner by using a unique (global)
//! spin-lock.”*  These configurations isolate the benefit of the non-blocking
//! coordination from the benefit of the tree layout itself: the wrapped
//! allocator is byte-for-byte the same, but every operation first acquires a
//! single process-wide spin lock, so concurrent operations serialize exactly
//! like in a classic lock-protected buddy system.

use nbbs_sync::SpinLock;

use crate::error::FreeError;
use crate::geometry::Geometry;
use crate::traits::BuddyBackend;
use crate::{NbbsFourLevel, NbbsOneLevel};

/// A buddy allocator whose every operation is serialized by one global
/// spin lock.
///
/// The generic parameter is the wrapped backend; the provided aliases
/// [`LockedOneLevel`] and [`LockedFourLevel`] correspond to the paper's
/// `1lvl-sl` and `4lvl-sl` configurations.
pub struct LockedBuddy<A> {
    inner: A,
    lock: SpinLock<()>,
    name: &'static str,
}

/// `1lvl-sl`: the 1-level tree behind a global spin lock.
pub type LockedOneLevel = LockedBuddy<NbbsOneLevel>;
/// `4lvl-sl`: the 4-level bunch tree behind a global spin lock.
pub type LockedFourLevel = LockedBuddy<NbbsFourLevel>;

impl<A: BuddyBackend> LockedBuddy<A> {
    /// Wraps `inner`, serializing all of its operations behind one spin lock.
    pub fn with_name(inner: A, name: &'static str) -> Self {
        LockedBuddy {
            inner,
            lock: SpinLock::new(()),
            name,
        }
    }

    /// Read access to the wrapped allocator (does not take the lock; only
    /// safe for inspection of counters and geometry).
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Number of lock acquisitions that found the lock already held.
    pub fn contended_acquisitions(&self) -> u64 {
        self.lock.contended_acquisitions()
    }
}

impl LockedBuddy<NbbsOneLevel> {
    /// Creates a `1lvl-sl` allocator.
    pub fn new(inner: NbbsOneLevel) -> Self {
        Self::with_name(inner, "1lvl-sl")
    }
}

impl LockedBuddy<NbbsFourLevel> {
    /// Creates a `4lvl-sl` allocator.
    pub fn new(inner: NbbsFourLevel) -> Self {
        Self::with_name(inner, "4lvl-sl")
    }
}

impl<A: BuddyBackend> BuddyBackend for LockedBuddy<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        let _guard = self.lock.lock();
        self.inner.alloc(size)
    }

    fn dealloc(&self, offset: usize) {
        let _guard = self.lock.lock();
        self.inner.dealloc(offset);
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        let _guard = self.lock.lock();
        self.inner.try_dealloc(offset)
    }

    /// Read-outs reach the wrapped allocator unlocked: they are atomic
    /// metadata reads, same contract as the snapshots.
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

    // The maintenance calls mutate the tree, so they serialize like the
    // mutator paths instead of taking the unlocked default.
    fn drain_cache(&self) {
        let _guard = self.lock.lock();
        self.inner.drain_cache();
    }

    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        let _guard = self.lock.lock();
        self.inner.scrub_claim(offset, size)
    }

    fn scrub_dealloc(&self, offset: usize) {
        let _guard = self.lock.lock();
        self.inner.scrub_dealloc(offset)
    }

    fn trim_empty_pages(&self) -> usize {
        let _guard = self.lock.lock();
        self.inner.trim_empty_pages()
    }
}

impl<A: BuddyBackend + std::fmt::Debug> std::fmt::Debug for LockedBuddy<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockedBuddy")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuddyConfig;
    use std::sync::Arc;

    fn cfg(total: usize, min: usize, max: usize) -> BuddyConfig {
        BuddyConfig::new(total, min, max).unwrap()
    }

    #[test]
    fn names_match_paper_configurations() {
        let one = LockedOneLevel::new(NbbsOneLevel::new(cfg(1024, 64, 1024)));
        let four = LockedFourLevel::new(NbbsFourLevel::new(cfg(1024, 64, 1024)));
        assert_eq!(one.name(), "1lvl-sl");
        assert_eq!(four.name(), "4lvl-sl");
    }

    #[test]
    fn behaves_like_wrapped_allocator() {
        let b = LockedOneLevel::new(NbbsOneLevel::new(cfg(4096, 64, 4096)));
        let a = b.alloc(64).unwrap();
        let c = b.alloc(1000).unwrap();
        assert_eq!(b.allocated_bytes(), 64 + 1024);
        assert!(b.try_dealloc(a).is_ok());
        b.dealloc(c);
        assert_eq!(b.allocated_bytes(), 0);
        assert_eq!(b.alloc(8192), None);
    }

    #[test]
    fn concurrent_usage_is_safe_and_conserving() {
        const THREADS: usize = 8;
        const ITERS: usize = 1_000;
        let b = Arc::new(LockedFourLevel::new(NbbsFourLevel::new(cfg(
            1 << 14,
            8,
            1 << 10,
        ))));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut live = Vec::new();
                    for i in 0..ITERS {
                        let size = 8usize << ((i + t) % 7);
                        if let Some(off) = b.alloc(size) {
                            live.push(off);
                        }
                        if live.len() > 32 {
                            b.dealloc(live.swap_remove(0));
                        }
                    }
                    for off in live {
                        b.dealloc(off);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn inner_access_and_debug() {
        let b = LockedOneLevel::new(NbbsOneLevel::new(cfg(1024, 64, 1024)));
        assert_eq!(b.inner().geometry().total_memory(), 1024);
        assert!(format!("{b:?}").contains("1lvl-sl"));
        assert_eq!(b.contended_acquisitions(), 0);
    }
}
