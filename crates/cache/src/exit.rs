//! Drain-on-exit for *foreign* threads.
//!
//! The drain APIs on [`MagazineCache`] assume a
//! cooperating caller: a benchmark worker takes a
//! [`thread_guard`](crate::MagazineCache::thread_guard) and its slot is
//! drained when the scope ends.  A cache sitting behind a
//! `#[global_allocator]` facade has no such luxury — *every* thread of the
//! program touches it, including threads spawned by libraries that have
//! never heard of this crate, and each of them may leave chunks parked in
//! its slot's magazines when it exits.  Those chunks are not leaked (the
//! backend still tracks them, and `drain_all` returns them), but the slot
//! stays claimed by a thread that no longer exists: its chunks are dead
//! capacity, and every later thread mapping to that slot falls back to
//! the stripe's shared, locked one.  On a program that churns through short-lived
//! threads both accumulate.
//!
//! This module provides the hook the facade needs: a thread-local registry
//! of [`DrainOnExit`] handles.  The first time a thread touches the global
//! allocator, the facade registers a handle; when the thread exits, the
//! registry's TLS destructor runs each handle, which drains the thread's
//! slot back to the backend and gives the slot up.  The registry
//! deduplicates by handle identity, so repeated registration is one TLS
//! access plus a short pointer scan.
//!
//! The handles are trait objects rather than `Arc<MagazineCache<A>>` so
//! that the facade can interpose its own re-entrancy latch around the drain
//! (allocations performed *by* the drain — the scratch vector, dropped
//! magazine buffers — must bypass the cache, or they would re-park chunks
//! in the slot that is being emptied).

use std::cell::RefCell;
use std::sync::Arc;

use nbbs::BuddyBackend;

use crate::MagazineCache;

/// A per-thread cleanup action run when the registering thread exits.
///
/// Implemented by [`MagazineCache`] directly (the drain is
/// [`MagazineCache::drain_current_thread`]) and by wrapper types that need
/// to bracket the drain — e.g. a global-allocator facade setting its
/// re-entrancy latch so the drain's own heap traffic bypasses the cache.
pub trait DrainOnExit: Send + Sync {
    /// Runs on the exiting thread, after its registration via
    /// [`drain_on_thread_exit`].
    fn drain(&self);
}

impl<A: BuddyBackend> DrainOnExit for MagazineCache<A> {
    fn drain(&self) {
        self.drain_current_thread();
    }
}

/// The registered handles of one thread; dropping the wrapper (the TLS
/// destructor at thread exit) runs every drain.
struct ExitDrains(Vec<Arc<dyn DrainOnExit>>);

impl Drop for ExitDrains {
    fn drop(&mut self) {
        for hook in &self.0 {
            hook.drain();
        }
    }
}

thread_local! {
    static EXIT_DRAINS: RefCell<ExitDrains> = RefCell::new(ExitDrains(Vec::new()));
}

/// Registers `hook` to run when the *calling* thread exits.
///
/// Returns `true` if the hook was newly registered, `false` if this thread
/// already carries it (identity-compared, so registering on every allocator
/// touch is cheap and idempotent).  If the thread is already so deep into
/// teardown that the registry's TLS slot is gone, the hook runs immediately
/// — the conservative interpretation of "on exit" for a thread that is
/// exiting right now.
pub fn drain_on_thread_exit(hook: Arc<dyn DrainOnExit>) -> bool {
    let outcome = EXIT_DRAINS.try_with(|drains| {
        let mut drains = drains.borrow_mut();
        if drains.0.iter().any(|h| Arc::ptr_eq(h, &hook)) {
            return false;
        }
        drains.0.push(Arc::clone(&hook));
        true
    });
    match outcome {
        Ok(registered) => registered,
        Err(_) => {
            hook.drain();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbs::{BuddyConfig, NbbsOneLevel};

    fn cache() -> Arc<MagazineCache<NbbsOneLevel>> {
        Arc::new(MagazineCache::with_slots(
            NbbsOneLevel::new(BuddyConfig::new(1 << 16, 8, 1 << 12).unwrap()),
            1,
        ))
    }

    #[test]
    fn registration_deduplicates_per_thread() {
        let c = cache();
        let hook: Arc<dyn DrainOnExit> = c.clone();
        std::thread::spawn(move || {
            assert!(drain_on_thread_exit(Arc::clone(&hook)));
            assert!(
                !drain_on_thread_exit(Arc::clone(&hook)),
                "second is a no-op"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn registered_thread_drains_its_slot_on_exit() {
        let c = cache();
        let worker = Arc::clone(&c);
        std::thread::spawn(move || {
            drain_on_thread_exit(worker.clone() as Arc<dyn DrainOnExit>);
            // Park chunks in this thread's magazines and exit without any
            // explicit drain call.
            let offs: Vec<_> = (0..8).filter_map(|_| worker.alloc(64)).collect();
            for off in offs {
                worker.dealloc(off);
            }
            assert!(worker.cached_bytes() > 0, "chunks parked in the slot");
        })
        .join()
        .unwrap();
        // Eight chunks never overflow a 64-entry magazine, so nothing reached
        // the depot: a clean slot means a clean cache.
        assert_eq!(c.snapshot().depot_exchanges, 0);
        assert_eq!(c.cached_bytes(), 0, "exit hook drained the slot");
        assert_eq!(c.backend().allocated_bytes(), 0);
    }

    #[test]
    fn unregistered_threads_leave_chunks_parked() {
        // Sanity check of the problem the registry solves: without the hook
        // the slot stays populated after the thread is gone.
        let c = cache();
        let worker = Arc::clone(&c);
        std::thread::spawn(move || {
            let off = worker.alloc(64).unwrap();
            worker.dealloc(off);
        })
        .join()
        .unwrap();
        assert!(c.cached_bytes() > 0);
        c.drain_all();
        assert_eq!(c.cached_bytes(), 0);
    }
}
