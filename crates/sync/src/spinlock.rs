//! Test-and-test-and-set spin lock with exponential backoff.
//!
//! This is the synchronization primitive behind every blocking baseline in
//! the paper's evaluation (`buddy-sl`, `1lvl-sl`, `4lvl-sl`, and the zone lock
//! of the Linux-style buddy).  The acquisition path first spins on a plain
//! load (so the contended line stays in the Shared state) and only attempts
//! the atomic swap when the lock looks free, with [`Backoff`] smoothing the
//! retry cadence.  The guard releases the lock on drop.

use crate::backoff::Backoff;
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A mutual-exclusion spin lock protecting a value of type `T`.
///
/// # Examples
///
/// ```
/// use nbbs_sync::SpinLock;
/// use std::sync::Arc;
///
/// let counter = Arc::new(SpinLock::new(0u64));
/// let handles: Vec<_> = (0..4)
///     .map(|_| {
///         let counter = Arc::clone(&counter);
///         std::thread::spawn(move || {
///             for _ in 0..1000 {
///                 *counter.lock() += 1;
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(*counter.lock(), 4000);
/// ```
pub struct SpinLock<T: ?Sized> {
    locked: AtomicBool,
    /// Number of acquisitions that had to wait (lock observed held at least
    /// once before being acquired).  Exposed for the benchmark harness so the
    /// blocking baselines can report contention alongside throughput.
    contended: AtomicU64,
    data: UnsafeCell<T>,
}

// SAFETY: the lock provides exclusive access to `data`, so it is `Sync` as
// long as the protected value can be sent between threads.
unsafe impl<T: ?Sized + Send> Sync for SpinLock<T> {}
// SAFETY: the lock owns `data`, so moving it moves a `T: Send`.
unsafe impl<T: ?Sized + Send> Send for SpinLock<T> {}

/// RAII guard returned by [`SpinLock::lock`]; releases the lock when dropped.
pub struct SpinLockGuard<'a, T: ?Sized> {
    lock: &'a SpinLock<T>,
}

impl<T> SpinLock<T> {
    /// Creates a new unlocked spin lock protecting `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            contended: AtomicU64::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Acquires the lock, spinning (and eventually yielding) until available.
    #[inline]
    pub fn lock(&self) -> SpinLockGuard<'_, T> {
        if self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return SpinLockGuard { lock: self };
        }
        self.lock_contended()
    }

    #[cold]
    fn lock_contended(&self) -> SpinLockGuard<'_, T> {
        self.contended.fetch_add(1, Ordering::Relaxed);
        let backoff = Backoff::new();
        loop {
            // Test-and-test-and-set: wait until the lock *looks* free before
            // issuing another RMW, so we do not steal the line in Modified
            // state from the holder on every iteration.
            while self.locked.load(Ordering::Relaxed) {
                backoff.snooze();
            }
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return SpinLockGuard { lock: self };
            }
        }
    }

    /// Attempts to acquire the lock without spinning.
    #[inline]
    pub fn try_lock(&self) -> Option<SpinLockGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(SpinLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns `true` if the lock is currently held by some thread.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    /// Number of acquisitions that found the lock busy at least once.
    #[inline]
    pub fn contended_acquisitions(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Mutable access without locking (requires exclusive ownership).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized> Deref for SpinLockGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: holding the guard means the lock is held, granting
        // exclusive access to `data`.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinLockGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above — exclusive access while the guard is alive.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for SpinLockGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("SpinLock").field("data", &&*guard).finish(),
            None => f
                .debug_struct("SpinLock")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        SpinLock::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uncontended_lock_unlock() {
        let lock = SpinLock::new(5);
        {
            let mut g = lock.lock();
            *g += 1;
        }
        assert_eq!(*lock.lock(), 6);
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock = SpinLock::new(());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn guard_releases_on_drop() {
        let lock = SpinLock::new(0);
        drop(lock.lock());
        assert!(!lock.is_locked());
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut lock = SpinLock::new(10);
        *lock.get_mut() += 5;
        assert_eq!(lock.into_inner(), 15);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        const THREADS: usize = 8;
        const ITERS: usize = 10_000;
        let lock = Arc::new(SpinLock::new(0usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), THREADS * ITERS);
    }

    #[test]
    fn contention_counter_moves_under_contention() {
        let lock = Arc::new(SpinLock::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        let mut g = lock.lock();
                        *g = g.wrapping_add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Not guaranteed to be non-zero on a single-core box with perfect
        // scheduling luck, but the counter must never exceed acquisitions.
        assert!(lock.contended_acquisitions() <= 4 * 5_000);
    }

    #[test]
    fn debug_formats_without_deadlock() {
        let lock = SpinLock::new(3);
        assert!(format!("{lock:?}").contains('3'));
        let g = lock.lock();
        assert!(format!("{lock:?}").contains("locked"));
        drop(g);
    }

    #[test]
    fn default_constructs_inner_default() {
        let lock: SpinLock<u32> = SpinLock::default();
        assert_eq!(*lock.lock(), 0);
    }
}
