//! FIFO ticket spin lock.
//!
//! The Linux kernel of the era the paper benchmarks against (3.2) used ticket
//! spin locks for its zone locks.  A ticket lock grants the lock in arrival
//! order, which removes the starvation the plain TTAS lock can exhibit but
//! makes the hand-off latency strictly serial: every waiter must observe the
//! `now_serving` increment before the next one can enter.  The `linux-buddy`
//! baseline uses this lock so that Figure 12's comparison captures the same
//! fairness/latency trade-off the kernel allocator had.

use crate::backoff::Backoff;
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// A FIFO ticket lock protecting a value of type `T`.
///
/// # Examples
///
/// ```
/// use nbbs_sync::TicketLock;
///
/// let lock = TicketLock::new(vec![1, 2, 3]);
/// lock.lock().push(4);
/// assert_eq!(lock.lock().len(), 4);
/// ```
pub struct TicketLock<T: ?Sized> {
    next_ticket: AtomicU64,
    now_serving: AtomicU64,
    data: UnsafeCell<T>,
}

// SAFETY: exclusive access to `data` is mediated by the ticket protocol.
unsafe impl<T: ?Sized + Send> Sync for TicketLock<T> {}
// SAFETY: the lock owns `data`, so moving it moves a `T: Send`.
unsafe impl<T: ?Sized + Send> Send for TicketLock<T> {}

/// RAII guard returned by [`TicketLock::lock`].
pub struct TicketLockGuard<'a, T: ?Sized> {
    lock: &'a TicketLock<T>,
}

impl<T> TicketLock<T> {
    /// Creates a new unlocked ticket lock.
    #[inline]
    pub const fn new(value: T) -> Self {
        TicketLock {
            next_ticket: AtomicU64::new(0),
            now_serving: AtomicU64::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> TicketLock<T> {
    /// Acquires the lock, waiting for this caller's ticket to be served.
    pub fn lock(&self) -> TicketLockGuard<'_, T> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let backoff = Backoff::new();
        while self.now_serving.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
        TicketLockGuard { lock: self }
    }

    /// Attempts to acquire the lock only if nobody is waiting or holding it.
    pub fn try_lock(&self) -> Option<TicketLockGuard<'_, T>> {
        let serving = self.now_serving.load(Ordering::Acquire);
        if self
            .next_ticket
            .compare_exchange(serving, serving + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            Some(TicketLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns `true` if a thread currently holds (or waits for) the lock.
    #[inline]
    pub fn is_contended(&self) -> bool {
        self.next_ticket.load(Ordering::Relaxed) != self.now_serving.load(Ordering::Relaxed)
    }

    /// Number of acquisitions granted so far.
    #[inline]
    pub fn acquisitions(&self) -> u64 {
        self.now_serving.load(Ordering::Relaxed)
    }

    /// Mutable access without locking (requires exclusive ownership).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized> Deref for TicketLockGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the ticket protocol grants exclusive access while held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for TicketLockGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for TicketLockGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.now_serving.fetch_add(1, Ordering::Release);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TicketLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TicketLock")
            .field("contended", &self.is_contended())
            .finish()
    }
}

impl<T: Default> Default for TicketLock<T> {
    fn default() -> Self {
        TicketLock::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_lock_unlock() {
        let lock = TicketLock::new(1u32);
        *lock.lock() += 1;
        assert_eq!(*lock.lock(), 2);
        assert!(!lock.is_contended());
    }

    #[test]
    fn try_lock_respects_holder() {
        let lock = TicketLock::new(());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn acquisition_counter_counts_releases() {
        let lock = TicketLock::new(());
        for _ in 0..5 {
            drop(lock.lock());
        }
        assert_eq!(lock.acquisitions(), 5);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        const THREADS: usize = 8;
        const ITERS: usize = 5_000;
        let lock = Arc::new(TicketLock::new(0usize));
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
    fn into_inner_returns_value() {
        let lock = TicketLock::new(String::from("x"));
        lock.lock().push('y');
        assert_eq!(lock.into_inner(), "xy");
    }
}
