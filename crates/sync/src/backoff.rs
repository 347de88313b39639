//! Bounded exponential backoff for contended retry loops.
//!
//! Spin locks and CAS retry loops both benefit from waiting a little longer
//! after each failed attempt: it reduces cache-line ping-pong on the contended
//! word.  The backoff here doubles the number of `spin_loop` hints up to a
//! cap, and can optionally report when the caller should consider yielding
//! the CPU instead of spinning (important on over-subscribed machines, which
//! is exactly the regime the paper's 32-thread runs operate in).

use std::hint;

/// Maximum exponent for the spin phase: 2^6 = 64 `spin_loop` hints per round.
const SPIN_LIMIT: u32 = 6;
/// Exponent after which [`Backoff::is_completed`] suggests yielding.
const YIELD_LIMIT: u32 = 10;

/// Exponential backoff helper.
///
/// # Examples
///
/// ```
/// use nbbs_sync::Backoff;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let flag = AtomicBool::new(true);
/// let backoff = Backoff::new();
/// while flag
///     .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
///     .is_err()
/// {
///     backoff.snooze();
/// }
/// ```
#[derive(Debug)]
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// Creates a fresh backoff with zero accumulated delay.
    #[inline]
    pub fn new() -> Self {
        Backoff {
            step: std::cell::Cell::new(0),
        }
    }

    /// Resets the accumulated delay to zero.
    #[inline]
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Backs off for a short, purely spinning delay.
    ///
    /// Use this between two attempts of an operation that is expected to
    /// succeed very quickly (e.g. a CAS on a lightly contended word).
    #[inline]
    pub fn spin(&self) {
        let step = self.step.get().min(SPIN_LIMIT);
        for _ in 0..(1u32 << step) {
            hint::spin_loop();
        }
        if self.step.get() <= SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Backs off, yielding the thread once the spin budget is exhausted.
    ///
    /// This is the right choice inside a spin-lock acquisition loop when the
    /// machine may be over-subscribed (more runnable threads than cores): a
    /// de-scheduled lock holder would otherwise stretch the critical section
    /// indefinitely — the pathology the paper's introduction describes.
    #[inline]
    pub fn snooze(&self) {
        let step = self.step.get();
        if step <= SPIN_LIMIT {
            for _ in 0..(1u32 << step) {
                hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if step <= YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// Returns `true` once the backoff has escalated past pure spinning.
    ///
    /// Callers that have their own blocking strategy (e.g. parking) can use
    /// this to decide when to switch over.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }

    /// Number of backoff rounds performed so far.
    #[inline]
    pub fn rounds(&self) -> u32 {
        self.step.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let b = Backoff::new();
        assert_eq!(b.rounds(), 0);
        assert!(!b.is_completed());
    }

    #[test]
    fn spin_increments_up_to_limit() {
        let b = Backoff::new();
        for _ in 0..32 {
            b.spin();
        }
        // The counter saturates just past the spin limit.
        assert!(b.rounds() >= SPIN_LIMIT);
        assert!(b.rounds() <= SPIN_LIMIT + 1);
    }

    #[test]
    fn snooze_reaches_completion() {
        let b = Backoff::new();
        for _ in 0..64 {
            b.snooze();
        }
        assert!(b.is_completed());
    }

    #[test]
    fn reset_clears_progress() {
        let b = Backoff::new();
        for _ in 0..8 {
            b.snooze();
        }
        assert!(b.rounds() > 0);
        b.reset();
        assert_eq!(b.rounds(), 0);
        assert!(!b.is_completed());
    }

    #[test]
    fn default_matches_new() {
        let b = Backoff::default();
        assert_eq!(b.rounds(), 0);
    }
}
