//! # nbbs-chaos — deterministic fault injection for the NBBS stack
//!
//! The model checker (`nbbs-model`) proves the lock-free tree's logic under
//! every interleaving, but nothing above the tree gets that treatment: the
//! magazine cache, the NodeSet router and the facade all contain multi-step
//! paths (flush loops, batched refills, depot exchanges) whose failure
//! behaviour is otherwise untested.  This crate makes faults first-class:
//! [`FaultInjecting`] wraps any [`nbbs::BuddyBackend`] — exactly where
//! `nbbs_obs::Recorded` composes — and injects a *seeded, deterministic*
//! schedule of
//!
//! * **allocation failures** — probabilistic or every-nth-operation, surfaced
//!   as `None` from `alloc` and as [`AllocError::Transient`] (or, separately
//!   rated, hard [`AllocError::OutOfMemory`]) from `try_alloc`, so the layers
//!   above must carry a failed grant up to the caller without losing or
//!   stranding a chunk;
//! * **delays** — short spin bursts at operation boundaries that widen race
//!   windows the way a preempted thread would;
//! * **scoped panics** — injected *before* the wrapped operation runs, so an
//!   unwinding caller can treat the in-flight chunk as still owned by
//!   whoever held it.  Because the cache's flush/refill/drain paths are the
//!   code that calls `backend.alloc`/`backend.dealloc` in loops, a panic
//!   injected here unwinds exactly through those paths.
//!
//! Every decision is a pure function of `(seed, operation index)` via a
//! SplitMix64 finalizer: re-running with the seed from a printed
//! `REPRO: seed …` line replays the identical fault schedule (thread
//! interleaving stays up to the OS, as with `coalescing_soak`).
//!
//! The wrapper costs nothing when it is not in the stack, and close to
//! nothing when [disarmed](FaultInjecting::disarm): one relaxed load and a
//! branch per operation, gated in CI by the same ≤5% Larson budget that
//! gates latency recording (`nbbs-bench chaos-overhead`).
//!
//! ```
//! use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
//! use nbbs_chaos::{FaultInjecting, FaultPlan};
//!
//! let tree = NbbsFourLevel::new(BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap());
//! let plan = FaultPlan::storm(0x5EED);
//! let chaotic = FaultInjecting::new(tree, plan);
//! // Some allocations now fail on schedule; the survivors are real.
//! let mut live = Vec::new();
//! for _ in 0..64 {
//!     if let Some(off) = chaotic.alloc(64) {
//!         live.push(off);
//!     }
//! }
//! chaotic.disarm(); // post-storm: verify over a fault-free backend
//! for off in live {
//!     chaotic.dealloc(off);
//! }
//! assert_eq!(chaotic.allocated_bytes(), 0);
//! assert!(chaotic.fault_stats().injected_failures > 0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::hint;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nbbs::error::{AllocError, FreeError};
use nbbs::{BuddyBackend, Geometry, TreeInspect};

/// SplitMix64 finalizer: a statistically strong 64-bit mix, the same
/// generator `nbbs-workloads` seeds its per-thread streams with.  Pure, so
/// every fault decision is replayable from `(seed, op index)` alone.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain-separation salts so the alloc / dealloc / delay / panic decisions
/// of one operation draw independent values from the same roll index.
const SALT_FAIL: u64 = 0xA110_C8ED;
const SALT_OOM: u64 = 0x0000_00DE_AD00;
const SALT_DELAY: u64 = 0xDE1A_7ED0;
const SALT_PANIC: u64 = 0xBAD0_CA11;

/// A seeded fault schedule.
///
/// Rates are expressed per 65 536 operations (`0` = never, `65535` ≈
/// always), so a plan is `Copy` and prints compactly.  The default plan is
/// inert — every rate zero — which makes [`FaultInjecting`] a pure
/// forwarder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Base seed every decision derives from; print it in `REPRO:` lines.
    pub seed: u64,
    /// Per-64Ki rate of *transient* allocation failures (`alloc` → `None`,
    /// `try_alloc` → [`AllocError::Transient`]).
    pub fail_per_64k: u16,
    /// Per-64Ki rate of *hard* OOM injections (`try_alloc` →
    /// [`AllocError::OutOfMemory`]; `alloc` → `None`, like a transient
    /// failure), the schedule that makes a bare facade over the injector
    /// report exhaustion the way the tree does.
    pub oom_per_64k: u16,
    /// Additionally fail every `n`-th allocation transiently (0 = off) — the
    /// deterministic complement to the probabilistic rate, useful for unit
    /// tests that need the exact failing operation.
    pub fail_every_nth: u64,
    /// Per-64Ki rate of spin delays at operation boundaries.
    pub delay_per_64k: u16,
    /// Upper bound on the injected spin iterations per delay.
    pub delay_spins: u32,
    /// Per-64Ki rate of panics injected before an `alloc` runs (unwinds
    /// through the cache's batched refill path).
    pub panic_alloc_per_64k: u16,
    /// Per-64Ki rate of panics injected before a `dealloc` runs (unwinds
    /// through the cache's flush / drain / surplus-return loops).
    pub panic_dealloc_per_64k: u16,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::inert(0)
    }
}

impl FaultPlan {
    /// An inert plan: every rate zero, pure forwarding.
    pub const fn inert(seed: u64) -> Self {
        FaultPlan {
            seed,
            fail_per_64k: 0,
            oom_per_64k: 0,
            fail_every_nth: 0,
            delay_per_64k: 0,
            delay_spins: 0,
            panic_alloc_per_64k: 0,
            panic_dealloc_per_64k: 0,
        }
    }

    /// The `chaos_soak` storm: a few percent of allocations fail
    /// transiently, a sprinkle of hard OOM, frequent short delays, and no
    /// panics (panic storms use [`FaultPlan::panic_storm`] so the two
    /// recovery surfaces are attributable separately).
    pub const fn storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            fail_per_64k: 3277, // ~5%
            oom_per_64k: 655,   // ~1%
            fail_every_nth: 0,
            delay_per_64k: 6554, // ~10%
            delay_spins: 64,
            panic_alloc_per_64k: 0,
            panic_dealloc_per_64k: 0,
        }
    }

    /// A storm that also injects rare panics into both backend paths.
    pub const fn panic_storm(seed: u64) -> Self {
        FaultPlan {
            panic_alloc_per_64k: 328,   // ~0.5%
            panic_dealloc_per_64k: 328, // ~0.5%
            ..FaultPlan::storm(seed)
        }
    }

    /// `true` when every rate is zero: the wrapper never consults the RNG.
    pub const fn is_inert(&self) -> bool {
        self.fail_per_64k == 0
            && self.oom_per_64k == 0
            && self.fail_every_nth == 0
            && self.delay_per_64k == 0
            && self.panic_alloc_per_64k == 0
            && self.panic_dealloc_per_64k == 0
    }
}

/// Counters of what a [`FaultInjecting`] wrapper actually injected —
/// assertions in the soak harness require the storm to have fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient allocation failures injected (probabilistic + every-nth).
    pub injected_failures: u64,
    /// Hard OOM failures injected.
    pub injected_oom: u64,
    /// Spin delays injected.
    pub injected_delays: u64,
    /// Panics injected.
    pub injected_panics: u64,
    /// Total operations that passed through the wrapper while armed.
    pub ops: u64,
}

/// What the fault gate decided for one allocation attempt.
enum Verdict {
    Pass,
    FailTransient,
    FailOom,
}

/// A [`BuddyBackend`] wrapper that injects a deterministic, seeded fault
/// schedule.  Composes anywhere `nbbs_obs::Recorded` does: under a
/// `MagazineCache`, under a `NodeSet` member, or at the bottom of the full
/// facade stack.
///
/// **Panic contract:** injected panics fire *before* the wrapped operation
/// runs.  An unwinding caller may therefore assume the in-flight offset is
/// still in whatever state it was before the call — the cache's
/// orphan-rescue path relies on this to re-issue interrupted frees without
/// double-freeing.
pub struct FaultInjecting<A> {
    inner: A,
    plan: FaultPlan,
    armed: AtomicBool,
    ops: AtomicU64,
    injected_failures: AtomicU64,
    injected_oom: AtomicU64,
    injected_delays: AtomicU64,
    injected_panics: AtomicU64,
}

impl<A> FaultInjecting<A> {
    /// Wraps `inner` with `plan`, armed.
    pub fn new(inner: A, plan: FaultPlan) -> Self {
        FaultInjecting {
            inner,
            plan,
            armed: AtomicBool::new(!plan.is_inert()),
            ops: AtomicU64::new(0),
            injected_failures: AtomicU64::new(0),
            injected_oom: AtomicU64::new(0),
            injected_delays: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
        }
    }

    /// Wraps `inner` with an inert plan: pure forwarding.  This is the
    /// configuration the `chaos-overhead` CI gate measures.
    pub fn inert(inner: A) -> Self {
        FaultInjecting::new(inner, FaultPlan::inert(0))
    }

    /// Stops injecting faults (forwarding continues).  Post-storm
    /// verification disarms first so drains and audits run fault-free.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Resumes injecting faults from the current operation index.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// `true` while the schedule is live.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// The fault schedule this wrapper was built with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters of the faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            injected_failures: self.injected_failures.load(Ordering::Relaxed),
            injected_oom: self.injected_oom.load(Ordering::Relaxed),
            injected_delays: self.injected_delays.load(Ordering::Relaxed),
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwraps the backend.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// One pseudo-random 64-bit draw for operation `op` in domain `salt`.
    #[inline]
    fn roll(&self, op: u64, salt: u64) -> u64 {
        mix64(self.plan.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
    }

    #[inline]
    fn rate_hit(&self, op: u64, salt: u64, per_64k: u16) -> bool {
        per_64k != 0 && (self.roll(op, salt) & 0xFFFF) < per_64k as u64
    }

    /// Claims the next operation index, or `None` when disarmed/inert —
    /// the whole fast path is this one relaxed load.
    #[inline]
    fn next_op(&self) -> Option<u64> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        Some(self.ops.fetch_add(1, Ordering::Relaxed))
    }

    #[inline]
    fn maybe_delay(&self, op: u64) {
        if self.rate_hit(op, SALT_DELAY, self.plan.delay_per_64k) {
            self.injected_delays.fetch_add(1, Ordering::Relaxed);
            let spins = 1 + self.roll(op, SALT_DELAY ^ 1) % u64::from(self.plan.delay_spins.max(1));
            for _ in 0..spins {
                hint::spin_loop();
            }
        }
    }

    #[inline]
    fn maybe_panic(&self, op: u64, per_64k: u16, path: &str) {
        if self.rate_hit(op, SALT_PANIC, per_64k) {
            self.injected_panics.fetch_add(1, Ordering::Relaxed);
            panic!(
                "nbbs-chaos: injected panic before {path} (op {op}, seed {:#018x})",
                self.plan.seed
            );
        }
    }

    /// The full gate for one allocation attempt.
    fn gate_alloc(&self) -> Verdict {
        let Some(op) = self.next_op() else {
            return Verdict::Pass;
        };
        self.maybe_delay(op);
        self.maybe_panic(op, self.plan.panic_alloc_per_64k, "alloc");
        if self.plan.fail_every_nth != 0 && op % self.plan.fail_every_nth == 0 {
            self.injected_failures.fetch_add(1, Ordering::Relaxed);
            return Verdict::FailTransient;
        }
        if self.rate_hit(op, SALT_FAIL, self.plan.fail_per_64k) {
            self.injected_failures.fetch_add(1, Ordering::Relaxed);
            return Verdict::FailTransient;
        }
        if self.rate_hit(op, SALT_OOM, self.plan.oom_per_64k) {
            self.injected_oom.fetch_add(1, Ordering::Relaxed);
            return Verdict::FailOom;
        }
        Verdict::Pass
    }

    /// The gate for one release: delays and panics only — a silently
    /// dropped free would leak, so frees are never "failed".
    fn gate_dealloc(&self) {
        let Some(op) = self.next_op() else {
            return;
        };
        self.maybe_delay(op);
        self.maybe_panic(op, self.plan.panic_dealloc_per_64k, "dealloc");
    }
}

impl<A: BuddyBackend> BuddyBackend for FaultInjecting<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        match self.gate_alloc() {
            Verdict::Pass => self.inner.alloc(size),
            Verdict::FailTransient | Verdict::FailOom => None,
        }
    }

    fn dealloc(&self, offset: usize) {
        self.gate_dealloc();
        self.inner.dealloc(offset)
    }

    fn try_alloc(&self, size: usize) -> Result<usize, AllocError> {
        match self.gate_alloc() {
            Verdict::Pass => self.inner.try_alloc(size),
            Verdict::FailTransient => Err(AllocError::Transient { requested: size }),
            Verdict::FailOom => Err(AllocError::OutOfMemory { requested: size }),
        }
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        self.gate_dealloc();
        self.inner.try_dealloc(offset)
    }

    /// Read-outs and scrubber maintenance reach the wrapped backend
    /// ungated: fault plans model mutator failures, and a "failed" claim
    /// would just be skipped silently — injecting there would only hide
    /// coverage, not exercise recovery.
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
}

impl<A: TreeInspect> TreeInspect for FaultInjecting<A> {
    fn inspect_geometry(&self) -> &Geometry {
        self.inner.inspect_geometry()
    }

    fn node_status(&self, n: usize) -> u8 {
        self.inner.node_status(n)
    }

    fn recorded_node_of_unit(&self, unit: usize) -> Option<usize> {
        self.inner.recorded_node_of_unit(unit)
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
    fn inert_wrapper_is_a_pure_forwarder() {
        let c = FaultInjecting::inert(tree());
        assert!(!c.is_armed());
        let a = c.alloc(100).unwrap();
        let b = c.try_alloc(4096).unwrap();
        assert_eq!(c.allocated_bytes(), 128 + 4096);
        c.dealloc(a);
        c.try_dealloc(b).unwrap();
        assert_eq!(c.allocated_bytes(), 0);
        assert_eq!(c.fault_stats(), FaultStats::default());
    }

    #[test]
    fn certain_failure_rate_fails_every_alloc_transiently() {
        let plan = FaultPlan {
            fail_per_64k: u16::MAX,
            ..FaultPlan::inert(7)
        };
        // u16::MAX per 64Ki misses one roll value in 65 536; a handful of
        // attempts is astronomically unlikely to dodge it every time.
        let c = FaultInjecting::new(tree(), plan);
        let mut failed = 0;
        for _ in 0..32 {
            if c.alloc(64).is_none() {
                failed += 1;
            }
        }
        assert!(failed >= 31, "only {failed}/32 injected");
        assert!(matches!(
            c.try_alloc(64),
            Err(AllocError::Transient { requested: 64 }) | Ok(_)
        ));
        assert!(c.fault_stats().injected_failures >= 31);
    }

    #[test]
    fn oom_injection_is_a_hard_failure() {
        let plan = FaultPlan {
            oom_per_64k: u16::MAX,
            ..FaultPlan::inert(7)
        };
        let c = FaultInjecting::new(tree(), plan);
        let mut oom = 0;
        for _ in 0..32 {
            if matches!(c.try_alloc(64), Err(AllocError::OutOfMemory { .. })) {
                oom += 1;
            }
        }
        assert!(oom >= 31, "only {oom}/32 injected as hard OOM");
    }

    #[test]
    fn nth_op_schedule_is_exact() {
        let plan = FaultPlan {
            fail_every_nth: 4,
            ..FaultPlan::inert(0)
        };
        let c = FaultInjecting::new(tree(), plan);
        let outcomes: Vec<bool> = (0..8).map(|_| c.alloc(64).is_some()).collect();
        // Ops 0 and 4 fail; everything else passes.
        assert_eq!(
            outcomes,
            vec![false, true, true, true, false, true, true, true]
        );
        assert_eq!(c.fault_stats().injected_failures, 2);
    }

    #[test]
    fn schedules_replay_identically_from_the_seed() {
        let plan = FaultPlan::storm(0xDECAF);
        let run = || {
            let c = FaultInjecting::new(tree(), plan);
            let outcomes: Vec<bool> = (0..256).map(|_| c.try_alloc(64).is_ok()).collect();
            (outcomes, c.fault_stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn injected_panic_fires_before_the_dealloc() {
        let plan = FaultPlan {
            panic_dealloc_per_64k: u16::MAX,
            ..FaultPlan::inert(3)
        };
        let c = FaultInjecting::new(tree(), plan);
        c.disarm();
        let off = c.alloc(64).unwrap();
        c.arm();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.dealloc(off)));
        assert!(err.is_err(), "panic rate 100% must fire");
        // Contract: the panic fired *before* the inner dealloc ran.
        assert_eq!(c.allocated_bytes(), 64, "chunk still live after unwind");
        c.disarm();
        c.dealloc(off); // rescue path: re-issuing the free is safe
        assert_eq!(c.allocated_bytes(), 0);
        assert!(c.fault_stats().injected_panics >= 1);
    }

    #[test]
    fn disarm_stops_the_storm_mid_flight() {
        let c = FaultInjecting::new(tree(), FaultPlan::storm(11));
        assert!(c.is_armed());
        c.disarm();
        for _ in 0..64 {
            let off = c.alloc(64).expect("disarmed wrapper forwards cleanly");
            c.dealloc(off);
        }
        assert_eq!(c.fault_stats().ops, 0, "disarmed ops are not even counted");
    }

    #[test]
    fn tree_inspect_forwards_for_cached_verification() {
        let c = FaultInjecting::inert(tree());
        assert_eq!(
            c.inspect_geometry().tree_len(),
            c.inner().inspect_geometry().tree_len()
        );
        assert_eq!(c.node_status(1), 0);
    }
}
