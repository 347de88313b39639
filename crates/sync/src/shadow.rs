//! Shadow atomics: an instrumented drop-in for `std::sync::atomic` whose
//! every load/store/RMW is a **yield point** reporting to a deterministic
//! thread-pocket scheduler.
//!
//! The non-blocking buddy tree's correctness argument rests on the
//! interleaving-safety of a handful of CAS climbs over shared bunch words.
//! Random soaking explores whatever schedules the OS happens to produce;
//! the `nbbs-model` crate instead *enumerates* schedules, loom-style, by
//! compiling the real allocator against these shadow types
//! (`--cfg nbbs_model` switches the type aliases in `nbbs::tree`,
//! `nbbs::fourlvl`, `nbbs::onelvl` and [`crate::owned`]) and
//! driving each thread from one atomic access to the next.  A spin-wait
//! announces itself with [`spin_wait`], which parks the spinner until some
//! other thread writes what it read, so waits cost one step per change and
//! a wait nobody ends is reported as a deadlock.
//!
//! ## How a shadow access works
//!
//! 1. The accessing thread looks up its thread-local scheduler registration
//!    (installed by [`Scheduler::spawn_worker`]).  Unregistered threads —
//!    production code, test setup, the checking phase — fall straight
//!    through to the underlying `std` atomic: the shadow layer is inert
//!    unless a scheduler is driving.
//! 2. A registered thread **announces** the access it is about to perform
//!    (address + load/store/RMW kind) and parks.
//! 3. The driver (the model checker's search loop) waits until every worker
//!    is parked or finished, inspects the announced accesses, and grants
//!    exactly one thread the right to perform its access and run up to its
//!    *next* yield point.
//!
//! Because at most one worker runs between decisions and every shared
//! access is announced before it executes, the driver observes — and
//! controls — a sequentially-consistent interleaving of the program's
//! atomic accesses.  (Orderings weaker than SC are *not* modelled: the
//! scheduler serializes accesses in grant order regardless of the
//! `Ordering` argument, so the search proves interleaving-safety under SC;
//! see the memory-ordering argument in `nbbs::fourlvl` for why the
//! algorithm's `AcqRel` edges make SC the right abstraction there.)
//!
//! The value cells are genuine `std` atomics, so a mis-instrumented path
//! (or an overflowing run that falls back to free running) is still
//! data-race free — the shadow layer can lose *schedule control*, never
//! memory safety.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The kind of atomic access a thread announces at a yield point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A plain atomic load.
    Load,
    /// A plain atomic store.
    Store,
    /// A read-modify-write (CAS, fetch-and-add, swap, …).
    Rmw,
}

/// One announced atomic access: which cell, and how it will be touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Address of the shadow atomic (stable for the lifetime of one run,
    /// *not* across runs — cross-run bookkeeping must use thread ids and
    /// re-derive conflicts from the current run's announcements).
    pub addr: usize,
    /// Load, store or RMW.
    pub kind: AccessKind,
}

impl Access {
    /// Do two accesses conflict (same cell, at least one writes)?
    ///
    /// This is the independence relation the model checker's sleep-set
    /// pruning relies on: swapping two adjacent *non*-conflicting accesses
    /// cannot change any thread's observations, so only one of the two
    /// orders needs exploring.
    pub fn conflicts_with(&self, other: &Access) -> bool {
        self.addr == other.addr
            && !(self.kind == AccessKind::Load && other.kind == AccessKind::Load)
    }
}

/// One executed step of a schedule, for witness traces.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Thread that performed the access.
    pub tid: usize,
    /// The access as announced.
    pub access: Access,
    /// Human-readable outcome (value loaded, CAS success/failure, …),
    /// filled in right after the access executes.
    pub detail: String,
}

struct ThreadCell {
    /// The access this thread is parked at, if any.
    pending: Option<Access>,
    /// The cell of the access this thread performed last.
    last_addr: Option<usize>,
    /// Set by [`spin_wait`]: the thread waits for another thread to write
    /// this cell and is not offered to the search loop until one does.
    blocked_on: Option<usize>,
    finished: bool,
    panic_msg: Option<String>,
}

struct State {
    threads: Vec<ThreadCell>,
    /// Thread currently granted the right to run (cleared by the grantee).
    granted: Option<usize>,
    trace: Vec<StepRecord>,
    steps: usize,
    max_steps: usize,
    /// Step cap tripped: scheduling is abandoned and workers run free
    /// (still data-race free — the cells are real atomics).  The driver
    /// discards the run.
    overflow: bool,
    /// Every unfinished worker is blocked in [`spin_wait`]: none can ever
    /// run again, so a free-running spinner panics instead of spinning.
    deadlocked: bool,
}

/// What the driver should do next.
#[derive(Debug)]
pub enum Decision {
    /// All workers are parked; pick one of these `(tid, access)` pairs and
    /// [`Scheduler::grant`] it.
    Choose(Vec<(usize, Access)>),
    /// Every worker finished; the schedule is complete.
    AllDone,
    /// Every unfinished worker (these tids) waits in [`spin_wait`] for a
    /// write no other worker will make.  The search loop must [`Scheduler::abort`]
    /// the run; the spinners then unwind.
    Deadlock(Vec<usize>),
    /// The step cap tripped (or the driver aborted); workers were released
    /// to run free and the run must be discarded.
    Overflow,
}

/// A deterministic scheduler serializing shadow-atomic accesses.
///
/// One `Scheduler` drives one *run* (one schedule over one fresh program
/// state).  The driver loop is:
///
/// ```ignore
/// let sched = Scheduler::new(threads, max_steps);
/// let handles: Vec<_> = bodies.map(|(tid, f)| sched.spawn_worker(tid, f)).collect();
/// loop {
///     match sched.wait_decision() {
///         Decision::Choose(runnable) => sched.grant(pick(&runnable)),
///         Decision::AllDone => break,
///         Decision::Deadlock(_) => { sched.abort(); break } // a violation
///         Decision::Overflow => break, // discard the run
///     }
/// }
/// for h in handles { h.join().unwrap(); }
/// ```
pub struct Scheduler {
    state: Mutex<State>,
    /// Workers wait here for a grant.
    worker_cv: Condvar,
    /// The driver waits here for all workers to park or finish.
    driver_cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

impl Scheduler {
    /// Creates a scheduler for `threads` workers, discarding any run that
    /// exceeds `max_steps` scheduled accesses (a safety valve — the
    /// lock-free programs under test terminate on every schedule, so a trip
    /// indicates an instrumentation bug or a genuinely unbounded retry).
    pub fn new(threads: usize, max_steps: usize) -> Arc<Scheduler> {
        Arc::new(Scheduler {
            state: Mutex::new(State {
                threads: (0..threads)
                    .map(|_| ThreadCell {
                        pending: None,
                        last_addr: None,
                        blocked_on: None,
                        finished: false,
                        panic_msg: None,
                    })
                    .collect(),
                granted: None,
                trace: Vec::new(),
                steps: 0,
                max_steps,
                overflow: false,
                deadlocked: false,
            }),
            worker_cv: Condvar::new(),
            driver_cv: Condvar::new(),
        })
    }

    /// Spawns worker `tid` running `f` under this scheduler.
    ///
    /// The worker runs freely until its first shadow access, parks there,
    /// and from then on only advances when granted.  Panics are caught and
    /// surfaced through [`Scheduler::panics`] so a failing in-thread
    /// assertion becomes a reportable violation instead of a deadlock.
    pub fn spawn_worker(
        self: &Arc<Self>,
        tid: usize,
        f: impl FnOnce() + Send + 'static,
    ) -> JoinHandle<()> {
        let sched = Arc::clone(self);
        std::thread::spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched), tid)));
            let result = catch_unwind(AssertUnwindSafe(f));
            CTX.with(|c| *c.borrow_mut() = None);
            let mut st = sched.state.lock().unwrap();
            let cell = &mut st.threads[tid];
            cell.finished = true;
            cell.pending = None;
            if let Err(payload) = result {
                cell.panic_msg = Some(panic_message(&*payload));
            }
            sched.driver_cv.notify_all();
        })
    }

    /// Blocks until every worker is parked at an access or finished, then
    /// reports the runnable set (or completion/overflow).
    pub fn wait_decision(&self) -> Decision {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.overflow {
                return Decision::Overflow;
            }
            if st.granted.is_none() && st.threads.iter().all(|t| t.finished || t.pending.is_some())
            {
                let runnable: Vec<(usize, Access)> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.finished && t.blocked_on.is_none())
                    .map(|(i, t)| (i, t.pending.expect("parked worker has an access")))
                    .collect();
                if !runnable.is_empty() {
                    return Decision::Choose(runnable);
                }
                let blocked: Vec<usize> = (0..st.threads.len())
                    .filter(|&i| !st.threads[i].finished)
                    .collect();
                if blocked.is_empty() {
                    return Decision::AllDone;
                }
                st.deadlocked = true;
                return Decision::Deadlock(blocked);
            }
            st = self.driver_cv.wait(st).unwrap();
        }
    }

    /// Grants `tid` the right to perform its announced access and run to
    /// its next yield point.
    pub fn grant(&self, tid: usize) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.granted.is_none(), "grant while a grant is outstanding");
        debug_assert!(
            st.threads[tid].pending.is_some() && !st.threads[tid].finished,
            "granting a thread that is not parked"
        );
        st.granted = Some(tid);
        self.worker_cv.notify_all();
    }

    /// Abandons the run: releases every parked worker to run free (their
    /// remaining accesses fall through to the real atomics).  The driver
    /// must still join the workers; the run's final state is meaningless.
    pub fn abort(&self) {
        let mut st = self.state.lock().unwrap();
        st.overflow = true;
        self.worker_cv.notify_all();
        self.driver_cv.notify_all();
    }

    /// The steps executed so far (the trace), clearing the internal buffer.
    pub fn take_trace(&self) -> Vec<StepRecord> {
        std::mem::take(&mut self.state.lock().unwrap().trace)
    }

    /// Panic messages of workers that panicked, as `(tid, message)`.
    pub fn panics(&self) -> Vec<(usize, String)> {
        self.state
            .lock()
            .unwrap()
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.panic_msg.clone().map(|m| (i, m)))
            .collect()
    }

    /// Did the step cap trip (run must be discarded)?
    pub fn overflowed(&self) -> bool {
        self.state.lock().unwrap().overflow
    }

    /// Worker side: announce `access` and park until granted.
    fn park_at(&self, tid: usize, access: Access) {
        let mut st = self.state.lock().unwrap();
        if st.overflow {
            return;
        }
        st.threads[tid].pending = Some(access);
        self.driver_cv.notify_all();
        loop {
            if st.overflow {
                st.threads[tid].pending = None;
                return;
            }
            if st.granted == Some(tid) {
                break;
            }
            st = self.worker_cv.wait(st).unwrap();
        }
        st.granted = None;
        st.threads[tid].pending = None;
        st.threads[tid].last_addr = Some(access.addr);
        if access.kind != AccessKind::Load {
            // A write to the cell a spinner waits on: it may see something
            // new on its next read.
            for (u, cell) in st.threads.iter_mut().enumerate() {
                if u != tid && cell.blocked_on == Some(access.addr) {
                    cell.blocked_on = None;
                }
            }
        }
        st.steps += 1;
        st.trace.push(StepRecord {
            tid,
            access,
            detail: String::new(),
        });
        if st.steps > st.max_steps {
            st.overflow = true;
            self.worker_cv.notify_all();
            self.driver_cv.notify_all();
        }
    }

    /// Worker side of [`spin_wait`]: blocks `tid` on the cell it read last.
    fn block_on_last(&self, tid: usize) {
        let mut st = self.state.lock().unwrap();
        if st.deadlocked {
            drop(st);
            panic!("deadlock: every unfinished thread waits for a write nobody makes");
        }
        if st.overflow {
            drop(st);
            std::thread::yield_now();
            return;
        }
        let cell = &mut st.threads[tid];
        cell.blocked_on = cell.last_addr;
    }

    /// Worker side: attach a human-readable outcome to the step just taken.
    fn note(&self, tid: usize, detail: impl FnOnce() -> String) {
        let mut st = self.state.lock().unwrap();
        if st.overflow {
            return;
        }
        if let Some(last) = st.trace.last_mut() {
            if last.tid == tid {
                last.detail = detail();
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Announces an access from the calling thread, parking if a scheduler is
/// driving it.  No-op (passthrough) on unregistered threads.
#[inline]
fn yield_for(access: Access) {
    let ctx = CTX.with(|c| c.borrow().as_ref().map(|(s, t)| (Arc::clone(s), *t)));
    if let Some((sched, tid)) = ctx {
        sched.park_at(tid, access);
    }
}

/// The logical id of the calling worker, or `None` on a thread the
/// scheduler does not run (a config's setup, the explorer itself).
pub fn current_worker() -> Option<usize> {
    CTX.with(|c| c.borrow().as_ref().map(|&(_, tid)| tid))
}

/// One round of a spin-wait whose exit condition the caller just read.
///
/// A worker that re-reads an unchanged cell makes no progress, so under a
/// scheduler the call blocks the worker on the cell of its last access: it
/// is not offered to the search loop again until another worker writes that
/// cell.  Spin loops thus cost one step per change instead of making every
/// schedule infinite, and a wait nobody can end shows up as
/// [`Decision::Deadlock`].  On an unregistered thread it yields the CPU.
pub fn spin_wait() {
    let ctx = CTX.with(|c| c.borrow().as_ref().map(|(s, t)| (Arc::clone(s), *t)));
    match ctx {
        Some((sched, tid)) => sched.block_on_last(tid),
        None => std::thread::yield_now(),
    }
}

/// Records the outcome of the access just performed, if scheduled.
#[inline]
fn note(detail: impl FnOnce() -> String) {
    let ctx = CTX.with(|c| c.borrow().as_ref().map(|(s, t)| (Arc::clone(s), *t)));
    if let Some((sched, tid)) = ctx {
        sched.note(tid, detail);
    }
}

macro_rules! shadow_atomic {
    ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$meta])*
        #[repr(transparent)]
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Creates a new shadow atomic (no yield: construction is not
            /// a shared access).
            pub const fn new(v: $prim) -> Self {
                Self { inner: <$std>::new(v) }
            }

            /// Address identifying this cell within one run (used by the
            /// model checker's conflict relation and trace labels).
            #[inline]
            pub fn model_addr(&self) -> usize {
                self as *const Self as usize
            }

            /// Shadow of [`load`](std::sync::atomic::AtomicU64::load).
            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                yield_for(Access { addr: self.model_addr(), kind: AccessKind::Load });
                let v = self.inner.load(order);
                note(|| format!("-> {v:#x}"));
                v
            }

            /// Shadow of [`store`](std::sync::atomic::AtomicU64::store).
            #[inline]
            pub fn store(&self, v: $prim, order: Ordering) {
                yield_for(Access { addr: self.model_addr(), kind: AccessKind::Store });
                self.inner.store(v, order);
                note(|| format!("<- {v:#x}"));
            }

            /// Shadow of
            /// [`compare_exchange`](std::sync::atomic::AtomicU64::compare_exchange).
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                yield_for(Access { addr: self.model_addr(), kind: AccessKind::Rmw });
                let r = self.inner.compare_exchange(current, new, success, failure);
                note(|| match &r {
                    Ok(old) => format!("CAS ok {old:#x} -> {new:#x}"),
                    Err(seen) => format!("CAS fail (saw {seen:#x}, expected {current:#x})"),
                });
                r
            }

            /// Shadow of
            /// [`compare_exchange_weak`](std::sync::atomic::AtomicU64::compare_exchange_weak).
            ///
            /// Forwards to the *strong* variant so a schedule's CAS outcome
            /// is a pure function of the interleaving (a spurious failure
            /// would make runs non-deterministic and break replay).
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Shadow of [`fetch_add`](std::sync::atomic::AtomicU64::fetch_add).
            #[inline]
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                yield_for(Access { addr: self.model_addr(), kind: AccessKind::Rmw });
                let old = self.inner.fetch_add(v, order);
                note(|| format!("fetch_add({v:#x}) -> {old:#x}"));
                old
            }

            /// Shadow of [`fetch_sub`](std::sync::atomic::AtomicU64::fetch_sub).
            #[inline]
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                yield_for(Access { addr: self.model_addr(), kind: AccessKind::Rmw });
                let old = self.inner.fetch_sub(v, order);
                note(|| format!("fetch_sub({v:#x}) -> {old:#x}"));
                old
            }

            /// Shadow of [`fetch_or`](std::sync::atomic::AtomicU64::fetch_or).
            #[inline]
            pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                yield_for(Access { addr: self.model_addr(), kind: AccessKind::Rmw });
                let old = self.inner.fetch_or(v, order);
                note(|| format!("fetch_or({v:#x}) -> {old:#x}"));
                old
            }

            /// Shadow of [`swap`](std::sync::atomic::AtomicU64::swap).
            #[inline]
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                yield_for(Access { addr: self.model_addr(), kind: AccessKind::Rmw });
                let old = self.inner.swap(v, order);
                note(|| format!("swap({v:#x}) -> {old:#x}"));
                old
            }
        }

        // SAFETY: a transparent wrapper of the std atomic, whose all-zero
        // bytes are `new(0)`.
        unsafe impl crate::zeroed::Zeroable for $name {
            /// Built element by element, as the shadow cells always were, so
            /// the model build allocates and constructs nothing new.
            fn zeroed_slice(n: usize) -> crate::zeroed::ZeroedSlice<Self> {
                (0..n).map(|_| Self::new(0)).collect::<Box<[_]>>().into()
            }

            /// The kernel's zero page as the checker sees it: one store of
            /// 0 per element, each a step the racing accesses interleave
            /// with, so any store a racing thread made before the drop
            /// reached its element is lost.  Returns the elements' size, as
            /// if their pages went, so callers act on the drop as they
            /// would on a mapped array.
            fn discard_unmapped(elements: &[Self]) -> usize {
                elements.iter().for_each(|e| e.store(0, Ordering::Relaxed));
                std::mem::size_of_val(elements)
            }
        }
    };
}

shadow_atomic!(
    /// Shadow counterpart of [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);
shadow_atomic!(
    /// Shadow counterpart of [`std::sync::atomic::AtomicU32`].
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32
);
shadow_atomic!(
    /// Shadow counterpart of [`std::sync::atomic::AtomicU8`].
    AtomicU8,
    std::sync::atomic::AtomicU8,
    u8
);
shadow_atomic!(
    /// Shadow counterpart of [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);

/// Shadow counterpart of [`std::sync::atomic::AtomicBool`]: loads, stores,
/// compare-exchange and swap, each a yield point.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Creates a new shadow atomic (no yield: construction is not a shared
    /// access).
    pub const fn new(v: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    /// Address identifying this cell within one run.
    #[inline]
    pub fn model_addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Shadow of [`load`](std::sync::atomic::AtomicBool::load).
    #[inline]
    pub fn load(&self, order: Ordering) -> bool {
        yield_for(Access {
            addr: self.model_addr(),
            kind: AccessKind::Load,
        });
        let v = self.inner.load(order);
        note(|| format!("-> {v}"));
        v
    }

    /// Shadow of [`store`](std::sync::atomic::AtomicBool::store).
    #[inline]
    pub fn store(&self, v: bool, order: Ordering) {
        yield_for(Access {
            addr: self.model_addr(),
            kind: AccessKind::Store,
        });
        self.inner.store(v, order);
        note(|| format!("<- {v}"));
    }

    /// Shadow of
    /// [`compare_exchange`](std::sync::atomic::AtomicBool::compare_exchange).
    #[inline]
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        yield_for(Access {
            addr: self.model_addr(),
            kind: AccessKind::Rmw,
        });
        let r = self.inner.compare_exchange(current, new, success, failure);
        note(|| match &r {
            Ok(old) => format!("CAS ok {old} -> {new}"),
            Err(seen) => format!("CAS fail (saw {seen}, expected {current})"),
        });
        r
    }

    /// Shadow of
    /// [`compare_exchange_weak`](std::sync::atomic::AtomicBool::compare_exchange_weak),
    /// forwarded to the strong variant so outcomes replay.
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        self.compare_exchange(current, new, success, failure)
    }

    /// Shadow of [`swap`](std::sync::atomic::AtomicBool::swap).
    #[inline]
    pub fn swap(&self, v: bool, order: Ordering) -> bool {
        yield_for(Access {
            addr: self.model_addr(),
            kind: AccessKind::Rmw,
        });
        let old = self.inner.swap(v, order);
        note(|| format!("swap({v}) -> {old}"));
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_without_a_scheduler() {
        // On an unregistered thread the shadow types behave exactly like std.
        let a = AtomicU64::new(5);
        assert_eq!(a.load(Ordering::SeqCst), 5);
        a.store(7, Ordering::SeqCst);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 7);
        assert_eq!(
            a.compare_exchange(8, 9, Ordering::SeqCst, Ordering::SeqCst),
            Ok(8)
        );
        assert_eq!(
            a.compare_exchange(8, 10, Ordering::SeqCst, Ordering::SeqCst),
            Err(9)
        );
        let b = AtomicUsize::new(3);
        assert_eq!(b.fetch_sub(1, Ordering::SeqCst), 3);
        let c = AtomicU32::new(0);
        assert_eq!(c.swap(2, Ordering::SeqCst), 0);
        assert_eq!(c.fetch_or(1, Ordering::SeqCst), 2);
        let d = AtomicBool::new(false);
        assert!(d
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok());
        assert!(d.swap(false, Ordering::SeqCst));
        d.store(true, Ordering::SeqCst);
        assert!(d.load(Ordering::SeqCst));
        spin_wait(); // a yield off the scheduler
    }

    /// Drives `sched` granting the lowest runnable tid, and returns how the
    /// run ended plus the number of grants.
    fn drive_lowest_first(sched: &Scheduler) -> (Decision, usize) {
        let mut grants = 0;
        loop {
            match sched.wait_decision() {
                Decision::Choose(r) => {
                    sched.grant(r[0].0);
                    grants += 1;
                }
                end => return (end, grants),
            }
        }
    }

    #[test]
    fn a_spinner_waits_for_the_write_it_needs() {
        // Worker 0 spins on a flag worker 1 sets after three other steps.
        // Granting lowest-first would re-run the spinner forever; blocked,
        // it is passed over until the store lands.
        let flag = Arc::new(AtomicBool::new(false));
        let other = Arc::new(AtomicU64::new(0));
        let sched = Scheduler::new(2, 100);
        let spinner = {
            let flag = Arc::clone(&flag);
            sched.spawn_worker(0, move || {
                while !flag.load(Ordering::Acquire) {
                    spin_wait();
                }
            })
        };
        let setter = {
            let (flag, other) = (Arc::clone(&flag), Arc::clone(&other));
            sched.spawn_worker(1, move || {
                for _ in 0..3 {
                    other.fetch_add(1, Ordering::Relaxed);
                }
                flag.store(true, Ordering::Release);
            })
        };
        let (end, grants) = drive_lowest_first(&sched);
        assert!(matches!(end, Decision::AllDone), "{end:?}");
        assert_eq!(grants, 6, "one failed read, four writes, one good read");
        spinner.join().unwrap();
        setter.join().unwrap();
        assert!(sched.panics().is_empty());
    }

    #[test]
    fn a_wait_nobody_ends_is_a_deadlock() {
        let flag = Arc::new(AtomicBool::new(false));
        let sched = Scheduler::new(1, 100);
        let h = {
            let flag = Arc::clone(&flag);
            sched.spawn_worker(0, move || {
                while !flag.load(Ordering::Acquire) {
                    spin_wait();
                }
            })
        };
        let (end, _) = drive_lowest_first(&sched);
        assert!(
            matches!(end, Decision::Deadlock(ref t) if t == &[0]),
            "{end:?}"
        );
        sched.abort();
        h.join().unwrap();
        assert!(sched.panics()[0].1.contains("deadlock"));
    }

    #[test]
    fn conflict_relation() {
        let load = |addr| Access {
            addr,
            kind: AccessKind::Load,
        };
        let rmw = |addr| Access {
            addr,
            kind: AccessKind::Rmw,
        };
        assert!(
            !load(1).conflicts_with(&load(1)),
            "read/read is independent"
        );
        assert!(load(1).conflicts_with(&rmw(1)));
        assert!(rmw(1).conflicts_with(&rmw(1)));
        assert!(!rmw(1).conflicts_with(&rmw(2)), "distinct cells");
    }

    #[test]
    fn scheduler_serializes_two_workers() {
        // Two workers each perform 2 accesses; the driver alternates grants
        // and must observe exactly 4 steps in the order it granted.
        let a = Arc::new(AtomicU64::new(0));
        let sched = Scheduler::new(2, 100);
        let handles: Vec<_> = (0..2)
            .map(|tid| {
                let a = Arc::clone(&a);
                sched.spawn_worker(tid, move || {
                    a.fetch_add(1, Ordering::SeqCst);
                    a.fetch_add(10, Ordering::SeqCst);
                })
            })
            .collect();
        let mut granted = Vec::new();
        loop {
            match sched.wait_decision() {
                Decision::Choose(runnable) => {
                    // Alternate: grant the lowest tid not granted last.
                    let pick = runnable
                        .iter()
                        .map(|&(t, _)| t)
                        .find(|&t| granted.last() != Some(&t))
                        .unwrap_or(runnable[0].0);
                    granted.push(pick);
                    sched.grant(pick);
                }
                Decision::AllDone => break,
                Decision::Deadlock(_) | Decision::Overflow => panic!("unexpected end"),
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::SeqCst), 22);
        let trace = sched.take_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(
            trace.iter().map(|s| s.tid).collect::<Vec<_>>(),
            granted,
            "steps execute in grant order"
        );
        assert!(sched.panics().is_empty());
    }

    #[test]
    fn worker_panic_is_captured() {
        let sched = Scheduler::new(1, 100);
        let a = Arc::new(AtomicU64::new(0));
        let h = {
            let a = Arc::clone(&a);
            sched.spawn_worker(0, move || {
                a.load(Ordering::SeqCst);
                panic!("boom");
            })
        };
        loop {
            match sched.wait_decision() {
                Decision::Choose(r) => sched.grant(r[0].0),
                Decision::AllDone => break,
                Decision::Deadlock(_) | Decision::Overflow => panic!("unexpected end"),
            }
        }
        h.join().unwrap();
        let panics = sched.panics();
        assert_eq!(panics.len(), 1);
        assert!(panics[0].1.contains("boom"));
    }

    #[test]
    fn step_cap_releases_workers() {
        let a = Arc::new(AtomicU64::new(0));
        let sched = Scheduler::new(1, 3);
        let h = {
            let a = Arc::clone(&a);
            sched.spawn_worker(0, move || {
                for _ in 0..100 {
                    a.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        loop {
            match sched.wait_decision() {
                Decision::Choose(r) => sched.grant(r[0].0),
                Decision::AllDone | Decision::Overflow => break,
                Decision::Deadlock(_) => panic!("unexpected deadlock"),
            }
        }
        h.join().unwrap();
        assert!(sched.overflowed());
        // The worker ran free after the cap and still completed its writes.
        assert_eq!(a.load(Ordering::SeqCst), 100);
    }
}
