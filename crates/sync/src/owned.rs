//! Thread-owned slots: the owning thread enters with plain stores, a remote
//! reader pays an asymmetric barrier.
//!
//! A per-thread table — the magazine cache's slots — is written almost only
//! by the one thread that maps to each entry.  A lock per entry makes every
//! such access run a locked instruction, and a locked instruction drains
//! the store buffer behind the caller's own recent stores, so synchronising
//! with nobody still costs.  [`OwnedSlots`] keeps the lock for the rare
//! access that can conflict and takes it off the owner's path with the
//! asymmetric Dekker pattern (C++ P1202's asymmetric fences, folly's
//! `asymmetricLightBarrier`): the owner pays a compiler fence, the remote a
//! `membarrier(2)` system call.
//!
//! # The claim rule
//!
//! A thread's token is [`thread_ordinal`]` + 1`; ordinals are never reused,
//! so no two threads ever hold the same token.  Its entry in a table of `n`
//! (a power of two) is `(token - 1) & (n - 1)`, the same entry
//! [`thread_stripe`] names; an entry reads the token once
//! (`ThreadToken::current`) and finds both from it.  The thread owns the
//! entry if the entry's owner word equals its token, or if a
//! `compare_exchange(0, token)` succeeds on first use (`Claim::hold`); it
//! gives the entry up with a store of 0 ([`OwnedSlots::release_mine`]).  A thread
//! whose entry another live thread holds uses the *shared* entry of the
//! same index instead — one per stripe, so threads crowded onto the table
//! (more live threads than entries, or entries still held by threads that
//! exited without giving them up) spread over as many shared entries as
//! there are stripes.  The same rule serves the cache's slots and
//! [`Grace`](crate::Grace)'s section counters (which need only the claim).
//!
//! # Entering a slot
//!
//! Each slot carries three flags besides its owner word:
//!
//! * **Owner entry** ([`OwnedSlots::with_mine`] on an owned slot):
//!   `busy.store(true, Relaxed); light(); if revoked.load(Acquire) {
//!   busy.store(false, Release); <locked entry> }`, and on the way out —
//!   unwinding included — `busy.store(false, Release)`.  No read-modify-write,
//!   no hardware fence.  [`OwnedSlots::try_mine`] is the same entry without
//!   the fallbacks: where `with_mine` would take a lock (a revoked slot, a
//!   stripe another thread holds) or panic (a nested entry), it returns
//!   `None` and runs nothing, so a caller can inline the owner's path and
//!   keep the rest out of line.
//! * **Locked entry** (a shared slot, and an owner that found its slot
//!   revoked): take the slot's lock.  Nobody enters such a slot without it:
//!   a shared slot has no owner, and a revoked owner is the only thread
//!   that could have entered its slot without the lock.
//! * **Remote entry** ([`OwnedSlots::for_each_slot`], for drains and
//!   read-outs): take every slot's lock in index order, set every slot's
//!   `revoked`, run **one** `heavy()` barrier, then slot by slot wait until
//!   its `busy` reads false, do the work and leave that slot: clear
//!   `revoked` and the lock, in that order (both Release), before going on
//!   to the next.  A remote revokes whether or not the slot has an
//!   owner, so claims and releases need no lock; and it waits out an owner
//!   preempted mid-entry with [`Backoff`].
//!
//! # Why it is exclusive
//!
//! The owner's entry is `O1: busy := true; O2: light(); O3: read revoked`,
//! the remote's `R2: revoked := true; R3: heavy(); R4: read busy`.  Under
//! `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`, when R3 returns every
//! other running thread of the process has executed a full memory barrier
//! between two of its instructions, after R2 was globally visible (the
//! call orders the caller's own accesses with a full barrier first), and a
//! thread that was not running passes one in the scheduler before it runs
//! again.  `light()` is a compiler fence, so O1 and O3 stay in program
//! order as emitted; the only reordering left is the hardware's store
//! buffer, which lets O3 complete before O1 is visible.  Where the owner's
//! barrier falls decides the outcome:
//!
//! * after O1: the barrier drains O1 to memory before R3 returns, so R4
//!   reads `true` (or a later value of `busy`) and the remote waits until it
//!   reads the owner's closing `false`;
//! * before O1 (so before O3): O3 runs after a barrier that followed R2, so
//!   it reads `revoked == true` and the owner backs off to the lock the
//!   remote holds.
//!
//! Either way the two never both proceed.  Every later owner entry places
//! its barrier point after R3 as well and backs off until the remote clears
//! `revoked`.  The data follows the flags: the owner's writes precede its
//! closing `busy` store (Release), which the remote's `busy` load
//! (Acquire) reads before it touches the slot; the remote's writes precede
//! its `revoked` clear and unlock (Release), which the owner's next
//! `revoked` load (Acquire) or lock acquisition reads.  A claim
//! (`compare_exchange`, Acquire) reads the previous owner's release store
//! (Release), so a new owner sees everything the previous one left.
//!
//! Where `membarrier` is not there or refuses registration, both halves are
//! `fence(SeqCst)`: the classic Dekker argument (two SeqCst fences order O1
//! against O3's read of R2, or R2 against R4's read of O1), correct at the
//! price of a full fence per owner entry.
//!
//! # Mode, decided once
//!
//! The first table built in the process asks the kernel
//! (`MEMBARRIER_CMD_QUERY`) and registers for private expedited barriers;
//! the answer holds for the life of the process and each table reads it
//! once when built.  There is no switch.  Registering from a process that
//! already runs several threads waits for one RCU grace period (7–13 ms on
//! a 2-vCPU VM), once.  A forked child inherits the mode but not the
//! registration: its first `heavy()` finds `EPERM` and registers again.
//!
//! # Invariants
//!
//! * One token per thread ([`thread_ordinal`] never answers another
//!   thread's id), so an owned slot has one fast-path user.
//! * Nothing inside a slot calls back into the table.  An owner entry
//!   nested in its own, by either path, would alias the slot, and a release
//!   from inside would let the next claimant in beside it: both panic, in
//!   every build, on a mark only the owner reads and writes (`inside`, a
//!   plain load and store of a line the entry writes anyway); a nested
//!   [`OwnedSlots::try_mine`] refuses on the same mark.  A locked or
//!   remote entry inside any entry waits on itself — a hang, as a nested
//!   spin lock always was, never an alias.  Callers keep re-entrant
//!   allocations out (the global shell's bypass latch does so for the
//!   cache, and its inlined hit and park, which enter through `try_mine`,
//!   allocate nothing).
//!
//! Under `--cfg nbbs_model` the flags and the owner word are
//! [`crate::shadow`] atomics and every spin-wait is a
//! [`crate::shadow::spin_wait`], so `nbbs-model` can enumerate the
//! hand-over's interleavings.  That checker runs under sequential
//! consistency, where the light/heavy pair is invisible: it checks the
//! protocol, not the barrier; the pair is argued above.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{compiler_fence, fence, AtomicU8, Ordering};

#[cfg(nbbs_model)]
use crate::shadow::{AtomicBool, AtomicUsize};
#[cfg(not(nbbs_model))]
use std::sync::atomic::{AtomicBool, AtomicUsize};

use crate::{thread_ordinal, thread_stripe, Backoff, CachePadded};

/// The calling thread's claim token: its [`thread_ordinal`] plus one, so
/// that 0 can mean "unclaimed".
#[inline]
fn thread_token() -> usize {
    thread_ordinal() + 1
}

/// The calling thread's claim token, read once per entry and handed both to
/// the stripe lookup ([`ThreadToken::stripe`]) and to the claim
/// ([`Claim::hold`]), so an entry reads the thread-local ordinal once.
///
/// Only [`ThreadToken::current`] makes one, and it cannot leave the thread
/// (it is neither `Send` nor `Sync`): a token always names the thread that
/// holds it, which is what makes a claim an identity.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ThreadToken {
    token: usize,
    _this_thread: PhantomData<*const ()>,
}

impl ThreadToken {
    /// The calling thread's token.
    #[inline]
    pub(crate) fn current() -> Self {
        ThreadToken {
            token: thread_token(),
            _this_thread: PhantomData,
        }
    }

    /// The thread's entry in a table of `len` stripes (`len` a power of
    /// two): the entry [`thread_stripe`] names.
    #[inline]
    pub(crate) fn stripe(self, len: usize) -> usize {
        debug_assert!(len.is_power_of_two());
        (self.token - 1) & (len - 1)
    }
}

/// The owner word of a claimable entry: 0 while free, otherwise the
/// claim token (ordinal plus one) of the thread that claimed it.
#[derive(Debug, Default)]
pub(crate) struct Claim {
    owner: AtomicUsize,
}

impl Claim {
    /// An unclaimed entry.
    pub(crate) const fn new() -> Self {
        Claim {
            owner: AtomicUsize::new(0),
        }
    }

    /// Whether the thread `me` names — the calling thread — holds this
    /// entry, claiming it first if nobody does.  Once held it is one
    /// relaxed load of a word only the holder writes; an entry another live
    /// thread holds costs the same load and no write.
    #[inline]
    pub(crate) fn hold(&self, me: ThreadToken) -> bool {
        let token = me.token;
        match self.owner.load(Ordering::Relaxed) {
            held if held == token => true,
            0 => self
                .owner
                .compare_exchange(0, token, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            _ => false,
        }
    }

    /// Whether the calling thread holds this entry, without claiming it.
    fn held(&self) -> bool {
        self.owner.load(Ordering::Relaxed) == thread_token()
    }

    /// Gives the entry up if the thread `me` names holds it.
    #[cfg_attr(nbbs_model, allow(dead_code))]
    pub(crate) fn release(&self, me: ThreadToken) {
        if self.owner.load(Ordering::Relaxed) == me.token {
            self.owner.store(0, Ordering::Release);
        }
    }

    /// Whether any thread holds this entry.
    #[cfg(all(test, not(nbbs_model)))]
    pub(crate) fn is_held(&self) -> bool {
        self.owner.load(Ordering::Relaxed) != 0
    }
}

/// The two halves of the asymmetric barrier (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Barrier {
    /// `light` is a compiler fence, `heavy` is
    /// `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`.
    Asymmetric,
    /// Both halves are `fence(SeqCst)`.
    Symmetric,
}

/// The process's barrier mode: 0 until the first table asked.
static MODE: AtomicU8 = AtomicU8::new(0);
const MODE_ASYMMETRIC: u8 = 1;
const MODE_SYMMETRIC: u8 = 2;

impl Barrier {
    /// The process's mode: the first call asks the kernel and registers,
    /// every later one reads the answer.  Two threads racing the first call
    /// both register, which the kernel takes as one.
    pub(crate) fn process() -> Barrier {
        let mut mode = MODE.load(Ordering::Relaxed);
        if mode == 0 {
            mode = if membarrier::register() {
                MODE_ASYMMETRIC
            } else {
                MODE_SYMMETRIC
            };
            MODE.store(mode, Ordering::Relaxed);
        }
        if mode == MODE_ASYMMETRIC {
            Barrier::Asymmetric
        } else {
            Barrier::Symmetric
        }
    }

    /// The owner's half.
    #[inline(always)]
    fn light(self) {
        match self {
            Barrier::Asymmetric => compiler_fence(Ordering::SeqCst),
            Barrier::Symmetric => fence(Ordering::SeqCst),
        }
    }

    /// The remote's half.
    pub(crate) fn heavy(self) {
        match self {
            Barrier::Asymmetric => membarrier::private_expedited(),
            Barrier::Symmetric => fence(Ordering::SeqCst),
        }
    }
}

/// The `membarrier(2)` calls, through libc's `syscall` (std links libc
/// already).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod membarrier {
    use std::os::raw::{c_int, c_long};

    #[cfg(target_arch = "x86_64")]
    const SYS_MEMBARRIER: c_long = 324;
    #[cfg(target_arch = "aarch64")]
    const SYS_MEMBARRIER: c_long = 283;

    const CMD_QUERY: c_int = 0;
    const CMD_PRIVATE_EXPEDITED: c_int = 1 << 3;
    const CMD_REGISTER_PRIVATE_EXPEDITED: c_int = 1 << 4;
    const EPERM: i32 = 1;

    extern "C" {
        fn syscall(number: c_long, ...) -> c_long;
    }

    fn membarrier(cmd: c_int) -> c_long {
        // SAFETY: membarrier(cmd, flags = 0, cpu_id = 0) reads and writes
        // no user memory; an unknown command fails with EINVAL.
        unsafe { syscall(SYS_MEMBARRIER, cmd, 0 as c_int, 0 as c_int) }
    }

    /// Whether the kernel offers private expedited barriers and took this
    /// process's registration for them.
    pub(super) fn register() -> bool {
        let supported = membarrier(CMD_QUERY);
        supported >= 0
            && supported & c_long::from(CMD_PRIVATE_EXPEDITED) != 0
            && membarrier(CMD_REGISTER_PRIVATE_EXPEDITED) == 0
    }

    /// One heavy barrier.  `EPERM` means this process is not registered —
    /// a forked child of one that was — so it registers once and retries.
    /// Owners rely on this call for exclusion, so a barrier that cannot be
    /// had ends the process rather than let two threads into one slot.
    pub(super) fn private_expedited() {
        if membarrier(CMD_PRIVATE_EXPEDITED) == 0 {
            return;
        }
        let unregistered = std::io::Error::last_os_error().raw_os_error() == Some(EPERM);
        if unregistered && register() && membarrier(CMD_PRIVATE_EXPEDITED) == 0 {
            return;
        }
        std::process::abort();
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod membarrier {
    pub(super) fn register() -> bool {
        false
    }

    pub(super) fn private_expedited() {
        unreachable!("the asymmetric mode is only chosen where membarrier exists")
    }
}

/// One slot: the owner word, the three flags, the owner's own mark and the
/// data.
struct Slot<T> {
    /// On a line of its own: threads crowded onto the stripe read it on
    /// every entry, and beside the flags and data the owner writes on every
    /// entry each read would pull the owner's line away from it.
    claim: CachePadded<Claim>,
    /// True while the owner is inside through the owner entry.
    busy: AtomicBool,
    /// True while a remote holds the lock: owner entries back off to it.
    revoked: AtomicBool,
    /// The lock of every entry but the owner's.
    locked: AtomicBool,
    /// True while the owner is inside by either path.  Only the thread
    /// holding the claim reads or writes it (a claim hands it over with the
    /// rest of the slot), so it is a `std` atomic under the model too:
    /// there is nothing to interleave.
    inside: std::sync::atomic::AtomicBool,
    data: UnsafeCell<T>,
}

/// One round of a spin-wait on the flag the caller just read.
#[inline]
pub(crate) fn snooze(backoff: &Backoff) {
    #[cfg(not(nbbs_model))]
    backoff.snooze();
    #[cfg(nbbs_model)]
    {
        let _ = backoff;
        crate::shadow::spin_wait();
    }
}

impl<T> Slot<T> {
    fn new(data: T) -> Self {
        Slot {
            claim: CachePadded::new(Claim::new()),
            busy: AtomicBool::new(false),
            revoked: AtomicBool::new(false),
            locked: AtomicBool::new(false),
            inside: std::sync::atomic::AtomicBool::new(false),
            data: UnsafeCell::new(data),
        }
    }

    fn lock(&self) {
        let backoff = Backoff::new();
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            snooze(&backoff);
            while self.locked.load(Ordering::Relaxed) {
                snooze(&backoff);
            }
        }
    }

    /// Ends a remote's hold on the slot: `revoked` first, then the lock
    /// (both Release, so the next entrant sees what the remote wrote).
    fn reopen(&self) {
        self.revoked.store(false, Ordering::Release);
        self.locked.store(false, Ordering::Release);
    }

    /// Runs `f` on the data under the lock.
    fn with_locked<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.lock();
        let _unlock = Clears(&self.locked);
        // SAFETY: the lock is held, and the only entry that skips the lock
        // (the owner's) backs off while a lock holder could be inside: a
        // shared slot has no owner, and an owner takes this path itself
        // only after giving up its owner entry.
        f(unsafe { &mut *self.data.get() })
    }
}

/// Stores `false` (Release) into a flag when dropped: the end of an entry,
/// on unwind too.
struct Clears<'a>(&'a AtomicBool);

impl Drop for Clears<'_> {
    #[inline]
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// The owner's mark that it is inside its slot, set for the whole entry by
/// either path and cleared on the way out, unwinding included.
struct Inside<'a>(&'a std::sync::atomic::AtomicBool);

impl<'a> Inside<'a> {
    /// Sets the mark.  The caller has read it clear: a nested entry is
    /// refused before it touches anything, so the entry it is nested in
    /// stays intact.
    #[inline]
    fn enter(mark: &'a std::sync::atomic::AtomicBool) -> Self {
        mark.store(true, Ordering::Relaxed);
        Inside(mark)
    }
}

impl Drop for Inside<'_> {
    #[inline]
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// Why an owner entry did not run its closure, with the closure and the
/// stripe when [`OwnedSlots::with_mine`] still runs it elsewhere.
enum Refused<F> {
    /// Another live thread holds the stripe's slot.
    Held(F, usize),
    /// The thread is inside an entry of its slot already.
    Nested,
    /// A remote holds the slot: its lock is the way in.
    Revoked(F, usize),
}

/// A table of thread-owned slots, each with a shared slot beside it.
///
/// A thread reaches its slot with [`OwnedSlots::with_mine`]: the slot the
/// [claim rule](crate::owned#the-claim-rule) gives it, entered with plain stores
/// once claimed, or — when another live thread holds that slot — the
/// shared slot of the same stripe under its lock.  Drains and read-outs
/// reach every slot at once with [`OwnedSlots::for_each_slot`], which pays
/// the heavy barrier once per call.  See the module docs for the protocol
/// and why it is exclusive.
pub struct OwnedSlots<T> {
    slots: Box<[CachePadded<Slot<T>>]>,
    /// Per stripe, the slot of threads whose own slot another thread holds;
    /// never claimed, so only ever entered under its lock.
    shared: Box<[CachePadded<Slot<T>>]>,
    barrier: Barrier,
    /// Mutation hook for `nbbs-model`'s witness: owners ignore `revoked`.
    #[cfg(nbbs_model)]
    skip_revoked_check: bool,
}

// SAFETY: the data of a slot is reached only through an entry, and the
// entries are mutually exclusive (module docs), so sharing the table
// shares exclusive access to one `T` at a time between threads — sound
// when `T` may move between threads.
unsafe impl<T: Send> Sync for OwnedSlots<T> {}
// SAFETY: the table owns its `T`s; moving it moves them.
unsafe impl<T: Send> Send for OwnedSlots<T> {}

impl<T> OwnedSlots<T> {
    /// A table of `slots` thread slots (rounded up to a power of two) and
    /// as many shared ones, each built by `init`, in the process's barrier
    /// mode.
    pub fn new(slots: usize, init: impl FnMut() -> T) -> Self {
        Self::with_barrier(slots, init, Barrier::process())
    }

    /// [`OwnedSlots::new`] in the given barrier mode.
    pub(crate) fn with_barrier(
        slots: usize,
        mut init: impl FnMut() -> T,
        barrier: Barrier,
    ) -> Self {
        let slots = slots.max(1).next_power_of_two();
        let mut table = || -> Box<[CachePadded<Slot<T>>]> {
            (0..slots)
                .map(|_| CachePadded::new(Slot::new(init())))
                .collect()
        };
        OwnedSlots {
            slots: table(),
            shared: table(),
            barrier,
            #[cfg(nbbs_model)]
            skip_revoked_check: false,
        }
    }

    /// The number of thread slots (the shared slots not counted).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Runs `f` on the calling thread's slot, with the thread's stripe (its
    /// index in the table, whichever slot it entered).
    ///
    /// If the thread holds its slot, or claims it now, this is the owner
    /// entry: plain stores, no read-modify-write, no hardware fence in the
    /// asymmetric mode.  Otherwise `f` runs on the stripe's shared slot
    /// under its lock, and an owner whose slot a remote revoked runs `f` on
    /// its own slot under the lock; both are out of line.  `f` must not
    /// call back into the table: an owner entry nested in another panics,
    /// a locked or remote one hangs.
    #[inline]
    pub fn with_mine<R>(&self, f: impl FnOnce(usize, &mut T) -> R) -> R {
        match self.enter_mine(f) {
            Ok(out) => out,
            Err(refused) => self.refused(refused),
        }
    }

    /// The owner entry alone: `f`'s result if the calling thread holds its
    /// slot (or claims it now) and a remote has not revoked it, `None`
    /// otherwise — for a thread whose stripe another live thread holds, for
    /// an entry nested in one of the same slot, and for a revoked slot —
    /// with `f` not run.  It never takes a lock and never waits.
    #[inline]
    pub fn try_mine<R>(&self, f: impl FnOnce(usize, &mut T) -> R) -> Option<R> {
        self.enter_mine(f).ok()
    }

    /// The owner entry (module docs), the one place its protocol is
    /// written: `Ok` with `f`'s result, or `f` handed back, not run, with
    /// the reason.
    #[inline(always)]
    fn enter_mine<R, F: FnOnce(usize, &mut T) -> R>(&self, f: F) -> Result<R, Refused<F>> {
        let me = ThreadToken::current();
        let stripe = me.stripe(self.slots.len());
        let slot = &self.slots[stripe];
        if !slot.claim.hold(me) {
            return Err(Refused::Held(f, stripe));
        }
        if slot.inside.load(Ordering::Relaxed) {
            return Err(Refused::Nested);
        }
        let _inside = Inside::enter(&slot.inside);
        slot.busy.store(true, Ordering::Relaxed);
        self.barrier.light();
        let revoked = slot.revoked.load(Ordering::Acquire);
        #[cfg(nbbs_model)]
        let revoked = revoked && !self.skip_revoked_check;
        if revoked {
            slot.busy.store(false, Ordering::Release);
            return Err(Refused::Revoked(f, stripe));
        }
        let _leave = Clears(&slot.busy);
        // SAFETY: `busy` is set and `revoked` read false after the barrier,
        // so no remote is inside and none enters before `_leave` clears
        // `busy` (module docs); only this thread holds the slot's token and
        // `_inside` proves it is in no other entry of the slot, so no other
        // owner entry exists, and the claim cannot pass to another thread
        // before `_inside` ends (`release_mine` refuses); lock holders
        // other than remotes never enter an owned slot.
        Ok(f(stripe, unsafe { &mut *slot.data.get() }))
    }

    /// [`OwnedSlots::with_mine`] past a refused owner entry: the stripe's
    /// shared slot under its lock, the thread's own slot under its lock
    /// while a remote holds it, or the panic of a nested entry.
    #[cold]
    #[inline(never)]
    fn refused<R, F: FnOnce(usize, &mut T) -> R>(&self, refused: Refused<F>) -> R {
        match refused {
            Refused::Held(f, stripe) => self.shared[stripe].with_locked(|data| f(stripe, data)),
            Refused::Nested => panic!("an owner entered its own slot twice"),
            Refused::Revoked(f, stripe) => {
                let slot = &self.slots[stripe];
                let _inside = Inside::enter(&slot.inside);
                slot.with_locked(|data| f(stripe, data))
            }
        }
    }

    /// Runs `f` on the calling thread's shared slot under its lock,
    /// whether or not the thread owns its slot.  A thread that used the
    /// shared slot while its own was held, and claimed its own once the
    /// holder gave it up, may have left something there; this is how its
    /// exit reaches it.
    pub fn with_shared<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.shared[thread_stripe(self.slots.len())].with_locked(f)
    }

    /// Gives up the calling thread's slot if it holds it, so a later thread
    /// mapping there can own it.  What the slot holds stays; the caller
    /// empties it first if it should not.  Panics if called from inside an
    /// entry of that slot: the next claimant would enter beside the caller.
    pub fn release_mine(&self) {
        let slot = &self.slots[thread_stripe(self.slots.len())];
        if slot.claim.held() {
            assert!(
                !slot.inside.load(Ordering::Relaxed),
                "an owner gave its slot up from inside it"
            );
            slot.claim.owner.store(0, Ordering::Release);
        }
    }

    /// Every slot in the one order every remote locks them in: the thread
    /// slots by index, then the shared ones.
    fn all(&self) -> impl Iterator<Item = &Slot<T>> {
        self.slots.iter().chain(self.shared.iter()).map(|s| &**s)
    }

    /// Runs `f` on every slot, the thread slots in index order and then the
    /// shared ones, as a remote: lock all, revoke all, one heavy barrier,
    /// then slot by slot wait the owner out, run `f`, reopen the slot.  For
    /// drains and read-outs — not per operation, and never from inside an
    /// entry.
    pub fn for_each_slot(&self, mut f: impl FnMut(&mut T)) {
        for slot in self.all() {
            slot.lock();
            slot.revoked.store(true, Ordering::Relaxed);
        }
        let mut reopen = Reopen {
            table: self,
            done: 0,
        };
        self.barrier.heavy();
        for slot in self.all() {
            let backoff = Backoff::new();
            while slot.busy.load(Ordering::Acquire) {
                snooze(&backoff);
            }
            // SAFETY: this thread holds the slot's lock and has revoked it
            // and read `busy` false after the heavy barrier, so the owner
            // is out and backs off to the lock until `reopen` clears
            // `revoked` (module docs).
            f(unsafe { &mut *slot.data.get() });
            slot.reopen();
            reopen.done += 1;
        }
    }

    /// Witness hook for `nbbs-model`: owner entries ignore `revoked`.
    #[cfg(nbbs_model)]
    pub fn with_skipped_revoked_check(mut self) -> Self {
        self.skip_revoked_check = true;
        self
    }

    /// Cell addresses with names, for model-checker witness traces.
    #[cfg(nbbs_model)]
    pub fn model_addr_labels(&self) -> Vec<(usize, String)> {
        let named = |slot: &Slot<T>, name: String| {
            [
                (slot.claim.owner.model_addr(), format!("{name}.owner")),
                (slot.busy.model_addr(), format!("{name}.busy")),
                (slot.revoked.model_addr(), format!("{name}.revoked")),
                (slot.locked.model_addr(), format!("{name}.locked")),
            ]
        };
        let n = self.slots.len();
        self.all()
            .enumerate()
            .flat_map(|(i, slot)| match i.checked_sub(n) {
                None => named(slot, format!("slot[{i}]")),
                Some(i) => named(slot, format!("shared[{i}]")),
            })
            .collect()
    }
}

/// Ends a remote entry slot by slot, each as soon as the remote is done
/// with it, and on unwind every slot it has not reached: clears `revoked`,
/// then the lock.  An owner is held off for its own slot's turn, not for
/// the whole walk.
struct Reopen<'a, T> {
    table: &'a OwnedSlots<T>,
    /// Slots already reopened, in [`OwnedSlots::all`] order.
    done: usize,
}

impl<T> Drop for Reopen<'_, T> {
    fn drop(&mut self) {
        for slot in self.table.all().skip(self.done) {
            slot.reopen();
        }
    }
}

impl<T> std::fmt::Debug for OwnedSlots<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OwnedSlots")
            .field("slots", &self.slots.len())
            .field("barrier", &self.barrier)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    const MODES: [Barrier; 2] = [Barrier::Asymmetric, Barrier::Symmetric];

    /// The asymmetric mode where the kernel has it, else the fence one
    /// twice: a table built in a mode the process could not register
    /// would have no heavy barrier to call.
    fn modes() -> impl Iterator<Item = Barrier> {
        let process = Barrier::process();
        MODES
            .into_iter()
            .map(move |m| if m == Barrier::Asymmetric { process } else { m })
    }

    /// Slot data whose fields a torn entry would show: `a == b` always
    /// holds inside an entry that is alone.
    #[derive(Default)]
    struct Pair {
        a: u64,
        b: u64,
    }

    #[test]
    fn a_thread_claims_its_stripe_once_and_keeps_it() {
        for barrier in modes() {
            let slots = OwnedSlots::with_barrier(4, || 0u64, barrier);
            let me = thread_stripe(slots.slot_count());
            for _ in 0..3 {
                slots.with_mine(|stripe, n| {
                    assert_eq!(stripe, me);
                    *n += 1;
                });
            }
            assert_eq!(
                slots.slots[me].claim.owner.load(Ordering::Relaxed),
                thread_token()
            );
            let mut seen = Vec::new();
            slots.for_each_slot(|n| seen.push(*n));
            assert_eq!(seen.len(), 8, "four thread slots and four shared ones");
            assert_eq!(seen[me], 3);
            assert_eq!(seen.iter().sum::<u64>(), 3, "nothing went elsewhere");
            slots.release_mine();
            assert_eq!(slots.slots[me].claim.owner.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn a_thread_whose_slot_is_held_uses_the_shared_one() {
        for barrier in modes() {
            // One slot: the first thread holds it, the second lands in the
            // shared slot.
            let slots = Arc::new(OwnedSlots::with_barrier(1, || 0u64, barrier));
            slots.with_mine(|_, n| *n += 1);
            let other = Arc::clone(&slots);
            std::thread::spawn(move || other.with_mine(|_, n| *n += 10))
                .join()
                .unwrap();
            let mut seen = Vec::new();
            slots.for_each_slot(|n| seen.push(*n));
            assert_eq!(seen, [1, 10]);
        }
    }

    /// Threads that exit without giving their slot up leave it held; the
    /// later threads mapping to each stripe crowd that stripe's own shared
    /// slot, not one slot for the whole table.
    #[test]
    fn crowded_stripes_spread_over_their_own_shared_slots() {
        const THREADS: usize = 12;
        let slots = Arc::new(OwnedSlots::new(4, || 0u64));
        let mut per_stripe = [0u64; 4];
        for _ in 0..THREADS {
            let slots = Arc::clone(&slots);
            let stripe = std::thread::spawn(move || {
                slots.with_mine(|stripe, n| {
                    *n += 1;
                    stripe
                })
            })
            .join()
            .unwrap();
            per_stripe[stripe] += 1;
        }
        let mut seen = Vec::new();
        slots.for_each_slot(|n| seen.push(*n));
        let (owned, shared) = seen.split_at(4);
        for (stripe, &threads) in per_stripe.iter().enumerate() {
            assert_eq!(owned[stripe], threads.min(1), "the first one owns it");
            assert_eq!(shared[stripe], threads.saturating_sub(1), "{seen:?}");
        }
    }

    #[test]
    #[should_panic(expected = "an owner entered its own slot twice")]
    fn an_owner_entry_nested_in_its_own_panics() {
        let slots = OwnedSlots::new(1, || 0u64);
        slots.with_mine(|_, a| slots.with_mine(|_, b| *a += *b));
    }

    /// The owner that found its slot revoked runs under the lock, with
    /// `busy` clear; a nested entry must not take that for "out".
    #[test]
    #[should_panic(expected = "an owner entered its own slot twice")]
    fn an_owner_entry_nested_in_its_locked_fallback_panics() {
        let slots = OwnedSlots::new(1, || 0u64);
        slots.with_mine(|_, _| {});
        slots.slots[0].revoked.store(true, Ordering::Relaxed);
        slots.with_mine(|_, a| {
            slots.slots[0].revoked.store(false, Ordering::Relaxed);
            slots.with_mine(|_, b| *a += *b)
        });
    }

    #[test]
    #[should_panic(expected = "an owner gave its slot up from inside it")]
    fn a_release_from_inside_the_slot_panics() {
        let slots = OwnedSlots::new(1, || 0u64);
        slots.with_mine(|_, _| slots.release_mine());
    }

    /// `try_mine` runs nothing on a stripe another live thread holds: no
    /// shared slot, no lock.
    #[test]
    fn try_mine_refuses_a_stripe_another_live_thread_holds() {
        for barrier in modes() {
            let slots = Arc::new(OwnedSlots::with_barrier(1, || 0u64, barrier));
            assert_eq!(slots.try_mine(|_, n| std::mem::replace(n, 1)), Some(0));
            let other = Arc::clone(&slots);
            let refused = std::thread::spawn(move || other.try_mine(|_, n| *n += 10).is_none())
                .join()
                .unwrap();
            assert!(refused, "{barrier:?}");
            let mut seen = Vec::new();
            slots.for_each_slot(|n| seen.push(*n));
            assert_eq!(seen, [1, 0], "nothing ran, in either slot");
        }
    }

    /// Nested in an entry of its own slot, by either entry, `try_mine`
    /// refuses where `with_mine` panics, and leaves the outer entry intact.
    #[test]
    fn try_mine_refuses_an_entry_nested_in_its_own() {
        let slots = OwnedSlots::new(1, || 0u64);
        let nested = slots.with_mine(|_, n| {
            *n += 1;
            slots.try_mine(|_, m| *m += 10)
        });
        assert_eq!(nested, None);
        let nested = slots.try_mine(|_, n| {
            *n += 1;
            slots.try_mine(|_, m| *m += 10)
        });
        assert_eq!(nested, Some(None));
        assert_eq!(slots.try_mine(|_, n| *n), Some(2), "usable afterwards");
    }

    /// While a remote's `for_each_slot` holds the slot, the owner's
    /// `try_mine` refuses instead of waiting for the lock; once the remote
    /// reopened the slot it enters again and sees the remote's write.
    #[test]
    fn try_mine_refuses_a_slot_a_remote_holds() {
        for barrier in modes() {
            let slots = Arc::new(OwnedSlots::with_barrier(1, || 0u64, barrier));
            assert_eq!(slots.try_mine(|_, n| *n), Some(0), "claimed");
            let (inside, inside_rx) = std::sync::mpsc::channel();
            let (done, done_rx) = std::sync::mpsc::channel::<()>();
            let remote = {
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || {
                    let mut first = true;
                    slots.for_each_slot(|n| {
                        if std::mem::take(&mut first) {
                            inside.send(()).unwrap();
                            done_rx.recv().unwrap();
                            *n += 100;
                        }
                    });
                })
            };
            inside_rx.recv().unwrap();
            assert_eq!(slots.try_mine(|_, n| *n += 1), None, "{barrier:?}");
            done.send(()).unwrap();
            remote.join().unwrap();
            assert_eq!(slots.try_mine(|_, n| *n), Some(100), "{barrier:?}");
        }
    }

    /// The nested entry's panic leaves the outer one's marks to its own
    /// guards: afterwards the slot is owned, out and usable.
    #[test]
    fn a_refused_nested_entry_leaves_the_slot_usable() {
        let slots = OwnedSlots::new(1, || 0u64);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slots.with_mine(|_, a| {
                *a += 1;
                slots.with_mine(|_, b| *b += 1)
            })
        }));
        assert!(caught.is_err());
        slots.with_mine(|_, n| *n += 10);
        let mut total = 0;
        slots.for_each_slot(|n| total += *n);
        assert_eq!(total, 11);
    }

    /// Owners increment their own slot in a tight loop while a remote
    /// keeps reading every slot and taking what it finds: each increment
    /// lands exactly once, and no read ever sees a slot mid-update.
    #[test]
    fn owner_increments_survive_a_remote_that_reads_and_takes() {
        const OWNERS: usize = 3;
        const ROUNDS: u64 = 20_000;
        for barrier in modes() {
            let slots = Arc::new(OwnedSlots::with_barrier(8, Pair::default, barrier));
            let done = Arc::new(AtomicU64::new(0));
            let owners: Vec<_> = (0..OWNERS)
                .map(|_| {
                    let (slots, done) = (Arc::clone(&slots), Arc::clone(&done));
                    std::thread::spawn(move || {
                        for _ in 0..ROUNDS {
                            slots.with_mine(|_, p| {
                                p.a += 1;
                                std::hint::black_box(&mut *p);
                                p.b += 1;
                            });
                        }
                        done.fetch_add(1, Ordering::Release);
                    })
                })
                .collect();
            let mut taken = 0u64;
            let mut reads = 0u64;
            while done.load(Ordering::Acquire) < OWNERS as u64 || reads < 4 {
                let take = reads.is_multiple_of(2);
                slots.for_each_slot(|p| {
                    assert_eq!(p.a, p.b, "a read-out saw a slot mid-entry");
                    if take {
                        taken += p.a;
                        *p = Pair::default();
                    }
                });
                reads += 1;
            }
            for h in owners {
                h.join().unwrap();
            }
            slots.for_each_slot(|p| taken += p.a);
            assert_eq!(taken, OWNERS as u64 * ROUNDS, "{barrier:?}");
        }
    }

    /// Threads come and go over fewer slots than they are: each exits
    /// after releasing its slot, the next one mapping there claims it, and
    /// whoever finds its slot held uses the shared one.  Nothing is lost.
    #[test]
    fn claims_and_releases_under_thread_churn() {
        const WAVES: usize = 6;
        const PER_WAVE: usize = 5;
        const ROUNDS: u64 = 2_000;
        for barrier in modes() {
            let slots = Arc::new(OwnedSlots::with_barrier(2, Pair::default, barrier));
            let reading = Arc::new(AtomicU64::new(1));
            let reader = {
                let (slots, reading) = (Arc::clone(&slots), Arc::clone(&reading));
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while reading.load(Ordering::Acquire) == 1 {
                        slots.for_each_slot(|p| assert_eq!(p.a, p.b));
                        reads += 1;
                    }
                    reads
                })
            };
            for _ in 0..WAVES {
                let wave: Vec<_> = (0..PER_WAVE)
                    .map(|_| {
                        let slots = Arc::clone(&slots);
                        std::thread::spawn(move || {
                            for _ in 0..ROUNDS {
                                slots.with_mine(|_, p| {
                                    p.a += 1;
                                    p.b += 1;
                                });
                            }
                            slots.release_mine();
                        })
                    })
                    .collect();
                for h in wave {
                    h.join().unwrap();
                }
            }
            reading.store(0, Ordering::Release);
            assert!(reader.join().unwrap() > 0);
            let mut total = 0;
            slots.for_each_slot(|p| total += p.a);
            assert_eq!(total, (WAVES * PER_WAVE) as u64 * ROUNDS, "{barrier:?}");
            for slot in slots.slots.iter() {
                assert_eq!(
                    slot.claim.owner.load(Ordering::Relaxed),
                    0,
                    "every exited thread released its slot"
                );
            }
        }
    }

    #[test]
    fn a_panic_inside_an_entry_leaves_the_slot_usable() {
        for barrier in modes() {
            let slots = OwnedSlots::with_barrier(1, || 0u64, barrier);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                slots.with_mine(|_, _| panic!("inside"));
            }));
            assert!(unwound.is_err());
            // A read-out that panics in the thread slot (nothing reopened
            // yet) and one that panics in the shared slot (the thread slot
            // already reopened).
            for at in 0..2 {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut visits = 0;
                    slots.for_each_slot(|_| {
                        assert_ne!(visits, at, "inside a read-out");
                        visits += 1;
                    });
                }));
                assert!(caught.is_err());
            }
            // Neither `busy` nor a lock or a revocation was left behind.
            slots.with_mine(|_, n| *n += 1);
            let mut total = 0;
            slots.for_each_slot(|n| total += *n);
            assert_eq!(total, 1);
        }
    }

    #[test]
    fn the_mode_is_decided_once() {
        let first = Barrier::process();
        assert_eq!(Barrier::process(), first);
        assert_ne!(MODE.load(Ordering::Relaxed), 0);
        assert_eq!(OwnedSlots::new(1, || ()).barrier, first);
    }
}
