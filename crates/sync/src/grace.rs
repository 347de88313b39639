//! Waiting out the sections in flight: a grace period for one structure.
//!
//! A thread that changes memory behind the back of the atomics other
//! threads are using (the trees give the pages of their node words back to
//! the kernel under a scrub run) may need to know that every operation that
//! could have touched that memory before the change has finished.
//! [`Grace`] tracks such operations as *sections*: a thread wraps each one
//! in [`Grace::enter`], and [`Turn::wait_out`] returns once every section
//! that began before it was called has ended.  Sections never wait, so the
//! operations they wrap keep their progress guarantee; only `wait_out`
//! blocks, and only on sections already running.
//!
//! # The owner's section
//!
//! The table has [`STRIPES`] entries, claimed by the [claim
//! rule](crate::owned#the-claim-rule).  A thread done with the tables gives
//! its entry up in every live table at once ([`Grace::release_mine`]; the
//! tables are listed process-wide as they are built): the magazine
//! cache's per-thread drain does so at thread exit, and a thread that
//! enters again claims again.  The thread holding its entry counts
//! its sections in `seq`, a word only it writes: `seq` is odd while it is
//! inside one.  Entering is `seq := seq + 1; light()`, leaving is
//! `seq := seq + 1` (Release): no read-modify-write and no hardware fence.
//! `wait_out` runs `heavy()` and then waits, entry by entry, until an odd
//! `seq` it read has changed.  The argument is the one
//! [`crate::OwnedSlots`] makes for its owner entry: when `heavy()` returns,
//! every other thread of the process has passed a full barrier since the
//! caller's earlier stores became visible.  If an owner's barrier point lies
//! after its odd store, `wait_out` reads the odd value and waits for the
//! section to end.  If it lies before, every access of the section comes
//! after the barrier and so after whatever the caller did before
//! `wait_out`: the section never saw the old memory.  An entry changes
//! hands only between sections: the release store follows the owner's last
//! `seq` store, and the next claim's `compare_exchange` (Acquire) reads it,
//! so the new owner counts on from the old one's even `seq`.
//!
//! That needs the asymmetric barrier (`membarrier(2)`), so a table whose
//! process has none cannot wait sections out: [`Grace::can_wait`] says so
//! before the caller changes anything, and the owner's section stays a
//! compiler fence either way.  The barrier mode is asked for (and the
//! process registered) on the first `can_wait`, not when a table is built.
//!
//! # Everyone else's section
//!
//! A thread whose entry another thread holds, live or exited, counts its
//! section in the entry's `shared` pair instead, by the parity of the
//! table's `epoch`: it increments `shared[epoch & 1]`, reads `epoch` again,
//! and backs out and retries if it moved.  `wait_out` moves `epoch` on and
//! waits until the old parity's count reads 0, so sections that begin
//! afterwards, which count under the new parity, cannot hold it up.  These
//! are sequentially consistent read-modify-writes, fences in their own
//! right.  Only the holder of the table's [`Turn`] waits, so the parity a
//! call waits on is never the one new sections count under.  The turn also
//! serves the caller: what it publishes before waiting (the range a scrub
//! run closes) stays its own until the turn drops.
//!
//! Under `--cfg nbbs_model` the counters are [`crate::shadow`] atomics and
//! the waits park in [`crate::shadow::spin_wait`].  Each scheduled worker
//! then owns the entry of its logical id and an unscheduled thread (a
//! config's setup) the last one, with no claim: the claim rule is
//! `OwnedSlots`' and is checked there, and the model's workers, started
//! afresh for every schedule, would otherwise draw ordinals that collide
//! on some schedules and not on others.  Under sequential consistency the
//! barrier pair is invisible; the configs check the waiting.

use std::sync::atomic::{compiler_fence, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

#[cfg(nbbs_model)]
use crate::shadow::AtomicUsize;
#[cfg(not(nbbs_model))]
use std::sync::atomic::AtomicUsize;

use crate::owned::{snooze, Barrier};
use crate::owned::{Claim, ThreadToken};
use crate::{Backoff, CachePadded};

/// Entries per table (a power of two, as the claim rule asks).
pub const STRIPES: usize = 16;

/// A table's entries.
type Stripes = [CachePadded<Stripe>];

/// Every table built, so a thread can give its entries up in all of them.
static TABLES: Mutex<Vec<Weak<Stripes>>> = Mutex::new(Vec::new());

/// One entry: the claim, the owner's count and the others' pair.
#[derive(Default)]
struct Stripe {
    #[cfg_attr(nbbs_model, allow(dead_code))]
    claim: Claim,
    /// Sections the owner began and ended: odd while it is inside one.
    /// Only the owner writes it.
    seq: AtomicUsize,
    /// Sections in flight of threads that do not hold the entry, by the
    /// parity of the epoch they began under.
    shared: [AtomicUsize; 2],
}

/// A table of per-thread section counters (see the [module docs](self)).
///
/// The entries are on the heap: a table sits inside each tree, and 2 KiB
/// of padded entries inline would be copied through every frame that
/// builds one.
pub struct Grace {
    stripes: Arc<Stripes>,
    /// Moved on by every `wait_out`; its parity names the `shared` counter
    /// new sections count under.  Written only by `wait_out`.
    epoch: AtomicUsize,
    /// Held by the [`Turn`].
    turn: Mutex<()>,
}

impl Default for Grace {
    fn default() -> Self {
        Self::new()
    }
}

impl Grace {
    /// An empty table.  Asks nothing of the kernel.
    pub fn new() -> Self {
        let stripes: Arc<Stripes> = (0..STRIPES)
            .map(|_| CachePadded::new(Stripe::default()))
            .collect();
        let mut tables = TABLES.lock().unwrap_or_else(|e| e.into_inner());
        tables.retain(|t| t.strong_count() > 0);
        tables.push(Arc::downgrade(&stripes));
        drop(tables);
        Grace {
            stripes,
            epoch: AtomicUsize::new(0),
            turn: Mutex::new(()),
        }
    }

    /// Begins a section of the calling thread; it ends when the returned
    /// guard drops, unwinding included.  Sections of one table must not
    /// nest on a thread.
    #[inline]
    pub fn enter(&self) -> Section<'_> {
        let (stripe, owned) = self.stripe_of(ThreadToken::current());
        if owned {
            let seq = stripe.seq.load(Ordering::Relaxed);
            debug_assert!(seq % 2 == 0, "sections of one table nest");
            stripe.seq.store(seq + 1, Ordering::Relaxed);
            compiler_fence(Ordering::SeqCst);
            return Section {
                counter: &stripe.seq,
                leave: Some(seq + 2),
            };
        }
        loop {
            let epoch = self.epoch.load(Ordering::SeqCst);
            let counter = &stripe.shared[epoch & 1];
            counter.fetch_add(1, Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) == epoch {
                return Section {
                    counter,
                    leave: None,
                };
            }
            counter.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// The calling thread's entry, and whether it holds it.
    #[cfg(not(nbbs_model))]
    #[inline]
    fn stripe_of(&self, me: ThreadToken) -> (&Stripe, bool) {
        let stripe = &self.stripes[me.stripe(STRIPES)];
        (stripe, stripe.claim.hold(me))
    }

    /// The entry of the scheduled worker's logical id, or the last one for
    /// an unscheduled thread; always held (module docs).
    #[cfg(nbbs_model)]
    fn stripe_of(&self, _me: ThreadToken) -> (&Stripe, bool) {
        let entry = crate::shadow::current_worker().map_or(STRIPES - 1, |w| w % (STRIPES - 1));
        (&self.stripes[entry], true)
    }

    /// Whether [`Turn::wait_out`] can work in this process: it needs the
    /// asymmetric barrier.  The first call registers the process for it.
    pub fn can_wait(&self) -> bool {
        cfg!(nbbs_model) || Barrier::process() == Barrier::Asymmetric
    }

    /// Takes the table's turn at waiting sections out, blocking while
    /// another thread holds it.
    pub fn turn(&self) -> Turn<'_> {
        Turn {
            grace: self,
            _held: self.turn.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Gives up the calling thread's entry in every live table, so the
    /// next thread on its stripe owns it instead of counting its sections
    /// in the shared pair.  For a thread done with the tables, about to
    /// exit; one that enters again claims again.  Must not be called from
    /// inside a section: the next owner would count on from an odd `seq`.
    pub fn release_mine() {
        #[cfg(not(nbbs_model))]
        {
            let me = ThreadToken::current();
            let tables = TABLES.lock().unwrap_or_else(|e| e.into_inner());
            for stripes in tables.iter().filter_map(Weak::upgrade) {
                stripes[me.stripe(STRIPES)].claim.release(me);
            }
        }
    }

    /// `(address, label)` of every counter, for `nbbs-model`'s witnesses.
    #[cfg(nbbs_model)]
    pub fn model_addr_labels(&self) -> impl Iterator<Item = (usize, String)> + '_ {
        let epoch = (self.epoch.model_addr(), "grace.epoch".to_string());
        let stripes = self.stripes.iter().enumerate().flat_map(|(i, s)| {
            [
                (s.seq.model_addr(), format!("grace[{i}].seq")),
                (s.shared[0].model_addr(), format!("grace[{i}].shared[0]")),
                (s.shared[1].model_addr(), format!("grace[{i}].shared[1]")),
            ]
        });
        std::iter::once(epoch).chain(stripes)
    }
}

/// The turn of one table's waiter ([`Grace::turn`]); dropping it lets the
/// next waiter in.
pub struct Turn<'a> {
    grace: &'a Grace,
    _held: MutexGuard<'a, ()>,
}

impl Turn<'_> {
    /// Returns once every section of the table that began before the call
    /// has ended.  Sections that begin meanwhile do not hold it up.  Called
    /// from inside a section of the table it would wait on itself.
    ///
    /// # Panics
    ///
    /// If [`Grace::can_wait`] is false.
    pub fn wait_out(&self) {
        let grace = self.grace;
        assert!(
            grace.can_wait(),
            "no asymmetric barrier to wait sections out"
        );
        #[cfg(not(nbbs_model))]
        Barrier::process().heavy();
        let old = grace.epoch.fetch_add(1, Ordering::SeqCst) & 1;
        for stripe in grace.stripes.iter() {
            let seq = stripe.seq.load(Ordering::Acquire);
            if seq % 2 == 1 {
                let backoff = Backoff::new();
                while stripe.seq.load(Ordering::Acquire) == seq {
                    snooze(&backoff);
                }
            }
            let backoff = Backoff::new();
            while stripe.shared[old].load(Ordering::Acquire) != 0 {
                snooze(&backoff);
            }
        }
    }
}

/// A section in flight ([`Grace::enter`]); dropping it ends the section.
pub struct Section<'a> {
    counter: &'a AtomicUsize,
    /// The owner's `seq` once the section has ended; `None` for a section
    /// counted in a shared pair.
    leave: Option<usize>,
}

impl Drop for Section<'_> {
    #[inline]
    fn drop(&mut self) {
        match self.leave {
            Some(seq) => self.counter.store(seq, Ordering::Release),
            None => {
                self.counter.fetch_sub(1, Ordering::Release);
            }
        }
    }
}

#[cfg(all(test, not(nbbs_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn wait_out_returns_at_once_with_no_section_open() {
        let grace = Grace::new();
        drop(grace.enter());
        if grace.can_wait() {
            grace.turn().wait_out();
            grace.turn().wait_out();
        }
    }

    /// A section open on another thread holds `wait_out` until it ends;
    /// sections begun after `wait_out` started do not.
    fn waits_for_an_open_section(grace: &Grace) {
        if !grace.can_wait() {
            return;
        }
        let ended = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (opened, is_open) = mpsc::channel();
            let (close, closing) = mpsc::channel::<()>();
            let ended = &ended;
            s.spawn(move || {
                let section = grace.enter();
                opened.send(()).unwrap();
                closing.recv().unwrap();
                ended.store(true, Ordering::Release);
                drop(section);
            });
            is_open.recv().unwrap();
            let waiter = s.spawn(move || {
                grace.turn().wait_out();
                assert!(
                    ended.load(Ordering::Acquire),
                    "returned before the section ended"
                );
            });
            // Sections that begin and end meanwhile do not hold it up.
            for _ in 0..100 {
                drop(grace.enter());
            }
            std::thread::sleep(Duration::from_millis(20));
            assert!(!waiter.is_finished(), "wait_out did not wait");
            close.send(()).unwrap();
            waiter.join().unwrap();
        });
    }

    #[test]
    fn an_owners_open_section_holds_wait_out() {
        waits_for_an_open_section(&Grace::new());
    }

    #[test]
    fn a_crowded_threads_open_section_holds_wait_out() {
        // Every entry held by a thread that has exited, one at a time: the
        // sections count in the shared pairs.
        let grace = Grace::new();
        for _ in 0..64 * STRIPES {
            if grace.stripes.iter().all(|s| s.claim.is_held()) {
                break;
            }
            std::thread::scope(|s| {
                s.spawn(|| drop(grace.enter()));
            });
        }
        assert!(grace.stripes.iter().all(|s| s.claim.is_held()));
        waits_for_an_open_section(&grace);
    }

    #[test]
    fn a_released_entry_passes_to_the_next_thread_on_its_stripe() {
        let grace = Grace::new();
        // Twice as many threads as stripes, one after the other, each
        // giving its entry up before it exits: each owns its entry.  A
        // second table's entries go as well.
        let other = Grace::new();
        for _ in 0..2 * STRIPES {
            std::thread::scope(|s| {
                s.spawn(|| {
                    for table in [&grace, &other] {
                        let section = table.enter();
                        assert!(section.leave.is_some(), "a dead thread holds the entry");
                    }
                    Grace::release_mine();
                });
            });
        }
        for table in [&grace, &other] {
            assert!(!table.stripes.iter().any(|s| s.claim.is_held()));
        }
    }
}
