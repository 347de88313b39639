//! Process-wide monotone thread ordinals.
//!
//! Several layers of the stack key per-thread state by a small dense id —
//! the magazine cache's thread slots (`nbbs-cache`), the trees' byte gauge
//! (`nbbs`), the synthetic home-node assignment (`nbbs-numa`).  Keeping
//! the counter *here*, in the one crate they all depend on, guarantees
//! they see the **same** id for the same thread: a thread's cache slot,
//! its gauge stripe and its synthetic home node are
//! derived from one ordinal ([`thread_stripe`] is the one thread→stripe
//! rule), so slot-group banking and node routing agree by construction.
//! The home node itself is published here too
//! ([`set_thread_node`]), so the layer that routes (`nbbs-numa`) and the one
//! that records (`nbbs-obs`) need not name each other.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The calling thread's process-wide ordinal: a monotone id handed out on
/// first use (0, 1, 2, …), stable for the thread's lifetime and never
/// handed to another thread.
///
/// Answers the thread's own id through every phase of thread teardown,
/// other thread-locals' destructors included (where the cache's exit drain
/// runs): the thread-local is const-initialized and needs no destructor,
/// so its storage is never torn down and the access cannot fail.  No path
/// falls back to a shared id — an ordinal is an identity ([`crate::owned`]'s
/// claim tokens are ordinals), and two threads answering the same one would
/// both own one slot.  Inlined, the thread-local read alone: every cache
/// slot entry reads it; the first use is out of line.
#[inline]
pub fn thread_ordinal() -> usize {
    match ORDINAL.with(Cell::get) {
        usize::MAX => first_ordinal(),
        id => id,
    }
}

thread_local! {
    /// The thread's [`thread_ordinal`], `usize::MAX` until its first use.
    static ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Hands the calling thread the next ordinal, on its first use.
#[cold]
#[inline(never)]
fn first_ordinal() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    ORDINAL.with(|c| c.set(id));
    id
}

/// The calling thread's entry in a table of `len` per-thread stripes (`len`
/// a power of two): its [`thread_ordinal`] masked to the table.
///
/// This is the process-wide thread→stripe rule.  Every striped structure in
/// the stack indexes itself with it — the magazine cache's slots, the
/// trees' byte gauge.  The stripe is where a thread
/// *looks*; whether it owns what it finds there is the claim rule's
/// business ([`crate::owned`]): the first live thread to reach a stripe
/// claims it, and a thread that finds its stripe held by another live
/// thread uses the stripe's shared entry.  With `len >= thread count` and
/// threads that release on exit, every thread owns its entry, and a thread
/// that owns its entry in one table of a given length maps to the same
/// index in every other.
///
/// *Foreign* threads — any thread the owner of the table never heard of,
/// e.g. every thread of a program whose `#[global_allocator]` routes through
/// the cache — get their stripe the same way; the ordinal lookup never
/// allocates and answers the thread's own id through thread teardown (a
/// global allocator must not panic).  Because `nbbs-numa`'s synthetic
/// home-node assignment derives from the *same* ordinal, a thread's stripe
/// and its home node agree by construction.
#[inline]
pub fn thread_stripe(len: usize) -> usize {
    debug_assert!(len.is_power_of_two());
    thread_ordinal() & (len - 1)
}

/// The memo behind [`available_cpus`]: 0 until the first call has read it.
static CPUS: AtomicUsize = AtomicUsize::new(0);
/// What [`CPUS`] holds when the platform would not say.
const CPUS_UNREADABLE: usize = usize::MAX;

/// How many CPUs this process may run on, read once per process: the
/// size of its affinity mask (`sched_getaffinity(2)`, one system call) on
/// Linux, `std::thread::available_parallelism` elsewhere or when the call
/// fails.
///
/// The affinity mask is the right count for striping per-thread tables: it
/// bounds how many of the process's threads run at once.  A cgroup CPU
/// quota, which `available_parallelism` also reads (opening and parsing
/// several files, ~100 µs), limits CPU *time*, not how many threads run
/// at once, so it does not narrow the stripes threads contend on.  The
/// shipped stack asks once while it is built, for the cache's slot count
/// ([`default_stripes`]; the depot shards follow from the slots), and every
/// other cache or facade built in the process asks again, so the first
/// answer is kept.  Two threads racing the first call both ask and store
/// the same answer.
pub fn available_cpus() -> Option<usize> {
    let mut cpus = CPUS.load(Ordering::Relaxed);
    if cpus == 0 {
        cpus = affinity::cpus()
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(CPUS_UNREADABLE);
        CPUS.store(cpus, Ordering::Relaxed);
    }
    (cpus != CPUS_UNREADABLE).then_some(cpus)
}

/// The calling thread's affinity mask, through libc (std links it
/// already).
#[cfg(target_os = "linux")]
mod affinity {
    use std::os::raw::c_int;

    /// A mask of 1 024 CPUs, glibc's `cpu_set_t`.
    const MASK_WORDS: usize = 1024 / 64;

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    }

    /// CPUs in the mask; `None` if the call fails (a machine past 1 024
    /// CPUs) or the mask is empty.
    pub(super) fn cpus() -> Option<usize> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is `size_of_val(&mask)` writable bytes; pid 0 is
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let n: u32 = mask.iter().map(|w| w.count_ones()).sum();
        (rc == 0 && n > 0).then_some(n as usize)
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    /// No affinity call here: the caller falls back.
    pub(super) fn cpus() -> Option<usize> {
        None
    }
}

/// How many stripes a per-thread table gets when nobody says otherwise:
/// twice [`available_cpus`] rounded up to a power of two (16 when the
/// parallelism cannot be read), so the threads of a program that runs one
/// per CPU each land on a stripe of their own.
pub fn default_stripes() -> usize {
    available_cpus().map_or(16, |n| (n * 2).next_power_of_two())
}

/// Stored node-hint value meaning "this thread never declared a node".
const NODE_UNTAGGED: u8 = 0;

/// Highest node index the 6-bit node field of a recorded event can carry.
const MAX_THREAD_NODE: usize = 61;

thread_local! {
    static NODE_HINT: Cell<u8> = const { Cell::new(NODE_UNTAGGED) };
}

/// Declares the calling thread's home NUMA node.  `nbbs-numa`'s `NodeSet`
/// calls this when it homes a thread and `nbbs-obs` tags recorded events
/// with it; nodes above 61 saturate (an event keeps 6 bits for the node).
pub fn set_thread_node(node: usize) {
    let stored = (node.min(MAX_THREAD_NODE) + 1) as u8;
    NODE_HINT.with(|h| h.set(stored));
}

/// The calling thread's declared home node, if [`set_thread_node`] ran.
pub fn thread_node() -> Option<usize> {
    NODE_HINT.with(|h| match h.get() {
        NODE_UNTAGGED => None,
        v => Some((v - 1) as usize),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_hint_is_per_thread_and_saturating() {
        assert_eq!(thread_node(), None);
        set_thread_node(3);
        assert_eq!(thread_node(), Some(3));
        set_thread_node(10_000);
        assert_eq!(thread_node(), Some(MAX_THREAD_NODE));
        std::thread::spawn(|| assert_eq!(thread_node(), None))
            .join()
            .unwrap();
        set_thread_node(0);
        assert_eq!(thread_node(), Some(0));
    }

    #[test]
    fn the_cpu_count_is_read_once() {
        let first = default_stripes();
        // The memo, not the clock: once any call has returned, the answer
        // sits in `CPUS` and later calls are one relaxed load.
        let memo = CPUS.load(Ordering::Relaxed);
        assert_ne!(memo, 0, "the first call stored what it read");
        assert_eq!(default_stripes(), first);
        assert_eq!(CPUS.load(Ordering::Relaxed), memo, "nothing re-read");
        assert_eq!(available_cpus(), (memo != CPUS_UNREADABLE).then_some(memo));
        assert!(first.is_power_of_two());
    }

    /// The count is the affinity mask the kernel reports for the process
    /// (`taskset -c 0` makes it 1), not the machine's CPUs or a quota.
    #[cfg(target_os = "linux")]
    #[test]
    fn available_cpus_counts_the_allowed_list() {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("a Cpus_allowed_list line")
            .trim();
        let allowed: usize = list
            .split(',')
            .map(|range| match range.split_once('-') {
                Some((lo, hi)) => hi.parse::<usize>().unwrap() - lo.parse::<usize>().unwrap() + 1,
                None => 1,
            })
            .sum();
        assert_eq!(available_cpus(), Some(allowed), "Cpus_allowed_list: {list}");
    }

    #[test]
    fn stable_within_a_thread_and_distinct_across_threads() {
        let mine = thread_ordinal();
        assert_eq!(mine, thread_ordinal(), "stable for the thread's lifetime");
        let others: Vec<usize> = (0..4)
            .map(|_| std::thread::spawn(thread_ordinal))
            .map(|h| h.join().unwrap())
            .collect();
        let mut all = others.clone();
        all.push(mine);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 5, "every thread gets its own ordinal: {all:?}");
    }

    /// Where the cache's exit drain runs — inside another thread-local's
    /// destructor, after the thread's body returned — the ordinal is still
    /// the thread's own, not a shared stand-in.
    #[test]
    fn a_thread_local_destructor_reads_the_threads_own_ordinal() {
        use std::sync::mpsc;

        struct ReadsOnDrop(mpsc::Sender<usize>);
        impl Drop for ReadsOnDrop {
            fn drop(&mut self) {
                let _ = self.0.send(thread_ordinal());
            }
        }
        thread_local! {
            static PROBE: std::cell::RefCell<Option<ReadsOnDrop>> =
                const { std::cell::RefCell::new(None) };
        }

        // A thread that never asked before its teardown gets a fresh id
        // there; one that asked keeps its id.
        let mine = thread_ordinal();
        for ask_first in [true, false] {
            let (tx, rx) = mpsc::channel();
            let during = std::thread::spawn(move || {
                PROBE.with(|p| *p.borrow_mut() = Some(ReadsOnDrop(tx)));
                ask_first.then(thread_ordinal)
            })
            .join()
            .unwrap();
            let at_exit = rx.recv().expect("the destructor ran");
            if let Some(id) = during {
                assert_eq!(at_exit, id);
            }
            assert_ne!(at_exit, mine, "the exiting thread's id, not another's");
        }
    }
}
