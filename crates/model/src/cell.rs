//! Model-checking configurations over the thread-owned slots.
//!
//! Only compiled under `--cfg nbbs_model`, which puts
//! [`nbbs_sync::OwnedSlots`]' owner words and flags (`busy`, `revoked`,
//! `locked`) on the shadow atomics and turns its spin-waits into
//! [`nbbs_sync::shadow::spin_wait`], so the owner entry, the locked entry
//! and the remote entry of every slot become sequences of scheduler steps.
//!
//! ## Shape
//!
//! Every config builds a table of **one** thread slot, so every worker maps
//! to slot 0 and meets the others there or in its shared slot.  A slot
//! holds a [`Body`]: an `inside` flag a visitor swaps on (a second visitor
//! panics — the exclusion check) and a counter it bumps with a plain load
//! and store (a lost update shows in the final sums).  After every complete
//! schedule the final sums are checked against what the threads did.
//!
//! * `cell-owner-drain`: an owner claims slot 0 and enters it twice while a
//!   remote drains every slot (takes the counters to zero).  Taken plus
//!   left equals the owner's two increments.
//! * `cell-claim-readout`: a thread claims, enters once and releases while
//!   a remote reads every slot.  The remote sees 0 or 1, never a torn
//!   value; the total is 1.
//! * `cell-release-claim`: one thread claims, enters and releases while a
//!   second claims (or, finding the slot held, uses the shared slot) and
//!   enters.  Both increments land.
//!
//! All three are 2-thread spaces explored exhaustively: 23, 9 and 7
//! sleep-set-distinct schedules (182, 67 and 47 runs pruned).  Pruning is
//! cross-checked on the smallest: without sleep sets `cell-release-claim`
//! walks 53 625 raw interleavings, all clean.  The injected-bug witness
//! ([`owner_drain_skipping_the_revoked_check`]) is the first config with
//! owners that ignore `revoked`: the checker finds a remote that read
//! `busy` before the owner set it, both inside, and the witness replays.
//!
//! Sequential consistency cannot see the asymmetric barrier the owner
//! entry rests on: under SC the owner's `busy` store is visible the moment
//! it runs, which is exactly what `membarrier(2)` buys on real hardware.
//! These configs check the protocol around the barrier (claim, revoke,
//! back off, wait out, hand over); the barrier itself is argued in
//! `nbbs_sync::owned` and awaits a store-buffer mode of the explorer.

use std::sync::atomic::Ordering;
use std::sync::Mutex;

use nbbs_sync::shadow::{AtomicBool, AtomicU64};
use nbbs_sync::OwnedSlots;

use crate::Program;

/// What a slot holds in the model.
#[derive(Default)]
pub struct Body {
    /// Set while a visitor is inside.
    inside: AtomicBool,
    /// Bumped with a plain load and store, so overlapping visitors lose
    /// an update.
    value: AtomicU64,
}

impl Body {
    /// One visit: occupies the slot (a second occupant panics), replaces
    /// the counter by `f` of it, leaves.  Returns what it read.
    fn visit(&self, f: impl FnOnce(u64) -> u64) -> u64 {
        assert!(
            !self.inside.swap(true, Ordering::SeqCst),
            "two threads inside one slot"
        );
        let v = self.value.load(Ordering::SeqCst);
        self.value.store(f(v), Ordering::SeqCst);
        self.inside.store(false, Ordering::SeqCst);
        v
    }
}

/// Per-run state: a table of one thread slot plus its shared one, and
/// what the remote thread read.
pub struct CellState {
    /// The real table, compiled onto shadow atomics.
    pub slots: OwnedSlots<Body>,
    /// The counter values the remote read or took, slot by slot.
    pub remote: Mutex<Vec<u64>>,
}

fn state(slots: OwnedSlots<Body>) -> CellState {
    CellState {
        slots,
        remote: Mutex::new(Vec::new()),
    }
}

fn one_slot() -> OwnedSlots<Body> {
    OwnedSlots::new(1, Body::default)
}

/// The counters left in every slot (thread slot first), read
/// unscheduled.
fn left(s: &CellState) -> Vec<u64> {
    let mut out = Vec::new();
    s.slots
        .for_each_slot(|b| out.push(b.value.load(Ordering::SeqCst)));
    out
}

fn labels(s: &CellState) -> Vec<(usize, String)> {
    let mut out = s.slots.model_addr_labels();
    let mut i = 0;
    s.slots.for_each_slot(|b| {
        let name = if i == 0 { "slot[0]" } else { "shared[0]" };
        out.push((b.inside.model_addr(), format!("{name}.inside")));
        out.push((b.value.model_addr(), format!("{name}.value")));
        i += 1;
    });
    out
}

fn increment(s: &CellState) {
    s.slots.with_mine(|_, b| b.visit(|v| v + 1));
}

fn drain(s: &CellState) {
    s.slots.for_each_slot(|b| {
        let taken = b.visit(|_| 0);
        s.remote.lock().unwrap().push(taken);
    });
}

fn owner_drain_with(slots: fn() -> OwnedSlots<Body>) -> Program<CellState> {
    Program::new(
        move || state(slots()),
        |s: &CellState| {
            let taken: u64 = s.remote.lock().unwrap().iter().sum();
            let left: u64 = left(s).iter().sum();
            match taken + left {
                2 => Ok(()),
                n => Err(format!(
                    "{n} increments survive of 2 ({taken} taken, {left} left)"
                )),
            }
        },
    )
    .thread(|s: &CellState| {
        increment(s);
        increment(s);
    })
    .thread(drain)
    .labels(labels)
}

/// Owner entry against a remote drain: thread 0 claims slot 0 and enters
/// it twice; thread 1 takes every slot's counter.
pub fn owner_drain() -> Program<CellState> {
    owner_drain_with(one_slot)
}

/// [`owner_drain`] with owners that ignore `revoked` — the injected bug
/// whose witness the checker must find and replay.
pub fn owner_drain_skipping_the_revoked_check() -> Program<CellState> {
    owner_drain_with(|| one_slot().with_skipped_revoked_check())
}

/// A claimant racing a remote read-out: thread 0 claims slot 0, enters
/// once and releases it; thread 1 reads every slot.
pub fn claim_readout() -> Program<CellState> {
    Program::new(
        || state(one_slot()),
        |s: &CellState| {
            let read = s.remote.lock().unwrap().clone();
            if read.len() != 2 || read.iter().any(|&v| v > 1) {
                return Err(format!("the read-out saw {read:?}"));
            }
            match left(s).iter().sum::<u64>() {
                1 => Ok(()),
                n => Err(format!("{n} increments survive of 1")),
            }
        },
    )
    .thread(|s: &CellState| {
        increment(s);
        s.slots.release_mine();
    })
    .thread(|s: &CellState| {
        s.slots.for_each_slot(|b| {
            let read = b.visit(|v| v);
            s.remote.lock().unwrap().push(read);
        });
    })
    .labels(labels)
}

/// A release racing a claim: thread 0 claims slot 0, enters and releases
/// it; thread 1 claims it (or, finding it held, takes the shared slot) and
/// enters.
pub fn release_claim() -> Program<CellState> {
    Program::new(
        || state(one_slot()),
        |s: &CellState| match left(s).iter().sum::<u64>() {
            2 => Ok(()),
            n => Err(format!("{n} increments survive of 2")),
        },
    )
    .thread(|s: &CellState| {
        increment(s);
        s.slots.release_mine();
    })
    .thread(increment)
    .labels(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recommended_explorer, Explorer};

    /// Floors asserted by CI so a pruning regression cannot silently empty
    /// the search (measured: 23, 9 and 7 schedules, all exhaustive).
    const OWNER_DRAIN_MIN_SCHEDULES: u64 = 12;
    const CLAIM_READOUT_MIN_SCHEDULES: u64 = 5;
    const RELEASE_CLAIM_MIN_SCHEDULES: u64 = 4;

    fn run(name: &str, prog: &Program<CellState>, floor: u64) {
        let report = recommended_explorer(prog.thread_count()).explore(prog);
        eprintln!(
            "model [{name}]: {} schedules explored ({} pruned, {} overflows, max depth {})",
            report.schedules, report.pruned_runs, report.overflows, report.max_depth
        );
        report.assert_clean();
        assert!(
            report.schedules >= floor,
            "[{name}] pruning regression: only {} schedules explored (floor {floor})",
            report.schedules
        );
        assert_eq!(report.overflows, 0, "[{name}] runs hit the step cap");
        assert!(!report.truncated, "[{name}] search truncated");
    }

    #[test]
    fn owner_entry_against_a_remote_drain_is_exhaustively_clean() {
        run(
            "cell-owner-drain",
            &owner_drain(),
            OWNER_DRAIN_MIN_SCHEDULES,
        );
    }

    #[test]
    fn a_claimant_against_a_remote_readout_is_exhaustively_clean() {
        run(
            "cell-claim-readout",
            &claim_readout(),
            CLAIM_READOUT_MIN_SCHEDULES,
        );
    }

    #[test]
    fn a_release_against_a_claim_is_exhaustively_clean() {
        run(
            "cell-release-claim",
            &release_claim(),
            RELEASE_CLAIM_MIN_SCHEDULES,
        );
    }

    /// Cross-check of the sleep-set pruning over the hand-over: with pruning
    /// off the explorer walks every raw interleaving of
    /// `cell-release-claim` (the spin-waits still park, so the space is
    /// finite).  It must be clean too, and strictly larger.
    #[test]
    fn release_claim_unpruned_cross_check() {
        let unpruned = Explorer {
            sleep_sets: false,
            ..Explorer::exhaustive()
        };
        let report = unpruned.explore(&release_claim());
        eprintln!(
            "model [cell-release-claim, no pruning]: {} schedules explored",
            report.schedules
        );
        report.assert_clean();
        assert!(report.schedules > RELEASE_CLAIM_MIN_SCHEDULES);
        assert_eq!(report.overflows, 0);
    }

    /// The injected bug: an owner that skips its `revoked` check enters
    /// while a remote that read `busy` before the owner set it is inside.
    /// The checker must find it and the witness must replay.
    #[test]
    fn an_owner_skipping_its_revoked_check_is_caught_and_replays() {
        let explorer = Explorer::exhaustive();
        let report = explorer.explore(&owner_drain_skipping_the_revoked_check());
        assert!(!report.is_clean(), "the skipped check must be caught");
        let witness = &report.violations[0];
        assert!(
            witness.message.contains("two threads inside one slot")
                || witness.message.contains("increments survive"),
            "{}",
            witness.message
        );
        assert!(
            witness.rendered_trace.contains("slot[0].busy")
                && witness.rendered_trace.contains("slot[0].revoked"),
            "trace labels the flags:\n{}",
            witness.rendered_trace
        );
        let (trace, result) =
            explorer.replay(&owner_drain_skipping_the_revoked_check(), &witness.choices);
        let err = result.expect_err("the witness replays to the same failure");
        assert_eq!(err, witness.message, "{trace}");
    }
}
