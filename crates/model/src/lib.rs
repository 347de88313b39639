//! `nbbs-model` — a deterministic, schedule-enumerating model checker for
//! the lock-free buddy tree.
//!
//! The `coalescing-soak` CI job hunts the residual 4-level release/release
//! race by brute soaking: millions of rounds under whatever interleavings
//! the OS scheduler happens to produce.  That is evidence of *rarity*, not
//! absence.  This crate replaces hope with enumeration, loom-style: the
//! real `try_alloc_node` / `free_node` / `unmark` code is compiled against
//! the shadow atomics of [`nbbs_sync::shadow`] (`--cfg nbbs_model` switches
//! the type aliases in `nbbs::tree` and the two node stores), every
//! load/store/CAS becomes a yield point, and [`Explorer`] drives a bounded
//! depth-first search over **every** interleaving of 2–3 logical threads —
//! with sleep-set pruning so that reorderings of provably-independent
//! accesses are not explored twice, and an optional preemption bound for
//! the 3-thread configs.
//!
//! After each complete schedule the final state is checked (the
//! `nbbs::verify` audit, an exact free-bitmap oracle, and a
//! stranded-capacity probe — see the `tree` module); a violation is
//! reported as a **replayable witness**: the exact sequence of thread
//! choices plus a rendered step trace, and [`Explorer::replay`] re-executes
//! precisely that schedule.
//!
//! The search is sound for safety properties *under sequential
//! consistency*: the scheduler serializes shadow accesses in grant order,
//! so weaker-than-SC effects (store buffering etc.) are out of scope — see
//! the memory-ordering argument in `nbbs::fourlvl` for why the algorithm's
//! `AcqRel` RMW edges justify reasoning at the SC level.
//!
//! The same explorer checks the cache's thread-owned slots
//! (`nbbs_sync::OwnedSlots`, the `cell` module): owner entry against a
//! remote drain, a claimant against a remote read-out, a release against a
//! claim.  Their spin-waits park in [`nbbs_sync::shadow::spin_wait`], so a
//! waiter costs one step per change of what it waits on, and a wait no
//! thread can end is reported as a deadlock.  Under SC the asymmetric
//! barrier pair those slots rest on is invisible: the configs check the
//! protocol (claim, revoke, back off, wait, hand over), and a store-buffer
//! mode is what would check the pair.
//!
//! The explorer itself does not need `--cfg nbbs_model`: it checks any
//! program written against the shadow atomics (the unit tests enumerate
//! schedules of small synthetic racers).  Only the `tree` and `cell`
//! modules' configs, which need the `nbbs` trees and the owned slots to be
//! compiled onto the shadow layer, are gated, and with them
//! `all_configs`.

use std::collections::BTreeSet;
use std::sync::Arc;

use nbbs_sync::shadow::{Access, Decision, Scheduler, StepRecord};

#[cfg(nbbs_model)]
pub mod cell;
#[cfg(nbbs_model)]
pub mod tree;

/// A program the explorer can enumerate schedules of.
///
/// Each run gets a **fresh** state from `setup` (executed unscheduled on
/// the driver thread), then every thread body runs under the scheduler;
/// after all threads finish, `check` inspects the quiescent final state
/// (again unscheduled).  Thread bodies must be deterministic: no wall
/// clock, no OS randomness — the search re-executes schedules and replays
/// witnesses, which requires that the same choice sequence always produces
/// the same accesses.
pub struct Program<S> {
    setup: SetupFn<S>,
    threads: Vec<ThreadFn<S>>,
    check: CheckFn<S>,
    labels: Option<LabelsFn<S>>,
}

/// Per-run state factory (runs unscheduled on the driver thread).
type SetupFn<S> = Box<dyn Fn() -> S + Send + Sync>;
/// One logical thread's body (runs under the scheduler).
type ThreadFn<S> = Arc<dyn Fn(&S) + Send + Sync>;
/// Quiescent final-state check (runs unscheduled on the driver thread).
type CheckFn<S> = Box<dyn Fn(&S) -> Result<(), String> + Send + Sync>;
/// Address-labelling hook for witness traces.
type LabelsFn<S> = Box<dyn Fn(&S) -> Vec<(usize, String)> + Send + Sync>;

impl<S: Send + Sync + 'static> Program<S> {
    /// Creates a program with the given per-run state factory and final
    /// state check.
    pub fn new(
        setup: impl Fn() -> S + Send + Sync + 'static,
        check: impl Fn(&S) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        Program {
            setup: Box::new(setup),
            threads: Vec::new(),
            check: Box::new(check),
            labels: None,
        }
    }

    /// Adds a logical thread.
    pub fn thread(mut self, f: impl Fn(&S) + Send + Sync + 'static) -> Self {
        self.threads.push(Arc::new(f));
        self
    }

    /// Installs an address-labelling hook so witness traces print cell
    /// names (e.g. `word[4]@L0..1`) instead of raw addresses.
    pub fn labels(
        mut self,
        f: impl Fn(&S) -> Vec<(usize, String)> + Send + Sync + 'static,
    ) -> Self {
        self.labels = Some(Box::new(f));
        self
    }

    /// Number of logical threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }
}

/// A safety violation found by the search: a replayable witness.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The schedule as the sequence of thread ids granted at each decision
    /// point — feed back into [`Explorer::replay`] to re-execute it.
    pub choices: Vec<usize>,
    /// What went wrong (check failure message or in-thread panic).
    pub message: String,
    /// Human-readable step trace of the violating schedule.
    pub rendered_trace: String,
}

/// Outcome of one exploration.
#[derive(Debug, Default)]
pub struct Report {
    /// Complete schedules executed and checked.
    pub schedules: u64,
    /// Runs abandoned because every enabled thread was asleep or
    /// preemption-bounded (their continuations are covered elsewhere /
    /// intentionally out of budget).
    pub pruned_runs: u64,
    /// Runs discarded by the per-run step cap (should be zero for the
    /// lock-free programs this crate targets; nonzero means the cap is too
    /// small or a retry loop is genuinely unbounded).
    ///
    /// **Gate on this**: a discarded run's decision nodes are still
    /// retired as explored during backtracking, so any nonzero count
    /// means the search under-covered the space — a clean report with
    /// overflows is not a proof.
    pub overflows: u64,
    /// Violations found (at most `max_violations`).
    pub violations: Vec<Violation>,
    /// The search stopped early (run budget or violation limit reached).
    pub truncated: bool,
    /// Deepest schedule seen, in scheduled accesses.
    pub max_depth: usize,
}

impl Report {
    /// No violations found (meaningful only if `truncated` is false or the
    /// caller accepts a bounded result).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the first witness if the search found violations.
    #[track_caller]
    pub fn assert_clean(&self) {
        if let Some(v) = self.violations.first() {
            panic!(
                "model checker found a violation after {} schedules\n\
                 replayable choices: {:?}\n{}\n{}",
                self.schedules, v.choices, v.message, v.rendered_trace
            );
        }
    }
}

/// One decision point on the DFS stack.
///
/// Cross-run state is stored as **thread ids only**: shadow-cell addresses
/// are stable within a run but not across runs, so anything that needs the
/// conflict relation (sleep-set inheritance) is re-derived from the
/// current run's announced accesses during replay.
struct Node {
    /// Runnable thread ids at this decision point, ascending.
    enabled: Vec<usize>,
    /// The child currently being explored.
    chosen: usize,
    /// Sleep set: threads whose continuations from here are already covered
    /// by an explored sibling (plus inherited sleepers).  Grows as siblings
    /// complete; a sleeping thread is woken in descendants when a
    /// conflicting access executes (handled at node creation).
    sleep: BTreeSet<usize>,
    /// Preemptions consumed by the prefix strictly above this node.
    preempts_before: usize,
}

/// Bounded DFS over schedules with sleep-set pruning.
///
/// This is a *stateless* model checker: each schedule is executed against a
/// fresh program state, and backtracking re-executes the shared prefix
/// (cheap — schedules here are tens of steps).
pub struct Explorer {
    /// `Some(p)`: only schedules with at most `p` preemptions (a context
    /// switch at a point where the previous thread was still runnable) are
    /// explored, CHESS-style.  `None`: exhaustive.
    pub max_preemptions: Option<usize>,
    /// Per-run step cap (safety valve; overflowing runs are discarded and
    /// counted in [`Report::overflows`]).
    pub max_steps: usize,
    /// Total run budget; the search reports `truncated` when it is hit.
    pub max_runs: u64,
    /// Stop after this many violations (default 1: the first witness is
    /// what matters, and each witness costs a full trace render).
    pub max_violations: usize,
    /// Sleep-set pruning (default on).  Turning it off explores every
    /// raw interleaving — exponentially more runs for the same coverage of
    /// final states; the tree tests use it to cross-check that pruning
    /// never hides a violation.
    ///
    /// Ignored (treated as off) whenever `max_preemptions` is set: sleep
    /// sets justify skipping a thread by the full exploration of a
    /// sibling subtree, but under a preemption bound parts of that
    /// subtree may have been abandoned as over-budget while the skipped
    /// schedule would have been *within* budget — the combination would
    /// silently under-approximate the advertised bound.
    pub sleep_sets: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_preemptions: None,
            max_steps: 20_000,
            max_runs: u64::MAX,
            max_violations: 1,
            sleep_sets: true,
        }
    }
}

/// Candidate-selection rule shared by node creation and backtracking:
/// prefer continuing the previous thread (run-to-completion keeps the
/// first explored schedule natural and low-preemption), else the lowest
/// eligible tid.
fn pick_candidate(
    enabled: &[usize],
    sleep: &BTreeSet<usize>,
    prev: Option<usize>,
    preempts_before: usize,
    max_preemptions: Option<usize>,
) -> Option<usize> {
    let allowed = |t: usize| {
        if sleep.contains(&t) {
            return false;
        }
        match (prev, max_preemptions) {
            (Some(p), Some(bound)) if t != p && enabled.contains(&p) => preempts_before < bound,
            _ => true,
        }
    };
    if let Some(p) = prev {
        if enabled.contains(&p) && allowed(p) {
            return Some(p);
        }
    }
    enabled.iter().copied().find(|&t| allowed(t))
}

impl Explorer {
    /// Exhaustive exploration (no preemption bound).
    pub fn exhaustive() -> Self {
        Explorer::default()
    }

    /// Whether sleep-set inheritance is active for this search: only in
    /// unbounded mode (see [`Explorer::sleep_sets`] for why the
    /// preemption-bounded combination would be unsound).  Retiring an
    /// explored child into its node's sleep set still happens either way —
    /// that part merely prevents re-exploring the same child.
    fn pruning_enabled(&self) -> bool {
        self.sleep_sets && self.max_preemptions.is_none()
    }

    /// Exploration bounded to `p` preemptions.
    pub fn with_preemption_bound(p: usize) -> Self {
        Explorer {
            max_preemptions: Some(p),
            ..Explorer::default()
        }
    }

    /// Enumerates schedules of `prog`, checking the final state of each.
    pub fn explore<S: Send + Sync + 'static>(&self, prog: &Program<S>) -> Report {
        assert!(prog.thread_count() > 0, "program has no threads");
        let mut report = Report::default();
        let mut stack: Vec<Node> = Vec::new();
        let mut first_run = true;

        loop {
            if !first_run && stack.is_empty() {
                return report;
            }
            if report.schedules + report.pruned_runs + report.overflows >= self.max_runs {
                report.truncated = true;
                return report;
            }
            first_run = false;

            match self.run_once(prog, &mut stack, &mut report) {
                RunEnd::Completed => {}
                RunEnd::Abandoned => report.pruned_runs += 1,
                RunEnd::Overflowed => report.overflows += 1,
            }
            if report.violations.len() >= self.max_violations {
                report.truncated = true;
                return report;
            }

            // Backtrack: retire the deepest node's explored child into its
            // sleep set and move to the next eligible sibling, popping
            // exhausted nodes.
            loop {
                let Some(top_idx) = stack.len().checked_sub(1) else {
                    return report;
                };
                let prev = top_idx.checked_sub(1).map(|i| stack[i].chosen);
                let node = &mut stack[top_idx];
                node.sleep.insert(node.chosen);
                match pick_candidate(
                    &node.enabled,
                    &node.sleep,
                    prev,
                    node.preempts_before,
                    self.max_preemptions,
                ) {
                    Some(next) => {
                        node.chosen = next;
                        break;
                    }
                    None => {
                        stack.pop();
                    }
                }
            }
        }
    }

    /// Re-executes exactly the schedule given by `choices`, returning the
    /// rendered trace and the check outcome.
    pub fn replay<S: Send + Sync + 'static>(
        &self,
        prog: &Program<S>,
        choices: &[usize],
    ) -> (String, Result<(), String>) {
        let state = Arc::new((prog.setup)());
        let sched = Scheduler::new(prog.thread_count(), self.max_steps);
        let handles = spawn_all(prog, &sched, &state);
        let mut step = 0usize;
        let outcome = loop {
            match sched.wait_decision() {
                Decision::AllDone => break Ok(()),
                Decision::Deadlock(blocked) => {
                    sched.abort();
                    break Err(deadlock_message(&blocked));
                }
                Decision::Overflow => break Err("step cap tripped during replay".to_string()),
                Decision::Choose(runnable) => {
                    let Some(&c) = choices.get(step) else {
                        sched.abort();
                        break Err(format!(
                            "witness too short: run still offers choices at step {step}"
                        ));
                    };
                    if !runnable.iter().any(|&(t, _)| t == c) {
                        sched.abort();
                        break Err(format!(
                            "witness chose thread {c} at step {step}, but runnable set is {:?}",
                            runnable.iter().map(|&(t, _)| t).collect::<Vec<_>>()
                        ));
                    }
                    sched.grant(c);
                    step += 1;
                }
            }
        };
        for h in handles {
            let _ = h.join();
        }
        let rendered = render_trace(&sched.take_trace(), &resolve_labels(prog, &state));
        let result = outcome.and_then(|()| {
            if let Some((tid, msg)) = sched.panics().into_iter().next() {
                return Err(format!("thread {tid} panicked: {msg}"));
            }
            (prog.check)(&state)
        });
        (rendered, result)
    }

    /// Executes one schedule: replays `stack`'s choices, extends the stack
    /// with fresh decision points past it, and checks the final state.
    fn run_once<S: Send + Sync + 'static>(
        &self,
        prog: &Program<S>,
        stack: &mut Vec<Node>,
        report: &mut Report,
    ) -> RunEnd {
        let state = Arc::new((prog.setup)());
        let sched = Scheduler::new(prog.thread_count(), self.max_steps);
        let handles = spawn_all(prog, &sched, &state);

        let mut depth = 0usize;
        // The previous decision's announced accesses and the access the
        // chosen thread performed — needed to filter the sleep set a fresh
        // child node inherits (sleepers conflicting with the executed
        // access wake up).
        let mut prev_runnable: Vec<(usize, Access)> = Vec::new();
        let mut prev_chosen_access: Option<Access> = None;

        let mut deadlock = None;
        let end = loop {
            match sched.wait_decision() {
                Decision::AllDone => break RunEnd::Completed,
                Decision::Deadlock(blocked) => {
                    // A complete schedule whose outcome is the violation:
                    // release the spinners so they unwind and can be joined.
                    sched.abort();
                    deadlock = Some(deadlock_message(&blocked));
                    break RunEnd::Completed;
                }
                Decision::Overflow => break RunEnd::Overflowed,
                Decision::Choose(runnable) => {
                    let tids: Vec<usize> = runnable.iter().map(|&(t, _)| t).collect();
                    let chosen = if depth < stack.len() {
                        // Replay: the enabled set must be identical run to
                        // run, or the program is non-deterministic and the
                        // whole search is meaningless.
                        assert_eq!(
                            stack[depth].enabled, tids,
                            "non-deterministic runnable set at depth {depth}"
                        );
                        stack[depth].chosen
                    } else {
                        // Fresh decision point: inherit the parent's sleep
                        // set minus sleepers woken by the parent's executed
                        // access, then pick the first eligible child.
                        let (sleep, preempts_before) = match stack.last() {
                            None => (BTreeSet::new(), 0),
                            Some(parent) => {
                                let executed =
                                    prev_chosen_access.expect("parent decision recorded");
                                let sleep = if self.pruning_enabled() {
                                    parent
                                        .sleep
                                        .iter()
                                        .copied()
                                        .filter(|u| {
                                            prev_runnable
                                                .iter()
                                                .find(|&&(t, _)| t == *u)
                                                .is_some_and(|(_, a)| !a.conflicts_with(&executed))
                                        })
                                        .collect::<BTreeSet<_>>()
                                } else {
                                    BTreeSet::new()
                                };
                                let grandparent_chosen =
                                    stack.len().checked_sub(2).map(|i| stack[i].chosen);
                                let switch_cost = match grandparent_chosen {
                                    Some(g)
                                        if g != parent.chosen && parent.enabled.contains(&g) =>
                                    {
                                        1
                                    }
                                    _ => 0,
                                };
                                (sleep, parent.preempts_before + switch_cost)
                            }
                        };
                        let prev = stack.last().map(|n| n.chosen);
                        let Some(c) = pick_candidate(
                            &tids,
                            &sleep,
                            prev,
                            preempts_before,
                            self.max_preemptions,
                        ) else {
                            // Every continuation is covered elsewhere (or
                            // out of preemption budget): abandon the run.
                            sched.abort();
                            break RunEnd::Abandoned;
                        };
                        stack.push(Node {
                            enabled: tids,
                            chosen: c,
                            sleep,
                            preempts_before,
                        });
                        c
                    };
                    prev_chosen_access = Some(
                        runnable
                            .iter()
                            .find(|&&(t, _)| t == chosen)
                            .expect("chosen thread is runnable")
                            .1,
                    );
                    prev_runnable = runnable;
                    sched.grant(chosen);
                    depth += 1;
                }
            }
        };

        for h in handles {
            let _ = h.join();
        }
        report.max_depth = report.max_depth.max(depth);

        if matches!(end, RunEnd::Completed) {
            report.schedules += 1;
            debug_assert_eq!(depth, stack.len(), "completed run must match the stack");
            // A deadlock is the run's outcome; the spinners' panics on the
            // way out are its echo, not a second finding.
            let panic_failure = deadlock.or_else(|| {
                sched
                    .panics()
                    .into_iter()
                    .next()
                    .map(|(tid, msg)| format!("thread {tid} panicked: {msg}"))
            });
            let check_failure = if panic_failure.is_none() {
                (prog.check)(&state).err()
            } else {
                None
            };
            if let Some(message) = panic_failure.or(check_failure) {
                let rendered = render_trace(&sched.take_trace(), &resolve_labels(prog, &state));
                report.violations.push(Violation {
                    choices: stack.iter().map(|n| n.chosen).collect(),
                    message,
                    rendered_trace: rendered,
                });
            }
        }
        end
    }
}

/// The search settings each config is meant to run under: exhaustive for
/// the 2-thread spaces, preemption-bounded (CHESS-style, bound 3) for the
/// 3-thread spaces.  Sleep-set inheritance is automatically off under a
/// bound (the combination would under-approximate the advertised bound;
/// see [`Explorer::sleep_sets`]), so the bounded search is a *sound*
/// bound-3 enumeration.  Bound 3 is no arbitrary smoke level: each
/// historical bug, re-injected, yields a witness within it, and it keeps
/// the per-push search at seconds.  The `unmark` exclusion blindness is
/// found at schedule 2,238 of `free-unmark-alloc`.  The phase-1 early
/// break (the first release race, fixed in `free_node`) is found at schedule 3,847 of `free-free-alloc64`, and at
/// schedule 6 of the exhaustive 2-thread `free-free`.  `free-unmark-alloc`
/// does not find it (24,705 schedules clean): with bottom-aligned bunches
/// its unit always lands in the releases' bunch word, holds the branch the
/// early break strands, and its own release in the drain clears it.
///
/// The 3-thread space has also been explored **exhaustively**: once after
/// the exclusion fix (195,600 sleep-set-distinct schedules, all clean —
/// 2026-07) and once on the striped gauge (32,600, a sixth: the three
/// closing gauge RMWs no longer conflict, so one of their 3! orders
/// stands for all — 2026-10, all clean), both on the root-aligned
/// layout; the per-push bound-3 run (31,038 schedules since scans are
/// sections of the tree's grace table) is the regression guard, not the
/// proof.
pub fn recommended_explorer(threads: usize) -> Explorer {
    if threads <= 2 {
        Explorer::exhaustive()
    } else {
        Explorer::with_preemption_bound(3)
    }
}

/// One shipped configuration: a program (over one of the two trees, or
/// over the owned slots) and the search it is meant to run under.
pub struct Config {
    /// Name `model-check` prints.
    pub name: &'static str,
    /// The search settings ([`recommended_explorer`] of the thread count).
    pub explorer: Explorer,
    explore: Box<dyn Fn(&Explorer) -> Report>,
}

impl Config {
    /// `prog` under [`recommended_explorer`] of its thread count.
    pub fn new<S: Send + Sync + 'static>(name: &'static str, prog: Program<S>) -> Self {
        Config {
            name,
            explorer: recommended_explorer(prog.thread_count()),
            explore: Box::new(move |explorer| explorer.explore(&prog)),
        }
    }

    /// Runs the search.
    pub fn explore(&self) -> Report {
        (self.explore)(&self.explorer)
    }
}

/// Every shipped configuration: the four release races on the 4-level
/// tree, the two 2-thread ones over the 1-level tree, a scrub run's
/// release racing an allocation on each tree, then the three hand-over
/// configs over the owned slots.
#[cfg(nbbs_model)]
pub fn all_configs() -> Vec<Config> {
    use nbbs::fourlvl::BunchStore;
    use nbbs::onelvl::ByteStore;
    vec![
        Config::new("free-free", tree::free_free::<BunchStore>()),
        Config::new("free-alloc", tree::free_alloc::<BunchStore>()),
        Config::new("free-unmark-alloc", tree::free_unmark_alloc::<BunchStore>()),
        Config::new("free-free-alloc64", tree::free_free_alloc64::<BunchStore>()),
        Config::new("1lvl-free-free", tree::free_free::<ByteStore>()),
        Config::new("1lvl-free-alloc", tree::free_alloc::<ByteStore>()),
        Config::new("scrub-alloc", tree::scrub_alloc::<BunchStore>()),
        Config::new("1lvl-scrub-alloc", tree::scrub_alloc::<ByteStore>()),
        Config::new("cell-owner-drain", cell::owner_drain()),
        Config::new("cell-claim-readout", cell::claim_readout()),
        Config::new("cell-release-claim", cell::release_claim()),
    ]
}

enum RunEnd {
    Completed,
    Abandoned,
    Overflowed,
}

fn deadlock_message(blocked: &[usize]) -> String {
    format!("deadlock: threads {blocked:?} each wait for a write no other thread makes")
}

fn spawn_all<S: Send + Sync + 'static>(
    prog: &Program<S>,
    sched: &Arc<Scheduler>,
    state: &Arc<S>,
) -> Vec<std::thread::JoinHandle<()>> {
    prog.threads
        .iter()
        .enumerate()
        .map(|(tid, f)| {
            let f = Arc::clone(f);
            let st = Arc::clone(state);
            sched.spawn_worker(tid, move || f(&st))
        })
        .collect()
}

fn resolve_labels<S>(prog: &Program<S>, state: &S) -> Vec<(usize, String)> {
    prog.labels.as_ref().map(|f| f(state)).unwrap_or_default()
}

/// Renders a step trace with addresses resolved through `labels`.
pub fn render_trace(trace: &[StepRecord], labels: &[(usize, String)]) -> String {
    use std::fmt::Write as _;
    let name = |addr: usize| {
        labels
            .iter()
            .find(|&&(a, _)| a == addr)
            .map(|(_, l)| l.clone())
            .unwrap_or_else(|| format!("{addr:#x}"))
    };
    let mut out = String::new();
    for (i, s) in trace.iter().enumerate() {
        let _ = writeln!(
            out,
            "  #{i:<3} t{} {:5} {:<16} {}",
            s.tid,
            format!("{:?}", s.access.kind),
            name(s.access.addr),
            s.detail
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbs_sync::shadow::{AtomicU64, AtomicUsize};
    use std::sync::atomic::Ordering;

    /// Two threads, one store each to *different* cells: the accesses are
    /// independent, so sleep sets must collapse both orders into one
    /// schedule.
    #[test]
    fn independent_stores_explore_one_schedule() {
        struct S {
            a: AtomicU64,
            b: AtomicU64,
        }
        let prog = Program::new(
            || S {
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            },
            |s| {
                let (a, b) = (s.a.load(Ordering::SeqCst), s.b.load(Ordering::SeqCst));
                if (a, b) == (1, 2) {
                    Ok(())
                } else {
                    Err(format!("lost store: a={a} b={b}"))
                }
            },
        )
        .thread(|s: &S| s.a.store(1, Ordering::SeqCst))
        .thread(|s: &S| s.b.store(2, Ordering::SeqCst));
        let report = Explorer::exhaustive().explore(&prog);
        report.assert_clean();
        assert_eq!(report.schedules, 1, "independent pair must be pruned");
        assert!(!report.truncated);
    }

    /// Same two stores, but to the *same* cell: conflicting, so both
    /// orders must be explored.
    #[test]
    fn conflicting_stores_explore_both_orders() {
        let prog = Program::new(|| AtomicU64::new(0), |_| Ok(()))
            .thread(|a: &AtomicU64| a.store(1, Ordering::SeqCst))
            .thread(|a: &AtomicU64| a.store(2, Ordering::SeqCst));
        let report = Explorer::exhaustive().explore(&prog);
        report.assert_clean();
        assert_eq!(report.schedules, 2);
    }

    /// The classic lost-update race: two threads do load-then-store
    /// increments.  The checker must find a schedule where an update is
    /// lost, and the witness must replay to the same failure.
    #[test]
    fn lost_update_race_is_found_and_replays() {
        struct S {
            c: AtomicU64,
        }
        fn body(s: &S) {
            let v = s.c.load(Ordering::SeqCst);
            s.c.store(v + 1, Ordering::SeqCst);
        }
        let mk = || {
            Program::new(
                || S {
                    c: AtomicU64::new(0),
                },
                |s| {
                    let v = s.c.load(Ordering::SeqCst);
                    if v == 2 {
                        Ok(())
                    } else {
                        Err(format!("lost update: counter = {v}"))
                    }
                },
            )
            .thread(body)
            .thread(body)
            .labels(|s: &S| vec![(s.c.model_addr(), "counter".to_string())])
        };
        let prog = mk();
        let explorer = Explorer::exhaustive();
        let report = explorer.explore(&prog);
        assert!(!report.is_clean(), "the race must be found");
        let witness = &report.violations[0];
        assert!(witness.message.contains("lost update"));
        assert!(
            witness.rendered_trace.contains("counter"),
            "trace uses labels:\n{}",
            witness.rendered_trace
        );
        // The witness replays deterministically to the same failure.
        let (trace, result) = explorer.replay(&mk(), &witness.choices);
        let err = result.expect_err("replay reproduces the violation");
        assert!(err.contains("lost update"), "{err}\n{trace}");
    }

    /// The same increments done with fetch_add are atomic: every
    /// interleaving is correct, and with one access per thread the state
    /// space is tiny.
    #[test]
    fn atomic_increments_are_clean() {
        let prog = Program::new(
            || AtomicU64::new(0),
            |a| {
                let v = a.load(Ordering::SeqCst);
                if v == 2 {
                    Ok(())
                } else {
                    Err(format!("counter = {v}"))
                }
            },
        )
        .thread(|a: &AtomicU64| {
            a.fetch_add(1, Ordering::SeqCst);
        })
        .thread(|a: &AtomicU64| {
            a.fetch_add(1, Ordering::SeqCst);
        });
        let report = Explorer::exhaustive().explore(&prog);
        report.assert_clean();
        assert_eq!(report.schedules, 2, "two RMWs on one cell: both orders");
    }

    /// A preemption bound of 0 only explores run-to-completion schedules:
    /// one per thread ordering.
    #[test]
    fn preemption_bound_zero_runs_threads_to_completion() {
        let prog = Program::new(|| AtomicU64::new(0), |_| Ok(()))
            .thread(|a: &AtomicU64| {
                a.fetch_add(1, Ordering::SeqCst);
                a.fetch_add(1, Ordering::SeqCst);
                a.fetch_add(1, Ordering::SeqCst);
            })
            .thread(|a: &AtomicU64| {
                a.fetch_add(10, Ordering::SeqCst);
                a.fetch_add(10, Ordering::SeqCst);
                a.fetch_add(10, Ordering::SeqCst);
            });
        let report = Explorer::with_preemption_bound(0).explore(&prog);
        report.assert_clean();
        assert_eq!(report.schedules + report.pruned_runs, 2);
        assert_eq!(report.schedules, 2, "t0-then-t1 and t1-then-t0");
    }

    /// A CAS retry loop (the shape of every climb in the tree): two
    /// threads CAS-increment the same cell.  All interleavings must settle
    /// to 2, and the search must terminate (retries are bounded by the
    /// other thread's successful RMWs).
    #[test]
    fn cas_loop_increments_are_clean_and_finite() {
        fn body(a: &AtomicU64) {
            let mut cur = a.load(Ordering::SeqCst);
            loop {
                match a.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        let prog = Program::new(
            || AtomicU64::new(0),
            |a| {
                let v = a.load(Ordering::SeqCst);
                if v == 2 {
                    Ok(())
                } else {
                    Err(format!("counter = {v}"))
                }
            },
        )
        .thread(body)
        .thread(body);
        let report = Explorer::exhaustive().explore(&prog);
        report.assert_clean();
        assert!(report.schedules >= 2, "{}", report.schedules);
        assert_eq!(report.overflows, 0, "retry loops must be finite");
    }

    /// Three threads under an exhaustive search: the schedule count for
    /// three single-RMW threads on one cell is 3! = 6.
    #[test]
    fn three_thread_orderings_enumerate_factorially() {
        let prog = Program::new(|| AtomicUsize::new(0), |_| Ok(()))
            .thread(|a: &AtomicUsize| {
                a.fetch_add(1, Ordering::SeqCst);
            })
            .thread(|a: &AtomicUsize| {
                a.fetch_add(1, Ordering::SeqCst);
            })
            .thread(|a: &AtomicUsize| {
                a.fetch_add(1, Ordering::SeqCst);
            });
        let report = Explorer::exhaustive().explore(&prog);
        report.assert_clean();
        assert_eq!(report.schedules, 6);
    }

    /// A spin-wait parks until the write it waits for: the space of a
    /// waiter and a setter is finite and clean under either search, and
    /// the unpruned one walks at least as many schedules.
    #[test]
    fn spin_waits_park_until_the_write_they_need() {
        use nbbs_sync::shadow::{spin_wait, AtomicBool};
        struct S {
            flag: AtomicBool,
            data: AtomicU64,
        }
        let prog = || {
            Program::new(
                || S {
                    flag: AtomicBool::new(false),
                    data: AtomicU64::new(0),
                },
                |_| Ok(()),
            )
            .thread(|s: &S| {
                while !s.flag.load(Ordering::SeqCst) {
                    spin_wait();
                }
                assert_eq!(s.data.load(Ordering::SeqCst), 7, "flag before data");
            })
            .thread(|s: &S| {
                s.data.store(7, Ordering::SeqCst);
                s.flag.store(true, Ordering::SeqCst);
            })
        };
        let pruned = Explorer::exhaustive().explore(&prog());
        pruned.assert_clean();
        assert_eq!(pruned.overflows, 0);
        let unpruned = Explorer {
            sleep_sets: false,
            ..Explorer::exhaustive()
        }
        .explore(&prog());
        unpruned.assert_clean();
        assert!(unpruned.schedules >= pruned.schedules && pruned.schedules >= 2);
    }

    /// Two threads that each wait for the other's flag before setting their
    /// own can never finish: the search reports the deadlock as a violation
    /// whose witness replays, instead of hanging.
    #[test]
    fn a_wait_nobody_ends_is_a_deadlock_that_replays() {
        use nbbs_sync::shadow::{spin_wait, AtomicBool};
        fn wait_then_set(wait: &AtomicBool, set: &AtomicBool) {
            while !wait.load(Ordering::SeqCst) {
                spin_wait();
            }
            set.store(true, Ordering::SeqCst);
        }
        let prog = Program::new(
            || [AtomicBool::new(false), AtomicBool::new(false)],
            |_| Ok(()),
        )
        .thread(|s: &[AtomicBool; 2]| wait_then_set(&s[0], &s[1]))
        .thread(|s: &[AtomicBool; 2]| wait_then_set(&s[1], &s[0]));
        let explorer = Explorer::exhaustive();
        let report = explorer.explore(&prog);
        let witness = report.violations.first().expect("the deadlock is found");
        assert!(witness.message.contains("deadlock"), "{}", witness.message);
        let (_, replayed) = explorer.replay(&prog, &witness.choices);
        assert_eq!(replayed.expect_err("replays"), witness.message);
    }

    /// In-thread panics become violations, not deadlocks.
    #[test]
    fn thread_panic_is_a_violation() {
        let prog = Program::new(|| AtomicU64::new(0), |_| Ok(()))
            .thread(|a: &AtomicU64| {
                if a.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("thread asserted");
                }
            })
            .thread(|a: &AtomicU64| {
                a.fetch_add(1, Ordering::SeqCst);
            });
        let report = Explorer::exhaustive().explore(&prog);
        assert!(!report.is_clean());
        assert!(report.violations[0].message.contains("thread asserted"));
    }

    /// The run budget truncates honestly.
    #[test]
    fn run_budget_truncates() {
        let prog = Program::new(|| AtomicU64::new(0), |_| Ok(()))
            .thread(|a: &AtomicU64| {
                for _ in 0..4 {
                    a.fetch_add(1, Ordering::SeqCst);
                }
            })
            .thread(|a: &AtomicU64| {
                for _ in 0..4 {
                    a.fetch_add(1, Ordering::SeqCst);
                }
            });
        let explorer = Explorer {
            max_runs: 3,
            ..Explorer::exhaustive()
        };
        let report = explorer.explore(&prog);
        assert!(report.truncated);
        assert_eq!(report.schedules + report.pruned_runs + report.overflows, 3);
    }
}
