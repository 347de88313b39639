//! A `Spanned` must change nothing a caller can see.  The hazard it guards
//! against is silent: `BuddyBackend` has defaults for most of its methods, so
//! a wrapper that forgets to forward one still compiles and still serves
//! every request, and only the numbers change.  Forget
//! `granted_size_of_live` and the cache above can no longer tell the class
//! of a block it is handed back, so every cached free becomes a pass-through.

use nbbs::error::FreeError;
use nbbs::{BuddyBackend, BuddyConfig, CacheStatsSnapshot, Geometry, NbbsFourLevel, ScanPolicy};
use nbbs_benchmark::gen::{plan, OpKind, Workload};
use nbbs_benchmark::surface::r6_backends;
use nbbs_cache::MagazineCache;

/// A 16 MiB region.  First-fit, because the default scan starts where a
/// cursor kept per thread (not per tree) last stopped, so a second replay on
/// the same thread would start elsewhere whatever it ran on.
fn region() -> BuddyConfig {
    BuddyConfig::new(16 << 20, 32, 64 << 10)
        .expect("a valid geometry")
        .with_scan_policy(ScanPolicy::FirstFit)
}

/// Replays thread 0's array on `stack`; returns every offset it was given
/// and the cache counters at the end.
fn replay(stack: &impl BuddyBackend) -> (Vec<Option<usize>>, CacheStatsSnapshot) {
    let plan = plan(Workload::SmallChurn, 11, 1, 0.05);
    let mut slots = vec![None; plan.slots];
    let mut offsets = Vec::new();
    for op in &plan.ops[0] {
        match op.kind() {
            OpKind::Alloc => {
                let offset = stack.alloc(op.size().max(op.align()));
                offsets.push(offset);
                slots[op.slot()] = offset;
            }
            OpKind::Free => {
                if let Some(offset) = slots[op.slot()].take() {
                    stack.dealloc(offset);
                }
            }
            OpKind::Mark => {}
        }
    }
    (offsets, stack.cache_stats().expect("the stack has a cache"))
}

#[test]
fn the_spanned_stack_gives_the_offsets_and_cache_counters_of_the_bare_one() {
    let (bare, spanned) = r6_backends(region());
    let (bare_offsets, bare_stats) = replay(&bare);
    let (spanned_offsets, spanned_stats) = replay(&spanned);
    assert!(bare_offsets.iter().all(Option::is_some), "no request fails");
    assert_eq!(bare_offsets, spanned_offsets);
    assert_eq!(bare_stats, spanned_stats);
    assert!(
        bare_stats.cached_frees > 0 && bare_stats.hits > 0,
        "the cache was in use"
    );
}

/// A wrapper that forwards only what the trait forces it to.
struct Forgetful<A>(A);

impl<A: BuddyBackend> BuddyBackend for Forgetful<A> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn geometry(&self) -> &Geometry {
        self.0.geometry()
    }
    fn alloc(&self, size: usize) -> Option<usize> {
        self.0.alloc(size)
    }
    fn dealloc(&self, offset: usize) {
        self.0.dealloc(offset)
    }
    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        self.0.try_dealloc(offset)
    }
    fn allocated_bytes(&self) -> usize {
        self.0.allocated_bytes()
    }
}

#[test]
fn a_wrapper_that_forgets_a_forward_is_what_the_comparison_catches() {
    let honest = MagazineCache::new(NbbsFourLevel::new(region()));
    let forgetful = MagazineCache::new(Forgetful(NbbsFourLevel::new(region())));
    let (_, honest_stats) = replay(&honest);
    let (_, forgetful_stats) = replay(&forgetful);
    assert!(honest_stats.cached_frees > 0);
    assert_eq!(forgetful_stats.cached_frees, 0, "every free passed through");
    assert_ne!(honest_stats, forgetful_stats);
}
