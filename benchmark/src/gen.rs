//! Workload inputs: every operation a thread will issue, generated from the
//! seed before the timed region, so the random-number cost stays outside it
//! and a given seed replays the same calls.

/// SplitMix64: small, fast, and good enough to shuffle slots and pick sizes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `percent` in a hundred.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The four workloads.  The names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallChurn,
    Tide,
    TreeDirect,
    AppGlobal,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmallChurn,
        Workload::Tide,
        Workload::TreeDirect,
        Workload::AppGlobal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallChurn => "small-churn",
            Workload::Tide => "tide",
            Workload::TreeDirect => "tree-direct",
            Workload::AppGlobal => "app-global",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(total, unit, largest request)` of the arena the workload runs on.
    /// The first is the geometry `NbbsGlobalAlloc` documents, the second the
    /// kernel page-frame one.
    pub fn geometry(self) -> (usize, usize, usize) {
        match self {
            Workload::TreeDirect => (64 << 20, 4 << 10, 64 << 10),
            _ => (64 << 20, 32, 64 << 10),
        }
    }
}

/// One entry of a thread's array, packed into 32 bits:
/// `kind:2 | remote:1 | align64:1 | slot:13 | size:15`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Op(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Allocate `size` bytes at the op's alignment into the (empty) slot.
    Alloc,
    /// Free the block in the slot, or hand it to the next thread to free.
    Free,
    /// All threads meet; the leader measures.  The slot field holds a
    /// [`Mark`].
    Mark,
}

/// What the leader does at a meeting point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The live set is at its intended size: read granted and requested
    /// bytes and the resident set.
    Mid = 0,
    /// Load is gone: `drain_cache()` then `scrub_pass()`, resident set
    /// before and after.
    Night = 1,
}

pub const MAX_SLOTS: usize = 1 << 13;
pub const MAX_SIZE: usize = (1 << 15) - 1;

impl Op {
    pub fn alloc(slot: usize, size: usize, align64: bool) -> Op {
        assert!(slot < MAX_SLOTS && size <= MAX_SIZE);
        Op((u32::from(align64) << 28) | ((slot as u32) << 15) | size as u32)
    }

    pub fn free(slot: usize, remote: bool) -> Op {
        assert!(slot < MAX_SLOTS);
        Op((1 << 30) | (u32::from(remote) << 29) | ((slot as u32) << 15))
    }

    pub fn mark(mark: Mark) -> Op {
        Op((2 << 30) | ((mark as u32) << 15))
    }

    #[inline]
    pub fn kind(self) -> OpKind {
        match self.0 >> 30 {
            0 => OpKind::Alloc,
            1 => OpKind::Free,
            _ => OpKind::Mark,
        }
    }

    #[inline]
    pub fn remote(self) -> bool {
        self.0 & (1 << 29) != 0
    }

    #[inline]
    pub fn align(self) -> usize {
        if self.0 & (1 << 28) != 0 {
            64
        } else {
            8
        }
    }

    #[inline]
    pub fn slot(self) -> usize {
        ((self.0 >> 15) & (MAX_SLOTS as u32 - 1)) as usize
    }

    #[inline]
    pub fn size(self) -> usize {
        (self.0 & MAX_SIZE as u32) as usize
    }

    pub fn which_mark(self) -> Mark {
        if self.slot() == Mark::Night as usize {
            Mark::Night
        } else {
            Mark::Mid
        }
    }
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind() {
            OpKind::Alloc => write!(f, "alloc[{}] {}@{}", self.slot(), self.size(), self.align()),
            OpKind::Free => write!(f, "free[{}] remote={}", self.slot(), self.remote()),
            OpKind::Mark => write!(f, "mark {:?}", self.which_mark()),
        }
    }
}

/// Everything one trial replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub workload: Workload,
    /// One array per caller thread.  Every array holds the same marks in
    /// the same order.
    pub ops: Vec<Vec<Op>>,
    /// Leading ops of each array that build the live set before the clock
    /// starts.
    pub prefix: usize,
    pub slots: usize,
    /// Write one byte into every 4 KiB page of a block after allocating it.
    pub touch_pages: bool,
}

/// The size table of `small-churn`: 60 % 16–128 B, 30 % 129–1024 B, 10 %
/// 1–4 KiB, none a power of two.  Fixed: the seed picks from it, it does not
/// change it.
pub fn web_sizes() -> Vec<usize> {
    let mut rng = Rng::new(0x5EED_0F7A_B1E5);
    let mut sizes = Vec::with_capacity(256);
    for (count, lo, hi) in [(154, 16, 128), (77, 129, 1024), (25, 1025, 4096)] {
        for _ in 0..count {
            let mut size = rng.between(lo, hi) as usize;
            if size.is_power_of_two() {
                size += 8;
            }
            sizes.push(size.min(hi as usize - 1));
        }
    }
    sizes
}

/// Full-size replacements per thread at `scale` 1.0, chosen so one trial
/// measures about a fifth of a second on the host the benchmark was defined
/// on.  Trials are short and many on purpose: that host's speed shifts by a
/// quarter from one second to the next, which a median over dozens of short
/// trials rides out and a handful of long ones does not.
const SMALL_CHURN_REPLACEMENTS: f64 = 250_000.0;
const TREE_DIRECT_REPLACEMENTS: f64 = 250_000.0;
const TIDE_DAYS: usize = 2;
const TIDES_PER_DAY: f64 = 28.0;
/// Requested bytes live at the top of a tide, all threads together.  Blocks
/// of 4–16 KiB are granted 8 or 16 KiB, so this is about 40 MiB granted:
/// five eighths of the arena, far beyond the cache's byte budget, with room
/// left so that no request fails.
const TIDE_LIVE_BYTES: usize = 30 << 20;

/// Generates the arrays of `workload` for `threads` threads.  `scale`
/// shortens (or lengthens) the timed part; the live set does not scale.
pub fn plan(workload: Workload, seed: u64, threads: usize, scale: f64) -> Plan {
    assert!(threads >= 1);
    let per_thread = |t: usize| Rng::new(seed ^ ((t as u64 + 1) << 48) ^ 0xA110C);
    match workload {
        Workload::SmallChurn => {
            let sizes = web_sizes();
            let slots = 4096;
            let replacements = (SMALL_CHURN_REPLACEMENTS * scale).max(64.0) as usize;
            let ops = (0..threads)
                .map(|t| {
                    let mut rng = per_thread(t);
                    let mut pick = |rng: &mut Rng, slot| {
                        let size = sizes[rng.below(sizes.len() as u64) as usize];
                        Op::alloc(slot, size, rng.below(16) == 0)
                    };
                    churn(&mut rng, slots, replacements, &mut pick)
                })
                .collect();
            Plan {
                workload,
                ops,
                prefix: slots,
                slots,
                touch_pages: false,
            }
        }
        Workload::TreeDirect => {
            // The same occupancy (about 60 %) at any thread count.
            let slots = 4096 / threads;
            let replacements = (TREE_DIRECT_REPLACEMENTS * scale).max(64.0) as usize;
            let ops = (0..threads)
                .map(|t| {
                    let mut rng = per_thread(t);
                    let mut pick =
                        |rng: &mut Rng, slot| Op::alloc(slot, 4096 << rng.below(3), false);
                    churn(&mut rng, slots, replacements, &mut pick)
                })
                .collect();
            Plan {
                workload,
                ops,
                prefix: slots,
                slots,
                touch_pages: false,
            }
        }
        Workload::Tide => {
            let tides_per_day = ((TIDES_PER_DAY * scale).round() as usize).max(1);
            let target = TIDE_LIVE_BYTES / threads;
            let mid_tide = TIDE_DAYS * tides_per_day / 2;
            let mut slots = 0;
            let ops = (0..threads)
                .map(|t| {
                    let mut rng = per_thread(t);
                    let size = |rng: &mut Rng| {
                        let s = rng.between(4097, 16383) as usize;
                        if s.is_power_of_two() {
                            s + 64
                        } else {
                            s
                        }
                    };
                    let mut ops = Vec::new();
                    for tide in 0..TIDE_DAYS * tides_per_day {
                        // Ramp: allocate until the live set reaches the target.
                        let (mut n, mut live) = (0, 0);
                        while live < target {
                            let s = size(&mut rng);
                            ops.push(Op::alloc(n, s, true));
                            live += s;
                            n += 1;
                        }
                        slots = slots.max(n);
                        // Replace every block once, in random order.
                        let mut order: Vec<usize> = (0..n).collect();
                        for i in (1..n).rev() {
                            order.swap(i, rng.below(i as u64 + 1) as usize);
                        }
                        for slot in order {
                            ops.push(Op::free(slot, false));
                            ops.push(Op::alloc(slot, size(&mut rng), true));
                        }
                        if tide == mid_tide {
                            ops.push(Op::mark(Mark::Mid));
                        }
                        // Ebb: free everything.
                        ops.extend((0..n).map(|slot| Op::free(slot, false)));
                        if (tide + 1) % tides_per_day == 0 {
                            ops.push(Op::mark(Mark::Night));
                        }
                    }
                    ops
                })
                .collect();
            Plan {
                workload,
                ops,
                prefix: 0,
                slots,
                touch_pages: true,
            }
        }
        Workload::AppGlobal => panic!("app-global runs a program, not an array"),
    }
}

/// Larson-style slot replacement: fill every slot, then `replacements` times
/// free a random slot (30 % of the frees handed to the next thread) and
/// allocate into it again; one `Mid` mark half way.
fn churn(
    rng: &mut Rng,
    slots: usize,
    replacements: usize,
    pick: &mut dyn FnMut(&mut Rng, usize) -> Op,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(slots + 2 * replacements + 1);
    for slot in 0..slots {
        ops.push(pick(rng, slot));
    }
    for i in 0..replacements {
        if i == replacements / 2 {
            ops.push(Op::mark(Mark::Mid));
        }
        let slot = rng.below(slots as u64) as usize;
        ops.push(Op::free(slot, rng.chance(30)));
        ops.push(pick(rng, slot));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_fields_round_trip() {
        let a = Op::alloc(8191, 16383, true);
        assert_eq!(
            (a.kind(), a.slot(), a.size(), a.align()),
            (OpKind::Alloc, 8191, 16383, 64)
        );
        let f = Op::free(17, true);
        assert_eq!((f.kind(), f.slot(), f.remote()), (OpKind::Free, 17, true));
        assert!(!Op::free(17, false).remote());
        assert_eq!(Op::mark(Mark::Night).which_mark(), Mark::Night);
        assert_eq!(Op::mark(Mark::Mid).which_mark(), Mark::Mid);
        assert_eq!(Op::alloc(0, 100, false).align(), 8);
    }

    #[test]
    fn the_same_seed_gives_the_same_arrays_and_another_seed_does_not() {
        for w in [Workload::SmallChurn, Workload::Tide, Workload::TreeDirect] {
            let a = plan(w, 7, 2, 0.01);
            assert_eq!(a, plan(w, 7, 2, 0.01), "{w:?}");
            assert_ne!(a.ops, plan(w, 8, 2, 0.01).ops, "{w:?}");
            assert_ne!(a.ops[0], a.ops[1], "threads replay different arrays");
        }
    }

    #[test]
    fn arrays_are_well_formed() {
        for w in [Workload::SmallChurn, Workload::Tide, Workload::TreeDirect] {
            let p = plan(w, 3, 2, 0.02);
            let marks = |t: &Vec<Op>| -> Vec<Mark> {
                t.iter()
                    .filter(|o| o.kind() == OpKind::Mark)
                    .map(|o| o.which_mark())
                    .collect()
            };
            assert_eq!(marks(&p.ops[0]), marks(&p.ops[1]), "{w:?}: same marks");
            assert!(marks(&p.ops[0]).contains(&Mark::Mid), "{w:?}");
            for t in &p.ops {
                // Replaying the array never allocates into a full slot or
                // frees an empty one.
                let mut full = vec![false; p.slots];
                for op in t {
                    match op.kind() {
                        OpKind::Alloc => {
                            assert!(!std::mem::replace(&mut full[op.slot()], true));
                            assert!(op.size() >= 16, "room for the header");
                        }
                        OpKind::Free => assert!(std::mem::replace(&mut full[op.slot()], false)),
                        OpKind::Mark => {}
                    }
                }
            }
        }
    }

    #[test]
    fn web_sizes_follow_the_documented_mix() {
        let sizes = web_sizes();
        assert_eq!(sizes.len(), 256);
        assert!(sizes
            .iter()
            .all(|s| !s.is_power_of_two() && (16..4096).contains(s)));
        assert_eq!(sizes.iter().filter(|&&s| s <= 128).count(), 154);
        assert_eq!(sizes.iter().filter(|&&s| s > 1024).count(), 25);
    }

    #[test]
    fn tide_nights_end_every_day_and_the_live_set_reaches_its_target() {
        let p = plan(Workload::Tide, 1, 2, 0.1);
        let nights = p.ops[0]
            .iter()
            .filter(|o| o.kind() == OpKind::Mark && o.which_mark() == Mark::Night)
            .count();
        assert_eq!(nights, TIDE_DAYS);
        assert_eq!(p.ops[0].last().map(|o| o.which_mark()), Some(Mark::Night));
        let mut live = 0usize;
        let mut peak = 0usize;
        let mut sizes = vec![0usize; p.slots];
        for op in &p.ops[0] {
            match op.kind() {
                OpKind::Alloc => {
                    sizes[op.slot()] = op.size();
                    live += op.size();
                    peak = peak.max(live);
                }
                OpKind::Free => live -= sizes[op.slot()],
                OpKind::Mark => {}
            }
        }
        assert_eq!(live, 0);
        assert!((TIDE_LIVE_BYTES / 2..TIDE_LIVE_BYTES / 2 + (1 << 20)).contains(&peak));
    }
}
