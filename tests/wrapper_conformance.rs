//! Every `BuddyBackend` wrapper must answer the optional read-out and
//! maintenance methods with what the backend it wraps answers, unless it
//! documents an answer of its own.
//!
//! The hazard is silent: the methods have defaults, so a wrapper that lacks
//! a forward still compiles and still serves every request.  The probe
//! below is a leaf that returns a distinct sentinel from each of the
//! fifteen optional methods (none of them equal to the leaf default); the
//! table wraps it in each layer of the workspace and compares answers.
//!
//! One of them must *not* always arrive: `scrub_dealloc_run` frees a whole
//! scrub run in the backend, so a wrapper that translates or intercepts
//! `scrub_dealloc` (a lock, a fault injector, a slotted set) keeps the
//! default, which frees nothing and sends the scrubber back to its
//! per-block route.  The wrappers that pass the scrubber straight through
//! must forward it, or the tree beneath never gives its `index[]` back.
//!
//! The sized release is checked the same way: `dealloc_sized` defaults to
//! `dealloc`, so a wrapper that lacks the forward still releases the block,
//! but a cache beneath it is back to looking the size up.  The wrappers a
//! cache can sit beneath must deliver offset *and* size; every wrapper must
//! deliver the release.

use std::sync::{Arc, Mutex};

use nbbs::error::FreeError;
use nbbs::mapping::page_size;
use nbbs::{
    BuddyBackend, BuddyConfig, BuddyRegion, CacheStatsSnapshot, ElasticSet, FragStatsSnapshot,
    Geometry, LockedBuddy, NbbsFourLevel, OccupancySnapshot, OpStatsSnapshot,
};
use nbbs_cache::MagazineCache;
use nbbs_chaos::FaultInjecting;
use nbbs_numa::NodeSet;
use nbbs_obs::{Recorded, Recorder};
use nbbs_slab::SlabBackend;

/// What reached the probe through the calls that return nothing.
type Calls = Arc<Mutex<Vec<String>>>;

/// A leaf that serves nothing and answers every optional method with a
/// value no default produces.
struct Probe {
    geometry: Geometry,
    calls: Calls,
}

impl Probe {
    fn new(calls: &Calls) -> Self {
        let config = BuddyConfig::new(1 << 20, 64, 1 << 16).expect("a valid geometry");
        Probe {
            geometry: Geometry::new(&config),
            calls: Arc::clone(calls),
        }
    }

    fn note(&self, call: String) {
        self.calls.lock().unwrap().push(call);
    }
}

/// The probe's grant ladder: multiples of 3 KiB, which no geometry grants.
const GRANT_STEP: usize = 3 << 10;

/// What the probe says every live block was granted.  Not on its own grant
/// ladder, so a cache around the probe has no class for it.
const LIVE_SIZE: usize = 48;

impl BuddyBackend for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn geometry(&self) -> &Geometry {
        &self.geometry
    }
    fn alloc(&self, _size: usize) -> Option<usize> {
        None
    }
    fn dealloc(&self, offset: usize) {
        self.note(format!("dealloc({offset})"));
    }
    fn dealloc_sized(&self, offset: usize, granted: usize) {
        self.note(format!("dealloc_sized({offset}, {granted})"));
    }
    fn try_dealloc(&self, _offset: usize) -> Result<(), FreeError> {
        Ok(())
    }
    fn allocated_bytes(&self) -> usize {
        0
    }

    fn total_memory(&self) -> usize {
        768 << 10
    }
    fn stats(&self) -> OpStatsSnapshot {
        OpStatsSnapshot {
            allocs: 7,
            ..Default::default()
        }
    }
    fn granted_size_of_live(&self, _offset: usize) -> Option<usize> {
        Some(LIVE_SIZE)
    }
    fn granted_size_for(&self, size: usize) -> Option<usize> {
        Some(size.next_multiple_of(GRANT_STEP))
    }
    fn grant_alignment_for(&self, _size: usize) -> Option<usize> {
        Some(4)
    }
    fn frag_stats(&self) -> Option<FragStatsSnapshot> {
        Some(FragStatsSnapshot {
            pages_retired: 77,
            ..Default::default()
        })
    }
    fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        Some(CacheStatsSnapshot {
            hits: 99,
            ..Default::default()
        })
    }
    fn cache_class_capacities(&self) -> Option<Vec<(usize, usize)>> {
        Some(vec![(96, 5)])
    }
    fn drain_cache(&self) {
        self.note("drain_cache()".into());
    }
    fn occupancy(&self) -> Option<OccupancySnapshot> {
        Some(OccupancySnapshot {
            free_blocks: 11,
            merged_trees: 1,
            ..Default::default()
        })
    }
    fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>> {
        Some(vec![(192, min_size)])
    }
    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        self.note(format!("scrub_claim({offset}, {size})"));
        true
    }
    fn scrub_dealloc(&self, offset: usize) {
        self.note(format!("scrub_dealloc({offset})"));
    }
    fn scrub_dealloc_run(&self, run: &[(usize, usize)]) -> Option<usize> {
        self.note(format!("scrub_dealloc_run({run:?})"));
        Some(RUN_METADATA)
    }
    fn trim_empty_pages(&self) -> usize {
        3
    }
}

/// One answer per optional method.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    total_memory: usize,
    stats: OpStatsSnapshot,
    granted_size_of_live: Option<usize>,
    granted_size_for: Option<usize>,
    grant_alignment_for: Option<usize>,
    frag_stats: Option<FragStatsSnapshot>,
    cache_stats: Option<CacheStatsSnapshot>,
    cache_class_capacities: Option<Vec<(usize, usize)>>,
    occupancy: Option<OccupancySnapshot>,
    free_chunks: Option<Vec<(usize, usize)>>,
    scrub_claim: bool,
    scrub_dealloc_run: Option<usize>,
    trim_empty_pages: usize,
    /// What `drain_cache`, `scrub_claim`, `scrub_dealloc` and
    /// `scrub_dealloc_run` reached the probe as.
    maintenance: Vec<String>,
    /// What `dealloc_sized(128, LIVE_SIZE)` reached the probe as.
    release: Vec<String>,
}

/// What the probe says a scrub run gave back.
const RUN_METADATA: usize = 12_288;

/// The run `ask` hands over, as the probe notes it.
const RUN_CALL: &str = "scrub_dealloc_run([(128, 64), (192, 64)])";

/// A request size above the slab cutoff, so a slab layer passes it on.
const ASK_SIZE: usize = 4096;

fn ask(backend: &dyn BuddyBackend, calls: &Calls) -> Answers {
    backend.drain_cache();
    let scrub_claim = backend.scrub_claim(128, 64);
    backend.scrub_dealloc(128);
    let scrub_dealloc_run = backend.scrub_dealloc_run(&[(128, 64), (192, 64)]);
    let maintenance = std::mem::take(&mut *calls.lock().unwrap());
    // The size named is the one the probe's own lookup answers, as the
    // contract demands (a cache cross-checks it in debug builds).
    backend.dealloc_sized(128, LIVE_SIZE);
    Answers {
        total_memory: backend.total_memory(),
        stats: backend.stats(),
        granted_size_of_live: backend.granted_size_of_live(128),
        granted_size_for: backend.granted_size_for(ASK_SIZE),
        grant_alignment_for: backend.grant_alignment_for(ASK_SIZE),
        frag_stats: backend.frag_stats(),
        cache_stats: backend.cache_stats(),
        cache_class_capacities: backend.cache_class_capacities(),
        occupancy: backend.occupancy(),
        free_chunks: backend.free_chunks(256),
        scrub_claim,
        scrub_dealloc_run,
        trim_empty_pages: backend.trim_empty_pages(),
        maintenance,
        release: std::mem::take(&mut *calls.lock().unwrap()),
    }
}

/// A wrapper under test: how to put it around the probe, and `own`, which
/// rewrites the expected answers (the probe's) where the wrapper documents
/// an answer of its own, checking that answer against what it `got`.
struct Case {
    wrapper: &'static str,
    wrap: fn(Probe) -> Box<dyn BuddyBackend>,
    own: fn(got: &Answers, want: &mut Answers),
    /// Whether a cache can sit beneath the wrapper under a sized caller, so
    /// that `dealloc_sized` must arrive with its size.  The others may keep
    /// the default and deliver `dealloc(offset)`.
    hands_the_size_on: bool,
    /// Whether the wrapper's scrub release is a plain hand-down, so that a
    /// whole run must reach the backend.  The others must keep the
    /// default: nothing reaches the backend and the answer is `None`.
    forwards_the_run: bool,
}

fn nothing(_: &Answers, _: &mut Answers) {}

const CASES: &[Case] = &[
    Case {
        wrapper: "&",
        // A `&'static Probe` is the only reference a boxed case can hold.
        wrap: |p| Box::new(&*Box::leak(Box::new(p))),
        own: nothing,
        hands_the_size_on: true,
        forwards_the_run: true,
    },
    Case {
        wrapper: "Arc",
        wrap: |p| Box::new(Arc::new(p)),
        own: nothing,
        hands_the_size_on: true,
        forwards_the_run: true,
    },
    Case {
        wrapper: "Recorded",
        wrap: |p| Box::new(Recorded::new(p, Arc::new(Recorder::new()))),
        own: nothing,
        hands_the_size_on: true,
        forwards_the_run: true,
    },
    Case {
        wrapper: "FaultInjecting",
        wrap: |p| Box::new(FaultInjecting::inert(p)),
        own: nothing,
        hands_the_size_on: false,
        forwards_the_run: false,
    },
    Case {
        wrapper: "LockedBuddy",
        wrap: |p| Box::new(LockedBuddy::with_name(p, "probe-sl")),
        own: nothing,
        hands_the_size_on: false,
        forwards_the_run: false,
    },
    Case {
        wrapper: "BuddyRegion",
        wrap: |p| Box::new(BuddyRegion::new(p)),
        own: nothing,
        hands_the_size_on: true,
        forwards_the_run: true,
    },
    Case {
        wrapper: "MagazineCache",
        wrap: |p| Box::new(MagazineCache::new(p)),
        // The cache *is* the caching layer the two cache hooks describe.
        own: |got, want| {
            assert!(got.cache_stats.is_some_and(|s| s.hits == 0));
            assert!(got.cache_class_capacities.is_some());
            want.cache_stats = got.cache_stats;
            want.cache_class_capacities = got.cache_class_capacities.clone();
        },
        hands_the_size_on: true,
        forwards_the_run: true,
    },
    Case {
        wrapper: "SlabBackend",
        wrap: |p| Box::new(SlabBackend::new(p)),
        // The slab *is* the layer `frag_stats` describes.
        own: |got, want| {
            assert!(got
                .frag_stats
                .as_ref()
                .is_some_and(|f| f.pages_retired == 0));
            want.frag_stats = got.frag_stats.clone();
        },
        hands_the_size_on: false,
        forwards_the_run: true,
    },
    Case {
        wrapper: "NodeSet",
        wrap: |p| Box::new(NodeSet::new(vec![p])),
        // A slotted set reports its logical span, `slots × per-slot span`.
        own: |_, want| want.total_memory = 1 << 20,
        hands_the_size_on: false,
        forwards_the_run: false,
    },
    Case {
        wrapper: "ElasticSet",
        wrap: |p| {
            let first = Mutex::new(Some(p));
            Box::new(ElasticSet::new(2, move |_| {
                first.lock().unwrap().take().expect("only slot 0 is built")
            }))
        },
        own: |_, want| want.total_memory = 2 << 20,
        hands_the_size_on: false,
        forwards_the_run: false,
    },
];

#[test]
fn a_wrapper_answers_what_its_backend_answers_unless_it_documents_otherwise() {
    let calls = Calls::default();
    let bare = ask(&Probe::new(&calls), &calls);
    assert_eq!(
        bare.maintenance,
        [
            "drain_cache()",
            "scrub_claim(128, 64)",
            "scrub_dealloc(128)",
            RUN_CALL
        ]
    );
    assert_eq!(bare.release, [format!("dealloc_sized(128, {LIVE_SIZE})")]);

    let mut failures = Vec::new();
    for case in CASES {
        let calls = Calls::default();
        let wrapped = (case.wrap)(Probe::new(&calls));
        let got = ask(wrapped.as_ref(), &calls);
        let mut want = bare.clone();
        (case.own)(&got, &mut want);
        if !case.hands_the_size_on && got.release == ["dealloc(128)"] {
            want.release = got.release.clone();
        }
        if !case.forwards_the_run {
            want.scrub_dealloc_run = None;
            want.maintenance.retain(|call| call != RUN_CALL);
        }
        if got != want {
            failures.push(format!(
                "{}:\n   got {got:?}\n  want {want:?}",
                case.wrapper
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "wrappers that lost a forward:\n{}",
        failures.join("\n")
    );
}

/// The run reaches a real tree through `Arc`, the magazine cache and the
/// slab, as the scrubber of a region over that stack hands it down: the
/// tree frees the blocks and answers with the metadata bytes it dropped.
#[test]
fn a_scrub_run_reaches_the_tree_through_arc_cache_and_slab() {
    const BLOCK: usize = 64 << 10;
    // 8 MiB of 32 B units: a mapped 256 KiB `index[]`.
    let tree = NbbsFourLevel::new(BuddyConfig::new(8 << 20, 32, BLOCK).unwrap());
    let stack = Arc::new(MagazineCache::new(SlabBackend::new(tree)));
    let run: Vec<_> = (0..4).map(|i| (i * BLOCK, BLOCK)).collect();
    for &(offset, size) in &run {
        assert!(stack.scrub_claim(offset, size), "block at {offset}");
    }
    assert_eq!(stack.allocated_bytes(), 4 * BLOCK);
    let dropped = stack
        .scrub_dealloc_run(&run)
        .expect("every layer forwards the run to the tree");
    if cfg!(target_os = "linux") && page_size() == 4096 {
        // A leaf-layer word holds eight 32 B units, so its pages follow
        // `index[]`'s byte for byte where the scrubber can drop them.
        let words = if nbbs_sync::Grace::new().can_wait() {
            4 * BLOCK / 32
        } else {
            0
        };
        assert_eq!(
            dropped,
            4 * BLOCK / 32 + words,
            "the two index pages and the two leaf-word pages under 256 KiB"
        );
    }
    assert_eq!(stack.allocated_bytes(), 0, "the tree freed the run");
    nbbs::verify::audit_empty(SlabBackend::inner(stack.backend())).assert_clean();
}

/// The global shell's composition, the cache over a region over the tree.
/// The region hands the lookups and the sized release to the tree; it
/// commits a block's pages when the tree grants it, so a chunk parked in a
/// magazine keeps its pages (and its bytes) through a scrub pass, and a
/// drained cache leaves nothing committed after one pass.
#[test]
fn a_cache_over_a_region_reaches_the_tree_and_keeps_its_parked_pages() {
    const LARGEST: usize = 64 << 10;
    let tree = NbbsFourLevel::new(BuddyConfig::new(4 << 20, 32, LARGEST).unwrap());
    let stack = MagazineCache::new(BuddyRegion::new(tree));
    let region = stack.backend();
    let tree = region.backend();
    let page = page_size();
    for size in [1, 33, page - 1, page, LARGEST, LARGEST + 1] {
        assert_eq!(region.granted_size_for(size), tree.granted_size_for(size));
        assert_eq!(
            region.grant_alignment_for(size),
            tree.grant_alignment_for(size)
        );
    }

    // A miss: the region commits the block and the refill behind it.
    let offset = stack.alloc(page).expect("an empty tree");
    assert_eq!(region.granted_size_of_live(offset), Some(page));
    let ptr = region.base().as_ptr().wrapping_add(offset);
    // SAFETY: a live block of `page` bytes.
    unsafe { ptr.write_bytes(0xA5, page) };
    let committed = region.committed_bytes();
    assert!(committed > page, "the refill's blocks are committed too");

    // Parked, the chunk is live in the tree: no pass claims it.
    stack.dealloc_sized(offset, page);
    assert!(stack.contains_cached(offset));
    assert_eq!(region.scrub_pass(), 0, "every committed block is parked");
    assert_eq!(region.committed_bytes(), committed);
    // SAFETY: the chunk is parked, not freed in the tree; its pages stay.
    assert_eq!(unsafe { *ptr.add(page - 1) }, 0xA5, "the parked bytes");
    assert_eq!(stack.alloc(page), Some(offset), "a hit serves it back");
    stack.dealloc_sized(offset, page);

    // The sized release reaches the tree through the region.
    let raw = region.alloc(LARGEST).expect("room for a largest block");
    assert_eq!(tree.granted_size_of_live(raw), Some(LARGEST));
    region.dealloc_sized(raw, LARGEST);
    assert_eq!(tree.granted_size_of_live(raw), None, "freed in the tree");

    stack.drain_all();
    assert_eq!(tree.allocated_bytes(), 0);
    region.scrub_pass();
    assert_eq!(region.committed_bytes(), 0, "one pass after the drain");
    nbbs::verify::audit_empty(tree).assert_clean();
}
