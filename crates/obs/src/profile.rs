//! The sampled allocation-site heap profiler.
//!
//! One in every `stride` allocations (per thread) captures a
//! [`std::backtrace::Backtrace`], condenses it to an allocation-site label,
//! and hashes the label into a lock-free open-addressed *site table*
//! carrying live-bytes / live-objects / cumulative counters.  A second open-addressed table maps live offsets
//! back to their site so the matching free decrements the right row —
//! frees always probe (a sampled allocation must be un-counted by
//! whichever thread frees it), but the probe is one hashed lookup over an
//! atomic array, paid only while a profiler is attached.
//!
//! Sampling scales every *cumulative* figure by the stride; *live*
//! figures count exactly the sampled objects, so at `stride == 1` the
//! report attributes every live byte to a site — the property the
//! acceptance gate checks.
//!
//! Backtrace capture allocates internally; when the profiled allocator is
//! also the global allocator those allocations re-enter
//! [`HeapProfiler::record_alloc`].  A thread-local latch breaks the
//! recursion: re-entrant calls fall through to plain counting without a
//! second capture.

use std::backtrace::Backtrace;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default sampling stride: profile one in every 64 allocations.
pub const DEFAULT_PROFILE_STRIDE: u32 = 64;

/// Site-table rows (power of two; distinct allocation sites beyond this
/// are dropped and counted).
const SITE_SLOTS: usize = 1 << 10;

/// Live-map rows (power of two; sampled live objects beyond this are
/// dropped and counted).
const LIVE_SLOTS: usize = 1 << 14;

/// Longest probe sequence before an insert gives up.
const MAX_PROBE: usize = 128;

const LIVE_EMPTY: u64 = 0;
const LIVE_TOMBSTONE: u64 = u64::MAX;
/// Claimed by an insert that has not published its key yet; every other
/// thread probes past it.
const LIVE_BUSY: u64 = u64::MAX - 1;

thread_local! {
    static PROFILE_TICK: Cell<u32> = const { Cell::new(0) };
    static IN_CAPTURE: Cell<bool> = const { Cell::new(false) };
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct SiteSlot {
    /// Label hash; 0 = empty (a real hash of 0 is nudged to 1).
    key: AtomicU64,
    live_bytes: AtomicU64,
    live_objects: AtomicU64,
    cum_bytes: AtomicU64,
    cum_allocs: AtomicU64,
    label: OnceLock<String>,
}

struct LiveSlot {
    /// `offset + 1`; [`LIVE_EMPTY`] / [`LIVE_TOMBSTONE`] / [`LIVE_BUSY`]
    /// sentinels.
    key: AtomicU64,
    /// `site_index << 48 | size` (sizes cap far below 2⁴⁸ in this stack).
    val: AtomicU64,
}

/// One site row of a [`ProfileReport`], ranked by live bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// Condensed call-stack label (innermost frame first, `;`-joined).
    pub label: String,
    /// Bytes currently live that were sampled into this site.
    pub live_bytes: u64,
    /// Objects currently live that were sampled into this site.
    pub live_objects: u64,
    /// Stride-scaled estimate of all bytes ever allocated here.
    pub est_cum_bytes: u64,
    /// Stride-scaled estimate of all allocations ever made here.
    pub est_cum_allocs: u64,
}

/// A ranked dump of the profiler's site table.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Sites, largest `live_bytes` first.
    pub sites: Vec<SiteReport>,
    /// Sampling stride the profiler ran with.
    pub stride: u32,
    /// Allocations that passed the sampling gate.
    pub sampled_allocs: u64,
    /// Sampled allocations dropped because a table was full.
    pub dropped_samples: u64,
}

impl ProfileReport {
    /// Total live bytes attributed to sites.
    pub fn attributed_live_bytes(&self) -> u64 {
        self.sites.iter().map(|s| s.live_bytes).sum()
    }

    /// Renders the top `limit` sites as an aligned text report.
    pub fn text(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.attributed_live_bytes();
        let _ = writeln!(
            out,
            "== heap profile: {} B live over {} site(s) \
             (stride {}, {} sampled, {} dropped) ==",
            total,
            self.sites.len(),
            self.stride,
            self.sampled_allocs,
            self.dropped_samples
        );
        for site in self.sites.iter().take(limit) {
            let share = if total == 0 {
                0.0
            } else {
                site.live_bytes as f64 / total as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "  {:>10} B {share:>5.1}% {:>7} obj  ~{} B ever in ~{} allocs",
                site.live_bytes, site.live_objects, site.est_cum_bytes, site.est_cum_allocs
            );
            let _ = writeln!(out, "             at {}", site.label);
        }
        if self.sites.len() > limit {
            let _ = writeln!(out, "  ... {} more site(s)", self.sites.len() - limit);
        }
        out
    }
}

/// The lock-free sampled allocation-site profiler.
///
/// ```
/// use nbbs_obs::HeapProfiler;
///
/// let prof = HeapProfiler::new(1); // sample everything
/// prof.record_alloc(0x1000, 256);
/// prof.record_alloc(0x2000, 256);
/// prof.record_free(0x1000);
/// let report = prof.report();
/// assert_eq!(report.attributed_live_bytes(), 256);
/// ```
pub struct HeapProfiler {
    stride: u32,
    sites: Box<[SiteSlot]>,
    live: Box<[LiveSlot]>,
    sampled_allocs: AtomicU64,
    dropped_samples: AtomicU64,
}

impl HeapProfiler {
    /// Creates a profiler sampling one in `stride` allocations per thread
    /// (0 is treated as 1: profile everything).
    pub fn new(stride: u32) -> Self {
        HeapProfiler {
            stride: stride.max(1),
            sites: (0..SITE_SLOTS)
                .map(|_| SiteSlot {
                    key: AtomicU64::new(0),
                    live_bytes: AtomicU64::new(0),
                    live_objects: AtomicU64::new(0),
                    cum_bytes: AtomicU64::new(0),
                    cum_allocs: AtomicU64::new(0),
                    label: OnceLock::new(),
                })
                .collect(),
            live: (0..LIVE_SLOTS)
                .map(|_| LiveSlot {
                    key: AtomicU64::new(LIVE_EMPTY),
                    val: AtomicU64::new(0),
                })
                .collect(),
            sampled_allocs: AtomicU64::new(0),
            dropped_samples: AtomicU64::new(0),
        }
    }

    /// Observes one allocation granted at `offset` for `size` bytes.
    /// Cheap when the thread's tick says "not this one"; otherwise captures
    /// and condenses a backtrace.
    pub fn record_alloc(&self, offset: usize, size: usize) {
        let sampled = PROFILE_TICK.with(|t| {
            let v = t.get();
            t.set(v.wrapping_add(1));
            v % self.stride == 0
        });
        if !sampled {
            return;
        }
        self.sampled_allocs.fetch_add(1, Ordering::Relaxed);
        let reentered = IN_CAPTURE.with(|l| l.replace(true));
        let label = if reentered {
            // Capture itself allocated through the profiled allocator:
            // attribute to a synthetic site instead of recursing.
            "<profiler re-entrant capture>".to_string()
        } else {
            condense(&Backtrace::force_capture().to_string())
        };
        let outcome = self.account_alloc(&label, offset, size);
        if !reentered {
            IN_CAPTURE.with(|l| l.set(false));
        }
        if !outcome {
            self.dropped_samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn account_alloc(&self, label: &str, offset: usize, size: usize) -> bool {
        let hash = fnv1a(label.as_bytes()).max(1);
        let Some(site_idx) = self.intern_site(hash, label) else {
            return false;
        };
        let replaced = match self.insert_live(offset, site_idx, size) {
            None => return false,
            Some(replaced) => replaced,
        };
        if let Some(old) = replaced {
            // The allocator recycled a live-table offset without this
            // profiler seeing the free: un-count the stale object.
            let old_site = &self.sites[(old >> 48) as usize % SITE_SLOTS];
            old_site
                .live_bytes
                .fetch_sub(old & ((1 << 48) - 1), Ordering::Relaxed);
            old_site.live_objects.fetch_sub(1, Ordering::Relaxed);
        }
        let site = &self.sites[site_idx];
        site.live_bytes.fetch_add(size as u64, Ordering::Relaxed);
        site.live_objects.fetch_add(1, Ordering::Relaxed);
        site.cum_bytes.fetch_add(size as u64, Ordering::Relaxed);
        site.cum_allocs.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Observes the release of the allocation at `offset`.  A no-op for
    /// offsets whose allocation was not sampled.
    pub fn record_free(&self, offset: usize) {
        let key = offset as u64 + 1;
        let mut i = key as usize;
        for _ in 0..MAX_PROBE {
            let slot = &self.live[i % LIVE_SLOTS];
            match slot.key.load(Ordering::Acquire) {
                LIVE_EMPTY => return,
                k if k == key => {
                    // Read the value while the key still guards it: once
                    // the slot is a tombstone the next insert may claim it
                    // and write its own.  Then claim the slot; a racing
                    // double-free loses the CAS and decrements nothing.
                    let val = slot.val.load(Ordering::Relaxed);
                    if slot
                        .key
                        .compare_exchange(key, LIVE_TOMBSTONE, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        let site = &self.sites[(val >> 48) as usize % SITE_SLOTS];
                        let size = val & ((1 << 48) - 1);
                        site.live_bytes.fetch_sub(size, Ordering::Relaxed);
                        site.live_objects.fetch_sub(1, Ordering::Relaxed);
                    }
                    return;
                }
                _ => i += 1,
            }
        }
    }

    fn intern_site(&self, hash: u64, label: &str) -> Option<usize> {
        let mut i = hash as usize;
        for _ in 0..MAX_PROBE {
            let idx = i % SITE_SLOTS;
            let slot = &self.sites[idx];
            match slot.key.load(Ordering::Acquire) {
                0 => {
                    if slot
                        .key
                        .compare_exchange(0, hash, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        let _ = slot.label.set(label.to_string());
                        return Some(idx);
                    }
                    // Someone claimed it first; re-examine the same slot.
                }
                k if k == hash => return Some(idx),
                _ => i += 1,
            }
        }
        None
    }

    /// Inserts `offset → (site, size)`.  `None` when the probe gave up;
    /// `Some(Some(old_val))` when the offset was already present (recycled
    /// without a sampled free) and its stale value was replaced.
    fn insert_live(&self, offset: usize, site_idx: usize, size: usize) -> Option<Option<u64>> {
        let key = offset as u64 + 1;
        let val = ((site_idx as u64) << 48) | (size as u64 & ((1 << 48) - 1));
        let mut i = key as usize;
        for _ in 0..MAX_PROBE {
            let slot = &self.live[i % LIVE_SLOTS];
            let k = slot.key.load(Ordering::Relaxed);
            if k == LIVE_EMPTY || k == LIVE_TOMBSTONE {
                // Claim, value, key-publish: only the one thread that won
                // the slot writes its value, and a freeing thread that
                // acquires the key sees the matching value.
                if slot
                    .key
                    .compare_exchange(k, LIVE_BUSY, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    slot.val.store(val, Ordering::Relaxed);
                    slot.key.store(key, Ordering::Release);
                    return Some(None);
                }
                // Lost the slot; look at what it holds now.
            } else if k == key {
                let old = slot.val.swap(val, Ordering::Relaxed);
                return Some(Some(old));
            } else {
                i += 1;
            }
        }
        None
    }

    /// Dumps the site table, largest live footprint first.
    pub fn report(&self) -> ProfileReport {
        let stride = self.stride as u64;
        let mut sites: Vec<SiteReport> = self
            .sites
            .iter()
            .filter(|s| s.key.load(Ordering::Acquire) != 0)
            .map(|s| SiteReport {
                label: s.label.get().cloned().unwrap_or_default(),
                live_bytes: s.live_bytes.load(Ordering::Relaxed),
                live_objects: s.live_objects.load(Ordering::Relaxed),
                est_cum_bytes: s.cum_bytes.load(Ordering::Relaxed) * stride,
                est_cum_allocs: s.cum_allocs.load(Ordering::Relaxed) * stride,
            })
            .collect();
        sites.sort_by(|a, b| b.live_bytes.cmp(&a.live_bytes).then(a.label.cmp(&b.label)));
        ProfileReport {
            sites,
            stride: self.stride,
            sampled_allocs: self.sampled_allocs.load(Ordering::Relaxed),
            dropped_samples: self.dropped_samples.load(Ordering::Relaxed),
        }
    }
}

/// Frames between the user's call and the capture: the backtrace machinery,
/// this crate, the allocator stack above it and the `alloc` crate's entry
/// points.  Under a real `#[global_allocator]` the six innermost frames are
/// all of these, so a label that kept them would name no caller.
const PLUMBING: [&str; 8] = [
    "std::backtrace",
    "backtrace::",
    "nbbs_obs::",
    "nbbs_alloc::",
    "__rust_",
    "__rustc::",
    "alloc::alloc::",
    "alloc::raw_vec::",
];

/// Condenses a rendered backtrace into a site label: the six innermost
/// frames that are not [`PLUMBING`], `;`-joined.
fn condense(text: &str) -> String {
    let mut frames = Vec::new();
    for line in text.lines() {
        // Frame lines look like "   3: some::function::path"; location
        // lines ("        at src/x.rs:10") are skipped.
        let Some((idx, func)) = line.split_once(':') else {
            continue;
        };
        if idx.trim().parse::<u32>().is_err() {
            continue;
        }
        let func = func.trim();
        // `<T as Trait>::method` frames are matched by their type.
        let path = func.trim_start_matches('<');
        if func.is_empty() || PLUMBING.iter().any(|p| path.starts_with(p)) {
            continue;
        }
        frames.push(func);
        if frames.len() == 6 {
            break;
        }
    }
    if frames.is_empty() {
        // Symbols unavailable (stripped binary or disabled backtraces):
        // every allocation folds into one synthetic site.
        "<unresolved frames>".to_string()
    } else {
        frames.join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_accounting_is_exact_at_stride_one() {
        let prof = HeapProfiler::new(1);
        let mut total = 0u64;
        for i in 0..100usize {
            let size = 64 * (i % 7 + 1);
            prof.record_alloc(i * 4096, size);
            total += size as u64;
        }
        for i in (0..100usize).step_by(2) {
            prof.record_free(i * 4096);
            total -= 64 * (i % 7 + 1) as u64;
        }
        let report = prof.report();
        assert_eq!(report.attributed_live_bytes(), total);
        assert_eq!(report.sampled_allocs, 100);
        assert_eq!(report.dropped_samples, 0);
        let objects: u64 = report.sites.iter().map(|s| s.live_objects).sum();
        assert_eq!(objects, 50);
    }

    /// Two inserts that find the same free slot must not leave one key
    /// holding the other's site and size, and a free must not read the
    /// value of the insert that reuses its tombstone: every offset is freed
    /// for exactly what it was recorded with, so the books close at zero.
    #[test]
    fn threads_racing_for_one_slot_keep_their_own_values() {
        const THREADS: usize = 4;
        let prof = HeapProfiler::new(1);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (prof, start) = (&prof, &start);
                scope.spawn(move || {
                    let label = format!("site-{t}");
                    start.wait();
                    for round in 0..20_000usize {
                        // Offsets a table length apart share a home
                        // slot; each thread's sizes are its own.
                        let offset = t * LIVE_SLOTS + round % 8;
                        assert!(prof.account_alloc(&label, offset, 64 << t));
                        prof.record_free(offset);
                    }
                });
            }
        });
        let report = prof.report();
        assert_eq!(report.sites.len(), THREADS);
        for site in &report.sites {
            assert_eq!((site.live_bytes, site.live_objects), (0, 0), "{site:?}");
        }
    }

    #[test]
    fn frees_of_unsampled_offsets_are_no_ops() {
        let prof = HeapProfiler::new(1);
        prof.record_alloc(4096, 128);
        prof.record_free(8192);
        prof.record_free(4096);
        prof.record_free(4096); // double free decrements once
        assert_eq!(prof.report().attributed_live_bytes(), 0);
    }

    #[test]
    fn distinct_call_sites_get_distinct_rows() {
        #[inline(never)]
        fn site_a(prof: &HeapProfiler, off: usize) {
            prof.record_alloc(off, 100);
        }
        #[inline(never)]
        fn site_b(prof: &HeapProfiler, off: usize) {
            prof.record_alloc(off, 200);
        }
        let prof = HeapProfiler::new(1);
        for i in 0..5 {
            site_a(&prof, i * 64);
            site_b(&prof, 4096 + i * 64);
        }
        let report = prof.report();
        assert_eq!(report.attributed_live_bytes(), 1500);
        // With debug symbols the two wrappers resolve to different labels;
        // without them everything folds into "<unresolved frames>".  Both
        // are correct; only the byte totals are load-bearing.
        if report.sites.len() >= 2 {
            assert_eq!(report.sites[0].live_bytes, 1000, "ranked by live bytes");
        }
    }

    #[test]
    fn report_renders_text() {
        let prof = HeapProfiler::new(4);
        for i in 0..32 {
            prof.record_alloc(i * 256, 64);
        }
        let report = prof.report();
        assert_eq!(report.sampled_allocs, 8, "stride 4 over 32 allocs");
        assert_eq!((report.stride, report.attributed_live_bytes()), (4, 8 * 64));
        let text = report.text(5);
        assert!(
            text.starts_with("== heap profile: 512 B live over 1 site(s) (stride 4, 8 sampled"),
            "{text}"
        );
    }

    #[test]
    fn labels_start_at_the_first_user_frame() {
        // What `NBBS_PROFILE=8 cargo run --release --example
        // global_allocator` captures: everything down to frame 10 is the
        // allocator, and keeping "the first six" named no caller at all.
        let captured = "\
   0: std::backtrace_rs::backtrace::libunwind::trace
             at /rustc/x/library/std/src/../../backtrace/src/backtrace/libunwind.rs:117:9
   1: std::backtrace::Backtrace::create
   2: nbbs_obs::profile::HeapProfiler::record_alloc
   3: nbbs_alloc::facade::NbbsAllocator<A>::account_grant
   4: nbbs_alloc::facade::NbbsAllocator<A>::allocate_inner
   5: nbbs_alloc::facade::NbbsAllocator<A>::allocate
   6: <nbbs_alloc::global::NbbsGlobalAlloc as core::alloc::global::GlobalAlloc>::alloc
   7: __rustc::__rust_alloc
   8: alloc::alloc::alloc
   9: <alloc::alloc::Global as core::alloc::Allocator>::allocate
  10: alloc::raw_vec::RawVecInner<A>::try_allocate_in
  11: global_allocator::churn
             at ./examples/global_allocator.rs:60:17
  12: global_allocator::main
";
        assert_eq!(
            condense(captured),
            "global_allocator::churn;global_allocator::main"
        );
        assert_eq!(condense("no frames here"), "<unresolved frames>");
    }

    #[test]
    fn recycled_offsets_replace_the_stale_row() {
        let prof = HeapProfiler::new(1);
        prof.record_alloc(4096, 100);
        // The allocator recycled offset 4096 without the profiler seeing
        // the free — the new object replaces the stale row rather than
        // double-counting.
        prof.record_alloc(4096, 300);
        assert_eq!(prof.report().attributed_live_bytes(), 300);
        prof.record_free(4096);
        assert_eq!(prof.report().attributed_live_bytes(), 0);
    }
}
