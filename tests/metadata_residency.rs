//! What the shipped tree's metadata costs in resident memory.
//!
//! `NbbsFourLevel` over the arena `NbbsGlobalAlloc`'s documentation shows
//! (64 MiB in 32 B units, 64 KiB blocks) reserves 4.1 MiB of metadata: a
//! 2 MiB `index[]` (one byte per unit) and 2.1 MiB of bunch words.  Both
//! come from zeroed memory, so building the tree must not write them,
//! serving one block must cost a few pages, not the arrays, and blocks
//! spread over the whole span must cost what their `index[]` bytes and
//! node words fill, not four times that.  A slab over the tree keeps its
//! page words, bitmap and per-class partial lists in zeroed memory too, so
//! building it must not write them either.  And what a day writes, a night
//! gives back: once those blocks are free, one scrub pass returns their
//! pages, the `index[]` pages under them and the pages of the bunch layers
//! below the blocks the pass claims.
//!
//! The figure read is the `Anonymous:` line of `/proc/self/smaps_rollup`.
//! With transparent huge pages set to `[always]` the kernel may back a first
//! write with a 2 MiB page, so residency no longer follows the pages
//! written; the tests then say so and check nothing.  They print the mode
//! they ran under either way, and run one at a time: each reads what the
//! whole process holds.

use std::collections::BTreeMap;
use std::sync::Mutex;

use nbbs::verify::{audit, audit_empty};
use nbbs::{BuddyConfig, BuddyRegion, NbbsFourLevel};
use nbbs_slab::SlabBackend;
use nbbs_sync::Grace;

/// Held by each test while it reads the process's resident memory.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Anonymous resident memory of this process, in KiB.
fn anonymous_kib() -> Option<usize> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let line = rollup.lines().find_map(|l| l.strip_prefix("Anonymous:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The selected transparent-huge-page mode (`always`, `madvise`, `never`).
fn thp_mode() -> Option<String> {
    let modes = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
    let open = modes.find('[')? + 1;
    let close = modes.find(']')?;
    Some(modes.get(open..close)?.to_string())
}

/// Anonymous resident memory now, or `None` (with the reason on stderr)
/// where the figure would not mean what the tests assert.
fn resident_kib_if_meaningful() -> Option<usize> {
    let thp = thp_mode();
    eprintln!(
        "transparent huge pages: [{}]",
        thp.as_deref().unwrap_or("unknown")
    );
    if thp.as_deref() == Some("always") {
        eprintln!(
            "skipped: with THP [always] a first write may fault in a 2 MiB page, \
             so resident memory does not follow the pages written"
        );
        return None;
    }
    let kib = anonymous_kib();
    if kib.is_none() {
        eprintln!("skipped: /proc/self/smaps_rollup is not readable here");
    }
    kib
}

fn shipped_tree() -> NbbsFourLevel {
    NbbsFourLevel::new(BuddyConfig::new(64 << 20, 32, 64 << 10).unwrap())
}

/// Bytes of bunch words a pass over the whole shipped span gives back: the
/// layers rooted at levels 14 and 18, below the bunch of levels 10–13 its
/// 64 KiB claims write, or none where the scrubber cannot wait out scans.
fn word_bytes_a_night_drops() -> u64 {
    if Grace::new().can_wait() {
        ((1 << 14) + (1 << 18)) * 8
    } else {
        0
    }
}

#[test]
fn the_shipped_tree_is_resident_only_where_written() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let Some(before) = resident_kib_if_meaningful() else {
        return;
    };

    let tree = shipped_tree();
    let built = anonymous_kib().unwrap();
    assert!(
        built.saturating_sub(before) < 512,
        "building the tree made {} KiB resident (4.1 MiB reserved)",
        built.saturating_sub(before)
    );

    let region = BuddyRegion::new(tree);
    let block = region.alloc_bytes(64).expect("a fresh arena serves 64 B");
    unsafe { block.as_ptr().write_bytes(0xEE, 64) };
    region.dealloc_bytes(block);
    let served = anonymous_kib().unwrap();
    eprintln!(
        "resident: +{} KiB for the tree, +{} KiB for the region and one block",
        built.saturating_sub(before),
        served.saturating_sub(built)
    );
    assert!(
        served.saturating_sub(built) < 1024,
        "a region that served one 64 B block made {} KiB resident",
        served.saturating_sub(built)
    );
    assert_eq!(region.allocated_bytes(), 0);
}

/// One 4 KiB block every 32 KiB writes one `index[]` entry per 1 024 units
/// and so touches every page of `index[]`: 2 MiB at a byte per unit (8 MiB
/// at the four bytes a node index took), plus the node words on the blocks'
/// paths.
#[test]
fn blocks_across_the_whole_span_cost_a_byte_of_index_per_unit() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let Some(before) = resident_kib_if_meaningful() else {
        return;
    };

    let tree = shipped_tree();
    let blocks = (0..64 << 20).step_by(32 << 10);
    for offset in blocks.clone() {
        assert!(tree.claim_block(offset, 4 << 10), "block at {offset}");
    }
    let spread = anonymous_kib().unwrap().saturating_sub(before);
    eprintln!(
        "resident: +{spread} KiB for a tree holding {} blocks of 4 KiB, one per 32 KiB",
        blocks.len()
    );
    assert!(
        spread < 2560,
        "{} blocks spread over the span made {spread} KiB resident",
        blocks.len()
    );
    for offset in blocks {
        tree.dealloc(offset);
    }
    assert_eq!(tree.allocated_bytes(), 0);
}

/// 4 MiB of 32 B blocks packed from offset 0 write 128 KiB of `index[]`
/// and the leaf-layer words under them: eight leaves to a word, 128 KiB,
/// plus the few words of the bunch layers above.
#[test]
fn packed_small_blocks_cost_a_word_per_eight_leaves() {
    const PACKED: usize = 4 << 20;
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let tree = shipped_tree();
    let Some(before) = resident_kib_if_meaningful() else {
        return;
    };

    for offset in (0..PACKED).step_by(32) {
        assert!(tree.claim_block(offset, 32), "block at {offset}");
    }
    let packed = anonymous_kib().unwrap().saturating_sub(before);
    let index_kib = (PACKED / 32) >> 10;
    eprintln!("resident: +{packed} KiB for 4 MiB of 32 B blocks ({index_kib} KiB of it index)");
    assert!(
        packed.saturating_sub(index_kib) <= 192,
        "4 MiB of packed 32 B blocks made {packed} KiB resident"
    );
    for offset in (0..PACKED).step_by(32) {
        tree.dealloc(offset);
    }
    assert_eq!(tree.allocated_bytes(), 0);
}

#[test]
fn a_slab_over_the_shipped_tree_builds_without_writing_its_lists() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let tree = shipped_tree();
    let Some(before) = resident_kib_if_meaningful() else {
        return;
    };

    let slab = SlabBackend::new(tree);
    let built = anonymous_kib().unwrap().saturating_sub(before);
    eprintln!("resident: +{built} KiB for a slab over the shipped tree");
    assert!(
        built < 256,
        "building the slab made {built} KiB resident ({} classes)",
        slab.class_sizes().len()
    );
}

/// One 4 KiB block every 32 KiB, as above, through a region: each is
/// granted, written and freed, so the day leaves every page of `index[]`
/// written and 8 MiB of data pages behind.
fn spread_day(region: &BuddyRegion<NbbsFourLevel>) {
    const BLOCK: usize = 4 << 10;
    let span = region.total_memory();
    let tree = region.backend();
    for offset in (0..span).step_by(32 << 10) {
        assert!(tree.claim_block(offset, BLOCK), "block at {offset}");
        region.commit_range(offset, BLOCK);
        unsafe { region.base().as_ptr().add(offset).write_bytes(0xEE, BLOCK) };
    }
    for offset in (0..span).step_by(32 << 10) {
        tree.dealloc(offset);
    }
}

/// A second day over the same span: blocks of every size from 32 B to
/// 64 KiB, taken by the ordinary scan wherever it lands, audited while
/// they are live (every `index[]` entry must route its free) and freed.
fn second_day_audits_clean(region: &BuddyRegion<NbbsFourLevel>) {
    let tree = region.backend();
    let mut live = BTreeMap::new();
    for round in 0..4096usize {
        let size = 32usize << (round % 12);
        let offset = tree.alloc(size).expect("a free span serves the day");
        live.insert(offset, size);
    }
    audit(tree, &live, true).assert_clean();
    for &offset in live.keys() {
        tree.dealloc(offset);
    }
    assert_eq!(tree.allocated_bytes(), 0);
    audit_empty(tree).assert_clean();
}

#[test]
fn a_night_gives_back_the_data_and_the_index_a_day_wrote() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let region = BuddyRegion::new(shipped_tree());
    let Some(before) = resident_kib_if_meaningful() else {
        return;
    };

    spread_day(&region);
    let day = anonymous_kib().unwrap().saturating_sub(before);
    assert_eq!(region.scrub_pass(), 8 << 20, "the day's data pages went");
    let night = anonymous_kib().unwrap().saturating_sub(before);
    let stats = region.memory_stats();
    eprintln!(
        "resident: +{day} KiB after the day, +{night} KiB after one scrub pass \
         ({} KiB of metadata given back)",
        stats.metadata_decommitted_bytes >> 10
    );
    let words = word_bytes_a_night_drops();
    assert_eq!(
        stats.metadata_decommitted_bytes,
        (2 << 20) + words,
        "every page of index[] and of the layers below the claims lies under a run"
    );
    // What stays is the words the day wrote on the blocks' paths above the
    // dropped layers, and the heap the pass itself took.  The 4 KiB blocks
    // are level 14, the root of a layer the pass drops, and their climbs
    // mark the 1 024 words (8 KiB) of the layer rooted at level 10, which
    // the claims wrote as well.  32 KiB is allowed for the heap.  It read
    // +28 KiB run alone and +8 KiB after the other tests on x86-64 Linux.
    // Where the words stay, so does the layer rooted at level 14: 16 384
    // words, 128 KiB, one page per 2 MiB of arena, so a block every 32 KiB
    // writes every page of it; 64 KiB is allowed for the heap there.
    let within = if words == 0 {
        night < 128 + 64
    } else {
        night <= 8 + 32
    };
    assert!(
        within,
        "{night} KiB stayed resident after the night ({day} KiB after the day)"
    );
    assert_eq!(region.allocated_bytes(), 0);
    second_day_audits_clean(&region);
}

/// A day of 4 MiB of 32 B blocks packed from offset 0, then one night.
/// The blocks wrote 128 KiB of `index[]`, 128 KiB of leaf-layer words and
/// two pages of the layer rooted at level 14; the pass drops all of it
/// with its runs, so what stays is the few pages of the layers at and
/// above the 64 KiB bunch (8.6 KiB of words in all) and the heap the pass
/// took.
#[test]
fn a_night_gives_back_the_word_pages_packed_small_blocks_wrote() {
    const PACKED: usize = 4 << 20;
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let region = BuddyRegion::new(shipped_tree());
    let Some(before) = resident_kib_if_meaningful() else {
        return;
    };
    if word_bytes_a_night_drops() == 0 {
        eprintln!("skipped: this process keeps its word pages");
        return;
    }

    let tree = region.backend();
    region.commit_range(0, PACKED);
    for offset in (0..PACKED).step_by(32) {
        assert!(tree.claim_block(offset, 32), "block at {offset}");
    }
    for offset in (0..PACKED).step_by(32) {
        tree.dealloc(offset);
    }
    let day = anonymous_kib().unwrap().saturating_sub(before);
    assert_eq!(region.scrub_pass(), PACKED, "the day's span went");
    let night = anonymous_kib().unwrap().saturating_sub(before);
    eprintln!(
        "resident: +{day} KiB after a day of packed 32 B blocks, +{night} KiB after \
         one scrub pass ({} KiB of metadata given back)",
        region.memory_stats().metadata_decommitted_bytes >> 10
    );
    assert!(
        night <= 16 + 32,
        "{night} KiB stayed resident after the night ({day} KiB after the day)"
    );
    second_day_audits_clean(&region);
}

#[test]
fn a_heap_backed_index_gives_back_nothing_and_still_audits_clean() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // 4 KiB units: a 16 KiB `index[]`, under the 64 KiB a mapping takes.
    let region = BuddyRegion::new(NbbsFourLevel::new(
        BuddyConfig::new(64 << 20, 4 << 10, 64 << 10).unwrap(),
    ));
    spread_day(&region);
    assert_eq!(region.scrub_pass(), 8 << 20);
    let stats = region.memory_stats();
    assert_eq!(stats.metadata_decommitted_bytes, 0, "{stats}");
    assert_eq!(region.committed_bytes(), 0);
    assert_eq!(region.allocated_bytes(), 0);
    audit_empty(region.backend()).assert_clean();
    let tree = region.backend();
    let live: Vec<_> = (0..1024).map(|_| tree.alloc(64 << 10).unwrap()).collect();
    for offset in live {
        tree.dealloc(offset);
    }
    audit_empty(tree).assert_clean();
}
