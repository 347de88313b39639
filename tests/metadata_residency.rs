//! What the shipped tree's metadata costs in resident memory.
//!
//! `NbbsFourLevel` over the arena `NbbsGlobalAlloc`'s documentation shows
//! (64 MiB in 32 B units, 64 KiB blocks) reserves 16.5 MiB of metadata: an
//! 8 MiB `index[]` and 8.5 MiB of bunch words.  Both come from zeroed
//! memory, so building the tree must not write them, and serving one block
//! must cost a few pages, not the arrays.
//!
//! The figure read is the `Anonymous:` line of `/proc/self/smaps_rollup`.
//! With transparent huge pages set to `[always]` the kernel may back a first
//! write with a 2 MiB page, so residency no longer follows the pages
//! written; the test then says so and checks nothing.  It prints the mode it
//! ran under either way.

use nbbs::{BuddyConfig, BuddyRegion, NbbsFourLevel};

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

#[test]
fn the_shipped_tree_is_resident_only_where_written() {
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
        return;
    }
    let Some(before) = anonymous_kib() else {
        eprintln!("skipped: /proc/self/smaps_rollup is not readable here");
        return;
    };

    let tree = NbbsFourLevel::new(BuddyConfig::new(64 << 20, 32, 64 << 10).unwrap());
    let built = anonymous_kib().unwrap();
    assert!(
        built.saturating_sub(before) < 512,
        "building the tree made {} KiB resident (16.5 MiB reserved)",
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
