//! `linux-buddy`: a user-space reimplementation of the Linux kernel's zoned
//! buddy allocator (as of the 3.2 kernel the paper benchmarks against).
//!
//! The kernel organizes each zone's free memory into `MAX_ORDER` *free
//! areas*: `free_area[k]` is a doubly-linked list of free blocks of
//! `2^k` pages.  `__alloc_pages` pops a block from the smallest sufficient
//! order and splits ("expands") it down to the requested order, pushing the
//! upper halves back onto the lower-order lists; `__free_one_page` walks
//! upward, merging the freed block with its buddy (`pfn ^ (1 << order)`) as
//! long as the buddy is free and of the same order.  Every operation runs
//! under the zone's spin lock — a ticket lock in kernels of that era — which
//! is exactly the serialization the paper's Figure 12 measures when all
//! threads are bound to one NUMA node.
//!
//! This module reproduces that structure faithfully at user level:
//!
//! * a `PageDesc` per page frame plays the role of `struct page`
//!   (`PageBuddy` flag + `private` order + `lru` list linkage);
//! * `free_area[k]` keeps list heads with O(1) unlink, as required by the
//!   merge path;
//! * one [`TicketLock`] per instance plays the role of `zone->lock`.
//!
//! What is deliberately **not** modelled: per-CPU page-frame caches (pcp
//! lists), watermarks/reclaim, and migratetype grouping — the paper's
//! experiment targets the core buddy path below all of those layers.

use nbbs::error::FreeError;
use nbbs::stats::OpStatsSnapshot;
use nbbs::{BuddyBackend, BuddyConfig, Geometry};
use nbbs_sync::TicketLock;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel for "no page" in the intrusive free lists.
const NIL: usize = usize::MAX;

/// Per-page-frame descriptor (the user-space `struct page`).
#[derive(Debug, Clone, Copy)]
struct PageDesc {
    /// Order of the block this page heads, valid when `buddy` is true or the
    /// page heads a live allocation.
    order: u8,
    /// The kernel's `PageBuddy` flag: the page heads a block sitting in a
    /// free list.
    buddy: bool,
    /// The page heads a block that is currently handed out (stands in for
    /// the kernel's page reference count being non-zero).
    allocated_head: bool,
    /// Previous block head in the same free list.
    prev: usize,
    /// Next block head in the same free list.
    next: usize,
}

impl Default for PageDesc {
    fn default() -> Self {
        PageDesc {
            order: 0,
            buddy: false,
            allocated_head: false,
            prev: NIL,
            next: NIL,
        }
    }
}

/// State protected by the zone lock.
#[derive(Debug)]
struct Zone {
    pages: Vec<PageDesc>,
    /// `free_area[k]` = head of the list of free blocks of `2^k` pages.
    free_area: Vec<usize>,
    /// Number of free blocks per order (the kernel's `nr_free`).
    nr_free: Vec<usize>,
}

impl Zone {
    fn list_push(&mut self, order: usize, pfn: usize) {
        let head = self.free_area[order];
        self.pages[pfn].buddy = true;
        self.pages[pfn].order = order as u8;
        self.pages[pfn].prev = NIL;
        self.pages[pfn].next = head;
        if head != NIL {
            self.pages[head].prev = pfn;
        }
        self.free_area[order] = pfn;
        self.nr_free[order] += 1;
    }

    fn list_pop(&mut self, order: usize) -> Option<usize> {
        let head = self.free_area[order];
        if head == NIL {
            return None;
        }
        self.list_unlink(order, head);
        Some(head)
    }

    fn list_unlink(&mut self, order: usize, pfn: usize) {
        debug_assert!(self.pages[pfn].buddy);
        debug_assert_eq!(self.pages[pfn].order as usize, order);
        let prev = self.pages[pfn].prev;
        let next = self.pages[pfn].next;
        if prev != NIL {
            self.pages[prev].next = next;
        } else {
            self.free_area[order] = next;
        }
        if next != NIL {
            self.pages[next].prev = prev;
        }
        self.pages[pfn].buddy = false;
        self.pages[pfn].prev = NIL;
        self.pages[pfn].next = NIL;
        self.nr_free[order] -= 1;
    }
}

/// The `linux-buddy` baseline: free-list buddy allocator behind a zone lock.
pub struct LinuxBuddy {
    geo: Geometry,
    page_size: usize,
    nr_pages: usize,
    max_order: usize,
    zone: TicketLock<Zone>,
    allocated: AtomicUsize,
}

impl LinuxBuddy {
    /// Creates an allocator for the given configuration.
    ///
    /// The configuration's `min_size` plays the role of the page size and
    /// `max_size` bounds the largest order (`max_order =
    /// log2(max_size/min_size)`, the kernel's `MAX_ORDER - 1`).
    pub fn new(config: BuddyConfig) -> Self {
        let geo = Geometry::new(&config);
        let page_size = geo.min_size();
        let nr_pages = geo.unit_count();
        let max_order = (geo.max_size() / page_size).trailing_zeros() as usize;
        let mut zone = Zone {
            pages: vec![PageDesc::default(); nr_pages],
            free_area: vec![NIL; max_order + 1],
            nr_free: vec![0; max_order + 1],
        };
        // Seed the free lists with maximal blocks covering the whole region.
        let block_pages = 1usize << max_order;
        let mut pfn = 0;
        while pfn < nr_pages {
            zone.list_push(max_order, pfn);
            pfn += block_pages;
        }
        LinuxBuddy {
            geo,
            page_size,
            nr_pages,
            max_order,
            zone: TicketLock::new(zone),
            allocated: AtomicUsize::new(0),
        }
    }

    /// The allocator's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// The page size (the configuration's `min_size`).
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Largest supported order (`log2(max_size / page_size)`).
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// Buddy order needed to satisfy `size` bytes, if within bounds.
    pub fn order_for(&self, size: usize) -> Option<usize> {
        if size > self.geo.max_size() {
            return None;
        }
        let pages = size.max(1).div_ceil(self.page_size);
        Some(pages.next_power_of_two().trailing_zeros() as usize)
    }

    /// Allocates a block of `2^order` pages, returning its byte offset
    /// (the kernel's `__get_free_pages`).
    pub fn alloc_order(&self, order: usize) -> Option<usize> {
        if order > self.max_order {
            return None;
        }
        let mut zone = self.zone.lock();
        // Find the smallest order with a free block, then split downwards
        // (the kernel's `expand`).
        let mut current = order;
        let pfn = loop {
            if current > self.max_order {
                return None;
            }
            if let Some(pfn) = zone.list_pop(current) {
                break pfn;
            }
            current += 1;
        };
        while current > order {
            current -= 1;
            // Keep the lower half, give the upper half back to the free list.
            let buddy = pfn + (1usize << current);
            zone.list_push(current, buddy);
        }
        zone.pages[pfn].order = order as u8;
        zone.pages[pfn].buddy = false;
        zone.pages[pfn].allocated_head = true;
        drop(zone);
        self.allocated
            .fetch_add(self.page_size << order, Ordering::Relaxed);
        Some(pfn * self.page_size)
    }

    /// Releases the block starting at `offset` (the kernel's `free_pages`),
    /// merging it with free buddies as far as possible.
    pub fn free_offset(&self, offset: usize) -> Option<usize> {
        if offset >= self.geo.total_memory() || !offset.is_multiple_of(self.page_size) {
            return None;
        }
        let mut pfn = offset / self.page_size;
        let mut zone = self.zone.lock();
        if zone.pages[pfn].buddy || !zone.pages[pfn].allocated_head {
            // Either the page sits in a free list or it never headed a live
            // allocation (interior page / double free): reject.
            return None;
        }
        zone.pages[pfn].allocated_head = false;
        let mut order = zone.pages[pfn].order as usize;
        let released = self.page_size << order;
        // `__free_one_page`: keep merging while the buddy block is free and
        // of the same order.
        while order < self.max_order {
            let buddy = pfn ^ (1usize << order);
            if buddy >= self.nr_pages
                || !zone.pages[buddy].buddy
                || zone.pages[buddy].order as usize != order
            {
                break;
            }
            zone.list_unlink(order, buddy);
            pfn = pfn.min(buddy);
            order += 1;
        }
        zone.list_push(order, pfn);
        drop(zone);
        self.allocated.fetch_sub(released, Ordering::Relaxed);
        Some(released)
    }

    /// Bytes currently handed out.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Number of free blocks per order (a snapshot of the kernel's
    /// `/proc/buddyinfo` line for this zone).
    pub fn buddyinfo(&self) -> Vec<usize> {
        self.zone.lock().nr_free.clone()
    }

    /// Total free memory in bytes according to the free lists.
    pub fn free_bytes(&self) -> usize {
        self.buddyinfo()
            .iter()
            .enumerate()
            .map(|(order, &count)| count * (self.page_size << order))
            .sum()
    }
}

impl BuddyBackend for LinuxBuddy {
    fn name(&self) -> &'static str {
        "linux-buddy"
    }

    fn geometry(&self) -> &Geometry {
        &self.geo
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        let order = self.order_for(size)?;
        self.alloc_order(order)
    }

    fn dealloc(&self, offset: usize) {
        if self.free_offset(offset).is_none() {
            panic!("dealloc of non-live offset {offset}");
        }
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        // `page_size` is the geometry's allocation unit.
        self.geo
            .check_release_offset(offset, self.geo.total_memory())?;
        self.free_offset(offset)
            .map(|_| ())
            .ok_or(FreeError::NotAllocated { offset })
    }

    fn allocated_bytes(&self) -> usize {
        LinuxBuddy::allocated_bytes(self)
    }

    fn stats(&self) -> OpStatsSnapshot {
        OpStatsSnapshot::default()
    }
}

impl std::fmt::Debug for LinuxBuddy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinuxBuddy")
            .field("pages", &self.nr_pages)
            .field("page_size", &self.page_size)
            .field("max_order", &self.max_order)
            .field("allocated_bytes", &self.allocated_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// 256 pages of 4 KiB, orders up to 2^5 pages (128 KiB blocks) — the
    /// shape of the paper's kernel experiment scaled down.
    fn zone() -> LinuxBuddy {
        LinuxBuddy::new(BuddyConfig::new(1 << 20, 4096, 128 << 10).unwrap())
    }

    #[test]
    fn geometry_derivation() {
        let b = zone();
        assert_eq!(b.page_size(), 4096);
        assert_eq!(b.max_order(), 5);
        assert_eq!(b.order_for(1), Some(0));
        assert_eq!(b.order_for(4096), Some(0));
        assert_eq!(b.order_for(4097), Some(1));
        assert_eq!(b.order_for(128 << 10), Some(5));
        assert_eq!(b.order_for((128 << 10) + 1), None);
    }

    #[test]
    fn initial_free_lists_hold_maximal_blocks() {
        let b = zone();
        let info = b.buddyinfo();
        assert_eq!(info[5], (1 << 20) / (128 << 10));
        assert!(info[..5].iter().all(|&c| c == 0));
        assert_eq!(b.free_bytes(), 1 << 20);
    }

    #[test]
    fn alloc_splits_and_free_merges() {
        let b = zone();
        let off = b.alloc_order(0).unwrap();
        assert_eq!(off % 4096, 0);
        // Splitting one 32-page block leaves one block at each lower order.
        let info = b.buddyinfo();
        assert_eq!(info[0], 1);
        assert_eq!(info[1], 1);
        assert_eq!(info[2], 1);
        assert_eq!(info[3], 1);
        assert_eq!(info[4], 1);
        assert_eq!(info[5], 7);
        b.dealloc(off);
        // Full merge restores the original buddyinfo.
        let info = b.buddyinfo();
        assert_eq!(info[5], 8);
        assert!(info[..5].iter().all(|&c| c == 0));
        assert_eq!(b.allocated_bytes(), 0);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let b = zone();
        let mut live: Vec<(usize, usize)> = Vec::new();
        for &size in &[4096usize, 8192, 100_000, 4096, 65536, 20_000, 4096] {
            let off = b.alloc(size).unwrap();
            let order = b.order_for(size).unwrap();
            let granted = 4096usize << order;
            assert_eq!(off % granted, 0, "blocks are naturally aligned");
            for &(o, g) in &live {
                assert!(off + granted <= o || o + g <= off, "overlap at {off}");
            }
            live.push((off, granted));
        }
        for (o, _) in live {
            b.dealloc(o);
        }
        assert_eq!(b.allocated_bytes(), 0);
        assert_eq!(b.free_bytes(), 1 << 20);
    }

    #[test]
    fn exhaustion_returns_none_and_recovers() {
        let b = LinuxBuddy::new(BuddyConfig::new(1 << 16, 4096, 1 << 16).unwrap());
        let mut offs = Vec::new();
        while let Some(off) = b.alloc_order(0) {
            offs.push(off);
        }
        assert_eq!(offs.len(), 16);
        assert_eq!(b.alloc(4096), None);
        for off in offs {
            b.dealloc(off);
        }
        assert_eq!(b.alloc_order(4).unwrap() % (16 * 4096), 0);
    }

    #[test]
    fn rejects_invalid_frees() {
        let b = zone();
        assert!(matches!(
            b.try_dealloc(1 << 21),
            Err(FreeError::OutOfRange { .. })
        ));
        assert!(matches!(
            b.try_dealloc(123),
            Err(FreeError::Misaligned { .. })
        ));
        assert!(matches!(
            b.try_dealloc(4096),
            Err(FreeError::NotAllocated { .. })
        ));
        let off = b.alloc(4096).unwrap();
        assert!(b.try_dealloc(off).is_ok());
        assert!(matches!(
            b.try_dealloc(off),
            Err(FreeError::NotAllocated { .. })
        ));
    }

    #[test]
    fn interior_page_of_live_block_is_not_freeable() {
        let b = zone();
        let off = b.alloc_order(3).unwrap(); // 8 pages
                                             // Freeing an interior page of a live block is a misuse that would
                                             // corrupt a real kernel; our descriptor tracks block heads, so the
                                             // misuse is detected and rejected.
        assert!(matches!(
            b.try_dealloc(off + 4096),
            Err(FreeError::NotAllocated { .. })
        ));
        assert!(b.try_dealloc(off).is_ok());
    }

    #[test]
    fn mixed_orders_conserve_memory() {
        let b = zone();
        let mut live = Vec::new();
        for i in 0..200usize {
            let order = i % 4;
            if let Some(off) = b.alloc_order(order) {
                live.push(off);
            }
            if live.len() > 20 {
                b.dealloc(live.swap_remove(i % live.len().min(20)));
            }
        }
        for off in live {
            b.dealloc(off);
        }
        assert_eq!(b.allocated_bytes(), 0);
        assert_eq!(b.free_bytes(), 1 << 20);
        let info = b.buddyinfo();
        assert_eq!(info[5], 8, "full coalescing must be restored: {info:?}");
    }

    #[test]
    fn concurrent_usage_conserves_memory() {
        const THREADS: usize = 8;
        let b = Arc::new(zone());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut live = Vec::new();
                    for i in 0..1_000usize {
                        let order = (i + t) % 4;
                        if let Some(off) = b.alloc_order(order) {
                            live.push(off);
                        }
                        if live.len() > 8 {
                            b.dealloc(live.swap_remove(0));
                        }
                    }
                    for off in live {
                        b.dealloc(off);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.allocated_bytes(), 0);
        assert_eq!(b.free_bytes(), 1 << 20);
    }

    #[test]
    fn trait_object_name_and_sizes() {
        let b: Box<dyn BuddyBackend> = Box::new(zone());
        assert_eq!(b.name(), "linux-buddy");
        assert_eq!(b.min_size(), 4096);
        assert_eq!(b.max_size(), 128 << 10);
        let off = b.alloc(10_000).unwrap();
        assert_eq!(b.allocated_bytes(), 16384);
        b.dealloc(off);
    }
}
