//! Span-sized metadata arrays that cost only the pages that get written.
//!
//! The trees keep one atomic word per node and one byte per allocation
//! unit, the slab one state word and a bitmap per page slot and a
//! partial-page list per class: arrays proportional to the managed span,
//! nearly all of whose entries stay zero in a typical run.
//! [`zeroed_slice`] takes such an array from memory the kernel zeroes on
//! demand instead of writing every element.  An array of 64 KiB
//! (`MAP_FROM_BYTES`) or more is its own anonymous mapping (`mmap`), which
//! the kernel backs with a frame on first write, so its resident cost
//! follows what the allocator actually touches.  It does not go through
//! `alloc_zeroed`, because the C allocator serves mid-sized requests from
//! its heap and clears them there with `memset` (every byte of a recycled
//! chunk, and of fresh heap below its high-water mark), and because its
//! threshold for mapping a request rises with every large block freed.
//! Smaller arrays, and every array where `mmap` is not available or fails,
//! come from [`alloc_zeroed`](std::alloc::alloc_zeroed).
//!
//! A mapped array can also give pages back: [`ZeroedSlice::discard`]
//! returns the whole pages under a range of elements to the kernel, which
//! backs them with fresh zero pages on the next write.  A heap-backed array
//! keeps its memory.
//!
//! Under `--cfg nbbs_model` the shadow atomics ([`crate::shadow`])
//! implement [`Zeroable`] by building element by element, so the model
//! build constructs exactly what it always did, and a discard is one
//! shadow store of 0 per element of the range, so the checker interleaves
//! the drop with the accesses racing it.  Call sites carry no cfg.

use std::alloc::Layout;
use std::ops::{Deref, Range};
use std::ptr::NonNull;

use crate::pages;

/// Arrays of at least this many bytes are mapped on their own.
const MAP_FROM_BYTES: usize = 64 << 10;

/// A type whose all-zero byte pattern is its zero value (`new(0)`), so a
/// slice of it can come straight from zeroed memory.
///
/// # Safety
///
/// An all-zero byte pattern must be a valid, initialised value of the type.
pub unsafe trait Zeroable: Sized {
    /// `n` zero values in one array.
    ///
    /// The default asks for memory the kernel or the allocator has zeroed
    /// and writes nothing itself (see the [module docs](self)).
    fn zeroed_slice(n: usize) -> ZeroedSlice<Self> {
        let layout = Layout::array::<Self>(n).expect("metadata array size overflows");
        if layout.size() == 0 {
            return ZeroedSlice::from(Box::<[Self]>::default());
        }
        if layout.size() >= MAP_FROM_BYTES && layout.align() <= 4096 {
            if let Some(raw) = pages::map(layout.size()) {
                return ZeroedSlice {
                    ptr: raw.cast(),
                    len: n,
                    mapped: layout.size(),
                };
            }
        }
        // SAFETY: the layout has a non-zero size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<Self>();
        if raw.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: `raw` holds `n` elements of `Self` laid out as
        // `Layout::array::<Self>(n)`, allocated by the global allocator (the
        // one `Box` frees with), and all-zero bytes are a valid `Self`.
        ZeroedSlice::from(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, n)) })
    }

    /// What [`ZeroedSlice::discard`] does to `elements` of an array that
    /// owns no mapping; returns the bytes given back.  The default does
    /// nothing and returns 0: a heap block keeps its memory.
    fn discard_unmapped(_elements: &[Self]) -> usize {
        0
    }
}

/// `n` zero values of `T` (see the [module docs](self)).
pub fn zeroed_slice<T: Zeroable>(n: usize) -> ZeroedSlice<T> {
    T::zeroed_slice(n)
}

/// A fixed-length array from [`zeroed_slice`]: a `Box<[T]>` that may own
/// an anonymous mapping instead of a heap block.  It dereferences to `[T]`.
pub struct ZeroedSlice<T> {
    ptr: NonNull<T>,
    len: usize,
    /// Length of the mapping behind `ptr`, or 0 when `ptr` and `len` are a
    /// `Box<[T]>` of the global allocator.
    mapped: usize,
}

// SAFETY: the array owns its elements exactly as a `Box<[T]>` does.
unsafe impl<T: Send> Send for ZeroedSlice<T> {}
// SAFETY: as above; `&ZeroedSlice<T>` only hands out `&[T]`.
unsafe impl<T: Sync> Sync for ZeroedSlice<T> {}

impl<T> From<Box<[T]>> for ZeroedSlice<T> {
    fn from(boxed: Box<[T]>) -> Self {
        let len = boxed.len();
        let raw = Box::into_raw(boxed).cast::<T>();
        ZeroedSlice {
            // SAFETY: `Box::into_raw` never returns null.
            ptr: unsafe { NonNull::new_unchecked(raw) },
            len,
            mapped: 0,
        }
    }
}

impl<T: Zeroable> ZeroedSlice<T> {
    /// Gives the whole pages under `elements` back to the kernel
    /// (`madvise(MADV_DONTNEED)`) and returns how many bytes that was.
    ///
    /// Every element on those pages reads zero afterwards, and a page costs
    /// resident memory again only once an element on it is written.  Pages
    /// the range covers only in part are kept.  A heap-backed array (under
    /// 64 KiB, or where `mmap` is not available) gives nothing back and
    /// returns 0.  An array of shadow atomics stores 0 into every element
    /// of the range, one step of the schedule each, and returns their size.
    ///
    /// # Safety
    ///
    /// `T` must be an atomic type, and no other thread may write an element
    /// in `elements` while the call runs.  The kernel sets those elements to
    /// zero behind the type's back: a store that lands before the page goes
    /// is wiped, and a writer whose translation of the page is still stale
    /// writes to the old frame, which nobody reads afterwards.  Nor may a
    /// thread go on relying on a store it made there before the call: that
    /// store is gone too.  A racing atomic load reads the old value or zero.
    pub unsafe fn discard(&self, elements: Range<usize>) -> usize {
        assert!(
            elements.start <= elements.end && elements.end <= self.len,
            "discard of {elements:?} from {} elements",
            self.len
        );
        if self.mapped == 0 {
            return T::discard_unmapped(&self[elements]);
        }
        let size = std::mem::size_of::<T>();
        let page = pages::page_size();
        let first = (elements.start * size).next_multiple_of(page);
        let end = elements.end * size / page * page;
        if end <= first {
            return 0;
        }
        // SAFETY: the mapping starts page-aligned (it came from `mmap`), so
        // `[first, end)` is whole pages inside the `len * size` bytes of the
        // array, which lie inside the mapping.  The caller guarantees no
        // element there is written meanwhile, and zero is a valid `T`.
        let released = unsafe { pages::release(self.ptr.cast::<u8>().add(first), end - first) };
        if released {
            end - first
        } else {
            0
        }
    }
}

impl<T> Deref for ZeroedSlice<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` points at `len` initialised elements this array
        // owns for its whole life.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for ZeroedSlice<T> {
    fn drop(&mut self) {
        let elements = std::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len);
        if self.mapped == 0 {
            // SAFETY: built from a `Box<[T]>` and not freed since.
            drop(unsafe { Box::from_raw(elements) });
        } else {
            // SAFETY: the elements are initialised and dropped once, and the
            // mapping is ours and unmapped once, after them.
            unsafe {
                std::ptr::drop_in_place(elements);
                pages::unmap(self.ptr.cast(), self.mapped);
            }
        }
    }
}

// SAFETY: each std atomic has the in-memory representation of its integer,
// so all-zero bytes are `new(0)`.
unsafe impl Zeroable for std::sync::atomic::AtomicU8 {}
// SAFETY: as above.
unsafe impl Zeroable for std::sync::atomic::AtomicU32 {}
// SAFETY: as above.
unsafe impl Zeroable for std::sync::atomic::AtomicU64 {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

    #[test]
    fn every_element_reads_zero_and_is_writable() {
        let words: ZeroedSlice<AtomicU64> = zeroed_slice(1 << 16);
        assert_eq!(words.len(), 1 << 16);
        assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        words[12_345].store(7, Ordering::Relaxed);
        assert_eq!(words[12_345].load(Ordering::Relaxed), 7);

        let bytes: ZeroedSlice<AtomicU8> = zeroed_slice(3);
        assert!(bytes.iter().all(|b| b.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn arrays_either_side_of_the_mapping_threshold_work_alike() {
        for n in [MAP_FROM_BYTES / 4 - 1, MAP_FROM_BYTES / 4, MAP_FROM_BYTES] {
            let words: ZeroedSlice<AtomicU32> = zeroed_slice(n);
            assert_eq!(words.len(), n);
            words[n - 1].store(9, Ordering::Relaxed);
            assert_eq!(
                words.iter().map(|w| w.load(Ordering::Relaxed)).sum::<u32>(),
                9
            );
        }
    }

    #[test]
    fn discard_zeroes_whole_pages_and_keeps_the_edges() {
        let n = 64 << 10;
        let bytes: ZeroedSlice<AtomicU8> = zeroed_slice(n);
        bytes.iter().for_each(|b| b.store(7, Ordering::Relaxed));
        let page = pages::page_size();
        let (from, to) = (page / 2, 5 * page + 1);
        // SAFETY: atomics, and no other thread holds the array.
        let released = unsafe { bytes.discard(from..to) };
        if cfg!(target_os = "linux") {
            assert_eq!(released, 4 * page, "pages 1 to 4, not the two edges");
        }
        let zeroed = bytes
            .iter()
            .filter(|b| b.load(Ordering::Relaxed) == 0)
            .count();
        assert_eq!(zeroed, released);
        if released > 0 {
            assert_eq!(bytes[page - 1].load(Ordering::Relaxed), 7);
            assert_eq!(bytes[page].load(Ordering::Relaxed), 0);
            assert_eq!(bytes[5 * page].load(Ordering::Relaxed), 7);
        }
        // A dropped page takes writes again.
        bytes[2 * page].store(9, Ordering::Relaxed);
        assert_eq!(bytes[2 * page].load(Ordering::Relaxed), 9);

        let small: ZeroedSlice<AtomicU8> = zeroed_slice(4096);
        small[0].store(1, Ordering::Relaxed);
        // SAFETY: as above.
        assert_eq!(unsafe { small.discard(0..4096) }, 0, "heap-backed");
        assert_eq!(small[0].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn an_empty_slice_allocates_nothing() {
        let none: ZeroedSlice<AtomicU32> = zeroed_slice(0);
        assert!(none.is_empty());
    }
}
