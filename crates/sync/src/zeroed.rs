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
//! Under `--cfg nbbs_model` the shadow atomics ([`crate::shadow`])
//! implement [`Zeroable`] by building element by element, so the model
//! build constructs exactly what it always did and call sites carry no cfg.

use std::alloc::Layout;
use std::ops::Deref;
use std::ptr::NonNull;

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
            if let Some(raw) = sys::map(layout.size()) {
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
                sys::unmap(self.ptr.cast(), self.mapped);
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 2;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    // std links libc already.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A fresh private anonymous mapping of `len` bytes (page-aligned,
    /// zero on first read), or `None` if the kernel refuses one.
    pub(super) fn map(len: usize) -> Option<NonNull<u8>> {
        // SAFETY: anonymous private mapping, no fd, no fixed address.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if raw == MAP_FAILED {
            return None;
        }
        NonNull::new(raw.cast())
    }

    /// Unmaps what [`map`] returned for the same `len`.  It runs in `Drop`,
    /// so a failure (which leaves the pages mapped) is not reported.
    ///
    /// # Safety
    ///
    /// `raw` and `len` must be a live mapping from [`map`], referenced by
    /// nothing after this call.
    pub(super) unsafe fn unmap(raw: NonNull<u8>, len: usize) {
        munmap(raw.as_ptr().cast(), len);
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::ptr::NonNull;

    pub(super) fn map(_len: usize) -> Option<NonNull<u8>> {
        None
    }

    pub(super) unsafe fn unmap(_raw: NonNull<u8>, _len: usize) {
        unreachable!("nothing is mapped where `map` always declines")
    }
}

// SAFETY: each std atomic has the in-memory representation of its integer,
// so all-zero bytes are `new(0)`.
unsafe impl Zeroable for std::sync::atomic::AtomicU8 {}
unsafe impl Zeroable for std::sync::atomic::AtomicU32 {}
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
    fn an_empty_slice_allocates_nothing() {
        let none: ZeroedSlice<AtomicU32> = zeroed_slice(0);
        assert!(none.is_empty());
    }
}
