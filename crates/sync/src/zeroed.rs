//! Span-sized metadata arrays that cost only the pages that get written.
//!
//! The trees keep one atomic word per node and one per allocation unit, the
//! slab one state word and a bitmap per page slot: arrays proportional to
//! the managed span, nearly all of whose entries stay zero in a typical
//! run.  [`zeroed_slice`] takes such an array from
//! [`alloc_zeroed`](std::alloc::alloc_zeroed) instead of writing every
//! element.  For a large array the system allocator hands out fresh
//! anonymous pages, which the kernel backs with a frame on first write, so
//! the array's resident cost follows what the allocator actually touches.
//!
//! Under `--cfg nbbs_model` the shadow atomics ([`crate::shadow`])
//! implement [`Zeroable`] by building element by element, so the model
//! build constructs exactly what it always did and call sites carry no cfg.

use std::alloc::Layout;

/// A type whose all-zero byte pattern is its zero value (`new(0)`), so a
/// slice of it can come straight from zeroed memory.
///
/// # Safety
///
/// An all-zero byte pattern must be a valid, initialised value of the type.
pub unsafe trait Zeroable: Sized {
    /// `n` zero values in one boxed slice.
    ///
    /// The default asks the global allocator for zeroed memory and writes
    /// nothing itself.
    fn zeroed_slice(n: usize) -> Box<[Self]> {
        let layout = Layout::array::<Self>(n).expect("metadata array size overflows");
        if layout.size() == 0 {
            return Box::new([]);
        }
        // SAFETY: the layout has a non-zero size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<Self>();
        if raw.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: `raw` holds `n` elements of `Self` laid out as
        // `Layout::array::<Self>(n)`, allocated by the global allocator (the
        // one `Box` frees with), and all-zero bytes are a valid `Self`.
        unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, n)) }
    }
}

/// `n` zero values of `T` (see the [module docs](self)).
pub fn zeroed_slice<T: Zeroable>(n: usize) -> Box<[T]> {
    T::zeroed_slice(n)
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
        let words: Box<[AtomicU64]> = zeroed_slice(1 << 16);
        assert_eq!(words.len(), 1 << 16);
        assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        words[12_345].store(7, Ordering::Relaxed);
        assert_eq!(words[12_345].load(Ordering::Relaxed), 7);

        let bytes: Box<[AtomicU8]> = zeroed_slice(3);
        assert!(bytes.iter().all(|b| b.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn an_empty_slice_allocates_nothing() {
        let none: Box<[AtomicU32]> = zeroed_slice(0);
        assert!(none.is_empty());
    }
}
