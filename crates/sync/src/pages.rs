//! The page system calls of the stack, declared once: anonymous private
//! mappings, giving their frames back to the kernel, and the page size.
//!
//! `std` links libc already, so declaring the handful of calls keeps the
//! workspace dependency-free.  Where the target is not Linux nothing is
//! mapped: [`map`] declines, and the page size is 4 KiB.

pub use imp::{map, page_size, release, unmap};

/// The page size assumed where the kernel's cannot be read.
const FALLBACK_PAGE_SIZE: usize = 4096;

#[cfg(target_os = "linux")]
mod imp {
    use std::os::raw::{c_int, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 2;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    const MADV_DONTNEED: c_int = 4;

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
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn getpagesize() -> c_int;
    }

    /// The kernel's page size, 4 KiB if it cannot be read.
    pub fn page_size() -> usize {
        // SAFETY: `getpagesize` has no preconditions.
        match unsafe { getpagesize() } {
            p if p > 0 => p as usize,
            _ => super::FALLBACK_PAGE_SIZE,
        }
    }

    /// A fresh private anonymous mapping of `len` bytes (page-aligned,
    /// zero on first read, no frame behind a page until it is written), or
    /// `None` if the kernel refuses one.
    pub fn map(len: usize) -> Option<NonNull<u8>> {
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

    /// Drops the frames behind `[raw, raw + len)`; whether the kernel did.
    ///
    /// # Safety
    ///
    /// The range must be whole pages of a private anonymous mapping from
    /// [`map`] whose contents nobody needs: they read zero afterwards.
    pub unsafe fn release(raw: NonNull<u8>, len: usize) -> bool {
        // SAFETY: the caller's contract.
        unsafe { madvise(raw.as_ptr().cast(), len, MADV_DONTNEED) == 0 }
    }

    /// Unmaps what [`map`] returned for the same `len`.  It runs in `Drop`
    /// paths, so a failure (which leaves the pages mapped) is not reported.
    ///
    /// # Safety
    ///
    /// `raw` and `len` must be a live mapping from [`map`], referenced by
    /// nothing after this call.
    pub unsafe fn unmap(raw: NonNull<u8>, len: usize) {
        // SAFETY: the caller's contract.
        unsafe { munmap(raw.as_ptr().cast(), len) };
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::ptr::NonNull;

    /// The page size assumed: 4 KiB.
    pub fn page_size() -> usize {
        super::FALLBACK_PAGE_SIZE
    }

    /// Declines: nothing is mapped off Linux.
    pub fn map(_len: usize) -> Option<NonNull<u8>> {
        None
    }

    /// Unreachable: [`map`] never hands out a mapping.
    ///
    /// # Safety
    ///
    /// As on Linux.
    pub unsafe fn release(_raw: NonNull<u8>, _len: usize) -> bool {
        unreachable!("nothing is mapped where `map` always declines")
    }

    /// Unreachable: [`map`] never hands out a mapping.
    ///
    /// # Safety
    ///
    /// As on Linux.
    pub unsafe fn unmap(_raw: NonNull<u8>, _len: usize) {
        unreachable!("nothing is mapped where `map` always declines")
    }
}
