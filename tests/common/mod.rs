//! The System-mirror oracle every `Layout` front of the stack is walked
//! against: the facade over each composition and the shipped shell, local
//! or registered as the program's allocator.
//!
//! A walk drives a front through [`GlobalAlloc`] alone — `alloc`,
//! `alloc_zeroed`, `realloc` and `dealloc` over randomized layouts (sizes
//! *and* alignments) — and keeps the expected contents of every live block
//! in a `Vec`.  After every step each live block must still read its
//! mirror, which catches overlap, a stray write and a realloc that copies
//! too little in one stroke; every pointer must honour its layout's
//! alignment, and `alloc_zeroed` must hand back zeroes however dirty the
//! recycled chunk was.  (A debug build also audits every sized release
//! against the tree inside the cache, so a layout that stopped naming its
//! block's class fails there.)  What differs between fronts is what a
//! [`Front`] says.

use std::alloc::{GlobalAlloc, Layout};
use std::ops::Range;

use proptest::prelude::*;

/// What the walk needs from a front beyond [`GlobalAlloc`].
pub trait Front: GlobalAlloc {
    /// A quiet-time pass mid-walk (a scrub pass): free pages go back to
    /// the kernel, and no live block may notice.
    fn night(&self);
    /// The bytes the front holds for its callers, where no one but the
    /// walk calls it; `None` where other callers share it.
    fn live_bytes(&self) -> Option<usize>;
    /// The closing check, once the walk has released every block.
    fn audit(&self);
}

/// One step of a walk.
#[derive(Debug, Clone)]
pub enum Op {
    /// Allocate `size` bytes at `1 << align_log` alignment; `zeroed` picks
    /// `alloc_zeroed`.
    Alloc {
        size: usize,
        align_log: u32,
        zeroed: bool,
    },
    /// Release the k-th live block (modulo the live count).
    Free(usize),
    /// Reallocate the k-th live block to `size` bytes.
    Realloc { idx: usize, size: usize },
    /// [`Front::night`].
    Night,
}

/// Request sizes `1..=max` at alignments `1 << 0..=max_align_log`.
pub fn layouts(max: usize, max_align_log: u32) -> impl Strategy<Value = (usize, u32)> {
    (1..=max, 0..=max_align_log)
}

/// A walk of `len` steps whose allocations draw their layouts from
/// `layouts` and whose reallocs go to sizes `1..=realloc_max`.
pub fn ops(
    len: Range<usize>,
    layouts: impl Strategy<Value = (usize, u32)> + 'static,
    realloc_max: usize,
) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        4 => (layouts, 0u8..2).prop_map(|((size, align_log), zeroed)| Op::Alloc {
            size,
            align_log,
            zeroed: zeroed == 1,
        }),
        2 => (0usize..64).prop_map(Op::Free),
        3 => (0usize..64, 1..=realloc_max).prop_map(|(idx, size)| Op::Realloc { idx, size }),
        1 => Just(Op::Night),
    ];
    proptest::collection::vec(op, len)
}

/// A live block and the `Vec` mirror of what it must hold.
struct Live {
    ptr: *mut u8,
    layout: Layout,
    mirror: Vec<u8>,
}

impl Live {
    fn holds(&self, len: usize) -> bool {
        // SAFETY: a live block of at least `layout.size() >= len` bytes.
        unsafe { std::slice::from_raw_parts(self.ptr, len) == &self.mirror[..len] }
    }

    /// Writes the `event`-th pattern over the whole block and its mirror.
    fn fill(&mut self, event: usize) {
        for (i, byte) in self.mirror.iter_mut().enumerate() {
            *byte = (event ^ i).wrapping_mul(0x9E) as u8;
        }
        // SAFETY: the block holds `layout.size() == mirror.len()` bytes.
        unsafe { std::ptr::copy_nonoverlapping(self.mirror.as_ptr(), self.ptr, self.mirror.len()) };
    }
}

/// Walks `front` through `ops` against the mirror, releases what is left,
/// checks the live bytes are back where they started and runs the audit.
pub fn walk<F: Front>(front: &F, ops: Vec<Op>) {
    let before = front.live_bytes();
    let mut live: Vec<Live> = Vec::new();
    for (event, op) in ops.into_iter().enumerate() {
        match op {
            Op::Alloc {
                size,
                align_log,
                zeroed,
            } => {
                let layout = Layout::from_size_align(size, 1 << align_log).unwrap();
                // SAFETY: a non-zero layout, released below under itself.
                let ptr = unsafe {
                    if zeroed {
                        front.alloc_zeroed(layout)
                    } else {
                        front.alloc(layout)
                    }
                };
                assert!(!ptr.is_null(), "{layout:?} failed");
                assert_eq!(ptr as usize % layout.align(), 0, "{layout:?} misaligned");
                let mut block = Live {
                    ptr,
                    layout,
                    mirror: vec![0; size],
                };
                assert!(
                    !zeroed || block.holds(size),
                    "alloc_zeroed left dirty bytes"
                );
                block.fill(event);
                live.push(block);
            }
            Op::Free(k) if !live.is_empty() => {
                let block = live.swap_remove(k % live.len());
                assert!(block.holds(block.layout.size()), "contents at release");
                // SAFETY: live under this layout; released once.
                unsafe { front.dealloc(block.ptr, block.layout) };
            }
            Op::Realloc { idx, size } if !live.is_empty() => {
                let k = idx % live.len();
                let block = &mut live[k];
                // SAFETY: live under its layout; the old pointer is not used
                // again.
                let ptr = unsafe { front.realloc(block.ptr, block.layout, size) };
                assert!(!ptr.is_null(), "realloc to {size} failed");
                let kept = block.layout.size().min(size);
                block.ptr = ptr;
                block.layout = Layout::from_size_align(size, block.layout.align()).unwrap();
                assert_eq!(ptr as usize % block.layout.align(), 0, "realloc misaligned");
                assert!(block.holds(kept), "realloc kept {kept} bytes");
                block.mirror.resize(size, 0);
                block.fill(event);
            }
            Op::Free(_) | Op::Realloc { .. } => {}
            Op::Night => front.night(),
        }
        for block in &live {
            assert!(
                block.holds(block.layout.size()),
                "a live block was clobbered"
            );
        }
    }
    for block in live {
        // SAFETY: live under this layout; released once.
        unsafe { front.dealloc(block.ptr, block.layout) };
    }
    assert_eq!(front.live_bytes(), before, "everything returned");
    front.audit();
}
