//! `NbbsGlobalAlloc` as this test binary's own `#[global_allocator]`: every
//! allocation of the harness and of the tests, `String` growth, thread
//! exits and the shell's read-outs included, goes through the shell's hit
//! route and its cold paths, re-entering the allocator wherever the
//! stack's own bookkeeping allocates.

mod common;

use std::alloc::{GlobalAlloc, Layout};

use proptest::prelude::*;

use common::Front;
use nbbs_alloc::NbbsGlobalAlloc;

/// The shipped geometry.
const LARGEST: usize = 64 << 10;

#[global_allocator]
static GLOBAL: NbbsGlobalAlloc = NbbsGlobalAlloc::new(64 << 20, 32, LARGEST);

impl Front for NbbsGlobalAlloc {
    fn night(&self) {
        self.scrub_pass();
    }
    /// The harness's other threads allocate from it too.
    fn live_bytes(&self) -> Option<usize> {
        None
    }
    /// Nothing to close for the same reason: the walk's own checks are the
    /// test.
    fn audit(&self) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The registered shell agrees with the System mirror while the
    /// walk's own `Vec`s and the stack's bookkeeping allocate from it.
    #[test]
    fn the_registered_shell_matches_system_oracle(
        ops in common::ops(
            1..150,
            prop_oneof![4 => common::layouts(5000, 12), 1 => common::layouts(2 * LARGEST, 12)],
            5000,
        )
    ) {
        common::walk(&GLOBAL, ops);
    }
}

/// The `i`-th byte the tests write.
fn letter(i: usize) -> u8 {
    b'a' + (i % 26) as u8
}

#[test]
fn a_free_after_a_drain_parks_into_a_magazine_without_a_buffer() {
    let boxes: Vec<Box<[u8; 48]>> = (0..64).map(|i| Box::new([i as u8; 48])).collect();
    // Empties every magazine, taking their buffers with them.
    GLOBAL.drain_cache();
    let drained = GLOBAL.cache_stats().unwrap().drained;
    for (i, b) in boxes.into_iter().enumerate() {
        assert!(b.iter().all(|&x| x == i as u8));
        // The inlined park refuses a magazine without a buffer; the slow
        // free grows one inside the slot entry, and that allocation must go
        // past the cache.
        drop(b);
    }
    let again: Vec<Box<u64>> = (0..64).map(Box::new).collect();
    assert!(again.iter().enumerate().all(|(i, b)| **b == i as u64));
    assert!(again
        .iter()
        .all(|b| GLOBAL.owns(&**b as *const u64 as *mut u8)));
    assert!(GLOBAL.cache_stats().unwrap().drained >= drained);
}

#[test]
fn a_string_grows_and_shrinks_across_every_class() {
    let mut s = String::new();
    let mut sizes = Vec::new();
    while s.len() < LARGEST {
        s.push(char::from(letter(s.len())));
        assert!(GLOBAL.owns(s.as_mut_ptr()), "at {}", s.len());
        if sizes.last() != Some(&s.capacity()) {
            sizes.push(s.capacity());
        }
    }
    assert_eq!(sizes.last(), Some(&LARGEST), "grew through {sizes:?}");
    assert!(s.bytes().enumerate().all(|(i, b)| b == letter(i)));
    // Back down one class at a time, each `shrink_to_fit` a shrinking realloc.
    let mut len = s.len();
    while len > 1 {
        len /= 2;
        s.truncate(len);
        s.shrink_to_fit();
        assert_eq!(s.capacity(), len);
        assert!(GLOBAL.owns(s.as_mut_ptr()), "at {len}");
        assert!(
            s.bytes().enumerate().all(|(i, b)| b == letter(i)),
            "at {len}"
        );
    }
}

#[test]
fn reallocs_through_the_registered_shell_keep_their_bytes() {
    // Direct calls, across every class boundary and back.
    let mut layout = Layout::from_size_align(1, 8).unwrap();
    // SAFETY: the block is live under `layout` at every call, and is freed
    // under the last one.
    unsafe {
        let mut p = GLOBAL.alloc(layout);
        p.write(letter(0));
        let mut class = 32;
        let mut sizes: Vec<usize> = Vec::new();
        while class <= LARGEST {
            sizes.extend([class, class + 1]);
            class *= 2;
        }
        sizes.extend(sizes.clone().into_iter().rev());
        for size in sizes {
            let kept = layout.size().min(size);
            p = GLOBAL.realloc(p, layout, size);
            assert!(!p.is_null());
            for i in 0..kept {
                assert_eq!(*p.add(i), letter(i), "byte {i} at {size}");
            }
            for i in kept..size {
                p.add(i).write(letter(i));
            }
            layout = Layout::from_size_align(size, 8).unwrap();
        }
        GLOBAL.dealloc(p, layout);
    }
}

#[test]
fn threads_that_exit_drain_what_they_parked() {
    let drained = GLOBAL.cache_stats().unwrap().drained;
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut kept: Vec<String> = Vec::new();
                for i in 0..200 {
                    let mut s = String::with_capacity(16);
                    for j in 0..(i % 37) * 11 {
                        s.push(char::from(letter(i + j + t)));
                    }
                    if i % 3 == 0 {
                        kept.push(s);
                    }
                }
                // Handed back to the spawner, to be freed by another thread.
                kept
            })
        })
        .collect();
    let mut total = 0;
    for h in handles {
        let kept = h.join().unwrap();
        total += kept.iter().map(String::len).sum::<usize>();
    }
    assert!(total > 0);
    assert!(
        GLOBAL.cache_stats().unwrap().drained > drained,
        "the exiting threads drained their magazines"
    );
}

/// A shell beside the registered one, driven by direct calls only, so its
/// byte count is one test's alone.
static SECOND: NbbsGlobalAlloc = NbbsGlobalAlloc::new(1 << 20, 32, 4 << 10);

/// A thread whose first call of a shell is a free takes the slow path on
/// it, and that call registers the thread's exit drain: the hits that
/// follow park nothing the exit leaves behind.
#[test]
fn a_thread_whose_first_call_is_a_free_is_registered_by_it() {
    let layout = Layout::new::<[u64; 4]>();
    // SAFETY: every block is freed once, under `layout`.
    unsafe {
        // Builds the shell and warms this thread's slot.
        let p = SECOND.alloc(layout);
        SECOND.dealloc(p, layout);
        let before = SECOND.buddy_allocated_bytes();
        let drained = SECOND.cache_stats().unwrap().drained;
        let given = SECOND.alloc(layout) as usize;
        let kept = std::thread::spawn(move || {
            SECOND.dealloc(given as *mut u8, layout);
            let mut kept = [0usize; 4];
            for k in &mut kept {
                *k = SECOND.alloc(layout) as usize;
                assert!(SECOND.owns(*k as *mut u8));
            }
            kept
        })
        .join()
        .unwrap();
        assert!(
            SECOND.cache_stats().unwrap().drained > drained,
            "the thread's exit drained its slot"
        );
        for p in kept {
            SECOND.dealloc(p as *mut u8, layout);
        }
        assert_eq!(SECOND.buddy_allocated_bytes(), before);
    }
}
