//! # nbbs-trace — folded into `nbbs-obs`.
//!
//! This package declares nothing.  Its ring, heap profiler and JSON checker
//! are modules of `nbbs-obs` now (`ring`, `profile`, `jsoncheck`), owned by
//! the one `Recorder` handle, and the per-thread NUMA-node hint moved to
//! `nbbs-sync` (`set_thread_node` / `thread_node`).
//!
//! The package itself stays only because the frozen `benchmark/Cargo.lock`
//! names it as a dependency of `nbbs-alloc` and `nbbs-numa`, and
//! `benchmark/run.sh` builds without `--locked`: removing the package would
//! make every benchmark build rewrite that file.  The benchmark PR that next
//! refreshes the lock deletes this directory together with the two
//! vestigial `nbbs-trace` manifest lines (ROADMAP item 2).
