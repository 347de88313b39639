//! Workload generators and benchmark harness reproducing the evaluation of
//! *“A Non-blocking Buddy System for Scalable Memory Allocation on Multi-core
//! Machines”* (CLUSTER 2018).
//!
//! The paper evaluates five user-space back-end allocators (`4lvl-nb`,
//! `1lvl-nb`, `4lvl-sl`, `1lvl-sl`, `buddy-sl`) plus the Linux kernel buddy
//! allocator on four workloads:
//!
//! | module | benchmark | paper figure |
//! |---|---|---|
//! | [`linux_scalability`] | Linux Scalability (Lever & Boreham) | Fig. 8 |
//! | [`thread_test`] | Thread Test (Hoard) | Fig. 9 |
//! | [`larson`] | Larson server workload | Fig. 10 |
//! | [`constant_occupancy`] | Constant Occupancy (the paper's own) | Fig. 11 |
//! | Figs. 8, 9 and 11 at page granularity | kernel-level comparison | Fig. 12 |
//!
//! [`harness`] sweeps allocators × thread counts × request sizes and collects
//! [`measure::Measurement`]s; [`report`] renders the measurements as the
//! tables the paper plots; the `nbbs-bench` binary drives the figures, the
//! paper ablations and the three `*-overhead` gates from the command line.
//! The product stack (cache, slab, facade, NUMA routing, observer) is
//! measured by `benchmark/`, not here; [`factory`] still builds those
//! compositions because the stress and failure-injection suites sweep them,
//! and [`rng`] is the seeded generator the tests and examples share.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod constant_occupancy;
pub mod factory;
pub mod harness;
pub mod larson;
pub mod linux_scalability;
pub mod measure;
pub mod report;
pub mod rng;
pub mod thread_test;

pub use factory::{build, AllocatorKind, SharedBackend};
pub use harness::{FigureSpec, Harness, SweepConfig};
pub use measure::{Measurement, WorkloadResult};
