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
//! | all of the above at page granularity | kernel-level comparison | Fig. 12 |
//! | [`numa_skew`] | Cross-node traffic with a configurable home-node hit ratio over `nbbs-numa` node sets | Fig. 12 (ours) |
//! | [`mixed_layout`] | Mixed Layout/realloc churn through the `nbbs-alloc` facade | Fig. 13 (ours) |
//!
//! [`harness`] sweeps allocators × thread counts × request sizes and collects
//! [`measure::Measurement`]s; [`report`] renders the measurements as the same
//! series the paper plots; the `nbbs-bench` binary drives everything from the
//! command line.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod constant_occupancy;
pub mod factory;
pub mod harness;
pub mod larson;
pub mod linux_scalability;
pub mod measure;
pub mod mixed_layout;
pub mod numa_skew;
pub mod report;
pub mod rng;
pub mod thread_test;

pub use factory::{build, AllocatorKind, SharedBackend};
pub use harness::{FigureSpec, Harness, SweepConfig};
pub use measure::{Measurement, WorkloadResult};
