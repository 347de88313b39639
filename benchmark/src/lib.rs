//! The repo benchmark: four workloads on the shipped NBBS stack, end-to-end
//! metrics a user of the allocator would see, and a per-layer ladder with
//! spans recorded at every layer boundary.  See `README.md`.

pub mod app;
pub mod appmain;
pub mod cli;
pub mod compare;
pub mod gen;
pub mod json;
pub mod replay;
pub mod ring;
pub mod runner;
pub mod span;
pub mod spec;
pub mod stats;
pub mod surface;
pub mod sys;
