//! # slfe-bench
//!
//! The harness behind the `experiments` binary, which regenerates every table
//! and figure of the paper's evaluation section. The crate's other binary,
//! `crash_child`, is the durable serving process that the kill-9 recovery
//! proof (`tests/crash_recovery.rs`) kills and reopens. Wall-clock
//! benchmarking lives in the separate `perfbench/` package.
//!
//! The harness runs one of the paper's five evaluation applications (SSSP, CC, WP,
//! PR, TR — plus BFS as an extra) on one of the engines (SLFE with/without RR,
//! Gemini, PowerGraph, PowerLyra, Ligra, GraphChi) over one of the dataset proxies,
//! and returns a uniform [`AppRun`] summary the experiment code renders into the
//! paper's tables and series.

pub mod experiments;
pub mod runner;

pub use runner::{AppRun, EngineKind, ExperimentContext};
