//! # slfe-graph
//!
//! In-memory graph storage for the SLFE reproduction.
//!
//! The crate provides:
//!
//! * [`GraphBuilder`] — an edge-list accumulator with optional de-duplication and
//!   self-loop removal, producing an immutable [`Graph`].
//! * [`Graph`] — a directed, weighted graph stored in both CSR (outgoing adjacency)
//!   and CSC (incoming adjacency) form, because the SLFE engine's *push* mode walks
//!   outgoing edges while its *pull* mode walks incoming edges (paper §3.3).
//! * [`generators`] — synthetic graph generators (RMAT, Erdős–Rényi, paths, stars,
//!   grids, complete graphs, trees) used to build laptop-scale proxies of the paper's
//!   datasets.
//! * [`bitset`] — dense `u64`-word [`Bitset`] frontiers (popcount active counts,
//!   word-level range probes, growth in place).
//! * [`csr`] — the [`Adjacency`] lists of one direction, cut into fixed-width
//!   blocks that graph versions share.
//! * [`delta`] — staged edge-update batches ([`UpdateBatch`]) applied against the
//!   immutable graph by rebuilding only the adjacency blocks of touched vertices
//!   ([`Graph::apply_batch`]); the backbone of the incremental serving subsystem.
//! * [`storage`] — out-of-core adjacency: CSR/CSC written to disk in
//!   self-contained segments ([`SegmentedStore`]), decoded into the same
//!   [`csr::Block`]s the in-memory lists use and served through a
//!   byte-budgeted clock [`BufferPool`]; the [`AdjacencyStore`] trait hands
//!   the engine's [`StreamCursor`] one block of either backing at a time,
//!   and [`GraphStorage::patched`] rewrites only dirty segments per update
//!   batch.
//! * [`faults`] — deterministic, seeded I/O fault injection ([`FaultPlan`] /
//!   [`FaultInjector`]) threaded through every disk touchpoint, plus the
//!   bounded-backoff [`with_retries`] loop the recovery paths share.
//! * [`rng`] — a tiny dependency-free SplitMix64 PRNG backing the generators.
//! * [`io`] — plain-text edge-list load/save.
//! * [`datasets`] — a registry of the seven named graphs of the paper (PK, OK, LJ,
//!   WK, DI, ST, FS) as scaled-down synthetic proxies, plus the RMAT scale-out graph.
//! * [`stats`] — reachability and highest-out-degree helpers for picking
//!   traversal roots.

pub mod bitset;
pub mod builder;
pub mod csr;
pub mod datasets;
pub mod degrees;
pub mod delta;
pub mod faults;
pub mod generators;
pub mod graph;
pub mod io;
pub mod remap;
pub mod rng;
pub mod stats;
pub mod storage;
pub mod types;

pub use bitset::Bitset;
pub use builder::GraphBuilder;
pub use csr::Adjacency;
pub use degrees::Degrees;
pub use delta::{BatchEffect, UpdateBatch};
pub use faults::{
    is_disk_full, with_retries, FaultAction, FaultInjector, FaultKind, FaultPlan, FaultRule,
    FaultSite, RetryPolicy, ALL_FAULT_SITES,
};
pub use graph::Graph;
pub use remap::{IdRemap, ReorderPolicy};
pub use storage::{
    AdjacencyStore, BufferPool, GraphStorage, PoolCounters, SegmentedStore, StorageConfig,
    StreamCursor,
};
pub use types::{EdgeWeight, VertexId, INVALID_VERTEX};
