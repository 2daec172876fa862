//! # slfe-core
//!
//! The SLFE engine — the paper's primary contribution.
//!
//! SLFE ("start late or finish early") reduces the redundant computations that
//! Bellman-Ford-style vertex-centric execution introduces, using a cheap
//! topological preprocessing pass:
//!
//! 1. [`rrg`] implements Algorithm 1: a unit-weight label-propagation pass that
//!    records, for every vertex, the **last propagation level** at which it can
//!    still receive a new value (`last_iter`). This *Redundancy-Reduction Guidance*
//!    (RRG) is produced once per partitioned graph and reused by every application.
//!    It is derived state: the serving loop regenerates it for a graph version
//!    whose rulers are read, and never patches or persists it.
//! 2. [`engine`] implements the RR-aware push/pull runtime of Algorithms 2–3.
//!    For min/max-aggregation applications the *single ruler* (the current iteration
//!    number) delays a vertex's first computation until its `last_iter` — "start
//!    late". For arithmetic-aggregation applications the *multi ruler* (a per-vertex
//!    stability counter) stops computing a vertex once it has been stable for
//!    `last_iter` consecutive iterations — "finish early".
//! 3. [`program`] is the application-facing API corresponding to Table 3's
//!    `edgeProc` / `vertexUpdate`: applications describe edge contributions, the
//!    aggregation that combines them and the per-vertex update, and the engine
//!    schedules everything else.
//!
//! The engine runs on the simulated cluster of `slfe-cluster`: graph partitions map
//! to logical nodes, intra-node work is spread over mini-chunks with work stealing,
//! and inter-node updates are counted and priced by the communication cost model.

pub mod config;
pub mod engine;
pub mod program;
pub mod result;
pub mod rrg;

pub use config::{CostModel, EngineConfig, RedundancyMode};
pub use engine::{EngineParts, SlfeEngine};
pub use program::{AggregationKind, GraphProgram};
pub use result::ProgramResult;
pub use rrg::RrGuidance;
pub use slfe_graph::Degrees;
pub use slfe_metrics::TelemetryConfig;
