//! # SLFE — Start Late or Finish Early
//!
//! A from-scratch Rust reproduction of *"Start Late or Finish Early: A Distributed
//! Graph Processing System with Redundancy Reduction"* (Song et al., 2018).
//!
//! This facade crate re-exports the public API of every workspace crate so that
//! downstream users (and the examples under `examples/`) can depend on a single
//! crate:
//!
//! * [`graph`] — in-memory graph storage (CSR/CSC), generators and loaders.
//! * [`partition`] — chunking-based and hash partitioners.
//! * [`cluster`] — the simulated distributed runtime (nodes, workers, messages,
//!   mini-chunk work stealing).
//! * [`metrics`] — computation/communication counters and report rendering.
//! * [`core`] — the SLFE engine: RR guidance preprocessing, ruler-scheduled
//!   pull/push computation and the `edge_proc`/`vertex_update` API.
//! * [`apps`] — the graph applications of Table 1 implemented on the SLFE API.
//! * [`baselines`] — Gemini/PowerGraph/PowerLyra/Ligra/GraphChi-style engines.
//! * [`delta`] — incremental recomputation and update serving: stage an
//!   [`prelude::UpdateBatch`], apply it with `Graph::apply_batch`, re-converge
//!   warm with `SlfeEngine::restart` on a [`prelude::WarmResult`], let a
//!   [`prelude::DeltaServer`] drive the whole loop and answer queries, or
//!   wrap it in a [`prelude::ServingFrontend`] for concurrent
//!   snapshot-consistent reads under update traffic with typed load shedding.
//!
//! ## Quickstart
//!
//! ```
//! use slfe::prelude::*;
//!
//! // Build a small graph, run SSSP with redundancy reduction enabled.
//! let graph = slfe::graph::generators::rmat(1_000, 8_000, 0.57, 0.19, 0.19, 42);
//! let cluster = ClusterConfig::new(2, 2); // 2 simulated nodes, 2 workers each
//! let engine = SlfeEngine::build(&graph, cluster, EngineConfig::default());
//! let result = slfe::apps::sssp::run(&engine, 0);
//! assert_eq!(result.values[0], 0.0); // distance of the root to itself
//! ```

pub use slfe_apps as apps;
pub use slfe_baselines as baselines;
pub use slfe_cluster as cluster;
pub use slfe_core as core;
pub use slfe_delta as delta;
pub use slfe_graph as graph;
pub use slfe_metrics as metrics;
pub use slfe_partition as partition;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use slfe_apps::{cc, pagerank, sssp, tunkrank, widestpath, AggregationKind, AppKind};
    pub use slfe_baselines::{BaselineEngine, BaselineKind};
    pub use slfe_cluster::ClusterConfig;
    pub use slfe_core::{EngineConfig, RedundancyMode, SlfeEngine, WarmResult};
    pub use slfe_delta::{
        AdmitError, Answer, ApplyError, BatchOutcome, DeadLetter, DeltaServer, EdgeUpdate,
        FrontendConfig, FrontendCounterSnapshot, FrontendHandle, Health, PublishedVersion,
        QueryError, ServerConfig, ServingFrontend, ServingMode,
    };
    pub use slfe_graph::{
        FaultInjector, FaultKind, FaultPlan, FaultSite, Graph, GraphBuilder, RetryPolicy,
        UpdateBatch, VertexId,
    };
    pub use slfe_metrics::{ExecutionStats, TelemetryConfig};
    pub use slfe_partition::{ChunkingPartitioner, Partitioner};
}
