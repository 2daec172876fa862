//! # slfe-metrics
//!
//! Instrumentation shared by every engine in the workspace.
//!
//! The paper's evaluation is largely expressed in *counted* units — updates per
//! vertex (Table 2), early-converged vertices (Figure 2), computations per iteration
//! (Figure 9), pull/push time share (Figure 4), node imbalance (Figure 10) — so this
//! crate provides:
//!
//! * [`counters`] — cheap computation/communication counters, merged at the
//!   engine's barriers.
//! * [`durability`] — WAL, checkpoint/base and compaction counters for the
//!   serving layer's durability subsystem.
//! * [`faults`] — injected-fault and fault-recovery counters (retries,
//!   quarantines, poisoned runs) for the deterministic fault-injection layer.
//! * [`stats`] — the [`ExecutionStats`] summary every engine run returns.
//! * [`trace`] — per-iteration traces used to regenerate the figure 9 curves.
//! * [`imbalance`] — intra-/inter-node imbalance measures (figure 10).
//! * [`report`] — plain-text table and series rendering used by the experiments
//!   harness to print paper-style tables.
//! * [`telemetry`] — span tracing and latency histograms, `TelemetryConfig`-gated
//!   with a strict no-op fast path.
//! * [`histogram`] — log2-bucketed, mergeable latency histograms.
//! * [`export`] — Chrome trace JSON, flame tables, and a Prometheus-text
//!   metrics registry.
//! * [`json`] — hand-rolled JSON emission helpers plus a real parser for
//!   validating every emitted document.

pub mod counters;
pub mod durability;
pub mod export;
pub mod faults;
pub mod histogram;
pub mod imbalance;
pub mod json;
pub mod report;
pub mod stats;
pub mod telemetry;
pub mod trace;

pub use counters::Counters;
pub use durability::DurabilityCounters;
pub use export::{chrome_trace_json, flame_table, Metric, MetricKind, MetricsRegistry};
pub use faults::FaultCounters;
pub use histogram::LatencyHistogram;
pub use imbalance::{inter_node_spread, intra_node_speedup, BusyTimes};
pub use report::{Series, Table};
pub use stats::{ExecutionStats, PhaseBreakdown};
pub use telemetry::{
    RunRecorder, SpanEvent, SpanHandle, SpanWindow, Telemetry, TelemetryClock, TelemetryConfig,
    TelemetrySnapshot, HIST_BATCH_APPLY, HIST_ITERATION_WALL, HIST_QUERY_LATENCY,
    HIST_SEGMENT_FAULT, HIST_WAL_FSYNC,
};
pub use trace::{IterationRecord, IterationTrace, Mode};
