//! Engine configuration: redundancy reduction, scheduling, tracing and cost model.

use slfe_cluster::SchedulingPolicy;
use slfe_metrics::TelemetryConfig;

/// Whether the engine applies the paper's redundancy-reduction guidance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RedundancyMode {
    /// Apply "start late" (min/max apps) and "finish early" (arithmetic apps).
    #[default]
    Enabled,
    /// Ignore the guidance — process every vertex every iteration, like the
    /// baseline systems. Used for the w/o-RR curves of Figure 9 and the ablations.
    Disabled,
}

/// Deterministic cost model that converts counted work into simulated seconds.
///
/// The experiments report *simulated* time = `work_units * seconds_per_work_unit`
/// (plus network seconds from the cluster's communication model), so results are
/// machine-independent and reproducible; wall-clock time is still measured and kept
/// alongside in [`slfe_metrics::ExecutionStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Simulated seconds per counted work unit (one edge computation or one vertex
    /// update). The default, 5 ns, approximates a few cache-resident arithmetic
    /// operations plus an update on the paper's Knights-Landing cores.
    pub seconds_per_work_unit: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            seconds_per_work_unit: 5.0e-9,
        }
    }
}

impl CostModel {
    /// Simulated seconds for `work` counted units.
    pub fn seconds(&self, work: u64) -> f64 {
        work as f64 * self.seconds_per_work_unit
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Redundancy-reduction mode (default: enabled).
    pub redundancy: RedundancyMode,
    /// Intra-node scheduling policy (default: work stealing, as in §3.6).
    pub scheduling: SchedulingPolicy,
    /// Record a per-iteration trace (needed by the Figure 4/9 experiments).
    pub trace: bool,
    /// Hard iteration cap. Min/max applications normally terminate on an empty
    /// active set well before this; arithmetic applications iterate until no vertex
    /// changes or the cap is reached.
    pub max_iterations: u32,
    /// Convergence tolerance for arithmetic applications: a vertex is "unchanged"
    /// when `|new - old| <= tolerance`. Zero reproduces the paper's exact-equality
    /// stability test.
    pub tolerance: f64,
    /// Simulated compute cost model.
    pub cost: CostModel,
    /// Push-mode scratch representation switch: when the active-vertex fraction
    /// of a push phase is below this threshold, workers fold contributions into
    /// compact open-addressed maps (memory proportional to the touched
    /// destinations) instead of dense `O(n)` gather buffers. Values and
    /// counters are bit-identical either way — the knob trades per-edge probe
    /// cost against footprint and zeroing overhead. `0.0` forces dense scratch
    /// everywhere; anything `> 1.0` forces sparse scratch everywhere (useful
    /// for the equivalence tests).
    pub sparse_push_density: f64,
    /// Out-of-core execution: when set, the engine writes the graph's CSR/CSC
    /// to disk in segments at build time and every traversal phase streams
    /// them through a clock buffer pool holding at most this many bytes
    /// resident (both directions share the pool). `None` (the default) runs
    /// on the in-memory adjacency. Values are **bit-identical** either
    /// way — the segments store the same sorted lists the in-memory structure
    /// holds — and skipped chunks fault zero segments, so the activity
    /// summaries double as the I/O planner. The budget must comfortably
    /// exceed `total_workers × storage_segment_bytes` (each worker's cursor
    /// pins one segment).
    pub storage_budget_bytes: Option<u64>,
    /// Target on-disk bytes per segment of the out-of-core store (ignored
    /// when `storage_budget_bytes` is `None`); defaults to
    /// [`slfe_graph::storage::DEFAULT_SEGMENT_BYTES`].
    pub storage_segment_bytes: usize,
    /// Directory for the out-of-core backing files; a process-unique
    /// directory under the system temp dir when `None`. Files are removed
    /// when the last store generation drops.
    pub storage_dir: Option<std::path::PathBuf>,
    /// Telemetry (span tracing + latency histograms). Off by default; an off
    /// run is bit-identical in values, counters and messages to an
    /// un-instrumented run (pinned by `tests/telemetry.rs`).
    pub telemetry: TelemetryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            redundancy: RedundancyMode::Enabled,
            scheduling: SchedulingPolicy::WorkStealing,
            trace: true,
            max_iterations: 200,
            tolerance: 1.0e-7,
            cost: CostModel::default(),
            sparse_push_density: 0.02,
            storage_budget_bytes: None,
            storage_segment_bytes: slfe_graph::storage::DEFAULT_SEGMENT_BYTES,
            storage_dir: None,
            telemetry: TelemetryConfig::off(),
        }
    }
}

impl EngineConfig {
    /// Configuration with redundancy reduction disabled (baseline-style execution).
    pub fn without_rr() -> Self {
        Self {
            redundancy: RedundancyMode::Disabled,
            ..Self::default()
        }
    }

    /// Builder-style override of the redundancy mode.
    pub fn with_redundancy(mut self, mode: RedundancyMode) -> Self {
        self.redundancy = mode;
        self
    }

    /// Builder-style override of the scheduling policy.
    pub fn with_scheduling(mut self, policy: SchedulingPolicy) -> Self {
        self.scheduling = policy;
        self
    }

    /// Builder-style override of the iteration cap.
    pub fn with_max_iterations(mut self, max: u32) -> Self {
        assert!(max >= 1, "need at least one iteration");
        self.max_iterations = max;
        self
    }

    /// Builder-style override of the arithmetic convergence tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        self.tolerance = tolerance;
        self
    }

    /// Builder-style toggle for tracing.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Builder-style override of the sparse-push density threshold.
    pub fn with_sparse_push_density(mut self, density: f64) -> Self {
        assert!(density >= 0.0, "density threshold must be non-negative");
        self.sparse_push_density = density;
        self
    }

    /// Builder-style switch to out-of-core execution with the given buffer
    /// pool byte budget.
    pub fn with_storage_budget(mut self, budget_bytes: u64) -> Self {
        assert!(budget_bytes > 0, "storage budget must be positive");
        self.storage_budget_bytes = Some(budget_bytes);
        self
    }

    /// Builder-style override of the out-of-core segment size.
    pub fn with_storage_segment_bytes(mut self, segment_bytes: usize) -> Self {
        assert!(segment_bytes > 0, "segment size must be positive");
        self.storage_segment_bytes = segment_bytes;
        self
    }

    /// Builder-style toggle for telemetry (span tracing + latency
    /// histograms).
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = TelemetryConfig { enabled };
        self
    }

    /// Builder-style override of the out-of-core backing-file directory.
    pub fn with_storage_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.storage_dir = Some(dir.into());
        self
    }

    /// The out-of-core storage parameters this configuration requests, if any.
    pub fn storage_config(&self) -> Option<slfe_graph::StorageConfig> {
        self.storage_budget_bytes
            .map(|budget_bytes| slfe_graph::StorageConfig {
                budget_bytes,
                segment_bytes: self.storage_segment_bytes,
                dir: self.storage_dir.clone(),
                retry: slfe_graph::RetryPolicy::default(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_rr_and_stealing() {
        let c = EngineConfig::default();
        assert_eq!(c.redundancy, RedundancyMode::Enabled);
        assert_eq!(c.scheduling, SchedulingPolicy::WorkStealing);
        assert!(c.trace);
        assert!(c.max_iterations >= 100);
    }

    #[test]
    fn without_rr_flips_only_the_redundancy_mode() {
        let c = EngineConfig::without_rr();
        assert_eq!(c.redundancy, RedundancyMode::Disabled);
        assert_eq!(c.scheduling, EngineConfig::default().scheduling);
    }

    #[test]
    fn builders_override_individual_fields() {
        let c = EngineConfig::default()
            .with_redundancy(RedundancyMode::Disabled)
            .with_scheduling(SchedulingPolicy::StaticBlocks)
            .with_max_iterations(10)
            .with_tolerance(0.0)
            .with_trace(false);
        assert_eq!(c.redundancy, RedundancyMode::Disabled);
        assert_eq!(c.scheduling, SchedulingPolicy::StaticBlocks);
        assert_eq!(c.max_iterations, 10);
        assert_eq!(c.tolerance, 0.0);
        assert!(!c.trace);
        let c = c.with_sparse_push_density(2.0);
        assert_eq!(c.sparse_push_density, 2.0);
        assert!(!c.telemetry.enabled, "telemetry must default off");
        let c = c.with_telemetry(true);
        assert!(c.telemetry.enabled);
    }

    #[test]
    fn cost_model_converts_work_to_seconds() {
        let m = CostModel {
            seconds_per_work_unit: 1e-6,
        };
        assert!((m.seconds(2_000_000) - 2.0).abs() < 1e-9);
        assert_eq!(CostModel::default().seconds(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iteration_cap_panics() {
        let _ = EngineConfig::default().with_max_iterations(0);
    }
}
