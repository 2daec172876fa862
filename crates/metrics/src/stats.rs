//! Run-level execution statistics returned by every engine.

use crate::counters::Counters;
use crate::trace::IterationTrace;

/// Where the run's wall-clock time went.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseBreakdown {
    /// Seconds spent generating the redundancy-reduction guidance (SLFE only;
    /// zero for baselines). Figure 8's "SLFE overhead" bar.
    pub preprocessing_seconds: f64,
    /// Seconds spent in the iterative execution phase.
    pub execution_seconds: f64,
}

impl PhaseBreakdown {
    /// Total seconds across phases — the "end-to-end" time of Figure 8.
    pub fn total_seconds(&self) -> f64 {
        self.preprocessing_seconds + self.execution_seconds
    }
}

/// Everything a single engine run reports back.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ExecutionStats {
    /// Engine name ("slfe", "gemini", "powergraph", ...).
    pub engine: String,
    /// Application name ("sssp", "pagerank", ...).
    pub application: String,
    /// Number of vertices of the processed graph.
    pub num_vertices: usize,
    /// Number of edges of the processed graph.
    pub num_edges: usize,
    /// Number of simulated cluster nodes used.
    pub num_nodes: usize,
    /// Number of worker threads per node.
    pub workers_per_node: usize,
    /// Number of iterations until convergence/termination.
    pub iterations: u32,
    /// Aggregate work counters.
    pub totals: Counters,
    /// Wall-clock phase breakdown.
    pub phases: PhaseBreakdown,
    /// Per-iteration trace (may be empty if tracing was disabled).
    pub trace: IterationTrace,
    /// Per-node busy work (counted units), indexed by node id. Used for the
    /// inter-node imbalance analysis of Figure 10(b).
    pub per_node_work: Vec<u64>,
}

impl ExecutionStats {
    /// Create a stats shell for `engine` running `application`.
    pub fn new(engine: impl Into<String>, application: impl Into<String>) -> Self {
        Self {
            engine: engine.into(),
            application: application.into(),
            ..Self::default()
        }
    }

    /// Updates per vertex (Table 2 metric).
    pub fn updates_per_vertex(&self) -> f64 {
        self.totals.updates_per_vertex(self.num_vertices)
    }

    /// Speedup of this run relative to `baseline`, in counted work units.
    /// Values above 1.0 mean this run did less work.
    pub fn work_speedup_over(&self, baseline: &ExecutionStats) -> f64 {
        let own = self.totals.work().max(1);
        baseline.totals.work().max(1) as f64 / own as f64
    }

    /// Runtime improvement over `baseline` as a percentage (Figure 5's metric):
    /// `(t_baseline - t_self) / t_baseline * 100`, computed on counted work.
    pub fn work_improvement_percent_over(&self, baseline: &ExecutionStats) -> f64 {
        let base = baseline.totals.work().max(1) as f64;
        let own = self.totals.work() as f64;
        (base - own) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(work: u64, updates: u64, vertices: usize, exec_secs: f64) -> ExecutionStats {
        let mut s = ExecutionStats::new("slfe", "sssp");
        s.num_vertices = vertices;
        s.totals = Counters {
            edge_computations: work,
            vertex_updates: updates,
            ..Counters::zero()
        };
        s.phases.execution_seconds = exec_secs;
        s
    }

    #[test]
    fn phase_total_adds_both_phases() {
        let p = PhaseBreakdown {
            preprocessing_seconds: 0.5,
            execution_seconds: 2.0,
        };
        assert!((p.total_seconds() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn updates_per_vertex_uses_vertex_count() {
        let s = stats(0, 50, 10, 1.0);
        assert!((s.updates_per_vertex() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn work_speedup_is_ratio_of_baseline_to_self() {
        let fast = stats(100, 0, 10, 1.0);
        let slow = stats(1000, 0, 10, 1.0);
        assert!((fast.work_speedup_over(&slow) - 10.0).abs() < 1e-9);
        assert!((slow.work_speedup_over(&fast) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn improvement_percent_matches_figure5_semantics() {
        let slfe = stats(600, 0, 10, 1.0);
        let gemini = stats(1000, 0, 10, 1.0);
        assert!((slfe.work_improvement_percent_over(&gemini) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_does_not_divide_by_zero() {
        let a = stats(0, 0, 10, 0.0);
        let b = stats(0, 0, 10, 0.0);
        assert!(a.work_speedup_over(&b).is_finite());
    }
}
