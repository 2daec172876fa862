//! The result of running a [`crate::GraphProgram`] on the engine.

use slfe_graph::VertexId;
use slfe_metrics::ExecutionStats;

/// Values, statistics and convergence information produced by one run.
#[derive(Debug, Clone)]
pub struct ProgramResult<V> {
    /// Final per-vertex property values.
    pub values: Vec<V>,
    /// Run statistics: counters, trace, phase breakdown, per-node work.
    pub stats: ExecutionStats,
    /// For every vertex, the iteration of its *last* value change (0 if it never
    /// changed). Drives the early-convergence analysis of Figure 2. Only a run
    /// from initial values ([`crate::SlfeEngine::run`]) fills it; a warm
    /// restart returns it empty, because its iteration numbers count from the
    /// batch, not from a cold start, and filling it would cost O(|V|).
    pub last_changed_iter: Vec<u32>,
    /// Per node, per worker accumulated busy work in counted units
    /// (`per_node_worker_work[node][worker]`). Drives Figure 10(a).
    pub per_node_worker_work: Vec<Vec<u64>>,
    /// `true` if the run reached a fixed point before hitting the iteration cap.
    pub converged: bool,
    /// `true` if the run converged with the redundancy-reduction rulers off:
    /// no vertex was skipped by a ruler, so pulling any vertex from these
    /// values again would not change it. An arithmetic warm restart
    /// ([`crate::SlfeEngine::restart`]) from such a result pulls selectively
    /// from its first iteration; from any other result (a ruler-gated or
    /// capped run, or values restored from elsewhere) its first pull
    /// re-pulls every vertex.
    pub exact_fixpoint: bool,
    /// Warm restarts only ([`crate::SlfeEngine::restart`]): every vertex
    /// whose value may differ from the previous result's, ascending. It
    /// holds the appended vertices, the ones a full reseed
    /// ([`crate::GraphProgram::warm_start_resets`]) moved, the min/max
    /// invalidations and every vertex a phase wrote. A vertex outside it
    /// holds a value `==` to its previous one, which is the same bits unless
    /// `==` equates distinct bit patterns (±0.0). It is collected from the
    /// per-iteration lists of written vertices, deduplicated through a kept
    /// bitset and sorted once, so it costs O(changed · log changed); it is
    /// built from barrier-merged state only, so it is identical at every
    /// worker count.
    /// `None` for a run from initial values ([`crate::SlfeEngine::run`]).
    pub changed: Option<Vec<VertexId>>,
}

impl<V> ProgramResult<V> {
    /// Number of iterations the run executed.
    pub fn iterations(&self) -> u32 {
        self.stats.iterations
    }

    /// Fraction of vertices that were *early converged*: their last change happened
    /// at or before `fraction` of the run's iterations. The paper's Figure 2 uses
    /// `fraction = 0.9` ("when the program reaches 90% of the execution time").
    ///
    /// Only vertices that changed at least once are counted in the denominator, so
    /// isolated vertices do not inflate the ratio. It reads
    /// [`ProgramResult::last_changed_iter`], which only cold runs fill: for a
    /// warm restart's result it is 0.0.
    pub fn early_converged_fraction(&self, fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let total_iters = self.iterations();
        if total_iters == 0 {
            return 0.0;
        }
        let cutoff = (total_iters as f64 * fraction).floor() as u32;
        let mut touched = 0usize;
        let mut early = 0usize;
        for &last in &self.last_changed_iter {
            if last == 0 {
                continue;
            }
            touched += 1;
            if last <= cutoff {
                early += 1;
            }
        }
        if touched == 0 {
            0.0
        } else {
            early as f64 / touched as f64
        }
    }

    /// Per-worker busy work flattened across all nodes; convenience for the
    /// intra-node balance analysis.
    pub fn all_worker_work(&self) -> Vec<u64> {
        self.per_node_worker_work
            .iter()
            .flatten()
            .copied()
            .collect()
    }
}

/// Convenience alias for results over `f32` vertex properties (every application in
/// `slfe-apps` uses single-precision properties, as the paper's pseudo-code does).
pub type FloatResult = ProgramResult<f32>;

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(last_changed: Vec<u32>, iterations: u32) -> ProgramResult<f32> {
        let mut stats = ExecutionStats::new("slfe", "test");
        stats.iterations = iterations;
        ProgramResult {
            values: vec![0.0; last_changed.len()],
            stats,
            last_changed_iter: last_changed,
            per_node_worker_work: vec![vec![3, 5], vec![4, 4]],
            converged: true,
            exact_fixpoint: true,
            changed: None,
        }
    }

    #[test]
    fn ec_fraction_counts_only_touched_vertices() {
        // 10 iterations; cutoff at 0.9 -> iteration 9.
        let r = result_with(vec![0, 1, 5, 9, 10, 10], 10);
        // touched = 5 (vertex with last=0 excluded); early = 3 (1, 5, 9).
        assert!((r.early_converged_fraction(0.9) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn ec_fraction_is_one_when_everything_settles_early() {
        let r = result_with(vec![1, 1, 2, 2], 100);
        assert!((r.early_converged_fraction(0.9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ec_fraction_handles_degenerate_runs() {
        let r = result_with(vec![0, 0, 0], 5);
        assert_eq!(r.early_converged_fraction(0.9), 0.0);
        let r0 = result_with(vec![1, 2], 0);
        assert_eq!(r0.early_converged_fraction(0.9), 0.0);
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn ec_fraction_rejects_bad_fraction() {
        let r = result_with(vec![1], 10);
        r.early_converged_fraction(1.5);
    }

    #[test]
    fn worker_work_flattens_across_nodes() {
        let r = result_with(vec![1], 1);
        assert_eq!(r.all_worker_work(), vec![3, 5, 4, 4]);
        assert_eq!(r.iterations(), 1);
    }
}
