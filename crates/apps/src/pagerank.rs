//! PageRank (paper Algorithm 5).
//!
//! As in the paper's pseudo-code, the stored vertex property is the *outgoing rank
//! share* — `rank(v) / out_degree(v)` for vertices with outgoing edges, `rank(v)`
//! otherwise — so that an edge contribution is simply the source's stored value.
//! The `vertex_update` hook applies the damping (`0.15 + 0.85 * sum`) and the
//! division, exactly like Algorithm 5's `vOp`. [`ranks`] converts the stored shares
//! back into conventional ranks.
//!
//! PageRank is the canonical "finish early" beneficiary: the vast majority of
//! vertices stabilise long before global convergence (Figure 2), and the multi
//! ruler stops recomputing them.

use slfe_core::{AggregationKind, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::{Degrees, EdgeWeight, Graph, VertexId};

/// Default damping factor used by the paper (0.85).
pub const DEFAULT_DAMPING: f32 = 0.85;

/// PageRank as a [`GraphProgram`].
#[derive(Debug, Clone, Copy)]
pub struct PageRankProgram {
    /// Damping factor (probability of following a link).
    pub damping: f32,
    /// Number of vertices (used for the teleport term).
    pub num_vertices: usize,
}

impl PageRankProgram {
    /// PageRank with the default damping for a graph of `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            damping: DEFAULT_DAMPING,
            num_vertices,
        }
    }

    /// PageRank sized for `graph` — the program-factory form used by the
    /// incremental serving loop, where `|V|` (the teleport denominator) must
    /// track the current graph version.
    pub fn for_graph(graph: &Graph) -> Self {
        Self::new(graph.num_vertices())
    }
}

impl GraphProgram for PageRankProgram {
    type Value = f32;

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::Arithmetic
    }

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn initial_value(&self, v: VertexId, degrees: &Degrees) -> f32 {
        // Start from the uniform distribution, already expressed as a share.
        let rank = 1.0 / self.num_vertices.max(1) as f32;
        let out = degrees.out_degree(v);
        if out > 0 {
            rank / out as f32
        } else {
            rank
        }
    }

    fn initial_active(&self, _v: VertexId, _degrees: &Degrees) -> bool {
        true
    }

    fn identity(&self) -> f32 {
        0.0
    }

    fn edge_contribution(
        &self,
        _src: VertexId,
        src_value: f32,
        _weight: EdgeWeight,
    ) -> Option<f32> {
        Some(src_value)
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(&self, _dst: VertexId, _old: f32, gathered: f32) -> f32 {
        gathered
    }

    fn vertex_update(&self, v: VertexId, value: f32, degrees: &Degrees) -> f32 {
        let rank = (1.0 - self.damping) / self.num_vertices.max(1) as f32 + self.damping * value;
        let out = degrees.out_degree(v);
        if out > 0 {
            rank / out as f32
        } else {
            rank
        }
    }

    fn changed(&self, old: f32, new: f32, tolerance: f64) -> bool {
        (old - new).abs() as f64 > tolerance
    }
}

/// Run PageRank on an engine; the result's `values` are the stored *shares*
/// (use [`ranks`] to convert).
pub fn run(engine: &SlfeEngine) -> ProgramResult<f32> {
    let program = PageRankProgram::new(engine.graph().num_vertices());
    engine.run(&program)
}

/// Convert the stored shares of a PageRank result back into per-vertex ranks.
pub fn ranks(graph: &Graph, shares: &[f32]) -> Vec<f32> {
    graph
        .vertices()
        .map(|v| {
            let out = graph.out_degree(v);
            if out > 0 {
                shares[v as usize] * out as f32
            } else {
                shares[v as usize]
            }
        })
        .collect()
}

/// Sequential power-iteration reference returning conventional ranks. Iterates
/// until the maximum per-vertex change drops below `tolerance` (or `max_iters`).
pub fn reference(graph: &Graph, damping: f32, tolerance: f32, max_iters: u32) -> Vec<f32> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut rank = vec![1.0 / n as f32; n];
    for _ in 0..max_iters {
        let shares: Vec<f32> = graph
            .vertices()
            .map(|v| {
                let out = graph.out_degree(v);
                if out > 0 {
                    rank[v as usize] / out as f32
                } else {
                    rank[v as usize]
                }
            })
            .collect();
        let mut max_delta = 0.0f32;
        let mut next = vec![0.0f32; n];
        for v in graph.vertices() {
            let sum: f32 = graph
                .in_neighbors(v)
                .iter()
                .map(|&u| shares[u as usize])
                .sum();
            let new = (1.0 - damping) / n as f32 + damping * sum;
            max_delta = max_delta.max((new - rank[v as usize]).abs());
            next[v as usize] = new;
        }
        rank = next;
        if max_delta < tolerance {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_cluster::ClusterConfig;
    use slfe_core::EngineConfig;
    use slfe_graph::{datasets::Dataset, generators};

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn matches_power_iteration_on_rmat() {
        let g = Dataset::Pokec.load_scaled(32_000);
        let expected = reference(&g, DEFAULT_DAMPING, 1e-7, 200);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default());
        let result = run(&engine);
        let got = ranks(&g, &result.values);
        assert!(
            max_abs_diff(&got, &expected) < 1e-3,
            "PageRank diverges from power iteration by {}",
            max_abs_diff(&got, &expected)
        );
    }

    #[test]
    fn rr_and_non_rr_agree_and_rr_does_not_do_more_work() {
        let g = Dataset::Orkut.load_scaled(64_000);
        let rr = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default());
        let no_rr = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::without_rr());
        let a = run(&rr);
        let b = run(&no_rr);
        let ranks_a = ranks(&g, &a.values);
        let ranks_b = ranks(&g, &b.values);
        assert!(max_abs_diff(&ranks_a, &ranks_b) < 1e-3);
        assert!(
            a.stats.totals.work() <= b.stats.totals.work(),
            "finish-early should not add work: {} vs {}",
            a.stats.totals.work(),
            b.stats.totals.work()
        );
    }

    #[test]
    fn ranks_sum_to_approximately_one_on_a_sink_free_graph() {
        let g = generators::cycle(50);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default());
        let result = run(&engine);
        let total: f32 = ranks(&g, &result.values).iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "rank mass {total} drifted");
    }

    #[test]
    fn hub_of_a_star_collects_no_rank_but_leaves_do() {
        // Star edges point hub -> leaves, so leaves receive rank from the hub.
        let g = generators::star(10);
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine);
        let r = ranks(&g, &result.values);
        // Every leaf has the same rank, larger than the teleport-only hub rank.
        for leaf in 1..11 {
            assert!((r[leaf] - r[1]).abs() < 1e-6);
            assert!(r[leaf] > r[0] * 0.9);
        }
    }

    #[test]
    fn most_vertices_converge_early_on_skewed_graphs() {
        // Figure 2's premise: a large share of vertices are early-converged.
        let g = Dataset::Delicious.load_scaled(64_000);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::without_rr());
        let result = run(&engine);
        let ec = result.early_converged_fraction(0.9);
        assert!(
            ec > 0.5,
            "expected most vertices to be early-converged, got {ec}"
        );
    }

    #[test]
    fn reference_handles_empty_graph() {
        let g = slfe_graph::Graph::from_edges(0, vec![]);
        assert!(reference(&g, DEFAULT_DAMPING, 1e-6, 10).is_empty());
    }
}
