//! Sparse matrix-vector multiplication: `y = Aᵀ·x` over the graph's weighted
//! adjacency matrix.
//!
//! The vertex property is the pair `(x, y)`: `x` is the (constant) input vector
//! entry, `y` the accumulated product `Σ_{u -> v} w(u, v) · x(u)`. Because `x`
//! never changes, `y` is identical from the first iteration on and the run
//! converges after two iterations — SpMV is the degenerate member of the
//! arithmetic family and exercises the multi-ruler bookkeeping with a trivially
//! stable workload.

use slfe_core::{AggregationKind, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::{Degrees, EdgeWeight, Graph, VertexId};

/// The `(input, output)` pair stored per vertex.
pub type SpmvValue = (f32, f32);

/// SpMV as a [`GraphProgram`]. The input vector is provided up front.
#[derive(Debug, Clone)]
pub struct SpmvProgram {
    /// The dense input vector `x`, indexed by vertex id.
    pub input: Vec<f32>,
}

impl SpmvProgram {
    /// SpMV with the all-ones input vector (row sums of the adjacency matrix).
    pub fn ones(num_vertices: usize) -> Self {
        Self {
            input: vec![1.0; num_vertices],
        }
    }
}

impl GraphProgram for SpmvProgram {
    type Value = SpmvValue;

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::Arithmetic
    }

    fn name(&self) -> &'static str {
        "spmv"
    }

    fn initial_value(&self, v: VertexId, _degrees: &Degrees) -> SpmvValue {
        (self.input.get(v as usize).copied().unwrap_or(0.0), 0.0)
    }

    fn initial_active(&self, _v: VertexId, _degrees: &Degrees) -> bool {
        true
    }

    fn identity(&self) -> SpmvValue {
        (0.0, 0.0)
    }

    fn edge_contribution(
        &self,
        _src: VertexId,
        src_value: SpmvValue,
        weight: EdgeWeight,
    ) -> Option<SpmvValue> {
        Some((0.0, src_value.0 * weight))
    }

    fn combine(&self, a: SpmvValue, b: SpmvValue) -> SpmvValue {
        (a.0 + b.0, a.1 + b.1)
    }

    fn apply(&self, _dst: VertexId, old: SpmvValue, gathered: SpmvValue) -> SpmvValue {
        // Keep the input component, replace the output component.
        (old.0, gathered.1)
    }

    fn changed(&self, old: SpmvValue, new: SpmvValue, tolerance: f64) -> bool {
        (old.1 - new.1).abs() as f64 > tolerance
    }
}

/// Run SpMV with input vector `x`; use [`product`] to extract `y`.
pub fn run(engine: &SlfeEngine, input: Vec<f32>) -> ProgramResult<SpmvValue> {
    assert_eq!(
        input.len(),
        engine.graph().num_vertices(),
        "input vector length must match the vertex count"
    );
    engine.run(&SpmvProgram { input })
}

/// Extract the output vector `y` from an SpMV result.
pub fn product(values: &[SpmvValue]) -> Vec<f32> {
    values.iter().map(|&(_, y)| y).collect()
}

/// Sequential reference: `y(v) = Σ_{u -> v} w(u, v) · x(u)`.
pub fn reference(graph: &Graph, input: &[f32]) -> Vec<f32> {
    graph
        .vertices()
        .map(|v| graph.in_edges(v).map(|(u, w)| w * input[u as usize]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_cluster::ClusterConfig;
    use slfe_core::EngineConfig;
    use slfe_graph::{datasets::Dataset, generators, GraphBuilder};

    #[test]
    fn multiplies_a_small_matrix_correctly() {
        // Adjacency: 0->1 (2.0), 0->2 (3.0), 1->2 (4.0).
        let mut b = GraphBuilder::new();
        b.extend_weighted([(0, 1, 2.0), (0, 2, 3.0), (1, 2, 4.0)]);
        let g = b.build();
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine, vec![1.0, 10.0, 100.0]);
        let y = product(&result.values);
        assert_eq!(y, vec![0.0, 2.0, 43.0]);
        assert!(result.converged);
    }

    #[test]
    fn matches_reference_on_rmat_with_random_input() {
        let g = Dataset::Pokec.load_scaled(64_000);
        let input: Vec<f32> = (0..g.num_vertices())
            .map(|i| (i % 7) as f32 * 0.5)
            .collect();
        let expected = reference(&g, &input);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default());
        let result = run(&engine, input);
        let y = product(&result.values);
        for (a, b) in y.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-2 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn converges_in_a_handful_of_iterations() {
        let g = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 23);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 2), EngineConfig::default());
        let result = run(&engine, vec![1.0; g.num_vertices()]);
        assert!(
            result.stats.iterations <= 3,
            "SpMV should converge immediately"
        );
    }

    #[test]
    #[should_panic(expected = "input vector length")]
    fn mismatched_input_length_panics() {
        let g = generators::path(4);
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let _ = run(&engine, vec![1.0; 3]);
    }

    #[test]
    fn ones_input_builds_all_ones_vector() {
        let p = SpmvProgram::ones(5);
        assert_eq!(p.input, vec![1.0; 5]);
    }
}
