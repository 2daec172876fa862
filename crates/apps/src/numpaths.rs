//! NumPaths: the number of distinct paths from a root vertex, on a DAG.
//!
//! `paths(root) = 1` and `paths(v) = Σ_{u -> v} paths(u)` — a pure `sum()`
//! aggregation (Table 1). On a DAG the synchronous iteration stabilises once every
//! upstream vertex has stabilised, after at most `depth` iterations. The application
//! is only meaningful on acyclic graphs; on cyclic inputs the count diverges, so the
//! `run` helper checks nothing but the documentation (and the reference) assume a
//! DAG such as [`slfe_graph::generators::layered`] or a tree.
//!
//! **Redundancy-reduction caveat.** NumPaths is *source-seeded*: a vertex far from
//! the root legitimately sits at 0 for many iterations before its count arrives.
//! The paper's "finish early" rule declares a vertex early-converged after it has
//! been stable for `last_iter` iterations, and because the guidance's propagation
//! level can be shorter than the root's distance (other in-degree-0 vertices also
//! act as guidance roots), such a vertex can be frozen at 0. This is inherent to
//! the heuristic, not to this implementation — run NumPaths with
//! [`slfe_core::EngineConfig::without_rr`] when exact counts matter, as the
//! benchmark harness does.

use slfe_core::{AggregationKind, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::{Degrees, EdgeWeight, Graph, VertexId};

/// NumPaths as a [`GraphProgram`]; the vertex property is the path count (f32, so
/// counts are exact up to 2^24).
#[derive(Debug, Clone, Copy)]
pub struct NumPathsProgram {
    /// The path-counting source.
    pub root: VertexId,
}

impl GraphProgram for NumPathsProgram {
    type Value = f32;

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::Arithmetic
    }

    fn name(&self) -> &'static str {
        "numpaths"
    }

    fn initial_value(&self, v: VertexId, _degrees: &Degrees) -> f32 {
        if v == self.root {
            1.0
        } else {
            0.0
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
        (src_value > 0.0).then_some(src_value)
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(&self, dst: VertexId, _old: f32, gathered: f32) -> f32 {
        // The root's count is fixed at 1 regardless of incoming edges.
        if dst == self.root {
            1.0
        } else {
            gathered
        }
    }

    fn changed(&self, old: f32, new: f32, tolerance: f64) -> bool {
        (old - new).abs() as f64 > tolerance
    }
}

/// Run NumPaths from `root` on a DAG.
pub fn run(engine: &SlfeEngine, root: VertexId) -> ProgramResult<f32> {
    engine.run(&NumPathsProgram { root })
}

/// Sequential reference: topological-order accumulation of path counts.
/// Panics if the graph has a cycle reachable from anywhere (Kahn's algorithm fails).
pub fn reference(graph: &Graph, root: VertexId) -> Vec<f32> {
    let n = graph.num_vertices();
    let mut in_degree: Vec<usize> = graph.vertices().map(|v| graph.in_degree(v)).collect();
    let mut queue: Vec<VertexId> = graph
        .vertices()
        .filter(|&v| in_degree[v as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &u in graph.out_neighbors(v) {
            in_degree[u as usize] -= 1;
            if in_degree[u as usize] == 0 {
                queue.push(u);
            }
        }
    }
    assert_eq!(order.len(), n, "NumPaths reference requires a DAG");

    let mut paths = vec![0.0f32; n];
    paths[root as usize] = 1.0;
    for &v in &order {
        if paths[v as usize] == 0.0 {
            continue;
        }
        for &u in graph.out_neighbors(v) {
            if u != root {
                paths[u as usize] += paths[v as usize];
            }
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_cluster::ClusterConfig;
    use slfe_core::EngineConfig;
    use slfe_graph::{generators, GraphBuilder};

    #[test]
    fn diamond_has_two_paths_to_the_sink() {
        let mut b = GraphBuilder::new();
        b.extend_unweighted([(0, 1), (0, 2), (1, 3), (2, 3)]);
        let g = b.build();
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine, 0);
        assert_eq!(result.values, vec![1.0, 1.0, 1.0, 2.0]);
        assert_eq!(reference(&g, 0), result.values);
    }

    #[test]
    fn binary_tree_has_exactly_one_path_to_every_node() {
        let g = generators::binary_tree(5);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 2), EngineConfig::default());
        let result = run(&engine, 0);
        assert!(result.values.iter().all(|&c| c == 1.0));
    }

    #[test]
    fn matches_reference_on_a_layered_dag_without_rr() {
        let g = generators::layered(8, 20, 3, 77);
        let expected = reference(&g, 0);
        let engine = SlfeEngine::build(
            &g,
            ClusterConfig::new(4, 2),
            EngineConfig::without_rr().with_tolerance(0.0),
        );
        let result = run(&engine, 0);
        assert_eq!(result.values, expected);
    }

    #[test]
    fn finish_early_heuristic_can_only_underestimate_source_seeded_counts() {
        // With RR the "finish early" rule may freeze a distant vertex at an
        // intermediate (lower) count — the caveat documented in the module docs.
        // It must never overestimate, and near-root vertices stay exact.
        let g = generators::layered(8, 20, 3, 77);
        let expected = reference(&g, 0);
        let engine = SlfeEngine::build(
            &g,
            ClusterConfig::new(4, 2),
            EngineConfig::default().with_tolerance(0.0),
        );
        let result = run(&engine, 0);
        for v in g.vertices() {
            assert!(
                result.values[v as usize] <= expected[v as usize] + 1e-6,
                "vertex {v}: RR count {} exceeds exact count {}",
                result.values[v as usize],
                expected[v as usize]
            );
        }
        // Layer 0 and layer 1 counts are reached in the very first iteration and
        // therefore cannot be frozen early.
        for v in 0..40u32 {
            assert_eq!(
                result.values[v as usize], expected[v as usize],
                "vertex {v}"
            );
        }
    }

    #[test]
    fn vertices_not_reachable_from_the_root_count_zero() {
        let mut b = GraphBuilder::new();
        b.extend_unweighted([(0, 1), (2, 3)]);
        let g = b.build();
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine, 0);
        assert_eq!(result.values, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "requires a DAG")]
    fn reference_rejects_cycles() {
        let g = generators::cycle(4);
        let _ = reference(&g, 0);
    }
}
