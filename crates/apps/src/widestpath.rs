//! Widest Path (maximum bottleneck capacity from a root).
//!
//! The vertex property is the largest capacity with which the vertex can be reached
//! from the root, where a path's capacity is the minimum edge weight along it. The
//! aggregation is `max()` over `min(src_width, edge_weight)` contributions — the
//! `max()`-flavoured member of the paper's min/max family.

use crate::sssp::OrderedF32;
use slfe_core::{AggregationKind, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::{Degrees, EdgeWeight, Graph, VertexId};
use std::collections::BinaryHeap;

/// Widest Path as a [`GraphProgram`]; unreached vertices hold 0.0, the root holds
/// `f32::INFINITY` (its bottleneck is unconstrained).
#[derive(Debug, Clone, Copy)]
pub struct WidestPathProgram {
    /// The source vertex.
    pub root: VertexId,
}

impl GraphProgram for WidestPathProgram {
    type Value = f32;

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::MinMax
    }

    fn name(&self) -> &'static str {
        "widestpath"
    }

    fn initial_value(&self, v: VertexId, _degrees: &Degrees) -> f32 {
        if v == self.root {
            f32::INFINITY
        } else {
            0.0
        }
    }

    fn initial_active(&self, v: VertexId, _degrees: &Degrees) -> bool {
        v == self.root
    }

    fn identity(&self) -> f32 {
        0.0
    }

    fn edge_contribution(&self, _src: VertexId, src_value: f32, weight: EdgeWeight) -> Option<f32> {
        (src_value > 0.0).then(|| src_value.min(weight))
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a.max(b)
    }

    fn apply(&self, _dst: VertexId, old: f32, gathered: f32) -> f32 {
        old.max(gathered)
    }
}

/// Run Widest Path from `root`; values are bottleneck capacities (0 = unreachable,
/// `INFINITY` for the root itself).
pub fn run(engine: &SlfeEngine, root: VertexId) -> ProgramResult<f32> {
    engine.run(&WidestPathProgram { root })
}

/// Dijkstra-style reference with a max-heap on path capacity.
pub fn reference(graph: &Graph, root: VertexId) -> Vec<f32> {
    let mut width = vec![0.0f32; graph.num_vertices()];
    if graph.num_vertices() == 0 {
        return width;
    }
    width[root as usize] = f32::INFINITY;
    let mut heap = BinaryHeap::new();
    heap.push((OrderedF32(f32::INFINITY), root));
    while let Some((OrderedF32(w), v)) = heap.pop() {
        if w < width[v as usize] {
            continue;
        }
        for (u, edge_w) in graph.out_edges(v) {
            let candidate = w.min(edge_w);
            if candidate > width[u as usize] {
                width[u as usize] = candidate;
                heap.push((OrderedF32(candidate), u));
            }
        }
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::distances_match;
    use slfe_cluster::ClusterConfig;
    use slfe_core::EngineConfig;
    use slfe_graph::{datasets::Dataset, generators, GraphBuilder};

    #[test]
    fn picks_the_bottleneck_maximising_path() {
        // Two routes 0 -> 3: via 1 with bottleneck 5, via 2 with bottleneck 2.
        let mut b = GraphBuilder::new();
        b.extend_weighted([(0, 1, 5.0), (1, 3, 7.0), (0, 2, 9.0), (2, 3, 2.0)]);
        let g = b.build();
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine, 0);
        assert_eq!(result.values[3], 5.0);
        assert_eq!(result.values[1], 5.0);
        assert_eq!(result.values[2], 9.0);
        assert!(result.values[0].is_infinite());
    }

    #[test]
    fn matches_reference_on_rmat_with_and_without_rr() {
        let g = Dataset::LiveJournal.load_scaled(40_000);
        let root = slfe_graph::stats::highest_out_degree_vertex(&g).unwrap();
        let expected = reference(&g, root);
        for config in [EngineConfig::default(), EngineConfig::without_rr()] {
            let engine = SlfeEngine::build(&g, ClusterConfig::new(4, 2), config);
            let result = run(&engine, root);
            assert!(
                distances_match(&result.values, &expected, 1e-4),
                "widest path diverges from reference"
            );
        }
    }

    #[test]
    fn unreachable_vertices_keep_zero_width() {
        let g = generators::path(4); // 0 -> 1 -> 2 -> 3
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default());
        let result = run(&engine, 2);
        assert_eq!(result.values[0], 0.0);
        assert_eq!(result.values[1], 0.0);
        assert_eq!(result.values[3], 1.0);
    }

    #[test]
    fn reference_and_engine_agree_on_layered_graph() {
        let g = generators::layered(8, 25, 4, 13);
        let expected = reference(&g, 0);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default());
        let result = run(&engine, 0);
        assert!(distances_match(&result.values, &expected, 1e-4));
    }
}
