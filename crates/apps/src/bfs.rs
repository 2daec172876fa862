//! Breadth-First Search: hop distance from a root.
//!
//! BFS is SSSP with unit edge weights; it is included because the paper's guidance
//! generation (Algorithm 1) is itself a unit-weight BFS, so BFS doubles as a direct
//! check that `last_iter` equals the hop level plus the "latest incoming" rule.

use slfe_core::{AggregationKind, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::{Degrees, EdgeWeight, Graph, VertexId};
use std::collections::VecDeque;

/// BFS as a [`GraphProgram`]; the vertex property is the hop count from the root.
#[derive(Debug, Clone, Copy)]
pub struct BfsProgram {
    /// The source vertex.
    pub root: VertexId,
}

impl GraphProgram for BfsProgram {
    type Value = f32;

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::MinMax
    }

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn initial_value(&self, v: VertexId, _degrees: &Degrees) -> f32 {
        if v == self.root {
            0.0
        } else {
            f32::INFINITY
        }
    }

    fn initial_active(&self, v: VertexId, _degrees: &Degrees) -> bool {
        v == self.root
    }

    fn identity(&self) -> f32 {
        f32::INFINITY
    }

    fn edge_contribution(
        &self,
        _src: VertexId,
        src_value: f32,
        _weight: EdgeWeight,
    ) -> Option<f32> {
        src_value.is_finite().then_some(src_value + 1.0)
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }

    fn apply(&self, _dst: VertexId, old: f32, gathered: f32) -> f32 {
        old.min(gathered)
    }

    /// `hops + 1` strictly increases along every edge: cyclic self-support is
    /// impossible, so warm-start invalidation may prune at derivable vertices.
    fn strictly_monotonic(&self) -> bool {
        true
    }
}

/// Run BFS from `root`; values are hop counts (`INFINITY` = unreachable).
pub fn run(engine: &SlfeEngine, root: VertexId) -> ProgramResult<f32> {
    engine.run(&BfsProgram { root })
}

/// Sequential queue-based BFS reference.
pub fn reference(graph: &Graph, root: VertexId) -> Vec<f32> {
    let mut level = vec![f32::INFINITY; graph.num_vertices()];
    if graph.num_vertices() == 0 {
        return level;
    }
    level[root as usize] = 0.0;
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &u in graph.out_neighbors(v) {
            if level[u as usize].is_infinite() {
                level[u as usize] = level[v as usize] + 1.0;
                queue.push_back(u);
            }
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::distances_match;
    use slfe_cluster::ClusterConfig;
    use slfe_core::{EngineConfig, RrGuidance};
    use slfe_graph::generators;

    #[test]
    fn matches_reference_bfs_on_rmat() {
        let g = generators::rmat(400, 3000, 0.57, 0.19, 0.19, 17);
        let root = slfe_graph::stats::highest_out_degree_vertex(&g).unwrap();
        let expected = reference(&g, root);
        for config in [EngineConfig::default(), EngineConfig::without_rr()] {
            let engine = SlfeEngine::build(&g, ClusterConfig::new(4, 2), config);
            let result = run(&engine, root);
            assert!(distances_match(&result.values, &expected, 1e-4));
        }
    }

    #[test]
    fn hop_levels_on_a_binary_tree_match_depth() {
        let g = generators::binary_tree(4);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default());
        let result = run(&engine, 0);
        for v in g.vertices() {
            let depth = (v as u64 + 1).ilog2() as f32;
            assert_eq!(result.values[v as usize], depth, "vertex {v}");
        }
    }

    #[test]
    fn guidance_last_iter_equals_bfs_depth_on_a_single_root_tree() {
        // A binary tree has exactly one in-degree-0 vertex (the root), so the
        // guidance's propagation pass and BFS from the root explore the same wave:
        // last_iter(v) must equal the hop depth of v.
        let g = generators::binary_tree(5);
        let rrg = RrGuidance::generate(&g);
        let levels = reference(&g, 0);
        for v in g.vertices() {
            assert_eq!(
                rrg.last_iter(v),
                levels[v as usize] as u32,
                "vertex {v}: guidance {} vs BFS depth {}",
                rrg.last_iter(v),
                levels[v as usize]
            );
        }
    }

    #[test]
    fn unreachable_side_component_stays_infinite() {
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_unweighted([(0, 1), (2, 3)]);
        let g = b.build();
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine, 0);
        assert_eq!(result.values[1], 1.0);
        assert!(result.values[2].is_infinite());
    }
}
