//! Single Source Shortest Path (paper Algorithm 4).
//!
//! The vertex property is the shortest known distance from the root; the edge
//! contribution is `dist[src] + weight`; the aggregation is `min()`. Unreached
//! vertices hold `f32::INFINITY`. SSSP is the canonical "start late" beneficiary:
//! a vertex keeps receiving better intermediate distances until its last
//! propagation level, and every update before that level is redundant (§2.2).

use slfe_core::{AggregationKind, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::{Degrees, EdgeWeight, Graph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// SSSP as a [`GraphProgram`].
#[derive(Debug, Clone, Copy)]
pub struct SsspProgram {
    /// The source vertex.
    pub root: VertexId,
}

impl GraphProgram for SsspProgram {
    type Value = f32;

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::MinMax
    }

    fn name(&self) -> &'static str {
        "sssp"
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

    fn edge_contribution(&self, _src: VertexId, src_value: f32, weight: EdgeWeight) -> Option<f32> {
        src_value.is_finite().then_some(src_value + weight)
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }

    fn apply(&self, _dst: VertexId, old: f32, gathered: f32) -> f32 {
        old.min(gathered)
    }

    /// `dist + w` strictly increases for the positive weights every loader and
    /// generator in this workspace produces, so warm-start invalidation may
    /// prune at still-derivable vertices. Feed zero-weight edges and this must
    /// be turned off.
    fn strictly_monotonic(&self) -> bool {
        true
    }
}

/// Run SSSP from `root` on an already-built engine. The returned
/// [`ProgramResult::values`] are the shortest distances (`INFINITY` = unreachable).
pub fn run(engine: &SlfeEngine, root: VertexId) -> ProgramResult<f32> {
    engine.run(&SsspProgram { root })
}

/// Sequential Dijkstra reference used as the correctness oracle.
pub fn reference(graph: &Graph, root: VertexId) -> Vec<f32> {
    let mut dist = vec![f32::INFINITY; graph.num_vertices()];
    if graph.num_vertices() == 0 {
        return dist;
    }
    dist[root as usize] = 0.0;
    let mut heap: BinaryHeap<Reverse<(OrderedF32, VertexId)>> = BinaryHeap::new();
    heap.push(Reverse((OrderedF32(0.0), root)));
    while let Some(Reverse((OrderedF32(d), v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (u, w) in graph.out_edges(v) {
            let candidate = d + w;
            if candidate < dist[u as usize] {
                dist[u as usize] = candidate;
                heap.push(Reverse((OrderedF32(candidate), u)));
            }
        }
    }
    dist
}

/// Total-order wrapper so finite `f32` distances can live in a binary heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrderedF32(pub f32);

impl Eq for OrderedF32 {}

impl PartialOrd for OrderedF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Compare two distance vectors treating infinities as equal and finite values with
/// a tolerance; used by the traversal applications' test suites.
#[cfg(test)]
pub(crate) fn distances_match(a: &[f32], b: &[f32], tolerance: f32) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.is_infinite() && y.is_infinite() && x.signum() == y.signum())
                || (x - y).abs() <= tolerance
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_cluster::ClusterConfig;
    use slfe_core::EngineConfig;
    use slfe_graph::{datasets::Dataset, generators};

    fn engine_pair(graph: &Graph) -> (SlfeEngine, SlfeEngine) {
        (
            SlfeEngine::build(graph, ClusterConfig::new(4, 2), EngineConfig::default()),
            SlfeEngine::build(graph, ClusterConfig::new(4, 2), EngineConfig::without_rr()),
        )
    }

    #[test]
    fn matches_dijkstra_on_an_rmat_proxy() {
        let g = Dataset::Pokec.load_scaled(16_000);
        let root = slfe_graph::stats::highest_out_degree_vertex(&g).unwrap();
        let expected = reference(&g, root);
        let (with_rr, without_rr) = engine_pair(&g);
        let a = run(&with_rr, root);
        let b = run(&without_rr, root);
        assert!(
            distances_match(&a.values, &expected, 1e-3),
            "RR run diverges from Dijkstra"
        );
        assert!(
            distances_match(&b.values, &expected, 1e-3),
            "non-RR run diverges from Dijkstra"
        );
    }

    #[test]
    fn matches_dijkstra_on_a_layered_dag() {
        let g = generators::layered(10, 40, 5, 3);
        let expected = reference(&g, 0);
        let (with_rr, _) = engine_pair(&g);
        let result = run(&with_rr, 0);
        assert!(distances_match(&result.values, &expected, 1e-3));
        assert!(result.converged);
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        // Two disjoint paths; root on the first one.
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_unweighted([(0, 1), (1, 2), (3, 4)]);
        let g = b.build();
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine, 0);
        assert_eq!(result.values[0], 0.0);
        assert!(result.values[3].is_infinite());
        assert!(result.values[4].is_infinite());
    }

    #[test]
    fn rr_reduces_updates_per_vertex_on_a_deep_graph() {
        let g = generators::layered(14, 50, 6, 9);
        let (with_rr, without_rr) = engine_pair(&g);
        let a = run(&with_rr, 0);
        let b = run(&without_rr, 0);
        assert!(
            a.stats.updates_per_vertex() <= b.stats.updates_per_vertex() + 1e-9,
            "RR should not increase updates/vertex ({} vs {})",
            a.stats.updates_per_vertex(),
            b.stats.updates_per_vertex()
        );
    }

    #[test]
    fn root_distance_is_zero_and_stats_name_is_sssp() {
        let g = generators::rmat(100, 600, 0.57, 0.19, 0.19, 11);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default());
        let result = run(&engine, 5);
        assert_eq!(result.values[5], 0.0);
        assert_eq!(result.stats.application, "sssp");
    }

    #[test]
    fn ordered_f32_sorts_like_floats() {
        let mut v = vec![OrderedF32(3.0), OrderedF32(1.0), OrderedF32(2.5)];
        v.sort();
        assert_eq!(v, vec![OrderedF32(1.0), OrderedF32(2.5), OrderedF32(3.0)]);
    }

    #[test]
    fn distances_match_helper_handles_infinities() {
        assert!(distances_match(
            &[1.0, f32::INFINITY],
            &[1.0, f32::INFINITY],
            1e-6
        ));
        assert!(!distances_match(&[1.0, f32::INFINITY], &[1.0, 2.0], 1e-6));
        assert!(!distances_match(&[1.0], &[1.0, 2.0], 1e-6));
    }
}
