//! Connected Components via min-label propagation.
//!
//! Every vertex starts with its own id as its label; labels propagate along edges
//! and each vertex keeps the minimum it has seen. On a *symmetrised* graph the fixed
//! point assigns every vertex the smallest vertex id of its (weakly) connected
//! component, which is the semantics the paper's CC application uses.
//! [`symmetrize`] produces the required bidirectional graph from a directed input.

use std::sync::Arc;

use slfe_core::{AggregationKind, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::{Degrees, EdgeWeight, Graph, GraphBuilder, IdRemap, VertexId};

/// Connected Components as a [`GraphProgram`]; the vertex property is the smallest
/// vertex id seen so far (stored as `f32`, exact for ids below 2^24).
#[derive(Debug, Clone, Default)]
pub struct CcProgram {
    /// External label per physical vertex, captured from a remapped graph's
    /// id-remap. `None` labels every vertex with its own physical id, which
    /// is only correct on an unremapped layout.
    labels: Option<Arc<IdRemap>>,
}

impl CcProgram {
    /// CC labelled with the graph's **external** vertex ids.
    ///
    /// CC is the one registered application whose values are vertex *names*:
    /// on a physically remapped graph the component label must stay the
    /// smallest external id, not the smallest array index, or remapping
    /// would change served answers. Program factories should construct CC
    /// through this — on an unremapped graph it behaves exactly like
    /// [`CcProgram::default`].
    pub fn for_graph(graph: &Graph) -> Self {
        Self {
            labels: graph.remap_arc(),
        }
    }
}

impl GraphProgram for CcProgram {
    type Value = f32;

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::MinMax
    }

    fn name(&self) -> &'static str {
        "cc"
    }

    fn initial_value(&self, v: VertexId, _degrees: &Degrees) -> f32 {
        match &self.labels {
            Some(remap) => remap.to_old(v) as f32,
            None => v as f32,
        }
    }

    fn initial_active(&self, _v: VertexId, _degrees: &Degrees) -> bool {
        true
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
        Some(src_value)
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }

    fn apply(&self, _dst: VertexId, old: f32, gathered: f32) -> f32 {
        old.min(gathered)
    }
}

/// Build the symmetrised (undirected-as-directed) version of `graph`, which CC
/// requires for weakly-connected-component semantics.
pub fn symmetrize(graph: &Graph) -> Graph {
    let mut builder = GraphBuilder::new()
        .with_vertices(graph.num_vertices())
        .symmetric(true)
        .deduplicate(true);
    for e in graph.edges() {
        builder.add_edge(e.src, e.dst, e.weight);
    }
    builder.build()
}

/// Run CC on an engine whose graph is already symmetric; values are component
/// labels (the smallest external vertex id of each component).
pub fn run(engine: &SlfeEngine) -> ProgramResult<f32> {
    engine.run(&CcProgram::for_graph(engine.graph()))
}

/// Union-find reference: component label = smallest vertex id in the component,
/// treating every edge as undirected.
pub fn reference(graph: &Graph) -> Vec<f32> {
    let n = graph.num_vertices();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        // Path compression.
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }

    for e in graph.edges() {
        let a = find(&mut parent, e.src as usize);
        let b = find(&mut parent, e.dst as usize);
        if a != b {
            // Union by smaller root id so the representative is the minimum.
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            parent[hi] = lo;
        }
    }
    (0..n).map(|v| find(&mut parent, v) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_cluster::ClusterConfig;
    use slfe_core::EngineConfig;
    use slfe_graph::{datasets::Dataset, generators};

    fn run_both(graph: &Graph) -> (Vec<f32>, Vec<f32>) {
        let rr = SlfeEngine::build(graph, ClusterConfig::new(4, 2), EngineConfig::default());
        let no_rr = SlfeEngine::build(graph, ClusterConfig::new(4, 2), EngineConfig::without_rr());
        (run(&rr).values, run(&no_rr).values)
    }

    #[test]
    fn matches_union_find_on_symmetrized_rmat() {
        let g = symmetrize(&Dataset::STwitter.load_scaled(20_000));
        let expected = reference(&g);
        let (with_rr, without_rr) = run_both(&g);
        assert_eq!(with_rr, expected);
        assert_eq!(without_rr, expected);
    }

    #[test]
    fn two_disjoint_cycles_give_two_components() {
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_unweighted([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let g = symmetrize(&b.build());
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default());
        let result = run(&engine);
        assert_eq!(result.values[..3], [0.0, 0.0, 0.0]);
        assert_eq!(result.values[3..], [3.0, 3.0, 3.0]);
    }

    #[test]
    fn isolated_vertices_are_their_own_component() {
        let g = slfe_graph::GraphBuilder::new().with_vertices(5).build();
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine);
        assert_eq!(result.values, [0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(reference(&g), result.values);
    }

    #[test]
    fn symmetrize_adds_reverse_edges_once() {
        let g = generators::path(4);
        let s = symmetrize(&g);
        assert_eq!(s.num_edges(), 6);
        assert!(s.has_edge(1, 0));
        assert!(s.has_edge(0, 1));
        // Symmetrising twice is a no-op in edge count.
        assert_eq!(symmetrize(&s).num_edges(), 6);
    }

    #[test]
    fn chain_collapses_to_the_smallest_id() {
        let g = symmetrize(&generators::path(64));
        let engine = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default());
        let result = run(&engine);
        assert!(result.values.iter().all(|&l| l == 0.0));
        assert!(result.converged);
    }
}
