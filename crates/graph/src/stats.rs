//! Structural helpers for picking traversal roots: reachability from a vertex
//! and the highest-out-degree hub.

use crate::graph::Graph;
use crate::types::VertexId;

/// Number of vertices reachable from `root` following outgoing edges (including the
/// root itself). Used by tests to characterise generated graphs and by the harness
/// to pick SSSP roots with large reachable sets.
pub fn reachable_from(graph: &Graph, root: VertexId) -> usize {
    let mut visited = vec![false; graph.num_vertices()];
    let mut stack = vec![root];
    visited[root as usize] = true;
    let mut count = 0usize;
    while let Some(v) = stack.pop() {
        count += 1;
        for &u in graph.out_neighbors(v) {
            if !visited[u as usize] {
                visited[u as usize] = true;
                stack.push(u);
            }
        }
    }
    count
}

/// Pick the vertex with the largest out-degree; a sensible default SSSP/BFS root for
/// skewed graphs (mirrors the paper's practice of rooting traversals at a hub).
pub fn highest_out_degree_vertex(graph: &Graph) -> Option<VertexId> {
    // Degree ties break on the *external* id so the choice is independent of
    // the physical layout (on an unremapped graph this is exactly the old
    // "last maximal vertex" behavior of a bare `max_by_key(out_degree)`).
    graph
        .vertices()
        .max_by_key(|&v| (graph.out_degree(v), graph.external_id(v)))
        .filter(|_| graph.num_vertices() > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn reachability_on_a_path() {
        let g = generators::path(20);
        assert_eq!(reachable_from(&g, 0), 20);
        assert_eq!(reachable_from(&g, 10), 10);
        assert_eq!(reachable_from(&g, 19), 1);
    }

    #[test]
    fn highest_degree_vertex_of_star_is_center() {
        let g = generators::star(5);
        assert_eq!(highest_out_degree_vertex(&g), Some(0));
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::Graph::from_edges(0, vec![]);
        assert_eq!(highest_out_degree_vertex(&g), None);
    }
}
