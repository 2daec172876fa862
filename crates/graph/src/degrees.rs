//! Compact per-vertex degree arrays ([`Degrees`]) for program callbacks.
//!
//! Vertex programs that need structural information in their per-vertex hooks
//! (PageRank and TunkRank divide by out-degree) receive [`Degrees`], not the
//! whole in-RAM [`crate::Graph`]. Handing hooks the graph would block two
//! things: out-of-core execution cannot bound resident memory while callbacks
//! may touch arbitrary adjacency, and a physical id remap would hand programs
//! a graph whose neighbor lists are in remapped order. [`Degrees`] is the
//! narrow view instead: two `u32` per vertex, indexed by **physical** id —
//! exactly what the degree-reading hooks need, nothing they could misuse.
//!
//! [`Degrees::of`] extracts the arrays in `O(V)`. A serving loop keeps one
//! [`Degrees`] across graph versions instead and [`Degrees::patch`]es it at
//! each batch's dirty endpoints and appended vertices, in `O(batch)`.

use crate::graph::Graph;
use crate::types::VertexId;

/// Per-vertex out/in degree counts, indexed by physical vertex id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degrees {
    out: Vec<u32>,
    incoming: Vec<u32>,
}

impl Degrees {
    /// Extract the degree arrays of `graph` (`O(V)` time and `8·V` bytes).
    pub fn of(graph: &Graph) -> Self {
        let collect = |adjacency: &crate::Adjacency| {
            let mut degrees = Vec::with_capacity(graph.num_vertices());
            adjacency.degrees().for_each(|d| degrees.push(d as u32));
            degrees
        };
        Self {
            out: collect(graph.out_adjacency()),
            incoming: collect(graph.in_adjacency()),
        }
    }

    /// Bring these degrees of one graph version up to date with `graph`,
    /// its successor or predecessor under one edge batch whose changed
    /// endpoints are `dirty` ([`crate::BatchEffect::dirty`], ascending):
    /// re-read the dirty vertices and append the vertices the batch added,
    /// or drop them when going back, in `O(|dirty| + appended)`. The result
    /// equals [`Degrees::of`]`(graph)`.
    pub fn patch(&mut self, graph: &Graph, dirty: &[VertexId]) {
        let n = graph.num_vertices();
        self.out.truncate(n);
        self.incoming.truncate(n);
        for v in self.out.len()..n {
            self.out.push(graph.out_degree(v as VertexId) as u32);
            self.incoming.push(graph.in_degree(v as VertexId) as u32);
        }
        for &v in dirty.iter().take_while(|&&v| (v as usize) < n) {
            self.out[v as usize] = graph.out_degree(v) as u32;
            self.incoming[v as usize] = graph.in_degree(v) as u32;
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Out-degree of `v` (0 when out of range, mirroring an absent vertex).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.get(v as usize).copied().unwrap_or(0) as usize
    }

    /// In-degree of `v` (0 when out of range).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.incoming.get(v as usize).copied().unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degrees_match_the_graph() {
        let g = generators::rmat(200, 1400, 0.57, 0.19, 0.19, 9);
        let d = Degrees::of(&g);
        assert_eq!(d.num_vertices(), g.num_vertices());
        for v in g.vertices() {
            assert_eq!(d.out_degree(v), g.out_degree(v));
            assert_eq!(d.in_degree(v), g.in_degree(v));
        }
        assert_eq!(d.out_degree(g.num_vertices() as VertexId + 5), 0);
    }

    #[test]
    fn patched_degrees_equal_a_fresh_extraction_across_a_batch_stream() {
        let mut g = generators::rmat(300, 2100, 0.57, 0.19, 0.19, 17);
        let mut d = Degrees::of(&g);
        let shape = generators::BatchShape::Mixed { allow_growth: true };
        for seed in 0..20 {
            let batch = generators::random_batch(&g, seed, 1 + seed as usize % 9, shape);
            let (next, effect) = g.apply_batch(&batch);
            d.patch(&next, &effect.dirty);
            assert_eq!(d, Degrees::of(&next), "batch {seed}");
            g = next;
        }
    }
}
