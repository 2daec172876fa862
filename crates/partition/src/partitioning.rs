//! The result of partitioning: a vertex → node assignment with lookup helpers.

use slfe_graph::{Graph, VertexId};

/// Identifier of a logical cluster node (partition owner).
pub type NodeId = usize;

/// An assignment of every vertex to one of `num_parts` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    owner: Vec<NodeId>,
    parts: Vec<Vec<VertexId>>,
}

impl Partitioning {
    /// Build a partitioning from an explicit owner array.
    ///
    /// Panics if any owner id is `>= num_parts`.
    pub fn from_owners(owner: Vec<NodeId>, num_parts: usize) -> Self {
        assert!(num_parts >= 1, "need at least one partition");
        let mut parts = vec![Vec::new(); num_parts];
        for (v, &o) in owner.iter().enumerate() {
            assert!(
                o < num_parts,
                "owner {o} of vertex {v} out of range ({num_parts} parts)"
            );
            parts[o].push(v as VertexId);
        }
        Self { owner, parts }
    }

    /// Number of partitions (some may be empty).
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Number of vertices assigned.
    pub fn num_vertices(&self) -> usize {
        self.owner.len()
    }

    /// The node that owns vertex `v`.
    pub fn owner_of(&self, v: VertexId) -> NodeId {
        self.owner[v as usize]
    }

    /// The vertices owned by `node`, in ascending id order.
    pub fn vertices_of(&self, node: NodeId) -> &[VertexId] {
        &self.parts[node]
    }

    /// Whole owner array (indexed by vertex id).
    pub fn owners(&self) -> &[NodeId] {
        &self.owner
    }

    /// Number of vertices owned by each node.
    pub fn vertex_counts(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.len()).collect()
    }

    /// Grow the id space to `new_num_vertices`, assigning each appended vertex
    /// to the **least-loaded** node (fewest owned vertices, ties to the lowest
    /// node id) at the moment it is appended. The vertex-id space only ever
    /// grows across [`slfe_graph::Graph::apply_batch`], so a serving loop can
    /// keep one partitioning stable across graph versions — the prerequisite
    /// for patching the chunk layout instead of re-deriving it — by extending
    /// it per batch instead of re-partitioning. Appended ids exceed all
    /// existing ones, so each node's vertex list stays ascending regardless of
    /// which node receives it.
    ///
    /// Earlier revisions appended every grown vertex to one fixed node, so a
    /// sustained-growth workload skewed that node's load without bound; the
    /// least-loaded rule keeps the vertex-count imbalance within one vertex of
    /// where it started, batch after batch (pinned by test).
    pub fn extend_to(&mut self, new_num_vertices: usize) {
        assert!(
            new_num_vertices >= self.owner.len(),
            "the id space only grows"
        );
        let mut counts: Vec<usize> = self.parts.iter().map(|p| p.len()).collect();
        for v in self.owner.len()..new_num_vertices {
            let node = counts
                .iter()
                .enumerate()
                .min_by_key(|&(i, &c)| (c, i))
                .map(|(i, _)| i)
                .expect("at least one partition");
            counts[node] += 1;
            self.owner.push(node);
            self.parts[node].push(v as VertexId);
        }
    }

    /// Shrink the id space back to `num_vertices`, undoing an
    /// [`Partitioning::extend_to`]: the dropped ids sit at the end of their
    /// nodes' ascending lists.
    pub fn truncate(&mut self, num_vertices: usize) {
        self.owner.truncate(num_vertices);
        for part in &mut self.parts {
            part.truncate(part.partition_point(|&v| (v as usize) < num_vertices));
        }
    }

    /// Number of *outgoing* edges whose source is owned by each node — the measure
    /// Gemini-style chunking balances on.
    pub fn edge_counts(&self, graph: &Graph) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_parts()];
        for v in graph.vertices() {
            counts[self.owner_of(v)] += graph.out_degree(v);
        }
        counts
    }

    /// Number of edges crossing partition boundaries (src and dst owned by different
    /// nodes). Every such edge becomes an inter-node message in the push model.
    pub fn cut_edges(&self, graph: &Graph) -> usize {
        let mut cut = 0usize;
        for v in graph.vertices() {
            let o = self.owner_of(v);
            for &u in graph.out_neighbors(v) {
                if self.owner_of(u) != o {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Vertex-count imbalance: `max / mean` over the per-node vertex counts.
    /// `1.0` is perfectly balanced; `0.0` for an empty partitioning. This is
    /// the figure [`Partitioning::migrated_owners`] bounds and the serving
    /// layer surfaces as the `slfe_partition_imbalance` gauge.
    pub fn imbalance(&self) -> f64 {
        let n = self.owner.len();
        if n == 0 {
            return 0.0;
        }
        let max = self.parts.iter().map(|p| p.len()).max().unwrap_or(0);
        let mean = n as f64 / self.parts.len() as f64;
        max as f64 / mean
    }

    /// Plan a migration that brings [`Partitioning::imbalance`] down to
    /// `threshold` (max/mean), by repeatedly moving the **highest-id** vertex
    /// of the most-loaded node to the least-loaded node (ties to the lowest
    /// node id). Returns the migrated owner array, or `None` when the
    /// partitioning is already within the threshold (or a move can no longer
    /// help: max−min spread ≤ 1 is as balanced as integer counts get).
    ///
    /// The highest-id-first rule keeps migration deterministic and biases
    /// moves toward recently appended vertices — the ones `extend_to`'s
    /// least-loaded rule would have spread out had they arrived after the
    /// skew, and the ones with the least locality investment to lose.
    pub fn migrated_owners(&self, threshold: f64) -> Option<Vec<NodeId>> {
        assert!(threshold >= 1.0, "imbalance threshold is a max/mean ratio");
        if self.parts.len() < 2 || self.imbalance() <= threshold {
            return None;
        }
        let mut owner = self.owner.clone();
        let mut parts = self.parts.clone();
        let mean = owner.len() as f64 / parts.len() as f64;
        let mut moved = false;
        loop {
            let (src, max) = parts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.len()))
                .max_by_key(|&(i, c)| (c, usize::MAX - i))
                .expect("at least two partitions");
            let (dst, min) = parts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.len()))
                .min_by_key(|&(i, c)| (c, i))
                .expect("at least two partitions");
            if max as f64 / mean <= threshold || max - min <= 1 {
                break;
            }
            let v = parts[src].pop().expect("most-loaded node is non-empty");
            owner[v as usize] = dst;
            // Insert keeping the destination list ascending (migrated ids are
            // not necessarily larger than the destination's existing ids).
            let at = parts[dst].partition_point(|&u| u < v);
            parts[dst].insert(at, v);
            moved = true;
        }
        moved.then_some(owner)
    }

    /// Check that every vertex of `graph` is assigned to exactly one existing part.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        if self.owner.len() != graph.num_vertices() {
            return Err(format!(
                "owner array covers {} vertices but graph has {}",
                self.owner.len(),
                graph.num_vertices()
            ));
        }
        let total: usize = self.parts.iter().map(|p| p.len()).sum();
        if total != graph.num_vertices() {
            return Err(format!(
                "parts hold {total} vertices but graph has {}",
                graph.num_vertices()
            ));
        }
        for (node, part) in self.parts.iter().enumerate() {
            for &v in part {
                if self.owner[v as usize] != node {
                    return Err(format!(
                        "vertex {v} listed under node {node} but owned by {}",
                        self.owner[v as usize]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_graph::generators;

    #[test]
    fn from_owners_builds_consistent_parts() {
        let p = Partitioning::from_owners(vec![0, 1, 0, 1, 2], 3);
        assert_eq!(p.num_parts(), 3);
        assert_eq!(p.num_vertices(), 5);
        assert_eq!(p.vertices_of(0), &[0, 2]);
        assert_eq!(p.vertices_of(1), &[1, 3]);
        assert_eq!(p.vertices_of(2), &[4]);
        assert_eq!(p.owner_of(3), 1);
        assert_eq!(p.vertex_counts(), vec![2, 2, 1]);
    }

    #[test]
    fn extend_to_fills_the_least_loaded_node_and_stays_valid() {
        // Node 0 owns 3 vertices, node 1 owns 1: the first two appends level
        // node 1 up, the third (a tie) goes to the lowest node id.
        let mut p = Partitioning::from_owners(vec![0, 1, 0, 0], 2);
        p.extend_to(7);
        assert_eq!(p.num_vertices(), 7);
        assert_eq!(p.vertices_of(1), &[1, 4, 5]);
        assert_eq!(p.vertices_of(0), &[0, 2, 3, 6]);
        assert!(p.vertices_of(1).windows(2).all(|w| w[0] < w[1]));
        let g = generators::path(7);
        p.validate(&g).unwrap();
        // Growth keeps alternating toward balance (ties to the lowest id).
        p.extend_to(9);
        assert_eq!(p.vertices_of(1), &[1, 4, 5, 7]);
        assert_eq!(p.vertices_of(0), &[0, 2, 3, 6, 8]);
        // Extending to the current size is a no-op.
        p.extend_to(9);
        assert_eq!(p.vertex_counts(), vec![5, 4]);
        assert_eq!(p.num_vertices(), 9);
    }

    /// The growth-skew regression the serving loop exposed: many consecutive
    /// append batches must keep node loads balanced instead of piling every
    /// grown vertex onto one node.
    #[test]
    fn sustained_growth_keeps_node_loads_balanced() {
        let nodes = 4;
        let mut p = Partitioning::from_owners(vec![0, 1, 2, 3, 0, 1], nodes);
        let initial_spread = {
            let c = p.vertex_counts();
            c.iter().max().unwrap() - c.iter().min().unwrap()
        };
        let mut n = p.num_vertices();
        for batch in 0..50 {
            n += 1 + (batch % 5); // varied batch sizes
            p.extend_to(n);
            let counts = p.vertex_counts();
            let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
            assert!(
                spread <= initial_spread.max(1),
                "batch {batch}: node loads diverged to {counts:?}"
            );
        }
        assert_eq!(p.num_vertices(), n);
        for node in 0..nodes {
            assert!(p.vertices_of(node).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "only grows")]
    fn extend_to_rejects_shrinking() {
        let mut p = Partitioning::from_owners(vec![0, 0], 1);
        p.extend_to(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_owner_panics() {
        Partitioning::from_owners(vec![0, 5], 2);
    }

    #[test]
    fn edge_counts_and_cut_edges() {
        // path 0->1->2->3 split in half: one cut edge (1->2).
        let g = generators::path(4);
        let p = Partitioning::from_owners(vec![0, 0, 1, 1], 2);
        assert_eq!(p.edge_counts(&g), vec![2, 1]);
        assert_eq!(p.cut_edges(&g), 1);
        p.validate(&g).unwrap();
    }

    #[test]
    fn validate_detects_size_mismatch() {
        let g = generators::path(4);
        let p = Partitioning::from_owners(vec![0, 0, 1], 2);
        assert!(p.validate(&g).is_err());
    }

    #[test]
    fn single_part_owns_everything_with_no_cut() {
        let g = generators::rmat(64, 256, 0.57, 0.19, 0.19, 1);
        let p = Partitioning::from_owners(vec![0; 64], 1);
        assert_eq!(p.cut_edges(&g), 0);
        assert_eq!(p.edge_counts(&g)[0], g.num_edges());
    }

    #[test]
    fn empty_parts_are_allowed() {
        let p = Partitioning::from_owners(vec![0, 0], 4);
        assert_eq!(p.vertex_counts(), vec![2, 0, 0, 0]);
        assert!(p.vertices_of(3).is_empty());
    }
}
