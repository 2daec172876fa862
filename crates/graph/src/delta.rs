//! Edge-update batches against the immutable [`Graph`].
//!
//! The SLFE engine's storage is a frozen CSR + CSC pair — ideal for scan-heavy
//! iteration, hostile to in-place mutation. Live traffic does not rebuild the
//! world per edge, so updates are *staged* in an [`UpdateBatch`] and applied in
//! one shot: [`Graph::apply_batch`] produces a new graph version by rebuilding
//! **only the adjacency blocks that hold a touched endpoint**
//! ([`crate::Adjacency::patched`]) and sharing every other block with the old
//! version. The returned [`BatchEffect`] names the *dirty* vertices — the
//! endpoints of edges that actually changed — which is exactly the seed set the
//! warm-start engine path needs.
//!
//! Semantics (per `(src, dst)` pair, the batch's unit of change):
//!
//! * **insert** is an *upsert*: if the pair exists its weight is replaced (and
//!   duplicate copies collapse to one edge); otherwise the edge is added.
//!   Inserting a pair that already exists with the identical weight (and no
//!   duplicates) is a no-op and does not dirty its endpoints.
//! * **delete** removes every copy of the pair; deleting an absent pair is a
//!   recorded no-op ([`BatchEffect::missing_deletes`]).
//! * The **last staged operation wins** when a batch touches the same pair twice.
//! * Vertex ids are stable: the id space only ever grows (to cover inserted
//!   endpoints beyond the current count), never shrinks or renumbers — which is
//!   what lets previous fixpoints be reused index-for-index.

use crate::graph::Graph;
use crate::types::{EdgeWeight, VertexId};
use std::collections::BTreeMap;

/// One staged edge operation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EdgeOp {
    /// Upsert the pair with this weight.
    Insert(EdgeWeight),
    /// Remove every copy of the pair.
    Delete,
}

/// A staged batch of edge insertions and deletions.
///
/// Batches are cheap value types: stage operations with [`UpdateBatch::insert`] /
/// [`UpdateBatch::delete`], then apply them with [`Graph::apply_batch`].
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    ops: BTreeMap<(VertexId, VertexId), EdgeOp>,
    staged: usize,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reject the `INVALID_VERTEX` sentinel (and with it the pathological
    /// id-space blow-up a single garbage endpoint would cause: the vertex space
    /// grows to cover every staged id, and `u32::MAX` means ~34 GB of offsets).
    /// Serving layers validating untrusted client input should range-check ids
    /// against their own policy *before* staging.
    fn check_ids(src: VertexId, dst: VertexId) {
        assert!(
            src != crate::INVALID_VERTEX && dst != crate::INVALID_VERTEX,
            "edge endpoint is the INVALID_VERTEX sentinel"
        );
    }

    /// Stage an edge insertion (upsert of `(src, dst)` to `weight`).
    pub fn insert(&mut self, src: VertexId, dst: VertexId, weight: EdgeWeight) -> &mut Self {
        Self::check_ids(src, dst);
        self.staged += 1;
        self.ops.insert((src, dst), EdgeOp::Insert(weight));
        self
    }

    /// Stage an edge deletion.
    pub fn delete(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        Self::check_ids(src, dst);
        self.staged += 1;
        self.ops.insert((src, dst), EdgeOp::Delete);
        self
    }

    /// Stage the insertion in both directions (for symmetrised graphs, e.g. the
    /// Connected Components inputs).
    pub fn insert_symmetric(&mut self, a: VertexId, b: VertexId, weight: EdgeWeight) -> &mut Self {
        self.insert(a, b, weight).insert(b, a, weight)
    }

    /// Stage the deletion in both directions.
    pub fn delete_symmetric(&mut self, a: VertexId, b: VertexId) -> &mut Self {
        self.delete(a, b).delete(b, a)
    }

    /// Number of distinct `(src, dst)` pairs staged (later stages of the same pair
    /// overwrite earlier ones).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total operations staged, counting overwritten ones.
    pub fn staged_ops(&self) -> usize {
        self.staged
    }

    /// Iterate the staged `(src, dst, is_delete)` pairs in key order.
    pub fn pairs(&self) -> impl Iterator<Item = (VertexId, VertexId, bool)> + '_ {
        self.ops
            .iter()
            .map(|(&(s, d), op)| (s, d, matches!(op, EdgeOp::Delete)))
    }

    /// Rebuild the batch with every endpoint passed through `f` — the id
    /// translation hook serving layers use to admit client batches staged in
    /// external ids into a physically remapped graph. Resolution order is
    /// preserved because the batch is already resolved (one op per pair) and
    /// `f` is a bijection on the ids in play.
    pub fn mapped(&self, mut f: impl FnMut(VertexId) -> VertexId) -> UpdateBatch {
        let mut out = UpdateBatch::new();
        for (src, dst, weight) in self.stages() {
            match weight {
                Some(w) => out.insert(f(src), f(dst), w),
                None => out.delete(f(src), f(dst)),
            };
        }
        out
    }

    /// Iterate the resolved stages in key order, weights included:
    /// `(src, dst, Some(weight))` for an upsert, `(src, dst, None)` for a
    /// deletion. Unlike [`UpdateBatch::pairs`] this loses nothing the batch
    /// will do to the graph — it is the basis of the WAL encoding.
    pub fn stages(&self) -> impl Iterator<Item = (VertexId, VertexId, Option<EdgeWeight>)> + '_ {
        self.ops.iter().map(|(&(s, d), op)| match op {
            EdgeOp::Insert(w) => (s, d, Some(*w)),
            EdgeOp::Delete => (s, d, None),
        })
    }

    /// Encode the *resolved* batch (distinct pairs, last stage winning) as
    /// bytes for the write-ahead log. Overwrite history is not persisted:
    /// [`Graph::apply_batch`] only ever consumes the resolved map, so a
    /// decoded batch applies identically even though its
    /// [`UpdateBatch::staged_ops`] counts only the surviving stages.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.ops.len() * 13);
        crate::io::binary::put_u32(&mut out, self.ops.len() as u32);
        for (src, dst, weight) in self.stages() {
            crate::io::binary::put_u32(&mut out, src);
            crate::io::binary::put_u32(&mut out, dst);
            match weight {
                Some(w) => {
                    crate::io::binary::put_u8(&mut out, 1);
                    crate::io::binary::put_f32(&mut out, w);
                }
                None => crate::io::binary::put_u8(&mut out, 0),
            }
        }
        out
    }

    /// Decode a batch written by [`UpdateBatch::to_bytes`]. Returns `None` on
    /// any structural problem — short buffer, trailing garbage, unknown op
    /// tag, or a sentinel vertex id — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = crate::io::binary::Reader::new(bytes);
        let count = r.u32()? as usize;
        let mut batch = UpdateBatch::new();
        for _ in 0..count {
            let src = r.u32()?;
            let dst = r.u32()?;
            if src == crate::INVALID_VERTEX || dst == crate::INVALID_VERTEX {
                return None;
            }
            match r.u8()? {
                0 => batch.delete(src, dst),
                1 => batch.insert(src, dst, r.f32()?),
                _ => return None,
            };
        }
        if !r.is_empty() {
            return None;
        }
        Some(batch)
    }
}

/// What applying a batch actually changed — the contract between graph mutation
/// and the incremental recomputation layers above it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchEffect {
    /// Endpoints of every edge that changed (inserted, reweighted or deleted),
    /// ascending and de-duplicated. They seed warm-start frontiers and bound
    /// what the serving loop patches per batch (degrees, chunk layout, disk
    /// segments); no-op stages contribute nothing.
    pub dirty: Vec<VertexId>,
    /// Destinations of deleted or reweighted pairs, ascending and de-duplicated
    /// — the only vertices whose fixpoint value can *worsen* under a monotone
    /// program (a pure insertion can only improve values). Warm restarts seed
    /// their invalidation pass from exactly this set.
    pub worsened_dsts: Vec<VertexId>,
    /// Directed edges added (upserts of absent pairs).
    pub edges_inserted: usize,
    /// Directed edges removed (counting duplicate copies).
    pub edges_deleted: usize,
    /// Pairs whose weight was replaced in place.
    pub edges_reweighted: usize,
    /// Staged deletions of pairs that did not exist (no-ops).
    pub missing_deletes: usize,
    /// Vertices added to the id space by this batch.
    pub vertices_added: usize,
}

impl BatchEffect {
    /// `true` when the batch changed nothing (every stage was a no-op).
    pub fn is_noop(&self) -> bool {
        self.dirty.is_empty() && self.vertices_added == 0
    }
}

/// Per-vertex staged changes, grouped for one adjacency direction.
type DirectionEdits = BTreeMap<VertexId, Vec<(VertexId, EdgeOp)>>;

impl Graph {
    /// Apply a staged [`UpdateBatch`], producing the mutated graph and the
    /// [`BatchEffect`] describing what changed.
    ///
    /// Only the CSR/CSC blocks holding a touched endpoint are rebuilt; every
    /// other block is shared with `self`, so the cost is
    /// `O(touched blocks + V / BLOCK_VERTICES)` with no re-sorting of untouched
    /// lists, and a no-op batch only clones the block directories. The
    /// original graph is untouched (persistent-structure style), which keeps
    /// previous fixpoints queryable while the new version converges.
    pub fn apply_batch(&self, batch: &UpdateBatch) -> (Graph, BatchEffect) {
        let mut effect = BatchEffect::default();
        // Resolve each staged pair against the current graph, dropping no-ops.
        let mut by_src: DirectionEdits = BTreeMap::new();
        let mut by_dst: DirectionEdits = BTreeMap::new();
        let mut max_id: usize = self.num_vertices();
        let mut dirty: Vec<VertexId> = Vec::new();
        for (&(src, dst), &op) in &batch.ops {
            // Adjacency lists are sorted by the neighbor's *external* id
            // (identical to the physical id on unremapped graphs), so the
            // pair's copies sit in one contiguous range found by binary search
            // — no linear scan of hub-degree lists on the serving hot path.
            // Searching by external key and comparing for equality by it is
            // sound because the remap is a bijection: key(d) == key(dst) ⟺
            // d == dst.
            let (copies, first_weight) = if (src as usize) < self.num_vertices() {
                let key = self.external_id(dst);
                let neighbors = self.out_adjacency().neighbors(src);
                let lo = neighbors.partition_point(|&d| self.external_id(d) < key);
                let hi = lo + neighbors[lo..].partition_point(|&d| d == dst);
                (hi - lo, self.out_adjacency().weights(src).get(lo).copied())
            } else {
                (0, None)
            };
            let changed = match op {
                EdgeOp::Delete => {
                    if copies == 0 {
                        effect.missing_deletes += 1;
                        false
                    } else {
                        effect.edges_deleted += copies;
                        true
                    }
                }
                EdgeOp::Insert(weight) => {
                    let identical =
                        copies == 1 && first_weight.map(f32::to_bits) == Some(weight.to_bits());
                    if identical {
                        false
                    } else if copies == 0 {
                        effect.edges_inserted += 1;
                        true
                    } else {
                        // Collapse duplicates into one reweighted edge.
                        effect.edges_reweighted += 1;
                        effect.edges_deleted += copies - 1;
                        true
                    }
                }
            };
            if changed {
                // Any surviving stage that is not a pure insertion removed or
                // replaced an existing edge, so `dst`'s value may worsen.
                if copies > 0 {
                    effect.worsened_dsts.push(dst);
                }
                by_src.entry(src).or_default().push((dst, op));
                by_dst.entry(dst).or_default().push((src, op));
                max_id = max_id.max(src as usize + 1).max(dst as usize + 1);
                dirty.push(src);
                dirty.push(dst);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        effect.dirty = dirty;
        effect.worsened_dsts.sort_unstable();
        effect.worsened_dsts.dedup();
        effect.vertices_added = max_id - self.num_vertices();
        if effect.is_noop() {
            return (self.clone(), effect);
        }

        let out = self
            .out_adjacency()
            .patched(max_id, &self.direction_edits(self.out_adjacency(), &by_src));
        let incoming = self
            .in_adjacency()
            .patched(max_id, &self.direction_edits(self.in_adjacency(), &by_dst));
        let graph = Graph::from_parts_with_remap(max_id, out, incoming, self.remap_arc());
        debug_assert_eq!(
            graph.num_edges(),
            self.num_edges() + effect.edges_inserted - effect.edges_deleted
        );
        (graph, effect)
    }

    /// Materialise the full replacement adjacency list of every touched vertex in
    /// one direction: old list minus changed pairs, plus upserted pairs, sorted
    /// by the neighbor's external id (the canonical list order).
    fn direction_edits(
        &self,
        adjacency: &crate::Adjacency,
        staged: &DirectionEdits,
    ) -> Vec<(VertexId, Vec<(VertexId, EdgeWeight)>)> {
        let n = adjacency.num_vertices();
        staged
            .iter()
            .map(|(&key, changes)| {
                let mut list: Vec<(VertexId, EdgeWeight)> = if (key as usize) < n {
                    adjacency
                        .neighbors_with_weights(key)
                        .filter(|(other, _)| changes.iter().all(|&(c, _)| c != *other))
                        .collect()
                } else {
                    Vec::new()
                };
                for &(other, op) in changes {
                    if let EdgeOp::Insert(weight) = op {
                        list.push((other, weight));
                    }
                }
                list.sort_unstable_by_key(|&(other, _)| self.external_id(other));
                // Non-strict: an untouched duplicate pair keeps both copies.
                debug_assert!(list
                    .windows(2)
                    .all(|w| self.external_id(w[0].0) <= self.external_id(w[1].0)));
                (key, list)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::BLOCK_VERTICES;
    use crate::generators;
    use crate::rng::SplitMix64;
    use crate::types::Edge;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        b.extend_weighted([(0, 1, 1.0), (1, 3, 2.0), (0, 2, 4.0), (2, 3, 1.0)]);
        b.build()
    }

    /// Oracle: apply the batch naively to the edge list and rebuild from scratch.
    fn oracle_apply(graph: &Graph, batch: &UpdateBatch) -> Graph {
        let mut edges: Vec<Edge> = graph.edges().to_vec();
        let mut max_id = graph.num_vertices();
        for (&(src, dst), &op) in &batch.ops {
            match op {
                EdgeOp::Delete => edges.retain(|e| !(e.src == src && e.dst == dst)),
                EdgeOp::Insert(w) => {
                    let existed_identical = {
                        let copies: Vec<&Edge> = edges
                            .iter()
                            .filter(|e| e.src == src && e.dst == dst)
                            .collect();
                        copies.len() == 1 && copies[0].weight.to_bits() == w.to_bits()
                    };
                    if !existed_identical {
                        edges.retain(|e| !(e.src == src && e.dst == dst));
                        edges.push(Edge::new(src, dst, w));
                        max_id = max_id.max(src as usize + 1).max(dst as usize + 1);
                    }
                }
            }
        }
        Graph::from_edges(max_id, edges)
    }

    fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out list of {v}");
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "in list of {v}");
            assert_eq!(a.out_weights(v), b.out_weights(v), "out weights of {v}");
            assert_eq!(a.in_weights(v), b.in_weights(v), "in weights of {v}");
        }
    }

    /// Compare two lists as `(neighbor, weight bits)` pairs: exactly, or, for
    /// a list `apply_batch` rebuilt (it re-sorts with an unstable sort), up to
    /// the order of duplicate pairs.
    fn assert_same_list(
        a: impl Iterator<Item = (VertexId, EdgeWeight)>,
        b: impl Iterator<Item = (VertexId, EdgeWeight)>,
        rebuilt: bool,
        what: &str,
    ) {
        let mut a: Vec<(VertexId, u32)> = a.map(|(u, w)| (u, w.to_bits())).collect();
        let mut b: Vec<(VertexId, u32)> = b.map(|(u, w)| (u, w.to_bits())).collect();
        if rebuilt {
            assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "{what} is unsorted");
            a.sort_unstable();
            b.sort_unstable();
        }
        assert_eq!(a, b, "{what}");
    }

    /// A graph over three full adjacency blocks and a partial fourth, with
    /// a duplicate pair (two weights) out of every 13th vertex `v`, to
    /// `(7v + 1) mod n`.
    fn multi_block_graph(seed: u64) -> Graph {
        let n = 3 * BLOCK_VERTICES + 300;
        let mut edges = generators::rmat(n, 6 * n, 0.57, 0.19, 0.19, seed)
            .edges()
            .to_vec();
        for v in (0..n as VertexId).step_by(13) {
            let u = (7 * v + 1) % n as VertexId;
            edges.push(Edge::new(v, u, 2.5));
            edges.push(Edge::new(v, u, 7.5));
        }
        Graph::from_edges(n, edges)
    }

    /// `ops` random stages over ids below `id_bound`; about half are
    /// deletions that hit an existing out-edge of their source.
    fn random_batch(g: &Graph, rng: &mut SplitMix64, ops: usize, id_bound: u32) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for _ in 0..ops {
            let src = rng.range_u32(0, id_bound);
            let dst = rng.range_u32(0, id_bound);
            if rng.next_f64() < 0.5 {
                batch.insert(src, dst, rng.range_f32(1.0, 10.0));
            } else if (src as usize) < g.num_vertices() {
                match g.out_neighbors(src).first() {
                    Some(&target) => batch.delete(src, target),
                    None => batch.delete(src, dst),
                };
            }
        }
        batch
    }

    #[test]
    fn insert_adds_edge_and_dirties_endpoints() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(3, 0, 7.0);
        let (g2, effect) = g.apply_batch(&batch);
        assert!(g2.has_edge(3, 0));
        assert_eq!(g2.num_edges(), 5);
        assert_eq!(effect.dirty, vec![0, 3]);
        assert_eq!(effect.edges_inserted, 1);
        g2.validate().unwrap();
        // The original graph is untouched.
        assert!(!g.has_edge(3, 0));
    }

    #[test]
    fn delete_removes_edge_everywhere() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let (g2, effect) = g.apply_batch(&batch);
        assert!(!g2.has_edge(0, 1));
        assert!(!g2.in_neighbors(1).contains(&0));
        assert_eq!(effect.edges_deleted, 1);
        assert_eq!(effect.dirty, vec![0, 1]);
        g2.validate().unwrap();
    }

    #[test]
    fn upsert_replaces_weight_without_duplicating() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 9.5);
        let (g2, effect) = g.apply_batch(&batch);
        assert_eq!(g2.num_edges(), 4);
        assert_eq!(g2.out_weights(0), &[9.5, 4.0]);
        assert_eq!(effect.edges_reweighted, 1);
        assert_eq!(effect.edges_inserted, 0);
    }

    #[test]
    fn identical_reinsert_and_missing_delete_are_noops() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 1.0).delete(2, 0);
        let (g2, effect) = g.apply_batch(&batch);
        assert!(effect.is_noop());
        assert_eq!(effect.missing_deletes, 1);
        assert_same_graph(&g, &g2);
    }

    #[test]
    fn batch_grows_the_vertex_space() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(3, 9, 1.0);
        let (g2, effect) = g.apply_batch(&batch);
        assert_eq!(g2.num_vertices(), 10);
        assert_eq!(effect.vertices_added, 6);
        assert_eq!(g2.out_degree(7), 0);
        assert!(g2.has_edge(3, 9));
        g2.validate().unwrap();
    }

    #[test]
    fn last_staged_operation_wins() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(0, 3, 2.0).delete(0, 3);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.staged_ops(), 2);
        let (g2, _) = g.apply_batch(&batch);
        assert!(!g2.has_edge(0, 3));

        let mut batch = UpdateBatch::new();
        batch.delete(0, 1).insert(0, 1, 5.0);
        let (g3, effect) = g.apply_batch(&batch);
        assert_eq!(g3.out_weights(0)[0], 5.0);
        assert_eq!(effect.edges_reweighted, 1);
    }

    #[test]
    fn duplicate_pairs_collapse_on_upsert_and_delete() {
        let g = Graph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(0, 1, 2.0),
                Edge::new(1, 2, 1.0),
            ],
        );
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 3.0);
        let (g2, effect) = g.apply_batch(&batch);
        assert_eq!(g2.out_neighbors(0), &[1]);
        assert_eq!(g2.out_weights(0), &[3.0]);
        assert_eq!(effect.edges_deleted, 1);
        assert_eq!(effect.edges_reweighted, 1);

        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let (g3, effect) = g.apply_batch(&batch);
        assert_eq!(g3.out_degree(0), 0);
        assert_eq!(effect.edges_deleted, 2);
        g3.validate().unwrap();
    }

    #[test]
    fn self_loops_update_both_directions() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(2, 2, 1.5);
        let (g2, _) = g.apply_batch(&batch);
        assert!(g2.has_edge(2, 2));
        assert!(g2.in_neighbors(2).contains(&2));
        g2.validate().unwrap();
        let mut batch = UpdateBatch::new();
        batch.delete(2, 2);
        let (g3, _) = g2.apply_batch(&batch);
        assert!(!g3.has_edge(2, 2));
        g3.validate().unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop_clone() {
        let g = diamond();
        let (g2, effect) = g.apply_batch(&UpdateBatch::new());
        assert!(effect.is_noop());
        assert_same_graph(&g, &g2);
    }

    #[test]
    fn symmetric_helpers_stage_both_directions() {
        let mut batch = UpdateBatch::new();
        batch.insert_symmetric(1, 2, 3.0).delete_symmetric(4, 5);
        assert_eq!(batch.len(), 4);
        let pairs: Vec<_> = batch.pairs().collect();
        assert!(pairs.contains(&(1, 2, false)));
        assert!(pairs.contains(&(2, 1, false)));
        assert!(pairs.contains(&(4, 5, true)));
        assert!(pairs.contains(&(5, 4, true)));
    }

    #[test]
    fn random_batches_match_the_full_rebuild_oracle() {
        // Single-block graphs, with ids occasionally beyond the id space.
        let mut inputs: Vec<(Graph, UpdateBatch)> = (0..6u64)
            .map(|seed| {
                let g = generators::rmat(300, 2000, 0.57, 0.19, 0.19, seed + 100);
                let batch = random_batch(&g, &mut SplitMix64::seed_from_u64(seed), 120, 320);
                (g, batch)
            })
            .collect();
        // Several blocks, duplicate pairs, and growth across a block boundary.
        let g = multi_block_graph(7);
        let grown = 4 * BLOCK_VERTICES as VertexId;
        let mut batch = random_batch(&g, &mut SplitMix64::seed_from_u64(7), 400, grown + 200);
        batch
            .insert(0, 1, 4.0) // collapses a duplicate pair
            .delete(13, 92) // deletes both copies of one
            .insert(5, grown + 100, 1.0);
        inputs.push((g, batch));

        for (g, batch) in &inputs {
            let (patched, effect) = g.apply_batch(batch);
            let oracle = oracle_apply(g, batch);
            patched.validate().unwrap();
            assert_eq!(patched.num_vertices(), oracle.num_vertices());
            assert_eq!(
                patched.num_edges(),
                g.num_edges() + effect.edges_inserted - effect.edges_deleted
            );
            assert_eq!(patched.num_edges(), oracle.num_edges());
            // Lists of clean vertices are copied verbatim, duplicate pairs in
            // their old order; dirty endpoints are exactly the rebuilt ones.
            for v in patched.vertices() {
                let rebuilt = effect.dirty.binary_search(&v).is_ok();
                let what = |dir: &str| format!("{dir} list of {v}");
                assert_same_list(
                    patched.out_edges(v),
                    oracle.out_edges(v),
                    rebuilt,
                    &what("out"),
                );
                assert_same_list(
                    patched.in_edges(v),
                    oracle.in_edges(v),
                    rebuilt,
                    &what("in"),
                );
                if !rebuilt && (v as usize) < g.num_vertices() {
                    assert_same_list(
                        patched.out_edges(v),
                        g.out_edges(v),
                        false,
                        &what("old out"),
                    );
                }
            }
        }
        let (grown_graph, effect) = inputs[6].0.apply_batch(&inputs[6].1);
        assert!(grown_graph.num_vertices() > grown as usize && effect.vertices_added > 0);
        assert!(effect.edges_reweighted > 0 && effect.edges_deleted > 0);
    }

    #[test]
    fn stages_preserve_weights_and_deletes() {
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 2.5).delete(3, 4).insert(0, 1, 7.0);
        let stages: Vec<_> = batch.stages().collect();
        assert_eq!(stages, vec![(0, 1, Some(7.0)), (3, 4, None)]);
    }

    #[test]
    fn batch_bytes_round_trip_applies_identically() {
        for seed in 0..8u64 {
            let g = generators::rmat(120, 700, 0.57, 0.19, 0.19, seed + 40);
            let mut rng = SplitMix64::seed_from_u64(seed * 31 + 7);
            let mut batch = UpdateBatch::new();
            for _ in 0..40 {
                let src = rng.range_u32(0, 130);
                let dst = rng.range_u32(0, 130);
                if rng.next_f64() < 0.6 {
                    batch.insert(src, dst, rng.range_f32(0.5, 9.0));
                } else {
                    batch.delete(src, dst);
                }
            }
            let decoded = UpdateBatch::from_bytes(&batch.to_bytes()).expect("round trip");
            assert_eq!(decoded.len(), batch.len());
            assert_eq!(
                decoded.stages().collect::<Vec<_>>(),
                batch.stages().collect::<Vec<_>>()
            );
            let (a, ea) = g.apply_batch(&batch);
            let (b, eb) = g.apply_batch(&decoded);
            assert_same_graph(&a, &b);
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn corrupt_batch_bytes_decode_to_none() {
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 3.0).delete(4, 5);
        let bytes = batch.to_bytes();
        // Truncations.
        for cut in 0..bytes.len() {
            assert!(
                UpdateBatch::from_bytes(&bytes[..cut]).is_none(),
                "cut {cut}"
            );
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(UpdateBatch::from_bytes(&long).is_none());
        // Unknown op tag.
        let mut bad_tag = bytes.clone();
        bad_tag[12] = 9;
        assert!(UpdateBatch::from_bytes(&bad_tag).is_none());
    }

    #[test]
    fn apply_batch_on_remapped_graph_matches_unremapped() {
        use crate::remap::IdRemap;
        // (graph, seed, staged ops, id bound): single-block graphs growing by
        // 20 ids, then a multi-block one with duplicate pairs growing past the
        // next block boundary.
        let mut inputs: Vec<(Graph, u64, usize, u32)> = (0..4u64)
            .map(|seed| {
                let g = generators::rmat(150, 900, 0.57, 0.19, 0.19, seed + 11);
                let bound = g.num_vertices() as u32 + 20;
                (g, seed, 60, bound)
            })
            .collect();
        inputs.push((
            multi_block_graph(11),
            4,
            300,
            4 * BLOCK_VERTICES as u32 + 200,
        ));
        for (g, seed, ops, id_bound) in inputs {
            // Random permutation of the physical ids.
            let n = g.num_vertices();
            let mut forward: Vec<VertexId> = (0..n as VertexId).collect();
            let mut rng = SplitMix64::seed_from_u64(seed * 17 + 3);
            for i in (1..n).rev() {
                let j = rng.range_u32(0, i as u32 + 1) as usize;
                forward.swap(i, j);
            }
            let r = g.remapped(&IdRemap::from_forward(forward));

            // Stage a batch in external ids, including growth beyond n.
            let mut ext_batch = UpdateBatch::new();
            for _ in 0..ops {
                let src = rng.range_u32(0, id_bound);
                let dst = rng.range_u32(0, id_bound);
                if rng.next_f64() < 0.6 {
                    ext_batch.insert(src, dst, rng.range_f32(0.5, 9.0));
                } else {
                    ext_batch.delete(src, dst);
                }
            }
            let phys_batch = ext_batch.mapped(|v| r.to_physical(v));

            let (g2, eff) = g.apply_batch(&ext_batch);
            let (r2, eff_r) = r.apply_batch(&phys_batch);
            r2.validate().unwrap();
            assert_eq!(r2.num_vertices(), g2.num_vertices());
            assert_eq!(r2.num_edges(), g2.num_edges());
            for ext in g2.vertices() {
                let p = r2.to_physical(ext);
                assert_same_list(
                    r2.out_edges(p).map(|(u, w)| (r2.external_id(u), w)),
                    g2.out_edges(ext),
                    eff.dirty.binary_search(&ext).is_ok(),
                    &format!("out list of external {ext}"),
                );
            }
            // Effects agree modulo the id relabelling.
            assert_eq!(eff_r.edges_inserted, eff.edges_inserted);
            assert_eq!(eff_r.edges_deleted, eff.edges_deleted);
            assert_eq!(eff_r.edges_reweighted, eff.edges_reweighted);
            assert_eq!(eff_r.missing_deletes, eff.missing_deletes);
            assert_eq!(eff_r.vertices_added, eff.vertices_added);
            let mut dirty_ext: Vec<VertexId> =
                eff_r.dirty.iter().map(|&v| r2.external_id(v)).collect();
            dirty_ext.sort_unstable();
            assert_eq!(dirty_ext, eff.dirty);
        }
    }
}
