//! The immutable [`Graph`] type: CSR + CSC views over a directed weighted graph.

use crate::csr::Adjacency;
use crate::remap::IdRemap;
use crate::types::{Edge, EdgeWeight, VertexId};
use std::sync::{Arc, OnceLock};

// `Graph::apply_batch` lives in `crate::delta`.

/// A directed, weighted graph with both outgoing (CSR) and incoming (CSC) adjacency.
///
/// Both directions are materialised because the SLFE computation model (paper §3.3)
/// switches between *push* over outgoing edges and *pull* over incoming edges at
/// runtime; the same is true of the Gemini and Ligra baselines.
///
/// Vertex ids come in two flavors. Every accessor on this type speaks
/// **physical** ids — the indices of the CSR/CSC arrays. Graphs built from an
/// edge list start with physical == *external* (client-visible) ids; a
/// [`Graph::remapped`] graph carries the cumulative [`IdRemap`] between the
/// two spaces, and serving layers translate at their API boundary via
/// [`Graph::to_physical`] / [`Graph::external_id`]. Adjacency lists are
/// always sorted by the **external** id of the neighbor (identity graphs get
/// that for free; a remap renames entries without reordering them), which is
/// what keeps order-sensitive float folds bit-identical across remaps.
#[derive(Debug, Clone)]
pub struct Graph {
    num_vertices: usize,
    out: Adjacency,
    incoming: Adjacency,
    /// Cumulative external→physical bijection; `None` means the two id
    /// spaces coincide (the common case, and the zero-cost fast path).
    /// Physical ids at or beyond the remap's length are external ids
    /// verbatim, so a graph grown by [`Graph::apply_batch`] keeps its remap.
    remap: Option<Arc<IdRemap>>,
    /// Flat edge list, materialised lazily: the delta-apply path builds graphs
    /// from patched adjacencies on the serving hot path, and copying an `O(E)`
    /// edge vector there just to back the rarely-used [`Graph::edges`] accessor
    /// would be pure overhead. `from_edges` seeds it eagerly (the vector already
    /// exists); `from_parts` leaves it to the first `edges()` call. Clones
    /// share it, like they share the adjacency blocks.
    edges: Arc<OnceLock<Vec<Edge>>>,
}

impl Graph {
    /// Construct a graph from an explicit vertex count and edge list.
    ///
    /// Panics if any edge references a vertex `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: Vec<Edge>) -> Self {
        for e in &edges {
            assert!(
                (e.src as usize) < num_vertices && (e.dst as usize) < num_vertices,
                "edge ({}, {}) out of range for {} vertices",
                e.src,
                e.dst,
                num_vertices
            );
        }
        let out = Adjacency::outgoing(num_vertices, &edges);
        let incoming = Adjacency::incoming(num_vertices, &edges);
        Self {
            num_vertices,
            out,
            incoming,
            remap: None,
            edges: Arc::new(OnceLock::from(edges)),
        }
    }

    /// Assemble a graph from prebuilt adjacency structures (the delta-apply path).
    /// The edge list is derived from the CSR side on first use; its order is
    /// unspecified, as [`Graph::edges`] documents.
    pub(crate) fn from_parts(num_vertices: usize, out: Adjacency, incoming: Adjacency) -> Self {
        Self::from_parts_with_remap(num_vertices, out, incoming, None)
    }

    /// [`Graph::from_parts`] that also carries over a cumulative id remap
    /// (used by `apply_batch` so graph growth preserves the physical layout).
    pub(crate) fn from_parts_with_remap(
        num_vertices: usize,
        out: Adjacency,
        incoming: Adjacency,
        remap: Option<Arc<IdRemap>>,
    ) -> Self {
        debug_assert_eq!(out.num_vertices(), num_vertices);
        debug_assert_eq!(incoming.num_vertices(), num_vertices);
        debug_assert_eq!(out.num_edges(), incoming.num_edges());
        Self {
            num_vertices,
            out,
            incoming,
            remap,
            edges: Arc::default(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Average out-degree (`|E| / |V|`), the figure the paper's Table 4 reports.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices as f64
        }
    }

    /// Iterate over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices as VertexId
    }

    /// The raw edge list (order unspecified), materialised from the CSR on
    /// first use for graphs built by the delta-apply path.
    pub fn edges(&self) -> &[Edge] {
        self.edges.get_or_init(|| {
            let mut edges = Vec::with_capacity(self.out.num_edges());
            for v in 0..self.num_vertices as VertexId {
                for (u, w) in self.out.neighbors_with_weights(v) {
                    edges.push(Edge::new(v, u, w));
                }
            }
            edges
        })
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.incoming.degree(v)
    }

    /// Outgoing neighbors of `v` (targets of edges leaving `v`), sorted.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// Incoming neighbors of `v` (sources of edges entering `v`), sorted.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.incoming.neighbors(v)
    }

    /// Weights parallel to [`Self::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> &[EdgeWeight] {
        self.out.weights(v)
    }

    /// Weights parallel to [`Self::in_neighbors`].
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> &[EdgeWeight] {
        self.incoming.weights(v)
    }

    /// `(neighbor, weight)` pairs over outgoing edges of `v`.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeWeight)> + '_ {
        self.out.neighbors_with_weights(v)
    }

    /// `(neighbor, weight)` pairs over incoming edges of `v`.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeWeight)> + '_ {
        self.incoming.neighbors_with_weights(v)
    }

    /// `true` if the directed edge `src -> dst` exists (physical ids).
    pub fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        match &self.remap {
            // Identity layout: lists are sorted by the physical id itself.
            None => self.out.contains_edge(src, dst),
            // Remapped layout: lists are sorted by external id, so search
            // with the external key.
            Some(remap) => {
                let key = remap.to_old(dst);
                self.out
                    .neighbors(src)
                    .binary_search_by_key(&key, |&u| remap.to_old(u))
                    .is_ok()
            }
        }
    }

    /// Access the outgoing adjacency (CSR) directly.
    #[inline]
    pub fn out_adjacency(&self) -> &Adjacency {
        &self.out
    }

    /// Access the incoming adjacency (CSC) directly.
    #[inline]
    pub fn in_adjacency(&self) -> &Adjacency {
        &self.incoming
    }

    /// The cumulative external→physical remap, if any.
    pub fn id_remap(&self) -> Option<&IdRemap> {
        self.remap.as_deref()
    }

    /// Shared handle to the remap, for sibling modules assembling derived
    /// graphs ([`Graph::apply_batch`]) and for programs whose *values* are
    /// vertex names (CC labels vertices with external ids on a remapped
    /// graph).
    pub fn remap_arc(&self) -> Option<Arc<IdRemap>> {
        self.remap.clone()
    }

    /// `true` when physical and external ids differ for at least one vertex.
    pub fn is_remapped(&self) -> bool {
        self.remap.as_deref().is_some_and(|r| !r.is_identity())
    }

    /// External (client-visible) id of physical vertex `p`.
    #[inline]
    pub fn external_id(&self, p: VertexId) -> VertexId {
        match &self.remap {
            None => p,
            Some(remap) => remap.to_old(p),
        }
    }

    /// Physical (array-index) id of external vertex `ext`.
    #[inline]
    pub fn to_physical(&self, ext: VertexId) -> VertexId {
        match &self.remap {
            None => ext,
            Some(remap) => remap.to_new(ext),
        }
    }

    /// Apply one more remap `step` (old-physical → new-physical), producing a
    /// graph whose arrays are physically reordered while the cumulative
    /// external↔physical bijection is composed so [`Graph::external_id`] stays
    /// correct. Entry order within each adjacency list is preserved, which
    /// keeps lists sorted by external id.
    pub fn remapped(&self, step: &IdRemap) -> Graph {
        let cumulative = match &self.remap {
            None => step.clone(),
            Some(prior) => prior.then(step),
        };
        let remap = (!cumulative.is_identity()).then(|| Arc::new(cumulative));
        Self::from_parts_with_remap(
            self.num_vertices,
            self.out.remapped(step),
            self.incoming.remapped(step),
            remap,
        )
    }

    /// Attach a cumulative external→physical remap to a graph whose arrays are
    /// *already* in the remapped order (the snapshot-restore path, where the
    /// adjacency was persisted post-remap and only the bijection travels
    /// separately).
    pub fn with_remap(mut self, remap: IdRemap) -> Graph {
        self.remap = (!remap.is_identity()).then(|| Arc::new(remap));
        self
    }

    /// Consistency check used by tests and property tests: CSR and CSC must describe
    /// the same edge set and every degree sum must equal the edge count.
    pub fn validate(&self) -> Result<(), String> {
        let out_sum: usize = self.vertices().map(|v| self.out_degree(v)).sum();
        let in_sum: usize = self.vertices().map(|v| self.in_degree(v)).sum();
        if out_sum != self.num_edges() {
            return Err(format!(
                "out-degree sum {} != edge count {}",
                out_sum,
                self.num_edges()
            ));
        }
        if in_sum != self.num_edges() {
            return Err(format!(
                "in-degree sum {} != edge count {}",
                in_sum,
                self.num_edges()
            ));
        }
        for v in self.vertices() {
            for &u in self.out_neighbors(v) {
                if !self.in_neighbors(u).contains(&v) {
                    return Err(format!("edge {v}->{u} present in CSR but missing in CSC"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new();
        b.extend_weighted([(0, 1, 1.0), (1, 3, 2.0), (0, 2, 4.0), (2, 3, 1.0)]);
        b.build()
    }

    #[test]
    fn degrees_and_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert!((g.average_degree() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adjacency_views_are_consistent() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, vec![Edge::unweighted(0, 5)]);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Graph::from_edges(0, vec![]);
        assert_eq!(g.num_vertices(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn edge_weights_follow_sorted_neighbor_order() {
        let g = diamond();
        assert_eq!(g.out_weights(0), &[1.0, 4.0]);
        assert_eq!(g.in_weights(3), &[2.0, 1.0]);
    }

    #[test]
    fn remapped_graph_relabels_consistently() {
        let g = diamond();
        let step = IdRemap::from_forward(vec![2, 0, 3, 1]);
        let r = g.remapped(&step);
        assert!(r.is_remapped());
        assert!(!g.is_remapped());
        r.validate().unwrap();
        assert_eq!(r.num_edges(), g.num_edges());
        for ext in g.vertices() {
            let p = r.to_physical(ext);
            assert_eq!(r.external_id(p), ext);
            assert_eq!(r.out_degree(p), g.out_degree(ext));
            assert_eq!(r.in_degree(p), g.in_degree(ext));
            let ext_nbrs: Vec<VertexId> = r
                .out_neighbors(p)
                .iter()
                .map(|&u| r.external_id(u))
                .collect();
            assert_eq!(ext_nbrs, g.out_neighbors(ext), "out list of external {ext}");
            assert_eq!(r.out_weights(p), g.out_weights(ext));
        }
        for e in g.edges() {
            assert!(r.has_edge(r.to_physical(e.src), r.to_physical(e.dst)));
        }
        assert!(!r.has_edge(r.to_physical(1), r.to_physical(0)));
    }

    #[test]
    fn remap_composes_across_two_steps() {
        let g = diamond();
        let a = IdRemap::from_forward(vec![2, 0, 3, 1]);
        let b = IdRemap::from_forward(vec![1, 3, 0, 2]);
        let twice = g.remapped(&a).remapped(&b);
        let direct = g.remapped(&a.then(&b));
        for ext in g.vertices() {
            assert_eq!(twice.to_physical(ext), direct.to_physical(ext));
        }
        twice.validate().unwrap();
    }

    #[test]
    fn identity_remap_is_free() {
        let g = diamond();
        let r = g.remapped(&IdRemap::identity());
        assert!(!r.is_remapped());
        assert!(r.id_remap().is_none());
        assert_eq!(r.external_id(3), 3);
        assert_eq!(r.to_physical(2), 2);
    }
}
