//! Compressed sparse adjacency, cut into fixed-width shared blocks.
//!
//! [`Adjacency`] stores, for every vertex, a contiguous slice of `(neighbor, weight)`
//! pairs. The same structure serves as CSR (when built from outgoing edges) and as
//! CSC (when built from incoming edges); [`crate::Graph`] keeps one of each so the
//! engine can switch between *push* (outgoing) and *pull* (incoming) traversal.
//!
//! The lists live in [`Block`]s of [`BLOCK_VERTICES`] consecutive vertices. Each
//! block holds its own local offsets, neighbors and weights behind an `Arc`, and
//! a directory indexed by `v >> 10` holds the blocks, so finding a list stays a
//! shift plus one load. Versions share blocks: [`Adjacency::patched`] rebuilds
//! only the blocks that hold an edited or appended vertex and clones the `Arc`s
//! of the rest, and `clone` copies only the directory. A touched block costs a
//! few `memcpy`s: each run of kept lists between two edits is copied whole
//! and its offsets shifted by one constant. A new version therefore costs
//! O(touched blocks + |V| / [`BLOCK_VERTICES`]) instead of O(V + E).
//! The out-of-core store ([`crate::storage`]) decodes each of its segments
//! into a [`Block`] too, so a traversal reads one type from either backing.

use crate::types::{Edge, EdgeWeight, VertexId};
use std::ops::Range;
use std::sync::Arc;

/// log2 of [`BLOCK_VERTICES`].
const BLOCK_SHIFT: u32 = 10;

/// Vertices per [`Block`]. A power of two, so vertex `v` sits in block
/// `v >> 10` at slot `v & (BLOCK_VERTICES - 1)`.
pub const BLOCK_VERTICES: usize = 1 << BLOCK_SHIFT;

/// Vertex range of block `b` of an adjacency over `num_vertices` vertices.
fn block_range(b: usize, num_vertices: usize) -> Range<usize> {
    let lo = b << BLOCK_SHIFT;
    lo..num_vertices.min(lo + BLOCK_VERTICES)
}

/// Number of blocks covering `num_vertices` vertices.
fn block_count(num_vertices: usize) -> usize {
    num_vertices.div_ceil(BLOCK_VERTICES)
}

/// The lists of a run of consecutive vertices from `first` on: vertex
/// `first + i` owns `targets[offsets[i]..offsets[i + 1]]` and the parallel
/// weights. It is the one list-run type of both backings: an [`Adjacency`]
/// holds a directory of blocks of [`BLOCK_VERTICES`] vertices, and a segment
/// fault of the out-of-core store decodes its bytes into one. A block is
/// immutable once built and shared by every graph version (or every cursor)
/// that did not touch its vertices.
#[derive(Debug, PartialEq)]
pub struct Block {
    first: VertexId,
    /// One more than the vertices held, starting at zero; `u32`, the width
    /// of the segment format.
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
    weights: Vec<EdgeWeight>,
}

/// `len` entries as a block-local offset.
fn local_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a block holds fewer than 2^32 entries")
}

impl Block {
    /// The block of vertices `first..first + offsets.len() - 1` with the given
    /// local offsets and parallel lists.
    pub(crate) fn new(
        first: VertexId,
        offsets: Vec<u32>,
        targets: Vec<VertexId>,
        weights: Vec<EdgeWeight>,
    ) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0), "offsets start at zero");
        debug_assert_eq!(offsets.last().map(|&end| end as usize), Some(targets.len()));
        debug_assert_eq!(targets.len(), weights.len());
        Self {
            first,
            offsets,
            targets,
            weights,
        }
    }

    /// Assemble the block covering `span` from `list(v)`, the neighbors and
    /// the parallel weights of each vertex in entry order. Storage is sized
    /// from the neighbor iterators' lower size hints, so lists of known
    /// length allocate once.
    fn build<T, W>(span: Range<usize>, list: impl Fn(usize) -> (T, W)) -> Self
    where
        T: Iterator<Item = VertexId>,
        W: Iterator<Item = EdgeWeight>,
    {
        let edges = span.clone().map(|v| list(v).0.size_hint().0).sum();
        let mut offsets = Vec::with_capacity(span.len() + 1);
        offsets.push(0);
        let (mut targets, mut weights) = (Vec::with_capacity(edges), Vec::with_capacity(edges));
        let first = span.start as VertexId;
        for v in span {
            let (t, w) = list(v);
            targets.extend(t);
            weights.extend(w);
            offsets.push(local_offset(targets.len()));
        }
        Self::new(first, offsets, targets, weights)
    }

    /// The block covering `span` of a patched adjacency: each vertex in
    /// `edits` (sorted, all in `span`) holds its replacement list, every
    /// other vertex `old`'s list (`old` holds a prefix of `span`, or nothing
    /// past the old end), and vertices past `old` are empty. Each run of
    /// kept lists between two edits is one `extend_from_slice` per array,
    /// its offsets shifted by one constant.
    fn spliced(
        old: Option<&Block>,
        span: Range<usize>,
        edits: &[(VertexId, Vec<(VertexId, EdgeWeight)>)],
    ) -> Self {
        let kept_end = old.map_or(span.start, |old| span.end.min(old.span().end as usize));
        let mut edges = old.map_or(0, |old| old.offsets[kept_end - span.start] as usize);
        for (v, list) in edits {
            if (*v as usize) < kept_end {
                edges -= old.map_or(0, |old| old.degree(*v));
            }
            edges += list.len();
        }
        // Every offset is at most the block's entry count: checking it once
        // keeps each shifted offset below in range.
        let end = local_offset(edges);
        let mut offsets = Vec::with_capacity(span.len() + 1);
        offsets.push(0);
        let (mut targets, mut weights) = (Vec::with_capacity(edges), Vec::with_capacity(edges));
        let mut next = span.start;
        // Each edit closes the kept run before it; the end of the span
        // closes the last one.
        for i in 0..=edits.len() {
            let stop = edits.get(i).map_or(span.end, |(v, _)| *v as usize);
            // The kept run `next..stop`: `old`'s lists below `kept_end`,
            // empty ones past it.
            if let Some(old) = old.filter(|_| next < kept_end) {
                let first = old.first as usize;
                let run = &old.offsets[next - first..=stop.min(kept_end) - first];
                let entries = run[0] as usize..run[run.len() - 1] as usize;
                let base = local_offset(targets.len());
                targets.extend_from_slice(&old.targets[entries.clone()]);
                weights.extend_from_slice(&old.weights[entries]);
                offsets.extend(run[1..].iter().map(|&o| o - run[0] + base));
            }
            let empty = stop.saturating_sub(kept_end.max(next));
            offsets.resize(offsets.len() + empty, local_offset(targets.len()));
            if let Some((_, list)) = edits.get(i) {
                targets.extend(list.iter().map(|e| e.0));
                weights.extend(list.iter().map(|e| e.1));
                offsets.push(local_offset(targets.len()));
            }
            next = stop + 1;
        }
        debug_assert_eq!(offsets.last(), Some(&end));
        Self::new(span.start as VertexId, offsets, targets, weights)
    }

    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The vertices this block holds.
    #[inline]
    pub(crate) fn span(&self) -> Range<VertexId> {
        self.first..self.first + self.num_vertices() as VertexId
    }

    /// In-RAM bytes of the lists: 4 per offset, target and weight.
    pub(crate) fn resident_bytes(&self) -> u64 {
        4 * (self.offsets.len() + self.targets.len() + self.weights.len()) as u64
    }

    /// Entry range of `v`, which must lie in this block.
    #[inline]
    fn range(&self, v: VertexId) -> Range<usize> {
        let i = (v - self.first) as usize;
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Degree of `v`, which must lie in this block. A plain difference of
    /// the monotone offsets: `Range::len` would branch on whether the list
    /// is empty, a branch R-MAT's many isolated vertices mispredict.
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let i = (v - self.first) as usize;
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Neighbor list and parallel weights of `v`, which must lie in this block.
    #[inline]
    pub(crate) fn list(&self, v: VertexId) -> (&[VertexId], &[EdgeWeight]) {
        let range = self.range(v);
        (&self.targets[range.clone()], &self.weights[range])
    }
}

/// Compressed adjacency: vertex `v`'s list lives in block `v >> 10` of a
/// directory of shared [`Block`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjacency {
    num_vertices: usize,
    num_edges: usize,
    /// Block `b` covers `block_range(b, num_vertices)`.
    blocks: Vec<Arc<Block>>,
}

impl Adjacency {
    /// Build a CSR structure from a list of edges, keyed by `key` (the vertex whose
    /// adjacency list the edge belongs to) and storing `other` as the neighbor.
    ///
    /// `num_vertices` must be at least `max(vertex id) + 1`.
    fn from_keyed_edges(
        num_vertices: usize,
        edges: &[Edge],
        key: impl Fn(&Edge) -> VertexId,
        other: impl Fn(&Edge) -> VertexId,
    ) -> Self {
        let mut counts = vec![0usize; num_vertices + 1];
        for e in edges {
            counts[key(e) as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut blocks: Vec<Block> = (0..block_count(num_vertices))
            .map(|b| {
                let span = block_range(b, num_vertices);
                let base = counts[span.start];
                let edges = counts[span.end] - base;
                Block::new(
                    span.start as VertexId,
                    counts[span.start..=span.end]
                        .iter()
                        .map(|&c| local_offset(c - base))
                        .collect(),
                    vec![0; edges],
                    vec![0.0; edges],
                )
            })
            .collect();
        // Scatter every edge to the next free entry of its key's list; the
        // cursor holds block-local positions.
        let mut cursor: Vec<usize> = blocks
            .iter()
            .flat_map(|block| block.offsets[..block.num_vertices()].iter())
            .map(|&offset| offset as usize)
            .collect();
        for e in edges {
            let k = key(e) as usize;
            let block = &mut blocks[k >> BLOCK_SHIFT];
            block.targets[cursor[k]] = other(e);
            block.weights[cursor[k]] = e.weight;
            cursor[k] += 1;
        }
        // Sort each adjacency list by neighbor id for deterministic iteration and
        // cache-friendly scans. Lists are typically short, so `sort_unstable`
        // on index pairs is fine.
        let mut pairs: Vec<(VertexId, EdgeWeight)> = Vec::new();
        for block in &mut blocks {
            for slot in 0..block.num_vertices() {
                let (lo, hi) = (
                    block.offsets[slot] as usize,
                    block.offsets[slot + 1] as usize,
                );
                pairs.clear();
                pairs.extend(
                    block.targets[lo..hi]
                        .iter()
                        .copied()
                        .zip(block.weights[lo..hi].iter().copied()),
                );
                pairs.sort_unstable_by_key(|(t, _)| *t);
                for (i, &(t, w)) in pairs.iter().enumerate() {
                    block.targets[lo + i] = t;
                    block.weights[lo + i] = w;
                }
            }
        }
        Self::from_blocks(num_vertices, blocks.into_iter().map(Arc::new).collect())
    }

    /// Build the *outgoing* adjacency (CSR): `neighbors(v)` are targets of edges
    /// whose source is `v`.
    pub fn outgoing(num_vertices: usize, edges: &[Edge]) -> Self {
        Self::from_keyed_edges(num_vertices, edges, |e| e.src, |e| e.dst)
    }

    /// Build the *incoming* adjacency (CSC): `neighbors(v)` are sources of edges
    /// whose destination is `v`.
    pub fn incoming(num_vertices: usize, edges: &[Edge]) -> Self {
        Self::from_keyed_edges(num_vertices, edges, |e| e.dst, |e| e.src)
    }

    /// Build an adjacency over `num_vertices` vertices whose vertex `v` holds
    /// the neighbors and parallel weights `list(v)`, entries in the order
    /// given — the remap and snapshot-restore paths.
    pub(crate) fn from_lists<T, W>(num_vertices: usize, list: impl Fn(usize) -> (T, W)) -> Self
    where
        T: Iterator<Item = VertexId>,
        W: Iterator<Item = EdgeWeight>,
    {
        let blocks = (0..block_count(num_vertices))
            .map(|b| Arc::new(Block::build(block_range(b, num_vertices), &list)))
            .collect();
        Self::from_blocks(num_vertices, blocks)
    }

    fn from_blocks(num_vertices: usize, blocks: Vec<Arc<Block>>) -> Self {
        debug_assert_eq!(blocks.len(), block_count(num_vertices));
        debug_assert!(blocks.iter().enumerate().all(|(b, block)| {
            let span = block_range(b, num_vertices);
            block.span() == (span.start as VertexId..span.end as VertexId)
        }));
        Self {
            num_vertices,
            num_edges: blocks.iter().map(|block| block.num_edges()).sum(),
            blocks,
        }
    }

    /// Number of vertices covered by this adjacency.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total number of stored edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The block holding `v`'s list.
    #[inline]
    pub(crate) fn block(&self, v: VertexId) -> &Block {
        debug_assert!((v as usize) < self.num_vertices, "vertex {v} out of range");
        &self.blocks[v as usize >> BLOCK_SHIFT]
    }

    /// Degree of `v` (number of neighbors in this direction).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.block(v).degree(v)
    }

    /// Degree of every vertex in id order, read block by block.
    pub(crate) fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .flat_map(|block| block.offsets.windows(2).map(|w| (w[1] - w[0]) as usize))
    }

    /// Neighbors of `v` in this direction.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let block = self.block(v);
        &block.targets[block.range(v)]
    }

    /// Weights parallel to [`Self::neighbors`].
    #[inline]
    pub fn weights(&self, v: VertexId) -> &[EdgeWeight] {
        let block = self.block(v);
        &block.weights[block.range(v)]
    }

    /// Iterate `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors_with_weights(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, EdgeWeight)> + '_ {
        let (targets, weights) = self.block(v).list(v);
        targets.iter().copied().zip(weights.iter().copied())
    }

    /// The lists of the vertices in `range` as they lie in memory, one run
    /// per block the range touches: the block's local offsets of the run's
    /// vertices (one more than its vertex count; the run's `i`-th vertex
    /// owns its entries `offsets[i] - offsets[0]..offsets[i + 1] -
    /// offsets[0]`), and the run's neighbors and weights, each one
    /// contiguous slice. The flat and the segment encoders copy words
    /// straight from them.
    pub(crate) fn runs(
        &self,
        range: Range<VertexId>,
    ) -> impl Iterator<Item = (&[u32], &[VertexId], &[EdgeWeight])> + '_ {
        let (lo, hi) = (range.start as usize, range.end as usize);
        debug_assert!(hi <= self.num_vertices, "range past the last vertex");
        (lo >> BLOCK_SHIFT..hi.div_ceil(BLOCK_VERTICES)).map(move |b| {
            let base = b << BLOCK_SHIFT;
            let block = &self.blocks[b];
            let offsets =
                &block.offsets[lo.max(base) - base..=hi.min(base + BLOCK_VERTICES) - base];
            let entries = offsets[0] as usize..offsets[offsets.len() - 1] as usize;
            (
                offsets,
                &block.targets[entries.clone()],
                &block.weights[entries],
            )
        })
    }

    /// `true` if the adjacency list of `v` contains `u`.
    #[inline]
    pub fn contains_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors(v).binary_search(&u).is_ok()
    }

    /// Rebuild this adjacency under a physical-id permutation: vertex
    /// `step.to_new(v)` of the result holds `v`'s list with every neighbor id
    /// rewritten through `step`, **in the original entry order**. Because a
    /// remap renames ids without reordering entries, a list sorted by the
    /// external id of its neighbors stays sorted by that key — the property
    /// that keeps pull-gather fold order (and so every float sum)
    /// bit-identical across remaps.
    pub fn remapped(&self, step: &crate::remap::IdRemap) -> Self {
        Self::from_lists(self.num_vertices, |new_v| {
            let old_v = step.to_old(new_v as VertexId);
            let (targets, weights) = self.block(old_v).list(old_v);
            (
                targets.iter().map(|&t| step.to_new(t)),
                weights.iter().copied(),
            )
        })
    }

    /// Build a new adjacency by replacing the lists of a few vertices — the
    /// versioned patch behind [`crate::Graph::apply_batch`]. Only the blocks
    /// holding an edited vertex, or whose vertex range the new count changes,
    /// are rebuilt; every other block is shared with `self`. A rebuilt block
    /// splices: each run of kept lists is one `memcpy` per array with its
    /// offsets shifted by a constant, so it costs a few `memcpy`s of its
    /// kept runs plus the replacement lists, not one step per vertex.
    ///
    /// `edits` maps a vertex to its complete replacement list and must be sorted by
    /// vertex id, with each replacement list in the graph's canonical neighbor
    /// order (sorted by the neighbor's *external* id — which is plain id order
    /// for an unremapped graph; `apply_batch` asserts it with the right key).
    /// `new_num_vertices` may exceed the current vertex count; vertices present
    /// in neither the old structure nor `edits` get empty lists.
    pub fn patched(
        &self,
        new_num_vertices: usize,
        edits: &[(VertexId, Vec<(VertexId, EdgeWeight)>)],
    ) -> Self {
        debug_assert!(
            edits.windows(2).all(|w| w[0].0 < w[1].0),
            "edits must be sorted by vertex"
        );
        let mut rest = edits;
        let blocks = (0..block_count(new_num_vertices))
            .map(|b| {
                let span = block_range(b, new_num_vertices);
                let (mine, after) =
                    rest.split_at(rest.partition_point(|(v, _)| (*v as usize) < span.end));
                rest = after;
                match self.blocks.get(b) {
                    Some(old) if mine.is_empty() && old.num_vertices() == span.len() => {
                        Arc::clone(old)
                    }
                    old => Arc::new(Block::spliced(old.map(|old| &**old), span, mine)),
                }
            })
            .collect();
        Self::from_blocks(new_num_vertices, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn edges() -> Vec<Edge> {
        vec![
            Edge::new(0, 1, 1.0),
            Edge::new(0, 3, 2.0),
            Edge::new(1, 2, 1.0),
            Edge::new(3, 4, 1.0),
            Edge::new(2, 4, 1.0),
            Edge::new(4, 5, 1.0),
            Edge::new(0, 5, 1.0),
        ]
    }

    #[test]
    fn outgoing_degrees_match_edge_list() {
        let adj = Adjacency::outgoing(6, &edges());
        assert_eq!(adj.num_vertices(), 6);
        assert_eq!(adj.num_edges(), 7);
        assert_eq!(adj.degree(0), 3);
        assert_eq!(adj.degree(1), 1);
        assert_eq!(adj.degree(5), 0);
    }

    #[test]
    fn incoming_degrees_match_edge_list() {
        let adj = Adjacency::incoming(6, &edges());
        assert_eq!(adj.degree(0), 0);
        assert_eq!(adj.degree(5), 2);
        assert_eq!(adj.degree(4), 2);
        assert_eq!(adj.neighbors(5), &[0, 4]);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let adj = Adjacency::outgoing(6, &edges());
        assert_eq!(adj.neighbors(0), &[1, 3, 5]);
        let ws = adj.weights(0);
        assert_eq!(ws, &[1.0, 2.0, 1.0]);
    }

    #[test]
    fn contains_edge_uses_binary_search() {
        let adj = Adjacency::outgoing(6, &edges());
        assert!(adj.contains_edge(0, 3));
        assert!(!adj.contains_edge(0, 2));
        assert!(!adj.contains_edge(5, 0));
    }

    #[test]
    fn neighbors_with_weights_pairs_up() {
        let adj = Adjacency::outgoing(6, &edges());
        let pairs: Vec<_> = adj.neighbors_with_weights(0).collect();
        assert_eq!(pairs, vec![(1, 1.0), (3, 2.0), (5, 1.0)]);
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let adj = Adjacency::outgoing(4, &[]);
        assert_eq!(adj.num_edges(), 0);
        for v in 0..4 {
            assert_eq!(adj.degree(v), 0);
            assert!(adj.neighbors(v).is_empty());
        }
    }

    #[test]
    fn isolated_trailing_vertices_are_represented() {
        let adj = Adjacency::outgoing(10, &[Edge::unweighted(0, 1)]);
        assert_eq!(adj.num_vertices(), 10);
        assert_eq!(adj.degree(9), 0);
    }

    #[test]
    fn patched_replaces_touched_lists_and_copies_the_rest() {
        let adj = Adjacency::outgoing(6, &edges());
        // Replace vertex 0's list, empty vertex 4's list, leave everything else.
        let patched = adj.patched(6, &[(0, vec![(2, 9.0)]), (4, vec![])]);
        assert_eq!(patched.neighbors(0), &[2]);
        assert_eq!(patched.weights(0), &[9.0]);
        assert_eq!(patched.degree(4), 0);
        assert_eq!(patched.neighbors(1), adj.neighbors(1));
        assert_eq!(patched.neighbors(3), adj.neighbors(3));
        assert_eq!(patched.num_edges(), adj.num_edges() - 3);
    }

    #[test]
    fn patched_grows_the_vertex_space() {
        let adj = Adjacency::outgoing(3, &[Edge::unweighted(0, 1)]);
        let patched = adj.patched(5, &[(4, vec![(0, 2.0)])]);
        assert_eq!(patched.num_vertices(), 5);
        assert_eq!(patched.neighbors(4), &[0]);
        assert_eq!(patched.degree(3), 0);
        assert_eq!(patched.neighbors(0), &[1]);
    }

    #[test]
    fn patched_with_no_edits_is_identity() {
        let adj = Adjacency::outgoing(6, &edges());
        assert_eq!(adj.patched(6, &[]), adj);
    }

    /// An adjacency over `n` vertices with three random out-edges per vertex
    /// and, on every 97th vertex, a duplicate pair with distinct weights.
    fn spread(n: usize, seed: u64) -> Adjacency {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut edges = Vec::new();
        for v in 0..n as VertexId {
            for _ in 0..3 {
                edges.push(Edge::new(
                    v,
                    rng.range_u32(0, n as u32),
                    rng.range_f32(1.0, 9.0),
                ));
            }
            if v % 97 == 0 {
                let u = (v + 1) % n as VertexId;
                edges.push(Edge::new(v, u, 2.0));
                edges.push(Edge::new(v, u, 3.0));
            }
        }
        Adjacency::outgoing(n, &edges)
    }

    /// Per block of `b`, whether `a` holds the very same block.
    fn shared_blocks(a: &Adjacency, b: &Adjacency) -> Vec<bool> {
        b.blocks
            .iter()
            .enumerate()
            .map(|(i, block)| a.blocks.get(i).is_some_and(|old| Arc::ptr_eq(old, block)))
            .collect()
    }

    fn assert_same_lists(a: &Adjacency, b: &Adjacency, vertices: Range<usize>) {
        for v in vertices {
            let v = v as VertexId;
            assert_eq!(a.neighbors(v), b.neighbors(v), "list of {v}");
            assert_eq!(a.weights(v), b.weights(v), "weights of {v}");
        }
    }

    #[test]
    fn patched_copies_only_the_touched_blocks() {
        for blocks in [8usize, 64] {
            // The last block is partial, so growth must rebuild it.
            let n = (blocks - 1) * BLOCK_VERTICES + BLOCK_VERTICES / 2;
            let adj = spread(n, blocks as u64);
            assert_eq!(adj.blocks.len(), blocks);

            // One edited list rebuilds its own block and shares the others.
            let v = (3 * BLOCK_VERTICES + 17) as VertexId;
            let edited = adj.patched(n, &[(v, vec![(0, 1.0), (5, 2.0)])]);
            let mut expected = vec![true; blocks];
            expected[3] = false;
            assert_eq!(shared_blocks(&adj, &edited), expected);
            assert_eq!(edited.neighbors(v), &[0, 5]);
            assert_eq!(edited.weights(v), &[1.0, 2.0]);
            assert_same_lists(&adj, &edited, 0..v as usize);
            assert_same_lists(&adj, &edited, v as usize + 1..n);
            assert_eq!(edited.num_edges(), adj.num_edges() - adj.degree(v) + 2);

            // Growth into a new block rebuilds the partial last block, appends
            // the new one and shares everything before them.
            let grown_n = n + BLOCK_VERTICES;
            let tail = (grown_n - 1) as VertexId;
            let grown = adj.patched(grown_n, &[(tail, vec![(1, 4.0)])]);
            let mut expected = vec![true; blocks + 1];
            expected[blocks - 1] = false;
            expected[blocks] = false;
            assert_eq!(shared_blocks(&adj, &grown), expected);
            assert_same_lists(&adj, &grown, 0..n);
            for u in n..grown_n - 1 {
                assert_eq!(grown.degree(u as VertexId), 0);
            }
            assert_eq!(grown.neighbors(tail), &[1]);
            assert_eq!(grown.num_edges(), adj.num_edges() + 1);

            // A patch without edits shares every block, as does a clone.
            assert!(shared_blocks(&adj, &adj.patched(n, &[])).iter().all(|&s| s));
            assert!(shared_blocks(&adj, &adj.clone()).iter().all(|&s| s));
        }
    }

    /// Patch `adj` with `edits` and check the splice against a from-scratch
    /// build of the same edited-or-kept lists, block by block, and that every
    /// block without an edit and with its old span is the old one.
    fn check_splice(
        adj: &Adjacency,
        new_n: usize,
        edits: &[(VertexId, Vec<(VertexId, EdgeWeight)>)],
        case: &str,
    ) {
        let patched = adj.patched(new_n, edits);
        let expected = Adjacency::from_lists(new_n, |v| {
            let (targets, weights): (Vec<VertexId>, Vec<EdgeWeight>) =
                match edits.binary_search_by_key(&(v as VertexId), |(ev, _)| *ev) {
                    Ok(i) => edits[i].1.iter().copied().unzip(),
                    Err(_) if v < adj.num_vertices() => {
                        adj.neighbors_with_weights(v as VertexId).unzip()
                    }
                    Err(_) => (Vec::new(), Vec::new()),
                };
            (targets.into_iter(), weights.into_iter())
        });
        assert_eq!(patched.num_vertices(), new_n, "{case}");
        assert_eq!(patched.num_edges(), expected.num_edges(), "{case}");
        assert_eq!(patched.blocks.len(), expected.blocks.len(), "{case}");
        for (b, (got, want)) in patched.blocks.iter().zip(&expected.blocks).enumerate() {
            assert_eq!(**got, **want, "{case}: block {b}");
            let span = block_range(b, new_n);
            let untouched = !edits.iter().any(|(v, _)| span.contains(&(*v as usize)))
                && adj
                    .blocks
                    .get(b)
                    .is_some_and(|old| old.num_vertices() == span.len());
            let shared = adj.blocks.get(b).is_some_and(|old| Arc::ptr_eq(old, got));
            assert_eq!(shared, untouched, "{case}: block {b} shared");
        }
    }

    /// A sorted replacement list of up to `max` entries over `n` vertices,
    /// sometimes with a duplicate pair of distinct weights.
    fn random_list(rng: &mut SplitMix64, n: usize, max: u32) -> Vec<(VertexId, EdgeWeight)> {
        let mut list: Vec<(VertexId, EdgeWeight)> = (0..rng.range_u32(0, max + 1))
            .map(|_| (rng.range_u32(0, n as u32), rng.range_f32(1.0, 9.0)))
            .collect();
        if let Some(&(u, w)) = list.first().filter(|_| rng.next_f64() < 0.3) {
            list.push((u, w + 1.0));
        }
        list.sort_by_key(|&(u, _)| u);
        list
    }

    #[test]
    fn patched_splices_equal_from_scratch_lists_on_random_edit_sets() {
        let w = BLOCK_VERTICES;
        // Three full blocks and a partial last one.
        let n = 3 * w + w / 2;
        let adj = spread(n, 41);
        let mut rng = SplitMix64::seed_from_u64(4242);
        let edit = |vertices: &[usize], rng: &mut SplitMix64| {
            vertices
                .iter()
                .map(|&v| (v as VertexId, random_list(rng, n, 6)))
                .collect::<Vec<_>>()
        };
        let cases: Vec<(&str, usize, Vec<usize>)> = vec![
            ("first slot of a block", n, vec![w]),
            ("last slot of a block", n, vec![2 * w - 1]),
            ("first and last slots", n, vec![0, w - 1, 3 * w]),
            ("every vertex of a block", n, (w..2 * w).collect()),
            ("every vertex of the last block", n, (3 * w..n).collect()),
            ("growth inside the last block", n + 10, vec![n + 3]),
            (
                "growth to the end of the last block",
                4 * w,
                vec![4 * w - 1],
            ),
            ("growth past the last block", n + w + 7, vec![n + w + 2]),
            ("growth without an edit", n + 2 * w, vec![]),
            ("no edit", n, vec![]),
        ];
        for (case, new_n, vertices) in cases {
            check_splice(&adj, new_n, &edit(&vertices, &mut rng), case);
        }
        // An empty replacement list next to a non-empty one.
        let emptied = vec![
            (5, Vec::new()),
            (6, vec![(1, 1.0), (1, 2.0)]),
            (w as VertexId, Vec::new()),
        ];
        check_splice(&adj, n, &emptied, "empty replacements");
        for seed in 0..40u64 {
            let new_n = if seed % 2 == 0 {
                n
            } else {
                n + rng.range_u32(1, 2 * w as u32) as usize
            };
            let mut vertices: Vec<usize> = (0..rng.range_u32(1, 24))
                .map(|_| rng.range_u32(0, new_n as u32) as usize)
                .collect();
            vertices.sort_unstable();
            vertices.dedup();
            check_splice(
                &adj,
                new_n,
                &edit(&vertices, &mut rng),
                &format!("seed {seed}"),
            );
        }
    }

    #[test]
    fn lists_cross_block_boundaries_intact() {
        let n = 2 * BLOCK_VERTICES + 5;
        let adj = spread(n, 7);
        let spans: Vec<Range<VertexId>> = [0, BLOCK_VERTICES - 1, BLOCK_VERTICES, n - 1]
            .iter()
            .map(|&v| adj.block(v as VertexId).span())
            .collect();
        let w = BLOCK_VERTICES as VertexId;
        assert_eq!(spans, vec![0..w, 0..w, w..2 * w, 2 * w..n as VertexId]);
        let degrees: Vec<usize> = adj.degrees().collect();
        assert_eq!(degrees.len(), n);
        assert_eq!(degrees.iter().sum::<usize>(), adj.num_edges());
        for v in 0..n as VertexId {
            assert_eq!(degrees[v as usize], adj.degree(v));
            assert_eq!(adj.block(v).list(v), (adj.neighbors(v), adj.weights(v)));
        }
        // Duplicate pairs keep distinct entries in sorted order.
        assert_eq!(adj.neighbors(97).iter().filter(|&&u| u == 98).count(), 2);
    }
}
