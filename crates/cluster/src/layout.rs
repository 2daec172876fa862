//! Degree-aware global chunk layout: the work units of the cross-node executor.
//!
//! Cutting every node's owned-vertex list into fixed 256-vertex mini-chunks
//! and claiming them in vertex order leaves two sources of tail latency:
//!
//! * **Hub chunks.** Chunking partitioners put consecutive vertex ids together,
//!   so a chunk containing a power-law hub can carry orders of magnitude more
//!   edge work than its neighbors. Whichever worker draws it last dominates the
//!   phase makespan.
//! * **Discovery order.** Claimed in vertex order, a hub chunk sitting at the
//!   end of the id range *starts* last — the worst possible moment under work
//!   stealing.
//!
//! [`GlobalChunkLayout`] fixes both, Gemini-style (chunk-based secondary
//! partitioning): chunks whose **estimated work** (`1 + in_degree + out_degree`
//! per vertex) exceeds a per-node budget are split — a mega-hub gets a chunk of
//! its own — and the final chunk list is ordered **descending by estimate**, so
//! stealing drains the expensive tail first and the cheap chunks level the load
//! at the end. The layout spans *all* nodes: one phase hands every node's
//! chunks to one global worker pool, which is what lets `total_workers` threads
//! stay busy instead of `workers_per_node`.
//!
//! Every chunk also carries two **vertex-id spans** for the engine's
//! chunk-level activity summaries: the span of the chunk's own vertices (a
//! word-range popcount over the frontier tells whether any *source* in the
//! chunk is active, letting push phases skip the chunk outright) and the span
//! of the chunk's in-neighbors (whether any value a *destination* in the chunk
//! gathers could have changed, letting pull phases skip caught-up chunks). The
//! spans are conservative on non-contiguous partitionings — a foreign active
//! vertex inside the span merely prevents a skip, never causes one.
//!
//! The layout is pure bookkeeping — every owned vertex appears in exactly one
//! chunk (the property tests pin this), so execution results are unaffected;
//! only the claim order and the work-per-claim distribution change.
//!
//! # Patching a layout after an edge batch
//!
//! Per-vertex estimates and in-spans only move at a batch's dirty endpoints,
//! and a stable partitioning only appends to each node's ascending owned list,
//! so [`GlobalChunkLayout::patched_at`] re-cuts just the chunks around the
//! dirty positions, in `O(batch)` rather than `O(V + E)`, and the result is
//! `==` to a from-scratch [`GlobalChunkLayout::build`]. Per node:
//!
//! * The new total estimate is exact without a scan: the old chunk estimates,
//!   plus each dirty chunk's re-summed estimate minus its old one, plus the
//!   appended vertices. If the node's split budget
//!   `2·⌈total / ⌈len / chunk_size⌉⌉` is unchanged, old chunks are copied
//!   verbatim up to the one holding the next dirty position; the cut re-runs
//!   from that chunk's start and returns to copying at the first new cut
//!   that is also an old chunk start.
//! * This is exact because the greedy cut resets its state at every cut:
//!   clean vertices keep their estimates and in-spans, so from an old boundary
//!   the cut reproduces the old chunks. Appended vertices sit at the end of
//!   the list, so the old last chunk (which the list's end closed) counts as
//!   dirty.
//! * If the budget changed, or the node had no chunks, the node is re-cut
//!   whole, as a build would.
//!
//! One greedy cut routine serves the build, the local re-cut and the
//! whole-node fallback. [`GlobalChunkLayout::patched`], which re-cuts every
//! node flagged as touched, runs through the same per-node routine.

use crate::stealing::{ScheduleOutcome, SchedulingPolicy};
use slfe_graph::{Graph, VertexId};
use std::ops::Range;

/// Split threshold: a chunk is closed early once its estimate reaches
/// `SPLIT_FACTOR ×` the node's average per-base-chunk estimate.
const SPLIT_FACTOR: u64 = 2;

/// One schedulable unit: a contiguous slice of a node's owned-vertex list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkChunk {
    /// The simulated node owning every vertex of this chunk.
    pub node: usize,
    /// Start index (inclusive) into `Cluster::vertices_of(node)`.
    pub start: usize,
    /// End index (exclusive) into `Cluster::vertices_of(node)`.
    pub end: usize,
    /// Estimated work: `Σ (1 + in_degree + out_degree)` over the slice.
    pub estimate: u64,
    /// Half-open vertex-id span `[span_start, span_end)` covering the chunk's
    /// own vertices (owned lists are ascending, so this is
    /// `owned[start]..owned[end-1]+1`). Frontier popcounts over this span
    /// bound the chunk's active-source count from above.
    pub span_start: VertexId,
    /// End (exclusive) of the own-vertex id span.
    pub span_end: VertexId,
    /// Half-open vertex-id span covering every in-neighbor of the chunk's
    /// vertices; `in_start >= in_end` encodes "no in-edges at all". A frontier
    /// with no bit in this span cannot change anything this chunk gathers.
    pub in_start: VertexId,
    /// End (exclusive) of the in-neighbor id span.
    pub in_end: VertexId,
}

impl WorkChunk {
    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the chunk covers no vertices (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` when no vertex of this chunk has an incoming edge.
    pub fn has_no_in_edges(&self) -> bool {
        self.in_start >= self.in_end
    }
}

/// What a layout patch ([`GlobalChunkLayout::patched_at`] or
/// [`GlobalChunkLayout::patched`]) did — the proof that applying an update
/// batch no longer pays an O(V+E) layout rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutPatchStats {
    /// Nodes whose chunk list was re-cut, in part or whole: the dirty
    /// endpoints' owners and the nodes that received appended vertices.
    pub nodes_rebuilt: usize,
    /// Of `nodes_rebuilt`, the nodes re-cut whole: their split budget
    /// changed, they had no chunks before, or [`GlobalChunkLayout::patched`]
    /// flagged them.
    pub nodes_recut_whole: usize,
    /// Owned-vertex estimates the patch read: the dirty chunks re-summed for
    /// a node's new total, the appended vertices, and every vertex a cut
    /// passed over (a whole-node re-cut passes over the whole node). The
    /// patch's work bound, compared to `|V| + |E|` for a from-scratch build.
    pub vertices_scanned: usize,
    /// Chunks copied verbatim from the previous layout.
    pub chunks_reused: usize,
}

/// The degree-aware, cluster-wide chunk layout of one graph version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalChunkLayout {
    /// All chunks in execution order: descending estimate, ties by (node, start).
    chunks: Vec<WorkChunk>,
    /// Per node: indices into `chunks`, in execution order.
    per_node: Vec<Vec<usize>>,
}

/// A vertex's estimated work: itself plus every edge it touches.
fn estimate(graph: &Graph, v: VertexId) -> u64 {
    1 + graph.in_degree(v) as u64 + graph.out_degree(v) as u64
}

/// A node's split budget: an even estimate share per base chunk of
/// `chunk_size` vertices, times the split factor. A chunk that would exceed
/// it is cut early; a single hub larger than the whole budget becomes a
/// one-vertex chunk. `len` must be positive.
fn node_budget(total: u64, len: usize, chunk_size: usize) -> u64 {
    let base_chunks = len.div_ceil(chunk_size) as u64;
    (SPLIT_FACTOR * total.div_ceil(base_chunks)).max(1)
}

/// One node's owned-vertex list over one graph version: what every cut of
/// that node reads.
struct NodeList<'a> {
    graph: &'a Graph,
    node: usize,
    owned: &'a [VertexId],
    chunk_size: usize,
}

impl NodeList<'_> {
    /// The summed estimate of `owned[range]`.
    fn estimate(&self, range: Range<usize>) -> u64 {
        self.owned[range]
            .iter()
            .map(|&v| estimate(self.graph, v))
            .sum()
    }

    /// The greedy cut, the one routine behind every chunk list: starting at
    /// position `from` (a cut, so with nothing accumulated), close a chunk
    /// when it reaches `chunk_size` vertices, its estimate reaches `budget`,
    /// or the list ends, and append each chunk to `out`. Stops at the first
    /// cut `resync` accepts, or at the end of the list, and returns that
    /// position. Byte-identical chunk lists are what make a patched layout
    /// `==` the from-scratch one.
    fn cut(
        &self,
        budget: u64,
        from: usize,
        out: &mut Vec<WorkChunk>,
        mut resync: impl FnMut(usize) -> bool,
    ) -> usize {
        let owned = self.owned;
        let mut start = from;
        let mut acc = 0u64;
        let mut in_start = VertexId::MAX;
        let mut in_end = 0 as VertexId;
        for (idx, &v) in owned.iter().enumerate().skip(from) {
            acc += estimate(self.graph, v);
            for &u in self.graph.in_neighbors(v) {
                in_start = in_start.min(u);
                in_end = in_end.max(u + 1);
            }
            let len = idx + 1 - start;
            if len == self.chunk_size || acc >= budget || idx + 1 == owned.len() {
                out.push(WorkChunk {
                    node: self.node,
                    start,
                    end: idx + 1,
                    estimate: acc,
                    span_start: owned[start],
                    span_end: owned[idx] + 1,
                    in_start: if in_start < in_end { in_start } else { 0 },
                    in_end: if in_start < in_end { in_end } else { 0 },
                });
                start = idx + 1;
                acc = 0;
                in_start = VertexId::MAX;
                in_end = 0;
                if resync(start) {
                    return start;
                }
            }
        }
        owned.len()
    }

    /// Cut the whole list under the budget its `total` estimate sets, as
    /// [`GlobalChunkLayout::build`] does.
    fn cut_whole(&self, total: u64, out: &mut Vec<WorkChunk>) {
        if !self.owned.is_empty() {
            let budget = node_budget(total, self.owned.len(), self.chunk_size);
            self.cut(budget, 0, out, |_| false);
        }
    }
}

/// Descending estimate: stealing claims the heavy tail first. The tie break
/// keeps the order (and therefore the whole layout) deterministic.
fn sort_chunks(chunks: &mut [WorkChunk]) {
    chunks.sort_by(|a, b| {
        b.estimate
            .cmp(&a.estimate)
            .then(a.node.cmp(&b.node))
            .then(a.start.cmp(&b.start))
    });
}

impl GlobalChunkLayout {
    /// Build the layout for `owned_per_node[node]` (each node's owned vertices,
    /// as [`crate::Cluster::vertices_of`] provides them) over `graph`, with
    /// `chunk_size` as the base mini-chunk granularity.
    pub fn build(graph: &Graph, owned_per_node: &[&[VertexId]], chunk_size: usize) -> Self {
        assert!(chunk_size >= 1, "chunk size must be positive");
        let mut chunks = Vec::new();
        for (node, owned) in owned_per_node.iter().enumerate() {
            let list = NodeList {
                graph,
                node,
                owned,
                chunk_size,
            };
            list.cut_whole(list.estimate(0..owned.len()), &mut chunks);
        }
        Self::ordered(chunks, owned_per_node.len())
    }

    /// The layout holding `chunks` (any order), sorted into claim order.
    fn ordered(mut chunks: Vec<WorkChunk>, num_nodes: usize) -> Self {
        sort_chunks(&mut chunks);
        let mut per_node = vec![Vec::new(); num_nodes];
        for (i, chunk) in chunks.iter().enumerate() {
            per_node[chunk.node].push(i);
        }
        Self { chunks, per_node }
    }

    /// Re-derive this layout after an edge batch whose changed vertices are
    /// `dirty` (ascending, as [`slfe_graph::BatchEffect::dirty`] lists them):
    /// each node re-cuts only the chunks around its dirty positions and
    /// copies the rest verbatim, falling back to a whole-node re-cut when its
    /// split budget changed (see the [module docs](self)). Then the global
    /// claim order is re-sorted: `O(re-cut chunks + |dirty| log V + C log C)`
    /// for `C` chunks, instead of `O(V + E)`.
    ///
    /// The caller guarantees that every vertex whose in-degree, out-degree
    /// or in-neighbours changed is in `dirty`, that `chunk_size` is the one
    /// this layout was cut with, and that each node's owned list is the
    /// previous one, possibly with vertices appended. Under that contract the
    /// result is `==` to a from-scratch [`GlobalChunkLayout::build`] on the
    /// new graph (property-tested).
    pub fn patched_at(
        &self,
        graph: &Graph,
        owned_per_node: &[&[VertexId]],
        chunk_size: usize,
        dirty: &[VertexId],
    ) -> (Self, LayoutPatchStats) {
        let positions: Vec<_> = owned_per_node
            .iter()
            .map(|owned| {
                Some(
                    dirty
                        .iter()
                        .filter_map(|v| owned.binary_search(v).ok())
                        .collect(),
                )
            })
            .collect();
        self.patch_nodes(graph, owned_per_node, chunk_size, &positions)
    }

    /// Re-derive this layout after a graph mutation whose changed degrees are
    /// confined to `touched[node]` nodes: touched nodes are re-cut whole from
    /// their (possibly grown) owned lists, untouched nodes' chunks are copied
    /// verbatim, and only the global claim order is re-sorted —
    /// `O(Σ touched |owned| + touched edges + C log C)` instead of `O(V + E)`.
    ///
    /// The caller guarantees that every vertex whose in- or out-degree changed
    /// (a dirty batch endpoint) — and every appended vertex — is owned by a
    /// touched node, and that untouched nodes' owned lists are unchanged.
    /// Under that contract the result is `==` to a from-scratch
    /// [`GlobalChunkLayout::build`] on the new graph (property-tested).
    ///
    /// The serving path patches with [`GlobalChunkLayout::patched_at`]; this
    /// entry is kept for the benchmark's stand-alone layout probe and runs
    /// through the same per-node routine.
    pub fn patched(
        &self,
        graph: &Graph,
        owned_per_node: &[&[VertexId]],
        chunk_size: usize,
        touched: &[bool],
    ) -> (Self, LayoutPatchStats) {
        assert_eq!(
            touched.len(),
            self.per_node.len(),
            "one touched flag per node"
        );
        let positions: Vec<_> = touched.iter().map(|&t| (!t).then(Vec::new)).collect();
        self.patch_nodes(graph, owned_per_node, chunk_size, &positions)
    }

    /// Patch every node at its dirty positions (see
    /// [`GlobalChunkLayout::patch_node`]), then re-sort.
    fn patch_nodes(
        &self,
        graph: &Graph,
        owned_per_node: &[&[VertexId]],
        chunk_size: usize,
        dirty_per_node: &[Option<Vec<usize>>],
    ) -> (Self, LayoutPatchStats) {
        assert!(chunk_size >= 1, "chunk size must be positive");
        assert_eq!(
            owned_per_node.len(),
            self.per_node.len(),
            "patching cannot change the node count"
        );
        let mut stats = LayoutPatchStats::default();
        let mut chunks = Vec::with_capacity(self.chunks.len() + 1);
        for (node, owned) in owned_per_node.iter().enumerate() {
            let list = NodeList {
                graph,
                node,
                owned,
                chunk_size,
            };
            let dirty = dirty_per_node[node].as_deref();
            self.patch_node(&list, dirty, &mut stats, &mut chunks);
        }
        (Self::ordered(chunks, owned_per_node.len()), stats)
    }

    /// Append `list`'s chunks over the new graph to `out`. `dirty` holds the
    /// ascending positions whose vertices changed (positions past the old
    /// list are appended vertices); `None` re-cuts the node whole.
    fn patch_node(
        &self,
        list: &NodeList<'_>,
        dirty: Option<&[usize]>,
        stats: &mut LayoutPatchStats,
        out: &mut Vec<WorkChunk>,
    ) {
        let len = list.owned.len();
        let old_ids = &self.per_node[list.node];
        let old_len: usize = old_ids.iter().map(|&i| self.chunks[i].len()).sum();
        if dirty.is_some_and(|d| d.is_empty()) && len == old_len {
            stats.chunks_reused += old_ids.len();
            out.extend(old_ids.iter().map(|&i| self.chunks[i].clone()));
            return;
        }
        stats.nodes_rebuilt += 1;
        let Some(dirty) = dirty.filter(|_| !old_ids.is_empty()) else {
            stats.nodes_recut_whole += 1;
            stats.vertices_scanned += len;
            list.cut_whole(list.estimate(0..len), out);
            return;
        };

        // The old chunks in list order, and those holding a dirty position.
        // Appended vertices dirty the old last chunk, which the list's end
        // closed.
        let mut old: Vec<&WorkChunk> = old_ids.iter().map(|&i| &self.chunks[i]).collect();
        old.sort_unstable_by_key(|c| c.start);
        let mut dirty_chunks: Vec<usize> = Vec::new();
        for &p in dirty.iter().take_while(|&&p| p < old_len) {
            let i = old.partition_point(|c| c.end <= p);
            if dirty_chunks.last() != Some(&i) {
                dirty_chunks.push(i);
            }
        }
        if len > old_len && dirty_chunks.last() != Some(&(old.len() - 1)) {
            dirty_chunks.push(old.len() - 1);
        }

        // The node's exact new total: re-sum only the dirty chunks and the
        // appended vertices. A changed budget moves every cut.
        let old_total: u64 = old.iter().map(|c| c.estimate).sum();
        let mut total = old_total + list.estimate(old_len..len);
        stats.vertices_scanned += len - old_len;
        for &i in &dirty_chunks {
            total = total - old[i].estimate + list.estimate(old[i].start..old[i].end);
            stats.vertices_scanned += old[i].len();
        }
        let budget = node_budget(total, len, list.chunk_size);
        if budget != node_budget(old_total, old_len, list.chunk_size) {
            stats.nodes_recut_whole += 1;
            stats.vertices_scanned += len;
            list.cut_whole(total, out);
            return;
        }

        // Copy up to each dirty chunk, re-cut from its start, and resume
        // copying at the first new cut that lands on an old chunk start.
        let mut next = 0;
        for &d in &dirty_chunks {
            if d < next {
                continue;
            }
            stats.chunks_reused += d - next;
            out.extend(old[next..d].iter().map(|&c| c.clone()));
            let from = old[d].start;
            next = d + 1;
            let end = list.cut(budget, from, out, |cut| {
                while next < old.len() && old[next].start < cut {
                    next += 1;
                }
                next < old.len() && old[next].start == cut
            });
            stats.vertices_scanned += end - from;
        }
        stats.chunks_reused += old.len() - next;
        out.extend(old[next..].iter().map(|&c| c.clone()));
    }

    /// All chunks, in execution (claim) order.
    pub fn chunks(&self) -> &[WorkChunk] {
        &self.chunks
    }

    /// Indices into [`GlobalChunkLayout::chunks`] belonging to `node`, in
    /// execution order.
    pub fn node_chunks(&self, node: usize) -> &[usize] {
        &self.per_node[node]
    }

    /// Number of simulated nodes the layout spans.
    pub fn num_nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Deterministically assign `node`'s chunks (costed by
    /// `cost(chunk_index)`, typically the measured per-chunk work of the phase
    /// just executed) to `workers` simulated workers under `policy`:
    ///
    /// * [`SchedulingPolicy::WorkStealing`] — greedy least-loaded in execution
    ///   order, what chunk-grained stealing converges to; with the
    ///   descending-estimate order this is classic LPT scheduling.
    /// * [`SchedulingPolicy::StaticBlocks`] — contiguous equal-count blocks of
    ///   the node's chunk list, the "w/o Stealing" baseline of Figure 10(a).
    ///
    /// This is the simulated-cluster view: each *node* still only has
    /// `workers_per_node` workers, no matter how many global threads physically
    /// ran the chunks. Zero-cost chunks (including ones the activity summaries
    /// skipped) never touch a simulated worker.
    pub fn simulate_node(
        &self,
        node: usize,
        workers: usize,
        policy: SchedulingPolicy,
        mut cost: impl FnMut(usize) -> u64,
    ) -> ScheduleOutcome {
        assert!(workers >= 1, "need at least one worker");
        let mut per_worker = vec![0u64; workers];
        let mut total = 0u64;
        let node_chunks = &self.per_node[node];
        for (pos, &chunk) in node_chunks.iter().enumerate() {
            let c = cost(chunk);
            if c == 0 {
                continue;
            }
            total += c;
            let idx = match policy {
                SchedulingPolicy::WorkStealing => {
                    per_worker
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, &w)| (w, *i))
                        .expect("at least one worker")
                        .0
                }
                SchedulingPolicy::StaticBlocks => pos * workers / node_chunks.len(),
            };
            per_worker[idx] += c;
        }
        ScheduleOutcome {
            per_worker_work: per_worker,
            total_work: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_graph::generators::BatchShape;
    use slfe_graph::{generators, UpdateBatch};
    use slfe_partition::{ChunkingPartitioner, Partitioner, Partitioning};

    fn owned_split(n: usize, nodes: usize) -> Vec<Vec<VertexId>> {
        // Contiguous shares, like the chunking partitioner produces.
        let per = n.div_ceil(nodes);
        (0..nodes)
            .map(|k| ((k * per) as u32..(((k + 1) * per).min(n)) as u32).collect())
            .collect()
    }

    fn as_refs(owned: &[Vec<VertexId>]) -> Vec<&[VertexId]> {
        owned.iter().map(|o| o.as_slice()).collect()
    }

    #[test]
    fn chunks_cover_every_owned_vertex_exactly_once() {
        let g = generators::rmat(3000, 24000, 0.57, 0.19, 0.19, 77);
        let owned = owned_split(g.num_vertices(), 3);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 256);
        let mut covered = vec![0usize; g.num_vertices()];
        for chunk in layout.chunks() {
            assert!(!chunk.is_empty());
            for idx in chunk.start..chunk.end {
                covered[owned[chunk.node][idx] as usize] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "each vertex exactly once");
    }

    #[test]
    fn chunks_are_ordered_descending_by_estimate() {
        let g = generators::rmat(2000, 30000, 0.57, 0.19, 0.19, 5);
        let owned = owned_split(g.num_vertices(), 2);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 128);
        for pair in layout.chunks().windows(2) {
            assert!(pair[0].estimate >= pair[1].estimate);
        }
    }

    #[test]
    fn hub_heavy_chunks_are_split() {
        // A star: vertex 0 has degree n-1, everyone else degree 1. With the
        // budget rule the hub must sit in a chunk much smaller than chunk_size.
        let n = 2048;
        let edges: Vec<(u32, u32, f32)> = (1..n).map(|v| (0u32, v as u32, 1.0)).collect();
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_weighted(edges);
        let g = b.build();
        let owned: Vec<VertexId> = (0..n as u32).collect();
        let layout = GlobalChunkLayout::build(&g, &[&owned], 256);
        let hub_chunk = layout
            .chunks()
            .iter()
            .find(|c| (c.start..c.end).contains(&0))
            .unwrap();
        assert!(
            hub_chunk.len() < 256,
            "hub chunk of {} vertices was not split",
            hub_chunk.len()
        );
        // And the hub chunk is claimed first.
        assert_eq!(layout.chunks()[0], *hub_chunk);
    }

    #[test]
    fn node_chunk_indices_partition_the_chunk_list() {
        let g = generators::rmat(1000, 8000, 0.57, 0.19, 0.19, 9);
        let owned = owned_split(g.num_vertices(), 4);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 64);
        let mut seen = vec![false; layout.chunks().len()];
        for node in 0..layout.num_nodes() {
            for &i in layout.node_chunks(node) {
                assert_eq!(layout.chunks()[i].node, node);
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn spans_cover_own_vertices_and_in_neighbors() {
        let g = generators::rmat(1200, 9000, 0.57, 0.19, 0.19, 51);
        let owned = owned_split(g.num_vertices(), 3);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 64);
        for chunk in layout.chunks() {
            for &v in &owned[chunk.node][chunk.start..chunk.end] {
                assert!(
                    chunk.span_start <= v && v < chunk.span_end,
                    "own span misses vertex {v}"
                );
                for &u in g.in_neighbors(v) {
                    assert!(!chunk.has_no_in_edges());
                    assert!(
                        chunk.in_start <= u && u < chunk.in_end,
                        "in-span misses in-neighbor {u} of {v}"
                    );
                }
            }
        }
        // A chunk with no in-edges anywhere reports it.
        let path = generators::path(4);
        let roots: Vec<VertexId> = vec![0];
        let rest: Vec<VertexId> = vec![1, 2, 3];
        let l = GlobalChunkLayout::build(&path, &[&roots, &rest], 8);
        let root_chunk = l.chunks().iter().find(|c| c.node == 0).unwrap();
        assert!(root_chunk.has_no_in_edges());
    }

    #[test]
    fn simulate_node_conserves_work_and_bounds_makespan() {
        let g = generators::rmat(1500, 12000, 0.57, 0.19, 0.19, 13);
        let owned = owned_split(g.num_vertices(), 2);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 64);
        for node in 0..2 {
            let outcome = layout.simulate_node(node, 4, SchedulingPolicy::WorkStealing, |c| {
                layout.chunks()[c].estimate
            });
            let expected: u64 = layout
                .node_chunks(node)
                .iter()
                .map(|&c| layout.chunks()[c].estimate)
                .sum();
            assert_eq!(outcome.total_work, expected);
            let max_chunk = layout
                .node_chunks(node)
                .iter()
                .map(|&c| layout.chunks()[c].estimate)
                .max()
                .unwrap_or(0);
            assert!(outcome.makespan() <= expected / 4 + max_chunk);
        }
    }

    #[test]
    fn empty_nodes_get_no_chunks() {
        let g = generators::path(10);
        let owned: Vec<VertexId> = (0..10).collect();
        let layout = GlobalChunkLayout::build(&g, &[&owned, &[]], 4);
        assert_eq!(layout.node_chunks(1), &[] as &[usize]);
        assert!(layout.chunks().iter().all(|c| c.node == 0));
        let sim = layout.simulate_node(1, 3, SchedulingPolicy::WorkStealing, |_| 1);
        assert_eq!(sim.total_work, 0);
    }

    /// Seeded-loop property test: over random graphs, random edge batches and
    /// several topologies, patching the dirty-endpoint nodes must reproduce the
    /// from-scratch layout exactly, while scanning only the touched nodes.
    #[test]
    fn patched_layout_equals_from_scratch_on_random_batches() {
        for seed in 0..6u64 {
            let g = generators::rmat(900, 6300, 0.57, 0.19, 0.19, seed + 600);
            let nodes = 2 + (seed as usize % 3);
            let mut rng = slfe_graph::rng::SplitMix64::seed_from_u64(seed * 31 + 7);
            let mut batch = UpdateBatch::new();
            let n = g.num_vertices() as u32;
            for _ in 0..1 + (seed as usize % 20) {
                let src = rng.range_u32(0, n);
                if rng.next_f64() < 0.7 {
                    // Occasionally grow the id space.
                    let hi = if rng.next_f64() < 0.2 { n + 5 } else { n };
                    batch.insert(src, rng.range_u32(0, hi), 1.0);
                } else if let Some(&dst) = g.out_neighbors(src).first() {
                    batch.delete(src, dst);
                }
            }
            let (mutated, effect) = g.apply_batch(&batch);

            // A stable partitioning across the mutation: the old split, with
            // appended vertices joining the last node.
            let mut owned = owned_split(g.num_vertices(), nodes);
            let old_layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 64);
            for v in g.num_vertices()..mutated.num_vertices() {
                owned[nodes - 1].push(v as VertexId);
            }
            let mut touched = vec![false; nodes];
            if mutated.num_vertices() > g.num_vertices() {
                touched[nodes - 1] = true;
            }
            let owner = |v: VertexId| {
                owned
                    .iter()
                    .position(|o| o.binary_search(&v).is_ok())
                    .expect("every vertex owned")
            };
            for &v in &effect.dirty {
                touched[owner(v)] = true;
            }

            let refs = as_refs(&owned);
            let (patched, stats) = old_layout.patched(&mutated, &refs, 64, &touched);
            let scratch = GlobalChunkLayout::build(&mutated, &refs, 64);
            assert_eq!(patched, scratch, "seed {seed}: patched layout diverges");
            let touched_vertices: usize = owned
                .iter()
                .enumerate()
                .filter(|(k, _)| touched[*k])
                .map(|(_, o)| o.len())
                .sum();
            assert_eq!(stats.vertices_scanned, touched_vertices);
            assert_eq!(stats.nodes_rebuilt, touched.iter().filter(|&&t| t).count());
        }
    }

    /// The partitioning a serving loop keeps: chunked once, then extended
    /// with appended vertices (least-loaded node first).
    fn node_lists(parts: &Partitioning) -> Vec<&[VertexId]> {
        (0..parts.num_parts())
            .map(|node| parts.vertices_of(node))
            .collect()
    }

    /// Seeded-loop property test of the local patch: over 1–4 nodes, chunk
    /// sizes 16, 64 and 256, random batches that also append up to three
    /// vertices (which join the least-loaded nodes, so growth spreads over
    /// several nodes), and chains of patches (each patching the previous
    /// patch's result), [`GlobalChunkLayout::patched_at`] must reproduce the
    /// from-scratch layout exactly. The chunk-local re-cut, the local re-cut
    /// of a node that grew, and the whole-node fallback (a changed split
    /// budget) must all have run.
    #[test]
    fn patched_at_equals_from_scratch_on_random_batch_chains() {
        let (mut local, mut local_growth, mut whole) = (0, 0, 0);
        for seed in 0..120u64 {
            let nodes = 1 + seed as usize % 4;
            let chunk_size = [16, 64, 256][seed as usize / 4 % 3];
            let n = 600 + 5 * seed as usize;
            let mut graph = generators::rmat(n, 7 * n, 0.57, 0.19, 0.19, seed + 900);
            let mut parts = ChunkingPartitioner::default().partition(&graph, nodes);
            let mut layout = GlobalChunkLayout::build(&graph, &node_lists(&parts), chunk_size);
            for step in 0..4u64 {
                let ops = 1 + ((seed + step) % 12) as usize;
                let shape = BatchShape::Mixed { allow_growth: true };
                let mut batch = generators::random_batch(&graph, seed * 8 + step, ops, shape);
                let n = graph.num_vertices() as VertexId;
                for k in 0..((seed + step) % 4) as VertexId {
                    batch.insert(k * 7 % n, n + k, 1.0);
                }
                let (mutated, effect) = graph.apply_batch(&batch);
                let before: Vec<usize> = node_lists(&parts).iter().map(|o| o.len()).collect();
                parts.extend_to(mutated.num_vertices());
                let owned = node_lists(&parts);
                let grown = owned
                    .iter()
                    .zip(&before)
                    .filter(|(o, &b)| o.len() > b)
                    .count();
                let (patched, stats) =
                    layout.patched_at(&mutated, &owned, chunk_size, &effect.dirty);
                assert_eq!(
                    patched,
                    GlobalChunkLayout::build(&mutated, &owned, chunk_size),
                    "seed {seed}, step {step}: patched layout diverges"
                );
                assert!(stats.nodes_recut_whole <= stats.nodes_rebuilt);
                local += stats.nodes_rebuilt - stats.nodes_recut_whole;
                // A grown node is always rebuilt, so fewer whole re-cuts
                // than grown nodes means one grew and was re-cut locally.
                local_growth += usize::from(grown > stats.nodes_recut_whole);
                whole += stats.nodes_recut_whole;
                (graph, layout) = (mutated, patched);
            }
        }
        assert!(local > 0, "no node was patched locally");
        assert!(local_growth > 0, "no grown node was patched locally");
        assert!(whole > 0, "no budget change forced a whole-node re-cut");
    }

    /// Locality: a one-edge batch re-cuts a few chunks, not a node. At two
    /// graph sizes 8× apart, the median scan per patched node stays within
    /// four base chunks, and the chain of patches still equals a build.
    #[test]
    fn one_edge_patches_scan_a_few_chunks_at_any_graph_size() {
        let chunk_size = crate::DEFAULT_CHUNK_SIZE;
        for n in [12_500usize, 100_000] {
            let mut graph = generators::rmat(n, 10 * n, 0.57, 0.19, 0.19, 4242);
            let parts = ChunkingPartitioner::default().partition(&graph, 2);
            let owned = node_lists(&parts);
            let mut layout = GlobalChunkLayout::build(&graph, &owned, chunk_size);
            let mut scanned_per_node = Vec::new();
            for seed in 0..40u64 {
                let shape = BatchShape::Mixed {
                    allow_growth: false,
                };
                let batch = generators::random_batch(&graph, seed + n as u64, 1, shape);
                let (mutated, effect) = graph.apply_batch(&batch);
                let (patched, stats) =
                    layout.patched_at(&mutated, &owned, chunk_size, &effect.dirty);
                scanned_per_node.extend(stats.vertices_scanned.checked_div(stats.nodes_rebuilt));
                (graph, layout) = (mutated, patched);
            }
            assert!(scanned_per_node.len() >= 30, "too few effective batches");
            scanned_per_node.sort_unstable();
            let median = scanned_per_node[scanned_per_node.len() / 2];
            assert!(
                median <= 4 * chunk_size,
                "{n} vertices: median scan of {median} vertices per patched node"
            );
            assert_eq!(layout, GlobalChunkLayout::build(&graph, &owned, chunk_size));
        }
    }

    #[test]
    fn patching_no_touched_nodes_is_identity_and_free() {
        let g = generators::rmat(600, 4000, 0.57, 0.19, 0.19, 3);
        let owned = owned_split(g.num_vertices(), 4);
        let refs = as_refs(&owned);
        let layout = GlobalChunkLayout::build(&g, &refs, 64);
        let (same, stats) = layout.patched(&g, &refs, 64, &[false; 4]);
        assert_eq!(same, layout);
        assert_eq!(stats.nodes_rebuilt, 0);
        assert_eq!(stats.vertices_scanned, 0);
        assert_eq!(stats.chunks_reused, layout.chunks().len());
    }
}
