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
//! `==` to a from-scratch [`GlobalChunkLayout::build`]. The layout keeps each
//! node's chunks in list order next to the claim order, so a patch walks a
//! node's chunks without sorting them. Per node:
//!
//! * Old chunks are copied verbatim up to the one holding the next dirty
//!   position; the cut re-runs from that chunk's start and returns to
//!   copying at the first new cut that is also an old chunk start. This is
//!   exact because the greedy cut resets its state at every cut: clean
//!   vertices keep their estimates and in-spans, so from an old boundary the
//!   cut reproduces the old chunks. Appended vertices sit at the end of the
//!   list, so the old last chunk (which the list's end closed) counts as
//!   dirty.
//! * The cut first runs under the old split budget
//!   `2·⌈total / ⌈len / chunk_size⌉⌉`. Its re-cut runs cover exactly the old
//!   chunks they replace plus the appended vertices, so they give the node's
//!   exact new total without a scan. If that keeps the budget, the node is
//!   done.
//! * If the budget moved, an old clean chunk `[s, e)` of estimate `E` is
//!   kept when a cut from `s` under the new budget `B'` still closes at `e`:
//!   `E − est(owned[e−1]) < B'`, and `e − s` is the chunk size, `E ≥ B'` or
//!   `e` ends the list (an O(1) test per chunk, and no read at all unless
//!   the budget fell below `E`). The other chunks join the dirty ones and
//!   the cut re-runs under `B'`. A chunk whose end moves shifts the cuts
//!   after it until one lands on an old chunk start again, which in a run of
//!   light vertices can take many chunks; a build cuts the same chunks.
//! * Only a node that had no chunks is cut whole, as a build would.
//!
//! The claim order of the patched layout is the old one less the re-cut
//! chunks, copied in runs, merged with the new chunks, which alone are
//! sorted: claim keys are unique per chunk, so the merge is the order a
//! build's sort gives. One greedy cut routine serves the build, the local
//! re-cut and the whole-node cut. [`GlobalChunkLayout::patched`], which
//! re-cuts every node flagged as touched, runs through the same per-node
//! routine.

use crate::stealing::{ScheduleOutcome, SchedulingPolicy};
use slfe_graph::{Graph, VertexId};
use std::cmp::Reverse;
use std::iter::Peekable;
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
    /// Of `nodes_rebuilt`, the nodes re-cut whole: nodes that had no chunks
    /// before (they received their first vertices), and the nodes
    /// [`GlobalChunkLayout::patched`] flags.
    pub nodes_recut_whole: usize,
    /// Of `nodes_rebuilt`, the nodes whose split budget moved. Each was
    /// still patched locally: only the chunks whose cut the new budget moves
    /// were re-cut.
    pub budget_moves: usize,
    /// Owned-vertex estimates the patch read: every vertex a cut passed
    /// over (the re-cut under a node's old budget, the re-cut under its new
    /// one when the budget moved, and a whole-node cut, which passes over
    /// the whole node), plus one chunk end per clean old chunk above a
    /// node's lowered budget. The patch's work bound, compared to
    /// `|V| + |E|` for a from-scratch build.
    pub vertices_scanned: usize,
    /// Chunks copied verbatim from the previous layout.
    pub chunks_reused: usize,
}

/// The degree-aware, cluster-wide chunk layout of one graph version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalChunkLayout {
    /// All chunks in claim order (see [`claim_key`]).
    chunks: Vec<WorkChunk>,
    /// Per node: indices into `chunks`, in claim order.
    per_node: Vec<Vec<usize>>,
    /// Per node: its chunks in list order (ascending start), the order a
    /// patch walks them in.
    listed: Vec<Vec<WorkChunk>>,
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

/// The claim order's key: descending estimate, so stealing claims the heavy
/// tail first, ties by (node, start). The key is unique per chunk, so the
/// order (and therefore the whole layout) is deterministic.
fn claim_key(chunk: &WorkChunk) -> (Reverse<u64>, usize, usize) {
    (Reverse(chunk.estimate), chunk.node, chunk.start)
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
        // Lists are sorted by external id, which is the physical id on an
        // unremapped graph: there a list's ends are its extremes.
        let sorted = !self.graph.is_remapped();
        for (idx, &v) in owned.iter().enumerate().skip(from) {
            // `estimate(v)`, with the in-degree read off the list the
            // in-span needs anyway.
            let in_neighbors = self.graph.in_neighbors(v);
            acc += 1 + in_neighbors.len() as u64 + self.graph.out_degree(v) as u64;
            let extremes = if sorted {
                in_neighbors.first().zip(in_neighbors.last())
            } else {
                in_neighbors.iter().min().zip(in_neighbors.iter().max())
            };
            if let Some((&lo, &hi)) = extremes {
                in_start = in_start.min(lo);
                in_end = in_end.max(hi + 1);
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

    /// Re-cut `old`, this node's chunks in list order, under `budget`: copy
    /// the chunks up to each of `dirty` (ascending indices into `old`), cut
    /// from its start, and resume copying at the first new cut that lands
    /// on an old chunk start.
    fn recut(
        &self,
        old: &[WorkChunk],
        dirty: &[usize],
        budget: u64,
        stats: &mut LayoutPatchStats,
    ) -> NodePatch {
        let mut chunks = Vec::with_capacity(old.len() + 1);
        let mut runs = Vec::new();
        let mut next = 0;
        for &d in dirty {
            if d < next {
                continue;
            }
            chunks.extend_from_slice(&old[next..d]);
            let (from, first) = (old[d].start, chunks.len());
            next = d + 1;
            let end = self.cut(budget, from, &mut chunks, |cut| {
                while next < old.len() && old[next].start < cut {
                    next += 1;
                }
                next < old.len() && old[next].start == cut
            });
            stats.vertices_scanned += end - from;
            runs.push((d..next, first..chunks.len()));
        }
        chunks.extend_from_slice(&old[next..]);
        NodePatch { chunks, runs }
    }

    /// Whether a cut from `chunk.start` under `budget` still closes exactly
    /// at `chunk.end`, for an old chunk cut under `old_budget` none of whose
    /// vertices changed. The last vertex must close it: the chunk is full,
    /// reaches the budget or ends the list. No earlier vertex may: the chunk
    /// less its last vertex must stay under the budget. The old cut
    /// guarantees that under `old_budget`, and estimates are positive, so
    /// only a chunk above a lowered budget reads its last vertex's estimate.
    fn still_closes(
        &self,
        chunk: &WorkChunk,
        budget: u64,
        old_budget: u64,
        stats: &mut LayoutPatchStats,
    ) -> bool {
        let closes_at_last = chunk.len() == self.chunk_size
            || chunk.estimate >= budget
            || chunk.end == self.owned.len();
        closes_at_last
            && (budget >= old_budget || chunk.estimate <= budget || {
                stats.vertices_scanned += 1;
                chunk.estimate - estimate(self.graph, self.owned[chunk.end - 1]) < budget
            })
    }
}

/// One node's chunk list re-cut around some of its old chunks.
struct NodePatch {
    /// The new chunk list, in list order.
    chunks: Vec<WorkChunk>,
    /// Per re-cut run: the old chunks it replaced and the new chunks it cut,
    /// as index ranges into the old and the new list.
    runs: Vec<(Range<usize>, Range<usize>)>,
}

/// What a patch changes in the claim order: the old chunks it drops, by
/// claim index, and the chunks it cut in their place.
#[derive(Default)]
struct ClaimChanges {
    dropped: Vec<usize>,
    fresh: Vec<WorkChunk>,
}

impl ClaimChanges {
    /// Record that `fresh` replaces `dropped`, old chunks of `layout`.
    fn replace(&mut self, layout: &GlobalChunkLayout, dropped: &[WorkChunk], fresh: &[WorkChunk]) {
        self.dropped.extend(dropped.iter().map(|chunk| {
            let key = claim_key(chunk);
            layout.chunks.partition_point(|c| claim_key(c) < key)
        }));
        self.fresh.extend_from_slice(fresh);
    }
}

/// Append the kept chunks of `old[*from..to]` to `out`, a run between two
/// dropped chunks at a time, and move `from` to `to`.
fn copy_kept(
    old: &[WorkChunk],
    dropped: &mut Peekable<impl Iterator<Item = usize>>,
    from: &mut usize,
    to: usize,
    out: &mut Vec<WorkChunk>,
) {
    while let Some(d) = dropped.next_if(|&d| d < to) {
        out.extend_from_slice(&old[*from..d]);
        *from = d + 1;
    }
    out.extend_from_slice(&old[*from..to]);
    *from = to;
}

impl GlobalChunkLayout {
    /// Build the layout for `owned_per_node[node]` (each node's owned vertices,
    /// as [`crate::Cluster::vertices_of`] provides them) over `graph`, with
    /// `chunk_size` as the base mini-chunk granularity.
    pub fn build(graph: &Graph, owned_per_node: &[&[VertexId]], chunk_size: usize) -> Self {
        assert!(chunk_size >= 1, "chunk size must be positive");
        let listed: Vec<Vec<WorkChunk>> = owned_per_node
            .iter()
            .enumerate()
            .map(|(node, owned)| {
                let list = NodeList {
                    graph,
                    node,
                    owned,
                    chunk_size,
                };
                let mut chunks = Vec::new();
                list.cut_whole(list.estimate(0..owned.len()), &mut chunks);
                chunks
            })
            .collect();
        let mut chunks = listed.concat();
        chunks.sort_unstable_by_key(claim_key);
        Self::indexed(chunks, listed)
    }

    /// The layout holding `chunks` in claim order and `listed` per node, with
    /// the per-node claim-order indices derived from `chunks`.
    fn indexed(chunks: Vec<WorkChunk>, listed: Vec<Vec<WorkChunk>>) -> Self {
        let mut per_node: Vec<Vec<usize>> =
            listed.iter().map(|l| Vec::with_capacity(l.len())).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            per_node[chunk.node].push(i);
        }
        Self {
            chunks,
            per_node,
            listed,
        }
    }

    /// Re-derive this layout after an edge batch whose changed vertices are
    /// `dirty` (ascending, as [`slfe_graph::BatchEffect::dirty`] lists them):
    /// each node re-cuts only the chunks around its dirty positions and, when
    /// its split budget moved, the chunks whose cut the new budget moves, and
    /// copies the rest verbatim (see the [module docs](self)). The claim
    /// order is the old one less the re-cut chunks, copied in runs, merged
    /// with the new chunks, which alone are sorted:
    /// `O(re-cut vertices + re-cut chunks · log C + |dirty| log V)` plus one
    /// copying pass over the `C` chunks (and an O(1) test of each chunk of a
    /// node whose budget moved), instead of `O(V + E)`.
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
    /// verbatim, and the claim order is merged as in
    /// [`GlobalChunkLayout::patched_at`] —
    /// `O(Σ touched |owned| + touched edges)` plus sorting the touched nodes'
    /// new chunks and one copying pass over the `C` chunks, instead of
    /// `O(V + E)`.
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
    /// [`GlobalChunkLayout::patch_node`]), then merge the re-cut chunks into
    /// the claim order.
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
        let mut changes = ClaimChanges::default();
        let listed = owned_per_node
            .iter()
            .enumerate()
            .map(|(node, owned)| {
                let list = NodeList {
                    graph,
                    node,
                    owned,
                    chunk_size,
                };
                let dirty = dirty_per_node[node].as_deref();
                self.patch_node(&list, dirty, &mut stats, &mut changes)
            })
            .collect();
        (Self::indexed(self.merged(changes), listed), stats)
    }

    /// `list`'s chunks over the new graph, in list order. `dirty` holds the
    /// ascending positions whose vertices changed (positions past the old
    /// list are appended vertices); `None` re-cuts the node whole. The old
    /// chunks it drops and the chunks it cuts in their place go to `changes`.
    fn patch_node(
        &self,
        list: &NodeList<'_>,
        dirty: Option<&[usize]>,
        stats: &mut LayoutPatchStats,
        changes: &mut ClaimChanges,
    ) -> Vec<WorkChunk> {
        let len = list.owned.len();
        let old = &self.listed[list.node];
        let old_len = old.last().map_or(0, |c| c.end);
        if dirty.is_some_and(|d| d.is_empty()) && len == old_len {
            stats.chunks_reused += old.len();
            return old.clone();
        }
        stats.nodes_rebuilt += 1;
        let Some(dirty) = dirty.filter(|_| !old.is_empty()) else {
            stats.nodes_recut_whole += 1;
            stats.vertices_scanned += len;
            let mut chunks = Vec::new();
            list.cut_whole(list.estimate(0..len), &mut chunks);
            changes.replace(self, old, &chunks);
            return chunks;
        };

        // The old chunks holding a dirty position. Appended vertices dirty
        // the old last chunk, which the list's end closed.
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

        // Re-cut under the old budget first. The re-cut runs cover exactly
        // the old chunks they replace plus the appended vertices, so they
        // give the node's exact new total; if that keeps the budget, done.
        let old_total: u64 = old.iter().map(|c| c.estimate).sum();
        let old_budget = node_budget(old_total, old_len, list.chunk_size);
        let mut patch = list.recut(old, &dirty_chunks, old_budget, stats);
        let total = patch.runs.iter().fold(old_total, |total, (was, now)| {
            let sum = |chunks: &[WorkChunk]| chunks.iter().map(|c| c.estimate).sum::<u64>();
            total + sum(&patch.chunks[now.clone()]) - sum(&old[was.clone()])
        });

        // A moved budget moves only some cuts: a clean chunk that the cut
        // from its start still closes at its end is kept, the others are
        // re-cut too.
        let budget = node_budget(total, len, list.chunk_size);
        if budget != old_budget {
            stats.budget_moves += 1;
            let mut marked = dirty_chunks.into_iter().peekable();
            let moved: Vec<usize> = (0..old.len())
                .filter(|&i| {
                    marked.next_if_eq(&i).is_some()
                        || !list.still_closes(&old[i], budget, old_budget, stats)
                })
                .collect();
            patch = list.recut(old, &moved, budget, stats);
        }
        stats.chunks_reused += old.len();
        for (was, now) in &patch.runs {
            stats.chunks_reused -= was.len();
            changes.replace(self, &old[was.clone()], &patch.chunks[now.clone()]);
        }
        patch.chunks
    }

    /// The claim order with `changes`' dropped chunks taken out and its
    /// fresh chunks merged in. Only the fresh chunks are sorted; the kept
    /// ones are copied in runs, each fresh chunk landing at its rank among
    /// the old ones (claim keys are unique, so this is the sorted order a
    /// build gives).
    fn merged(&self, changes: ClaimChanges) -> Vec<WorkChunk> {
        let ClaimChanges {
            mut dropped,
            mut fresh,
        } = changes;
        dropped.sort_unstable();
        fresh.sort_unstable_by_key(claim_key);
        let old = &self.chunks;
        let mut out = Vec::with_capacity(old.len() - dropped.len() + fresh.len());
        let mut dropped = dropped.into_iter().peekable();
        let mut from = 0;
        for chunk in fresh {
            let key = claim_key(&chunk);
            let rank = from + old[from..].partition_point(|c| claim_key(c) < key);
            copy_kept(old, &mut dropped, &mut from, rank, &mut out);
            out.push(chunk);
        }
        copy_kept(old, &mut dropped, &mut from, old.len(), &mut out);
        out
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

    /// The spans are exact: on an unremapped graph, whose lists are sorted
    /// by physical id, read off the lists' ends, and on a remapped one, whose
    /// lists are not, scanned.
    #[test]
    fn spans_cover_own_vertices_and_in_neighbors() {
        let g = generators::rmat(1200, 9000, 0.57, 0.19, 0.19, 51);
        let n = g.num_vertices() as VertexId;
        let reversed = g.remapped(&slfe_graph::IdRemap::from_forward((0..n).rev().collect()));
        assert!(reversed.is_remapped());
        for g in [g, reversed] {
            let owned = owned_split(g.num_vertices(), 3);
            let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 64);
            for chunk in layout.chunks() {
                let vertices = &owned[chunk.node][chunk.start..chunk.end];
                assert_eq!(
                    (chunk.span_start, chunk.span_end),
                    (vertices[0], vertices[vertices.len() - 1] + 1)
                );
                let in_neighbors = vertices.iter().flat_map(|&v| g.in_neighbors(v));
                let in_span = in_neighbors
                    .clone()
                    .min()
                    .zip(in_neighbors.max())
                    .map_or((0, 0), |(&lo, &hi)| (lo, hi + 1));
                assert_eq!((chunk.in_start, chunk.in_end), in_span, "{chunk:?}");
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
    /// from-scratch layout exactly, without re-cutting any node whole. The
    /// chunk-local re-cut, the local re-cut of a node that grew, and the
    /// local patch of a node whose split budget moved must all have run.
    #[test]
    fn patched_at_equals_from_scratch_on_random_batch_chains() {
        let (mut local, mut local_growth, mut moves) = (0, 0, 0);
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
                assert_eq!(stats.nodes_recut_whole, 0, "every node had chunks");
                local += stats.nodes_rebuilt - stats.nodes_recut_whole;
                // A grown node is always rebuilt, so fewer whole re-cuts
                // than grown nodes means one grew and was re-cut locally.
                local_growth += usize::from(grown > stats.nodes_recut_whole);
                moves += stats.budget_moves;
                (graph, layout) = (mutated, patched);
            }
        }
        assert!(local > 0, "no node was patched locally");
        assert!(local_growth > 0, "no grown node was patched locally");
        assert!(moves > 0, "no budget move was patched locally");
    }

    /// Vertices in the chunks of `new` that `old` does not hold: what any
    /// patch that equals a build has to read.
    fn recut_vertices(old: &GlobalChunkLayout, new: &GlobalChunkLayout) -> usize {
        let kept = |was: &[WorkChunk], chunk: &WorkChunk| {
            was.binary_search_by_key(&chunk.start, |c| c.start)
                .is_ok_and(|i| was[i] == *chunk)
        };
        new.listed
            .iter()
            .zip(&old.listed)
            .flat_map(|(now, was)| now.iter().filter(move |c| !kept(was, c)))
            .map(WorkChunk::len)
            .sum()
    }

    /// Locality: a one-edge batch re-cuts a few chunks, not a node, also when
    /// it moves a node's split budget. At two graph sizes 8× apart, a chain
    /// of one-edge patches runs until a budget has moved. No patch re-cuts a
    /// node whole. Every patch reads at most eight base chunks per patched
    /// node beyond the chunks that changed (the one read per chunk end of a
    /// node whose budget moved included): a chunk end that moves shifts the
    /// cuts after it until one lands on an old chunk start again, a build
    /// cuts those chunks as well, and in R-MAT's light tail that can be
    /// thousands of vertices. The median patch reads at most four base
    /// chunks per patched node, and the chain still equals a build.
    #[test]
    fn one_edge_patches_scan_a_few_chunks_at_any_graph_size() {
        let chunk_size = crate::DEFAULT_CHUNK_SIZE;
        for n in [12_500usize, 100_000] {
            let mut graph = generators::rmat(n, 10 * n, 0.57, 0.19, 0.19, 4242);
            let parts = ChunkingPartitioner::default().partition(&graph, 2);
            let owned = node_lists(&parts);
            let mut layout = GlobalChunkLayout::build(&graph, &owned, chunk_size);
            let (mut scanned_per_node, mut moves) = (Vec::new(), 0);
            for seed in (n as u64..).take(2_000) {
                if scanned_per_node.len() >= 40 && moves > 0 {
                    break;
                }
                let shape = BatchShape::Mixed {
                    allow_growth: false,
                };
                let batch = generators::random_batch(&graph, seed, 1, shape);
                let (mutated, effect) = graph.apply_batch(&batch);
                let (patched, stats) =
                    layout.patched_at(&mutated, &owned, chunk_size, &effect.dirty);
                assert_eq!(stats.nodes_recut_whole, 0, "{n} vertices, batch {seed}");
                let recut = recut_vertices(&layout, &patched);
                assert!(
                    stats.vertices_scanned <= recut + 8 * chunk_size * stats.nodes_rebuilt,
                    "{n} vertices, batch {seed}: {recut} vertices re-cut, {stats:?}"
                );
                scanned_per_node.extend(stats.vertices_scanned.checked_div(stats.nodes_rebuilt));
                moves += stats.budget_moves;
                (graph, layout) = (mutated, patched);
            }
            assert!(
                scanned_per_node.len() >= 40,
                "{n} vertices: too few effective batches"
            );
            assert!(moves > 0, "{n} vertices: no split budget moved");
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
