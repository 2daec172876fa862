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

use slfe_graph::{Bitset, Graph, VertexId};
use std::collections::VecDeque;

/// Marker level of a vertex the guidance BFS never reached.
pub const UNREACHED: u32 = u32::MAX;

/// Dirty fraction past which [`RrGuidance::repair`] regenerates instead of
/// patching: once a quarter of the graph is affected, the repair pass's boundary
/// gathers cost about as much as the straight-line regeneration BFS.
const REPAIR_FALLBACK_FRACTION: f64 = 0.25;

/// How a guidance-repair request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairReport {
    /// `true` when the repair fell back to full regeneration (more than a quarter
    /// of the graph affected, fallback-root graphs, or a root set that vanished).
    pub regenerated: bool,
    /// Vertices whose guidance was recomputed.
    pub affected_vertices: usize,
    /// Counted work (edges traversed) of the repair or regeneration pass.
    pub work: u64,
}

/// Per-vertex redundancy-reduction guidance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrGuidance {
    last_iter: Vec<u32>,
    /// First-reach BFS level of every vertex ([`UNREACHED`] if never visited).
    /// `last_iter` is derivable from these levels (`max` over visited in-neighbors
    /// of `level + 1`), which is what makes incremental repair possible.
    level: Vec<u32>,
    max_level: u32,
    work: u64,
    /// `true` when the graph had no in-degree-0 vertex and the BFS seeded from the
    /// highest-out-degree hub instead. Repair always regenerates in that case: the
    /// fallback root is a global property a local patch cannot preserve.
    used_fallback_root: bool,
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
        let mut level = vec![UNREACHED; n];
        let mut visited = vec![false; n];
        let mut work: u64 = 0;

        let mut frontier: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| graph.in_degree(v) == 0)
            .collect();
        let used_fallback_root = frontier.is_empty() && n > 0;
        if used_fallback_root {
            frontier.extend(slfe_graph::stats::highest_out_degree_vertex(graph));
        }
        for &root in &frontier {
            visited[root as usize] = true;
            level[root as usize] = 0;
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
                        level[dst as usize] = iter;
                        next.push(dst);
                    }
                }
            }
            frontier = next;
            iter += 1;
        }

        Self {
            last_iter,
            level,
            max_level,
            work,
            used_fallback_root,
        }
    }

    /// Incrementally patch the guidance after an edge-update batch.
    ///
    /// `graph` is the **mutated** graph and `dirty` the endpoints of every changed
    /// edge (ascending, as [`slfe_graph::BatchEffect::dirty`] provides them). The
    /// result is equal — level for level, `last_iter` for `last_iter` — to
    /// regenerating from scratch on the mutated graph
    /// ([`RrGuidance::guidance_eq`]), the property the test suite proves. When
    /// more than a quarter of the vertices actually move, the pass aborts and
    /// falls back to [`RrGuidance::generate`].
    ///
    /// Why repair works: `level` is the unit-weight BFS distance from the root
    /// set (in-degree-0 vertices) and `last_iter(v)` is `max(level(u) + 1)` over
    /// `v`'s visited in-neighbors — so patching the levels patches everything.
    /// Levels are repaired with the classic two-phase dynamic-SSSP scheme
    /// (Ramalingam–Reps, specialised to unit weights):
    ///
    /// 1. **Invalidation.** A vertex's level is *supported* if it is a root at
    ///    level 0 or has an in-neighbor one level up. Deletions (and lost root
    ///    status) can only break support at the dirty endpoints, so those are
    ///    rechecked; each vertex that lost support is reset to unreached and the
    ///    check cascades along its out-neighbors that used it as support —
    ///    exactly the region whose level may grow.
    /// 2. **Re-relaxation.** A unit-weight Dijkstra (bucket queue) re-derives
    ///    the invalidated region from its intact in-boundary and propagates any
    ///    *improvements* (insertions, new roots) seeded at the dirty endpoints.
    ///    Untouched vertices act as settled sources; a relaxation stops the
    ///    moment it fails to beat an existing level, so the pass touches only
    ///    the vertices whose level genuinely changes (plus their frontier).
    ///
    /// `last_iter` is then re-gathered for the dirty endpoints and the
    /// out-neighbors of every level-changed vertex — the only places it can
    /// move. The result equals regeneration level-for-level (the property the
    /// test suite proves), at a cost proportional to the disturbed region
    /// instead of `O(|E|)`.
    pub fn repair(&self, graph: &Graph, dirty: &[VertexId]) -> (Self, RepairReport) {
        let n = graph.num_vertices();
        let old_n = self.last_iter.len();
        let regenerate = |extra_work: u64| {
            let fresh = Self::generate(graph);
            let work = fresh.work + extra_work;
            (
                fresh,
                RepairReport {
                    regenerated: true,
                    affected_vertices: n,
                    work,
                },
            )
        };
        // A hub-seeded guidance (no natural roots) depends on a global argmax the
        // patch cannot maintain; same if the mutation created or destroyed the
        // *entire* root set. Regenerate in those cases.
        if self.used_fallback_root || n == 0 || old_n == 0 {
            return regenerate(0);
        }
        if !graph.vertices().any(|v| graph.in_degree(v) == 0) {
            return regenerate(0);
        }
        let touched_limit = ((REPAIR_FALLBACK_FRACTION * n as f64) as usize).max(16);
        // Competitive guard: regeneration costs ~|E| traversals, so a repair
        // that has already spent that much is losing — abort and regenerate.
        let work_limit = (graph.num_edges() as u64).max(64);
        let mut work: u64 = 0;

        let mut level: Vec<u32> = (0..n)
            .map(|v| if v < old_n { self.level[v] } else { UNREACHED })
            .collect();
        let seeds = || {
            dirty
                .iter()
                .copied()
                .chain((old_n as VertexId)..(n as VertexId))
        };

        // Phase 1: cascade support loss from the dirty endpoints. `invalid`
        // vertices pend re-derivation in phase 2.
        let mut invalid = Bitset::new(n);
        let mut queue: VecDeque<VertexId> = seeds().collect();
        let mut invalid_count = 0usize;
        while let Some(v) = queue.pop_front() {
            let vi = v as usize;
            if invalid.get(vi) || level[vi] == UNREACHED {
                continue;
            }
            if graph.in_degree(v) == 0 {
                continue; // a root's level 0 is intrinsically supported
            }
            let old = level[vi];
            let mut supported = false;
            for &u in graph.in_neighbors(v) {
                work += 1;
                if !invalid.get(u as usize) && level[u as usize] != UNREACHED {
                    // Note `level[u] + 1 < old` is impossible while `u` is
                    // valid: improvements are handled in phase 2, and phase 1
                    // only ever *removes* support.
                    if level[u as usize] + 1 == old {
                        supported = true;
                        break;
                    }
                }
            }
            if supported {
                continue;
            }
            invalid.set(vi);
            invalid_count += 1;
            if invalid_count > touched_limit || work > work_limit {
                return regenerate(work);
            }
            level[vi] = UNREACHED;
            for &y in graph.out_neighbors(v) {
                work += 1;
                // Only out-neighbors whose level this vertex supported.
                if !invalid.get(y as usize) && level[y as usize] == old + 1 {
                    queue.push_back(y);
                }
            }
        }

        // Phase 2: unit-weight Dijkstra over the disturbed region. Seeds: the
        // invalidated vertices (re-derived from their intact in-boundary), the
        // dirty endpoints (where an inserted edge or fresh root status may
        // *improve* a level), and everything the batch appended.
        let mut buckets: Vec<Vec<VertexId>> = Vec::new();
        let push = |buckets: &mut Vec<Vec<VertexId>>, lvl: u32, v: VertexId| {
            let lvl = lvl as usize;
            if buckets.len() <= lvl {
                buckets.resize_with(lvl + 1, Vec::new);
            }
            buckets[lvl].push(v);
        };
        let mut changed: Vec<VertexId> = Vec::new();
        {
            let mut seed_candidate =
                |v: VertexId, level: &mut [u32], buckets: &mut Vec<Vec<VertexId>>| {
                    let mut candidate = UNREACHED;
                    if graph.in_degree(v) == 0 {
                        candidate = 0;
                    } else {
                        for &u in graph.in_neighbors(v) {
                            work += 1;
                            if !invalid.get(u as usize) && level[u as usize] != UNREACHED {
                                candidate = candidate.min(level[u as usize] + 1);
                            }
                        }
                    }
                    if candidate < level[v as usize] {
                        level[v as usize] = candidate;
                        push(buckets, candidate, v);
                    }
                };
            for v in invalid.iter_ones() {
                seed_candidate(v as VertexId, &mut level, &mut buckets);
            }
            for v in seeds() {
                if !invalid.get(v as usize) {
                    seed_candidate(v, &mut level, &mut buckets);
                }
            }
        }
        let mut settled = Bitset::new(n);
        let mut settled_count = 0usize;
        let mut lvl = 0usize;
        while lvl < buckets.len() {
            while let Some(v) = buckets[lvl].pop() {
                let vi = v as usize;
                if settled.get(vi) || level[vi] != lvl as u32 {
                    continue; // stale entry, superseded by a shorter reach
                }
                settled.set(vi);
                settled_count += 1;
                if settled_count > touched_limit || work > work_limit {
                    return regenerate(work);
                }
                let old = if vi < old_n {
                    self.level[vi]
                } else {
                    UNREACHED
                };
                if level[vi] != old {
                    changed.push(v);
                }
                for &y in graph.out_neighbors(v) {
                    work += 1;
                    let yi = y as usize;
                    if !settled.get(yi) && level[yi] > lvl as u32 + 1 {
                        level[yi] = lvl as u32 + 1;
                        push(&mut buckets, lvl as u32 + 1, y);
                    }
                }
            }
            lvl += 1;
        }
        // Invalidated vertices the Dijkstra never re-reached are unreachable
        // now; their level change must still propagate to `last_iter` below.
        for v in invalid.iter_ones() {
            if level[v] == UNREACHED && (v >= old_n || self.level[v] != UNREACHED) {
                changed.push(v as VertexId);
            }
        }

        // `last_iter` moves only where an in-edge changed (the dirty endpoints —
        // regathered in full, since the repair does not know which individual
        // edges moved) or where an in-neighbor's level moved. The latter is
        // maintained incrementally: a *raised* in-level can only push the max up
        // (no gather needed), while a *dropped* in-level forces a regather only
        // if the old level attained the max — it may have been the sole support.
        let mut last_iter: Vec<u32> = (0..n)
            .map(|v| if v < old_n { self.last_iter[v] } else { 0 })
            .collect();
        let mut regather = Bitset::new(n);
        let mut targets: Vec<VertexId> = Vec::new();
        for v in seeds() {
            if regather.insert(v as usize) {
                targets.push(v);
            }
        }
        let mut raises: Vec<(VertexId, u32)> = Vec::new();
        for &v in &changed {
            let vi = v as usize;
            let old = if vi < old_n {
                self.level[vi]
            } else {
                UNREACHED
            };
            let new = level[vi];
            for &y in graph.out_neighbors(v) {
                work += 1;
                let yi = y as usize;
                if regather.get(yi) {
                    continue;
                }
                if old != UNREACHED && old + 1 == last_iter[yi] && (new == UNREACHED || new < old) {
                    // The dropped level attained y's max: it may have been the
                    // only in-neighbor doing so.
                    regather.set(yi);
                    targets.push(y);
                } else if new != UNREACHED && new + 1 > last_iter[yi] {
                    raises.push((y, new + 1));
                }
            }
        }
        let mut max_dropped = false;
        let mut touched_max = 0u32;
        for &v in &targets {
            let mut last = 0u32;
            for &u in graph.in_neighbors(v) {
                work += 1;
                let lu = level[u as usize];
                if lu != UNREACHED {
                    last = last.max(lu + 1);
                }
            }
            let vi = v as usize;
            if last_iter[vi] == self.max_level && last < last_iter[vi] {
                max_dropped = true;
            }
            last_iter[vi] = last;
            touched_max = touched_max.max(last);
        }
        for &(y, candidate) in &raises {
            let yi = y as usize;
            if !regather.get(yi) {
                last_iter[yi] = last_iter[yi].max(candidate);
                touched_max = touched_max.max(last_iter[yi]);
            }
        }
        // The global maximum can only drop if a vertex that attained it was
        // recomputed downward; only then is a full rescan needed.
        let max_level = if max_dropped {
            last_iter.iter().copied().max().unwrap_or(0)
        } else {
            self.max_level.max(touched_max)
        };

        let affected_vertices = invalid_count.max(settled_count).max(changed.len());
        let repaired = Self {
            last_iter,
            level,
            max_level,
            // The repaired guidance carries the *repair* cost as its generation
            // work — the honest preprocessing charge for a warm engine build.
            work,
            used_fallback_root: false,
        };
        let report = RepairReport {
            regenerated: false,
            affected_vertices,
            work,
        };
        (repaired, report)
    }

    /// `true` when two guidances schedule identically: same per-vertex levels and
    /// `last_iter`s. Ignores the counted generation work, which legitimately
    /// differs between a from-scratch pass and a repair.
    pub fn guidance_eq(&self, other: &Self) -> bool {
        self.last_iter == other.last_iter
            && self.level == other.level
            && self.max_level == other.max_level
    }

    /// The first-reach BFS level of every vertex ([`UNREACHED`] = never visited).
    pub fn levels(&self) -> &[u32] {
        &self.level
    }

    /// The last propagation level of vertex `v` (0 for roots and unreached
    /// vertices, meaning "never skip").
    pub fn last_iter(&self, v: VertexId) -> u32 {
        self.last_iter[v as usize]
    }

    /// The full per-vertex guidance array.
    pub fn last_iters(&self) -> &[u32] {
        &self.last_iter
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

    /// Histogram of `last_iter` values, used by the harness to show how much
    /// "start late" head-room a graph offers.
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_level as usize + 1];
        for &l in &self.last_iter {
            hist[l as usize] += 1;
        }
        hist
    }

    /// `true` when the generation BFS seeded from the highest-out-degree hub
    /// because the graph had no in-degree-0 root. Persisted by snapshots:
    /// repair must keep regenerating after a restore exactly as it did before.
    pub fn used_fallback_root(&self) -> bool {
        self.used_fallback_root
    }

    /// Reassemble a guidance from its stored parts — the snapshot-restore
    /// path. The arrays must come from (or be shaped like) a real guidance:
    /// `last_iter` and `level` parallel, `max_level` their actual maximum.
    pub fn from_parts(
        last_iter: Vec<u32>,
        level: Vec<u32>,
        max_level: u32,
        work: u64,
        used_fallback_root: bool,
    ) -> Self {
        assert_eq!(last_iter.len(), level.len());
        Self {
            last_iter,
            level,
            max_level,
            work,
            used_fallback_root,
        }
    }

    /// Pad the guidance to cover `n >= num_vertices()` vertices without
    /// recomputing anything: appended vertices get `level = UNREACHED` and
    /// `last_iter = 0` ("never skip" — always safe). This is the lazy-
    /// maintenance stopgap that lets warm engine runs proceed against a grown
    /// graph with *stale* guidance; the appended ids must be in the dirty set
    /// of the next [`RrGuidance::repair`] so a later sync reproduces exactly
    /// what regeneration would (repair's seeding then discovers any appended
    /// in-degree-0 vertex as a level-0 root).
    pub fn extended_to(&self, n: usize) -> Self {
        assert!(n >= self.num_vertices(), "the id space only grows");
        let mut padded = self.clone();
        padded.last_iter.resize(n, 0);
        padded.level.resize(n, UNREACHED);
        padded
    }

    /// Carry the guidance across a physical id remap: per-vertex arrays are
    /// permuted by `step` (old-physical → new-physical), the scalar summary
    /// (`max_level`, `work`, `used_fallback_root`) is unchanged. Sound because
    /// generation and repair are permutation-equivariant — BFS levels and
    /// `last_iter` depend only on the graph's structure, never on the id order
    /// — so `generate(g.remapped(step))` equals
    /// `generate(g).permuted(step)` guidance-for-guidance.
    pub fn permuted(&self, step: &slfe_graph::IdRemap) -> Self {
        Self {
            last_iter: step.permuted_values(&self.last_iter),
            level: step.permuted_values(&self.level),
            max_level: self.max_level,
            work: self.work,
            used_fallback_root: self.used_fallback_root,
        }
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
        assert_eq!(rrg.last_iters(), &[0, 1, 2, 3, 4, 5]);
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
        assert_eq!(rrg.level_histogram(), vec![1, 20]);
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
    fn levels_record_first_reach_and_unreached_marker() {
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_unweighted([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (4, 5), (5, 4)]);
        let g = b.build();
        let rrg = RrGuidance::generate(&g);
        assert_eq!(&rrg.levels()[..4], &[0, 1, 1, 1]); // 3 first reached via 0 -> 3
        assert_eq!(rrg.levels()[4], UNREACHED);
        assert_eq!(rrg.levels()[5], UNREACHED);
        assert_eq!(rrg.last_iter(3), 2); // but it can still hear from level-1 vertices
    }

    use slfe_graph::UpdateBatch;

    /// Apply `batch`, repair the old guidance, and check it equals regeneration.
    fn check_repair(graph: &slfe_graph::Graph, batch: &UpdateBatch) -> RepairReport {
        let old = RrGuidance::generate(graph);
        let (mutated, effect) = graph.apply_batch(batch);
        let (repaired, report) = old.repair(&mutated, &effect.dirty);
        let fresh = RrGuidance::generate(&mutated);
        assert!(
            repaired.guidance_eq(&fresh),
            "repaired guidance diverges from regeneration (regenerated={})",
            report.regenerated
        );
        report
    }

    #[test]
    fn repair_matches_regeneration_on_single_edits() {
        let g = generators::layered(8, 40, 4, 3);
        // Insert a shortcut across layers, delete a spine edge, append a vertex.
        let mut insert = UpdateBatch::new();
        insert.insert(0, 7 * 40, 1.0);
        check_repair(&g, &insert);

        let mut delete = UpdateBatch::new();
        delete.delete(0, 40);
        check_repair(&g, &delete);

        let mut append = UpdateBatch::new();
        append.insert(3, g.num_vertices() as u32 + 2, 1.0);
        check_repair(&g, &append);
    }

    #[test]
    fn repair_matches_regeneration_on_random_batches() {
        for seed in 0..8u64 {
            let g = generators::rmat(400, 2600, 0.57, 0.19, 0.19, seed + 50);
            let mut rng = slfe_graph::rng::SplitMix64::seed_from_u64(seed);
            let mut batch = UpdateBatch::new();
            for _ in 0..25 {
                let src = rng.range_u32(0, g.num_vertices() as u32);
                let dst = rng.range_u32(0, g.num_vertices() as u32 + 4);
                if rng.next_f64() < 0.6 {
                    batch.insert(src, dst, rng.range_f32(1.0, 10.0));
                } else if let Some(&t) = g.out_neighbors(src).first() {
                    batch.delete(src, t);
                }
            }
            check_repair(&g, &batch);
        }
    }

    #[test]
    fn repair_handles_root_status_flips() {
        // 0 -> 1 -> 2: inserting 3 -> 0 demotes root 0; deleting 0 -> 1 promotes 1.
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_unweighted([(0, 1), (1, 2)]);
        let g = b.build();
        let mut batch = UpdateBatch::new();
        batch.insert(3, 0, 1.0);
        check_repair(&g, &batch);

        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        check_repair(&g, &batch);
    }

    #[test]
    fn repair_falls_back_when_most_of_the_graph_is_dirty() {
        let g = generators::path(50);
        let old = RrGuidance::generate(&g);
        // Deleting the first spine edge dirties a region that reaches everything.
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let (mutated, effect) = g.apply_batch(&batch);
        let (repaired, report) = old.repair(&mutated, &effect.dirty);
        assert!(report.regenerated);
        assert!(repaired.guidance_eq(&RrGuidance::generate(&mutated)));
    }

    #[test]
    fn repair_regenerates_for_fallback_root_graphs() {
        let g = generators::cycle(6);
        let old = RrGuidance::generate(&g);
        let mut batch = UpdateBatch::new();
        batch.insert(2, 4, 1.0);
        let (mutated, effect) = g.apply_batch(&batch);
        let (repaired, report) = old.repair(&mutated, &effect.dirty);
        assert!(report.regenerated);
        assert!(repaired.guidance_eq(&RrGuidance::generate(&mutated)));
    }

    #[test]
    fn repair_work_is_less_than_regeneration_for_small_batches() {
        let g = generators::rmat(2000, 16000, 0.57, 0.19, 0.19, 77);
        let old = RrGuidance::generate(&g);
        // A leaf-ward insertion touching a shallow region.
        let deep = (0..g.num_vertices() as u32)
            .max_by_key(|&v| old.last_iter(v))
            .unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(deep, g.num_vertices() as u32, 2.0);
        let (mutated, effect) = g.apply_batch(&batch);
        let (repaired, report) = old.repair(&mutated, &effect.dirty);
        let fresh = RrGuidance::generate(&mutated);
        assert!(repaired.guidance_eq(&fresh));
        if !report.regenerated {
            assert!(
                report.work < fresh.generation_work(),
                "repair ({}) should beat regeneration ({})",
                report.work,
                fresh.generation_work()
            );
        }
    }

    #[test]
    fn from_parts_round_trips_through_the_getters() {
        let g = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 5);
        let rrg = RrGuidance::generate(&g);
        let rebuilt = RrGuidance::from_parts(
            rrg.last_iters().to_vec(),
            rrg.levels().to_vec(),
            rrg.max_level(),
            rrg.generation_work(),
            rrg.used_fallback_root(),
        );
        assert_eq!(rebuilt, rrg);
        assert!(rebuilt.guidance_eq(&rrg));
    }

    #[test]
    fn extended_guidance_repairs_to_regeneration_with_appended_dirty() {
        // The lazy-maintenance contract: pad stale guidance across a growing
        // batch, defer the repair, then sync with a dirty set that includes
        // the appended id range — the result must equal regeneration,
        // including for appended *isolated* vertices (id-space gap fills),
        // which regeneration seeds as level-0 roots.
        let g = generators::rmat(300, 2000, 0.57, 0.19, 0.19, 31);
        let old = RrGuidance::generate(&g);
        let old_n = g.num_vertices();
        let mut batch = UpdateBatch::new();
        batch.insert(3, old_n as u32 + 9, 2.0); // leaves old_n..old_n+9 isolated
        batch.insert(7, 11, 4.0);
        batch.delete(2, *g.out_neighbors(2).first().unwrap_or(&3));
        let (mutated, effect) = g.apply_batch(&batch);
        let padded = old.extended_to(mutated.num_vertices());
        assert_eq!(padded.num_vertices(), mutated.num_vertices());
        assert_eq!(padded.last_iter(old_n as u32), 0, "padding never skips");
        let mut dirty: Vec<u32> = effect.dirty.clone();
        dirty.extend(old_n as u32..mutated.num_vertices() as u32);
        dirty.sort_unstable();
        dirty.dedup();
        let (synced, _) = padded.repair(&mutated, &dirty);
        assert!(synced.guidance_eq(&RrGuidance::generate(&mutated)));
    }
}
