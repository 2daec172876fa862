//! Synthetic graph generators.
//!
//! The paper evaluates on seven real-world graphs plus a Graph500-style RMAT graph.
//! Real downloads are not available in this environment, so [`crate::datasets`]
//! builds scaled-down proxies from the generators in this module. RMAT is the
//! workhorse: with parameters `(a, b, c)` around `(0.57, 0.19, 0.19)` it produces the
//! heavy-tailed degree distributions that drive the redundancy behaviour the paper
//! measures (many propagation levels, a small number of very high-degree hubs).

use crate::builder::GraphBuilder;
use crate::delta::UpdateBatch;
use crate::graph::Graph;
use crate::rng::SplitMix64;
use crate::types::VertexId;

/// Generate an RMAT (recursive-matrix) graph with `num_vertices` vertices and
/// approximately `num_edges` edges.
///
/// `a`, `b`, `c` are the probabilities of recursing into the top-left, top-right and
/// bottom-left quadrant respectively (`d = 1 - a - b - c`). The classic Graph500
/// parameters are `a = 0.57, b = 0.19, c = 0.19`.
///
/// Edge weights are drawn uniformly from `[1, 10)` so that min/max applications
/// (SSSP, WidestPath) have non-trivial inputs. Self loops and duplicate edges are
/// removed, so the final edge count can be slightly below `num_edges`.
pub fn rmat(num_vertices: usize, num_edges: usize, a: f64, b: f64, c: f64, seed: u64) -> Graph {
    assert!(num_vertices > 0, "RMAT graph needs at least one vertex");
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0 + 1e-9,
        "invalid RMAT probabilities"
    );
    let mut rng = SplitMix64::seed_from_u64(seed);
    // Number of levels of recursion: ceil(log2(num_vertices)).
    let levels = usize::BITS - (num_vertices.max(2) - 1).leading_zeros();
    let mut builder = GraphBuilder::new()
        .with_vertices(num_vertices)
        .deduplicate(true)
        .drop_self_loops(true);
    // RMAT naturally produces duplicate pairs (that is where the skew comes from), so
    // keep sampling until `num_edges` *distinct* non-loop edges exist or the attempt
    // budget runs out. This keeps the proxy datasets close to their target average
    // degree (Table 4) instead of losing half the edges to de-duplication.
    let mut seen = std::collections::HashSet::with_capacity(num_edges * 2);
    let max_attempts = num_edges.saturating_mul(8).max(16);
    let mut attempts = 0usize;
    while seen.len() < num_edges && attempts < max_attempts {
        attempts += 1;
        let (mut lo_r, mut hi_r) = (0usize, num_vertices);
        let (mut lo_c, mut hi_c) = (0usize, num_vertices);
        for _ in 0..levels {
            if hi_r - lo_r <= 1 && hi_c - lo_c <= 1 {
                break;
            }
            let p: f64 = rng.next_f64();
            let (row_hi, col_hi) = if p < a {
                (false, false)
            } else if p < a + b {
                (false, true)
            } else if p < a + b + c {
                (true, false)
            } else {
                (true, true)
            };
            let mid_r = lo_r + (hi_r - lo_r) / 2;
            let mid_c = lo_c + (hi_c - lo_c) / 2;
            if hi_r - lo_r > 1 {
                if row_hi {
                    lo_r = mid_r;
                } else {
                    hi_r = mid_r;
                }
            }
            if hi_c - lo_c > 1 {
                if col_hi {
                    lo_c = mid_c;
                } else {
                    hi_c = mid_c;
                }
            }
        }
        let src = lo_r.min(num_vertices - 1) as VertexId;
        let dst = lo_c.min(num_vertices - 1) as VertexId;
        if src == dst || !seen.insert((src, dst)) {
            continue;
        }
        let weight = rng.range_f32(1.0, 10.0);
        builder.add_edge(src, dst, weight);
    }
    builder.build()
}

/// Generate an Erdős–Rényi `G(n, m)` graph: `num_edges` edges drawn uniformly at
/// random between distinct vertices, deduplicated.
pub fn erdos_renyi(num_vertices: usize, num_edges: usize, seed: u64) -> Graph {
    assert!(
        num_vertices > 1,
        "Erdős–Rényi graph needs at least two vertices"
    );
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut builder = GraphBuilder::new()
        .with_vertices(num_vertices)
        .deduplicate(true)
        .drop_self_loops(true);
    for _ in 0..num_edges {
        let src = rng.range_usize(0, num_vertices) as VertexId;
        let dst = rng.range_usize(0, num_vertices) as VertexId;
        let weight = rng.range_f32(1.0, 10.0);
        builder.add_edge(src, dst, weight);
    }
    builder.build()
}

/// A directed path `0 -> 1 -> ... -> n-1` with unit weights.
///
/// Paths maximise the number of propagation levels, making them the worst case for
/// label-propagation redundancy and a good stress test for the "start late" rule.
pub fn path(num_vertices: usize) -> Graph {
    let mut builder = GraphBuilder::new().with_vertices(num_vertices);
    for v in 1..num_vertices {
        builder.add_unweighted((v - 1) as VertexId, v as VertexId);
    }
    builder.build()
}

/// A directed cycle `0 -> 1 -> ... -> n-1 -> 0` with unit weights.
pub fn cycle(num_vertices: usize) -> Graph {
    assert!(num_vertices >= 2, "cycle needs at least two vertices");
    let mut builder = GraphBuilder::new().with_vertices(num_vertices);
    for v in 0..num_vertices {
        builder.add_unweighted(v as VertexId, ((v + 1) % num_vertices) as VertexId);
    }
    builder.build()
}

/// A star with `num_leaves` leaves: vertex 0 points to every leaf.
pub fn star(num_leaves: usize) -> Graph {
    let mut builder = GraphBuilder::new().with_vertices(num_leaves + 1);
    for leaf in 1..=num_leaves {
        builder.add_unweighted(0, leaf as VertexId);
    }
    builder.build()
}

/// A complete directed graph on `n` vertices (every ordered pair, no self loops).
pub fn complete(n: usize) -> Graph {
    let mut builder = GraphBuilder::new().with_vertices(n);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                builder.add_unweighted(u as VertexId, v as VertexId);
            }
        }
    }
    builder.build()
}

/// A `rows x cols` grid with edges pointing right and down, unit weights.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut builder = GraphBuilder::new().with_vertices(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                builder.add_unweighted(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                builder.add_unweighted(id(r, c), id(r + 1, c));
            }
        }
    }
    builder.build()
}

/// A layered DAG: `layers` layers of `width` vertices each; every vertex of layer
/// `i` has up to `fanout` weighted edges to vertices of layer `i + 1` — one
/// "spine" edge to its own slot plus `fanout - 1` random ones.
///
/// Layered graphs maximise the depth of the propagation structure while keeping a
/// wide frontier, which is exactly the regime where the paper's "start late" rule
/// pays off: a vertex in layer `i` cannot receive its final value before iteration
/// `i`, so every earlier computation on it is redundant. The spine edge guarantees
/// every non-first-layer vertex has an in-edge, so the only propagation roots are
/// layer 0 and the RR guidance level of a vertex is exactly its layer index
/// (random-only targets leave a few isolated mid-layer vertices whose zero
/// in-degree seeds early BFS waves and flattens the level structure).
pub fn layered(layers: usize, width: usize, fanout: usize, seed: u64) -> Graph {
    assert!(
        layers >= 1 && width >= 1,
        "need at least one layer and one vertex per layer"
    );
    let mut rng = SplitMix64::seed_from_u64(seed);
    let id = |layer: usize, slot: usize| (layer * width + slot) as VertexId;
    let mut builder = GraphBuilder::new()
        .with_vertices(layers * width)
        .deduplicate(true)
        .drop_self_loops(true);
    for layer in 0..layers.saturating_sub(1) {
        for slot in 0..width {
            builder.add_edge(
                id(layer, slot),
                id(layer + 1, slot),
                rng.range_f32(1.0, 5.0),
            );
            for _ in 1..fanout {
                let dst_slot = rng.range_usize(0, width);
                let weight = rng.range_f32(1.0, 5.0);
                builder.add_edge(id(layer, slot), id(layer + 1, dst_slot), weight);
            }
        }
    }
    builder.build()
}

/// A complete binary out-tree with `depth` levels below the root (depth 0 = root only).
pub fn binary_tree(depth: u32) -> Graph {
    let num_vertices = (1usize << (depth + 1)) - 1;
    let mut builder = GraphBuilder::new().with_vertices(num_vertices);
    for v in 0..num_vertices {
        let left = 2 * v + 1;
        let right = 2 * v + 2;
        if left < num_vertices {
            builder.add_unweighted(v as VertexId, left as VertexId);
        }
        if right < num_vertices {
            builder.add_unweighted(v as VertexId, right as VertexId);
        }
    }
    builder.build()
}

/// What a [`random_batch`] draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchShape {
    /// ~60% upserts from a random source with a weight in `[1, 10)`, ~40%
    /// deletions of one of a random source's out-edges. With `allow_growth`
    /// an upsert's target may lie up to 6 ids past the graph, growing the id
    /// space.
    Mixed { allow_growth: bool },
    /// ~60% symmetric unit-weight upserts, ~40% symmetric deletions of a
    /// random pair that is an edge: the undirected semantics of Connected
    /// Components.
    Symmetric,
    /// ~60% forward (lower id to higher id) unit-weight upserts, ~40%
    /// deletions of an out-edge: keeps a topologically numbered DAG such as
    /// [`layered`] acyclic. Needs at least two vertices.
    Dag,
}

/// A seeded random update batch of `ops` draws against `graph`.
///
/// The batch is a pure function of the graph and the seed, so two servers
/// holding bit-identical graphs (an oracle and a faulted or crash-recovered
/// run) draw identical batch sequences. A deletion draw that finds no edge
/// stages nothing, so a batch can hold fewer than `ops` operations.
pub fn random_batch(graph: &Graph, seed: u64, ops: usize, shape: BatchShape) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = graph.num_vertices() as VertexId;
    let mut batch = UpdateBatch::new();
    let delete_out_edge = |rng: &mut SplitMix64, batch: &mut UpdateBatch, src: VertexId| {
        let outs = graph.out_neighbors(src);
        if !outs.is_empty() {
            batch.delete(src, outs[rng.range_usize(0, outs.len())]);
        }
    };
    for _ in 0..ops {
        match shape {
            BatchShape::Mixed { allow_growth } => {
                let src = rng.range_u32(0, n);
                if rng.next_f64() < 0.6 {
                    let hi = if allow_growth { n + 6 } else { n };
                    batch.insert(src, rng.range_u32(0, hi), rng.range_f32(1.0, 10.0));
                } else {
                    delete_out_edge(&mut rng, &mut batch, src);
                }
            }
            BatchShape::Symmetric => {
                let a = rng.range_u32(0, n);
                let b = rng.range_u32(0, n);
                if rng.next_f64() < 0.6 {
                    batch.insert_symmetric(a, b, 1.0);
                } else if graph.has_edge(a, b) {
                    batch.delete_symmetric(a, b);
                }
            }
            BatchShape::Dag => {
                let a = rng.range_u32(0, n - 1);
                if rng.next_f64() < 0.6 {
                    batch.insert(a, rng.range_u32(a + 1, n), 1.0);
                } else {
                    delete_out_edge(&mut rng, &mut batch, a);
                }
            }
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_respects_vertex_count_and_is_valid() {
        let g = rmat(128, 1000, 0.57, 0.19, 0.19, 1);
        assert_eq!(g.num_vertices(), 128);
        assert!(g.num_edges() > 0);
        assert!(g.num_edges() <= 1000);
        g.validate().unwrap();
    }

    #[test]
    fn rmat_is_deterministic_for_a_seed() {
        let g1 = rmat(64, 300, 0.57, 0.19, 0.19, 7);
        let g2 = rmat(64, 300, 0.57, 0.19, 0.19, 7);
        assert_eq!(g1.num_edges(), g2.num_edges());
        for v in g1.vertices() {
            assert_eq!(g1.out_neighbors(v), g2.out_neighbors(v));
        }
    }

    #[test]
    fn rmat_is_skewed_toward_low_ids() {
        // With a = 0.57 the mass concentrates in the low-id quadrant, so the top
        // quarter of the id space should own fewer edges than the bottom quarter.
        let g = rmat(256, 4000, 0.57, 0.19, 0.19, 3);
        let low: usize = (0..64).map(|v| g.out_degree(v)).sum();
        let high: usize = (192..256).map(|v| g.out_degree(v)).sum();
        assert!(
            low > high,
            "low-id quadrant ({low}) should dominate high-id ({high})"
        );
    }

    #[test]
    fn erdos_renyi_has_no_self_loops() {
        let g = erdos_renyi(50, 400, 11);
        for v in g.vertices() {
            assert!(!g.has_edge(v, v));
        }
        g.validate().unwrap();
    }

    #[test]
    fn path_has_linear_structure() {
        let g = path(10);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(9), 0);
        assert_eq!(g.in_degree(0), 0);
        assert!(g.has_edge(3, 4));
    }

    #[test]
    fn cycle_every_vertex_has_degree_one_each_way() {
        let g = cycle(7);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 1);
            assert_eq!(g.in_degree(v), 1);
        }
        assert!(g.has_edge(6, 0));
    }

    #[test]
    fn star_center_has_all_out_edges() {
        let g = star(12);
        assert_eq!(g.num_vertices(), 13);
        assert_eq!(g.out_degree(0), 12);
        assert_eq!(g.in_degree(0), 0);
        for leaf in 1..13 {
            assert_eq!(g.in_degree(leaf), 1);
        }
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 30);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 5);
            assert_eq!(g.in_degree(v), 5);
        }
    }

    #[test]
    fn grid_edge_count() {
        let g = grid(3, 4);
        // horizontal: 3 * 3, vertical: 2 * 4
        assert_eq!(g.num_edges(), 9 + 8);
        assert_eq!(g.num_vertices(), 12);
        g.validate().unwrap();
    }

    #[test]
    fn layered_graph_only_connects_adjacent_layers() {
        let g = layered(5, 10, 3, 42);
        assert_eq!(g.num_vertices(), 50);
        for v in g.vertices() {
            let layer = v as usize / 10;
            for &u in g.out_neighbors(v) {
                assert_eq!(u as usize / 10, layer + 1, "edge {v}->{u} skips a layer");
            }
        }
        // Last layer has no outgoing edges; first layer has no incoming edges.
        for slot in 0..10u32 {
            assert_eq!(g.out_degree(40 + slot), 0);
            assert_eq!(g.in_degree(slot), 0);
        }
    }

    #[test]
    fn layered_graph_is_deterministic_and_respects_fanout_cap() {
        let a = layered(4, 8, 4, 7);
        let b = layered(4, 8, 4, 7);
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert!(a.out_degree(v) <= 4);
        }
    }

    #[test]
    fn random_batches_are_seeded_and_keep_their_shape() {
        let g = rmat(200, 1200, 0.57, 0.19, 0.19, 5);
        let fixed = BatchShape::Mixed {
            allow_growth: false,
        };
        for shape in [
            BatchShape::Mixed { allow_growth: true },
            BatchShape::Symmetric,
        ] {
            let a = random_batch(&g, 11, 40, shape);
            assert_eq!(a.to_bytes(), random_batch(&g, 11, 40, shape).to_bytes());
            assert_ne!(a.to_bytes(), random_batch(&g, 12, 40, shape).to_bytes());
        }
        let in_range = random_batch(&g, 3, 60, fixed);
        assert!(in_range.pairs().all(|(s, d, _)| s < 200 && d < 200));
        let symmetric = random_batch(&g, 3, 60, BatchShape::Symmetric);
        assert!(symmetric
            .stages()
            .all(|(s, d, w)| symmetric.stages().any(|(a, b, x)| (a, b, x) == (d, s, w))));
        let dag = layered(6, 10, 3, 9);
        let edits = random_batch(&dag, 3, 60, BatchShape::Dag);
        assert!(edits.pairs().all(|(s, d, _)| s < d));
        assert!(dag.apply_batch(&edits).0.validate().is_ok());
    }

    #[test]
    fn binary_tree_structure() {
        let g = binary_tree(3);
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(g.out_degree(0), 2);
        // leaves have no children
        for v in 7..15 {
            assert_eq!(g.out_degree(v), 0);
        }
    }
}
