//! Property-based tests over the core data structures and the Theorem-1 invariant
//! (redundancy reduction never changes an application's fixpoint).
//!
//! The properties are checked over many deterministic pseudo-random cases drawn
//! from the workspace's own SplitMix64 stream (no external property-testing
//! dependency is available offline), so failures reproduce exactly.

use slfe::graph::rng::SplitMix64;
use slfe::graph::Bitset;
use slfe::prelude::*;

const CASES: usize = 24;

/// A random weighted edge list over up to `max_v` vertices.
fn edge_list(rng: &mut SplitMix64, max_v: u32, max_e: usize) -> Vec<(u32, u32, f32)> {
    let count = rng.range_usize(0, max_e);
    (0..count)
        .map(|_| {
            (
                rng.range_u32(0, max_v),
                rng.range_u32(0, max_v),
                rng.range_f32(1.0, 10.0),
            )
        })
        .collect()
}

fn build(edges: &[(u32, u32, f32)], min_vertices: usize) -> slfe::graph::Graph {
    let mut b = GraphBuilder::new()
        .with_vertices(min_vertices)
        .drop_self_loops(true)
        .deduplicate(true);
    for &(s, d, w) in edges {
        b.add_edge(s, d, w);
    }
    b.build()
}

/// CSR/CSC consistency: the two adjacency views always describe the same edges.
#[test]
fn graph_csr_and_csc_stay_consistent() {
    let mut rng = SplitMix64::seed_from_u64(0xC5);
    for case in 0..CASES {
        let g = build(&edge_list(&mut rng, 64, 300), 1);
        assert!(g.validate().is_ok(), "case {case}");
        let out_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        assert_eq!(out_sum, g.num_edges(), "case {case}");
        assert_eq!(in_sum, g.num_edges(), "case {case}");
    }
}

/// Every partitioner assigns every vertex exactly once, for any part count.
#[test]
fn partitioners_always_cover_the_graph() {
    let mut rng = SplitMix64::seed_from_u64(0xFA);
    for case in 0..CASES {
        let g = build(&edge_list(&mut rng, 96, 400), 4);
        let parts = rng.range_usize(1, 12);
        for partitioning in [
            ChunkingPartitioner::default().partition(&g, parts),
            slfe::partition::HashPartitioner::new().partition(&g, parts),
        ] {
            assert!(
                partitioning.validate(&g).is_ok(),
                "case {case} ({parts} parts)"
            );
            let total: usize = partitioning.vertex_counts().iter().sum();
            assert_eq!(total, g.num_vertices(), "case {case}");
        }
    }
}

/// The bitset frontier behaves exactly like the `Vec<bool>` it replaced, under a
/// random operation sequence (set / insert / remove / fill / clear / grow) driven
/// by random graph degrees.
#[test]
fn bitset_matches_vec_bool_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xB17);
    for case in 0..CASES {
        let mut len = rng.range_usize(1, 300);
        let mut bits = Bitset::new(len);
        let mut reference = vec![false; len];
        for _ in 0..400 {
            let i = rng.range_usize(0, len);
            match rng.range_usize(0, 100) {
                0..=39 => {
                    let fresh = bits.insert(i);
                    assert_eq!(fresh, !reference[i], "case {case}: insert({i}) freshness");
                    reference[i] = true;
                }
                40..=59 => {
                    bits.set(i);
                    reference[i] = true;
                }
                60..=74 => {
                    bits.remove(i);
                    reference[i] = false;
                }
                75..=92 => {
                    len += rng.range_usize(0, 3);
                    bits.grow(len);
                    reference.resize(len, false);
                }
                93..=96 => {
                    bits.fill();
                    reference.iter_mut().for_each(|r| *r = true);
                }
                _ => {
                    bits.clear();
                    reference.iter_mut().for_each(|r| *r = false);
                }
            }
            let i = rng.range_usize(0, len);
            assert_eq!(bits.get(i), reference[i], "case {case}: get({i})");
        }
        // Full-state agreement: membership, popcount, iteration order.
        for (i, &expected) in reference.iter().enumerate() {
            assert_eq!(bits.get(i), expected, "case {case}: final get({i})");
        }
        let expected_count = reference.iter().filter(|&&b| b).count();
        assert_eq!(bits.count_ones(), expected_count, "case {case}: count_ones");
        let expected_ones: Vec<usize> = (0..len).filter(|&i| reference[i]).collect();
        assert_eq!(
            bits.iter_ones().collect::<Vec<_>>(),
            expected_ones,
            "case {case}: iter_ones"
        );
    }
}

/// The RR guidance never exceeds the vertex count in level, never blocks
/// unreached vertices (their level stays 0), and the guidance a 2×2 engine
/// build carries is indistinguishable from the sequential pass.
#[test]
fn rr_guidance_levels_are_bounded_and_parallel_matches() {
    let mut rng = SplitMix64::seed_from_u64(0x5E9);
    for case in 0..CASES {
        let g = build(&edge_list(&mut rng, 64, 250), 2);
        let rrg = slfe::core::RrGuidance::generate(&g);
        assert_eq!(rrg.num_vertices(), g.num_vertices());
        assert!(rrg.max_level() as usize <= g.num_vertices(), "case {case}");
        for v in g.vertices() {
            assert!(rrg.last_iter(v) <= rrg.max_level(), "case {case}");
        }
        assert!(rrg.generation_work() <= g.num_edges() as u64, "case {case}");
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 2), EngineConfig::default());
        let parallel = engine.guidance().clone();
        assert_eq!(
            rrg, parallel,
            "case {case}: parallel RRG must match sequential"
        );
    }
}

/// Theorem 1 (empirical): SSSP with redundancy reduction converges to the same
/// distances as the unoptimised engine and as Dijkstra.
#[test]
fn sssp_rr_matches_dijkstra_on_random_graphs() {
    let mut rng = SplitMix64::seed_from_u64(0xD1);
    for case in 0..CASES {
        let g = build(&edge_list(&mut rng, 48, 220), 48);
        let root = rng.range_u32(0, 48);
        let oracle = slfe::apps::sssp::reference(&g, root);
        for config in [EngineConfig::default(), EngineConfig::without_rr()] {
            let engine = SlfeEngine::build(&g, ClusterConfig::new(3, 2), config);
            let result = slfe::apps::sssp::run(&engine, root);
            for (v, (&a, &b)) in result.values.iter().zip(&oracle).enumerate() {
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3,
                    "case {case}, vertex {v} with rr={:?}: {a} vs {b}",
                    engine.config().redundancy
                );
            }
        }
    }
}

/// Connected components with RR equals union-find on arbitrary symmetrised graphs.
#[test]
fn cc_rr_matches_union_find_on_random_graphs() {
    let mut rng = SplitMix64::seed_from_u64(0xCC);
    for case in 0..CASES {
        let g = slfe::apps::cc::symmetrize(&build(&edge_list(&mut rng, 40, 150), 40));
        let oracle = slfe::apps::cc::reference(&g);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 2), EngineConfig::default());
        let result = slfe::apps::cc::run(&engine);
        assert_eq!(result.values, oracle, "case {case}");
    }
}

/// The mini-chunk scheduler conserves work, and the stealing (greedy) schedule
/// obeys the classic list-scheduling bound: makespan <= mean load + max chunk.
#[test]
fn work_stealing_conserves_work_and_bounds_the_makespan() {
    let mut rng = SplitMix64::seed_from_u64(0x57EA1);
    for case in 0..CASES {
        let len = rng.range_usize(1, 200);
        let costs: Vec<u64> = (0..len).map(|_| rng.range_usize(0, 1000) as u64).collect();
        let workers = rng.range_usize(1, 9);
        let scheduler = slfe::cluster::ChunkScheduler::new(workers, 1);
        let static_outcome = scheduler.simulate(
            costs.len(),
            slfe::cluster::SchedulingPolicy::StaticBlocks,
            |c| costs[c],
        );
        let stealing_outcome = scheduler.simulate(
            costs.len(),
            slfe::cluster::SchedulingPolicy::WorkStealing,
            |c| costs[c],
        );
        assert_eq!(
            static_outcome.total_work, stealing_outcome.total_work,
            "case {case}"
        );
        let total = stealing_outcome.total_work;
        let max_chunk = costs.iter().copied().max().unwrap_or(0);
        let bound = total / workers as u64 + max_chunk;
        assert!(
            stealing_outcome.makespan() <= bound,
            "case {case}: makespan {} exceeds list-scheduling bound {bound}",
            stealing_outcome.makespan()
        );
    }
}

/// The degree-aware chunk layout (PR 3) is pure bookkeeping: over arbitrary
/// random graphs and partitionings, the reordered/split chunks cover exactly
/// the same vertex set as the owned-vertex lists — every vertex exactly once,
/// every chunk non-empty and node-consistent, claim order descending by
/// estimated work.
#[test]
fn degree_aware_layout_covers_exactly_the_owned_vertex_set() {
    let mut rng = SplitMix64::seed_from_u64(0x1A40);
    for case in 0..CASES {
        let g = build(&edge_list(&mut rng, 128, 600), 8);
        let nodes = rng.range_usize(1, 7);
        let chunk_size = rng.range_usize(4, 64);
        let cluster_config = ClusterConfig::new(nodes, 2).with_chunk_size(chunk_size);
        let cluster = slfe::cluster::Cluster::build(&g, cluster_config);
        let layout = cluster.build_layout(&g);
        let mut covered = vec![0u32; g.num_vertices()];
        for chunk in layout.chunks() {
            assert!(!chunk.is_empty(), "case {case}: empty chunk");
            assert!(chunk.len() <= chunk_size, "case {case}: oversized chunk");
            let owned = cluster.vertices_of(chunk.node);
            for &v in &owned[chunk.start..chunk.end] {
                assert_eq!(cluster.owner_of(v), chunk.node, "case {case}");
                covered[v as usize] += 1;
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "case {case}: layout must cover every vertex exactly once"
        );
        for pair in layout.chunks().windows(2) {
            assert!(
                pair[0].estimate >= pair[1].estimate,
                "case {case}: chunks must be ordered descending by estimate"
            );
        }
    }
}

/// On a skewed R-MAT, the degree-aware layout's schedule (split hub chunks,
/// heavy chunks claimed first) has a makespan no worse than the unsorted
/// fixed-size mini-chunk schedule on the same work — the stealing tail is
/// drained first instead of started last.
#[test]
fn degree_aware_layout_makespan_beats_the_unsorted_schedule() {
    let g = slfe::graph::generators::rmat(20_000, 240_000, 0.65, 0.15, 0.15, 0xDE6);
    let estimate = |v: u32| 1 + g.in_degree(v) as u64 + g.out_degree(v) as u64;
    for (nodes, workers) in [(1usize, 4usize), (2, 4), (4, 2)] {
        let cluster = slfe::cluster::Cluster::build(&g, ClusterConfig::new(nodes, workers));
        let layout = cluster.build_layout(&g);
        let mut sorted_makespan = 0u64;
        let mut unsorted_makespan = 0u64;
        let mut sorted_total = 0u64;
        let mut unsorted_total = 0u64;
        for node in cluster.nodes() {
            // Degree-aware schedule: greedy least-loaded over the layout order.
            let sim = layout.simulate_node(
                node,
                workers,
                slfe::cluster::SchedulingPolicy::WorkStealing,
                |c| layout.chunks()[c].estimate,
            );
            sorted_makespan = sorted_makespan.max(sim.makespan());
            sorted_total += sim.total_work;
            // Unsorted baseline: fixed 256-vertex chunks in ascending vertex
            // order, same greedy assignment (PR 1's schedule).
            let owned = cluster.vertices_of(node);
            let scheduler = cluster.node_scheduler();
            let outcome = scheduler.simulate(
                owned.len(),
                slfe::cluster::SchedulingPolicy::WorkStealing,
                |chunk| {
                    scheduler
                        .chunk_range(chunk, owned.len())
                        .map(|i| estimate(owned[i]))
                        .sum()
                },
            );
            unsorted_makespan = unsorted_makespan.max(outcome.makespan());
            unsorted_total += outcome.total_work;
        }
        // Same work, tighter (or equal) makespan.
        assert_eq!(
            sorted_total, unsorted_total,
            "{nodes} nodes: work conserved"
        );
        assert!(
            sorted_makespan <= unsorted_makespan,
            "{nodes} nodes × {workers} workers: layout makespan {sorted_makespan} \
             must not exceed unsorted {unsorted_makespan}"
        );
    }
}

/// PageRank rank mass stays bounded and non-negative on arbitrary graphs.
#[test]
fn pagerank_ranks_are_non_negative_and_bounded() {
    let mut rng = SplitMix64::seed_from_u64(0x93);
    for case in 0..CASES {
        let g = build(&edge_list(&mut rng, 40, 200), 8);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 2), EngineConfig::default());
        let result = slfe::apps::pagerank::run(&engine);
        let ranks = slfe::apps::pagerank::ranks(&g, &result.values);
        let total: f32 = ranks.iter().sum();
        assert!(
            ranks.iter().all(|r| *r >= 0.0 && r.is_finite()),
            "case {case}"
        );
        // Sinks leak rank mass, so the total is at most ~1 (plus float slack).
        assert!(total <= 1.05, "case {case}: total rank {total}");
    }
}
