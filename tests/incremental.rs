//! Incremental recomputation acceptance tests: for **every registered
//! application** ([`slfe::apps::AppKind::ALL`]), `apply_batch` + `run_from`
//! must produce the same values as a from-scratch run on the mutated graph —
//! bit-for-bit for min/max programs, at the exact ruler-free fixpoint for
//! arithmetic ones — over seeded random batches, at 1 and 4 workers per node.

use slfe::apps::{bfs, cc, heat, numpaths, pagerank, spmv, sssp, tunkrank, widestpath, AppKind};
use slfe::core::{EngineConfig, GraphProgram, RedundancyMode, SlfeEngine};
use slfe::graph::rng::SplitMix64;
use slfe::graph::{generators, Graph, UpdateBatch};
use slfe::prelude::ClusterConfig;

/// A mixed random batch: ~60% upserts (some growing the id space), ~40%
/// deletions of real edges.
fn mixed_batch(graph: &Graph, seed: u64, ops: usize, allow_growth: bool) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = graph.num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let src = rng.range_u32(0, n);
        if rng.next_f64() < 0.6 {
            let hi = if allow_growth { n + 6 } else { n };
            batch.insert(src, rng.range_u32(0, hi), rng.range_f32(1.0, 10.0));
        } else {
            let outs = graph.out_neighbors(src);
            if !outs.is_empty() {
                batch.delete(src, outs[rng.range_usize(0, outs.len())]);
            }
        }
    }
    batch
}

/// A symmetric batch for the Connected Components (undirected) semantics.
fn symmetric_batch(graph: &Graph, seed: u64, ops: usize) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = graph.num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let a = rng.range_u32(0, n);
        let b = rng.range_u32(0, n);
        if rng.next_f64() < 0.6 {
            batch.insert_symmetric(a, b, 1.0);
        } else if graph.has_edge(a, b) {
            batch.delete_symmetric(a, b);
        }
    }
    batch
}

/// A DAG-preserving batch for NumPaths: only forward (lower id -> higher id)
/// insertions on the layered generator's topologically ordered ids.
fn dag_batch(graph: &Graph, seed: u64, ops: usize) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = graph.num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let a = rng.range_u32(0, n - 1);
        if rng.next_f64() < 0.6 {
            batch.insert(a, rng.range_u32(a + 1, n), 1.0);
        } else {
            let outs = graph.out_neighbors(a);
            if !outs.is_empty() {
                batch.delete(a, outs[rng.range_usize(0, outs.len())]);
            }
        }
    }
    batch
}

/// Warm-start `program` across `batch` and compare with a from-scratch run on
/// the mutated graph. `config` is shared by the previous run, the warm run and
/// the cold oracle; `compare` receives (warm, cold) value slices.
fn check_warm_equals_cold<P, V, PF, C>(
    graph: &Graph,
    batch: &UpdateBatch,
    config: EngineConfig,
    make_program: PF,
    compare: C,
) where
    P: GraphProgram<Value = V>,
    V: Copy + PartialEq + Send + Sync + std::fmt::Debug,
    PF: Fn(&Graph) -> P,
    C: Fn(&[V], &[V], usize),
{
    let (mutated, effect) = graph.apply_batch(batch);
    let dirty = effect.dirty_bitset(mutated.num_vertices());
    for workers in [1usize, 4] {
        let cluster = ClusterConfig::new(2, workers);
        let previous =
            SlfeEngine::build(graph, cluster.clone(), config.clone()).run(&make_program(graph));
        let program = make_program(&mutated);
        let warm_engine = SlfeEngine::build(&mutated, cluster.clone(), config.clone());
        let warm = warm_engine.run_from(&program, &previous, &dirty);
        let cold = SlfeEngine::build(&mutated, cluster, config.clone()).run(&program);
        assert!(
            warm.converged,
            "warm run failed to converge at {workers} workers"
        );
        compare(&warm.values, &cold.values, workers);
    }
}

fn assert_bits_equal(warm: &[f32], cold: &[f32], workers: usize, app: AppKind) {
    assert_eq!(warm.len(), cold.len());
    for (v, (a, b)) in warm.iter().zip(cold).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{app}: vertex {v} diverges at {workers} workers ({a} vs {b})"
        );
    }
}

fn assert_close(warm: &[f32], cold: &[f32], workers: usize, app: AppKind, tol: f32) {
    assert_eq!(warm.len(), cold.len());
    for (v, (a, b)) in warm.iter().zip(cold).enumerate() {
        assert!(
            (a - b).abs() <= tol,
            "{app}: vertex {v} diverges at {workers} workers ({a} vs {b})"
        );
    }
}

/// The arithmetic oracle must run ruler-free: warm restarts reach the exact
/// fixpoint, while the multi ruler's "finish early" is a lossy approximation
/// whose error is not what these tests measure.
fn exact_config() -> EngineConfig {
    EngineConfig::default()
        .with_redundancy(RedundancyMode::Disabled)
        .with_max_iterations(400)
}

#[test]
fn every_registered_program_warm_equals_cold_on_random_batches() {
    for seed in 0..3u64 {
        let rmat = generators::rmat(260, 1700, 0.57, 0.19, 0.19, seed + 900);
        let sym = cc::symmetrize(&generators::rmat(200, 900, 0.57, 0.19, 0.19, seed + 950));
        let dag = generators::layered(8, 30, 4, seed + 77);
        let root = slfe::graph::stats::highest_out_degree_vertex(&rmat).unwrap();

        for app in AppKind::ALL {
            eprintln!("checking {app} (seed {seed})");
            match app {
                AppKind::Sssp => check_warm_equals_cold(
                    &rmat,
                    &mixed_batch(&rmat, seed, 25, true),
                    EngineConfig::default(),
                    |_| sssp::SsspProgram { root },
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
                AppKind::Bfs => check_warm_equals_cold(
                    &rmat,
                    &mixed_batch(&rmat, seed + 1, 25, true),
                    EngineConfig::default(),
                    |_| bfs::BfsProgram { root },
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
                AppKind::WidestPath => check_warm_equals_cold(
                    &rmat,
                    &mixed_batch(&rmat, seed + 2, 25, true),
                    EngineConfig::default(),
                    |_| widestpath::WidestPathProgram { root },
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
                AppKind::ConnectedComponents => check_warm_equals_cold(
                    &sym,
                    &symmetric_batch(&sym, seed + 3, 18),
                    EngineConfig::default(),
                    cc::CcProgram::for_graph,
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
                AppKind::PageRank => check_warm_equals_cold(
                    &rmat,
                    &mixed_batch(&rmat, seed + 4, 20, true),
                    exact_config(),
                    pagerank::PageRankProgram::for_graph,
                    |w, c, k| assert_close(w, c, k, app, 1e-5),
                ),
                AppKind::TunkRank => check_warm_equals_cold(
                    &rmat,
                    &mixed_batch(&rmat, seed + 5, 20, false),
                    exact_config(),
                    |_| tunkrank::TunkRankProgram::default(),
                    |w, c, k| assert_close(w, c, k, app, 1e-5),
                ),
                AppKind::SpMV => check_warm_equals_cold(
                    &rmat,
                    &mixed_batch(&rmat, seed + 6, 20, true),
                    exact_config(),
                    |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
                    |w: &[(f32, f32)], c: &[(f32, f32)], k| {
                        for (v, (a, b)) in w.iter().zip(c).enumerate() {
                            assert_eq!(
                                (a.0.to_bits(), a.1.to_bits()),
                                (b.0.to_bits(), b.1.to_bits()),
                                "SpMV: vertex {v} diverges at {k} workers"
                            );
                        }
                    },
                ),
                // Heat's geometric decay converges slowly near machine epsilon;
                // a softer tolerance keeps the trajectory short while both runs
                // still walk it identically.
                AppKind::HeatSimulation => check_warm_equals_cold(
                    &rmat,
                    &mixed_batch(&rmat, seed + 7, 20, false),
                    exact_config()
                        .with_tolerance(1e-6)
                        .with_max_iterations(3000),
                    |g: &Graph| heat::HeatProgram::point_source(g, root),
                    // Heat's warm hook restarts from the initial condition, so
                    // warm and cold run the identical trajectory.
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
                AppKind::NumPaths => check_warm_equals_cold(
                    &dag,
                    &dag_batch(&dag, seed + 8, 15),
                    exact_config(),
                    |_| numpaths::NumPathsProgram { root: 0 },
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
            }
        }
    }
}

/// Regression: component-splitting deletions must invalidate values whose only
/// remaining "support" is circular. CC's label copy and WidestPath's capacity
/// min are not strictly monotonic, so after deleting the bridge 0-1 in
/// `{0-1, 1-2}` the stale labels of 1 and 2 derive from each other; the
/// invalidation pass must reset them rather than trust that phantom support.
#[test]
fn bridge_deletions_invalidate_circularly_supported_values() {
    use slfe::apps::cc::CcProgram;
    use slfe::apps::widestpath::WidestPathProgram;
    use slfe::graph::GraphBuilder;

    // CC on the symmetric path 0-1-2: labels [0,0,0]; cut 0-1 -> [0,1,1].
    let mut b = GraphBuilder::new().symmetric(true);
    b.add_unweighted(0, 1).add_unweighted(1, 2);
    let cc_graph = b.build();
    let mut cc_batch = UpdateBatch::new();
    cc_batch.delete_symmetric(0, 1);

    // WidestPath from 0 over 0 -(10)-> 1 <-(10)-> 2: capacities [inf, 10, 10];
    // cut 0 -> 1 and both become unreachable (capacity 0).
    let mut b = GraphBuilder::new();
    b.extend_weighted([(0, 1, 10.0), (1, 2, 10.0), (2, 1, 10.0)]);
    let wp_graph = b.build();
    let mut wp_batch = UpdateBatch::new();
    wp_batch.delete(0, 1);

    for workers in [1usize, 4] {
        let cluster = ClusterConfig::new(2, workers);
        let check = |graph: &Graph, batch: &UpdateBatch, use_effect: bool| {
            let (mutated, effect) = graph.apply_batch(batch);
            let previous = SlfeEngine::build(graph, cluster.clone(), EngineConfig::default())
                .run(&CcProgram::default());
            let warm_engine = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default());
            let warm = if use_effect {
                warm_engine.run_from_effect(&CcProgram::default(), &previous, &effect)
            } else {
                warm_engine.run_from(
                    &CcProgram::default(),
                    &previous,
                    &effect.dirty_bitset(mutated.num_vertices()),
                )
            };
            let cold = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default())
                .run(&CcProgram::default());
            assert_eq!(warm.values, cold.values, "CC bridge cut diverges");
        };
        check(&cc_graph, &cc_batch, false);
        check(&cc_graph, &cc_batch, true);

        let (mutated, effect) = wp_graph.apply_batch(&wp_batch);
        let program = WidestPathProgram { root: 0 };
        let previous =
            SlfeEngine::build(&wp_graph, cluster.clone(), EngineConfig::default()).run(&program);
        let warm = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default())
            .run_from_effect(&program, &previous, &effect);
        let cold =
            SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default()).run(&program);
        assert_eq!(warm.values, cold.values, "WidestPath bridge cut diverges");
        assert_eq!(warm.values[1], 0.0, "vertex 1 must become unreachable");
        assert_eq!(warm.values[2], 0.0, "vertex 2 must become unreachable");
    }
}

/// Regression: a candidate that *beats* the stored value must not prune the
/// invalidation cascade when it is derived from a neighbor that is itself
/// invalidated later in the pass. Here vertex 1's candidate 6 (via vertex 3's
/// soon-dead distance 5 plus the new edge 3->1) "improves" on its stored 10;
/// trusting it would strand 10 while the true new distance is 51.
#[test]
fn improvement_through_a_stale_neighbor_still_invalidates() {
    use slfe::graph::GraphBuilder;
    let mut b = GraphBuilder::new();
    b.extend_weighted([
        (0, 1, 10.0),
        (0, 3, 5.0),
        (0, 2, 40.0),
        (2, 1, 45.0),
        (2, 3, 10.0),
    ]);
    let graph = b.build();
    let mut batch = UpdateBatch::new();
    batch.delete(0, 1).delete(0, 3).insert(3, 1, 1.0);
    let (mutated, effect) = graph.apply_batch(&batch);
    let program = sssp::SsspProgram { root: 0 };
    for workers in [1usize, 4] {
        let cluster = ClusterConfig::new(2, workers);
        let previous =
            SlfeEngine::build(&graph, cluster.clone(), EngineConfig::default()).run(&program);
        let engine = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default());
        let warm = engine.run_from_effect(&program, &previous, &effect);
        let cold = SlfeEngine::build(&mutated, cluster, EngineConfig::default()).run(&program);
        assert_eq!(warm.values, cold.values, "{workers} workers");
        assert_eq!(warm.values, vec![0.0, 51.0, 40.0, 50.0]);
    }
}

#[test]
fn run_from_effect_matches_run_from_for_every_program_shape() {
    for seed in 0..2u64 {
        let rmat = generators::rmat(220, 1500, 0.57, 0.19, 0.19, seed + 1500);
        let root = slfe::graph::stats::highest_out_degree_vertex(&rmat).unwrap();
        let batch = mixed_batch(&rmat, seed + 40, 25, true);
        let (mutated, effect) = rmat.apply_batch(&batch);
        let cluster = ClusterConfig::new(2, 2);
        let program = sssp::SsspProgram { root };
        let previous =
            SlfeEngine::build(&rmat, cluster.clone(), EngineConfig::default()).run(&program);
        let engine = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default());
        let via_dirty = engine.run_from(
            &program,
            &previous,
            &effect.dirty_bitset(mutated.num_vertices()),
        );
        let via_effect = engine.run_from_effect(&program, &previous, &effect);
        let cold = SlfeEngine::build(&mutated, cluster, EngineConfig::default()).run(&program);
        for v in 0..mutated.num_vertices() {
            assert_eq!(via_dirty.values[v].to_bits(), cold.values[v].to_bits());
            assert_eq!(via_effect.values[v].to_bits(), cold.values[v].to_bits());
        }
        // The effect-seeded pass can only do less invalidation work.
        assert!(via_effect.stats.totals.work() <= via_dirty.stats.totals.work());
    }
}

#[test]
fn repaired_guidance_equals_regeneration_for_every_batch_shape() {
    use slfe::core::RrGuidance;
    for seed in 0..3u64 {
        let graph = generators::rmat(300, 2000, 0.57, 0.19, 0.19, seed + 1200);
        for (label, batch) in [
            ("mixed", mixed_batch(&graph, seed, 30, true)),
            ("symmetric", symmetric_batch(&graph, seed, 20)),
        ] {
            let old = RrGuidance::generate(&graph);
            let (mutated, effect) = graph.apply_batch(&batch);
            let (repaired, _) = old.repair(&mutated, &effect.dirty);
            assert!(
                repaired.guidance_eq(&RrGuidance::generate(&mutated)),
                "{label} batch, seed {seed}: repaired guidance diverges"
            );
        }
    }
}

#[test]
fn warm_start_saves_work_on_serving_sized_batches() {
    // The serving regime: a large graph, a small batch.
    let graph = generators::rmat(8_000, 64_000, 0.57, 0.19, 0.19, 2027);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap();
    let mut rng = SplitMix64::seed_from_u64(13);
    let mut batch = UpdateBatch::new();
    for _ in 0..60 {
        batch.insert(
            rng.range_u32(0, graph.num_vertices() as u32),
            rng.range_u32(0, graph.num_vertices() as u32),
            rng.range_f32(4.0, 10.0),
        );
    }
    let (mutated, effect) = graph.apply_batch(&batch);
    let dirty = effect.dirty_bitset(mutated.num_vertices());
    let cluster = ClusterConfig::new(2, 1);
    let program = sssp::SsspProgram { root };
    let previous =
        SlfeEngine::build(&graph, cluster.clone(), EngineConfig::default()).run(&program);
    let warm = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default())
        .run_from(&program, &previous, &dirty);
    let cold = SlfeEngine::build(&mutated, cluster, EngineConfig::default()).run(&program);
    assert_eq!(
        warm.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        cold.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    assert!(
        warm.stats.totals.work() * 5 <= cold.stats.totals.work(),
        "warm restart should save >=5x counted work ({} vs {})",
        warm.stats.totals.work(),
        cold.stats.totals.work()
    );
}
