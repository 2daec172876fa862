//! Incremental recomputation acceptance tests: for **every registered
//! application** ([`slfe::apps::AppKind::ALL`]), `apply_batch` +
//! [`SlfeEngine::restart`] must produce the same values as a from-scratch run
//! on the mutated graph — bit-for-bit for min/max programs, at the exact
//! ruler-free fixpoint for arithmetic ones — over seeded random batches, at 1
//! and 4 workers per node.

use slfe::apps::{bfs, cc, heat, numpaths, pagerank, spmv, sssp, tunkrank, widestpath, AppKind};
use slfe::core::{
    EngineConfig, GraphProgram, ProgramResult, RedundancyMode, SlfeEngine, WarmResult,
};
use slfe::delta::{DeltaServer, ServerConfig};
use slfe::graph::generators::{random_batch, BatchShape};
use slfe::graph::rng::SplitMix64;
use slfe::graph::{generators, BatchEffect, Bitset, Degrees, Graph, ReorderPolicy, UpdateBatch};
use slfe::metrics::Counters;
use slfe::partition::{contiguous_degree_layout, ChunkingPartitioner, Partitioner};
use slfe::prelude::ClusterConfig;

const GROW: BatchShape = BatchShape::Mixed { allow_growth: true };
const FIXED: BatchShape = BatchShape::Mixed {
    allow_growth: false,
};

/// A warm restart of `previous` in a fresh run state: a copy of it in a new
/// [`WarmResult`], restarted by [`SlfeEngine::restart`].
fn restart_fresh<P: GraphProgram>(
    engine: &SlfeEngine,
    program: &P,
    previous: &ProgramResult<P::Value>,
    effect: &BatchEffect,
) -> ProgramResult<P::Value> {
    let mut warm = WarmResult::new(previous.clone());
    engine.restart(program, &mut warm, effect);
    warm.result().clone()
}

/// `effect` with its invalidation pass seeded from every dirty endpoint
/// instead of only the destinations of deleted or reweighted edges.
fn widened(effect: &BatchEffect) -> BatchEffect {
    BatchEffect {
        worsened_dsts: effect.dirty.clone(),
        ..effect.clone()
    }
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
    for workers in [1usize, 4] {
        let cluster = ClusterConfig::new(2, workers);
        let previous =
            SlfeEngine::build(graph, cluster.clone(), config.clone()).run(&make_program(graph));
        let program = make_program(&mutated);
        let warm_engine = SlfeEngine::build(&mutated, cluster.clone(), config.clone());
        let warm = restart_fresh(&warm_engine, &program, &previous, &effect);
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
                    &random_batch(&rmat, seed, 25, GROW),
                    EngineConfig::default(),
                    |_| sssp::SsspProgram { root },
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
                AppKind::Bfs => check_warm_equals_cold(
                    &rmat,
                    &random_batch(&rmat, seed + 1, 25, GROW),
                    EngineConfig::default(),
                    |_| bfs::BfsProgram { root },
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
                AppKind::WidestPath => check_warm_equals_cold(
                    &rmat,
                    &random_batch(&rmat, seed + 2, 25, GROW),
                    EngineConfig::default(),
                    |_| widestpath::WidestPathProgram { root },
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
                AppKind::ConnectedComponents => check_warm_equals_cold(
                    &sym,
                    &random_batch(&sym, seed + 3, 18, BatchShape::Symmetric),
                    EngineConfig::default(),
                    cc::CcProgram::for_graph,
                    |w, c, k| assert_bits_equal(w, c, k, app),
                ),
                AppKind::PageRank => check_warm_equals_cold(
                    &rmat,
                    &random_batch(&rmat, seed + 4, 20, GROW),
                    exact_config(),
                    pagerank::PageRankProgram::for_graph,
                    |w, c, k| assert_close(w, c, k, app, 1e-5),
                ),
                AppKind::TunkRank => check_warm_equals_cold(
                    &rmat,
                    &random_batch(&rmat, seed + 5, 20, FIXED),
                    exact_config(),
                    |_| tunkrank::TunkRankProgram::default(),
                    |w, c, k| assert_close(w, c, k, app, 1e-5),
                ),
                AppKind::SpMV => check_warm_equals_cold(
                    &rmat,
                    &random_batch(&rmat, seed + 6, 20, GROW),
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
                    &random_batch(&rmat, seed + 7, 20, FIXED),
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
                    &random_batch(&dag, seed + 8, 15, BatchShape::Dag),
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
        let check = |graph: &Graph, batch: &UpdateBatch, wide: bool| {
            let (mutated, effect) = graph.apply_batch(batch);
            let effect = if wide { widened(&effect) } else { effect };
            let previous = SlfeEngine::build(graph, cluster.clone(), EngineConfig::default())
                .run(&CcProgram::default());
            let warm_engine = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default());
            let warm = restart_fresh(&warm_engine, &CcProgram::default(), &previous, &effect);
            let cold = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default())
                .run(&CcProgram::default());
            assert_eq!(warm.values, cold.values, "CC bridge cut diverges");
        };
        check(&cc_graph, &cc_batch, true);
        check(&cc_graph, &cc_batch, false);

        let (mutated, effect) = wp_graph.apply_batch(&wp_batch);
        let program = WidestPathProgram { root: 0 };
        let previous =
            SlfeEngine::build(&wp_graph, cluster.clone(), EngineConfig::default()).run(&program);
        let warm = restart_fresh(
            &SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default()),
            &program,
            &previous,
            &effect,
        );
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
        let warm = restart_fresh(&engine, &program, &previous, &effect);
        let cold = SlfeEngine::build(&mutated, cluster, EngineConfig::default()).run(&program);
        assert_eq!(warm.values, cold.values, "{workers} workers");
        assert_eq!(warm.values, vec![0.0, 51.0, 40.0, 50.0]);
    }
}

/// The invalidation pass seeded from the worsened destinations only (the
/// batch's own effect) against one seeded from every dirty endpoint: both
/// give a cold run's bits, and the narrow seed does no more work.
#[test]
fn narrow_invalidation_seeds_match_wide_ones_with_no_more_work() {
    for seed in 0..2u64 {
        let rmat = generators::rmat(220, 1500, 0.57, 0.19, 0.19, seed + 1500);
        let root = slfe::graph::stats::highest_out_degree_vertex(&rmat).unwrap();
        let batch = random_batch(&rmat, seed + 40, 25, GROW);
        let (mutated, effect) = rmat.apply_batch(&batch);
        let cluster = ClusterConfig::new(2, 2);
        let program = sssp::SsspProgram { root };
        let previous =
            SlfeEngine::build(&rmat, cluster.clone(), EngineConfig::default()).run(&program);
        let engine = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default());
        let wide = restart_fresh(&engine, &program, &previous, &widened(&effect));
        let narrow = restart_fresh(&engine, &program, &previous, &effect);
        let cold = SlfeEngine::build(&mutated, cluster, EngineConfig::default()).run(&program);
        for v in 0..mutated.num_vertices() {
            assert_eq!(wide.values[v].to_bits(), cold.values[v].to_bits());
            assert_eq!(narrow.values[v].to_bits(), cold.values[v].to_bits());
        }
        // The narrow pass can only do less invalidation work.
        assert!(narrow.stats.totals.work() <= wide.stats.totals.work());
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
    let cluster = ClusterConfig::new(2, 1);
    let program = sssp::SsspProgram { root };
    let previous =
        SlfeEngine::build(&graph, cluster.clone(), EngineConfig::default()).run(&program);
    let warm = restart_fresh(
        &SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default()),
        &program,
        &previous,
        &effect,
    );
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

/// A seeded random batch sized as `percent` of the graph's edges.
/// `delete_share` of the draws delete one of a random source's out-edges; the
/// rest upsert random ones.
fn make_batch(graph: &Graph, percent: f64, delete_share: f64, seed: u64) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = graph.num_vertices() as u32;
    let ops = ((graph.num_edges() as f64 * percent / 100.0).round() as usize).max(1);
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let src = rng.range_u32(0, n);
        if rng.next_f64() >= delete_share {
            batch.insert(src, rng.range_u32(0, n), rng.range_f32(1.0, 10.0));
        } else {
            let outs = graph.out_neighbors(src);
            if !outs.is_empty() {
                batch.delete(src, outs[rng.range_usize(0, outs.len())]);
            }
        }
    }
    batch
}

/// Incremental serving's gate at 100k vertices: one batch of 1% of the edges,
/// insert-only and with 10% deletions (the cascade-heavy mix), applied by an
/// SSSP `DeltaServer` must converge and do at least 5x less counted work
/// (invalidation included) than a cold run on the mutated graph.
#[test]
fn one_percent_batches_at_100k_vertices_save_5x_work() {
    let graph = generators::rmat(100_000, 1_000_000, 0.57, 0.19, 0.19, 2026);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap();
    let engine = EngineConfig::default().with_trace(false);
    for (mode, delete_share) in [("insert", 0.0), ("mixed", 0.1)] {
        let config = ServerConfig {
            cluster: ClusterConfig::new(2, 2),
            engine: engine.clone(),
            ..ServerConfig::default()
        };
        let mut server = DeltaServer::try_new(
            graph.clone(),
            move |_: &Graph| sssp::SsspProgram { root },
            config,
        )
        .unwrap();
        let batch = make_batch(&graph, 1.0, delete_share, 9010);
        let outcome = server.try_apply(&batch).unwrap();
        assert!(outcome.converged, "{mode}: warm serving run must converge");

        let (mutated, _) = graph.apply_batch(&batch);
        let cold = SlfeEngine::build(&mutated, ClusterConfig::new(2, 2), engine.clone())
            .run(&sssp::SsspProgram { root });
        let cold_work = cold.stats.totals.work();
        let ratio = cold_work as f64 / outcome.work.max(1) as f64;
        eprintln!(
            "{mode}: {} warm vs {cold_work} cold work ({ratio:.1}x)",
            outcome.work
        );
        assert!(
            cold_work >= 5 * outcome.work.max(1),
            "{mode}: a 1% batch saved only {ratio:.1}x counted work"
        );
    }
}

/// The arithmetic warm restart the engine must reproduce bit for bit: each
/// iteration re-pulls every vertex over its in-edges in CSC order from the
/// previous iteration's values, applies `apply` then `vertex_update`, writes
/// a value only when `changed` says so, and stops when nothing changed.
/// Returns the values and the iteration count (the cap when it never stops).
fn full_sweep_restart<P: GraphProgram>(
    graph: &Graph,
    program: &P,
    previous: &[P::Value],
    config: &EngineConfig,
) -> (Vec<P::Value>, u32) {
    let degrees = Degrees::of(graph);
    let mut values: Vec<P::Value> = graph
        .vertices()
        .map(|v| match previous.get(v as usize) {
            Some(&old) if !program.warm_start_resets() => old,
            _ => program.initial_value(v, &degrees),
        })
        .collect();
    for iteration in 1..=config.max_iterations {
        let last = values.clone();
        let mut changed = false;
        for v in graph.vertices() {
            let mut gathered = program.identity();
            for (u, w) in graph.in_edges(v) {
                if let Some(c) = program.edge_contribution(u, last[u as usize], w) {
                    gathered = program.combine(gathered, c);
                }
            }
            let old = last[v as usize];
            let new = program.vertex_update(v, program.apply(v, old, gathered), &degrees);
            if program.changed(old, new, config.tolerance) {
                values[v as usize] = new;
                changed = true;
            }
        }
        if !changed {
            return (values, iteration);
        }
    }
    (values, config.max_iterations)
}

/// Warm-restart `make_program` across `batch` and require the restart to
/// equal [`full_sweep_restart`] bit for bit (`bits` encodes one value), with
/// the same iteration count, at 2×{1, 2, 4} workers, in memory and out of
/// core. The previous result comes from a rulers-off run (an exact
/// fixpoint) and from a ruler-gated one, after which the first pull must be
/// full; `selective_first` requires the first pull from the rulers-off
/// result to be selective, so that the run really starts selectively.
fn check_warm_equals_full_sweep<P, PF>(
    graph: &Graph,
    batch: &UpdateBatch,
    config: EngineConfig,
    make_program: PF,
    bits: impl Fn(P::Value) -> u64,
    selective_first: bool,
    label: &str,
) where
    P: GraphProgram,
    PF: Fn(&Graph) -> P,
{
    let (mutated, effect) = graph.apply_batch(batch);
    let program = make_program(&mutated);
    let encode = |values: &[P::Value]| values.iter().map(|&v| bits(v)).collect::<Vec<u64>>();
    for rulers in [RedundancyMode::Disabled, RedundancyMode::Enabled] {
        let previous = SlfeEngine::build(
            graph,
            ClusterConfig::new(2, 1),
            config.clone().with_redundancy(rulers),
        )
        .run(&make_program(graph));
        let exact = rulers == RedundancyMode::Disabled;
        assert_eq!(
            previous.exact_fixpoint, exact,
            "{label}: only a converged rulers-off run is an exact fixpoint"
        );
        let (expected, iterations) =
            full_sweep_restart(&mutated, &program, &previous.values, &config);
        for workers in [1usize, 2, 4] {
            for oocore in [false, true] {
                let engine_config = if oocore {
                    config
                        .clone()
                        .with_storage_budget(24 << 10)
                        .with_storage_segment_bytes(2 << 10)
                } else {
                    config.clone()
                };
                let engine =
                    SlfeEngine::build(&mutated, ClusterConfig::new(2, workers), engine_config);
                let warm = restart_fresh(&engine, &program, &previous, &effect);
                let case = format!(
                    "{label}: from a {rulers:?}-rulers result, 2x{workers}, out of core {oocore}"
                );
                assert!(warm.converged, "{case}: did not converge");
                assert_eq!(warm.stats.iterations, iterations, "{case}: iterations");
                assert!(
                    encode(&warm.values) == encode(&expected),
                    "{case}: values differ from the full sweep"
                );
                // A full pull folds every in-edge once: exactly |E|.
                let first = warm.stats.trace.records()[0].counters.edge_computations;
                assert_eq!(
                    first != mutated.num_edges() as u64,
                    exact && selective_first,
                    "{case}: first pull did {first} edge computations"
                );
            }
        }
    }
}

/// Selective pulls are exact, not merely close: for each of the five
/// arithmetic apps, a warm restart equals the full-sweep reference bit for
/// bit, with and without vertex growth. (The warm-equals-cold suite above
/// compares PageRank and TunkRank with cold only within 1e-5, which a
/// wrongly skipped vertex could still pass.) The graphs are large enough
/// for the batch's first pull to stay under the full-pull threshold;
/// Heat's warm hook restarts every heated vertex, so its first pull is
/// always full and a small graph keeps its long trajectory cheap.
#[test]
fn arithmetic_warm_restarts_equal_the_full_sweep_bit_for_bit() {
    let rmat = generators::rmat(2000, 16_000, 0.57, 0.19, 0.19, 930);
    let small = generators::rmat(260, 1700, 0.57, 0.19, 0.19, 930);
    let dag = generators::layered(12, 200, 4, 97);
    let root = slfe::graph::stats::highest_out_degree_vertex(&small).unwrap();
    let f32_bits = |v: f32| u64::from(v.to_bits());
    for growth in [false, true] {
        let label = |app: AppKind| format!("{app} (growth {growth})");
        let mut batch = random_batch(&rmat, 3100 + growth as u64, 8, FIXED);
        let mut small_batch = random_batch(&small, 3150 + growth as u64, 20, FIXED);
        // DAG-preserving: new ids only ever receive edges.
        let mut dag_edits = random_batch(&dag, 3200 + growth as u64, 8, BatchShape::Dag);
        if growth {
            batch.insert(7, rmat.num_vertices() as u32 + 2, 2.0);
            small_batch.insert(7, small.num_vertices() as u32 + 2, 2.0);
            dag_edits.insert(3, dag.num_vertices() as u32 + 1, 1.0);
        }
        check_warm_equals_full_sweep(
            &rmat,
            &batch,
            exact_config(),
            pagerank::PageRankProgram::for_graph,
            f32_bits,
            !growth,
            &label(AppKind::PageRank),
        );
        check_warm_equals_full_sweep(
            &rmat,
            &batch,
            exact_config(),
            |_| tunkrank::TunkRankProgram::default(),
            f32_bits,
            !growth,
            &label(AppKind::TunkRank),
        );
        check_warm_equals_full_sweep(
            &rmat,
            &batch,
            exact_config(),
            |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
            |(x, y): (f32, f32)| u64::from(x.to_bits()) << 32 | u64::from(y.to_bits()),
            !growth,
            &label(AppKind::SpMV),
        );
        check_warm_equals_full_sweep(
            &small,
            &small_batch,
            exact_config()
                .with_tolerance(1e-6)
                .with_max_iterations(3000),
            |g: &Graph| heat::HeatProgram::point_source(g, root),
            f32_bits,
            false,
            &label(AppKind::HeatSimulation),
        );
        check_warm_equals_full_sweep(
            &dag,
            &dag_edits,
            exact_config(),
            |_| numpaths::NumPathsProgram { root: 0 },
            f32_bits,
            !growth,
            &label(AppKind::NumPaths),
        );
    }
}

/// The PageRank sibling of `warm_start_saves_work_on_serving_sized_batches`:
/// from a rulers-off fixpoint, each of five serving-sized batches (16 random
/// insertions, the sibling's batch shape) re-pulls the neighbourhood it
/// disturbed, not the graph. A full sweep costs exactly |E| edge
/// computations per iteration, so each restart must stay within a fifth of
/// `iterations × |E|`.
#[test]
fn arithmetic_warm_restarts_pull_only_what_changed() {
    let mut graph = generators::rmat(20_000, 200_000, 0.57, 0.19, 0.19, 2029);
    let cluster = ClusterConfig::new(2, 1);
    let mut previous = SlfeEngine::build(&graph, cluster.clone(), exact_config())
        .run(&pagerank::PageRankProgram::for_graph(&graph));
    assert!(previous.exact_fixpoint);
    let mut rng = SplitMix64::seed_from_u64(13);
    for round in 0..5 {
        let n = graph.num_vertices() as u32;
        let mut batch = UpdateBatch::new();
        for _ in 0..16 {
            batch.insert(
                rng.range_u32(0, n),
                rng.range_u32(0, n),
                rng.range_f32(4.0, 10.0),
            );
        }
        let (mutated, effect) = graph.apply_batch(&batch);
        let warm = restart_fresh(
            &SlfeEngine::build(&mutated, cluster.clone(), exact_config()),
            &pagerank::PageRankProgram::for_graph(&mutated),
            &previous,
            &effect,
        );
        assert!(warm.converged && warm.exact_fixpoint, "round {round}");
        let full_sweeps = u64::from(warm.stats.iterations) * mutated.num_edges() as u64;
        assert!(
            warm.stats.totals.edge_computations * 5 <= full_sweeps,
            "round {round}: {} edge computations, full sweeps would do {full_sweeps}",
            warm.stats.totals.edge_computations
        );
        graph = mutated;
        previous = warm;
    }
}

/// Every vertex whose value bits differ from `previous` (or that `warm`
/// appended) is in `warm.changed`.
fn assert_lists_every_move<V: Copy>(
    previous: &[V],
    warm: &ProgramResult<V>,
    bits: impl Fn(V) -> u64,
    case: &str,
) {
    let changed = warm.changed.as_ref().expect("a warm restart lists changes");
    let mut listed = Bitset::new(warm.values.len());
    changed.iter().for_each(|&v| listed.set(v as usize));
    for (v, &value) in warm.values.iter().enumerate() {
        let moved = previous.get(v).is_none_or(|&old| bits(old) != bits(value));
        assert!(
            !moved || listed.get(v),
            "{case}: vertex {v} moved but is not listed"
        );
    }
}

/// Run `make_program` over a chain of four seeded batches of `shape` on
/// `graph` (the second one appends vertices when `shape` allows growth) —
/// warm restarts, except one full-recompute fallback (a cold run) at the
/// third batch — in memory and out of core at 2×{1, 2, 4} workers,
/// and check every warm restart's `ProgramResult::changed` against the
/// values it reports: ascending, covering every vertex whose value bits
/// differ from the previous result (appended vertices included), no longer
/// than `vertex_updates` plus the re-seeded and appended vertices, and
/// identical in every configuration. Runs from initial values report none.
fn check_changed_lists<P, PF>(
    graph: &Graph,
    shape: BatchShape,
    seed: u64,
    config: EngineConfig,
    make_program: PF,
    bits: impl Fn(P::Value) -> u64,
    label: &str,
) where
    P: GraphProgram,
    PF: Fn(&Graph) -> P,
{
    let mut lists: Option<Vec<Vec<u32>>> = None;
    for oocore in [false, true] {
        for workers in [1usize, 2, 4] {
            let case = format!("{label}: 2x{workers}, out of core {oocore}");
            let engine_config = if oocore {
                config
                    .clone()
                    .with_storage_budget(24 << 10)
                    .with_storage_segment_bytes(2 << 10)
            } else {
                config.clone()
            };
            let cluster = ClusterConfig::new(2, workers);
            let mut current = graph.clone();
            let mut previous = SlfeEngine::build(&current, cluster.clone(), engine_config.clone())
                .run(&make_program(&current));
            assert!(
                previous.changed.is_none(),
                "{case}: a cold run lists nothing"
            );
            let mut ours = Vec::new();
            for step in 0..4u64 {
                let mut batch = random_batch(&current, seed + step, 20, shape);
                if step == 1 && shape == GROW {
                    // Growth is a draw away; make sure one batch appends.
                    batch.insert(0, current.num_vertices() as u32 + 2, 1.5);
                }
                let (mutated, effect) = current.apply_batch(&batch);
                let program = make_program(&mutated);
                let fallback = step == 2;
                let warm = {
                    let engine =
                        SlfeEngine::build(&mutated, cluster.clone(), engine_config.clone());
                    if fallback {
                        engine.run(&program)
                    } else {
                        restart_fresh(&engine, &program, &previous, &effect)
                    }
                };
                if fallback {
                    assert!(warm.changed.is_none(), "{case}: the fallback lists nothing");
                    (current, previous) = (mutated, warm);
                    continue;
                }
                let changed = warm.changed.clone().expect("a warm restart lists changes");
                assert!(
                    changed.windows(2).all(|w| w[0] < w[1]),
                    "{case}, step {step}: not ascending"
                );
                let n = mutated.num_vertices();
                assert_lists_every_move(
                    &previous.values,
                    &warm,
                    &bits,
                    &format!("{case}, step {step}"),
                );
                let degrees = Degrees::of(&mutated);
                let reseeded = (0..previous.values.len())
                    .filter(|&v| {
                        program.warm_start_resets()
                            && program.initial_value(v as u32, &degrees) != previous.values[v]
                    })
                    .count();
                let appended = n - previous.values.len();
                let bound = warm.stats.totals.vertex_updates as usize + reseeded + appended;
                assert!(
                    changed.len() <= bound,
                    "{case}, step {step}: {} listed, at most {bound} expected",
                    changed.len()
                );
                ours.push(changed);
                (current, previous) = (mutated, warm);
            }
            match &lists {
                None => lists = Some(ours),
                Some(first) => assert_eq!(&ours, first, "{case}: lists differ"),
            }
        }
    }
}

#[test]
fn warm_restarts_list_every_changed_vertex_identically_at_every_worker_count() {
    // Cut bridges first: the stranded vertices fall back to their initial
    // values and no phase writes them, so only the invalidation lists them.
    use slfe::apps::widestpath::WidestPathProgram;
    use slfe::graph::GraphBuilder;
    let f32_bits = |v: f32| u64::from(v.to_bits());
    let mut b = GraphBuilder::new().symmetric(true);
    b.add_unweighted(0, 1).add_unweighted(1, 2);
    let path = b.build();
    let mut cut = UpdateBatch::new();
    cut.delete_symmetric(0, 1);
    let (cut_path, cut_effect) = path.apply_batch(&cut);
    let mut b = GraphBuilder::new();
    b.extend_weighted([(0, 1, 10.0), (1, 2, 10.0), (2, 1, 10.0)]);
    let widest = b.build();
    let mut cut = UpdateBatch::new();
    cut.delete(0, 1);
    let (cut_widest, widest_effect) = widest.apply_batch(&cut);
    let engine = |g| SlfeEngine::build(g, ClusterConfig::new(2, 1), EngineConfig::default());
    let cc = cc::CcProgram::default();
    let previous = engine(&path).run(&cc);
    let warm = restart_fresh(&engine(&cut_path), &cc, &previous, &cut_effect);
    assert_eq!(warm.values, vec![0.0, 1.0, 1.0]);
    assert_lists_every_move(&previous.values, &warm, f32_bits, "CC bridge cut");
    let wp = WidestPathProgram { root: 0 };
    let previous = engine(&widest).run(&wp);
    let warm = restart_fresh(&engine(&cut_widest), &wp, &previous, &widest_effect);
    assert_eq!(warm.values, vec![f32::INFINITY, 0.0, 0.0]);
    assert_lists_every_move(&previous.values, &warm, f32_bits, "WidestPath bridge cut");

    let rmat = generators::rmat(260, 1700, 0.57, 0.19, 0.19, 3300);
    let sym = cc::symmetrize(&generators::rmat(200, 900, 0.57, 0.19, 0.19, 3301));
    let dag = generators::layered(8, 30, 4, 3302);
    let root = slfe::graph::stats::highest_out_degree_vertex(&rmat).unwrap();
    for app in AppKind::ALL {
        let label = app.to_string();
        match app {
            AppKind::Sssp => check_changed_lists(
                &rmat,
                GROW,
                10,
                EngineConfig::default(),
                |_| sssp::SsspProgram { root },
                f32_bits,
                &label,
            ),
            AppKind::Bfs => check_changed_lists(
                &rmat,
                GROW,
                20,
                EngineConfig::default(),
                |_| bfs::BfsProgram { root },
                f32_bits,
                &label,
            ),
            AppKind::WidestPath => check_changed_lists(
                &rmat,
                GROW,
                30,
                EngineConfig::default(),
                |_| widestpath::WidestPathProgram { root },
                f32_bits,
                &label,
            ),
            AppKind::ConnectedComponents => check_changed_lists(
                &sym,
                BatchShape::Symmetric,
                40,
                EngineConfig::default(),
                cc::CcProgram::for_graph,
                f32_bits,
                &label,
            ),
            AppKind::PageRank => check_changed_lists(
                &rmat,
                GROW,
                50,
                exact_config(),
                pagerank::PageRankProgram::for_graph,
                f32_bits,
                &label,
            ),
            AppKind::TunkRank => check_changed_lists(
                &rmat,
                FIXED,
                60,
                exact_config(),
                |_| tunkrank::TunkRankProgram::default(),
                f32_bits,
                &label,
            ),
            AppKind::SpMV => check_changed_lists(
                &rmat,
                GROW,
                70,
                exact_config(),
                |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
                |(x, y): (f32, f32)| u64::from(x.to_bits()) << 32 | u64::from(y.to_bits()),
                &label,
            ),
            AppKind::HeatSimulation => check_changed_lists(
                &rmat,
                FIXED,
                80,
                exact_config()
                    .with_tolerance(1e-6)
                    .with_max_iterations(3000),
                |g: &Graph| heat::HeatProgram::point_source(g, root),
                f32_bits,
                &label,
            ),
            AppKind::NumPaths => check_changed_lists(
                &dag,
                BatchShape::Dag,
                90,
                exact_config(),
                |_| numpaths::NumPathsProgram { root: 0 },
                f32_bits,
                &label,
            ),
        }
    }
}

/// The counters a kept-state restart must reproduce: all of them but the
/// footprint (a kept state carries its sparse push capacity over) and the
/// segment I/O statistics (a second run finds the buffer pool warm).
fn work_counters(totals: Counters) -> Counters {
    Counters {
        scratch_bytes_peak: 0,
        segments_faulted: 0,
        segment_bytes_read: 0,
        ..totals
    }
}

/// Drive `make_program` over a chain of six steps on `graph` — seeded
/// batches of `shape` (the second one appends vertices when `shape` allows
/// growth), at the third a degree-descending remap of the warm result (the
/// physical reorder `DeltaServer::remap_now` applies: values permuted and
/// the fixpoint no longer vouched for, which drops the kept state) and at
/// the fifth a full-recompute fallback (a cold run) — in memory and out of
/// core at 2×{1, 2, 4} workers. At every batch, a restart of the
/// [`WarmResult`] ([`SlfeEngine::restart`]) must equal a fresh-state restart
/// ([`restart_fresh`]) on the same engine from the same previous result:
/// value bits, change list, iterations, convergence, exactness,
/// per-worker work and [`work_counters`]. Restarts return an empty
/// `last_changed_iter`; cold runs fill it.
fn check_kept_state<P, PF>(
    graph: &Graph,
    shape: BatchShape,
    seed: u64,
    config: EngineConfig,
    make_program: PF,
    bits: impl Fn(P::Value) -> u64,
    label: &str,
) where
    P: GraphProgram,
    PF: Fn(&Graph) -> P,
{
    let encode = |values: &[P::Value]| values.iter().map(|&v| bits(v)).collect::<Vec<u64>>();
    for oocore in [false, true] {
        for workers in [1usize, 2, 4] {
            let case = format!("{label}: 2x{workers}, out of core {oocore}");
            let engine_config = if oocore {
                config
                    .clone()
                    .with_storage_budget(24 << 10)
                    .with_storage_segment_bytes(2 << 10)
            } else {
                config.clone()
            };
            let cluster = ClusterConfig::new(2, workers);
            let mut current = graph.clone();
            let cold = SlfeEngine::build(&current, cluster.clone(), engine_config.clone())
                .run(&make_program(&current));
            assert_eq!(
                cold.last_changed_iter.len(),
                current.num_vertices(),
                "{case}"
            );
            let mut warm = WarmResult::new(cold);
            let mut restarts = 0;
            for step in 0..6u64 {
                if step == 2 {
                    let owners = ChunkingPartitioner::default().partition(&current, 2);
                    let remap = contiguous_degree_layout(
                        &current,
                        &owners,
                        ReorderPolicy::DegreeDescending,
                    );
                    assert!(!remap.is_identity(), "{case}: the remap moved nothing");
                    current = current.remapped(&remap);
                    let result = warm.result_mut();
                    result.values = remap.permuted_values(&result.values);
                    result.exact_fixpoint = false;
                    continue;
                }
                let mut batch = random_batch(&current, seed + step, 20, shape);
                if step == 1 && shape == GROW {
                    batch.insert(0, current.num_vertices() as u32 + 2, 1.5);
                }
                let (mutated, effect) = current.apply_batch(&batch);
                let program = make_program(&mutated);
                let engine = SlfeEngine::build(&mutated, cluster.clone(), engine_config.clone());
                if step == 4 {
                    let cold = engine.run(&program);
                    assert_eq!(
                        cold.last_changed_iter.len(),
                        mutated.num_vertices(),
                        "{case}"
                    );
                    warm.replace(cold);
                    current = mutated;
                    continue;
                }
                let fresh = restart_fresh(&engine, &program, warm.result(), &effect);
                engine.restart(&program, &mut warm, &effect);
                let kept = warm.result();
                let at = format!("{case}, step {step}");
                assert!(
                    encode(&kept.values) == encode(&fresh.values),
                    "{at}: values differ"
                );
                assert_eq!(kept.changed, fresh.changed, "{at}: change lists");
                assert!(kept.changed.is_some(), "{at}: a restart lists its changes");
                assert_eq!(kept.stats.iterations, fresh.stats.iterations, "{at}");
                assert_eq!(kept.converged, fresh.converged, "{at}");
                assert_eq!(kept.exact_fixpoint, fresh.exact_fixpoint, "{at}");
                assert_eq!(
                    kept.per_node_worker_work, fresh.per_node_worker_work,
                    "{at}: per-worker work"
                );
                assert_eq!(
                    work_counters(kept.stats.totals),
                    work_counters(fresh.stats.totals),
                    "{at}: counters"
                );
                assert!(
                    kept.last_changed_iter.is_empty() && fresh.last_changed_iter.is_empty(),
                    "{at}: restarts fill no last_changed_iter"
                );
                restarts += 1;
                current = mutated;
            }
            assert_eq!(restarts, 4, "{case}");
        }
    }
}

#[test]
fn kept_restart_state_is_transparent_across_batches_fallbacks_and_remaps() {
    let f32_bits = |v: f32| u64::from(v.to_bits());
    let rmat = generators::rmat(260, 1700, 0.57, 0.19, 0.19, 5300);
    let sym = cc::symmetrize(&generators::rmat(200, 900, 0.57, 0.19, 0.19, 5301));
    let dag = generators::layered(8, 30, 4, 5302);
    let root = slfe::graph::stats::highest_out_degree_vertex(&rmat).unwrap();
    for app in AppKind::ALL {
        let label = app.to_string();
        let seed = 5400 + 10 * app as u64;
        match app {
            AppKind::Sssp => check_kept_state(
                &rmat,
                GROW,
                seed,
                EngineConfig::default(),
                |g: &Graph| sssp::SsspProgram {
                    root: g.to_physical(root),
                },
                f32_bits,
                &label,
            ),
            AppKind::Bfs => check_kept_state(
                &rmat,
                GROW,
                seed,
                EngineConfig::default(),
                |g: &Graph| bfs::BfsProgram {
                    root: g.to_physical(root),
                },
                f32_bits,
                &label,
            ),
            AppKind::WidestPath => check_kept_state(
                &rmat,
                GROW,
                seed,
                EngineConfig::default(),
                |g: &Graph| widestpath::WidestPathProgram {
                    root: g.to_physical(root),
                },
                f32_bits,
                &label,
            ),
            AppKind::ConnectedComponents => check_kept_state(
                &sym,
                BatchShape::Symmetric,
                seed,
                EngineConfig::default(),
                cc::CcProgram::for_graph,
                f32_bits,
                &label,
            ),
            AppKind::PageRank => check_kept_state(
                &rmat,
                GROW,
                seed,
                exact_config(),
                pagerank::PageRankProgram::for_graph,
                f32_bits,
                &label,
            ),
            AppKind::TunkRank => check_kept_state(
                &rmat,
                GROW,
                seed,
                exact_config(),
                |_| tunkrank::TunkRankProgram::default(),
                f32_bits,
                &label,
            ),
            AppKind::SpMV => check_kept_state(
                &rmat,
                GROW,
                seed,
                exact_config(),
                |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
                |(x, y): (f32, f32)| u64::from(x.to_bits()) << 32 | u64::from(y.to_bits()),
                &label,
            ),
            AppKind::HeatSimulation => check_kept_state(
                &rmat,
                GROW,
                seed,
                exact_config()
                    .with_tolerance(1e-6)
                    .with_max_iterations(3000),
                |g: &Graph| heat::HeatProgram::point_source(g, g.to_physical(root)),
                f32_bits,
                &label,
            ),
            AppKind::NumPaths => check_kept_state(
                &dag,
                BatchShape::Dag,
                seed,
                exact_config(),
                |g: &Graph| numpaths::NumPathsProgram {
                    root: g.to_physical(0),
                },
                f32_bits,
                &label,
            ),
        }
    }
    // Capped runs end with a frontier left over, which the kept state must
    // not carry into the next restart.
    check_kept_state(
        &rmat,
        GROW,
        5500,
        EngineConfig::default().with_max_iterations(2),
        |g: &Graph| sssp::SsspProgram {
            root: g.to_physical(root),
        },
        f32_bits,
        "SSSP capped at 2 iterations",
    );
    check_kept_state(
        &rmat,
        GROW,
        5510,
        exact_config().with_max_iterations(3),
        pagerank::PageRankProgram::for_graph,
        f32_bits,
        "PageRank capped at 3 iterations",
    );
}
