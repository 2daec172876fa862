//! Activity-proportional execution acceptance tests (PR 4): the sparse push
//! scratch and the default density threshold must be bit-equivalent to the
//! dense scratch for **every registered application**
//! ([`slfe::apps::AppKind::ALL`]) at 1 and 4 workers — values, work counters
//! and per-`(src_node, dst_node)` message tallies — and the
//! chunk-level activity summaries must actually skip cold chunks in the
//! regimes the paper's workloads produce (late sparse BFS/SSSP iterations,
//! rr-gated early pulls, early-converged arithmetic chunks).

use slfe::apps::{bfs, cc, heat, numpaths, pagerank, spmv, sssp, tunkrank, widestpath, AppKind};
use slfe::core::{EngineConfig, GraphProgram, SlfeEngine, WarmResult};
use slfe::graph::{generators, Graph};
use slfe::metrics::{Counters, Mode};
use slfe::prelude::ClusterConfig;

/// Run `program` three times — dense scratch forced (`sparse_push_density =
/// 0`), the default density threshold, and sparse scratch forced (`> 1`) —
/// and require bit-identical values (via `compare`), identical counters (the
/// scratch footprint aside) and identical per-node-pair message tallies.
fn check_sparse_equals_dense<P, V, PF, C>(
    graph: &Graph,
    config: EngineConfig,
    make_program: PF,
    compare: C,
) where
    P: GraphProgram<Value = V>,
    V: Copy + Send + Sync + std::fmt::Debug,
    PF: Fn(&Graph) -> P,
    C: Fn(&[V], &[V], usize),
{
    let strip_peak = |c: Counters| Counters {
        scratch_bytes_peak: 0,
        ..c
    };
    for workers in [1usize, 4] {
        let run = |config: EngineConfig| {
            let engine = SlfeEngine::build(graph, ClusterConfig::new(2, workers), config);
            let result = engine.run(&make_program(graph));
            let tracker = engine.cluster().comm_tracker();
            let messages: Vec<u64> = (0..4)
                .map(|pair| tracker.messages_between(pair / 2, pair % 2))
                .collect();
            (result, messages)
        };
        let (dense, dense_messages) = run(config.clone().with_sparse_push_density(0.0));
        for (label, other_config) in [
            ("default", config.clone()),
            ("sparse", config.clone().with_sparse_push_density(2.0)),
        ] {
            let (other, other_messages) = run(other_config);
            compare(&dense.values, &other.values, workers);
            assert_eq!(dense.stats.iterations, other.stats.iterations);
            assert_eq!(dense.converged, other.converged);
            assert_eq!(
                strip_peak(dense.stats.totals),
                strip_peak(other.stats.totals),
                "counters diverge between dense and {label} scratch at {workers} workers"
            );
            assert_eq!(
                dense_messages, other_messages,
                "message tallies diverge between dense and {label} scratch at {workers} workers"
            );
        }
    }
}

fn assert_bits_equal(dense: &[f32], sparse: &[f32], workers: usize, app: AppKind) {
    assert_eq!(dense.len(), sparse.len());
    for (v, (a, b)) in dense.iter().zip(sparse).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{app}: vertex {v} diverges at {workers} workers ({a} vs {b})"
        );
    }
}

#[test]
fn every_registered_program_is_bit_identical_under_sparse_and_dense_scratch() {
    let rmat = generators::rmat(320, 2100, 0.57, 0.19, 0.19, 4100);
    let sym = cc::symmetrize(&generators::rmat(220, 1000, 0.57, 0.19, 0.19, 4150));
    let dag = generators::layered(8, 30, 4, 41);
    let root = slfe::graph::stats::highest_out_degree_vertex(&rmat).unwrap();

    for app in AppKind::ALL {
        eprintln!("checking {app}");
        match app {
            AppKind::Sssp => check_sparse_equals_dense(
                &rmat,
                EngineConfig::default(),
                |_| sssp::SsspProgram { root },
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::Bfs => check_sparse_equals_dense(
                &rmat,
                EngineConfig::default(),
                |_| bfs::BfsProgram { root },
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::WidestPath => check_sparse_equals_dense(
                &rmat,
                EngineConfig::default(),
                |_| widestpath::WidestPathProgram { root },
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::ConnectedComponents => check_sparse_equals_dense(
                &sym,
                EngineConfig::default(),
                cc::CcProgram::for_graph,
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            // Arithmetic programs never push — the checks still pin that the
            // pull-side skipping and lazily-absent push scratch leave their
            // whole execution (values, counters, messages) untouched by the
            // density knob.
            AppKind::PageRank => check_sparse_equals_dense(
                &rmat,
                EngineConfig::default(),
                pagerank::PageRankProgram::for_graph,
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::TunkRank => check_sparse_equals_dense(
                &rmat,
                EngineConfig::default(),
                |_| tunkrank::TunkRankProgram::default(),
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::SpMV => check_sparse_equals_dense(
                &rmat,
                EngineConfig::default(),
                |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
                |d: &[(f32, f32)], s: &[(f32, f32)], k| {
                    for (v, (a, b)) in d.iter().zip(s).enumerate() {
                        assert_eq!(
                            (a.0.to_bits(), a.1.to_bits()),
                            (b.0.to_bits(), b.1.to_bits()),
                            "SpMV: vertex {v} diverges at {k} workers"
                        );
                    }
                },
            ),
            AppKind::HeatSimulation => check_sparse_equals_dense(
                &rmat,
                EngineConfig::default().with_max_iterations(120),
                |g: &Graph| heat::HeatProgram::point_source(g, root),
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::NumPaths => check_sparse_equals_dense(
                &dag,
                EngineConfig::default(),
                |_| numpaths::NumPathsProgram { root: 0 },
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
        }
    }
}

/// A warm restart over a small batch is push-only with a tiny frontier, so
/// under the default density threshold every phase uses the sparse maps: the
/// `total_workers × O(n)` dense scratch must never materialise.
#[test]
fn warm_push_only_restarts_never_allocate_dense_scratch() {
    let graph = generators::rmat(6000, 48_000, 0.57, 0.19, 0.19, 4200);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap();
    let program = sssp::SsspProgram { root };
    let cluster = ClusterConfig::new(2, 4);
    let mut warm = WarmResult::new(
        SlfeEngine::build(&graph, cluster.clone(), EngineConfig::default()).run(&program),
    );

    // Perturb quiet corners of the graph (R-MAT concentrates degree on low
    // ids): the push scratch holds one entry per out-edge of an active
    // vertex, so the footprint pin needs a disturbance with small fanout.
    let quiet: Vec<u32> = (0..graph.num_vertices() as u32)
        .filter(|&v| graph.out_degree(v) <= 2 && graph.in_degree(v) <= 2)
        .take(4)
        .collect();
    assert!(quiet.len() == 4, "graph has no quiet vertices to perturb");
    let mut batch = slfe::graph::UpdateBatch::new();
    batch
        .insert(quiet[0], quiet[1], 1.0)
        .insert(quiet[2], quiet[3], 2.5);
    let (mutated, effect) = graph.apply_batch(&batch);
    let engine = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default());
    engine.restart(&program, &mut warm, &effect);
    let warm = warm.result();
    assert!(warm.converged);

    // The dense trio would cost at least one 4-byte value per vertex per
    // worker; the sparse maps for a 4-endpoint disturbance stay far below a
    // single worker's share of that.
    let n = mutated.num_vertices() as u64;
    assert!(
        warm.stats.totals.scratch_bytes_peak < 4 * n,
        "warm restart allocated dense-sized scratch: {} bytes for |V| = {n}",
        warm.stats.totals.scratch_bytes_peak
    );
    assert!(
        warm.stats.totals.scratch_bytes_peak > 0,
        "sparse maps should report their footprint"
    );

    // A dense-forced cold run on the same graph pays the full footprint:
    // every pool worker's value buffer alone is 4n bytes.
    let dense_cold = SlfeEngine::build(
        &mutated,
        cluster.clone(),
        EngineConfig::default().with_sparse_push_density(0.0),
    )
    .run(&program);
    let total_workers = cluster.total_workers() as u64;
    assert!(
        dense_cold.stats.totals.scratch_bytes_peak >= total_workers * 4 * n,
        "dense scratch should cost every worker its O(n) buffers, got {}",
        dense_cold.stats.totals.scratch_bytes_peak
    );
    assert!(
        dense_cold.stats.totals.scratch_bytes_peak > warm.stats.totals.scratch_bytes_peak * 20,
        "dense scratch ({}) should dwarf the warm sparse footprint ({})",
        dense_cold.stats.totals.scratch_bytes_peak,
        warm.stats.totals.scratch_bytes_peak
    );
}

/// Late BFS/SSSP iterations have near-empty frontiers: the push-phase activity
/// summaries must skip whole cold chunks, and the per-iteration trace must
/// show the skips happening in the sparse tail, tracking the active set.
#[test]
fn late_sparse_iterations_skip_cold_chunks() {
    // A deep layered graph: the frontier is one layer wide, so at any
    // iteration all chunks outside the moving wave are cold.
    let graph = generators::layered(24, 400, 6, 4300);
    let config = EngineConfig::default();
    for (app, result) in [
        (
            "sssp",
            SlfeEngine::build(&graph, ClusterConfig::new(2, 2), config.clone())
                .run(&sssp::SsspProgram { root: 0 }),
        ),
        (
            "bfs",
            SlfeEngine::build(&graph, ClusterConfig::new(2, 2), config.clone())
                .run(&bfs::BfsProgram { root: 0 }),
        ),
    ] {
        assert!(
            result.stats.totals.chunks_skipped > 0,
            "{app}: no chunks skipped on a frontier one layer wide"
        );
        // Push iterations with a sub-chunk frontier must skip chunks.
        let push_skips: u64 = result
            .stats
            .trace
            .records()
            .iter()
            .filter(|r| r.mode == Mode::Push && r.active_vertices > 0 && r.active_vertices < 256)
            .map(|r| r.counters.chunks_skipped)
            .sum();
        assert!(
            push_skips > 0,
            "{app}: sparse push iterations visited every chunk"
        );
    }
}

/// The "start late" ruler gates whole chunks in early pull iterations
/// (`iter < min last_iter` over the chunk), and the "finish early" ruler
/// retires whole chunks in late arithmetic iterations — both must surface as
/// pull-phase chunk skips.
#[test]
fn rulers_skip_whole_chunks_in_pull_phases() {
    // One layer is ~10% of all edges, comfortably above the 5% pull threshold,
    // so the wave's middle iterations run in pull mode while deeper chunks are
    // still rr-gated.
    let graph = generators::layered(10, 1000, 6, 4400);

    // Min/max: deep chunks are rr-gated while the pull wave is still shallow.
    let sssp = SlfeEngine::build(&graph, ClusterConfig::new(2, 2), EngineConfig::default())
        .run(&sssp::SsspProgram { root: 0 });
    let pull_skips: u64 = sssp
        .stats
        .trace
        .records()
        .iter()
        .filter(|r| r.mode == Mode::Pull)
        .map(|r| r.counters.chunks_skipped)
        .sum();
    assert!(
        pull_skips > 0,
        "rr-gated pull phases visited every chunk (skipped total: {})",
        sssp.stats.totals.chunks_skipped
    );
    // No-RR oracle: identical distances with or without chunk skipping.
    let no_rr = SlfeEngine::build(&graph, ClusterConfig::new(2, 2), EngineConfig::without_rr())
        .run(&sssp::SsspProgram { root: 0 });
    for v in 0..graph.num_vertices() {
        let (a, b) = (sssp.values[v], no_rr.values[v]);
        assert!((a.is_infinite() && b.is_infinite()) || a.to_bits() == b.to_bits());
    }

    // Arithmetic: early-converged chunks retire from late pull iterations.
    let pr = SlfeEngine::build(
        &graph,
        ClusterConfig::new(2, 2),
        EngineConfig::default().with_max_iterations(150),
    )
    .run(&pagerank::PageRankProgram::for_graph(&graph));
    assert!(
        pr.stats.totals.chunks_skipped > 0,
        "no arithmetic chunk fully early-converged"
    );
}

/// Every phase, push and pull, runs on one chunked executor at every worker
/// count — `workers_per_node: 1` included — and chunk skipping, scratch
/// representation and push accounting are decided from barrier-merged state
/// only. So the full counters (the scratch footprint aside: it grows with the
/// pool) and every per-node-pair message tally must be identical at 1, 2 and
/// 4 workers per node, for pull-only PageRank and push/pull SSSP and BFS.
#[test]
fn chunk_skip_tallies_are_worker_count_invariant() {
    fn check<P: GraphProgram>(graph: &Graph, app: &str, program: &P) {
        let mut tallies = Vec::new();
        for workers in [1usize, 2, 4] {
            let engine = SlfeEngine::build(
                graph,
                ClusterConfig::new(2, workers),
                EngineConfig::default(),
            );
            let result = engine.run(program);
            let activity = engine.pool().activity();
            assert!(
                workers == 1 || activity.phases > activity.inline_phases,
                "{app}: the run at {workers} workers made no pool round trip"
            );
            let counters = Counters {
                scratch_bytes_peak: 0,
                ..result.stats.totals
            };
            let tracker = engine.cluster().comm_tracker();
            let messages: Vec<u64> = (0..4)
                .map(|pair| tracker.messages_between(pair / 2, pair % 2))
                .collect();
            tallies.push((workers, counters, messages));
        }
        assert!(
            tallies[0].1.chunks_skipped > 0,
            "{app}: no chunk skipped, so the check is vacuous"
        );
        for (workers, counters, messages) in &tallies[1..] {
            assert_eq!(
                *counters, tallies[0].1,
                "{app}: counters at {workers} workers differ from 1 worker"
            );
            assert_eq!(
                *messages, tallies[0].2,
                "{app}: message tallies at {workers} workers differ from 1 worker"
            );
        }
    }

    let graph = generators::layered(16, 300, 5, 4500);
    check(
        &graph,
        "pagerank",
        &pagerank::PageRankProgram::for_graph(&graph),
    );
    check(&graph, "sssp", &sssp::SsspProgram { root: 0 });
    check(&graph, "bfs", &bfs::BfsProgram { root: 0 });
}

/// The warm-restart sibling of `chunk_skip_tallies_are_worker_count_invariant`:
/// an arithmetic warm restart builds the set each pull visits from
/// barrier-merged state, so one PageRank restart's full counters (chunk
/// skips included) and per-node-pair message tallies are identical at
/// 2×{1, 2, 4} workers.
#[test]
fn warm_restart_tallies_are_worker_count_invariant() {
    let graph = generators::rmat(4000, 32_000, 0.57, 0.19, 0.19, 4600);
    let config = EngineConfig::without_rr().with_max_iterations(400);
    let previous = SlfeEngine::build(&graph, ClusterConfig::new(2, 1), config.clone())
        .run(&pagerank::PageRankProgram::for_graph(&graph));
    let mut batch = slfe::graph::UpdateBatch::new();
    batch
        .insert(3, 3100, 1.0)
        .insert(2900, 41, 1.0)
        .delete(0, graph.out_neighbors(0)[0]);
    let (mutated, effect) = graph.apply_batch(&batch);
    let program = pagerank::PageRankProgram::for_graph(&mutated);
    let mut tallies = Vec::new();
    for workers in [1usize, 2, 4] {
        let engine = SlfeEngine::build(&mutated, ClusterConfig::new(2, workers), config.clone());
        let mut warm = WarmResult::new(previous.clone());
        engine.restart(&program, &mut warm, &effect);
        let warm = warm.result();
        assert!(warm.converged);
        let counters = Counters {
            scratch_bytes_peak: 0,
            ..warm.stats.totals
        };
        let tracker = engine.cluster().comm_tracker();
        let messages: Vec<u64> = (0..4)
            .map(|pair| tracker.messages_between(pair / 2, pair % 2))
            .collect();
        tallies.push((workers, counters, messages));
    }
    assert!(
        tallies[0].1.chunks_skipped > 0,
        "the warm restart skipped no chunk, so the check is vacuous"
    );
    for (workers, counters, messages) in &tallies[1..] {
        assert_eq!(
            *counters, tallies[0].1,
            "counters at {workers} workers differ from 1 worker"
        );
        assert_eq!(
            *messages, tallies[0].2,
            "message tallies at {workers} workers differ from 1 worker"
        );
    }
}

/// The one-edge sibling of `warm_restart_tallies_are_worker_count_invariant`:
/// a one-edge SSSP restart's push phases read a few lists, below the inline
/// grain, so they run on the calling thread. That choice changes only which
/// thread runs a chunk: full counters (chunk skips included) and
/// per-node-pair message tallies are identical at 2×{1, 2, 4} workers.
#[test]
fn one_edge_restart_tallies_are_worker_count_invariant() {
    let graph = generators::rmat(4000, 32_000, 0.57, 0.19, 0.19, 4600);
    let config = EngineConfig::default();
    let root = 0;
    let previous = SlfeEngine::build(&graph, ClusterConfig::new(2, 1), config.clone())
        .run(&sssp::SsspProgram { root });
    let reached = |v: u32| previous.values[v as usize].is_finite();
    let src = (1..4000)
        .find(|&v| reached(v) && graph.out_degree(v) > 0)
        .unwrap();
    let mut batches = Vec::new();
    for (name, op) in [("insert", 0), ("delete", 1)] {
        let mut batch = slfe::graph::UpdateBatch::new();
        match op {
            0 => batch.insert(src, 3999, 0.25),
            _ => batch.delete(src, graph.out_neighbors(src)[0]),
        };
        batches.push((name, batch));
    }
    for (name, batch) in &batches {
        let (mutated, effect) = graph.apply_batch(batch);
        let mut tallies = Vec::new();
        for workers in [1usize, 2, 4] {
            let engine =
                SlfeEngine::build(&mutated, ClusterConfig::new(2, workers), config.clone());
            let mut warm = WarmResult::new(previous.clone());
            engine.restart(&sssp::SsspProgram { root }, &mut warm, &effect);
            let warm = warm.result();
            assert!(warm.converged, "{name}");
            let activity = engine.pool().activity();
            assert!(
                activity.inline_phases > 0,
                "{name}: no phase ran inline at {workers} workers"
            );
            let counters = Counters {
                scratch_bytes_peak: 0,
                ..warm.stats.totals
            };
            let tracker = engine.cluster().comm_tracker();
            let messages: Vec<u64> = (0..4)
                .map(|pair| tracker.messages_between(pair / 2, pair % 2))
                .collect();
            tallies.push((workers, counters, messages, warm.values.clone()));
        }
        assert!(
            tallies[0].1.chunks_skipped > 0,
            "{name}: the restart skipped no chunk, so the check is vacuous"
        );
        for (workers, counters, messages, values) in &tallies[1..] {
            assert_eq!(*values, tallies[0].3, "{name}: values at {workers} workers");
            assert_eq!(
                *counters, tallies[0].1,
                "{name}: counters at {workers} workers differ from 1 worker"
            );
            assert_eq!(
                *messages, tallies[0].2,
                "{name}: message tallies at {workers} workers differ from 1 worker"
            );
        }
    }
}
