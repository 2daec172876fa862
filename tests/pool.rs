//! Regression tests for the persistent worker pool (PR 3).
//!
//! The tentpole claim: one long-lived pool spans the machine, spawned once at
//! engine build, and every phase of every run reuses it. Before PR 3 the
//! executor spawned `O(iterations × phases × workers)` threads per run via
//! `std::thread::scope`; these tests pin the new bound — at most
//! `total_workers` threads, ever, per engine (and per delta server across all
//! of its graph versions).
//!
//! This file is also the CI "pool smoke" stage: run under `--test-threads=1`
//! with 4-worker clusters it exercises the phase-barrier protocol on a single
//! hardware thread, where any wait-loop mistake deadlocks instead of racing.

use slfe::prelude::*;

fn rmat(seed: u64) -> slfe::graph::Graph {
    slfe::graph::generators::rmat(4_000, 28_000, 0.57, 0.19, 0.19, seed)
}

#[test]
fn multi_iteration_run_spawns_at_most_total_workers_threads() {
    let graph = rmat(90);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap();
    let cluster = ClusterConfig::new(2, 4);
    let total_workers = cluster.total_workers();
    let engine = SlfeEngine::build(&graph, cluster, EngineConfig::default());

    // Engine build (pool creation) is the only place threads may appear:
    // total_workers - 1, the caller being worker 0.
    assert!(
        engine.pool().threads_spawned() < total_workers as u64,
        "engine spawned {} threads for {total_workers} workers",
        engine.pool().threads_spawned()
    );
    let after_build = engine.pool().threads_spawned();

    let result = engine.run(&slfe::apps::sssp::SsspProgram { root });
    assert!(
        result.stats.iterations >= 5,
        "want a multi-iteration run to exercise many phases, got {}",
        result.stats.iterations
    );
    // The run itself — dozens of pull/push phases — spawned nothing.
    assert_eq!(engine.pool().threads_spawned(), after_build);
    assert_eq!(result.stats.totals.threads_spawned, 0);

    // Reuse across programs on the same engine: still nothing.
    let pr = slfe::apps::pagerank::run(&engine);
    assert_eq!(engine.pool().threads_spawned(), after_build);
    assert_eq!(pr.stats.totals.threads_spawned, 0);
}

#[test]
fn delta_server_reuses_one_pool_across_graph_versions() {
    let graph = rmat(91);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap();
    let config = ServerConfig {
        cluster: ClusterConfig::new(2, 2),
        engine: EngineConfig::default().with_telemetry(true),
        ..ServerConfig::default()
    }
    .with_reorder(slfe::graph::ReorderPolicy::DegreeDescending);
    let total_workers = config.cluster.total_workers() as u64;
    let mut server = DeltaServer::try_new(
        graph.clone(),
        move |g: &slfe::graph::Graph| slfe::apps::sssp::SsspProgram {
            root: g.to_physical(root),
        },
        config,
    )
    .unwrap();
    let after_startup = server.pool().threads_spawned();
    assert!(after_startup < total_workers);

    // One engine serves every graph version: warm batches and a full
    // recompute advance it in place and a remap rebuilds it around the
    // renamed graph. The pool must survive all of it without a single extra
    // spawn, and the telemetry hub must keep what it recorded.
    let mut rng = slfe::graph::rng::SplitMix64::seed_from_u64(17);
    let mut apply = |server: &mut DeltaServer<_, _>, edges: usize| {
        let mut batch = UpdateBatch::new();
        for _ in 0..edges {
            let n = server.graph().num_vertices() as u32;
            batch.insert(
                rng.range_u32(0, n),
                rng.range_u32(0, n),
                rng.range_f32(1.0, 9.0),
            );
        }
        let outcome = server.try_apply(&batch).unwrap();
        assert!(outcome.converged);
        assert_eq!(server.pool().threads_spawned(), after_startup);
        outcome
    };
    for _ in 0..3 {
        assert!(!apply(&mut server, 20).full_recompute);
    }
    let n = server.graph().num_vertices();
    assert!(apply(&mut server, n).full_recompute);

    let before_remap = server.telemetry().spans;
    assert!(!before_remap.is_empty());
    assert!(server.remap_now().unwrap(), "the reorder policy must remap");
    assert_eq!(server.pool().threads_spawned(), after_startup);
    let after_remap = server.telemetry().spans;
    assert_eq!(after_remap[..before_remap.len()], before_remap[..]);
    assert!(!apply(&mut server, 20).full_recompute);
}

#[test]
fn pool_executor_matches_sequential_results_at_four_workers() {
    // The CI smoke body: with --test-threads=1 this serialises the barrier
    // protocol onto one hardware thread while still using 4-worker clusters.
    let graph = rmat(92);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap();
    let sequential = SlfeEngine::build(&graph, ClusterConfig::new(2, 1), EngineConfig::default())
        .run(&slfe::apps::sssp::SsspProgram { root });
    let pooled_engine =
        SlfeEngine::build(&graph, ClusterConfig::new(2, 4), EngineConfig::default());
    let pooled = pooled_engine.run(&slfe::apps::sssp::SsspProgram { root });
    assert_eq!(
        sequential.values, pooled.values,
        "4-worker pool execution must stay bit-identical to the 1-worker run"
    );
    // Phases below the inline grain run on the caller; the rest must still
    // exercise the barrier protocol this smoke exists for.
    let activity = pooled_engine.pool().activity();
    assert!(
        activity.phases > activity.inline_phases,
        "the 4-worker run made no pool round trip ({} phases, all inline)",
        activity.phases
    );
    assert_eq!(sequential.stats.iterations, pooled.stats.iterations);
    // The deterministic simulated schedule admits real cross-node parallelism.
    let total: u64 = pooled.all_worker_work().iter().sum();
    let makespan = pooled.all_worker_work().into_iter().max().unwrap_or(1);
    assert!(
        total as f64 / makespan.max(1) as f64 > 1.5,
        "8 simulated workers should admit >1.5x parallelism"
    );
}
