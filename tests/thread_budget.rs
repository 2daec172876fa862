//! The thread-spawn budget tripwire (PR 3), in its own test binary on purpose:
//! it measures the **process-wide** spawn counter
//! (`slfe::cluster::pool::process_threads_spawned`), so it must be the only
//! test in its process — a single `#[test]` per binary guarantees no
//! concurrent test inflates the delta, under any `--test-threads` setting.
//!
//! Unlike the per-pool counts in `tests/pool.rs` (which are constant by
//! construction), this counter has teeth: a regression that sneaks a transient
//! pool into a hot path — a per-phase or per-run `WorkerPool::new` instead of
//! the engine's own pool — multiplies the process-wide delta by the phase
//! count and fails the budget below.

use slfe::apps::sssp::SsspProgram;
use slfe::graph::BatchEffect;
use slfe::prelude::*;

#[test]
fn engine_lifecycle_spawns_at_most_total_workers_threads_process_wide() {
    let graph = slfe::graph::generators::rmat(4_000, 28_000, 0.57, 0.19, 0.19, 90);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap();
    let cluster = ClusterConfig::new(2, 4);
    let total_workers = cluster.total_workers() as u64;

    let before = slfe::cluster::pool::process_threads_spawned();
    // Build (pool + RR guidance), run a multi-iteration min/max program, an
    // arithmetic program, and a warm restart — dozens of phases in total.
    let engine = SlfeEngine::build(&graph, cluster, EngineConfig::default());
    let sssp = engine.run(&SsspProgram { root });
    assert!(sssp.stats.iterations >= 5, "want a multi-iteration run");
    let _pr = slfe::apps::pagerank::run(&engine);
    let mut warm = WarmResult::new(sssp);
    engine.restart(&SsspProgram { root }, &mut warm, &BatchEffect::default());
    let delta = slfe::cluster::pool::process_threads_spawned() - before;

    // PR 1 spawned O(iterations × phases × workers) threads for the same
    // workload; the persistent pool pins the whole lifecycle under budget.
    assert!(
        delta <= total_workers,
        "engine lifecycle spawned {delta} threads, budget is {total_workers}"
    );
    assert_eq!(
        delta,
        engine.pool().threads_spawned(),
        "every spawn must belong to the engine's own pool"
    );
}
