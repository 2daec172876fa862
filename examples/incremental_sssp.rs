//! Incremental SSSP serving: keep shortest-path answers live while the road
//! network changes, without recomputing from scratch.
//!
//! The example drives the full `slfe-delta` loop — stage an [`UpdateBatch`],
//! apply it through the [`DeltaServer`] (graph patch → layout patch → warm
//! re-convergence), answer point/top-k queries — and cross-checks every
//! served answer against a from-scratch run, so it doubles as a smoke test.
//!
//! Run with: `cargo run --release --example incremental_sssp`

use slfe::apps::sssp::SsspProgram;
use slfe::delta::{DeltaServer, ServerConfig};
use slfe::prelude::*;

fn main() {
    // A mid-sized R-MAT proxy of a road/social network.
    let graph = slfe::graph::generators::rmat(30_000, 240_000, 0.57, 0.19, 0.19, 4242);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).expect("non-empty graph");
    println!(
        "graph: {} vertices, {} edges; serving SSSP from hub {root}",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Build the server: one cold run, then every batch is served warm.
    let config = ServerConfig {
        cluster: ClusterConfig::new(2, 2),
        engine: EngineConfig::default(),
        ..ServerConfig::default()
    };
    let mut server = DeltaServer::try_new(graph.clone(), move |_| SsspProgram { root }, config)
        .expect("build server");
    let cold_work = server.result().stats.totals.work();
    println!("initial cold fixpoint: {} counted work units\n", cold_work);

    // Three serving rounds: a small mixed batch each (new roads, closures).
    let mut rng = slfe::graph::rng::SplitMix64::seed_from_u64(7);
    let mut current = graph;
    for round in 1..=3 {
        let mut batch = UpdateBatch::new();
        let n = current.num_vertices() as u32;
        for _ in 0..200 {
            let src = rng.range_u32(0, n);
            if rng.next_f64() < 0.8 {
                batch.insert(src, rng.range_u32(0, n), rng.range_f32(1.0, 10.0));
            } else if let Some(&dst) = current.out_neighbors(src).first() {
                batch.delete(src, dst);
            }
        }

        let outcome = server.try_apply(&batch).expect("apply batch");
        let guidance_seconds = outcome
            .stages
            .iter()
            .find(|&&(stage, _)| stage == "guidance")
            .map_or(0.0, |&(_, seconds)| seconds);
        println!(
            "round {round}: +{} -{} edges ({} dirty vertices) -> {} work in {} iterations ({}), \
             guidance stage {:.1}µs, {} batch messages, {:.1}ms",
            outcome.effect.edges_inserted,
            outcome.effect.edges_deleted,
            outcome.effect.dirty.len(),
            outcome.work,
            outcome.iterations,
            if outcome.full_recompute {
                "full recompute"
            } else {
                "warm"
            },
            guidance_seconds * 1e6,
            outcome.distribution_messages,
            outcome.wall_seconds * 1e3,
        );
        assert!(outcome.converged, "serving loop must re-converge");

        // Cross-check: the served fixpoint equals a from-scratch run.
        current = current.apply_batch(&batch).0;
        let oracle = SlfeEngine::build(&current, ClusterConfig::new(2, 2), EngineConfig::default())
            .run(&SsspProgram { root });
        assert_eq!(
            server
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            oracle
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "served values diverge from a from-scratch run"
        );
        let full_work = oracle.stats.totals.work();
        println!(
            "         full recompute would cost {} work -> {:.1}x saved, answers identical",
            full_work,
            full_work as f64 / outcome.work.max(1) as f64
        );
    }

    // Queries between batches: a point lookup and the five nearest vertices.
    let probe = (server.graph().num_vertices() / 2) as VertexId;
    println!(
        "\npoint query: dist({root} -> {probe}) = {:?}",
        server.value(probe)
    );
    let nearest = server.top_k_by(5, |a, b| {
        b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("five nearest vertices:");
    for (v, d) in nearest {
        println!("  vertex {v:>6}  distance {d:.3}");
    }

    let stats = server.stats();
    println!(
        "\nserved {} batches: {} total work, {} batch messages, {} full recomputes",
        stats.batches_applied,
        stats.total_work,
        stats.total_distribution_messages,
        stats.full_recomputes
    );
    println!("OK: every served answer matched the from-scratch oracle");
}
