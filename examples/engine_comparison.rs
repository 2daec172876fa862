//! Compare SLFE against every baseline engine on one graph and one application —
//! a miniature, single-run version of the paper's Table 5.
//!
//! Run with: `cargo run --release --example engine_comparison`

use slfe::baselines::{
    BaselineEngine, GeminiEngine, GraphChiEngine, LigraEngine, PowerGraphEngine, PowerLyraEngine,
};
use slfe::graph::datasets::Dataset;
use slfe::metrics::Table;
use slfe::prelude::*;

fn main() {
    let graph = Dataset::LiveJournal.load_scaled(16_000);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).expect("non-empty graph");
    let cluster = ClusterConfig::new(8, 4);
    let program = slfe::apps::sssp::SsspProgram { root };

    let mut table = Table::new(
        format!(
            "SSSP on the LJ proxy ({} vertices, {} edges), 8 simulated nodes",
            graph.num_vertices(),
            graph.num_edges()
        ),
        &[
            "engine",
            "work units",
            "messages",
            "iterations",
            "sim. seconds",
        ],
    );

    let slfe_engine = SlfeEngine::build(&graph, cluster.clone(), EngineConfig::default());
    let slfe_result = slfe_engine.run(&program);
    let slfe_seconds = slfe_result.stats.phases.total_seconds();
    table.add_row(&[
        "slfe".to_string(),
        slfe_result.stats.totals.work().to_string(),
        slfe_result.stats.totals.messages_sent.to_string(),
        slfe_result.iterations().to_string(),
        format!("{slfe_seconds:.6}"),
    ]);

    let mut add = |name: &str, result: slfe::core::ProgramResult<f32>| {
        let agrees = result
            .values
            .iter()
            .zip(&slfe_result.values)
            .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
        assert!(agrees, "{name} disagrees with slfe on some distance");
        table.add_row(&[
            name.to_string(),
            result.stats.totals.work().to_string(),
            result.stats.totals.messages_sent.to_string(),
            result.iterations().to_string(),
            format!("{:.6}", result.stats.phases.total_seconds()),
        ]);
    };

    add(
        "gemini",
        GeminiEngine::build(&graph, cluster.clone()).run(&program),
    );
    add(
        "powerlyra",
        PowerLyraEngine::build(&graph, cluster.clone()).run(&program),
    );
    add(
        "powergraph",
        PowerGraphEngine::build(&graph, cluster.clone()).run(&program),
    );
    add(
        "ligra (1 node)",
        LigraEngine::build(&graph, 4).run(&program),
    );
    add(
        "graphchi (1 node)",
        GraphChiEngine::build(&graph, 4).run(&program),
    );

    println!("{table}");
    println!("Every engine computes the same shortest distances; they differ in how much");
    println!("redundant work and communication they perform to get there (paper §4.2).");
}
