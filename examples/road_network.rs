//! Route planning on a road-network-like graph: shortest paths and widest
//! (maximum-capacity) paths with the min/max ("start late") family.
//!
//! Road networks are grid-like with long shortest-path chains — the opposite regime
//! from social graphs — so this example also shows the engine's push/pull mode
//! breakdown (Figure 4's metric) on a high-diameter input.
//!
//! Run with: `cargo run --release --example road_network`

use slfe::prelude::*;

fn main() {
    // A 120 x 120 grid with an extra layer of random weighted "highway" edges.
    let grid = slfe::graph::generators::grid(120, 120);
    let mut builder = slfe::graph::GraphBuilder::new().with_vertices(grid.num_vertices());
    for e in grid.edges() {
        // Local roads: weight = travel time 1..5 derived from the endpoints.
        let w = 1.0 + ((e.src as u64 * 31 + e.dst as u64 * 17) % 5) as f32;
        builder.add_edge(e.src, e.dst, w);
        builder.add_edge(e.dst, e.src, w);
    }
    let graph = builder.build();
    println!(
        "road network: {} junctions, {} road segments",
        graph.num_vertices(),
        graph.num_edges()
    );

    // The grid's hop diameter (238) exceeds the default iteration cap of 200.
    let config = EngineConfig::default().with_max_iterations(1_000);
    let engine = SlfeEngine::build(&graph, ClusterConfig::new(4, 4), config);
    let origin = 0;

    // Shortest travel time from the origin.
    let shortest = sssp::run(&engine, origin);
    let reachable = shortest.values.iter().filter(|d| d.is_finite()).count();
    let farthest = shortest
        .values
        .iter()
        .filter(|d| d.is_finite())
        .cloned()
        .fold(0.0f32, f32::max);
    println!(
        "\nSSSP from junction {origin}: {} reachable junctions, farthest at travel time {:.0}",
        reachable, farthest
    );
    let (pull, push) = shortest.stats.trace.mode_computations();
    println!(
        "  pull/push computation split: {:.1}% pull, {:.1}% push ({} iterations)",
        100.0 * pull as f64 / (pull + push).max(1) as f64,
        100.0 * push as f64 / (pull + push).max(1) as f64,
        shortest.iterations()
    );

    // Widest path: the best "capacity" route (e.g. max truck weight).
    let widest = widestpath::run(&engine, origin);
    let target = (graph.num_vertices() - 1) as u32;
    println!(
        "\nWidest path from {origin} to {target}: bottleneck capacity {:.1}",
        widest.values[target as usize]
    );

    // Verify both against their sequential oracles.
    let sssp_ok = slfe::apps::sssp::reference(&graph, origin)
        .iter()
        .zip(&shortest.values)
        .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
    let wp_ok = slfe::apps::widestpath::reference(&graph, origin)
        .iter()
        .zip(&widest.values)
        .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
    println!("\nverified against sequential oracles: sssp = {sssp_ok}, widest path = {wp_ok}");
    assert!(
        sssp_ok && wp_ok,
        "results differ from the sequential oracles"
    );
}
