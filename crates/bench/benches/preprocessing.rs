//! Wall-clock benchmark backing Figure 8: the cost of generating the
//! redundancy-reduction guidance (Algorithm 1) relative to one SSSP execution.

use slfe_bench::timing::{report, time_best_of};
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, RrGuidance, SlfeEngine};
use slfe_graph::datasets::Dataset;

fn main() {
    let runs = 5;
    println!("== fig8_rrg_overhead ==");
    for dataset in [Dataset::Pokec, Dataset::LiveJournal, Dataset::Friendster] {
        let graph = dataset.load_scaled(16_000);
        let ab = dataset.abbreviation();
        report(
            &format!("rrg_generation_{ab}"),
            time_best_of(runs, || RrGuidance::generate(&graph)),
        );
        let engine = SlfeEngine::build(&graph, ClusterConfig::new(8, 4), EngineConfig::default());
        let root = slfe_graph::stats::highest_out_degree_vertex(&graph).unwrap_or(0);
        report(
            &format!("sssp_execution_{ab}"),
            time_best_of(runs, || slfe_apps::sssp::run(&engine, root)),
        );
    }
}
