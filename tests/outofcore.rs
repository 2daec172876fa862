//! Out-of-core execution acceptance tests (PR 5): a graph whose disk-segment
//! footprint exceeds the buffer-pool byte budget must run **every registered
//! min/max application** bit-identically to the in-memory store at 1 and 4
//! workers, with the pool provably cycling (`segment_bytes_read` greater than
//! the budget), peak residency pinned at or below the budget, and the
//! activity summaries doubling as the I/O planner (skipped chunks fault no
//! segments). Arithmetic applications are covered too — they only pull, so
//! the CSC streaming path is everything they touch.

use slfe::apps::{bfs, cc, pagerank, sssp, widestpath, AppKind};
use slfe::core::{EngineConfig, GraphProgram, SlfeEngine, WarmResult};
use slfe::graph::{generators, Graph};
use slfe::prelude::ClusterConfig;

/// Pool budget (bytes) used across these tests: small enough that the test
/// graphs' footprints exceed it several times over, large enough to hold
/// every concurrently pinned cursor segment.
const BUDGET: u64 = 96 << 10;
/// Segment size (bytes): small, so the directory has a real population.
const SEGMENT: usize = 4 << 10;

fn oocore_config() -> EngineConfig {
    EngineConfig::default()
        .with_storage_budget(BUDGET)
        .with_storage_segment_bytes(SEGMENT)
}

/// Run `program` on the in-memory store and on the segment store at 1 and 4
/// workers per node; values must be bit-identical everywhere, and the
/// out-of-core run must actually stream (bytes read > budget) while never
/// holding more than the budget resident.
fn check_oocore_equals_memory<P, PF>(graph: &Graph, app: AppKind, make_program: PF)
where
    P: GraphProgram<Value = f32>,
    PF: Fn(&Graph) -> P,
{
    for workers in [1usize, 4] {
        let cluster = ClusterConfig::new(2, workers);
        let memory_engine = SlfeEngine::build(
            graph,
            cluster.clone(),
            EngineConfig::default().with_trace(false),
        );
        let oocore_engine = SlfeEngine::build(graph, cluster, oocore_config().with_trace(false));
        let storage = oocore_engine.storage().expect("storage requested");
        assert!(
            storage.footprint_bytes() > BUDGET,
            "{app}: test graph's segment footprint {} must exceed the {BUDGET} B budget",
            storage.footprint_bytes()
        );
        let memory = memory_engine.run(&make_program(graph));
        let oocore = oocore_engine.run(&make_program(graph));
        for (v, (a, b)) in memory.values.iter().zip(&oocore.values).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{app}: vertex {v} diverges at {workers} workers ({a} vs {b})"
            );
        }
        assert_eq!(memory.stats.iterations, oocore.stats.iterations);
        assert_eq!(memory.converged, oocore.converged);
        // Work counters must match exactly — streaming changes which bytes
        // are resident, never what is computed.
        assert_eq!(
            memory.stats.totals.edge_computations, oocore.stats.totals.edge_computations,
            "{app}: edge computations diverge at {workers} workers"
        );
        assert_eq!(
            memory.stats.totals.vertex_updates,
            oocore.stats.totals.vertex_updates
        );
        // The in-memory run reports no I/O; the out-of-core run must have
        // cycled the pool (footprint > budget forces refaults).
        assert_eq!(memory.stats.totals.segments_faulted, 0);
        assert_eq!(memory.stats.totals.segment_bytes_read, 0);
        assert!(
            oocore.stats.totals.segments_faulted > 0,
            "{app}: no segments faulted at {workers} workers"
        );
        assert!(
            oocore.stats.totals.segment_bytes_read > BUDGET,
            "{app}: streamed only {} B against a {BUDGET} B budget at {workers} workers",
            oocore.stats.totals.segment_bytes_read
        );
        assert!(
            storage.pool().peak_resident_bytes() <= BUDGET,
            "{app}: pool peaked at {} B over the {BUDGET} B budget at {workers} workers",
            storage.pool().peak_resident_bytes()
        );
    }
}

#[test]
fn every_registered_minmax_app_is_bit_identical_out_of_core() {
    // Dense enough that CSR+CSC segments far exceed the pool budget.
    let rmat = generators::rmat(12_000, 96_000, 0.57, 0.19, 0.19, 5100);
    let sym = cc::symmetrize(&generators::rmat(6_000, 42_000, 0.57, 0.19, 0.19, 5150));
    let root = slfe::graph::stats::highest_out_degree_vertex(&rmat).unwrap();

    for app in AppKind::ALL {
        if app.aggregation() != slfe::core::AggregationKind::MinMax {
            continue;
        }
        eprintln!("checking {app}");
        match app {
            AppKind::Sssp => check_oocore_equals_memory(&rmat, app, |_| sssp::SsspProgram { root }),
            AppKind::Bfs => check_oocore_equals_memory(&rmat, app, |_| bfs::BfsProgram { root }),
            AppKind::WidestPath => {
                check_oocore_equals_memory(&rmat, app, |_| widestpath::WidestPathProgram { root })
            }
            AppKind::ConnectedComponents => {
                check_oocore_equals_memory(&sym, app, cc::CcProgram::for_graph)
            }
            _ => unreachable!("min/max filter above"),
        }
    }
}

#[test]
fn arithmetic_pull_streams_csc_bit_identically() {
    let rmat = generators::rmat(10_000, 80_000, 0.57, 0.19, 0.19, 5200);
    check_oocore_equals_memory(
        &rmat,
        AppKind::PageRank,
        pagerank::PageRankProgram::for_graph,
    );
}

/// The activity summaries double as the I/O planner: a deep layered SSSP
/// whose frontier is one layer wide must fault far fewer segment-bytes than
/// a frontier-blind pass over every chunk would, because skipped chunks
/// never touch the cursor.
#[test]
fn skipped_chunks_fault_no_segments() {
    let layered = generators::layered(24, 1_000, 6, 5300);
    let engine = SlfeEngine::build(
        &layered,
        ClusterConfig::new(2, 4),
        oocore_config().with_trace(false),
    );
    let result = engine.run(&sssp::SsspProgram { root: 0 });
    assert!(result.converged);
    assert!(
        result.stats.totals.chunks_skipped > 0,
        "the layered wave must skip cold chunks"
    );
    // A frontier-blind executor would stream ~footprint bytes per iteration.
    let storage = engine.storage().unwrap();
    let blind_bytes = storage.footprint_bytes() * result.stats.iterations as u64;
    assert!(
        result.stats.totals.segment_bytes_read < blind_bytes / 4,
        "activity-planned I/O ({} B) should be well under a frontier-blind sweep ({blind_bytes} B)",
        result.stats.totals.segment_bytes_read
    );
}

/// Warm serving restarts on the segment store: `SlfeEngine::restart` must
/// reproduce a cold out-of-core run bit-for-bit (the warm path exercises the
/// push streaming through the sequential and chunked paths alike).
#[test]
fn warm_restart_is_bit_identical_out_of_core() {
    use slfe::graph::UpdateBatch;
    let graph = generators::rmat(8_000, 64_000, 0.57, 0.19, 0.19, 5400);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap();
    let program = sssp::SsspProgram { root };
    let mut batch = UpdateBatch::new();
    let mut rng = slfe::graph::rng::SplitMix64::seed_from_u64(9);
    for _ in 0..30 {
        let src = rng.range_u32(0, graph.num_vertices() as u32);
        let dst = rng.range_u32(0, graph.num_vertices() as u32);
        batch.insert(src, dst, rng.range_f32(1.0, 8.0));
    }
    let (mutated, effect) = graph.apply_batch(&batch);
    for workers in [1usize, 4] {
        let cluster = ClusterConfig::new(2, workers);
        let previous = SlfeEngine::build(&graph, cluster.clone(), oocore_config()).run(&program);
        let mut warm = WarmResult::new(previous);
        let warm_engine = SlfeEngine::build(&mutated, cluster.clone(), oocore_config());
        warm_engine.restart(&program, &mut warm, &effect);
        let warm = warm.result();
        let cold = SlfeEngine::build(&mutated, cluster, EngineConfig::default()).run(&program);
        assert_eq!(
            warm.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            cold.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "warm out-of-core restart diverges from cold in-memory at {workers} workers"
        );
        assert!(warm.converged);
    }
}
