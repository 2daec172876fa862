//! A warm restart that keeps its run state across graph versions
//! (`SlfeEngine::restart` on a `WarmResult`) allocates nothing that grows
//! with |V|: its bookkeeping follows the frontier.
//!
//! The binary counts every byte the process allocates through a counting
//! global allocator, so it holds a single test: no other test's threads may
//! allocate while a restart is being counted. CI runs it in release, the
//! build the benchmark measures: `cargo test --release --test
//! restart_footprint`.

use slfe::apps::pagerank::PageRankProgram;
use slfe::apps::sssp::SsspProgram;
use slfe::core::{EngineConfig, GraphProgram, SlfeEngine, WarmResult};
use slfe::graph::{generators, stats, Graph, UpdateBatch, VertexId};
use slfe::prelude::ClusterConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Adds up the bytes of every allocation and reallocation; frees are not
/// subtracted, so a window's count is everything it asked the heap for.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Kept-state restarts before the counted one: the first copies the values
/// into the new state, the rest let its buffers reach their working size.
const WARM_UP: usize = 3;

/// Bytes allocated by one kept-state restart of `make`'s program across a
/// one-edge batch on R-MAT `n` / `10n`, after [`WARM_UP`] of them. Each
/// batch inserts an edge between two quiet vertices (in- and out-degree 1
/// to 3) whose source `reached` accepts, so the restart has work to do but
/// the disturbance stays small at any graph size. Every version's graph,
/// engine and program are built outside the counted window.
fn restart_bytes<P, F>(n: usize, config: EngineConfig, make: F, reached: fn(f32) -> bool) -> u64
where
    P: GraphProgram<Value = f32>,
    F: Fn(&Graph) -> P,
{
    let cluster = ClusterConfig::new(2, 1);
    let mut graph = generators::rmat(n, 10 * n, 0.57, 0.19, 0.19, 2424);
    let result = SlfeEngine::build(&graph, cluster.clone(), config.clone()).run(&make(&graph));
    let quiet: Vec<VertexId> = graph
        .vertices()
        .filter(|&v| {
            (1..=3).contains(&graph.out_degree(v)) && (1..=3).contains(&graph.in_degree(v))
        })
        .collect();
    let sources: Vec<VertexId> = quiet
        .iter()
        .copied()
        .filter(|&v| reached(result.values[v as usize]))
        .collect();
    assert!(
        sources.len() > WARM_UP && quiet.len() > 2 * WARM_UP,
        "too few quiet vertices at n = {n}"
    );
    let mut warm = WarmResult::new(result);
    let mut bytes = 0;
    for round in 0..=WARM_UP {
        let mut batch = UpdateBatch::new();
        batch.insert(sources[round], quiet[quiet.len() - 1 - round], 1.0);
        let (mutated, effect) = graph.apply_batch(&batch);
        let engine = SlfeEngine::build(&mutated, cluster.clone(), config.clone());
        let program = make(&mutated);
        let before = ALLOCATED.load(Ordering::Relaxed);
        engine.restart(&program, &mut warm, &effect);
        bytes = ALLOCATED.load(Ordering::Relaxed) - before;
        assert!(
            warm.result().converged,
            "round {round} at n = {n} did not converge"
        );
        graph = mutated;
    }
    bytes
}

#[test]
fn kept_state_restarts_allocate_the_same_at_8x_the_graph() {
    let sssp = |n: usize| {
        let graph = generators::rmat(n, 10 * n, 0.57, 0.19, 0.19, 2424);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        restart_bytes(
            n,
            EngineConfig::default(),
            move |_: &Graph| SsspProgram { root },
            f32::is_finite,
        )
    };
    let pagerank = |n: usize| {
        restart_bytes(
            n,
            EngineConfig::without_rr(),
            PageRankProgram::for_graph,
            |_| true,
        )
    };
    for (app, measure) in [
        ("sssp", &sssp as &dyn Fn(usize) -> u64),
        ("pagerank", &pagerank),
    ] {
        let small = measure(25_000);
        let large = measure(200_000);
        eprintln!("{app}: {small} bytes at 25k vertices, {large} at 200k");
        assert!(small > 0, "{app}: the counter saw nothing");
        assert!(
            large <= 2 * small,
            "{app}: a one-edge restart allocated {large} bytes at 200k vertices, \
             {small} at 25k: its footprint grows with |V|"
        );
    }
}
