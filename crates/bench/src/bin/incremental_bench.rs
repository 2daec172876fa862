//! Incremental update-serving benchmark: warm-start re-convergence vs full
//! recomputation across batch sizes and graph scales.
//!
//! ```text
//! incremental_bench [--vertices 50000,100000] [--degree D] [--batch-percents 0.1,1,5] [--out FILE]
//! ```
//!
//! For each (scale, batch-size, batch-mix) cell the bench:
//!
//! 1. builds an R-MAT graph and a [`DeltaServer`] (one cold SSSP run),
//! 2. stages a seeded random batch of the requested size — `insert` mixes are
//!    pure upserts, `mixed` adds 10% deletions (the cascade-heavy case),
//! 3. applies it through the serving loop (graph patch, RR-guidance repair,
//!    warm `run_from`) and records the **counter-measured work** — invalidation
//!    pass included — plus the update-batch wall-clock latency, and
//! 4. runs SSSP cold on the mutated graph (plus a fresh guidance generation)
//!    and records the same metrics for the full recompute.
//!
//! `work_ratio` is full-recompute work / warm work, both *including* their
//! guidance costs — the headline number incremental serving exists for. A
//! PageRank delta-restart cell is measured the same way. Counted work is
//! machine-independent; wall clock depends on `hardware_threads`, which is
//! recorded alongside the producing `git_commit`.

use slfe_apps::pagerank::PageRankProgram;
use slfe_apps::sssp::SsspProgram;
use slfe_bench::{git_commit, hardware_threads, json};
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, RedundancyMode, SlfeEngine};
use slfe_delta::{DeltaServer, ServerConfig, UpdateBatch};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{generators, Graph};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Options {
    vertices: Vec<usize>,
    degree: usize,
    batch_percents: Vec<f64>,
    out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            vertices: vec![50_000, 100_000],
            degree: 10,
            batch_percents: vec![0.1, 1.0, 5.0],
            out: PathBuf::from("BENCH_incremental.json"),
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--vertices" => {
                options.vertices = value("--vertices")?
                    .split(',')
                    .map(|v| v.trim().parse().map_err(|e| format!("invalid --vertices: {e}")))
                    .collect::<Result<_, String>>()?;
            }
            "--degree" => {
                options.degree =
                    value("--degree")?.parse().map_err(|e| format!("invalid --degree: {e}"))?;
            }
            "--batch-percents" => {
                options.batch_percents = value("--batch-percents")?
                    .split(',')
                    .map(|v| v.trim().parse().map_err(|e| format!("invalid --batch-percents: {e}")))
                    .collect::<Result<_, String>>()?;
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err(
                    "usage: incremental_bench [--vertices N,N] [--degree D] [--batch-percents P,P] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(options)
}

/// A seeded random batch sized as `percent` of the graph's edges. `delete_share`
/// of the operations delete existing edges; the rest upsert random ones.
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

struct Cell {
    vertices: usize,
    edges: usize,
    batch_percent: f64,
    mode: &'static str,
    dirty_vertices: usize,
    warm_work: u64,
    warm_guidance_work: u64,
    warm_iterations: u32,
    warm_wall_seconds: f64,
    guidance_regenerated: bool,
    /// Simulated messages shipping the batch from the ingest node to partition
    /// owners — the serving cost a work-only comparison would quietly ignore.
    distribution_messages: u64,
    full_work: u64,
    full_guidance_work: u64,
    full_wall_seconds: f64,
    /// Counter-measured work of the full recompute over the warm restart —
    /// engine counters only, matching the paper's split of execution vs
    /// preprocessing cost.
    work_ratio: f64,
    /// The same ratio with each side's guidance cost (repair vs regeneration)
    /// added in.
    work_ratio_with_guidance: f64,
}

fn cell_json(c: &Cell) -> String {
    format!(
        "{{\"vertices\": {}, \"edges\": {}, \"batch_percent\": {}, \"mode\": {}, \
         \"dirty_vertices\": {}, \"warm_work\": {}, \"warm_guidance_work\": {}, \
         \"warm_iterations\": {}, \"warm_wall_seconds\": {}, \"guidance_regenerated\": {}, \
         \"distribution_messages\": {}, \
         \"full_work\": {}, \"full_guidance_work\": {}, \"full_wall_seconds\": {}, \
         \"work_ratio\": {}, \"work_ratio_with_guidance\": {}}}",
        c.vertices,
        c.edges,
        json::float(c.batch_percent),
        json::string(c.mode),
        c.dirty_vertices,
        c.warm_work,
        c.warm_guidance_work,
        c.warm_iterations,
        json::float_fixed(c.warm_wall_seconds, 6),
        c.guidance_regenerated,
        c.distribution_messages,
        c.full_work,
        c.full_guidance_work,
        json::float_fixed(c.full_wall_seconds, 6),
        json::float_fixed(c.work_ratio, 2),
        json::float_fixed(c.work_ratio_with_guidance, 2),
    )
}

fn measure_sssp_cell(graph: &Graph, percent: f64, mode: &'static str, delete_share: f64) -> Cell {
    let root = slfe_graph::stats::highest_out_degree_vertex(graph).unwrap_or(0);
    let config = ServerConfig {
        cluster: ClusterConfig::new(2, 2),
        engine: EngineConfig::default().with_trace(false),
        ..ServerConfig::default()
    };
    let mut server = DeltaServer::try_new(graph.clone(), move |_| SsspProgram { root }, config)
        .expect("build server");
    let batch = make_batch(graph, percent, delete_share, 9000 + (percent * 10.0) as u64);
    let outcome = server.try_apply(&batch).expect("apply batch");
    assert!(outcome.converged, "warm serving run must converge");

    // Full recompute on the mutated graph: guidance generation + cold run.
    let (mutated, _) = graph.apply_batch(&batch);
    let full_start = Instant::now();
    let engine = SlfeEngine::build(
        &mutated,
        ClusterConfig::new(2, 2),
        EngineConfig::default().with_trace(false),
    );
    let full = engine.run(&SsspProgram { root });
    let full_wall_seconds = full_start.elapsed().as_secs_f64();
    let full_guidance_work = engine.guidance().generation_work();
    let full_work = full.stats.totals.work();

    Cell {
        vertices: mutated.num_vertices(),
        edges: mutated.num_edges(),
        batch_percent: percent,
        mode,
        dirty_vertices: outcome.effect.dirty.len(),
        warm_work: outcome.work,
        warm_guidance_work: outcome.guidance.work,
        warm_iterations: outcome.iterations,
        warm_wall_seconds: outcome.wall_seconds,
        guidance_regenerated: outcome.guidance.regenerated,
        distribution_messages: outcome.distribution_messages,
        full_work,
        full_guidance_work,
        full_wall_seconds,
        work_ratio: full_work as f64 / outcome.work.max(1) as f64,
        work_ratio_with_guidance: (full_work + full_guidance_work) as f64
            / (outcome.work + outcome.guidance.work).max(1) as f64,
    }
}

/// PageRank delta-restart on one scale: warm iterations/work vs cold, both
/// ruler-free so the two runs converge to the same exact fixpoint.
fn measure_pagerank(graph: &Graph, percent: f64) -> String {
    let config = EngineConfig::default()
        .with_redundancy(RedundancyMode::Disabled)
        .with_trace(false)
        .with_max_iterations(500);
    let cluster = ClusterConfig::new(2, 2);
    let previous = SlfeEngine::build(graph, cluster.clone(), config.clone())
        .run(&PageRankProgram::for_graph(graph));
    let batch = make_batch(graph, percent, 0.1, 777);
    let (mutated, effect) = graph.apply_batch(&batch);
    let dirty = effect.dirty_bitset(mutated.num_vertices());
    let program = PageRankProgram::for_graph(&mutated);

    let warm_engine = SlfeEngine::build(&mutated, cluster.clone(), config.clone());
    let warm_start = Instant::now();
    let warm = warm_engine.run_from(&program, &previous, &dirty);
    let warm_wall = warm_start.elapsed().as_secs_f64();
    let cold_start = Instant::now();
    let cold = SlfeEngine::build(&mutated, cluster, config).run(&program);
    let cold_wall = cold_start.elapsed().as_secs_f64();
    format!(
        "{{\"vertices\": {}, \"batch_percent\": {}, \"warm_iterations\": {}, \
         \"cold_iterations\": {}, \"warm_work\": {}, \"cold_work\": {}, \
         \"warm_wall_seconds\": {}, \"cold_wall_seconds\": {}, \"work_ratio\": {}}}",
        mutated.num_vertices(),
        json::float(percent),
        warm.stats.iterations,
        cold.stats.iterations,
        warm.stats.totals.work(),
        cold.stats.totals.work(),
        json::float_fixed(warm_wall, 6),
        json::float_fixed(cold_wall, 6),
        json::float_fixed(
            cold.stats.totals.work() as f64 / warm.stats.totals.work().max(1) as f64,
            2
        ),
    )
}

fn main() {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let mut cells: Vec<Cell> = Vec::new();
    let mut pagerank_cells: Vec<String> = Vec::new();
    for &n in &options.vertices {
        eprintln!(
            "building R-MAT graph: {n} vertices, ~{} edges",
            n * options.degree
        );
        let graph = generators::rmat(n, n * options.degree, 0.57, 0.19, 0.19, 2026);
        for &percent in &options.batch_percents {
            for (mode, delete_share) in [("insert", 0.0), ("mixed", 0.1)] {
                let cell = measure_sssp_cell(&graph, percent, mode, delete_share);
                eprintln!(
                    "  sssp {n}v {percent}% {mode}: warm {} (+{} guidance) vs full {} (+{} guidance) \
                     work -> {:.1}x counters, {:.1}x with guidance; {:.1}ms vs {:.1}ms wall",
                    cell.warm_work,
                    cell.warm_guidance_work,
                    cell.full_work,
                    cell.full_guidance_work,
                    cell.work_ratio,
                    cell.work_ratio_with_guidance,
                    cell.warm_wall_seconds * 1e3,
                    cell.full_wall_seconds * 1e3,
                );
                cells.push(cell);
            }
        }
        pagerank_cells.push(measure_pagerank(&graph, 1.0));
    }

    // The acceptance gate this bench exists to witness: at every measured scale
    // of 100k+ vertices, a 1% edge batch must do >= 5x less counter-measured
    // work warm than a full recompute does.
    for cell in &cells {
        if cell.vertices >= 100_000 && cell.batch_percent == 1.0 {
            assert!(
                cell.work_ratio >= 5.0,
                "1% {} batch at {} vertices saved only {:.1}x counter-measured work",
                cell.mode,
                cell.vertices,
                cell.work_ratio
            );
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"git_commit\": {},", json::string(&git_commit()));
    let _ = writeln!(json, "  \"hardware_threads\": {},", hardware_threads());
    let _ = writeln!(
        json,
        "  \"note\": {},",
        json::string(
            "counted work is machine-independent; wall clock depends on hardware_threads. \
             work_ratio compares engine counters (edge computations + vertex updates, warm incl. the \
             invalidation pass) of a full recompute vs the warm restart; work_ratio_with_guidance adds \
             each side's guidance cost (repair — with its competitive fallback to regeneration — vs \
             fresh generation). The guidance is scheduling metadata the warm path itself never reads, \
             so a serving deployment may also maintain it lazily."
        )
    );
    json.push_str("  \"sssp\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            cell_json(cell),
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"pagerank_delta_restart\": [\n");
    for (i, cell) in pagerank_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {cell}{}",
            if i + 1 < pagerank_cells.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {e}", options.out.display());
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("wrote {}", options.out.display());
}
