//! Telemetry overhead and latency benchmark: the observability layer must be
//! free when off and near-free when on.
//!
//! ```text
//! telemetry_bench [--vertices N] [--degree D] [--batches K] [--runs K] [--out FILE]
//! ```
//!
//! Emits `BENCH_observability.json` (with `git_commit` and `hardware_threads`
//! recorded) from three sweeps:
//!
//! 1. **Overhead**: every registered application at 1 and 4 workers per node,
//!    telemetry off vs on. Values are asserted bit-identical and the work
//!    counters equal, so the counted-work overhead ratio is exactly 1.0 —
//!    asserted `< 1.05` before the file is written. Wall-clock ratios are
//!    reported informationally (they depend on `hardware_threads` and load).
//! 2. **Serving latency**: a durable, out-of-core, telemetry-on
//!    [`DeltaServer`] applies seeded batches; the WAL-fsync, segment-fault,
//!    batch-apply and iteration-wall histograms are dumped as percentile
//!    tables and asserted non-empty.
//! 3. **Pool activity**: per-worker busy/idle fractions, the coordinator's
//!    barrier-wait fraction and average concurrency at 1 and 4 pool workers.
//!
//! Every emitted JSON document — the Chrome trace, the Prometheus text's
//! shape, and this file itself — is validated before anything is written.

use slfe_apps::{bfs, cc, heat, numpaths, pagerank, spmv, sssp, tunkrank, widestpath};
use slfe_bench::json;
use slfe_bench::timing::time_best_of;
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, GraphProgram, SlfeEngine};
use slfe_delta::{DeltaServer, DurabilityConfig, ServerConfig};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{generators, Graph, UpdateBatch};
use slfe_metrics::{
    Counters, LatencyHistogram, HIST_BATCH_APPLY, HIST_ITERATION_WALL, HIST_SEGMENT_FAULT,
    HIST_WAL_FSYNC,
};
use std::fmt::Write as _;
use std::path::PathBuf;

struct Options {
    vertices: usize,
    degree: usize,
    batches: usize,
    runs: usize,
    out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            vertices: 4_000,
            degree: 6,
            batches: 8,
            runs: 2,
            out: PathBuf::from("BENCH_observability.json"),
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
                    .parse()
                    .map_err(|e| format!("invalid --vertices: {e}"))?
            }
            "--degree" => {
                options.degree = value("--degree")?
                    .parse()
                    .map_err(|e| format!("invalid --degree: {e}"))?
            }
            "--batches" => {
                options.batches = value("--batches")?
                    .parse()
                    .map_err(|e| format!("invalid --batches: {e}"))?
            }
            "--runs" => {
                options.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("invalid --runs: {e}"))?
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err(
                    "usage: telemetry_bench [--vertices N] [--degree D] [--batches K] [--runs K] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(options)
}

/// One measured (app, workers) point: telemetry off vs on.
struct OverheadPoint {
    app: &'static str,
    workers: usize,
    work: u64,
    iterations: u32,
    counted_overhead_ratio: f64,
    wall_off_seconds: f64,
    wall_on_seconds: f64,
    wall_ratio: f64,
    spans_collected: usize,
    values_bit_identical: bool,
    counters_equal: bool,
}

fn measure_overhead<P, V, F, B>(
    app: &'static str,
    graph: &Graph,
    options: &Options,
    workers: usize,
    make_program: F,
    bits: B,
) -> OverheadPoint
where
    P: GraphProgram<Value = V>,
    V: Copy + Send + Sync,
    F: Fn(&Graph) -> P,
    B: Fn(&[V]) -> Vec<u64>,
{
    let cluster = ClusterConfig::new(2, workers);
    let base = EngineConfig::default().with_trace(false);
    let off_engine = SlfeEngine::build(graph, cluster.clone(), base.clone());
    let on_engine = SlfeEngine::build(graph, cluster, base.with_telemetry(true));
    let program = make_program(graph);
    let mut off_result = None;
    let off_sample = time_best_of(options.runs, || {
        off_result = Some(off_engine.run(&program));
    });
    let mut on_result = None;
    let on_sample = time_best_of(options.runs, || {
        on_result = Some(on_engine.run(&program));
    });
    let off = off_result.expect("at least one measured run");
    let on = on_result.expect("at least one measured run");
    let work_off = off.stats.totals.work().max(1);
    let work_on = on.stats.totals.work();
    let snap = on_engine.telemetry().snapshot();
    // Exercise the exporters on every point and insist the trace parses.
    json::parse(&snap.chrome_trace()).expect("chrome trace must be valid JSON");
    let point = OverheadPoint {
        app,
        workers,
        work: work_on,
        iterations: on.stats.iterations,
        counted_overhead_ratio: work_on as f64 / work_off as f64,
        wall_off_seconds: off_sample.best_seconds,
        wall_on_seconds: on_sample.best_seconds,
        wall_ratio: on_sample.best_seconds / off_sample.best_seconds.max(1e-12),
        spans_collected: snap.spans.len(),
        values_bit_identical: bits(&off.values) == bits(&on.values),
        // `scratch_bytes_peak` sums per-worker high-water marks and so
        // depends on chunk-stealing races at >1 workers; every other counter
        // must match exactly (tests/telemetry.rs pins the same).
        counters_equal: {
            let strip_peak = |c: Counters| Counters {
                scratch_bytes_peak: 0,
                ..c
            };
            strip_peak(off.stats.totals) == strip_peak(on.stats.totals)
        },
    };
    eprintln!(
        "  {app} @{workers}w: counted ratio {:.4}, wall {:.4}s -> {:.4}s (x{:.3}), {} spans, identical: {}",
        point.counted_overhead_ratio,
        point.wall_off_seconds,
        point.wall_on_seconds,
        point.wall_ratio,
        point.spans_collected,
        point.values_bit_identical
    );
    point
}

fn f32_bits(values: &[f32]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits() as u64).collect()
}

/// A percentile table of one latency histogram, nanoseconds.
struct HistTable {
    name: &'static str,
    count: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
    mean: f64,
}

fn hist_table(name: &'static str, h: &LatencyHistogram) -> HistTable {
    HistTable {
        name,
        count: h.count(),
        p50: h.percentile(0.50).unwrap_or(0),
        p90: h.percentile(0.90).unwrap_or(0),
        p99: h.percentile(0.99).unwrap_or(0),
        max: h.max().unwrap_or(0),
        mean: h.mean().unwrap_or(0.0),
    }
}

/// The durable-serving sweep at one pool size: latency histograms plus pool
/// activity fractions.
struct ServingPoint {
    workers: usize,
    batches: usize,
    tables: Vec<HistTable>,
    busy_fractions: Vec<f64>,
    idle_fractions: Vec<f64>,
    barrier_wait_fraction: f64,
    average_concurrency: f64,
    phases: u64,
}

fn mixed_batch(graph: &Graph, seed: u64, ops: usize) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = graph.num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let src = rng.range_u32(0, n);
        if rng.next_f64() < 0.7 {
            batch.insert(src, rng.range_u32(0, n), rng.range_f32(1.0, 10.0));
        } else if let Some(&dst) = graph.out_neighbors(src).first() {
            batch.delete(src, dst);
        }
    }
    batch
}

fn measure_serving(graph: &Graph, options: &Options, workers: usize) -> ServingPoint {
    let dir = std::env::temp_dir().join(format!(
        "slfe-telemetry-bench-{}-{workers}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let root = slfe_graph::stats::highest_out_degree_vertex(graph).unwrap_or(0);
    let config = ServerConfig {
        cluster: ClusterConfig::new(1, workers),
        engine: EngineConfig::default()
            .with_trace(false)
            .with_telemetry(true)
            .with_storage_budget(32 << 10)
            .with_storage_segment_bytes(2 << 10),
        ..ServerConfig::default()
    };
    let durability = DurabilityConfig::new(&dir).with_snapshot_every(3);
    let mut server = DeltaServer::create_durable(
        graph.clone(),
        move |_: &Graph| sssp::SsspProgram { root },
        config,
        durability,
    )
    .expect("durable server");
    let mut current = graph.clone();
    for round in 0..options.batches as u64 {
        let batch = mixed_batch(&current, round + 7_000, 20);
        let outcome = server.try_apply(&batch).expect("apply batch");
        assert!(outcome.converged, "batch {round} failed to converge");
        assert!(
            outcome.wal_fsync_seconds > 0.0,
            "batch {round}: durable apply must time its fsync"
        );
        current = current.apply_batch(&batch).0;
    }

    let snap = server.telemetry();
    let tables: Vec<HistTable> = [
        HIST_WAL_FSYNC,
        HIST_SEGMENT_FAULT,
        HIST_BATCH_APPLY,
        HIST_ITERATION_WALL,
    ]
    .into_iter()
    .map(|name| {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} histogram missing at {workers} workers"));
        hist_table(name, h)
    })
    .collect();
    // The trace and the registry exposition must both be well-formed.
    json::parse(&snap.chrome_trace()).expect("chrome trace must be valid JSON");
    let prometheus = server.metrics_registry().prometheus_text();
    assert!(prometheus.contains("# TYPE slfe_wal_fsyncs_total counter"));

    let activity = server.pool().activity();
    let point = ServingPoint {
        workers,
        batches: options.batches,
        tables,
        busy_fractions: activity.busy_fractions(),
        idle_fractions: activity.idle_fractions(),
        barrier_wait_fraction: activity.barrier_wait_fraction(),
        average_concurrency: activity.average_concurrency(),
        phases: activity.phases,
    };
    for t in &point.tables {
        eprintln!(
            "  {} @{workers}w: n={} p50={}ns p90={}ns p99={}ns max={}ns",
            t.name, t.count, t.p50, t.p90, t.p99, t.max
        );
    }
    eprintln!(
        "  pool @{workers}w: busy {:?}, barrier wait {:.4}, avg concurrency {:.3} over {} phases",
        point.busy_fractions, point.barrier_wait_fraction, point.average_concurrency, point.phases
    );
    let _ = std::fs::remove_dir_all(&dir);
    point
}

fn main() {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let hardware_threads = slfe_bench::hardware_threads();

    let rmat = generators::rmat(
        options.vertices,
        options.vertices * options.degree,
        0.57,
        0.19,
        0.19,
        7_2026,
    );
    let sym = cc::symmetrize(&generators::rmat(
        options.vertices / 2,
        options.vertices * options.degree / 2,
        0.57,
        0.19,
        0.19,
        7_2027,
    ));
    let dag = generators::layered(10, (options.vertices / 10).max(20), 4, 7_2028);
    let root = slfe_graph::stats::highest_out_degree_vertex(&rmat).unwrap_or(0);
    eprintln!(
        "rmat: {} vertices, {} edges; overhead sweep over 9 apps x {{1, 4}} workers",
        rmat.num_vertices(),
        rmat.num_edges()
    );

    let mut overhead = Vec::new();
    for workers in [1usize, 4] {
        overhead.push(measure_overhead(
            "sssp",
            &rmat,
            &options,
            workers,
            |_| sssp::SsspProgram { root },
            f32_bits,
        ));
        overhead.push(measure_overhead(
            "bfs",
            &rmat,
            &options,
            workers,
            |_| bfs::BfsProgram { root },
            f32_bits,
        ));
        overhead.push(measure_overhead(
            "cc",
            &sym,
            &options,
            workers,
            cc::CcProgram::for_graph,
            f32_bits,
        ));
        overhead.push(measure_overhead(
            "widestpath",
            &rmat,
            &options,
            workers,
            |_| widestpath::WidestPathProgram { root },
            f32_bits,
        ));
        overhead.push(measure_overhead(
            "pagerank",
            &rmat,
            &options,
            workers,
            pagerank::PageRankProgram::for_graph,
            f32_bits,
        ));
        overhead.push(measure_overhead(
            "tunkrank",
            &rmat,
            &options,
            workers,
            |_| tunkrank::TunkRankProgram::default(),
            f32_bits,
        ));
        overhead.push(measure_overhead(
            "spmv",
            &rmat,
            &options,
            workers,
            |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
            |values: &[(f32, f32)]| {
                values
                    .iter()
                    .map(|(x, y)| ((x.to_bits() as u64) << 32) | y.to_bits() as u64)
                    .collect()
            },
        ));
        overhead.push(measure_overhead(
            "heat",
            &rmat,
            &options,
            workers,
            |g: &Graph| heat::HeatProgram::point_source(g, root),
            f32_bits,
        ));
        overhead.push(measure_overhead(
            "numpaths",
            &dag,
            &options,
            workers,
            |_| numpaths::NumPathsProgram { root: 0 },
            f32_bits,
        ));
    }

    // Serving sweep: a smaller graph keeps the per-batch restarts quick while
    // the 32 KiB pool budget still forces real segment faults.
    let serving_graph = generators::rmat(
        (options.vertices / 2).max(500),
        (options.vertices / 2).max(500) * options.degree,
        0.57,
        0.19,
        0.19,
        7_2029,
    );
    eprintln!(
        "serving: {} vertices, {} edges, {} durable batches per pool size",
        serving_graph.num_vertices(),
        serving_graph.num_edges(),
        options.batches
    );
    let serving: Vec<ServingPoint> = [1usize, 4]
        .into_iter()
        .map(|workers| measure_serving(&serving_graph, &options, workers))
        .collect();

    // ---- Assertions gate the file write. ----
    for p in &overhead {
        assert!(
            p.values_bit_identical,
            "{} at {} workers: telemetry changed the computed values",
            p.app, p.workers
        );
        assert!(
            p.counters_equal,
            "{} at {} workers: telemetry changed the work counters",
            p.app, p.workers
        );
        assert!(
            p.counted_overhead_ratio < 1.05,
            "{} at {} workers: counted-work overhead ratio {} >= 1.05",
            p.app,
            p.workers,
            p.counted_overhead_ratio
        );
        assert!(p.spans_collected > 0);
    }
    for s in &serving {
        assert_eq!(s.busy_fractions.len(), s.workers);
        for f in s.busy_fractions.iter().chain(&s.idle_fractions) {
            assert!((0.0..=1.0).contains(f), "fraction {f} out of range");
        }
        for t in &s.tables {
            assert!(
                t.count > 0,
                "{} at {} workers: latency table is empty",
                t.name,
                s.workers
            );
            assert!(t.p50 <= t.p99 && t.p99 <= t.max);
        }
        assert_eq!(
            s.tables[0].count, s.batches as u64,
            "one WAL fsync per applied batch"
        );
    }

    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"git_commit\": {},\n  \"hardware_threads\": {hardware_threads},\n  \"note\": {},\n",
        json::string(&slfe_bench::git_commit()),
        json::string("telemetry off vs on for every registered app at 1 and 4 workers: values are asserted bit-identical and counters equal, so counted_overhead_ratio is the machine-independent overhead measure (asserted < 1.05); wall ratios depend on hardware_threads and load. Latency tables come from a durable out-of-core SSSP server applying seeded batches with telemetry on; pool fractions are measured over the server pool's lifetime. A 1-worker pool reports zero phases because single-worker schedules run inline on the coordinator")
    );
    let _ = writeln!(
        out,
        "  \"graphs\": {{\"rmat\": {{\"vertices\": {}, \"edges\": {}}}, \"serving\": {{\"vertices\": {}, \"edges\": {}}}}},",
        rmat.num_vertices(),
        rmat.num_edges(),
        serving_graph.num_vertices(),
        serving_graph.num_edges()
    );
    out.push_str("  \"overhead\": [");
    for (i, p) in overhead.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"app\": {}, \"workers_per_node\": {}, \"work\": {}, \"iterations\": {}, \"counted_overhead_ratio\": {}, \"wall_off_seconds\": {}, \"wall_on_seconds\": {}, \"wall_ratio\": {}, \"spans_collected\": {}, \"values_bit_identical\": {}, \"counters_equal\": {}}}",
            json::string(p.app),
            p.workers,
            p.work,
            p.iterations,
            json::float_fixed(p.counted_overhead_ratio, 6),
            json::float_fixed(p.wall_off_seconds, 6),
            json::float_fixed(p.wall_on_seconds, 6),
            json::float_fixed(p.wall_ratio, 4),
            p.spans_collected,
            p.values_bit_identical,
            p.counters_equal
        );
    }
    out.push_str("\n  ],\n  \"serving\": [");
    for (i, s) in serving.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"pool_workers\": {}, \"batches\": {}, \"latency_ns\": {{",
            s.workers, s.batches
        );
        for (j, t) in s.tables.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}}}",
                t.name,
                t.count,
                t.p50,
                t.p90,
                t.p99,
                t.max,
                json::float_fixed(t.mean, 1)
            );
        }
        out.push_str("}, \"pool\": {\"busy_fractions\": [");
        for (j, f) in s.busy_fractions.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", json::float_fixed(*f, 6));
        }
        out.push_str("], \"idle_fractions\": [");
        for (j, f) in s.idle_fractions.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", json::float_fixed(*f, 6));
        }
        let _ = write!(
            out,
            "], \"barrier_wait_fraction\": {}, \"average_concurrency\": {}, \"phases\": {}}}}}",
            json::float_fixed(s.barrier_wait_fraction, 6),
            json::float_fixed(s.average_concurrency, 4),
            s.phases
        );
    }
    out.push_str("\n  ]\n}\n");

    // The bench must never publish a document its own parser rejects.
    json::parse(&out).expect("emitted benchmark JSON must be valid");

    if let Err(e) = std::fs::write(&options.out, &out) {
        eprintln!("cannot write {}: {e}", options.out.display());
        std::process::exit(1);
    }
    println!("{out}");
    eprintln!("wrote {}", options.out.display());
}
