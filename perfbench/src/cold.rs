//! `cold-analytics`: the paper's own evaluation. One op is a cold job —
//! `SlfeEngine::build` (partition, layout, RR-guidance preprocessing) and
//! `run` to the fixpoint — cycling through SSSP, CC (on the symmetrised
//! graph), WP, PR and TR on an in-memory R-MAT social-graph proxy. No
//! serving layer runs, so a serving-path change should read no change here.

use crate::layers::Layers;
use crate::report::{self, EndToEnd, Report};
use crate::sys;
use crate::trace::{Tracer, SETUP_OP};
use crate::{Options, Scale};
use slfe_apps::cc::{self, CcProgram};
use slfe_apps::pagerank::PageRankProgram;
use slfe_apps::sssp::SsspProgram;
use slfe_apps::tunkrank::TunkRankProgram;
use slfe_apps::widestpath::WidestPathProgram;
use slfe_cluster::{ClusterConfig, PoolActivity};
use slfe_core::{EngineConfig, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::types::Edge;
use slfe_graph::{generators, stats, Graph, VertexId};
use slfe_metrics::SpanEvent;
use std::io;
use std::time::Instant;

/// R-MAT with Graph500 skew and an average degree near Pokec's (~19).
const VERTICES: usize = 200_000;
const EDGES: usize = 3_800_000;
/// Passes over the five apps per nominal second of `--seconds`.
const PASSES_PER_SECOND: f64 = 0.8;
/// Repeated set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum App {
    Sssp,
    Cc,
    Wp,
    Pr,
    Tr,
}

const APPS: [App; 5] = [App::Sssp, App::Cc, App::Wp, App::Pr, App::Tr];

/// The graphs jobs run on. Building them is this workload's set-up.
struct Graphs {
    directed: Graph,
    symmetric: Graph,
}

impl Graphs {
    fn build(n: usize, edges: Vec<Edge>) -> Self {
        let directed = Graph::from_edges(n, edges);
        let symmetric = cc::symmetrize(&directed);
        Self {
            directed,
            symmetric,
        }
    }
}

/// One cold job and what it exposed.
struct Job {
    result: ProgramResult<f32>,
    start: Instant,
    built: Instant,
    done: Instant,
    /// After the engine (and its worker pool) was dropped.
    torn_down: Instant,
    rrg_s: f64,
    rrg_work: u64,
    chunks: usize,
    pool: PoolActivity,
    spans: Vec<SpanEvent>,
}

fn job<P: GraphProgram<Value = f32>>(
    graph: &Graph,
    program: &P,
    cluster: ClusterConfig,
    telemetry: bool,
) -> Job {
    let config = EngineConfig::default().with_telemetry(telemetry);
    let start = Instant::now();
    let engine = SlfeEngine::build(graph, cluster, config);
    let built = Instant::now();
    let result = engine.run(program);
    let done = Instant::now();
    let rrg_s = engine.preprocessing_wall_seconds();
    let rrg_work = engine.guidance().generation_work();
    let chunks = engine.layout().chunks().len();
    let pool = engine.pool().activity();
    let spans = if telemetry {
        engine.telemetry().snapshot().spans
    } else {
        Vec::new()
    };
    drop(engine);
    Job {
        result,
        start,
        built,
        done,
        torn_down: Instant::now(),
        rrg_s,
        rrg_work,
        chunks,
        pool,
        spans,
    }
}

fn run_app(app: App, g: &Graphs, root: VertexId, cluster: ClusterConfig, telemetry: bool) -> Job {
    match app {
        App::Sssp => job(&g.directed, &SsspProgram { root }, cluster, telemetry),
        App::Cc => job(
            &g.symmetric,
            &CcProgram::for_graph(&g.symmetric),
            cluster,
            telemetry,
        ),
        App::Wp => job(&g.directed, &WidestPathProgram { root }, cluster, telemetry),
        App::Pr => job(
            &g.directed,
            &PageRankProgram::for_graph(&g.directed),
            cluster,
            telemetry,
        ),
        App::Tr => job(&g.directed, &TunkRankProgram::default(), cluster, telemetry),
    }
}

/// Converged, and equal to the reference: bit for bit for the min/max apps,
/// within tolerance for the arithmetic ones.
fn check(app: App, job: &Job, reference: &[f32]) -> bool {
    let values = &job.result.values;
    job.result.converged
        && match app {
            App::Pr | App::Tr => sys::close(values, reference, 1e-6),
            _ => sys::same_bits(values, reference),
        }
}

/// The measured phase: `jobs` cold jobs cycling through the apps.
fn phase(
    graphs: &Graphs,
    root: VertexId,
    references: &[Vec<f32>],
    jobs: usize,
    mut traced: Option<(&mut Tracer, &mut Layers)>,
    report: &mut Report,
) -> EndToEnd {
    let mut e2e = EndToEnd {
        op_ms: Vec::with_capacity(jobs),
        kinds: APPS.len(),
        items: jobs as f64,
        ..EndToEnd::default()
    };
    for op in 0..jobs {
        let app = APPS[op % APPS.len()];
        let job = run_app(app, graphs, root, sys::cluster(), traced.is_some());
        e2e.op_ms.push((job.done - job.start).as_secs_f64() * 1e3);
        e2e.busy_s += (job.torn_down - job.start).as_secs_f64();
        report.tally(check(app, &job, &references[op % APPS.len()]));
        if let Some((tracer, layers)) = traced.as_mut() {
            let op = op as u32;
            tracer.call(op, "job", job.start, job.done);
            tracer.call(op, "build", job.start, job.built);
            tracer.call(op, "run", job.built, job.done);
            tracer.absorb(op, &job.spans, job.built, job.done);
            let build_s = (job.built - job.start).as_secs_f64();
            layers.ops += 1.0;
            layers.rrg_generate_ms += job.rrg_s * 1e3;
            layers.rrg_work += job.rrg_work as f64;
            layers.engine_build_ms += (build_s - job.rrg_s) * 1e3;
            layers.engine_run_ms += (job.done - job.built).as_secs_f64() * 1e3;
            layers.add_run(&job.result.stats, job.chunks);
            layers.add_pool(None, &job.pool);
        }
    }
    e2e
}

/// Run the workload.
pub fn run(opts: &Options) -> io::Result<Report> {
    let (n, m, setups) = match opts.scale {
        Scale::Full => (VERTICES, EDGES, SETUPS),
        Scale::Smoke => (3_000, 30_000, 2),
    };
    let jobs = APPS.len() * opts.ops(PASSES_PER_SECOND, 2);
    // Seeded inputs, before any clock starts: the R-MAT sample, the edge
    // list handed to `Graph::from_edges`, and one reference result per app
    // from the 1×1 sequential engine.
    let edges: Vec<Edge> = generators::rmat(n, m, 0.57, 0.19, 0.19, opts.seed)
        .edges()
        .to_vec();
    let (root, references, input) = {
        let graphs = Graphs::build(n, edges.clone());
        let root = stats::highest_out_degree_vertex(&graphs.directed).unwrap_or(0);
        let input = format!(
            "cold-analytics: {n} vertices, {} edges ({} symmetrised), root {root} reaches {} vertices, {jobs} jobs",
            graphs.directed.num_edges(),
            graphs.symmetric.num_edges(),
            stats::reachable_from(&graphs.directed, root)
        );
        let single = ClusterConfig::new(1, 1);
        let references: Vec<Vec<f32>> = APPS
            .iter()
            .map(|&app| {
                run_app(app, &graphs, root, single.clone(), false)
                    .result
                    .values
            })
            .collect();
        (root, references, input)
    };

    let mut setup_s = Vec::with_capacity(setups);
    let mut graphs = None;
    for i in 0..setups {
        drop(graphs.take());
        if i + 1 == setups {
            sys::reset_peak_rss()?;
        }
        let input = edges.clone();
        let start = Instant::now();
        graphs = Some(Graphs::build(n, input));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let graphs = graphs.expect("at least one set-up");
    let mut report = Report::default();
    let untraced = EndToEnd {
        setup_s,
        ..phase(&graphs, root, &references, jobs, None, &mut report)
    };
    let untraced = EndToEnd {
        peak_rss_mb: sys::peak_rss_mb()?,
        ..untraced
    };
    report.notes.push(input);
    report.notes.push(untraced.describe("cold-analytics"));
    let medians: Vec<String> = APPS
        .iter()
        .zip(untraced.kind_medians())
        .map(|(app, ms)| format!("{app:?} {ms:.1}"))
        .collect();
    report.notes.push(format!(
        "cold-analytics: median job ms per app: {}",
        medians.join(", ")
    ));
    if !opts.trace {
        report.metrics = untraced.metrics();
        return Ok(report);
    }

    // Traced run: the same set-up and job sequence with engine telemetry on.
    drop(graphs);
    sys::reset_peak_rss()?;
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let input = edges.clone();
    let start = Instant::now();
    let graphs = Graphs::build(n, input);
    let setup_end = Instant::now();
    tracer.call(SETUP_OP, "setup", start, setup_end);
    let traced = phase(
        &graphs,
        root,
        &references,
        jobs,
        Some((&mut tracer, &mut layers)),
        &mut report,
    );
    let traced = EndToEnd {
        setup_s: vec![(setup_end - start).as_secs_f64()],
        peak_rss_mb: sys::peak_rss_mb()?,
        ..traced
    };
    report.metrics = layers.metrics(&tracer);
    report.metrics.extend(report::overhead(&untraced, &traced));
    if let Err(e) = tracer.write(&opts.out_dir, "cold-analytics") {
        report.failed += 1;
        report.notes.push(format!("trace export failed: {e}"));
    }
    Ok(report)
}
