//! `edge-stream`: one seeded single-edge update at a time, submitted to a
//! `ServingFrontend` over an in-memory SSSP `DeltaServer` and timed until
//! `published().seq()` advances, then one `top_k(10)` on that version. An
//! update should cost O(update): graph patch, layout patch, publish and top-k
//! do the work here, and the engine does almost none.

use crate::layers::Layers;
use crate::report::{self, EndToEnd, Report};
use crate::sys::{self, Update};
use crate::trace::{Tracer, SETUP_OP};
use crate::{Options, Scale};
use slfe_apps::sssp::SsspProgram;
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, SlfeEngine};
use slfe_delta::{
    DeltaServer, EdgeUpdate, FrontendConfig, FrontendHandle, PublishedVersion, ServerConfig,
    ServingFrontend,
};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{generators, stats, Graph, VertexId};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// R-MAT graph with Graph500 skew.
const VERTICES: usize = 200_000;
const EDGES: usize = 2_000_000;
/// Updates per nominal second of `--seconds`.
const UPDATES_PER_SECOND: f64 = 21.0;
/// Repeated set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Updates applied (and checked) before the measured phase. The first
/// updates after set-up fault in the memory later versions reuse, which a
/// long-running server pays once, not per update.
const WARMUP: usize = 100;
/// The client sleeps this long between checks of the published version.
const POLL: Duration = Duration::from_micros(100);
/// An update not visible after this long counts as failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(30);

type Factory = Box<dyn Fn(&Graph) -> SsspProgram + Send>;
type Server = DeltaServer<SsspProgram, Factory>;
type Frontend = ServingFrontend<SsspProgram, Factory>;

fn build_server(graph: Graph, root: VertexId, telemetry: bool) -> io::Result<Server> {
    let config = ServerConfig {
        cluster: sys::cluster(),
        engine: EngineConfig::default().with_telemetry(telemetry),
        ..ServerConfig::default()
    };
    let factory: Factory = Box::new(move |g: &Graph| SsspProgram {
        root: g.to_physical(root),
    });
    DeltaServer::try_new(graph, factory, config)
}

/// This workload's set-up: `DeltaServer::try_new` plus `ServingFrontend::spawn`.
fn setup(
    graph: &Graph,
    root: VertexId,
    telemetry: bool,
) -> io::Result<(Frontend, Instant, Instant)> {
    let graph = graph.clone();
    let start = Instant::now();
    let frontend = ServingFrontend::spawn(
        build_server(graph, root, telemetry)?,
        FrontendConfig::default(),
    );
    Ok((frontend, start, Instant::now()))
}

fn edge_update(u: &Update) -> EdgeUpdate {
    match u.weight {
        Some(weight) => EdgeUpdate::Insert {
            src: u.src,
            dst: u.dst,
            weight,
        },
        None => EdgeUpdate::Delete {
            src: u.src,
            dst: u.dst,
        },
    }
}

/// Sleep-poll until the published version advances past `before`.
fn wait_visible(
    handle: &FrontendHandle<f32>,
    before: u64,
    start: Instant,
) -> Option<Arc<PublishedVersion<f32>>> {
    loop {
        let version = handle.published();
        if version.seq() > before {
            return Some(version);
        }
        if start.elapsed() > VISIBLE_TIMEOUT {
            return None;
        }
        std::thread::sleep(POLL);
    }
}

/// The measured phase. Returns the end-to-end samples and, per op, the
/// submit → visible window.
fn phase(
    frontend: &Frontend,
    updates: &[Update],
    mut traced: Option<(&mut Tracer, &mut Layers)>,
    report: &mut Report,
) -> (EndToEnd, Vec<(Instant, Instant)>) {
    let handle = frontend.handle();
    let mut e2e = EndToEnd {
        op_ms: Vec::with_capacity(updates.len()),
        kinds: 1,
        items: updates.len() as f64,
        ..EndToEnd::default()
    };
    let mut windows = Vec::with_capacity(updates.len());
    for (op, u) in updates.iter().enumerate() {
        let before = handle.published().seq();
        let applied_before = traced.is_some().then(|| handle.apply_latency().sum());
        let start = Instant::now();
        let version = match handle.submit(edge_update(u)) {
            Ok(()) => wait_visible(&handle, before, start),
            Err(_) => None,
        };
        let visible = Instant::now();
        let answer = handle.top_k(10, None);
        let answered = Instant::now();
        e2e.op_ms.push((visible - start).as_secs_f64() * 1e3);
        e2e.busy_s += (answered - start).as_secs_f64();
        windows.push((start, visible));
        report.tally(match (&version, &answer) {
            (Some(v), Ok(a)) => {
                v.converged() && a.seq == v.seq() && a.value == sys::top_k_reference(v.values(), 10)
            }
            _ => false,
        });
        if let Some((tracer, layers)) = traced.as_mut() {
            let op = op as u32;
            tracer.call(op, "submit_visible", start, visible);
            tracer.call(op, "top_k", visible, answered);
            let applied = handle.apply_latency().sum() - applied_before.unwrap_or(0);
            let apply_ms = applied as f64 / 1e6;
            layers.frontend_apply_ms += apply_ms;
            layers.frontend_overhead_ms += (visible - start).as_secs_f64() * 1e3 - apply_ms;
            layers.topk_ms += (answered - visible).as_secs_f64() * 1e3;
        }
    }
    (e2e, windows)
}

/// Shut the frontend down and check the last published values bit for bit
/// against a from-scratch SSSP run on the final graph.
fn finish(frontend: Frontend, root: VertexId, report: &mut Report) -> (Server, Vec<f32>) {
    let last = frontend.handle().published().values().to_vec();
    let server = frontend.shutdown();
    let scratch = SlfeEngine::build(
        server.graph(),
        ClusterConfig::new(1, 1),
        EngineConfig::default(),
    )
    .run(&SsspProgram { root });
    if !(scratch.converged && sys::same_bits(&scratch.values, &last)) {
        report.failed += 1;
        report
            .notes
            .push("edge-stream: final values differ from a from-scratch SSSP run".into());
    }
    (server, last)
}

/// Run the workload.
pub fn run(opts: &Options) -> io::Result<Report> {
    let (n, m, setups, warmup) = match opts.scale {
        Scale::Full => (VERTICES, EDGES, SETUPS, WARMUP),
        Scale::Smoke => (3_000, 30_000, 2, 5),
    };
    let ops = opts.ops(UPDATES_PER_SECOND, 30);
    // Seeded inputs, before any clock starts.
    let graph = generators::rmat(n, m, 0.57, 0.19, 0.19, opts.seed);
    let root = stats::highest_out_degree_vertex(&graph).unwrap_or(0);
    let updates = sys::updates(
        &graph,
        warmup + ops,
        &mut SplitMix64::seed_from_u64(opts.seed ^ 0xed6e),
    );
    let (warm, updates) = updates.split_at(warmup);
    let input = format!(
        "edge-stream: {} vertices, {} edges, SSSP root {root} reaches {} vertices, \
         {warmup} warm-up and {ops} measured updates",
        graph.num_vertices(),
        graph.num_edges(),
        stats::reachable_from(&graph, root),
    );

    let mut setup_s = Vec::with_capacity(setups);
    let mut frontend: Option<Frontend> = None;
    for i in 0..setups {
        if let Some(previous) = frontend.take() {
            drop(previous.shutdown());
        }
        if i + 1 == setups {
            sys::reset_peak_rss()?;
        }
        let (f, start, end) = setup(&graph, root, false)?;
        setup_s.push((end - start).as_secs_f64());
        frontend = Some(f);
    }
    let frontend = frontend.expect("at least one set-up");
    let mut report = Report::default();
    phase(&frontend, warm, None, &mut report);
    let (untraced, _) = phase(&frontend, updates, None, &mut report);
    let untraced = EndToEnd {
        setup_s,
        peak_rss_mb: sys::peak_rss_mb()?,
        ..untraced
    };
    report.notes.push(input);
    report.notes.push(untraced.describe("edge-stream"));
    let (server, _) = finish(frontend, root, &mut report);
    drop(server);
    if !opts.trace {
        report.metrics = untraced.metrics();
        return Ok(report);
    }

    // Traced run, part 1: the same set-up and updates through the frontend
    // with telemetry on. Each op's server spans are the ones inside its
    // `batch` span; the frontend's apply latency splits the visible latency.
    sys::reset_peak_rss()?;
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (frontend, start, end) = setup(&graph, root, true)?;
    tracer.call(SETUP_OP, "setup", start, end);
    phase(&frontend, warm, None, &mut report);
    let (traced, windows) = phase(
        &frontend,
        updates,
        Some((&mut tracer, &mut layers)),
        &mut report,
    );
    let traced = EndToEnd {
        setup_s: vec![(end - start).as_secs_f64()],
        peak_rss_mb: sys::peak_rss_mb()?,
        ..traced
    };
    let (server, served) = finish(frontend, root, &mut report);
    let spans = server.telemetry().spans;
    let mut batches: Vec<_> = spans
        .iter()
        .filter(|s| s.cat == "server" && s.name == "batch")
        .copied()
        .collect();
    batches.sort_by_key(|s| s.start_ns);
    let first_batch = batches.first().map_or(u64::MAX, |b| b.start_ns);
    let setup_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.start_ns + s.dur_ns <= first_batch)
        .copied()
        .collect();
    tracer.absorb(SETUP_OP, &setup_spans, start, end);
    let measured = batches.get(warmup..).unwrap_or_default();
    if measured.len() == windows.len() {
        for (op, (b, &(start, visible))) in measured.iter().zip(&windows).enumerate() {
            let inside: Vec<_> = spans
                .iter()
                .filter(|s| {
                    s.start_ns >= b.start_ns && s.start_ns + s.dur_ns <= b.start_ns + b.dur_ns
                })
                .copied()
                .collect();
            tracer.absorb(op as u32, &inside, start, visible);
        }
    } else {
        report.notes.push(format!(
            "edge-stream: {} batch spans for {} updates; server spans left out of the frontend trace",
            batches.len(),
            warmup + windows.len()
        ));
    }
    drop(server);

    // Part 2: replay the same updates through `DeltaServer::try_apply`, the
    // one place `BatchOutcome`s are visible, timing the unspanned patch
    // stages on the served state between ops.
    let mut replay = Tracer::new();
    let mut server = build_server(graph.clone(), root, true)?;
    for u in warm {
        let outcome = server.try_apply(&sys::batch(std::slice::from_ref(u)));
        report.tally(outcome.is_ok_and(|o| o.converged));
    }
    let pool_before = server.pool().activity();
    let mut seen = server.telemetry().spans.len();
    layers.ops = updates.len() as f64;
    for (op, u) in updates.iter().enumerate() {
        let op = op as u32;
        let batch = sys::batch(std::slice::from_ref(u));
        sys::probe_patches(&server, &batch, op, &mut replay, &mut layers);
        let start = Instant::now();
        let outcome = server.try_apply(&batch);
        let end = Instant::now();
        replay.call(op, "try_apply", start, end);
        let spans = server.telemetry().spans;
        replay.absorb(op, &spans[seen..], start, end);
        seen = spans.len();
        report.tally(outcome.as_ref().is_ok_and(|o| o.converged));
        if let Ok(o) = &outcome {
            layers.add_outcome(o);
            layers.add_run(&server.result().stats, server.layout().chunks().len());
        }
    }
    layers.add_pool(Some(&pool_before), &server.pool().activity());
    layers.engine_run_ms =
        replay.total_ms("server", "warm_restart") + replay.total_ms("server", "cold_run");
    if !sys::same_bits(server.values(), &served) {
        report.failed += 1;
        report
            .notes
            .push("edge-stream: replayed values differ from the frontend's".into());
    }
    report.metrics = layers.metrics(&replay);
    report.metrics.extend(report::overhead(&untraced, &traced));
    for (spans, stem) in [
        (&tracer, "edge-stream-frontend"),
        (&replay, "edge-stream-replay"),
    ] {
        if let Err(e) = spans.write(&opts.out_dir, stem) {
            report.failed += 1;
            report.notes.push(format!("trace export failed: {e}"));
        }
    }
    Ok(report)
}
