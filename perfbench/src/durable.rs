//! `durable-serving`: one 16-update batch through `DeltaServer::try_apply`,
//! then one `top_k(10)`, on a PageRank server built with `create_durable`.
//! The `DurabilityConfig` defaults apply (WAL fsync per batch, a snapshot
//! every 8 batches, compaction past 50% dead bytes), and the out-of-core
//! buffer pool holds at most 1/8 of the segment footprint. Storage,
//! durability and the arithmetic warm restart dominate here.

use crate::layers::Layers;
use crate::report::{self, EndToEnd, Report};
use crate::sys::{self, Update};
use crate::trace::{Tracer, SETUP_OP};
use crate::{Options, Scale};
use slfe_apps::pagerank::PageRankProgram;
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, RedundancyMode, SlfeEngine};
use slfe_delta::{DeltaServer, DurabilityConfig, ServerConfig, UpdateBatch};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{generators, Graph};
use slfe_metrics::DurabilityCounters;
use std::io;
use std::path::Path;
use std::time::Instant;

/// R-MAT graph with Graph500 skew.
const VERTICES: usize = 100_000;
const EDGES: usize = 1_000_000;
/// Edge updates per batch.
const BATCH: usize = 16;
/// Batches per nominal second of `--seconds`.
const BATCHES_PER_SECOND: f64 = 6.0;
/// Repeated set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Batches applied (and checked) before the measured phase: two snapshot
/// cycles, so the buffer pool, the segment files and the allocator reach
/// the state a long-running server keeps.
const WARMUP: usize = 16;
/// The engine's default out-of-core segment size.
const SEGMENT_BYTES: u64 = 64 << 10;

type Server = DeltaServer<PageRankProgram, fn(&Graph) -> PageRankProgram>;

fn config(budget: u64, dir: &Path, telemetry: bool) -> ServerConfig {
    ServerConfig {
        cluster: sys::cluster(),
        engine: EngineConfig::default()
            .with_storage_budget(budget)
            .with_storage_dir(dir.join("segments"))
            .with_telemetry(telemetry),
        ..ServerConfig::default()
    }
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir.join("durable"))
}

fn factory() -> fn(&Graph) -> PageRankProgram {
    PageRankProgram::for_graph
}

/// Buffer-pool budget: 1/8 of the segment footprint (both directions'
/// offsets and edge entries), and at least four segments so that each
/// worker's pinned cursor leaves room to cache.
fn budget(graph: &Graph) -> u64 {
    let footprint = 2 * ((graph.num_vertices() as u64 + 1) * 4 + graph.num_edges() as u64 * 8);
    (footprint / 8).max(4 * SEGMENT_BYTES)
}

/// This workload's set-up: `DeltaServer::create_durable` in an empty
/// directory, including the segment files and the first snapshot.
fn setup(graph: &Graph, dir: &Path, telemetry: bool) -> io::Result<(Server, Instant, Instant)> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let graph = graph.clone();
    let budget = budget(&graph);
    let start = Instant::now();
    let server = Server::create_durable(
        graph,
        factory(),
        config(budget, dir, telemetry),
        durability(dir),
    )?;
    Ok((server, start, Instant::now()))
}

/// The measured phase.
fn phase(
    server: &mut Server,
    batches: &[UpdateBatch],
    mut traced: Option<(&mut Tracer, &mut Layers)>,
    report: &mut Report,
) -> EndToEnd {
    let mut e2e = EndToEnd {
        op_ms: Vec::with_capacity(batches.len()),
        kinds: 1,
        items: (batches.len() * BATCH) as f64,
        ..EndToEnd::default()
    };
    let pool_before = server.pool().activity();
    let cache_before = server.storage().map(|s| s.pool().counters());
    let mut seen = server.telemetry().spans.len();
    for (op, batch) in batches.iter().enumerate() {
        let op = op as u32;
        let counters_before = server.durability_counters().copied();
        if let Some((tracer, layers)) = traced.as_mut() {
            sys::probe_patches(server, batch, op, tracer, layers);
        }
        let start = Instant::now();
        let outcome = server.try_apply(batch);
        let applied = Instant::now();
        let top = server.top_k(10);
        let answered = Instant::now();
        e2e.op_ms.push((applied - start).as_secs_f64() * 1e3);
        e2e.busy_s += (answered - start).as_secs_f64();
        let converged = outcome.as_ref().is_ok_and(|o| o.converged && !o.degraded);
        report.tally(converged && top == sys::top_k_reference(server.values(), 10));
        if let Some((tracer, layers)) = traced.as_mut() {
            tracer.call(op, "try_apply", start, applied);
            tracer.call(op, "top_k", applied, answered);
            let spans = server.telemetry().spans;
            tracer.absorb(op, &spans[seen..], start, applied);
            seen = spans.len();
            layers.ops += 1.0;
            layers.topk_ms += (answered - applied).as_secs_f64() * 1e3;
            if let Ok(o) = &outcome {
                layers.add_outcome(o);
                layers.add_run(&server.result().stats, server.layout().chunks().len());
            }
            if let (Some(b), Some(a)) = (counters_before, server.durability_counters()) {
                add_durability(layers, &b, a);
                // The snapshot brought the guidance up to date, so reading it
                // repairs nothing: its generation work is that repair's.
                if a.snapshots_written > b.snapshots_written {
                    layers.rrg_work += server.guidance().generation_work() as f64;
                }
            }
        }
    }
    if let Some((tracer, layers)) = traced {
        layers.add_pool(Some(&pool_before), &server.pool().activity());
        layers.engine_run_ms =
            tracer.total_ms("server", "warm_restart") + tracer.total_ms("server", "cold_run");
        layers.rrg_generate_ms = tracer.total_ms("server", "guidance_repair");
        if let (Some(storage), Some(b)) = (server.storage(), cache_before) {
            let pool = storage.pool();
            let c = pool.counters();
            layers.segment_hits = (c.segment_hits - b.segment_hits) as f64;
            layers.segment_gets =
                layers.segment_hits + (c.segments_faulted - b.segments_faulted) as f64;
            layers.resident_peak_bytes = pool.peak_resident_bytes() as f64;
        }
    }
    e2e
}

fn add_durability(layers: &mut Layers, before: &DurabilityCounters, after: &DurabilityCounters) {
    layers.wal_bytes += (after.wal_bytes_appended - before.wal_bytes_appended) as f64;
    layers.snapshot_bytes += (after.snapshot_bytes_written - before.snapshot_bytes_written) as f64;
    layers.compactions += (after.compactions - before.compactions) as f64;
    layers.reclaimed_bytes +=
        (after.compaction_bytes_reclaimed - before.compaction_bytes_reclaimed) as f64;
}

/// Check the served values against a cold PageRank run on the final graph,
/// then reopen the durable state and check it serves them bit for bit.
fn finish(server: Server, dir: &Path, telemetry: bool, report: &mut Report) -> io::Result<()> {
    let served = server.values().to_vec();
    let graph = server.graph().clone();
    let budget = budget(&graph);
    drop(server);
    // The oracle runs without the rulers, to the exact fixpoint. The served
    // values descend from the server's own ruler-gated cold run ("finish
    // early" stops it several percent short) and every warm delta-restart
    // pulls them toward that fixpoint, so they agree to about a percent.
    let exact = EngineConfig::default()
        .with_redundancy(RedundancyMode::Disabled)
        .with_max_iterations(400);
    let cold = SlfeEngine::build(&graph, ClusterConfig::new(1, 1), exact)
        .run(&PageRankProgram::for_graph(&graph));
    let deviation = sys::deviation(&served, &cold.values);
    if !(cold.converged && sys::close(&served, &cold.values, 1e-2)) {
        report.failed += 1;
    }
    report.notes.push(format!(
        "durable-serving: served values deviate {deviation:.2e} (L1, relative) from a cold PageRank run"
    ));
    match Server::open(factory(), config(budget, dir, telemetry), durability(dir)) {
        Ok(reopened) if sys::same_bits(reopened.values(), &served) => {}
        Ok(_) => {
            report.failed += 1;
            report
                .notes
                .push("durable-serving: reopened values differ from the served ones".into());
        }
        Err(e) => {
            report.failed += 1;
            report
                .notes
                .push(format!("durable-serving: reopen failed: {e:?}"));
        }
    }
    std::fs::remove_dir_all(dir)
}

/// Run the workload.
pub fn run(opts: &Options) -> io::Result<Report> {
    let (n, m, setups, warmup) = match opts.scale {
        Scale::Full => (VERTICES, EDGES, SETUPS, WARMUP),
        Scale::Smoke => (3_000, 30_000, 2, 4),
    };
    let count = warmup + opts.ops(BATCHES_PER_SECOND, 20);
    // Seeded inputs, before any clock starts.
    let graph = generators::rmat(n, m, 0.57, 0.19, 0.19, opts.seed);
    let updates: Vec<Update> = sys::updates(
        &graph,
        count * BATCH,
        &mut SplitMix64::seed_from_u64(opts.seed ^ 0xd0ab),
    );
    let batches: Vec<UpdateBatch> = updates.chunks(BATCH).map(sys::batch).collect();
    let (warm, batches) = batches.split_at(warmup);
    let dir = opts.out_dir.join("state");

    let mut setup_s = Vec::with_capacity(setups);
    let mut server = None;
    for i in 0..setups {
        drop(server.take());
        if i + 1 == setups {
            sys::reset_peak_rss()?;
        }
        let (s, start, end) = setup(&graph, &dir, false)?;
        setup_s.push((end - start).as_secs_f64());
        server = Some(s);
    }
    let mut server = server.expect("at least one set-up");
    let footprint = server.storage().map_or(0, |s| s.footprint_bytes());
    let mut report = Report::default();
    phase(&mut server, warm, None, &mut report);
    let untraced = phase(&mut server, batches, None, &mut report);
    let untraced = EndToEnd {
        setup_s,
        peak_rss_mb: sys::peak_rss_mb()?,
        ..untraced
    };
    report.notes.push(untraced.describe("durable-serving"));
    report.notes.push(format!(
        "durable-serving: {} vertices, {} edges, {warmup} warm-up and {} measured batches of \
         {BATCH}; buffer pool budget {} KiB for a {} KiB segment footprint",
        graph.num_vertices(),
        graph.num_edges(),
        batches.len(),
        budget(&graph) >> 10,
        footprint >> 10
    ));
    finish(server, &dir, false, &mut report)?;
    if !opts.trace {
        report.metrics = untraced.metrics();
        return Ok(report);
    }

    // Traced run: the same set-up and batches with telemetry on.
    sys::reset_peak_rss()?;
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (mut server, start, end) = setup(&graph, &dir, true)?;
    tracer.call(SETUP_OP, "setup", start, end);
    tracer.absorb(SETUP_OP, &server.telemetry().spans, start, end);
    phase(&mut server, warm, None, &mut report);
    let traced = phase(
        &mut server,
        batches,
        Some((&mut tracer, &mut layers)),
        &mut report,
    );
    let traced = EndToEnd {
        setup_s: vec![(end - start).as_secs_f64()],
        peak_rss_mb: sys::peak_rss_mb()?,
        ..traced
    };
    finish(server, &dir, true, &mut report)?;
    report.metrics = layers.metrics(&tracer);
    report.metrics.extend(report::overhead(&untraced, &traced));
    if let Err(e) = tracer.write(&opts.out_dir, "durable-serving") {
        report.failed += 1;
        report.notes.push(format!("trace export failed: {e}"));
    }
    Ok(report)
}
