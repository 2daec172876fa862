//! Fault-injection benchmark: the crashpoint sweep as a recorded artifact.
//!
//! ```text
//! fault_bench [--vertices N] [--batches B] [--out FILE]
//! ```
//!
//! For SSSP (min/max) and PageRank (arithmetic) at 1 and 4 workers, a
//! deterministic [`FaultPlan`] schedules a fault at each apply-path injection
//! site in turn — transient (retry-absorbable) and permanent
//! (retry-exhausting) — plus the open-time sites (WAL scan, snapshot read)
//! and an ENOSPC shot at the WAL. Every run is probe-asserted before the
//! JSON is written:
//!
//! * a **recovered** run (retries, quarantine rebuilds, absorbed
//!   snapshot/trim failures) must finish bit-identical to the fault-free
//!   oracle;
//! * a **rejected** run (WAL append/fsync, un-patchable segment store,
//!   ENOSPC) must return a typed [`ApplyError`], flip read-only, and keep
//!   serving the previous version's exact bits;
//! * a faulted **open** must either recover bit-identically (transient) or
//!   fail with a typed `DurabilityError` (permanent).
//!
//! Emits `BENCH_faults.json`: one record per run (site, kind, outcome,
//! injections, retries, quarantines) plus machine-independent totals.

use slfe_apps::pagerank::PageRankProgram;
use slfe_apps::sssp::SsspProgram;
use slfe_bench::json;
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, GraphProgram, RedundancyMode};
use slfe_delta::durability::SnapshotValue;
use slfe_delta::{ApplyError, DeltaServer, DurabilityConfig, ServerConfig, UpdateBatch};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{generators, FaultKind, FaultPlan, FaultSite, Graph};
use slfe_metrics::FaultCounters;
use std::fmt::Write as _;
use std::path::PathBuf;

struct Options {
    vertices: usize,
    batches: u64,
    out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            vertices: 400,
            batches: 3,
            out: PathBuf::from("BENCH_faults.json"),
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
            "--batches" => {
                options.batches = value("--batches")?
                    .parse()
                    .map_err(|e| format!("invalid --batches: {e}"))?
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err("usage: fault_bench [--vertices N] [--batches B] [--out FILE]".into())
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(options)
}

const APPLY_SITES: [FaultSite; 7] = [
    FaultSite::SegmentRead,
    FaultSite::SegmentWrite,
    FaultSite::WalAppend,
    FaultSite::WalFsync,
    FaultSite::WalTrim,
    FaultSite::SnapshotWrite,
    FaultSite::SnapshotRename,
];

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slfe-fault-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn value_bytes<V: SnapshotValue>(values: &[V]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        v.write(&mut bytes);
    }
    bytes
}

fn mixed_batch(graph: &Graph, seed: u64) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = graph.num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    for _ in 0..12 {
        let src = rng.range_u32(0, n);
        if rng.next_f64() < 0.6 {
            batch.insert(src, rng.range_u32(0, n + 6), rng.range_f32(1.0, 10.0));
        } else {
            let outs = graph.out_neighbors(src);
            if !outs.is_empty() {
                batch.delete(src, outs[rng.range_usize(0, outs.len())]);
            }
        }
    }
    batch
}

struct RunRecord {
    app: &'static str,
    workers: usize,
    site: FaultSite,
    kind: &'static str,
    outcome: &'static str,
    counters: FaultCounters,
}

/// Out-of-core serving config so the segment sites sit on the apply path.
fn server_config(workers: usize, engine: EngineConfig) -> ServerConfig {
    ServerConfig {
        cluster: ClusterConfig::new(2, workers),
        engine: engine
            .with_trace(false)
            .with_storage_budget(24 << 10)
            .with_storage_segment_bytes(2 << 10),
        ..ServerConfig::default()
    }
}

/// One app's sweep at one worker count: oracle, then one server lifetime per
/// (site, kind) with the fault scheduled at the site's next call after the
/// first clean batch.
#[allow(clippy::too_many_arguments)]
fn sweep<P, F>(
    app: &'static str,
    seed: u64,
    graph: &Graph,
    make_program: F,
    engine: EngineConfig,
    workers: usize,
    batches: u64,
    records: &mut Vec<RunRecord>,
) where
    P: GraphProgram,
    P::Value: SnapshotValue,
    F: Fn(&Graph) -> P + Clone,
{
    let config = server_config(workers, engine);

    // Fault-free oracle: values after every batch.
    let dir = bench_dir(&format!("{app}-oracle-{workers}"));
    let mut oracle = DeltaServer::create_durable(
        graph.clone(),
        make_program.clone(),
        config.clone(),
        DurabilityConfig::new(&dir).with_snapshot_every(2),
    )
    .expect("oracle server");
    let mut after: Vec<Vec<u8>> = Vec::new();
    for i in 0..batches {
        let batch = mixed_batch(oracle.graph(), seed + i);
        oracle.try_apply(&batch).expect("apply batch");
        after.push(value_bytes(oracle.values()));
    }
    assert_eq!(oracle.fault_counters().injected_total(), 0);
    drop(oracle);
    let _ = std::fs::remove_dir_all(&dir);

    for site in APPLY_SITES {
        for (kind_name, kind) in [
            ("transient", FaultKind::Transient { failures: 1 }),
            ("permanent", FaultKind::Permanent),
        ] {
            let dir = bench_dir(&format!("{app}-{}-{kind_name}-{workers}", site.name()));
            let mut server = DeltaServer::create_durable(
                graph.clone(),
                make_program.clone(),
                config.clone(),
                DurabilityConfig::new(&dir).with_snapshot_every(2),
            )
            .expect("faulted server");
            let batch = mixed_batch(server.graph(), seed);
            server.try_apply(&batch).expect("clean batch");
            server
                .fault_injector()
                .arm(FaultPlan::new().fail(site, 0, kind));

            let mut outcome = "identical";
            let mut applied = 1u64;
            for i in 1..batches {
                let batch = mixed_batch(server.graph(), seed + i);
                match server.try_apply(&batch) {
                    Ok(_) => applied += 1,
                    Err(ApplyError::ReadOnly { .. }) => {
                        panic!(
                            "{app}/{}/{kind_name}: read-only before a typed rejection",
                            site.name()
                        )
                    }
                    Err(e) => {
                        // A typed rejection: the server must be read-only,
                        // still serving the previous batch's exact bits.
                        assert!(
                            matches!(
                                e,
                                ApplyError::WalAppend(_)
                                    | ApplyError::StoragePatch(_)
                                    | ApplyError::ExecutionPoisoned { .. }
                            ),
                            "{app}/{}/{kind_name}: unexpected error {e}",
                            site.name()
                        );
                        assert!(server.health().is_read_only());
                        outcome = "rejected_read_only";
                        break;
                    }
                }
            }
            assert_eq!(
                value_bytes(server.values()),
                after[(applied - 1) as usize],
                "{app}/{}/{kind_name}/{workers}w: served values diverge from the oracle",
                site.name()
            );
            if outcome == "identical" && server.health().is_degraded() {
                outcome = "degraded";
            }
            if outcome == "identical" && server.health().wal_trim_failures() > 0 {
                outcome = "degraded";
            }
            let counters = server.fault_counters();
            assert!(
                counters.injected_total() >= 1,
                "{app}/{}/{kind_name}/{workers}w: the site never fired",
                site.name()
            );
            records.push(RunRecord {
                app,
                workers,
                site,
                kind: kind_name,
                outcome,
                counters,
            });
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Open-time sites (WAL scan, snapshot read) and the ENOSPC shot, recorded
/// on SSSP only — the path under test is app-independent.
fn open_and_enospc_runs(graph: &Graph, workers: usize, records: &mut Vec<RunRecord>) {
    let root = slfe_graph::stats::highest_out_degree_vertex(graph).unwrap_or(0);
    let make = move |_: &Graph| SsspProgram { root };
    let config = server_config(workers, EngineConfig::default());
    let dir = bench_dir(&format!("open-{workers}"));
    let durability = DurabilityConfig::new(&dir).with_snapshot_every(100);
    let mut server =
        DeltaServer::create_durable(graph.clone(), make, config.clone(), durability.clone())
            .expect("open-run server");
    for i in 0..2u64 {
        let batch = mixed_batch(server.graph(), 500 + i);
        server.try_apply(&batch).expect("apply batch");
    }
    let expected = value_bytes(server.values());
    drop(server);

    for site in [FaultSite::WalOpen, FaultSite::SnapshotRead] {
        for (kind_name, kind) in [
            ("transient", FaultKind::Transient { failures: 1 }),
            ("permanent", FaultKind::Permanent),
        ] {
            let faulted = ServerConfig {
                fault_plan: Some(FaultPlan::new().fail(site, 0, kind)),
                ..config.clone()
            };
            let (outcome, counters) = match DeltaServer::open(make, faulted, durability.clone()) {
                Ok(reopened) => {
                    assert_eq!(
                        value_bytes(reopened.values()),
                        expected,
                        "{}/{kind_name}: faulted open diverges",
                        site.name()
                    );
                    ("identical", reopened.fault_counters())
                }
                Err(e) => {
                    assert_eq!(
                        kind_name,
                        "permanent",
                        "{}: a transient open fault must be absorbed, got {e}",
                        site.name()
                    );
                    ("open_rejected", FaultCounters::zero())
                }
            };
            records.push(RunRecord {
                app: "sssp",
                workers,
                site,
                kind: kind_name,
                outcome,
                counters,
            });
        }
    }

    // ENOSPC on the WAL: typed read-only rejection, queries keep answering.
    let mut server =
        DeltaServer::open(make, config.clone(), durability.clone()).expect("reopen for ENOSPC");
    let served = value_bytes(server.values());
    server.fault_injector().arm(FaultPlan::new().fail(
        FaultSite::WalAppend,
        0,
        FaultKind::DiskFull,
    ));
    let batch = mixed_batch(server.graph(), 600);
    let err = server.try_apply(&batch).expect_err("ENOSPC must reject");
    assert!(matches!(err, ApplyError::WalAppend(_)));
    assert!(server.health().is_read_only());
    assert!(server
        .health()
        .read_only_reason()
        .unwrap_or("")
        .contains("ENOSPC"));
    assert_eq!(value_bytes(server.values()), served);
    assert!(server.value(root).is_some());
    let counters = server.fault_counters();
    assert_eq!(counters.io_retries, 0, "ENOSPC must not be retried");
    records.push(RunRecord {
        app: "sssp",
        workers,
        site: FaultSite::WalAppend,
        kind: "disk_full",
        outcome: "rejected_read_only",
        counters,
    });
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
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
    let graph = generators::rmat(
        options.vertices,
        options.vertices * 6,
        0.57,
        0.19,
        0.19,
        8_2026,
    );
    let root = slfe_graph::stats::highest_out_degree_vertex(&graph).unwrap_or(0);
    let exact = EngineConfig::default()
        .with_redundancy(RedundancyMode::Disabled)
        .with_max_iterations(400);

    let mut records: Vec<RunRecord> = Vec::new();
    for workers in [1usize, 4] {
        eprintln!("sweeping sssp at {workers} workers");
        sweep(
            "sssp",
            8100,
            &graph,
            move |_: &Graph| SsspProgram { root },
            EngineConfig::default(),
            workers,
            options.batches,
            &mut records,
        );
        eprintln!("sweeping pagerank at {workers} workers");
        sweep(
            "pr",
            8200,
            &graph,
            PageRankProgram::for_graph,
            exact.clone(),
            workers,
            options.batches,
            &mut records,
        );
        eprintln!("open-time + ENOSPC runs at {workers} workers");
        open_and_enospc_runs(&graph, workers, &mut records);
    }

    // ---- Aggregate -------------------------------------------------------
    let mut sites: Vec<&str> = records.iter().map(|r| r.site.name()).collect();
    sites.sort_unstable();
    sites.dedup();
    assert_eq!(
        sites.len(),
        slfe_graph::ALL_FAULT_SITES.len(),
        "the sweep must cover every injection site"
    );
    let mut totals = FaultCounters::zero();
    let mut by_outcome = [
        ("identical", 0u64),
        ("degraded", 0),
        ("rejected_read_only", 0),
        ("open_rejected", 0),
    ];
    for r in &records {
        totals += r.counters;
        if let Some(slot) = by_outcome.iter_mut().find(|(name, _)| *name == r.outcome) {
            slot.1 += 1;
        }
    }
    eprintln!(
        "{} runs over {} sites: {} identical, {} degraded, {} rejected read-only, {} open rejections ({} injections, {} retries, {} quarantines)",
        records.len(),
        sites.len(),
        by_outcome[0].1,
        by_outcome[1].1,
        by_outcome[2].1,
        by_outcome[3].1,
        totals.injected_total(),
        totals.io_retries,
        totals.segments_quarantined,
    );

    // ---- Emit ------------------------------------------------------------
    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"git_commit\": {},\n  \"hardware_threads\": {hardware_threads},\n  \"note\": {},\n",
        json::string(&slfe_bench::git_commit()),
        json::string("Deterministic crashpoint sweep on durable out-of-core serving (SSSP min/max + PageRank arithmetic at 1 and 4 workers). Each run schedules one fault at one injection site; outcome identical = completed bit-identical to the fault-free oracle (asserted), degraded = completed bit-identical with snapshot/trim failures absorbed into health, rejected_read_only = typed ApplyError with the previous version still served bit-exactly (asserted), open_rejected = typed DurabilityError on a permanently faulted open. Counters are machine-independent")
    );
    let _ = writeln!(
        out,
        "  \"graph\": {{\"vertices\": {}, \"edges\": {}}},\n  \"batches\": {},",
        graph.num_vertices(),
        graph.num_edges(),
        options.batches
    );
    out.push_str("  \"sites_covered\": [");
    for (i, s) in sites.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}", json::string(s));
    }
    out.push_str("],\n  \"runs\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"app\": {}, \"workers\": {}, \"site\": {}, \"kind\": {}, \"outcome\": {}, \"injected\": {}, \"io_retries\": {}, \"io_retry_successes\": {}, \"segments_quarantined\": {}, \"poisoned_runs\": {}}}",
            json::string(r.app),
            r.workers,
            json::string(r.site.name()),
            json::string(r.kind),
            json::string(r.outcome),
            r.counters.injected_total(),
            r.counters.io_retries,
            r.counters.io_retry_successes,
            r.counters.segments_quarantined,
            r.counters.poisoned_runs
        );
    }
    out.push_str("\n  ],\n");
    let _ = writeln!(
        out,
        "  \"totals\": {{\"runs\": {}, \"identical\": {}, \"degraded\": {}, \"rejected_read_only\": {}, \"open_rejected\": {}, \"injected_transient\": {}, \"injected_permanent\": {}, \"injected_disk_full\": {}, \"io_retries\": {}, \"io_retry_successes\": {}, \"segments_quarantined\": {}, \"poisoned_runs\": {}}}",
        records.len(),
        by_outcome[0].1,
        by_outcome[1].1,
        by_outcome[2].1,
        by_outcome[3].1,
        totals.injected_transient,
        totals.injected_permanent,
        totals.injected_disk_full,
        totals.io_retries,
        totals.io_retry_successes,
        totals.segments_quarantined,
        totals.poisoned_runs
    );
    out.push_str("}\n");

    // The emitted document must survive the workspace's own JSON parser.
    json::parse(&out).expect("fault_bench emitted invalid JSON");
    if let Err(e) = std::fs::write(&options.out, &out) {
        eprintln!("cannot write {}: {e}", options.out.display());
        std::process::exit(1);
    }
    println!("{out}");
    eprintln!("wrote {}", options.out.display());
}
