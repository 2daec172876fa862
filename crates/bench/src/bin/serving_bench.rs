//! Serving-under-load benchmark: concurrent readers vs a group-committing
//! writer, with fault injection armed, as a recorded artifact.
//!
//! ```text
//! serving_bench [--vertices N] [--updates U] [--readers R] [--out FILE]
//! ```
//!
//! For SSSP at 1 and 4 workers, a durable [`DeltaServer`] wrapped in the
//! [`ServingFrontend`] serves `R` hammering reader threads (point,
//! multi-point, top-k, plus deliberately expired deadlines) while a producer
//! pushes `U` seeded edge updates through the bounded admission queue, the
//! whole time under the seeded whole-schedule [`FaultPlan`]. Before the JSON
//! is written, every run is probe-asserted:
//!
//! * every reader sample must be **bit-identical** to the published version
//!   it was stamped with, and every published version bit-identical to a
//!   single-threaded fault-free oracle replaying the recorded batches;
//! * every refusal must be **typed** (`Overloaded` / `ReadOnly` /
//!   `DeadlineExceeded`) — an untyped failure panics the run;
//! * zero quarantines and zero thread panics.
//!
//! Emits `BENCH_serving.json`: queries/sec, shed rate, update (apply)
//! latency, and p50/p99 read latency measured while batches apply.

use slfe_apps::sssp::SsspProgram;
use slfe_bench::json;
use slfe_cluster::ClusterConfig;
use slfe_core::EngineConfig;
use slfe_delta::{
    AdmitError, DeltaServer, DurabilityConfig, EdgeUpdate, FrontendConfig, QueryError,
    ServerConfig, ServingFrontend,
};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{generators, stats, FaultPlan, Graph, RetryPolicy};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Options {
    vertices: usize,
    updates: u64,
    readers: usize,
    out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            vertices: 400,
            updates: 240,
            readers: 2,
            out: PathBuf::from("BENCH_serving.json"),
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
            "--updates" => {
                options.updates = value("--updates")?
                    .parse()
                    .map_err(|e| format!("invalid --updates: {e}"))?
            }
            "--readers" => {
                options.readers = value("--readers")?
                    .parse()
                    .map_err(|e| format!("invalid --readers: {e}"))?
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err(
                    "usage: serving_bench [--vertices N] [--updates U] [--readers R] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if options.readers == 0 {
        return Err("--readers must be at least 1".into());
    }
    Ok(options)
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slfe-serving-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic update stream, a pure function of the step index.
fn update_for(i: u64, n: u32) -> EdgeUpdate {
    let mut rng = SplitMix64::seed_from_u64(0x5EED ^ i);
    let src = rng.range_u32(0, n);
    if rng.next_f64() < 0.7 {
        EdgeUpdate::Insert {
            src,
            dst: rng.range_u32(0, n + 8),
            weight: rng.range_f32(1.0, 10.0),
        }
    } else {
        EdgeUpdate::Delete {
            src,
            dst: rng.range_u32(0, n),
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Out-of-core engine so segment faults sit on the apply path.
fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_trace(false)
        .with_storage_budget(24 << 10)
        .with_storage_segment_bytes(2 << 10)
}

struct RunRecord {
    workers: usize,
    wall_seconds: f64,
    versions: u64,
    updates_submitted: u64,
    sheds: u64,
    shed_rate: f64,
    queries: u64,
    queries_per_sec: f64,
    deadline_refusals: u64,
    read_p50_ns: u64,
    read_p99_ns: u64,
    read_samples: u64,
    apply_p50_ns: u64,
    apply_p99_ns: u64,
    injections: u64,
    io_retries: u64,
    point_samples_verified: u64,
}

fn run_one(graph: &Graph, nodes: usize, workers: usize, options: &Options) -> RunRecord {
    let total_workers = nodes * workers;
    let tag = format!("{total_workers}w");
    let root = stats::highest_out_degree_vertex(graph).unwrap_or(0);
    let make = move |_: &Graph| SsspProgram { root };
    let seed = 7u64;
    let config = ServerConfig {
        cluster: ClusterConfig::new(nodes, workers),
        engine: engine_config(),
        fault_plan: Some(FaultPlan::seeded_transient(seed)),
        ..ServerConfig::default()
    };
    let dir = bench_dir(&tag);
    let retry = RetryPolicy {
        max_retries: 8,
        ..Default::default()
    }
    .with_jitter_seed(seed);
    let durability = DurabilityConfig::new(&dir)
        .with_snapshot_every(4)
        .with_retry(retry);
    let server = DeltaServer::create_durable(graph.clone(), make, config, durability)
        .expect("create durable serving server");

    let frontend = ServingFrontend::spawn(
        server,
        FrontendConfig {
            queue_capacity: 32,
            record_history: true,
        },
    );
    let initial = frontend.handle().published();
    let started = Instant::now();

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for reader_id in 0..options.readers as u64 {
        let handle = frontend.handle();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::seed_from_u64(0xBEE5 ^ reader_id);
            let mut samples: Vec<(u64, u32, Option<u32>)> = Vec::new();
            let mut deadline_refusals = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let v = rng.range_u32(0, 1024);
                let answer = handle.point(v, None).expect("point query");
                samples.push((answer.seq, v, answer.value.map(|x| x.to_bits())));
                let multi = handle
                    .multi_point(&[0, v, 11], None)
                    .expect("multi-point query");
                for (idx, &q) in [0u32, v, 11].iter().enumerate() {
                    samples.push((multi.seq, q, multi.value[idx].map(|x| x.to_bits())));
                }
                if samples.len().is_multiple_of(64) {
                    let _ = handle
                        .top_k_by(
                            8,
                            |a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal),
                            None,
                        )
                        .expect("top-k query");
                    match handle.point(0, Some(Duration::ZERO)) {
                        Err(QueryError::DeadlineExceeded { .. }) => deadline_refusals += 1,
                        other => panic!("expected a typed deadline refusal, got {other:?}"),
                    }
                }
            }
            (samples, deadline_refusals)
        }));
    }

    // Producer: every shed must be typed; back off and retry until admitted.
    let producer = frontend.handle();
    let n = graph.num_vertices() as u32;
    let mut sheds = 0u64;
    for i in 0..options.updates {
        loop {
            match producer.submit(update_for(i, n)) {
                Ok(()) => break,
                Err(AdmitError::Overloaded { retry_after, .. }) => {
                    sheds += 1;
                    std::thread::sleep(retry_after.min(Duration::from_millis(5)));
                }
                Err(AdmitError::ReadOnly { .. }) => {
                    sheds += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e @ AdmitError::InvalidUpdate { .. }) => {
                    panic!("producer stages only valid endpoints: {e}")
                }
            }
        }
    }

    let handle = frontend.handle();
    let server = frontend.shutdown();
    let wall_seconds = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let mut reader_outputs = Vec::new();
    for r in readers {
        reader_outputs.push(r.join().expect("reader thread panicked"));
    }

    // ---- Probe assertions ------------------------------------------------
    let history = handle.commit_history();
    let counters = handle.counters();
    assert_eq!(counters.updates_submitted, options.updates);
    assert_eq!(counters.updates_coalesced, options.updates);
    assert_eq!(counters.batches_quarantined, 0, "transient faults absorb");
    assert!(
        server.fault_counters().injected_total() > 0,
        "the seeded fault schedule never fired"
    );

    let oracle_config = ServerConfig {
        cluster: ClusterConfig::new(1, 1),
        engine: engine_config(),
        ..ServerConfig::default()
    };
    let mut oracle =
        DeltaServer::try_new(graph.clone(), make, oracle_config).expect("build server");
    assert_eq!(bits(initial.values()), bits(oracle.values()), "version 0");
    for (i, (batch, version)) in history.iter().enumerate() {
        oracle.try_apply(batch).expect("apply batch");
        assert_eq!(version.seq(), i as u64 + 1);
        assert_eq!(
            bits(version.values()),
            bits(oracle.values()),
            "{tag}: published version {} diverges from the oracle",
            version.seq()
        );
    }
    let mut point_samples_verified = 0u64;
    let mut deadline_refusals = 0u64;
    for (samples, refusals) in &reader_outputs {
        deadline_refusals += refusals;
        for &(seq, v, sample_bits) in samples {
            let values = if seq == 0 {
                initial.values()
            } else {
                history[seq as usize - 1].1.values()
            };
            assert_eq!(
                sample_bits,
                values.get(v as usize).map(|x| x.to_bits()),
                "{tag}: torn read at seq {seq} vertex {v}"
            );
            point_samples_verified += 1;
        }
    }

    // ---- Measurements ----------------------------------------------------
    let read = handle.read_latency();
    let apply = handle.apply_latency();
    let queries = counters.queries;
    let record = RunRecord {
        workers: total_workers,
        wall_seconds,
        versions: history.len() as u64,
        updates_submitted: counters.updates_submitted,
        sheds,
        shed_rate: sheds as f64 / (sheds + counters.updates_submitted).max(1) as f64,
        queries,
        queries_per_sec: queries as f64 / wall_seconds.max(1e-9),
        deadline_refusals,
        read_p50_ns: read.percentile(0.50).unwrap_or(0),
        read_p99_ns: read.percentile(0.99).unwrap_or(0),
        read_samples: read.count(),
        apply_p50_ns: apply.percentile(0.50).unwrap_or(0),
        apply_p99_ns: apply.percentile(0.99).unwrap_or(0),
        injections: server.fault_counters().injected_total(),
        io_retries: server.fault_counters().io_retries,
        point_samples_verified,
    };
    eprintln!(
        "{tag}: {} versions, {:.0} queries/s, shed rate {:.3}, read p50 {}ns p99 {}ns, {} injections",
        record.versions,
        record.queries_per_sec,
        record.shed_rate,
        record.read_p50_ns,
        record.read_p99_ns,
        record.injections
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    record
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
        9_2026,
    );

    let mut records = Vec::new();
    for (nodes, workers) in [(1usize, 1usize), (2, 2)] {
        eprintln!("serving under load at {} workers", nodes * workers);
        records.push(run_one(&graph, nodes, workers, &options));
    }

    // ---- Emit ------------------------------------------------------------
    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"git_commit\": {},\n  \"hardware_threads\": {hardware_threads},\n  \"note\": {},\n",
        json::string(&slfe_bench::git_commit()),
        json::string("Concurrent serving under update traffic with the seeded fault schedule armed: reader threads hammer point/multi-point/top-k queries against published versions while the writer group-commits seeded edge updates on a durable out-of-core SSSP server. Probe-asserted before emission: every reader sample bit-identical to its stamped published version, every published version bit-identical to a single-threaded fault-free oracle replay, every refusal typed, zero quarantines, zero panics. Latencies are wall-clock and machine-dependent; counts are deterministic up to scheduling")
    );
    let _ = writeln!(
        out,
        "  \"graph\": {{\"vertices\": {}, \"edges\": {}}},\n  \"updates\": {},\n  \"readers\": {},",
        graph.num_vertices(),
        graph.num_edges(),
        options.updates,
        options.readers
    );
    out.push_str("  \"runs\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"workers\": {}, \"wall_seconds\": {:.6}, \"versions\": {}, \"updates_submitted\": {}, \"sheds\": {}, \"shed_rate\": {:.6}, \"queries\": {}, \"queries_per_sec\": {:.1}, \"deadline_refusals\": {}, \"read_p50_ns\": {}, \"read_p99_ns\": {}, \"read_samples\": {}, \"apply_p50_ns\": {}, \"apply_p99_ns\": {}, \"injections\": {}, \"io_retries\": {}, \"point_samples_verified\": {}}}",
            r.workers,
            r.wall_seconds,
            r.versions,
            r.updates_submitted,
            r.sheds,
            r.shed_rate,
            r.queries,
            r.queries_per_sec,
            r.deadline_refusals,
            r.read_p50_ns,
            r.read_p99_ns,
            r.read_samples,
            r.apply_p50_ns,
            r.apply_p99_ns,
            r.injections,
            r.io_retries,
            r.point_samples_verified
        );
    }
    out.push_str("\n  ]\n}\n");

    // The emitted document must survive the workspace's own JSON parser.
    json::parse(&out).expect("serving_bench emitted invalid JSON");
    if let Err(e) = std::fs::write(&options.out, &out) {
        eprintln!("cannot write {}: {e}", options.out.display());
        std::process::exit(1);
    }
    println!("{out}");
    eprintln!("wrote {}", options.out.display());
}
