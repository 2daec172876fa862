//! Durability benchmark: what the write-ahead log costs per batch, how fast
//! recovery is as a function of snapshot interval, and how much disk the
//! snapshot-path compaction reclaims.
//!
//! ```text
//! durability_bench [--vertices N] [--degree D] [--batches B] [--ops OPS] [--out FILE]
//! ```
//!
//! Emits `BENCH_durability.json` (with `git_commit` and `hardware_threads`
//! recorded). Three sections, each probe-asserted before the file is written:
//!
//! * **wal** — the same SSSP batch sequence applied by a plain and a durable
//!   server; values must stay bit-identical, so the wall-clock delta is the
//!   pure WAL + fsync + snapshot overhead per batch.
//! * **recovery** — for each snapshot interval, a durable server is built,
//!   fed, dropped, and re-opened; the recovered values must be bit-identical
//!   to the pre-drop ones. Records recovery wall clock and replayed entries.
//! * **compaction** — an out-of-core durable server whose snapshots compact
//!   past a dead-byte bound; values must stay bit-identical to an in-memory
//!   witness while compaction reclaims bytes.

use slfe_apps::sssp::SsspProgram;
use slfe_bench::json;
use slfe_core::EngineConfig;
use slfe_delta::{DeltaServer, DurabilityConfig, ServerConfig, UpdateBatch};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{generators, Graph};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Options {
    vertices: usize,
    degree: usize,
    batches: u64,
    ops: usize,
    out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            vertices: 2_000,
            degree: 8,
            batches: 24,
            ops: 25,
            out: PathBuf::from("BENCH_durability.json"),
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
            "--ops" => {
                options.ops = value("--ops")?
                    .parse()
                    .map_err(|e| format!("invalid --ops: {e}"))?
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err(
                    "usage: durability_bench [--vertices N] [--degree D] [--batches B] [--ops OPS] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(options)
}

fn mixed_batch(graph: &Graph, seed: u64, ops: usize) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = graph.num_vertices() as u32;
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let src = rng.range_u32(0, n);
        if rng.next_f64() < 0.7 {
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

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slfe-durability-bench-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
        options.vertices * options.degree,
        0.57,
        0.19,
        0.19,
        6_2026,
    );
    let root = slfe_graph::stats::highest_out_degree_vertex(&graph).unwrap_or(0);
    let make = move |_: &Graph| SsspProgram { root };
    let config = ServerConfig {
        engine: EngineConfig::default().with_trace(false),
        ..ServerConfig::default()
    };

    // ---- Section 1: WAL overhead per batch -------------------------------
    eprintln!(
        "wal overhead: {} batches x {} ops on {} vertices",
        options.batches,
        options.ops,
        graph.num_vertices()
    );
    let mut plain = DeltaServer::try_new(graph.clone(), make, config.clone()).unwrap();
    let plain_start = Instant::now();
    let mut current = graph.clone();
    for i in 0..options.batches {
        let batch = mixed_batch(&current, 300 + i, options.ops);
        plain.try_apply(&batch).unwrap();
        current = current.apply_batch(&batch).0;
    }
    let plain_seconds = plain_start.elapsed().as_secs_f64();

    let wal_dir = bench_dir("wal");
    let durable_config = DurabilityConfig::new(&wal_dir).with_snapshot_every(8);
    let mut durable =
        DeltaServer::create_durable(graph.clone(), make, config.clone(), durable_config).unwrap();
    let durable_start = Instant::now();
    let mut current = graph.clone();
    for i in 0..options.batches {
        let batch = mixed_batch(&current, 300 + i, options.ops);
        durable.try_apply(&batch).unwrap();
        current = current.apply_batch(&batch).0;
    }
    let durable_seconds = durable_start.elapsed().as_secs_f64();
    let wal_counters = *durable.durability_counters().unwrap();
    assert_eq!(
        bits(plain.values()),
        bits(durable.values()),
        "durable serving diverged from plain serving"
    );
    let overhead_per_batch = (durable_seconds - plain_seconds).max(0.0) / options.batches as f64;
    eprintln!(
        "  plain {plain_seconds:.4}s vs durable {durable_seconds:.4}s -> {:.6}s/batch overhead ({} fsyncs, {} WAL KiB, {} snapshots)",
        overhead_per_batch,
        wal_counters.wal_fsyncs,
        wal_counters.wal_bytes_appended >> 10,
        wal_counters.snapshots_written
    );
    drop(durable);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // ---- Section 2: recovery time vs snapshot interval -------------------
    struct RecoveryPoint {
        interval: u64,
        recovery_seconds: f64,
        entries_replayed: u64,
        snapshot_bytes: u64,
    }
    let mut recovery = Vec::new();
    for interval in [1u64, 4, 16] {
        let dir = bench_dir(&format!("recover-{interval}"));
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(interval);
        let mut server =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability.clone())
                .unwrap();
        let mut current = graph.clone();
        for i in 0..options.batches {
            let batch = mixed_batch(&current, 900 + i, options.ops);
            server.try_apply(&batch).unwrap();
            current = current.apply_batch(&batch).0;
        }
        let expected = bits(server.values());
        let snapshot_bytes = std::fs::metadata(durability.snapshot_path()).unwrap().len();
        drop(server);
        let start = Instant::now();
        let reopened = DeltaServer::open(make, config.clone(), durability).unwrap();
        let recovery_seconds = start.elapsed().as_secs_f64();
        assert_eq!(
            bits(reopened.values()),
            expected,
            "interval {interval}: recovered values diverge"
        );
        let entries_replayed = reopened.durability_counters().unwrap().wal_entries_replayed;
        eprintln!(
            "  snapshot every {interval}: reopen {recovery_seconds:.4}s, {entries_replayed} entries replayed, snapshot {} KiB",
            snapshot_bytes >> 10
        );
        recovery.push(RecoveryPoint {
            interval,
            recovery_seconds,
            entries_replayed,
            snapshot_bytes,
        });
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- Section 3: compaction on the snapshot path ----------------------
    let dir = bench_dir("compact");
    let oocore = ServerConfig {
        engine: EngineConfig::default()
            .with_trace(false)
            .with_storage_budget(48 << 10)
            .with_storage_segment_bytes(4 << 10),
        ..ServerConfig::default()
    };
    let durability = DurabilityConfig::new(&dir)
        .with_snapshot_every(4)
        .with_max_dead_fraction(0.2);
    let mut server = DeltaServer::create_durable(graph.clone(), make, oocore, durability).unwrap();
    let mut witness = DeltaServer::try_new(graph.clone(), make, config.clone()).unwrap();
    let mut current = graph.clone();
    let mut peak_dead_fraction: f64 = 0.0;
    for i in 0..options.batches {
        let batch = mixed_batch(&current, 1500 + i, options.ops);
        let outcome = server.try_apply(&batch).unwrap();
        witness.try_apply(&batch).unwrap();
        current = current.apply_batch(&batch).0;
        let total = outcome.storage_live_bytes + outcome.storage_dead_bytes;
        if total > 0 {
            peak_dead_fraction =
                peak_dead_fraction.max(outcome.storage_dead_bytes as f64 / total as f64);
        }
    }
    assert_eq!(
        bits(server.values()),
        bits(witness.values()),
        "compacting out-of-core serving diverged from in-memory"
    );
    let compaction = *server.durability_counters().unwrap();
    assert!(
        compaction.compactions >= 1,
        "no snapshot compacted despite a {} dead-fraction peak",
        peak_dead_fraction
    );
    assert!(compaction.compaction_bytes_reclaimed > 0);
    let final_dead_fraction = server.storage().unwrap().dead_fraction();
    eprintln!(
        "  compaction: {} runs reclaimed {} KiB (peak dead fraction {:.3}, final {:.3})",
        compaction.compactions,
        compaction.compaction_bytes_reclaimed >> 10,
        peak_dead_fraction,
        final_dead_fraction
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Emit ------------------------------------------------------------
    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"git_commit\": {},\n  \"hardware_threads\": {hardware_threads},\n  \"note\": {},\n",
        json::string(&slfe_bench::git_commit()),
        json::string("SSSP serving on an rmat graph. wal: identical batch sequences on a plain vs durable server (values asserted bit-identical), the delta is WAL fsync + snapshot overhead. recovery: reopen wall clock and WAL entries replayed per snapshot interval (recovered values asserted bit-identical). compaction: out-of-core durable serving with snapshot-path compaction (values asserted bit-identical to in-memory). Wall clock depends on hardware_threads and disk; counters are machine-independent")
    );
    let _ = writeln!(
        out,
        "  \"graph\": {{\"vertices\": {}, \"edges\": {}}},\n  \"batches\": {},\n  \"ops_per_batch\": {},",
        graph.num_vertices(),
        graph.num_edges(),
        options.batches,
        options.ops
    );
    let _ = writeln!(
        out,
        "  \"wal\": {{\"plain_wall_seconds\": {}, \"durable_wall_seconds\": {}, \"overhead_seconds_per_batch\": {}, \"wal_fsyncs\": {}, \"wal_bytes_appended\": {}, \"snapshots_written\": {}, \"snapshot_bytes_written\": {}}},",
        json::float_fixed(plain_seconds, 6),
        json::float_fixed(durable_seconds, 6),
        json::float_fixed(overhead_per_batch, 6),
        wal_counters.wal_fsyncs,
        wal_counters.wal_bytes_appended,
        wal_counters.snapshots_written,
        wal_counters.snapshot_bytes_written
    );
    out.push_str("  \"recovery\": [");
    for (i, p) in recovery.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"snapshot_interval\": {}, \"recovery_seconds\": {}, \"wal_entries_replayed\": {}, \"snapshot_bytes\": {}}}",
            p.interval,
            json::float_fixed(p.recovery_seconds, 6),
            p.entries_replayed,
            p.snapshot_bytes
        );
    }
    out.push_str("\n  ],\n");
    let _ = writeln!(
        out,
        "  \"compaction\": {{\"compactions\": {}, \"bytes_reclaimed\": {}, \"peak_dead_fraction\": {}, \"final_dead_fraction\": {}, \"max_dead_fraction\": 0.2}}",
        compaction.compactions,
        compaction.compaction_bytes_reclaimed,
        json::float_fixed(peak_dead_fraction, 4),
        json::float_fixed(final_dead_fraction, 4)
    );
    out.push_str("}\n");

    if let Err(e) = std::fs::write(&options.out, &out) {
        eprintln!("cannot write {}: {e}", options.out.display());
        std::process::exit(1);
    }
    println!("{out}");
    eprintln!("wrote {}", options.out.display());
}
