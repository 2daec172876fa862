//! Fault-injection acceptance tests (PR 8): the crashpoint sweep.
//!
//! PR 6 proved the server survives `kill -9`; this sweep proves it survives
//! everything *short* of death. For **every registered application** at 1 and
//! 4 workers, a deterministic [`FaultPlan`] injects a fault at each disk
//! injection site in turn — segment reads and writes, WAL append/fsync/trim,
//! snapshot write and rename, plus the open-time sites (WAL scan, snapshot
//! read) — and the server must either
//!
//! * complete with values **bit-identical to the fault-free oracle**
//!   (transient faults absorbed by retries, permanent segment-read faults
//!   absorbed by quarantine + rebuild), or
//! * return a **structured error** ([`ApplyError`] / `DurabilityError`) and
//!   keep answering point and top-k queries from the last published version.
//!
//! Zero panics, zero value divergence. The same file pins the guard the
//! telemetry PR established for its switch: fault injection compiled in but
//! disabled (no plan, or an armed plan that never fires) leaves every app
//! bit-identical with zero injections.

use slfe::apps::{bfs, cc, heat, numpaths, pagerank, spmv, sssp, tunkrank, widestpath};
use slfe::cluster::ClusterConfig;
use slfe::core::{EngineConfig, GraphProgram, RedundancyMode};
use slfe::delta::durability::SnapshotValue;
use slfe::delta::{DeltaServer, DurabilityConfig, DurabilityError, ServerConfig};
use slfe::graph::generators::{random_batch, BatchShape};
use slfe::graph::{generators, stats, Graph};
use slfe::prelude::{ApplyError, FaultKind, FaultPlan, FaultSite};
use std::collections::HashSet;
use std::path::PathBuf;

/// The sites a live server's apply/snapshot path touches. `WalOpen` and
/// `SnapshotRead` only fire while opening — they get their own sweep below.
const APPLY_SITES: [FaultSite; 7] = [
    FaultSite::SegmentRead,
    FaultSite::SegmentWrite,
    FaultSite::WalAppend,
    FaultSite::WalFsync,
    FaultSite::WalTrim,
    FaultSite::SnapshotWrite,
    FaultSite::SnapshotRename,
];

/// The sites only `DeltaServer::open` touches, swept by
/// `open_time_faults_recover_or_fail_typed`.
const OPEN_SITES: [FaultSite; 2] = [FaultSite::WalOpen, FaultSite::SnapshotRead];

/// The two sweeps together reach every injection site, so a new site cannot
/// escape them.
#[test]
fn the_sweeps_cover_every_injection_site() {
    let swept: HashSet<FaultSite> = APPLY_SITES.into_iter().chain(OPEN_SITES).collect();
    let all: HashSet<FaultSite> = slfe::graph::ALL_FAULT_SITES.into_iter().collect();
    assert_eq!(swept, all);
}

fn fault_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slfe-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Exact bit patterns of the served values, for any snapshotable value type.
fn value_bytes<V: SnapshotValue>(values: &[V]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        v.write(&mut bytes);
    }
    bytes
}

/// Draws per batch. Every batch is a pure function of the current graph and
/// the seed, so the oracle run and every faulted run (whose absorbed faults
/// leave the graph bit-identical) draw identical sequences.
const BATCH_OPS: usize = 12;

/// Out-of-core serving config: the tight budget forces segment evictions so
/// the `SegmentRead`/`SegmentWrite` sites are genuinely on the apply path.
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

/// The arithmetic apps need the ruler-free exact-fixpoint configuration
/// (mirroring the crash matrix).
fn exact_config() -> EngineConfig {
    EngineConfig::default()
        .with_redundancy(RedundancyMode::Disabled)
        .with_max_iterations(400)
}

/// A plan that is armed (every site scheduled) but never fires: every rule
/// waits for a call number no test run ever reaches.
fn never_firing_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    for site in slfe::graph::ALL_FAULT_SITES {
        plan = plan.fail(site, 1 << 40, FaultKind::Transient { failures: 1 });
    }
    plan
}

/// The headline sweep for one app: at 1 and 4 workers, run a fault-free
/// oracle, then re-run the identical batch sequence once per apply-path
/// injection site with a transient fault scheduled at that site's next call.
/// Every faulted run must complete — retried, counted — and finish
/// bit-identical to the oracle.
fn crashpoint_sweep<P, F>(
    tag: &str,
    seed: u64,
    make_graph: impl Fn() -> Graph,
    make_program: F,
    engine: EngineConfig,
    kind: BatchShape,
) where
    P: GraphProgram,
    P::Value: SnapshotValue,
    F: Fn(&Graph) -> P + Clone,
{
    const BATCHES: u64 = 3;
    for workers in [1usize, 4] {
        let config = server_config(workers, engine.clone());

        let dir = fault_dir(&format!("{tag}-oracle-{workers}"));
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(2);
        let mut oracle = DeltaServer::create_durable(
            make_graph(),
            make_program.clone(),
            config.clone(),
            durability,
        )
        .expect("oracle server");
        for i in 0..BATCHES {
            let batch = random_batch(oracle.graph(), seed + i, BATCH_OPS, kind);
            oracle.try_apply(&batch).unwrap();
        }
        let oracle_final = value_bytes(oracle.values());
        assert_eq!(
            oracle.fault_counters().injected_total(),
            0,
            "{tag}: the oracle must run fault-free"
        );
        drop(oracle);
        let _ = std::fs::remove_dir_all(&dir);

        for site in APPLY_SITES {
            let dir = fault_dir(&format!("{tag}-{}-{workers}", site.name()));
            let durability = DurabilityConfig::new(&dir).with_snapshot_every(2);
            let mut server = DeltaServer::create_durable(
                make_graph(),
                make_program.clone(),
                config.clone(),
                durability,
            )
            .expect("faulted server");
            // One clean batch, then schedule the fault at the site's next call.
            let batch = random_batch(server.graph(), seed, BATCH_OPS, kind);
            server
                .try_apply(&batch)
                .unwrap_or_else(|e| panic!("{tag}/{workers}w: clean batch failed: {e}"));
            server.fault_injector().arm(FaultPlan::new().fail(
                site,
                0,
                FaultKind::Transient { failures: 1 },
            ));
            for i in 1..BATCHES {
                let batch = random_batch(server.graph(), seed + i, BATCH_OPS, kind);
                let outcome = server.try_apply(&batch).unwrap_or_else(|e| {
                    panic!(
                        "{tag}/{}/{workers}w: transient fault was not absorbed: {e}",
                        site.name()
                    )
                });
                assert!(outcome.converged);
            }
            let counters = server.fault_counters();
            assert!(
                counters.injected_total() >= 1,
                "{tag}/{}/{workers}w: the scheduled site never fired",
                site.name()
            );
            assert!(
                counters.io_retries >= 1 && counters.io_retry_successes >= 1,
                "{tag}/{}/{workers}w: the transient fault was not absorbed by a retry \
                 (counters: {counters:?})",
                site.name()
            );
            assert!(
                !server.health().is_read_only(),
                "{tag}/{}/{workers}w: a transient fault must not disable the server",
                site.name()
            );
            assert_eq!(
                value_bytes(server.values()),
                oracle_final,
                "{tag}/{}/{workers}w: faulted run diverges from the fault-free oracle",
                site.name()
            );
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn crashpoint_sweep_sssp() {
    let root = stats::highest_out_degree_vertex(&sweep_rmat(900)).unwrap();
    crashpoint_sweep(
        "sssp",
        8100,
        || sweep_rmat(900),
        move |_: &Graph| sssp::SsspProgram { root },
        EngineConfig::default(),
        GROW,
    );
}

#[test]
fn crashpoint_sweep_bfs() {
    let root = stats::highest_out_degree_vertex(&sweep_rmat(910)).unwrap();
    crashpoint_sweep(
        "bfs",
        8200,
        || sweep_rmat(910),
        move |_: &Graph| bfs::BfsProgram { root },
        EngineConfig::default(),
        GROW,
    );
}

#[test]
fn crashpoint_sweep_widestpath() {
    let root = stats::highest_out_degree_vertex(&sweep_rmat(920)).unwrap();
    crashpoint_sweep(
        "wp",
        8300,
        || sweep_rmat(920),
        move |_: &Graph| widestpath::WidestPathProgram { root },
        EngineConfig::default(),
        GROW,
    );
}

#[test]
fn crashpoint_sweep_cc() {
    crashpoint_sweep(
        "cc",
        8400,
        || cc::symmetrize(&generators::rmat(180, 800, 0.57, 0.19, 0.19, 930)),
        cc::CcProgram::for_graph,
        EngineConfig::default(),
        BatchShape::Symmetric,
    );
}

#[test]
fn crashpoint_sweep_pagerank() {
    crashpoint_sweep(
        "pr",
        8500,
        || sweep_rmat(940),
        pagerank::PageRankProgram::for_graph,
        exact_config(),
        GROW,
    );
}

#[test]
fn crashpoint_sweep_tunkrank() {
    crashpoint_sweep(
        "tr",
        8600,
        || sweep_rmat(950),
        |_: &Graph| tunkrank::TunkRankProgram::default(),
        exact_config(),
        FIXED,
    );
}

#[test]
fn crashpoint_sweep_spmv() {
    crashpoint_sweep(
        "spmv",
        8700,
        || sweep_rmat(960),
        |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
        exact_config(),
        GROW,
    );
}

#[test]
fn crashpoint_sweep_heat() {
    let root = stats::highest_out_degree_vertex(&sweep_rmat(970)).unwrap();
    crashpoint_sweep(
        "heat",
        8800,
        || sweep_rmat(970),
        move |g: &Graph| heat::HeatProgram::point_source(g, root),
        // Lighter than the crash matrix's 1e-6/3000: the sweep runs 16
        // server lifetimes per worker count and only needs determinism,
        // which holds at any tolerance.
        exact_config().with_tolerance(1e-4).with_max_iterations(800),
        FIXED,
    );
}

#[test]
fn crashpoint_sweep_numpaths() {
    crashpoint_sweep(
        "numpaths",
        8900,
        || generators::layered(8, 30, 4, 980),
        |_: &Graph| numpaths::NumPathsProgram { root: 0 },
        exact_config(),
        BatchShape::Dag,
    );
}

fn sweep_rmat(seed: u64) -> Graph {
    generators::rmat(220, 1400, 0.57, 0.19, 0.19, seed)
}

const GROW: BatchShape = BatchShape::Mixed { allow_growth: true };
const FIXED: BatchShape = BatchShape::Mixed {
    allow_growth: false,
};

/// Permanent (retry-exhausting) faults, one site at a time: each site's
/// contract is either *recover bit-identically* (segment reads quarantine and
/// rebuild; snapshot/trim failures are absorbed with health degraded) or
/// *fail typed and keep serving the previous version* (WAL appends and
/// un-patchable segment stores flip the server read-only).
#[test]
fn permanent_faults_recover_or_fail_typed_per_site() {
    let graph = sweep_rmat(990);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };
    let seed = 9100u64;
    for workers in [1usize, 4] {
        let config = server_config(workers, EngineConfig::default());

        // Fault-free witness: values after each of the three batches.
        let dir = fault_dir(&format!("perm-witness-{workers}"));
        let mut witness = DeltaServer::create_durable(
            graph.clone(),
            make,
            config.clone(),
            DurabilityConfig::new(&dir).with_snapshot_every(2),
        )
        .unwrap();
        let mut after: Vec<Vec<u8>> = Vec::new();
        for i in 0..3u64 {
            let batch = random_batch(witness.graph(), seed + i, BATCH_OPS, GROW);
            witness.try_apply(&batch).unwrap();
            after.push(value_bytes(witness.values()));
        }
        drop(witness);
        let _ = std::fs::remove_dir_all(&dir);

        for site in APPLY_SITES {
            let dir = fault_dir(&format!("perm-{}-{workers}", site.name()));
            let mut server = DeltaServer::create_durable(
                graph.clone(),
                make,
                config.clone(),
                DurabilityConfig::new(&dir).with_snapshot_every(2),
            )
            .unwrap();
            let batch = random_batch(server.graph(), seed, BATCH_OPS, GROW);
            server.try_apply(&batch).unwrap();
            server
                .fault_injector()
                .arm(FaultPlan::new().fail(site, 0, FaultKind::Permanent));

            let batch = random_batch(server.graph(), seed + 1, BATCH_OPS, GROW);
            let second = server.try_apply(&batch);
            match site {
                // Unreadable segments are quarantined and rebuilt from the
                // in-memory recovery source: the apply completes exactly.
                FaultSite::SegmentRead => {
                    second.unwrap_or_else(|e| {
                        panic!("{workers}w: permanent segment read should recover: {e}")
                    });
                    assert!(server.fault_counters().segments_quarantined >= 1);
                    assert!(!server.health().is_read_only());
                    assert_eq!(value_bytes(server.values()), after[1]);
                }
                // Failed snapshots and WAL trims are absorbed: the batch
                // lands, health records the degradation, serving continues.
                FaultSite::SnapshotWrite | FaultSite::SnapshotRename | FaultSite::WalTrim => {
                    let outcome = second.unwrap_or_else(|e| {
                        panic!("{workers}w/{}: must be absorbed: {e}", site.name())
                    });
                    assert_eq!(value_bytes(server.values()), after[1]);
                    assert!(!server.health().is_read_only());
                    if site == FaultSite::WalTrim {
                        assert!(server.health().wal_trim_failures() >= 1);
                    } else {
                        assert!(outcome.degraded, "snapshot failure must mark the outcome");
                        assert!(server.health().is_degraded());
                        assert!(server.health().snapshot_failures() >= 1);
                        assert!(server.health().last_snapshot_error().is_some());
                    }
                    // The next batch still applies read-write.
                    let batch = random_batch(server.graph(), seed + 2, BATCH_OPS, GROW);
                    server.try_apply(&batch).unwrap();
                    assert_eq!(value_bytes(server.values()), after[2]);
                }
                // Breaking the durability contract itself rejects the batch
                // and flips read-only — still serving the previous version.
                FaultSite::WalAppend | FaultSite::WalFsync | FaultSite::SegmentWrite => {
                    let err = second.expect_err("the durability contract was broken");
                    match site {
                        FaultSite::SegmentWrite => assert!(
                            matches!(err, ApplyError::StoragePatch(_)),
                            "{workers}w: got {err}"
                        ),
                        _ => assert!(
                            matches!(err, ApplyError::WalAppend(_)),
                            "{workers}w: got {err}"
                        ),
                    }
                    assert!(server.health().is_read_only());
                    assert!(server.health().read_only_reason().is_some());
                    // The last published version keeps answering queries.
                    assert_eq!(value_bytes(server.values()), after[0]);
                    assert_eq!(server.value(root), Some(0.0));
                    assert_eq!(server.top_k(3).len(), 3);
                    // Subsequent applies are rejected without touching disk.
                    let batch = random_batch(server.graph(), seed + 2, BATCH_OPS, GROW);
                    assert!(matches!(
                        server.try_apply(&batch),
                        Err(ApplyError::ReadOnly { .. })
                    ));
                }
                FaultSite::WalOpen | FaultSite::SnapshotRead => unreachable!(),
            }
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The arithmetic sibling of `permanent_faults_recover_or_fail_typed_per_site`:
/// PageRank's warm restarts read the segment store as well, and under a
/// permanent fault at each apply-path site the server must either finish
/// bit-identical to the fault-free witness or reject a batch typed, flip
/// read-only and keep serving the last applied batch's exact bits.
#[test]
fn permanent_faults_on_pagerank_recover_or_fail_typed_per_site() {
    let graph = generators::rmat(300, 1800, 0.57, 0.19, 0.19, 8_2026);
    let make = pagerank::PageRankProgram::for_graph;
    let seed = 8200u64;
    let durability = |dir: &PathBuf| DurabilityConfig::new(dir).with_snapshot_every(2);
    for workers in [1usize, 4] {
        let config = server_config(workers, exact_config());

        let dir = fault_dir(&format!("perm-pr-witness-{workers}"));
        let mut witness =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability(&dir))
                .unwrap();
        let mut after: Vec<Vec<u8>> = Vec::new();
        for i in 0..3u64 {
            let batch = random_batch(witness.graph(), seed + i, BATCH_OPS, GROW);
            witness.try_apply(&batch).unwrap();
            after.push(value_bytes(witness.values()));
        }
        drop(witness);
        let _ = std::fs::remove_dir_all(&dir);

        for site in APPLY_SITES {
            let tag = format!("{workers}w/{}", site.name());
            let dir = fault_dir(&format!("perm-pr-{}-{workers}", site.name()));
            let mut server =
                DeltaServer::create_durable(graph.clone(), make, config.clone(), durability(&dir))
                    .unwrap();
            let batch = random_batch(server.graph(), seed, BATCH_OPS, GROW);
            server.try_apply(&batch).unwrap();
            server
                .fault_injector()
                .arm(FaultPlan::new().fail(site, 0, FaultKind::Permanent));
            let mut applied = 1;
            for i in 1..3u64 {
                let batch = random_batch(server.graph(), seed + i, BATCH_OPS, GROW);
                match server.try_apply(&batch) {
                    Ok(_) => applied += 1,
                    Err(e) => {
                        assert!(
                            matches!(
                                e,
                                ApplyError::WalAppend(_)
                                    | ApplyError::StoragePatch(_)
                                    | ApplyError::ExecutionPoisoned { .. }
                            ),
                            "{tag}: got {e}"
                        );
                        assert!(server.health().is_read_only(), "{tag}");
                        break;
                    }
                }
            }
            assert_eq!(
                value_bytes(server.values()),
                after[applied - 1],
                "{tag}: served values diverge from the witness"
            );
            assert!(
                server.fault_counters().injected_total() >= 1,
                "{tag}: the site never fired"
            );
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Open-time sites: a transient fault while reading the snapshot or scanning
/// the WAL is retried and recovery completes bit-identically; a permanent one
/// is a structured [`DurabilityError`] — and a later fault-free open of the
/// same directory still recovers everything.
#[test]
fn open_time_faults_recover_or_fail_typed() {
    let graph = sweep_rmat(1000);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };
    for workers in [1usize, 4] {
        let config = server_config(workers, EngineConfig::default());
        let dir = fault_dir(&format!("open-{workers}"));
        // High cadence: both batches stay in the WAL for replay at open.
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(100);
        let mut server =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability.clone())
                .unwrap();
        for i in 0..2u64 {
            let batch = random_batch(server.graph(), 9300 + i, BATCH_OPS, GROW);
            server.try_apply(&batch).unwrap();
        }
        let expected = value_bytes(server.values());
        drop(server);

        for site in OPEN_SITES {
            // Transient: absorbed by the open-path retries.
            let faulted = ServerConfig {
                fault_plan: Some(FaultPlan::new().fail(
                    site,
                    0,
                    FaultKind::Transient { failures: 1 },
                )),
                ..config.clone()
            };
            let reopened =
                DeltaServer::open(make, faulted, durability.clone()).unwrap_or_else(|e| {
                    panic!(
                        "{workers}w/{}: transient open fault not absorbed: {e}",
                        site.name()
                    )
                });
            assert_eq!(value_bytes(reopened.values()), expected);
            assert_eq!(
                reopened.durability_counters().unwrap().wal_entries_replayed,
                2
            );
            let counters = reopened.fault_counters();
            assert!(counters.injected_total() >= 1 && counters.io_retries >= 1);
            drop(reopened);

            // Permanent: a typed error, no panic, directory left intact.
            let faulted = ServerConfig {
                fault_plan: Some(FaultPlan::new().fail(site, 0, FaultKind::Permanent)),
                ..config.clone()
            };
            let err = DeltaServer::open(make, faulted, durability.clone())
                .err()
                .unwrap_or_else(|| {
                    panic!("{workers}w/{}: permanent open fault must fail", site.name())
                });
            assert!(matches!(err, DurabilityError::Io(_)), "got {err}");
        }

        // A short snapshot read truncates the buffer: the CRC rejects it as
        // a corrupt snapshot rather than silently serving half the values.
        let faulted = ServerConfig {
            fault_plan: Some(FaultPlan::new().fail(FaultSite::SnapshotRead, 0, FaultKind::ShortIo)),
            ..config.clone()
        };
        let err = DeltaServer::open(make, faulted, durability.clone())
            .err()
            .expect("a short snapshot read must be rejected");
        assert!(
            matches!(err, DurabilityError::CorruptSnapshot { .. }),
            "got {err}"
        );

        // A short WAL read at open must NOT truncate durable frames that are
        // intact on disk — the scan fails and the retry re-reads them.
        let faulted = ServerConfig {
            fault_plan: Some(FaultPlan::new().fail(FaultSite::WalOpen, 0, FaultKind::ShortIo)),
            ..config.clone()
        };
        let reopened = DeltaServer::open(make, faulted, durability.clone()).unwrap();
        assert_eq!(value_bytes(reopened.values()), expected);
        drop(reopened);

        // After every faulted open above, a fault-free open still recovers.
        let reopened = DeltaServer::open(make, config.clone(), durability.clone()).unwrap();
        assert_eq!(value_bytes(reopened.values()), expected);
        assert_eq!(reopened.fault_counters().injected_total(), 0);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// ENOSPC on the WAL path: never retried (retrying a full disk is pointless),
/// flips the server into typed read-only mode, and the last published version
/// keeps answering point and top-k queries.
#[test]
fn disk_full_flips_read_only_and_queries_still_answer() {
    let graph = sweep_rmat(1010);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };
    let config = server_config(2, EngineConfig::default());
    let dir = fault_dir("enospc");
    let mut server = DeltaServer::create_durable(
        graph,
        make,
        config,
        DurabilityConfig::new(&dir).with_snapshot_every(100),
    )
    .unwrap();
    let batch = random_batch(server.graph(), 9400, BATCH_OPS, GROW);
    server.try_apply(&batch).unwrap();
    let served = value_bytes(server.values());
    let retries_before = server.fault_counters().io_retries;

    server.fault_injector().arm(FaultPlan::new().fail(
        FaultSite::WalAppend,
        0,
        FaultKind::DiskFull,
    ));
    let batch = random_batch(server.graph(), 9401, BATCH_OPS, GROW);
    let err = server
        .try_apply(&batch)
        .expect_err("ENOSPC must reject the batch");
    assert!(matches!(err, ApplyError::WalAppend(_)), "got {err}");

    assert!(server.health().is_read_only());
    let reason = server.health().read_only_reason().unwrap();
    assert!(reason.contains("ENOSPC"), "reason: {reason}");
    let counters = server.fault_counters();
    assert!(counters.injected_disk_full >= 1);
    assert_eq!(
        counters.io_retries, retries_before,
        "a full disk must not be retried"
    );

    // The previous version still serves point and top-k queries.
    assert_eq!(value_bytes(server.values()), served);
    assert_eq!(server.value(root), Some(0.0));
    let nearest = server.top_k_by(5, |a, b| {
        b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
    });
    assert_eq!(nearest.len(), 5);
    assert_eq!(nearest[0], (root, 0.0));

    // Applies keep failing typed; health is exported through the registry.
    let batch = random_batch(server.graph(), 9402, BATCH_OPS, GROW);
    assert!(matches!(
        server.try_apply(&batch),
        Err(ApplyError::ReadOnly { .. })
    ));
    let reg = server.metrics_registry();
    assert_eq!(reg.get("slfe_health_read_only").unwrap().value, 1.0);
    assert!(
        reg.get_with("slfe_faults_injected_total", &[("kind", "disk_full")])
            .unwrap()
            .value
            >= 1.0
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3: WAL replay idempotence across the snapshot/trim window. A
/// trim (the `set_len` + fsync after a successful snapshot rename) failing at
/// *every* call offset in the schedule — both retry-exhausting and
/// retry-absorbed — leaves stale covered entries in the WAL; reopening must
/// skip exactly those and replay only the uncovered suffix, recovering values
/// bit-identical to the fault-free witness every time.
#[test]
fn wal_replay_is_idempotent_under_trim_failures_at_every_offset() {
    let graph = sweep_rmat(1020);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };
    let seed = 9500u64;
    let config = server_config(1, EngineConfig::default());

    // Witness: 5 batches, snapshots (and trims) at sequences 2 and 4.
    let dir = fault_dir("trim-witness");
    let mut witness = DeltaServer::create_durable(
        graph.clone(),
        make,
        config.clone(),
        DurabilityConfig::new(&dir).with_snapshot_every(2),
    )
    .unwrap();
    for i in 0..5u64 {
        let batch = random_batch(witness.graph(), seed + i, BATCH_OPS, GROW);
        witness.try_apply(&batch).unwrap();
    }
    let expected = value_bytes(witness.values());
    drop(witness);
    let _ = std::fs::remove_dir_all(&dir);

    let mut trim_failures_seen = 0u64;
    for kind in [FaultKind::Permanent, FaultKind::Transient { failures: 4 }] {
        for offset in 0..6u64 {
            let dir = fault_dir(&format!(
                "trim-{offset}-{}",
                matches!(kind, FaultKind::Permanent)
            ));
            let durability = DurabilityConfig::new(&dir).with_snapshot_every(2);
            let mut server = DeltaServer::create_durable(
                graph.clone(),
                make,
                config.clone(),
                durability.clone(),
            )
            .unwrap();
            // Arm after creation (whose own trim must stay clean), before any
            // snapshot-path trim runs. Each retry attempt is its own call, so
            // the offsets cover first-attempt, mid-retry and second-trim hits.
            server
                .fault_injector()
                .arm(FaultPlan::new().fail(FaultSite::WalTrim, offset, kind));
            for i in 0..5u64 {
                let batch = random_batch(server.graph(), seed + i, BATCH_OPS, GROW);
                server.try_apply(&batch).unwrap_or_else(|e| {
                    panic!("offset {offset}: a trim failure must never fail an apply: {e}")
                });
            }
            trim_failures_seen += server.health().wal_trim_failures();
            assert!(!server.health().is_read_only());
            assert_eq!(value_bytes(server.values()), expected);
            drop(server);

            // Reopen fault-free: entries the snapshots already cover must be
            // skipped, the uncovered suffix (sequence 5 alone) replayed.
            let reopened = DeltaServer::open(make, config.clone(), durability).unwrap();
            assert_eq!(
                value_bytes(reopened.values()),
                expected,
                "offset {offset}: replay after a trim failure diverges"
            );
            assert_eq!(reopened.stats().batches_applied, 5);
            assert_eq!(
                reopened.durability_counters().unwrap().wal_entries_replayed,
                1,
                "offset {offset}: covered entries must be skipped, the suffix replayed"
            );
            drop(reopened);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(
        trim_failures_seen > 0,
        "the offset schedule never actually failed a trim"
    );
}

/// Chaos: the seeded whole-schedule plan (one transient fault at every site,
/// offsets drawn from the seed) across create → serve → reopen → serve must
/// stay bit-identical to a fault-free witness of the same lifecycle.
#[test]
fn seeded_transient_chaos_stays_bit_identical() {
    let graph = sweep_rmat(1030);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };

    let lifecycle = |plan: Option<FaultPlan>, seed: u64, tag: &str| -> (Vec<u8>, u64) {
        let config = ServerConfig {
            fault_plan: plan.clone(),
            ..server_config(2, EngineConfig::default())
        };
        let dir = fault_dir(tag);
        // The seeded schedule faults every site, and one WAL append drives
        // *two* of them (append + fsync): their transient windows can stack
        // up to four failures inside a single operation, so give the WAL a
        // retry budget that covers the worst-case stack. Jitter rides the
        // same seed as the fault plan — de-synchronized sleeps must not
        // move a single bit of the result.
        let retry = slfe::prelude::RetryPolicy {
            max_retries: 8,
            ..Default::default()
        }
        .with_jitter_seed(seed);
        let durability = DurabilityConfig::new(&dir)
            .with_snapshot_every(2)
            .with_retry(retry);
        let mut server =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability.clone())
                .unwrap();
        for i in 0..3u64 {
            let batch = random_batch(server.graph(), 9600 + i, BATCH_OPS, GROW);
            server.try_apply(&batch).unwrap();
        }
        let mut injected = server.fault_counters().injected_total();
        drop(server);
        let mut server = DeltaServer::open(make, config, durability).unwrap();
        let batch = random_batch(server.graph(), 9603, BATCH_OPS, GROW);
        server.try_apply(&batch).unwrap();
        injected += server.fault_counters().injected_total();
        let bytes = value_bytes(server.values());
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, injected)
    };

    let (expected, zero) = lifecycle(None, 0, "chaos-witness");
    assert_eq!(zero, 0);
    for seed in [1u64, 7, 23] {
        let (bytes, injected) = lifecycle(
            Some(FaultPlan::seeded_transient(seed)),
            seed,
            &format!("chaos-{seed}"),
        );
        assert!(
            injected > 0,
            "seed {seed}: the seeded schedule never fired a fault"
        );
        assert_eq!(
            bytes, expected,
            "seed {seed}: seeded transient chaos diverged from the witness"
        );
    }
}

/// The guard the telemetry PR established for its switch, applied to fault
/// injection: compiled in but disabled — no plan, or an armed plan that never
/// fires — every registered app serves values bit-identical at 1 and 4
/// workers, with zero injections recorded.
fn check_disabled_faults_are_invisible<P, F>(
    tag: &str,
    seed: u64,
    make_graph: impl Fn() -> Graph,
    make_program: F,
    engine: EngineConfig,
    kind: BatchShape,
) where
    P: GraphProgram,
    P::Value: SnapshotValue,
    F: Fn(&Graph) -> P + Clone,
{
    for workers in [1usize, 4] {
        let mut finals: Vec<Vec<u8>> = Vec::new();
        for (which, plan) in [(0, None), (1, Some(never_firing_plan()))] {
            let config = ServerConfig {
                fault_plan: plan,
                ..server_config(workers, engine.clone())
            };
            let dir = fault_dir(&format!("guard-{tag}-{workers}-{which}"));
            let mut server = DeltaServer::create_durable(
                make_graph(),
                make_program.clone(),
                config,
                DurabilityConfig::new(&dir).with_snapshot_every(2),
            )
            .expect("guard server");
            for i in 0..2u64 {
                let batch = random_batch(server.graph(), seed + i, BATCH_OPS, kind);
                server.try_apply(&batch).unwrap();
            }
            assert_eq!(
                server.fault_counters().injected_total(),
                0,
                "{tag}/{workers}w: a disabled or never-firing plan injected a fault"
            );
            finals.push(value_bytes(server.values()));
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(
            finals[0], finals[1],
            "{tag}/{workers}w: the armed-but-silent injector perturbed the values"
        );
    }
}

#[test]
fn disabled_fault_injection_is_bit_identical_for_every_app() {
    let root = stats::highest_out_degree_vertex(&sweep_rmat(1100)).unwrap();
    check_disabled_faults_are_invisible(
        "sssp",
        9700,
        || sweep_rmat(1100),
        move |_: &Graph| sssp::SsspProgram { root },
        EngineConfig::default(),
        GROW,
    );
    check_disabled_faults_are_invisible(
        "bfs",
        9710,
        || sweep_rmat(1100),
        move |_: &Graph| bfs::BfsProgram { root },
        EngineConfig::default(),
        GROW,
    );
    check_disabled_faults_are_invisible(
        "wp",
        9720,
        || sweep_rmat(1100),
        move |_: &Graph| widestpath::WidestPathProgram { root },
        EngineConfig::default(),
        GROW,
    );
    check_disabled_faults_are_invisible(
        "cc",
        9730,
        || cc::symmetrize(&generators::rmat(180, 800, 0.57, 0.19, 0.19, 1110)),
        cc::CcProgram::for_graph,
        EngineConfig::default(),
        BatchShape::Symmetric,
    );
    check_disabled_faults_are_invisible(
        "pr",
        9740,
        || sweep_rmat(1100),
        pagerank::PageRankProgram::for_graph,
        exact_config(),
        GROW,
    );
    check_disabled_faults_are_invisible(
        "tr",
        9750,
        || sweep_rmat(1100),
        |_: &Graph| tunkrank::TunkRankProgram::default(),
        exact_config(),
        FIXED,
    );
    check_disabled_faults_are_invisible(
        "spmv",
        9760,
        || sweep_rmat(1100),
        |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
        exact_config(),
        GROW,
    );
    check_disabled_faults_are_invisible(
        "heat",
        9770,
        || sweep_rmat(1100),
        move |g: &Graph| heat::HeatProgram::point_source(g, root),
        exact_config().with_tolerance(1e-4).with_max_iterations(800),
        FIXED,
    );
    check_disabled_faults_are_invisible(
        "numpaths",
        9780,
        || generators::layered(8, 30, 4, 1120),
        |_: &Graph| numpaths::NumPathsProgram { root: 0 },
        exact_config(),
        BatchShape::Dag,
    );
}
