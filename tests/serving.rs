//! Serving-under-load acceptance tests (PR 9): the chaos-under-load proof.
//!
//! Reader threads hammer point / multi-point / top-k queries through the
//! [`ServingFrontend`] while the writer thread group-commits seeded update
//! batches **with fault injection armed**. The contract proved here:
//!
//! * **Snapshot consistency** — every answered query is bit-identical to
//!   some fully-published version, which in turn is bit-identical to a
//!   single-threaded fault-free oracle replaying the same batch sequence.
//!   No torn reads, at 1 and at 4 workers.
//! * **Typed refusals** — overload sheds [`AdmitError::Overloaded`] with a
//!   depth and retry hint, a read-only server sheds
//!   [`AdmitError::ReadOnly`], and an expired time budget returns
//!   [`QueryError::DeadlineExceeded`]. Nothing blocks forever, nothing
//!   panics.
//! * **Quarantine** — a poison batch (same apply-error kind twice) is moved
//!   to the dead-letter list and later batches keep committing.
//! * **Resumption** — a read-only server whose obstacle clears re-enters
//!   read-write via the resume probe, counted in `Health` and the registry.
//!
//! Run with `--test-threads=1`: every case spawns its own worker pool and
//! the CI container has a single hardware thread.

use slfe::apps::sssp;
use slfe::cluster::ClusterConfig;
use slfe::core::EngineConfig;
use slfe::delta::{DeltaServer, DurabilityConfig, ServerConfig};
use slfe::graph::rng::SplitMix64;
use slfe::graph::{generators, stats, Graph};
use slfe::prelude::{
    AdmitError, EdgeUpdate, FaultKind, FaultPlan, FaultSite, FrontendConfig, QueryError,
    RetryPolicy, ServingFrontend, ServingMode,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serving_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slfe-serving-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_graph(seed: u64) -> Graph {
    generators::rmat(220, 1400, 0.57, 0.19, 0.19, seed)
}

fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_trace(false)
        .with_storage_budget(24 << 10)
        .with_storage_segment_bytes(2 << 10)
}

/// Deterministic update stream: step `i` of the producer, independent of
/// timing, so the proof can replay exactly what was admitted.
fn update_for(i: u64, n: u32) -> EdgeUpdate {
    let mut rng = SplitMix64::seed_from_u64(0x5EED ^ i);
    let src = rng.range_u32(0, n);
    if rng.next_f64() < 0.7 {
        EdgeUpdate::Insert {
            src,
            dst: rng.range_u32(0, n + 4),
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

/// The headline proof. For each worker count: a durable server with the
/// seeded whole-schedule fault plan armed serves two hammering readers and
/// one producer; afterwards every published version must be bit-identical
/// to a single-threaded fault-free oracle replaying the recorded batches,
/// and every reader sample must match the version it was stamped with.
#[test]
fn chaos_under_load_reads_are_snapshot_consistent_at_1_and_4_workers() {
    for (nodes, workers) in [(1usize, 1usize), (2, 2)] {
        let tag = format!("chaos-{nodes}x{workers}");
        let graph = chaos_graph(1030);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| sssp::SsspProgram { root };
        let seed = 7u64;
        let config = ServerConfig {
            cluster: ClusterConfig::new(nodes, workers),
            engine: engine_config(),
            fault_plan: Some(FaultPlan::seeded_transient(seed)),
            ..ServerConfig::default()
        };
        let dir = serving_dir(&tag);
        // Same worst-case stacking budget as the fault sweep, plus jitter
        // from the same seed so concurrent retriers de-synchronize.
        let retry = RetryPolicy {
            max_retries: 8,
            ..Default::default()
        }
        .with_jitter_seed(seed);
        let durability = DurabilityConfig::new(&dir)
            .with_snapshot_every(2)
            .with_retry(retry);
        let server =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability).unwrap();

        let frontend = ServingFrontend::spawn(
            server,
            FrontendConfig {
                queue_capacity: 16,
                record_history: true,
            },
        );
        let initial = frontend.handle().published();
        assert_eq!(initial.seq(), 0);

        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for reader_id in 0..2u64 {
            let handle = frontend.handle();
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(0xBEE5 ^ reader_id);
                // (seq, vertex, value bits) samples to verify post hoc.
                let mut samples: Vec<(u64, u32, Option<u32>)> = Vec::new();
                let mut top_samples: Vec<(u64, Vec<(u32, u32)>)> = Vec::new();
                let mut deadline_refusals = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = rng.range_u32(0, 240);
                    let answer = handle.point(v, None).unwrap();
                    samples.push((answer.seq, v, answer.value.map(|x| x.to_bits())));
                    let multi = handle.multi_point(&[0, v, 7], None).unwrap();
                    for (idx, &q) in [0u32, v, 7].iter().enumerate() {
                        samples.push((multi.seq, q, multi.value[idx].map(|x| x.to_bits())));
                    }
                    if samples.len().is_multiple_of(16) {
                        let top = handle
                            .top_k_by(
                                4,
                                |a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal),
                                None,
                            )
                            .unwrap();
                        top_samples.push((
                            top.seq,
                            top.value.iter().map(|&(v, d)| (v, d.to_bits())).collect(),
                        ));
                        // An already-expired budget must refuse typed, never
                        // panic or half-answer.
                        match handle.point(0, Some(Duration::ZERO)) {
                            Err(QueryError::DeadlineExceeded { .. }) => deadline_refusals += 1,
                            other => panic!("expected DeadlineExceeded, got {other:?}"),
                        }
                    }
                }
                (samples, top_samples, deadline_refusals)
            }));
        }

        // Producer: 120 deterministic updates, backing off on typed sheds.
        let producer = frontend.handle();
        let n = graph.num_vertices() as u32;
        let mut sheds = 0u64;
        for i in 0..120u64 {
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
                        panic!("producer only stages valid endpoints: {e}")
                    }
                }
            }
        }

        let handle = frontend.handle();
        let server = frontend.shutdown();
        stop.store(true, Ordering::Relaxed);
        let mut reader_outputs = Vec::new();
        for r in readers {
            reader_outputs.push(r.join().expect("reader thread panicked"));
        }
        let history = handle.commit_history();
        let counters = handle.counters();
        assert_eq!(counters.updates_submitted, 120);
        assert_eq!(
            counters.updates_coalesced, 120,
            "a clean shutdown flushes the queue"
        );
        assert_eq!(counters.batches_quarantined, 0, "transient faults absorb");
        assert_eq!(server.stats().batches_applied, history.len() as u64);
        assert!(
            server.fault_counters().injected_total() > 0,
            "the seeded schedule never fired"
        );

        // Single-threaded fault-free oracle replaying the recorded batches:
        // every published version must match it bit for bit.
        let oracle_config = ServerConfig {
            cluster: ClusterConfig::new(1, 1),
            engine: engine_config(),
            ..ServerConfig::default()
        };
        let mut oracle = DeltaServer::try_new(graph.clone(), make, oracle_config).unwrap();
        assert_eq!(bits(initial.values()), bits(oracle.values()), "version 0");
        for (i, (batch, version)) in history.iter().enumerate() {
            let outcome = oracle.try_apply(batch).unwrap();
            assert!(outcome.converged);
            assert_eq!(version.seq(), i as u64 + 1);
            assert_eq!(
                bits(version.values()),
                bits(oracle.values()),
                "{tag}: published version {} diverges from the oracle",
                version.seq()
            );
        }

        // Every reader sample matches the version it was stamped with.
        let version_values = |seq: u64| -> &[f32] {
            if seq == 0 {
                initial.values()
            } else {
                history[seq as usize - 1].1.values()
            }
        };
        let mut point_samples = 0u64;
        for (samples, top_samples, deadline_refusals) in &reader_outputs {
            for &(seq, v, sample_bits) in samples {
                let values = version_values(seq);
                assert_eq!(
                    sample_bits,
                    values.get(v as usize).map(|x| x.to_bits()),
                    "{tag}: torn read at seq {seq} vertex {v}"
                );
                point_samples += 1;
            }
            for (seq, top) in top_samples {
                let expect: Vec<(u32, u32)> = if *seq == 0 {
                    &initial
                } else {
                    &history[*seq as usize - 1].1
                }
                .top_k_by(4, |a: &f32, b: &f32| {
                    b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
                })
                .iter()
                .map(|&(v, d)| (v, d.to_bits()))
                .collect();
                assert_eq!(top, &expect, "{tag}: torn top-k at seq {seq}");
            }
            assert!(*deadline_refusals > 0, "{tag}: deadline path never hit");
        }
        assert!(point_samples > 0);
        let read_latency = handle.read_latency();
        assert!(read_latency.count() >= point_samples / 4);
        assert!(read_latency.percentile(0.99).is_some());
        eprintln!(
            "{tag}: {} versions, {} point samples, {} producer sheds, {} injections",
            history.len(),
            point_samples,
            sheds,
            server.fault_counters().injected_total()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A read-only server sheds `ReadOnly` at admission — then heals itself
/// through the idle-tick resume probe once the obstacle clears. (The
/// `Overloaded` shed with depth + retry hint is pinned by the frontend's
/// unit tests.)
#[test]
fn read_only_sheds_typed_then_self_heals() {
    let graph = chaos_graph(41);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };
    let dir = serving_dir("shed");
    let config = ServerConfig {
        cluster: ClusterConfig::new(1, 1),
        engine: EngineConfig::default().with_trace(false),
        ..ServerConfig::default()
    };
    let durability = DurabilityConfig::new(&dir).with_retry(RetryPolicy::none());
    let server = DeltaServer::create_durable(graph, make, config, durability).unwrap();
    let injector = Arc::clone(server.fault_injector());
    let frontend = ServingFrontend::spawn(server, FrontendConfig::default());
    let handle = frontend.handle();

    // Fill the WAL path with a standing disk-full fault: the next group
    // commit fails, quarantines, and flips the published health read-only.
    injector.arm(FaultPlan::new().fail(FaultSite::WalAppend, 0, FaultKind::DiskFull));
    handle
        .submit(EdgeUpdate::Insert {
            src: 0,
            dst: 1,
            weight: 2.0,
        })
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.published().mode() != ServingMode::ReadOnly {
        assert!(
            Instant::now() < deadline,
            "server never published read-only"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    match handle.submit(EdgeUpdate::Insert {
        src: 0,
        dst: 2,
        weight: 1.0,
    }) {
        Err(AdmitError::ReadOnly { reason }) => {
            assert!(reason.contains("disk full"), "reason: {reason}")
        }
        other => panic!("expected ReadOnly shed, got {other:?}"),
    }
    assert_eq!(handle.dead_letters().len(), 1);
    assert_eq!(handle.dead_letters()[0].batch.len(), 1);

    // Clear the obstacle: the writer's idle tick probes the resume path and
    // re-publishes writable health without any new submission.
    injector.disarm();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.published().mode() != ServingMode::ReadWrite {
        assert!(Instant::now() < deadline, "server never resumed writes");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle
        .submit(EdgeUpdate::Insert {
            src: 0,
            dst: 3,
            weight: 1.0,
        })
        .unwrap();
    let server = frontend.shutdown();
    assert_eq!(server.stats().batches_applied, 1);
    assert_eq!(server.health().writes_resumed(), 1);
    assert_eq!(handle.counters().shed_read_only, 1);
    assert_eq!(handle.published().seq(), 1);
    let reg = handle.metrics_registry();
    assert_eq!(
        reg.get("slfe_frontend_batches_quarantined_total")
            .unwrap()
            .value,
        1.0
    );
    assert_eq!(
        reg.get_with("slfe_frontend_sheds_total", &[("reason", "read_only")])
            .unwrap()
            .value,
        1.0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A poison batch — failing with the same error kind twice — is quarantined
/// to the dead-letter list and the batch behind it commits normally.
#[test]
fn poison_batch_is_quarantined_without_stalling_the_pipeline() {
    let graph = chaos_graph(43);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };
    let dir = serving_dir("poison");
    let config = ServerConfig {
        cluster: ClusterConfig::new(1, 1),
        engine: EngineConfig::default().with_trace(false),
        ..ServerConfig::default()
    };
    let durability = DurabilityConfig::new(&dir).with_retry(RetryPolicy::none());
    let server = DeltaServer::create_durable(graph, make, config, durability).unwrap();
    let injector = Arc::clone(server.fault_injector());
    let frontend = ServingFrontend::spawn(server, FrontendConfig::default());
    let handle = frontend.handle();

    // A long transient window: apply attempt, the resume probes between
    // attempts, and the post-quarantine probes all fail — the batch is
    // certainly dead-lettered.
    injector.arm(FaultPlan::new().fail(
        FaultSite::WalAppend,
        0,
        FaultKind::Transient { failures: 64 },
    ));
    handle
        .submit(EdgeUpdate::Insert {
            src: 1,
            dst: 2,
            weight: 3.0,
        })
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.dead_letters().is_empty() {
        assert!(Instant::now() < deadline, "poison batch never quarantined");
        std::thread::sleep(Duration::from_millis(5));
    }
    let dead = handle.dead_letters();
    assert_eq!(dead.len(), 1);
    assert!(dead[0].attempts >= 2, "quarantine needs a repeated kind");

    // The pipeline behind the poison batch: disarm, wait for the self-heal,
    // submit a clean batch — it must commit and publish.
    injector.disarm();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.published().mode() != ServingMode::ReadWrite {
        assert!(Instant::now() < deadline, "server never resumed writes");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle
        .submit(EdgeUpdate::Insert {
            src: 2,
            dst: 3,
            weight: 1.0,
        })
        .unwrap();
    let server = frontend.shutdown();
    assert_eq!(server.stats().batches_applied, 1);
    assert_eq!(handle.counters().batches_quarantined, 1);
    assert_eq!(handle.published().seq(), 1, "the clean batch published");
    assert!(server.health().writes_resumed() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transiently failing batch whose obstacle clears *between attempts* is
/// retried to success by the writer — recovered, not quarantined.
#[test]
fn transiently_failing_batch_recovers_without_quarantine() {
    let graph = chaos_graph(47);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };
    let dir = serving_dir("recover");
    let config = ServerConfig {
        cluster: ClusterConfig::new(1, 1),
        engine: EngineConfig::default().with_trace(false),
        ..ServerConfig::default()
    };
    let durability = DurabilityConfig::new(&dir).with_retry(RetryPolicy::none());
    let server = DeltaServer::create_durable(graph, make, config, durability).unwrap();
    let injector = Arc::clone(server.fault_injector());
    let frontend = ServingFrontend::spawn(server, FrontendConfig::default());
    let handle = frontend.handle();

    // Exactly two failures with no-retry durability: attempt 1's append
    // fails (read-only), attempt 2's resume probe fails (ReadOnly — a new
    // kind, so no quarantine), attempt 3's probe succeeds and the batch
    // applies.
    injector.arm(FaultPlan::new().fail(
        FaultSite::WalAppend,
        0,
        FaultKind::Transient { failures: 2 },
    ));
    handle
        .submit(EdgeUpdate::Insert {
            src: 3,
            dst: 4,
            weight: 2.5,
        })
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.published().seq() == 0 {
        assert!(Instant::now() < deadline, "batch never committed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let server = frontend.shutdown();
    assert_eq!(server.stats().batches_applied, 1);
    assert!(
        handle.dead_letters().is_empty(),
        "recovered, not quarantined"
    );
    assert_eq!(handle.counters().batches_quarantined, 0);
    assert!(handle.counters().apply_retries >= 1);
    assert_eq!(server.health().writes_resumed(), 1);
    assert_eq!(
        server
            .metrics_registry()
            .get("slfe_health_writes_resumed_total")
            .unwrap()
            .value,
        1.0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the Health/ServingMode state machine, table-driven, with every
/// transition's registry gauges asserted — Writable → Degraded (failed
/// snapshot) → cleared (successful snapshot) → ReadOnly (ENOSPC) → probe
/// refused while the obstacle stands → resumed once it clears.
#[test]
fn health_state_machine_transitions_with_registry_gauges() {
    let graph = chaos_graph(53);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };
    let dir = serving_dir("health");
    let config = ServerConfig {
        cluster: ClusterConfig::new(1, 1),
        engine: EngineConfig::default().with_trace(false),
        ..ServerConfig::default()
    };
    let durability = DurabilityConfig::new(&dir)
        .with_snapshot_every(1)
        .with_retry(RetryPolicy::none());
    let mut server = DeltaServer::create_durable(graph.clone(), make, config, durability).unwrap();
    let injector = Arc::clone(server.fault_injector());

    let assert_gauges = |server: &DeltaServer<sssp::SsspProgram, _>,
                         step: &str,
                         read_only: f64,
                         degraded: f64,
                         resumed: f64| {
        let reg = server.metrics_registry();
        assert_eq!(
            reg.get("slfe_health_read_only").unwrap().value,
            read_only,
            "{step}: slfe_health_read_only"
        );
        assert_eq!(
            reg.get("slfe_health_degraded").unwrap().value,
            degraded,
            "{step}: slfe_health_degraded"
        );
        assert_eq!(
            reg.get("slfe_health_writes_resumed_total").unwrap().value,
            resumed,
            "{step}: slfe_health_writes_resumed_total"
        );
    };

    let mut batch_seed = 60u64;
    let mut next_batch = |g: &Graph| {
        let mut rng = SplitMix64::seed_from_u64(batch_seed);
        batch_seed += 1;
        let n = g.num_vertices() as u32;
        let mut batch = slfe::prelude::UpdateBatch::new();
        batch.insert(rng.range_u32(0, n), rng.range_u32(0, n), 1.5);
        batch
    };

    // Step 1: healthy and writable.
    assert_eq!(server.health().mode(), ServingMode::ReadWrite);
    assert_gauges(&server, "healthy", 0.0, 0.0, 0.0);

    // Step 2: a failing snapshot degrades but keeps the server writable.
    injector.arm(FaultPlan::new().fail(FaultSite::SnapshotWrite, 0, FaultKind::Permanent));
    let batch = next_batch(server.graph());
    let outcome = server.try_apply(&batch).unwrap();
    assert!(outcome.degraded);
    assert!(server.health().is_degraded() && !server.health().is_read_only());
    assert_gauges(&server, "degraded", 0.0, 1.0, 0.0);

    // Step 3: a later successful snapshot clears the degradation.
    injector.disarm();
    let batch = next_batch(server.graph());
    let outcome = server.try_apply(&batch).unwrap();
    assert!(!outcome.degraded);
    assert!(!server.health().is_degraded());
    assert_eq!(
        server.health().snapshot_failures(),
        1,
        "count is cumulative"
    );
    assert_gauges(&server, "cleared", 0.0, 0.0, 0.0);

    // Step 4: ENOSPC on the WAL flips read-only; applies are refused typed.
    injector.arm(FaultPlan::new().fail(FaultSite::WalAppend, 0, FaultKind::DiskFull));
    let batch = next_batch(server.graph());
    let err = server.try_apply(&batch).unwrap_err();
    assert_eq!(err.kind(), "wal_append");
    assert!(server.health().is_read_only());
    assert_gauges(&server, "read-only", 1.0, 1.0, 0.0);
    let err = server.try_apply(&batch).unwrap_err();
    assert_eq!(err.kind(), "read_only");

    // Step 5: the resume probe is refused while the obstacle stands.
    assert!(!server.try_resume_writes());
    assert!(server.health().is_read_only());
    assert_gauges(&server, "probe-refused", 1.0, 1.0, 0.0);

    // Step 6: obstacle cleared — the probe succeeds, writes resume, and the
    // next apply goes through end to end.
    injector.disarm();
    assert!(server.try_resume_writes());
    assert_eq!(server.health().mode(), ServingMode::ReadWrite);
    assert!(server.health().read_only_reason().is_none());
    assert_gauges(&server, "resumed", 0.0, 0.0, 1.0);
    let batch = next_batch(server.graph());
    assert!(server.try_apply(&batch).is_ok());
    assert_eq!(server.stats().batches_applied, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The frontend registry carries the serving-layer metrics the ISSUE names:
/// queue gauges, shed/deadline/quarantine counters, published seq, and
/// read-latency percentiles.
#[test]
fn frontend_registry_exposes_queue_shed_and_latency_metrics() {
    let graph = chaos_graph(59);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |_: &Graph| sssp::SsspProgram { root };
    let config = ServerConfig {
        cluster: ClusterConfig::new(1, 1),
        engine: EngineConfig::default().with_trace(false),
        ..ServerConfig::default()
    };
    let server = DeltaServer::try_new(graph, make, config).unwrap();
    let frontend = ServingFrontend::spawn(server, FrontendConfig::default());
    let handle = frontend.handle();
    handle
        .submit(EdgeUpdate::Insert {
            src: 0,
            dst: 1,
            weight: 1.0,
        })
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.published().seq() == 0 {
        assert!(Instant::now() < deadline, "batch never committed");
        std::thread::sleep(Duration::from_millis(5));
    }
    for v in 0..32u32 {
        handle.point(v, None).unwrap();
    }
    let _ = handle.point(0, Some(Duration::ZERO));
    let reg = handle.metrics_registry();
    for name in [
        "slfe_frontend_queue_depth",
        "slfe_frontend_queue_capacity",
        "slfe_frontend_queue_high_water",
        "slfe_frontend_published_seq",
        "slfe_frontend_group_commit_limit",
        "slfe_frontend_updates_submitted_total",
        "slfe_frontend_queries_total",
        "slfe_frontend_deadline_exceeded_total",
        "slfe_frontend_batches_committed_total",
        "slfe_frontend_updates_coalesced_total",
        "slfe_frontend_batches_quarantined_total",
        "slfe_frontend_apply_retries_total",
        "slfe_frontend_resume_attempts_total",
        "slfe_frontend_read_latency_count",
        "slfe_frontend_read_latency_p50_ns",
        "slfe_frontend_read_latency_p99_ns",
    ] {
        assert!(reg.get(name).is_some(), "registry is missing {name}");
    }
    for reason in ["overloaded", "read_only", "invalid"] {
        assert!(
            reg.get_with("slfe_frontend_sheds_total", &[("reason", reason)])
                .is_some(),
            "registry is missing sheds_total{{reason={reason}}}"
        );
    }
    assert_eq!(reg.get("slfe_frontend_published_seq").unwrap().value, 1.0);
    assert_eq!(
        reg.get("slfe_frontend_deadline_exceeded_total")
            .unwrap()
            .value,
        1.0
    );
    assert!(reg.get("slfe_frontend_read_latency_count").unwrap().value >= 32.0);
    // The exposition renders (the in-repo parser consumes this in CI).
    let text = reg.prometheus_text();
    assert!(text.contains("slfe_frontend_queue_depth"));
    drop(frontend);
}
