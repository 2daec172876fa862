//! Telemetry acceptance tests (PR 7): the telemetry switch must be purely
//! observational. For **every registered application** ([`slfe::apps::AppKind::ALL`])
//! at 1 and 4 workers, a telemetry-on run must be bit-identical — values,
//! work counters, iteration count, convergence flag, per-node-pair message
//! tallies — to the telemetry-off run (which is itself the pre-telemetry
//! default). The on-run must actually collect: iteration/phase spans, worker
//! execute windows, and the iteration-wall histogram, all exportable as
//! Chrome trace JSON that a real parser accepts.

use slfe::apps::{bfs, cc, heat, numpaths, pagerank, spmv, sssp, tunkrank, widestpath, AppKind};
use slfe::core::{EngineConfig, GraphProgram, SlfeEngine};
use slfe::delta::{DeltaServer, DurabilityConfig, ServerConfig, SnapshotValue, UpdateBatch};
use slfe::graph::rng::SplitMix64;
use slfe::graph::{generators, Graph};
use slfe::metrics::{json, Counters, HIST_BATCH_APPLY, HIST_ITERATION_WALL};
use slfe::prelude::ClusterConfig;

/// Run `program` with telemetry off and on; values (via `compare`), counters
/// and message tallies must be identical, and the on-run's hub must have
/// collected spans plus the per-iteration wall histogram.
fn check_telemetry_is_observation_only<P, V, PF, C>(
    graph: &Graph,
    config: EngineConfig,
    make_program: PF,
    compare: C,
) where
    P: GraphProgram<Value = V>,
    V: Copy + Send + Sync + std::fmt::Debug,
    PF: Fn(&Graph) -> P,
    C: Fn(&[V], &[V], usize),
{
    for workers in [1usize, 4] {
        let cluster = ClusterConfig::new(2, workers);
        let off_engine =
            SlfeEngine::build(graph, cluster.clone(), config.clone().with_telemetry(false));
        let on_engine = SlfeEngine::build(graph, cluster, config.clone().with_telemetry(true));
        let off = off_engine.run(&make_program(graph));
        let on = on_engine.run(&make_program(graph));

        compare(&off.values, &on.values, workers);
        assert_eq!(off.stats.iterations, on.stats.iterations);
        assert_eq!(off.converged, on.converged);
        // `scratch_bytes_peak` sums per-worker high-water marks, which depend
        // on who won the chunk-stealing races — timing-dependent at >1
        // workers (tests/sparse.rs strips it the same way). Every other
        // counter is pinned equal; at 1 worker everything is.
        let strip_peak = |c: Counters| Counters {
            scratch_bytes_peak: 0,
            ..c
        };
        if workers == 1 {
            assert_eq!(
                off.stats.totals, on.stats.totals,
                "counters diverge under telemetry at 1 worker"
            );
        }
        assert_eq!(
            strip_peak(off.stats.totals),
            strip_peak(on.stats.totals),
            "counters diverge under telemetry at {workers} workers"
        );
        for src in 0..2 {
            for dst in 0..2 {
                assert_eq!(
                    off_engine
                        .cluster()
                        .comm_tracker()
                        .messages_between(src, dst),
                    on_engine
                        .cluster()
                        .comm_tracker()
                        .messages_between(src, dst),
                    "message tally {src}->{dst} diverges at {workers} workers"
                );
            }
        }

        // Off: the hub must have collected nothing at all.
        let off_snap = off_engine.telemetry().snapshot();
        assert!(
            off_snap.spans.is_empty(),
            "telemetry-off run recorded spans"
        );
        assert!(off_snap.histograms.is_empty());

        // On: iterations, phases and the wall histogram are all there.
        let on_snap = on_engine.telemetry().snapshot();
        let iteration_spans = on_snap
            .spans
            .iter()
            .filter(|s| s.name == "iteration")
            .count();
        assert_eq!(
            iteration_spans as u32, on.stats.iterations,
            "one iteration span per iteration at {workers} workers"
        );
        assert!(on_snap.spans.iter().any(|s| s.name == "phase"));
        assert!(
            on_snap.spans.iter().any(|s| s.name == "execute"),
            "no worker execute window drained at {workers} workers"
        );
        let wall = on_snap
            .histogram(HIST_ITERATION_WALL)
            .expect("iteration wall histogram missing");
        assert_eq!(wall.count(), on.stats.iterations as u64);
        assert!(wall.percentile(0.5).is_some());

        // Every emitted trace document must survive a real JSON parser.
        let doc = on_snap.chrome_trace();
        let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("invalid trace JSON: {e}"));
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), on_snap.spans.len());
        // And the flame table must aggregate them without panicking.
        assert!(on_snap.flame_table().render().contains("iteration"));
    }
}

fn assert_bits_equal(off: &[f32], on: &[f32], workers: usize, app: AppKind) {
    assert_eq!(off.len(), on.len());
    for (v, (a, b)) in off.iter().zip(on).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{app}: vertex {v} diverges at {workers} workers ({a} vs {b})"
        );
    }
}

#[test]
fn every_registered_program_is_bit_identical_under_telemetry() {
    let rmat = generators::rmat(320, 2100, 0.57, 0.19, 0.19, 6100);
    let sym = cc::symmetrize(&generators::rmat(220, 1000, 0.57, 0.19, 0.19, 6150));
    let dag = generators::layered(8, 30, 4, 61);
    let root = slfe::graph::stats::highest_out_degree_vertex(&rmat).unwrap();

    for app in AppKind::ALL {
        eprintln!("checking {app}");
        match app {
            AppKind::Sssp => check_telemetry_is_observation_only(
                &rmat,
                EngineConfig::default(),
                |_| sssp::SsspProgram { root },
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::Bfs => check_telemetry_is_observation_only(
                &rmat,
                EngineConfig::default(),
                |_| bfs::BfsProgram { root },
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::WidestPath => check_telemetry_is_observation_only(
                &rmat,
                EngineConfig::default(),
                |_| widestpath::WidestPathProgram { root },
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::ConnectedComponents => check_telemetry_is_observation_only(
                &sym,
                EngineConfig::default(),
                cc::CcProgram::for_graph,
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::PageRank => check_telemetry_is_observation_only(
                &rmat,
                EngineConfig::default(),
                pagerank::PageRankProgram::for_graph,
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::TunkRank => check_telemetry_is_observation_only(
                &rmat,
                EngineConfig::default(),
                |_| tunkrank::TunkRankProgram::default(),
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::SpMV => check_telemetry_is_observation_only(
                &rmat,
                EngineConfig::default(),
                |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
                |d: &[(f32, f32)], s: &[(f32, f32)], k| {
                    for (v, (a, b)) in d.iter().zip(s).enumerate() {
                        assert_eq!(
                            (a.0.to_bits(), a.1.to_bits()),
                            (b.0.to_bits(), b.1.to_bits()),
                            "SpMV: vertex {v} diverges at {k} workers"
                        );
                    }
                },
            ),
            AppKind::HeatSimulation => check_telemetry_is_observation_only(
                &rmat,
                EngineConfig::default().with_max_iterations(120),
                |g: &Graph| heat::HeatProgram::point_source(g, root),
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
            AppKind::NumPaths => check_telemetry_is_observation_only(
                &dag,
                EngineConfig::default(),
                |_| numpaths::NumPathsProgram { root: 0 },
                |d, s, k| assert_bits_equal(d, s, k, app),
            ),
        }
    }
}

/// The default configuration must keep telemetry off: anyone building an
/// engine the pre-PR way gets the pre-PR (uninstrumented) execution.
#[test]
fn telemetry_defaults_off_and_the_default_engine_collects_nothing() {
    assert!(!EngineConfig::default().telemetry.enabled);
    let graph = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 6200);
    let engine = SlfeEngine::build(&graph, ClusterConfig::new(2, 2), EngineConfig::default());
    let result = engine.run(&sssp::SsspProgram { root: 0 });
    assert!(result.stats.iterations > 0);
    let snap = engine.telemetry().snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.histograms.is_empty());
}

/// Out-of-core + telemetry: segment faults surface as storage spans and the
/// fault-latency histogram, while values stay bit-identical to the
/// telemetry-off streaming run.
#[test]
fn out_of_core_telemetry_records_segment_faults_without_perturbing_values() {
    use slfe::metrics::HIST_SEGMENT_FAULT;
    let graph = generators::rmat(6_000, 48_000, 0.57, 0.19, 0.19, 6300);
    let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap();
    let oocore = EngineConfig::default()
        .with_storage_budget(64 << 10)
        .with_storage_segment_bytes(4 << 10)
        .with_trace(false);
    let off = SlfeEngine::build(&graph, ClusterConfig::new(2, 2), oocore.clone())
        .run(&sssp::SsspProgram { root });
    let on_engine = SlfeEngine::build(
        &graph,
        ClusterConfig::new(2, 2),
        oocore.with_telemetry(true),
    );
    let on = on_engine.run(&sssp::SsspProgram { root });
    assert_eq!(
        off.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        on.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    // The I/O tallies are timing-dependent at >1 workers by design (two
    // workers racing on one segment may both read it — see `BufferPool::get`),
    // and `scratch_bytes_peak` depends on chunk-stealing races, so only the
    // *computation* counters are pinned equal here.
    let strip_nondeterministic = |c: Counters| Counters {
        segments_faulted: 0,
        segment_bytes_read: 0,
        scratch_bytes_peak: 0,
        ..c
    };
    assert_eq!(
        strip_nondeterministic(off.stats.totals),
        strip_nondeterministic(on.stats.totals)
    );
    assert!(on.stats.totals.segments_faulted > 0);

    let snap = on_engine.telemetry().snapshot();
    let faults = snap
        .histogram(HIST_SEGMENT_FAULT)
        .expect("segment fault histogram missing");
    // The histogram sees every pool fault since engine construction; the
    // engine totals only the faults inside its phase windows.
    assert!(faults.count() >= on.stats.totals.segments_faulted);
    assert!(snap
        .spans
        .iter()
        .any(|s| s.name == "segment_fault" && s.cat == "storage"));
    assert!(snap.spans.iter().any(|s| s.name == "disk_read"));
    assert!(snap.spans.iter().any(|s| s.name == "decode"));
    // Storage lanes render on non-coordinator tracks.
    assert!(snap
        .spans
        .iter()
        .filter(|s| s.cat == "storage")
        .all(|s| s.track >= 1));
}

/// Chunk-level sanity for the trace math: spans nest (phase within iteration)
/// and all timestamps are monotone within the run.
#[test]
fn spans_nest_and_use_one_monotone_timeline() {
    let graph = generators::layered(10, 200, 4, 6400);
    let engine = SlfeEngine::build(
        &graph,
        ClusterConfig::new(2, 2),
        EngineConfig::default().with_telemetry(true),
    );
    let result = engine.run(&sssp::SsspProgram { root: 0 });
    assert!(result.converged);
    let snap = engine.telemetry().snapshot();
    let iterations: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name == "iteration")
        .collect();
    let phases: Vec<_> = snap.spans.iter().filter(|s| s.name == "phase").collect();
    assert!(!iterations.is_empty() && !phases.is_empty());
    // Every phase span lies inside some iteration span.
    for phase in &phases {
        let inside = iterations.iter().any(|it| {
            phase.start_ns >= it.start_ns
                && phase.start_ns + phase.dur_ns <= it.start_ns + it.dur_ns
        });
        assert!(inside, "phase span escapes every iteration span");
    }
    // Iteration spans are disjoint and ordered on the shared clock.
    let mut starts: Vec<u64> = iterations.iter().map(|s| s.start_ns).collect();
    let sorted = {
        let mut s = starts.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(starts, sorted, "iteration spans out of order");
    starts.dedup();
    assert_eq!(starts.len(), iterations.len());
}

/// The `Counters` equality the per-app sweep relies on is exhaustive — a new
/// counter field that telemetry accidentally perturbs must fail here, not
/// slip through a stale field list.
#[test]
fn counter_equality_covers_every_field() {
    let zero = Counters::zero();
    let sum = zero + zero;
    assert_eq!(zero, sum);
}

/// Apply one batch on a fresh server and check its stage record: the stages
/// come in the documented order, sum to `wall_seconds`, and — with telemetry
/// on — each is a `server` span chained inside the batch's single `batch`
/// span; with telemetry off nothing is recorded but the stages.
fn check_stage_record<P, PF>(graph: &Graph, make_program: PF, label: &str)
where
    P: GraphProgram,
    P::Value: SnapshotValue,
    PF: Fn(&Graph) -> P + Copy,
{
    let n = graph.num_vertices() as u32;
    let mut rng = SplitMix64::seed_from_u64(u64::from(n) + 6500);
    let mut batch = UpdateBatch::new();
    for _ in 0..12 {
        let (src, dst) = (rng.range_u32(0, n), rng.range_u32(0, n + 4));
        batch.insert(src, dst, rng.range_f32(1.0, 10.0));
    }
    for durable in [false, true] {
        for full_recompute_dirty_fraction in [0.5, 0.0] {
            for telemetry in [false, true] {
                let tag = format!(
                    "{label}/durable={durable}/cold={}",
                    full_recompute_dirty_fraction == 0.0
                );
                let mut engine = EngineConfig::default().with_telemetry(telemetry);
                if durable {
                    engine = engine
                        .with_storage_budget(48 << 10)
                        .with_storage_segment_bytes(2 << 10);
                }
                let config = ServerConfig {
                    cluster: ClusterConfig::new(2, 2),
                    engine,
                    full_recompute_dirty_fraction,
                    ..ServerConfig::default()
                };
                let dir = std::env::temp_dir().join(format!(
                    "slfe-stages-{}-{}",
                    tag.replace('/', "-"),
                    std::process::id()
                ));
                let mut server = if durable {
                    let _ = std::fs::remove_dir_all(&dir);
                    let durability = DurabilityConfig::new(&dir).with_snapshot_every(1);
                    DeltaServer::create_durable(graph.clone(), make_program, config, durability)
                        .unwrap()
                } else {
                    DeltaServer::try_new(graph.clone(), make_program, config).unwrap()
                };
                let before = server.telemetry().spans.len();
                let outcome = server.try_apply(&batch).unwrap();

                let run = if full_recompute_dirty_fraction == 0.0 {
                    "cold_run"
                } else {
                    "warm_restart"
                };
                let expected: Vec<&str> = if durable {
                    vec![
                        "wal_append",
                        "graph_patch",
                        "segment_patch",
                        "layout_patch",
                        "guidance",
                        run,
                        "publish",
                        "snapshot",
                    ]
                } else {
                    vec!["graph_patch", "layout_patch", "guidance", run, "publish"]
                };
                let names: Vec<&str> = outcome.stages.iter().map(|&(name, _)| name).collect();
                assert_eq!(names, expected, "{tag}: stage order");
                let sum: f64 = outcome.stages.iter().map(|&(_, secs)| secs).sum();
                assert!(
                    (sum - outcome.wall_seconds).abs() <= 1e-9 * outcome.wall_seconds.max(1e-6),
                    "{tag}: stages sum to {sum}, wall is {}",
                    outcome.wall_seconds
                );
                assert!(outcome.wall_seconds > 0.0);

                let snap = server.telemetry();
                if !telemetry {
                    assert!(snap.spans.is_empty(), "{tag}: telemetry-off spans");
                    assert!(snap.histograms.is_empty());
                } else {
                    let spans: Vec<_> = snap.spans[before..]
                        .iter()
                        .filter(|s| s.cat == "server")
                        .collect();
                    let batches: Vec<_> = spans.iter().filter(|s| s.name == "batch").collect();
                    assert_eq!(batches.len(), 1, "{tag}: one batch span per apply");
                    let (start, end) =
                        (batches[0].start_ns, batches[0].start_ns + batches[0].dur_ns);
                    assert_eq!(batches[0].dur_ns as f64 * 1e-9, outcome.wall_seconds);
                    assert!(
                        spans
                            .iter()
                            .all(|s| s.start_ns >= start && s.start_ns + s.dur_ns <= end),
                        "{tag}: a server span escapes the batch span"
                    );
                    // Each stage is one span of the same length, and the
                    // spans tile the batch span end to end.
                    let mut at = start;
                    for &(stage, secs) in &outcome.stages {
                        let name = if stage == "guidance" {
                            "guidance_repair"
                        } else {
                            stage
                        };
                        let span = spans
                            .iter()
                            .find(|s| s.name == name && s.start_ns == at)
                            .unwrap_or_else(|| panic!("{tag}: no {name} span at {at}"));
                        assert_eq!(span.dur_ns as f64 * 1e-9, secs, "{tag}: {stage}");
                        at += span.dur_ns;
                    }
                    assert_eq!(at, end, "{tag}: stage spans leave a gap");
                    let applies = snap.histogram(HIST_BATCH_APPLY).unwrap();
                    assert_eq!(applies.count(), 1);
                }
                drop(server);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// The apply pipeline's stage record (`BatchOutcome::stages`) for every
/// registered app, warm and forced full recompute, in memory and durable
/// out of core, with telemetry on and off.
#[test]
fn every_registered_program_records_its_apply_stages() {
    let rmat = generators::rmat(320, 2100, 0.57, 0.19, 0.19, 6600);
    let sym = cc::symmetrize(&generators::rmat(220, 1000, 0.57, 0.19, 0.19, 6650));
    let dag = generators::layered(8, 30, 4, 66);
    let root = slfe::graph::stats::highest_out_degree_vertex(&rmat).unwrap();
    for app in AppKind::ALL {
        let label = app.to_string();
        match app {
            AppKind::Sssp => check_stage_record(
                &rmat,
                |g| sssp::SsspProgram {
                    root: g.to_physical(root),
                },
                &label,
            ),
            AppKind::Bfs => check_stage_record(
                &rmat,
                |g| bfs::BfsProgram {
                    root: g.to_physical(root),
                },
                &label,
            ),
            AppKind::WidestPath => check_stage_record(
                &rmat,
                |g| widestpath::WidestPathProgram {
                    root: g.to_physical(root),
                },
                &label,
            ),
            AppKind::ConnectedComponents => {
                check_stage_record(&sym, cc::CcProgram::for_graph, &label)
            }
            AppKind::PageRank => {
                check_stage_record(&rmat, pagerank::PageRankProgram::for_graph, &label)
            }
            AppKind::TunkRank => {
                check_stage_record(&rmat, |_| tunkrank::TunkRankProgram::default(), &label)
            }
            AppKind::SpMV => {
                check_stage_record(&rmat, |g| spmv::SpmvProgram::ones(g.num_vertices()), &label)
            }
            AppKind::HeatSimulation => check_stage_record(
                &rmat,
                |g| heat::HeatProgram::point_source(g, g.to_physical(root)),
                &label,
            ),
            AppKind::NumPaths => {
                check_stage_record(&dag, |_| numpaths::NumPathsProgram { root: 0 }, &label)
            }
        }
    }
}
