//! Id-remap transparency acceptance tests (PR 10): physical reordering must
//! be invisible to every consumer of external vertex ids.
//!
//! The contract pinned here: for **every registered application**
//! ([`slfe::apps::AppKind::ALL`]), a run on a physically remapped graph is
//! **bit-identical** — values (compared in external-id order), convergence
//! and iteration count — to the run on the unremapped graph, at 1 and 4
//! workers, in-memory and out-of-core. At the serving layer, warm batches
//! stay bit-transparent *across* a remap boundary, a kill-9'd remapped
//! durable server recovers bit-identically, and migration bounds the
//! partition imbalance that growth alone cannot fix.
//!
//! Counters that are *documented* as layout-dependent and therefore excluded
//! from the equality: edge computations and chunks skipped (chunk boundaries
//! move with the physical order), per-worker message tallies and simulated
//! seconds (derived from the above), scratch-space peaks, and the out-of-core
//! I/O stats `segments_faulted` / `segment_bytes_read`
//! (`degree_ordered_layout_faults_fewer_segments_than_identity` shows those
//! *improve* under a degree-ordered remap).
//!
//! Run with `--test-threads=1`: every case spawns its own worker pool and
//! the CI container has a single hardware thread.

use slfe::apps::{bfs, cc, heat, numpaths, pagerank, spmv, sssp, tunkrank, widestpath, AppKind};
use slfe::core::{EngineConfig, GraphProgram, RedundancyMode, SlfeEngine};
use slfe::delta::{DeltaServer, DurabilityConfig, ServerConfig};
use slfe::graph::rng::SplitMix64;
use slfe::graph::{generators, stats, Graph, IdRemap, ReorderPolicy, UpdateBatch, VertexId};
use slfe::partition::{contiguous_degree_layout, Partitioning};
use slfe::prelude::ClusterConfig;

/// A seeded random permutation of `0..n` (Fisher–Yates over SplitMix64) —
/// the adversarial layout: no locality structure whatsoever.
fn random_permutation(n: usize, seed: u64) -> IdRemap {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = rng.range_u32(0, i as u32 + 1) as usize;
        perm.swap(i, j);
    }
    IdRemap::from_forward(perm)
}

/// Reindex an engine result (physical order) into external-id order.
fn external_order<T: Copy>(graph: &Graph, values: &[T]) -> Vec<T> {
    (0..values.len())
        .map(|ext| values[graph.to_physical(ext as VertexId) as usize])
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Run `make_program` on `graph` and on a randomly permuted copy, across
/// {1, 4} workers × {in-memory, out-of-core}, and require the remapped run to
/// be bit-identical in external order, convergence and iteration count.
fn check_remap_transparent<P, V, PF, C>(
    graph: &Graph,
    config: EngineConfig,
    seed: u64,
    make_program: PF,
    compare: C,
) where
    P: GraphProgram<Value = V>,
    V: Copy + PartialEq + Send + Sync + std::fmt::Debug,
    PF: Fn(&Graph) -> P,
    C: Fn(&[V], &[V], &str),
{
    let step = random_permutation(graph.num_vertices(), seed);
    assert!(!step.is_identity(), "the test needs a real permutation");
    let remapped = graph.remapped(&step);
    remapped.validate().unwrap();
    for workers in [1usize, 4] {
        for oocore in [false, true] {
            let config = if oocore {
                config
                    .clone()
                    .with_storage_budget(24 << 10)
                    .with_storage_segment_bytes(2 << 10)
            } else {
                config.clone()
            };
            let cluster = ClusterConfig::new(2, workers);
            let plain =
                SlfeEngine::build(graph, cluster.clone(), config.clone()).run(&make_program(graph));
            let permuted =
                SlfeEngine::build(&remapped, cluster, config).run(&make_program(&remapped));
            let label = format!("{workers} workers, oocore={oocore}");
            assert_eq!(
                plain.converged, permuted.converged,
                "{label}: convergence must not depend on the layout"
            );
            assert_eq!(
                plain.stats.iterations, permuted.stats.iterations,
                "{label}: iteration count must not depend on the layout"
            );
            compare(
                &plain.values,
                &external_order(&remapped, &permuted.values),
                &label,
            );
        }
    }
}

fn assert_bits_equal(plain: &[f32], remapped: &[f32], app: AppKind, label: &str) {
    assert_eq!(plain.len(), remapped.len());
    for (v, (a, b)) in plain.iter().zip(remapped).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{app}: external vertex {v} diverges under remap ({label}): {a} vs {b}"
        );
    }
}

/// Ruler-free arithmetic configuration (matches `tests/incremental.rs`).
fn exact_config() -> EngineConfig {
    EngineConfig::default()
        .with_redundancy(RedundancyMode::Disabled)
        .with_max_iterations(400)
}

/// The tentpole invariant: every registered application is value-transparent
/// under an adversarial random permutation — with redundancy reduction *on*
/// for the min/max apps (guidance generation is permutation-equivariant) and
/// ruler-free for the arithmetic ones (their served configuration).
#[test]
fn every_registered_program_is_bit_transparent_under_remap() {
    let rmat = generators::rmat(260, 1700, 0.57, 0.19, 0.19, 900);
    let sym = cc::symmetrize(&generators::rmat(200, 900, 0.57, 0.19, 0.19, 950));
    let dag = generators::layered(8, 30, 4, 77);
    let root = stats::highest_out_degree_vertex(&rmat).unwrap();

    for app in AppKind::ALL {
        eprintln!("checking {app} under remap");
        let seed = 4200 + app as u64;
        match app {
            AppKind::Sssp => check_remap_transparent(
                &rmat,
                EngineConfig::default(),
                seed,
                |g: &Graph| sssp::SsspProgram {
                    root: g.to_physical(root),
                },
                |p, r, l| assert_bits_equal(p, r, app, l),
            ),
            AppKind::Bfs => check_remap_transparent(
                &rmat,
                EngineConfig::default(),
                seed,
                |g: &Graph| bfs::BfsProgram {
                    root: g.to_physical(root),
                },
                |p, r, l| assert_bits_equal(p, r, app, l),
            ),
            AppKind::WidestPath => check_remap_transparent(
                &rmat,
                EngineConfig::default(),
                seed,
                |g: &Graph| widestpath::WidestPathProgram {
                    root: g.to_physical(root),
                },
                |p, r, l| assert_bits_equal(p, r, app, l),
            ),
            AppKind::ConnectedComponents => check_remap_transparent(
                &sym,
                EngineConfig::default(),
                seed,
                cc::CcProgram::for_graph,
                |p: &[f32], r: &[f32], l| assert_bits_equal(p, r, app, l),
            ),
            AppKind::PageRank => check_remap_transparent(
                &rmat,
                exact_config(),
                seed,
                pagerank::PageRankProgram::for_graph,
                |p, r, l| assert_bits_equal(p, r, app, l),
            ),
            AppKind::TunkRank => check_remap_transparent(
                &rmat,
                exact_config(),
                seed,
                |_| tunkrank::TunkRankProgram::default(),
                |p, r, l| assert_bits_equal(p, r, app, l),
            ),
            AppKind::SpMV => check_remap_transparent(
                &rmat,
                exact_config(),
                seed,
                |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
                |p: &[(f32, f32)], r: &[(f32, f32)], l| {
                    for (v, (a, b)) in p.iter().zip(r).enumerate() {
                        assert_eq!(
                            (a.0.to_bits(), a.1.to_bits()),
                            (b.0.to_bits(), b.1.to_bits()),
                            "SpMV: external vertex {v} diverges under remap ({l})"
                        );
                    }
                },
            ),
            AppKind::HeatSimulation => check_remap_transparent(
                &rmat,
                exact_config()
                    .with_tolerance(1e-6)
                    .with_max_iterations(3000),
                seed,
                |g: &Graph| heat::HeatProgram::point_source(g, g.to_physical(root)),
                |p, r, l| assert_bits_equal(p, r, app, l),
            ),
            AppKind::NumPaths => check_remap_transparent(
                &dag,
                exact_config(),
                seed,
                |g: &Graph| numpaths::NumPathsProgram {
                    root: g.to_physical(0),
                },
                |p, r, l| assert_bits_equal(p, r, app, l),
            ),
        }
    }
}

/// Buffer-pool budget of the locality check: a few segments of a graph whose
/// segment footprint is many times larger.
const LOCALITY_BUDGET: u64 = 32 << 10;

/// Run `program` out of core on `graph` at 2 nodes x 1 worker and return the
/// pool's segment faults plus the values' bits in external-id order.
fn faults_and_external_bits<P: GraphProgram<Value = f32>>(
    graph: &Graph,
    program: &P,
) -> (u64, Vec<u32>) {
    let engine = SlfeEngine::build(
        graph,
        ClusterConfig::new(2, 1),
        EngineConfig::default()
            .with_trace(false)
            .with_storage_budget(LOCALITY_BUDGET)
            .with_storage_segment_bytes(4 << 10),
    );
    let storage = engine.storage().expect("out-of-core engine");
    assert!(
        storage.footprint_bytes() > LOCALITY_BUDGET,
        "segment footprint {} B must exceed the pool budget",
        storage.footprint_bytes()
    );
    let result = engine.run(program);
    let faults = storage.pool().counters().segments_faulted;
    (faults, bits(&external_order(graph, &result.values)))
}

/// A degree-descending remap buys buffer-pool locality: on a skewed R-MAT
/// whose segment footprint exceeds a tight pool budget, SSSP, BFS and
/// PageRank serve bit-identical values in external-id order on the identity
/// and the degree-ordered layout, and the ordered layout (hubs packed into
/// the front segments) faults at least 5% fewer segments in total.
#[test]
fn degree_ordered_layout_faults_fewer_segments_than_identity() {
    let graph = generators::rmat(3000, 24_000, 0.57, 0.19, 0.19, 10_2026);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    // A single global partition: the pure degree sort, no migration in play.
    let whole = Partitioning::from_owners(vec![0; graph.num_vertices()], 1);
    let step = contiguous_degree_layout(&graph, &whole, ReorderPolicy::DegreeDescending);
    assert!(!step.is_identity(), "degree sort must move something");
    let ordered = graph.remapped(&step);
    let ordered_root = ordered.to_physical(root);

    let runs = [
        (
            "sssp",
            faults_and_external_bits(&graph, &sssp::SsspProgram { root }),
            faults_and_external_bits(&ordered, &sssp::SsspProgram { root: ordered_root }),
        ),
        (
            "bfs",
            faults_and_external_bits(&graph, &bfs::BfsProgram { root }),
            faults_and_external_bits(&ordered, &bfs::BfsProgram { root: ordered_root }),
        ),
        (
            "pagerank",
            faults_and_external_bits(&graph, &pagerank::PageRankProgram::for_graph(&graph)),
            faults_and_external_bits(&ordered, &pagerank::PageRankProgram::for_graph(&ordered)),
        ),
    ];
    for (app, (identity_faults, identity_bits), (ordered_faults, ordered_bits)) in &runs {
        assert_eq!(
            identity_bits, ordered_bits,
            "{app}: remapped values diverge from identity"
        );
        eprintln!("{app}: {identity_faults} identity vs {ordered_faults} ordered faults");
    }
    let identity_faults: u64 = runs.iter().map(|(_, identity, _)| identity.0).sum();
    let ordered_faults: u64 = runs.iter().map(|(_, _, ordered)| ordered.0).sum();
    // The two pool threads share the buffer pool, so each total moves by a
    // few faults (about 1%) from run to run. Demanding 5% fewer keeps that
    // noise from passing a layout that buys nothing (the ordered layout reads
    // about 15% fewer).
    assert!(
        ordered_faults * 20 < identity_faults * 19,
        "the degree-ordered layout faulted {ordered_faults} segments, identity {identity_faults}"
    );
}

/// Mixed random batch in **external** ids, optionally growing the id space —
/// the same stream is fed to a remapped and an unremapped server.
fn mixed_batch(n: u32, seed: u64, ops: usize, grow: u32) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let src = rng.range_u32(0, n);
        if rng.next_f64() < 0.75 {
            batch.insert(src, rng.range_u32(0, n + grow), rng.range_f32(1.0, 10.0));
        } else {
            batch.delete(src, rng.range_u32(0, n));
        }
    }
    batch
}

/// Warm serving across a remap boundary: a policy server (degree-descending
/// reorder + migration) must answer every query — full values, point reads,
/// top-k — bit-identically to a policy-free reference, before and after
/// [`DeltaServer::remap_now`], including warm batches applied *after* the
/// boundary and growth batches whose appended ids sit beyond the remap.
#[test]
fn warm_batches_stay_bit_transparent_across_a_remap_boundary() {
    let graph = generators::rmat(500, 3500, 0.57, 0.19, 0.19, 1011);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |g: &Graph| sssp::SsspProgram {
        root: g.to_physical(root),
    };
    let policy = ServerConfig {
        cluster: ClusterConfig::new(4, 1),
        engine: EngineConfig::default()
            .with_reorder(ReorderPolicy::DegreeDescending)
            .with_migration_imbalance_threshold(1.5),
        ..ServerConfig::default()
    };
    let reference_config = ServerConfig {
        cluster: ClusterConfig::new(4, 1),
        ..ServerConfig::default()
    };
    let mut server = DeltaServer::try_new(graph.clone(), make, policy).unwrap();
    let mut reference = DeltaServer::try_new(graph, make, reference_config).unwrap();
    let mut n = server.graph().num_vertices() as u32;
    for round in 0..6u64 {
        let batch = mixed_batch(n, round + 300, 20, if round % 2 == 0 { 4 } else { 0 });
        let outcome = server.try_apply(&batch).unwrap();
        let expected = reference.try_apply(&batch).unwrap();
        assert!(!outcome.full_recompute, "round {round} must stay warm");
        assert_eq!(
            outcome.effect.dirty, expected.effect.dirty,
            "round {round}: BatchOutcome must report external dirty ids"
        );
        assert_eq!(
            outcome.effect.worsened_dsts, expected.effect.worsened_dsts,
            "round {round}: BatchOutcome must report external worsened ids"
        );
        assert_eq!(
            bits(server.values()),
            bits(reference.values()),
            "round {round}: values diverge"
        );
        n = server.graph().num_vertices() as u32;
        if round == 2 {
            // The remap boundary, mid-stream.
            assert!(server.remap_now().unwrap(), "policy must produce a remap");
            assert!(server.graph().is_remapped());
            assert!(!reference.graph().is_remapped());
            assert_eq!(
                bits(server.values()),
                bits(reference.values()),
                "the remap itself perturbed served values"
            );
        }
    }
    // Query-surface equality on the final (remapped, grown) version.
    assert_eq!(bits(server.values()), bits(reference.values()));
    for v in (0..n).step_by(37) {
        assert_eq!(server.value(v), reference.value(v), "point query at {v}");
    }
    assert_eq!(server.value(n + 999), None);
    let near = |a: &f32, b: &f32| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal);
    assert_eq!(
        server.top_k_by(12, near),
        reference.top_k_by(12, near),
        "top-k must rank external ids identically"
    );
}

/// Out-of-core remap: [`DeltaServer::remap_now`] re-encodes the disk segments
/// in the new physical order, and the re-encoded store serves bit-identical
/// values through subsequent warm batches.
#[test]
fn out_of_core_remap_reencodes_segments_and_stays_transparent() {
    let graph = generators::rmat(600, 4200, 0.57, 0.19, 0.19, 1213);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |g: &Graph| sssp::SsspProgram {
        root: g.to_physical(root),
    };
    let oocore_policy = ServerConfig {
        engine: EngineConfig::default()
            .with_storage_budget(24 << 10)
            .with_storage_segment_bytes(2 << 10)
            .with_reorder(ReorderPolicy::DegreeDescending),
        ..ServerConfig::default()
    };
    let mut server = DeltaServer::try_new(graph.clone(), make, oocore_policy).unwrap();
    let mut reference = DeltaServer::try_new(graph, make, ServerConfig::default()).unwrap();
    let mut n = server.graph().num_vertices() as u32;
    for round in 0..4u64 {
        let batch = mixed_batch(n, round + 800, 15, 0);
        server.try_apply(&batch).unwrap();
        reference.try_apply(&batch).unwrap();
        n = server.graph().num_vertices() as u32;
        if round == 1 {
            let live_before = server.storage().unwrap().footprint_bytes();
            assert!(server.remap_now().unwrap());
            assert!(server.graph().is_remapped());
            let storage = server.storage().expect("remap must keep the store");
            assert!(
                storage.footprint_bytes() > 0 && live_before > 0,
                "re-encoded store must have live bytes"
            );
            // The fresh generation has no superseded segments.
            assert_eq!(storage.dead_bytes(), 0);
        }
        assert_eq!(
            bits(server.values()),
            bits(reference.values()),
            "round {round}: out-of-core remapped serving diverges"
        );
    }
}

fn durable_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("slfe-remap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kill-9 recovery of a remapped server: the snapshot-path policy remaps the
/// layout mid-stream, further external-id batches land in the WAL only, the
/// process dies without a clean shutdown, and `open` must restore the remap
/// from the snapshot, re-translate the WAL suffix through it, and serve
/// bit-identical values to an uninterrupted policy-free witness.
#[test]
fn kill9_reopen_of_a_remapped_durable_server_is_bit_identical() {
    let dir = durable_dir("kill9");
    let graph = generators::rmat(400, 2800, 0.57, 0.19, 0.19, 1415);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |g: &Graph| sssp::SsspProgram {
        root: g.to_physical(root),
    };
    let policy = ServerConfig {
        engine: EngineConfig::default()
            .with_reorder(ReorderPolicy::DegreeDescending)
            .with_migration_imbalance_threshold(1.5),
        ..ServerConfig::default()
    };
    let durability = DurabilityConfig::new(&dir).with_snapshot_every(3);
    let mut durable =
        DeltaServer::create_durable(graph.clone(), make, policy.clone(), durability.clone())
            .unwrap();
    // The initial snapshot already ran the policy: the layout is remapped
    // before the first batch arrives.
    assert!(durable.graph().is_remapped());
    let mut witness = DeltaServer::try_new(graph, make, ServerConfig::default()).unwrap();
    let mut n = durable.graph().num_vertices() as u32;
    for round in 0..5u64 {
        let batch = mixed_batch(n, round + 5000, 18, if round == 1 { 5 } else { 0 });
        durable.try_apply(&batch).unwrap();
        witness.try_apply(&batch).unwrap();
        n = durable.graph().num_vertices() as u32;
    }
    // Snapshot (and re-remap) at seq 3; entries 4 and 5 only in the WAL.
    assert_eq!(durable.wal_seq(), Some(5));
    drop(durable); // kill -9: no flush, no final snapshot

    let reopened = DeltaServer::open(make, policy, durability).unwrap();
    assert!(
        reopened.graph().is_remapped(),
        "the snapshot must restore the remap"
    );
    assert_eq!(
        reopened.durability_counters().unwrap().wal_entries_replayed,
        2,
        "the two post-snapshot batches must replay"
    );
    assert_eq!(
        bits(reopened.values()),
        bits(witness.values()),
        "recovered remapped values diverge from the uninterrupted witness"
    );
    let near = |a: &f32, b: &f32| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal);
    assert_eq!(reopened.top_k_by(10, near), witness.top_k_by(10, near));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Migration bounds the partition imbalance growth alone cannot fix: the
/// edge-balanced seed partitioning starts vertex-skewed on a hub-heavy
/// graph, `extend_to`'s least-loaded appends cannot undo that head start
/// over a 50-batch growth run, but the migration policy pulls the ratio
/// under its threshold — without perturbing a single served bit.
#[test]
fn migration_bounds_imbalance_that_growth_alone_cannot_fix() {
    let graph = generators::rmat(2000, 16_000, 0.57, 0.19, 0.19, 1617);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let make = move |g: &Graph| sssp::SsspProgram {
        root: g.to_physical(root),
    };
    let cluster = ClusterConfig::new(4, 1);
    let threshold = 1.10;
    let policy = ServerConfig {
        cluster: cluster.clone(),
        engine: EngineConfig::default().with_migration_imbalance_threshold(threshold),
        ..ServerConfig::default()
    };
    let reference_config = ServerConfig {
        cluster,
        ..ServerConfig::default()
    };
    let mut server = DeltaServer::try_new(graph.clone(), make, policy).unwrap();
    let mut reference = DeltaServer::try_new(graph, make, reference_config).unwrap();
    assert!(
        reference.partitioning().imbalance() > threshold,
        "seed partitioning must start vertex-skewed (got {})",
        reference.partitioning().imbalance()
    );
    let mut n = server.graph().num_vertices() as u32;
    let mut last = (0.0, 0.0);
    for round in 0..50u64 {
        // Growth-heavy: two appended vertices per batch plus a few edits.
        let mut batch = mixed_batch(n, round + 9000, 4, 0);
        batch.insert(root, n, 2.0).insert(n, n + 1, 3.0);
        let outcome = server.try_apply(&batch).unwrap();
        let expected = reference.try_apply(&batch).unwrap();
        server.remap_now().unwrap();
        assert_eq!(
            bits(server.values()),
            bits(reference.values()),
            "round {round}: migration/remap perturbed served values"
        );
        assert!(
            expected.partition_imbalance > threshold,
            "round {round}: growth alone rebalanced the reference to {}",
            expected.partition_imbalance
        );
        n = server.graph().num_vertices() as u32;
        last = (outcome.partition_imbalance, expected.partition_imbalance);
    }
    // The reference is still skewed after 100 appended vertices...
    assert!(
        last.1 > threshold,
        "growth alone was enough to rebalance (reference at {}) — the run no longer \
         exercises migration",
        last.1
    );
    // ...while the migrated layout sits at the threshold.
    assert!(
        server.partitioning().imbalance() <= threshold,
        "migration left imbalance at {}",
        server.partitioning().imbalance()
    );
    assert!(server.graph().is_remapped());
    // The registry surfaces the same ratio as a gauge.
    let reg = server.metrics_registry();
    let gauge = reg.get("slfe_partition_imbalance").unwrap().value;
    assert!((gauge - server.partitioning().imbalance()).abs() < 1e-12);
    assert!(
        reference
            .metrics_registry()
            .get("slfe_partition_imbalance")
            .unwrap()
            .value
            > threshold
    );
}
