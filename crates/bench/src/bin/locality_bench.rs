//! Physical-layout locality benchmark: does the degree-descending id remap
//! actually buy cache locality in the out-of-core buffer pool, and does
//! migration bound partition imbalance growth alone cannot fix?
//!
//! ```text
//! locality_bench [--vertices N] [--degree D] [--budget BYTES] [--segment BYTES]
//!                [--growth-batches K] [--threshold R] [--out FILE]
//! ```
//!
//! Two measured sections, both asserted before `BENCH_locality.json` is
//! written:
//!
//! * **Locality** — SSSP, BFS and PageRank on a skewed R-MAT graph whose
//!   segment footprint exceeds a tight clock-pool budget, once on the
//!   identity layout and once physically reordered degree-descending
//!   (hubs packed into the hot front segments). Values are asserted
//!   **bit-identical** in external-id order per app, then the degree-ordered
//!   layout must fault strictly fewer segments in total than identity.
//!   Runs at 1 worker so the fault counters are schedule-free and
//!   machine-independent.
//! * **Migration** — a growth run on a 4-node [`DeltaServer`] whose seed
//!   partitioning is vertex-skewed: `extend_to`'s least-loaded appends alone
//!   must leave the reference above the imbalance threshold after every
//!   batch, while the migration policy (`remap_now` each batch) bounds the
//!   policy server at or under it — with every served value bit-identical
//!   to the policy-free reference throughout.

use slfe_apps::{bfs::BfsProgram, pagerank::PageRankProgram, sssp::SsspProgram};
use slfe_bench::json;
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, GraphProgram, SlfeEngine};
use slfe_delta::{DeltaServer, ServerConfig};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{generators, stats, Graph, PoolCounters, ReorderPolicy, UpdateBatch, VertexId};
use slfe_partition::{contiguous_degree_layout, Partitioning};
use std::fmt::Write as _;
use std::path::PathBuf;

struct Options {
    vertices: usize,
    degree: usize,
    budget: u64,
    segment: usize,
    growth_batches: usize,
    threshold: f64,
    out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            vertices: 3_000,
            degree: 8,
            budget: 32 << 10,
            segment: 4 << 10,
            growth_batches: 50,
            threshold: 1.10,
            out: PathBuf::from("BENCH_locality.json"),
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
            "--budget" => {
                options.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("invalid --budget: {e}"))?
            }
            "--segment" => {
                options.segment = value("--segment")?
                    .parse()
                    .map_err(|e| format!("invalid --segment: {e}"))?
            }
            "--growth-batches" => {
                options.growth_batches = value("--growth-batches")?
                    .parse()
                    .map_err(|e| format!("invalid --growth-batches: {e}"))?
            }
            "--threshold" => {
                options.threshold = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("invalid --threshold: {e}"))?
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err(
                    "usage: locality_bench [--vertices N] [--degree D] [--budget BYTES] [--segment BYTES] [--growth-batches K] [--threshold R] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(options)
}

/// One (app, layout) locality point.
struct Point {
    app: &'static str,
    layout: &'static str,
    counters: PoolCounters,
    pool_peak_resident_bytes: u64,
    iterations: u32,
}

/// Run `program` out-of-core on `graph` at 1 worker and return the pool
/// counters plus the values in **external-id** order.
fn run_oocore<P: GraphProgram<Value = f32>>(
    app: &'static str,
    layout: &'static str,
    graph: &Graph,
    options: &Options,
    program: &P,
) -> (Point, Vec<u32>) {
    let engine = SlfeEngine::build(
        graph,
        ClusterConfig::new(2, 1),
        EngineConfig::default()
            .with_trace(false)
            .with_storage_budget(options.budget)
            .with_storage_segment_bytes(options.segment),
    );
    let result = engine.run(program);
    let storage = engine.storage().expect("out-of-core engine");
    let point = Point {
        app,
        layout,
        counters: storage.pool().counters(),
        pool_peak_resident_bytes: storage.pool().peak_resident_bytes(),
        iterations: result.stats.iterations,
    };
    let external_bits = (0..result.values.len() as VertexId)
        .map(|ext| result.values[graph.to_physical(ext) as usize].to_bits())
        .collect();
    (point, external_bits)
}

/// Measure one app on the identity and degree-ordered layouts, asserting
/// external-order bit-identity between the two.
#[allow(clippy::too_many_arguments)]
fn run_pair<PA, PB>(
    app: &'static str,
    graph: &Graph,
    ordered: &Graph,
    options: &Options,
    identity_program: &PA,
    ordered_program: &PB,
    points: &mut Vec<Point>,
) where
    PA: GraphProgram<Value = f32>,
    PB: GraphProgram<Value = f32>,
{
    let (identity_point, identity_bits) =
        run_oocore(app, "identity", graph, options, identity_program);
    let (ordered_point, ordered_bits) =
        run_oocore(app, "degree_descending", ordered, options, ordered_program);
    assert_eq!(
        identity_bits, ordered_bits,
        "{app}: remapped values diverge from identity — the remap is not value-transparent"
    );
    eprintln!(
        "  {app}: identity {} faults / {} KiB vs degree-ordered {} faults / {} KiB (hit rate {:.3} -> {:.3})",
        identity_point.counters.segments_faulted,
        identity_point.counters.segment_bytes_read >> 10,
        ordered_point.counters.segments_faulted,
        ordered_point.counters.segment_bytes_read >> 10,
        identity_point.counters.hit_rate().unwrap_or(0.0),
        ordered_point.counters.hit_rate().unwrap_or(0.0),
    );
    points.push(identity_point);
    points.push(ordered_point);
}

/// Mixed random batch in external ids (no growth).
fn mixed_batch(n: u32, seed: u64, ops: usize) -> UpdateBatch {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut batch = UpdateBatch::new();
    for _ in 0..ops {
        let src = rng.range_u32(0, n);
        if rng.next_f64() < 0.75 {
            batch.insert(src, rng.range_u32(0, n), rng.range_f32(1.0, 10.0));
        } else {
            batch.delete(src, rng.range_u32(0, n));
        }
    }
    batch
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

    // ---- Section 1: buffer-pool locality, identity vs degree-descending ----
    let graph = generators::rmat(
        options.vertices,
        options.vertices * options.degree,
        0.57,
        0.19,
        0.19,
        10_2026,
    );
    let root = stats::highest_out_degree_vertex(&graph).unwrap_or(0);
    // A single global partition: the pure degree sort, no migration in play.
    let whole = Partitioning::from_owners(vec![0; graph.num_vertices()], 1);
    let step = contiguous_degree_layout(&graph, &whole, ReorderPolicy::DegreeDescending);
    assert!(!step.is_identity(), "degree sort must move something");
    let ordered = graph.remapped(&step);

    // The probe asserts the footprint actually exceeds the pool budget.
    let footprint = {
        let probe = SlfeEngine::build(
            &graph,
            ClusterConfig::new(2, 1),
            EngineConfig::default()
                .with_trace(false)
                .with_storage_budget(options.budget)
                .with_storage_segment_bytes(options.segment),
        );
        probe.storage().expect("probe engine").footprint_bytes()
    };
    assert!(
        footprint > options.budget,
        "segment footprint {footprint} B must exceed the pool budget {} B — lower --budget or raise --vertices",
        options.budget
    );
    eprintln!(
        "rmat: {} vertices, {} edges, footprint {} KiB vs budget {} KiB",
        graph.num_vertices(),
        graph.num_edges(),
        footprint >> 10,
        options.budget >> 10
    );

    let mut points: Vec<Point> = Vec::new();
    run_pair(
        "sssp",
        &graph,
        &ordered,
        &options,
        &SsspProgram { root },
        &SsspProgram {
            root: ordered.to_physical(root),
        },
        &mut points,
    );
    run_pair(
        "bfs",
        &graph,
        &ordered,
        &options,
        &BfsProgram { root },
        &BfsProgram {
            root: ordered.to_physical(root),
        },
        &mut points,
    );
    run_pair(
        "pagerank",
        &graph,
        &ordered,
        &options,
        &PageRankProgram::for_graph(&graph),
        &PageRankProgram::for_graph(&ordered),
        &mut points,
    );

    let faults_of = |layout: &str| -> u64 {
        points
            .iter()
            .filter(|p| p.layout == layout)
            .map(|p| p.counters.segments_faulted)
            .sum()
    };
    let identity_faults = faults_of("identity");
    let ordered_faults = faults_of("degree_descending");
    assert!(
        ordered_faults < identity_faults,
        "degree-descending layout must fault fewer segments than identity (got {ordered_faults} vs {identity_faults})"
    );

    // ---- Section 2: migration bounds imbalance growth alone cannot fix ----
    let seed_graph = generators::rmat(
        options.vertices,
        options.vertices * options.degree,
        0.57,
        0.19,
        0.19,
        10_2027,
    );
    let mig_root = stats::highest_out_degree_vertex(&seed_graph).unwrap_or(0);
    let make = move |g: &Graph| SsspProgram {
        root: g.to_physical(mig_root),
    };
    let cluster = ClusterConfig::new(4, 1);
    let policy_config = ServerConfig {
        cluster: cluster.clone(),
        engine: EngineConfig::default()
            .with_trace(false)
            .with_migration_imbalance_threshold(options.threshold),
        ..ServerConfig::default()
    };
    let reference_config = ServerConfig {
        cluster,
        engine: EngineConfig::default().with_trace(false),
        ..ServerConfig::default()
    };
    let mut migrated =
        DeltaServer::try_new(seed_graph.clone(), make, policy_config).expect("build server");
    let mut reference =
        DeltaServer::try_new(seed_graph, make, reference_config).expect("build server");
    let seed_imbalance = reference.partitioning().imbalance();
    assert!(
        seed_imbalance > options.threshold,
        "seed partitioning must start vertex-skewed above the threshold (got {seed_imbalance:.4} vs {}) — raise --vertices or lower --threshold",
        options.threshold
    );
    let mut n = migrated.graph().num_vertices() as u32;
    let mut reference_min_imbalance = f64::INFINITY;
    let mut migrated_max_imbalance: f64 = 0.0;
    for round in 0..options.growth_batches as u64 {
        // Growth-heavy: two appended vertices per batch plus a few edits.
        let mut batch = mixed_batch(n, round + 20_000, 4);
        batch.insert(mig_root, n, 2.0).insert(n, n + 1, 3.0);
        migrated.try_apply(&batch).expect("apply batch");
        let expected = reference.try_apply(&batch).expect("apply batch");
        migrated
            .remap_now()
            .expect("in-memory remap cannot fail on I/O");
        assert_eq!(
            migrated
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            reference
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "round {round}: migration/remap perturbed served values"
        );
        n = migrated.graph().num_vertices() as u32;
        reference_min_imbalance = reference_min_imbalance.min(expected.partition_imbalance);
        migrated_max_imbalance = migrated_max_imbalance.max(migrated.partitioning().imbalance());
    }
    let reference_final = reference.partitioning().imbalance();
    let migrated_final = migrated.partitioning().imbalance();
    assert!(
        reference_min_imbalance > options.threshold,
        "least-loaded appends alone rebalanced the reference (min {reference_min_imbalance:.4}) — the run no longer exercises migration"
    );
    assert!(
        migrated_final <= options.threshold,
        "migration left final imbalance at {migrated_final:.4} > threshold {}",
        options.threshold
    );
    eprintln!(
        "migration: seed imbalance {seed_imbalance:.4}, after {} growth batches reference {reference_final:.4} vs migrated {migrated_final:.4} (threshold {})",
        options.growth_batches, options.threshold
    );

    // ---- Emit ----
    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"git_commit\": {},\n  \"hardware_threads\": {hardware_threads},\n  \"note\": {},\n",
        json::string(&slfe_bench::git_commit()),
        json::string("locality points run at 1 worker so pool counters are schedule-free and machine-independent; external-id values are asserted bit-identical across layouts, total degree-ordered faults < identity faults, the migration reference stays above the threshold every batch while the migrated server ends at or under it, and every migrated value is bit-identical to the reference, before this file is written")
    );
    let _ = writeln!(
        out,
        "  \"graph\": {{\"vertices\": {}, \"edges\": {}}},",
        graph.num_vertices(),
        graph.num_edges()
    );
    let _ = writeln!(
        out,
        "  \"storage\": {{\"pool_budget_bytes\": {}, \"segment_bytes\": {}, \"segment_footprint_bytes\": {footprint}}},",
        options.budget, options.segment
    );
    out.push_str("  \"locality\": [");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"app\": {}, \"layout\": {}, \"segments_faulted\": {}, \"segment_bytes_read\": {}, \"segment_hits\": {}, \"hit_rate\": {}, \"pool_peak_resident_bytes\": {}, \"iterations\": {}, \"values_bit_identical\": true}}",
            json::string(p.app),
            json::string(p.layout),
            p.counters.segments_faulted,
            p.counters.segment_bytes_read,
            p.counters.segment_hits,
            json::float_fixed(p.counters.hit_rate().unwrap_or(0.0), 4),
            p.pool_peak_resident_bytes,
            p.iterations
        );
    }
    out.push_str("\n  ],\n");
    let _ = writeln!(
        out,
        "  \"locality_totals\": {{\"identity_segments_faulted\": {identity_faults}, \"degree_ordered_segments_faulted\": {ordered_faults}, \"fault_reduction\": {}}},",
        json::float_fixed(1.0 - ordered_faults as f64 / identity_faults as f64, 4)
    );
    let _ = writeln!(
        out,
        "  \"migration\": {{\"nodes\": 4, \"threshold\": {}, \"growth_batches\": {}, \"seed_imbalance\": {}, \"reference_min_imbalance\": {}, \"reference_final_imbalance\": {}, \"migrated_max_imbalance\": {}, \"migrated_final_imbalance\": {}, \"values_bit_identical\": true}}",
        json::float_fixed(options.threshold, 4),
        options.growth_batches,
        json::float_fixed(seed_imbalance, 4),
        json::float_fixed(reference_min_imbalance, 4),
        json::float_fixed(reference_final, 4),
        json::float_fixed(migrated_max_imbalance, 4),
        json::float_fixed(migrated_final, 4)
    );
    out.push_str("}\n");

    if let Err(e) = std::fs::write(&options.out, &out) {
        eprintln!("cannot write {}: {e}", options.out.display());
        std::process::exit(1);
    }
    println!("{out}");
    eprintln!("wrote {}", options.out.display());
}
