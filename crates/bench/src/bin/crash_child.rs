//! Crash-injection child process for the kill-9 recovery proof.
//!
//! Runs a durable [`DeltaServer`] for one registered application, applying a
//! deterministic seeded batch sequence, printing `applied N` (flushed) after
//! every batch so the parent test can SIGKILL it at a randomized point. On
//! restart with the same `--dir` it recovers via snapshot + WAL replay and
//! continues from the first unapplied batch — the batch sequence is a pure
//! function of the (bit-exactly recovered) graph state and the seed, so a
//! killed-and-resumed run must produce values bit-identical to an
//! uninterrupted one. On completion it writes the served values' exact bit
//! patterns to `--values-out` for the parent to compare.
//!
//! ```text
//! crash_child --dir D --app NAME --workers W [--batches B] [--snapshot-every S] [--seed SEED] [--values-out FILE]
//! ```
//!
//! `NAME` is one of: sssp, bfs, cc, wp, pr, tr, spmv, heat, numpaths.

use slfe_apps::{bfs, cc, heat, numpaths, pagerank, spmv, sssp, tunkrank, widestpath};
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, GraphProgram, RedundancyMode};
use slfe_delta::durability::SnapshotValue;
use slfe_delta::{DeltaServer, DurabilityConfig, ServerConfig};
use slfe_graph::generators::{self, random_batch, BatchShape};
use slfe_graph::Graph;
use std::io::Write as _;
use std::path::PathBuf;

struct Options {
    dir: PathBuf,
    app: String,
    workers: usize,
    batches: u64,
    snapshot_every: u64,
    seed: u64,
    values_out: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut dir = None;
    let mut app = None;
    let mut options = Options {
        dir: PathBuf::new(),
        app: String::new(),
        workers: 1,
        batches: 6,
        snapshot_every: 2,
        seed: 0,
        values_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
            "--app" => app = Some(value("--app")?),
            "--workers" => {
                options.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("invalid --workers: {e}"))?
            }
            "--batches" => {
                options.batches = value("--batches")?
                    .parse()
                    .map_err(|e| format!("invalid --batches: {e}"))?
            }
            "--snapshot-every" => {
                options.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("invalid --snapshot-every: {e}"))?
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?
            }
            "--values-out" => options.values_out = Some(PathBuf::from(value("--values-out")?)),
            "--help" | "-h" => {
                return Err(
                    "usage: crash_child --dir D --app NAME --workers W [--batches B] [--snapshot-every S] [--seed SEED] [--values-out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    options.dir = dir.ok_or("--dir is required")?;
    options.app = app.ok_or("--app is required")?;
    Ok(options)
}

/// Draws per batch. Batch `i` is a pure function of the current graph and
/// the seed, so an uninterrupted run and a crash-resumed run (whose graph is
/// recovered bit-exactly) draw identical sequences.
const BATCH_OPS: usize = 12;

/// The arithmetic apps need the ruler-free exact-fixpoint configuration
/// (mirroring the incremental acceptance tests).
fn exact_config() -> EngineConfig {
    EngineConfig::default()
        .with_redundancy(RedundancyMode::Disabled)
        .with_max_iterations(400)
}

/// Open-or-create the durable server, apply every not-yet-applied batch
/// (announcing each on stdout for the killer), then dump the value bits.
fn serve<P, F>(
    options: &Options,
    make_graph: impl Fn() -> Graph,
    make_program: F,
    engine: EngineConfig,
    kind: BatchShape,
) where
    P: GraphProgram,
    P::Value: SnapshotValue,
    F: Fn(&Graph) -> P,
{
    let config = ServerConfig {
        cluster: ClusterConfig::new(2, options.workers),
        engine: engine.with_trace(false),
        ..ServerConfig::default()
    };
    let durability =
        DurabilityConfig::new(&options.dir).with_snapshot_every(options.snapshot_every);
    let mut server = DeltaServer::open_or_create(&make_graph, make_program, config, durability)
        .expect("failed to open or create the durable server");
    let applied = server.stats().batches_applied;
    eprintln!("starting at batch {applied}/{}", options.batches);
    for i in applied..options.batches {
        let batch = random_batch(
            server.graph(),
            options.seed.wrapping_add(i),
            BATCH_OPS,
            kind,
        );
        server.try_apply(&batch).expect("apply batch");
        println!("applied {}", i + 1);
        std::io::stdout().flush().expect("flush stdout");
    }
    if let Some(out) = &options.values_out {
        let mut bytes = Vec::new();
        for &v in server.values() {
            v.write(&mut bytes);
        }
        std::fs::write(out, &bytes).expect("failed to write the values file");
    }
}

fn main() {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let seed = options.seed;
    let rmat = move || generators::rmat(260, 1700, 0.57, 0.19, 0.19, seed + 900);
    let sym = move || cc::symmetrize(&generators::rmat(200, 900, 0.57, 0.19, 0.19, seed + 950));
    let dag = move || generators::layered(8, 30, 4, seed + 77);
    let root = slfe_graph::stats::highest_out_degree_vertex(&rmat()).unwrap_or(0);
    let grow = BatchShape::Mixed { allow_growth: true };
    let fixed = BatchShape::Mixed {
        allow_growth: false,
    };

    match options.app.as_str() {
        "sssp" => serve(
            &options,
            rmat,
            move |_: &Graph| sssp::SsspProgram { root },
            EngineConfig::default(),
            grow,
        ),
        "bfs" => serve(
            &options,
            rmat,
            move |_: &Graph| bfs::BfsProgram { root },
            EngineConfig::default(),
            grow,
        ),
        "wp" => serve(
            &options,
            rmat,
            move |_: &Graph| widestpath::WidestPathProgram { root },
            EngineConfig::default(),
            grow,
        ),
        "cc" => serve(
            &options,
            sym,
            cc::CcProgram::for_graph,
            EngineConfig::default(),
            BatchShape::Symmetric,
        ),
        "pr" => serve(
            &options,
            rmat,
            pagerank::PageRankProgram::for_graph,
            exact_config(),
            grow,
        ),
        "tr" => serve(
            &options,
            rmat,
            |_: &Graph| tunkrank::TunkRankProgram::default(),
            exact_config(),
            fixed,
        ),
        "spmv" => serve(
            &options,
            rmat,
            |g: &Graph| spmv::SpmvProgram::ones(g.num_vertices()),
            exact_config(),
            grow,
        ),
        "heat" => serve(
            &options,
            rmat,
            move |g: &Graph| heat::HeatProgram::point_source(g, root),
            exact_config()
                .with_tolerance(1e-6)
                .with_max_iterations(3000),
            fixed,
        ),
        "numpaths" => serve(
            &options,
            dag,
            |_: &Graph| numpaths::NumPathsProgram { root: 0 },
            exact_config(),
            BatchShape::Dag,
        ),
        other => {
            eprintln!("unknown app {other}");
            std::process::exit(2);
        }
    }
}
