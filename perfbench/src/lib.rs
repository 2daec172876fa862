//! End-to-end and per-layer benchmark of the SLFE reproduction.
//!
//! Each workload runs in its own process with one client thread driving a
//! closed loop over a seeded operation sequence of fixed length (see
//! `README.md` for why each workload exists and what it measures):
//!
//! * [`cold`] — `cold-analytics`: cold engine jobs, the paper's evaluation;
//! * [`stream`] — `edge-stream`: single-edge updates through the serving
//!   frontend over an in-memory SSSP server;
//! * [`durable`] — `durable-serving`: 16-update batches into a durable,
//!   out-of-core PageRank server.
//!
//! With tracing off a run reports the end-to-end metrics of
//! [`report::END_TO_END`]; a traced run reports the per-layer metrics of
//! [`layers::Layers`] plus the tracing overhead, and writes a Chrome trace and
//! a self/total flame table.

pub mod cold;
pub mod durable;
pub mod layers;
pub mod report;
pub mod stream;
pub mod sys;
pub mod trace;

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold SSSP/CC/WP/PR/TR jobs on an R-MAT social-graph proxy.
    ColdAnalytics,
    /// Single-edge updates through `ServingFrontend`, SSSP, in memory.
    EdgeStream,
    /// 16-update batches into a durable out-of-core PageRank server.
    DurableServing,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ColdAnalytics,
        Workload::EdgeStream,
        Workload::DurableServing,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdAnalytics => "cold-analytics",
            Workload::EdgeStream => "edge-stream",
            Workload::DurableServing => "durable-serving",
        }
    }
}

/// Input size: `Full` is what the benchmark measures, `Smoke` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny graphs and a handful of ops.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Nominal length of the measured phase. It sets the op count through a
    /// fixed per-workload rate; no loop is bounded by time.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory for the run's files: durable state and traced-run exports.
    pub out_dir: PathBuf,
}

impl Options {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => trace = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let out_dir = PathBuf::from(".bench_out").join(format!(
            "{}-seed{seed}-trace{}",
            workload.name(),
            u8::from(trace)
        ));
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            out_dir,
        })
    }

    /// Ops in the measured phase: `seconds × per_second`, at least one.
    pub fn ops(&self, per_second: f64, smoke: usize) -> usize {
        match self.scale {
            Scale::Full => ((self.seconds as f64 * per_second).round() as usize).max(1),
            Scale::Smoke => smoke,
        }
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> std::io::Result<report::Report> {
    let mut report = match opts.workload {
        Workload::ColdAnalytics => cold::run(opts)?,
        Workload::EdgeStream => stream::run(opts)?,
        Workload::DurableServing => durable::run(opts)?,
    };
    report.notes.insert(
        0,
        format!(
            "workload {} seed {} trace {}: 2 nodes x {} workers, {} hardware threads",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.trace),
            sys::cluster().workers_per_node,
            sys::hardware_threads()
        ),
    );
    Ok(report)
}
