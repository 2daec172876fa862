//! The [`DeltaServer`] serving loop: apply an edge-update batch, warm
//! re-converge the program, answer queries.

use crate::durability::{
    self, DurabilityConfig, DurabilityError, DurabilityState, SnapshotState, SnapshotValue, Wal,
};
use crate::health::{ApplyError, Health};
use crate::values::ServedValues;
use slfe_cluster::{Cluster, ClusterConfig, GlobalChunkLayout, LayoutPatchStats, WorkerPool};
use slfe_core::{
    EngineConfig, GraphProgram, PreviousVersion, ProgramResult, RrGuidance, SlfeEngine, WarmResult,
};
use slfe_graph::{
    BatchEffect, FaultAction, FaultInjector, FaultPlan, FaultSite, Graph, GraphStorage,
    ReorderPolicy, UpdateBatch, VertexId,
};
use slfe_metrics::{
    DurabilityCounters, ExecutionStats, FaultCounters, MetricsRegistry, SpanEvent, Telemetry,
    TelemetrySnapshot, HIST_BATCH_APPLY, HIST_WAL_FSYNC,
};
use slfe_partition::{contiguous_degree_layout, Partitioning};
use std::io;
use std::sync::{Arc, OnceLock};

/// Bytes of one shipped edge update: two 4-byte vertex ids plus a 4-byte weight.
const UPDATE_RECORD_BYTES: u64 = 12;

/// Node where update batches arrive before being forwarded to partition
/// owners (the simulated client connection point).
const INGEST_NODE: usize = 0;

/// Most vertices one batch may append to the id space. Admission refuses an
/// endpoint further out ([`ApplyError::VertexOutOfRange`]), and the serving
/// front end sheds it at submit.
const MAX_VERTEX_GROWTH: u64 = 1 << 20;

/// Batches a failed segment-file compaction waits before the next attempt,
/// so one that keeps failing costs about what it did when it rode the
/// default checkpoint cadence instead of a full rewrite per batch.
const COMPACTION_RETRY_BATCHES: u64 = 8;

/// `true` when endpoint `vertex` would append more than
/// [`MAX_VERTEX_GROWTH`] vertices to a graph of `num_vertices`.
pub(crate) fn exceeds_vertex_growth(vertex: VertexId, num_vertices: usize) -> bool {
    u64::from(vertex) >= num_vertices as u64 + MAX_VERTEX_GROWTH
}

/// Admission's range check of `batch` against a graph of `num_vertices`:
/// [`ApplyError::VertexOutOfRange`] naming the batch's largest endpoint when
/// that one would append more than [`MAX_VERTEX_GROWTH`] vertices. The live
/// path and recovery's refold share it, so a logged batch fails the same way
/// at `open` as it would have live.
fn check_growth(batch: &UpdateBatch, num_vertices: usize) -> Result<(), ApplyError> {
    match batch.pairs().map(|(src, dst, _)| src.max(dst)).max() {
        Some(vertex) if exceeds_vertex_growth(vertex, num_vertices) => {
            Err(ApplyError::VertexOutOfRange {
                vertex,
                num_vertices,
            })
        }
        _ => Ok(()),
    }
}

/// The apply pipeline's one clock. Each stage ends with a [`StageClock::lap`],
/// which is both the stage's [`BatchOutcome::stages`] entry and, with
/// telemetry on, a `server` span of the same extent. Laps are contiguous, so
/// they sum to the batch's wall time, and [`StageClock::finish`] is the one
/// place the `batch` span, the wall and fsync seconds and their histograms
/// are recorded.
struct StageClock {
    telemetry: Arc<Telemetry>,
    start_ns: u64,
    lap_ns: u64,
    stages: Vec<(&'static str, f64)>,
    /// The WAL append's fsync latency, when this batch was logged.
    fsync_ns: Option<u64>,
}

impl StageClock {
    fn start(telemetry: &Arc<Telemetry>) -> Self {
        let now = telemetry.clock().now_ns();
        Self {
            telemetry: Arc::clone(telemetry),
            start_ns: now,
            lap_ns: now,
            stages: Vec::with_capacity(8),
            fsync_ns: None,
        }
    }

    /// Close `stage`, which ran since the previous lap.
    fn lap(&mut self, stage: &'static str) {
        let now = self.telemetry.clock().now_ns();
        // The guidance stage's span keeps the name `guidance_repair`, which
        // trace readers (perfbench among them) look up.
        let span = match stage {
            "guidance" => "guidance_repair",
            stage => stage,
        };
        self.span(span, self.lap_ns, now - self.lap_ns);
        self.stages.push((stage, (now - self.lap_ns) as f64 * 1e-9));
        self.lap_ns = now;
    }

    fn span(&self, name: &'static str, start_ns: u64, dur_ns: u64) {
        self.telemetry.push_span(SpanEvent {
            name,
            cat: "server",
            track: 0,
            start_ns,
            dur_ns,
        });
    }

    /// The batch's one exit: close its `batch` span at the last lap, record
    /// the histograms, and stamp the timing fields of an applied outcome.
    fn finish(self, applied: Result<BatchOutcome, ApplyError>) -> Result<BatchOutcome, ApplyError> {
        let wall_ns = self.lap_ns - self.start_ns;
        self.span("batch", self.start_ns, wall_ns);
        if let Some(ns) = self.fsync_ns {
            self.telemetry.record_ns(HIST_WAL_FSYNC, ns);
        }
        let mut outcome = applied?;
        self.telemetry.record_ns(HIST_BATCH_APPLY, wall_ns);
        outcome.wall_seconds = wall_ns as f64 * 1e-9;
        outcome.wal_fsync_seconds = self.fsync_ns.map_or(0.0, |ns| ns as f64 * 1e-9);
        outcome.stages = self.stages;
        Ok(outcome)
    }
}

/// What re-converging a program on a new version yields: the program and a
/// cold run's result (a warm restart's is already in the served result).
type Converged<P> = (P, Option<ProgramResult<<P as GraphProgram>::Value>>);

/// Fold `batch`, logged in external ids, into `graph`: translate its
/// endpoints into the current physical layout (appended vertices sit beyond
/// the remap and map to themselves), then [`Graph::apply_batch`]. The live
/// apply path and the recovery refold both go through here, one batch at a
/// time, so they build the same graph bit for bit.
fn fold(graph: &Graph, batch: &UpdateBatch) -> (Graph, BatchEffect) {
    if graph.is_remapped() {
        graph.apply_batch(&batch.mapped(|v| graph.to_physical(v)))
    } else {
        graph.apply_batch(batch)
    }
}

/// The fault injector `config` asks for: armed with its plan, or disarmed.
fn injector_for(config: &ServerConfig) -> Arc<FaultInjector> {
    match &config.fault_plan {
        Some(plan) => FaultInjector::armed(plan.clone()),
        None => FaultInjector::disabled(),
    }
}

/// Write `graph`'s out-of-core segment store when `engine` configures one,
/// with `graph` itself attached as the quarantine-rebuild source. `None` when
/// the engine runs in-memory.
fn build_storage(
    graph: &Arc<Graph>,
    engine: &EngineConfig,
    faults: &Arc<FaultInjector>,
) -> io::Result<Option<Arc<GraphStorage>>> {
    let Some(sc) = engine.storage_config() else {
        return Ok(None);
    };
    let mut storage = GraphStorage::build_with_faults(graph, &sc, Some(Arc::clone(faults)))?;
    storage.set_recovery(graph);
    Ok(Some(Arc::new(storage)))
}

/// Serving-loop configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulated cluster topology the server partitions each graph version over.
    pub cluster: ClusterConfig,
    /// Engine configuration used for the initial cold run and every restart.
    pub engine: EngineConfig,
    /// When a batch dirties more than this fraction of all vertices the server
    /// runs the program from scratch instead of warm-starting: past this point
    /// the invalidation pass would walk most of the graph anyway.
    pub full_recompute_dirty_fraction: f64,
    /// Deterministic fault schedule armed from construction (so faults can
    /// fire during the open/recovery disk reads too). `None` — the default —
    /// leaves the injector disarmed: one relaxed atomic load per I/O call,
    /// behavior bit-identical to a build without the fault layer (pinned by
    /// `tests/faults.rs`).
    pub fault_plan: Option<FaultPlan>,
    /// Physical layout policy of the id-remap pass ([`DeltaServer::remap_now`]).
    /// The engine never remaps — it runs on whatever layout its graph has,
    /// and remapped runs are value-transparent (bit-identical served values)
    /// by construction. [`ReorderPolicy::None`] (the default) leaves the
    /// layout alone.
    pub reorder: ReorderPolicy,
    /// Partition-migration trigger of the id-remap pass: when the
    /// vertex-count imbalance (max/mean over nodes) exceeds this threshold,
    /// the pass first migrates vertices from the most- to the least-loaded
    /// node. `None` (the default) never migrates.
    pub migration_imbalance_threshold: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig::new(2, 2),
            engine: EngineConfig::default(),
            full_recompute_dirty_fraction: 0.5,
            fault_plan: None,
            reorder: ReorderPolicy::None,
            migration_imbalance_threshold: None,
        }
    }
}

impl ServerConfig {
    /// Builder-style override of the physical reorder policy.
    pub fn with_reorder(mut self, policy: ReorderPolicy) -> Self {
        self.reorder = policy;
        self
    }

    /// Builder-style override of the migration trigger (max/mean
    /// vertex-count imbalance; must be `>= 1.0`).
    pub fn with_migration_imbalance_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold >= 1.0, "imbalance threshold is a max/mean ratio");
        self.migration_imbalance_threshold = Some(threshold);
        self
    }
}

/// What one applied batch cost and changed.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// What the batch changed in the graph.
    pub effect: BatchEffect,
    /// Counted work of the re-convergence, including the warm-start
    /// invalidation pass. Compare against a from-scratch run's work to see what
    /// serving incrementally saved.
    pub work: u64,
    /// Iterations the re-convergence ran.
    pub iterations: u32,
    /// Whether the re-convergence reached a fixpoint (it always should, unless
    /// the engine's iteration cap is tighter than the disturbance).
    pub converged: bool,
    /// `true` when the server fell back to a from-scratch run (dirty fraction
    /// above [`ServerConfig::full_recompute_dirty_fraction`]).
    pub full_recompute: bool,
    /// Simulated messages spent shipping the batch's dirty updates from the
    /// ingest node (node 0) to their partition owners.
    pub distribution_messages: u64,
    /// What patching the chunk layout to this graph version cost: only the
    /// chunks around the dirty endpoints (plus each receiving node's last
    /// chunk when vertices were appended) are re-cut, and on a node whose
    /// split budget moved (`budget_moves`) also the chunks whose cut the new
    /// budget moves; every other chunk is carried over from the previous
    /// version ([`GlobalChunkLayout::patched_at`]).
    pub layout_patch: LayoutPatchStats,
    /// Out-of-core serving only: how many disk segments this batch rewrote
    /// across both adjacency directions ([`GraphStorage::patched`] — the
    /// segment analogue of the adjacency range patch). 0 when the server runs
    /// in-memory.
    pub segments_rewritten: u64,
    /// Out-of-core serving only: bytes of the backing segment files the
    /// current graph version actually references. 0 when in-memory.
    pub storage_live_bytes: u64,
    /// Out-of-core serving only: bytes of superseded segment versions still
    /// occupying the backing files once the batch is done. A batch that
    /// leaves them above the live bytes compacts the files in its `compact`
    /// stage, so this stays at or below `storage_live_bytes` unless a
    /// compaction failed (the next attempt waits a few batches). 0 when
    /// in-memory.
    pub storage_dead_bytes: u64,
    /// Vertex-count imbalance (max node load / mean node load) of the stable
    /// partitioning after this batch's appended vertices joined it. `0.0`
    /// only for an empty partitioning; `1.0` is perfectly balanced. Sustained
    /// growth keeps this bounded (appends join the least-loaded node), and
    /// when [`ServerConfig::migration_imbalance_threshold`] is set the remap
    /// at each checkpoint migrates vertices whenever it overshoots.
    pub partition_imbalance: f64,
    /// Wall-clock seconds of the whole [`DeltaServer::try_apply`] call past
    /// admission: the sum of [`BatchOutcome::stages`].
    pub wall_seconds: f64,
    /// Wall-clock seconds the WAL fsync for this batch took (0.0 on a
    /// non-durable server).
    pub wal_fsync_seconds: f64,
    /// `true` when the batch itself succeeded but a post-apply step failed
    /// and was absorbed. A failed checkpoint or base write leaves the server
    /// read-write with the recovery point going stale until a later one
    /// lands (details on [`crate::Health`]); a failed compaction marks the
    /// server degraded too and leaves the dead bytes in place for a retry a
    /// few batches later.
    pub degraded: bool,
    /// Where `wall_seconds` went: one `(stage, seconds)` entry per stage the
    /// batch ran, in pipeline order — `wal_append` (durable servers),
    /// `graph_patch` (id translation and [`Graph::apply_batch`]),
    /// `segment_patch` (out-of-core servers), `layout_patch` (the engine's
    /// advance to the new version: the degree patch, the partitioning's
    /// growth and the layout patch), `guidance` (regenerated for a full
    /// recompute; a warm batch leaves it stale), `warm_restart` or `cold_run`,
    /// `publish` (outcome, stats, install, served-values patch), `compact`
    /// (out-of-core servers, when more than half of the segment-file bytes
    /// are dead) and `snapshot` (durable servers, when the cadence is due: a
    /// checkpoint, plus a new base when that is due too); a no-op batch skips
    /// from `graph_patch` to `publish`. Contiguous laps of one clock, so they
    /// sum to `wall_seconds`. With telemetry on, each is also a `server` span
    /// inside the batch's `batch` span (the guidance one `guidance_repair`),
    /// and the `snapshot` span holds a `checkpoint` and/or a `base` span.
    pub stages: Vec<(&'static str, f64)>,
}

/// Cumulative serving statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Batches applied since the server was built.
    pub batches_applied: u64,
    /// Total counted re-convergence work across all batches.
    pub total_work: u64,
    /// Total simulated batch-distribution messages.
    pub total_distribution_messages: u64,
    /// How many batches fell back to a full recompute.
    pub full_recomputes: u64,
}

/// An always-on serving instance of one graph program.
///
/// The server owns one [`SlfeEngine`] for its whole life — the current graph
/// version with its partitioning, degrees, chunk layout, guidance and
/// segment store, plus the worker pool and the telemetry hub — and advances
/// it in place at every batch. Next to it, it holds the program's current
/// fixpoint. Because several programs capture graph-dependent state
/// (`PageRank` holds `|V|`, `Heat` precomputes out-degree shares), the server
/// is built from a *program factory* that re-instantiates the program for
/// each graph version.
///
/// **External ids at the API boundary.** Queries ([`DeltaServer::value`],
/// [`DeltaServer::values`], [`DeltaServer::top_k_by`]), update batches,
/// [`BatchOutcome::effect`], WAL frames and snapshots all speak the stable
/// *external* vertex ids clients know. Internally the server may serve from a
/// physically reordered layout ([`ServerConfig::reorder`] /
/// [`ServerConfig::migration_imbalance_threshold`], applied at each
/// checkpoint or via [`DeltaServer::remap_now`]); the cumulative
/// [`slfe_graph::IdRemap`] on the graph translates at the boundary, and a
/// remapped run is value-transparent — bit-identical served values. One
/// consequence for the program factory: it receives the current
/// (physical-layout) graph, so a factory that captures vertex ids (an SSSP
/// root, a heat source) must translate them with [`Graph::to_physical`].
///
/// ```
/// use slfe_delta::{DeltaServer, ServerConfig};
/// use slfe_graph::{generators, UpdateBatch};
/// # use slfe_core::{AggregationKind, GraphProgram};
/// # use slfe_graph::{Degrees, EdgeWeight, VertexId};
/// # #[derive(Clone, Copy)] struct Sssp { root: VertexId }
/// # impl GraphProgram for Sssp {
/// #     type Value = f32;
/// #     fn aggregation(&self) -> AggregationKind { AggregationKind::MinMax }
/// #     fn name(&self) -> &'static str { "sssp" }
/// #     fn initial_value(&self, v: VertexId, _d: &Degrees) -> f32 {
/// #         if v == self.root { 0.0 } else { f32::INFINITY }
/// #     }
/// #     fn initial_active(&self, v: VertexId, _d: &Degrees) -> bool { v == self.root }
/// #     fn identity(&self) -> f32 { f32::INFINITY }
/// #     fn edge_contribution(&self, _s: VertexId, v: f32, w: EdgeWeight) -> Option<f32> {
/// #         v.is_finite().then_some(v + w)
/// #     }
/// #     fn combine(&self, a: f32, b: f32) -> f32 { a.min(b) }
/// #     fn apply(&self, _d: VertexId, old: f32, g: f32) -> f32 { old.min(g) }
/// # }
/// let graph = generators::rmat(500, 4000, 0.57, 0.19, 0.19, 7);
/// let mut server = DeltaServer::try_new(graph, |_g| Sssp { root: 0 }, ServerConfig::default())?;
/// let mut batch = UpdateBatch::new();
/// batch.insert(0, 499, 1.5);
/// let outcome = server.try_apply(&batch)?;
/// assert!(outcome.converged);
/// assert!(server.value(499).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DeltaServer<P, F>
where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    make_program: F,
    program: P,
    config: ServerConfig,
    /// The engine over the current graph version, built once at
    /// [`DeltaServer::try_new`] or [`DeltaServer::open`]. A batch advances
    /// it ([`SlfeEngine::advance`]: degrees and layout patched at the dirty
    /// endpoints, the stable partitioning grown, the new graph and segment
    /// store installed), a remap rebuilds it around the renamed graph, and
    /// compaction and a poisoned re-drive swap its store. Its pool and
    /// telemetry hub serve every version, so applying a batch spawns no
    /// thread and the hub's spans and histograms accumulate over the
    /// serving lifetime. Its guidance is regenerated only where the rulers
    /// are read: a full-recompute batch and the first
    /// [`DeltaServer::guidance`] read after a warm batch or a remap.
    ///
    /// The partitioning is kept stable across graph versions (the id space
    /// only grows; appended vertices join the least-loaded node, so
    /// sustained growth cannot skew one node's load), which is what lets the
    /// layout be patched instead of re-derived per batch. The engine's graph
    /// is also the quarantine source its segment store rebuilds unreadable
    /// segments from.
    engine: SlfeEngine,
    /// The program's current fixpoint in physical order, with the run state
    /// its warm restarts keep across graph versions, so that a restart
    /// neither copies the values nor allocates or sweeps |V|. A warm batch's
    /// restart rewrites it in place ([`SlfeEngine::restart`]). A cold run's
    /// result, restored values and a remap's permuted values replace it and
    /// drop the kept state, which the next restart rebuilds once, in O(V).
    result: WarmResult<P::Value>,
    /// While a batch's warm restart may be rewriting `result` in place: the
    /// run record of the version still serving, set aside before the
    /// restart ([`WarmResult::take_record`]). The rollback point of
    /// [`DeltaServer::try_apply`] puts it back, with the values of `served`,
    /// when the batch fails; publishing the batch clears it.
    committed: Option<ProgramResult<P::Value>>,
    /// While a batch has advanced the engine past the version still
    /// serving: that version, which the rollback point of
    /// [`DeltaServer::try_apply`] puts back when the batch fails
    /// ([`SlfeEngine::restore`]); publishing the batch clears it.
    previous: Option<PreviousVersion>,
    /// `result.values` in external-id order, as shared blocks: the directory
    /// every published version clones and every `top_k` ranks, and the
    /// committed copy of the values — a restart never writes it, so a
    /// failed batch restores the result from it. Rebuilt at
    /// [`DeltaServer::try_new`], [`DeltaServer::open`] and a cold run;
    /// a warm batch patches it at the ids its restart changed
    /// ([`ProgramResult::changed`]). A remap leaves it alone: external order
    /// and values do not move.
    served: ServedValues<P::Value>,
    /// A flat copy of `served` for [`DeltaServer::values`] on a remapped
    /// graph, made on first call and dropped whenever `served` changes.
    external_view: OnceLock<Vec<P::Value>>,
    stats: ServerStats,
    /// WAL, base and checkpoint state when this server was built through
    /// [`DeltaServer::create_durable`] / [`DeltaServer::open`].
    durability: Option<DurabilityState>,
    /// The fault injector every disk touchpoint of this server consults —
    /// disarmed (one relaxed atomic load per call) unless
    /// [`ServerConfig::fault_plan`] armed it or a test arms it directly.
    faults: Arc<FaultInjector>,
    /// Degradation state: read-only mode, state-write and compaction
    /// failures, and recovery-action counts.
    health: Health,
    /// The `compact` stage's bookkeeping, kept on every out-of-core server,
    /// durable or not.
    compaction: Compaction,
}

/// What the `compact` stage has done on one server. A durable server also
/// counts its compactions in its [`DurabilityCounters`].
#[derive(Debug, Default)]
struct Compaction {
    /// Compactions that succeeded.
    runs: u64,
    /// Dead backing-file bytes they reclaimed.
    bytes_reclaimed: u64,
    /// [`ServerStats::batches_applied`] from which the stage may run again:
    /// [`COMPACTION_RETRY_BATCHES`] past a failed attempt.
    retry_at: u64,
}

impl<P, F> DeltaServer<P, F>
where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    /// Build the server: partition `graph`, build the engine (guidance
    /// included), run the program cold once. Every subsequent
    /// [`DeltaServer::try_apply`] is warm. Fails when the out-of-core
    /// segment files cannot be written.
    pub fn try_new(graph: Graph, make_program: F, config: ServerConfig) -> io::Result<Self> {
        let faults = injector_for(&config);
        let cluster = Cluster::build(&graph, config.cluster.clone());
        let mut server = Self::assemble(make_program, config, faults, Arc::new(graph), cluster)?;
        let telemetry = server.engine.telemetry();
        let cold_span = telemetry.begin();
        let result = server.engine.run(&server.program);
        telemetry.end(cold_span, "cold_run", "server", 0);
        server.result = WarmResult::new(result);
        server.install_values();
        Ok(server)
    }

    /// Assemble a server around `graph` partitioned by `cluster`: write the
    /// out-of-core segment store once here, with `graph` attached as the
    /// source unreadable segments are quarantined and rebuilt from (every
    /// batch then patches only the dirty segments), and build the engine
    /// over both. The served result is empty until the caller runs the
    /// program or restores it.
    fn assemble(
        make_program: F,
        config: ServerConfig,
        faults: Arc<FaultInjector>,
        graph: Arc<Graph>,
        cluster: Cluster,
    ) -> io::Result<Self> {
        let program = make_program(&graph);
        let storage = build_storage(&graph, &config.engine, &faults)?;
        let engine = SlfeEngine::new(graph, cluster, config.engine.clone(), storage);
        let result = WarmResult::new(ProgramResult {
            values: Vec::new(),
            stats: ExecutionStats::new("slfe", program.name()),
            last_changed_iter: Vec::new(),
            per_node_worker_work: vec![
                vec![0; config.cluster.workers_per_node];
                config.cluster.num_nodes
            ],
            converged: true,
            exact_fixpoint: false,
            changed: None,
        });
        Ok(Self {
            make_program,
            program,
            config,
            engine,
            result,
            committed: None,
            previous: None,
            served: ServedValues::default(),
            external_view: OnceLock::new(),
            stats: ServerStats::default(),
            durability: None,
            faults,
            health: Health::new(),
            compaction: Compaction::default(),
        })
    }

    /// Bring the served directory up to `result`: patch it at the ids of
    /// [`ProgramResult::changed`] (taken out of the result, so nothing later
    /// sees a stale list), or rebuild it when the result has no such list
    /// (a cold run, or values restored at start-up or recovery). The graph
    /// may carry a remap from the first version on, so ids are translated.
    fn install_values(&mut self) {
        self.external_view.take();
        let changed = self.result.take_changed();
        let graph = self.engine.graph();
        let values = &self.result.result().values;
        let value = |ext: VertexId| values[graph.to_physical(ext) as usize];
        match changed {
            Some(mut changed) => {
                if graph.is_remapped() {
                    changed.iter_mut().for_each(|v| *v = graph.external_id(*v));
                }
                self.served.patch(values.len(), &changed, value);
            }
            None => self.served = ServedValues::from_fn(values.len(), value),
        }
    }

    /// Translate a physically-indexed [`BatchEffect`] to external ids (the
    /// form [`BatchOutcome::effect`] reports). Sorted-ascending invariants
    /// are restored after translation; a no-remap graph passes through
    /// untouched.
    fn external_effect(graph: &Graph, mut effect: BatchEffect) -> BatchEffect {
        if graph.is_remapped() {
            for ids in [&mut effect.dirty, &mut effect.worsened_dsts] {
                ids.iter_mut().for_each(|v| *v = graph.external_id(*v));
                ids.sort_unstable();
            }
        }
        effect
    }

    /// Rebuild the out-of-core segment store for `graph` from scratch (the
    /// in-memory adjacency is authoritative) and re-attach it as its own
    /// recovery source. Returns the store and its total segment count.
    fn rebuild_storage(&mut self, graph: &Arc<Graph>) -> io::Result<(Arc<GraphStorage>, u64)> {
        let storage =
            build_storage(graph, &self.config.engine, &self.faults)?.ok_or_else(|| {
                io::Error::other("storage rebuild requires an out-of-core configuration")
            })?;
        let rewritten =
            (storage.out_store().num_segments() + storage.in_store().num_segments()) as u64;
        self.health.note_storage_rebuild();
        Ok((storage, rewritten))
    }

    /// Admission: the read-only checks that run before the stage sequence
    /// and record nothing.
    fn admit(&self, batch: &UpdateBatch) -> Result<(), ApplyError> {
        if let Some(reason) = self.health.read_only_reason() {
            return Err(ApplyError::ReadOnly {
                reason: reason.to_string(),
            });
        }
        check_growth(batch, self.engine.graph().num_vertices())
    }

    /// Instantiate the program for the engine's new version and re-converge
    /// it — a warm restart of the served result in place, or a cold run,
    /// plus batch-distribution accounting — recording what it cost in
    /// `outcome`. A warm restart first sets the served result's run record
    /// aside in `committed`. A poisoned run (segment reads failed beyond
    /// retries and quarantine, so values may rest on placeholder lists) is
    /// discarded and re-driven once on a store rebuilt from the in-memory
    /// graph; a discarded restart has written the served result, so the
    /// committed version goes back in before the re-drive
    /// ([`DeltaServer::restore_committed`]; the engine's new graph carries
    /// the previous one's remap, which a batch never changes). A second
    /// poisoning fails the batch, and the rollback point of
    /// [`DeltaServer::try_apply`] restores the committed version again.
    /// Returns the program and a cold run's result.
    fn converge(
        &mut self,
        effect: &BatchEffect,
        outcome: &mut BatchOutcome,
    ) -> Result<Converged<P>, ApplyError> {
        let program = (self.make_program)(self.engine.graph());
        let full_recompute = outcome.full_recompute;
        if !full_recompute {
            self.committed = Some(self.result.take_record());
        }
        let run = |server: &mut Self| {
            let engine = &server.engine;
            let cold = if full_recompute {
                Some(engine.run(&program))
            } else {
                engine.restart(&program, &mut server.result, effect);
                None
            };
            let messages = engine.cluster().record_batch_distribution(
                INGEST_NODE,
                effect.dirty.iter().copied(),
                UPDATE_RECORD_BYTES,
            );
            (cold, messages)
        };
        let (mut cold, messages) = run(self);
        outcome.distribution_messages = messages;
        let poison_note = self.engine.storage().and_then(|s| {
            s.take_poisoned().then(|| {
                s.poison_note()
                    .unwrap_or_else(|| "unreadable segments".to_string())
            })
        });
        if let Some(note) = poison_note {
            self.faults.note_poisoned_run();
            if let Some(record) = self.committed.clone() {
                self.restore_committed(record);
            }
            let poisoned = |e: io::Error| ApplyError::ExecutionPoisoned {
                note: format!("{note}; {e}"),
            };
            let graph = Arc::clone(self.engine.graph());
            let (rebuilt, rewritten) = self.rebuild_storage(&graph).map_err(poisoned)?;
            self.engine.set_storage(Some(Arc::clone(&rebuilt)));
            let (rerun, _) = run(self);
            if rebuilt.take_poisoned() {
                self.faults.note_poisoned_run();
                return Err(poisoned(io::Error::other(
                    rebuilt
                        .poison_note()
                        .unwrap_or_else(|| "still unreadable after a rebuild".to_string()),
                )));
            }
            outcome.segments_rewritten = rewritten;
            cold = rerun;
        }
        let result = cold.as_ref().unwrap_or(self.result.result());
        outcome.work = result.stats.totals.work();
        outcome.iterations = result.stats.iterations;
        outcome.converged = result.converged;
        Ok((program, cold))
    }

    /// Put the committed version back into the served result after a
    /// discarded restart wrote it: `record`, the run record set aside before
    /// the restart, with the values of the served directory, which no
    /// restart writes. Replacing the result drops its kept restart state;
    /// the next restart rebuilds it. O(V), on fault paths only.
    fn restore_committed(&mut self, record: ProgramResult<P::Value>) {
        let graph = self.engine.graph();
        let external = self.served.to_vec();
        let values = if graph.is_remapped() {
            (0..external.len() as VertexId)
                .map(|p| external[graph.external_id(p) as usize])
                .collect()
        } else {
            external
        };
        self.result.replace(ProgramResult { values, ..record });
    }

    /// Point query: the program's current value at external id `v` (`None`
    /// when `v` is outside the current graph version).
    pub fn value(&self, v: VertexId) -> Option<P::Value> {
        self.result
            .result()
            .values
            .get(self.engine.graph().to_physical(v) as usize)
            .copied()
    }

    /// The full current value vector, indexed by **external** vertex id —
    /// identical across physical layouts. On an unremapped graph this is the
    /// result's own vector. On a remapped one it is an external-order copy,
    /// made on the first call after a batch changed the values (O(V)) and
    /// reused until the next change.
    pub fn values(&self) -> &[P::Value] {
        if self.engine.graph().is_remapped() {
            self.external_view.get_or_init(|| self.served.to_vec())
        } else {
            &self.result.result().values
        }
    }

    /// The `k` vertices (external ids) ranked by `compare` (greatest first),
    /// ties broken by external id ascending — deterministic regardless of
    /// worker count or physical layout. A full scan, O(|V| log k); `compare`
    /// must be a total order, as for a sort.
    pub fn top_k_by(
        &self,
        k: usize,
        compare: impl FnMut(&P::Value, &P::Value) -> std::cmp::Ordering,
    ) -> Vec<(VertexId, P::Value)> {
        self.served.top_k_by(k, compare)
    }

    /// The served directory every published version clones.
    pub(crate) fn served(&self) -> &ServedValues<P::Value> {
        &self.served
    }

    /// The current graph version.
    pub fn graph(&self) -> &Graph {
        self.engine.graph()
    }

    /// The current program instance (rebuilt per graph version).
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The current full program result.
    pub fn result(&self) -> &ProgramResult<P::Value> {
        self.result.result()
    }

    /// The RR guidance of the current graph version:
    /// [`RrGuidance::generate`] over [`DeltaServer::graph`]. Warm batches and
    /// remaps leave the engine without one (warm restarts never read the
    /// rulers), so the first read after them regenerates it, under the
    /// `guidance_repair` telemetry span.
    pub fn guidance(&mut self) -> &RrGuidance {
        if !self.engine.guidance_is_current() {
            let telemetry = self.engine.telemetry();
            let span = telemetry.begin();
            self.engine.guidance();
            telemetry.end(span, "guidance_repair", "server", 0);
        }
        self.engine.guidance()
    }

    /// Run the configured physical-layout policy now: migrate vertices off
    /// overloaded nodes when [`ServerConfig::migration_imbalance_threshold`]
    /// is exceeded, then reorder ids partition-contiguously (degree-descending
    /// within each partition under [`ReorderPolicy::DegreeDescending`]) and
    /// move the engine to the renamed graph ([`SlfeEngine::rebuild`]:
    /// degrees, layout and segment store derived again, pool and telemetry
    /// hub kept), permuting the values with it. The guidance goes stale, and
    /// its next reader regenerates it. Returns `true` when a remap was
    /// applied, `false` when no policy is configured or the layout is
    /// already in place.
    ///
    /// On a durable server this also runs by itself at every checkpoint. A
    /// checkpoint shares its base's physical layout, so the state write
    /// after a remap (this one, or the next after an explicit call) writes a
    /// new base instead and trims the WAL: its external-id frames never
    /// cross a layout change. Remapped runs are value-transparent: every
    /// query answers bit-identically before and after.
    ///
    /// Everything fallible (the segment-store re-encode) runs before any
    /// state is assigned, so an I/O error leaves the server serving the old
    /// layout untouched.
    pub fn remap_now(&mut self) -> io::Result<bool> {
        let policy = self.config.reorder;
        let threshold = self.config.migration_imbalance_threshold;
        if policy == ReorderPolicy::None && threshold.is_none() {
            return Ok(false);
        }
        let current = self.engine.cluster().partitioning();
        let migrated = threshold
            .and_then(|t| current.migrated_owners(t))
            .map(|owners| Partitioning::from_owners(owners, current.num_parts()));
        let partitioning = migrated.as_ref().unwrap_or(current);
        let step = contiguous_degree_layout(self.engine.graph(), partitioning, policy);
        if step.is_identity() && migrated.is_none() {
            return Ok(false);
        }
        let owners = step.permuted_values(partitioning.owners());
        let partitioning = Partitioning::from_owners(owners, partitioning.num_parts());
        let graph = Arc::new(self.engine.graph().remapped(&step));
        // Re-encode the out-of-core segments in the new order — the hot/cold
        // clustering the reorder exists for lives in these files.
        let storage = build_storage(&graph, &self.config.engine, &self.faults)?;
        let result = self.result.result_mut();
        result.values = step.permuted_values(&result.values);
        // A cold run's per-vertex record would need the same permutation;
        // only Figure 2 reads it, from cold runs, so it is dropped instead.
        result.last_changed_iter = Vec::new();
        // The program is re-instantiated for the renamed graph below; rather
        // than trust a fixpoint computed under the old ids, the next warm
        // restart's first pull re-pulls every vertex.
        result.exact_fixpoint = false;
        self.program = (self.make_program)(&graph);
        let cluster = Cluster::with_partitioning(partitioning, self.config.cluster.clone());
        self.engine.rebuild(graph, cluster, storage);
        if let Some(d) = self.durability.as_mut() {
            d.base_stale = true;
        }
        Ok(true)
    }

    /// Durability activity counters, when this server is durable.
    pub fn durability_counters(&self) -> Option<&DurabilityCounters> {
        self.durability.as_ref().map(|d| &d.counters)
    }

    /// Degradation state: read-only mode, snapshot staleness, recovery
    /// actions taken.
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// Probe whether the write path works again and, if so, re-enter
    /// read-write mode, so an ENOSPC that an operator later clears does not
    /// require a full reopen.
    ///
    /// On a durable server the probe writes, fsyncs, and removes a small
    /// scratch file in the durability directory (consulting the
    /// [`FaultSite::WalAppend`] injection point first, so tests drive the
    /// outcome); a WAL-sized obstacle like a full disk fails the probe and
    /// the server stays read-only. A non-durable server has no disk
    /// contract left to verify, so it resumes optimistically — the next
    /// apply re-enters read-only if the underlying failure persists.
    ///
    /// A rejected batch whose WAL frame could not be cut back (see
    /// [`DeltaServer::try_apply`]) is cut first: until that cut succeeds the
    /// server refuses to resume, because a later append would land after
    /// the rejected frame and [`DeltaServer::open`] would replay it.
    ///
    /// Returns `true` when the server is writable on exit (including when
    /// it already was). Successful transitions increment
    /// [`Health::writes_resumed`] and surface in the registry as
    /// `slfe_health_writes_resumed_total`.
    pub fn try_resume_writes(&mut self) -> bool {
        if !self.health.is_read_only() {
            return true;
        }
        if let Some(d) = self.durability.as_mut() {
            if !d.retract() {
                self.health.note_wal_trim_failure();
                return false;
            }
        }
        if let Some(d) = self.durability.as_ref() {
            if self.probe_write(&d.config.dir).is_err() {
                return false;
            }
        }
        self.health.resume_writes();
        true
    }

    /// One resume probe: a 4 KiB write + fsync + unlink in `dir`, gated by
    /// the WAL-append fault site so injection plans cover it.
    fn probe_write(&self, dir: &std::path::Path) -> io::Result<()> {
        if let Some(action) = self.faults.on_io(FaultSite::WalAppend) {
            return match action {
                FaultAction::Error(e) => Err(e),
                FaultAction::ShortIo => Err(io::Error::other("short write on resume probe")),
            };
        }
        use std::io::Write as _;
        let path = dir.join("resume.probe");
        let mut file = std::fs::File::create(&path)?;
        file.write_all(&[0u8; 4096])?;
        file.sync_all()?;
        drop(file);
        std::fs::remove_file(&path)?;
        Ok(())
    }

    /// The fault injector every disk touchpoint of this server consults.
    /// Tests arm it mid-serving with [`FaultInjector::arm`]; it is disarmed
    /// (and injects nothing) unless a [`ServerConfig::fault_plan`] or a test
    /// armed it.
    pub fn fault_injector(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Cumulative injected-fault and recovery counters (retries,
    /// quarantines, poisoned runs) across the serving lifetime.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.counters()
    }

    /// Sequence number of the last WAL-logged batch, when durable.
    pub fn wal_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.seq)
    }

    /// The stable vertex → node assignment, grown with every graph version.
    pub fn partitioning(&self) -> &Partitioning {
        self.engine.cluster().partitioning()
    }

    /// The current graph version's chunk layout (patched, not rebuilt).
    pub fn layout(&self) -> &GlobalChunkLayout {
        self.engine.layout()
    }

    /// The current graph version's out-of-core segment store (patched per
    /// batch), when the server runs in that mode.
    pub fn storage(&self) -> Option<&Arc<GraphStorage>> {
        self.engine.storage()
    }

    /// Cumulative serving statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The engine's persistent worker pool, which serves every graph version.
    pub fn pool(&self) -> &WorkerPool {
        self.engine.pool()
    }

    /// Everything the telemetry hub has collected over the serving lifetime:
    /// spans (each batch and its stages — see [`BatchOutcome::stages`] —
    /// engine iterations, segment faults) and latency histograms. Empty when
    /// [`EngineConfig::telemetry`] is off.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.engine.telemetry().snapshot()
    }

    /// The engine's live telemetry hub, shared with the serving front end so
    /// reader threads can record query latency into the same histograms.
    pub(crate) fn telemetry_hub(&self) -> &Arc<Telemetry> {
        self.engine.telemetry()
    }

    /// A point-in-time metrics registry over every layer the server drives:
    /// pool worker busy/idle/barrier-wait fractions, buffer-pool hit/miss/
    /// eviction rates, WAL and snapshot counters, storage byte health, and
    /// cumulative serving statistics. Always populated — the registry reads
    /// counters that are maintained regardless of the telemetry switch.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();

        let activity = self.engine.pool().activity();
        let busy = activity.busy_fractions();
        let idle = activity.idle_fractions();
        for (worker, (b, i)) in busy.iter().zip(idle.iter()).enumerate() {
            let label = worker.to_string();
            reg.gauge_with(
                "slfe_pool_worker_busy_fraction",
                &[("worker", &label)],
                "Fraction of the pool's lifetime this worker spent executing tasks",
                *b,
            );
            reg.gauge_with(
                "slfe_pool_worker_idle_fraction",
                &[("worker", &label)],
                "Fraction of the pool's lifetime this worker spent idle",
                *i,
            );
        }
        reg.gauge(
            "slfe_pool_barrier_wait_fraction",
            "Fraction of the pool's lifetime the coordinator spent waiting at phase barriers",
            activity.barrier_wait_fraction(),
        );
        reg.gauge(
            "slfe_pool_average_concurrency",
            "Mean number of simultaneously busy workers over the pool's lifetime",
            activity.average_concurrency(),
        );
        reg.counter(
            "slfe_pool_phases_total",
            "Phases the pool has executed, inline ones included",
            activity.phases as f64,
        );
        reg.counter(
            "slfe_pool_inline_phases_total",
            "Phases run on the calling thread without waking the pool",
            activity.inline_phases as f64,
        );

        if let Some(storage) = self.engine.storage() {
            let pool = storage.pool();
            let c = pool.counters();
            reg.counter(
                "slfe_storage_segment_hits_total",
                "Buffer-pool gets served from a resident frame",
                c.segment_hits as f64,
            );
            reg.counter(
                "slfe_storage_segments_faulted_total",
                "Buffer-pool gets that read a segment from disk",
                c.segments_faulted as f64,
            );
            reg.counter(
                "slfe_storage_segments_evicted_total",
                "Frames evicted by the clock sweep to stay inside the budget",
                c.segments_evicted as f64,
            );
            reg.counter(
                "slfe_storage_segment_bytes_read_total",
                "Bytes read from the segment files",
                c.segment_bytes_read as f64,
            );
            reg.gauge(
                "slfe_storage_pool_hit_rate",
                "Buffer-pool hit rate (hits / gets); NaN before the first get",
                c.hit_rate().unwrap_or(f64::NAN),
            );
            reg.gauge(
                "slfe_storage_pool_resident_bytes",
                "Bytes currently resident in the buffer pool",
                pool.resident_bytes() as f64,
            );
            reg.gauge(
                "slfe_storage_pool_peak_resident_bytes",
                "High-water mark of resident buffer-pool bytes",
                pool.peak_resident_bytes() as f64,
            );
            reg.gauge(
                "slfe_storage_pool_budget_bytes",
                "Configured buffer-pool byte budget",
                pool.budget_bytes() as f64,
            );
            reg.gauge(
                "slfe_storage_live_bytes",
                "Backing-file bytes the current graph version references",
                storage.footprint_bytes() as f64,
            );
            reg.gauge(
                "slfe_storage_dead_bytes",
                "Backing-file bytes of superseded segment versions awaiting compaction",
                storage.dead_bytes() as f64,
            );
            reg.counter(
                "slfe_storage_compactions_total",
                "Segment-file compactions, each after a batch left more than half the bytes dead",
                self.compaction.runs as f64,
            );
            reg.counter(
                "slfe_storage_compaction_bytes_reclaimed_total",
                "Dead backing-file bytes compactions reclaimed",
                self.compaction.bytes_reclaimed as f64,
            );
            reg.counter(
                "slfe_storage_compaction_failures_total",
                "Segment-file compactions that failed (the server keeps serving; dead bytes wait for a retry)",
                self.health.compaction_failures() as f64,
            );
        }

        if let Some(d) = &self.durability {
            let c = &d.counters;
            reg.counter(
                "slfe_wal_entries_appended_total",
                "Update batches appended to the write-ahead log",
                c.wal_entries_appended as f64,
            );
            reg.counter(
                "slfe_wal_bytes_appended_total",
                "Bytes those WAL appends wrote, frame headers included",
                c.wal_bytes_appended as f64,
            );
            reg.counter(
                "slfe_wal_fsyncs_total",
                "fsync calls issued by WAL appends",
                c.wal_fsyncs as f64,
            );
            reg.counter(
                "slfe_wal_entries_replayed_total",
                "Batches re-applied through the apply pipeline during recovery (past the checkpoint)",
                c.wal_entries_replayed as f64,
            );
            reg.counter(
                "slfe_wal_entries_refolded_total",
                "Batches folded into the base graph during recovery without running the engine",
                c.wal_entries_refolded as f64,
            );
            reg.gauge(
                "slfe_wal_bytes_since_base",
                "WAL bytes appended since the current base was written",
                d.wal_bytes_since_base() as f64,
            );
            reg.counter(
                "slfe_wal_bytes_truncated_total",
                "Torn or corrupt WAL tail bytes discarded on open",
                c.wal_bytes_truncated as f64,
            );
            reg.counter(
                "slfe_snapshots_written_total",
                "State files written: checkpoints and bases",
                c.snapshots_written as f64,
            );
            reg.counter(
                "slfe_snapshot_bytes_written_total",
                "Bytes of state files written: checkpoints and bases",
                c.snapshot_bytes_written as f64,
            );
            reg.counter(
                "slfe_base_writes_total",
                "Bases written: full-state files that rewrite the graph and trim the WAL",
                c.base_writes as f64,
            );
            reg.counter(
                "slfe_base_bytes_written_total",
                "Bytes of bases written",
                c.base_bytes_written as f64,
            );
        }

        reg.gauge(
            "slfe_partition_imbalance",
            "Vertex-count imbalance (max/mean node load) of the stable partitioning",
            self.partitioning().imbalance(),
        );
        reg.counter(
            "slfe_server_batches_applied_total",
            "Update batches the server has applied",
            self.stats.batches_applied as f64,
        );
        reg.counter(
            "slfe_server_work_total",
            "Counted re-convergence work across all batches",
            self.stats.total_work as f64,
        );
        reg.counter(
            "slfe_server_distribution_messages_total",
            "Simulated batch-distribution messages",
            self.stats.total_distribution_messages as f64,
        );
        reg.counter(
            "slfe_server_full_recomputes_total",
            "Batches that fell back to a from-scratch run",
            self.stats.full_recomputes as f64,
        );

        let fc = self.fault_counters();
        for (kind, value) in [
            ("transient", fc.injected_transient),
            ("permanent", fc.injected_permanent),
            ("short_io", fc.injected_short_io),
            ("disk_full", fc.injected_disk_full),
        ] {
            reg.counter_with(
                "slfe_faults_injected_total",
                &[("kind", kind)],
                "Faults the deterministic injector delivered to disk touchpoints",
                value as f64,
            );
        }
        reg.counter(
            "slfe_io_retries_total",
            "I/O attempts retried after a failure (bounded exponential backoff)",
            fc.io_retries as f64,
        );
        reg.counter(
            "slfe_io_retry_successes_total",
            "I/O operations that succeeded on a retry after failing at least once",
            fc.io_retry_successes as f64,
        );
        reg.counter(
            "slfe_segments_quarantined_total",
            "Unreadable segments quarantined and rebuilt from the in-memory graph",
            fc.segments_quarantined as f64,
        );
        reg.counter(
            "slfe_poisoned_runs_total",
            "Engine runs discarded because segment reads failed beyond recovery",
            fc.poisoned_runs as f64,
        );
        reg.gauge(
            "slfe_health_read_only",
            "1 when the update side is disabled after an unrecoverable write failure",
            self.health.is_read_only() as u64 as f64,
        );
        reg.gauge(
            "slfe_health_degraded",
            "1 when any serving guarantee is currently weakened",
            self.health.is_degraded() as u64 as f64,
        );
        reg.counter(
            "slfe_snapshot_failures_total",
            "Checkpoint or base writes that failed (the server keeps serving; the recovery point ages)",
            self.health.snapshot_failures() as f64,
        );
        reg.counter(
            "slfe_wal_trim_failures_total",
            "WAL trims after a successful base write that failed (harmless: replay skips)",
            self.health.wal_trim_failures() as f64,
        );
        reg.counter(
            "slfe_storage_rebuilds_total",
            "Full segment-store rebuilds after a patch failure or poisoned run",
            self.health.storage_rebuilds() as f64,
        );
        reg.counter(
            "slfe_health_writes_resumed_total",
            "ReadOnly -> ReadWrite transitions after a successful resume probe",
            self.health.writes_resumed() as f64,
        );
        reg
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }
}

impl<P, F> DeltaServer<P, F>
where
    P: GraphProgram,
    P::Value: SnapshotValue,
    F: Fn(&Graph) -> P,
{
    /// Apply one edge-update batch: append it to the write-ahead log and
    /// fsync *first* (durable servers), patch the graph, segment store and
    /// layout, hand over the guidance (regenerated only for a full
    /// recompute), warm re-converge the program, publish the new version,
    /// compact the segment files when more than half of their bytes are
    /// dead, then write a checkpoint (and a new base when due) if the
    /// cadence says so. Every stage is timed in [`BatchOutcome::stages`].
    /// The graceful-degradation contract:
    ///
    /// * A batch naming an endpoint more than 2^20 ids past the current
    ///   graph is refused at admission with [`ApplyError::VertexOutOfRange`];
    ///   nothing is logged and the server stays read-write.
    /// * Transient I/O faults are absorbed by bounded retries — the outcome
    ///   is bit-identical to a fault-free apply.
    /// * A WAL append that cannot complete within the retry budget (or hits
    ///   ENOSPC) means the durability contract is broken: the batch is
    ///   rejected, the server flips read-only, and queries keep answering
    ///   from the last published version.
    /// * Unreadable segments are retried, quarantined and rebuilt in place;
    ///   a segment store that can be neither patched nor rebuilt, or an
    ///   execution still poisoned after one re-drive on a fresh store,
    ///   likewise rejects the batch read-only, still serving the previous
    ///   version.
    /// * A batch rejected after its WAL append is retracted at the same
    ///   rollback point: the WAL is cut back to its length before the
    ///   append and the sequence number is taken back, so neither a later
    ///   batch nor [`DeltaServer::open`] replays it. The cut runs under the
    ///   WAL trim's retry budget; if it still fails, the server stays
    ///   read-only and [`DeltaServer::try_resume_writes`] refuses until a
    ///   cut succeeds.
    /// * A failed checkpoint, base or compaction is absorbed: the batch
    ///   succeeds with [`BatchOutcome::degraded`] set, and
    ///   [`Health::is_degraded`] holds until a later one of its kind
    ///   succeeds. A failed compaction is retried a few batches later.
    ///
    /// Once read-only, every subsequent call returns
    /// [`ApplyError::ReadOnly`] without touching the WAL. A rejected batch
    /// leaves the served version, its partitioning, degrees, layout, store
    /// and guidance exactly as they were.
    pub fn try_apply(&mut self, batch: &UpdateBatch) -> Result<BatchOutcome, ApplyError> {
        self.admit(batch)?;
        let mut clock = StageClock::start(self.engine.telemetry());
        let logged = self.durability.as_ref().map(|d| (d.seq, d.wal.bytes()));
        let applied = self.run_stages(batch, &mut clock);
        if let Err(e) = &applied {
            // The one rollback point: move the engine back to the version
            // still serving if the batch advanced it, put back the served
            // result a warm restart rewrote, retract the batch from the WAL
            // if it was logged, then stop taking writes.
            if let Some(previous) = self.previous.take() {
                self.engine.restore(previous);
            }
            if let Some(record) = self.committed.take() {
                self.restore_committed(record);
            }
            if let (Some(d), Some((seq, wal_bytes))) = (self.durability.as_mut(), logged) {
                if d.wal.bytes() > wal_bytes {
                    d.seq = seq;
                    d.pending_cut = Some(wal_bytes);
                    if !d.retract() {
                        self.health.note_wal_trim_failure();
                    }
                }
            }
            self.health.enter_read_only(e.to_string());
        }
        clock.finish(applied)
    }

    /// The stage sequence of one admitted batch (see
    /// [`BatchOutcome::stages`]), each stage closed by one lap of `clock`. No
    /// stage assigns server state before `publish` except `wal_append`,
    /// which logs the batch, `layout_patch`, which advances the engine to
    /// the new version (the replaced one set aside in `previous`), and
    /// `warm_restart`, which rewrites the served result in place (its run
    /// record set aside in `committed`); the caller's rollback undoes all
    /// three on error, so a failed batch leaves the previous version serving
    /// exactly.
    fn run_stages(
        &mut self,
        batch: &UpdateBatch,
        clock: &mut StageClock,
    ) -> Result<BatchOutcome, ApplyError> {
        // Durability state is attached only once WAL replay is done, so a
        // replayed batch is never logged twice.
        if let Some(d) = self.durability.as_mut() {
            let appended = d.wal.append(d.seq + 1, batch);
            clock.lap("wal_append");
            let appended = appended.map_err(ApplyError::WalAppend)?;
            clock.fsync_ns = Some(appended.fsync_nanos);
            d.seq += 1;
            d.counters.wal_entries_appended += 1;
            d.counters.wal_bytes_appended += appended.frame_bytes;
            d.counters.wal_fsyncs += 1;
        }

        // Batches arrive (and are logged) in external ids.
        let (graph, effect) = fold(self.engine.graph(), batch);
        // A no-op batch keeps the current version; its unchanged copy of the
        // graph is dropped right here.
        let graph = (!effect.is_noop()).then(|| Arc::new(graph));
        clock.lap("graph_patch");

        let mut outcome = BatchOutcome {
            effect: BatchEffect::default(),
            work: 0,
            iterations: 0,
            converged: true,
            full_recompute: false,
            distribution_messages: 0,
            layout_patch: LayoutPatchStats::default(),
            segments_rewritten: 0,
            storage_live_bytes: 0,
            storage_dead_bytes: 0,
            partition_imbalance: 0.0,
            wall_seconds: 0.0,
            wal_fsync_seconds: 0.0,
            degraded: false,
            stages: Vec::new(),
        };
        if let Some(graph) = graph {
            // Out-of-core: rewrite only the segments a dirty endpoint lives
            // in (plus fresh ones for appended vertices); clean segments keep
            // their bytes and any warm buffer-pool frames.
            let mut storage = None;
            if let Some(current) = self.engine.storage().cloned() {
                let patched = match current.patched(&graph, &effect.dirty) {
                    Ok((mut patched, rewritten)) => {
                        patched.set_recovery(&graph);
                        Ok((Arc::new(patched), rewritten))
                    }
                    Err(patch_err) => self.rebuild_storage(&graph).map_err(|e| {
                        ApplyError::StoragePatch(io::Error::new(
                            e.kind(),
                            format!("patch failed ({patch_err}), rebuild failed ({e})"),
                        ))
                    }),
                };
                clock.lap("segment_patch");
                let (patched, rewritten) = patched?;
                storage = Some(patched);
                outcome.segments_rewritten = rewritten;
            }

            // Move the engine to the new version: the degrees and the chunk
            // layout are patched around the dirty endpoints, and the stable
            // partitioning grows (appended vertices join the least-loaded
            // nodes, at the end of their owned lists).
            let (layout_patch, previous) = self.engine.advance(graph, &effect.dirty, storage);
            self.previous = Some(previous);
            outcome.layout_patch = layout_patch;
            clock.lap("layout_patch");

            // A cold run reads the rulers, so it regenerates them for the
            // new version. A warm restart never reads them, and the guidance
            // stays stale until a reader regenerates it.
            let n = self.engine.graph().num_vertices();
            let dirty_fraction = effect.dirty.len() as f64 / n.max(1) as f64;
            outcome.full_recompute = dirty_fraction > self.config.full_recompute_dirty_fraction;
            if outcome.full_recompute {
                self.engine.guidance();
            }
            clock.lap("guidance");

            let converged = self.converge(&effect, &mut outcome);
            clock.lap(if outcome.full_recompute {
                "cold_run"
            } else {
                "warm_restart"
            });
            let (program, cold) = converged?;

            self.program = program;
            if let Some(result) = cold {
                self.result.replace(result);
            }
            self.install_values();
            // Published: nothing is left to undo.
            self.committed = None;
            self.previous = None;
        }
        outcome.effect = Self::external_effect(self.engine.graph(), effect);
        (outcome.storage_live_bytes, outcome.storage_dead_bytes) = self
            .engine
            .storage()
            .map_or((0, 0), |s| (s.footprint_bytes(), s.dead_bytes()));
        outcome.partition_imbalance = self.partitioning().imbalance();
        self.stats.batches_applied += 1;
        self.stats.total_work += outcome.work;
        self.stats.total_distribution_messages += outcome.distribution_messages;
        self.stats.full_recomputes += outcome.full_recompute as u64;
        clock.lap("publish");

        // Out-of-core: once superseded segment versions outweigh the live
        // ones, rewrite the live segments into fresh files. A failure
        // degrades the server and leaves the dead bytes for a retry
        // `COMPACTION_RETRY_BATCHES` later.
        let retry_due = self.stats.batches_applied >= self.compaction.retry_at;
        let compaction = self
            .engine
            .storage()
            .filter(|s| retry_due && s.needs_compaction())
            .map(|s| (s.file_bytes(), s.compacted(self.engine.graph())));
        if let Some((before, compacted)) = compaction {
            match compacted {
                Ok(compacted) => {
                    let reclaimed = before.saturating_sub(compacted.file_bytes());
                    self.compaction.runs += 1;
                    self.compaction.bytes_reclaimed += reclaimed;
                    if let Some(d) = self.durability.as_mut() {
                        d.counters.compactions += 1;
                        d.counters.compaction_bytes_reclaimed += reclaimed;
                    }
                    self.health.note_compaction_success();
                    (outcome.storage_live_bytes, outcome.storage_dead_bytes) =
                        (compacted.footprint_bytes(), compacted.dead_bytes());
                    self.engine.set_storage(Some(Arc::new(compacted)));
                }
                Err(e) => {
                    self.health.note_compaction_failure(&e);
                    self.compaction.retry_at =
                        self.stats.batches_applied + COMPACTION_RETRY_BATCHES;
                    outcome.degraded = true;
                }
            }
            clock.lap("compact");
        }

        if self.checkpoint_due() {
            // The batch is durable (WAL) and applied (memory): a failed
            // state write only means the recovery point is going stale.
            if let Err(e) = self.write_state() {
                self.health.note_snapshot_failure(&e);
                outcome.degraded = true;
            }
            clock.lap("snapshot");
        }
        Ok(outcome)
    }

    /// Write a recovery point of the current served state now: a checkpoint
    /// (the values, the partitioning and the stats, over the current base),
    /// plus a new base — the whole state, graph included — when the WAL
    /// since the last base has reached 1/1024 of the base's bytes or a remap
    /// changed the layout since it (a remap changes it here too, when a
    /// reorder policy or migration threshold is configured). Only a base
    /// write trims the WAL; a trim failure is absorbed (replay skips covered
    /// entries). A write failure is returned and leaves the previous
    /// checkpoint and base intact. This is the apply pipeline's `snapshot`
    /// stage, run on demand.
    ///
    /// A server without durability state (built by [`DeltaServer::try_new`])
    /// has nowhere to write: the call is refused with
    /// [`io::ErrorKind::Unsupported`] and the server keeps serving untouched.
    pub fn snapshot(&mut self) -> io::Result<()> {
        if self.durability.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "snapshot() requires a durable server (create_durable/open)",
            ));
        }
        let telemetry = Arc::clone(self.engine.telemetry());
        let span = telemetry.begin();
        let written = self.write_state();
        telemetry.end(span, "snapshot", "server", 0);
        written
    }

    /// Whether a durable server's cadence (batches, or WAL bytes, since the
    /// last state write) calls for a checkpoint now.
    fn checkpoint_due(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(DurabilityState::checkpoint_due)
    }

    /// The body of [`DeltaServer::snapshot`], also the apply pipeline's
    /// `snapshot` stage; each caller times it once, and each file written
    /// is a `checkpoint` or `base` span inside. The guidance is derived
    /// state and is stored in neither file: [`DeltaServer::open`]
    /// regenerates it.
    fn write_state(&mut self) -> io::Result<()> {
        // Physical-layout policy rides the checkpoint: every logged
        // external-id batch is folded in before the id space is renamed, and
        // a remap makes this write a base that records the new layout.
        self.remap_now()?;
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        let partitioning = self.engine.cluster().partitioning();
        let state = SnapshotState {
            stats: self.stats,
            graph: self.engine.graph(),
            values: &self.result.result().values,
            owners: partitioning.owners(),
            num_parts: partitioning.num_parts(),
        };
        let telemetry = self.engine.telemetry();
        let faults = Some(&*self.faults);
        // The checkpoint lands even when a base follows: the small write
        // moves the recovery point forward should the graph-sized base
        // write fail, and the base policy never delays the cadence's point.
        if !d.base_stale {
            let span = telemetry.begin();
            let written = d.write_checkpoint(&state, faults);
            telemetry.end(span, "checkpoint", "server", 0);
            written?;
        }
        if d.base_due() {
            let span = telemetry.begin();
            let written = d.write_base(&state, faults);
            telemetry.end(span, "base", "server", 0);
            if !written? {
                self.health.note_wal_trim_failure();
            }
        }
        self.health.note_snapshot_success();
        Ok(())
    }

    /// Build a fresh durable server: run [`DeltaServer::try_new`], then write
    /// the first base (through a [`DeltaServer::snapshot`]) so
    /// [`DeltaServer::open`] always finds one. A fresh server supersedes
    /// whatever a previous life left in the directory: its WAL is emptied
    /// and its checkpoint deleted before the base lands — a checkpoint names
    /// its base by sequence number and CRC only, and a new life from the
    /// same graph writes the same base 0.
    pub fn create_durable(
        graph: Graph,
        make_program: F,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(&durability.dir)?;
        let mut server = Self::try_new(graph, make_program, config)?;
        durability::remove_checkpoint(&durability)?;
        let (mut wal, _) = Wal::open_with(
            &durability.wal_path(),
            Some(Arc::clone(&server.faults)),
            durability.retry,
        )?;
        wal.truncate_to(0)?;
        server.durability = Some(DurabilityState::fresh(durability, wal));
        server.snapshot()?;
        Ok(server)
    }

    /// Recover a durable server from its base, checkpoint and WAL:
    ///
    /// 1. Load the base (graph, values, partitioning, stats) and scan the
    ///    WAL, truncating a torn or corrupt tail (those batches were never
    ///    acknowledged).
    /// 2. If the checkpoint names this base and the WAL still holds every
    ///    entry it covers, fold those entries into the base graph one batch
    ///    at a time — the live path's id translation and
    ///    [`Graph::apply_batch`], no engine and no segment writes — and take
    ///    the checkpoint's values, partitioning and stats. Otherwise
    ///    (missing, corrupt, another base's, or past the WAL's valid prefix)
    ///    delete it — the batches appended next reuse the sequence numbers
    ///    it covers — and keep the base's state.
    /// 3. Build the engine once on that graph: regenerate the guidance,
    ///    build the pool, layout and segment files.
    /// 4. Replay every entry past the recovery point through
    ///    [`DeltaServer::try_apply`], the identical warm apply path.
    ///
    /// The recovered values are bit-identical to an uninterrupted run's —
    /// for min/max and arithmetic programs alike — with or without the
    /// checkpoint; the checkpoint only bounds how many entries run the
    /// engine. A corrupt base is a structured error, never a panic, and so
    /// is a base, WAL or checkpoint read that keeps failing, or an unusable
    /// checkpoint that cannot be deleted.
    pub fn open(
        make_program: F,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let faults = injector_for(&config);
        let base = durability::read_snapshot::<P::Value>(&durability, Some(&faults))?;
        if base.num_parts != config.cluster.num_nodes {
            return Err(DurabilityError::CorruptSnapshot {
                reason: "snapshot partitioning does not match the cluster config",
            });
        }
        let (wal, replay) = Wal::open_with(
            &durability.wal_path(),
            Some(Arc::clone(&faults)),
            durability.retry,
        )?;
        let checkpoint = durability::read_checkpoint::<P::Value>(&durability, Some(&faults))?
            .filter(|c| {
                (c.base_seq, c.base_crc) == (base.stamp.seq, base.stamp.crc)
                    && c.seq >= base.stamp.seq
                    && c.num_parts == base.num_parts
            });
        let mut counters = DurabilityCounters::zero();
        counters.wal_bytes_truncated += replay.bytes_truncated;
        let refolded = match &checkpoint {
            Some(c) => refold(&base.graph, &replay.entries, base.stamp.seq, c.seq)?
                .filter(|graph| graph.num_vertices() == c.values.len()),
            None => None,
        };
        let (recovered_seq, graph, owners, values, stats) = match (refolded, checkpoint) {
            (Some(graph), Some(c)) => {
                counters.wal_entries_refolded += c.seq - base.stamp.seq;
                (c.seq, graph, c.owners, c.values, c.stats)
            }
            _ => {
                // An unusable checkpoint must not outlive this open: the
                // batches appended next reuse the sequence numbers it covers,
                // and a later open would refold that new history under its
                // values.
                durability::remove_checkpoint(&durability)?;
                (
                    base.stamp.seq,
                    base.graph,
                    base.owners,
                    base.values,
                    base.stats,
                )
            }
        };
        let partitioning = Partitioning::from_owners(owners, base.num_parts);
        let cluster = Cluster::with_partitioning(partitioning, config.cluster.clone());
        let mut server = Self::assemble(make_program, config, faults, Arc::new(graph), cluster)?;
        // The fixpoint values are the recovery point's; the run-shaped
        // metadata stays empty. `exact_fixpoint` stays false: neither file
        // records it (base 0 holds the ruler-gated cold values), so the
        // first batch after recovery re-pulls every vertex, which serves the
        // same bits as the live server's restart, selective or not.
        server.result.result_mut().values = values;
        server.stats = stats;
        // A base of a remapped server restores its bijection with the
        // graph; queries must answer in external order from the first read.
        server.install_values();
        // Re-drive the unacknowledged suffix through the exact pipeline the
        // live server used; with no durability state attached yet it skips
        // the WAL append and the state writes. Entries at or below the
        // recovery point are already folded in (they sit under the
        // checkpoint, or the process died between a base's rename and the
        // WAL trim) — skipping them is what makes replay idempotent.
        let mut seq = recovered_seq;
        for (entry_seq, batch) in &replay.entries {
            if *entry_seq <= recovered_seq {
                continue;
            }
            server
                .try_apply(batch)
                .map_err(|error| DurabilityError::Replay {
                    seq: *entry_seq,
                    error,
                })?;
            counters.wal_entries_replayed += 1;
            seq = *entry_seq;
        }
        server.durability = Some(DurabilityState {
            seq,
            state_seq: recovered_seq,
            state_mark: replay.bytes_through(recovered_seq),
            base: base.stamp,
            base_mark: replay.bytes_through(base.stamp.seq),
            base_stale: false,
            pending_cut: None,
            counters,
            config: durability,
            wal,
        });
        // Replay may have pushed the cadence past its trigger; writing
        // *after* the loop (never mid-replay) keeps the WAL intact until
        // every entry is re-applied. A failed write here degrades health
        // instead of failing the open — the WAL still covers every entry.
        if server.checkpoint_due() {
            if let Err(e) = server.snapshot() {
                server.health.note_snapshot_failure(&e);
            }
        }
        Ok(server)
    }

    /// Open the durable server at `durability.dir` if a snapshot exists
    /// there, otherwise build a fresh one from `make_graph()`.
    pub fn open_or_create(
        make_graph: impl FnOnce() -> Graph,
        make_program: F,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        if durability.snapshot_path().exists() {
            Self::open(make_program, config, durability)
        } else {
            Self::create_durable(make_graph(), make_program, config, durability).map_err(Into::into)
        }
    }
}

/// The graph a checkpoint at `checkpoint_seq` was taken on: `base` (the
/// graph of the base at `base_seq`) with the WAL entries in
/// `(base_seq, checkpoint_seq]` folded in one batch at a time, exactly as
/// the live server applied them — merging the batches first would not give
/// the same graph bit for bit, because [`Graph::apply_batch`] sorts each
/// touched list with an unstable sort. `None` when `entries` does not hold
/// each of those sequence numbers in order (the checkpoint lies past the
/// WAL's valid prefix). A logged batch that admission would refuse is a
/// typed replay error, as it is for [`DeltaServer::try_apply`].
fn refold(
    base: &Graph,
    entries: &[(u64, UpdateBatch)],
    base_seq: u64,
    checkpoint_seq: u64,
) -> Result<Option<Graph>, DurabilityError> {
    let first = entries.partition_point(|(seq, _)| *seq <= base_seq);
    let covered = entries[first..]
        .iter()
        .take_while(|(seq, _)| *seq <= checkpoint_seq);
    if !covered
        .clone()
        .map(|(seq, _)| *seq)
        .eq(base_seq + 1..=checkpoint_seq)
    {
        return Ok(None);
    }
    let mut graph = base.clone();
    for (seq, batch) in covered {
        check_growth(batch, graph.num_vertices())
            .map_err(|error| DurabilityError::Replay { seq: *seq, error })?;
        let (next, effect) = fold(&graph, batch);
        if !effect.is_noop() {
            graph = next;
        }
    }
    Ok(Some(graph))
}

impl<P, F> DeltaServer<P, F>
where
    P: GraphProgram,
    P::Value: PartialOrd,
    F: Fn(&Graph) -> P,
{
    /// The `k` largest values (PageRank-style ranking queries), ties broken
    /// by external id ascending, under the natural order: `partial_cmp`,
    /// with a value that does not compare with itself (a NaN) ranked after
    /// every comparable value. It visits value blocks of 1024 ids by their
    /// cached maximum and stops once no unvisited block can enter the
    /// answer, so it costs O(|V|/1024) plus the blocks it visits (each
    /// maximum is computed once per written block, on first need). For
    /// distance programs, rank with [`DeltaServer::top_k_by`] and a reversed
    /// comparator.
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, P::Value)> {
        self.served.top_k(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_apps::pagerank::PageRankProgram;
    use slfe_apps::sssp::SsspProgram;
    use slfe_core::RedundancyMode;
    use slfe_graph::generators::{random_batch, BatchShape};
    use slfe_graph::rng::SplitMix64;
    use slfe_graph::Degrees;
    use slfe_graph::{generators, stats};
    use slfe_metrics::Counters;

    const GROW: BatchShape = BatchShape::Mixed { allow_growth: true };

    fn sssp_server(
        graph: Graph,
        root: VertexId,
        config: ServerConfig,
    ) -> DeltaServer<SsspProgram, impl Fn(&Graph) -> SsspProgram> {
        DeltaServer::try_new(graph, move |_| SsspProgram { root }, config).unwrap()
    }

    fn mixed_batch(graph: &Graph, seed: u64, ops: usize) -> UpdateBatch {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = graph.num_vertices() as u32;
        let mut batch = UpdateBatch::new();
        for _ in 0..ops {
            let src = rng.range_u32(0, n);
            if rng.next_f64() < 0.7 {
                batch.insert(src, rng.range_u32(0, n), rng.range_f32(1.0, 10.0));
            } else if let Some(&dst) = graph.out_neighbors(src).first() {
                batch.delete(src, dst);
            }
        }
        batch
    }

    #[test]
    fn remap_policy_defaults_off_and_builders_set_it() {
        let c = ServerConfig::default();
        assert_eq!(c.reorder, ReorderPolicy::None);
        assert!(c.migration_imbalance_threshold.is_none());
        let c = c
            .with_reorder(ReorderPolicy::DegreeDescending)
            .with_migration_imbalance_threshold(1.25);
        assert_eq!(c.reorder, ReorderPolicy::DegreeDescending);
        assert_eq!(c.migration_imbalance_threshold, Some(1.25));
    }

    #[test]
    fn served_sssp_stays_identical_to_from_scratch_across_batches() {
        let graph = generators::rmat(600, 4200, 0.57, 0.19, 0.19, 11);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let mut server = sssp_server(graph.clone(), root, ServerConfig::default());
        let mut current = graph;
        for round in 0..4u64 {
            let batch = mixed_batch(&current, round + 70, 25);
            let outcome = server.try_apply(&batch).unwrap();
            assert!(outcome.converged);
            current = current.apply_batch(&batch).0;
            let oracle = SlfeEngine::build(
                &current,
                ServerConfig::default().cluster,
                EngineConfig::default(),
            )
            .run(&SsspProgram { root });
            assert_eq!(
                server
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                oracle
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "round {round}: served values diverge from a from-scratch run"
            );
            // The maintained guidance matches regeneration on the current graph.
            assert_eq!(*server.guidance(), RrGuidance::generate(&current));
        }
        assert_eq!(server.stats().batches_applied, 4);
    }

    #[test]
    fn served_pagerank_tracks_the_exact_fixpoint() {
        let graph = generators::rmat(300, 2100, 0.57, 0.19, 0.19, 23);
        // Ruler-free engine: the oracle below is then the exact fixpoint.
        let config = ServerConfig {
            engine: EngineConfig::default()
                .with_redundancy(RedundancyMode::Disabled)
                .with_max_iterations(300),
            ..ServerConfig::default()
        };
        let mut server = DeltaServer::try_new(
            graph.clone(),
            |g: &Graph| PageRankProgram::new(g.num_vertices()),
            config.clone(),
        )
        .unwrap();
        let batch = mixed_batch(&graph, 5, 20);
        let outcome = server.try_apply(&batch).unwrap();
        assert!(outcome.converged);
        let mutated = graph.apply_batch(&batch).0;
        let oracle = SlfeEngine::build(&mutated, config.cluster.clone(), config.engine.clone())
            .run(&PageRankProgram::new(mutated.num_vertices()));
        for v in 0..mutated.num_vertices() {
            assert!(
                (server.values()[v] - oracle.values[v]).abs() < 1e-5,
                "vertex {v}: served {} vs oracle {}",
                server.values()[v],
                oracle.values[v]
            );
        }
        // Warm restart converges in fewer iterations than the cold oracle run.
        assert!(outcome.iterations <= oracle.stats.iterations);
    }

    #[test]
    fn point_and_top_k_queries_answer_from_the_current_fixpoint() {
        let graph = generators::layered(6, 30, 4, 9);
        let mut server = sssp_server(graph, 0, ServerConfig::default());
        assert_eq!(server.value(0), Some(0.0));
        assert!(server.value(10_000).is_none());
        // Nearest vertices: smallest finite distances first.
        let nearest = server.top_k_by(5, |a, b| {
            b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
        });
        assert_eq!(nearest.len(), 5);
        assert_eq!(nearest[0], (0, 0.0));
        assert!(nearest.windows(2).all(|w| w[0].1 <= w[1].1));

        // After inserting a zero-ish cost shortcut the target joins the top.
        let far = (server.graph().num_vertices() - 1) as VertexId;
        let mut batch = UpdateBatch::new();
        batch.insert(0, far, 0.001);
        server.try_apply(&batch).unwrap();
        let nearest = server.top_k_by(2, |a, b| {
            b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
        });
        assert_eq!(nearest[1].0, far);
    }

    #[test]
    fn oversized_batches_fall_back_to_full_recompute() {
        let graph = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 31);
        let config = ServerConfig {
            full_recompute_dirty_fraction: 0.0, // force the fallback
            ..ServerConfig::default()
        };
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let mut server = sssp_server(graph.clone(), root, config);
        let batch = mixed_batch(&graph, 3, 10);
        let outcome = server.try_apply(&batch).unwrap();
        assert!(outcome.full_recompute);
        assert_eq!(server.stats().full_recomputes, 1);
        let mutated = graph.apply_batch(&batch).0;
        let oracle = SlfeEngine::build(
            &mutated,
            ServerConfig::default().cluster,
            EngineConfig::default(),
        )
        .run(&SsspProgram { root });
        assert_eq!(
            server
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            oracle
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn batch_distribution_traffic_is_accounted() {
        let graph = generators::rmat(400, 2400, 0.57, 0.19, 0.19, 17);
        let mut server = sssp_server(graph.clone(), 0, ServerConfig::default());
        let batch = mixed_batch(&graph, 8, 30);
        let outcome = server.try_apply(&batch).unwrap();
        // With two nodes and dozens of random dirty endpoints, some must be
        // remote to the ingest node.
        assert!(outcome.distribution_messages > 0);
        assert!(outcome.distribution_messages <= outcome.effect.dirty.len() as u64);
        assert_eq!(
            server.stats().total_distribution_messages,
            outcome.distribution_messages
        );
    }

    /// Applying a batch must *patch* the chunk layout — touching only the
    /// dirty endpoints' owner nodes — and the patched layout must equal a
    /// from-scratch derivation over the server's stable partitioning, batch
    /// after batch.
    #[test]
    fn applying_batches_patches_the_layout_instead_of_rebuilding() {
        let graph = generators::rmat(4000, 24_000, 0.57, 0.19, 0.19, 97);
        let config = ServerConfig {
            cluster: ClusterConfig::new(8, 1),
            ..ServerConfig::default()
        };
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let mut server = sssp_server(graph, root, config);
        let initial_chunks = server.layout().chunks().len();
        assert!(initial_chunks > 8, "need a real chunk population");

        for round in 0..4u64 {
            // A two-edge batch between two vertices: at most 4 dirty
            // endpoints, so at most 4 owner nodes may be rebuilt.
            let n = server.graph().num_vertices() as u32;
            let mut rng = SplitMix64::seed_from_u64(round + 500);
            let mut batch = UpdateBatch::new();
            batch
                .insert(rng.range_u32(0, n), rng.range_u32(0, n), 1.5)
                .insert(rng.range_u32(0, n), rng.range_u32(0, n), 2.5);
            let outcome = server.try_apply(&batch).unwrap();
            assert!(outcome.converged);

            // Patch locality: only dirty-endpoint owners were re-derived,
            // and their owned vertices bound the patch's counted work.
            assert!(
                outcome.layout_patch.nodes_rebuilt <= outcome.effect.dirty.len().min(8),
                "round {round}: rebuilt {} nodes for {} dirty endpoints",
                outcome.layout_patch.nodes_rebuilt,
                outcome.effect.dirty.len()
            );
            assert!(
                outcome.layout_patch.vertices_scanned < server.graph().num_vertices(),
                "round {round}: patch scanned the whole graph"
            );
            assert!(outcome.layout_patch.chunks_reused > 0);

            // Patch correctness: bit-equal to the from-scratch layout over
            // the same (stable) partitioning.
            let owned: Vec<&[slfe_graph::VertexId]> = (0..8)
                .map(|node| server.partitioning().vertices_of(node))
                .collect();
            let scratch = slfe_cluster::GlobalChunkLayout::build(
                server.graph(),
                &owned,
                server.config().cluster.chunk_size,
            );
            assert_eq!(
                *server.layout(),
                scratch,
                "round {round}: patched layout diverges from a from-scratch build"
            );
        }
    }

    /// The server keeps one engine across versions and patches its degrees
    /// and layout per batch. After every path that changes the version or
    /// rolls a change back — a batch stream with growth and deletes, a
    /// full-recompute fallback, a remap, a `StoragePatch` and a `WalAppend`
    /// rejection each followed by a resume and a clean batch, and `open`'s
    /// replay — the degrees equal a fresh extraction from the served graph,
    /// the layout equals a from-scratch build over the served partitioning,
    /// and a ruler-gated cold run on the server's engine equals one on a
    /// fresh engine over the same graph and partitioning (values, counted
    /// work apart from segment I/O, iterations and the preprocessing charge),
    /// so no guidance or per-version cache outlives a version change. The
    /// guidance it serves equals a regeneration on the served graph, and the
    /// served values equal an uninterrupted in-memory witness's bit for bit
    /// throughout.
    #[test]
    fn server_degrees_equal_a_fresh_extraction_on_every_path() {
        let graph = generators::rmat(500, 3500, 0.57, 0.19, 0.19, 43);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |g: &Graph| SsspProgram {
            root: g.to_physical(root),
        };
        // 16-vertex chunks give each node dozens of chunks, so the per-chunk
        // ruler bounds differ between versions and a stale set would show
        // in the cold-run comparison below.
        let config = ServerConfig {
            cluster: ClusterConfig::new(2, 2).with_chunk_size(16),
            engine: EngineConfig::default()
                .with_storage_budget(24 << 10)
                .with_storage_segment_bytes(2 << 10),
            ..ServerConfig::default()
        }
        .with_reorder(ReorderPolicy::DegreeDescending);
        let dir = durable_dir("degrees");
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(1000);
        let mut server =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability.clone())
                .unwrap();
        let mut witness = DeltaServer::try_new(graph, make, ServerConfig::default()).unwrap();
        let check = |server: &mut DeltaServer<SsspProgram, _>,
                     witness: &DeltaServer<_, _>,
                     at: &str| {
            let engine = &server.engine;
            let graph = Arc::clone(engine.graph());
            let partitioning = engine.cluster().partitioning();
            assert_eq!(*engine.degrees(), Degrees::of(&graph), "{at}: degrees");
            let owned: Vec<&[VertexId]> = (0..partitioning.num_parts())
                .map(|node| partitioning.vertices_of(node))
                .collect();
            let chunk_size = server.config.cluster.chunk_size;
            assert_eq!(
                *engine.layout(),
                GlobalChunkLayout::build(&graph, &owned, chunk_size),
                "{at}: layout"
            );
            let fresh = SlfeEngine::new(
                Arc::clone(&graph),
                Cluster::with_partitioning(partitioning.clone(), server.config.cluster.clone()),
                server.config.engine.clone(),
                None,
            );
            let program = SsspProgram {
                root: graph.to_physical(root),
            };
            let (ours, theirs) = (engine.run(&program), fresh.run(&program));
            assert_eq!(
                bits(&ours.values),
                bits(&theirs.values),
                "{at}: cold values"
            );
            let io_free = |c: Counters| Counters {
                segments_faulted: 0,
                segment_bytes_read: 0,
                ..c
            };
            assert_eq!(
                io_free(ours.stats.totals),
                io_free(theirs.stats.totals),
                "{at}: cold run counters"
            );
            assert_eq!(ours.stats.iterations, theirs.stats.iterations, "{at}");
            assert_eq!(
                ours.stats.phases.preprocessing_seconds, theirs.stats.phases.preprocessing_seconds,
                "{at}: preprocessing charge"
            );
            let regenerated = RrGuidance::generate(server.graph());
            assert_eq!(*server.guidance(), regenerated, "{at}: guidance");
            assert_eq!(
                bits(server.values()),
                bits(witness.values()),
                "{at}: values"
            );
        };
        check(&mut server, &witness, "try_new");
        let shape = BatchShape::Mixed { allow_growth: true };
        let apply = |server: &mut DeltaServer<_, _>, witness: &mut DeltaServer<_, _>, seed, ops| {
            // Batches speak external ids; draw them from the unremapped witness.
            let batch = random_batch(witness.graph(), seed, ops, shape);
            witness.try_apply(&batch).unwrap();
            server.try_apply(&batch).unwrap()
        };

        for seed in 0..6 {
            apply(&mut server, &mut witness, seed, 12);
            check(&mut server, &witness, &format!("batch {seed}"));
        }
        let outcome = apply(&mut server, &mut witness, 6, 400);
        assert!(outcome.full_recompute);
        check(&mut server, &witness, "full recompute");
        assert!(server.remap_now().unwrap(), "the reorder policy must remap");
        check(&mut server, &witness, "remap");

        server.fault_injector().arm(FaultPlan::new().fail(
            FaultSite::SegmentWrite,
            0,
            slfe_graph::FaultKind::Permanent,
        ));
        let batch = random_batch(witness.graph(), 7, 12, shape);
        let err = server.try_apply(&batch).unwrap_err();
        assert!(matches!(err, ApplyError::StoragePatch(_)), "got {err}");
        check(&mut server, &witness, "rejection");
        server.fault_injector().disarm();
        assert!(server.try_resume_writes());
        apply(&mut server, &mut witness, 8, 12);
        check(&mut server, &witness, "batch after the rejection");

        server.fault_injector().arm(FaultPlan::new().fail(
            FaultSite::WalAppend,
            0,
            slfe_graph::FaultKind::Permanent,
        ));
        let batch = random_batch(witness.graph(), 9, 12, shape);
        let err = server.try_apply(&batch).unwrap_err();
        assert!(matches!(err, ApplyError::WalAppend(_)), "got {err}");
        check(&mut server, &witness, "WAL-append rejection");
        server.fault_injector().disarm();
        assert!(server.try_resume_writes());
        apply(&mut server, &mut witness, 10, 12);
        check(
            &mut server,
            &witness,
            "batch after the WAL-append rejection",
        );

        drop(server);
        let mut reopened = DeltaServer::open(make, config, durability).unwrap();
        check(&mut reopened, &witness, "open");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The stable partitioning grows with appended vertices and keeps serving
    /// correct values (the from-scratch oracle uses its own partitioning, so
    /// equality here also proves values are partitioning-independent).
    #[test]
    fn appended_vertices_join_the_stable_partitioning() {
        let graph = generators::rmat(500, 3000, 0.57, 0.19, 0.19, 77);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let mut server = sssp_server(graph.clone(), root, ServerConfig::default());
        let n = graph.num_vertices() as u32;
        let mut batch = UpdateBatch::new();
        batch.insert(root, n + 3, 1.0).insert(n + 3, n + 7, 2.0);
        let outcome = server.try_apply(&batch).unwrap();
        assert!(outcome.converged);
        assert_eq!(server.partitioning().num_vertices(), n as usize + 8);
        // Every node's list stays ascending no matter which node received
        // which appended id.
        for node in 0..server.config().cluster.num_nodes {
            let owned = server.partitioning().vertices_of(node);
            assert!(owned.windows(2).all(|w| w[0] < w[1]));
        }
        let (mutated, _) = graph.apply_batch(&batch);
        let oracle = SlfeEngine::build(
            &mutated,
            ServerConfig::default().cluster,
            EngineConfig::default(),
        )
        .run(&SsspProgram { root });
        assert_eq!(
            server
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            oracle
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    /// Growth-skew regression: sustained append-heavy batches must keep the
    /// stable partitioning's node loads bounded (the old code piled every
    /// grown vertex onto the last node, unboundedly) while serving stays
    /// bit-correct against a from-scratch oracle.
    #[test]
    fn sustained_growth_batches_keep_node_loads_bounded() {
        let graph = generators::rmat(400, 2400, 0.57, 0.19, 0.19, 53);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let config = ServerConfig {
            cluster: ClusterConfig::new(4, 1),
            ..ServerConfig::default()
        };
        let mut server = sssp_server(graph.clone(), root, config);
        let spread = |p: &Partitioning| {
            let c = p.vertex_counts();
            c.iter().max().unwrap() - c.iter().min().unwrap()
        };
        let initial_spread = spread(server.partitioning());
        let mut current = graph;
        for round in 0..10u64 {
            // Each batch appends 6 fresh vertices hanging off existing ones.
            let n = current.num_vertices() as u32;
            let mut rng = SplitMix64::seed_from_u64(round + 900);
            let mut batch = UpdateBatch::new();
            for k in 0..6u32 {
                batch.insert(rng.range_u32(0, n), n + k, rng.range_f32(1.0, 4.0));
            }
            let outcome = server.try_apply(&batch).unwrap();
            assert!(outcome.converged);
            current = current.apply_batch(&batch).0;
            assert!(
                spread(server.partitioning()) <= initial_spread.max(1),
                "round {round}: node loads {:?} diverged",
                server.partitioning().vertex_counts()
            );
        }
        // All 60 appended vertices were assigned (and, per the loop above,
        // without widening the vertex-count spread).
        let counts = server.partitioning().vertex_counts();
        assert_eq!(counts.iter().sum::<usize>(), current.num_vertices());
        let oracle = SlfeEngine::build(&current, ClusterConfig::new(4, 1), EngineConfig::default())
            .run(&SsspProgram { root });
        assert_eq!(
            server
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            oracle
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    /// Out-of-core serving: a server whose engine streams disk segments must
    /// serve bit-identical values to an in-memory one across mixed batches,
    /// while patching only the dirty segments per batch.
    #[test]
    fn out_of_core_server_matches_in_memory_and_patches_segments() {
        let graph = generators::rmat(600, 4200, 0.57, 0.19, 0.19, 19);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let oocore = ServerConfig {
            engine: EngineConfig::default()
                .with_storage_budget(24 << 10)
                .with_storage_segment_bytes(2 << 10),
            ..ServerConfig::default()
        };
        let mut server = sssp_server(graph.clone(), root, oocore);
        let mut reference = sssp_server(graph.clone(), root, ServerConfig::default());
        assert!(server.storage().is_some());
        let total_segments = {
            let s = server.storage().unwrap();
            s.out_store().num_segments() + s.in_store().num_segments()
        };
        let mut current = graph;
        for round in 0..3u64 {
            let batch = mixed_batch(&current, round + 31, 15);
            let outcome = server.try_apply(&batch).unwrap();
            let ref_outcome = reference.try_apply(&batch).unwrap();
            assert!(outcome.converged && ref_outcome.converged);
            assert!(outcome.segments_rewritten > 0);
            assert!(
                outcome.segments_rewritten < total_segments as u64,
                "round {round}: batch rewrote all {total_segments} segments"
            );
            assert_eq!(ref_outcome.segments_rewritten, 0);
            current = current.apply_batch(&batch).0;
            assert_eq!(
                server
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                reference
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "round {round}: out-of-core serving diverges from in-memory"
            );
        }
        let pool = server.storage().unwrap().pool();
        assert!(pool.counters().segments_faulted > 0);
        assert!(pool.peak_resident_bytes() <= pool.budget_bytes());
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slfe-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A durable server re-opened after a clean drop (snapshot + WAL suffix
    /// on disk) serves values bit-identical to an uninterrupted server, and
    /// its cumulative stats line up.
    #[test]
    fn reopened_durable_server_is_bit_identical_to_an_uninterrupted_one() {
        let dir = durable_dir("reopen");
        let graph = generators::rmat(500, 3500, 0.57, 0.19, 0.19, 61);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(3);
        let mut durable = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        let mut witness = sssp_server(graph.clone(), root, ServerConfig::default());
        let mut current = graph;
        for round in 0..5u64 {
            let batch = mixed_batch(&current, round + 400, 20);
            durable.try_apply(&batch).unwrap();
            witness.try_apply(&batch).unwrap();
            current = current.apply_batch(&batch).0;
        }
        let expected_stats = *durable.stats();
        drop(durable);

        let mut reopened = DeltaServer::open(make, ServerConfig::default(), durability).unwrap();
        assert_eq!(bits(reopened.values()), bits(witness.values()));
        assert_eq!(*reopened.stats(), expected_stats);
        // Snapshot at seq 3, entries 4 and 5 replayed from the WAL.
        assert_eq!(
            reopened.durability_counters().unwrap().wal_entries_replayed,
            2
        );
        // The restored guidance keeps the maintenance invariant.
        assert_eq!(*reopened.guidance(), RrGuidance::generate(&current));
        std::fs::remove_dir_all(reopened.durability_counters().map(|_| &dir).unwrap()).unwrap();
    }

    /// A second recovery point: `durability`'s base, checkpoint (when there
    /// is one) and WAL copied into a fresh directory, so a reopened copy and
    /// the live server never share a log.
    fn copy_durable_state(durability: &DurabilityConfig, tag: &str) -> DurabilityConfig {
        let copy = DurabilityConfig::new(durable_dir(tag));
        std::fs::create_dir_all(&copy.dir).unwrap();
        std::fs::copy(durability.snapshot_path(), copy.snapshot_path()).unwrap();
        std::fs::copy(durability.wal_path(), copy.wal_path()).unwrap();
        if durability.checkpoint_path().exists() {
            std::fs::copy(durability.checkpoint_path(), copy.checkpoint_path()).unwrap();
        }
        copy
    }

    /// Recovery under the conservative restore: `open` restores
    /// `exact_fixpoint = false`, because snapshot 0 holds the ruler-gated
    /// cold values, so a reopened PageRank server's first restart re-pulls
    /// every vertex. That must serve the live server's bits whether the WAL
    /// replays from snapshot 0 or a snapshot taken at a settled state (where
    /// the live server's next restart pulls selectively and the reopened
    /// copy's does not).
    #[test]
    fn reopened_pagerank_server_serves_the_live_bits() {
        let dir = durable_dir("pagerank-live");
        let graph = generators::rmat(4000, 32_000, 0.57, 0.19, 0.19, 97);
        let make = |g: &Graph| PageRankProgram::for_graph(g);
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(100);
        let mut live = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        assert!(!live.result().exact_fixpoint, "the cold run is ruler-gated");
        let mut current = graph;
        let batches: Vec<UpdateBatch> = (0..5u64)
            .map(|round| {
                let batch = mixed_batch(&current, round + 900, 16);
                current = current.apply_batch(&batch).0;
                batch
            })
            .collect();

        // Three batches, replayed on open from snapshot 0.
        for batch in &batches[..3] {
            assert!(!live.try_apply(batch).unwrap().full_recompute);
        }
        assert!(live.result().exact_fixpoint);
        let replay = copy_durable_state(&durability, "pagerank-replay");
        let reopened = DeltaServer::open(make, ServerConfig::default(), replay.clone()).unwrap();
        assert_eq!(
            reopened.durability_counters().unwrap().wal_entries_replayed,
            3
        );
        assert_eq!(bits(reopened.values()), bits(live.values()));

        // A snapshot at a settled state: the live server's next restart
        // pulls selectively, the reopened copy's re-pulls every vertex.
        live.snapshot().unwrap();
        let settled = copy_durable_state(&durability, "pagerank-settled");
        let mut copy = DeltaServer::open(make, ServerConfig::default(), settled.clone()).unwrap();
        assert!(!copy.result().exact_fixpoint);
        for (round, batch) in batches[3..].iter().enumerate() {
            let selective = live.try_apply(batch).unwrap();
            let conservative = copy.try_apply(batch).unwrap();
            if round == 0 {
                assert!(
                    selective.work < conservative.work,
                    "the live restart should pull selectively ({} vs {})",
                    selective.work,
                    conservative.work
                );
            }
            assert_eq!(
                bits(copy.values()),
                bits(live.values()),
                "batch {round} after the settled snapshot"
            );
        }
        for d in [&durability, &replay, &settled] {
            std::fs::remove_dir_all(&d.dir).unwrap();
        }
    }

    /// Replay skips WAL entries the snapshot already covers — the state a
    /// crash between the snapshot rename and the WAL trim leaves behind.
    #[test]
    fn replay_skips_entries_the_snapshot_already_covers() {
        let dir = durable_dir("idempotent");
        let graph = generators::rmat(300, 2000, 0.57, 0.19, 0.19, 67);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        // Cadence high enough that nothing snapshots on its own.
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(100);
        let mut server = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        let mut current = graph;
        for round in 0..3u64 {
            let batch = mixed_batch(&current, round + 40, 15);
            server.try_apply(&batch).unwrap();
            current = current.apply_batch(&batch).0;
        }
        let expected = bits(server.values());
        // Freeze the WAL as it stands, snapshot (which trims it), then put
        // the stale WAL back: every entry is now ≤ the snapshot's sequence.
        let stale_wal = std::fs::read(durability.wal_path()).unwrap();
        server.snapshot().unwrap();
        std::fs::write(durability.wal_path(), &stale_wal).unwrap();
        drop(server);

        let reopened = DeltaServer::open(make, ServerConfig::default(), durability).unwrap();
        assert_eq!(
            reopened.durability_counters().unwrap().wal_entries_replayed,
            0,
            "entries covered by the snapshot must not be re-applied"
        );
        assert_eq!(bits(reopened.values()), expected);
        assert_eq!(reopened.stats().batches_applied, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn WAL tail (the write the kill interrupted) rolls back to the
    /// last fully logged batch — recovery serves that prefix's exact values.
    #[test]
    fn torn_wal_tail_recovers_the_last_fully_logged_batch() {
        let dir = durable_dir("torn");
        let graph = generators::rmat(300, 2000, 0.57, 0.19, 0.19, 71);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(100);
        let mut server = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        let mut witness = sssp_server(graph.clone(), root, ServerConfig::default());
        let mut current = graph;
        let mut wal_after = Vec::new();
        for round in 0..4u64 {
            let batch = mixed_batch(&current, round + 4000, 12);
            server.try_apply(&batch).unwrap();
            current = current.apply_batch(&batch).0;
            if round < 3 {
                witness.try_apply(&batch).unwrap();
            }
            wal_after.push(std::fs::metadata(durability.wal_path()).unwrap().len());
        }
        drop(server);
        // Tear the 4th entry: keep a strict prefix of its frame.
        let full = std::fs::read(durability.wal_path()).unwrap();
        std::fs::write(
            durability.wal_path(),
            &full[..(wal_after[2] as usize + 5).min(full.len())],
        )
        .unwrap();

        let reopened = DeltaServer::open(make, ServerConfig::default(), durability).unwrap();
        assert_eq!(bits(reopened.values()), bits(witness.values()));
        assert_eq!(reopened.stats().batches_applied, 3);
        assert!(reopened.durability_counters().unwrap().wal_bytes_truncated > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Warm restarts never read the rulers: warm batches, one that grows |V|
    /// included, leave the engine's guidance stale without regenerating it,
    /// the first `guidance()` read after them regenerates it, a second read
    /// reuses it, and a full-recompute batch leaves it current.
    #[test]
    fn warm_batches_never_touch_the_guidance() {
        let graph = generators::rmat(500, 3500, 0.57, 0.19, 0.19, 83);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let mut server = sssp_server(graph.clone(), root, ServerConfig::default());
        assert!(server.engine.guidance_is_current());
        let mut current = graph;
        for round in 0..3u64 {
            let batch = mixed_batch(&current, round + 640, 20);
            let outcome = server.try_apply(&batch).unwrap();
            current = current.apply_batch(&batch).0;
            assert!(!outcome.full_recompute, "round {round} must stay warm");
            assert_eq!(outcome.effect.vertices_added, 0);
            assert!(
                !server.engine.guidance_is_current(),
                "round {round}: the warm path regenerated the guidance"
            );
        }
        let mut grow = mixed_batch(&current, 643, 20);
        grow.insert(0, current.num_vertices() as VertexId + 3, 1.5);
        let outcome = server.try_apply(&grow).unwrap();
        current = current.apply_batch(&grow).0;
        assert!(!outcome.full_recompute, "the growth round must stay warm");
        assert_eq!(outcome.effect.vertices_added, 4);
        assert!(!server.engine.guidance_is_current());
        // The first read regenerates; a second one reuses that guidance.
        assert_eq!(*server.guidance(), RrGuidance::generate(&current));
        assert!(server.engine.guidance_is_current());
        let regenerated: *const RrGuidance = server.guidance();
        assert!(std::ptr::eq(server.guidance(), regenerated));

        // A cold run reads the rulers, so it leaves the guidance current.
        server.config.full_recompute_dirty_fraction = 0.0;
        let batch = mixed_batch(&current, 650, 20);
        assert!(server.try_apply(&batch).unwrap().full_recompute);
        current = current.apply_batch(&batch).0;
        assert!(server.engine.guidance_is_current());
        assert_eq!(*server.engine.guidance(), RrGuidance::generate(&current));
    }

    /// Out-of-core serving, durable or not: a batch that leaves more than
    /// half of the segment-file bytes dead compacts them in its own
    /// `compact` stage, so dead bytes never outweigh live ones after a
    /// batch, and compaction never perturbs values. A `try_new` server never
    /// writes a state file, so before compaction left the state-write path
    /// its files grew by every rewritten segment, forever.
    #[test]
    fn batches_compact_the_segment_files_once_dead_bytes_outweigh_live() {
        let dir = durable_dir("compact");
        let graph = generators::rmat(600, 4200, 0.57, 0.19, 0.19, 89);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let oocore = ServerConfig {
            engine: EngineConfig::default()
                .with_storage_budget(24 << 10)
                .with_storage_segment_bytes(2 << 10),
            ..ServerConfig::default()
        };
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(2);
        let mut durable =
            DeltaServer::create_durable(graph.clone(), make, oocore.clone(), durability).unwrap();
        let mut plain = DeltaServer::try_new(graph.clone(), make, oocore).unwrap();
        let mut witness = sssp_server(graph.clone(), root, ServerConfig::default());
        let mut current = graph;
        let mut compacted = [0u64; 2];
        for round in 0..8u64 {
            let batch = mixed_batch(&current, round + 7000, 25);
            witness.try_apply(&batch).unwrap();
            current = current.apply_batch(&batch).0;
            for (i, server) in [&mut durable, &mut plain].into_iter().enumerate() {
                let outcome = server.try_apply(&batch).unwrap();
                let tag = format!("round {round}, server {i}");
                assert_eq!(bits(server.values()), bits(witness.values()), "{tag}");
                assert!(!outcome.degraded, "{tag}");
                let s = server.storage().unwrap();
                assert_eq!(
                    (outcome.storage_live_bytes, outcome.storage_dead_bytes),
                    (s.footprint_bytes(), s.dead_bytes()),
                    "{tag}: the outcome reports the bytes the batch left"
                );
                assert!(outcome.storage_live_bytes > 0);
                assert!(
                    outcome.storage_dead_bytes <= outcome.storage_live_bytes,
                    "{tag}: {} dead bytes over {} live",
                    outcome.storage_dead_bytes,
                    outcome.storage_live_bytes
                );
                let stages: Vec<_> = outcome.stages.iter().map(|&(name, _)| name).collect();
                let compact = stages.iter().position(|&n| n == "compact");
                if let Some(at) = compact {
                    assert_eq!(stages[at - 1], "publish", "{tag}: {stages:?}");
                    assert_eq!(outcome.storage_dead_bytes, 0, "{tag}");
                    compacted[i] += 1;
                }
            }
        }
        assert!(compacted.iter().all(|&c| c >= 1), "{compacted:?}");
        let counters = durable.durability_counters().unwrap();
        assert_eq!(counters.compactions, compacted[0]);
        assert!(counters.compaction_bytes_reclaimed > 0);
        assert!(counters.snapshots_written >= 4);
        let reg = plain.metrics_registry();
        assert_eq!(
            reg.get("slfe_storage_compactions_total").unwrap().value,
            compacted[1] as f64,
            "a server without durability state counts its compactions too"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A compaction that fails marks the server degraded — in its health
    /// and in the registry — and waits `COMPACTION_RETRY_BATCHES` batches
    /// before the next attempt; a later success clears the degradation.
    /// The failure is forced by removing the storage directory under a
    /// serving server: patches keep appending through the open segment
    /// files, but a compaction cannot create new ones.
    #[test]
    fn a_failed_compaction_degrades_the_server_until_a_retry_succeeds() {
        let dir = durable_dir("compact-fail");
        let graph = generators::rmat(600, 4200, 0.57, 0.19, 0.19, 89);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let oocore = ServerConfig {
            engine: EngineConfig::default()
                .with_storage_budget(24 << 10)
                .with_storage_segment_bytes(2 << 10)
                .with_storage_dir(&dir),
            ..ServerConfig::default()
        };
        let mut server = sssp_server(graph.clone(), root, oocore);
        let mut witness = sssp_server(graph, root, ServerConfig::default());
        std::fs::remove_dir_all(&dir).unwrap();
        let mut round = 0u64;
        let mut apply = |server: &mut DeltaServer<SsspProgram, _>| {
            let batch = mixed_batch(witness.graph(), round + 7100, 25);
            round += 1;
            witness.try_apply(&batch).unwrap();
            let outcome = server.try_apply(&batch).unwrap();
            assert_eq!(bits(server.values()), bits(witness.values()));
            let compacted = outcome.stages.iter().any(|&(name, _)| name == "compact");
            (compacted, outcome)
        };
        let degraded = |server: &DeltaServer<SsspProgram, _>| {
            let reg = server.metrics_registry();
            (
                server.health().is_degraded(),
                reg.get("slfe_health_degraded").unwrap().value,
                reg.get("slfe_storage_compaction_failures_total")
                    .unwrap()
                    .value,
            )
        };
        while !apply(&mut server).0 {
            assert!(server.stats().batches_applied < 20, "no batch compacted");
        }
        assert_eq!(degraded(&server), (true, 1.0, 1.0));
        assert!(!server.health().is_read_only());
        assert!(server.health().last_compaction_error().is_some());

        std::fs::create_dir_all(&dir).unwrap();
        for _ in 1..COMPACTION_RETRY_BATCHES {
            let (compacted, outcome) = apply(&mut server);
            assert!(!compacted && !outcome.degraded);
            assert!(outcome.storage_dead_bytes > outcome.storage_live_bytes);
            assert_eq!(degraded(&server), (true, 1.0, 1.0));
        }
        let (compacted, outcome) = apply(&mut server);
        assert!(compacted && !outcome.degraded);
        assert_eq!(outcome.storage_dead_bytes, 0);
        assert_eq!(degraded(&server), (false, 0.0, 1.0));
        let reg = server.metrics_registry();
        assert_eq!(
            reg.get("slfe_storage_compactions_total").unwrap().value,
            1.0
        );
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Corruption surfaces as structured errors, never a panic.
    #[test]
    fn corrupt_or_missing_snapshots_are_structured_errors() {
        let dir = durable_dir("corrupt");
        let make = |_: &Graph| SsspProgram { root: 0 };
        let durability = DurabilityConfig::new(&dir);
        match DeltaServer::open(make, ServerConfig::default(), durability.clone()) {
            Err(crate::DurabilityError::MissingSnapshot(_)) => {}
            other => panic!(
                "expected MissingSnapshot, got {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
        let graph = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 97);
        let server =
            DeltaServer::create_durable(graph, make, ServerConfig::default(), durability.clone())
                .unwrap();
        drop(server);
        // Flip one byte in the middle of the snapshot: checksum must catch it.
        let mut bytes = std::fs::read(durability.snapshot_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(durability.snapshot_path(), &bytes).unwrap();
        match DeltaServer::open(make, ServerConfig::default(), durability) {
            Err(crate::DurabilityError::CorruptSnapshot { .. }) => {}
            other => panic!(
                "expected CorruptSnapshot, got {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The snapshot holds the header, four stats, the graph, the values, the
    /// owners and the remap flag under one CRC, and no guidance: `open`
    /// regenerates it. A snapshot that declares an earlier format version
    /// (which stored the guidance) is refused typed, never read.
    #[test]
    fn snapshots_store_no_guidance_and_refuse_earlier_versions() {
        use slfe_graph::io::binary;
        let dir = durable_dir("format");
        let graph = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 37);
        let make = |_: &Graph| SsspProgram { root: 0 };
        let durability = DurabilityConfig::new(&dir);
        let server =
            DeltaServer::create_durable(graph, make, ServerConfig::default(), durability.clone())
                .unwrap();
        let n = server.graph().num_vertices();
        let mut graph_section = Vec::new();
        binary::write_graph(&mut graph_section, server.graph()).unwrap();
        drop(server);
        let header = 4 + 4 + 1 + 8; // magic, version, value tag, sequence
        let stats = 4 * 8;
        let values = 8 + 4 * n; // count, one f32 each
        let owners = 8 + 8 + 4 * n; // node count, owner count, one u32 each
        let (remap_flag, crc) = (1, 4);
        let mut bytes = std::fs::read(durability.snapshot_path()).unwrap();
        assert_eq!(
            bytes.len(),
            header + stats + graph_section.len() + values + owners + remap_flag + crc
        );
        for version in [1u32, 2] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let body = bytes.len() - 4;
            let checksum = binary::crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&checksum.to_le_bytes());
            std::fs::write(durability.snapshot_path(), &bytes).unwrap();
            match DeltaServer::open(make, ServerConfig::default(), durability.clone()) {
                Err(DurabilityError::CorruptSnapshot {
                    reason: "unknown version",
                }) => {}
                other => panic!(
                    "version {version}: expected an unknown-version refusal, got {:?}",
                    other.err().map(|e| e.to_string())
                ),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A durable, out-of-core, telemetry-on server surfaces fsync / batch /
    /// segment-fault latency histograms, server spans, and a fully populated
    /// metrics registry.
    #[test]
    fn durable_server_telemetry_collects_spans_histograms_and_metrics() {
        let dir = durable_dir("telemetry");
        let graph = generators::rmat(400, 2800, 0.57, 0.19, 0.19, 13);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let config = ServerConfig {
            engine: EngineConfig::default()
                .with_telemetry(true)
                .with_storage_budget(24 << 10)
                .with_storage_segment_bytes(2 << 10),
            ..ServerConfig::default()
        };
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(2);
        let mut server =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability.clone())
                .unwrap();
        let mut current = graph;
        for round in 0..3u64 {
            let batch = mixed_batch(&current, round + 150, 15);
            let outcome = server.try_apply(&batch).unwrap();
            assert!(outcome.converged);
            assert!(
                outcome.wal_fsync_seconds > 0.0,
                "round {round}: durable apply must report its fsync latency"
            );
            current = current.apply_batch(&batch).0;
        }
        let snap = server.telemetry();
        for hist in [
            slfe_metrics::HIST_WAL_FSYNC,
            slfe_metrics::HIST_BATCH_APPLY,
            slfe_metrics::HIST_ITERATION_WALL,
            slfe_metrics::HIST_SEGMENT_FAULT,
        ] {
            let h = snap
                .histogram(hist)
                .unwrap_or_else(|| panic!("histogram {hist} missing"));
            assert!(!h.is_empty(), "histogram {hist} recorded nothing");
            assert!(h.percentile(0.99).unwrap() >= h.percentile(0.5).unwrap());
        }
        assert_eq!(
            snap.histogram(slfe_metrics::HIST_WAL_FSYNC)
                .unwrap()
                .count(),
            3
        );
        for span in [
            "batch",
            "wal_append",
            "graph_patch",
            "segment_patch",
            "layout_patch",
            "guidance_repair",
            "warm_restart",
            "publish",
            "snapshot",
            "iteration",
            "execute",
        ] {
            assert!(
                snap.spans.iter().any(|s| s.name == span),
                "span {span} never recorded"
            );
        }
        // One `batch` span per apply, each holding its stage spans.
        let batches: Vec<_> = snap.spans.iter().filter(|s| s.name == "batch").collect();
        assert_eq!(batches.len(), 3);
        for stage in snap
            .spans
            .iter()
            .filter(|s| s.name == "graph_patch" || s.name == "publish")
        {
            assert!(batches.iter().any(|b| stage.start_ns >= b.start_ns
                && stage.start_ns + stage.dur_ns <= b.start_ns + b.dur_ns));
        }
        // The trace document round-trips through the real JSON parser.
        let doc = snap.chrome_trace();
        let parsed = slfe_metrics::json::parse(&doc).unwrap();
        assert!(!parsed
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());

        let reg = server.metrics_registry();
        assert_eq!(reg.get("slfe_wal_fsyncs_total").unwrap().value, 3.0);
        assert_eq!(
            reg.get("slfe_server_batches_applied_total").unwrap().value,
            3.0
        );
        assert!(
            reg.get("slfe_storage_segments_faulted_total")
                .unwrap()
                .value
                > 0.0
        );
        assert!(reg.get("slfe_storage_live_bytes").unwrap().value > 0.0);
        let workers = server.config().cluster.total_workers();
        for w in 0..workers {
            let label = w.to_string();
            let busy = reg
                .get_with("slfe_pool_worker_busy_fraction", &[("worker", &label)])
                .unwrap()
                .value;
            assert!((0.0..=1.0).contains(&busy));
        }
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE slfe_wal_fsyncs_total counter"));
        assert!(text.contains("slfe_pool_worker_busy_fraction{worker=\"0\"}"));

        // Replay drives the same pipeline: one `batch` span per replayed
        // entry (the snapshot at seq 2 leaves entry 3), no WAL append.
        drop(server);
        let reopened = DeltaServer::open(make, config, durability).unwrap();
        let spans = reopened.telemetry().spans;
        assert_eq!(spans.iter().filter(|s| s.name == "batch").count(), 1);
        assert!(spans.iter().any(|s| s.name == "segment_patch"));
        assert!(!spans.iter().any(|s| s.name == "wal_append"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// With telemetry off (the default) the hub stays empty while the metrics
    /// registry — which reads always-on counters — remains fully usable.
    #[test]
    fn telemetry_off_server_collects_nothing_but_still_reports_metrics() {
        let graph = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 29);
        let mut server = sssp_server(graph.clone(), 0, ServerConfig::default());
        let outcome = server.try_apply(&mixed_batch(&graph, 9, 10)).unwrap();
        assert_eq!(outcome.wal_fsync_seconds, 0.0);
        let snap = server.telemetry();
        assert!(snap.spans.is_empty());
        assert!(snap.histograms.is_empty());
        let reg = server.metrics_registry();
        assert_eq!(
            reg.get("slfe_server_batches_applied_total").unwrap().value,
            1.0
        );
        assert!(reg.get("slfe_pool_phases_total").unwrap().value > 0.0);
        assert!(reg.get("slfe_wal_fsyncs_total").is_none(), "not durable");
        assert!(reg.get("slfe_storage_live_bytes").is_none(), "in-memory");
    }

    #[test]
    fn pool_metrics_count_inline_phases() {
        let graph = generators::rmat(8000, 64_000, 0.57, 0.19, 0.19, 43);
        let mut server = sssp_server(graph.clone(), 0, ServerConfig::default());
        let cold = server.pool().activity();
        assert!(
            cold.phases > cold.inline_phases,
            "the cold run woke the pool"
        );
        // A one-edge insert from a reached low-degree vertex: its restart's
        // pushes read a few lists, far below the inline grain.
        let src = (1..8000)
            .find(|&v| server.values()[v as usize].is_finite() && graph.out_degree(v) < 8)
            .unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(src, 7999, 0.5);
        server.try_apply(&batch).unwrap();
        let warm = server.pool().activity();
        assert!(warm.inline_phases > cold.inline_phases, "no inline phase");
        let reg = server.metrics_registry();
        assert_eq!(
            reg.get("slfe_pool_phases_total").unwrap().value,
            warm.phases as f64
        );
        assert_eq!(
            reg.get("slfe_pool_inline_phases_total").unwrap().value,
            warm.inline_phases as f64
        );
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let graph = generators::rmat(150, 900, 0.57, 0.19, 0.19, 41);
        let mut server = sssp_server(graph, 0, ServerConfig::default());
        let before = server.values().to_vec();
        let outcome = server.try_apply(&UpdateBatch::new()).unwrap();
        assert!(outcome.effect.is_noop());
        assert_eq!(outcome.work, 0);
        assert_eq!(outcome.iterations, 0);
        assert_eq!(outcome.distribution_messages, 0);
        assert_eq!(server.values(), before.as_slice());
        // A no-op goes from the graph patch straight to publish.
        let stages: Vec<_> = outcome.stages.iter().map(|&(name, _)| name).collect();
        assert_eq!(stages, ["graph_patch", "publish"]);
        assert_eq!(server.stats().batches_applied, 1);
    }

    #[test]
    fn vertex_growth_limit_admits_exactly_the_limit() {
        let limit = MAX_VERTEX_GROWTH as VertexId;
        assert!(!exceeds_vertex_growth(99 + limit, 100));
        assert!(exceeds_vertex_growth(100 + limit, 100));
        assert!(exceeds_vertex_growth(slfe_graph::INVALID_VERTEX, 0));
    }

    /// An endpoint far past the graph is refused before the WAL append: the
    /// log and the served state are untouched, the server stays read-write,
    /// and later batches apply as if the bad one never came.
    #[test]
    fn out_of_range_vertex_is_refused_before_the_wal() {
        let dir = durable_dir("range");
        let graph = generators::rmat(300, 2000, 0.57, 0.19, 0.19, 73);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(100);
        let mut server = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        let mut witness = sssp_server(graph.clone(), root, ServerConfig::default());
        let wal_bytes = std::fs::metadata(durability.wal_path()).unwrap().len();
        let before = bits(server.values());

        let mut bad = UpdateBatch::new();
        bad.insert(0, 1, 1.0).insert(0, 3_000_000_000, 1.0);
        match server.try_apply(&bad) {
            Err(ApplyError::VertexOutOfRange {
                vertex,
                num_vertices,
            }) => assert_eq!((vertex, num_vertices), (3_000_000_000, 300)),
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
        assert_eq!(server.wal_seq(), Some(0));
        assert_eq!(
            std::fs::metadata(durability.wal_path()).unwrap().len(),
            wal_bytes
        );
        assert_eq!(bits(server.values()), before);
        assert!(!server.health().is_read_only());
        assert_eq!(server.stats().batches_applied, 0);

        let batch = mixed_batch(&graph, 74, 15);
        server.try_apply(&batch).unwrap();
        witness.try_apply(&batch).unwrap();
        assert_eq!(bits(server.values()), bits(witness.values()));
        assert_eq!(server.wal_seq(), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A WAL that already holds an out-of-range batch (written by a build
    /// without the admission check) makes `open` fail typed instead of
    /// allocating for billions of vertices.
    #[test]
    fn open_over_a_logged_out_of_range_batch_fails_typed() {
        let dir = durable_dir("range-replay");
        let graph = generators::rmat(300, 2000, 0.57, 0.19, 0.19, 79);
        let make = |_: &Graph| SsspProgram { root: 0 };
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(100);
        let mut server = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        server.try_apply(&mixed_batch(&graph, 80, 10)).unwrap();
        drop(server);
        let (mut wal, replay) = Wal::open(&durability.wal_path()).unwrap();
        assert_eq!(replay.entries.len(), 1);
        let mut bad = UpdateBatch::new();
        bad.insert(0, 3_000_000_000, 1.0);
        wal.append(2, &bad).unwrap();
        drop(wal);

        match DeltaServer::open(make, ServerConfig::default(), durability) {
            Err(DurabilityError::Replay {
                seq: 2,
                error: ApplyError::VertexOutOfRange { vertex, .. },
            }) => assert_eq!(vertex, 3_000_000_000),
            other => panic!(
                "expected a typed replay error, got {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `snapshot()` on a server built without durability state is refused
    /// with a typed error instead of a panic, and the server keeps answering
    /// queries and applying batches afterwards.
    #[test]
    fn snapshot_on_a_non_durable_server_is_refused_and_serving_continues() {
        let graph = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 43);
        let mut server = sssp_server(graph.clone(), 0, ServerConfig::default());
        let before = bits(server.values());
        let err = server.snapshot().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert_eq!(bits(server.values()), before);
        assert_eq!(server.value(0), Some(0.0));
        assert_eq!(server.top_k_by(1, |a, b| b.total_cmp(a)), vec![(0, 0.0)]);
        assert!(!server.health().is_read_only());
        assert!(server.durability_counters().is_none());
        let batch = mixed_batch(&graph, 12, 10);
        let outcome = server.try_apply(&batch).unwrap();
        assert!(outcome.converged);
        let oracle = SlfeEngine::build(
            &graph.apply_batch(&batch).0,
            ServerConfig::default().cluster,
            EngineConfig::default(),
        )
        .run(&SsspProgram { root: 0 });
        assert_eq!(bits(server.values()), bits(&oracle.values));
    }

    /// `ops` upserts of existing single-copy edges with fresh weights: every
    /// degree stays put, so a degree-ordered layout stays in place.
    fn reweight_batch(graph: &Graph, seed: u64, ops: usize) -> UpdateBatch {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = graph.num_vertices() as u32;
        let mut batch = UpdateBatch::new();
        for _ in 0..ops {
            let src = rng.range_u32(0, n);
            let outs = graph.out_neighbors(src);
            if outs.is_empty() {
                continue;
            }
            let dst = outs[rng.range_usize(0, outs.len())];
            if outs.iter().filter(|&&t| t == dst).count() == 1 {
                batch.insert(src, dst, rng.range_f32(1.0, 10.0));
            }
        }
        batch
    }

    /// The graph the recovery-window tests serve: large enough (a ≈440 KB
    /// base) that 4-update batches write several checkpoints per base.
    fn window_graph() -> Graph {
        generators::rmat(3000, 24_000, 0.57, 0.19, 0.19, 131)
    }

    /// Both graphs hold the same adjacency bytes in the same physical
    /// layout.
    fn same_graph(a: &Graph, b: &Graph) -> bool {
        let encode = |g: &Graph| {
            let mut out = Vec::new();
            slfe_graph::io::binary::write_graph(&mut out, g).unwrap();
            out.extend(
                (0..g.num_vertices() as VertexId).flat_map(|v| g.external_id(v).to_le_bytes()),
            );
            out
        };
        encode(a) == encode(b)
    }

    /// The live server's recovery point: (base, last state write, last
    /// logged batch) sequence numbers.
    fn recovery_point<P: GraphProgram, F: Fn(&Graph) -> P>(
        server: &DeltaServer<P, F>,
    ) -> (u64, u64, u64) {
        let d = server.durability.as_ref().unwrap();
        (d.base.seq, d.state_seq, d.seq)
    }

    /// Drive a durable server and an uninterrupted in-memory witness through
    /// the same batches (growth first, then weight-only ones that keep every
    /// degree), reopening a copy of the durable state after every batch.
    /// Each reopen must serve the witness's bits, fold exactly the entries
    /// between its base and its last state write into the graph, and run the
    /// engine only on the entries past that write: a reopen that replayed
    /// nothing never ran a pool phase. Returns how often the reopen landed
    /// on a base, between a base and the next state write, and past a
    /// checkpoint.
    fn check_recovery_windows<P, F>(tag: &str, make: F, reorder: ReorderPolicy) -> [u32; 3]
    where
        P: GraphProgram<Value = f32>,
        F: Fn(&Graph) -> P + Copy,
    {
        let graph = window_graph();
        let config = ServerConfig::default().with_reorder(reorder);
        let tag = format!("{tag}-{reorder:?}");
        let durability =
            DurabilityConfig::new(durable_dir(&format!("windows-{tag}"))).with_snapshot_every(2);
        let mut live =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability.clone())
                .unwrap();
        let mut witness = DeltaServer::try_new(graph, make, ServerConfig::default()).unwrap();
        let mut windows = [0u32; 3];
        for i in 0..16u64 {
            // Batches speak external ids; draw them from the unremapped
            // witness.
            let batch = if i < 8 {
                random_batch(witness.graph(), 3000 + i, 4, GROW)
            } else {
                reweight_batch(witness.graph(), 3000 + i, 4)
            };
            live.try_apply(&batch).unwrap();
            witness.try_apply(&batch).unwrap();
            let (base_seq, state_seq, seq) = recovery_point(&live);
            let at = format!("{tag}, batch {i}");
            let copy = copy_durable_state(&durability, &format!("windows-{tag}-copy"));
            let reopened = DeltaServer::open(make, config.clone(), copy.clone()).unwrap();
            assert_eq!(bits(reopened.values()), bits(witness.values()), "{at}");
            assert_eq!(
                reopened.stats().batches_applied,
                live.stats().batches_applied,
                "{at}"
            );
            assert!(
                same_graph(reopened.graph(), live.graph()),
                "{at}: the refold built another graph"
            );
            let counters = reopened.durability_counters().unwrap();
            assert_eq!(counters.wal_entries_refolded, state_seq - base_seq, "{at}");
            assert_eq!(counters.wal_entries_replayed, seq - state_seq, "{at}");
            assert_eq!(
                reopened.pool().activity().phases == 0,
                seq == state_seq,
                "{at}: the engine ran for entries under the recovery point"
            );
            assert_eq!(
                recovery_point(&reopened),
                (base_seq, state_seq, seq),
                "{at}"
            );
            let reg = reopened.metrics_registry();
            assert_eq!(
                reg.get("slfe_wal_entries_refolded_total").unwrap().value,
                (state_seq - base_seq) as f64
            );
            windows[match (state_seq == base_seq, seq == state_seq) {
                (true, true) => 0,
                (true, false) => 1,
                (false, _) => 2,
            }] += 1;
            drop(reopened);
            std::fs::remove_dir_all(&copy.dir).unwrap();
        }
        let counters = live.durability_counters().unwrap();
        assert!(counters.base_writes >= 2, "{tag}: {counters:?}");
        drop(live);
        std::fs::remove_dir_all(&durability.dir).unwrap();
        windows
    }

    /// Recovery at every point of the base/checkpoint cycle is bit-identical
    /// to an uninterrupted run, for a min/max and an arithmetic program, on
    /// the identity layout and on a degree-descending one (a state write
    /// that finds the degrees reordered remaps and writes a base; the
    /// weight-only batches then put checkpoints over a remapped base, whose
    /// refold translates every logged id), with vertex growth.
    #[test]
    fn reopen_is_bit_identical_on_a_base_between_state_writes_and_past_a_checkpoint() {
        let root = stats::highest_out_degree_vertex(&window_graph()).unwrap();
        let sssp = move |g: &Graph| SsspProgram {
            root: g.to_physical(root),
        };
        for reorder in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            for windows in [
                check_recovery_windows("sssp", sssp, reorder),
                check_recovery_windows("pr", PageRankProgram::for_graph, reorder),
            ] {
                assert!(
                    windows.iter().all(|&w| w > 0),
                    "{reorder:?}: reopens on a base, between state writes and \
                     past a checkpoint: {windows:?}"
                );
            }
        }
    }

    /// A checkpoint that cannot extend the base is ignored, and the reopen
    /// still serves the witness's bits by replaying everything past the
    /// base: one with a flipped byte, one read short, one naming the base's
    /// sequence number with another CRC, one naming an earlier base, and
    /// one covering entries a torn WAL no longer holds.
    #[test]
    fn stale_corrupt_or_too_new_checkpoints_are_ignored() {
        let graph = window_graph();
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let durability = DurabilityConfig::new(durable_dir("ignored")).with_snapshot_every(2);
        let mut live = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        let mut witness = sssp_server(graph, root, ServerConfig::default());
        // The witness's values and the WAL's length after each batch.
        let mut after = Vec::new();
        let mut wal_after = Vec::new();
        let mut apply = |live: &mut DeltaServer<SsspProgram, _>, after: &mut Vec<_>, i: u64| {
            let batch = random_batch(witness.graph(), 5000 + i, 4, GROW);
            live.try_apply(&batch).unwrap();
            witness.try_apply(&batch).unwrap();
            after.push(bits(witness.values()));
            std::fs::metadata(durability.wal_path()).unwrap().len()
        };
        for i in 0..4 {
            wal_after.push(apply(&mut live, &mut after, i));
        }
        assert_eq!(recovery_point(&live), (0, 4, 4), "a checkpoint past base 0");
        // Open a copy whose checkpoint `spoil` changed: it must be ignored.
        let check = |spoil: &dyn Fn(&DurabilityConfig),
                     config: ServerConfig,
                     after: &[Vec<u32>],
                     at: &str| {
            let copy = copy_durable_state(&durability, "ignored-copy");
            spoil(&copy);
            let reopened = DeltaServer::open(make, config, copy.clone()).unwrap();
            let (base_seq, _, _) = recovery_point(&reopened);
            let applied = reopened.stats().batches_applied;
            assert_eq!(bits(reopened.values()), after[applied as usize - 1], "{at}");
            let counters = reopened.durability_counters().unwrap();
            assert_eq!(counters.wal_entries_refolded, 0, "{at}");
            assert_eq!(counters.wal_entries_replayed, applied - base_seq, "{at}");
            drop(reopened);
            std::fs::remove_dir_all(&copy.dir).unwrap();
            applied
        };
        let rewrite = |copy: &DurabilityConfig, edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = std::fs::read(copy.checkpoint_path()).unwrap();
            edit(&mut bytes);
            std::fs::write(copy.checkpoint_path(), bytes).unwrap();
        };
        let flip = |copy: &DurabilityConfig| {
            rewrite(copy, &|b| {
                let mid = b.len() / 2;
                b[mid] ^= 0x10;
            })
        };
        assert_eq!(check(&flip, ServerConfig::default(), &after, "flipped"), 4);
        let short = ServerConfig {
            fault_plan: Some(FaultPlan::new().fail(
                FaultSite::CheckpointRead,
                0,
                slfe_graph::FaultKind::ShortIo,
            )),
            ..ServerConfig::default()
        };
        assert_eq!(check(&|_| {}, short, &after, "short read"), 4);
        // Header: magic, version, value tag, sequence, base sequence, base
        // CRC. Re-checksum after the edit, so only the base CRC is wrong.
        let other_crc = |copy: &DurabilityConfig| {
            rewrite(copy, &|b| {
                b[25] ^= 0x01;
                let body = b.len() - 4;
                let crc = slfe_graph::io::binary::crc32(&b[..body]);
                b[body..].copy_from_slice(&crc.to_le_bytes());
            })
        };
        assert_eq!(
            check(&other_crc, ServerConfig::default(), &after, "other CRC"),
            4
        );
        let torn = |copy: &DurabilityConfig| {
            let wal = std::fs::read(copy.wal_path()).unwrap();
            std::fs::write(copy.wal_path(), &wal[..wal_after[2] as usize + 7]).unwrap();
        };
        assert_eq!(check(&torn, ServerConfig::default(), &after, "torn WAL"), 3);

        // An earlier base's checkpoint put back over a later base.
        let stale = std::fs::read(durability.checkpoint_path()).unwrap();
        let mut i = 4;
        while {
            let (base_seq, _, seq) = recovery_point(&live);
            base_seq == 0 || seq == base_seq
        } {
            apply(&mut live, &mut after, i);
            i += 1;
        }
        let put_back = |copy: &DurabilityConfig| {
            std::fs::write(copy.checkpoint_path(), &stale).unwrap();
        };
        assert_eq!(
            check(&put_back, ServerConfig::default(), &after, "stale"),
            i
        );
        drop(live);
        std::fs::remove_dir_all(&durability.dir).unwrap();
    }

    /// A checkpoint names its base by sequence number and CRC only, and a
    /// new life from the same graph writes the same base 0: `create_durable`
    /// deletes the previous life's checkpoint, so a reopen of the new life
    /// never refolds the new WAL under the old values.
    #[test]
    fn a_new_life_never_reads_the_previous_lifes_checkpoint() {
        let graph = window_graph();
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let dir = durable_dir("lives");
        let mut first = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            DurabilityConfig::new(&dir).with_snapshot_every(2),
        )
        .unwrap();
        for i in 0..2 {
            first
                .try_apply(&random_batch(first.graph(), 6000 + i, 4, GROW))
                .unwrap();
        }
        assert_eq!(recovery_point(&first), (0, 2, 2));
        drop(first);

        let durability = DurabilityConfig::new(&dir).with_snapshot_every(100);
        let mut second = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        assert!(!durability.checkpoint_path().exists());
        let mut witness = sssp_server(graph, root, ServerConfig::default());
        for i in 0..2 {
            let batch = random_batch(witness.graph(), 6100 + i, 4, GROW);
            second.try_apply(&batch).unwrap();
            witness.try_apply(&batch).unwrap();
        }
        drop(second);
        let reopened = DeltaServer::open(make, ServerConfig::default(), durability).unwrap();
        assert_eq!(bits(reopened.values()), bits(witness.values()));
        assert_eq!(
            reopened.durability_counters().unwrap().wal_entries_refolded,
            0
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint `open` cannot use is deleted before the reopened server
    /// logs anything: the batches it logs next reuse the sequence numbers
    /// the checkpoint covers, and a later open that found the old file would
    /// refold the new history under the old values. Here the WAL loses a
    /// frame under the checkpoint, the reopened server writes no state
    /// (cadence 100) while it logs batches past the checkpoint's sequence
    /// number, and the next open must serve the new history's bits. The
    /// batches keep |V|, so the stale checkpoint's value count would match.
    #[test]
    fn an_unusable_checkpoint_is_deleted_before_its_sequence_numbers_are_reused() {
        let graph = window_graph();
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let keep = BatchShape::Mixed {
            allow_growth: false,
        };
        let durability = DurabilityConfig::new(durable_dir("reused")).with_snapshot_every(4);
        let mut live = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        let mut logged = Vec::new();
        let mut wal_after = Vec::new();
        for i in 0..4 {
            let batch = random_batch(live.graph(), 5100 + i, 4, keep);
            live.try_apply(&batch).unwrap();
            logged.push(batch);
            wal_after.push(std::fs::metadata(durability.wal_path()).unwrap().len());
        }
        assert_eq!(recovery_point(&live), (0, 4, 4), "a checkpoint past base 0");
        drop(live);
        // Tear frame 3: entries 1 and 2 survive, the checkpoint covers 4.
        let wal = std::fs::read(durability.wal_path()).unwrap();
        std::fs::write(durability.wal_path(), &wal[..wal_after[1] as usize + 7]).unwrap();

        let rarely = DurabilityConfig::new(&durability.dir).with_snapshot_every(100);
        let mut reopened =
            DeltaServer::open(make, ServerConfig::default(), rarely.clone()).unwrap();
        assert_eq!(recovery_point(&reopened), (0, 0, 2));
        assert!(!durability.checkpoint_path().exists());
        let mut witness = sssp_server(graph, root, ServerConfig::default());
        for batch in &logged[..2] {
            witness.try_apply(batch).unwrap();
        }
        for i in 0..3 {
            let batch = random_batch(witness.graph(), 5200 + i, 4, keep);
            reopened.try_apply(&batch).unwrap();
            witness.try_apply(&batch).unwrap();
        }
        assert_eq!(recovery_point(&reopened), (0, 0, 5), "no state written");
        drop(reopened);

        let again = DeltaServer::open(make, ServerConfig::default(), rarely).unwrap();
        assert_eq!(bits(again.values()), bits(witness.values()));
        let counters = again.durability_counters().unwrap();
        assert_eq!(
            (counters.wal_entries_refolded, counters.wal_entries_replayed),
            (0, 5)
        );
        drop(again);
        std::fs::remove_dir_all(&durability.dir).unwrap();
    }

    /// A checkpoint shares its base's physical layout. A remap at a due
    /// checkpoint therefore writes a base alone (and trims the WAL), and so
    /// does the state write after an explicit `remap_now`; a due checkpoint
    /// that finds the layout in place writes a checkpoint alone. Each file
    /// is a span inside the `snapshot` stage span.
    #[test]
    fn a_remap_at_a_due_checkpoint_writes_a_base() {
        let graph = window_graph();
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |g: &Graph| SsspProgram {
            root: g.to_physical(root),
        };
        let config = ServerConfig {
            engine: EngineConfig::default().with_telemetry(true),
            ..ServerConfig::default()
        }
        .with_reorder(ReorderPolicy::DegreeDescending);
        let durability = DurabilityConfig::new(durable_dir("remap-base")).with_snapshot_every(2);
        let mut server =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability.clone())
                .unwrap();
        let mut witness = sssp_server(graph, root, ServerConfig::default());
        // Batches speak external ids; draw them from the unremapped witness.
        let apply = |server: &mut DeltaServer<SsspProgram, _>,
                     witness: &mut DeltaServer<SsspProgram, _>,
                     draw: &dyn Fn(&Graph) -> UpdateBatch| {
            let batch = draw(witness.graph());
            witness.try_apply(&batch).unwrap();
            let outcome = server.try_apply(&batch).unwrap();
            assert_eq!(bits(server.values()), bits(witness.values()));
            outcome
        };
        let files = |server: &DeltaServer<SsspProgram, _>| {
            let c = server.durability_counters().unwrap();
            (c.snapshots_written - c.base_writes, c.base_writes)
        };
        assert_eq!(files(&server), (0, 1), "create writes a base alone");

        // Growth reorders the degrees: the due write remaps, so it is a base.
        apply(&mut server, &mut witness, &|g| {
            random_batch(g, 7000, 4, GROW)
        });
        let outcome = apply(&mut server, &mut witness, &|g| {
            random_batch(g, 7001, 4, GROW)
        });
        assert!(outcome.stages.iter().any(|&(name, _)| name == "snapshot"));
        assert!(server.graph().is_remapped());
        assert_eq!(files(&server), (0, 2));
        assert_eq!(recovery_point(&server), (2, 2, 2));
        assert_eq!(std::fs::metadata(durability.wal_path()).unwrap().len(), 0);

        // Weight-only batches keep the layout: the due write is a checkpoint.
        apply(&mut server, &mut witness, &|g| reweight_batch(g, 7002, 4));
        apply(&mut server, &mut witness, &|g| reweight_batch(g, 7003, 4));
        assert_eq!(files(&server), (1, 2));
        assert_eq!(recovery_point(&server), (2, 4, 4));

        // An explicit remap between state writes: the next one is a base.
        apply(&mut server, &mut witness, &|g| {
            random_batch(g, 7004, 4, GROW)
        });
        assert!(server.remap_now().unwrap());
        apply(&mut server, &mut witness, &|g| reweight_batch(g, 7005, 4));
        assert_eq!(files(&server), (1, 3));
        assert_eq!(recovery_point(&server), (6, 6, 6));

        let spans = server.telemetry().spans;
        let inside = |name: &str| {
            spans.iter().filter(|s| s.name == name).all(|s| {
                spans.iter().any(|outer| {
                    outer.name == "snapshot"
                        && outer.start_ns <= s.start_ns
                        && s.start_ns + s.dur_ns <= outer.start_ns + outer.dur_ns
                })
            })
        };
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!((count("checkpoint"), count("base")), (1, 3));
        assert!(inside("checkpoint") && inside("base"));

        drop(server);
        let reopened = DeltaServer::open(make, config, durability.clone()).unwrap();
        assert_eq!(bits(reopened.values()), bits(witness.values()));
        drop(reopened);
        std::fs::remove_dir_all(&durability.dir).unwrap();
    }

    /// A WAL trim that keeps failing leaves the log growing, but not the
    /// cadence: the 1 MiB checkpoint trigger and the base trigger count WAL
    /// bytes since their own last write, so large batches under a permanent
    /// `WalTrim` fault still write state once per MiB of WAL — not after
    /// every batch once the file passed 1 MiB — a reopen skips the covered
    /// entries, and small batches do not turn every checkpoint into a base.
    #[test]
    fn a_failing_trim_leaves_the_state_write_cadence_alone() {
        let graph = generators::rmat(300, 2000, 0.57, 0.19, 0.19, 139);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let durability =
            DurabilityConfig::new(durable_dir("trim-cadence")).with_snapshot_every(1000);
        let mut server = DeltaServer::create_durable(
            graph.clone(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        let mut witness = sssp_server(graph, root, ServerConfig::default());
        server.fault_injector().arm(FaultPlan::new().fail(
            FaultSite::WalTrim,
            0,
            slfe_graph::FaultKind::Permanent,
        ));
        // ≈216 KB of WAL per batch: two real upserts and 24k deletions of
        // absent edges, which the graph drops as no-ops.
        let large = |graph: &Graph, seed: u64| {
            let mut batch = mixed_batch(graph, seed, 2);
            let n = graph.num_vertices() as u32;
            let mut rng = SplitMix64::seed_from_u64(seed);
            while batch.len() < 24_000 {
                let (src, dst) = (rng.range_u32(0, n), rng.range_u32(0, n));
                if !graph.has_edge(src, dst) {
                    batch.delete(src, dst);
                }
            }
            batch
        };
        let mut writes = 0;
        for i in 0..16 {
            let batch = large(witness.graph(), 8000 + i);
            witness.try_apply(&batch).unwrap();
            let outcome = server.try_apply(&batch).unwrap();
            writes += outcome.stages.iter().any(|&(name, _)| name == "snapshot") as u64;
        }
        let wal = std::fs::metadata(durability.wal_path()).unwrap().len();
        assert!(
            wal > 3 * durability::SNAPSHOT_WAL_BYTES,
            "the trims never failed"
        );
        assert!(
            (2..=wal / durability::SNAPSHOT_WAL_BYTES).contains(&writes),
            "{writes} state writes for {wal} WAL bytes"
        );
        let counters = *server.durability_counters().unwrap();
        assert_eq!(
            server.health().wal_trim_failures(),
            counters.base_writes - 1
        );
        drop(server);
        let reopened =
            DeltaServer::open(make, ServerConfig::default(), durability.clone()).unwrap();
        assert_eq!(bits(reopened.values()), bits(witness.values()));
        let (base_seq, _, _) = recovery_point(&reopened);
        assert_eq!(
            reopened.durability_counters().unwrap().wal_entries_replayed
                + reopened.durability_counters().unwrap().wal_entries_refolded,
            16 - base_seq
        );
        drop(reopened);
        std::fs::remove_dir_all(&durability.dir).unwrap();

        // Small batches on a larger graph, a checkpoint after each: bases
        // stay as rare as a trimmed WAL would make them (one per ≈440 bytes
        // of WAL since the last base), though the file keeps every entry.
        let durability =
            DurabilityConfig::new(durable_dir("trim-base-cadence")).with_snapshot_every(1);
        let mut server = DeltaServer::create_durable(
            window_graph(),
            make,
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        server.fault_injector().arm(FaultPlan::new().fail(
            FaultSite::WalTrim,
            0,
            slfe_graph::FaultKind::Permanent,
        ));
        for i in 0..12 {
            let batch = random_batch(server.graph(), 8100 + i, 4, GROW);
            server.try_apply(&batch).unwrap();
        }
        let counters = *server.durability_counters().unwrap();
        assert_eq!(counters.snapshots_written - counters.base_writes, 12);
        assert!(
            (2..=3).contains(&counters.base_writes),
            "{} bases for {} WAL bytes",
            counters.base_writes,
            std::fs::metadata(durability.wal_path()).unwrap().len()
        );
        drop(server);
        std::fs::remove_dir_all(&durability.dir).unwrap();
    }

    /// A checkpoint holds the header (naming its base by sequence number and
    /// CRC), the four stats, the values and the owners under one CRC, and no
    /// adjacency.
    #[test]
    fn checkpoints_hold_values_owners_and_stats_and_name_their_base() {
        let graph = window_graph();
        let durability = DurabilityConfig::new(durable_dir("checkpoint-format"));
        let mut server = DeltaServer::create_durable(
            graph,
            |_: &Graph| SsspProgram { root: 0 },
            ServerConfig::default(),
            durability.clone(),
        )
        .unwrap();
        server
            .try_apply(&random_batch(server.graph(), 9000, 4, GROW))
            .unwrap();
        server.snapshot().unwrap();
        let n = server.graph().num_vertices();
        let counters = *server.durability_counters().unwrap();
        assert_eq!((counters.snapshots_written, counters.base_writes), (2, 1));
        let bytes = std::fs::read(durability.checkpoint_path()).unwrap();
        let header = 4 + 4 + 1 + 8 + 8 + 4; // magic, version, tag, seq, base seq, base CRC
        let stats = 4 * 8;
        let values = 8 + 4 * n;
        let owners = 8 + 8 + 4 * n;
        assert_eq!(bytes.len(), header + stats + values + owners + 4);
        assert_eq!(
            counters.snapshot_bytes_written,
            counters.base_bytes_written + bytes.len() as u64
        );
        assert_eq!(bytes[9..17], 1u64.to_le_bytes(), "its sequence number");
        assert_eq!(
            bytes[17..25],
            0u64.to_le_bytes(),
            "its base's sequence number"
        );
        let base = std::fs::read(durability.snapshot_path()).unwrap();
        assert_eq!(bytes[25..29], base[base.len() - 4..], "its base's CRC");
        drop(server);
        std::fs::remove_dir_all(&durability.dir).unwrap();
    }
}
