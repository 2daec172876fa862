//! The [`DeltaServer`] serving loop: apply an edge-update batch, warm
//! re-converge the program, answer queries.

use crate::durability::{
    self, DurabilityConfig, DurabilityError, DurabilityState, SnapshotState, SnapshotValue, Wal,
};
use crate::health::{ApplyError, Health};
use slfe_cluster::{Cluster, ClusterConfig, GlobalChunkLayout, LayoutPatchStats, WorkerPool};
use slfe_core::{EngineConfig, EngineParts, GraphProgram, ProgramResult, RrGuidance, SlfeEngine};
use slfe_graph::{
    BatchEffect, Degrees, FaultAction, FaultInjector, FaultPlan, FaultSite, Graph, GraphStorage,
    IdRemap, ReorderPolicy, UpdateBatch, VertexId,
};
use slfe_metrics::{
    DurabilityCounters, ExecutionStats, FaultCounters, MetricsRegistry, SpanEvent, Telemetry,
    TelemetrySnapshot, HIST_BATCH_APPLY, HIST_WAL_FSYNC,
};
use slfe_partition::{contiguous_degree_layout, ChunkingPartitioner, Partitioner, Partitioning};
use std::io;
use std::sync::Arc;

/// Bytes of one shipped edge update: two 4-byte vertex ids plus a 4-byte weight.
const UPDATE_RECORD_BYTES: u64 = 12;

/// Node where update batches arrive before being forwarded to partition
/// owners (the simulated client connection point).
const INGEST_NODE: usize = 0;

/// Most vertices one batch may append to the id space. Admission refuses an
/// endpoint further out ([`ApplyError::VertexOutOfRange`]), and the serving
/// front end sheds it at submit.
const MAX_VERTEX_GROWTH: u64 = 1 << 20;

/// `true` when endpoint `vertex` would append more than
/// [`MAX_VERTEX_GROWTH`] vertices to a graph of `num_vertices`.
pub(crate) fn exceeds_vertex_growth(vertex: VertexId, num_vertices: usize) -> bool {
    u64::from(vertex) >= num_vertices as u64 + MAX_VERTEX_GROWTH
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

/// What re-converging a program on a new version yields: the program, its
/// result and the segment store it ran on.
type Converged<P> = (
    P,
    ProgramResult<<P as GraphProgram>::Value>,
    Option<Arc<GraphStorage>>,
);

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

/// The `k` entries of `values` (indexed by external id) ranked by `compare`,
/// greatest first, ties broken by id ascending: the one ranking behind
/// [`DeltaServer::top_k_by`] and [`crate::PublishedVersion::top_k_by`].
///
/// A bounded selection: a binary heap holds the best `k` entries seen so far
/// with the lowest-ranked one at its root, so the scan takes O(|V| log k)
/// time and O(k) space. `compare` must be a total order, as for a sort.
pub(crate) fn rank_top_k<V: Copy>(
    values: &[V],
    k: usize,
    mut compare: impl FnMut(&V, &V) -> std::cmp::Ordering,
) -> Vec<(VertexId, V)> {
    let mut order = |a: &(VertexId, V), b: &(VertexId, V)| compare(&b.1, &a.1).then(a.0.cmp(&b.0));
    let mut heap: Vec<(VertexId, V)> = Vec::with_capacity(k.min(values.len()));
    for (v, &value) in values.iter().enumerate() {
        let entry = (v as VertexId, value);
        if heap.len() < k {
            // Sift the new entry up past every parent that ranks before it.
            heap.push(entry);
            let mut i = heap.len() - 1;
            while i > 0 && order(&heap[(i - 1) / 2], &heap[i]).is_lt() {
                heap.swap((i - 1) / 2, i);
                i = (i - 1) / 2;
            }
        } else if heap.first().is_some_and(|root| order(&entry, root).is_lt()) {
            // Replace the root, then sift it down below every child that
            // ranks after it.
            heap[0] = entry;
            let mut i = 0;
            loop {
                let mut last = i;
                for child in [2 * i + 1, 2 * i + 2] {
                    if child < heap.len() && order(&heap[last], &heap[child]).is_lt() {
                        last = child;
                    }
                }
                if last == i {
                    break;
                }
                heap.swap(i, last);
                i = last;
            }
        }
    }
    heap.sort_by(order);
    heap
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
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig::new(2, 2),
            engine: EngineConfig::default(),
            full_recompute_dirty_fraction: 0.5,
            fault_plan: None,
        }
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
    /// chunk when vertices were appended) are re-cut, a node whose split
    /// budget moved is re-cut whole, and every other chunk is carried over
    /// from the previous version ([`GlobalChunkLayout::patched_at`]).
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
    /// occupying the backing files (reclaimed by compaction on the snapshot
    /// path). 0 when in-memory.
    pub storage_dead_bytes: u64,
    /// Vertex-count imbalance (max node load / mean node load) of the stable
    /// partitioning after this batch's appended vertices joined it. `0.0`
    /// only for an empty partitioning; `1.0` is perfectly balanced. Sustained
    /// growth keeps this bounded (appends join the least-loaded node), and
    /// when [`EngineConfig::migration_imbalance_threshold`] is set the
    /// snapshot-path remap migrates vertices whenever it overshoots.
    pub partition_imbalance: f64,
    /// Wall-clock seconds of the whole [`DeltaServer::try_apply`] call past
    /// admission: the sum of [`BatchOutcome::stages`].
    pub wall_seconds: f64,
    /// Wall-clock seconds the WAL fsync for this batch took (0.0 on a
    /// non-durable server).
    pub wal_fsync_seconds: f64,
    /// `true` when the batch itself succeeded but a post-apply durability
    /// step (snapshot or compaction) failed and was absorbed: the server
    /// keeps serving read-write with the WAL growing until a later snapshot
    /// lands. Details are on [`crate::Health`].
    pub degraded: bool,
    /// Where `wall_seconds` went: one `(stage, seconds)` entry per stage the
    /// batch ran, in pipeline order — `wal_append` (durable servers),
    /// `graph_patch` (id translation, [`Graph::apply_batch`] and the degree
    /// patch), `segment_patch` (out-of-core servers), `layout_patch`,
    /// `guidance` (regenerated for a full recompute; otherwise the current
    /// guidance, padded when |V| grew), `warm_restart` or `cold_run`,
    /// `publish` (outcome, stats, install, external-id view) and `snapshot`
    /// (when due); a no-op batch skips from `graph_patch` to `publish`. Contiguous laps of one clock,
    /// so they sum to `wall_seconds`. With telemetry on, each is also a
    /// `server` span inside the batch's `batch` span (the guidance one
    /// `guidance_repair`).
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
/// The server owns the current graph version, its redundancy-reduction
/// guidance (regenerated where the rulers are read) and the program's
/// current fixpoint. Because several programs capture graph-dependent state
/// (`PageRank` holds `|V|`, `Heat` precomputes out-degree shares), the server
/// is built from a *program factory* that re-instantiates the program for
/// each graph version.
///
/// **External ids at the API boundary.** Queries ([`DeltaServer::value`],
/// [`DeltaServer::values`], [`DeltaServer::top_k_by`]), update batches,
/// [`BatchOutcome::effect`], WAL frames and snapshots all speak the stable
/// *external* vertex ids clients know. Internally the server may serve from a
/// physically reordered layout ([`EngineConfig::reorder`] /
/// [`EngineConfig::migration_imbalance_threshold`], applied on the snapshot
/// path or via [`DeltaServer::remap_now`]); the cumulative
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
    /// The current graph version, shared (`Arc`) with the segment store's
    /// quarantine-rebuild path so unreadable segments can be reconstructed
    /// from the authoritative in-memory adjacency.
    graph: Arc<Graph>,
    config: ServerConfig,
    /// The RR guidance handed to every engine this server builds. Derived
    /// state: [`RrGuidance::generate`] runs at [`DeltaServer::try_new`],
    /// [`DeltaServer::open`], a full-recompute batch and the first
    /// [`DeltaServer::guidance`] read after it went stale. A warm batch
    /// hands the same `Arc` over again (a padded copy when |V| grew);
    /// warm restarts run with the rulers off and never read it.
    rrg: Arc<RrGuidance>,
    /// `true` when `rrg` no longer matches `graph`: after a warm batch or a
    /// remap. Never persisted; `open` regenerates the guidance.
    guidance_stale: bool,
    /// The current graph version's per-vertex degrees, handed to every
    /// engine this server builds. Patched in place at each batch's dirty
    /// endpoints ([`Degrees::patch`]; the previous version's engine is gone
    /// by then, so `Arc::make_mut` does not copy) instead of re-extracted
    /// per batch. [`Degrees::of`] runs only at [`DeltaServer::try_new`],
    /// [`DeltaServer::open`], a remap and the rollback of a rejected batch.
    degrees: Arc<Degrees>,
    /// The persistent worker pool, created once at server startup and threaded
    /// through every graph version's engine (cold runs *and* warm restarts) —
    /// applying a batch spawns zero threads.
    pool: Arc<WorkerPool>,
    /// The vertex → node assignment, built once at startup and **kept stable
    /// across graph versions** (the id space only grows; appended vertices
    /// join the least-loaded node, so sustained growth cannot skew one
    /// node's load). Stability is what lets the chunk layout be patched
    /// instead of re-derived per batch; sharing the `Arc` with each
    /// version's cluster is what keeps batch application free of O(V) copies.
    partitioning: Arc<Partitioning>,
    /// The degree-aware chunk layout of the current graph version, built at
    /// [`DeltaServer::try_new`], [`DeltaServer::open`] and a remap, and
    /// otherwise patched per batch around the dirty endpoints only
    /// ([`GlobalChunkLayout::patched_at`]: a few chunks re-cut, every other
    /// chunk copied). Handed to every engine this server builds — warm and
    /// cold paths share the same instance.
    layout: GlobalChunkLayout,
    /// Out-of-core serving ([`EngineConfig::storage_budget_bytes`] set): the
    /// current graph version's disk-segment store, patched per batch at the
    /// dirty segments only and threaded into every engine this server builds.
    /// `None` runs in-memory.
    storage: Option<Arc<GraphStorage>>,
    result: ProgramResult<P::Value>,
    /// External-id-ordered view of `result.values`, maintained only while the
    /// graph carries a non-identity remap (`None` otherwise — the physical
    /// vector *is* the external order then, and the view costs nothing).
    /// Refreshed whenever `result` or the remap changes.
    external_values: Option<Vec<P::Value>>,
    stats: ServerStats,
    /// WAL + snapshot state when this server was built through
    /// [`DeltaServer::create_durable`] / [`DeltaServer::open`].
    durability: Option<DurabilityState>,
    /// The server's telemetry hub ([`EngineConfig::telemetry`]-gated), shared
    /// with every engine this server builds so spans and latency histograms
    /// accumulate over the serving lifetime instead of resetting per batch.
    telemetry: Arc<Telemetry>,
    /// The fault injector every disk touchpoint of this server consults —
    /// disarmed (one relaxed atomic load per call) unless
    /// [`ServerConfig::fault_plan`] armed it or a test arms it directly.
    faults: Arc<FaultInjector>,
    /// Degradation state: read-only mode, snapshot-failure staleness, and
    /// recovery-action counts.
    health: Health,
}

impl<P, F> DeltaServer<P, F>
where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    /// Build the server: partition `graph`, generate the guidance, run the
    /// program cold once. Every subsequent [`DeltaServer::try_apply`] is warm.
    /// Fails when the out-of-core segment files cannot be written.
    pub fn try_new(graph: Graph, make_program: F, config: ServerConfig) -> io::Result<Self> {
        let graph = Arc::new(graph);
        let faults = injector_for(&config);
        let pool = Arc::new(WorkerPool::new(config.cluster.total_workers()));
        let partitioning =
            Arc::new(ChunkingPartitioner::default().partition(&graph, config.cluster.num_nodes));
        let mut server = Self::assemble(make_program, config, faults, pool, graph, partitioning)?;
        let cold_span = server.telemetry.begin();
        let storage = server.storage.clone();
        let engine = server.engine(&server.graph, &server.rrg, &server.layout, storage);
        let result = engine.run(&server.program);
        drop(engine);
        server.telemetry.end(cold_span, "cold_run", "server", 0);
        server.result = result;
        // The seed graph may already carry a remap (a test or a tool serving
        // a pre-reordered layout): keep the external view consistent from the
        // first query on.
        server.refresh_external_values();
        Ok(server)
    }

    /// Assemble a server around `graph` and its stable `partitioning`:
    /// generate the guidance, extract the degrees, build the chunk layout,
    /// the telemetry hub and the out-of-core segment store, written once here
    /// with `graph` attached as the source unreadable segments are
    /// quarantined and rebuilt from (every batch then patches only the dirty
    /// segments). The served result is empty until the caller runs the
    /// program or restores it.
    fn assemble(
        make_program: F,
        config: ServerConfig,
        faults: Arc<FaultInjector>,
        pool: Arc<WorkerPool>,
        graph: Arc<Graph>,
        partitioning: Arc<Partitioning>,
    ) -> io::Result<Self> {
        let program = make_program(&graph);
        let layout =
            Cluster::with_shared_partitioning(Arc::clone(&partitioning), config.cluster.clone())
                .build_layout(&graph);
        let storage = build_storage(&graph, &config.engine, &faults)?;
        let result = ProgramResult {
            values: Vec::new(),
            stats: ExecutionStats::new("slfe", program.name()),
            last_changed_iter: Vec::new(),
            per_node_worker_work: vec![
                vec![0; config.cluster.workers_per_node];
                config.cluster.num_nodes
            ],
            converged: true,
            exact_fixpoint: false,
        };
        Ok(Self {
            make_program,
            program,
            rrg: Arc::new(RrGuidance::generate(&graph)),
            guidance_stale: false,
            degrees: Arc::new(Degrees::of(&graph)),
            graph,
            telemetry: Arc::new(Telemetry::new(config.engine.telemetry)),
            config,
            pool,
            partitioning,
            layout,
            storage,
            result,
            external_values: None,
            stats: ServerStats::default(),
            durability: None,
            faults,
            health: Health::new(),
        })
    }

    /// An engine over `graph` with this server's cluster shape, pool,
    /// telemetry hub, partitioning and degrees (already `graph`'s), plus the
    /// given version artifacts.
    fn engine<'g>(
        &self,
        graph: &'g Graph,
        rrg: &Arc<RrGuidance>,
        layout: &GlobalChunkLayout,
        storage: Option<Arc<GraphStorage>>,
    ) -> SlfeEngine<'g> {
        let cluster = Cluster::with_shared_partitioning(
            Arc::clone(&self.partitioning),
            self.config.cluster.clone(),
        );
        let parts = EngineParts {
            cluster,
            config: self.config.engine.clone(),
            rrg: Arc::clone(rrg),
            degrees: Arc::clone(&self.degrees),
            pool: Arc::clone(&self.pool),
            layout: layout.clone(),
            storage,
            telemetry: Arc::clone(&self.telemetry),
        };
        SlfeEngine::from_parts(graph, parts)
    }

    /// Rebuild the external-id-ordered value view after `result.values` or
    /// the graph's remap changed. Free (drops the cache) on an unremapped
    /// graph.
    fn refresh_external_values(&mut self) {
        self.external_values = self.graph.id_remap().map(|remap| {
            (0..self.result.values.len() as VertexId)
                .map(|ext| self.result.values[remap.to_new(ext) as usize])
                .collect()
        });
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
        let num_vertices = self.graph.num_vertices();
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

    /// Instantiate the program for the new version and re-converge it —
    /// engine build, warm restart or cold run, batch-distribution accounting
    /// — recording what it cost in `outcome`. A poisoned run (segment reads
    /// failed beyond retries and quarantine, so values may rest on
    /// placeholder lists) is discarded and re-driven once on a store rebuilt
    /// from the in-memory graph; a second poisoning fails the batch. Returns
    /// the program, its result and the store it ran on.
    fn converge(
        &mut self,
        graph: &Arc<Graph>,
        rrg: &Arc<RrGuidance>,
        layout: &GlobalChunkLayout,
        storage: Option<Arc<GraphStorage>>,
        effect: &BatchEffect,
        outcome: &mut BatchOutcome,
    ) -> Result<Converged<P>, ApplyError> {
        let program = (self.make_program)(graph);
        let full_recompute = outcome.full_recompute;
        let run = |server: &Self, storage: Option<Arc<GraphStorage>>| {
            let engine = server.engine(graph, rrg, layout, storage);
            let result = if full_recompute {
                engine.run(&program)
            } else {
                engine.run_from_effect(&program, &server.result, effect)
            };
            let messages = engine.cluster().record_batch_distribution(
                INGEST_NODE,
                effect.dirty.iter().copied(),
                UPDATE_RECORD_BYTES,
            );
            (result, messages)
        };
        let (mut result, messages) = run(self, storage.clone());
        outcome.distribution_messages = messages;
        let mut storage = storage;
        let poison_note = storage.as_ref().and_then(|s| {
            s.take_poisoned().then(|| {
                s.poison_note()
                    .unwrap_or_else(|| "unreadable segments".to_string())
            })
        });
        if let Some(note) = poison_note {
            self.faults.note_poisoned_run();
            let poisoned = |e: io::Error| ApplyError::ExecutionPoisoned {
                note: format!("{note}; {e}"),
            };
            let (rebuilt, rewritten) = self.rebuild_storage(graph).map_err(poisoned)?;
            let (rerun, _) = run(self, Some(Arc::clone(&rebuilt)));
            if rebuilt.take_poisoned() {
                self.faults.note_poisoned_run();
                return Err(poisoned(io::Error::other(
                    rebuilt
                        .poison_note()
                        .unwrap_or_else(|| "still unreadable after a rebuild".to_string()),
                )));
            }
            storage = Some(rebuilt);
            outcome.segments_rewritten = rewritten;
            result = rerun;
        }
        outcome.work = result.stats.totals.work();
        outcome.iterations = result.stats.iterations;
        outcome.converged = result.converged;
        Ok((program, result, storage))
    }

    /// Point query: the program's current value at external id `v` (`None`
    /// when `v` is outside the current graph version).
    pub fn value(&self, v: VertexId) -> Option<P::Value> {
        self.result
            .values
            .get(self.graph.to_physical(v) as usize)
            .copied()
    }

    /// The full current value vector, indexed by **external** vertex id —
    /// identical across physical layouts.
    pub fn values(&self) -> &[P::Value] {
        self.external_values
            .as_deref()
            .unwrap_or(&self.result.values)
    }

    /// The `k` vertices (external ids) ranked by `compare` (greatest first),
    /// ties broken by external id ascending — deterministic regardless of
    /// worker count or physical layout.
    pub fn top_k_by(
        &self,
        k: usize,
        compare: impl FnMut(&P::Value, &P::Value) -> std::cmp::Ordering,
    ) -> Vec<(VertexId, P::Value)> {
        rank_top_k(self.values(), k, compare)
    }

    /// The current graph version.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current program instance (rebuilt per graph version).
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The current full program result.
    pub fn result(&self) -> &ProgramResult<P::Value> {
        &self.result
    }

    /// The RR guidance of the current graph version:
    /// [`RrGuidance::generate`] over [`DeltaServer::graph`]. Warm batches and
    /// remaps leave the held guidance stale (warm restarts never read the
    /// rulers), so the first read after them regenerates it, under the
    /// `guidance_repair` telemetry span — hence `&mut`.
    pub fn guidance(&mut self) -> &RrGuidance {
        if self.guidance_stale {
            let span = self.telemetry.begin();
            self.rrg = Arc::new(RrGuidance::generate(&self.graph));
            self.telemetry.end(span, "guidance_repair", "server", 0);
            self.guidance_stale = false;
        }
        &self.rrg
    }

    /// Run the configured physical-layout policy now: migrate vertices off
    /// overloaded nodes when [`EngineConfig::migration_imbalance_threshold`]
    /// is exceeded, then reorder ids partition-contiguously (degree-descending
    /// within each partition under [`ReorderPolicy::DegreeDescending`]) and
    /// rebuild every physical artifact — graph, degrees, values, layout,
    /// segment store — under the new bijection. The guidance goes stale, and
    /// its next reader regenerates it. Returns `true` when a remap was
    /// applied, `false` when no policy is configured or the layout is
    /// already in place.
    ///
    /// On a durable server this also runs by itself on every snapshot, where
    /// the WAL is about to be trimmed — its external-id frames never cross a
    /// layout change. Remapped runs are value-transparent: every query
    /// answers bit-identically before and after.
    pub fn remap_now(&mut self) -> io::Result<bool> {
        let policy = self.config.engine.reorder;
        let threshold = self.config.engine.migration_imbalance_threshold;
        if policy == ReorderPolicy::None && threshold.is_none() {
            return Ok(false);
        }
        let migrated = threshold.and_then(|t| self.partitioning.migrated_owners(t));
        let partitioning = match migrated {
            Some(owners) => Arc::new(Partitioning::from_owners(
                owners,
                self.partitioning.num_parts(),
            )),
            None => Arc::clone(&self.partitioning),
        };
        let step = contiguous_degree_layout(&self.graph, &partitioning, policy);
        if step.is_identity() && Arc::ptr_eq(&partitioning, &self.partitioning) {
            return Ok(false);
        }
        self.apply_remap(partitioning, &step)?;
        Ok(true)
    }

    /// Rebuild every physical-id-indexed artifact under the remap `step`.
    /// `partitioning` is the owner assignment in the *pre-step* id space
    /// (possibly migrated). Everything fallible (the segment-store re-encode)
    /// runs before any state is assigned, so an I/O error leaves the server
    /// serving the old layout untouched.
    fn apply_remap(&mut self, partitioning: Arc<Partitioning>, step: &IdRemap) -> io::Result<()> {
        let graph = Arc::new(self.graph.remapped(step));
        let owners = step.permuted_values(partitioning.owners());
        let num_parts = partitioning.num_parts();
        let partitioning = Arc::new(Partitioning::from_owners(owners, num_parts));
        let layout = Cluster::with_shared_partitioning(
            Arc::clone(&partitioning),
            self.config.cluster.clone(),
        )
        .build_layout(&graph);
        // Re-encode the out-of-core segments in the new order — the hot/cold
        // clustering the reorder exists for lives in these files.
        let storage = build_storage(&graph, &self.config.engine, &self.faults)?;
        self.guidance_stale = true;
        self.degrees = Arc::new(Degrees::of(&graph));
        self.result.values = step.permuted_values(&self.result.values);
        self.result.last_changed_iter = step.permuted_values(&self.result.last_changed_iter);
        // The program is re-instantiated for the renamed graph below; rather
        // than trust a fixpoint computed under the old ids, the next warm
        // restart's first pull re-pulls every vertex.
        self.result.exact_fixpoint = false;
        self.program = (self.make_program)(&graph);
        self.graph = graph;
        self.partitioning = partitioning;
        self.layout = layout;
        self.storage = storage;
        self.refresh_external_values();
        Ok(())
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
    /// read-write mode. Before this existed, read-only was terminal: an
    /// ENOSPC that an operator later cleared still required a full reopen.
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

    /// The stable vertex → node assignment shared by every graph version.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The current graph version's chunk layout (patched, not rebuilt).
    pub fn layout(&self) -> &GlobalChunkLayout {
        &self.layout
    }

    /// The current graph version's out-of-core segment store (patched per
    /// batch), when the server runs in that mode.
    pub fn storage(&self) -> Option<&Arc<GraphStorage>> {
        self.storage.as_ref()
    }

    /// Cumulative serving statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The server's persistent worker pool (shared with every engine it builds).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Everything the telemetry hub has collected over the serving lifetime:
    /// spans (each batch and its stages — see [`BatchOutcome::stages`] —
    /// engine iterations, segment faults) and latency histograms. Empty when
    /// [`EngineConfig::telemetry`] is off.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The live telemetry hub, shared with the serving front end so reader
    /// threads can record query latency into the same histograms.
    pub(crate) fn telemetry_hub(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// A point-in-time metrics registry over every layer the server drives:
    /// pool worker busy/idle/barrier-wait fractions, buffer-pool hit/miss/
    /// eviction rates, WAL and snapshot counters, storage byte health, and
    /// cumulative serving statistics. Always populated — the registry reads
    /// counters that are maintained regardless of the telemetry switch.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();

        let activity = self.pool.activity();
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
            "Parallel phases the pool has executed",
            activity.phases as f64,
        );

        if let Some(storage) = &self.storage {
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
                "Batches re-applied from the WAL during recovery",
                c.wal_entries_replayed as f64,
            );
            reg.counter(
                "slfe_wal_bytes_truncated_total",
                "Torn or corrupt WAL tail bytes discarded on open",
                c.wal_bytes_truncated as f64,
            );
            reg.counter(
                "slfe_snapshots_written_total",
                "Fixpoint snapshots written",
                c.snapshots_written as f64,
            );
            reg.counter(
                "slfe_snapshot_bytes_written_total",
                "Bytes of snapshot files written",
                c.snapshot_bytes_written as f64,
            );
            reg.counter(
                "slfe_storage_compactions_total",
                "Segment-file compactions performed on the snapshot path",
                c.compactions as f64,
            );
            reg.counter(
                "slfe_storage_compaction_bytes_reclaimed_total",
                "Dead backing-file bytes compactions reclaimed",
                c.compaction_bytes_reclaimed as f64,
            );
        }

        reg.gauge(
            "slfe_partition_imbalance",
            "Vertex-count imbalance (max/mean node load) of the stable partitioning",
            self.partitioning.imbalance(),
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
            "Snapshot attempts that failed (the server keeps serving; the WAL grows)",
            self.health.snapshot_failures() as f64,
        );
        reg.counter(
            "slfe_wal_trim_failures_total",
            "WAL trims after a successful snapshot that failed (harmless: replay skips)",
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
    /// then snapshot (and possibly compact the segment files) if the cadence
    /// says so. Every stage is timed in
    /// [`BatchOutcome::stages`]. The graceful-degradation contract:
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
    /// * A failed snapshot or compaction is absorbed: the batch succeeds
    ///   with [`BatchOutcome::degraded`] set.
    ///
    /// Once read-only, every subsequent call returns
    /// [`ApplyError::ReadOnly`] without touching the WAL. A rejected batch
    /// leaves the served version, its partitioning, degrees and guidance
    /// exactly as they were.
    pub fn try_apply(&mut self, batch: &UpdateBatch) -> Result<BatchOutcome, ApplyError> {
        self.admit(batch)?;
        let mut clock = StageClock::start(&self.telemetry);
        let old_n = self.graph.num_vertices();
        let logged = self.durability.as_ref().map(|d| (d.seq, d.wal.bytes()));
        let applied = self.run_stages(batch, &mut clock);
        if let Err(e) = &applied {
            // The one rollback point: shrink the partitioning back to the
            // version still serving and restore its degrees, retract the
            // batch from the WAL if it was logged, then stop taking writes.
            if self.partitioning.num_vertices() > old_n {
                let owners = self.partitioning.owners()[..old_n].to_vec();
                let parts = self.partitioning.num_parts();
                self.partitioning = Arc::new(Partitioning::from_owners(owners, parts));
            }
            self.degrees = Arc::new(Degrees::of(&self.graph));
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
    /// which logs the batch, `graph_patch`, which patches the degrees in
    /// place, and `layout_patch`, which grows the stable partitioning in
    /// place; the caller's rollback undoes all three on error, so a failed
    /// batch leaves the previous version serving exactly.
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

        // Batches arrive (and are logged) in external ids; translate the
        // endpoints into the current physical layout. Appended vertices sit
        // beyond the remap and map to themselves.
        let translated;
        let physical = if self.graph.is_remapped() {
            translated = batch.mapped(|v| self.graph.to_physical(v));
            &translated
        } else {
            batch
        };
        let (graph, effect) = self.graph.apply_batch(physical);
        // A no-op batch keeps every artifact of the current version; its
        // unchanged copy of the graph is dropped right here. Otherwise the
        // degrees move at the dirty endpoints and the appended vertices; the
        // previous version's engine is gone, so `make_mut` patches in place.
        let graph = (!effect.is_noop()).then(|| Arc::new(graph));
        if let Some(graph) = &graph {
            Arc::make_mut(&mut self.degrees).patch(graph, &effect.dirty);
        }
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
            if let Some(current) = self.storage.clone() {
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

            // The stable partitioning only grows (appended vertices join the
            // least-loaded nodes, at the end of their owned lists), so chunk
            // estimates and in-spans move only around the dirty endpoints:
            // re-cut those chunks, plus each receiving node's last one, and
            // copy the rest. The previous version's cluster is gone, so
            // `make_mut` extends in place.
            let num_nodes = self.config.cluster.num_nodes;
            Arc::make_mut(&mut self.partitioning).extend_to(graph.num_vertices());
            let owned: Vec<&[VertexId]> = (0..num_nodes)
                .map(|node| self.partitioning.vertices_of(node))
                .collect();
            let (layout, layout_patch) = self.layout.patched_at(
                &graph,
                &owned,
                self.config.cluster.chunk_size,
                &effect.dirty,
            );
            outcome.layout_patch = layout_patch;
            clock.lap("layout_patch");

            // A cold run reads the rulers, so it regenerates them for the
            // new version. A warm restart never reads them: it gets the
            // current guidance, shared as it is when |V| did not grow and
            // padded ("never skip") when it did, and the guidance goes stale
            // until a reader regenerates it.
            let dirty_fraction = effect.dirty.len() as f64 / graph.num_vertices().max(1) as f64;
            outcome.full_recompute = dirty_fraction > self.config.full_recompute_dirty_fraction;
            let rrg = if outcome.full_recompute {
                Arc::new(RrGuidance::generate(&graph))
            } else if self.rrg.num_vertices() == graph.num_vertices() {
                Arc::clone(&self.rrg)
            } else {
                Arc::new(self.rrg.extended_to(graph.num_vertices()))
            };
            clock.lap("guidance");

            let converged = self.converge(&graph, &rrg, &layout, storage, &effect, &mut outcome);
            clock.lap(if outcome.full_recompute {
                "cold_run"
            } else {
                "warm_restart"
            });
            let (program, result, storage) = converged?;

            self.graph = graph;
            self.rrg = rrg;
            self.guidance_stale = !outcome.full_recompute;
            self.layout = layout;
            self.storage = storage;
            self.program = program;
            self.result = result;
            self.refresh_external_values();
        }
        outcome.effect = Self::external_effect(&self.graph, effect);
        (outcome.storage_live_bytes, outcome.storage_dead_bytes) = self
            .storage
            .as_ref()
            .map_or((0, 0), |s| (s.footprint_bytes(), s.dead_bytes()));
        outcome.partition_imbalance = self.partitioning.imbalance();
        self.stats.batches_applied += 1;
        self.stats.total_work += outcome.work;
        self.stats.total_distribution_messages += outcome.distribution_messages;
        self.stats.full_recomputes += outcome.full_recompute as u64;
        clock.lap("publish");

        if self.snapshot_due() {
            // The batch is durable (WAL) and applied (memory): a failed
            // snapshot only means the recovery point is going stale.
            if let Err(e) = self.write_snapshot() {
                self.health.note_snapshot_failure(&e);
                outcome.degraded = true;
            }
            clock.lap("snapshot");
        }
        Ok(outcome)
    }

    /// Write a fixpoint snapshot of the current served state (atomic temp +
    /// rename), compact the out-of-core segment files first when their
    /// dead-byte fraction exceeds [`DurabilityConfig::max_dead_fraction`],
    /// then trim the WAL — every logged batch is now covered by the snapshot.
    /// A trim failure is absorbed (replay skips covered entries); a snapshot
    /// write failure is returned and leaves the previous snapshot intact.
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
        let span = self.telemetry.begin();
        let written = self.write_snapshot();
        self.telemetry.end(span, "snapshot", "server", 0);
        written
    }

    /// Whether a durable server's cadence (batches since the last snapshot,
    /// or WAL bytes) calls for a snapshot now.
    fn snapshot_due(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| {
            d.seq - d.snapshot_seq >= d.config.snapshot_every_batches
                || d.wal.bytes() >= durability::SNAPSHOT_WAL_BYTES
        })
    }

    /// The body of [`DeltaServer::snapshot`], also the apply pipeline's
    /// `snapshot` stage; each caller times it once. The guidance is derived
    /// state and stays out of the snapshot: [`DeltaServer::open`]
    /// regenerates it.
    fn write_snapshot(&mut self) -> io::Result<()> {
        // Physical-layout policy rides the snapshot path too: every logged
        // external-id batch is folded in before the id space is renamed, and
        // the snapshot below records the new layout plus its bijection.
        self.remap_now()?;
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        // Compaction rides the snapshot path: rewrite live segments into a
        // fresh generation when too much of the backing files is dead bytes.
        if let Some(storage) = self
            .storage
            .as_ref()
            .filter(|s| s.dead_fraction() > d.config.max_dead_fraction)
        {
            let before = storage.file_bytes();
            let compacted = storage.compacted(&self.graph)?;
            d.counters.compactions += 1;
            d.counters.compaction_bytes_reclaimed += before.saturating_sub(compacted.file_bytes());
            self.storage = Some(Arc::new(compacted));
        }
        let bytes = durability::write_snapshot(
            &d.config,
            &SnapshotState {
                seq: d.seq,
                stats: self.stats,
                graph: &self.graph,
                values: &self.result.values,
                owners: self.partitioning.owners(),
                num_parts: self.partitioning.num_parts(),
            },
            Some(&self.faults),
        )?;
        d.counters.snapshots_written += 1;
        d.counters.snapshot_bytes_written += bytes;
        d.snapshot_seq = d.seq;
        self.health.note_snapshot_success();
        // Safe even if we die — or the trim fails — before this lands:
        // replay skips entries at or below the snapshot's sequence number,
        // so a failed trim costs replay time, never correctness.
        if d.wal.truncate_to(0).is_err() {
            self.health.note_wal_trim_failure();
        }
        Ok(())
    }

    /// Build a fresh durable server: run [`DeltaServer::try_new`], then write the
    /// initial snapshot so [`DeltaServer::open`] always finds one.
    pub fn create_durable(
        graph: Graph,
        make_program: F,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(&durability.dir)?;
        let mut server = Self::try_new(graph, make_program, config)?;
        let (wal, _) = Wal::open_with(
            &durability.wal_path(),
            Some(Arc::clone(&server.faults)),
            durability.retry,
        )?;
        let mut state = DurabilityState {
            config: durability,
            wal,
            seq: 0,
            snapshot_seq: 0,
            pending_cut: None,
            counters: DurabilityCounters::zero(),
        };
        // A fresh server supersedes whatever a previous life logged here.
        state.wal.truncate_to(0)?;
        server.durability = Some(state);
        server.snapshot()?;
        Ok(server)
    }

    /// Recover a durable server from its snapshot plus WAL suffix: load the
    /// snapshot (graph, fixpoint values, partitioning, stats), regenerate
    /// the guidance, rebuild the runtime artifacts (pool, layout, segment
    /// files), then
    /// replay every WAL entry past the snapshot's sequence number through the
    /// identical warm apply path. The recovered values are bit-identical to
    /// an uninterrupted run's — for min/max and arithmetic programs alike.
    ///
    /// A torn or corrupt WAL tail is truncated silently (those batches were
    /// never acknowledged); a corrupt snapshot is a structured error, never a
    /// panic.
    pub fn open(
        make_program: F,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let faults = injector_for(&config);
        let snap = durability::read_snapshot::<P::Value>(&durability, Some(&faults))?;
        if snap.num_parts != config.cluster.num_nodes {
            return Err(DurabilityError::CorruptSnapshot {
                reason: "snapshot partitioning does not match the cluster config",
            });
        }
        let pool = Arc::new(WorkerPool::new(config.cluster.total_workers()));
        let partitioning = Arc::new(Partitioning::from_owners(snap.owners, snap.num_parts));
        let graph = Arc::new(snap.graph);
        let mut server = Self::assemble(
            make_program,
            config,
            Arc::clone(&faults),
            pool,
            graph,
            partitioning,
        )?;
        // The fixpoint values are the snapshot's; the run-shaped metadata is
        // zeroed. `exact_fixpoint` stays false: a snapshot does not record
        // it (snapshot 0 holds the ruler-gated cold values), so the first
        // batch after recovery re-pulls every vertex, which serves the same
        // bits as the live server's restart, selective or not.
        server.result.last_changed_iter = vec![0; snap.values.len()];
        server.result.values = snap.values;
        server.stats = snap.stats;
        // A snapshot of a remapped server restores its bijection with the
        // graph; queries must answer in external order from the first read.
        server.refresh_external_values();
        let (wal, replay) = Wal::open_with(&durability.wal_path(), Some(faults), durability.retry)?;
        let mut counters = DurabilityCounters::zero();
        counters.wal_bytes_truncated += replay.bytes_truncated;
        // Re-drive the unacknowledged suffix through the exact pipeline the
        // live server used; with no durability state attached yet it skips
        // the WAL append and the snapshot. Entries at or below the
        // snapshot's sequence are already folded in (the process died
        // between the snapshot rename and the WAL trim) — skipping them is
        // what makes replay idempotent.
        let mut seq = snap.seq;
        for (entry_seq, batch) in replay.entries {
            if entry_seq <= snap.seq {
                continue;
            }
            server
                .try_apply(&batch)
                .map_err(|error| DurabilityError::Replay {
                    seq: entry_seq,
                    error,
                })?;
            counters.wal_entries_replayed += 1;
            seq = entry_seq;
        }
        server.durability = Some(DurabilityState {
            config: durability,
            wal,
            seq,
            snapshot_seq: snap.seq,
            pending_cut: None,
            counters,
        });
        // Replay may have pushed the cadence past its trigger; snapshotting
        // *after* the loop (never mid-replay) keeps the WAL intact until
        // every entry is re-applied. A failed snapshot here degrades health
        // instead of failing the open — the WAL still covers every entry.
        if server.snapshot_due() {
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

impl<P, F> DeltaServer<P, F>
where
    P: GraphProgram,
    P::Value: PartialOrd,
    F: Fn(&Graph) -> P,
{
    /// The `k` largest values (PageRank-style ranking queries). For distance
    /// programs, rank with [`DeltaServer::top_k_by`] and a reversed comparator.
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, P::Value)> {
        self.top_k_by(k, |a, b| {
            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_apps::pagerank::PageRankProgram;
    use slfe_apps::sssp::SsspProgram;
    use slfe_core::RedundancyMode;
    use slfe_graph::rng::SplitMix64;
    use slfe_graph::{generators, stats};

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
    fn bounded_top_k_equals_the_full_sort() {
        use std::cmp::Ordering;
        type Order = fn(&f32, &f32) -> Ordering;
        let full_sort = |values: &[f32], k: usize, compare: Order| {
            let mut ranked: Vec<(VertexId, f32)> = values
                .iter()
                .enumerate()
                .map(|(v, &value)| (v as VertexId, value))
                .collect();
            ranked.sort_by(|a, b| compare(&b.1, &a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(k);
            ranked
        };
        let natural: Order = |a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal);
        let reversed: Order = |a, b| b.total_cmp(a);
        for (seed, n) in [0usize, 1, 2, 9, 64, 500].into_iter().enumerate() {
            // Five distinct finite values plus both infinities: many ties.
            let mut rng = SplitMix64::seed_from_u64(seed as u64);
            let values: Vec<f32> = (0..n)
                .map(|_| match rng.range_u32(0, 7) {
                    5 => f32::INFINITY,
                    6 => f32::NEG_INFINITY,
                    r => r as f32 - 2.0,
                })
                .collect();
            for k in [0, 1, 3, 10, n.saturating_sub(1), n, n + 1, usize::MAX] {
                for compare in [natural, reversed] {
                    assert_eq!(
                        rank_top_k(&values, k, compare),
                        full_sort(&values, k, compare),
                        "n = {n}, k = {k}"
                    );
                }
            }
        }
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

    /// The server keeps one `Degrees` across versions and patches it per
    /// batch; it must equal a fresh extraction from the served graph after
    /// every path that changes the graph or rolls a change back: a batch
    /// stream with growth and deletes, a full-recompute fallback, a remap,
    /// a `StoragePatch` rejection followed by a resume and a clean batch, and
    /// `open`'s replay. The guidance it serves equals a regeneration on the
    /// served graph on each of those paths, and the served values equal an
    /// uninterrupted in-memory witness's bit for bit throughout.
    #[test]
    fn server_degrees_equal_a_fresh_extraction_on_every_path() {
        use slfe_graph::generators::{random_batch, BatchShape};
        let graph = generators::rmat(500, 3500, 0.57, 0.19, 0.19, 43);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |g: &Graph| SsspProgram {
            root: g.to_physical(root),
        };
        let config = ServerConfig {
            engine: EngineConfig::default()
                .with_reorder(ReorderPolicy::DegreeDescending)
                .with_storage_budget(24 << 10)
                .with_storage_segment_bytes(2 << 10),
            ..ServerConfig::default()
        };
        let dir = durable_dir("degrees");
        let durability = DurabilityConfig::new(&dir).with_snapshot_every(1000);
        let mut server =
            DeltaServer::create_durable(graph.clone(), make, config.clone(), durability.clone())
                .unwrap();
        let mut witness = DeltaServer::try_new(graph, make, ServerConfig::default()).unwrap();
        let check =
            |server: &mut DeltaServer<SsspProgram, _>, witness: &DeltaServer<_, _>, at: &str| {
                assert_eq!(
                    *server.degrees,
                    Degrees::of(server.graph()),
                    "{at}: degrees"
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

    /// A second recovery point: `durability`'s snapshot and WAL copied into
    /// a fresh directory, so a reopened copy and the live server never share
    /// a log.
    fn copy_durable_state(durability: &DurabilityConfig, tag: &str) -> DurabilityConfig {
        let copy = DurabilityConfig::new(durable_dir(tag));
        std::fs::create_dir_all(&copy.dir).unwrap();
        std::fs::copy(durability.snapshot_path(), copy.snapshot_path()).unwrap();
        std::fs::copy(durability.wal_path(), copy.wal_path()).unwrap();
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

    /// Warm restarts never read the rulers: warm batches that keep |V| hand
    /// every engine the same guidance `Arc` and leave it stale, the first
    /// `guidance()` read after them regenerates it, and a full-recompute
    /// batch leaves it current.
    #[test]
    fn warm_batches_never_touch_the_guidance() {
        let graph = generators::rmat(500, 3500, 0.57, 0.19, 0.19, 83);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let mut server = sssp_server(graph.clone(), root, ServerConfig::default());
        let initial = Arc::clone(&server.rrg);
        let mut current = graph;
        for round in 0..3u64 {
            let batch = mixed_batch(&current, round + 640, 20);
            let outcome = server.try_apply(&batch).unwrap();
            current = current.apply_batch(&batch).0;
            assert!(!outcome.full_recompute, "round {round} must stay warm");
            assert_eq!(outcome.effect.vertices_added, 0);
            assert!(
                Arc::ptr_eq(&server.rrg, &initial),
                "round {round}: the warm path replaced the guidance"
            );
            assert!(server.guidance_stale, "round {round}");
        }
        // The first read regenerates; a second one reuses that guidance.
        assert_eq!(*server.guidance(), RrGuidance::generate(&current));
        assert!(!server.guidance_stale);
        let regenerated = Arc::clone(&server.rrg);
        assert!(!Arc::ptr_eq(&regenerated, &initial));
        server.guidance();
        assert!(Arc::ptr_eq(&server.rrg, &regenerated));

        // A cold run reads the rulers, so it leaves the guidance current.
        server.config.full_recompute_dirty_fraction = 0.0;
        let batch = mixed_batch(&current, 650, 20);
        assert!(server.try_apply(&batch).unwrap().full_recompute);
        current = current.apply_batch(&batch).0;
        assert!(!server.guidance_stale);
        assert_eq!(*server.rrg, RrGuidance::generate(&current));
    }

    /// Out-of-core durable serving: snapshots compact the segment files past
    /// the configured dead-byte bound, and compaction never perturbs values.
    #[test]
    fn snapshots_compact_the_segment_files_past_the_dead_byte_bound() {
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
        let durability = DurabilityConfig::new(&dir)
            .with_snapshot_every(2)
            .with_max_dead_fraction(0.15);
        let mut server =
            DeltaServer::create_durable(graph.clone(), make, oocore, durability.clone()).unwrap();
        let mut witness = sssp_server(graph.clone(), root, ServerConfig::default());
        let mut current = graph;
        for round in 0..8u64 {
            let batch = mixed_batch(&current, round + 7000, 25);
            let outcome = server.try_apply(&batch).unwrap();
            witness.try_apply(&batch).unwrap();
            current = current.apply_batch(&batch).0;
            assert_eq!(bits(server.values()), bits(witness.values()));
            // Byte health is reported per batch.
            assert!(outcome.storage_live_bytes > 0);
            // Right after a snapshot the dead fraction sits at or below the
            // bound (a fresh compaction leaves it at zero).
            if server.wal_seq() == Some(round + 1) && (round + 1) % 2 == 0 {
                let s = server.storage().unwrap();
                assert!(
                    s.dead_fraction() <= durability.max_dead_fraction,
                    "round {round}: dead fraction {} above the bound",
                    s.dead_fraction()
                );
            }
        }
        let counters = server.durability_counters().unwrap();
        assert!(counters.compactions >= 1, "no snapshot ever compacted");
        assert!(counters.compaction_bytes_reclaimed > 0);
        assert!(counters.snapshots_written >= 4);
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
        binary::encode_graph(&mut graph_section, server.graph());
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
}
