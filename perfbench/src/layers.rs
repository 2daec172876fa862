//! Per-layer metrics of a traced run. Every workload reports every metric;
//! a layer the workload does not drive reports 0.
//!
//! Times and counts are means per op of the traced phase, except the ratios,
//! the peaks (`*_peak_mb`), and the rare-event run totals
//! `server.full_recomputes`, `durability.compactions` and
//! `durability.reclaimed_mb`.

use crate::report::Metric;
use crate::trace::Tracer;

/// Sums gathered over the ops of one traced phase.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Ops in the traced phase.
    pub ops: f64,
    /// Guidance generation (`SlfeEngine::preprocessing_wall_seconds`) or
    /// repair (the server's `guidance_repair` spans), ms.
    pub rrg_generate_ms: f64,
    /// `RrGuidance::generation_work` of each generated or repaired guidance.
    pub rrg_work: f64,
    /// `SlfeEngine::build` wall minus the guidance generation, ms.
    pub engine_build_ms: f64,
    /// Engine run wall (cold `run`, or the server's restart spans), ms.
    pub engine_run_ms: f64,
    /// Engine iterations.
    pub iterations: f64,
    /// Edge computations.
    pub edge_computations: f64,
    /// Vertex updates.
    pub vertex_updates: f64,
    /// Chunks skipped by the activity summaries.
    pub chunks_skipped: f64,
    /// Chunk visits: chunks of the layout times chunked-phase iterations.
    pub chunk_visits: f64,
    /// Peak push scratch, bytes.
    pub scratch_peak_bytes: f64,
    /// Worker busy time, ns.
    pub pool_busy_ns: f64,
    /// Worker capacity (pool lifetime × threads), ns.
    pub pool_worker_ns: f64,
    /// Coordinator time blocked at phase barriers, ns.
    pub pool_barrier_ns: f64,
    /// Pool lifetime, ns.
    pub pool_lifetime_ns: f64,
    /// Simulated messages (engine plus batch distribution).
    pub messages: f64,
    /// Simulated message bytes.
    pub bytes: f64,
    /// `Graph::apply_batch` on the served graph, ms.
    pub graph_patch_ms: f64,
    /// `BatchEffect::dirty` length.
    pub dirty_vertices: f64,
    /// `GlobalChunkLayout::patched` on the served layout, ms.
    pub layout_patch_ms: f64,
    /// `LayoutPatchStats::vertices_scanned`.
    pub vertices_scanned: f64,
    /// `BatchOutcome::wall_seconds`, ms.
    pub server_apply_ms: f64,
    /// `ServerStats::full_recomputes` over the phase.
    pub full_recomputes: f64,
    /// Frontend apply latency, ms.
    pub frontend_apply_ms: f64,
    /// Visible latency minus frontend apply latency, ms.
    pub frontend_overhead_ms: f64,
    /// `BatchOutcome::wal_fsync_seconds`, ms.
    pub wal_fsync_ms: f64,
    /// WAL bytes appended.
    pub wal_bytes: f64,
    /// Snapshot bytes written.
    pub snapshot_bytes: f64,
    /// Segment compactions over the phase.
    pub compactions: f64,
    /// Bytes compaction reclaimed.
    pub reclaimed_bytes: f64,
    /// Segments faulted through the buffer pool.
    pub segments_faulted: f64,
    /// Bytes those faults read.
    pub read_bytes: f64,
    /// Buffer-pool hits.
    pub segment_hits: f64,
    /// Buffer-pool lookups (hits plus faults).
    pub segment_gets: f64,
    /// `BatchOutcome::segments_rewritten`.
    pub segments_rewritten: f64,
    /// `BufferPool::peak_resident_bytes`.
    pub resident_peak_bytes: f64,
    /// One `top_k(10)`, ms.
    pub topk_ms: f64,
}

const MIB: f64 = 1024.0 * 1024.0;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Every per-layer metric, reading span-derived times from `spans`.
    pub fn metrics(&self, spans: &Tracer) -> Vec<Metric> {
        let per = |x: f64| ratio(x, self.ops);
        let span = |cat: &str, name: &str| per(spans.total_ms(cat, name));
        // The patch probes re-run work the server's `batch` span already
        // covers; what is left of its self time is unattributed.
        let unattributed = if spans.total_ms("server", "batch") > 0.0 {
            per(spans.self_ms("server", "batch") - self.graph_patch_ms - self.layout_patch_ms)
        } else {
            0.0
        };
        vec![
            Metric::new("rrg.generate_ms", per(self.rrg_generate_ms), "ms"),
            Metric::new("rrg.work", per(self.rrg_work), "count"),
            Metric::new("engine.build_ms", per(self.engine_build_ms), "ms"),
            Metric::new("engine.run_ms", per(self.engine_run_ms), "ms"),
            Metric::new("engine.iterations", per(self.iterations), "count"),
            Metric::new(
                "engine.edge_computations",
                per(self.edge_computations),
                "count",
            ),
            Metric::new("engine.vertex_updates", per(self.vertex_updates), "count"),
            Metric::new(
                "engine.useful_ratio",
                ratio(self.vertex_updates, self.edge_computations),
                "ratio",
            ),
            Metric::new(
                "engine.chunks_skipped_ratio",
                ratio(self.chunks_skipped, self.chunk_visits),
                "ratio",
            ),
            Metric::new("engine.pull_ms", span("pull", "phase"), "ms"),
            Metric::new("engine.push_ms", span("push", "phase"), "ms"),
            Metric::new(
                "engine.barrier_ms",
                per(spans.self_ms("engine", "barrier")),
                "ms",
            ),
            Metric::new("engine.merge_ms", span("engine", "merge"), "ms"),
            Metric::new(
                "engine.scratch_peak_mb",
                self.scratch_peak_bytes / MIB,
                "MiB",
            ),
            Metric::new(
                "pool.busy_frac",
                ratio(self.pool_busy_ns, self.pool_worker_ns),
                "ratio",
            ),
            Metric::new(
                "pool.barrier_wait_frac",
                ratio(self.pool_barrier_ns, self.pool_lifetime_ns),
                "ratio",
            ),
            Metric::new("comm.messages", per(self.messages), "count"),
            Metric::new("comm.mb", per(self.bytes) / MIB, "MiB"),
            Metric::new("graph.patch_ms", per(self.graph_patch_ms), "ms"),
            Metric::new("graph.dirty_vertices", per(self.dirty_vertices), "count"),
            Metric::new("layout.patch_ms", per(self.layout_patch_ms), "ms"),
            Metric::new(
                "layout.vertices_scanned",
                per(self.vertices_scanned),
                "count",
            ),
            Metric::new("server.apply_ms", per(self.server_apply_ms), "ms"),
            Metric::new("server.unattributed_ms", unattributed, "ms"),
            Metric::new("server.full_recomputes", self.full_recomputes, "count"),
            Metric::new("frontend.apply_ms", per(self.frontend_apply_ms), "ms"),
            Metric::new("frontend.overhead_ms", per(self.frontend_overhead_ms), "ms"),
            Metric::new("durability.wal_fsync_ms", per(self.wal_fsync_ms), "ms"),
            Metric::new("durability.wal_bytes", per(self.wal_bytes), "bytes"),
            Metric::new("durability.snapshot_ms", span("server", "snapshot"), "ms"),
            Metric::new(
                "durability.snapshot_mb",
                per(self.snapshot_bytes) / MIB,
                "MiB",
            ),
            Metric::new("durability.compactions", self.compactions, "count"),
            Metric::new("durability.reclaimed_mb", self.reclaimed_bytes / MIB, "MiB"),
            Metric::new(
                "storage.segments_faulted",
                per(self.segments_faulted),
                "count",
            ),
            Metric::new("storage.read_mb", per(self.read_bytes) / MIB, "MiB"),
            Metric::new(
                "storage.hit_rate",
                ratio(self.segment_hits, self.segment_gets),
                "ratio",
            ),
            Metric::new("storage.disk_read_ms", span("storage", "disk_read"), "ms"),
            Metric::new("storage.decode_ms", span("storage", "decode"), "ms"),
            Metric::new(
                "storage.segments_rewritten",
                per(self.segments_rewritten),
                "count",
            ),
            Metric::new(
                "storage.resident_peak_mb",
                self.resident_peak_bytes / MIB,
                "MiB",
            ),
            Metric::new("query.topk_ms", per(self.topk_ms), "ms"),
        ]
    }

    /// Fold one engine run's counters and iteration trace in; `chunks` is
    /// the size of the layout it ran on.
    pub fn add_run(&mut self, stats: &slfe_metrics::ExecutionStats, chunks: usize) {
        let t = &stats.totals;
        self.iterations += f64::from(stats.iterations);
        self.edge_computations += t.edge_computations as f64;
        self.vertex_updates += t.vertex_updates as f64;
        self.chunks_skipped += t.chunks_skipped as f64;
        self.messages += t.messages_sent as f64;
        self.bytes += t.bytes_sent as f64;
        self.scratch_peak_bytes = self.scratch_peak_bytes.max(t.scratch_bytes_peak as f64);
        self.segments_faulted += t.segments_faulted as f64;
        self.read_bytes += t.segment_bytes_read as f64;
        // Push phases at one worker per node take the sequential path, which
        // visits no chunks; every other phase visits each chunk once.
        let chunked = stats
            .trace
            .records()
            .iter()
            .filter(|r| r.mode == slfe_metrics::Mode::Pull || stats.workers_per_node > 1)
            .count();
        self.chunk_visits += (chunked * chunks) as f64;
    }

    /// Fold in what a server reported about one applied batch.
    pub fn add_outcome(&mut self, outcome: &slfe_delta::BatchOutcome) {
        self.server_apply_ms += outcome.wall_seconds * 1e3;
        self.vertices_scanned += outcome.layout_patch.vertices_scanned as f64;
        self.messages += outcome.distribution_messages as f64;
        self.wal_fsync_ms += outcome.wal_fsync_seconds * 1e3;
        self.segments_rewritten += outcome.segments_rewritten as f64;
        self.full_recomputes += f64::from(u8::from(outcome.full_recompute));
    }

    /// Fold in the worker-pool activity accrued between two snapshots.
    pub fn add_pool(
        &mut self,
        before: Option<&slfe_cluster::PoolActivity>,
        after: &slfe_cluster::PoolActivity,
    ) {
        let busy = |a: &slfe_cluster::PoolActivity| a.per_worker_busy_nanos.iter().sum::<u64>();
        let (busy0, barrier0, life0) = before.map_or((0, 0, 0), |b| {
            (busy(b), b.barrier_wait_nanos, b.lifetime_nanos)
        });
        let life = after.lifetime_nanos.saturating_sub(life0) as f64;
        self.pool_busy_ns += busy(after).saturating_sub(busy0) as f64;
        self.pool_barrier_ns += after.barrier_wait_nanos.saturating_sub(barrier0) as f64;
        self.pool_lifetime_ns += life;
        self.pool_worker_ns += life * after.per_worker_busy_nanos.len() as f64;
    }
}
