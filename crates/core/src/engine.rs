//! The RR-aware parallel execution engine (paper Algorithms 2–4 and §3.3–3.6).
//!
//! The engine owns a partitioned view of the graph (the simulated cluster), the
//! redundancy-reduction guidance produced at build time, and the configuration. A
//! [`crate::GraphProgram`] is executed iteratively:
//!
//! * **Mode selection.** Min/max programs switch between *push* (scatter along the
//!   outgoing edges of active vertices) and *pull* (gather along the incoming edges
//!   of every scheduled vertex) using Gemini's active-edge-fraction heuristic.
//!   Arithmetic programs always pull (§3.3, footnote 2). The active frontier is a
//!   dense [`Bitset`] (one bit per vertex, popcount-based counting), reused across
//!   iterations.
//! * **Start late.** With redundancy reduction enabled, a min/max destination vertex
//!   is only pulled once the iteration number (the *single ruler*) has reached its
//!   `last_iter` from the guidance.
//! * **Finish early.** An arithmetic vertex whose value has been stable for
//!   `last_iter` consecutive iterations (the *multi ruler*) is early-converged and
//!   skipped for the rest of the run.
//! * **Correctness.** On every pull→push transition all vertices are re-activated so
//!   updates made by since-deactivated vertices still reach their successors
//!   (Algorithm 3, lines 2–4). A redundancy-reduced min/max run additionally never
//!   terminates straight out of pull mode: if the active set empties while the last
//!   iteration was a pull, one "flush" push with full reactivation runs first, so
//!   every vertex that "started late" still receives the updates it skipped.
//!
//! # Real parallelism vs. simulation
//!
//! Execution runs on a **persistent, machine-spanning worker pool**
//! ([`slfe_cluster::WorkerPool`], `total_workers = nodes × workers_per_node`
//! threads, spawned once at engine build and parked between phases). One
//! iteration is **one global phase**: every node's owned-vertex chunks — cut by
//! the degree-aware [`slfe_cluster::GlobalChunkLayout`] (hub chunks split,
//! claim order descending by estimated work) — are claimed by all pool workers
//! at once, so logical nodes execute *concurrently*, not one after another.
//! Wall-clock time therefore scales with `total_workers` on real hardware.
//!
//! What remains *simulated* is the cluster's cost model: inter-node messages
//! are counted (never sent over a network) and priced at the iteration
//! barrier, and the per-iteration "simulated seconds" are derived by
//! deterministically re-assigning the measured per-chunk costs to each node's
//! `workers_per_node` simulated workers (greedy least-loaded over the layout
//! order — what chunk-grained stealing converges to) and taking the slowest
//! node's busiest worker. In short: parallel execution is measured machine-wide,
//! the distribution (node-local worker counts, network pricing) is modelled —
//! and, new in PR 3, the simulated schedule itself is deterministic at every
//! worker count, because it no longer depends on which physical thread happened
//! to steal which chunk.
//!
//! # Parallel execution and determinism
//!
//! Workers never share mutable state during a phase. Each worker owns a scratch
//! ([`Counters`], a next-frontier [`Bitset`], a per-node-pair message tally, and —
//! for push mode — a local gather buffer plus a contributing-sender-node mask);
//! scratches are merged at the phase barrier. The guarantees, per aggregation
//! kind:
//!
//! * **Pull mode** (both kinds): every destination vertex is written by exactly one
//!   worker, and its gather folds the incoming edges in the fixed CSC order. Values
//!   — including arithmetic (floating-point) sums — are **bit-for-bit identical**
//!   for every worker count, as are all counters and message tallies.
//! * **Push mode** (min/max only — arithmetic programs never push): workers fold
//!   contributions into worker-local buffers which are combined once per
//!   destination at the barrier. Because a min/max `combine` is idempotent,
//!   commutative and associative, the merged values are **bit-for-bit
//!   identical** for every worker count. Update counters are counted per
//!   merged destination (not per improving edge), and messages are charged
//!   once per changed remote destination per *contributing sender node*
//!   (sender-side aggregation — the sender set is tracked exactly through the
//!   per-worker node masks), so they too are identical for every worker count.
//!
//! There is **one push path and one pull path**, at every worker count:
//! `workers_per_node: 1` runs the same chunked global phases as any other
//! count, so counters, chunk skips and per-node-pair message tallies are
//! identical at 1, 2 or 4 workers per node. Which physical worker processes
//! which chunk remains nondeterministic under stealing. Results, counter
//! totals and message tallies do not depend on it, and neither does the
//! simulated schedule, which is derived from deterministic per-chunk costs.
//!
//! # Activity-proportional execution (PR 4)
//!
//! The redundancy rulers make *counted work* proportional to what still needs
//! computing; the mechanisms below make the executor's *per-iteration
//! overhead*, its *memory footprint* and a warm restart's counted work
//! follow suit, without changing a single result bit:
//!
//! * **Chunk-level activity summaries.** Before each phase the engine decides,
//!   from barrier-merged state only (so the decision is identical at every
//!   worker count), which whole chunks cannot produce any effect and skips
//!   them without touching their vertices: a push skips chunks with no active
//!   source (word-range popcount of the frontier over the chunk's own-vertex
//!   span); a min/max pull skips chunks that are entirely rr-gated
//!   (`iter < min last_iter` over the chunk), chunks with no in-edges, and
//!   *caught-up* chunks none of whose in-neighbors changed last iteration
//!   (frontier probe over the chunk's in-neighbor span) — a chunk is caught up
//!   once a pull past its `max last_iter` (or a fully-reactivated push at such
//!   an iteration) has delivered every in-edge at least once, after which the
//!   standard incremental invariant applies; an arithmetic pull skips chunks
//!   whose every vertex has early-converged (per-chunk converged counts
//!   maintained at the barrier). No skip rule can change a value, a frontier
//!   bit, a vertex-update count or the run's trajectory; the rr-gate,
//!   no-in-edge, early-converged and push rules are additionally exact on
//!   every counter (the per-vertex paths would have recorded nothing), while
//!   the caught-up rule deliberately *drops* redundant gather work — its
//!   `edge_computations` and pull-mode mirror messages — which is precisely
//!   the saving being measured. Skipped chunks cost 0 in the simulated
//!   per-node schedule and are tallied in [`Counters::chunks_skipped`].
//! * **Sparse push scratch.** Below
//!   [`crate::EngineConfig::sparse_push_density`] (active-vertex fraction),
//!   push workers fold contributions into compact open-addressed maps
//!   (destination → value + contributing-node mask) instead of dense O(n)
//!   buffers, and the barrier merge walks only live entries (applied in
//!   ascending destination order). Because a min/max `combine` is idempotent,
//!   commutative and associative, and the per-sender-node masks are preserved
//!   exactly, the merged values, counters and message tallies are bit-for-bit
//!   identical to the dense representation. Dense scratch (including the
//!   shared merge buffers) is allocated lazily on the first *dense* push
//!   phase, so warm `push_only` restarts and arithmetic (pull-only) runs never
//!   pay the `total_workers × O(n)` footprint; the live footprint is reported
//!   in [`Counters::scratch_bytes_peak`].
//! * **Selective pulls in arithmetic warm restarts** ("finish early" across
//!   batches). A restart ([`SlfeEngine::run_from`]) pulls at each iteration
//!   only X ∪ out(X), X being the set the previous pull changed (for the
//!   first pull, the batch's dirty endpoints plus every vertex whose warm
//!   value differs from its previous one). The marks are built at the top
//!   of the iteration from barrier-merged state by walking X's out-lists
//!   through the engine's out-store, so out of core the walk faults real
//!   segments; each walked edge counts as an edge computation and each
//!   (changed source, remote node) pair as one message. A chunk with no
//!   marked vertex is skipped and tallied in [`Counters::chunks_skipped`],
//!   and unmarked vertices inside visited chunks are passed over. When
//!   Σ(1 + out-degree) over X exceeds the push/pull threshold (5% of |E|)
//!   the iteration pulls every vertex. A skipped vertex would recompute, from inputs
//!   unchanged since its last pull, bits that pull already judged within
//!   tolerance, so values, iteration counts and changed sets are
//!   bit-identical to full sweeps, provided the previous result is an exact
//!   fixpoint ([`crate::ProgramResult::exact_fixpoint`]); otherwise the
//!   first pull stays full. Cold runs keep the paper's full sweeps.
//!
//! **Memory trade-off:** dense scratch is per *pool* worker, so a dense push
//! phase allocates `total_workers` (not `workers_per_node`) O(n) buffers — for
//! min/max programs one gather buffer, an n-bit touched set and an n-bit
//! frontier per worker (≈ `total_workers × 9n` bytes at one `f32` per vertex,
//! e.g. ~2.9 GB for 10M vertices on the 8×4 default). That is the price of
//! cross-node push parallelism with contention-free sender-local folding on
//! *dense* frontiers; sparse phases and pull-only programs stay at
//! O(touched destinations) per worker.

use crate::config::{EngineConfig, RedundancyMode};
use crate::program::{AggregationKind, GraphProgram};
use crate::result::ProgramResult;
use crate::rrg::RrGuidance;
use slfe_cluster::{ChunkScheduler, Cluster, ClusterConfig, GlobalChunkLayout, WorkerPool};
use slfe_graph::storage::{AdjacencyStore, StreamCursor};
use slfe_graph::{Bitset, Degrees, Graph, GraphStorage, VertexId};
use slfe_metrics::telemetry::{RunRecorder, SpanWindow, Telemetry};
use slfe_metrics::{Counters, ExecutionStats, Mode, PhaseBreakdown};
use std::sync::Arc;
use std::time::Instant;

/// Size in bytes of one vertex update message: a 4-byte vertex id + 4-byte value.
const UPDATE_MESSAGE_BYTES: u64 = 8;

/// Fraction of edges that must be active for a min/max phase to pull rather
/// than push (Gemini's direction-switching heuristic; the paper inherits it).
const PULL_THRESHOLD: f64 = 0.05;

/// A raw-pointer view of a slice that worker threads write through.
///
/// Safety contract: callers must guarantee that no index is accessed by more than
/// one worker during a phase. The engine upholds this by construction — in pull
/// mode every index written is a destination vertex, and each destination belongs
/// to exactly one mini-chunk, which is processed by exactly one worker.
struct SharedSlice<T> {
    ptr: *mut T,
    #[cfg(debug_assertions)]
    len: usize,
}

unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T: Copy> SharedSlice<T> {
    fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            #[cfg(debug_assertions)]
            len: slice.len(),
        }
    }

    /// # Safety
    /// `i` must be in bounds and not concurrently written by another worker.
    #[inline]
    unsafe fn get(&self, i: usize) -> T {
        #[cfg(debug_assertions)]
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// # Safety
    /// `i` must be in bounds and not concurrently accessed by another worker.
    #[inline]
    unsafe fn set(&self, i: usize, value: T) {
        #[cfg(debug_assertions)]
        debug_assert!(i < self.len);
        *self.ptr.add(i) = value;
    }
}

/// Slot key marking a free entry of [`SparsePushMap`]. `u32::MAX` can never be
/// a real destination: a graph with `u32::MAX` vertices does not fit the id
/// space ([`slfe_graph::INVALID_VERTEX`] reserves the same value).
const EMPTY_KEY: u32 = u32::MAX;

/// Open-addressed (linear-probe, power-of-two capacity) map from destination
/// vertex to a folded push contribution plus its contributing-sender-node
/// mask: the sparse counterpart of the dense `local_values`/`touched`/
/// `contrib_nodes` trio. Used by push phases whose frontier density is below
/// [`crate::EngineConfig::sparse_push_density`], so memory and merge time are
/// proportional to the destinations actually touched, not to |V|.
///
/// Hash/probe order never reaches the results: contributions fold per
/// destination with the program's idempotent-commutative-associative min/max
/// `combine`, masks fold with bitwise OR, and the barrier applies destinations
/// in ascending id order — so values, counters and message tallies are
/// bit-identical to the dense representation.
struct SparsePushMap<V> {
    /// Destination keys, `EMPTY_KEY` = free. Length is 0 or a power of two.
    keys: Vec<u32>,
    /// Folded contribution per slot.
    values: Vec<V>,
    /// `mask_words` contributing-node words per slot (empty on single-node
    /// clusters, where no messages need attribution).
    masks: Vec<u64>,
    mask_words: usize,
    /// Live entries.
    len: usize,
}

impl<V: Copy> SparsePushMap<V> {
    fn new(mask_words: usize) -> Self {
        Self {
            keys: Vec::new(),
            values: Vec::new(),
            masks: Vec::new(),
            mask_words,
            len: 0,
        }
    }

    /// Fibonacci multiplicative hash into a power-of-two table.
    #[inline]
    fn bucket(dst: u32, capacity: usize) -> usize {
        ((dst as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (capacity - 1)
    }

    /// The slot holding `dst`, inserting a fresh `identity`-valued entry if
    /// absent; the bool reports whether the entry is fresh. Grows (rehashes)
    /// at 7/8 load so linear probing stays short.
    #[inline]
    fn slot_for(&mut self, dst: u32, identity: V) -> (usize, bool) {
        debug_assert_ne!(dst, EMPTY_KEY);
        if self.keys.is_empty() || (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow(identity);
        }
        let capacity = self.keys.len();
        let mut i = Self::bucket(dst, capacity);
        loop {
            let k = self.keys[i];
            if k == dst {
                return (i, false);
            }
            if k == EMPTY_KEY {
                self.keys[i] = dst;
                self.len += 1;
                return (i, true);
            }
            i = (i + 1) & (capacity - 1);
        }
    }

    /// Double the capacity (min 64 slots) and rehash every live entry.
    fn grow(&mut self, identity: V) {
        let new_capacity = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_capacity]);
        let old_values = std::mem::replace(&mut self.values, vec![identity; new_capacity]);
        let old_masks =
            std::mem::replace(&mut self.masks, vec![0u64; new_capacity * self.mask_words]);
        for (slot, &key) in old_keys.iter().enumerate() {
            if key == EMPTY_KEY {
                continue;
            }
            let mut i = Self::bucket(key, new_capacity);
            while self.keys[i] != EMPTY_KEY {
                i = (i + 1) & (new_capacity - 1);
            }
            self.keys[i] = key;
            self.values[i] = old_values[slot];
            self.masks[i * self.mask_words..(i + 1) * self.mask_words]
                .copy_from_slice(&old_masks[slot * self.mask_words..(slot + 1) * self.mask_words]);
        }
    }

    /// Visit every live entry as `(destination, value, mask words)`.
    fn for_each(&self, mut f: impl FnMut(u32, V, &[u64])) {
        for (slot, &key) in self.keys.iter().enumerate() {
            if key != EMPTY_KEY {
                f(
                    key,
                    self.values[slot],
                    &self.masks[slot * self.mask_words..(slot + 1) * self.mask_words],
                );
            }
        }
    }

    /// Drop every entry, keeping the capacity for the next phase.
    fn clear(&mut self) {
        if self.len > 0 {
            self.keys.fill(EMPTY_KEY);
            self.masks.fill(0);
            self.len = 0;
        }
    }

    /// Drop the entries *and* the capacity (a dense phase took over).
    fn release(&mut self) {
        self.keys = Vec::new();
        self.values = Vec::new();
        self.masks = Vec::new();
        self.len = 0;
    }

    /// Current footprint in bytes (keys + values + masks).
    fn bytes(&self) -> u64 {
        (self.keys.len() * (4 + std::mem::size_of::<V>()) + self.masks.len() * 8) as u64
    }
}

/// Per-worker scratch, allocated once per run and reused every iteration.
struct WorkerScratch<V> {
    /// Vertices this worker activated during the current phase.
    next_frontier: Bitset,
    /// Work counters accumulated during the current phase.
    counters: Counters,
    /// Number of vertex-value changes this worker observed (pull mode).
    changed: usize,
    /// Message tally per `(src_node, dst_node)` pair, flushed at the barrier.
    messages: Vec<u64>,
    /// Byte tally parallel to `messages`.
    bytes: Vec<u64>,
    /// Dense push scratch: worker-local gather buffer, first-write guarded by
    /// `touched`. **Lazily allocated** by the first dense push phase
    /// ([`WorkerScratch::ensure_dense`]) — sparse-only runs (warm `push_only`
    /// restarts, tiny frontiers) and pull-only programs never pay the O(n).
    local_values: Vec<V>,
    /// Dense push scratch: which entries of `local_values` hold contributions.
    touched: Bitset,
    /// Dense push scratch, multi-node clusters: per-destination bitmask of the
    /// nodes whose sources contributed to `local_values[d]` — `mask_words`
    /// words per destination. Merged at the barrier to charge one message per
    /// changed remote destination per contributing sender node. Entries are
    /// zeroed lazily alongside `touched`.
    contrib_nodes: Vec<u64>,
    /// Sparse push scratch: the compact map used below the density threshold.
    sparse: SparsePushMap<V>,
    /// Telemetry: the worker's execute window for the current phase, covered
    /// lock-free inside the phase closure and drained by the coordinator
    /// after the pool barrier. Never read when telemetry is off.
    window: SpanWindow,
}

impl<V: Copy> WorkerScratch<V> {
    /// `mask_words` is 0 on single-node clusters (no messages to attribute).
    /// No push scratch is allocated here — dense buffers appear on the first
    /// dense push phase, the sparse map grows with its first contributions.
    fn new(n: usize, num_nodes: usize, mask_words: usize) -> Self {
        Self {
            next_frontier: Bitset::new(n),
            counters: Counters::zero(),
            changed: 0,
            messages: vec![0u64; num_nodes * num_nodes],
            bytes: vec![0u64; num_nodes * num_nodes],
            local_values: Vec::new(),
            touched: Bitset::new(0),
            contrib_nodes: Vec::new(),
            sparse: SparsePushMap::new(mask_words),
            window: SpanWindow::default(),
        }
    }

    /// Allocate the dense push trio if this worker does not have it yet.
    fn ensure_dense(&mut self, n: usize, mask_words: usize, identity: V) {
        if self.touched.len() != n {
            self.local_values = vec![identity; n];
            self.touched = Bitset::new(n);
            self.contrib_nodes = vec![0u64; n * mask_words];
        }
    }

    /// Live push-scratch footprint (dense trio if allocated, plus the map).
    fn scratch_bytes(&self) -> u64 {
        (self.local_values.len() * std::mem::size_of::<V>()
            + self.touched.words().len() * 8
            + self.contrib_nodes.len() * 8) as u64
            + self.sparse.bytes()
    }

    #[inline]
    fn record_message(&mut self, num_nodes: usize, src_node: usize, dst_node: usize, bytes: u64) {
        let idx = src_node * num_nodes + dst_node;
        self.messages[idx] += 1;
        self.bytes[idx] += bytes;
    }
}

/// Seed state of one engine run: where the values and the frontier start, and
/// whether the redundancy-reduction rulers apply. [`SlfeEngine::run`] seeds from
/// the program's initial state; [`SlfeEngine::run_from`] seeds from a previous
/// fixpoint plus the dirty set of an edge-update batch.
struct RunSeed<V> {
    values: Vec<V>,
    active: Bitset,
    /// Whether the RR rulers gate this run. Warm min/max restarts disable them:
    /// "start late" levels are indexed by iteration number from a cold start and
    /// are meaningless relative to a warm frontier.
    use_rr: bool,
    /// Min/max only: never switch to pull mode. A warm restart's frontier can
    /// exceed the Gemini density threshold while almost every vertex is already
    /// at its fixpoint — a pull would then recompute the whole graph, exactly
    /// the redundancy a warm start exists to avoid. Push's counted work stays
    /// proportional to the disturbed region. (Pull's edge advantage is memory
    /// locality, i.e. wall clock on dense frontiers, not counted work.)
    push_only: bool,
    /// Arithmetic warm restarts only: each pull visits only the vertices the
    /// previous pull changed (`active`; for the first pull, the seed set)
    /// and their out-neighbours, unless that set is too large to be worth
    /// marking. Cold runs keep the paper's full sweeps.
    selective: bool,
    /// Work performed before the iteration loop (the warm-start invalidation
    /// pass), folded into the run's totals so counted work stays honest.
    preset: Counters,
}

/// Every part [`SlfeEngine::from_parts`] assembles an engine from. All are
/// required; [`SlfeEngine::build`] derives each one from the graph.
#[derive(Debug)]
pub struct EngineParts {
    /// The simulated cluster the graph is partitioned over.
    pub cluster: Cluster,
    /// Engine configuration.
    pub config: EngineConfig,
    /// Redundancy-reduction guidance covering the graph's vertices. Shared,
    /// so a caller that keeps it across graph versions hands it over without
    /// a copy. Only a ruler-gated [`SlfeEngine::run`] reads it: the serving
    /// loop hands warm restarts the previous version's guidance (padded when
    /// |V| grew) and regenerates it before a full recompute.
    pub rrg: Arc<RrGuidance>,
    /// The graph's per-vertex degrees, [`Degrees::of`] the engine's graph
    /// (`from_parts` checks the length). Shared, so a caller that keeps them
    /// across graph versions can patch them at each batch's dirty endpoints
    /// ([`Degrees::patch`]) instead of re-extracting `O(V)` per engine.
    pub degrees: Arc<Degrees>,
    /// Worker pool with at least the cluster's `total_workers` threads.
    pub pool: Arc<WorkerPool>,
    /// Chunk layout spanning the cluster's nodes and covering each node's
    /// owned vertices exactly.
    pub layout: GlobalChunkLayout,
    /// Out-of-core segment store covering the graph; `None` runs in-memory
    /// regardless of what the configuration requests.
    pub storage: Option<Arc<GraphStorage>>,
    /// Telemetry hub, attached to the storage buffer pool when one is present.
    pub telemetry: Arc<Telemetry>,
}

/// The SLFE engine bound to one graph and one simulated cluster.
#[derive(Debug)]
pub struct SlfeEngine<'g> {
    graph: &'g Graph,
    cluster: Cluster,
    config: EngineConfig,
    rrg: Arc<RrGuidance>,
    /// The persistent worker pool: `total_workers` threads spawned once at
    /// build (or handed in through [`EngineParts::pool`]) and reused by every
    /// phase of every run.
    pool: Arc<WorkerPool>,
    /// Degree-aware, cluster-wide chunk layout (built once per graph version,
    /// or patched from the previous version's layout by the serving path).
    layout: GlobalChunkLayout,
    /// Per chunk of `layout`: `(min, max)` of the guidance's `last_iter` over
    /// the chunk's vertices. A min/max pull at `iter < min` would gate every
    /// vertex individually, so the whole chunk is skipped; a pull (or full
    /// reactivation push) at `iter >= max` gates nobody, which is what lets
    /// the chunk graduate to frontier-based skipping (`caught_up`).
    ///
    /// Computed lazily on the first ruler-gated run: warm restarts run with
    /// the rulers off and never read it, so the serving path's per-batch
    /// engine construction stays free of this O(V) scan (only a cold run or
    /// the server's dirty-fraction fallback pays it, once per engine).
    chunk_rr: std::sync::OnceLock<Vec<(u32, u32)>>,
    /// Out-of-core mode ([`EngineConfig::storage_budget_bytes`]): the graph's
    /// CSR/CSC on disk in segments, traversed through a byte-budgeted buffer
    /// pool instead of the in-memory adjacency. `None` keeps the historical
    /// all-in-RAM execution. Values are bit-identical either way; the
    /// difference is which bytes are resident (and the
    /// `segments_faulted`/`segment_bytes_read` counters).
    storage: Option<Arc<GraphStorage>>,
    /// Per-vertex degree arrays handed to program callbacks in place of the
    /// in-RAM graph ([`crate::GraphProgram`] hooks take `&Degrees`): two `u32`
    /// per vertex, indexed by physical id. Extracted by [`SlfeEngine::build`],
    /// or handed in through [`EngineParts::degrees`].
    degrees: Arc<Degrees>,
    /// Telemetry hub (span tracing + latency histograms), built from
    /// `config.telemetry` (or handed in through [`EngineParts::telemetry`])
    /// and attached to the storage buffer pool when one is present. Disabled
    /// by default; the disabled hub's begin/end are no-ops and the engine's
    /// hot paths read zero clocks through it.
    telemetry: Arc<Telemetry>,
    preprocessing_seconds: f64,
    preprocessing_wall_seconds: f64,
}

impl<'g> SlfeEngine<'g> {
    /// Partition `graph` across a fresh cluster, spawn its worker pool,
    /// generate the RR guidance, derive the chunk layout and — when the
    /// configuration asks for out-of-core execution — write the segment files.
    ///
    /// Panics when the out-of-core segment files cannot be written.
    pub fn build(graph: &'g Graph, cluster_config: ClusterConfig, config: EngineConfig) -> Self {
        let cluster = Cluster::build(graph, cluster_config);
        let pool = Arc::new(WorkerPool::new(cluster.config().total_workers()));
        let wall_start = Instant::now();
        let rrg = Arc::new(RrGuidance::generate(graph));
        let preprocessing_wall_seconds = wall_start.elapsed().as_secs_f64();
        let layout = cluster.build_layout(graph);
        let storage = config.storage_config().map(|sc| {
            Arc::new(
                GraphStorage::build(graph, &sc)
                    .expect("failed to write out-of-core graph segments"),
            )
        });
        let telemetry = Arc::new(Telemetry::new(config.telemetry));
        let mut engine = Self::from_parts(
            graph,
            EngineParts {
                cluster,
                config,
                rrg,
                degrees: Arc::new(Degrees::of(graph)),
                pool,
                layout,
                storage,
                telemetry,
            },
        );
        engine.preprocessing_wall_seconds = preprocessing_wall_seconds;
        engine
    }

    /// Assemble an engine from parts the caller already holds — the serving
    /// path: `slfe_delta::DeltaServer` keeps one pool, one telemetry hub,
    /// the guidance and the degrees across graph versions, patches the
    /// degrees, the layout and the segment store at the batch's dirty
    /// endpoints, and hands all of it here, so a warm batch pays neither a
    /// thread spawn, a guidance BFS or copy, an `O(V)` degree extraction, an
    /// O(V+E) layout scan nor a whole-graph segment write.
    ///
    /// The simulated preprocessing charge uses the guidance's recorded
    /// generation work; only a ruler-gated run reports it. Panics when a part
    /// does not fit the graph or the cluster (see [`EngineParts`]); it checks
    /// the lengths of the guidance, the degrees and the segment store, not
    /// their contents.
    pub fn from_parts(graph: &'g Graph, parts: EngineParts) -> Self {
        let EngineParts {
            cluster,
            config,
            rrg,
            degrees,
            pool,
            layout,
            storage,
            telemetry,
        } = parts;
        if let Some(storage) = &storage {
            assert_eq!(
                storage.out_store().store_num_vertices(),
                graph.num_vertices(),
                "segmented store must cover the engine's graph"
            );
        }
        assert_eq!(
            rrg.num_vertices(),
            graph.num_vertices(),
            "guidance must cover the engine's graph"
        );
        assert_eq!(
            degrees.num_vertices(),
            graph.num_vertices(),
            "degrees must cover the engine's graph"
        );
        assert!(
            pool.threads() >= cluster.config().total_workers(),
            "pool of {} threads cannot host {} cluster workers",
            pool.threads(),
            cluster.config().total_workers()
        );
        assert_eq!(
            layout.num_nodes(),
            cluster.num_nodes(),
            "layout must span the cluster's nodes"
        );
        for node in cluster.nodes() {
            let covered: usize = layout
                .node_chunks(node)
                .iter()
                .map(|&c| layout.chunks()[c].len())
                .sum();
            assert_eq!(
                covered,
                cluster.vertices_of(node).len(),
                "layout must cover node {node}'s owned vertices exactly"
            );
        }
        // Simulated preprocessing cost: models the paper's distributed pass
        // (§4.4), which spreads the counted generation work over every worker
        // in the cluster. The pass here runs on one thread, and
        // `preprocessing_wall_seconds` measures it.
        let workers = cluster.config().total_workers().max(1) as f64;
        let preprocessing_seconds = config.cost.seconds(rrg.generation_work()) / workers;
        if let Some(storage) = &storage {
            storage.pool().set_telemetry(&telemetry);
        }
        Self {
            graph,
            cluster,
            config,
            rrg,
            pool,
            layout,
            chunk_rr: std::sync::OnceLock::new(),
            storage,
            degrees,
            telemetry,
            preprocessing_seconds,
            // No guidance BFS ran inside this constructor.
            preprocessing_wall_seconds: 0.0,
        }
    }

    /// The per-vertex degree view handed to program callbacks.
    pub fn degrees(&self) -> &Degrees {
        &self.degrees
    }

    /// The engine's telemetry hub.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Per-chunk `(min, max)` ruler bounds, computed on first ruler-gated use.
    fn chunk_rr_bounds(&self) -> &[(u32, u32)] {
        self.chunk_rr.get_or_init(|| {
            self.layout
                .chunks()
                .iter()
                .map(|chunk| {
                    let owned = self.cluster.vertices_of(chunk.node);
                    let mut bounds = (u32::MAX, 0u32);
                    for &v in &owned[chunk.start..chunk.end] {
                        let level = self.rrg.last_iter(v);
                        bounds.0 = bounds.0.min(level);
                        bounds.1 = bounds.1.max(level);
                    }
                    bounds
                })
                .collect()
        })
    }

    /// The processed graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The redundancy-reduction guidance generated at build time.
    pub fn guidance(&self) -> &RrGuidance {
        &self.rrg
    }

    /// The persistent worker pool driving every phase of this engine.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The degree-aware, cluster-wide chunk layout the executor claims from.
    pub fn layout(&self) -> &GlobalChunkLayout {
        &self.layout
    }

    /// The out-of-core segment store, when the engine runs in that mode.
    pub fn storage(&self) -> Option<&Arc<GraphStorage>> {
        self.storage.as_ref()
    }

    /// Simulated seconds spent generating the guidance (Figure 8 overhead).
    pub fn preprocessing_seconds(&self) -> f64 {
        self.preprocessing_seconds
    }

    /// Wall-clock seconds spent generating the guidance.
    pub fn preprocessing_wall_seconds(&self) -> f64 {
        self.preprocessing_wall_seconds
    }

    /// Execute `program` to convergence (or the configured iteration cap) and
    /// return its values plus full execution statistics.
    pub fn run<P: GraphProgram>(&self, program: &P) -> ProgramResult<P::Value> {
        let graph = self.graph;
        let n = graph.num_vertices();
        let values: Vec<P::Value> = graph
            .vertices()
            .map(|v| program.initial_value(v, &self.degrees))
            .collect();
        let active = Bitset::from_fn(n, |v| program.initial_active(v as VertexId, &self.degrees));
        self.run_seeded(
            program,
            RunSeed {
                values,
                active,
                use_rr: self.config.redundancy == RedundancyMode::Enabled,
                push_only: false,
                selective: false,
                preset: Counters::zero(),
            },
        )
    }

    /// Warm-start `program` from a previous fixpoint after an edge-update batch,
    /// re-converging only what the batch disturbed.
    ///
    /// The engine must be built on the **mutated** graph. `previous` is the
    /// result of running the same program on the pre-batch graph (vertex ids are
    /// stable across [`slfe_graph::Graph::apply_batch`], so values line up
    /// index-for-index; appended vertices start from
    /// [`GraphProgram::warm_start_value`] with `None`). `dirty` flags the
    /// endpoints of every changed edge over the mutated vertex count
    /// ([`slfe_graph::BatchEffect::dirty_bitset`]).
    ///
    /// * **Monotone min/max programs** (SSSP, BFS, CC, WidestPath): a support
    ///   pass resets every vertex whose stored value may rely on a removed
    ///   edge, cascading along the old value-support edges — for
    ///   [`GraphProgram::strictly_monotonic`] programs it prunes at vertices
    ///   whose value is still derivable from surviving in-edges (cyclic
    ///   self-support is impossible there); for the rest (CC, WidestPath) it
    ///   conservatively resets the whole supported region, because two stale
    ///   vertices can circularly "derive" each other's dead values. The run
    ///   then re-converges from a frontier of the dirty endpoints, the
    ///   invalidated region and its in-boundary. Pure insertions need no
    ///   invalidation at all — they can only improve a monotone fixpoint, and
    ///   re-convergence lowers values from the active dirty endpoints (the
    ///   cascade itself trusts nothing but exact re-derivation, so a vertex
    ///   that merely *looks* improvable through a stale neighbor still
    ///   resets). The RR "start late" ruler is disabled
    ///   for the restart — its levels are indexed by iteration number from a
    ///   cold start — which does not affect values, only scheduling. (See
    ///   [`SlfeEngine::run_from_effect`] for the variant that skips
    ///   invalidation on insertion-only batches.)
    /// * **Arithmetic programs** (PageRank, TunkRank, SpMV, ...): delta-restart —
    ///   the previous fixpoint is the starting state on the mutated graph, and
    ///   the usual tolerance-based iteration re-converges it in a handful of
    ///   iterations. Each iteration pulls only X ∪ out(X), where X is the set
    ///   the previous pull changed or, for the first pull, the dirty
    ///   endpoints plus every vertex whose [`GraphProgram::warm_start_value`]
    ///   differs from its previous value. The skip is exact: a vertex outside
    ///   that set has inputs (in-list, in-neighbour values, own value and
    ///   degrees, |V| — the contract on [`GraphProgram`]) unchanged since its
    ///   last pull, so it would recompute bits that pull already judged
    ///   within tolerance. Values, iteration counts and changed sets are
    ///   therefore bit-identical to re-pulling every vertex every iteration.
    ///   When Σ(1 + out-degree) over X exceeds the push/pull threshold (5% of
    ///   |E|) the iteration pulls every vertex. The first pull stays full
    ///   unless `previous` is an exact fixpoint over the same |V|
    ///   ([`ProgramResult::exact_fixpoint`]), so it re-pulls everything after
    ///   a ruler-gated or capped run, after restored or remapped values, and
    ///   when the batch grows the graph. The multi ruler is disabled for the
    ///   restart: warm values are stable from iteration 1, so "finish early"
    ///   would freeze vertices before the batch's perturbation reaches them.
    ///
    /// The returned values equal a from-scratch [`SlfeEngine::run`] on the
    /// mutated graph: bit-for-bit for min/max programs, within convergence
    /// tolerance for arithmetic ones. The invalidation pass's counted work is
    /// folded into the result's totals.
    pub fn run_from<P: GraphProgram>(
        &self,
        program: &P,
        previous: &ProgramResult<P::Value>,
        dirty: &Bitset,
    ) -> ProgramResult<P::Value> {
        let seeds: Vec<VertexId> = dirty.iter_ones().map(|v| v as VertexId).collect();
        self.warm_restart(program, previous, dirty, &seeds)
    }

    /// [`SlfeEngine::run_from`] with the full precision of a
    /// [`slfe_graph::BatchEffect`]: the activation frontier still covers every
    /// dirty endpoint, but the invalidation pass seeds only from
    /// `worsened_dsts` — the destinations of deleted or reweighted edges, the
    /// only places a monotone fixpoint can get *worse*. For insertion-only
    /// batches this skips invalidation entirely, which matters most for
    /// programs without [`GraphProgram::strictly_monotonic`] contributions
    /// (CC, WidestPath), whose conservative cascade otherwise walks whole
    /// support regions.
    pub fn run_from_effect<P: GraphProgram>(
        &self,
        program: &P,
        previous: &ProgramResult<P::Value>,
        effect: &slfe_graph::BatchEffect,
    ) -> ProgramResult<P::Value> {
        let dirty = effect.dirty_bitset(self.graph.num_vertices());
        self.warm_restart(program, previous, &dirty, &effect.worsened_dsts)
    }

    /// Shared warm-restart implementation: `activate` seeds the re-convergence
    /// frontier, `invalidation_seeds` the support-loss pass.
    fn warm_restart<P: GraphProgram>(
        &self,
        program: &P,
        previous: &ProgramResult<P::Value>,
        activate: &Bitset,
        invalidation_seeds: &[VertexId],
    ) -> ProgramResult<P::Value> {
        let graph = self.graph;
        let n = graph.num_vertices();
        assert_eq!(
            activate.len(),
            n,
            "dirty bitset must cover the mutated graph"
        );
        let mut values: Vec<P::Value> = (0..n)
            .map(|v| {
                program.warm_start_value(
                    v as VertexId,
                    previous.values.get(v).copied(),
                    &self.degrees,
                )
            })
            .collect();

        if program.aggregation() == AggregationKind::Arithmetic {
            // The first pull's seed set X: the dirty endpoints plus every
            // vertex re-entering with a value other than its previous one.
            // Only an exact fixpoint over the same |V| vouches for the rest,
            // otherwise every vertex is seeded (and the first pull is full).
            let active = if previous.exact_fixpoint && previous.values.len() == n {
                let mut seeds = activate.clone();
                for (v, (warm, old)) in values.iter().zip(&previous.values).enumerate() {
                    if warm != old {
                        seeds.set(v);
                    }
                }
                seeds
            } else {
                let mut all = Bitset::new(n);
                all.fill();
                all
            };
            // The multi ruler must stay off here: warm-started vertices are
            // stable from iteration 1, so "finish early" would freeze them
            // before the batch's perturbation propagates out to them. The
            // ruler's premise — k stable iterations means the inputs have
            // settled — only holds for cold-start dynamics.
            return self.run_seeded(
                program,
                RunSeed {
                    values,
                    active,
                    use_rr: false,
                    push_only: false,
                    selective: true,
                    preset: Counters::zero(),
                },
            );
        }

        // Min/max invalidation pass (sequential: the disturbed region is tiny
        // by design; past the fallback thresholds callers full-recompute
        // instead). A vertex still holding its initial value is intrinsically
        // supported. Beyond that, the rule depends on the program's
        // contribution structure:
        //
        // * strictly monotonic (SSSP, BFS): a stored value that can still be
        //   re-derived from surviving non-invalidated in-edges is genuinely
        //   supported — a support cycle would have to strictly improve around
        //   itself — so the cascade prunes there, and a candidate that *beats*
        //   the stored value (an inserted edge) needs no reset at all.
        // * otherwise (CC's label copy, WidestPath's capacity min): equal-value
        //   support can be circular — two stale vertices happily "derive" each
        //   other's dead values — so derivability proves nothing and every
        //   queued vertex is reset. The cascade then walks exactly the region
        //   the lost value could have kept alive.
        let strict = program.strictly_monotonic();
        let tolerance = self.config.tolerance;
        let mut preset = Counters::zero();
        let mut invalid = Bitset::new(n);
        let mut active = activate.clone();
        let mut queue: std::collections::VecDeque<VertexId> =
            invalidation_seeds.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            let vi = v as usize;
            if invalid.get(vi) {
                continue;
            }
            let initial = program.initial_value(v, &self.degrees);
            if !program.changed(values[vi], initial, tolerance) {
                // Still at its initial value: intrinsically supported.
                continue;
            }
            if strict {
                // Re-derive the vertex from scratch over its surviving in-edges.
                let mut gathered = program.identity();
                let mut has_contribution = false;
                for (u, w) in graph.in_edges(v) {
                    preset.edge_computations += 1;
                    if invalid.get(u as usize) {
                        continue;
                    }
                    if let Some(c) = program.edge_contribution(u, values[u as usize], w) {
                        gathered = program.combine(gathered, c);
                        has_contribution = true;
                    }
                }
                let candidate = if has_contribution {
                    program.apply(v, initial, gathered)
                } else {
                    initial
                };
                // Only *exact* re-derivation may prune the cascade. The prune
                // is safe against in-neighbors that get invalidated later in
                // the pass, because dying supporters re-queue exactly the
                // vertices whose value equals their old contribution — which is
                // precisely how this vertex passed. Any other relationship
                // (including a candidate that *beats* the stored value) must
                // reset: a beating candidate can be derived from a stale
                // neighbor whose own invalidation would never re-queue this
                // vertex, stranding a too-good value min-aggregation cannot
                // raise.
                if !program.changed(values[vi], candidate, tolerance) {
                    continue; // stored value still attainable: supported.
                }
            }
            // Support lost (or, without strict monotonicity, unprovable): reset
            // and cascade along the edges that used this value as support.
            let old = values[vi];
            invalid.set(vi);
            values[vi] = initial;
            active.set(vi);
            preset.vertex_updates += 1;
            for (y, w) in graph.out_edges(v) {
                preset.edge_computations += 1;
                if invalid.get(y as usize) {
                    continue;
                }
                if let Some(c) = program.edge_contribution(v, old, w) {
                    if !program.changed(values[y as usize], c, tolerance) {
                        queue.push_back(y);
                    }
                }
            }
        }
        // The invalidated region re-converges from its in-boundary: every intact
        // in-neighbor re-pushes its (valid) value into the hole.
        for v in invalid.iter_ones() {
            for &u in graph.in_neighbors(v as VertexId) {
                if !invalid.get(u as usize) {
                    active.set(u as usize);
                }
            }
        }

        self.run_seeded(
            program,
            RunSeed {
                values,
                active,
                use_rr: false,
                push_only: true,
                selective: false,
                preset,
            },
        )
    }

    /// The shared iteration loop behind [`SlfeEngine::run`] and
    /// [`SlfeEngine::run_from`]: dispatch to the configured adjacency store —
    /// the in-memory CSR/CSC, or the disk-segment store behind the buffer
    /// pool. Both instantiations traverse identical `(neighbor, weight)`
    /// sequences, so results are bit-identical; only residency and the
    /// segment-fault counters differ.
    fn run_seeded<P: GraphProgram>(
        &self,
        program: &P,
        seed: RunSeed<P::Value>,
    ) -> ProgramResult<P::Value> {
        match &self.storage {
            Some(storage) => {
                self.run_seeded_on(program, seed, storage.out_store(), storage.in_store())
            }
            None => self.run_seeded_on(
                program,
                seed,
                self.graph.out_adjacency(),
                self.graph.in_adjacency(),
            ),
        }
    }

    /// The iteration loop proper, generic over the adjacency store each
    /// traversal phase streams from.
    fn run_seeded_on<P: GraphProgram, S: AdjacencyStore>(
        &self,
        program: &P,
        seed: RunSeed<P::Value>,
        out_store: &S,
        in_store: &S,
    ) -> ProgramResult<P::Value> {
        self.cluster.reset_run_state();
        let graph = self.graph;
        let n = graph.num_vertices();
        let arithmetic = program.aggregation() == AggregationKind::Arithmetic;
        let rr = seed.use_rr;
        let tolerance = self.config.tolerance;
        let max_level = self.rrg.max_level();
        // Highest guidance level whose vertices are guaranteed to have gathered from
        // all their in-neighbors at least once: a pull at iteration `i` covers every
        // vertex with `last_iter <= i`, and a push with full reactivation (the
        // Algorithm 3 transition) covers everything. A redundancy-reduced min/max
        // run may only terminate once every level is covered; otherwise a "late
        // starting" vertex could still be missing updates it skipped.
        let mut covered_level: u32 = if rr && !arithmetic { 0 } else { max_level };

        let mut values = seed.values;
        let mut active = seed.active;
        debug_assert_eq!(values.len(), n);
        debug_assert_eq!(active.len(), n);
        let mut active_count = active.count_ones();

        // Multi-ruler state ("finish early"): per-vertex stability counters,
        // allocated only by the ruler-gated arithmetic runs that read them.
        let (mut stable_count, mut stable_value) = if rr && arithmetic {
            (vec![0u32; n], values.clone())
        } else {
            (Vec::new(), Vec::new())
        };
        let mut last_changed_iter = vec![0u32; n];
        // Selective pulls (arithmetic warm restarts): the vertices the next
        // pull visits, rebuilt at the top of each iteration.
        let mut marked = Bitset::new(if seed.selective { n } else { 0 });

        let num_nodes = self.cluster.num_nodes();
        let workers = self.cluster.config().workers_per_node;
        let total_workers = self.cluster.config().total_workers();
        // The persistent pool spawned all its threads at engine build; this
        // run's delta proves no phase re-spawned (see Counters::threads_spawned).
        let spawned_before = self.pool.threads_spawned();
        let mut per_node_worker_work: Vec<Vec<u64>> = vec![vec![0u64; workers]; num_nodes];

        // Buffers hoisted out of the iteration loop — zero per-iteration allocation.
        let mut prev_values: Vec<P::Value> = values.clone();
        let mut next_active = Bitset::new(n);
        let mask_words = if num_nodes > 1 {
            num_nodes.div_ceil(64)
        } else {
            0
        };
        let mut worker_states: Vec<WorkerScratch<P::Value>> = (0..total_workers)
            .map(|_| WorkerScratch::new(n, num_nodes, mask_words))
            .collect();
        // Dense push merge buffers: lazily allocated alongside the workers'
        // dense scratch by the first dense push phase. Sparse phases merge
        // through `merged_sparse` + `sparse_order` instead.
        let mut merged_values: Vec<P::Value> = Vec::new();
        let mut merged_touched = Bitset::new(0);
        let mut merged_nodes: Vec<u64> = Vec::new();
        let mut merged_sparse: SparsePushMap<P::Value> = SparsePushMap::new(mask_words);
        let mut sparse_order: Vec<(u32, usize)> = Vec::new();
        // The global executor claims the layout's chunks one at a time across
        // every node; measured per-chunk costs feed the simulated-cluster
        // schedule after each phase.
        let global_scheduler = ChunkScheduler::new(total_workers, 1);
        let num_chunks = self.layout.chunks().len();
        let mut chunk_costs: Vec<u64> = vec![0u64; num_chunks];
        let mut merge_work_by_node: Vec<u64> = vec![0u64; num_nodes];

        // Chunk-level activity state (see the module docs): which chunks the
        // next phase may skip, which min/max chunks have gathered every
        // in-edge at least once past their rr gate, and — for arithmetic
        // programs under the multi ruler — how many of each chunk's vertices
        // have early-converged. All of it is derived from barrier-merged state,
        // so skip decisions are identical at every worker count.
        let mut chunk_skip = vec![false; num_chunks];
        let mut chunk_caught_up = vec![false; num_chunks];
        let mut chunk_converged: Vec<u32> = vec![0; num_chunks];
        let mut newly_converged: Vec<u32> = vec![0; num_chunks];

        // The run recorder is the single write point for per-iteration data:
        // it feeds both the iteration trace (config.trace) and the span layer
        // plus iteration-wall histogram (config.telemetry). Spans buffer
        // locally and flush to the hub once at `finish`.
        let mut rec = RunRecorder::new(&self.telemetry, self.config.trace);
        let mut totals = seed.preset;
        let mut simulated_exec_seconds = 0.0f64;

        let mut last_mode_was_pull = false;
        let mut converged = false;
        let mut iterations_run = 0u32;

        for iter in 1..=self.config.max_iterations {
            let mut force_flush = false;
            if !arithmetic && active_count == 0 {
                // The active set is empty. Without RR every vertex was computed in
                // every pull, so the fixpoint is reached. With RR, vertices whose
                // guidance level was never covered may still be missing updates they
                // skipped; Algorithm 3's transition handles this, so force one flush
                // push (full reactivation) before declaring convergence.
                if covered_level >= max_level {
                    converged = true;
                    break;
                }
                force_flush = true;
            }
            iterations_run = iter;
            let iter_span = rec.begin();
            let mode = if force_flush || (seed.push_only && !arithmetic) {
                Mode::Push
            } else {
                self.select_mode(program, &active, active_count)
            };
            let mode_name = match mode {
                Mode::Pull => "pull",
                Mode::Push => "push",
            };
            let full_push = mode == Mode::Push && (last_mode_was_pull || force_flush);
            let comm_before = self.cluster.comm_stats();
            // Out-of-core accounting: the buffer pool's monotone fault
            // counters, deltaed per iteration into the trace and run totals.
            let pool_before = self.storage.as_ref().map(|s| s.pool().counters());

            let mut iter_counters = Counters::zero();
            let mut changed_this_iter = 0usize;
            let mut iteration_node_makespan = 0u64;
            next_active.clear();
            chunk_costs.fill(0);

            // Selective pull: mark X ∪ out(X) from the barrier-merged changed
            // set, so the marks (and every counter they drive) are identical
            // at any worker count. `None` pulls every vertex.
            let marks = if seed.selective && mode == Mode::Pull {
                let mark_span = rec.begin();
                let selective = self.mark_pull_set(
                    out_store,
                    &active,
                    &mut marked,
                    &mut iter_counters,
                    &mut merge_work_by_node,
                );
                rec.end(mark_span, "mark", "engine");
                selective.then_some(&marked)
            } else {
                None
            };

            // Algorithm 3 lines 2-4: re-activate everything on a pull -> push
            // transition (or a forced flush) so updates from vertices that RR
            // deactivated still reach their successors.
            if full_push {
                active.fill();
                active_count = n;
            }

            // Synchronous (BSP) semantics: every edge computation of this iteration
            // reads the values of the *previous* iteration, exactly like the paper's
            // Bellman-Ford-style iteration plot (Figure 1b) and like a distributed
            // engine whose remote values only refresh at iteration boundaries.
            prev_values.copy_from_slice(&values);

            // Chunk activity summaries: decide which chunks this phase can skip
            // outright. No rule below changes any value, frontier bit or
            // vertex-update count (see the module docs for the safety argument
            // per rule), and every input is barrier-merged state, so the
            // decision — and with it every counter — is deterministic at any
            // worker count.
            //
            // Ruler bounds are only consulted by ruler-gated min/max runs, and
            // computing them is an O(V) scan — warm (rulers-off) restarts must
            // not pay it, so it stays behind the lazy accessor.
            let rr_bounds = (rr && !arithmetic).then(|| self.chunk_rr_bounds());
            for (ci, chunk) in self.layout.chunks().iter().enumerate() {
                chunk_skip[ci] = match mode {
                    // A push chunk with no active source does nothing. The
                    // popcount is affordable by construction on contiguous
                    // partitionings (span ≈ chunk size); a foreign-id-riddled
                    // span that would cost more words to probe than the
                    // chunk's own work is simply visited.
                    Mode::Push => {
                        let probe_words = (chunk.span_end - chunk.span_start) as u64 / 64 + 1;
                        probe_words <= chunk.estimate
                            && active
                                .count_in_range(chunk.span_start as usize, chunk.span_end as usize)
                                == 0
                    }
                    Mode::Pull if arithmetic => match marks {
                        // Selective pull: no vertex of the chunk is marked.
                        // As for a push, a span riddled with foreign ids is
                        // visited rather than probed.
                        Some(marked) => {
                            let probe_words = (chunk.span_end - chunk.span_start) as u64 / 64 + 1;
                            probe_words <= chunk.estimate
                                && !marked.any_in_range(
                                    chunk.span_start as usize,
                                    chunk.span_end as usize,
                                )
                        }
                        // Every vertex early-converged: each would be
                        // individually skipped by the multi ruler.
                        None => rr && chunk_converged[ci] as usize == chunk.len(),
                    },
                    Mode::Pull => {
                        if rr_bounds.is_some_and(|b| iter < b[ci].0) {
                            // Entirely rr-gated: every vertex "starts late".
                            true
                        } else if chunk.has_no_in_edges() {
                            // Nothing to gather, min/max apply is a no-op.
                            true
                        } else {
                            // Caught-up chunk none of whose in-neighbors
                            // changed last iteration: every gather would refold
                            // the exact bits it already folded. The probe is
                            // bounded by the gather it can skip: a hub-wide
                            // in-span whose frontier words outnumber the
                            // chunk's estimated work is not worth probing.
                            let probe_words = (chunk.in_end - chunk.in_start) as u64 / 64 + 1;
                            chunk_caught_up[ci]
                                && probe_words <= chunk.estimate
                                && !active
                                    .any_in_range(chunk.in_start as usize, chunk.in_end as usize)
                        }
                    }
                };
                if chunk_skip[ci] {
                    iter_counters.chunks_skipped += 1;
                }
            }
            // Sparse-vs-dense push scratch: below the density threshold the
            // workers fold into compact maps; the representation is chosen once
            // per phase from merged state, so it too is worker-count-invariant.
            let sparse_push = mode == Mode::Push
                && (active_count as f64) < self.config.sparse_push_density * n as f64;
            if mode == Mode::Push && !sparse_push {
                // A dense phase supersedes the maps: release their capacity so
                // mixed runs do not hold both representations at peak (the
                // sparse tail after the dense wave regrows small maps cheaply).
                for ws in worker_states.iter_mut() {
                    ws.ensure_dense(n, mask_words, program.identity());
                    ws.sparse.release();
                }
                merged_sparse.release();
                if merged_touched.len() != n {
                    merged_values = vec![program.identity(); n];
                    merged_touched = Bitset::new(n);
                    merged_nodes = vec![0u64; n * mask_words];
                }
            }

            // One global phase: every node's chunks on the machine-wide pool.
            let phase_span = rec.begin();
            match mode {
                Mode::Pull => {
                    newly_converged.fill(0);
                    self.pull_phase_global(
                        program,
                        in_store,
                        iter,
                        rr,
                        arithmetic,
                        tolerance,
                        &prev_values,
                        &mut values,
                        &mut stable_count,
                        &mut stable_value,
                        &mut last_changed_iter,
                        &mut worker_states,
                        &global_scheduler,
                        &mut chunk_costs,
                        &chunk_skip,
                        marks,
                        &mut newly_converged,
                    );
                    if arithmetic && rr {
                        for (count, fresh) in chunk_converged.iter_mut().zip(&newly_converged) {
                            *count += fresh;
                        }
                    }
                }
                Mode::Push => self.push_phase_global(
                    program,
                    out_store,
                    iter,
                    tolerance,
                    &active,
                    &prev_values,
                    &mut values,
                    &mut next_active,
                    &mut changed_this_iter,
                    &mut last_changed_iter,
                    &mut iter_counters,
                    &mut worker_states,
                    &global_scheduler,
                    &mut chunk_costs,
                    &chunk_skip,
                    sparse_push,
                    &mut merged_values,
                    &mut merged_touched,
                    &mut merged_nodes,
                    &mut merged_sparse,
                    &mut sparse_order,
                    mask_words,
                    &mut merge_work_by_node,
                ),
            }
            rec.end(phase_span, "phase", mode_name);
            // The phase's pool barrier has passed: every worker's execute
            // window is quiescent, so draining them here is race-free (the
            // "per-worker lock-free buffers drained at barriers" rule).
            for (w, ws) in worker_states.iter_mut().enumerate() {
                rec.worker_window(&mut ws.window, "execute", mode_name, w as u32);
            }
            if mode == Mode::Push {
                // High-water mark of the push gather scratch actually
                // allocated (capacities persist across `clear`, so this is
                // the live footprint, not the phase's touched count). Each
                // worker reports its own live footprint; the shared merge
                // buffers are the engine's. The barrier merge below sums
                // the concurrent windows (`Counters::merge_concurrent`) —
                // every worker's scratch is live *simultaneously* at this
                // barrier, so a max would under-report the true peak by up
                // to the worker count.
                for ws in worker_states.iter_mut() {
                    ws.counters.scratch_bytes_peak = ws.scratch_bytes();
                }
                iter_counters.scratch_bytes_peak =
                    (merged_values.len() * std::mem::size_of::<P::Value>()
                        + merged_touched.words().len() * 8
                        + merged_nodes.len() * 8) as u64
                        + merged_sparse.bytes();
            }

            // Merge per-worker scratch at the iteration barrier: counters,
            // change tallies, activated frontier bits and the message
            // matrix. Concurrent-window semantics: flow counters sum, and
            // so do the simultaneously-live scratch footprints.
            let barrier_span = rec.begin();
            let merge_span = rec.begin();
            for ws in worker_states.iter_mut() {
                iter_counters = iter_counters.merge_concurrent(ws.counters);
                ws.counters = Counters::zero();
                changed_this_iter += ws.changed;
                ws.changed = 0;
                if ws.next_frontier.any() {
                    next_active.union_with(&ws.next_frontier);
                    ws.next_frontier.clear();
                }
                for src_node in 0..num_nodes {
                    for dst_node in 0..num_nodes {
                        let idx = src_node * num_nodes + dst_node;
                        if ws.messages[idx] != 0 {
                            self.cluster.record_node_messages(
                                src_node,
                                dst_node,
                                ws.messages[idx],
                                ws.bytes[idx],
                            );
                            ws.messages[idx] = 0;
                            ws.bytes[idx] = 0;
                        }
                    }
                }
            }
            rec.end(merge_span, "merge", "engine");

            // Simulated-cluster accounting: in the *model* each node still
            // only has `workers_per_node` workers, however many pool threads
            // physically ran its chunks. Re-assign the measured per-chunk
            // costs greedily (least-loaded, layout order — what stealing
            // converges to); apply work joins the owner's least-loaded
            // worker. The iteration is bounded by the slowest node's busiest
            // worker; because chunk costs are deterministic, so is the whole
            // schedule, at every worker count.
            for node in self.cluster.nodes() {
                let mut sim =
                    self.layout
                        .simulate_node(node, workers, self.config.scheduling, |c| chunk_costs[c]);
                let merge = std::mem::take(&mut merge_work_by_node[node]);
                if merge > 0 {
                    let (idx, _) = sim
                        .per_worker_work
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, &w)| (w, *i))
                        .expect("at least one worker");
                    sim.per_worker_work[idx] += merge;
                    sim.total_work += merge;
                }
                for (w, load) in per_node_worker_work[node]
                    .iter_mut()
                    .zip(&sim.per_worker_work)
                {
                    *w += load;
                }
                self.cluster.record_node_work(node, sim.total_work);
                iteration_node_makespan = iteration_node_makespan.max(sim.makespan());
            }
            rec.end(barrier_span, "barrier", "engine");

            // Graduate min/max chunks to frontier-based pull skipping: a chunk
            // is "caught up" once every one of its vertices has gathered all
            // its in-edges at least once with no rr gate left to reopen —
            // i.e. after a pull visit, or a fully-reactivated push (which
            // delivers every in-edge to everyone), at an iteration at or past
            // the chunk's max `last_iter`. From then on the incremental
            // invariant holds: only an active in-neighbor can change anything
            // the chunk gathers.
            if !arithmetic {
                match mode {
                    Mode::Pull => {
                        for (ci, (caught, &skipped)) in
                            chunk_caught_up.iter_mut().zip(&chunk_skip).enumerate()
                        {
                            if !skipped && rr_bounds.is_none_or(|b| iter >= b[ci].1) {
                                *caught = true;
                            }
                        }
                    }
                    Mode::Push if full_push => {
                        for (ci, caught) in chunk_caught_up.iter_mut().enumerate() {
                            if rr_bounds.is_none_or(|b| iter >= b[ci].1) {
                                *caught = true;
                            }
                        }
                    }
                    Mode::Push => {}
                }
            }

            // Arithmetic programs apply vertexUpdate inside the pull computation
            // (the update is part of the per-vertex work, Algorithm 5); nothing
            // extra to do here.

            let comm_after = self.cluster.comm_stats();
            let iter_messages = comm_after.messages - comm_before.messages;
            let iter_bytes = comm_after.bytes - comm_before.bytes;
            iter_counters.messages_sent = iter_messages;
            iter_counters.bytes_sent = iter_bytes;
            if let (Some(before), Some(storage)) = (pool_before, &self.storage) {
                let after = storage.pool().counters();
                iter_counters.segments_faulted += after.segments_faulted - before.segments_faulted;
                iter_counters.segment_bytes_read +=
                    after.segment_bytes_read - before.segment_bytes_read;
            }

            let comm_seconds = self
                .cluster
                .config()
                .comm_cost
                .seconds(iter_messages, iter_bytes);
            let compute_seconds = self.config.cost.seconds(iteration_node_makespan);
            simulated_exec_seconds += compute_seconds + comm_seconds;

            totals += iter_counters;
            rec.end_iteration(
                iter_span,
                iter,
                mode,
                active_count,
                iter_counters,
                compute_seconds + comm_seconds,
            );

            std::mem::swap(&mut active, &mut next_active);
            active_count = active.count_ones();
            last_mode_was_pull = mode == Mode::Pull;
            match mode {
                // A pull at iteration `iter` gathered every vertex with
                // `last_iter <= iter` from all of its in-neighbors.
                Mode::Pull => covered_level = covered_level.max(iter),
                // A fully re-activated push delivered every vertex's value to every
                // successor, which covers all remaining levels.
                Mode::Push if full_push => covered_level = max_level,
                Mode::Push => {}
            }

            // Arithmetic termination: a fixpoint is reached when no vertex changed.
            // Min/max termination is handled at the top of the next iteration so the
            // RR flush push can run first if needed.
            if arithmetic && changed_this_iter == 0 {
                converged = true;
                break;
            }
        }
        if !arithmetic && active_count == 0 && covered_level >= max_level {
            converged = true;
        }

        // Always 0 with the persistent pool (threads spawn at engine build):
        // a nonzero delta here means per-phase spawning has regressed.
        totals.threads_spawned += self.pool.threads_spawned() - spawned_before;

        let mut stats = ExecutionStats::new("slfe", program.name());
        stats.num_vertices = n;
        stats.num_edges = graph.num_edges();
        stats.num_nodes = num_nodes;
        stats.workers_per_node = workers;
        stats.iterations = iterations_run;
        stats.totals = totals;
        stats.phases = PhaseBreakdown {
            preprocessing_seconds: if rr { self.preprocessing_seconds } else { 0.0 },
            execution_seconds: simulated_exec_seconds,
        };
        stats.trace = rec.finish();
        stats.per_node_work = self.cluster.per_node_work();

        ProgramResult {
            values,
            stats,
            last_changed_iter,
            per_node_worker_work,
            converged,
            // No ruler skipped a vertex, so converging means a fresh pull of
            // any vertex would not change it.
            exact_fixpoint: converged && !rr,
        }
    }

    /// Mark the vertices a selective pull visits: `changed` (X) and every
    /// out-neighbour of it, walking X's out-lists through `out_store` in
    /// ascending order, so out of core the walk faults (and counts) the CSR
    /// segments it reads. Each walked edge is one edge computation, charged
    /// to the source's owner in the simulated schedule, and each (source,
    /// remote node) pair one message: the changed value reaching that node's
    /// mirrors. Returns `false`, marking nothing, when Σ(1 + out-degree) over
    /// X exceeds [`PULL_THRESHOLD`]·|E|: the pull then visits every vertex.
    fn mark_pull_set<S: AdjacencyStore>(
        &self,
        out_store: &S,
        changed: &Bitset,
        marked: &mut Bitset,
        counters: &mut Counters,
        merge_work_by_node: &mut [u64],
    ) -> bool {
        let budget = self.graph.num_edges() as f64 * PULL_THRESHOLD;
        let mut cost = 0u64;
        for v in changed.iter_ones() {
            cost += 1 + self.degrees.out_degree(v as VertexId) as u64;
            if cost as f64 > budget {
                return false;
            }
        }
        marked.clear();
        let mut reached = vec![false; self.cluster.num_nodes()];
        let mut out_cursor = StreamCursor::new(out_store);
        for v in changed.iter_ones() {
            marked.set(v);
            let src = v as VertexId;
            let src_owner = self.cluster.owner_of(src);
            reached.fill(false);
            let (targets, _) = out_cursor.list(src);
            for &dst in targets {
                marked.set(dst as usize);
                let dst_owner = self.cluster.owner_of(dst);
                if dst_owner != src_owner && !reached[dst_owner] {
                    reached[dst_owner] = true;
                    self.cluster.record_node_messages(
                        src_owner,
                        dst_owner,
                        1,
                        UPDATE_MESSAGE_BYTES,
                    );
                }
            }
            counters.edge_computations += targets.len() as u64;
            merge_work_by_node[src_owner] += targets.len() as u64;
        }
        true
    }

    /// Direction selection: arithmetic programs always pull; min/max programs pull
    /// when the active edge fraction exceeds [`PULL_THRESHOLD`] (dense frontier)
    /// and push otherwise (Gemini's heuristic, inherited by the paper).
    fn select_mode<P: GraphProgram>(
        &self,
        program: &P,
        active: &Bitset,
        active_count: usize,
    ) -> Mode {
        if program.aggregation() == AggregationKind::Arithmetic {
            return Mode::Pull;
        }
        if active_count == 0 {
            // Only reachable for the RR flush: a push with full reactivation
            // delivers any updates that "late started" vertices missed.
            return Mode::Push;
        }
        let active_edges: u64 = active
            .iter_ones()
            .map(|v| self.graph.out_degree(v as VertexId) as u64)
            .sum();
        let threshold = self.graph.num_edges() as f64 * PULL_THRESHOLD;
        if active_edges as f64 > threshold {
            Mode::Pull
        } else {
            Mode::Push
        }
    }

    /// One iteration's **global** pull phase: every node's owned destinations
    /// gather over their incoming edges, with all the layout's chunks claimed
    /// by the machine-wide pool at once (cross-node parallelism). Each
    /// destination is written by exactly one worker, so workers share the
    /// value/ruler slices without synchronisation; measured per-chunk costs
    /// land in `chunk_costs` for the simulated-cluster schedule. Chunks
    /// flagged in `skip` (cold per the activity summaries) are left untouched
    /// at zero cost, and so is every vertex outside `marks` when a selective
    /// pull passes them; `newly_converged[ci]` reports how many of chunk
    /// `ci`'s vertices crossed the multi ruler's stability threshold this
    /// phase.
    #[allow(clippy::too_many_arguments)]
    fn pull_phase_global<P: GraphProgram, S: AdjacencyStore>(
        &self,
        program: &P,
        in_store: &S,
        iter: u32,
        rr: bool,
        arithmetic: bool,
        tolerance: f64,
        prev_values: &[P::Value],
        values: &mut [P::Value],
        stable_count: &mut [u32],
        stable_value: &mut [P::Value],
        last_changed_iter: &mut [u32],
        worker_states: &mut [WorkerScratch<P::Value>],
        scheduler: &ChunkScheduler,
        chunk_costs: &mut [u64],
        skip: &[bool],
        marks: Option<&Bitset>,
        newly_converged: &mut [u32],
    ) {
        let chunks = self.layout.chunks();
        let values_shared = SharedSlice::new(values);
        let stable_count_shared = SharedSlice::new(stable_count);
        let stable_value_shared = SharedSlice::new(stable_value);
        let last_changed_shared = SharedSlice::new(last_changed_iter);
        let costs_shared = SharedSlice::new(chunk_costs);
        let converged_shared = SharedSlice::new(newly_converged);
        // `None` when telemetry is off: the hot closure then reads no clocks
        // at all — the off path stays bit-and-instruction-identical.
        let clock = self.telemetry.clock_if_enabled();

        scheduler.run_workers(
            &self.pool,
            chunks.len(),
            self.config.scheduling,
            worker_states,
            |ws, ci| {
                if skip[ci] {
                    return 0;
                }
                let began = clock.map(|c| c.now_ns());
                let chunk = &chunks[ci];
                let owned = self.cluster.vertices_of(chunk.node);
                let mut chunk_work = 0u64;
                let mut converged_now = 0u32;
                // Destinations stream in ascending id order, so this cursor
                // pins (and, out of core, faults) one CSC segment at a time;
                // skipped chunks and unmarked vertices never reach it and
                // fault nothing.
                let mut in_cursor = StreamCursor::new(in_store);
                for &dst in &owned[chunk.start..chunk.end] {
                    if marks.is_some_and(|m| !m.get(dst as usize)) {
                        continue;
                    }
                    // Safety: `dst` is owned by exactly one chunk, and each chunk is
                    // processed by exactly one worker, so every shared-slice index
                    // below is touched by this worker only.
                    chunk_work += unsafe {
                        self.pull_vertex(
                            program,
                            &mut in_cursor,
                            dst,
                            iter,
                            rr,
                            arithmetic,
                            tolerance,
                            prev_values,
                            &values_shared,
                            &stable_count_shared,
                            &stable_value_shared,
                            &last_changed_shared,
                            ws,
                            &mut converged_now,
                        )
                    };
                }
                // Safety: each cost/converged slot belongs to this chunk's
                // single processor.
                unsafe { costs_shared.set(ci, chunk_work) };
                unsafe { converged_shared.set(ci, converged_now) };
                if let Some(c) = clock {
                    ws.window.cover(began.unwrap_or(0), c.now_ns());
                }
                chunk_work
            },
        );
    }

    /// Pull-mode processing of one destination vertex (Algorithm 2).
    /// Returns the counted work performed.
    ///
    /// # Safety
    /// The caller must guarantee exclusive access to index `dst` of every shared
    /// slice for the duration of the call.
    #[allow(clippy::too_many_arguments)]
    unsafe fn pull_vertex<P: GraphProgram, S: AdjacencyStore>(
        &self,
        program: &P,
        in_cursor: &mut StreamCursor<'_, S>,
        dst: VertexId,
        iter: u32,
        rr: bool,
        arithmetic: bool,
        tolerance: f64,
        prev_values: &[P::Value],
        values: &SharedSlice<P::Value>,
        stable_count: &SharedSlice<u32>,
        stable_value: &SharedSlice<P::Value>,
        last_changed_iter: &SharedSlice<u32>,
        ws: &mut WorkerScratch<P::Value>,
        converged_now: &mut u32,
    ) -> u64 {
        let d = dst as usize;
        if rr {
            if arithmetic {
                // Multi ruler ("finish early"): skip early-converged vertices. Every
                // vertex computes at least once (threshold of at least 1).
                let threshold = self.rrg.last_iter(dst).max(1);
                if stable_count.get(d) >= threshold {
                    return 0;
                }
            } else {
                // Single ruler ("start late"): skip until the iteration number
                // reaches the vertex's last propagation level.
                if iter < self.rrg.last_iter(dst) {
                    return 0;
                }
            }
        }

        let num_nodes = self.cluster.num_nodes();
        let mut work = 0u64;
        let mut gathered = program.identity();
        let mut has_contribution = false;
        let dst_owner = self.cluster.owner_of(dst);
        // Pull-mode communication follows Gemini's mirror aggregation: each remote
        // node combines the contributions of its local in-edges and sends a single
        // partial result to the destination's owner. In-neighbor lists are sorted by
        // vertex id and chunking makes ownership monotone in the id, so de-duplicating
        // consecutive owners counts exactly one message per contributing remote node.
        let mut last_remote_owner = usize::MAX;
        // Resolved after the ruler gates above, so a gated vertex faults no
        // segment. Both stores serve the same sorted list.
        let (in_targets, in_weights) = in_cursor.list(dst);
        for (&src, &weight) in in_targets.iter().zip(in_weights) {
            work += 1;
            ws.counters.edge_computations += 1;
            if let Some(contribution) =
                program.edge_contribution(src, prev_values[src as usize], weight)
            {
                gathered = program.combine(gathered, contribution);
                has_contribution = true;
                let src_owner = self.cluster.owner_of(src);
                if src_owner != dst_owner && src_owner != last_remote_owner {
                    ws.record_message(num_nodes, src_owner, dst_owner, UPDATE_MESSAGE_BYTES);
                    last_remote_owner = src_owner;
                }
            }
        }

        let old = values.get(d);
        // Min/max programs must not fold the identity (e.g. +inf) into a vertex that
        // received no contribution; arithmetic programs always re-apply, because an
        // empty gather legitimately means "the sum of my in-neighbors is zero"
        // (PageRank's pure-teleport vertices, TunkRank accounts with no followers).
        let mut new = if has_contribution || arithmetic {
            program.apply(dst, old, gathered)
        } else {
            old
        };
        if arithmetic {
            new = program.vertex_update(dst, new, &self.degrees);
            work += 1;
        }
        let changed = program.changed(old, new, tolerance);
        if changed {
            values.set(d, new);
            ws.counters.vertex_updates += 1;
            work += 1;
            last_changed_iter.set(d, iter);
            ws.changed += 1;
            ws.next_frontier.set(d);
        }
        if rr && arithmetic {
            // Stability bookkeeping for the multi ruler (Algorithm 5, lines 15-18).
            if program.changed(stable_value.get(d), new, tolerance) {
                stable_value.set(d, new);
                stable_count.set(d, 0);
            } else {
                let stabilized = stable_count.get(d) + 1;
                stable_count.set(d, stabilized);
                // The vertex just crossed its "finish early" threshold: from
                // the next pull on it is skipped forever, so this fires at
                // most once per vertex — the chunk-level converged counts
                // stay exact.
                if stabilized == self.rrg.last_iter(dst).max(1) {
                    *converged_now += 1;
                }
            }
        }
        work
    }

    /// Apply one merged push destination: fold the combined contribution into
    /// the value, and on a change update the frontier/counters and charge one
    /// sender-aggregated message per contributing remote node (from `mask`).
    /// Shared by the dense and sparse barrier merges — identical per
    /// destination by construction, which is what makes the two scratch
    /// representations bit-equivalent.
    #[allow(clippy::too_many_arguments)]
    fn apply_merged_destination<P: GraphProgram>(
        &self,
        program: &P,
        iter: u32,
        tolerance: f64,
        d: usize,
        contribution: P::Value,
        mask: &[u64],
        values: &mut [P::Value],
        next_active: &mut Bitset,
        changed_this_iter: &mut usize,
        last_changed_iter: &mut [u32],
        counters: &mut Counters,
        merge_work_by_node: &mut [u64],
    ) {
        let dst = d as VertexId;
        let old = values[d];
        let new = program.apply(dst, old, contribution);
        if program.changed(old, new, tolerance) {
            values[d] = new;
            counters.vertex_updates += 1;
            last_changed_iter[d] = iter;
            *changed_this_iter += 1;
            next_active.set(d);
            let dst_owner = self.cluster.owner_of(dst);
            merge_work_by_node[dst_owner] += 1;
            for (w, &mask_word) in mask.iter().enumerate() {
                let mut word = mask_word;
                while word != 0 {
                    let src_node = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if src_node != dst_owner {
                        self.cluster.record_node_messages(
                            src_node,
                            dst_owner,
                            1,
                            UPDATE_MESSAGE_BYTES,
                        );
                    }
                }
            }
        }
    }

    /// One iteration's **global** push phase on the machine-wide pool — the
    /// only push path, at every worker count. Workers
    /// fold each destination's contributions into worker-local scratch —
    /// dense O(n) buffers, or compact open-addressed maps when `sparse`
    /// (frontier density below the configured threshold) — tagging the
    /// contributing sender node in a per-destination mask; the barrier
    /// combines the scratch and applies each destination exactly once
    /// (ascending destination order in both representations). A min/max
    /// `combine` is idempotent, commutative and associative, so the merged
    /// values are identical regardless of chunk assignment *and* of scratch
    /// representation (arithmetic programs never push). Messages are charged once per changed remote destination per
    /// contributing sender node; apply work is attributed to the destination's
    /// owner in `merge_work_by_node`. Chunks flagged in `skip` hold no active
    /// source and are left untouched at zero cost.
    #[allow(clippy::too_many_arguments)]
    fn push_phase_global<P: GraphProgram, S: AdjacencyStore>(
        &self,
        program: &P,
        out_store: &S,
        iter: u32,
        tolerance: f64,
        active: &Bitset,
        prev_values: &[P::Value],
        values: &mut [P::Value],
        next_active: &mut Bitset,
        changed_this_iter: &mut usize,
        last_changed_iter: &mut [u32],
        counters: &mut Counters,
        worker_states: &mut [WorkerScratch<P::Value>],
        scheduler: &ChunkScheduler,
        chunk_costs: &mut [u64],
        skip: &[bool],
        sparse: bool,
        merged_values: &mut [P::Value],
        merged_touched: &mut Bitset,
        merged_nodes: &mut [u64],
        merged_sparse: &mut SparsePushMap<P::Value>,
        sparse_order: &mut Vec<(u32, usize)>,
        mask_words: usize,
        merge_work_by_node: &mut [u64],
    ) {
        let chunks = self.layout.chunks();
        let costs_shared = SharedSlice::new(chunk_costs);
        let identity = program.identity();
        // `None` when telemetry is off: the hot closure then reads no clocks.
        let clock = self.telemetry.clock_if_enabled();

        scheduler.run_workers(
            &self.pool,
            chunks.len(),
            self.config.scheduling,
            worker_states,
            |ws, ci| {
                if skip[ci] {
                    return 0;
                }
                let began = clock.map(|c| c.now_ns());
                let chunk = &chunks[ci];
                let owned = self.cluster.vertices_of(chunk.node);
                // Every source in this chunk is owned by `chunk.node` — the
                // sender-side aggregation unit of the message accounting.
                let node_word = chunk.node / 64;
                let node_bit = 1u64 << (chunk.node % 64);
                let mut chunk_work = 0u64;
                // Active sources stream in ascending id order; only they
                // fault CSR segments (a frontier-empty chunk was skipped
                // before this closure ran).
                let mut out_cursor = StreamCursor::new(out_store);
                let mut process_source = |ws: &mut WorkerScratch<P::Value>, src: VertexId| -> u64 {
                    let (out_targets, out_weights) = out_cursor.list(src);
                    if out_targets.is_empty() {
                        return 0;
                    }
                    let mut work = 0u64;
                    let src_value = prev_values[src as usize];
                    for (&dst, &weight) in out_targets.iter().zip(out_weights) {
                        work += 1;
                        ws.counters.edge_computations += 1;
                        let Some(contribution) = program.edge_contribution(src, src_value, weight)
                        else {
                            continue;
                        };
                        let d = dst as usize;
                        if sparse {
                            let (slot, fresh) = ws.sparse.slot_for(dst, identity);
                            if fresh {
                                ws.sparse.values[slot] = contribution;
                            } else {
                                ws.sparse.values[slot] =
                                    program.combine(ws.sparse.values[slot], contribution);
                            }
                            if mask_words > 0 {
                                ws.sparse.masks[slot * mask_words + node_word] |= node_bit;
                            }
                        } else {
                            if ws.touched.insert(d) {
                                ws.local_values[d] = contribution;
                            } else {
                                ws.local_values[d] =
                                    program.combine(ws.local_values[d], contribution);
                            }
                            if mask_words > 0 {
                                ws.contrib_nodes[d * mask_words + node_word] |= node_bit;
                            }
                        }
                    }
                    work
                };
                if (chunk.span_end - chunk.span_start) as usize == chunk.len() {
                    // Contiguous chunk (the default chunking partitioner): the
                    // own-vertex span IS the chunk, so walk the frontier's set
                    // bits word by word instead of testing every vertex — the
                    // per-chunk cost of a sparse phase becomes proportional to
                    // its active sources. Ascending order, exactly like the
                    // dense scan.
                    active.for_each_set_in_range(
                        chunk.span_start as usize,
                        chunk.span_end as usize,
                        |s| chunk_work += process_source(ws, s as VertexId),
                    );
                } else {
                    for &src in &owned[chunk.start..chunk.end] {
                        if active.get(src as usize) {
                            chunk_work += process_source(ws, src);
                        }
                    }
                }
                // Safety: each cost slot belongs to this chunk's single processor.
                unsafe { costs_shared.set(ci, chunk_work) };
                if let Some(c) = clock {
                    ws.window.cover(began.unwrap_or(0), c.now_ns());
                }
                chunk_work
            },
        );

        if sparse {
            // Barrier, sparse representation: fold every worker's live entries
            // into one combined map (order-free — min/max `combine` and the
            // mask ORs are commutative), then apply in ascending destination
            // order, exactly like the dense path's `iter_ones` walk.
            for ws in worker_states.iter_mut() {
                ws.sparse.for_each(|dst, value, mask| {
                    let (slot, fresh) = merged_sparse.slot_for(dst, identity);
                    if fresh {
                        merged_sparse.values[slot] = value;
                    } else {
                        merged_sparse.values[slot] =
                            program.combine(merged_sparse.values[slot], value);
                    }
                    for (w, &m) in mask.iter().enumerate() {
                        merged_sparse.masks[slot * mask_words + w] |= m;
                    }
                });
                ws.sparse.clear();
            }
            sparse_order.clear();
            for (slot, &key) in merged_sparse.keys.iter().enumerate() {
                if key != EMPTY_KEY {
                    sparse_order.push((key, slot));
                }
            }
            sparse_order.sort_unstable();
            for &(dst, slot) in sparse_order.iter() {
                self.apply_merged_destination(
                    program,
                    iter,
                    tolerance,
                    dst as usize,
                    merged_sparse.values[slot],
                    &merged_sparse.masks[slot * mask_words..(slot + 1) * mask_words],
                    values,
                    next_active,
                    changed_this_iter,
                    last_changed_iter,
                    counters,
                    merge_work_by_node,
                );
            }
            merged_sparse.clear();
            return;
        }

        // Barrier, dense representation: combine the worker-local buffers once
        // per destination...
        for ws in worker_states.iter_mut() {
            for d in ws.touched.iter_ones() {
                let contribution = ws.local_values[d];
                if merged_touched.insert(d) {
                    merged_values[d] = contribution;
                } else {
                    merged_values[d] = program.combine(merged_values[d], contribution);
                }
                for w in 0..mask_words {
                    merged_nodes[d * mask_words + w] |= ws.contrib_nodes[d * mask_words + w];
                    ws.contrib_nodes[d * mask_words + w] = 0;
                }
            }
            ws.touched.clear();
        }
        // ... then apply each destination exactly once.
        for d in merged_touched.iter_ones() {
            self.apply_merged_destination(
                program,
                iter,
                tolerance,
                d,
                merged_values[d],
                &merged_nodes[d * mask_words..(d + 1) * mask_words],
                values,
                next_active,
                changed_this_iter,
                last_changed_iter,
                counters,
                merge_work_by_node,
            );
            for w in 0..mask_words {
                merged_nodes[d * mask_words + w] = 0;
            }
        }
        merged_touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::AggregationKind;
    use slfe_graph::{generators, EdgeWeight, GraphBuilder, VertexId};

    /// Minimal SSSP used to exercise the engine without depending on `slfe-apps`.
    struct TestSssp {
        root: VertexId,
    }

    impl GraphProgram for TestSssp {
        type Value = f32;

        fn aggregation(&self) -> AggregationKind {
            AggregationKind::MinMax
        }
        fn name(&self) -> &'static str {
            "test-sssp"
        }
        fn initial_value(&self, v: VertexId, _degrees: &Degrees) -> f32 {
            if v == self.root {
                0.0
            } else {
                f32::INFINITY
            }
        }
        fn initial_active(&self, v: VertexId, _degrees: &Degrees) -> bool {
            v == self.root
        }
        fn identity(&self) -> f32 {
            f32::INFINITY
        }
        fn edge_contribution(
            &self,
            _src: VertexId,
            src_value: f32,
            weight: EdgeWeight,
        ) -> Option<f32> {
            if src_value.is_finite() {
                Some(src_value + weight)
            } else {
                None
            }
        }
        fn combine(&self, a: f32, b: f32) -> f32 {
            a.min(b)
        }
        fn apply(&self, _dst: VertexId, old: f32, gathered: f32) -> f32 {
            old.min(gathered)
        }
    }

    /// Minimal PageRank-style arithmetic program.
    struct TestRank {
        damping: f32,
        n: usize,
    }

    impl GraphProgram for TestRank {
        type Value = f32;

        fn aggregation(&self) -> AggregationKind {
            AggregationKind::Arithmetic
        }
        fn name(&self) -> &'static str {
            "test-rank"
        }
        fn initial_value(&self, _v: VertexId, _degrees: &Degrees) -> f32 {
            1.0 / self.n as f32
        }
        fn initial_active(&self, _v: VertexId, _degrees: &Degrees) -> bool {
            true
        }
        fn identity(&self) -> f32 {
            0.0
        }
        fn edge_contribution(&self, _src: VertexId, src_value: f32, _w: EdgeWeight) -> Option<f32> {
            Some(src_value)
        }
        fn combine(&self, a: f32, b: f32) -> f32 {
            a + b
        }
        fn apply(&self, _dst: VertexId, _old: f32, gathered: f32) -> f32 {
            gathered
        }
        fn vertex_update(&self, v: VertexId, value: f32, degrees: &Degrees) -> f32 {
            let rank = (1.0 - self.damping) / self.n as f32 + self.damping * value;
            let out = degrees.out_degree(v);
            if out > 0 {
                rank / out as f32
            } else {
                rank
            }
        }
        fn changed(&self, old: f32, new: f32, tolerance: f64) -> bool {
            (old - new).abs() as f64 > tolerance
        }
    }

    fn weighted_diamond() -> slfe_graph::Graph {
        // 0 -> 1 (1), 1 -> 2 (1), 0 -> 3 (2), 3 -> 4 (2), 2 -> 4 (1), 4 -> 5 (1), 0 -> 5 (10)
        let mut b = GraphBuilder::new();
        b.extend_weighted([
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 3, 2.0),
            (3, 4, 2.0),
            (2, 4, 1.0),
            (4, 5, 1.0),
            (0, 5, 10.0),
        ]);
        b.build()
    }

    fn dijkstra(graph: &Graph, root: VertexId) -> Vec<f32> {
        let mut dist = vec![f32::INFINITY; graph.num_vertices()];
        dist[root as usize] = 0.0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((ordered_float(0.0), root)));
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            let d = d as f32 / 1000.0;
            if d > dist[v as usize] {
                continue;
            }
            for (u, w) in graph.out_edges(v) {
                let nd = dist[v as usize] + w;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    heap.push(std::cmp::Reverse((ordered_float(nd), u)));
                }
            }
        }
        dist
    }

    fn ordered_float(f: f32) -> u64 {
        (f * 1000.0) as u64
    }

    #[test]
    fn sssp_on_diamond_matches_dijkstra_with_and_without_rr() {
        let g = weighted_diamond();
        let expected = dijkstra(&g, 0);
        for config in [EngineConfig::default(), EngineConfig::without_rr()] {
            let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 2), config);
            let result = engine.run(&TestSssp { root: 0 });
            for (v, (&got, &want)) in result.values.iter().zip(&expected).enumerate() {
                assert!(
                    (got - want).abs() < 1e-5,
                    "vertex {v}: got {got}, want {want}"
                );
            }
            assert!(result.converged);
        }
    }

    #[test]
    fn sssp_on_rmat_is_identical_with_and_without_rr() {
        let g = generators::rmat(300, 2400, 0.57, 0.19, 0.19, 21);
        let root = slfe_graph::stats::highest_out_degree_vertex(&g).unwrap();
        let with_rr = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default())
            .run(&TestSssp { root });
        let without_rr =
            SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::without_rr())
                .run(&TestSssp { root });
        assert_eq!(with_rr.values.len(), without_rr.values.len());
        for v in 0..with_rr.values.len() {
            let a = with_rr.values[v];
            let b = without_rr.values[v];
            assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-4,
                "vertex {v}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn rr_reduces_counted_work_for_sssp_on_a_deep_graph() {
        // Layered graphs have a deep propagation structure with a wide (pull-mode)
        // frontier — the regime where "start late" saves the most (paper §2.2).
        let g = generators::layered(12, 60, 6, 4);
        let with_rr = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default())
            .run(&TestSssp { root: 0 });
        let without_rr =
            SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::without_rr())
                .run(&TestSssp { root: 0 });
        // Correctness: identical distances.
        for v in 0..g.num_vertices() {
            let a = with_rr.values[v];
            let b = without_rr.values[v];
            assert!((a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-4);
        }
        // Redundancy reduction: strictly less counted work.
        assert!(
            with_rr.stats.totals.work() < without_rr.stats.totals.work(),
            "RR should reduce work: {} vs {}",
            with_rr.stats.totals.work(),
            without_rr.stats.totals.work()
        );
        assert!(with_rr.stats.totals.vertex_updates <= without_rr.stats.totals.vertex_updates);
    }

    #[test]
    fn rank_converges_and_rr_matches_non_rr_values() {
        let g = generators::rmat(150, 900, 0.57, 0.19, 0.19, 12);
        let program = TestRank {
            damping: 0.85,
            n: g.num_vertices(),
        };
        let config = EngineConfig::default().with_max_iterations(100);
        let with_rr = SlfeEngine::build(&g, ClusterConfig::new(2, 2), config.clone()).run(&program);
        let without_rr = SlfeEngine::build(
            &g,
            ClusterConfig::new(2, 2),
            config.with_redundancy(RedundancyMode::Disabled),
        )
        .run(&program);
        for v in 0..g.num_vertices() {
            assert!(
                (with_rr.values[v] - without_rr.values[v]).abs() < 1e-3,
                "vertex {v}: {} vs {}",
                with_rr.values[v],
                without_rr.values[v]
            );
        }
        assert!(
            with_rr.stats.totals.edge_computations <= without_rr.stats.totals.edge_computations
        );
    }

    #[test]
    fn trace_records_every_iteration_and_mode() {
        let g = generators::path(50);
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = engine.run(&TestSssp { root: 0 });
        assert_eq!(result.stats.trace.len() as u32, result.stats.iterations);
        // A path from a single root keeps a tiny frontier: push should appear.
        let modes: Vec<Mode> = result
            .stats
            .trace
            .records()
            .iter()
            .map(|r| r.mode)
            .collect();
        assert!(modes.contains(&Mode::Push) || modes.contains(&Mode::Pull));
    }

    #[test]
    fn built_guidance_is_the_sequential_pass_at_every_worker_count() {
        for (graph, label) in [
            (generators::rmat(800, 8000, 0.57, 0.19, 0.19, 5), "rmat"),
            (generators::layered(10, 300, 5, 2), "layered"),
            (generators::path(2000), "path"),
            // No in-degree-0 vertex: the fallback-root case.
            (generators::cycle(50), "cycle"),
        ] {
            let sequential = RrGuidance::generate(&graph);
            for workers in [1usize, 2, 4] {
                let engine = SlfeEngine::build(
                    &graph,
                    ClusterConfig::new(2, workers),
                    EngineConfig::default(),
                );
                assert_eq!(
                    engine.guidance(),
                    &sequential,
                    "{label} at 2x{workers} workers"
                );
            }
        }
    }

    #[test]
    fn preprocessing_overhead_is_reported_only_with_rr() {
        let g = generators::rmat(200, 1600, 0.57, 0.19, 0.19, 5);
        let rr = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default());
        let no_rr = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::without_rr());
        assert!(rr.preprocessing_seconds() > 0.0);
        let r1 = rr.run(&TestSssp { root: 0 });
        let r2 = no_rr.run(&TestSssp { root: 0 });
        assert!(r1.stats.phases.preprocessing_seconds > 0.0);
        assert_eq!(r2.stats.phases.preprocessing_seconds, 0.0);
    }

    #[test]
    fn per_node_and_per_worker_work_are_populated() {
        let g = generators::rmat(300, 2400, 0.57, 0.19, 0.19, 7);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(4, 3), EngineConfig::default());
        let result = engine.run(&TestSssp { root: 0 });
        assert_eq!(result.stats.per_node_work.len(), 4);
        assert_eq!(result.per_node_worker_work.len(), 4);
        assert!(result.per_node_worker_work.iter().all(|w| w.len() == 3));
        let total_worker: u64 = result.all_worker_work().iter().sum();
        let total_node: u64 = result.stats.per_node_work.iter().sum();
        assert_eq!(total_worker, total_node);
    }

    #[test]
    fn messages_are_zero_on_a_single_node() {
        let g = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 3);
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = engine.run(&TestSssp { root: 0 });
        assert_eq!(result.stats.totals.messages_sent, 0);
        let multi = SlfeEngine::build(&g, ClusterConfig::new(4, 1), EngineConfig::default());
        let result_multi = multi.run(&TestSssp { root: 0 });
        assert!(result_multi.stats.totals.messages_sent > 0);
    }

    #[test]
    fn arithmetic_runs_hit_the_iteration_cap_when_not_converged() {
        let g = generators::rmat(100, 700, 0.57, 0.19, 0.19, 19);
        let program = TestRank {
            damping: 0.85,
            n: g.num_vertices(),
        };
        let config = EngineConfig::default()
            .with_max_iterations(3)
            .with_tolerance(0.0);
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), config);
        let result = engine.run(&program);
        assert_eq!(result.stats.iterations, 3);
        assert!(!result.converged);
    }

    #[test]
    fn empty_graph_runs_trivially() {
        let g = slfe_graph::Graph::from_edges(0, vec![]);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 2), EngineConfig::default());
        let result = engine.run(&TestRank {
            damping: 0.85,
            n: 1,
        });
        assert!(result.values.is_empty());
        assert!(result.converged);
    }

    #[test]
    fn parallel_workers_reproduce_single_worker_values_bit_for_bit() {
        // The determinism guarantee of the module docs: min/max values merge
        // through an idempotent combine, arithmetic gathers fold in fixed CSC
        // order, so every worker count yields identical bits.
        let g = generators::rmat(400, 3600, 0.57, 0.19, 0.19, 33);
        let root = slfe_graph::stats::highest_out_degree_vertex(&g).unwrap();
        for config in [EngineConfig::default(), EngineConfig::without_rr()] {
            let sequential = SlfeEngine::build(&g, ClusterConfig::new(2, 1), config.clone())
                .run(&TestSssp { root });
            for workers in [2usize, 4] {
                let parallel =
                    SlfeEngine::build(&g, ClusterConfig::new(2, workers), config.clone())
                        .run(&TestSssp { root });
                assert_eq!(
                    sequential
                        .values
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    parallel
                        .values
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "distances must be bit-identical at {workers} workers"
                );
                assert_eq!(sequential.stats.iterations, parallel.stats.iterations);
                assert_eq!(sequential.converged, parallel.converged);
            }
        }

        let program = TestRank {
            damping: 0.85,
            n: g.num_vertices(),
        };
        let sequential =
            SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default()).run(&program);
        let parallel =
            SlfeEngine::build(&g, ClusterConfig::new(2, 4), EngineConfig::default()).run(&program);
        assert_eq!(
            sequential
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            parallel
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "arithmetic pull gathers fold in fixed CSC order"
        );
    }

    use slfe_graph::UpdateBatch;

    /// Build a seeded random mixed batch (inserts, deletes, reweights) against `g`.
    fn random_batch(g: &Graph, seed: u64, ops: usize, allow_growth: bool) -> UpdateBatch {
        let mut rng = slfe_graph::rng::SplitMix64::seed_from_u64(seed);
        let n = g.num_vertices() as u32;
        let mut batch = UpdateBatch::new();
        for _ in 0..ops {
            let src = rng.range_u32(0, n);
            let hi = if allow_growth { n + 8 } else { n };
            let dst = rng.range_u32(0, hi);
            match rng.range_u32(0, 3) {
                0 => {
                    batch.insert(src, dst, rng.range_f32(1.0, 10.0));
                }
                1 => {
                    // Delete a real out-edge when the vertex has one.
                    let outs = g.out_neighbors(src);
                    if !outs.is_empty() {
                        let pick = outs[rng.range_usize(0, outs.len())];
                        batch.delete(src, pick);
                    }
                }
                _ => {
                    // Reweight a real out-edge when the vertex has one.
                    let outs = g.out_neighbors(src);
                    if !outs.is_empty() {
                        let pick = outs[rng.range_usize(0, outs.len())];
                        batch.insert(src, pick, rng.range_f32(1.0, 10.0));
                    }
                }
            }
        }
        batch
    }

    #[test]
    fn warm_start_sssp_equals_cold_run_on_random_batches() {
        for seed in 0..6u64 {
            let g = generators::rmat(350, 2400, 0.57, 0.19, 0.19, seed + 400);
            let root = slfe_graph::stats::highest_out_degree_vertex(&g).unwrap();
            let program = TestSssp { root };
            let batch = random_batch(&g, seed, 30, true);
            let (mutated, effect) = g.apply_batch(&batch);
            let dirty = effect.dirty_bitset(mutated.num_vertices());
            for workers in [1usize, 4] {
                let cluster = ClusterConfig::new(2, workers);
                let old_engine = SlfeEngine::build(&g, cluster.clone(), EngineConfig::default());
                let previous = old_engine.run(&program);
                let warm_engine =
                    SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default());
                let warm = warm_engine.run_from(&program, &previous, &dirty);
                let cold =
                    SlfeEngine::build(&mutated, cluster, EngineConfig::default()).run(&program);
                assert_eq!(
                    warm.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    cold.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "seed {seed}, {workers} workers: warm SSSP diverges from cold"
                );
                assert!(warm.converged);
            }
        }
    }

    #[test]
    fn warm_start_rank_matches_cold_run_within_tolerance() {
        for seed in 0..4u64 {
            let g = generators::rmat(200, 1400, 0.57, 0.19, 0.19, seed + 500);
            let batch = random_batch(&g, seed + 9, 20, false);
            let (mutated, effect) = g.apply_batch(&batch);
            let dirty = effect.dirty_bitset(mutated.num_vertices());
            let program = TestRank {
                damping: 0.85,
                n: mutated.num_vertices(),
            };
            let old_program = TestRank {
                damping: 0.85,
                n: g.num_vertices(),
            };
            let config = EngineConfig::default().with_max_iterations(300);
            for workers in [1usize, 4] {
                let cluster = ClusterConfig::new(2, workers);
                let previous =
                    SlfeEngine::build(&g, cluster.clone(), config.clone()).run(&old_program);
                let warm_engine = SlfeEngine::build(&mutated, cluster.clone(), config.clone());
                let warm = warm_engine.run_from(&program, &previous, &dirty);
                // The warm restart runs without the multi ruler and reaches the
                // exact fixpoint; the oracle is therefore a ruler-free cold run.
                // (A ruler-approximated cold run can legitimately deviate by the
                // ruler's own freezing error, which is not what is under test.)
                let cold_exact = SlfeEngine::build(
                    &mutated,
                    cluster,
                    config.clone().with_redundancy(RedundancyMode::Disabled),
                )
                .run(&program);
                for v in 0..mutated.num_vertices() {
                    assert!(
                        (warm.values[v] - cold_exact.values[v]).abs() < 1e-5,
                        "seed {seed}, {workers} workers, vertex {v}: {} vs exact {}",
                        warm.values[v],
                        cold_exact.values[v]
                    );
                }
                // Delta-restart from a fixpoint converges in far fewer iterations.
                assert!(warm.stats.iterations <= cold_exact.stats.iterations);
            }
        }
    }

    #[test]
    fn warm_start_does_less_work_than_cold_on_small_batches() {
        let g = generators::rmat(4000, 32000, 0.57, 0.19, 0.19, 321);
        let root = slfe_graph::stats::highest_out_degree_vertex(&g).unwrap();
        let program = TestSssp { root };
        let cluster = ClusterConfig::new(2, 1);
        let previous =
            SlfeEngine::build(&g, cluster.clone(), EngineConfig::default()).run(&program);
        // A small insert-only batch: the canonical serving update.
        let mut batch = UpdateBatch::new();
        let mut rng = slfe_graph::rng::SplitMix64::seed_from_u64(7);
        for _ in 0..40 {
            let src = rng.range_u32(0, g.num_vertices() as u32);
            let dst = rng.range_u32(0, g.num_vertices() as u32);
            batch.insert(src, dst, rng.range_f32(5.0, 10.0));
        }
        let (mutated, effect) = g.apply_batch(&batch);
        let dirty = effect.dirty_bitset(mutated.num_vertices());
        let warm_engine = SlfeEngine::build(&mutated, cluster.clone(), EngineConfig::default());
        let warm = warm_engine.run_from(&program, &previous, &dirty);
        let cold = SlfeEngine::build(&mutated, cluster, EngineConfig::default()).run(&program);
        assert_eq!(
            warm.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            cold.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert!(
            warm.stats.totals.work() * 5 <= cold.stats.totals.work(),
            "warm restart should do >=5x less counted work ({} vs {})",
            warm.stats.totals.work(),
            cold.stats.totals.work()
        );
    }

    #[test]
    fn warm_start_with_empty_dirty_set_is_a_noop_fixpoint() {
        let g = generators::rmat(150, 900, 0.57, 0.19, 0.19, 5);
        let program = TestSssp { root: 0 };
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 2), EngineConfig::default());
        let previous = engine.run(&program);
        let dirty = Bitset::new(g.num_vertices());
        let warm = engine.run_from(&program, &previous, &dirty);
        assert_eq!(
            warm.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            previous
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert!(warm.converged);
        assert_eq!(warm.stats.totals.work(), 0);
    }

    #[test]
    fn from_parts_reuses_the_given_guidance() {
        let g = generators::rmat(200, 1400, 0.57, 0.19, 0.19, 8);
        let rrg = RrGuidance::generate(&g);
        let cluster = Cluster::build(&g, ClusterConfig::new(2, 1));
        let config = EngineConfig::default();
        let engine = SlfeEngine::from_parts(
            &g,
            EngineParts {
                pool: Arc::new(WorkerPool::new(cluster.config().total_workers())),
                layout: cluster.build_layout(&g),
                cluster,
                rrg: Arc::new(rrg.clone()),
                degrees: Arc::new(Degrees::of(&g)),
                storage: None,
                telemetry: Arc::new(Telemetry::new(config.telemetry)),
                config,
            },
        );
        assert_eq!(*engine.guidance(), rrg);
        assert_eq!(engine.preprocessing_wall_seconds(), 0.0);
        let result = engine.run(&TestSssp { root: 0 });
        let reference = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default())
            .run(&TestSssp { root: 0 });
        assert_eq!(
            result
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            reference
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    /// Seeded-loop property test for [`SparsePushMap`] growth: entries and
    /// contribution masks must survive every rehash, probe chains must stay
    /// findable right across the 7/8 load boundary, and a destination whose
    /// folded value happens to equal the fold identity must still round-trip
    /// (present-with-identity-value is distinct from absent).
    #[test]
    fn sparse_push_map_growth_preserves_entries_and_masks() {
        let mask_words = 2usize;
        for seed in 0..8u64 {
            let mut rng = slfe_graph::rng::SplitMix64::seed_from_u64(seed * 131 + 17);
            let mut map: SparsePushMap<f32> = SparsePushMap::new(mask_words);
            let mut reference: std::collections::HashMap<u32, (u32, [u64; 2])> =
                std::collections::HashMap::new();
            // Enough inserts to force several rehash generations (64 -> 128 ->
            // 256 -> 512 slots), with duplicate destinations folding via min.
            let inserts = 420 + (seed as usize % 50);
            for i in 0..inserts {
                let dst = rng.range_u32(0, 700);
                // Identity-valued destinations appear deliberately.
                let value = if i % 13 == 0 {
                    f32::INFINITY
                } else {
                    rng.range_f32(0.0, 100.0)
                };
                let mask_bit = rng.range_u32(0, 128) as usize;
                let (slot, fresh) = map.slot_for(dst, f32::INFINITY);
                if fresh {
                    map.values[slot] = value;
                } else {
                    map.values[slot] = map.values[slot].min(value);
                }
                map.masks[slot * mask_words + mask_bit / 64] |= 1u64 << (mask_bit % 64);
                let entry = reference
                    .entry(dst)
                    .or_insert((f32::INFINITY.to_bits(), [0u64; 2]));
                entry.0 = f32::from_bits(entry.0).min(value).to_bits();
                entry.1[mask_bit / 64] |= 1u64 << (mask_bit % 64);
            }
            assert_eq!(map.len, reference.len(), "seed {seed}: live entry count");
            // The table grew across the 7/8 boundary at least once.
            assert!(map.keys.len() >= 512, "seed {seed}: expected several grows");
            assert!(
                map.len * 8 <= map.keys.len() * 7,
                "seed {seed}: load factor above 7/8"
            );
            // Every inserted destination is still findable through the probe
            // chain (slot_for reports it as non-fresh) with its exact folded
            // value and OR-ed mask — identity-valued entries included.
            let mut seen = std::collections::HashMap::new();
            map.for_each(|dst, value, mask| {
                seen.insert(dst, (value.to_bits(), [mask[0], mask[1]]));
            });
            assert_eq!(seen, reference, "seed {seed}: entries diverge after grow");
            for (&dst, &(bits, mask)) in &reference {
                let (slot, fresh) = map.slot_for(dst, f32::INFINITY);
                assert!(!fresh, "seed {seed}: {dst} lost from the probe chain");
                assert_eq!(map.values[slot].to_bits(), bits);
                assert_eq!(map.masks[slot * mask_words], mask[0]);
                assert_eq!(map.masks[slot * mask_words + 1], mask[1]);
            }
        }
    }

    /// Probe-chain integrity exactly at the grow trigger: inserting the entry
    /// that crosses `len + 1 > 7/8 · capacity` rehashes first, and every
    /// pre-existing entry must remain reachable in the doubled table.
    #[test]
    fn sparse_push_map_probe_chains_survive_the_load_boundary() {
        let mut map: SparsePushMap<u64> = SparsePushMap::new(0);
        // Fill the initial 64-slot table to exactly its 7/8 threshold: 56
        // entries fit, the 57th must trigger the grow (the map grows when
        // (len + 1) * 8 > capacity * 7).
        let spread = |i: u32| i * 97 + 5; // non-contiguous keys -> real probing
        let mut i = 0u32;
        while (map.len + 1) * 8 <= map.keys.len().max(64) * 7 {
            let (slot, fresh) = map.slot_for(spread(i), 0);
            assert!(fresh);
            map.values[slot] = u64::from(spread(i)) * 3;
            i += 1;
            if map.keys.len() > 64 {
                break;
            }
        }
        assert_eq!(map.keys.len(), 64, "should still be in the first table");
        let filled = i;
        let (slot, fresh) = map.slot_for(spread(filled), 0);
        assert!(fresh);
        map.values[slot] = u64::from(spread(filled)) * 3;
        assert_eq!(map.keys.len(), 128, "crossing 7/8 load must double");
        for j in 0..=filled {
            let (slot, fresh) = map.slot_for(spread(j), 0);
            assert!(!fresh, "key {} unreachable after the boundary grow", j);
            assert_eq!(map.values[slot], u64::from(spread(j)) * 3);
        }
        // clear() keeps capacity but drops entries; release() drops both.
        map.clear();
        assert_eq!(map.len, 0);
        assert_eq!(map.keys.len(), 128);
        map.release();
        assert_eq!(map.bytes(), 0);
    }

    #[test]
    fn parallel_pull_counters_match_sequential_exactly() {
        // Pull-phase counters are per-destination and therefore identical for any
        // worker count; PageRank never pushes, so its whole run is comparable.
        let g = generators::rmat(250, 2000, 0.57, 0.19, 0.19, 44);
        let program = TestRank {
            damping: 0.85,
            n: g.num_vertices(),
        };
        let a =
            SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default()).run(&program);
        let b =
            SlfeEngine::build(&g, ClusterConfig::new(2, 3), EngineConfig::default()).run(&program);
        assert_eq!(a.stats.totals, b.stats.totals);
    }
}
