//! Overload-safe concurrent serving on top of [`DeltaServer`].
//!
//! The server itself is `&mut self` end to end: a point query issued while a
//! batch applies would block (or worse, observe a half-built version). This
//! module separates the two sides the way a production service does:
//!
//! * **Publication** — after every applied batch the single writer thread
//!   publishes the new state as an immutable [`PublishedVersion`] behind an
//!   `RwLock<Arc<_>>`. A version holds a clone of the server's directory of
//!   1024-id value blocks, so it shares every block the batch did not write
//!   with the previous version, and publishing costs O(changed blocks +
//!   |V|/1024) instead of a copy of the values. Readers clone the `Arc` (two
//!   atomic ops under a briefly-held read lock) and answer point /
//!   multi-point / top-k queries against that frozen version — *snapshot
//!   consistency*: every answer is bit-identical to some version that was
//!   fully published, never a torn intermediate. The version pins its own
//!   storage generation ([`GraphStorage`] `Arc`), so out-of-core state
//!   cannot be compacted out from under an in-flight reader.
//! * **Admission** — updates enter a **bounded** queue. When it is full, or
//!   the published health is read-only, [`FrontendHandle::submit`] sheds with
//!   a typed [`AdmitError`] carrying the queue depth and a `retry_after`
//!   hint derived from the last apply latency — callers back off instead of
//!   queueing unboundedly.
//! * **Group commit** — the writer drains up to a batch-size limit derived
//!   from the server's dirty-fraction economics (each edge update dirties at
//!   most its two endpoints; the group is capped well below the
//!   full-recompute threshold) and coalesces the drained updates into one
//!   [`UpdateBatch`], amortizing WAL fsync and re-convergence.
//! * **Deadlines** — every query takes an optional time budget and returns
//!   [`QueryError::DeadlineExceeded`] instead of an arbitrarily late answer.
//! * **Quarantine** — a batch whose apply fails with the same
//!   [`crate::ApplyError::kind`] twice in a row is moved to a dead-letter list and
//!   the pipeline continues; one poison batch cannot wedge every batch
//!   behind it. Between attempts the writer probes
//!   [`DeltaServer::try_resume_writes`], so a transiently read-only server
//!   heals instead of dead-lettering everything.
//!
//! Everything observable surfaces in [`FrontendHandle::metrics_registry`]:
//! queue depth / capacity / high-water gauges, shed / deadline / quarantine
//! counters, the published-version sequence number, read-latency
//! percentiles from a sharded [`LatencyHistogram`], and per committed update
//! the submit→visible latency ([`FrontendHandle::visible_latency`]) and its
//! queue wait.

use crate::server::{exceeds_vertex_growth, DeltaServer, ServerStats};
use crate::values::ServedValues;
use crate::ServingMode;
use slfe_core::GraphProgram;
use slfe_graph::{EdgeWeight, Graph, GraphStorage, UpdateBatch, VertexId, INVALID_VERTEX};
use slfe_metrics::{LatencyHistogram, MetricsRegistry, Telemetry, HIST_QUERY_LATENCY};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::durability::SnapshotValue;

/// Read-latency histogram shards; readers stripe across them so the
/// histogram lock never serializes the read path.
const LATENCY_SHARDS: usize = 8;

/// How long the writer sleeps on an empty queue before re-checking for
/// shutdown and probing a read-only server for resumption.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// Hard cap on updates coalesced into one group-commit batch.
const GROUP_COMMIT_MAX_UPDATES: usize = 256;

/// Fraction of the server's full-recompute dirty budget one group may spend.
/// Each update dirties at most its two endpoints, so the group size limit is
/// `full_recompute_dirty_fraction * headroom * n / 2`: group commit
/// amortizes fsync without tripping the full-recompute fallback it is meant
/// to avoid.
const GROUP_COMMIT_DIRTY_HEADROOM: f64 = 0.5;

/// Apply attempts (each preceded by a resume probe when read-only) before a
/// failing batch is quarantined regardless of error kinds.
const MAX_APPLY_ATTEMPTS: u32 = 3;

/// Resume probes after a quarantine before giving up until the next idle
/// tick.
const RESUME_MAX_ATTEMPTS: u32 = 8;

/// Sleep between those resume probes.
const RESUME_BACKOFF: Duration = Duration::from_millis(1);

/// Floor of the `retry_after` hint in [`AdmitError::Overloaded`].
const MIN_RETRY_AFTER: Duration = Duration::from_millis(1);

/// One client edge update, the unit of admission. The writer coalesces many
/// of these into a single [`UpdateBatch`] (group commit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeUpdate {
    /// Upsert edge `(src, dst)` to `weight`.
    Insert {
        /// Source endpoint.
        src: VertexId,
        /// Destination endpoint.
        dst: VertexId,
        /// New edge weight.
        weight: EdgeWeight,
    },
    /// Remove edge `(src, dst)` if present.
    Delete {
        /// Source endpoint.
        src: VertexId,
        /// Destination endpoint.
        dst: VertexId,
    },
}

impl EdgeUpdate {
    fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            EdgeUpdate::Insert { src, dst, .. } | EdgeUpdate::Delete { src, dst } => (src, dst),
        }
    }

    fn stage(&self, batch: &mut UpdateBatch) {
        match *self {
            EdgeUpdate::Insert { src, dst, weight } => {
                batch.insert(src, dst, weight);
            }
            EdgeUpdate::Delete { src, dst } => {
                batch.delete(src, dst);
            }
        }
    }
}

/// Why an update was refused at admission. Shedding is *typed*: the caller
/// always learns whether to retry (and roughly when) or to stop submitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded update queue is full (or squeezed by degraded health).
    /// Retry after `retry_after` — a hint scaled from the last batch-apply
    /// latency and the current backlog.
    Overloaded {
        /// Queue depth observed at refusal.
        queue_depth: usize,
        /// Suggested client back-off before retrying.
        retry_after: Duration,
    },
    /// The published health says the update side is disabled; submitting
    /// would only park updates behind a wall. Queries still work.
    ReadOnly {
        /// Why the server went read-only.
        reason: String,
    },
    /// An endpoint is the `INVALID_VERTEX` sentinel, which can never be
    /// staged, or more than 2^20 ids past the published version, which the
    /// server would refuse; rejecting it here keeps the writer panic-free.
    InvalidUpdate {
        /// Which endpoint was invalid.
        reason: &'static str,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Overloaded {
                queue_depth,
                retry_after,
            } => write!(
                f,
                "update shed: queue depth {queue_depth}, retry after {retry_after:?}"
            ),
            AdmitError::ReadOnly { reason } => {
                write!(f, "update shed: server is read-only: {reason}")
            }
            AdmitError::InvalidUpdate { reason } => write!(f, "update rejected: {reason}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Why a query returned no answer. The only variant today is the deadline;
/// queries never block on the writer, so there is no "busy" refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The time budget the caller attached ran out before the answer was
    /// assembled.
    DeadlineExceeded {
        /// Time actually spent.
        elapsed: Duration,
        /// The budget that was attached.
        budget: Duration,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::DeadlineExceeded { elapsed, budget } => {
                write!(f, "deadline exceeded: {elapsed:?} spent of {budget:?}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A query answer stamped with the sequence number of the published version
/// it was computed from, so callers (and the chaos proof) can match every
/// answer to exactly one version.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer<T> {
    /// Sequence number of the [`PublishedVersion`] this answer came from.
    pub seq: u64,
    /// The answer itself.
    pub value: T,
}

/// A quarantined batch: it failed with the same [`crate::ApplyError::kind`] twice
/// in a row (or exhausted its attempt budget) and was removed from the
/// pipeline so later batches keep flowing.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The poison batch, kept for offline inspection or replay.
    pub batch: UpdateBatch,
    /// Display form of the last apply error.
    pub error: String,
    /// Stable kind of the last apply error (see [`crate::ApplyError::kind`]).
    pub kind: &'static str,
    /// Apply attempts spent before quarantining.
    pub attempts: u32,
}

/// One immutable published graph version. Readers hold an `Arc` of this and
/// answer every query from it; the writer never mutates a published version.
///
/// The values are the server's directory of 1024-id blocks, cloned at
/// publication: consecutive versions share every block the batch between
/// them did not write, so publishing costs O(changed blocks + |V|/1024), not
/// a copy of the values.
#[derive(Debug)]
pub struct PublishedVersion<V> {
    seq: u64,
    values: ServedValues<V>,
    /// The flat copy [`PublishedVersion::values`] hands out, made on first
    /// call.
    flat: OnceLock<Vec<V>>,
    stats: ServerStats,
    mode: ServingMode,
    degraded: bool,
    read_only_reason: Option<String>,
    converged: bool,
    /// Pins this version's storage generation: segment files referenced by
    /// these values outlive the version even if the writer compacts.
    storage: Option<Arc<GraphStorage>>,
}

impl<V: Copy> PublishedVersion<V> {
    /// Monotonic version number; 0 is the initial cold-run fixpoint.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The full frozen value vector. The version stores its values as
    /// shared blocks, so the first call copies them into one flat vector,
    /// O(V), and later calls reuse it. Point and top-k queries never need
    /// it.
    pub fn values(&self) -> &[V] {
        self.flat.get_or_init(|| self.values.to_vec())
    }

    /// Value of one vertex, `None` when out of range for this version. Reads
    /// one block.
    pub fn value(&self, v: VertexId) -> Option<V> {
        self.values.get(v)
    }

    /// Serving statistics frozen at publication.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Serving mode frozen at publication.
    pub fn mode(&self) -> ServingMode {
        self.mode
    }

    /// Whether any health guarantee was weakened at publication.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Why the server was read-only at publication, when it was.
    pub fn read_only_reason(&self) -> Option<&str> {
        self.read_only_reason.as_deref()
    }

    /// Whether the re-convergence producing this version reached a fixpoint.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The storage generation this version pins, when serving out-of-core.
    pub fn storage(&self) -> Option<&Arc<GraphStorage>> {
        self.storage.as_ref()
    }

    /// The `k` vertices ranked by `compare` (greatest first), ties broken by
    /// vertex id ascending — the same deterministic order as
    /// [`DeltaServer::top_k_by`], computed against this frozen version. A
    /// full scan, O(|V| log k); `compare` must be a total order, as for a
    /// sort.
    pub fn top_k_by(
        &self,
        k: usize,
        compare: impl FnMut(&V, &V) -> std::cmp::Ordering,
    ) -> Vec<(VertexId, V)> {
        self.values.top_k_by(k, compare)
    }
}

impl<V: Copy + PartialOrd> PublishedVersion<V> {
    /// The `k` largest values, ties broken by vertex id ascending, under the
    /// natural order of [`DeltaServer::top_k`]: `partial_cmp`, with a value
    /// that does not compare with itself (a NaN) ranked after every
    /// comparable value. It visits blocks by their cached maximum and stops
    /// once no unvisited block can enter the answer: O(|V|/1024) plus the
    /// visited blocks. Each block's maximum is computed on the first query
    /// that needs it and shared by every version holding the block.
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, V)> {
        self.values.top_k(k)
    }
}

/// Knobs of the serving front end. The defaults serve small test graphs
/// well; larger workloads scale them.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Bound of the update queue; admission sheds above it.
    pub queue_capacity: usize,
    /// Record every applied batch and published version so tests can
    /// replay the exact sequence on a single-threaded oracle. Each recorded
    /// version holds the blocks its batch wrote and shares the rest with its
    /// neighbours, so history grows with the changed blocks (plus a
    /// directory of |V|/1024 pointers) per version, not with a copy of the
    /// values; a version whose [`PublishedVersion::values`] was called also
    /// keeps that flat copy. Off by default: serving keeps O(1) memory.
    pub record_history: bool,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            record_history: false,
        }
    }
}

/// Live counters of the front end, all monotone except the gauges.
#[derive(Debug, Default)]
struct FrontendCounters {
    updates_submitted: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_read_only: AtomicU64,
    rejected_invalid: AtomicU64,
    queries: AtomicU64,
    deadline_exceeded: AtomicU64,
    batches_committed: AtomicU64,
    updates_coalesced: AtomicU64,
    batches_quarantined: AtomicU64,
    apply_retries: AtomicU64,
    resume_attempts: AtomicU64,
    queue_high_water: AtomicU64,
    /// Nanoseconds the most recent apply took; feeds the retry_after hint.
    last_apply_nanos: AtomicU64,
}

/// Point-in-time copy of every counter, for tests and the bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendCounterSnapshot {
    /// Updates accepted into the queue.
    pub updates_submitted: u64,
    /// Updates shed with [`AdmitError::Overloaded`].
    pub shed_overloaded: u64,
    /// Updates shed with [`AdmitError::ReadOnly`].
    pub shed_read_only: u64,
    /// Updates rejected with [`AdmitError::InvalidUpdate`].
    pub rejected_invalid: u64,
    /// Queries answered or refused.
    pub queries: u64,
    /// Queries refused with [`QueryError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Group-commit batches applied and published.
    pub batches_committed: u64,
    /// Updates drained from the queue into group-commit batches.
    pub updates_coalesced: u64,
    /// Batches moved to the dead-letter list.
    pub batches_quarantined: u64,
    /// Apply attempts beyond the first, across all batches.
    pub apply_retries: u64,
    /// [`DeltaServer::try_resume_writes`] probes issued by the writer.
    pub resume_attempts: u64,
    /// Deepest the queue has ever been.
    pub queue_high_water: u64,
}

struct UpdateQueue {
    /// Admitted updates, each stamped with its admission time.
    pending: VecDeque<(EdgeUpdate, Instant)>,
    shutdown: bool,
}

/// History of one committed batch, kept only under
/// [`FrontendConfig::record_history`].
struct CommitRecord<V> {
    batch: UpdateBatch,
    version: Arc<PublishedVersion<V>>,
}

/// State shared between the writer thread and every [`FrontendHandle`].
struct FrontendShared<V> {
    published: RwLock<Arc<PublishedVersion<V>>>,
    queue: Mutex<UpdateQueue>,
    work_ready: Condvar,
    counters: FrontendCounters,
    read_latency: [Mutex<LatencyHistogram>; LATENCY_SHARDS],
    latency_cursor: AtomicUsize,
    apply_latency: Mutex<LatencyHistogram>,
    /// Per committed update: admission until the version holding it was
    /// published.
    visible_latency: Mutex<LatencyHistogram>,
    /// Per committed update: admission until the writer drained it.
    queue_wait: Mutex<LatencyHistogram>,
    dead_letters: Mutex<Vec<DeadLetter>>,
    history: Mutex<Vec<CommitRecord<V>>>,
    telemetry: Arc<Telemetry>,
    config: FrontendConfig,
    /// Updates per group commit, derived once from the graph size and the
    /// server's dirty-fraction threshold.
    group_limit: usize,
}

impl<V: Copy> FrontendShared<V> {
    fn published(&self) -> Arc<PublishedVersion<V>> {
        Arc::clone(&self.published.read().unwrap())
    }

    /// Tell the writer to drain the queue and stop. Never panics (it runs in
    /// `Drop`): a poisoned queue lock still holds a valid flag to set.
    fn close(&self) {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.shutdown = true;
        drop(queue);
        self.work_ready.notify_all();
    }

    fn publish(&self, version: PublishedVersion<V>) -> Arc<PublishedVersion<V>> {
        let version = Arc::new(version);
        *self.published.write().unwrap() = Arc::clone(&version);
        version
    }

    fn record_read_latency(&self, nanos: u64) {
        let shard = self.latency_cursor.fetch_add(1, Ordering::Relaxed) % LATENCY_SHARDS;
        self.read_latency[shard].lock().unwrap().record(nanos);
        self.telemetry.record_ns(HIST_QUERY_LATENCY, nanos);
    }

    fn merged_read_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.read_latency {
            merged += shard.lock().unwrap().clone();
        }
        merged
    }
}

/// Cheap, cloneable query/submit endpoint. Handles stay valid after
/// [`ServingFrontend::shutdown`]; they keep answering from the last
/// published version (submissions shed once the queue is gone).
pub struct FrontendHandle<V> {
    shared: Arc<FrontendShared<V>>,
}

impl<V> Clone for FrontendHandle<V> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<V: Copy> FrontendHandle<V> {
    /// The current published version — the snapshot every in-flight query
    /// on this handle would answer from.
    pub fn published(&self) -> Arc<PublishedVersion<V>> {
        self.shared.published()
    }

    /// Admit one update into the bounded queue, or shed typed.
    ///
    /// Rejects [`AdmitError::InvalidUpdate`], sheds [`AdmitError::ReadOnly`]
    /// while the published health has the update side disabled, and
    /// [`AdmitError::Overloaded`] when the queue is full — at half capacity
    /// already when the published version is degraded, so a struggling
    /// server sees its backlog squeezed rather than grown.
    pub fn submit(&self, update: EdgeUpdate) -> Result<(), AdmitError> {
        let shared = &self.shared;
        let published = shared.published();
        let (src, dst) = update.endpoints();
        // `INVALID_VERTEX` is the largest id, so the larger endpoint is it
        // whenever either is.
        let far = src.max(dst);
        if far == INVALID_VERTEX || exceeds_vertex_growth(far, published.values.len()) {
            shared
                .counters
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::InvalidUpdate {
                reason: "edge endpoint is INVALID_VERTEX or more than 2^20 ids past the graph",
            });
        }
        if published.mode() == ServingMode::ReadOnly {
            shared
                .counters
                .shed_read_only
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::ReadOnly {
                reason: published
                    .read_only_reason()
                    .unwrap_or("unknown")
                    .to_string(),
            });
        }
        let capacity = if published.is_degraded() {
            (shared.config.queue_capacity / 2).max(1)
        } else {
            shared.config.queue_capacity
        };
        let mut queue = shared.queue.lock().unwrap();
        let depth = queue.pending.len();
        if queue.shutdown || depth >= capacity {
            drop(queue);
            shared
                .counters
                .shed_overloaded
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::Overloaded {
                queue_depth: depth,
                retry_after: self.retry_after_hint(depth),
            });
        }
        queue.pending.push_back((update, Instant::now()));
        let depth = queue.pending.len() as u64;
        drop(queue);
        shared
            .counters
            .updates_submitted
            .fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .queue_high_water
            .fetch_max(depth, Ordering::Relaxed);
        shared.work_ready.notify_all();
        Ok(())
    }

    /// Back-off hint: the deeper the backlog, the more apply rounds it
    /// takes to drain, each costing about the last observed apply latency.
    fn retry_after_hint(&self, depth: usize) -> Duration {
        let shared = &self.shared;
        let last_apply = shared.counters.last_apply_nanos.load(Ordering::Relaxed);
        let rounds = (depth / shared.group_limit.max(1)) as u64 + 1;
        let hint = Duration::from_nanos(last_apply.saturating_mul(rounds));
        hint.max(MIN_RETRY_AFTER)
    }

    /// Value of one vertex in the current published version.
    pub fn point(
        &self,
        v: VertexId,
        deadline: Option<Duration>,
    ) -> Result<Answer<Option<V>>, QueryError> {
        let start = Instant::now();
        let version = self.shared.published();
        let answer = Answer {
            seq: version.seq(),
            value: version.value(v),
        };
        self.finish_query(start, deadline)?;
        Ok(answer)
    }

    /// Values of several vertices, all from one snapshot (multi-source
    /// consistency: no version change between elements).
    pub fn multi_point(
        &self,
        vertices: &[VertexId],
        deadline: Option<Duration>,
    ) -> Result<Answer<Vec<Option<V>>>, QueryError> {
        let start = Instant::now();
        let version = self.shared.published();
        let values = vertices.iter().map(|&v| version.value(v)).collect();
        self.finish_query(start, deadline)?;
        Ok(Answer {
            seq: version.seq(),
            value: values,
        })
    }

    /// Top-k by `compare` against the current published version: a full
    /// scan ([`PublishedVersion::top_k_by`]).
    pub fn top_k_by(
        &self,
        k: usize,
        compare: impl FnMut(&V, &V) -> std::cmp::Ordering,
        deadline: Option<Duration>,
    ) -> Result<Answer<Vec<(VertexId, V)>>, QueryError> {
        self.ranked(deadline, |version| version.top_k_by(k, compare))
    }

    /// One ranking query, `rank`, against the current published version.
    fn ranked(
        &self,
        deadline: Option<Duration>,
        rank: impl FnOnce(&PublishedVersion<V>) -> Vec<(VertexId, V)>,
    ) -> Result<Answer<Vec<(VertexId, V)>>, QueryError> {
        let start = Instant::now();
        let version = self.shared.published();
        self.check_deadline(start, deadline)?;
        let ranked = rank(&version);
        self.finish_query(start, deadline)?;
        Ok(Answer {
            seq: version.seq(),
            value: ranked,
        })
    }

    /// Queue depth right now (racy by nature; for monitoring).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().pending.len()
    }

    /// Quarantined batches so far, oldest first.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.shared.dead_letters.lock().unwrap().clone()
    }

    /// Snapshot of every front-end counter.
    pub fn counters(&self) -> FrontendCounterSnapshot {
        let c = &self.shared.counters;
        FrontendCounterSnapshot {
            updates_submitted: c.updates_submitted.load(Ordering::Relaxed),
            shed_overloaded: c.shed_overloaded.load(Ordering::Relaxed),
            shed_read_only: c.shed_read_only.load(Ordering::Relaxed),
            rejected_invalid: c.rejected_invalid.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            batches_committed: c.batches_committed.load(Ordering::Relaxed),
            updates_coalesced: c.updates_coalesced.load(Ordering::Relaxed),
            batches_quarantined: c.batches_quarantined.load(Ordering::Relaxed),
            apply_retries: c.apply_retries.load(Ordering::Relaxed),
            resume_attempts: c.resume_attempts.load(Ordering::Relaxed),
            queue_high_water: c.queue_high_water.load(Ordering::Relaxed),
        }
    }

    /// Merged read-latency histogram across every reader.
    pub fn read_latency(&self) -> LatencyHistogram {
        self.shared.merged_read_latency()
    }

    /// Batch-apply latency histogram (the update-side latency).
    pub fn apply_latency(&self) -> LatencyHistogram {
        self.shared.apply_latency.lock().unwrap().clone()
    }

    /// Submit→visible latency histogram: one sample per update of a
    /// committed batch, from its admission by [`FrontendHandle::submit`]
    /// until the version holding it was published. It spans the queue wait
    /// (also recorded on its own, in the registry's
    /// `slfe_frontend_queue_wait_*` gauges), the group commit
    /// ([`FrontendHandle::apply_latency`]) and the publish. Updates of a
    /// quarantined batch never become visible and record nothing.
    pub fn visible_latency(&self) -> LatencyHistogram {
        self.shared.visible_latency.lock().unwrap().clone()
    }

    /// Every `(batch, published version)` pair committed so far, in order.
    /// Empty unless [`FrontendConfig::record_history`] is set.
    pub fn commit_history(&self) -> Vec<(UpdateBatch, Arc<PublishedVersion<V>>)> {
        self.shared
            .history
            .lock()
            .unwrap()
            .iter()
            .map(|r| (r.batch.clone(), Arc::clone(&r.version)))
            .collect()
    }

    /// The front end's live metrics, Prometheus-style. Complements (does
    /// not duplicate) [`DeltaServer::metrics_registry`], which the writer
    /// side still owns.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let shared = &self.shared;
        let c = self.counters();
        let mut reg = MetricsRegistry::new();
        reg.gauge(
            "slfe_frontend_queue_depth",
            "Updates waiting in the bounded admission queue",
            self.queue_depth() as f64,
        );
        reg.gauge(
            "slfe_frontend_queue_capacity",
            "Bound of the admission queue (sheds above it)",
            shared.config.queue_capacity as f64,
        );
        reg.gauge(
            "slfe_frontend_queue_high_water",
            "Deepest the admission queue has ever been",
            c.queue_high_water as f64,
        );
        reg.gauge(
            "slfe_frontend_published_seq",
            "Sequence number of the currently published version",
            self.published().seq() as f64,
        );
        reg.gauge(
            "slfe_frontend_group_commit_limit",
            "Updates coalesced per batch (dirty-fraction derived)",
            shared.group_limit as f64,
        );
        reg.counter(
            "slfe_frontend_updates_submitted_total",
            "Updates accepted into the queue",
            c.updates_submitted as f64,
        );
        reg.counter_with(
            "slfe_frontend_sheds_total",
            &[("reason", "overloaded")],
            "Updates refused at admission, by reason",
            c.shed_overloaded as f64,
        );
        reg.counter_with(
            "slfe_frontend_sheds_total",
            &[("reason", "read_only")],
            "Updates refused at admission, by reason",
            c.shed_read_only as f64,
        );
        reg.counter_with(
            "slfe_frontend_sheds_total",
            &[("reason", "invalid")],
            "Updates refused at admission, by reason",
            c.rejected_invalid as f64,
        );
        reg.counter(
            "slfe_frontend_queries_total",
            "Queries answered or refused",
            c.queries as f64,
        );
        reg.counter(
            "slfe_frontend_deadline_exceeded_total",
            "Queries refused because their time budget ran out",
            c.deadline_exceeded as f64,
        );
        reg.counter(
            "slfe_frontend_batches_committed_total",
            "Group-commit batches applied and published",
            c.batches_committed as f64,
        );
        reg.counter(
            "slfe_frontend_updates_coalesced_total",
            "Updates drained from the queue into group-commit batches",
            c.updates_coalesced as f64,
        );
        reg.counter(
            "slfe_frontend_batches_quarantined_total",
            "Poison batches moved to the dead-letter list",
            c.batches_quarantined as f64,
        );
        reg.counter(
            "slfe_frontend_apply_retries_total",
            "Apply attempts beyond the first, across all batches",
            c.apply_retries as f64,
        );
        reg.counter(
            "slfe_frontend_resume_attempts_total",
            "Resume-writes probes issued by the writer",
            c.resume_attempts as f64,
        );
        let queue_wait = shared.queue_wait.lock().unwrap().clone();
        for (name, what, histogram) in [
            ("read_latency", "Read-path latency", self.read_latency()),
            (
                "visible_latency",
                "Submit-to-visible latency of committed updates",
                self.visible_latency(),
            ),
            (
                "queue_wait",
                "Admission-to-drain wait of committed updates",
                queue_wait,
            ),
        ] {
            latency_gauges(&mut reg, name, what, &histogram);
        }
        reg
    }

    fn check_deadline(&self, start: Instant, deadline: Option<Duration>) -> Result<(), QueryError> {
        let Some(budget) = deadline else {
            return Ok(());
        };
        let elapsed = start.elapsed();
        if elapsed >= budget {
            self.shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            self.shared.counters.queries.fetch_add(1, Ordering::Relaxed);
            return Err(QueryError::DeadlineExceeded { elapsed, budget });
        }
        Ok(())
    }

    /// Final deadline check + latency/counter accounting for one query.
    fn finish_query(&self, start: Instant, deadline: Option<Duration>) -> Result<(), QueryError> {
        let elapsed = start.elapsed();
        self.shared.record_read_latency(elapsed.as_nanos() as u64);
        if let Some(budget) = deadline {
            if elapsed >= budget {
                self.shared
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.counters.queries.fetch_add(1, Ordering::Relaxed);
                return Err(QueryError::DeadlineExceeded { elapsed, budget });
            }
        }
        self.shared.counters.queries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// The `slfe_frontend_{name}_{count,p50_ns,p99_ns}` gauges of `histogram`;
/// the percentiles only once it holds a sample.
fn latency_gauges(reg: &mut MetricsRegistry, name: &str, what: &str, histogram: &LatencyHistogram) {
    reg.gauge(
        &format!("slfe_frontend_{name}_count"),
        &format!("{what} samples recorded"),
        histogram.count() as f64,
    );
    if let (Some(p50), Some(p99)) = (histogram.percentile(0.50), histogram.percentile(0.99)) {
        reg.gauge(
            &format!("slfe_frontend_{name}_p50_ns"),
            &format!("{what} p50 (nanoseconds)"),
            p50 as f64,
        );
        reg.gauge(
            &format!("slfe_frontend_{name}_p99_ns"),
            &format!("{what} p99 (nanoseconds)"),
            p99 as f64,
        );
    }
}

impl<V: Copy + PartialOrd> FrontendHandle<V> {
    /// Top-k by natural order against the current published version:
    /// [`PublishedVersion::top_k`], which visits only the value blocks that
    /// can enter the answer. ([`FrontendHandle::top_k_by`] scans every
    /// value.)
    pub fn top_k(
        &self,
        k: usize,
        deadline: Option<Duration>,
    ) -> Result<Answer<Vec<(VertexId, V)>>, QueryError> {
        self.ranked(deadline, |version| version.top_k(k))
    }
}

/// The serving front end: owns the writer thread that holds the
/// [`DeltaServer`], and hands out [`FrontendHandle`]s for readers and
/// update producers.
pub struct ServingFrontend<P, F>
where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    shared: Arc<FrontendShared<P::Value>>,
    writer: Option<JoinHandle<DeltaServer<P, F>>>,
}

impl<P, F> ServingFrontend<P, F>
where
    P: GraphProgram + Send + 'static,
    P::Value: SnapshotValue + 'static,
    F: Fn(&Graph) -> P + Send + 'static,
{
    /// Publish the server's current fixpoint as version 0 and start the
    /// writer thread. The server moves into the writer; get it back with
    /// [`ServingFrontend::shutdown`].
    pub fn spawn(server: DeltaServer<P, F>, config: FrontendConfig) -> Self {
        let group_limit = group_commit_limit(&server);
        let initial = build_version(&server, 0, true);
        let shared = Arc::new(FrontendShared {
            published: RwLock::new(Arc::new(initial)),
            queue: Mutex::new(UpdateQueue {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            counters: FrontendCounters::default(),
            read_latency: std::array::from_fn(|_| Mutex::new(LatencyHistogram::new())),
            latency_cursor: AtomicUsize::new(0),
            apply_latency: Mutex::new(LatencyHistogram::new()),
            visible_latency: Mutex::new(LatencyHistogram::new()),
            queue_wait: Mutex::new(LatencyHistogram::new()),
            dead_letters: Mutex::new(Vec::new()),
            history: Mutex::new(Vec::new()),
            telemetry: Arc::clone(server.telemetry_hub()),
            config,
            group_limit,
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("slfe-frontend-writer".into())
            .spawn(move || run_writer(server, writer_shared))
            .expect("spawn frontend writer thread");
        Self {
            shared,
            writer: Some(writer),
        }
    }

    /// A new query/submit handle (cheap; clone freely across threads).
    pub fn handle(&self) -> FrontendHandle<P::Value> {
        FrontendHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drain the queue, stop the writer, and return the server. Updates
    /// admitted before shutdown are applied and published first, so a
    /// clean shutdown flushes.
    pub fn shutdown(mut self) -> DeltaServer<P, F> {
        self.shared.close();
        self.writer
            .take()
            .expect("writer joined twice")
            .join()
            .expect("frontend writer thread panicked")
    }
}

impl<P, F> Drop for ServingFrontend<P, F>
where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.shared.close();
            let _ = writer.join();
        }
    }
}

/// Updates per group commit: each edge update dirties at most its two
/// endpoints, so keep one group's worst-case dirty fraction
/// [`GROUP_COMMIT_DIRTY_HEADROOM`] below the server's full-recompute
/// threshold.
fn group_commit_limit<P, F>(server: &DeltaServer<P, F>) -> usize
where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    let n = server.graph().num_vertices() as f64;
    let dirty_budget = server.config().full_recompute_dirty_fraction * GROUP_COMMIT_DIRTY_HEADROOM;
    let by_economics = ((dirty_budget * n) / 2.0).floor() as usize;
    by_economics.clamp(1, GROUP_COMMIT_MAX_UPDATES)
}

fn build_version<P, F>(
    server: &DeltaServer<P, F>,
    seq: u64,
    converged: bool,
) -> PublishedVersion<P::Value>
where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    let health = server.health();
    PublishedVersion {
        seq,
        values: server.served().clone(),
        flat: OnceLock::new(),
        stats: *server.stats(),
        mode: health.mode(),
        degraded: health.is_degraded(),
        read_only_reason: health.read_only_reason().map(String::from),
        converged,
        storage: server.storage().cloned(),
    }
}

/// Re-publish the current version's values with the server's fresh health
/// — used after an apply failure or a resume, where the *data* did not
/// change but admission and monitoring must see the new mode.
fn publish_health_only<P, F>(shared: &FrontendShared<P::Value>, server: &DeltaServer<P, F>)
where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    let current = shared.published();
    let health = server.health();
    shared.publish(PublishedVersion {
        seq: current.seq,
        values: current.values.clone(),
        flat: OnceLock::new(),
        stats: current.stats,
        mode: health.mode(),
        degraded: health.is_degraded(),
        read_only_reason: health.read_only_reason().map(String::from),
        converged: current.converged,
        storage: current.storage.clone(),
    });
}

enum ApplyVerdict {
    Committed { converged: bool },
    Quarantined,
}

/// The writer loop: wait for work, drain a group, coalesce, apply with the
/// quarantine contract, publish. Returns the server at shutdown.
fn run_writer<P, F>(
    mut server: DeltaServer<P, F>,
    shared: Arc<FrontendShared<P::Value>>,
) -> DeltaServer<P, F>
where
    P: GraphProgram,
    P::Value: SnapshotValue,
    F: Fn(&Graph) -> P,
{
    loop {
        let drained: Vec<(EdgeUpdate, Instant)> = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if !queue.pending.is_empty() {
                    break;
                }
                if queue.shutdown {
                    return server;
                }
                let (guard, timeout) = shared.work_ready.wait_timeout(queue, IDLE_TICK).unwrap();
                queue = guard;
                if timeout.timed_out()
                    && queue.pending.is_empty()
                    && !queue.shutdown
                    && server.health().is_read_only()
                {
                    // Idle and read-only: probe for resumption so a cleared
                    // obstacle (freed disk, disarmed fault) heals the server
                    // without waiting for the next submission.
                    drop(queue);
                    shared
                        .counters
                        .resume_attempts
                        .fetch_add(1, Ordering::Relaxed);
                    if server.try_resume_writes() {
                        publish_health_only(&shared, &server);
                    }
                    queue = shared.queue.lock().unwrap();
                }
            }
            let take = queue.pending.len().min(shared.group_limit);
            queue.pending.drain(..take).collect()
        };
        let drained_at = Instant::now();

        let mut batch = UpdateBatch::new();
        for (update, _) in &drained {
            update.stage(&mut batch);
        }
        shared
            .counters
            .updates_coalesced
            .fetch_add(drained.len() as u64, Ordering::Relaxed);
        if batch.is_empty() {
            continue;
        }

        let started = Instant::now();
        match apply_with_quarantine(&mut server, &shared, &batch) {
            ApplyVerdict::Committed { converged } => {
                let nanos = started.elapsed().as_nanos() as u64;
                shared
                    .counters
                    .last_apply_nanos
                    .store(nanos, Ordering::Relaxed);
                shared.apply_latency.lock().unwrap().record(nanos);
                let seq = shared.published().seq() + 1;
                let version = shared.publish(build_version(&server, seq, converged));
                let published_at = Instant::now();
                let mut visible = shared.visible_latency.lock().unwrap();
                let mut waited = shared.queue_wait.lock().unwrap();
                for &(_, admitted) in &drained {
                    visible.record(published_at.duration_since(admitted).as_nanos() as u64);
                    waited.record(drained_at.duration_since(admitted).as_nanos() as u64);
                }
                drop((visible, waited));
                shared
                    .counters
                    .batches_committed
                    .fetch_add(1, Ordering::Relaxed);
                if shared.config.record_history {
                    shared
                        .history
                        .lock()
                        .unwrap()
                        .push(CommitRecord { batch, version });
                }
            }
            ApplyVerdict::Quarantined => {
                // Data unchanged; publish the (likely read-only) health so
                // admission starts shedding typed instead of queueing into
                // a wall.
                publish_health_only(&shared, &server);
            }
        }
    }
}

/// Apply `batch` under the quarantine contract: a batch failing with the
/// same [`crate::ApplyError::kind`] twice in a row — or exhausting the attempt
/// budget — is dead-lettered so the pipeline keeps moving. Between
/// attempts (and after a quarantine) the writer probes
/// [`DeltaServer::try_resume_writes`] so a transiently read-only server
/// heals instead of poisoning every subsequent batch.
fn apply_with_quarantine<P, F>(
    server: &mut DeltaServer<P, F>,
    shared: &FrontendShared<P::Value>,
    batch: &UpdateBatch,
) -> ApplyVerdict
where
    P: GraphProgram,
    P::Value: SnapshotValue,
    F: Fn(&Graph) -> P,
{
    let mut last_kind: Option<&'static str> = None;
    for attempt in 0..MAX_APPLY_ATTEMPTS {
        if server.health().is_read_only() {
            shared
                .counters
                .resume_attempts
                .fetch_add(1, Ordering::Relaxed);
            server.try_resume_writes();
        }
        match server.try_apply(batch) {
            Ok(outcome) => {
                return ApplyVerdict::Committed {
                    converged: outcome.converged,
                }
            }
            Err(e) => {
                let kind = e.kind();
                let repeated = last_kind == Some(kind);
                last_kind = Some(kind);
                if repeated || attempt + 1 == MAX_APPLY_ATTEMPTS {
                    quarantine(server, shared, batch, kind, &e.to_string(), attempt + 1);
                    return ApplyVerdict::Quarantined;
                }
                shared
                    .counters
                    .apply_retries
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    unreachable!("the attempt loop always returns");
}

fn quarantine<P, F>(
    server: &mut DeltaServer<P, F>,
    shared: &FrontendShared<P::Value>,
    batch: &UpdateBatch,
    kind: &'static str,
    error: &str,
    attempts: u32,
) where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    shared.dead_letters.lock().unwrap().push(DeadLetter {
        batch: batch.clone(),
        error: error.to_string(),
        kind,
        attempts,
    });
    shared
        .counters
        .batches_quarantined
        .fetch_add(1, Ordering::Relaxed);
    // Try to bring the write side back for the batches *behind* the poison
    // one: bounded probes with a small backoff.
    for _ in 0..RESUME_MAX_ATTEMPTS {
        if !server.health().is_read_only() {
            break;
        }
        shared
            .counters
            .resume_attempts
            .fetch_add(1, Ordering::Relaxed);
        if server.try_resume_writes() {
            break;
        }
        std::thread::sleep(RESUME_BACKOFF);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{DeltaServer, ServerConfig};
    use slfe_apps::sssp::SsspProgram;
    use slfe_cluster::ClusterConfig;
    use slfe_graph::rng::SplitMix64;
    use slfe_graph::{generators, stats};

    fn frontend(
        config: FrontendConfig,
    ) -> ServingFrontend<SsspProgram, impl Fn(&Graph) -> SsspProgram> {
        let graph = generators::rmat(200, 1400, 0.57, 0.19, 0.19, 5);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let server = DeltaServer::try_new(
            graph,
            move |_: &Graph| SsspProgram { root },
            ServerConfig {
                cluster: ClusterConfig::new(1, 1),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        ServingFrontend::spawn(server, config)
    }

    #[test]
    fn spawn_publishes_version_zero_and_shutdown_returns_the_server() {
        let fe = frontend(FrontendConfig::default());
        let handle = fe.handle();
        let v0 = handle.published();
        assert_eq!(v0.seq(), 0);
        assert_eq!(v0.mode(), ServingMode::ReadWrite);
        assert!(v0.converged());
        let answer = handle.point(0, None).unwrap();
        assert_eq!(answer.seq, 0);
        assert_eq!(answer.value, v0.value(0));
        let server = fe.shutdown();
        assert_eq!(server.stats().batches_applied, 0);
        // Handles outlive the frontend and keep answering.
        assert_eq!(handle.point(0, None).unwrap().seq, 0);
    }

    #[test]
    fn submitted_updates_are_group_committed_and_published() {
        let fe = frontend(FrontendConfig {
            record_history: true,
            ..FrontendConfig::default()
        });
        let handle = fe.handle();
        for i in 0..6u32 {
            handle
                .submit(EdgeUpdate::Insert {
                    src: i % 5,
                    dst: (i + 7) % 200,
                    weight: 1.5,
                })
                .unwrap();
        }
        let server = fe.shutdown();
        assert!(server.stats().batches_applied >= 1);
        let c = handle.counters();
        assert_eq!(c.updates_submitted, 6);
        assert_eq!(c.updates_coalesced, 6);
        assert!(c.batches_committed >= 1);
        let published = handle.published();
        assert_eq!(published.seq(), c.batches_committed);
        // The published values are the server's values, bit for bit.
        assert_eq!(
            published
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            server
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        // History replays to the same place.
        let history = handle.commit_history();
        assert_eq!(history.len() as u64, c.batches_committed);
        assert_eq!(history.last().unwrap().1.seq(), published.seq());
    }

    #[test]
    fn zero_deadline_sheds_typed_and_counts() {
        let fe = frontend(FrontendConfig::default());
        let handle = fe.handle();
        let err = handle.point(0, Some(Duration::ZERO)).unwrap_err();
        assert!(matches!(err, QueryError::DeadlineExceeded { .. }));
        let err = handle.top_k(3, Some(Duration::ZERO)).unwrap_err();
        assert!(matches!(err, QueryError::DeadlineExceeded { .. }));
        assert!(handle.point(0, Some(Duration::from_secs(60))).is_ok());
        let c = handle.counters();
        assert_eq!(c.deadline_exceeded, 2);
        assert_eq!(c.queries, 3);
        drop(fe);
    }

    #[test]
    fn invalid_updates_are_rejected_typed_not_panicking() {
        let fe = frontend(FrontendConfig::default());
        let handle = fe.handle();
        let err = handle
            .submit(EdgeUpdate::Delete {
                src: INVALID_VERTEX,
                dst: 0,
            })
            .unwrap_err();
        assert!(matches!(err, AdmitError::InvalidUpdate { .. }));
        assert_eq!(handle.counters().rejected_invalid, 1);
        drop(fe);
    }

    #[test]
    fn out_of_range_updates_are_rejected_at_submit() {
        let fe = frontend(FrontendConfig::default());
        let handle = fe.handle();
        let err = handle
            .submit(EdgeUpdate::Insert {
                src: 0,
                dst: 3_000_000_000,
                weight: 1.0,
            })
            .unwrap_err();
        assert!(matches!(err, AdmitError::InvalidUpdate { .. }), "got {err}");
        assert_eq!(handle.counters().rejected_invalid, 1);
        // Growth within the limit is still admitted and applied.
        handle
            .submit(EdgeUpdate::Insert {
                src: 0,
                dst: 250,
                weight: 1.0,
            })
            .unwrap();
        let server = fe.shutdown();
        assert_eq!(server.graph().num_vertices(), 251);
        assert!(handle.dead_letters().is_empty());
    }

    #[test]
    fn full_queue_sheds_overloaded_with_depth_and_hint() {
        // A frontend whose writer is effectively parked behind a huge group
        // can still be overloaded by submitting faster than it drains; force
        // determinism by shutting the writer down first.
        let fe = frontend(FrontendConfig {
            queue_capacity: 4,
            ..FrontendConfig::default()
        });
        let handle = fe.handle();
        drop(fe); // writer gone: the queue no longer drains
        let mut shed = None;
        for i in 0..16u32 {
            if let Err(e) = handle.submit(EdgeUpdate::Insert {
                src: i % 5,
                dst: 6,
                weight: 1.0,
            }) {
                shed = Some(e);
                break;
            }
        }
        match shed.expect("a bounded queue must shed") {
            AdmitError::Overloaded {
                queue_depth,
                retry_after,
            } => {
                assert!(queue_depth <= 4);
                assert!(retry_after >= Duration::from_millis(1));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(handle.counters().shed_overloaded >= 1);
    }

    #[test]
    fn group_commit_limit_respects_dirty_economics() {
        let limit = |vertices: usize| {
            let graph = generators::rmat(vertices, vertices * 6, 0.57, 0.19, 0.19, 9);
            let server = DeltaServer::try_new(
                graph,
                |_: &Graph| SsspProgram { root: 0 },
                ServerConfig {
                    cluster: ClusterConfig::new(1, 1),
                    full_recompute_dirty_fraction: 0.4,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            group_commit_limit(&server)
        };
        // 0.4 * 0.5 headroom * 100 vertices / 2 endpoints = 10 updates.
        assert_eq!(limit(100), 10);
        // The hard cap wins when the graph is large: 300 by economics.
        assert_eq!(limit(3000), GROUP_COMMIT_MAX_UPDATES);
    }

    /// Wait until `handle` publishes version `seq`.
    fn wait_for(handle: &FrontendHandle<f32>, seq: u64) -> Arc<PublishedVersion<f32>> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let version = handle.published();
            if version.seq() >= seq {
                return version;
            }
            assert!(Instant::now() < deadline, "version {seq} never published");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn one_edge_versions_share_every_block_outside_the_changed_list() {
        use crate::values::ServedValues;
        use slfe_core::{SlfeEngine, WarmResult};
        use slfe_graph::csr::BLOCK_VERTICES;
        let graph = generators::rmat(5000, 30_000, 0.57, 0.19, 0.19, 17);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        let make = move |_: &Graph| SsspProgram { root };
        let config = ServerConfig {
            cluster: ClusterConfig::new(1, 1),
            ..ServerConfig::default()
        };
        let server = DeltaServer::try_new(graph.clone(), make, config.clone()).unwrap();
        let mut oracle = DeltaServer::try_new(graph.clone(), make, config.clone()).unwrap();
        let fe = ServingFrontend::spawn(server, FrontendConfig::default());
        let handle = fe.handle();
        let far = graph.num_vertices() as VertexId - 1;
        let deleted = graph.out_neighbors(root)[0];
        let updates = [
            EdgeUpdate::Insert {
                src: root,
                dst: far,
                weight: 0.01,
            },
            EdgeUpdate::Delete {
                src: root,
                dst: deleted,
            },
            EdgeUpdate::Insert {
                src: far,
                dst: far + 3, // grows |V| inside the last block
                weight: 1.0,
            },
            EdgeUpdate::Insert {
                src: 7,
                dst: 8,
                weight: 1.0,
            },
        ];
        let flat = |served: &ServedValues<f32>| bits(&served.to_vec());
        for (i, &update) in updates.iter().enumerate() {
            let before = handle.published();
            handle.submit(update).unwrap();
            assert!(
                before.flat.get().is_none(),
                "submit materialised the flat view of version {}",
                before.seq()
            );
            let after = wait_for(&handle, i as u64 + 1);
            assert_eq!(after.seq(), i as u64 + 1, "one update per batch");

            // The oracle's restart from the same previous result names the
            // vertices the batch changed.
            let mut batch = UpdateBatch::new();
            update.stage(&mut batch);
            let mut previous = WarmResult::new(oracle.result().clone());
            let (next, effect) = oracle.graph().apply_batch(&batch);
            oracle.try_apply(&batch).unwrap();
            SlfeEngine::build(&next, config.cluster.clone(), config.engine.clone()).restart(
                &SsspProgram { root },
                &mut previous,
                &effect,
            );
            let changed = previous
                .take_changed()
                .expect("a warm restart lists what it changed");
            assert!(i > 0 || !changed.is_empty(), "the shortcut changed nothing");
            assert_eq!(flat(&after.values), bits(oracle.values()), "update {i}");
            for b in 0..after.values.num_blocks() {
                let written = changed.iter().any(|&v| v as usize / BLOCK_VERTICES == b);
                assert_eq!(
                    after.values.shares_block(&before.values, b),
                    !written,
                    "update {i}: block {b} (changed {changed:?})"
                );
            }
            assert!(after.flat.get().is_none(), "publish materialised values");
        }
        drop(fe);
    }

    #[test]
    fn published_and_served_top_k_equal_the_full_sort_at_every_version() {
        use crate::values::natural_order;
        use slfe_apps::pagerank::PageRankProgram;
        use slfe_graph::ReorderPolicy;
        let graph = generators::rmat(2600, 16_000, 0.57, 0.19, 0.19, 23);
        let root = stats::highest_out_degree_vertex(&graph).unwrap();
        for reorder in [ReorderPolicy::None, ReorderPolicy::DegreeDescending] {
            check_stream(&graph, reorder, "sssp", move |g: &Graph| SsspProgram {
                root: g.to_physical(root),
            });
            check_stream(&graph, reorder, "pagerank", PageRankProgram::for_graph);
        }

        fn check_stream<P, F>(graph: &Graph, reorder: ReorderPolicy, app: &str, make: F)
        where
            P: GraphProgram<Value = f32> + Send + 'static,
            F: Fn(&Graph) -> P + Copy + Send + 'static,
        {
            let label = format!("{app} under {reorder:?}");
            let start = |reorder| {
                let config = ServerConfig {
                    cluster: ClusterConfig::new(2, 1),
                    ..ServerConfig::default()
                }
                .with_reorder(reorder);
                let mut server = DeltaServer::try_new(graph.clone(), make, config).unwrap();
                let remapped = server.remap_now().unwrap();
                assert_eq!(remapped, reorder != ReorderPolicy::None, "{label}");
                server
            };
            let fe = ServingFrontend::spawn(
                start(reorder),
                FrontendConfig {
                    record_history: true,
                    ..FrontendConfig::default()
                },
            );
            let handle = fe.handle();
            let initial = handle.published();
            // Seeded inserts (some growing |V|) and deletes of existing edges,
            // in bursts the writer coalesces into a few batches.
            let mut rng = SplitMix64::seed_from_u64(4242);
            let n = graph.num_vertices() as VertexId;
            for i in 0..48u32 {
                let src = rng.range_u32(0, n);
                let update = match graph.out_neighbors(src).first() {
                    Some(&dst) if i % 3 == 0 => EdgeUpdate::Delete { src, dst },
                    _ => EdgeUpdate::Insert {
                        src,
                        dst: if i % 8 == 5 {
                            n + i
                        } else {
                            rng.range_u32(0, n)
                        },
                        weight: rng.range_f32(0.5, 4.0),
                    },
                };
                handle.submit(update).unwrap();
                if i % 8 == 7 {
                    wait_for(&handle, handle.published().seq() + 1);
                }
            }
            let last = fe.shutdown();
            let history = handle.commit_history();
            assert!(history.len() >= 3, "{label}: {} versions", history.len());
            assert!(
                last.graph().num_vertices() > graph.num_vertices(),
                "{label}"
            );

            let full_sort = |values: &[f32], k: usize| {
                let mut ranked: Vec<(VertexId, u32)> = values
                    .iter()
                    .enumerate()
                    .map(|(v, x)| (v as VertexId, x.to_bits()))
                    .collect();
                ranked.sort_by(|a, b| {
                    natural_order(&f32::from_bits(b.1), &f32::from_bits(a.1)).then(a.0.cmp(&b.0))
                });
                ranked.truncate(k);
                ranked
            };
            let ranked = |top: Vec<(VertexId, f32)>| -> Vec<(VertexId, u32)> {
                top.into_iter().map(|(v, x)| (v, x.to_bits())).collect()
            };
            // Remaps are bit-transparent, so an unremapped server is the
            // oracle for both layouts.
            let mut oracle = start(ReorderPolicy::None);
            let versions = std::iter::once((None, initial)).chain(
                history
                    .into_iter()
                    .map(|(batch, version)| (Some(batch), version)),
            );
            for (batch, version) in versions {
                if let Some(batch) = batch {
                    oracle.try_apply(&batch).unwrap();
                }
                let seq = version.seq();
                assert_eq!(
                    bits(version.values()),
                    bits(oracle.values()),
                    "{label}: version {seq} values"
                );
                let n = version.values().len();
                for k in [0, 1, 10, 100, n + 1] {
                    let expect = full_sort(version.values(), k);
                    assert_eq!(ranked(version.top_k(k)), expect, "{label}: v{seq} k={k}");
                    assert_eq!(
                        ranked(oracle.top_k(k)),
                        expect,
                        "{label}: server v{seq} k={k}"
                    );
                }
            }
            assert_eq!(bits(last.values()), bits(oracle.values()), "{label}");
            let n = last.values().len();
            assert_eq!(
                ranked(last.top_k(n + 1)),
                full_sort(last.values(), n + 1),
                "{label}: the writer's own server"
            );
        }
    }

    #[test]
    fn top_k_matches_the_server_ranking() {
        let fe = frontend(FrontendConfig::default());
        let handle = fe.handle();
        let server = fe.shutdown();
        let ours = handle.top_k_by(
            5,
            |a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal),
            None,
        );
        let nearest = server.top_k_by(5, |a, b| {
            b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
        });
        assert_eq!(ours.unwrap().value, nearest);
    }
}
