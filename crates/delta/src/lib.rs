//! # slfe-delta
//!
//! Incremental recomputation and update serving for the SLFE reproduction —
//! the subsystem that keeps a program's answer *live* while the graph changes,
//! instead of recomputing every fixpoint from scratch.
//!
//! The paper defers dynamic graphs to future work; this crate composes the
//! pieces the rest of the workspace provides into a serving loop:
//!
//! 1. **Mutation** — [`slfe_graph::UpdateBatch`] stages edge insertions and
//!    deletions; [`slfe_graph::Graph::apply_batch`] rebuilds only the touched
//!    adjacency ranges and reports the *dirty* endpoints.
//! 2. **Guidance** — the redundancy-reduction guidance is derived state.
//!    [`slfe_core::RrGuidance::generate`] runs where the rulers are read: at
//!    start-up and recovery, for a batch that falls back to a full
//!    recompute, and for a [`DeltaServer::guidance`] read. Warm restarts run
//!    with the rulers off, so a warm batch reuses the current guidance.
//! 3. **Warm re-convergence** — [`slfe_core::SlfeEngine::run_from`] restarts
//!    the program from the previous fixpoint, re-converging only what the batch
//!    disturbed: the support-invalidated region + dirty frontier for monotone
//!    min/max programs; for arithmetic programs a delta-restart whose pulls
//!    visit only the vertices the previous pull changed (at first, the dirty
//!    endpoints) and their out-neighbours, bit-identical to re-pulling every
//!    vertex. Its first pull is full when the served result is not an exact
//!    fixpoint ([`slfe_core::ProgramResult::exact_fixpoint`]): after the
//!    ruler-gated cold run of [`DeltaServer::try_new`] or a full-recompute
//!    fallback, after [`DeltaServer::open`] restores snapshot values, and
//!    after a remap.
//! 4. **Serving** — [`DeltaServer`] owns the current graph version, guidance
//!    and fixpoint, applies batches, accounts the simulated cost of shipping
//!    each batch to its partitions, and answers point and top-k value queries
//!    between batches.
//! 5. **Durability** — [`durability`] adds a checksummed write-ahead log
//!    (fsync'd before any state changes), atomic fixpoint snapshots with
//!    segment-file compaction riding the snapshot path, and kill-9 recovery
//!    ([`DeltaServer::open`]) that replays the WAL suffix to values
//!    bit-identical to an uninterrupted run.
//! 6. **Graceful degradation** — [`health`] types the failure contract for
//!    I/O errors (not just `kill -9`): transient faults are absorbed by
//!    bounded retries, unreadable segments are quarantined and rebuilt,
//!    failed snapshots degrade health while serving continues, and
//!    unrecoverable write failures flip the server into a read-only
//!    [`ServingMode`] that still answers queries — driven deterministically
//!    by [`slfe_graph::FaultPlan`] schedules in the crashpoint sweep.
//! 7. **Concurrent serving** — [`frontend`] wraps the server in a
//!    thread-safe front end: immutable published versions for
//!    snapshot-consistent reads, a bounded admission queue with typed load
//!    shedding, group commit sized by the dirty-fraction economics, query
//!    deadlines, and poison-batch quarantine.
//!
//! Determinism: everything the batch did not disturb keeps its bit pattern, and
//! the re-converged region is computed by the same deterministic engine paths as
//! a cold run — so a [`DeltaServer`] answer for a min/max program is
//! bit-for-bit the answer a from-scratch run on the current graph would give
//! (within convergence tolerance for arithmetic programs).

pub mod durability;
pub mod frontend;
pub mod health;
pub mod server;

pub use durability::{DurabilityConfig, DurabilityError, SnapshotValue, Wal, WalReplay};
pub use frontend::{
    AdmitError, Answer, DeadLetter, EdgeUpdate, FrontendConfig, FrontendCounterSnapshot,
    FrontendHandle, PublishedVersion, QueryError, ServingFrontend,
};
pub use health::{ApplyError, Health, ServingMode};
pub use server::{BatchOutcome, DeltaServer, ServerConfig, ServerStats};
// Re-exported so serving code can stage batches without importing slfe-graph.
pub use slfe_graph::{BatchEffect, UpdateBatch};
