//! Serving health: graceful degradation instead of panics.
//!
//! The durability layer's failure contract is that a server which can no
//! longer uphold a guarantee *says so and keeps serving what it can*:
//!
//! * A failed state write — a checkpoint or a base — leaves the server
//!   fully read-write — the WAL simply keeps growing until a later write
//!   succeeds — but marks it **degraded** so operators see the recovery
//!   point going stale. A failed segment compaction likewise leaves it
//!   read-write and marks it degraded until a later compaction succeeds;
//!   the dead bytes wait for a retry a few batches later.
//! * A failed WAL trim after a successful base write is harmless (replay
//!   skips entries the base already covers) and is only counted.
//! * A write-side failure that breaks the durability contract itself — a
//!   WAL append that cannot complete, a segment store that cannot be
//!   patched or rebuilt, or the disk filling up — flips the server into
//!   **read-only mode**: point and top-k queries keep answering from the
//!   last published version, while [`crate::DeltaServer::try_apply`]
//!   returns [`ApplyError::ReadOnly`] until the server is reopened.

use slfe_graph::{is_disk_full, VertexId};
use std::io;

/// Whether the server still accepts update batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServingMode {
    /// Normal operation: batches are accepted and queries answered.
    #[default]
    ReadWrite,
    /// Update side disabled after an unrecoverable write failure; queries
    /// keep answering from the last published version.
    ReadOnly,
}

/// Degradation state of one [`crate::DeltaServer`].
#[derive(Debug, Clone, Default)]
pub struct Health {
    mode: ServingMode,
    /// Why the server went read-only, when it did.
    read_only_reason: Option<String>,
    /// State writes (checkpoint or base) that failed (the server keeps
    /// serving; the WAL keeps growing until one succeeds).
    snapshot_failures: u64,
    /// The most recent state-write failure, for operators.
    last_snapshot_error: Option<String>,
    /// WAL trims after a successful base write that failed (harmless:
    /// replay skips entries at or below the base's sequence number).
    wal_trim_failures: u64,
    /// Segment-file compactions that failed (the server keeps serving; the
    /// dead bytes stay until one succeeds).
    compaction_failures: u64,
    /// The most recent compaction failure, for operators.
    last_compaction_error: Option<String>,
    /// Full segment-store rebuilds performed after a patch failure or a
    /// poisoned execution.
    storage_rebuilds: u64,
    /// ReadOnly → ReadWrite transitions after a successful resume probe
    /// (see [`crate::DeltaServer::try_resume_writes`]).
    writes_resumed: u64,
}

impl Health {
    /// A healthy read-write state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current serving mode.
    pub fn mode(&self) -> ServingMode {
        self.mode
    }

    /// `true` once the update side has been disabled.
    pub fn is_read_only(&self) -> bool {
        self.mode == ServingMode::ReadOnly
    }

    /// Why the server is read-only, when it is.
    pub fn read_only_reason(&self) -> Option<&str> {
        self.read_only_reason.as_deref()
    }

    /// `true` when any guarantee is currently weakened: the server is
    /// read-only, or state writes (checkpoints, bases) or segment-file
    /// compactions have been failing since their last success.
    pub fn is_degraded(&self) -> bool {
        self.is_read_only()
            || self.last_snapshot_error.is_some()
            || self.last_compaction_error.is_some()
    }

    /// State writes (checkpoints or bases) that failed so far.
    pub fn snapshot_failures(&self) -> u64 {
        self.snapshot_failures
    }

    /// The most recent state-write failure message, until a state write
    /// succeeds.
    pub fn last_snapshot_error(&self) -> Option<&str> {
        self.last_snapshot_error.as_deref()
    }

    /// WAL trim failures absorbed so far.
    pub fn wal_trim_failures(&self) -> u64 {
        self.wal_trim_failures
    }

    /// Segment-file compactions that failed so far.
    pub fn compaction_failures(&self) -> u64 {
        self.compaction_failures
    }

    /// The most recent compaction failure message, until a compaction
    /// succeeds.
    pub fn last_compaction_error(&self) -> Option<&str> {
        self.last_compaction_error.as_deref()
    }

    /// Full segment-store rebuilds performed so far.
    pub fn storage_rebuilds(&self) -> u64 {
        self.storage_rebuilds
    }

    /// ReadOnly → ReadWrite transitions performed so far.
    pub fn writes_resumed(&self) -> u64 {
        self.writes_resumed
    }

    pub(crate) fn enter_read_only(&mut self, reason: String) {
        if self.mode == ServingMode::ReadWrite {
            self.mode = ServingMode::ReadOnly;
            self.read_only_reason = Some(reason);
        }
    }

    /// Re-enter read-write after a successful resume probe. A no-op unless
    /// the server is currently read-only.
    pub(crate) fn resume_writes(&mut self) {
        if self.mode == ServingMode::ReadOnly {
            self.mode = ServingMode::ReadWrite;
            self.read_only_reason = None;
            self.writes_resumed += 1;
        }
    }

    pub(crate) fn note_snapshot_failure(&mut self, e: &io::Error) {
        self.snapshot_failures += 1;
        self.last_snapshot_error = Some(e.to_string());
    }

    pub(crate) fn note_snapshot_success(&mut self) {
        self.last_snapshot_error = None;
    }

    pub(crate) fn note_wal_trim_failure(&mut self) {
        self.wal_trim_failures += 1;
    }

    pub(crate) fn note_compaction_failure(&mut self, e: &io::Error) {
        self.compaction_failures += 1;
        self.last_compaction_error = Some(e.to_string());
    }

    pub(crate) fn note_compaction_success(&mut self) {
        self.last_compaction_error = None;
    }

    pub(crate) fn note_storage_rebuild(&mut self) {
        self.storage_rebuilds += 1;
    }
}

/// Why [`crate::DeltaServer::try_apply`] rejected or could not complete a
/// batch. Every variant leaves the server answering queries from the last
/// published version — an apply failure never corrupts served state.
#[derive(Debug)]
pub enum ApplyError {
    /// The server is in read-only mode; `reason` is why it entered it.
    ReadOnly {
        /// The failure that disabled the update side.
        reason: String,
    },
    /// An endpoint lies so far past the current graph that applying the
    /// batch would append more than 2^20 vertices at once (one garbage id
    /// would otherwise make the graph patch allocate for billions). Refused
    /// before the WAL append; the server stays read-write.
    VertexOutOfRange {
        /// The offending endpoint (external id).
        vertex: VertexId,
        /// Vertices of the graph version the batch was checked against.
        num_vertices: usize,
    },
    /// The WAL append (or its fsync) failed, so the batch was never made
    /// durable and was not applied. The server is now read-only.
    WalAppend(io::Error),
    /// The out-of-core segment store could not be patched *or* rebuilt for
    /// the new graph version. The server is now read-only, still serving
    /// the previous version.
    StoragePatch(io::Error),
    /// Segment reads failed beyond what retries and quarantine-rebuilds
    /// could absorb, twice (the run was re-driven once on a freshly rebuilt
    /// store). The results were discarded; the server is now read-only,
    /// still serving the previous version.
    ExecutionPoisoned {
        /// What the storage layer reported about the unreadable segments.
        note: String,
    },
}

impl ApplyError {
    /// Stable short name for the variant, independent of the (often
    /// OS-specific) error message. The front end's quarantine rule compares
    /// kinds — "failed the same way twice" — so messages that embed paths or
    /// errno text don't defeat poison detection.
    pub fn kind(&self) -> &'static str {
        match self {
            ApplyError::ReadOnly { .. } => "read_only",
            ApplyError::VertexOutOfRange { .. } => "vertex_out_of_range",
            ApplyError::WalAppend(_) => "wal_append",
            ApplyError::StoragePatch(_) => "storage_patch",
            ApplyError::ExecutionPoisoned { .. } => "execution_poisoned",
        }
    }
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::ReadOnly { reason } => {
                write!(f, "server is read-only: {reason}")
            }
            ApplyError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "vertex {vertex} is over 2^20 ids past a {num_vertices}-vertex graph"
                )
            }
            ApplyError::WalAppend(e) if is_disk_full(e) => {
                write!(f, "WAL append failed: disk full (ENOSPC): {e}")
            }
            ApplyError::WalAppend(e) => write!(f, "WAL append failed: {e}"),
            ApplyError::StoragePatch(e) => {
                write!(f, "segment store could not be patched or rebuilt: {e}")
            }
            ApplyError::ExecutionPoisoned { note } => {
                write!(f, "execution poisoned by unreadable segments: {note}")
            }
        }
    }
}

impl std::error::Error for ApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApplyError::WalAppend(e) | ApplyError::StoragePatch(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_transitions_and_degradation() {
        let mut h = Health::new();
        assert_eq!(h.mode(), ServingMode::ReadWrite);
        assert!(!h.is_degraded());

        h.note_snapshot_failure(&io::Error::other("disk hiccup"));
        assert!(h.is_degraded());
        assert!(!h.is_read_only());
        assert_eq!(h.snapshot_failures(), 1);
        assert_eq!(h.last_snapshot_error(), Some("disk hiccup"));

        h.note_snapshot_success();
        assert!(!h.is_degraded(), "a later snapshot clears the degradation");
        assert_eq!(h.snapshot_failures(), 1, "the count is cumulative");

        h.enter_read_only("ENOSPC".into());
        h.enter_read_only("second reason must not overwrite".into());
        assert!(h.is_read_only() && h.is_degraded());
        assert_eq!(h.read_only_reason(), Some("ENOSPC"));

        h.resume_writes();
        assert_eq!(h.mode(), ServingMode::ReadWrite);
        assert!(h.read_only_reason().is_none());
        assert_eq!(h.writes_resumed(), 1);
        h.resume_writes();
        assert_eq!(h.writes_resumed(), 1, "resume while writable is a no-op");
    }

    #[test]
    fn a_failing_compaction_degrades_until_one_succeeds() {
        let mut h = Health::new();
        h.note_compaction_failure(&io::Error::other("segment write failed"));
        assert!(h.is_degraded() && !h.is_read_only());
        h.note_snapshot_success();
        assert!(h.is_degraded(), "a state write does not clear it");
        assert_eq!(h.last_compaction_error(), Some("segment write failed"));
        h.note_compaction_success();
        assert!(!h.is_degraded());
        assert!(h.last_compaction_error().is_none());
        assert_eq!(h.compaction_failures(), 1, "the count is cumulative");
    }

    #[test]
    fn apply_error_kinds_are_stable() {
        assert_eq!(
            ApplyError::ReadOnly { reason: "x".into() }.kind(),
            "read_only"
        );
        assert_eq!(
            ApplyError::WalAppend(io::Error::other("a")).kind(),
            "wal_append"
        );
        assert_eq!(
            ApplyError::StoragePatch(io::Error::other("b")).kind(),
            "storage_patch"
        );
        assert_eq!(
            ApplyError::ExecutionPoisoned { note: "n".into() }.kind(),
            "execution_poisoned"
        );
        assert_eq!(
            ApplyError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 1
            }
            .kind(),
            "vertex_out_of_range"
        );
    }

    #[test]
    fn apply_errors_format_their_cause() {
        let e = ApplyError::ReadOnly {
            reason: "disk full".into(),
        };
        assert!(e.to_string().contains("read-only"));
        let e = ApplyError::WalAppend(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ApplyError::ExecutionPoisoned {
            note: "segment 0..64 unreadable".into(),
        };
        assert!(e.to_string().contains("unreadable"));
    }
}
