//! Durability instrumentation: WAL, state-file (checkpoint and base) and
//! compaction counters.
//!
//! The delta server's durability layer (`slfe-delta::durability`) reports its
//! activity through this plain value type, mirroring the engine's
//! [`crate::Counters`] style: cheap monotone tallies, summable across
//! windows, never used for synchronisation.

use std::ops::{Add, AddAssign};

/// A snapshot of durability work performed by a serving process.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityCounters {
    /// Update batches appended to the write-ahead log.
    pub wal_entries_appended: u64,
    /// Bytes those appends wrote (frame headers included).
    pub wal_bytes_appended: u64,
    /// fsync (`sync_data`) calls issued by WAL appends — the per-batch
    /// durability cost the bench reports.
    pub wal_fsyncs: u64,
    /// Batches re-applied from the WAL during recovery through the apply
    /// pipeline (engine included): the entries past the recovery point.
    pub wal_entries_replayed: u64,
    /// Batches folded into the base graph during recovery without running
    /// the engine: the entries between the base and the checkpoint.
    pub wal_entries_refolded: u64,
    /// Bytes of torn or corrupt WAL tail discarded when opening the log.
    pub wal_bytes_truncated: u64,
    /// State files written, checkpoints and bases alike (atomic temp-file +
    /// rename cycles completed).
    pub snapshots_written: u64,
    /// Bytes of those state files.
    pub snapshot_bytes_written: u64,
    /// Of `snapshots_written`, the bases: full-state files that rewrite the
    /// graph and let the WAL be trimmed.
    pub base_writes: u64,
    /// Of `snapshot_bytes_written`, the bytes of the bases.
    pub base_bytes_written: u64,
    /// Segment-file compactions, each run after a batch left more than half
    /// of the backing-file bytes dead.
    pub compactions: u64,
    /// Dead backing-file bytes those compactions reclaimed.
    pub compaction_bytes_reclaimed: u64,
}

impl DurabilityCounters {
    /// A zeroed counter set.
    pub fn zero() -> Self {
        Self::default()
    }
}

impl Add for DurabilityCounters {
    type Output = DurabilityCounters;
    fn add(self, rhs: DurabilityCounters) -> DurabilityCounters {
        DurabilityCounters {
            wal_entries_appended: self.wal_entries_appended + rhs.wal_entries_appended,
            wal_bytes_appended: self.wal_bytes_appended + rhs.wal_bytes_appended,
            wal_fsyncs: self.wal_fsyncs + rhs.wal_fsyncs,
            wal_entries_replayed: self.wal_entries_replayed + rhs.wal_entries_replayed,
            wal_entries_refolded: self.wal_entries_refolded + rhs.wal_entries_refolded,
            wal_bytes_truncated: self.wal_bytes_truncated + rhs.wal_bytes_truncated,
            snapshots_written: self.snapshots_written + rhs.snapshots_written,
            snapshot_bytes_written: self.snapshot_bytes_written + rhs.snapshot_bytes_written,
            base_writes: self.base_writes + rhs.base_writes,
            base_bytes_written: self.base_bytes_written + rhs.base_bytes_written,
            compactions: self.compactions + rhs.compactions,
            compaction_bytes_reclaimed: self.compaction_bytes_reclaimed
                + rhs.compaction_bytes_reclaimed,
        }
    }
}

impl AddAssign for DurabilityCounters {
    fn add_assign(&mut self, rhs: DurabilityCounters) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_fieldwise() {
        let a = DurabilityCounters {
            wal_entries_appended: 1,
            wal_bytes_appended: 2,
            wal_fsyncs: 3,
            wal_entries_replayed: 4,
            wal_entries_refolded: 10,
            wal_bytes_truncated: 5,
            snapshots_written: 6,
            snapshot_bytes_written: 7,
            base_writes: 11,
            base_bytes_written: 12,
            compactions: 8,
            compaction_bytes_reclaimed: 9,
        };
        let mut c = a + a;
        assert_eq!(c.wal_entries_appended, 2);
        assert_eq!(c.compaction_bytes_reclaimed, 18);
        c += a;
        assert_eq!(c.wal_fsyncs, 9);
        assert_eq!(c.snapshot_bytes_written, 21);
        assert_eq!(
            (c.wal_entries_refolded, c.base_writes, c.base_bytes_written),
            (30, 33, 36)
        );
        assert_eq!(DurabilityCounters::zero(), DurabilityCounters::default());
    }
}
