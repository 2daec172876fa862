//! Computation and communication counters: [`Counters`], a plain value type
//! each worker fills on its own and the engine merges at every barrier.

use std::ops::{Add, AddAssign};

/// A snapshot of work performed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Number of edge computations (one per edge visited by a pull/push function).
    pub edge_computations: u64,
    /// Number of vertex property updates (writes that changed a value).
    pub vertex_updates: u64,
    /// Number of inter-node messages sent.
    pub messages_sent: u64,
    /// Number of bytes carried by those messages.
    pub bytes_sent: u64,
    /// Number of OS threads spawned while this counter window was open.
    ///
    /// With the persistent worker pool (ROADMAP architecture note, PR 3) an
    /// engine spawns its threads once at build time and every run reuses them,
    /// so a run's totals report **0** here; any nonzero value in a run means
    /// per-phase spawning has regressed. The pool-reuse regression test pins
    /// the build-time spawn count itself at `< total_workers`.
    pub threads_spawned: u64,
    /// Number of work chunks the executor skipped without touching their
    /// vertices, because the chunk-level activity summary proved the whole
    /// chunk cold (frontier-empty source chunk in push mode; fully rr-gated,
    /// in-edge-free, caught-up-and-quiescent, or fully early-converged
    /// destination chunk in pull mode). Every push and pull phase runs on the
    /// one chunked executor at every worker count, `workers_per_node: 1`
    /// included, and skipping depends only on barrier-merged state — so this
    /// tally, like the other work counters, is identical at every worker
    /// count.
    pub chunks_skipped: u64,
    /// Peak bytes of push-mode gather scratch (per-worker dense buffers or
    /// sparse contribution maps, plus the shared merge buffers) live at any
    /// iteration barrier inside this counter window. Unlike every other field
    /// this is a high-water mark, and merging it depends on how the two
    /// windows relate in *time*: [`Counters::merge_concurrent`] (windows live
    /// simultaneously — several workers' scratch at one barrier) **sums** the
    /// footprints, while `+` (windows sequential in time — iterations into a
    /// run total) takes the max. Using `+` across concurrent windows
    /// under-reports the true peak by up to a factor of the worker count.
    pub scratch_bytes_peak: u64,
    /// Out-of-core execution: segments faulted from disk through the buffer
    /// pool. 0 when the engine runs against the in-memory store. Unlike the
    /// work counters this is an I/O statistic: it depends on cache state and
    /// chunk→worker timing, so it is *not* guaranteed identical across worker
    /// counts.
    pub segments_faulted: u64,
    /// Bytes those segment faults read from disk.
    pub segment_bytes_read: u64,
}

impl Counters {
    /// A zeroed counter set.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Updates per vertex — the Table 2 metric. Returns 0 for an empty graph.
    pub fn updates_per_vertex(&self, num_vertices: usize) -> f64 {
        if num_vertices == 0 {
            0.0
        } else {
            self.vertex_updates as f64 / num_vertices as f64
        }
    }

    /// Total work units: edge computations + vertex updates. Used as the
    /// machine-independent "runtime" proxy in the counted-cost experiments.
    pub fn work(&self) -> u64 {
        self.edge_computations + self.vertex_updates
    }

    /// Combine two counter windows that were live **at the same time** — e.g.
    /// two workers' phase counters merged at a barrier. Flow counters sum
    /// either way; `scratch_bytes_peak` differs: memory held simultaneously
    /// adds up, so the concurrent merge **sums** it, where the sequential `+`
    /// takes the max. Summing per-worker footprints at each barrier and
    /// max-ing barriers across time is what reports the run's true peak.
    pub fn merge_concurrent(self, rhs: Counters) -> Counters {
        Counters {
            scratch_bytes_peak: self.scratch_bytes_peak + rhs.scratch_bytes_peak,
            ..self + rhs
        }
    }
}

impl Add for Counters {
    type Output = Counters;
    fn add(self, rhs: Counters) -> Counters {
        Counters {
            edge_computations: self.edge_computations + rhs.edge_computations,
            vertex_updates: self.vertex_updates + rhs.vertex_updates,
            messages_sent: self.messages_sent + rhs.messages_sent,
            bytes_sent: self.bytes_sent + rhs.bytes_sent,
            threads_spawned: self.threads_spawned + rhs.threads_spawned,
            chunks_skipped: self.chunks_skipped + rhs.chunks_skipped,
            // A peak, not a flow: combining *sequential* windows keeps the
            // high-water mark (concurrent windows must use
            // `merge_concurrent`, which sums the simultaneously-live bytes).
            scratch_bytes_peak: self.scratch_bytes_peak.max(rhs.scratch_bytes_peak),
            segments_faulted: self.segments_faulted + rhs.segments_faulted,
            segment_bytes_read: self.segment_bytes_read + rhs.segment_bytes_read,
        }
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_add_assign_accumulate() {
        let a = Counters {
            edge_computations: 1,
            vertex_updates: 2,
            messages_sent: 3,
            bytes_sent: 4,
            threads_spawned: 5,
            chunks_skipped: 6,
            scratch_bytes_peak: 7,
            segments_faulted: 8,
            segment_bytes_read: 9,
        };
        let b = Counters {
            edge_computations: 10,
            vertex_updates: 20,
            messages_sent: 30,
            bytes_sent: 40,
            threads_spawned: 50,
            chunks_skipped: 60,
            scratch_bytes_peak: 70,
            segments_faulted: 80,
            segment_bytes_read: 90,
        };
        let mut c = a + b;
        assert_eq!(c.edge_computations, 11);
        assert_eq!(c.bytes_sent, 44);
        assert_eq!(c.threads_spawned, 55);
        assert_eq!(c.chunks_skipped, 66);
        assert_eq!(c.scratch_bytes_peak, 70, "peak merges as a max");
        assert_eq!(c.segments_faulted, 88);
        assert_eq!(c.segment_bytes_read, 99);
        c += a;
        assert_eq!(c.vertex_updates, 24);
        assert_eq!(c.threads_spawned, 60);
        assert_eq!(c.chunks_skipped, 72);
        assert_eq!(
            c.scratch_bytes_peak, 70,
            "smaller window does not lower the peak"
        );
    }

    /// The barrier-merge semantics the engine relies on: worker scratch live
    /// *simultaneously* at one barrier sums; barriers across *time* max.
    /// Hand-computed: three workers holding 100/50/25 bytes at iteration 1
    /// (footprint 175), two workers holding 60/60 at iteration 2 (footprint
    /// 120) — the run peak is 175, not `max(100, 60) = 100` as the old
    /// max-everywhere merge would report.
    #[test]
    fn concurrent_merge_sums_scratch_and_sequential_merge_maxes_it() {
        let worker = |scratch: u64| Counters {
            edge_computations: 1,
            scratch_bytes_peak: scratch,
            ..Counters::zero()
        };
        let barrier1 = worker(100)
            .merge_concurrent(worker(50))
            .merge_concurrent(worker(25));
        assert_eq!(barrier1.scratch_bytes_peak, 175, "concurrent sums");
        assert_eq!(barrier1.edge_computations, 3, "flow counters still sum");
        let barrier2 = worker(60).merge_concurrent(worker(60));
        assert_eq!(barrier2.scratch_bytes_peak, 120);
        let run = barrier1 + barrier2;
        assert_eq!(run.scratch_bytes_peak, 175, "sequential maxes");
        assert_eq!(run.edge_computations, 5);
    }

    #[test]
    fn updates_per_vertex_matches_table2_semantics() {
        let c = Counters {
            vertex_updates: 90,
            ..Counters::zero()
        };
        assert!((c.updates_per_vertex(10) - 9.0).abs() < 1e-9);
        assert_eq!(c.updates_per_vertex(0), 0.0);
    }

    #[test]
    fn work_sums_computations_and_updates() {
        let c = Counters {
            edge_computations: 5,
            vertex_updates: 7,
            ..Counters::zero()
        };
        assert_eq!(c.work(), 12);
    }
}
