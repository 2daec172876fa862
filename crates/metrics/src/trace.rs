//! Per-iteration execution traces.
//!
//! Figure 9 of the paper plots the number of computations per iteration with and
//! without redundancy reduction; Figure 4 needs to know how much time each iteration
//! spent in pull vs push mode. [`IterationTrace`] records both.

use crate::counters::Counters;

/// Direction-aware propagation mode used by an iteration (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Pull: every destination vertex gathers from its incoming neighbors.
    Pull,
    /// Push: active source vertices scatter along their outgoing edges.
    Push,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Pull => write!(f, "pull"),
            Mode::Push => write!(f, "push"),
        }
    }
}

/// One iteration's worth of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration number, starting at 1 to match the paper's plots.
    pub iteration: u32,
    /// Propagation mode the engine chose for this iteration.
    pub mode: Mode,
    /// Number of active vertices at the start of the iteration.
    pub active_vertices: usize,
    /// Work counters accumulated during the iteration.
    pub counters: Counters,
    /// Wall-clock seconds spent in the iteration.
    pub seconds: f64,
}

/// A full run's sequence of [`IterationRecord`]s.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IterationTrace {
    records: Vec<IterationRecord>,
}

impl IterationTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one iteration's record.
    pub fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// All records in iteration order.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Number of iterations recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The Figure 9 series: `(iteration, edge_computations)` pairs.
    pub fn computations_per_iteration(&self) -> Vec<(u32, u64)> {
        self.records
            .iter()
            .map(|r| (r.iteration, r.counters.edge_computations))
            .collect()
    }

    /// Total counters across all iterations.
    pub fn total(&self) -> Counters {
        self.records
            .iter()
            .fold(Counters::zero(), |acc, r| acc + r.counters)
    }

    /// Seconds spent in each mode, as `(pull_seconds, push_seconds)` (Figure 4).
    pub fn mode_seconds(&self) -> (f64, f64) {
        let mut pull = 0.0;
        let mut push = 0.0;
        for r in &self.records {
            match r.mode {
                Mode::Pull => pull += r.seconds,
                Mode::Push => push += r.seconds,
            }
        }
        (pull, push)
    }

    /// Edge computations spent in each mode, as `(pull, push)` — the counted-unit
    /// version of Figure 4, robust to timer resolution on fast proxy graphs.
    pub fn mode_computations(&self) -> (u64, u64) {
        let mut pull = 0;
        let mut push = 0;
        for r in &self.records {
            match r.mode {
                Mode::Pull => pull += r.counters.edge_computations,
                Mode::Push => push += r.counters.edge_computations,
            }
        }
        (pull, push)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(iter: u32, mode: Mode, comps: u64, secs: f64) -> IterationRecord {
        IterationRecord {
            iteration: iter,
            mode,
            active_vertices: 10,
            counters: Counters {
                edge_computations: comps,
                vertex_updates: comps / 2,
                ..Counters::zero()
            },
            seconds: secs,
        }
    }

    #[test]
    fn computations_series_follows_insert_order() {
        let mut t = IterationTrace::new();
        t.push(record(1, Mode::Push, 5, 0.1));
        t.push(record(2, Mode::Pull, 50, 0.5));
        t.push(record(3, Mode::Pull, 20, 0.2));
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.computations_per_iteration(),
            vec![(1, 5), (2, 50), (3, 20)]
        );
    }

    #[test]
    fn totals_sum_all_iterations() {
        let mut t = IterationTrace::new();
        t.push(record(1, Mode::Pull, 10, 0.0));
        t.push(record(2, Mode::Pull, 30, 0.0));
        let total = t.total();
        assert_eq!(total.edge_computations, 40);
        assert_eq!(total.vertex_updates, 20);
    }

    #[test]
    fn mode_breakdown_matches_figure4_semantics() {
        let mut t = IterationTrace::new();
        t.push(record(1, Mode::Push, 10, 1.0));
        t.push(record(2, Mode::Pull, 90, 8.0));
        t.push(record(3, Mode::Pull, 0, 1.0));
        let (pull_s, push_s) = t.mode_seconds();
        assert!((pull_s - 9.0).abs() < 1e-9);
        assert!((push_s - 1.0).abs() < 1e-9);
        assert_eq!(t.mode_computations(), (90, 10));
    }

    #[test]
    fn empty_trace_totals_zero() {
        let t = IterationTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.total(), Counters::zero());
    }

    #[test]
    fn mode_display_strings() {
        assert_eq!(Mode::Pull.to_string(), "pull");
        assert_eq!(Mode::Push.to_string(), "push");
    }
}
