//! Intra- and inter-node load imbalance measures (Figure 10).
//!
//! The paper quantifies imbalance two ways:
//!
//! * **intra-node** (Figure 10a): how much faster a node finishes with work stealing
//!   than without — here expressed as normalised runtime, stealing vs no stealing.
//! * **inter-node** (Figure 10b): the relative time difference between the earliest
//!   and latest finishing node.
//!
//! Both are computed from per-worker or per-node *busy work* in counted units.
//! Per-node work and static-block schedules are deterministic; under real work
//! stealing with more than one worker the per-worker split varies run to run
//! (the chunk-to-worker assignment is a race by design), so worker-level
//! imbalance figures are observations of one execution, not reproducible
//! constants.

/// Per-worker (or per-node) busy work/time observations for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusyTimes {
    values: Vec<f64>,
}

impl BusyTimes {
    /// Wrap a vector of per-unit busy values (counted work or seconds).
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Observed values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The busiest unit's value — the makespan when units run in parallel.
    pub fn makespan(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Relative spread `(max - min) / max` in `[0, 1]`; the paper's inter-node
    /// "time difference between the earliest and latest finished nodes".
    pub fn relative_spread(&self) -> f64 {
        let max = self.makespan();
        if max <= 0.0 {
            return 0.0;
        }
        let min = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        (max - min) / max
    }
}

/// Inter-node spread (Figure 10b metric) from per-node busy work.
pub fn inter_node_spread(per_node_work: &[u64]) -> f64 {
    BusyTimes::new(per_node_work.iter().map(|&w| w as f64).collect()).relative_spread()
}

/// Intra-node "speedup from stealing" (Figure 10a): the ratio of the makespan
/// without stealing to the makespan with stealing. Values above 1.0 mean stealing
/// helped; 1.0 means it was neutral.
pub fn intra_node_speedup(without_stealing: &BusyTimes, with_stealing: &BusyTimes) -> f64 {
    let base = without_stealing.makespan();
    let steal = with_stealing.makespan();
    if steal <= 0.0 {
        1.0
    } else {
        base / steal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_is_the_busiest_value() {
        let b = BusyTimes::new(vec![1.0, 4.0, 3.0]);
        assert_eq!(b.makespan(), 4.0);
    }

    #[test]
    fn relative_spread_matches_paper_definition() {
        let b = BusyTimes::new(vec![8.0, 10.0, 9.0]);
        assert!((b.relative_spread() - 0.2).abs() < 1e-9);
        let balanced = BusyTimes::new(vec![5.0, 5.0]);
        assert_eq!(balanced.relative_spread(), 0.0);
    }

    #[test]
    fn empty_and_zero_inputs_are_neutral() {
        let empty = BusyTimes::new(vec![]);
        assert_eq!(empty.makespan(), 0.0);
        assert_eq!(empty.relative_spread(), 0.0);
        assert_eq!(inter_node_spread(&[]), 0.0);
        assert_eq!(inter_node_spread(&[0, 0]), 0.0);
    }

    #[test]
    fn inter_node_spread_from_work_counts() {
        assert!((inter_node_spread(&[90, 100, 95]) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn stealing_speedup_compares_makespans() {
        let without = BusyTimes::new(vec![10.0, 2.0, 2.0, 2.0]);
        let with = BusyTimes::new(vec![4.0, 4.0, 4.0, 4.0]);
        assert!((intra_node_speedup(&without, &with) - 2.5).abs() < 1e-9);
        // Degenerate: stealing makespan of zero reports neutral.
        assert_eq!(
            intra_node_speedup(&without, &BusyTimes::new(vec![0.0])),
            1.0
        );
    }
}
