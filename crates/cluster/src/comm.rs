//! Communication accounting and the network cost model.
//!
//! Engines never open sockets: every remote vertex update is recorded against a
//! [`CommTracker`] which counts messages and bytes per (source node, destination
//! node) pair. The [`CommCostModel`] then converts those counts into simulated
//! network seconds, which the harness adds to the computation time for experiments
//! that depend on the computation/communication trade-off (Figures 4, 7, 10b).

use std::sync::Mutex;

/// Cost model for inter-node traffic.
///
/// `seconds = messages * per_message_seconds + bytes * per_byte_seconds`
///
/// The defaults approximate the paper's testbed: vertex updates are batched per
/// node pair per iteration, so the effective per-update overhead is tens of
/// nanoseconds (not a full RDMA round trip), and the line rate is 100 Gb/s
/// InfiniBand (≈ 12.5 GB/s → 8e-11 s per byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCostModel {
    /// Fixed cost per message, in seconds.
    pub per_message_seconds: f64,
    /// Cost per payload byte, in seconds.
    pub per_byte_seconds: f64,
}

impl Default for CommCostModel {
    fn default() -> Self {
        Self {
            per_message_seconds: 5.0e-8,
            per_byte_seconds: 8.0e-11,
        }
    }
}

impl CommCostModel {
    /// A zero-cost network (used to isolate computation effects in ablations).
    pub fn free() -> Self {
        Self {
            per_message_seconds: 0.0,
            per_byte_seconds: 0.0,
        }
    }

    /// A deliberately slow network (10 µs per message, ~1 Gb/s), used by the
    /// ablation experiment to show how RR's message reduction matters more on
    /// slower fabrics.
    pub fn slow_ethernet() -> Self {
        Self {
            per_message_seconds: 1.0e-5,
            per_byte_seconds: 8.0e-9,
        }
    }

    /// Simulated seconds for a traffic volume.
    pub fn seconds(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.per_message_seconds + bytes as f64 * self.per_byte_seconds
    }
}

/// Aggregate communication statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommStats {
    /// Total messages that crossed node boundaries.
    pub messages: u64,
    /// Total bytes those messages carried.
    pub bytes: u64,
    /// Messages whose source and destination node were the same (free local
    /// updates; tracked for completeness but not charged by the cost model).
    pub local_updates: u64,
}

/// Per node-pair message tracker shared by all workers of a run.
#[derive(Debug)]
pub struct CommTracker {
    num_nodes: usize,
    /// messages[src * num_nodes + dst], bytes[src * num_nodes + dst]
    inner: Mutex<TrackerInner>,
}

#[derive(Debug, Default)]
struct TrackerInner {
    messages: Vec<u64>,
    bytes: Vec<u64>,
    local_updates: u64,
}

impl CommTracker {
    /// Create a tracker for a cluster of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes >= 1);
        Self {
            num_nodes,
            inner: Mutex::new(TrackerInner {
                messages: vec![0; num_nodes * num_nodes],
                bytes: vec![0; num_nodes * num_nodes],
                local_updates: 0,
            }),
        }
    }

    /// Number of nodes this tracker covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Record an update travelling from `src_node` to `dst_node` with a payload of
    /// `bytes` bytes. Same-node updates are counted separately and carry no cost.
    pub fn record(&self, src_node: usize, dst_node: usize, bytes: u64) {
        assert!(src_node < self.num_nodes && dst_node < self.num_nodes);
        let mut inner = self.inner.lock().unwrap();
        if src_node == dst_node {
            inner.local_updates += 1;
        } else {
            let idx = src_node * self.num_nodes + dst_node;
            inner.messages[idx] += 1;
            inner.bytes[idx] += bytes;
        }
    }

    /// Record `messages` pre-aggregated updates travelling from `src_node` to
    /// `dst_node`, carrying `bytes` payload bytes in total. Used by the parallel
    /// executor to flush per-worker message scratch in one lock acquisition per
    /// node pair instead of one per edge.
    pub fn record_many(&self, src_node: usize, dst_node: usize, messages: u64, bytes: u64) {
        assert!(src_node < self.num_nodes && dst_node < self.num_nodes);
        if messages == 0 && bytes == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if src_node == dst_node {
            inner.local_updates += messages;
        } else {
            let idx = src_node * self.num_nodes + dst_node;
            inner.messages[idx] += messages;
            inner.bytes[idx] += bytes;
        }
    }

    /// Aggregate statistics across all node pairs.
    pub fn stats(&self) -> CommStats {
        let inner = self.inner.lock().unwrap();
        CommStats {
            messages: inner.messages.iter().sum(),
            bytes: inner.bytes.iter().sum(),
            local_updates: inner.local_updates,
        }
    }

    /// Messages sent from `src_node` to `dst_node`.
    pub fn messages_between(&self, src_node: usize, dst_node: usize) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.messages[src_node * self.num_nodes + dst_node]
    }

    /// Total messages *received* by each node — the quantity that skews inter-node
    /// balance in push mode (paper §4.5).
    pub fn per_node_incoming(&self) -> Vec<u64> {
        let inner = self.inner.lock().unwrap();
        let mut incoming = vec![0u64; self.num_nodes];
        for src in 0..self.num_nodes {
            for (dst, total) in incoming.iter_mut().enumerate() {
                *total += inner.messages[src * self.num_nodes + dst];
            }
        }
        incoming
    }

    /// Reset all counts.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.messages.iter_mut().for_each(|m| *m = 0);
        inner.bytes.iter_mut().for_each(|b| *b = 0);
        inner.local_updates = 0;
    }

    /// Simulated seconds for the traffic recorded so far under `model`.
    pub fn simulated_seconds(&self, model: &CommCostModel) -> f64 {
        let stats = self.stats();
        model.seconds(stats.messages, stats.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_sums_message_and_byte_cost() {
        let m = CommCostModel {
            per_message_seconds: 1e-6,
            per_byte_seconds: 1e-9,
        };
        let s = m.seconds(1000, 1_000_000);
        assert!((s - (1e-3 + 1e-3)).abs() < 1e-12);
        assert_eq!(CommCostModel::free().seconds(1_000_000, 1_000_000), 0.0);
    }

    #[test]
    fn slow_network_costs_more_than_default() {
        let fast = CommCostModel::default().seconds(1000, 8000);
        let slow = CommCostModel::slow_ethernet().seconds(1000, 8000);
        assert!(slow > fast);
    }

    #[test]
    fn tracker_separates_local_and_remote() {
        let t = CommTracker::new(2);
        t.record(0, 0, 8);
        t.record(0, 1, 8);
        t.record(1, 0, 16);
        let stats = t.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 24);
        assert_eq!(stats.local_updates, 1);
        assert_eq!(t.messages_between(0, 1), 1);
        assert_eq!(t.messages_between(1, 0), 1);
        assert_eq!(t.messages_between(0, 0), 0);
    }

    #[test]
    fn per_node_incoming_sums_columns() {
        let t = CommTracker::new(3);
        t.record(0, 2, 8);
        t.record(1, 2, 8);
        t.record(2, 0, 8);
        assert_eq!(t.per_node_incoming(), vec![1, 0, 2]);
    }

    #[test]
    fn reset_clears_counts() {
        let t = CommTracker::new(2);
        t.record(0, 1, 100);
        t.reset();
        assert_eq!(t.stats(), CommStats::default());
    }

    #[test]
    fn simulated_seconds_uses_the_model() {
        let t = CommTracker::new(2);
        for _ in 0..10 {
            t.record(0, 1, 8);
        }
        let model = CommCostModel {
            per_message_seconds: 1.0,
            per_byte_seconds: 0.0,
        };
        assert!((t.simulated_seconds(&model) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tracker_is_thread_safe() {
        use std::sync::Arc;
        let t = Arc::new(CommTracker::new(4));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        t.record(i, (i + 1) % 4, 8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.stats().messages, 2000);
    }

    #[test]
    #[should_panic]
    fn out_of_range_node_panics() {
        let t = CommTracker::new(2);
        t.record(0, 5, 8);
    }
}
