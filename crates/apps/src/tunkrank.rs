//! TunkRank: follower-influence ranking for social graphs.
//!
//! TunkRank models the expected number of people who read a message posted by `v`:
//! an edge `u -> v` means "u follows v", and
//!
//! ```text
//! TR(v) = Σ_{u ∈ followers(v)} (1 + p · TR(u)) / following(u)
//! ```
//!
//! where `following(u)` is `u`'s out-degree and `p` is the retweet probability.
//! Like PageRank, the stored property is the *outgoing share*
//! `(1 + p·TR(u)) / following(u)` so that an edge contribution is just the source's
//! stored value; `vertex_update` rebuilds the share from the gathered influence.

use slfe_core::{AggregationKind, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::{Degrees, EdgeWeight, Graph, VertexId};

/// Default retweet probability.
pub const DEFAULT_RETWEET_PROBABILITY: f32 = 0.5;

/// TunkRank as a [`GraphProgram`].
#[derive(Debug, Clone, Copy)]
pub struct TunkRankProgram {
    /// Probability that a follower re-shares a message.
    pub retweet_probability: f32,
}

impl Default for TunkRankProgram {
    fn default() -> Self {
        Self {
            retweet_probability: DEFAULT_RETWEET_PROBABILITY,
        }
    }
}

impl GraphProgram for TunkRankProgram {
    type Value = f32;

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::Arithmetic
    }

    fn name(&self) -> &'static str {
        "tunkrank"
    }

    fn initial_value(&self, v: VertexId, degrees: &Degrees) -> f32 {
        // Influence starts at zero, so the initial share is 1 / following(v).
        let out = degrees.out_degree(v);
        if out > 0 {
            1.0 / out as f32
        } else {
            1.0
        }
    }

    fn initial_active(&self, _v: VertexId, _degrees: &Degrees) -> bool {
        true
    }

    fn identity(&self) -> f32 {
        0.0
    }

    fn edge_contribution(
        &self,
        _src: VertexId,
        src_value: f32,
        _weight: EdgeWeight,
    ) -> Option<f32> {
        Some(src_value)
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(&self, _dst: VertexId, _old: f32, gathered: f32) -> f32 {
        gathered
    }

    fn vertex_update(&self, v: VertexId, value: f32, degrees: &Degrees) -> f32 {
        // `value` is the gathered influence TR(v); re-express it as the share this
        // vertex sends to everyone it follows.
        let share_numerator = 1.0 + self.retweet_probability * value;
        let out = degrees.out_degree(v);
        if out > 0 {
            share_numerator / out as f32
        } else {
            share_numerator
        }
    }

    fn changed(&self, old: f32, new: f32, tolerance: f64) -> bool {
        (old - new).abs() as f64 > tolerance
    }
}

/// Run TunkRank with the default retweet probability; the result's `values` are
/// shares (use [`influence`] to convert back to TunkRank scores).
pub fn run(engine: &SlfeEngine) -> ProgramResult<f32> {
    engine.run(&TunkRankProgram::default())
}

/// Convert stored shares back to influence scores:
/// `TR(v) = share(v) * following(v) - 1) / p` (with the out-degree-0 special case).
pub fn influence(graph: &Graph, shares: &[f32], retweet_probability: f32) -> Vec<f32> {
    graph
        .vertices()
        .map(|v| {
            let out = graph.out_degree(v);
            let numerator = if out > 0 {
                shares[v as usize] * out as f32
            } else {
                shares[v as usize]
            };
            (numerator - 1.0) / retweet_probability
        })
        .collect()
}

/// Sequential fixed-point reference for TunkRank influence scores.
pub fn reference(graph: &Graph, retweet_probability: f32, iterations: u32) -> Vec<f32> {
    let n = graph.num_vertices();
    let mut tr = vec![0.0f32; n];
    for _ in 0..iterations {
        let mut next = vec![0.0f32; n];
        for v in graph.vertices() {
            // v's followers are its in-neighbors (u -> v means "u follows v").
            let mut sum = 0.0f32;
            for &u in graph.in_neighbors(v) {
                let following = graph.out_degree(u).max(1) as f32;
                sum += (1.0 + retweet_probability * tr[u as usize]) / following;
            }
            next[v as usize] = sum;
        }
        tr = next;
    }
    tr
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_cluster::ClusterConfig;
    use slfe_core::EngineConfig;
    use slfe_graph::{datasets::Dataset, generators, GraphBuilder};

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn matches_fixed_point_reference_on_a_social_proxy() {
        let g = Dataset::STwitter.load_scaled(40_000);
        let expected = reference(&g, DEFAULT_RETWEET_PROBABILITY, 100);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default());
        let result = run(&engine);
        let got = influence(&g, &result.values, DEFAULT_RETWEET_PROBABILITY);
        assert!(
            max_abs_diff(&got, &expected) < 1e-2,
            "TunkRank diverges from reference by {}",
            max_abs_diff(&got, &expected)
        );
    }

    #[test]
    fn account_with_more_followers_is_more_influential() {
        // 1, 2, 3 follow 0; only 4 follows 5. Vertex 0 should out-rank vertex 5.
        let mut b = GraphBuilder::new();
        b.extend_unweighted([(1, 0), (2, 0), (3, 0), (4, 5)]);
        let g = b.build();
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine);
        let tr = influence(&g, &result.values, DEFAULT_RETWEET_PROBABILITY);
        assert!(tr[0] > tr[5]);
        assert!(
            tr[0] >= 2.9,
            "three followers give influence about 3, got {}",
            tr[0]
        );
    }

    #[test]
    fn vertices_with_no_followers_have_zero_influence() {
        let g = generators::path(5);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default());
        let result = run(&engine);
        let tr = influence(&g, &result.values, DEFAULT_RETWEET_PROBABILITY);
        assert!(
            tr[0].abs() < 1e-5,
            "path head has no followers, got {}",
            tr[0]
        );
        assert!(tr[4] > 0.0);
    }

    #[test]
    fn rr_and_non_rr_agree() {
        let g = Dataset::Wiki.load_scaled(128_000);
        let rr = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default());
        let no_rr = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::without_rr());
        let a = influence(&g, &run(&rr).values, DEFAULT_RETWEET_PROBABILITY);
        let b = influence(&g, &run(&no_rr).values, DEFAULT_RETWEET_PROBABILITY);
        assert!(max_abs_diff(&a, &b) < 1e-2);
    }
}
