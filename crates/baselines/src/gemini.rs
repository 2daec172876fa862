//! Gemini-style baseline: computation-centric push/pull with chunking partitions.
//!
//! The paper builds SLFE on Gemini's execution model and attributes its advantage
//! over Gemini purely to redundancy reduction (§4.2, Figure 5). The Gemini baseline
//! is therefore the SLFE engine with redundancy reduction disabled, re-labelled, so
//! the comparison isolates exactly the paper's contribution.

use crate::{BaselineEngine, BaselineKind};
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::Graph;

/// The Gemini-like engine.
#[derive(Debug)]
pub struct GeminiEngine {
    inner: SlfeEngine,
}

impl GeminiEngine {
    /// Build a Gemini-like engine over `graph`.
    pub fn build(graph: &Graph, cluster: ClusterConfig) -> Self {
        Self {
            inner: SlfeEngine::build(graph, cluster, EngineConfig::without_rr()),
        }
    }

    /// Access the wrapped engine (e.g. for its cluster statistics).
    pub fn engine(&self) -> &SlfeEngine {
        &self.inner
    }
}

impl BaselineEngine for GeminiEngine {
    fn kind(&self) -> BaselineKind {
        BaselineKind::Gemini
    }

    fn run<P: GraphProgram>(&self, program: &P) -> ProgramResult<P::Value> {
        let mut result = self.inner.run(program);
        result.stats.engine = self.kind().name().to_string();
        // Gemini has no preprocessing beyond partitioning (which SLFE shares), so no
        // RRG overhead is charged.
        result.stats.phases.preprocessing_seconds = 0.0;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_apps::sssp::SsspProgram;
    use slfe_graph::generators;

    #[test]
    fn reports_itself_as_gemini_with_no_preprocessing_cost() {
        let g = generators::rmat(200, 1400, 0.57, 0.19, 0.19, 2);
        let engine = GeminiEngine::build(&g, ClusterConfig::new(4, 2));
        assert_eq!(engine.kind(), BaselineKind::Gemini);
        let result = engine.run(&SsspProgram { root: 0 });
        assert_eq!(result.stats.engine, "gemini");
        assert_eq!(result.stats.phases.preprocessing_seconds, 0.0);
    }

    #[test]
    fn produces_the_same_distances_as_slfe() {
        let g = generators::rmat(300, 2400, 0.57, 0.19, 0.19, 6);
        let root = slfe_graph::stats::highest_out_degree_vertex(&g).unwrap();
        let gemini = GeminiEngine::build(&g, ClusterConfig::new(4, 2));
        let slfe = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::default());
        let a = gemini.run(&SsspProgram { root });
        let b = slfe.run(&SsspProgram { root });
        for v in 0..g.num_vertices() {
            let (x, y) = (a.values[v], b.values[v]);
            assert!((x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-4);
        }
    }
}
