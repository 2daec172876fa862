//! Ligra-style baseline: shared-memory, direction-optimizing frontier engine.
//!
//! Ligra runs on a single machine and switches between sparse (push) and dense
//! (pull) frontier traversal — the same direction optimisation Gemini adopted — but
//! performs no redundancy reduction. It is modelled as the SLFE engine without RR,
//! confined to a single node with all workers, which is how the paper frames the
//! single-machine comparison of Figure 6.

use crate::{BaselineEngine, BaselineKind};
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::Graph;

/// The Ligra-like engine.
#[derive(Debug)]
pub struct LigraEngine {
    inner: SlfeEngine,
}

impl LigraEngine {
    /// Build a Ligra-like engine with `workers` shared-memory threads.
    pub fn build(graph: &Graph, workers: usize) -> Self {
        let cluster = ClusterConfig::new(1, workers.max(1));
        Self {
            inner: SlfeEngine::build(graph, cluster, EngineConfig::without_rr()),
        }
    }

    /// Access the wrapped engine.
    pub fn engine(&self) -> &SlfeEngine {
        &self.inner
    }
}

impl BaselineEngine for LigraEngine {
    fn kind(&self) -> BaselineKind {
        BaselineKind::Ligra
    }

    fn run<P: GraphProgram>(&self, program: &P) -> ProgramResult<P::Value> {
        let mut result = self.inner.run(program);
        result.stats.engine = self.kind().name().to_string();
        result.stats.phases.preprocessing_seconds = 0.0;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_apps::cc;
    use slfe_graph::datasets::Dataset;

    #[test]
    fn runs_on_a_single_node_and_sends_no_messages() {
        let g = cc::symmetrize(&Dataset::Pokec.load_scaled(64_000));
        let engine = LigraEngine::build(&g, 4);
        let result = engine.run(&cc::CcProgram::for_graph(&g));
        assert_eq!(result.stats.num_nodes, 1);
        assert_eq!(result.stats.totals.messages_sent, 0);
        assert_eq!(result.stats.engine, "ligra");
        assert_eq!(result.values, cc::reference(&g));
    }

    #[test]
    fn agrees_with_slfe_and_stays_in_the_same_work_envelope() {
        // On laptop-scale proxies the CC diameter is tiny, so the redundancy that
        // "start late" removes is small; the check here is that Ligra (no RR)
        // produces identical labels and does not do *less* work than SLFE by more
        // than a small margin (the RR flush/extra-iteration overhead bound).
        let g = cc::symmetrize(&Dataset::LiveJournal.load_scaled(96_000));
        let ligra = LigraEngine::build(&g, 4);
        let slfe = SlfeEngine::build(&g, ClusterConfig::new(1, 4), EngineConfig::default());
        let a = ligra.run(&cc::CcProgram::default());
        let b = slfe.run(&cc::CcProgram::default());
        assert_eq!(a.values, b.values);
        assert!(
            (b.stats.totals.work() as f64) < 1.5 * a.stats.totals.work() as f64,
            "SLFE work {} should stay within 1.5x of Ligra work {}",
            b.stats.totals.work(),
            a.stats.totals.work()
        );
    }
}
