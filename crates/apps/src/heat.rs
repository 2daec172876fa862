//! Heat simulation: mass-conserving diffusion over the graph.
//!
//! Each vertex holds a heat value; every iteration a fraction `alpha` of a vertex's
//! heat is replaced by the average heat flowing in from its in-neighbors, where
//! every source spreads its heat evenly over its out-edges:
//!
//! ```text
//! h'(v) = (1 - alpha) · h(v) + alpha · Σ_{u -> v} h(u) / out_degree(u)
//! ```
//!
//! The per-source normalisation makes the iteration a (sub)stochastic linear map,
//! so the simulation is stable and converges on most graphs; like PageRank it is an
//! arithmetic-aggregation application optimised by "finish early".

use slfe_core::{AggregationKind, GraphProgram, ProgramResult, SlfeEngine};
use slfe_graph::{Degrees, EdgeWeight, Graph, VertexId};

/// Default diffusion coefficient.
pub const DEFAULT_ALPHA: f32 = 0.3;

/// Heat simulation as a [`GraphProgram`].
///
/// The stored vertex property is the pair `(heat, share)` flattened into the heat
/// value itself plus a precomputed per-source normalisation held in the program, so
/// edge contributions stay cheap.
///
/// The normalisation encodes the out-degrees of the graph the program was built
/// for: **re-instantiate the program for every graph version** (as the
/// `slfe-delta` server's program factory does) — running a stale instance on a
/// mutated graph silently uses the old degrees.
#[derive(Debug, Clone)]
pub struct HeatProgram {
    /// Diffusion coefficient in `(0, 1]`.
    pub alpha: f32,
    /// Initial heat per vertex.
    pub initial_heat: Vec<f32>,
    /// Precomputed `1 / out_degree` per vertex (0 for sinks).
    inv_out_degree: Vec<f32>,
}

impl HeatProgram {
    /// Build a heat program over `graph` with explicit initial heat.
    pub fn new(graph: &Graph, alpha: f32, initial_heat: Vec<f32>) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert_eq!(
            initial_heat.len(),
            graph.num_vertices(),
            "initial heat length mismatch"
        );
        let inv_out_degree = graph
            .vertices()
            .map(|v| {
                let d = graph.out_degree(v);
                if d > 0 {
                    1.0 / d as f32
                } else {
                    0.0
                }
            })
            .collect();
        Self {
            alpha,
            initial_heat,
            inv_out_degree,
        }
    }

    /// A single hot vertex (`source`) with heat 1.0, everything else cold.
    pub fn point_source(graph: &Graph, source: VertexId) -> Self {
        let mut heat = vec![0.0; graph.num_vertices()];
        if (source as usize) < heat.len() {
            heat[source as usize] = 1.0;
        }
        Self::new(graph, DEFAULT_ALPHA, heat)
    }
}

impl GraphProgram for HeatProgram {
    type Value = f32;

    fn aggregation(&self) -> AggregationKind {
        AggregationKind::Arithmetic
    }

    fn name(&self) -> &'static str {
        "heat"
    }

    fn initial_value(&self, v: VertexId, _degrees: &Degrees) -> f32 {
        // Vertices appended after the program's heat vector was fixed start cold.
        self.initial_heat.get(v as usize).copied().unwrap_or(0.0)
    }

    fn initial_active(&self, _v: VertexId, _degrees: &Degrees) -> bool {
        true
    }

    fn identity(&self) -> f32 {
        0.0
    }

    fn edge_contribution(&self, src: VertexId, src_value: f32, _weight: EdgeWeight) -> Option<f32> {
        // Appended vertices start cold (heat 0), so a zero share is exact.
        Some(
            src_value
                * self
                    .inv_out_degree
                    .get(src as usize)
                    .copied()
                    .unwrap_or(0.0),
        )
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(&self, _dst: VertexId, old: f32, gathered: f32) -> f32 {
        (1.0 - self.alpha) * old + self.alpha * gathered
    }

    fn changed(&self, old: f32, new: f32, tolerance: f64) -> bool {
        (old - new).abs() as f64 > tolerance
    }

    fn warm_start_resets(&self) -> bool {
        // Heat's limit depends on the *initial condition*, not just the topology:
        // the diffusion map `h' = (1 - alpha) h + alpha Pᵀh` has one fixpoint per
        // initial mass distribution (any h with h = Pᵀh is stationary), so warm
        // starting from the old limit on a mutated graph would converge to a
        // different answer than re-running the simulation. Restart from the
        // initial heat instead — the declaration exists precisely for programs
        // whose stored state cannot be reused across topology changes.
        true
    }
}

/// Run the heat simulation with a point source at `source`.
pub fn run(engine: &SlfeEngine, source: VertexId) -> ProgramResult<f32> {
    let program = HeatProgram::point_source(engine.graph(), source);
    engine.run(&program)
}

/// Sequential reference: `iterations` synchronous diffusion steps.
pub fn reference(graph: &Graph, alpha: f32, initial_heat: &[f32], iterations: u32) -> Vec<f32> {
    let n = graph.num_vertices();
    let mut heat = initial_heat.to_vec();
    for _ in 0..iterations {
        let mut next = vec![0.0f32; n];
        for v in graph.vertices() {
            let incoming: f32 = graph
                .in_neighbors(v)
                .iter()
                .map(|&u| {
                    let d = graph.out_degree(u);
                    if d > 0 {
                        heat[u as usize] / d as f32
                    } else {
                        0.0
                    }
                })
                .sum();
            next[v as usize] = (1.0 - alpha) * heat[v as usize] + alpha * incoming;
        }
        heat = next;
    }
    heat
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_cluster::ClusterConfig;
    use slfe_core::EngineConfig;
    use slfe_graph::{datasets::Dataset, generators};

    #[test]
    fn heat_spreads_downstream_from_the_source() {
        let g = generators::path(5);
        let engine = SlfeEngine::build(&g, ClusterConfig::single_node(), EngineConfig::default());
        let result = run(&engine, 0);
        // After convergence-ish, downstream vertices received some heat.
        assert!(result.values[1] > 0.0);
        assert!(result.values[2] > 0.0);
        // Heat can only flow forward on a path.
        assert_eq!(result.values.len(), 5);
    }

    #[test]
    fn matches_reference_after_the_same_number_of_iterations() {
        // Redundancy reduction is disabled here so every vertex is recomputed each
        // iteration, exactly like the synchronous reference.
        let g = Dataset::LiveJournal.load_scaled(96_000);
        let program = HeatProgram::point_source(&g, 0);
        let engine = SlfeEngine::build(
            &g,
            ClusterConfig::new(4, 2),
            EngineConfig::without_rr()
                .with_tolerance(0.0)
                .with_max_iterations(15),
        );
        let result = engine.run(&program);
        let expected = reference(
            &g,
            DEFAULT_ALPHA,
            &program.initial_heat,
            result.stats.iterations,
        );
        for (a, b) in result.values.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn uniform_heat_on_a_cycle_is_a_fixed_point() {
        let g = generators::cycle(8);
        let program = HeatProgram::new(&g, 0.5, vec![2.0; 8]);
        let engine = SlfeEngine::build(&g, ClusterConfig::new(2, 1), EngineConfig::default());
        let result = engine.run(&program);
        assert!(result.converged);
        assert!(result.values.iter().all(|&h| (h - 2.0).abs() < 1e-6));
        assert!(
            result.stats.iterations <= 2,
            "fixed point should be detected immediately"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn invalid_alpha_panics() {
        let g = generators::path(3);
        let _ = HeatProgram::new(&g, 0.0, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "initial heat length mismatch")]
    fn mismatched_heat_vector_panics() {
        let g = generators::path(3);
        let _ = HeatProgram::new(&g, 0.5, vec![0.0; 2]);
    }

    #[test]
    fn warm_start_restarts_from_the_initial_condition() {
        let g = generators::path(4);
        let program = HeatProgram::point_source(&g, 0);
        let d = Degrees::of(&g);
        // The previous fixpoint is discarded: heat's answer is defined by its
        // initial condition, which a topology change invalidates, so a warm
        // restart re-seeds every vertex from it.
        assert!(program.warm_start_resets());
        assert_eq!(program.initial_value(0, &d), 1.0);
        assert_eq!(program.initial_value(2, &d), 0.0);
        // Vertices beyond the heat vector (appended by a batch) start cold.
        assert_eq!(program.initial_value(9, &d), 0.0);
    }
}
