//! The application-facing programming model (paper Table 3).
//!
//! An application describes *what* happens along an edge and at a vertex; the
//! engine decides *when* it happens (push or pull, which iteration, which vertices
//! to skip under redundancy reduction). The split mirrors the paper's API:
//!
//! | paper                          | this trait                                   |
//! |--------------------------------|----------------------------------------------|
//! | `pushFunc(vsrc, outgoing)`     | [`GraphProgram::edge_contribution`] applied  |
//! |                                | along outgoing edges + [`GraphProgram::apply`] |
//! | `pullFunc(vdst, incoming)`     | the same two hooks applied along incoming edges, folded with [`GraphProgram::combine`] |
//! | `vertexUpdate(vertexFunc)`     | [`GraphProgram::vertex_update`]              |
//! | `edgeProc(..., Ruler)`         | handled by the engine from the RRG           |

use slfe_graph::{Degrees, EdgeWeight, VertexId};

/// The two aggregation families of Table 1. The family decides which
/// redundancy-reduction rule applies (start late vs finish early) and whether the
/// engine may use push mode at all (arithmetic applications always pull, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationKind {
    /// `min()`/`max()` aggregation (SSSP, CC, WidestPath, ...). Optimised by
    /// "start late".
    MinMax,
    /// Arithmetic (`sum`/`product`) aggregation (PageRank, TunkRank, SpMV, ...).
    /// Optimised by "finish early" on early-converged vertices.
    Arithmetic,
}

impl std::fmt::Display for AggregationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregationKind::MinMax => write!(f, "min/max"),
            AggregationKind::Arithmetic => write!(f, "arithmetic"),
        }
    }
}

/// A vertex-centric graph application.
///
/// Implementations must be cheap to call: the engine invokes these hooks once per
/// edge/vertex per iteration, so anything expensive belongs in precomputed state on
/// the program struct itself.
///
/// Per-vertex hooks receive a [`Degrees`] view — compact per-vertex out/in
/// degree counts indexed by **physical** vertex id — instead of the whole
/// in-RAM graph. That is all the structural information the registered
/// applications ever read in a hook (PageRank and TunkRank divide by
/// out-degree), and withholding adjacency keeps hooks compatible with
/// out-of-core execution and physical id remapping: a hook can never observe
/// neighbor-list order.
///
/// **What a hook for vertex `v` may read.** An arithmetic warm restart
/// ([`crate::SlfeEngine::restart`]) skips every vertex none of whose inputs
/// changed since its last pull, so the hooks that compute `v`
/// ([`GraphProgram::edge_contribution`] along `v`'s in-edges,
/// [`GraphProgram::apply`], [`GraphProgram::vertex_update`],
/// [`GraphProgram::changed`]) may read only:
///
/// * `v`'s in-edges and its in-neighbours' values;
/// * `v`'s own value and `Degrees`;
/// * program state that changes only at a batch's endpoints or with |V|
///   (PageRank's `|V|`, Heat's per-source out-degree shares).
///
/// State that moves anywhere else would go unread: the restart never pulls
/// a vertex whose only changed input is such state.
///
/// **How a restart seeds.** A warm restart keeps every vertex's previous
/// value and starts the vertices a batch appended from
/// [`GraphProgram::initial_value`], so its seed costs O(appended). A program
/// whose fixpoint depends on its initial condition declares
/// [`GraphProgram::warm_start_resets`] instead and gets a full reseed.
pub trait GraphProgram: Sync {
    /// The per-vertex property type (distance, component label, rank, ...).
    type Value: Copy + PartialEq + Send + Sync + std::fmt::Debug;

    /// Which aggregation family the program belongs to (Table 1).
    fn aggregation(&self) -> AggregationKind;

    /// Short name used in reports ("sssp", "pagerank", ...).
    fn name(&self) -> &'static str;

    /// Initial property of vertex `v`.
    fn initial_value(&self, v: VertexId, degrees: &Degrees) -> Self::Value;

    /// Whether `v` starts in the active set (e.g. only the SSSP root does).
    fn initial_active(&self, v: VertexId, degrees: &Degrees) -> bool;

    /// Identity element of [`GraphProgram::combine`]: `+inf` for a min fold, `0`
    /// for a sum fold. Pull mode starts each gather from this value.
    fn identity(&self) -> Self::Value;

    /// Contribution of source vertex `src` (currently holding `src_value`) along an
    /// edge with weight `weight`. Returning `None` means the source has nothing to
    /// offer yet (e.g. an unreached SSSP vertex) and the edge is skipped.
    fn edge_contribution(
        &self,
        src: VertexId,
        src_value: Self::Value,
        weight: EdgeWeight,
    ) -> Option<Self::Value>;

    /// Aggregate two contributions (the fold operator: `min`, `max`, `+`, ...).
    fn combine(&self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Merge the gathered contribution into the destination's current value and
    /// return the new value. For monotone min/max programs this is typically
    /// `min(old, gathered)`; for arithmetic programs it usually ignores `old` and
    /// returns `gathered`.
    fn apply(&self, dst: VertexId, old: Self::Value, gathered: Self::Value) -> Self::Value;

    /// Per-vertex post-processing applied after the edge phase of an iteration
    /// (the paper's `vertexUpdate`, e.g. PageRank's damping). Defaults to identity.
    fn vertex_update(&self, _v: VertexId, value: Self::Value, _degrees: &Degrees) -> Self::Value {
        value
    }

    /// Whether the transition `old -> new` counts as a change (drives activation,
    /// convergence detection and the update counters). `tolerance` comes from the
    /// engine configuration; min/max programs normally ignore it.
    fn changed(&self, old: Self::Value, new: Self::Value, _tolerance: f64) -> bool {
        old != new
    }

    /// Min/max programs only: whether an edge contribution is always *strictly
    /// worse* than the source value it was derived from (SSSP's `dist + w` with
    /// positive weights, BFS's `hops + 1`). When `true`, a cycle of vertices
    /// cannot mutually support each other's values — every genuine support
    /// chain strictly improves backwards and must terminate — so the warm-start
    /// invalidation pass ([`crate::SlfeEngine::restart`]) may keep a vertex
    /// whose stored value is still *derivable* from its surviving in-edges.
    /// Programs whose contributions can preserve the value (Connected
    /// Components' label copy, WidestPath's `min(value, capacity)`) must leave
    /// this `false`: two stale vertices can each "derive" their dead value from
    /// the other, and the invalidation pass therefore cascades through every
    /// supported successor instead of pruning at derivable vertices.
    ///
    /// Only return `true` when the property holds for **every** edge the
    /// program will see (a zero-weight edge breaks it for SSSP).
    fn strictly_monotonic(&self) -> bool {
        false
    }

    /// How a warm restart ([`crate::SlfeEngine::restart`]) seeds the values:
    /// `false`, the default, keeps every vertex's previous value and seeds
    /// only the vertices the batch appended, from
    /// [`GraphProgram::initial_value`] on the *mutated* graph, which costs
    /// O(appended). That is correct for
    /// every monotone min/max program and for arithmetic programs whose
    /// per-vertex state self-corrects under re-iteration (PageRank's stored
    /// share is re-divided by the current out-degree on the first
    /// `vertex_update`).
    ///
    /// `true` re-seeds every vertex from its initial value and activates all
    /// of them, an O(|V|) seed with a full first pull. Declare it when the
    /// stored values encode state that re-iteration cannot repair, such as a
    /// fixpoint that depends on the initial condition (Heat).
    fn warm_start_resets(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy min-propagation program used to exercise the trait's default methods.
    struct MinLabel;

    impl GraphProgram for MinLabel {
        type Value = u32;

        fn aggregation(&self) -> AggregationKind {
            AggregationKind::MinMax
        }
        fn name(&self) -> &'static str {
            "min-label"
        }
        fn initial_value(&self, v: VertexId, _degrees: &Degrees) -> u32 {
            v
        }
        fn initial_active(&self, _v: VertexId, _degrees: &Degrees) -> bool {
            true
        }
        fn identity(&self) -> u32 {
            u32::MAX
        }
        fn edge_contribution(&self, _src: VertexId, src_value: u32, _w: EdgeWeight) -> Option<u32> {
            Some(src_value)
        }
        fn combine(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn apply(&self, _dst: VertexId, old: u32, gathered: u32) -> u32 {
            old.min(gathered)
        }
    }

    #[test]
    fn default_vertex_update_is_identity() {
        let d = Degrees::of(&slfe_graph::generators::path(3));
        let p = MinLabel;
        assert_eq!(p.vertex_update(1, 42, &d), 42);
    }

    #[test]
    fn default_warm_start_keeps_the_previous_values() {
        assert!(!MinLabel.warm_start_resets());
    }

    #[test]
    fn default_changed_is_inequality() {
        let p = MinLabel;
        assert!(p.changed(3, 2, 0.0));
        assert!(!p.changed(2, 2, 1.0));
    }

    #[test]
    fn aggregation_kinds_display() {
        assert_eq!(AggregationKind::MinMax.to_string(), "min/max");
        assert_eq!(AggregationKind::Arithmetic.to_string(), "arithmetic");
    }

    #[test]
    fn toy_program_hooks_behave_like_a_min_fold() {
        let p = MinLabel;
        let folded = [5u32, 3, 9]
            .into_iter()
            .fold(p.identity(), |acc, x| p.combine(acc, x));
        assert_eq!(folded, 3);
        assert_eq!(p.apply(0, 2, folded), 2);
        assert_eq!(p.apply(0, 7, folded), 3);
    }
}
