//! # slfe-baselines
//!
//! Behaviour-faithful re-implementations of the systems the paper compares against.
//! None of these apply redundancy reduction; they differ in processing model,
//! partitioning and communication behaviour:
//!
//! * [`gemini`] — computation-centric push/pull engine with chunking partitioning
//!   and an active list; equivalent to SLFE with redundancy reduction disabled
//!   (which is precisely how the paper positions SLFE relative to Gemini).
//! * [`powergraph`] — synchronous Gather-Apply-Scatter over a hash (random)
//!   vertex placement: every processed vertex gathers over **all** incoming edges
//!   and scatters over **all** outgoing edges, with replica-synchronisation
//!   messages for every remote edge.
//! * [`powerlyra`] — PowerGraph's hybrid-cut variant: only high-degree vertices pay
//!   the full replica-synchronisation cost, low-degree vertices behave like
//!   edge-cut locality, so it sits between PowerGraph and Gemini.
//! * [`ligra`] — single-node shared-memory frontier engine (direction optimizing),
//!   i.e. Gemini's model confined to one node.
//! * [`graphchi`] — single-node out-of-core engine: every iteration streams every
//!   shard's edges from simulated disk, so its runtime is dominated by I/O.
//!
//! All engines execute the same [`slfe_core::GraphProgram`] applications and return
//! the same [`slfe_core::ProgramResult`] shape, so the harness can compare counted
//! work, messages and simulated runtime directly.

pub mod gas;
pub mod gemini;
pub mod graphchi;
pub mod ligra;
pub mod powergraph;
pub mod powerlyra;

pub use gas::{GasConfig, GasEngine};
pub use gemini::GeminiEngine;
pub use graphchi::GraphChiEngine;
pub use ligra::LigraEngine;
pub use powergraph::PowerGraphEngine;
pub use powerlyra::PowerLyraEngine;

use slfe_core::{GraphProgram, ProgramResult};

/// Which baseline system a run models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Gemini (OSDI'16): computation-centric push/pull, chunking partitions.
    Gemini,
    /// PowerGraph (OSDI'12): GAS over random vertex placement.
    PowerGraph,
    /// PowerLyra (EuroSys'15): hybrid-cut GAS.
    PowerLyra,
    /// Ligra (PPoPP'13): shared-memory frontier engine.
    Ligra,
    /// GraphChi (OSDI'12): out-of-core single-machine engine.
    GraphChi,
}

impl BaselineKind {
    /// All baselines, in the order the paper's Table 5 / §4 discuss them.
    pub const ALL: [BaselineKind; 5] = [
        BaselineKind::Gemini,
        BaselineKind::PowerGraph,
        BaselineKind::PowerLyra,
        BaselineKind::Ligra,
        BaselineKind::GraphChi,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::Gemini => "gemini",
            BaselineKind::PowerGraph => "powergraph",
            BaselineKind::PowerLyra => "powerlyra",
            BaselineKind::Ligra => "ligra",
            BaselineKind::GraphChi => "graphchi",
        }
    }
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Common interface implemented by every baseline engine.
pub trait BaselineEngine {
    /// Which system this engine models.
    fn kind(&self) -> BaselineKind;

    /// Execute `program` and return its values plus execution statistics.
    fn run<P: GraphProgram>(&self, program: &P) -> ProgramResult<P::Value>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_unique_names() {
        let mut names: Vec<&str> = BaselineKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(BaselineKind::PowerLyra.to_string(), "powerlyra");
    }
}
