//! A configurable synchronous Gather-Apply-Scatter executor.
//!
//! PowerGraph, PowerLyra and GraphChi all process vertices with the same skeleton —
//! gather over all incoming edges, apply, scatter activation over outgoing edges —
//! and differ only in partitioning, which vertices they process each iteration, how
//! much replica-synchronisation traffic they generate and whether an I/O cost is
//! charged per iteration. [`GasEngine`] captures that skeleton; the per-system
//! modules configure it.

use slfe_cluster::{Cluster, ClusterConfig};
use slfe_core::{AggregationKind, GraphProgram, ProgramResult};
use slfe_graph::{Bitset, Degrees, Graph, VertexId};
use slfe_metrics::{
    Counters, ExecutionStats, IterationRecord, IterationTrace, Mode, PhaseBreakdown,
};
use slfe_partition::{ChunkingPartitioner, HashPartitioner, Partitioner};

/// Bytes carried by one replica-synchronisation / update message.
const UPDATE_MESSAGE_BYTES: u64 = 8;

/// How the executor charges communication for an edge whose endpoints live on
/// different nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationModel {
    /// Charge every remote gather edge and every remote scatter edge (PowerGraph's
    /// vertex-cut replica synchronisation on both phases).
    GatherAndScatter,
    /// Charge remote gather edges only for vertices whose in-degree exceeds the
    /// hybrid-cut threshold, plus every remote scatter edge (PowerLyra).
    HybridCut {
        /// In-degree above which a vertex is treated as "high degree".
        high_degree_threshold: usize,
    },
    /// Never charge messages (single-machine systems).
    None,
}

/// Which vertex placement strategy the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Gemini-style contiguous chunking.
    Chunking,
    /// Random (hash) placement, as PowerGraph/PowerLyra ingress does by default.
    Hash,
}

/// Static configuration of a GAS-style baseline.
#[derive(Debug, Clone)]
pub struct GasConfig {
    /// Engine name recorded in [`ExecutionStats`].
    pub name: &'static str,
    /// Vertex placement strategy.
    pub placement: Placement,
    /// Communication model.
    pub replication: ReplicationModel,
    /// If `true`, min/max programs only process vertices activated by a neighbour's
    /// change (frontier semantics); if `false`, every vertex is processed every
    /// iteration (GraphChi's streaming model). Arithmetic programs always process
    /// every vertex.
    pub frontier: bool,
    /// Fixed per-processed-vertex overhead in counted work units (replica
    /// activation, apply barriers, ...).
    pub per_vertex_overhead: u64,
    /// Simulated I/O seconds charged per iteration per edge byte streamed from disk
    /// (GraphChi); zero for in-memory systems.
    pub io_seconds_per_edge: f64,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Convergence tolerance for arithmetic programs.
    pub tolerance: f64,
    /// Simulated seconds per counted work unit (kept identical to the SLFE engine's
    /// default so runtimes are comparable).
    pub seconds_per_work_unit: f64,
}

impl GasConfig {
    /// Shared defaults; per-system modules override the distinguishing fields.
    pub fn base(name: &'static str) -> Self {
        Self {
            name,
            placement: Placement::Hash,
            replication: ReplicationModel::GatherAndScatter,
            frontier: true,
            per_vertex_overhead: 4,
            io_seconds_per_edge: 0.0,
            max_iterations: 200,
            tolerance: 1.0e-7,
            seconds_per_work_unit: 5.0e-9,
        }
    }
}

/// The configurable GAS executor.
#[derive(Debug)]
pub struct GasEngine<'g> {
    graph: &'g Graph,
    cluster: Cluster,
    config: GasConfig,
    degrees: Degrees,
}

impl<'g> GasEngine<'g> {
    /// Build a GAS engine over `graph` with `num_nodes` nodes and `workers_per_node`
    /// workers.
    pub fn build(graph: &'g Graph, cluster_config: ClusterConfig, config: GasConfig) -> Self {
        let partitioning = match config.placement {
            Placement::Chunking => {
                ChunkingPartitioner::default().partition(graph, cluster_config.num_nodes)
            }
            Placement::Hash => HashPartitioner::new().partition(graph, cluster_config.num_nodes),
        };
        let cluster = Cluster::with_partitioning(partitioning, cluster_config);
        Self {
            graph,
            cluster,
            config,
            degrees: Degrees::of(graph),
        }
    }

    /// The underlying cluster (for communication statistics).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The engine configuration.
    pub fn config(&self) -> &GasConfig {
        &self.config
    }

    /// Execute `program` to convergence or the iteration cap.
    pub fn run<P: GraphProgram>(&self, program: &P) -> ProgramResult<P::Value> {
        self.cluster.reset_run_state();
        let graph = self.graph;
        let n = graph.num_vertices();
        let arithmetic = program.aggregation() == AggregationKind::Arithmetic;
        let process_everyone = arithmetic || !self.config.frontier;

        let mut values: Vec<P::Value> = graph
            .vertices()
            .map(|v| program.initial_value(v, &self.degrees))
            .collect();
        let mut active =
            Bitset::from_fn(n, |v| program.initial_active(v as VertexId, &self.degrees));
        let mut active_count = active.count_ones();
        let mut last_changed_iter = vec![0u32; n];

        // Buffers hoisted out of the iteration loop and reused.
        let mut prev_values = values.clone();
        let mut next_active = Bitset::new(n);

        let num_nodes = self.cluster.num_nodes();
        let workers = self.cluster.config().workers_per_node;
        let mut per_node_worker_work = vec![vec![0u64; workers]; num_nodes];

        let mut trace = IterationTrace::new();
        let mut totals = Counters::zero();
        let mut simulated_exec_seconds = 0.0f64;
        let mut converged = false;
        let mut iterations_run = 0u32;

        for iter in 1..=self.config.max_iterations {
            if !process_everyone && active_count == 0 {
                converged = true;
                break;
            }
            iterations_run = iter;
            prev_values.copy_from_slice(&values);
            next_active.clear();
            let comm_before = self.cluster.comm_stats();
            let mut iter_counters = Counters::zero();
            let mut changed_this_iter = 0usize;
            let mut iteration_makespan = 0u64;

            for node in self.cluster.nodes() {
                let owned = self.cluster.vertices_of(node);
                let scheduler = self.cluster.node_scheduler();
                let num_chunks = scheduler.num_chunks(owned.len());
                let mut chunk_costs = vec![0u64; num_chunks];

                for (chunk, chunk_cost) in chunk_costs.iter_mut().enumerate() {
                    let mut chunk_work = 0u64;
                    for idx in scheduler.chunk_range(chunk, owned.len()) {
                        let v = owned[idx];
                        if !process_everyone && !active.get(v as usize) {
                            continue;
                        }
                        chunk_work += self.process_vertex(
                            program,
                            v,
                            iter,
                            arithmetic,
                            &prev_values,
                            &mut values,
                            &mut next_active,
                            &mut changed_this_iter,
                            &mut last_changed_iter,
                            &mut iter_counters,
                        );
                    }
                    *chunk_cost = chunk_work;
                }

                let outcome = scheduler.simulate(
                    owned.len(),
                    slfe_cluster::SchedulingPolicy::WorkStealing,
                    |c| chunk_costs[c],
                );
                for (w, load) in per_node_worker_work[node]
                    .iter_mut()
                    .zip(&outcome.per_worker_work)
                {
                    *w += load;
                }
                self.cluster.record_node_work(node, outcome.total_work);
                iteration_makespan = iteration_makespan.max(outcome.makespan());
            }

            let comm_after = self.cluster.comm_stats();
            iter_counters.messages_sent = comm_after.messages - comm_before.messages;
            iter_counters.bytes_sent = comm_after.bytes - comm_before.bytes;

            let comm_seconds = self
                .cluster
                .config()
                .comm_cost
                .seconds(iter_counters.messages_sent, iter_counters.bytes_sent);
            let io_seconds = self.config.io_seconds_per_edge
                * (graph.num_edges() as f64)
                * UPDATE_MESSAGE_BYTES as f64;
            let compute_seconds = iteration_makespan as f64 * self.config.seconds_per_work_unit;
            simulated_exec_seconds += compute_seconds + comm_seconds + io_seconds;

            totals += iter_counters;
            trace.push(IterationRecord {
                iteration: iter,
                // GAS gathers along incoming edges, which maps onto the pull mode in
                // the breakdown reports.
                mode: Mode::Pull,
                active_vertices: active_count,
                counters: iter_counters,
                seconds: compute_seconds + comm_seconds + io_seconds,
            });

            std::mem::swap(&mut active, &mut next_active);
            active_count = active.count_ones();

            // Engines that process every vertex every iteration (arithmetic apps,
            // and GraphChi's streaming model even for min/max apps) reach their
            // fixpoint when an iteration changes nothing.
            if process_everyone && changed_this_iter == 0 {
                converged = true;
                break;
            }
        }
        if !process_everyone && active_count == 0 {
            converged = true;
        }

        let mut stats = ExecutionStats::new(self.config.name, program.name());
        stats.num_vertices = n;
        stats.num_edges = graph.num_edges();
        stats.num_nodes = num_nodes;
        stats.workers_per_node = workers;
        stats.iterations = iterations_run;
        stats.totals = totals;
        stats.phases = PhaseBreakdown {
            preprocessing_seconds: 0.0,
            execution_seconds: simulated_exec_seconds,
        };
        stats.trace = trace;
        stats.per_node_work = self.cluster.per_node_work();

        ProgramResult {
            values,
            stats,
            last_changed_iter,
            per_node_worker_work,
            converged,
            // A baseline's fixpoint vouches for nothing about the SLFE
            // engine's own pulls: a warm restart from it re-pulls everything.
            exact_fixpoint: false,
            changed: None,
        }
    }

    /// Gather-apply-scatter for one vertex; returns counted work.
    #[allow(clippy::too_many_arguments)]
    fn process_vertex<P: GraphProgram>(
        &self,
        program: &P,
        v: VertexId,
        iter: u32,
        arithmetic: bool,
        prev_values: &[P::Value],
        values: &mut [P::Value],
        next_active: &mut Bitset,
        changed_this_iter: &mut usize,
        last_changed_iter: &mut [u32],
        counters: &mut Counters,
    ) -> u64 {
        let idx = v as usize;
        let mut work = self.config.per_vertex_overhead;
        let owner = self.cluster.owner_of(v);
        let high_degree = match self.config.replication {
            ReplicationModel::HybridCut {
                high_degree_threshold,
            } => self.graph.in_degree(v) > high_degree_threshold,
            _ => false,
        };

        // Gather. Replica partial sums are aggregated per remote node before being
        // shipped (consecutive-owner de-duplication); with random (hash) placement
        // neighbouring sources rarely share an owner, so vertex-cut engines still
        // pay close to one message per remote in-edge — the replication-factor
        // penalty the hybrid cut was designed to reduce.
        let mut gathered = program.identity();
        let mut has_contribution = false;
        let mut last_remote_owner = usize::MAX;
        for (src, weight) in self.graph.in_edges(v) {
            work += 1;
            counters.edge_computations += 1;
            if let Some(c) = program.edge_contribution(src, prev_values[src as usize], weight) {
                gathered = program.combine(gathered, c);
                has_contribution = true;
            }
            let src_owner = self.cluster.owner_of(src);
            let remote = src_owner != owner && src_owner != last_remote_owner;
            let charge = match self.config.replication {
                ReplicationModel::GatherAndScatter => remote,
                ReplicationModel::HybridCut { .. } => remote && high_degree,
                ReplicationModel::None => false,
            };
            if charge {
                self.cluster
                    .record_update_message(src, v, UPDATE_MESSAGE_BYTES);
                last_remote_owner = src_owner;
            }
        }

        // Apply.
        let old = values[idx];
        let mut new = if has_contribution || arithmetic {
            program.apply(v, old, gathered)
        } else {
            old
        };
        if arithmetic {
            new = program.vertex_update(v, new, &self.degrees);
            work += 1;
        }
        let changed = program.changed(old, new, self.config.tolerance);
        if changed {
            values[idx] = new;
            counters.vertex_updates += 1;
            work += 1;
            last_changed_iter[idx] = iter;
            *changed_this_iter += 1;
        }

        // Scatter: activate out-neighbours (and synchronise their replicas) whenever
        // the vertex changed. This is the phase Gemini's push mode avoids for stable
        // vertices and SLFE removes altogether for redundant updates. The first
        // iteration always scatters so that initially-active seeds (e.g. the SSSP
        // root, whose apply does not change its own value) still activate their
        // neighbourhood.
        if changed || iter == 1 {
            for &dst in self.graph.out_neighbors(v) {
                work += 1;
                counters.edge_computations += 1;
                next_active.set(dst as usize);
                let remote = self.cluster.owner_of(dst) != owner;
                if remote && self.config.replication != ReplicationModel::None {
                    self.cluster
                        .record_update_message(v, dst, UPDATE_MESSAGE_BYTES);
                }
            }
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_core::{EngineConfig, SlfeEngine};
    use slfe_graph::generators;

    struct Sssp {
        root: VertexId,
    }
    impl GraphProgram for Sssp {
        type Value = f32;
        fn aggregation(&self) -> AggregationKind {
            AggregationKind::MinMax
        }
        fn name(&self) -> &'static str {
            "sssp"
        }
        fn initial_value(&self, v: VertexId, _d: &Degrees) -> f32 {
            if v == self.root {
                0.0
            } else {
                f32::INFINITY
            }
        }
        fn initial_active(&self, v: VertexId, _d: &Degrees) -> bool {
            v == self.root
        }
        fn identity(&self) -> f32 {
            f32::INFINITY
        }
        fn edge_contribution(&self, _s: VertexId, sv: f32, w: f32) -> Option<f32> {
            sv.is_finite().then_some(sv + w)
        }
        fn combine(&self, a: f32, b: f32) -> f32 {
            a.min(b)
        }
        fn apply(&self, _d: VertexId, old: f32, g: f32) -> f32 {
            old.min(g)
        }
    }

    #[test]
    fn gas_sssp_matches_slfe_values() {
        let g = generators::rmat(300, 2100, 0.57, 0.19, 0.19, 31);
        let program = Sssp { root: 0 };
        let gas = GasEngine::build(&g, ClusterConfig::new(4, 2), GasConfig::base("powergraph"));
        let slfe = SlfeEngine::build(&g, ClusterConfig::new(4, 2), EngineConfig::without_rr());
        let a = gas.run(&program);
        let b = slfe.run(&program);
        for v in 0..g.num_vertices() {
            let (x, y) = (a.values[v], b.values[v]);
            assert!((x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-4);
        }
        assert!(a.converged);
    }

    #[test]
    fn gas_charges_more_messages_than_an_edge_cut_engine() {
        let g = generators::rmat(400, 3200, 0.57, 0.19, 0.19, 7);
        let program = Sssp { root: 0 };
        let gas = GasEngine::build(&g, ClusterConfig::new(8, 2), GasConfig::base("powergraph"));
        let slfe = SlfeEngine::build(&g, ClusterConfig::new(8, 2), EngineConfig::without_rr());
        let a = gas.run(&program);
        let b = slfe.run(&program);
        assert!(
            a.stats.totals.messages_sent > b.stats.totals.messages_sent / 2,
            "GAS should generate substantial replica traffic"
        );
    }

    #[test]
    fn hybrid_cut_sends_fewer_messages_than_full_replication() {
        let g = generators::rmat(400, 3200, 0.57, 0.19, 0.19, 13);
        let program = Sssp { root: 0 };
        let full = GasEngine::build(&g, ClusterConfig::new(8, 2), GasConfig::base("powergraph"));
        let hybrid_config = GasConfig {
            replication: ReplicationModel::HybridCut {
                high_degree_threshold: 16,
            },
            ..GasConfig::base("powerlyra")
        };
        let hybrid = GasEngine::build(&g, ClusterConfig::new(8, 2), hybrid_config);
        let a = full.run(&program);
        let b = hybrid.run(&program);
        assert!(b.stats.totals.messages_sent <= a.stats.totals.messages_sent);
    }

    #[test]
    fn io_cost_inflates_execution_time() {
        let g = generators::rmat(200, 1200, 0.57, 0.19, 0.19, 3);
        let program = Sssp { root: 0 };
        let in_memory = GasEngine::build(&g, ClusterConfig::single_node(), GasConfig::base("x"));
        let mut io_config = GasConfig::base("graphchi");
        io_config.io_seconds_per_edge = 1.0e-6;
        io_config.replication = ReplicationModel::None;
        let out_of_core = GasEngine::build(&g, ClusterConfig::single_node(), io_config);
        let a = in_memory.run(&program);
        let b = out_of_core.run(&program);
        assert!(b.stats.phases.execution_seconds > a.stats.phases.execution_seconds);
    }
}
