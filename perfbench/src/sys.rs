//! What every workload shares: the engine shape, memory measurement, the
//! seeded edge-update generator and the independent top-k check.

use crate::layers::Layers;
use crate::trace::Tracer;
use slfe_cluster::ClusterConfig;
use slfe_core::GraphProgram;
use slfe_delta::{DeltaServer, UpdateBatch};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{EdgeWeight, Graph, VertexId};
use std::collections::HashSet;
use std::io;
use std::time::Instant;

/// The engine shape of every workload: 2 simulated nodes × nproc/2 workers,
/// so no process runs more busy threads than cores while partitioning,
/// message accounting and layout patching still span two nodes.
pub fn cluster() -> ClusterConfig {
    ClusterConfig::new(2, (hardware_threads() / 2).max(1))
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reset the process's peak resident set to its current size, so that the
/// peak read later covers only what happens from here on.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size (`VmHWM`) of this process since the last reset, MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// One seeded edge update: an upsert with its weight, or a delete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Update {
    /// Source endpoint.
    pub src: VertexId,
    /// Destination endpoint.
    pub dst: VertexId,
    /// `Some(weight)` inserts (or reweights) the edge, `None` deletes it.
    pub weight: Option<EdgeWeight>,
}

/// `count` seeded updates against `graph`: about 80% inserts between random
/// distinct vertices, 20% deletes of edges of the initial graph that no
/// earlier update deleted, so no update is a no-op.
pub fn updates(graph: &Graph, count: usize, rng: &mut SplitMix64) -> Vec<Update> {
    let n = graph.num_vertices() as u32;
    let mut deleted: HashSet<(VertexId, VertexId)> = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let src = rng.range_u32(0, n);
        if rng.next_f64() < 0.8 {
            let dst = rng.range_u32(0, n);
            if dst != src {
                let weight = rng.range_f32(1.0, 10.0);
                out.push(Update {
                    src,
                    dst,
                    weight: Some(weight),
                });
            }
        } else {
            let neighbors = graph.out_neighbors(src);
            if neighbors.is_empty() {
                continue;
            }
            let dst = neighbors[rng.range_usize(0, neighbors.len())];
            if deleted.insert((src, dst)) {
                out.push(Update {
                    src,
                    dst,
                    weight: None,
                });
            }
        }
    }
    out
}

/// `updates` staged as one batch.
pub fn batch(updates: &[Update]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for u in updates {
        match u.weight {
            Some(weight) => batch.insert(u.src, u.dst, weight),
            None => batch.delete(u.src, u.dst),
        };
    }
    batch
}

/// Time the two stages of applying `batch` that have no span of their own,
/// by calling their side-effect-free public functions on the served state:
/// `Graph::apply_batch` on the served graph, then `GlobalChunkLayout::patched`
/// on the served layout, at the nodes owning the dirty endpoints.
pub fn probe_patches<P, F>(
    server: &DeltaServer<P, F>,
    batch: &UpdateBatch,
    op: u32,
    tracer: &mut Tracer,
    layers: &mut Layers,
) where
    P: GraphProgram,
    F: Fn(&Graph) -> P,
{
    let start = Instant::now();
    let (graph, effect) = server.graph().apply_batch(batch);
    let patched = Instant::now();
    let parts = server.partitioning();
    let mut touched = vec![false; parts.num_parts()];
    for &v in &effect.dirty {
        touched[parts.owner_of(v)] = true;
    }
    let owned: Vec<&[VertexId]> = (0..parts.num_parts())
        .map(|node| parts.vertices_of(node))
        .collect();
    let layout_start = Instant::now();
    let layout =
        server
            .layout()
            .patched(&graph, &owned, server.config().cluster.chunk_size, &touched);
    let layout_end = Instant::now();
    drop((graph, layout));
    tracer.call(op, "graph_patch", start, patched);
    tracer.call(op, "layout_patch", layout_start, layout_end);
    layers.graph_patch_ms += (patched - start).as_secs_f64() * 1e3;
    layers.dirty_vertices += effect.dirty.len() as f64;
    layers.layout_patch_ms += (layout_end - layout_start).as_secs_f64() * 1e3;
}

/// The `k` largest values of `values` with their ids, ties broken by id
/// ascending — computed by selection, independently of the program's sort.
pub fn top_k_reference(values: &[f32], k: usize) -> Vec<(VertexId, f32)> {
    let before = |a: &(VertexId, f32), b: &(VertexId, f32)| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .reverse()
            .then(a.0.cmp(&b.0))
            .is_lt()
    };
    let mut best: Vec<(VertexId, f32)> = Vec::with_capacity(k + 1);
    for (v, &x) in values.iter().enumerate() {
        let item = (v as VertexId, x);
        if best.len() == k && !before(&item, &best[k - 1]) {
            continue;
        }
        let at = best
            .iter()
            .position(|b| before(&item, b))
            .unwrap_or(best.len());
        best.insert(at, item);
        best.truncate(k);
    }
    best
}

/// Bit-identical value vectors.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Summed absolute difference between `a` and `reference`, as a share of
/// the summed magnitude of `reference`; infinite when the lengths differ.
pub fn deviation(a: &[f32], reference: &[f32]) -> f64 {
    if a.len() != reference.len() {
        return f64::INFINITY;
    }
    let (diff, mass) = a
        .iter()
        .zip(reference)
        .fold((0.0f64, 0.0f64), |(d, m), (x, y)| {
            (d + f64::from((x - y).abs()), m + f64::from(y.abs()))
        });
    diff / mass.max(f64::MIN_POSITIVE)
}

/// Arithmetic-program agreement within `tolerance` ([`deviation`]).
pub fn close(a: &[f32], reference: &[f32], tolerance: f64) -> bool {
    deviation(a, reference) <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_reference_orders_by_value_then_id() {
        let values = [1.0, 5.0, 3.0, 5.0, f32::INFINITY, 0.0];
        assert_eq!(
            top_k_reference(&values, 3),
            vec![(4, f32::INFINITY), (1, 5.0), (3, 5.0)]
        );
    }

    #[test]
    fn updates_are_seeded_and_delete_only_existing_edges() {
        let g = slfe_graph::generators::rmat(200, 1600, 0.57, 0.19, 0.19, 3);
        let a = updates(&g, 300, &mut SplitMix64::seed_from_u64(9));
        assert_eq!(a, updates(&g, 300, &mut SplitMix64::seed_from_u64(9)));
        assert!(a
            .iter()
            .filter(|u| u.weight.is_none())
            .all(|u| g.has_edge(u.src, u.dst)));
    }
}
