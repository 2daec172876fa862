//! Old↔new vertex-id bijections ([`IdRemap`]) — the physical-layout layer.
//!
//! A graph's *external* ids are the ones clients speak: stable, dense, only
//! ever growing. Its *physical* ids are whatever order the in-memory CSR/CSC
//! (and the on-disk segments derived from them) happen to store vertices in.
//! The seed layout makes the two coincide; a **remap** renames physical ids —
//! to cluster hubs into few hot segments, or to migrate vertices between
//! partitions — without clients ever noticing, because every API boundary
//! translates through the graph's cumulative [`IdRemap`].
//!
//! The representation is a dense forward permutation (`old → new`) plus its
//! inverse, with an [`IdRemap::Identity`] fast path that costs nothing to
//! store or apply. Ids at or beyond the permutation's length map to
//! themselves, which is what lets a grown graph (batches append vertices)
//! keep its remap unchanged: appended ids are identity by construction.
//!
//! The invariant the rest of the workspace leans on: remapping is
//! **value-transparent**. Adjacency lists stay sorted by the *external* id of
//! the neighbor (a remap renames list entries without reordering them), so
//! every order-sensitive float fold — the pull gathers of arithmetic programs
//! — visits contributions in the same order as the unremapped run and
//! produces bit-identical values.

use crate::types::VertexId;

/// Which physical reorder the layout policy applies within each partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorderPolicy {
    /// Keep the current physical order (no reorder remap is generated).
    #[default]
    None,
    /// Order each partition's vertices by descending out+in degree, ties by
    /// external id ascending — hubs cluster at the front of each partition's
    /// contiguous physical range, so the hot working set spans few segments.
    DegreeDescending,
}

/// A bijection between two vertex-id spaces, `old → new`.
///
/// Composable across versions ([`IdRemap::then`]) and invertible
/// ([`IdRemap::inverted`]); ids `>= len()` map to themselves in both
/// directions, so the bijection covers the whole (growing) id space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum IdRemap {
    /// Every id maps to itself. Costs nothing: no tables, no indirection.
    #[default]
    Identity,
    /// An explicit permutation of `0..forward.len()`.
    Permutation {
        /// `forward[old] = new`.
        forward: Vec<VertexId>,
        /// `inverse[new] = old`; always consistent with `forward`.
        inverse: Vec<VertexId>,
    },
}

impl IdRemap {
    /// The identity remap.
    pub fn identity() -> Self {
        IdRemap::Identity
    }

    /// Build a remap from its forward table (`forward[old] = new`).
    ///
    /// Panics unless `forward` is a permutation of `0..forward.len()`.
    /// An identity table collapses to the [`IdRemap::Identity`] fast path, so
    /// equality and `is_identity` never depend on how a remap was built.
    pub fn from_forward(forward: Vec<VertexId>) -> Self {
        let n = forward.len();
        let mut inverse = vec![VertexId::MAX; n];
        let mut is_identity = true;
        for (old, &new) in forward.iter().enumerate() {
            assert!(
                (new as usize) < n,
                "forward[{old}] = {new} out of range for {n} ids"
            );
            assert!(
                inverse[new as usize] == VertexId::MAX,
                "forward maps both {} and {old} to {new}",
                inverse[new as usize]
            );
            inverse[new as usize] = old as VertexId;
            is_identity &= new as usize == old;
        }
        if is_identity {
            IdRemap::Identity
        } else {
            IdRemap::Permutation { forward, inverse }
        }
    }

    /// `true` for the identity fast path.
    pub fn is_identity(&self) -> bool {
        matches!(self, IdRemap::Identity)
    }

    /// Length of the explicit permutation (0 for identity). Ids at or beyond
    /// this map to themselves.
    pub fn len(&self) -> usize {
        match self {
            IdRemap::Identity => 0,
            IdRemap::Permutation { forward, .. } => forward.len(),
        }
    }

    /// `true` when no id is explicitly mapped (identity).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Map an old id forward to its new id.
    #[inline]
    pub fn to_new(&self, old: VertexId) -> VertexId {
        match self {
            IdRemap::Identity => old,
            IdRemap::Permutation { forward, .. } => {
                forward.get(old as usize).copied().unwrap_or(old)
            }
        }
    }

    /// Map a new id back to its old id.
    #[inline]
    pub fn to_old(&self, new: VertexId) -> VertexId {
        match self {
            IdRemap::Identity => new,
            IdRemap::Permutation { inverse, .. } => {
                inverse.get(new as usize).copied().unwrap_or(new)
            }
        }
    }

    /// The inverse bijection (`new → old`).
    pub fn inverted(&self) -> Self {
        match self {
            IdRemap::Identity => IdRemap::Identity,
            IdRemap::Permutation { forward, inverse } => IdRemap::Permutation {
                forward: inverse.clone(),
                inverse: forward.clone(),
            },
        }
    }

    /// Compose two remaps: apply `self`, then `next`. The result maps
    /// straight from `self`'s old space to `next`'s new space, so a chain of
    /// per-version remaps collapses into one table.
    pub fn then(&self, next: &IdRemap) -> Self {
        if self.is_identity() {
            return next.clone();
        }
        if next.is_identity() {
            return self.clone();
        }
        let n = self.len().max(next.len());
        let forward = (0..n as VertexId)
            .map(|old| next.to_new(self.to_new(old)))
            .collect();
        Self::from_forward(forward)
    }

    /// Permute a per-vertex value array: `new[to_new(i)] = old[i]`. Entries
    /// at or beyond the permutation's length keep their index (identity
    /// tail), so the slice may be longer than the remap.
    pub fn permuted_values<T: Clone>(&self, old: &[T]) -> Vec<T> {
        match self {
            IdRemap::Identity => old.to_vec(),
            IdRemap::Permutation { forward, .. } => {
                let mut new = old.to_vec();
                for (i, &p) in forward.iter().enumerate() {
                    if i < old.len() && (p as usize) < new.len() {
                        new[p as usize] = old[i].clone();
                    }
                }
                new
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// A seeded random permutation of `0..n` (Fisher–Yates over SplitMix64).
    fn random_permutation(n: usize, seed: u64) -> Vec<VertexId> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        for i in (1..n).rev() {
            let j = rng.range_u32(0, i as u32 + 1) as usize;
            perm.swap(i, j);
        }
        perm
    }

    #[test]
    fn identity_round_trips_and_costs_nothing() {
        let id = IdRemap::identity();
        assert!(id.is_identity());
        assert_eq!(id.len(), 0);
        for v in [0u32, 5, 1000, VertexId::MAX - 1] {
            assert_eq!(id.to_new(v), v);
            assert_eq!(id.to_old(v), v);
        }
        assert_eq!(id.inverted(), id);
        assert_eq!(id.then(&id), id);
        let values = vec![1.0f32, 2.0, 3.0];
        assert_eq!(id.permuted_values(&values), values);
    }

    #[test]
    fn identity_table_collapses_to_the_fast_path() {
        let r = IdRemap::from_forward((0..64).collect());
        assert!(r.is_identity());
        assert_eq!(r, IdRemap::Identity);
    }

    #[test]
    fn forward_and_inverse_round_trip() {
        for seed in 0..10u64 {
            let n = 97;
            let r = IdRemap::from_forward(random_permutation(n, seed));
            for v in 0..n as VertexId {
                assert_eq!(r.to_old(r.to_new(v)), v);
                assert_eq!(r.to_new(r.to_old(v)), v);
            }
            // Beyond the permutation both directions are identity.
            assert_eq!(r.to_new(n as VertexId + 7), n as VertexId + 7);
            assert_eq!(r.to_old(n as VertexId + 7), n as VertexId + 7);
            // Inversion swaps the directions.
            let inv = r.inverted();
            for v in 0..n as VertexId {
                assert_eq!(inv.to_new(v), r.to_old(v));
                assert_eq!(inv.to_old(v), r.to_new(v));
            }
            // A permutation composed with its inverse is the identity.
            assert!(r.then(&inv).is_identity());
            assert!(inv.then(&r).is_identity());
        }
    }

    #[test]
    fn composition_across_three_versions_equals_the_direct_map() {
        for seed in 0..8u64 {
            let n = 120;
            let a = IdRemap::from_forward(random_permutation(n, seed * 3 + 1));
            let b = IdRemap::from_forward(random_permutation(n, seed * 3 + 2));
            let c = IdRemap::from_forward(random_permutation(n, seed * 3 + 3));
            let chained = a.then(&b).then(&c);
            let chained_right = a.then(&b.then(&c));
            assert_eq!(chained, chained_right, "composition must associate");
            for v in 0..n as VertexId {
                let direct = c.to_new(b.to_new(a.to_new(v)));
                assert_eq!(chained.to_new(v), direct);
                assert_eq!(chained.to_old(direct), v);
            }
        }
    }

    #[test]
    fn composition_of_different_lengths_extends_with_identity() {
        // A short remap then a longer one: the short one's tail is identity.
        let short = IdRemap::from_forward(vec![1, 0]);
        let long = IdRemap::from_forward(vec![0, 2, 1, 3]);
        let composed = short.then(&long);
        assert_eq!(composed.to_new(0), 2); // 0 -> 1 -> 2
        assert_eq!(composed.to_new(1), 0); // 1 -> 0 -> 0
        assert_eq!(composed.to_new(2), 1); // 2 -> 2 -> 1
        assert_eq!(composed.to_new(3), 3);
        assert_eq!(composed.to_new(9), 9);
    }

    #[test]
    fn permuted_values_place_old_entries_at_new_indices() {
        let r = IdRemap::from_forward(vec![2, 0, 1]);
        let old = vec![10, 20, 30];
        let new = r.permuted_values(&old);
        assert_eq!(new, vec![20, 30, 10]); // new[2]=old[0], new[0]=old[1], new[1]=old[2]
                                           // Longer slices keep their identity tail.
        let old = vec![10, 20, 30, 40, 50];
        assert_eq!(r.permuted_values(&old), vec![20, 30, 10, 40, 50]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_forward_entry_panics() {
        let _ = IdRemap::from_forward(vec![0, 5]);
    }

    #[test]
    #[should_panic(expected = "maps both")]
    fn duplicate_forward_entry_panics() {
        let _ = IdRemap::from_forward(vec![1, 1]);
    }
}
