//! The served values as a directory of shared blocks.
//!
//! [`ServedValues`] holds one value per external vertex id, cut into blocks
//! of [`BLOCK_VERTICES`] consecutive ids behind `Arc`s, the layout
//! [`slfe_graph::csr`] uses for adjacency. Cloning the directory copies
//! |V| / [`BLOCK_VERTICES`] pointers, so every published version shares the
//! blocks a batch did not write, and [`ServedValues::patch`] copies only the
//! blocks that hold a written id.
//!
//! Each block caches its greatest value under [`natural_order`], computed on
//! the first natural-order [`ServedValues::top_k`] that reaches the block and
//! shared by every version holding it. `top_k` visits blocks best maximum
//! first and stops once no unvisited block can enter the answer, so a query
//! costs O(|V| / [`BLOCK_VERTICES`] + visited blocks · [`BLOCK_VERTICES`])
//! instead of O(V).

use slfe_graph::csr::BLOCK_VERTICES;
use slfe_graph::VertexId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Whether `v` compares with itself (`false` for a float NaN).
fn comparable<V: PartialOrd>(v: &V) -> bool {
    v.partial_cmp(v).is_some()
}

/// The natural order of served values, the one order behind
/// [`crate::DeltaServer::top_k`] and [`crate::PublishedVersion::top_k`]:
/// `partial_cmp`, except that a value that does not compare with itself (a
/// NaN) ranks after every comparable value and ties with every other such
/// value. Total for floats and integers.
pub(crate) fn natural_order<V: PartialOrd>(a: &V, b: &V) -> Ordering {
    match (comparable(a), comparable(b)) {
        (true, true) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => Ordering::Equal,
    }
}

/// Rank order of `(id, value)` entries under [`natural_order`]: greatest
/// value first, ties by id ascending. An entry that ranks first is `Less`.
fn natural_rank<V: PartialOrd>(a: &(VertexId, V), b: &(VertexId, V)) -> Ordering {
    natural_order(&b.1, &a.1).then(a.0.cmp(&b.0))
}

/// The best `k` entries offered so far under `order` (an entry that ranks
/// first is `Less`). A binary heap keeps the lowest-ranked kept entry at its
/// root, so offering n entries takes O(n log k) time and O(k) space. `order`
/// must be a total order, as for a sort.
struct Selection<V, O> {
    k: usize,
    heap: Vec<(VertexId, V)>,
    order: O,
}

impl<V: Copy, O: FnMut(&(VertexId, V), &(VertexId, V)) -> Ordering> Selection<V, O> {
    fn new(k: usize, len: usize, order: O) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k.min(len)),
            order,
        }
    }

    /// The lowest-ranked kept entry once `k` are kept: what an entry must
    /// rank before to enter.
    fn kth(&self) -> Option<&(VertexId, V)> {
        self.heap.first().filter(|_| self.heap.len() == self.k)
    }

    fn offer(&mut self, entry: (VertexId, V)) {
        let heap = &mut self.heap;
        let order = &mut self.order;
        if heap.len() < self.k {
            // Sift the new entry up past every parent that ranks before it.
            heap.push(entry);
            let mut i = heap.len() - 1;
            while i > 0 && order(&heap[(i - 1) / 2], &heap[i]).is_lt() {
                heap.swap((i - 1) / 2, i);
                i = (i - 1) / 2;
            }
        } else if heap.first().is_some_and(|root| order(&entry, root).is_lt()) {
            // Replace the root, then sift it down below every child that
            // ranks after it.
            heap[0] = entry;
            let mut i = 0;
            loop {
                let mut last = i;
                for child in [2 * i + 1, 2 * i + 2] {
                    if child < heap.len() && order(&heap[last], &heap[child]).is_lt() {
                        last = child;
                    }
                }
                if last == i {
                    break;
                }
                heap.swap(i, last);
                i = last;
            }
        }
    }

    /// Offer every entry of block `b`, whose values are `values`.
    fn offer_block(&mut self, b: usize, values: &[V]) {
        let first = b * BLOCK_VERTICES;
        for (slot, &value) in values.iter().enumerate() {
            self.offer(((first + slot) as VertexId, value));
        }
    }

    /// The kept entries, best first.
    fn into_sorted(mut self) -> Vec<(VertexId, V)> {
        self.heap.sort_by(self.order);
        self.heap
    }
}

/// [`BLOCK_VERTICES`] consecutive values (fewer in the last block) and their
/// greatest value under [`natural_order`], computed on first need.
#[derive(Debug)]
struct ValueBlock<V> {
    values: Vec<V>,
    max: OnceLock<V>,
}

/// A copy is made to be written, so it starts with an empty maximum; a
/// derived clone would carry the old one over.
impl<V: Copy> Clone for ValueBlock<V> {
    fn clone(&self) -> Self {
        Self::new(self.values.clone())
    }
}

impl<V: Copy> ValueBlock<V> {
    fn new(values: Vec<V>) -> Self {
        Self {
            values,
            max: OnceLock::new(),
        }
    }
}

impl<V: Copy + PartialOrd> ValueBlock<V> {
    /// The block's greatest value under [`natural_order`]: a comparable one
    /// whenever the block holds one. Blocks are never empty.
    fn max(&self) -> V {
        *self.max.get_or_init(|| {
            let mut best = self.values[0];
            for &v in &self.values[1..] {
                if natural_order(&v, &best).is_gt() {
                    best = v;
                }
            }
            best
        })
    }
}

/// A block's place in the pruned scan: the best entry it can hold, its
/// maximum at its first id. `BinaryHeap` pops the greatest, so the block
/// whose bound ranks first is the greatest.
struct BlockBound<V> {
    max: V,
    block: usize,
}

impl<V: PartialOrd> Ord for BlockBound<V> {
    fn cmp(&self, other: &Self) -> Ordering {
        natural_order(&self.max, &other.max).then(other.block.cmp(&self.block))
    }
}

impl<V: PartialOrd> PartialOrd for BlockBound<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: PartialOrd> PartialEq for BlockBound<V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<V: PartialOrd> Eq for BlockBound<V> {}

/// One value per external vertex id in a directory of shared blocks: id `v`
/// sits in block `v / BLOCK_VERTICES`. Cloning shares every block.
#[derive(Debug, Clone)]
pub(crate) struct ServedValues<V> {
    len: usize,
    blocks: Vec<Arc<ValueBlock<V>>>,
}

impl<V> Default for ServedValues<V> {
    fn default() -> Self {
        Self {
            len: 0,
            blocks: Vec::new(),
        }
    }
}

impl<V: Copy> ServedValues<V> {
    /// The values `value(0), …, value(len - 1)`.
    pub(crate) fn from_fn(len: usize, mut value: impl FnMut(VertexId) -> V) -> Self {
        let blocks = (0..len)
            .step_by(BLOCK_VERTICES)
            .map(|lo| {
                let hi = len.min(lo + BLOCK_VERTICES);
                let values = (lo..hi).map(|v| value(v as VertexId)).collect();
                Arc::new(ValueBlock::new(values))
            })
            .collect();
        Self { len, blocks }
    }

    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The value of `v`, `None` when out of range.
    pub(crate) fn get(&self, v: VertexId) -> Option<V> {
        let v = v as usize;
        (v < self.len).then(|| self.blocks[v / BLOCK_VERTICES].values[v % BLOCK_VERTICES])
    }

    /// Every value in id order.
    pub(crate) fn to_vec(&self) -> Vec<V> {
        let mut flat = Vec::with_capacity(self.len);
        for block in &self.blocks {
            flat.extend_from_slice(&block.values);
        }
        flat
    }

    /// Grow to `len` values, filling the appended ids from `value`, and
    /// rewrite the value of every id in `ids` from `value`. Only the blocks
    /// that hold a written or appended id are copied (`Arc::make_mut`, in
    /// place when no other version shares them), and each of them loses its
    /// maximum. `ids` may come in any order.
    pub(crate) fn patch(&mut self, len: usize, ids: &[VertexId], value: impl Fn(VertexId) -> V) {
        for &v in ids.iter().filter(|&&v| (v as usize) < self.len) {
            let v = v as usize;
            let block = Arc::make_mut(&mut self.blocks[v / BLOCK_VERTICES]);
            block.max.take();
            block.values[v % BLOCK_VERTICES] = value(v as VertexId);
        }
        while self.len < len {
            let start = self.len;
            let end = len.min((start / BLOCK_VERTICES + 1) * BLOCK_VERTICES);
            let appended = (start..end).map(|v| value(v as VertexId));
            match self.blocks.last_mut() {
                Some(last) if !start.is_multiple_of(BLOCK_VERTICES) => {
                    let block = Arc::make_mut(last);
                    block.max.take();
                    block.values.extend(appended);
                }
                _ => self
                    .blocks
                    .push(Arc::new(ValueBlock::new(appended.collect()))),
            }
            self.len = end;
        }
    }

    /// The `k` entries ranked by `compare` (greatest first), ties broken by
    /// id ascending. A full scan in O(|V| log k); `compare` must be a total
    /// order, as for a sort.
    pub(crate) fn top_k_by(
        &self,
        k: usize,
        mut compare: impl FnMut(&V, &V) -> Ordering,
    ) -> Vec<(VertexId, V)> {
        let order = |a: &(VertexId, V), b: &(VertexId, V)| compare(&b.1, &a.1).then(a.0.cmp(&b.0));
        let mut selection = Selection::new(k, self.len, order);
        for (b, block) in self.blocks.iter().enumerate() {
            selection.offer_block(b, &block.values);
        }
        selection.into_sorted()
    }
}

impl<V: Copy + PartialOrd> ServedValues<V> {
    /// [`ServedValues::top_k_by`] under [`natural_order`], visiting blocks
    /// by (maximum, block index) from a heap built in O(|V| /
    /// [`BLOCK_VERTICES`]). It stops when the next block's maximum at its
    /// first id ranks after the current k-th entry: every entry of that
    /// block, and of every block after it, ranks after that bound.
    pub(crate) fn top_k(&self, k: usize) -> Vec<(VertexId, V)> {
        if k == 0 {
            return Vec::new();
        }
        let mut selection = Selection::new(k, self.len, natural_rank::<V>);
        let mut queue: BinaryHeap<BlockBound<V>> = self
            .blocks
            .iter()
            .enumerate()
            .map(|(block, values)| BlockBound {
                max: values.max(),
                block,
            })
            .collect();
        while let Some(BlockBound { max, block }) = queue.pop() {
            let bound = ((block * BLOCK_VERTICES) as VertexId, max);
            if selection
                .kth()
                .is_some_and(|kth| natural_rank(&bound, kth).is_gt())
            {
                break;
            }
            selection.offer_block(block, &self.blocks[block].values);
        }
        selection.into_sorted()
    }
}

#[cfg(test)]
impl<V> ServedValues<V> {
    /// Number of blocks.
    pub(crate) fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether block `b` is the same allocation in `self` and `other`.
    pub(crate) fn shares_block(&self, other: &Self, b: usize) -> bool {
        match (self.blocks.get(b), other.blocks.get(b)) {
            (Some(ours), Some(theirs)) => Arc::ptr_eq(ours, theirs),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_graph::rng::SplitMix64;

    /// Reference ranking: sort every entry.
    fn full_sort<V: Copy>(
        values: &[V],
        k: usize,
        mut compare: impl FnMut(&V, &V) -> Ordering,
    ) -> Vec<(VertexId, V)> {
        let mut ranked: Vec<(VertexId, V)> = values
            .iter()
            .enumerate()
            .map(|(v, &value)| (v as VertexId, value))
            .collect();
        ranked.sort_by(|a, b| compare(&b.1, &a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    fn bits(ranked: &[(VertexId, f32)]) -> Vec<(VertexId, u32)> {
        ranked.iter().map(|&(v, x)| (v, x.to_bits())).collect()
    }

    fn served(values: &[f32]) -> ServedValues<f32> {
        ServedValues::from_fn(values.len(), |v| values[v as usize])
    }

    /// `served` holds `values`, and its rankings equal the full sort:
    /// `top_k` under the natural order, `top_k_by` under the natural and a
    /// reversed order.
    fn check(served: &ServedValues<f32>, values: &[f32], ks: &[usize], label: &str) {
        let flat = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(flat(&served.to_vec()), flat(values), "{label}: values");
        let reversed = |a: &f32, b: &f32| b.total_cmp(a);
        for &k in ks {
            let expect = full_sort(values, k, natural_order);
            assert_eq!(bits(&served.top_k(k)), bits(&expect), "{label}: top_k({k})");
            assert_eq!(
                bits(&served.top_k_by(k, natural_order)),
                bits(&expect),
                "{label}: top_k_by({k}) natural"
            );
            assert_eq!(
                bits(&served.top_k_by(k, reversed)),
                bits(&full_sort(values, k, reversed)),
                "{label}: top_k_by({k}) reversed"
            );
        }
    }

    #[test]
    fn bounded_top_k_equals_the_full_sort() {
        type Order = fn(&f32, &f32) -> Ordering;
        let natural: Order = |a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal);
        let reversed: Order = |a, b| b.total_cmp(a);
        let wide = 2 * BLOCK_VERTICES + 5;
        for (seed, n) in [0usize, 1, 2, 9, 64, 500, wide].into_iter().enumerate() {
            // Five distinct finite values plus both infinities: many ties.
            let mut rng = SplitMix64::seed_from_u64(seed as u64);
            let values: Vec<f32> = (0..n)
                .map(|_| match rng.range_u32(0, 7) {
                    5 => f32::INFINITY,
                    6 => f32::NEG_INFINITY,
                    r => r as f32 - 2.0,
                })
                .collect();
            let served = served(&values);
            for k in [0, 1, 3, 10, n.saturating_sub(1), n, n + 1, usize::MAX] {
                for compare in [natural, reversed] {
                    assert_eq!(
                        served.top_k_by(k, compare),
                        full_sort(&values, k, compare),
                        "n = {n}, k = {k}"
                    );
                }
                assert_eq!(
                    served.top_k(k),
                    full_sort(&values, k, natural),
                    "n = {n}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn a_nan_ranks_after_every_comparable_value() {
        let nan = f32::NAN;
        // Under `partial_cmp(..).unwrap_or(Equal)` these returned
        // [(0, 5.0), (1, NaN)] and the NaN.
        let ranked = served(&[5.0, nan, 7.0, 9.0]).top_k(2);
        assert_eq!(bits(&ranked), bits(&[(3, 9.0), (2, 7.0)]));
        let ranked = served(&[nan, 5.0, 7.0]).top_k(1);
        assert_eq!(bits(&ranked), bits(&[(2, 7.0)]));
        // NaNs come last, by id, once the comparable values ran out.
        let ranked = served(&[nan, 1.0, nan]).top_k(3);
        assert_eq!(bits(&ranked), bits(&[(1, 1.0), (0, nan), (2, nan)]));
    }

    #[test]
    fn pruned_top_k_covers_ties_infinities_nan_and_partial_blocks() {
        let b = BLOCK_VERTICES;
        let n = 3 * b + 77; // a partial last block
        let ks = [0, 1, 2, 10, 100, b, b + 1, n - 1, n, n + 1];
        let mut rng = SplitMix64::seed_from_u64(91);
        let mut values: Vec<f32> = (0..n)
            .map(|_| match rng.range_u32(0, 10) {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                2 => f32::NAN,
                r => r as f32, // ties
            })
            .collect();
        check(&served(&values), &values, &ks, "mixed");
        // An all-NaN block, a block of one repeated value, and the single
        // greatest value in the partial last block.
        values[b..2 * b].fill(f32::NAN);
        values[2 * b..3 * b].fill(4.0);
        values[n - 1] = 1e9;
        check(&served(&values), &values, &ks, "shaped");
        let nans = vec![f32::NAN; b + 3];
        check(&served(&nans), &nans, &ks, "all NaN");
        check(&served(&[]), &[], &ks, "empty");
    }

    #[test]
    fn patch_copies_only_written_blocks_and_resets_their_maximum() {
        let b = BLOCK_VERTICES;
        let ks = |n: usize| [1, 2, 10, 100, b + 1, n];
        let mut values: Vec<f32> = (0..2 * b + 10).map(|v| (v % 97) as f32).collect();
        values[5] = 500.0;
        let mut current = served(&values);
        assert_eq!(current.top_k(1), vec![(5, 500.0)]); // caches every maximum
        let before = current.clone();

        // Lower block 0's maximum, raise block 1's, and grow through the
        // partial last block into a new one.
        values[5] = -1.0;
        values[b + 7] = 3000.0;
        values.extend((0..b + 20).map(|v| 1000.0 - v as f32 * 1e-3));
        values[2 * b + 12] = 2000.0; // appended into the old last block
        current.patch(values.len(), &[b as VertexId + 7, 5], |v| {
            values[v as usize]
        });
        assert_eq!(current.len(), values.len());
        assert_eq!(current.num_blocks(), 4);
        assert_eq!(current.to_vec(), values);
        assert!(
            !current.shares_block(&before, 0),
            "a written block is copied"
        );
        assert!(
            !current.shares_block(&before, 1),
            "a written block is copied"
        );
        assert!(!current.shares_block(&before, 2), "a grown block is copied");
        assert_eq!(current.blocks[0].max(), 96.0, "the lowered maximum");
        assert_eq!(current.top_k(1), vec![(b as VertexId + 7, 3000.0)]);
        check(&current, &values, &ks(values.len()), "patched");
        // The earlier version keeps its values and its cached maxima.
        assert_eq!(before.get(5), Some(500.0));
        assert_eq!(before.top_k(1), vec![(5, 500.0)]);

        // A block no other version holds is written in place and still
        // loses its maximum: block 0's cached 96 must not hide the 7000.
        let shared = current.clone();
        drop(before);
        values[2 * b + 3] = 5000.0;
        current.patch(values.len(), &[2 * b as VertexId + 3], |v| {
            values[v as usize]
        });
        assert!(current.shares_block(&shared, 3) && !current.shares_block(&shared, 2));
        drop(shared);
        assert_eq!(current.top_k(1), vec![(2 * b as VertexId + 3, 5000.0)]);
        values[10] = 7000.0;
        let block = Arc::as_ptr(&current.blocks[0]);
        current.patch(values.len(), &[10], |v| values[v as usize]);
        assert_eq!(Arc::as_ptr(&current.blocks[0]), block, "written in place");
        assert_eq!(current.top_k(1), vec![(10, 7000.0)]);
        check(&current, &values, &ks(values.len()), "in place");
        assert_eq!(current.get(values.len() as VertexId), None);
    }
}
