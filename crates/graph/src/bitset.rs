//! Dense bitset frontiers.
//!
//! Every engine in the workspace tracks which vertices are *active* each
//! iteration. A `Vec<bool>` spends one byte per vertex and makes counting the
//! active set an O(n) byte scan; the `u64`-word [`Bitset`] here spends one bit per
//! vertex, counts actives with hardware popcount, probes ranges word by word, and
//! is reused across iterations and grown in place (clearing is a `memset` or a
//! per-bit reset, never an allocation) — the same representation Ligra's dense
//! frontiers and Gemini's bitmaps use.

const WORD_BITS: usize = 64;

/// A dense bitset over vertex ids `0..len`; it only grows ([`Bitset::grow`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// An all-zero bitset covering `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Build from a predicate over bit indices.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut set = Self::new(len);
        for i in 0..len {
            if f(i) {
                set.set(i);
            }
        }
        set
    }

    /// Cover `len >= self.len()` bits in place; the added bits are clear.
    /// Panics when `len` would shrink the set.
    pub fn grow(&mut self, len: usize) {
        assert!(len >= self.len, "a bitset only grows");
        // Bits past the old length in its last word are already zero.
        self.words.resize(len.div_ceil(WORD_BITS), 0);
        self.len = len;
    }

    /// Number of bits covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the bitset covers zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 != 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Set bit `i`, returning `true` if it was previously clear.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clear bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Clear every bit. No allocation; the backing words are reused.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Set every bit (the full-reactivation case of Algorithm 3).
    pub fn fill(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }

    /// Number of set bits, via hardware popcount over the words.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when at least one bit is set in `start..end`. It stops at the
    /// first nonzero word, which is what makes it cheap as a per-chunk
    /// "anything active here?" probe even when the probed span is wide and
    /// the frontier dense.
    pub fn any_in_range(&self, start: usize, end: usize) -> bool {
        debug_assert!(start <= end && end <= self.len, "range out of bounds");
        if start >= end {
            return false;
        }
        let (first_word, first_bit) = (start / WORD_BITS, start % WORD_BITS);
        let (last_word, last_bit) = ((end - 1) / WORD_BITS, (end - 1) % WORD_BITS);
        let head_mask = u64::MAX << first_bit;
        let tail_mask = u64::MAX >> (WORD_BITS - 1 - last_bit);
        if first_word == last_word {
            return self.words[first_word] & head_mask & tail_mask != 0;
        }
        if self.words[first_word] & head_mask != 0 {
            return true;
        }
        if self.words[first_word + 1..last_word]
            .iter()
            .any(|&w| w != 0)
        {
            return true;
        }
        self.words[last_word] & tail_mask != 0
    }

    /// Call `f(index)` for every set bit in `start..end`, ascending, walking
    /// words and peeling bits with `trailing_zeros` (never a per-bit scan of
    /// clear regions).
    pub fn for_each_set_in_range(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        debug_assert!(start <= end && end <= self.len, "range out of bounds");
        if start >= end {
            return;
        }
        let (first_word, first_bit) = (start / WORD_BITS, start % WORD_BITS);
        let (last_word, last_bit) = ((end - 1) / WORD_BITS, (end - 1) % WORD_BITS);
        for wi in first_word..=last_word {
            let mut word = self.words[wi];
            if wi == first_word {
                word &= u64::MAX << first_bit;
            }
            if wi == last_word {
                word &= u64::MAX >> (WORD_BITS - 1 - last_bit);
            }
            while word != 0 {
                f(wi * WORD_BITS + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
    }

    /// Iterate the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let base = wi * WORD_BITS;
            std::iter::successors(if word == 0 { None } else { Some(word) }, |w| {
                let next = w & (w - 1);
                if next == 0 {
                    None
                } else {
                    Some(next)
                }
            })
            .map(move |w| base + w.trailing_zeros() as usize)
        })
    }

    /// The raw backing words (tail bits beyond `len` are always zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Zero the bits at positions `>= len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_insert_remove_roundtrip() {
        let mut b = Bitset::new(130);
        assert!(!b.get(0) && !b.get(129));
        assert!(b.insert(129));
        assert!(!b.insert(129), "second insert reports already-set");
        b.set(64);
        assert!(b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 2);
        b.remove(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn grow_keeps_the_bits_and_adds_clear_ones() {
        let mut b = Bitset::new(70);
        b.fill();
        b.grow(200);
        assert_eq!(b.len(), 200);
        assert_eq!(b.count_ones(), 70, "the grown tail starts clear");
        assert!(b.get(69) && !b.get(70) && !b.get(199));
        assert!(b.insert(199));
        let mut empty = Bitset::default();
        empty.grow(3);
        assert_eq!((empty.len(), empty.count_ones()), (3, 0));
    }

    #[test]
    fn clear_and_fill_cover_the_whole_range() {
        let mut b = Bitset::new(100);
        b.fill();
        assert_eq!(
            b.count_ones(),
            100,
            "fill must mask the tail of the last word"
        );
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn iter_ones_is_ascending_and_complete() {
        let mut b = Bitset::new(200);
        let expected = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &expected {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn from_fn_matches_predicate() {
        let b = Bitset::from_fn(50, |i| i % 7 == 0);
        for i in 0..50 {
            assert_eq!(b.get(i), i % 7 == 0);
        }
    }

    #[test]
    fn empty_bitset_is_well_behaved() {
        let b = Bitset::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    /// Seeded-loop property test: the word-level range helpers must agree with
    /// the naive per-bit loop on random bitsets and random ranges, including
    /// word-boundary-straddling and single-word ranges.
    #[test]
    fn range_helpers_match_the_naive_per_bit_loop() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // SplitMix64 step (crate::rng is for graph generation; a local copy
            // keeps this test self-contained).
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for &len in &[1usize, 63, 64, 65, 127, 128, 200, 513] {
            let mut b = Bitset::new(len);
            for i in 0..len {
                if next() % 3 == 0 {
                    b.set(i);
                }
            }
            for _ in 0..50 {
                let a = (next() as usize) % (len + 1);
                let z = (next() as usize) % (len + 1);
                let (start, end) = if a <= z { (a, z) } else { (z, a) };
                let naive: Vec<usize> = (start..end).filter(|&i| b.get(i)).collect();
                assert_eq!(
                    b.any_in_range(start, end),
                    !naive.is_empty(),
                    "any_in_range({start}, {end}) on len {len}"
                );
                let mut seen = Vec::new();
                b.for_each_set_in_range(start, end, |i| seen.push(i));
                assert_eq!(
                    seen, naive,
                    "for_each_set_in_range({start}, {end}) on len {len}"
                );
            }
        }
    }

    #[test]
    fn range_helpers_handle_degenerate_ranges() {
        let mut b = Bitset::new(130);
        b.fill();
        assert!(!b.any_in_range(64, 64));
        assert!(!b.any_in_range(129, 129));
        assert!(b.any_in_range(63, 65));
        let mut seen = 0usize;
        b.for_each_set_in_range(128, 130, |_| seen += 1);
        assert_eq!(seen, 2);
        let empty = Bitset::new(0);
        assert!(!empty.any_in_range(0, 0));
    }
}
