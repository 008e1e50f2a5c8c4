//! Fixed-capacity bitset used as the workhorse of every exhaustive-search
//! kernel.
//!
//! The paper's exhaustive search (Algorithms 1–3 and 8) only ever runs on
//! subgraphs whose total size is bounded by the bidegeneracy `δ̈(G)` — a few
//! hundred vertices on real sparse graphs — or on dense synthetic graphs of
//! at most a few thousand vertices per side. A flat word-array bitset makes
//! the hot operations (candidate intersection, degree counting, reduction
//! scans) cost `O(n / 64)` words each, and every one of them runs through
//! the fused block kernels in [`crate::kernels`]:
//!
//! * the cardinality is cached and maintained *inside* each mutating pass
//!   ([`BitSet::and_assign_count`] and friends), so [`BitSet::len`] — called
//!   at every branch-and-bound node for the size bound — is `O(1)`;
//! * counting queries ([`BitSet::intersection_len`]) are single fused
//!   AND + popcount passes, never materialising the combined set;
//! * the survivor scan [`BitSet::first_intersection`] is prefix-pruned: it
//!   stops at the first non-empty word;
//! * [`BitSet::remove_by_word`] removes a mask of members per word with one
//!   store, so a filter such as the `denseMBB` Lemma 1/2 sweep decides each
//!   member without a branch.
//!
//! Binary operations accept anything implementing [`Bits`] — an owned
//! [`BitSet`] or a borrowed arena row ([`crate::local::RowRef`]) — so the
//! cache-blocked [`crate::local::LocalGraph`] layout needs no copies.

use crate::kernels;

/// Read-only view of a word-aligned bit vector.
///
/// Implemented by [`BitSet`] and by [`crate::local::RowRef`] (a borrowed row
/// of a [`crate::local::LocalGraph`] adjacency arena). All words beyond
/// `bit_capacity()` must be zero — the kernels rely on that tail invariant.
pub trait Bits {
    /// The backing words, least-significant bit first.
    fn words(&self) -> &[u64];
    /// Exclusive upper bound on stored values.
    fn bit_capacity(&self) -> usize;
}

/// A fixed-capacity set of `usize` values in `0..capacity`.
///
/// The capacity is fixed at construction; all binary operations require both
/// operands to have the same capacity (checked with `debug_assert!`). The
/// cardinality is cached: [`BitSet::len`] is `O(1)` and every mutation keeps
/// it current (fused into the same pass for the bulk operations).
#[derive(PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Box<[u64]>,
    capacity: usize,
    len: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            capacity: self.capacity,
            len: self.len,
        }
    }

    /// Copies `source` into `self`, reusing the word buffer when the word
    /// counts match — the search keeps one set per include depth and
    /// refills it this way instead of allocating per node.
    fn clone_from(&mut self, source: &Self) {
        if self.words.len() == source.words.len() {
            self.words.copy_from_slice(&source.words);
        } else {
            self.words = source.words.clone();
        }
        self.capacity = source.capacity;
        self.len = source.len;
    }
}

const WORD_BITS: usize = 64;

#[inline]
fn word_count(capacity: usize) -> usize {
    capacity.div_ceil(WORD_BITS)
}

impl Bits for BitSet {
    #[inline]
    fn words(&self) -> &[u64] {
        &self.words
    }

    #[inline]
    fn bit_capacity(&self) -> usize {
        self.capacity
    }
}

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0u64; word_count(capacity)].into_boxed_slice(),
            capacity,
            len: 0,
        }
    }

    /// Creates a set containing every value in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        s.insert_all();
        s
    }

    /// Builds a set from raw words (tail bits beyond `capacity` are masked).
    pub(crate) fn from_words(words: &[u64], capacity: usize) -> Self {
        debug_assert_eq!(words.len(), word_count(capacity));
        let mut s = BitSet {
            words: words.into(),
            capacity,
            len: 0,
        };
        let tail = capacity % WORD_BITS;
        if tail != 0 {
            let last = s.words.len() - 1;
            s.words[last] &= (1u64 << tail) - 1;
        }
        s.len = kernels::popcount(&s.words);
        s
    }

    /// The fixed capacity (exclusive upper bound on stored values).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`. Panics in debug builds if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        let w = &mut self.words[i / WORD_BITS];
        let bit = 1u64 << (i % WORD_BITS);
        self.len += (*w & bit == 0) as usize;
        *w |= bit;
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        let w = &mut self.words[i / WORD_BITS];
        let bit = 1u64 << (i % WORD_BITS);
        self.len -= (*w & bit != 0) as usize;
        *w &= !bit;
    }

    /// Tests membership of `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Inserts every value in `0..capacity`.
    fn insert_all(&mut self) {
        if self.capacity == 0 {
            return;
        }
        for w in self.words.iter_mut() {
            *w = u64::MAX;
        }
        let tail = self.capacity % WORD_BITS;
        if tail != 0 {
            let last = self.words.len() - 1;
            self.words[last] = (1u64 << tail) - 1;
        }
        self.len = self.capacity;
    }

    /// Removes every value.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
        self.len = 0;
    }

    /// Number of stored values. `O(1)` — the count is maintained by every
    /// mutating operation (fused into the kernel pass for bulk updates).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `self ∩= other`. Equivalent to [`BitSet::and_assign_count`] with the
    /// count discarded (the cached length is refreshed either way).
    #[inline]
    pub fn intersect_with<B: Bits + ?Sized>(&mut self, other: &B) {
        self.and_assign_count(other);
    }

    /// Fused `self ∩= other` returning the new cardinality from the same
    /// pass (the paper's hot "include candidate then re-count" step).
    #[inline]
    pub fn and_assign_count<B: Bits + ?Sized>(&mut self, other: &B) -> usize {
        debug_assert_eq!(self.capacity, other.bit_capacity());
        self.len = kernels::and_assign_count(&mut self.words, other.words());
        self.len
    }

    /// Sets `self` to `(⋃ sets) ∩ mask`: ORs each set in word by word and
    /// counts once, in the closing AND pass.
    pub fn assign_union_in<B: Bits>(&mut self, sets: impl IntoIterator<Item = B>, mask: &BitSet) {
        debug_assert_eq!(self.capacity, mask.capacity);
        self.words.fill(0);
        for set in sets {
            debug_assert_eq!(self.capacity, set.bit_capacity());
            for (word, &other) in self.words.iter_mut().zip(set.words()) {
                *word |= other;
            }
        }
        self.len = kernels::and_assign_count(&mut self.words, &mask.words);
    }

    /// `|self ∩ other|` without materialising the intersection.
    #[inline]
    pub fn intersection_len<B: Bits + ?Sized>(&self, other: &B) -> usize {
        debug_assert_eq!(self.capacity, other.bit_capacity());
        kernels::and_popcount(&self.words, other.words())
    }

    /// The smallest stored value, if any.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Smallest member of `self ∩ other` without materialising it
    /// (prefix-pruned row scan: stops at the first surviving word).
    #[inline]
    pub fn first_intersection<B: Bits + ?Sized>(&self, other: &B) -> Option<usize> {
        debug_assert_eq!(self.capacity, other.bit_capacity());
        kernels::first_and(&self.words, other.words())
    }

    /// Removes from each word the members that `removed(index, word)`
    /// selects, for the words in increasing order. Each word takes one
    /// store, whatever the mask.
    // `#[inline]` gives each caller's codegen unit its own copy to inline:
    // the `denseMBB` reduction runs it at every search node.
    #[inline]
    pub fn remove_by_word(&mut self, mut removed: impl FnMut(usize, u64) -> u64) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mask = removed(wi, *word) & *word;
            *word &= !mask;
            self.len -= mask.count_ones() as usize;
        }
    }

    /// Iterates the stored values in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        iter_words(&self.words)
    }

    /// Iterates the values stored in both `self` and `other` in increasing
    /// order, ANDing word by word instead of building the intersection.
    pub fn iter_and<'a, B: Bits + ?Sized>(
        &'a self,
        other: &'a B,
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(self.capacity, other.bit_capacity());
        let pairs = self.words.iter().zip(other.words());
        pairs.enumerate().flat_map(|(wi, (&a, &b))| {
            let mut bits = a & b;
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(wi * WORD_BITS + bit)
            })
        })
    }

    /// Collects into a `Vec<u32>` (convenient for local-vertex index lists).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().map(|i| i as u32).collect()
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose capacity is `max+1` of the items (0 for empty).
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().copied().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// Iterator over the set bits of a word slice, ascending.
pub(crate) fn iter_words(words: &[u64]) -> Iter<'_> {
    Iter {
        words,
        word_index: 0,
        current: words.first().copied().unwrap_or(0),
    }
}

/// Iterator over the values of a [`BitSet`], ascending.
pub struct Iter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.first(), None);
        assert!(!s.contains(0));
        assert!(!s.contains(99));
    }

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s = BitSet::new(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            s.insert(i);
            assert!(s.contains(i), "just inserted {i}");
        }
        assert_eq!(s.len(), 8);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn cached_len_survives_redundant_updates() {
        let mut s = BitSet::new(100);
        s.insert(5);
        s.insert(5); // already present: len must not double-count
        assert_eq!(s.len(), 1);
        s.remove(6); // absent: len must not underflow
        assert_eq!(s.len(), 1);
        s.remove(5);
        s.remove(5);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn full_respects_tail_bits() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        let s = BitSet::full(64);
        assert_eq!(s.len(), 64);
        let s = BitSet::full(0);
        assert_eq!(s.len(), 0);
    }

    /// The classic off-by-one surface: `insert_all`, `intersection_len` and
    /// the survivor scans pinned at every word-boundary capacity.
    #[test]
    fn tail_word_edge_capacities() {
        for cap in [0usize, 1, 63, 64, 65, 127, 128] {
            let full = BitSet::full(cap);
            assert_eq!(full.len(), cap, "full({cap}) cardinality");
            let empty = BitSet::new(cap);
            assert_eq!(full.intersection_len(&full), cap, "full∩full at {cap}");
            assert_eq!(full.intersection_len(&empty), 0, "full∩empty at {cap}");
            assert_eq!(
                full.first_intersection(&full),
                if cap == 0 { None } else { Some(0) },
                "first survivor at {cap}"
            );
            // Highest admissible element round-trips through every fused op.
            if cap > 0 {
                let mut top = BitSet::new(cap);
                top.insert(cap - 1);
                assert_eq!(top.intersection_len(&full), 1, "top bit at {cap}");
                assert_eq!(top.first_intersection(&full), Some(cap - 1));
                let mut clone = top.clone();
                assert_eq!(clone.and_assign_count(&full), 1);
                // insert_all never sets bits beyond the capacity.
                let mut all = BitSet::new(cap);
                all.insert_all();
                assert_eq!(all.len(), cap);
                assert_eq!(all.iter().last(), Some(cap - 1));
                assert!(
                    all.words()
                        .iter()
                        .map(|w| w.count_ones() as usize)
                        .sum::<usize>()
                        == cap
                );
            }
        }
    }

    #[test]
    fn iter_yields_sorted_members() {
        let mut s = BitSet::new(200);
        let values = [3usize, 64, 65, 100, 199];
        for &v in &values {
            s.insert(v);
        }
        let collected: Vec<usize> = s.iter().collect();
        assert_eq!(collected, values);
    }

    #[test]
    fn iter_and_yields_the_shared_members_in_order() {
        // Three words; 198, in the last one, is in both.
        let a: BitSet = (0..200).filter(|i| i % 2 == 0).collect();
        let mut b = BitSet::new(a.capacity());
        for i in (0..a.capacity()).filter(|i| i % 3 == 0) {
            b.insert(i);
        }
        let want: Vec<usize> = a.iter().filter(|&i| b.contains(i)).collect();
        assert_eq!(a.iter_and(&b).collect::<Vec<_>>(), want);
        assert_eq!(want.len(), a.intersection_len(&b));
        assert_eq!(want.last(), Some(&198));
        assert_eq!(a.iter_and(&BitSet::new(a.capacity())).count(), 0);
    }

    #[test]
    fn intersection_and_counts() {
        let mut a = BitSet::new(128);
        let mut b = BitSet::new(128);
        for i in 0..128 {
            if i % 2 == 0 {
                a.insert(i);
            }
            if i % 3 == 0 {
                b.insert(i);
            }
        }
        assert_eq!(
            a.intersection_len(&b),
            (0..128).filter(|i| i % 6 == 0).count()
        );
        let mut c = a.clone();
        let fused = c.and_assign_count(&b);
        assert_eq!(fused, a.intersection_len(&b));
        assert_eq!(c.len(), a.intersection_len(&b));
        assert!(c.iter().all(|i| a.contains(i) && b.contains(i)));
    }

    #[test]
    fn first_finds_lowest_across_words() {
        let mut s = BitSet::new(256);
        s.insert(200);
        assert_eq!(s.first(), Some(200));
        s.insert(70);
        assert_eq!(s.first(), Some(70));
        s.insert(0);
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn survivor_scans_match_iterated_intersection() {
        let mut a = BitSet::new(300);
        let mut b = BitSet::new(300);
        for i in (0..300).step_by(7) {
            a.insert(i);
        }
        for i in (0..300).step_by(11) {
            b.insert(i);
        }
        let common: Vec<usize> = a.iter().filter(|&i| b.contains(i)).collect();
        assert_eq!(a.first_intersection(&b), common.first().copied());
    }

    #[test]
    fn from_iterator_sizes_capacity() {
        let s: BitSet = [4usize, 9, 2].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.to_vec(), vec![2, 4, 9]);
    }

    #[test]
    fn clone_from_reuses_the_buffer_and_copies_every_field() {
        let mut source = BitSet::new(130);
        source.insert(3);
        source.insert(129);
        let mut target = BitSet::full(130);
        let buffer = target.words.as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(target.len(), 2);
        assert_eq!(
            target.words.as_ptr(),
            buffer,
            "same word count: no new buffer"
        );
        // A different capacity takes the source's buffer size.
        let mut small = BitSet::full(10);
        small.clone_from(&source);
        assert_eq!(small, source);
        assert_eq!(small.capacity(), 130);
    }

    #[test]
    fn remove_by_word_visits_each_word_once_and_keeps_len() {
        let mut s: BitSet = [1usize, 64, 65, 130, 199].into_iter().collect();
        let mut seen = Vec::new();
        // Remove the odd members.
        s.remove_by_word(|wi, word| {
            seen.push((wi, word));
            word & 0xAAAA_AAAA_AAAA_AAAA
        });
        let want: Vec<(usize, u64)> = vec![(0, 1 << 1), (1, 0b11), (2, 1 << 2), (3, 1 << 7)];
        assert_eq!(seen, want);
        assert_eq!(s.to_vec(), vec![64, 130]);
        assert_eq!(s.len(), 2);
        s.remove_by_word(|_, word| word);
        assert!(s.is_empty());
    }

    #[test]
    fn assign_union_in_ors_the_sets_and_masks_once() {
        let a: BitSet = [1usize, 64, 129].into_iter().collect();
        let mut b = BitSet::new(130);
        b.insert(2);
        b.insert(64);
        let mut mask = BitSet::full(130);
        mask.remove(129);
        let mut out = BitSet::full(130);
        out.assign_union_in([a, b], &mask);
        assert_eq!(out.to_vec(), vec![1, 2, 64]);
        assert_eq!(out.len(), 3);
        out.assign_union_in(std::iter::empty::<BitSet>(), &mask);
        assert!(out.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::full(100);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
