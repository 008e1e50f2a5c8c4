//! Oracle tests for the fused bitset kernels.
//!
//! Every public kernel in `mbb_bigraph::kernels` must be bit-for-bit
//! identical to the plain iterator loops in [`reference`]. The suite drives
//! random word vectors with ragged tails (`capacity % 64 != 0`), single-bit
//! deltas, multi-row stacks and scans through the `BitSet` surface, plus
//! deterministic wide inputs: empty/full extremes up to 16448 bits, and
//! random words at widths that cross the four-word unroll and the 128-word
//! cache block of `multi_and_popcount`.

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::kernels;
use proptest::bool::ANY;
use proptest::prelude::*;

/// The plain iterator loops `BitSet` used before the kernel module existed.
///
/// These are the bit-for-bit oracle for this suite. They must stay boring:
/// one pass per logical operation, no unrolling, no early exits.
mod reference {
    /// `popcount(a)`.
    pub fn popcount(a: &[u64]) -> usize {
        a.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `popcount(a & b)`.
    pub fn and_popcount(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// `popcount(a & !b)`.
    pub fn andnot_popcount(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x & !y).count_ones() as usize)
            .sum()
    }

    /// `a &= b` then a separate `popcount(a)` pass (the unfused idiom).
    pub fn and_assign_count(a: &mut [u64], b: &[u64]) -> usize {
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x &= *y;
        }
        popcount(a)
    }

    /// `a |= b` then a separate `popcount(a)` pass.
    pub fn or_assign_count(a: &mut [u64], b: &[u64]) -> usize {
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x |= *y;
        }
        popcount(a)
    }

    /// `a &= !b` then a separate `popcount(a)` pass.
    pub fn andnot_assign_count(a: &mut [u64], b: &[u64]) -> usize {
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x &= !*y;
        }
        popcount(a)
    }

    /// First set bit of `a & b`, scanning every word (no prefix pruning).
    pub fn first_and(a: &[u64], b: &[u64]) -> Option<usize> {
        let mut found = None;
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let w = x & y;
            if w != 0 && found.is_none() {
                found = Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        found
    }

    /// Last set bit of `a & b`, scanning forward and remembering the last.
    pub fn last_and(a: &[u64], b: &[u64]) -> Option<usize> {
        let mut found = None;
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let w = x & y;
            if w != 0 {
                found = Some(i * 64 + 63 - w.leading_zeros() as usize);
            }
        }
        found
    }

    /// First set bit of `a & !b`, scanning every word.
    pub fn first_andnot(a: &[u64], b: &[u64]) -> Option<usize> {
        let mut found = None;
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let w = x & !y;
            if w != 0 && found.is_none() {
                found = Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        found
    }

    /// One full AND pass per row into `acc`, then a separate popcount pass.
    pub fn multi_and_popcount(acc: &mut [u64], rows: &[&[u64]]) -> usize {
        for row in rows {
            for (x, y) in acc.iter_mut().zip(row.iter()) {
                *x &= *y;
            }
        }
        popcount(acc)
    }
}

/// Widths (in words) of the deterministic wide cases: both sides of the
/// 128-word `multi_and_popcount` cache block, and more than two blocks.
const WIDE_WORDS: [usize; 5] = [127, 128, 129, 200, 257];

/// Packs `bits` (little-endian bit order) into 64-bit words, leaving any
/// tail bits beyond `bits.len()` zero, exactly like `BitSet` storage.
fn pack(bits: &[bool]) -> Vec<u64> {
    let words = bits.len().div_ceil(64).max(1);
    let mut out = vec![0u64; words];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            out[i / 64] |= 1u64 << (i % 64);
        }
    }
    out
}

/// `n` deterministic xorshift words. No tail masking: the kernels are pure
/// word-level code and must agree with the oracle on any word pattern.
fn words(seed: u64, n: usize) -> Vec<u64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
        .collect()
}

/// Strategy: a pair of equal-capacity random bit vectors whose capacity
/// sweeps word boundaries (ragged tails and multi-word lengths).
fn word_pairs() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, usize)> {
    (1usize..=310).prop_flat_map(|cap| {
        (
            proptest::collection::vec(ANY, cap),
            proptest::collection::vec(ANY, cap),
        )
            .prop_map(move |(a, b)| (pack(&a), pack(&b), cap))
    })
}

/// Asserts every two-operand kernel agrees with the reference loops for
/// the word pair `(a, b)`.
fn assert_kernels_match(a: &[u64], b: &[u64]) {
    let n = a.len();
    assert_eq!(
        kernels::popcount(a),
        reference::popcount(a),
        "popcount diverged at {n} words"
    );
    assert_eq!(
        kernels::and_popcount(a, b),
        reference::and_popcount(a, b),
        "and_popcount diverged at {n} words"
    );
    assert_eq!(
        kernels::andnot_popcount(a, b),
        reference::andnot_popcount(a, b),
        "andnot_popcount diverged at {n} words"
    );
    assert_eq!(
        kernels::first_and(a, b),
        reference::first_and(a, b),
        "first_and diverged at {n} words"
    );
    assert_eq!(
        kernels::last_and(a, b),
        reference::last_and(a, b),
        "last_and diverged at {n} words"
    );
    assert_eq!(
        kernels::first_andnot(a, b),
        reference::first_andnot(a, b),
        "first_andnot diverged at {n} words"
    );

    // Mutating kernels: identical counts AND identical resulting words.
    for (name, fused, scalar) in [
        (
            "and_assign_count",
            kernels::and_assign_count as fn(&mut [u64], &[u64]) -> usize,
            reference::and_assign_count as fn(&mut [u64], &[u64]) -> usize,
        ),
        (
            "or_assign_count",
            kernels::or_assign_count,
            reference::or_assign_count,
        ),
        (
            "andnot_assign_count",
            kernels::andnot_assign_count,
            reference::andnot_assign_count,
        ),
    ] {
        let mut fused_words = a.to_vec();
        let mut scalar_words = a.to_vec();
        let fused_count = fused(&mut fused_words, b);
        let scalar_count = scalar(&mut scalar_words, b);
        assert_eq!(
            fused_count, scalar_count,
            "{name} count diverged at {n} words"
        );
        assert_eq!(
            fused_words, scalar_words,
            "{name} words diverged at {n} words"
        );
    }
}

/// Asserts `multi_and_popcount` agrees with the reference fold, count and
/// resulting words, for accumulator `acc` and the stack `rows`.
fn assert_multi_and_matches(acc: &[u64], rows: &[Vec<u64>]) {
    let rows_ref: Vec<&[u64]> = rows.iter().map(|r| r.as_slice()).collect();
    let mut fused_acc = acc.to_vec();
    let mut scalar_acc = acc.to_vec();
    let fused = kernels::multi_and_popcount(&mut fused_acc, &rows_ref);
    let scalar = reference::multi_and_popcount(&mut scalar_acc, &rows_ref);
    let (n, r) = (acc.len(), rows.len());
    assert_eq!(
        fused, scalar,
        "multi_and count diverged at {n} words, {r} rows"
    );
    assert_eq!(
        fused_acc, scalar_acc,
        "multi_and words diverged at {n} words, {r} rows"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Fused vs reference, bit for bit, on random ragged-tail inputs.
    #[test]
    fn dispatched_kernels_match_reference(pair in word_pairs()) {
        let (a, b, _cap) = pair;
        assert_kernels_match(&a, &b);
    }

    // Flipping a single bit must shift every kernel's answer exactly the
    // way the reference loops say it should.
    #[test]
    fn single_bit_deltas_track_reference(pair in word_pairs(), flip in 0usize..=309) {
        let (a, b, cap) = pair;
        let i = flip % cap;
        let mut a_flipped = a.clone();
        a_flipped[i / 64] ^= 1u64 << (i % 64);
        assert_kernels_match(&a_flipped, &b);
        // The delta between original and flipped must be internally
        // consistent: exactly one bit of |a| moved.
        let before = kernels::popcount(&a);
        let after = kernels::popcount(&a_flipped);
        assert_eq!(before.abs_diff(after), 1, "single-bit flip changed popcount by != 1");
    }

    // Batched multi-row AND agrees with the reference fold for any stack
    // of rows, including the empty stack (accumulator unchanged).
    #[test]
    fn multi_and_matches_reference(
        cap in 0usize..=310,
        raw_rows in proptest::collection::vec(
            proptest::collection::vec(ANY, 0..=310),
            0..6
        ),
        acc in proptest::collection::vec(ANY, 0..=310),
    ) {
        let mut acc_bits = acc;
        acc_bits.resize(cap, true);
        let packed_rows: Vec<Vec<u64>> = raw_rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.resize(cap, false);
                pack(&r)
            })
            .collect();
        assert_multi_and_matches(&pack(&acc_bits), &packed_rows);
    }

    // Survivor scans through the `BitSet` surface agree with iterating the
    // materialised intersection.
    #[test]
    fn bitset_scans_match_materialised_sets(
        cap in 1usize..=200,
        a_bits in proptest::collection::vec(ANY, 200usize),
        b_bits in proptest::collection::vec(ANY, 200usize),
    ) {
        let mut a = BitSet::new(cap);
        let mut b = BitSet::new(cap);
        for (i, &bit) in a_bits.iter().take(cap).enumerate() {
            if bit {
                a.insert(i);
            }
        }
        for (i, &bit) in b_bits.iter().take(cap).enumerate() {
            if bit {
                b.insert(i);
            }
        }
        let mut both = a.clone();
        both.intersect_with(&b);
        assert_eq!(a.intersection_len(&b), both.len());
        assert_eq!(a.first_intersection(&b), both.iter().next());
        assert_eq!(a.last_intersection(&b), both.iter().last());
        let mut only_a = a.clone();
        only_a.subtract(&b);
        assert_eq!(a.difference_len(&b), only_a.len());
        assert_eq!(a.first_difference(&b), only_a.iter().next());
    }
}

/// The full-scan extremes deserve deterministic (non-random) coverage at
/// each word-boundary capacity, up to two `multi_and_popcount` blocks.
#[test]
fn empty_and_full_extremes_match_reference() {
    for cap in [
        0usize, 1, 63, 64, 65, 127, 128, 191, 256, 300, 8191, 8192, 8193, 16448,
    ] {
        let empty = pack(&vec![false; cap]);
        let full = pack(&vec![true; cap]);
        assert_kernels_match(&empty, &full);
        assert_kernels_match(&full, &empty);
        assert_kernels_match(&full, &full);
        assert_kernels_match(&empty, &empty);
        assert_eq!(kernels::popcount(&full), cap, "full popcount at cap {cap}");
    }
}

/// Dense random words at every width the unroll remainder can take, and
/// across the wide widths.
#[test]
fn wide_word_vectors_match_reference() {
    let narrow = [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33];
    for n in narrow.into_iter().chain(WIDE_WORDS) {
        let a = words(n as u64 + 1, n);
        let b = words(n as u64 + 1000, n);
        assert_kernels_match(&a, &b);
    }
}

/// Scans over a sparse `b` (two words in three zeroed), so the first and
/// last survivors sit behind runs of empty words.
#[test]
fn sparse_scans_match_reference() {
    let narrow = [0usize, 1, 3, 4, 5, 16, 63, 130];
    for n in narrow.into_iter().chain(WIDE_WORDS) {
        let a = words(n as u64 + 7, n);
        let mut b = words(n as u64 + 77, n);
        for (i, w) in b.iter_mut().enumerate() {
            if i % 3 != 0 {
                *w = 0;
            }
        }
        assert_kernels_match(&a, &b);
    }
}

/// `multi_and_popcount` with 0, 1 and 5 rows at widths on both sides of
/// its 128-word cache block.
#[test]
fn multi_and_crosses_the_cache_block() {
    for n in WIDE_WORDS {
        let base = words(999, n);
        for row_count in [0u64, 1, 5] {
            let rows: Vec<Vec<u64>> = (0..row_count).map(|r| words(r + 3, n)).collect();
            assert_multi_and_matches(&base, &rows);
        }
    }
}
