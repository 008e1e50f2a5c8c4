//! Oracle tests for the fused bitset kernels.
//!
//! Every public kernel in `mbb_bigraph::kernels` must be bit-for-bit
//! identical to the plain iterator loops in [`reference`]. The suite drives
//! random word vectors with ragged tails (`capacity % 64 != 0`), single-bit
//! deltas and scans through the `BitSet` surface, plus deterministic wide
//! inputs: empty/full extremes up to 16448 bits, and random words at widths
//! that cross the four-word unroll. The batched side counts of
//! `LocalGraph` are checked against one count per member. `gather_bits`
//! is checked in both its bodies: the dispatched one, which is BMI2
//! `pext` on CPUs that have it, and the portable one.

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::kernels;
use mbb_bigraph::local::LocalGraph;
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

    /// `a &= b` then a separate `popcount(a)` pass (the unfused idiom).
    pub fn and_assign_count(a: &mut [u64], b: &[u64]) -> usize {
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x &= *y;
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

    /// `out[x] = popcount(row(x) & other)` for every bit `x` set in
    /// `members`, testing every bit; row `x` is the `other.len()` words at
    /// `x * other.len()` in `rows`.
    pub fn and_popcount_rows(rows: &[u64], members: &[u64], other: &[u64], out: &mut [u32]) {
        let n = other.len();
        for x in 0..members.len() * 64 {
            if (members[x / 64] >> (x % 64)) & 1 == 1 {
                out[x] = and_popcount(&rows[x * n..(x + 1) * n], other) as u32;
            }
        }
    }

    /// Bit `i` of the result is the bit of `row` at the `i`-th set bit of
    /// `mask`, testing every position; `popcount(mask).div_ceil(64)`
    /// words.
    pub fn gather_bits(row: &[u64], mask: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; popcount(mask).div_ceil(64)];
        let mut i = 0;
        for x in 0..mask.len() * 64 {
            if (mask[x / 64] >> (x % 64)) & 1 == 1 {
                out[i / 64] |= ((row[x / 64] >> (x % 64)) & 1) << (i % 64);
                i += 1;
            }
        }
        out
    }
}

/// Which body `kernels::gather_bits` dispatches to on this CPU.
fn dispatched_gather() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("bmi2") {
        return "pext";
    }
    "portable"
}

/// Rows in the `and_popcount_rows` cases: more than one member word.
const ROWS: usize = 70;

/// Widths (in words) of the deterministic wide cases.
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
    let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    (0..n).map(|_| rng.next()).collect()
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
        kernels::first_and(a, b),
        reference::first_and(a, b),
        "first_and diverged at {n} words"
    );

    // The mutating kernel: identical count AND identical resulting words.
    let mut fused_words = a.to_vec();
    let mut scalar_words = a.to_vec();
    let fused_count = kernels::and_assign_count(&mut fused_words, b);
    let scalar_count = reference::and_assign_count(&mut scalar_words, b);
    assert_eq!(
        fused_count, scalar_count,
        "and_assign_count count diverged at {n} words"
    );
    assert_eq!(
        fused_words, scalar_words,
        "and_assign_count words diverged at {n} words"
    );

    // The row kernel: `ROWS` rows mixed from `a` and `b`, counted against
    // `b` for a member mask over two words. Non-members keep the sentinel.
    let rows: Vec<u64> = (0..ROWS as u32)
        .flat_map(|r| {
            a.iter()
                .zip(b)
                .map(move |(x, y)| x.rotate_left(r) ^ y.rotate_right(3 * r))
        })
        .collect();
    let mut members = words(a.first().map_or(0, |w| w ^ n as u64), 2);
    members[1] &= (1 << (ROWS - 64)) - 1;
    let mut fused_out = vec![u32::MAX; ROWS];
    let mut scalar_out = vec![u32::MAX; ROWS];
    kernels::and_popcount_rows(&rows, &members, b, &mut fused_out);
    reference::and_popcount_rows(&rows, &members, b, &mut scalar_out);
    assert_eq!(
        fused_out, scalar_out,
        "and_popcount_rows diverged at {n} words"
    );

    // The gather: `b` selects the bits of `a`, with one spare output word
    // that the kernel must zero.
    let want = reference::gather_bits(a, b);
    type Gather = fn(&[u64], &[u64], &mut [u64]);
    let bodies: [(&str, Gather); 2] = [
        (dispatched_gather(), kernels::gather_bits),
        ("portable", kernels::gather_bits_portable),
    ];
    for (body, gather) in bodies {
        let mut out = vec![u64::MAX; want.len() + 1];
        gather(a, b, &mut out);
        assert_eq!(
            out[..want.len()],
            want[..],
            "gather_bits ({body}) diverged at {n} words"
        );
        assert_eq!(out[want.len()], 0, "gather_bits ({body}) left a spare word");
    }
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
    }
}

/// The full-scan extremes deserve deterministic (non-random) coverage at
/// each word-boundary capacity, up to 257 words.
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

/// Scans over a sparse `b` (two words in three zeroed), so the first
/// survivor sits behind runs of empty words.
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

/// A deterministic xorshift stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random subset of `0..n`, each value kept with probability `pct`%.
fn random_subset(rng: &mut XorShift, n: usize, pct: usize) -> BitSet {
    let mut set = BitSet::new(n);
    for i in 0..n {
        if rng.below(100) < pct {
            set.insert(i);
        }
    }
    set
}

/// `LocalGraph::left_degrees_in` / `right_degrees_in` write, for every
/// member, the count `left_degree_in` / `right_degree_in` gives, and leave
/// every other entry as it was. Sides of 1..=300 vertices give rows of one
/// to five words with ragged tails; the first cases pair one-word rows with
/// member sets wider than one word.
#[test]
fn batched_side_counts_match_per_member_counts() {
    let mut rng = XorShift(0x5eed_1234_abcd_0001);
    let mut sizes = vec![
        (100, 50),
        (50, 100),
        (300, 64),
        (64, 300),
        (65, 129),
        (1, 1),
    ];
    for _ in 0..60 {
        sizes.push((1 + rng.below(300), 1 + rng.below(300)));
    }
    const STALE: u32 = u32::MAX;
    for &(nl, nr) in &sizes {
        let density = 10 + rng.below(86);
        let mut g = LocalGraph::new(nl, nr);
        for u in 0..nl as u32 {
            for v in 0..nr as u32 {
                if rng.below(100) < density {
                    g.add_edge(u, v);
                }
            }
        }
        let keep = 20 + rng.below(81);
        let ca = random_subset(&mut rng, nl, keep);
        let keep = 20 + rng.below(81);
        let cb = random_subset(&mut rng, nr, keep);

        let mut left = vec![STALE; nl];
        g.left_degrees_in(&ca, &cb, &mut left);
        for (u, &got) in left.iter().enumerate() {
            let want = if ca.contains(u) {
                g.left_degree_in(u as u32, &cb) as u32
            } else {
                STALE
            };
            assert_eq!(got, want, "{nl}x{nr}: left {u}");
        }
        let mut right = vec![STALE; nr];
        g.right_degrees_in(&cb, &ca, &mut right);
        for (v, &got) in right.iter().enumerate() {
            let want = if cb.contains(v) {
                g.right_degree_in(v as u32, &ca) as u32
            } else {
                STALE
            };
            assert_eq!(got, want, "{nl}x{nr}: right {v}");
        }
    }
}
