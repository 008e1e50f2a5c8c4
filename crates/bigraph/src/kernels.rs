//! Block-oriented bitset kernels: the word-level hot loops behind every
//! [`BitSet`](crate::bitset::BitSet) operation the solvers spend their time
//! in.
//!
//! Table 4/5 workloads are kernel-bound: `denseMBB` and Algorithm 8
//! verification reduce to streams of AND + popcount over `u64` rows. This
//! module concentrates those streams into a small set of *fused* kernels so
//! a single pass does the work the call sites used to split across an
//! `intersect` pass plus a `len` pass:
//!
//! | Kernel | Fuses | Used by |
//! |--------|-------|---------|
//! | [`and_popcount`] | intersect + count | degree and greedy-score counts |
//! | [`and_popcount_rows`] | one intersect + count per member row | `denseMBB` side recounts |
//! | [`and_assign_count`] | in-place intersect + count | candidate inclusion |
//! | [`first_and`] | intersect + scan, prefix-pruned | survivor row scans |
//! | [`gather_bits`] | mask + pack, one `pext` per word | `LocalGraph::restrict` (bridging, verification) |
//!
//! # One implementation
//!
//! Each kernel has a single body: explicit unrolled u64 blocks with four
//! independent popcount accumulator chains. On x86_64 every count kernel is
//! instantiated twice, portably and under
//! `#[target_feature(enable = "popcnt")]` so `count_ones()` lowers to the
//! hardware `popcnt` instruction; the process detects POPCNT once and keeps
//! that choice. This is a platform selection, not a second backend: the
//! portable copy is the only path on CPUs without POPCNT, and both run the
//! same source.
//!
//! [`gather_bits`] is the same kind of choice. Its one body takes its
//! per-word step as an argument: BMI2's `pext`, which packs a word's masked
//! bits in one instruction, on CPUs that have BMI2 (detected once, like
//! POPCNT), and a loop over the masked bits elsewhere
//! ([`gather_bits_portable`]). Bridging and verification rest on it: with
//! the portable step, gathering a centred subgraph's rows cost more than
//! inducing it from the CSR did. AMD Zen 1 and Zen 2 report BMI2 but run
//! `pext` in microcode, tens of cycles a word; the gather has not been
//! measured on them.
//!
//! Why one: these blocked loops beat the plain iterator loops (AND +
//! popcount at 64 words: 57 → 34 ns), and no SSE2/AVX2 path ever made a
//! solve faster end to end. perfbench measures the per-call cost
//! (`kernels.and_popcount_ns`, `kernels.first_and_ns` with `--trace 1`) and
//! the end-to-end effect (the `dense-verify` workload).
//!
//! # Invariants
//!
//! Kernels operate on raw word slices and assume the caller's tail-bit
//! invariant: bits at positions `>= capacity` in the last word are zero.
//! `BitSet` maintains that invariant; the oracle suite in
//! `tests/tests/bitset_kernels.rs` checks every kernel against the plain
//! iterator loops on non-word-aligned capacities.

/// True when the CPU offers hardware POPCNT (cached after first query).
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_popcnt() -> bool {
    use std::sync::OnceLock;
    static HAS: OnceLock<bool> = OnceLock::new();
    *HAS.get_or_init(|| is_x86_feature_detected!("popcnt"))
}

/// True when the CPU offers BMI2 `pext` (and POPCNT, which every BMI2
/// CPU has); cached after the first query.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_bmi2() -> bool {
    use std::sync::OnceLock;
    static HAS: OnceLock<bool> = OnceLock::new();
    *HAS.get_or_init(|| is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("popcnt"))
}

/// Four-chain unrolled popcount over `words` — the shared count tail
/// every count kernel reduces through.
#[inline(always)]
fn popcount_chains(words: &[u64]) -> usize {
    let mut c = [0usize; 4];
    let chunks = words.chunks_exact(4);
    let rest = chunks.remainder();
    for w in chunks {
        c[0] += w[0].count_ones() as usize;
        c[1] += w[1].count_ones() as usize;
        c[2] += w[2].count_ones() as usize;
        c[3] += w[3].count_ones() as usize;
    }
    for &w in rest {
        c[0] += w.count_ones() as usize;
    }
    c[0] + c[1] + c[2] + c[3]
}

/// Defines a count kernel from one body, instantiated portably and — on
/// x86_64 — under `#[target_feature(enable = "popcnt")]`, picked at
/// runtime via [`has_popcnt`]. `#[inline(always)]` helpers called from
/// the body (e.g. [`popcount_chains`]) inline into both instantiations
/// and inherit the target feature.
macro_rules! popcnt_kernel {
    (
        $(#[$meta:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        $body:block
    ) => {
        $(#[$meta])*
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn portable($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            {
                /// The body compiled for POPCNT; call it only after
                /// `has_popcnt` returned true.
                #[target_feature(enable = "popcnt")]
                fn hardware($($arg: $ty),*) $(-> $ret)? $body

                if has_popcnt() {
                    // SAFETY: `has_popcnt` verified the CPU feature.
                    return unsafe { hardware($($arg),*) };
                }
            }
            portable($($arg),*)
        }
    };
}

popcnt_kernel! {
    /// `popcount(a)`: number of set bits.
    pub fn popcount(a: &[u64]) -> usize {
        popcount_chains(a)
    }
}

/// Four-chain unrolled `popcount(a & b)`, shared by the AND-count kernels.
#[inline(always)]
fn and_popcount_chains(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut c = [0usize; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        c[0] += (x[0] & y[0]).count_ones() as usize;
        c[1] += (x[1] & y[1]).count_ones() as usize;
        c[2] += (x[2] & y[2]).count_ones() as usize;
        c[3] += (x[3] & y[3]).count_ones() as usize;
    }
    for (x, y) in ra.iter().zip(rb) {
        c[0] += (x & y).count_ones() as usize;
    }
    c[0] + c[1] + c[2] + c[3]
}

popcnt_kernel! {
    /// Fused `popcount(a & b)` — `intersection_len` without materialising.
    pub fn and_popcount(a: &[u64], b: &[u64]) -> usize {
        and_popcount_chains(a, b)
    }
}

popcnt_kernel! {
    /// `out[x] = popcount(row(x) & other)` for every set bit `x` of
    /// `members`, where `rows` holds the rows back to back, `other.len()`
    /// words each, and row `x` starts at word `x * other.len()`. The
    /// entries of `out` at other positions are left as they were. One call
    /// counts a whole side of candidates against the other side's set.
    pub fn and_popcount_rows(rows: &[u64], members: &[u64], other: &[u64], out: &mut [u32]) {
        let n = other.len();
        for (wi, &word) in members.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let x = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out[x] = and_popcount_chains(&rows[x * n..(x + 1) * n], other) as u32;
            }
        }
    }
}

popcnt_kernel! {
    /// Fused in-place `a &= b` returning the new popcount in the same pass
    /// (four accumulator chains).
    pub fn and_assign_count(a: &mut [u64], b: &[u64]) -> usize {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (mut s0, mut s1, mut s2, mut s3) = (0usize, 0usize, 0usize, 0usize);
        let mut i = 0usize;
        while i + 4 <= n {
            let w0 = a[i] & b[i];
            let w1 = a[i + 1] & b[i + 1];
            let w2 = a[i + 2] & b[i + 2];
            let w3 = a[i + 3] & b[i + 3];
            a[i] = w0;
            a[i + 1] = w1;
            a[i + 2] = w2;
            a[i + 3] = w3;
            s0 += w0.count_ones() as usize;
            s1 += w1.count_ones() as usize;
            s2 += w2.count_ones() as usize;
            s3 += w3.count_ones() as usize;
            i += 4;
        }
        while i < n {
            let w = a[i] & b[i];
            a[i] = w;
            s0 += w.count_ones() as usize;
            i += 1;
        }
        s0 + s1 + s2 + s3
    }
}

/// First survivor of `a & b` (prefix-pruned: stops at the first hit).
pub fn first_and(a: &[u64], b: &[u64]) -> Option<usize> {
    debug_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let w = x & y;
        if w != 0 {
            return Some(i * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

/// The body of [`gather_bits`], with `pext(word, mask)` as its per-word
/// step: each word's masked bits are packed to the low end and appended
/// to `out` at the next free bit.
#[inline(always)]
fn gather_with(row: &[u64], mask: &[u64], out: &mut [u64], pext: impl Fn(u64, u64) -> u64) {
    debug_assert_eq!(row.len(), mask.len());
    // `pending` holds the packed bits not yet stored, `filled` of them
    // (always fewer than 64).
    let (mut pending, mut filled, mut next) = (0u64, 0u32, 0usize);
    for (&word, &m) in row.iter().zip(mask) {
        let bits = pext(word, m);
        pending |= bits << filled;
        let total = filled + m.count_ones();
        if total >= 64 {
            out[next] = pending;
            next += 1;
            // The bits that did not fit; none when `pending` was empty.
            pending = if filled == 0 {
                0
            } else {
                bits >> (64 - filled)
            };
            filled = total - 64;
        } else {
            filled = total;
        }
    }
    if filled > 0 {
        out[next] = pending;
        next += 1;
    }
    out[next..].fill(0);
}

/// Packs the bits of `row` at the positions `mask` selects: bit `i` of
/// `out` is the bit of `row` at the `i`-th set bit of `mask`. `out` needs
/// `popcount(mask).div_ceil(64)` words; any beyond those are zeroed. One
/// call gathers a row of a bitset graph into the subgraph a mask induces.
pub fn gather_bits(row: &[u64], mask: &[u64], out: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    {
        /// The body with BMI2 `pext` as its step; call it only after
        /// `has_bmi2` returned true.
        #[target_feature(enable = "bmi2,popcnt")]
        fn hardware(row: &[u64], mask: &[u64], out: &mut [u64]) {
            // The closure inherits `hardware`'s target features, so the
            // intrinsic is safe to call in it.
            gather_with(row, mask, out, |word, m| {
                std::arch::x86_64::_pext_u64(word, m)
            })
        }

        if has_bmi2() {
            // SAFETY: `has_bmi2` verified the CPU features.
            return unsafe { hardware(row, mask, out) };
        }
    }
    gather_bits_portable(row, mask, out)
}

/// [`gather_bits`] with the portable per-word step, which visits the
/// word's masked set bits one by one: the body that CPUs without BMI2
/// run, public so that the oracle suite checks it on CPUs that have it.
pub fn gather_bits_portable(row: &[u64], mask: &[u64], out: &mut [u64]) {
    gather_with(row, mask, out, |word, m| {
        let (mut bits, mut packed) = (word & m, 0u64);
        while bits != 0 {
            let low = bits & bits.wrapping_neg();
            // A set bit lands at its rank among the mask's bits.
            packed |= 1 << (m & (low - 1)).count_ones();
            bits ^= low;
        }
        packed
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_counts_handle_saturated_and_empty_words() {
        for n in [0usize, 15, 16, 17, 48, 100] {
            let full = vec![u64::MAX; n];
            let empty = vec![0u64; n];
            assert_eq!(popcount(&full), n * 64);
            assert_eq!(popcount(&empty), 0);
            assert_eq!(and_popcount(&full, &empty), 0);
        }
    }
}
