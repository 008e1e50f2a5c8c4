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
