//! Dense bitset subgraphs for the exhaustive-search kernels.
//!
//! Every graph that reaches `basicBB` / `denseMBB` (Algorithms 1 and 3) is
//! either a dense synthetic input or a vertex-centred subgraph of size
//! ≲ δ̈(G), so a dense adjacency-bitset representation is the right trade:
//! candidate intersection (`CB ∩ N(u)`), reduction degree counts and the
//! Lemma 3 density test all become a handful of word operations per row.
//! Bridging builds each centred subgraph that passes its size prune as a
//! `LocalGraph` too, and runs its core peel
//! ([`crate::core_decomp::local_core_decomposition`]) and its local greedy
//! on the rows.
//!
//! A dense enough graph is copied to rows once, whole
//! ([`LocalGraph::from_graph`]); every subgraph is then cut from that copy
//! by two masks ([`LocalGraph::restrict`]), each row packed by one
//! [`kernels::gather_bits`] call, without a walk of any adjacency list.
//! Bridging and verification cut their centred subgraphs from the Lemma 4
//! residual this way.
//!
//! # Cache-blocked layout
//!
//! Adjacency rows are stored in one contiguous arena per side
//! (`RowArena`-style `rows × words_per_row` words) instead of one heap
//! allocation per row. A vertex-centred subgraph of size ~ bidegeneracy + 1
//! is then a single dense block — e.g. 128 vertices × 2 words = 2 KiB per
//! side — that stays resident in L1/L2 for the whole branch-and-bound run,
//! and row scans walk sequential memory instead of chasing per-row boxes.
//! Rows are handed out as borrowed [`RowRef`] views; every
//! [`crate::bitset::BitSet`] operation accepts them directly through the
//! [`Bits`] trait, so no row is ever copied just to intersect against it.

use crate::bitset::{iter_words, BitSet, Bits, Iter};
use crate::graph::BipartiteGraph;
use crate::kernels;

/// A vertex of a [`LocalGraph`]: side flag plus local index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LocalVertex {
    /// True for the left side.
    pub left: bool,
    /// Index within the side.
    pub index: u32,
}

impl LocalVertex {
    /// Left-side local vertex.
    pub fn left(index: u32) -> Self {
        LocalVertex { left: true, index }
    }

    /// Right-side local vertex.
    pub fn right(index: u32) -> Self {
        LocalVertex { left: false, index }
    }
}

/// One side's adjacency rows in a single contiguous arena.
#[derive(Clone, Debug)]
struct RowArena {
    /// `rows * words_per_row` words, row-major.
    words: Vec<u64>,
    words_per_row: usize,
    /// Bit capacity of each row (the size of the *other* side).
    row_capacity: usize,
    rows: usize,
}

impl RowArena {
    fn new(rows: usize, row_capacity: usize) -> RowArena {
        let words_per_row = row_capacity.div_ceil(64);
        RowArena {
            words: vec![0u64; rows * words_per_row],
            words_per_row,
            row_capacity,
            rows,
        }
    }

    /// The arena of a CSR side: row `i` holds `neighbors(i)`.
    fn from_csr<'g>(
        rows: usize,
        row_capacity: usize,
        neighbors: impl Fn(u32) -> &'g [u32],
    ) -> RowArena {
        let mut arena = RowArena::new(rows, row_capacity);
        for i in 0..rows {
            for &bit in neighbors(i as u32) {
                arena.insert(i, bit as usize);
            }
        }
        arena
    }

    /// The rows in `rows`, each packed to the bits in `columns`: row `i`
    /// of the result is the `i`-th member of `rows`, and its bit `j` the
    /// `j`-th member of `columns`. One [`kernels::gather_bits`] call a
    /// row.
    fn gather(&self, rows: &BitSet, columns: &BitSet) -> RowArena {
        debug_assert_eq!(rows.capacity(), self.rows);
        debug_assert_eq!(columns.capacity(), self.row_capacity);
        let mut out = RowArena::new(rows.len(), columns.len());
        if out.words_per_row > 0 {
            let packed = out.words.chunks_exact_mut(out.words_per_row);
            for (row, i) in packed.zip(rows.iter()) {
                kernels::gather_bits(self.row(i), columns.words(), row);
            }
        }
        out
    }

    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        debug_assert!(i < self.rows);
        &self.words[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    #[inline]
    fn insert(&mut self, i: usize, bit: usize) {
        debug_assert!(i < self.rows && bit < self.row_capacity);
        self.words[i * self.words_per_row + bit / 64] |= 1u64 << (bit % 64);
    }

    #[inline]
    fn contains(&self, i: usize, bit: usize) -> bool {
        debug_assert!(i < self.rows && bit < self.row_capacity);
        (self.words[i * self.words_per_row + bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// `out[i] = |row(i) ∩ other|` for every `i ∈ members`, leaving the
    /// other entries of `out` alone, in one kernel call for the whole set.
    #[inline]
    fn degrees_in(&self, members: &BitSet, other: &BitSet, out: &mut [u32]) {
        debug_assert_eq!(members.capacity(), self.rows);
        debug_assert_eq!(other.capacity(), self.row_capacity);
        kernels::and_popcount_rows(&self.words, members.words(), other.words(), out);
    }
}

/// A borrowed adjacency row of a [`LocalGraph`]: a read-only bitset view
/// into the side arena. Copy-cheap; interoperates with every [`BitSet`]
/// operation through the [`Bits`] trait.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    words: &'a [u64],
    capacity: usize,
}

impl Bits for RowRef<'_> {
    #[inline]
    fn words(&self) -> &[u64] {
        self.words
    }

    #[inline]
    fn bit_capacity(&self) -> usize {
        self.capacity
    }
}

impl<'a> RowRef<'a> {
    /// Exclusive upper bound on stored values.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tests membership of `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of stored values (one fused popcount pass).
    #[inline]
    pub fn len(&self) -> usize {
        kernels::popcount(self.words)
    }

    /// True when no value is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates the stored values in increasing order.
    pub fn iter(&self) -> Iter<'a> {
        iter_words(self.words)
    }

    /// Copies the row into an owned [`BitSet`].
    pub fn to_bitset(&self) -> BitSet {
        BitSet::from_words(self.words, self.capacity)
    }
}

impl std::fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A small bipartite graph with arena-backed bitset adjacency on both sides.
#[derive(Clone, Debug)]
pub struct LocalGraph {
    /// Row `u` = bitset over right-local indices adjacent to left `u`.
    left_adj: RowArena,
    /// Row `v` = bitset over left-local indices adjacent to right `v`.
    right_adj: RowArena,
}

impl LocalGraph {
    /// An empty graph with the given side sizes.
    pub fn new(num_left: usize, num_right: usize) -> LocalGraph {
        LocalGraph {
            left_adj: RowArena::new(num_left, num_right),
            right_adj: RowArena::new(num_right, num_left),
        }
    }

    /// Builds from an explicit edge list of `(left, right)` local indices.
    pub fn from_edges(
        num_left: usize,
        num_right: usize,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> LocalGraph {
        let mut g = LocalGraph::new(num_left, num_right);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Extracts the subgraph of `graph` induced by the given original-side
    /// index lists. Local index `i` on each side corresponds to
    /// `left_ids[i]` / `right_ids[i]`.
    pub fn induced(graph: &BipartiteGraph, left_ids: &[u32], right_ids: &[u32]) -> LocalGraph {
        let mut right_map = vec![u32::MAX; graph.num_right()];
        for (i, &r) in right_ids.iter().enumerate() {
            right_map[r as usize] = i as u32;
        }
        let mut local = LocalGraph::new(left_ids.len(), right_ids.len());
        for (i, &l) in left_ids.iter().enumerate() {
            for &r in graph.neighbors_left(l) {
                let j = right_map[r as usize];
                if j != u32::MAX {
                    local.add_edge(i as u32, j);
                }
            }
        }
        local
    }

    /// The whole of `graph` as bitset rows, each side's arena filled from
    /// its own CSR rows. Local ids are `graph`'s ids.
    pub fn from_graph(graph: &BipartiteGraph) -> LocalGraph {
        let (nl, nr) = (graph.num_left(), graph.num_right());
        LocalGraph {
            left_adj: RowArena::from_csr(nl, nr, |u| graph.neighbors_left(u)),
            right_adj: RowArena::from_csr(nr, nl, |v| graph.neighbors_right(v)),
        }
    }

    /// The subgraph induced by the left vertices in `left` and the right
    /// vertices in `right`. Local index `i` on each side is the `i`-th
    /// member of its mask, as in [`LocalGraph::induced`] with the masks'
    /// members as the id lists. Each row is packed from this graph's row
    /// by [`kernels::gather_bits`], without a walk of any adjacency list.
    pub fn restrict(&self, left: &BitSet, right: &BitSet) -> LocalGraph {
        LocalGraph {
            left_adj: self.left_adj.gather(left, right),
            right_adj: self.right_adj.gather(right, left),
        }
    }

    /// Adds an edge between left `u` and right `v`.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.left_adj.insert(u as usize, v as usize);
        self.right_adj.insert(v as usize, u as usize);
    }

    /// Number of left vertices.
    #[inline]
    pub fn num_left(&self) -> usize {
        self.left_adj.rows
    }

    /// Number of right vertices.
    #[inline]
    pub fn num_right(&self) -> usize {
        self.right_adj.rows
    }

    /// Total vertex count.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_left() + self.num_right()
    }

    /// Number of edges (counted from the left arena in one pass).
    pub fn num_edges(&self) -> usize {
        kernels::popcount(&self.left_adj.words)
    }

    /// Edge density relative to the complete bipartite graph.
    pub fn density(&self) -> f64 {
        let denom = self.num_left() as f64 * self.num_right() as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.num_edges() as f64 / denom
        }
    }

    /// Adjacency row of left vertex `u` (bitset view over right indices).
    #[inline]
    pub fn left_row(&self, u: u32) -> RowRef<'_> {
        RowRef {
            words: self.left_adj.row(u as usize),
            capacity: self.left_adj.row_capacity,
        }
    }

    /// Adjacency row of right vertex `v` (bitset view over left indices).
    #[inline]
    pub fn right_row(&self, v: u32) -> RowRef<'_> {
        RowRef {
            words: self.right_adj.row(v as usize),
            capacity: self.right_adj.row_capacity,
        }
    }

    /// Adjacency row of global id `g`: left `0..num_left`, then right
    /// (the ids [`crate::core_decomp::local_core_decomposition`] reports).
    #[inline]
    pub fn row(&self, g: usize) -> RowRef<'_> {
        let nl = self.num_left();
        if g < nl {
            self.left_row(g as u32)
        } else {
            self.right_row((g - nl) as u32)
        }
    }

    /// Edge test.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.left_adj.contains(u as usize, v as usize)
    }

    /// Degree of left vertex `u` restricted to a right-side candidate set
    /// (one fused AND + popcount pass over the arena row).
    #[inline]
    pub fn left_degree_in<B: Bits + ?Sized>(&self, u: u32, candidates: &B) -> usize {
        debug_assert_eq!(candidates.bit_capacity(), self.left_adj.row_capacity);
        kernels::and_popcount(self.left_adj.row(u as usize), candidates.words())
    }

    /// Degree of right vertex `v` restricted to a left-side candidate set.
    #[inline]
    pub fn right_degree_in<B: Bits + ?Sized>(&self, v: u32, candidates: &B) -> usize {
        debug_assert_eq!(candidates.bit_capacity(), self.right_adj.row_capacity);
        kernels::and_popcount(self.right_adj.row(v as usize), candidates.words())
    }

    /// Writes `deg(u, candidates)` to `out[u]` for every left `u ∈ members`,
    /// in one call for the whole set. The other entries of `out` are left
    /// as they were.
    #[inline]
    pub fn left_degrees_in(&self, members: &BitSet, candidates: &BitSet, out: &mut [u32]) {
        self.left_adj.degrees_in(members, candidates, out);
    }

    /// Writes `deg(v, candidates)` to `out[v]` for every right `v ∈ members`.
    #[inline]
    pub fn right_degrees_in(&self, members: &BitSet, candidates: &BitSet, out: &mut [u32]) {
        self.right_adj.degrees_in(members, candidates, out);
    }

    /// Validates that `(a, b)` is a biclique (all local indices).
    pub fn is_biclique(&self, a: &[u32], b: &[u32]) -> bool {
        a.iter().all(|&u| b.iter().all(|&v| self.has_edge(u, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn empty_local_graph() {
        let g = LocalGraph::new(0, 0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
    }

    #[test]
    fn add_edge_updates_both_sides() {
        let mut g = LocalGraph::new(3, 3);
        g.add_edge(1, 2);
        assert!(g.has_edge(1, 2));
        assert!(g.left_row(1).contains(2));
        assert!(g.right_row(2).contains(1));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn row_refs_are_live_bitset_views() {
        let g = LocalGraph::from_edges(2, 70, [(0, 0), (0, 64), (0, 69), (1, 3)]);
        let row = g.left_row(0);
        assert_eq!(row.len(), 3);
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![0, 64, 69]);
        assert_eq!(row.to_bitset().to_vec(), vec![0, 64, 69]);
        assert!(!row.is_empty());
        let mut cand = BitSet::new(70);
        cand.insert(64);
        cand.insert(5);
        assert_eq!(cand.intersection_len(&row), 1);
        let mut copy = BitSet::full(70);
        assert_eq!(copy.and_assign_count(&row), 3);
    }

    #[test]
    fn induced_subgraph_preserves_edges() {
        let big = generators::uniform_edges(20, 20, 120, 3);
        let left_ids = [2u32, 5, 7, 11];
        let right_ids = [0u32, 3, 19];
        let local = LocalGraph::induced(&big, &left_ids, &right_ids);
        assert_eq!(local.num_left(), 4);
        assert_eq!(local.num_right(), 3);
        for (i, &l) in left_ids.iter().enumerate() {
            for (j, &r) in right_ids.iter().enumerate() {
                assert_eq!(
                    local.has_edge(i as u32, j as u32),
                    big.has_edge(l, r),
                    "L{l}-R{r}"
                );
            }
        }
    }

    #[test]
    fn restrict_of_the_whole_graph_is_the_induced_subgraph() {
        let big = generators::uniform_edges(70, 130, 2000, 5);
        let rows = LocalGraph::from_graph(&big);
        let left_ids = [0u32, 3, 63, 64, 65, 69];
        let right_ids: Vec<u32> = (0..130).filter(|v| v % 3 != 1).collect();
        let mask = |ids: &[u32], capacity| {
            let mut mask = BitSet::new(capacity);
            ids.iter().for_each(|&i| mask.insert(i as usize));
            mask
        };
        let cut = rows.restrict(&mask(&left_ids, 70), &mask(&right_ids, 130));
        let induced = LocalGraph::induced(&big, &left_ids, &right_ids);
        for u in 0..left_ids.len() as u32 {
            assert_eq!(cut.left_row(u).words, induced.left_row(u).words, "L{u}");
        }
        for v in 0..right_ids.len() as u32 {
            assert_eq!(cut.right_row(v).words, induced.right_row(v).words, "R{v}");
        }
        // An empty side leaves rows of no words.
        let none = rows.restrict(&mask(&left_ids, 70), &BitSet::new(130));
        assert_eq!((none.num_left(), none.num_right()), (6, 0));
        assert_eq!(none.num_edges(), 0);
    }

    #[test]
    fn degree_in_candidate_sets() {
        let g = LocalGraph::from_edges(2, 4, [(0, 0), (0, 1), (0, 2), (1, 3)]);
        let mut cb = BitSet::new(4);
        cb.insert(1);
        cb.insert(3);
        assert_eq!(g.left_degree_in(0, &cb), 1);
        assert_eq!(g.left_degree_in(1, &cb), 1);
        let mut ca = BitSet::new(2);
        ca.insert(0);
        ca.insert(1);
        assert_eq!(g.right_degree_in(0, &ca), 1);
        // The batched counts write members only.
        let mut out = [7u32; 4];
        g.left_degrees_in(&ca, &cb, &mut out);
        assert_eq!(out, [1, 1, 7, 7]);
        g.right_degrees_in(&cb, &ca, &mut out);
        assert_eq!(out, [1, 1, 7, 1]);
    }

    #[test]
    fn is_biclique_checks_all_pairs() {
        let g = LocalGraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0)]);
        assert!(g.is_biclique(&[0], &[0, 1]));
        assert!(!g.is_biclique(&[0, 1], &[0, 1]));
        assert!(g.is_biclique(&[], &[0, 1]));
    }

    #[test]
    fn density_matches_definition() {
        let g = LocalGraph::from_edges(2, 5, [(0, 0), (1, 1), (1, 2)]);
        assert!((g.density() - 0.3).abs() < 1e-12);
    }
}
