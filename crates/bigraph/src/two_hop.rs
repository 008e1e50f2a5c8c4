//! 2-hop neighbourhoods (`N2`, `N≤2` — Definitions 1 and 2), the one
//! pass over them, and the bicore peel's witness store.
//!
//! For a vertex `u` of a bipartite graph, `N2(u)` is the set of vertices at
//! distance exactly 2 — necessarily on the *same* side as `u` — and
//! `N≤2(u) = N(u) ∪ N2(u)`. Observation 4 of the paper: every biclique
//! containing `u` lives inside `{u} ∪ N≤2(u)`, which is what makes
//! vertex-centred subgraphs (Definition 6) a complete search decomposition.
//!
//! # The pair pass
//!
//! Every whole-graph reader of 2-hop structure needs the same walk: each
//! same-side pair `a < b` that shares a neighbour, with the number of
//! neighbours it shares. Lemma 9 prices the bicore decomposition
//! (Algorithm 7) at exactly this walk, `O(Σ |N≤2(v)|)`. This module's
//! crate-private pair visitor is the only whole-graph wedge loop in the
//! crate. Sources `a` ascend, so `a`'s position in each neighbour `m`'s
//! sorted row is the number of earlier sources `m` has met. The visitor
//! keeps that number per `m` and walks each wedge `a – m – b` once, from
//! its smaller end `a`, without a search. Each source walks its middles in
//! the order its caller lays out, and the visitor reports each pair with
//! the first wedge that reached it. It tallies `a`'s partners in arrays
//! the size of the side: `O(Σ_m deg(m)²)` time and `O(|L| + |R|)`
//! scratch. It feeds
//!
//! * [`TwoHopIndex`], the bicore peel's witness store;
//! * [`all_n_le2_sizes`];
//! * one-mode projection, [`project`](crate::projection::project);
//! * butterfly counting,
//!   [`count_butterflies`](crate::butterfly::count_butterflies).
//!
//! [`n2_neighbors`] is the single-vertex walk, for callers that need one
//! `N2` list (each anchored query takes it), and the oracle the tests
//! check the pass against.
//!
//! # The witness store
//!
//! [`TwoHopIndex`] watches each 2-hop pair at one common neighbour, its
//! *witness*, instead of counting the neighbours the pair shares.
//!
//! * **Layout.** One bit per wedge: each middle `m` owns a triangle of
//!   `C(deg m, 2)` bits, bit `(i, j)` for the ends at positions `i < j`
//!   of its sorted row. The bit is set if and only if `m` is that pair's
//!   witness, so every pair has exactly one set bit.
//! * **Construction.** One run of the pair pass over each side. Every
//!   source walks its middles in descending (core number, degree, id), so
//!   the first middle that reaches a partner is the common neighbour with
//!   the largest of those triples; the pass sets that bit and counts each
//!   vertex's `|N2|`. The walk is a copy of the side's rows, filled middle
//!   by middle in that order after one sort of the vertices, so no row is
//!   sorted.
//! * **Cost.** A core decomposition, `O(n + |E|)`; one sort of the
//!   vertices, `O(n log n)`; the row copy, `O(|E|)`; the pair pass,
//!   `O(Σ_m deg(m)²)`.
//! * **Memory.** `Σ_m C(deg m, 2) / 8` bytes of bits, plus 8 bytes per
//!   vertex of triangle offsets and 4 of `|N2|`. While it builds, the row
//!   copy adds 4 bytes per edge. A pair that shares `c` neighbours costs
//!   `c` bits, where a `u32` partner and a `u32` count cost 64: the bits
//!   are the smaller store while pairs share fewer than 64 neighbours on
//!   average. Only graphs dense enough for more make them larger: the
//!   pairs of a 128 × 128 graph share about 63 neighbours at 70% density
//!   and 82 at 80%.
//!
//! The bicore peel ([`bicore`](crate::bicore)) moves a bit when its
//! witness dies and both ends survive.

use std::cmp::Reverse;

use crate::core_decomp::core_decomposition;
use crate::graph::{BipartiteGraph, Side, Vertex};

/// Computes `N2(v)`: same-side vertices at distance exactly 2, sorted,
/// excluding `v` itself.
pub fn n2_neighbors(graph: &BipartiteGraph, v: Vertex) -> Vec<u32> {
    let same_side_count = match v.side {
        Side::Left => graph.num_left(),
        Side::Right => graph.num_right(),
    };
    let mut mark = vec![false; same_side_count];
    for &mid in graph.neighbors(v) {
        let mid_vertex = Vertex {
            side: v.side.opposite(),
            index: mid,
        };
        for &w in graph.neighbors(mid_vertex) {
            mark[w as usize] = true;
        }
    }
    mark[v.index as usize] = false;
    mark.iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i as u32))
        .collect()
}

/// The first wedge `a – m – b` the pair visitor walked for a pair: its
/// middle `m` (a local id on the other side), and the positions of `a`
/// and `b` in `m`'s sorted row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wedge {
    pub(crate) middle: u32,
    pub(crate) at_a: u32,
    pub(crate) at_b: u32,
}

/// `side`'s adjacency, every row ascending: the pair visitor's walk for
/// a caller that needs no order of middles.
pub(crate) fn ascending(graph: &BipartiteGraph, side: Side) -> &[u32] {
    match side {
        Side::Left => graph.left_neighbors(),
        Side::Right => graph.right_neighbors(),
    }
}

/// The pair visitor: calls `visit(a, b, common, first)` once for every
/// pair of `side`'s vertices `a < b` (local ids) with `common ≥ 1` common
/// neighbours, where `first` is the first wedge that reached the pair.
/// `walk` holds `side`'s rows at the offsets of its CSR, each listing the
/// source's middles in the order the source walks them. Sources `a`
/// ascend; one source's partners come in no fixed order.
pub(crate) fn for_each_pair(
    graph: &BipartiteGraph,
    side: Side,
    walk: &[u32],
    mut visit: impl FnMut(u32, u32, u32, Wedge),
) {
    let (offsets, mids) = match side {
        Side::Left => (graph.left_offsets(), graph.num_right()),
        Side::Right => (graph.right_offsets(), graph.num_left()),
    };
    let size = offsets.len() - 1;
    let row = |index| {
        graph.neighbors(Vertex {
            side: side.opposite(),
            index,
        })
    };
    let mut common = vec![0u32; size];
    // first[b]: the middle of the first wedge that reached b, and b's
    // position in its row.
    let mut first = vec![(0u32, 0u32); size];
    let mut partners: Vec<u32> = Vec::with_capacity(size);
    // passed[m]: how many of m's neighbours have been sources; a sits at
    // that position of m's sorted row.
    let mut passed = vec![0u32; mids];
    for a in 0..size {
        for &m in &walk[offsets[a]..offsets[a + 1]] {
            let ends = row(m);
            let at = &mut passed[m as usize];
            debug_assert_eq!(ends[*at as usize], a as u32);
            *at += 1;
            for (j, &b) in (*at..).zip(&ends[*at as usize..]) {
                let count = &mut common[b as usize];
                if *count == 0 {
                    partners.push(b);
                    first[b as usize] = (m, j);
                }
                *count += 1;
            }
        }
        for b in partners.drain(..) {
            let (middle, at_b) = first[b as usize];
            let wedge = Wedge {
                middle,
                at_a: passed[middle as usize] - 1,
                at_b,
            };
            visit(a as u32, b, std::mem::take(&mut common[b as usize]), wedge);
        }
    }
}

/// The pair visitor over both sides, in global ids, so sources ascend
/// through the whole graph.
fn for_each_global_pair(graph: &BipartiteGraph, mut visit: impl FnMut(usize, usize, u32)) {
    for (side, offset) in [(Side::Left, 0), (Side::Right, graph.num_left())] {
        for_each_pair(graph, side, ascending(graph, side), |a, b, common, _| {
            visit(a as usize + offset, b as usize + offset, common);
        });
    }
}

/// `|N≤2|` for every vertex, indexed by global id: its degree plus the
/// number of 2-hop pairs it is in (the two parts are disjoint: one is on
/// the opposite side, the other on the same side). One pair pass,
/// `O(Σ_v deg(v)²)`.
pub fn all_n_le2_sizes(graph: &BipartiteGraph) -> Vec<usize> {
    let mut sizes: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
    for_each_global_pair(graph, |a, b, _| {
        sizes[a] += 1;
        sizes[b] += 1;
    });
    sizes
}

/// The bicore peel's witness store: one bit per wedge, set at each 2-hop
/// pair's witness (see the [module docs](self#the-witness-store) for the
/// layout, the build and its cost).
///
/// Vertex `m`'s triangle is the bits `base[m]..base[m + 1]`. The pair at
/// positions `i < j` of its row is bit `base[m] + j(j − 1)/2 + i`, so
/// column `j`, the pairs whose larger position is `j`, is a run of `j`
/// bits.
#[derive(Debug, Clone)]
pub struct TwoHopIndex {
    /// Bit offset of each global vertex's triangle; `n + 1` entries.
    base: Vec<usize>,
    bits: Vec<u64>,
    /// `|N2|` of each global vertex in the whole graph.
    two_hop: Vec<u32>,
}

impl TwoHopIndex {
    /// Builds the store for every vertex of `graph`.
    pub fn build(graph: &BipartiteGraph) -> TwoHopIndex {
        let n = graph.num_vertices();
        let nl = graph.num_left();
        let degree = |g: usize| graph.degree(graph.vertex_of_global(g));
        let mut base = Vec::with_capacity(n + 1);
        base.push(0);
        for g in 0..n {
            let d = degree(g);
            base.push(base[g] + d * d.saturating_sub(1) / 2);
        }
        // Middles in descending (core, degree, id). Only a vertex of
        // degree 2 or more is the middle of a wedge; those of degree 1
        // go last, in any order.
        let core = core_decomposition(graph).core;
        let mut priority: Vec<(u64, u32)> = (0..n)
            .filter(|&g| base[g + 1] > base[g])
            .map(|g| ((core[g] as u64) << 32 | degree(g) as u64, g as u32))
            .collect();
        priority.sort_unstable_by_key(|&middle| Reverse(middle));
        priority.extend((0..n).filter(|&g| degree(g) == 1).map(|g| (0, g as u32)));

        let mut index = TwoHopIndex {
            bits: vec![0; base[n].div_ceil(64)],
            base,
            two_hop: vec![0; n],
        };
        // (ends' side, their global offset, the middles' global offset)
        for (side, offset, middles) in [(Side::Left, 0, nl), (Side::Right, nl, 0)] {
            let walk = rows_in_order(graph, side, &priority);
            for_each_pair(graph, side, &walk, |a, b, _, first| {
                index.set(first.middle as usize + middles, first.at_a, first.at_b);
                index.two_hop[a as usize + offset] += 1;
                index.two_hop[b as usize + offset] += 1;
            });
        }
        index
    }

    /// `|N2(g)|` in the whole graph.
    pub(crate) fn two_hop_degree(&self, g: usize) -> u32 {
        self.two_hop[g]
    }

    /// Makes `m` the witness of the pair at positions `i < j` of its row.
    pub(crate) fn set(&mut self, m: usize, i: u32, j: u32) {
        debug_assert!(i < j);
        let (i, j) = (i as usize, j as usize);
        let bit = self.base[m] + j * (j - 1) / 2 + i;
        debug_assert!(bit < self.base[m + 1]);
        self.bits[bit / 64] |= 1 << (bit % 64);
    }

    /// Column `j` of `m`'s triangle: the pairs at positions `(i, j)`,
    /// `i < j`, of its row.
    pub(crate) fn column(&self, m: usize, j: usize) -> Column {
        let start = self.base[m] + j * j.saturating_sub(1) / 2;
        Column {
            start,
            next: start,
            end: start + j,
        }
    }

    /// Same-side 2-hop pairs: half the total length of the `N2` lists (an
    /// index size gauge).
    pub fn entries(&self) -> usize {
        self.two_hop.iter().map(|&d| d as usize).sum::<usize>() / 2
    }
}

/// A cursor over one column of a triangle in a [`TwoHopIndex`]. It holds
/// no borrow, so the store can change between steps.
pub(crate) struct Column {
    start: usize,
    next: usize,
    end: usize,
}

impl Column {
    /// The next position `i` whose pair the column's middle witnesses, in
    /// ascending order.
    pub(crate) fn next_set(&mut self, index: &TwoHopIndex) -> Option<u32> {
        while self.next < self.end {
            let word = index.bits[self.next / 64] >> (self.next % 64);
            if word != 0 {
                let bit = self.next + word.trailing_zeros() as usize;
                if bit >= self.end {
                    break;
                }
                self.next = bit + 1;
                return Some((bit - self.start) as u32);
            }
            self.next = (self.next / 64 + 1) * 64;
        }
        self.next = self.end;
        None
    }
}

/// `side`'s rows at the offsets of its CSR, each listing its middles in
/// the order they come in `priority` (ranked global ids, every vertex
/// with a neighbour once): one pass over the other side's rows.
fn rows_in_order(graph: &BipartiteGraph, side: Side, priority: &[(u64, u32)]) -> Vec<u32> {
    let offsets = match side {
        Side::Left => graph.left_offsets(),
        Side::Right => graph.right_offsets(),
    };
    let mut cursor = offsets[..offsets.len() - 1].to_vec();
    let mut walk = vec![0u32; graph.num_edges()];
    for &(_, g) in priority {
        let middle = graph.vertex_of_global(g as usize);
        if middle.side == side {
            continue;
        }
        for &a in graph.neighbors(middle) {
            walk[cursor[a as usize]] = middle.index;
            cursor[a as usize] += 1;
        }
    }
    walk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::{sorted_intersection, BipartiteGraph};

    fn path_graph() -> BipartiteGraph {
        // L0-R0, L1-R0, L1-R1, L2-R1 : a path L0 R0 L1 R1 L2.
        BipartiteGraph::from_edges(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap()
    }

    #[test]
    fn n2_on_a_path() {
        let g = path_graph();
        assert_eq!(n2_neighbors(&g, Vertex::left(0)), vec![1]);
        assert_eq!(n2_neighbors(&g, Vertex::left(1)), vec![0, 2]);
        assert_eq!(n2_neighbors(&g, Vertex::right(0)), vec![1]);
    }

    #[test]
    fn n2_excludes_self() {
        let g = generators::complete(4, 4);
        let n2 = n2_neighbors(&g, Vertex::left(2));
        assert_eq!(n2, vec![0, 1, 3]);
    }

    #[test]
    fn n_le2_size_on_complete_graph() {
        let g = generators::complete(3, 5);
        let sizes = all_n_le2_sizes(&g);
        // Left vertex: 5 neighbours + 2 same-side = 7.
        assert_eq!(sizes[g.global_id(Vertex::left(0))], 7);
        // Right vertex: 3 neighbours + 4 same-side = 7.
        assert_eq!(sizes[g.global_id(Vertex::right(4))], 7);
    }

    #[test]
    fn isolated_vertex_has_no_two_hop_neighbourhood() {
        let g = BipartiteGraph::from_edges(2, 2, [(0, 0)]).unwrap();
        assert_eq!(all_n_le2_sizes(&g), vec![1, 0, 1, 0]);
        assert_eq!(n2_neighbors(&g, Vertex::left(1)), Vec::<u32>::new());
    }

    #[test]
    fn all_sizes_agree_with_single_vertex_queries() {
        let g = generators::uniform_edges(20, 15, 80, 3);
        let all = all_n_le2_sizes(&g);
        for v in g.vertices() {
            let expected = g.degree(v) + n2_neighbors(&g, v).len();
            assert_eq!(all[g.global_id(v)], expected, "vertex {v}");
        }
    }

    #[test]
    fn n2_is_symmetric() {
        let g = generators::uniform_edges(15, 15, 60, 7);
        for u in 0..15u32 {
            for w in n2_neighbors(&g, Vertex::left(u)) {
                let back = n2_neighbors(&g, Vertex::left(w));
                assert!(back.contains(&u), "L{u} ∈ N2(L{w}) missing");
            }
        }
    }

    /// Graphs from empty to complete, uniform and Chung–Lu.
    fn store_graphs() -> Vec<BipartiteGraph> {
        let mut graphs = vec![
            BipartiteGraph::from_edges(0, 0, []).unwrap(),
            BipartiteGraph::from_edges(3, 2, []).unwrap(),
            BipartiteGraph::from_edges(1, 6, (0..6).map(|v| (0, v))).unwrap(),
            path_graph(),
            generators::complete(5, 3),
            generators::complete(4, 6),
        ];
        for seed in 0..12u64 {
            let (nl, nr) = (1 + seed as u32 % 13, 1 + (seed as u32 * 7) % 17);
            let edges = (seed as usize % 5 + 1) * (nl + nr) as usize;
            graphs.push(generators::uniform_edges(nl, nr, edges, seed));
            let params = generators::ChungLuParams {
                num_left: 30,
                num_right: 20,
                num_edges: 90,
                left_exponent: 0.8,
                right_exponent: 0.7,
            };
            graphs.push(generators::chung_lu_bipartite(&params, seed));
        }
        graphs
    }

    /// For the same-side pair `a < b` (global ids): each common neighbour
    /// as a global id, with whether its bit for the pair is set.
    fn witness_bits(
        index: &TwoHopIndex,
        g: &BipartiteGraph,
        a: usize,
        b: usize,
    ) -> Vec<(usize, bool)> {
        let (va, vb) = (g.vertex_of_global(a), g.vertex_of_global(b));
        sorted_intersection(g.neighbors(va), g.neighbors(vb))
            .into_iter()
            .map(|m| {
                let middle = Vertex {
                    side: va.side.opposite(),
                    index: m,
                };
                let row = g.neighbors(middle);
                let at = |x: u32| row.binary_search(&x).unwrap();
                let (i, j) = (at(va.index), at(vb.index));
                let bit = index.base[g.global_id(middle)] + j * (j - 1) / 2 + i;
                (
                    g.global_id(middle),
                    index.bits[bit / 64] >> (bit % 64) & 1 == 1,
                )
            })
            .collect()
    }

    /// Every same-side pair `a < b` of 2-hop neighbours, in global ids.
    fn two_hop_pairs(g: &BipartiteGraph) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for v in g.vertices() {
            let a = g.global_id(v);
            let offset = a - v.index as usize;
            for w in n2_neighbors(g, v) {
                if w > v.index {
                    pairs.push((a, w as usize + offset));
                }
            }
        }
        pairs
    }

    #[test]
    fn every_pair_has_exactly_one_witness_bit() {
        // One set bit per pair and no other, and |N2| per vertex from the
        // single-vertex walk.
        for g in &store_graphs() {
            let index = TwoHopIndex::build(g);
            let pairs = two_hop_pairs(g);
            for &(a, b) in &pairs {
                let set = witness_bits(&index, g, a, b)
                    .iter()
                    .filter(|&&(_, set)| set)
                    .count();
                assert_eq!(set, 1, "pair {a}, {b}");
            }
            let bits: u32 = index.bits.iter().map(|w| w.count_ones()).sum();
            assert_eq!(bits as usize, pairs.len());
            assert_eq!(index.entries(), pairs.len());
            for v in g.vertices() {
                let expected = n2_neighbors(g, v).len() as u32;
                assert_eq!(index.two_hop_degree(g.global_id(v)), expected, "vertex {v}");
            }
        }
    }

    #[test]
    fn the_witness_is_the_strongest_common_neighbour() {
        // The set bit sits at the common neighbour with the largest
        // (core number, degree, id).
        for g in &store_graphs() {
            let index = TwoHopIndex::build(g);
            let core = core_decomposition(g).core;
            let strength = |m: usize| (core[m], g.degree(g.vertex_of_global(m)), m);
            for (a, b) in two_hop_pairs(g) {
                let bits = witness_bits(&index, g, a, b);
                let strongest = bits.iter().map(|&(m, _)| m).max_by_key(|&m| strength(m));
                let witness = bits.iter().find(|&&(_, set)| set).map(|&(m, _)| m);
                assert_eq!(witness, strongest, "pair {a}, {b}");
            }
        }
    }

    #[test]
    fn n_le2_parts_are_disjoint_sides() {
        // N≤2(L0) is its right-side neighbours plus N2(L0), whose indices
        // are left-side and exclude L0 itself.
        let g = generators::uniform_edges(10, 12, 50, 1);
        for w in n2_neighbors(&g, Vertex::left(0)) {
            assert!(w < 10);
            assert_ne!(w, 0);
        }
    }
}
