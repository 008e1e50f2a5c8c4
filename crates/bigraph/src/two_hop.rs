//! 2-hop neighbourhoods (`N2`, `N≤2` — Definitions 1 and 2), and the one
//! pass over them.
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
//! its smaller end `a`, without a search. It tallies `a`'s partners in
//! one count array the size of the side: `O(Σ_m deg(m)²)` time and
//! `O(|L| + |R|)` scratch. It feeds
//!
//! * [`TwoHopIndex`], the bicore peel's pair store;
//! * [`all_n_le2_sizes`];
//! * one-mode projection, [`project`](crate::projection::project);
//! * butterfly counting,
//!   [`count_butterflies`](crate::butterfly::count_butterflies).
//!
//! [`n2_neighbors`] is the single-vertex walk, for callers that need one
//! `N2` list (each anchored query takes it), and the oracle the tests
//! check the pass against.

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

/// The pair visitor: calls `visit(a, b, common)` once for every pair of
/// `side`'s vertices `a < b` (local ids) with `common ≥ 1` common
/// neighbours. Sources `a` ascend; one source's partners come in no fixed
/// order.
pub(crate) fn for_each_pair(
    graph: &BipartiteGraph,
    side: Side,
    mut visit: impl FnMut(u32, u32, u32),
) {
    let (size, mids) = match side {
        Side::Left => (graph.num_left(), graph.num_right()),
        Side::Right => (graph.num_right(), graph.num_left()),
    };
    let row = |side, index| graph.neighbors(Vertex { side, index });
    let mut common = vec![0u32; size];
    let mut partners: Vec<u32> = Vec::with_capacity(size);
    // passed[m]: how many of m's neighbours have been sources; a sits at
    // that position of m's sorted row.
    let mut passed = vec![0usize; mids];
    for a in 0..size as u32 {
        for &m in row(side, a) {
            let ends = row(side.opposite(), m);
            let at = &mut passed[m as usize];
            debug_assert_eq!(ends[*at], a);
            *at += 1;
            for &b in &ends[*at..] {
                let count = &mut common[b as usize];
                if *count == 0 {
                    partners.push(b);
                }
                *count += 1;
            }
        }
        for b in partners.drain(..) {
            visit(a, b, std::mem::take(&mut common[b as usize]));
        }
    }
}

/// The pair visitor over both sides, in global ids, so sources ascend
/// through the whole graph.
fn for_each_global_pair(graph: &BipartiteGraph, mut visit: impl FnMut(usize, usize, u32)) {
    for (side, offset) in [(Side::Left, 0), (Side::Right, graph.num_left())] {
        for_each_pair(graph, side, |a, b, common| {
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

/// Every same-side 2-hop pair, stored once with its common-neighbour
/// count: the bicore peel's 2-hop structure.
///
/// Row `b` (a global id) holds each partner `a < b` that shares a
/// neighbour with `b`, ascending, next to the number of neighbours the two
/// share. So `N2(b)` is row `b` plus every larger vertex whose row holds
/// `b`. Two runs of the pair pass build it in `O(Σ deg²)` time, with no
/// hashing and no sorting: the first counts each row's pairs, the second
/// puts each pair `a < b` into row `b`. Sources ascend, so every row fills
/// in ascending order.
///
/// The index keeps 8 bytes per pair (a `u32` partner and a `u32` count)
/// and 8 bytes per vertex of offsets. Pairs number at most `Σ deg² / 2`
/// and approach `n² / 2` on dense graphs; a caller that needs one vertex's
/// list walks it with [`n2_neighbors`] instead.
#[derive(Debug, Clone)]
pub struct TwoHopIndex {
    /// Row `g` (a global id) is `pairs[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<usize>,
    pairs: Vec<Pair>,
}

/// One entry of a [`TwoHopIndex`] row.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pair {
    /// The smaller end, as a global id.
    pub(crate) partner: u32,
    /// Common neighbours of the two ends.
    pub(crate) common: u32,
}

impl TwoHopIndex {
    /// Builds the index for every vertex of `graph`.
    pub fn build(graph: &BipartiteGraph) -> TwoHopIndex {
        let n = graph.num_vertices();
        // Pass 1: each pair a < b lands in row b.
        let mut offsets = vec![0usize; n + 1];
        for_each_global_pair(graph, |_, b, _| offsets[b + 1] += 1);
        for g in 0..n {
            offsets[g + 1] += offsets[g];
        }

        // Pass 2: sources ascend, so each row fills in ascending order.
        let mut cursor = offsets[..n].to_vec();
        let mut pairs = vec![Pair::default(); offsets[n]];
        for_each_global_pair(graph, |a, b, common| {
            pairs[cursor[b]] = Pair {
                partner: a as u32,
                common,
            };
            cursor[b] += 1;
        });
        TwoHopIndex { offsets, pairs }
    }

    /// Row `g`: its smaller 2-hop neighbours, ascending.
    pub(crate) fn row(&self, g: usize) -> &[Pair] {
        &self.pairs[self.offsets[g]..self.offsets[g + 1]]
    }

    /// Row `g`, with its counts writable.
    pub(crate) fn row_mut(&mut self, g: usize) -> &mut [Pair] {
        &mut self.pairs[self.offsets[g]..self.offsets[g + 1]]
    }

    /// Stored pairs: half the total length of the `N2` lists (an index
    /// size gauge).
    pub fn entries(&self) -> usize {
        self.pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::{sorted_intersection_len, BipartiteGraph};

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

    #[test]
    fn index_matches_per_vertex_queries() {
        // Every row, shifted to same-side indices, is the smaller-id half
        // of the single-vertex walk, on graphs from sparse to complete;
        // each pair is stored once.
        let mut graphs = vec![
            BipartiteGraph::from_edges(3, 2, []).unwrap(),
            BipartiteGraph::from_edges(1, 6, (0..6).map(|v| (0, v))).unwrap(),
            generators::complete(5, 3),
        ];
        for seed in 0..24u64 {
            let (nl, nr) = (1 + seed as u32 % 13, 1 + (seed as u32 * 7) % 17);
            let edges = (seed as usize % 5 + 1) * (nl + nr) as usize;
            graphs.push(generators::uniform_edges(nl, nr, edges, seed));
        }
        for g in &graphs {
            let index = TwoHopIndex::build(g);
            for v in g.vertices() {
                let global = g.global_id(v);
                let offset = (global - v.index as usize) as u32;
                let row: Vec<u32> = index
                    .row(global)
                    .iter()
                    .map(|p| p.partner - offset)
                    .collect();
                let smaller: Vec<u32> = n2_neighbors(g, v)
                    .into_iter()
                    .filter(|&w| w < v.index)
                    .collect();
                assert_eq!(row, smaller, "vertex {v}");
            }
            let total = g
                .vertices()
                .map(|v| n2_neighbors(g, v).len())
                .sum::<usize>();
            assert_eq!(2 * index.entries(), total);
        }
    }

    #[test]
    fn multiplicities_count_common_neighbours() {
        let mut graphs = vec![
            BipartiteGraph::from_edges(0, 0, []).unwrap(),
            BipartiteGraph::from_edges(3, 2, []).unwrap(),
            path_graph(),
            generators::complete(4, 6),
        ];
        for seed in 0..12 {
            graphs.push(generators::uniform_edges(
                14,
                11,
                20 + 5 * seed as usize,
                seed,
            ));
            let params = generators::ChungLuParams {
                num_left: 30,
                num_right: 20,
                num_edges: 90,
                left_exponent: 0.8,
                right_exponent: 0.7,
            };
            graphs.push(generators::chung_lu_bipartite(&params, seed));
        }
        for g in &graphs {
            let index = TwoHopIndex::build(g);
            for b in 0..g.num_vertices() {
                let nb = g.neighbors(g.vertex_of_global(b));
                for p in index.row(b) {
                    let a = p.partner as usize;
                    let na = g.neighbors(g.vertex_of_global(a));
                    let common = sorted_intersection_len(na, nb);
                    assert_eq!(p.common as usize, common, "pair {a}, {b}");
                }
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
