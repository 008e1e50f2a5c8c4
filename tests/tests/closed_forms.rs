//! Closed-form verification: structured graph families whose MBB,
//! butterfly counts and frontier are derivable by hand. Every public API must reproduce the formula — a failure here
//! localises a bug much faster than a random-graph mismatch.

use mbb_bigraph::butterfly::count_butterflies;
use mbb_bigraph::core_decomp::core_decomposition;
use mbb_bigraph::generators::complete;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_core::engine::MbbEngine;
use mbb_core::enumerate::{all_maximal_bicliques, EnumConfig};

/// The MBB half-size, through a one-query engine session.
fn mbb_half(g: &BipartiteGraph) -> usize {
    MbbEngine::new(g.clone()).solve().value.half_size()
}

/// The size frontier's Pareto pairs, through a one-query engine session.
fn frontier_pairs(g: &BipartiteGraph) -> Vec<(usize, usize)> {
    let frontier = MbbEngine::new(g.clone()).frontier().value;
    assert!(frontier.complete);
    frontier.pairs
}

/// K(m, n) minus a perfect matching on the first `min(m, n)` pairs
/// (the "crown" when m = n).
fn complete_minus_matching(m: u32, n: u32) -> BipartiteGraph {
    let edges = (0..m).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)));
    BipartiteGraph::from_edges(m, n, edges).unwrap()
}

/// Alternating path with `k` edges: L0-R0-L1-R1-…
fn path(k: u32) -> BipartiteGraph {
    let edges = (0..k).map(|i| {
        if i % 2 == 0 {
            (i / 2, i / 2)
        } else {
            (i / 2 + 1, i / 2)
        }
    });
    let nl = k / 2 + 1;
    let nr = k.div_ceil(2);
    BipartiteGraph::from_edges(nl, nr, edges).unwrap()
}

/// Even cycle with `2k` vertices (`k` per side).
fn cycle(k: u32) -> BipartiteGraph {
    assert!(k >= 2);
    let edges = (0..k).flat_map(|i| [(i, i), (i, (i + k - 1) % k)]);
    BipartiteGraph::from_edges(k, k, edges).unwrap()
}

/// Two hubs joined by an edge, each with `p` pendant leaves.
fn double_star(p: u32) -> BipartiteGraph {
    let mut edges = vec![(0u32, 0u32)];
    edges.extend((0..p).map(|i| (0, 1 + i))); // left hub leaves
    edges.extend((0..p).map(|i| (1 + i, 0))); // right hub leaves
    BipartiteGraph::from_edges(p + 1, p + 1, edges).unwrap()
}

#[test]
fn complete_bipartite_formulas() {
    for (m, n) in [(2u32, 2u32), (3, 5), (6, 4), (7, 7)] {
        let g = complete(m, n);
        let k = m.min(n) as usize;
        assert_eq!(mbb_half(&g), k, "K({m},{n})");
        // One maximal biclique: the whole graph.
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert_eq!(all.len(), 1);
        // C(m,2) · C(n,2) butterflies.
        let expected = (m as u64 * (m as u64 - 1) / 2) * (n as u64 * (n as u64 - 1) / 2);
        assert_eq!(count_butterflies(&g), expected);
        // Frontier is the single point (m, n).
        assert_eq!(frontier_pairs(&g), vec![(m as usize, n as usize)]);
        // Degeneracy is min(m, n).
        assert_eq!(core_decomposition(&g).degeneracy, m.min(n));
    }
}

#[test]
fn crown_graph_formulas() {
    // K(n,n) minus a perfect matching: MBB half = floor(n/2) (split the
    // matching pairs between the sides), butterflies = C(n,2)² − C(n,2)·
    // … computed via the n(n-1)/2 pairs sharing n−2 commons:
    // each left pair (u,w) has n−2 common neighbours → C(n−2,2) each.
    for n in [3u32, 4, 5, 6, 7] {
        let g = complete_minus_matching(n, n);
        assert_eq!(mbb_half(&g), (n / 2) as usize, "crown {n}");
        let pairs = n as u64 * (n as u64 - 1) / 2;
        let c = n as u64 - 2;
        assert_eq!(
            count_butterflies(&g),
            pairs * (c * (c - 1) / 2),
            "crown {n}"
        );
    }
}

#[test]
fn complete_minus_one_edge() {
    // K(n,n) minus a single edge: half = n − 1.
    for n in [2u32, 3, 4, 5] {
        let edges = (0..n)
            .flat_map(|u| (0..n).map(move |v| (u, v)))
            .filter(|&(u, v)| !(u == 0 && v == 0));
        let g = BipartiteGraph::from_edges(n, n, edges).unwrap();
        assert_eq!(mbb_half(&g), (n - 1) as usize, "n = {n}");
        // Exactly two maximal bicliques: (L∖{0})×R and L×(R∖{0}).
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert_eq!(all.len(), 2, "n = {n}");
    }
}

#[test]
fn paths_have_half_one() {
    // Trees are C4-free: MBB half is 1 as soon as an edge exists.
    for k in 1..8u32 {
        let g = path(k);
        assert_eq!(mbb_half(&g), 1, "P_{k}");
        assert_eq!(count_butterflies(&g), 0);
        // A path's maximal bicliques are its stars around internal
        // vertices (degree-2) and, for k = 1, the single edge.
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert!(all.iter().all(|b| b.balanced_size() == 1));
    }
}

#[test]
fn cycles_formulas() {
    // C4 (k = 2) is K(2,2): half 2, one butterfly. Longer even cycles are
    // C4-free: half 1, one maximal biclique (a 2-star) per vertex.
    let c4 = cycle(2);
    assert_eq!(mbb_half(&c4), 2);
    assert_eq!(count_butterflies(&c4), 1);
    for k in 3..8u32 {
        let g = cycle(k);
        assert_eq!(mbb_half(&g), 1, "C_{}", 2 * k);
        assert_eq!(count_butterflies(&g), 0);
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert_eq!(
            all.len(),
            2 * k as usize,
            "C_{}: one star per vertex",
            2 * k
        );
        // Every vertex has degree 2, so the core number is 2 everywhere.
        assert_eq!(core_decomposition(&g).degeneracy, 2);
    }
}

#[test]
fn double_star_formulas() {
    for p in [1u32, 3, 6] {
        let g = double_star(p);
        assert_eq!(mbb_half(&g), 1, "double star {p}");
        assert_eq!(count_butterflies(&g), 0);
        // Maximal bicliques: the two hub stars ({L0}×R-side and
        // L-side×{R0}).
        let (all, _) = all_maximal_bicliques(&g, &EnumConfig::default());
        assert_eq!(all.len(), 2, "double star {p}");
        let top = MbbEngine::new(g).topk(2);
        assert!(top.termination.is_complete());
        assert_eq!(top.value.len(), 2);
        assert_eq!(top.value[0].balanced_size(), 1);
    }
}

#[test]
fn disjoint_union_of_blocks() {
    // Blocks of sizes 1..=4 stacked diagonally: MBB = the largest block;
    // butterflies add up.
    let mut edges = Vec::new();
    let mut offset = 0u32;
    let mut expected_butterflies = 0u64;
    for size in 1..=4u32 {
        for u in 0..size {
            for v in 0..size {
                edges.push((offset + u, offset + v));
            }
        }
        let pairs = size as u64 * (size as u64 - 1) / 2;
        expected_butterflies += pairs * pairs;
        offset += size;
    }
    let g = BipartiteGraph::from_edges(offset, offset, edges).unwrap();
    assert_eq!(mbb_half(&g), 4);
    assert_eq!(count_butterflies(&g), expected_butterflies);
    // Top-4 balanced sizes are exactly 4, 3, 2, 1.
    let top = MbbEngine::new(g.clone()).topk(4).value;
    let sizes: Vec<usize> = top.iter().map(|b| b.balanced_size()).collect();
    assert_eq!(sizes, vec![4, 3, 2, 1]);
    // The frontier stacks the blocks: (k, k) pairs are dominated by (4,4)
    // … every block is a square, so the frontier is just (4, 4).
    assert_eq!(frontier_pairs(&g), vec![(4, 4)]);
}

#[test]
fn grid_graph_formulas() {
    // The 3×3 rook's graph interpretation: left = rows, right = columns,
    // cell (i, j) an edge with multiplicity 1 — i.e. K(3,3); sanity-check
    // the generator path instead with an explicit bipartite grid
    // (incidence of a 4-cycle chain): C4 chain glued edge-to-edge.
    // Two glued C4s share two vertices; the MBB is still 2×2.
    let g =
        BipartiteGraph::from_edges(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]).unwrap();
    // This is K(3,2): half = 2, frontier (3,2).
    assert_eq!(mbb_half(&g), 2);
    assert_eq!(frontier_pairs(&g), vec![(3, 2)]);
}

#[test]
fn single_vertex_sides() {
    // 1×n star: half 1, frontier (1, n).
    for n in [1u32, 4, 9] {
        let g = BipartiteGraph::from_edges(1, n, (0..n).map(|v| (0, v))).unwrap();
        assert_eq!(mbb_half(&g), 1);
        assert_eq!(frontier_pairs(&g), vec![(1, n as usize)]);
        assert_eq!(count_butterflies(&g), 0);
    }
}
