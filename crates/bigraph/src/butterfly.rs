//! Butterfly (2×2 biclique, C₄) counting.
//!
//! The butterfly is the bipartite analogue of the triangle: the smallest
//! non-trivial balanced biclique. Butterfly counts measure how much
//! "biclique material" a bipartite graph holds, which is why the dataset
//! explorer and the bench reports use them to characterise workloads —
//! a graph with few butterflies cannot hide a large MBB (a k×k biclique
//! contains `C(k,2)²` butterflies), giving a cheap sanity bound.
//!
//! The counting algorithm is the standard wedge-count: for every pair of
//! same-side vertices with `c` common neighbours, the pair closes
//! `C(c, 2)` butterflies. The pairs come from the pair pass in
//! [`two_hop`](crate::two_hop), run on the side whose wedges are centred
//! on the smaller sum of squared degrees, so the cost is
//! `O(min(Σ_L deg², Σ_R deg²))`.

use crate::graph::{BipartiteGraph, Side};
use crate::two_hop::{ascending, for_each_pair};

/// Exact number of butterflies (2×2 bicliques) in `graph`.
///
/// ```
/// use mbb_bigraph::butterfly::count_butterflies;
/// use mbb_bigraph::generators;
///
/// // A complete k×k biclique has C(k,2)² butterflies: 9 for k = 3.
/// let g = generators::complete(3, 3);
/// assert_eq!(count_butterflies(&g), 9);
/// ```
pub fn count_butterflies(graph: &BipartiteGraph) -> u64 {
    // Centres on the side whose squared degree sum is smaller generate
    // fewer wedges; the pairs are then taken on the other side.
    let wedges = |side: Side| -> u64 {
        graph
            .vertices()
            .filter(|v| v.side == side)
            .map(|v| (graph.degree(v) as u64).pow(2))
            .sum()
    };
    let ends = if wedges(Side::Left) <= wedges(Side::Right) {
        Side::Right
    } else {
        Side::Left
    };
    let mut total = 0u64;
    for_each_pair(graph, ends, ascending(graph, ends), |_, _, common, _| {
        let c = common as u64;
        total += c * (c - 1) / 2;
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// O(n⁴) reference count.
    fn brute_force(graph: &BipartiteGraph) -> u64 {
        let nl = graph.num_left() as u32;
        let nr = graph.num_right() as u32;
        let mut count = 0;
        for u1 in 0..nl {
            for u2 in u1 + 1..nl {
                for v1 in 0..nr {
                    for v2 in v1 + 1..nr {
                        if graph.has_edge(u1, v1)
                            && graph.has_edge(u1, v2)
                            && graph.has_edge(u2, v1)
                            && graph.has_edge(u2, v2)
                        {
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..20u64 {
            let g = generators::uniform_edges(8, 8, 28, seed);
            assert_eq!(count_butterflies(&g), brute_force(&g), "seed {seed}");
        }
    }

    #[test]
    fn asymmetric_sides_match_brute_force() {
        for seed in 0..10u64 {
            let g = generators::uniform_edges(4, 12, 26, seed ^ 0x11);
            assert_eq!(count_butterflies(&g), brute_force(&g), "seed {seed}");
            let g = generators::uniform_edges(12, 4, 26, seed ^ 0x22);
            assert_eq!(count_butterflies(&g), brute_force(&g), "seed {seed}");
        }
    }

    #[test]
    fn complete_graph_closed_form() {
        // C(nl, 2) · C(nr, 2).
        let g = generators::complete(4, 5);
        assert_eq!(count_butterflies(&g), 6 * 10);
    }

    #[test]
    fn butterfly_free_graphs() {
        // Trees and matchings have no C4.
        let matching = BipartiteGraph::from_edges(4, 4, (0..4).map(|i| (i, i))).unwrap();
        assert_eq!(count_butterflies(&matching), 0);
        let star = BipartiteGraph::from_edges(1, 6, (0..6).map(|v| (0, v))).unwrap();
        assert_eq!(count_butterflies(&star), 0);
        let path = BipartiteGraph::from_edges(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
        assert_eq!(count_butterflies(&path), 0);
    }

    #[test]
    fn single_butterfly() {
        let g = generators::complete(2, 2);
        assert_eq!(count_butterflies(&g), 1);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(count_butterflies(&g), 0);
    }

    #[test]
    fn kxk_biclique_lower_bounds_butterflies() {
        // A planted k×k biclique implies ≥ C(k,2)² butterflies — the
        // sanity bound the dataset explorer reports.
        let noise = generators::uniform_edges(12, 12, 20, 3);
        let (g, _, _) = generators::plant_balanced_biclique(&noise, 4);
        assert!(count_butterflies(&g) >= 36);
    }
}
