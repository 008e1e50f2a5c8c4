//! Anchored MBB search: the largest balanced biclique *containing a given
//! vertex or edge*.
//!
//! Observation 4 of the paper: every biclique through a vertex `v` lives
//! inside the subgraph induced by `{v} ∪ N≤2(v)`. Anchored search is
//! therefore a single vertex-centred problem — extract that subgraph,
//! pin the anchor into the partial result, and run `denseMBB` seeded the
//! same way Algorithm 8 seeds its verification calls. This is the
//! building block for "why is this vertex (not) in the MBB" queries and
//! per-entity bicluster reports.

use mbb_bigraph::graph::{BipartiteGraph, Side, Vertex};
use mbb_bigraph::two_hop::n2_neighbors;

use crate::biclique::Biclique;
use crate::budget::SearchBudget;
use crate::dense::{dense_mbb_pinned, DenseConfig};
use crate::stats::SearchStats;

/// The largest balanced biclique containing `anchor` (empty only when
/// `anchor` has no incident edge), and the statistics of the seeded
/// `denseMBB` run. This is the search behind
/// [`MbbEngine::anchored`](crate::engine::MbbEngine::anchored): each call
/// walks `N≤2(anchor)`, reading no more adjacency than the induction of
/// the subgraph after it, and the run honours the [`SearchBudget`]
/// (best-so-far on exhaustion).
pub fn anchored_budgeted(
    graph: &BipartiteGraph,
    anchor: Vertex,
    budget: &SearchBudget,
) -> (Biclique, SearchStats) {
    let neighbors = graph.neighbors(anchor);
    if neighbors.is_empty() {
        return (Biclique::empty(), SearchStats::default());
    }

    // Local index 0 on the anchor's side is the anchor itself. It has at
    // least one neighbour, so the pinned search always finds half ≥ 1.
    let mut same_side = vec![anchor.index];
    same_side.extend(n2_neighbors(graph, anchor));
    let config = DenseConfig::default();
    match anchor.side {
        Side::Left => dense_mbb_pinned(graph, &same_side, neighbors, &[0], &[], 0, config, budget),
        Side::Right => dense_mbb_pinned(graph, neighbors, &same_side, &[], &[0], 0, config, budget),
    }
}

/// The largest balanced biclique containing the edge `(u, v)` (left `u`,
/// right `v`), or `None` when the edge is absent from the graph. This is
/// the budgeted search behind
/// [`MbbEngine::anchored_edge`](crate::engine::MbbEngine::anchored_edge).
pub fn anchored_edge_budgeted(
    graph: &BipartiteGraph,
    u: u32,
    v: u32,
    budget: &SearchBudget,
) -> Option<(Biclique, SearchStats)> {
    if !graph.has_edge(u, v) {
        return None;
    }

    // Scope: left side {u} ∪ N2(u) restricted to N(v); right side N(u).
    // Every biclique through the edge has A ⊆ N(v) and B ⊆ N(u).
    let mut left_ids = vec![u];
    let u_two_hop = n2_neighbors(graph, Vertex::left(u));
    left_ids.extend(u_two_hop.into_iter().filter(|&w| graph.has_edge(w, v)));

    let right_ids = graph.neighbors_left(u);
    let v_local = right_ids.binary_search(&v).expect("v is a neighbour of u") as u32;
    Some(dense_mbb_pinned(
        graph,
        &left_ids,
        right_ids,
        &[0],
        &[v_local],
        0,
        DenseConfig::default(),
        budget,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_bigraph::generators;
    use mbb_bigraph::graph::sorted_intersection;

    /// Brute force: the best balanced biclique whose left side contains
    /// `left` and whose right side contains `right` (each when given), by
    /// enumerating left subsets.
    fn brute_containing(graph: &BipartiteGraph, left: Option<u32>, right: Option<u32>) -> usize {
        let nl = graph.num_left();
        assert!(nl <= 14);
        let mut best = 0;
        for mask in 1u32..(1 << nl) {
            let a: Vec<u32> = (0..nl as u32).filter(|u| mask >> u & 1 == 1).collect();
            let mut common: Option<Vec<u32>> = None;
            for &u in &a {
                let n = graph.neighbors_left(u);
                common = Some(match common {
                    None => n.to_vec(),
                    Some(c) => sorted_intersection(&c, n),
                });
            }
            let common = common.unwrap_or_default();
            let ok =
                left.is_none_or(|u| a.contains(&u)) && right.is_none_or(|v| common.contains(&v));
            if ok {
                best = best.max(a.len().min(common.len()));
            }
        }
        best
    }

    /// Brute force: best balanced biclique whose left (right) side contains
    /// the anchor.
    fn brute_anchored(graph: &BipartiteGraph, anchor: Vertex) -> usize {
        match anchor.side {
            Side::Left => brute_containing(graph, Some(anchor.index), None),
            Side::Right => brute_containing(graph, None, Some(anchor.index)),
        }
    }

    #[test]
    fn matches_brute_force_left_anchors() {
        for seed in 0..15u64 {
            let g = generators::uniform_edges(8, 8, 30, seed);
            for u in 0..8u32 {
                let anchor = Vertex::left(u);
                let (b, _) = anchored_budgeted(&g, anchor, &SearchBudget::unlimited());
                assert_eq!(
                    b.half_size(),
                    brute_anchored(&g, anchor),
                    "seed {seed} anchor L{u}"
                );
                if !b.is_empty() {
                    assert!(b.is_valid(&g));
                    assert!(b.left.contains(&u));
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_right_anchors() {
        for seed in 20..30u64 {
            let g = generators::uniform_edges(8, 8, 30, seed);
            for v in 0..8u32 {
                let anchor = Vertex::right(v);
                let (b, _) = anchored_budgeted(&g, anchor, &SearchBudget::unlimited());
                assert_eq!(
                    b.half_size(),
                    brute_anchored(&g, anchor),
                    "seed {seed} anchor R{v}"
                );
                if !b.is_empty() {
                    assert!(b.right.contains(&v));
                }
            }
        }
    }

    #[test]
    fn isolated_anchor_returns_empty() {
        let g = BipartiteGraph::from_edges(3, 3, [(0, 0)]).unwrap();
        let (b, _) = anchored_budgeted(&g, Vertex::left(2), &SearchBudget::unlimited());
        assert!(b.is_empty());
        let (b, _) = anchored_budgeted(&g, Vertex::right(1), &SearchBudget::unlimited());
        assert!(b.is_empty());
    }

    #[test]
    fn anchored_never_exceeds_global_mbb() {
        let g = generators::uniform_edges(10, 10, 40, 3);
        let global = crate::engine::MbbEngine::new(g.clone())
            .solve()
            .value
            .half_size();
        let mut best_anchored = 0;
        for u in 0..10u32 {
            best_anchored = best_anchored.max(
                anchored_budgeted(&g, Vertex::left(u), &SearchBudget::unlimited())
                    .0
                    .half_size(),
            );
        }
        // Some anchor lies inside the MBB, so the max over anchors equals it.
        assert_eq!(best_anchored, global);
    }

    #[test]
    fn edge_anchor_contains_the_edge() {
        for seed in 0..10u64 {
            let g = generators::uniform_edges(8, 8, 28, seed ^ 0x44);
            for (u, v) in g.edges().take(10) {
                let (b, _) = anchored_edge_budgeted(&g, u, v, &SearchBudget::unlimited())
                    .expect("edge exists");
                assert!(b.left.contains(&u), "seed {seed} edge ({u},{v})");
                assert!(b.right.contains(&v));
                assert!(b.is_valid(&g));
                assert!(b.half_size() >= 1);
            }
        }
    }

    #[test]
    fn edge_anchor_matches_brute_force() {
        for seed in 0..12u64 {
            let g = generators::uniform_edges(8, 8, 18 + 3 * seed as usize, seed ^ 0x3c);
            for (u, v) in g.edges() {
                let (b, _) = anchored_edge_budgeted(&g, u, v, &SearchBudget::unlimited())
                    .expect("edge exists");
                assert_eq!(
                    b.half_size(),
                    brute_containing(&g, Some(u), Some(v)),
                    "seed {seed} edge ({u},{v})"
                );
                assert!(b.is_valid(&g));
                assert!(b.left.contains(&u) && b.right.contains(&v));
            }
        }
    }

    #[test]
    fn edge_anchor_missing_edge_is_none() {
        let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (1, 1)]).unwrap();
        assert!(anchored_edge_budgeted(&g, 0, 1, &SearchBudget::unlimited()).is_none());
    }

    #[test]
    fn edge_anchor_matches_vertex_anchor_on_blocks() {
        // In a complete block the edge anchor finds the whole block.
        let g = generators::complete(4, 5);
        let (b, _) = anchored_edge_budgeted(&g, 1, 2, &SearchBudget::unlimited()).unwrap();
        assert_eq!(b.half_size(), 4);
    }

    #[test]
    fn pendant_edge_is_its_own_mbb() {
        let mut edges: Vec<(u32, u32)> = (0..3).flat_map(|u| (0..3).map(move |v| (u, v))).collect();
        edges.push((3, 3));
        let g = BipartiteGraph::from_edges(4, 4, edges).unwrap();
        let (b, _) = anchored_budgeted(&g, Vertex::left(3), &SearchBudget::unlimited());
        assert_eq!(b.half_size(), 1);
        assert_eq!(b.left, vec![3]);
        assert_eq!(b.right, vec![3]);
    }
}
